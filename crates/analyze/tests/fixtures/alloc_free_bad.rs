//! Seeded `alloc-free-path` violations. Lexed as text by the fixture
//! tests, never compiled (the workspace walker skips `tests/fixtures/`).

fn forward_rows_into(out: &mut [f32]) {
    let v = Vec::new();
    let w = vec![0.0f32; 8];
    let label = format!("{} rows", out.len());
    out[0] = v.len() as f32 + w[0] + label.len() as f32;
}

fn scratch_ws(buf: &mut [f32]) {
    let copy = buf.to_vec();
    let boxed = Box::new(copy.len());
    let owned = String::from("hot");
    let gathered: Vec<f32> = buf.iter().copied().collect();
    buf[0] = *boxed as f32 + owned.len() as f32 + gathered[0];
}

fn cold_report(out: &[f32]) -> String {
    // Not a hot-path name: allocating here is fine.
    format!("{} rows", out.len())
}

fn suppressed_setup_into(out: &mut Vec<f32>) {
    // lint: allow(alloc-free-path) — one-time growth to the high-water mark
    out.extend(vec![0.0; 4]);
}
