//! Seeded `suppression` violations (the framework lints itself): a
//! reason-less suppression and an unused one. Lexed as text, never
//! compiled.

fn gemm_into(out: &mut [f32]) {
    // lint: allow(alloc-free-path)
    let v = Vec::new();
    // lint: allow(lock-discipline) — nothing here locks at all
    out[0] = v.len() as f32;
}
