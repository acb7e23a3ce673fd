//! Seeded `lock-discipline` violations. Lexed as text by the fixture
//! tests, never compiled.

fn nested(a: &std::sync::Mutex<u32>, b: &std::sync::Mutex<u32>) -> u32 {
    let ga = a.lock().unwrap();
    let gb = b.lock().unwrap();
    *ga + *gb
}

fn wait_outside_loop(m: &std::sync::Mutex<bool>, cv: &std::sync::Condvar) {
    let g = m.lock().unwrap();
    let g = cv.wait(g).unwrap();
    let _ = *g;
}

fn guard_across_wait(
    m: &std::sync::Mutex<bool>,
    other: &std::sync::Mutex<u32>,
    cv: &std::sync::Condvar,
) {
    let held = other.lock().unwrap();
    let mut g = m.lock().unwrap();
    while !*g {
        g = cv.wait(g).unwrap();
    }
    let _ = *held;
}

fn disciplined(m: &std::sync::Mutex<bool>, cv: &std::sync::Condvar) {
    let mut g = m.lock().unwrap();
    while !*g {
        g = cv.wait(g).unwrap();
    }
}
