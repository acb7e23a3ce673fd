//! Seeded `unsafe-audit` violations. Lexed as text by the fixture tests,
//! never compiled.

unsafe fn undocumented_kernel(ptr: *mut f32) {
    *ptr = 0.0;
}

fn wrapper(ptr: *mut f32) {
    unsafe {
        *ptr = 1.0;
    }
}

// SAFETY: ptr is valid, aligned, and exclusively owned by the caller for
// the duration of the call (documented precondition of this fixture).
unsafe fn documented_kernel(ptr: *mut f32) {
    *ptr = 2.0;
}
