//! Seeded `dead-pub` cases. Lexed as text by the fixture tests, never
//! compiled; the test feeds it in as a workspace crate's production code,
//! next to an example, a binary, a benchmark file, an integration test and
//! a vendored stub.

/// Named only by the `#[cfg(test)]` module and an integration test: dead.
pub fn only_tested() {}

/// Named by the example, the binary and the benchmark: live.
pub fn used_by_example() {}
pub fn used_by_bin() {}
pub struct UsedByBenchmark;

/// Dead, but it shares its name with the slice `len` that `caller` calls:
/// the documented false negative.
pub fn len() -> usize {
    0
}

/// A reason-less allow silences nothing and is reported itself.
// lint: allow(dead-pub)
pub const UNREASONED: u32 = 1;

// lint: allow(dead-pub) — kept on purpose, with a reason
pub fn kept_on_purpose() {}

pub(crate) fn crate_visible_is_not_a_definition() {}

fn caller(v: &[u8]) -> usize {
    v.len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        super::only_tested();
    }
}
