//! Per-lint fixture tests. Each fixture under `tests/fixtures/` seeds
//! known-bad snippets; every seeded violation must be reported at its
//! exact line (the assertions below hard-code fixture line numbers, so
//! editing a fixture means re-checking them). The fixtures are lexed as
//! text and never compiled — the workspace walker skips `tests/fixtures/`
//! directories, so they also never reach the real CI scan.
//!
//! Each fixture is fed in under a synthetic production-crate path: the
//! real path (`crates/analyze/tests/fixtures/…`) contains `/tests/`,
//! which would exempt it from the alloc-free and lock-discipline lints.

use centaur_analyze::analyze_sources;

/// Runs the full lint stack over one fixture and returns rendered
/// `path:line: [rule] message` findings plus the inline-suppressed count.
fn run(path: &str, src: &str, readme: &str) -> (Vec<String>, usize) {
    let analysis = analyze_sources(&[(path.to_string(), src.to_string())], readme);
    let rendered = analysis.findings.iter().map(|d| d.to_string()).collect();
    (rendered, analysis.suppressed)
}

fn assert_finding(findings: &[String], location_and_rule: &str) {
    assert!(
        findings.iter().any(|f| f.starts_with(location_and_rule)),
        "expected a finding starting with `{location_and_rule}`, got:\n{}",
        findings.join("\n")
    );
}

#[test]
fn alloc_free_fixture_reports_every_banned_construct() {
    let (findings, suppressed) = run(
        "crates/serve/src/fixture_alloc.rs",
        include_str!("fixtures/alloc_free_bad.rs"),
        "",
    );
    let expected = [
        (
            "crates/serve/src/fixture_alloc.rs:5: [alloc-free-path]",
            "Vec::new",
        ),
        (
            "crates/serve/src/fixture_alloc.rs:6: [alloc-free-path]",
            "vec![",
        ),
        (
            "crates/serve/src/fixture_alloc.rs:7: [alloc-free-path]",
            "format!",
        ),
        (
            "crates/serve/src/fixture_alloc.rs:12: [alloc-free-path]",
            ".to_vec()",
        ),
        (
            "crates/serve/src/fixture_alloc.rs:13: [alloc-free-path]",
            "Box::new",
        ),
        (
            "crates/serve/src/fixture_alloc.rs:14: [alloc-free-path]",
            "String::from",
        ),
        (
            "crates/serve/src/fixture_alloc.rs:15: [alloc-free-path]",
            ".collect()",
        ),
    ];
    for (loc, construct) in expected {
        assert_finding(&findings, loc);
        assert!(
            findings
                .iter()
                .any(|f| f.starts_with(loc) && f.contains(construct)),
            "{loc} should name `{construct}`:\n{}",
            findings.join("\n")
        );
    }
    assert_eq!(findings.len(), expected.len(), "{findings:?}");
    assert_eq!(suppressed, 1, "the vec![ in suppressed_setup_into");
}

#[test]
fn unsafe_audit_fixture_reports_undocumented_sites_only() {
    let (findings, _) = run(
        "crates/dlrm/src/fixture_unsafe.rs",
        include_str!("fixtures/unsafe_audit_bad.rs"),
        "",
    );
    assert_finding(
        &findings,
        "crates/dlrm/src/fixture_unsafe.rs:4: [unsafe-audit]",
    );
    assert_finding(
        &findings,
        "crates/dlrm/src/fixture_unsafe.rs:9: [unsafe-audit]",
    );
    assert_eq!(
        findings.len(),
        2,
        "documented_kernel must pass: {findings:?}"
    );
}

#[test]
fn lock_discipline_fixture_reports_all_three_shapes() {
    let (findings, _) = run(
        "crates/serve/src/fixture_lock.rs",
        include_str!("fixtures/lock_discipline_bad.rs"),
        "",
    );
    let expected = [
        // nested(): second mutex acquired under the first guard.
        (
            "crates/serve/src/fixture_lock.rs:6: [lock-discipline]",
            "nested acquisition",
        ),
        // wait_outside_loop(): condvar wait with no retry loop.
        (
            "crates/serve/src/fixture_lock.rs:12: [lock-discipline]",
            "outside a `while`/`loop`",
        ),
        // guard_across_wait(): the second lock under `held`…
        (
            "crates/serve/src/fixture_lock.rs:22: [lock-discipline]",
            "nested acquisition",
        ),
        // …and the wait parking while `held` is still held.
        (
            "crates/serve/src/fixture_lock.rs:24: [lock-discipline]",
            "parks while guard",
        ),
    ];
    for (loc, shape) in expected {
        assert!(
            findings
                .iter()
                .any(|f| f.starts_with(loc) && f.contains(shape)),
            "expected `{loc}` … `{shape}`:\n{}",
            findings.join("\n")
        );
    }
    assert_eq!(
        findings.len(),
        expected.len(),
        "disciplined() must pass: {findings:?}"
    );
}

#[test]
fn env_registry_fixture_reports_rogue_read_and_missing_doc() {
    let (findings, _) = run(
        "crates/serve/src/fixture_env.rs",
        include_str!("fixtures/env_registry_bad.rs"),
        "README with no knob table at all.",
    );
    let loc = "crates/serve/src/fixture_env.rs:7: [env-knob-registry]";
    assert!(
        findings
            .iter()
            .any(|f| f.starts_with(loc) && f.contains("outside the registry modules")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.starts_with(loc) && f.contains("not documented in README.md")),
        "{findings:?}"
    );
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn suppression_fixture_reports_reasonless_and_unused_suppressions() {
    let (findings, suppressed) = run(
        "crates/serve/src/fixture_suppression.rs",
        include_str!("fixtures/suppression_bad.rs"),
        "",
    );
    // The reason-less suppression is itself a finding…
    assert!(
        findings.iter().any(|f| f
            .starts_with("crates/serve/src/fixture_suppression.rs:6: [suppression]")
            && f.contains("missing its mandatory reason")),
        "{findings:?}"
    );
    // …and does NOT silence the allocation on the next line.
    assert_finding(
        &findings,
        "crates/serve/src/fixture_suppression.rs:7: [alloc-free-path]",
    );
    // A well-formed suppression that matches nothing is flagged too.
    assert!(
        findings.iter().any(|f| f
            .starts_with("crates/serve/src/fixture_suppression.rs:8: [suppression]")
            && f.contains("silences nothing")),
        "{findings:?}"
    );
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn the_workspace_itself_is_clean() {
    // The committed policy: an empty baseline over a clean tree. Walk the
    // real workspace exactly as the CLI does and require zero findings.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/analyze has a workspace root two levels up")
        .to_path_buf();
    let analysis = centaur_analyze::analyze_workspace(&root).expect("workspace walk");
    let rendered: Vec<String> = analysis.findings.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "workspace has findings:\n{}",
        rendered.join("\n")
    );
    // Every unsafe site in the tree carries a SAFETY comment.
    assert!(analysis.inventory.iter().all(|s| s.documented));
}
