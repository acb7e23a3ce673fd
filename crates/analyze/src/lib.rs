//! `centaur-analyze` — in-repo static analysis enforcing the workspace's
//! load-bearing invariants.
//!
//! The repo's three hardest-won invariants — zero-alloc steady-state
//! serving, bitwise-oracle unsafe SIMD kernels, and the lock/condvar
//! discipline the supervisor and EDF queue depend on — were previously
//! enforced only dynamically (counting allocator, property tests) on the
//! paths the tests happen to drive. This crate enforces them lexically
//! over **every** workspace `.rs` file, in CI, with `-D`-style strictness
//! (`--deny`). No registry access means no `syn`; the crate ships its own
//! small Rust lexer (raw strings, nested block comments, char literals)
//! and a lint framework with file:line diagnostics, mandatory-reason
//! inline suppressions, and a committed (empty) baseline.
//!
//! Run locally from the workspace root:
//!
//! ```text
//! cargo run -p centaur-analyze            # report
//! cargo run -p centaur-analyze -- --deny  # CI gate (exit 1 on findings)
//! cargo run -p centaur-analyze -- --inventory  # unsafe inventory table
//! ```

pub mod diagnostics;
pub mod lexer;
pub mod lints;
pub mod source;

use diagnostics::{apply_suppressions, Diagnostic};
use lints::unsafe_audit::UnsafeSite;
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default baseline filename, resolved against the workspace root.
pub const BASELINE_FILE: &str = "analyze-baseline.txt";

/// The result of analyzing a set of sources.
pub struct Analysis {
    /// Findings that survived inline suppressions, sorted by location.
    pub findings: Vec<Diagnostic>,
    /// Count of findings silenced by well-formed inline suppressions.
    pub suppressed: usize,
    /// Files scanned.
    pub files: usize,
    /// Every `unsafe` site in the scanned sources.
    pub inventory: Vec<UnsafeSite>,
}

/// Analyzes in-memory sources (used by the CLI after walking the
/// workspace, and by fixture tests directly). `readme` is the README.md
/// content the env-knob lint checks documentation against.
pub fn analyze_sources(sources: &[(String, String)], readme: &str) -> Analysis {
    let files: Vec<SourceFile> = sources
        .iter()
        .map(|(path, src)| SourceFile::parse(path, src))
        .collect();

    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut inventory = Vec::new();
    let mut env = lints::env_registry::EnvRegistry::default();
    for file in &files {
        raw.extend(lints::alloc_free::check(file));
        raw.extend(lints::unsafe_audit::check(file, &mut inventory));
        raw.extend(lints::lock_discipline::check(file));
        env.check_file(file);
    }
    raw.extend(env.finish(readme));

    // Suppressions are per-file; group findings by path, then apply.
    let by_path: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.path.as_str(), f)).collect();
    let mut grouped: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for d in raw {
        grouped.entry(d.path.clone()).or_default().push(d);
    }
    let mut findings = Vec::new();
    let mut suppressed = 0;
    for file in &files {
        let file_findings = grouped.remove(&file.path).unwrap_or_default();
        let result = apply_suppressions(file, file_findings);
        suppressed += result.suppressed;
        findings.extend(result.kept);
    }
    // Findings for paths we never parsed (cannot happen today, but keep
    // them rather than silently dropping).
    for (_, rest) in grouped {
        findings.extend(rest);
    }
    debug_assert!(by_path.len() == files.len(), "duplicate paths in input");
    findings.sort();
    findings.dedup();
    Analysis {
        findings,
        suppressed,
        files: files.len(),
        inventory,
    }
}

/// Walks the workspace rooted at `root` and analyzes every `.rs` file.
///
/// Skipped: `target/` (build output), `.git/`, and `tests/fixtures/`
/// directories (deliberately-bad lint fixtures). The vendored stub crates
/// under `vendor/` are workspace members and **are** scanned.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&path)?));
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap_or_default();
    Ok(analyze_sources(&sources, &readme))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            if name == "fixtures" && dir.file_name().is_some_and(|d| d == "tests") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_sources_runs_all_lints_and_applies_suppressions() {
        let sources = vec![
            (
                "crates/x/src/lib.rs".to_string(),
                "\
fn gemm_into(out: &mut [f32]) {\n\
    // lint: allow(alloc-free-path) — fixture: pretend cold path\n\
    let v = Vec::new();\n\
}\n\
unsafe fn undocumented() {}\n"
                    .to_string(),
            ),
            (
                "crates/x/src/other.rs".to_string(),
                "fn plain() { let v = Vec::new(); }\n".to_string(),
            ),
        ];
        let analysis = analyze_sources(&sources, "");
        assert_eq!(analysis.files, 2);
        assert_eq!(analysis.suppressed, 1, "the allocation was suppressed");
        assert_eq!(analysis.findings.len(), 1, "{:?}", analysis.findings);
        assert_eq!(analysis.findings[0].rule, "unsafe-audit");
        assert_eq!(analysis.inventory.len(), 1);
        assert!(!analysis.inventory[0].documented);
    }

    #[test]
    fn clean_sources_produce_no_findings() {
        let sources = vec![(
            "crates/x/src/lib.rs".to_string(),
            "fn forward_batch_into(out: &mut [f32]) { out[0] = 1.0; }\n".to_string(),
        )];
        let analysis = analyze_sources(&sources, "");
        assert!(analysis.findings.is_empty());
        assert_eq!(analysis.suppressed, 0);
    }
}
