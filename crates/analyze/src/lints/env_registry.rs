//! `env-knob-registry`: the workspace reads no `CENTAUR_*` environment
//! knob, and any knob name in production code is documented in the README.
//!
//! Every tuning value is set in code, so a run's behaviour follows from
//! its arguments alone — and a knob nobody can find in the README may as
//! well not exist. Two checks:
//!
//! 1. every knob literal appearing in production code is documented in
//!    `README.md`;
//! 2. every `env::var("CENTAUR_…")` read site lives in a registry module
//!    ([`REGISTRY_MODULES`], empty: any read is a finding).
//!
//! Knob literals that appear **only** in test code (e.g. a `set_var` in a
//! test) are exempt from the README requirement.

use crate::diagnostics::Diagnostic;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// The modules allowed to read `CENTAUR_*` knobs from the environment:
/// none, since every tuning value is set in code.
pub const REGISTRY_MODULES: &[&str] = &[];

/// Cross-file state accumulated by [`check_file`], resolved by [`finish`].
#[derive(Debug, Default)]
pub struct EnvRegistry {
    /// knob → first (path, line) sighting in non-test code.
    production_knobs: BTreeMap<String, (String, u32)>,
    /// `env::var("CENTAUR_…")` read sites: (knob, path, line).
    read_sites: Vec<(String, String, u32)>,
}

/// Extracts `CENTAUR_[A-Z0-9_]+` knob names from a string literal.
pub fn knobs_in(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find("CENTAUR_") {
        let tail = &rest[pos + "CENTAUR_".len()..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if len > 0 {
            let knob = format!("CENTAUR_{}", &tail[..len])
                .trim_end_matches('_')
                .to_string();
            out.push(knob);
        }
        rest = &rest[pos + "CENTAUR_".len()..];
    }
    out
}

impl EnvRegistry {
    pub fn check_file(&mut self, file: &SourceFile) {
        for (i, t) in file.tokens.iter().enumerate() {
            if t.kind != TokenKind::Str {
                continue;
            }
            let in_test = file.is_test_path() || file.in_test_extent(t.line);
            for knob in knobs_in(&t.text) {
                if !in_test {
                    self.production_knobs
                        .entry(knob.clone())
                        .or_insert_with(|| (file.path.clone(), t.line));
                }
                // An env read: `var("CENTAUR_…")`. `set_var`/`remove_var`
                // are distinct identifiers and do not match.
                let is_read = i >= 2
                    && file.tokens[i - 1].is_punct('(')
                    && file.tokens[i - 2].is_ident("var");
                if is_read {
                    self.read_sites.push((knob, file.path.clone(), t.line));
                }
            }
        }
    }

    pub fn finish(&self, readme: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (knob, (path, line)) in &self.production_knobs {
            if !readme.contains(knob.as_str()) {
                out.push(Diagnostic {
                    path: path.clone(),
                    line: *line,
                    rule: "env-knob-registry",
                    message: format!(
                        "`{knob}` is not documented in README.md — every knob \
                         must appear in the README's environment-knob table"
                    ),
                });
            }
        }
        for (knob, path, line) in &self.read_sites {
            if !REGISTRY_MODULES.iter().any(|m| path.ends_with(m)) {
                out.push(Diagnostic {
                    path: path.clone(),
                    line: *line,
                    rule: "env-knob-registry",
                    message: format!(
                        "`{knob}` is read from the environment outside the \
                         registry modules [{}] — set the value in code instead",
                        REGISTRY_MODULES.join(", ")
                    ),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const README: &str = "Knobs: CENTAUR_SERVE_HEDGE_MS and CENTAUR_SERVE_QUARANTINE_STRIKES.";

    fn run(files: &[(&str, &str)]) -> Vec<String> {
        let mut reg = EnvRegistry::default();
        for (path, src) in files {
            reg.check_file(&SourceFile::parse(path, src));
        }
        reg.finish(README)
            .into_iter()
            .map(|d| d.to_string())
            .collect()
    }

    #[test]
    fn knob_extraction_handles_prefixes_and_prose() {
        assert_eq!(
            knobs_in("CENTAUR_SERVE_HEDGE_MS"),
            ["CENTAUR_SERVE_HEDGE_MS"]
        );
        assert_eq!(
            knobs_in("set CENTAUR_A=1 and CENTAUR_B=2"),
            ["CENTAUR_A", "CENTAUR_B"]
        );
        assert!(knobs_in("the CENTAUR_ prefix itself").is_empty());
        assert!(knobs_in("CENTAUR_* wildcard prose").is_empty());
    }

    #[test]
    fn undocumented_production_knob_is_flagged() {
        let out = run(&[(
            "crates/serve/src/harness.rs",
            r#"pub fn f() { let _ = parse_x("CENTAUR_SECRET_KNOB"); }"#,
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("CENTAUR_SECRET_KNOB"));
        assert!(out[0].contains("not documented"));
    }

    #[test]
    fn test_only_knobs_are_exempt_from_readme() {
        let out = run(&[(
            "crates/x/tests/override.rs",
            r#"fn t() { std::env::set_var("CENTAUR_TEST_ONLY", "1"); }"#,
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn read_outside_registry_module_is_flagged() {
        let out = run(&[(
            "crates/serve/src/harness.rs",
            r#"fn f() { let v = std::env::var("CENTAUR_SERVE_HEDGE_MS"); }"#,
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("outside the registry modules"));
    }
}
