//! The lint catalog. Every lint is a pure function over [`SourceFile`]s
//! (plus a workspace context for the cross-file rules), so fixture tests
//! can drive each one on in-memory sources with no filesystem.
//!
//! | rule | invariant it guards |
//! |------|---------------------|
//! | `alloc-free-path`    | zero-alloc steady-state serving: `*_into`/`*_ws` hot-path functions must not lexically allocate |
//! | `unsafe-audit`       | every `unsafe` site carries a `// SAFETY:` comment within 3 lines |
//! | `lock-discipline`    | no nested `.lock()` under a live guard; `Condvar::wait` only inside a retry loop; no foreign guard held across a wait |
//! | `env-knob-registry`  | no `CENTAUR_*` knob is read from the environment (the registry is empty), and every knob name in production code is documented in README |
//! | `suppression`        | (framework) suppressions are well-formed, reasoned, and actually silence something |

pub mod alloc_free;
pub mod env_registry;
pub mod lock_discipline;
pub mod unsafe_audit;

use crate::lexer::{Token, TokenKind};

/// All rule names, for `--help` and docs.
pub const RULES: &[&str] = &[
    "alloc-free-path",
    "unsafe-audit",
    "lock-discipline",
    "env-knob-registry",
    "suppression",
];

/// One element of a token pattern.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Pat {
    /// An identifier with this exact text.
    Id(&'static str),
    /// A punctuation character.
    P(char),
}

/// Does the token stream match `pattern` starting at `i`?
pub(crate) fn matches_seq(tokens: &[Token], i: usize, pattern: &[Pat]) -> bool {
    pattern.iter().enumerate().all(|(k, p)| {
        tokens.get(i + k).is_some_and(|t| match p {
            Pat::Id(text) => t.is_ident(text),
            Pat::P(c) => t.is_punct(*c),
        })
    })
}

/// The next identifier token at or after `i`, if any.
pub(crate) fn next_ident(tokens: &[Token], i: usize) -> Option<&Token> {
    tokens[i..].iter().find(|t| t.kind == TokenKind::Ident)
}
