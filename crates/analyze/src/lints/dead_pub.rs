//! `dead-pub`: every `pub` item of a workspace crate is named somewhere
//! outside its own definition — by production code, an example, a binary
//! or the benchmark. Public surface that nothing reads is code to keep
//! compiling, documenting and testing for no caller; rustc's `dead_code`
//! cannot see it because a library's `pub` items are reachable by
//! definition.
//!
//! **Definitions.** A `pub` (not `pub(crate)` / `pub(super)`) `fn`,
//! inherent method, `struct`, `enum`, `union`, `trait`, `type`, `const`,
//! `static` or `mod` in the non-test code of `crates/*/src` and `src/`.
//! Items inside `#[cfg(test)]` modules or carrying `#[cfg(test)]`
//! themselves are test code. `vendor/` is exempt: its stubs copy upstream
//! APIs.
//!
//! **Uses.** An identifier token with the definition's name in non-test
//! code (binaries and `bench_ledger/src` included) or in an example, other
//! than tokens inside the item's own extent: its own body, and the header
//! and body of every `impl` block whose self type has that name. Code
//! inside a dead item cannot make anything live. The leaf names of a `use`
//! declaration are not uses either (a `pub use` re-export reaches nobody by
//! itself); the path segments before a `::` and a name renamed with `as`
//! are. Tests, benches, doc comments and `vendor/` (which depends on no
//! workspace crate) are never uses.
//!
//! The match is by name, so two items that share a name keep each other
//! alive: a collision can hide a dead item (a false negative, e.g. a dead
//! `new`), but a live item is never reported. One name → count map is built
//! over every file in a single pass, so the lint is linear in the tokens.
//!
//! Deliberate public API carries `// lint: allow(dead-pub) — <reason>` on
//! the item's `pub` line or the line above it.

use crate::diagnostics::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::source::{match_brace, SourceFile};
use std::collections::HashMap;

/// Item keywords that open a definition after `pub`.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// One public definition.
#[derive(Debug)]
struct Definition {
    name: String,
    kind: &'static str,
    path: String,
    line: u32,
}

/// Cross-file state accumulated by [`DeadPub::check_file`], resolved by
/// [`DeadPub::finish`].
#[derive(Debug, Default)]
pub struct DeadPub {
    definitions: Vec<Definition>,
    /// name → number of use tokens seen so far.
    uses: HashMap<String, usize>,
}

/// Does `path` hold definitions this lint checks (`crates/*/src`, `src/`)?
fn is_definition_path(file: &SourceFile) -> bool {
    let in_src = file.path.starts_with("src/")
        || file
            .path
            .strip_prefix("crates/")
            .and_then(|rest| rest.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("src/"));
    in_src && !file.is_test_path()
}

/// Is `path` an example, which [`SourceFile::is_test_path`] files with the
/// tests but which uses the API like any other caller?
fn is_example_path(path: &str) -> bool {
    path.starts_with("examples/") || path.contains("/examples/")
}

/// Is `path` code whose identifiers count as uses?
fn is_use_path(file: &SourceFile) -> bool {
    !file.path.starts_with("vendor/") && (!file.is_test_path() || is_example_path(&file.path))
}

/// Do the attributes directly before token `i` include `#[cfg(test)]`?
fn has_cfg_test_attr(tokens: &[Token], mut i: usize) -> bool {
    // Walk back over `#[…]` groups; `i` is the first token of the item.
    while i >= 2 && tokens[i - 1].is_punct(']') {
        let mut depth = 0i32;
        let mut j = i - 1;
        loop {
            if tokens[j].is_punct(']') {
                depth += 1;
            } else if tokens[j].is_punct('[') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if j == 0 {
                return false;
            }
            j -= 1;
        }
        if j == 0 || !tokens[j - 1].is_punct('#') {
            return false;
        }
        let attr = &tokens[j + 1..i - 1];
        if attr.len() == 4
            && attr[0].is_ident("cfg")
            && attr[1].is_punct('(')
            && attr[2].is_ident("test")
            && attr[3].is_punct(')')
        {
            return true;
        }
        i = j - 1;
    }
    false
}

/// The index of the token that ends the item whose keyword is at `kw`: the
/// `}` closing its first top-level brace block, or the first top-level `;`
/// before any brace (`struct A;`, `type T = …;`, `mod m;`).
fn item_end(tokens: &[Token], kw: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(kw) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return match_brace(tokens, j),
            ";" if depth == 0 => return j,
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// If token `i` is `pub` opening a definition, returns (keyword index, name
/// index).
fn definition_at(tokens: &[Token], i: usize) -> Option<(usize, usize)> {
    if !tokens[i].is_ident("pub") || tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let mut k = i + 1;
    loop {
        let t = tokens.get(k)?;
        let next_is_fn_like = tokens
            .get(k + 1)
            .is_some_and(|n| ["fn", "unsafe", "async", "extern"].contains(&n.text.as_str()));
        if t.is_ident("unsafe")
            || t.is_ident("async")
            || t.is_ident("extern")
            || t.kind == TokenKind::Str
            || (t.is_ident("const") && next_is_fn_like)
        {
            k += 1;
        } else {
            break;
        }
    }
    let kw = &tokens[k];
    if kw.kind != TokenKind::Ident || !ITEM_KEYWORDS.contains(&kw.text.as_str()) {
        return None;
    }
    let mut n = k + 1;
    if kw.is_ident("static") && tokens.get(n).is_some_and(|t| t.is_ident("mut")) {
        n += 1;
    }
    tokens
        .get(n)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|_| (k, n))
}

/// Item-level `impl` blocks: (self type name, `impl` token, closing `}`).
/// `impl Trait` in type position (after `->`, `:`, `(`, …) is skipped.
fn impl_blocks(tokens: &[Token]) -> Vec<(&str, usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("impl") {
            continue;
        }
        let item_level = i == 0 || {
            let prev = &tokens[i - 1];
            ["}", ";", "{", "]"].contains(&prev.text.as_str()) && prev.kind == TokenKind::Punct
                || prev.is_ident("unsafe")
        };
        if !item_level {
            continue;
        }
        // The self type is the last identifier at angle depth 0 before the
        // body (or `where`), after `for` when the impl is of a trait.
        let mut angle = 0i32;
        let mut self_name: Option<&str> = None;
        let mut j = i + 1;
        while let Some(u) = tokens.get(j) {
            match u.kind {
                TokenKind::Punct => match u.text.as_str() {
                    "<" => angle += 1,
                    ">" if !tokens[j - 1].is_punct('-') => angle -= 1,
                    "{" if angle == 0 => break,
                    _ => {}
                },
                TokenKind::Ident if angle == 0 => match u.text.as_str() {
                    "where" => {
                        while tokens.get(j).is_some_and(|w| !w.is_punct('{')) {
                            j += 1;
                        }
                        break;
                    }
                    "for" => self_name = None,
                    "mut" | "dyn" | "const" => {}
                    name => self_name = Some(name),
                },
                _ => {}
            }
            j += 1;
        }
        if let (Some(name), true) = (self_name, j < tokens.len()) {
            out.push((name, i, match_brace(tokens, j)));
        }
    }
    out
}

/// For each token of a `use` declaration, whether it is a leaf name (not
/// followed by `::` or `as`) — such tokens are not uses.
fn use_leaves(tokens: &[Token]) -> Vec<bool> {
    let mut leaf = vec![false; tokens.len()];
    let mut in_use = false;
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("use") {
            in_use = true;
            continue;
        }
        if !in_use {
            continue;
        }
        if t.is_punct(';') {
            in_use = false;
        } else if t.kind == TokenKind::Ident {
            let next = tokens.get(i + 1);
            let is_path = next.is_some_and(|n| n.is_punct(':') || n.is_ident("as"));
            leaf[i] = !is_path;
        }
    }
    leaf
}

impl DeadPub {
    pub fn check_file(&mut self, file: &SourceFile) {
        let tokens = &file.tokens;
        // Extents whose same-name tokens are not uses: each definition's
        // own item, and each impl block of a type with that name.
        let mut own: HashMap<&str, Vec<(usize, usize)>> = HashMap::new();
        if is_definition_path(file) {
            for i in 0..tokens.len() {
                let Some((kw, name)) = definition_at(tokens, i) else {
                    continue;
                };
                if file.in_test_extent(tokens[i].line) || has_cfg_test_attr(tokens, i) {
                    continue;
                }
                let kind = ITEM_KEYWORDS
                    .iter()
                    .find(|k| tokens[kw].is_ident(k))
                    .expect("definition_at checked the keyword");
                self.definitions.push(Definition {
                    name: tokens[name].text.clone(),
                    kind,
                    path: file.path.clone(),
                    line: tokens[i].line,
                });
                own.entry(tokens[name].text.as_str())
                    .or_default()
                    .push((i, item_end(tokens, kw)));
            }
        }
        if !is_use_path(file) {
            return;
        }
        for (name, lo, hi) in impl_blocks(tokens) {
            own.entry(name).or_default().push((lo, hi));
        }
        let leaves = use_leaves(tokens);
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || leaves[i] || file.in_test_extent(t.line) {
                continue;
            }
            let inside_own = own
                .get(t.text.as_str())
                .is_some_and(|spans| spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&i)));
            if !inside_own {
                *self.uses.entry(t.text.clone()).or_default() += 1;
            }
        }
    }

    pub fn finish(&self) -> Vec<Diagnostic> {
        self.definitions
            .iter()
            .filter(|d| !self.uses.contains_key(&d.name))
            .map(|d| Diagnostic {
                path: d.path.clone(),
                line: d.line,
                rule: "dead-pub",
                message: format!(
                    "`pub {} {}` is named by no production code, example, binary \
                     or benchmark — delete it, or keep it with \
                     `// lint: allow(dead-pub) — <reason>`",
                    d.kind, d.name
                ),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<String> {
        let mut lint = DeadPub::default();
        for (path, src) in files {
            lint.check_file(&SourceFile::parse(path, src));
        }
        lint.finish().into_iter().map(|d| d.to_string()).collect()
    }

    #[test]
    fn an_item_named_only_by_its_own_definition_is_a_finding() {
        let out = run(&[(
            "crates/x/src/lib.rs",
            "pub fn lonely() { lonely() }\npub struct Unit;\nimpl Unit { pub fn new() -> Unit { Unit } }\n",
        )]);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[0].starts_with("crates/x/src/lib.rs:1: [dead-pub] `pub fn lonely`"));
        assert!(out[1].contains("`pub struct Unit`"));
        assert!(out[2].contains("`pub fn new`"));
    }

    #[test]
    fn qualifiers_and_visibility_are_parsed() {
        let out = run(&[(
            "crates/x/src/lib.rs",
            "pub const fn a() {}\npub unsafe extern \"C\" fn b() {}\npub static mut C: u8 = 0;\n\
             pub(crate) fn d() {}\npub const E: u8 = 1;\npub mod f;\npub trait G {}\npub type H = u8;\n",
        )]);
        let names: Vec<&str> = out.iter().map(|d| d.split('`').nth(1).unwrap()).collect();
        assert_eq!(
            names,
            [
                "pub fn a",
                "pub fn b",
                "pub static C",
                "pub const E",
                "pub mod f",
                "pub trait G",
                "pub type H"
            ]
        );
    }

    #[test]
    fn reexport_leaves_are_not_uses_but_paths_and_renames_are() {
        let out = run(&[
            (
                "crates/x/src/lib.rs",
                "pub mod inner;\npub use inner::{Leaf, Renamed as Other};\n",
            ),
            (
                "crates/x/src/inner.rs",
                "pub struct Leaf;\npub struct Renamed;\n",
            ),
        ]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("`pub struct Leaf`"));
    }

    #[test]
    fn trait_impls_and_cfg_test_items_are_handled() {
        let out = run(&[(
            "crates/x/src/lib.rs",
            "pub trait Shape {}\npub struct Sq;\nimpl Shape for Sq {}\nimpl<T: Fn() -> u8> From<T> for Sq { fn from(_: T) -> Self { Sq } }\n\
             #[cfg(test)]\npub fn only_for_tests() {}\nfn user(x: impl Shape) {}\n",
        )]);
        // `Shape` is named by `impl Shape for Sq` and `user`; `Sq` only by
        // its own impls; the `#[cfg(test)]` item is no definition.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].contains("`pub struct Sq`"));
    }
}
