//! Atomics/concurrency audit: classifies every atomic access and flags
//! `Ordering::Relaxed` on synchronization-bearing operations.
//!
//! The campaign worker pool hands tasks over through one `Mutex`-guarded
//! queue, but each task's lifecycle (queued, running, abandoned) and the
//! supervisor's job claims are atomics; a misplaced `Relaxed` there would
//! let an abandonment or a hand-off race ahead of its payload and
//! silently corrupt a campaign row. This pass finds every atomic method
//! call whose arguments name a memory ordering (`load`, `store`, `swap`,
//! `fetch_*`, `compare_exchange*`), records an [`AtomicSite`]
//! classification for the audit report, and reports a `relaxed_atomic`
//! violation for any `Relaxed` access that does not carry a justified
//! `//~ allow(relaxed_atomic)` whitelist entry. Benign uses — monotonic
//! stat counters, indices whose only requirement is uniqueness — are
//! annotated at the site; anything guarding a hand-off must use
//! `Acquire`/`Release`/`AcqRel`.
//!
//! Detection requires an `Ordering` variant identifier inside the call's
//! argument list, so `Vec::swap(a, b)` or an unrelated `.load(path)`
//! never classifies as an atomic access. (`std::cmp::Ordering` has no
//! `Relaxed`/`AcqRel` variants, so the bare variant names are
//! unambiguous.)

use std::path::{Path, PathBuf};

use crate::lexer::{SourceModel, Token, TokenKind};
use crate::lint::{Allows, LintCtx, LintViolation};
use crate::spec::LintPolicy;

/// Atomic method names whose call sites this pass classifies.
const ATOMIC_METHODS: [&str; 11] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Memory-ordering variant identifiers.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One classified atomic access, emitted into the audit report so the
/// concurrency surface of the workspace is enumerable at a glance.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    /// Workspace-relative file path.
    pub file: PathBuf,
    /// 1-based line of the method call.
    pub line: usize,
    /// Method name (`fetch_add`, `compare_exchange`, …).
    pub method: String,
    /// Ordering variant names appearing in the argument list, in order
    /// (`compare_exchange` lists success then failure).
    pub orderings: Vec<String>,
    /// Access class: `load`, `store`, `rmw`, or `cas`.
    pub class: &'static str,
    /// Whether any ordering is `Relaxed`.
    pub relaxed: bool,
    /// Whether a `//~ allow(relaxed_atomic)` whitelist entry covers the
    /// site (only meaningful when `relaxed`).
    pub allowed: bool,
}

fn classify(method: &str) -> &'static str {
    match method {
        "load" => "load",
        "store" => "store",
        "compare_exchange" | "compare_exchange_weak" | "fetch_update" => "cas",
        _ => "rmw",
    }
}

/// Classifies the atomic accesses of one lexed file and reports
/// unjustified `Relaxed` uses. Returns `(sites, violations)`.
pub fn audit_atomics(
    file: &Path,
    text: &str,
    model: &SourceModel,
    policies: &[LintPolicy],
) -> (Vec<AtomicSite>, Vec<LintViolation>) {
    let allows = Allows::from_model(model);
    let mut ctx = LintCtx::new(file, text, &allows, policies);
    let mut sites = Vec::new();
    let mut out = Vec::new();

    let toks: Vec<&Token> = model.code_tokens().filter(|t| !t.in_test).collect();
    let punct = |i: usize, p: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokenKind::Punct && t.text == p)
    };

    for i in 0..toks.len() {
        let t = toks[i];
        if t.kind != TokenKind::Ident
            || !ATOMIC_METHODS.contains(&t.text.as_str())
            || !punct(i.wrapping_sub(1), ".")
            || !punct(i + 1, "(")
        {
            continue;
        }
        // Scan the argument list (balanced parens) for ordering variants.
        let mut depth = 1usize;
        let mut j = i + 2;
        let mut orderings = Vec::new();
        while j < toks.len() && depth > 0 {
            let a = toks[j];
            match (a.kind, a.text.as_str()) {
                (TokenKind::Punct, "(") => depth += 1,
                (TokenKind::Punct, ")") => depth -= 1,
                (TokenKind::Ident, name) if ORDERINGS.contains(&name) => {
                    orderings.push(name.to_string());
                }
                _ => {}
            }
            j += 1;
        }
        if orderings.is_empty() {
            continue; // not an atomic access (e.g. `Vec::swap(a, b)`)
        }
        let relaxed = orderings.iter().any(|o| o == "Relaxed");
        let allowed = ctx.allows.allowed(t.line, "relaxed_atomic");
        sites.push(AtomicSite {
            file: file.to_path_buf(),
            line: t.line,
            method: t.text.clone(),
            orderings,
            class: classify(&t.text),
            relaxed,
            allowed,
        });
        if relaxed && ctx.active("relaxed_atomic") {
            ctx.push(&mut out, "relaxed_atomic", t.line);
        }
    }
    (sites, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(path: &str, text: &str) -> (Vec<AtomicSite>, Vec<LintViolation>) {
        audit_atomics(Path::new(path), text, &SourceModel::parse(text), &[])
    }

    #[test]
    fn classifies_access_kinds_and_orderings() {
        let text = "fn f(a: &AtomicU64, b: &AtomicU8) {\n\
                    let x = a.load(Ordering::Acquire);\n\
                    a.store(1, Ordering::Release);\n\
                    a.fetch_add(1, Ordering::AcqRel);\n\
                    let _ = b.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n\
                    }\n";
        let (sites, violations) = audit("crates/testbed/src/pool.rs", text);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(sites.len(), 4);
        let classes: Vec<_> = sites.iter().map(|s| s.class).collect();
        assert_eq!(classes, ["load", "store", "rmw", "cas"]);
        assert_eq!(sites[3].orderings, ["AcqRel", "Acquire"]);
        assert!(sites.iter().all(|s| !s.relaxed));
    }

    #[test]
    fn relaxed_without_allow_is_a_violation() {
        let text = "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n";
        let (sites, violations) = audit("crates/testbed/src/pool.rs", text);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].relaxed && !sites[0].allowed);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rule, "relaxed_atomic");
    }

    #[test]
    fn justified_allow_suppresses_and_marks_site() {
        let text = "fn f(a: &AtomicU64) {\n\
                    //~ allow(relaxed_atomic): monotonic stat counter, no hand-off\n\
                    a.fetch_add(1, Ordering::Relaxed);\n}\n";
        let (sites, violations) = audit("crates/testbed/src/pool.rs", text);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(sites[0].relaxed && sites[0].allowed);
    }

    #[test]
    fn non_atomic_methods_are_not_classified() {
        let text = "fn f(v: &mut Vec<u64>) { v.swap(0, 1); let w = img.load(path); }\n";
        let (sites, violations) = audit("crates/testbed/src/pool.rs", text);
        assert!(sites.is_empty(), "{sites:?}");
        assert!(violations.is_empty());
    }

    #[test]
    fn cfg_test_sites_are_ignored() {
        let text = "#[cfg(test)]\nmod tests {\n  fn t(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n}\n";
        let (sites, violations) = audit("crates/testbed/src/pool.rs", text);
        assert!(sites.is_empty());
        assert!(violations.is_empty());
    }
}
