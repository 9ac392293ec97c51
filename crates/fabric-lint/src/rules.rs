//! The twelve rule passes, all matching on the [`FileModel`] token
//! stream — never on raw text — so string literals, comments, and macro
//! bodies can no longer masquerade as code.
//!
//! Seven rules carry over from the line-scanner era (`no-unwrap`,
//! `undocumented-unsafe`, `narrowing-cast`, `no-exit`, `ignored-result`,
//! `raw-stats-print`, `adhoc-bench-output`) with their scopes and
//! messages intact, so `lint-baseline.txt` entries stay comparable
//! across the rewrite. Five are newer:
//!
//! * **`exec-internals`** — the staged executor's internals are
//!   constructed only inside `crates/query`; everyone else drives
//!   execution through `Session` (replaces `deprecated-entry-point`,
//!   retired with the free-function shims it policed).
//!
//! * **`layering-violation`** — `use` declarations (here) and
//!   `Cargo.toml` edges (in [`crate::layering`]) must respect the
//!   architecture DAG.
//! * **`nondeterministic-core`** — result-affecting library code must
//!   not introduce hash-order iteration (`HashMap`/`HashSet`),
//!   wall-clock reads (`std::time`, `Instant::now`, `SystemTime::now`),
//!   or un-allowlisted `env::var` reads: exactly the hazards that would
//!   break bit-identical chaos replay and the exact-cycle perf gate.
//! * **`unattributed-charge`** — `MemStats` counter fields are mutated
//!   only by the charge sites in `fabric-sim` (`hierarchy.rs`, plus
//!   `stats.rs`'s own accumulate/reconcile helpers), so the
//!   buckets-sum==elapsed invariant is protected at the source level.
//! * **`metric-key-alloc`** — result-affecting library code passes no
//!   `&format!(…)` metric name to the registry's writers; the `*_fmt`
//!   entry points build the name in a reused buffer instead.

use crate::lexer::{TokKind, Token};
use crate::model::FileModel;
use crate::{excerpt_of, layering, Diagnostic, FileClass, Rule, BENCH_HARNESS_FILE};

/// Metric-registry writers whose name argument the `metric-key-alloc`
/// rule watches; each has a `*_fmt` twin taking `format_args!`.
const METRIC_WRITERS: &[&str] = &["counter_add", "gauge_set", "observe", "scoped"];

/// Narrow integer targets for the narrowing-cast rule. `usize`/`u64`
/// stay legal: the hot paths widen indices, they must never truncate.
const NARROW_TYPES: &[&str] = &["u8", "i8", "u16", "i16", "u32", "i32"];

/// Print/format macros the `raw-stats-print` rule watches. `write!` /
/// `writeln!` stay legal: rendering *into a caller-supplied writer* (plan
/// text, reports) is fine — it is ad-hoc stringification of counter
/// structs that must go through the metrics registry.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "format"];

/// Staged-executor internals (rule `exec-internals`): types whose
/// construction belongs to `crates/query` alone. The compiler already
/// enforces most of this (`pub(crate)` constructors); the lint keeps the
/// boundary visible in test code and future public-API drift.
const EXEC_INTERNAL_TYPES: &[&str] = &[
    "QueryExecutor",
    "OpNode",
    "Consumer",
    "CacheSlot",
    "OpCache",
    "Scratchpad",
];
const EXEC_INTERNAL_CTORS: &[&str] = &["new", "default"];

/// The sixteen `MemStats` counter fields (rule `unattributed-charge`).
/// Kept in lockstep with `fabric-sim/src/stats.rs`; the self-check
/// fixture corpus pins a representative subset.
pub const MEMSTATS_COUNTERS: &[&str] = &[
    "l1_hits",
    "l2_hits",
    "prefetch_hits",
    "demand_misses",
    "line_accesses",
    "bytes_read",
    "bytes_written",
    "cpu_cycles",
    "stall_cycles",
    "mem_lat_cycles",
    "stall_bw_cycles",
    "stall_dram_cycles",
    "stall_device_cycles",
    "stall_retry_cycles",
    "lat_l1_cycles",
    "lat_l2_cycles",
];

/// Files allowed to mutate `MemStats` counters: the charge sites proper,
/// and the stats module's own accumulate/reconcile arithmetic.
pub const CHARGE_SITE_FILES: &[&str] = &[
    "crates/fabric-sim/src/hierarchy.rs",
    "crates/fabric-sim/src/stats.rs",
];

/// Environment variables result-affecting code may read: the chaos/replay
/// and artifact-redirect knobs that are themselves part of the
/// deterministic contract (seeded, logged, or output-only).
pub const ALLOWED_ENV_VARS: &[&str] = &[
    "FABRIC_CHAOS_SEED",
    "FABRIC_CHAOS_PLANS",
    "FABRIC_PAR_CORES",
    "FABRIC_RESULTS_DIR",
];

/// Compound assignment operators (plus `=`): the token shapes that make
/// `.field <op>` a mutation. `==` munches as its own token, so
/// comparisons can never false-positive here.
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
];

fn is_stats_ident(tok: &str) -> bool {
    tok == "stats" || tok.ends_with("_stats") || tok.ends_with("Stats")
}

/// Does a format-string literal hold an inline capture of a stats
/// binding, like `{stats:?}` or `{rm_stats}`?
fn inline_stats_capture(content: &str) -> bool {
    let mut rest = content;
    while let Some(p) = rest.find('{') {
        let after = &rest[p + 1..];
        let end = after
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(after.len());
        let tail = &after[end..];
        if (tail.starts_with('}') || tail.starts_with(':')) && is_stats_ident(&after[..end]) {
            return true;
        }
        rest = after;
    }
    false
}

/// Walk back from token `i` to the start of its statement; `true` if the
/// value is consumed there (`let`/`return`/`=`/`=>`/`?`), meaning a
/// trailing `.ok()` is bound or propagated, not dropped.
fn statement_consumes_value(code: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &code[j];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            return false;
        }
        if t.is_ident("let") || t.is_ident("return") {
            return true;
        }
        if t.is_punct("=") || t.is_punct("=>") || t.is_punct("?") {
            return true;
        }
    }
    false
}

/// Index of the token closing the group opened at `open` (which must be
/// `(`, `[`, or `{`); `code.len()` if unbalanced.
fn matching_close(code: &[Token], open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < code.len() {
        let t = &code[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    code.len()
}

/// Run every token-level rule over one file's model.
pub fn scan(
    rel: &str,
    model: &FileModel,
    raw_lines: &[&str],
    class: &FileClass,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let code = &model.code;
    let excerpt = |line: usize| excerpt_of(raw_lines.get(line.saturating_sub(1)).unwrap_or(&""));
    let mut push = |line: usize, rule: Rule, message: String| {
        diags.push(Diagnostic {
            file: rel.to_string(),
            line,
            rule,
            message,
            excerpt: excerpt(line),
        });
    };

    let core_lib = class.is_core && class.is_lib;
    let charge_scope = class.is_lib && !CHARGE_SITE_FILES.contains(&rel);
    let nondet_scope = class.is_result_affecting && class.is_lib;

    for i in 0..code.len() {
        let t = &code[i];
        let in_test = model.in_test[i];

        // ---- undocumented-unsafe: everywhere, tests included. --------
        if t.is_ident("unsafe") && !model.safety_near(t.line, 3) {
            push(
                t.line,
                Rule::UndocumentedUnsafe,
                "`unsafe` without a `// SAFETY:` comment on or just above it".to_string(),
            );
        }

        // ---- exec-internals: everywhere outside crates/query (the
        // executor's home), tests included — a test driver constructing
        // operators by hand dodges the engine's ownership rules just as
        // thoroughly as library code would. Matches a constructor call
        // `Type::new(` / `Type::default(` on the internal types; plain
        // type mentions (signatures, `&OpCache` stats references from
        // the prelude) stay legal. ------------------------------------
        if class.crate_name != "query"
            && t.kind == TokKind::Ident
            && EXEC_INTERNAL_TYPES.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct("::"))
        {
            if let (Some(f), Some(p)) = (code.get(i + 2), code.get(i + 3)) {
                if f.kind == TokKind::Ident
                    && EXEC_INTERNAL_CTORS.contains(&f.text.as_str())
                    && p.is_punct("(")
                {
                    push(
                        t.line,
                        Rule::ExecInternals,
                        format!(
                            "executor internal `{}::{}` constructed outside `crates/query` \
                             (drive execution through `Session`; the engine owns operators, \
                             scratchpads, and the op cache)",
                            t.text, f.text
                        ),
                    );
                }
            }
        }

        // ---- adhoc-bench-output: a string literal naming the results
        // directory, anywhere but the harness (and fabric-lint itself,
        // whose matcher must spell the needle). Tests included — an
        // artifact written from a test dodges the redirect too. ---------
        if matches!(t.kind, TokKind::Str | TokKind::RawStr)
            && (t.text == "results" || t.text.starts_with("results/"))
            && class.crate_name != "fabric-lint"
            && rel != BENCH_HARNESS_FILE
        {
            push(
                t.line,
                Rule::AdhocBenchOutput,
                "hardcoded `results/` path (route artifact I/O through \
                 `bench::harness`, which honors the `FABRIC_RESULTS_DIR` redirect)"
                    .to_string(),
            );
        }

        // ---- layering-violation (source side): checked on the use list
        // below, outside the token loop. --------------------------------

        if in_test {
            continue;
        }

        // ---- no-unwrap: panicking calls in core-crate library code. ---
        if core_lib {
            if t.is_punct(".") {
                if let Some(n) = code.get(i + 1) {
                    if n.is_ident("unwrap")
                        && code.get(i + 2).is_some_and(|p| p.is_punct("("))
                        && code.get(i + 3).is_some_and(|p| p.is_punct(")"))
                    {
                        push(
                            t.line,
                            Rule::NoUnwrap,
                            "`.unwrap()` in core-crate library code (surface a `FabricError` \
                             instead)"
                                .to_string(),
                        );
                    }
                    if n.is_ident("expect") && code.get(i + 2).is_some_and(|p| p.is_punct("(")) {
                        push(
                            t.line,
                            Rule::NoUnwrap,
                            "`.expect(` in core-crate library code (surface a `FabricError` \
                             instead)"
                                .to_string(),
                        );
                    }
                }
            }
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
                && code.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                push(
                    t.line,
                    Rule::NoUnwrap,
                    format!(
                        "`{}!` in core-crate library code (surface a `FabricError` instead)",
                        t.text
                    ),
                );
            }
        }

        // ---- ignored-result: silent Result discards in core libs. -----
        if core_lib {
            if t.is_ident("let")
                && code.get(i + 1).is_some_and(|n| n.is_ident("_"))
                && code.get(i + 2).is_some_and(|n| n.is_punct("="))
            {
                push(
                    t.line,
                    Rule::IgnoredResult,
                    "`let _ = …` discards the value in core-crate library code \
                     (handle or name it)"
                        .to_string(),
                );
            }
            if t.is_punct(".")
                && code.get(i + 1).is_some_and(|n| n.is_ident("ok"))
                && code.get(i + 2).is_some_and(|n| n.is_punct("("))
                && code.get(i + 3).is_some_and(|n| n.is_punct(")"))
                && code.get(i + 4).is_some_and(|n| n.is_punct(";"))
                && !statement_consumes_value(code, i)
            {
                push(
                    t.line,
                    Rule::IgnoredResult,
                    "statement-level `.ok()` drops the error unseen in core-crate library \
                     code (handle or name it)"
                        .to_string(),
                );
            }
        }

        // ---- raw-stats-print: ad-hoc stats formatting in core libs. ---
        if core_lib
            && t.kind == TokKind::Ident
            && PRINT_MACROS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && code
                .get(i + 2)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
        {
            let close = matching_close(code, i + 2);
            let stats_arg = code[i + 2..close].iter().any(|a| match a.kind {
                TokKind::Ident => is_stats_ident(&a.text),
                TokKind::Str | TokKind::RawStr => inline_stats_capture(&a.text),
                _ => false,
            });
            if stats_arg {
                push(
                    t.line,
                    Rule::RawStatsPrint,
                    format!(
                        "`{}!` over a stats counter struct in core-crate library code \
                         (use `record_into` + the metrics snapshot serializer)",
                        t.text
                    ),
                );
            }
        }

        // ---- narrowing-cast: hot-path modules must use try_from. ------
        if class.is_hot && t.is_ident("as") {
            if let Some(ty) = code.get(i + 1) {
                if ty.kind == TokKind::Ident && NARROW_TYPES.contains(&ty.text.as_str()) {
                    push(
                        t.line,
                        Rule::NarrowingCast,
                        format!(
                            "narrowing `as {ty}` cast in a hot-path module (use \
                             `{ty}::try_from`)",
                            ty = ty.text
                        ),
                    );
                }
            }
        }

        // ---- no-exit: library code never terminates the process. ------
        if class.is_lib
            && t.is_ident("process")
            && code.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && code.get(i + 2).is_some_and(|n| n.is_ident("exit"))
        {
            push(
                t.line,
                Rule::NoExit,
                "`process::exit` in library code (return an error to the caller)".to_string(),
            );
        }

        // ---- nondeterministic-core: hash order, wall clocks, env. -----
        if nondet_scope && t.kind == TokKind::Ident {
            match t.text.as_str() {
                "HashMap" | "HashSet" => push(
                    t.line,
                    Rule::NondeterministicCore,
                    format!(
                        "`{}` in result-affecting library code (iteration order varies per \
                         process; use `BTreeMap`/sorted iteration so replay stays bit-identical)",
                        t.text
                    ),
                ),
                "std"
                    if code.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && code.get(i + 2).is_some_and(|n| n.is_ident("time")) =>
                {
                    push(
                        t.line,
                        Rule::NondeterministicCore,
                        "`std::time` in result-affecting library code (wall-clock reads \
                         desync chaos replay; charge cycles via fabric-sim instead)"
                            .to_string(),
                    );
                }
                "Instant" | "SystemTime"
                    if code.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && code.get(i + 2).is_some_and(|n| n.is_ident("now"))
                        && !(i > 0 && code[i - 1].is_punct("::")) =>
                {
                    push(
                        t.line,
                        Rule::NondeterministicCore,
                        format!(
                            "`{}::now()` in result-affecting library code (wall-clock reads \
                             desync chaos replay; charge cycles via fabric-sim instead)",
                            t.text
                        ),
                    );
                }
                "env"
                    if code.get(i + 1).is_some_and(|n| n.is_punct("::"))
                        && code
                            .get(i + 2)
                            .is_some_and(|n| n.is_ident("var") || n.is_ident("var_os")) =>
                {
                    let allowed = code.get(i + 3).is_some_and(|p| p.is_punct("("))
                        && code.get(i + 4).is_some_and(|s| {
                            matches!(s.kind, TokKind::Str | TokKind::RawStr)
                                && ALLOWED_ENV_VARS.contains(&s.text.as_str())
                        });
                    if !allowed {
                        push(
                            t.line,
                            Rule::NondeterministicCore,
                            "un-allowlisted `env::var` read in result-affecting library code \
                             (only the FABRIC_* replay/redirect knobs may vary per run)"
                                .to_string(),
                        );
                    }
                }
                _ => {}
            }
        }

        // ---- metric-key-alloc: a metric name built with `&format!` pays
        // an allocation on every write; `*_fmt` + `format_args!` reuses
        // the registry's key buffer. -------------------------------------
        if nondet_scope
            && t.kind == TokKind::Ident
            && METRIC_WRITERS.contains(&t.text.as_str())
            && code.get(i + 1).is_some_and(|n| n.is_punct("("))
            && code.get(i + 2).is_some_and(|n| n.is_punct("&"))
            && code.get(i + 3).is_some_and(|n| n.is_ident("format"))
            && code.get(i + 4).is_some_and(|n| n.is_punct("!"))
        {
            push(
                t.line,
                Rule::MetricKeyAlloc,
                format!(
                    "`{0}(&format!(…))` allocates a metric name on every write (use \
                     `{0}_fmt(format_args!(…))`, which reuses the registry's key buffer)",
                    t.text
                ),
            );
        }

        // ---- unattributed-charge: MemStats counters mutate only at the
        // charge sites. -------------------------------------------------
        if charge_scope && t.is_punct(".") {
            if let (Some(f), Some(op)) = (code.get(i + 1), code.get(i + 2)) {
                if f.kind == TokKind::Ident
                    && MEMSTATS_COUNTERS.contains(&f.text.as_str())
                    && op.kind == TokKind::Punct
                    && ASSIGN_OPS.contains(&op.text.as_str())
                {
                    push(
                        t.line,
                        Rule::UnattributedCharge,
                        format!(
                            "direct mutation of `MemStats::{}` outside the fabric-sim charge \
                             sites (route the charge through `MemoryHierarchy` so \
                             buckets-reconcile holds)",
                            f.text
                        ),
                    );
                }
            }
        }
    }

    // ---- layering-violation (source side): every `use` edge must
    // respect the DAG. Test regions included — a test inside a crate
    // still compiles against that crate's dependency set. --------------
    for u in &model.uses {
        if let Some(message) = layering::check_use(&class.crate_name, &u.root) {
            diags.push(Diagnostic {
                file: rel.to_string(),
                line: u.line,
                rule: Rule::LayeringViolation,
                message,
                excerpt: excerpt_of(raw_lines.get(u.line.saturating_sub(1)).unwrap_or(&"")),
            });
        }
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let class = classify(rel).expect("classifiable");
        let model = FileModel::build(src);
        let raw: Vec<&str> = src.lines().collect();
        scan(rel, &model, &raw, &class)
    }

    fn rules_of(d: &[Diagnostic]) -> Vec<Rule> {
        d.iter().map(|x| x.rule).collect()
    }

    #[test]
    fn statement_level_ok_walkback() {
        // Dropped: flagged.
        let d = run("crates/relmem/src/x.rs", "pub fn f() { retry().ok(); }");
        assert_eq!(rules_of(&d), vec![Rule::IgnoredResult]);
        // Bound, returned, propagated, or matched: clean.
        for src in [
            "pub fn f() -> Option<()> { return retry().ok(); }",
            "pub fn f() { let x = retry().ok(); x; }",
            "pub fn f(y: Option<()>) { if y.is_some() { y = retry().ok(); } }",
        ] {
            let d = run("crates/relmem/src/x.rs", src);
            assert!(
                d.iter().all(|x| x.rule != Rule::IgnoredResult),
                "{src}: {d:?}"
            );
        }
    }

    #[test]
    fn nondeterministic_core_patterns() {
        let rel = "crates/query/src/x.rs";
        let d = run(
            rel,
            "use std::collections::HashMap;\npub fn f() { let m: HashMap<u8, u8>; }",
        );
        assert_eq!(
            d.iter()
                .filter(|x| x.rule == Rule::NondeterministicCore)
                .count(),
            2
        );
        let d = run(rel, "pub fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(
            d.iter()
                .filter(|x| x.rule == Rule::NondeterministicCore)
                .count(),
            1,
            "qualified path counts once: {d:?}"
        );
        let d = run(rel, "pub fn f() { let t = Instant::now(); }");
        assert_eq!(rules_of(&d), vec![Rule::NondeterministicCore]);
        // fabric-obs's `Phase::Instant` enum variant must stay clean.
        let d = run(
            "crates/fabric-obs/src/x.rs",
            "pub fn f(p: Phase) { let x = Phase::Instant; }",
        );
        assert!(d.is_empty(), "{d:?}");
        // env allowlist.
        let d = run(
            rel,
            "pub fn f() { std::env::var(\"FABRIC_CHAOS_SEED\").ok(); }",
        );
        assert!(
            d.iter().all(|x| x.rule != Rule::NondeterministicCore),
            "{d:?}"
        );
        let d = run(rel, "pub fn f() { std::env::var(\"HOME\").ok(); }");
        assert!(
            d.iter().any(|x| x.rule == Rule::NondeterministicCore),
            "{d:?}"
        );
        // Out of scope: bench, tests, strings.
        let d = run(
            "crates/bench/src/report.rs",
            "pub fn f() { let m: HashMap<u8, u8>; }",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run(
            rel,
            "#[cfg(test)]\nmod t {\n fn g() { let m: HashMap<u8,u8>; }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run(rel, "pub const DOC: &str = \"uses HashMap internally\";");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unattributed_charge_patterns() {
        let bad = "pub fn f(s: &mut MemStats) { s.cpu_cycles += 4; }";
        let d = run("crates/relmem/src/x.rs", bad);
        assert_eq!(rules_of(&d), vec![Rule::UnattributedCharge]);
        // The charge sites themselves are exempt.
        let d = run("crates/fabric-sim/src/hierarchy.rs", bad);
        assert!(d.is_empty(), "{d:?}");
        let d = run("crates/fabric-sim/src/stats.rs", bad);
        assert!(d.is_empty(), "{d:?}");
        // Reads and comparisons are fine (`==` is its own token).
        let d = run(
            "crates/relmem/src/x.rs",
            "pub fn f(s: &MemStats) -> bool { s.cpu_cycles == 4 && s.l1_hits > 0 }",
        );
        assert!(d.is_empty(), "{d:?}");
        // Other assignments in fabric-sim's lib code are caught too.
        let d = run(
            "crates/fabric-sim/src/prefetch.rs",
            "fn f(s: &mut MemStats) { s.bytes_read = 0; }",
        );
        assert_eq!(rules_of(&d), vec![Rule::UnattributedCharge]);
    }

    #[test]
    fn layering_violation_via_use() {
        let d = run("crates/fabric-obs/src/x.rs", "use query::Engine;\n");
        assert_eq!(rules_of(&d), vec![Rule::LayeringViolation]);
        let d = run(
            "crates/query/src/x.rs",
            "use fabric_types::Value;\nuse relmem::RmConfig;\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // Facade tests may use anything.
        let d = run("tests/x.rs", "use workload::Tpcc;\nuse query::Engine;\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn string_and_comment_immunity_token_level() {
        // The old scanner's nemesis cases: all clean now.
        let src = r##"
pub fn f() -> &'static str {
    // .unwrap() and panic! in a comment
    /* QueryExecutor::new(&v, path) */
    let s = r#"s.cpu_cycles += 4; HashMap::new(); "results/x.json""#;
    "as u8 in a string"
}
"##;
        let d = run("crates/relmem/src/packer_doc.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn adhoc_bench_output_on_string_tokens() {
        let d = run(
            "crates/workload/src/x.rs",
            "pub fn f() { fs::write(\"results/T.json\", b\"x\").ok(); }",
        );
        assert_eq!(rules_of(&d), vec![Rule::AdhocBenchOutput]);
        // Raw strings count too; comments and other literals do not.
        let d = run(
            "crates/workload/src/x.rs",
            "pub fn f() { let p = r\"results/T.json\"; }",
        );
        assert_eq!(rules_of(&d), vec![Rule::AdhocBenchOutput]);
        let d = run(
            "crates/workload/src/x.rs",
            "// artifacts land in \"results/BENCH_x.json\"\npub fn f() { let p = \"my_results/x\"; }",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run(BENCH_HARNESS_FILE, "pub fn f() { let p = \"results\"; }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn exec_internals_token_shapes() {
        let rel = "crates/workload/src/x.rs";
        let d = run(rel, "fn f() { let ex = QueryExecutor::new(&v, path); }");
        assert_eq!(rules_of(&d), vec![Rule::ExecInternals]);
        let d = run(rel, "fn f() { let c = OpCache::default(); }");
        assert_eq!(rules_of(&d), vec![Rule::ExecInternals]);
        let d = run(rel, "fn f() { let s = Scratchpad::new(); }");
        assert_eq!(rules_of(&d), vec![Rule::ExecInternals]);
        // Qualified paths still end at the type ident.
        let d = run(rel, "fn f() { query::exec::QueryExecutor::new(&v, p); }");
        assert_eq!(rules_of(&d), vec![Rule::ExecInternals]);
        // Mentions, stats reads, and lookalikes are clean.
        for src in [
            "fn f(ex: &QueryExecutor) -> (u64, u64) { engine.op_cache().stats() }",
            "fn f() { let (h, m) = engine.op_cache_stats(); }",
            "fn f() { let x = MyConsumer::new(); OpNodeish::default(); }",
            "fn f() { Scratchpad::epoch(&s); }",
        ] {
            let d = run(rel, src);
            assert!(d.is_empty(), "{src}: {d:?}");
        }
        // The executor's home crate builds its own internals freely.
        let d = run(
            "crates/query/src/exec/mod.rs",
            "fn f() { let ex = QueryExecutor::new(&v, path); }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn raw_stats_print_token_scope() {
        let rel = "crates/relmem/src/x.rs";
        let d = run(
            rel,
            "fn f(stats: &MemStats) { println!(\"hits={}\", stats.l1_hits); }",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawStatsPrint]);
        let d = run(
            rel,
            "fn f(rm_stats: &RmStats) { let s = format!(\"{rm_stats:?}\"); }",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawStatsPrint]);
        // Print without stats, stats without print, writer macros: clean.
        for src in [
            "fn f(rows: usize) { println!(\"{}\", rows); }",
            "fn f(stats: &MemStats) -> u64 { stats.l1_hits }",
            "fn f(out: &mut String, stats: &MemStats) { writeln!(out, \"{}\", stats.l1_hits).ok(); }",
        ] {
            let d = run(rel, src);
            assert!(d.iter().all(|x| x.rule != Rule::RawStatsPrint), "{src}: {d:?}");
        }
    }

    #[test]
    fn narrowing_cast_and_no_exit_and_unsafe() {
        let d = run(
            "crates/compress/src/lz.rs",
            "pub fn f(x: u64) -> u8 { x as u8 }",
        );
        assert_eq!(rules_of(&d), vec![Rule::NarrowingCast]);
        let d = run(
            "crates/compress/src/lz.rs",
            "pub fn f(x: u32) -> u64 { x as u64 }",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run(
            "crates/colstore/src/x.rs",
            "pub fn f() { std::process::exit(1); }",
        );
        assert_eq!(rules_of(&d), vec![Rule::NoExit]);
        let d = run(
            "crates/colstore/src/x.rs",
            "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = run(
            "crates/colstore/src/x.rs",
            "pub fn f(p: *const u8) -> u8 { unsafe { *p } }",
        );
        assert_eq!(rules_of(&d), vec![Rule::UndocumentedUnsafe]);
    }

    #[test]
    fn metric_key_alloc_scope() {
        let bad = "fn f(m: &mut MetricsRegistry, c: u8) { m.counter_add(&format!(\"c{c}\"), 1); }";
        assert_eq!(
            rules_of(&run("crates/fabric-sim/src/x.rs", bad)),
            vec![Rule::MetricKeyAlloc]
        );
        // Bench binaries and the linter are not result-affecting.
        assert!(run("crates/bench/src/bin/fig5.rs", bad).is_empty());
        // A name built once and passed by reference is the caller's call.
        let ok = "fn f(m: &mut MetricsRegistry, k: &str) { let n = format!(\"{k}.x\"); \
                  m.counter_add(&n, 1); m.counter_add_fmt(format_args!(\"{k}.y\"), 1); }";
        assert!(run("crates/query/src/x.rs", ok).is_empty());
    }
}
