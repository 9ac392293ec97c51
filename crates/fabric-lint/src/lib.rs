//! `fabric-lint`: repo-specific static analysis for the Relational Fabric
//! workspace (source-layer companion of the pre-execution plan verifier
//! in `query::analyze` — see DESIGN.md §13, "Token-level static
//! analysis").
//!
//! Built on std only so it resolves offline like the rest of the
//! workspace — but since the v2 rewrite no longer a line scanner: a real
//! lexer ([`lexer`]) tokenizes each file (raw/byte strings, nested block
//! comments, lifetimes vs. char literals), a per-file model ([`model`])
//! layers test-region tracking, `SAFETY:` proximity, the `use` graph and
//! item index on top, and every rule ([`rules`]) matches token shapes,
//! never text. Twelve rule families:
//!
//! * **no-unwrap** — `.unwrap()` / `.expect(` / `panic!` / `todo!` /
//!   `unimplemented!` are forbidden in non-test *library* code of the
//!   core crates ([`CORE_CRATES`]): engine code must surface
//!   `FabricError`, not abort the process.
//! * **undocumented-unsafe** — every `unsafe` token must carry a
//!   `// SAFETY:` comment on the same line or within the three lines
//!   above it. Applies everywhere, tests included.
//! * **narrowing-cast** — narrowing `as` casts (`as u8|i8|u16|i16|u32|i32`)
//!   are forbidden in the hot-path modules ([`HOT_PATH_FILES`] /
//!   [`HOT_PATH_DIRS`]) where silent truncation corrupts packed batches;
//!   use the checked/masked helpers in `fabric_types::cast` and surface
//!   the error.
//! * **no-exit** — `process::exit` never belongs in library code.
//! * **ignored-result** — silently discarding a `Result` (`let _ = …`
//!   with the bare `_` pattern, or a statement-level `….ok();`) is
//!   forbidden in non-test library code of the core crates.
//! * **raw-stats-print** — `println!`/`format!`-family macros over stats
//!   counter structs are forbidden in non-test library code of the core
//!   crates: statistics flow through the `fabric-obs` metrics registry.
//! * **exec-internals** — the staged executor's internals
//!   (`QueryExecutor` / `OpNode` / `Consumer` / `CacheSlot` / `OpCache` /
//!   `Scratchpad`) are constructed only inside `crates/query`: the
//!   engine owns operator lifetimes, scratch buffers, and cache
//!   invalidation. Out-of-crate construction is flagged everywhere,
//!   tests included — hosts drive execution through `Session`.
//! * **adhoc-bench-output** — a string literal naming the `results/`
//!   artifact directory is forbidden outside [`BENCH_HARNESS_FILE`]:
//!   artifact I/O goes through `bench::harness`, which honors the
//!   `FABRIC_RESULTS_DIR` redirect `tools/perf_gate.sh` relies on.
//! * **layering-violation** — `use` declarations and `Cargo.toml`
//!   dependency tables must respect the architecture DAG (see
//!   [`layering`]); external (non-workspace) manifest deps are flagged
//!   too, because the build environment resolves offline.
//! * **nondeterministic-core** — result-affecting library code (every
//!   crate except `bench` and `fabric-lint`) must not introduce
//!   `HashMap`/`HashSet`, wall-clock reads (`std::time`, `Instant::now`,
//!   `SystemTime::now`), or `env::var` reads outside the
//!   [`rules::ALLOWED_ENV_VARS`] allowlist: the exact hazards that break
//!   bit-identical chaos replay and the exact-cycle perf gate.
//! * **unattributed-charge** — `MemStats` counter fields mutate only at
//!   the fabric-sim charge sites ([`rules::CHARGE_SITE_FILES`]), so the
//!   buckets-sum==elapsed invariant is protected at the source level.
//! * **metric-key-alloc** — result-affecting library code must not pass
//!   `&format!(…)` as a metric name to `counter_add` / `gauge_set` /
//!   `observe` / `scoped`: the registry's `*_fmt` entry points
//!   take `format_args!` and format into a reused buffer, so a per-query
//!   metric write allocates only when its name is new.
//!
//! Diagnostics are `file:line` anchored. Pre-existing debt lives in the
//! checked-in `lint-baseline.txt`, counted per `(rule, file)`: a normal
//! run fails only when a count **exceeds** its baseline entry; the CI
//! `--self-check` mode additionally fails on *stale* entries (count above
//! actual) and replays the fixture corpus under
//! `crates/fabric-lint/fixtures/` against its `//~ rule` expectation
//! markers (see [`selfcheck`]), so the analyzer itself is regression-gated.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod layering;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod selfcheck;

/// Crates whose library code must be panic-free (rule `no-unwrap`).
pub const CORE_CRATES: &[&str] = &[
    "fabric-types",
    "relmem",
    "query",
    "mvcc",
    "relstore",
    "durability",
];

/// Crates whose code never affects query results, cycle counts, or
/// artifacts compared across runs — everything else is in scope for
/// `nondeterministic-core`.
pub const NON_RESULT_AFFECTING_CRATES: &[&str] = &["bench", "fabric-lint"];

/// Individual hot-path files where narrowing `as` casts are forbidden.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/relmem/src/packer.rs",
    "crates/fabric-sim/src/cache.rs",
];

/// Hot-path directory prefixes (every `.rs` file below them).
pub const HOT_PATH_DIRS: &[&str] = &["crates/compress/src/"];

/// The one file allowed to name the bench results directory (rule
/// `adhoc-bench-output`): everything else routes artifact I/O through its
/// `results_dir` / `write_artifact` API.
pub const BENCH_HARNESS_FILE: &str = "crates/bench/src/harness.rs";

/// The twelve rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    NoUnwrap,
    UndocumentedUnsafe,
    NarrowingCast,
    NoExit,
    IgnoredResult,
    RawStatsPrint,
    ExecInternals,
    AdhocBenchOutput,
    LayeringViolation,
    NondeterministicCore,
    UnattributedCharge,
    MetricKeyAlloc,
}

/// Every rule, for coverage checks and docs.
pub const ALL_RULES: &[Rule] = &[
    Rule::NoUnwrap,
    Rule::UndocumentedUnsafe,
    Rule::NarrowingCast,
    Rule::NoExit,
    Rule::IgnoredResult,
    Rule::RawStatsPrint,
    Rule::ExecInternals,
    Rule::AdhocBenchOutput,
    Rule::LayeringViolation,
    Rule::NondeterministicCore,
    Rule::UnattributedCharge,
    Rule::MetricKeyAlloc,
];

impl Rule {
    /// Stable name used in output and in `lint-baseline.txt`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::NarrowingCast => "narrowing-cast",
            Rule::NoExit => "no-exit",
            Rule::IgnoredResult => "ignored-result",
            Rule::RawStatsPrint => "raw-stats-print",
            Rule::ExecInternals => "exec-internals",
            Rule::AdhocBenchOutput => "adhoc-bench-output",
            Rule::LayeringViolation => "layering-violation",
            Rule::NondeterministicCore => "nondeterministic-core",
            Rule::UnattributedCharge => "unattributed-charge",
            Rule::MetricKeyAlloc => "metric-key-alloc",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// One violation, anchored to `file:line`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    /// Human-readable description including the offending token.
    pub message: String,
    /// The trimmed source line (truncated).
    pub excerpt: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}: `{}`",
            self.file,
            self.line,
            self.rule.name(),
            self.message,
            self.excerpt
        )
    }
}

/// What the walker decided about a file before scanning it.
#[derive(Debug, Clone)]
pub struct FileClass {
    pub crate_name: String,
    /// Library code: under `src/`, excluding `src/bin/` and `src/main.rs`.
    pub is_lib: bool,
    /// Member of [`CORE_CRATES`].
    pub is_core: bool,
    /// Hot-path module for the narrowing-cast rule.
    pub is_hot: bool,
    /// In scope for `nondeterministic-core` (everything but bench and the
    /// linter itself).
    pub is_result_affecting: bool,
}

/// Classify a workspace-relative path; `None` means "do not scan"
/// (non-Rust, lint fixtures, build output).
pub fn classify(rel: &str) -> Option<FileClass> {
    if !rel.ends_with(".rs") {
        return None;
    }
    if rel
        .split('/')
        .any(|part| part == "fixtures" || part == "target" || part.starts_with('.'))
    {
        return None;
    }
    let (crate_name, inner) = if let Some(rest) = rel.strip_prefix("crates/") {
        let (name, inner) = rest.split_once('/')?;
        (name.to_string(), inner.to_string())
    } else if rel.starts_with("src/") {
        // The workspace-root `relational-fabric` facade crate.
        ("relational-fabric".to_string(), rel.to_string())
    } else if rel.starts_with("tests/") || rel.starts_with("examples/") {
        // The facade crate's integration tests and examples: never
        // library code, but in scope for the rules that cover test
        // targets (undocumented-unsafe, exec-internals).
        ("relational-fabric".to_string(), rel.to_string())
    } else {
        return None;
    };
    let is_lib =
        inner.starts_with("src/") && !inner.starts_with("src/bin/") && inner != "src/main.rs";
    let is_core = CORE_CRATES.contains(&crate_name.as_str());
    let is_hot = HOT_PATH_FILES.contains(&rel) || HOT_PATH_DIRS.iter().any(|d| rel.starts_with(d));
    let is_result_affecting = !NON_RESULT_AFFECTING_CRATES.contains(&crate_name.as_str());
    Some(FileClass {
        crate_name,
        is_lib,
        is_core,
        is_hot,
        is_result_affecting,
    })
}

pub(crate) fn excerpt_of(raw: &str) -> String {
    let t = raw.trim();
    if t.len() > 90 {
        let mut cut = 90;
        while !t.is_char_boundary(cut) {
            cut -= 1;
        }
        format!("{}…", &t[..cut])
    } else {
        t.to_string()
    }
}

/// Scan one file's source. Pure function of `(path, source, class)` so
/// the fixture corpus can drive it directly.
pub fn scan_source(rel: &str, src: &str, class: &FileClass) -> Vec<Diagnostic> {
    let model = model::FileModel::build(src);
    let raw_lines: Vec<&str> = src.lines().collect();
    rules::scan(rel, &model, &raw_lines, class)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries = fs::read_dir(dir)?.collect::<io::Result<Vec<_>>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with('.') || name == "target" || name == "fixtures" {
            continue;
        }
        if path.is_dir() {
            walk(&path, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every classified `.rs` file under `<root>/crates`, `<root>/src`,
/// `<root>/tests`, and `<root>/examples`, plus every crate manifest and
/// the workspace manifest (layering pass), returning diagnostics sorted
/// by `(file, line, rule)`.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        files.push(root_manifest);
    }
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut diags = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if rel.ends_with("Cargo.toml") {
            let text = fs::read_to_string(&path)?;
            diags.extend(layering::scan_cargo_manifest(&rel, &text));
            continue;
        }
        let Some(class) = classify(&rel) else {
            continue;
        };
        let src = fs::read_to_string(&path)?;
        diags.extend(scan_source(&rel, &src, &class));
    }
    diags.sort();
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core_lib() -> FileClass {
        classify("crates/relmem/src/x.rs").unwrap()
    }

    #[test]
    fn classify_maps_paths_to_rule_scopes() {
        let c = classify("crates/relmem/src/packer.rs").unwrap();
        assert!(c.is_lib && c.is_core && c.is_hot && c.is_result_affecting);
        let c = classify("crates/compress/src/lz.rs").unwrap();
        assert!(c.is_lib && !c.is_core && c.is_hot);
        let c = classify("crates/query/tests/roundtrip.rs").unwrap();
        assert!(!c.is_lib && c.is_core);
        let c = classify("crates/bench/src/main.rs").unwrap();
        assert!(!c.is_lib && !c.is_result_affecting);
        let c = classify("crates/fabric-lint/src/lib.rs").unwrap();
        assert!(!c.is_result_affecting);
        let c = classify("src/lib.rs").unwrap();
        assert!(c.is_lib && !c.is_core && c.is_result_affecting);
        assert!(classify("crates/fabric-lint/fixtures/bad_unwrap.rs").is_none());
        assert!(classify("crates/relmem/src/notes.md").is_none());
    }

    #[test]
    fn classify_covers_facade_tests_and_examples() {
        let c = classify("tests/parallel_equivalence.rs").unwrap();
        assert_eq!(c.crate_name, "relational-fabric");
        assert!(!c.is_lib && !c.is_core && !c.is_hot);
        let c = classify("examples/sql_frontend.rs").unwrap();
        assert_eq!(c.crate_name, "relational-fabric");
        assert!(!c.is_lib);
    }

    #[test]
    fn rule_names_roundtrip() {
        for &r in ALL_RULES {
            assert_eq!(Rule::from_name(r.name()), Some(r));
        }
        assert_eq!(ALL_RULES.len(), 12);
        assert!(Rule::from_name("made-up").is_none());
    }

    #[test]
    fn cfg_test_region_is_exempt_from_no_unwrap() {
        let src = "pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   Some(1).unwrap();\n    }\n}\n";
        let d = scan_source("crates/relmem/src/x.rs", src, &core_lib());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].rule, Rule::NoUnwrap);
    }

    #[test]
    fn code_after_test_module_is_checked_again() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n\
                   pub fn g() { panic!(\"boom\"); }\n";
        let d = scan_source("crates/relmem/src/x.rs", src, &core_lib());
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6);
    }

    #[test]
    fn tokens_in_comments_and_strings_do_not_count() {
        let src = "// call .unwrap() responsibly\npub fn f() -> &'static str {\n    \
                   \"never panic!()\"\n}\n";
        let d = scan_source("crates/relmem/src/x.rs", src, &core_lib());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0).min(x.unwrap_or_default()) }\n";
        let d = scan_source("crates/relmem/src/x.rs", src, &core_lib());
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn ignored_result_shapes() {
        let run = |src: &str| scan_source("crates/relmem/src/x.rs", src, &core_lib());
        assert_eq!(run("fn f() { let _ = run(); }").len(), 1);
        assert_eq!(run("fn f() { retry().ok(); }").len(), 1);
        assert!(run("fn f() { let _ignored = run(); }").is_empty());
        assert!(run("fn f() { let (_, x) = pair(); x; }").is_empty());
        assert!(run("fn f() { let x = run().ok(); x; }").is_empty());
        assert!(run("fn f(x: u8, y: u8) { if x == y { run(); } }").is_empty());
    }
}
