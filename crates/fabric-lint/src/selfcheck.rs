//! `--self-check`: the analyzer regression-gates *itself* before it is
//! allowed to gate the workspace.
//!
//! Two halves, both fatal in CI:
//!
//! 1. **Fixture corpus replay.** Every file under
//!    `crates/fabric-lint/fixtures/` is a self-describing test case: its
//!    first line names the workspace-relative path to scan it *as*
//!    (`//@ scan-as: crates/relmem/src/bad.rs`, or `#@ scan-as:` in the
//!    two `Cargo.toml` fixtures), and every line that should produce a
//!    finding carries a `//~ rule-name` (or `#~ rule-name`) marker —
//!    several rule names on one marker mean several findings on that
//!    line. The corpus is diffed as a multiset of `(line, rule)` pairs,
//!    so a false positive (unexpected finding) and a false negative
//!    (missing finding) both fail with the exact location. A final
//!    completeness check requires every one of the twelve rules to be
//!    exercised by at least one expected finding, so a rule can never
//!    silently rot out of the corpus.
//!
//! 2. **Bidirectional baseline ratchet.** A normal run fails only on
//!    counts *above* `lint-baseline.txt` (new debt); self-check also
//!    fails on counts *below* it (stale entries), because a stale entry
//!    is head-room a future regression could hide in. Fixing debt must
//!    therefore land together with its `--update-baseline` ratchet.

use std::fs;
use std::path::Path;

use crate::baseline::{compare, Baseline};
use crate::{classify, layering, scan_source, Rule, ALL_RULES};

/// One `(line, rule)` expectation or finding inside a fixture.
type Finding = (usize, &'static str);

/// The outcome of a self-check run: human-readable failures (empty =
/// pass) plus counters for the success banner.
#[derive(Debug, Default)]
pub struct SelfCheckReport {
    pub failures: Vec<String>,
    pub fixtures: usize,
    pub expected_findings: usize,
}

impl SelfCheckReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Parse a fixture: `(scan-as path, expected findings)`.
fn parse_fixture(name: &str, text: &str) -> Result<(String, Vec<Finding>), String> {
    let first = text.lines().next().unwrap_or("");
    let scan_as = first
        .strip_prefix("//@ scan-as:")
        .or_else(|| first.strip_prefix("#@ scan-as:"))
        .map(str::trim)
        .ok_or_else(|| {
            format!("{name}: first line must be `//@ scan-as: <path>` (or `#@` in TOML)")
        })?;
    if scan_as.is_empty() {
        return Err(format!("{name}: empty scan-as path"));
    }
    let mut expected = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let marker = line.find("//~").or_else(|| line.find("#~"));
        let Some(at) = marker else { continue };
        let tail = line[at..].trim_start_matches(['/', '#', '~']);
        for rule_name in tail.split_whitespace() {
            let rule = Rule::from_name(rule_name).ok_or_else(|| {
                format!("{name}:{}: unknown rule `{rule_name}` in marker", idx + 1)
            })?;
            expected.push((idx + 1, rule.name()));
        }
    }
    Ok((scan_as.to_string(), expected))
}

/// Scan a fixture's text as the file its header names.
fn scan_fixture(name: &str, scan_as: &str, text: &str) -> Result<Vec<Finding>, String> {
    if scan_as.ends_with("Cargo.toml") {
        return Ok(layering::scan_cargo_manifest(scan_as, text)
            .into_iter()
            .map(|d| (d.line, d.rule.name()))
            .collect());
    }
    let class = classify(scan_as).ok_or_else(|| {
        format!("{name}: scan-as path `{scan_as}` is not classifiable (would never be scanned)")
    })?;
    Ok(scan_source(scan_as, text, &class)
        .into_iter()
        .map(|d| (d.line, d.rule.name()))
        .collect())
}

/// Diff expected vs. actual findings as multisets of `(line, rule)`.
fn diff_findings(name: &str, expected: &[Finding], actual: &[Finding], out: &mut Vec<String>) {
    let mut exp = expected.to_vec();
    let mut act = actual.to_vec();
    exp.sort_unstable();
    act.sort_unstable();
    let mut e = 0;
    let mut a = 0;
    while e < exp.len() || a < act.len() {
        match (exp.get(e), act.get(a)) {
            (Some(x), Some(y)) if x == y => {
                e += 1;
                a += 1;
            }
            (Some(x), Some(y)) if x < y => {
                out.push(format!(
                    "{name}:{}: expected [{}] but the analyzer did not report it (false negative)",
                    x.0, x.1
                ));
                e += 1;
            }
            (Some(_), Some(y)) => {
                out.push(format!(
                    "{name}:{}: analyzer reported [{}] with no `//~` marker (false positive)",
                    y.0, y.1
                ));
                a += 1;
            }
            (Some(x), None) => {
                out.push(format!(
                    "{name}:{}: expected [{}] but the analyzer did not report it (false negative)",
                    x.0, x.1
                ));
                e += 1;
            }
            (None, Some(y)) => {
                out.push(format!(
                    "{name}:{}: analyzer reported [{}] with no `//~` marker (false positive)",
                    y.0, y.1
                ));
                a += 1;
            }
            (None, None) => unreachable!(),
        }
    }
}

/// Replay the fixture corpus at `fixtures_dir`.
pub fn check_corpus(fixtures_dir: &Path) -> Result<SelfCheckReport, String> {
    let mut report = SelfCheckReport::default();
    let mut covered: Vec<&'static str> = Vec::new();

    let mut entries: Vec<_> = fs::read_dir(fixtures_dir)
        .map_err(|e| format!("cannot read fixture corpus {}: {e}", fixtures_dir.display()))?
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot read fixture corpus: {e}"))?;
    entries.sort_by_key(|e| e.path());

    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.ends_with(".rs") || name.ends_with(".toml")) {
            continue;
        }
        let text =
            fs::read_to_string(&path).map_err(|e| format!("cannot read fixture {name}: {e}"))?;
        report.fixtures += 1;
        let (scan_as, expected) = match parse_fixture(&name, &text) {
            Ok(p) => p,
            Err(e) => {
                report.failures.push(e);
                continue;
            }
        };
        let actual = match scan_fixture(&name, &scan_as, &text) {
            Ok(a) => a,
            Err(e) => {
                report.failures.push(e);
                continue;
            }
        };
        report.expected_findings += expected.len();
        covered.extend(expected.iter().map(|&(_, r)| r));
        diff_findings(&name, &expected, &actual, &mut report.failures);
    }

    if report.fixtures == 0 {
        report
            .failures
            .push(format!("no fixtures found in {}", fixtures_dir.display()));
    }
    for &rule in ALL_RULES {
        if !covered.contains(&rule.name()) {
            report.failures.push(format!(
                "rule [{}] has no expected finding anywhere in the corpus (coverage hole)",
                rule.name()
            ));
        }
    }
    Ok(report)
}

/// Full self-check: corpus replay plus the bidirectional baseline
/// ratchet over the live workspace.
pub fn self_check(root: &Path) -> Result<SelfCheckReport, String> {
    let mut report = check_corpus(&root.join("crates/fabric-lint/fixtures"))?;

    let diags = crate::scan_workspace(root).map_err(|e| format!("workspace scan failed: {e}"))?;
    let baseline_path = root.join("lint-baseline.txt");
    let base = if baseline_path.is_file() {
        let text = fs::read_to_string(&baseline_path)
            .map_err(|e| format!("cannot read {}: {e}", baseline_path.display()))?;
        Baseline::parse(&text)?
    } else {
        Baseline::default()
    };
    let cmp = compare(&diags, &base);
    for d in &cmp.fresh {
        report.failures.push(format!("above baseline: {d}"));
    }
    for delta in &cmp.stale {
        report.failures.push(format!(
            "stale baseline entry ({delta}): ratchet with --update-baseline so fixed debt \
             cannot regress unnoticed"
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_parsing_extracts_header_and_markers() {
        let text = "//@ scan-as: crates/relmem/src/bad.rs\n\
                    pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap() //~ no-unwrap\n}\n";
        let (scan_as, exp) = parse_fixture("f.rs", text).unwrap();
        assert_eq!(scan_as, "crates/relmem/src/bad.rs");
        assert_eq!(exp, vec![(3, "no-unwrap")]);
    }

    #[test]
    fn fixture_marker_can_expect_multiple_findings() {
        let text = "//@ scan-as: crates/relmem/src/bad.rs\nlet _ = a.unwrap(); //~ no-unwrap ignored-result\n";
        let (_, exp) = parse_fixture("f.rs", text).unwrap();
        assert_eq!(exp.len(), 2);
    }

    #[test]
    fn fixture_without_header_or_with_bad_rule_is_rejected() {
        assert!(parse_fixture("f.rs", "fn main() {}\n").is_err());
        assert!(parse_fixture(
            "f.rs",
            "//@ scan-as: crates/relmem/src/b.rs\nx(); //~ no-such-rule\n"
        )
        .is_err());
    }

    #[test]
    fn diff_reports_both_directions() {
        let mut out = Vec::new();
        diff_findings(
            "f.rs",
            &[(3, "no-unwrap"), (5, "no-exit")],
            &[(3, "no-unwrap"), (9, "no-unwrap")],
            &mut out,
        );
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out
            .iter()
            .any(|m| m.contains("false negative") && m.contains("no-exit")));
        assert!(out
            .iter()
            .any(|m| m.contains("false positive") && m.contains(":9")));
    }

    #[test]
    fn matching_fixture_round_trips_through_scan() {
        let text = "//@ scan-as: crates/relmem/src/bad.rs\n\
                    pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap() //~ no-unwrap\n}\n";
        let (scan_as, expected) = parse_fixture("f.rs", text).unwrap();
        let actual = scan_fixture("f.rs", &scan_as, text).unwrap();
        let mut out = Vec::new();
        diff_findings("f.rs", &expected, &actual, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn toml_fixture_scans_through_the_manifest_path() {
        let text = "#@ scan-as: crates/fabric-obs/Cargo.toml\n\
                    [dependencies]\nquery.workspace = true #~ layering-violation\n";
        let (scan_as, expected) = parse_fixture("f.toml", text).unwrap();
        let actual = scan_fixture("f.toml", &scan_as, text).unwrap();
        let mut out = Vec::new();
        diff_findings("f.toml", &expected, &actual, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
