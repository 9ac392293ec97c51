//! The checked-in violation baseline (`lint-baseline.txt`).
//!
//! Debt is counted per `(rule, file)`, not per line, so unrelated edits
//! that shift line numbers do not invalidate the baseline. The linter
//! fails only when a count **exceeds** its entry — new violations are
//! rejected, pre-existing ones burn down monotonically (a shrunk count
//! is reported as stale so `--update-baseline` can ratchet it down).

use std::collections::BTreeMap;
use std::fmt;

use crate::{Diagnostic, Rule};

const HEADER: &str = "\
# fabric-lint baseline: pre-existing violations, counted per (rule, file).
# A normal run fails only when a (rule, file) count EXCEEDS its entry here;
# `--self-check` (the CI mode) also fails on STALE entries, so the ratchet
# is tight in both directions: fix code, then regenerate with
#   cargo run -p fabric-lint -- --update-baseline
# Never regenerate to admit NEW violations.
# An empty baseline means the workspace is debt-free under every rule.
# format: <rule> <count> <path>";

/// Baseline counts keyed by `(rule name, file)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(String, String), usize>,
}

impl Baseline {
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    pub fn entries(&self) -> usize {
        self.counts.len()
    }

    pub fn get(&self, rule: Rule, file: &str) -> usize {
        self.counts
            .get(&(rule.name().to_string(), file.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Parse the checked-in format; unknown rules and malformed lines are
    /// hard errors so a corrupted baseline cannot silently admit debt.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (rule, count, path) = match (parts.next(), parts.next(), parts.next()) {
                (Some(r), Some(c), Some(p)) => (r, c, p),
                _ => {
                    return Err(format!(
                        "baseline line {}: expected `<rule> <count> <path>`",
                        i + 1
                    ))
                }
            };
            if Rule::from_name(rule).is_none() {
                return Err(format!("baseline line {}: unknown rule `{rule}`", i + 1));
            }
            let count: usize = count
                .parse()
                .map_err(|_| format!("baseline line {}: bad count `{count}`", i + 1))?;
            if count == 0 {
                return Err(format!(
                    "baseline line {}: zero-count entry should be deleted",
                    i + 1
                ));
            }
            if counts
                .insert((rule.to_string(), path.to_string()), count)
                .is_some()
            {
                return Err(format!(
                    "baseline line {}: duplicate entry for {rule} {path}",
                    i + 1
                ));
            }
        }
        Ok(Baseline { counts })
    }

    pub fn from_diagnostics(diags: &[Diagnostic]) -> Baseline {
        let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
        for d in diags {
            *counts
                .entry((d.rule.name().to_string(), d.file.clone()))
                .or_insert(0) += 1;
        }
        Baseline { counts }
    }

    pub fn render(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for ((rule, file), count) in &self.counts {
            out.push_str(&format!("{rule} {count} {file}\n"));
        }
        out
    }
}

/// One `(rule, file)` bucket whose current count differs from baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    pub rule: String,
    pub file: String,
    pub current: usize,
    pub baselined: usize,
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {} now, {} baselined",
            self.file, self.rule, self.current, self.baselined
        )
    }
}

/// Result of checking current diagnostics against the baseline.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Diagnostics in buckets whose count exceeds the baseline. These
    /// fail the run. (The whole bucket is listed — line numbers cannot
    /// distinguish old debt from new within one file.)
    pub fresh: Vec<Diagnostic>,
    /// The buckets behind `fresh`.
    pub grown: Vec<Delta>,
    /// Buckets whose count shrank below (or vanished from) the baseline;
    /// informational, prompts a `--update-baseline` ratchet.
    pub stale: Vec<Delta>,
    /// Diagnostics covered by the baseline.
    pub suppressed: usize,
}

pub fn compare(diags: &[Diagnostic], base: &Baseline) -> Comparison {
    let current = Baseline::from_diagnostics(diags);
    let mut cmp = Comparison::default();
    for ((rule, file), &count) in &current.counts {
        let allowed = base
            .counts
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if count > allowed {
            cmp.grown.push(Delta {
                rule: rule.clone(),
                file: file.clone(),
                current: count,
                baselined: allowed,
            });
            cmp.fresh.extend(
                diags
                    .iter()
                    .filter(|d| d.rule.name() == rule && &d.file == file)
                    .cloned(),
            );
            cmp.suppressed += allowed;
        } else {
            cmp.suppressed += count;
        }
    }
    for ((rule, file), &allowed) in &base.counts {
        let count = current
            .counts
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if count < allowed {
            cmp.stale.push(Delta {
                rule: rule.clone(),
                file: file.clone(),
                current: count,
                baselined: allowed,
            });
        }
    }
    cmp.fresh.sort();
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: Rule, file: &str, line: usize) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message: "m".into(),
            excerpt: "e".into(),
        }
    }

    #[test]
    fn parse_render_roundtrip() {
        let diags = vec![
            diag(Rule::NoUnwrap, "crates/relmem/src/a.rs", 3),
            diag(Rule::NoUnwrap, "crates/relmem/src/a.rs", 9),
            diag(Rule::NarrowingCast, "crates/compress/src/lz.rs", 55),
        ];
        let b = Baseline::from_diagnostics(&diags);
        let text = b.render();
        let back = Baseline::parse(&text).unwrap();
        assert_eq!(b, back);
        assert_eq!(back.get(Rule::NoUnwrap, "crates/relmem/src/a.rs"), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::parse("no-unwrap two crates/a.rs").is_err());
        assert!(Baseline::parse("made-up-rule 2 crates/a.rs").is_err());
        assert!(Baseline::parse("no-unwrap 0 crates/a.rs").is_err());
        assert!(Baseline::parse("no-unwrap 1 a.rs\nno-unwrap 2 a.rs").is_err());
        assert!(Baseline::parse("# comment\n\nno-unwrap 1 a.rs").is_ok());
    }

    #[test]
    fn equal_counts_pass_excess_fails() {
        let old = vec![diag(Rule::NoUnwrap, "a.rs", 3)];
        let base = Baseline::from_diagnostics(&old);
        let same = compare(&old, &base);
        assert!(same.fresh.is_empty() && same.stale.is_empty());
        assert_eq!(same.suppressed, 1);

        let grown = vec![
            diag(Rule::NoUnwrap, "a.rs", 3),
            diag(Rule::NoUnwrap, "a.rs", 7),
        ];
        let cmp = compare(&grown, &base);
        assert_eq!(cmp.fresh.len(), 2);
        assert_eq!(cmp.grown.len(), 1);
        assert_eq!(cmp.grown[0].current, 2);
        assert_eq!(cmp.grown[0].baselined, 1);
    }

    #[test]
    fn shrunk_debt_is_stale_not_fatal() {
        let base = Baseline::from_diagnostics(&[
            diag(Rule::NoUnwrap, "a.rs", 3),
            diag(Rule::NoUnwrap, "a.rs", 5),
        ]);
        let cmp = compare(&[diag(Rule::NoUnwrap, "a.rs", 3)], &base);
        assert!(cmp.fresh.is_empty());
        assert_eq!(cmp.stale.len(), 1);
        assert_eq!(cmp.stale[0].current, 1);
        let cmp = compare(&[], &base);
        assert_eq!(cmp.stale[0].baselined, 2);
    }

    #[test]
    fn unbaselined_file_fails_immediately() {
        let cmp = compare(&[diag(Rule::NoExit, "b.rs", 1)], &Baseline::default());
        assert_eq!(cmp.fresh.len(), 1);
        assert_eq!(cmp.suppressed, 0);
    }
}
