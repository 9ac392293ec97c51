//! Cost-calibration ledger: per-(table, geometry, path) observed-cost
//! history (DESIGN.md §17).
//!
//! The planner's `PathCost` estimates are analytic; this ledger records
//! how wrong they were in practice. Every *clean cold* query (not an
//! op-cache hit, not degraded, no injected faults) contributes one
//! observation — the relative error of the estimated nanoseconds and
//! bytes against what the simulator actually charged — keyed by
//! `table/geometry/path`. Entries accumulate a run count, arithmetic
//! mean, and EWMA of both error series, so a re-planner can ask "for
//! this table laid out this way, how far off is the column-path
//! estimate lately?" and bias its choice accordingly. This is the
//! substrate ROADMAP item 5 (adaptive execution) consumes.
//!
//! The ledger is host-side bookkeeping: observing never advances the
//! simulated clock, and JSON export is byte-deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::fmt_f64;

/// EWMA smoothing factor. 0.25 weights roughly the last seven runs —
/// responsive enough to track a geometry migration, smooth enough that
/// one chaotic run does not whipsaw the re-planner.
pub const EWMA_ALPHA: f64 = 0.25;

/// Accumulated observed-cost history for one (table, geometry, path) key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalibEntry {
    /// Clean cold runs folded into this entry.
    pub runs: u64,
    /// Arithmetic mean of the time rel-error (percent).
    pub mean_rel_err_ns: f64,
    /// EWMA of the time rel-error (percent), `alpha = 0.25`.
    pub ewma_rel_err_ns: f64,
    /// Arithmetic mean of the bytes rel-error (percent).
    pub mean_rel_err_bytes: f64,
    /// EWMA of the bytes rel-error (percent).
    pub ewma_rel_err_bytes: f64,
}

impl CalibEntry {
    /// Export this entry as the `calib.<key>.*` gauges.
    pub fn record_into(&self, registry: &mut crate::metrics::MetricsRegistry, key: &str) {
        registry.gauge_set_fmt(format_args!("calib.{key}.runs"), self.runs as f64);
        registry.gauge_set_fmt(
            format_args!("calib.{key}.mean_rel_err_ns"),
            self.mean_rel_err_ns,
        );
        registry.gauge_set_fmt(
            format_args!("calib.{key}.ewma_rel_err_ns"),
            self.ewma_rel_err_ns,
        );
        registry.gauge_set_fmt(
            format_args!("calib.{key}.mean_rel_err_bytes"),
            self.mean_rel_err_bytes,
        );
        registry.gauge_set_fmt(
            format_args!("calib.{key}.ewma_rel_err_bytes"),
            self.ewma_rel_err_bytes,
        );
    }

    fn observe(&mut self, rel_err_ns: f64, rel_err_bytes: f64) {
        self.runs += 1;
        let n = self.runs as f64;
        self.mean_rel_err_ns += (rel_err_ns - self.mean_rel_err_ns) / n;
        self.mean_rel_err_bytes += (rel_err_bytes - self.mean_rel_err_bytes) / n;
        if self.runs == 1 {
            self.ewma_rel_err_ns = rel_err_ns;
            self.ewma_rel_err_bytes = rel_err_bytes;
        } else {
            self.ewma_rel_err_ns += EWMA_ALPHA * (rel_err_ns - self.ewma_rel_err_ns);
            self.ewma_rel_err_bytes += EWMA_ALPHA * (rel_err_bytes - self.ewma_rel_err_bytes);
        }
    }
}

/// The per-engine ledger, keyed `table/geometry-tag/path`.
#[derive(Debug, Clone, Default)]
pub struct CalibLedger {
    entries: BTreeMap<String, CalibEntry>,
    observations: u64,
}

impl CalibLedger {
    /// Fold one clean-cold observation into the `key` entry and return
    /// the updated entry (copied out, so callers can export gauges
    /// without holding the borrow).
    pub fn observe(&mut self, key: &str, rel_err_ns: f64, rel_err_bytes: f64) -> CalibEntry {
        self.observations += 1;
        let entry = self.entries.entry(key.to_string()).or_default();
        entry.observe(rel_err_ns, rel_err_bytes);
        *entry
    }

    /// Entry lookup.
    pub fn get(&self, key: &str) -> Option<&CalibEntry> {
        self.entries.get(key)
    }

    /// All entries, sorted by key.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &CalibEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total observations folded across all keys.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Export every entry as `calib.<key>.*` gauges. The monotonic
    /// `calib.observations` counter is advanced by the executor at
    /// observation time, not here.
    pub fn record_into(&self, registry: &mut crate::metrics::MetricsRegistry) {
        for (key, e) in &self.entries {
            e.record_into(registry, key);
        }
    }

    /// Byte-deterministic JSON export (sorted keys, fixed floats).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ignored = write!(
            out,
            "{{\"schema\":1,\"observations\":{},\"entries\":{{",
            self.observations
        );
        for (i, (k, e)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(
                out,
                "\"{}\":{{\"ewma_rel_err_bytes\":{},\"ewma_rel_err_ns\":{},\
                 \"mean_rel_err_bytes\":{},\"mean_rel_err_ns\":{},\"runs\":{}}}",
                crate::json::escaped(k),
                fmt_f64(e.ewma_rel_err_bytes),
                fmt_f64(e.ewma_rel_err_ns),
                fmt_f64(e.mean_rel_err_bytes),
                fmt_f64(e.mean_rel_err_ns),
                e.runs
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_observations_converge_mean_and_ewma() {
        let mut ledger = CalibLedger::default();
        for _ in 0..5 {
            ledger.observe("lineitem/abcd1234/row", 12.5, 3.0);
        }
        let e = ledger.get("lineitem/abcd1234/row").expect("entry");
        assert_eq!(e.runs, 5);
        assert_eq!(e.mean_rel_err_ns, 12.5);
        assert_eq!(e.ewma_rel_err_ns, 12.5);
        assert_eq!(e.mean_rel_err_bytes, 3.0);
        assert_eq!(e.ewma_rel_err_bytes, 3.0);
        assert_eq!(ledger.observations(), 5);
    }

    #[test]
    fn ewma_tracks_recent_observations_faster_than_mean() {
        let mut ledger = CalibLedger::default();
        for _ in 0..10 {
            ledger.observe("t/g/col", 10.0, 0.0);
        }
        ledger.observe("t/g/col", 50.0, 0.0);
        let e = ledger.get("t/g/col").expect("entry");
        assert!(
            e.ewma_rel_err_ns > e.mean_rel_err_ns,
            "ewma {} should overtake mean {} after a spike",
            e.ewma_rel_err_ns,
            e.mean_rel_err_ns
        );
    }

    #[test]
    fn json_export_is_deterministic_and_parses() {
        let mut ledger = CalibLedger::default();
        ledger.observe("b/g/rm", 1.0, 2.0);
        ledger.observe("a/g/row", 3.0, 4.0);
        let j = ledger.to_json();
        assert_eq!(j, ledger.to_json());
        assert!(j.find("\"a/g/row\"") < j.find("\"b/g/rm\""), "sorted keys");
        assert!(crate::json::parse_json(&j).is_ok());
        let mut reg = crate::metrics::MetricsRegistry::new();
        ledger.record_into(&mut reg);
        assert_eq!(reg.gauge("calib.a/g/row.mean_rel_err_ns"), Some(3.0));
    }
}
