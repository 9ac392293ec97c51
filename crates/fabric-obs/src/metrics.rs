//! Metrics registry: named monotonic counters, gauges, and log-bucketed
//! histograms, with a stable snapshot/delta API and a single JSON
//! serialization path.
//!
//! All maps are `BTreeMap`s so iteration — and therefore serialization —
//! is deterministic: same counter updates, byte-identical JSON. This is
//! the one formatter the workspace's stats flow through (`raw-stats-print`
//! in fabric-lint flags hand-rolled alternatives in core crates).

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Number of log2 buckets in a [`Histogram`]. Bucket `i` counts values
/// `v` with `63 - v.leading_zeros() == i` (bucket 0 also takes `v == 0`),
/// covering the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucketed histogram over `u64` samples (latencies in cycles,
/// amplification ratios scaled ×100, byte counts, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of observed samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Deterministic quantile estimate (`q` in `[0, 1]`).
    ///
    /// The histogram keeps log2 buckets, so the estimate selects the
    /// bucket containing the target rank and interpolates linearly inside
    /// the bucket's `[2^i, 2^(i+1))` value range, clamped to the observed
    /// `[min, max]`. Pure integer/f64 arithmetic over the bucket counts:
    /// the same samples always yield bit-identical quantiles, which is
    /// what lets p50/p99 gauges pass through the exact-match perf gate.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(
            self.buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n)),
            self.count,
            if self.count == 0 { 0 } else { self.min },
            self.max,
            q,
        )
    }

    /// Fold another histogram into this one (bucket-wise). Used by scope
    /// rollups: merging per-session histograms reproduces exactly the
    /// histogram a single shared registry would have accumulated.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Immutable snapshot used by [`MetricsSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]; only non-empty buckets are kept,
/// as `(log2_bucket, count)` pairs sorted by bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Same estimator as [`Histogram::quantile`], over the snapshot's
    /// sparse bucket list.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(
            self.buckets.iter().copied(),
            self.count,
            self.min,
            self.max,
            q,
        )
    }
}

/// Shared quantile walk over sparse `(log2_bucket, count)` pairs.
///
/// Rank is `ceil(q * count)` clamped to `[1, count]` (nearest-rank with
/// interpolation inside the owning bucket). Bucket `i > 0` spans values
/// `[2^i, 2^(i+1))`; bucket 0 spans `[0, 2)`. The interpolated value is
/// clamped to the observed `[min, max]` so quantiles never exaggerate
/// past real samples. Empty histograms report 0.0.
fn quantile_from_buckets(
    buckets: impl Iterator<Item = (u32, u64)>,
    count: u64,
    min: u64,
    max: u64,
    q: f64,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (bucket, n) in buckets {
        if seen + n >= rank {
            let lo = if bucket == 0 {
                0.0
            } else {
                (1u64 << bucket) as f64
            };
            let hi = if bucket >= 63 {
                u64::MAX as f64
            } else {
                (1u64 << (bucket + 1)) as f64
            };
            // Midpoint-of-rank interpolation: the k-th of n samples in a
            // bucket sits at fraction (k - 0.5) / n of the bucket span.
            let k = rank - seen;
            let frac = (k as f64 - 0.5) / n as f64;
            let v = lo + frac * (hi - lo);
            return v.clamp(min as f64, max as f64);
        }
        seen += n;
    }
    max as f64
}

/// A monotonic counter plus the value it held at the registry's last
/// mark, saved lazily on the first touch after that mark.
#[derive(Debug, Clone, Copy)]
struct Counter {
    value: u64,
    /// `value` as of the last mark; meaningful only while `epoch` equals
    /// the registry's current epoch.
    at_mark: u64,
    /// The mark epoch of this counter's last touch.
    epoch: u64,
}

impl Counter {
    fn add(&mut self, delta: u64, epoch: u64) {
        if self.epoch != epoch {
            self.at_mark = self.value;
            self.epoch = epoch;
        }
        self.value = self.value.saturating_add(delta);
    }

    /// Advance since the mark of `epoch`: a counter untouched since then
    /// has not moved.
    fn since_mark(&self, epoch: u64) -> u64 {
        if self.epoch == epoch {
            self.value - self.at_mark
        } else {
            0
        }
    }
}

/// The workspace-wide metrics registry.
///
/// Counters are monotonic `u64`s, gauges are last-write-wins `f64`s,
/// histograms are log2-bucketed. Names are dotted paths
/// (`"mem.l1.hits"`, `"rm.retries"`, `"explain.rel_err_pct"`), owned
/// strings so callers can build them dynamically; the `*_fmt` entry
/// points build a dynamic name in a reusable buffer and allocate only
/// when the name is new.
///
/// [`MetricsRegistry::mark`] starts a measurement window in O(1):
/// [`MetricsRegistry::delta_since_mark`] then reports what a snapshot
/// taken at the mark would have given as the `earlier` side of
/// [`MetricsSnapshot::delta_since`], without ever taking that snapshot.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// One word, allocated on the first mark or name-building write.
    /// Every `MemoryHierarchy` embeds a registry: growing it inline by 16
    /// bytes or more measured 6-8% slower on the benchmark's software
    /// MVCC scan, which never touches the registry (a layout effect,
    /// reproduced by padding alone), and allocating the box with the
    /// registry raised `dashboard_hot` peak RSS 5% (EXPERIMENTS.md).
    state: Option<Box<RegistryState>>,
}

/// The registry's mark epoch and its reusable name buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct RegistryState {
    /// Number of marks so far; 0 means never marked.
    epoch: u64,
    /// Reusable buffer the `*_fmt` entry points format names into; lent
    /// to a [`crate::ScopedMetrics`] for its lifetime.
    pub(crate) key_buf: String,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add to a monotonic counter (created at 0 on first touch).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let epoch = self.epoch();
        if let Some(c) = self.counters.get_mut(name) {
            c.add(delta, epoch);
        } else {
            self.counters.insert(
                name.to_string(),
                Counter {
                    value: delta,
                    at_mark: 0,
                    epoch,
                },
            );
        }
    }

    /// [`MetricsRegistry::counter_add`] under a name built from `name`
    /// (`format_args!`), allocating only when the name is new.
    pub fn counter_add_fmt(&mut self, name: fmt::Arguments<'_>, delta: u64) {
        let key = self.format_key(name);
        self.counter_add(&key, delta);
        self.state_mut().key_buf = key;
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.value)
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// [`MetricsRegistry::gauge_set`] under a name built from `name`,
    /// allocating only when the name is new.
    pub fn gauge_set_fmt(&mut self, name: fmt::Arguments<'_>, value: f64) {
        let key = self.format_key(name);
        self.gauge_set(&key, value);
        self.state_mut().key_buf = key;
    }

    /// Read a gauge (`None` when never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Record a histogram sample (histogram created on first touch).
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new();
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// [`MetricsRegistry::observe`] under a name built from `name`,
    /// allocating only when the name is new. Returns the updated
    /// histogram, so a caller deriving quantiles needs no second name.
    pub fn observe_fmt(&mut self, name: fmt::Arguments<'_>, value: u64) -> &Histogram {
        let key = self.format_key(name);
        self.observe(&key, value);
        self.state_mut().key_buf = key;
        let key = self.state.as_ref().map_or("", |s| s.key_buf.as_str());
        &self.histograms[key]
    }

    /// Read a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Start a new measurement window in O(1): from here on,
    /// [`MetricsRegistry::delta_since_mark`] reports counters relative to
    /// their values at this call.
    pub fn mark(&mut self) {
        self.state_mut().epoch += 1;
    }

    /// Whether [`MetricsRegistry::mark`] was ever called.
    pub fn is_marked(&self) -> bool {
        self.epoch() > 0
    }

    /// The delta since the last [`MetricsRegistry::mark`] (since the
    /// registry was created if never marked). Exactly
    /// `self.snapshot().delta_since(&at_mark)` for a snapshot `at_mark`
    /// taken at the mark: counters created after it count from 0,
    /// counters that did not advance are omitted, and gauges and
    /// histograms carry their current values.
    pub fn delta_since_mark(&self) -> MetricsSnapshot {
        let epoch = self.epoch();
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter_map(|(k, c)| {
                    let d = c.since_mark(epoch);
                    (d > 0).then(|| (k.clone(), d))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self.histogram_snapshots(),
        }
    }

    /// Point-in-time snapshot of all metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.value))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self.histogram_snapshots(),
        }
    }

    fn histogram_snapshots(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.histograms
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect()
    }

    fn epoch(&self) -> u64 {
        self.state.as_ref().map_or(0, |s| s.epoch)
    }

    pub(crate) fn state_mut(&mut self) -> &mut RegistryState {
        self.state.get_or_insert_with(Box::default)
    }

    /// Format `name` into the reusable key buffer, handing the buffer to
    /// the caller, which puts it back once the lookup is done.
    fn format_key(&mut self, name: fmt::Arguments<'_>) -> String {
        let mut key = std::mem::take(&mut self.state_mut().key_buf);
        key.clear();
        // Writing into a `String` cannot fail.
        let _infallible = key.write_fmt(name);
        key
    }
}

/// Immutable snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value at snapshot time (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counters that advanced since `earlier`, plus gauges/histograms at
    /// their current values. Counters with zero delta are omitted, so a
    /// delta over an idle interval is empty.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let d = v.saturating_sub(earlier.counter(k));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// The single serialization path: deterministic JSON (sorted keys,
    /// fixed float formatting). Every stats export in the workspace —
    /// bench `BENCH_*.json` files, EXPLAIN ANALYZE appendices, CI
    /// artifacts — goes through here.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(out, "\"{}\":{}", crate::json::escaped(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(out, "\"{}\":{}", crate::json::escaped(k), fmt_f64(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ignored = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                crate::json::escaped(k),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            for (j, (bucket, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ignored = write!(out, "[{bucket},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Deterministic float rendering for JSON: finite values via `{:?}`
/// (shortest round-trip form, locale-independent), non-finite mapped to
/// JSON-legal sentinels.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no Infinity/NaN; null keeps the document parseable.
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.counter_add("b.second", 2);
        r.counter_add("a.first", 1);
        r.counter_add("b.second", 3);
        assert_eq!(r.counter("b.second"), 5);
        assert_eq!(r.counter("missing"), 0);
        let snap = r.snapshot();
        let keys: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(keys, ["a.first", "b.second"]);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1024, u64::MAX] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        // 0 and 1 land in bucket 0; 2 and 3 in bucket 1; 1024 in 10; MAX in 63.
        assert_eq!(s.buckets, vec![(0, 2), (1, 2), (10, 1), (63, 1)]);
    }

    #[test]
    fn delta_omits_idle_counters() {
        let mut r = MetricsRegistry::new();
        r.counter_add("x", 10);
        r.counter_add("y", 1);
        let before = r.snapshot();
        r.counter_add("x", 7);
        let delta = r.snapshot().delta_since(&before);
        assert_eq!(delta.counter("x"), 7);
        assert!(!delta.counters.contains_key("y"));
    }

    #[test]
    fn json_is_deterministic_and_parses() {
        let mut r = MetricsRegistry::new();
        r.counter_add("mem.l1.hits", 42);
        r.gauge_set("explain.rel_err_pct", 12.5);
        r.observe("rm.batch_cycles", 900);
        r.observe("rm.batch_cycles", 1100);
        let s = r.snapshot();
        let j1 = s.to_json();
        let j2 = s.to_json();
        assert_eq!(j1, j2);
        let parsed = crate::json::parse_json(&j1).expect("snapshot JSON parses");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("mem.l1.hits"))
                .and_then(crate::json::Json::as_num),
            Some(42.0)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("explain.rel_err_pct"))
                .and_then(crate::json::Json::as_num),
            Some(12.5)
        );
    }

    #[test]
    fn quantiles_are_deterministic_and_ordered() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!((1.0..=1000.0).contains(&p50));
        assert!(p99 <= 1000.0);
        // Snapshot agrees bit-for-bit with the live histogram.
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50).to_bits(), p50.to_bits());
        assert_eq!(s.quantile(0.99).to_bits(), p99.to_bits());
        // Empty histogram and extremes stay well-defined.
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
        let mut one = Histogram::new();
        one.observe(7);
        assert_eq!(one.quantile(0.0), 7.0);
        assert_eq!(one.quantile(1.0), 7.0);
    }

    #[test]
    fn merge_matches_single_accumulation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 900, 17, 0, 65536] {
            whole.observe(v);
            if v % 2 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn non_finite_gauges_stay_parseable() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("bad", f64::INFINITY);
        let j = r.snapshot().to_json();
        crate::json::parse_json(&j).expect("still valid JSON");
        assert!(j.contains("\"bad\":null"));
    }

    /// Default seed of the mark differential sweep; override with
    /// `FABRIC_CHAOS_SEED` to replay or explore.
    const MARK_SEED: u64 = 0x3A_12C_0DE;

    fn mark_seed() -> u64 {
        std::env::var("FABRIC_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(MARK_SEED)
    }

    /// Drive one registry with seeded counter, gauge, histogram and mark
    /// operations, taking a full snapshot at every mark, and require `delta_since_mark` to equal the snapshot delta
    /// — structurally and byte for byte in JSON — after every operation.
    /// The name pool grows as the sweep runs, so counters are created
    /// both before and after marks; most names go untouched in any one
    /// window; zero and saturating deltas are drawn too.
    fn mark_differential(seed: u64, ops: usize) {
        use fabric_types::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(seed);
        let mut reg = MetricsRegistry::new();
        let mut at_mark = MetricsSnapshot::default();
        let mut marks = 0;
        for op in 0..ops {
            let pool = 4 + op / 64;
            let n = rng.gen_range(0..pool);
            match rng.gen_range(0..16u32) {
                0..=6 => {
                    let delta = match rng.gen_range(0..8u32) {
                        0 => 0,
                        1 if rng.gen_bool(0.05) => u64::MAX / 2,
                        _ => rng.gen_range(1..100u64),
                    };
                    if rng.gen_bool(0.5) {
                        reg.counter_add(&format!("c.{n}"), delta);
                    } else {
                        reg.counter_add_fmt(format_args!("c.{n}"), delta);
                    }
                }
                7 | 8 => reg.gauge_set_fmt(format_args!("g.{n}"), rng.next_f64()),
                9 | 10 => {
                    reg.observe_fmt(format_args!("h.{n}"), rng.next_u64() >> 40);
                }
                11 => reg
                    .scoped_fmt(format_args!("s.{}", n % 3))
                    .counter_add("hits", 1),
                12 => {
                    at_mark = reg.snapshot();
                    reg.mark();
                    marks += 1;
                }
                _ => {}
            }
            let expected = reg.snapshot().delta_since(&at_mark);
            let got = reg.delta_since_mark();
            assert!(
                got == expected && got.to_json() == expected.to_json(),
                "delta_since_mark diverged: seed {seed} op {op} after {marks} marks \
                 (FABRIC_CHAOS_SEED={seed})\n got      {}\n expected {}",
                got.to_json(),
                expected.to_json()
            );
        }
        assert!(marks > 10, "vacuous sweep: {marks} marks (seed {seed})");
    }

    #[test]
    fn delta_since_mark_equals_snapshot_delta() {
        let base = mark_seed();
        for k in 0..8 {
            mark_differential(base.wrapping_add(k), 2_000);
        }
    }

    #[test]
    fn unmarked_delta_counts_from_creation() {
        let mut r = MetricsRegistry::new();
        r.counter_add("zero", 0);
        r.counter_add("x", 3);
        assert!(!r.is_marked());
        let d = r.delta_since_mark();
        assert_eq!(d, r.snapshot().delta_since(&MetricsSnapshot::default()));
        assert!(!d.counters.contains_key("zero"));
        r.mark();
        assert!(r.is_marked());
        assert!(r.delta_since_mark().counters.is_empty());
    }

    #[test]
    fn fmt_entry_points_match_str_entry_points() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for core in 0..3u64 {
            a.counter_add(&format!("query.core{core}.busy"), core + 1);
            b.counter_add_fmt(format_args!("query.core{core}.busy"), core + 1);
            a.gauge_set(&format!("g.{core}"), core as f64);
            b.gauge_set_fmt(format_args!("g.{core}"), core as f64);
            a.observe(&format!("h.{core}"), core);
            let h = b.observe_fmt(format_args!("h.{core}"), core);
            assert_eq!(h.count(), 1);
        }
        assert_eq!(a.snapshot().to_json(), b.snapshot().to_json());
    }
}
