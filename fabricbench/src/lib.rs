//! The Relational Fabric benchmark: three closed-loop workloads driven
//! through the program's public entry points, each checked by an oracle,
//! reporting host-clock end-to-end metrics, exact simulated metrics and a
//! per-layer breakdown. See `README.md` in this directory.

mod clock;
mod dashboard_hot;
mod htap_durable;
mod scan_cold;
pub mod stats;
pub mod trace;

use clock::Instant;
use stats::{median, quantile, ratio, SimTally};
use std::collections::BTreeMap;
use trace::Tracer;

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_230_403;
/// A seed kept out of tuning: every oracle must pass on it too.
pub const HELD_OUT_SEED: u64 = 7_777_001;

/// Set-up repetitions per run: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_MIN_S` seconds of set-up have run (at most `SETUP_MAX_REPS`).
/// `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_S: f64 = 1.0;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("sim_lines_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ms", "ms"),
];

/// Spans whose self time the traced run reports per operation.
pub const SELF_SPANS: &[&str] = &[
    "op",
    "query.prepare",
    "exec.execute_on",
    "mvcc.read",
    "mvcc.commit",
    "durability.checkpoint",
    "mvcc.rm_scan",
    "mvcc.sw_scan",
    "bench.check",
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`. The
/// `self.<span>_us_per_op` metrics follow, one per [`SELF_SPANS`] entry.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "1"),
    ("workload.generate_s", "s"),
    ("engine.register_s", "s"),
    ("query.prepare.miss_us_p50", "us"),
    ("query.prepare.hit_us_p50", "us"),
    ("query.plan_cache.hit_ratio", "1"),
    ("exec.row.cold_ms_p50", "ms"),
    ("exec.col.cold_ms_p50", "ms"),
    ("exec.rm.cold_ms_p50", "ms"),
    ("exec.scratch.reuse_ratio", "1"),
    ("exec.hit_us_p50", "us"),
    ("exec.hit_us_p90", "us"),
    ("exec.opcache.hit_ratio", "1"),
    ("exec.opcache.evictions", "count"),
    ("sim.host_ns_per_line", "ns"),
    ("sim.line_accesses", "count"),
    ("sim.l1_hit_ratio", "1"),
    ("sim.l2_hit_ratio", "1"),
    ("sim.prefetch_hit_ratio", "1"),
    ("sim.demand_misses", "count"),
    ("sim.bytes_read", "B"),
    ("sim.bytes_written", "B"),
    ("td.retired", "cycles"),
    ("td.mem_l1", "cycles"),
    ("td.mem_l2", "cycles"),
    ("td.mem_dram", "cycles"),
    ("td.mem_rm_device", "cycles"),
    ("td.bw_wait", "cycles"),
    ("td.fault_retry", "cycles"),
    ("td.idle", "cycles"),
    ("rm.source_lines", "count"),
    ("rm.output_lines", "count"),
    ("rm.output_per_source", "1"),
    ("rm.batches", "count"),
    ("mvcc.read_us_p50", "us"),
    ("mvcc.commit_us_p50", "us"),
    ("mvcc.commit_us_p90", "us"),
    ("durability.checkpoint_ms_p50", "ms"),
    ("durability.wal_bytes_per_user_byte", "1"),
    ("durability.checkpoint_pages", "count"),
    ("mvcc.rm_scan_ms_p50", "ms"),
    ("mvcc.sw_scan_ms_p50", "ms"),
    ("mvcc.visible_ratio", "1"),
    ("obs.querylog.recorded", "count"),
    ("obs.querylog.dropped", "count"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name and unit, the self-time metrics included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(
        SELF_SPANS
            .iter()
            .map(|s| (format!("self.{s}_us_per_op"), "us")),
    );
    v
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanCold,
    DashboardHot,
    HtapDurable,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScanCold,
        Workload::DashboardHot,
        Workload::HtapDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanCold => "scan_cold",
            Workload::DashboardHot => "dashboard_hot",
            Workload::HtapDurable => "htap_durable",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Small` keeps the
/// same shape at a fraction of the size, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-clock seconds of timed passes (split half untraced, half traced
    /// when `trace` is set).
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One pass of a workload: its host time, the queries it ran, and
/// the simulated work it did. Query latencies go to [`RunState::latency`].
pub(crate) struct Pass {
    pub host_ns: u64,
    pub queries: u64,
    pub sim: SimTally,
}

/// The timed passes of one phase (tracing on or off), and the simulated
/// line accesses they made.
pub(crate) struct Phase {
    pub passes: Vec<Pass>,
    pub sim_lines: u64,
}

/// State shared by a run's passes: the tracer, the oracle's tallies and
/// the per-layer host samples gathered while tracing.
pub(crate) struct RunState {
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    /// The first few oracle failures, for the report.
    pub notes: Vec<String>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Query latencies (ns) of the untraced timed passes; `u32` keeps the
    /// benchmark's own memory small next to the program's.
    latencies: Vec<u32>,
    keep_latencies: bool,
}

impl RunState {
    fn new(trace: bool) -> Self {
        RunState {
            tracer: Tracer::new(trace),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            samples: BTreeMap::new(),
            latencies: Vec::new(),
            keep_latencies: false,
        }
    }

    /// Record one query's host latency (kept during untraced timed passes).
    pub fn latency(&mut self, ns: u64) {
        if self.keep_latencies {
            self.latencies.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }

    /// Record one operation's outcome.
    pub fn outcome(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// While tracing, keep a span duration of `ns` as a sample of
    /// `metric`, in milliseconds or microseconds by the metric's suffix.
    pub fn sample(&mut self, metric: &'static str, ns: u64) {
        if !self.tracer.enabled() {
            return;
        }
        let v = if metric.ends_with("_ms") {
            ns as f64 / 1e6
        } else {
            ns as f64 / 1e3
        };
        self.samples.entry(metric).or_default().push(v);
    }

    /// Keep a pass's prepare timings, labelled hit or miss by a
    /// [`PlanCacheModel`], when the model's hit count matches the
    /// engine's own counter for the pass.
    pub(crate) fn prepare_samples(
        &mut self,
        index: u64,
        engine_hits: u64,
        model_hits: u64,
        samples: Vec<(bool, u64)>,
    ) {
        if engine_hits == model_hits {
            for (hit, ns) in samples {
                let metric = if hit {
                    "query.prepare.hit_us"
                } else {
                    "query.prepare.miss_us"
                };
                self.sample(metric, ns);
            }
        } else if self.tracer.enabled() && self.notes.len() < 8 {
            self.notes.push(format!(
                "pass {index}: plan-cache model predicted {model_hits} hits, the engine \
                 counted {engine_hits}; prepare timings of this pass dropped"
            ));
        }
    }

    /// Whole-run engine counters, and the query-log check: the log must
    /// have recorded every query the benchmark issued.
    pub(crate) fn engine_counters(
        &mut self,
        engine: &query::Engine,
        issued: u64,
        out: &mut BTreeMap<&'static str, f64>,
    ) {
        let log = engine.querylog();
        self.outcome(log.total_recorded() == issued, || {
            format!(
                "query log recorded {} queries, the benchmark issued {issued}",
                log.total_recorded()
            )
        });
        out.insert("obs.querylog.recorded", log.total_recorded() as f64);
        out.insert("obs.querylog.dropped", log.dropped() as f64);
        out.insert(
            "exec.opcache.evictions",
            engine.op_cache().evictions() as f64,
        );
    }

    fn samples(&self, metric: &str) -> &[f64] {
        self.samples.get(metric).map_or(&[], Vec::as_slice)
    }
}

/// The engine's plan-cache capacity, mirrored by [`PlanCacheModel`].
const PLAN_CACHE_CAP: usize = 16;

/// The bench's model of the engine's MRU plan cache, used only to label
/// prepare timings.
#[derive(Default)]
pub(crate) struct PlanCacheModel {
    mru: Vec<String>,
}

impl PlanCacheModel {
    /// Would `sql` hit? Updates the model like the engine updates itself.
    pub(crate) fn touch(&mut self, sql: &str) -> bool {
        if let Some(i) = self.mru.iter().position(|k| k == sql) {
            let k = self.mru.remove(i);
            self.mru.insert(0, k);
            true
        } else {
            self.mru.insert(0, sql.to_string());
            self.mru.truncate(PLAN_CACHE_CAP);
            false
        }
    }
}

/// A workload [`drive`] can run.
pub(crate) trait Bench: Sized {
    /// Build the workload's state, inside a traced `setup` root span.
    /// Returns the state and the host nanoseconds spent generating the
    /// inputs and registering them with the program.
    fn setup(cfg: &Config, run: &mut RunState) -> Result<(Self, u64, u64), String>;

    /// Untimed preparation for pass `index` (a fresh store, say).
    fn begin_pass(&mut self, _index: u64, _run: &mut RunState) -> Result<(), String> {
        Ok(())
    }

    /// Run pass `index` (0 is the warm-up pass); `host_ns` is filled in
    /// by [`drive`].
    fn pass(&mut self, index: u64, run: &mut RunState) -> Result<Pass, String>;

    /// Timed passes from index `*next` on, until the passes have taken
    /// `budget_s` seconds of wall-clock time; at least one pass. The
    /// budget is wall-clock time so that a run lasts as long on a busy
    /// host as on a quiet one; each pass is measured on the CPU clock.
    fn phase(
        &mut self,
        run: &mut RunState,
        next: &mut u64,
        budget_s: f64,
    ) -> Result<Phase, String> {
        let mut passes = Vec::new();
        let mut spent_s = 0.0;
        while passes.is_empty() || spent_s < budget_s {
            self.begin_pass(*next, run)?;
            let wall0 = std::time::Instant::now();
            let t0 = Instant::now();
            let mut p = self.pass(*next, run)?;
            p.host_ns = elapsed_ns(t0);
            spent_s += wall0.elapsed().as_secs_f64();
            passes.push(p);
            *next += 1;
        }
        let sim_lines = passes.iter().map(|p| p.sim.sim_lines()).sum();
        Ok(Phase { passes, sim_lines })
    }

    /// Whole-run counters and end-of-run checks.
    fn finish(&self, run: &mut RunState, out: &mut BTreeMap<&'static str, f64>);
}

/// What a run measured.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics this run reports, in catalogue order.
    pub metrics: Vec<(String, &'static str, f64)>,
    pub notes: Vec<String>,
    /// The first timed pass's simulated work (repeats exactly).
    pub tally: SimTally,
    pub sim_ms: f64,
    pub tracer: Tracer,
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload {
        Workload::ScanCold => drive::<scan_cold::ScanCold>(cfg),
        Workload::DashboardHot => drive::<dashboard_hot::DashboardHot>(cfg),
        Workload::HtapDurable => drive::<htap_durable::HtapDurable>(cfg),
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The quantile of the per-pass rates a run reports. The host's speed
/// toggles, for seconds at a time, between levels up to 1.5x apart (a
/// busy neighbour on the physical core, which the thread's CPU clock
/// still counts), so the median pass flips between the levels from run to
/// run. Every pass does the same work, so the faster passes are the ones
/// least disturbed, and a program change moves them like every other.
const RATE_QUANTILE: f64 = 0.9;

fn per_pass_rate(passes: &[Pass], work: impl Fn(&Pass) -> f64) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| work(p) / (p.host_ns.max(1) as f64 / 1e9))
        .collect();
    quantile(&rates, RATE_QUANTILE)
}

fn drive<B: Bench>(cfg: &Config) -> Result<Report, String> {
    let mut run = RunState::new(cfg.trace);
    let (mut setup_s, mut gen_s, mut reg_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut bench = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(bench.take());
        let t0 = Instant::now();
        let (b, gen_ns, reg_ns) = B::setup(cfg, &mut run)?;
        setup_s.push(elapsed_ns(t0) as f64 / 1e9);
        gen_s.push(gen_ns as f64 / 1e9);
        reg_s.push(reg_ns as f64 / 1e9);
        bench = Some(b);
    }
    let mut b = bench.ok_or("no set-up ran")?;

    // Warm-up pass, then the timed passes. Tracing is off while the
    // end-to-end figures are measured.
    run.tracer.set_enabled(false);
    b.begin_pass(0, &mut run)?;
    b.pass(0, &mut run)?;
    let untraced_budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    run.keep_latencies = true;
    // The first timed pass runs alone: its simulated work is the exact
    // figure reported, and the peak RSS is read after it, so neither
    // depends on how many passes the host's speed allows.
    b.begin_pass(1, &mut run)?;
    let wall0 = std::time::Instant::now();
    let t0 = Instant::now();
    let mut first = b.pass(1, &mut run)?;
    first.host_ns = elapsed_ns(t0);
    let rest_budget = untraced_budget - wall0.elapsed().as_secs_f64();
    let peak_rss_mb = stats::peak_rss_mb()?;
    let mut next = 2;
    let rest = b.phase(&mut run, &mut next, rest_budget)?;
    run.keep_latencies = false;
    let traced = if cfg.trace {
        run.tracer.set_enabled(true);
        let t = b.phase(&mut run, &mut next, cfg.seconds / 2.0)?;
        run.tracer.set_enabled(false);
        t.passes
    } else {
        Vec::new()
    };

    let mut extra = BTreeMap::new();
    b.finish(&mut run, &mut extra);

    let sim_ms = fabric_sim::SimConfig::zynq_a53().cycles_to_ns(first.sim.cycles) / 1e6;
    let sim_lines = first.sim.sim_lines() + rest.sim_lines;
    let tally = first.sim.clone();
    let mut untraced = rest.passes;
    untraced.push(first);
    let qps = per_pass_rate(&untraced, |p| p.queries as f64);
    // Simulated lines per query over the untraced passes, at the reported
    // query rate.
    let queries: u64 = untraced.iter().map(|p| p.queries).sum();
    let lines_per_s = sim_lines as f64 / queries.max(1) as f64 * qps;
    let mut lat = std::mem::take(&mut run.latencies);
    let (p50_ms, p90_ms) = (
        stats::quantile_ns(&mut lat, 0.5) / 1e6,
        stats::quantile_ns(&mut lat, 0.9) / 1e6,
    );
    drop(lat);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    put("setup_s", median(&setup_s));
    put("queries_per_s", qps);
    put("query_p50_ms", p50_ms);
    put("query_p90_ms", p90_ms);
    put("sim_lines_per_s", lines_per_s);
    put("peak_rss_mb", peak_rss_mb);
    put("sim_ms", sim_ms);

    put("failed_frac", ratio(run.failed, run.attempted));
    put("workload.generate_s", median(&gen_s));
    put("engine.register_s", median(&reg_s));
    for (metric, sample, q) in [
        ("query.prepare.miss_us_p50", "query.prepare.miss_us", 0.5),
        ("query.prepare.hit_us_p50", "query.prepare.hit_us", 0.5),
        ("exec.row.cold_ms_p50", "exec.row.cold_ms", 0.5),
        ("exec.col.cold_ms_p50", "exec.col.cold_ms", 0.5),
        ("exec.rm.cold_ms_p50", "exec.rm.cold_ms", 0.5),
        ("exec.hit_us_p50", "exec.hit_us", 0.5),
        ("exec.hit_us_p90", "exec.hit_us", 0.9),
        ("mvcc.read_us_p50", "mvcc.read_us", 0.5),
        ("mvcc.commit_us_p50", "mvcc.commit_us", 0.5),
        ("mvcc.commit_us_p90", "mvcc.commit_us", 0.9),
        (
            "durability.checkpoint_ms_p50",
            "durability.checkpoint_ms",
            0.5,
        ),
        ("mvcc.rm_scan_ms_p50", "mvcc.rm_scan_ms", 0.5),
        ("mvcc.sw_scan_ms_p50", "mvcc.sw_scan_ms", 0.5),
    ] {
        put(metric, quantile(run.samples(sample), q));
    }
    let t = &tally;
    let c = |n: &str| t.get(n);
    put(
        "query.plan_cache.hit_ratio",
        ratio(
            c("plan_cache.hits"),
            c("plan_cache.hits") + c("plan_cache.misses"),
        ),
    );
    put(
        "exec.scratch.reuse_ratio",
        ratio(
            c("scratch.reuses"),
            c("scratch.reuses") + c("scratch.allocs"),
        ),
    );
    put(
        "exec.opcache.hit_ratio",
        ratio(c("opcache.hits"), c("opcache.hits") + c("opcache.misses")),
    );
    put(
        "sim.host_ns_per_line",
        1e9 / lines_per_s.max(f64::MIN_POSITIVE),
    );
    put("sim.line_accesses", t.mem.line_accesses as f64);
    put(
        "sim.l1_hit_ratio",
        ratio(t.mem.l1_hits, t.mem.line_accesses),
    );
    put(
        "sim.l2_hit_ratio",
        ratio(t.mem.l2_hits, t.mem.line_accesses),
    );
    put(
        "sim.prefetch_hit_ratio",
        ratio(t.mem.prefetch_hits, t.mem.line_accesses),
    );
    put("sim.demand_misses", t.mem.demand_misses as f64);
    put("sim.bytes_read", t.mem.bytes_read as f64);
    put("sim.bytes_written", t.mem.bytes_written as f64);
    for (name, v) in [
        "td.retired",
        "td.mem_l1",
        "td.mem_l2",
        "td.mem_dram",
        "td.mem_rm_device",
        "td.bw_wait",
        "td.fault_retry",
        "td.idle",
    ]
    .into_iter()
    .zip(t.td)
    {
        put(name, v as f64);
    }
    put("rm.source_lines", t.rm_source_lines as f64);
    put("rm.output_lines", t.rm_output_lines as f64);
    put(
        "rm.output_per_source",
        ratio(t.rm_output_lines, t.rm_source_lines),
    );
    put("rm.batches", t.rm_batches as f64);
    put(
        "durability.wal_bytes_per_user_byte",
        ratio(c("wal.bytes"), c("wal.user_bytes")),
    );
    put("durability.checkpoint_pages", c("checkpoint.pages") as f64);
    put(
        "mvcc.visible_ratio",
        ratio(c("scan.visible_rows"), c("scan.versions")),
    );
    put(
        "trace.overhead_pct",
        if traced.is_empty() {
            0.0
        } else {
            let traced_qps = per_pass_rate(&traced, |p| p.queries as f64);
            (qps / traced_qps - 1.0) * 100.0
        },
    );
    let self_ns = run.tracer.self_ns();
    let ops = run.tracer.roots_named("op").max(1) as f64;
    for s in SELF_SPANS {
        let ns = self_ns.get(s).copied().unwrap_or(0) as f64;
        put(&format!("self.{s}_us_per_op"), ns / 1e3 / ops);
    }
    for (k, v) in extra {
        put(k, v);
    }

    let catalogue: Vec<(String, &'static str)> = if cfg.trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let v = *values
            .get(&name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push((name, unit, v));
    }
    Ok(Report {
        correct: run.failed == 0,
        attempted: run.attempted,
        failed: run.failed,
        metrics,
        notes: run.notes,
        tally,
        sim_ms,
        tracer: run.tracer,
    })
}

/// The seed of pass `index`'s inputs: a function of the run's seed and
/// the pass index only, so a pass's work never depends on timing.
pub(crate) fn pass_seed(seed: u64, index: u64) -> u64 {
    seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Relative comparison with the tolerance the repository's tests use.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0)
}

/// Do two result sets agree: integers and strings exactly, floats within
/// [`close`]?
pub(crate) fn rows_agree(a: &[Vec<fabric_types::Value>], b: &[Vec<fabric_types::Value>]) -> bool {
    use fabric_types::Value;
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                    (Value::F64(x), Value::F64(y)) => close(*x, *y),
                    _ => x == y,
                })
        })
}
