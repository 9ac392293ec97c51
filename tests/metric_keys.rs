//! Pinned metric names. Metric keys are built at run time (`format_args!`
//! into the registry's reusable key buffer, scoped prefixes, top-down
//! bucket names), so a rename would compile cleanly and only show up as
//! a silent break in every consumer that reads the snapshot: the perf
//! gate's baselines, the benchmark's per-layer metrics, dashboards. These
//! tests pin the exact key set a fixed query sequence produces on a
//! 2-core engine.

use fabric_sim::{MetricsSnapshot, SimConfig};
use query::{AccessPath, Engine};
use workload::Lineitem;

const ROWS: usize = 2_000;
const DATA_SEED: u64 = 0x9A5_5EED;
const Q6: &str = "SELECT sum(l_extendedprice * l_discount) FROM lineitem WHERE l_quantity < 24";

fn engine() -> Engine {
    let mut e = Engine::with_cores(SimConfig::zynq_a53(), 2);
    let li = Lineitem::generate(e.mem(), ROWS, DATA_SEED).expect("lineitem generates");
    e.register("lineitem", li.rows, li.cols);
    e
}

/// Compare one section of a snapshot's key set against its pin, naming
/// every missing and every unexpected key.
fn assert_keys<V>(section: &str, got: &std::collections::BTreeMap<String, V>, pinned: &[&str]) {
    let got: Vec<&str> = got.keys().map(String::as_str).collect();
    let missing: Vec<&&str> = pinned.iter().filter(|k| !got.contains(k)).collect();
    let extra: Vec<&&str> = got.iter().filter(|k| !pinned.contains(k)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{section} keys moved: missing {missing:?}, unexpected {extra:?}"
    );
    assert_eq!(got.len(), pinned.len(), "{section}: duplicate pins");
}

fn assert_snapshot_keys(
    snap: &MetricsSnapshot,
    counters: &[&str],
    gauges: &[&str],
    hists: &[&str],
) {
    assert_keys("counter", &snap.counters, counters);
    assert_keys("gauge", &snap.gauges, gauges);
    assert_keys("histogram", &snap.histograms, hists);
}

/// One cold query and one op-cache hit: the per-core attribution and
/// top-down counters, the per-class cold/hit/headline gauges, the
/// calibration gauges and the session scope.
#[test]
fn cold_run_and_hit_produce_the_pinned_keys() {
    let mut e = engine();
    let mut s = e.session();
    assert_eq!(s.id(), 1, "the session scope pinned below is session.1");
    let cold = s.run(Q6).expect("cold run");
    let hit = s.run(Q6).expect("hit");
    assert!(
        !cold.cache_hit && hit.cache_hit,
        "expected a cold run, then a hit"
    );
    drop(s);
    let snap = e.mem_ref().metrics().snapshot();
    assert_snapshot_keys(&snap, HIT_COUNTERS, HIT_GAUGES, HIT_HISTOGRAMS);
}

/// An RM run and an EXPLAIN ANALYZE over all three paths: the RM device
/// counters and the per-path, per-operator estimate-error gauges.
#[test]
fn rm_run_and_explain_analyze_produce_the_pinned_keys() {
    let mut e = engine();
    let mut s = e.session();
    let rm = s.run_on(Q6, AccessPath::Rm).expect("RM run");
    assert!(rm.rm_stats.is_some(), "the RM run must report device stats");
    s.explain_analyze(Q6).expect("explain analyze");
    drop(s);
    let snap = e.mem_ref().metrics().snapshot();
    assert_snapshot_keys(&snap, RM_COUNTERS, RM_GAUGES, RM_HISTOGRAMS);
}

const HIT_COUNTERS: &[&str] = &[
    "calib.observations",
    "query.core0.busy_cycles",
    "query.core0.bytes_read",
    "query.core0.idle_cycles",
    "query.core0.td.elapsed",
    "query.core0.td.mem.dram",
    "query.core0.td.mem.l1",
    "query.core0.td.mem.l2",
    "query.core0.td.mem.rm_device",
    "query.core0.td.retired",
    "query.core0.td.stall.bw",
    "query.core0.td.stall.idle",
    "query.core0.td.stall.retry",
    "query.core1.busy_cycles",
    "query.core1.bytes_read",
    "query.core1.idle_cycles",
    "query.core1.td.elapsed",
    "query.core1.td.mem.dram",
    "query.core1.td.mem.l1",
    "query.core1.td.mem.l2",
    "query.core1.td.mem.rm_device",
    "query.core1.td.retired",
    "query.core1.td.stall.bw",
    "query.core1.td.stall.idle",
    "query.core1.td.stall.retry",
    "query.executions",
    "query.op.aggregate.invocations",
    "query.op.aggregate.rows_in",
    "query.op.aggregate.rows_out",
    "query.op.filter.invocations",
    "query.op.filter.rows_in",
    "query.op.filter.rows_out",
    "query.op.merge.invocations",
    "query.op.merge.rows_in",
    "query.op.merge.rows_out",
    "query.op.scan_col.invocations",
    "query.op.scan_col.rows_in",
    "query.op.scan_col.rows_out",
    "query.opcache.evictions",
    "query.opcache.hits",
    "query.opcache.insertions",
    "query.opcache.misses",
    "query.path.col",
    "query.plan_cache.hits",
    "query.plan_cache.misses",
    "query.rows_out",
    "querylog.records",
    "session.1.queries",
];

const HIT_GAUGES: &[&str] = &[
    "calib.lineitem/84ba13c0/col.ewma_rel_err_bytes",
    "calib.lineitem/84ba13c0/col.ewma_rel_err_ns",
    "calib.lineitem/84ba13c0/col.mean_rel_err_bytes",
    "calib.lineitem/84ba13c0/col.mean_rel_err_ns",
    "calib.lineitem/84ba13c0/col.runs",
    "query.class.q6.cold.p50_cycles",
    "query.class.q6.cold.p95_cycles",
    "query.class.q6.cold.p99_cycles",
    "query.class.q6.hit.p50_cycles",
    "query.class.q6.hit.p95_cycles",
    "query.class.q6.hit.p99_cycles",
    "query.class.q6.p50_cycles",
    "query.class.q6.p95_cycles",
    "query.class.q6.p99_cycles",
    "query.opcache.bytes",
    "query.opcache.entries",
    "query.scratchpad.hwm_bytes",
];

const HIT_HISTOGRAMS: &[&str] = &[
    "query.class.q6.cold.latency_cycles",
    "query.class.q6.hit.latency_cycles",
    "query.class.q6.latency_cycles",
    "query.exec_cycles",
    "session.1.latency.q6",
];

const RM_COUNTERS: &[&str] = &[
    "calib.observations",
    "explain.analyze_runs",
    "query.core0.busy_cycles",
    "query.core0.bytes_read",
    "query.core0.idle_cycles",
    "query.core0.td.elapsed",
    "query.core0.td.mem.dram",
    "query.core0.td.mem.l1",
    "query.core0.td.mem.l2",
    "query.core0.td.mem.rm_device",
    "query.core0.td.retired",
    "query.core0.td.stall.bw",
    "query.core0.td.stall.idle",
    "query.core0.td.stall.retry",
    "query.core1.busy_cycles",
    "query.core1.bytes_read",
    "query.core1.idle_cycles",
    "query.core1.td.elapsed",
    "query.core1.td.mem.dram",
    "query.core1.td.mem.l1",
    "query.core1.td.mem.l2",
    "query.core1.td.mem.rm_device",
    "query.core1.td.retired",
    "query.core1.td.stall.bw",
    "query.core1.td.stall.idle",
    "query.core1.td.stall.retry",
    "query.executions",
    "query.op.aggregate.invocations",
    "query.op.aggregate.rows_in",
    "query.op.aggregate.rows_out",
    "query.op.filter.invocations",
    "query.op.filter.rows_in",
    "query.op.filter.rows_out",
    "query.op.merge.invocations",
    "query.op.merge.rows_in",
    "query.op.merge.rows_out",
    "query.op.scan_col.invocations",
    "query.op.scan_col.rows_in",
    "query.op.scan_col.rows_out",
    "query.op.scan_rm.invocations",
    "query.op.scan_rm.rows_in",
    "query.op.scan_rm.rows_out",
    "query.op.scan_row.invocations",
    "query.op.scan_row.rows_in",
    "query.op.scan_row.rows_out",
    "query.opcache.evictions",
    "query.opcache.insertions",
    "query.opcache.misses",
    "query.path.col",
    "query.path.rm",
    "query.path.row",
    "query.plan_cache.hits",
    "query.plan_cache.misses",
    "query.rm.batches",
    "query.rm.configures",
    "query.rm.crc_failures",
    "query.rm.delivery_timeouts",
    "query.rm.injected_faults",
    "query.rm.output_lines",
    "query.rm.retries",
    "query.rm.rows_emitted",
    "query.rm.rows_scanned",
    "query.rm.source_lines",
    "query.rows_out",
    "querylog.records",
    "session.1.queries",
];

const RM_GAUGES: &[&str] = &[
    "calib.lineitem/84ba13c0/col.ewma_rel_err_bytes",
    "calib.lineitem/84ba13c0/col.ewma_rel_err_ns",
    "calib.lineitem/84ba13c0/col.mean_rel_err_bytes",
    "calib.lineitem/84ba13c0/col.mean_rel_err_ns",
    "calib.lineitem/84ba13c0/col.runs",
    "calib.lineitem/84ba13c0/rm.ewma_rel_err_bytes",
    "calib.lineitem/84ba13c0/rm.ewma_rel_err_ns",
    "calib.lineitem/84ba13c0/rm.mean_rel_err_bytes",
    "calib.lineitem/84ba13c0/rm.mean_rel_err_ns",
    "calib.lineitem/84ba13c0/rm.runs",
    "calib.lineitem/84ba13c0/row.ewma_rel_err_bytes",
    "calib.lineitem/84ba13c0/row.ewma_rel_err_ns",
    "calib.lineitem/84ba13c0/row.mean_rel_err_bytes",
    "calib.lineitem/84ba13c0/row.mean_rel_err_ns",
    "calib.lineitem/84ba13c0/row.runs",
    "explain.op_rel_err_pct.ns.col.aggregate",
    "explain.op_rel_err_pct.ns.col.filter",
    "explain.op_rel_err_pct.ns.col.scan_col",
    "explain.op_rel_err_pct.ns.rm.aggregate",
    "explain.op_rel_err_pct.ns.rm.filter",
    "explain.op_rel_err_pct.ns.rm.scan_rm",
    "explain.op_rel_err_pct.ns.row.aggregate",
    "explain.op_rel_err_pct.ns.row.filter",
    "explain.op_rel_err_pct.ns.row.scan_row",
    "explain.rel_err_pct.bytes.col",
    "explain.rel_err_pct.bytes.rm",
    "explain.rel_err_pct.bytes.row",
    "explain.rel_err_pct.ns.col",
    "explain.rel_err_pct.ns.rm",
    "explain.rel_err_pct.ns.row",
    "query.class.q6.cold.p50_cycles",
    "query.class.q6.cold.p95_cycles",
    "query.class.q6.cold.p99_cycles",
    "query.class.q6.p50_cycles",
    "query.class.q6.p95_cycles",
    "query.class.q6.p99_cycles",
    "query.opcache.bytes",
    "query.opcache.entries",
    "query.scratchpad.hwm_bytes",
];

const RM_HISTOGRAMS: &[&str] = &[
    "query.class.q6.cold.latency_cycles",
    "query.class.q6.latency_cycles",
    "query.exec_cycles",
    "session.1.latency.q6",
];
