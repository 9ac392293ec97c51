//! Top-down cycle accounting and flight-recorder postmortems, end to end
//! (DESIGN.md §12).
//!
//! The hard invariant: every simulated cycle of a query window is
//! classified into exactly one leaf bucket (retired / mem.{l1,l2,dram,
//! rm_device} / stall.{bw,retry,idle}), so the buckets sum to the elapsed
//! window on every access path, at every core count, with or without
//! injected faults. Postmortems are pure functions of simulated state, so
//! same-seed reruns must produce byte-identical artifacts.
//!
//! The grid is environment-tunable like the chaos suite:
//!
//! ```text
//! FABRIC_PAR_CORES=1,2,4,8 FABRIC_CHAOS_SEED=12345 \
//!     cargo test --test topdown_accounting
//! ```

use fabric_sim::{
    parse_json, validate_chrome_trace, FaultConfig, Json, Postmortem, RecoveryPolicy, SimConfig,
};
use fabric_types::{ColumnType, Schema, Value};
use query::{AccessPath, Engine, FaultContext, QueryOutput};
use rowstore::RowTable;
use workload::Lineitem;

const ROWS: usize = 20_000;
const DATA_SEED: u64 = 0x9A5_5EED;
const DEFAULT_SEED: u64 = 0xFA_B51C;

/// TPC-H Q1: grouped f64 aggregates over most of the table — touches
/// every layer (scan, predicate, grouping) on all three access paths.
const Q1: &str = "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
                  sum(l_extendedprice * (1 - l_discount)), avg(l_quantity), count(*) \
                  FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
                  GROUP BY l_returnflag, l_linestatus";

fn seed() -> u64 {
    std::env::var("FABRIC_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

/// Core counts under test; override with `FABRIC_PAR_CORES=1,2,4,8`.
fn core_grid() -> Vec<usize> {
    std::env::var("FABRIC_PAR_CORES")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&n| n >= 1)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

fn engine(cores: usize) -> Engine {
    let mut e = Engine::with_cores(SimConfig::zynq_a53(), cores);
    let li = Lineitem::generate(e.mem(), ROWS, DATA_SEED).unwrap();
    e.register("lineitem", li.rows, li.cols);
    e
}

/// Wide rows-only table the optimizer routes to RM (16 × i64) — the shape
/// the flight-recorder chaos runs use so every query exercises the
/// fault-injected device path.
fn rm_engine() -> Engine {
    let mut engine = Engine::new(SimConfig::zynq_a53());
    let names: Vec<(String, ColumnType)> = (0..16)
        .map(|i| (format!("c{i}"), ColumnType::I64))
        .collect();
    let pairs: Vec<(&str, ColumnType)> = names.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pairs);
    let mut rt = RowTable::create(engine.mem(), schema, 4_096).unwrap();
    for i in 0..4_096i64 {
        let row: Vec<Value> = (0..16).map(|j| Value::I64(i * 16 + j)).collect();
        rt.load(engine.mem(), &row).unwrap();
    }
    engine.register_rows("t", rt);
    engine
}

const RM_SQL: &str = "SELECT c0, c5 FROM t WHERE c0 < 1000000";

/// A dead device: every delivery times out, so every RM-routed query
/// either retries to exhaustion and degrades or is skipped by the open
/// circuit breaker — guaranteed postmortems, independent of the seed.
fn dead_device(sweep_seed: u64) -> FaultConfig {
    FaultConfig {
        rm_timeout_prob: 1.0,
        ..FaultConfig::quiet(sweep_seed)
    }
}

/// Every delivered batch fails its CRC32 frame check.
fn corrupting_device(sweep_seed: u64) -> FaultConfig {
    FaultConfig {
        rm_corrupt_prob: 1.0,
        ..FaultConfig::quiet(sweep_seed)
    }
}

/// The full reconciliation contract between the per-core attribution
/// table and the top-down breakdown built from the same clocks:
///
/// * every core's eight buckets sum exactly to its elapsed window;
/// * every core closes the same window (the global clock advance);
/// * the taxonomy refines — not re-measures — the coarse attribution:
///   `retired == cpu`, `mem.l1 + mem.l2 == mem_lat`, and the four stall
///   buckets partition `stall_cycles` exactly.
fn assert_topdown_reconciles(out: &QueryOutput, cores: usize, ctx: &str) {
    out.topdown
        .verify()
        .unwrap_or_else(|why| panic!("{ctx}: {why}"));
    assert_eq!(
        out.topdown.cores.len(),
        cores,
        "{ctx}: one breakdown per core"
    );
    assert_eq!(
        out.cores.len(),
        cores,
        "{ctx}: one attribution row per core"
    );
    let elapsed = out
        .cores
        .iter()
        .map(|a| a.busy_cycles + a.idle_cycles)
        .max()
        .unwrap_or(0);
    for (td, a) in out.topdown.cores.iter().zip(&out.cores) {
        assert_eq!(td.core, a.core, "{ctx}: breakdown/attribution order");
        let sum: u64 = td.buckets().iter().map(|&(_, v)| v).sum();
        assert_eq!(
            sum, td.elapsed,
            "{ctx}: core {} buckets must sum to elapsed",
            td.core
        );
        assert_eq!(
            td.elapsed, elapsed,
            "{ctx}: core {} must close the query window",
            td.core
        );
        assert_eq!(td.retired, a.cpu_cycles, "{ctx}: retired == cpu");
        assert_eq!(td.idle, a.idle_cycles, "{ctx}: idle bucket == idle wait");
        assert_eq!(
            td.mem_l1 + td.mem_l2,
            a.mem_lat_cycles,
            "{ctx}: L1+L2 latency must partition mem_lat"
        );
        assert_eq!(
            td.mem_dram + td.mem_rm_device + td.bw_wait + td.fault_retry,
            a.stall_cycles,
            "{ctx}: dram+device+bw+retry must partition stall_cycles"
        );
    }
}

#[test]
fn buckets_sum_to_elapsed_on_every_path_and_core_count() {
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        for &cores in &core_grid() {
            let mut e = engine(cores);
            let out = e.session().run_on(Q1, path).unwrap();
            assert_topdown_reconciles(&out, cores, &format!("{path:?} {cores}c"));
            // The breakdown is exported into the metrics registry too.
            let snap = e.mem_ref().metrics().snapshot().to_json();
            for key in ["query.core0.td.retired", "query.core0.td.elapsed"] {
                assert!(
                    snap.contains(key),
                    "{path:?} {cores}c: snapshot lacks {key}"
                );
            }
        }
    }
}

#[test]
fn chaos_seeded_faulty_runs_still_reconcile_exactly() {
    let s = seed();
    let stormy = || FaultConfig {
        rm_stall_prob: 0.3,
        rm_stall_ns: 2_500.0,
        rm_timeout_prob: 0.3,
        rm_corrupt_prob: 0.3,
        ..FaultConfig::quiet(s)
    };
    for &cores in &core_grid() {
        let mut e = engine(cores);
        e.set_fault_context(FaultContext::new(stormy(), RecoveryPolicy::default()));
        let out = e.session().run_on(Q1, AccessPath::Rm).unwrap();
        assert_topdown_reconciles(&out, cores, &format!("chaos {cores}c (seed {s})"));
    }
}

/// The bugfix regression: when the RM path degrades mid-query, nothing is
/// silently dropped — the failed attempt's `rm_stats` fault counters stay
/// on the output, the retry backoff shows up in the `stall.retry` bucket,
/// and the accounting still reconciles to the cycle.
#[test]
fn attribution_reconciles_and_keeps_fault_counters_under_degradation() {
    let s = seed();
    let mut e = rm_engine();
    e.set_fault_context(FaultContext::new(dead_device(s), RecoveryPolicy::default()));
    let out = e.session().run_on(RM_SQL, AccessPath::Rm).unwrap();
    assert_eq!(
        out.degraded_from,
        Some(AccessPath::Rm),
        "a dead device must degrade the first query (seed {s})"
    );
    let rm = out
        .rm_stats
        .as_ref()
        .expect("degraded output must keep the failed RM attempt's stats");
    assert!(rm.injected_faults > 0, "fault counters dropped: {rm:?}");
    assert!(rm.delivery_timeouts > 0, "timeout counters dropped: {rm:?}");
    assert_topdown_reconciles(&out, 1, &format!("degraded (seed {s})"));
    let retry: u64 = out.topdown.cores.iter().map(|c| c.fault_retry).sum();
    assert!(
        retry > 0,
        "retry backoff must be attributed to the stall.retry bucket"
    );
}

/// Drive a chaos-seeded sweep and drain the postmortems it dumped.
fn postmortem_run(cfg: FaultConfig, queries: usize) -> (Vec<Postmortem>, String) {
    let mut e = rm_engine();
    e.set_fault_context(FaultContext::new(cfg, RecoveryPolicy::default()));
    for _ in 0..queries {
        e.session().run(RM_SQL).expect("resilient");
    }
    let snap = e.mem_ref().metrics().snapshot().to_json();
    (e.mem().take_postmortems(), snap)
}

#[test]
fn degraded_runs_dump_validator_clean_postmortems() {
    let (pms, snap) = postmortem_run(dead_device(seed()), 8);
    assert!(!pms.is_empty(), "dead-device sweep produced no postmortems");
    for pm in &pms {
        assert!(
            pm.reason == "degraded" || pm.reason == "breaker-open",
            "unexpected trigger {:?}",
            pm.reason
        );
        // The embedded trace stands alone as a valid Chrome trace, and the
        // combined artifact is parser-grade JSON.
        validate_chrome_trace(&pm.trace).expect("postmortem trace validates");
        let doc = parse_json(&pm.to_json()).expect("postmortem artifact parses");
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some(pm.reason),
            "artifact must carry its trigger"
        );
        parse_json(&pm.metrics_delta).expect("metrics delta parses");
    }
    // The dead device's timeouts appear on at least one fault timeline.
    assert!(
        pms.iter().any(|pm| {
            parse_json(&pm.fault_timeline)
                .ok()
                .and_then(|doc| doc.as_arr().map(|a| !a.is_empty()))
                .unwrap_or(false)
        }),
        "no postmortem captured the fault timeline"
    );
    // Dumps are counted in the registry; the breaker-skip counter — the
    // silently-dropped field this PR fixes — is recorded there too.
    assert!(snap.contains("\"flight.dumps\""), "flight.dumps missing");
    assert!(
        snap.contains("\"query.breaker_skips\""),
        "breaker skips must reach the metrics registry, not just the trace"
    );
    assert!(
        pms.iter().any(|pm| pm.reason == "breaker-open"),
        "8 dead-device queries must trip the circuit breaker"
    );
}

/// A degraded RM query's postmortem reports the metrics delta of that
/// query alone: exactly the delta from a snapshot taken just before the
/// query to the registry's state at the dump. Between the flight
/// recorder's arm and the dump, a breaker-open query moves only the skip
/// counter (created by the first skip, advanced by later ones), and a
/// dead device's failed attempt invokes no operator, so moves nothing.
#[test]
fn postmortem_delta_matches_a_snapshot_taken_before_the_query() {
    let s = seed();
    let mut e = rm_engine();
    e.set_fault_context(FaultContext::new(dead_device(s), RecoveryPolicy::default()));
    let prepared = e.session().prepare(RM_SQL).expect("prepares");
    let (mut degraded, mut skipped) = (0, 0);
    for q in 0..8 {
        let before = e.mem_ref().metrics().snapshot();
        let out = e
            .session()
            .execute_on(&prepared, AccessPath::Rm)
            .expect("resilient");
        assert_eq!(
            out.degraded_from,
            Some(AccessPath::Rm),
            "query {q} (seed {s})"
        );
        let pms = e.mem().take_postmortems();
        assert_eq!(
            pms.len(),
            1,
            "query {q}: one dump per degraded query (seed {s})"
        );
        let mut at_dump = before.clone();
        match pms[0].reason {
            "breaker-open" => {
                skipped += 1;
                *at_dump
                    .counters
                    .entry("query.breaker_skips".to_string())
                    .or_default() += 1;
            }
            "degraded" => degraded += 1,
            other => panic!("query {q}: unexpected trigger {other:?} (seed {s})"),
        }
        assert_eq!(
            pms[0].metrics_delta,
            at_dump.delta_since(&before).to_json(),
            "query {q} (seed {s})"
        );
    }
    assert!(
        degraded > 0 && skipped > 1,
        "{degraded} degraded, {skipped} skipped (seed {s})"
    );
}

#[test]
fn crc_failures_dump_their_own_postmortems() {
    let (pms, _) = postmortem_run(corrupting_device(seed()), 2);
    assert!(
        pms.iter().any(|pm| pm.reason == "crc-failure"),
        "corrupting device must trigger crc-failure dumps: {:?}",
        pms.iter().map(|p| p.reason).collect::<Vec<_>>()
    );
}

#[test]
fn same_seed_reruns_produce_bit_identical_postmortems() {
    let s = seed();
    let run = || {
        let (pms, _) = postmortem_run(dead_device(s), 8);
        pms.iter().map(Postmortem::to_json).collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "run is vacuous (seed {s})");
    assert_eq!(
        a, b,
        "postmortems must be byte-deterministic for one seed (seed {s})"
    );
}
