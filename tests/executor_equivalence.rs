//! The staged executor's contracts, end to end: across every access
//! path, core count, chaos seed, and operator-cache temperature, a
//! query's answer is **bit-identical**; an op-cache hit replays the
//! memoized stage output without touching the hierarchy; and the
//! per-session scratchpad recycles morsel buffers across queries without
//! ever aliasing a live one (buffer epochs make aliasing a panic, reuse
//! counters make recycling observable).
//!
//! The grid is environment-tunable like the chaos suite:
//!
//! ```text
//! FABRIC_PAR_CORES=1,2,4,8 FABRIC_CHAOS_SEED=12345 \
//!     cargo test --test executor_equivalence
//! ```

use fabric_sim::{FaultConfig, RecoveryPolicy, SimConfig};
use fabric_types::Value;
use query::{AccessPath, Engine, FaultContext};
use workload::Lineitem;

const ROWS: usize = 20_000;
const DATA_SEED: u64 = 0x9A5_5EED;
const DEFAULT_SEED: u64 = 0xFA_B51C;

/// Q1's grouped f64 aggregates pin the fold shape; Q6's conjunctive
/// range filter pins the branch-free predicate kernels; the projection
/// query pins ORDER BY/LIMIT post-processing on top of a shared cache
/// entry.
const QUERIES: &[&str] = &[
    "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
     sum(l_extendedprice * (1 - l_discount)), avg(l_quantity), count(*) \
     FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
     GROUP BY l_returnflag, l_linestatus",
    "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
     WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
     AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24",
    "SELECT l_orderkey, l_extendedprice FROM lineitem \
     WHERE l_quantity < 5 ORDER BY 2 DESC LIMIT 10",
];

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

/// The tentpole grid: (path × cores × cache temperature). The cold run
/// earns the answer through the hierarchy; the warm run must replay the
/// identical rows from the op cache with **zero** hierarchy traffic and
/// zero stall — the cache hit never re-touches the data.
#[test]
fn cache_temperature_never_changes_an_answer_on_any_grid_point() {
    let grid = core_grid();
    for sql in QUERIES {
        for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
            let reference = engine(1).session().run_on(sql, path).unwrap().rows;
            for &cores in &grid {
                let mut e = engine(cores);
                let mut s = e.session();
                let cold = s.run_on(sql, path).unwrap();
                let warm = s.run_on(sql, path).unwrap();
                assert_eq!(
                    cold.rows, reference,
                    "{path:?} at {cores} cores diverged from the 1-core answer"
                );
                assert_eq!(
                    warm.rows, cold.rows,
                    "{path:?} at {cores} cores: warm run diverged from cold"
                );
                assert_eq!(warm.path, cold.path);
                let warm_bytes: u64 = warm.cores.iter().map(|c| c.bytes_read).sum();
                let warm_stall: u64 = warm.cores.iter().map(|c| c.stall_cycles).sum();
                assert_eq!(
                    warm_bytes, 0,
                    "{path:?} at {cores} cores: a cache hit must not touch the hierarchy"
                );
                assert_eq!(
                    warm_stall, 0,
                    "{path:?} at {cores} cores: a cache hit cannot stall on memory"
                );
                assert!(
                    warm.ns < cold.ns,
                    "{path:?} at {cores} cores: replay must be cheaper than re-execution"
                );
                drop(s);
                let (hits, _) = e.op_cache_stats();
                assert_eq!(hits, 1, "{path:?} at {cores} cores: exactly one warm hit");
            }
        }
    }
}

/// Chaos grid point: with a seeded fault plan armed, RM-routed queries
/// bypass the op cache entirely (a memoized answer must not mask the
/// configured fault behaviour), and cold/warm answers stay bit-identical
/// to the fault-free reference at every core count.
#[test]
fn chaos_seeded_runs_bypass_the_cache_and_stay_identical() {
    let s = seed();
    let stormy = || FaultConfig {
        rm_stall_prob: 0.3,
        rm_stall_ns: 2_500.0,
        rm_timeout_prob: 0.3,
        rm_corrupt_prob: 0.3,
        ..FaultConfig::quiet(s)
    };
    let reference = engine(1)
        .session()
        .run_on(QUERIES[0], AccessPath::Rm)
        .unwrap()
        .rows;
    for &cores in &core_grid() {
        let mut e = engine(cores);
        e.set_fault_context(FaultContext::new(stormy(), RecoveryPolicy::default()));
        let mut session = e.session();
        let a = session.run_on(QUERIES[0], AccessPath::Rm).unwrap();
        let b = session.run_on(QUERIES[0], AccessPath::Rm).unwrap();
        assert_eq!(a.rows, reference, "chaos cold diverged (seed {s})");
        assert_eq!(b.rows, reference, "chaos repeat diverged (seed {s})");
        drop(session);
        let (hits, _) = e.op_cache_stats();
        assert_eq!(
            hits, 0,
            "an armed fault plan must keep RM runs out of the op cache (seed {s})"
        );
        assert!(
            e.op_cache().is_empty(),
            "no RM entry may be memoized under an armed fault plan (seed {s})"
        );
    }
}

/// ORDER BY / LIMIT are applied per-query on top of the shared cache
/// entry: the plain projection and its sorted/limited variant share one
/// memoized stage output, and the hit still returns the variant's own
/// post-processed rows.
#[test]
fn post_processing_variants_share_one_cache_entry() {
    let mut e = engine(2);
    let mut s = e.session();
    let plain = "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 5";
    let sorted = "SELECT l_orderkey, l_extendedprice FROM lineitem \
                  WHERE l_quantity < 5 ORDER BY 2 DESC LIMIT 10";
    // What the sorted variant must answer, earned cold on a fresh engine.
    let expect = engine(2).session().run(sorted).unwrap().rows;
    let base = s.run(plain).unwrap();
    let top = s.run(sorted).unwrap();
    assert_eq!(top.rows.len(), 10);
    assert_eq!(top.rows, expect, "hit must equal a cold run, post-sort");
    assert!(base.rows.len() > top.rows.len());
    drop(s);
    let (hits, _) = e.op_cache_stats();
    assert_eq!(hits, 1, "the sorted variant must hit the plain entry");
    assert_eq!(e.op_cache().len(), 1, "one shared entry, not two");
}

/// Scratchpad lifetime rules, observed from outside: buffers recycle
/// across queries within a session (allocation count stays flat after
/// warm-up) and a cache hit does not take stage buffers at all. The
/// aliasing guarantee itself is a panic inside the pool (`buffer.rs`
/// epoch asserts), exercised by every run in this file.
#[test]
fn scratchpad_recycles_across_queries_without_fresh_allocations() {
    let mut e = engine(1);
    let mut s = e.session();
    s.run_on(QUERIES[1], AccessPath::Row).unwrap();
    let allocs_after_warmup = s.scratch_allocs();
    let reuses_after_warmup = s.scratch_reuses();
    // Different SQL, same operator shapes: must be served from the pool.
    s.run_on(
        "SELECT sum(l_quantity) FROM lineitem WHERE l_orderkey < 1000",
        AccessPath::Row,
    )
    .unwrap();
    assert_eq!(
        s.scratch_allocs(),
        allocs_after_warmup,
        "a second query must not grow the pool"
    );
    assert!(
        s.scratch_reuses() > reuses_after_warmup,
        "a second query must recycle pooled buffers"
    );
    // A warm replay of the first query is a cache hit: no stage
    // buffers taken, reuse counter flat.
    let reuses_before_hit = s.scratch_reuses();
    s.run_on(QUERIES[1], AccessPath::Row).unwrap();
    assert_eq!(
        s.scratch_reuses(),
        reuses_before_hit,
        "a cache hit takes no stage buffers"
    );
}

/// The merge stage's `rows_in`, as EXPLAIN ANALYZE renders it.
fn merge_rows_in(out: &query::QueryOutput) -> u64 {
    out.ops
        .iter()
        .find(|o| o.op == "merge")
        .map(|o| o.rows_in)
        .expect("a cold run reports its merge operator")
}

/// A scalar aggregate folds its morsels exactly like the grouped
/// aggregate over one group: same answer bit for bit, and the same merge
/// `rows_in` (one partial row per morsel that kept a row), on every path
/// and core count. The filter pins the group column to one value, so the
/// `GROUP BY` variant has exactly one group.
#[test]
fn scalar_aggregate_matches_the_one_group_fold_on_every_grid_point() {
    let aggs = "count(*), sum(l_extendedprice * (1 - l_discount)), min(l_quantity), \
                max(l_extendedprice), avg(l_discount)";
    let filter = "WHERE l_returnflag = 'R' AND l_quantity < 30";
    let scalar = format!("SELECT {aggs} FROM lineitem {filter}");
    let grouped = format!("SELECT {aggs} FROM lineitem {filter} GROUP BY l_returnflag");
    let morsels = ROWS.div_ceil(4096) as u64;
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        let reference = engine(1).session().run_on(&scalar, path).unwrap();
        assert_eq!(reference.rows.len(), 1);
        for &cores in &core_grid() {
            let mut e = engine(cores);
            let mut s = e.session();
            let a = s.run_on(&scalar, path).unwrap();
            let b = s.run_on(&grouped, path).unwrap();
            assert_eq!(
                format!("{:?}", a.rows),
                format!("{:?}", b.rows),
                "{path:?} at {cores} cores: scalar fold diverged from the grouped fold"
            );
            assert_eq!(
                format!("{:?}", a.rows),
                format!("{:?}", reference.rows),
                "{path:?} at {cores} cores diverged from the 1-core answer"
            );
            assert_eq!(
                merge_rows_in(&a),
                merge_rows_in(&b),
                "{path:?} at {cores} cores"
            );
            assert!(
                merge_rows_in(&a) > 1 && merge_rows_in(&a) <= morsels,
                "{path:?} at {cores} cores: expected one partial per morsel, got {}",
                merge_rows_in(&a)
            );
        }
    }
}

/// A scalar aggregate over zero qualifying rows still answers one row
/// (count 0, sum 0) with nothing for the merge to fold; MIN/MAX/AVG have
/// no value and fail.
#[test]
fn scalar_aggregate_over_zero_rows_answers_one_row_on_every_grid_point() {
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        for &cores in &core_grid() {
            let mut e = engine(cores);
            let mut s = e.session();
            let out = s
                .run_on(
                    "SELECT count(*), sum(l_quantity) FROM lineitem WHERE l_quantity < 0",
                    path,
                )
                .unwrap();
            assert_eq!(
                out.rows,
                vec![vec![Value::I64(0), Value::F64(0.0)]],
                "{path:?} at {cores} cores"
            );
            assert_eq!(merge_rows_in(&out), 0, "{path:?} at {cores} cores");
            for agg in ["min(l_quantity)", "max(l_quantity)", "avg(l_quantity)"] {
                let sql = format!("SELECT count(*), {agg} FROM lineitem WHERE l_quantity < 0");
                assert!(
                    s.run_on(&sql, path).is_err(),
                    "{path:?} at {cores} cores: {agg} over zero rows must fail"
                );
            }
        }
    }
}
