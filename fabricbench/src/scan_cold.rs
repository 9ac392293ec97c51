//! `scan_cold`: the paper's Fig. 5 projectivity/selectivity grid on the
//! 64-byte synthetic table, plus Fig. 7's Q1 and Q6 and a top-k on
//! lineitem. Every query runs on ROW, COL and RM in one client session;
//! the operator cache is cleared before each pass, in which each
//! (query, path) runs once, so every answer is earned through the
//! simulated hierarchy. Host time is almost all simulator and executor.
//!
//! Oracle: no run is an op-cache hit, the three paths agree (integers and
//! strings exactly, floats within 1e-6 relative), and ROW repeats its
//! warm-up answer exactly.

use crate::clock::Instant;
use crate::stats::SimTally;
use crate::{rows_agree, Bench, Config, Pass, PlanCacheModel, RunState, Scale};
use fabric_sim::SimConfig;
use fabric_types::Value;
use query::{AccessPath, Engine, QueryOutput};
use std::collections::BTreeMap;
use workload::{Lineitem, SyntheticData};

/// Simulated cores the engine models.
pub const CORES: usize = 4;
const PATHS: [AccessPath; 3] = [AccessPath::Row, AccessPath::Col, AccessPath::Rm];

/// `(synthetic rows, lineitem rows)`. At full scale the synthetic table is
/// 8 MiB and lineitem 9.5 MiB: both at least 8x the simulated 1 MiB L2
/// and larger than the RM device's 2 MB buffer.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (131_072, 65_536),
        Scale::Small => (8_192, 4_096),
    }
}

/// `sum(c0), ..., sum(c{p-1})` over the synthetic table, filtered on the
/// last `s` of its 16 columns with per-conjunct selectivity `sel`.
fn grid_query(p: usize, s: usize, sel: f64) -> String {
    let items: Vec<String> = (0..p).map(|c| format!("sum(c{c})")).collect();
    let mut sql = format!("SELECT {} FROM t", items.join(", "));
    let thr = SyntheticData::threshold(sel);
    for (i, c) in (16 - s..16).enumerate() {
        sql.push_str(if i == 0 { " WHERE " } else { " AND " });
        sql.push_str(&format!("c{c} < {thr}"));
    }
    sql
}

/// The queries of one pass, in order.
pub fn queries() -> Vec<String> {
    let mut q = vec![
        grid_query(1, 0, 1.0),
        grid_query(4, 0, 1.0),
        grid_query(8, 0, 1.0),
        grid_query(11, 0, 1.0),
        grid_query(3, 1, 0.5),
        grid_query(3, 3, 0.9),
        grid_query(8, 4, 0.99),
    ];
    q.push(
        "SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice), \
         avg(l_discount), count(*) FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
         GROUP BY l_returnflag, l_linestatus"
            .into(),
    );
    q.push(
        "SELECT sum(l_extendedprice * l_discount) FROM lineitem \
         WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
         AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24"
            .into(),
    );
    q.push(
        "SELECT l_orderkey, l_extendedprice FROM lineitem WHERE l_quantity < 3 \
         ORDER BY 2 DESC LIMIT 10"
            .into(),
    );
    q
}

pub struct ScanCold {
    engine: Engine,
    queries: Vec<String>,
    /// ROW answers of the warm-up pass, which later passes must repeat.
    reference: Vec<Vec<Vec<Value>>>,
    model: PlanCacheModel,
    /// Queries issued through the engine, for the query-log check.
    issued: u64,
}

fn path_metric(p: AccessPath) -> &'static str {
    match p {
        AccessPath::Row => "exec.row.cold_ms",
        AccessPath::Col => "exec.col.cold_ms",
        AccessPath::Rm => "exec.rm.cold_ms",
    }
}

impl Bench for ScanCold {
    fn setup(cfg: &Config, run: &mut RunState) -> Result<(Self, u64, u64), String> {
        let (syn_rows, li_rows) = sizes(cfg.scale);
        let seed = cfg.seed;
        let (built, _) = run.tracer.root("setup", |tr| {
            let t0 = Instant::now();
            let generated = tr.span("workload.generate", || {
                let mut engine = Engine::with_cores(SimConfig::zynq_a53(), CORES);
                let syn = SyntheticData::build(engine.mem(), syn_rows, 16, seed)?;
                let li = Lineitem::generate(engine.mem(), li_rows, seed.rotate_left(17))?;
                Ok::<_, fabric_types::FabricError>((engine, syn, li))
            });
            let gen_ns = crate::elapsed_ns(t0);
            let (mut engine, syn, li) = generated.map_err(|e| format!("generate: {e}"))?;
            let t1 = Instant::now();
            tr.span("engine.register", || {
                engine.register("t", syn.rows, syn.cols);
                engine.register("lineitem", li.rows, li.cols);
            });
            let reg_ns = crate::elapsed_ns(t1);
            Ok::<_, String>((engine, gen_ns, reg_ns))
        });
        let (engine, gen_ns, reg_ns) = built?;
        let b = ScanCold {
            engine,
            queries: queries(),
            reference: Vec::new(),
            model: PlanCacheModel::default(),
            issued: 0,
        };
        Ok((b, gen_ns, reg_ns))
    }

    fn pass(&mut self, index: u64, run: &mut RunState) -> Result<Pass, String> {
        // Each (query, path) runs once per pass and the operator-cache key
        // includes the path, so clearing the cache here keeps every run
        // of the pass cold; the oracle checks that none was a hit.
        self.engine.clear_op_cache();
        let mut sim = SimTally::default();
        let stats0 = self.engine.mem_ref().stats();
        let now0 = self.engine.mem_ref().now();
        let plan0 = self.engine.plan_cache_stats();
        let op0 = self.engine.op_cache_stats();
        let ScanCold {
            engine,
            queries,
            reference,
            model,
            issued,
        } = self;
        let mut session = engine.session();
        let mut prepare_samples = Vec::new();
        let mut ran = 0u64;
        let mut model_hits = 0u64;
        for (qi, sql) in queries.iter().enumerate() {
            let mut answers: Vec<Result<QueryOutput, String>> = Vec::with_capacity(PATHS.len());
            for path in PATHS {
                let predicted_hit = model.touch(sql);
                model_hits += u64::from(predicted_hit);
                let ((out, prepare_ns, exec_ns), ns) = run.tracer.root("op", |tr| {
                    let prepared = tr.span("query.prepare", || session.prepare(sql));
                    let prepare_ns = tr.last_ns();
                    match prepared {
                        Ok(p) => {
                            let out = tr.span("exec.execute_on", || session.execute_on(&p, path));
                            let out = out.map_err(|e| format!("{path} {sql}: {e}"));
                            (out, prepare_ns, tr.last_ns())
                        }
                        Err(e) => (Err(format!("prepare {sql}: {e}")), prepare_ns, 0),
                    }
                });
                run.latency(ns);
                ran += 1;
                if run.tracer.enabled() {
                    prepare_samples.push((predicted_hit, prepare_ns));
                }
                if let Ok(o) = &out {
                    *issued += 1;
                    run.sample(path_metric(path), exec_ns);
                    sim.add_topdown(&o.topdown);
                    if let Some(rm) = &o.rm_stats {
                        sim.add_rm(rm);
                    }
                }
                answers.push(out);
            }
            // The oracle, under a root span of its own.
            let (verdicts, _) = run.tracer.root("check", |tr| {
                tr.span("bench.check", || check(reference, index, qi, &answers))
            });
            for (path, verdict) in PATHS.iter().zip(verdicts) {
                run.outcome(verdict.is_ok(), || {
                    format!("scan_cold pass {index} {path}: {}", verdict.unwrap_err())
                });
            }
        }
        sim.count("scratch.allocs", session.scratch_allocs());
        sim.count("scratch.reuses", session.scratch_reuses());
        drop(session);
        let stats1 = self.engine.mem_ref().stats();
        sim.mem = stats1.delta_since(&stats0);
        sim.cycles = self.engine.mem_ref().now() - now0;
        let plan1 = self.engine.plan_cache_stats();
        let op1 = self.engine.op_cache_stats();
        sim.count("plan_cache.hits", plan1.0 - plan0.0);
        sim.count("plan_cache.misses", plan1.1 - plan0.1);
        sim.count("opcache.hits", op1.0 - op0.0);
        sim.count("opcache.misses", op1.1 - op0.1);
        run.prepare_samples(index, plan1.0 - plan0.0, model_hits, prepare_samples);
        Ok(Pass {
            host_ns: 0,
            queries: ran,
            sim,
        })
    }

    fn finish(&self, run: &mut RunState, out: &mut BTreeMap<&'static str, f64>) {
        run.engine_counters(&self.engine, self.issued, out);
    }
}

/// Verdict per path for query `qi`: every run is cold, COL and RM agree
/// with ROW, and ROW repeats the warm-up pass's answer exactly.
fn check(
    reference: &mut Vec<Vec<Vec<Value>>>,
    index: u64,
    qi: usize,
    answers: &[Result<QueryOutput, String>],
) -> Vec<Result<(), String>> {
    let row = match &answers[0] {
        Ok(o) => o,
        Err(e) => return vec![Err(e.clone()); answers.len()],
    };
    if index == 0 {
        reference.push(row.rows.clone());
    }
    answers
        .iter()
        .map(|a| match a {
            Err(e) => Err(e.clone()),
            Ok(o) if o.cache_hit => Err(format!("query {qi}: {} run hit the op cache", o.path)),
            Ok(o) if o.path == AccessPath::Row => {
                if reference.get(qi) == Some(&o.rows) {
                    Ok(())
                } else {
                    Err(format!("query {qi}: ROW answer changed since the warm-up"))
                }
            }
            Ok(o) if rows_agree(&o.rows, &row.rows) => Ok(()),
            Ok(o) => Err(format!("query {qi}: {} answer disagrees with ROW", o.path)),
        })
        .collect()
}
