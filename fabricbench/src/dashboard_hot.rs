//! `dashboard_hot`: a small lineitem table that fits in the simulated L2,
//! queried on the optimizer-chosen path by one client session running a
//! seeded, Zipf-skewed stream over 48 parameterized templates (aggregates,
//! group-bys, ORDER BY/LIMIT). 48 templates overflow the 16-entry plan
//! cache, while their results fit the 8 MiB operator cache, so the front
//! end, the plan cache, op-cache probe and replay, and the query log do
//! most of the work. The templates, their popularity ranks and their
//! per-pass counts are fixed; the seed draws the data and the order of the
//! stream. Eight templates filter on a date window that slides one day per
//! pass under an advancing as-of date, so each pass also runs eight
//! queries cold.
//!
//! Oracle: every op-cache hit returns exactly its cold answer, and a
//! repeated cold run agrees with the first one.

use crate::clock::Instant;
use crate::stats::SimTally;
use crate::{Bench, Config, Pass, Phase, PlanCacheModel, RunState, Scale};
use fabric_sim::SimConfig;
use fabric_types::rng::DetRng;
use fabric_types::Value;
use query::{AccessPath, Engine, QueryOutput, Session};
use std::collections::BTreeMap;
use workload::Lineitem;

/// Simulated cores the engine models.
pub const CORES: usize = 4;
/// Template families; each is instantiated with four parameter values.
const FAMILIES: usize = 12;
const PER_FAMILY: usize = 4;
/// Families whose date window slides with the pass index.
const WINDOWED: [usize; 2] = [1, 11];
/// Zipf exponent of the template popularity.
const ZIPF_S: f64 = 1.0;

/// `(lineitem rows, queries per pass)`. 4096 rows of 152 bytes are
/// 608 KiB, inside the simulated 1 MiB L2.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (4_096, 2_048),
        Scale::Small => (1_024, 256),
    }
}

/// Days since 1970-01-01 to `yyyy-mm-dd` (proleptic Gregorian).
fn date(days: i64) -> String {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// 1992-01-01 as days since the epoch; shipdates run from 1992-01-02 to
/// 1998-12-01.
const DAY_LO: i64 = 8_035;
/// Days a window start may slide over (to 1998-06-01), so that even the
/// widest (90-day) window stays inside the data.
const DAY_SPAN: i64 = 2_343;
/// 1998-12-01, the last shipdate, as an offset from `DAY_LO`.
const DAY_LAST: i64 = 2_526;
const _: () = assert!(DAY_SPAN + 90 <= DAY_LAST);

/// Each family's four parameter values: a quantity, a discount in
/// hundredths, a part key, a price in thousands, or a day offset from
/// 1992-01-01. Fixed, so the seed moves the data and the stream but not
/// the mix of query costs.
const PARAMS: [[i64; PER_FAMILY]; FAMILIES] = [
    [15, 25, 35, 45],
    [100, 700, 1_300, 1_900],
    [2, 4, 6, 8],
    [50_000, 90_000, 130_000, 170_000],
    [600, 1_200, 1_800, 2_300],
    [12, 24, 36, 48],
    [1, 3, 5, 7],
    [300, 900, 1_500, 2_100],
    [1, 3, 5, 7],
    [440, 450, 460, 470],
    [10, 20, 30, 40],
    [50, 650, 1_250, 1_850],
];

/// The SQL text of template `(family, param)` in pass `pass`. A windowed
/// family's window starts `pass` days later, wrapping inside the data, and
/// is bounded by an as-of date ("today") that advances a day per pass and
/// is never earlier than the last shipdate. The window keeps every query
/// on rows that exist; the as-of date keeps every pass's text new, so it
/// runs cold exactly once.
fn render(family: usize, param: i64, pass: u64) -> String {
    let pass = i64::try_from(pass).unwrap_or(i64::MAX / 2);
    let offset = if WINDOWED.contains(&family) {
        (param + pass) % DAY_SPAN
    } else {
        param
    };
    let day = DAY_LO + offset;
    let (d0, d7, d30, d90) = (date(day), date(day + 7), date(day + 30), date(day + 90));
    let today = date(DAY_LO + DAY_LAST + pass);
    match family {
        0 => format!(
            "SELECT sum(l_extendedprice), count(*) FROM lineitem WHERE l_quantity < {param}"
        ),
        1 => format!(
            "SELECT avg(l_discount), max(l_extendedprice) FROM lineitem \
             WHERE l_shipdate >= DATE '{d0}' AND l_shipdate < DATE '{d90}' \
             AND l_shipdate <= DATE '{today}'"
        ),
        2 => format!(
            "SELECT sum(l_extendedprice * (1 - l_discount)), avg(l_quantity) FROM lineitem \
             WHERE l_discount >= 0.0{param} AND l_tax < 0.05"
        ),
        3 => format!("SELECT min(l_quantity), sum(l_tax) FROM lineitem WHERE l_partkey < {param}"),
        4 => format!(
            "SELECT l_returnflag, l_linestatus, sum(l_quantity), count(*) FROM lineitem \
             WHERE l_shipdate <= DATE '{d0}' GROUP BY l_returnflag, l_linestatus"
        ),
        5 => format!(
            "SELECT l_shipmode, count(*), avg(l_extendedprice) FROM lineitem \
             WHERE l_quantity < {param} GROUP BY l_shipmode"
        ),
        6 => format!(
            "SELECT l_linenumber, sum(l_extendedprice) FROM lineitem \
             WHERE l_discount <= 0.0{param} GROUP BY l_linenumber"
        ),
        7 => format!(
            "SELECT l_shipinstruct, max(l_discount), count(*) FROM lineitem \
             WHERE l_shipdate >= DATE '{d0}' AND l_shipdate < DATE '{d30}' \
             GROUP BY l_shipinstruct"
        ),
        8 => format!(
            "SELECT l_orderkey, l_extendedprice FROM lineitem \
             WHERE l_quantity < 3 AND l_discount <= 0.0{param} ORDER BY 2 DESC LIMIT 10"
        ),
        9 => format!(
            "SELECT l_partkey, l_quantity, l_extendedprice FROM lineitem \
             WHERE l_extendedprice > {param}000 ORDER BY 3 DESC LIMIT 5"
        ),
        10 => format!(
            "SELECT l_shipmode, sum(l_extendedprice) FROM lineitem WHERE l_quantity < {param} \
             GROUP BY l_shipmode ORDER BY 2 DESC LIMIT 3"
        ),
        _ => format!(
            "SELECT l_orderkey, l_discount, l_tax FROM lineitem \
             WHERE l_shipdate >= DATE '{d0}' AND l_shipdate < DATE '{d7}' \
             AND l_shipdate <= DATE '{today}' ORDER BY 1 LIMIT 20"
        ),
    }
}

/// Families in popularity order: rank `r` is instance `r / 12` of family
/// `RANKED[r % 12]`. Aggregates and group-bys rank first; the top-k
/// families, whose op-cache hits re-sort a data-dependent number of
/// memoized rows, rank last, so the mix's cost depends little on the data.
const RANKED: [usize; FAMILIES] = [0, 4, 1, 5, 2, 6, 3, 7, 10, 11, 9, 8];

/// The 48 templates as `(family, param)`, in popularity-rank order.
fn templates() -> Vec<(usize, i64)> {
    (0..FAMILIES * PER_FAMILY)
        .map(|r| {
            let family = RANKED[r % FAMILIES];
            (family, PARAMS[family][r / FAMILIES])
        })
        .collect()
}

/// How often each of `n` ranks appears in a pass of `len` queries: Zipf
/// weights scaled to `len`, rounded by largest remainder so the counts sum
/// to `len` exactly. Exact counts keep every pass, and every seed, on the
/// same mix; the seed only orders the stream.
fn zipf_counts(n: usize, len: usize) -> Vec<usize> {
    let w: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect();
    let total: f64 = w.iter().sum();
    let share: Vec<f64> = w.iter().map(|x| x / total * len as f64).collect();
    // Truncation is the intent: the remainders are handed out below.
    #[allow(clippy::cast_possible_truncation)]
    let mut counts: Vec<usize> = share.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder
        .sort_by(|&a, &b| (share[b] - share[b].floor()).total_cmp(&(share[a] - share[a].floor())));
    let missing = len - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(missing) {
        counts[r] += 1;
    }
    counts
}

pub struct DashboardHot {
    engine: Engine,
    client: Client,
}

/// The client side: the query stream and the oracle's state.
struct Client {
    seed: u64,
    templates: Vec<(usize, i64)>,
    /// Appearances of each template (by rank) in a timed pass.
    counts: Vec<usize>,
    /// First cold answer per SQL text of the fixed templates, and of the
    /// current pass's windowed templates (whose texts never recur).
    answers: BTreeMap<String, Vec<Vec<Value>>>,
    window_answers: BTreeMap<String, Vec<Vec<Value>>>,
    model: PlanCacheModel,
    issued: u64,
}

/// What one operation returned, with its call durations.
struct OpResult {
    out: Result<QueryOutput, String>,
    prepare_ns: u64,
    exec_ns: u64,
}

fn check(
    answers: &mut BTreeMap<String, Vec<Vec<Value>>>,
    sql: &str,
    out: &QueryOutput,
) -> Result<(), String> {
    match answers.get(sql) {
        None if out.cache_hit => Err(format!("op-cache hit before any cold run: {sql}")),
        None => {
            answers.insert(sql.to_string(), out.rows.clone());
            Ok(())
        }
        Some(cold) if out.cache_hit && out.rows != *cold => {
            Err(format!("op-cache hit differs from its cold answer: {sql}"))
        }
        Some(cold) if !out.cache_hit && !crate::rows_agree(&out.rows, cold) => Err(format!(
            "cold re-run differs from the first cold answer: {sql}"
        )),
        Some(_) => Ok(()),
    }
}

/// A pass's queries and what the client learned running them.
struct StreamOut {
    queries: u64,
    sim: SimTally,
    /// Prepares the plan-cache model labelled hits, and each prepare's
    /// `(labelled hit, ns)`.
    model_hits: u64,
    prepare_samples: Vec<(bool, u64)>,
}

impl Client {
    /// Pass `index`'s SQL texts. The warm-up pass runs every template once,
    /// in rank order, so the timed passes start from a filled op cache.
    fn stream(&self, index: u64) -> Vec<(usize, String)> {
        if index == 0 {
            return self
                .templates
                .iter()
                .map(|&(f, p)| (f, render(f, p, 0)))
                .collect();
        }
        let mut ranks: Vec<usize> = self
            .counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
            .collect();
        // Fisher-Yates with the pass's seed.
        let mut rng = DetRng::seed_from_u64(crate::pass_seed(self.seed, index));
        for i in (1..ranks.len()).rev() {
            let j = rng.gen_range(0..=i);
            ranks.swap(i, j);
        }
        ranks
            .into_iter()
            .map(|rank| {
                let (f, p) = self.templates[rank];
                (f, render(f, p, index))
            })
            .collect()
    }

    /// Run pass `index` through `session`, checking every answer.
    fn run_pass(&mut self, session: &mut Session<'_>, index: u64, run: &mut RunState) -> StreamOut {
        let stream = self.stream(index);
        self.window_answers.clear();
        let mut o = StreamOut {
            queries: stream.len() as u64,
            sim: SimTally::default(),
            model_hits: 0,
            prepare_samples: Vec::new(),
        };
        for (family, sql) in &stream {
            let predicted_hit = self.model.touch(sql);
            o.model_hits += u64::from(predicted_hit);
            let (r, ns) = run.tracer.root("op", |tr| {
                let prepared = tr.span("query.prepare", || session.prepare(sql));
                let prepare_ns = tr.last_ns();
                match prepared {
                    Ok(p) => {
                        let out = tr.span("exec.execute_on", || session.execute_on(&p, p.path()));
                        OpResult {
                            out: out.map_err(|e| format!("{sql}: {e}")),
                            prepare_ns,
                            exec_ns: tr.last_ns(),
                        }
                    }
                    Err(e) => OpResult {
                        out: Err(format!("prepare {sql}: {e}")),
                        prepare_ns,
                        exec_ns: 0,
                    },
                }
            });
            run.latency(ns);
            if run.tracer.enabled() {
                o.prepare_samples.push((predicted_hit, r.prepare_ns));
            }
            let answers = if WINDOWED.contains(family) {
                &mut self.window_answers
            } else {
                &mut self.answers
            };
            let (verdict, _) = run.tracer.root("check", |tr| {
                tr.span("bench.check", || match &r.out {
                    Ok(out) => check(answers, sql, out),
                    Err(e) => Err(e.clone()),
                })
            });
            if let Ok(out) = &r.out {
                self.issued += 1;
                o.sim.add_topdown(&out.topdown);
                let metric = if out.cache_hit {
                    o.sim.count("opcache.hits", 1);
                    "exec.hit_us"
                } else {
                    o.sim.count("opcache.misses", 1);
                    if let Some(rm) = &out.rm_stats {
                        o.sim.add_rm(rm);
                    }
                    match out.path {
                        AccessPath::Row => "exec.row.cold_ms",
                        AccessPath::Col => "exec.col.cold_ms",
                        AccessPath::Rm => "exec.rm.cold_ms",
                    }
                };
                run.sample(metric, r.exec_ns);
            }
            run.outcome(verdict.is_ok(), || {
                format!("dashboard_hot pass {index}: {}", verdict.unwrap_err())
            });
        }
        o
    }
}

impl Bench for DashboardHot {
    fn setup(cfg: &Config, run: &mut RunState) -> Result<(Self, u64, u64), String> {
        let (rows, per_pass) = sizes(cfg.scale);
        let seed = cfg.seed;
        let (built, _) = run.tracer.root("setup", |tr| {
            let t0 = Instant::now();
            let generated = tr.span("workload.generate", || {
                let mut engine = Engine::with_cores(SimConfig::zynq_a53(), CORES);
                let li = Lineitem::generate(engine.mem(), rows, seed)?;
                Ok::<_, fabric_types::FabricError>((engine, li))
            });
            let gen_ns = crate::elapsed_ns(t0);
            let (mut engine, li) = generated.map_err(|e| format!("generate: {e}"))?;
            let t1 = Instant::now();
            tr.span("engine.register", || {
                engine.register("lineitem", li.rows, li.cols)
            });
            Ok::<_, String>((engine, gen_ns, crate::elapsed_ns(t1)))
        });
        let (engine, gen_ns, reg_ns) = built?;
        let templates = templates();
        let client = Client {
            seed,
            counts: zipf_counts(templates.len(), per_pass),
            templates,
            answers: BTreeMap::new(),
            window_answers: BTreeMap::new(),
            model: PlanCacheModel::default(),
            issued: 0,
        };
        Ok((DashboardHot { engine, client }, gen_ns, reg_ns))
    }

    /// One pass in a session of its own, so the engine's counters bound
    /// exactly this pass.
    fn pass(&mut self, index: u64, run: &mut RunState) -> Result<Pass, String> {
        let stats0 = self.engine.mem_ref().stats();
        let now0 = self.engine.mem_ref().now();
        let plan0 = self.engine.plan_cache_stats();
        let mut session = self.engine.session();
        let mut o = self.client.run_pass(&mut session, index, run);
        o.sim.count("scratch.allocs", session.scratch_allocs());
        o.sim.count("scratch.reuses", session.scratch_reuses());
        drop(session);
        o.sim.mem = self.engine.mem_ref().stats().delta_since(&stats0);
        o.sim.cycles = self.engine.mem_ref().now() - now0;
        let plan1 = self.engine.plan_cache_stats();
        o.sim.count("plan_cache.hits", plan1.0 - plan0.0);
        o.sim.count("plan_cache.misses", plan1.1 - plan0.1);
        run.prepare_samples(index, plan1.0 - plan0.0, o.model_hits, o.prepare_samples);
        Ok(Pass {
            host_ns: 0,
            queries: o.queries,
            sim: o.sim,
        })
    }

    /// A dashboard client keeps one session open. Every session the engine
    /// opens adds its own metric scope, and each query snapshots the whole
    /// registry, so a session per pass would slow later passes. The
    /// warm-up and first timed passes run through [`Bench::pass`], each in
    /// a session of its own for exact counters; the rest of the phase
    /// shares one session.
    fn phase(
        &mut self,
        run: &mut RunState,
        next: &mut u64,
        budget_s: f64,
    ) -> Result<Phase, String> {
        let mut passes = Vec::new();
        let mut spent_s = 0.0;
        let mut sim_lines = 0u64;
        let stats0 = self.engine.mem_ref().stats();
        let plan0 = self.engine.plan_cache_stats();
        let mut model_hits = 0u64;
        let mut prepare_samples = Vec::new();
        let mut session = self.engine.session();
        while passes.is_empty() || spent_s < budget_s {
            let wall0 = std::time::Instant::now();
            let t0 = Instant::now();
            let o = self.client.run_pass(&mut session, *next, run);
            let host_ns = crate::elapsed_ns(t0);
            spent_s += wall0.elapsed().as_secs_f64();
            sim_lines += o.sim.rm_source_lines;
            model_hits += o.model_hits;
            prepare_samples.extend(o.prepare_samples);
            passes.push(Pass {
                host_ns,
                queries: o.queries,
                sim: o.sim,
            });
            *next += 1;
        }
        drop(session);
        sim_lines += self
            .engine
            .mem_ref()
            .stats()
            .delta_since(&stats0)
            .line_accesses;
        let plan_hits = self.engine.plan_cache_stats().0 - plan0.0;
        run.prepare_samples(*next, plan_hits, model_hits, prepare_samples);
        Ok(Phase { passes, sim_lines })
    }

    fn finish(&self, run: &mut RunState, out: &mut BTreeMap<&'static str, f64>) {
        run.engine_counters(&self.engine, self.client.issued, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_render_as_civil() {
        assert_eq!(date(0), "1970-01-01");
        assert_eq!(date(8_766), "1994-01-01");
        assert_eq!(date(DAY_LO), "1992-01-01");
        assert_eq!(date(DAY_LO + DAY_SPAN), "1998-06-01");
    }

    #[test]
    fn templates_are_48_distinct_texts() {
        let t = templates();
        assert_eq!(t.len(), 48);
        let mut texts: Vec<String> = t.iter().map(|&(f, p)| render(f, p, 0)).collect();
        texts.sort();
        texts.dedup();
        assert_eq!(texts.len(), 48);
    }

    #[test]
    fn windows_stay_inside_the_data_and_texts_never_recur() {
        assert_eq!(date(DAY_LO + DAY_LAST), "1998-12-01");
        let mut seen = std::collections::BTreeSet::new();
        for pass in 0..3_000 {
            for f in WINDOWED {
                for p in PARAMS[f] {
                    assert!(
                        seen.insert(render(f, p, pass)),
                        "({f}, {p}) recurs at {pass}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_counts_fill_the_pass_and_favour_low_ranks() {
        let c = zipf_counts(48, 2_048);
        assert_eq!(c.iter().sum::<usize>(), 2_048);
        assert!(c.windows(2).all(|w| w[0] >= w[1]));
        assert!(c[47] >= 9, "every template recurs in a pass: {c:?}");
    }
}
