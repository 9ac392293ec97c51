//! The unified fabric engine: one object owning the simulated machine
//! (memory hierarchy + core count), the catalog, the fault-handling state,
//! and a plan cache — with a session API (`prepare` / `run` / `explain` /
//! `explain_analyze`) replacing the free-function sprawl that used to
//! thread those pieces through every call site.
//!
//! ```
//! use fabric_types::{ColumnType, Schema, Value};
//! use query::Engine;
//! use rowstore::RowTable;
//!
//! let mut engine = Engine::new(fabric_sim::SimConfig::zynq_a53());
//! let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
//! let mut t = RowTable::create(engine.mem(), schema, 16).unwrap();
//! for i in 0..10 {
//!     t.load(engine.mem(), &[Value::I64(i), Value::F64(i as f64)]).unwrap();
//! }
//! engine.register_rows("orders", t);
//!
//! let mut session = engine.session();
//! let out = session.run("SELECT sum(qty) FROM orders WHERE id < 5").unwrap();
//! assert_eq!(out.rows[0][0], Value::F64(10.0));
//! ```
//!
//! Every query runs through one resilient pipeline: the engine owns a
//! [`FaultContext`] (quiet by default, so fault handling is free until
//! faults are configured) and executes on however many simulated cores the
//! engine was given — morsel-parallel, with results bit-identical to a
//! single core.

use crate::analyze::{analyze, VerifiedQuery};
use crate::bind::{bind, BoundQuery};
use crate::catalog::Catalog;
use crate::cost::{choose_path_parallel, AccessPath, PathCost};
use crate::exec::opcache::{self, OpCache};
use crate::exec::{
    run_verified, CacheSlot, FaultContext, QueryOutput, RecordMeta, Resilience, Scratchpad,
};
use crate::explain::{
    analyze_paths_impl, render_analyze_report, render_latency_section, render_plan_for,
    render_recovery_section,
};
use crate::parser::parse;
use colstore::ColTable;
use durability::{DurabilityConfig, DurableImage};
use fabric_sim::{MemoryHierarchy, SimConfig};
use fabric_types::{Result, Schema};
use mvcc::{DurableStore, RecoveryReport};
use relmem::RmConfig;
use rowstore::RowTable;
use std::rc::Rc;

/// Plans the cache keeps per engine. Small on purpose: the cache exists to
/// make re-running a dashboard's query set free, not to be a buffer pool.
const PLAN_CACHE_CAP: usize = 16;

/// A parsed, bound, verified, and priced query, reusable across
/// executions — the typed handle [`Session::prepare`] returns. Running a
/// `&Prepared` skips the SQL-text cache entirely: the plan *and* its
/// operator-cache base signature travel with the handle, so repeated
/// execution re-hashes nothing. Cheap to clone (the plan body is shared).
#[derive(Clone)]
pub struct Prepared {
    plan: Rc<PreparedPlan>,
}

/// The former name of [`Prepared`], kept so existing call sites read on.
pub type PreparedQuery = Prepared;

struct PreparedPlan {
    sql: String,
    bound: BoundQuery,
    geometry: relmem::VerifiedGeometry,
    path: AccessPath,
    cost: PathCost,
    /// Path-independent operator-cache signature (plan shape + table +
    /// geometry + predicate constants), computed once at cold prepare.
    base_sig: u128,
}

impl Prepared {
    /// The SQL text this plan was prepared from.
    pub fn sql(&self) -> &str {
        &self.plan.sql
    }

    /// The access path the optimizer chose at prepare time.
    pub fn path(&self) -> AccessPath {
        self.plan.path
    }

    /// The per-path estimates the choice was based on.
    pub fn cost(&self) -> &PathCost {
        &self.plan.cost
    }

    /// The operator-cache key this plan executes under on `path`.
    pub fn cache_key(&self, path: AccessPath) -> u128 {
        opcache::keyed(self.plan.base_sig, path)
    }

    /// Rebuild the analyzer's verified-plan witness for execution.
    fn verified(&self) -> VerifiedQuery<'_> {
        VerifiedQuery::from_parts(&self.plan.bound, self.plan.geometry.clone())
    }
}

/// The fabric engine: simulated machine + catalog + fault state + plan
/// cache. Create one per simulated deployment; open [`Engine::session`] to
/// prepare and run queries.
pub struct Engine {
    mem: MemoryHierarchy,
    catalog: Catalog,
    faults: FaultContext,
    rm: RmConfig,
    /// MRU-first plan cache keyed by SQL text.
    cache: Vec<(String, Rc<PreparedPlan>)>,
    cache_hits: u64,
    cache_misses: u64,
    /// Signature-keyed operator cache: memoized stage outputs, shared by
    /// every session on this engine. Invalidated together with the plan
    /// cache — both are bound to the catalog contents and machine shape.
    op_cache: OpCache,
    /// Recovery reports from every [`Engine::open_recovered`] call, in
    /// order — the engine's record of which tables came back from a
    /// crash and whether the recovery was degraded.
    recoveries: Vec<(String, RecoveryReport)>,
    /// Sessions handed out so far; the next session gets this + 1 as its
    /// id, which scopes its metrics under `session.<id>.*`.
    sessions_opened: u64,
}

impl Engine {
    /// A single-core engine over `cfg` — behaviourally identical to the
    /// original serial executor.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_cores(cfg, 1)
    }

    /// An engine whose queries run morsel-parallel over `cores` simulated
    /// cores (private L1/prefetcher each, shared L2/DRAM/RM device).
    pub fn with_cores(cfg: SimConfig, cores: usize) -> Self {
        let mut mem = MemoryHierarchy::new(cfg);
        mem.set_core_count(cores.max(1));
        Engine {
            mem,
            catalog: Catalog::new(),
            faults: FaultContext::quiet(),
            rm: RmConfig::prototype(),
            cache: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            op_cache: OpCache::default(),
            recoveries: Vec::new(),
            sessions_opened: 0,
        }
    }

    /// Change the core count. Plans stay valid (the path choice is priced
    /// per run), but the cache is cleared so cached costs match the new
    /// machine.
    pub fn set_cores(&mut self, cores: usize) {
        self.mem.set_core_count(cores.max(1));
        self.cache.clear();
        self.op_cache.clear();
    }

    /// Number of simulated cores queries run on.
    pub fn cores(&self) -> usize {
        self.mem.num_cores()
    }

    /// The simulated memory hierarchy — for loading tables, attaching
    /// trace recorders, and reading metrics.
    pub fn mem(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// Read-only view of the hierarchy (metrics, stats, clock).
    pub fn mem_ref(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// The catalog of registered tables.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Register a table with only the row-oriented base layout (the
    /// fabric-native configuration). Invalidates the plan cache — cached
    /// geometries are bound to the catalog contents at prepare time.
    pub fn register_rows(&mut self, name: impl Into<String>, rows: RowTable) {
        self.catalog.register_rows(name, rows);
        self.cache.clear();
        self.op_cache.clear();
    }

    /// Register a table with both layouts. Invalidates the plan cache.
    pub fn register(&mut self, name: impl Into<String>, rows: RowTable, cols: ColTable) {
        self.catalog.register(name, rows, cols);
        self.cache.clear();
        self.op_cache.clear();
    }

    /// Recover a crash-consistent store from the durable image that
    /// survived a crash ([`DurableStore::crash_image`]), register the
    /// recovered snapshot as a queryable row table under `name`, and
    /// return the live store (for continued writes) plus the recovery
    /// report. A degraded recovery — e.g. the newest checkpoint was torn
    /// and replay fell back to an older one — is surfaced via the
    /// `engine.degraded_opens` counter and a flight-recorder postmortem,
    /// but still opens: the recovered state is correct, just rebuilt the
    /// slow way.
    pub fn open_recovered(
        &mut self,
        name: impl Into<String>,
        user_schema: &Schema,
        capacity: usize,
        image: DurableImage,
        cfg: DurabilityConfig,
        checkpoint_every: u64,
    ) -> Result<(DurableStore, RecoveryReport)> {
        let name = name.into();
        let (store, report) = DurableStore::replay(
            &mut self.mem,
            user_schema.clone(),
            capacity,
            image,
            cfg,
            checkpoint_every,
        )?;
        // Materialize the recovered snapshot (visible user rows at the
        // watermark, physical order) into the catalog's row layout.
        let rows = store.snapshot_rows(&mut self.mem)?;
        let mut table = RowTable::create(&mut self.mem, user_schema.clone(), capacity.max(1))?;
        for row in &rows {
            table.load(&mut self.mem, row)?;
        }
        if report.degraded.is_some() {
            self.mem
                .metrics_mut()
                .counter_add("engine.degraded_opens", 1);
            self.mem
                .flight_dump_with("engine-degraded-open", report.to_json());
        }
        self.recoveries.push((name.clone(), report.clone()));
        self.catalog.register_rows(name, table);
        self.cache.clear();
        self.op_cache.clear();
        Ok((store, report))
    }

    /// Recovery reports from every [`Engine::open_recovered`], in call
    /// order: `(table name, report)`.
    pub fn recoveries(&self) -> &[(String, RecoveryReport)] {
        &self.recoveries
    }

    /// Replace the engine's fault-handling state (plan seed, retry policy,
    /// breaker). The default is a quiet context that injects nothing.
    pub fn set_fault_context(&mut self, ctx: FaultContext) {
        self.faults = ctx;
    }

    /// The engine's fault-handling state (fallback/breaker counters).
    pub fn fault_context(&self) -> &FaultContext {
        &self.faults
    }

    /// The RM device configuration queries are planned against.
    pub fn rm_config(&self) -> &RmConfig {
        &self.rm
    }

    /// `(hits, misses)` of the prepared-plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.cache_misses)
    }

    /// Drop every cached plan and memoized stage output.
    pub fn clear_plan_cache(&mut self) {
        self.cache.clear();
        self.op_cache.clear();
    }

    /// Drop memoized stage outputs while keeping cached plans.
    /// Measurement loops (benches timing repeated *execution*) call this
    /// between reps so every run re-earns its answer through the
    /// hierarchy; hit/miss counters survive.
    pub fn clear_op_cache(&mut self) {
        self.op_cache.clear();
    }

    /// `(hits, misses)` of the operator cache (memoized stage outputs).
    pub fn op_cache_stats(&self) -> (u64, u64) {
        self.op_cache.stats()
    }

    /// The operator cache itself (entry count, insertion counters).
    pub fn op_cache(&self) -> &OpCache {
        &self.op_cache
    }

    /// The engine-wide query log: one bounded, deterministic record per
    /// executed query (cold, cached, degraded, or recovered alike).
    pub fn querylog(&self) -> &fabric_sim::QueryLog {
        self.mem.querylog()
    }

    /// Aggregate the query log into a per-(class, path) workload report.
    pub fn workload_report(&self) -> fabric_sim::WorkloadReport {
        self.mem.querylog().workload_report()
    }

    /// The cost-calibration ledger: per-(table, geometry, path) observed
    /// relative error of the cost model, fed by every clean cold run.
    pub fn calib(&self) -> &fabric_sim::CalibLedger {
        self.mem.calib()
    }

    /// Open a session on this engine. Each session gets a stable numeric
    /// id (1, 2, …) and every query it executes records its latency both
    /// globally (`query.class.<class>.latency_cycles`) and under the
    /// session's own metric scope (`session.<id>.latency.<class>`).
    pub fn session(&mut self) -> Session<'_> {
        self.sessions_opened += 1;
        let id = self.sessions_opened;
        Session {
            engine: self,
            id,
            scratch: Scratchpad::new(),
        }
    }
}

/// A query session over an [`Engine`]: prepare once, run many times.
/// Owns a [`Scratchpad`] so every query it executes recycles the same
/// morsel buffers.
pub struct Session<'e> {
    engine: &'e mut Engine,
    id: u64,
    scratch: Scratchpad,
}

impl Session<'_> {
    /// This session's id (scopes its metrics under `session.<id>.*`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Stage buffers this session's scratchpad has allocated so far —
    /// flat across repeated queries once the pool is warm.
    pub fn scratch_allocs(&self) -> u64 {
        self.scratch.allocs()
    }

    /// Stage-buffer takes served from the pool instead of a fresh
    /// allocation.
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch.reuses()
    }

    /// Record one executed query's cycle-domain latency: into the global
    /// per-class histogram, into a cache-temperature-split histogram
    /// (`query.class.<class>.{cold,hit}.latency_cycles` — an op-cache hit
    /// is orders of magnitude cheaper than a cold run, and pooling the two
    /// made the headline percentiles meaningless), and into this session's
    /// metric scope. The headline p50/p95/p99 gauges the perf gate checks
    /// are fed from the *cold* histogram only; hits get their own gauge
    /// set. Recording never advances the simulated clock, so an
    /// instrumented run stays cycle-identical to an uninstrumented one.
    fn record_latency(
        mem: &mut MemoryHierarchy,
        session_id: u64,
        class: &str,
        elapsed: u64,
        cache_hit: bool,
    ) {
        let reg = mem.metrics_mut();
        reg.observe_fmt(format_args!("query.class.{class}.latency_cycles"), elapsed);
        let temp = if cache_hit { "hit" } else { "cold" };
        let h = reg.observe_fmt(
            format_args!("query.class.{class}.{temp}.latency_cycles"),
            elapsed,
        );
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        reg.gauge_set_fmt(format_args!("query.class.{class}.{temp}.p50_cycles"), p50);
        reg.gauge_set_fmt(format_args!("query.class.{class}.{temp}.p95_cycles"), p95);
        reg.gauge_set_fmt(format_args!("query.class.{class}.{temp}.p99_cycles"), p99);
        if !cache_hit {
            // Headline percentiles track cold execution only.
            reg.gauge_set_fmt(format_args!("query.class.{class}.p50_cycles"), p50);
            reg.gauge_set_fmt(format_args!("query.class.{class}.p95_cycles"), p95);
            reg.gauge_set_fmt(format_args!("query.class.{class}.p99_cycles"), p99);
        }
        let mut scope = reg.scoped_fmt(format_args!("session.{session_id}"));
        scope.counter_add("queries", 1);
        scope.observe_fmt(format_args!("latency.{class}"), elapsed);
    }

    /// Parse + bind + verify + price `sql`, consulting the engine's plan
    /// cache (keyed by SQL text, MRU, capacity [`PLAN_CACHE_CAP`]). A hit
    /// returns the cached plan unchanged, so a re-prepared query executes
    /// bit-identically to its cold first run.
    pub fn prepare(&mut self, sql: &str) -> Result<Prepared> {
        if let Some(i) = self.engine.cache.iter().position(|(k, _)| k == sql) {
            let entry = self.engine.cache.remove(i);
            self.engine.cache.insert(0, entry);
            self.engine.cache_hits += 1;
            self.engine
                .mem
                .metrics_mut()
                .counter_add("query.plan_cache.hits", 1);
            return Ok(Prepared {
                plan: Rc::clone(&self.engine.cache[0].1),
            });
        }
        let stmt = parse(sql)?;
        let bound = bind(&self.engine.catalog, &stmt)?;
        let entry = self.engine.catalog.get(&bound.table)?;
        let verified = analyze(entry, &bound, &self.engine.rm)?;
        let geometry = verified.geometry().clone();
        let (path, cost) = choose_path_parallel(
            self.engine.mem.config(),
            &self.engine.rm,
            entry,
            &bound,
            self.engine.mem.num_cores(),
        )?;
        let base_sig = opcache::plan_signature(&bound, entry.rows.len(), &format!("{geometry:?}"));
        let plan = Rc::new(PreparedPlan {
            sql: sql.to_string(),
            bound,
            geometry,
            path,
            cost,
            base_sig,
        });
        self.engine
            .cache
            .insert(0, (sql.to_string(), Rc::clone(&plan)));
        self.engine.cache.truncate(PLAN_CACHE_CAP);
        self.engine.cache_misses += 1;
        self.engine
            .mem
            .metrics_mut()
            .counter_add("query.plan_cache.misses", 1);
        Ok(Prepared { plan })
    }

    /// Prepare (or fetch from cache) and execute on the optimizer-chosen
    /// path, under the engine's fault policy.
    pub fn run(&mut self, sql: &str) -> Result<QueryOutput> {
        let prepared = self.prepare(sql)?;
        self.execute(&prepared)
    }

    /// Prepare and execute on an explicitly chosen path (engine
    /// comparisons / tests).
    pub fn run_on(&mut self, sql: &str, path: AccessPath) -> Result<QueryOutput> {
        let prepared = self.prepare(sql)?;
        self.execute_on(&prepared, path)
    }

    /// Execute a prepared query on its planned path.
    pub fn execute(&mut self, prepared: &Prepared) -> Result<QueryOutput> {
        self.execute_on(prepared, prepared.plan.path)
    }

    /// Execute a prepared query on `path`, through the engine's operator
    /// cache: the first run memoizes the stage output under the plan's
    /// signature and a repeat run replays it without touching the
    /// hierarchy (clean runs only — degraded/faulted runs are re-earned).
    pub fn execute_on(&mut self, prepared: &Prepared, path: AccessPath) -> Result<QueryOutput> {
        let Engine {
            ref mut mem,
            ref catalog,
            ref mut faults,
            ref mut op_cache,
            ref recoveries,
            ..
        } = *self.engine;
        let entry = catalog.get(&prepared.plan.bound.table)?;
        let verified = prepared.verified();
        // An RM-routed query under an armed fault plan bypasses the op
        // cache in both directions: a memoized result must not mask the
        // degradation/breaker behaviour the device is configured to
        // exhibit, and a lucky clean run under fire is not a stable
        // fact worth memoizing.
        let cache = if path == AccessPath::Rm && !faults.plan.config().is_quiet() {
            CacheSlot::None
        } else {
            CacheSlot::Keyed(op_cache, opcache::keyed(prepared.plan.base_sig, path))
        };
        // Cycle-domain latency: queries fork/join internally, so the
        // global-frontier delta around the run is the query's wall time.
        let t0 = mem.now();
        let out = run_verified(
            mem,
            entry,
            &verified,
            path,
            prepared.plan.cost,
            Resilience::Resilient(faults),
            cache,
            &mut self.scratch,
            RecordMeta {
                session: self.id,
                recovered_tables: recoveries.len() as u64,
            },
        )?;
        let elapsed = mem.now().saturating_sub(t0);
        Self::record_latency(
            mem,
            self.id,
            prepared.plan.bound.class(),
            elapsed,
            out.cache_hit,
        );
        mem.metrics_mut().gauge_set(
            "query.scratchpad.hwm_bytes",
            self.scratch.hwm_bytes() as f64,
        );
        Ok(out)
    }

    /// Verify and execute a hand-built [`BoundQuery`] on the
    /// optimizer-chosen path, under the engine's fault policy.
    ///
    /// Unlike [`Session::run`], the plan did not come from the parser, so
    /// nothing upstream vouches for it: it passes through the same
    /// [`analyze`] gate as every SQL statement, and a plan the analyzer
    /// rejects never reaches an executor. Bound plans carry no SQL text,
    /// so they bypass the plan cache.
    pub fn run_bound(&mut self, bound: &BoundQuery) -> Result<QueryOutput> {
        self.run_bound_impl(bound, None)
    }

    /// Verify and execute a hand-built [`BoundQuery`] on an explicitly
    /// chosen path (engine comparisons / tests). Verifies exactly like
    /// [`Session::run_bound`].
    pub fn run_bound_on(&mut self, bound: &BoundQuery, path: AccessPath) -> Result<QueryOutput> {
        self.run_bound_impl(bound, Some(path))
    }

    fn run_bound_impl(
        &mut self,
        bound: &BoundQuery,
        forced: Option<AccessPath>,
    ) -> Result<QueryOutput> {
        let Engine {
            ref mut mem,
            ref catalog,
            ref mut faults,
            ref rm,
            ref recoveries,
            ..
        } = *self.engine;
        let entry = catalog.get(&bound.table)?;
        let verified = analyze(entry, bound, rm)?;
        let (chosen, cost) = choose_path_parallel(mem.config(), rm, entry, bound, mem.num_cores())?;
        let t0 = mem.now();
        // Hand-built plans bypass both caches (no SQL text vouches for
        // them) but still recycle the session's scratch buffers.
        let out = run_verified(
            mem,
            entry,
            &verified,
            forced.unwrap_or(chosen),
            cost,
            Resilience::Resilient(faults),
            CacheSlot::None,
            &mut self.scratch,
            RecordMeta {
                session: self.id,
                recovered_tables: recoveries.len() as u64,
            },
        )?;
        let elapsed = mem.now().saturating_sub(t0);
        Self::record_latency(mem, self.id, bound.class(), elapsed, out.cache_hit);
        mem.metrics_mut().gauge_set(
            "query.scratchpad.hwm_bytes",
            self.scratch.hwm_bytes() as f64,
        );
        Ok(out)
    }

    /// Render the chosen plan and per-path estimates for `sql`.
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let prepared = self.prepare(sql)?;
        self.explain_prepared(&prepared)
    }

    /// Render the chosen plan and per-path estimates for an
    /// already-prepared query, without touching the SQL-text cache.
    pub fn explain_prepared(&mut self, prepared: &Prepared) -> Result<String> {
        let entry = self.engine.catalog.get(&prepared.plan.bound.table)?;
        render_plan_for(
            entry,
            &prepared.plan.bound,
            prepared.plan.path,
            &prepared.plan.cost,
        )
    }

    /// `EXPLAIN ANALYZE`: run `sql` on every available path and render
    /// estimated vs. measured cost plus the chosen path's per-phase and
    /// per-core breakdown.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let prepared = self.prepare(sql)?;
        self.explain_analyze_prepared(&prepared)
    }

    /// [`Session::explain_analyze`] for an already-prepared query. The
    /// measurement runs bypass the operator cache — `EXPLAIN ANALYZE`
    /// exists to observe the real hierarchy, so a memoized replay would
    /// defeat its purpose.
    pub fn explain_analyze_prepared(&mut self, prepared: &Prepared) -> Result<String> {
        let entry = self.engine.catalog.get(&prepared.plan.bound.table)?;
        let header = render_plan_for(
            entry,
            &prepared.plan.bound,
            prepared.plan.path,
            &prepared.plan.cost,
        )?;
        let has_cols = entry.cols.is_some();
        let (_, reports, profile, cores, topdown, ops) = analyze_paths_impl(
            &mut self.engine.mem,
            &self.engine.catalog,
            &prepared.plan.bound,
        )?;
        let mut text = render_analyze_report(
            &header, has_cols, &reports, &profile, &cores, &topdown, &ops,
        )?;
        text.push_str(&render_latency_section(self.engine.mem.metrics())?);
        text.push_str(&render_recovery_section(self.engine.recoveries())?);
        // Operator-cache provenance: the signature this plan executes
        // under on its chosen path, and the engine-wide cache state.
        let oc = &self.engine.op_cache;
        let (hits, misses) = oc.stats();
        text.push_str(&format!(
            "  op-cache: key {:032x} (chosen path)  entries {}  bytes {}  hits {}  misses {}  insertions {}  evictions {}\n",
            prepared.cache_key(prepared.plan.path),
            oc.len(),
            oc.bytes(),
            hits,
            misses,
            oc.insertions(),
            oc.evictions(),
        ));
        text.push_str(&format!(
            "  scratchpad: allocs {}  reuses {}  hwm {} B\n",
            self.scratch.allocs(),
            self.scratch.reuses(),
            self.scratch.hwm_bytes(),
        ));
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::{ColumnType, Schema, Value};

    fn engine_with_data(cores: usize) -> Engine {
        let mut engine = Engine::with_cores(SimConfig::zynq_a53(), cores);
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("grp", ColumnType::FixedStr(1)),
            ("qty", ColumnType::F64),
        ]);
        let mut rt = RowTable::create(engine.mem(), schema.clone(), 16384).unwrap();
        let mut ct = ColTable::create(engine.mem(), schema, 16384).unwrap();
        for i in 0..10_000i64 {
            let row = vec![
                Value::I64(i),
                Value::Str(if i % 3 == 0 { "A" } else { "B" }.into()),
                Value::F64(i as f64),
            ];
            rt.load(engine.mem(), &row).unwrap();
            ct.load(engine.mem(), &row).unwrap();
        }
        engine.register("t", rt, ct);
        engine
    }

    #[test]
    fn session_runs_queries_end_to_end() {
        let mut engine = engine_with_data(1);
        let out = engine
            .session()
            .run("SELECT grp, count(*), sum(qty) FROM t WHERE id < 6000 GROUP BY grp")
            .unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][0], Value::Str("A".into()));
        assert_eq!(out.rows[0][1], Value::I64(2000));
        assert_eq!(out.cores.len(), 1);
        assert_eq!(out.cores[0].idle_cycles, 0, "one core never waits");
    }

    #[test]
    fn plan_cache_hits_return_the_same_plan_and_answer() {
        let mut engine = engine_with_data(2);
        let sql = "SELECT sum(qty) FROM t WHERE id < 5000";
        let mut s = engine.session();
        let cold = s.prepare(sql).unwrap();
        let a = s.execute(&cold).unwrap();
        let warm = s.prepare(sql).unwrap();
        assert!(
            Rc::ptr_eq(&cold.plan, &warm.plan),
            "hit must share the plan"
        );
        let b = s.execute(&warm).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.path, b.path);
        // The repeat run was an operator-cache hit replaying the cold
        // run's stage output — identical rows, no hierarchy traffic.
        assert_eq!(b.cores.iter().map(|c| c.bytes_read).sum::<u64>(), 0);
        assert_eq!(engine.plan_cache_stats(), (1, 1));
        assert_eq!(engine.op_cache_stats(), (1, 1));
        assert_eq!(
            engine.mem_ref().metrics().counter("query.plan_cache.hits"),
            1
        );
        assert_eq!(engine.mem_ref().metrics().counter("query.opcache.hits"), 1);
    }

    #[test]
    fn prepared_handle_carries_the_op_cache_key() {
        let mut engine = engine_with_data(1);
        let sql = "SELECT sum(qty) FROM t WHERE id < 5000";
        let mut s = engine.session();
        let p = s.prepare(sql).unwrap();
        let k_row = p.cache_key(AccessPath::Row);
        assert_ne!(k_row, p.cache_key(AccessPath::Col), "path-keyed");
        // A warm prepare (MRU text hit) resolves to the identical
        // signature — the handle, not the SQL text, is the cache identity.
        let warm = s.prepare(sql).unwrap();
        assert_eq!(warm.cache_key(AccessPath::Row), k_row);
        // Re-registering the table clears both caches and re-preparing
        // over changed contents yields a different signature.
        let out = s.execute_on(&p, AccessPath::Row).unwrap();
        assert_eq!(engine.op_cache().len(), 1);
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("grp", ColumnType::FixedStr(1)),
            ("qty", ColumnType::F64),
        ]);
        let mut rt = RowTable::create(engine.mem(), schema.clone(), 64).unwrap();
        let mut ct = ColTable::create(engine.mem(), schema, 64).unwrap();
        for i in 0..10i64 {
            let row = vec![Value::I64(i), Value::Str("A".into()), Value::F64(i as f64)];
            rt.load(engine.mem(), &row).unwrap();
            ct.load(engine.mem(), &row).unwrap();
        }
        engine.register("t", rt, ct);
        assert!(engine.op_cache().is_empty(), "register clears the op cache");
        let p2 = engine.session().prepare(sql).unwrap();
        assert_ne!(
            p2.cache_key(AccessPath::Row),
            k_row,
            "new table contents, new signature"
        );
        drop(out);
    }

    #[test]
    fn plan_cache_is_bounded_and_mru() {
        let mut engine = engine_with_data(1);
        let mut s = engine.session();
        for i in 0..40 {
            s.prepare(&format!("SELECT id FROM t WHERE id < {i}"))
                .unwrap();
        }
        assert!(engine.cache.len() <= PLAN_CACHE_CAP);
        // The most recent statement is still cached.
        let (h0, _) = engine.plan_cache_stats();
        engine
            .session()
            .prepare("SELECT id FROM t WHERE id < 39")
            .unwrap();
        assert_eq!(engine.plan_cache_stats().0, h0 + 1);
    }

    #[test]
    fn multicore_session_is_bit_identical_to_single_core() {
        let sql = "SELECT grp, sum(qty), avg(qty), min(id), max(id) FROM t \
                   WHERE id < 9000 GROUP BY grp ORDER BY 2 DESC";
        let baseline = engine_with_data(1).session().run(sql).unwrap();
        for cores in [2, 4] {
            let mut engine = engine_with_data(cores);
            let out = engine.session().run(sql).unwrap();
            assert_eq!(out.rows, baseline.rows, "{cores}-core rows must match");
            assert_eq!(out.cores.len(), cores);
            // Attribution books balance on every core.
            let elapsed = out.cores[0].busy_cycles + out.cores[0].idle_cycles;
            for a in &out.cores {
                assert_eq!(a.busy_cycles + a.idle_cycles, elapsed, "{a:?}");
                assert_eq!(
                    a.busy_cycles,
                    a.cpu_cycles + a.stall_cycles + a.mem_lat_cycles
                );
            }
            assert!(
                out.cores.iter().filter(|a| a.busy_cycles > 0).count() > 1,
                "work must actually spread across cores"
            );
        }
    }

    #[test]
    fn registering_a_table_invalidates_cached_plans() {
        let mut engine = engine_with_data(1);
        engine.session().prepare("SELECT id FROM t").unwrap();
        assert_eq!(engine.cache.len(), 1);
        let schema = Schema::from_pairs(&[("x", ColumnType::I64)]);
        let t2 = RowTable::create(engine.mem(), schema, 4).unwrap();
        engine.register_rows("u", t2);
        assert!(engine.cache.is_empty());
    }

    #[test]
    fn open_recovered_registers_the_surviving_snapshot() {
        // Build a durable store elsewhere, crash it, and open the
        // survivors on a fresh engine.
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut m = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut store =
            DurableStore::create(&mut m, schema.clone(), 64, DurabilityConfig::quiet(5), 0)
                .unwrap();
        for i in 0..5i64 {
            let mut t = store.begin();
            t.insert(vec![Value::I64(i), Value::F64(i as f64 * 2.0)]);
            store.commit(&mut m, t).unwrap();
        }
        let image = store.crash_image();

        let mut engine = Engine::new(SimConfig::zynq_a53());
        let (survivor, report) = engine
            .open_recovered("orders", &schema, 64, image, DurabilityConfig::quiet(6), 0)
            .unwrap();
        assert_eq!(report.commits_replayed, 5);
        assert_eq!(report.degraded, None);
        assert_eq!(survivor.snapshot_ts(), report.watermark);
        assert_eq!(engine.recoveries().len(), 1);
        assert_eq!(engine.recoveries()[0].0, "orders");
        let out = engine
            .session()
            .run("SELECT count(*), sum(qty) FROM orders")
            .unwrap();
        assert_eq!(out.rows[0][0], Value::I64(5));
        assert_eq!(out.rows[0][1], Value::F64(20.0));
    }

    #[test]
    fn sessions_record_scoped_latency_histograms() {
        let mut engine = engine_with_data(1);
        {
            let mut s = engine.session();
            assert_eq!(s.id(), 1);
            s.run("SELECT grp, count(*) FROM t GROUP BY grp").unwrap(); // q1
            s.run("SELECT sum(qty) FROM t WHERE id < 100").unwrap(); // q6
            s.run("SELECT id FROM t WHERE id < 10").unwrap(); // scan
        }
        {
            let mut s2 = engine.session();
            assert_eq!(s2.id(), 2);
            s2.run("SELECT sum(qty) FROM t WHERE id < 100").unwrap();
        }
        let m = engine.mem_ref().metrics();
        assert_eq!(m.counter("session.1.queries"), 3);
        assert_eq!(m.counter("session.2.queries"), 1);
        for class in ["q1", "q6", "scan"] {
            let h = m
                .histogram(&format!("query.class.{class}.latency_cycles"))
                .unwrap_or_else(|| panic!("missing {class} histogram"));
            assert!(h.count() >= 1);
            assert!(h.sum() > 0, "queries cost simulated cycles");
            let p50 = m.gauge(&format!("query.class.{class}.p50_cycles")).unwrap();
            let p99 = m.gauge(&format!("query.class.{class}.p99_cycles")).unwrap();
            assert!(p50 > 0.0 && p99 >= p50, "{class}: p50 {p50} p99 {p99}");
        }
        // The q6 class pooled both sessions' runs globally…
        assert_eq!(
            m.histogram("query.class.q6.latency_cycles")
                .unwrap()
                .count(),
            2
        );
        // …while the per-session subtrees stayed separate.
        let snap = m.snapshot();
        assert_eq!(snap.subtree("session.1").histograms["latency.q6"].count, 1);
        assert_eq!(snap.subtree("session.2").histograms["latency.q6"].count, 1);
    }

    #[test]
    fn explain_analyze_appends_latency_and_recovery_sections() {
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut m = MemoryHierarchy::new(SimConfig::zynq_a53());
        let mut store =
            DurableStore::create(&mut m, schema.clone(), 64, DurabilityConfig::quiet(5), 0)
                .unwrap();
        for i in 0..4i64 {
            let mut t = store.begin();
            t.insert(vec![Value::I64(i), Value::F64(i as f64)]);
            store.commit(&mut m, t).unwrap();
        }
        let image = store.crash_image();
        let mut engine = Engine::new(SimConfig::zynq_a53());
        engine
            .open_recovered("orders", &schema, 64, image, DurabilityConfig::quiet(6), 0)
            .unwrap();
        let mut s = engine.session();
        s.run("SELECT sum(qty) FROM orders").unwrap();
        let text = s.explain_analyze("SELECT sum(qty) FROM orders").unwrap();
        assert!(text.contains("latency (cycle-domain"), "{text}");
        assert!(text.contains("q6 "), "{text}");
        assert!(text.contains("recovered tables:"), "{text}");
        assert!(text.contains("`orders`  watermark 4  commits 4"), "{text}");
    }

    #[test]
    fn explain_and_explain_analyze_render_through_the_session() {
        let mut engine = engine_with_data(2);
        let text = engine.session().explain("SELECT sum(qty) FROM t").unwrap();
        assert!(text.contains("Plan for `t`"), "{text}");
        let text = engine
            .session()
            .explain_analyze("SELECT sum(qty) FROM t WHERE id < 2000")
            .unwrap();
        assert!(text.contains("analyze:"), "{text}");
        assert!(text.contains("cores (chosen path):"), "{text}");
        assert!(text.contains("core 0"), "{text}");
        assert!(text.contains("top-down (chosen path):"), "{text}");
    }
}
