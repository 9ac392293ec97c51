//! The CPU-side memory port: caches + prefetcher + DRAM + time.
//!
//! Engines interact with simulated memory exclusively through
//! [`MemoryHierarchy`]:
//!
//! * [`MemoryHierarchy::read`] / [`MemoryHierarchy::write`] move real bytes
//!   *and* charge simulated cycles;
//! * [`MemoryHierarchy::cpu`] charges pure compute;
//! * the `*_untimed` variants load or inspect data without advancing time
//!   (used when populating tables, which the paper's experiments also do
//!   outside the measured window);
//! * [`MemoryHierarchy::stall_until`] lets device models (RM, the SSD
//!   controller) impose producer-side readiness on the consuming CPU.

use crate::arena::MemArena;
use crate::cache::SetAssocCache;
use crate::config::SimConfig;
use crate::dram::DramModel;
use crate::prefetch::StreamPrefetcher;
use crate::stats::MemStats;
use crate::Cycles;
use fabric_obs::{
    CalibLedger, Category, FabricRecorder, FlightRecorder, MetricsRegistry, MetricsSnapshot,
    NoopRecorder, Phase, Postmortem, QueryLog, TopDown, TraceEvent,
};
use fabric_types::{Addr, Result};

/// Per-operation CPU cost model (cycles), shared by all engines so that
/// compute is charged consistently.
///
/// The values approximate an in-order Cortex-A53: a virtual call plus
/// per-tuple bookkeeping for a Volcano `next()`, a couple of cycles for an
/// arithmetic op on a loaded value, and so on. They are deliberately simple;
/// the reproduction's claims rest on *ratios* between data-movement costs,
/// with compute providing realistic dilution.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OpCosts {
    /// Per-row overhead of a Volcano-style `next()` chain hop
    /// (virtual dispatch, tuple bookkeeping).
    pub volcano_next: Cycles,
    /// One arithmetic/comparison op on a register value.
    pub value_op: Cycles,
    /// Amortized per-element cost of a tight vectorized kernel on an
    /// in-order core (load + loop bookkeeping).
    pub vector_elem: Cycles,
    /// Per-value decode cost in a tuple-at-a-time engine (load + widen /
    /// convert into the tuple representation).
    pub decode: Cycles,
    /// Per-value tuple-reconstruction cost in a column store (stitching a
    /// value into an output tuple).
    pub reconstruct: Cycles,
    /// Mispredicted branch penalty (charged by engines on selective
    /// branches).
    pub branch_miss: Cycles,
    /// Per-batch fixed overhead of starting a vectorized primitive.
    pub vector_setup: Cycles,
    /// One double-precision arithmetic op (the A53 FPU has ~4-cycle FMA
    /// latency; aggregation kernels are chains of these).
    pub f64_op: Cycles,
    /// Per-row cost of hashing a group key and probing a hash table
    /// (excluding the memory traffic of very large tables, which the
    /// engines charge separately when applicable).
    pub hash_op: Cycles,
}

impl Default for OpCosts {
    fn default() -> Self {
        OpCosts {
            volcano_next: 6,
            value_op: 1,
            vector_elem: 2,
            decode: 2,
            reconstruct: 1,
            branch_miss: 8,
            vector_setup: 40,
            f64_op: 4,
            hash_op: 20,
        }
    }
}

/// One simulated core's private memory-system state: its L1, its stream
/// prefetcher, its logical clock, and the statistics it accumulated.
///
/// Cores share everything else — the L2, the DRAM controller, and the
/// arena — through [`MemoryHierarchy`]. There are no OS threads: cores are
/// *logical* contexts multiplexed by the (single-threaded) caller, each
/// advancing its own clock, reconciled at explicit barrier points
/// ([`MemoryHierarchy::join_clocks`]).
struct CoreCtx {
    l1: SetAssocCache,
    prefetcher: StreamPrefetcher,
    /// Private DRAM timing view (multi-core only): per-bank cursors and
    /// open-row state for *this core's* access stream. Latency is a
    /// per-stream property; shared-controller contention is modelled
    /// separately by the aggregate-bandwidth ledger, because a single set
    /// of shared cursors cannot be replayed out of order (the host
    /// simulates one core's whole morsel before the next core's, so a
    /// shared cursor would serialize parallel work behind the first
    /// core's entire timeline).
    dram: DramModel,
    now: Cycles,
    stats: MemStats,
}

impl CoreCtx {
    fn new(cfg: &SimConfig, now: Cycles) -> Self {
        CoreCtx {
            l1: SetAssocCache::new(cfg.l1_bytes, cfg.l1_assoc, cfg.line_size),
            prefetcher: StreamPrefetcher::new(cfg),
            dram: DramModel::new(cfg),
            now,
            stats: MemStats::default(),
        }
    }
}

/// The simulated CPU-side memory system.
///
/// Models N cores (default 1), each owning a private L1, stream
/// prefetcher, and DRAM timing view, sharing one L2, one DRAM controller,
/// and the arena. With more than one core the shared L2 port and DRAM
/// controller are finite resources: aggregate-bandwidth ledgers admit at
/// most one fill per port slot (and one DRAM line per
/// `t_row_hit / banks`) across all cores since the last fork point, so
/// parallel speedup saturates exactly when the shared fabric does. A
/// single-core hierarchy is cycle-identical to the original model.
///
/// Also the host of the workspace's observability spine: every engine
/// already threads a `&mut MemoryHierarchy`, so the trace recorder and the
/// metrics registry live here and are reachable from every instrumented
/// layer without new plumbing. Recording *never* advances `now` — a run
/// with a live recorder is cycle-identical to an un-instrumented one.
pub struct MemoryHierarchy {
    cfg: SimConfig,
    costs: OpCosts,
    arena: MemArena,
    cores: Vec<CoreCtx>,
    /// Index of the core all timed operations currently charge to.
    active: usize,
    l2: SetAssocCache,
    dram: DramModel,
    demand_overhead: Cycles,
    /// Start of the current parallel region (the last fork point): the
    /// bandwidth ledgers below meter shared throughput from this instant.
    shared_base: Cycles,
    /// Aggregate-bandwidth ledger for the shared L2 port (multi-core
    /// only): fills admitted since `shared_base`. The `k`-th fill cannot
    /// start before `shared_base + k * l2_port_cycles` — an
    /// order-insensitive cap on aggregate port throughput. A cursor
    /// ("port busy until cycle T") cannot be used here because cores are
    /// simulated one morsel at a time, not interleaved in virtual time;
    /// a counter ledger meters the same physical capacity regardless of
    /// the order morsels are replayed in.
    l2_port_fills: u64,
    /// Same ledger for the shared DRAM controller: lines fetched from
    /// DRAM (demand misses and consumed prefetches) since `shared_base`.
    /// The `k`-th line cannot arrive before
    /// `shared_base + k * t_row_hit / banks` — the controller's peak
    /// streaming throughput with all banks pipelined.
    dram_line_fills: u64,
    recorder: Box<dyn FabricRecorder>,
    /// Cached `recorder.enabled()` so hot paths pay one bool test.
    tracing: bool,
    metrics: MetricsRegistry,
    /// Always-on bounded event ring for postmortems (DESIGN.md §12):
    /// fed by every trace entry point regardless of `tracing`, so a
    /// failure can dump its recent history even on uninstrumented runs.
    flight: FlightRecorder,
    /// Engine-wide ring of per-query envelopes (DESIGN.md §17). Host-side
    /// bookkeeping: pushing a record never advances `now`.
    querylog: QueryLog,
    /// Per-(table, geometry, path) observed-cost history feeding the
    /// adaptive re-planner (DESIGN.md §17). Host-side, like `querylog`.
    calib: CalibLedger,
}

impl MemoryHierarchy {
    /// Build a single-core hierarchy with the default 4 GiB arena.
    pub fn new(cfg: SimConfig) -> Self {
        let l2 = SetAssocCache::new(cfg.l2_bytes, cfg.l2_assoc, cfg.line_size);
        let dram = DramModel::new(&cfg);
        let demand_overhead = cfg.ns_to_cycles(cfg.dram_demand_overhead_ns);
        let core0 = CoreCtx::new(&cfg, 0);
        MemoryHierarchy {
            cfg,
            costs: OpCosts::default(),
            arena: MemArena::new(),
            cores: vec![core0],
            active: 0,
            l2,
            dram,
            demand_overhead,
            shared_base: 0,
            l2_port_fills: 0,
            dram_line_fills: 0,
            recorder: Box::new(NoopRecorder),
            tracing: false,
            metrics: MetricsRegistry::new(),
            flight: FlightRecorder::default(),
            querylog: QueryLog::default(),
            calib: CalibLedger::default(),
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The shared per-operation cost model.
    pub fn costs(&self) -> OpCosts {
        self.costs
    }

    /// Override the cost model (ablation experiments).
    pub fn set_costs(&mut self, costs: OpCosts) {
        self.costs = costs;
    }

    /// Current simulated time in cycles (the active core's clock).
    pub fn now(&self) -> Cycles {
        self.cores[self.active].now
    }

    /// Nanoseconds between `t0` and now.
    pub fn ns_since(&self, t0: Cycles) -> f64 {
        self.cfg.cycles_to_ns(self.now() - t0)
    }

    /// Statistics so far, summed over all cores.
    pub fn stats(&self) -> MemStats {
        let mut total = MemStats::default();
        for c in &self.cores {
            total.accumulate(&c.stats);
        }
        total
    }

    // ----------------------------------------------------------- multi-core

    /// Reconfigure the number of simulated cores. Core 0 keeps its cache
    /// and prefetcher state; new cores start cold with their clock at the
    /// active core's current time. When shrinking, the dropped cores'
    /// statistics fold into core 0 so [`Self::stats`] stays monotonic.
    pub fn set_core_count(&mut self, n: usize) {
        let n = n.max(1);
        let now = self.now();
        while self.cores.len() < n {
            self.cores.push(CoreCtx::new(&self.cfg, now));
        }
        while self.cores.len() > n {
            let dropped = self.cores.pop().expect("len > n >= 1");
            let folded = dropped.stats;
            self.cores[0].stats.accumulate(&folded);
        }
        if self.active >= n {
            self.active = 0;
        }
        self.shared_base = now;
        self.l2_port_fills = 0;
        self.dram_line_fills = 0;
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Index of the core timed operations currently charge to.
    pub fn active_core(&self) -> usize {
        self.active
    }

    /// Switch the core that subsequent timed operations charge to.
    ///
    /// # Panics
    /// Panics if `i >= num_cores()` — scheduling onto a core that does not
    /// exist is a logic error in the caller.
    pub fn set_active_core(&mut self, i: usize) {
        assert!(i < self.cores.len(), "core {i} out of range");
        self.active = i;
    }

    /// Core `i`'s logical clock.
    pub fn core_now(&self, i: usize) -> Cycles {
        self.cores[i].now
    }

    /// Core `i`'s private statistics.
    pub fn core_stats(&self, i: usize) -> MemStats {
        self.cores[i].stats
    }

    /// Fork point: align every core's clock to the global frontier (the
    /// maximum across cores) so a parallel region starts from one instant.
    /// Returns the fork timestamp.
    pub fn fork_clocks(&mut self) -> Cycles {
        let t = self.cores.iter().map(|c| c.now).max().unwrap_or(0);
        for c in &mut self.cores {
            c.now = t;
        }
        self.shared_base = t;
        self.l2_port_fills = 0;
        self.dram_line_fills = 0;
        t
    }

    /// Barrier point: reconcile the per-core clocks to the global frontier
    /// (the maximum across cores — laggards were idle waiting). Returns
    /// the barrier timestamp; afterwards every core's clock equals it.
    pub fn join_clocks(&mut self) -> Cycles {
        self.fork_clocks()
    }

    // ------------------------------------------------------- observability

    /// Install a trace recorder (replacing the default no-op one). The
    /// recorder sees cycle-stamped events from every instrumented layer;
    /// it never advances simulated time.
    pub fn set_recorder(&mut self, recorder: Box<dyn FabricRecorder>) {
        self.tracing = recorder.enabled();
        self.recorder = recorder;
    }

    /// Remove the current recorder (to export its trace), leaving the
    /// no-op recorder behind.
    pub fn take_recorder(&mut self) -> Box<dyn FabricRecorder> {
        self.tracing = false;
        std::mem::replace(&mut self.recorder, Box::new(NoopRecorder))
    }

    /// Whether trace events are being recorded (cached; cheap to poll).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Export the current recorder's trace as Chrome trace-event JSON
    /// (`None` when the no-op recorder is installed).
    pub fn export_trace(&self) -> Option<String> {
        self.recorder.export_chrome_json()
    }

    /// Export the current recorder's folded-stack profile (`None` unless
    /// a [`fabric_obs::SamplingProfiler`] is installed).
    pub fn export_folded(&self) -> Option<String> {
        self.recorder.export_folded()
    }

    /// Sampling statistics of the installed profiler, if any.
    pub fn profile_stats(&self) -> Option<fabric_obs::ProfileStats> {
        self.recorder.profile_stats()
    }

    /// The workspace metrics registry hosted by this hierarchy.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access for instrumented layers recording counters,
    /// gauges, and histogram samples.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The engine-wide query log hosted by this hierarchy.
    pub fn querylog(&self) -> &QueryLog {
        &self.querylog
    }

    /// Mutable access for the executor pushing query records.
    pub fn querylog_mut(&mut self) -> &mut QueryLog {
        &mut self.querylog
    }

    /// The per-(table, geometry, path) cost-calibration ledger.
    pub fn calib(&self) -> &CalibLedger {
        &self.calib
    }

    /// Mutable access for the executor folding clean-cold observations.
    pub fn calib_mut(&mut self) -> &mut CalibLedger {
        &mut self.calib
    }

    /// Open a span at the current cycle.
    #[inline]
    pub fn trace_begin(&mut self, name: &'static str, cat: Category) {
        let now = self.now();
        self.flight
            .record(TraceEvent::new(Phase::Begin, now, name, cat, &[]));
        if self.tracing {
            self.recorder.begin(now, name, cat);
        }
    }

    /// Close a span at the current cycle, attaching `args`.
    #[inline]
    pub fn trace_end(&mut self, name: &'static str, cat: Category, args: &[(&'static str, u64)]) {
        let now = self.now();
        self.flight
            .record(TraceEvent::new(Phase::End, now, name, cat, args));
        if self.tracing {
            self.recorder.end(now, name, cat, args);
        }
    }

    /// Open a span at an explicit cycle timestamp (device models report
    /// phases that completed in the simulated past, e.g. a gather that ran
    /// while the CPU was elsewhere).
    #[inline]
    pub fn trace_begin_at(&mut self, ts: Cycles, name: &'static str, cat: Category) {
        self.flight
            .record(TraceEvent::new(Phase::Begin, ts, name, cat, &[]));
        if self.tracing {
            self.recorder.begin(ts, name, cat);
        }
    }

    /// Close a span at an explicit cycle timestamp.
    #[inline]
    pub fn trace_end_at(
        &mut self,
        ts: Cycles,
        name: &'static str,
        cat: Category,
        args: &[(&'static str, u64)],
    ) {
        self.flight
            .record(TraceEvent::new(Phase::End, ts, name, cat, args));
        if self.tracing {
            self.recorder.end(ts, name, cat, args);
        }
    }

    /// Record an instant event at the current cycle.
    #[inline]
    pub fn trace_instant(
        &mut self,
        name: &'static str,
        cat: Category,
        args: &[(&'static str, u64)],
    ) {
        let now = self.now();
        self.flight
            .record(TraceEvent::new(Phase::Instant, now, name, cat, args));
        if self.tracing {
            self.recorder.instant(now, name, cat, args);
        }
    }

    /// Sample a counter track at the current cycle.
    #[inline]
    pub fn trace_counter(&mut self, name: &'static str, cat: Category, value: u64) {
        let now = self.now();
        self.flight.record(TraceEvent::new(
            Phase::Counter,
            now,
            name,
            cat,
            &[("value", value)],
        ));
        if self.tracing {
            self.recorder.counter(now, name, cat, value);
        }
    }

    /// Run `f` inside a span, attributing the memory-hierarchy activity it
    /// caused — per-level hits, demand misses, stall cycles, bytes read —
    /// as args on the closing edge. This is how callers get per-level
    /// hit/miss/stall attribution without threading counters by hand.
    pub fn traced<R>(
        &mut self,
        name: &'static str,
        cat: Category,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let before = self.stats();
        self.trace_begin(name, cat);
        let out = f(self);
        let d = self.stats().delta_since(&before);
        self.trace_end(
            name,
            cat,
            &[
                ("l1_hits", d.l1_hits),
                ("l2_hits", d.l2_hits),
                ("prefetch_hits", d.prefetch_hits),
                ("demand_misses", d.demand_misses),
                ("stall_cycles", d.stall_cycles),
                ("bytes_read", d.bytes_read),
            ],
        );
        out
    }

    // ----------------------------------------------------- flight recorder

    /// Arm the flight recorder at the start of a measured window: a
    /// postmortem taken later reports the metrics delta since this call.
    /// O(1) — a mark on the metrics registry, never a snapshot.
    pub fn flight_arm(&mut self) {
        self.metrics.mark();
    }

    /// Capture a postmortem artifact (last-N events, metrics delta,
    /// top-down breakdown, fault timeline) and count the dump in the
    /// metrics registry. Triggered by the resilience layer on
    /// degradation, breaker trips, and CRC failures.
    pub fn flight_dump(&mut self, reason: &'static str) {
        let now = self.now();
        let td = self.topdown_now();
        let metrics = self.flight_metrics();
        self.flight.dump(reason, now, &metrics, &td);
        self.metrics.counter_add("flight.dumps", 1);
    }

    /// [`MemoryHierarchy::flight_dump`] with a caller-supplied JSON
    /// context document (e.g. a recovery report) embedded in the
    /// postmortem under `"context"`.
    pub fn flight_dump_with(&mut self, reason: &'static str, context: String) {
        let now = self.now();
        let td = self.topdown_now();
        let metrics = self.flight_metrics();
        self.flight
            .dump_with_context(reason, now, &metrics, &td, Some(context));
        self.metrics.counter_add("flight.dumps", 1);
    }

    /// The metrics a postmortem reports: the delta since the last
    /// [`MemoryHierarchy::flight_arm`], or the full snapshot when the
    /// recorder was never armed.
    fn flight_metrics(&self) -> MetricsSnapshot {
        if self.metrics.is_marked() {
            self.metrics.delta_since_mark()
        } else {
            self.metrics.snapshot()
        }
    }

    /// The flight recorder (to inspect or drain postmortems).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Drain the retained postmortem artifacts, oldest first.
    pub fn take_postmortems(&mut self) -> Vec<Postmortem> {
        self.flight.take_postmortems()
    }

    /// Cumulative top-down breakdown per core (no idle attribution —
    /// barrier waits are attributed by the query layer, which owns the
    /// fork/join windows). Used for mid-query postmortems.
    pub fn topdown_now(&self) -> TopDown {
        TopDown {
            cores: self
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| c.stats.topdown(i, 0))
                .collect(),
        }
    }

    // ---------------------------------------------------------------- time

    /// Charge `cycles` of CPU compute (to the active core).
    #[inline]
    pub fn cpu(&mut self, cycles: Cycles) {
        let core = &mut self.cores[self.active];
        core.now += cycles;
        core.stats.cpu_cycles += cycles;
    }

    /// Charge a vectorized primitive: one `vector_setup` for the whole
    /// invocation plus `per_elem` cycles for each of `elems` elements,
    /// attributed to the active core as CPU compute. The staged executor's
    /// branch-free kernels (DESIGN.md §16) charge through here so "set up
    /// once, stream many" has a single attributable charge site.
    #[inline]
    pub fn cpu_vector(&mut self, elems: u64, per_elem: Cycles) {
        let cycles = self.costs.vector_setup + elems * per_elem;
        let core = &mut self.cores[self.active];
        core.now += cycles;
        core.stats.cpu_cycles += cycles;
    }

    /// Block until simulated time `t` (no-op if already past); the waited
    /// cycles are accounted as memory stall, attributed to the
    /// producer-device bucket. Device models use this to make the CPU wait
    /// for data they have not produced yet.
    #[inline]
    pub fn stall_until(&mut self, t: Cycles) {
        let core = &mut self.cores[self.active];
        if t > core.now {
            core.stats.stall_cycles += t - core.now;
            core.stats.stall_device_cycles += t - core.now;
            core.now = t;
        }
    }

    /// Like [`Self::stall_until`], but the waited cycles are attributed to
    /// the fault-retry bucket. Recovery policies use this for backoff so
    /// top-down accounting can separate "the device was slow" from "we
    /// were re-trying after a fault".
    #[inline]
    pub fn stall_retry_until(&mut self, t: Cycles) {
        let core = &mut self.cores[self.active];
        if t > core.now {
            core.stats.stall_cycles += t - core.now;
            core.stats.stall_retry_cycles += t - core.now;
            core.now = t;
        }
    }

    /// Internal: wait for DRAM data (demand or prefetch completion),
    /// attributed to the DRAM-wait bucket.
    #[inline]
    fn stall_dram_until(&mut self, t: Cycles) {
        let core = &mut self.cores[self.active];
        if t > core.now {
            core.stats.stall_cycles += t - core.now;
            core.stats.stall_dram_cycles += t - core.now;
            core.now = t;
        }
    }

    // -------------------------------------------------------------- memory

    /// Allocate arena memory (cache-line aligned by default callers).
    pub fn alloc(&mut self, len: usize, align: usize) -> Result<Addr> {
        self.arena.alloc(len, align)
    }

    /// Charge the timing for reading `[addr, addr+len)` without touching
    /// the data. Combined with [`Self::bytes`] this is the zero-copy path.
    pub fn touch_read(&mut self, addr: Addr, len: usize) {
        self.cores[self.active].stats.bytes_read += len as u64;
        self.for_each_line(addr, len);
    }

    /// Charge the timing for writing `[addr, addr+len)` (write-allocate:
    /// same line traffic as a read).
    pub fn touch_write(&mut self, addr: Addr, len: usize) {
        self.cores[self.active].stats.bytes_written += len as u64;
        self.for_each_line(addr, len);
    }

    /// Charge the timing for reading several *independent* spans at once,
    /// letting their cache misses overlap (non-blocking caches / MLP).
    ///
    /// This models the load-level parallelism of a tuple-reconstruction
    /// loop: the `p` column loads of one output tuple have no data
    /// dependencies, so even an in-order core overlaps their line fills.
    /// Hits are charged serially (they are latency, not occupancy); misses
    /// issue together and the CPU stalls once for the slowest.
    pub fn touch_read_gather(&mut self, parts: &[(Addr, usize)]) {
        let MemoryHierarchy {
            cfg,
            cores,
            active,
            l2,
            dram,
            demand_overhead,
            shared_base,
            l2_port_fills,
            dram_line_fills,
            ..
        } = self;
        let multi = cores.len() > 1;
        let CoreCtx {
            l1,
            prefetcher,
            dram: core_dram,
            now,
            stats,
        } = &mut cores[*active];
        // Same shared-resource model as `access_line`: the port and DRAM
        // ledgers meter aggregate throughput; latency comes from the
        // core's private DRAM view in multi-core mode.
        let dram = if multi { core_dram } else { dram };
        let line = cfg.line_size as u64;
        let mut max_done = *now;
        for &(addr, len) in parts {
            if len == 0 {
                continue;
            }
            stats.bytes_read += len as u64;
            let first = addr & !(line - 1);
            let last = (addr + len as u64 - 1) & !(line - 1);
            let mut la = first;
            loop {
                stats.line_accesses += 1;
                if l1.probe(la) {
                    stats.l1_hits += 1;
                    *now += cfg.l1_hit_cycles;
                    stats.mem_lat_cycles += cfg.l1_hit_cycles;
                    stats.lat_l1_cycles += cfg.l1_hit_cycles;
                } else {
                    // Past the private L1: the shared L2 port ledger.
                    if multi {
                        let floor = *shared_base + *l2_port_fills * cfg.l2_port_cycles;
                        if floor > *now {
                            stats.stall_cycles += floor - *now;
                            stats.stall_bw_cycles += floor - *now;
                            *now = floor;
                        }
                        *l2_port_fills += 1;
                    }
                    if l2.probe(la) {
                        stats.l2_hits += 1;
                        *now += cfg.l2_hit_cycles;
                        stats.mem_lat_cycles += cfg.l2_hit_cycles;
                        stats.lat_l2_cycles += cfg.l2_hit_cycles;
                        l1.fill(la);
                    } else {
                        // The line comes from DRAM: meter the shared
                        // controller's aggregate streaming bandwidth.
                        if multi {
                            let floor = *shared_base
                                + *dram_line_fills * dram.t_row_hit() / cfg.dram_banks as u64;
                            if floor > *now {
                                stats.stall_cycles += floor - *now;
                                stats.stall_bw_cycles += floor - *now;
                                *now = floor;
                            }
                            *dram_line_fills += 1;
                        }
                        if let Some(ready) = prefetcher.take_inflight(la) {
                            stats.prefetch_hits += 1;
                            *now += cfg.l2_hit_cycles;
                            stats.mem_lat_cycles += cfg.l2_hit_cycles;
                            stats.lat_l2_cycles += cfg.l2_hit_cycles;
                            max_done = max_done.max(ready);
                            l2.fill(la);
                            l1.fill(la);
                            prefetcher.observe(la, *now, dram);
                        } else {
                            stats.demand_misses += 1;
                            // Issue slot occupies the core briefly;
                            // completion is awaited collectively below.
                            *now += cfg.l1_hit_cycles;
                            stats.mem_lat_cycles += cfg.l1_hit_cycles;
                            stats.lat_l1_cycles += cfg.l1_hit_cycles;
                            let done = dram.access(la, *now) + *demand_overhead;
                            max_done = max_done.max(done);
                            l2.fill(la);
                            l1.fill(la);
                            prefetcher.observe(la, *now, dram);
                        }
                    }
                }
                if la == last {
                    break;
                }
                la += line;
            }
        }
        self.stall_dram_until(max_done);
    }

    /// Raw data view without timing (pair with [`Self::touch_read`]).
    #[inline]
    pub fn bytes(&self, addr: Addr, len: usize) -> &[u8] {
        self.arena.slice(addr, len)
    }

    /// Timed read: charges timing and returns the bytes.
    pub fn read(&mut self, addr: Addr, len: usize) -> &[u8] {
        self.touch_read(addr, len);
        self.arena.slice(addr, len)
    }

    /// Timed read into a caller-provided buffer.
    pub fn read_into(&mut self, addr: Addr, buf: &mut [u8]) {
        self.touch_read(addr, buf.len());
        buf.copy_from_slice(self.arena.slice(addr, buf.len()));
    }

    /// Timed write.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        self.touch_write(addr, data.len());
        self.arena.write(addr, data);
    }

    /// Untimed write, for loading data sets outside the measured window.
    pub fn write_untimed(&mut self, addr: Addr, data: &[u8]) {
        self.arena.write(addr, data);
    }

    /// Untimed read (inspection / verification).
    pub fn read_untimed(&self, addr: Addr, len: usize) -> &[u8] {
        self.arena.slice(addr, len)
    }

    /// Direct arena access for loaders.
    pub fn arena_mut(&mut self) -> &mut MemArena {
        &mut self.arena
    }

    /// Direct arena access for device models (they read source data
    /// without CPU-side timing; their timing runs through their own
    /// [`DramModel`]).
    pub fn arena(&self) -> &MemArena {
        &self.arena
    }

    /// A fresh DRAM model with identical geometry, for a near-data device
    /// that has its own memory port.
    pub fn device_dram(&self) -> DramModel {
        DramModel::new(&self.cfg)
    }

    /// Drop all cached state and prefetcher training (between experiments),
    /// without resetting time or the arena contents. Flushes every core's
    /// private L1 and prefetcher plus the shared L2/DRAM.
    pub fn flush_caches(&mut self) {
        for c in &mut self.cores {
            c.l1.flush();
            c.prefetcher.reset();
            c.dram.reset();
        }
        self.l2.flush();
        self.dram.reset();
        self.shared_base = self.cores.iter().map(|c| c.now).max().unwrap_or(0);
        self.l2_port_fills = 0;
        self.dram_line_fills = 0;
    }

    // ------------------------------------------------------------ internals

    #[inline]
    fn for_each_line(&mut self, addr: Addr, len: usize) {
        if len == 0 {
            return;
        }
        let line = self.cfg.line_size as u64;
        let first = addr & !(line - 1);
        let last = (addr + len as u64 - 1) & !(line - 1);
        let mut la = first;
        loop {
            self.access_line(la);
            if la == last {
                break;
            }
            la += line;
        }
    }

    fn access_line(&mut self, line_addr: u64) {
        let MemoryHierarchy {
            cfg,
            cores,
            active,
            l2,
            dram,
            demand_overhead,
            shared_base,
            l2_port_fills,
            dram_line_fills,
            ..
        } = self;
        let multi = cores.len() > 1;
        let CoreCtx {
            l1,
            prefetcher,
            dram: core_dram,
            now,
            stats,
        } = &mut cores[*active];
        stats.line_accesses += 1;
        if l1.probe(line_addr) {
            stats.l1_hits += 1;
            *now += cfg.l1_hit_cycles;
            stats.mem_lat_cycles += cfg.l1_hit_cycles;
            stats.lat_l1_cycles += cfg.l1_hit_cycles;
            return;
        }
        // Past the private L1: every fill crosses the shared L2 port.
        // With more than one core the port is a finite resource — the
        // ledger admits at most one fill per `l2_port_cycles` across all
        // cores since the fork point (see the field docs for why this is
        // a counter, not a busy-until cursor).
        if multi {
            let floor = *shared_base + *l2_port_fills * cfg.l2_port_cycles;
            if floor > *now {
                stats.stall_cycles += floor - *now;
                stats.stall_bw_cycles += floor - *now;
                *now = floor;
            }
            *l2_port_fills += 1;
        }
        // Latency past L2 is a per-stream property: in multi-core mode it
        // comes from this core's private DRAM timing view, while the
        // shared controller's capacity is metered by the ledger above.
        let dram = if multi { core_dram } else { dram };
        if l2.probe(line_addr) {
            stats.l2_hits += 1;
            *now += cfg.l2_hit_cycles;
            stats.mem_lat_cycles += cfg.l2_hit_cycles;
            stats.lat_l2_cycles += cfg.l2_hit_cycles;
            l1.fill(line_addr);
            return;
        }
        // The line comes from DRAM (prefetched or on demand): meter the
        // shared controller's aggregate streaming bandwidth.
        if multi {
            let floor = *shared_base + *dram_line_fills * dram.t_row_hit() / cfg.dram_banks as u64;
            if floor > *now {
                stats.stall_cycles += floor - *now;
                stats.stall_bw_cycles += floor - *now;
                *now = floor;
            }
            *dram_line_fills += 1;
        }
        if let Some(ready) = prefetcher.take_inflight(line_addr) {
            // The prefetch is (or will be) in L2; wait for it if needed,
            // then pay the L2-to-L1 transfer.
            stats.prefetch_hits += 1;
            if ready > *now {
                stats.stall_cycles += ready - *now;
                stats.stall_dram_cycles += ready - *now;
                *now = ready;
            }
            *now += cfg.l2_hit_cycles;
            stats.mem_lat_cycles += cfg.l2_hit_cycles;
            stats.lat_l2_cycles += cfg.l2_hit_cycles;
            l2.fill(line_addr);
            l1.fill(line_addr);
            prefetcher.observe(line_addr, *now, dram);
            return;
        }
        // Full demand miss.
        stats.demand_misses += 1;
        let done = dram.access(line_addr, *now);
        let arrive = done + *demand_overhead;
        stats.stall_cycles += arrive - *now;
        stats.stall_dram_cycles += arrive - *now;
        *now = arrive;
        l2.fill(line_addr);
        l1.fill(line_addr);
        prefetcher.observe(line_addr, *now, dram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::zynq_a53())
    }

    #[test]
    fn read_returns_real_bytes_and_advances_time() {
        let mut m = hierarchy();
        let p = m.alloc(128, 64).unwrap();
        m.write_untimed(p, &[7u8; 128]);
        let t0 = m.now();
        let data = m.read(p, 128);
        assert!(data.iter().all(|&b| b == 7));
        assert!(m.now() > t0);
        assert_eq!(m.stats().bytes_read, 128);
        assert_eq!(m.stats().line_accesses, 2);
    }

    #[test]
    fn second_read_hits_l1_and_is_cheap() {
        let mut m = hierarchy();
        let p = m.alloc(64, 64).unwrap();
        m.touch_read(p, 64);
        let t0 = m.now();
        m.touch_read(p, 64);
        assert_eq!(m.now() - t0, SimConfig::zynq_a53().l1_hit_cycles);
        assert_eq!(m.stats().l1_hits, 1);
    }

    #[test]
    fn cpu_charges_compute() {
        let mut m = hierarchy();
        let t0 = m.now();
        m.cpu(100);
        assert_eq!(m.now() - t0, 100);
        assert_eq!(m.stats().cpu_cycles, 100);
    }

    #[test]
    fn stall_until_only_moves_forward() {
        let mut m = hierarchy();
        m.cpu(1000);
        m.stall_until(500); // in the past: no-op
        assert_eq!(m.now(), 1000);
        m.stall_until(1500);
        assert_eq!(m.now(), 1500);
        assert_eq!(m.stats().stall_cycles, 500);
    }

    #[test]
    fn sequential_scan_gets_prefetched() {
        let mut m = hierarchy();
        let n = 512 * 1024;
        let p = m.alloc(n, 64).unwrap();
        // Stream through half a MB line by line.
        for i in 0..(n / 64) {
            m.touch_read(p + (i * 64) as u64, 64);
        }
        let s = m.stats();
        assert!(
            s.prefetch_hits > s.demand_misses * 10,
            "sequential scan should be mostly prefetch hits: {s:?}"
        );
    }

    #[test]
    fn big_random_pattern_mostly_misses() {
        let mut m = hierarchy();
        let n = 8 * 1024 * 1024;
        let p = m.alloc(n, 64).unwrap();
        // A deliberately non-sequential pattern (large co-prime hops).
        let lines = (n / 64) as u64;
        let mut idx = 0u64;
        let mut demand_t0 = m.stats().demand_misses;
        for _ in 0..4096 {
            idx = (idx + 2_654_435_761) % lines;
            m.touch_read(p + idx * 64, 64);
        }
        demand_t0 = m.stats().demand_misses - demand_t0;
        assert!(
            demand_t0 > 3500,
            "random pattern should demand-miss: {demand_t0}"
        );
    }

    #[test]
    fn flush_caches_forces_misses_again() {
        let mut m = hierarchy();
        let p = m.alloc(64, 64).unwrap();
        m.touch_read(p, 64);
        m.flush_caches();
        let misses0 = m.stats().demand_misses;
        m.touch_read(p, 64);
        assert_eq!(m.stats().demand_misses, misses0 + 1);
    }

    #[test]
    fn working_set_in_l2_hits_l2() {
        let mut m = hierarchy();
        let n = 256 * 1024; // fits in 1 MB L2, not in 32 KB L1
        let p = m.alloc(n, 64).unwrap();
        for i in 0..(n / 64) {
            m.touch_read(p + (i * 64) as u64, 64);
        }
        // Second pass: should be L2 hits (L1 too small).
        let before = m.stats();
        for i in 0..(n / 64) {
            m.touch_read(p + (i * 64) as u64, 64);
        }
        let d = m.stats().delta_since(&before);
        assert!(
            d.l2_hits > (n / 64) as u64 * 8 / 10,
            "expected mostly L2 hits: {d:?}"
        );
    }

    #[test]
    fn untimed_accessors_do_not_advance_time() {
        let mut m = hierarchy();
        let p = m.alloc(64, 64).unwrap();
        let t0 = m.now();
        m.write_untimed(p, &[1u8; 64]);
        let _ = m.read_untimed(p, 64);
        assert_eq!(m.now(), t0);
    }

    #[test]
    fn recorder_never_advances_time() {
        let mut bare = hierarchy();
        let mut traced = hierarchy();
        traced.set_recorder(Box::new(crate::RingRecorder::new(256)));
        for m in [&mut bare, &mut traced] {
            let p = m.alloc(4096, 64).unwrap();
            m.traced("scan", Category::Mem, |m| {
                m.touch_read(p, 4096);
                m.cpu(100);
            });
            m.trace_instant("tick", Category::Fault, &[("k", 1)]);
        }
        assert_eq!(bare.now(), traced.now(), "recording must be cycle-free");
        assert_eq!(bare.stats(), traced.stats());
        assert!(traced.tracing() && !bare.tracing());
    }

    #[test]
    fn traced_span_attributes_hierarchy_activity() {
        let mut m = hierarchy();
        m.set_recorder(Box::new(crate::RingRecorder::new(64)));
        let p = m.alloc(256, 64).unwrap();
        m.traced("scan", Category::Mem, |m| m.touch_read(p, 256));
        let json = m.export_trace().expect("ring recorder exports");
        let summary = fabric_obs::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!((summary.begins, summary.ends), (1, 1));
        // The closing edge carries per-level attribution.
        assert!(json.contains("\"demand_misses\""), "{json}");
        assert!(json.contains("\"stall_cycles\""), "{json}");
        let rec = m.take_recorder();
        assert!(!m.tracing());
        assert_eq!(rec.export_chrome_json().as_deref(), Some(json.as_str()));
        assert!(m.export_trace().is_none(), "noop recorder exports nothing");
    }

    #[test]
    fn metrics_registry_is_hosted() {
        let mut m = hierarchy();
        m.metrics_mut().counter_add("mem.test", 3);
        m.stats().record_into(m.metrics_mut(), "mem");
        assert_eq!(m.metrics().counter("mem.test"), 3);
        let snap = m.metrics().snapshot();
        assert!(snap.counters.contains_key("mem.cpu_cycles"));
    }

    #[test]
    fn single_core_never_pays_the_l2_port() {
        // One core must be cycle-identical to the pre-multi-core model:
        // the shared-port arbitration is gated on `num_cores() > 1`.
        let mut a = hierarchy();
        let mut b = hierarchy();
        b.set_core_count(1);
        for m in [&mut a, &mut b] {
            let p = m.alloc(64 * 1024, 64).unwrap();
            for i in 0..1024u64 {
                m.touch_read(p + i * 64, 64);
            }
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn core_clock_advance_is_fully_attributed() {
        // Δnow == Δ(cpu + stall + mem_lat) on every core, which is what
        // lets EXPLAIN ANALYZE reconcile per-core busy time with the
        // global clock.
        let mut m = hierarchy();
        m.set_core_count(4);
        m.fork_clocks();
        let mut snaps = Vec::new();
        for i in 0..4 {
            snaps.push((m.core_now(i), m.core_stats(i)));
        }
        let p = m.alloc(1 << 20, 64).unwrap();
        for i in 0..4 {
            m.set_active_core(i);
            let base = p + (i as u64) * 256 * 1024;
            for l in 0..4096u64 {
                m.touch_read(base + l * 64, 64);
            }
            m.cpu(1000);
        }
        for i in 0..4 {
            let (t0, s0) = snaps[i];
            let d = m.core_stats(i).delta_since(&s0);
            assert_eq!(
                m.core_now(i) - t0,
                d.busy_cycles(),
                "core {i} clock advance must equal cpu+stall+mem_lat"
            );
        }
        let t = m.join_clocks();
        for i in 0..4 {
            assert_eq!(m.core_now(i), t);
        }
        m.set_active_core(0);
    }

    #[test]
    fn parallel_streams_under_the_bandwidth_cap_run_at_full_speed() {
        // A second core streaming a disjoint region must not slow the
        // first one down while the shared port and DRAM controller are
        // below their aggregate-throughput caps: core 0's timeline is
        // cycle-identical to a solo run over the same addresses.
        let solo = {
            let mut m = hierarchy();
            let p = m.alloc(1 << 20, 64).unwrap();
            m.flush_caches();
            let t0 = m.now();
            for l in 0..4096u64 {
                m.touch_read(p + l * 64, 64);
            }
            m.now() - t0
        };
        let mut m = hierarchy();
        m.set_core_count(2);
        let p = m.alloc(1 << 20, 64).unwrap();
        m.flush_caches();
        let t0 = m.fork_clocks();
        for l in 0..4096u64 {
            for c in 0..2u64 {
                m.set_active_core(c as usize);
                m.touch_read(p + c * 512 * 1024 + l * 64, 64);
            }
        }
        let core0 = m.core_now(0) - t0;
        assert_eq!(
            core0, solo,
            "an under-cap parallel stream must run at solo speed"
        );
        m.set_active_core(0);
        m.join_clocks();
    }

    #[test]
    fn saturated_l2_port_caps_aggregate_throughput() {
        // Narrow the shared port so two streaming cores exceed its
        // aggregate bandwidth: the ledger must stretch the parallel
        // region to at least `fills * port` cycles, and past what either
        // core would take alone.
        let cfg = SimConfig {
            l2_port_cycles: 40,
            ..SimConfig::zynq_a53()
        };
        let solo = {
            let mut m = MemoryHierarchy::new(cfg.clone());
            let p = m.alloc(1 << 20, 64).unwrap();
            m.flush_caches();
            let t0 = m.now();
            for l in 0..4096u64 {
                m.touch_read(p + l * 64, 64);
            }
            m.now() - t0
        };
        let mut m = MemoryHierarchy::new(cfg.clone());
        m.set_core_count(2);
        let p = m.alloc(1 << 20, 64).unwrap();
        m.flush_caches();
        let t0 = m.fork_clocks();
        for l in 0..4096u64 {
            for c in 0..2u64 {
                m.set_active_core(c as usize);
                m.touch_read(p + c * 512 * 1024 + l * 64, 64);
            }
        }
        m.set_active_core(0);
        let contended = m.join_clocks() - t0;
        assert!(
            contended >= (2 * 4096 - 1) * cfg.l2_port_cycles,
            "a saturated port must admit at most one fill per slot \
             ({contended} < {})",
            (2 * 4096 - 1) * cfg.l2_port_cycles
        );
        assert!(
            contended > solo,
            "two over-cap streams ({contended}) must exceed one solo stream ({solo})"
        );
    }

    #[test]
    fn saturated_dram_controller_caps_aggregate_throughput() {
        // A single-bank DRAM gives the controller no pipelining: four
        // cold streams must serialize at one line per `t_row_hit`.
        let cfg = SimConfig {
            dram_banks: 1,
            ..SimConfig::zynq_a53()
        };
        let t_hit = cfg.ns_to_cycles(cfg.dram_row_hit_ns);
        let mut m = MemoryHierarchy::new(cfg);
        m.set_core_count(4);
        let p = m.alloc(1 << 20, 64).unwrap();
        m.flush_caches();
        let t0 = m.fork_clocks();
        for l in 0..1024u64 {
            for c in 0..4u64 {
                m.set_active_core(c as usize);
                m.touch_read(p + c * 256 * 1024 + l * 64, 64);
            }
        }
        m.set_active_core(0);
        let elapsed = m.join_clocks() - t0;
        assert!(
            elapsed >= (4 * 1024 - 1) * t_hit,
            "a saturated single-bank controller must admit at most one \
             line per t_row_hit ({elapsed} < {})",
            (4 * 1024 - 1) * t_hit
        );
    }

    #[test]
    fn set_core_count_folds_stats_and_keeps_them_monotonic() {
        let mut m = hierarchy();
        m.set_core_count(3);
        let p = m.alloc(4096, 64).unwrap();
        m.set_active_core(2);
        m.touch_read(p, 4096);
        m.cpu(50);
        let before = m.stats();
        m.set_active_core(0);
        m.set_core_count(1);
        assert_eq!(m.num_cores(), 1);
        assert_eq!(m.stats(), before, "shrinking must not lose statistics");
        assert_eq!(m.active_core(), 0);
    }

    #[test]
    fn fork_aligns_new_cores_to_the_frontier() {
        let mut m = hierarchy();
        m.cpu(500);
        m.set_core_count(2);
        assert_eq!(m.core_now(1), 500);
        m.cpu(100); // core 0 runs ahead
        let t = m.fork_clocks();
        assert_eq!(t, 600);
        assert_eq!(m.core_now(0), m.core_now(1));
    }

    #[test]
    fn zero_length_access_is_free() {
        let mut m = hierarchy();
        let p = m.alloc(64, 64).unwrap();
        let t0 = m.now();
        m.touch_read(p, 0);
        assert_eq!(m.now(), t0);
        assert_eq!(m.stats().line_accesses, 0);
    }
}
