//! Counters describing what the simulated hierarchy did.

/// Traffic and timing statistics accumulated by a
/// [`crate::hierarchy::MemoryHierarchy`].
///
/// All counters are monotonically increasing; snapshot-and-subtract
/// ([`MemStats::delta_since`]) to measure one experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MemStats {
    /// Lines serviced by L1.
    pub l1_hits: u64,
    /// Lines serviced by L2.
    pub l2_hits: u64,
    /// Lines serviced by an in-flight prefetch.
    pub prefetch_hits: u64,
    /// Lines that paid the full demand-miss path to DRAM.
    pub demand_misses: u64,
    /// Total line-granularity accesses (sum of the four above).
    pub line_accesses: u64,
    /// Bytes requested by reads (payload, not line-rounded).
    pub bytes_read: u64,
    /// Bytes requested by writes.
    pub bytes_written: u64,
    /// Cycles explicitly charged as CPU compute.
    pub cpu_cycles: u64,
    /// Cycles the CPU spent stalled on memory.
    pub stall_cycles: u64,
    /// Cycles spent in cache-hit latency (L1/L2 hit service time and miss
    /// issue slots). Together with `cpu_cycles` and `stall_cycles` this
    /// accounts for every cycle a core's clock advances:
    /// `Δnow == Δ(cpu_cycles + stall_cycles + mem_lat_cycles)`.
    pub mem_lat_cycles: u64,
    /// Stall cycles waiting on a shared-fabric bandwidth ledger (the L2
    /// port or the DRAM controller's aggregate-throughput cap). One of
    /// four sub-buckets that partition `stall_cycles` exactly:
    /// `stall_cycles == stall_bw + stall_dram + stall_device + stall_retry`.
    pub stall_bw_cycles: u64,
    /// Stall cycles waiting for DRAM data to arrive (demand-miss latency
    /// and in-flight prefetch completion).
    pub stall_dram_cycles: u64,
    /// Stall cycles waiting on a producer-side device (RM engine beat,
    /// SSD controller, bus transfer) via [`stall_until`].
    ///
    /// [`stall_until`]: crate::hierarchy::MemoryHierarchy::stall_until
    pub stall_device_cycles: u64,
    /// Stall cycles spent in fault-retry backoff via [`stall_retry_until`].
    ///
    /// [`stall_retry_until`]: crate::hierarchy::MemoryHierarchy::stall_retry_until
    pub stall_retry_cycles: u64,
    /// L1-service portion of `mem_lat_cycles` (L1 hits and miss issue
    /// slots). With `lat_l2_cycles` it partitions `mem_lat_cycles`
    /// exactly: `mem_lat_cycles == lat_l1 + lat_l2`.
    pub lat_l1_cycles: u64,
    /// L2-service portion of `mem_lat_cycles` (L2 hits and L2-to-L1
    /// transfers of completed prefetches).
    pub lat_l2_cycles: u64,
}

impl MemStats {
    /// Counter-wise difference (`self - earlier`).
    pub fn delta_since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            l1_hits: self.l1_hits - earlier.l1_hits,
            l2_hits: self.l2_hits - earlier.l2_hits,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
            demand_misses: self.demand_misses - earlier.demand_misses,
            line_accesses: self.line_accesses - earlier.line_accesses,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            cpu_cycles: self.cpu_cycles - earlier.cpu_cycles,
            stall_cycles: self.stall_cycles - earlier.stall_cycles,
            mem_lat_cycles: self.mem_lat_cycles - earlier.mem_lat_cycles,
            stall_bw_cycles: self.stall_bw_cycles - earlier.stall_bw_cycles,
            stall_dram_cycles: self.stall_dram_cycles - earlier.stall_dram_cycles,
            stall_device_cycles: self.stall_device_cycles - earlier.stall_device_cycles,
            stall_retry_cycles: self.stall_retry_cycles - earlier.stall_retry_cycles,
            lat_l1_cycles: self.lat_l1_cycles - earlier.lat_l1_cycles,
            lat_l2_cycles: self.lat_l2_cycles - earlier.lat_l2_cycles,
        }
    }

    /// Counter-wise accumulation (`self += other`); used to aggregate
    /// per-core statistics into a hierarchy-wide view.
    pub fn accumulate(&mut self, other: &MemStats) {
        self.l1_hits += other.l1_hits;
        self.l2_hits += other.l2_hits;
        self.prefetch_hits += other.prefetch_hits;
        self.demand_misses += other.demand_misses;
        self.line_accesses += other.line_accesses;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.cpu_cycles += other.cpu_cycles;
        self.stall_cycles += other.stall_cycles;
        self.mem_lat_cycles += other.mem_lat_cycles;
        self.stall_bw_cycles += other.stall_bw_cycles;
        self.stall_dram_cycles += other.stall_dram_cycles;
        self.stall_device_cycles += other.stall_device_cycles;
        self.stall_retry_cycles += other.stall_retry_cycles;
        self.lat_l1_cycles += other.lat_l1_cycles;
        self.lat_l2_cycles += other.lat_l2_cycles;
    }

    /// Cycles this core's clock advanced: compute + stalls + cache-hit
    /// service latency.
    pub fn busy_cycles(&self) -> u64 {
        self.cpu_cycles + self.stall_cycles + self.mem_lat_cycles
    }

    /// Check the sub-bucket partitions: the four stall buckets must sum
    /// exactly to `stall_cycles` and the two latency buckets to
    /// `mem_lat_cycles`. Every charge site in the hierarchy maintains
    /// this; the top-down accounting asserts it.
    pub fn buckets_reconcile(&self) -> bool {
        self.stall_bw_cycles
            + self.stall_dram_cycles
            + self.stall_device_cycles
            + self.stall_retry_cycles
            == self.stall_cycles
            && self.lat_l1_cycles + self.lat_l2_cycles == self.mem_lat_cycles
    }

    /// Bytes of cache-line traffic that actually crossed the memory bus
    /// (demand misses + prefetch fills), assuming `line_size`-byte lines.
    pub fn dram_traffic_bytes(&self, line_size: usize) -> u64 {
        (self.demand_misses + self.prefetch_hits) * line_size as u64
    }

    /// Fraction of line accesses that hit in L1.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.line_accesses == 0 {
            return 0.0;
        }
        self.l1_hits as f64 / self.line_accesses as f64
    }

    /// This window's top-down breakdown (DESIGN.md §12): maps the stat
    /// buckets onto the Level-1/Level-2 taxonomy. `idle_cycles` is the
    /// barrier wait attributed by the caller (0 outside a parallel
    /// region); `elapsed == busy_cycles() + idle_cycles` by construction,
    /// so the result always satisfies [`fabric_obs::TopDownCore::verify`]
    /// when the sub-bucket partitions hold ([`Self::buckets_reconcile`]).
    pub fn topdown(&self, core: usize, idle_cycles: u64) -> fabric_obs::TopDownCore {
        fabric_obs::TopDownCore {
            core,
            retired: self.cpu_cycles,
            mem_l1: self.lat_l1_cycles,
            mem_l2: self.lat_l2_cycles,
            mem_dram: self.stall_dram_cycles,
            mem_rm_device: self.stall_device_cycles,
            bw_wait: self.stall_bw_cycles,
            fault_retry: self.stall_retry_cycles,
            idle: idle_cycles,
            elapsed: self.busy_cycles() + idle_cycles,
        }
    }

    /// Record every counter into a [`fabric_obs::MetricsRegistry`] under
    /// `<prefix>.<counter>` — the single serialization path for stats
    /// (replaces hand-rolled formatters; see fabric-lint `raw-stats-print`).
    pub fn record_into(&self, registry: &mut fabric_obs::MetricsRegistry, prefix: &str) {
        for (name, value) in [
            ("l1_hits", self.l1_hits),
            ("l2_hits", self.l2_hits),
            ("prefetch_hits", self.prefetch_hits),
            ("demand_misses", self.demand_misses),
            ("line_accesses", self.line_accesses),
            ("bytes_read", self.bytes_read),
            ("bytes_written", self.bytes_written),
            ("cpu_cycles", self.cpu_cycles),
            ("stall_cycles", self.stall_cycles),
            ("mem_lat_cycles", self.mem_lat_cycles),
            ("stall_bw_cycles", self.stall_bw_cycles),
            ("stall_dram_cycles", self.stall_dram_cycles),
            ("stall_device_cycles", self.stall_device_cycles),
            ("stall_retry_cycles", self.stall_retry_cycles),
            ("lat_l1_cycles", self.lat_l1_cycles),
            ("lat_l2_cycles", self.lat_l2_cycles),
        ] {
            registry.counter_add_fmt(format_args!("{prefix}.{name}"), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counterwise() {
        let a = MemStats {
            l1_hits: 10,
            demand_misses: 4,
            line_accesses: 14,
            ..Default::default()
        };
        let b = MemStats {
            l1_hits: 25,
            demand_misses: 9,
            line_accesses: 34,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.l1_hits, 15);
        assert_eq!(d.demand_misses, 5);
        assert_eq!(d.line_accesses, 20);
    }

    #[test]
    fn traffic_and_hit_rate() {
        let s = MemStats {
            l1_hits: 75,
            demand_misses: 20,
            prefetch_hits: 5,
            line_accesses: 100,
            ..Default::default()
        };
        assert_eq!(s.dram_traffic_bytes(64), 25 * 64);
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(MemStats::default().l1_hit_rate(), 0.0);
    }
}
