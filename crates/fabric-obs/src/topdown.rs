//! Top-down cycle accounting (DESIGN.md §12).
//!
//! Classifies every simulated cycle a core's clock advanced into a
//! two-level hierarchy, in the spirit of Yasin's top-down method adapted
//! to the fabric's cycle-accurate simulator:
//!
//! ```text
//! elapsed
//! ├── retired            compute the core actually executed
//! ├── memory-bound
//! │   ├── L1             L1 service latency (hits + miss issue slots)
//! │   ├── L2             L2 service latency (hits + prefetch transfers)
//! │   ├── DRAM           demand-miss / prefetch-completion waits
//! │   └── RM-device      producer-side device readiness (RM beat, SSD, bus)
//! └── stall
//!     ├── bw-ledger      shared L2-port / DRAM-controller bandwidth caps
//!     ├── fault-retry    recovery-policy backoff after injected faults
//!     └── idle           barrier wait for peer cores
//! ```
//!
//! The **hard invariant**: the eight leaf buckets sum *exactly* to the
//! elapsed cycles of the measured window on every core — no cycle is
//! unaccounted for and none is counted twice. [`TopDownCore::verify`]
//! checks it; `query::exec` asserts it after every query.

use crate::metrics::MetricsRegistry;

/// One core's top-down breakdown over a measured window. All fields are
/// cycle counts; the leaf buckets partition `elapsed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopDownCore {
    /// Core index.
    pub core: usize,
    /// Cycles spent retiring compute.
    pub retired: u64,
    /// L1 service latency (hits and miss issue slots).
    pub mem_l1: u64,
    /// L2 service latency (hits and L2-to-L1 prefetch transfers).
    pub mem_l2: u64,
    /// Waits for DRAM data (demand misses, in-flight prefetches).
    pub mem_dram: u64,
    /// Waits for a producer-side device (RM engine, SSD, bus transfer).
    pub mem_rm_device: u64,
    /// Waits on a shared-fabric bandwidth ledger (L2 port / DRAM
    /// controller aggregate-throughput cap).
    pub bw_wait: u64,
    /// Fault-retry backoff imposed by the recovery policy.
    pub fault_retry: u64,
    /// Idle at the closing barrier, waiting for peer cores.
    pub idle: u64,
    /// Total elapsed cycles of the window (the global clock advance).
    pub elapsed: u64,
}

/// The leaf buckets in canonical order, as `(short name, value)` pairs.
/// Used by every renderer and exporter so the ordering is uniform.
pub const BUCKETS: usize = 8;

impl TopDownCore {
    /// The eight leaf buckets in canonical order.
    pub fn buckets(&self) -> [(&'static str, u64); BUCKETS] {
        [
            ("retired", self.retired),
            ("mem.l1", self.mem_l1),
            ("mem.l2", self.mem_l2),
            ("mem.dram", self.mem_dram),
            ("mem.rm_device", self.mem_rm_device),
            ("stall.bw", self.bw_wait),
            ("stall.retry", self.fault_retry),
            ("stall.idle", self.idle),
        ]
    }

    /// Level-1 memory-bound total (L1 + L2 + DRAM + RM-device).
    pub fn memory_bound(&self) -> u64 {
        self.mem_l1 + self.mem_l2 + self.mem_dram + self.mem_rm_device
    }

    /// Level-1 stall total (bandwidth-ledger + fault-retry + idle).
    pub fn stall(&self) -> u64 {
        self.bw_wait + self.fault_retry + self.idle
    }

    /// Sum of all leaf buckets; must equal `elapsed`.
    pub fn sum(&self) -> u64 {
        self.retired + self.memory_bound() + self.stall()
    }

    /// The hard invariant: every elapsed cycle lands in exactly one leaf
    /// bucket.
    pub fn verify(&self) -> Result<(), String> {
        if self.sum() == self.elapsed {
            Ok(())
        } else {
            Err(format!(
                "top-down buckets on core {} sum to {} but {} cycles elapsed ({:?})",
                self.core,
                self.sum(),
                self.elapsed,
                self
            ))
        }
    }
}

/// A whole query's (or window's) top-down breakdown: one row per core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopDown {
    /// Per-core breakdowns, indexed by core.
    pub cores: Vec<TopDownCore>,
}

impl TopDown {
    /// Verify the invariant on every core.
    pub fn verify(&self) -> Result<(), String> {
        for c in &self.cores {
            c.verify()?;
        }
        Ok(())
    }

    /// Export every bucket as a counter under
    /// `<prefix>.core<i>.td.<bucket>` (dots in bucket names kept), plus
    /// `<prefix>.core<i>.td.elapsed` — the snapshot-visible form of the
    /// breakdown.
    pub fn record_into(&self, registry: &mut MetricsRegistry, prefix: &str) {
        for c in &self.cores {
            for (name, v) in c.buckets() {
                registry.counter_add_fmt(format_args!("{prefix}.core{}.td.{name}", c.core), v);
            }
            registry.counter_add_fmt(
                format_args!("{prefix}.core{}.td.elapsed", c.core),
                c.elapsed,
            );
        }
    }

    /// Render as an aligned text table with per-bucket percentages of
    /// elapsed, for `EXPLAIN ANALYZE` and postmortem artifacts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "  core   retired     mem.l1     mem.l2   mem.dram     mem.rm   stall.bw  stall.retry  stall.idle     elapsed\n",
        );
        for c in &self.cores {
            let pct = |v: u64| {
                if c.elapsed == 0 {
                    0.0
                } else {
                    v as f64 * 100.0 / c.elapsed as f64
                }
            };
            out.push_str(&format!(
                "  {:>4} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>11} {:>11}\n",
                c.core,
                format!("{:.1}%", pct(c.retired)),
                format!("{:.1}%", pct(c.mem_l1)),
                format!("{:.1}%", pct(c.mem_l2)),
                format!("{:.1}%", pct(c.mem_dram)),
                format!("{:.1}%", pct(c.mem_rm_device)),
                format!("{:.1}%", pct(c.bw_wait)),
                format!("{:.1}%", pct(c.fault_retry)),
                format!("{:.1}%", pct(c.idle)),
                c.elapsed,
            ));
        }
        out
    }

    /// Serialize as a deterministic JSON array (fixed field order), for
    /// embedding in postmortem artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, c) in self.cores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"core\":{}", c.core));
            for (name, v) in c.buckets() {
                out.push_str(&format!(",\"{name}\":{v}"));
            }
            out.push_str(&format!(",\"elapsed\":{}}}", c.elapsed));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TopDownCore {
        TopDownCore {
            core: 0,
            retired: 40,
            mem_l1: 10,
            mem_l2: 8,
            mem_dram: 20,
            mem_rm_device: 5,
            bw_wait: 7,
            fault_retry: 4,
            idle: 6,
            elapsed: 100,
        }
    }

    #[test]
    fn buckets_partition_elapsed() {
        let c = sample();
        assert_eq!(c.sum(), 100);
        c.verify().unwrap();
        assert_eq!(c.memory_bound(), 43);
        assert_eq!(c.stall(), 17);
    }

    #[test]
    fn verify_rejects_a_leak() {
        let mut c = sample();
        c.elapsed = 101; // one cycle unaccounted
        assert!(c.verify().is_err());
    }

    #[test]
    fn export_and_json_are_stable() {
        let td = TopDown {
            cores: vec![sample()],
        };
        let mut reg = MetricsRegistry::new();
        td.record_into(&mut reg, "query");
        assert_eq!(reg.counter("query.core0.td.retired"), 40);
        assert_eq!(reg.counter("query.core0.td.elapsed"), 100);
        let json = td.to_json();
        assert!(json.starts_with("[{\"core\":0,\"retired\":40,"));
        crate::parse_json(&json).expect("topdown json parses");
        let rendered = td.render();
        assert!(rendered.contains("40.0%"), "{rendered}");
    }
}
