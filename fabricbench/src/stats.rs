//! Small statistics helpers and the counters a pass tallies.

use fabric_sim::MemStats;
use fabric_sim::TopDown;
use relmem::RmStats;
use std::collections::BTreeMap;

/// The 1-based nearest rank of quantile `q` in a sample of `len > 0`.
fn nearest_rank(len: usize, q: f64) -> usize {
    // `q` is clamped to [0, 1], so the product never exceeds `len`.
    #[allow(clippy::cast_possible_truncation)]
    let rank = (q.clamp(0.0, 1.0) * len as f64).ceil() as usize;
    rank.clamp(1, len)
}

/// Nearest-rank quantile of `v` (`q` in `[0, 1]`); 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[nearest_rank(s.len(), q) - 1]
}

/// Nearest-rank quantile of latencies in nanoseconds, selected in place;
/// 0 for an empty sample.
pub fn quantile_ns(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let (_, nth, _) = v.select_nth_unstable(nearest_rank(v.len(), q) - 1);
    f64::from(*nth)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

/// Simulated work done during one pass. Every field is a pure function of
/// the workload, the seed and the pass index, so it repeats exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimTally {
    /// Simulated cycles the pass's operations took.
    pub cycles: u64,
    /// Hierarchy statistics, summed over cores.
    pub mem: MemStats,
    /// Top-down buckets in canonical order (retired, mem.l1, mem.l2,
    /// mem.dram, mem.rm_device, stall.bw, stall.retry, stall.idle).
    pub td: [u64; 8],
    /// Sum over operations of cores x elapsed cycles of the window; equals
    /// the sum of `td` when every core's buckets account for the window.
    pub td_elapsed: u64,
    pub rm_source_lines: u64,
    pub rm_output_lines: u64,
    pub rm_batches: u64,
    /// Workload-specific counts (plan-cache hits, WAL bytes, ...).
    pub counts: BTreeMap<&'static str, u64>,
}

impl SimTally {
    pub fn add_topdown(&mut self, td: &TopDown) {
        let window = td.cores.iter().map(|c| c.elapsed).max().unwrap_or(0);
        self.td_elapsed += td.cores.len() as u64 * window;
        for core in &td.cores {
            for (slot, (_, v)) in self.td.iter_mut().zip(core.buckets()) {
                *slot += v;
            }
        }
    }

    pub fn add_rm(&mut self, rm: &RmStats) {
        self.rm_source_lines += rm.source_lines;
        self.rm_output_lines += rm.output_lines;
        self.rm_batches += rm.batches;
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Simulated line accesses the host had to simulate: hierarchy line
    /// accesses plus RM device source lines.
    pub fn sim_lines(&self) -> u64 {
        self.mem.line_accesses + self.rm_source_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        let mut ns: Vec<u32> = (1..=10).rev().collect();
        assert_eq!(quantile_ns(&mut ns, 0.5), 5.0);
        assert_eq!(quantile_ns(&mut ns, 0.9), 9.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
