//! Hardware stream prefetcher model.
//!
//! The Cortex-A53 L2 prefetcher tracks a small number of sequential streams
//! (four — the number the paper leans on: *"the prefetcher can efficiently
//! support up to four parallel sequential accesses"*, §V). This model keeps
//! a stream table with LRU allocation: an access pattern with at most
//! [`SimConfig::prefetch_streams`] interleaved sequential streams trains
//! quickly and hides DRAM latency; more streams thrash the table and every
//! access pays the full demand-miss cost. That mechanism — not a fitted
//! curve — is what produces the paper's four-column crossover in Fig. 5/6.

use crate::config::SimConfig;
use crate::dram::DramModel;
use crate::inflight::InflightTable;
use crate::Cycles;

#[derive(Debug, Clone)]
struct Stream {
    /// Line index (not byte address) expected next.
    next_line: u64,
    /// Stride in lines (>= 1; ascending streams only).
    stride: u64,
    /// Consecutive confirmations; prefetch starts at `train`.
    score: usize,
    /// Highest line index already sent to DRAM for this stream.
    issued_until: u64,
    /// LRU tick of last use.
    last_use: u64,
}

/// Safety valve: if the in-flight table ever exceeds this many entries the
/// prefetcher drops them all (real prefetch buffers are tiny; this only
/// guards against pathological leak in very long simulations).
pub(crate) const MAX_INFLIGHT: usize = 1 << 20;

/// Maximum stride (in lines) a new stream allocation will infer.
const MAX_STRIDE_LINES: u64 = 8;

/// Deterministic pseudo-random source for victim selection.
#[inline]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Stream prefetcher with a bounded stream table.
#[derive(Debug)]
pub struct StreamPrefetcher {
    streams: Vec<Stream>,
    capacity: usize,
    degree: u64,
    train: usize,
    tick: u64,
    line_shift: u32,
    /// line index -> completion time of the prefetch.
    inflight: InflightTable,
    issued: u64,
    useful: u64,
}

impl StreamPrefetcher {
    pub fn new(cfg: &SimConfig) -> Self {
        StreamPrefetcher {
            streams: Vec::with_capacity(cfg.prefetch_streams),
            capacity: cfg.prefetch_streams,
            degree: cfg.prefetch_degree as u64,
            train: cfg.prefetch_train,
            tick: 0,
            line_shift: cfg.line_size.trailing_zeros(),
            inflight: InflightTable::new(),
            issued: 0,
            useful: 0,
        }
    }

    /// If a prefetch for this line is in flight, consume it and return its
    /// completion time.
    pub fn take_inflight(&mut self, line_addr: u64) -> Option<Cycles> {
        let line = line_addr >> self.line_shift;
        let ready = self.inflight.take(line);
        if ready.is_some() {
            self.useful += 1;
        }
        ready
    }

    /// Notify the prefetcher of an L2-level demand access (miss or prefetch
    /// hit); trains streams and issues new prefetches against `dram`.
    pub fn observe(&mut self, line_addr: u64, now: Cycles, dram: &mut DramModel) {
        self.tick += 1;
        let line = line_addr >> self.line_shift;

        // Try to match an existing stream.
        let mut matched: Option<usize> = None;
        for (i, s) in self.streams.iter_mut().enumerate() {
            if line == s.next_line {
                matched = Some(i);
                break;
            }
            // Allow an un-stabilised stream (stride guess pending) to lock
            // its stride from the second access.
            if s.score == 1 && line > s.next_line - s.stride {
                let delta = line - (s.next_line - s.stride);
                if delta <= MAX_STRIDE_LINES {
                    s.stride = delta;
                    s.next_line = line; // will be advanced below
                    matched = Some(i);
                    break;
                }
            }
        }

        match matched {
            Some(i) => {
                let tick = self.tick;
                let (degree, train) = (self.degree, self.train);
                let s = &mut self.streams[i];
                s.score += 1;
                s.next_line = line + s.stride;
                s.last_use = tick;
                if s.score >= train {
                    // Keep `degree` lines of lookahead in flight.
                    let target = line + degree * s.stride;
                    let mut next = s.issued_until.max(line + s.stride);
                    // Round `next` up onto the stream's phase.
                    let phase_off = (next.wrapping_sub(line)) % s.stride;
                    if phase_off != 0 {
                        next += s.stride - phase_off;
                    }
                    let stride = s.stride;
                    let mut issued_until = s.issued_until;
                    let line_shift = self.line_shift;
                    while next <= target {
                        if self
                            .inflight
                            .insert_with(next, || dram.access(next << line_shift, now))
                        {
                            self.issued += 1;
                        }
                        issued_until = issued_until.max(next);
                        next += stride;
                    }
                    self.streams[i].issued_until = issued_until;
                }
            }
            None => {
                // Allocate a fresh stream guessing a +1-line stride; the
                // stride locks on the second access.
                let tick = self.tick;
                if self.streams.len() == self.capacity {
                    // Pseudo-random replacement, like the Cortex-A53's
                    // caches: with N interleaved streams and a smaller
                    // table, a fraction of streams survives each round, so
                    // prefetch coverage degrades gradually — adversarial
                    // LRU would collapse to zero coverage at N+1 streams.
                    let victim = (xorshift(tick) as usize) % self.streams.len();
                    self.streams.swap_remove(victim);
                }
                self.streams.push(Stream {
                    next_line: line + 1,
                    stride: 1,
                    score: 1,
                    issued_until: line,
                    last_use: tick,
                });
            }
        }

        if self.inflight.len() > MAX_INFLIGHT {
            self.inflight.clear();
        }
    }

    /// `(prefetches issued, prefetches that serviced a demand access)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.issued, self.useful)
    }

    /// Drop all state (new experiment).
    pub fn reset(&mut self) {
        self.streams.clear();
        self.inflight.clear();
        self.tick = 0;
        self.issued = 0;
        self.useful = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (StreamPrefetcher, DramModel, SimConfig) {
        let cfg = SimConfig::zynq_a53();
        (StreamPrefetcher::new(&cfg), DramModel::new(&cfg), cfg)
    }

    #[test]
    fn sequential_stream_trains_and_prefetches() {
        let (mut pf, mut dram, _) = setup();
        // Two observations train the stream; the third access should find
        // its line in flight.
        pf.observe(0, 0, &mut dram);
        pf.observe(64, 100, &mut dram);
        let (issued, _) = pf.counters();
        assert!(issued > 0, "trained stream must issue prefetches");
        assert!(pf.take_inflight(128).is_some());
    }

    #[test]
    fn strided_stream_locks_stride() {
        let (mut pf, mut dram, _) = setup();
        // Stride of 2 lines (a 128-byte-row scan).
        pf.observe(0, 0, &mut dram);
        pf.observe(128, 100, &mut dram);
        pf.observe(256, 200, &mut dram);
        assert!(
            pf.take_inflight(384).is_some(),
            "stride-2 line should be prefetched"
        );
        // Lines between the stride must NOT be prefetched.
        assert!(pf.take_inflight(320).is_none());
    }

    #[test]
    fn four_interleaved_streams_all_train() {
        let (mut pf, mut dram, _) = setup();
        let bases: Vec<u64> = (0..4).map(|i| i * 1 << 20).collect();
        let mut now = 0;
        for step in 0..4u64 {
            for &b in &bases {
                pf.observe(b + step * 64, now, &mut dram);
                now += 50;
            }
        }
        for &b in &bases {
            assert!(
                pf.take_inflight(b + 4 * 64).is_some(),
                "stream at base {b:#x} should be prefetching"
            );
        }
    }

    #[test]
    fn excess_interleaved_streams_degrade_coverage() {
        // Coverage (prefetches issued per access) must drop substantially
        // once the number of round-robin streams exceeds the table size,
        // but — thanks to random replacement — not collapse to zero.
        let run = |n_streams: u64| {
            let (mut pf, mut dram, _) = setup();
            let bases: Vec<u64> = (0..n_streams).map(|i| i << 20).collect();
            let mut now = 0;
            let steps = 64u64;
            for step in 0..steps {
                for &b in &bases {
                    pf.observe(b + step * 64, now, &mut dram);
                    now += 50;
                }
            }
            let (issued, _) = pf.counters();
            issued as f64 / (steps * n_streams) as f64
        };
        let cov4 = run(4);
        let cov8 = run(8);
        assert!(cov4 > 0.9, "4 streams should be fully covered: {cov4}");
        assert!(
            cov8 < cov4 * 0.7,
            "8 streams should degrade: {cov8} vs {cov4}"
        );
    }

    #[test]
    fn take_inflight_consumes_once() {
        let (mut pf, mut dram, _) = setup();
        pf.observe(0, 0, &mut dram);
        pf.observe(64, 10, &mut dram);
        assert!(pf.take_inflight(128).is_some());
        assert!(pf.take_inflight(128).is_none());
    }

    #[test]
    fn reset_clears_counters_and_streams() {
        let (mut pf, mut dram, _) = setup();
        pf.observe(0, 0, &mut dram);
        pf.observe(64, 10, &mut dram);
        pf.reset();
        assert_eq!(pf.counters(), (0, 0));
        assert!(pf.take_inflight(128).is_none());
    }
}
