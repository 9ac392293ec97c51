//! Exact line → ready-cycle table for the prefetcher's in-flight lines.
//!
//! Every prefetch the stream prefetcher issues stays in this table until a
//! demand access consumes it or the prefetcher drops the whole table, so
//! an entry that no stream will ever reach is still simulated state: a
//! later scan that touches its line finds it in flight (DESIGN.md §18).
//! The table is therefore exact — never lossy, never evicting — and only
//! ever probed by line, never iterated, so its slot order cannot leak
//! into any result.
//!
//! Layout: one power-of-two array of interleaved `(line, ready)` slots,
//! linear probing from a Fibonacci hash of the line index (which spreads
//! the sequential and strided line runs a scan produces), at most ¾ full,
//! with backward-shift deletion so no tombstones accumulate.

use crate::Cycles;

/// Key of an empty slot. No line index equals it: a line index is a byte
/// address shifted right by log2 of the line size, and lines are at least
/// two bytes wide.
const EMPTY: u64 = u64::MAX;

/// Slots of a fresh (or cleared) table.
const MIN_SLOTS: usize = 64;

/// Fibonacci hashing multiplier (2^64 / φ).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug)]
pub(crate) struct InflightTable {
    /// `(line, ready)` slots; `line == EMPTY` marks a free slot.
    slots: Vec<(u64, Cycles)>,
    /// `64 - log2(slots.len())`.
    shift: u32,
    /// Occupied slots.
    used: usize,
}

impl InflightTable {
    pub(crate) fn new() -> Self {
        InflightTable {
            slots: vec![(EMPTY, 0); MIN_SLOTS],
            shift: 64 - MIN_SLOTS.trailing_zeros(),
            used: 0,
        }
    }

    /// Lines in flight.
    pub(crate) fn len(&self) -> usize {
        self.used
    }

    /// The top `log2(slots.len())` bits of the hash: always a slot index.
    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(FIB) >> self.shift) as usize
    }

    /// Slot holding `line`, or the empty slot that ends its probe run.
    #[inline]
    fn probe(&self, line: u64) -> Result<usize, usize> {
        debug_assert_ne!(line, EMPTY, "line index collides with the empty key");
        let mask = self.slots.len() - 1;
        let mut i = self.home(line);
        loop {
            let key = self.slots[i].0;
            if key == line {
                return Ok(i);
            }
            if key == EMPTY {
                return Err(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[cfg(test)]
    fn contains(&self, line: u64) -> bool {
        self.probe(line).is_ok()
    }

    /// Remove `line` and return its ready time, if it is in flight.
    pub(crate) fn take(&mut self, line: u64) -> Option<Cycles> {
        let hole = self.probe(line).ok()?;
        let ready = self.slots[hole].1;
        self.remove_at(hole);
        Some(ready)
    }

    /// Put `line` in flight with the ready time `ready()` unless it already
    /// is; `ready` runs only on insertion. Returns whether it inserted.
    pub(crate) fn insert_with(&mut self, line: u64, ready: impl FnOnce() -> Cycles) -> bool {
        if (self.used + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        match self.probe(line) {
            Ok(_) => false,
            Err(i) => {
                self.slots[i] = (line, ready());
                self.used += 1;
                true
            }
        }
    }

    /// Drop every entry and give the memory back.
    pub(crate) fn clear(&mut self) {
        *self = InflightTable::new();
    }

    fn grow(&mut self) {
        let doubled = vec![(EMPTY, 0); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for (line, ready) in old {
            if line != EMPTY {
                if let Err(i) = self.probe(line) {
                    self.slots[i] = (line, ready);
                }
            }
        }
    }

    /// Backward-shift deletion: pull later entries of the probe run into
    /// the hole while that keeps each reachable from its home slot.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let line = self.slots[j].0;
            if line == EMPTY {
                break;
            }
            let home = self.home(line);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole].0 = EMPTY;
        self.used -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::rng::DetRng;
    use std::collections::BTreeMap;

    /// Default seed of the differential sweep; override with
    /// `FABRIC_CHAOS_SEED` to replay or explore.
    const DEFAULT_SEED: u64 = 0x1F_11_6E;

    fn base_seed() -> u64 {
        std::env::var("FABRIC_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_SEED)
    }

    /// Drive the table and a `BTreeMap` with the same seeded operations
    /// and require identical answers after every one. Lines are drawn
    /// from a window that slides forward like a scan, mixed with far
    /// strided lines and random ones; whenever the table exceeds
    /// `limit`, both are cleared, as the prefetcher does at
    /// `MAX_INFLIGHT`. The window advances up to `drift` lines per
    /// operation: the faster it moves, the more lines are fresh.
    fn differential(seed: u64, ops: usize, limit: usize, insert_bias: f64, drift: u64) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut table = InflightTable::new();
        let mut reference: BTreeMap<u64, Cycles> = BTreeMap::new();
        let mut cursor = 0u64;
        let mut clears = 0;
        for op in 0..ops {
            let line = match rng.gen_range(0..16u32) {
                0 | 1 => rng.next_u64() >> 6,
                2 | 3 => cursor * 8 + rng.gen_range(0..64u64),
                _ => cursor + rng.gen_range(0..256u64),
            };
            cursor += rng.gen_range(0..drift);
            // On failure, print the seed that replays the sweep.
            let why = |what: &str| {
                format!("{what}: seed {seed} op {op} line {line} (FABRIC_CHAOS_SEED={seed})")
            };
            if rng.gen_bool(insert_bias) {
                let ready = rng.next_u64();
                let fresh = !reference.contains_key(&line);
                if fresh {
                    reference.insert(line, ready);
                }
                if table.insert_with(line, || ready) != fresh {
                    panic!("{}", why("insert"));
                }
            } else if rng.gen_bool(0.5) {
                if table.contains(line) != reference.contains_key(&line) {
                    panic!("{}", why("contains"));
                }
            } else if table.take(line) != reference.remove(&line) {
                panic!("{}", why("take"));
            }
            if table.len() != reference.len() {
                panic!("{}", why("len"));
            }
            if table.len() > limit {
                table.clear();
                reference.clear();
                clears += 1;
            }
        }
        // Every surviving entry is still there, exactly.
        for (&line, &ready) in &reference {
            assert!(table.contains(line), "survivor {line}: seed {seed}");
            assert_eq!(
                table.take(line),
                Some(ready),
                "survivor {line}: seed {seed}"
            );
        }
        assert_eq!(table.len(), 0, "seed {seed}");
        if limit < ops {
            assert!(clears > 0, "seed {seed}: sweep never reached the clear");
        }
    }

    #[test]
    fn matches_btreemap_under_seeded_operations() {
        let base = base_seed();
        for i in 0..8u64 {
            let seed = base.wrapping_add(i);
            differential(seed, 20_000, 3_000, 0.55, 3);
        }
    }

    #[test]
    fn matches_btreemap_through_the_prefetcher_clear() {
        // Insert-heavy, so the table grows past `MAX_INFLIGHT` and the
        // clear at the prefetcher's real threshold is exercised.
        let seed = base_seed();
        let limit = crate::prefetch::MAX_INFLIGHT;
        differential(seed, limit + limit / 4, limit, 0.97, 16);
    }

    #[test]
    fn growth_keeps_every_entry() {
        let mut t = InflightTable::new();
        for line in 0..10_000u64 {
            assert!(t.insert_with(line * 3, || line));
        }
        assert_eq!(t.len(), 10_000);
        assert!(t.slots.len() * 3 >= t.used * 4);
        for line in 0..10_000u64 {
            assert!(!t.insert_with(line * 3, || unreachable!("already in flight")));
            assert_eq!(t.take(line * 3), Some(line));
        }
        assert_eq!(t.len(), 0);
    }
}
