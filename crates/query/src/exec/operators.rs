//! Operator DAG nodes and the shared consumption operator.
//!
//! A verified plan lowers to a small, fixed operator DAG (DESIGN.md §16):
//!
//! ```text
//! Scan(path) → [Filter] → Project | Aggregate  ──barrier──▶  Merge
//! └──────────── stage 0 (fused, per morsel) ─┘   └ stage 1 (core 0) ┘
//! ```
//!
//! Stage 0's operators are *streamable*: each morsel flows through all of
//! them in one fused kernel pass without materializing between nodes.
//! Merge is the pipeline breaker — it needs every partial, in morsel
//! order, so it forms its own stage. The node list exists so the
//! executor can attribute per-operator actuals ([`fabric_sim::OpStats`],
//! exported as `query.op.*`) and so EXPLAIN-style surfaces can render
//! the stage partition; operators are constructed only inside this crate
//! (lint rule `exec-internals`).

use crate::bind::{BoundQuery, OutputItem};
use crate::cost::AccessPath;
use fabric_sim::{MemoryHierarchy, OpStats};
use fabric_types::{FabricError, Result, Value, ValueAgg};
use std::collections::BTreeMap;

/// The operator vocabulary of the staged executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Path-specific morsel scan (the fused kernel's input end).
    Scan(AccessPath),
    /// Conjunctive predicate over scanned slots.
    Filter,
    /// Per-row expression evaluation into output rows.
    Project,
    /// Grouped/scalar aggregation into partial accumulators.
    Aggregate,
    /// Morsel-order partial merge + finalization (pipeline breaker).
    Merge,
}

impl OpKind {
    /// Metric segment for `query.op.<name>.*`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            OpKind::Scan(AccessPath::Row) => "scan_row",
            OpKind::Scan(AccessPath::Col) => "scan_col",
            OpKind::Scan(AccessPath::Rm) => "scan_rm",
            OpKind::Filter => "filter",
            OpKind::Project => "project",
            OpKind::Aggregate => "aggregate",
            OpKind::Merge => "merge",
        }
    }

    /// Streamable operators fuse into stage 0; pipeline breakers start a
    /// new stage.
    pub(crate) fn streamable(self) -> bool {
        !matches!(self, OpKind::Merge)
    }
}

/// One node of the lowered DAG: its kind plus accumulated actuals.
#[derive(Debug)]
pub(crate) struct OpNode {
    pub(crate) kind: OpKind,
    pub(crate) stats: OpStats,
}

impl OpNode {
    pub(crate) fn new(kind: OpKind) -> Self {
        OpNode {
            kind,
            stats: OpStats::default(),
        }
    }
}

/// Deterministic morsel scheduling: the earliest-free core, ties broken
/// toward the lowest id. With one core this is always core 0 and the
/// stage-0 kernels reduce to the serial engine.
pub(crate) fn earliest_core(mem: &MemoryHierarchy) -> usize {
    (0..mem.num_cores())
        .min_by_key(|&i| (mem.core_now(i), i))
        .unwrap_or(0)
}

/// Shared consumption: either collects projected rows or maintains grouped
/// aggregates. One `Consumer` holds one morsel's partial result.
pub(crate) struct Consumer<'q> {
    bound: &'q BoundQuery,
    rows: Vec<Vec<Value>>,
    /// Grouped accumulators keyed by the rendered group key. A `BTreeMap`
    /// so iteration is key-ordered on every core count — group output
    /// order must never depend on hash iteration (rule
    /// `nondeterministic-core`).
    groups: BTreeMap<String, (Vec<Value>, Vec<ValueAgg>)>,
    /// Accumulators of a scalar aggregate (no GROUP BY), updated in place
    /// per row instead of through a map entry; `None` until the first row.
    /// Merge and finish fold it into `groups` under the empty key — the
    /// one group the grouped path would have built — so every charge,
    /// `partial_len` and output row stays the grouped fold's.
    scalar: Option<Vec<ValueAgg>>,
    aggregated: bool,
}

impl<'q> Consumer<'q> {
    pub(crate) fn new(bound: &'q BoundQuery) -> Self {
        Consumer {
            bound,
            rows: Vec::new(),
            groups: BTreeMap::new(),
            scalar: None,
            aggregated: bound.has_aggregates(),
        }
    }

    /// Fresh accumulators, one per aggregate output item.
    fn new_accs(bound: &BoundQuery) -> Vec<ValueAgg> {
        bound
            .items
            .iter()
            .filter_map(|i| match i {
                OutputItem::Agg(f, _) => Some(ValueAgg::new(*f)),
                OutputItem::Expr(_) => None,
            })
            .collect()
    }

    /// Update `accs` with one row's aggregate inputs, in item order.
    fn update_accs(items: &[OutputItem], accs: &mut [ValueAgg], vals: &[Value]) -> Result<()> {
        let mut acc_i = 0;
        for item in items {
            if let OutputItem::Agg(_, e) = item {
                accs[acc_i].update(&e.eval(vals)?)?;
                acc_i += 1;
            }
        }
        Ok(())
    }

    /// Move the scalar accumulators into `groups` under the empty key.
    fn fold_scalar(&mut self) {
        if let Some(accs) = self.scalar.take() {
            self.groups.insert(String::new(), (Vec::new(), accs));
        }
    }

    /// CPU cycles one fed row costs (charged by the caller's engine loop).
    pub(crate) fn row_cycles(&self, costs: &fabric_sim::hierarchy::OpCosts) -> u64 {
        let ops: u64 = self
            .bound
            .items
            .iter()
            .map(|i| match i {
                OutputItem::Agg(_, e) | OutputItem::Expr(e) => e.ops() + 1,
            })
            .sum();
        if self.aggregated {
            let hash = if self.bound.group_by.is_empty() {
                0
            } else {
                costs.hash_op
            };
            hash + costs.f64_op * ops
        } else {
            costs.value_op * ops
        }
    }

    /// Rows (or groups) this partial currently holds — the partial's
    /// contribution to the merge stage's `rows_in`.
    pub(crate) fn partial_len(&self) -> usize {
        if self.aggregated {
            self.groups.len() + usize::from(self.scalar.is_some())
        } else {
            self.rows.len()
        }
    }

    pub(crate) fn feed(&mut self, vals: &[Value]) -> Result<()> {
        if !self.aggregated {
            let mut out = Vec::with_capacity(self.bound.items.len());
            for item in &self.bound.items {
                match item {
                    OutputItem::Expr(e) => out.push(e.eval(vals)?),
                    OutputItem::Agg(..) => {
                        return Err(FabricError::Internal(
                            "aggregate item in non-aggregated plan".into(),
                        ))
                    }
                }
            }
            self.rows.push(out);
            return Ok(());
        }
        let bound = self.bound;
        if bound.group_by.is_empty() {
            let accs = self.scalar.get_or_insert_with(|| Self::new_accs(bound));
            return Self::update_accs(&bound.items, accs, vals);
        }
        self.feed_group(vals)
    }

    /// Grouped aggregation: update the row's group, keyed by the rendered
    /// GROUP BY values (the empty key when there are none).
    fn feed_group(&mut self, vals: &[Value]) -> Result<()> {
        let bound = self.bound;
        use std::fmt::Write as _;
        let mut key = String::new();
        for &slot in &bound.group_by {
            write!(key, "{}\u{1f}", vals[slot])
                .map_err(|e| FabricError::Internal(format!("group key formatting: {e}")))?;
        }
        let entry = self.groups.entry(key).or_insert_with(|| {
            let key_vals: Vec<Value> = bound.group_by.iter().map(|&s| vals[s].clone()).collect();
            (key_vals, Self::new_accs(bound))
        });
        Self::update_accs(&bound.items, &mut entry.1, vals)
    }

    /// Fold another partial consumer (a later morsel of the same plan)
    /// into this one. Projected morsels concatenate — the caller merges in
    /// morsel order, so the result is the scan order. Aggregated morsels
    /// merge their group accumulators pairwise ([`ValueAgg::merge`]); every
    /// group is independent, so the fold is deterministic regardless of
    /// merge order.
    fn merge(&mut self, mem: &mut MemoryHierarchy, mut other: Consumer<'q>) -> Result<()> {
        let costs = mem.costs();
        if !self.aggregated {
            mem.cpu(costs.value_op * other.rows.len() as u64);
            self.rows.extend(other.rows);
            return Ok(());
        }
        self.fold_scalar();
        other.fold_scalar();
        for (key, (key_vals, accs)) in other.groups {
            mem.cpu(costs.hash_op);
            match self.groups.entry(key) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    for (mine, theirs) in e.get_mut().1.iter_mut().zip(&accs) {
                        mem.cpu(costs.f64_op);
                        mine.merge(theirs)?;
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert((key_vals, accs));
                }
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Vec<Vec<Value>>> {
        if !self.aggregated {
            return Ok(self.rows);
        }
        self.fold_scalar();
        // Scalar aggregation over zero rows still returns one row
        // (count = 0, sum = 0; min/max/avg error, as they have no value).
        if self.groups.is_empty() && self.bound.group_by.is_empty() {
            let accs = Self::new_accs(self.bound);
            self.groups.insert(String::new(), (Vec::new(), accs));
        }
        // BTreeMap already iterates in key order — the very order the old
        // post-collection sort produced.
        let keyed: Vec<(String, (Vec<Value>, Vec<ValueAgg>))> = self.groups.into_iter().collect();
        let mut out = Vec::with_capacity(keyed.len());
        for (_, (key_vals, accs)) in keyed {
            let mut row = Vec::with_capacity(self.bound.items.len());
            let mut acc_i = 0;
            for item in &self.bound.items {
                match item {
                    OutputItem::Expr(e) => {
                        // A grouping column: its value is in key_vals at the
                        // position of its slot within group_by.
                        let slot = match e {
                            fabric_types::Expr::Col(s) => *s,
                            other => {
                                return Err(FabricError::Internal(format!(
                                    "non-column expression `{other}` in grouped output"
                                )))
                            }
                        };
                        let pos = self
                            .bound
                            .group_by
                            .iter()
                            .position(|&g| g == slot)
                            .ok_or_else(|| {
                                FabricError::Internal(format!(
                                    "grouped output slot {slot} not in GROUP BY"
                                ))
                            })?;
                        row.push(key_vals[pos].clone());
                    }
                    OutputItem::Agg(..) => {
                        row.push(accs[acc_i].finish()?);
                        acc_i += 1;
                    }
                }
            }
            out.push(row);
        }
        Ok(out)
    }
}

/// Merge per-morsel partial consumers *in morsel order* on the active core
/// and produce the plan's output rows. The fold shape is fixed by the
/// morsel count (which depends only on the input size), never by the core
/// count — that is what makes N-core output bit-identical to 1-core even
/// for floating-point aggregates.
pub(crate) fn merge_partials<'q>(
    mem: &mut MemoryHierarchy,
    bound: &'q BoundQuery,
    partials: Vec<Consumer<'q>>,
) -> Result<Vec<Vec<Value>>> {
    let mut it = partials.into_iter();
    let mut acc = match it.next() {
        Some(first) => first,
        None => Consumer::new(bound),
    };
    for p in it {
        acc.merge(mem, p)?;
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::SimConfig;
    use fabric_types::rng::DetRng;
    use fabric_types::{AggFunc, Expr};

    /// A scalar aggregate (no GROUP BY) over slots 0 (I64) and 1 (F64).
    fn scalar_plan(funcs: &[AggFunc]) -> BoundQuery {
        BoundQuery {
            table: "t".into(),
            touched: vec![0, 1],
            preds: Vec::new(),
            items: funcs
                .iter()
                .enumerate()
                .map(|(i, &f)| OutputItem::Agg(f, Expr::Col(i % 2)))
                .collect(),
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// What the merge stage sees and produces for `morsels`: the summed
    /// `partial_len`s (its `rows_in`), the output (rendered with `{:?}`,
    /// which tells every f64 bit pattern but NaN payloads apart, or the
    /// error) and the cycles the merge charged. `grouped` feeds every row
    /// through the grouped fold under the empty key, the path scalar
    /// aggregates took before they had their own.
    fn fold(bound: &BoundQuery, morsels: &[Vec<Vec<Value>>], grouped: bool) -> (u64, String, u64) {
        let mut partials = Vec::new();
        for morsel in morsels {
            let mut c = Consumer::new(bound);
            for vals in morsel {
                if grouped {
                    c.feed_group(vals).unwrap();
                } else {
                    c.feed(vals).unwrap();
                }
            }
            partials.push(c);
        }
        let rows_in = partials.iter().map(|p| p.partial_len() as u64).sum();
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let before = mem.now();
        let out = match merge_partials(&mut mem, bound, partials) {
            Ok(rows) => format!("{rows:?}"),
            Err(e) => format!("error: {e}"),
        };
        (rows_in, out, mem.now() - before)
    }

    fn random_morsels(seed: u64) -> Vec<Vec<Vec<Value>>> {
        let mut rng = DetRng::seed_from_u64(seed);
        (0..7)
            .map(|m| {
                // Morsels 2 and 5 are empty: every row filtered out.
                let n = if m % 3 == 2 {
                    0
                } else {
                    rng.gen_range(1..300usize)
                };
                (0..n)
                    .map(|_| {
                        vec![
                            Value::I64(rng.gen_range(-1000..1000i64)),
                            Value::F64(rng.next_f64() * 1e6 - 3e5),
                        ]
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn scalar_aggregate_is_bit_identical_to_the_grouped_fold() {
        use AggFunc::{Avg, Count, Max, Min, Sum};
        let bound = scalar_plan(&[Count, Sum, Min, Max, Avg, Sum]);
        for seed in 0..16 {
            let morsels = random_morsels(seed);
            let scalar = fold(&bound, &morsels, false);
            assert_eq!(scalar, fold(&bound, &morsels, true), "seed {seed}");
            assert_eq!(scalar.0, 5, "one partial row per non-empty morsel");
            assert!(scalar.2 > 0, "the merge charges its folds");
        }
    }

    #[test]
    fn scalar_aggregate_over_zero_rows_returns_one_row() {
        use AggFunc::{Avg, Count, Max, Min, Sum};
        let empty = vec![Vec::new(); 3];
        let bound = scalar_plan(&[Count, Sum]);
        let scalar = fold(&bound, &empty, false);
        let one_row = format!("{:?}", vec![vec![Value::I64(0), Value::F64(0.0)]]);
        assert_eq!(scalar, (0, one_row, 0), "one row, nothing to merge");
        assert_eq!(scalar, fold(&bound, &empty, true));
        assert_eq!(scalar, fold(&bound, &[], false), "no morsels at all");
        for (func, msg) in [
            (Min, "MIN over zero rows"),
            (Max, "MAX over zero rows"),
            (Avg, "AVG over zero rows"),
        ] {
            let bound = scalar_plan(&[Count, func]);
            let (_, out, _) = fold(&bound, &empty, false);
            assert!(out.starts_with("error:") && out.contains(msg), "{out}");
            assert_eq!(out, fold(&bound, &empty, true).1);
        }
    }
}
