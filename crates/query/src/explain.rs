//! EXPLAIN-style plan rendering: what the layout-aware optimizer decided
//! and why — the §III-B story made visible — plus `EXPLAIN ANALYZE`,
//! which *runs* the query on every available path and reports estimated
//! vs. measured cost (cycles and bytes), recording the cost model's
//! relative error into the hierarchy's metrics registry.

use crate::bind::{BoundQuery, OutputItem};
use crate::catalog::{Catalog, TableEntry};
use crate::cost::{choose_path, choose_path_parallel, AccessPath, PathCost};
use crate::exec::{execute_on_impl, CoreAttribution, OpReport, PhaseProfile};
use fabric_sim::{MemoryHierarchy, MetricsRegistry, SimConfig};
use fabric_types::{FabricError, Result};
use mvcc::RecoveryReport;
use relmem::RmConfig;
use std::fmt::Write as _;

/// All rendering goes through `std::fmt::Write`; a formatter error (which
/// `String` cannot actually produce) surfaces as a structured fabric error
/// instead of being discarded.
fn fmt_err(e: std::fmt::Error) -> FabricError {
    FabricError::Internal(format!("plan rendering: {e}"))
}

/// Render the chosen plan for `bound` as human-readable text, including the
/// per-path cost estimates.
pub fn explain(sim: &SimConfig, catalog: &Catalog, bound: &BoundQuery) -> Result<String> {
    let entry = catalog.get(&bound.table)?;
    let (path, cost) = choose_path(sim, &RmConfig::prototype(), entry, bound)?;
    render_plan(entry, bound, path, &cost).map_err(fmt_err)
}

/// Error-mapped plan rendering for callers outside this module (the
/// session API).
pub(crate) fn render_plan_for(
    entry: &TableEntry,
    bound: &BoundQuery,
    path: AccessPath,
    cost: &PathCost,
) -> Result<String> {
    render_plan(entry, bound, path, cost).map_err(fmt_err)
}

/// The fallible renderer behind [`explain`] (and the header of
/// [`explain_analyze`]): every `writeln!` propagates.
fn render_plan(
    entry: &TableEntry,
    bound: &BoundQuery,
    path: AccessPath,
    cost: &PathCost,
) -> std::result::Result<String, std::fmt::Error> {
    let schema = entry.schema();
    let col_name = |slot: usize| -> String {
        schema
            .column(bound.touched[slot])
            .map(|c| c.name.clone())
            .unwrap_or_else(|_| format!("${slot}"))
    };

    let mut out = String::new();
    writeln!(
        out,
        "Plan for `{}` ({} rows)",
        bound.table,
        entry.rows.len()
    )?;
    let access = match path {
        AccessPath::Row => "Volcano sequential scan over the row layout".to_string(),
        AccessPath::Col => "column-at-a-time over the materialized columnar copy".to_string(),
        AccessPath::Rm => format!(
            "Relational Memory: ephemeral column group of {} columns ({} B/row packed)",
            bound.touched.len(),
            bound
                .touched
                .iter()
                .map(|&c| schema.column(c).map(|d| d.ty.width()).unwrap_or(0))
                .sum::<usize>()
        ),
    };
    writeln!(out, "  access: {path} — {access}")?;

    if !bound.preds.is_empty() {
        let preds: Vec<String> = bound
            .preds
            .iter()
            .map(|(slot, op, v)| format!("{} {op} {v}", col_name(*slot)))
            .collect();
        writeln!(out, "  filter: {}", preds.join(" AND "))?;
    }
    let items: Vec<String> = bound
        .items
        .iter()
        .map(|item| match item {
            OutputItem::Expr(e) => e.to_string(),
            OutputItem::Agg(f, e) => format!("{}({e})", f.name()),
        })
        .collect();
    writeln!(out, "  output: {}", items.join(", "))?;
    if !bound.group_by.is_empty() {
        let keys: Vec<String> = bound.group_by.iter().map(|&s| col_name(s)).collect();
        writeln!(out, "  group by: {}", keys.join(", "))?;
    }
    if !bound.order_by.is_empty() {
        let keys: Vec<String> = bound
            .order_by
            .iter()
            .map(|&(pos, desc)| format!("#{}{}", pos + 1, if desc { " DESC" } else { "" }))
            .collect();
        writeln!(out, "  order by: {}", keys.join(", "))?;
    }
    if let Some(limit) = bound.limit {
        writeln!(out, "  limit: {limit}")?;
    }

    writeln!(
        out,
        "  estimates: ROW {:.3} ms | COL {} | RM {:.3} ms{}",
        cost.row_ns / 1e6,
        cost.col_ns
            .map(|c| format!("{:.3} ms", c / 1e6))
            .unwrap_or_else(|| "unavailable (no columnar copy)".into()),
        cost.rm_ns / 1e6,
        if cost.cores > 1 {
            format!(" (priced at {} cores)", cost.cores)
        } else {
            String::new()
        },
    )?;
    Ok(out)
}

/// Parse + bind + explain in one call.
pub fn explain_sql(sim: &SimConfig, catalog: &Catalog, sql: &str) -> Result<String> {
    let stmt = crate::parser::parse(sql)?;
    let bound = crate::bind::bind(catalog, &stmt)?;
    explain(sim, catalog, &bound)
}

/// One access path's estimated-vs-measured comparison from
/// [`explain_analyze`].
#[derive(Debug, Clone, PartialEq)]
pub struct PathReport {
    pub path: AccessPath,
    /// The cost model's prediction.
    pub est_ns: f64,
    /// Simulated time the path actually took.
    pub actual_ns: f64,
    /// The cost model's predicted data movement.
    pub est_bytes: f64,
    /// Bytes actually moved: hierarchy payload reads for ROW/COL, packed
    /// lines delivered over the bus for RM.
    pub actual_bytes: u64,
}

impl PathReport {
    /// |est − actual| / actual, in percent (actual floored at one unit so
    /// an empty run cannot divide by zero).
    pub fn ns_rel_err_pct(&self) -> f64 {
        rel_err_pct(self.est_ns, self.actual_ns)
    }

    pub fn bytes_rel_err_pct(&self) -> f64 {
        rel_err_pct(self.est_bytes, self.actual_bytes as f64)
    }
}

fn rel_err_pct(est: f64, actual: f64) -> f64 {
    (est - actual).abs() / actual.max(1.0) * 100.0
}

/// Run `bound` on every *available* path and measure actual cost. Returns
/// the per-path reports plus the chosen path's phase profile (its plan-node
/// breakdown). Each path's relative error lands in the hierarchy's metrics
/// registry as `explain.rel_err_pct.{ns,bytes}.<path>` gauges.
pub fn analyze_paths(
    mem: &mut MemoryHierarchy,
    catalog: &Catalog,
    bound: &BoundQuery,
) -> Result<(AccessPath, Vec<PathReport>, Vec<PhaseProfile>)> {
    let (chosen, reports, profile, _, _, _) = analyze_paths_impl(mem, catalog, bound)?;
    Ok((chosen, reports, profile))
}

/// Full-fidelity form of [`analyze_paths`]: also returns the chosen path's
/// per-core cycle/byte attribution, its top-down cycle breakdown, and its
/// per-operator estimate/actual reports.
#[allow(clippy::type_complexity)]
pub(crate) fn analyze_paths_impl(
    mem: &mut MemoryHierarchy,
    catalog: &Catalog,
    bound: &BoundQuery,
) -> Result<(
    AccessPath,
    Vec<PathReport>,
    Vec<PhaseProfile>,
    Vec<CoreAttribution>,
    fabric_sim::TopDown,
    Vec<OpReport>,
)> {
    let entry = catalog.get(&bound.table)?;
    let (chosen, cost) = choose_path_parallel(
        mem.config(),
        &RmConfig::prototype(),
        entry,
        bound,
        mem.num_cores(),
    )?;
    let line = mem.config().line_size as u64;

    let mut reports = Vec::new();
    let mut chosen_profile = Vec::new();
    let mut chosen_cores = Vec::new();
    let mut chosen_topdown = fabric_sim::TopDown::default();
    let mut chosen_ops = Vec::new();
    for path in [AccessPath::Row, AccessPath::Col, AccessPath::Rm] {
        // An unpriced path (COL without a columnar copy) is unavailable.
        let (Some(est_ns), Some(est_bytes)) = (cost.ns(path), cost.bytes(path)) else {
            continue;
        };
        let before = mem.stats();
        let out = execute_on_impl(mem, catalog, bound, path)?;
        let d = mem.stats().delta_since(&before);
        let actual_bytes = match (&out.rm_stats, path) {
            (Some(rm), AccessPath::Rm) => rm.output_lines * line,
            _ => d.bytes_read,
        };
        let report = PathReport {
            path,
            est_ns,
            actual_ns: out.ns,
            est_bytes,
            actual_bytes,
        };
        let key = match path {
            AccessPath::Row => "row",
            AccessPath::Col => "col",
            AccessPath::Rm => "rm",
        };
        // Per-operator calibration gauges for this path: how far each DAG
        // node's estimate share drifted from its apportioned actual. The
        // merge is excluded — its estimate is the f64 fix-up remainder, so
        // a relative error against it is numerology, not calibration.
        for o in out.ops.iter().filter(|o| o.op != "merge") {
            let err = rel_err_pct(o.est_ns, mem.config().cycles_to_ns(o.actual_cycles));
            mem.metrics_mut().gauge_set_fmt(
                format_args!("explain.op_rel_err_pct.ns.{key}.{}", o.op),
                err,
            );
        }
        let metrics = mem.metrics_mut();
        metrics.gauge_set_fmt(
            format_args!("explain.rel_err_pct.ns.{key}"),
            report.ns_rel_err_pct(),
        );
        metrics.gauge_set_fmt(
            format_args!("explain.rel_err_pct.bytes.{key}"),
            report.bytes_rel_err_pct(),
        );
        if path == chosen {
            chosen_profile = out.profile;
            chosen_cores = out.cores;
            chosen_topdown = out.topdown;
            chosen_ops = out.ops;
        }
        reports.push(report);
    }
    mem.metrics_mut().counter_add("explain.analyze_runs", 1);
    Ok((
        chosen,
        reports,
        chosen_profile,
        chosen_cores,
        chosen_topdown,
        chosen_ops,
    ))
}

/// `EXPLAIN ANALYZE`: render the plan, then execute the query on every
/// available path and append a table of estimated vs. actual cost (cycles
/// and bytes) with the cost model's relative error, plus the chosen path's
/// per-phase breakdown.
pub fn explain_analyze(
    mem: &mut MemoryHierarchy,
    catalog: &Catalog,
    bound: &BoundQuery,
) -> Result<String> {
    let entry = catalog.get(&bound.table)?;
    let (path, cost) = choose_path_parallel(
        mem.config(),
        &RmConfig::prototype(),
        entry,
        bound,
        mem.num_cores(),
    )?;
    let header = render_plan(entry, bound, path, &cost).map_err(fmt_err)?;
    let has_cols = entry.cols.is_some();
    let (_, reports, profile, cores, topdown, ops) = analyze_paths_impl(mem, catalog, bound)?;
    render_analyze(
        &header, has_cols, &reports, &profile, &cores, &topdown, &ops,
    )
    .map_err(fmt_err)
}

/// Error-mapped analyze rendering for callers outside this module (the
/// session API).
#[allow(clippy::too_many_arguments)]
pub(crate) fn render_analyze_report(
    header: &str,
    has_cols: bool,
    reports: &[PathReport],
    profile: &[PhaseProfile],
    cores: &[CoreAttribution],
    topdown: &fabric_sim::TopDown,
    ops: &[OpReport],
) -> Result<String> {
    render_analyze(header, has_cols, reports, profile, cores, topdown, ops).map_err(fmt_err)
}

#[allow(clippy::too_many_arguments)]
fn render_analyze(
    header: &str,
    has_cols: bool,
    reports: &[PathReport],
    profile: &[PhaseProfile],
    cores: &[CoreAttribution],
    topdown: &fabric_sim::TopDown,
    ops: &[OpReport],
) -> std::result::Result<String, std::fmt::Error> {
    let mut out = String::from(header);
    writeln!(out, "  analyze:")?;
    for r in reports {
        writeln!(
            out,
            "    {:<3}  est {:>10.3} ms / {:>12.0} B   actual {:>10.3} ms / {:>12} B   err ns {:>6.1}% bytes {:>6.1}%",
            r.path.to_string(),
            r.est_ns / 1e6,
            r.est_bytes,
            r.actual_ns / 1e6,
            r.actual_bytes,
            r.ns_rel_err_pct(),
            r.bytes_rel_err_pct(),
        )?;
    }
    if !has_cols {
        writeln!(out, "    COL  unavailable (no columnar copy)")?;
    }
    if !ops.is_empty() {
        writeln!(out, "  operators (chosen path):")?;
        for (depth, o) in ops.iter().enumerate() {
            let connector = if depth == 0 {
                String::new()
            } else {
                format!("{}└─ ", "   ".repeat(depth - 1))
            };
            let label = format!("{connector}{}", o.op);
            write!(
                out,
                "    {:<24}  est {:>10.3} ms / {:>12.0} B   actual {:>12} cycles / {:>12} B   rows {} -> {}   inv {}",
                label,
                o.est_ns / 1e6,
                o.est_bytes,
                o.actual_cycles,
                o.actual_bytes,
                o.rows_in,
                o.rows_out,
                o.invocations,
            )?;
            if o.op == "filter" && o.rows_in > 0 {
                // The cost model prices the filter over every scanned row
                // (estimated selectivity 100%); the observed selectivity
                // is what the predicate actually let through.
                writeln!(
                    out,
                    "   selectivity est 100.0% obs {:>5.1}%",
                    o.rows_out as f64 / o.rows_in as f64 * 100.0
                )?;
            } else {
                writeln!(out)?;
            }
        }
    }
    if !profile.is_empty() {
        writeln!(out, "  nodes (chosen path):")?;
        for p in profile {
            writeln!(
                out,
                "    {:<18}  {:>12} cycles  {:>12} B read  {:>12} stall cycles{}",
                p.name,
                p.cycles,
                p.bytes_read,
                p.stall_cycles,
                if p.failed { "  [failed]" } else { "" },
            )?;
        }
    }
    if !cores.is_empty() {
        writeln!(out, "  cores (chosen path):")?;
        let elapsed: u64 = cores
            .iter()
            .map(|a| a.busy_cycles + a.idle_cycles)
            .max()
            .unwrap_or(0);
        for a in cores {
            writeln!(
                out,
                "    core {:<2}  busy {:>12} cycles ({:>5.1}%)  cpu {:>12}  stall {:>12}  mem {:>12}  idle {:>12}  {:>12} B read",
                a.core,
                a.busy_cycles,
                a.busy_cycles as f64 / (elapsed.max(1)) as f64 * 100.0,
                a.cpu_cycles,
                a.stall_cycles,
                a.mem_lat_cycles,
                a.idle_cycles,
                a.bytes_read,
            )?;
        }
        writeln!(out, "    elapsed {elapsed} cycles (global clock)")?;
    }
    if !topdown.cores.is_empty() {
        writeln!(out, "  top-down (chosen path):")?;
        out.push_str(&topdown.render());
    }
    Ok(out)
}

/// The per-class latency digest appended to `EXPLAIN ANALYZE` by the
/// session API: sample count and deterministic p50/p95/p99 (in simulated
/// cycles) of every query class the engine has executed so far. Empty
/// when no session query has run yet.
pub(crate) fn render_latency_section(reg: &MetricsRegistry) -> Result<String> {
    let mut out = String::new();
    let render = |out: &mut String| -> std::result::Result<(), std::fmt::Error> {
        for class in ["q1", "q6", "scan"] {
            let key = format!("query.class.{class}.latency_cycles");
            if let Some(h) = reg.histogram(&key) {
                if out.is_empty() {
                    writeln!(out, "  latency (cycle-domain, engine lifetime):")?;
                }
                writeln!(
                    out,
                    "    {:<4}  n {:>6}  p50 {:>12.0}  p95 {:>12.0}  p99 {:>12.0} cycles",
                    class,
                    h.count(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                )?;
            }
        }
        Ok(())
    };
    render(&mut out).map_err(fmt_err)?;
    Ok(out)
}

/// The recovery appendix of `EXPLAIN ANALYZE`: one line per table the
/// engine opened from a crash image, with the report's headline numbers.
/// Empty when the engine never recovered anything.
pub(crate) fn render_recovery_section(recoveries: &[(String, RecoveryReport)]) -> Result<String> {
    let mut out = String::new();
    let render = |out: &mut String| -> std::result::Result<(), std::fmt::Error> {
        for (name, r) in recoveries {
            if out.is_empty() {
                writeln!(out, "  recovered tables:")?;
            }
            writeln!(
                out,
                "    `{}`  watermark {}  commits {}  checkpoint {}  torn-tail {} B{}",
                name,
                r.watermark,
                r.commits_replayed,
                r.checkpoint_used
                    .map_or_else(|| "-".to_string(), |id| id.to_string()),
                r.truncated_bytes,
                match &r.degraded {
                    Some(why) => format!("  DEGRADED: {why}"),
                    None => String::new(),
                },
            )?;
        }
        Ok(())
    };
    render(&mut out).map_err(fmt_err)?;
    Ok(out)
}

/// Parse + bind + `EXPLAIN ANALYZE` in one call.
pub fn explain_analyze_sql(
    mem: &mut MemoryHierarchy,
    catalog: &Catalog,
    sql: &str,
) -> Result<String> {
    let stmt = crate::parser::parse(sql)?;
    let bound = crate::bind::bind(catalog, &stmt)?;
    explain_analyze(mem, catalog, &bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::ColTable;
    use fabric_types::{ColumnType, Schema, Value};
    use rowstore::RowTable;

    fn catalog() -> Catalog {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[
            ("id", ColumnType::I64),
            ("qty", ColumnType::F64),
            ("region", ColumnType::FixedStr(1)),
        ]);
        let mut t = RowTable::create(&mut mem, schema, 8192).unwrap();
        for i in 0..8000i64 {
            t.load(
                &mut mem,
                &[Value::I64(i), Value::F64(i as f64), Value::Str("N".into())],
            )
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register_rows("orders", t);
        c
    }

    /// Like [`catalog`], but with a columnar copy so all three paths run.
    fn catalog_with_cols(rows: i64) -> (MemoryHierarchy, Catalog) {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut rt = RowTable::create(&mut mem, schema.clone(), rows as usize).unwrap();
        let mut ct = ColTable::create(&mut mem, schema, rows as usize).unwrap();
        for i in 0..rows {
            let row = vec![Value::I64(i), Value::F64(i as f64)];
            rt.load(&mut mem, &row).unwrap();
            ct.load(&mut mem, &row).unwrap();
        }
        let mut c = Catalog::new();
        c.register("orders", rt, ct);
        (mem, c)
    }

    #[test]
    fn explain_names_the_plan_pieces() {
        let c = catalog();
        let text = explain_sql(
            &SimConfig::zynq_a53(),
            &c,
            "SELECT region, sum(qty) FROM orders WHERE id < 10 \
             GROUP BY region ORDER BY 2 DESC LIMIT 5",
        )
        .unwrap();
        assert!(text.contains("Plan for `orders` (8000 rows)"), "{text}");
        assert!(text.contains("filter: id < 10"), "{text}");
        assert!(text.contains("group by: region"), "{text}");
        assert!(text.contains("order by: #2 DESC"), "{text}");
        assert!(text.contains("limit: 5"), "{text}");
        assert!(text.contains("estimates: ROW"), "{text}");
        assert!(text.contains("unavailable (no columnar copy)"), "{text}");
    }

    #[test]
    fn explain_reports_the_chosen_access() {
        // Narrow rows (17 bytes, 8 touched): the vectorized ROW morsel
        // kernel amortized away the per-row interpreter overhead, so the
        // line stream wins even against the fabric — the crossover moved
        // with the engine and the model moved with it.
        let c = catalog();
        let text = explain_sql(&SimConfig::zynq_a53(), &c, "SELECT sum(qty) FROM orders").unwrap();
        assert!(text.contains("access: ROW"), "{text}");

        // Wide rows, low projectivity: ROW drags the untouched 120
        // bytes per row through the hierarchy, and the fabric path wins
        // scans — the paper's headline regime is unchanged.
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let pairs: Vec<(&str, ColumnType)> = (0..16)
            .map(|i| {
                let name: &'static str = Box::leak(format!("c{i}").into_boxed_str());
                (name, ColumnType::I64)
            })
            .collect();
        let schema = Schema::from_pairs(&pairs);
        let mut t = RowTable::create(&mut mem, schema, 8192).unwrap();
        for i in 0..8000i64 {
            t.load(
                &mut mem,
                &(0..16).map(|k| Value::I64(i + k)).collect::<Vec<_>>(),
            )
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register_rows("wide", t);
        let text = explain_sql(&SimConfig::zynq_a53(), &c, "SELECT sum(c3) FROM wide").unwrap();
        assert!(text.contains("access: RM"), "{text}");
        assert!(text.contains("ephemeral column group"), "{text}");
    }

    #[test]
    fn explain_propagates_bind_errors() {
        let c = catalog();
        assert!(explain_sql(&SimConfig::zynq_a53(), &c, "SELECT nope FROM orders").is_err());
        assert!(explain_sql(&SimConfig::zynq_a53(), &c, "SELECT id FROM missing").is_err());
    }

    #[test]
    fn explain_analyze_measures_all_three_paths() {
        let (mut mem, c) = catalog_with_cols(2000);
        let text = explain_analyze_sql(&mut mem, &c, "SELECT sum(qty) FROM orders WHERE id < 1000")
            .unwrap();
        assert!(text.contains("analyze:"), "{text}");
        for path in ["ROW", "COL", "RM"] {
            assert!(
                text.lines().any(|l| {
                    l.trim_start().starts_with(path) && l.contains("est") && l.contains("actual")
                }),
                "missing {path} analyze row in:\n{text}"
            );
        }
        assert!(text.contains("err ns"), "{text}");
        assert!(text.contains("nodes (chosen path):"), "{text}");
        assert!(text.contains("top-down (chosen path):"), "{text}");
        assert!(text.contains("stall.retry"), "{text}");
        // Relative-error gauges landed in the metrics registry for every
        // path, and the model stays honest on this selective-aggregate
        // shape: the ROW estimate tracks the vectorized morsel kernel
        // (the old per-row Volcano pricing would drift past 50% here),
        // and the COL/RM estimates stay within their documented slack.
        for (key, bound) in [("row", 30.0), ("col", 60.0), ("rm", 50.0)] {
            for dim in ["ns", "bytes"] {
                let name = format!("explain.rel_err_pct.{dim}.{key}");
                assert!(mem.metrics().gauge(&name).is_some(), "missing gauge {name}");
            }
            let err = mem
                .metrics()
                .gauge(&format!("explain.rel_err_pct.ns.{key}"))
                .unwrap();
            assert!(err < bound, "{key} ns rel-err {err:.1}% ≥ {bound}%");
        }
        // The per-operator split inherits the same honesty: every
        // stage-0 operator's rel-err gauge stays inside the path bound
        // (the scan absorbs the phase remainder, so it is the
        // worst-case node).
        for (key, scan, bound) in [
            ("row", "scan_row", 30.0),
            ("col", "scan_col", 60.0),
            ("rm", "scan_rm", 50.0),
        ] {
            let name = format!("explain.op_rel_err_pct.ns.{key}.{scan}");
            let err = mem
                .metrics()
                .gauge(&name)
                .unwrap_or_else(|| panic!("missing gauge {name}"));
            assert!(err < bound, "{name} = {err:.1}% ≥ {bound}%");
        }
        assert!(text.contains("operators (chosen path):"), "{text}");
        assert!(text.contains("selectivity est 100.0%"), "{text}");
        assert_eq!(mem.metrics().counter("explain.analyze_runs"), 1);
    }

    #[test]
    fn explain_analyze_without_columnar_copy_marks_col_unavailable() {
        let mut mem = MemoryHierarchy::new(SimConfig::zynq_a53());
        let schema = Schema::from_pairs(&[("id", ColumnType::I64), ("qty", ColumnType::F64)]);
        let mut t = RowTable::create(&mut mem, schema, 512).unwrap();
        for i in 0..500i64 {
            t.load(&mut mem, &[Value::I64(i), Value::F64(i as f64)])
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register_rows("orders", t);
        let text = explain_analyze_sql(&mut mem, &c, "SELECT sum(qty) FROM orders").unwrap();
        assert!(
            text.contains("COL  unavailable (no columnar copy)"),
            "{text}"
        );
        assert!(mem.metrics().gauge("explain.rel_err_pct.ns.col").is_none());
        assert!(mem.metrics().gauge("explain.rel_err_pct.ns.rm").is_some());
    }

    #[test]
    fn analyze_reports_are_structurally_sound() {
        let (mut mem, c) = catalog_with_cols(500);
        let stmt = crate::parser::parse("SELECT id FROM orders WHERE id < 100").unwrap();
        let bound = crate::bind::bind(&c, &stmt).unwrap();
        let (chosen, reports, profile) = analyze_paths(&mut mem, &c, &bound).unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.actual_ns > 0.0, "{r:?}");
            assert!(r.actual_bytes > 0, "{r:?}");
            assert!(r.est_ns > 0.0 && r.est_bytes > 0.0, "{r:?}");
            assert!(r.ns_rel_err_pct().is_finite());
            assert!(r.bytes_rel_err_pct().is_finite());
        }
        // The chosen path's profile has at least its scan node.
        assert!(reports.iter().any(|r| r.path == chosen));
        assert!(!profile.is_empty());
        assert!(profile.iter().any(|p| p.name.starts_with("query::scan::")));
    }
}
