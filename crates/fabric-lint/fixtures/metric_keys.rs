//@ scan-as: crates/query/src/fx_metric_keys.rs
//! `metric-key-alloc`: a metric name built with `&format!` allocates on
//! every write; the `*_fmt` entry points take `format_args!` and reuse
//! the registry's key buffer. Literal names, prebuilt `&str` names and
//! test code stay legal.

pub fn per_core(metrics: &mut MetricsRegistry, core: usize, busy: u64) {
    metrics.counter_add(&format!("query.core{core}.busy_cycles"), busy); //~ metric-key-alloc
    metrics.gauge_set(&format!("query.core{core}.util"), 0.5); //~ metric-key-alloc
    metrics.observe( //~ metric-key-alloc
        &format!("query.core{core}.latency"),
        busy,
    );
    let mut scope = metrics.scoped(&format!("session.{core}")); //~ metric-key-alloc
    scope.counter_add("queries", 1);
}

pub fn allocation_free(metrics: &mut MetricsRegistry, core: usize, name: &str) {
    metrics.counter_add_fmt(format_args!("query.core{core}.busy_cycles"), 1);
    metrics.gauge_set_fmt(format_args!("query.core{core}.util"), 0.5);
    metrics.observe_fmt(format_args!("query.core{core}.latency"), 1);
    metrics.scoped_fmt(format_args!("session.{core}")).counter_add("queries", 1);
    metrics.counter_add("query.executions", 1);
    metrics.counter_add(name, 1);
    let label = format!("core {core}");
    drop(label);
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_format_names() {
        let mut metrics = MetricsRegistry::new();
        metrics.counter_add(&format!("t.{}", 1), 1);
    }
}
