//! Scoped metric registries: a borrowed view over [`MetricsRegistry`]
//! that prefixes every metric name with a dotted scope
//! (`"session.3."`, `"durability.wal."`, …).
//!
//! Scopes are a *naming* convention, not separate storage — every write
//! lands in the one global registry, so the prefix tree rolls up into the
//! same [`MetricsSnapshot`] that benches export and the perf gate checks.
//! [`MetricsSnapshot::subtree`] is the read-side complement: it carves a
//! prefix-stripped view back out of a snapshot.

use crate::metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
use std::fmt::{self, Write as _};

/// A write handle that namespaces metric names under a dotted prefix.
///
/// Created by [`MetricsRegistry::scoped`] or
/// [`MetricsRegistry::scoped_fmt`]; the prefix always ends with `'.'`
/// (appended if the caller omitted it), so `scoped("session.3")` and
/// `scoped("session.3.")` name the same subtree. The scope borrows the
/// registry's name buffer, keeps the prefix at its front and appends each
/// name after it, and hands the buffer back on drop, so a scoped write
/// allocates only when its full name is new.
pub struct ScopedMetrics<'a> {
    reg: &'a mut MetricsRegistry,
    /// The prefix, followed by the last name written under it.
    key: String,
    prefix_len: usize,
}

impl<'a> ScopedMetrics<'a> {
    fn new(reg: &'a mut MetricsRegistry, prefix: fmt::Arguments<'_>) -> Self {
        let mut key = std::mem::take(&mut reg.state_mut().key_buf);
        key.clear();
        // Writing into a `String` cannot fail.
        let _infallible = key.write_fmt(prefix);
        if !key.ends_with('.') {
            key.push('.');
        }
        let prefix_len = key.len();
        ScopedMetrics {
            reg,
            key,
            prefix_len,
        }
    }

    fn owned_key(&self, name: &str) -> String {
        let mut k = String::with_capacity(self.prefix_len + name.len());
        k.push_str(self.prefix());
        k.push_str(name);
        k
    }

    /// The scope's full dotted prefix, trailing `'.'` included.
    pub fn prefix(&self) -> &str {
        &self.key[..self.prefix_len]
    }

    /// Add to `"<prefix><name>"` in the underlying registry.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        self.key.truncate(self.prefix_len);
        self.key.push_str(name);
        self.reg.counter_add(&self.key, delta);
    }

    /// Read counter `"<prefix><name>"` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.reg.counter(&self.owned_key(name))
    }

    /// Set gauge `"<prefix><name>"`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.key.truncate(self.prefix_len);
        self.key.push_str(name);
        self.reg.gauge_set(&self.key, value);
    }

    /// Record a histogram sample under `"<prefix><name>"`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.key.truncate(self.prefix_len);
        self.key.push_str(name);
        self.reg.observe(&self.key, value);
    }

    /// Record a histogram sample under `"<prefix>"` followed by `name`
    /// (`format_args!`), allocating only when the full name is new.
    pub fn observe_fmt(&mut self, name: fmt::Arguments<'_>, value: u64) {
        self.key.truncate(self.prefix_len);
        // Writing into a `String` cannot fail.
        let _infallible = self.key.write_fmt(name);
        self.reg.observe(&self.key, value);
    }

    /// Read histogram `"<prefix><name>"`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.reg.histogram(&self.owned_key(name))
    }

    /// A child scope: `scope("wal")` under `"durability."` writes to
    /// `"durability.wal.*"`. Reborrows the same registry.
    pub fn scope(&mut self, name: &str) -> ScopedMetrics<'_> {
        let child = self.owned_key(name);
        ScopedMetrics::new(self.reg, format_args!("{child}"))
    }
}

impl Drop for ScopedMetrics<'_> {
    fn drop(&mut self) {
        self.reg.state_mut().key_buf = std::mem::take(&mut self.key);
    }
}

impl MetricsRegistry {
    /// A scoped write handle over this registry; see [`ScopedMetrics`].
    pub fn scoped(&mut self, prefix: &str) -> ScopedMetrics<'_> {
        ScopedMetrics::new(self, format_args!("{prefix}"))
    }

    /// [`MetricsRegistry::scoped`] under a prefix built from `prefix`
    /// (`format_args!`, e.g. `format_args!("session.{id}")`) without
    /// allocating once the registry's name buffer is warm.
    pub fn scoped_fmt(&mut self, prefix: fmt::Arguments<'_>) -> ScopedMetrics<'_> {
        ScopedMetrics::new(self, prefix)
    }
}

impl MetricsSnapshot {
    /// The prefix-stripped subtree of this snapshot: every metric whose
    /// name starts with `"<prefix>."` (the dot is appended if missing),
    /// re-keyed without the prefix. `subtree("session.3").counter("queries")`
    /// reads what `scoped("session.3").counter_add("queries", ..)` wrote.
    pub fn subtree(&self, prefix: &str) -> MetricsSnapshot {
        let mut p = prefix.to_string();
        if !p.ends_with('.') {
            p.push('.');
        }
        fn strip<V: Clone>(
            m: &std::collections::BTreeMap<String, V>,
            p: &str,
        ) -> std::collections::BTreeMap<String, V> {
            m.iter()
                .filter_map(|(k, v)| k.strip_prefix(p).map(|rest| (rest.to_string(), v.clone())))
                .collect()
        }
        MetricsSnapshot {
            counters: strip(&self.counters, &p),
            gauges: strip(&self.gauges, &p),
            histograms: strip(&self.histograms, &p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_prefix_and_roll_up() {
        let mut reg = MetricsRegistry::new();
        {
            let mut s = reg.scoped("session.3");
            s.counter_add("queries", 2);
            s.observe("latency.q1", 700);
            s.gauge_set("p99", 700.0);
            {
                let mut child = s.scope("io");
                child.counter_add("reads", 5);
            }
            // The parent keeps its own prefix once the child is gone.
            s.counter_add("queries", 1);
        }
        reg.scoped_fmt(format_args!("session.{}", 3))
            .observe_fmt(format_args!("latency.{}", "q1"), 900);
        assert_eq!(reg.counter("session.3.queries"), 3);
        assert_eq!(reg.counter("session.3.io.reads"), 5);
        assert_eq!(reg.gauge("session.3.p99"), Some(700.0));
        assert_eq!(
            reg.histogram("session.3.latency.q1").map(Histogram::count),
            Some(2)
        );
    }

    #[test]
    fn trailing_dot_is_normalized() {
        let mut reg = MetricsRegistry::new();
        reg.scoped("durability.wal.").counter_add("appends", 1);
        reg.scoped("durability.wal").counter_add("appends", 1);
        assert_eq!(reg.counter("durability.wal.appends"), 2);
    }

    #[test]
    fn subtree_strips_the_prefix() {
        let mut reg = MetricsRegistry::new();
        reg.scoped("session.1").counter_add("queries", 4);
        reg.scoped("session.11").counter_add("queries", 9);
        reg.counter_add("unrelated", 1);
        let snap = reg.snapshot();
        let s1 = snap.subtree("session.1");
        assert_eq!(s1.counter("queries"), 4);
        // "session.11.*" must not leak into "session.1"'s subtree.
        assert_eq!(s1.counters.len(), 1);
        assert!(snap.subtree("session.2").counters.is_empty());
    }
}
