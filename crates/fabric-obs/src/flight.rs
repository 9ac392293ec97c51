//! Flight recorder: always-on bounded event ring + postmortem artifacts
//! (DESIGN.md §12).
//!
//! The fabric records every trace event into a small ring regardless of
//! whether a user recorder is installed — recording is allocation-free and
//! never advances simulated time, so the always-on ring is behaviorally
//! invisible. When something goes wrong (a query degrades off the RM path,
//! the circuit breaker trips, a CRC check fails), the owner dumps a
//! **postmortem**: the last-N trace events as a validator-clean Chrome
//! trace, the metrics delta since the registry's last mark, the top-down
//! cycle breakdown at the instant of failure, and the fault timeline
//! extracted from the ring. Every input is simulated state, so the
//! artifact is byte-deterministic: the same seed produces the same dump.

use crate::metrics::MetricsSnapshot;
use crate::topdown::TopDown;
use crate::trace::{Phase, TraceBuffer, TraceEvent};
use crate::Cycles;
use std::fmt::Write as _;

/// Default flight-ring capacity (events). Big enough to hold several
/// batches' worth of spans around a failure, small enough to stay cheap.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// Postmortems retained per recorder; older dumps are discarded (the
/// count is still visible via [`FlightRecorder::dumps`]).
pub const MAX_POSTMORTEMS: usize = 8;

/// One postmortem artifact, captured at a failure trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct Postmortem {
    /// What tripped the dump (e.g. `"degraded"`, `"breaker-open"`,
    /// `"crc-failure"`).
    pub reason: &'static str,
    /// Simulated cycle at which the dump was taken.
    pub cycle: Cycles,
    /// The last-N trace events as Chrome trace-event JSON. Orphan `E`
    /// events whose `B` was overwritten by ring wrap-around are elided,
    /// so this always round-trips through
    /// [`crate::validate_chrome_trace`].
    pub trace: String,
    /// Metrics delta since the registry's last
    /// [`crate::MetricsRegistry::mark`] (or the full snapshot if it was
    /// never marked), serialized via [`MetricsSnapshot::to_json`].
    pub metrics_delta: String,
    /// Top-down cycle breakdown at the dump instant
    /// ([`TopDown::to_json`]).
    pub topdown: String,
    /// Fault-category events from the ring, oldest first:
    /// `[{"ts":..,"name":"..",..}, ...]`.
    pub fault_timeline: String,
    /// Optional caller-supplied JSON document giving the dump's trigger
    /// context (e.g. a recovery report). Must be valid JSON; embedded
    /// verbatim under `"context"` when present.
    pub context: Option<String>,
}

impl Postmortem {
    /// The combined artifact: one JSON document embedding all four parts
    /// plus the trigger metadata. Byte-deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(
            128 + self.trace.len()
                + self.metrics_delta.len()
                + self.topdown.len()
                + self.fault_timeline.len(),
        );
        let _ignored = write!(
            out,
            "{{\"schema_version\":1,\"reason\":\"{}\",\"cycle\":{}",
            crate::json::escaped(self.reason),
            self.cycle,
        );
        if let Some(ctx) = &self.context {
            let _ignored = write!(out, ",\"context\":{ctx}");
        }
        let _ignored = write!(
            out,
            ",\"topdown\":{},\"fault_timeline\":{},\"metrics_delta\":{},\"trace\":{}}}",
            self.topdown, self.fault_timeline, self.metrics_delta, self.trace,
        );
        out
    }
}

/// The always-on bounded ring plus the postmortems it has produced.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: TraceBuffer,
    postmortems: Vec<Postmortem>,
    dumps: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_FLIGHT_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder whose ring holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        FlightRecorder {
            ring: TraceBuffer::with_capacity(capacity),
            postmortems: Vec::new(),
            dumps: 0,
        }
    }

    /// Record one event (called from every trace entry point, always).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.ring.push(ev);
    }

    /// Total dumps taken (monotonic, survives postmortem eviction).
    pub fn dumps(&self) -> u64 {
        self.dumps
    }

    /// The retained postmortems, oldest first.
    pub fn postmortems(&self) -> &[Postmortem] {
        &self.postmortems
    }

    /// Drain the retained postmortems.
    pub fn take_postmortems(&mut self) -> Vec<Postmortem> {
        std::mem::take(&mut self.postmortems)
    }

    /// Capture a postmortem at simulated cycle `now`. `metrics` is the
    /// metrics delta of the window being reported (the owner's
    /// [`crate::MetricsRegistry::delta_since_mark`]); `topdown` the
    /// breakdown at this instant.
    pub fn dump(
        &mut self,
        reason: &'static str,
        now: Cycles,
        metrics: &MetricsSnapshot,
        topdown: &TopDown,
    ) -> &Postmortem {
        self.dump_with_context(reason, now, metrics, topdown, None)
    }

    /// [`FlightRecorder::dump`] with a caller-supplied context document
    /// (must already be valid JSON — e.g. a `RecoveryReport` rendering)
    /// embedded in the artifact under `"context"`.
    pub fn dump_with_context(
        &mut self,
        reason: &'static str,
        now: Cycles,
        metrics: &MetricsSnapshot,
        topdown: &TopDown,
        context: Option<String>,
    ) -> &Postmortem {
        self.dumps += 1;
        let pm = Postmortem {
            reason,
            cycle: now,
            trace: self.sanitized_trace(),
            metrics_delta: metrics.to_json(),
            topdown: topdown.to_json(),
            fault_timeline: self.fault_timeline(),
            context,
        };
        if self.postmortems.len() == MAX_POSTMORTEMS {
            self.postmortems.remove(0);
        }
        self.postmortems.push(pm);
        self.postmortems.last().expect("just pushed")
    }

    /// The ring's events as Chrome JSON with orphan `E`s (whose `B` fell
    /// off the ring) elided, so the export always validates.
    fn sanitized_trace(&self) -> String {
        let mut kept = TraceBuffer::with_capacity(self.ring.len().max(1));
        let mut open: Vec<(u32, &str)> = Vec::new();
        for ev in self.ring.iter() {
            match ev.ph {
                Phase::Begin => {
                    open.push((ev.cat.track(), ev.name));
                    kept.push(*ev);
                }
                Phase::End => {
                    if let Some(i) = open
                        .iter()
                        .rposition(|&(t, n)| t == ev.cat.track() && n == ev.name)
                    {
                        open.remove(i);
                        kept.push(*ev);
                    }
                    // Orphan end: its begin was overwritten — elide.
                }
                _ => kept.push(*ev),
            }
        }
        kept.to_chrome_json()
    }

    /// Fault-category events in the ring, oldest first, as a JSON array.
    fn fault_timeline(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for ev in self.ring.iter() {
            if ev.cat != crate::trace::Category::Fault {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ignored = write!(
                out,
                "{{\"ts\":{},\"name\":\"{}\"",
                ev.ts,
                crate::json::escaped(ev.name)
            );
            for (k, v) in ev.args() {
                let _ignored = write!(out, ",\"{}\":{}", crate::json::escaped(k), v);
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::topdown::TopDownCore;
    use crate::trace::Category;

    fn armed_recorder() -> (FlightRecorder, MetricsRegistry) {
        let fr = FlightRecorder::with_capacity(8);
        let mut reg = MetricsRegistry::new();
        reg.mark();
        (fr, reg)
    }

    #[test]
    fn dump_is_deterministic_and_validator_clean() {
        let build = || {
            let (mut fr, mut reg) = armed_recorder();
            fr.record(TraceEvent::new(Phase::Begin, 10, "q", Category::Query, &[]));
            fr.record(TraceEvent::new(
                Phase::Instant,
                12,
                "rm.fault.crc",
                Category::Fault,
                &[("attempt", 1)],
            ));
            fr.record(TraceEvent::new(Phase::End, 20, "q", Category::Query, &[]));
            reg.counter_add("q.runs", 1);
            let td = TopDown {
                cores: vec![TopDownCore {
                    retired: 20,
                    elapsed: 20,
                    ..TopDownCore::default()
                }],
            };
            fr.dump("crc-failure", 20, &reg.delta_since_mark(), &td)
                .to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "postmortem must be byte-deterministic");
        let doc = crate::parse_json(&a).expect("artifact parses");
        assert_eq!(
            doc.get("reason").and_then(crate::Json::as_str),
            Some("crc-failure")
        );
        assert!(a.contains("\"rm.fault.crc\""), "{a}");
        // The embedded trace stands alone as a valid Chrome trace.
        let (mut fr2, reg2) = armed_recorder();
        fr2.record(TraceEvent::new(Phase::Begin, 1, "s", Category::Rm, &[]));
        fr2.record(TraceEvent::new(Phase::End, 2, "s", Category::Rm, &[]));
        let pm = fr2.dump("degraded", 2, &reg2.delta_since_mark(), &TopDown::default());
        crate::validate_chrome_trace(&pm.trace).expect("trace validates");
    }

    #[test]
    fn wrapped_ring_elides_orphan_ends() {
        let mut fr = FlightRecorder::with_capacity(2);
        fr.record(TraceEvent::new(Phase::Begin, 1, "a", Category::Query, &[]));
        fr.record(TraceEvent::new(Phase::Begin, 2, "b", Category::Query, &[]));
        // Wraps: "a"'s begin falls off; its end would be an orphan.
        fr.record(TraceEvent::new(Phase::End, 3, "a", Category::Query, &[]));
        let reg = MetricsRegistry::new();
        let pm = fr.dump("degraded", 3, &reg.snapshot(), &TopDown::default());
        let s = crate::validate_chrome_trace(&pm.trace).expect("sanitized trace validates");
        assert_eq!(s.ends, 0, "orphan end must be elided");
        assert_eq!(s.begins, 1);
    }

    #[test]
    fn context_embeds_verbatim_and_stays_parseable() {
        let (mut fr, reg) = armed_recorder();
        let ctx = "{\"watermark\":7,\"degraded\":\"torn checkpoint\"}".to_string();
        let pm = fr
            .dump_with_context(
                "recovery-degraded",
                9,
                &reg.delta_since_mark(),
                &TopDown::default(),
                Some(ctx),
            )
            .to_json();
        let doc = crate::parse_json(&pm).expect("artifact with context parses");
        assert_eq!(
            doc.get("context")
                .and_then(|c| c.get("watermark"))
                .and_then(crate::Json::as_num),
            Some(7.0)
        );
        // Without context the key is absent entirely (byte-compatible
        // with pre-context artifacts).
        let pm2 = fr
            .dump("degraded", 9, &reg.delta_since_mark(), &TopDown::default())
            .to_json();
        assert!(!pm2.contains("\"context\""));
    }

    #[test]
    fn postmortems_are_bounded_but_counted() {
        let mut fr = FlightRecorder::with_capacity(4);
        let reg = MetricsRegistry::new();
        for _ in 0..(MAX_POSTMORTEMS + 3) {
            fr.dump("degraded", 1, &reg.snapshot(), &TopDown::default());
        }
        assert_eq!(fr.postmortems().len(), MAX_POSTMORTEMS);
        assert_eq!(fr.dumps(), (MAX_POSTMORTEMS + 3) as u64);
        assert_eq!(fr.take_postmortems().len(), MAX_POSTMORTEMS);
        assert!(fr.postmortems().is_empty());
    }

    #[test]
    fn dump_reports_the_window_since_the_mark() {
        let (mut fr, mut reg) = armed_recorder();
        reg.counter_add("before.window", 5);
        reg.mark();
        reg.counter_add("before.window", 2);
        reg.counter_add("in.window", 1);
        let pm = fr
            .dump("degraded", 1, &reg.delta_since_mark(), &TopDown::default())
            .to_json();
        assert!(
            pm.contains("\"counters\":{\"before.window\":2,\"in.window\":1}"),
            "{pm}"
        );
    }
}
