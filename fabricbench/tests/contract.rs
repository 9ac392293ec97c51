//! The benchmark's own invariants, on small inputs of the same shape as
//! the measured ones.

use fabricbench::{run, Config, Report, Scale, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use std::collections::BTreeMap;

fn small(workload: Workload, seed: u64, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Small,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// Metrics of the simulated machine: exact by construction.
fn simulated(r: &Report) -> Vec<(String, f64)> {
    r.metrics
        .iter()
        .filter(|(n, _, _)| {
            (n.starts_with("sim.") && n != "sim.host_ns_per_line")
                || n.starts_with("td.")
                || n.starts_with("rm.")
                || n.starts_with("durability.wal")
                || n.starts_with("durability.checkpoint_pages")
        })
        .map(|(n, _, v)| (n.clone(), *v))
        .collect()
}

#[test]
fn simulated_metrics_repeat_exactly_for_a_seed() {
    for w in Workload::ALL {
        let a = small(w, 11, true);
        let b = small(w, 11, true);
        assert_eq!(a.tally, b.tally, "{}", w.name());
        assert_eq!(a.sim_ms.to_bits(), b.sim_ms.to_bits(), "{}", w.name());
        let (sa, sb) = (simulated(&a), simulated(&b));
        assert!(sa.len() > 20, "{}: {sa:?}", w.name());
        for ((na, va), (nb, vb)) in sa.iter().zip(&sb) {
            assert_eq!(na, nb);
            assert_eq!(va.to_bits(), vb.to_bits(), "{}: {na}", w.name());
        }
        assert!(a.sim_ms > 0.0, "{}", w.name());
    }
}

#[test]
fn line_accesses_are_the_sum_of_their_outcomes() {
    for w in Workload::ALL {
        let m = small(w, 12, false).tally.mem;
        assert!(m.line_accesses > 0, "{}", w.name());
        assert_eq!(
            m.line_accesses,
            m.l1_hits + m.l2_hits + m.prefetch_hits + m.demand_misses,
            "{}",
            w.name()
        );
    }
}

#[test]
fn topdown_buckets_sum_to_cores_times_elapsed() {
    for w in Workload::ALL {
        let t = small(w, 13, false).tally;
        let buckets: u64 = t.td.iter().sum();
        assert!(buckets > 0, "{}", w.name());
        assert_eq!(buckets, t.td_elapsed, "{}", w.name());
    }
    // One core and no parallel region: the window is the clock advance.
    let t = small(Workload::HtapDurable, 13, false).tally;
    assert_eq!(t.td_elapsed, t.cycles);
}

#[test]
fn traced_self_times_sum_to_the_root_spans() {
    for w in Workload::ALL {
        let r = small(w, 14, true);
        let tr = &r.tracer;
        assert!(tr.roots_named("op") > 0, "{}", w.name());
        let self_total: u64 = tr.self_ns().values().sum();
        assert_eq!(self_total, tr.root_ns(), "{}", w.name());
        // Recompute from the exported records: every span was kept at this
        // size, so the records must give the same self times and roots.
        let spans = tr.spans();
        let mut recomputed: BTreeMap<&str, u64> = BTreeMap::new();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                assert_eq!(parent.req, s.req);
                child_ns[p] += s.dur_ns();
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            *recomputed.entry(s.name).or_insert(0) += s.dur_ns() - c;
        }
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns())
            .sum();
        assert_eq!(&recomputed, tr.self_ns(), "{}", w.name());
        assert_eq!(roots, tr.root_ns(), "{}", w.name());
    }
}

#[test]
fn untraced_runs_record_no_spans() {
    let r = small(Workload::DashboardHot, 15, false);
    assert!(r.tracer.spans().is_empty());
}

#[test]
fn named_seeds_pass_every_oracle() {
    for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
        for w in Workload::ALL {
            for trace in [false, true] {
                let r = small(w, seed, trace);
                assert!(r.correct, "{} seed {seed}: {:?}", w.name(), r.notes);
                assert_eq!(r.failed, 0);
                assert!(r.attempted > 0);
            }
        }
    }
}

#[test]
fn reports_follow_the_catalogue_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = small(w, 16, trace);
            for (name, unit, _) in &r.metrics {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
            }
        }
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "workload {} missing from BENCHMARK.json",
            w.name()
        );
    }
    let e2e = text.matches("\"bound\"").count();
    assert_eq!(e2e, fabricbench::END_TO_END.len());
    let per_layer = text.matches("\"better\"").count() - e2e;
    assert_eq!(per_layer, fabricbench::per_layer_metrics().len());
}
