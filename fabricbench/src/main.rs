//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! fabricbench --workload <scan_cold|dashboard_hot|htap_durable>
//!             [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, and the spans are written to
//! `.bench_out/trace-<workload>.json`. Exits 1 when an oracle failed and
//! 2 on a usage or set-up error.

use fabricbench::{run, Config, Scale, Workload, DEFAULT_SEED};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("fabricbench: {msg}");
    eprintln!(
        "usage: fabricbench --workload <scan_cold|dashboard_hot|htap_durable> \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::ScanCold,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => cfg.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: expected 0 < S <= 600"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fabricbench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    if cfg.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}.json", cfg.workload.name()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, report.tracer.to_json()));
        match written {
            Ok(()) => eprintln!(
                "fabricbench: {} spans written to {}",
                report.tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("fabricbench: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    for note in &report.notes {
        eprintln!("fabricbench: {note}");
    }
    println!(
        "workload {} seed {} trace {} attempted {} failed {}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        report.attempted,
        report.failed
    );
    let mut json = String::new();
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        println!("{name:<40} {value:>20} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.correct, report.attempted, report.failed
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
