//! `cargo run -p fabric-lint` — walk the workspace, diff against
//! `lint-baseline.txt`, exit non-zero on any NEW violation. With
//! `--self-check` (the CI mode) the analyzer first replays its fixture
//! corpus and then applies the baseline ratchet in both directions.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use fabric_lint::baseline::{compare, Baseline};

const USAGE: &str = "\
usage: fabric-lint [--root DIR] [--baseline FILE] [--update-baseline] [--list] [--self-check]

  --root DIR         workspace root to scan (default: current directory)
  --baseline FILE    baseline file (default: <root>/lint-baseline.txt)
  --update-baseline  rewrite the baseline from the current scan and exit
  --list             print every diagnostic, baselined or not
  --self-check       CI mode: replay the fixture corpus (exact expected
                     findings, all 12 rules covered) and fail on stale
                     baseline entries as well as new violations";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fabric-lint: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut update = false;
    let mut list = false;
    let mut self_check = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root needs a value")?),
            "--baseline" => {
                baseline_path = Some(PathBuf::from(
                    args.next().ok_or("--baseline needs a value")?,
                ))
            }
            "--update-baseline" => update = true,
            "--list" => list = true,
            "--self-check" => self_check = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}").into()),
        }
    }
    if !root.join("crates").is_dir() {
        return Err(format!(
            "`{}` has no crates/ directory — run from the workspace root or pass --root",
            root.display()
        )
        .into());
    }

    if self_check {
        let report = fabric_lint::selfcheck::self_check(&root)?;
        for f in &report.failures {
            eprintln!("fabric-lint: self-check: {f}");
        }
        return if report.ok() {
            println!(
                "fabric-lint: self-check passed ({} fixtures, {} expected findings, \
                 baseline ratchet tight in both directions)",
                report.fixtures, report.expected_findings
            );
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!(
                "fabric-lint: self-check FAILED — {} problem(s)",
                report.failures.len()
            );
            Ok(ExitCode::FAILURE)
        };
    }

    let diags = fabric_lint::scan_workspace(&root)?;
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));

    if update {
        let base = Baseline::from_diagnostics(&diags);
        fs::write(&baseline_path, base.render())?;
        println!(
            "fabric-lint: wrote {} baseline entries ({} violations) to {}",
            base.entries(),
            diags.len(),
            baseline_path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    if list {
        for d in &diags {
            println!("{d}");
        }
    }

    let base = if baseline_path.is_file() {
        Baseline::parse(&fs::read_to_string(&baseline_path)?)?
    } else {
        Baseline::default()
    };
    let cmp = compare(&diags, &base);

    if !list {
        for d in &cmp.fresh {
            println!("{d}");
        }
    }
    for delta in &cmp.grown {
        eprintln!("fabric-lint: over baseline — {delta}");
    }
    for delta in &cmp.stale {
        eprintln!("fabric-lint: note: debt shrank — {delta}; ratchet with --update-baseline");
    }

    if cmp.fresh.is_empty() {
        println!(
            "fabric-lint: clean ({} baselined violation(s) across {} entr{}, 0 new)",
            cmp.suppressed,
            base.entries(),
            if base.entries() == 1 { "y" } else { "ies" }
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "fabric-lint: FAILED — {} violation(s) above baseline ({} baselined)",
            cmp.fresh.len(),
            cmp.suppressed
        );
        Ok(ExitCode::FAILURE)
    }
}
