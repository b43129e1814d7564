//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Prints a human-readable summary on standard error and, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A traced run also writes its spans to
//! `traces/<workload>-seed<seed>.jsonl` beside this package's manifest.

use perfbench::{run, Options, Workload};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => quick = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut opts = Options::new(workload, seed.ok_or("--seed is required")?);
    opts.seconds = seconds.unwrap_or(opts.seconds);
    opts.trace = trace;
    opts.quick = quick;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for m in &report.metrics {
        eprintln!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &report.spans_jsonl));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
