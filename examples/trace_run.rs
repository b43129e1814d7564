//! Stream a short fabric run's event trace to JSONL and read it back.
//!
//! Attaches a [`JsonlProbe`] to a 16-host simulation, writes one JSON
//! object per event to `trace.jsonl`, then re-parses every emitted line
//! with the probe crate's own `parse_line` and prints a per-event-kind
//! tally. Exits non-zero if any line fails to parse — `make trace-smoke`
//! uses this as the trace-schema gate.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example trace_run [output_dir]
//! ```

use basrpt::prelude::*;
use basrpt::probe::jsonl::{parse_line, JsonValue};
use std::collections::BTreeMap;
use std::error::Error;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, BufWriter};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn Error>> {
    let out_dir: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace-run".into())
        .into();
    fs::create_dir_all(&out_dir)?;
    let trace_path = out_dir.join("trace.jsonl");

    // A short, fully traced run: 16 hosts at 80 % load for 50 ms.
    let topo = FatTree::scaled(4, 4, 1)?;
    let spec = TrafficSpec::scaled(4, 4, 0.80)?;
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.05))
        .build();
    let mut sched = Srpt::new();
    let mut probe = JsonlProbe::new(BufWriter::new(File::create(&trace_path)?));
    let run = simulate_probed(&topo, &mut sched, spec.generator(42)?, config, &mut probe)?;
    let lines_written = probe.lines_written();
    probe.finish()?; // flush and surface any latched I/O error

    println!(
        "simulated 50 ms: {} arrivals, {} completions, {} reschedules",
        run.arrivals, run.completions, run.reschedules
    );
    println!(
        "wrote {} trace lines to {}",
        lines_written,
        trace_path.display()
    );

    // Read the trace back and validate that every line parses and names
    // its event kind — the same check `tests/trace_golden.rs` pins with a
    // golden file.
    let mut tally: BTreeMap<String, usize> = BTreeMap::new();
    let mut parsed = 0u64;
    for (lineno, line) in BufReader::new(File::open(&trace_path)?).lines().enumerate() {
        let line = line?;
        let fields =
            parse_line(&line).map_err(|e| format!("line {}: {e} in {line:?}", lineno + 1))?;
        let kind = fields
            .iter()
            .find(|(k, _)| k == "event")
            .and_then(|(_, v)| match v {
                JsonValue::String(s) => Some(s.clone()),
                _ => None,
            })
            .ok_or_else(|| format!("line {}: no \"event\" field", lineno + 1))?;
        *tally.entry(kind).or_default() += 1;
        parsed += 1;
    }
    assert_eq!(parsed, lines_written, "every written line must read back");

    println!("\nevent tally ({parsed} lines, all parsed):");
    for (kind, count) in &tally {
        println!("  {kind:12} {count}");
    }
    Ok(())
}
