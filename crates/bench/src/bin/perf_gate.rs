//! CI perf-regression gate over `results/bench.json` medians.
//!
//! Usage: `perf_gate <baseline.json> [fresh.json]`
//!
//! Compares the gated groups of a freshly recorded
//! `bench.json` (defaulting to the workspace `results/bench.json`)
//! against a committed baseline copy and **fails (exit 1) when any row's
//! median regresses by more than 1.5×**. The gated groups are the ones
//! that pin the event-loop cost model of PERFMODEL.md:
//!
//! * `event_loop` — end-to-end per-event engine cost;
//! * `delta_reschedule` — the `O(Δ log n)` rebind primitives;
//! * `settle_cost` — the lazy-settlement observation primitives.
//!
//! Rows present only in the fresh file (new benches) are reported but do
//! not fail the gate, so adding a row does not require a two-step
//! baseline dance. Rows present only in the baseline **fail** it: a gated
//! measurement that stops running (a renamed, dropped or unrun bench, or
//! a whole group missing from the fresh file) must be deleted from the
//! committed baseline in the same change, never silently. Medians come
//! from `BASRPT_SCALE=quick` runs in CI; the 1.5× threshold leaves
//! headroom for machine noise while catching an accidental return to the
//! `O(n)`-per-event regime, which shows up as integer multiples.

use basrpt_bench::{median_ns, parse_groups};
use std::process::ExitCode;

/// The groups the gate compares.
const GATED_GROUPS: &[&str] = &["event_loop", "delta_reschedule", "settle_cost"];

/// Maximum tolerated `fresh / baseline` median ratio.
const MAX_RATIO: f64 = 1.5;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(baseline_path) = args.next() else {
        eprintln!("usage: perf_gate <baseline.json> [fresh.json]");
        return ExitCode::FAILURE;
    };
    let fresh_path = args
        .next()
        .unwrap_or_else(|| basrpt_bench::record::BENCH_JSON_PATH.to_string());

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => parse_groups(&text),
        Err(e) => {
            eprintln!("perf_gate: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fresh = match std::fs::read_to_string(&fresh_path) {
        Ok(text) => parse_groups(&text),
        Err(e) => {
            eprintln!("perf_gate: cannot read fresh results {fresh_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    let no_rows = Vec::new();
    for &group in GATED_GROUPS {
        let base_rows = baseline.get(group);
        let fresh_rows = fresh.get(group).unwrap_or_else(|| {
            println!("perf_gate: group {group:?} missing from fresh results (not run?)");
            &no_rows
        });
        for (key, row) in fresh_rows {
            let Some(fresh_med) = median_ns(row) else {
                continue;
            };
            let base_med = base_rows
                .and_then(|rows| rows.iter().find(|(k, _)| k == key))
                .and_then(|(_, row)| median_ns(row));
            match base_med {
                Some(base_med) if base_med > 0.0 => {
                    compared += 1;
                    let ratio = fresh_med / base_med;
                    let verdict = if ratio > MAX_RATIO { "REGRESSED" } else { "ok" };
                    println!(
                        "{group}/{key}: {base_med:.1} ns -> {fresh_med:.1} ns ({ratio:.2}x) {verdict}"
                    );
                    if ratio > MAX_RATIO {
                        regressions.push(format!("{group}/{key}: {ratio:.2}x"));
                    }
                }
                _ => println!("{group}/{key}: {fresh_med:.1} ns (new row, no baseline)"),
            }
        }
        if let Some(rows) = base_rows {
            for (key, _) in rows {
                if !fresh_rows.iter().any(|(k, _)| k == key) {
                    println!("{group}/{key}: only in baseline (renamed or dropped) MISSING");
                    regressions.push(format!("{group}/{key}: no fresh median"));
                }
            }
        }
    }

    if regressions.is_empty() {
        println!("perf_gate: {compared} rows within {MAX_RATIO}x of baseline");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf_gate: {} median(s) regressed beyond {MAX_RATIO}x or stopped running:",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        ExitCode::FAILURE
    }
}
