//! The benchmark's own checks, at tiny horizons (`--quick`).

use perfbench::{run, Options, Report, Workload, END_TO_END, PER_LAYER};
use std::process::Command;

fn quick(workload: Workload, seed: u64) -> Options {
    let mut opts = Options::new(workload, seed);
    opts.quick = true;
    opts
}

fn sim_metrics(report: &Report) -> Vec<(String, u64)> {
    report
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("sim_"))
        .map(|m| (m.name.to_string(), m.value.to_bits()))
        .collect()
}

#[test]
fn every_workload_prints_all_end_to_end_metrics_with_units() {
    for workload in Workload::ALL {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", workload.name(), "--seed", "1"])
            .args(["--seconds", "0", "--trace", "0", "--quick"])
            .output()
            .expect("the benchmark binary runs");
        assert!(
            out.status.success(),
            "{workload:?} exited with {}",
            out.status
        );
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, "), "{last}");
        for (name, unit) in END_TO_END {
            let entry = format!("\"{name}\": {{\"value\": ");
            let start = last
                .find(&entry)
                .unwrap_or_else(|| panic!("{name} missing: {last}"));
            let rest = &last[start..];
            let value_end = rest.find(", \"unit\"").expect("a unit follows the value");
            let value: f64 = rest[entry.len()..value_end].parse().expect("a number");
            assert!(value > 0.0, "{workload:?}: {name} = {value}");
            assert!(
                rest[value_end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
                "{workload:?}: {name} lacks unit {unit}"
            );
        }
    }
}

#[test]
fn sim_metrics_repeat_exactly_across_runs() {
    for workload in Workload::ALL {
        let a = run(&quick(workload, 7));
        let b = run(&quick(workload, 7));
        assert!(a.correct && b.correct, "{:?} {:?}", a.errors, b.errors);
        assert_eq!(sim_metrics(&a).len(), 3);
        assert_eq!(sim_metrics(&a), sim_metrics(&b), "{workload:?}");
    }
}

#[test]
fn checkpoints_change_no_simulated_output() {
    let checkpointed = run(&quick(Workload::PaperBasrpt, 3));
    let mut opts = quick(Workload::PaperBasrpt, 3);
    opts.checkpoints = false;
    let plain = run(&opts);
    assert!(checkpointed.correct && plain.correct);
    assert!(checkpointed.attempted > plain.attempted, "checkpoints ran");
    assert_eq!(sim_metrics(&checkpointed), sim_metrics(&plain));
}

#[test]
fn traced_runs_report_every_layer_and_pass_their_gates() {
    for workload in Workload::ALL {
        let mut opts = quick(workload, 5);
        opts.trace = true;
        let report = run(&opts);
        assert!(report.correct, "{workload:?}: {:?}", report.errors);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, want);
        assert!(report.get("probe.arrivals").unwrap_or(0.0) > 0.0);
        assert!(report.spans_jsonl.lines().count() > 3, "spans recorded");
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let a = run(&quick(Workload::OversubBaselines, 1));
    let b = run(&quick(Workload::OversubBaselines, 2));
    assert_ne!(sim_metrics(&a), sim_metrics(&b));
}
