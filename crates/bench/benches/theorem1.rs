//! Theorem 1 — empirical verification of the Lyapunov drift-plus-penalty
//! bounds on the slotted input-queued switch.
//!
//! The theorem guarantees, for any admissible arrival matrix with slack
//! `ε` and second-moment bound `B` (`B' = N(1+NB)/2`):
//!
//! * time-average penalty `ȳ ≤ ȳ* + B'/V` — the FCT proxy approaches the
//!   delay-optimal value as `O(1/V)`;
//! * time-average total backlog `Σ E[X] ≤ (B' + V(ȳ*−y_min))/ε` — the
//!   queue bound grows as `O(V)`.
//!
//! This bench sweeps V, measures both time averages, and prints them next
//! to the analytic bounds (using measured SRPT as the `ȳ*` proxy — SRPT is
//! the delay-greedy reference the paper compares against).

use basrpt_bench::Scale;
use basrpt_core::{FastBasrpt, Srpt};
use dcn_metrics::TextTable;
use dcn_switch::arrivals::BernoulliFlowArrivals;
use dcn_switch::lyapunov::TheoremBounds;
use dcn_switch::{run, RunConfig};

const PORTS: u32 = 8;
const RHO: f64 = 0.8;
const MEAN_SIZE: u64 = 5;

fn main() {
    let scale = Scale::from_env();
    let slots = scale.switch_slots();
    // Bernoulli arrivals offer no lookahead, so every macro-slot window
    // of the driver is one slot long.
    println!("== Theorem 1: drift-plus-penalty bounds on the slotted switch ==");
    println!("{PORTS} ports, uniform load {RHO}, mean flow {MEAN_SIZE} pkts, {slots} slots\n");

    let arrivals = || BernoulliFlowArrivals::uniform(PORTS, RHO, MEAN_SIZE, 77).unwrap();
    let b = arrivals().second_moment_bound();
    let epsilon = arrivals().capacity_slack();

    // SRPT reference: the proxy for the delay-optimal penalty y*.
    let mut srpt_arr = arrivals();
    let srpt = run(
        PORTS,
        &mut Srpt::new(),
        &mut srpt_arr,
        RunConfig::new(slots),
    );
    let y_star = srpt.avg_penalty;
    let bounds = TheoremBounds::new(PORTS, b, epsilon, y_star, 1.0);
    println!(
        "B = {b:.2}, B' = {:.1}, epsilon = {:.2}, measured SRPT penalty y* = {y_star:.2}\n",
        bounds.b_prime, bounds.epsilon
    );

    let mut table = TextTable::new(vec![
        "V".into(),
        "avg penalty".into(),
        "bound y*+B'/V".into(),
        "avg total backlog".into(),
        "bound (B'+V(y*-1))/eps".into(),
        "leftover pkts".into(),
    ]);
    for v in [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0] {
        let mut arr = arrivals();
        let mut sched = FastBasrpt::new(v, PORTS as usize);
        let r = run(PORTS, &mut sched, &mut arr, RunConfig::new(slots));
        table.add_row(vec![
            format!("{v}"),
            format!("{:.2}", r.avg_penalty),
            format!("{:.2}", y_star + bounds.penalty_gap(v)),
            format!("{:.1}", r.avg_total_backlog),
            format!("{:.0}", bounds.queue_bound(v)),
            format!("{}", r.leftover_packets),
        ]);
    }
    println!("{table}");
    println!(
        "expected: penalty falls toward y* as O(1/V) and stays below its \
         bound; backlog grows with V and stays below its O(V) bound."
    );
}
