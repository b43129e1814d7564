//! Sustained-throughput benches for the streaming [`OnlineFabric`] engine.
//!
//! The batch benches (`fabric_scale`) measure whole-run wall time; this
//! group measures the online daemon's steady-state serving rate — how many
//! scheduling decisions per second the step-able engine sustains when
//! arrivals are offered one at a time and completions are drained as they
//! happen, exactly as `examples/daemon.rs` drives it.
//!
//! Three rows per fabric size (144 hosts `k = 4` and 1152 hosts `k = 16`,
//! both 3:1 oversubscribed, matching the `fabric_scale` cells):
//!
//! * `stream/<hosts>` — timed full offer/step/drain run, the
//!   apples-to-apples counterpart of `fat_tree_scale/end_to_end`.
//! * `decision_ns/<hosts>` — sustained wall nanoseconds per scheduling
//!   decision (run wall time / reschedules); the reciprocal is the
//!   decisions/sec figure in PERFMODEL.md.
//! * `offer_to_completion_ns/<hosts>` — mean wall-clock latency from
//!   `offer()` returning to the flow's completion record being drained
//!   (processing latency only: the driver never sleeps, so simulated
//!   waiting costs no wall time).
//!
//! Medians land in `results/bench.json` via the merging recorder.

use basrpt_bench::{BenchRow, Scale, Timer};
use basrpt_core::Srpt;
use dcn_fabric::{KAryFatTree, OnlineFabric, SimConfig, Topology};
use dcn_types::{FlowId, SimTime};
use dcn_workload::{FlowArrival, QueryScope, TrafficSpec};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The benchmarked fabric cells: (k, hosts_per_edge) → 144 and 1152 hosts.
const CELLS: &[(u32, u32)] = &[(4, 18), (16, 9)];

fn topo_for(k: u32, hosts_per_edge: u32) -> KAryFatTree {
    KAryFatTree::builder(k)
        .hosts_per_edge(hosts_per_edge)
        .oversubscription(3.0)
        .build()
        .expect("valid k-ary parameters")
}

fn arrivals_for(topo: &KAryFatTree, horizon: SimTime) -> Vec<FlowArrival> {
    TrafficSpec::scaled(topo.num_racks(), topo.hosts_per_rack(), 0.6)
        .and_then(|s| s.with_query_scope(QueryScope::Cluster(topo.num_racks().max(2) / 2)))
        .expect("valid scoped spec")
        .generator(11)
        .expect("generator")
        .take_while(|a| a.time <= horizon)
        .collect()
}

/// Tallies from one full streaming run.
struct StreamStats {
    decisions: u64,
    completions: usize,
    /// Sum and count of wall-clock offer→completion latencies.
    latency_sum: Duration,
}

/// Drives one full daemon-style run: `step_before` each arrival, `offer`
/// it, drain completions as they appear, then run out the horizon.
fn stream_once(topo: &KAryFatTree, arrivals: &[FlowArrival], cfg: SimConfig) -> StreamStats {
    let mut sched = Srpt::new();
    let mut online = OnlineFabric::new(topo, &mut sched, cfg);
    let mut offered_at: HashMap<FlowId, Instant> = HashMap::with_capacity(arrivals.len());
    let mut latency_sum = Duration::ZERO;
    let mut completions = 0usize;
    let mut drain = |online: &mut OnlineFabric<'_, '_, KAryFatTree, Srpt>,
                     offered_at: &mut HashMap<FlowId, Instant>| {
        for c in online.drain_completions() {
            if let Some(t0) = offered_at.remove(&c.flow) {
                latency_sum += t0.elapsed();
            }
            completions += 1;
        }
    };
    for &arrival in arrivals {
        online.step_before(arrival.time).expect("step");
        drain(&mut online, &mut offered_at);
        if online.is_finished() {
            break;
        }
        online.offer(arrival).expect("offer");
        offered_at.insert(arrival.id, Instant::now());
    }
    online.step_until(cfg.horizon).expect("step to horizon");
    drain(&mut online, &mut offered_at);
    let decisions = online.finish().expect("finish").reschedules;
    StreamStats {
        decisions,
        completions,
        latency_sum,
    }
}

/// Timed full streaming runs across the fabric cells.
fn bench_daemon_throughput() -> Vec<BenchRow> {
    let quick = Scale::from_env() == Scale::Quick;
    let budget = Duration::from_secs(if quick { 1 } else { 3 });
    let mut t = Timer::new("daemon_throughput", 10, budget);

    let horizon = SimTime::from_secs(100e-6);
    let cfg = SimConfig::builder().horizon(horizon).build();
    for &(k, hosts_per_edge) in CELLS {
        let topo = topo_for(k, hosts_per_edge);
        let arrivals = arrivals_for(&topo, horizon);
        t.time(&format!("stream/{}", topo.num_hosts()), || {
            stream_once(&topo, &arrivals, cfg)
        });
    }
    t.into_rows()
}

fn main() {
    let mut rows = bench_daemon_throughput();

    // Derived steady-state rows: one instrumented run per cell.
    let horizon = SimTime::from_secs(100e-6);
    let cfg = SimConfig::builder().horizon(horizon).build();
    for &(k, hosts_per_edge) in CELLS {
        let topo = topo_for(k, hosts_per_edge);
        let arrivals = arrivals_for(&topo, horizon);
        let start = Instant::now();
        let stats = stream_once(&topo, &arrivals, cfg);
        let wall = start.elapsed();
        let hosts = topo.num_hosts();
        if stats.decisions > 0 {
            let per_decision = wall.as_nanos() as f64 / stats.decisions as f64;
            println!(
                "daemon_throughput: {hosts} hosts — {} decisions in {wall:?} \
                 ({:.0} ns/decision, {:.0} decisions/sec)",
                stats.decisions,
                per_decision,
                1e9 / per_decision,
            );
            rows.push(BenchRow {
                id: format!("daemon_throughput/decision_ns/{hosts}"),
                median_ns: per_decision,
                n: stats.decisions as usize,
            });
        }
        if stats.completions > 0 {
            rows.push(BenchRow {
                id: format!("daemon_throughput/offer_to_completion_ns/{hosts}"),
                median_ns: stats.latency_sum.as_nanos() as f64 / stats.completions as f64,
                n: stats.completions,
            });
        }
    }

    match basrpt_bench::write_merged(&rows) {
        Ok(path) => println!("recorded {} benchmark medians to {path}", rows.len()),
        Err(e) => eprintln!("could not write bench.json: {e}"),
    }
}
