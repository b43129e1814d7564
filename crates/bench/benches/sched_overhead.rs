//! Ablation — scheduler decision latency (§IV-C's complexity discussion).
//!
//! Micro-benchmarks of a single `schedule()` call as the number
//! of active flows grows, for every discipline (and exact BASRPT on the
//! small instances it can enumerate). The paper motivates fast BASRPT by
//! exactly this cost: the exact scheduler is exponential, the greedy pass
//! is `O(N^2 log N^2)` worst case and `O(Q log Q)` per decision here.
//! The `schedule_decision` rows decide on a fresh discipline each
//! iteration, so no ranking is carried over: the cold decision. Its
//! `fast_basrpt_warm` rows re-decide an unchanged table on one long-lived
//! discipline, the presorted best case.
//!
//! The `event_decision` group prices the decision the fabric engine
//! makes on every arrival and completion at 144 ports: one long-lived
//! discipline behind the allocator's lazy lens, carrying its matching
//! across events (fast BASRPT) or running a full pass each time
//! (MaxWeight).
//!
//! The `fastforward_switch` group measures the orthogonal lever: instead
//! of making each decision cheaper, the switch driver `dcn_switch::run`
//! makes *fewer* decisions, re-invoking the scheduler only when a cached
//! schedule can no longer be proven valid, against the slot-by-slot
//! oracle `dcn_switch::reference::run` (see ARCHITECTURE.md).
//!
//! The `delta_reschedule` group prices the third lever — making the
//! *binding* of each decision cheaper: the delta-rate fabric engine pays
//! calendar work only for the flows whose allocation changed, versus the
//! full per-event rebind the PR 3–5 engine paid (see PERFMODEL.md).
//!
//! The `settle_cost` group prices the fourth lever — lazy exact
//! settlement: byte accounts settle only when observed, so the per-event
//! residue is an `O(1)` due-check plus `O(1)` per-VOQ view adjustment
//! instead of an `O(n)` sweep of every scheduled flow.

use basrpt_bench::{BenchRow, Timer};
use basrpt_core::{
    ExactBasrpt, FastBasrpt, FlowSlot, FlowState, FlowTable, MaxWeight, Scheduler, Srpt, VoqView,
};
use dcn_fabric::CompletionCalendar;
use dcn_types::{FlowId, HostId, SimTime, Voq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn table_with(num_hosts: u32, num_flows: usize, seed: u64) -> FlowTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = FlowTable::new();
    for i in 0..num_flows {
        let src = rng.gen_range(0..num_hosts);
        let mut dst = rng.gen_range(0..num_hosts - 1);
        if dst >= src {
            dst += 1;
        }
        table
            .insert(FlowState::new(
                FlowId::new(i as u64),
                Voq::new(HostId::new(src), HostId::new(dst)),
                rng.gen_range(1..=50_000_000u64),
            ))
            .expect("unique ids");
    }
    table
}

fn bench_disciplines() -> Vec<BenchRow> {
    let mut t = Timer::new("schedule_decision", 30, Duration::from_secs(2));

    for &flows in &[100usize, 1_000, 10_000] {
        let table = table_with(144, flows, 42);
        // Each decision on a fresh discipline: the cold decision, with no
        // order carried from a previous call on this unchanged table.
        cold_decision(&mut t, "srpt", flows, &table, Srpt::new);
        cold_decision(&mut t, "fast_basrpt", flows, &table, || {
            FastBasrpt::new(2500.0, 144)
        });
        cold_decision(&mut t, "maxweight", flows, &table, MaxWeight::new);
        // One long-lived discipline re-deciding the unchanged table: the
        // presorted best case of the carried ranking.
        let mut warm = FastBasrpt::new(2500.0, 144);
        t.time(&format!("fast_basrpt_warm/{flows}"), || {
            warm.schedule(black_box(&table))
        });
        // The literal Algorithm 1 (sorts all flows) vs the per-VOQ-head
        // scheduler above — the O(F log F) vs O(Q log Q) gap.
        t.time(&format!("fast_basrpt_literal/{flows}"), || {
            basrpt_core::reference::fast_basrpt_all_flows(black_box(&table), 2500.0, 144)
        });
    }
    t.into_rows()
}

/// Benchmarks one decision of a fresh `make()` discipline per iteration;
/// only the decision (and dropping the discipline with its buffers) is
/// timed.
fn cold_decision<S: Scheduler>(
    t: &mut Timer,
    name: &str,
    flows: usize,
    table: &FlowTable,
    make: impl Fn() -> S,
) {
    t.time_batched(&format!("{name}/{flows}"), make, |mut sched| {
        sched.schedule(black_box(table))
    });
}

/// One event then one decision on a long-lived discipline behind the
/// fabric allocator's lazy lens, at 144 ports — the decision the fabric
/// engine makes on every arrival and completion. A small event loop keeps
/// the state live: an arrival every microsecond (sizes uniform up to
/// 180 KB, half the line rate per port) unless a scheduled flow completes
/// first; each decision is bound by a `DeltaAllocator`, which adopts the
/// schedule's pair list exactly as the fabric's crossbar policy hands it
/// over, and whose settled drains write back into the table. SRPT and fast
/// BASRPT carry their matching and certify almost every decision;
/// MaxWeight's keys rise, so each of its decisions is a full pass.
fn bench_event_decision() -> Vec<BenchRow> {
    let mut t = Timer::new("event_decision", 20, Duration::from_secs(2));
    event_decision(&mut t, "srpt", Srpt::new());
    event_decision(&mut t, "fast_basrpt", FastBasrpt::new(2500.0, 144));
    event_decision(&mut t, "maxweight", MaxWeight::new());
    t.into_rows()
}

fn event_decision<S: Scheduler>(t: &mut Timer, name: &str, mut sched: S) {
    use dcn_fabric::DeltaAllocator;
    use dcn_types::Rate;

    const PORTS: u32 = 144;
    let mut rng = StdRng::seed_from_u64(7);
    let mut table = FlowTable::new();
    let mut alloc = DeltaAllocator::new(Rate::from_gbps(10.0));
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    let mut event = move |sched: &mut S| {
        let arrival = SimTime::from_secs(now.as_secs() + 1e-6);
        let due = alloc.next_completion();
        if due <= arrival {
            now = due;
            alloc.settle_due(now, |d| {
                table
                    .drain(d.flow, d.amount)
                    .expect("scheduled flow is active");
            });
        } else {
            now = arrival;
            let src = rng.gen_range(0..PORTS);
            let dst = (src + rng.gen_range(1..PORTS)) % PORTS;
            let voq = Voq::new(HostId::new(src), HostId::new(dst));
            let size = rng.gen_range(1..=180_000u64);
            table
                .insert(FlowState::new(FlowId::new(next_id), voq, size))
                .expect("fresh id");
            next_id += 1;
        }
        let schedule = sched.schedule_adjusted(&table, &alloc.live_views(now));
        let matched = schedule.len();
        let mut selected = schedule.into_slotted(|voq| {
            table
                .voq_slot(voq)
                .expect("a scheduled flow's VOQ has a slot")
        });
        let admit = |id| {
            let slot = table.slot_of(id).expect("scheduled flow is active");
            (
                slot,
                table.get_at(slot, id).expect("slot holds it").remaining(),
            )
        };
        let mut evicted = Vec::new();
        alloc.apply(now, &mut selected, admit, |d| evicted.push(d));
        for d in evicted {
            table
                .drain_at(d.slot, d.flow, d.amount)
                .expect("scheduled flow is active");
        }
        matched
    };
    for _ in 0..20_000 {
        event(&mut sched);
    }
    t.time(&format!("{name}/{PORTS}"), || event(&mut sched));
}

/// End-to-end engine runs under each probe flavour, attached through
/// `simulate_probed` (the `builder_*` row names are kept so the recorded
/// series stay comparable). `builder_noprobe` must match `simulate_bare` —
/// `NoProbe` is a ZST whose no-op callbacks monomorphize away, so
/// attaching it costs nothing. The counter and JSONL rows price the real
/// observers (the JSONL probe writes to `io::sink`, so its row is pure
/// formatting cost).
fn bench_probe_overhead() -> Vec<BenchRow> {
    use dcn_fabric::{simulate, simulate_probed, FatTree, SimConfig};
    use dcn_probe::{EventCounterProbe, JsonlProbe, NoProbe};
    use dcn_workload::TrafficSpec;

    let mut t = Timer::new("probe_overhead", 20, Duration::from_secs(2));

    let topo = FatTree::scaled(2, 4, 1).expect("valid scaled fabric");
    let spec = TrafficSpec::scaled(2, 4, 0.7).expect("valid load");
    let config = SimConfig::builder()
        .horizon(SimTime::from_secs(0.05))
        .build();

    t.time("simulate_bare", || {
        let mut sched = Srpt::new();
        let generator = spec.generator(42).expect("valid spec");
        simulate(&topo, &mut sched, generator, config).expect("valid simulation")
    });
    t.time("builder_noprobe", || {
        let mut sched = Srpt::new();
        let generator = spec.generator(42).expect("valid spec");
        simulate_probed(&topo, &mut sched, generator, config, NoProbe).expect("valid simulation")
    });
    t.time("builder_counter", || {
        let mut sched = Srpt::new();
        let generator = spec.generator(42).expect("valid spec");
        let probe = EventCounterProbe::new();
        simulate_probed(&topo, &mut sched, generator, config, probe).expect("valid simulation")
    });
    t.time("builder_jsonl_sink", || {
        let mut sched = Srpt::new();
        let generator = spec.generator(42).expect("valid spec");
        let probe = JsonlProbe::new(std::io::sink());
        simulate_probed(&topo, &mut sched, generator, config, probe).expect("valid simulation")
    });
    t.into_rows()
}

/// Next-event lookup cost inside the fabric event loop: the seed engine
/// rescanned every scheduled flow on every wakeup (`next_completion_scan`,
/// `O(n)`), while the `CompletionCalendar` answers from a heap top
/// validated against the owner's slot-indexed accounts
/// (`next_completion_calendar`, `O(1)` between schedule changes, `O(log n)`
/// amortized across them). The `engine_*` rows measure the end-to-end gap
/// on the paper's 144-host fabric, where the scheduled set is large enough
/// for the lookup to matter.
fn bench_event_loop() -> Vec<BenchRow> {
    use dcn_fabric::{reference, simulate, FatTree, SimConfig};
    use dcn_workload::TrafficSpec;

    let mut t = Timer::new("event_loop", 20, Duration::from_secs(2));

    for &n in &[64usize, 256, 1024, 4096] {
        let mut rng = StdRng::seed_from_u64(9);
        let pairs: Vec<(FlowId, SimTime)> = (0..n)
            .map(|i| {
                (
                    FlowId::new(i as u64),
                    SimTime::from_micros(rng.gen_range(1.0..1e6)),
                )
            })
            .collect();

        t.time(&format!("next_completion_scan/{n}"), || {
            pairs
                .iter()
                .map(|&(_, at)| at)
                .min()
                .unwrap_or(SimTime::INFINITY)
        });

        // Flow `i`'s account sits in slot `i`; the calendar validates its
        // top against that slot's instant.
        let (mut cal, live) = calendar_of(&pairs);
        t.time(&format!("next_completion_calendar/{n}"), || {
            cal.next_completion(|at, _, slot| live[slot] == at)
        });
    }

    let topo = FatTree::paper_topology();
    let spec = TrafficSpec::paper_default(0.9).expect("valid load");
    let config = SimConfig::builder()
        .horizon(SimTime::from_millis(5.0))
        .build();
    t.time("engine_calendar_paper_fabric", || {
        let mut sched = Srpt::new();
        let generator = spec.generator(42).expect("valid spec");
        simulate(&topo, &mut sched, generator, config).expect("valid simulation")
    });
    t.time("engine_scan_paper_fabric", || {
        let mut sched = Srpt::new();
        let generator = spec.generator(42).expect("valid spec");
        reference::simulate_scan(&topo, &mut sched, generator, config).expect("valid simulation")
    });
    t.into_rows()
}

/// A calendar holding one item per `(flow, instant)` pair, flow `i` in
/// slot `i`, and the slot-indexed live instants it validates against.
fn calendar_of(pairs: &[(FlowId, SimTime)]) -> (CompletionCalendar, Vec<SimTime>) {
    let mut cal = CompletionCalendar::new();
    for (slot, &(flow, at)) in pairs.iter().enumerate() {
        cal.push(at, flow, slot);
    }
    (cal, pairs.iter().map(|&(_, at)| at).collect())
}

/// Per-event rebinding cost under the delta discipline, as the scheduled
/// set grows 64 → 4096: `allocator_swap_one` is the whole
/// `DeltaAllocator::apply` for a schedule differing in one flow. A
/// prefix/suffix positional diff (one `Copy`-pair compare per kept flow,
/// no hashing, no stamping) isolates the one-entry window, then the
/// entrant and the leaver pay the `O(log n)` calendar edit — the
/// `O(Δ log n)` per-event cost. The allocator adopts the applied list and
/// hands back its previous one, which the next iteration edits and
/// applies, so no pair is copied. `PERFMODEL.md` has the full
/// decomposition.
fn bench_delta_reschedule() -> Vec<BenchRow> {
    use dcn_fabric::DeltaAllocator;
    use dcn_types::Rate;

    let mut t = Timer::new("delta_reschedule", 20, Duration::from_secs(2));

    for &n in &[64usize, 256, 1024, 4096] {
        let mut alloc = DeltaAllocator::new(Rate::from_gbps(10.0));
        // Distinct VOQs per flow: the allocator indexes live flows by
        // VOQ under the crossbar's one-flow-per-VOQ invariant.
        // Flow `i` sits in VOQ slot `i`; the two alternating
        // last-position ids share slot `n - 1`.
        let mut base: Vec<(FlowId, Voq, u32)> = (0..n as u32)
            .map(|i| {
                (
                    FlowId::new(u64::from(i)),
                    Voq::new(HostId::new(2 * i), HostId::new(2 * i + 1)),
                    i,
                )
            })
            .collect();
        let admit = |id: FlowId| (FlowSlot::new(id.raw() as usize), 1 << 40);
        let mut swapped = base.clone();
        alloc.apply(SimTime::ZERO, &mut base, admit, |_| {});
        let mut tick = 0u64;
        t.time(&format!("allocator_swap_one/{n}"), || {
            // Alternate the last slot between two flow ids: every
            // apply sees one entrant, one leaver, n-1 stays.
            tick += 1;
            swapped[n - 1].0 = FlowId::new((n as u64) + (tick & 1));
            alloc.apply(SimTime::ZERO, &mut swapped, admit, |_| {});
            alloc.next_completion()
        });
    }
    t.into_rows()
}

/// The lazy settlement primitives the per-event path leans on, as the
/// scheduled set grows 64 → 4096 — both must stay near-flat in `n`, the
/// load-bearing claim of the lazy engine:
///
/// * `due_check` — [`DeltaAllocator::settle_due`] at an instant with no
///   completion due: one validated heap peek, `O(1)`. This is what every
///   arrival event pays instead of the old full-set sweep;
/// * `view_adjust` — one [`VoqView`] of a real [`FlowTable`] corrected
///   through the [`DeltaAllocator::live_views`] lens: one read indexed by
///   the view's VOQ slot plus integer arithmetic, `O(1)` per VOQ
///   regardless of how many flows are live.
///
/// The `O(Δ)` reschedule itself is covered by `delta_reschedule`; these
/// rows isolate the *observation* costs that the lazy discipline added.
fn bench_settle_cost() -> Vec<BenchRow> {
    use basrpt_core::ViewAdjust;
    use dcn_fabric::DeltaAllocator;
    use dcn_types::Rate;

    let mut t = Timer::new("settle_cost", 20, Duration::from_secs(2));

    for &n in &[64usize, 256, 1024, 4096] {
        let sel: Vec<(FlowId, Voq)> = (0..n)
            .map(|i| {
                (
                    FlowId::new(i as u64),
                    Voq::new(HostId::new(2 * i as u32), HostId::new(2 * i as u32 + 1)),
                )
            })
            .collect();
        // Every scheduled flow waits in the table beside a longer sibling
        // in its VOQ, so adjusted views carry two flows. ~1 TiB per flow
        // at 10 Gbps: nothing completes within the probed window, so every
        // settlement check is the no-op fast path.
        let mut table = FlowTable::new();
        for (k, &(id, voq)) in sel.iter().enumerate() {
            table.insert(FlowState::new(id, voq, 1 << 40)).unwrap();
            let sibling = FlowId::new((n + k) as u64);
            table.insert(FlowState::new(sibling, voq, 1 << 41)).unwrap();
        }
        let sel: Vec<(FlowId, Voq, u32)> = sel
            .into_iter()
            .map(|(id, voq)| (id, voq, table.voq_slot(voq).unwrap() as u32))
            .collect();
        let admit = |id| {
            let slot = table.slot_of(id).unwrap();
            (slot, table.get_at(slot, id).unwrap().remaining())
        };
        let views: Vec<VoqView> = table.voqs().collect();

        {
            let mut alloc = DeltaAllocator::new(Rate::from_gbps(10.0));
            alloc.apply(SimTime::ZERO, &mut sel.clone(), admit, |_| {});
            let mut tick = 0u64;
            t.time(&format!("due_check/{n}"), || {
                tick += 1;
                alloc.settle_due(SimTime::from_micros((tick % 997) as f64), |_| {
                    unreachable!("no completion is due")
                })
            });
        }

        {
            let mut alloc = DeltaAllocator::new(Rate::from_gbps(10.0));
            alloc.apply(SimTime::ZERO, &mut sel.clone(), admit, |_| {});
            let mut tick = 0u64;
            t.time(&format!("view_adjust/{n}"), || {
                tick += 1;
                let mut view = views[(tick % n as u64) as usize];
                alloc
                    .live_views(SimTime::from_micros((1 + tick % 997) as f64))
                    .adjust(&mut view);
                view.backlog
            });
        }
    }
    t.into_rows()
}

/// The switch driver `run` (macro-slot windows) vs the slot-by-slot
/// oracle `reference::run` on the 16-port slotted switch (default scale,
/// 200 k slots). The workload is the slotted analogue of Fig. 2's regime:
/// a two-class mix of long background elephants and short queries,
/// *scripted* so the driver has arrival lookahead. Before timing, the
/// scheduler-invocation comparison is printed per discipline: `run` must
/// invoke `schedule()` ≥ 5× less often while producing a bit-identical
/// run, which the differential suite (`tests/fastforward_differential.rs`)
/// enforces and this group records (`slot_by_slot` is the oracle,
/// `fast_forward` the driver).
///
/// The `*_bernoulli` pair prices the opposite case at the `theorem1`
/// configuration (8 ports, load 0.8, mean flow 5 packets): Bernoulli
/// arrivals admit no lookahead — any slot may bring a flow — which caps
/// every window at one slot, where the driver must cost no more than the
/// oracle.
fn bench_fastforward() -> Vec<BenchRow> {
    use basrpt_core::{CountingScheduler, ThresholdBacklogSrpt};
    use dcn_switch::arrivals::BernoulliFlowArrivals;
    use dcn_switch::{reference, run, RunConfig, ScriptedArrivals};

    const PORTS: u32 = 16;
    const SLOTS: u64 = 200_000;

    fn fig2_style_script(seed: u64) -> ScriptedArrivals {
        let mut rng = StdRng::seed_from_u64(seed);
        let voq = |rng: &mut StdRng| {
            let src = rng.gen_range(0..PORTS);
            let mut dst = rng.gen_range(0..PORTS - 1);
            if dst >= src {
                dst += 1;
            }
            Voq::new(HostId::new(src), HostId::new(dst))
        };
        let mut script = Vec::new();
        // Background elephants: long flows whose service dominates the
        // horizon, so cached schedules stay provably valid for stretches.
        for _ in 0..300 {
            let slot = rng.gen_range(0..SLOTS);
            let q = voq(&mut rng);
            script.push((slot, q, rng.gen_range(2_000..=20_000u64)));
        }
        // Short queries: the latency-sensitive class that interrupts them.
        for _ in 0..2_000 {
            let slot = rng.gen_range(0..SLOTS);
            let q = voq(&mut rng);
            script.push((slot, q, rng.gen_range(1..=8u64)));
        }
        ScriptedArrivals::new(script)
    }

    fn theorem1_arrivals() -> BernoulliFlowArrivals {
        BernoulliFlowArrivals::uniform(8, 0.8, 5, 77).expect("admissible load")
    }

    type MakeScheduler = Box<dyn Fn() -> Box<dyn Scheduler>>;
    let disciplines: Vec<(&str, MakeScheduler)> = vec![
        ("srpt", Box::new(|| Box::new(Srpt::new()))),
        (
            "threshold",
            Box::new(|| Box::new(ThresholdBacklogSrpt::new(10_000))),
        ),
    ];
    for (name, make) in &disciplines {
        let mut slow = CountingScheduler::new(make());
        let slow_run = reference::run(
            PORTS,
            &mut slow,
            &mut fig2_style_script(1),
            RunConfig::new(SLOTS),
        );
        let mut fast = CountingScheduler::new(make());
        let fast_run = run(
            PORTS,
            &mut fast,
            &mut fig2_style_script(1),
            RunConfig::new(SLOTS),
        );
        let identical = slow_run.delivered_packets == fast_run.delivered_packets
            && slow_run.leftover_packets == fast_run.leftover_packets
            && slow_run.avg_penalty.to_bits() == fast_run.avg_penalty.to_bits()
            && slow_run.avg_total_backlog.to_bits() == fast_run.avg_total_backlog.to_bits();
        println!(
            "fastforward_switch/{name}: {} -> {} scheduler invocations over {SLOTS} slots \
             ({:.1}x fewer), outputs bit-identical: {identical}",
            slow.calls(),
            fast.calls(),
            slow.calls() as f64 / fast.calls() as f64,
        );
    }

    let mut t = Timer::new("fastforward_switch", 20, Duration::from_secs(2));
    t.time("slot_by_slot", || {
        reference::run(
            PORTS,
            &mut Srpt::new(),
            &mut fig2_style_script(1),
            RunConfig::new(SLOTS),
        )
    });
    t.time("fast_forward", || {
        run(
            PORTS,
            &mut Srpt::new(),
            &mut fig2_style_script(1),
            RunConfig::new(SLOTS),
        )
    });
    t.time("slot_by_slot_bernoulli", || {
        reference::run(
            8,
            &mut Srpt::new(),
            &mut theorem1_arrivals(),
            RunConfig::new(SLOTS),
        )
    });
    t.time("fast_forward_bernoulli", || {
        run(
            8,
            &mut Srpt::new(),
            &mut theorem1_arrivals(),
            RunConfig::new(SLOTS),
        )
    });
    t.into_rows()
}

fn bench_exact_blowup() -> Vec<BenchRow> {
    let mut t = Timer::new("exact_basrpt_enumeration", 20, Duration::from_secs(2));

    for &ports in &[3u32, 4, 5, 6] {
        // Dense small instance: ~2 flows per VOQ.
        let flows = (ports * ports * 2) as usize;
        let table = table_with(ports, flows, 7);
        let exact = ExactBasrpt::with_port_limit(100.0, ports as usize);
        t.time(&format!("ports/{ports}"), || {
            exact.try_schedule(black_box(&table)).unwrap()
        });
        // The greedy approximation on the identical instance, for contrast.
        let mut fast = FastBasrpt::new(100.0, ports as usize);
        t.time(&format!("fast_same_instance/{ports}"), || {
            fast.schedule(black_box(&table))
        });
    }
    t.into_rows()
}

fn main() {
    let groups: [fn() -> Vec<BenchRow>; 8] = [
        bench_disciplines,
        bench_event_decision,
        bench_probe_overhead,
        bench_event_loop,
        bench_delta_reschedule,
        bench_settle_cost,
        bench_fastforward,
        bench_exact_blowup,
    ];
    let rows: Vec<BenchRow> = groups.iter().flat_map(|group| group()).collect();
    // Merge (not overwrite): other bench targets also record groups here.
    match basrpt_bench::write_merged(&rows) {
        Ok(path) => println!("recorded {} benchmark medians to {path}", rows.len()),
        Err(e) => eprintln!("could not write bench.json: {e}"),
    }
}
