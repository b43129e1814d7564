//! Instruments the benchmark wraps around the simulator's public API: a
//! timed scheduler, event-counting and FCT-collecting probes, a timed
//! arrival stream for the batch engines, and an in-memory span log.

use basrpt_core::{FlowTable, Schedule, Scheduler, ViewAdjust};
use dcn_probe::{ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Probe, SampleEvent};
use dcn_workload::FlowArrival;
use std::fmt::Write as _;
use std::time::Instant;

/// A [`Scheduler`] wrapper that times every decision and records the
/// schedule size and the flow-table size it decided over.
///
/// It forwards `supports_lazy_views` and `schedule_adjusted`, so the engine
/// keeps its lazy settlement regime: the traced run measures the same
/// program as the untraced one.
#[derive(Debug)]
pub struct TimedScheduler<S> {
    inner: S,
    /// Wall time of each decision, in nanoseconds.
    pub decision_ns: Vec<u64>,
    /// Sum of schedule sizes over all decisions.
    pub matched: u64,
    /// Sum of active-flow counts over all decisions.
    pub active_sum: u64,
    /// Largest active-flow count seen at a decision.
    pub active_peak: usize,
}

impl<S: Scheduler> TimedScheduler<S> {
    /// Wraps `inner` with empty statistics.
    pub fn new(inner: S) -> Self {
        TimedScheduler {
            inner,
            decision_ns: Vec::new(),
            matched: 0,
            active_sum: 0,
            active_peak: 0,
        }
    }

    fn timed(&mut self, table: &FlowTable, decide: impl FnOnce(&mut S) -> Schedule) -> Schedule {
        let start = Instant::now();
        let schedule = decide(&mut self.inner);
        self.decision_ns.push(start.elapsed().as_nanos() as u64);
        self.matched += schedule.len() as u64;
        self.active_sum += table.len() as u64;
        self.active_peak = self.active_peak.max(table.len());
        schedule
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, table: &FlowTable) -> Schedule {
        self.timed(table, |s| s.schedule(table))
    }

    fn schedule_validity(&self, table: &FlowTable, schedule: &Schedule) -> u64 {
        self.inner.schedule_validity(table, schedule)
    }

    fn supports_lazy_views(&self) -> bool {
        self.inner.supports_lazy_views()
    }

    fn schedule_adjusted(&mut self, table: &FlowTable, adjust: &dyn ViewAdjust) -> Schedule {
        self.timed(table, |s| s.schedule_adjusted(table, adjust))
    }
}

/// Counts every probe event. Asks for neither decision timing nor per-flow
/// drain fidelity, so attaching it leaves the engine's settlement regime
/// and clock reads unchanged.
#[derive(Debug, Default)]
pub struct CountProbe {
    /// Arrival events.
    pub arrivals: u64,
    /// Drain events.
    pub drains: u64,
    /// Completion events.
    pub completions: u64,
    /// Decision events.
    pub decisions: u64,
    /// Sum of schedule sizes over decision events.
    pub matched: u64,
    /// Sample events.
    pub samples: u64,
}

impl Probe for CountProbe {
    fn wants_decision_timing(&self) -> bool {
        false
    }
    fn wants_slot_fidelity(&self) -> bool {
        false
    }
    fn wants_flow_fidelity(&self) -> bool {
        false
    }
    fn on_arrival(&mut self, _: &ArrivalEvent) {
        self.arrivals += 1;
    }
    fn on_drain(&mut self, _: &DrainEvent) {
        self.drains += 1;
    }
    fn on_completion(&mut self, _: &CompletionEvent) {
        self.completions += 1;
    }
    fn on_decision(&mut self, event: &DecisionEvent<'_>) {
        self.decisions += 1;
        self.matched += event.schedule.len() as u64;
    }
    fn on_sample(&mut self, _: &SampleEvent<'_>) {
        self.samples += 1;
    }
}

/// Collects the FCT of every completion, in seconds; the batch fair-share
/// engine reports per-flow FCTs only through its probe.
#[derive(Debug, Default)]
pub struct FctProbe {
    /// FCT samples in completion order.
    pub fct_secs: Vec<f64>,
}

impl Probe for FctProbe {
    fn wants_decision_timing(&self) -> bool {
        false
    }
    fn wants_slot_fidelity(&self) -> bool {
        false
    }
    fn wants_flow_fidelity(&self) -> bool {
        false
    }
    fn on_completion(&mut self, event: &CompletionEvent) {
        self.fct_secs.push(event.fct);
    }
}

/// An arrival stream that records the host time between successive pulls:
/// a batch engine pulls the next arrival once it has processed every event
/// before it, so each gap is the engine's work for one arrival.
pub struct TimedArrivals<'a> {
    arrivals: std::slice::Iter<'a, FlowArrival>,
    last: Option<Instant>,
    /// Gap before each pull after the first, in nanoseconds.
    pub gaps_ns: Vec<u64>,
}

impl<'a> TimedArrivals<'a> {
    /// Streams `arrivals` in order.
    pub fn new(arrivals: &'a [FlowArrival]) -> Self {
        TimedArrivals {
            arrivals: arrivals.iter(),
            last: None,
            gaps_ns: Vec::with_capacity(arrivals.len()),
        }
    }
}

impl Iterator for TimedArrivals<'_> {
    type Item = FlowArrival;

    fn next(&mut self) -> Option<FlowArrival> {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.gaps_ns.push((now - last).as_nanos() as u64);
        }
        self.last = Some(now);
        self.arrivals.next().copied()
    }
}

/// One timed interval of the benchmark's own code.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
}

/// Spans held in memory and written out once the run ends. A disabled log
/// records nothing, so untraced runs read no extra clocks.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log that records only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span now and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start: Instant::now(),
            end: None,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = Some(Instant::now());
        }
    }

    /// Renders every span as one JSON object per line: id, name, start and
    /// end in nanoseconds since the log began, and the parent id.
    pub fn to_jsonl(&self) -> String {
        let ns = |t: Instant| (t - self.origin).as_nanos();
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let end = s.end.unwrap_or(s.start);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name,
                ns(s.start),
                ns(end)
            );
        }
        out
    }
}
