//! Streaming scheduler daemon: arrivals in, JSONL completions out.
//!
//! Reads whitespace-separated flow arrivals from a file (or stdin with
//! `-`), feeds them one at a time into the step-able [`OnlineFabric`]
//! engine — honoring its backpressure — and streams every completion to
//! stdout as one JSON line in the `dcn-probe` trace schema:
//!
//! ```text
//! {"event":"completion","t":0.0012,"flow":3,"src":0,"dst":1,"size":80000,"fct":0.0012}
//! ```
//!
//! Input format (one arrival per line, `#` comments and blank lines
//! ignored; times in seconds, strictly non-decreasing; class optional):
//!
//! ```text
//! # time  src  dst  size_bytes  [query|background]
//! 0.000   0    1    1250000
//! 0.0001  2    1    80000       query
//! ```
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example daemon -- flows.txt [--validate]
//! cat flows.txt | cargo run --release --example daemon -- -
//! ```
//!
//! `--validate` re-parses every emitted line with the probe crate's own
//! `parse_line` before writing it and exits non-zero on any schema
//! violation — `make daemon-smoke` uses this as the streaming-schema gate.
//!
//! Environment knobs:
//!
//! | Variable | Default | Meaning |
//! |----------|---------|---------|
//! | `BASRPT_WATERMARK` | 65536 | in-flight arrival high-watermark |
//! | `BASRPT_HORIZON_MS` | 1000 | simulated horizon in milliseconds |
//! | `BASRPT_SCHED` | `fast-basrpt` | discipline: `srpt` or `fast-basrpt` |
//!
//! The run summary goes to stderr so stdout stays a clean JSONL stream.

use basrpt::fabric::OfferError;
use basrpt::prelude::*;
use basrpt::probe::jsonl::parse_line;
use std::error::Error;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The simulated horizon `BASRPT_HORIZON_MS` names, in milliseconds; the
/// engine needs it positive and finite.
fn horizon(millis: f64) -> Result<SimTime, String> {
    if millis > 0.0 && millis.is_finite() {
        Ok(SimTime::from_millis(millis))
    } else {
        Err(format!(
            "bad BASRPT_HORIZON_MS: {millis} is not a positive finite number"
        ))
    }
}

/// Parses one input line into an arrival, or `None` for blanks/comments.
fn parse_arrival(line: &str, id: u64, num: usize) -> Result<Option<FlowArrival>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut fields = line.split_whitespace();
    let mut next = |what: &str| {
        fields
            .next()
            .ok_or_else(|| format!("line {num}: missing {what}"))
    };
    let time: f64 = next("time")?
        .parse()
        .map_err(|e| format!("line {num}: bad time: {e}"))?;
    // `SimTime` asserts a non-negative time; NaN fails this comparison too.
    let time = (time >= 0.0)
        .then(|| SimTime::from_secs(time))
        .ok_or_else(|| format!("line {num}: bad time: {time} is not a non-negative number"))?;
    let src: u32 = next("src")?
        .parse()
        .map_err(|e| format!("line {num}: bad src: {e}"))?;
    let dst: u32 = next("dst")?
        .parse()
        .map_err(|e| format!("line {num}: bad dst: {e}"))?;
    let size: u64 = next("size")?
        .parse()
        .map_err(|e| format!("line {num}: bad size: {e}"))?;
    let class = match fields.next() {
        None | Some("background") => FlowClass::Background,
        Some("query") => FlowClass::Query,
        Some(other) => return Err(format!("line {num}: unknown class {other:?}")),
    };
    if let Some(extra) = fields.next() {
        return Err(format!("line {num}: trailing field {extra:?}"));
    }
    Ok(Some(FlowArrival {
        id: FlowId::new(id),
        time,
        voq: Voq::new(HostId::new(src), HostId::new(dst)),
        size: Bytes::new(size),
        class,
    }))
}

/// Formats one completion in the `dcn-probe` JSONL completion schema.
fn completion_line(buf: &mut String, c: &basrpt::fabric::CompletionRecord) {
    buf.clear();
    let _ = write!(
        buf,
        "{{\"event\":\"completion\",\"t\":{:?},\"flow\":{},\"src\":{},\"dst\":{},\"size\":{},\"fct\":{:?}}}",
        c.time.as_secs(),
        c.flow.raw(),
        c.voq.src().index(),
        c.voq.dst().index(),
        c.size.as_u64(),
        c.fct.as_secs(),
    );
}

fn emit_completions(
    online: &mut OnlineFabric<'_, '_, FatTree, dyn Scheduler>,
    out: &mut impl Write,
    buf: &mut String,
    validate: bool,
    emitted: &mut u64,
) -> Result<(), Box<dyn Error>> {
    for completion in online.drain_completions() {
        completion_line(buf, &completion);
        if validate {
            parse_line(buf).map_err(|e| format!("emitted line failed validation: {e}"))?;
        }
        out.write_all(buf.as_bytes())?;
        out.write_all(b"\n")?;
        *emitted += 1;
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut path = None;
    let mut validate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--validate" => validate = true,
            other if path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}").into()),
        }
    }
    let path = path.ok_or("usage: daemon <flows-file|-> [--validate]")?;
    let input: Box<dyn BufRead> = if path == "-" {
        Box::new(BufReader::new(io::stdin()))
    } else {
        Box::new(BufReader::new(File::open(&path)?))
    };

    let horizon = horizon(env_f64("BASRPT_HORIZON_MS", 1000.0))?;
    let watermark = env_usize("BASRPT_WATERMARK", 65_536);
    let topo = FatTree::paper_topology(); // 144 hosts, 12 racks, 10 Gbps edge
    let sched_name = std::env::var("BASRPT_SCHED").unwrap_or_else(|_| "fast-basrpt".into());
    let mut sched: Box<dyn Scheduler> = match sched_name.as_str() {
        "srpt" => Box::new(Srpt::new()),
        "fast-basrpt" => Box::new(FastBasrpt::new(
            2500.0 * 8.0 / topo.num_hosts() as f64,
            topo.num_hosts() as usize,
        )),
        other => return Err(format!("unknown BASRPT_SCHED {other:?}").into()),
    };
    let config = SimConfig::builder().horizon(horizon).build();
    let mut online = OnlineFabric::new(&topo, sched.as_mut(), config).high_watermark(watermark);

    let stdout = io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    let mut buf = String::with_capacity(128);
    let mut emitted = 0u64;
    let mut offered = 0u64;
    let mut ignored = 0u64;
    let mut next_id = 0u64;

    for (num, line) in input.lines().enumerate() {
        let line = line?;
        let Some(arrival) = parse_arrival(&line, next_id, num + 1)? else {
            continue;
        };
        next_id += 1;
        loop {
            online.step_before(arrival.time)?;
            emit_completions(&mut online, &mut out, &mut buf, validate, &mut emitted)?;
            if online.is_finished() {
                break;
            }
            match online.offer(arrival) {
                Ok(basrpt::fabric::Accepted::Queued { .. }) => {
                    offered += 1;
                    break;
                }
                Ok(basrpt::fabric::Accepted::IgnoredAfterHorizon) => {
                    ignored += 1;
                    break;
                }
                Err(OfferError::Backpressure { .. }) => {
                    // The buffer is full of same-instant arrivals; drain
                    // them through the admission path and retry.
                    online.step_until(arrival.time)?;
                    emit_completions(&mut online, &mut out, &mut buf, validate, &mut emitted)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
        if online.is_finished() {
            break;
        }
    }

    // Input exhausted: run out the clock and flush the completion tail.
    online.step_until(horizon)?;
    emit_completions(&mut online, &mut out, &mut buf, validate, &mut emitted)?;
    out.flush()?;
    let run = online.finish()?;

    eprintln!(
        "daemon: {} offered, {} ignored (past horizon), {} completions streamed, \
         {} flows left in fabric at t = {} s ({} decisions, scheduler {})",
        offered,
        ignored,
        emitted,
        run.leftover_flows,
        run.horizon.as_secs(),
        run.reschedules,
        sched_name,
    );
    if emitted != run.completions as u64 {
        return Err(format!(
            "streamed {} completions but the run recorded {}",
            emitted, run.completions
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Option<FlowArrival>, String> {
        parse_arrival(line, 7, 3)
    }

    #[test]
    fn clean_lines_parse() {
        let a = parse("0.0001  2  1  80000  query").unwrap().unwrap();
        assert_eq!(a.id, FlowId::new(7));
        assert_eq!(a.time, SimTime::from_secs(0.0001));
        assert_eq!(a.voq, Voq::new(HostId::new(2), HostId::new(1)));
        assert_eq!(a.size, Bytes::new(80_000));
        assert_eq!(a.class, FlowClass::Query);
        assert_eq!(parse("  # comment").unwrap(), None);
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn nan_time_is_a_line_error() {
        let err = parse("NaN 2 3 500").unwrap_err();
        assert!(err.starts_with("line 3: bad time: "), "{err}");
    }

    #[test]
    fn negative_time_is_a_line_error() {
        let err = parse("-1 2 3 500").unwrap_err();
        assert!(err.starts_with("line 3: bad time: "), "{err}");
    }

    #[test]
    fn missing_field_is_a_line_error() {
        assert_eq!(parse("0.5 2 3").unwrap_err(), "line 3: missing size");
        assert_eq!(parse("0.5").unwrap_err(), "line 3: missing src");
    }

    #[test]
    fn unknown_class_is_a_line_error() {
        assert_eq!(
            parse("0.5 2 3 500 bulk").unwrap_err(),
            "line 3: unknown class \"bulk\""
        );
    }

    #[test]
    fn nan_negative_zero_or_infinite_horizon_is_an_error() {
        for bad in [f64::NAN, -5.0, 0.0, f64::INFINITY] {
            assert!(horizon(bad).is_err(), "{bad}");
        }
        assert_eq!(horizon(50.0), Ok(SimTime::from_millis(50.0)));
    }
}
