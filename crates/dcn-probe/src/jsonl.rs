//! JSONL trace export: one JSON object per event, one event per line.
//!
//! The emitted schema (field order is fixed; `t` is the substrate's native
//! time axis — seconds in the fabric, slot index in the slotted switch):
//!
//! ```text
//! {"event":"arrival","t":0.0,"flow":3,"src":0,"dst":1,"size":1000}
//! {"event":"drain","t":0.1,"flow":3,"src":0,"dst":1,"amount":250}
//! {"event":"completion","t":0.4,"flow":3,"src":0,"dst":1,"size":1000,"fct":0.4}
//! {"event":"decision","t":0.4,"selected":2,"latency_ns":710}
//! {"event":"sample","t":0.5,"backlog":1200,"flows":4,"delivered":1000.0}
//! ```
//!
//! `latency_ns` is omitted when the engine did not time the decision. The
//! vendored `serde` build is a marker-trait stub without a serialization
//! backend, so the writer emits JSON by hand and this module carries its
//! own minimal flat-object reader ([`parse_line`]) — enough for the
//! `results/` tooling and the `make trace-smoke` round-trip check to
//! validate traces without any external dependency.

use crate::{ArrivalEvent, CompletionEvent, DecisionEvent, DrainEvent, Probe, SampleEvent};
use std::error::Error;
use std::fmt::Write as _;
use std::io::{self, Write};

/// A value of one field in a parsed trace line.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JsonValue {
    /// A JSON number (always parsed as `f64`).
    Number(f64),
    /// A JSON string.
    String(String),
    /// A JSON boolean.
    Bool(bool),
    /// JSON `null`.
    Null,
}

impl JsonValue {
    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Error produced by [`parse_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceParseError {
    /// The line is not a single flat JSON object.
    Malformed(String),
    /// A value kind this reader does not support (nested object/array).
    Unsupported(String),
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::Malformed(msg) => write!(f, "malformed trace line: {msg}"),
            TraceParseError::Unsupported(msg) => {
                write!(f, "unsupported JSON in trace line: {msg}")
            }
        }
    }
}

impl Error for TraceParseError {}

/// Parses one trace line as a flat JSON object, returning its fields in
/// source order.
///
/// Supports exactly the subset [`JsonlProbe`] emits — string keys mapping
/// to numbers, strings, booleans or `null` — and rejects everything else,
/// which makes it a schema validator as much as a reader.
///
/// # Errors
///
/// Returns [`TraceParseError`] on any syntax error, trailing garbage,
/// duplicate-free-form violations or nested values.
///
/// # Example
///
/// ```
/// use dcn_probe::jsonl::parse_line;
/// let fields = parse_line(r#"{"event":"arrival","t":0.5,"size":100}"#)?;
/// assert_eq!(fields[0].1.as_str(), Some("arrival"));
/// assert_eq!(fields[1].1.as_f64(), Some(0.5));
/// # Ok::<(), dcn_probe::jsonl::TraceParseError>(())
/// ```
pub fn parse_line(line: &str) -> Result<Vec<(String, JsonValue)>, TraceParseError> {
    let mut p = Parser {
        chars: line.trim().char_indices().peekable(),
        src: line,
    };
    p.expect('{')?;
    let mut fields = Vec::new();
    p.skip_ws();
    if p.eat('}') {
        p.end()?;
        return Ok(fields);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(':')?;
        p.skip_ws();
        let value = p.value()?;
        fields.push((key, value));
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect('}')?;
        p.end()?;
        return Ok(fields);
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> TraceParseError {
        TraceParseError::Malformed(format!("{msg} in {:?}", self.src))
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some(&(_, c)) if c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, want: char) -> Result<(), TraceParseError> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {want:?}")))
        }
    }

    fn end(&mut self) -> Result<(), TraceParseError> {
        self.skip_ws();
        if self.chars.next().is_some() {
            return Err(self.err("trailing characters after object"));
        }
        Ok(())
    }

    fn string(&mut self) -> Result<String, TraceParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err(self.err("unterminated string")),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    other => {
                        return Err(self.err(&format!("unsupported escape {other:?}")));
                    }
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, TraceParseError> {
        match self.chars.peek() {
            Some((_, '"')) => Ok(JsonValue::String(self.string()?)),
            Some((_, '{')) | Some((_, '[')) => Err(TraceParseError::Unsupported(format!(
                "nested value in {:?}",
                self.src
            ))),
            Some((_, c)) if *c == 't' || *c == 'f' || *c == 'n' => {
                let word: String = std::iter::from_fn(|| match self.chars.peek() {
                    Some((_, c)) if c.is_ascii_alphabetic() => self.chars.next().map(|(_, c)| c),
                    _ => None,
                })
                .collect();
                match word.as_str() {
                    "true" => Ok(JsonValue::Bool(true)),
                    "false" => Ok(JsonValue::Bool(false)),
                    "null" => Ok(JsonValue::Null),
                    other => Err(self.err(&format!("unknown literal {other:?}"))),
                }
            }
            Some(_) => {
                let text: String = std::iter::from_fn(|| match self.chars.peek() {
                    Some((_, c))
                        if c.is_ascii_digit()
                            || matches!(c, '-' | '+' | '.' | 'e' | 'E' | 'i' | 'n' | 'a') =>
                    {
                        self.chars.next().map(|(_, c)| c)
                    }
                    _ => None,
                })
                .collect();
                // Reject the non-JSON specials `f64::from_str` would accept.
                if text.contains('i') || text.contains('n') || text.contains('a') {
                    return Err(self.err(&format!("non-finite number {text:?}")));
                }
                text.parse::<f64>()
                    .map(JsonValue::Number)
                    .map_err(|_| self.err(&format!("bad number {text:?}")))
            }
            None => Err(self.err("missing value")),
        }
    }
}

/// Streams every observed event as one JSON line into a [`Write`] sink.
///
/// I/O errors do not panic the simulation: the first error is latched, all
/// further output is dropped, and [`JsonlProbe::finish`] surfaces it.
///
/// Call `finish` to surface errors; a probe that is merely dropped still
/// best-effort flushes its sink, and if an error was latched but never
/// surfaced it prints a one-line note to stderr (the error itself cannot
/// be returned from `Drop`).
///
/// # Example
///
/// ```
/// use dcn_probe::{JsonlProbe, Probe, ArrivalEvent};
/// use dcn_types::{FlowId, HostId, Voq};
///
/// let mut probe = JsonlProbe::new(Vec::new());
/// probe.on_arrival(&ArrivalEvent {
///     time: 0.25,
///     flow: FlowId::new(7),
///     voq: Voq::new(HostId::new(0), HostId::new(1)),
///     size: 100,
/// });
/// let bytes = probe.finish()?;
/// assert_eq!(
///     String::from_utf8(bytes).unwrap(),
///     "{\"event\":\"arrival\",\"t\":0.25,\"flow\":7,\"src\":0,\"dst\":1,\"size\":100}\n"
/// );
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct JsonlProbe<W: Write> {
    /// `None` only after [`JsonlProbe::finish`] took the sink (so the
    /// `Drop` that still runs on the emptied probe is a no-op).
    sink: Option<W>,
    lines: u64,
    error: Option<io::Error>,
    buf: String,
}

impl<W: Write> JsonlProbe<W> {
    /// Creates a probe writing to `sink`. Wrap files in a
    /// [`std::io::BufWriter`]: the probe issues one `write_all` per event.
    pub fn new(sink: W) -> Self {
        JsonlProbe {
            sink: Some(sink),
            lines: 0,
            error: None,
            buf: String::with_capacity(128),
        }
    }

    /// Number of lines successfully written.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the sink, or the first latched I/O error.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered while writing or flushing.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut sink = self.sink.take().expect("sink is present until finish");
        sink.flush()?;
        Ok(sink)
    }

    fn emit(&mut self) {
        if self.error.is_some() {
            return;
        }
        self.buf.push('\n');
        let sink = self.sink.as_mut().expect("sink is present until finish");
        match sink.write_all(self.buf.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> Drop for JsonlProbe<W> {
    /// Best-effort cleanup for probes dropped without
    /// [`JsonlProbe::finish`]: flushes the sink so buffered lines are not
    /// silently lost, and notes a latched-but-unreported error on stderr
    /// (`Drop` cannot return it). `finish` remains the error-surfacing
    /// path — it empties the probe, making this a no-op.
    fn drop(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        if let Some(e) = &self.error {
            eprintln!(
                "JsonlProbe dropped without finish() after an unreported I/O error \
                 ({} lines written): {e}",
                self.lines
            );
        }
        let _ = sink.flush();
    }
}

/// Appends a JSON number for `v`, using `null` for non-finite values
/// (which JSON cannot represent).
fn push_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(buf, "{v:?}");
    } else {
        buf.push_str("null");
    }
}

impl<W: Write> Probe for JsonlProbe<W> {
    fn on_arrival(&mut self, event: &ArrivalEvent) {
        self.buf.clear();
        self.buf.push_str("{\"event\":\"arrival\",\"t\":");
        push_f64(&mut self.buf, event.time);
        let _ = write!(
            self.buf,
            ",\"flow\":{},\"src\":{},\"dst\":{},\"size\":{}}}",
            event.flow.raw(),
            event.voq.src().index(),
            event.voq.dst().index(),
            event.size
        );
        self.emit();
    }

    fn on_drain(&mut self, event: &DrainEvent) {
        self.buf.clear();
        self.buf.push_str("{\"event\":\"drain\",\"t\":");
        push_f64(&mut self.buf, event.time);
        let _ = write!(
            self.buf,
            ",\"flow\":{},\"src\":{},\"dst\":{},\"amount\":{}}}",
            event.flow.raw(),
            event.voq.src().index(),
            event.voq.dst().index(),
            event.amount
        );
        self.emit();
    }

    fn on_completion(&mut self, event: &CompletionEvent) {
        self.buf.clear();
        self.buf.push_str("{\"event\":\"completion\",\"t\":");
        push_f64(&mut self.buf, event.time);
        let _ = write!(
            self.buf,
            ",\"flow\":{},\"src\":{},\"dst\":{},\"size\":{},\"fct\":",
            event.flow.raw(),
            event.voq.src().index(),
            event.voq.dst().index(),
            event.size
        );
        push_f64(&mut self.buf, event.fct);
        self.buf.push('}');
        self.emit();
    }

    fn on_decision(&mut self, event: &DecisionEvent<'_>) {
        self.buf.clear();
        self.buf.push_str("{\"event\":\"decision\",\"t\":");
        push_f64(&mut self.buf, event.time);
        let _ = write!(self.buf, ",\"selected\":{}", event.schedule.len());
        if let Some(latency) = event.latency {
            let _ = write!(self.buf, ",\"latency_ns\":{}", latency.as_nanos());
        }
        self.buf.push('}');
        self.emit();
    }

    fn on_sample(&mut self, event: &SampleEvent<'_>) {
        self.buf.clear();
        self.buf.push_str("{\"event\":\"sample\",\"t\":");
        push_f64(&mut self.buf, event.time);
        let _ = write!(
            self.buf,
            ",\"backlog\":{},\"flows\":{},\"delivered\":",
            event.table.total_backlog(),
            event.table.len()
        );
        push_f64(&mut self.buf, event.delivered);
        self.buf.push('}');
        self.emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basrpt_core::{FlowState, FlowTable, Schedule};
    use dcn_types::{FlowId, HostId, Voq};
    use std::time::Duration;

    fn voq() -> Voq {
        Voq::new(HostId::new(2), HostId::new(5))
    }

    #[test]
    fn every_event_kind_round_trips() {
        let mut table = FlowTable::new();
        table
            .insert(FlowState::new(FlowId::new(9), voq(), 42))
            .unwrap();
        let mut schedule = Schedule::new();
        schedule.add(FlowId::new(9), voq()).unwrap();

        let mut probe = JsonlProbe::new(Vec::new());
        probe.on_arrival(&ArrivalEvent {
            time: 0.0,
            flow: FlowId::new(9),
            voq: voq(),
            size: 42,
        });
        probe.on_decision(&DecisionEvent {
            time: 0.0,
            schedule: &schedule,
            latency: Some(Duration::from_nanos(314)),
        });
        probe.on_drain(&DrainEvent {
            time: 0.5,
            flow: FlowId::new(9),
            voq: voq(),
            amount: 42,
        });
        probe.on_completion(&CompletionEvent {
            time: 0.5,
            flow: FlowId::new(9),
            voq: voq(),
            size: 42,
            fct: 0.5,
        });
        probe.on_sample(&SampleEvent {
            time: 1.0,
            table: &table,
            delivered: 42.0,
        });
        assert_eq!(probe.lines_written(), 5);
        let bytes = probe.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let kinds: Vec<String> = text
            .lines()
            .map(|line| {
                let fields = parse_line(line).expect("every line parses");
                assert_eq!(fields[0].0, "event");
                assert_eq!(fields[1].0, "t");
                fields[0].1.as_str().unwrap().to_string()
            })
            .collect();
        assert_eq!(
            kinds,
            ["arrival", "decision", "drain", "completion", "sample"]
        );
        assert!(text.contains("\"latency_ns\":314"));
    }

    #[test]
    fn decision_without_latency_omits_field() {
        let mut probe = JsonlProbe::new(Vec::new());
        probe.on_decision(&DecisionEvent {
            time: 2.0,
            schedule: &Schedule::new(),
            latency: None,
        });
        let text = String::from_utf8(probe.finish().unwrap()).unwrap();
        assert_eq!(text, "{\"event\":\"decision\",\"t\":2.0,\"selected\":0}\n");
    }

    #[test]
    fn io_error_is_latched_not_panicked() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut probe = JsonlProbe::new(Failing);
        probe.on_drain(&DrainEvent {
            time: 0.0,
            flow: FlowId::new(1),
            voq: voq(),
            amount: 1,
        });
        probe.on_drain(&DrainEvent {
            time: 1.0,
            flow: FlowId::new(1),
            voq: voq(),
            amount: 1,
        });
        assert!(probe.error.is_some());
        assert_eq!(probe.lines_written(), 0);
        assert!(probe.finish().is_err());
    }

    #[test]
    fn drop_without_finish_flushes_the_sink() {
        // Regression: a probe dropped without `finish()` used to leave the
        // sink unflushed (buffered lines lost on BufWriter-style sinks).
        use std::cell::RefCell;
        use std::rc::Rc;

        #[derive(Default)]
        struct Tracking {
            flushes: Rc<RefCell<u32>>,
            written: Rc<RefCell<Vec<u8>>>,
        }
        impl Write for Tracking {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.written.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                *self.flushes.borrow_mut() += 1;
                Ok(())
            }
        }

        let flushes = Rc::new(RefCell::new(0));
        let written = Rc::new(RefCell::new(Vec::new()));
        {
            let mut probe = JsonlProbe::new(Tracking {
                flushes: flushes.clone(),
                written: written.clone(),
            });
            probe.on_drain(&DrainEvent {
                time: 0.0,
                flow: FlowId::new(1),
                voq: voq(),
                amount: 1,
            });
            assert_eq!(*flushes.borrow(), 0, "no eager flush per event");
        }
        assert_eq!(*flushes.borrow(), 1, "drop must flush the sink");
        assert!(!written.borrow().is_empty());
    }

    #[test]
    fn drop_after_latched_error_still_attempts_flush_without_panicking() {
        // Regression: dropping an errored probe must neither panic nor skip
        // the best-effort flush (partial output may still be salvageable).
        use std::cell::RefCell;
        use std::rc::Rc;

        struct FailWrites {
            flushes: Rc<RefCell<u32>>,
        }
        impl Write for FailWrites {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                *self.flushes.borrow_mut() += 1;
                Ok(())
            }
        }

        let flushes = Rc::new(RefCell::new(0));
        {
            let mut probe = JsonlProbe::new(FailWrites {
                flushes: flushes.clone(),
            });
            probe.on_drain(&DrainEvent {
                time: 0.0,
                flow: FlowId::new(1),
                voq: voq(),
                amount: 1,
            });
            assert!(probe.error.is_some());
            // Dropped without finish(): the latched error is reported on
            // stderr (not testable here) instead of vanishing.
        }
        assert_eq!(*flushes.borrow(), 1);
    }

    #[test]
    fn finish_leaves_nothing_for_drop() {
        // `finish` consumes the sink; the Drop that still runs on the
        // emptied probe must not double-flush.
        let bytes = JsonlProbe::new(Vec::new()).finish().unwrap();
        assert!(bytes.is_empty());
    }

    #[test]
    fn parser_accepts_the_schema_subset() {
        let fields =
            parse_line(r#" {"event":"sample","t":1.5e-3,"ok":true,"none":null,"n":-2} "#).unwrap();
        assert_eq!(fields.len(), 5);
        assert_eq!(fields[1].1.as_f64(), Some(0.0015));
        assert_eq!(fields[2].1, JsonValue::Bool(true));
        assert_eq!(fields[3].1, JsonValue::Null);
        assert_eq!(fields[4].1.as_f64(), Some(-2.0));
        assert_eq!(parse_line("{}").unwrap(), vec![]);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{\"a\":1} extra").is_err());
        assert!(parse_line("{\"a\":}").is_err());
        assert!(parse_line("{\"a\":inf}").is_err());
        assert!(parse_line("{\"a\":nan}").is_err());
        assert!(parse_line("{\"a\"=1}").is_err());
        assert!(parse_line("{\"a\":\"unterminated}").is_err());
        assert!(matches!(
            parse_line("{\"a\":{\"b\":1}}"),
            Err(TraceParseError::Unsupported(_))
        ));
        let err = parse_line("{\"a\":bogus}").unwrap_err();
        assert!(err.to_string().contains("trace line"));
    }
}
