//! Trace sinks: where events go.

use std::io;

use crate::event::TraceEvent;

/// A consumer of [`TraceEvent`]s.
///
/// Producers check [`TraceSink::enabled`] before building expensive
/// events (per-candidate energies, frame geometry), so a disabled sink
/// costs one virtual call per *placement*, not per candidate — the
/// "zero-cost-when-disabled" contract.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);

    /// Whether this sink wants events at all. Producers skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything; [`TraceSink::enabled`] is `false`.
///
/// This is what the un-instrumented entry points use: a run with a
/// `NullSink` takes the same decisions (and produces bit-identical
/// schedules) as one with any other sink, because instrumentation never
/// feeds back into scheduling.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Buffers events in memory, for tests and in-process analysis.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, returning the captured events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// The system-energy trajectory: the `system_v` of every committed
    /// move that carries one, in emission order.
    pub fn system_energies(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MoveCommitted {
                    system_v: Some(sv), ..
                } => Some(*sv),
                _ => None,
            })
            .collect()
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Streams events as JSON Lines (one JSON object per line) into any
/// [`io::Write`] — a file for `mfhls --trace`, a `Vec<u8>` in tests.
///
/// Write errors are counted, not propagated: instrumentation must never
/// abort a synthesis run.
#[derive(Debug)]
pub struct JsonlSink<W: io::Write> {
    writer: W,
    write_errors: u64,
}

impl<W: io::Write> JsonlSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            write_errors: 0,
        }
    }

    /// How many events failed to serialise due to I/O errors.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: io::Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: TraceEvent) {
        let mut line = event.to_json();
        line.push('\n');
        if self.writer.write_all(line.as_bytes()).is_err() {
            self.write_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::MoveCommitted {
                op: 1,
                from: None,
                to: (1, 1),
                v: 7,
                system_v: Some(70),
            },
            TraceEvent::MoveCommitted {
                op: 2,
                from: None,
                to: (1, 2),
                v: 5,
                system_v: Some(65),
            },
            TraceEvent::LocalReschedule {
                op_kind: "+".into(),
                current_j: 2,
            },
        ]
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
    }

    #[test]
    fn memory_sink_captures_in_order() {
        let mut sink = MemorySink::new();
        for e in sample() {
            sink.record(e);
        }
        assert!(sink.enabled());
        assert_eq!(sink.events().len(), 3);
        assert_eq!(sink.system_energies(), vec![70, 65]);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        for e in sample() {
            sink.record(e);
        }
        assert_eq!(sink.write_errors(), 0);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with("{\"event\":\""), "bad line: {line}");
            assert!(line.ends_with('}'), "bad line: {line}");
        }
    }
}
