//! The typed event model of the synthesis pipeline.

use std::borrow::Cow;
use std::fmt::Write as _;

/// One structured observation emitted by an instrumented pipeline stage.
///
/// Events use plain integers (`NodeId` indices, grid coordinates,
/// Liapunov energies) so this crate depends on nothing and sinks can
/// serialise without reflection. The producing scheduler documents the
/// coordinate conventions; all grid positions are 1-based `(fu, step)`
/// pairs as in the paper's Figure 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// MFS computed the move frame `MF = PF − (RF ∪ FF)` of one
    /// operation (paper §3.2 step 4 / Figure 2).
    FrameComputed {
        /// The operation's node index.
        op: u32,
        /// Primary-frame length in control steps (`ALAP − ASAP + 1`).
        pf: u32,
        /// Redundant-frame width: grid columns hidden beyond
        /// `current_j`.
        rf: u32,
        /// Forbidden-frame length: primary steps excluded by data
        /// dependencies.
        ff: u32,
        /// Number of free, feasible cells left in the move frame.
        mf_size: u32,
    },
    /// A Liapunov energy was evaluated for one candidate position.
    EnergyEvaluated {
        /// The operation's node index.
        op: u32,
        /// Candidate position `(fu, step)`.
        pos: (u32, u32),
        /// The energy `V` of the candidate.
        v: u64,
    },
    /// An operation committed its energy-minimising move.
    MoveCommitted {
        /// The operation's node index.
        op: u32,
        /// Present position `O^p` (the ALFAP corner of the frame), when
        /// the producer tracks one.
        from: Option<(u32, u32)>,
        /// Next position `O^n = (fu, step)` — the committed cell.
        to: (u32, u32),
        /// The energy of the committed position (MFS: static `V`;
        /// MFSA: the dynamic `f_TIME + f_ALU + f_MUX + f_REG`).
        v: u64,
        /// Total system energy after the move, for producers that track
        /// one (MFS: placed ops at their committed energy, unplaced ops
        /// at their grid's worst cell — non-increasing by construction).
        system_v: Option<u64>,
    },
    /// An empty move frame forced a local rescheduling: `current_j`
    /// grew and the pass restarted (paper §3.2, "going back to step 3").
    LocalReschedule {
        /// The affected unit class, e.g. `"*"` or `"+"`.
        op_kind: String,
        /// The widened visible-column count.
        current_j: u32,
    },
    /// A timed pipeline phase (ASAP/ALAP, priority ordering, move loop,
    /// binding, RTL generation, …).
    PhaseSpan {
        /// Phase name, dot-namespaced (`"mfs.move_loop"`).
        phase: Cow<'static, str>,
        /// Start, in nanoseconds since the process's trace epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// One served HTTP request — the `hls-serve` daemon's access-log
    /// line.
    HttpRequest {
        /// Request method (`"GET"`, `"POST"`).
        method: String,
        /// Request path, without the query string.
        path: String,
        /// Response status code.
        status: u16,
        /// Response body length in bytes.
        bytes: u64,
        /// Wall time from parsed request to written response, in ns.
        dur_ns: u64,
        /// Time spent in the admission queue before a worker picked the
        /// connection up, in ns (serialised as `queue_wait_ms`).
        queue_ns: u64,
        /// Milliseconds left until the request's deadline when the
        /// response was recorded (negative = answered past the
        /// deadline), for requests that carried one. This is what makes
        /// overload diagnosable post-hoc: a 504 with a large negative
        /// remainder sat in the queue, one near zero raced the compute.
        deadline_remaining_ms: Option<i64>,
    },
}

/// Escapes `s` into `out` as JSON string contents (without quotes).
pub fn escape_json(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl TraceEvent {
    /// The event's type tag, as used in the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FrameComputed { .. } => "frame_computed",
            TraceEvent::EnergyEvaluated { .. } => "energy_evaluated",
            TraceEvent::MoveCommitted { .. } => "move_committed",
            TraceEvent::LocalReschedule { .. } => "local_reschedule",
            TraceEvent::PhaseSpan { .. } => "phase_span",
            TraceEvent::HttpRequest { .. } => "http_request",
        }
    }

    /// Serialises the event as one self-contained JSON object (one
    /// JSONL line, without the trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"event\":\"{}\"", self.kind());
        match self {
            TraceEvent::FrameComputed {
                op,
                pf,
                rf,
                ff,
                mf_size,
            } => {
                let _ = write!(
                    s,
                    ",\"op\":{op},\"pf\":{pf},\"rf\":{rf},\"ff\":{ff},\"mf_size\":{mf_size}"
                );
            }
            TraceEvent::EnergyEvaluated { op, pos, v } => {
                let _ = write!(s, ",\"op\":{op},\"pos\":[{},{}],\"v\":{v}", pos.0, pos.1);
            }
            TraceEvent::MoveCommitted {
                op,
                from,
                to,
                v,
                system_v,
            } => {
                let _ = write!(s, ",\"op\":{op}");
                if let Some((fu, step)) = from {
                    let _ = write!(s, ",\"from\":[{fu},{step}]");
                }
                let _ = write!(s, ",\"to\":[{},{}],\"v\":{v}", to.0, to.1);
                if let Some(sv) = system_v {
                    let _ = write!(s, ",\"system_v\":{sv}");
                }
            }
            TraceEvent::LocalReschedule { op_kind, current_j } => {
                s.push_str(",\"op_kind\":\"");
                escape_json(&mut s, op_kind);
                let _ = write!(s, "\",\"current_j\":{current_j}");
            }
            TraceEvent::PhaseSpan {
                phase,
                start_ns,
                dur_ns,
            } => {
                s.push_str(",\"phase\":\"");
                escape_json(&mut s, phase);
                let _ = write!(s, "\",\"start_ns\":{start_ns},\"dur_ns\":{dur_ns}");
            }
            TraceEvent::HttpRequest {
                method,
                path,
                status,
                bytes,
                dur_ns,
                queue_ns,
                deadline_remaining_ms,
            } => {
                s.push_str(",\"method\":\"");
                escape_json(&mut s, method);
                s.push_str("\",\"path\":\"");
                escape_json(&mut s, path);
                let _ = write!(
                    s,
                    "\",\"status\":{status},\"bytes\":{bytes},\"dur_ns\":{dur_ns},\"queue_wait_ms\":{:.3}",
                    *queue_ns as f64 / 1e6
                );
                if let Some(remaining) = deadline_remaining_ms {
                    let _ = write!(s, ",\"deadline_remaining_ms\":{remaining}");
                }
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_encodes_every_variant() {
        let events = [
            TraceEvent::FrameComputed {
                op: 3,
                pf: 4,
                rf: 2,
                ff: 1,
                mf_size: 5,
            },
            TraceEvent::EnergyEvaluated {
                op: 3,
                pos: (1, 2),
                v: 9,
            },
            TraceEvent::MoveCommitted {
                op: 3,
                from: Some((2, 4)),
                to: (1, 2),
                v: 9,
                system_v: Some(120),
            },
            TraceEvent::MoveCommitted {
                op: 4,
                from: None,
                to: (1, 3),
                v: 13,
                system_v: None,
            },
            TraceEvent::LocalReschedule {
                op_kind: "*".into(),
                current_j: 2,
            },
            TraceEvent::PhaseSpan {
                phase: "mfs.move_loop".into(),
                start_ns: 100,
                dur_ns: 50,
            },
            TraceEvent::HttpRequest {
                method: "POST".into(),
                path: "/schedule".into(),
                status: 200,
                bytes: 181,
                dur_ns: 420,
                queue_ns: 1_500_000,
                deadline_remaining_ms: Some(-7),
            },
            TraceEvent::HttpRequest {
                method: "GET".into(),
                path: "/healthz".into(),
                status: 200,
                bytes: 3,
                dur_ns: 420,
                queue_ns: 0,
                deadline_remaining_ms: None,
            },
        ];
        let lines: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
        assert_eq!(
            lines[0],
            r#"{"event":"frame_computed","op":3,"pf":4,"rf":2,"ff":1,"mf_size":5}"#
        );
        assert_eq!(
            lines[1],
            r#"{"event":"energy_evaluated","op":3,"pos":[1,2],"v":9}"#
        );
        assert_eq!(
            lines[2],
            r#"{"event":"move_committed","op":3,"from":[2,4],"to":[1,2],"v":9,"system_v":120}"#
        );
        assert_eq!(
            lines[3],
            r#"{"event":"move_committed","op":4,"to":[1,3],"v":13}"#
        );
        assert_eq!(
            lines[4],
            r#"{"event":"local_reschedule","op_kind":"*","current_j":2}"#
        );
        assert_eq!(
            lines[5],
            r#"{"event":"phase_span","phase":"mfs.move_loop","start_ns":100,"dur_ns":50}"#
        );
        assert_eq!(
            lines[6],
            r#"{"event":"http_request","method":"POST","path":"/schedule","status":200,"bytes":181,"dur_ns":420,"queue_wait_ms":1.500,"deadline_remaining_ms":-7}"#
        );
        assert_eq!(
            lines[7],
            r#"{"event":"http_request","method":"GET","path":"/healthz","status":200,"bytes":3,"dur_ns":420,"queue_wait_ms":0.000}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let e = TraceEvent::LocalReschedule {
            op_kind: "a\"b\\c\n".into(),
            current_j: 1,
        };
        assert_eq!(
            e.to_json(),
            r#"{"event":"local_reschedule","op_kind":"a\"b\\c\n","current_j":1}"#
        );
    }
}
