//! Every call the benchmark makes into moveframe-hls lives in this file.
//!
//! The timed run uses the narrowest entry points (`parse_dfg`,
//! `mfs::schedule`, `mfsa::schedule`, the verifiers, …); only the traced
//! run switches to the `*_traced` variants, feeding a disabled sink and
//! the trace's own `Metrics`. Counters are read by name and come back as
//! `None` when the program no longer records them, so an API change
//! costs a one-file follow-up here and nothing else.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use moveframe_hls::benchmarks::examples;
use moveframe_hls::benchmarks::generate::{generate, scaling_workload, GeneratorConfig};
use moveframe_hls::benchmarks::memory;
use moveframe_hls::celllib::{ClockPeriod, TimingSpec};
use moveframe_hls::control::{emit_verilog, verify_controller, Controller};
use moveframe_hls::dfg::{parse_dfg, CriticalPath, Dfg};
use moveframe_hls::mem::check_port_safety;
use moveframe_hls::moveframe::mfs::{self, MfsConfig};
use moveframe_hls::moveframe::mfsa::{self, MfsaConfig};
use moveframe_hls::rtl::verify_datapath;
use moveframe_hls::schedule::{verify, CStep, Schedule, Slot, VerifyOptions};
use moveframe_hls::serve::{self, AppState, Parsed, ServeConfig};
use moveframe_hls::sim::{check_equivalence, random_inputs};
use moveframe_hls::telemetry::{chrome_trace, Instrument, NullSink, TraceEvent};

use crate::trace::{Span, Trace};

pub use moveframe_hls::celllib::Library;
pub use moveframe_hls::serve::Server;
pub use moveframe_hls::telemetry::Metrics;

/// One design as the program receives it: `.dfg` text, parsed afresh
/// on every run, plus the timing model and the constraints to run.
pub struct Design {
    pub name: String,
    pub text: String,
    pub nodes: usize,
    pub spec: TimingSpec,
    pub clock: Option<ClockPeriod>,
    /// `(control steps, functional-pipelining latency)` per run.
    pub points: Vec<(u32, Option<u32>)>,
}

fn design(name: &str, dfg: &Dfg, spec: TimingSpec, clock: Option<ClockPeriod>) -> Design {
    Design {
        name: name.to_string(),
        text: dfg.to_text().expect("benchmark graphs have no loops"),
        nodes: dfg.node_count(),
        spec,
        clock,
        points: Vec::new(),
    }
}

/// The paper's six Table-1/2 examples plus two memory kernels. `synth`
/// selects each design's single Table-2 point; otherwise every Table-1
/// constraint.
pub fn paper_designs(synth: bool) -> Vec<Design> {
    let mut out = Vec::new();
    for e in examples::all() {
        let mut d = design(e.name, &e.dfg, e.spec.clone(), e.clock());
        d.points = if synth {
            vec![(e.mfsa_cs, e.latency_for(e.mfsa_cs))]
        } else {
            e.time_constraints
                .iter()
                .map(|&t| (t, e.latency_for(t)))
                .collect()
        };
        out.push(d);
    }
    for (name, dfg, cs) in [
        ("array_fir", memory::array_fir(8, 2), 20),
        ("matvec", memory::matvec(4, 2), 16),
    ] {
        let mut d = design(name, &dfg, TimingSpec::uniform_single_cycle(), None);
        d.points = vec![(cs, None)];
        out.push(d);
    }
    out
}

/// The canonical generated scaling family at about `ops` operations,
/// drawn from `seed`, with the critical path plus eight control steps
/// (the `BENCH_core.json` slack).
pub fn scaling_design(ops: usize, seed: u64) -> Design {
    let dfg = generate(&GeneratorConfig {
        seed,
        ..scaling_workload(ops)
    });
    let spec = TimingSpec::uniform_single_cycle();
    let cs = CriticalPath::compute(&dfg, &spec).steps() as u32 + 8;
    let mut d = design(&format!("scaling-{ops}"), &dfg, spec, None);
    d.points = vec![(cs, None)];
    d
}

/// `.dfg` text of a seeded random design of about `ops` operations.
pub fn random_design_text(ops: usize, seed: u64) -> String {
    generate(&GeneratorConfig::sized(ops, seed))
        .to_text()
        .expect("generated graphs have no loops")
}

/// Faults the self-check injects into an otherwise correct run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Faults {
    /// Move one node past its successor in a copy of the schedule
    /// before the schedule verifier sees it.
    pub move_past_successor: bool,
    /// Drop one primary input from every equivalence vector.
    pub corrupt_vector: bool,
}

/// What one checked design run produced.
pub struct RunOut {
    /// Functional-unit area of the design, in library area units, when
    /// it was priced.
    pub fu_area: Option<u64>,
    /// Equivalence vectors simulated.
    pub vectors: u64,
    /// Bytes of Verilog emitted.
    pub verilog_bytes: u64,
}

/// Runs `f` inside a trace span when tracing, plainly otherwise.
fn layer<T>(tr: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

fn verify_options(d: &Design, latency: Option<u32>) -> VerifyOptions {
    VerifyOptions {
        latency,
        clock: d.clock,
    }
}

/// Moves the first node that has a successor to one step past it.
fn misplace(dfg: &Dfg, schedule: &Schedule) -> Schedule {
    let mut bad = schedule.clone();
    let node = dfg
        .topo_order()
        .iter()
        .copied()
        .find(|&n| !dfg.succs(n).is_empty())
        .expect("every design has an edge");
    let succ = dfg.succs(node)[0];
    let slot = bad.slot(node).expect("scheduled");
    let step = bad.start(succ).expect("scheduled").get() + 1;
    bad.assign(
        node,
        Slot {
            step: CStep::new(step),
            unit: slot.unit,
        },
    );
    bad
}

fn check_schedule(
    d: &Design,
    dfg: &Dfg,
    schedule: &Schedule,
    latency: Option<u32>,
    faults: Faults,
    tr: &mut Option<&mut Trace>,
) -> Result<(), String> {
    let violations = if faults.move_past_successor {
        let bad = misplace(dfg, schedule);
        layer(tr, "schedule.verify", || {
            verify(dfg, &bad, &d.spec, verify_options(d, latency))
        })
    } else {
        layer(tr, "schedule.verify", || {
            verify(dfg, schedule, &d.spec, verify_options(d, latency))
        })
    };
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("schedule verifier: {violations:?}"))
    }
}

/// One `mfhls synth --check --verilog` run: parse, MFSA, the four
/// verifiers, controller, Verilog, and the equivalence check on eight
/// vectors seeded from `vector_seed`.
pub fn synth(
    d: &Design,
    point: (u32, Option<u32>),
    vector_seed: u64,
    faults: Faults,
    tr: &mut Option<&mut Trace>,
) -> Result<RunOut, String> {
    let (cs, latency) = point;
    let dfg = layer(tr, "dfg.parse", || parse_dfg(&d.text)).map_err(|e| e.to_string())?;
    let config = || {
        let mut config = MfsaConfig::new(cs, Library::ncr_like());
        if let Some(clock) = d.clock {
            config = config.with_chaining(clock);
        }
        if let Some(l) = latency {
            config = config.with_latency(l);
        }
        config
    };
    let out = match tr {
        Some(t) => t.span("core.mfsa", |t| {
            let mut sink = NullSink;
            let mut instr = Instrument::new(&mut sink, &mut t.metrics);
            mfsa::schedule_traced(&dfg, &d.spec, &config(), &mut instr)
        }),
        None => mfsa::schedule(&dfg, &d.spec, &config()),
    }
    .map_err(|e| e.to_string())?;
    check_schedule(d, &dfg, &out.schedule, latency, faults, tr)?;
    let ports = layer(tr, "mem.port_safety", || {
        check_port_safety(&dfg, &out.schedule)
    })
    .map_err(|e| e.to_string())?;
    if !ports.is_empty() {
        return Err(format!("port safety: {ports:?}"));
    }
    let rtl = layer(tr, "rtl.verify", || {
        verify_datapath(&dfg, &out.schedule, &out.datapath, &d.spec)
    });
    if !rtl.is_empty() {
        return Err(format!("datapath verifier: {rtl:?}"));
    }
    let controller = layer(tr, "control.controller", || {
        Controller::generate(&dfg, &out.schedule, &out.datapath, &d.spec)
    })
    .map_err(|e| e.to_string())?;
    let control = layer(tr, "control.verify", || {
        verify_controller(&dfg, &out.schedule, &out.datapath, &controller, &d.spec)
    });
    if !control.is_empty() {
        return Err(format!("controller verifier: {control:?}"));
    }
    let verilog = layer(tr, "control.verilog", || {
        emit_verilog(&dfg, &out.schedule, &out.datapath, &controller, &d.spec)
    })
    .map_err(|e| e.to_string())?;
    let mut vectors = 0;
    for k in 0..8 {
        let mismatches = layer(tr, "sim.equivalence", || {
            let mut inputs = random_inputs(&dfg, vector_seed.wrapping_mul(8).wrapping_add(k));
            if faults.corrupt_vector {
                inputs.pop_first();
            }
            check_equivalence(&dfg, &out.schedule, &out.datapath, &d.spec, &inputs)
        })
        .map_err(|e| format!("equivalence check: {e}"))?;
        if !mismatches.is_empty() {
            return Err(format!(
                "equivalence: {} mismatching op(s)",
                mismatches.len()
            ));
        }
        vectors += 1;
    }
    Ok(RunOut {
        fu_area: Some(out.cost.alu_area.as_u64()),
        vectors,
        verilog_bytes: verilog.len() as u64,
    })
}

/// Functional-unit area of an MFS unit mix, priced as the serve
/// daemon's `fu_cost` prices it (1000 per unit without a library cell).
fn mix_area(counts: &BTreeMap<moveframe_hls::dfg::FuClass, u32>, library: &Library) -> u64 {
    counts
        .iter()
        .map(|(class, &n)| {
            let unit = class
                .base_op()
                .and_then(|op| library.fu_area(op).ok())
                .map_or(1000, |a| a.as_u64());
            u64::from(n) * unit
        })
        .sum()
}

/// One `mfhls schedule` run: parse, MFS, verify. With `price`, the unit
/// mix is also priced against the library (the pricing is not part of
/// the command, so callers ask for it once, not on every timed pass).
pub fn schedule(
    d: &Design,
    point: (u32, Option<u32>),
    price: Option<&Library>,
    tr: &mut Option<&mut Trace>,
) -> Result<RunOut, String> {
    let (cs, latency) = point;
    let dfg = layer(tr, "dfg.parse", || parse_dfg(&d.text)).map_err(|e| e.to_string())?;
    let config = || {
        let mut config = MfsConfig::time_constrained(cs);
        if let Some(clock) = d.clock {
            config = config.with_chaining(clock);
        }
        if let Some(l) = latency {
            config = config.with_latency(l);
        }
        config
    };
    let out = match tr {
        Some(t) => t.span("core.mfs", |t| {
            let mut sink = NullSink;
            let mut instr = Instrument::new(&mut sink, &mut t.metrics);
            mfs::schedule_traced(&dfg, &d.spec, &config(), &mut instr)
        }),
        None => mfs::schedule(&dfg, &d.spec, &config()),
    }
    .map_err(|e| e.to_string())?;
    check_schedule(d, &dfg, &out.schedule, latency, Faults::default(), tr)?;
    Ok(RunOut {
        fu_area: price.map(|library| mix_area(&out.fu_counts(), library)),
        vectors: 0,
        verilog_bytes: 0,
    })
}

/// The cell library every run prices against.
pub fn library() -> Library {
    Library::ncr_like()
}

/// Parses `.dfg` text and returns its node count (the serve-cold trace
/// times the daemon's parse layer on the workload's own bodies).
pub fn parse_nodes(text: &str) -> Result<usize, String> {
    parse_dfg(text)
        .map(|d| d.node_count())
        .map_err(|e| e.to_string())
}

/// Critical path, in control steps, of a built-in serve benchmark.
pub fn builtin_critical_path(name: &str) -> Option<u32> {
    let dfg = serve::benchmark(name)?;
    Some(CriticalPath::compute(&dfg, &TimingSpec::uniform_single_cycle()).steps() as u32)
}

/// Starts an in-process daemon on an ephemeral loopback port.
pub fn start_daemon(workers: usize, cache_dir: Option<PathBuf>) -> io::Result<Server> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_dir,
        ..ServeConfig::default()
    };
    Server::start(config, Box::new(NullSink))
}

pub fn daemon_addr(server: &Server) -> SocketAddr {
    server.local_addr()
}

/// Graceful drain, then waits for every daemon thread.
pub fn stop_daemon(server: Server) {
    server.shutdown();
    server.join();
}

pub fn daemon_metrics(server: &Server) -> Metrics {
    server.app().metrics_snapshot()
}

/// A private, memory-only application state: the reference a served
/// body is compared against.
pub fn reference_state() -> AppState {
    AppState::new(64, None)
}

/// What the reference state answers to one raw HTTP request, parsed by
/// the daemon's own request parser.
pub fn reference_answer(state: &AppState, raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
    match serve::parse_request(raw, usize::MAX) {
        Ok(Parsed::Complete { request, .. }) => {
            let response = serve::handle(state, &request, Instant::now());
            Ok((response.status, response.body))
        }
        Ok(Parsed::Partial) => Err("incomplete request".into()),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// Counter `name`, or `None` when the program no longer records it.
pub fn counter(m: &Metrics, name: &str) -> Option<u64> {
    m.counters().find(|&(k, _)| k == name).map(|(_, v)| v)
}

/// `(count, sum)` of histogram `name`, or `None` when absent.
pub fn histogram(m: &Metrics, name: &str) -> Option<(u64, u64)> {
    m.histogram(name).map(|h| (h.count(), h.sum()))
}

/// Writes `spans` as a Chrome trace (`PhaseSpan` records through the
/// telemetry exporter).
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> io::Result<()> {
    let events: Vec<TraceEvent> = spans
        .iter()
        .map(|s| TraceEvent::PhaseSpan {
            phase: s.name.into(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
        })
        .collect();
    std::fs::write(path, chrome_trace(events.iter()))
}
