//! The four workloads: what each one feeds the program and how it times
//! the answer. Inputs are generated from the seed before anything is
//! set up or timed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::affinity;
use crate::client::{self, Conn};
use crate::pipeline::{self, Design, Faults, RunOut};
use crate::report::{self, grouped_percentile};
use crate::trace::Trace;

/// Every workload, in run order.
pub const NAMES: [&str; 4] = ["paper", "large", "serve-hot", "serve-cold"];

/// Generated-family sizes of the `large` workload, in operations.
const LARGE_SYNTH_OPS: usize = 5_000;
const LARGE_SCHEDULE_OPS: usize = 30_000;
/// Seeds of the family draws a `large` run rotates through on each
/// path: two, so its result covers the family rather than one draw of
/// its branch layers. They are fixed, not taken from `--seed`: runs at
/// different seeds are compared with one another, and when the draws
/// followed the seed (seeds 1 to 20) they moved a run's peak memory by
/// up to 30 % and its quality by up to 4 %. `--seed` varies the
/// equivalence vectors.
const LARGE_GRAPH_SEEDS: [u64; 2] = [42, 43];
/// Size of the warm-up design of the `large` set-up.
const LARGE_WARMUP_OPS: usize = 1_000;
/// Client threads and connections of serve-cold, and of serve-hot
/// (which shares one CPU with the daemon: see `affinity.rs`).
const CLIENTS: usize = 2;
const HOT_CLIENTS: usize = 1;
/// Operations per serve-cold design, and its fixed time constraint.
const COLD_OPS: usize = 200;
const COLD_CS: u32 = 40;
/// serve-cold checks every this-many-th job against the reference.
const COLD_CHECK_EVERY: usize = 16;
/// Distinct designs serve-cold sends during set-up, before timing, and
/// the fixed seed they are drawn from.
const COLD_WARMUP_JOBS: usize = 16;
const COLD_WARMUP_SEED: u64 = 42;
/// serve-cold's quality metric averages the first this-many answers
/// (a 20 s run completes about 12 000): enough designs that the mean
/// moves by well under one percent from one seed to the next.
const COLD_QOR_JOBS: usize = 4096;
/// Most client spans a serve trace keeps per client.
const SPANS_PER_CLIENT: usize = 100_000;
/// Sample-buffer room per second of timing: passes take at least half a
/// millisecond; the serve-hot client gets 40k to 60k answers a second on
/// a 2-vCPU virtual machine.
const PASSES_PER_SECOND: f64 = 2_000.0;
const HOT_REQUESTS_PER_CLIENT_SECOND: f64 = 100_000.0;
/// serve-cold designs generated per second of timing: the two clients
/// get about 600 answers a second on two cores, so a run seldom uses
/// them all (and ends early, with a note, if it does).
const COLD_REQUESTS_PER_SECOND: f64 = 800.0;

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Observations that are not failures.
    pub notes: Vec<String>,
    /// Untraced samples (passes or requests), in ns, per sample group
    /// (the pipeline workloads rotate through one group per path and
    /// graph; serve-cold has one per algorithm, serve-hot one).
    pub samples_ns: Vec<Vec<u64>>,
    /// Traced samples, in ns, per pass group (traced pipeline runs only).
    pub traced_ns: Vec<Vec<u64>>,
    /// Design runs or 200 answers completed inside the timed window.
    pub items: u64,
    pub wall_s: f64,
    pub setup_s: Vec<f64>,
    /// Peak resident anonymous memory (KiB), read at the end of the timed
    /// window, before any after-the-fact checking.
    pub peak_anon_kb: Option<u64>,
    /// Samples that did not fit the pre-allocated buffers.
    pub dropped_samples: u64,
    /// Mean functional-unit area per design run, over `qor_runs` runs.
    pub qor: f64,
    pub qor_runs: u64,
    pub layers: BTreeMap<&'static str, f64>,
    pub trace: Option<Trace>,
    pub describe: String,
}

impl Run {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// Latency samples in a buffer allocated and written before the memory
/// baseline is taken, so recording them never moves the memory metric.
struct Samples {
    buf: Vec<u64>,
    len: usize,
    dropped: u64,
}

impl Samples {
    fn new(room: usize) -> Samples {
        Samples {
            // Non-zero fill: every page is written now, not on first use.
            buf: vec![u64::MAX; room],
            len: 0,
            dropped: 0,
        }
    }

    fn room(seconds: f64, per_second: f64) -> usize {
        (seconds * per_second) as usize + 64
    }

    fn push(&mut self, ns: u64) {
        match self.buf.get_mut(self.len) {
            Some(slot) => {
                *slot = ns;
                self.len += 1;
            }
            None => self.dropped += 1,
        }
    }

    fn drain_into(&self, out: &mut Vec<u64>) -> u64 {
        out.extend_from_slice(&self.buf[..self.len]);
        self.dropped
    }
}

/// Moves per-group sample buffers into `out`, one vector per group;
/// returns how many samples did not fit.
fn drain_groups(groups: &[Samples], out: &mut Vec<Vec<u64>>) -> u64 {
    groups
        .iter()
        .map(|g| {
            let mut v = Vec::new();
            let dropped = g.drain_into(&mut v);
            out.push(v);
            dropped
        })
        .sum()
}

/// A 64-bit mix of the seed and a stream index (SplitMix64 finaliser),
/// so every derived input is a pure function of `--seed`.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs workload `name`; `inputs_ready` is called once its inputs exist
/// and before anything is set up or timed.
pub fn run(name: &str, s: &Settings, inputs_ready: &mut dyn FnMut()) -> Result<Run, String> {
    match name {
        "serve-hot" => serve_hot(s, inputs_ready),
        "serve-cold" => serve_cold(s, inputs_ready),
        _ => Ok(pipeline_run(
            pipeline_inputs(name, s, true)?,
            s,
            inputs_ready,
        )),
    }
}

/// Generates the set-up inputs of workload `name` and times one set-up,
/// in seconds — what a fresh process pays before its first sample.
pub fn setup_once(name: &str, s: &Settings) -> Result<f64, String> {
    match name {
        "serve-hot" => {
            let workers = nproc();
            let _pinned = affinity::pin();
            let jobs = hot_jobs()?;
            let (server, _, secs) = hot_setup(&jobs, workers)?;
            pipeline::stop_daemon(server);
            Ok(secs)
        }
        "serve-cold" => {
            let warmup = cold_warmup();
            let (server, secs, failures) = cold_setup(&warmup)?;
            pipeline::stop_daemon(server);
            let _ = std::fs::remove_dir_all(COLD_CACHE_DIR);
            match failures.first() {
                Some(f) => Err(f.clone()),
                None => Ok(secs),
            }
        }
        _ => {
            let w = pipeline_inputs(name, s, false)?;
            let mut run = Run::default();
            let secs = warm_up(&w, s, &mut run);
            match run.errors.first() {
                Some(e) => Err(e.clone()),
                None => Ok(secs),
            }
        }
    }
}

/// One pass group: designs that go through one path together. A
/// pipeline run rotates through its groups, one pass each.
struct Group {
    path: Path,
    designs: Vec<Design>,
}

/// A pipeline workload's inputs: its pass groups and the warm-up
/// groups of its set-up.
struct PipelineInputs {
    groups: Vec<Group>,
    warmup: Vec<Group>,
    /// Whole rounds (one pass per group) to run instead of a duration.
    max_rounds: Option<u64>,
}

/// The inputs of a pipeline workload; `timed` false builds only what
/// set-up needs.
fn pipeline_inputs(name: &str, s: &Settings, timed: bool) -> Result<PipelineInputs, String> {
    let both = |designs: &dyn Fn(Path) -> Vec<Design>| {
        [Path::Synth, Path::Schedule]
            .into_iter()
            .map(|path| Group {
                path,
                designs: designs(path),
            })
            .collect::<Vec<_>>()
    };
    match name {
        "paper" => Ok(PipelineInputs {
            groups: if timed {
                both(&|path| pipeline::paper_designs(path == Path::Synth))
            } else {
                Vec::new()
            },
            warmup: both(&|path| pipeline::paper_designs(path == Path::Synth)),
            max_rounds: None,
        }),
        "large" => {
            // A quick run makes one round on one smaller graph per path
            // (two rounds when traced: one each way).
            let (draws, synth_ops, schedule_ops) = if s.quick {
                (&LARGE_GRAPH_SEEDS[..1], 1_000, 5_000)
            } else {
                (&LARGE_GRAPH_SEEDS[..], LARGE_SYNTH_OPS, LARGE_SCHEDULE_OPS)
            };
            let mut groups = Vec::new();
            if timed {
                for (path, ops) in [(Path::Synth, synth_ops), (Path::Schedule, schedule_ops)] {
                    for &seed in draws {
                        groups.push(Group {
                            path,
                            designs: vec![pipeline::scaling_design(ops, seed)],
                        });
                    }
                }
            }
            Ok(PipelineInputs {
                groups,
                warmup: both(&|_| {
                    vec![pipeline::scaling_design(
                        LARGE_WARMUP_OPS,
                        LARGE_GRAPH_SEEDS[0],
                    )]
                }),
                max_rounds: s.quick.then_some(if s.trace { 2 } else { 1 }),
            })
        }
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            NAMES.join(", ")
        )),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Path {
    Synth,
    Schedule,
}

/// Work counted over one or more passes.
#[derive(Default)]
struct Tally {
    runs: u64,
    /// Runs whose functional-unit area was priced, and its sum.
    priced: u64,
    fu_area: u64,
    vectors: u64,
    verilog_bytes: u64,
    nodes: u64,
}

/// What every pass of one pipeline run shares.
struct PassCtx {
    library: pipeline::Library,
    seed: u64,
    faults: Faults,
}

impl PassCtx {
    fn new(seed: u64, faults: Faults) -> PassCtx {
        PassCtx {
            library: pipeline::library(),
            seed,
            faults,
        }
    }
}

/// One pass: every design of the group at every one of its points;
/// with `price`, the pass also counts towards the quality figure (and
/// prices schedule-path unit mixes for it).
fn pass(
    ctx: &PassCtx,
    group: &Group,
    price: bool,
    mut tr: Option<&mut Trace>,
    run: &mut Run,
    tally: &mut Tally,
) {
    for (i, d) in group.designs.iter().enumerate() {
        for &point in &d.points {
            run.attempted += 1;
            let out: Result<RunOut, String> = match group.path {
                Path::Synth => {
                    pipeline::synth(d, point, mix(ctx.seed, i as u64), ctx.faults, &mut tr)
                }
                Path::Schedule => {
                    pipeline::schedule(d, point, price.then_some(&ctx.library), &mut tr)
                }
            };
            match out {
                Ok(out) => {
                    tally.runs += 1;
                    if let Some(area) = out.fu_area.filter(|_| price) {
                        tally.priced += 1;
                        tally.fu_area += area;
                    }
                    tally.vectors += out.vectors;
                    tally.verilog_bytes += out.verilog_bytes;
                    tally.nodes += d.nodes as u64;
                }
                Err(e) => run.fail(format!("{} at cs {}: {e}", d.name, point.0)),
            }
        }
    }
}

/// Set-up of a pipeline workload: one warm-up pass per path (lazy
/// statics, page faults, allocator growth), checked like any other;
/// returns seconds.
fn warm_up(w: &PipelineInputs, s: &Settings, run: &mut Run) -> f64 {
    let t = Instant::now();
    let ctx = PassCtx::new(s.seed, Faults::default());
    for group in &w.warmup {
        pass(&ctx, group, false, None, run, &mut Tally::default());
    }
    t.elapsed().as_secs_f64()
}

fn pipeline_run(w: PipelineInputs, s: &Settings, inputs_ready: &mut dyn FnMut()) -> Run {
    let mut run = Run::default();
    let room = Samples::room(s.seconds, PASSES_PER_SECOND);
    let mut untraced_ns: Vec<Samples> = w.groups.iter().map(|_| Samples::new(room)).collect();
    let traced_room = if s.trace { room } else { 0 };
    let mut traced_ns: Vec<Samples> = w.groups.iter().map(|_| Samples::new(traced_room)).collect();
    inputs_ready();
    let secs = warm_up(&w, s, &mut run);
    run.setup_s.push(secs);
    let ctx = PassCtx::new(s.seed, Faults::default());

    let mut trace = s.trace.then(Trace::new);
    let mut timed = Tally::default();
    let mut traced = Tally::default();
    let budget = Duration::from_secs_f64(s.seconds);
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        // The traced run alternates traced and untraced rounds (one pass
        // per design group), so the tracing overhead is measured on the
        // same designs under the same drift.
        let per_round = w.groups.len() as u64;
        let g = (i % per_round) as usize;
        let group = &w.groups[g];
        let t0 = Instant::now();
        match trace.as_mut().filter(|_| (i / per_round).is_multiple_of(2)) {
            Some(t) => {
                t.next_pass();
                t.span("bench.pass", |t| {
                    pass(&ctx, group, false, Some(t), &mut run, &mut traced)
                });
                traced_ns[g].push(t0.elapsed().as_nanos() as u64);
            }
            None => {
                // Outputs repeat exactly from pass to pass: quality is
                // priced on the first untraced round only.
                let price = i / per_round == u64::from(s.trace);
                pass(&ctx, group, price, None, &mut run, &mut timed);
                untraced_ns[g].push(t0.elapsed().as_nanos() as u64);
            }
        }
        i += 1;
        // Runs end on whole rounds, so every group has as many passes.
        let enough = i.is_multiple_of(per_round)
            && match w.max_rounds {
                Some(max) => i >= max * per_round,
                None => start.elapsed() >= budget,
            };
        if enough {
            break;
        }
    }
    run.wall_s = start.elapsed().as_secs_f64();
    run.peak_anon_kb = report::peak_anon_kb();
    run.dropped_samples = drain_groups(&untraced_ns, &mut run.samples_ns)
        + drain_groups(&traced_ns, &mut run.traced_ns);
    run.items = timed.runs + traced.runs;
    if timed.priced > 0 {
        run.qor = timed.fu_area as f64 / timed.priced as f64;
        run.qor_runs = timed.priced;
    }
    let groups: Vec<String> = w
        .groups
        .iter()
        .map(|g| {
            format!(
                "{} {} run(s) on {} op(s)",
                match g.path {
                    Path::Synth => "synth",
                    Path::Schedule => "schedule",
                },
                g.designs.iter().map(|d| d.points.len()).sum::<usize>(),
                g.designs.iter().map(|d| d.nodes).sum::<usize>()
            )
        })
        .collect();
    run.describe = format!("pass groups in rotation: {}", groups.join("; "));
    if let Some(t) = trace {
        pipeline_layers(&mut run, &t, &traced);
        run.trace = Some(t);
    }
    run
}

const MS: f64 = 1e6;

/// Per-layer metrics of a traced pipeline run, as means per round (one
/// pass of every group: for `paper` one synth and one schedule pass).
fn pipeline_layers(run: &mut Run, t: &Trace, work: &Tally) {
    let passes = run.traced_ns.iter().map(Vec::len).sum::<usize>();
    let passes = (passes as f64 / run.traced_ns.len().max(1) as f64).max(1.0);
    let totals = t.totals();
    let span_ms = |name: &str| totals.get(name).map_or(0.0, |x| x.total_ns as f64) / MS / passes;
    let phase_ms = |name: &str| {
        pipeline::histogram(&t.metrics, &format!("phase.{name}.ns"))
            .map_or(0.0, |(_, sum)| sum as f64)
            / MS
            / passes
    };
    let count = |name: &str| pipeline::counter(&t.metrics, name).map_or(0.0, |v| v as f64) / passes;
    let overhead = overhead_pct(run);
    let l = &mut run.layers;
    let parse_ms = span_ms("dfg.parse");
    l.insert("dfg.parse_ms", parse_ms);
    if parse_ms > 0.0 {
        l.insert(
            "dfg.parse_nodes_per_ms",
            work.nodes as f64 / passes / parse_ms,
        );
    }
    for alg in ["mfs", "mfsa"] {
        for phase in ["frames", "priority", "move_loop"] {
            l.insert(layer_name(alg, phase), phase_ms(&format!("{alg}.{phase}")));
        }
        l.insert(
            layer_name(alg, "energy_evals"),
            count(&format!("{alg}.energy_evaluations")),
        );
    }
    l.insert("core.mfs.frames_computed", count("mfs.frames_computed"));
    l.insert("core.mfs.local_reschedules", count("mfs.local_reschedules"));
    let bounded = count("mfsa.bound.evals");
    l.insert("core.mfsa.bound_evals", bounded);
    if bounded > 0.0 {
        l.insert(
            "core.mfsa.prune_ratio",
            count("mfsa.energy_evaluations") / bounded,
        );
    }
    l.insert("rtl.datapath_ms", phase_ms("mfsa.datapath"));
    l.insert("rtl.verify_ms", span_ms("rtl.verify"));
    l.insert("schedule.verify_ms", span_ms("schedule.verify"));
    l.insert("mem.port_safety_ms", span_ms("mem.port_safety"));
    l.insert("control.controller_ms", span_ms("control.controller"));
    l.insert("control.verify_ms", span_ms("control.verify"));
    l.insert("control.verilog_ms", span_ms("control.verilog"));
    l.insert(
        "control.verilog_kb",
        work.verilog_bytes as f64 / 1024.0 / passes,
    );
    l.insert("sim.equivalence_ms", span_ms("sim.equivalence"));
    l.insert("sim.vectors", work.vectors as f64 / passes);
    let unattributed = totals.get("bench.pass").map_or(0, |x| x.self_ns);
    l.insert("bench.unattributed_ms", unattributed as f64 / MS / passes);
    let mut shares = t.self_shares("bench.pass");
    shares.sort_by(f64::total_cmp);
    let at = |q: f64| shares[((shares.len() as f64 * q) as usize).min(shares.len() - 1)];
    if !shares.is_empty() {
        run.notes.push(format!(
            "time outside every layer span: {:.2}% of the median pass, {:.2}% at the 99th percentile of passes",
            100.0 * at(0.5),
            100.0 * at(0.99)
        ));
    }
    l.insert("trace.overhead_pct", overhead);
}

fn layer_name(alg: &str, what: &str) -> &'static str {
    match (alg, what) {
        ("mfs", "frames") => "core.mfs.frames_ms",
        ("mfs", "priority") => "core.mfs.priority_ms",
        ("mfs", "move_loop") => "core.mfs.move_loop_ms",
        ("mfs", "energy_evals") => "core.mfs.energy_evals",
        ("mfsa", "frames") => "core.mfsa.frames_ms",
        ("mfsa", "priority") => "core.mfsa.priority_ms",
        ("mfsa", "move_loop") => "core.mfsa.move_loop_ms",
        ("mfsa", "energy_evals") => "core.mfsa.energy_evals",
        _ => unreachable!("fixed layer table"),
    }
}

/// Traced median against untraced median, in percent.
fn overhead_pct(run: &Run) -> f64 {
    let untraced = grouped_percentile(&run.samples_ns, 0.5);
    let traced = grouped_percentile(&run.traced_ns, 0.5);
    if untraced == 0.0 || traced == 0.0 {
        return 0.0;
    }
    (traced - untraced) / untraced * 100.0
}

/// The serve-hot job set: eight built-in benchmarks × {mfs, mfsa} ×
/// four time constraints above each benchmark's critical path.
fn hot_jobs() -> Result<Vec<Vec<u8>>, String> {
    let mut jobs = Vec::new();
    for name in [
        "diffeq",
        "fir",
        "ar",
        "ewf",
        "facet",
        "dct8",
        "bandpass",
        "array_fir",
    ] {
        let cp = pipeline::builtin_critical_path(name)
            .ok_or_else(|| format!("serve has no built-in benchmark `{name}`"))?;
        for alg in ["mfs", "mfsa"] {
            for slack in [3, 4, 6, 8] {
                let body = format!(
                    "{{\"benchmark\":\"{name}\",\"alg\":\"{alg}\",\"cs\":{}}}",
                    cp + slack
                );
                jobs.push(client::post("/schedule", body.as_bytes()));
            }
        }
    }
    Ok(jobs)
}

/// Whether a served answer is the expected one, byte for byte.
fn served_matches(a: &client::Answer, status: u16, body: &[u8]) -> bool {
    a.status == status && a.body == body
}

/// The `fu_cost` field of a served JSON body.
fn fu_cost(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let tail = text.split("\"fu_cost\":").nth(1)?;
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One client's record of a timed serve loop.
struct ClientLog {
    /// Latencies per sample group (serve-cold groups by algorithm).
    samples_ns: Vec<Samples>,
    /// Request spans of the traced run, recorded after each request was
    /// timed, so tracing adds nothing to the measured round trip.
    spans: Option<Vec<(Instant, u64)>>,
    ok: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// serve-cold: `(job, body)` of every checked job.
    kept: Vec<(usize, Vec<u8>)>,
    /// serve-cold: `(job, fu_cost)` of the first jobs.
    costs: Vec<(usize, u64)>,
}

impl ClientLog {
    fn new(room: usize, trace: bool, groups: usize) -> ClientLog {
        ClientLog {
            samples_ns: (0..groups).map(|_| Samples::new(room)).collect(),
            spans: trace.then(Vec::new),
            ok: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            kept: Vec::new(),
            costs: Vec::new(),
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    fn record(&mut self, group: usize, started: Instant, dur: Duration) {
        let ns = dur.as_nanos() as u64;
        self.samples_ns[group].push(ns);
        if let Some(spans) = self.spans.as_mut().filter(|s| s.len() < SPANS_PER_CLIENT) {
            spans.push((started, ns));
        }
    }
}

/// Daemon counters and histogram sums before and after the timed loop.
struct ServeDelta {
    before: pipeline::Metrics,
    after: pipeline::Metrics,
}

impl ServeDelta {
    fn counter(&self, name: &str) -> f64 {
        let get = |m| pipeline::counter(m, name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }

    fn hist(&self, name: &str) -> (f64, f64) {
        let get = |m| pipeline::histogram(m, name).unwrap_or((0, 0));
        let (c1, s1) = get(&self.after);
        let (c0, s0) = get(&self.before);
        (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
    }

    fn mean_ms(&self, name: &str) -> f64 {
        let (count, sum) = self.hist(name);
        if count == 0.0 {
            0.0
        } else {
            sum / count / MS
        }
    }
}

/// Per-layer metrics of a traced serve run, as means per request. The
/// traced run adds no code inside a timed request, so it reports no
/// tracing overhead.
fn serve_layers(run: &mut Run, d: &ServeDelta, client_mean_ms: f64) {
    let requests = d.counter("serve.requests").max(1.0);
    let l = &mut run.layers;
    let request_ms = d.mean_ms("serve.latency.schedule.ns");
    l.insert("serve.request_mean_ms", request_ms);
    l.insert(
        "serve.queue_wait_mean_ms",
        d.mean_ms("serve.queue_wait.schedule.ns"),
    );
    l.insert(
        "serve.compute_mean_ms",
        d.mean_ms("serve.compute.schedule.ns"),
    );
    l.insert(
        "serve.fastpath_ratio",
        d.counter("serve.fastpath.hits") / requests,
    );
    l.insert(
        "serve.keepalive_reused",
        d.counter("serve.keepalive.reused"),
    );
    l.insert("serve.non200", requests - d.counter("serve.http.200"));
    l.insert("serve.outside_mean_ms", client_mean_ms - request_ms);
    let jobs = d.counter("serve.jobs").max(1.0);
    l.insert(
        "explore.cache.hit_ratio",
        d.counter("serve.jobs.warm") / jobs,
    );
    let frame_hits = d.counter("serve.cache.frames.hits");
    let frame_all = frame_hits + d.counter("serve.cache.frames.misses");
    if frame_all > 0.0 {
        l.insert("explore.frames.hit_ratio", frame_hits / frame_all);
    }
    l.insert(
        "explore.cache.evictions",
        d.counter("serve.cache.results.evictions"),
    );
    l.insert(
        "explore.cache.disk_writes",
        d.counter("serve.cache.disk.writes"),
    );
    for alg in ["mfs", "mfsa"] {
        for phase in ["frames", "priority", "move_loop"] {
            let (_, sum) = d.hist(&format!("phase.{alg}.{phase}.ns"));
            l.insert(layer_name(alg, phase), sum / MS / requests);
        }
        l.insert(
            layer_name(alg, "energy_evals"),
            d.counter(&format!("{alg}.energy_evaluations")) / requests,
        );
    }
    l.insert(
        "core.mfs.frames_computed",
        d.counter("mfs.frames_computed") / requests,
    );
    l.insert(
        "core.mfs.local_reschedules",
        d.counter("mfs.local_reschedules") / requests,
    );
    let bounded = d.counter("mfsa.bound.evals");
    l.insert("core.mfsa.bound_evals", bounded / requests);
    if bounded > 0.0 {
        l.insert(
            "core.mfsa.prune_ratio",
            d.counter("mfsa.energy_evaluations") / bounded,
        );
    }
    let (_, datapath) = d.hist("phase.mfsa.datapath.ns");
    l.insert("rtl.datapath_ms", datapath / MS / requests);
}

/// Runs the closed loop: one thread and connection per log, until
/// `budget` is spent or `next_job` — `(job, sample group)` for client
/// `c`'s `k`-th request — says stop.
fn closed_loop(
    addr: std::net::SocketAddr,
    budget: Duration,
    logs: Vec<ClientLog>,
    next_job: &(dyn Fn(usize, u64) -> Option<(usize, usize)> + Sync),
    requests: &[Vec<u8>],
    on_answer: &(dyn Fn(usize, &client::Answer, &mut ClientLog) + Sync),
) -> (Vec<ClientLog>, Duration) {
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .into_iter()
            .enumerate()
            .map(|(c, mut log)| {
                scope.spawn(move || {
                    let mut conn = match Conn::open(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            log.fail(format!("client {c}: connect: {e}"));
                            return log;
                        }
                    };
                    let mut k = 0u64;
                    while start.elapsed() < budget {
                        let Some((job, group)) = next_job(c, k) else {
                            break;
                        };
                        log.attempted += 1;
                        let started = Instant::now();
                        match conn.round_trip(&requests[job]) {
                            Ok((answer, dur)) => {
                                log.record(group, started, dur);
                                on_answer(job, &answer, &mut log);
                            }
                            Err(e) => {
                                log.fail(format!("client {c}: {e}"));
                                break;
                            }
                        }
                        k += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, start.elapsed())
}

/// Folds client logs into the run; returns the client mean latency (ms)
/// and the traced spans.
fn absorb(run: &mut Run, logs: Vec<ClientLog>, wall: Duration) -> (f64, Vec<(Instant, u64)>) {
    let mut spans = Vec::new();
    let groups = logs.first().map_or(0, |l| l.samples_ns.len());
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); groups];
    for log in logs {
        run.attempted += log.attempted;
        run.items += log.ok;
        for (g, out) in samples.iter_mut().enumerate() {
            run.dropped_samples += log.samples_ns[g].drain_into(out);
        }
        spans.extend(log.spans.into_iter().flatten());
        run.failed += log.failed;
        for f in log.failures {
            if run.errors.len() < 8 {
                run.errors.push(f);
            }
        }
    }
    run.wall_s = wall.as_secs_f64();
    let all: usize = samples.iter().map(Vec::len).sum();
    let sum: u64 = samples.iter().flatten().sum();
    let mean_ms = if all == 0 {
        0.0
    } else {
        sum as f64 / all as f64 / MS
    };
    run.samples_ns = samples;
    (mean_ms, spans)
}

fn trace_of(spans: Vec<(Instant, u64)>) -> Trace {
    let mut t = Trace::new();
    let mut spans = spans;
    spans.sort_by_key(|&(at, _)| at);
    for (at, ns) in spans {
        t.record("serve.request", at, ns);
    }
    t
}

/// serve-hot set-up: start the daemon with `workers` workers and
/// compute the hot set through it. Returns the daemon, its answers and
/// the seconds it took.
fn hot_setup(
    jobs: &[Vec<u8>],
    workers: usize,
) -> Result<(pipeline::Server, Vec<client::Answer>, f64), String> {
    let t = Instant::now();
    let server = pipeline::start_daemon(workers, None).map_err(|e| format!("daemon: {e}"))?;
    let mut conn = Conn::open(pipeline::daemon_addr(&server)).map_err(|e| e.to_string())?;
    let mut answers = Vec::with_capacity(jobs.len());
    for job in jobs {
        let (answer, _) = conn.round_trip(job).map_err(|e| e.to_string())?;
        answers.push(answer);
    }
    Ok((server, answers, t.elapsed().as_secs_f64()))
}

/// serve-hot: a warm daemon answering a fixed 64-job set from its
/// memory tier, to one client on the daemon's CPU.
fn serve_hot(s: &Settings, inputs_ready: &mut dyn FnMut()) -> Result<Run, String> {
    // Workers as on the host; every thread then shares one CPU, until
    // `pinned` drops at the end of the run.
    let workers = nproc();
    let pinned = affinity::pin();
    let jobs = hot_jobs()?;
    let mut run = Run::default();
    let room = Samples::room(s.seconds, HOT_REQUESTS_PER_CLIENT_SECOND);
    let logs: Vec<ClientLog> = (0..HOT_CLIENTS)
        .map(|_| ClientLog::new(room, s.trace, 1))
        .collect();
    inputs_ready();

    let (server, answers, secs) = hot_setup(&jobs, workers)?;
    run.setup_s.push(secs);

    // Every hot job is checked against a private reference state.
    let reference = pipeline::reference_state();
    let mut costs = 0u64;
    for (i, (job, answer)) in jobs.iter().zip(&answers).enumerate() {
        run.attempted += 1;
        match pipeline::reference_answer(&reference, job) {
            Ok((200, body)) if served_matches(answer, 200, &body) => {
                costs += fu_cost(&body).unwrap_or(0);
            }
            Ok((status, _)) => run.fail(format!(
                "hot job {i}: served {} vs reference {status}, or bodies differ",
                answer.status
            )),
            Err(e) => run.fail(format!("hot job {i}: {e}")),
        }
    }
    run.qor = costs as f64 / jobs.len() as f64;
    run.qor_runs = jobs.len() as u64;
    let expected: Vec<Vec<u8>> = answers.into_iter().map(|a| a.body).collect();

    // Each client walks its own seeded permutation of the hot set.
    let orders: Vec<Vec<usize>> = (0..HOT_CLIENTS)
        .map(|c| {
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            for i in (1..order.len()).rev() {
                let j = (mix(s.seed, 100 + c as u64 * 1000 + i as u64) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            order
        })
        .collect();
    let next = |c: usize, k: u64| Some((orders[c][(k % orders[c].len() as u64) as usize], 0));
    let check = |job: usize, a: &client::Answer, log: &mut ClientLog| {
        if served_matches(a, 200, &expected[job]) {
            log.ok += 1;
        } else {
            log.fail(format!(
                "hot job {job}: status {} or body changed",
                a.status
            ));
        }
    };
    let before = pipeline::daemon_metrics(&server);
    let budget = Duration::from_secs_f64(s.seconds);
    let (logs, wall) = closed_loop(
        pipeline::daemon_addr(&server),
        budget,
        logs,
        &next,
        &jobs,
        &check,
    );
    run.peak_anon_kb = report::peak_anon_kb();
    let after = pipeline::daemon_metrics(&server);
    pipeline::stop_daemon(server);
    let (client_mean, spans) = absorb(&mut run, logs, wall);
    run.describe = format!(
        "{} hot jobs, {HOT_CLIENTS} keep-alive client, {workers} daemon workers, {}",
        jobs.len(),
        match &pinned {
            Some(p) => format!("every thread on CPU {}", p.cpu),
            None => "threads not pinned (no CPU affinity here)".to_string(),
        }
    );
    if s.trace {
        serve_layers(&mut run, &ServeDelta { before, after }, client_mean);
        run.trace = Some(trace_of(spans));
    }
    Ok(run)
}

/// The serve-cold disk tier, relative to the checkout.
const COLD_CACHE_DIR: &str = "target/benchmark/serve-cold-cache";

/// One serve-cold request: a design drawn from `seed` and `stream` as
/// raw `.dfg` text, MFS for three streams in four and MFSA for the
/// fourth (by index, so every run has the same mix); with its sample
/// group (0 for MFS, 1 for MFSA), so each algorithm's latency weighs
/// the same.
fn cold_request(seed: u64, stream: u64) -> (Vec<u8>, usize) {
    let (alg, group) = if stream % 4 == 3 {
        ("mfsa", 1)
    } else {
        ("mfs", 0)
    };
    let text = pipeline::random_design_text(COLD_OPS, mix(seed, stream));
    let request = client::post(
        &format!("/schedule?alg={alg}&cs={COLD_CS}"),
        text.as_bytes(),
    );
    (request, group)
}

/// Designs serve-cold's set-up sends: fixed, so `setup_s` does not vary
/// with the seed's designs, and drawn from streams past any timed one,
/// so the timed loop never sends them whatever the seed.
fn cold_warmup() -> Vec<Vec<u8>> {
    (0..COLD_WARMUP_JOBS)
        .map(|i| cold_request(COLD_WARMUP_SEED, (1 << 32) + i as u64).0)
        .collect()
}

/// serve-cold set-up: wipe the disk tier, start the daemon on it and
/// warm it (threads, allocator, disk tier) with designs the timed loop
/// never sends, so every timed request stays cold. Returns the daemon,
/// the seconds it took and any warm-up answer that was not a 200.
fn cold_setup(warmup: &[Vec<u8>]) -> Result<(pipeline::Server, f64, Vec<String>), String> {
    let t = Instant::now();
    let dir = PathBuf::from(COLD_CACHE_DIR);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = pipeline::start_daemon(nproc(), Some(dir)).map_err(|e| format!("daemon: {e}"))?;
    let mut conn = Conn::open(pipeline::daemon_addr(&server)).map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    for (i, job) in warmup.iter().enumerate() {
        let (answer, _) = conn.round_trip(job).map_err(|e| e.to_string())?;
        if answer.status != 200 {
            failures.push(format!("cold warm-up job {i}: status {}", answer.status));
        }
    }
    Ok((server, t.elapsed().as_secs_f64(), failures))
}

/// serve-cold: every request a distinct seeded design, so each one
/// parses, queues, computes and writes a disk entry.
fn serve_cold(s: &Settings, inputs_ready: &mut dyn FnMut()) -> Result<Run, String> {
    let pool = if s.quick {
        500
    } else {
        ((s.seconds * COLD_REQUESTS_PER_SECOND) as usize).max(COLD_QOR_JOBS)
    };
    let (requests, groups): (Vec<Vec<u8>>, Vec<usize>) =
        (0..pool).map(|i| cold_request(s.seed, i as u64)).unzip();
    let warmup = cold_warmup();
    let mut run = Run::default();
    // No client can answer more than the whole pool.
    let logs: Vec<ClientLog> = (0..CLIENTS)
        .map(|_| ClientLog::new(pool, s.trace, 2))
        .collect();
    inputs_ready();

    let (server, secs, failures) = cold_setup(&warmup)?;
    run.setup_s.push(secs);
    for f in failures {
        run.fail(f);
    }

    let cursor = AtomicUsize::new(0);
    let next = |_: usize, _: u64| {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < requests.len()).then(|| (i, groups[i]))
    };
    let keep = |job: usize, a: &client::Answer, log: &mut ClientLog| {
        if a.status == 200 {
            log.ok += 1;
        } else {
            log.fail(format!("cold job {job}: status {}", a.status));
        }
        if job.is_multiple_of(COLD_CHECK_EVERY) {
            log.kept.push((job, a.body.clone()));
        }
        if job < COLD_QOR_JOBS {
            log.costs.push((job, fu_cost(&a.body).unwrap_or(0)));
        }
    };
    let before = pipeline::daemon_metrics(&server);
    let budget = Duration::from_secs_f64(s.seconds);
    let (mut logs, wall) = closed_loop(
        pipeline::daemon_addr(&server),
        budget,
        logs,
        &next,
        &requests,
        &keep,
    );
    run.peak_anon_kb = report::peak_anon_kb();
    let after = pipeline::daemon_metrics(&server);
    pipeline::stop_daemon(server);
    let _ = std::fs::remove_dir_all(COLD_CACHE_DIR);

    let kept: Vec<(usize, Vec<u8>)> = logs.iter_mut().flat_map(|l| l.kept.drain(..)).collect();
    let mut costs: Vec<(usize, u64)> = logs.iter_mut().flat_map(|l| l.costs.drain(..)).collect();
    costs.sort_unstable();
    let (client_mean, spans) = absorb(&mut run, logs, wall);
    if run.items >= pool as u64 {
        run.notes.push(format!(
            "all {pool} pre-generated designs were used before the time was up"
        ));
    }
    if !costs.is_empty() {
        run.qor = costs.iter().map(|&(_, c)| c as f64).sum::<f64>() / costs.len() as f64;
        run.qor_runs = costs.len() as u64;
    }

    // A deterministic 1-in-16 sample is checked after timing.
    let reference = pipeline::reference_state();
    let mut trace = s.trace.then(|| trace_of(spans));
    let mut parsed_nodes = 0usize;
    for (job, body) in &kept {
        run.attempted += 1;
        match pipeline::reference_answer(&reference, &requests[*job]) {
            Ok((200, want)) if &want == body => {}
            Ok((status, _)) => run.fail(format!(
                "cold job {job}: reference answered {status}, or bodies differ"
            )),
            Err(e) => run.fail(format!("cold job {job}: {e}")),
        }
        if let Some(t) = trace.as_mut() {
            // The daemon's parse layer has no span of its own yet: time
            // the same parse on the same bodies here.
            let text = body_text(&requests[*job]);
            parsed_nodes += t
                .span("dfg.parse", |_| pipeline::parse_nodes(text))
                .unwrap_or(0);
        }
    }
    run.describe = format!(
        "{pool} pre-generated ~{COLD_OPS}-op designs, {CLIENTS} keep-alive clients, {} daemon workers, disk tier on",
        nproc()
    );
    if let Some(t) = trace {
        serve_layers(&mut run, &ServeDelta { before, after }, client_mean);
        let parses = t.totals().get("dfg.parse").copied().unwrap_or_default();
        if parses.count > 0 {
            let parse_ms = parses.total_ns as f64 / MS / parses.count as f64;
            run.layers.insert("dfg.parse_ms", parse_ms);
            run.layers.insert(
                "dfg.parse_nodes_per_ms",
                parsed_nodes as f64 / parses.count as f64 / parse_ms,
            );
        }
        run.trace = Some(t);
    }
    Ok(run)
}

/// The `.dfg` body of a raw request.
fn body_text(raw: &[u8]) -> &str {
    let at = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(raw.len(), |p| p + 4);
    std::str::from_utf8(&raw[at..]).unwrap_or("")
}

/// `--self-check`: a clean pass, then one fault of each kind; returns,
/// per case, whether the checks saw exactly what they should.
pub fn self_check() -> Vec<(&'static str, bool)> {
    let mut results = Vec::new();
    for (name, faults) in [
        (
            "a clean paper-synth pass reports no failure",
            Faults::default(),
        ),
        (
            "a node moved past its successor fails every run",
            Faults {
                move_past_successor: true,
                ..Faults::default()
            },
        ),
        (
            "a corrupted equivalence input fails every run",
            Faults {
                corrupt_vector: true,
                ..Faults::default()
            },
        ),
    ] {
        let mut run = Run::default();
        let group = Group {
            path: Path::Synth,
            designs: pipeline::paper_designs(true),
        };
        let ctx = PassCtx::new(1, faults);
        pass(&ctx, &group, false, None, &mut run, &mut Tally::default());
        let clean = !faults.move_past_successor && !faults.corrupt_vector;
        // A fault must fail every design run; the clean pass none.
        let counted = if clean {
            run.failed == 0
        } else {
            run.failed == run.attempted
        };
        results.push((name, counted));
    }

    // A flipped byte in a served body must fail the body check.
    let flipped = (|| -> Result<bool, String> {
        let jobs = hot_jobs()?;
        let server = pipeline::start_daemon(1, None).map_err(|e| e.to_string())?;
        let mut conn = Conn::open(pipeline::daemon_addr(&server)).map_err(|e| e.to_string())?;
        let (mut answer, _) = conn.round_trip(&jobs[0]).map_err(|e| e.to_string())?;
        drop(conn);
        pipeline::stop_daemon(server);
        let reference = pipeline::reference_state();
        let (_, want) = pipeline::reference_answer(&reference, &jobs[0])?;
        let clean_matches = served_matches(&answer, 200, &want);
        let mid = answer.body.len() / 2;
        answer.body[mid] ^= 0x01;
        Ok(clean_matches && !served_matches(&answer, 200, &want))
    })();
    results.push((
        "a flipped byte in a served body fails the body check",
        flipped.unwrap_or_else(|e| {
            eprintln!("self-check: {e}");
            false
        }),
    ));
    results
}
