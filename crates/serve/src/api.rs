//! The service API: endpoints, job parsing, and response bodies.
//!
//! `POST /schedule` accepts either a raw `.dfg` text body (knobs in the
//! query string) or a flat JSON job object naming a built-in benchmark
//! or carrying the DFG inline. The success body for `emit=json` is
//! [`point_json`] — a **pure function of the design point and its
//! metrics**, shared with `mfhls schedule --json`, so a served answer
//! is byte-identical to the serial CLI output.
//!
//! Status codes: 200 served, 400 malformed input (DFG parse errors,
//! bad knobs, unknown benchmark), 404 unknown endpoint, 405 wrong
//! method, 413 oversized body, 422 well-formed but unschedulable
//! (e.g. `cs` below the critical path), 429 queue full (emitted by the
//! acceptor), 504 deadline exceeded.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hls_benchmarks::classic;
use hls_celllib::TimingSpec;
use hls_dfg::{parse_dfg, Dfg};
use hls_explore::{
    default_threads, run_indexed, Algorithm, DesignPoint, Engine, Knob, KnobKind, MoveFrameRun,
    PointMetrics,
};
use hls_schedule::render_schedule;
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::CancelToken;

use crate::http::{Request, Response};
use crate::json::{self, JsonValue};

/// What `POST /schedule` should return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Emit {
    /// The cached JSON stats line (default).
    #[default]
    Json,
    /// The human-readable schedule table (MFS/MFSA only; bypasses the
    /// cache because it needs the full schedule, not the metrics).
    Text,
    /// Graphviz DOT of the parsed DFG (no scheduling).
    Dot,
}

/// One fully parsed scheduling job.
#[derive(Debug, Clone)]
pub struct Job {
    /// The graph to schedule. Shared: benchmark graphs are built once
    /// per process, and a parsed inline DFG is not cloned per tier.
    pub dfg: Arc<Dfg>,
    /// The timing model, derived from the chaining/multiplier knobs
    /// exactly as the CLI derives it.
    pub spec: TimingSpec,
    /// The content fingerprint of `(dfg, spec)`, computed once at
    /// parse time and shared by the warm probe and the engine lookup.
    pub dfg_fp: u64,
    /// The design point (algorithm × constraint × knobs).
    pub point: DesignPoint,
    /// Requested output form.
    pub emit: Emit,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
}

/// The shared application state behind every worker.
#[derive(Debug)]
pub struct AppState {
    engine: Engine,
    metrics: Mutex<Metrics>,
    default_deadline_ms: Option<u64>,
}

impl AppState {
    /// State with a result cache capped at `cache_cap` entries and an
    /// optional default per-request deadline (memory-only cache).
    pub fn new(cache_cap: usize, default_deadline_ms: Option<u64>) -> AppState {
        Self::with_options(cache_cap, default_deadline_ms, None)
            .expect("a memory-only state does no I/O")
    }

    /// Like [`AppState::new`], optionally backing the result cache
    /// with a content-addressed on-disk layer at `cache_dir` — warm
    /// answers then survive daemon restarts.
    pub fn with_options(
        cache_cap: usize,
        default_deadline_ms: Option<u64>,
        cache_dir: Option<&std::path::Path>,
    ) -> std::io::Result<AppState> {
        let engine = match cache_dir {
            Some(dir) => Engine::with_disk(cache_cap, dir)?,
            None => Engine::with_caps(cache_cap),
        };
        Ok(AppState {
            engine,
            metrics: Mutex::new(Metrics::new()),
            default_deadline_ms,
        })
    }

    /// The exploration engine (cache included).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The shared registry, recovering from poison: a caught panic in
    /// one request must not take the metrics (and with them every later
    /// request) down for the life of the daemon.
    fn locked_metrics(&self) -> std::sync::MutexGuard<'_, Metrics> {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `by` to counter `name` in the shared registry.
    pub fn inc(&self, name: impl Into<Cow<'static, str>>, by: u64) {
        self.locked_metrics().inc(name, by);
    }

    /// Records `value` into histogram `name` in the shared registry.
    pub fn observe(&self, name: impl Into<Cow<'static, str>>, value: u64) {
        self.locked_metrics().observe(name, value);
    }

    /// A snapshot of the shared registry plus the engine's cache
    /// hit/miss/evict totals (`serve.cache.*`).
    pub fn metrics_snapshot(&self) -> Metrics {
        let mut m = self.locked_metrics().clone();
        let r = self.engine.cache().results_stats();
        m.inc("serve.cache.results.hits", r.hits);
        m.inc("serve.cache.results.misses", r.misses);
        m.inc("serve.cache.results.evictions", r.evictions);
        if let Some(d) = self.engine.cache().disk_stats() {
            m.inc("serve.cache.disk.hits", d.hits);
            m.inc("serve.cache.disk.misses", d.misses);
            m.inc("serve.cache.disk.writes", d.writes);
            m.inc("serve.cache.disk.corrupt", d.corrupt);
            m.inc("serve.cache.disk.errors", d.errors);
        }
        m
    }
}

const INDEX: &str = "mfhls serve — synthesis as a service\n\
\n\
  GET  /healthz            liveness probe\n\
  GET  /metrics            Prometheus text metrics\n\
  POST /schedule           schedule a DFG\n\
  POST /batch              schedule many jobs in one request\n\
\n\
POST a raw .dfg text body with knobs in the query string\n\
(?alg=mfs&cs=4&limit=mul:2&chain=100&latency=2&style=2&\n\
 weights=1,1,1,1&two_cycle_mul=1&emit=json|text|dot&deadline_ms=N),\n\
or a flat JSON job: {\"benchmark\":\"diffeq\",\"alg\":\"mfs\",\"cs\":4}\n\
(benchmarks: diffeq fir ar ewf facet dct8 bandpass, and memory\n\
 kernels array_fir matvec with _p1/_p4 port variants; or\n\
 \"dfg\":\"...\"). Any other key is a 400.\n\
/batch takes a JSON array of job objects; query-string knobs are\n\
per-batch defaults, each job's keys override them. The answer is one\n\
JSON array, in request order, of the same bodies /schedule would\n\
give (errors inline as {\"error\":...,\"status\":N}).\n";

/// Routes one parsed request to its handler.
pub fn handle(state: &AppState, req: &Request, enqueued: Instant) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") => Response::text(200, INDEX),
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/metrics") => Response::text(200, state.metrics_snapshot().render_prometheus()),
        ("POST", "/schedule") => match parse_job(req) {
            Ok(job) => run_job(state, &job, enqueued),
            Err(message) => Response::error(400, &message),
        },
        ("POST", "/batch") => run_batch(state, req, enqueued),
        (_, "/schedule") | (_, "/batch") | (_, "/healthz") | (_, "/metrics") | (_, "/") => {
            Response::error(405, &format!("{} is not supported here", req.method))
        }
        (_, path) => Response::error(404, &format!("no such endpoint: {path}")),
    }
}

/// A built-in benchmark graph by name.
pub fn benchmark(name: &str) -> Option<Dfg> {
    benchmark_arc(name).map(|dfg| (*dfg).clone())
}

/// The build-once shared instance behind [`benchmark`]. The serving
/// hot path resolves thousands of requests per second against the
/// same few graphs; constructing one costs ~20µs, which at one point
/// dominated the whole warm-hit budget.
fn benchmark_arc(name: &str) -> Option<Arc<Dfg>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<Dfg>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(dfg) = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(name)
    {
        return Some(dfg.clone());
    }
    let dfg = Arc::new(build_benchmark(name)?);
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(name.to_string(), dfg.clone());
    Some(dfg)
}

fn build_benchmark(name: &str) -> Option<Dfg> {
    match name {
        "diffeq" => Some(classic::diffeq()),
        "fir" => Some(classic::fir(16)),
        "ar" => Some(classic::ar_filter()),
        "ewf" => Some(classic::ewf()),
        "facet" => Some(classic::facet_style()),
        "dct8" => Some(classic::dct8()),
        "bandpass" => Some(classic::bandpass()),
        // Memory kernels, with 1/2/4-port bank variants.
        "array_fir" => Some(hls_benchmarks::memory::array_fir(8, 2)),
        "array_fir_p1" => Some(hls_benchmarks::memory::array_fir(8, 1)),
        "array_fir_p4" => Some(hls_benchmarks::memory::array_fir(8, 4)),
        "matvec" => Some(hls_benchmarks::memory::matvec(3, 2)),
        "matvec_p1" => Some(hls_benchmarks::memory::matvec(3, 1)),
        "matvec_p4" => Some(hls_benchmarks::memory::matvec(3, 4)),
        _ => None,
    }
}

/// Resolves the graph a knob set names: inline `"dfg"` text XOR a
/// `"benchmark"` registry entry.
fn dfg_from_knobs(knobs: &BTreeMap<String, JsonValue>) -> Result<Arc<Dfg>, String> {
    match (knobs.get("dfg"), knobs.get("benchmark")) {
        (Some(_), Some(_)) => Err("give either \"dfg\" or \"benchmark\", not both".into()),
        (Some(v), None) => {
            let text = v.as_str().ok_or("\"dfg\" must be a string")?;
            parse_dfg(text).map(Arc::new).map_err(|e| e.to_string())
        }
        (None, Some(v)) => {
            let name = v.as_str().ok_or("\"benchmark\" must be a string")?;
            benchmark_arc(name).ok_or_else(|| format!("unknown benchmark `{name}`"))
        }
        (None, None) => Err("a JSON job needs \"dfg\" or \"benchmark\"".into()),
    }
}

/// The query string as a knob set of string values.
fn query_knobs(req: &Request) -> BTreeMap<String, JsonValue> {
    req.query
        .iter()
        .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
        .collect()
}

/// Parses the request's query string and body into a [`Job`]; the
/// error string becomes the 400 body.
pub fn parse_job(req: &Request) -> Result<Job, String> {
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8".to_string())?;
    // Knobs: query pairs first, JSON keys override.
    let mut knobs = query_knobs(req);
    let dfg = if body.trim_start().starts_with('{') {
        let job = json::parse_flat_object(body).map_err(|e| format!("invalid JSON job: {e}"))?;
        knobs.extend(job);
        dfg_from_knobs(&knobs)?
    } else if body.trim().is_empty() {
        if !knobs.contains_key("benchmark") && !knobs.contains_key("dfg") {
            return Err("empty body: POST a .dfg text or a JSON job".into());
        }
        dfg_from_knobs(&knobs)?
    } else {
        Arc::new(parse_dfg(body).map_err(|e| e.to_string())?)
    };
    job_from_knobs(dfg, &knobs)
}

/// The design-point knobs a job may set, by the names serve accepts;
/// [`DesignPoint::set`] parses and validates each one.
const POINT_KNOBS: [&str; 9] = [
    "alg", "cs", "limit", "pipeline", "chain", "latency", "style", "weights", "label",
];

/// The job keys that are not design-point knobs.
const JOB_KEYS: [&str; 5] = ["emit", "two_cycle_mul", "deadline_ms", "dfg", "benchmark"];

/// Hands one job value to the knob table. Numbers and strings are both
/// text to the table; `null`, and a non-string value for a text knob,
/// leave the knob unset.
fn set_knob(point: &mut DesignPoint, name: &str, value: &JsonValue) -> Result<(), String> {
    let mut digits = [0u8; 20];
    let text: Cow<'_, str> = match value {
        JsonValue::Str(s) => Cow::Borrowed(s),
        JsonValue::Null => return Ok(()),
        _ if !matches!(Knob::lookup(name), Some(k) if k.kind == KnobKind::Int) => return Ok(()),
        JsonValue::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => match value.as_u64() {
            // Integral numbers are spelled on the stack: the warm path
            // parses every request, so knobs must not allocate.
            Some(k) => {
                let unused = {
                    let mut w = &mut digits[..];
                    let _ = std::io::Write::write_fmt(&mut w, format_args!("{k}"));
                    w.len()
                };
                Cow::Borrowed(std::str::from_utf8(&digits[..20 - unused]).unwrap_or_default())
            }
            None => Cow::Owned(n.to_string()),
        },
    };
    point.set(name, &text).map_err(|e| e.to_string())
}

/// Builds a [`Job`] from a resolved graph plus its knob set — the
/// shared back half of [`parse_job`] and the `/batch` item parser.
///
/// A key outside [`POINT_KNOBS`] and [`JOB_KEYS`] is an error: a
/// silently dropped knob would answer a different query than the one
/// asked.
fn job_from_knobs(dfg: Arc<Dfg>, knobs: &BTreeMap<String, JsonValue>) -> Result<Job, String> {
    if let Some(key) = knobs
        .keys()
        .find(|k| !POINT_KNOBS.contains(&k.as_str()) && !JOB_KEYS.contains(&k.as_str()))
    {
        return Err(format!("unknown job key `{key}`"));
    }
    let emit = match knobs.get("emit").and_then(JsonValue::as_str) {
        None | Some("json") => Emit::Json,
        Some("text") => Emit::Text,
        Some("dot") => Emit::Dot,
        Some(other) => return Err(format!("unknown emit form `{other}` (json|text|dot)")),
    };
    // `cs` 0 marks "not given": the table rejects an explicit 0.
    let mut point = DesignPoint::new(Algorithm::Mfs, 0);
    for name in POINT_KNOBS {
        if let Some(value) = knobs.get(name) {
            set_knob(&mut point, name, value)?;
        }
    }
    if point.cs == 0 {
        if emit != Emit::Dot {
            return Err("missing `cs` (the control-step constraint)".into());
        }
        // DOT rendering never schedules, so a placeholder is fine.
        point.cs = 1;
    }
    let two_cycle_mul = match knobs.get("two_cycle_mul") {
        None | Some(JsonValue::Null) => false,
        Some(v) => v.as_bool().ok_or("`two_cycle_mul` must be a boolean")?,
    };
    let spec = point.timing_spec(two_cycle_mul);
    let deadline_ms = match knobs.get("deadline_ms") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("`deadline_ms` must be a non-negative integer")?,
        ),
    };
    let dfg_fp = hls_explore::dfg_fingerprint(&dfg, &spec);
    Ok(Job {
        dfg,
        spec,
        dfg_fp,
        point,
        emit,
        deadline_ms,
    })
}

/// The canonical JSON stats body of a scheduled point (one line,
/// newline-terminated). `mfhls schedule --json` / `synth --json` print
/// exactly this, which is what makes served responses diffable against
/// the CLI.
pub fn point_json(point: &DesignPoint, m: &PointMetrics) -> String {
    let mut s = String::from("{\"label\":\"");
    json::escape_into(&mut s, &point.display_label());
    let _ = write!(
        s,
        "\",\"algorithm\":\"{}\",\"csteps\":{},\"mix\":\"",
        point.algorithm, m.csteps
    );
    json::escape_into(&mut s, &m.mix);
    let _ = write!(
        s,
        "\",\"fu_cost\":{},\"registers\":{},\"reschedules\":{}",
        m.fu_cost, m.registers, m.reschedules
    );
    if !m.mem.is_empty() {
        s.push_str(",\"mem\":[");
        for (i, b) in m.mem.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"bank\":\"");
            json::escape_into(&mut s, &b.bank);
            let _ = write!(s, "\",\"ports\":{},\"peak\":{}}}", b.ports, b.peak);
        }
        s.push(']');
    }
    if let Some(d) = &m.mfsa {
        s.push_str(",\"alus\":\"");
        json::escape_into(&mut s, &d.alus);
        let _ = write!(
            s,
            "\",\"total_cost\":{},\"mux\":{},\"muxin\":{}",
            d.total_cost, d.mux, d.muxin
        );
    }
    s.push_str("}\n");
    s
}

/// The job's effective deadline instant, if it has one: the window
/// opens at `enqueued`, so it covers queue wait + compute, and an
/// overloaded server times requests out instead of silently serving
/// them late.
fn deadline_instant(state: &AppState, job: &Job, enqueued: Instant) -> Option<Instant> {
    job.deadline_ms
        .or(state.default_deadline_ms)
        .map(|ms| enqueued + Duration::from_millis(ms))
}

/// Builds the cancellation token for a job admitted at `enqueued`.
fn deadline_token(deadline: Option<Instant>) -> CancelToken {
    match deadline {
        Some(at) => CancelToken::deadline_at(at),
        None => CancelToken::never(),
    }
}

fn error_response(state: &AppState, message: &str) -> Response {
    if message.starts_with("cancelled") {
        state.inc("serve.jobs.deadline", 1);
        Response::error(504, "deadline exceeded")
    } else {
        Response::error(422, message)
    }
}

/// Runs a parsed job and renders the response.
pub fn run_job(state: &AppState, job: &Job, enqueued: Instant) -> Response {
    state.inc("serve.jobs", 1);
    let deadline = deadline_instant(state, job, enqueued);
    let cancel = deadline_token(deadline);
    let response = match job.emit {
        Emit::Dot => Response::text(200, job.dfg.to_dot()),
        Emit::Json => {
            let mut sink = NullSink;
            let mut metrics = Metrics::new();
            let (outcome, warm) = {
                let mut instr = Instrument::new(&mut sink, &mut metrics);
                state.engine.schedule_point(
                    job.dfg_fp, &job.dfg, &job.spec, &job.point, &cancel, &mut instr,
                )
            };
            state.locked_metrics().merge(&metrics);
            state.inc(
                if warm {
                    "serve.jobs.warm"
                } else {
                    "serve.jobs.cold"
                },
                1,
            );
            match outcome {
                Ok(m) => Response::json(200, point_json(&job.point, &m)),
                Err(e) => error_response(state, &e),
            }
        }
        Emit::Text => {
            // The text form needs the full schedule, which the metrics
            // cache does not keep — run the scheduler directly, through
            // the engine's own checks and structural-pipelining branch.
            let rendered = match job.point.algorithm {
                Algorithm::Mfs | Algorithm::Mfsa => {
                    let mut sink = NullSink;
                    let mut metrics = Metrics::new();
                    let run = hls_explore::run_move_frame(
                        &job.dfg,
                        &job.spec,
                        &job.point,
                        &cancel,
                        &mut Instrument::new(&mut sink, &mut metrics),
                    );
                    state.locked_metrics().merge(&metrics);
                    run.map(|run| render_run(&job.dfg, &job.spec, &run))
                }
                other => Err(format!("emit=text supports alg=mfs|mfsa, not {other}")),
            };
            match rendered {
                Ok(text) => Response::text(200, text),
                Err(e) if e.starts_with("emit=text") => Response::error(400, &e),
                Err(e) => error_response(state, &e),
            }
        }
    };
    response.with_deadline(deadline)
}

/// The `emit=text` body: the schedule table (of the stage-expanded
/// graph for structurally pipelined MFS), plus the data path and cost
/// report for MFSA.
fn render_run(dfg: &Dfg, spec: &TimingSpec, run: &MoveFrameRun) -> String {
    match run {
        MoveFrameRun::Mfs { expanded, outcome } => {
            render_schedule(expanded.as_deref().unwrap_or(dfg), &outcome.schedule, spec)
        }
        MoveFrameRun::Mfsa(out) => format!(
            "{}{}{}\n",
            render_schedule(dfg, &out.schedule, spec),
            out.datapath,
            out.cost
        ),
    }
}

/// The reactor's inline warm path: answers a `POST /schedule`
/// `emit=json` request straight from the memory result tier, with no
/// worker handoff. `None` means "not answerable here" — hand the
/// request to the worker pool, which owns compute, disk I/O, deadline
/// cancellation and panic isolation. The probe never blocks, so the
/// event loop may call it for every parsed request; a cold request
/// pays one redundant parse (~µs) against a compute that costs
/// milliseconds.
pub fn try_warm(state: &AppState, req: &Request, enqueued: Instant) -> Option<Response> {
    if req.method != "POST" || req.path != "/schedule" {
        return None;
    }
    let job = parse_job(req).ok()?;
    if job.emit != Emit::Json {
        return None;
    }
    let outcome = state.engine.peek_point(job.dfg_fp, &job.point)?;
    state.inc("serve.jobs", 1);
    state.inc("serve.jobs.warm", 1);
    state.inc("serve.fastpath.hits", 1);
    state.inc("explore.cache.hit", 1);
    let deadline = deadline_instant(state, &job, enqueued);
    let response = match outcome {
        Ok(m) => Response::json(200, point_json(&job.point, &m)),
        Err(e) => error_response(state, &e),
    };
    Some(response.with_deadline(deadline))
}

/// Most jobs one `/batch` request may carry.
const MAX_BATCH: usize = 256;

/// `POST /batch`: a JSON array of flat job objects, answered as one
/// JSON array in request order. Jobs fan out over the exploration
/// crate's self-scheduling pool; the shared cache still computes each
/// unique point exactly once, and every item's body is byte-identical
/// to what `/schedule` would have answered (so batching is a pure
/// transport optimisation). Per-job failures come back inline as
/// `{"error":...,"status":N}` items; only a malformed batch itself is
/// a request-level 400.
pub fn run_batch(state: &AppState, req: &Request, enqueued: Instant) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(b) => b,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let items = match json::parse_flat_array(body) {
        Ok(items) => items,
        Err(e) => return Response::error(400, &format!("invalid batch body: {e}")),
    };
    if items.is_empty() {
        return Response::error(400, "empty batch: send at least one job object");
    }
    if items.len() > MAX_BATCH {
        return Response::error(
            400,
            &format!("batch of {} exceeds the {MAX_BATCH}-job cap", items.len()),
        );
    }
    state.inc("serve.batch.requests", 1);
    state.inc("serve.batch.jobs", items.len() as u64);
    // Query-string knobs are batch-wide defaults; job keys override.
    let defaults = query_knobs(req);
    let jobs: Vec<Result<Job, String>> = items
        .into_iter()
        .map(|item| {
            let mut knobs = defaults.clone();
            knobs.extend(item);
            let job = dfg_from_knobs(&knobs).and_then(|dfg| job_from_knobs(dfg, &knobs))?;
            if job.emit != Emit::Json {
                return Err("batch jobs support emit=json only".into());
            }
            Ok(job)
        })
        .collect();
    let n = jobs.len();
    let outputs = run_indexed(n, default_threads().min(n), |i| match &jobs[i] {
        Ok(job) => batch_item(&run_job(state, job, enqueued)),
        Err(message) => batch_item(&Response::error(400, message)),
    });
    let mut out = String::with_capacity(outputs.iter().map(String::len).sum::<usize>() + n + 3);
    out.push('[');
    for (i, item) in outputs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push_str("]\n");
    Response::json(200, out)
}

/// One `/batch` response item: the `/schedule` body verbatim (minus
/// its trailing newline) on success, or the error body with the HTTP
/// status it would have carried spliced in.
fn batch_item(response: &Response) -> String {
    let body = String::from_utf8_lossy(&response.body);
    let trimmed = body.trim_end();
    if response.status == 200 {
        return trimmed.to_string();
    }
    match trimmed.strip_suffix('}') {
        Some(head) => format!("{head},\"status\":{}}}", response.status),
        None => format!("{{\"error\":\"internal\",\"status\":{}}}", response.status),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, target: &str, body: &str) -> Request {
        let (path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        Request {
            method: method.into(),
            path: path.into(),
            query: raw_query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn state() -> AppState {
        AppState::new(1024, None)
    }

    const TOY: &str = "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n";

    #[test]
    fn healthz_and_index() {
        let s = state();
        let now = Instant::now();
        let r = handle(&s, &request("GET", "/healthz", ""), now);
        assert_eq!((r.status, r.body.as_slice()), (200, b"ok\n".as_slice()));
        assert_eq!(handle(&s, &request("GET", "/", ""), now).status, 200);
        assert_eq!(handle(&s, &request("GET", "/nope", ""), now).status, 404);
        assert_eq!(handle(&s, &request("PUT", "/healthz", ""), now).status, 405);
    }

    #[test]
    fn schedules_a_dfg_text_body() {
        let s = state();
        let r = handle(&s, &request("POST", "/schedule?cs=2", TOY), Instant::now());
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.starts_with("{\"label\":\"mfs@T2\",\"algorithm\":\"mfs\",\"csteps\":2,"));
        assert!(body.ends_with("}\n"));
    }

    #[test]
    fn schedules_a_benchmark_json_job_and_reuses_the_cache() {
        let s = state();
        let job = r#"{"benchmark":"diffeq","alg":"mfs","cs":4}"#;
        let first = handle(&s, &request("POST", "/schedule", job), Instant::now());
        assert_eq!(first.status, 200);
        let second = handle(&s, &request("POST", "/schedule", job), Instant::now());
        assert_eq!(second.status, 200);
        assert_eq!(first.body, second.body, "repeat requests are identical");
        let m = s.metrics_snapshot();
        assert_eq!(m.counter("serve.jobs.cold"), 1);
        assert_eq!(m.counter("serve.jobs.warm"), 1);
        assert_eq!(m.counter("serve.cache.results.hits"), 1);
        assert_eq!(m.counter("serve.cache.results.misses"), 1);
    }

    #[test]
    fn malformed_inputs_are_400() {
        let s = state();
        let now = Instant::now();
        for (target, body) in [
            ("/schedule?cs=2", "input a\nop p = mul(a, missing)\n"),
            ("/schedule?cs=2", "op p = mul(a\n"),
            ("/schedule?cs=2", "{\"benchmark\":\"nope\",\"cs\":2}"),
            ("/schedule?cs=2", "{\"cs\":2}"),
            ("/schedule?cs=2", "{broken json"),
            ("/schedule", TOY),                          // missing cs
            ("/schedule?cs=0", TOY),                     // zero cs
            ("/schedule?cs=2&alg=bogus", TOY),           // unknown algorithm
            ("/schedule?cs=2&limit=mul", TOY),           // malformed limit
            ("/schedule?cs=2&emit=yaml", TOY),           // unknown emit
            ("/schedule?cs=2&weights=1,2", TOY),         // short weights
            ("/schedule?cs=2&chain=0", TOY),             // zero clock period
            ("/schedule?cs=2&chain=0&emit=text", TOY),   // ... on the uncached path too
            ("/schedule?cs=2&latency=0", TOY),           // zero latency
            ("/schedule?cs=2&latency=0&alg=list", TOY),  // ... for every algorithm
            ("/schedule?cs=2&latency=0&emit=text", TOY), // ... and on the uncached path
            ("/schedule?cs=2&limit=mul:0", TOY),         // zero unit budget
            ("/schedule?cs=2&pipeline=bogus", TOY),      // unknown pipelined op
            ("/schedule?cs=2&style=7", TOY),             // unknown style
            ("/schedule?cs=2&csx=4", TOY),               // unknown key
            ("/schedule?cs=2&deadline_ms=soon", TOY),    // bad deadline
        ] {
            let r = handle(&s, &request("POST", target, body), now);
            assert_eq!(r.status, 400, "{target} {body:?}");
            assert!(r.body.starts_with(b"{\"error\":\""), "{target}");
        }
    }

    #[test]
    fn infeasible_schedules_are_422() {
        let s = state();
        let r = handle(
            &s,
            &request("POST", "/schedule?cs=1", TOY), // below the critical path
            Instant::now(),
        );
        assert_eq!(r.status, 422, "{:?}", String::from_utf8_lossy(&r.body));
    }

    #[test]
    fn expired_deadlines_are_504_and_not_cached() {
        let s = state();
        let job = r#"{"benchmark":"diffeq","cs":4,"deadline_ms":0}"#;
        let r = handle(&s, &request("POST", "/schedule", job), Instant::now());
        assert_eq!(r.status, 504);
        // The poisoned result must not be served to a live request.
        let ok = handle(
            &s,
            &request("POST", "/schedule", r#"{"benchmark":"diffeq","cs":4}"#),
            Instant::now(),
        );
        assert_eq!(ok.status, 200);
        assert_eq!(s.metrics_snapshot().counter("serve.jobs.deadline"), 1);
    }

    #[test]
    fn emit_text_and_dot() {
        let s = state();
        let now = Instant::now();
        let text = handle(&s, &request("POST", "/schedule?cs=2&emit=text", TOY), now);
        assert_eq!(text.status, 200);
        assert!(String::from_utf8(text.body).unwrap().contains("step"));
        let synth = handle(
            &s,
            &request("POST", "/schedule?cs=3&alg=mfsa&emit=text", TOY),
            now,
        );
        assert_eq!(synth.status, 200);
        // Structural pipelining schedules the stage-expanded graph, on
        // the text path as on the JSON path.
        let pipelined = handle(
            &s,
            &request(
                "POST",
                "/schedule?cs=4&two_cycle_mul=1&pipeline=mul&emit=text",
                TOY,
            ),
            now,
        );
        assert_eq!(pipelined.status, 200);
        let pipelined = String::from_utf8(pipelined.body).unwrap();
        assert!(pipelined.contains("p.s2"), "{pipelined}");
        let json = handle(
            &s,
            &request("POST", "/schedule?cs=4&two_cycle_mul=1&pipeline=mul", TOY),
            now,
        );
        assert_eq!(json.status, 200);
        let dot = handle(&s, &request("POST", "/schedule?emit=dot", TOY), now);
        assert_eq!(dot.status, 200);
        assert!(String::from_utf8(dot.body).unwrap().starts_with("digraph"));
        let bad = handle(
            &s,
            &request("POST", "/schedule?cs=2&alg=list&emit=text", TOY),
            now,
        );
        assert_eq!(bad.status, 400);
        // The uncached text path must feed the shared registry too:
        // /metrics would otherwise undercount emit=text scheduler runs.
        let m = s.metrics_snapshot();
        assert!(m.counter("mfs.frames_computed") >= 1, "{m:?}");
        assert!(m.counter("mfsa.moves_committed") >= 1, "{m:?}");
    }

    #[test]
    fn mfsa_jobs_carry_the_datapath_detail() {
        let s = state();
        let r = handle(
            &s,
            &request("POST", "/schedule?cs=3&alg=mfsa", TOY),
            Instant::now(),
        );
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"alus\":\""), "{body}");
        assert!(body.contains("\"total_cost\":"), "{body}");
    }

    #[test]
    fn memory_jobs_report_per_bank_pressure() {
        let s = state();
        let now = Instant::now();
        let job = r#"{"benchmark":"array_fir","alg":"mfsa","cs":28}"#;
        let r = handle(&s, &request("POST", "/schedule", job), now);
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let body = String::from_utf8(r.body).unwrap();
        assert!(
            body.contains("\"mem\":[{\"bank\":\"coeff_ram\",\"ports\":2,\"peak\":"),
            "{body}"
        );
        // A raw .dfg with banked arrays reports pressure too.
        let dfg = "input i, v\narray a[8] @ ram(ports=1)\nstore a[i] = v\nload x = a[i]\n";
        let r = handle(&s, &request("POST", "/schedule?cs=4", dfg), now);
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let body = String::from_utf8(r.body).unwrap();
        assert!(
            body.contains("\"mem\":[{\"bank\":\"ram\",\"ports\":1,"),
            "{body}"
        );
        // Memory-free designs keep the historical shape: no "mem" key.
        let r = handle(&s, &request("POST", "/schedule?cs=2", TOY), now);
        assert_eq!(r.status, 200);
        let body = String::from_utf8(r.body).unwrap();
        assert!(!body.contains("\"mem\":"), "{body}");
    }

    #[test]
    fn malformed_memory_inputs_are_400_with_typed_messages() {
        let s = state();
        let now = Instant::now();
        for (text, needle) in [
            (
                "input v\narray a[4] @ m(ports=1)\nstore a[9] = v\n",
                "out of range",
            ),
            (
                "input i\narray a[4] @ m(ports=1)\nload v = nope[i]\n",
                "unknown array",
            ),
            (
                "input i, v\narray a[4] @ ghost\nstore a[i] = v\n",
                "unknown bank",
            ),
            (
                "input i\nbank ram(ports=0)\narray a[4] @ ram\nload v = a[i]\n",
                "port",
            ),
        ] {
            let r = handle(&s, &request("POST", "/schedule?cs=4", text), now);
            assert_eq!(r.status, 400, "{text:?}");
            let body = String::from_utf8(r.body).unwrap();
            assert!(body.starts_with("{\"error\":\""), "{body}");
            assert!(body.contains(needle), "{body} should mention {needle:?}");
        }
    }

    #[test]
    fn unknown_job_keys_are_400_naming_the_key() {
        let s = state();
        let now = Instant::now();
        let error = |r: Response| {
            assert_eq!(r.status, 400);
            String::from_utf8(r.body).unwrap()
        };
        // The query string, on both the engine and the text path.
        for (target, key) in [
            ("/schedule?cs=4&iterate=2", "iterate"),
            ("/schedule?cs=4&csx=4", "csx"),
            ("/schedule?cs=4&iterate=2&emit=text", "iterate"),
        ] {
            let body = error(handle(&s, &request("POST", target, TOY), now));
            assert!(body.contains(&format!("unknown job key `{key}`")), "{body}");
        }
        // A JSON job, whether its graph is named or inline.
        for job in [
            r#"{"benchmark":"diffeq","cs":8,"iterate":3}"#,
            r#"{"dfg":"input a\nop p = add(a, a)","cs":2,"algorithm":"mfs"}"#,
        ] {
            let body = error(handle(&s, &request("POST", "/schedule", job), now));
            assert!(body.contains("unknown job key"), "{job}: {body}");
        }
        // /batch reports it inline and still answers the other items.
        let batch = handle(
            &s,
            &request(
                "POST",
                "/batch?benchmark=diffeq",
                r#"[{"cs":4},{"cs":4,"iterate":1}]"#,
            ),
            now,
        );
        assert_eq!(batch.status, 200);
        let body = String::from_utf8(batch.body).unwrap();
        assert!(
            body.contains(r#"{"error":"unknown job key `iterate`","status":400}"#),
            "{body}"
        );
        assert_eq!(body.matches("\"csteps\"").count(), 1, "{body}");
        // A batch-wide default is checked for every item.
        let batch = handle(
            &s,
            &request("POST", "/batch?benchmark=diffeq&iterate=1", r#"[{"cs":4}]"#),
            now,
        );
        let body = String::from_utf8(batch.body).unwrap();
        assert!(body.contains("unknown job key `iterate`"), "{body}");
        // Every accepted key still parses.
        let ok = handle(
            &s,
            &request(
                "POST",
                "/schedule?limit=mul:2&chain=100&style=1&weights=1,1,1,1&label=x&two_cycle_mul=false&deadline_ms=60000",
                r#"{"benchmark":"diffeq","alg":"mfs","cs":8,"emit":"json"}"#,
            ),
            now,
        );
        assert_eq!(ok.status, 200, "{:?}", String::from_utf8_lossy(&ok.body));
    }

    #[test]
    fn batch_matches_schedule_item_for_item_in_request_order() {
        let s = state();
        let now = Instant::now();
        let single = |job: &str| {
            let r = handle(&s, &request("POST", "/schedule", job), now);
            assert_eq!(r.status, 200, "{job}");
            String::from_utf8(r.body).unwrap().trim_end().to_string()
        };
        let cs4 = single(r#"{"benchmark":"diffeq","alg":"mfs","cs":4}"#);
        let cs6 = single(r#"{"benchmark":"diffeq","alg":"mfs","cs":6}"#);
        // Query knobs are defaults; items override or extend them. The
        // batch interleaves successes with per-item failures.
        let batch = handle(
            &s,
            &request(
                "POST",
                "/batch?alg=mfs&benchmark=diffeq",
                r#"[{"cs":4},{"cs":6},{"benchmark":"nope","cs":4},{"cs":1},{"benchmark":"ewf","alg":"mfsa","cs":18,"deadline_ms":0},{"cs":4,"emit":"text"}]"#,
            ),
            now,
        );
        assert_eq!(batch.status, 200);
        let body = String::from_utf8(batch.body).unwrap();
        assert!(body.starts_with('[') && body.ends_with("]\n"), "{body}");
        // Success items are byte-identical to /schedule bodies, in
        // request order; failures carry their would-be status inline.
        let at = |needle: &str| {
            body.find(needle)
                .unwrap_or_else(|| panic!("{needle} missing"))
        };
        assert!(body.contains(&cs4), "{body}");
        assert!(body.contains(&cs6), "{body}");
        assert!(at(&cs4) < at(&cs6), "order drifted: {body}");
        for (needle, count) in [
            ("\"status\":400", 2),
            ("\"status\":422", 1),
            ("\"status\":504", 1),
        ] {
            assert_eq!(body.matches(needle).count(), count, "{body}");
        }
        assert!(at(&cs6) < at("\"status\":400"), "order drifted: {body}");
        let m = s.metrics_snapshot();
        assert_eq!(m.counter("serve.batch.requests"), 1);
        assert_eq!(m.counter("serve.batch.jobs"), 6);
        // The cs=4/cs=6 jobs were computed by the /schedule warm-up;
        // inside the batch they are pure cache hits. The only new
        // computes are the infeasible cs=1 item and the (cancelled,
        // forgotten) deadline item.
        assert_eq!(m.counter("serve.cache.results.misses"), 4);
    }

    #[test]
    fn malformed_batches_are_request_level_400() {
        let s = state();
        let now = Instant::now();
        for body in ["", "{}", "[", "[{},]", "not json", "[]"] {
            let r = handle(&s, &request("POST", "/batch", body), now);
            assert_eq!(r.status, 400, "{body:?}");
        }
        let oversized = format!("[{}]", vec!["{}"; 257].join(","));
        let r = handle(&s, &request("POST", "/batch", &oversized), now);
        assert_eq!(r.status, 400);
        assert!(
            String::from_utf8(r.body).unwrap().contains("cap"),
            "cap error names the cap"
        );
        assert_eq!(handle(&s, &request("GET", "/batch", ""), now).status, 405);
    }

    #[test]
    fn metrics_endpoint_renders_prometheus_text() {
        let s = state();
        let now = Instant::now();
        let _ = handle(&s, &request("POST", "/schedule?cs=2", TOY), now);
        let m = handle(&s, &request("GET", "/metrics", ""), now);
        assert_eq!(m.status, 200);
        let text = String::from_utf8(m.body).unwrap();
        assert!(text.contains("# TYPE serve_jobs counter"), "{text}");
        assert!(text.contains("serve_cache_results_misses 1"), "{text}");
        // Latency histograms render in full exposition form. The
        // request-level serve.* histograms are recorded by the daemon's
        // worker loop, not by `handle` directly, so the scheduler-phase
        // histograms stand in here; the integration tests assert the
        // serve_latency_* families end to end.
        assert!(
            text.contains("# TYPE phase_mfs_move_loop_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("phase_mfs_move_loop_ns_bucket{le=\"+Inf\"} "),
            "{text}"
        );
        assert!(text.contains("phase_mfs_move_loop_ns_sum "), "{text}");
        assert!(text.contains("phase_mfs_move_loop_ns_count "), "{text}");
    }
}
