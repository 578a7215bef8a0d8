//! The moveframe-hls benchmark: the synth and schedule pipelines and a
//! served request, timed end to end on four workloads, with a traced run
//! that breaks each one down by layer. See `README.md` beside this file.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!           [--quick] [--self-check]
//! ```
//!
//! Each workload runs in a child process of its own (this program
//! re-executed), so memory and warm state never leak between them. The
//! last line of standard output is one JSON result object.

mod affinity;
mod client;
mod pipeline;
mod report;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use report::{grouped_percentile, median, percentile, Metric};
use workloads::{Run, Settings, NAMES};

/// The end-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("p1_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("qor_area", "area"),
];

/// The per-layer metrics, printed by every traced run (zero where a
/// workload does not reach the layer).
const PER_LAYER: [(&str, &str); 37] = [
    ("dfg.parse_ms", "ms"),
    ("dfg.parse_nodes_per_ms", "nodes/ms"),
    ("core.mfs.frames_ms", "ms"),
    ("core.mfs.priority_ms", "ms"),
    ("core.mfs.move_loop_ms", "ms"),
    ("core.mfs.energy_evals", "count"),
    ("core.mfs.frames_computed", "count"),
    ("core.mfs.local_reschedules", "count"),
    ("core.mfsa.frames_ms", "ms"),
    ("core.mfsa.priority_ms", "ms"),
    ("core.mfsa.move_loop_ms", "ms"),
    ("core.mfsa.energy_evals", "count"),
    ("core.mfsa.bound_evals", "count"),
    ("core.mfsa.prune_ratio", "ratio"),
    ("rtl.datapath_ms", "ms"),
    ("rtl.verify_ms", "ms"),
    ("schedule.verify_ms", "ms"),
    ("mem.port_safety_ms", "ms"),
    ("control.controller_ms", "ms"),
    ("control.verify_ms", "ms"),
    ("control.verilog_ms", "ms"),
    ("control.verilog_kb", "KiB"),
    ("sim.equivalence_ms", "ms"),
    ("sim.vectors", "count"),
    ("explore.cache.hit_ratio", "ratio"),
    ("explore.frames.hit_ratio", "ratio"),
    ("explore.cache.evictions", "count"),
    ("explore.cache.disk_writes", "count"),
    ("serve.request_mean_ms", "ms"),
    ("serve.queue_wait_mean_ms", "ms"),
    ("serve.compute_mean_ms", "ms"),
    ("serve.outside_mean_ms", "ms"),
    ("serve.fastpath_ratio", "ratio"),
    ("serve.keepalive_reused", "count"),
    ("serve.non200", "count"),
    ("bench.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Spans written to a trace file; aggregates cover every span.
const TRACE_FILE_SPANS: usize = 50_000;

/// Fresh processes whose set-up `setup_s` is the median of, counting
/// the workload's own.
const SETUP_SAMPLES: usize = 11;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    self_check: bool,
    child: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        self_check: false,
        child: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be a number")?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--self-check" => args.self_check = true,
            "--child" => args.child = true,
            "--setup-only" => args.setup_only = true,
            "-h" | "--help" => {
                return Err(format!(
                    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--self-check]\nworkloads: {}",
                    NAMES.join(", ")
                ))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(w) = &args.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (one of: {})",
                NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return self_check();
    }
    if args.setup_only {
        return setup_only(&args);
    }
    if args.child {
        return child(&args);
    }
    parent(&args)
}

/// Runs this program again with `mode` arguments plus the shared seed,
/// duration and scale, waits for it, and returns its standard output.
fn rerun(args: &Args, mode: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(mode)
        .args(["--seed", &args.seed.to_string()])
        .stderr(Stdio::inherit());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.quick {
        cmd.arg("--quick");
    }
    let what = mode.join(" ");
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start `{what}`: {e}"))?;
    if !out.status.success() {
        return Err(format!("`{what}` failed ({})", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Runs each requested workload in a fresh child process and relays its
/// report; the last relayed line is the last workload's result.
fn parent(args: &Args) -> ExitCode {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let trace = if args.trace { "1" } else { "0" };
    let mut all_correct = true;
    let mut lines = Vec::new();
    for name in names {
        let text = match rerun(args, &["--child", "--workload", name, "--trace", trace]) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let result = text.lines().last().unwrap_or("");
        if !result.starts_with("{\"correct\": true,") {
            all_correct = false;
        }
        lines.push(text);
    }
    let mut stdout = std::io::stdout().lock();
    for text in &lines {
        let _ = stdout.write_all(text.as_bytes());
    }
    let _ = stdout.flush();
    if args.quick && !all_correct {
        eprintln!("quick run: a check failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn settings(args: &Args) -> Settings {
    let default_seconds = if args.quick { 1.0 } else { 20.0 };
    Settings {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds),
        trace: args.trace,
        quick: args.quick,
    }
}

/// Times one set-up of the workload in this fresh process and prints
/// the seconds.
fn setup_only(args: &Args) -> ExitCode {
    let name = args
        .workload
        .as_deref()
        .expect("the caller names the workload");
    match workloads::setup_once(name, &settings(args)) {
        Ok(secs) => {
            println!("{secs}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Set-up times of `n` fresh processes, each generating the set-up
/// inputs and setting up once.
fn fresh_setups(name: &str, args: &Args, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            rerun(args, &["--setup-only", "--workload", name])?
                .trim()
                .parse()
                .map_err(|_| "a set-up process printed no time".to_string())
        })
        .collect()
}

fn child(args: &Args) -> ExitCode {
    let name = args
        .workload
        .as_deref()
        .expect("the parent names the workload");
    let settings = settings(args);
    // Set-up is timed in fresh processes, so lazy initialisation and
    // daemon start-up count every time. Half of them run before the
    // timed window and half after it: this host has slow stretches of
    // several seconds, and samples taken back to back would all fall in
    // one. The traced run reports no set-up time.
    let extra = match (settings.trace, settings.quick) {
        (true, _) => 0,
        (false, true) => 1,
        (false, false) => SETUP_SAMPLES - 1,
    };
    let before = extra.div_ceil(2);
    let mut extra_setups = match fresh_setups(name, args, before) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut baseline_kb = None;
    let mut hwm_reset = false;
    let mut ready = || {
        baseline_kb = report::anon_kb();
        hwm_reset = report::reset_peak_rss();
    };
    let mut run = match workloads::run(name, &settings, &mut ready) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match fresh_setups(name, args, extra - before) {
        Ok(v) => extra_setups.extend(v),
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    run.setup_s.extend(extra_setups);
    print_report(name, &settings, &run, baseline_kb, hwm_reset);
    if settings.trace {
        if let Some(t) = &run.trace {
            let dir = Path::new("target/benchmark");
            let path = dir.join(format!("{name}.trace.json"));
            let spans = &t.spans()[..t.spans().len().min(TRACE_FILE_SPANS)];
            match std::fs::create_dir_all(dir)
                .and_then(|_| pipeline::write_chrome_trace(&path, spans))
            {
                Ok(()) => println!(
                    "trace: {} ({} of {} spans)",
                    path.display(),
                    spans.len(),
                    t.spans().len()
                ),
                Err(e) => {
                    eprintln!("{}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let metrics: Vec<Metric> = if settings.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: run.layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    } else {
        end_to_end(&run, baseline_kb)
    };
    let correct = run.failed == 0 && run.attempted > 0;
    println!(
        "{}",
        report::result_json(correct, run.attempted, run.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// Resident anonymous memory the workload added once its inputs existed,
/// in MiB: its peak, read at the end of timing, minus the amount at that
/// moment.
fn peak_rss_mb(run: &Run, baseline_kb: Option<u64>) -> f64 {
    run.peak_anon_kb
        .unwrap_or(0)
        .saturating_sub(baseline_kb.unwrap_or(0)) as f64
        / 1024.0
}

fn end_to_end(run: &Run, baseline_kb: Option<u64>) -> Vec<Metric> {
    let value = |name: &str| match name {
        "p1_ms" => grouped_percentile(&run.samples_ns, 0.01),
        "setup_s" => median(&run.setup_s),
        "peak_rss_mb" => peak_rss_mb(run, baseline_kb),
        "qor_area" => run.qor,
        _ => unreachable!("fixed metric table"),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect()
}

fn print_report(name: &str, s: &Settings, run: &Run, baseline_kb: Option<u64>, hwm_reset: bool) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {name}: seed {}, {} s, trace {}, available_parallelism {nproc}, commit {}",
        s.seed,
        s.seconds,
        u8::from(s.trace),
        report::git_commit()
    );
    println!("  inputs: {}", run.describe);
    println!(
        "  checked: {} attempted, {} failed",
        run.attempted, run.failed
    );
    for e in &run.errors {
        println!("  failure: {e}");
    }
    for n in &run.notes {
        println!("  note: {n}");
    }
    let mut sorted: Vec<u64> = run.samples_ns.concat();
    sorted.sort_unstable();
    let n = sorted.len();
    let ms = |q: f64| percentile(&sorted, q) as f64 / 1e6;
    let groups = run.samples_ns.len();
    println!(
        "  p1_ms {:.4} ms, p10 {:.4} ms, p50 {:.4} ms ({n} samples{}{})",
        grouped_percentile(&run.samples_ns, 0.01),
        grouped_percentile(&run.samples_ns, 0.1),
        grouped_percentile(&run.samples_ns, 0.5),
        if groups > 1 {
            format!(
                " in {groups} groups, each group's percentile averaged; group medians {:?} ms",
                run.samples_ns
                    .iter()
                    .map(|g| (grouped_percentile(std::slice::from_ref(g), 0.5) * 1e3).round() / 1e3)
                    .collect::<Vec<_>>()
            )
        } else {
            String::new()
        },
        if run.dropped_samples > 0 {
            format!(", {} more did not fit the buffer", run.dropped_samples)
        } else {
            String::new()
        }
    );
    println!(
        "  not gated: p99 {:.4} ms{}, min {:.4} ms over all samples, throughput {:.2} 1/s ({} items in {:.3} s)",
        ms(0.99),
        if n < 100 { " (the maximum: under 100 samples)" } else { "" },
        ms(0.0),
        run.items as f64 / run.wall_s.max(f64::MIN_POSITIVE),
        run.items,
        run.wall_s
    );
    println!(
        "  setup_s {:.6} s (median of {} fresh-process set-ups: {:?})",
        median(&run.setup_s),
        run.setup_s.len(),
        run.setup_s
            .iter()
            .map(|v| (v * 1e6).round() / 1e6)
            .collect::<Vec<_>>()
    );
    println!(
        "  peak_rss_mb {:.3} MiB (1 sample: anonymous memory at the peak {:.3} MiB minus {:.3} MiB once inputs existed; watermark reset {})",
        peak_rss_mb(run, baseline_kb),
        run.peak_anon_kb.unwrap_or(0) as f64 / 1024.0,
        baseline_kb.unwrap_or(0) as f64 / 1024.0,
        if hwm_reset { "yes" } else { "no" }
    );
    println!(
        "  qor_area {:.3} area (mean functional-unit area of {} design runs)",
        run.qor, run.qor_runs
    );
    let traced: usize = run.traced_ns.iter().map(Vec::len).sum();
    if traced > 0 {
        println!("  traced samples: {traced} (alternating with {n} untraced)");
    }
    if s.trace {
        for (name, unit) in PER_LAYER {
            if let Some(v) = run.layers.get(name) {
                println!("  {name} {v:.6} {unit}");
            }
        }
    }
}

/// Injects one fault of each kind; succeeds only if every one is counted.
fn self_check() -> ExitCode {
    let results = workloads::self_check();
    let mut ok = true;
    for (case, held) in &results {
        println!(
            "self-check: {case}: {}",
            if *held { "ok" } else { "MISSED" }
        );
        ok &= held;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
