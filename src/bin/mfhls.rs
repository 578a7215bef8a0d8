//! `mfhls` — the moveframe-hls command-line front end.
//!
//! Subcommands: `info`, `schedule` (MFS), `synth` (MFSA down to RTL),
//! `explore`, `profile` and `serve`. `mfhls help` lists them and
//! `mfhls help <subcommand>` prints that subcommand's flags; the flag
//! table lives in `mfhls/args.rs`, and the design-point flags
//! (`--cs`, `--limit`, `--chain`, …) take their syntax and help from
//! the knob table of `hls-explore`.
//!
//! Reads the textual DFG format (see `hls-dfg`) or generates a
//! workload (`gen:OPS`, `gen:clustered:OPS`), schedules with MFS or
//! synthesises with MFSA against the built-in NCR-like library, and
//! prints schedules, data paths, cost reports, microcode or Verilog.

use std::process::ExitCode;

use moveframe_hls::control::{emit_testbench, emit_verilog};
use moveframe_hls::explore::{dfg_fingerprint, run_move_frame, timing_spec};
use moveframe_hls::prelude::*;

#[path = "mfhls/args.rs"]
mod args;

use args::{parse_args, usage, usage_for, Command, Telemetry, SUBCOMMANDS};

/// Control-step slack `mfhls profile` adds above the critical path when
/// `--cs` is omitted — the same margin the `core_scaling` benchmark
/// uses, so a default profile observes the benchmark's frame widths.
const PROFILE_SLACK: u32 = 8;

/// Loads the INPUT of every subcommand but `serve`: a `.dfg` file,
/// `gen:OPS` for the canonical scaling workload of roughly OPS
/// operations (the same graphs `BENCH_core.json` measures), or
/// `gen:clustered:OPS` for the canonical clustered workload of
/// weakly-coupled regions.
fn load_design(file: &str) -> Result<Dfg, String> {
    let parse_ops = |ops: &str| -> Result<usize, String> {
        ops.parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("gen: needs a positive op count, got `{file}`"))
    };
    match file.strip_prefix("gen:") {
        Some(rest) => match rest.strip_prefix("clustered:") {
            Some(ops) => Ok(moveframe_hls::benchmarks::generate::generate_clustered(
                &moveframe_hls::benchmarks::generate::clustered_workload(parse_ops(ops)?),
            )),
            None => Ok(moveframe_hls::benchmarks::generate::generate(
                &moveframe_hls::benchmarks::generate::scaling_workload(parse_ops(rest)?),
            )),
        },
        None => {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            parse_dfg(&text).map_err(|e| format!("{file}: {e}"))
        }
    }
}

fn run(command: Command) -> Result<(), String> {
    match command {
        Command::Help { topic } => match topic {
            None => {
                println!("{}", usage());
                Ok(())
            }
            Some(sub) => match usage_for(&sub) {
                Some(text) => {
                    println!("{text}");
                    Ok(())
                }
                None => Err(format!(
                    "no help for `{sub}`; subcommands: {}",
                    SUBCOMMANDS.join(", ")
                )),
            },
        },
        Command::Info { file, dot } => {
            let dfg = load_design(&file)?;
            let spec = TimingSpec::uniform_single_cycle();
            let cp = CriticalPath::compute(&dfg, &spec);
            println!(
                "{}: {} operation(s), {} signal(s)",
                dfg.name(),
                dfg.node_count(),
                dfg.signal_count()
            );
            println!("operator mix: {}", OpMix::of_graph(&dfg));
            for bank in dfg.memory().banks() {
                let arrays: Vec<String> = dfg
                    .memory()
                    .arrays_in_bank(bank.id())
                    .map(|a| format!("{}[{}]", a.name(), a.size()))
                    .collect();
                println!(
                    "memory bank {}: {} port(s), arrays: {}",
                    bank.name(),
                    bank.ports(),
                    arrays.join(", ")
                );
            }
            println!(
                "critical path: {} control step(s) (single-cycle)",
                cp.steps()
            );
            let cp2 = CriticalPath::compute(&dfg, &TimingSpec::two_cycle_multiply());
            println!(
                "critical path: {} control step(s) (2-cycle multiply)",
                cp2.steps()
            );
            if dot {
                println!("\n{}", dfg.to_dot());
            }
            Ok(())
        }
        Command::Schedule {
            file,
            point,
            resource,
            two_cycle_mul,
            json,
            svg,
            tel,
        } => {
            let dfg = load_design(&file)?;
            let spec = point.timing_spec(two_cycle_mul);
            if json {
                if resource {
                    return Err(
                        "--json supports time-constrained scheduling; drop --resource".into(),
                    );
                }
                if svg.is_some() {
                    return Err("--json and --svg are mutually exclusive".into());
                }
                return run_point_json(&dfg, &spec, &point, &tel);
            }
            let config = if resource {
                point.mfs_resource_config()
            } else {
                point.mfs_config(&CancelToken::never())
            };
            let opts = VerifyOptions {
                clock: point.clock_period(),
                latency: point.latency,
            };
            let mut mem = MemorySink::new();
            let mut null = NullSink;
            let mut metrics = Metrics::new();
            let (outcome, violations) = {
                let sink = tel.sink(&mut mem, &mut null);
                let mut instr = Instrument::new(sink, &mut metrics);
                let outcome = mfs::schedule_traced(&dfg, &spec, &config, &mut instr)
                    .map_err(|e| e.to_string())?;
                let violations = verify_traced(&dfg, &outcome.schedule, &spec, opts, &mut instr);
                if tel.verbose {
                    let stats =
                        ScheduleStats::compute_traced(&dfg, &outcome.schedule, &spec, &mut instr);
                    eprintln!(
                        "stats: peak concurrency {}, imbalance {:.2}",
                        stats.peak_concurrency(),
                        stats.imbalance()
                    );
                }
                (outcome, violations)
            };
            if !tel.quiet {
                print!("{}", render_schedule(&dfg, &outcome.schedule, &spec));
            }
            if let Some(path) = svg {
                let image = moveframe_hls::schedule::render_svg(&dfg, &outcome.schedule, &spec);
                std::fs::write(&path, image).map_err(|e| format!("cannot write {path}: {e}"))?;
                if !tel.quiet {
                    println!("wrote {path}");
                }
            }
            finish_telemetry(&tel, mem.events(), &metrics)?;
            if violations.is_empty() {
                if !tel.quiet {
                    println!(
                        "verified: ok ({} local rescheduling(s))",
                        outcome.reschedule_count
                    );
                }
                Ok(())
            } else {
                Err(format!(
                    "internal error: schedule failed verification: {violations:?}"
                ))
            }
        }
        Command::Synth {
            file,
            point,
            lib,
            two_cycle_mul,
            json,
            microcode,
            verilog,
            testbench,
            check,
            svg,
            vcd,
            tel,
        } => {
            let dfg = load_design(&file)?;
            let spec = point.timing_spec(two_cycle_mul);
            if json {
                if lib.is_some()
                    || microcode
                    || verilog
                    || testbench
                    || check
                    || svg.is_some()
                    || vcd.is_some()
                {
                    return Err(
                        "--json prints the stats summary only; drop --lib/--microcode/--verilog/--testbench/--check/--svg/--vcd"
                            .into(),
                    );
                }
                return run_point_json(&dfg, &spec, &point, &tel);
            }
            let config = point.mfsa_config(load_library(lib)?, &CancelToken::never());
            let mut mem = MemorySink::new();
            let mut null = NullSink;
            let mut metrics = Metrics::new();
            let out = {
                let sink = tel.sink(&mut mem, &mut null);
                let mut instr = Instrument::new(sink, &mut metrics);
                let out = mfsa::schedule_traced(&dfg, &spec, &config, &mut instr)
                    .map_err(|e| e.to_string())?;
                if tel.verbose {
                    let stats =
                        ScheduleStats::compute_traced(&dfg, &out.schedule, &spec, &mut instr);
                    eprintln!(
                        "stats: peak concurrency {}, imbalance {:.2}",
                        stats.peak_concurrency(),
                        stats.imbalance()
                    );
                }
                out
            };
            if !tel.quiet {
                print!("{}", render_schedule(&dfg, &out.schedule, &spec));
                print!("{}", out.datapath);
                println!("{}", out.cost);
            }
            let controller = Controller::generate(&dfg, &out.schedule, &out.datapath, &spec)
                .map_err(|e| e.to_string())?;
            if microcode {
                print!("\n{}", controller.render(&dfg));
            }
            if check {
                let mut worst = 0usize;
                for seed in 0..8u64 {
                    let inputs = random_inputs(&dfg, seed);
                    let mismatches =
                        check_equivalence(&dfg, &out.schedule, &out.datapath, &spec, &inputs)
                            .map_err(|e| e.to_string())?;
                    worst = worst.max(mismatches.len());
                }
                if worst == 0 {
                    println!("equivalence check: ok (8 random vectors)");
                } else {
                    return Err(format!(
                        "equivalence check FAILED: {worst} mismatching op(s)"
                    ));
                }
            }
            if verilog {
                let v = emit_verilog(&dfg, &out.schedule, &out.datapath, &controller, &spec)
                    .map_err(|e| e.to_string())?;
                println!("\n{v}");
            }
            if testbench {
                let inputs = random_inputs(&dfg, 0);
                let values = interpret(&dfg, &inputs).map_err(|e| e.to_string())?;
                let expected: std::collections::BTreeMap<_, _> = dfg
                    .signals()
                    .filter(|(sid, s)| {
                        matches!(s.source(), moveframe_hls::dfg::SignalSource::Node(_))
                            && dfg.consumers(*sid).is_empty()
                    })
                    .map(|(sid, _)| (sid, values[&sid]))
                    .collect();
                let tb = emit_testbench(&dfg, &inputs, &expected).map_err(|e| e.to_string())?;
                println!("\n{tb}");
            }
            if let Some(path) = svg {
                let image = moveframe_hls::schedule::render_svg(&dfg, &out.schedule, &spec);
                std::fs::write(&path, image).map_err(|e| format!("cannot write {path}: {e}"))?;
                if !tel.quiet {
                    println!("wrote {path}");
                }
            }
            if let Some(path) = vcd {
                let inputs = random_inputs(&dfg, 0);
                let sim = simulate(
                    &dfg,
                    &out.schedule,
                    &out.datapath,
                    &controller,
                    &spec,
                    &inputs,
                )
                .map_err(|e| e.to_string())?;
                let dump = moveframe_hls::sim::write_vcd(&dfg, &out.datapath, &sim);
                std::fs::write(&path, dump).map_err(|e| format!("cannot write {path}: {e}"))?;
                if !tel.quiet {
                    println!("wrote {path} (inputs from seed 0)");
                }
            }
            finish_telemetry(&tel, mem.events(), &metrics)?;
            Ok(())
        }
        Command::Explore {
            file,
            grid,
            points,
            two_cycle_mul,
            threads,
            emit,
            tel,
        } => {
            let dfg = load_design(&file)?;
            let points = match grid {
                Some(path) => {
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))?;
                    parse_grid(&text).map_err(|e| format!("{path}: {e}"))?
                }
                None => points,
            };
            let chained = points.iter().any(|p| p.clock.is_some());
            let spec = timing_spec(chained, two_cycle_mul);
            let report = Engine::new().explore(&dfg, &spec, &points, ExploreOptions { threads });
            if !tel.quiet {
                print!("{}", report.render_text());
            }
            if let Some(path) = emit {
                let mut json = report.front_json();
                json.push('\n');
                std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
                if !tel.quiet {
                    println!("wrote {path}");
                }
            }
            if tel.metrics {
                print!("{}", report.metrics.render_text());
            }
            let errors = report.results.iter().filter(|r| r.outcome.is_err()).count();
            if errors == report.results.len() {
                return Err("every design point failed to schedule".into());
            }
            Ok(())
        }
        Command::Profile {
            file,
            cs,
            alg,
            top,
            json,
            two_cycle_mul,
            quiet,
        } => {
            let dfg = load_design(&file)?;
            let spec = timing_spec(false, two_cycle_mul);
            let cs = match cs {
                Some(cs) => cs,
                None => CriticalPath::compute(&dfg, &spec).steps() as u32 + PROFILE_SLACK,
            };
            if !quiet {
                eprintln!(
                    "profiling {} ({} op(s)) with {} at {cs} control step(s)",
                    dfg.name(),
                    dfg.node_count(),
                    alg.name()
                );
            }
            let mut profiler = Profiler::new();
            let mut metrics = Metrics::new();
            run_move_frame(
                &dfg,
                &spec,
                &DesignPoint::new(alg, cs),
                &CancelToken::never(),
                &mut Instrument::new(&mut profiler, &mut metrics),
            )?;
            let report = ProfileReport::build(&profiler, &metrics, top);
            if json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
            Ok(())
        }
        Command::Serve {
            config,
            access_log,
            quiet,
        } => {
            let sink: Box<dyn TraceSink + Send> = match &access_log {
                Some(path) => {
                    let file = std::fs::File::create(path)
                        .map_err(|e| format!("cannot create {path}: {e}"))?;
                    Box::new(JsonlSink::new(file))
                }
                None if quiet => Box::new(NullSink),
                None => Box::new(JsonlSink::new(std::io::stderr())),
            };
            let server =
                Server::start(config, sink).map_err(|e| format!("cannot start server: {e}"))?;
            if !quiet {
                eprintln!("mfhls serve: listening on http://{}", server.local_addr());
                eprintln!("mfhls serve: SIGINT/SIGTERM drains and exits");
            }
            moveframe_hls::serve::signal::install();
            while !moveframe_hls::serve::signal::triggered() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            if !quiet {
                eprintln!("mfhls serve: shutdown signal received, draining");
            }
            server.shutdown();
            server.join();
            Ok(())
        }
    }
}

/// The built-in NCR-like library, or the `--lib` file.
fn load_library(lib: Option<String>) -> Result<Library, String> {
    match lib {
        None => Ok(Library::ncr_like()),
        Some(path) => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            moveframe_hls::celllib::parse_library(&text).map_err(|e| format!("{path}: {e}"))
        }
    }
}

/// Schedules one design point through the exploration engine (the same
/// path `mfhls serve` uses) and prints the canonical JSON stats line,
/// so CLI and daemon answers are byte-identical.
fn run_point_json(
    dfg: &Dfg,
    spec: &TimingSpec,
    point: &DesignPoint,
    tel: &Telemetry,
) -> Result<(), String> {
    if tel.wants_events() {
        return Err("--json does not support --trace/--chrome-trace".into());
    }
    let mut null = NullSink;
    let mut metrics = Metrics::new();
    let (outcome, _warm) = {
        let mut instr = Instrument::new(&mut null, &mut metrics);
        let dfg_fp = dfg_fingerprint(dfg, spec);
        Engine::new().schedule_point(dfg_fp, dfg, spec, point, &CancelToken::never(), &mut instr)
    };
    let m = outcome?;
    print!("{}", moveframe_hls::serve::point_json(point, &m));
    if tel.metrics {
        print!("{}", metrics.render_text());
    }
    Ok(())
}

/// Writes/prints the requested telemetry artifacts after a run.
fn finish_telemetry(
    tel: &Telemetry,
    events: &[TraceEvent],
    metrics: &Metrics,
) -> Result<(), String> {
    if let Some(path) = &tel.trace {
        let mut out = String::new();
        for e in events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !tel.quiet {
            println!("wrote {path} ({} event(s))", events.len());
        }
    }
    if let Some(path) = &tel.chrome {
        std::fs::write(path, chrome_trace(events.iter()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if !tel.quiet {
            println!("wrote {path} (load in chrome://tracing or Perfetto)");
        }
    }
    if tel.metrics {
        print!("{}", metrics.render_text());
    }
    if tel.verbose {
        for (name, h) in metrics.histograms() {
            if let Some(phase) = name
                .strip_prefix("phase.")
                .and_then(|n| n.strip_suffix(".ns"))
            {
                eprintln!(
                    "phase {phase}: {:.3} ms over {} call(s)",
                    h.sum() as f64 / 1e6,
                    h.count()
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args[0] == "--version" || args[0] == "-V" {
        println!("mfhls {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    match parse_args(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::args::allowed_flags;
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_info() {
        assert_eq!(
            parse(&["info", "x.dfg", "--dot"]).unwrap(),
            Command::Info {
                file: "x.dfg".into(),
                dot: true
            }
        );
    }

    #[test]
    fn parses_schedule_with_all_flags() {
        let c = parse(&[
            "schedule",
            "x.dfg",
            "--cs",
            "5",
            "--resource",
            "--limit",
            "mul=2",
            "--limit",
            "+=1",
            "--chain",
            "100",
            "--latency",
            "2",
            "--two-cycle-mul",
        ])
        .unwrap();
        match c {
            Command::Schedule {
                point,
                resource,
                two_cycle_mul,
                ..
            } => {
                assert_eq!((point.algorithm, point.cs), (Algorithm::Mfs, 5));
                assert!(resource);
                assert_eq!(
                    point.fu_limits.into_iter().collect::<Vec<_>>(),
                    vec![(FuClass::Op(OpKind::Add), 1), (FuClass::Op(OpKind::Mul), 2)]
                );
                assert_eq!(point.clock, Some(100));
                assert_eq!(point.latency, Some(2));
                assert!(two_cycle_mul);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_synth_weights() {
        let c = parse(&[
            "synth",
            "x.dfg",
            "--cs",
            "4",
            "--weights",
            "0,1,2,3",
            "--check",
        ])
        .unwrap();
        match c {
            Command::Synth { point, check, .. } => {
                assert_eq!(point.weights, Some((0, 1, 2, 3)));
                assert!(check);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn missing_cs_is_an_error() {
        assert!(parse(&["schedule", "x.dfg"]).unwrap_err().contains("--cs"));
        assert!(parse(&["synth", "x.dfg"]).unwrap_err().contains("--cs"));
    }

    #[test]
    fn retired_shard_flags_are_unknown_synth_flags() {
        for (flag, value) in [("--shard", "4"), ("--shard-alg", "mfs")] {
            let err = parse(&["synth", "x.dfg", "--cs", "4", flag, value]).unwrap_err();
            assert_eq!(
                err,
                format!("unknown synth flag `{flag}`; see `mfhls help synth`")
            );
        }
        // `--threads` lives on in `explore`, and the error says so.
        let err = parse(&["synth", "x.dfg", "--cs", "4", "--threads", "2"]).unwrap_err();
        assert_eq!(
            err,
            "unknown synth flag `--threads` (a `explore` flag); see `mfhls help synth`"
        );
    }

    #[test]
    fn every_input_subcommand_reads_a_generated_design() {
        let quiet = Telemetry {
            quiet: true,
            ..Telemetry::default()
        };
        for file in ["gen:64", "gen:clustered:64"] {
            let cs = CriticalPath::compute(&load_design(file).unwrap(), &timing_spec(false, false))
                .steps() as u32
                + 4;
            run(Command::Info {
                file: file.into(),
                dot: false,
            })
            .unwrap();
            run(Command::Schedule {
                file: file.into(),
                point: DesignPoint::new(Algorithm::Mfs, cs),
                resource: false,
                two_cycle_mul: false,
                json: false,
                svg: None,
                tel: quiet.clone(),
            })
            .unwrap();
            run(Command::Explore {
                file: file.into(),
                grid: None,
                points: vec![DesignPoint::new(Algorithm::Mfs, cs)],
                two_cycle_mul: false,
                threads: 1,
                emit: None,
                tel: quiet.clone(),
            })
            .unwrap();
        }
    }

    #[test]
    fn help_subcommand_parses_and_runs() {
        assert_eq!(parse(&["help"]).unwrap(), Command::Help { topic: None });
        assert_eq!(
            parse(&["help", "synth"]).unwrap(),
            Command::Help {
                topic: Some("synth".into())
            }
        );
        run(Command::Help { topic: None }).unwrap();
        for sub in SUBCOMMANDS {
            run(Command::Help {
                topic: Some(sub.to_string()),
            })
            .unwrap();
        }
        let err = run(Command::Help {
            topic: Some("bogus".into()),
        })
        .unwrap_err();
        assert!(err.contains("bogus") && err.contains("schedule"), "{err}");
    }

    #[test]
    fn every_subcommand_has_help_and_flag_coverage() {
        for sub in SUBCOMMANDS {
            let text = usage_for(sub).unwrap();
            // Every allowed flag appears in its subcommand's help text.
            for flag in allowed_flags(sub) {
                let named = flag.trim_start_matches('-');
                assert!(
                    text.contains(flag) || text.contains(named),
                    "help for `{sub}` is missing `{flag}`"
                );
            }
        }
        assert!(usage_for("bogus").is_none());
    }

    #[test]
    fn unknown_flags_are_scoped_to_the_subcommand() {
        // A flag valid elsewhere names its proper subcommand.
        let err = parse(&["schedule", "x.dfg", "--cs", "4", "--verilog"]).unwrap_err();
        assert!(err.contains("unknown schedule flag"), "{err}");
        assert!(err.contains("`synth`"), "{err}");
        assert!(err.contains("mfhls help schedule"), "{err}");
        // A flag valid nowhere gets no cross-reference.
        let err = parse(&["synth", "x.dfg", "--cs", "4", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown synth flag"), "{err}");
        assert!(!err.contains("(a `"), "{err}");
        // info rejects scheduling flags.
        let err = parse(&["info", "x.dfg", "--cs", "4"]).unwrap_err();
        assert!(err.contains("unknown info flag"), "{err}");
        assert!(err.contains("`schedule`"), "{err}");
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(parse(&["schedule", "x.dfg", "--cs", "4", "--bogus"])
            .unwrap_err()
            .contains("--bogus"));
        assert!(parse(&["frobnicate", "x.dfg"])
            .unwrap_err()
            .contains("frobnicate"));
        assert!(parse(&["schedule", "x.dfg", "--cs", "four"])
            .unwrap_err()
            .contains("invalid"));
        assert!(parse(&["synth", "x.dfg", "--cs", "4", "--weights", "1,2"])
            .unwrap_err()
            .contains("four values"));
    }

    #[test]
    fn end_to_end_on_a_temp_file() {
        let dir = std::env::temp_dir().join("mfhls-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        let path = file.to_string_lossy().to_string();
        run(Command::Info {
            file: path.clone(),
            dot: false,
        })
        .unwrap();
        run(Command::Schedule {
            file: path.clone(),
            point: DesignPoint::new(Algorithm::Mfs, 2),
            resource: false,
            two_cycle_mul: false,
            json: false,
            svg: Some(dir.join("toy.svg").to_string_lossy().to_string()),
            tel: Telemetry::default(),
        })
        .unwrap();
        assert!(dir.join("toy.svg").exists());
        let mut style2 = DesignPoint::new(Algorithm::Mfsa, 3);
        style2.style = 2;
        run(Command::Synth {
            file: path.clone(),
            point: style2,
            lib: None,
            two_cycle_mul: false,
            json: false,
            microcode: true,
            verilog: true,
            testbench: true,
            check: true,
            svg: None,
            vcd: Some(dir.join("toy.vcd").to_string_lossy().to_string()),
            tel: Telemetry::default(),
        })
        .unwrap();
        assert!(dir.join("toy.vcd").exists());
        // With a custom library written next to the design.
        let lib_file = std::path::Path::new(&path).with_extension("lib");
        std::fs::write(&lib_file, Library::ncr_like().to_text()).unwrap();
        run(Command::Synth {
            file: path,
            point: DesignPoint::new(Algorithm::Mfsa, 3),
            lib: Some(lib_file.to_string_lossy().to_string()),
            two_cycle_mul: false,
            json: false,
            microcode: false,
            verilog: false,
            testbench: false,
            check: true,
            svg: None,
            vcd: None,
            tel: Telemetry::default(),
        })
        .unwrap();
    }

    #[test]
    fn parses_explore() {
        let c = parse(&[
            "explore",
            "x.dfg",
            "--cs",
            "4,5,6",
            "--alg",
            "mfs,list",
            "--threads",
            "8",
            "--emit",
            "front.json",
        ])
        .unwrap();
        match c {
            Command::Explore {
                points,
                threads,
                emit,
                grid,
                ..
            } => {
                // The --alg × --cs cross product, algorithms outer.
                let axes: Vec<_> = points.iter().map(|p| (p.algorithm, p.cs)).collect();
                let mut want = Vec::new();
                for alg in [Algorithm::Mfs, Algorithm::List] {
                    for cs in [4, 5, 6] {
                        want.push((alg, cs));
                    }
                }
                assert_eq!(axes, want);
                assert_eq!(threads, 8);
                assert_eq!(emit.as_deref(), Some("front.json"));
                assert!(grid.is_none());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["explore", "x.dfg"]).unwrap_err().contains("--cs"));
        assert!(
            parse(&["explore", "x.dfg", "--grid", "g.toml", "--cs", "4"])
                .unwrap_err()
                .contains("not both")
        );
        assert!(parse(&["explore", "x.dfg", "--cs", "4", "--alg", "bogus"])
            .unwrap_err()
            .contains("bogus"));
        assert!(
            parse(&["schedule", "x.dfg", "--cs", "4,5"])
                .unwrap_err()
                .contains("single"),
            "schedule rejects cs lists"
        );
    }

    #[test]
    fn explore_end_to_end_with_a_grid_file() {
        let dir = std::env::temp_dir().join("mfhls-explore-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        let grid = dir.join("toy.grid");
        std::fs::write(
            &grid,
            "[defaults]\nalgorithm = [\"mfs\", \"list\"]\ncs = [2, 3]\n",
        )
        .unwrap();
        let front = dir.join("front.json");
        run(Command::Explore {
            file: file.to_string_lossy().to_string(),
            grid: Some(grid.to_string_lossy().to_string()),
            points: vec![],
            two_cycle_mul: false,
            threads: 2,
            emit: Some(front.to_string_lossy().to_string()),
            tel: Telemetry {
                quiet: true,
                ..Telemetry::default()
            },
        })
        .unwrap();
        let json = std::fs::read_to_string(&front).unwrap();
        assert!(json.starts_with("{\"points\":4,"), "{json}");
        assert!(json.contains("\"front\":["));
    }

    #[test]
    fn parses_profile() {
        assert_eq!(
            parse(&["profile", "x.dfg"]).unwrap(),
            Command::Profile {
                file: "x.dfg".into(),
                cs: None,
                alg: Algorithm::Mfs,
                top: 20,
                json: false,
                two_cycle_mul: false,
                quiet: false,
            }
        );
        assert_eq!(
            parse(&[
                "profile", "gen:5000", "--cs", "40", "--alg", "mfsa", "--top", "5", "--json", "-q"
            ])
            .unwrap(),
            Command::Profile {
                file: "gen:5000".into(),
                cs: Some(40),
                alg: Algorithm::Mfsa,
                top: 5,
                json: true,
                two_cycle_mul: false,
                quiet: true,
            }
        );
        // A baseline parses; running it is what fails.
        assert!(matches!(
            parse(&["profile", "x.dfg", "--alg", "fds"]),
            Ok(Command::Profile {
                alg: Algorithm::Fds,
                ..
            })
        ));
        assert!(parse(&["profile", "x.dfg", "--alg", "mfs,mfsa"])
            .unwrap_err()
            .contains("single --alg"));
        assert!(parse(&["profile", "x.dfg", "--cs", "4,5"])
            .unwrap_err()
            .contains("single --cs"));
        assert!(parse(&["profile", "x.dfg", "--top", "many"])
            .unwrap_err()
            .contains("invalid --top"));
        assert!(parse(&["profile", "x.dfg", "--verilog"])
            .unwrap_err()
            .contains("unknown profile flag"));
    }

    #[test]
    fn profile_end_to_end() {
        let dir = std::env::temp_dir().join("mfhls-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        for alg in [Algorithm::Mfs, Algorithm::Mfsa] {
            run(Command::Profile {
                file: file.to_string_lossy().to_string(),
                cs: None,
                alg,
                top: 10,
                json: false,
                two_cycle_mul: false,
                quiet: true,
            })
            .unwrap();
        }
        // The generated-workload spelling works too, and bad operands
        // are rejected.
        run(Command::Profile {
            file: "gen:64".into(),
            cs: None,
            alg: Algorithm::Mfs,
            top: 3,
            json: true,
            two_cycle_mul: false,
            quiet: true,
        })
        .unwrap();
        assert!(load_design("gen:zero").unwrap_err().contains("positive"));
        assert!(load_design("gen:0").unwrap_err().contains("positive"));
    }

    #[test]
    fn profile_rejects_a_baseline_algorithm() {
        // The command line parses; the one rejection is the run's.
        for alg in ["list", "fds"] {
            let command = parse(&["profile", "gen:16", "--alg", alg, "-q"]).unwrap();
            assert_eq!(
                run(command).unwrap_err(),
                format!("{alg} is not a move-frame algorithm")
            );
        }
    }

    #[test]
    fn parses_serve() {
        let c = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:8080",
            "--workers",
            "3",
            "--queue-cap",
            "16",
            "--cache-cap",
            "100",
            "--cache-dir",
            "/tmp/mfhls-cache",
            "--deadline-ms",
            "250",
            "--idle-timeout-ms",
            "900",
            "--read-timeout-ms",
            "700",
            "--pipeline-depth",
            "4",
            "--access-log",
            "access.jsonl",
            "-q",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                config: ServeConfig {
                    addr: "0.0.0.0:8080".into(),
                    workers: 3,
                    queue_cap: 16,
                    cache_cap: 100,
                    cache_dir: Some("/tmp/mfhls-cache".into()),
                    default_deadline_ms: Some(250),
                    idle_timeout_ms: 900,
                    read_timeout_ms: 700,
                    pipeline_depth: 4,
                    ..ServeConfig::default()
                },
                access_log: Some("access.jsonl".into()),
                quiet: true,
            }
        );
        // Bare `serve` is exactly the library defaults: the CLI adds
        // nothing of its own.
        match parse(&["serve"]).unwrap() {
            Command::Serve {
                config,
                access_log,
                quiet,
            } => {
                assert_eq!(config, ServeConfig::default());
                assert_eq!(access_log, None);
                assert!(!quiet);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse(&["serve", "--workers", "many"])
            .unwrap_err()
            .contains("invalid --workers"));
        for gone in ["--keep-alive", "--force-poll"] {
            assert!(parse(&["serve", gone, "off"])
                .unwrap_err()
                .contains("unknown serve flag"));
        }
        assert!(parse(&["serve", "--pipeline-depth", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["serve", "--cs", "4"])
            .unwrap_err()
            .contains("unknown serve flag"));
    }

    #[test]
    fn parses_json_flag() {
        match parse(&["schedule", "x.dfg", "--cs", "4", "--json"]).unwrap() {
            Command::Schedule { json, .. } => assert!(json),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(&["synth", "x.dfg", "--cs", "4", "--json"]).unwrap() {
            Command::Synth { json, .. } => assert!(json),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn json_mode_rejects_conflicting_flags() {
        let dir = std::env::temp_dir().join("mfhls-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        let path = file.to_string_lossy().to_string();
        let err = run(Command::Schedule {
            file: path.clone(),
            point: DesignPoint::new(Algorithm::Mfs, 2),
            resource: true,
            two_cycle_mul: false,
            json: true,
            svg: None,
            tel: Telemetry::default(),
        })
        .unwrap_err();
        assert!(err.contains("--resource"), "{err}");
        let err = run(Command::Synth {
            file: path.clone(),
            point: DesignPoint::new(Algorithm::Mfsa, 3),
            lib: None,
            two_cycle_mul: false,
            json: true,
            microcode: true,
            verilog: false,
            testbench: false,
            check: false,
            svg: None,
            vcd: None,
            tel: Telemetry::default(),
        })
        .unwrap_err();
        assert!(err.contains("--microcode"), "{err}");
        // The happy path prints the stats JSON and succeeds.
        run(Command::Schedule {
            file: path.clone(),
            point: DesignPoint::new(Algorithm::Mfs, 2),
            resource: false,
            two_cycle_mul: false,
            json: true,
            svg: None,
            tel: Telemetry::default(),
        })
        .unwrap();
        run(Command::Synth {
            file: path,
            point: DesignPoint::new(Algorithm::Mfsa, 3),
            lib: None,
            two_cycle_mul: false,
            json: true,
            microcode: false,
            verilog: false,
            testbench: false,
            check: false,
            svg: None,
            vcd: None,
            tel: Telemetry::default(),
        })
        .unwrap();
    }

    #[test]
    fn parses_telemetry_flags() {
        let c = parse(&[
            "synth",
            "x.dfg",
            "--cs",
            "4",
            "--trace",
            "out.jsonl",
            "--chrome-trace",
            "out.json",
            "--metrics",
            "-q",
        ])
        .unwrap();
        match c {
            Command::Synth { tel, .. } => {
                assert_eq!(tel.trace.as_deref(), Some("out.jsonl"));
                assert_eq!(tel.chrome.as_deref(), Some("out.json"));
                assert!(tel.metrics);
                assert!(tel.quiet);
                assert!(!tel.verbose);
                assert!(tel.wants_events());
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn telemetry_artifacts_are_written() {
        let dir = std::env::temp_dir().join("mfhls-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("toy.dfg");
        std::fs::write(&file, "input a, b\nop p = mul(a, b)\nop q = add(p, b)\n").unwrap();
        let trace = dir.join("toy.jsonl");
        let chrome = dir.join("toy.trace.json");
        run(Command::Schedule {
            file: file.to_string_lossy().to_string(),
            point: DesignPoint::new(Algorithm::Mfs, 3),
            resource: false,
            two_cycle_mul: false,
            json: false,
            svg: None,
            tel: Telemetry {
                trace: Some(trace.to_string_lossy().to_string()),
                chrome: Some(chrome.to_string_lossy().to_string()),
                metrics: true,
                verbose: false,
                quiet: true,
            },
        })
        .unwrap();
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(
                line.starts_with("{\"event\":\"") && line.ends_with('}'),
                "{line}"
            );
        }
        assert!(jsonl.contains("\"event\":\"move_committed\""));
        let chrome_json = std::fs::read_to_string(&chrome).unwrap();
        assert!(chrome_json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(chrome_json.contains("\"name\":\"mfs.move_loop\""));
    }
}
