//! `mfhls` argument parsing: the subcommands, their flags and help.
//!
//! Design-point flags (`--cs`, `--alg`, `--limit`, `--chain`,
//! `--latency`, `--style2`, `--weights`) are parsed by the knob table
//! of `hls-explore` ([`DesignPoint::set`]), which also
//! supplies their help lines; this module only decides which
//! subcommand takes which of them.

use moveframe_hls::explore::Knob;
use moveframe_hls::prelude::*;

/// Observability options shared by `schedule` and `synth`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Telemetry {
    /// Write trace events as JSON Lines to this file.
    pub trace: Option<String>,
    /// Print the metrics report after the run.
    pub metrics: bool,
    /// Write phase spans as a Chrome/Perfetto trace to this file.
    pub chrome: Option<String>,
    /// Extra diagnostics on stderr.
    pub verbose: bool,
    /// Silence routine stdout output.
    pub quiet: bool,
}

impl Telemetry {
    /// Whether any option needs the scheduler's event stream.
    pub fn wants_events(&self) -> bool {
        self.trace.is_some() || self.chrome.is_some()
    }

    /// The sink a run records into: `mem` when the events are wanted.
    pub fn sink<'a>(
        &self,
        mem: &'a mut MemorySink,
        null: &'a mut NullSink,
    ) -> &'a mut dyn TraceSink {
        if self.wants_events() {
            mem
        } else {
            null
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Help {
        topic: Option<String>,
    },
    Info {
        file: String,
        dot: bool,
    },
    Schedule {
        file: String,
        /// The MFS point: `cs` and the `--limit/--chain/--latency` knobs.
        point: DesignPoint,
        resource: bool,
        two_cycle_mul: bool,
        json: bool,
        svg: Option<String>,
        tel: Telemetry,
    },
    Synth {
        file: String,
        /// The MFSA point: `cs`, style and weights.
        point: DesignPoint,
        lib: Option<String>,
        two_cycle_mul: bool,
        json: bool,
        microcode: bool,
        verilog: bool,
        testbench: bool,
        check: bool,
        svg: Option<String>,
        vcd: Option<String>,
        tel: Telemetry,
    },
    Explore {
        file: String,
        grid: Option<String>,
        /// The `--alg × --cs` points (empty with `--grid`).
        points: Vec<DesignPoint>,
        two_cycle_mul: bool,
        threads: usize,
        emit: Option<String>,
        tel: Telemetry,
    },
    Profile {
        file: String,
        cs: Option<u32>,
        alg: Algorithm,
        top: usize,
        json: bool,
        two_cycle_mul: bool,
        quiet: bool,
    },
    Serve {
        config: ServeConfig,
        access_log: Option<String>,
        quiet: bool,
    },
}

/// The subcommands, in help order.
pub const SUBCOMMANDS: &[&str] = &["info", "schedule", "synth", "explore", "profile", "serve"];

/// A subcommand's help: usage line and description, then its flag
/// rows. A row is `SPELLING\tHELP`. A row naming a design-point knob
/// (`--cs\tNOTE`) takes its value syntax and help line from the knob
/// table, followed by the note.
struct Help {
    about: &'static str,
    flags: &'static [&'static str],
    telemetry: bool,
}

/// What every subcommand but `serve` reads.
const INPUT: &str = "INPUT is a .dfg file, `gen:OPS` for the canonical scaling workload of\n\
                     roughly OPS operations (the graphs BENCH_core.json measures) or\n\
                     `gen:clustered:OPS` for the canonical clustered workload of\n\
                     weakly-coupled regions.";

/// The telemetry flags of `schedule` and `synth`.
const TELEMETRY: &[&str] = &[
    "--trace FILE.jsonl\tscheduler trace events as JSON Lines",
    "--chrome-trace F\tphase spans for chrome://tracing / Perfetto",
    "--metrics\tprint the counter/histogram report",
    "-v|--verbose\tphase timing summary on stderr",
    "-q|--quiet\tsilence routine output",
];

fn help(sub: &str) -> Option<Help> {
    let (about, flags, telemetry): (_, &'static [&str], _) = match sub {
        "info" => (
            "usage: mfhls info INPUT [--dot]\n\
             \n\
             Prints the graph's operator mix, node/signal counts, critical path\n\
             (single-cycle and 2-cycle-multiply timing) and, for memory-aware\n\
             designs, the declared banks and arrays.",
            &["--dot\talso print the graph in Graphviz DOT format"],
            false,
        ),
        "schedule" => (
            "usage: mfhls schedule INPUT --cs N [flags]\n\
             \n\
             Move-frame scheduling (MFS). Accepts memory-aware .dfg files:\n\
             loads/stores are scheduled against their bank's port count.",
            &[
                "--cs\t (required)",
                "--resource\tresource-constrained mode (--cs is the budget)",
                "--limit",
                "--chain",
                "--latency",
                "--two-cycle-mul\tuse the 2-cycle-multiply timing profile",
                "--json\tprint the canonical stats JSON line instead of text",
                "--svg FILE\trender the schedule as an SVG",
            ],
            true,
        ),
        "synth" => (
            "usage: mfhls synth INPUT --cs N [flags]\n\
             \n\
             Mixed scheduling-allocation (MFSA): schedule, bind ALUs/registers/\n\
             muxes and report costs. Memory-aware designs get per-bank port\n\
             binding, address/data muxing and Verilog memory instantiation.",
            &[
                "--cs\t (required)",
                "--style2\tno-self-loop design style (paper style 2)",
                "--weights",
                "--lib FILE.lib\tuse a custom cell library",
                "--two-cycle-mul\tuse the 2-cycle-multiply timing profile",
                "--json\tprint the canonical stats JSON line instead of text",
                "--microcode\tprint the control-word listing",
                "--verilog\temit synthesisable Verilog",
                "--testbench\temit a self-checking Verilog testbench",
                "--check\trun the interpreter-vs-RTL equivalence check",
                "--svg FILE\trender the schedule as an SVG",
                "--vcd FILE\tsimulate seed 0 and write a VCD waveform",
            ],
            true,
        ),
        "explore" => (
            "usage: mfhls explore INPUT (--grid FILE | --cs N[,M...]) [flags]\n\
             \n\
             Schedules many design points in parallel and reports the Pareto\n\
             front. Memory-aware designs work with mfs, mfsa and list; the\n\
             port-unaware baselines (asap, fds, anneal) report a typed error\n\
             per point. --alg and --cs take comma lists and sweep their\n\
             cross product.",
            &[
                "--grid FILE\tread the point grid from a file",
                "--cs",
                "--alg\t (default mfs)",
                "--limit",
                "--chain",
                "--latency",
                "--style2\tno-self-loop design style for mfsa points",
                "--weights\t for mfsa points",
                "--two-cycle-mul\tuse the 2-cycle-multiply timing profile",
                "--threads N\tworker threads (0 = all cores)",
                "--emit FILE\twrite the Pareto front as JSON",
                "--metrics\tprint the engine's metrics report",
                "-q|--quiet\tsilence routine output",
            ],
            false,
        ),
        "profile" => (
            "usage: mfhls profile INPUT [flags]\n\
             \n\
             Runs one scheduling pass with the attribution profiler attached\n\
             and prints where the scheduler's work went: per-node and per-step\n\
             energy-evaluation hotspots, per-phase wall time, bounds fast-path\n\
             vs boundary-walk counts and reuse-memo hit rates. The report is\n\
             deterministic for a given design, and profiling never changes the\n\
             schedule (the profiler is a write-only trace sink).",
            &[
                "--cs\t (default: critical path + 8)",
                "--alg\t; mfs or mfsa (default mfs)",
                "--top K\thotspot rows to keep (default 20)",
                "--json\tprint the machine-readable report",
                "--two-cycle-mul\tuse the 2-cycle-multiply timing profile",
                "-q|--quiet\tsuppress the stderr progress line",
            ],
            false,
        ),
        "serve" => (
            "usage: mfhls serve [flags]\n\
             \n\
             Synthesis-as-a-service HTTP daemon. POST jobs name a built-in\n\
             benchmark (including the memory kernels array_fir/matvec) or\n\
             carry an inline .dfg; answers are the same JSON the --json CLI\n\
             modes print. `POST /batch` takes a JSON array of jobs and\n\
             answers one ordered array. Connections are always keep-alive\n\
             (until the client sends `Connection: close`) with bounded\n\
             pipelining, multiplexed by epoll on Linux and poll(2) on other\n\
             Unix systems; `--cache-dir` adds an on-disk result tier that\n\
             survives restarts.",
            &[
                "--addr HOST:PORT\tlisten address",
                "--workers N\tscheduler worker threads",
                "--queue-cap N\tbounded job-queue length",
                "--cache-cap N\twarm schedule-cache capacity",
                "--cache-dir DIR\ton-disk result cache (restart-warm)",
                "--deadline-ms N\tdefault per-job deadline",
                "--idle-timeout-ms N\tevict idle keep-alive conns (5000)",
                "--read-timeout-ms N\tslow-loris partial-request bound (5000)",
                "--pipeline-depth N\tmax in-flight requests per conn (8)",
                "--access-log FILE\tappend JSONL access records to FILE",
                "-q|--quiet\tsilence startup/shutdown chatter",
            ],
            false,
        ),
        _ => return None,
    };
    Some(Help {
        about,
        flags,
        telemetry,
    })
}

/// The design-point knob a flag spelling sets, if any.
fn knob_of(spelling: &str) -> Option<&'static Knob> {
    spelling.strip_prefix("--").and_then(Knob::lookup)
}

/// The knob a design-point flag of `sub` sets.
fn point_flag(sub: &str, flag: &str) -> Option<&'static Knob> {
    help(sub)?
        .flags
        .iter()
        .find(|row| row.split('\t').next() == Some(flag))
        .and_then(|_| knob_of(flag))
}

pub fn usage() -> String {
    "usage: mfhls <subcommand> [args]\n\
     \n\
     subcommands:\n\
     \x20 info      inspect a .dfg file (operator mix, critical path, memory decls)\n\
     \x20 schedule  MFS move-frame scheduling (time- or resource-constrained)\n\
     \x20 synth     MFSA mixed scheduling-allocation down to RTL\n\
     \x20 explore   parallel design-space exploration over algorithms and budgets\n\
     \x20 profile   deterministic cost attribution and hotspot report\n\
     \x20 serve     synthesis-as-a-service HTTP daemon\n\
     \n\
     run `mfhls help <subcommand>` for that subcommand's flags.\n\
     `mfhls --version` prints the version."
        .to_string()
}

/// Detailed usage for one subcommand (`mfhls help <sub>`).
pub fn usage_for(sub: &str) -> Option<String> {
    let help = help(sub)?;
    let mut sections = vec![("flags", help.flags)];
    if help.telemetry {
        sections.push(("telemetry", TELEMETRY));
    }
    let mut text = String::from(help.about);
    if sub != "serve" {
        text.push_str("\n\n");
        text.push_str(INPUT);
    }
    for (title, flags) in sections {
        let rows: Vec<(String, String)> = flags
            .iter()
            .map(|row| {
                let (spelling, help) = row.split_once('\t').unwrap_or((row, ""));
                match knob_of(spelling) {
                    Some(k) => (
                        format!("{spelling} {}", k.syntax),
                        format!("{}{help}", k.help),
                    ),
                    None => (spelling.to_string(), help.to_string()),
                }
            })
            .collect();
        let width = rows
            .iter()
            .map(|(f, _)| f.chars().count())
            .max()
            .unwrap_or(0);
        text.push_str(&format!("\n\n{title}:"));
        for (flag, help) in rows {
            text.push_str(&format!("\n  {flag:<width$}  {help}"));
        }
    }
    Some(text)
}

/// The flags each subcommand accepts (drives scoped unknown-flag
/// errors: a flag that exists elsewhere names its proper subcommand).
pub fn allowed_flags(sub: &str) -> Vec<&'static str> {
    let Some(help) = help(sub) else {
        return Vec::new();
    };
    let telemetry = if help.telemetry { TELEMETRY } else { &[] };
    help.flags
        .iter()
        .chain(telemetry)
        .flat_map(|row| row.split([' ', '\t']).next().unwrap_or_default().split('|'))
        .collect()
}

/// A scoped unknown-flag error: names the subcommand, and if the flag
/// belongs to other subcommands, points there.
fn unknown_flag(sub: &str, flag: &str) -> String {
    let owners: Vec<&str> = SUBCOMMANDS
        .iter()
        .filter(|s| allowed_flags(s).contains(&flag))
        .copied()
        .collect();
    let hint = if owners.is_empty() {
        String::new()
    } else {
        format!(" (a `{}` flag)", owners.join("`/`"))
    };
    format!("unknown {sub} flag `{flag}`{hint}; see `mfhls help {sub}`")
}

/// Parses the `serve` subcommand's flags (no input file: the daemon
/// receives designs over HTTP).
fn parse_serve<'a, I: Iterator<Item = &'a String>>(mut it: I) -> Result<Command, String> {
    let mut config = ServeConfig::default();
    let mut access_log = None;
    let mut quiet = false;
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--addr" => config.addr = next(it, "--addr needs HOST:PORT")?.clone(),
            "--workers" => config.workers = parsed(it, flag)?,
            "--queue-cap" => config.queue_cap = parsed(it, flag)?,
            "--cache-cap" => config.cache_cap = parsed(it, flag)?,
            "--cache-dir" => {
                config.cache_dir = Some(next(it, "--cache-dir needs a directory path")?.into())
            }
            "--deadline-ms" => config.default_deadline_ms = Some(parsed(it, flag)?),
            "--idle-timeout-ms" => config.idle_timeout_ms = parsed(it, flag)?,
            "--read-timeout-ms" => config.read_timeout_ms = parsed(it, flag)?,
            "--pipeline-depth" => {
                config.pipeline_depth = Some(parsed(it, flag)?)
                    .filter(|&depth| depth > 0)
                    .ok_or("--pipeline-depth must be at least 1")?;
            }
            "--access-log" => {
                access_log = Some(next(it, "--access-log needs a file path")?.clone())
            }
            "-q" | "--quiet" => quiet = true,
            other => return Err(unknown_flag("serve", other)),
        }
    }
    Ok(Command::Serve {
        config,
        access_log,
        quiet,
    })
}

/// The value after a flag, or `missing` as the error.
fn next<'a>(
    it: &mut impl Iterator<Item = &'a String>,
    missing: &str,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| missing.to_string())
}

/// The parsed value after `flag`.
fn parsed<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    next(it, &format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("invalid {flag} value"))
}

/// Parses a command line (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let sub = it.next().ok_or_else(usage)?;
    if sub == "help" {
        return Ok(Command::Help {
            topic: it.next().cloned(),
        });
    }
    if !SUBCOMMANDS.contains(&sub.as_str()) {
        return Err(format!("unknown subcommand `{sub}`\n{}", usage()));
    }
    if sub == "serve" {
        return parse_serve(it);
    }
    let file = it.next().ok_or("missing input file")?.clone();
    // The design-point knobs; `--cs` and `--alg` take comma lists
    // (explore sweeps their cross product).
    let mut knobs = DesignPoint::new(Algorithm::Mfs, 1);
    let mut cs_list: Vec<u32> = Vec::new();
    let mut algs: Vec<Algorithm> = Vec::new();
    let mut resource = false;
    let mut two_cycle_mul = false;
    let mut json = false;
    let mut lib = None;
    let mut microcode = false;
    let mut verilog = false;
    let mut testbench = false;
    let mut check = false;
    let mut dot = false;
    let mut svg = None;
    let mut vcd = None;
    let mut grid = None;
    let mut threads = 0usize;
    let mut emit = None;
    let mut top = 20usize;
    let mut tel = Telemetry::default();
    while let Some(flag) = it.next() {
        if !allowed_flags(sub).contains(&flag.as_str()) {
            return Err(unknown_flag(sub, flag));
        }
        if let Some(knob) = point_flag(sub, flag) {
            let value = next(&mut it, &format!("{flag} needs {}", knob.syntax))?;
            let mut set = |v: &str| {
                knobs
                    .set(knob.name(), v)
                    .map(|()| (knobs.algorithm, knobs.cs))
                    .map_err(|e| format!("{flag}: {e}"))
            };
            match knob.name() {
                "cs" => {
                    cs_list = value
                        .split(',')
                        .map(|v| set(v).map(|(_, cs)| cs))
                        .collect::<Result<_, _>>()?
                }
                "alg" => {
                    algs = value
                        .split(',')
                        .map(|v| set(v).map(|(alg, _)| alg))
                        .collect::<Result<_, _>>()?
                }
                _ => {
                    set(value)?;
                }
            }
            continue;
        }
        match flag.as_str() {
            "--resource" => resource = true,
            "--two-cycle-mul" => two_cycle_mul = true,
            "--json" => json = true,
            "--style2" => knobs.set("style", "2").map_err(|e| e.to_string())?,
            "--lib" => lib = Some(next(&mut it, "--lib needs a file path")?.clone()),
            "--microcode" => microcode = true,
            "--verilog" => verilog = true,
            "--testbench" => testbench = true,
            "--check" => check = true,
            "--dot" => dot = true,
            "--svg" => svg = Some(next(&mut it, "--svg needs a file path")?.clone()),
            "--vcd" => vcd = Some(next(&mut it, "--vcd needs a file path")?.clone()),
            "--grid" => grid = Some(next(&mut it, "--grid needs a file path")?.clone()),
            "--threads" => threads = parsed(&mut it, flag)?,
            "--emit" => emit = Some(next(&mut it, "--emit needs a file path")?.clone()),
            "--top" => top = parsed(&mut it, flag)?,
            "--trace" => tel.trace = Some(next(&mut it, "--trace needs a file path")?.clone()),
            "--chrome-trace" => {
                tel.chrome = Some(next(&mut it, "--chrome-trace needs a file path")?.clone())
            }
            "--metrics" => tel.metrics = true,
            "-v" | "--verbose" => tel.verbose = true,
            "-q" | "--quiet" => tel.quiet = true,
            other => return Err(unknown_flag(sub, other)),
        }
    }
    let single_cs = |name: &str| -> Result<u32, String> {
        match cs_list[..] {
            [one] => Ok(one),
            [] => Err(format!("{name} requires --cs")),
            _ => Err(format!("{name} takes a single --cs value")),
        }
    };
    let point = |algorithm: Algorithm, cs: u32| DesignPoint {
        algorithm,
        cs,
        ..knobs.clone()
    };
    match sub.as_str() {
        "info" => Ok(Command::Info { file, dot }),
        "schedule" => Ok(Command::Schedule {
            file,
            point: point(Algorithm::Mfs, single_cs("schedule")?),
            resource,
            two_cycle_mul,
            json,
            svg,
            tel,
        }),
        "synth" => Ok(Command::Synth {
            file,
            point: point(Algorithm::Mfsa, single_cs("synth")?),
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
        }),
        "explore" => {
            if grid.is_some() && (!algs.is_empty() || !cs_list.is_empty()) {
                return Err("use either --grid or --alg/--cs, not both".into());
            }
            if grid.is_none() && cs_list.is_empty() {
                return Err("explore requires --grid or --cs".into());
            }
            if tel.wants_events() {
                return Err("explore does not support --trace/--chrome-trace".into());
            }
            if algs.is_empty() {
                algs.push(Algorithm::Mfs);
            }
            let points = algs
                .iter()
                .flat_map(|&alg| cs_list.iter().map(move |&cs| (alg, cs)))
                .map(|(alg, cs)| point(alg, cs))
                .collect();
            Ok(Command::Explore {
                file,
                grid,
                points,
                two_cycle_mul,
                threads,
                emit,
                tel,
            })
        }
        "profile" => {
            // A baseline algorithm is rejected where it runs, by
            // `run_move_frame`.
            let alg = match algs[..] {
                [] => Algorithm::Mfs,
                [one] => one,
                _ => return Err("profile takes a single --alg value".into()),
            };
            let cs = match cs_list[..] {
                [] => None,
                [one] => Some(one),
                _ => return Err("profile takes a single --cs value".into()),
            };
            Ok(Command::Profile {
                file,
                cs,
                alg,
                top,
                json,
                two_cycle_mul,
                quiet: tel.quiet,
            })
        }
        other => Err(format!("unknown subcommand `{other}`\n{}", usage())),
    }
}
