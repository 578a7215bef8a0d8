//! `bench_diff` — the one front end to the committed `BENCH_*.json`
//! snapshots: regenerates each selected snapshot and checks the
//! committed file against it under its row's rule in
//! `hls_bench::snapshots`.
//!
//! ```text
//! bench_diff [--only NAME,...] [--quick | --sizes LIST] [--file PATH] [--print]
//!
//! bench_diff --quick                          # every snapshot, smoke sweeps
//! bench_diff                                  # full sweeps (slow)
//! bench_diff --only core --sizes 1000,5000    # core at explicit op counts
//! bench_diff --only core --quick --file F     # check F, not BENCH_core.json
//! bench_diff --only mem --print > BENCH_mem.json   # re-baseline
//! ```
//!
//! The snapshot names are the rows of `SNAPSHOTS`, which the usage
//! text lists; each row says how its file is compared. `--sizes`
//! applies to the rows marked `sized`; `--file` and `--print` take
//! exactly one `--only` name.
//!
//! Exit status: 0 when every selected snapshot matches, 1 on any
//! drift, 2 on a usage error or an unreadable file.

use hls_bench::snapshots::{Snapshot, Sweep, SNAPSHOTS};

/// The [`SNAPSHOTS`] names, or only those `--sizes` applies to.
fn names(sized_only: bool) -> Vec<&'static str> {
    SNAPSHOTS
        .iter()
        .filter(|s| s.sized || !sized_only)
        .map(|s| s.name)
        .collect()
}

/// The usage text, listing the [`SNAPSHOTS`] names.
fn usage() -> String {
    format!(
        "usage: bench_diff [--only NAME,...] [--quick | --sizes LIST] [--file PATH] [--print]
  names: {}
  --sizes takes comma-separated op counts ({} only)
  --file and --print take exactly one --only name",
        names(false).join(", "),
        names(true).join(", ")
    )
}

struct Options {
    only: Vec<&'static Snapshot>,
    sweep: Sweep,
    file: Option<String>,
    print: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut only, mut sizes, mut file) = (None, None, None);
    let (mut quick, mut print) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--only" => only = Some(value()?),
            "--quick" => quick = true,
            "--sizes" => sizes = Some(value()?),
            "--file" => file = Some(value()?),
            "--print" => print = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let only: Vec<&'static Snapshot> = match only {
        None => SNAPSHOTS.iter().collect(),
        Some(names) => names
            .split(',')
            .map(|n| {
                let row = SNAPSHOTS.iter().find(|s| s.name == n);
                row.ok_or(format!("unknown snapshot `{n}`"))
            })
            .collect::<Result<_, _>>()?,
    };
    let sweep = match (quick, sizes) {
        (true, Some(_)) => return Err("--quick and --sizes exclude each other".into()),
        (true, None) => Sweep::Quick,
        (false, None) => Sweep::Full,
        (false, Some(list)) => {
            if let Some(s) = only.iter().find(|s| !s.sized) {
                return Err(format!("--sizes does not apply to {}", s.name));
            }
            let op_count = |s: &str| s.parse().ok().filter(|&n: &usize| n > 0);
            Sweep::Sizes(
                list.split(',')
                    .map(|s| op_count(s).ok_or(format!("--sizes: `{s}` is not an op count")))
                    .collect::<Result<_, _>>()?,
            )
        }
    };
    if (file.is_some() || print) && only.len() != 1 {
        return Err("--file and --print take exactly one --only name".into());
    }
    Ok(Options {
        only,
        sweep,
        file,
        print,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args).unwrap_or_else(|e| {
        eprintln!("bench_diff: {e}\n{}", usage());
        std::process::exit(2);
    });
    if opts.print {
        print!("{}", (opts.only[0].regen)(&opts.sweep).doc);
        return;
    }
    let mut drift = Vec::new();
    for snap in &opts.only {
        let path = opts.file.as_deref().unwrap_or(snap.file);
        eprintln!("# bench_diff: {} ({path})", snap.name);
        let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_diff: cannot read {path}: {e}");
            std::process::exit(2);
        });
        drift.extend(snap.check(&opts.sweep, &committed));
    }
    if drift.is_empty() {
        println!("bench_diff: ok — fresh runs match the committed snapshots");
        return;
    }
    println!(
        "bench_diff: {} drift(s) from the committed snapshots:",
        drift.len()
    );
    for d in &drift {
        println!("  {d}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn parsed(line: &str) -> (Vec<&'static str>, Sweep, Option<String>, bool) {
        let o = parse_line(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        (
            o.only.iter().map(|s| s.name).collect(),
            o.sweep,
            o.file,
            o.print,
        )
    }

    #[test]
    fn flags_select_snapshots_and_a_sweep() {
        let (all, sweep, _, _) = parsed("--quick");
        assert_eq!((all.len(), sweep), (SNAPSHOTS.len(), Sweep::Quick));
        let (two, sweep, _, _) = parsed("--only core,mem --quick");
        assert_eq!((two, sweep), (vec!["core", "mem"], Sweep::Quick));
        let (core, sweep, _, _) = parsed("--only core --sizes 1000,5000");
        assert_eq!(core, ["core"]);
        assert_eq!(sweep, Sweep::Sizes(vec![1000, 5000]));
        let one = parsed("--only mem --file m.json --print");
        assert_eq!(one, (vec!["mem"], Sweep::Full, Some("m.json".into()), true));
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        for (line, message) in [
            ("--file", "--file needs a value"),
            ("--only", "--only needs a value"),
            ("--quick --sizes", "--sizes needs a value"),
            ("--only core --sizes 1k", "`1k` is not an op count"),
            ("--only core --sizes 1000,", "`` is not an op count"),
            ("--only core --sizes 0", "`0` is not an op count"),
            ("--only core,nope", "unknown snapshot `nope`"),
            ("--only core,mem --file x", "exactly one --only name"),
            ("--file x", "exactly one --only name"),
            ("--print", "exactly one --only name"),
            ("--only mem --sizes 1000", "does not apply to mem"),
            (
                "--only telemetry --sizes 1000",
                "does not apply to telemetry",
            ),
            ("--sizes 1000", "does not apply to mem"),
            ("--only core --quick --sizes 1000", "exclude each other"),
            ("--check", "unknown flag `--check`"),
        ] {
            match parse_line(line) {
                Ok(_) => panic!("`{line}` parsed"),
                Err(e) => assert!(e.contains(message), "`{line}`: {e}"),
            }
        }
    }

    #[test]
    fn usage_lists_exactly_the_snapshot_names() {
        let text = usage();
        let listed = |prefix: &str, suffix: &str| -> Vec<&str> {
            let line = text
                .lines()
                .find_map(|l| l.trim().strip_prefix(prefix))
                .unwrap_or_else(|| panic!("no `{prefix}` line in {text}"));
            line.strip_suffix(suffix)
                .unwrap_or(line)
                .split(", ")
                .collect()
        };
        let all: Vec<&str> = SNAPSHOTS.iter().map(|s| s.name).collect();
        assert_eq!(listed("names: ", ""), all);
        assert_eq!(
            listed("--sizes takes comma-separated op counts (", " only)"),
            names(true)
        );
    }
}
