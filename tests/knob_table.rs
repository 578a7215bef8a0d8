//! One table of design-point knob values, fed to every front end that
//! parses them: `mfhls` flags (`parse_args`), grid files (`parse_grid`)
//! and served jobs (`parse_job`, with the knobs in the query string and
//! in a JSON body).
//!
//! A valid value must give the same `DesignPoint::fingerprint()` on
//! every front end that accepts the knob. A zero or out-of-range value
//! must be the knob table's typed error on every front end: `error: …`
//! and exit code 1 from the CLI, a `GridError` at the knob's line, and
//! a 400 from the daemon — never a panic or a 500. So must a knob name
//! no front end knows, such as the retired `iterate`.

#[allow(dead_code)]
#[path = "../src/bin/mfhls/args.rs"]
mod args;

use std::collections::BTreeMap;
use std::process::Command as Process;
use std::time::Instant;

use moveframe_hls::explore::{Knob, KnobError, KnobKind};
use moveframe_hls::prelude::*;
use moveframe_hls::serve::{self, AppState, Request};

use args::{parse_args, Command};

const TOY: &str = "input a, b\nop p = mul(a, b)\nop q = add(p, b)\nop r = sub(q, a)\n";

/// Valid spellings: `(knob, value)`.
const VALID: &[(&str, &str)] = &[
    ("cs", "6"),
    ("cs", "12"),
    ("alg", "mfs"),
    ("alg", "mfsa"),
    ("alg", "list"),
    ("alg", "fds"),
    ("alg", "anneal"),
    ("limit", "*=2"),
    ("limit", "mul=2"),
    ("limit", "mul:2"),
    ("limit", "*=2,+=1"),
    ("chain", "100"),
    ("latency", "2"),
    ("pipeline", "*"),
    ("pipeline", "mul"),
    ("style", "1"),
    ("style", "2"),
    ("weights", "1,2,1,1"),
    ("label", "tight"),
];

/// Zero or out-of-range values: `(knob, value)`.
const INVALID: &[(&str, &str)] = &[
    ("cs", "0"),
    ("cs", "-1"),
    ("cs", "four"),
    ("alg", "nope"),
    ("limit", "*=0"),
    ("limit", "mul:0"),
    ("limit", "mul"),
    ("limit", "bogus=2"),
    ("chain", "0"),
    ("latency", "0"),
    ("pipeline", "bogus"),
    ("style", "0"),
    ("style", "3"),
    ("weights", "1,2"),
    ("weights", "1,2,3,4,5"),
    ("weights", "a,b,c,d"),
];

/// The algorithm a row runs: MFSA for its own knobs, MFS else.
fn home(knob: &str) -> &'static str {
    match knob {
        "style" | "weights" => "mfsa",
        _ => "mfs",
    }
}

/// The knob set of one row: the home algorithm at `cs = 6`, plus the
/// row's knob.
fn knob_set(knob: &'static str, value: &'static str) -> BTreeMap<&'static str, &'static str> {
    let mut set = BTreeMap::from([("alg", home(knob)), ("cs", "6")]);
    set.insert(knob, value);
    set
}

/// The `mfhls` command line for a row, if the CLI can spell it.
fn cli_args(knob: &str, value: &str) -> Option<Vec<String>> {
    let flag = format!("--{knob}");
    let (sub, flags) = match (knob, value) {
        ("cs", _) => ("schedule", vec!["--cs", value]),
        ("limit" | "chain" | "latency", _) => ("schedule", vec!["--cs", "6", &flag, value]),
        ("alg", _) => ("explore", vec!["--cs", "6", "--alg", value]),
        ("style", "2") => ("synth", vec!["--cs", "6", "--style2"]),
        ("weights", _) => ("synth", vec!["--cs", "6", &flag, value]),
        _ => return None,
    };
    Some(
        [sub, "x.dfg"]
            .into_iter()
            .chain(flags)
            .map(str::to_string)
            .collect(),
    )
}

fn cli_point(knob: &str, value: &str) -> Option<Result<DesignPoint, String>> {
    let args = cli_args(knob, value)?;
    Some(parse_args(&args).map(|command| match command {
        Command::Schedule { point, .. } | Command::Synth { point, .. } => point,
        Command::Explore { points, .. } => points[0].clone(),
        other => panic!("{args:?} parsed as {other:?}"),
    }))
}

/// The grid name of a knob.
fn grid_key(knob: &str) -> &str {
    match knob {
        "alg" => "algorithm",
        "chain" => "clock",
        "limit" => "limits",
        other => other,
    }
}

/// A TOML value for `value`: a bare integer where the knob wants one
/// and the text is a number, a quoted string otherwise; lists become
/// arrays.
fn toml_value(knob: &str, value: &str) -> String {
    let kind = Knob::lookup(knob).expect("table knob").kind;
    let scalar = |v: &str| match kind {
        KnobKind::Int | KnobKind::IntList if v.parse::<u32>().is_ok() => v.to_string(),
        _ => format!("\"{v}\""),
    };
    match kind {
        KnobKind::IntList | KnobKind::TextList => {
            let items: Vec<String> = value.split(',').map(scalar).collect();
            format!("[{}]", items.join(", "))
        }
        _ => scalar(value),
    }
}

/// A one-point grid file for a row, and the line the row's knob is on.
fn grid_text(knob: &'static str, value: &'static str) -> (String, usize) {
    let mut text = String::from("# one point\n[[point]]\n");
    let mut line = 0;
    for (i, (k, v)) in knob_set(knob, value).into_iter().enumerate() {
        text.push_str(&format!("{} = {}\n", grid_key(k), toml_value(k, v)));
        if k == knob {
            line = i + 3;
        }
    }
    (text, line)
}

fn query_request(knob: &'static str, value: &'static str) -> Request {
    Request {
        method: "POST".into(),
        path: "/schedule".into(),
        query: knob_set(knob, value)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        body: TOY.as_bytes().to_vec(),
    }
}

fn json_request(knob: &'static str, value: &'static str) -> Request {
    let mut body = String::from("{\"dfg\":\"");
    serve::escape_into(&mut body, TOY);
    body.push('"');
    for (k, v) in knob_set(knob, value) {
        let kind = Knob::lookup(k).expect("table knob").kind;
        if kind == KnobKind::Int && v.parse::<i64>().is_ok() {
            body.push_str(&format!(",\"{k}\":{v}"));
        } else {
            body.push_str(&format!(",\"{k}\":\"{v}\""));
        }
    }
    body.push('}');
    Request {
        method: "POST".into(),
        path: "/schedule".into(),
        query: Vec::new(),
        body: body.into_bytes(),
    }
}

#[test]
fn valid_spellings_give_one_fingerprint_on_every_front_end() {
    for &(knob, value) in VALID {
        let what = format!("{knob}={value}");
        let grid = moveframe_hls::explore::parse_grid(&grid_text(knob, value).0)
            .unwrap_or_else(|e| panic!("{what}: grid: {e}"));
        let query = serve::parse_job(&query_request(knob, value))
            .unwrap_or_else(|e| panic!("{what}: query: {e}"));
        let json = serve::parse_job(&json_request(knob, value))
            .unwrap_or_else(|e| panic!("{what}: json: {e}"));
        let fp = grid[0].fingerprint();
        assert_eq!(query.point.fingerprint(), fp, "{what}: query vs grid");
        assert_eq!(json.point.fingerprint(), fp, "{what}: json vs grid");
        assert_eq!(query.point.label, grid[0].label, "{what}");
        if let Some(cli) = cli_point(knob, value) {
            let cli = cli.unwrap_or_else(|e| panic!("{what}: cli: {e}"));
            assert_eq!(cli.fingerprint(), fp, "{what}: cli vs grid");
        }
    }
    // Op symbols and names, `=` and `:`, are one spelling of a limit.
    let fp = |v| {
        serve::parse_job(&query_request("limit", v))
            .unwrap()
            .point
            .fingerprint()
    };
    assert_eq!(fp("*=2"), fp("mul:2"));
    assert_ne!(fp("*=2"), fp("*=3"));
}

#[test]
fn bad_values_are_typed_errors_on_every_front_end() {
    let state = AppState::new(16, None);
    for &(knob, value) in INVALID {
        let what = format!("{knob}={value}");
        // The table's error, naming the knob as the front end spells it.
        let typed = |key: &str| {
            let mut point = DesignPoint::new(moveframe_hls::explore::Algorithm::Mfs, 6);
            point.set(key, value).unwrap_err()
        };
        assert!(
            matches!(typed(knob), KnobError::Invalid { knob: k, .. } if k == knob),
            "{what}: {:?}",
            typed(knob)
        );
        let message = typed(knob).to_string();

        let (text, line) = grid_text(knob, value);
        let grid = moveframe_hls::explore::parse_grid(&text).unwrap_err();
        assert_eq!(grid.line, line, "{what}: {grid}");
        // A non-number where TOML wants an integer is a type error at
        // the same line; every well-typed value reaches the table.
        let kind = Knob::lookup(knob).expect("table knob").kind;
        let well_typed = matches!(kind, KnobKind::Text | KnobKind::TextList)
            || value.split(',').all(|v| v.parse::<u32>().is_ok());
        if well_typed {
            let message = typed(grid_key(knob)).to_string();
            assert!(grid.message.contains(&message), "{what}: {grid}");
        }

        for req in [query_request(knob, value), json_request(knob, value)] {
            let err = serve::parse_job(&req).unwrap_err();
            assert!(err.contains(&message), "{what}: {err}");
            let response = serve::handle(&state, &req, Instant::now());
            assert_eq!(response.status, 400, "{what}");
        }

        if let Some(args) = cli_args(knob, value) {
            let err = cli_point(knob, value).unwrap().unwrap_err();
            assert!(err.contains(&message), "{what}: {err}");
            let out = Process::new(env!("CARGO_BIN_EXE_mfhls"))
                .args(&args)
                .output()
                .expect("mfhls runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
            assert!(stderr.starts_with("error: "), "{what}: {stderr}");
        }
    }
}

#[test]
fn each_front_end_keeps_its_own_knob_names() {
    // The CLI has no flag for these knobs or spellings.
    for flag in ["--pipeline", "--label", "--style", "--clock", "--algorithm"] {
        let args: Vec<String> = ["schedule", "x.dfg", "--cs", "6", flag, "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse_args(&args).is_err(), "{flag}");
    }
    // Grid files spell the knobs `algorithm`, `clock` and `limits`.
    for key in ["alg", "chain", "limit"] {
        let text = format!(
            "[[point]]\nalgorithm = \"mfs\"\ncs = 6\n{key} = {}\n",
            toml_value(key, "1")
        );
        let e = moveframe_hls::explore::parse_grid(&text).unwrap_err();
        assert!(e.message.contains("unknown key"), "{key}: {e}");
    }
    // Served jobs spell them `alg` and `chain`; the grid spellings are
    // unknown keys there.
    for key in ["clock", "algorithm"] {
        let mut req = query_request("cs", "6");
        req.query.push((key.into(), "100".into()));
        let e = serve::parse_job(&req).unwrap_err();
        assert!(e.contains(&format!("unknown job key `{key}`")), "{e}");
    }
    // A JSON value of the wrong type is a 400 naming the knob, for text
    // and list knobs as for numeric ones; `null` means "not given".
    let mut req = json_request("cs", "6");
    let body = String::from_utf8(req.body).unwrap();
    req.body = body.replace('}', ",\"label\":null}").into_bytes();
    let job = serve::parse_job(&req).unwrap();
    assert_eq!(
        (job.point.algorithm.name(), job.point.label.as_str()),
        ("mfs", "")
    );
    for (key, value) in [
        ("alg", "5"),
        ("label", "true"),
        ("limit", "2"),
        ("pipeline", "3"),
        ("weights", "1"),
    ] {
        req.body = body
            .replace('}', &format!(",\"{key}\":{value}}}"))
            .into_bytes();
        let e = serve::parse_job(&req).unwrap_err();
        assert!(e.contains(&format!("`{key}`")), "{key}: {e}");
    }
    req.body = body.replace("\"cs\":6", "\"cs\":true").into_bytes();
    assert!(matches!(serve::parse_job(&req), Err(e) if e.contains("`cs`")));
}

#[test]
fn the_retired_iterate_knob_is_a_typed_error_on_every_front_end() {
    // The CLI: each subcommand that took `--iterate`, and the binary
    // exits 1 with an error line rather than panicking.
    for sub in ["synth", "explore", "schedule"] {
        let args: Vec<String> = [sub, "x.dfg", "--cs", "6", "--iterate", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = parse_args(&args).unwrap_err();
        assert!(
            err.contains(&format!("unknown {sub} flag `--iterate`")),
            "{err}"
        );
        let out = Process::new(env!("CARGO_BIN_EXE_mfhls"))
            .args(&args)
            .output()
            .expect("mfhls runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sub}: {stderr}");
        assert!(stderr.starts_with("error: "), "{sub}: {stderr}");
        assert!(stderr.contains("`--iterate`"), "{sub}: {stderr}");
    }
    let err = parse_args(&["synth".into(), "x.dfg".into(), "--iterate-profile".into()]);
    assert!(err.unwrap_err().contains("`--iterate-profile`"));

    // The grid file: an unknown key at its line.
    let e =
        moveframe_hls::explore::parse_grid("[[point]]\nalgorithm = \"mfs\"\ncs = 6\niterate = 3\n")
            .unwrap_err();
    assert_eq!(e.line, 4, "{e}");
    assert!(e.message.contains("unknown key iterate"), "{e}");

    // The knob table itself.
    let mut point = DesignPoint::new(moveframe_hls::explore::Algorithm::Mfs, 6);
    assert_eq!(
        point.set("iterate", "3"),
        Err(KnobError::Unknown("iterate".into()))
    );

    // Served jobs: the query string and a JSON body are both a 400
    // naming the key.
    let state = AppState::new(16, None);
    let mut query = query_request("cs", "6");
    query.query.push(("iterate".into(), "3".into()));
    let mut json = json_request("cs", "6");
    let body = String::from_utf8(json.body).unwrap();
    json.body = body.replace('}', ",\"iterate\":3}").into_bytes();
    for req in [query, json] {
        let err = serve::parse_job(&req).unwrap_err();
        assert!(err.contains("unknown job key `iterate`"), "{err}");
        let response = serve::handle(&state, &req, Instant::now());
        assert_eq!(response.status, 400);
        assert!(String::from_utf8(response.body)
            .unwrap()
            .contains("iterate"));
    }
}

#[test]
fn chained_csteps_agree_between_the_cli_and_the_daemon() {
    // The 163 ns multiply spans two 100 ns steps, so a chained
    // add → mul ends in step 3, not 2.
    let text = "input a, b, c\nop s = add(a, b)\nop p = mul(s, c)\n";
    let path = std::env::temp_dir().join(format!("knob-table-chain-{}.dfg", std::process::id()));
    std::fs::write(&path, text).unwrap();
    let out = Process::new(env!("CARGO_BIN_EXE_mfhls"))
        .arg("schedule")
        .arg(&path)
        .args(["--cs", "4", "--chain", "100", "--json"])
        .output()
        .expect("mfhls runs");
    std::fs::remove_file(&path).unwrap();
    let cli = String::from_utf8(out.stdout).unwrap();
    assert!(cli.contains("\"csteps\":3"), "{cli}");

    let state = AppState::new(16, None);
    let req = Request {
        method: "POST".into(),
        path: "/schedule".into(),
        query: vec![("cs".into(), "4".into()), ("chain".into(), "100".into())],
        body: text.as_bytes().to_vec(),
    };
    let response = serve::handle(&state, &req, Instant::now());
    assert_eq!(response.status, 200);
    assert_eq!(String::from_utf8(response.body).unwrap(), cli);
}
