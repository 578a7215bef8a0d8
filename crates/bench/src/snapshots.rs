//! Every committed `BENCH_*.json` snapshot behind one table, and the
//! two comparisons `bench_diff` applies to them.
//!
//! A [`Snapshot`] row names its file, regenerates its document for a
//! [`Sweep`], and says how the fresh document is held against the
//! committed one:
//!
//! * **keyed lines** (core) — each fresh entry line is paired with
//!   the committed line carrying its key, and every `"field":value`
//!   pair of either line must match except the machine-local `wall_ms`
//!   ([`diff_keyed`]);
//! * **byte-exact text** (mem, telemetry) — the documents hold no
//!   timing fields, so the fresh bytes must equal the committed ones
//!   ([`diff_text`]).

use std::collections::BTreeMap;

use hls_celllib::{Library, TimingSpec};
use hls_dfg::{CriticalPath, Dfg};
use hls_explore::run_move_frame;
use hls_mem::port_pressure;
use hls_serve::{parse_flat_object, JsonValue};
use hls_telemetry::{Instrument, Metrics, NullSink};
use moveframe::mfs::{self, MfsConfig};
use moveframe::mfsa::{self, MfsaConfig};
use moveframe::CancelToken;

use crate::{mfs_point, mfsa_point, scaling};

/// Which part of a sweep to regenerate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sweep {
    /// The CI smoke subset.
    Quick,
    /// Everything the committed document holds.
    Full,
    /// Explicit op counts (core only).
    Sizes(Vec<usize>),
}

impl Sweep {
    /// The op counts this sweep selects from a row's quick and full
    /// size lists.
    pub fn sizes<'a>(&'a self, quick: &'a [usize], full: &'a [usize]) -> &'a [usize] {
        match self {
            Sweep::Quick => quick,
            Sweep::Full => full,
            Sweep::Sizes(sizes) => sizes,
        }
    }
}

/// A freshly regenerated snapshot document.
pub struct Fresh {
    /// The document, newline-terminated as committed.
    pub doc: String,
    /// The key of every entry line, for [`diff_keyed`]; `None` compares
    /// the whole document byte for byte ([`diff_text`]).
    pub keys: Option<Vec<String>>,
}

impl Fresh {
    /// Keyed lines from entries with a `key()` and their rendered
    /// document.
    pub fn keyed<E>(entries: &[E], key: impl Fn(&E) -> String, doc: String) -> Fresh {
        let keys = Some(entries.iter().map(key).collect());
        Fresh {
            doc: doc + "\n",
            keys,
        }
    }

    /// Drift of `committed` from this document; empty when it matches.
    pub fn diff(&self, committed: &str) -> Vec<String> {
        match &self.keys {
            Some(keys) => diff_keyed(&self.doc, keys, committed),
            None => diff_text(&self.doc, committed),
        }
    }
}

/// One committed snapshot.
pub struct Snapshot {
    /// The `--only` name.
    pub name: &'static str,
    /// The committed file, relative to the repository root.
    pub file: &'static str,
    /// Whether `--sizes` selects this sweep's op counts.
    pub sized: bool,
    /// Regenerates the document.
    pub regen: fn(&Sweep) -> Fresh,
}

/// Every committed snapshot, in the order `bench_diff` checks them.
pub const SNAPSHOTS: [Snapshot; 3] = [
    Snapshot {
        name: "core",
        file: "BENCH_core.json",
        sized: true,
        regen: scaling::snapshot,
    },
    Snapshot {
        name: "mem",
        file: "BENCH_mem.json",
        sized: false,
        regen: mem_snapshot,
    },
    Snapshot {
        name: "telemetry",
        file: "BENCH_telemetry.json",
        sized: false,
        regen: telemetry_snapshot,
    },
];

impl Snapshot {
    /// Regenerates this snapshot for `sweep` and checks `committed`
    /// against it. Returns one message per drift, each prefixed with
    /// the row name.
    pub fn check(&self, sweep: &Sweep, committed: &str) -> Vec<String> {
        (self.regen)(sweep)
            .diff(committed)
            .into_iter()
            .map(|d| format!("{}: {d}", self.name))
            .collect()
    }
}

/// The fields of one entry line (`{"k":v,...}` with an optional
/// trailing comma), `wall_ms` dropped.
fn fields(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut map = parse_flat_object(line.trim().trim_end_matches(','))?;
    map.remove("wall_ms");
    Ok(map)
}

/// A field value as the snapshot spells it.
fn show(value: &JsonValue) -> String {
    match value {
        JsonValue::Str(s) => format!("\"{s}\""),
        JsonValue::Num(n) => n.to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Null => "null".into(),
    }
}

/// The keyed-line comparison: pairs each fresh entry line with the
/// committed line carrying the same key, then compares every field of
/// both lines except `wall_ms`. Committed entries with no fresh
/// counterpart (sizes outside the sweep) are left unverified.
pub fn diff_keyed(fresh: &str, keys: &[String], committed: &str) -> Vec<String> {
    let mut drift = Vec::new();
    for key in keys {
        let Some(base) = committed.lines().find(|l| l.contains(key.as_str())) else {
            drift.push(format!("no committed entry for {key}"));
            continue;
        };
        let now = fresh
            .lines()
            .find(|l| l.contains(key.as_str()))
            .expect("every key names a fresh line");
        let (base, now) = match (fields(base), fields(now)) {
            (Ok(base), Ok(now)) => (base, now),
            (Err(e), _) | (_, Err(e)) => {
                drift.push(format!("{key}: unreadable entry: {e}"));
                continue;
            }
        };
        for (name, was) in &base {
            match now.get(name) {
                None => drift.push(format!("{key}: fresh entry lacks {name}")),
                Some(is) if is != was => {
                    drift.push(format!("{key}: {name} {} -> {}", show(was), show(is)))
                }
                Some(_) => {}
            }
        }
        for name in now.keys().filter(|n| !base.contains_key(*n)) {
            drift.push(format!("{key}: committed entry lacks {name}"));
        }
    }
    drift
}

/// The byte-exact comparison, pointing at the first differing line.
pub fn diff_text(fresh: &str, committed: &str) -> Vec<String> {
    if fresh == committed {
        return Vec::new();
    }
    let (mut f, mut c) = (fresh.split('\n'), committed.split('\n'));
    let (f, c) = loop {
        match (f.next(), c.next()) {
            (f, c) if f == c => continue,
            pair => break pair,
        }
    };
    let end = "<end of document>";
    vec![format!(
        "first drift:\n    committed: {}\n    fresh:     {}",
        c.unwrap_or(end),
        f.unwrap_or(end)
    )]
}

const PORTS: [u32; 3] = [1, 2, 4];
/// How far past the critical path the search is willing to go before
/// declaring a kernel infeasible (never reached in practice).
const SEARCH_SPAN: u32 = 256;

/// The smallest `cs >= cp` the scheduler accepts, or `None`.
fn min_feasible(dfg: &Dfg, spec: &TimingSpec, mut try_cs: impl FnMut(u32) -> bool) -> Option<u32> {
    let cp = CriticalPath::compute(dfg, spec).steps() as u32;
    (cp..cp + SEARCH_SPAN).find(|&cs| try_cs(cs))
}

fn sweep(label: &str, build: impl Fn(u32) -> Dfg) -> String {
    let spec = TimingSpec::uniform_single_cycle();
    let mut rows = Vec::new();
    let mut last_mfsa = None;
    for ports in PORTS {
        let dfg = build(ports);
        let cp = CriticalPath::compute(&dfg, &spec).steps() as u32;
        let mfs_min = min_feasible(&dfg, &spec, |cs| {
            mfs::schedule(&dfg, &spec, &MfsConfig::time_constrained(cs)).is_ok()
        })
        .unwrap_or_else(|| panic!("{label} ports={ports}: MFS found no feasible cs"));
        let mut out = None;
        let mfsa_min = min_feasible(&dfg, &spec, |cs| {
            match mfsa::schedule(&dfg, &spec, &MfsaConfig::new(cs, Library::ncr_like())) {
                Ok(o) => {
                    out = Some(o);
                    true
                }
                Err(_) => false,
            }
        })
        .unwrap_or_else(|| panic!("{label} ports={ports}: MFSA found no feasible cs"));
        let out = out.expect("search success stores the outcome");
        let pressure = port_pressure(&dfg, &out.schedule).expect("port-bound MFSA schedule");
        let peaks: Vec<String> = dfg
            .memory()
            .banks()
            .iter()
            .map(|b| {
                format!(
                    "{{\"bank\":\"{}\",\"ports\":{},\"peak\":{}}}",
                    b.name(),
                    b.ports(),
                    pressure.peak(b.id())
                )
            })
            .collect();
        // The monotonicity the CI smoke job also pins: more ports never
        // lengthen the minimum schedule.
        if let Some(prev) = last_mfsa {
            assert!(
                mfsa_min <= prev,
                "{label}: {ports} ports needs {mfsa_min} steps, more than {prev} at fewer ports"
            );
        }
        last_mfsa = Some(mfsa_min);
        rows.push(format!(
            "    {{\"ports\":{ports},\"critical_path\":{cp},\"min_csteps_mfs\":{mfs_min},\"min_csteps_mfsa\":{mfsa_min},\"peak_pressure\":[{}]}}",
            peaks.join(",")
        ));
    }
    format!("  \"{label}\": [\n{}\n  ]", rows.join(",\n"))
}

/// Regenerates the `BENCH_mem.json` document: each memory benchmark
/// kernel rebuilt at 1, 2 and 4 bank ports, with the minimum feasible
/// time constraint of MFS and MFSA found by upward search from the
/// dependency critical path, plus the peak per-bank port pressure of
/// the MFSA schedule at that minimum. Fully deterministic, so it is
/// compared byte for byte; every sweep regenerates all of it.
pub fn mem_snapshot(_: &Sweep) -> Fresh {
    let fir = sweep("array_fir_8", |p| hls_benchmarks::memory::array_fir(8, p));
    let mv = sweep("matvec_3", |p| hls_benchmarks::memory::matvec(3, p));
    let doc = format!(
        "{{\n  \"note\": \"minimum feasible control steps by bank port count; searched upward from the dependency critical path\",\n{fir},\n{mv}\n}}\n"
    );
    Fresh { doc, keys: None }
}

/// Regenerates the `BENCH_telemetry.json` document: every paper example
/// run through instrumented MFS (at each Table-1 time constraint) and
/// MFSA (at its Table-2 constraint), with all counters and histograms
/// merged into one registry and `bench.mfs.runs` / `bench.mfsa.runs`
/// counting the runs. Timing histograms (`phase.*.ns`) vary run to run,
/// so they are dropped — everything left is deterministic and compared
/// byte for byte.
pub fn telemetry_snapshot(_: &Sweep) -> Fresh {
    let mut sink = NullSink;
    let mut metrics = Metrics::new();
    let mut instr = Instrument::new(&mut sink, &mut metrics);
    let never = CancelToken::never();

    for e in hls_benchmarks::examples::all() {
        for &t in &e.time_constraints {
            run_move_frame(&e.dfg, &e.spec, &mfs_point(&e, t), &never, &mut instr)
                .unwrap_or_else(|err| panic!("ex{} at T={t}: {err}", e.id));
            instr.inc("bench.mfs.runs", 1);
        }
        let point = mfsa_point(&e, e.mfsa_cs, 1);
        run_move_frame(&e.dfg, &e.spec, &point, &never, &mut instr)
            .unwrap_or_else(|err| panic!("ex{} MFSA: {err}", e.id));
        instr.inc("bench.mfsa.runs", 1);
    }

    metrics.retain(|name| !name.ends_with(".ns"));
    let doc = metrics.to_json() + "\n";
    Fresh { doc, keys: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed core document with the key of its first entry
    /// line (its first three fields).
    fn core_document() -> (String, &'static str) {
        let doc = include_str!("../../../BENCH_core.json");
        let line = doc.lines().find(|l| l.contains("{\"")).unwrap();
        let fields: Vec<&str> = line.trim_start()[1..].split(',').take(3).collect();
        (fields.join(","), doc)
    }

    /// `line` with field `name` set to the raw `value`, or dropped.
    fn splice(line: &str, name: &str, value: Option<&str>) -> String {
        let tag = format!("\"{name}\":");
        let start = line.find(&tag).unwrap();
        let end = start + line[start..].find([',', '}']).unwrap();
        match value {
            Some(v) => format!("{}{tag}{v}{}", &line[..start], &line[end..]),
            None => format!("{}{}", &line[..start - 1], &line[end..]),
        }
    }

    #[test]
    fn keyed_diff_pins_every_field_but_wall_ms() {
        let (key, doc) = core_document();
        let keys = [key.clone()];
        let line = doc.lines().find(|l| l.contains(&key)).unwrap();
        let with = |l: String| doc.replace(line, &l);

        let wall = with(splice(line, "wall_ms", Some("9999.9")));
        assert_ne!(wall, doc);
        assert!(diff_keyed(doc, &keys, &wall).is_empty(), "{key}");

        let mut pinned = Vec::new();
        for (name, value) in fields(line).unwrap() {
            if key.contains(&format!("\"{name}\":")) {
                continue;
            }
            let other = match &value {
                JsonValue::Num(n) => (n + 1.0).to_string(),
                JsonValue::Str(s) => format!("\"{s}0\""),
                JsonValue::Bool(b) => (!b).to_string(),
                JsonValue::Null => unreachable!("no snapshot field is null"),
            };
            let drift = diff_keyed(doc, &keys, &with(splice(line, &name, Some(&other))));
            assert_eq!(drift.len(), 1, "{key} {name}: {drift:?}");
            assert!(drift[0].contains(&format!(": {name} ")), "{drift:?}");
            pinned.push(name);
        }
        assert!(pinned.len() >= 8, "{key}: only {pinned:?} compared");
        assert!(pinned.contains(&"fingerprint".to_string()), "{key}");

        let renamed = doc.replace(&key, "\"name\":\"gone\"");
        let drift = diff_keyed(doc, &keys, &renamed);
        assert_eq!(drift, [format!("no committed entry for {key}")]);

        let short = with(splice(line, "fingerprint", None));
        let drift = diff_keyed(&short, &keys, doc);
        assert_eq!(drift, [format!("{key}: fresh entry lacks fingerprint")]);
        let drift = diff_keyed(doc, &keys, &short);
        assert_eq!(drift, [format!("{key}: committed entry lacks fingerprint")]);
    }

    #[test]
    fn telemetry_snapshot_is_deterministic_without_timings() {
        let fresh = telemetry_snapshot(&Sweep::Full);
        let doc = &fresh.doc;
        assert_eq!(*doc, telemetry_snapshot(&Sweep::Full).doc);
        assert!(doc.contains("\"mfs.energy_evaluations\""));
        assert!(doc.contains("\"mfsa.reuse_memo.hits\""));
        assert!(doc.contains("\"mfsa.reuse_memo.insert_hits\""));
        assert!(!doc.contains(".ns\""), "timing histograms must be dropped");

        // Byte-exact: whitespace and the final newline count as drift.
        assert!(fresh.diff(doc).is_empty());
        assert_eq!(fresh.diff(doc.trim_end()).len(), 1);
        assert_eq!(fresh.diff(&doc.replacen('\n', " \n", 1)).len(), 1);
    }
}
