//! Structural checks for the committed `BENCH_serve.json`.
//!
//! Load-test throughput is machine-local, so `bench_diff` cannot
//! regenerate-and-diff the serving snapshot the way it pins the core
//! sweeps. What it *can* pin is everything deterministic about the
//! document: the request-count arithmetic of every phase, the cache
//! hit/miss bookkeeping (exactly-once per unique job), the
//! disk-restart counters (replayed jobs hit disk, none recompute), the
//! committed pre-reactor baseline figure, and the headline claim — at
//! least one keep-alive phase at **≥10×** that baseline. Perturbing
//! any of these fields in the committed file fails the gate, which is
//! what the CI negative test does.

use std::collections::BTreeMap;

use hls_serve::{parse_flat_object, JsonValue};

/// The cold throughput of the pre-reactor daemon, as committed before
/// the epoll rewrite. The document must carry exactly this figure so
/// its speedups stay anchored to a fixed denominator.
pub const BASELINE_COLD_RPS: &str = "3427.9";

/// The speedup factor the serving rewrite claims over the pre-reactor
/// baseline; some keep-alive phase in the document must reach it.
pub const REQUIRED_SPEEDUP: f64 = 10.0;

/// Every numeric field of the document keyed by `(section, name)`,
/// read with the flat-JSON reader. Each line holds one top-level field
/// — a scalar (section `document`) or a one-line flat object (section
/// = the field's name).
fn numbers(doc: &str) -> BTreeMap<(String, String), f64> {
    let mut out = BTreeMap::new();
    for line in doc.lines().map(|l| l.trim().trim_end_matches(',')) {
        let Some((name, value)) = line.split_once(": ") else {
            continue;
        };
        let (section, object) = match value.starts_with('{') {
            true => (name.trim_matches('"'), value.to_string()),
            false => ("document", format!("{{{line}}}")),
        };
        for (key, value) in parse_flat_object(&object).unwrap_or_default() {
            if let JsonValue::Num(n) = value {
                out.insert((section.to_string(), key), n);
            }
        }
    }
    out
}

/// Checks every deterministic invariant of a `BENCH_serve.json`
/// document; each violation becomes one drift line.
pub fn check(doc: &str) -> Vec<String> {
    match run_checks(doc) {
        Ok(drift) => drift,
        Err(e) => vec![e],
    }
}

fn run_checks(doc: &str) -> Result<Vec<String>, String> {
    let numbers = numbers(doc);
    let field = |sec: &str, key: &str| {
        let n = numbers.get(&(sec.to_string(), key.to_string()));
        n.copied().ok_or(format!("{sec} has no numeric \"{key}\""))
    };
    let unique = field("document", "unique_jobs")?;
    let sweep = unique * field("document", "clients")? * field("document", "rounds")?;

    let mut drift = Vec::new();
    for (sec, key, want) in [
        // Every phase sweeps the identical request total; batch
        // carries the same jobs as whole-sweep payloads.
        ("cold", "requests", sweep),
        ("keepalive", "requests", sweep),
        ("pipeline", "requests", sweep),
        ("batch", "requests", sweep),
        // Exactly-once compute: each unique job misses once; every
        // other request of the four phases is a memory-tier hit.
        ("cache", "misses", unique),
        ("cache", "hits", 4.0 * sweep - unique),
        // Disk restart: the first run persists every job, the restarted
        // daemon replays all of them from disk and recomputes none.
        ("disk", "first_run_writes", unique),
        ("disk", "restart_hits", unique),
        ("disk", "restart_misses", 0.0),
    ] {
        let got = field(sec, key)?;
        if got != want {
            drift.push(format!("{sec}.{key}: committed {got}, expected {want}"));
        }
    }

    // Overload: admission answers every request — served or rejected,
    // nothing dropped.
    let served = field("overload", "served_200")?;
    let rejected = field("overload", "rejected_429")?;
    let requests = field("overload", "requests")?;
    if served + rejected != requests {
        drift.push(format!(
            "overload accounting: {served} served + {rejected} rejected != {requests} requests"
        ));
    }

    // The speedup denominator is pinned, and the headline claim must
    // hold: at least one keep-alive phase at ≥10× the old daemon.
    if !doc.contains(&format!("\"baseline_cold_rps\": {BASELINE_COLD_RPS}")) {
        drift.push(format!(
            "baseline_cold_rps is not the committed pre-reactor figure {BASELINE_COLD_RPS}"
        ));
    }
    let mut best = 0.0f64;
    for phase in ["keepalive", "pipeline", "batch"] {
        best = best.max(field("speedup_vs_baseline", phase)?);
    }
    if best < REQUIRED_SPEEDUP {
        drift.push(format!(
            "best keep-alive speedup {best}x is below the claimed {REQUIRED_SPEEDUP}x"
        ));
    }

    Ok(drift)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
  "unique_jobs": 8,
  "clients": 4,
  "rounds": 4,
  "available_parallelism": 1,
  "cold": {"requests": 128, "wall_ms": 8.0, "throughput_rps": 15852.9, "p50_ms": 0.184, "p99_ms": 1.080},
  "keepalive": {"requests": 128, "wall_ms": 2.2, "throughput_rps": 58089.7, "p50_ms": 0.055, "p99_ms": 0.224},
  "pipeline": {"requests": 128, "wall_ms": 1.4, "throughput_rps": 91757.0, "p50_ms": 0.285, "p99_ms": 0.504},
  "batch": {"requests": 128, "wall_ms": 1.7, "throughput_rps": 75696.9, "p50_ms": 0.354, "p99_ms": 0.542},
  "cache": {"misses": 8, "hits": 504},
  "reactor": {"keepalive_reused": 260, "pipelined": 112},
  "disk": {"first_run_writes": 8, "restart_hits": 8, "restart_misses": 0},
  "baseline_cold_rps": 3427.9,
  "speedup_vs_baseline": {"cold": 4.6, "keepalive": 16.9, "pipeline": 26.8, "batch": 22.1},
  "overload": {"workers": 1, "queue_cap": 2, "requests": 128, "served_200": 118, "rejected_429": 10, "reject_rate": 0.078, "served_p99_ms": 1.231}
}"#;

    #[test]
    fn a_consistent_document_passes() {
        assert_eq!(check(GOOD), Vec::<String>::new());
    }

    #[test]
    fn each_deterministic_field_is_load_bearing() {
        for (from, to) in [
            ("\"misses\": 8", "\"misses\": 9"),
            ("\"hits\": 504", "\"hits\": 503"),
            ("\"restart_hits\": 8", "\"restart_hits\": 7"),
            ("\"restart_misses\": 0", "\"restart_misses\": 1"),
            ("\"first_run_writes\": 8", "\"first_run_writes\": 0"),
            (
                "\"cold\": {\"requests\": 128",
                "\"cold\": {\"requests\": 127",
            ),
            ("\"served_200\": 118", "\"served_200\": 117"),
            (
                "\"baseline_cold_rps\": 3427.9",
                "\"baseline_cold_rps\": 1.0",
            ),
        ] {
            let bad = GOOD.replace(from, to);
            assert_ne!(bad, GOOD, "perturbation {from} did not apply");
            assert!(!check(&bad).is_empty(), "perturbing {from} must fail");
        }
    }

    #[test]
    fn the_ten_x_claim_is_enforced() {
        let slow = GOOD.replace(
            "\"cold\": 4.6, \"keepalive\": 16.9, \"pipeline\": 26.8, \"batch\": 22.1",
            "\"cold\": 1.0, \"keepalive\": 2.0, \"pipeline\": 3.0, \"batch\": 4.0",
        );
        let drift = check(&slow);
        assert!(
            drift.iter().any(|d| d.contains("below the claimed")),
            "{drift:?}"
        );
    }

    #[test]
    fn missing_sections_are_one_clear_error() {
        let drift = check("{}");
        assert_eq!(drift.len(), 1);
        assert!(drift[0].contains("unique_jobs"), "{drift:?}");
    }
}
