//! Statistics, process measurements and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile of `sorted` (`q` in 0..=1), in the samples'
/// unit; the maximum when there are too few samples for `q`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Percentile `q` of each non-empty group (ns), averaged over the
/// groups, in ms. With one group this is the plain percentile; with a
/// rotation of designs each design weighs the same however many passes
/// it got.
pub fn grouped_percentile(groups: &[Vec<u64>], q: f64) -> f64 {
    let per_group: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| {
            let mut sorted = g.clone();
            sorted.sort_unstable();
            percentile(&sorted, q) as f64 / 1e6
        })
        .collect();
    if per_group.is_empty() {
        0.0
    } else {
        per_group.iter().sum::<f64>() / per_group.len() as f64
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's memory counters (Linux; `None` elsewhere).
fn status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

fn field_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Resident anonymous memory (heap and stacks) now, in KiB.
pub fn anon_kb() -> Option<u64> {
    field_kb(&status()?, "RssAnon:")
}

/// Resident anonymous memory at the peak since start or the last reset,
/// in KiB: the peak resident set minus the file-backed and shared pages
/// resident now. File-backed pages — the program's code, which the
/// kernel maps in as execution first reaches it — only grow while
/// nothing is reclaimed, so this is the anonymous part of the peak (a
/// little less if code first ran after it). Counting them would add up
/// to 0.2 MiB of run-to-run jitter.
pub fn peak_anon_kb() -> Option<u64> {
    let s = status()?;
    let shared = field_kb(&s, "RssFile:")? + field_kb(&s, "RssShmem:")?;
    Some(field_kb(&s, "VmHWM:")?.saturating_sub(shared))
}

/// Resets the peak-RSS watermark to the current RSS. Returns whether
/// the kernel accepted it; without it the peak covers input generation.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The checkout's git commit, read from `.git` when there is one.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    s.push_str("}}");
    s
}
