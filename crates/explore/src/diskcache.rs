//! The warm on-disk tier of the exploration cache.
//!
//! A restarted daemon starts with an empty in-memory LRU; without a
//! second tier every previously-served point recomputes. This module
//! persists **successfully computed** [`PointMetrics`] under the same
//! content address the memory layer uses — `(DFG fingerprint, point
//! fingerprint)` — in a directory of small self-verifying text entries:
//!
//! * one file per key, named `<dfg_fp>-<point_fp>.pm`, under a
//!   `v<FORMAT>` subdirectory so a future format bump never
//!   misinterprets old bytes;
//! * writes go to a unique temp file in the same directory and land via
//!   `rename(2)`, so a crash mid-write can never leave a half-entry
//!   under a valid name, and concurrent writers (two daemons sharing a
//!   cache dir) each install a complete file;
//! * every entry ends in an FNV-1a checksum line; a truncated, edited
//!   or torn entry fails verification and is treated as a **miss**
//!   (and unlinked so the following store replaces it) — corruption
//!   costs one recompute, never an error and never a crash.
//!
//! Only `Ok` results are persisted: errors are cheap to re-derive and
//! cancellations must never outlive the request that caused them
//! (mirroring the memory layer's `forget` hygiene).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::engine::{BankPressure, MfsaDetail, PointMetrics};
use crate::fingerprint::Fnv1a;

/// On-disk entry format version; bumped on any encoding change and on
/// any change to how a stored metric is computed or keyed (v2: chained
/// `csteps` count clock-multicycled operations at their effective
/// length; v3: the point fingerprint no longer hashes a refinement
/// round count).
pub const DISK_FORMAT_VERSION: u32 = 3;

/// Counters of the disk tier, for `/metrics` (`serve.cache.disk.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Entries loaded and verified.
    pub hits: u64,
    /// Lookups with no entry on disk.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries that failed verification (treated as misses).
    pub corrupt: u64,
    /// I/O errors on read or write (treated as misses / dropped writes).
    pub errors: u64,
}

/// The content-addressed on-disk result store.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    errors: AtomicU64,
    tmp_seq: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if needed) the cache under `root`. Entries live
    /// in `root/v<FORMAT>/`; only directory creation can fail — every
    /// later read/write error degrades to a miss instead.
    pub fn open(root: &Path) -> io::Result<DiskCache> {
        let dir = root.join(format!("v{DISK_FORMAT_VERSION}"));
        fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The directory entries are stored in (the versioned subdir).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for this key lives at.
    pub fn entry_path(&self, dfg_fp: u64, point_fp: u64) -> PathBuf {
        self.dir.join(format!("{dfg_fp:016x}-{point_fp:016x}.pm"))
    }

    /// Loads and verifies the entry for `(dfg_fp, point_fp)`. Any
    /// failure — absent, unreadable, corrupt — is `None`; corrupt
    /// entries are additionally unlinked so they are recomputed once
    /// and then rewritten, not re-parsed on every request.
    pub fn load(&self, dfg_fp: u64, point_fp: u64) -> Option<PointMetrics> {
        let path = self.entry_path(dfg_fp, point_fp);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_entry(&text, dfg_fp, point_fp) {
            Some(metrics) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(metrics)
            }
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Persists `metrics` for `(dfg_fp, point_fp)`: temp file in the
    /// same directory, then an atomic rename onto the final name.
    /// Failures are counted and swallowed — the disk tier is an
    /// accelerator, never a correctness dependency.
    pub fn store(&self, dfg_fp: u64, point_fp: u64, metrics: &PointMetrics) {
        let body = render_entry(dfg_fp, point_fp, metrics);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let outcome = fs::write(&tmp, body.as_bytes())
            .and_then(|()| fs::rename(&tmp, self.entry_path(dfg_fp, point_fp)));
        match outcome {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// A snapshot of the tier's counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Renders the versioned, checksummed entry text.
fn render_entry(dfg_fp: u64, point_fp: u64, m: &PointMetrics) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(256);
    let _ = writeln!(s, "mfhls-cache v{DISK_FORMAT_VERSION}");
    let _ = writeln!(s, "key={dfg_fp:016x}-{point_fp:016x}");
    let _ = writeln!(s, "csteps={}", m.csteps);
    let _ = writeln!(s, "mix={}", escape(&m.mix));
    let _ = writeln!(s, "fu_cost={}", m.fu_cost);
    let _ = writeln!(s, "registers={}", m.registers);
    let _ = writeln!(s, "reschedules={}", m.reschedules);
    for b in &m.mem {
        let _ = writeln!(s, "bank={} {} {}", b.ports, b.peak, escape(&b.bank));
    }
    if let Some(d) = &m.mfsa {
        let _ = writeln!(
            s,
            "mfsa={} {} {} {}",
            d.total_cost,
            d.mux,
            d.muxin,
            escape(&d.alus)
        );
    }
    let sum = checksum(s.as_bytes());
    let _ = writeln!(s, "sum={sum:016x}");
    s
}

/// Parses and verifies one entry; `None` on any discrepancy.
fn parse_entry(text: &str, dfg_fp: u64, point_fp: u64) -> Option<PointMetrics> {
    // The checksum line must close the file and cover everything
    // before it — a truncated tail or appended garbage both fail here.
    let head_len = text.rfind("sum=")?;
    let (head, tail) = text.split_at(head_len);
    let sum = tail.strip_prefix("sum=")?.strip_suffix('\n')?;
    if u64::from_str_radix(sum, 16).ok()? != checksum(head.as_bytes()) {
        return None;
    }

    let mut lines = head.lines();
    if lines.next()? != format!("mfhls-cache v{DISK_FORMAT_VERSION}") {
        return None;
    }
    if lines.next()? != format!("key={dfg_fp:016x}-{point_fp:016x}") {
        return None;
    }
    let mut csteps = None;
    let mut mix = None;
    let mut fu_cost = None;
    let mut registers = None;
    let mut reschedules = None;
    let mut mem = Vec::new();
    let mut mfsa = None;
    for line in lines {
        let (name, value) = line.split_once('=')?;
        match name {
            "csteps" => csteps = Some(value.parse().ok()?),
            "mix" => mix = Some(unescape(value)?),
            "fu_cost" => fu_cost = Some(value.parse().ok()?),
            "registers" => registers = Some(value.parse().ok()?),
            "reschedules" => reschedules = Some(value.parse().ok()?),
            "bank" => {
                let mut parts = value.splitn(3, ' ');
                mem.push(BankPressure {
                    ports: parts.next()?.parse().ok()?,
                    peak: parts.next()?.parse().ok()?,
                    bank: unescape(parts.next()?)?,
                });
            }
            "mfsa" => {
                let mut parts = value.splitn(4, ' ');
                mfsa = Some(MfsaDetail {
                    total_cost: parts.next()?.parse().ok()?,
                    mux: parts.next()?.parse().ok()?,
                    muxin: parts.next()?.parse().ok()?,
                    alus: unescape(parts.next()?)?,
                });
            }
            _ => return None,
        }
    }
    Some(PointMetrics {
        csteps: csteps?,
        mix: mix?,
        fu_cost: fu_cost?,
        registers: registers?,
        reschedules: reschedules?,
        mem,
        mfsa,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointMetrics {
        PointMetrics {
            csteps: 7,
            mix: "2*,1+,1-".into(),
            fu_cost: 123456,
            registers: 5,
            reschedules: 2,
            mem: vec![BankPressure {
                bank: "coeff_ram".into(),
                ports: 2,
                peak: 2,
            }],
            mfsa: Some(MfsaDetail {
                alus: "2(+-*),(+)".into(),
                total_cost: 99999,
                mux: 4,
                muxin: 11,
            }),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mfhls-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_every_field() {
        let dir = tmpdir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        assert!(cache.load(1, 2).is_none());
        cache.store(1, 2, &sample());
        assert_eq!(cache.load(1, 2), Some(sample()));
        // A plain metrics value (no mem, no mfsa) round-trips too.
        let plain = PointMetrics {
            mem: Vec::new(),
            mfsa: None,
            ..sample()
        };
        cache.store(3, 4, &plain);
        assert_eq!(cache.load(3, 4), Some(plain));
        assert_eq!(
            cache.stats(),
            DiskStats {
                hits: 2,
                misses: 1,
                writes: 2,
                corrupt: 0,
                errors: 0
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn survives_a_daemon_restart() {
        let dir = tmpdir("restart");
        {
            let cache = DiskCache::open(&dir).unwrap();
            cache.store(9, 9, &sample());
        }
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.load(9, 9), Some(sample()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_tampered_entries_are_misses() {
        let dir = tmpdir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(5, 6, &sample());
        let path = cache.entry_path(5, 6);
        let full = fs::read_to_string(&path).unwrap();

        // Truncation at every byte boundary must fail verification.
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            assert!(cache.load(5, 6).is_none(), "cut at {cut}");
            // The corrupt entry was unlinked: the next lookup is a
            // plain miss, so a recompute-and-store repairs the key.
            assert!(!path.exists(), "cut at {cut} should unlink");
            cache.store(5, 6, &sample());
            assert_eq!(cache.load(5, 6), Some(sample()));
        }

        // A flipped digit fails the checksum.
        let tampered = full.replace("csteps=7", "csteps=8");
        fs::write(&path, tampered).unwrap();
        assert!(cache.load(5, 6).is_none());
        assert!(cache.stats().corrupt >= 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_from_a_different_key_or_version_are_rejected() {
        let dir = tmpdir("keymix");
        let cache = DiskCache::open(&dir).unwrap();
        cache.store(1, 1, &sample());
        // Copy the (valid, checksummed) entry onto another key's name:
        // the embedded key check must reject it.
        let stray = fs::read(cache.entry_path(1, 1)).unwrap();
        fs::write(cache.entry_path(2, 2), &stray).unwrap();
        assert!(cache.load(2, 2).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
