//! The content-addressed exploration cache.
//!
//! One layer, keyed by content rather than identity: whole
//! [`PointMetrics`] per `(DFG fingerprint, point fingerprint)`, so
//! repeated queries (same point twice in a grid, across
//! [`crate::Engine::explore`] calls, or repeated requests to a
//! long-lived `hls-serve` daemon) are free. An optional on-disk tier
//! backs it across restarts.
//!
//! Entries are `Arc<OnceLock<_>>`: the map lock is held only to fetch
//! the slot, and `OnceLock::get_or_init` gives **exactly-once**
//! computation — concurrent requests for one key block on the single
//! computing thread instead of duplicating work. That exactly-once
//! guarantee is what keeps the merged telemetry counters deterministic:
//! every unique query contributes its scheduler counters exactly once,
//! whatever the thread count.
//!
//! The layer is **bounded**: it holds at most its configured entry cap
//! and evicts least-recently-used slots past it, so a long-lived server
//! cannot grow memory without limit. Eviction only ever forgets
//! memoized *pure* results — a later identical query recomputes the
//! same bytes — so cache pressure never changes any answer.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use crate::diskcache::{DiskCache, DiskStats};
use crate::engine::PointMetrics;

/// Which tier answered a result lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// The in-memory LRU had a populated slot.
    Hot,
    /// The on-disk layer had a verified entry (memory slot now filled).
    Warm,
    /// Neither tier had it: `compute` ran.
    Cold,
}

type Slot<T> = Arc<OnceLock<T>>;

/// Default entry cap of the results layer — generous: a server would
/// need thousands of *distinct* (graph, knob) queries live at once to
/// hit it.
pub const DEFAULT_RESULTS_CAP: usize = 4096;

/// A small LRU map: a `HashMap` with a logical clock per entry. Reads
/// and writes bump the clock; inserts past `cap` evict the stalest
/// entry. O(n) eviction scans are fine at these caps — eviction is the
/// rare path, and n is bounded by construction.
#[derive(Debug)]
struct Lru<K, T> {
    map: HashMap<K, (Slot<T>, u64)>,
    tick: u64,
    cap: usize,
}

impl<K: std::hash::Hash + Eq + Copy, T> Lru<K, T> {
    fn new(cap: usize) -> Self {
        Lru {
            map: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    /// The slot for `key` if (and only if) it is already resident;
    /// bumps recency, never inserts.
    fn peek(&mut self, key: K) -> Option<Slot<T>> {
        self.tick += 1;
        let tick = self.tick;
        let (slot, used) = self.map.get_mut(&key)?;
        *used = tick;
        Some(slot.clone())
    }

    /// The slot for `key` (created empty if absent), plus how many
    /// entries were evicted to make room.
    fn slot(&mut self, key: K) -> (Slot<T>, u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((slot, used)) = self.map.get_mut(&key) {
            *used = tick;
            return (slot.clone(), 0);
        }
        let mut evicted = 0;
        while self.map.len() >= self.cap {
            let stalest = self
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(&k, _)| k)
                .expect("non-empty map over cap");
            self.map.remove(&stalest);
            evicted += 1;
        }
        let slot: Slot<T> = Arc::default();
        self.map.insert(key, (slot.clone(), tick));
        (slot, evicted)
    }
}

/// Hit/miss/evict totals of the results layer, for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from a populated slot.
    pub hits: u64,
    /// Queries that had to compute.
    pub misses: u64,
    /// Entries evicted to respect the cap.
    pub evictions: u64,
}

/// Result-layer key: `(dfg_fingerprint, point_fingerprint)`.
type ResultsKey = (u64, u64);

/// The shared cache; cheap to share via the engine, internally
/// synchronised.
#[derive(Debug)]
pub struct ExploreCache {
    results: Mutex<Lru<ResultsKey, Result<PointMetrics, String>>>,
    stats: Mutex<CacheStats>,
    disk: Option<DiskCache>,
}

impl Default for ExploreCache {
    fn default() -> Self {
        Self::with_caps(DEFAULT_RESULTS_CAP)
    }
}

impl ExploreCache {
    /// An empty cache with the default caps.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache holding at most `results_cap` result entries
    /// (clamped to at least 1).
    pub fn with_caps(results_cap: usize) -> Self {
        ExploreCache {
            results: Mutex::new(Lru::new(results_cap)),
            stats: Mutex::new(CacheStats::default()),
            disk: None,
        }
    }

    /// A cache whose result layer is backed by a content-addressed
    /// on-disk tier rooted at `dir`: memory misses consult disk before
    /// computing, and fresh `Ok` computations are persisted, so a
    /// restarted process answers previously-seen keys without
    /// rescheduling. Fails only if the directory cannot be created.
    pub fn with_disk(results_cap: usize, dir: &Path) -> std::io::Result<Self> {
        let mut cache = Self::with_caps(results_cap);
        cache.disk = Some(DiskCache::open(dir)?);
        Ok(cache)
    }

    /// Counters of the disk tier, if one is attached.
    pub fn disk_stats(&self) -> Option<DiskStats> {
        self.disk.as_ref().map(DiskCache::stats)
    }

    /// The memoized result for `(dfg_fp, point_fp)`: runs `compute` at
    /// most once while the key stays in memory. A memory miss consults
    /// the disk tier (if attached) before computing; a fresh `Ok`
    /// computation is written through to disk. Returns the result plus
    /// the [`Tier`] that answered it.
    ///
    /// Exactly-once still holds per tier: concurrent requests for one
    /// key share a single disk load *or* a single computation through
    /// the slot's `OnceLock`, and only the computing call writes disk.
    pub fn result(
        &self,
        dfg_fp: u64,
        point_fp: u64,
        compute: impl FnOnce() -> Result<PointMetrics, String>,
    ) -> (Result<PointMetrics, String>, Tier) {
        let (slot, evicted) = self
            .results
            .lock()
            .expect("cache lock is never poisoned (no panics inside)")
            .slot((dfg_fp, point_fp));
        let mut tier = Tier::Hot;
        let value = slot.get_or_init(|| {
            if let Some(disk) = &self.disk {
                if let Some(metrics) = disk.load(dfg_fp, point_fp) {
                    tier = Tier::Warm;
                    return Ok(metrics);
                }
            }
            tier = Tier::Cold;
            compute()
        });
        let mut stats = self.stats.lock().expect("stats lock");
        stats.evictions += evicted;
        if tier == Tier::Hot {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        drop(stats);
        if tier == Tier::Cold {
            if let (Some(disk), Ok(metrics)) = (&self.disk, value) {
                disk.store(dfg_fp, point_fp, metrics);
            }
        }
        (value.clone(), tier)
    }

    /// A non-computing probe of the **memory** result tier: `Some` iff
    /// the key is resident and populated. Counts as a results-layer
    /// hit when it answers; a miss counts nothing, because the caller
    /// falls back to [`ExploreCache::result`], which does the full
    /// accounting. Cached *cancelled* errors are reported as misses —
    /// the fallback path owns the forget-and-retry hygiene for those.
    ///
    /// This is the reactor's inline fast path: a warm `/schedule` hit
    /// is answered on the event loop without a worker handoff, so the
    /// probe must never compute, block on I/O, or insert a slot.
    pub fn peek_result(&self, dfg_fp: u64, point_fp: u64) -> Option<Result<PointMetrics, String>> {
        let slot = self
            .results
            .lock()
            .expect("cache lock is never poisoned (no panics inside)")
            .peek((dfg_fp, point_fp))?;
        let value = slot.get()?.clone();
        if matches!(&value, Err(e) if e.starts_with("cancelled")) {
            return None;
        }
        self.stats.lock().expect("stats lock").hits += 1;
        Some(value)
    }

    /// Drops the result entry for `(dfg_fp, point_fp)`, if present.
    ///
    /// The engine calls this for results poisoned by cancellation (a
    /// deadline firing mid-compute must not make every later identical
    /// request fail); it is also handy for tests.
    pub fn forget(&self, dfg_fp: u64, point_fp: u64) {
        self.results
            .lock()
            .expect("cache lock")
            .map
            .remove(&(dfg_fp, point_fp));
    }

    /// Number of distinct result entries currently cached.
    pub fn result_entries(&self) -> usize {
        self.results.lock().expect("cache lock").map.len()
    }

    /// Totals for the results layer.
    pub fn results_stats(&self) -> CacheStats {
        *self.stats.lock().expect("stats lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(csteps: u32) -> PointMetrics {
        PointMetrics {
            csteps,
            mix: String::new(),
            fu_cost: 0,
            registers: 0,
            reschedules: 0,
            mem: Vec::new(),
            mfsa: None,
        }
    }

    #[test]
    fn results_compute_exactly_once_per_key() {
        let cache = ExploreCache::new();
        let (first, tier) = cache.result(1, 2, || Ok(metrics(4)));
        assert_eq!(tier, Tier::Cold);
        let (second, tier) = cache.result(1, 2, || panic!("must not recompute"));
        assert_eq!(tier, Tier::Hot);
        assert_eq!(first, second);
        assert_eq!(cache.result_entries(), 1);
        let (_, tier) = cache.result(1, 3, || Ok(metrics(5)));
        assert_eq!(
            tier,
            Tier::Cold,
            "a different point fingerprint is a new key"
        );
        assert_eq!(
            cache.results_stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                evictions: 0
            }
        );
    }

    #[test]
    fn peek_probes_without_computing_or_inserting() {
        let cache = ExploreCache::new();
        assert!(cache.peek_result(1, 2).is_none());
        assert_eq!(
            cache.results_stats(),
            CacheStats::default(),
            "a probe miss counts nothing and inserts nothing"
        );
        assert_eq!(cache.result_entries(), 0);

        let (_, t) = cache.result(1, 2, || Ok(metrics(4)));
        assert_eq!(t, Tier::Cold);
        let peeked = cache.peek_result(1, 2).expect("resident key answers");
        assert_eq!(peeked.unwrap().csteps, 4);
        assert_eq!(cache.results_stats().hits, 1, "a probe hit is a hit");

        // Cached *cancelled* errors are invisible to the probe: the
        // fallback path owns their forget-and-retry hygiene.
        let (_, _) = cache.result(3, 4, || Err("cancelled: deadline".into()));
        assert!(cache.peek_result(3, 4).is_none());
        // Ordinary cached errors answer like any other result.
        let (_, _) = cache.result(5, 6, || Err("infeasible".into()));
        assert!(cache.peek_result(5, 6).expect("cached error").is_err());
    }

    #[test]
    fn peek_bumps_recency() {
        let cache = ExploreCache::with_caps(2);
        let (_, _) = cache.result(1, 1, || Ok(metrics(1)));
        let (_, _) = cache.result(1, 2, || Ok(metrics(2)));
        // Probe key 1 so key 2 is the LRU victim of the next insert.
        assert!(cache.peek_result(1, 1).is_some());
        let (_, _) = cache.result(1, 3, || Ok(metrics(3)));
        assert!(cache.peek_result(1, 1).is_some(), "probed key survives");
        assert!(cache.peek_result(1, 2).is_none(), "LRU victim evicted");
    }

    #[test]
    fn errors_are_cached_too() {
        let cache = ExploreCache::new();
        let (r, _) = cache.result(9, 9, || Err("infeasible".into()));
        assert!(r.is_err());
        let (r, tier) = cache.result(9, 9, || Ok(metrics(1)));
        assert!(r.is_err(), "the cached error wins");
        assert_eq!(tier, Tier::Hot);
    }

    #[test]
    fn forget_reopens_the_key() {
        let cache = ExploreCache::new();
        let (_, tier) = cache.result(5, 5, || Err("cancelled".into()));
        assert_eq!(tier, Tier::Cold);
        cache.forget(5, 5);
        let (r, tier) = cache.result(5, 5, || Ok(metrics(3)));
        assert_eq!(tier, Tier::Cold, "a forgotten key recomputes");
        assert_eq!(r.unwrap().csteps, 3);
    }

    #[test]
    fn cap_bounds_entries_and_evicts_lru() {
        let cache = ExploreCache::with_caps(2);
        let (_, t) = cache.result(1, 1, || Ok(metrics(1)));
        assert_eq!(t, Tier::Cold);
        let (_, t) = cache.result(1, 2, || Ok(metrics(2)));
        assert_eq!(t, Tier::Cold);
        // Touch key 1 so key 2 is the LRU victim.
        let (_, t) = cache.result(1, 1, || panic!("cached"));
        assert_eq!(t, Tier::Hot);
        let (_, t) = cache.result(1, 3, || Ok(metrics(3)));
        assert_eq!(t, Tier::Cold);
        assert_eq!(cache.result_entries(), 2);
        assert_eq!(cache.results_stats().evictions, 1);
        // Key 2 was evicted and recomputes (displacing key 1, the new
        // LRU); key 3 — most recently inserted — survives throughout.
        let (_, t) = cache.result(1, 2, || Ok(metrics(2)));
        assert_eq!(t, Tier::Cold, "the LRU victim recomputes");
        assert_eq!(cache.results_stats().evictions, 2);
        let (r, _) = cache.result(1, 3, || panic!("must still be cached"));
        assert_eq!(r.unwrap().csteps, 3);
    }

    #[test]
    fn concurrent_requests_share_one_computation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ExploreCache::new();
        let runs = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (r, _) = cache.result(7, 7, || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        Ok(metrics(2))
                    });
                    assert_eq!(r.unwrap().csteps, 2);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    fn disk_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mfhls-cache-tier-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_tier_answers_after_a_restart_without_recomputing() {
        let dir = disk_dir("warm");
        {
            let cache = ExploreCache::with_disk(4, &dir).unwrap();
            let (_, t) = cache.result(8, 8, || Ok(metrics(6)));
            assert_eq!(t, Tier::Cold);
            assert_eq!(cache.disk_stats().unwrap().writes, 1);
            // While the memory slot is live, disk is not consulted.
            let (_, t) = cache.result(8, 8, || panic!("cached"));
            assert_eq!(t, Tier::Hot);
        }
        // A "restarted daemon": fresh memory, same directory.
        let cache = ExploreCache::with_disk(4, &dir).unwrap();
        let (r, t) = cache.result(8, 8, || panic!("disk must answer"));
        assert_eq!(t, Tier::Warm);
        assert_eq!(r.unwrap().csteps, 6);
        // The disk hit populated the memory slot: next lookup is Hot.
        let (_, t) = cache.result(8, 8, || panic!("cached"));
        assert_eq!(t, Tier::Hot);
        let d = cache.disk_stats().unwrap();
        assert_eq!((d.hits, d.corrupt), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_tier_skips_errors_and_recomputes_truncated_entries_once() {
        let dir = disk_dir("err");
        let cache = ExploreCache::with_disk(4, &dir).unwrap();
        let (_, t) = cache.result(1, 1, || Err("infeasible".into()));
        assert_eq!(t, Tier::Cold);
        assert_eq!(
            cache.disk_stats().unwrap().writes,
            0,
            "errors stay off disk"
        );

        let (_, t) = cache.result(2, 2, || Ok(metrics(3)));
        assert_eq!(t, Tier::Cold);
        // Truncate the entry behind the cache's back, then restart.
        let path = {
            let reopened = ExploreCache::with_disk(4, &dir).unwrap();
            let path = reopened.disk.as_ref().unwrap().entry_path(2, 2);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            let (r, t) = reopened.result(2, 2, || Ok(metrics(3)));
            assert_eq!(t, Tier::Cold, "truncated entry recomputes");
            assert_eq!(r.unwrap().csteps, 3);
            let d = reopened.disk_stats().unwrap();
            assert_eq!(
                (d.corrupt, d.writes),
                (1, 1),
                "recompute rewrites the entry"
            );
            path
        };
        assert!(path.exists(), "the repaired entry is back on disk");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
