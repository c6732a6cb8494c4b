//! The content-addressed analysis cache.
//!
//! Requests are keyed by [`Session::key`] — a hash of the
//! *resolved* program, so re-submissions that differ only in formatting
//! share an entry. A hit skips the whole setup pipeline (parse → lower →
//! validate → `Analyses::build`) and lands on a [`Session`] whose `By`
//! memo table earlier requests have already warmed; the check proceeds
//! straight to reach/slice/solve. Each session also carries the
//! daemon's only verdict store, its per-cluster memo: a hit whose
//! clusters all re-validate from the memo runs no check at all.
//!
//! Entries are `Arc`-shared, so an eviction never invalidates a session
//! a worker is still checking against — the entry just stops being
//! findable, and the memory is reclaimed when the last in-flight request
//! drops its handle. Eviction is least-recently-used with a fixed entry
//! bound (programs, not bytes: one session's dominant cost is the
//! analyses, which scale with the program it caches).
//!
//! Counters: `server.cache_hits`, `server.cache_misses`,
//! `server.cache_evictions` (mirrored into `obs` when tracing is on;
//! always available from [`AnalysisCache::stats`]).

use crate::lock;
use blastlite::{Session, UpdateReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Point-in-time cache accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Misses served by an incremental [`Session::update`] from a
    /// skeleton-matched resident session instead of a cold compile (a
    /// subset of `misses`).
    pub updates: u64,
    /// Entries displaced by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// The configured entry bound.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    session: Arc<Session>,
    last_used: u64,
}

/// An LRU map from content key to shared [`Session`], with a secondary
/// *skeleton* index (declarations-only hash → most recent program key)
/// that lets a miss be served by an incremental [`Session::update`]
/// from a resident predecessor — the derivation graph's program-level
/// front door.
pub struct AnalysisCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    updates: AtomicU64,
    evictions: AtomicU64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    /// Skeleton key → the most recently inserted program key with that
    /// skeleton. A dangling value (entry since evicted) is harmless:
    /// the predecessor probe just misses.
    skeletons: HashMap<u64, u64>,
    tick: u64,
}

impl AnalysisCache {
    /// An empty cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> AnalysisCache {
        AnalysisCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                skeletons: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `source`'s resolved program, compiling a fresh
    /// [`Session`] on a miss. Returns the session and whether it was a
    /// hit. [`AnalysisCache::get_or_update`] with the update report
    /// dropped.
    ///
    /// # Errors
    ///
    /// The rendered front-end error from [`Session::compile`].
    pub fn get_or_compile(
        &self,
        source: &str,
        origin: &str,
    ) -> Result<(Arc<Session>, bool), String> {
        let (session, hit, _) = self.get_or_update(source, origin)?;
        Ok((session, hit))
    }

    /// Looks up `source`'s resolved program; on a miss, first tries to
    /// build the session *incrementally* from a resident session with
    /// the same skeleton (same globals, arrays, and function
    /// signatures — i.e. an edited version of a program this cache has
    /// seen), falling back to a cold compile. Returns the session,
    /// whether it was a hit, and the update report when the incremental
    /// path served the miss.
    ///
    /// Compilation happens *outside* the cache lock so a large program
    /// being analysed never stalls other workers' hits; two workers
    /// racing on the same new key may both compile, and the second
    /// insert wins (both results are identical, one is briefly
    /// redundant).
    ///
    /// # Errors
    ///
    /// The rendered front-end error from [`Session::compile`] /
    /// [`Session::update`].
    pub fn get_or_update(
        &self,
        source: &str,
        origin: &str,
    ) -> Result<(Arc<Session>, bool, Option<UpdateReport>), String> {
        let ast = imp::parse(source).map_err(|e| format!("{origin}: {}", e.render(source)))?;
        let shape = incr::Shape::of_ast(&ast);
        let key = shape.key();
        if let Some(session) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter("server.cache_hits").inc();
            return Ok((session, true, None));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter("server.cache_misses").inc();
        let predecessor = {
            let inner = lock(&self.inner);
            inner
                .skeletons
                .get(&shape.skeleton())
                .and_then(|k| inner.entries.get(k))
                .map(|e| e.session.clone())
        };
        let (session, update) = match predecessor {
            Some(old) => {
                let (session, up) = Session::update(&old, source, origin)?;
                let up = (!up.cold).then_some(up);
                if up.is_some() {
                    self.updates.fetch_add(1, Ordering::Relaxed);
                    obs::counter("server.cache_updates").inc();
                }
                (Arc::new(session), up)
            }
            None => (Arc::new(Session::compile(source, origin)?), None),
        };
        self.insert(key, session.clone());
        Ok((session, false, update))
    }

    fn lookup(&self, key: u64) -> Option<Arc<Session>> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&key)?;
        entry.last_used = tick;
        Some(entry.session.clone())
    }

    fn insert(&self, key: u64, session: Arc<Session>) {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let skeleton = session.shape().map(|s| s.skeleton());
        inner.entries.insert(
            key,
            Entry {
                session,
                last_used: tick,
            },
        );
        if let Some(sk) = skeleton {
            inner.skeletons.insert(sk, key);
        }
        while inner.entries.len() > self.capacity {
            let Some((&oldest, _)) = inner.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(e) = inner.entries.remove(&oldest) {
                // Drop a skeleton-index pointer at the evicted entry so
                // the predecessor probe never resolves to a dead key.
                if let Some(sk) = e.session.shape().map(|s| s.skeleton()) {
                    if inner.skeletons.get(&sk) == Some(&oldest) {
                        inner.skeletons.remove(&sk);
                    }
                }
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            obs::counter("server.cache_evictions").inc();
        }
    }

    /// Inserts an already-compiled session without touching the
    /// hit/miss accounting — the journal replay path, which warms the
    /// cache with sessions whose verdict memos hold recovered (and
    /// certificate-validated) verdicts before the first request
    /// arrives. Request-path accounting starts clean.
    pub fn admit(&self, key: u64, session: Arc<Session>) {
        self.insert(key, session);
    }

    /// Whether `key` is resident, without touching the hit/miss
    /// accounting or the LRU clock — the reactor's admission classifier
    /// probes with this, and a probe is not a request.
    pub fn contains(&self, key: u64) -> bool {
        lock(&self.inner).entries.contains_key(&key)
    }

    /// Current accounting.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: lock(&self.inner).entries.len(),
            capacity: self.capacity,
        }
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "AnalysisCache({}/{} entries, {} hit(s), {} miss(es), {} eviction(s))",
            s.len, s.capacity, s.hits, s.misses, s.evictions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(n: usize) -> String {
        format!("global x; fn main() {{ x = {n}; }}")
    }

    #[test]
    fn repeat_lookups_hit_and_share_one_session() {
        let cache = AnalysisCache::new(4);
        let (a, hit_a) = cache.get_or_compile(&src(1), "<t>").unwrap();
        let (b, hit_b) = cache.get_or_compile(&src(1), "<t>").unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn formatting_variants_share_an_entry() {
        let cache = AnalysisCache::new(4);
        cache
            .get_or_compile("global x; fn main() { x = 1; }", "<t>")
            .unwrap();
        let (_, hit) = cache
            .get_or_compile("global x;\n\nfn main()   {\n  x = 1;\n}", "<t>")
            .unwrap();
        assert!(hit, "whitespace-only variants must share a cache entry");
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = AnalysisCache::new(2);
        cache.get_or_compile(&src(1), "<t>").unwrap();
        cache.get_or_compile(&src(2), "<t>").unwrap();
        cache.get_or_compile(&src(1), "<t>").unwrap(); // touch 1: 2 is now coldest
        cache.get_or_compile(&src(3), "<t>").unwrap(); // evicts 2
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().len, 2);
        let (_, hit1) = cache.get_or_compile(&src(1), "<t>").unwrap();
        assert!(hit1, "recently used entry survived");
        let (_, hit2) = cache.get_or_compile(&src(2), "<t>").unwrap();
        assert!(!hit2, "cold entry was evicted");
    }

    #[test]
    fn skeleton_match_serves_a_miss_incrementally() {
        let cache = AnalysisCache::new(4);
        let base = "global s; fn f() { s = 1; if (s < 1) { error(); } } fn main() { f(); }";
        cache.get_or_update(base, "<t>").unwrap();
        let edited = base.replace("s < 1", "s < 0");
        let (session, hit, up) = cache.get_or_update(&edited, "<t>").unwrap();
        assert!(!hit);
        let up = up.expect("same-skeleton edit rides the incremental path");
        assert!(!up.cold);
        assert_eq!(up.changed_functions, vec!["f".to_owned()]);
        assert!(session.shape().is_some());
        assert_eq!(cache.stats().updates, 1);
        // A declaration-level edit cannot be diffed function-by-function
        // and falls back to a cold compile.
        let decl = edited.replace("global s;", "global s, t;");
        let (_, _, up) = cache.get_or_update(&decl, "<t>").unwrap();
        assert!(up.is_none());
        assert_eq!(cache.stats().updates, 1);
    }

    #[test]
    fn compile_errors_do_not_populate_the_cache() {
        let cache = AnalysisCache::new(2);
        assert!(cache.get_or_compile("fn main() {", "<t>").is_err());
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn admit_bypasses_miss_accounting() {
        let cache = AnalysisCache::new(2);
        let session = Arc::new(blastlite::Session::compile(&src(1), "<t>").unwrap());
        cache.admit(session.key(), session.clone());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.len), (0, 0, 1));
        let (_, hit) = cache.get_or_compile(&src(1), "<t>").unwrap();
        assert!(hit, "an admitted session answers later lookups warm");
    }

    #[test]
    fn evicted_sessions_stay_alive_for_inflight_holders() {
        let cache = AnalysisCache::new(1);
        let (held, _) = cache.get_or_compile(&src(1), "<t>").unwrap();
        cache.get_or_compile(&src(2), "<t>").unwrap(); // evicts 1
                                                       // The held session still answers checks.
        let report = held.check(
            blastlite::CheckerConfig::default(),
            &blastlite::DriverConfig::sequential(),
        );
        assert_eq!(report.clusters.len(), 0); // no error sites in src()
        assert_eq!(cache.stats().evictions, 1);
    }
}
