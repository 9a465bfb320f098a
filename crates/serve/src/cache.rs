//! Content-addressed, single-flight LRU cache of compiled designs.
//!
//! The expensive part of serving a `.bench` upload is not the pipeline
//! run but everything before it: parsing the netlist, functional scan
//! insertion, and compiling the levelized topology. All three are pure
//! functions of the upload `(bench text, circuit name, chain count)`,
//! so the cache keys on an FNV-1a hash of that triple
//! ([`fscan_netlist::content_hash64`] keeps the key stable across
//! toolchains) and shares the resulting [`Arc<ScanDesign>`] across
//! every concurrent request.
//!
//! **Single-flight**: a miss installs an empty [`OnceLock`] cell under
//! the map lock, then builds *outside* it via
//! [`OnceLock::get_or_init`]. Concurrent requests for the same content
//! find the cell and block on the same `get_or_init`, so a netlist
//! uploaded N times simultaneously is parsed, scanned and
//! topology-compiled exactly once — the acceptance criterion the
//! `/stats` counter `topology_builds` makes observable.
//!
//! Failed builds are cached too (negative caching): compilation is
//! deterministic in the key, so retrying an identical bad upload would
//! burn the same work to produce the same error.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fscan::Error;
use fscan_scan::ScanDesign;

type Cell = Arc<OnceLock<Result<Arc<ScanDesign>, Error>>>;

/// Monotonic cache counters, readable without the map lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that found an existing entry (possibly waiting for an
    /// in-flight build of it).
    pub hits: u64,
    /// Requests that installed a new entry.
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Designs successfully built — i.e. topologies compiled (≤ misses:
    /// single-flight collapses concurrent misses for the same key into
    /// one build, and failed compilations don't count).
    pub builds: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// The design cache. One per server; shared by every worker.
pub struct DesignCache {
    /// Most-recently-used entries at the back.
    map: Mutex<VecDeque<(u64, Cell)>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    builds: AtomicU64,
}

impl DesignCache {
    /// A cache holding at most `capacity` compiled designs (minimum 1).
    pub fn new(capacity: usize) -> DesignCache {
        DesignCache {
            map: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, building (at most once per key residency) with
    /// `build` on a miss. Returns the shared design and whether this
    /// call was a hit.
    ///
    /// `build` runs outside the map lock: slow compilations never stall
    /// requests for other circuits.
    pub fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<Arc<ScanDesign>, Error>,
    ) -> (Result<Arc<ScanDesign>, Error>, bool) {
        let (cell, hit) = {
            let mut map = self.map.lock().unwrap();
            if let Some(pos) = map.iter().position(|(k, _)| *k == key) {
                // Refresh recency: move to the back.
                let entry = map.remove(pos).unwrap();
                let cell = entry.1.clone();
                map.push_back(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                (cell, true)
            } else {
                let cell: Cell = Arc::new(OnceLock::new());
                map.push_back((key, cell.clone()));
                self.misses.fetch_add(1, Ordering::Relaxed);
                // Evict from the LRU end, but *pin* entries whose build
                // is still in flight (empty OnceLock): evicting one
                // would drop the cell other requests are blocked on, so
                // the finished design would be thrown away and the next
                // request for it would rebuild — a silent double build.
                // Pinned entries keep their LRU position; the map may
                // transiently exceed capacity until their builds land.
                let mut pinned = Vec::new();
                while map.len() + pinned.len() > self.capacity {
                    match map.pop_front() {
                        Some(entry) if entry.1.get().is_none() => pinned.push(entry),
                        Some(_) => {
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        None => break,
                    }
                }
                for entry in pinned.into_iter().rev() {
                    map.push_front(entry);
                }
                (cell, false)
            }
        };
        let result = cell
            .get_or_init(|| {
                let built = build();
                if built.is_ok() {
                    self.builds.fetch_add(1, Ordering::Relaxed);
                }
                built
            })
            .clone();
        (result, hit)
    }

    /// Whether `key` is currently resident (for tests/diagnostics).
    pub fn contains(&self, key: u64) -> bool {
        self.map.lock().unwrap().iter().any(|(k, _)| *k == key)
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            entries: self.map.lock().unwrap().len() as u64,
        }
    }
}

/// One remembered pipeline run: the design it ran against and the full
/// report (whose [`fscan::EcoCarry`] seeds incremental `/eco` reruns).
pub struct RunEntry {
    /// The design the run executed on (for `/eco`, the ECO base).
    pub design: Arc<ScanDesign>,
    /// The run's report, carry included.
    pub report: Arc<fscan::PipelineReport>,
}

/// LRU cache of completed runs keyed by design content hash — the
/// server-side memory behind `POST /eco`: an ECO request names its base
/// by key, and the cached report's carry lets the rerun skip everything
/// the edit cannot reach.
pub struct RunCache {
    map: Mutex<VecDeque<(u64, Arc<RunEntry>)>>,
    capacity: usize,
}

impl RunCache {
    /// A cache remembering at most `capacity` runs (minimum 1).
    pub fn new(capacity: usize) -> RunCache {
        RunCache {
            map: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// The remembered run for `key`, refreshing its recency.
    pub fn get(&self, key: u64) -> Option<Arc<RunEntry>> {
        let mut map = self.map.lock().unwrap();
        let pos = map.iter().position(|(k, _)| *k == key)?;
        let entry = map.remove(pos).unwrap();
        let found = entry.1.clone();
        map.push_back(entry);
        Some(found)
    }

    /// Remembers (or replaces) the run for `key`.
    pub fn put(&self, key: u64, entry: RunEntry) {
        let mut map = self.map.lock().unwrap();
        if let Some(pos) = map.iter().position(|(k, _)| *k == key) {
            map.remove(pos);
        }
        map.push_back((key, Arc::new(entry)));
        while map.len() > self.capacity {
            map.pop_front();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::thread;

    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_scan::{insert_functional_scan, TpiConfig};

    fn demo_design(seed: u64) -> Result<Arc<ScanDesign>, Error> {
        let c = generate(&GeneratorConfig::new("demo", seed).gates(60).dffs(4));
        let design = insert_functional_scan(&c, &TpiConfig::default())?;
        Ok(Arc::new(design))
    }

    #[test]
    fn hit_returns_the_same_arc_without_rebuilding() {
        let cache = DesignCache::new(4);
        let calls = AtomicUsize::new(0);
        let build = || {
            calls.fetch_add(1, Ordering::SeqCst);
            demo_design(1)
        };
        let (first, hit1) = cache.get_or_build(42, build);
        let (second, hit2) = cache.get_or_build(42, || unreachable!("must not rebuild"));
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&first.unwrap(), &second.unwrap()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds), (1, 1, 1));
    }

    #[test]
    fn concurrent_misses_for_one_key_build_once() {
        let cache = Arc::new(DesignCache::new(4));
        let builds = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                thread::spawn(move || {
                    let (design, _) = cache.get_or_build(7, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        demo_design(7)
                    });
                    design.unwrap()
                })
            })
            .collect();
        let designs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats().builds, 1);
        for d in &designs[1..] {
            assert!(Arc::ptr_eq(&designs[0], d));
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let cache = DesignCache::new(2);
        cache.get_or_build(1, || demo_design(1)).0.unwrap();
        cache.get_or_build(2, || demo_design(2)).0.unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get_or_build(1, || unreachable!()).1);
        cache.get_or_build(3, || demo_design(3)).0.unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // 1 survived; 2 was evicted and must rebuild.
        assert!(cache.get_or_build(1, || unreachable!()).1);
        let (rebuilt, hit) = cache.get_or_build(2, || demo_design(2));
        assert!(!hit);
        rebuilt.unwrap();
    }

    #[test]
    fn in_flight_builds_are_pinned_against_eviction() {
        let cache = Arc::new(DesignCache::new(1));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let builder = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache
                    .get_or_build(1, move || {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        demo_design(1)
                    })
                    .0
                    .unwrap()
            })
        };
        // Key 1's build is now in flight; inserting key 2 overflows the
        // capacity-1 cache. Without the pin, the eviction loop dropped
        // key 1's still-building cell here and its result was lost.
        entered_rx.recv().unwrap();
        cache.get_or_build(2, || demo_design(2)).0.unwrap();
        assert!(cache.contains(1), "in-flight entry was evicted");
        release_tx.send(()).unwrap();
        let built = builder.join().unwrap();
        // The finished design is still resident: a re-request is a hit
        // on the very same Arc, not a rebuild.
        let (again, hit) = cache.get_or_build(1, || unreachable!("pinned entry must not rebuild"));
        assert!(hit);
        assert!(Arc::ptr_eq(&built, &again.unwrap()));
        assert_eq!(cache.stats().builds, 2);
        // Once its build has landed the entry is ordinary again: the
        // next insert can evict it.
        cache.get_or_build(3, || demo_design(3)).0.unwrap();
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn run_cache_remembers_and_replaces_runs() {
        use fscan::{PipelineConfig, PipelineSession};
        let cache = RunCache::new(2);
        assert!(cache.get(5).is_none());
        let design = demo_design(5).unwrap();
        let report =
            Arc::new(PipelineSession::shared(Arc::clone(&design), PipelineConfig::default()).run());
        cache.put(
            5,
            RunEntry {
                design: Arc::clone(&design),
                report: Arc::clone(&report),
            },
        );
        let entry = cache.get(5).expect("resident");
        assert!(Arc::ptr_eq(&entry.design, &design));
        assert!(Arc::ptr_eq(&entry.report, &report));
        // Capacity bound evicts the least recently used run.
        cache.put(
            6,
            RunEntry {
                design: Arc::clone(&design),
                report: Arc::clone(&report),
            },
        );
        cache.get(5);
        cache.put(7, RunEntry { design, report });
        assert!(cache.get(6).is_none());
        assert!(cache.get(5).is_some() && cache.get(7).is_some());
    }

    #[test]
    fn errors_are_cached() {
        let cache = DesignCache::new(2);
        let calls = AtomicUsize::new(0);
        let failing = || {
            calls.fetch_add(1, Ordering::SeqCst);
            let c = generate(&GeneratorConfig::new("no-ffs", 1).gates(20).dffs(0));
            insert_functional_scan(&c, &TpiConfig::default())
                .map(Arc::new)
                .map_err(Error::from)
        };
        assert!(cache.get_or_build(9, failing).0.is_err());
        let (again, hit) = cache.get_or_build(9, || unreachable!());
        assert!(hit);
        assert_eq!(again.unwrap_err().kind(), "scan");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
