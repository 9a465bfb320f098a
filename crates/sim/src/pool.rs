//! Work-sharded scoped thread pool for fault-parallel stages.
//!
//! Every step of the functional scan chain testing flow is
//! embarrassingly fault-parallel: classification, alternating-sequence
//! fault simulation, per-window confirmation simulation, and the
//! sequential-ATPG attempts all map an independent computation over a
//! fault list. [`shard_map`] runs exactly that shape on `std::thread`
//! scoped workers:
//!
//! * the item list is cut into fixed chunks and published through an
//!   atomic cursor (a chunked work queue — workers self-balance);
//! * each worker owns its own mutable state (`init()` per worker — e.g.
//!   a simulator or classifier over the shared immutable design);
//! * results are merged back **in input order**, so the output is
//!   bit-identical no matter how many workers ran or how the chunks
//!   were interleaved.
//!
//! No extra crates: the pool is `std::thread::scope` plus one
//! `AtomicUsize`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crate::counters::WorkCounters;

/// Resolves a configured worker count: `0` means one worker per
/// available hardware thread.
///
/// # Examples
///
/// ```
/// use fscan_sim::pool::resolve_threads;
///
/// assert_eq!(resolve_threads(3), 3);
/// assert!(resolve_threads(0) >= 1);
/// ```
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Per-stage sharding statistics: how many workers ran and how many
/// items each of them processed.
///
/// Wall-clock time lives in the stage reports' existing `cpu` fields;
/// this records only the work distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Workers the stage ran with.
    pub threads: usize,
    /// Items processed per worker (length = `threads`; may contain
    /// zeros when there were fewer chunks than workers).
    pub per_worker: Vec<usize>,
}

impl ShardStats {
    /// Stats for a serially-executed stage over `items` items.
    pub fn serial(items: usize) -> ShardStats {
        ShardStats {
            threads: 1,
            per_worker: vec![items],
        }
    }

    /// Stats for a stage handed no items: the resolved worker count
    /// (`0` = hardware thread count), none of which processed anything.
    pub(crate) fn idle(threads: usize) -> ShardStats {
        let threads = resolve_threads(threads);
        ShardStats {
            threads,
            per_worker: vec![0; threads],
        }
    }

    /// Total items processed.
    pub fn items(&self) -> usize {
        self.per_worker.iter().sum()
    }

    /// Folds another invocation's stats into this one (stages that call
    /// [`shard_map`] repeatedly — e.g. once per test window — aggregate
    /// their distribution here).
    pub fn absorb(&mut self, other: &ShardStats) {
        self.threads = self.threads.max(other.threads);
        if self.per_worker.len() < other.per_worker.len() {
            self.per_worker.resize(other.per_worker.len(), 0);
        }
        for (mine, theirs) in self.per_worker.iter_mut().zip(other.per_worker.iter()) {
            *mine += theirs;
        }
    }
}

impl std::fmt::Display for ShardStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}w [", self.threads)?;
        for (i, n) in self.per_worker.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{n}")?;
        }
        f.write_str("]")
    }
}

/// Maps `f` over `items` in chunks across `threads` scoped workers and
/// returns the per-item results **in input order**.
///
/// `f` receives the worker's own state (built once per worker by
/// `init`), the chunk's base index into `items`, and the chunk slice;
/// it must return one result per chunk item. Chunks are at least
/// `min_chunk` items (the fault simulator wants multiples of its
/// packed word's lane count, classification is happy with anything).
///
/// Determinism: results depend only on `(index, item)`, never on the
/// worker that ran the chunk or the interleaving, so the merged output
/// is identical for every thread count — the property the pipeline's
/// bit-identical-reports guarantee rests on.
///
/// `threads == 0` resolves to the hardware thread count. A single
/// worker (or a single chunk) runs inline without spawning.
///
/// # Panics
///
/// Panics if `f` returns a result vector whose length differs from its
/// chunk, or if a worker panics (the panic is propagated).
///
/// # Examples
///
/// ```
/// use fscan_sim::pool::shard_map;
///
/// let items: Vec<u32> = (0..100).collect();
/// let (doubled, stats) = shard_map(4, 8, &items, || (), |_, _, chunk| {
///     chunk.iter().map(|&x| x * 2).collect()
/// });
/// assert_eq!(doubled[7], 14);
/// assert_eq!(stats.items(), 100);
/// ```
pub fn shard_map<T, R, S, I, F>(
    threads: usize,
    min_chunk: usize,
    items: &[T],
    init: I,
    f: F,
) -> (Vec<R>, ShardStats)
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &[T]) -> Vec<R> + Sync,
{
    let (out, stats, _) =
        shard_map_counted(threads, min_chunk, items, init, |state, base, chunk| {
            (f(state, base, chunk), WorkCounters::ZERO)
        });
    (out, stats)
}

/// [`shard_map`] that additionally harvests [`WorkCounters`] from every
/// chunk and returns their sum.
///
/// `f` returns `(results, counters)` per chunk. Because chunk geometry
/// depends on the thread count, the counters a chunk reports must be an
/// unordered sum of per-item (or, with `min_chunk` = the rail's lane
/// count, per-packed-word) contributions; `u64` addition then makes the
/// total identical for every thread count — the determinism the
/// pipeline's BENCH counters rely on.
///
/// # Panics
///
/// Same contract as [`shard_map`].
///
/// # Examples
///
/// ```
/// use fscan_sim::pool::shard_map_counted;
/// use fscan_sim::WorkCounters;
///
/// let items: Vec<u64> = (0..100).collect();
/// let (out, _, counters) = shard_map_counted(4, 8, &items, || (), |_, _, chunk| {
///     let work = WorkCounters {
///         gate_evals: chunk.iter().sum(),
///         ..WorkCounters::ZERO
///     };
///     (chunk.to_vec(), work)
/// });
/// assert_eq!(out.len(), 100);
/// assert_eq!(counters.gate_evals, (0..100).sum::<u64>());
/// ```
pub fn shard_map_counted<T, R, S, I, F>(
    threads: usize,
    min_chunk: usize,
    items: &[T],
    init: I,
    f: F,
) -> (Vec<R>, ShardStats, WorkCounters)
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &[T]) -> (Vec<R>, WorkCounters) + Sync,
{
    let threads = resolve_threads(threads);
    let min_chunk = min_chunk.max(1);
    if items.is_empty() {
        // Report the *resolved* worker count: a hard-coded `threads: 1`
        // here made `ShardStats::absorb` (and the per-stage reports)
        // understate worker counts for stages that ever saw an empty
        // item list.
        return (Vec::new(), ShardStats::idle(threads), WorkCounters::ZERO);
    }
    // Fixed chunk geometry: ~4 chunks per worker for load balance, but
    // never below `min_chunk`. Chunk boundaries influence only the work
    // distribution, never the per-item results.
    let chunk = items.len().div_ceil(threads * 4).max(min_chunk);
    let chunk = if min_chunk > 1 {
        chunk.div_ceil(min_chunk) * min_chunk
    } else {
        chunk
    };
    let num_chunks = items.len().div_ceil(chunk);
    let workers = threads.min(num_chunks);

    if workers <= 1 {
        let mut state = init();
        let mut out = Vec::with_capacity(items.len());
        let mut counters = WorkCounters::ZERO;
        for (ci, slice) in items.chunks(chunk).enumerate() {
            let (part, work) = f(&mut state, ci * chunk, slice);
            assert_eq!(part.len(), slice.len(), "shard_map: result/chunk mismatch");
            out.extend(part);
            counters += work;
        }
        return (out, ShardStats::serial(items.len()), counters);
    }

    // Per worker: items processed, accumulated counters, plus the
    // (chunk index, results) pairs it pulled off the queue.
    type WorkerHarvest<R> = (usize, WorkCounters, Vec<(usize, Vec<R>)>);
    let cursor = AtomicUsize::new(0);
    let mut harvest: Vec<WorkerHarvest<R>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut parts: Vec<(usize, Vec<R>)> = Vec::new();
                    let mut processed = 0usize;
                    let mut counters = WorkCounters::ZERO;
                    loop {
                        let ci = cursor.fetch_add(1, Ordering::Relaxed);
                        if ci >= num_chunks {
                            break;
                        }
                        let base = ci * chunk;
                        let slice = &items[base..(base + chunk).min(items.len())];
                        let (part, work) = f(&mut state, base, slice);
                        assert_eq!(part.len(), slice.len(), "shard_map: result/chunk mismatch");
                        processed += slice.len();
                        counters += work;
                        parts.push((ci, part));
                    }
                    (processed, counters, parts)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard_map worker panicked"))
            .collect()
    });

    let per_worker: Vec<usize> = harvest.iter().map(|(n, _, _)| *n).collect();
    let counters: WorkCounters = harvest.iter().map(|(_, c, _)| *c).sum();
    let mut slots: Vec<Option<Vec<R>>> = (0..num_chunks).map(|_| None).collect();
    for (_, _, parts) in harvest.iter_mut() {
        for (ci, part) in parts.drain(..) {
            slots[ci] = Some(part);
        }
    }
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.extend(slot.expect("shard_map: missing chunk"));
    }
    (
        out,
        ShardStats {
            threads: workers,
            per_worker,
        },
        counters,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_in_input_order_for_any_thread_count() {
        let items: Vec<usize> = (0..1000).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 7] {
            let (got, stats) = shard_map(
                threads,
                1,
                &items,
                || (),
                |_, base, chunk| {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(k, &x)| {
                            assert_eq!(base + k, x, "base index must match item position");
                            x * 3 + 1
                        })
                        .collect()
                },
            );
            assert_eq!(got, expect, "threads = {threads}");
            assert_eq!(stats.items(), items.len());
            assert!(stats.threads <= threads.max(1));
        }
    }

    #[test]
    fn worker_state_is_private_per_worker() {
        // Each worker counts into its own state; the sum over workers
        // must equal the item count (no sharing, no loss).
        let items: Vec<u8> = vec![0; 500];
        let (counts, _) = shard_map(
            4,
            1,
            &items,
            || 0usize,
            |seen, _, chunk| {
                *seen += chunk.len();
                chunk.iter().map(|_| *seen).collect()
            },
        );
        // The per-item value is the worker's running count — meaningless
        // globally, but every element must be > 0 (state really flowed).
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn respects_min_chunk_multiples() {
        let items: Vec<u32> = (0..300).collect();
        let (got, _) = shard_map(
            8,
            64,
            &items,
            || (),
            |_, base, chunk| {
                // Every chunk except the last must start at a multiple of 64
                // and span a multiple of 64.
                assert_eq!(base % 64, 0);
                if base + chunk.len() < items.len() {
                    assert_eq!(chunk.len() % 64, 0);
                }
                chunk.to_vec()
            },
        );
        assert_eq!(got, items);
    }

    #[test]
    fn counted_totals_are_thread_invariant() {
        // Per-item contributions summed per chunk: the totals must be
        // bit-identical no matter how the chunks were cut or interleaved.
        let items: Vec<u64> = (0..513).collect();
        let expect = WorkCounters {
            gate_evals: items.iter().map(|&x| x * x).sum(),
            lane_cycles: items.len() as u64,
            ..WorkCounters::ZERO
        };
        for threads in [1, 2, 4, 7] {
            let (out, _, counters) = shard_map_counted(
                threads,
                1,
                &items,
                || (),
                |_, _, chunk| {
                    let work = WorkCounters {
                        gate_evals: chunk.iter().map(|&x| x * x).sum(),
                        lane_cycles: chunk.len() as u64,
                        ..WorkCounters::ZERO
                    };
                    (chunk.to_vec(), work)
                },
            );
            assert_eq!(out, items, "threads = {threads}");
            assert_eq!(counters, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input() {
        let (got, stats) = shard_map(4, 64, &[] as &[u32], || (), |_, _, c| c.to_vec());
        assert!(got.is_empty());
        assert_eq!(stats.items(), 0);
        // The empty-input early return must report the resolved worker
        // count, not a hard-coded 1.
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.per_worker, vec![0; 4]);
        let (_, auto_stats) = shard_map(0, 1, &[] as &[u32], || (), |_, _, c| c.to_vec());
        assert_eq!(auto_stats.threads, resolve_threads(0));
    }

    #[test]
    fn absorb_accumulates() {
        let mut total = ShardStats::default();
        total.absorb(&ShardStats {
            threads: 2,
            per_worker: vec![10, 5],
        });
        total.absorb(&ShardStats {
            threads: 4,
            per_worker: vec![1, 2, 3, 4],
        });
        assert_eq!(total.threads, 4);
        assert_eq!(total.per_worker, vec![11, 7, 3, 4]);
        assert_eq!(total.items(), 25);
        assert_eq!(total.to_string(), "4w [11 7 3 4]");
    }

    #[test]
    fn absorb_covers_empty_calls() {
        // A stage that fires shard_map with an empty list (e.g. a window
        // with nothing left pending) must still absorb the requested
        // worker count without distorting the item distribution.
        let mut total = ShardStats::default();
        let (_, empty_stats, _) = shard_map_counted(
            4,
            64,
            &[] as &[u32],
            || (),
            |_, _, c| (c.to_vec(), WorkCounters::ZERO),
        );
        total.absorb(&empty_stats);
        assert_eq!(total.threads, 4);
        assert_eq!(total.items(), 0);
        let items: Vec<u32> = (0..100).collect();
        let (_, full_stats, _) = shard_map_counted(
            2,
            1,
            &items,
            || (),
            |_, _, c| (c.to_vec(), WorkCounters::ZERO),
        );
        total.absorb(&full_stats);
        assert_eq!(total.threads, 4, "empty call's worker count sticks");
        assert_eq!(total.items(), 100);
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }
}
