//! Deterministic thread pool for the VFPS-SM hot paths.
//!
//! The pool parallelizes the selection pipeline's embarrassingly parallel
//! loops — fed-KNN query batches, Paillier batch encryption, and
//! marginal-gain evaluation in the submodular maximizer — while guaranteeing
//! **bit-identical results at any thread count**. Three rules make that
//! hold, and every primitive here is built around them:
//!
//! 1. **Order-preserving results.** [`Pool::par_map_indexed`] returns
//!    outputs in input-index order no matter which worker computed them, so
//!    a caller that folds the returned `Vec` sequentially reproduces the
//!    exact floating-point accumulation order of a single-threaded run.
//! 2. **Length-dependent chunking.** Work is split into chunks whose
//!    boundaries depend only on the input length — never on the thread
//!    count — so a per-chunk scratch value sees the same items at 1 thread
//!    and at N.
//! 3. **Per-item seed derivation.** Randomized work must not draw from a
//!    shared RNG (arrival order would change the stream). Instead, derive
//!    an independent seed per item with [`split_seed`]`(master, index)` and
//!    build a fresh RNG from it; the stream consumed by item `i` is then a
//!    pure function of `(master, i)`.
//!
//! The process-wide pool is [`global()`], sized by the `VFPS_THREADS`
//! environment variable, else the number of available cores; a pool of an
//! explicit size is [`Pool::with_threads`]. The scheduler is one locked
//! FIFO queue: a map pushes its chunks onto the back, and background
//! workers and the waiting caller pop the front. The caller helps until
//! its own chunks are done, so nested maps cannot deadlock and a 1-thread
//! pool runs everything inline on the caller.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Derives an independent RNG seed for item `index` from a master seed.
///
/// This is a SplitMix64-style finalizer over the master seed advanced by
/// the index, giving well-distributed, decorrelated per-item seeds. It is a
/// pure function, so parallel workers can derive item seeds without any
/// shared state, and the seed for item `i` is independent of the thread
/// that processes it.
#[must_use]
#[inline]
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Chunk length for `len` items: depends only on `len`, never on the
/// thread count, so chunk boundaries (and therefore which items share a
/// scratch value) are identical at any parallelism.
#[must_use]
fn chunk_len(len: usize) -> usize {
    // Target enough chunks to load-balance a large pool while keeping
    // per-task overhead negligible for small inputs.
    const TARGET_CHUNKS: usize = 64;
    len.div_ceil(TARGET_CHUNKS).max(1)
}

/// Inputs shorter than this run inline on the caller even on a
/// multi-thread pool. Below this size the spawn/merge overhead of
/// dispatch exceeds the work for the cheap per-item closures on the
/// selection hot paths (the `greedy_maximizer` stage regressed to 0.13x
/// of sequential before this fallback existed). Safe for determinism:
/// every parallel primitive here is order-preserving with
/// length-only chunk seams, so the sequential path produces bit-identical
/// output to the dispatched one.
const SEQUENTIAL_BELOW: usize = 64;

/// Locks `m`, recovering the guard from a panicked holder. Tasks run
/// under `catch_unwind` and no critical section here calls user code, so
/// a poisoned lock still guards whole state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    queue: Mutex<VecDeque<Task>>,
    shutdown: Mutex<bool>,
    work_cv: Condvar,
}

impl Shared {
    /// The task at the front of the queue; the lock is released on return.
    fn pop(&self) -> Option<Task> {
        lock(&self.queue).pop_front()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        if let Some(task) = shared.pop() {
            task();
            continue;
        }
        let shutdown = lock(&shared.shutdown);
        if *shutdown {
            return;
        }
        // A push between the pop above and this wait misses its notify;
        // the timeout bounds that to 2 ms. One lock for queue, shutdown and
        // scope counters with no timeouts measured slower (DESIGN.md §5).
        drop(shared.work_cv.wait_timeout(shutdown, Duration::from_millis(2)));
    }
}

/// Reads the configured default worker count: `VFPS_THREADS` if set and
/// positive, otherwise the number of available cores.
fn default_threads() -> usize {
    if let Ok(v) = std::env::var("VFPS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A thread pool over one FIFO queue, with deterministic parallel maps.
///
/// `threads` counts the caller too: a pool of `n` spawns `n - 1` background
/// workers and the thread driving a map executes tasks while it waits, so
/// a 1-thread pool is a plain sequential executor.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Builds a pool with exactly `threads` threads of parallelism.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            shutdown: Mutex::new(false),
            work_cv: Condvar::new(),
        });
        let handles = (0..threads - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vfps-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles, threads }
    }

    /// The pool's total parallelism (background workers + caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `op` with a [`Scope`] on which borrowed tasks can be spawned;
    /// returns only after every spawned task has finished. Panics from
    /// tasks are propagated to the caller after the scope drains.
    fn scope<'scope, OP, R>(&'scope self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            pool: self,
            pending: Arc::new((Mutex::new(0usize), Condvar::new())),
            panic: Arc::new(Mutex::new(None)),
            _marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));

        // Help drain until every spawned task completed; this is what makes
        // the lifetime erasure in `Scope::spawn` sound.
        loop {
            if let Some(task) = self.shared.pop() {
                task();
                continue;
            }
            let (pending, done_cv) = &*scope.pending;
            let guard = lock(pending);
            if *guard == 0 {
                break;
            }
            // The 1 ms re-check is the helping policy, not only a race
            // guard: a caller waiting on its scope runs other scopes' tasks,
            // which a task blocked on another scope needs. Waking only when
            // the scope is done hangs that and measured slower (DESIGN.md §5).
            let (guard, _) = done_cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner);
            if *guard == 0 {
                break;
            }
        }

        if let Some(payload) = lock(&scope.panic).take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Maps `f` over `items` in parallel, returning results in input order.
    ///
    /// Because the output order is the input order, any sequential fold the
    /// caller performs over the result reproduces the single-threaded
    /// accumulation exactly, regardless of worker scheduling.
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_map_indexed_scratch(items, || (), |(), i, t| f(i, t))
    }

    /// Like [`Pool::par_map_indexed`], but hands `f` a reusable scratch
    /// value built once per chunk (once total on the sequential path), so
    /// per-item buffer allocations amortize across the chunk instead of
    /// repeating for every item.
    ///
    /// Determinism contract: `f`'s *output* must not depend on the scratch
    /// contents it inherits — scratch is for buffers whose prior contents
    /// are overwritten, not for state threaded between items. Under that
    /// contract the result is bit-identical at any thread count, exactly
    /// like the plain map.
    pub fn par_map_indexed_scratch<T, R, S, MS, F>(
        &self,
        items: &[T],
        make_scratch: MS,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        MS: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() < SEQUENTIAL_BELOW {
            let mut scratch = make_scratch();
            return items.iter().enumerate().map(|(i, t)| f(&mut scratch, i, t)).collect();
        }
        let chunk = chunk_len(items.len());
        let parts: Mutex<Vec<(usize, Vec<R>)>> =
            Mutex::new(Vec::with_capacity(items.len().div_ceil(chunk)));
        self.scope(|s| {
            for (ci, chunk_items) in items.chunks(chunk).enumerate() {
                let start = ci * chunk;
                let f = &f;
                let make_scratch = &make_scratch;
                let parts = &parts;
                s.spawn(move || {
                    let mut scratch = make_scratch();
                    let vals: Vec<R> = chunk_items
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(&mut scratch, start + j, t))
                        .collect();
                    lock(parts).push((start, vals));
                });
            }
        });
        let mut parts = parts.into_inner().unwrap_or_else(PoisonError::into_inner);
        parts.sort_unstable_by_key(|(start, _)| *start);
        let mut out = Vec::with_capacity(items.len());
        for (_, vals) in parts {
            out.extend(vals);
        }
        out
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        *lock(&self.shared.shutdown) = true;
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawn surface handed to [`Pool::scope`] callbacks.
struct Scope<'scope> {
    pool: &'scope Pool,
    pending: Arc<(Mutex<usize>, Condvar)>,
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    _marker: PhantomData<&'scope mut &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns a task that may borrow from the enclosing scope.
    fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        *lock(&self.pending.0) += 1;
        let pending = Arc::clone(&self.pending);
        let panic = Arc::clone(&self.panic);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                lock(&panic).get_or_insert(payload);
            }
            let (count, done_cv) = &*pending;
            let mut guard = lock(count);
            *guard -= 1;
            if *guard == 0 {
                done_cv.notify_all();
            }
        });
        // SAFETY: `Pool::scope` does not return until `pending` reaches
        // zero, i.e. until this task (and its borrows of 'scope data) has
        // finished running, so extending the closure's lifetime to 'static
        // never lets it observe freed stack data.
        let task: Task =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
        let shared = &self.pool.shared;
        lock(&shared.queue).push_back(task);
        shared.work_cv.notify_all();
    }
}

/// The process-wide pool, sized by `VFPS_THREADS` / available cores on
/// first use.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::with_threads(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn map_preserves_input_order() {
        for threads in [1, 2, 4] {
            let pool = Pool::with_threads(threads);
            let items: Vec<u64> = (0..500).collect();
            let out = pool.par_map_indexed(&items, |i, &x| (i as u64, x * 2));
            assert_eq!(out.len(), 500);
            for (i, (idx, v)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u64);
                assert_eq!(*v, items[i] * 2);
            }
        }
    }

    #[test]
    fn map_results_are_bit_identical_across_thread_counts() {
        let items: Vec<u64> = (0..300).collect();
        let run = |threads: usize| {
            let pool = Pool::with_threads(threads);
            pool.par_map_indexed(&items, |i, &x| {
                let mut rng = StdRng::seed_from_u64(split_seed(42, i as u64));
                rng.gen::<f64>() * x as f64
            })
        };
        let base = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn scope_runs_borrowed_tasks() {
        let pool = Pool::with_threads(4);
        let data: Vec<u64> = (0..64).collect();
        let sums = Mutex::new(Vec::new());
        pool.scope(|s| {
            for chunk in data.chunks(8) {
                let sums = &sums;
                s.spawn(move || {
                    lock(sums).push(chunk.iter().sum::<u64>());
                });
            }
        });
        let total: u64 = sums.into_inner().expect("no task panicked").iter().sum();
        assert_eq!(total, data.iter().sum::<u64>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Pool::with_threads(2);
        let outer = pool.par_map_indexed(&[10usize, 20, 30], |_, &n| {
            pool.par_map_indexed(&(0..n).collect::<Vec<_>>(), |_, &x| x).iter().sum::<usize>()
        });
        assert_eq!(outer, vec![45, 190, 435]);
    }

    #[test]
    fn task_panics_propagate() {
        let pool = Pool::with_threads(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a propagated panic.
        assert_eq!(pool.par_map_indexed(&[1, 2, 3], |_, &x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn split_seed_is_pure_and_spread_out() {
        assert_eq!(split_seed(7, 3), split_seed(7, 3));
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| split_seed(12345, i)).collect();
        assert_eq!(seeds.len(), 1000, "per-item seeds must not collide");
        assert_ne!(split_seed(1, 0), split_seed(2, 0));
    }

    #[test]
    fn empty_and_single_inputs() {
        let pool = Pool::with_threads(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map_indexed(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.par_map_indexed(&[9u32], |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn scratch_map_matches_plain_map_across_thread_counts() {
        // Both above and below the sequential-fallback threshold.
        for len in [SEQUENTIAL_BELOW - 1, 10 * SEQUENTIAL_BELOW] {
            let items: Vec<u64> = (0..len as u64).collect();
            let reference: Vec<f64> = {
                let pool = Pool::with_threads(1);
                pool.par_map_indexed(&items, |i, &x| {
                    let mut rng = StdRng::seed_from_u64(split_seed(9, i as u64));
                    rng.gen::<f64>() + x as f64
                })
            };
            for threads in [1usize, 2, 4, 8] {
                let pool = Pool::with_threads(threads);
                let got = pool.par_map_indexed_scratch(&items, Vec::<u8>::new, |scratch, i, &x| {
                    // Scratch is reused as a buffer; contents from prior
                    // items are overwritten, never read.
                    scratch.clear();
                    scratch.extend_from_slice(&x.to_le_bytes());
                    let roundtrip = u64::from_le_bytes(scratch[..8].try_into().expect("8 bytes"));
                    let mut rng = StdRng::seed_from_u64(split_seed(9, i as u64));
                    rng.gen::<f64>() + roundtrip as f64
                });
                assert_eq!(got, reference, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn small_inputs_fall_back_to_sequential_with_identical_output() {
        let items: Vec<u64> = (0..SEQUENTIAL_BELOW as u64 - 1).collect();
        let seq = Pool::with_threads(1).par_map_indexed(&items, |i, &x| i as u64 * 31 + x);
        let par = Pool::with_threads(8).par_map_indexed(&items, |i, &x| i as u64 * 31 + x);
        assert_eq!(seq, par);
    }

    /// Runs `body` on its own thread and fails if it has not finished
    /// within `secs` seconds, so a hung pool fails the test instead of
    /// stalling the suite.
    fn within(secs: u64, body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            body();
            let _ = tx.send(());
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            rx.recv_timeout(Duration::from_secs(secs))
        {
            panic!("did not finish within {secs} s");
        }
        if let Err(payload) = handle.join() {
            resume_unwind(payload);
        }
    }

    #[test]
    fn background_workers_run_tasks() {
        // Both tasks must be running at once to pass the barrier, so the
        // scope completes only if a worker takes one while the caller runs
        // the other.
        within(30, || {
            let pool = Pool::with_threads(2);
            let barrier = std::sync::Barrier::new(2);
            pool.scope(|s| {
                for _ in 0..2 {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                    });
                }
            });
        });
    }

    #[test]
    fn a_waiting_scope_runs_other_scopes_tasks() {
        // Scope A's two tasks meet at a barrier, so one runs on the pool's
        // only worker; that one (picked by thread id) then blocks until
        // scope B's `t1` is done, and `t1` needs `t2` running beside it.
        // B's caller runs one of them; the other can only run on A's
        // caller, which is waiting for its own scope.
        within(30, || {
            use std::sync::{mpsc, Barrier};
            use std::thread::current;
            let pool = Pool::with_threads(2);
            let caller = current().id();
            let (meet, t1_t2, t1_done) = (Barrier::new(2), Barrier::new(2), Barrier::new(2));
            let (go, start_b) = mpsc::channel();
            let ran_b = Mutex::new(Vec::new());
            std::thread::scope(|threads| {
                let (pool, t1_t2, t1_done, ran_b) = (&pool, &t1_t2, &t1_done, &ran_b);
                threads.spawn(move || {
                    start_b.recv().expect("the worker's task starts scope B");
                    pool.scope(|s| {
                        s.spawn(move || {
                            lock(ran_b).push(current().id());
                            t1_t2.wait();
                            t1_done.wait();
                        });
                        s.spawn(move || {
                            lock(ran_b).push(current().id());
                            t1_t2.wait();
                        });
                    });
                });
                pool.scope(|s| {
                    for _ in 0..2 {
                        let (meet, go) = (&meet, &go);
                        s.spawn(move || {
                            meet.wait();
                            if current().id() != caller {
                                go.send(()).expect("scope B's caller is listening");
                                t1_done.wait();
                            }
                        });
                    }
                });
            });
            assert!(lock(&ran_b).contains(&caller), "scope A's caller ran none of B's tasks");
        });
    }

    #[test]
    fn with_threads_respects_explicit_count() {
        // The caller counts as one thread: `n` threads spawn `n - 1` workers.
        for n in [1usize, 3] {
            let pool = Pool::with_threads(n);
            assert_eq!(pool.threads(), n);
            assert_eq!(pool.handles.len(), n - 1);
        }
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        // The protocol's node threads all map on `global()` at once.
        within(60, || {
            let items: Vec<u64> = (0..10 * SEQUENTIAL_BELOW as u64).collect();
            let f = |i: usize, &x: &u64| {
                let mut rng = StdRng::seed_from_u64(split_seed(5, i as u64));
                rng.gen::<f64>() * x as f64
            };
            let reference = Pool::with_threads(1).par_map_indexed(&items, f);
            let pool = Pool::with_threads(2);
            std::thread::scope(|s| {
                let callers: Vec<_> = (0..4)
                    .map(|_| s.spawn(|| (0..8).map(|_| pool.par_map_indexed(&items, f)).collect()))
                    .collect();
                for caller in callers {
                    let outs: Vec<Vec<f64>> = caller.join().expect("caller thread");
                    for out in outs {
                        assert_eq!(out, reference);
                    }
                }
            });
        });
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        within(60, || {
            let items: Vec<usize> = (0..2 * SEQUENTIAL_BELOW).collect();
            for round in 0..100 {
                let pool = Pool::with_threads(4);
                let out = pool.par_map_indexed(&items, |i, &x| i + x + round);
                assert_eq!(out, items.iter().map(|&x| 2 * x + round).collect::<Vec<_>>());
                // Every worker holds the shared state until it exits.
                let shared = Arc::downgrade(&pool.shared);
                drop(pool);
                assert!(shared.upgrade().is_none(), "round {round}: a worker outlived its pool");
            }
        });
    }
}
