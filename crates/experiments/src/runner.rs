//! Deterministic parallel scenario execution.
//!
//! Every experiment in this reproduction — figure sweeps, the chaos
//! matrix, the scale sweep, the workflow/chaos integration tests — is a
//! grid of *independent* cells: each cell builds its own topology, its own
//! seeded engine and its own registry instances, runs to completion, and
//! returns a value. Nothing is shared between cells, so they can execute
//! on any number of OS threads **without giving up one byte of
//! determinism**: the only ordering that ever reaches the output is the
//! cell *index*, never the completion order.
//!
//! [`Runner::run`] fans a `Vec` of cells out to a pool of scoped workers
//! (one shared injector, a mutex around the cells' iterator — workers pull
//! the next cell when free, so uneven cell costs balance automatically)
//! and collects `(index, result)` pairs into an index-addressed buffer.
//! The returned `Vec` is therefore byte-identical to what a sequential
//! `map` over the same cells would produce, for every worker count.
//!
//! Why this holds:
//! * **Seed-stream isolation** — a cell's randomness derives only from the
//!   seeds in its own config ([`SplitMix64`](geometa_sim::rng::SplitMix64)
//!   streams split per engine); no thread-local or global RNG exists.
//! * **No shared mutable state** — each cell constructs its own
//!   `Engine`/`RegistryInstance`s; the only cross-thread traffic is the
//!   hand-off of inputs and results.
//! * **Index-keyed collection** — results are stored at their input index;
//!   completion order cannot leak into aggregation.
//!
//! Panics inside a cell (e.g. a chaos-oracle violation banner) are caught
//! per worker and re-raised on the caller thread after the pool drains —
//! deterministically the one with the **lowest cell index**, so a red run
//! reports the same cell no matter how the pool interleaved.
//!
//! The pool width comes from `--jobs N` on the `repro` binary
//! ([`set_global_jobs`]), the `GEOMETA_JOBS` environment variable, or the
//! host's available parallelism, in that order of precedence.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Process-wide override installed by `repro --jobs N` (0 = unset).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable consulted when no explicit override is set.
pub(crate) const JOBS_ENV: &str = "GEOMETA_JOBS";

/// Install a process-wide worker count (what `repro --jobs N` does).
/// Takes precedence over [`JOBS_ENV`]; `0` clears the override.
pub fn set_global_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::SeqCst);
}

/// Parse a jobs spec: a positive integer thread count.
fn parse_jobs(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Resolve the effective worker count: [`set_global_jobs`] override, then
/// [`JOBS_ENV`], then the host's available parallelism.
pub fn global_jobs() -> usize {
    let o = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var(JOBS_ENV) {
        if let Some(n) = parse_jobs(&s) {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed-width worker pool executing independent scenario cells.
#[derive(Clone, Copy, Debug)]
pub struct Runner {
    jobs: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::from_env()
    }
}

impl Runner {
    /// A runner with an explicit worker count (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Runner {
        Runner { jobs: jobs.max(1) }
    }

    /// A runner sized by [`global_jobs`] (override → env → host cores).
    pub fn from_env() -> Runner {
        Runner::new(global_jobs())
    }

    /// The worker count this runner uses.
    #[cfg(test)]
    pub(crate) fn jobs(&self) -> usize {
        self.jobs
    }

    /// Execute `f` over every cell and return the results **in input
    /// order**, regardless of worker count or completion order.
    ///
    /// With one worker (or ≤ 1 cell) the cells run inline on the caller
    /// thread — the exact code path of a plain sequential loop, so
    /// `--jobs 1` output is the byte-identity baseline.
    ///
    /// If any cell panics, the panic of the lowest-index failing cell is
    /// re-raised after all workers finish (no detached threads outlive the
    /// call; remaining queued cells still run).
    pub fn run<T, R, F>(&self, cells: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.jobs == 1 || cells.len() <= 1 {
            return cells
                .into_iter()
                .enumerate()
                .map(|(i, c)| f(i, c))
                .collect();
        }
        let n = cells.len();
        let workers = self.jobs.min(n);
        // The injector: workers exit when the iterator runs dry. A closure,
        // so the guard drops before `f` runs; `f` is under `catch_unwind`
        // outside the lock, so the lock cannot be poisoned.
        let injector = Mutex::new(cells.into_iter().enumerate());
        let next_cell = || {
            injector
                .lock()
                .expect("no panic under the injector lock")
                .next()
        };
        let (out_tx, out_rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let out_tx = out_tx.clone();
                let (f, next_cell) = (&f, &next_cell);
                scope.spawn(move || {
                    while let Some((idx, cell)) = next_cell() {
                        let result = catch_unwind(AssertUnwindSafe(|| f(idx, cell)));
                        if out_tx.send((idx, result)).is_err() {
                            break; // collector gone; nothing left to report to
                        }
                    }
                });
            }
            drop(out_tx);
            for (idx, result) in out_rx {
                match result {
                    Ok(value) => slots[idx] = Some(value),
                    Err(payload) => {
                        if first_panic.as_ref().is_none_or(|(i, _)| idx < *i) {
                            first_panic = Some((idx, payload));
                        }
                    }
                }
            }
        });
        if let Some((_, payload)) = first_panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every cell reported exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

    #[test]
    fn results_keep_input_order_for_every_worker_count() {
        // Cells deliberately finish out of order (later cells are cheaper).
        let work = |i: usize, cost: u64| -> u64 {
            let mut acc = i as u64;
            for k in 0..cost * 1_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i as u64) << 32 | (acc & 0xFFFF_FFFF)
        };
        let cells: Vec<u64> = (0..40).rev().map(|c| c as u64).collect();
        let sequential = Runner::new(1).run(cells.clone(), work);
        for jobs in [2, 3, 8, 64] {
            let parallel = Runner::new(jobs).run(cells.clone(), work);
            assert_eq!(sequential, parallel, "jobs={jobs} must not reorder results");
        }
    }

    #[test]
    fn more_cells_than_workers_all_run_exactly_once() {
        let ran = AtomicU64::new(0);
        let per_cell = Mutex::new(vec![0u32; 100]);
        let out = Runner::new(3).run((0..100usize).collect(), |i, c| {
            assert_eq!(i, c, "index must match the cell's input position");
            ran.fetch_add(1, Ordering::SeqCst);
            per_cell.lock().unwrap()[c] += 1;
            c * 2
        });
        assert_eq!(ran.load(Ordering::SeqCst), 100);
        assert!(per_cell.lock().unwrap().iter().all(|&n| n == 1));
        assert_eq!(out, (0..200).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_and_pool_still_drains() {
        let ran = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Runner::new(4).run((0..20usize).collect(), |_, c| {
                ran.fetch_add(1, Ordering::SeqCst);
                if c == 7 {
                    panic!("cell {c} violated an invariant");
                }
                c
            })
        }));
        let payload = caught.expect_err("panic must cross the pool boundary");
        let msg = payload
            .downcast_ref::<String>()
            .expect("panic payload preserved");
        assert!(msg.contains("cell 7"), "got: {msg}");
        // The panic does not strand queued cells: every cell was attempted.
        assert_eq!(ran.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn lowest_index_panic_wins_deterministically() {
        for jobs in [2, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                // Make the higher-index failure finish first: cell 3 is
                // instant, cell 1 does some work before failing.
                Runner::new(jobs).run(vec![0u64, 500, 0, 0], |i, cost| {
                    let mut acc = 0u64;
                    for k in 0..cost * 1_000 {
                        acc = acc.wrapping_mul(25214903917).wrapping_add(k);
                    }
                    if i == 1 || i == 3 {
                        panic!("failed at index {i} (acc {acc})");
                    }
                    acc
                })
            }));
            let payload = caught.expect_err("panic expected");
            let msg = payload.downcast_ref::<String>().unwrap();
            assert!(
                msg.contains("index 1"),
                "jobs={jobs}: lowest failing index must win, got: {msg}"
            );
        }
    }

    #[test]
    fn empty_and_single_cell_grids_work() {
        let none: Vec<u32> = Runner::new(8).run(Vec::<u32>::new(), |_, c| c);
        assert!(none.is_empty());
        let one = Runner::new(8).run(vec![41u32], |i, c| c + i as u32 + 1);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn jobs_spec_parsing() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 16 "), Some(16));
        assert_eq!(parse_jobs("0"), None, "zero workers is not a pool");
        assert_eq!(parse_jobs("-2"), None);
        assert_eq!(parse_jobs("many"), None);
        assert_eq!(Runner::new(0).jobs(), 1, "explicit zero clamps to one");
    }
}
