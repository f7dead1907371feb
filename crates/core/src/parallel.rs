//! Scoped worker pool for the integration pipeline.
//!
//! The paper's process is embarrassingly parallel in two places: per-source
//! analysis (steps 1–3 "do not involve data or metadata from other data
//! sources") and the pairwise link/duplicate jobs of steps 4–5 (each pair of
//! sources is compared independently). Both are fanned out here over
//! [`std::thread::scope`] — no external thread-pool dependency — with results
//! returned in job order, so the merged output is identical for every worker
//! count.
//!
//! Every job runs under [`std::panic::catch_unwind`]: a panicking job is
//! converted into a [`JobPanic`] in its result slot instead of unwinding
//! through (and killing) the worker thread, so one poisoned pair job cannot
//! take the whole integration run down. The inline single-worker path
//! catches panics the same way, keeping behaviour identical for every worker
//! count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A panic captured from one job of the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the job that panicked.
    pub job: usize,
    /// The panic payload rendered as text (when it was a string).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.job, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Render a panic payload: `&str` and `String` payloads (the overwhelmingly
/// common cases from `panic!`/`assert!`) pass through, anything else gets a
/// placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolve a configured worker count: `0` means the machine's available
/// parallelism, and the count never exceeds the number of jobs.
fn effective_workers(configured: usize, jobs: usize) -> usize {
    let workers = if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        configured
    };
    workers.max(1).min(jobs.max(1))
}

/// Run `jobs` independent jobs with up to `workers` threads and return their
/// results in job order. `f(i)` computes the result of job `i`; jobs are
/// pulled from a shared atomic counter, so long jobs do not stall the queue.
/// With one effective worker the jobs run inline on the caller's thread —
/// the parallel path produces byte-identical results because each job is a
/// pure function of its index and the slots are merged in index order.
///
/// A job that panics yields `Err(JobPanic)` in its slot; all other jobs
/// still run and return their results.
pub fn run_jobs<T, F>(workers: usize, jobs: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| {
        catch_unwind(AssertUnwindSafe(|| f(i))).map_err(|payload| JobPanic {
            job: i,
            message: panic_message(payload.as_ref()),
        })
    };
    let workers = effective_workers(workers, jobs);
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> =
        (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let result = run_one(i);
                // catch_unwind already contained any panic, so the lock can
                // only be poisoned by another slot's writer being killed
                // mid-store — tolerate it rather than cascade.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| unreachable!("every job index is visited exactly once"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_resolves_auto_and_clamps() {
        assert!(effective_workers(0, 100) >= 1);
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert_eq!(effective_workers(4, 0), 1);
    }

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8] {
            let got: Vec<usize> = run_jobs(workers, 37, |i| i * i)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn zero_jobs_yield_empty_results() {
        let got: Vec<Result<usize, JobPanic>> = run_jobs(4, 0, |i| i);
        assert!(got.is_empty());
    }

    #[test]
    fn jobs_actually_run_concurrently_when_asked() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        run_jobs(4, 64, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::yield_now();
        });
        // At least one job ran somewhere (on a 1-CPU machine all four workers
        // still exist; we only assert the pool executed every job).
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn a_panicking_job_is_contained_for_any_worker_count() {
        for workers in [1, 2, 4] {
            let results = run_jobs(workers, 8, |i| {
                if i == 3 {
                    panic!("job three is cursed");
                }
                i * 10
            });
            assert_eq!(results.len(), 8, "workers = {workers}");
            for (i, r) in results.iter().enumerate() {
                if i == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.job, 3);
                    assert!(p.message.contains("cursed"));
                    assert!(p.to_string().contains("job 3 panicked"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 10);
                }
            }
        }
    }

    #[test]
    fn string_and_nonstring_panic_payloads_are_rendered() {
        let results = run_jobs(1, 2, |i| {
            if i == 0 {
                panic!("{}", format!("formatted {i}"));
            } else {
                std::panic::panic_any(42_i32);
            }
        });
        assert!(results[0]
            .as_ref()
            .unwrap_err()
            .message
            .contains("formatted 0"));
        assert_eq!(
            results[1].as_ref().unwrap_err().message,
            "non-string panic payload"
        );
    }
}
