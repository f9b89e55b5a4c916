//! # greenweb-fleet
//!
//! A deterministic parallel executor for batches of simulation jobs.
//!
//! The evaluation of the paper is a matrix — workloads × policies ×
//! chaos seeds — and every cell is an independent, deterministic
//! simulation. This crate runs such a batch on a fixed pool of worker
//! threads (`std::thread::scope`, no `unsafe`, no dependencies) while
//! guaranteeing that the *observable output is identical to a serial
//! run*:
//!
//! * jobs are drained from the queue **by index** (an atomic cursor),
//! * every result is slotted back **at its job's index**, and
//! * each job is a pure function of its inputs (a
//!   [`greenweb_engine::RunSpec`] builds its browser on the worker, so
//!   no `Rc`-backed state ever crosses a thread).
//!
//! Worker scheduling therefore only affects wall-clock time, never
//! ordering, metrics, goldens, or exported traces. With
//! [`Jobs::serial`] (or a single-job batch) no thread is spawned at
//! all — that is the legacy inline path, bit-identical by construction.
//!
//! ## Two executors, two failure models
//!
//! * [`run_jobs`] / [`run_specs`] — the *trusted* path. Every job is
//!   expected to succeed; a panic in any job aborts the whole batch
//!   (the unwind crosses `thread::scope` on join). Use it for goldens
//!   and matrices over known-good workloads.
//! * [`supervise::run_supervised`] — the *hardened* path for corpus
//!   sweeps over untrusted inputs. Failures are contained per job and
//!   classified into a small taxonomy ([`supervise::FailureKind`]):
//!   **panic** (caught via `catch_unwind`, payload preserved),
//!   **budget-exceeded** (a [`greenweb_engine::RunBudget`] watchdog
//!   ceiling tripped), **load** (HTML/CSS/script parse failure), and
//!   **script** (runtime callback error). Each failing job climbs a
//!   deterministic retry ladder and is quarantined — not fatal — when
//!   its attempts run out, while outcomes stream to the caller in job
//!   order for append-only checkpointing.

#![forbid(unsafe_code)]

pub mod supervise;

pub use supervise::{
    run_supervised, run_supervised_collect, FailureKind, FleetReport, JobFailure, JobStatus,
    RetryPolicy, SupervisedJob, SupervisedOutcome,
};

use greenweb_engine::{BrowserError, RunOutcome, RunSpec};
use std::env::VarError;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The environment variable overriding the default worker count
/// (`GREENWEB_JOBS=1` forces the legacy serial path everywhere).
pub const JOBS_ENV: &str = "GREENWEB_JOBS";

/// How many worker threads a batch may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Jobs(NonZeroUsize);

impl Jobs {
    /// Exactly one worker: the legacy serial path (runs inline on the
    /// calling thread, spawning nothing).
    pub fn serial() -> Self {
        Jobs(NonZeroUsize::MIN)
    }

    /// Exactly `n` workers; zero is clamped to one.
    pub fn new(n: usize) -> Self {
        Jobs(NonZeroUsize::new(n).unwrap_or(NonZeroUsize::MIN))
    }

    /// One worker per available hardware thread (the `--jobs` default).
    pub fn auto() -> Self {
        Jobs(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// [`Jobs::auto`], unless the `GREENWEB_JOBS` environment variable
    /// names an explicit count.
    ///
    /// # Panics
    ///
    /// When `GREENWEB_JOBS` is set to anything but a positive integer:
    /// a typo must not silently change the worker count a parity pass
    /// runs at.
    pub fn from_env() -> Self {
        Self::from_var(std::env::var(JOBS_ENV))
    }

    /// [`Jobs::from_env`] on an already-read variable.
    fn from_var(var: Result<String, VarError>) -> Self {
        match var {
            Err(VarError::NotPresent) => Self::auto(),
            Ok(value) => value
                .parse()
                .unwrap_or_else(|e| panic!("{JOBS_ENV}={value:?} is not a positive integer: {e}")),
            Err(VarError::NotUnicode(value)) => {
                panic!("{JOBS_ENV}={value:?} is not a positive integer")
            }
        }
    }

    /// The worker count.
    pub fn count(self) -> usize {
        self.0.get()
    }

    /// True for the one-worker serial path.
    pub fn is_serial(self) -> bool {
        self.count() == 1
    }
}

impl Default for Jobs {
    fn default() -> Self {
        Self::from_env()
    }
}

impl FromStr for Jobs {
    type Err = std::num::ParseIntError;

    /// Parses a positive worker count; zero is an error, not one.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.trim().parse().map(Jobs)
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.count())
    }
}

/// Runs `jobs` and returns their results **in job order**, regardless
/// of the worker count or which worker finished first.
///
/// With one worker (or at most one job) everything runs inline on the
/// calling thread. Otherwise `min(workers, jobs)` scoped threads drain
/// the queue through an atomic index cursor; each result lands at its
/// job's slot.
///
/// This is the *trusted* executor: a panicking job takes down the whole
/// batch (the panic resumes on the caller when the scope joins — after,
/// note, the remaining workers have drained the queue). Batches that
/// must survive poisoned jobs belong on [`supervise::run_supervised`],
/// which catches the unwind per attempt and quarantines instead.
pub fn run_jobs<J, R>(jobs: Vec<J>, workers: Jobs) -> Vec<R>
where
    J: FnOnce() -> R + Send,
    R: Send,
{
    if workers.is_serial() || jobs.len() <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let threads = workers.count().min(jobs.len());
    let total = jobs.len();
    // The queue: jobs parked at their index, claimed via the cursor.
    // (A Mutex'd Vec<Option<J>> rather than channels: claims are index-
    // ordered, and the lock is held only for a `take`, never a run.)
    let queue: Mutex<Vec<Option<J>>> = Mutex::new(jobs.into_iter().map(Some).collect());
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..total).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= total {
                    return;
                }
                let job = queue.lock().expect("queue lock poisoned")[index]
                    .take()
                    .expect("each index is claimed exactly once");
                let result = job();
                results.lock().expect("results lock poisoned")[index] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

/// Executes a batch of [`RunSpec`]s, one job per spec, returning the
/// outcomes in spec order. The browser for each spec is constructed on
/// the worker that runs it ([`RunSpec::execute`]).
pub fn run_specs(specs: Vec<RunSpec>, workers: Jobs) -> Vec<Result<RunOutcome, BrowserError>> {
    run_jobs(
        specs
            .into_iter()
            .map(|spec| move || spec.execute())
            .collect(),
        workers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_parsing_and_clamping() {
        assert_eq!("4".parse::<Jobs>().unwrap().count(), 4);
        assert_eq!(" 2 ".parse::<Jobs>().unwrap().count(), 2);
        assert!("x".parse::<Jobs>().is_err());
        assert!("0".parse::<Jobs>().is_err());
        assert!("".parse::<Jobs>().is_err());
        assert!("-2".parse::<Jobs>().is_err());
        assert_eq!(Jobs::new(0).count(), 1);
        assert!(Jobs::serial().is_serial());
        assert!(Jobs::auto().count() >= 1);
        assert_eq!(Jobs::new(3).to_string(), "3");
    }

    #[test]
    fn jobs_env_value_is_parsed_strictly() {
        assert_eq!(Jobs::from_var(Err(VarError::NotPresent)), Jobs::auto());
        assert_eq!(Jobs::from_var(Ok("3".into())).count(), 3);
        assert_eq!(Jobs::from_var(Ok(" 1\n".into())), Jobs::serial());
    }

    #[test]
    #[should_panic(expected = "GREENWEB_JOBS=\"0\" is not a positive integer")]
    fn jobs_env_zero_panics() {
        Jobs::from_var(Ok("0".into()));
    }

    #[test]
    #[should_panic(expected = "GREENWEB_JOBS=\"two\" is not a positive integer")]
    fn jobs_env_malformed_value_panics() {
        Jobs::from_var(Ok("two".into()));
    }

    #[test]
    #[should_panic(expected = "GREENWEB_JOBS=\"\" is not a positive integer")]
    fn jobs_env_empty_value_panics() {
        Jobs::from_var(Ok(String::new()));
    }

    #[test]
    fn results_are_in_job_order() {
        let jobs: Vec<_> = (0..37usize).map(|i| move || i * i).collect();
        let serial = run_jobs(jobs, Jobs::serial());
        let jobs: Vec<_> = (0..37usize).map(|i| move || i * i).collect();
        let parallel = run_jobs(jobs, Jobs::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial[6], 36);
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let jobs: Vec<_> = (0..2usize).map(|i| move || i + 1).collect();
        assert_eq!(run_jobs(jobs, Jobs::new(16)), vec![1, 2]);
    }

    #[test]
    fn empty_batch_yields_empty_results() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(run_jobs(jobs, Jobs::new(4)).is_empty());
    }

    #[test]
    fn every_index_runs_exactly_once_under_contention() {
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        let jobs: Vec<_> = (0..100usize)
            .map(|i| {
                let hits = &hits;
                move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        let out = run_jobs(jobs, Jobs::new(8));
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }
}
