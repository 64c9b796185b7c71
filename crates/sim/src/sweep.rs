//! Parallel sweep execution.
//!
//! The paper's evaluation is a wall of independent simulations — up to
//! eight benchmarks times many configurations per figure — and each
//! simulation is single-threaded and deterministic. `SweepRunner` fans
//! those `(label, SimConfig, Arc<KernelSpec>)` jobs over a scoped worker
//! pool: workers claim jobs through an atomic index (work stealing by
//! next-job-wins), each kernel's generated inputs are shared via `Arc`
//! instead of regenerated per point, and results are returned in
//! submission order so anything printed from them is byte-identical to a
//! serial run.
//!
//! Worker count comes from the `DWS_JOBS` environment variable when set
//! (with `DWS_JOBS=1` falling back to a strictly in-order inline loop),
//! otherwise from [`std::thread::available_parallelism`].
//!
//! # Example
//!
//! ```
//! use dws_core::Policy;
//! use dws_kernels::{Benchmark, Scale};
//! use dws_sim::{SimConfig, SweepRunner};
//! use std::sync::Arc;
//!
//! let spec = Arc::new(Benchmark::Filter.build(Scale::Test, 1));
//! let mut sweep = SweepRunner::new();
//! let conv = sweep.add("conv", SimConfig::paper(Policy::conventional()).with_wpus(1), &spec);
//! let dws = sweep.add("dws", SimConfig::paper(Policy::dws_revive()).with_wpus(1), &spec);
//! let results = sweep.run();
//! assert_eq!(results.len(), 2);
//! assert!(results[conv].result.is_ok() && results[dws].result.is_ok());
//! ```

use crate::config::{SimConfig, SimError};
use crate::machine::Machine;
use crate::metrics::RunResult;
use dws_kernels::KernelSpec;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One queued simulation: a labelled `(config, kernel)` point.
pub struct SweepJob {
    /// Display label (policy name, config description, ...).
    pub label: String,
    /// Machine configuration for this point.
    pub config: SimConfig,
    /// The kernel, shared across all points that simulate it.
    pub spec: Arc<KernelSpec>,
}

/// The completed form of a [`SweepJob`].
pub struct SweepOutcome {
    /// The job's label, carried through for reporting.
    pub label: String,
    /// The kernel the job simulated (for verification).
    pub spec: Arc<KernelSpec>,
    /// The simulation result or failure.
    pub result: Result<RunResult, SimError>,
    /// Host wall-clock seconds this single simulation took.
    pub host_seconds: f64,
}

/// Worker count for a sweep: `DWS_JOBS` if set and >= 1, else the host's
/// available parallelism, else 1. `DWS_JOBS=0` and unparseable values are
/// rejected with a once-per-process stderr warning, then fall back to
/// auto-detection.
#[must_use]
pub fn default_workers() -> usize {
    let from_env = std::env::var("DWS_JOBS")
        .ok()
        .and_then(|v| match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            Ok(_) => {
                warn_once("DWS_JOBS=0 is invalid (need >= 1); using the default");
                None
            }
            Err(_) => {
                warn_once(&format!(
                    "DWS_JOBS={v:?} is not a worker count; using the default"
                ));
                None
            }
        });
    from_env.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Prints one warning to stderr, at most once per process.
pub(crate) fn warn_once(msg: &str) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| eprintln!("warning: {msg}"));
}

/// One line per failed job, or `None` when every outcome succeeded — the
/// end-of-sweep failure summary for harnesses that keep going past a
/// poisoned job.
#[must_use]
pub fn failure_summary(outcomes: &[SweepOutcome]) -> Option<String> {
    use std::fmt::Write as _;
    let failed = outcomes.iter().filter(|o| o.result.is_err()).count();
    if failed == 0 {
        return None;
    }
    let mut s = format!("{failed}/{} sweep jobs failed:", outcomes.len());
    for o in outcomes {
        if let Err(e) = &o.result {
            let _ = write!(s, "\n  {}: {e}", o.label);
        }
    }
    Some(s)
}

/// Renders a `catch_unwind` payload: panics carry a `&str` or `String`
/// message in practice; anything else gets a placeholder.
pub(crate) fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A queue of independent simulation jobs executed by a worker pool.
#[derive(Default)]
pub struct SweepRunner {
    jobs: Vec<SweepJob>,
    workers: Option<usize>,
    job_budget: Option<Duration>,
}

impl SweepRunner {
    /// An empty sweep; worker count resolved from the environment at
    /// [`run`](Self::run) time.
    #[must_use]
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// Overrides the worker count (tests; callers normally use `DWS_JOBS`).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Caps each job's host wall-clock time: a job still running when its
    /// budget elapses aborts with [`SimError::HostBudget`] (jobs that
    /// already carry a tighter [`SimConfig::host_budget`] keep it).
    #[must_use]
    pub fn with_job_budget(mut self, budget: Duration) -> Self {
        self.job_budget = Some(budget);
        self
    }

    /// Queues one simulation and returns its job id — the index of its
    /// outcome in the slice returned by [`run`](Self::run).
    pub fn add(
        &mut self,
        label: impl Into<String>,
        config: SimConfig,
        spec: &Arc<KernelSpec>,
    ) -> usize {
        self.jobs.push(SweepJob {
            label: label.into(),
            config,
            spec: Arc::clone(spec),
        });
        self.jobs.len() - 1
    }

    /// Number of queued jobs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every queued job and returns outcomes in submission order.
    pub fn run(self) -> Vec<SweepOutcome> {
        self.run_with(|_, _| {})
    }

    /// Runs every queued job, invoking `on_complete(job_id, outcome)` as
    /// each finishes (from whichever worker thread ran it; completion
    /// order is nondeterministic with more than one worker). Outcomes are
    /// returned in submission order regardless.
    ///
    /// # Panics
    ///
    /// Propagates panics from `on_complete` (e.g. verification failures),
    /// prefixed with the failing job's label so one bad point in a
    /// 100-point sweep is attributable from the panic message alone.
    pub fn run_with<F>(self, on_complete: F) -> Vec<SweepOutcome>
    where
        F: Fn(usize, &SweepOutcome) + Sync,
    {
        self.run_map(|i, o| {
            on_complete(i, &o);
            o
        })
    }

    /// Streaming execution: each `RunResult` is verified against its
    /// kernel's spec on the worker that produced it, and the final memory
    /// image is dropped before the outcome is collected. Peak RSS stays
    /// one machine per worker instead of one memory image per job, which
    /// is what makes paper-scale grids practical. A verifier mismatch
    /// surfaces as [`SimError::VerifyFailed`] in that job's outcome.
    pub fn run_streaming(self) -> Vec<SweepOutcome> {
        self.run_map(|_, mut o| {
            if let Ok(r) = &mut o.result {
                match o.spec.verify(&r.memory) {
                    Ok(()) => r.memory = dws_isa::VecMemory::new(0),
                    Err(message) => {
                        o.result = Err(SimError::VerifyFailed {
                            label: o.label.clone(),
                            message,
                        });
                    }
                }
            }
            o
        })
    }

    /// Shared driver: runs each job, pipes its outcome through `map` on
    /// the worker thread, and returns the mapped outcomes in submission
    /// order. A panic inside `Machine::run` is caught and isolated to its
    /// own job as [`SimError::Panicked`]; a panic from `map` (the caller's
    /// callback) is re-raised with the job's label attached — carried back
    /// to the calling thread explicitly, because `thread::scope` replaces
    /// a worker's panic payload with a generic message.
    fn run_map<F>(self, map: F) -> Vec<SweepOutcome>
    where
        F: Fn(usize, SweepOutcome) -> SweepOutcome + Sync,
    {
        let n = self.jobs.len();
        let workers = self.workers.unwrap_or_else(default_workers).min(n.max(1));
        let job_budget = self.job_budget;
        let jobs = self.jobs;

        let run_one = |i: usize, job: &SweepJob| -> Result<SweepOutcome, String> {
            let t0 = Instant::now();
            let mut config = job.config;
            if let Some(b) = job_budget {
                config.host_budget = Some(config.host_budget.map_or(b, |own| own.min(b)));
            }
            let result =
                std::panic::catch_unwind(AssertUnwindSafe(|| Machine::run(&config, &job.spec)))
                    .unwrap_or_else(|p| {
                        Err(SimError::Panicked {
                            label: job.label.clone(),
                            payload: panic_payload(p.as_ref()),
                        })
                    });
            let outcome = SweepOutcome {
                label: job.label.clone(),
                spec: Arc::clone(&job.spec),
                result,
                host_seconds: t0.elapsed().as_secs_f64(),
            };
            match std::panic::catch_unwind(AssertUnwindSafe(|| map(i, outcome))) {
                Ok(mapped) => Ok(mapped),
                Err(p) => Err(format!(
                    "sweep job '{}' (id {i}): {}",
                    job.label,
                    panic_payload(p.as_ref())
                )),
            }
        };

        if workers <= 1 {
            // Strictly in-order inline execution: with DWS_JOBS=1 even the
            // progress callback fires in submission order, so stderr (not
            // just stdout) is byte-identical to the historical serial
            // harness.
            return jobs
                .iter()
                .enumerate()
                .map(|(i, j)| run_one(i, j).unwrap_or_else(|msg| panic!("{msg}")))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<SweepOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // First callback panic, label-annotated; re-raised after the join.
        let aborted: Mutex<Option<String>> = Mutex::new(None);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match run_one(i, &jobs[i]) {
                        Ok(outcome) => *slots[i].lock().unwrap() = Some(outcome),
                        Err(msg) => {
                            aborted.lock().unwrap().get_or_insert(msg);
                            break;
                        }
                    }
                });
            }
        });
        if let Some(msg) = aborted.into_inner().unwrap() {
            panic!("{msg}");
        }
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("no worker aborted, so every job slot is filled")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_core::Policy;
    use dws_kernels::{Benchmark, Scale};

    #[test]
    fn empty_sweep_is_fine() {
        assert!(SweepRunner::new().is_empty());
        assert!(SweepRunner::new().run().is_empty());
        assert!(SweepRunner::new().with_workers(8).run().is_empty());
    }

    #[test]
    fn outcomes_come_back_in_submission_order() {
        let spec = Arc::new(Benchmark::Short.build(Scale::Test, 3));
        let mut sweep = SweepRunner::new().with_workers(4);
        let mut ids = Vec::new();
        for (i, policy) in [Policy::conventional(), Policy::dws_revive(), Policy::slip()]
            .into_iter()
            .enumerate()
        {
            ids.push(sweep.add(
                format!("job{i}"),
                SimConfig::paper(policy).with_wpus(1),
                &spec,
            ));
        }
        assert_eq!(sweep.len(), 3);
        let out = sweep.run();
        assert_eq!(ids, vec![0, 1, 2]);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.label, format!("job{i}"));
            let r = o.result.as_ref().unwrap();
            o.spec.verify(&r.memory).unwrap();
            assert!(o.host_seconds >= 0.0);
        }
    }

    #[test]
    fn callback_sees_every_job_exactly_once() {
        let spec = Arc::new(Benchmark::Filter.build(Scale::Test, 5));
        let mut sweep = SweepRunner::new().with_workers(3);
        for i in 0..7 {
            sweep.add(
                format!("p{i}"),
                SimConfig::paper(Policy::dws_revive()).with_wpus(1),
                &spec,
            );
        }
        let seen = Mutex::new(vec![0u32; 7]);
        sweep.run_with(|i, o| {
            assert!(o.result.is_ok());
            seen.lock().unwrap()[i] += 1;
        });
        assert_eq!(*seen.lock().unwrap(), vec![1; 7]);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn streaming_verifies_and_drops_memory() {
        let spec = Arc::new(Benchmark::Filter.build(Scale::Test, 5));
        let mut sweep = SweepRunner::new().with_workers(2);
        for i in 0..4 {
            sweep.add(
                format!("s{i}"),
                SimConfig::paper(Policy::dws_revive()).with_wpus(1),
                &spec,
            );
        }
        let out = sweep.run_streaming();
        assert_eq!(out.len(), 4);
        for o in &out {
            let r = o.result.as_ref().unwrap();
            assert!(r.memory.words().is_empty(), "image dropped after verify");
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn streaming_reports_verifier_mismatch() {
        let good = Benchmark::Short.build(Scale::Test, 3);
        let bad = Arc::new(dws_kernels::KernelSpec::new(
            "short",
            good.program.clone(),
            good.memory.clone(),
            |_| Err("forced mismatch".into()),
        ));
        let mut sweep = SweepRunner::new().with_workers(1);
        sweep.add(
            "bad",
            SimConfig::paper(Policy::conventional()).with_wpus(1),
            &bad,
        );
        let out = sweep.run_streaming();
        match &out[0].result {
            Err(SimError::VerifyFailed { label, message }) => {
                assert_eq!(label, "bad");
                assert!(message.contains("forced mismatch"));
            }
            other => panic!("expected VerifyFailed, got {other:?}"),
        }
    }
}
