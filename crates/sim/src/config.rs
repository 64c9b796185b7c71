//! Simulation configuration and errors.

use crate::diag::DiagnosticReport;
use dws_core::Policy;
use dws_engine::fault::FaultPlan;
use dws_mem::MemConfig;
use std::fmt;
use std::time::Duration;

/// Full machine configuration. Defaults mirror the paper's Table 3.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of WPUs (the paper simulates four).
    pub n_wpus: usize,
    /// SIMD width per warp.
    pub width: usize,
    /// Warps per WPU.
    pub n_warps: usize,
    /// Scheduling policy.
    pub policy: Policy,
    /// Scheduler slots per WPU (paper: double the warp count).
    pub sched_slots: usize,
    /// Warp-split table entries per WPU (paper: 16).
    pub wst_entries: usize,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Abort the run after this many cycles (deadlock backstop).
    pub max_cycles: u64,
    /// Deterministic timing-fault injection plan (default: no faults; the
    /// zero-fault plan is bit-identical to a machine without injection).
    pub fault: FaultPlan,
    /// Forward-progress watchdog: abort with [`SimError::Livelock`] after
    /// this many consecutive processed cycles in which no WPU retired an
    /// instruction. Sleeping through an event gap is not livelock — only
    /// densely processed, retire-free cycles count.
    pub livelock_window: u64,
    /// Optional host wall-clock budget for one run; exceeded budgets abort
    /// with [`SimError::HostBudget`].
    pub host_budget: Option<Duration>,
}

impl SimConfig {
    /// The paper's baseline machine: 4 WPUs x 16-wide x 4 warps over the
    /// Table 3 hierarchy, under the given policy.
    pub fn paper(policy: Policy) -> Self {
        let n_wpus = 4;
        let width = 16;
        SimConfig {
            n_wpus,
            width,
            n_warps: 4,
            policy,
            sched_slots: 8,
            wst_entries: 16,
            mem: MemConfig::paper(n_wpus, width),
            max_cycles: 20_000_000_000,
            fault: FaultPlan::NONE,
            livelock_window: 2_000_000,
            host_budget: None,
        }
    }

    /// Sets the fault-injection plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Changes the WPU count (and the matching number of L1s).
    pub fn with_wpus(mut self, n: usize) -> Self {
        self.n_wpus = n;
        self.mem.n_l1s = n;
        self
    }

    /// Changes the SIMD width (and the L1 banking that follows it).
    pub fn with_width(mut self, width: usize) -> Self {
        self.width = width;
        self.mem.l1d.banks = width.max(1);
        self
    }

    /// Changes the multi-threading depth and keeps the paper's 2x scheduler
    /// sizing.
    pub fn with_warps(mut self, n_warps: usize) -> Self {
        self.n_warps = n_warps;
        self.sched_slots = 2 * n_warps;
        self
    }

    /// Changes the policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Total hardware threads in the machine.
    pub fn total_threads(&self) -> u64 {
        (self.n_wpus * self.width * self.n_warps) as u64
    }

    /// The livelock window actually enforced by a run: the
    /// `DWS_WATCHDOG_LIVELOCK` environment variable (processed cycles, at
    /// least 1) when set and valid, else
    /// [`livelock_window`](SimConfig::livelock_window). Malformed or zero
    /// values warn once and fall back, mirroring `DWS_JOBS` handling.
    pub fn effective_livelock_window(&self) -> u64 {
        env_watchdog_u64("DWS_WATCHDOG_LIVELOCK")
            .unwrap_or(self.livelock_window)
            .max(1)
    }

    /// The host wall-clock budget actually enforced by a run:
    /// `DWS_WATCHDOG_HOST_MS` (milliseconds, >= 1) when set and valid,
    /// else [`host_budget`](SimConfig::host_budget). The override can
    /// impose a budget on a config that has none; it cannot remove one.
    pub fn effective_host_budget(&self) -> Option<Duration> {
        env_watchdog_u64("DWS_WATCHDOG_HOST_MS")
            .map(Duration::from_millis)
            .or(self.host_budget)
    }
}

/// Reads a watchdog override variable: `Some(n)` for a valid `n >= 1`,
/// `None` (after a once-only warning for malformed input) otherwise.
fn env_watchdog_u64(var: &str) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    match parse_watchdog_value(&raw) {
        Ok(n) => Some(n),
        Err(why) => {
            crate::sweep::warn_once(&format!(
                "{var}={raw:?} {why}; using the configured watchdog value"
            ));
            None
        }
    }
}

/// Pure watchdog-value parser (split out so tests need not mutate the
/// process environment): accepts a positive integer, rejects zero and
/// non-numeric input with a human-readable reason.
pub(crate) fn parse_watchdog_value(raw: &str) -> Result<u64, &'static str> {
    match raw.trim().parse::<u64>() {
        Ok(0) => Err("is zero (need >= 1)"),
        Ok(n) => Ok(n),
        Err(_) => Err("is not a positive integer"),
    }
}

/// Why a simulation failed.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The cycle budget elapsed; carries a machine-state snapshot.
    Timeout {
        /// Cycle count at abort.
        cycles: u64,
        /// Machine-state snapshot at abort.
        diagnostics: DiagnosticReport,
    },
    /// No WPU can make progress and no event is pending.
    Deadlock {
        /// Cycle of detection.
        cycles: u64,
        /// Machine-state snapshot at abort.
        diagnostics: DiagnosticReport,
    },
    /// Cycles kept advancing but no instruction retired for the configured
    /// [`livelock_window`](SimConfig::livelock_window) — the machine spins
    /// without forward progress (e.g. a structural-reject loop that can
    /// never drain).
    Livelock {
        /// Cycle of detection.
        cycles: u64,
        /// Consecutive processed cycles without a retired instruction.
        stalled_for: u64,
        /// Machine-state snapshot at abort.
        diagnostics: DiagnosticReport,
    },
    /// The per-run host wall-clock budget elapsed.
    HostBudget {
        /// Cycle count at abort.
        cycles: u64,
        /// The budget that was exceeded.
        budget: Duration,
    },
    /// The final memory image failed the kernel's verifier (streaming
    /// sweeps check on arrival, before the image is dropped).
    VerifyFailed {
        /// Label of the sweep job that failed.
        label: String,
        /// The verifier's mismatch report.
        message: String,
    },
    /// The worker running this sweep job panicked; the sweep's other jobs
    /// were unaffected.
    Panicked {
        /// Label of the sweep job that panicked.
        label: String,
        /// The panic payload, rendered to a string.
        payload: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout { cycles, .. } => {
                write!(f, "simulation exceeded its cycle budget at cycle {cycles}")
            }
            SimError::Deadlock { cycles, .. } => {
                write!(f, "simulation deadlocked at cycle {cycles}")
            }
            SimError::Livelock {
                cycles,
                stalled_for,
                ..
            } => {
                write!(
                    f,
                    "simulation livelocked at cycle {cycles}: no instruction retired \
                     for {stalled_for} processed cycles"
                )
            }
            SimError::HostBudget { cycles, budget } => {
                write!(
                    f,
                    "simulation exceeded its {:.1}s host budget at cycle {cycles}",
                    budget.as_secs_f64()
                )
            }
            SimError::VerifyFailed { label, message } => {
                write!(f, "verification failed for {label}: {message}")
            }
            SimError::Panicked { label, payload } => {
                write!(f, "worker panicked in {label}: {payload}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper(Policy::conventional());
        assert_eq!(c.n_wpus, 4);
        assert_eq!(c.width, 16);
        assert_eq!(c.n_warps, 4);
        assert_eq!(c.sched_slots, 8);
        assert_eq!(c.wst_entries, 16);
        assert_eq!(c.total_threads(), 256);
    }

    #[test]
    fn builders_update_dependents() {
        let c = SimConfig::paper(Policy::conventional())
            .with_wpus(2)
            .with_width(8)
            .with_warps(6);
        assert_eq!(c.mem.n_l1s, 2);
        assert_eq!(c.mem.l1d.banks, 8);
        assert_eq!(c.sched_slots, 12);
        assert_eq!(c.total_threads(), 2 * 8 * 6);
    }

    #[test]
    fn watchdog_value_parsing() {
        assert_eq!(parse_watchdog_value("500"), Ok(500));
        assert_eq!(parse_watchdog_value("  42\n"), Ok(42));
        assert!(parse_watchdog_value("0").is_err());
        assert!(parse_watchdog_value("-3").is_err());
        assert!(parse_watchdog_value("fast").is_err());
        assert!(parse_watchdog_value("1.5").is_err());
        assert!(parse_watchdog_value("").is_err());
    }

    #[test]
    fn effective_watchdogs_fall_back_to_config() {
        // The DWS_WATCHDOG_* variables are unset under `cargo test`; the
        // env-override path itself is covered by the CLI fuzz smoke run,
        // which sets them explicitly.
        let mut c = SimConfig::paper(Policy::conventional());
        c.livelock_window = 1234;
        assert_eq!(c.effective_livelock_window(), 1234);
        assert_eq!(c.effective_host_budget(), None);
        c.host_budget = Some(Duration::from_millis(250));
        assert_eq!(c.effective_host_budget(), Some(Duration::from_millis(250)));
        c.livelock_window = 0; // still clamped to >= 1
        assert_eq!(c.effective_livelock_window(), 1);
    }

    #[test]
    fn error_display() {
        let empty = DiagnosticReport {
            cycles: 7,
            wpus: Vec::new(),
            pending_fills: 0,
        };
        let e = SimError::Deadlock {
            cycles: 7,
            diagnostics: empty.clone(),
        };
        assert!(e.to_string().contains("deadlock"));
        let e = SimError::Livelock {
            cycles: 9,
            stalled_for: 4,
            diagnostics: empty,
        };
        assert!(e.to_string().contains("livelock"));
        let e = SimError::HostBudget {
            cycles: 11,
            budget: Duration::from_secs(2),
        };
        assert!(e.to_string().contains("host budget"));
        let e = SimError::Panicked {
            label: "job".into(),
            payload: "boom".into(),
        };
        assert!(e.to_string().contains("boom"));
    }
}
