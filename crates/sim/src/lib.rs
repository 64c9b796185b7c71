//! Whole-machine simulation: the paper's four-WPU system over a two-level
//! coherent cache hierarchy, with a deterministic run loop, global-barrier
//! coordination, metric collection, and experiment presets for every
//! figure and table.
//!
//! # Example
//!
//! ```
//! use dws_sim::{Machine, SimConfig};
//! use dws_core::Policy;
//! use dws_kernels::{Benchmark, Scale};
//!
//! let spec = Benchmark::Filter.build(Scale::Test, 1);
//! let cfg = SimConfig::paper(Policy::dws_revive()).with_wpus(1);
//! let result = Machine::run(&cfg, &spec).expect("simulation completes");
//! spec.verify(&result.memory).expect("functionally correct");
//! assert!(result.cycles > 0);
//! ```

pub mod config;
pub mod diag;
pub mod fuzz;
pub mod lint;
pub mod machine;
pub mod metrics;
pub mod presets;
pub mod sweep;

pub use config::{SimConfig, SimError};
pub use diag::{DiagnosticReport, WpuDiag};
pub use fuzz::{
    check_program, run_campaign, Axis, FailureClass, FuzzConfig, FuzzFailure, FuzzFinding,
    FuzzReport, Perturbation, WatchdogKind,
};
pub use lint::lint_spec;
pub use machine::Machine;
pub use metrics::RunResult;
pub use sweep::{failure_summary, SweepOutcome, SweepRunner};
