//! The warp processing unit (WPU) with **dynamic warp subdivision** — the
//! primary contribution of Meng, Tarjan & Skadron (ISCA 2010).
//!
//! A WPU groups scalar threads into warps that execute in SIMD lockstep.
//! Two kinds of divergence leave runnable threads idle in conventional
//! designs:
//!
//! * **branch divergence** — threads of a warp take different paths at a
//!   conditional branch; a re-convergence stack serializes the paths;
//! * **memory-latency divergence** — some threads of a warp hit the D-cache
//!   while others miss; the whole warp stalls for the slowest lane.
//!
//! Dynamic warp subdivision (DWS) lets a warp occupy more than one scheduler
//! slot by splitting it into *warp-splits* tracked in a warp-split table
//! ([`wst`]). Splits are independent scheduling entities: divergent branch
//! paths interleave, and threads that hit run ahead (non-speculatively
//! prefetching for those that fell behind). Splits re-merge through
//! stack-based or PC-based re-convergence.
//!
//! The crate provides:
//!
//! * [`Mask`] — active-thread bit masks,
//! * [`Policy`] — every scheme evaluated in the paper (`Conv`, the DWS
//!   subdivision × re-convergence matrix, and the adaptive-slip baseline),
//! * [`Wpu`] — the cycle-level engine that executes kernel IR over the
//!   `dws-mem` hierarchy under a chosen policy,
//! * [`WpuStats`] — everything the paper's figures need, from per-thread
//!   miss maps (Figure 14) to divergence characterization (Table 1).

mod exec;
pub mod group;
pub mod mask;
pub mod policy;
pub mod regfile;
pub mod stats;
pub mod trace;
pub mod warp;
pub mod wpu;
pub mod wst;

pub use group::{Group, GroupId, GroupStatus};
pub use mask::Mask;
pub use policy::{BranchHandling, DwsConfig, MemSplit, Policy, ReconvMode, SlipConfig};
pub use regfile::{LaneView, RegFile};
pub use stats::WpuStats;
pub use trace::{TraceEvent, Tracer};
pub use warp::{Frame, Warp};
pub use wpu::{TickClass, Wpu, WpuConfig};
pub use wst::WstAccounting;
