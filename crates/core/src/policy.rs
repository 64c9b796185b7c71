//! Every scheduling policy evaluated in the paper, expressed as data.
//!
//! The paper's named configurations map onto [`Policy`] as follows (see
//! Figures 7, 11 and 13):
//!
//! | Paper name | Constructor |
//! |---|---|
//! | `Conv` | [`Policy::conventional`] |
//! | branch-DWS, stack-based re-conv. (Fig. 7) | [`Policy::dws_branch_stack`] |
//! | `DWS.BranchOnly` (PC-based re-conv.) | [`Policy::dws_branch_only`] |
//! | `DWS.ReviveSplit.MemOnly` | [`Policy::dws_mem_only`] |
//! | `DWS.AggressSplit` | [`Policy::dws_aggress`] |
//! | `DWS.LazySplit` | [`Policy::dws_lazy`] |
//! | `DWS.ReviveSplit` (the headline scheme) | [`Policy::dws_revive`] |
//! | `AggressSplit.BL` etc. (Fig. 11) | [`Policy::dws_branch_limited`] |
//! | `Slip` | [`Policy::slip`] |
//! | `Slip.BranchBypass` | [`Policy::slip_branch_bypass`] |

/// When to subdivide a warp upon memory divergence (paper Section 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSplit {
    /// Split on every memory divergence (`AggressSplit`).
    Aggressive,
    /// Split only when no other SIMD group on the WPU could hide the
    /// latency (`LazySplit`).
    Lazy,
    /// `LazySplit`, plus: when the pipeline stalls, revive one suspended
    /// group whose arrived threads can run ahead (`ReviveSplit`).
    Revive,
}

/// How warp-splits re-converge (paper Sections 4.4–4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconvMode {
    /// Splits run until the post-dominator on top of the warp's
    /// re-convergence stack, then stall to be re-united.
    StackBased,
    /// Additionally, ready splits of the same warp whose PCs meet are
    /// re-united immediately (checked when the running split executes a
    /// memory instruction). Stack-based re-convergence still applies as the
    /// backstop.
    PcBased,
}

/// How branches interact with memory-divergence splits (Section 5.3.1–5.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchHandling {
    /// Splits must re-converge at every branch and post-dominator, keeping
    /// the re-convergence stack authoritative (`BranchLimited`).
    BranchLimited,
    /// Run-ahead splits proceed beyond branches (and hence loop
    /// boundaries); divergent branches subdivide further or serialize
    /// within the split (`BranchBypass`).
    BranchBypass,
}

/// Full DWS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwsConfig {
    /// Subdivide on divergent branches statically marked subdividable.
    pub branch_split: bool,
    /// Memory-divergence subdivision scheme, if enabled.
    pub mem_split: Option<MemSplit>,
    /// Re-convergence mode.
    pub reconv: ReconvMode,
    /// Branch handling for splits.
    pub branch_handling: BranchHandling,
    /// Under PC-based re-convergence, also match the running split's PC
    /// against ready siblings at *issue* (a CAM over the WST PC fields),
    /// not only after memory instructions. See DESIGN.md note 2; the
    /// `ablation_reconv` bench quantifies it.
    pub issue_pc_cam: bool,
    /// On a branch split where one edge jumps straight to the
    /// post-dominator, keep executing the other side and park the empty
    /// one (it then re-merges almost immediately). See DESIGN.md note 2.
    pub park_short_path: bool,
    /// Extension of the paper's future work (Section 5.2: deciding when to
    /// subdivide "requires foreknowledge or speculation ... prediction
    /// hardware"): a profiling-interval controller that disables
    /// subdivision while the pipeline is issue-bound and re-enables it
    /// while it is memory-bound. Off in every paper-named configuration.
    pub adaptive_throttle: bool,
}

impl DwsConfig {
    /// The defaults shared by every named configuration.
    fn base(
        branch_split: bool,
        mem_split: Option<MemSplit>,
        reconv: ReconvMode,
        branch_handling: BranchHandling,
    ) -> DwsConfig {
        DwsConfig {
            branch_split,
            mem_split,
            reconv,
            branch_handling,
            issue_pc_cam: true,
            park_short_path: true,
            adaptive_throttle: false,
        }
    }
}

/// Adaptive-slip configuration (paper Section 5.7, after Tarjan et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlipConfig {
    /// Allow run-ahead threads to proceed beyond conditional branches
    /// (`Slip.BranchBypass`); plain `Slip` stalls at them.
    pub branch_bypass: bool,
    /// Profiling interval in cycles for the adaptive divergence bound.
    pub interval: u64,
    /// Increment the bound when the memory-stall fraction exceeds this.
    pub raise_threshold: f64,
    /// Decrement the bound when the busy fraction exceeds this.
    pub lower_threshold: f64,
}

impl Default for SlipConfig {
    fn default() -> Self {
        SlipConfig {
            branch_bypass: false,
            interval: 100_000,
            raise_threshold: 0.7,
            lower_threshold: 0.5,
        }
    }
}

/// A WPU scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// The conventional baseline: re-convergence stack only, warps stall on
    /// any lane's miss.
    Conventional,
    /// Dynamic warp subdivision.
    Dws(DwsConfig),
    /// Adaptive slip.
    Slip(SlipConfig),
}

impl Policy {
    /// `Conv` — the baseline all speedups are normalized to.
    pub fn conventional() -> Policy {
        Policy::Conventional
    }

    /// Branch-divergence DWS with stack-based re-convergence (Figure 7).
    pub fn dws_branch_stack() -> Policy {
        Policy::Dws(DwsConfig::base(
            true,
            None,
            ReconvMode::StackBased,
            BranchHandling::BranchBypass,
        ))
    }

    /// `DWS.BranchOnly`: branch-divergence DWS with PC-based re-convergence.
    pub fn dws_branch_only() -> Policy {
        Policy::Dws(DwsConfig::base(
            true,
            None,
            ReconvMode::PcBased,
            BranchHandling::BranchBypass,
        ))
    }

    /// `DWS.ReviveSplit.MemOnly`: memory-divergence DWS alone (no branch
    /// subdivision; splits serialize divergent branches internally).
    pub fn dws_mem_only() -> Policy {
        Policy::Dws(DwsConfig::base(
            false,
            Some(MemSplit::Revive),
            ReconvMode::PcBased,
            BranchHandling::BranchBypass,
        ))
    }

    /// `DWS.AggressSplit`: integrated branch + memory DWS, aggressive.
    pub fn dws_aggress() -> Policy {
        Policy::Dws(DwsConfig::base(
            true,
            Some(MemSplit::Aggressive),
            ReconvMode::PcBased,
            BranchHandling::BranchBypass,
        ))
    }

    /// `DWS.LazySplit`.
    pub fn dws_lazy() -> Policy {
        Policy::Dws(DwsConfig::base(
            true,
            Some(MemSplit::Lazy),
            ReconvMode::PcBased,
            BranchHandling::BranchBypass,
        ))
    }

    /// `DWS.ReviveSplit` — the paper's best configuration (1.71X average).
    pub fn dws_revive() -> Policy {
        Policy::Dws(DwsConfig::base(
            true,
            Some(MemSplit::Revive),
            ReconvMode::PcBased,
            BranchHandling::BranchBypass,
        ))
    }

    /// Figure 11's `*.BL` family: memory-divergence splits whose lifetime is
    /// limited to a basic block (`BranchLimited` re-convergence).
    pub fn dws_branch_limited(split: MemSplit) -> Policy {
        Policy::Dws(DwsConfig::base(
            false,
            Some(split),
            ReconvMode::PcBased,
            BranchHandling::BranchLimited,
        ))
    }

    /// `DWS.ReviveSplit.Throttled` — this reproduction's extension of the
    /// paper's future work: ReviveSplit gated by an issue-pressure
    /// predictor (see [`DwsConfig::adaptive_throttle`]).
    pub fn dws_revive_throttled() -> Policy {
        let mut c = DwsConfig::base(
            true,
            Some(MemSplit::Revive),
            ReconvMode::PcBased,
            BranchHandling::BranchBypass,
        );
        c.adaptive_throttle = true;
        Policy::Dws(c)
    }

    /// `Slip` — adaptive slip without branch predication.
    pub fn slip() -> Policy {
        Policy::Slip(SlipConfig::default())
    }

    /// `Slip.BranchBypass` — adaptive slip combined with DWS-style branch
    /// bypass.
    pub fn slip_branch_bypass() -> Policy {
        Policy::Slip(SlipConfig {
            branch_bypass: true,
            ..SlipConfig::default()
        })
    }

    /// Whether this policy ever creates warp-splits (needs a WST).
    pub fn uses_wst(&self) -> bool {
        matches!(self, Policy::Dws(_))
    }

    /// The paper's display name for the configuration.
    pub fn paper_name(&self) -> &'static str {
        match self {
            Policy::Conventional => "Conv",
            Policy::Slip(c) if c.branch_bypass => "Slip.BranchBypass",
            Policy::Slip(_) => "Slip",
            Policy::Dws(c) => match (c.branch_split, c.mem_split, c.reconv, c.branch_handling) {
                (true, None, ReconvMode::StackBased, _) => "DWS.Branch.StackReconv",
                (true, None, ReconvMode::PcBased, _) => "DWS.BranchOnly",
                (false, Some(MemSplit::Revive), _, BranchHandling::BranchBypass) => {
                    "DWS.ReviveSplit.MemOnly"
                }
                (false, Some(MemSplit::Aggressive), _, BranchHandling::BranchLimited) => {
                    "DWS.AggressSplit.BL"
                }
                (false, Some(MemSplit::Lazy), _, BranchHandling::BranchLimited) => {
                    "DWS.LazySplit.BL"
                }
                (false, Some(MemSplit::Revive), _, BranchHandling::BranchLimited) => {
                    "DWS.ReviveSplit.BL"
                }
                (true, Some(MemSplit::Aggressive), _, _) => "DWS.AggressSplit",
                (true, Some(MemSplit::Lazy), _, _) => "DWS.LazySplit",
                (true, Some(MemSplit::Revive), _, _) if c.adaptive_throttle => {
                    "DWS.ReviveSplit.Throttled"
                }
                (true, Some(MemSplit::Revive), _, _) => "DWS.ReviveSplit",
                _ => "DWS.custom",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names_round_trip() {
        assert_eq!(Policy::conventional().paper_name(), "Conv");
        assert_eq!(Policy::dws_branch_only().paper_name(), "DWS.BranchOnly");
        assert_eq!(
            Policy::dws_branch_stack().paper_name(),
            "DWS.Branch.StackReconv"
        );
        assert_eq!(Policy::dws_revive().paper_name(), "DWS.ReviveSplit");
        assert_eq!(Policy::dws_aggress().paper_name(), "DWS.AggressSplit");
        assert_eq!(Policy::dws_lazy().paper_name(), "DWS.LazySplit");
        assert_eq!(
            Policy::dws_mem_only().paper_name(),
            "DWS.ReviveSplit.MemOnly"
        );
        assert_eq!(
            Policy::dws_branch_limited(MemSplit::Revive).paper_name(),
            "DWS.ReviveSplit.BL"
        );
        assert_eq!(Policy::slip().paper_name(), "Slip");
        assert_eq!(
            Policy::slip_branch_bypass().paper_name(),
            "Slip.BranchBypass"
        );
    }

    #[test]
    fn wst_usage() {
        assert!(!Policy::conventional().uses_wst());
        assert!(Policy::dws_revive().uses_wst());
        assert!(!Policy::slip().uses_wst());
    }

    #[test]
    fn slip_defaults_match_paper() {
        let c = SlipConfig::default();
        assert_eq!(c.interval, 100_000);
        assert!((c.raise_threshold - 0.7).abs() < 1e-12);
        assert!((c.lower_threshold - 0.5).abs() < 1e-12);
    }
}
