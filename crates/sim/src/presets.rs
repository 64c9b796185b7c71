//! Experiment presets: the named configurations each figure sweeps.

use crate::config::SimConfig;
use dws_core::{MemSplit, Policy};

/// `Conv` — the baseline every figure normalizes against.
pub fn conv() -> SimConfig {
    SimConfig::paper(Policy::conventional())
}

/// `DWS.ReviveSplit` — the paper's headline configuration.
pub fn dws() -> SimConfig {
    SimConfig::paper(Policy::dws_revive())
}

/// The policy set of Figure 7 (branch-divergence DWS only).
pub fn figure7_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("StackReconv", Policy::dws_branch_stack()),
        ("PCReconv", Policy::dws_branch_only()),
    ]
}

/// The policy set of Figure 11 (BranchLimited memory-divergence DWS).
pub fn figure11_policies() -> Vec<(&'static str, Policy)> {
    vec![
        (
            "DWS.AggressSplit.BL",
            Policy::dws_branch_limited(MemSplit::Aggressive),
        ),
        (
            "DWS.LazySplit.BL",
            Policy::dws_branch_limited(MemSplit::Lazy),
        ),
        (
            "DWS.ReviveSplit.BL",
            Policy::dws_branch_limited(MemSplit::Revive),
        ),
    ]
}

/// The policy set of Figure 13 (every scheme, per benchmark).
pub fn figure13_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("DWS.BranchOnly", Policy::dws_branch_only()),
        ("DWS.ReviveSplit.MemOnly", Policy::dws_mem_only()),
        ("DWS.AggressSplit", Policy::dws_aggress()),
        ("DWS.LazySplit", Policy::dws_lazy()),
        ("DWS.ReviveSplit", Policy::dws_revive()),
        ("Slip", Policy::slip()),
        ("Slip.BranchBypass", Policy::slip_branch_bypass()),
    ]
}

/// A machine scaled to `n_wpus` WPUs (paper per-WPU organization, one L1
/// per WPU), used by the WPU-scaling study at the counts in
/// [`scaling_wpu_counts`]. Like every machine it runs on one host thread;
/// a study gets its parallelism from running its points as separate
/// sweep jobs (`DWS_JOBS`).
pub fn scaled(policy: Policy, n_wpus: usize) -> SimConfig {
    SimConfig::paper(policy).with_wpus(n_wpus)
}

/// The WPU counts of the scaling study (8x, 16x, and 32x the paper's
/// 4-WPU machine).
#[must_use]
pub fn scaling_wpu_counts() -> [usize; 3] {
    [32, 64, 128]
}

/// The three systems compared in the sensitivity studies (Figures 18/19/21).
pub fn sensitivity_policies() -> Vec<(&'static str, Policy)> {
    vec![
        ("Conv", Policy::conventional()),
        ("DWS", Policy::dws_revive()),
        ("Slip.BranchBypass", Policy::slip_branch_bypass()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names_are_unique() {
        let names: Vec<&str> = figure13_policies().iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn scaled_presets_size_the_hierarchy() {
        for n in scaling_wpu_counts() {
            let c = scaled(Policy::dws_revive(), n);
            assert_eq!(c.n_wpus, n);
            assert_eq!(c.mem.n_l1s, n);
            assert_eq!(c.total_threads(), (n * 16 * 4) as u64);
        }
    }

    #[test]
    fn headline_configs() {
        assert_eq!(conv().policy.paper_name(), "Conv");
        assert_eq!(dws().policy.paper_name(), "DWS.ReviveSplit");
        assert_eq!(figure7_policies().len(), 2);
        assert_eq!(figure11_policies().len(), 3);
        assert_eq!(sensitivity_policies().len(), 3);
    }
}
