//! SIMD groups: full warps and warp-splits, treated uniformly by the
//! scheduler (paper Section 4.2: "Warp-splits are independent scheduling
//! entities and are treated equally as warps").

use crate::mask::Mask;
use crate::warp::Frame;
use dws_engine::Cycle;

/// Identifier of a live group within a WPU (slab index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub usize);

/// Scheduling state of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupStatus {
    /// Eligible to issue once `ready_at` passes.
    Ready,
    /// Blocked on outstanding memory requests (lanes with `pending` set).
    WaitMem,
    /// Stalled at a re-convergence point (TOS post-dominator, or any branch
    /// under `BranchLimited`), waiting for sibling splits.
    WaitReconv,
    /// Stalled at a global barrier.
    WaitBarrier,
    /// Slip only: suspended fall-behind threads, re-united when the
    /// run-ahead revisits `slip_pc` (not resumed by request completion).
    SlipSuspended,
    /// Slip only: the run-ahead stalled at a conditional branch waiting for
    /// fall-behind threads to catch up.
    SlipStalledAtBranch,
}

/// A schedulable SIMD group: a full warp or a warp-split.
///
/// This is the software embodiment of one warp-split-table entry: warp id,
/// PC, active mask, status (the paper budgets 84 bits per entry). The
/// `local_stack` extends the paper's design: when a split encounters a
/// divergent branch it cannot subdivide on (WST full, or subdivision
/// disabled), the paths serialize within the split using conventional
/// re-convergence frames private to it.
#[derive(Debug, Clone)]
pub struct Group {
    /// Owning warp index within the WPU.
    pub warp: usize,
    /// Current PC.
    pub pc: usize,
    /// Active threads.
    pub mask: Mask,
    /// Scheduling status.
    pub status: GroupStatus,
    /// Earliest cycle the group may issue again.
    pub ready_at: Cycle,
    /// Private serialization frames for in-split branch divergence.
    pub local_stack: Vec<Frame>,
    /// Re-convergence PC of the group's innermost *local* region, if it is
    /// serializing a branch privately ([`Group::local_stack`]).
    pub local_rpc: Option<usize>,
    /// Slip: the memory-instruction PC this fall-behind group suspended at.
    pub slip_pc: Option<usize>,
    /// Slip: whether completed fall-behind threads may run independently to
    /// catch up (set when the run-ahead stalls at a branch/barrier/halt).
    pub slip_catchup: bool,
    /// Whether the group occupies a scheduler slot.
    pub slotted: bool,
    /// Creation sequence, for deterministic slot promotion and merging.
    pub seq: u64,
    /// Retired uniform-*spine* branches (see
    /// `dws_isa::verify::BranchUniformity::spine`). Together with the PC
    /// this identifies the group's position on the uniform spine: splits
    /// inherit it, and a merge of groups with unequal counts means lanes
    /// with different spine histories (e.g. different trip counts of a
    /// uniform loop) now share a group — the warp's uniform-branch fast
    /// path is then disabled.
    pub spine_trips: u64,
    /// Structural-stall memo: `(pc, mask, release count)` of the last
    /// rejected memory access, where the count is the L1's MSHR releases
    /// at which a re-probe could first be accepted (releases at rejection
    /// plus the reported deficit). While the group waits on full MSHRs its
    /// registers cannot change, so an identical attempt before that count
    /// is re-rejected without re-probing the cache. Cleared when the
    /// group's access is accepted: a group that loops back to the same
    /// `(pc, mask)` with new addresses must probe again.
    pub reject_memo: Option<(usize, Mask, u64)>,
}

impl Group {
    /// Creates a ready group.
    pub fn new(warp: usize, pc: usize, mask: Mask, seq: u64) -> Self {
        Group {
            warp,
            pc,
            mask,
            status: GroupStatus::Ready,
            ready_at: Cycle::ZERO,
            local_stack: Vec::new(),
            local_rpc: None,
            slip_pc: None,
            slip_catchup: false,
            slotted: false,
            seq,
            spine_trips: 0,
            reject_memo: None,
        }
    }

    /// Whether the reject memo still holds for the group's current
    /// `(pc, mask)` at an L1 that has released `releases` MSHRs so far.
    pub fn memo_blocks(&self, releases: u64) -> bool {
        self.reject_memo
            .is_some_and(|(pc, mask, at)| pc == self.pc && mask == self.mask && releases < at)
    }

    /// Whether the group can issue at `now`.
    pub fn issuable(&self, now: Cycle) -> bool {
        self.slotted && self.status == GroupStatus::Ready && self.ready_at <= now
    }

    /// Whether two groups' private serialization contexts line up
    /// structurally (same frame PCs and re-convergence PCs; the masks are
    /// per-group thread shares and are unioned on merge).
    pub fn local_ctx_compatible(&self, other: &Group) -> bool {
        self.local_rpc == other.local_rpc
            && self.local_stack.len() == other.local_stack.len()
            && self
                .local_stack
                .iter()
                .zip(&other.local_stack)
                .all(|(a, b)| a.pc == b.pc && a.rpc == b.rpc)
    }

    /// Whether two groups may merge: same warp, same PC, compatible
    /// serialization context, both runnable.
    pub fn can_merge_with(&self, other: &Group) -> bool {
        self.warp == other.warp
            && self.pc == other.pc
            && self.status == GroupStatus::Ready
            && other.status == GroupStatus::Ready
            && self.local_ctx_compatible(other)
            && self.slip_pc.is_none()
            && other.slip_pc.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issuable_requires_slot_ready_and_time() {
        let mut g = Group::new(0, 0, Mask::full(4), 0);
        assert!(!g.issuable(Cycle(0)), "unslotted");
        g.slotted = true;
        assert!(g.issuable(Cycle(0)));
        g.ready_at = Cycle(5);
        assert!(!g.issuable(Cycle(4)));
        assert!(g.issuable(Cycle(5)));
        g.status = GroupStatus::WaitMem;
        assert!(!g.issuable(Cycle(9)));
    }

    #[test]
    fn merge_compatibility() {
        let a = Group::new(0, 7, Mask(0b0011), 0);
        let b = Group::new(0, 7, Mask(0b1100), 1);
        assert!(a.can_merge_with(&b));
        let mut c = b.clone();
        c.pc = 8;
        assert!(!a.can_merge_with(&c));
        let mut d = b.clone();
        d.warp = 1;
        assert!(!a.can_merge_with(&d));
        let mut e = b.clone();
        e.local_stack.push(Frame {
            pc: 0,
            rpc: Some(1),
            mask: Mask(0b1100),
        });
        assert!(!a.can_merge_with(&e));
        let mut f = b.clone();
        f.status = GroupStatus::WaitMem;
        assert!(!a.can_merge_with(&f));
        let mut g = b.clone();
        g.slip_pc = Some(3);
        assert!(!a.can_merge_with(&g));
    }
}
