//! The warp processing unit: cycle-level execution of kernel IR over the
//! cache hierarchy under a configurable divergence policy.
//!
//! One [`Wpu::tick`] models one WPU clock: at most one warp instruction
//! issues across the active lanes of the selected SIMD group. The scheduler
//! switches groups on every D-cache access with zero switch cost (the
//! paper's Section 3.3), groups stall on misses, and the configured
//! [`Policy`] decides when warps subdivide and when splits re-converge.

use crate::exec;
use crate::group::{Group, GroupId, GroupStatus};
use crate::mask::Mask;
use crate::policy::{BranchHandling, MemSplit, Policy, ReconvMode};
use crate::stats::WpuStats;
use crate::trace::{TraceEvent, Tracer};
use crate::warp::{Frame, Warp};
use crate::wst::WstAccounting;
use dws_engine::fault::{FaultInjector, FaultPlan};
use dws_engine::{Cycle, FastHashMap, ReadyRing, WakeHeap};
use dws_isa::cfg::RECONV_NONE;
use dws_isa::{execute_lane, CondOp, ExecOp, MemoryAccess, Program, Reg, Src, StepOutcome};
use dws_mem::{
    AccessKind, AccessOutcome, CacheArray, CacheConfig, LaneAccess, MemorySystem, MesiState,
    RequestId,
};
use std::sync::Arc;

/// Static configuration of one WPU.
#[derive(Debug, Clone, Copy)]
pub struct WpuConfig {
    /// WPU index (also its L1 index in the memory system).
    pub id: usize,
    /// SIMD width (lanes per warp).
    pub width: usize,
    /// Warps per WPU (multi-threading depth).
    pub n_warps: usize,
    /// Scheduling policy.
    pub policy: Policy,
    /// Scheduler slots; groups beyond this sit idle until a slot frees
    /// (paper Section 6.6). The paper doubles the conventional count.
    pub sched_slots: usize,
    /// Warp-split table entries (paper Section 6.7; 16 by default).
    pub wst_entries: usize,
    /// Geometry of the WPU-local L1 instruction cache. The array lives in
    /// the WPU; only miss fill latency goes through the shared
    /// crossbar/L2 model.
    pub l1i: CacheConfig,
}

impl WpuConfig {
    /// The paper's Table 3 WPU: 16-wide, 4 warps, 8 scheduler slots,
    /// 16 WST entries, 16 KB L1-I.
    pub fn paper(id: usize, policy: Policy) -> Self {
        WpuConfig {
            id,
            width: 16,
            n_warps: 4,
            policy,
            sched_slots: 8,
            wst_entries: 16,
            l1i: CacheConfig::paper_l1i(),
        }
    }
}

/// What a WPU did in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickClass {
    /// Issued (or structurally retried) an instruction.
    Busy,
    /// Stalled with at least one group waiting on memory.
    StallMem,
    /// Stalled for another reason (barrier, re-convergence, drained).
    Idle,
    /// All threads have terminated.
    Done,
}

/// Effect of pre-issue bookkeeping on a candidate group.
enum PreIssue {
    /// Group may execute the instruction at its PC.
    Execute,
    /// A zero-cost state transition happened (stack pop / merge / wait);
    /// pick another group this same cycle.
    Redirect,
}

/// Result of one execute attempt inside the issue loop.
enum ExecResult {
    /// An instruction issued; the cycle is busy.
    Issued,
    /// Structural retry (MSHR-full, I-fetch miss): the group was pushed
    /// back; try another group this same cycle.
    Retry,
}

/// Adaptive-slip controller state.
#[derive(Debug, Clone, Copy)]
struct SlipCtl {
    max_div: u32,
    last_adapt: Cycle,
    busy_snapshot: u64,
    stall_snapshot: u64,
}

/// Adaptive subdivision throttle (the future-work extension): duty-cycle
/// dueling. The controller alternates short probe intervals with
/// subdivision enabled and disabled, measures actual progress (thread
/// instructions retired per cycle) in each, then commits to the winner
/// for several intervals before re-probing — the set-dueling idea applied
/// to the subdivision decision the paper says needs "foreknowledge or
/// speculation" (Section 5.2).
#[derive(Debug, Clone, Copy)]
struct ThrottleCtl {
    split_enabled: bool,
    phase: ThrottlePhase,
    last_adapt: Cycle,
    insts_snapshot: u64,
    probe_on_ipc: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThrottlePhase {
    /// Measuring progress with subdivision enabled.
    ProbeOn,
    /// Splits disabled, existing fragments re-merging; not measured.
    DrainOff,
    /// Measuring progress with subdivision disabled.
    ProbeOff,
    /// Committed to the winning setting for N more intervals.
    Committed(u8),
}

/// Length of one probe/commit interval, in cycles.
const THROTTLE_INTERVAL: u64 = 20_000;
/// Number of intervals to stay committed before re-probing.
const THROTTLE_COMMIT: u8 = 6;
/// Hysteresis: the probe winner must beat the loser by this factor.
const THROTTLE_MARGIN: f64 = 1.02;

/// Reusable buffers for [`Wpu::tick`]'s issue loop, so steady-state
/// execution performs no per-cycle heap allocation. Capacity is bounded by
/// the SIMD width (one entry per lane).
#[derive(Default)]
struct IssueScratch {
    /// Decoded per-lane outcomes of the issuing memory instruction.
    ops: Vec<(usize, StepOutcome)>,
    /// The lane accesses handed to the memory system.
    accesses: Vec<LaneAccess>,
    /// Outcomes written back by `MemorySystem::warp_access_into`.
    outcomes: Vec<dws_mem::LaneOutcome>,
    /// Distinct lines missed by the current warp access.
    miss_lines: Vec<u64>,
}

/// Groups left spinning on MSHR back-pressure by the last stalled
/// [`Wpu::tick`], recorded when the WPU published a wake later than the
/// next cycle so [`Wpu::account_skipped_stall`] can charge each skipped
/// tick what it would have done (see [`Wpu::park_spinners`]).
#[derive(Debug, Clone, Copy, Default)]
struct MshrSleep {
    /// Memo-blocked groups each skipped tick would have retried.
    groups: u64,
    /// The round-robin cursor after one such tick: one past the blocked
    /// group that comes last in round-robin order.
    cursor: usize,
}

/// A warp processing unit.
pub struct Wpu {
    cfg: WpuConfig,
    program: Arc<Program>,
    warps: Vec<Warp>,
    groups: Vec<Option<Group>>,
    next_seq: u64,
    wst: WstAccounting,
    current: Option<GroupId>,
    rr_cursor: usize,
    req_map: FastHashMap<RequestId, (usize, usize)>,
    live_threads: u64,
    slip: SlipCtl,
    throttle: ThrottleCtl,
    tracer: Option<Tracer>,
    scratch: IssueScratch,
    /// Recycled local-stack storage: split paths pop a spare `Vec<Frame>`
    /// here instead of allocating, and dead groups return theirs, so group
    /// churn is heap-quiet once the pool has warmed up.
    frame_pool: Vec<Vec<Frame>>,
    /// Min ready time over slotted ready groups, maintained from the
    /// pending heap at the end of every stalled [`tick`](Self::tick) (see
    /// [`cached_next_wake`](Self::cached_next_wake)).
    next_wake: Option<Cycle>,
    /// Issuable groups (slotted, `Ready`, `ready_at` reached), indexed by
    /// slab position so [`ReadyRing::next_from`] reproduces the round-robin
    /// order of the slab scan it replaced.
    ready: ReadyRing,
    /// Slotted ready groups whose `ready_at` is still in the future. Each
    /// entry carries `(slab index, stamp)`; entries whose stamp no longer
    /// matches [`SchedSlot::stamp`] are stale and dropped when popped.
    pending: WakeHeap<(usize, u64)>,
    /// Per-slab-slot scheduler bookkeeping, parallel to `groups`.
    sched: Vec<SchedSlot>,
    /// Live slotted groups (== the old `slots_in_use` scan).
    n_slotted: usize,
    /// Live slotted groups with status `Ready`.
    n_slotted_ready: usize,
    /// Live groups waiting on memory (`WaitMem` or `SlipSuspended`).
    n_wait_mem: usize,
    /// Lanes parked at the global barrier (== the old `barrier_waiting`
    /// scan).
    barrier_lanes: u64,
    /// Test hook: route picks through the reference slab scan instead of
    /// the ready ring (the indexes are still maintained either way).
    use_scan_scheduler: bool,
    /// Execute through the predecoded warp-wide µop kernels (the default).
    /// Off routes every lane through the legacy per-lane interpreter —
    /// kept as the differential oracle, like `use_scan_scheduler`.
    use_uop_engine: bool,
    /// Cross-check fast paths against their oracles (scheduler-index sync,
    /// µop-vs-interpreter agreement) — always on in debug builds, and on
    /// in release under `DWS_SANITIZE=1`; latched at construction.
    check_oracle: bool,
    /// Deterministic timing-fault injection; `None` outside chaos runs.
    fault: Option<FaultInjector>,
    /// The WPU-local L1 instruction cache (paper Table 3).
    icache: CacheArray,
    /// `log2(l1i.line_bytes)` when that is a power of two, so the
    /// PC-to-line conversion is a shift instead of a 64-bit divide.
    l1i_shift: Option<u32>,
    /// I-fetch / I-miss counts, merged into the machine-wide memory stats
    /// by result collection (see [`Self::icache_counters`]).
    l1i_fetches: u64,
    l1i_misses: u64,
    /// MSHR-full rejections replayed by ticks the run loop skipped, merged
    /// into the machine-wide memory stats like the L1-I counters.
    skipped_rejections: u64,
    /// See [`MshrSleep`]; reset at the start of every tick.
    mshr_sleep: MshrSleep,
    /// Per-PC verifier classification: `true` where the instruction is a
    /// conditional branch whose condition provably does not depend on the
    /// thread id (so lanes at the same spine position agree). See
    /// `dws_isa::verify::branch_uniformity`.
    uniform_branch: Vec<bool>,
    /// Per-PC: the branch is uniform *and* on the uniform spine — retired
    /// occurrences advance [`Group::spine_trips`].
    spine_branch: Vec<bool>,
    /// Per-warp sticky poison: set when a merge united groups with unequal
    /// [`Group::spine_trips`] (lanes with different spine histories now
    /// share a register file view, so "uniform" registers may differ per
    /// lane). Disables the uniform-branch fast path for that warp.
    uniform_poisoned: Vec<bool>,
    /// Let the scheduler consume the uniformity classification: uniform
    /// branches evaluate one representative lane instead of the full warp
    /// and can never diverge. Cycle-identical by construction (the taken
    /// mask is provably warp-wide either way); on by default, with the
    /// differential test pinning the equivalence.
    use_uniform_hints: bool,
    /// Statistics for this WPU.
    pub stats: WpuStats,
}

/// Scheduler-index bookkeeping for one slab slot.
#[derive(Debug, Clone, Copy, Default)]
struct SchedSlot {
    /// The contribution this slot currently makes to the scheduler indexes
    /// and counters (`None` while the slot is empty). [`Wpu::resched`]
    /// diffs the group's live state against this to update incrementally.
    key: Option<SchedKey>,
    /// Bumped whenever the slot's heap membership changes; pending-heap
    /// entries carrying an older stamp are stale. Never reset, so slab
    /// index reuse cannot resurrect them.
    stamp: u64,
}

/// The slice of group state the scheduler indexes depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SchedKey {
    slotted: bool,
    status: GroupStatus,
    lanes: u32,
    ready_at: Cycle,
}

impl SchedKey {
    /// The part that decides ring/heap membership; `lanes` only feeds the
    /// barrier counter, so mask-only changes skip the index churn.
    fn membership(self) -> (bool, GroupStatus, Cycle) {
        (self.slotted, self.status, self.ready_at)
    }
}

impl std::fmt::Debug for Wpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wpu")
            .field("id", &self.cfg.id)
            .field("live_threads", &self.live_threads)
            .field("groups", &self.groups.iter().flatten().count())
            .finish()
    }
}

impl Wpu {
    /// Creates a WPU whose warp `w`, lane `l` runs global thread
    /// `base_tid + w * width + l`, out of `nthreads` total.
    ///
    /// # Panics
    ///
    /// Panics on a zero-width/zero-warp configuration.
    pub fn new(cfg: WpuConfig, program: Arc<Program>, base_tid: u64, nthreads: u64) -> Self {
        assert!(cfg.width >= 1 && cfg.n_warps >= 1);
        let uniformity = dws_isa::verify::branch_uniformity(program.insts());
        let mut wpu = Wpu {
            warps: Vec::new(),
            groups: Vec::new(),
            next_seq: 0,
            wst: WstAccounting::new(cfg.n_warps, cfg.wst_entries),
            current: None,
            rr_cursor: 0,
            req_map: FastHashMap::default(),
            live_threads: (cfg.width * cfg.n_warps) as u64,
            slip: SlipCtl {
                max_div: cfg.width as u32,
                last_adapt: Cycle::ZERO,
                busy_snapshot: 0,
                stall_snapshot: 0,
            },
            throttle: ThrottleCtl {
                split_enabled: true,
                phase: ThrottlePhase::ProbeOn,
                last_adapt: Cycle::ZERO,
                insts_snapshot: 0,
                probe_on_ipc: 0.0,
            },
            tracer: None,
            scratch: IssueScratch::default(),
            frame_pool: Vec::new(),
            next_wake: None,
            ready: ReadyRing::new(),
            pending: WakeHeap::new(),
            sched: Vec::new(),
            n_slotted: 0,
            n_slotted_ready: 0,
            n_wait_mem: 0,
            barrier_lanes: 0,
            use_scan_scheduler: false,
            use_uop_engine: true,
            check_oracle: cfg!(debug_assertions) || dws_engine::sanitize::enabled(),
            fault: None,
            icache: CacheArray::new(&cfg.l1i),
            l1i_shift: cfg
                .l1i
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.l1i.line_bytes.trailing_zeros()),
            l1i_fetches: 0,
            l1i_misses: 0,
            skipped_rejections: 0,
            mshr_sleep: MshrSleep::default(),
            uniform_branch: uniformity.uniform,
            spine_branch: uniformity.spine,
            uniform_poisoned: vec![false; cfg.n_warps],
            use_uniform_hints: true,
            stats: WpuStats::default(),
            program: Arc::clone(&program),
            cfg,
        };
        for w in 0..cfg.n_warps {
            wpu.warps.push(Warp::new(
                w,
                cfg.width,
                base_tid + (w * cfg.width) as u64,
                nthreads,
                &program,
            ));
            let gid = wpu.spawn_group(w, 0, Mask::full(cfg.width));
            wpu.try_slot(gid);
        }
        wpu
    }

    /// The WPU's configuration.
    pub fn config(&self) -> &WpuConfig {
        &self.cfg
    }

    /// Enables divergence-event tracing, retaining the most recent
    /// `capacity` events (see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The trace recorded so far, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    #[inline]
    fn trace(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.tracer {
            t.record(event);
        }
    }

    /// Whether every thread has terminated.
    pub fn done(&self) -> bool {
        self.live_threads == 0
    }

    /// Threads that have not yet halted.
    pub fn live_threads(&self) -> u64 {
        self.live_threads
    }

    /// Threads currently stalled at a global barrier.
    pub fn barrier_waiting(&self) -> u64 {
        self.barrier_lanes
    }

    /// Test hook: route group selection through the reference slab scan
    /// instead of the ready ring. The indexes are maintained either way,
    /// so the oracle property test can compare full-run behavior.
    #[doc(hidden)]
    pub fn set_scan_scheduler(&mut self, on: bool) {
        self.use_scan_scheduler = on;
    }

    /// Test hook: route execution through the legacy per-lane interpreter
    /// (`off`) instead of the predecoded warp-wide µop kernels (`on`, the
    /// default). Both paths are bit-identical; debug builds additionally
    /// cross-check the µop engine against the per-lane oracle on every
    /// executed instruction.
    #[doc(hidden)]
    pub fn set_uop_engine(&mut self, on: bool) {
        self.use_uop_engine = on;
    }

    /// Test hook: disable the verifier-uniformity branch fast path (on by
    /// default). Both settings are cycle- and result-identical; the
    /// differential test pins the equivalence and that the warp-split
    /// table peak never increases with the hints on.
    #[doc(hidden)]
    pub fn set_uniform_hints(&mut self, on: bool) {
        self.use_uniform_hints = on;
    }

    /// Arms deterministic fault injection (wake jitter, scheduler-heap
    /// churn). Each WPU draws from its own stream, salted by its id; a
    /// zero-fault plan installs nothing and leaves timing untouched.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan.injector(0x5750_5500 + self.cfg.id as u64);
    }

    /// Whether any thread is blocked on an outstanding memory request.
    pub fn any_mem_pending(&self) -> bool {
        !self.req_map.is_empty()
    }

    /// Live SIMD groups (full warps and splits).
    pub fn groups_alive(&self) -> usize {
        self.groups.iter().flatten().count()
    }

    /// Peak warp-split table occupancy observed.
    pub fn wst_peak(&self) -> usize {
        self.wst.peak()
    }

    /// Current warp-split table occupancy (diagnostics).
    pub fn wst_used(&self) -> usize {
        self.wst.used()
    }

    /// Warp-split table capacity (diagnostics).
    pub fn wst_capacity(&self) -> usize {
        self.wst.capacity()
    }

    /// The earliest future cycle at which a currently-ready group can do
    /// anything but replay an MSHR rejection, by slab scan: the reference
    /// for the wake time a stalled [`tick`](Self::tick) caches. A group
    /// due next cycle whose reject memo still blocks it waits for the next
    /// fill at this WPU's L1 (the next MSHR release), or keeps spinning
    /// when no fill is pending.
    fn next_wake_at(&self, now: Cycle, mem: &MemorySystem) -> Option<Cycle> {
        let releases = mem.l1_releases(self.cfg.id);
        let fill = mem.next_completion_at_l1(self.cfg.id);
        self.groups
            .iter()
            .flatten()
            .filter(|g| g.slotted && g.status == GroupStatus::Ready)
            .map(|g| match fill {
                Some(f) if g.ready_at == now + 1 && g.memo_blocks(releases) => f,
                _ => g.ready_at.max(now),
            })
            .min()
    }

    /// The wake time computed by the most recent stalled
    /// [`tick`](Self::tick), without rescanning the group list: the
    /// earliest ready time of its slotted ready groups, except that groups
    /// blocked on full MSHRs wait for the next fill at this WPU's L1. Only
    /// meaningful directly after a tick that returned
    /// [`TickClass::StallMem`], [`TickClass::Idle`] or [`TickClass::Done`]:
    /// a `Busy` tick leaves the cache stale (the run loop never consults it
    /// then), and any event delivered after the tick (a completion, a
    /// barrier release) invalidates it until the next tick.
    pub fn cached_next_wake(&self) -> Option<Cycle> {
        self.next_wake
    }

    /// The next cycle at which an adaptive controller (the slip interval,
    /// the subdivision throttle) must observe this WPU, if any. The run
    /// loops guarantee a tick at or before this cycle, so event-driven
    /// sleeping never skips an adaptation boundary — which is what lets
    /// adaptive policies run without per-cycle lockstep. Non-adaptive
    /// policies (and finished WPUs) impose no cadence.
    pub fn next_adapt_boundary(&self) -> Option<Cycle> {
        if self.done() {
            return None;
        }
        match self.cfg.policy {
            Policy::Slip(sc) => Some(self.slip.last_adapt + sc.interval),
            Policy::Dws(c) if c.adaptive_throttle => {
                Some(self.throttle.last_adapt + THROTTLE_INTERVAL)
            }
            _ => None,
        }
    }

    /// I-fetch counters `(fetches, misses)` of the WPU-local L1-I, merged
    /// into the machine-wide memory statistics by result collection.
    pub fn icache_counters(&self) -> (u64, u64) {
        (self.l1i_fetches, self.l1i_misses)
    }

    /// MSHR-full rejections charged by
    /// [`account_skipped_stall`](Self::account_skipped_stall) for ticks
    /// the run loop skipped, merged into the machine-wide memory
    /// statistics by result collection.
    pub fn skipped_rejections(&self) -> u64 {
        self.skipped_rejections
    }

    /// Accounts `n` skipped ticks after a stalled tick of class `class`
    /// (used when the run loop skips ahead over a stalled stretch). Each
    /// skipped tick would have repeated that classification and retried
    /// every group the tick left blocked on full MSHRs: one L1-I fetch and
    /// one rejection per blocked group, ending with the round-robin cursor
    /// one past the last of them.
    pub fn account_skipped_stall(&mut self, n: u64, class: TickClass) {
        match class {
            TickClass::StallMem => self.stats.mem_stall_cycles.add(n),
            TickClass::Idle => self.stats.idle_cycles.add(n),
            TickClass::Busy | TickClass::Done => {}
        }
        let retries = self.mshr_sleep.groups * n;
        if retries > 0 {
            self.l1i_fetches += retries;
            self.skipped_rejections += retries;
            self.rr_cursor = self.mshr_sleep.cursor;
        }
    }

    /// Per-thread D-cache miss counts, indexed `[warp][lane]` (Figure 14).
    pub fn per_thread_misses(&self) -> Vec<Vec<u64>> {
        self.warps
            .iter()
            .map(|w| w.threads.iter().map(|t| t.miss_count).collect())
            .collect()
    }

    // ---- scheduler indexes --------------------------------------------------

    /// Re-indexes group `gid` after a mutation of its scheduling state
    /// (`slotted`, `status`, `ready_at`, or — for groups parked at a
    /// barrier — `mask`). Diffs the live state against the cached
    /// [`SchedKey`] and incrementally updates the counters, the ready
    /// ring, and the pending heap; superseded heap entries are invalidated
    /// by stamp. Mask-only changes in other states may be reported lazily:
    /// the cached contribution is what gets retracted, so the counters
    /// stay consistent either way.
    fn resched(&mut self, gid: GroupId) {
        let i = gid.0;
        let new = self.groups[i].as_ref().map(|g| SchedKey {
            slotted: g.slotted,
            status: g.status,
            lanes: g.mask.count(),
            ready_at: g.ready_at,
        });
        let old = self.sched[i].key;
        if new == old {
            return;
        }
        if let Some(k) = old {
            if k.slotted {
                self.n_slotted -= 1;
                if k.status == GroupStatus::Ready {
                    self.n_slotted_ready -= 1;
                }
            }
            match k.status {
                GroupStatus::WaitMem | GroupStatus::SlipSuspended => self.n_wait_mem -= 1,
                GroupStatus::WaitBarrier => self.barrier_lanes -= u64::from(k.lanes),
                _ => {}
            }
        }
        if let Some(k) = new {
            if k.slotted {
                self.n_slotted += 1;
                if k.status == GroupStatus::Ready {
                    self.n_slotted_ready += 1;
                }
            }
            match k.status {
                GroupStatus::WaitMem | GroupStatus::SlipSuspended => self.n_wait_mem += 1,
                GroupStatus::WaitBarrier => self.barrier_lanes += u64::from(k.lanes),
                _ => {}
            }
        }
        if new.map(SchedKey::membership) != old.map(SchedKey::membership) {
            self.ready.remove(i);
            self.sched[i].stamp += 1;
            if let Some(k) = new {
                if k.slotted && k.status == GroupStatus::Ready {
                    self.pending.push(k.ready_at, (i, self.sched[i].stamp));
                }
            }
        }
        self.sched[i].key = new;
    }

    /// Surfaces pending-heap entries that have come due into the ready
    /// ring, dropping entries a later [`resched`](Self::resched)
    /// invalidated.
    fn surface_ready(&mut self, now: Cycle) {
        loop {
            let Some((at, &(i, stamp))) = self.pending.peek() else {
                return;
            };
            if at > now {
                return;
            }
            self.pending.pop();
            if self.sched[i].stamp == stamp {
                self.ready.insert(i);
            }
        }
    }

    /// Recomputes `next_wake` from the pending heap, popping stale
    /// entries off the top. Called at the end of every stalled tick, when
    /// the ready ring is empty — every slotted ready group then has a live
    /// pending entry at a strictly future cycle, so the heap minimum is
    /// exactly the old fused-scan wake time.
    fn refresh_next_wake(&mut self) {
        loop {
            match self.pending.peek() {
                Some((at, &(i, stamp))) => {
                    if self.sched[i].stamp == stamp {
                        self.next_wake = Some(at);
                        return;
                    }
                    self.pending.pop();
                }
                None => {
                    self.next_wake = None;
                    return;
                }
            }
        }
    }

    /// Re-enqueues every slotted ready group waiting in the pending heap
    /// under a fresh stamp, orphaning the old entries as stale. Only
    /// called when the ready ring is empty, so each such group has exactly
    /// one live entry; its wake time is preserved, making the churn
    /// timing-invisible.
    fn churn_pending_heap(&mut self) {
        for i in 0..self.groups.len() {
            let Some(k) = self.sched[i].key else { continue };
            if k.slotted && k.status == GroupStatus::Ready && !self.ready.contains(i) {
                self.sched[i].stamp += 1;
                self.pending.push(k.ready_at, (i, self.sched[i].stamp));
            }
        }
    }

    /// Publishes a later wake than `now + 1` when every group due next
    /// cycle is blocked by its reject memo. Such a group cannot be accepted
    /// before the next MSHR release at this L1, which only a fill brings,
    /// so until the next fill (or another group's earlier wake) each tick
    /// would just replay the same rejections. Records what those ticks
    /// would have charged in [`MshrSleep`]. With no fill pending the groups
    /// keep spinning at `now + 1`, so a true livelock still trips the
    /// watchdog. Called at the end of a stalled tick whose cached wake is
    /// `now + 1`.
    fn park_spinners(&mut self, now: Cycle, mem: &MemorySystem) {
        let Some(fill) = mem.next_completion_at_l1(self.cfg.id) else {
            return;
        };
        let releases = mem.l1_releases(self.cfg.id);
        let cursor = self.rr_cursor;
        let mut wake = fill;
        let mut blocked = 0;
        // The blocked group a tick picks last: the highest index below the
        // cursor, else the highest at or above it.
        let mut last = 0;
        for (i, g) in self.groups.iter().enumerate() {
            let Some(g) = g else { continue };
            if !g.slotted || g.status != GroupStatus::Ready {
                continue;
            }
            if g.ready_at == now + 1 && g.memo_blocks(releases) {
                if blocked == 0 || i < cursor || last >= cursor {
                    last = i;
                }
                blocked += 1;
            } else {
                wake = wake.min(g.ready_at);
            }
        }
        if blocked > 0 {
            self.next_wake = Some(wake);
            self.mshr_sleep = MshrSleep {
                groups: blocked,
                cursor: (last + 1) % self.groups.len(),
            };
        }
    }

    /// Invariant check (debug builds and `DWS_SANITIZE=1`): the
    /// incremental counters, the ready ring, and the cached wake time must
    /// agree with a fresh slab scan.
    fn assert_sched_sync(&self, now: Cycle, mem: &MemorySystem) {
        let mut n_slotted = 0;
        let mut n_slotted_ready = 0;
        let mut n_wait_mem = 0;
        let mut barrier_lanes = 0u64;
        for g in self.groups.iter().flatten() {
            if g.slotted {
                n_slotted += 1;
                if g.status == GroupStatus::Ready {
                    n_slotted_ready += 1;
                }
            }
            match g.status {
                GroupStatus::WaitMem | GroupStatus::SlipSuspended => n_wait_mem += 1,
                GroupStatus::WaitBarrier => barrier_lanes += u64::from(g.mask.count()),
                _ => {}
            }
        }
        assert_eq!(self.n_slotted, n_slotted, "n_slotted drift at {now}");
        assert_eq!(
            self.n_slotted_ready, n_slotted_ready,
            "n_slotted_ready drift at {now}"
        );
        assert_eq!(self.n_wait_mem, n_wait_mem, "n_wait_mem drift at {now}");
        assert_eq!(
            self.barrier_lanes, barrier_lanes,
            "barrier_lanes drift at {now}"
        );
        for i in 0..self.groups.len() {
            if self.ready.contains(i) {
                assert!(
                    self.groups[i].as_ref().is_some_and(|g| g.issuable(now)),
                    "ready ring holds non-issuable group {i} at {now}"
                );
            }
        }
        assert_eq!(
            self.next_wake,
            self.next_wake_at(now, mem),
            "next_wake drift at {now}"
        );
    }

    // ---- group slab ---------------------------------------------------------

    fn spawn_group(&mut self, warp: usize, pc: usize, mask: Mask) -> GroupId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut g = Group::new(warp, pc, mask, seq);
        if let Some(stack) = self.frame_pool.pop() {
            g.local_stack = stack;
        }
        self.wst.on_group_created(warp);
        let gid = match self.groups.iter().position(Option::is_none) {
            Some(i) => {
                self.groups[i] = Some(g);
                GroupId(i)
            }
            None => {
                self.groups.push(Some(g));
                GroupId(self.groups.len() - 1)
            }
        };
        if self.sched.len() < self.groups.len() {
            self.sched.resize(self.groups.len(), SchedSlot::default());
        }
        self.ready.grow_to(self.groups.len());
        self.resched(gid);
        gid
    }

    fn kill_group(&mut self, gid: GroupId) {
        let mut g = self.groups[gid.0].take().expect("kill of dead group");
        self.resched(gid);
        let mut stack = std::mem::take(&mut g.local_stack);
        if stack.capacity() > 0 {
            stack.clear();
            self.frame_pool.push(stack);
        }
        self.wst.on_group_removed(g.warp);
        if self.current == Some(gid) {
            self.current = None;
        }
        if g.slotted {
            self.promote_slot();
        }
        // A slip run-ahead stalled at a branch resumes once it is the last
        // group standing (every fall-behind merged or terminated).
        if self.wst.groups_of(g.warp) == 1 {
            let last = self
                .groups
                .iter()
                .enumerate()
                .find(|(_, x)| {
                    x.as_ref()
                        .map(|x| x.warp == g.warp && x.status == GroupStatus::SlipStalledAtBranch)
                        .unwrap_or(false)
                })
                .map(|(i, _)| GroupId(i));
            if let Some(last) = last {
                {
                    let l = self.group_mut(last);
                    l.status = GroupStatus::Ready;
                    l.slip_catchup = false;
                }
                self.resched(last);
                self.try_slot(last);
            }
        }
    }

    fn group(&self, gid: GroupId) -> &Group {
        self.groups[gid.0].as_ref().expect("live group")
    }

    fn group_mut(&mut self, gid: GroupId) -> &mut Group {
        self.groups[gid.0].as_mut().expect("live group")
    }

    fn slots_in_use(&self) -> usize {
        self.n_slotted
    }

    fn try_slot(&mut self, gid: GroupId) -> bool {
        if self.group(gid).slotted {
            return true;
        }
        if self.slots_in_use() < self.cfg.sched_slots {
            self.group_mut(gid).slotted = true;
            self.resched(gid);
            true
        } else {
            false
        }
    }

    fn release_slot(&mut self, gid: GroupId) {
        if self.group(gid).slotted {
            self.group_mut(gid).slotted = false;
            self.resched(gid);
            self.promote_slot();
        }
    }

    /// Grants the freed slot to the oldest unslotted group that can use it.
    /// Groups parked at synchronization points (barriers, re-convergence,
    /// slip suspension) gave their slot up on purpose and re-acquire one
    /// when they wake; promoting them would starve runnable groups.
    fn promote_slot(&mut self) {
        if self.slots_in_use() >= self.cfg.sched_slots {
            return;
        }
        let candidate = self
            .groups
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (i, g)))
            .filter(|(_, g)| {
                !g.slotted && matches!(g.status, GroupStatus::Ready | GroupStatus::WaitMem)
            })
            .min_by_key(|(_, g)| g.seq)
            .map(|(i, _)| i);
        if let Some(i) = candidate {
            self.groups[i].as_mut().expect("live").slotted = true;
            self.resched(GroupId(i));
        }
    }

    // ---- completions --------------------------------------------------------

    /// Delivers a memory-request completion (routed by the simulator).
    pub fn on_completion(&mut self, req: RequestId, at: Cycle) {
        let Some((warp, lane)) = self.req_map.remove(&req) else {
            panic!("completion for unknown request {req:?}");
        };
        self.warps[warp].threads[lane].pending = None;
        // Find the group owning this lane and re-evaluate its wait.
        let gid = self
            .groups
            .iter()
            .enumerate()
            .find(|(_, g)| {
                g.as_ref()
                    .map(|g| g.warp == warp && g.mask.contains(lane))
                    .unwrap_or(false)
            })
            .map(|(i, _)| GroupId(i));
        let Some(gid) = gid else {
            // The thread's group vanished (e.g. it halted) — nothing to wake.
            return;
        };
        let arrived = {
            let g = self.group(gid);
            self.warps[warp].arrived_lanes(g.mask) == g.mask
        };
        if !arrived {
            return;
        }
        let status = self.group(gid).status;
        match status {
            GroupStatus::WaitMem => {
                // Fault injection: jitter the wakeup. Timing-only — the
                // group still flows through resched and the pending heap.
                let jitter = self.fault.as_mut().map_or(0, FaultInjector::wake_jitter);
                let g = self.group_mut(gid);
                g.status = GroupStatus::Ready;
                g.ready_at = at + jitter;
                self.resched(gid);
                if self.dws_pc_based() {
                    self.try_pc_merge_at(gid, at);
                }
            }
            GroupStatus::SlipSuspended if self.group(gid).slip_catchup => {
                let jitter = self.fault.as_mut().map_or(0, FaultInjector::wake_jitter);
                let g = self.group_mut(gid);
                g.status = GroupStatus::Ready;
                g.ready_at = at + jitter;
                g.slip_pc = None;
                self.resched(gid);
                self.try_slot(gid);
            }
            _ => {}
        }
    }

    fn dws_pc_based(&self) -> bool {
        matches!(
            self.cfg.policy,
            Policy::Dws(c) if c.reconv == ReconvMode::PcBased
        )
    }

    // ---- the cycle ----------------------------------------------------------

    /// Advances the WPU by one cycle. `data` is the functional backing
    /// store shared by all WPUs.
    pub fn tick(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        data: &mut dyn MemoryAccess,
    ) -> TickClass {
        self.mshr_sleep = MshrSleep::default();
        if self.done() {
            self.next_wake = None;
            return TickClass::Done;
        }
        self.adapt_slip(now);
        self.adapt_throttle(now);

        // Pre-issue transitions are zero-cost PC redirects; loop until an
        // instruction issues or no candidate remains.
        let mut guard = 0;
        loop {
            guard += 1;
            if guard >= 10_000 {
                let dump: Vec<String> = self
                    .groups
                    .iter()
                    .flatten()
                    .map(|g| {
                        format!(
                            "warp={} pc={} mask={} status={:?} lrpc={:?} ldepth={} slot={}",
                            g.warp,
                            g.pc,
                            g.mask,
                            g.status,
                            g.local_rpc,
                            g.local_stack.len(),
                            g.slotted
                        )
                    })
                    .collect();
                panic!(
                    "pre-issue livelock at cycle {now}; groups:\n{}\nstacks: {:?}",
                    dump.join("\n"),
                    self.warps.iter().map(|w| &w.stack).collect::<Vec<_>>()
                );
            }
            let gid = match self.current {
                Some(gid)
                    if self.groups[gid.0]
                        .as_ref()
                        .map(|g| g.issuable(now))
                        .unwrap_or(false) =>
                {
                    gid
                }
                _ => {
                    self.current = None;
                    match self.pick_group(now) {
                        Some(g) => g,
                        None => break,
                    }
                }
            };
            self.current = Some(gid);
            match self.pre_issue(gid, now) {
                PreIssue::Redirect => {
                    if self.current == Some(gid)
                        && self.groups[gid.0]
                            .as_ref()
                            .map(|g| !g.issuable(now))
                            .unwrap_or(true)
                    {
                        self.current = None;
                    }
                }
                PreIssue::Execute => match self.execute(gid, now, mem, data) {
                    ExecResult::Issued => return TickClass::Busy,
                    // Structural stall (MSHR-full or I-fetch miss): the
                    // group was pushed back; try another this cycle.
                    ExecResult::Retry => {}
                },
            }
        }

        // Nothing issuable: ReviveSplit may create a run-ahead split.
        if let Policy::Dws(c) = self.cfg.policy {
            if c.mem_split == Some(MemSplit::Revive) && !self.any_slotted_ready() {
                self.try_revive(now);
            }
        }
        if self.done() {
            self.next_wake = None;
            return TickClass::Done;
        }
        // Fault injection: churn the pending heap while it is quiescent,
        // leaving stale entries behind for the stamp-based invalidation
        // paths to drop. Wake times are unchanged, so this perturbs only
        // the index structures the nominal run never stresses this way.
        if let Some(f) = &mut self.fault {
            if f.sched_churn() {
                self.churn_pending_heap();
            }
        }
        // The incremental counters classify the stall, and the pending heap
        // yields the earliest wake time — no slab rescan. At this point the
        // ready ring is empty (pick_group returned None), so every slotted
        // ready group sits in the heap at a strictly future cycle. Groups
        // rejected for lack of MSHRs sit there at `now + 1`; if they are
        // all that is due, sleep until their L1 can accept.
        self.refresh_next_wake();
        if self.next_wake == Some(now + 1) {
            self.park_spinners(now, mem);
        }
        if self.check_oracle {
            self.assert_sched_sync(now, mem);
        }
        if self.n_wait_mem > 0 {
            self.stats.mem_stall_cycles.incr();
            TickClass::StallMem
        } else {
            self.stats.idle_cycles.incr();
            TickClass::Idle
        }
    }

    fn any_slotted_ready(&self) -> bool {
        self.n_slotted_ready > 0
    }

    /// Round-robin over slotted ready groups, via the ready ring. Pending
    /// groups whose wake time has come surface into the ring first; a
    /// debug-build oracle checks each pick against the slab scan this
    /// replaced.
    fn pick_group(&mut self, now: Cycle) -> Option<GroupId> {
        if self.use_scan_scheduler {
            return self.pick_group_scan(now);
        }
        self.surface_ready(now);
        let picked = self.ready.next_from(self.rr_cursor);
        if self.check_oracle {
            assert_eq!(
                picked.map(GroupId),
                self.scan_next_issuable(now),
                "ready ring diverged from slab scan at {now}"
            );
        }
        let i = picked?;
        self.rr_cursor = (i + 1) % self.groups.len();
        Some(GroupId(i))
    }

    /// The reference implementation `pick_group` replaced: a modular slab
    /// scan from the round-robin cursor. Kept as the oracle for the
    /// debug-build pick assertion and the randomized equivalence test.
    fn pick_group_scan(&mut self, now: Cycle) -> Option<GroupId> {
        self.surface_ready(now); // keep the ring in lockstep for the oracle
        let gid = self.scan_next_issuable(now)?;
        self.rr_cursor = (gid.0 + 1) % self.groups.len();
        Some(gid)
    }

    /// First issuable group at or after the round-robin cursor, by slab
    /// scan; does not advance the cursor.
    fn scan_next_issuable(&self, now: Cycle) -> Option<GroupId> {
        let n = self.groups.len();
        (0..n)
            .map(|off| (self.rr_cursor + off) % n)
            .find(|&i| self.groups[i].as_ref().is_some_and(|g| g.issuable(now)))
            .map(GroupId)
    }

    /// Zero-cost bookkeeping before issuing at the group's PC: local-stack
    /// pops, stack re-convergence, BranchLimited waits, slip interactions.
    fn pre_issue(&mut self, gid: GroupId, now: Cycle) -> PreIssue {
        // Innermost first: pop local serialization frames.
        if let Some(r) = self.group(gid).local_rpc {
            if self.group(gid).pc == r {
                self.pop_local(gid);
                return PreIssue::Redirect;
            }
        }

        let warp = self.group(gid).warp;

        // PC-based re-convergence: the running split re-unites with any
        // ready sibling whose PC (and serialization context) matches —
        // the WST's PC fields act as a small CAM. Checking at issue, not
        // only after memory instructions, is what lets an empty-path
        // branch split re-merge right after the short path finishes
        // (Figure 6's "re-united naturally without stalling").
        if self.dws_pc_based()
            && matches!(self.cfg.policy, Policy::Dws(c) if c.issue_pc_cam)
            && self.wst.groups_of(warp) > 1
        {
            let before = self.wst.groups_of(warp);
            self.try_pc_merge_at(gid, now);
            if self.wst.groups_of(warp) != before {
                return PreIssue::Redirect;
            }
        }

        // Slip catch-up: a group reaching the PC where its run-ahead
        // stalled merges into it (checked before stack handling so the
        // re-union happens even when that PC is a re-convergence point).
        if matches!(self.cfg.policy, Policy::Slip(_)) && self.group(gid).slip_catchup {
            let pc = self.group(gid).pc;
            if let Some(primary) = (0..self.groups.len()).map(GroupId).find(|&s| {
                s != gid
                    && self.groups[s.0].as_ref().is_some_and(|sg| {
                        sg.warp == warp
                            && sg.status == GroupStatus::SlipStalledAtBranch
                            && sg.pc == pc
                            && sg.local_ctx_compatible(self.group(gid))
                    })
            }) {
                // kill_group (via merge_into) wakes the primary once it is
                // the last group of the warp.
                self.merge_into(primary, gid, now);
                return PreIssue::Redirect;
            }
        }

        // Warp-stack re-convergence point.
        if self.group(gid).local_rpc.is_none() {
            if let Some(rpc) = self.warps[warp].tos().rpc {
                if self.group(gid).pc == rpc {
                    if self.wst.groups_of(warp) == 1 {
                        self.pop_warp_frame(gid);
                    } else if matches!(self.cfg.policy, Policy::Slip(_)) {
                        // Fall-behind threads can never arrive at the
                        // post-dominator on their own; park the run-ahead
                        // and let them catch up independently.
                        self.group_mut(gid).status = GroupStatus::SlipStalledAtBranch;
                        self.resched(gid);
                        self.release_slot(gid);
                        self.release_slip_catchups(warp, now);
                    } else {
                        self.group_mut(gid).status = GroupStatus::WaitReconv;
                        self.resched(gid);
                        self.release_slot(gid);
                        self.try_stack_merge(warp, now);
                    }
                    return PreIssue::Redirect;
                }
            }
        }

        let op = *self.program.exec_op(self.group(gid).pc);

        // BranchLimited: splits must re-unite before any conditional branch.
        if let Policy::Dws(c) = self.cfg.policy {
            if c.branch_handling == BranchHandling::BranchLimited
                && op.is_branch()
                && self.wst.groups_of(warp) > 1
                && self.group(gid).local_rpc.is_none()
            {
                self.group_mut(gid).status = GroupStatus::WaitReconv;
                self.resched(gid);
                self.release_slot(gid);
                self.try_stack_merge(warp, now);
                return PreIssue::Redirect;
            }
        }

        if let Policy::Slip(sc) = self.cfg.policy {
            // Fall-behind re-union: before the run-ahead executes a memory
            // instruction, completed fall-behind threads suspended at this
            // PC re-join it.
            if op.is_memory() && self.group(gid).slip_pc.is_none() {
                self.slip_merge_at(gid);
            }
            // Plain slip: the run-ahead may not cross a conditional branch
            // while threads are left behind.
            if !sc.branch_bypass
                && op.is_branch()
                && self.group(gid).slip_pc.is_none()
                && !self.group(gid).slip_catchup
                && self.has_slip_suspended(warp)
            {
                self.group_mut(gid).status = GroupStatus::SlipStalledAtBranch;
                self.resched(gid);
                self.release_slot(gid);
                self.release_slip_catchups(warp, now);
                return PreIssue::Redirect;
            }
        }

        PreIssue::Execute
    }

    /// Pops local serialization frames (conventional semantics) until a
    /// frame with live threads is adopted. Frames whose threads all halted
    /// — or were carved away by a memory-divergence split — are skipped.
    fn pop_local(&mut self, gid: GroupId) {
        let warp = self.group(gid).warp;
        let halted = self.warps[warp].halted;
        loop {
            let g = self.group_mut(gid);
            match g.local_stack.pop() {
                Some(f) => {
                    let live = f.mask - halted;
                    if !live.is_empty() {
                        g.pc = f.pc;
                        g.local_rpc = f.rpc;
                        g.mask = live;
                        return;
                    }
                    // Empty path frame: skip it entirely.
                }
                None => {
                    // Local context drained; continue at the join point
                    // (the PC that matched the old local rpc) at the outer
                    // level with the current mask.
                    g.local_rpc = None;
                    return;
                }
            }
        }
    }

    /// Splits a group's local-frame ownership: threads in `child_mask` move
    /// into `child` (cleared first, normally the sibling's pooled stack);
    /// the input keeps the rest (including any parked else-path threads).
    /// Keeps split halves from both resurrecting the same parked threads
    /// when they pop their join frames.
    fn partition_local_frames(frames: &mut [Frame], child_mask: Mask, child: &mut Vec<Frame>) {
        child.clear();
        child.extend(frames.iter().map(|f| Frame {
            pc: f.pc,
            rpc: f.rpc,
            mask: f.mask & child_mask,
        }));
        for f in frames.iter_mut() {
            f.mask = f.mask - child_mask;
        }
    }

    /// Conventional stack pop at the TOS re-convergence point (sole group).
    fn pop_warp_frame(&mut self, gid: GroupId) {
        let warp = self.group(gid).warp;
        loop {
            let w = &mut self.warps[warp];
            assert!(w.stack.len() > 1, "pop of root frame");
            w.stack.pop();
            let tos = *w.tos();
            let live = tos.mask - w.halted;
            if !live.is_empty() {
                let g = self.group_mut(gid);
                g.pc = tos.pc;
                g.mask = live;
                return;
            }
            if w.stack.len() == 1 {
                // Root drained: every thread halted under this frame.
                self.kill_group(gid);
                return;
            }
        }
    }

    /// Re-unites WaitReconv splits once they cover the TOS live mask.
    fn try_stack_merge(&mut self, warp: usize, now: Cycle) {
        // One scan gathers everything the decision needs (no candidate
        // list): the waiters' common PC, their mask union, and the oldest
        // waiter as survivor.
        let mut pc = None;
        let mut union = Mask::EMPTY;
        let mut survivor: Option<GroupId> = None;
        for (i, g) in self.groups.iter().enumerate() {
            let Some(g) = g else { continue };
            if g.warp != warp || g.status != GroupStatus::WaitReconv {
                continue;
            }
            // All waiters must be at the same PC.
            match pc {
                None => pc = Some(g.pc),
                Some(p) if p != g.pc => return,
                Some(_) => {}
            }
            union = union | g.mask;
            survivor = match survivor {
                Some(s) if self.groups[s.0].as_ref().expect("live").seq <= g.seq => Some(s),
                _ => Some(GroupId(i)),
            };
        }
        let Some(survivor) = survivor else { return };
        if union != self.warps[warp].tos_live_mask() {
            return;
        }
        // Merge into the oldest.
        for i in (0..self.groups.len()).map(GroupId) {
            let is_waiter = i != survivor
                && self.groups[i.0]
                    .as_ref()
                    .is_some_and(|g| g.warp == warp && g.status == GroupStatus::WaitReconv);
            if is_waiter {
                let mask = self.group(i).mask;
                let wtrips = self.group(i).spine_trips;
                let strips = self.group(survivor).spine_trips;
                if strips != wtrips {
                    // Spine branches never sit inside a divergent region,
                    // so structured stack re-unions normally agree; a
                    // mismatch still poisons conservatively (see
                    // [`merge_into`]).
                    self.uniform_poisoned[warp] = true;
                    self.group_mut(survivor).spine_trips = strips.max(wtrips);
                }
                self.group_mut(survivor).mask = self.group(survivor).mask | mask;
                self.kill_group(i);
                self.stats.stack_merges.incr();
            }
        }
        {
            let g = self.group_mut(survivor);
            g.status = GroupStatus::Ready;
            g.ready_at = now;
        }
        self.resched(survivor);
        let (spc, smask) = {
            let g = self.group(survivor);
            (g.pc, g.mask)
        };
        self.trace(TraceEvent::StackMerge {
            cycle: now,
            warp,
            pc: spc,
            mask: smask,
        });
        self.try_slot(survivor);
        // If the union sits at the TOS rpc, the conventional pop happens on
        // its next pre-issue; at a BranchLimited branch it just executes.
    }

    /// Attempts PC-based re-convergence of `gid` with ready siblings,
    /// stamping trace events with `now`.
    fn try_pc_merge_at(&mut self, gid: GroupId, now: Cycle) {
        if self.group(gid).status != GroupStatus::Ready {
            return;
        }
        let warp = self.group(gid).warp;
        loop {
            let partner = (0..self.groups.len()).map(GroupId).find(|&s| {
                s != gid
                    && self.groups[s.0]
                        .as_ref()
                        .is_some_and(|sg| sg.warp == warp && self.group(gid).can_merge_with(sg))
            });
            match partner {
                Some(p) => {
                    // Keep the older as survivor for deterministic naming.
                    let (survivor, victim) = if self.group(p).seq < self.group(gid).seq {
                        (p, gid)
                    } else {
                        (gid, p)
                    };
                    self.merge_into(survivor, victim, self.group(survivor).ready_at);
                    self.stats.pc_merges.incr();
                    let (pc, mask) = {
                        let g = self.group(survivor);
                        (g.pc, g.mask)
                    };
                    self.trace(TraceEvent::PcMerge {
                        cycle: now,
                        warp,
                        pc,
                        mask,
                    });
                    if survivor != gid {
                        return; // gid died
                    }
                }
                None => return,
            }
        }
    }

    /// Merges `victim` into `survivor` (same warp, same PC, structurally
    /// compatible local context). Frame masks union element-wise so each
    /// group's parked-thread shares recombine.
    fn merge_into(&mut self, survivor: GroupId, victim: GroupId, now: Cycle) {
        debug_assert!(
            self.group(survivor)
                .local_ctx_compatible(self.group(victim)),
            "merge of incompatible serialization contexts"
        );
        let vmask = self.group(victim).mask;
        let vready = self.group(victim).ready_at;
        let vtrips = self.group(victim).spine_trips;
        let strips = self.group(survivor).spine_trips;
        if strips != vtrips {
            // The halves sit at different uniform-spine positions (a
            // run-ahead lapped a uniform loop before this PC merge):
            // "uniform" registers may now differ per lane, so the warp
            // loses its fast-path eligibility for good.
            let warp = self.group(survivor).warp;
            self.uniform_poisoned[warp] = true;
            self.group_mut(survivor).spine_trips = strips.max(vtrips);
        }
        let mut vframes = std::mem::take(&mut self.group_mut(victim).local_stack);
        self.kill_group(victim);
        let s = self.group_mut(survivor);
        s.mask = s.mask | vmask;
        s.ready_at = s.ready_at.max(vready).max(now);
        for (sf, vf) in s.local_stack.iter_mut().zip(&vframes) {
            sf.mask = sf.mask | vf.mask;
        }
        if vframes.capacity() > 0 {
            vframes.clear();
            self.frame_pool.push(vframes);
        }
        self.resched(survivor);
        if !self.group(survivor).slotted {
            self.try_slot(survivor);
        }
    }

    // ---- slip helpers -------------------------------------------------------

    fn has_slip_suspended(&self, warp: usize) -> bool {
        self.groups
            .iter()
            .flatten()
            .any(|g| g.warp == warp && g.status == GroupStatus::SlipSuspended)
    }

    fn slip_suspended_count(&self, warp: usize) -> u32 {
        self.groups
            .iter()
            .flatten()
            .filter(|g| g.warp == warp && g.status == GroupStatus::SlipSuspended)
            .map(|g| g.mask.count())
            .sum()
    }

    /// Re-joins completed fall-behind threads suspended at `gid`'s PC.
    /// Merges one match at a time, in index order (the order the old
    /// collect-then-merge version used), so no candidate list is allocated.
    fn slip_merge_at(&mut self, gid: GroupId) {
        let warp = self.group(gid).warp;
        let pc = self.group(gid).pc;
        while let Some(s) = (0..self.groups.len()).map(GroupId).find(|&s| {
            s != gid
                && self.groups[s.0].as_ref().is_some_and(|sg| {
                    sg.warp == warp
                        && sg.status == GroupStatus::SlipSuspended
                        && sg.slip_pc == Some(pc)
                        && self.warps[warp].arrived_lanes(sg.mask) == sg.mask
                        && self.group(gid).local_ctx_compatible(sg)
                })
        }) {
            self.merge_into(gid, s, Cycle::ZERO);
            self.stats.slip_merges.incr();
        }
    }

    /// Lets suspended fall-behind threads run independently (used when the
    /// run-ahead can no longer revisit them: stalled at a branch, at a
    /// barrier, or terminated).
    fn release_slip_catchups(&mut self, warp: usize, now: Cycle) {
        // Direct index scan (no candidate list): releasing a group flips it
        // out of SlipSuspended, so later indices still see the original set.
        for gid in (0..self.groups.len()).map(GroupId) {
            let matches = self.groups[gid.0]
                .as_ref()
                .is_some_and(|g| g.warp == warp && g.status == GroupStatus::SlipSuspended);
            if !matches {
                continue;
            }
            let arrived = {
                let g = self.group(gid);
                self.warps[warp].arrived_lanes(g.mask) == g.mask
            };
            let g = self.group_mut(gid);
            g.slip_catchup = true;
            if arrived {
                g.status = GroupStatus::Ready;
                g.ready_at = now;
                g.slip_pc = None;
                self.resched(gid);
                self.try_slot(gid);
            }
        }
    }

    /// Whether subdivision is currently permitted (always true unless the
    /// adaptive-throttle extension is enabled and has tripped).
    fn splits_allowed(&self) -> bool {
        match self.cfg.policy {
            Policy::Dws(c) if c.adaptive_throttle => self.throttle.split_enabled,
            _ => true,
        }
    }

    fn adapt_throttle(&mut self, now: Cycle) {
        let Policy::Dws(c) = self.cfg.policy else {
            return;
        };
        if !c.adaptive_throttle || now - self.throttle.last_adapt < THROTTLE_INTERVAL {
            return;
        }
        let insts = self.stats.thread_insts.get();
        let interval = (now - self.throttle.last_adapt) as f64;
        let ipc = (insts - self.throttle.insts_snapshot) as f64 / interval;
        match self.throttle.phase {
            ThrottlePhase::ProbeOn => {
                self.throttle.probe_on_ipc = ipc;
                self.throttle.split_enabled = false;
                self.throttle.phase = ThrottlePhase::DrainOff;
            }
            ThrottlePhase::DrainOff => {
                // Fragments created before the switch have had an interval
                // to re-merge; the next interval is a clean measurement.
                self.throttle.phase = ThrottlePhase::ProbeOff;
            }
            ThrottlePhase::ProbeOff => {
                // Commit to the winner; ties (within the margin) keep
                // subdivision on, the paper's default behavior.
                let on_wins = self.throttle.probe_on_ipc * THROTTLE_MARGIN >= ipc;
                self.throttle.split_enabled = on_wins;
                self.throttle.phase = ThrottlePhase::Committed(THROTTLE_COMMIT);
            }
            ThrottlePhase::Committed(n) => {
                if n > 1 {
                    self.throttle.phase = ThrottlePhase::Committed(n - 1);
                } else {
                    self.throttle.split_enabled = true;
                    self.throttle.phase = ThrottlePhase::ProbeOn;
                }
            }
        }
        self.throttle.last_adapt = now;
        self.throttle.insts_snapshot = insts;
    }

    fn adapt_slip(&mut self, now: Cycle) {
        let Policy::Slip(sc) = self.cfg.policy else {
            return;
        };
        if now - self.slip.last_adapt < sc.interval {
            return;
        }
        let busy = self.stats.busy_cycles.get() - self.slip.busy_snapshot;
        let stall = self.stats.mem_stall_cycles.get() - self.slip.stall_snapshot;
        let interval = (now - self.slip.last_adapt) as f64;
        let stall_frac = stall as f64 / interval;
        let busy_frac = busy as f64 / interval;
        if stall_frac > sc.raise_threshold {
            self.slip.max_div = (self.slip.max_div + 1).min(self.cfg.width as u32);
        } else if busy_frac > sc.lower_threshold {
            self.slip.max_div = self.slip.max_div.saturating_sub(1);
        }
        self.slip.last_adapt = now;
        self.slip.busy_snapshot = self.stats.busy_cycles.get();
        self.slip.stall_snapshot = self.stats.mem_stall_cycles.get();
    }

    // ---- execution ----------------------------------------------------------

    /// Executes the instruction at `gid`'s PC. The cycle is consumed
    /// whatever the result.
    fn execute(
        &mut self,
        gid: GroupId,
        now: Cycle,
        mem: &mut MemorySystem,
        data: &mut dyn MemoryAccess,
    ) -> ExecResult {
        let pc = self.group(gid).pc;
        debug_assert!(
            !self.group(gid).mask.is_empty(),
            "issue with empty mask at pc {pc}"
        );

        // Instruction fetch through the WPU-local L1-I (cold misses stall
        // the group; the fill latency comes from the crossbar/L2 model).
        let fetch_ready = self
            .icache_probe(now, pc)
            .unwrap_or_else(|| mem.icache_fill_latency(now));
        if fetch_ready > now + 1 {
            // Anything beyond a 1-cycle hit: retry when the line arrives.
            let g = self.group_mut(gid);
            g.ready_at = fetch_ready;
            self.resched(gid);
            self.current = None;
            return ExecResult::Retry;
        }

        let op = *self.program.exec_op(pc);
        let mask = self.group(gid).mask;
        let warp = self.group(gid).warp;

        match op {
            ExecOp::Alu { .. } | ExecOp::Un { .. } | ExecOp::Set { .. } => {
                self.stats.on_issue(mask.count());
                self.exec_compute(warp, pc, mask, op);
                if op.is_fp() {
                    self.stats.fp_ops.add(mask.count() as u64);
                } else {
                    self.stats.int_ops.add(mask.count() as u64);
                }
                self.group_mut(gid).pc = pc + 1;
                ExecResult::Issued
            }
            ExecOp::Jump { target } => {
                self.stats.on_issue(mask.count());
                self.stats.int_ops.add(mask.count() as u64);
                self.group_mut(gid).pc = target as usize;
                ExecResult::Issued
            }
            ExecOp::Branch { cond, a, b, target } => {
                self.stats.on_issue(mask.count());
                self.stats.int_ops.add(mask.count() as u64);
                self.exec_branch(gid, pc, cond, a, b, target as usize, now);
                ExecResult::Issued
            }
            ExecOp::Load { .. } | ExecOp::Store { .. } => {
                self.exec_memory(gid, pc, op, now, mem, data)
            }
            ExecOp::Barrier => {
                self.stats.on_issue(mask.count());
                let g = self.group_mut(gid);
                g.status = GroupStatus::WaitBarrier;
                self.resched(gid);
                self.release_slot(gid);
                // Fall-behind slip threads must be able to reach the
                // barrier on their own.
                if matches!(self.cfg.policy, Policy::Slip(_)) {
                    self.release_slip_catchups(warp, now);
                }
                self.current = None;
                ExecResult::Issued
            }
            ExecOp::Halt => {
                self.stats.on_issue(mask.count());
                self.exec_halt(gid, now);
                self.current = None;
                ExecResult::Issued
            }
        }
    }

    /// Probes the WPU-local L1-I for `pc`'s line. Returns the fetch-ready
    /// cycle on a hit; on a miss, counts it and installs the line
    /// (instructions always hit the L2 side in these tiny kernels),
    /// leaving the fill latency to the crossbar/L2 model. Instruction storage
    /// is laid out at 4 bytes per instruction in its own address space.
    fn icache_probe(&mut self, now: Cycle, pc: usize) -> Option<Cycle> {
        self.l1i_fetches += 1;
        let line = match self.l1i_shift {
            Some(s) => (pc as u64 * 4) >> s,
            None => (pc as u64 * 4) / self.cfg.l1i.line_bytes,
        };
        if self.icache.probe(line).valid() {
            return Some(now + self.cfg.l1i.hit_latency);
        }
        self.l1i_misses += 1;
        self.icache.fill(line, MesiState::Shared);
        None
    }

    /// Executes an ALU/Un/Set instruction across the active lanes: through
    /// the warp-wide kernels (one opcode dispatch for the whole warp) or,
    /// with the µop engine off, through the legacy per-lane interpreter.
    /// With the oracle on (debug builds, `DWS_SANITIZE=1`), every lane's
    /// legacy result is precomputed *before* the kernel runs (the
    /// destination may alias a source) and the engines must agree.
    fn exec_compute(&mut self, warp: usize, pc: usize, mask: Mask, op: ExecOp) {
        // Fixed-size capture (a mask holds at most 64 lanes), so the
        // oracle does not allocate — the zero-alloc steady-state guard also
        // runs in debug builds. `None` when the oracle is off, so the
        // release fast path never initializes the array.
        let expected: Option<[Option<(u16, u64)>; 64]> = if self.check_oracle {
            let mut expected = [None; 64];
            let inst = self.program.inst(pc);
            let rf = &self.warps[warp].regs;
            for lane in mask.iter() {
                let mut sh = rf.shadow(lane);
                let out = execute_lane(&mut sh, inst);
                debug_assert_eq!(out, StepOutcome::Next);
                expected[lane] = sh.written();
            }
            Some(expected)
        } else {
            None
        };
        if self.use_uop_engine {
            let rf = &mut self.warps[warp].regs;
            match op {
                ExecOp::Alu { op, dst, a, b, .. } => exec::exec_alu(rf, mask, op, dst, a, b),
                ExecOp::Un { op, dst, a, .. } => exec::exec_un(rf, mask, op, dst, a),
                ExecOp::Set { cond, dst, a, b } => exec::exec_set(rf, mask, cond, dst, a, b),
                _ => unreachable!("exec_compute on non-compute µop"),
            }
        } else {
            let inst = *self.program.inst(pc);
            let rf = &mut self.warps[warp].regs;
            for lane in mask.iter() {
                let out = execute_lane(&mut rf.lane(lane), &inst);
                debug_assert_eq!(out, StepOutcome::Next);
            }
        }
        if let Some(expected) = &expected {
            let rf = &self.warps[warp].regs;
            for lane in mask.iter() {
                if let Some((r, v)) = expected[lane] {
                    assert_eq!(
                        rf.get(r, lane),
                        v,
                        "µop engine diverged from per-lane oracle at pc {pc} lane {lane} reg r{r}"
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_branch(
        &mut self,
        gid: GroupId,
        pc: usize,
        cond: CondOp,
        a: Src,
        b: Src,
        target: usize,
        now: Cycle,
    ) {
        let warp = self.group(gid).warp;
        let mask = self.group(gid).mask;
        // Spine-position bookkeeping (see [`Group::spine_trips`]): every
        // retired spine branch advances the group's counter, fast path or
        // not, so merge-time mismatch detection stays exact.
        if self.spine_branch[pc] {
            self.group_mut(gid).spine_trips += 1;
        }
        let taken = if self.use_uop_engine {
            let uniform =
                self.use_uniform_hints && self.uniform_branch[pc] && !self.uniform_poisoned[warp];
            let taken = if uniform {
                // Verifier-proven uniform branch: the condition reads no
                // thread-varying register, so one representative lane
                // decides for the whole mask. Cycle-identical by
                // construction — the full-warp evaluation would produce
                // either `mask` or the empty mask — and the per-lane
                // oracle below still checks every lane.
                self.stats.uniform_fast_branches.incr();
                let probe = Mask::lane(mask.first().expect("nonempty issue mask"));
                if exec::branch_taken(&self.warps[warp].regs, probe, cond, a, b).is_empty() {
                    Mask::EMPTY
                } else {
                    mask
                }
            } else {
                exec::branch_taken(&self.warps[warp].regs, mask, cond, a, b)
            };
            if self.check_oracle {
                let inst = self.program.inst(pc);
                let rf = &self.warps[warp].regs;
                let mut expect = Mask::EMPTY;
                for lane in mask.iter() {
                    let mut sh = rf.shadow(lane);
                    match execute_lane(&mut sh, inst) {
                        StepOutcome::Jump(_) => expect.set(lane),
                        StepOutcome::Next => {}
                        other => unreachable!("branch produced {other:?}"),
                    }
                }
                assert_eq!(
                    taken, expect,
                    "µop taken mask diverged from per-lane oracle at pc {pc}"
                );
            }
            taken
        } else {
            let inst = *self.program.inst(pc);
            let rf = &mut self.warps[warp].regs;
            let mut taken = Mask::EMPTY;
            for lane in mask.iter() {
                match execute_lane(&mut rf.lane(lane), &inst) {
                    StepOutcome::Jump(_) => taken.set(lane),
                    StepOutcome::Next => {}
                    other => unreachable!("branch produced {other:?}"),
                }
            }
            taken
        };
        let fallthrough = mask - taken;
        let divergent = !taken.is_empty() && !fallthrough.is_empty();
        self.stats.on_branch(divergent);

        if !divergent {
            self.group_mut(gid).pc = if fallthrough.is_empty() {
                target
            } else {
                pc + 1
            };
            return;
        }

        let info = *self
            .program
            .branch_info(pc)
            .expect("divergent conditional branch has metadata");

        // DWS branch subdivision.
        if let Policy::Dws(c) = self.cfg.policy {
            if c.branch_split && info.subdividable && self.splits_allowed() {
                if self.wst.can_split(warp) {
                    // Keep executing the path that still has work before the
                    // post-dominator; park the other as the sibling split.
                    // When the taken edge jumps straight to the
                    // post-dominator (`if` with no else), this lets the body
                    // side catch up one instruction later and re-unite via
                    // the PC match at essentially conventional cost.
                    let (run_mask, run_pc, park_mask, park_pc) =
                        if c.park_short_path && target == info.ipdom {
                            (fallthrough, pc + 1, taken, target)
                        } else {
                            (taken, target, fallthrough, pc + 1)
                        };
                    let sib = self.spawn_group(warp, park_pc, park_mask);
                    {
                        // The sibling takes its threads' share of any
                        // serialization context.
                        let mut local = std::mem::take(&mut self.group_mut(sib).local_stack);
                        Self::partition_local_frames(
                            &mut self.groups[gid.0].as_mut().expect("live").local_stack,
                            park_mask,
                            &mut local,
                        );
                        let lrpc = self.group(gid).local_rpc;
                        let trips = self.group(gid).spine_trips;
                        let s = self.group_mut(sib);
                        s.local_stack = local;
                        s.local_rpc = lrpc;
                        s.spine_trips = trips;
                        s.ready_at = now;
                    }
                    self.resched(sib);
                    self.try_slot(sib);
                    let g = self.group_mut(gid);
                    g.mask = run_mask;
                    g.pc = run_pc;
                    self.stats.branch_splits.incr();
                    self.trace(TraceEvent::BranchSplit {
                        cycle: now,
                        warp,
                        pc,
                        run_mask,
                        park_mask,
                    });
                    return;
                }
                self.stats.wst_full_events.incr();
            }
        }

        // Conventional serialization: on the warp stack when this group is
        // the entire current region, privately otherwise.
        let sole_region = self.wst.groups_of(warp) == 1
            && self.group(gid).local_rpc.is_none()
            && self.group(gid).mask == self.warps[warp].tos_live_mask();
        if sole_region && info.ipdom != RECONV_NONE {
            let w = &mut self.warps[warp];
            let tos = w.stack.last_mut().expect("root frame");
            tos.pc = info.ipdom;
            w.stack.push(Frame {
                pc: pc + 1,
                rpc: Some(info.ipdom),
                mask: fallthrough,
            });
            w.stack.push(Frame {
                pc: target,
                rpc: Some(info.ipdom),
                mask: taken,
            });
            let g = self.group_mut(gid);
            g.mask = taken;
            g.pc = target;
        } else {
            // Private serialization within the split.
            let r = info.ipdom; // may be RECONV_NONE: frames then pop at Halt
            let g = self.group_mut(gid);
            g.local_stack.push(Frame {
                pc: r,
                rpc: g.local_rpc,
                mask: g.mask,
            });
            g.local_stack.push(Frame {
                pc: pc + 1,
                rpc: Some(r),
                mask: fallthrough,
            });
            g.local_rpc = Some(r);
            g.mask = taken;
            g.pc = target;
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_memory(
        &mut self,
        gid: GroupId,
        pc: usize,
        op: ExecOp,
        now: Cycle,
        mem: &mut MemorySystem,
        data: &mut dyn MemoryAccess,
    ) -> ExecResult {
        let warp = self.group(gid).warp;
        let mask = self.group(gid).mask;

        // Structural-stall memo: while the group waits on full MSHRs its
        // registers are frozen, so the same `(pc, mask)` decodes to the
        // same addresses, and the access cannot be accepted before its
        // L1 has released the deficit it reported — replay the rejection
        // without the per-lane decode and cache probe.
        if self.group(gid).memo_blocks(mem.l1_releases(self.cfg.id)) {
            mem.count_repeat_rejection();
            let g = self.group_mut(gid);
            g.ready_at = now + 1;
            self.resched(gid);
            self.current = None;
            return ExecResult::Retry;
        }

        // Borrow the per-tick scratch buffers out of `self` for the
        // duration of the access (restored at the end).
        let mut ops = std::mem::take(&mut self.scratch.ops);
        let mut accesses = std::mem::take(&mut self.scratch.accesses);
        let mut outcomes = std::mem::take(&mut self.scratch.outcomes);
        let mut miss_lines = std::mem::take(&mut self.scratch.miss_lines);
        ops.clear();
        accesses.clear();
        miss_lines.clear();

        // Decode per-lane addresses (no functional effect yet): one µop
        // dispatch for the whole warp, with the register row streamed out
        // of the SoA file.
        if self.use_uop_engine {
            let rf = &self.warps[warp].regs;
            match op {
                ExecOp::Load { dst, base, offset } => {
                    for lane in mask.iter() {
                        let addr = rf.get(base, lane).wrapping_add(offset);
                        ops.push((
                            lane,
                            StepOutcome::Load {
                                addr,
                                dst: Reg(dst),
                            },
                        ));
                    }
                }
                ExecOp::Store { src, base, offset } => {
                    for lane in mask.iter() {
                        let addr = rf.get(base, lane).wrapping_add(offset);
                        let value = match src {
                            Src::Reg(r) => rf.get(r, lane),
                            Src::Imm(v) => v,
                        };
                        ops.push((lane, StepOutcome::Store { addr, value }));
                    }
                }
                _ => unreachable!("exec_memory on non-memory µop"),
            }
            if self.check_oracle {
                let inst = self.program.inst(pc);
                for &(lane, out) in &ops {
                    let mut sh = rf.shadow(lane);
                    let expect = execute_lane(&mut sh, inst);
                    assert_eq!(
                        out, expect,
                        "µop address generation diverged from per-lane oracle at pc {pc} lane {lane}"
                    );
                }
            }
        } else {
            let inst = *self.program.inst(pc);
            let rf = &mut self.warps[warp].regs;
            for lane in mask.iter() {
                let out = execute_lane(&mut rf.lane(lane), &inst);
                ops.push((lane, out));
            }
        }
        accesses.extend(ops.iter().map(|&(lane, out)| match out {
            StepOutcome::Load { addr, .. } => LaneAccess {
                lane,
                addr,
                kind: AccessKind::Load,
            },
            StepOutcome::Store { addr, .. } => LaneAccess {
                lane,
                addr,
                kind: AccessKind::Store,
            },
            other => unreachable!("memory inst produced {other:?}"),
        }));

        let issued = 'body: {
            if let Err(deficit) = mem.warp_access_into(now, self.cfg.id, &accesses, &mut outcomes) {
                // MSHRs exhausted: structural stall; retry this group
                // shortly while other groups issue. No re-probe can be
                // accepted before `deficit` more MSHR releases.
                let memo = Some((pc, mask, mem.l1_releases(self.cfg.id) + deficit));
                let g = self.group_mut(gid);
                g.reject_memo = memo;
                g.ready_at = now + 1;
                self.resched(gid);
                self.current = None;
                break 'body false;
            }
            // Accepted: a later visit to this `(pc, mask)` (a loop) has new
            // addresses and must probe.
            self.group_mut(gid).reject_memo = None;

            self.stats.on_issue(mask.count());
            match op {
                ExecOp::Load { .. } => self.stats.loads.add(mask.count() as u64),
                _ => self.stats.stores.add(mask.count() as u64),
            }

            // Functional effects (data-race-free kernels make ordering benign).
            for &(lane, out) in &ops {
                match out {
                    StepOutcome::Load { addr, dst } => {
                        let v = data.load_word(addr);
                        self.warps[warp].regs.set(dst.0, lane, v);
                    }
                    StepOutcome::Store { addr, value } => {
                        data.store_word(addr, value);
                    }
                    _ => unreachable!(),
                }
            }

            // Classify outcomes.
            let mut hit_mask = Mask::EMPTY;
            let mut miss_mask = Mask::EMPTY;
            let mut hit_ready = now;
            for (o, a) in outcomes.iter().zip(&accesses) {
                match o.outcome {
                    AccessOutcome::Hit { ready_at } => {
                        hit_mask.set(o.lane);
                        hit_ready = hit_ready.max(ready_at);
                    }
                    AccessOutcome::Miss { request } => {
                        miss_mask.set(o.lane);
                        self.warps[warp].threads[o.lane].pending = Some(request);
                        self.warps[warp].threads[o.lane].miss_count += 1;
                        self.req_map.insert(request, (warp, o.lane));
                        let line = a.addr / 128;
                        if !miss_lines.contains(&line) {
                            miss_lines.push(line);
                        }
                    }
                }
            }
            let any_miss = !miss_mask.is_empty();
            let divergent = (any_miss && !hit_mask.is_empty()) || miss_lines.len() > 1;
            self.stats.on_mem_access(any_miss, divergent);

            self.group_mut(gid).pc = pc + 1;

            if !any_miss {
                let g = self.group_mut(gid);
                g.status = GroupStatus::Ready;
                g.ready_at = hit_ready;
                self.resched(gid);
                if self.dws_pc_based() {
                    self.try_pc_merge_at(gid, now);
                }
                self.current = None; // switch on every cache access
                break 'body true;
            }

            let mem_divergent = !hit_mask.is_empty();
            match self.cfg.policy {
                Policy::Dws(c) if c.mem_split.is_some() && mem_divergent => {
                    let scheme = c.mem_split.expect("checked");
                    // `gid` itself is slotted and Ready here (it just
                    // issued), so "any other slotted ready group" is a
                    // counter comparison.
                    debug_assert!(
                        self.group(gid).slotted && self.group(gid).status == GroupStatus::Ready
                    );
                    let others_ready = self.n_slotted_ready >= 2;
                    let split_now = match scheme {
                        MemSplit::Aggressive => true,
                        MemSplit::Lazy | MemSplit::Revive => !others_ready,
                    } && self.splits_allowed();
                    if !self.splits_allowed() {
                        self.stats.throttle_suppressed.incr();
                    }
                    if split_now && self.wst.can_split(warp) {
                        self.split_on_mem(gid, hit_mask, miss_mask, hit_ready, now);
                        self.stats.mem_splits.incr();
                    } else {
                        if split_now {
                            self.stats.wst_full_events.incr();
                        } else {
                            self.stats.lazy_suppressed.incr();
                        }
                        self.group_mut(gid).status = GroupStatus::WaitMem;
                        self.resched(gid);
                    }
                }
                Policy::Slip(_) if mem_divergent => {
                    let allowed = self.slip_suspended_count(warp) + miss_mask.count()
                        <= self.slip.max_div
                        && !self.group(gid).slip_catchup;
                    if allowed {
                        // Fall-behind threads suspend *at* the memory PC; they
                        // re-execute it (as hits) when re-united.
                        let sib = self.spawn_group(warp, pc, miss_mask);
                        {
                            let mut local = std::mem::take(&mut self.group_mut(sib).local_stack);
                            Self::partition_local_frames(
                                &mut self.groups[gid.0].as_mut().expect("live").local_stack,
                                miss_mask,
                                &mut local,
                            );
                            let lrpc = self.group(gid).local_rpc;
                            let trips = self.group(gid).spine_trips;
                            let s = self.group_mut(sib);
                            s.status = GroupStatus::SlipSuspended;
                            s.slip_pc = Some(pc);
                            s.local_stack = local;
                            s.local_rpc = lrpc;
                            s.spine_trips = trips;
                            s.slotted = false;
                        }
                        self.resched(sib);
                        let g = self.group_mut(gid);
                        g.mask = hit_mask;
                        g.status = GroupStatus::Ready;
                        g.ready_at = hit_ready;
                        self.resched(gid);
                        self.stats.slip_events.incr();
                    } else {
                        self.group_mut(gid).status = GroupStatus::WaitMem;
                        self.resched(gid);
                    }
                }
                _ => {
                    // Conventional: the whole group waits for the slowest lane.
                    self.group_mut(gid).status = GroupStatus::WaitMem;
                    self.resched(gid);
                }
            }
            self.current = None; // switch on every cache access
            true
        };

        self.scratch.ops = ops;
        self.scratch.accesses = accesses;
        self.scratch.outcomes = outcomes;
        self.scratch.miss_lines = miss_lines;
        if issued {
            ExecResult::Issued
        } else {
            ExecResult::Retry
        }
    }

    /// Splits `gid` into a run-ahead (hit) group and the waiting remainder.
    fn split_on_mem(
        &mut self,
        gid: GroupId,
        hit_mask: Mask,
        miss_mask: Mask,
        hit_ready: Cycle,
        now: Cycle,
    ) {
        let warp = self.group(gid).warp;
        let pc = self.group(gid).pc;
        let run_ahead = self.spawn_group(warp, pc, hit_mask);
        {
            let mut local = std::mem::take(&mut self.group_mut(run_ahead).local_stack);
            Self::partition_local_frames(
                &mut self.groups[gid.0].as_mut().expect("live").local_stack,
                hit_mask,
                &mut local,
            );
            let lrpc = self.group(gid).local_rpc;
            let trips = self.group(gid).spine_trips;
            let s = self.group_mut(run_ahead);
            s.local_stack = local;
            s.local_rpc = lrpc;
            s.spine_trips = trips;
            s.ready_at = hit_ready;
        }
        self.resched(run_ahead);
        self.try_slot(run_ahead);
        let g = self.group_mut(gid);
        g.mask = miss_mask;
        g.status = GroupStatus::WaitMem;
        self.resched(gid);
        self.trace(TraceEvent::MemSplit {
            cycle: now,
            warp,
            pc,
            hit_mask,
            miss_mask,
        });
    }

    /// ReviveSplit: when the pipeline stalls, let arrived threads of one
    /// suspended group run ahead (paper Section 5.2).
    fn try_revive(&mut self, now: Cycle) {
        if !self.splits_allowed() || self.slots_in_use() >= self.cfg.sched_slots {
            return;
        }
        let candidate = self
            .groups
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.as_ref().map(|g| (i, g)))
            .filter(|(_, g)| g.status == GroupStatus::WaitMem)
            .filter(|(_, g)| {
                let arrived = self.warps[g.warp].arrived_lanes(g.mask);
                !arrived.is_empty() && arrived != g.mask
            })
            .filter(|(_, g)| self.wst.can_split(g.warp))
            .min_by_key(|(_, g)| g.seq)
            .map(|(i, _)| GroupId(i));
        let Some(gid) = candidate else {
            return;
        };
        let warp = self.group(gid).warp;
        let arrived = self.warps[warp].arrived_lanes(self.group(gid).mask);
        let pc = self.group(gid).pc;
        let run_ahead = self.spawn_group(warp, pc, arrived);
        {
            let mut local = std::mem::take(&mut self.group_mut(run_ahead).local_stack);
            Self::partition_local_frames(
                &mut self.groups[gid.0].as_mut().expect("live").local_stack,
                arrived,
                &mut local,
            );
            let lrpc = self.group(gid).local_rpc;
            let trips = self.group(gid).spine_trips;
            let s = self.group_mut(run_ahead);
            s.local_stack = local;
            s.local_rpc = lrpc;
            s.spine_trips = trips;
            s.ready_at = now + 1;
        }
        self.resched(run_ahead);
        self.try_slot(run_ahead);
        let g = self.group_mut(gid);
        g.mask = g.mask - arrived;
        self.resched(gid);
        self.stats.revive_splits.incr();
        self.trace(TraceEvent::Revive {
            cycle: now,
            warp,
            pc,
            mask: arrived,
        });
    }

    fn exec_halt(&mut self, gid: GroupId, now: Cycle) {
        let warp = self.group(gid).warp;
        let mask = self.group(gid).mask;
        for lane in mask.iter() {
            if !self.warps[warp].threads[lane].halted {
                self.warps[warp].threads[lane].halted = true;
                self.live_threads -= 1;
            }
        }
        self.warps[warp].halted = self.warps[warp].halted | mask;

        // Resume any serialized local paths first.
        if self.group(gid).local_rpc.is_some() || !self.group(gid).local_stack.is_empty() {
            // Pop local frames until a live path emerges.
            let halted = self.warps[warp].halted;
            loop {
                let g = self.group_mut(gid);
                match g.local_stack.pop() {
                    Some(f) => {
                        let live = f.mask - halted;
                        if !live.is_empty() {
                            g.pc = f.pc;
                            g.local_rpc = f.rpc;
                            g.mask = live;
                            g.status = GroupStatus::Ready;
                            g.ready_at = now;
                            self.resched(gid);
                            return;
                        }
                    }
                    None => {
                        g.local_rpc = None;
                        break;
                    }
                }
            }
        }

        // Sole group: unwind the warp stack for any live parked paths.
        if self.wst.groups_of(warp) == 1 {
            while self.warps[warp].stack.len() > 1 {
                self.warps[warp].stack.pop();
                let tos = *self.warps[warp].tos();
                let live = tos.mask - self.warps[warp].halted;
                if !live.is_empty() {
                    let g = self.group_mut(gid);
                    g.pc = tos.pc;
                    g.mask = live;
                    g.status = GroupStatus::Ready;
                    g.ready_at = now;
                    self.resched(gid);
                    return;
                }
            }
        }

        // Nothing live to resume in this group.
        if matches!(self.cfg.policy, Policy::Slip(_)) {
            self.release_slip_catchups(warp, now);
        }
        self.kill_group(gid);
        // If siblings also ended (e.g. all waiting at a reconvergence that
        // can now complete), the stack-merge path handles them on their own
        // pre-issue; but their target mask shrank, so re-check now.
        if self.wst.groups_of(warp) > 1 {
            self.try_stack_merge(warp, now);
        }
    }

    // ---- barrier ------------------------------------------------------------

    /// Releases every group waiting at the global barrier (called by the
    /// simulator once all live threads of the machine have arrived). Splits
    /// of the same warp re-converge here, per Section 5.4.
    pub fn release_barrier(&mut self, now: Cycle) {
        self.trace(TraceEvent::BarrierRelease { cycle: now });
        for warp in 0..self.cfg.n_warps {
            // Oldest waiter survives; found by scan, no candidate list.
            let survivor = self
                .groups
                .iter()
                .enumerate()
                .filter_map(|(i, g)| g.as_ref().map(|g| (i, g)))
                .filter(|(_, g)| g.warp == warp && g.status == GroupStatus::WaitBarrier)
                .min_by_key(|(_, g)| g.seq)
                .map(|(i, _)| GroupId(i));
            let Some(survivor) = survivor else { continue };
            for i in (0..self.groups.len()).map(GroupId) {
                let is_waiter = i != survivor
                    && self.groups[i.0]
                        .as_ref()
                        .is_some_and(|g| g.warp == warp && g.status == GroupStatus::WaitBarrier);
                if is_waiter {
                    let mask = self.group(i).mask;
                    self.group_mut(survivor).mask = self.group(survivor).mask | mask;
                    self.kill_group(i);
                    self.stats.stack_merges.incr();
                }
            }
            let g = self.group_mut(survivor);
            g.status = GroupStatus::Ready;
            g.ready_at = now;
            g.pc += 1;
            g.slip_catchup = false;
            self.resched(survivor);
            self.try_slot(survivor);
        }
    }
}

impl Wpu {
    /// Debug helper: one line per live group (used by diagnostics and
    /// deadlock reports).
    pub fn dump_groups(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for g in self.groups.iter().flatten() {
            let _ = writeln!(
                s,
                "warp={} pc={} mask={} status={:?} ready_at={} lrpc={:?} ldepth={} slot={} catchup={} slip_pc={:?}",
                g.warp, g.pc, g.mask, g.status, g.ready_at, g.local_rpc,
                g.local_stack.len(), g.slotted, g.slip_catchup, g.slip_pc
            );
        }
        for w in &self.warps {
            let _ = writeln!(s, "warp {} stack={:?} halted={}", w.id, w.stack, w.halted);
        }
        s
    }
}
