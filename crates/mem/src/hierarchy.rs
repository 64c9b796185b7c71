//! The assembled memory system: private banked L1s, crossbar, shared
//! inclusive L2 with a MESI directory, and DRAM.
//!
//! See the crate-level documentation for the modeling approach. The
//! interface a WPU uses:
//!
//! 1. [`MemorySystem::warp_access`] — present one warp memory instruction's
//!    lane accesses; receive per-lane [`AccessOutcome`]s. Mixed hit/miss
//!    outcomes are exactly the *memory divergence* events that trigger
//!    dynamic warp subdivision.
//! 2. [`MemorySystem::drain_completions`] — each cycle, collect requests
//!    whose data arrived, and wake the threads waiting on them.

use crate::cache::{CacheArray, MesiState};
use crate::config::{CacheConfig, MemConfig};
use crate::link::{Crossbar, Dram};
use crate::mshr::{MshrFile, MshrId};
use dws_engine::fault::{FaultInjector, FaultPlan};
use dws_engine::stats::{Counter, Distribution};
use dws_engine::{Cycle, EventQueue, FastHashMap, WakeHeap};

/// Size of a coherence/request control message on the crossbar, in bytes.
const CTRL_MSG_BYTES: u64 = 8;

/// Salt separating the memory system's fault-draw stream from the WPUs'.
const MEM_FAULT_SALT: u64 = 0x4d45_4d31;

/// Globally unique identifier of one lane's outstanding memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read one word.
    Load,
    /// Write one word (write-back, write-allocate).
    Store,
}

/// One lane's access within a warp memory instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccess {
    /// Lane index within the warp (0-based).
    pub lane: usize,
    /// Byte address.
    pub addr: u64,
    /// Load or store.
    pub kind: AccessKind,
}

/// Outcome of one lane's access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access hit; the value is available at `ready_at`.
    Hit {
        /// Cycle at which the data is available (includes bank queueing).
        ready_at: Cycle,
    },
    /// The access missed; completion arrives later tagged with `request`.
    Miss {
        /// Token delivered by [`MemorySystem::drain_completions`].
        request: RequestId,
    },
}

/// Per-lane outcome, aligned with the input access order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneOutcome {
    /// Lane index (copied from the request).
    pub lane: usize,
    /// Hit or miss.
    pub outcome: AccessOutcome,
}

/// A completed miss, delivered when its fill arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Which L1 (== WPU) the request belonged to.
    pub l1: usize,
    /// The request token returned by [`MemorySystem::warp_access`].
    pub request: RequestId,
    /// The cycle the fill completed.
    pub at: Cycle,
}

/// Directory entry for an L2-resident line.
#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Bitmask of L1s holding the line.
    sharers: u32,
    /// L1 holding the line in M/E, if any.
    owner: Option<usize>,
}

struct L1 {
    array: CacheArray,
    mshrs: MshrFile,
    /// Mirror of this L1's outstanding fill times (a per-L1 view of the
    /// global event list), so the run loop can wake one WPU at a time.
    fills: WakeHeap<()>,
    /// MSHR entries released (fills drained) so far. A rejected access
    /// cannot be accepted before its deficit's worth of further releases
    /// ([`MemorySystem::l1_releases`]).
    releases: u64,
}

struct L2 {
    array: CacheArray,
    dir: FastHashMap<u64, DirEntry>,
    /// Analytic MSHR occupancy: when each entry frees.
    mshr_free_at: Vec<Cycle>,
    /// Lines currently being fetched from DRAM -> fill time, so concurrent
    /// requesters observe the in-flight fill instead of a fresh DRAM trip.
    inflight: FastHashMap<u64, Cycle>,
    cfg: CacheConfig,
}

/// Aggregate counters for the whole memory system (consumed by the energy
/// model and the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// L1 D-cache lane accesses (after intra-line coalescing: unique lines).
    pub l1d_line_accesses: Counter,
    /// L1 D-cache lane-level accesses before coalescing.
    pub l1d_lane_accesses: Counter,
    /// L1 D-cache line-level hits.
    pub l1d_hits: Counter,
    /// L1 D-cache line-level misses (primary; secondary merges excluded).
    pub l1d_misses: Counter,
    /// Misses merged into an existing MSHR.
    pub l1d_mshr_merges: Counter,
    /// Store upgrades of Shared lines.
    pub upgrades: Counter,
    /// Warp accesses rejected for lack of MSHR resources.
    pub rejections: Counter,
    /// Cycles lost to L1 bank conflicts (summed over lanes).
    pub bank_conflict_cycles: Counter,
    /// Requests processed by the L2.
    pub l2_accesses: Counter,
    /// L2 hits.
    pub l2_hits: Counter,
    /// L2 misses (DRAM fetches, including those that piggyback in-flight).
    pub l2_misses: Counter,
    /// Dirty L1 lines written back to L2.
    pub l1_writebacks: Counter,
    /// Dirty L2 lines written back to DRAM.
    pub l2_writebacks: Counter,
    /// Invalidations sent to L1s by the directory.
    pub invalidations: Counter,
    /// Owner flushes (dirty data forwarded through the L2).
    pub owner_flushes: Counter,
    /// L1 instruction-cache fetches.
    pub l1i_fetches: Counter,
    /// L1 instruction-cache misses.
    pub l1i_misses: Counter,
    /// DRAM line accesses.
    pub dram_accesses: Counter,
    /// Bytes moved over the crossbar.
    pub crossbar_bytes: Counter,
    /// Memory-level parallelism: the number of in-flight line fills,
    /// sampled whenever a new L1 miss is issued (the paper's MLP argument:
    /// DWS raises this by letting run-ahead splits issue misses early).
    pub mlp: Distribution,
}

/// Reusable per-call buffers for [`MemorySystem::warp_access_into`]. These
/// keep the per-instruction hot path free of heap allocation: each vector
/// is `take`n at entry, cleared, and put back at exit, so capacity persists
/// across calls.
#[derive(Default)]
struct WarpScratch {
    /// Distinct lines touched this access: `(line, any_store)`.
    groups: Vec<(u64, bool)>,
    /// For each access index, the index of its line group.
    lane_group: Vec<usize>,
    /// Per-group lane count, filled during grouping.
    group_count: Vec<u32>,
    /// Per-group tag lookup from the feasibility pass `(state, way)`, so
    /// the apply pass replays it without re-scanning the set.
    group_info: Vec<(MesiState, Option<usize>)>,
    /// Prefix sums of `group_count` (`groups.len() + 1` entries).
    group_start: Vec<u32>,
    /// Write cursors for the counting sort into `group_lanes`.
    group_cursor: Vec<u32>,
    /// Access indices counting-sorted by group: group `g`'s lanes are
    /// `group_lanes[group_start[g]..group_start[g + 1]]`, in input order.
    group_lanes: Vec<u32>,
    /// Distinct words in first-appearance order, with their bank delay.
    word_delay: Vec<(u64, u64)>,
    /// Distinct words seen so far per bank.
    bank_count: Vec<u64>,
    /// Per-access bank-queueing delay in cycles.
    lane_delay: Vec<u64>,
}

/// The full memory system shared by all WPUs.
pub struct MemorySystem {
    cfg: MemConfig,
    l1s: Vec<L1>,
    l2: L2,
    xbar: Crossbar,
    dram: Dram,
    events: EventQueue<(usize, MshrId)>,
    next_req: u64,
    stats: MemStats,
    scratch: WarpScratch,
    /// `log2(l1d.line_bytes)` when that is a power of two, so the per-lane
    /// address-to-line conversion is a shift instead of a 64-bit divide.
    l1d_shift: Option<u32>,
    /// Deterministic timing-fault injection; `None` outside chaos runs.
    fault: Option<FaultInjector>,
    /// Run the fill-mirror invariant check even in release builds
    /// (`DWS_SANITIZE=1`); latched at construction.
    strict_checks: bool,
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("n_l1s", &self.l1s.len())
            .field("pending_fills", &self.events.len())
            .finish()
    }
}

impl MemorySystem {
    /// Builds the hierarchy for `cfg`.
    pub fn new(cfg: MemConfig) -> Self {
        let l1s = (0..cfg.n_l1s)
            .map(|_| L1 {
                array: CacheArray::new(&cfg.l1d),
                mshrs: MshrFile::new(cfg.l1d.mshrs, cfg.l1d.mshr_targets),
                fills: WakeHeap::new(),
                releases: 0,
            })
            .collect();
        let l2 = L2 {
            array: CacheArray::new(&cfg.l2),
            dir: FastHashMap::default(),
            mshr_free_at: vec![Cycle::ZERO; cfg.l2.mshrs],
            inflight: FastHashMap::default(),
            cfg: cfg.l2,
        };
        MemorySystem {
            l1s,
            l2,
            xbar: Crossbar::new(cfg.crossbar_latency, cfg.crossbar_bytes_per_cycle),
            dram: Dram::new(cfg.dram_latency, cfg.dram_bytes_per_cycle),
            events: EventQueue::new(),
            next_req: 0,
            stats: MemStats::default(),
            scratch: WarpScratch::default(),
            l1d_shift: cfg
                .l1d
                .line_bytes
                .is_power_of_two()
                .then(|| cfg.l1d.line_bytes.trailing_zeros()),
            fault: None,
            strict_checks: cfg!(debug_assertions) || dws_engine::sanitize::enabled(),
            cfg,
        }
    }

    /// Arms deterministic fault injection. Call before any traffic flows;
    /// a zero-fault plan installs nothing and leaves timing untouched.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan.injector(MEM_FAULT_SALT);
    }

    /// The configuration the system was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    fn line_of(&self, addr: u64) -> u64 {
        match self.l1d_shift {
            Some(s) => addr >> s,
            None => addr / self.cfg.l1d.line_bytes,
        }
    }

    fn fresh_request(&mut self) -> RequestId {
        let id = RequestId(self.next_req);
        self.next_req += 1;
        id
    }

    /// Presents one warp memory instruction (the active lanes' addresses)
    /// to L1 `l1`. Returns per-lane outcomes in input order, or `None` if
    /// MSHR resources are exhausted — the WPU must retry the instruction
    /// later (no state is modified in that case).
    ///
    /// # Panics
    ///
    /// Panics if `l1` is out of range or `accesses` is empty.
    pub fn warp_access(
        &mut self,
        now: Cycle,
        l1: usize,
        accesses: &[LaneAccess],
    ) -> Option<Vec<LaneOutcome>> {
        let mut out = Vec::new();
        self.warp_access_into(now, l1, accesses, &mut out)
            .ok()
            .map(|()| out)
    }

    /// Allocation-free form of [`warp_access`](Self::warp_access): outcomes
    /// are written into the caller-owned `out` (cleared first, then one
    /// entry per access in input order).
    ///
    /// # Errors
    ///
    /// When MSHR resources are exhausted, returns the access's *deficit*,
    /// with `out` left empty and no state modified: 1 when a merge target
    /// list is full, otherwise the fresh MSHRs needed minus the free ones,
    /// at least 1. In a fault-free run the same access cannot be accepted
    /// before that many more MSHR releases at `l1`
    /// ([`l1_releases`](Self::l1_releases)): other accesses to this L1
    /// never lower the deficit (an allocation for a line this access also
    /// misses turns one fresh miss into a merge but uses up a free MSHR),
    /// invalidations and evictions only raise it (a hit turns into a
    /// miss), and each release lowers it by at most one.
    ///
    /// # Panics
    ///
    /// Panics if `l1` is out of range or `accesses` is empty.
    pub fn warp_access_into(
        &mut self,
        now: Cycle,
        l1: usize,
        accesses: &[LaneAccess],
        out: &mut Vec<LaneOutcome>,
    ) -> Result<(), u64> {
        assert!(!accesses.is_empty(), "warp access with no lanes");
        assert!(l1 < self.l1s.len(), "L1 index out of range");
        out.clear();

        // Borrow the scratch buffers out of `self` so the loops below can
        // still use `self` freely; put back (with capacity intact) at exit.
        let mut s = std::mem::take(&mut self.scratch);
        s.groups.clear();
        s.lane_group.clear();
        s.group_count.clear();
        s.group_info.clear();
        s.word_delay.clear();
        s.lane_delay.clear();

        // Group lanes by line, preserving first-appearance order. Warp
        // width is small (<= 64), so linear scans beat hashing here.
        for a in accesses {
            let line = self.line_of(a.addr);
            let is_store = a.kind == AccessKind::Store;
            match s.groups.iter_mut().position(|(l, _)| *l == line) {
                Some(g) => {
                    s.groups[g].1 |= is_store;
                    s.group_count[g] += 1;
                    s.lane_group.push(g);
                }
                None => {
                    s.groups.push((line, is_store));
                    s.group_count.push(1);
                    s.lane_group.push(s.groups.len() - 1);
                }
            }
        }

        // Counting sort of access indices by group, so the apply pass can
        // walk each group's lanes as a slice instead of filtering the whole
        // warp once per group.
        s.group_start.clear();
        s.group_start.push(0);
        let mut acc = 0u32;
        for &c in &s.group_count {
            acc += c;
            s.group_start.push(acc);
        }
        s.group_cursor.clear();
        s.group_cursor
            .extend_from_slice(&s.group_start[..s.groups.len()]);
        s.group_lanes.clear();
        s.group_lanes.resize(accesses.len(), 0);
        for (i, &g) in s.lane_group.iter().enumerate() {
            s.group_lanes[s.group_cursor[g] as usize] = i as u32;
            s.group_cursor[g] += 1;
        }

        // Fault injection: transiently withhold MSHR entries, forcing
        // spurious back-pressure rejections. Only while fills are already
        // outstanding (`in_use > 0`): an outstanding fill guarantees a
        // release, which expires the caller's rejection memo and forces a
        // fresh draw, so forward progress is preserved. Withheld entries
        // are left out of the reported deficit for the same reason.
        let withheld = match &mut self.fault {
            Some(f) if self.l1s[l1].mshrs.in_use() > 0 => f.mshr_withhold(),
            _ => 0,
        };

        let outcome = 'body: {
            // Feasibility check (no mutation): count fresh MSHRs needed and
            // verify merge capacity. The tag lookup records the hit way so
            // the apply pass can replay the probe without re-scanning.
            {
                let l1c = &self.l1s[l1];
                let mut fresh_needed = 0usize;
                for (g, (line, any_store)) in s.groups.iter().enumerate() {
                    let (state, way) = l1c.array.lookup(*line);
                    s.group_info.push((state, way));
                    let is_hit = state.valid() && (!any_store || state.writable());
                    if is_hit {
                        continue;
                    }
                    match l1c.mshrs.find(*line) {
                        Some(id) => {
                            if !l1c.mshrs.can_merge(id, s.group_count[g] as usize) {
                                self.stats.rejections.incr();
                                break 'body Err(1);
                            }
                        }
                        None => fresh_needed += 1,
                    }
                }
                let free = l1c.mshrs.capacity() - l1c.mshrs.in_use();
                if fresh_needed > free.saturating_sub(withheld) {
                    self.stats.rejections.incr();
                    break 'body Err(fresh_needed.saturating_sub(free).max(1) as u64);
                }
            }

            // Bank queueing: unique words per bank serialize. The delay of
            // a word is its rank among distinct same-bank words; repeated
            // words reuse the delay memoized at first appearance.
            let banks = self.cfg.l1d.banks as u64;
            let penalty = self.cfg.bank_conflict_penalty;
            s.bank_count.clear();
            s.bank_count.resize(self.cfg.l1d.banks, 0);
            for a in accesses {
                let word = a.addr / 8;
                let delay = match s.word_delay.iter().find(|&&(w, _)| w == word) {
                    Some(&(_, d)) => d,
                    None => {
                        let bank = (word % banks) as usize;
                        let d = s.bank_count[bank] * penalty;
                        s.bank_count[bank] += 1;
                        s.word_delay.push((word, d));
                        d
                    }
                };
                s.lane_delay.push(delay);
                self.stats.bank_conflict_cycles.add(delay);
            }

            self.stats.l1d_lane_accesses.add(accesses.len() as u64);
            // Placeholder entries; every slot is overwritten below because
            // each access belongs to exactly one line group.
            out.extend(accesses.iter().map(|a| LaneOutcome {
                lane: a.lane,
                outcome: AccessOutcome::Hit {
                    ready_at: Cycle::ZERO,
                },
            }));

            for (g, &(line, any_store)) in s.groups.iter().enumerate() {
                self.stats.l1d_line_accesses.incr();
                let (probed, way) = s.group_info[g];
                let state = self.l1s[l1].array.touch(line, way);
                // Hit or miss is decided by the tag probe at access time,
                // which the feasibility check above counted MSHRs against.
                // An earlier group's L2 fill may since have back-invalidated
                // this line (`state` is then Invalid); the probe already
                // read it, so it stays a hit rather than claiming an MSHR
                // that was never reserved.
                let is_hit = probed.valid() && (!any_store || probed.writable());
                let lanes =
                    &s.group_lanes[s.group_start[g] as usize..s.group_start[g + 1] as usize];
                if is_hit {
                    self.stats.l1d_hits.incr();
                    // Store to E silently upgrades to M.
                    if any_store && state == MesiState::Exclusive {
                        self.l1s[l1].array.set_state(line, MesiState::Modified);
                    }
                    for &i in lanes {
                        let i = i as usize;
                        let ready = now + self.cfg.l1d.hit_latency + s.lane_delay[i];
                        out[i] = LaneOutcome {
                            lane: accesses[i].lane,
                            outcome: AccessOutcome::Hit {
                                ready_at: Cycle(ready.raw()),
                            },
                        };
                    }
                    continue;
                }

                // Miss path.
                let mshr_id = match self.l1s[l1].mshrs.find(line) {
                    Some(id) => {
                        self.stats.l1d_mshr_merges.incr();
                        if any_store && !self.l1s[l1].mshrs.get(id).exclusive {
                            // Late upgrade: claim exclusivity now; invalidate
                            // other sharers through the directory (no extra
                            // latency charged — the window is a few cycles).
                            self.l1s[l1].mshrs.set_exclusive(id);
                            self.invalidate_other_sharers(line, l1);
                        }
                        id
                    }
                    None => {
                        self.stats.l1d_misses.incr();
                        let upgrade = state == MesiState::Shared && any_store;
                        if upgrade {
                            self.stats.upgrades.incr();
                        }
                        let mut fill_at =
                            self.process_l2_request(now, l1, line, any_store, upgrade);
                        if let Some(f) = &mut self.fault {
                            fill_at += f.fill_jitter();
                        }
                        let id = self.l1s[l1].mshrs.allocate(line, any_store, fill_at);
                        if upgrade {
                            self.l1s[l1].mshrs.set_upgrade(id);
                        }
                        self.events.push(fill_at, (l1, id));
                        self.l1s[l1].fills.push(fill_at, ());
                        self.stats.mlp.record(self.events.len() as f64);
                        id
                    }
                };
                for &i in lanes {
                    let i = i as usize;
                    let req = self.fresh_request();
                    self.l1s[l1].mshrs.add_target(mshr_id, req);
                    out[i] = LaneOutcome {
                        lane: accesses[i].lane,
                        outcome: AccessOutcome::Miss { request: req },
                    };
                }
            }
            Ok(())
        };

        self.scratch = s;
        if outcome.is_err() {
            out.clear();
        }
        outcome
    }

    /// Handles an L1 miss at the L2/directory, returning the cycle at which
    /// the fill arrives back at the L1.
    fn process_l2_request(
        &mut self,
        now: Cycle,
        l1: usize,
        line: u64,
        exclusive: bool,
        upgrade: bool,
    ) -> Cycle {
        let line_bytes = self.cfg.l1d.line_bytes;
        // Request departs after the L1 tag lookup discovered the miss.
        let mut depart = now + self.cfg.l1d.hit_latency;
        // Fault injection: hold the request off the crossbar, shifting the
        // epoch bucket that carries it relative to nominal traffic order.
        if let Some(f) = &mut self.fault {
            depart += f.link_delay();
        }
        let arrive = self.xbar.transfer(depart, CTRL_MSG_BYTES);
        self.stats.crossbar_bytes.add(CTRL_MSG_BYTES);
        self.stats.l2_accesses.incr();

        let tag_done = arrive + self.l2.cfg.hit_latency;
        let l2_state = self.l2.array.probe(line);
        let mut data_ready = tag_done;

        if l2_state.valid() {
            self.stats.l2_hits.incr();
            // Respect an in-flight DRAM fill for this line.
            if let Some(&fill) = self.l2.inflight.get(&line) {
                if fill > data_ready {
                    data_ready = fill;
                }
            }
            // Directory actions.
            let entry = self.l2.dir.entry(line).or_default();
            let owner = entry.owner;
            if let Some(o) = owner {
                if o != l1 {
                    // Dirty/exclusive data may live at the owner: flush it
                    // through the L2 (probe + line transfer).
                    self.stats.owner_flushes.incr();
                    let flushed = self.xbar.transfer(data_ready, line_bytes);
                    self.stats.crossbar_bytes.add(line_bytes);
                    data_ready = flushed;
                    let prev = self.l1s[o].array.peek(line);
                    if prev == MesiState::Modified {
                        self.l2.array.set_state(line, MesiState::Modified);
                        self.stats.l1_writebacks.incr();
                    }
                    if exclusive {
                        self.l1s[o].array.invalidate(line);
                        self.stats.invalidations.incr();
                    } else if prev.valid() {
                        self.l1s[o].array.set_state(line, MesiState::Shared);
                    }
                }
            }
            // Re-borrow after the L1 mutation above.
            let entry = self.l2.dir.entry(line).or_default();
            if let Some(o) = owner {
                if o != l1 {
                    if exclusive {
                        entry.sharers &= !(1 << o);
                    }
                    entry.owner = None;
                }
            }
            if exclusive {
                let sharers = entry.sharers & !(1 << l1);
                entry.sharers = 1 << l1;
                entry.owner = Some(l1);
                if sharers != 0 {
                    // Invalidate remaining sharers (control messages).
                    for o in 0..self.l1s.len() {
                        if sharers & (1 << o) != 0 {
                            self.l1s[o].array.invalidate(line);
                            self.stats.invalidations.incr();
                        }
                    }
                    let inv_done = self.xbar.transfer(tag_done, CTRL_MSG_BYTES);
                    self.stats.crossbar_bytes.add(CTRL_MSG_BYTES);
                    data_ready = data_ready.max(inv_done);
                }
            } else {
                let e = self.l2.dir.entry(line).or_default();
                e.sharers |= 1 << l1;
                if e.owner == Some(l1) {
                    e.owner = None;
                }
            }
        } else {
            // L2 miss: fetch from DRAM through an analytic L2 MSHR.
            self.stats.l2_misses.incr();
            let slot = self
                .l2
                .mshr_free_at
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .expect("L2 has MSHRs");
            let start = tag_done.max(self.l2.mshr_free_at[slot]);
            let fill = self.dram.access(start, line_bytes);
            self.stats.dram_accesses.incr();
            self.l2.mshr_free_at[slot] = fill;
            // Install in the L2 immediately (timing carried by `inflight`).
            if let Some(victim) = self.l2.array.fill(line, MesiState::Shared) {
                self.evict_l2_line(start, victim.line_addr, victim.state);
            }
            self.l2.inflight.insert(line, fill);
            let e = self.l2.dir.entry(line).or_default();
            e.sharers = 1 << l1;
            e.owner = Some(l1); // sole copy: E (or M on a store)
            data_ready = fill;
        }
        // Prune stale in-flight records.
        if self.l2.inflight.len() > 4096 {
            self.l2.inflight.retain(|_, &mut c| c > now);
        }

        // Fault injection: the response leg draws its own link delay.
        if let Some(f) = &mut self.fault {
            data_ready += f.link_delay();
        }
        // For upgrades only an acknowledgement returns; otherwise the line.
        let payload = if upgrade { CTRL_MSG_BYTES } else { line_bytes };
        self.stats.crossbar_bytes.add(payload);
        self.xbar.transfer(data_ready, payload)
    }

    /// Invalidates every L1 copy of `line` other than `keeper` and claims
    /// exclusive ownership for it (used when a store merges into an
    /// already-outstanding shared request).
    fn invalidate_other_sharers(&mut self, line: u64, keeper: usize) {
        if let Some(e) = self.l2.dir.get_mut(&line) {
            let others = e.sharers & !(1 << keeper);
            e.sharers = 1 << keeper;
            e.owner = Some(keeper);
            if others != 0 {
                for o in 0..self.l1s.len() {
                    if others & (1 << o) != 0 {
                        let prev = self.l1s[o].array.invalidate(line);
                        self.stats.invalidations.incr();
                        if prev == MesiState::Modified {
                            self.stats.l1_writebacks.incr();
                            if self.l2.array.peek(line).valid() {
                                self.l2.array.set_state(line, MesiState::Modified);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Inclusive-L2 eviction: back-invalidate every L1 copy; write dirty
    /// data to DRAM.
    fn evict_l2_line(&mut self, now: Cycle, line: u64, l2_state: MesiState) {
        let entry = self.l2.dir.remove(&line).unwrap_or_default();
        let mut dirty = l2_state == MesiState::Modified;
        for o in 0..self.l1s.len() {
            if entry.sharers & (1 << o) != 0 {
                let prev = self.l1s[o].array.invalidate(line);
                self.stats.invalidations.incr();
                if prev == MesiState::Modified {
                    dirty = true;
                    self.stats.l1_writebacks.incr();
                }
            }
        }
        self.l2.inflight.remove(&line);
        if dirty {
            self.stats.l2_writebacks.incr();
            // Occupy the DRAM bus; nobody waits on the writeback itself.
            let _ = self.dram.access(now, self.cfg.l2.line_bytes);
        }
    }

    /// Drains all fills that completed at or before `now`, applying them to
    /// the L1 arrays and returning the coalesced request completions.
    pub fn drain_completions(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(now, &mut out);
        out
    }

    /// Allocation-free form of [`drain_completions`](Self::drain_completions):
    /// completions are appended to the caller-owned `out` (cleared first), so
    /// the run loop can reuse one buffer across cycles.
    pub fn drain_completions_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        out.clear();
        while let Some((at, (l1, mshr_id))) = self.events.pop_ready(now) {
            // Keep the per-L1 mirror in lockstep with the global list. The
            // global (time, insertion) pop order restricted to one L1 is
            // that L1's own (time, insertion) order, so the mirror's
            // minimum is always the entry being drained.
            let mirrored = self.l1s[l1].fills.pop();
            if self.strict_checks {
                assert_eq!(mirrored.map(|(t, ())| t), Some(at), "fill mirror drift");
            }
            let mut entry = self.l1s[l1].mshrs.release(mshr_id);
            self.l1s[l1].releases += 1;
            let line = entry.line_addr;
            // Decide the install state from the directory at fill time.
            let state = if entry.exclusive {
                MesiState::Modified
            } else {
                let sharers = self.l2.dir.get(&line).map(|e| e.sharers).unwrap_or(0);
                if sharers & !(1 << l1) == 0 {
                    MesiState::Exclusive
                } else {
                    MesiState::Shared
                }
            };
            if entry.exclusive {
                if let Some(e) = self.l2.dir.get_mut(&line) {
                    e.owner = Some(l1);
                    e.sharers |= 1 << l1;
                }
            }
            let present = self.l1s[l1].array.peek(line).valid();
            if present {
                // Upgrade (or a racing refill): state change in place.
                self.l1s[l1].array.set_state(line, state);
            } else if let Some(victim) = self.l1s[l1].array.fill(line, state) {
                self.handle_l1_eviction(at, l1, victim.line_addr, victim.state);
            }
            for req in entry.targets.drain(..) {
                out.push(Completion {
                    l1,
                    request: req,
                    at,
                });
            }
            self.l1s[l1].mshrs.recycle_targets(entry.targets);
        }
    }

    fn handle_l1_eviction(&mut self, now: Cycle, l1: usize, line: u64, state: MesiState) {
        if state == MesiState::Modified {
            self.stats.l1_writebacks.incr();
            self.stats.crossbar_bytes.add(self.cfg.l1d.line_bytes);
            let _ = self.xbar.transfer(now, self.cfg.l1d.line_bytes);
            if self.l2.array.peek(line).valid() {
                self.l2.array.set_state(line, MesiState::Modified);
            }
        }
        if let Some(e) = self.l2.dir.get_mut(&line) {
            e.sharers &= !(1 << l1);
            if e.owner == Some(l1) {
                e.owner = None;
            }
        }
    }

    /// Earliest pending fill, if any (lets the run loop skip idle cycles).
    pub fn next_completion_at(&self) -> Option<Cycle> {
        self.events.next_ready_at()
    }

    /// Earliest pending fill destined for L1 `l1`, if any — the per-WPU
    /// wakeup signal for the event-driven run loop.
    pub fn next_completion_at_l1(&self, l1: usize) -> Option<Cycle> {
        self.l1s[l1].fills.next_at()
    }

    /// MSHR entries released at L1 `l1` so far. Together with the deficit
    /// a rejected [`warp_access_into`](Self::warp_access_into) reports,
    /// this tells a structurally-stalled group the earliest release count
    /// at which a re-probe could be accepted, so it can replay its
    /// rejection instead of re-probing every cycle.
    pub fn l1_releases(&self, l1: usize) -> u64 {
        self.l1s[l1].releases
    }

    /// Records a rejection replayed from a caller's memo without re-running
    /// [`warp_access_into`](Self::warp_access_into), keeping the rejection
    /// counter identical to the un-memoized execution.
    pub fn count_repeat_rejection(&mut self) {
        self.stats.rejections.incr();
    }

    /// Number of in-flight fills.
    pub fn pending_fills(&self) -> usize {
        self.events.len()
    }

    /// Outstanding MSHR entries at L1 `l1` (diagnostics).
    pub fn mshr_in_use(&self, l1: usize) -> usize {
        self.l1s[l1].mshrs.in_use()
    }

    /// MSHR entry capacity of L1 `l1` (diagnostics).
    pub fn mshr_capacity(&self, l1: usize) -> usize {
        self.l1s[l1].mshrs.capacity()
    }

    /// Latency model for an L1-I cold-miss fill. The I-cache arrays
    /// themselves live inside the WPUs; only the shared timing — the
    /// request crossing the crossbar, the L2 lookup (instructions always
    /// hit there in these tiny kernels), and the line crossing back — runs
    /// against the memory system. Returns the cycle the instruction is
    /// available.
    pub fn icache_fill_latency(&mut self, now: Cycle) -> Cycle {
        let arrive = self
            .xbar
            .transfer(now + self.cfg.l1i.hit_latency, CTRL_MSG_BYTES);
        let back = self
            .xbar
            .transfer(arrive + self.l2.cfg.hit_latency, self.cfg.l1i.line_bytes);
        self.stats
            .crossbar_bytes
            .add(CTRL_MSG_BYTES + self.cfg.l1i.line_bytes);
        back
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Cycles transfers spent queued on the crossbar (contention measure).
    pub fn crossbar_queue_cycles(&self) -> u64 {
        self.xbar.queue_cycles.get()
    }

    /// Cycles requests spent queued on the DRAM bus.
    pub fn dram_queue_cycles(&self) -> u64 {
        self.dram.queue_cycles()
    }

    /// Hit/miss statistics of one L1 D-cache array.
    pub fn l1_array_stats(&self, l1: usize) -> crate::cache::CacheStats {
        self.l1s[l1].array.stats
    }

    /// Peek an L1 line state (test helper).
    pub fn l1_line_state(&self, l1: usize, addr: u64) -> MesiState {
        let line = self.line_of(addr);
        self.l1s[l1].array.peek(line)
    }

    /// Peek the L2 state for a byte address (test helper).
    pub fn l2_line_state(&self, addr: u64) -> MesiState {
        self.l2.array.peek(self.line_of(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::paper(4, 16))
    }

    fn load(lane: usize, addr: u64) -> LaneAccess {
        LaneAccess {
            lane,
            addr,
            kind: AccessKind::Load,
        }
    }

    fn store(lane: usize, addr: u64) -> LaneAccess {
        LaneAccess {
            lane,
            addr,
            kind: AccessKind::Store,
        }
    }

    fn complete_all(m: &mut MemorySystem) -> Vec<Completion> {
        let at = m.next_completion_at().expect("pending fill");
        m.drain_completions(at)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = sys();
        let out = m.warp_access(Cycle(0), 0, &[load(0, 0x100)]).unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Miss { .. }));
        let done = complete_all(&mut m);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].l1, 0);
        // Cold L2 miss: crossbar + L2 + DRAM round trip, well over 100 cyc.
        assert!(done[0].at.raw() > 100, "fill at {:?}", done[0].at);

        let out = m.warp_access(done[0].at, 0, &[load(0, 0x100)]).unwrap();
        match out[0].outcome {
            AccessOutcome::Hit { ready_at } => {
                assert_eq!(ready_at, done[0].at + 3, "3-cycle L1 hit");
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn same_line_lanes_coalesce() {
        let mut m = sys();
        // Four lanes touch the same 128B line: one L1 miss, one DRAM access.
        let accesses: Vec<_> = (0..4).map(|l| load(l, 0x200 + 8 * l as u64)).collect();
        let out = m.warp_access(Cycle(0), 0, &accesses).unwrap();
        assert_eq!(out.len(), 4);
        assert!(out
            .iter()
            .all(|o| matches!(o.outcome, AccessOutcome::Miss { .. })));
        assert_eq!(m.stats().l1d_misses.get(), 1);
        assert_eq!(m.stats().dram_accesses.get(), 1);
        let done = complete_all(&mut m);
        assert_eq!(done.len(), 4, "all lanes complete with the fill");
        // All complete at the same cycle.
        assert!(done.windows(2).all(|w| w[0].at == w[1].at));
    }

    #[test]
    fn divergent_lines_make_multiple_misses() {
        let mut m = sys();
        // Two lanes touch different lines: two MSHRs, two DRAM accesses.
        let out = m
            .warp_access(Cycle(0), 0, &[load(0, 0x0), load(1, 0x1000)])
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(m.stats().l1d_misses.get(), 2);
        assert_eq!(m.stats().dram_accesses.get(), 2);
    }

    #[test]
    fn mixed_hit_miss_is_memory_divergence() {
        let mut m = sys();
        m.warp_access(Cycle(0), 0, &[load(0, 0x0)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        // Lane 0 hits the cached line; lane 1 misses a new line.
        let out = m
            .warp_access(t, 0, &[load(0, 0x8), load(1, 0x2000)])
            .unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Hit { .. }));
        assert!(matches!(out[1].outcome, AccessOutcome::Miss { .. }));
    }

    #[test]
    fn secondary_miss_merges_into_mshr() {
        let mut m = sys();
        let a = m.warp_access(Cycle(0), 0, &[load(0, 0x300)]).unwrap();
        let b = m.warp_access(Cycle(1), 0, &[load(1, 0x308)]).unwrap();
        assert!(matches!(a[0].outcome, AccessOutcome::Miss { .. }));
        assert!(matches!(b[0].outcome, AccessOutcome::Miss { .. }));
        assert_eq!(m.stats().l1d_misses.get(), 1, "one primary miss");
        assert_eq!(m.stats().l1d_mshr_merges.get(), 1);
        assert_eq!(m.stats().dram_accesses.get(), 1);
        let done = complete_all(&mut m);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn store_needs_ownership() {
        let mut m = sys();
        // L1#0 loads a line (becomes Exclusive — sole copy).
        m.warp_access(Cycle(0), 0, &[load(0, 0x400)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(0, 0x400), MesiState::Exclusive);
        // Store hits and silently upgrades E -> M.
        let out = m.warp_access(t, 0, &[store(0, 0x400)]).unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Hit { .. }));
        assert_eq!(m.l1_line_state(0, 0x400), MesiState::Modified);
    }

    #[test]
    fn read_sharing_then_upgrade_invalidates() {
        let mut m = sys();
        // Both L1s read the same line.
        m.warp_access(Cycle(0), 0, &[load(0, 0x500)]).unwrap();
        let t0 = complete_all(&mut m)[0].at;
        m.warp_access(t0, 1, &[load(0, 0x500)]).unwrap();
        let t1 = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(1, 0x500), MesiState::Shared);
        // L1#0 may be E or S depending on the second read's downgrade.
        // Now L1#0 stores: its Shared copy upgrades; L1#1 invalidated.
        let out = m.warp_access(t1, 0, &[store(0, 0x500)]).unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Miss { .. }));
        assert_eq!(m.stats().upgrades.get(), 1);
        let t2 = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(0, 0x500), MesiState::Modified);
        assert_eq!(m.l1_line_state(1, 0x500), MesiState::Invalid);
        assert!(m.stats().invalidations.get() >= 1);
        let _ = t2;
    }

    #[test]
    fn dirty_remote_copy_is_flushed_on_read() {
        let mut m = sys();
        // L1#0 writes a line (M).
        m.warp_access(Cycle(0), 0, &[store(0, 0x600)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        assert_eq!(m.l1_line_state(0, 0x600), MesiState::Modified);
        // L1#1 reads: owner flush, both end Shared.
        m.warp_access(t, 1, &[load(0, 0x600)]).unwrap();
        let _ = complete_all(&mut m);
        assert_eq!(m.l1_line_state(0, 0x600), MesiState::Shared);
        assert_eq!(m.l1_line_state(1, 0x600), MesiState::Shared);
        assert_eq!(m.stats().owner_flushes.get(), 1);
        assert_eq!(m.stats().l1_writebacks.get(), 1);
        assert_eq!(m.l2_line_state(0x600), MesiState::Modified);
    }

    #[test]
    fn l2_hit_is_faster_than_dram() {
        let mut m = sys();
        // Warm the L2 via L1#0, then evict nothing and read from L1#1.
        m.warp_access(Cycle(0), 0, &[load(0, 0x700)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        let before = m.stats().dram_accesses.get();
        m.warp_access(t, 1, &[load(0, 0x700)]).unwrap();
        let done = complete_all(&mut m)[0].at;
        assert_eq!(m.stats().dram_accesses.get(), before, "served by L2");
        // The flush path makes this slower than a pure L2 hit would be, but
        // far faster than a DRAM trip.
        assert!(done - t < 100, "L2 hit took {} cycles", done - t);
    }

    #[test]
    fn bank_conflicts_add_queue_delay() {
        let mut m = sys();
        // Warm a line.
        m.warp_access(Cycle(0), 0, &[load(0, 0x0)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        // 16 banks, word-interleaved: words 0 and 16 share bank 0.
        let out = m
            .warp_access(t, 0, &[load(0, 0x0), load(1, 16 * 8)])
            .unwrap();
        // Second access queues behind the first in bank 0 (if both hit).
        let AccessOutcome::Hit { ready_at: r0 } = out[0].outcome else {
            panic!("lane 0 should hit")
        };
        match out[1].outcome {
            AccessOutcome::Hit { ready_at } => {
                assert_eq!(ready_at, r0 + 1, "one cycle of bank queueing");
            }
            // Word 16*8 = 0x80 is a different line; it may miss. Ensure the
            // conflict stat still advanced.
            AccessOutcome::Miss { .. } => {}
        }
        assert!(m.stats().bank_conflict_cycles.get() >= 1);
    }

    #[test]
    fn mshr_exhaustion_rejects_without_side_effects() {
        let mut cfg = MemConfig::paper(1, 16);
        cfg.l1d.mshrs = 2;
        let mut m = MemorySystem::new(cfg);
        // Two outstanding misses fill the MSHRs.
        m.warp_access(Cycle(0), 0, &[load(0, 0x0)]).unwrap();
        m.warp_access(Cycle(0), 0, &[load(0, 0x1000)]).unwrap();
        let misses_before = m.stats().l1d_misses.get();
        // A third distinct line cannot get an MSHR.
        let out = m.warp_access(Cycle(1), 0, &[load(0, 0x2000)]);
        assert!(out.is_none());
        assert_eq!(m.stats().rejections.get(), 1);
        assert_eq!(m.stats().l1d_misses.get(), misses_before, "no side effects");
        // After fills drain, the access succeeds.
        let t = {
            let mut last = Cycle(0);
            while m.pending_fills() > 0 {
                let at = m.next_completion_at().unwrap();
                m.drain_completions(at);
                last = at;
            }
            last
        };
        assert!(m.warp_access(t, 0, &[load(0, 0x2000)]).is_some());
    }

    #[test]
    fn rejection_reports_release_deficit() {
        let mut cfg = MemConfig::paper(1, 16);
        cfg.l1d.mshrs = 2;
        cfg.l1d.mshr_targets = 1;
        let mut m = MemorySystem::new(cfg);
        let mut out = Vec::new();
        m.warp_access(Cycle(0), 0, &[load(0, 0x0)]).unwrap();
        m.warp_access(Cycle(0), 0, &[load(0, 0x1000)]).unwrap();
        // Two fresh lines against zero free MSHRs: two releases short.
        let two_fresh = [load(0, 0x2000), load(1, 0x3000)];
        assert_eq!(
            m.warp_access_into(Cycle(1), 0, &two_fresh, &mut out),
            Err(2)
        );
        assert!(out.is_empty());
        // A full merge target list needs that entry's own release.
        let merge = [load(0, 0x8)];
        assert_eq!(m.warp_access_into(Cycle(1), 0, &merge, &mut out), Err(1));
        assert_eq!(m.stats().rejections.get(), 2);

        assert_eq!(m.l1_releases(0), 0);
        let first = m.next_completion_at().unwrap();
        m.drain_completions(first);
        assert_eq!(m.l1_releases(0), 1);
        let at = first + 1;
        assert_eq!(m.warp_access_into(at, 0, &two_fresh, &mut out), Err(1));
        let second = m.next_completion_at().unwrap();
        m.drain_completions(second);
        assert_eq!(m.l1_releases(0), 2);
        assert_eq!(m.warp_access_into(second, 0, &two_fresh, &mut out), Ok(()));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn back_invalidated_hit_claims_no_unreserved_mshr() {
        // A one-line inclusive L2 and a one-entry MSHR file: the fresh miss
        // on 0x1000 evicts 0x0 from the L2, which back-invalidates it in
        // the requesting L1 mid-access. The feasibility check counted 0x0
        // as a hit, so it must stay one instead of allocating a second MSHR.
        let mut cfg = MemConfig::paper(1, 16);
        cfg.l2.size_bytes = cfg.l2.line_bytes;
        cfg.l2.assoc = 1;
        cfg.l1d.mshrs = 1;
        let mut m = MemorySystem::new(cfg);
        m.warp_access(Cycle(0), 0, &[load(0, 0x0)]).unwrap();
        let t = complete_all(&mut m)[0].at;
        let out = m
            .warp_access(t, 0, &[load(0, 0x1000), load(1, 0x8)])
            .unwrap();
        assert!(matches!(out[0].outcome, AccessOutcome::Miss { .. }));
        assert!(matches!(out[1].outcome, AccessOutcome::Hit { .. }));
        assert_eq!(m.mshr_in_use(0), 1);
        assert_eq!(m.l1_line_state(0, 0x0), MesiState::Invalid);
    }

    #[test]
    fn icache_fill_crosses_to_l2_and_back() {
        let mut m = sys();
        let r0 = m.icache_fill_latency(Cycle(0));
        assert!(r0.raw() > 1, "cold miss goes to L2");
        // Crossbar + L2 lookup + crossbar, from the I-hit issue point.
        let cfg = *m.config();
        assert!(r0.raw() >= cfg.l1i.hit_latency + 2 * cfg.crossbar_latency + cfg.l2.hit_latency);
        assert_eq!(
            m.stats().crossbar_bytes.get(),
            CTRL_MSG_BYTES + cfg.l1i.line_bytes,
            "request and line each cross once"
        );
        // Replays are deterministic and never earlier than the request.
        let r1 = m.icache_fill_latency(r0);
        assert!(r1 > r0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut m = sys();
            let mut trace = Vec::new();
            for i in 0..50u64 {
                let addr = (i * 1040) % 65536;
                if let Some(out) = m.warp_access(Cycle(i * 7), (i % 4) as usize, &[load(0, addr)]) {
                    for o in out {
                        trace.push(format!("{o:?}"));
                    }
                }
                for c in m.drain_completions(Cycle(i * 7)) {
                    trace.push(format!("{c:?}"));
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
