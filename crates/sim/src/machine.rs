//! The assembled machine and its deterministic run loop.

use crate::config::{SimConfig, SimError};
use crate::diag::{DiagnosticReport, WpuDiag};
use crate::metrics::RunResult;
use dws_core::{TickClass, Wpu, WpuConfig};
use dws_engine::Cycle;
use dws_kernels::KernelSpec;
use dws_mem::MemorySystem;
use std::sync::Arc;

/// A machine instance mid-run. Most callers use [`Machine::run`]; the
/// step-level API ([`Machine::new`] + [`Machine::step`]) exists for tests
/// and interactive tooling.
pub struct Machine {
    pub(crate) wpus: Vec<Wpu>,
    mem: MemorySystem,
    data: dws_isa::VecMemory,
    now: Cycle,
    last_class: Vec<TickClass>,
    /// Reusable completion buffer: [`step`](Self::step) drains into this
    /// instead of allocating a `Vec` every cycle.
    completions: Vec<dws_mem::Completion>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("wpus", &self.wpus.len())
            .finish()
    }
}

impl Machine {
    /// Builds a machine for `config` loaded with `spec`'s program and data.
    pub fn new(config: &SimConfig, spec: &KernelSpec) -> Machine {
        let program = Arc::clone(&spec.program);
        let threads_per_wpu = (config.width * config.n_warps) as u64;
        let nthreads = config.total_threads();
        let wpus: Vec<Wpu> = (0..config.n_wpus)
            .map(|i| {
                let mut w = Wpu::new(
                    WpuConfig {
                        id: i,
                        width: config.width,
                        n_warps: config.n_warps,
                        policy: config.policy,
                        sched_slots: config.sched_slots,
                        wst_entries: config.wst_entries,
                        l1i: config.mem.l1i,
                    },
                    Arc::clone(&program),
                    i as u64 * threads_per_wpu,
                    nthreads,
                );
                if !config.fault.is_nop() {
                    w.set_fault_plan(config.fault);
                }
                w
            })
            .collect();
        let mut mem = MemorySystem::new(config.mem);
        if !config.fault.is_nop() {
            mem.set_fault_plan(config.fault);
        }
        Machine {
            last_class: vec![TickClass::Idle; config.n_wpus],
            wpus,
            mem,
            data: spec.memory.clone(),
            now: Cycle::ZERO,
            completions: Vec::new(),
        }
    }

    /// Whether every thread has terminated.
    pub fn done(&self) -> bool {
        self.wpus.iter().all(Wpu::done)
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Read access to the WPUs (metrics, tests).
    pub fn wpus(&self) -> &[Wpu] {
        &self.wpus
    }

    /// Read access to the memory system.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Advances the machine one cycle. Returns true if any WPU issued.
    pub fn step(&mut self) -> bool {
        let now = self.now;
        self.mem.drain_completions_into(now, &mut self.completions);
        for c in &self.completions {
            self.wpus[c.l1].on_completion(c.request, c.at);
        }
        let mut any_busy = false;
        for (i, w) in self.wpus.iter_mut().enumerate() {
            let t = w.tick(now, &mut self.mem, &mut self.data);
            self.last_class[i] = t;
            if t == TickClass::Busy {
                any_busy = true;
            }
        }
        // Global barrier: release once every live thread has arrived.
        let live: u64 = self.wpus.iter().map(Wpu::live_threads).sum();
        let waiting: u64 = self.wpus.iter().map(Wpu::barrier_waiting).sum();
        if live > 0 && waiting == live {
            for w in &mut self.wpus {
                w.release_barrier(now);
            }
            any_busy = true; // barrier release is progress
        }
        self.now += 1;
        any_busy
    }

    /// Runs `config` + `spec` to completion and collects metrics.
    ///
    /// Event-driven: each WPU carries its own wakeup time (the wake time it
    /// cached during its last stalled tick, or the next fill completion
    /// destined for its L1), and the loop only processes cycles at which
    /// some WPU is due. A WPU whose only due groups are blocked on full
    /// MSHRs sleeps until the next fill at its L1, since no MSHR can free
    /// before then. Cycles a WPU sleeps through are charged lazily via
    /// [`Wpu::account_skipped_stall`]: the class of its last tick, plus the
    /// rejections and L1-I fetches of the MSHR retries those ticks would
    /// have replayed — valid because a stalled WPU's state is frozen
    /// between external events, so the ticks it skips would all have
    /// repeated its last tick. The result is bit-identical to stepping
    /// [`Machine::step`] cycle by cycle.
    ///
    /// Adaptive policies (slip, the adaptive throttle) sample cycle
    /// counters on an absolute-cycle cadence; each WPU publishes its next
    /// adaptation boundary ([`Wpu::next_adapt_boundary`]) and the loop
    /// guarantees a tick at (or before) that cycle, so event-driven
    /// sleeping never skips a boundary.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] when the cycle budget elapses,
    /// [`SimError::Deadlock`] when no progress is possible,
    /// [`SimError::Livelock`] when cycles keep advancing without an
    /// instruction retiring for [`SimConfig::livelock_window`] processed
    /// cycles, and [`SimError::HostBudget`] when the optional wall-clock
    /// budget runs out.
    pub fn run(config: &SimConfig, spec: &KernelSpec) -> Result<RunResult, SimError> {
        let mut m = Machine::new(config, spec);
        let n = m.wpus.len();
        // The next cycle each WPU must tick; `None` once it is done (or,
        // transiently, when only a fill completion can wake it).
        let mut wake: Vec<Option<Cycle>> = vec![Some(Cycle::ZERO); n];
        // Each WPU's next adaptation boundary (`None` for non-adaptive
        // policies): an extra tick-due condition and a bound on how far the
        // event scan may sleep, refreshed after every tick.
        let mut adapt_at: Vec<Option<Cycle>> =
            m.wpus.iter().map(Wpu::next_adapt_boundary).collect();
        // The cycle up to which each WPU's stall time has been accounted.
        let mut charged: Vec<Cycle> = vec![Cycle::ZERO; n];
        // Forward-progress watchdog: consecutive *processed* cycles with no
        // retired instruction. Sleeping across an event gap is one
        // iteration, so a legitimately long memory stall cannot trip it —
        // only a dense retire-free spin (livelock) can.
        let livelock_window = config.effective_livelock_window();
        let mut last_insts = 0u64;
        let mut quiet_iters = 0u64;
        let host_deadline = config
            .effective_host_budget()
            .map(|b| (std::time::Instant::now() + b, b));
        let mut iters = 0u64;
        loop {
            let now = m.now;
            m.mem.drain_completions_into(now, &mut m.completions);
            for c in &m.completions {
                m.wpus[c.l1].on_completion(c.request, c.at);
                // Whatever the completion changed, the owner re-evaluates
                // this cycle (a tick that finds nothing issuable just
                // refreshes its wake time).
                wake[c.l1] = Some(wake[c.l1].map_or(now, |w| w.min(now)));
            }
            let mut any_busy = false;
            for i in 0..n {
                let due =
                    wake[i].is_some_and(|w| w <= now) || adapt_at[i].is_some_and(|a| a <= now);
                if !due {
                    continue;
                }
                let lag = now - charged[i];
                if lag > 0 {
                    m.wpus[i].account_skipped_stall(lag, m.last_class[i]);
                }
                let t = m.wpus[i].tick(now, &mut m.mem, &mut m.data);
                m.last_class[i] = t;
                charged[i] = now + 1;
                wake[i] = match t {
                    TickClass::Busy => {
                        any_busy = true;
                        Some(now + 1)
                    }
                    TickClass::Done => None,
                    TickClass::StallMem | TickClass::Idle => m.wpus[i].cached_next_wake(),
                };
                adapt_at[i] = m.wpus[i].next_adapt_boundary();
            }
            // Global barrier: release once every live thread has arrived.
            // Arrival counts only change when a WPU ticks, so checking on
            // processed cycles is exhaustive.
            let live: u64 = m.wpus.iter().map(Wpu::live_threads).sum();
            let waiting: u64 = m.wpus.iter().map(Wpu::barrier_waiting).sum();
            if live > 0 && waiting == live {
                for (i, w) in m.wpus.iter_mut().enumerate() {
                    w.release_barrier(now);
                    if !w.done() {
                        wake[i] = Some(now + 1);
                    }
                }
            }
            m.now += 1;
            if m.done() {
                break;
            }
            let insts: u64 = m.wpus.iter().map(|w| w.stats.warp_insts.get()).sum();
            if insts != last_insts {
                last_insts = insts;
                quiet_iters = 0;
            } else {
                quiet_iters += 1;
                if quiet_iters >= livelock_window {
                    return Err(SimError::Livelock {
                        cycles: m.now.raw(),
                        stalled_for: quiet_iters,
                        diagnostics: m.diagnostics(),
                    });
                }
            }
            if m.now.raw() >= config.max_cycles {
                return Err(SimError::Timeout {
                    cycles: m.now.raw(),
                    diagnostics: m.diagnostics(),
                });
            }
            // The host-budget clock is only consulted every few thousand
            // iterations; a simulated cycle is tens of nanoseconds, so the
            // overshoot is bounded well under a millisecond.
            iters += 1;
            if let Some((deadline, budget)) = host_deadline {
                if iters & 0xFFF == 0 && std::time::Instant::now() >= deadline {
                    return Err(SimError::HostBudget {
                        cycles: m.now.raw(),
                        budget,
                    });
                }
            }
            // A busy WPU wakes at `now + 1` (already the new `m.now`), every
            // other wake source is strictly later, and fills scheduled this
            // cycle land in the future — so the event scan below would
            // return exactly `m.now`. Skip it.
            if any_busy {
                continue;
            }
            // Sleep until the earliest per-WPU event: a cached group wake
            // or a fill bound for that WPU's L1. Adaptation boundaries only
            // clamp the sleep — they are deliberately *not* progress
            // events: an adapt tick alone never wakes a group, so a machine
            // whose only future cycles are adapt boundaries is just as
            // deadlocked as one with none.
            let mut next: Option<Cycle> = None;
            for (i, &w) in wake.iter().enumerate() {
                for c in [w, m.mem.next_completion_at_l1(i)].into_iter().flatten() {
                    next = Some(next.map_or(c, |x: Cycle| x.min(c)));
                }
            }
            let Some(next) = next else {
                return Err(SimError::Deadlock {
                    cycles: m.now.raw(),
                    diagnostics: m.diagnostics(),
                });
            };
            let next = adapt_at.iter().flatten().fold(next, |n, &a| n.min(a));
            m.now = next.max(m.now);
        }
        Ok(RunResult::collect(&m.wpus, &m.mem, m.now.raw(), m.data))
    }

    /// Consumes a stepped machine and collects the same metrics
    /// [`Machine::run`] returns, so step-level drivers (tests, interactive
    /// tooling) can compare against the event-driven loop.
    #[must_use]
    pub fn into_result(self) -> RunResult {
        RunResult::collect(&self.wpus, &self.mem, self.now.raw(), self.data)
    }

    /// Machine-state snapshot for error reports: per-WPU group states, WST
    /// and MSHR occupancy, and next-wake bounds.
    pub fn diagnostics(&self) -> DiagnosticReport {
        DiagnosticReport {
            cycles: self.now.raw(),
            pending_fills: self.mem.pending_fills(),
            wpus: self
                .wpus
                .iter()
                .enumerate()
                .map(|(i, w)| WpuDiag {
                    id: i,
                    last_class: self.last_class[i],
                    live_threads: w.live_threads(),
                    barrier_waiting: w.barrier_waiting(),
                    groups_alive: w.groups_alive(),
                    wst_used: w.wst_used(),
                    wst_peak: w.wst_peak(),
                    wst_capacity: w.wst_capacity(),
                    mshr_in_use: self.mem.mshr_in_use(i),
                    mshr_capacity: self.mem.mshr_capacity(i),
                    next_wake: w.cached_next_wake().map(Cycle::raw),
                    next_fill: self.mem.next_completion_at_l1(i).map(Cycle::raw),
                    groups: w.dump_groups(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dws_core::Policy;
    use dws_isa::{CondOp, KernelBuilder, Operand, VecMemory};
    use dws_kernels::{Benchmark, KernelSpec, Scale};

    #[test]
    fn filter_runs_and_verifies_on_paper_machine() {
        let spec = Benchmark::Filter.build(Scale::Test, 9);
        let cfg = SimConfig::paper(Policy::conventional());
        let r = Machine::run(&cfg, &spec).unwrap();
        spec.verify(&r.memory).unwrap();
        assert!(r.cycles > 0);
        assert_eq!(r.per_wpu.len(), 4);
    }

    #[test]
    fn step_api_matches_run() {
        // `run` skips fully-stalled stretches and charges them through
        // `account_skipped_stall`; stepping cycle-by-cycle takes the slow
        // path. Both must agree on the final memory, the total cycle count,
        // and the per-stall-class accounting. (Policies here are
        // non-adaptive: Slip/throttled variants tune themselves on
        // absolute-cycle schedules and legitimately diverge under skipping.)
        for policy in [
            Policy::conventional(),
            Policy::dws_aggress(),
            Policy::dws_revive(),
        ] {
            let spec = Benchmark::Merge.build(Scale::Test, 9);
            let cfg = SimConfig::paper(policy).with_wpus(1);
            let by_run = Machine::run(&cfg, &spec).unwrap();
            let mut m = Machine::new(&cfg, &spec);
            while !m.done() {
                m.step();
                assert!(m.now().raw() < 50_000_000);
            }
            let by_step = RunResult::collect(&m.wpus, &m.mem, m.now.raw(), m.data);
            assert_eq!(by_step.memory.words(), by_run.memory.words());
            assert_eq!(by_step.cycles, by_run.cycles, "{policy:?}");
            for (s, r) in by_step.per_wpu.iter().zip(&by_run.per_wpu) {
                assert_eq!(s.busy_cycles.get(), r.busy_cycles.get(), "{policy:?}");
                assert_eq!(
                    s.mem_stall_cycles.get(),
                    r.mem_stall_cycles.get(),
                    "{policy:?}"
                );
                assert_eq!(s.idle_cycles.get(), r.idle_cycles.get(), "{policy:?}");
                assert_eq!(s.warp_insts.get(), r.warp_insts.get(), "{policy:?}");
            }
        }
    }

    #[test]
    fn timeout_reports_diagnostics() {
        let spec = Benchmark::Fft.build(Scale::Test, 9);
        let mut cfg = SimConfig::paper(Policy::conventional());
        cfg.max_cycles = 100;
        match Machine::run(&cfg, &spec) {
            Err(SimError::Timeout {
                cycles,
                diagnostics,
            }) => {
                assert!(cycles >= 100);
                assert_eq!(diagnostics.cycles, cycles);
                assert_eq!(diagnostics.wpus.len(), 4);
                let rendered = diagnostics.to_string();
                for w in &diagnostics.wpus {
                    assert!(w.live_threads > 0, "threads can't finish in 100 cycles");
                    assert!(w.wst_capacity > 0);
                    assert!(w.mshr_capacity > 0);
                    assert!(rendered.contains(&format!("WPU {}", w.id)));
                }
                assert!(rendered.contains("machine state at cycle"));
                assert!(rendered.contains("mshr="));
                assert!(rendered.contains("wst="));
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_reports_diagnostics() {
        // The classic SIMT hang: a barrier inside a divergent branch. Lane 0
        // parks at the barrier while its 15 sibling lanes wait on the
        // reconvergence stack, so the barrier can never collect every live
        // thread and no memory event is pending — the run loop must detect
        // a deadlock rather than spin or sleep forever.
        let mut b = KernelBuilder::new();
        let tid = b.tid();
        b.if_then(CondOp::Eq, tid, Operand::Imm(0), KernelBuilder::barrier);
        b.halt();
        let program = b.build().unwrap();
        let spec = KernelSpec::new("divergent-barrier", program, VecMemory::new(64), |_| Ok(()));
        let cfg = SimConfig::paper(Policy::conventional()).with_wpus(1);
        match Machine::run(&cfg, &spec) {
            Err(SimError::Deadlock { diagnostics, .. }) => {
                assert_eq!(diagnostics.wpus.len(), 1);
                assert_eq!(diagnostics.pending_fills, 0);
                let w = &diagnostics.wpus[0];
                // Only warp 0's lane 0 reaches the barrier; warps 1..4 halt.
                assert_eq!(w.barrier_waiting, 1);
                assert!(w.live_threads > w.barrier_waiting);
                assert_eq!(w.next_wake, None, "a pending wake would not deadlock");
                assert_eq!(w.next_fill, None);
                let rendered = diagnostics.to_string();
                assert!(rendered.contains("barrier_waiting=1"));
                assert!(rendered.contains("next_wake=-"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn livelock_reports_diagnostics() {
        // Every lane of a 16-wide warp touches a distinct line, so one warp
        // access wants 16 fresh MSHRs; with a single-entry MSHR file and
        // nothing in flight the structural reject can never drain. Cycles
        // keep advancing (with no fill pending, the group cannot sleep
        // until a release and retries at `now + 1`) but nothing retires —
        // a livelock, not a deadlock.
        let mut b = KernelBuilder::new();
        let tid = b.tid();
        let a = b.reg();
        b.mul(a, tid, Operand::Imm(1024));
        b.load(a, a, 0);
        b.halt();
        let program = b.build().unwrap();
        let spec = KernelSpec::new("mshr-starved", program, VecMemory::new(64 * 1024), |_| {
            Ok(())
        });
        let mut cfg = SimConfig::paper(Policy::conventional()).with_wpus(1);
        cfg.mem.l1d.mshrs = 1;
        cfg.livelock_window = 10_000;
        match Machine::run(&cfg, &spec) {
            Err(SimError::Livelock {
                stalled_for,
                diagnostics,
                ..
            }) => {
                assert!(stalled_for >= 10_000);
                assert_eq!(diagnostics.wpus.len(), 1);
                let w = &diagnostics.wpus[0];
                assert!(w.live_threads > 0);
                assert_eq!(w.mshr_in_use, 0, "nothing ever gets an MSHR");
                assert_eq!(w.mshr_capacity, 1);
                assert!(diagnostics.to_string().contains("mshr=0/1"));
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }
}
