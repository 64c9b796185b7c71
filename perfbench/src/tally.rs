//! Running totals of the model statistics of a pass, and its fingerprint.
//!
//! Each finished simulation is folded in as it is collected, so the
//! benchmark's own memory does not grow with the number of simulations.

use dws_core::WpuStats;
use dws_mem::MemStats;
use dws_sim::RunResult;

/// FNV-1a, 64-bit: a hash that is stable across runs, builds and hosts.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Sums over the simulations of one job or pass, folded in job order.
pub struct Tally {
    /// Hash over every simulation's label, cycles, `WpuStats`, `MemStats`,
    /// energy and WST peak; a pass hashes its jobs' hashes in job order.
    pub fingerprint: Fnv,
    pub cycles: u64,
    pub wpu: WpuStats,
    pub mem: MemStats,
    pub energy_nj: f64,
    /// Largest WST peak of any simulation.
    pub wst_peak: usize,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            fingerprint: Fnv::new(),
            cycles: 0,
            wpu: WpuStats::default(),
            mem: MemStats::default(),
            energy_nj: 0.0,
            wst_peak: 0,
        }
    }
}

impl Tally {
    /// Folds in one simulation.
    pub fn add(&mut self, label: &str, r: &RunResult) {
        let energy_nj = r.energy.total() * 1e9;
        let wst_peak = r.wst_peaks.iter().copied().max().unwrap_or(0);
        self.fingerprint.write(
            format!(
                "{label}|{}|{:?}|{:?}|{energy_nj}|{wst_peak}\n",
                r.cycles, r.wpu, r.mem
            )
            .as_bytes(),
        );
        self.sum(r.cycles, &r.wpu, &r.mem, energy_nj, wst_peak);
    }

    /// Folds in the tally of a later job.
    pub fn merge(&mut self, other: &Tally) {
        self.fingerprint.write(&other.fingerprint.0.to_le_bytes());
        self.sum(
            other.cycles,
            &other.wpu,
            &other.mem,
            other.energy_nj,
            other.wst_peak,
        );
    }

    fn sum(&mut self, cycles: u64, wpu: &WpuStats, o: &MemStats, energy_nj: f64, wst_peak: usize) {
        self.cycles += cycles;
        self.wpu.merge(wpu);
        let m = &mut self.mem;
        m.l1d_line_accesses.add(o.l1d_line_accesses.get());
        m.l1d_hits.add(o.l1d_hits.get());
        m.l1d_misses.add(o.l1d_misses.get());
        m.l1d_mshr_merges.add(o.l1d_mshr_merges.get());
        m.rejections.add(o.rejections.get());
        m.bank_conflict_cycles.add(o.bank_conflict_cycles.get());
        m.l2_misses.add(o.l2_misses.get());
        m.dram_accesses.add(o.dram_accesses.get());
        m.invalidations.add(o.invalidations.get());
        m.crossbar_bytes.add(o.crossbar_bytes.get());
        m.mlp.merge(&o.mlp);
        self.energy_nj += energy_nj;
        self.wst_peak = self.wst_peak.max(wst_peak);
    }

    /// The per-layer model counts: `(name, unit, value)`. Ratios are taken
    /// over the sums.
    pub fn counts(&self) -> Vec<(&'static str, &'static str, f64)> {
        let (w, m) = (&self.wpu, &self.mem);
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let n = |c: u64| c as f64;
        vec![
            ("core.warp_insts", "count", n(w.warp_insts.get())),
            ("core.thread_insts", "count", n(w.thread_insts.get())),
            (
                "core.simd_width",
                "lanes",
                ratio(w.thread_insts.get(), w.warp_insts.get()),
            ),
            ("core.busy_cycles", "cycles", n(w.busy_cycles.get())),
            (
                "core.mem_stall_cycles",
                "cycles",
                n(w.mem_stall_cycles.get()),
            ),
            ("core.idle_cycles", "cycles", n(w.idle_cycles.get())),
            (
                "core.divergent_branches",
                "count",
                n(w.divergent_branches.get()),
            ),
            ("core.branch_splits", "count", n(w.branch_splits.get())),
            ("core.mem_splits", "count", n(w.mem_splits.get())),
            ("core.revive_splits", "count", n(w.revive_splits.get())),
            ("core.pc_merges", "count", n(w.pc_merges.get())),
            ("core.wst_full_events", "count", n(w.wst_full_events.get())),
            ("core.wst_peak", "entries", self.wst_peak as f64),
            (
                "core.uniform_fast_branches",
                "count",
                n(w.uniform_fast_branches.get()),
            ),
            (
                "mem.l1d_line_accesses",
                "count",
                n(m.l1d_line_accesses.get()),
            ),
            ("mem.l1d_hits", "count", n(m.l1d_hits.get())),
            ("mem.l1d_misses", "count", n(m.l1d_misses.get())),
            (
                "mem.l1d_hit_ratio",
                "ratio",
                ratio(m.l1d_hits.get(), m.l1d_line_accesses.get()),
            ),
            ("mem.mshr_merges", "count", n(m.l1d_mshr_merges.get())),
            ("mem.rejections", "count", n(m.rejections.get())),
            (
                "mem.reject_ratio",
                "ratio",
                ratio(m.rejections.get(), m.l1d_line_accesses.get()),
            ),
            (
                "mem.bank_conflict_cycles",
                "cycles",
                n(m.bank_conflict_cycles.get()),
            ),
            ("mem.l2_misses", "count", n(m.l2_misses.get())),
            ("mem.dram_accesses", "count", n(m.dram_accesses.get())),
            ("mem.invalidations", "count", n(m.invalidations.get())),
            ("mem.crossbar_bytes", "bytes", n(m.crossbar_bytes.get())),
            ("mem.mlp_mean", "fills", m.mlp.mean().unwrap_or(0.0)),
            ("sim.cycles", "cycles", self.cycles as f64),
            ("energy.total_nj", "nJ", self.energy_nj),
        ]
    }
}
