//! The event-driven run loop must be invisible: [`Machine::run`] skips
//! cycles on a per-WPU basis (each WPU sleeps until its own next wake or
//! fill completion) and charges the skipped stretch lazily, so its results
//! must be bit-identical to stepping [`Machine::step`] one cycle at a time.
//! These tests drive multi-WPU machines so some WPUs sleep while others
//! issue — the path the in-crate single-WPU test cannot reach.

use dws_core::Policy;
use dws_kernels::{Benchmark, Scale};
use dws_sim::fuzz::fuzz_policies;
use dws_sim::{Machine, RunResult, SimConfig};

fn by_step(cfg: &SimConfig, spec: &dws_kernels::KernelSpec) -> RunResult {
    let mut m = Machine::new(cfg, spec);
    while !m.done() {
        m.step();
        assert!(m.now().raw() < 200_000_000, "step loop runaway");
    }
    m.into_result()
}

fn assert_equivalent(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.memory.words(), b.memory.words(), "{what}: memory");
    assert_eq!(a.wst_peaks, b.wst_peaks, "{what}: wst peaks");
    assert_eq!(
        a.per_thread_misses, b.per_thread_misses,
        "{what}: per-thread misses"
    );
    assert_eq!(a.mem, b.mem, "{what}: memory-system stats");
    assert_eq!(a.per_wpu, b.per_wpu, "{what}: per-WPU stats");
    assert_eq!(a.wpu, b.wpu, "{what}: aggregate WPU stats");
    assert_eq!(a.energy, b.energy, "{what}: energy");
}

/// Non-adaptive policies on two-WPU machines: WPUs stall at different
/// times, so the run loop's per-WPU skipping (one WPU asleep while its
/// neighbour issues) must still reproduce the stepped machine exactly.
#[test]
fn run_matches_step_on_multi_wpu_machines() {
    for policy in [
        Policy::conventional(),
        Policy::dws_aggress(),
        Policy::dws_lazy(),
        Policy::dws_revive(),
    ] {
        for bench in [Benchmark::Merge, Benchmark::Fft] {
            let spec = bench.build(Scale::Test, 11);
            let cfg = SimConfig::paper(policy).with_wpus(2);
            let run = Machine::run(&cfg, &spec).unwrap();
            spec.verify(&run.memory).unwrap();
            let step = by_step(&cfg, &spec);
            assert_equivalent(
                &run,
                &step,
                &format!("{} under {}", bench.name(), policy.paper_name()),
            );
        }
    }
}

/// Adaptive policies (slip's inactivity sampling, the adaptive throttle)
/// publish their next decision boundary as a wake event
/// ([`dws_core::Wpu::next_adapt_boundary`]), so the run loop no longer
/// holds them in per-cycle lockstep — it sleeps through event gaps like it
/// does for every other policy, waking for adapt boundaries as it does for
/// memory completions. The event-driven run must still be bit-identical to
/// stepping every cycle.
#[test]
fn adaptive_policies_run_matches_step() {
    for policy in [Policy::slip(), Policy::dws_revive_throttled()] {
        let spec = Benchmark::Merge.build(Scale::Test, 11);
        let cfg = SimConfig::paper(policy).with_wpus(2);
        let run = Machine::run(&cfg, &spec).unwrap();
        spec.verify(&run.memory).unwrap();
        let step = by_step(&cfg, &spec);
        assert_equivalent(&run, &step, policy.paper_name());
    }
}

/// The paper machine (4 WPUs, 4 L1s) exercises per-L1 completion wakeups:
/// each WPU's sleep horizon is the min of its own group wake and the next
/// fill bound for its L1, not a machine-global event time.
#[test]
fn run_matches_step_on_paper_machine() {
    let spec = Benchmark::Filter.build(Scale::Test, 11);
    let cfg = SimConfig::paper(Policy::dws_revive());
    let run = Machine::run(&cfg, &spec).unwrap();
    spec.verify(&run.memory).unwrap();
    let step = by_step(&cfg, &spec);
    assert_equivalent(&run, &step, "filter on the 4-WPU paper machine");
}

/// Short saturates the L1 MSHRs (several rejections per warp access), so
/// groups spend long stretches blocked on MSHR back-pressure. The run loop
/// sleeps such a WPU until its L1 can accept and charges the skipped
/// retries lazily (rejections, L1-I fetches, the round-robin cursor); the
/// stepped machine retries every cycle. Every policy must agree exactly.
#[test]
fn mshr_spinning_run_matches_step_under_every_policy() {
    let spec = Benchmark::Short.build(Scale::Test, 42);
    for policy in fuzz_policies() {
        let cfg = SimConfig::paper(policy);
        let run = Machine::run(&cfg, &spec).unwrap();
        spec.verify(&run.memory).unwrap();
        assert!(
            run.mem.rejections.get() > 0,
            "Short must hit MSHR back-pressure"
        );
        let step = by_step(&cfg, &spec);
        assert_equivalent(
            &run,
            &step,
            &format!("Short under {} on the paper machine", policy.paper_name()),
        );
    }
}
