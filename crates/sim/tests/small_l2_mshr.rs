//! Small-L2 regression: a warp access whose L2 fill back-invalidates a
//! line the same access already counted as an L1 hit must not overcommit
//! the requesting L1's MSHR file.
//!
//! With an inclusive L2 this small, a fresh miss early in one warp access
//! evicts L2 lines that are still resident in the requesting L1. The MSHR
//! feasibility check had counted those lines as hits; if the apply pass
//! re-classified them as misses it allocated MSHRs nobody had reserved and
//! `MshrFile::allocate` panicked. Every configuration below used to panic.

use dws_core::Policy;
use dws_kernels::{Benchmark, Scale};
use dws_sim::{Machine, SimConfig};

fn run_with_l2(bench: Benchmark, policy: Policy, l2_kib: u64) {
    let spec = bench.build(Scale::Bench, 42);
    let mut cfg = SimConfig::paper(policy);
    cfg.mem.l2.size_bytes = l2_kib * 1024;
    let label = format!("{bench}/{} with a {l2_kib} KiB L2", policy.paper_name());
    let r = Machine::run(&cfg, &spec).unwrap_or_else(|e| panic!("{label}: {e}"));
    spec.verify(&r.memory)
        .unwrap_or_else(|e| panic!("{label} produced wrong results: {e}"));
    assert!(
        r.mem.invalidations.get() > 0,
        "{label}: no back-invalidation"
    );
}

#[test]
fn lu_conv_16k_l2() {
    run_with_l2(Benchmark::Lu, Policy::conventional(), 16);
}

#[test]
fn merge_conv_16k_32k_64k_l2() {
    for kib in [16, 32, 64] {
        run_with_l2(Benchmark::Merge, Policy::conventional(), kib);
    }
}

#[test]
fn fft_revive_32k_128k_l2() {
    for kib in [32, 128] {
        run_with_l2(Benchmark::Fft, Policy::dws_revive(), kib);
    }
}

#[test]
fn fft_conv_32k_l2() {
    run_with_l2(Benchmark::Fft, Policy::conventional(), 32);
}
