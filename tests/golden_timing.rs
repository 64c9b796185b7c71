//! Golden timing tables: the timing model's own output, pinned exactly.
//!
//! Every other oracle compares one engine with another (stepped vs event,
//! µop vs per-lane, policies vs the reference interpreter), so a drift that
//! hits both sides at once goes unnoticed. These tests pin the model itself
//! on the paper's Table 3 machine, compared field by field:
//!
//! * `tests/golden/timing_test.tsv` — every benchmark × fuzz policy at
//!   `Scale::Test`, seed 42 (tier-1, debug and release);
//! * `tests/golden/timing_bench.tsv` — the `BENCH_simspeed.json` rows
//!   (Merge/FFT/SVM × Conv/DWS.ReviveSplit) plus Short, the benchmark that
//!   saturates the L1 MSHRs hardest, at `Scale::Bench`, seed 42 (release
//!   only: a debug build takes minutes).
//!
//! A change that moves any number must say why. Regenerate both tables with
//!
//! ```text
//! cargo test --release --test golden_timing -- --ignored write_golden
//! ```

use dws::core::Policy;
use dws::kernels::{Benchmark, Scale};
use dws::sim::fuzz::fuzz_policies;
use dws::sim::{Machine, RunResult, SimConfig};

const GOLDEN_TEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timing_test.tsv");
const GOLDEN_BENCH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timing_bench.tsv");
const SEED: u64 = 42;

/// Column names, in file order. `splits` sums branch, memory and revive
/// splits; `merges` sums PC, stack and slip merges; `wst_peak` is the
/// largest per-WPU warp-split-table peak. The last four are the counters
/// the event-driven run loop charges for cycles it skips: MSHR-full
/// rejections, L1-I fetches, and the two stall classes.
const FIELDS: [&str; 12] = [
    "cycles",
    "warp_insts",
    "thread_insts",
    "l1d_misses",
    "dram_accesses",
    "splits",
    "merges",
    "wst_peak",
    "rejections",
    "l1i_fetches",
    "mem_stall_cycles",
    "idle_cycles",
];

fn fields(r: &RunResult) -> [u64; 12] {
    let w = &r.wpu;
    [
        r.cycles,
        w.warp_insts.get(),
        w.thread_insts.get(),
        r.mem.l1d_misses.get(),
        r.mem.dram_accesses.get(),
        w.branch_splits.get() + w.mem_splits.get() + w.revive_splits.get(),
        w.pc_merges.get() + w.stack_merges.get() + w.slip_merges.get(),
        r.wst_peaks.iter().copied().max().unwrap_or(0) as u64,
        r.mem.rejections.get(),
        r.mem.l1i_fetches.get(),
        w.mem_stall_cycles.get(),
        w.idle_cycles.get(),
    ]
}

/// The `Scale::Test` grid: every benchmark under every fuzz policy.
fn test_grid() -> Vec<(Benchmark, Vec<Policy>)> {
    Benchmark::ALL
        .into_iter()
        .map(|b| (b, fuzz_policies()))
        .collect()
}

/// The `Scale::Bench` rows: the `BENCH_simspeed.json` throughput rows,
/// then Short under the baseline and both eager and revive splitting.
fn bench_grid() -> Vec<(Benchmark, Vec<Policy>)> {
    let simspeed = || vec![Policy::conventional(), Policy::dws_revive()];
    vec![
        (Benchmark::Merge, simspeed()),
        (Benchmark::Fft, simspeed()),
        (Benchmark::Svm, simspeed()),
        (
            Benchmark::Short,
            vec![
                Policy::conventional(),
                Policy::dws_aggress(),
                Policy::dws_revive(),
            ],
        ),
    ]
}

/// Simulates `grid` at `scale` and renders it as a golden file's text.
fn render_table(scale: Scale, grid: &[(Benchmark, Vec<Policy>)]) -> String {
    let mut out = format!("bench\tpolicy\t{}\n", FIELDS.join("\t"));
    for (bench, policies) in grid {
        let spec = bench.build(scale, SEED);
        for &policy in policies {
            let name = policy.paper_name();
            let r = Machine::run(&SimConfig::paper(policy), &spec)
                .unwrap_or_else(|e| panic!("{bench} under {name} failed: {e}"));
            spec.verify(&r.memory)
                .unwrap_or_else(|e| panic!("{bench} under {name} produced wrong results: {e}"));
            let values: Vec<String> = fields(&r).iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{}\t{name}\t{}\n",
                bench.name(),
                values.join("\t")
            ));
        }
    }
    out
}

/// Compares a freshly simulated table against the golden file at `path`.
fn check_golden(path: &str, actual: &str) {
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (run the ignored write_golden test)"));
    if let Some(diff) = first_difference(&golden, actual) {
        panic!("timing model drifted from {path}: {diff}");
    }
}

/// The first difference between two tables, naming the row and field.
fn first_difference(golden: &str, actual: &str) -> Option<String> {
    let (mut g, mut a) = (golden.lines(), actual.lines());
    for line in 1.. {
        match (g.next(), a.next()) {
            (None, None) => return None,
            (Some(gl), None) => {
                return Some(format!("line {line}: golden row `{gl}` not produced"))
            }
            (None, Some(al)) => return Some(format!("line {line}: extra row `{al}`")),
            (Some(gl), Some(al)) if gl == al => {}
            (Some(gl), Some(al)) => {
                let gc: Vec<&str> = gl.split('\t').collect();
                let ac: Vec<&str> = al.split('\t').collect();
                let row = format!("{}/{}", ac[0], ac.get(1).unwrap_or(&"?"));
                if gc.get(..2) != ac.get(..2) {
                    return Some(format!("line {line}: expected row `{gl}`, got `{al}`"));
                }
                let header: Vec<&str> = golden.lines().next().unwrap_or("").split('\t').collect();
                for (i, (gv, av)) in gc.iter().zip(&ac).enumerate() {
                    if gv != av {
                        let field = header.get(i).unwrap_or(&"?");
                        return Some(format!(
                            "line {line}: {row} field `{field}`: golden {gv}, now {av}"
                        ));
                    }
                }
                return Some(format!("line {line}: {row} column count differs"));
            }
        }
    }
    unreachable!()
}

#[test]
fn timing_model_matches_golden_table() {
    check_golden(GOLDEN_TEST, &render_table(Scale::Test, &test_grid()));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Scale::Bench grid: release builds only")]
fn timing_model_matches_bench_golden_table() {
    check_golden(GOLDEN_BENCH, &render_table(Scale::Bench, &bench_grid()));
}

#[test]
fn golden_diff_names_row_and_field() {
    let golden = "bench\tpolicy\tcycles\twarp_insts\nFFT\tConv\t10\t5\nLU\tSlip\t7\t3\n";
    let actual = "bench\tpolicy\tcycles\twarp_insts\nFFT\tConv\t10\t5\nLU\tSlip\t7\t4\n";
    assert_eq!(first_difference(golden, golden), None);
    assert_eq!(
        first_difference(golden, actual).as_deref(),
        Some("line 3: LU/Slip field `warp_insts`: golden 3, now 4")
    );
    let short = "bench\tpolicy\tcycles\twarp_insts\nFFT\tConv\t10\t5\n";
    assert!(first_difference(golden, short)
        .unwrap()
        .contains("not produced"));
}

/// Rewrites both golden files from the current model.
#[test]
#[ignore = "regenerates tests/golden/timing_{test,bench}.tsv"]
fn write_golden() {
    std::fs::write(GOLDEN_TEST, render_table(Scale::Test, &test_grid())).unwrap();
    std::fs::write(GOLDEN_BENCH, render_table(Scale::Bench, &bench_grid())).unwrap();
}
