//! Scaling study: the 32/64/128-WPU `scaled` presets (8x/16x/32x the
//! paper's 4-WPU machine). Does DWS's advantage over Conv survive when many
//! more WPUs contend for the shared L2/DRAM, and what host wall-clock does
//! one large machine cost? Each machine runs on one host thread; the
//! host-seconds column sums the DWS runs over all benchmarks.

use dws_bench::{build_shared, f2, hmean, run, Table};
use dws_core::Policy;
use dws_sim::presets::{scaled, scaling_wpu_counts};
use std::time::Instant;

fn main() {
    let benches = dws_bench::benchmarks();
    let mut t = Table::new(
        "Scaling — scaled presets, DWS.ReviveSplit vs Conv",
        &["WPUs", "DWS/Conv (hmean)", "serial host s"],
    );
    for &n in &scaling_wpu_counts() {
        let mut speedups = Vec::new();
        let mut serial_s = 0.0f64;
        for &bench in &benches {
            let spec = build_shared(bench);
            let conv = run(
                &format!("Conv {n}w"),
                &scaled(Policy::conventional(), n),
                &spec,
            );
            let t0 = Instant::now();
            let dws = run(
                &format!("DWS {n}w"),
                &scaled(Policy::dws_revive(), n),
                &spec,
            );
            serial_s += t0.elapsed().as_secs_f64();
            speedups.push(dws.speedup_over(&conv));
        }
        t.row(vec![n.to_string(), f2(hmean(&speedups)), f2(serial_s)]);
    }
    t.print();
}
