//! Simulator-throughput benchmark: measures host-side simulation speed
//! (Mcycles/s, Minst/s) on representative kernels, then times the full
//! Figure 13 sweep serially (one worker) and on the default worker pool to
//! report the harness parallel speedup.
//!
//! Results are printed as a table and written to `BENCH_simspeed.json` in
//! the current directory.
//!
//! ```text
//! cargo run --release --bin simspeed            # DWS_SCALE=test|bench|paper
//! ```

use dws::core::Policy;
use dws::kernels::{Benchmark, KernelSpec, Scale};
use dws::sim::presets::figure13_policies;
use dws::sim::{Machine, SimConfig, SweepRunner};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Throughput {
    bench: &'static str,
    policy: &'static str,
    cycles: u64,
    insts: u64,
    host_seconds: f64,
}

impl Throughput {
    fn mcyc(&self) -> f64 {
        self.cycles as f64 / self.host_seconds / 1e6
    }
    fn minst(&self) -> f64 {
        self.insts as f64 / self.host_seconds / 1e6
    }
}

/// Queues one Figure 13 sweep (every benchmark x Conv + the figure's
/// policy list) over pre-built kernels.
fn fig13_sweep(specs: &[Arc<KernelSpec>]) -> SweepRunner {
    let mut sweep = SweepRunner::new();
    for spec in specs {
        sweep.add("Conv", SimConfig::paper(Policy::conventional()), spec);
        for (name, policy) in figure13_policies() {
            sweep.add(name, SimConfig::paper(policy), spec);
        }
    }
    sweep
}

fn time_sweep(sweep: SweepRunner) -> f64 {
    let t0 = Instant::now();
    // Streaming: each result is verified on the worker that produced it and
    // its memory image dropped immediately, so peak RSS is one machine per
    // worker rather than one image per job.
    let outcomes = sweep.run_streaming();
    let dt = t0.elapsed().as_secs_f64();
    // Every job ran to completion (a panicked job is isolated to its own
    // outcome), so report all failures at once instead of just the first.
    if let Some(summary) = dws::sim::failure_summary(&outcomes) {
        eprintln!("{summary}");
        std::process::exit(1);
    }
    dt
}

fn main() {
    let (scale, scale_name) = match std::env::var("DWS_SCALE").as_deref() {
        Ok("test") => (Scale::Test, "test"),
        Ok("paper") => (Scale::Paper, "paper"),
        _ => (Scale::Bench, "bench"),
    };
    let seed = std::env::var("DWS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // Part 1: raw single-simulation throughput.
    println!("-- simulator throughput ({scale_name} scale) --");
    let mut rows: Vec<Throughput> = Vec::new();
    for bench in [Benchmark::Merge, Benchmark::Fft, Benchmark::Svm] {
        let spec = bench.build(scale, seed);
        for policy in [Policy::conventional(), Policy::dws_revive()] {
            let cfg = SimConfig::paper(policy);
            let t0 = Instant::now();
            let r = Machine::run(&cfg, &spec).unwrap();
            let row = Throughput {
                bench: bench.name(),
                policy: policy.paper_name(),
                cycles: r.cycles,
                insts: r.wpu.warp_insts.get(),
                host_seconds: t0.elapsed().as_secs_f64(),
            };
            println!(
                "{:8} {:16} cycles={:9} host={:6.2}s -> {:.2} Mcyc/s, {:.2} Minst/s",
                row.bench,
                row.policy,
                row.cycles,
                row.host_seconds,
                row.mcyc(),
                row.minst()
            );
            rows.push(row);
        }
    }

    // Part 2: the full Figure 13 sweep, serial vs the worker pool. On a
    // single-core host the pool degenerates to the serial run, so skip it
    // rather than reporting a meaningless 1.0x "speedup".
    let workers = dws::sim::sweep::default_workers();
    let available_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let specs: Vec<Arc<KernelSpec>> = Benchmark::ALL
        .into_iter()
        .map(|b| Arc::new(b.build(scale, seed)))
        .collect();
    let jobs = fig13_sweep(&specs).len();
    println!("\n-- fig13 sweep wall clock ({jobs} jobs) --");
    let serial = time_sweep(fig13_sweep(&specs).with_workers(1));
    println!("serial   (1 worker):  {serial:7.2}s");
    let parallel = if workers > 1 {
        let parallel = time_sweep(fig13_sweep(&specs).with_workers(workers));
        println!(
            "parallel ({workers} workers): {parallel:7.2}s  -> {:.2}x",
            serial / parallel
        );
        Some(parallel)
    } else {
        println!("parallel run skipped (1 worker available)");
        None
    };

    // Hand-rolled JSON: the repo builds offline, with no serialization dep.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"scale\": \"{scale_name}\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    json.push_str("  \"throughput\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"bench\": \"{}\", \"policy\": \"{}\", \"cycles\": {}, \"insts\": {}, \
             \"host_seconds\": {:.4}, \"mcycles_per_sec\": {:.3}, \"minsts_per_sec\": {:.3}}}",
            row.bench,
            row.policy,
            row.cycles,
            row.insts,
            row.host_seconds,
            row.mcyc(),
            row.minst()
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"fig13_sweep\": {\n");
    let _ = writeln!(json, "    \"jobs\": {jobs},");
    let _ = writeln!(json, "    \"workers\": {workers},");
    let _ = writeln!(
        json,
        "    \"available_parallelism\": {available_parallelism},"
    );
    let _ = writeln!(json, "    \"serial_seconds\": {serial:.4},");
    match parallel {
        Some(p) => {
            let _ = writeln!(json, "    \"parallel_seconds\": {p:.4},");
            let _ = writeln!(json, "    \"parallel_speedup\": {:.4}", serial / p);
        }
        None => {
            let _ = writeln!(json, "    \"parallel_seconds\": null,");
            let _ = writeln!(json, "    \"parallel_speedup\": null");
        }
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_simspeed.json", &json).expect("write BENCH_simspeed.json");
    println!("\nwrote BENCH_simspeed.json");
}
