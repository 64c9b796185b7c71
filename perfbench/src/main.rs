//! Host-performance benchmark of the DWS simulator: four workloads, each
//! run for a fixed time and checked, reporting end-to-end metrics untraced
//! and per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compute|divergent|memory|toolchain|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The exit code is nonzero when any job fails its output check or the
//! model fingerprint differs between passes or from an earlier run of the
//! same sources and seed. See `NOTES.md` for why each workload exists.

mod json;
mod tally;
mod trace;
mod workloads;

use dws_kernels::Scale;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tally::{Fnv, Tally};
use trace::{Span, Tracer};
use workloads::{run_pass, setup, PassOut, Workload};

/// Upper bound on sweep workers, so results compare across hosts with
/// more cores.
const MAX_WORKERS: usize = 2;
/// Set-ups before each pass; `setup_s` is the median over all of a run's
/// set-ups. Spreading them over the run, instead of doing them all at the
/// start, makes the median see the same host as the passes.
const SETUP_REPS: usize = 5;
/// Input scale of the simulation workloads. A `Scale::Test` job takes
/// milliseconds, so a run repeats every job hundreds of times and each
/// job's fastest repeat is steady on a shared host. A `Scale::Bench` pass
/// takes 2-12 s, so a run sees each job only 2-5 times, and host slowdowns
/// that last longer than that reach every repeat.
const SCALE: Scale = Scale::Test;
/// Generated kernels per toolchain pass (the two meldable kernels come on
/// top).
const DEFAULT_KERNELS: usize = 1000;

/// Environment variables that change what the simulator does; they are
/// removed before anything runs so the caller's shell cannot alter the
/// program being measured.
const PINNED_ENV: [&str; 4] = ["DWS_THREADS", "DWS_JOBS", "DWS_SCALE", "DWS_SANITIZE"];
const PINNED_ENV_PREFIX: &str = "DWS_WATCHDOG_";

/// End-to-end metrics, reported untraced: `(name, unit)`.
const END_TO_END: [(&str, &str); 6] = [
    ("jobs_s", "s"),
    ("setup_s", "s"),
    ("sim_minsts_per_s", "Minst/s"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("peak_rss_mb", "MB"),
    ("kernel_ms_p50", "ms"),
];

/// Per-layer host-time metrics that are span totals per pass.
const SPAN_METRICS: [(&str, &str); 9] = [
    ("isa.generate_s", "isa.generate"),
    ("isa.compile_s", "isa.compile"),
    ("isa.asm_s", "isa.asm"),
    ("isa.meld_s", "isa.meld"),
    ("isa.interp_s", "isa.interp"),
    ("sim.machine_new_s", "sim.machine_new"),
    ("sim.run_s", "sim.run"),
    ("sim.check_s", "sim.check"),
    ("kernels.build_s", "kernels.build"),
];

#[derive(Debug, Clone)]
struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    kernels: usize,
    self_test: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        kernels: DEFAULT_KERNELS,
        self_test: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            o.self_test = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val:?}");
        match flag.as_str() {
            "--workload" if val == "all" => o.workloads = Workload::ALL.to_vec(),
            "--workload" => o.workloads = vec![Workload::parse(val).ok_or_else(bad)?],
            "--seed" => o.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = val.parse().map_err(|_| bad())?;
                if !(o.seconds.is_finite() && o.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if o.workloads.is_empty() && !o.self_test {
        return Err("--workload is required".to_string());
    }
    Ok(o)
}

/// Removes the pinned variables; returns the names that were set.
fn pin_env() -> Vec<String> {
    let cleared: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| PINNED_ENV.contains(&k.as_str()) || k.starts_with(PINNED_ENV_PREFIX))
        .collect();
    for k in &cleared {
        // Runs before any thread is started.
        std::env::remove_var(k);
    }
    cleared
}

/// Where the measured sources live and what built them.
struct Env {
    nproc: usize,
    rev: String,
    src_hash: u64,
    rustc: &'static str,
    cleared: Vec<String>,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Env {
    fn collect(cleared: Vec<String>) -> Env {
        let root = repo_root();
        Env {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rev: git_rev(&root).unwrap_or_else(|| "none".to_string()),
            src_hash: source_hash(&root),
            rustc: env!("PERFBENCH_RUSTC"),
            cleared,
        }
    }
}

/// The checked-out commit, read from `.git` without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(h) = std::fs::read_to_string(git.join(r)) {
        return Some(h.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
}

/// Hash of the simulator and benchmark sources, so results name the code
/// they measured even outside a git checkout.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    walk(&root.join("perfbench"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.write(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.write(&bytes);
        }
    }
    h.0
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile (`q` in `[0, 1]`); NaN for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// The outcome of measuring one workload.
struct Report {
    workload: Workload,
    metrics: Vec<Metric>,
    fingerprints: Vec<u64>,
    attempted: u64,
    failures: Vec<String>,
    plain_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    jobs: usize,
    workers: usize,
    working_sets: Vec<(&'static str, u64)>,
    /// Printed but not a result metric: on the sim workloads' 16 or 32 jobs
    /// it is the slowest job, too few samples for a gated tail.
    kernel_ms_p99: f64,
    self_table: Option<String>,
    spans: Vec<Span>,
}

impl Report {
    fn consistent(&self) -> bool {
        self.fingerprints.windows(2).all(|w| w[0] == w[1])
    }
}

/// What is kept of one pass. The simulation records are folded into a
/// tally and a fingerprint as soon as the pass ends, so the benchmark's own
/// memory does not grow with the number of passes.
struct Pass {
    wall_s: f64,
    job_s: Vec<f64>,
    run_s: Vec<f64>,
    fingerprint: u64,
    attempted: u64,
    failures: Vec<String>,
    spans: Vec<Span>,
}

impl Pass {
    fn of(p: &PassOut, spans: Vec<Span>) -> Pass {
        Pass {
            wall_s: p.wall_s,
            job_s: p.job_s.clone(),
            run_s: p.run_s.clone(),
            fingerprint: p.tally.fingerprint.0,
            attempted: p.attempted,
            failures: p.failures.clone(),
            spans,
        }
    }
}

/// Each job's fastest time over `passes`. On a shared host the simulator's
/// speed swings by up to 2x as other tenants' load comes and goes; a job's
/// fastest repeat is the figure those swings disturb least, so the
/// end-to-end times are built from it.
fn best_per_job(passes: &[Pass], jobs: usize, times: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    (0..jobs)
        .map(|j| {
            passes
                .iter()
                .map(|p| times(p)[j])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn measure(w: Workload, o: &Opts, nproc: usize) -> Report {
    let tracer = o.trace.then(Tracer::new);
    let tr = tracer.as_ref();

    let workers = nproc.min(MAX_WORKERS);

    // Each pass runs on inputs built afresh (SETUP_REPS times, keeping the
    // last). Passes run until the next one would overrun the measuring
    // time; a traced run alternates untraced and traced passes so both see
    // the same host.
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_spans: Vec<Span> = Vec::new();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut first: Option<Tally> = None;
    let mut rss_mb = f64::NAN;
    let start = Instant::now();
    let inputs = loop {
        let mut inputs = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let built = setup(w, SCALE, o.seed, o.kernels, tr);
            setup_s.push(t.elapsed().as_secs_f64());
            inputs = Some(built);
        }
        let inputs = inputs.expect("SETUP_REPS is at least 1");
        setup_spans.extend(tr.map(Tracer::take).unwrap_or_default());

        let traced_pass = o.trace && plain.len() > traced.len();
        let p = run_pass(&inputs, workers, if traced_pass { tr } else { None });
        if traced_pass {
            traced.push(Pass::of(&p, tr.map(Tracer::take).unwrap_or_default()));
        } else {
            plain.push(Pass::of(&p, Vec::new()));
        }
        if first.is_none() {
            first = Some(p.tally);
            // Later passes repeat the same work; reading the peak here keeps
            // the benchmark's own per-pass bookkeeping out of the figure.
            rss_mb = peak_rss_mb();
        }
        let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
        let need_traced = o.trace && traced.is_empty();
        if !need_traced && start.elapsed().as_secs_f64() + median(&walls) > o.seconds {
            break inputs;
        }
    };
    let first = first.expect("at least one pass ran");

    let all_passes = || plain.iter().chain(&traced);
    let fingerprints = all_passes().map(|p| p.fingerprint).collect();
    let attempted = all_passes().map(|p| p.attempted).sum();
    let failures = all_passes().flat_map(|p| p.failures.clone()).collect();

    let jobs = inputs.jobs();
    let best_job = best_per_job(&plain, jobs, |p| &p.job_s);
    let jobs_s: f64 = best_job.iter().sum();
    let run_s: f64 = best_per_job(&plain, jobs, |p| &p.run_s).iter().sum();
    // Model counts are the same in every pass.
    let warp_insts = first.wpu.warp_insts.get() as f64;
    let cycles = first.cycles as f64;
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64| {
        metrics.push(Metric { name, unit, value });
    };
    if o.trace {
        for (metric, span_name) in SPAN_METRICS {
            let value = if span_name == "kernels.build" {
                let total: u64 = setup_spans
                    .iter()
                    .filter(|s| s.name == span_name)
                    .map(Span::dur_ns)
                    .sum();
                total as f64 * 1e-9 / setup_s.len() as f64
            } else {
                let per_pass: Vec<f64> = traced
                    .iter()
                    .map(|p| {
                        p.spans
                            .iter()
                            .filter(|s| s.name == span_name)
                            .map(|s| s.dur_ns() as f64 * 1e-9)
                            .sum()
                    })
                    .collect();
                median(&per_pass)
            };
            put(metric, "s", value);
        }
        let util: Vec<f64> = plain
            .iter()
            .map(|p| p.job_s.iter().sum::<f64>() / (workers as f64 * p.wall_s))
            .collect();
        put("sim.pool_util", "ratio", median(&util));
        put("sim.ns_per_warp_inst", "ns", run_s * 1e9 / warp_insts);
        put("sim.ns_per_cycle", "ns", run_s * 1e9 / cycles);
        let l1d_accesses = first.mem.l1d_line_accesses.get() as f64;
        put("sim.ns_per_l1d_access", "ns", run_s * 1e9 / l1d_accesses);
        let traced_s: f64 = best_per_job(&traced, jobs, |p| &p.job_s).iter().sum();
        put("trace.overhead_s", "s", traced_s - jobs_s);
        for (name, unit, value) in first.counts() {
            put(name, unit, value);
        }
    } else {
        put("jobs_s", "s", jobs_s);
        put("setup_s", "s", median(&setup_s));
        put("sim_minsts_per_s", "Minst/s", warp_insts / run_s / 1e6);
        put("sim_mcycles_per_s", "Mcycle/s", cycles / run_s / 1e6);
        put("peak_rss_mb", "MB", rss_mb);
        put("kernel_ms_p50", "ms", quantile(&best_job, 0.5) * 1e3);
    }

    let self_table = o
        .trace
        .then(|| self_time_table(&setup_spans, setup_s.len(), workers, &traced));
    let traced_walls = traced.iter().map(|p| p.wall_s).collect();
    // The file keeps the set-up spans and the first traced pass; the table
    // and metrics above use every traced pass. That keeps the file to one
    // pass plus a few `kernels.build` spans per pass (about 12k spans in a
    // 30 s run of any workload).
    let mut spans = setup_spans;
    spans.extend(traced.into_iter().take(1).flat_map(|p| p.spans));
    Report {
        workload: w,
        metrics,
        fingerprints,
        attempted,
        failures,
        plain_walls: plain.iter().map(|p| p.wall_s).collect(),
        traced_walls,
        jobs,
        workers,
        working_sets: inputs.working_sets(),
        kernel_ms_p99: quantile(&best_job, 0.99) * 1e3,
        self_table,
        spans,
    }
}

/// Per-span-name calls, total and self time per traced pass, with self
/// time as a share of the pass's worker time (workers x wall), followed by
/// the set-up spans per set-up repetition.
fn self_time_table(setup_spans: &[Span], reps: usize, workers: usize, traced: &[Pass]) -> String {
    let n = traced.len().max(1) as f64;
    let worker_s: f64 = traced.iter().map(|p| p.wall_s).sum::<f64>() * workers as f64 / n;
    let pass_spans: Vec<Span> = traced
        .iter()
        .flat_map(|p| p.spans.iter().cloned())
        .collect();
    let mut s = format!(
        "{:<20} {:>10} {:>12} {:>12} {:>8}\n",
        "span (per pass)", "calls", "total_s", "self_s", "self_%"
    );
    for (name, (calls, total, selft)) in trace::self_times(&pass_spans) {
        let _ = writeln!(
            s,
            "{name:<20} {:>10.0} {:>12.6} {:>12.6} {:>8.1}",
            calls as f64 / n,
            total / n,
            selft / n,
            100.0 * selft / n / worker_s
        );
    }
    let r = reps.max(1) as f64;
    for (name, (calls, total, selft)) in trace::self_times(setup_spans) {
        let _ = writeln!(
            s,
            "{name:<20} {:>10.0} {:>12.6} {:>12.6} {:>8}",
            calls as f64 / r,
            total / r,
            selft / r,
            "set-up"
        );
    }
    s
}

/// Compares this run's fingerprint with the one stored for the same
/// sources, workload, scale, seed and kernel count; stores it if new.
fn check_stored_fingerprint(env: &Env, o: &Opts, r: &Report) -> Result<(), String> {
    let Some(&fp) = r.fingerprints.first() else {
        return Ok(());
    };
    let key = format!(
        "{:016x}\t{}\t{:?}\t{}\t{}",
        env.src_hash,
        r.workload.name(),
        SCALE,
        o.seed,
        o.kernels
    );
    let path = out_dir().join("fingerprints.tsv");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    for line in text.lines() {
        if let Some((k, v)) = line.rsplit_once('\t') {
            if k == key {
                return if v == format!("{fp:016x}") {
                    Ok(())
                } else {
                    Err(format!(
                        "model fingerprint {fp:016x} differs from {v} recorded by an earlier run of the same sources and seed"
                    ))
                };
            }
        }
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&path, format!("{text}{key}\t{fp:016x}\n")).map_err(|e| e.to_string())
}

fn print_report(env: &Env, o: &Opts, r: &Report) -> Vec<String> {
    let mut problems: Vec<String> = r.failures.clone();
    if !r.consistent() {
        problems.push(format!(
            "model fingerprints differ between passes: {:x?}",
            r.fingerprints
        ));
    }
    if let Err(e) = check_stored_fingerprint(env, o, r) {
        problems.push(e);
    }
    println!(
        "== {} seed={} scale={:?} trace={}, {} jobs/pass, {} worker(s)",
        r.workload.name(),
        o.seed,
        SCALE,
        u8::from(o.trace),
        r.jobs,
        r.workers
    );
    let walls = |v: &[f64]| {
        v.iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("untraced pass walls (s): {}", walls(&r.plain_walls));
    if o.trace {
        println!("traced pass walls (s): {}", walls(&r.traced_walls));
    }
    if !r.working_sets.is_empty() {
        let l2 = dws_sim::SimConfig::paper(dws_core::Policy::conventional())
            .mem
            .l2
            .size_bytes;
        let sets: Vec<String> = r
            .working_sets
            .iter()
            .map(|(n, b)| format!("{n} {} KiB", b / 1024))
            .collect();
        let resident = r.working_sets.iter().all(|&(_, b)| b <= l2);
        println!(
            "working sets: {} (L2 {} KiB, all L2-resident: {resident})",
            sets.join(", "),
            l2 / 1024
        );
    }
    let fp = r.fingerprints.first().copied().unwrap_or(0);
    println!(
        "model fingerprint: {fp:016x} ({} passes, {})",
        r.fingerprints.len(),
        if r.consistent() {
            "identical"
        } else {
            "DIFFERENT"
        }
    );
    println!(
        "attempted {} jobs, failed {}; kernel_ms_p99 {:.3} ms (printed, not gated)",
        r.attempted,
        r.failures.len(),
        r.kernel_ms_p99
    );
    for m in &r.metrics {
        println!("  {:<26} {:>18} {}", m.name, fmt_num(m.value), m.unit);
    }
    if let Some(t) = &r.self_table {
        print!("{t}");
        let path = out_dir().join(format!("spans-{}-seed{}.json", r.workload.name(), o.seed));
        match std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, trace::to_json(&r.spans)))
        {
            Ok(()) => println!("{} spans written to {}", r.spans.len(), path.display()),
            Err(e) => problems.push(format!("writing spans: {e}")),
        }
    }
    for p in problems.iter().take(10) {
        eprintln!("error: {}: {p}", r.workload.name());
    }
    problems
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// The final result line.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &Metric)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(bench: &json::Value, key: &str) -> BTreeSet<(String, String)> {
    bench
        .get(key)
        .map(json::Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Runs every workload for a single pass, with 40 generated kernels,
/// traced and untraced, and checks that each run is correct and prints exactly the metrics `BENCHMARK.json`
/// declares.
fn self_test(env: &Env) -> Vec<String> {
    let mut problems = Vec::new();
    let path = repo_root().join("BENCHMARK.json");
    let bench = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t))
    {
        Ok(b) => b,
        Err(e) => return vec![format!("{}: {e}", path.display())],
    };
    let names: BTreeSet<String> = bench
        .get("workloads")
        .map(json::Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect();
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    if names != ours {
        problems.push(format!(
            "workloads: BENCHMARK.json {names:?}, benchmark {ours:?}"
        ));
    }
    let want_e2e = declared(&bench, "end_to_end");
    let want_layer = declared(&bench, "per_layer");
    let consts: BTreeSet<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect();
    if consts != want_e2e {
        problems.push("END_TO_END differs from BENCHMARK.json end_to_end".to_string());
    }
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = Opts {
                workloads: vec![w],
                seed: 7,
                seconds: 0.0,
                trace,
                kernels: 40,
                self_test: true,
            };
            let r = measure(w, &o, env.nproc);
            let got: BTreeSet<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let want = if trace { &want_layer } else { &want_e2e };
            if &got != want {
                let missing: Vec<_> = want.difference(&got).collect();
                let extra: Vec<_> = got.difference(want).collect();
                problems.push(format!(
                    "{} trace={trace}: metrics missing {missing:?}, undeclared {extra:?}",
                    w.name()
                ));
            }
            if let Some(m) = r.metrics.iter().find(|m| !m.value.is_finite()) {
                problems.push(format!(
                    "{} trace={trace}: {} is not a number",
                    w.name(),
                    m.name
                ));
            }
            problems.extend(r.failures.iter().map(|f| format!("{}: {f}", w.name())));
            if !r.consistent() {
                problems.push(format!("{}: fingerprints differ between passes", w.name()));
            }
            println!(
                "self-test {:<9} trace={} {} jobs, fingerprint {:016x}",
                w.name(),
                u8::from(trace),
                r.attempted,
                r.fingerprints.first().copied().unwrap_or(0)
            );
        }
    }
    problems
}

fn main() {
    let cleared = pin_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <compute|divergent|memory|toolchain|all> --seed <n> \
                 --seconds <s> --trace <0|1> | --self-test"
            );
            std::process::exit(2);
        }
    };
    let env = Env::collect(cleared);
    println!(
        "perfbench: nproc={} max_workers={MAX_WORKERS} rev={} src={:016x} rustc=\"{}\" cleared_env={:?}",
        env.nproc, env.rev, env.src_hash, env.rustc, env.cleared
    );
    if o.self_test {
        let problems = self_test(&env);
        for p in &problems {
            eprintln!("self-test: {p}");
        }
        println!(
            "self-test: {}",
            if problems.is_empty() { "ok" } else { "FAILED" }
        );
        std::process::exit(i32::from(!problems.is_empty()));
    }

    let reports: Vec<Report> = o
        .workloads
        .iter()
        .map(|&w| measure(w, &o, env.nproc))
        .collect();
    let mut problems = 0usize;
    for r in &reports {
        problems += print_report(&env, &o, r).len();
    }
    let single = reports.len() == 1;
    let metrics: Vec<(String, &Metric)> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if single {
                    m.name.to_string()
                } else {
                    format!("{}.{}", r.workload.name(), m.name)
                };
                (name, m)
            })
        })
        .collect();
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failures.len() as u64).sum();
    let correct = problems == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    std::process::exit(i32::from(!correct));
}
