//! The four workloads: set-up (input building) and one measured pass each.
//!
//! Every layer is driven only through the simulator's public calls:
//! `Benchmark::build`, `SimConfig`, `Machine::{new, run}`,
//! `SweepRunner::run_streaming`, `KernelSpec::verify`, `RunResult` fields,
//! `presets::figure13_policies` and the `dws_isa` toolchain entry points.

use crate::tally::Tally;
use crate::trace::{span, SpanId, Tracer};
use dws_core::Policy;
use dws_isa::gen::{self, GenConfig};
use dws_isa::{Inst, Program, ReferenceRunner, VecMemory};
use dws_kernels::{Benchmark, BufferLayout, KernelSpec, MeldKernel, Scale};
use dws_sim::{presets, Machine, SimConfig, SweepRunner};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Threads of the toolchain workload's timed machine (2 WPUs x 8 lanes x
/// 2 warps, the fuzz-canonical machine generated kernels are sized for).
const TINY_THREADS: u64 = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compute,
    Divergent,
    Memory,
    Toolchain,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Compute,
        Workload::Divergent,
        Workload::Memory,
        Workload::Toolchain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compute => "compute",
            Workload::Divergent => "divergent",
            Workload::Memory => "memory",
            Workload::Toolchain => "toolchain",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The Figure 13 kernels a simulation workload sweeps.
    fn benchmarks(self) -> &'static [Benchmark] {
        match self {
            Workload::Compute => &[Benchmark::KMeans, Benchmark::Filter],
            Workload::Divergent => &[Benchmark::Merge, Benchmark::Short],
            Workload::Memory => &[
                Benchmark::Fft,
                Benchmark::HotSpot,
                Benchmark::Lu,
                Benchmark::Svm,
            ],
            Workload::Toolchain => &[],
        }
    }
}

/// What one pass over a workload measured.
#[derive(Default)]
pub struct PassOut {
    /// Host seconds to run and verify every job.
    pub wall_s: f64,
    /// Host seconds per job (a sweep point, or one toolchain kernel).
    pub job_s: Vec<f64>,
    /// Host seconds inside `Machine::run`, per job.
    pub run_s: Vec<f64>,
    /// Model statistics of every successful simulation.
    pub tally: Tally,
    /// Jobs attempted.
    pub attempted: u64,
    /// One line per failed job.
    pub failures: Vec<String>,
}

/// A sweep point of a simulation workload.
pub struct SimJob {
    label: String,
    config: SimConfig,
    spec: Arc<KernelSpec>,
}

/// Built inputs of a workload.
pub enum Inputs {
    Sim(Vec<SimJob>),
    Toolchain {
        generated: Vec<GenKernel>,
        /// The meldable kernels, run after the generated ones.
        fixed: Vec<KernelSpec>,
    },
}

/// A generated kernel of the toolchain workload: its generator seed and
/// input image.
pub struct GenKernel {
    seed: u64,
    memory: VecMemory,
}

impl Inputs {
    /// Bytes of initial memory per simulated kernel, for the working-set
    /// report: `(name, bytes)`.
    pub fn working_sets(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        if let Inputs::Sim(jobs) = self {
            for j in jobs {
                if out.last().map(|l| l.0) != Some(j.spec.name) {
                    out.push((j.spec.name, j.spec.memory.size_bytes()));
                }
            }
        }
        out
    }

    /// Jobs in one pass.
    pub fn jobs(&self) -> usize {
        match self {
            Inputs::Sim(jobs) => jobs.len(),
            Inputs::Toolchain { generated, fixed } => generated.len() + fixed.len(),
        }
    }
}

/// Builds a workload's inputs from `seed`. Each kernel build is a
/// `kernels.build` span.
pub fn setup(
    w: Workload,
    scale: Scale,
    seed: u64,
    kernels: usize,
    tracer: Option<&Tracer>,
) -> Inputs {
    let build = |f: &dyn Fn() -> KernelSpec| span(tracer, "kernels.build", None, 0, |_| f());
    if w == Workload::Toolchain {
        let base = seed.wrapping_mul(1_000_000);
        let generated = (0..kernels as u64)
            .map(|i| gen_inputs(base.wrapping_add(i)))
            .collect();
        let fixed = MeldKernel::ALL
            .iter()
            .map(|&k| build(&|| k.build(Scale::Test, seed)))
            .collect();
        return Inputs::Toolchain { generated, fixed };
    }
    let mut jobs = Vec::new();
    for &b in w.benchmarks() {
        let spec = Arc::new(build(&|| b.build(scale, seed)));
        let policies =
            std::iter::once(("Conv", Policy::conventional())).chain(presets::figure13_policies());
        for (pname, policy) in policies {
            jobs.push(SimJob {
                label: format!("{}/{pname}", b.name()),
                config: SimConfig::paper(policy),
                spec: Arc::clone(&spec),
            });
        }
    }
    Inputs::Sim(jobs)
}

/// Runs one pass over the inputs on `workers` threads. `tracer` is `Some`
/// in traced passes.
pub fn run_pass(inputs: &Inputs, workers: usize, tracer: Option<&Tracer>) -> PassOut {
    match inputs {
        Inputs::Sim(jobs) => run_jobs(jobs.len(), workers, tracer, |i, pass| {
            sim_job(&jobs[i], i as u32 + 1, tracer, pass)
        }),
        Inputs::Toolchain { generated, fixed } => {
            let n = generated.len();
            run_jobs(n + fixed.len(), workers, tracer, |i, pass| {
                let kernel = match generated.get(i) {
                    Some(g) => ToolKernel::Generated(g),
                    None => ToolKernel::Fixed(&fixed[i - n]),
                };
                tool_job(kernel, i as u32 + 1, tracer, pass)
            })
        }
    }
}

/// What one job measured.
#[derive(Default)]
struct JobOut {
    dur_s: f64,
    run_s: f64,
    tally: Tally,
    failure: Option<String>,
}

/// Runs jobs `0..n` on `workers` threads, each claiming the next job when
/// it finishes one (a closed loop), and folds the results in job order.
fn run_jobs(
    n: usize,
    workers: usize,
    tracer: Option<&Tracer>,
    job: impl Fn(usize, Option<SpanId>) -> JobOut + Sync,
) -> PassOut {
    let pass_id = tracer.map(Tracer::reserve);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobOut>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                // Relaxed: the counter only hands out distinct indices.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let done = job(i, pass_id);
                *slots[i].lock().expect("job slot poisoned") = Some(done);
            });
        }
    });
    let t1 = Instant::now();
    if let (Some(tr), Some(id)) = (tracer, pass_id) {
        tr.record_as(id, "pass", None, 0, t0, t1);
    }
    let mut out = PassOut {
        wall_s: (t1 - t0).as_secs_f64(),
        attempted: n as u64,
        ..PassOut::default()
    };
    for slot in slots {
        let j = slot
            .into_inner()
            .expect("job slot poisoned")
            .expect("every claimed job fills its slot");
        out.job_s.push(j.dur_s);
        out.run_s.push(j.run_s);
        out.tally.merge(&j.tally);
        out.failures.extend(j.failure);
    }
    out
}

/// One Figure 13 sweep point through `SweepRunner::run_streaming`, which
/// verifies the final memory against the kernel's host reference on the
/// same thread.
fn sim_job(job: &SimJob, id: u32, tracer: Option<&Tracer>, pass: Option<SpanId>) -> JobOut {
    let start = Instant::now();
    let jid = tracer.map(Tracer::reserve);
    if let Some(tr) = tracer {
        let a = Instant::now();
        drop(std::hint::black_box(Machine::new(&job.config, &job.spec)));
        tr.record("sim.machine_new", jid, id, a, Instant::now());
    }
    let run_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut sweep = SweepRunner::new().with_workers(1);
        sweep.add(job.label.clone(), job.config, &job.spec);
        sweep
            .run_streaming()
            .pop()
            .expect("a one-job sweep returns one outcome")
    }));
    let end = Instant::now();
    let mut out = JobOut {
        dur_s: (end - start).as_secs_f64(),
        ..JobOut::default()
    };
    let host_seconds = match outcome {
        Ok(o) => {
            match o.result {
                Ok(r) => out.tally.add(&job.label, &r),
                Err(e) => out.failure = Some(format!("{}: {e}", job.label)),
            }
            o.host_seconds
        }
        Err(p) => {
            out.failure = Some(format!("{}: panic: {}", job.label, panic_text(p.as_ref())));
            (end - run_start).as_secs_f64()
        }
    };
    out.run_s = host_seconds;
    if let (Some(tr), Some(jid)) = (tracer, jid) {
        // `host_seconds` is the sweep's own timing of `Machine::run`; the
        // rest of the job is verification and dropping the image.
        let run_end = (run_start + Duration::from_secs_f64(host_seconds)).min(end);
        tr.record("sim.run", Some(jid), id, run_start, run_end);
        tr.record("sim.check", Some(jid), id, run_end, end);
        tr.record_as(jid, "sim.job", pass, id, start, end);
    }
    out
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The tiny timed machine toolchain kernels run on.
fn tiny_config(policy: Policy) -> SimConfig {
    SimConfig::paper(policy)
        .with_wpus(2)
        .with_width(8)
        .with_warps(2)
}

/// SplitMix64: the generated kernels' input words.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One kernel of the toolchain workload.
#[derive(Clone, Copy)]
enum ToolKernel<'a> {
    Generated(&'a GenKernel),
    Fixed(&'a KernelSpec),
}

/// One toolchain kernel through the whole pipeline.
fn tool_job(
    kernel: ToolKernel<'_>,
    id: u32,
    tracer: Option<&Tracer>,
    pass: Option<SpanId>,
) -> JobOut {
    let label = match kernel {
        ToolKernel::Generated(g) => format!("gen-{}", g.seed),
        ToolKernel::Fixed(spec) => spec.name.to_string(),
    };
    let start = Instant::now();
    let kid = tracer.map(Tracer::reserve);
    let ctx = Ctx {
        tracer,
        parent: kid,
        job: id,
        label,
    };
    let mut out = JobOut::default();
    let res = catch_unwind(AssertUnwindSafe(|| match kernel {
        ToolKernel::Generated(g) => generated_kernel(&ctx, g, &mut out),
        ToolKernel::Fixed(spec) => fixed_kernel(&ctx, spec, &mut out),
    }))
    .unwrap_or_else(|p| Err(format!("panic: {}", panic_text(p.as_ref()))));
    let end = Instant::now();
    if let (Some(tr), Some(kid)) = (tracer, kid) {
        tr.record_as(kid, "toolchain.kernel", pass, id, start, end);
    }
    out.dur_s = (end - start).as_secs_f64();
    if let Err(e) = res {
        out.failure = Some(format!("{}: {e}", ctx.label));
    }
    out
}

/// Tracing context of one toolchain kernel.
struct Ctx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<SpanId>,
    job: u32,
    label: String,
}

impl Ctx<'_> {
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        span(self.tracer, name, self.parent, self.job, |_| f())
    }
}

/// A generated kernel's input image: the shared input region filled from
/// `seed`, private windows and outputs zeroed.
fn gen_inputs(seed: u64) -> GenKernel {
    let mut memory = VecMemory::new(gen::mem_words(TINY_THREADS) * 8);
    let mut state = seed ^ 0xF022_5EED_DA7A_0001;
    for w in 0..gen::IN_WORDS as u64 {
        memory.write_i64(w * 8, splitmix(&mut state) as i64);
    }
    GenKernel { seed, memory }
}

fn generated_kernel(ctx: &Ctx<'_>, g: &GenKernel, out: &mut JobOut) -> Result<(), String> {
    let cfg = GenConfig {
        nthreads: TINY_THREADS,
        ..GenConfig::default()
    };
    let ast = ctx.span("isa.generate", || gen::generate(g.seed, &cfg));
    let program = ctx
        .span("isa.compile", || ast.compile())
        .map_err(|e| format!("compile: {e}"))?;
    let layout = BufferLayout::of(&gen::layout(TINY_THREADS));
    pipeline(ctx, program, g.memory.clone(), layout, None, out)
}

fn fixed_kernel(ctx: &Ctx<'_>, spec: &KernelSpec, out: &mut JobOut) -> Result<(), String> {
    let insts: Vec<Inst> = spec.program.insts().to_vec();
    let program = ctx
        .span("isa.compile", || Program::from_insts(insts))
        .map_err(|e| format!("compile: {e}"))?;
    pipeline(
        ctx,
        program,
        spec.memory.clone(),
        spec.layout.clone(),
        Some(spec),
        out,
    )
}

/// asm round trip, meld, reference run, then the timed machine under Conv
/// and DWS.ReviveSplit for the original and (when it changed) the melded
/// program; every final image must equal the reference image.
fn pipeline(
    ctx: &Ctx<'_>,
    program: Program,
    memory: VecMemory,
    layout: BufferLayout,
    host: Option<&KernelSpec>,
    out: &mut JobOut,
) -> Result<(), String> {
    let reparsed = ctx.span("isa.asm", || {
        dws_isa::parse_asm(&dws_isa::render_asm(&program))
    });
    match reparsed {
        Ok(p) if p.insts() == program.insts() => {}
        Ok(_) => return Err("asm round trip changed the program".to_string()),
        Err(e) => return Err(format!("asm round trip: {e}")),
    }
    let melded = ctx.span("isa.meld", || {
        let out = dws_isa::meld(program.insts()).map_err(|e| format!("meld: {e}"))?;
        if out.changed() {
            Program::from_insts(out.insts)
                .map(Some)
                .map_err(|e| format!("melded program: {e}"))
        } else {
            Ok(None)
        }
    })?;
    let expected = ctx.span("isa.interp", || {
        let mut image = memory.clone();
        ReferenceRunner::new(&program, TINY_THREADS)
            .run(&mut image)
            .map(|_| Arc::new(image.words().to_vec()))
    })?;

    let mut variants = vec![("orig", program)];
    variants.extend(melded.map(|p| ("meld", p)));
    for (tag, program) in variants {
        let want = Arc::clone(&expected);
        let spec = KernelSpec::new("toolchain", program, memory.clone(), move |m| {
            if m.words() == want.as_slice() {
                Ok(())
            } else {
                Err("final memory differs from the reference interpreter".to_string())
            }
        })
        .with_layout(layout.clone());
        for (pname, policy) in [
            ("Conv", Policy::conventional()),
            ("DWS.ReviveSplit", Policy::dws_revive()),
        ] {
            let config = tiny_config(policy);
            if ctx.tracer.is_some() {
                ctx.span("sim.machine_new", || {
                    drop(std::hint::black_box(Machine::new(&config, &spec)));
                });
            }
            let t = Instant::now();
            let run = ctx.span("sim.run", || Machine::run(&config, &spec));
            out.run_s += t.elapsed().as_secs_f64();
            let r = run.map_err(|e| format!("{tag}/{pname}: {e}"))?;
            ctx.span("sim.check", || {
                spec.verify(&r.memory)?;
                host.map_or(Ok(()), |h| h.verify(&r.memory))
            })
            .map_err(|e| format!("{tag}/{pname}: {e}"))?;
            out.tally.add(&format!("{}/{tag}/{pname}", ctx.label), &r);
        }
    }
    Ok(())
}
