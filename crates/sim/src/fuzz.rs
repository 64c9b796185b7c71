//! Verifier-guided differential fuzzing of the whole simulator.
//!
//! The simulator carries a set of pairwise equivalence oracles, the fuzz
//! *axes*, checked in this order:
//!
//! 1. every scheduling policy's event-driven run vs the scalar reference
//!    interpreter's memory image;
//! 2. the cycle-stepped run vs the event-driven run;
//! 3. the legacy per-lane (ShadowLane) engine vs the µop engine;
//! 4. fault-injected (chaos) timing vs the reference image;
//! 5. the control-flow-melded kernel vs its unmelded reference image.
//!
//! [`run_campaign`] draws verifier-accepted random kernels from
//! [`dws_isa::gen`], runs each one across all the axes on a small
//! canonical machine, and classifies any disagreement, watchdog
//! diagnostic, or caught panic into a structured [`FuzzFailure`].
//!
//! A failing kernel is then handed to [`minimize`], a delta-debugging
//! loop over the generator's statement AST: drop statements, inline
//! diamond arms, unwrap loops, collapse trip counts, simplify memory
//! operations — accepting only candidates that still verify and still
//! fail with the *same* [`FailureClass`]. The shrunk kernel renders to
//! assembly ([`dws_isa::render_asm`]) as a checked-in reproducer.
//!
//! Everything is deterministic: the same seed range produces the same
//! kernels, the same axis order, and byte-identical JSON reports
//! ([`FuzzReport::to_json`] contains no timestamps and hashes the
//! configuration with the simulator's fixed-seed [`FastHasher`]).
//!
//! # The canonical fuzz machine
//!
//! 2 WPUs x 8-wide x 2 warps = 32 threads — big enough for inter-WPU
//! coherence traffic, cross-warp barrier coordination, and warp-split
//! pressure, small enough that a full differential battery on one kernel
//! is a few milliseconds.

use crate::config::{SimConfig, SimError};
use crate::machine::Machine;
use crate::metrics::RunResult;
use crate::sweep::{panic_payload, SweepRunner};
use dws_core::{MemSplit, Policy};
use dws_engine::fault::FaultPlan;
use dws_engine::hash::FastHasher;
use dws_engine::rng::Rng64;
use dws_isa::gen::{self, GenConfig, GenOp, GenStmt, GenVal, KernelAst};
use dws_isa::{render_asm, ReferenceRunner, VecMemory};
use dws_kernels::{BufferLayout, KernelSpec};
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// WPUs in the canonical fuzz machine.
pub const FUZZ_WPUS: usize = 2;
/// SIMD width of the canonical fuzz machine.
pub const FUZZ_WIDTH: usize = 8;
/// Warps per WPU in the canonical fuzz machine.
pub const FUZZ_WARPS: usize = 2;
/// Threads the canonical machine launches (and generated kernels target).
pub const FUZZ_THREADS: u64 = (FUZZ_WPUS * FUZZ_WIDTH * FUZZ_WARPS) as u64;

/// Test-only result perturbations: deterministic, intentionally-wrong
/// observations injected *after* simulation so the harness's detection,
/// classification, and minimization paths can be exercised without a real
/// simulator bug on hand. [`Perturbation::None`] in all production use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Perturbation {
    /// No perturbation (production).
    None,
    /// Report the stepped run one cycle late — a guaranteed
    /// [`FailureClass::CycleMismatch`] on the stepped axis.
    SkewStepped,
    /// Flip one bit of the chaos run's final memory — a guaranteed
    /// [`FailureClass::MemoryMismatch`] on the chaos axis.
    CorruptChaos,
    /// Flip one bit of the melded run's final memory (and force the meld
    /// axis to run even on kernels the transform leaves unchanged) — a
    /// guaranteed [`FailureClass::MemoryMismatch`] on the meld axis.
    CorruptMeld,
}

/// Which oracle axis observed a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Event-driven run under the named policy, against the scalar
    /// reference interpreter's memory image.
    Policy(&'static str),
    /// Cycle-stepped run vs the event-driven run (canonical policy).
    Stepped,
    /// Legacy ShadowLane interpretation vs the µop engine (canonical
    /// policy).
    Legacy,
    /// Full-chaos fault injection vs the reference memory image (faults
    /// are timing-only; results must not change).
    Chaos,
    /// The control-flow-melded kernel ([`dws_isa::meld`]) vs the
    /// *unmelded* reference memory image: the static transform must be
    /// semantics-preserving on every kernel the fuzzer produces.
    Meld,
}

impl Axis {
    /// Stable label used in JSON reports and replay output.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Axis::Policy(p) => format!("policy:{p}"),
            Axis::Stepped => "stepped".to_string(),
            Axis::Legacy => "legacy-engine".to_string(),
            Axis::Chaos => "chaos".to_string(),
            Axis::Meld => "meld".to_string(),
        }
    }
}

/// Which watchdog tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogKind {
    /// Cycle budget elapsed ([`SimError::Timeout`]).
    Timeout,
    /// No progress possible ([`SimError::Deadlock`]).
    Deadlock,
    /// Cycles advance without retires ([`SimError::Livelock`]).
    Livelock,
    /// Host wall-clock budget elapsed ([`SimError::HostBudget`]).
    HostBudget,
}

impl WatchdogKind {
    fn label(self) -> &'static str {
        match self {
            WatchdogKind::Timeout => "timeout",
            WatchdogKind::Deadlock => "deadlock",
            WatchdogKind::Livelock => "livelock",
            WatchdogKind::HostBudget => "host-budget",
        }
    }
}

/// Structured classification of one differential failure. Minimization
/// preserves the class: a candidate kernel is accepted only if it still
/// fails with an *equal* `FailureClass`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Final memory differs from the axis's baseline.
    MemoryMismatch(Axis),
    /// Cycle count differs between two engines that must agree exactly.
    CycleMismatch(Axis),
    /// A watchdog aborted the run on this axis.
    Watchdog(WatchdogKind, Axis),
    /// The simulator panicked on this axis (caught and isolated).
    Panic(Axis),
    /// The scalar reference interpreter itself rejected the kernel — a
    /// generator bug, reported rather than masked.
    ReferenceError,
    /// The melding transform itself failed on a verifier-accepted kernel
    /// (refused the input or emitted output its own re-verification
    /// rejects) — a transform bug, distinct from a downstream mismatch.
    TransformError,
}

impl FailureClass {
    /// Stable `kind@axis` label used in JSON reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            FailureClass::MemoryMismatch(a) => format!("memory-mismatch@{}", a.label()),
            FailureClass::CycleMismatch(a) => format!("cycle-mismatch@{}", a.label()),
            FailureClass::Watchdog(k, a) => format!("watchdog-{}@{}", k.label(), a.label()),
            FailureClass::Panic(a) => format!("panic@{}", a.label()),
            FailureClass::ReferenceError => "reference-error".to_string(),
            FailureClass::TransformError => "meld-transform-error".to_string(),
        }
    }
}

/// One observed failure: the class plus a human-readable detail line
/// (mismatching word, watchdog diagnostics, panic payload).
#[derive(Debug, Clone)]
pub struct FuzzFinding {
    /// Structured classification.
    pub class: FailureClass,
    /// Detail for the report (first differing word, diagnostics, ...).
    pub message: String,
}

/// A minimized reproducer, ready to check into the corpus.
#[derive(Debug, Clone)]
pub struct MinimizedRepro {
    /// The shrunk AST (recompilable, still failing with the same class).
    pub ast: KernelAst,
    /// Instruction count of the compiled reproducer.
    pub insts: usize,
    /// The reproducer rendered as `parse_asm`-compatible text.
    pub asm: String,
}

/// A fully-described campaign failure.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Generator seed that produced the kernel.
    pub seed: u64,
    /// Structured classification.
    pub class: FailureClass,
    /// Detail line from the failing axis.
    pub message: String,
    /// Instruction count of the original generated kernel.
    pub insts: usize,
    /// Delta-debugged reproducer, when minimization was requested.
    pub minimized: Option<MinimizedRepro>,
    /// Command that replays exactly this failure.
    pub replay: String,
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// First generator seed.
    pub seed_start: u64,
    /// Number of consecutive seeds to check.
    pub seeds: u64,
    /// Kernel-generator knobs ([`GenConfig::nthreads`] must stay
    /// [`FUZZ_THREADS`]).
    pub gen: GenConfig,
    /// Restrict the policy axis to one policy (default: all eleven).
    pub policy: Option<Policy>,
    /// Cycle budget per simulation.
    pub max_cycles: u64,
    /// Host wall-clock budget per sweep job (panic-isolated policy axis).
    pub job_budget: Option<Duration>,
    /// Delta-debug failing kernels down to minimal reproducers.
    pub minimize: bool,
    /// Run the melded-vs-unmelded axis ([`Axis::Meld`]).
    pub meld: bool,
    /// Test-only fault injection into the harness itself.
    pub perturb: Perturbation,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed_start: 0,
            seeds: 100,
            gen: GenConfig::default(),
            policy: None,
            max_cycles: 5_000_000,
            job_budget: Some(Duration::from_secs(30)),
            minimize: false,
            meld: true,
            perturb: Perturbation::None,
        }
    }
}

impl FuzzConfig {
    /// The policy whose run anchors the engine-equivalence axes (stepped,
    /// legacy, chaos): the restricted policy when one is set,
    /// else `DWS.ReviveSplit` — the paper's headline configuration and
    /// the one with the most warp-split machinery in play.
    #[must_use]
    pub fn canonical_policy(&self) -> Policy {
        self.policy.unwrap_or_else(Policy::dws_revive)
    }

    /// Deterministic hash of everything that shapes the campaign's
    /// behavior, so a report is self-describing: two reports with equal
    /// hashes ran identical configurations.
    #[must_use]
    pub fn config_hash(&self) -> u64 {
        let mut h = FastHasher::default();
        h.write_u64(self.seed_start);
        h.write_u64(self.seeds);
        h.write_u64(self.gen.nthreads);
        h.write_u64(u64::from(self.gen.max_depth));
        h.write_u64(self.gen.max_stmts as u64);
        h.write(self.policy.map_or("all", |p| p.paper_name()).as_bytes());
        h.write_u64(self.max_cycles);
        h.write_u64(self.job_budget.map_or(0, |b| b.as_millis() as u64));
        h.write_u64(u64::from(self.minimize));
        h.write_u64(u64::from(self.meld));
        h.write_u64(self.perturb as u64);
        h.write_u64(FUZZ_THREADS);
        h.finish()
    }
}

/// The eleven scheduling policies of the policy axis.
#[must_use]
pub fn fuzz_policies() -> Vec<Policy> {
    vec![
        Policy::conventional(),
        Policy::dws_branch_stack(),
        Policy::dws_branch_only(),
        Policy::dws_mem_only(),
        Policy::dws_aggress(),
        Policy::dws_lazy(),
        Policy::dws_revive(),
        Policy::dws_revive_throttled(),
        Policy::dws_branch_limited(MemSplit::Revive),
        Policy::slip(),
        Policy::slip_branch_bypass(),
    ]
}

/// The canonical machine configuration for one fuzz simulation.
fn fuzz_sim_config(policy: Policy, max_cycles: u64) -> SimConfig {
    let mut c = SimConfig::paper(policy)
        .with_wpus(FUZZ_WPUS)
        .with_width(FUZZ_WIDTH)
        .with_warps(FUZZ_WARPS);
    c.max_cycles = max_cycles;
    c
}

/// Builds the runnable spec for a compiled fuzz kernel: input region
/// seeded from `Rng64(seed)`, private windows and outputs zeroed, verifier
/// comparing the full final image against the reference interpreter's.
///
/// Returns `Err` with the interpreter's message when the reference run
/// itself fails (a generator bug, classified [`FailureClass::ReferenceError`]).
fn build_spec(program: dws_isa::Program, seed: u64) -> Result<(Arc<KernelSpec>, Vec<u64>), String> {
    let mut memory = VecMemory::new(gen::mem_words(FUZZ_THREADS) * 8);
    let mut rng = Rng64::new(seed ^ 0xF022_5EED_DA7A_0001);
    for w in 0..gen::IN_WORDS as u64 {
        memory.write_i64(w * 8, rng.next_u64() as i64);
    }
    let mut expected_mem = memory.clone();
    ReferenceRunner::new(&program, FUZZ_THREADS).run(&mut expected_mem)?;
    let expected: Vec<u64> = expected_mem.words().to_vec();
    let check = expected.clone();
    let spec = KernelSpec::new("fuzz-kernel", program, memory, move |mem| {
        if mem.words() == check.as_slice() {
            Ok(())
        } else {
            Err("final memory differs from the reference interpreter".to_string())
        }
    })
    .with_layout(BufferLayout::of(&gen::layout(FUZZ_THREADS)));
    Ok((Arc::new(spec), expected))
}

/// Steps a fresh machine cycle by cycle until it finishes or reaches
/// `limit` cycles; `uop` selects the µop engine or the legacy per-lane
/// one. Returns whether it finished, and its result.
fn step_until(config: &SimConfig, spec: &KernelSpec, limit: u64, uop: bool) -> (bool, RunResult) {
    let mut m = Machine::new(config, spec);
    for w in &mut m.wpus {
        w.set_uop_engine(uop);
    }
    while !m.done() && m.now().raw() < limit {
        m.step();
    }
    (m.done(), m.into_result())
}

/// First differing word between two memory images, as a detail string.
fn first_diff(got: &[u64], want: &[u64]) -> String {
    if got.len() != want.len() {
        return format!("memory sizes differ: {} vs {} words", got.len(), want.len());
    }
    for (w, (g, e)) in got.iter().zip(want).enumerate() {
        if g != e {
            return format!("word {w}: got {g:#x}, expected {e:#x}");
        }
    }
    "images equal".to_string()
}

/// Classifies a [`SimError`] on `axis`.
fn classify_err(e: &SimError, axis: Axis) -> FuzzFinding {
    let (kind, detail) = match e {
        SimError::Timeout { cycles, .. } => (WatchdogKind::Timeout, format!("at cycle {cycles}")),
        SimError::Deadlock {
            cycles,
            diagnostics,
        } => (
            WatchdogKind::Deadlock,
            format!("at cycle {cycles}: {diagnostics}"),
        ),
        SimError::Livelock {
            cycles,
            stalled_for,
            ..
        } => (
            WatchdogKind::Livelock,
            format!("at cycle {cycles} after {stalled_for} retire-free cycles"),
        ),
        SimError::HostBudget { cycles, budget } => (
            WatchdogKind::HostBudget,
            format!("{:.1}s budget at cycle {cycles}", budget.as_secs_f64()),
        ),
        SimError::Panicked { payload, .. } => {
            return FuzzFinding {
                class: FailureClass::Panic(axis),
                message: payload.clone(),
            }
        }
        SimError::VerifyFailed { message, .. } => {
            return FuzzFinding {
                class: FailureClass::MemoryMismatch(axis),
                message: message.clone(),
            }
        }
    };
    FuzzFinding {
        class: FailureClass::Watchdog(kind, axis),
        message: detail,
    }
}

/// Runs one compiled kernel across every oracle axis; `None` means all
/// axes agree. Axis order is fixed (policies in registry order, then
/// stepped, legacy engine, chaos, meld), and the first failure
/// wins, so classification is deterministic.
///
/// # Errors
///
/// `Err` when the AST no longer compiles/verifies — minimization
/// candidates take this path and are skipped.
pub fn check_ast(
    ast: &KernelAst,
    seed: u64,
    cfg: &FuzzConfig,
) -> Result<Option<FuzzFinding>, String> {
    assert_eq!(
        ast.nthreads, FUZZ_THREADS,
        "fuzz kernels target the canonical {FUZZ_THREADS}-thread machine"
    );
    let program = ast.compile().map_err(|e| e.to_string())?;
    Ok(check_program(program, seed, cfg))
}

/// [`check_ast`] for an already-compiled (or re-parsed) program — the
/// entry point corpus replay uses for checked-in `.asm` reproducers. The
/// program must target the canonical machine's thread count and memory
/// layout ([`gen::layout`] at [`FUZZ_THREADS`] threads).
pub fn check_program(
    program: dws_isa::Program,
    seed: u64,
    cfg: &FuzzConfig,
) -> Option<FuzzFinding> {
    let (spec, expected) = match build_spec(program, seed) {
        Ok(x) => x,
        Err(msg) => {
            return Some(FuzzFinding {
                class: FailureClass::ReferenceError,
                message: msg,
            })
        }
    };

    // Axis 1: every policy's event-driven run vs the reference image.
    // SweepRunner supplies panic isolation and the per-job host budget.
    let policies = match cfg.policy {
        Some(p) => vec![p],
        None => fuzz_policies(),
    };
    let canonical = cfg.canonical_policy();
    let mut sweep = SweepRunner::new().with_workers(1);
    if let Some(b) = cfg.job_budget {
        sweep = sweep.with_job_budget(b);
    }
    for &p in &policies {
        sweep.add(p.paper_name(), fuzz_sim_config(p, cfg.max_cycles), &spec);
    }
    let mut canonical_run: Option<RunResult> = None;
    for (outcome, &p) in sweep.run().into_iter().zip(&policies) {
        let axis = Axis::Policy(p.paper_name());
        match outcome.result {
            Ok(r) => {
                if r.memory.words() != expected.as_slice() {
                    return Some(FuzzFinding {
                        class: FailureClass::MemoryMismatch(axis),
                        message: first_diff(r.memory.words(), &expected),
                    });
                }
                if p == canonical {
                    canonical_run = Some(r);
                }
            }
            Err(e) => return Some(classify_err(&e, axis)),
        }
    }
    let canonical_run = canonical_run.expect("canonical policy is in the sweep");
    let config = fuzz_sim_config(canonical, cfg.max_cycles);

    // Axis 2: cycle-stepped run vs the event-driven run. `Machine::run`
    // documents bit-identity with stepping, so cycles AND memory must
    // match exactly. The step loop is bounded by the event run's cycle
    // count — crossing it already proves divergence.
    let limit = canonical_run.cycles + 1;
    let stepped = catch_unwind(AssertUnwindSafe(|| step_until(&config, &spec, limit, true)));
    match stepped {
        Ok((done, r)) => {
            let mut cycles = r.cycles;
            if cfg.perturb == Perturbation::SkewStepped {
                cycles += 1;
            }
            if !done || cycles != canonical_run.cycles {
                return Some(FuzzFinding {
                    class: FailureClass::CycleMismatch(Axis::Stepped),
                    message: format!(
                        "stepped: {} cycles (done={done}), event-driven: {}",
                        cycles, canonical_run.cycles
                    ),
                });
            }
            if r.memory.words() != canonical_run.memory.words() {
                return Some(FuzzFinding {
                    class: FailureClass::MemoryMismatch(Axis::Stepped),
                    message: first_diff(r.memory.words(), canonical_run.memory.words()),
                });
            }
        }
        Err(p) => {
            return Some(FuzzFinding {
                class: FailureClass::Panic(Axis::Stepped),
                message: panic_payload(&*p),
            })
        }
    }

    // Axis 3: legacy ShadowLane interpretation vs the µop engine. Total
    // equivalence — cycles and memory. Stepped (already pinned to the
    // event-driven loop by axis 2) and bounded the same way.
    let legacy = catch_unwind(AssertUnwindSafe(|| {
        step_until(&config, &spec, limit, false)
    }));
    match legacy {
        Ok((done, r)) => {
            if !done || r.cycles != canonical_run.cycles {
                return Some(FuzzFinding {
                    class: FailureClass::CycleMismatch(Axis::Legacy),
                    message: format!(
                        "legacy engine: {} cycles (done={done}), uop engine: {}",
                        r.cycles, canonical_run.cycles
                    ),
                });
            }
            if r.memory.words() != canonical_run.memory.words() {
                return Some(FuzzFinding {
                    class: FailureClass::MemoryMismatch(Axis::Legacy),
                    message: first_diff(r.memory.words(), canonical_run.memory.words()),
                });
            }
        }
        Err(p) => {
            return Some(FuzzFinding {
                class: FailureClass::Panic(Axis::Legacy),
                message: panic_payload(&*p),
            })
        }
    }

    // Axis 4: full-chaos fault injection. Faults perturb timing only, so
    // the final memory must still match the reference image (cycles will
    // differ, by design).
    let chaos_config = config.with_fault(FaultPlan::full_chaos(seed));
    let chaos = catch_unwind(AssertUnwindSafe(|| Machine::run(&chaos_config, &spec)));
    match chaos {
        Ok(Ok(r)) => {
            let mut words = r.memory.words().to_vec();
            if cfg.perturb == Perturbation::CorruptChaos {
                if let Some(w) = words.last_mut() {
                    *w ^= 1;
                }
            }
            if words != expected {
                return Some(FuzzFinding {
                    class: FailureClass::MemoryMismatch(Axis::Chaos),
                    message: first_diff(&words, &expected),
                });
            }
        }
        Ok(Err(e)) => return Some(classify_err(&e, Axis::Chaos)),
        Err(p) => {
            return Some(FuzzFinding {
                class: FailureClass::Panic(Axis::Chaos),
                message: panic_payload(&*p),
            })
        }
    }

    // Axis 5: control-flow melding. Rewrite divergent diamonds into
    // predicated straight-line code, then require the melded kernel's
    // event-driven AND chaos runs to reproduce the unmelded reference
    // image exactly. Cycles may differ (melding exists to change them);
    // memory may not.
    if cfg.meld || cfg.perturb == Perturbation::CorruptMeld {
        let melded = match catch_unwind(AssertUnwindSafe(|| dws_isa::meld(spec.program.insts()))) {
            Ok(Ok(out)) => out,
            Ok(Err(report)) => {
                return Some(FuzzFinding {
                    class: FailureClass::TransformError,
                    message: format!("meld refused a verifier-accepted kernel:\n{report}"),
                })
            }
            Err(p) => {
                return Some(FuzzFinding {
                    class: FailureClass::Panic(Axis::Meld),
                    message: panic_payload(&*p),
                })
            }
        };
        // An unchanged kernel re-runs identically; skip the redundant
        // simulations unless a perturbation test needs the axis to fire.
        if melded.changed() || cfg.perturb == Perturbation::CorruptMeld {
            let program = match dws_isa::Program::from_insts(melded.insts) {
                Ok(p) => p,
                Err(e) => {
                    return Some(FuzzFinding {
                        class: FailureClass::TransformError,
                        message: format!("melded output fails verification: {e}"),
                    })
                }
            };
            let melded_spec = Arc::new(
                KernelSpec::new("fuzz-kernel-melded", program, spec.memory.clone(), |_| {
                    Ok(())
                })
                .with_layout(BufferLayout::of(&gen::layout(FUZZ_THREADS))),
            );
            for (run_config, tag) in [
                (config, "melded"),
                (
                    config.with_fault(FaultPlan::full_chaos(seed)),
                    "melded chaos",
                ),
            ] {
                let run =
                    catch_unwind(AssertUnwindSafe(|| Machine::run(&run_config, &melded_spec)));
                match run {
                    Ok(Ok(r)) => {
                        let mut words = r.memory.words().to_vec();
                        if cfg.perturb == Perturbation::CorruptMeld {
                            if let Some(w) = words.last_mut() {
                                *w ^= 1;
                            }
                        }
                        if words != expected {
                            return Some(FuzzFinding {
                                class: FailureClass::MemoryMismatch(Axis::Meld),
                                message: format!("{tag}: {}", first_diff(&words, &expected)),
                            });
                        }
                    }
                    Ok(Err(e)) => return Some(classify_err(&e, Axis::Meld)),
                    Err(p) => {
                        return Some(FuzzFinding {
                            class: FailureClass::Panic(Axis::Meld),
                            message: panic_payload(&*p),
                        })
                    }
                }
            }
        }
    }

    None
}

/// Shrink-ordering weight: every reduction in [`reductions`] strictly
/// decreases it, so greedy minimization terminates.
fn weight_of(stmts: &[GenStmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            GenStmt::Arith { .. } | GenStmt::Barrier => 1,
            GenStmt::Gather { .. } | GenStmt::LoadPriv { .. } | GenStmt::StorePriv { .. } => 2,
            GenStmt::Diamond { then_b, else_b, .. } => 2 + weight_of(then_b) + weight_of(else_b),
            GenStmt::Loop { trips, body } => 1 + *trips as usize + weight_of(body),
        })
        .sum()
}

/// The total shrink weight of an AST.
#[must_use]
pub fn ast_weight(ast: &KernelAst) -> usize {
    weight_of(&ast.stmts)
}

/// All single-edit reduction candidates of `stmts`, each with strictly
/// smaller weight: drop a statement, inline a diamond arm, unwrap a loop,
/// collapse a trip count, demote a memory op to plain arithmetic, and the
/// same edits recursively inside nested bodies.
fn reduce_block(stmts: &[GenStmt]) -> Vec<Vec<GenStmt>> {
    let mut out = Vec::new();
    for i in 0..stmts.len() {
        // Drop.
        let mut v = stmts.to_vec();
        v.remove(i);
        out.push(v);
        match &stmts[i] {
            GenStmt::Diamond { then_b, else_b, .. } => {
                // Inline either arm in place of the diamond.
                for arm in [then_b, else_b] {
                    let mut v = stmts.to_vec();
                    v.splice(i..=i, arm.iter().cloned());
                    out.push(v);
                }
                // Recurse into each arm.
                for (arm_idx, arm) in [then_b, else_b].into_iter().enumerate() {
                    for smaller in reduce_block(arm) {
                        let mut v = stmts.to_vec();
                        if let GenStmt::Diamond { then_b, else_b, .. } = &mut v[i] {
                            if arm_idx == 0 {
                                *then_b = smaller;
                            } else {
                                *else_b = smaller;
                            }
                        }
                        out.push(v);
                    }
                }
            }
            GenStmt::Loop { trips, body } => {
                // Unwrap: replace the loop with one copy of its body.
                let mut v = stmts.to_vec();
                v.splice(i..=i, body.iter().cloned());
                out.push(v);
                // Collapse the trip count.
                if *trips > 1 {
                    let mut v = stmts.to_vec();
                    if let GenStmt::Loop { trips, .. } = &mut v[i] {
                        *trips = 1;
                    }
                    out.push(v);
                }
                // Recurse into the body.
                for smaller in reduce_block(body) {
                    let mut v = stmts.to_vec();
                    if let GenStmt::Loop { body, .. } = &mut v[i] {
                        *body = smaller;
                    }
                    out.push(v);
                }
            }
            // Demote memory traffic to a cheap register op that keeps the
            // destination defined (so downstream reads stay valid).
            GenStmt::Gather { dst, idx } => {
                let mut v = stmts.to_vec();
                v[i] = GenStmt::Arith {
                    dst: *dst,
                    op: GenOp::Xor,
                    a: GenVal::Slot(*idx),
                    b: GenVal::Imm(0),
                };
                out.push(v);
            }
            GenStmt::LoadPriv { dst, .. } => {
                let mut v = stmts.to_vec();
                v[i] = GenStmt::Arith {
                    dst: *dst,
                    op: GenOp::Xor,
                    a: GenVal::Slot(*dst),
                    b: GenVal::Imm(0),
                };
                out.push(v);
            }
            GenStmt::StorePriv { src, .. } => {
                let mut v = stmts.to_vec();
                v[i] = GenStmt::Arith {
                    dst: *src,
                    op: GenOp::Xor,
                    a: GenVal::Slot(*src),
                    b: GenVal::Imm(0),
                };
                out.push(v);
            }
            GenStmt::Arith { .. } | GenStmt::Barrier => {}
        }
    }
    out
}

/// All single-edit reductions of `ast`.
#[must_use]
pub fn reductions(ast: &KernelAst) -> Vec<KernelAst> {
    reduce_block(&ast.stmts)
        .into_iter()
        .map(|stmts| KernelAst {
            nthreads: ast.nthreads,
            stmts,
        })
        .collect()
}

/// Why minimization refused to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinimizeError {
    /// The kernel passes every oracle axis — nothing to minimize.
    KernelPasses,
    /// The kernel no longer compiles (stale reproducer).
    CompileError(String),
}

impl std::fmt::Display for MinimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinimizeError::KernelPasses => {
                write!(f, "kernel passes all oracle axes; nothing to minimize")
            }
            MinimizeError::CompileError(e) => write!(f, "kernel does not compile: {e}"),
        }
    }
}

/// Delta-debugs a failing kernel: greedily applies the first reduction
/// that still compiles, still verifies, and still fails with the same
/// [`FailureClass`], until no reduction is accepted. Every accepted step
/// strictly decreases [`ast_weight`], so the loop terminates.
///
/// # Errors
///
/// [`MinimizeError::KernelPasses`] when `ast` does not fail any axis
/// (minimizing a passing kernel is rejected, not a silent no-op), and
/// [`MinimizeError::CompileError`] when it does not even compile.
pub fn minimize(
    ast: &KernelAst,
    seed: u64,
    cfg: &FuzzConfig,
) -> Result<(KernelAst, FuzzFinding), MinimizeError> {
    let finding = match check_ast(ast, seed, cfg) {
        Ok(Some(f)) => f,
        Ok(None) => return Err(MinimizeError::KernelPasses),
        Err(e) => return Err(MinimizeError::CompileError(e)),
    };
    let mut cur = ast.clone();
    let mut cur_finding = finding;
    loop {
        let before = ast_weight(&cur);
        let mut improved = false;
        for cand in reductions(&cur) {
            debug_assert!(ast_weight(&cand) < before, "reductions must shrink");
            if let Ok(Some(f)) = check_ast(&cand, seed, cfg) {
                if f.class == cur_finding.class {
                    cur = cand;
                    cur_finding = f;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return Ok((cur, cur_finding));
        }
    }
}

/// A finished campaign, ready to render as JSON.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Configuration fingerprint ([`FuzzConfig::config_hash`]).
    pub config_hash: u64,
    /// First seed checked.
    pub seed_start: u64,
    /// Seeds checked.
    pub seeds: u64,
    /// Policy-axis restriction, if any (paper name).
    pub policy: Option<&'static str>,
    /// All failures, in seed order.
    pub failures: Vec<FuzzFailure>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl FuzzReport {
    /// Whether every checked seed passed every axis.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the deterministic JSON report: fixed key order, no
    /// wall-clock fields, so identical campaigns are byte-identical.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"config_hash\":\"{:#018x}\",\"seed_start\":{},\"seeds\":{},\"policy\":\"{}\",\"failed\":{},\"failures\":[",
            self.config_hash,
            self.seed_start,
            self.seeds,
            self.policy.unwrap_or("all"),
            self.failures.len(),
        );
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"seed\":{},\"class\":\"{}\",\"message\":\"{}\",\"insts\":{}",
                f.seed,
                json_escape(&f.class.label()),
                json_escape(&f.message),
                f.insts,
            );
            if let Some(m) = &f.minimized {
                let _ = write!(
                    s,
                    ",\"minimized_insts\":{},\"minimized_stmts\":{},\"minimized_asm\":\"{}\"",
                    m.insts,
                    m.ast.stmt_count(),
                    json_escape(&m.asm),
                );
            }
            let _ = write!(s, ",\"replay\":\"{}\"}}", json_escape(&f.replay));
        }
        s.push_str("]}");
        s
    }
}

/// Runs a full campaign: for each seed, generate a verifier-accepted
/// kernel, run the differential battery, optionally minimize failures.
/// Deterministic: identical configs produce byte-identical
/// [`FuzzReport::to_json`] output.
#[must_use]
pub fn run_campaign(cfg: &FuzzConfig) -> FuzzReport {
    let mut failures = Vec::new();
    for seed in cfg.seed_start..cfg.seed_start.saturating_add(cfg.seeds) {
        let ast = gen::generate(seed, &cfg.gen);
        let insts = ast.compile().map_or(0, |p| p.len());
        let Ok(Some(finding)) = check_ast(&ast, seed, cfg) else {
            continue;
        };
        let minimized = if cfg.minimize {
            minimize(&ast, seed, cfg).ok().and_then(|(small, _)| {
                let program = small.compile().ok()?;
                Some(MinimizedRepro {
                    insts: program.len(),
                    asm: render_asm(&program),
                    ast: small,
                })
            })
        } else {
            None
        };
        let mut replay = format!("dws-cli fuzz --seed-start {seed} --seeds 1 --minimize");
        if let Some(p) = cfg.policy {
            replay.push_str(&format!(" --policy {}", p.paper_name()));
        }
        failures.push(FuzzFailure {
            seed,
            class: finding.class,
            message: finding.message,
            insts,
            minimized,
            replay,
        });
    }
    FuzzReport {
        config_hash: cfg.config_hash(),
        seed_start: cfg.seed_start,
        seeds: cfg.seeds,
        policy: cfg.policy.map(|p| p.paper_name()),
        failures,
    }
}
