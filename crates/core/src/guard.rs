//! Pipeline guardrails: typed errors, per-procedure recovery, and graceful
//! degradation.
//!
//! The formation + compaction pipeline rewrites programs aggressively (tail
//! duplication, enlargement, renaming, speculation). A bug anywhere in that
//! chain used to abort the whole experiment with a panic — or worse, ship a
//! miscompiled program into the timing simulation, silently corrupting the
//! paper's numbers. This module makes the pipeline *fail safe* instead:
//!
//! - every failure class has a typed [`PipelineError`];
//! - [`guarded_form_and_compact`] runs a recovery boundary in two phases.
//!   Phase 1 is per procedure: formation + compaction under
//!   `catch_unwind`, then the structural verifier; any failure rolls the
//!   procedure back to its pre-pass snapshot at once. Phase 2 runs the
//!   seeded differential-interpretation oracle *once* over the whole
//!   transformed program. Only when that run fails are the prefixes of the
//!   unchecked procedures bisected for the first one that breaks it, which
//!   is rolled back with the error a check right after it would have
//!   reported; the procedures after it are then checked again;
//! - in [`GuardMode::Degrade`] a failed procedure falls back to the
//!   basic-block (singleton superblock) baseline and the run continues,
//!   with a structured [`Incident`] recorded; in [`GuardMode::Strict`] the
//!   first failure in procedure order is returned as a hard `Err` — the
//!   right setting for CI and for producing paper tables, where silent
//!   degradation would skew comparisons.
//!
//! The bisection reports the same incidents as checking after every
//! procedure whenever oracle failure is monotone in the prefix: once a
//! prefix of transformed procedures misbehaves, every longer one does too.
//! A procedure a post-pass hook rewrote is judged as soon as it passes
//! phase 1, so each hook sees earlier faults already rolled back.
//! `tests/golden/guard_incidents.txt` pins the incident lists the
//! per-procedure check produced.
//!
//! The oracle compares observable behaviour (output stream, return value,
//! final memory) of the original and transformed program on configurable
//! inputs under an instruction budget, using bounded runs on the fast
//! [`Exec`] engine so long-running programs are compared on output
//! *prefixes* instead of being misreported as failures. A transformed
//! program that blows through a generous multiple of the original's budget
//! is reported as [`PipelineError::StepBudgetExceeded`] — the symptom of a
//! miscompiled loop exit. [`GuardReport::oracle_runs`] counts the
//! transformed-program executions: one per input on a clean run.
//!
//! The companion fault-injection harness (`pps_ir::fault`) corrupts
//! post-pass IR the way a buggy pass would; `tests/guardrails.rs` drives
//! hundreds of generated programs through this guard with injected faults
//! to prove every one is caught here and degraded away.

use crate::config::{FormConfig, Scheme};
use crate::pipeline::{form_proc_partition_obs, FormStats};
use pps_compact::{
    try_compact_proc_obs, CompactConfig, CompactError, CompactedProc, CompactedProgram,
    SuperblockSpec,
};
use pps_ir::analysis::Cfg;
use pps_ir::interp::{BoundedRun, ExecConfig, ExecError};
use pps_ir::verify::{verify_program, VerifyError};
use pps_ir::{AnalysisCache, Exec, Proc, ProcId, Program};
use pps_obs::{ArgValue, Level, Obs};
use pps_profile::{EdgeProfile, PathProfile};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Any failure the scheduling pipeline can produce, by pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A path-based scheme was requested without a path profile.
    MissingPathProfile {
        /// Name of the scheme that needed the profile.
        scheme: String,
    },
    /// Superblock formation panicked (caught at the recovery boundary).
    Formation {
        /// Procedure being formed.
        proc: String,
        /// Panic payload rendered to text.
        message: String,
    },
    /// Compaction rejected its input or its own output.
    Compaction(CompactError),
    /// The structural verifier rejected the transformed program.
    Verification(VerifyError),
    /// The transformed program's observable behaviour diverged from the
    /// original's on an oracle input.
    Divergence {
        /// Procedure whose transformation introduced the divergence.
        proc: String,
        /// Index into the oracle input list.
        input_index: usize,
        /// What differed (output / return value / memory).
        detail: String,
    },
    /// The transformed program failed to finish within `budget_factor`
    /// times the original's instruction budget — a miscompiled loop exit
    /// until proven otherwise.
    StepBudgetExceeded {
        /// Procedure whose transformation blew the budget.
        proc: String,
        /// Index into the oracle input list.
        input_index: usize,
    },
    /// The transformed program hit a runtime error the original did not.
    Execution {
        /// Procedure whose transformation introduced the error.
        proc: String,
        /// Index into the oracle input list.
        input_index: usize,
        /// The interpreter error.
        error: ExecError,
    },
}

impl PipelineError {
    /// Stable short tag for the failure class — the `kind` label of the
    /// `guard.incidents` metric and of `incident` trace events.
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineError::MissingPathProfile { .. } => "missing_path_profile",
            PipelineError::Formation { .. } => "formation_panic",
            PipelineError::Compaction(_) => "compaction",
            PipelineError::Verification(_) => "verification",
            PipelineError::Divergence { .. } => "divergence",
            PipelineError::StepBudgetExceeded { .. } => "step_budget_exceeded",
            PipelineError::Execution { .. } => "execution",
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::MissingPathProfile { scheme } => {
                write!(f, "scheme {scheme} needs a path profile")
            }
            PipelineError::Formation { proc, message } => {
                write!(f, "formation panicked in {proc}: {message}")
            }
            PipelineError::Compaction(e) => write!(f, "compaction: {e}"),
            PipelineError::Verification(e) => write!(f, "verification: {e}"),
            PipelineError::Divergence { proc, input_index, detail } => {
                write!(f, "divergence after scheduling {proc} on input #{input_index}: {detail}")
            }
            PipelineError::StepBudgetExceeded { proc, input_index } => {
                write!(f, "step budget exceeded after scheduling {proc} on input #{input_index}")
            }
            PipelineError::Execution { proc, input_index, error } => {
                write!(
                    f,
                    "execution error after scheduling {proc} on input #{input_index}: {error}"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Compaction(e) => Some(e),
            PipelineError::Verification(e) => Some(e),
            PipelineError::Execution { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<CompactError> for PipelineError {
    fn from(e: CompactError) -> Self {
        PipelineError::Compaction(e)
    }
}

impl From<VerifyError> for PipelineError {
    fn from(e: VerifyError) -> Self {
        PipelineError::Verification(e)
    }
}

/// What to do when a procedure fails its post-pass checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardMode {
    /// Fail fast: the first incident aborts the run with a hard `Err`.
    /// Right for CI and for producing paper tables, where a silently
    /// degraded procedure would skew scheme comparisons.
    Strict,
    /// Roll the procedure back to its original (unscheduled) form, record
    /// an [`Incident`], and continue — the production default.
    #[default]
    Degrade,
}

impl fmt::Display for GuardMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardMode::Strict => f.write_str("strict"),
            GuardMode::Degrade => f.write_str("degrade"),
        }
    }
}

/// Configuration of the recovery boundary.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Strict (fail-fast) or degrade (fallback-and-continue).
    pub mode: GuardMode,
    /// Inputs for the differential oracle. Empty disables the oracle;
    /// verification and panic recovery still apply.
    pub oracle_inputs: Vec<Vec<i64>>,
    /// Instruction budget for the *original* program's oracle runs. Runs
    /// that exceed it are compared on output prefixes.
    pub step_budget: u64,
    /// The transformed program may use `budget_factor * step_budget`
    /// instructions before [`PipelineError::StepBudgetExceeded`] is raised
    /// (scheduling never changes dynamic instruction counts by much; the
    /// slack only needs to absorb compensation code).
    pub budget_factor: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            mode: GuardMode::Degrade,
            oracle_inputs: Vec::new(),
            step_budget: 1_000_000,
            budget_factor: 8,
        }
    }
}

/// Which pass an incident was detected in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Superblock formation (selection, tail duplication, enlargement,
    /// fixup).
    Formation,
    /// Renaming + scheduling.
    Compaction,
    /// Post-pass structural verification.
    Verification,
    /// Post-pass differential interpretation.
    Oracle,
}

impl Pass {
    /// Stable short name — the `pass` label of the `guard.incidents` metric.
    pub fn name(&self) -> &'static str {
        match self {
            Pass::Formation => "formation",
            Pass::Compaction => "compaction",
            Pass::Verification => "verification",
            Pass::Oracle => "oracle",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recovered (or, in strict mode, fatal) pipeline failure.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Procedure the failure occurred in.
    pub proc: String,
    /// Pass that detected it.
    pub pass: Pass,
    /// The typed failure.
    pub error: PipelineError,
    /// True when the procedure was rolled back to the basic-block baseline
    /// and the run continued.
    pub fallback: bool,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}{}",
            self.pass,
            self.proc,
            self.error,
            if self.fallback { " (degraded to basic-block baseline)" } else { "" }
        )
    }
}

/// Summary of a guarded pipeline run.
#[derive(Debug, Clone, Default)]
pub struct GuardReport {
    /// Every failure encountered, in procedure order.
    pub incidents: Vec<Incident>,
    /// Procedures degraded to the basic-block baseline.
    pub degraded_procs: usize,
    /// Total procedures processed.
    pub total_procs: usize,
    /// Whole-program oracle executions of transformed code, one per input
    /// per check: `oracle_inputs.len()` on a clean run, independent of the
    /// number of procedures.
    pub oracle_runs: u64,
}

impl GuardReport {
    /// True when every procedure was scheduled as requested.
    pub fn clean(&self) -> bool {
        self.incidents.is_empty()
    }
}

/// The output of [`guarded_form_and_compact`].
#[derive(Debug, Clone)]
pub struct GuardedResult {
    /// Per-procedure schedules (degraded procedures carry their baseline
    /// singleton schedules).
    pub compacted: CompactedProgram,
    /// The final superblock partition per procedure.
    pub partition: Vec<Vec<SuperblockSpec>>,
    /// Formation statistics (contributions of degraded procedures rolled
    /// back).
    pub stats: FormStats,
    /// What happened.
    pub report: GuardReport,
}

/// Forms and compacts `program` with per-procedure recovery.
///
/// Procedures are processed in order. For each one, formation + compaction
/// run inside `catch_unwind` and the structural verifier checks the whole
/// program; when `guard.oracle_inputs` is non-empty, the differential
/// oracle then checks the whole transformed program once, bisecting only
/// on failure (see the module docs). A failed procedure is restored from a
/// snapshot and — in degrade mode — re-compacted as basic-block
/// singletons, so the returned schedules always cover every procedure.
///
/// When nothing fails this computes exactly what
/// [`crate::pipeline::form_and_compact`] computes (same per-procedure
/// iteration order, same results).
///
/// # Errors
/// In strict mode, the first incident in procedure order is returned as
/// its underlying [`PipelineError`]. In degrade mode an error is returned
/// only when the scheme needed a missing path profile, or when even the
/// basic-block fallback of a procedure failed (which indicates corruption
/// outside the pipeline's control).
pub fn guarded_form_and_compact(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    guard: &GuardConfig,
) -> Result<GuardedResult, PipelineError> {
    guarded_form_and_compact_obs(
        program,
        edge,
        path,
        scheme,
        form_config,
        compact_config,
        guard,
        &Obs::noop(),
    )
}

/// [`guarded_form_and_compact`] with observability: per-procedure
/// `schedule-proc` spans (with `form` / `compact` / `guard-verify`
/// children), one `oracle` span per whole-program oracle check,
/// `guard.oracle_runs`, `guard.incidents` counters labeled by failure kind
/// and pass, `guard.degraded_procs`, and one `incident` trace event plus a
/// warning log line per recovered failure.
///
/// # Errors
/// As [`guarded_form_and_compact`].
#[allow(clippy::too_many_arguments)]
pub fn guarded_form_and_compact_obs(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    guard: &GuardConfig,
    obs: &Obs,
) -> Result<GuardedResult, PipelineError> {
    guarded_impl(
        program,
        edge,
        path,
        scheme,
        form_config,
        compact_config,
        guard,
        obs,
        &mut |_, _| {},
    )
}

/// [`guarded_form_and_compact`] with a post-pass hook.
///
/// `post_pass` runs after each procedure's formation + compaction, *before*
/// verification and the oracle — the seam the fault-injection harness uses
/// to emulate a buggy pass (`pps_ir::fault::FaultInjector` corrupting the
/// just-scheduled procedure). The hook must only mutate procedure `pid`:
/// the recovery boundary snapshots and restores exactly that procedure.
/// A hook that changes the procedure's [`Proc::generation`] has it
/// oracle-checked before the next procedure is formed.
///
/// # Errors
/// As [`guarded_form_and_compact`].
#[allow(clippy::too_many_arguments)]
pub fn guarded_form_and_compact_hooked(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    guard: &GuardConfig,
    post_pass: &mut dyn FnMut(&mut Program, ProcId),
) -> Result<GuardedResult, PipelineError> {
    guarded_impl(
        program,
        edge,
        path,
        scheme,
        form_config,
        compact_config,
        guard,
        &Obs::noop(),
        post_pass,
    )
}

/// [`guarded_form_and_compact_hooked`] with observability (see
/// [`guarded_form_and_compact_obs`]) — the fault-injection seam and the
/// recording sinks together, used to test that injected faults surface as
/// `guard.incidents` metrics and `incident` trace events.
///
/// # Errors
/// As [`guarded_form_and_compact`].
#[allow(clippy::too_many_arguments)]
pub fn guarded_form_and_compact_hooked_obs(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    guard: &GuardConfig,
    obs: &Obs,
    post_pass: &mut dyn FnMut(&mut Program, ProcId),
) -> Result<GuardedResult, PipelineError> {
    guarded_impl(
        program, edge, path, scheme, form_config, compact_config, guard, obs, post_pass,
    )
}

#[allow(clippy::too_many_arguments)]
fn guarded_impl(
    program: &mut Program,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    guard: &GuardConfig,
    obs: &Obs,
    post_pass: &mut dyn FnMut(&mut Program, ProcId),
) -> Result<GuardedResult, PipelineError> {
    if scheme.needs_path_profile() && path.is_none() {
        return Err(PipelineError::MissingPathProfile { scheme: scheme.name() });
    }

    // Ground truth for the oracle: the untransformed program's behaviour.
    let oracle = {
        let _span = obs
            .span("oracle-baseline")
            .arg("inputs", guard.oracle_inputs.len());
        Oracle::new(
            program,
            &guard.oracle_inputs,
            guard.step_budget,
            guard.budget_factor,
        )
    };
    let mut boundary = Boundary {
        guard,
        compact_config,
        obs,
        oracle,
        pending: Vec::new(),
        stats: FormStats {
            static_before: program.static_size() as u64,
            ..FormStats::default()
        },
        static_after: 0,
        partition: Vec::with_capacity(program.procs.len()),
        compacted: Vec::with_capacity(program.procs.len()),
        report: GuardReport {
            total_procs: program.procs.len(),
            ..GuardReport::default()
        },
    };

    // Phase 1, per procedure: anything that fails here is rolled back at
    // once. Survivors queue for the whole-program oracle (phase 2).
    for pi in 0..program.procs.len() {
        let pid = ProcId::new(pi as u32);
        let name = program.proc(pid).name.clone();
        let snapshot = program.proc(pid).clone();
        let mut stats = FormStats::default();

        let proc_obs = obs.with_label("proc", name.as_str());
        let proc_span = proc_obs.span("schedule-proc").arg("proc", name.as_str());
        let attempt = attempt_proc(
            program,
            pid,
            edge,
            path,
            scheme,
            form_config,
            compact_config,
            &mut stats,
            post_pass,
            &proc_obs,
        );
        drop(proc_span);
        match attempt {
            Ok(((specs, cp, formed_size), hooked)) => {
                boundary.pending.push(Pending {
                    pid,
                    name,
                    other: snapshot,
                    specs,
                    cp,
                    formed_size,
                    stats,
                });
                // A hook that rewrote the procedure (a fault injector) is
                // judged now, so the next hook sees a program whose earlier
                // faults are already rolled back.
                if hooked {
                    boundary.settle(program)?;
                }
            }
            Err((pass, error)) => {
                *program.proc_mut(pid) = snapshot;
                // Earlier procedures' oracle verdicts come first, judged on
                // the program the sequential check saw (`pid` untouched).
                boundary.settle(program)?;
                boundary.fail(program, pid, &name, pass, error)?;
            }
        }
    }
    boundary.settle(program)?;
    Ok(boundary.finish())
}

/// A procedure that passed phase 1 and awaits the whole-program oracle.
struct Pending {
    pid: ProcId,
    name: String,
    /// The pre-pass body — or, while a bisection probe has the procedure
    /// restored, the transformed body.
    other: Proc,
    specs: Vec<SuperblockSpec>,
    cp: CompactedProc,
    formed_size: u64,
    /// This procedure's formation counters, merged on acceptance.
    stats: FormStats,
}

/// The recovery boundary's state: the oracle, the procedures awaiting it,
/// and every decision made so far, in procedure order.
struct Boundary<'a> {
    guard: &'a GuardConfig,
    compact_config: &'a CompactConfig,
    obs: &'a Obs,
    oracle: Oracle<'a>,
    /// Transformed procedures not yet oracle-checked, in procedure order.
    pending: Vec<Pending>,
    stats: FormStats,
    /// `static_after` measures the *formed* program (pre-compaction
    /// stubs), matching `form_program`; accumulated per procedure since
    /// formation and compaction interleave here.
    static_after: u64,
    partition: Vec<Vec<SuperblockSpec>>,
    compacted: Vec<CompactedProc>,
    report: GuardReport,
}

impl Boundary<'_> {
    /// Phase 2: one oracle run over the whole program decides every
    /// pending procedure at once. Only when it fails are the pending
    /// prefixes bisected — prefix `k` keeps the first `k` pending
    /// procedures transformed and restores the rest — for the first
    /// failing one. That procedure is rolled back with the error its
    /// prefix produced (exactly what a check right after it would have
    /// reported), and the procedures after it are checked again.
    fn settle(&mut self, program: &mut Program) -> Result<(), PipelineError> {
        while !self.pending.is_empty() {
            let n = self.pending.len();
            let Some(mut error) = self.probe(program, n) else {
                for p in std::mem::take(&mut self.pending) {
                    self.accept(p);
                }
                return Ok(());
            };
            // Prefix `lo` is known clean (prefix 0 is the program the last
            // settle accepted), prefix `hi` known failing with `error`.
            let (mut lo, mut hi) = (0, n);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                self.swap_bodies(program, mid);
                let verdict = self.probe(program, mid);
                self.swap_bodies(program, mid);
                match verdict {
                    Some(e) => (hi, error) = (mid, e),
                    None => lo = mid,
                }
            }
            let rest = self.pending.split_off(hi);
            let culprit = self.pending.pop().expect("a failing prefix is non-empty");
            for p in std::mem::replace(&mut self.pending, rest) {
                self.accept(p);
            }
            *program.proc_mut(culprit.pid) = culprit.other;
            self.fail(program, culprit.pid, &culprit.name, Pass::Oracle, error)?;
        }
        Ok(())
    }

    /// Oracle-checks the program with the first `k` pending procedures
    /// transformed, attributing a failure to the `k`-th.
    fn probe(&mut self, program: &Program, k: usize) -> Option<PipelineError> {
        let _span = self
            .obs
            .span("oracle")
            .arg("procs", k)
            .arg("inputs", self.guard.oracle_inputs.len());
        let before = self.oracle.runs;
        let verdict = self.oracle.check(program, &self.pending[k - 1].name);
        self.obs
            .counter("guard.oracle_runs", self.oracle.runs - before);
        verdict
    }

    /// Swaps the program's and the pending record's bodies of every pending
    /// procedure from index `k` on: once to restore them for a probe, once
    /// more to put the transformed bodies back.
    fn swap_bodies(&mut self, program: &mut Program, k: usize) {
        for p in &mut self.pending[k..] {
            std::mem::swap(program.proc_mut(p.pid), &mut p.other);
        }
    }

    fn accept(&mut self, p: Pending) {
        self.stats.absorb(&p.stats);
        self.static_after += p.formed_size;
        self.partition.push(p.specs);
        self.compacted.push(p.cp);
    }

    /// Records the incident of procedure `pid` (already rolled back) and,
    /// in degrade mode, schedules it as the basic-block baseline.
    fn fail(
        &mut self,
        program: &mut Program,
        pid: ProcId,
        proc_name: &str,
        pass: Pass,
        error: PipelineError,
    ) -> Result<(), PipelineError> {
        let obs = self.obs;
        let fallback = self.guard.mode == GuardMode::Degrade;
        let incident = Incident {
            proc: proc_name.to_string(),
            pass,
            error: error.clone(),
            fallback,
        };
        obs.counter_labeled(
            "guard.incidents",
            &[("kind", error.kind()), ("pass", pass.name())],
            1,
        );
        obs.instant(
            "guard",
            "incident",
            &[
                ("proc", ArgValue::from(proc_name)),
                ("pass", ArgValue::from(pass.name())),
                ("kind", ArgValue::from(error.kind())),
                ("error", ArgValue::from(error.to_string())),
                ("fallback", ArgValue::from(fallback)),
            ],
        );
        obs.log(Level::Warn, || format!("incident: {incident}"));
        self.report.incidents.push(incident);
        if !fallback {
            return Err(error);
        }
        obs.counter("guard.degraded_procs", 1);
        // Degrade: schedule the pristine procedure as basic-block
        // singletons. This is the baseline path every scheme shares; if
        // even it fails, recovery is impossible.
        self.static_after += program.proc(pid).static_size() as u64;
        let specs = singleton_specs(program, pid);
        let proc_obs = obs.with_label("proc", proc_name);
        let cp = try_compact_proc_obs(
            program.proc_mut(pid),
            &specs,
            self.compact_config,
            &proc_obs,
        )?;
        verify_program(program)?;
        self.report.degraded_procs += 1;
        self.partition.push(specs);
        self.compacted.push(cp);
        Ok(())
    }

    fn finish(self) -> GuardedResult {
        let mut stats = self.stats;
        stats.static_after = self.static_after;
        stats.superblocks = self.partition.iter().map(|p| p.len() as u64).sum();
        GuardedResult {
            compacted: CompactedProgram {
                procs: self.compacted,
            },
            partition: self.partition,
            stats,
            report: GuardReport {
                oracle_runs: self.oracle.runs,
                ..self.report
            },
        }
    }
}

/// One procedure's partition, schedules and formed (pre-stub) size.
type Scheduled = (Vec<SuperblockSpec>, CompactedProc, u64);

/// Phase 1 for one procedure: form + compact, the post-pass hook, and the
/// structural verifier. On `Err` the caller rolls the procedure back; the
/// pass tag says where it failed. On `Ok` the flag says whether the hook
/// rewrote the procedure.
#[allow(clippy::too_many_arguments)]
fn attempt_proc(
    program: &mut Program,
    pid: ProcId,
    edge: &EdgeProfile,
    path: Option<&PathProfile>,
    scheme: Scheme,
    form_config: &FormConfig,
    compact_config: &CompactConfig,
    stats: &mut FormStats,
    post_pass: &mut dyn FnMut(&mut Program, ProcId),
    obs: &Obs,
) -> Result<(Scheduled, bool), (Pass, PipelineError)> {
    let proc_name = program.proc(pid).name.clone();

    // Formation + compaction under a panic boundary. Everything these
    // passes mutate is the procedure itself (restored by the caller on
    // failure) and `stats` (discarded likewise), so unwinding here cannot
    // leave broken shared state behind.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (specs, _orig) =
            form_proc_partition_obs(program, pid, edge, path, scheme, form_config, stats, obs)
                .map_err(|e| (Pass::Formation, e))?;
        // Code-growth accounting happens on the formed procedure, before
        // compaction appends singleton stubs (same point `form_program`
        // measures `static_after`).
        let formed_size = program.proc(pid).static_size() as u64;
        let cp = try_compact_proc_obs(program.proc_mut(pid), &specs, compact_config, obs)
            .map_err(|e| (Pass::Compaction, PipelineError::Compaction(e)))?;
        Ok((specs, cp, formed_size))
    }));
    let (specs, cp, formed_size) = match outcome {
        Ok(result) => result?,
        Err(payload) => {
            return Err((
                Pass::Formation,
                PipelineError::Formation {
                    proc: proc_name,
                    message: panic_message(payload.as_ref()),
                },
            ));
        }
    };

    let generation = program.proc(pid).generation();
    post_pass(program, pid);
    let hooked = program.proc(pid).generation() != generation;

    // Post-pass structural check over the whole program (procedures before
    // `pid` are already validated; later ones untouched — a failure here is
    // attributable to `pid`).
    let _verify_span = obs.span("guard-verify");
    verify_program(program).map_err(|e| (Pass::Verification, PipelineError::Verification(e)))?;
    Ok(((specs, cp, formed_size), hooked))
}

/// The differential oracle: the untransformed program's bounded behaviour
/// on each input, and a counted check of a transformed program against it
/// on the fast engine. Shared by the scheduling guard and
/// [`crate::inline`].
pub(crate) struct Oracle<'a> {
    inputs: &'a [Vec<i64>],
    baselines: Vec<Result<BoundedRun, ExecError>>,
    config: ExecConfig,
    /// Decoded-stream cache: between checks only the procedures that were
    /// transformed, rolled back or swapped have new bodies, so only they
    /// re-decode.
    cache: AnalysisCache,
    /// Transformed-program executions so far, one per input checked.
    pub(crate) runs: u64,
}

impl<'a> Oracle<'a> {
    /// Records `program`'s behaviour on `inputs` within `step_budget`
    /// instructions; transformed programs later get `budget_factor` times
    /// that budget.
    pub(crate) fn new(
        program: &Program,
        inputs: &'a [Vec<i64>],
        step_budget: u64,
        budget_factor: u64,
    ) -> Self {
        let exec = Exec::new(
            program,
            ExecConfig {
                max_instrs: step_budget,
                ..ExecConfig::default()
            },
        );
        Oracle {
            inputs,
            baselines: inputs.iter().map(|args| exec.run_bounded(args)).collect(),
            config: ExecConfig {
                max_instrs: step_budget.saturating_mul(budget_factor.max(1)),
                ..ExecConfig::default()
            },
            cache: AnalysisCache::new(),
            runs: 0,
        }
    }

    /// Runs `program` on the inputs in order and returns the first
    /// inconsistency with the baseline, attributed to procedure `proc`.
    pub(crate) fn check(&mut self, program: &Program, proc: &str) -> Option<PipelineError> {
        if self.inputs.is_empty() {
            return None;
        }
        let exec = Exec::new_cached(program, self.config, &mut self.cache);
        for (input_index, (args, baseline)) in self.inputs.iter().zip(&self.baselines).enumerate() {
            self.runs += 1;
            let run = exec.run_bounded(args);
            if let Some(error) = oracle_check(proc, input_index, baseline, &run) {
                return Some(error);
            }
        }
        None
    }
}

/// Compares one oracle input's baseline and transformed runs. `None` means
/// consistent.
fn oracle_check(
    proc: &str,
    input_index: usize,
    baseline: &Result<BoundedRun, ExecError>,
    run: &Result<BoundedRun, ExecError>,
) -> Option<PipelineError> {
    let divergence = |detail: String| {
        Some(PipelineError::Divergence {
            proc: proc.to_string(),
            input_index,
            detail,
        })
    };
    match (baseline, run) {
        (Ok(b), Ok(r)) => {
            if b.completed {
                if !r.completed {
                    // The original finished within the base budget; the
                    // transformed program got `budget_factor` times that
                    // and still didn't.
                    return Some(PipelineError::StepBudgetExceeded {
                        proc: proc.to_string(),
                        input_index,
                    });
                }
                if b.result.output != r.result.output {
                    return divergence("output streams differ".to_string());
                }
                if b.result.return_value != r.result.return_value {
                    return divergence(format!(
                        "return value {:?} != {:?}",
                        b.result.return_value, r.result.return_value
                    ));
                }
                if b.result.memory != r.result.memory {
                    return divergence("final memory images differ".to_string());
                }
                None
            } else {
                // Baseline truncated: the transformed run (complete or not)
                // must agree on the observable prefix.
                let n = b.result.output.len().min(r.result.output.len());
                if b.result.output[..n] != r.result.output[..n] {
                    return divergence("output prefixes differ".to_string());
                }
                if r.completed && r.result.output.len() < b.result.output.len() {
                    return divergence(
                        "transformed program finished with less output".to_string(),
                    );
                }
                None
            }
        }
        (Ok(_), Err(e)) => Some(PipelineError::Execution {
            proc: proc.to_string(),
            input_index,
            error: e.clone(),
        }),
        // The original program itself errors on this input: the
        // transformed program must reproduce the same error.
        (Err(be), Err(re)) if be == re => None,
        (Err(be), re) => divergence(format!("baseline error {be:?}, transformed {re:?}")),
    }
}

/// The basic-block baseline partition for one procedure.
fn singleton_specs(program: &Program, pid: ProcId) -> Vec<SuperblockSpec> {
    let proc = program.proc(pid);
    let cfg = Cfg::compute(proc);
    proc.block_ids()
        .filter(|b| cfg.is_reachable(*b))
        .map(SuperblockSpec::singleton)
        .collect()
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::interp::Interp;
    use crate::pipeline::form_and_compact;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::fault::FaultInjector;
    use pps_ir::text::print_program;
    use pps_ir::{AluOp, Operand, Reg};
    use pps_profile::{EdgeProfiler, PathProfiler};

    /// Loop + diamond + call workload (mirrors the pipeline tests).
    fn workload() -> Program {
        let mut pb = ProgramBuilder::new();
        pb.set_memory(1 << 12, (0..64).map(|x| (x * 7 + 3) % 13).collect());
        let helper = pb.declare_proc("mix", 2);
        let mut h = pb.begin_declared(helper);
        let a = Reg::new(0);
        let b = Reg::new(1);
        let r = h.reg();
        h.alu(AluOp::Xor, r, a, b);
        h.alu(AluOp::Mul, r, r, 31i64);
        h.ret(Some(Operand::Reg(r)));
        h.finish();

        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let i = f.reg();
        let acc = f.reg();
        let c = f.reg();
        let v = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        f.mov(acc, 0i64);
        let head = f.new_block();
        let odd = f.new_block();
        let even = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Rem, m, i, 64i64);
        f.load(v, m, 0);
        f.alu(AluOp::Rem, m, i, 3i64);
        f.branch(m, odd, even);
        f.switch_to(odd);
        f.alu(AluOp::Add, acc, acc, v);
        f.jump(latch);
        f.switch_to(even);
        let t = f.reg();
        f.call(helper, vec![Operand::Reg(acc), Operand::Reg(v)], Some(t));
        f.alu(AluOp::Add, acc, acc, t);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Reg(n));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.out(acc);
        f.ret(Some(Operand::Reg(acc)));
        let main = f.finish();
        pb.finish(main)
    }

    fn profiles(p: &Program, arg: i64) -> (EdgeProfile, PathProfile) {
        let mut ep = EdgeProfiler::new(p);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[arg], &mut ep)
            .unwrap();
        let mut pp = PathProfiler::new(p, 15);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[arg], &mut pp)
            .unwrap();
        (ep.finish(), pp.finish())
    }

    fn test_guard(mode: GuardMode) -> GuardConfig {
        GuardConfig {
            mode,
            oracle_inputs: vec![vec![87], vec![13]],
            step_budget: 500_000,
            budget_factor: 8,
        }
    }

    #[test]
    fn clean_run_matches_unguarded_pipeline() {
        let schemes = [Scheme::BasicBlock, Scheme::M4, Scheme::P4, Scheme::P4E];
        for (base, scheme) in [workload(), helpers(7)]
            .iter()
            .flat_map(|base| schemes.map(|scheme| (base, scheme)))
        {
            let (ep, pp) = profiles(base, 150);

            let mut unguarded = base.clone();
            let (_, stats_u) = form_and_compact(
                &mut unguarded,
                &ep,
                Some(&pp),
                scheme,
                &FormConfig::default(),
                &CompactConfig::default(),
            )
            .unwrap();

            let mut guarded = base.clone();
            let result = guarded_form_and_compact(
                &mut guarded,
                &ep,
                Some(&pp),
                scheme,
                &FormConfig::default(),
                &CompactConfig::default(),
                &test_guard(GuardMode::Strict),
            )
            .unwrap();

            assert!(result.report.clean(), "{}: {:?}", scheme.name(), result.report);
            assert_eq!(result.report.degraded_procs, 0);
            assert_eq!(
                print_program(&unguarded),
                print_program(&guarded),
                "{}: guarded transform must be byte-identical",
                scheme.name()
            );
            assert_eq!(result.stats, stats_u, "{}", scheme.name());
            // One whole-program oracle execution per input, however many
            // procedures there are.
            let inputs = test_guard(GuardMode::Strict).oracle_inputs.len() as u64;
            assert_eq!(result.report.oracle_runs, inputs, "{}", scheme.name());
        }
    }

    #[test]
    fn missing_path_profile_is_typed() {
        let mut p = workload();
        let (ep, _) = profiles(&p, 50);
        for mode in [GuardMode::Strict, GuardMode::Degrade] {
            let err = guarded_form_and_compact(
                &mut p.clone(),
                &ep,
                None,
                Scheme::P4,
                &FormConfig::default(),
                &CompactConfig::default(),
                &test_guard(mode),
            )
            .unwrap_err();
            assert!(matches!(err, PipelineError::MissingPathProfile { .. }), "{err}");
        }
        let err =
            crate::pipeline::form_program(&mut p, &ep, None, Scheme::P4, &FormConfig::default())
                .unwrap_err();
        assert!(matches!(err, PipelineError::MissingPathProfile { .. }));
    }

    #[test]
    fn injected_fault_degrades_and_preserves_semantics() {
        let base = workload();
        let (ep, pp) = profiles(&base, 150);
        let expected = Interp::new(&base, ExecConfig::default()).run(&[87]).unwrap();
        let inputs = vec![vec![87], vec![13]];

        let mut program = base.clone();
        let mut injector = FaultInjector::new(0xFA11);
        let mut injected = Vec::new();
        let result = guarded_form_and_compact_hooked(
            &mut program,
            &ep,
            Some(&pp),
            Scheme::P4,
            &FormConfig::default(),
            &CompactConfig::default(),
            &test_guard(GuardMode::Degrade),
            &mut |prog, pid| {
                if let Some(r) = injector.inject_effective(prog, pid, &inputs, 500_000, 32) {
                    injected.push(r);
                }
            },
        )
        .unwrap();

        assert!(!injected.is_empty(), "injector found no effective fault");
        assert_eq!(
            result.report.incidents.len(),
            injected.len(),
            "every effective fault must raise an incident: {:?}",
            result.report.incidents
        );
        assert_eq!(result.report.degraded_procs, injected.len());
        assert!(result.report.incidents.iter().all(|i| i.fallback));
        // The degraded program still computes the original's answer.
        verify_program(&program).unwrap();
        let got = Interp::new(&program, ExecConfig::default()).run(&[87]).unwrap();
        assert_eq!(expected.output, got.output);
        assert_eq!(expected.return_value, got.return_value);
        // Every procedure still has a schedule.
        assert_eq!(result.compacted.procs.len(), program.procs.len());
    }

    #[test]
    fn strict_mode_fails_fast_on_injected_fault() {
        let base = workload();
        let (ep, pp) = profiles(&base, 150);
        let inputs = vec![vec![87], vec![13]];
        let mut program = base.clone();
        let mut injector = FaultInjector::new(7);
        let err = guarded_form_and_compact_hooked(
            &mut program,
            &ep,
            Some(&pp),
            Scheme::M4,
            &FormConfig::default(),
            &CompactConfig::default(),
            &test_guard(GuardMode::Strict),
            &mut |prog, pid| {
                let _ = injector.inject_effective(prog, pid, &inputs, 500_000, 32);
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Verification(_)
                    | PipelineError::Divergence { .. }
                    | PipelineError::Execution { .. }
                    | PipelineError::StepBudgetExceeded { .. }
            ),
            "unexpected error class: {err}"
        );
    }

    /// `main(n)` sums `n_helpers` small helpers over `0..n`, printing the
    /// running sum each iteration: one `main` plus many procedures whose
    /// failures the guard must tell apart.
    fn helpers(n_helpers: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut procs = Vec::new();
        for k in 1..=n_helpers {
            let mut h = pb.begin_proc(format!("h{k}"), 1);
            let x = Reg::new(0);
            let m = h.reg();
            let y = h.reg();
            let odd = h.new_block();
            let even = h.new_block();
            let join = h.new_block();
            h.alu(AluOp::Rem, m, x, 2i64);
            h.branch(m, odd, even);
            h.switch_to(odd);
            h.alu(AluOp::Mul, y, x, k + 2);
            h.jump(join);
            h.switch_to(even);
            h.alu(AluOp::Add, y, x, 10 * k);
            h.jump(join);
            h.switch_to(join);
            h.ret(Some(Operand::Reg(y)));
            procs.push(h.finish());
        }
        let mut f = pb.begin_proc("main", 1);
        let n = Reg::new(0);
        let i = f.reg();
        let acc = f.reg();
        let c = f.reg();
        let t = f.reg();
        f.mov(i, 0i64);
        f.mov(acc, 0i64);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Reg(n));
        f.branch(c, body, exit);
        f.switch_to(body);
        for &h in &procs {
            f.call(h, vec![Operand::Reg(i)], Some(t));
            f.alu(AluOp::Add, acc, acc, Operand::Reg(t));
        }
        f.out(Operand::Reg(acc));
        f.alu(AluOp::Add, i, i, 1i64);
        f.jump(head);
        f.switch_to(exit);
        f.ret(Some(Operand::Reg(acc)));
        let main = f.finish();
        pb.finish(main)
    }

    /// A miscompile the guard cannot see until it runs the program: every
    /// multiply by a constant multiplies by one more. Edited in place, so
    /// the procedure keeps its pass-given generation and the hook counts
    /// as part of the pass.
    fn corrupt_silently(program: &mut Program, pid: ProcId) {
        for block in &mut program.procs[pid.index()].blocks {
            for instr in &mut block.instrs {
                if let pps_ir::Instr::Alu {
                    op: AluOp::Mul,
                    rhs: Operand::Imm(c),
                    ..
                } = instr
                {
                    *c += 1;
                }
            }
        }
    }

    /// A structural fault the verifier rejects (a jump out of the CFG).
    fn corrupt_structurally(program: &mut Program, pid: ProcId) {
        let proc = program.proc_mut(pid);
        let entry = proc.entry;
        proc.block_mut(entry).term = pps_ir::Terminator::Jump {
            target: pps_ir::BlockId::new(9999),
        };
    }

    fn guard_hooked(
        base: &Program,
        scheme: Scheme,
        mode: GuardMode,
        hook: &mut dyn FnMut(&mut Program, ProcId),
    ) -> (Program, Result<GuardedResult, PipelineError>) {
        let (ep, pp) = profiles(base, 40);
        let mut program = base.clone();
        let result = guarded_form_and_compact_hooked(
            &mut program,
            &ep,
            Some(&pp),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &test_guard(mode),
            hook,
        );
        (program, result)
    }

    #[test]
    fn one_failing_procedure_costs_a_logarithmic_number_of_runs() {
        let base = helpers(7);
        let n = base.procs.len() as u64;
        let inputs = test_guard(GuardMode::Degrade).oracle_inputs.len() as u64;
        let log2_n = u64::from(n.next_power_of_two().trailing_zeros());
        let expected = Interp::new(&base, ExecConfig::default())
            .run(&[87])
            .unwrap();
        for culprit in 0..n as usize {
            let (program, result) =
                guard_hooked(&base, Scheme::P4, GuardMode::Degrade, &mut |prog, pid| {
                    if pid.index() == culprit {
                        corrupt_silently(prog, pid);
                    }
                });
            let name = &base.procs[culprit].name;
            let result = result.unwrap();
            if name == "main" {
                // `main` multiplies by no constant: nothing to corrupt.
                assert!(result.report.clean());
                continue;
            }
            let incidents = &result.report.incidents;
            assert_eq!(incidents.len(), 1, "{name}: {incidents:?}");
            assert_eq!(&incidents[0].proc, name);
            assert_eq!(incidents[0].pass, Pass::Oracle);
            assert!(
                matches!(&incidents[0].error, PipelineError::Divergence { proc, .. } if proc == name)
            );
            assert!(
                result.report.oracle_runs <= (1 + log2_n + 1) * inputs,
                "{name}: {} runs for {n} procs",
                result.report.oracle_runs
            );
            let got = Interp::new(&program, ExecConfig::default())
                .run(&[87])
                .unwrap();
            assert_eq!(expected.output, got.output, "{name}");
        }
    }

    #[test]
    fn strict_mode_reports_an_earlier_divergence_before_a_later_verify_failure() {
        let base = helpers(5);
        let (i, j) = (1, 3);
        let mut hook = |prog: &mut Program, pid: ProcId| {
            if pid.index() == i {
                corrupt_silently(prog, pid);
            } else if pid.index() == j {
                corrupt_structurally(prog, pid);
            }
        };
        let (_, strict) = guard_hooked(&base, Scheme::M4, GuardMode::Strict, &mut hook);
        match strict.unwrap_err() {
            PipelineError::Divergence { proc, .. } => assert_eq!(proc, base.procs[i].name),
            other => panic!("expected h{}'s divergence, got {other}", i + 1),
        }

        let (_, degrade) = guard_hooked(&base, Scheme::M4, GuardMode::Degrade, &mut hook);
        let report = degrade.unwrap().report;
        let got: Vec<(&str, Pass)> = report
            .incidents
            .iter()
            .map(|x| (x.proc.as_str(), x.pass))
            .collect();
        assert_eq!(
            got,
            [
                (base.procs[i].name.as_str(), Pass::Oracle),
                (base.procs[j].name.as_str(), Pass::Verification)
            ]
        );
    }

    /// The shared oracle (`core::inline` checks with it too) compares final
    /// memory, and requires an original that errors to fail the same way.
    #[test]
    fn oracle_compares_memory_and_error_identity() {
        /// Stores `stored` to address 0 and prints 1; on a non-zero
        /// argument it then loads from `fault_addr`, outside memory.
        fn tiny(stored: i64, fault_addr: i64) -> Program {
            let mut pb = ProgramBuilder::new();
            pb.set_memory(16, Vec::new());
            let mut f = pb.begin_proc("main", 1);
            let x = Reg::new(0);
            let base = f.reg();
            let v = f.reg();
            let fault = f.new_block();
            let done = f.new_block();
            f.mov(base, 0i64);
            f.store(stored, base, 0);
            f.out(1i64);
            f.branch(x, fault, done);
            f.switch_to(fault);
            f.load(v, base, fault_addr);
            f.ret(Some(Operand::Reg(v)));
            f.switch_to(done);
            f.ret(Some(Operand::Imm(0)));
            let main = f.finish();
            pb.finish(main)
        }
        let inputs = vec![vec![0], vec![1]];
        let mut oracle = Oracle::new(&tiny(5, 100), &inputs, 1_000, 8);
        assert_eq!(oracle.check(&tiny(5, 100), "main"), None);
        assert_eq!(
            oracle.check(&tiny(6, 100), "main"),
            Some(PipelineError::Divergence {
                proc: "main".to_string(),
                input_index: 0,
                detail: "final memory images differ".to_string(),
            })
        );
        assert!(matches!(
            oracle.check(&tiny(5, 200), "main"),
            Some(PipelineError::Divergence { input_index: 1, .. })
        ));
        assert_eq!(oracle.runs, 2 + 1 + 2);
    }

    #[test]
    fn oracle_prefix_logic_handles_truncation() {
        let mk = |completed, output: Vec<i64>| {
            Ok(BoundedRun {
                result: pps_ir::interp::ExecResult {
                    output,
                    return_value: None,
                    counts: Default::default(),
                    memory: Vec::new(),
                },
                completed,
            })
        };
        // Consistent prefixes: no error.
        assert!(oracle_check("p", 0, &mk(false, vec![1, 2]), &mk(false, vec![1, 2, 3])).is_none());
        // Prefix mismatch: divergence.
        assert!(matches!(
            oracle_check("p", 0, &mk(false, vec![1, 2]), &mk(true, vec![1, 9])),
            Some(PipelineError::Divergence { .. })
        ));
        // Transformed completes with *less* output than the baseline saw.
        assert!(matches!(
            oracle_check("p", 0, &mk(false, vec![1, 2, 3]), &mk(true, vec![1, 2])),
            Some(PipelineError::Divergence { .. })
        ));
        // Baseline completed, transformed truncated at 8x budget.
        assert!(matches!(
            oracle_check("p", 3, &mk(true, vec![1]), &mk(false, vec![1])),
            Some(PipelineError::StepBudgetExceeded { input_index: 3, .. })
        ));
    }
}
