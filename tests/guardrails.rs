//! The guardrail property (ISSUE: fault-tolerant pipeline): drive hundreds
//! of generated programs through the *guarded* pipeline with a seeded
//! fault injector emulating a buggy pass between compaction and
//! verification, and prove the recovery boundary holds:
//!
//! - the pipeline never panics (panics inside formation/compaction are
//!   caught and converted to incidents);
//! - **every** injected effective fault is caught by the structural
//!   verifier or the differential oracle and recorded as an [`Incident`];
//! - in degrade mode the faulted procedure falls back to basic-block
//!   scheduling and the final program still matches the original's
//!   observable behavior exactly;
//! - in strict mode the same fault surfaces as a hard `Err`.
//!
//! Fault effectiveness and catchability line up because the injector only
//! commits corruptions that fail `verify_program` or observably diverge on
//! the same oracle inputs and step budget the guard uses.

use pps::compact::CompactConfig;
use pps::core::{
    guarded_form_and_compact, guarded_form_and_compact_hooked, FormConfig, GuardConfig, GuardMode,
    Scheme,
};
use pps::ir::interp::{ExecConfig, ExecResult, Interp};
use pps::ir::trace::TeeSink;
use pps::ir::verify::verify_program;
use pps::ir::{FaultInjector, Program};
use pps::profile::{EdgeProfile, EdgeProfiler, PathProfile, PathProfiler};
use pps::testgen::{gen_program, GenConfig};

const SEEDS: u64 = 200;
/// Testgen programs are dynamically bounded well below this (50k instrs).
const STEP_BUDGET: u64 = 200_000;
const INJECT_ATTEMPTS: u32 = 16;

fn schemes() -> [Scheme; 4] {
    [Scheme::P4, Scheme::M4, Scheme::P4E, Scheme::M16]
}

fn run(p: &Program) -> ExecResult {
    Interp::new(p, ExecConfig::default())
        .run(&[])
        .expect("generated programs never fault")
}

fn profile(p: &Program) -> (EdgeProfile, PathProfile) {
    let mut tee = TeeSink::new(EdgeProfiler::new(p), PathProfiler::new(p, 15));
    Interp::new(p, ExecConfig::default())
        .run_traced(&[], &mut tee)
        .expect("profiling run");
    (tee.a.finish(), tee.b.finish())
}

fn guard(mode: GuardMode) -> GuardConfig {
    GuardConfig {
        mode,
        oracle_inputs: vec![vec![]],
        step_budget: STEP_BUDGET,
        budget_factor: 8,
    }
}

/// The headline sweep: ≥200 generated programs, each transformed under the
/// guarded pipeline while a seeded injector corrupts the post-compaction IR
/// of every procedure it can. Every committed fault must be caught and
/// degraded away, and the surviving program must behave like the original.
#[test]
fn injected_faults_are_always_caught_and_degraded() {
    let oracle_inputs = vec![vec![]];
    let mut total_injected = 0usize;
    let mut strict_checked = 0usize;

    for seed in 0..SEEDS {
        let base = gen_program(seed, GenConfig::default());
        let scheme = schemes()[(seed % 4) as usize];
        let (edge, path) = profile(&base);
        let expected = run(&base);

        let mut program = base.clone();
        let mut injector = FaultInjector::new(seed ^ 0xBAD_5EED);
        let mut injected = Vec::new();
        let result = guarded_form_and_compact_hooked(
            &mut program,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &guard(GuardMode::Degrade),
            &mut |prog, pid| {
                if let Some(r) =
                    injector.inject_effective(prog, pid, &oracle_inputs, STEP_BUDGET, INJECT_ATTEMPTS)
                {
                    injected.push(r);
                }
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed} ({}): degrade mode must not fail: {e}", scheme.name()));

        // Every committed fault raised exactly one incident, with fallback.
        assert_eq!(
            result.report.incidents.len(),
            injected.len(),
            "seed {seed} ({}): faults {injected:?} vs incidents {:?}",
            scheme.name(),
            result.report.incidents
        );
        assert_eq!(result.report.degraded_procs, injected.len(), "seed {seed}");
        assert!(
            result.report.incidents.iter().all(|i| i.fallback),
            "seed {seed}: {:?}",
            result.report.incidents
        );
        total_injected += injected.len();

        // The recovered program is structurally valid, fully scheduled, and
        // behaves exactly like the original.
        verify_program(&program).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(result.compacted.procs.len(), program.procs.len(), "seed {seed}");
        let got = run(&program);
        assert_eq!(expected.output, got.output, "seed {seed} ({})", scheme.name());
        assert_eq!(expected.return_value, got.return_value, "seed {seed}");
        assert_eq!(expected.memory, got.memory, "seed {seed}");

        // Strict mode on the same seed turns the first fault into a hard
        // Err (spot-check a bounded number to keep the sweep fast).
        if !injected.is_empty() && strict_checked < 25 {
            strict_checked += 1;
            let mut strict_program = base.clone();
            let mut strict_injector = FaultInjector::new(seed ^ 0xBAD_5EED);
            let err = guarded_form_and_compact_hooked(
                &mut strict_program,
                &edge,
                Some(&path),
                scheme,
                &FormConfig::default(),
                &CompactConfig::default(),
                &guard(GuardMode::Strict),
                &mut |prog, pid| {
                    let _ = strict_injector.inject_effective(
                        prog,
                        pid,
                        &oracle_inputs,
                        STEP_BUDGET,
                        INJECT_ATTEMPTS,
                    );
                },
            );
            assert!(err.is_err(), "seed {seed}: strict mode must fail fast");
        }
    }

    // The sweep only proves something if the injector actually landed
    // faults; with 200 programs it lands many.
    assert!(
        total_injected >= 50,
        "only {total_injected} effective faults across {SEEDS} programs — injector too weak"
    );
    assert!(strict_checked > 0, "strict mode never exercised");
}

/// Clean-path property: without injected faults the guarded pipeline
/// reports clean, degrades nothing, and preserves behavior — the guard is
/// pure observation on healthy runs.
#[test]
fn clean_guarded_runs_report_clean_and_preserve_behavior() {
    for seed in 0..50u64 {
        let base = gen_program(seed, GenConfig::default());
        let scheme = schemes()[(seed % 4) as usize];
        let (edge, path) = profile(&base);
        let expected = run(&base);

        let mut program = base.clone();
        let result = guarded_form_and_compact(
            &mut program,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &guard(GuardMode::Strict),
        )
        .unwrap_or_else(|e| panic!("seed {seed} ({}): {e}", scheme.name()));

        assert!(result.report.clean(), "seed {seed}: {:?}", result.report);
        assert_eq!(result.report.total_procs, program.procs.len(), "seed {seed}");
        let got = run(&program);
        assert_eq!(expected.output, got.output, "seed {seed}");
        assert_eq!(expected.return_value, got.return_value, "seed {seed}");
        assert_eq!(expected.memory, got.memory, "seed {seed}");
    }
}

/// Engine parity (ISSUE: flat pre-decoded interpreter): the guard's
/// `run_bounded` differential oracle, rollback, and degrade behavior must
/// be *identical* whichever execution engine is active — the injector's
/// effectiveness probe, the oracle baselines, and the whole-program oracle
/// checks all go through the engine-dispatched `Exec`. Each sweep runs
/// inside `catch_unwind`: the guard's recovery boundary must contain every
/// fault under the fast engine exactly as it does under the reference
/// engine, and never let a panic escape.
#[test]
fn guard_oracle_and_rollback_identical_across_engines() {
    use pps::ir::{with_engine, Engine};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Everything observable about one guarded degrade-mode sweep plus the
    /// strict-mode replay: incidents, degraded count, recovered program,
    /// and the strict error (if any).
    #[derive(Debug, PartialEq)]
    struct SweepOutcome {
        incidents: Vec<(String, &'static str, String, bool)>,
        degraded: usize,
        program: Program,
        output: Vec<i64>,
        strict_err: Option<String>,
    }

    fn sweep(seed: u64) -> SweepOutcome {
        let oracle_inputs = vec![vec![]];
        let base = gen_program(seed, GenConfig::default());
        let scheme = schemes()[(seed % 4) as usize];
        let (edge, path) = profile(&base);

        let mut program = base.clone();
        let mut injector = FaultInjector::new(seed ^ 0xBAD_5EED);
        let result = guarded_form_and_compact_hooked(
            &mut program,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &guard(GuardMode::Degrade),
            &mut |prog, pid| {
                let _ = injector.inject_effective(prog, pid, &oracle_inputs, STEP_BUDGET, INJECT_ATTEMPTS);
            },
        )
        .expect("degrade mode never fails");

        let mut strict_program = base.clone();
        let mut strict_injector = FaultInjector::new(seed ^ 0xBAD_5EED);
        let strict_err = guarded_form_and_compact_hooked(
            &mut strict_program,
            &edge,
            Some(&path),
            scheme,
            &FormConfig::default(),
            &CompactConfig::default(),
            &guard(GuardMode::Strict),
            &mut |prog, pid| {
                let _ = strict_injector.inject_effective(prog, pid, &oracle_inputs, STEP_BUDGET, INJECT_ATTEMPTS);
            },
        )
        .err()
        .map(|e| e.to_string());

        SweepOutcome {
            incidents: result
                .report
                .incidents
                .iter()
                .map(|i| (i.proc.clone(), i.pass.name(), i.error.to_string(), i.fallback))
                .collect(),
            degraded: result.report.degraded_procs,
            output: run(&program).output,
            program,
            strict_err,
        }
    }

    let mut with_incidents = 0usize;
    for seed in 0..40u64 {
        let reference = catch_unwind(AssertUnwindSafe(|| with_engine(Engine::Reference, || sweep(seed))))
            .unwrap_or_else(|_| panic!("seed {seed}: reference-engine sweep panicked"));
        let fast = catch_unwind(AssertUnwindSafe(|| with_engine(Engine::Fast, || sweep(seed))))
            .unwrap_or_else(|_| panic!("seed {seed}: fast-engine sweep panicked"));
        assert_eq!(fast, reference, "seed {seed}: guard behavior diverges across engines");
        if !fast.incidents.is_empty() {
            with_incidents += 1;
            assert!(fast.strict_err.is_some(), "seed {seed}: strict mode must fail when degrade degraded");
        }
    }
    assert!(with_incidents >= 10, "only {with_incidents}/40 sweeps saw incidents — parity check too weak");
}
