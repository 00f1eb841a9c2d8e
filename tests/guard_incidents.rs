//! Incident lockdown for the pipeline guard.
//!
//! `tests/golden/guard_incidents.txt` pins, byte for byte, every incident
//! the recovery boundary reports — procedure, pass, failure kind, rendered
//! error and fallback flag — together with the strict-mode error, over
//! three workloads:
//!
//! - the `tests/guardrails.rs` generated-program fault sweep (same seeds,
//!   schemes, injector and budget), in degrade and strict mode;
//! - `run_scheme` with `RunConfig::fault_seed` over the scale-1 suite;
//! - a hand-built program whose pass output is silently wrong in two
//!   procedures, so the differential oracle (not the verifier) must find
//!   and attribute both.
//!
//! The file was recorded with the per-procedure guard, which ran the
//! oracle after every procedure. Any later guard must report exactly the
//! same incidents in the same order.
//!
//! To regenerate after an *intentional* change:
//! `BLESS=1 cargo test --test guard_incidents`.

use pps::compact::CompactConfig;
use pps::core::{
    guarded_form_and_compact_hooked, FormConfig, GuardConfig, GuardMode, GuardReport,
    GuardedResult, PipelineError, Scheme,
};
use pps::ir::builder::ProgramBuilder;
use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::trace::TeeSink;
use pps::ir::{AluOp, FaultInjector, Instr, Operand, ProcId, Program, Reg};
use pps::profile::{EdgeProfile, EdgeProfiler, PathProfile, PathProfiler};
use pps::serve::runner::{run_scheme, RunConfig};
use pps::suite::{all_benchmarks, Scale};
use pps::testgen::{gen_program, GenConfig};
use std::fmt::Write as _;
use std::path::Path;

/// The guardrails sweep's parameters (see `tests/guardrails.rs`).
const SEEDS: u64 = 200;
const STEP_BUDGET: u64 = 200_000;
const INJECT_ATTEMPTS: u32 = 16;
const SCHEMES: [Scheme; 4] = [Scheme::P4, Scheme::M4, Scheme::P4E, Scheme::M16];

fn profile(p: &Program, args: &[i64]) -> (EdgeProfile, PathProfile) {
    let mut tee = TeeSink::new(EdgeProfiler::new(p), PathProfiler::new(p, 15));
    Interp::new(p, ExecConfig::default())
        .run_traced(args, &mut tee)
        .expect("profiling run");
    (tee.a.finish(), tee.b.finish())
}

fn guard(mode: GuardMode, oracle_inputs: Vec<Vec<i64>>) -> GuardConfig {
    GuardConfig {
        mode,
        oracle_inputs,
        step_budget: STEP_BUDGET,
        budget_factor: 8,
    }
}

fn render_report(out: &mut String, report: &GuardReport) {
    writeln!(
        out,
        "  degraded {}/{} procs, {} incidents",
        report.degraded_procs,
        report.total_procs,
        report.incidents.len()
    )
    .unwrap();
    for i in &report.incidents {
        writeln!(
            out,
            "  incident proc={} pass={} kind={} fallback={} | {}",
            i.proc,
            i.pass,
            i.error.kind(),
            i.fallback,
            i
        )
        .unwrap();
    }
}

fn render_outcome(
    out: &mut String,
    mode: GuardMode,
    outcome: &Result<GuardedResult, PipelineError>,
) {
    match outcome {
        Ok(result) => {
            writeln!(out, " {mode}: ok").unwrap();
            render_report(out, &result.report);
        }
        Err(e) => writeln!(out, " {mode}: err kind={} | {e}", e.kind()).unwrap(),
    }
}

/// The guardrails fault sweep, both modes, every seed.
fn render_fault_sweep(out: &mut String) {
    writeln!(
        out,
        "== guardrails fault sweep ({SEEDS} generated programs) =="
    )
    .unwrap();
    for seed in 0..SEEDS {
        let base = gen_program(seed, GenConfig::default());
        let scheme = SCHEMES[(seed % 4) as usize];
        let (edge, path) = profile(&base, &[]);
        let oracle_inputs = vec![vec![]];
        writeln!(out, "seed {seed} {}", scheme.name()).unwrap();
        for mode in [GuardMode::Degrade, GuardMode::Strict] {
            let mut program = base.clone();
            let mut injector = FaultInjector::new(seed ^ 0xBAD_5EED);
            let outcome = guarded_form_and_compact_hooked(
                &mut program,
                &edge,
                Some(&path),
                scheme,
                &FormConfig::default(),
                &CompactConfig::default(),
                &guard(mode, oracle_inputs.clone()),
                &mut |prog, pid| {
                    let _ = injector.inject_effective(
                        prog,
                        pid,
                        &oracle_inputs,
                        STEP_BUDGET,
                        INJECT_ATTEMPTS,
                    );
                },
            );
            render_outcome(out, mode, &outcome);
        }
    }
}

/// `run_scheme` with the runner's own fault injector over the scale-1
/// suite (degrade mode, the runner default).
fn render_run_scheme_faults(out: &mut String) {
    writeln!(out, "== run_scheme fault_seed over the scale-1 suite ==").unwrap();
    let config = RunConfig {
        fault_seed: Some(0x5EED),
        ..RunConfig::paper()
    };
    for bench in all_benchmarks(Scale(1)) {
        for scheme in [Scheme::M4, Scheme::P4] {
            let run = run_scheme(&bench, scheme, &config)
                .unwrap_or_else(|e| panic!("{} {}: {e}", bench.name, scheme.name()));
            writeln!(out, "{} {}", bench.name, scheme.name()).unwrap();
            render_report(out, &run.guard);
        }
    }
}

/// `main(n)` sums five small helpers over `0..n`, printing the running
/// sum each iteration. Helper `hK(x)` is `x * (K + 2)` on odd `x` and
/// `x + 10K` on even `x`.
fn five_helpers() -> Program {
    let mut pb = ProgramBuilder::new();
    let mut helpers = Vec::new();
    for k in 1..=5i64 {
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
        helpers.push(h.finish());
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
    for &h in &helpers {
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

/// Emulates a pass that miscompiles `pid` without any structural damage:
/// every multiply by a constant multiplies by one more. The blocks are
/// edited in place, so the procedure keeps the generation its pass gave it
/// and the guard cannot tell the corruption from the pass's own output.
fn corrupt_silently(program: &mut Program, pid: ProcId) {
    for block in &mut program.procs[pid.index()].blocks {
        for instr in &mut block.instrs {
            if let Instr::Alu {
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

/// Two silently miscompiled procedures (`h2`, `h4`) among six.
fn render_two_oracle_failures(out: &mut String) {
    writeln!(out, "== hand-built: h2 and h4 fail the oracle ==").unwrap();
    let base = five_helpers();
    let (edge, path) = profile(&base, &[40]);
    let original_gens: Vec<u64> = base.procs.iter().map(|p| p.generation()).collect();
    for scheme in [Scheme::M4, Scheme::P4] {
        writeln!(out, "{}", scheme.name()).unwrap();
        for mode in [GuardMode::Degrade, GuardMode::Strict] {
            let mut program = base.clone();
            let outcome = guarded_form_and_compact_hooked(
                &mut program,
                &edge,
                Some(&path),
                scheme,
                &FormConfig::default(),
                &CompactConfig::default(),
                &guard(mode, vec![vec![1], vec![40]]),
                &mut |prog, pid| {
                    if matches!(prog.proc(pid).name.as_str(), "h2" | "h4") {
                        assert_ne!(
                            prog.proc(pid).generation(),
                            original_gens[pid.index()],
                            "the pass must have rewritten {}",
                            prog.proc(pid).name
                        );
                        corrupt_silently(prog, pid);
                    }
                },
            );
            render_outcome(out, mode, &outcome);
        }
    }
}

fn render_all() -> String {
    let mut out = String::new();
    render_fault_sweep(&mut out);
    render_run_scheme_faults(&mut out);
    render_two_oracle_failures(&mut out);
    out
}

#[test]
fn guard_incidents_are_byte_stable() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/guard_incidents.txt");
    let got = render_all();

    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }

    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with BLESS=1 cargo test --test guard_incidents",
            path.display()
        )
    });
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "guard incidents changed vs {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }
}
