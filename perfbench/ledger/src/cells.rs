//! Benchmark × scheme cells: the untraced pass (the harness's own calls)
//! and the traced replica that rebuilds the runner's composition from
//! public calls and times each one.

use pps_compact::try_compact_program;
use pps_core::{
    form_program, guarded_form_and_compact, inline_hot_calls, pool, FormStats, GuardConfig,
    InlineConfig, Scheme,
};
use pps_ir::interp::{ExecConfig, Interp};
use pps_ir::trace::TeeSink;
use pps_ir::{Exec, ProcId, Program};
use pps_profile::serialize::{edge_from_text, edge_to_text, path_from_text, path_to_text};
use pps_profile::{
    profile_pair_hash, EdgeProfile, EdgeProfiler, KPathProfile, KPathProfiler, PathProfile,
    PathProfiler, DEFAULT_PATH_DEPTH,
};
use pps_serve::runner::ProfileCache;
use pps_serve::{run_scheme, RunConfig, RunError, SchemeRun};
use pps_sim::{simulate, Layout};
use pps_suite::Benchmark;
use std::cell::Cell as StdCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::stats::{ratio, Report};

/// The scheme set of every workload: edge, path, path-enlarged,
/// k-iteration and interprocedural formation.
pub const SCHEMES: [Scheme; 6] = [
    Scheme::M4,
    Scheme::P4,
    Scheme::P4E,
    Scheme::PK2,
    Scheme::PK3,
    Scheme::PX4,
];

/// One benchmark × scheme measurement.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Index into the workload's benchmark list.
    pub bench: usize,
    /// Scheme to compile with.
    pub scheme: Scheme,
}

/// Every benchmark × scheme pair in the harness's matrix order
/// (benchmark-major). The order decides which cell pays for training and
/// which workers race on it, so it is fixed: the sweeps' input is the
/// suite itself, and `--seed` does not change it.
pub fn cell_set(n_benches: usize) -> Vec<Cell> {
    (0..n_benches)
        .flat_map(|bench| SCHEMES.iter().map(move |&scheme| Cell { bench, scheme }))
        .collect()
}

/// Result of one untraced pass over a cell set.
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: f64,
    /// Wall time of each cell.
    pub cell_walls: Vec<f64>,
    /// Wall time of each cell's `run_scheme` call (its wall time less the
    /// `ProfileCache::fill`, which trains on a miss).
    pub run_walls: Vec<f64>,
    /// Each cell's result, in cell order.
    pub runs: Vec<Result<SchemeRun, RunError>>,
}

/// Runs every cell the way the harness does: one shared `ProfileCache`,
/// `pool::run_indexed` over `jobs` workers, `ProfileCache::fill` then
/// `run_scheme` per cell.
pub fn untraced_pass(benches: &[Benchmark], cells: &[Cell], jobs: usize) -> Pass {
    let config = RunConfig::paper();
    let profiles = ProfileCache::default();
    let start = Instant::now();
    let out = pool::run_indexed(jobs, cells.len(), |i| {
        let cell = cells[i];
        let bench = &benches[cell.bench];
        let t = Instant::now();
        let filled = profiles.fill(bench, cell.scheme, &config);
        let filled_at = t.elapsed().as_secs_f64();
        let run = filled.and_then(|filled| run_scheme(bench, cell.scheme, &filled));
        let cell_wall = t.elapsed().as_secs_f64();
        (cell_wall, cell_wall - filled_at, run)
    });
    let wall = start.elapsed().as_secs_f64();
    let mut pass = Pass {
        wall,
        cell_walls: Vec::new(),
        run_walls: Vec::new(),
        runs: Vec::new(),
    };
    for (cell_wall, run_wall, run) in out {
        pass.cell_walls.push(cell_wall);
        pass.run_walls.push(run_wall);
        pass.runs.push(run);
    }
    pass
}

/// The values of a run that must not change between passes.
pub fn fingerprint(run: &SchemeRun) -> String {
    format!(
        "cycles={} icache={} static={} accesses={} misses={} instrs={} procs={} incidents={} form={:?}",
        run.cycles,
        run.cycles_icache,
        run.static_instrs,
        run.accesses,
        run.misses,
        run.counts.instrs,
        run.guard.total_procs,
        run.guard.incidents.len(),
        run.form_stats
    )
}

/// Counts failed cells (errors, or guard incidents that degraded a
/// procedure) into `report`, naming each.
pub fn count_failures(report: &mut Report, benches: &[Benchmark], cells: &[Cell], pass: &Pass) {
    for (cell, run) in cells.iter().zip(&pass.runs) {
        report.attempted += 1;
        let name = format!("{}/{}", benches[cell.bench].name, cell.scheme.name());
        match run {
            Ok(r) if r.guard.incidents.is_empty() => {}
            Ok(r) => {
                report.failed += 1;
                report.problem(format!(
                    "{name}: {} guard incidents",
                    r.guard.incidents.len()
                ));
            }
            Err(e) => {
                report.failed += 1;
                report.problem(format!("{name}: {e}"));
            }
        }
    }
}

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call (`core.form`, `sim.test_run`, …) or unit root (`cell`,
    /// `train`).
    pub name: &'static str,
    /// Unique id.
    pub id: u32,
    /// Id of the enclosing root span (0 for a root).
    pub parent: u32,
    /// Unit id: the cell index, or the training unit index offset past
    /// the cells.
    pub unit: u32,
    /// Worker lane the call ran on.
    pub lane: u32,
    /// Start, seconds since the traced pass began.
    pub start: f64,
    /// Duration in seconds.
    pub dur: f64,
}

static NEXT_SPAN: AtomicU32 = AtomicU32::new(1);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static LANE: StdCell<Option<u32>> = const { StdCell::new(None) };
}

fn lane() -> u32 {
    LANE.with(|l| {
        *l.get()
            .get_or_insert_with(|| NEXT_LANE.fetch_add(1, Ordering::Relaxed))
    })
}

/// Span recorder for one unit of work (a cell or a training run). The
/// spans stay in memory until the pass ends.
struct Recorder {
    origin: Instant,
    unit: u32,
    root: u32,
    root_start: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(origin: Instant, unit: u32) -> Self {
        Recorder {
            origin,
            unit,
            root: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            root_start: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as one span under this unit's root.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.spans.push(Span {
            name,
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent: self.root,
            unit: self.unit,
            lane: lane(),
            start: start.duration_since(self.origin).as_secs_f64(),
            dur: start.elapsed().as_secs_f64(),
        });
        value
    }

    /// Closes the root span and returns (root wall, all spans).
    fn finish(mut self, name: &'static str) -> (f64, Vec<Span>) {
        let dur = self.root_start.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            id: self.root,
            parent: 0,
            unit: self.unit,
            lane: lane(),
            start: self.root_start.duration_since(self.origin).as_secs_f64(),
            dur,
        });
        (dur, self.spans)
    }
}

/// Deterministic work counters of a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Instructions interpreted by training runs (including the `Px4`
    /// retrain on the inlined program).
    pub instrs_train: u64,
    /// Instructions interpreted by layout runs.
    pub instrs_layout: u64,
    /// Instructions interpreted by test runs.
    pub instrs_test: u64,
    /// Σ distinct path windows over the trained path profiles.
    pub path_windows: u64,
    /// Text bytes of the trained profile pairs (edge + path).
    pub text_bytes: u64,
    /// Call sites inlined by `Px4`.
    pub inline_sites: u64,
    /// Superblocks formed (guarded pipeline).
    pub superblocks: u64,
    /// Scheduled items (guarded pipeline).
    pub sched_items: u64,
    /// Whole-program oracle runs: Σ `GuardReport::total_procs`.
    pub oracle_runs: u64,
    /// Guard incidents.
    pub incidents: u64,
    /// I-cache accesses of the test runs.
    pub icache_accesses: u64,
    /// I-cache misses of the test runs.
    pub icache_misses: u64,
}

impl Work {
    fn add(&mut self, o: &Work) {
        self.instrs_train += o.instrs_train;
        self.instrs_layout += o.instrs_layout;
        self.instrs_test += o.instrs_test;
        self.path_windows += o.path_windows;
        self.text_bytes += o.text_bytes;
        self.inline_sites += o.inline_sites;
        self.superblocks += o.superblocks;
        self.sched_items += o.sched_items;
        self.oracle_runs += o.oracle_runs;
        self.incidents += o.incidents;
        self.icache_accesses += o.icache_accesses;
        self.icache_misses += o.icache_misses;
    }
}

/// What one traced unit produced.
#[derive(Default)]
struct UnitOut {
    wall: f64,
    spans: Vec<Span>,
    work: Work,
    problems: Vec<String>,
    /// Output or fidelity mismatches (each a failed cell).
    mismatches: u64,
}

/// Result of a traced pass.
pub struct TracedPass {
    /// Σ wall time of the units (training units and cells).
    pub unit_wall: f64,
    /// Every span.
    pub spans: Vec<Span>,
    /// Deterministic counters.
    pub work: Work,
    /// Cells whose output or replica values disagreed.
    pub mismatches: u64,
    /// Check failures.
    pub problems: Vec<String>,
}

type Pair = Arc<(EdgeProfile, PathProfile)>;

fn path_windows(program: &Program, path: &PathProfile) -> u64 {
    (0..program.procs.len())
        .map(|p| path.distinct_paths(ProcId::new(p as u32)) as u64)
        .sum()
}

/// A trained profile pair, with the k-iteration profile it was derived
/// from (`Pk*` kinds) and the instructions the training run interpreted.
pub struct Trained {
    /// Edge profile.
    pub edge: EdgeProfile,
    /// Depth-15 path profile (derived from `kpath` for `Pk*` kinds).
    pub path: PathProfile,
    /// The k-iteration profile, for `Pk*` kinds.
    pub kpath: Option<KPathProfile>,
    /// Instructions interpreted.
    pub instrs: u64,
}

/// One training run of `program` on `args`, as the runner makes it: the
/// edge profiler teed with the depth-15 path profiler, or with the
/// k-iteration profiler whose derived path profile the `Pk*` schemes use.
pub fn train(program: &Program, args: &[i64], k: Option<u32>) -> Result<Trained, String> {
    let exec = Exec::new(program, ExecConfig::default());
    match k {
        None => {
            let mut tee = TeeSink::new(
                EdgeProfiler::new(program),
                PathProfiler::new(program, DEFAULT_PATH_DEPTH),
            );
            let r = exec.run_traced(args, &mut tee).map_err(|e| e.to_string())?;
            Ok(Trained {
                edge: tee.a.finish(),
                path: tee.b.finish(),
                kpath: None,
                instrs: r.counts.instrs,
            })
        }
        Some(k) => {
            let mut tee = TeeSink::new(
                EdgeProfiler::new(program),
                KPathProfiler::new(program, k as usize),
            );
            let r = exec.run_traced(args, &mut tee).map_err(|e| e.to_string())?;
            let kpath = tee.b.finish();
            let path = kpath.to_path_profile(DEFAULT_PATH_DEPTH);
            Ok(Trained {
                edge: tee.a.finish(),
                path,
                kpath: Some(kpath),
                instrs: r.counts.instrs,
            })
        }
    }
}

/// A training unit: one profile kind of one benchmark, trained once per
/// pass like `ProfileCache` does, then serialized, parsed back and hashed
/// the way the daemon does on its request path.
fn train_unit(bench: &Benchmark, k: Option<u32>, rec: &mut Recorder) -> (Option<Pair>, UnitOut) {
    let mut out = UnitOut::default();
    let program = &bench.program;
    let pair = match rec.time("profile.train", || train(program, &bench.train_args, k)) {
        Ok(Trained {
            edge, path, instrs, ..
        }) => {
            out.work.instrs_train += instrs;
            out.work.path_windows += path_windows(program, &path);
            let parsed = rec.time("profile.codec", || {
                let (e, p) = (edge_to_text(&edge), path_to_text(&path));
                let ok = edge_from_text(&e).is_ok() && path_from_text(&p).is_ok();
                (e.len() + p.len(), ok)
            });
            out.work.text_bytes += parsed.0 as u64;
            if !parsed.1 {
                out.problems
                    .push(format!("{}: profile text does not parse back", bench.name));
            }
            rec.time("profile.hash", || {
                std::hint::black_box((
                    pps_ir::hash::program_hash(program),
                    profile_pair_hash(&edge, &path),
                ))
            });
            Some(Arc::new((edge, path)))
        }
        Err(e) => {
            out.problems.push(format!("{} train run: {e}", bench.name));
            None
        }
    };
    (pair, out)
}

/// The runner's composition for one cell, rebuilt from public calls, each
/// timed: inline (`Px4`), unguarded `form_program` + `try_compact_program`,
/// `guarded_form_and_compact` without and then with the oracle, the
/// layout run, `Layout::build`, and the test run. The test-run output is
/// compared with the reference `Interp` on the original program, and the
/// measured values with those `run_scheme` returned for the same cell.
fn replay_cell(
    bench: &Benchmark,
    scheme: Scheme,
    pair: &Pair,
    reference: &OnceLock<Result<Vec<i64>, String>>,
    expected: &SchemeRun,
    rec: &mut Recorder,
) -> Result<(Work, Vec<String>), String> {
    let config = RunConfig::paper();
    let name = format!("{}/{}", bench.name, scheme.name());
    let mut work = Work::default();
    let mut mismatches = Vec::new();
    let mut program = bench.program.clone();

    let mut pair = pair.clone();
    if matches!(scheme, Scheme::Inter { .. }) {
        let inline_config = InlineConfig {
            oracle_inputs: vec![bench.train_args.clone()],
            step_budget: config.guard.step_budget,
            ..InlineConfig::default()
        };
        let outcome = rec.time("core.inline", || {
            inline_hot_calls(&mut program, &pair.0, &inline_config)
        });
        work.inline_sites += outcome.inlined.len() as u64;
        if !outcome.inlined.is_empty() {
            let retrained = rec.time("profile.retrain", || {
                train(&program, &bench.train_args, None)
            })?;
            work.instrs_train += retrained.instrs;
            work.path_windows += path_windows(&program, &retrained.path);
            pair = Arc::new((retrained.edge, retrained.path));
        }
    }
    let (edge, path) = (&pair.0, &pair.1);

    let mut compact_config = config.compact;
    compact_config.machine = config.machine;

    // Unguarded formation and compaction on a copy.
    let mut bare = program.clone();
    let formed = rec
        .time("core.form", || {
            form_program(&mut bare, edge, Some(path), scheme, &config.form)
        })
        .map_err(|e| format!("form_program: {e}"))?;
    let bare_items = rec
        .time("compact", || {
            try_compact_program(&mut bare, &formed.partition, &compact_config)
        })
        .map_err(|e| format!("try_compact_program: {e}"))?
        .total_items();

    // The guard without oracle inputs (checks only), on a copy.
    let no_oracle = GuardConfig {
        oracle_inputs: Vec::new(),
        ..config.guard.clone()
    };
    let mut checked = program.clone();
    rec.time("guard.no_oracle", || {
        guarded_form_and_compact(
            &mut checked,
            edge,
            Some(path),
            scheme,
            &config.form,
            &compact_config,
            &no_oracle,
        )
    })
    .map_err(|e| format!("guarded_form_and_compact without oracle: {e}"))?;

    // The guard as the runner configures it.
    let guard = GuardConfig {
        oracle_inputs: vec![bench.train_args.clone()],
        ..config.guard.clone()
    };
    let guarded = rec
        .time("guard.with_oracle", || {
            guarded_form_and_compact(
                &mut program,
                edge,
                Some(path),
                scheme,
                &config.form,
                &compact_config,
                &guard,
            )
        })
        .map_err(|e| format!("guarded_form_and_compact: {e}"))?;
    work.superblocks += guarded.stats.superblocks;
    work.sched_items += guarded.compacted.total_items();
    work.oracle_runs += guarded.report.total_procs as u64;
    work.incidents += guarded.report.incidents.len() as u64;

    let layout_out = rec
        .time("sim.layout_run", || {
            simulate(
                &program,
                &guarded.compacted,
                &config.machine,
                None,
                &bench.train_args,
            )
        })
        .map_err(|e| format!("layout run: {e}"))?;
    work.instrs_layout += layout_out.exec.counts.instrs;
    let layout = rec.time("sim.layout_build", || {
        Layout::build(
            &program,
            &guarded.compacted,
            &layout_out.transitions,
            &config.machine,
        )
    });
    let out = rec
        .time("sim.test_run", || {
            simulate(
                &program,
                &guarded.compacted,
                &config.machine,
                Some(&layout),
                &bench.test_args,
            )
        })
        .map_err(|e| format!("test run: {e}"))?;
    work.instrs_test += out.exec.counts.instrs;
    let icache = out.icache.unwrap_or_default();
    work.icache_accesses += icache.accesses;
    work.icache_misses += icache.misses;

    // Release-mode output check against the reference interpreter.
    let reference = match reference.get() {
        Some(r) => r,
        None => {
            let r = rec.time("check.reference", || {
                Interp::new(&bench.program, ExecConfig::default())
                    .run(&bench.test_args)
                    .map(|r| r.output)
                    .map_err(|e| e.to_string())
            });
            reference.get_or_init(|| r)
        }
    };
    match reference {
        Ok(output) if *output == out.exec.output => {}
        Ok(_) => mismatches.push(format!(
            "{name}: transformed program's test output differs from the original's"
        )),
        Err(e) => return Err(format!("reference run: {e}")),
    }

    // Replica fidelity: the rebuilt composition must measure what
    // `run_scheme` measured.
    let replica = (
        out.cycles,
        out.cycles_with_icache(),
        guarded.compacted.total_items(),
        guarded.stats,
    );
    let runner: (u64, u64, u64, FormStats) = (
        expected.cycles,
        expected.cycles_icache,
        expected.static_instrs,
        expected.form_stats,
    );
    if replica != runner {
        mismatches.push(format!(
            "{name}: replica (cycles, cycles_icache, static_instrs, form_stats) {replica:?} != run_scheme {runner:?}"
        ));
    }
    if guarded.report.clean() && bare_items != guarded.compacted.total_items() {
        mismatches.push(format!(
            "{name}: clean guard, but unguarded sched_items {bare_items} != guarded {}",
            guarded.compacted.total_items()
        ));
    }
    Ok((work, mismatches))
}

/// Replays the runner's composition for every cell with each layer call
/// timed. Profiles are trained first, once per benchmark and profile
/// kind, as one `ProfileCache` per pass would; then the cells run on
/// `jobs` workers. `expected` holds `run_scheme`'s results for the cells.
pub fn traced_pass(
    benches: &[Benchmark],
    cells: &[Cell],
    jobs: usize,
    expected: &[Result<SchemeRun, RunError>],
) -> TracedPass {
    let origin = Instant::now();
    let mut kinds: Vec<(usize, Option<u32>)> = cells
        .iter()
        .map(|c| (c.bench, c.scheme.kpath_k()))
        .collect();
    kinds.sort();
    kinds.dedup();
    let trained = pool::run_indexed(jobs, kinds.len(), |i| {
        let (bench, k) = kinds[i];
        let mut rec = Recorder::new(origin, (cells.len() + i) as u32);
        let (pair, mut out) = train_unit(&benches[bench], k, &mut rec);
        (out.wall, out.spans) = rec.finish("train");
        (pair, out)
    });
    let pairs: BTreeMap<(usize, Option<u32>), Option<Pair>> = kinds
        .iter()
        .zip(&trained)
        .map(|(key, (pair, _))| (*key, pair.clone()))
        .collect();
    let references: Vec<OnceLock<Result<Vec<i64>, String>>> =
        benches.iter().map(|_| OnceLock::new()).collect();

    let replayed = pool::run_indexed(jobs, cells.len(), |i| {
        let cell = cells[i];
        let bench = &benches[cell.bench];
        let mut rec = Recorder::new(origin, i as u32);
        let mut out = UnitOut::default();
        let name = format!("{}/{}", bench.name, cell.scheme.name());
        let pair = pairs
            .get(&(cell.bench, cell.scheme.kpath_k()))
            .cloned()
            .flatten();
        // A cell without a trained pair or a `run_scheme` result has
        // already been reported as failed.
        if let (Some(pair), Ok(run)) = (pair, &expected[i]) {
            match replay_cell(
                bench,
                cell.scheme,
                &pair,
                &references[cell.bench],
                run,
                &mut rec,
            ) {
                Ok((work, mismatches)) => {
                    out.work = work;
                    out.mismatches = mismatches.len() as u64;
                    out.problems = mismatches;
                }
                Err(e) => {
                    out.mismatches = 1;
                    out.problems.push(format!("{name}: {e}"));
                }
            }
        }
        (out.wall, out.spans) = rec.finish("cell");
        out
    });
    let mut pass = TracedPass {
        unit_wall: 0.0,
        spans: Vec::new(),
        work: Work::default(),
        mismatches: 0,
        problems: Vec::new(),
    };
    for out in trained.into_iter().map(|(_, out)| out).chain(replayed) {
        pass.unit_wall += out.wall;
        pass.spans.extend(out.spans);
        pass.work.add(&out.work);
        pass.mismatches += out.mismatches;
        pass.problems.extend(out.problems);
    }
    pass
}

/// Σ duration of the spans called `name`.
fn total(spans: &[Span], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| s.dur)
        .sum()
}

/// Calls a replayed cell makes that `run_scheme` does not: the unguarded
/// pipeline, the check-only guard, and the reference run.
const REPLICA_ONLY: [&str; 4] = ["core.form", "compact", "guard.no_oracle", "check.reference"];

/// Records the per-layer metrics of a traced pass and its untraced
/// counterpart, the deterministic counters, and every failed check.
pub fn layer_metrics(report: &mut Report, untraced: &Pass, traced: &TracedPass, jobs: usize) {
    let spans = &traced.spans;
    let w = &traced.work;
    report.failed += traced.mismatches;
    for p in &traced.problems {
        report.problem(p.clone());
    }

    report.metric(
        "profile.train_s",
        total(spans, &["profile.train", "profile.retrain"]),
        "s",
    );
    report.metric("exec.instrs.train", w.instrs_train as f64, "count");
    report.metric("exec.instrs.layout", w.instrs_layout as f64, "count");
    report.metric("exec.instrs.test", w.instrs_test as f64, "count");
    report.metric("profile.path_windows", w.path_windows as f64, "count");
    report.metric("core.inline_s", total(spans, &["core.inline"]), "s");
    report.metric("core.inline.sites", w.inline_sites as f64, "count");
    let form = total(spans, &["core.form"]);
    let compact = total(spans, &["compact"]);
    report.metric("core.form_s", form, "s");
    report.metric("core.superblocks", w.superblocks as f64, "count");
    report.metric("compact_s", compact, "s");
    report.metric("compact.sched_items", w.sched_items as f64, "count");
    let no_oracle = total(spans, &["guard.no_oracle"]);
    let with_oracle = total(spans, &["guard.with_oracle"]);
    report.metric("guard.check_s", no_oracle - form - compact, "s");
    report.metric("guard.oracle_s", with_oracle - no_oracle, "s");
    report.metric("guard.oracle_runs", w.oracle_runs as f64, "count");
    report.metric("guard.incidents", w.incidents as f64, "count");
    report.metric("sim.layout_run_s", total(spans, &["sim.layout_run"]), "s");
    report.metric(
        "sim.layout_build_s",
        total(spans, &["sim.layout_build"]),
        "s",
    );
    report.metric("sim.test_run_s", total(spans, &["sim.test_run"]), "s");
    report.metric("sim.icache_accesses", w.icache_accesses as f64, "count");
    report.metric(
        "sim.icache_miss_ratio",
        ratio(w.icache_misses as f64, w.icache_accesses as f64),
        "ratio",
    );

    let cell_sum: f64 = untraced.cell_walls.iter().sum();
    report.metric(
        "pool.util",
        ratio(cell_sum, jobs as f64 * untraced.wall),
        "ratio",
    );
    report.metric(
        "pool.longest_cell_s",
        untraced.cell_walls.iter().copied().fold(0.0, f64::max),
        "s",
    );
    let roots = ["cell", "train"];
    let timed: f64 = spans
        .iter()
        .filter(|s| !roots.contains(&s.name))
        .map(|s| s.dur)
        .sum();
    report.metric("sweep.other_s", traced.unit_wall - timed, "s");
    report.metric("check.reference_s", total(spans, &["check.reference"]), "s");
    // Tracing overhead: replayed cells (less the calls `run_scheme` does
    // not make) against the `run_scheme` calls of the untraced pass.
    // Training is left out on both sides: `ProfileCache` trains twice when
    // two workers race on one benchmark, the replica trains once.
    let traced_cells: f64 = spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| s.dur)
        .sum();
    let run_sum: f64 = untraced.run_walls.iter().sum();
    report.metric(
        "trace.overhead_s",
        traced_cells - total(spans, &REPLICA_ONLY) - run_sum,
        "s",
    );

    report.counter("exec.instrs.train", w.instrs_train);
    report.counter("exec.instrs.layout", w.instrs_layout);
    report.counter("exec.instrs.test", w.instrs_test);
    report.counter("guard.oracle_runs", w.oracle_runs);
    report.counter("profile.path_windows", w.path_windows);
    report.counter("compact.sched_items", w.sched_items);
    report.counter("sim.icache_accesses", w.icache_accesses);
    report.counter("core.superblocks", w.superblocks);
    report.counter("core.inline.sites", w.inline_sites);
}

/// The profile-serialization metrics of the trained pairs: codec round
/// trips, hashes, and text size.
pub fn profile_io_metrics(report: &mut Report, traced: &TracedPass) {
    report.metric(
        "profile.codec_s",
        total(&traced.spans, &["profile.codec"]),
        "s",
    );
    report.metric(
        "profile.hash_s",
        total(&traced.spans, &["profile.hash"]),
        "s",
    );
    report.metric("profile.text_bytes", traced.work.text_bytes as f64, "bytes");
}

/// Writes the spans as a Chrome trace (one lane per worker, parent and
/// unit ids in `args`).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut doc = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            doc,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"unit\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.lane,
            s.start * 1e6,
            s.dur * 1e6,
            s.id,
            s.parent,
            s.unit
        );
    }
    doc.push_str("\n]}\n");
    std::fs::write(path, doc)
}

/// Reads the Figure 4 golden table (scale 1): benchmark → cycle columns
/// M4, P4, Pk2, Pk3, Px4.
pub fn golden_fig4(path: &std::path::Path) -> Result<BTreeMap<String, [u64; 5]>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = BTreeMap::new();
    for line in text.lines().skip_while(|l| !l.starts_with("---")).skip(1) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 6 {
            continue;
        }
        let mut cycles = [0u64; 5];
        for (slot, field) in cycles.iter_mut().zip(&fields[1..6]) {
            *slot = field
                .parse()
                .map_err(|e| format!("{}: `{line}`: {e}", path.display()))?;
        }
        rows.insert(fields[0].to_string(), cycles);
    }
    Ok(rows)
}

/// The golden table's schemes, in column order.
pub const GOLDEN_SCHEMES: [Scheme; 5] = [
    Scheme::M4,
    Scheme::P4,
    Scheme::PK2,
    Scheme::PK3,
    Scheme::PX4,
];

/// Checks scale-1 runs against the golden Figure 4 cycle columns. `runs`
/// maps (benchmark, scheme name) to the ideal-I-cache cycle count.
pub fn check_golden(report: &mut Report, runs: &BTreeMap<(String, String), u64>, benches: &[&str]) {
    let rows = match golden_fig4(std::path::Path::new(GOLDEN_PATH)) {
        Ok(rows) => rows,
        Err(e) => return report.problem(format!("golden self-test: {e}")),
    };
    for bench in benches {
        let Some(row) = rows.get(*bench) else {
            report.problem(format!("golden self-test: no row for {bench}"));
            continue;
        };
        for (scheme, want) in GOLDEN_SCHEMES.iter().zip(row) {
            let got = runs.get(&(bench.to_string(), scheme.name()));
            if got != Some(want) {
                report.problem(format!(
                    "golden self-test: {bench} {} cycles {got:?}, golden {want}",
                    scheme.name()
                ));
            }
        }
    }
}

/// The Figure 4 golden table, relative to the repository root.
pub const GOLDEN_PATH: &str = "tests/golden/fig4_scale1.txt";
