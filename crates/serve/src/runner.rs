//! One benchmark × scheme measurement, end to end.

use pps_compact::CompactConfig;
use pps_core::{
    guarded_form_and_compact_hooked_obs, guarded_form_and_compact_obs, FormConfig, FormStats,
    GuardConfig, GuardReport, PipelineError, Scheme,
};
use pps_ir::interp::{DynCounts, ExecConfig, ExecError, Interp};
use pps_ir::trace::TeeSink;
use pps_ir::{Exec, FaultInjector};
use pps_machine::MachineConfig;
use pps_obs::Obs;
use pps_profile::serialize::{edge_from_text, edge_to_text, path_from_text, path_to_text};
use pps_profile::{
    EdgeProfile, EdgeProfiler, KPathProfile, KPathProfiler, PathProfile, PathProfiler,
    DEFAULT_PATH_DEPTH,
};
use pps_sim::{simulate_obs, Layout, SbDynStats};
use pps_suite::Benchmark;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Any failure of one benchmark × scheme run, with the benchmark name
/// attached so sweep-level reports can say *which* run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// An interpreter/simulator run failed (`stage` is `train run`,
    /// `layout run` or `test run`).
    Exec {
        /// Benchmark being measured.
        bench: String,
        /// Which of the three executions failed.
        stage: &'static str,
        /// The underlying interpreter error.
        error: ExecError,
    },
    /// The scheduling pipeline failed (strict mode) or could not recover.
    Pipeline {
        /// Benchmark being measured.
        bench: String,
        /// The underlying pipeline error.
        error: PipelineError,
    },
    /// Loading or saving a serialized profile failed
    /// ([`RunConfig::profile_in`] / [`RunConfig::profile_out`]).
    Profile {
        /// Benchmark being measured.
        bench: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Exec { bench, stage, error } => write!(f, "{bench} {stage}: {error}"),
            RunError::Pipeline { bench, error } => write!(f, "{bench} pipeline: {error}"),
            RunError::Profile { bench, message } => write!(f, "{bench} profile: {message}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Exec { error, .. } => Some(error),
            RunError::Pipeline { error, .. } => Some(error),
            RunError::Profile { .. } => None,
        }
    }
}

/// Shared configuration across a sweep.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Machine model (latencies, width, cache).
    pub machine: MachineConfig,
    /// Formation parameters.
    pub form: FormConfig,
    /// Compaction parameters.
    pub compact: CompactConfig,
    /// Path-profile depth override (`None` = the paper's 15).
    pub path_depth: Option<usize>,
    /// Recovery-boundary configuration. With empty `oracle_inputs` the
    /// runner substitutes the benchmark's training input, so every run gets
    /// a real differential check against the untransformed program.
    pub guard: GuardConfig,
    /// When set, a deterministic fault injector corrupts each procedure
    /// after its formation + compaction (the guard's post-pass seam),
    /// exercising the recovery boundary under load. The injector is seeded
    /// from this value and the benchmark name only, so the same faults hit
    /// the same procedures no matter how runs are scheduled across workers.
    pub fault_seed: Option<u64>,
    /// Directory of saved profiles (`<bench>.edgeprof` / `<bench>.pathprof`,
    /// the `pps_profile::serialize` text formats). When set, the training
    /// run is skipped and profiles are loaded instead; a missing pair is an
    /// error unless [`RunConfig::profile_out`] also points somewhere (then
    /// the run falls back to training and saves — cache semantics).
    pub profile_in: Option<String>,
    /// Directory to save freshly collected profiles into (atomic
    /// write-then-rename, so concurrent cells of the same benchmark never
    /// tear a file).
    pub profile_out: Option<String>,
    /// An already-collected profile pair to compile against, skipping both
    /// the training run and any [`RunConfig::profile_in`] lookup. The serve
    /// daemon uses this to train once, fold the pair into its live
    /// aggregate, and still hand the *same object* to the pipeline — so
    /// metrics stay byte-identical to the train-inline path.
    pub preloaded: Option<std::sync::Arc<(EdgeProfile, PathProfile)>>,
}

impl RunConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        RunConfig::default()
    }
}

/// File paths of a benchmark's saved profile pair under `dir`. `suffix`
/// distinguishes profile kinds that must never collide on disk: empty for
/// the standard pair, `.pk{k}` for pairs whose path profile was derived
/// from a k-iteration training run.
fn profile_paths(dir: &str, bench: &str, suffix: &str) -> (String, String) {
    (
        format!("{dir}/{bench}{suffix}.edgeprof"),
        format!("{dir}/{bench}{suffix}.pathprof"),
    )
}

/// Loads a saved profile pair; `Ok(None)` when either file is absent.
fn load_profiles(
    dir: &str,
    bench: &str,
    suffix: &str,
    depth: usize,
) -> Result<Option<(EdgeProfile, PathProfile)>, String> {
    let (ep, pp) = profile_paths(dir, bench, suffix);
    if !Path::new(&ep).exists() || !Path::new(&pp).exists() {
        return Ok(None);
    }
    let edge_text = std::fs::read_to_string(&ep).map_err(|e| format!("{ep}: {e}"))?;
    let edge = edge_from_text(&edge_text).map_err(|e| format!("{ep}: {e}"))?;
    let path_text = std::fs::read_to_string(&pp).map_err(|e| format!("{pp}: {e}"))?;
    let path = path_from_text(&path_text).map_err(|e| format!("{pp}: {e}"))?;
    if path.depth() != depth {
        return Err(format!(
            "{pp}: saved at depth {}, this run wants depth {depth}",
            path.depth()
        ));
    }
    Ok(Some((edge, path)))
}

/// Saves a profile pair atomically (unique temp name, then rename), so
/// parallel cells of the same benchmark can save concurrently without
/// tearing each other's files.
fn save_profiles(
    dir: &str,
    bench: &str,
    suffix: &str,
    edge: &EdgeProfile,
    path: &PathProfile,
) -> Result<(), String> {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let (ep, pp) = profile_paths(dir, bench, suffix);
    for (dest, text) in [(ep, edge_to_text(edge)), (pp, path_to_text(path))] {
        let tmp = format!(
            "{dest}.tmp.{}.{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        );
        std::fs::write(&tmp, text).map_err(|e| format!("{tmp}: {e}"))?;
        std::fs::rename(&tmp, &dest).map_err(|e| format!("{dest}: {e}"))?;
    }
    Ok(())
}

/// One training run of `bench` feeding both profilers.
fn train_pair(bench: &Benchmark, depth: usize) -> Result<(EdgeProfile, PathProfile), RunError> {
    let program = &bench.program;
    let mut tee = TeeSink::new(EdgeProfiler::new(program), PathProfiler::new(program, depth));
    Exec::new(program, ExecConfig::default())
        .run_traced(&bench.train_args, &mut tee)
        .map_err(|error| RunError::Exec {
            bench: bench.name.to_string(),
            stage: "train run",
            error,
        })?;
    Ok((tee.a.finish(), tee.b.finish()))
}

/// One k-iteration training run of `bench`, feeding the edge profiler and
/// the k-iteration Ball–Larus profiler. The `Pk*` schemes derive their
/// path profile from the returned [`KPathProfile`] (every prefix of every
/// chopped k-path loaded as a maximal window), so formation sees
/// cross-iteration context exactly where a recorded span witnessed it.
pub fn train_kpair(
    bench: &Benchmark,
    k: usize,
) -> Result<(EdgeProfile, KPathProfile), RunError> {
    let program = &bench.program;
    let mut tee = TeeSink::new(EdgeProfiler::new(program), KPathProfiler::new(program, k));
    Exec::new(program, ExecConfig::default())
        .run_traced(&bench.train_args, &mut tee)
        .map_err(|error| RunError::Exec {
            bench: bench.name.to_string(),
            stage: "train run",
            error,
        })?;
    Ok((tee.a.finish(), tee.b.finish()))
}

/// Cross-run training cache: one trained `(edge, path)` profile pair per
/// `(benchmark, depth, profile kind)`, where the kind is the standard
/// forward profiler or a k-iteration derivation (`Pk*` schemes).
///
/// A profile pair depends only on the benchmark's program, its training
/// input, the path depth, and — for k-iteration pairs — k; not on machine
/// model, guard mode, or fault seed (faults are injected after profiling).
/// Sweeps that fan one benchmark out across many schemes can therefore
/// train once per kind and compile many times against the *same* profile
/// objects; the profilers are deterministic, so results are byte-identical
/// to retraining per cell.
///
/// Clones share the cache. The cache is thread-safe and single-flight per
/// key: when parallel workers race on an untrained benchmark, the first
/// trains and the others wait for its result — the pair, or the training
/// error, which is then returned to every caller of that key.
#[derive(Debug, Clone, Default)]
pub struct ProfileCache {
    inner: Arc<Mutex<HashMap<ProfileKey, Arc<ProfileSlot>>>>,
    training_runs: Arc<AtomicU64>,
}

/// Cache key: `(benchmark name, path depth, k-iteration bound)` — `None`
/// for the standard forward pair.
type ProfileKey = (String, usize, Option<u32>);
/// Shared, immutable trained profile pair.
type ProfilePair = Arc<(EdgeProfile, PathProfile)>;
/// One key's training outcome, filled once by the first caller while the
/// others block on it.
type ProfileSlot = OnceLock<Result<ProfilePair, RunError>>;

impl ProfileCache {
    /// Returns `config` with [`RunConfig::preloaded`] filled from the
    /// cache, training `bench` now on a miss. `scheme` selects the profile
    /// kind: `Pk*` schemes get a pair whose path profile is derived from a
    /// k-iteration training run (cached under a distinct key so standard
    /// and k-iteration pairs never alias). Configs that already carry a
    /// profile source (`preloaded`, `profile_in`) or want profiles saved
    /// (`profile_out`) pass through untouched.
    ///
    /// # Errors
    /// [`RunError::Exec`] when the training run fails.
    pub fn fill(
        &self,
        bench: &Benchmark,
        scheme: Scheme,
        config: &RunConfig,
    ) -> Result<RunConfig, RunError> {
        if config.preloaded.is_some() || config.profile_in.is_some() || config.profile_out.is_some()
        {
            return Ok(config.clone());
        }
        let depth = config.path_depth.unwrap_or(DEFAULT_PATH_DEPTH);
        let key = (bench.name.to_string(), depth, scheme.kpath_k());
        let slot = self.inner.lock().expect("profile cache lock").entry(key).or_default().clone();
        // Trains outside the map lock: other keys proceed, and callers of
        // this key block in `get_or_init` until the first one finishes.
        let pair = slot
            .get_or_init(|| {
                self.training_runs.fetch_add(1, Ordering::Relaxed);
                let pair = match scheme.kpath_k() {
                    Some(k) => {
                        let (edge, kprof) = train_kpair(bench, k as usize)?;
                        (edge, kprof.to_path_profile(depth))
                    }
                    None => train_pair(bench, depth)?,
                };
                Ok(Arc::new(pair))
            })
            .clone()?;
        Ok(RunConfig { preloaded: Some(pair), ..config.clone() })
    }

    /// Training runs this cache (and its clones) started so far: one per
    /// key, however many callers raced on it.
    pub fn training_runs(&self) -> u64 {
        self.training_runs.load(Ordering::Relaxed)
    }
}

/// FNV-1a over `bytes` — stable benchmark-name hashing for fault seeds
/// (`std`'s hasher is randomized per process). Shared arithmetic from
/// [`pps_core::hash`].
fn fnv1a(bytes: &[u8]) -> u64 {
    pps_core::hash::fnv1a64(bytes)
}

/// The measured result of one benchmark × scheme run.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// Scheme that produced the code.
    pub scheme: Scheme,
    /// Cycle count on the testing input, perfect I-cache.
    pub cycles: u64,
    /// Cycle count including I-cache miss penalties.
    pub cycles_icache: u64,
    /// I-cache miss rate per instruction fetch.
    pub miss_rate: f64,
    /// I-cache fetch accesses.
    pub accesses: u64,
    /// I-cache misses.
    pub misses: u64,
    /// Figure 7 statistics (testing input).
    pub sb_stats: SbDynStats,
    /// Laid-out code size in instructions.
    pub static_instrs: u64,
    /// Formation statistics.
    pub form_stats: FormStats,
    /// Dynamic counts of the testing run.
    pub counts: DynCounts,
    /// Guardrail outcome: incidents recorded and procedures degraded while
    /// producing this run (empty/zero on a clean run).
    pub guard: GuardReport,
}

/// Runs the complete methodology for `bench` under `scheme`:
/// train-profile → form → compact → train-layout → measure on test input.
///
/// The formation + compaction step runs inside the pipeline's recovery
/// boundary ([`guarded_form_and_compact`]): in
/// [`GuardMode::Degrade`](pps_core::GuardMode) a procedure that fails its
/// post-pass checks falls back to basic-block scheduling and the run
/// continues (see [`SchemeRun::guard`]); in strict mode the first incident
/// surfaces here as [`RunError::Pipeline`].
pub fn run_scheme(
    bench: &Benchmark,
    scheme: Scheme,
    config: &RunConfig,
) -> Result<SchemeRun, RunError> {
    run_scheme_obs(bench, scheme, config, &Obs::noop())
}

/// [`run_scheme`] with observability: the whole run executes under a
/// `run-scheme` span (children: `profile`, the guarded pipeline's
/// per-procedure spans, `layout`, and the two `simulate` runs), with
/// metrics and decision events labeled `bench` and `scheme`.
///
/// # Errors
/// As [`run_scheme`].
pub fn run_scheme_obs(
    bench: &Benchmark,
    scheme: Scheme,
    config: &RunConfig,
    obs: &Obs,
) -> Result<SchemeRun, RunError> {
    let obs = obs.with_label("bench", bench.name).with_label("scheme", scheme.name());
    let _run_span = obs
        .span("run-scheme")
        .arg("bench", bench.name)
        .arg("scheme", scheme.name());
    let mut program = bench.program.clone();
    let exec_config = ExecConfig::default();
    let exec_err = |stage: &'static str| {
        move |error: ExecError| RunError::Exec { bench: bench.name.to_string(), stage, error }
    };

    // 1. Profiles: load a saved pair when configured, otherwise one
    // training run feeds both profilers (optionally saving the pair so
    // later runs — or a serve daemon's Compile requests — can reuse it).
    let depth = config.path_depth.unwrap_or(DEFAULT_PATH_DEPTH);
    let profile_span = obs.span("profile").arg("depth", depth);
    let profile_err =
        |message: String| RunError::Profile { bench: bench.name.to_string(), message };
    // k-iteration schemes train a different profile kind (the path
    // profile is derived from chopped k-paths); their saved pairs live
    // under `.pk{k}` names so the two kinds never alias on disk. The
    // preloaded seam is the caller's responsibility — the ProfileCache
    // and the serve daemon both key on the scheme.
    let suffix = scheme.kpath_k().map(|k| format!(".pk{k}")).unwrap_or_default();
    let mut loaded: Option<Arc<(EdgeProfile, PathProfile)>> = config.preloaded.clone();
    if let (None, Some(dir)) = (&loaded, &config.profile_in) {
        match load_profiles(dir, bench.name, &suffix, depth).map_err(&profile_err)? {
            Some(pair) => loaded = Some(Arc::new(pair)),
            // With an output directory the missing pair is a cache miss:
            // train below and save. Without one it is a user error.
            None if config.profile_out.is_some() => {}
            None => {
                return Err(profile_err(format!(
                    "no saved profile in {dir} (expected {name}{suffix}.edgeprof and \
                     {name}{suffix}.pathprof); run with --profile-out first",
                    name = bench.name
                )))
            }
        }
    }
    let mut pair: Arc<(EdgeProfile, PathProfile)> = match loaded {
        Some(pair) => pair,
        None => {
            let pair = match scheme.kpath_k() {
                Some(k) => {
                    let (edge, kprof) = train_kpair(bench, k as usize)?;
                    let path = kprof.to_path_profile(depth);
                    (edge, path)
                }
                None => train_pair(bench, depth)?,
            };
            if let Some(dir) = &config.profile_out {
                save_profiles(dir, bench.name, &suffix, &pair.0, &pair.1)
                    .map_err(&profile_err)?;
            }
            Arc::new(pair)
        }
    };
    drop(profile_span);

    // Interprocedural phase (`Px4`): inline the hottest call sites behind
    // the guard's recovery discipline, then retrain both profilers on the
    // inlined program — the profiles the pipeline consumes must describe
    // the blocks formation will actually see.
    if matches!(scheme, Scheme::Inter { .. }) {
        let inline_span = obs.span("inline");
        let inline_config = pps_core::InlineConfig {
            oracle_inputs: vec![bench.train_args.clone()],
            step_budget: config.guard.step_budget,
            ..pps_core::InlineConfig::default()
        };
        let outcome = pps_core::inline_hot_calls(&mut program, &pair.0, &inline_config);
        if obs.is_recording() {
            obs.counter("inline.sites", outcome.inlined.len() as u64);
            obs.counter("inline.rolled_back", outcome.rolled_back as u64);
            obs.counter("inline.skipped", outcome.skipped as u64);
        }
        drop(inline_span);
        if !outcome.inlined.is_empty() {
            let retrain_span = obs.span("profile").arg("stage", "retrain");
            let mut tee =
                TeeSink::new(EdgeProfiler::new(&program), PathProfiler::new(&program, depth));
            Exec::new(&program, exec_config)
                .run_traced(&bench.train_args, &mut tee)
                .map_err(exec_err("inline retrain run"))?;
            pair = Arc::new((tee.a.finish(), tee.b.finish()));
            drop(retrain_span);
        }
    }
    let (edge, path) = (&pair.0, &pair.1);
    edge.record_metrics(&obs);
    path.record_metrics(&obs);

    // 2. Form + compact under the recovery boundary. The runner's machine
    // description is the single source of truth: it overrides the
    // compactor's copy so latency-model sweeps affect the schedules, not
    // just the cache simulation.
    let mut compact_config = config.compact;
    compact_config.machine = config.machine;
    let mut guard = config.guard.clone();
    if guard.oracle_inputs.is_empty() {
        guard.oracle_inputs = vec![bench.train_args.clone()];
    }
    let guarded = match config.fault_seed {
        None => guarded_form_and_compact_obs(
            &mut program,
            edge,
            Some(path),
            scheme,
            &config.form,
            &compact_config,
            &guard,
            &obs,
        ),
        Some(seed) => {
            // Seeded per (seed, benchmark) only — never per worker or run
            // order — so fault routing is identical at any job count.
            let mut injector = FaultInjector::new(seed ^ fnv1a(bench.name.as_bytes()));
            let inputs = vec![bench.train_args.clone()];
            let budget = guard.step_budget;
            guarded_form_and_compact_hooked_obs(
                &mut program,
                edge,
                Some(path),
                scheme,
                &config.form,
                &compact_config,
                &guard,
                &obs,
                &mut |prog, pid| {
                    let _ = injector.inject_effective(prog, pid, &inputs, budget, 32);
                },
            )
        }
    }
    .map_err(|error| RunError::Pipeline { bench: bench.name.to_string(), error })?;
    let compacted = guarded.compacted;
    let form_stats = guarded.stats;

    // 3. Training-input run over the transformed code for layout weights.
    let train_out = simulate_obs(
        &program,
        &compacted,
        &config.machine,
        None,
        &bench.train_args,
        &obs.with_label("stage", "layout"),
    )
    .map_err(exec_err("layout run"))?;
    let layout = {
        let _span = obs.span("layout");
        Layout::build(&program, &compacted, &train_out.transitions, &config.machine)
    };

    // 4. Measured run on the testing input.
    let out = simulate_obs(
        &program,
        &compacted,
        &config.machine,
        Some(&layout),
        &bench.test_args,
        &obs.with_label("stage", "test"),
    )
    .map_err(exec_err("test run"))?;

    // Sanity: the transformed program must behave like the original.
    debug_assert_eq!(
        out.exec.output,
        Interp::new(&bench.program, exec_config)
            .run(&bench.test_args)
            .expect("original runs")
            .output,
        "{}: transformation changed observable behavior",
        bench.name
    );

    let icache = out.icache.expect("layout supplied");
    if obs.is_recording() {
        obs.counter("form.static_before", form_stats.static_before);
        obs.counter("form.static_after", form_stats.static_after);
        obs.counter("compact.static_instrs", compacted.total_items());
    }
    Ok(SchemeRun {
        scheme,
        cycles: out.cycles,
        cycles_icache: out.cycles_with_icache(),
        miss_rate: icache.miss_rate(),
        accesses: icache.accesses,
        misses: icache.misses,
        sb_stats: out.sb_stats,
        static_instrs: compacted.total_items(),
        form_stats,
        counts: out.exec.counts,
        guard: guarded.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_suite::{benchmark_by_name, Scale};

    #[test]
    fn full_methodology_on_wc() {
        let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
        let config = RunConfig::paper();
        let bb = run_scheme(&bench, Scheme::BasicBlock, &config).unwrap();
        let m4 = run_scheme(&bench, Scheme::M4, &config).unwrap();
        let p4 = run_scheme(&bench, Scheme::P4, &config).unwrap();
        assert!(m4.cycles < bb.cycles, "M4 {} !< BB {}", m4.cycles, bb.cycles);
        assert!(p4.cycles < bb.cycles, "P4 {} !< BB {}", p4.cycles, bb.cycles);
        assert!(p4.sb_stats.avg_blocks_executed() > bb.sb_stats.avg_blocks_executed());
        assert!(p4.static_instrs >= bb.static_instrs);
        assert!(p4.miss_rate >= 0.0 && p4.miss_rate < 1.0);
        // The runs went through the guarded pipeline and were clean.
        assert!(bb.guard.clean() && m4.guard.clean() && p4.guard.clean());
    }

    #[test]
    fn saved_profiles_reproduce_the_training_run() {
        let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
        let dir = std::env::temp_dir()
            .join(format!("pps-profile-io-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();

        // Pass 1: train and save.
        let mut save_cfg = RunConfig::paper();
        save_cfg.profile_out = Some(dir.clone());
        let trained = run_scheme(&bench, Scheme::P4, &save_cfg).unwrap();
        assert!(Path::new(&format!("{dir}/wc.edgeprof")).exists());
        assert!(Path::new(&format!("{dir}/wc.pathprof")).exists());

        // Pass 2: load; measurements must be identical.
        let mut load_cfg = RunConfig::paper();
        load_cfg.profile_in = Some(dir.clone());
        let loaded = run_scheme(&bench, Scheme::P4, &load_cfg).unwrap();
        assert_eq!(loaded.cycles, trained.cycles);
        assert_eq!(loaded.cycles_icache, trained.cycles_icache);
        assert_eq!(loaded.static_instrs, trained.static_instrs);
        assert_eq!(loaded.sb_stats, trained.sb_stats);

        // A missing pair without an output fallback is a structured error.
        let mut missing_cfg = RunConfig::paper();
        missing_cfg.profile_in = Some(format!("{dir}/nowhere"));
        let err = run_scheme(&bench, Scheme::P4, &missing_cfg).unwrap_err();
        assert!(matches!(err, RunError::Profile { .. }), "{err}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kpath_and_inter_schemes_run_end_to_end() {
        let config = RunConfig::paper();
        // A loopy benchmark exercises the k-iteration chopper; `calls`-style
        // benchmarks exercise the inline phase. Both must run the full
        // methodology cleanly and produce sane measurements.
        let bench = benchmark_by_name("alt", Scale::quick()).unwrap();
        let bb = run_scheme(&bench, Scheme::BasicBlock, &config).unwrap();
        for scheme in [Scheme::PK2, Scheme::PK3, Scheme::PX4] {
            let r = run_scheme(&bench, scheme, &config).unwrap();
            assert!(r.guard.clean(), "{}: {:?}", scheme.name(), r.guard);
            assert!(r.cycles > 0 && r.cycles <= bb.cycles, "{}", scheme.name());
        }
        // Runs are deterministic per scheme.
        let a = run_scheme(&bench, Scheme::PK2, &config).unwrap();
        let b = run_scheme(&bench, Scheme::PK2, &config).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.static_instrs, b.static_instrs);
    }

    #[test]
    fn profile_cache_trains_each_key_once_under_contention() {
        let bench = benchmark_by_name("wc", Scale::quick()).unwrap();
        let config = RunConfig::paper();
        let cache = ProfileCache::default();
        let barrier = std::sync::Barrier::new(4);
        // Four workers race on each of two keys (the standard pair and the
        // k = 2 pair); each key must be trained exactly once.
        let pairs: Vec<Vec<ProfilePair>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        [Scheme::P4, Scheme::PK2, Scheme::M4, Scheme::PK2]
                            .into_iter()
                            .map(|scheme| {
                                cache.fill(&bench, scheme, &config).unwrap().preloaded.unwrap()
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(cache.training_runs(), 2);
        for worker in &pairs {
            assert!(Arc::ptr_eq(&worker[0], &pairs[0][0]), "one standard pair");
            assert!(Arc::ptr_eq(&worker[2], &pairs[0][0]), "M4 shares P4's pair");
            assert!(Arc::ptr_eq(&worker[1], &pairs[0][1]), "one k = 2 pair");
            assert!(Arc::ptr_eq(&worker[3], &pairs[0][1]));
        }
        assert!(!Arc::ptr_eq(&pairs[0][0], &pairs[0][1]), "kinds never alias");
    }

    #[test]
    fn profile_cache_returns_a_training_error_to_every_caller() {
        let mut bench = benchmark_by_name("wc", Scale::quick()).unwrap();
        // A training input the program cannot take: every caller sees the
        // one training run's error.
        bench.train_args = vec![0; 64];
        let config = RunConfig::paper();
        let cache = ProfileCache::default();
        let barrier = std::sync::Barrier::new(4);
        let errors: Vec<RunError> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.fill(&bench, Scheme::P4, &config).unwrap_err()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(cache.training_runs(), 1);
        assert!(matches!(errors[0], RunError::Exec { stage: "train run", .. }), "{}", errors[0]);
        assert!(errors.iter().all(|e| *e == errors[0]));
    }

    #[test]
    fn micro_benchmarks_strongly_favor_paths() {
        let bench = benchmark_by_name("alt", Scale::quick()).unwrap();
        let config = RunConfig::paper();
        let m4 = run_scheme(&bench, Scheme::M4, &config).unwrap();
        let p4 = run_scheme(&bench, Scheme::P4, &config).unwrap();
        assert!(
            p4.cycles < m4.cycles,
            "alt: P4 {} !< M4 {} (path profiles must exploit the TTTF pattern)",
            p4.cycles,
            m4.cycles
        );
    }
}
