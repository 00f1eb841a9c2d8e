//! General-path-profile lockdown.
//!
//! `tests/golden/path_profiles.txt` pins, byte for byte, what the general
//! path profiler records for every suite benchmark at scale 1:
//!
//! - per procedure, the number of distinct paths (`distinct_paths`) and
//!   the transition-cache statistics (`cache_stats`) of the depth-15
//!   training profile;
//! - the canonical `path_hash` and the total `distinct_paths` of four
//!   profiles: the depth-15 training profile, the `Pk2`/`Pk3` views
//!   derived from k-iteration training, and the `Px4` profile retrained on
//!   the inlined program;
//! - the same for the depth-15 profile merged with its weight inversion,
//!   which exercises `from_windows` and `merge_paths`.
//!
//! The file was recorded with the reversed-trie path profile. Any later
//! storage format must reproduce it exactly.
//!
//! To regenerate after an *intentional* change:
//! `BLESS=1 cargo test --test path_profiles`.

use pps::core::{inline_hot_calls, InlineConfig};
use pps::ir::interp::ExecConfig;
use pps::ir::trace::TeeSink;
use pps::ir::{Exec, ProcId, Program};
use pps::profile::{
    merge_paths, path_hash, EdgeProfile, EdgeProfiler, PathProfile, PathProfiler,
    DEFAULT_PATH_DEPTH,
};
use pps::serve::runner::{train_kpair, RunConfig};
use pps::suite::{all_benchmarks, Benchmark, Scale};
use std::fmt::Write as _;
use std::path::Path;

fn train(program: &Program, args: &[i64]) -> (EdgeProfile, PathProfile) {
    let mut tee = TeeSink::new(
        EdgeProfiler::new(program),
        PathProfiler::new(program, DEFAULT_PATH_DEPTH),
    );
    Exec::new(program, ExecConfig::default())
        .run_traced(args, &mut tee)
        .expect("training run");
    (tee.a.finish(), tee.b.finish())
}

/// Every maximal window's count becomes `max + 1 - count` (the harness's
/// train/test divergence sweep uses the same construction).
fn invert(path: &PathProfile) -> PathProfile {
    let per_proc = (0..path.num_procs())
        .map(|pi| {
            let windows = path.iter_maximal_windows(ProcId::new(pi as u32));
            let max = windows.iter().map(|(_, c)| *c).max().unwrap_or(0);
            windows.into_iter().map(|(w, c)| (w, max + 1 - c)).collect()
        })
        .collect();
    PathProfile::from_windows(path.depth(), per_proc)
}

/// The `Px4` retrain: inline the hottest call sites exactly as
/// `run_scheme` does, then profile the inlined program again (`None` when
/// nothing was inlined and the runner keeps the original pair).
fn px4_retrain(bench: &Benchmark, edge: &EdgeProfile) -> Option<PathProfile> {
    let mut program = bench.program.clone();
    let config = InlineConfig {
        oracle_inputs: vec![bench.train_args.clone()],
        step_budget: RunConfig::default().guard.step_budget,
        ..InlineConfig::default()
    };
    let outcome = inline_hot_calls(&mut program, edge, &config);
    (!outcome.inlined.is_empty()).then(|| train(&program, &bench.train_args).1)
}

/// A profile's canonical hash and its distinct-path total over all
/// procedures (the hash covers the window counts, not the path count).
fn summary(path: &PathProfile) -> String {
    let paths: usize = (0..path.num_procs())
        .map(|pi| path.distinct_paths(ProcId::new(pi as u32)))
        .sum();
    format!("{:016x} paths {paths}", path_hash(path))
}

fn render_bench(out: &mut String, bench: &Benchmark) {
    let (edge, path) = train(&bench.program, &bench.train_args);
    writeln!(out, "== {} ==", bench.name).unwrap();
    for pi in 0..path.num_procs() {
        let pid = ProcId::new(pi as u32);
        let (hits, misses) = path.cache_stats(pid);
        writeln!(
            out,
            "proc {pi} distinct_paths {} cache_hits {hits} cache_misses {misses}",
            path.distinct_paths(pid)
        )
        .unwrap();
    }
    writeln!(out, "P15 {}", summary(&path)).unwrap();
    for k in [2, 3] {
        let (_, kprof) = train_kpair(bench, k).expect("k-iteration training run");
        let derived = kprof.to_path_profile(DEFAULT_PATH_DEPTH);
        writeln!(out, "Pk{k} {}", summary(&derived)).unwrap();
    }
    match px4_retrain(bench, &edge) {
        Some(retrained) => writeln!(out, "Px4 {}", summary(&retrained)).unwrap(),
        None => writeln!(out, "Px4 not inlined").unwrap(),
    }
    let mixed = merge_paths(&path, &invert(&path)).expect("same shape and depth");
    writeln!(out, "merge-inverted {}", summary(&mixed)).unwrap();
}

#[test]
fn path_profiles_match_golden() {
    let mut got = String::new();
    for bench in all_benchmarks(Scale(1)) {
        render_bench(&mut got, &bench);
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/path_profiles.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with BLESS=1 cargo test --test path_profiles",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "path profiles changed byte-wise vs {}; if intentional, re-bless",
        path.display()
    );
}
