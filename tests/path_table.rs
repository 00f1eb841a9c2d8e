//! Differential test of the general path profile's window table against
//! brute force.
//!
//! For programs from the `tests/guardrails.rs` generator (its default
//! configuration and a larger one with longer loops), every maximal window
//! is recomputed naively from the raw block trace at depths 0, 1, 2 and 15,
//! and the profile must agree on:
//!
//! - `iter_maximal_windows`: the same windows with the same counts;
//! - `maximal_window_count`: every window's count, and 0 for suffixes
//!   that never ended an event as a maximal window;
//! - `freq`: the summed count of the windows ending in every distinct
//!   suffix, and 0 for sequences that never ran;
//! - `distinct_paths`: the number of distinct suffixes.
//!
//! `PathProfile::from_windows` is held to the same answers with its edge
//! cases: repeated windows are summed, zero-count windows answer no query
//! but still count toward `distinct_paths`, and procedures may be empty.

use pps::ir::interp::{ExecConfig, Interp};
use pps::ir::{BlockEvent, BlockId, ProcId, Program, VecSink};
use pps::profile::{merge_paths, PathProfile, PathProfiler};
use pps::testgen::{gen_program, GenConfig};
use std::collections::{BTreeMap, BTreeSet};

const SEEDS: u64 = 200;
const DEPTHS: [usize; 4] = [0, 1, 2, 15];
/// Traces longer than this are skipped to keep the naive recount cheap.
const MAX_EVENTS: usize = 20_000;

/// The guardrails sweep's generator settings, then deeper nesting and
/// longer loops for longer windows and more sharing between them.
fn configs() -> [GenConfig; 2] {
    [
        GenConfig::default(),
        GenConfig {
            max_depth: 4,
            max_stmts: 6,
            max_procs: 3,
            max_trip: 10,
        },
    ]
}

/// The generated programs whose traces are short enough, with their
/// traces.
fn programs() -> Vec<(String, Program, Vec<BlockEvent>)> {
    let mut out = Vec::new();
    for (ci, config) in configs().into_iter().enumerate() {
        for seed in 0..SEEDS {
            let program = gen_program(seed, config);
            let mut sink = VecSink::new();
            Interp::new(&program, ExecConfig::default())
                .run_traced(&[], &mut sink)
                .unwrap();
            if sink.events.len() <= MAX_EVENTS {
                out.push((format!("config {ci} seed {seed}"), program, sink.events));
            }
        }
    }
    out
}

type Windows = BTreeMap<Vec<BlockId>, u64>;

/// Per procedure, the count of every maximal window of every activation.
fn naive_windows(program: &Program, events: &[BlockEvent], depth: usize) -> Vec<Windows> {
    let mut per_proc: Vec<Windows> = program.procs.iter().map(|_| Windows::new()).collect();
    let mut stacks: Vec<Vec<Vec<BlockId>>> = program.procs.iter().map(|_| Vec::new()).collect();
    for e in events {
        match *e {
            BlockEvent::Enter(p) => stacks[p.index()].push(Vec::new()),
            BlockEvent::Exit(p) => {
                stacks[p.index()].pop();
            }
            BlockEvent::Block(p, b) => {
                let seq = stacks[p.index()].last_mut().expect("activation");
                seq.push(b);
                let proc = program.proc(p);
                let mut start = seq.len() - 1;
                let mut branches = 0;
                while start > 0 {
                    let counted = usize::from(proc.block(seq[start - 1]).term.is_counted_branch());
                    if branches + counted > depth {
                        break;
                    }
                    branches += counted;
                    start -= 1;
                }
                *per_proc[p.index()]
                    .entry(seq[start..].to_vec())
                    .or_insert(0) += 1;
            }
        }
    }
    per_proc
}

/// Every distinct suffix of the windows with the summed count of the
/// windows ending in it — the specification of `freq`.
fn suffix_freqs(windows: &Windows) -> BTreeMap<Vec<BlockId>, u64> {
    let mut freqs = BTreeMap::new();
    for (w, &count) in windows {
        for s in 0..w.len() {
            *freqs.entry(w[s..].to_vec()).or_insert(0) += count;
        }
    }
    freqs
}

/// Asserts that `profile` answers every query for `pid` as `windows`
/// (the stored windows, zero counts included) dictates.
fn check_proc(profile: &PathProfile, pid: ProcId, windows: &Windows, what: &str) {
    let live: Windows = windows
        .iter()
        .filter(|(_, &c)| c > 0)
        .map(|(w, &c)| (w.clone(), c))
        .collect();
    let got: Windows = profile.iter_maximal_windows(pid).into_iter().collect();
    assert_eq!(got, live, "{what}: iter_maximal_windows");
    assert_eq!(
        profile.iter_maximal_windows(pid).len(),
        live.len(),
        "{what}: iter_maximal_windows repeats a window"
    );

    let freqs = suffix_freqs(windows);
    assert_eq!(
        profile.distinct_paths(pid),
        freqs.len(),
        "{what}: distinct_paths"
    );
    for (seq, &want) in &freqs {
        assert_eq!(profile.freq(pid, seq), want, "{what}: freq {seq:?}");
        let count = live.get(seq).copied().unwrap_or(0);
        assert_eq!(
            profile.maximal_window_count(pid, seq),
            count,
            "{what}: count {seq:?}"
        );
    }

    // Sequences that never ran: a window extended past its oldest block
    // by a block id no procedure has, and every block repeated twice
    // where that pair never ran.
    let unknown = BlockId::new(u32::MAX - 1);
    for w in windows.keys().take(64) {
        let mut longer = vec![unknown];
        longer.extend_from_slice(w);
        assert_eq!(profile.freq(pid, &longer), 0, "{what}: freq {longer:?}");
        assert_eq!(
            profile.maximal_window_count(pid, &longer),
            0,
            "{what}: count {longer:?}"
        );
    }
    let blocks: BTreeSet<BlockId> = windows.keys().flatten().copied().collect();
    for &b in &blocks {
        let pair = [b, b];
        let want = freqs.get(&pair[..]).copied().unwrap_or(0);
        assert_eq!(profile.freq(pid, &pair), want, "{what}: freq {pair:?}");
    }
    assert_eq!(profile.freq(pid, &[]), 0, "{what}: empty sequence");
}

fn profile(program: &Program, depth: usize) -> PathProfile {
    let mut prof = PathProfiler::new(program, depth);
    Interp::new(program, ExecConfig::default())
        .run_traced(&[], &mut prof)
        .unwrap();
    prof.finish()
}

#[test]
fn profiler_matches_brute_force_windows() {
    let programs = programs();
    assert!(
        programs.len() as u64 >= SEEDS,
        "only {} programs were small enough",
        programs.len()
    );
    for (name, program, events) in &programs {
        for depth in DEPTHS {
            let expected = naive_windows(program, events, depth);
            let prof = profile(program, depth);
            assert_eq!(prof.num_procs(), expected.len());
            for (pi, windows) in expected.iter().enumerate() {
                let pid = ProcId::new(pi as u32);
                let what = format!("{name} depth {depth} proc {pi}");
                check_proc(&prof, pid, windows, &what);
                let (hits, misses) = prof.cache_stats(pid);
                let events: u64 = windows.values().sum();
                assert_eq!(hits + misses, events, "{what}: cache_stats");
                assert!(
                    misses as usize >= windows.len(),
                    "{what}: every window is stored on a miss"
                );
            }
        }
    }
}

#[test]
fn from_windows_matches_brute_force_with_edge_cases() {
    let unknown = BlockId::new(u32::MAX - 1);
    for (name, program, events) in &programs() {
        for depth in DEPTHS {
            let expected = naive_windows(program, events, depth);
            // Split every count over two entries (given in reverse order),
            // add a zero-count window per procedure that has any, and
            // append one empty procedure.
            let mut stored = expected.clone();
            let mut per_proc: Vec<Vec<(Vec<BlockId>, u64)>> = Vec::new();
            for windows in stored.iter_mut() {
                let mut entries: Vec<(Vec<BlockId>, u64)> = Vec::new();
                for (w, &c) in windows.iter() {
                    entries.push((w.clone(), c / 2));
                    entries.push((w.clone(), c - c / 2));
                }
                if let Some(w) = windows.keys().next().cloned() {
                    let mut cold = w;
                    cold.insert(0, unknown);
                    entries.push((cold.clone(), 0));
                    windows.insert(cold, 0);
                }
                entries.reverse();
                per_proc.push(entries);
            }
            per_proc.push(Vec::new());
            stored.push(Windows::new());

            let rebuilt = PathProfile::from_windows(depth, per_proc);
            assert_eq!(rebuilt.depth(), depth);
            assert_eq!(rebuilt.num_procs(), stored.len());
            for (pi, windows) in stored.iter().enumerate() {
                let pid = ProcId::new(pi as u32);
                check_proc(
                    &rebuilt,
                    pid,
                    windows,
                    &format!("from_windows {name} depth {depth} proc {pi}"),
                );
                assert_eq!(rebuilt.cache_stats(pid), (0, 0));
            }

            // Merging drops zero-count windows and doubles the rest.
            let merged = merge_paths(&rebuilt, &rebuilt).expect("same shape");
            for (pi, windows) in expected.iter().enumerate() {
                let doubled: Windows = windows.iter().map(|(w, &c)| (w.clone(), 2 * c)).collect();
                let pid = ProcId::new(pi as u32);
                check_proc(
                    &merged,
                    pid,
                    &doubled,
                    &format!("merge {name} depth {depth} proc {pi}"),
                );
            }
        }
    }
}

#[test]
fn empty_and_degenerate_tables() {
    let b = BlockId::new;
    let empty = PathProfile::from_windows(15, vec![Vec::new(), Vec::new()]);
    for pi in 0..2 {
        let pid = ProcId::new(pi);
        assert_eq!(empty.distinct_paths(pid), 0);
        assert_eq!(empty.freq(pid, &[b(0)]), 0);
        assert_eq!(empty.maximal_window_count(pid, &[b(0)]), 0);
        assert!(empty.iter_maximal_windows(pid).is_empty());
    }

    // Only zero-count windows: nothing answers, but the paths exist.
    let cold = PathProfile::from_windows(15, vec![vec![(vec![b(1), b(2)], 0), (vec![b(2)], 0)]]);
    let pid = ProcId::new(0);
    assert_eq!(cold.distinct_paths(pid), 2);
    assert_eq!(cold.freq(pid, &[b(2)]), 0);
    assert!(cold.iter_maximal_windows(pid).is_empty());

    // Duplicates sum, and a window's own suffix counts toward its freq.
    let dup = PathProfile::from_windows(
        15,
        vec![vec![
            (vec![b(1), b(2)], 3),
            (vec![b(2)], 1),
            (vec![b(1), b(2)], 4),
        ]],
    );
    assert_eq!(dup.maximal_window_count(pid, &[b(1), b(2)]), 7);
    assert_eq!(dup.maximal_window_count(pid, &[b(2)]), 1);
    assert_eq!(dup.freq(pid, &[b(2)]), 8);
    assert_eq!(dup.freq(pid, &[b(1)]), 0);
    assert_eq!(dup.distinct_paths(pid), 2);

    // Counts at the u64 ceiling: duplicates saturate, and a range sum is
    // exact as long as it fits, even when the table's total does not.
    let big = PathProfile::from_windows(
        15,
        vec![vec![
            (vec![b(1)], u64::MAX - 1),
            (vec![b(1)], 5),
            (vec![b(2)], 7),
            (vec![b(3), b(2)], 1),
        ]],
    );
    assert_eq!(big.maximal_window_count(pid, &[b(1)]), u64::MAX);
    assert_eq!(big.freq(pid, &[b(1)]), u64::MAX);
    assert_eq!(big.freq(pid, &[b(2)]), 8);
    let doubled = merge_paths(&big, &big).unwrap();
    assert_eq!(doubled.maximal_window_count(pid, &[b(1)]), u64::MAX);
    assert_eq!(doubled.freq(pid, &[b(2)]), 16);
}
