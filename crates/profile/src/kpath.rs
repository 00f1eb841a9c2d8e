//! k-iteration Ball–Larus path profiling.
//!
//! The forward profiler ([`crate::forward`]) chops the dynamic block trace
//! at *every* back edge, so no path spans a loop iteration boundary and
//! cross-iteration branch correlation is invisible. Following the
//! multi-iteration Ball–Larus construction (arXiv:1304.5197), this profiler
//! lets a path run until it is about to cross its **k-th** back edge: each
//! counted path covers up to `k` consecutive iterations of the enclosing
//! loop, exposing exactly the correlation a cross-iteration superblock
//! former needs. `k = 1` degenerates to the forward profiler — the chop
//! points coincide by construction, which `tests/interp_diff.rs` locks down
//! bit-for-bit across the whole suite.
//!
//! A frozen [`KPathProfile`] answers exact counts for completed k-paths and
//! derives a [`PathProfile`] view ([`KPathProfile::to_path_profile`]) whose
//! `freq(seq)` is the number of occurrences of `seq` *within* recorded
//! k-iteration spans. Substrings that would cross a chop boundary score
//! zero — that loss is the honest fidelity semantics of kBL profiles, and
//! it is what lets the existing path-based trace selector and enlarger run
//! unchanged over k-iteration data: enlargement simply finds no support for
//! extensions the profile never observed.

use crate::path::{PathProfile, WindowSet};
use pps_ir::analysis::ProcAnalysis;
use pps_ir::{BlockId, ProcId, Program, TraceSink};
use std::collections::{HashMap, HashSet};

/// Live k-iteration path collector. A [`TraceSink`], like the other
/// profilers, so it tees onto any interpreter run.
#[derive(Debug)]
pub struct KPathProfiler {
    /// Back-edge crossings allowed per path (`k >= 1`).
    k: usize,
    /// Per-procedure back-edge sets.
    back_edges: Vec<HashSet<(BlockId, BlockId)>>,
    /// Per-procedure stacks of in-progress paths with their back-edge
    /// crossing counts (one entry per live activation).
    current: Vec<Vec<(Vec<BlockId>, usize)>>,
    /// Per-procedure completed-path counts.
    counts: Vec<HashMap<Vec<BlockId>, u64>>,
    /// Maximum path length in blocks (guards pathological growth; 0 = no
    /// limit). When reached, the path is finalized and a new one starts.
    max_blocks: usize,
}

impl KPathProfiler {
    /// Creates a collector for `program` counting paths of up to `k`
    /// iterations, with no block-length cap.
    ///
    /// # Panics
    /// Panics if `k == 0`; a path that may cross no back edge and contain
    /// no block is not a path.
    pub fn new(program: &Program, k: usize) -> Self {
        Self::with_max_blocks(program, k, 0)
    }

    /// Creates a collector that additionally finalizes paths after
    /// `max_blocks` blocks (0 = unlimited).
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn with_max_blocks(program: &Program, k: usize, max_blocks: usize) -> Self {
        assert!(k >= 1, "k-iteration paths need k >= 1");
        let back_edges = program
            .procs
            .iter()
            .map(|p| {
                let a = ProcAnalysis::compute(p);
                a.loops.back_edges.iter().copied().collect()
            })
            .collect();
        KPathProfiler {
            k,
            back_edges,
            current: program.procs.iter().map(|_| Vec::new()).collect(),
            counts: program.procs.iter().map(|_| HashMap::new()).collect(),
            max_blocks,
        }
    }

    fn finalize(counts: &mut HashMap<Vec<BlockId>, u64>, path: &mut Vec<BlockId>) {
        if !path.is_empty() {
            *counts.entry(std::mem::take(path)).or_insert(0) += 1;
        }
    }

    /// Freezes into a queryable profile.
    pub fn finish(mut self) -> KPathProfile {
        for (p, stacks) in self.current.iter_mut().enumerate() {
            for (path, _) in stacks.iter_mut() {
                Self::finalize(&mut self.counts[p], path);
            }
        }
        KPathProfile { k: self.k, counts: self.counts }
    }
}

impl TraceSink for KPathProfiler {
    fn enter_proc(&mut self, proc: ProcId) {
        self.current[proc.index()].push((Vec::new(), 0));
    }

    fn exit_proc(&mut self, proc: ProcId) {
        let p = proc.index();
        if let Some((mut path, _)) = self.current[p].pop() {
            Self::finalize(&mut self.counts[p], &mut path);
        }
    }

    fn block(&mut self, proc: ProcId, block: BlockId) {
        let p = proc.index();
        let (path, crossings) = self.current[p].last_mut().expect("activation exists");
        if let Some(&last) = path.last() {
            let is_back = self.back_edges[p].contains(&(last, block));
            if is_back && *crossings + 1 == self.k {
                // Crossing this back edge would be crossing number
                // `crossings + 1`; the k-th crossing closes the path.
                Self::finalize(&mut self.counts[p], path);
                *crossings = 0;
            } else if self.max_blocks > 0 && path.len() >= self.max_blocks {
                Self::finalize(&mut self.counts[p], path);
                *crossings = 0;
            } else if is_back {
                *crossings += 1;
            }
        }
        path.push(block);
    }
}

/// A frozen k-iteration path profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KPathProfile {
    k: usize,
    counts: Vec<HashMap<Vec<BlockId>, u64>>,
}

impl KPathProfile {
    /// Builds a profile directly from per-procedure completed-path counts
    /// (the deserializer's and merger's entry point). Duplicate paths have
    /// their counts summed (saturating).
    pub fn from_paths(k: usize, per_proc: Vec<Vec<(Vec<BlockId>, u64)>>) -> Self {
        assert!(k >= 1, "k-iteration paths need k >= 1");
        let counts = per_proc
            .into_iter()
            .map(|paths| {
                let mut m: HashMap<Vec<BlockId>, u64> = HashMap::new();
                for (path, count) in paths {
                    let slot = m.entry(path).or_insert(0);
                    *slot = slot.saturating_add(count);
                }
                m
            })
            .collect();
        KPathProfile { k, counts }
    }

    /// The iteration bound this profile was collected at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of procedures covered.
    pub fn num_procs(&self) -> usize {
        self.counts.len()
    }

    /// Count of the exact completed k-path `seq`.
    pub fn path_count(&self, proc: ProcId, seq: &[BlockId]) -> u64 {
        self.counts[proc.index()].get(seq).copied().unwrap_or(0)
    }

    /// Iterates over all completed k-paths of `proc` with their counts.
    pub fn iter_paths(&self, proc: ProcId) -> impl Iterator<Item = (&[BlockId], u64)> {
        self.counts[proc.index()]
            .iter()
            .map(|(k, v)| (k.as_slice(), *v))
    }

    /// Number of distinct k-paths recorded for `proc`.
    pub fn distinct_paths(&self, proc: ProcId) -> usize {
        self.counts[proc.index()].len()
    }

    /// Derives the general-path view that drives trace selection and
    /// enlargement: a [`PathProfile`] at window `depth` whose
    /// `freq(proc, seq)` equals the number of occurrences of `seq` as a
    /// contiguous subsequence of recorded k-paths (weighted by path
    /// counts).
    ///
    /// The construction loads every *prefix* of each k-path as a window:
    /// `PathProfile::freq` counts stored windows having `seq` as a suffix,
    /// and a prefix of a k-path has `seq` as a suffix exactly once per
    /// occurrence of `seq` ending at that prefix's last block. Sequences
    /// that would cross a chop boundary (more than `k` back-edge
    /// crossings) were never recorded and therefore score zero — the
    /// fidelity cliff that distinguishes `Pk2`/`Pk3` from the unbounded
    /// general-path profile.
    pub fn to_path_profile(&self, depth: usize) -> PathProfile {
        let per_proc = self
            .counts
            .iter()
            .map(|m| {
                let mut windows = WindowSet::default();
                for (path, &count) in m {
                    for end in 1..=path.len() {
                        windows.push(&path[..end], count);
                    }
                }
                windows
            })
            .collect();
        PathProfile::from_sets(depth, per_proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::ForwardPathProfiler;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand, Program};

    /// Simple counted loop: entry -> head; head -> body|exit; body -> head.
    fn counted_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, body, exit);
        f.switch_to(body);
        f.alu(AluOp::Add, i, i, 1i64);
        f.jump(head);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        pb.finish(main)
    }

    /// A loop whose body alternates between two sides per iteration, so
    /// cross-iteration correlation exists for k >= 2 to see.
    fn alternating_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let head = f.new_block();
        let a = f.new_block();
        let b = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(head);
        f.switch_to(head);
        f.alu(AluOp::Rem, m, i, 2i64);
        f.branch(m, a, b);
        f.switch_to(a);
        f.jump(latch);
        f.switch_to(b);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, head, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        pb.finish(main)
    }

    fn kprofile(p: &Program, k: usize) -> KPathProfile {
        let mut prof = KPathProfiler::new(p, k);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[], &mut prof)
            .unwrap();
        prof.finish()
    }

    #[test]
    fn k2_paths_span_two_iterations() {
        let p = counted_loop(5);
        let kp = kprofile(&p, 2);
        let main = p.entry;
        let (entry, head, body, exit) =
            (BlockId::new(0), BlockId::new(1), BlockId::new(2), BlockId::new(3));
        // First piece runs until the second back-edge crossing:
        // entry head body | head body | (chop) ...
        assert_eq!(kp.path_count(main, &[entry, head, body, head, body]), 1);
        // Middle piece: two more iterations.
        assert_eq!(kp.path_count(main, &[head, body, head, body]), 1);
        // Final piece: fifth iteration plus the exit test.
        assert_eq!(kp.path_count(main, &[head, body, head, exit]), 1);
        assert_eq!(kp.distinct_paths(main), 3);
    }

    #[test]
    fn k1_matches_forward_profiler_exactly() {
        for n in [0, 1, 5, 17] {
            let p = counted_loop(n);
            let mut fwd = ForwardPathProfiler::new(&p);
            let mut k1 = KPathProfiler::new(&p, 1);
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut fwd)
                .unwrap();
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut k1)
                .unwrap();
            let fwd = fwd.finish();
            let k1 = k1.finish();
            let main = p.entry;
            let mut a: Vec<(Vec<BlockId>, u64)> =
                fwd.iter_paths(main).map(|(p, c)| (p.to_vec(), c)).collect();
            let mut b: Vec<(Vec<BlockId>, u64)> =
                k1.iter_paths(main).map(|(p, c)| (p.to_vec(), c)).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "n = {n}");
        }
    }

    #[test]
    fn derived_path_profile_counts_substring_occurrences() {
        let p = alternating_loop(40);
        let kp = kprofile(&p, 2);
        let main = p.entry;
        let derived = kp.to_path_profile(15);
        let (head, a, b, latch) =
            (BlockId::new(1), BlockId::new(2), BlockId::new(3), BlockId::new(4));

        // Spans start at even iterations (b-side first), so within a
        // 2-iteration span the alternation b -> a is visible...
        assert!(derived.freq(main, &[head, b, latch, head, a]) > 0);
        // ...the same-side repeat never happens...
        assert_eq!(derived.freq(main, &[head, b, latch, head, b]), 0);
        // ...and the a -> b transition always falls on a chop boundary, so
        // it scores zero even though it happens dynamically: exactly the
        // fidelity loss that separates Pk2 from the general path profile.
        assert_eq!(derived.freq(main, &[head, a, latch, head, b]), 0);

        // Exact count check against a brute-force scan over the k-paths.
        let seq = [head, a, latch];
        let mut expect = 0u64;
        for (path, count) in kp.iter_paths(main) {
            let occurrences = path
                .windows(seq.len())
                .filter(|w| *w == seq)
                .count() as u64;
            expect += occurrences * count;
        }
        assert_eq!(derived.freq(main, &seq), expect);
    }

    #[test]
    fn max_blocks_cap_finalizes_long_paths() {
        let p = counted_loop(9);
        let mut prof = KPathProfiler::with_max_blocks(&p, 3, 4);
        Interp::new(&p, ExecConfig::default())
            .run_traced(&[], &mut prof)
            .unwrap();
        let kp = prof.finish();
        for (path, _) in kp.iter_paths(p.entry) {
            assert!(path.len() <= 4, "{path:?}");
        }
    }

    #[test]
    fn from_paths_sums_duplicates() {
        let b0 = BlockId::new(0);
        let kp = KPathProfile::from_paths(
            2,
            vec![vec![(vec![b0], 3), (vec![b0], 4)]],
        );
        assert_eq!(kp.path_count(ProcId::new(0), &[b0]), 7);
    }
}
