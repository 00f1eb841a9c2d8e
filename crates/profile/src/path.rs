//! General path profiling (the paper's §2.2 and §3.1).
//!
//! A *general path* is any contiguous sequence of basic blocks containing at
//! most `depth` conditional or multiway branches (the paper uses 15;
//! unconditional jumps do not count). Profiling observes a sliding window of
//! the dynamic block trace: at every block-entry event, the *maximal* window
//! ending at that event is counted once.
//!
//! Because every trace position ends exactly one maximal window, the
//! frequency of an arbitrary sequence `t` (within the depth bound) is the
//! sum of the counts of all maximal windows having `t` as a suffix. A frozen
//! profile stores each procedure's distinct maximal windows *reversed*
//! (newest block first) in one arena, sorted, with prefix sums of their
//! counts. The windows ending in `t` are then exactly the reversed windows
//! starting with `reverse(t)`: a contiguous range found by two binary
//! searches, whose count sum is one subtraction.
//!
//! The paper's two efficiency observations shape the live profiler:
//!
//! 1. *"The number of successors to a path is small … the only possible next
//!    path will be either BCDX or BCDY"* — a lazily populated transition
//!    cache maps `(window, next-block)` to the successor window, so
//!    steady-state profiling work is O(1) per dynamic edge.
//! 2. *"We do not expect to execute all possible paths … lazily explore the
//!    space of possible paths"* — a window is stored only when it is first
//!    observed.
//!
//! Neither observation holds on every program. On the gcc analog at scale 4
//! the depth-15 training run misses the transition cache on 46% of its
//! block events (192,182 of 414,131), so a miss has to be cheap as well. A
//! miss hashes the whole window once into an open-addressing table of
//! distinct windows and appends the window to the arena when it is new. It
//! allocates nothing per window, where a trie keyed by reversed windows
//! would walk and allocate a node per new suffix (about 20 per miss on
//! gcc).

use pps_ir::hash::splitmix64;
use pps_ir::{BlockId, ProcId, Program, TraceSink};
use std::cmp::Ordering;
use std::collections::VecDeque;

/// The paper's path-length limit: up to 15 conditional or multiway branches.
pub const DEFAULT_PATH_DEPTH: usize = 15;

/// Dense id of a distinct maximal window within one procedure.
type WindowId = u32;
/// The empty window a fresh activation starts from; never stored.
const NO_WINDOW: WindowId = WindowId::MAX;

/// Maximal windows with their counts, each stored newest block first and
/// all concatenated in one arena.
#[derive(Debug, Clone)]
pub(crate) struct WindowSet {
    blocks: Vec<BlockId>,
    /// Window `i` is `blocks[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    counts: Vec<u64>,
}

impl Default for WindowSet {
    fn default() -> Self {
        WindowSet { blocks: Vec::new(), starts: vec![0], counts: Vec::new() }
    }
}

impl WindowSet {
    fn len(&self) -> usize {
        self.counts.len()
    }

    /// Window `i`, newest block first.
    fn window(&self, i: usize) -> &[BlockId] {
        &self.blocks[self.starts[i]..self.starts[i + 1]]
    }

    /// Appends a window given newest block first.
    fn push_newest_first(&mut self, blocks: impl IntoIterator<Item = BlockId>, count: u64) {
        self.blocks.extend(blocks);
        self.starts.push(self.blocks.len());
        self.counts.push(count);
    }

    /// Appends a window given oldest block first, as queries and
    /// [`PathProfile::iter_maximal_windows`] spell it.
    pub(crate) fn push(&mut self, window: &[BlockId], count: u64) {
        self.push_newest_first(window.iter().rev().copied(), count);
    }
}

/// Live intern table: every distinct maximal window of one procedure once,
/// under a dense [`WindowId`], with its occurrence count.
#[derive(Debug, Default)]
struct WindowTable {
    windows: WindowSet,
    /// `hashes[id]` = hash of window `id`; a cheap probe filter and the
    /// rehash key when the slots grow.
    hashes: Vec<u64>,
    /// Open-addressing slots holding window ids, linear probing;
    /// `NO_WINDOW` marks an empty slot.
    slots: Vec<WindowId>,
}

impl WindowTable {
    /// Deterministic hash of a window, newest block first (the stored
    /// order): a multiply-rotate fold finished with splitmix64. Like
    /// `TransCache`'s, it has no per-process seed and is not hardened
    /// against crafted collisions; its keys come from the profiled
    /// program's own trace.
    fn hash(window: &VecDeque<BlockId>) -> u64 {
        let mut h = window.len() as u64;
        for b in window.iter().rev() {
            h = (h.rotate_left(5) ^ b.index() as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
        splitmix64(h)
    }

    /// Finds or stores `window` (given oldest first; stored newest first).
    fn intern(&mut self, window: &VecDeque<BlockId>) -> WindowId {
        if (self.windows.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let hash = Self::hash(window);
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let id = self.slots[i];
            if id == NO_WINDOW {
                break;
            }
            if self.hashes[id as usize] == hash
                && self.windows.window(id as usize).iter().eq(window.iter().rev())
            {
                return id;
            }
            i = (i + 1) & mask;
        }
        let id = WindowId::try_from(self.windows.len())
            .ok()
            .filter(|&id| id != NO_WINDOW)
            .expect("window ids fit in u32");
        self.windows.push_newest_first(window.iter().rev().copied(), 0);
        self.hashes.push(hash);
        self.slots[i] = id;
        id
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let mask = cap - 1;
        self.slots = vec![NO_WINDOW; cap];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut i = hash as usize & mask;
            while self.slots[i] != NO_WINDOW {
                i = (i + 1) & mask;
            }
            self.slots[i] = id as WindowId;
        }
    }
}

/// Open-addressing memo for the paper's successor-path pointers:
/// `(window, entered block)` packed into a `u64` key, Fibonacci-hashed,
/// linear probing. This sits on the per-block-event hot path; a `HashMap`
/// here (SipHash per event) dominated whole-pipeline profiling cost.
#[derive(Debug, Default)]
struct TransCache {
    /// Packed keys; `u64::MAX` marks an empty slot.
    keys: Vec<u64>,
    vals: Vec<WindowId>,
    len: usize,
}

const EMPTY_KEY: u64 = u64::MAX;

impl TransCache {
    #[inline]
    fn pack(window: WindowId, block: BlockId) -> u64 {
        (u64::from(window) << 32) | u64::from(block.index() as u32)
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ and keep the top bits.
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h >> 32) as usize & (self.keys.len() - 1)
    }

    #[inline]
    fn get(&self, window: WindowId, block: BlockId) -> Option<WindowId> {
        if self.keys.is_empty() {
            return None;
        }
        let key = Self::pack(window, block);
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            match self.keys[i] {
                k if k == key => return Some(self.vals[i]),
                EMPTY_KEY => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Inserts a key known to be absent (callers probe with `get` first).
    fn insert(&mut self, window: WindowId, block: BlockId, val: WindowId) {
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let key = Self::pack(window, block);
        debug_assert_ne!(key, EMPTY_KEY);
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        while self.keys[i] != EMPTY_KEY {
            i = (i + 1) & mask;
        }
        self.keys[i] = key;
        self.vals[i] = val;
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(64);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY_KEY {
                let mask = self.keys.len() - 1;
                let mut i = self.slot_of(k);
                while self.keys[i] != EMPTY_KEY {
                    i = (i + 1) & mask;
                }
                self.keys[i] = k;
                self.vals[i] = v;
                self.len += 1;
            }
        }
    }
}

/// Per-procedure profiling state.
#[derive(Debug)]
struct ProcTable {
    table: WindowTable,
    /// Paper's successor-path pointers: (current window, entered block)
    /// → next window.
    transitions: TransCache,
    /// One live window per activation (stack handles recursion).
    activations: Vec<Window>,
    /// Retired windows whose buffers are reused by the next activation, so
    /// call-heavy traces don't allocate a deque per dynamic call.
    free_windows: Vec<Window>,
    /// Whether each block's terminator is a counted branch.
    is_branch: Vec<bool>,
    /// Cache statistics: transition-cache misses (windows looked up in the
    /// intern table).
    cache_misses: u64,
    /// Cache statistics: transition-cache hits (O(1) steps).
    cache_hits: u64,
}

#[derive(Debug, Clone)]
struct Window {
    /// Blocks currently in the window, oldest first.
    blocks: VecDeque<BlockId>,
    /// Number of counted branches among all blocks except the newest.
    branches: usize,
    /// Intern-table id of the current window.
    id: WindowId,
}

impl ProcTable {
    fn new(is_branch: Vec<bool>) -> Self {
        ProcTable {
            table: WindowTable::default(),
            transitions: TransCache::default(),
            activations: Vec::new(),
            free_windows: Vec::new(),
            is_branch,
            cache_misses: 0,
            cache_hits: 0,
        }
    }

    fn push_activation(&mut self) {
        let win = match self.free_windows.pop() {
            Some(mut w) => {
                w.blocks.clear();
                w.branches = 0;
                w.id = NO_WINDOW;
                w
            }
            None => Window { blocks: VecDeque::new(), branches: 0, id: NO_WINDOW },
        };
        self.activations.push(win);
    }

    fn pop_activation(&mut self) {
        if let Some(w) = self.activations.pop() {
            self.free_windows.push(w);
        }
    }

    fn on_block(&mut self, depth: usize, block: BlockId) {
        let win = self.activations.last_mut().expect("activation exists");
        // Append the new block; the previously-newest block's terminator has
        // now executed, so it starts counting toward the branch limit.
        if let Some(&last) = win.blocks.back() {
            if self.is_branch[last.index()] {
                win.branches += 1;
            }
        }
        win.blocks.push_back(block);
        // Trim from the front until within the depth bound.
        while win.branches > depth {
            let dropped = win.blocks.pop_front().expect("window non-empty");
            if self.is_branch[dropped.index()] {
                win.branches -= 1;
            }
        }
        // Locate the window's id via the transition cache.
        if let Some(next) = self.transitions.get(win.id, block) {
            self.cache_hits += 1;
            win.id = next;
        } else {
            self.cache_misses += 1;
            let next = self.table.intern(&win.blocks);
            self.transitions.insert(win.id, block, next);
            win.id = next;
        }
        self.table.windows.counts[win.id as usize] += 1;
    }
}

/// Live general-path-profile collector.
///
/// Attach to [`Interp::run_traced`](pps_ir::interp::Interp::run_traced),
/// then call [`finish`](Self::finish) to freeze into a queryable
/// [`PathProfile`].
#[derive(Debug)]
pub struct PathProfiler {
    tables: Vec<ProcTable>,
    depth: usize,
}

impl PathProfiler {
    /// Creates a collector for `program` with the given path-length limit
    /// (`depth` counted branches; the paper uses
    /// [`DEFAULT_PATH_DEPTH`] = 15).
    pub fn new(program: &Program, depth: usize) -> Self {
        let tables = program
            .procs
            .iter()
            .map(|p| {
                let is_branch = p
                    .blocks
                    .iter()
                    .map(|b| b.term.is_counted_branch())
                    .collect();
                ProcTable::new(is_branch)
            })
            .collect();
        PathProfiler { tables, depth }
    }

    /// Freezes into a queryable profile: sorts each procedure's windows and
    /// computes their count prefix sums.
    pub fn finish(self) -> PathProfile {
        let depth = self.depth;
        let procs = self
            .tables
            .into_iter()
            .map(|t| FrozenTable::build(t.table.windows, t.cache_hits, t.cache_misses))
            .collect();
        PathProfile { procs, depth }
    }
}

impl TraceSink for PathProfiler {
    fn enter_proc(&mut self, proc: ProcId) {
        self.tables[proc.index()].push_activation();
    }

    fn exit_proc(&mut self, proc: ProcId) {
        self.tables[proc.index()].pop_activation();
    }

    fn block(&mut self, proc: ProcId, block: BlockId) {
        let depth = self.depth;
        self.tables[proc.index()].on_block(depth, block);
    }
}

/// One procedure's frozen profile.
#[derive(Debug, Clone)]
struct FrozenTable {
    /// Distinct windows, newest block first, in ascending lexicographic
    /// order.
    windows: WindowSet,
    /// `cum[i]` = sum of the counts of windows `0..i`. Wrapping, so the
    /// difference over any range is exact whenever that range's own sum
    /// fits in a `u64`.
    cum: Vec<u64>,
    /// Distinct non-empty suffixes of the stored windows: the nodes a trie
    /// keyed by reversed windows would hold (the paper's `npaths`).
    distinct_paths: usize,
    cache_hits: u64,
    cache_misses: u64,
}

/// First index in `lo..hi` at which `before` is false; `before` must hold
/// on a prefix of the range.
fn partition(mut lo: usize, mut hi: usize, before: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl FrozenTable {
    /// Sorts `set` and sums the counts of duplicate windows (saturating).
    fn build(set: WindowSet, cache_hits: u64, cache_misses: u64) -> Self {
        let mut order: Vec<usize> = (0..set.len()).collect();
        order.sort_unstable_by(|&a, &b| set.window(a).cmp(set.window(b)));
        Self::from_sorted(
            order.into_iter().map(|i| (set.window(i), set.counts[i])),
            cache_hits,
            cache_misses,
        )
    }

    /// Freezes windows (newest block first) that arrive in ascending
    /// order; equal neighbours are summed (saturating).
    fn from_sorted<'w>(
        sorted: impl Iterator<Item = (&'w [BlockId], u64)>,
        cache_hits: u64,
        cache_misses: u64,
    ) -> Self {
        let mut windows = WindowSet::default();
        let mut distinct_paths = 0;
        for (w, count) in sorted {
            let prev = windows.len().checked_sub(1).map(|i| windows.window(i));
            if prev == Some(w) {
                let last = windows.counts.last_mut().expect("previous window");
                *last = last.saturating_add(count);
                continue;
            }
            debug_assert!(prev.is_none_or(|p| p < w), "windows arrive sorted");
            // In sorted order the new trie nodes of `w` are exactly those
            // below its longest common prefix with the previous window.
            let lcp = prev.map_or(0, |p| p.iter().zip(w).take_while(|(a, b)| a == b).count());
            distinct_paths += w.len() - lcp;
            windows.push_newest_first(w.iter().copied(), count);
        }
        let mut cum = Vec::with_capacity(windows.len() + 1);
        let mut sum = 0u64;
        cum.push(sum);
        for &c in &windows.counts {
            sum = sum.wrapping_add(c);
            cum.push(sum);
        }
        FrozenTable { windows, cum, distinct_paths, cache_hits, cache_misses }
    }

    /// The windows whose stored (newest-first) form starts with
    /// `reverse(seq)` — the windows ending in `seq` — as an index range.
    fn ending_in(&self, seq: &[BlockId]) -> (usize, usize) {
        let key = || seq.iter().rev();
        let n = self.windows.len();
        let lo = partition(0, n, |i| self.windows.window(i).iter().lt(key()));
        let hi = partition(lo, n, |i| self.windows.window(i).iter().take(seq.len()).eq(key()));
        (lo, hi)
    }

    /// Stored windows (newest block first) with nonzero counts, in
    /// ascending order.
    fn live_windows(&self) -> impl Iterator<Item = (&[BlockId], u64)> {
        (0..self.windows.len())
            .map(|i| (self.windows.window(i), self.windows.counts[i]))
            .filter(|&(_, count)| count > 0)
    }

    /// Index of the window exactly equal to `seq`, if stored.
    fn find(&self, seq: &[BlockId]) -> Option<usize> {
        let (lo, hi) = self.ending_in(seq);
        (lo < hi && self.windows.window(lo).len() == seq.len()).then_some(lo)
    }
}

/// A frozen, queryable general path profile.
#[derive(Debug, Clone)]
pub struct PathProfile {
    procs: Vec<FrozenTable>,
    depth: usize,
}

impl PathProfile {
    /// The path-length limit (in counted branches) this profile was
    /// collected with.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of procedures covered.
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Exact execution frequency of the contiguous block sequence `seq` in
    /// `proc`: the number of times the blocks of `seq` were executed
    /// consecutively within one activation.
    ///
    /// The answer is exact when `seq` is within the profiling depth — i.e.
    /// its first `len-1` blocks contain at most [`depth`](Self::depth)
    /// counted branches. Longer sequences are *undercounted* (the window
    /// never holds them whole); callers should first trim with
    /// [`trim_to_depth`](Self::trim_to_depth).
    pub fn freq(&self, proc: ProcId, seq: &[BlockId]) -> u64 {
        if seq.is_empty() {
            return 0;
        }
        let table = &self.procs[proc.index()];
        let (lo, hi) = table.ending_in(seq);
        table.cum[hi].wrapping_sub(table.cum[lo])
    }

    /// Frequency with which `seq` was executed *and was the end of an
    /// activation-maximal window* — exposed for testing the window
    /// mechanics; most callers want [`freq`](Self::freq).
    pub fn maximal_window_count(&self, proc: ProcId, seq: &[BlockId]) -> u64 {
        let table = &self.procs[proc.index()];
        table.find(seq).map_or(0, |i| table.windows.counts[i])
    }

    /// Execution frequency of a single block, derived from the path table
    /// (every entry to `b` ends exactly one maximal window).
    pub fn block_freq(&self, proc: ProcId, block: BlockId) -> u64 {
        self.freq(proc, &[block])
    }

    /// Traversal frequency of edge `from → to`, derived from the path table.
    pub fn edge_freq(&self, proc: ProcId, from: BlockId, to: BlockId) -> u64 {
        self.freq(proc, &[from, to])
    }

    /// Longest suffix of `seq` within the profiling depth for `proc`,
    /// given the procedure body (needed to classify branch blocks).
    ///
    /// This is the "longest suffix … for which we have exact frequencies"
    /// rule the paper's enlarger uses once a superblock outgrows the
    /// profiling depth.
    pub fn trim_to_depth<'s>(&self, proc_body: &pps_ir::Proc, seq: &'s [BlockId]) -> &'s [BlockId] {
        if seq.is_empty() {
            return seq;
        }
        let mut branches = 0;
        // Walk backwards over all blocks except the newest; stop before
        // exceeding the depth.
        let mut start = seq.len() - 1;
        while start > 0 {
            let b = seq[start - 1];
            let counted = proc_body.block(b).term.is_counted_branch();
            if branches + usize::from(counted) > self.depth {
                break;
            }
            branches += usize::from(counted);
            start -= 1;
        }
        &seq[start..]
    }

    /// Number of distinct paths recorded for `proc` — the paper's
    /// `npaths`: the distinct non-empty suffixes of its maximal windows,
    /// which are the nodes (excluding the root) of a trie keyed by
    /// reversed windows.
    pub fn distinct_paths(&self, proc: ProcId) -> usize {
        self.procs[proc.index()].distinct_paths
    }

    /// Transition-cache statistics `(hits, misses)` for `proc`; the paper's
    /// O(1)-amortized claim corresponds to hits ≫ misses.
    pub fn cache_stats(&self, proc: ProcId) -> (u64, u64) {
        let t = &self.procs[proc.index()];
        (t.cache_hits, t.cache_misses)
    }

    /// Records profile summary metrics into `obs`: distinct paths, stored
    /// maximal windows and transition-cache totals across all procedures,
    /// plus the profiling depth, as `profile.path.*` counters.
    pub fn record_metrics(&self, obs: &pps_obs::Obs) {
        let (mut paths, mut windows) = (0u64, 0u64);
        let (mut hits, mut misses) = (0u64, 0u64);
        for t in &self.procs {
            paths += t.distinct_paths as u64;
            windows += t.windows.len() as u64;
            hits += t.cache_hits;
            misses += t.cache_misses;
        }
        obs.counter("profile.path.distinct_paths", paths);
        obs.counter("profile.path.windows", windows);
        obs.counter("profile.path.cache_hits", hits);
        obs.counter("profile.path.cache_misses", misses);
        obs.counter("profile.path.depth", self.depth as u64);
    }

    /// Enumerates every recorded maximal window of `proc` with its count
    /// (counts > 0 only), in an unspecified but deterministic order. The
    /// profile can be reconstructed exactly from these via
    /// [`from_windows`](Self::from_windows) — the basis of profile
    /// serialization.
    pub fn iter_maximal_windows(&self, proc: ProcId) -> Vec<(Vec<BlockId>, u64)> {
        self.procs[proc.index()]
            .live_windows()
            .map(|(w, count)| (w.iter().rev().copied().collect(), count))
            .collect()
    }

    /// Reconstructs a profile from per-procedure maximal-window counts (as
    /// produced by [`iter_maximal_windows`](Self::iter_maximal_windows)).
    /// Repeated windows have their counts summed; zero-count windows answer
    /// no query but still count toward [`distinct_paths`](Self::distinct_paths).
    pub fn from_windows(depth: usize, per_proc: Vec<Vec<(Vec<BlockId>, u64)>>) -> PathProfile {
        let sets = per_proc
            .into_iter()
            .map(|windows| {
                let mut set = WindowSet::default();
                for (window, count) in windows {
                    set.push(&window, count);
                }
                set
            })
            .collect();
        Self::from_sets(depth, sets)
    }

    /// [`from_windows`](Self::from_windows) over windows already gathered
    /// into one arena per procedure.
    pub(crate) fn from_sets(depth: usize, per_proc: Vec<WindowSet>) -> PathProfile {
        let procs = per_proc.into_iter().map(|set| FrozenTable::build(set, 0, 0)).collect();
        PathProfile { procs, depth }
    }

    /// Adds `other`'s window counts to this profile's (saturating) by one
    /// linear merge of each procedure's two sorted tables. Zero-count
    /// windows are dropped, as [`iter_maximal_windows`](Self::iter_maximal_windows)
    /// drops them. Callers check that depths and procedure counts match.
    pub(crate) fn merge_counts(&self, other: &PathProfile) -> PathProfile {
        let procs = self
            .procs
            .iter()
            .zip(&other.procs)
            .map(|(a, b)| {
                let (mut xs, mut ys) = (a.live_windows().peekable(), b.live_windows().peekable());
                let merged = std::iter::from_fn(|| match (xs.peek(), ys.peek()) {
                    (Some(&(x, cx)), Some(&(y, cy))) => match x.cmp(y) {
                        Ordering::Less => xs.next(),
                        Ordering::Greater => ys.next(),
                        Ordering::Equal => {
                            xs.next();
                            ys.next();
                            Some((x, cx.saturating_add(cy)))
                        }
                    },
                    _ => xs.next().or_else(|| ys.next()),
                });
                FrozenTable::from_sorted(merged, 0, 0)
            })
            .collect();
        PathProfile { procs, depth: self.depth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_ir::builder::ProgramBuilder;
    use pps_ir::interp::{ExecConfig, Interp};
    use pps_ir::{AluOp, Operand, Program, Reg};

    /// Figure-1-shaped CFG: A branches to B or X; B branches to C or Y;
    /// all paths rejoin and loop `n` times. The branch pattern is chosen by
    /// two period-driven conditions so path frequencies are predictable.
    ///
    /// Returns (program, [A, B, C, X, Y, latch]).
    fn figure1(n: i64, via_x_period: i64, via_y_period: i64) -> (Program, Vec<BlockId>) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.begin_proc("main", 0);
        let i = f.reg();
        let c = f.reg();
        let m = f.reg();
        f.mov(i, 0i64);
        let a = f.new_block();
        let b = f.new_block();
        let cc = f.new_block();
        let x = f.new_block();
        let y = f.new_block();
        let latch = f.new_block();
        let exit = f.new_block();
        f.jump(a);
        f.switch_to(a);
        f.alu(AluOp::Rem, m, i, via_x_period);
        f.alu(AluOp::CmpEq, c, m, 0i64);
        f.branch(c, x, b); // sometimes go via X
        f.switch_to(x);
        f.jump(b);
        f.switch_to(b);
        f.alu(AluOp::Rem, m, i, via_y_period);
        f.alu(AluOp::CmpEq, c, m, 1i64);
        f.branch(c, y, cc); // sometimes exit via Y
        f.switch_to(y);
        f.jump(latch);
        f.switch_to(cc);
        f.jump(latch);
        f.switch_to(latch);
        f.alu(AluOp::Add, i, i, 1i64);
        f.alu(AluOp::CmpLt, c, Operand::Reg(i), Operand::Imm(n));
        f.branch(c, a, exit);
        f.switch_to(exit);
        f.ret(None);
        let main = f.finish();
        (pb.finish(main), vec![a, b, cc, x, y, latch])
    }

    fn profile(p: &Program, depth: usize) -> PathProfile {
        let mut prof = PathProfiler::new(p, depth);
        Interp::new(p, ExecConfig::default())
            .run_traced(&[], &mut prof)
            .unwrap();
        prof.finish()
    }

    #[test]
    fn path_freqs_disambiguate_figure1() {
        // 12 iterations; i%3==0 -> via X (4 times), i%4==1 -> via Y (3
        // times). Paths ABC and ABY (A directly to B) have exact counts that
        // edge profiles could only bound.
        let (p, ids) = figure1(12, 3, 4);
        let prof = profile(&p, 15);
        let main = p.entry;
        let (a, b, c, x, y, _latch) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        // i in 0..12: via X at i=0,3,6,9; via Y at i=1,5,9.
        assert_eq!(prof.freq(main, &[a, x, b]), 4);
        assert_eq!(prof.freq(main, &[a, b]), 8);
        // ABY: A->B directly (not via X) and then Y: i=1,5 (i=9 goes via X).
        assert_eq!(prof.freq(main, &[a, b, y]), 2);
        assert_eq!(prof.freq(main, &[a, b, c]), 6);
        // Consistency: f(AB) = f(ABY) + f(ABC).
        assert_eq!(
            prof.freq(main, &[a, b]),
            prof.freq(main, &[a, b, y]) + prof.freq(main, &[a, b, c])
        );
        // Block frequency derivation.
        assert_eq!(prof.block_freq(main, a), 12);
        assert_eq!(prof.block_freq(main, b), 12);
        assert_eq!(prof.block_freq(main, y), 3);
        // Edge frequency derivation.
        assert_eq!(prof.edge_freq(main, a, x), 4);
        assert_eq!(prof.edge_freq(main, b, y), 3);
    }

    #[test]
    fn paths_can_span_loop_iterations() {
        // General paths include back edges: the sequence latch->A across
        // iterations must have a frequency.
        let (p, ids) = figure1(12, 3, 4);
        let prof = profile(&p, 15);
        let main = p.entry;
        let (a, latch) = (ids[0], ids[5]);
        assert_eq!(prof.freq(main, &[latch, a]), 11);
        // Two consecutive full iterations both going A->B->C.
        let (b, c) = (ids[1], ids[2]);
        let two_iters = [a, b, c, latch, a, b, c];
        assert!(prof.freq(main, &two_iters) > 0);
    }

    #[test]
    fn depth_zero_only_records_single_branchless_runs() {
        // With depth 0, a window may contain at most 0 executed branches
        // among its non-final blocks.
        let (p, ids) = figure1(4, 2, 2);
        let prof = profile(&p, 0);
        let main = p.entry;
        let (a, x, b) = (ids[0], ids[3], ids[1]);
        // a ends in a branch, so [a, x] exceeds depth 0... but x is entered
        // after a's branch executes; window trims to [x]. However [x, b]
        // holds: x ends in an unconditional jump (not counted).
        assert_eq!(prof.freq(main, &[a, x]), 0);
        assert!(prof.freq(main, &[x, b]) > 0);
    }

    #[test]
    fn brute_force_window_equivalence() {
        use pps_ir::VecSink;
        // Record the raw trace, recompute maximal windows naively, and
        // compare every recorded path's frequency.
        let (p, _) = figure1(10, 3, 5);
        for depth in [0, 1, 2, 15] {
            let prof = profile(&p, depth);
            let mut sink = VecSink::new();
            Interp::new(&p, ExecConfig::default())
                .run_traced(&[], &mut sink)
                .unwrap();
            let main = p.entry;
            let proc = p.proc(main);
            let blocks: Vec<BlockId> = sink.blocks().iter().map(|&(_, b)| b).collect();
            // Naive: for each position, compute the maximal window ending
            // there; then count every subsequence query via suffix matching.
            let is_branch = |b: BlockId| proc.block(b).term.is_counted_branch();
            let mut windows: Vec<Vec<BlockId>> = Vec::new();
            for end in 0..blocks.len() {
                let mut start = end;
                let mut branches = 0;
                while start > 0 {
                    let b = blocks[start - 1];
                    if branches + usize::from(is_branch(b)) > depth {
                        break;
                    }
                    branches += usize::from(is_branch(b));
                    start -= 1;
                }
                windows.push(blocks[start..=end].to_vec());
            }
            // Check freq() for a set of probe sequences derived from windows.
            for probe in windows.iter().take(200) {
                let expected = windows
                    .iter()
                    .filter(|w| w.len() >= probe.len() && w[w.len() - probe.len()..] == probe[..])
                    .count() as u64;
                assert_eq!(
                    prof.freq(main, probe),
                    expected,
                    "depth={depth} probe={probe:?}"
                );
            }
        }
    }

    #[test]
    fn trim_to_depth_respects_branch_counts() {
        let (p, ids) = figure1(4, 2, 2);
        let prof = profile(&p, 1);
        let proc = p.proc(p.entry);
        let (a, b, c, latch) = (ids[0], ids[1], ids[2], ids[5]);
        // Sequence with 3 branch blocks among non-final: a, b, latch.
        let seq = [a, b, c, latch, a];
        let trimmed = prof.trim_to_depth(proc, &seq);
        // Depth 1 allows only one counted-branch among non-final blocks:
        // walking back from `a`: latch is a branch (1), c is a jump (ok),
        // b is a branch (would be 2) -> stop. Suffix = [c, latch, a].
        assert_eq!(trimmed, &[c, latch, a]);
    }

    #[test]
    fn cache_hits_dominate_on_repetitive_traces() {
        let (p, _) = figure1(3000, 3, 4);
        let prof = profile(&p, 15);
        let (hits, misses) = prof.cache_stats(p.entry);
        assert!(hits > misses * 50, "hits={hits} misses={misses}");
        assert!(prof.distinct_paths(p.entry) > 0);
    }

    #[test]
    fn recursion_keeps_windows_separate() {
        // f(n): if n > 0 { f(n-1) } — the path window of the outer
        // activation must not absorb inner-activation blocks.
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare_proc("f", 1);
        let mut g = pb.begin_declared(fid);
        let n = Reg::new(0);
        let cnd = g.reg();
        let rec = g.new_block();
        let done = g.new_block();
        g.alu(AluOp::CmpLt, cnd, Operand::Imm(0), Operand::Reg(n));
        g.branch(cnd, rec, done);
        g.switch_to(rec);
        let m = g.reg();
        g.alu(AluOp::Sub, m, n, 1i64);
        g.call(fid, vec![Operand::Reg(m)], None);
        g.jump(done);
        g.switch_to(done);
        g.ret(None);
        g.finish();
        let mut f = pb.begin_proc("main", 0);
        f.call(fid, vec![Operand::Imm(5)], None);
        f.ret(None);
        let main = f.finish();
        let p = pb.finish(main);

        let prof = profile(&p, 15);
        let entry = BlockId::new(0);
        // Six activations of f, each entering its entry block exactly once.
        assert_eq!(prof.block_freq(fid, entry), 6);
        // Within one activation the entry never repeats: path [entry, entry]
        // never occurs even though entries are adjacent in the global trace.
        assert_eq!(prof.freq(fid, &[entry, entry]), 0);
    }
}
