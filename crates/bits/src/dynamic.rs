//! Fully dynamic RLE+γ compressed bitvector (§4.2 of the paper, Thm 4.9).
//!
//! The bitvector `0^r0 1^r1 0^r2 …` is stored as its run lengths, each run
//! encoded with an Elias γ code, grouped into small chunks; a counted
//! B+-tree over the chunks stores cumulative (bits, ones) counts. All of
//! Access/Rank/Select/Insert/Delete run in O(log n) plus O(chunk) decoding
//! work, and crucially `Init(b, n)` — creating a constant bitvector of
//! arbitrary length — is O(1): a single chunk holding one run (this is the
//! property Remark 4.2 demands and which gap-encoded bitvectors lack).
//!
//! The paper plugs RLE+γ into the balanced-BST chunk tree of
//! [Mäkinen–Navarro'08 §3.4]; we use a counted B+-tree, the standard
//! engineered equivalent with identical asymptotics (DESIGN.md
//! substitution #2). Space is O(nH0) bits by [Foschini–Grossi–Gupta–
//! Vitter'06] (their Theorem for RLE+γ), as cited by the paper.
//!
//! Two engineering layers keep the constant factors down (DESIGN.md
//! substitution #8); neither changes observable semantics or asymptotics:
//!
//! * **Hot-chunk run cache.** Each `DynamicBitVec` keeps the decoded run
//!   array of the last-edited chunk, together with the prefix bit/one
//!   counts in front of it (`lo`, `ones_before`). Consecutive edits and
//!   queries hitting the same chunk — the common case for Wavelet Trie
//!   column updates, which walk a short window of positions — skip both
//!   the γ decode and the re-encode, and in-range queries skip the tree
//!   descent entirely; the runs are flushed back to γ only when an edit
//!   lands in a different chunk or the chunk splits/merges/empties. While
//!   the cache is dirty the chunk's `enc` is stale and the cache is the
//!   single source of truth; because the chunk's counters stay exact, tree
//!   descents for out-of-range positions can never reach the stale
//!   encoding, so queries need no interior mutability.
//! * **Prefix-summed internal nodes.** Internal B+-tree nodes store
//!   cumulative `(bits, ones)` arrays instead of per-child totals, so child
//!   descent is a branch-light scan over a flat `u64` array rather than a
//!   subtract-per-child loop.

use crate::codes::{gamma_encode, gamma_len, BitReader};
use crate::{BitAccess, BitRank, BitSelect, RawBitVec, SpaceUsage};

/// Maximum runs per chunk before it splits. Larger chunks amortize the
/// per-chunk struct overhead (which dominates for dense bitvectors) while
/// keeping per-edit decode work bounded.
const MAX_RUNS: usize = 128;
/// Two neighbouring leaves merge when their combined runs fit this bound.
const MERGE_RUNS: usize = MAX_RUNS / 2;
/// Maximum children per internal node before it splits.
const MAX_FANOUT: usize = 16;
/// Chunk id meaning "not a cacheable chunk" / "cache empty".
const NO_CHUNK: u64 = u64::MAX;
/// Bitvectors shorter than this skip the run cache: their chunks are cheap
/// to rebuild per edit, and in structures holding many small bitvectors
/// (one Wavelet Trie column per node) per-column caches of tiny chunks
/// would dominate measured space. A decoded chunk costs up to
/// `MAX_RUNS · 64` bits, so the threshold keeps the cache's footprint a
/// small fraction of any vector that carries one.
const CACHE_MIN_VEC_BITS: u64 = 4096;

/// A chunk of consecutive runs, γ-encoded.
#[derive(Clone, Debug)]
struct Chunk {
    /// γ codes of the run lengths, alternating bits starting at `first_bit`.
    /// Stale while this chunk is dirty in the [`RunCache`].
    enc: RawBitVec,
    first_bit: bool,
    /// Identity for the run cache; unique within one `DynamicBitVec`.
    id: u64,
    nruns: u32,
    nbits: u64,
    nones: u64,
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            enc: RawBitVec::new(),
            first_bit: false,
            id: NO_CHUNK,
            nruns: 0,
            nbits: 0,
            nones: 0,
        }
    }
}

/// The per-bitvector hot-chunk cache: decoded runs of chunk `id`.
///
/// Invariants: while `dirty`, `runs` is the truth for the chunk (its `enc`
/// is stale) and no edit has touched any *other* chunk since the last
/// `note_edit`, so `[lo, hi)` is the chunk's global bit range,
/// `ones_before` the ones in `[0, lo)`, and `first_bit`/`nones` mirror the
/// chunk — enough to answer in-range queries without descending the tree.
/// A clean entry only reuses `runs` (skipping the decode on the next edit
/// of the same chunk); its recorded positions are not trusted.
#[derive(Clone, Debug, Default)]
struct RunCache {
    id: u64,
    dirty: bool,
    lo: u64,
    hi: u64,
    ones_before: u64,
    first_bit: bool,
    nones: u64,
    runs: Vec<u64>,
}

impl RunCache {
    fn new() -> Self {
        RunCache {
            id: NO_CHUNK,
            ..RunCache::default()
        }
    }

    /// Loads `chunk`'s runs unless already cached. The previous entry must
    /// not be dirty (the top-level edit path flushes before switching).
    fn open(&mut self, chunk: &Chunk) {
        if self.id == chunk.id {
            return;
        }
        debug_assert!(!self.dirty, "evicting a dirty cache entry without flush");
        self.id = chunk.id;
        self.runs.clear();
        // A long-lived bitvector should not stay pinned at the largest
        // chunk it ever decoded.
        if self.runs.capacity() > 2 * (MAX_RUNS + 2) {
            self.runs.shrink_to_fit();
        }
        let mut r = BitReader::new(&chunk.enc, 0);
        for _ in 0..chunk.nruns {
            self.runs.push(r.read_gamma());
        }
    }

    fn invalidate(&mut self) {
        self.id = NO_CHUNK;
        self.dirty = false;
    }

    /// Records post-edit chunk state so in-range queries can be answered
    /// straight from the cache.
    fn note_edit(&mut self, chunk: &Chunk, abs_start: u64, abs_ones: u64) {
        self.dirty = true;
        self.lo = abs_start;
        self.hi = abs_start + chunk.nbits;
        self.ones_before = abs_ones;
        self.first_bit = chunk.first_bit;
        self.nones = chunk.nones;
    }

    /// Bit value of cached run `i`.
    #[inline]
    fn run_bit(&self, i: usize) -> bool {
        self.first_bit == i.is_multiple_of(2)
    }

    /// (bit, ones) at chunk-local position `p`, by scanning the runs.
    fn locate_local(&self, p: u64) -> (bool, u64) {
        let mut seen = 0u64;
        let mut ones = 0u64;
        for (i, &r) in self.runs.iter().enumerate() {
            let bit = self.run_bit(i);
            if p < seen + r {
                return (bit, ones + if bit { p - seen } else { 0 });
            }
            seen += r;
            if bit {
                ones += r;
            }
        }
        unreachable!("position within cached chunk");
    }

    /// Chunk-local position of the `k`-th chunk-local `bit`.
    fn select_local(&self, bit: bool, k: u64) -> u64 {
        let mut seen = 0u64;
        let mut matched = 0u64;
        for (i, &r) in self.runs.iter().enumerate() {
            if self.run_bit(i) == bit {
                if k < matched + r {
                    return seen + (k - matched);
                }
                matched += r;
            }
            seen += r;
        }
        unreachable!("k within cached chunk");
    }

    fn size_bits(&self) -> usize {
        self.runs.capacity() * 64 + 8 * 64
    }
}

thread_local! {
    /// Shared decode buffer for uncached edits, splits, and leaf merges:
    /// per-edit work never exceeds a chunk, so one thread-local buffer
    /// serves every bitvector below the cache threshold without adding
    /// per-structure memory (a Wavelet Trie holds one bitvector per node).
    static SCRATCH: std::cell::RefCell<Vec<u64>> =
        std::cell::RefCell::new(Vec::with_capacity(MAX_RUNS + 2));
}

/// Runs `f` with the shared scratch buffer.
fn with_scratch<R>(f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
    SCRATCH.with(|sc| f(&mut sc.borrow_mut()))
}

/// Mutable state threaded through edit descents.
struct EditCtx<'a> {
    cache: &'a mut RunCache,
    next_id: &'a mut u64,
    /// Total bits in the vector at the start of the edit (cache threshold).
    vec_bits: u64,
}

impl EditCtx<'_> {
    fn fresh_id(&mut self) -> u64 {
        let id = *self.next_id;
        *self.next_id += 1;
        id
    }
}

impl Chunk {
    fn from_runs(id: u64, first_bit: bool, runs: &[u64]) -> Self {
        debug_assert!(runs.iter().all(|&r| r > 0));
        let total: usize = runs.iter().map(|&r| gamma_len(r)).sum();
        let mut enc = RawBitVec::with_capacity(total);
        let mut nbits = 0u64;
        let mut nones = 0u64;
        for (i, &r) in runs.iter().enumerate() {
            gamma_encode(&mut enc, r);
            nbits += r;
            if (i % 2 == 0) == first_bit {
                nones += r;
            }
        }
        Chunk {
            enc,
            first_bit,
            id,
            nruns: runs.len() as u32,
            nbits,
            nones,
        }
    }

    /// Rebuilds `enc` from `runs` (cache flush); counters already match.
    fn reencode_from(&mut self, runs: &[u64]) {
        debug_assert_eq!(runs.len(), self.nruns as usize);
        let total: usize = runs.iter().map(|&r| gamma_len(r)).sum();
        let mut enc = RawBitVec::with_capacity(total);
        for &r in runs {
            gamma_encode(&mut enc, r);
        }
        enc.shrink_to_fit();
        self.enc = enc;
    }

    fn decode_into(&self, out: &mut Vec<u64>) {
        out.clear();
        let mut r = BitReader::new(&self.enc, 0);
        for _ in 0..self.nruns {
            out.push(r.read_gamma());
        }
    }

    /// Bit value of run `i`.
    #[inline]
    fn run_bit(&self, i: usize) -> bool {
        self.first_bit == i.is_multiple_of(2)
    }

    /// (bit at `pos`, ones in `[0, pos)`).
    fn locate(&self, pos: u64) -> (bool, u64) {
        debug_assert!(pos < self.nbits);
        let mut r = BitReader::new(&self.enc, 0);
        let mut seen = 0u64;
        let mut ones = 0u64;
        for i in 0..self.nruns as usize {
            let run = r.read_gamma();
            if pos < seen + run {
                let bit = self.run_bit(i);
                return (bit, ones + if bit { pos - seen } else { 0 });
            }
            seen += run;
            if self.run_bit(i) {
                ones += run;
            }
        }
        unreachable!("pos within chunk");
    }

    fn rank1(&self, pos: u64) -> u64 {
        debug_assert!(pos <= self.nbits);
        if pos == self.nbits {
            return self.nones;
        }
        self.locate(pos).1
    }

    /// Position of the `k`-th bit equal to `bit` (guaranteed to exist).
    fn select(&self, bit: bool, k: u64) -> u64 {
        debug_assert!(
            k < if bit {
                self.nones
            } else {
                self.nbits - self.nones
            }
        );
        let mut r = BitReader::new(&self.enc, 0);
        let mut seen = 0u64;
        let mut matched = 0u64;
        for i in 0..self.nruns as usize {
            let run = r.read_gamma();
            if self.run_bit(i) == bit {
                if k < matched + run {
                    return seen + (k - matched);
                }
                matched += run;
            }
            seen += run;
        }
        unreachable!("k within chunk");
    }

    /// Applies a single-bit insert to this chunk's decoded run list,
    /// updating the chunk's counters. Shared by the cached and uncached
    /// edit paths.
    fn apply_insert(&mut self, runs: &mut Vec<u64>, pos: u64, bit: bool) {
        // Find run containing pos, treating pos == nbits as "after the end".
        let mut seen = 0u64;
        let mut idx = runs.len(); // sentinel: append
        for (i, &r) in runs.iter().enumerate() {
            if pos < seen + r {
                idx = i;
                break;
            }
            seen += r;
        }
        if idx == runs.len() {
            // Append at the very end.
            let last = runs.len() - 1;
            if self.run_bit(last) == bit {
                runs[last] += 1;
            } else {
                runs.push(1);
            }
        } else if self.run_bit(idx) == bit {
            runs[idx] += 1;
        } else if pos == seen {
            // At the boundary before run idx: extend the previous run
            // (same bit), or create a new first run.
            if idx > 0 {
                runs[idx - 1] += 1;
            } else {
                runs.insert(0, 1);
                self.first_bit = bit;
            }
        } else {
            // Strictly inside a run of the opposite bit: split it.
            let off = pos - seen;
            let rest = runs[idx] - off;
            runs[idx] = off;
            runs.insert(idx + 1, 1);
            runs.insert(idx + 2, rest);
        }
        self.nruns = runs.len() as u32;
        self.nbits += 1;
        self.nones += bit as u64;
    }

    /// Applies a single-bit delete to this chunk's decoded run list,
    /// updating the chunk's counters; returns the deleted bit.
    fn apply_delete(&mut self, runs: &mut Vec<u64>, pos: u64) -> bool {
        let mut seen = 0u64;
        let mut idx = 0usize;
        for (i, &r) in runs.iter().enumerate() {
            if pos < seen + r {
                idx = i;
                break;
            }
            seen += r;
        }
        let bit = self.run_bit(idx);
        runs[idx] -= 1;
        if runs[idx] == 0 {
            runs.remove(idx);
            if idx == 0 {
                self.first_bit = !self.first_bit;
            } else if idx < runs.len() {
                // Neighbours idx-1 and idx now adjacent with the same bit.
                runs[idx - 1] += runs[idx];
                runs.remove(idx);
            }
        }
        self.nruns = runs.len() as u32;
        self.nbits -= 1;
        self.nones -= bit as u64;
        bit
    }

    /// Whether an edit to this chunk should go through the run cache. A
    /// chunk the cache already holds must keep using it (the cache may be
    /// the only valid copy); otherwise only vectors past the size threshold
    /// warm the cache.
    #[inline]
    fn wants_cache(&self, cache: &RunCache, vec_bits: u64) -> bool {
        cache.id == self.id || vec_bits >= CACHE_MIN_VEC_BITS
    }

    /// Inserts `bit` at `pos <= nbits`. Large chunks are edited in the run
    /// cache (no decode/re-encode); small ones decode-edit-reencode on the
    /// spot. `abs_start`/`abs_ones` are the bits and ones before this chunk
    /// globally.
    fn insert(
        &mut self,
        pos: u64,
        bit: bool,
        abs_start: u64,
        abs_ones: u64,
        ctx: &mut EditCtx<'_>,
    ) {
        if self.nruns == 0 {
            *self = Chunk::from_runs(ctx.fresh_id(), bit, &[1]);
            return;
        }
        let vec_bits = ctx.vec_bits;
        let cache = &mut *ctx.cache;
        if self.wants_cache(cache, vec_bits) {
            cache.open(self);
            let mut runs = std::mem::take(&mut cache.runs);
            self.apply_insert(&mut runs, pos, bit);
            cache.runs = runs;
            cache.note_edit(self, abs_start, abs_ones);
        } else {
            with_scratch(|runs| {
                self.decode_into(runs);
                self.apply_insert(runs, pos, bit);
                self.reencode_from(runs);
            });
        }
    }

    /// Deletes the bit at `pos`, returning it.
    fn delete(&mut self, pos: u64, abs_start: u64, abs_ones: u64, ctx: &mut EditCtx<'_>) -> bool {
        debug_assert!(pos < self.nbits);
        let vec_bits = ctx.vec_bits;
        let cache = &mut *ctx.cache;
        if self.wants_cache(cache, vec_bits) {
            cache.open(self);
            let mut runs = std::mem::take(&mut cache.runs);
            let bit = self.apply_delete(&mut runs, pos);
            let emptied = runs.is_empty();
            cache.runs = runs;
            if emptied {
                cache.invalidate();
                *self = Chunk::default();
            } else {
                cache.note_edit(self, abs_start, abs_ones);
            }
            bit
        } else {
            with_scratch(|runs| {
                self.decode_into(runs);
                let bit = self.apply_delete(runs, pos);
                if runs.is_empty() {
                    *self = Chunk::default();
                } else {
                    self.reencode_from(runs);
                }
                bit
            })
        }
    }

    /// Splits into two chunks of roughly equal run counts. Called right
    /// after an insert: the runs are in the cache if that insert used it,
    /// otherwise they are re-decoded into the scratch buffer.
    fn split(&mut self, ctx: &mut EditCtx<'_>) -> Chunk {
        let right_id = ctx.fresh_id();
        let cache = &mut *ctx.cache;
        if cache.id == self.id {
            let runs = &cache.runs;
            let mid = runs.len() / 2;
            let right = Chunk::from_runs(right_id, self.run_bit(mid), &runs[mid..]);
            *self = Chunk::from_runs(self.id, self.first_bit, &runs[..mid]);
            cache.invalidate();
            right
        } else {
            with_scratch(|runs| {
                self.decode_into(runs);
                let mid = runs.len() / 2;
                let right = Chunk::from_runs(right_id, self.run_bit(mid), &runs[mid..]);
                *self = Chunk::from_runs(self.id, self.first_bit, &runs[..mid]);
                right
            })
        }
    }

    /// Appends all runs of `other` (used for leaf merging). The caller has
    /// already flushed/invalidated the cache for both chunks.
    fn merge(&mut self, other: &Chunk, scratch: &mut Vec<u64>) {
        if other.nruns == 0 {
            return;
        }
        if self.nruns == 0 {
            *self = other.clone();
            return;
        }
        self.decode_into(scratch);
        let mut r = BitReader::new(&other.enc, 0);
        let first = r.read_gamma();
        if self.run_bit(self.nruns as usize - 1) == other.first_bit {
            *scratch.last_mut().expect("nonempty") += first;
        } else {
            scratch.push(first);
        }
        for _ in 1..other.nruns {
            scratch.push(r.read_gamma());
        }
        *self = Chunk::from_runs(self.id, self.first_bit, scratch);
    }

    fn size_bits(&self) -> usize {
        // Header: first_bit + id + nruns + nbits + nones. `enc` is built at
        // exact capacity on every seal/flush, so it carries no slack.
        self.enc.size_bits() + 3 * 64 + 32 + 8
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf(Chunk),
    Internal(Internal),
}

/// Internal B+-tree node with prefix-summed child counts:
/// `cum_bits[i]`/`cum_ones[i]` cover children `0..=i`, so descent scans a
/// flat array and subtree totals are the last entries.
#[derive(Clone, Debug)]
struct Internal {
    children: Vec<Node>,
    cum_bits: Vec<u64>,
    cum_ones: Vec<u64>,
}

impl Internal {
    fn from_children(children: Vec<Node>) -> Self {
        let mut node = Internal {
            children,
            cum_bits: Vec::new(),
            cum_ones: Vec::new(),
        };
        node.rebuild_from(0);
        node
    }

    #[inline]
    fn nbits(&self) -> u64 {
        self.cum_bits.last().copied().unwrap_or(0)
    }

    #[inline]
    fn nones(&self) -> u64 {
        self.cum_ones.last().copied().unwrap_or(0)
    }

    #[inline]
    fn child_start(&self, i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            self.cum_bits[i - 1]
        }
    }

    #[inline]
    fn ones_before(&self, i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            self.cum_ones[i - 1]
        }
    }

    /// First child whose range strictly contains `pos` (`pos < nbits()`).
    #[inline]
    fn child_containing(&self, pos: u64) -> usize {
        let mut i = 0;
        while self.cum_bits[i] <= pos {
            i += 1;
        }
        i
    }

    /// First child whose cumulative end reaches `pos` (`pos <= nbits()`):
    /// boundary positions go to the left child, so appends extend it.
    #[inline]
    fn child_covering(&self, pos: u64) -> usize {
        let mut i = 0;
        while self.cum_bits[i] < pos {
            i += 1;
        }
        i
    }

    /// Recomputes the cumulative arrays for children `from..`.
    fn rebuild_from(&mut self, from: usize) {
        let (mut bits, mut ones) = if from == 0 {
            (0, 0)
        } else {
            (self.cum_bits[from - 1], self.cum_ones[from - 1])
        };
        self.cum_bits.truncate(from);
        self.cum_ones.truncate(from);
        for ch in &self.children[from..] {
            bits += ch.nbits();
            ones += ch.nones();
            self.cum_bits.push(bits);
            self.cum_ones.push(ones);
        }
    }

    /// Adjusts the cumulative arrays for a single-bit insert/delete in the
    /// subtree of child `idx`.
    #[inline]
    fn bump(&mut self, idx: usize, inserted: bool, bit: bool) {
        for j in idx..self.cum_bits.len() {
            if inserted {
                self.cum_bits[j] += 1;
                self.cum_ones[j] += bit as u64;
            } else {
                self.cum_bits[j] -= 1;
                self.cum_ones[j] -= bit as u64;
            }
        }
    }
}

impl Node {
    #[inline]
    fn nbits(&self) -> u64 {
        match self {
            Node::Leaf(c) => c.nbits,
            Node::Internal(i) => i.nbits(),
        }
    }

    #[inline]
    fn nones(&self) -> u64 {
        match self {
            Node::Leaf(c) => c.nones,
            Node::Internal(i) => i.nones(),
        }
    }

    fn locate(&self, pos: u64) -> (bool, u64) {
        match self {
            Node::Leaf(c) => c.locate(pos),
            Node::Internal(nd) => {
                let idx = nd.child_containing(pos);
                let (b, o) = nd.children[idx].locate(pos - nd.child_start(idx));
                (b, nd.ones_before(idx) + o)
            }
        }
    }

    fn rank1(&self, pos: u64) -> u64 {
        match self {
            Node::Leaf(c) => c.rank1(pos),
            Node::Internal(nd) => {
                if pos == nd.nbits() {
                    return nd.nones();
                }
                let idx = nd.child_covering(pos);
                nd.ones_before(idx) + nd.children[idx].rank1(pos - nd.child_start(idx))
            }
        }
    }

    fn select(&self, bit: bool, k: u64) -> u64 {
        match self {
            Node::Leaf(c) => c.select(bit, k),
            Node::Internal(nd) => {
                let cnt = |i: usize| {
                    if bit {
                        nd.cum_ones[i]
                    } else {
                        nd.cum_bits[i] - nd.cum_ones[i]
                    }
                };
                let mut idx = 0;
                while cnt(idx) <= k {
                    idx += 1;
                }
                let before = if idx == 0 { 0 } else { cnt(idx - 1) };
                nd.child_start(idx) + nd.children[idx].select(bit, k - before)
            }
        }
    }

    /// Runs `f` on the leaf chunk containing bit `pos` (used to flush the
    /// cache back into a chunk located by its recorded global range).
    fn with_leaf_at<R>(&mut self, pos: u64, f: impl FnOnce(&mut Chunk) -> R) -> R {
        match self {
            Node::Leaf(c) => f(c),
            Node::Internal(nd) => {
                let idx = nd.child_containing(pos);
                let start = nd.child_start(idx);
                nd.children[idx].with_leaf_at(pos - start, f)
            }
        }
    }

    /// Inserts; returns a new right sibling if this node split. `abs` and
    /// `abs_ones` are the bits and ones preceding this subtree globally.
    fn insert(
        &mut self,
        pos: u64,
        bit: bool,
        abs: u64,
        abs_ones: u64,
        ctx: &mut EditCtx<'_>,
    ) -> Option<Node> {
        match self {
            Node::Leaf(c) => {
                c.insert(pos, bit, abs, abs_ones, ctx);
                if c.nruns as usize > MAX_RUNS {
                    Some(Node::Leaf(c.split(ctx)))
                } else {
                    None
                }
            }
            Node::Internal(nd) => {
                let idx = nd.child_covering(pos);
                let start = nd.child_start(idx);
                let ones = nd.ones_before(idx);
                let split =
                    nd.children[idx].insert(pos - start, bit, abs + start, abs_ones + ones, ctx);
                if let Some(split) = split {
                    nd.children.insert(idx + 1, split);
                    nd.rebuild_from(idx);
                    if nd.children.len() > MAX_FANOUT {
                        let right_children = nd.children.split_off(nd.children.len() / 2);
                        // The insert that triggered this split doubled the
                        // children capacity past MAX_FANOUT; these arrays
                        // are long-lived, so drop the slack now.
                        nd.children.shrink_to_fit();
                        nd.rebuild_from(0);
                        nd.cum_bits.shrink_to_fit();
                        nd.cum_ones.shrink_to_fit();
                        return Some(Node::Internal(Internal::from_children(right_children)));
                    }
                } else {
                    nd.bump(idx, true, bit);
                }
                None
            }
        }
    }

    /// Deletes the bit at `pos`, returning it.
    fn delete(&mut self, pos: u64, abs: u64, abs_ones: u64, ctx: &mut EditCtx<'_>) -> bool {
        match self {
            Node::Leaf(c) => c.delete(pos, abs, abs_ones, ctx),
            Node::Internal(nd) => {
                let idx = nd.child_containing(pos);
                let start = nd.child_start(idx);
                let ones = nd.ones_before(idx);
                let bit = nd.children[idx].delete(pos - start, abs + start, abs_ones + ones, ctx);
                nd.bump(idx, false, bit);
                // Drop empty children; opportunistically merge small leaves.
                if nd.children[idx].nbits() == 0 {
                    nd.children.remove(idx);
                    nd.rebuild_from(idx);
                } else if idx + 1 < nd.children.len() {
                    Self::try_merge_leaves(nd, idx, ctx);
                } else if idx > 0 {
                    Self::try_merge_leaves(nd, idx - 1, ctx);
                }
                bit
            }
        }
    }

    fn try_merge_leaves(nd: &mut Internal, i: usize, ctx: &mut EditCtx<'_>) {
        if i + 1 >= nd.children.len() {
            return;
        }
        let combined = match (&nd.children[i], &nd.children[i + 1]) {
            (Node::Leaf(a), Node::Leaf(b)) => a.nruns as usize + b.nruns as usize,
            _ => return,
        };
        if combined > MERGE_RUNS {
            return;
        }
        // The merge invalidates any cache entry covering either leaf; a
        // dirty entry is written back first.
        for j in [i, i + 1] {
            if let Node::Leaf(c) = &mut nd.children[j] {
                if c.id != NO_CHUNK && c.id == ctx.cache.id {
                    if ctx.cache.dirty {
                        c.reencode_from(&ctx.cache.runs);
                    }
                    ctx.cache.invalidate();
                }
            }
        }
        let right = nd.children.remove(i + 1);
        if let (Node::Leaf(a), Node::Leaf(b)) = (&mut nd.children[i], &right) {
            with_scratch(|scratch| a.merge(b, scratch));
        }
        nd.rebuild_from(i);
    }

    fn size_bits(&self) -> usize {
        match self {
            Node::Leaf(c) => c.size_bits(),
            Node::Internal(nd) => {
                nd.children.iter().map(|c| c.size_bits()).sum::<usize>()
                    + nd.children.capacity() * (std::mem::size_of::<Node>() * 8)
                    + (nd.cum_bits.capacity() + nd.cum_ones.capacity()) * 64
            }
        }
    }
}

/// The fully dynamic bitvector of Theorem 4.9.
///
/// Supports `Access`, `Rank`, `Select`, `Insert`, `Delete` in O(log n) and
/// `Init(b, n)` ([`DynamicBitVec::filled`]) in O(1); space O(nH0 + log n).
#[derive(Clone, Debug)]
pub struct DynamicBitVec {
    root: Node,
    cache: RunCache,
    next_id: u64,
}

impl Default for DynamicBitVec {
    fn default() -> Self {
        Self::new()
    }
}

impl DynamicBitVec {
    /// Creates an empty bitvector.
    pub fn new() -> Self {
        DynamicBitVec {
            root: Node::Leaf(Chunk::default()),
            cache: RunCache::new(),
            next_id: 0,
        }
    }

    /// `Init(b, n)` (§4.2): a bitvector of `n` copies of `bit`, in O(1).
    pub fn filled(bit: bool, n: usize) -> Self {
        let chunk = if n == 0 {
            Chunk::default()
        } else {
            Chunk::from_runs(0, bit, &[n as u64])
        };
        DynamicBitVec {
            root: Node::Leaf(chunk),
            cache: RunCache::new(),
            next_id: 1,
        }
    }

    /// Builds by repeated insertion at the end.
    pub fn from_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = Self::new();
        for b in iter {
            v.push(b);
        }
        v
    }

    /// Writes a dirty cache entry back into its chunk's γ encoding.
    fn flush_into(root: &mut Node, cache: &mut RunCache) {
        debug_assert!(cache.dirty);
        let runs = std::mem::take(&mut cache.runs);
        let id = cache.id;
        root.with_leaf_at(cache.lo, |c| {
            debug_assert_eq!(c.id, id, "cache range out of sync with tree");
            c.reencode_from(&runs);
        });
        cache.runs = runs;
        cache.dirty = false;
    }

    /// Inserts `bit` at position `pos <= len`.
    pub fn insert(&mut self, pos: usize, bit: bool) {
        assert!(
            pos as u64 <= self.root.nbits(),
            "insert position out of bounds"
        );
        let pos = pos as u64;
        if self.cache.dirty {
            // Boundary rule of the descent: an insert at the chunk's start
            // goes to the left sibling (unless there is none), one at its
            // end extends the chunk.
            let targets = pos <= self.cache.hi && (pos > self.cache.lo || self.cache.lo == 0);
            if !targets {
                Self::flush_into(&mut self.root, &mut self.cache);
            }
        }
        let mut ctx = EditCtx {
            vec_bits: self.root.nbits(),
            cache: &mut self.cache,
            next_id: &mut self.next_id,
        };
        if let Some(split) = self.root.insert(pos, bit, 0, 0, &mut ctx) {
            let old = std::mem::replace(&mut self.root, Node::Leaf(Chunk::default()));
            self.root = Node::Internal(Internal::from_children(vec![old, split]));
        }
    }

    /// Appends `bit`.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.insert(self.len(), bit);
    }

    /// Deletes and returns the bit at `pos < len`.
    pub fn remove(&mut self, pos: usize) -> bool {
        assert!(
            (pos as u64) < self.root.nbits(),
            "delete position out of bounds"
        );
        let pos = pos as u64;
        if self.cache.dirty && !(pos >= self.cache.lo && pos < self.cache.hi) {
            Self::flush_into(&mut self.root, &mut self.cache);
        }
        let mut ctx = EditCtx {
            vec_bits: self.root.nbits(),
            cache: &mut self.cache,
            next_id: &mut self.next_id,
        };
        let bit = self.root.delete(pos, 0, 0, &mut ctx);
        // Collapse a single-child root so height can shrink.
        loop {
            let replace = match &mut self.root {
                Node::Internal(i) if i.children.len() == 1 => i.children.pop().expect("child"),
                _ => break,
            };
            self.root = replace;
        }
        bit
    }

    /// (bit at `pos`, ones before `pos`) in one descent — or none at all
    /// when `pos` falls inside the cached hot chunk.
    #[inline]
    pub fn access_rank(&self, pos: usize) -> (bool, usize) {
        assert!((pos as u64) < self.root.nbits());
        let pos = pos as u64;
        let c = &self.cache;
        if c.dirty && pos >= c.lo && pos < c.hi {
            let (b, o) = c.locate_local(pos - c.lo);
            return (b, (c.ones_before + o) as usize);
        }
        let (b, o) = self.root.locate(pos);
        (b, o as usize)
    }

    /// Iterates over all bits (O(1) amortized per bit).
    pub fn iter(&self) -> DynBitIter<'_> {
        DynBitIter::new(self)
    }
}

/// Run-aware iterator over a [`DynamicBitVec`].
pub struct DynBitIter<'a> {
    stack: Vec<(&'a Node, usize)>,
    /// Decoded runs of the current chunk.
    runs: Vec<u64>,
    run_idx: usize,
    current_bit: bool,
    remaining_in_run: u64,
    /// Dirty cache entry: (chunk id, its true runs) — the iterator borrows
    /// the vector, so no snapshot copy is taken.
    hot: Option<(u64, &'a [u64])>,
}

impl<'a> DynBitIter<'a> {
    fn new(v: &'a DynamicBitVec) -> Self {
        let hot = v
            .cache
            .dirty
            .then_some((v.cache.id, v.cache.runs.as_slice()));
        let mut it = DynBitIter {
            stack: vec![(&v.root, 0)],
            runs: Vec::new(),
            run_idx: 0,
            current_bit: false,
            remaining_in_run: 0,
            hot,
        };
        it.advance_chunk();
        it
    }

    /// Moves to the next non-empty chunk; returns false at the end.
    fn advance_chunk(&mut self) -> bool {
        while let Some((node, idx)) = self.stack.pop() {
            match node {
                Node::Leaf(c) => {
                    if c.nruns > 0 {
                        match self.hot {
                            Some((id, runs)) if id == c.id => {
                                self.runs.clear();
                                self.runs.extend_from_slice(runs);
                            }
                            _ => c.decode_into(&mut self.runs),
                        }
                        self.run_idx = 0;
                        self.current_bit = c.first_bit;
                        self.remaining_in_run = self.runs[0];
                        return true;
                    }
                }
                Node::Internal(i) => {
                    if idx < i.children.len() {
                        self.stack.push((node, idx + 1));
                        self.stack.push((&i.children[idx], 0));
                    }
                }
            }
        }
        false
    }
}

impl<'a> Iterator for DynBitIter<'a> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        loop {
            if self.remaining_in_run > 0 {
                self.remaining_in_run -= 1;
                return Some(self.current_bit);
            }
            if self.run_idx + 1 < self.runs.len() {
                self.run_idx += 1;
                self.current_bit = !self.current_bit;
                self.remaining_in_run = self.runs[self.run_idx];
            } else if !self.advance_chunk() {
                return None;
            }
        }
    }
}

impl BitAccess for DynamicBitVec {
    #[inline]
    fn len(&self) -> usize {
        self.root.nbits() as usize
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.access_rank(i).0
    }
}

impl BitRank for DynamicBitVec {
    #[inline]
    fn rank1(&self, i: usize) -> usize {
        assert!(i as u64 <= self.root.nbits(), "rank index out of bounds");
        let i = i as u64;
        let c = &self.cache;
        if c.dirty && i >= c.lo && i < c.hi {
            return (c.ones_before + c.locate_local(i - c.lo).1) as usize;
        }
        self.root.rank1(i) as usize
    }

    #[inline]
    fn count_ones(&self) -> usize {
        self.root.nones() as usize
    }
}

impl BitSelect for DynamicBitVec {
    fn select1(&self, k: usize) -> Option<usize> {
        if k >= self.count_ones() {
            return None;
        }
        let k = k as u64;
        let c = &self.cache;
        if c.dirty && k >= c.ones_before && k < c.ones_before + c.nones {
            return Some((c.lo + c.select_local(true, k - c.ones_before)) as usize);
        }
        Some(self.root.select(true, k) as usize)
    }

    fn select0(&self, k: usize) -> Option<usize> {
        if k >= self.len() - self.count_ones() {
            return None;
        }
        let k = k as u64;
        let c = &self.cache;
        if c.dirty {
            let zeros_before = c.lo - c.ones_before;
            let zeros_in = (c.hi - c.lo) - c.nones;
            if k >= zeros_before && k < zeros_before + zeros_in {
                return Some((c.lo + c.select_local(false, k - zeros_before)) as usize);
            }
        }
        Some(self.root.select(false, k) as usize)
    }
}

impl SpaceUsage for DynamicBitVec {
    fn size_bits(&self) -> usize {
        self.root.size_bits() + self.cache.size_bits() + 2 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_workloads::xorshift;

    /// Mirror model executing the same operations on a Vec<bool>.
    struct Model {
        v: DynamicBitVec,
        m: Vec<bool>,
    }

    impl Model {
        fn new() -> Self {
            Model {
                v: DynamicBitVec::new(),
                m: Vec::new(),
            }
        }

        fn filled(bit: bool, n: usize) -> Self {
            Model {
                v: DynamicBitVec::filled(bit, n),
                m: vec![bit; n],
            }
        }

        fn insert(&mut self, pos: usize, bit: bool) {
            self.v.insert(pos, bit);
            self.m.insert(pos, bit);
        }

        fn remove(&mut self, pos: usize) {
            let got = self.v.remove(pos);
            let want = self.m.remove(pos);
            assert_eq!(got, want, "remove({pos})");
        }

        fn check(&self) {
            assert_eq!(self.v.len(), self.m.len());
            let ones: usize = self.m.iter().filter(|&&b| b).count();
            assert_eq!(self.v.count_ones(), ones);
            let mut cum = 0usize;
            for (i, &b) in self.m.iter().enumerate() {
                assert_eq!(self.v.get(i), b, "get({i})");
                assert_eq!(self.v.rank1(i), cum, "rank1({i})");
                cum += b as usize;
            }
            assert_eq!(self.v.rank1(self.m.len()), cum);
            let mut seen1 = 0usize;
            let mut seen0 = 0usize;
            for (i, &b) in self.m.iter().enumerate() {
                if b {
                    assert_eq!(self.v.select1(seen1), Some(i), "select1({seen1})");
                    seen1 += 1;
                } else {
                    assert_eq!(self.v.select0(seen0), Some(i), "select0({seen0})");
                    seen0 += 1;
                }
            }
            assert_eq!(self.v.select1(seen1), None);
            assert_eq!(self.v.select0(seen0), None);
            let collected: Vec<bool> = self.v.iter().collect();
            assert_eq!(collected, self.m, "iterator");
        }
    }

    #[test]
    fn empty() {
        let m = Model::new();
        m.check();
    }

    #[test]
    fn push_only() {
        let mut m = Model::new();
        for i in 0..2000 {
            m.insert(m.m.len(), i % 3 == 0);
        }
        m.check();
    }

    #[test]
    fn filled_then_edit() {
        let mut m = Model::filled(true, 1000);
        m.check();
        for i in 0..100 {
            m.insert(i * 7, i % 2 == 0);
        }
        m.check();
        for _ in 0..200 {
            m.remove(m.m.len() / 2);
        }
        m.check();
    }

    #[test]
    fn init_is_constant_time_representation() {
        // A filled vector must be a single run regardless of n (Remark 4.2).
        for n in [1usize, 1000, 1_000_000, 1 << 30] {
            let v = DynamicBitVec::filled(true, n);
            assert_eq!(v.len(), n);
            assert_eq!(v.count_ones(), n);
            assert!(
                v.size_bits() < 4096,
                "Init must not allocate proportional to n (n={n}, bits={})",
                v.size_bits()
            );
            assert_eq!(v.rank1(n / 2), n / 2);
            assert_eq!(v.select1(n - 1), Some(n - 1));
            assert_eq!(v.select0(0), None);
        }
    }

    #[test]
    fn interleaved_pseudorandom_ops() {
        let mut next = xorshift(0xABCD_EF01_2345_6789);
        let mut m = Model::new();
        for step in 0..3000 {
            let r = next();
            let len = m.m.len();
            if len == 0 || !r.is_multiple_of(3) {
                let pos = if len == 0 {
                    0
                } else {
                    (next() % (len as u64 + 1)) as usize
                };
                m.insert(pos, next().is_multiple_of(2));
            } else {
                let pos = (next() % len as u64) as usize;
                m.remove(pos);
            }
            if step % 500 == 499 {
                m.check();
            }
        }
        m.check();
    }

    #[test]
    fn run_heavy_workload_compresses() {
        // 100k bits in runs of ~1000: must use far fewer than 100k bits.
        let mut v = DynamicBitVec::new();
        for i in 0..100_000 {
            v.push((i / 1000) % 2 == 0);
        }
        assert!(
            v.size_bits() < 20_000,
            "RLE should compress runs: {}",
            v.size_bits()
        );
        // Alternating bits are the worst case: space grows but ops stay correct.
        let mut w = DynamicBitVec::new();
        for i in 0..10_000 {
            w.push(i % 2 == 0);
        }
        assert_eq!(w.rank1(10_000), 5_000);
    }

    #[test]
    fn delete_down_to_empty() {
        let mut m = Model::filled(false, 300);
        for _ in 0..300 {
            m.remove(0);
        }
        m.check();
        m.insert(0, true);
        m.check();
    }

    #[test]
    fn insert_at_both_ends() {
        let mut m = Model::new();
        for i in 0..500 {
            m.insert(0, i % 2 == 0);
            m.insert(m.m.len(), i % 3 == 0);
        }
        m.check();
    }

    #[test]
    fn access_rank_combined() {
        let v = DynamicBitVec::from_bits((0..100).map(|i| i % 7 < 3));
        for i in 0..100 {
            let (b, r) = v.access_rank(i);
            assert_eq!(b, v.get(i));
            assert_eq!(r, v.rank1(i));
        }
    }

    #[test]
    fn far_apart_edits_force_cache_flush() {
        // Alternate edits between the two ends: every edit evicts a dirty
        // cache entry for the opposite chunk.
        let mut m = Model::filled(false, 4000);
        for i in 0..300 {
            m.insert(i % 10, i % 2 == 0);
            m.insert(m.m.len() - (i % 10), i % 3 == 0);
            m.remove(5);
            m.remove(m.m.len() - 5);
        }
        m.check();
    }

    #[test]
    fn queries_interleaved_with_cached_edits() {
        // Query positions both inside and outside the dirty chunk between
        // edits, without an intervening flush.
        let mut m = Model::filled(true, 2000);
        for i in 0..200 {
            m.insert(1000 + (i % 16), i % 2 == 0);
            let far = i % 500;
            assert_eq!(m.v.rank1(far), m.m[..far].iter().filter(|&&b| b).count());
            assert_eq!(m.v.get(1000 + (i % 16)), m.m[1000 + (i % 16)]);
        }
        m.check();
    }

    #[test]
    fn clone_with_dirty_cache_is_independent() {
        let mut a = Model::new();
        for i in 0..600 {
            a.insert(i / 2, i % 3 == 0);
        }
        // Leave the cache dirty, then clone and diverge.
        let mut b = Model {
            v: a.v.clone(),
            m: a.m.clone(),
        };
        for i in 0..100 {
            a.insert(i, true);
            b.insert(b.m.len() / 2, false);
        }
        a.check();
        b.check();
    }

    #[test]
    fn iterator_reflects_dirty_cache() {
        let mut m = Model::filled(false, 1000);
        m.insert(500, true); // cache now dirty for the middle chunk
        let collected: Vec<bool> = m.v.iter().collect();
        assert_eq!(collected, m.m);
        m.check();
    }
}
