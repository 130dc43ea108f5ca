//! The static Wavelet Trie (§3, Theorem 3.7).
//!
//! Representation:
//! * tree shape: nodes numbered in level order (BFS, child 0 before
//!   child 1) with one internal flag per node in a [`Fid`]. Every internal
//!   node has exactly two children (Definition 3.1), so the children of
//!   the j-th internal node are nodes `2j + 1` and `2j + 2`: the flags are
//!   the whole topology (≈ 2 bits per distinct string), and the
//!   `j = rank1(p)` every descent step already computes for the bitvector
//!   directories is also its navigation step;
//! * node labels α concatenated in level order into the bitvector `L`,
//!   delimited by an Elias–Fano partial-sum structure;
//! * node bitvectors β concatenated in internal-node level order,
//!   compressed with RRR, delimited by a second Elias–Fano structure.
//!
//! Space is `LT(Sset) + nH0(S) + o(h̃n)` bits (Theorem 3.7) — measured and
//! reported by [`WaveletTrie::space_breakdown`]; operations are
//! O(|s| + h_s).

use crate::nav::TrieNav;
use wt_bits::persist::{kind, Archive, ArchiveWriter, LoadError, Persist};
use wt_bits::{BitAccess, BitRank, BitSelect, EliasFano, Fid, RawBitVec, RrrVector, SpaceUsage};
use wt_trie::{BitStr, BitString, PrefixFreeViolation};

/// An immutable compressed indexed sequence of binary strings.
#[derive(Clone, Debug)]
pub struct WaveletTrie {
    pub(crate) n: usize,
    /// Concatenated labels (all nodes, level order; root label included).
    pub(crate) labels: RawBitVec,
    /// Prefix sums of label lengths, indexed by node id (len = nodes+1).
    pub(crate) label_bounds: EliasFano,
    /// Node id → is internal; the children of internal node `p` are
    /// `2·rank1(p) + 1 + b`.
    pub(crate) internal: Fid,
    /// Concatenated internal-node bitvectors, level order, RRR-compressed.
    pub(crate) bvs: RrrVector,
    /// Prefix sums of bitvector lengths (len = internals+1).
    pub(crate) bv_bounds: EliasFano,
    /// Prefix sums of per-node ones (len = internals+1): rank at each
    /// node's segment start in O(1), halving the bitvector probes of every
    /// in-node rank/select.
    pub(crate) bv_ones: EliasFano,
    /// `n·H0(S)` in bits, computed during construction (for the space report).
    nh0_bits: f64,
    /// Length of the root label (excluded from `|L|` in Theorem 3.6).
    root_label_len: usize,
}

/// Measured space of each component of the static Wavelet Trie, against the
/// information-theoretic quantities of §3 (experiment E4).
#[derive(Clone, Copy, Debug)]
pub struct StaticSpaceBreakdown {
    /// Sequence length n.
    pub n: usize,
    /// Distinct strings |Sset|.
    pub distinct: usize,
    /// Raw concatenated label bits (all nodes).
    pub label_bits: usize,
    /// Elias–Fano delimiters for labels.
    pub label_delim_bits: usize,
    /// RRR-compressed bitvector bits (including directories).
    pub bv_bits: usize,
    /// Elias–Fano delimiters for bitvectors.
    pub bv_delim_bits: usize,
    /// Internal-flag FID bits — in level order, the whole tree topology.
    pub flags_bits: usize,
    /// Total measured bits.
    pub total_bits: usize,
    /// `LT(Sset)` lower bound of Theorem 3.6 (bits).
    pub lt_bits: f64,
    /// `n·H0(S)` (bits).
    pub nh0_bits: f64,
    /// `LB = LT + nH0` (bits).
    pub lb_bits: f64,
    /// `h̃·n`: total bitvector length (bits) — the redundancy scale o(h̃n).
    pub hn_bits: usize,
}

/// The preorder raw material of a static Wavelet Trie, produced either by
/// the recursive builder or by the structural freeze of a dynamic trie
/// (`crate::convert`), then renumbered into level order and assembled into
/// the succinct directories by [`WaveletTrie::assemble`].
pub(crate) struct StaticParts {
    pub n: usize,
    /// Per-node internal flags.
    pub internal: Vec<bool>,
    /// Concatenated node labels.
    pub labels: RawBitVec,
    /// Per-node label lengths.
    pub label_lens: Vec<u64>,
    /// Concatenated internal-node bitvectors.
    pub bv_concat: RawBitVec,
    /// Per-internal-node bitvector lengths.
    pub bv_lens: Vec<u64>,
    /// Per-internal-node ones counts.
    pub bv_ones: Vec<u64>,
}

impl StaticParts {
    pub(crate) fn empty() -> Self {
        StaticParts {
            n: 0,
            internal: Vec::new(),
            labels: RawBitVec::new(),
            label_lens: Vec::new(),
            bv_concat: RawBitVec::new(),
            bv_lens: Vec::new(),
            bv_ones: Vec::new(),
        }
    }

    /// Renumbers preorder parts into level order in one O(nodes + bits)
    /// pass with word-level label and bitvector copies.
    fn into_level_order(self) -> Self {
        let m = self.internal.len();
        // `at[i]`: one past the last preorder id of `i`'s subtree. Child 0
        // of internal `i` is `i + 1`; child 1 starts where child 0's
        // subtree ends.
        let mut at = vec![0usize; m];
        for i in (0..m).rev() {
            at[i] = if self.internal[i] {
                at[at[i + 1]]
            } else {
                i + 1
            };
        }
        let mut order: Vec<usize> = Vec::with_capacity(m);
        if m > 0 {
            order.push(0);
        }
        let mut head = 0;
        while head < order.len() {
            let i = order[head];
            head += 1;
            if self.internal[i] {
                order.push(i + 1);
                order.push(at[i + 1]);
            }
        }
        // From here on `at[i]` is preorder node `i`'s internal rank.
        let mut internals = 0;
        for (i, &int) in self.internal.iter().enumerate() {
            at[i] = internals;
            internals += int as usize;
        }
        let starts = |lens: &[u64]| -> Vec<usize> {
            lens.iter()
                .scan(0usize, |acc, &l| {
                    let s = *acc;
                    *acc += l as usize;
                    Some(s)
                })
                .collect()
        };
        let label_at = starts(&self.label_lens);
        let bv_at = starts(&self.bv_lens);
        let mut out = StaticParts {
            n: self.n,
            internal: Vec::with_capacity(m),
            labels: RawBitVec::with_capacity(self.labels.len()),
            label_lens: Vec::with_capacity(m),
            bv_concat: RawBitVec::with_capacity(self.bv_concat.len()),
            bv_lens: Vec::with_capacity(internals),
            bv_ones: Vec::with_capacity(internals),
        };
        for &i in &order {
            let len = self.label_lens[i];
            out.labels
                .extend_from_range(&self.labels, label_at[i], len as usize);
            out.label_lens.push(len);
            out.internal.push(self.internal[i]);
            if self.internal[i] {
                let k = at[i];
                let len = self.bv_lens[k];
                out.bv_concat
                    .extend_from_range(&self.bv_concat, bv_at[k], len as usize);
                out.bv_lens.push(len);
                out.bv_ones.push(self.bv_ones[k]);
            }
        }
        out
    }

    /// `n·H0(S) = Σ c·log2(n/c)` over the leaves, each leaf's occurrence
    /// count `c` read off its parent's bitvector (a root leaf has `c = n`
    /// and adds 0). Summed in level order from the renumbered parts, so
    /// serial, parallel and frozen builds store the same bits.
    fn nh0_bits(&self) -> f64 {
        let n = self.n as f64;
        let mut nh0 = 0.0;
        for (j, (&len, &ones)) in self.bv_lens.iter().zip(&self.bv_ones).enumerate() {
            for (b, c) in [(0, len - ones), (1, ones)] {
                if !self.internal[2 * j + 1 + b] {
                    let c = c as f64;
                    nh0 += c * (n / c).log2();
                }
            }
        }
        nh0
    }
}

/// Below this many strings a parallel build is not worth the thread spawns.
const PAR_BUILD_MIN: usize = 1 << 15;

/// Default construction thread count: serial for small inputs, the
/// machine's parallelism (bounded) for large ones.
fn auto_threads(n_strings: usize) -> usize {
    if n_strings < PAR_BUILD_MIN {
        1
    } else {
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// A pending subtree of the partition recursion: the (still unsorted)
/// sequence positions below this node and the bit offset they share.
struct Frame {
    idx: Vec<u32>,
    delta: usize,
}

/// The preorder raw parts of a contiguous node range — one worker's share
/// of a parallel build, or the whole tree in a serial one.
#[derive(Default)]
struct PartsChunk {
    internal: Vec<bool>,
    labels: RawBitVec,
    label_lens: Vec<u64>,
    bv_concat: RawBitVec,
    bv_lens: Vec<u64>,
    bv_ones: Vec<u64>,
}

/// Emits `frame`'s node (Definition 3.1) into `chunk`; returns the child
/// frames (child 0 first) when the node is internal.
fn emit_node(
    views: &[BitStr<'_>],
    frame: Frame,
    chunk: &mut PartsChunk,
) -> Result<Option<(Frame, Frame)>, PrefixFreeViolation> {
    let Frame { idx, delta } = frame;
    let first = views[idx[0] as usize].suffix(delta);
    let mut l = first.len();
    let mut min_rem = first.len();
    let mut max_rem = first.len();
    for &i in &idx[1..] {
        let other = views[i as usize].suffix(delta);
        min_rem = min_rem.min(other.len());
        max_rem = max_rem.max(other.len());
        if l > 0 {
            let cap = l.min(other.len());
            l = first.prefix(cap).lcp(&other.prefix(cap));
        }
    }
    l = l.min(min_rem);
    if l == min_rem && min_rem != max_rem {
        // Some string ends where another continues: not prefix-free.
        return Err(PrefixFreeViolation);
    }
    first.prefix(l).append_into(&mut chunk.labels);
    chunk.label_lens.push(l as u64);
    if l == min_rem {
        // All strings identical from delta: a leaf (Def. 3.1 case i).
        chunk.internal.push(false);
        return Ok(None);
    }
    // Internal node (Def. 3.1 case ii).
    chunk.internal.push(true);
    let branch = delta + l;
    let mut idx0 = Vec::new();
    let mut idx1 = Vec::new();
    for &i in &idx {
        let b = views[i as usize].get(branch);
        chunk.bv_concat.push(b);
        if b {
            idx1.push(i);
        } else {
            idx0.push(i);
        }
    }
    chunk.bv_lens.push(idx.len() as u64);
    chunk.bv_ones.push(idx1.len() as u64);
    debug_assert!(!idx0.is_empty() && !idx1.is_empty());
    Ok(Some((
        Frame {
            idx: idx0,
            delta: branch + 1,
        },
        Frame {
            idx: idx1,
            delta: branch + 1,
        },
    )))
}

/// Runs the partition recursion for one whole subtree, emitting its nodes
/// in preorder (child 1 is pushed below child 0 on the explicit stack).
fn build_chunk(views: &[BitStr<'_>], root: Frame) -> Result<PartsChunk, PrefixFreeViolation> {
    let mut chunk = PartsChunk::default();
    let mut stack = vec![root];
    while let Some(f) = stack.pop() {
        if let Some((f0, f1)) = emit_node(views, f, &mut chunk)? {
            stack.push(f1);
            stack.push(f0);
        }
    }
    Ok(chunk)
}

/// Concatenates preorder chunks back into one [`StaticParts`].
fn parts_from_chunks(n: usize, chunks: Vec<PartsChunk>) -> StaticParts {
    let mut it = chunks.into_iter();
    let first = it.next().expect("at least one chunk");
    let mut acc = first;
    for c in it {
        acc.internal.extend_from_slice(&c.internal);
        acc.labels.extend_from_range(&c.labels, 0, c.labels.len());
        acc.label_lens.extend_from_slice(&c.label_lens);
        acc.bv_concat
            .extend_from_range(&c.bv_concat, 0, c.bv_concat.len());
        acc.bv_lens.extend_from_slice(&c.bv_lens);
        acc.bv_ones.extend_from_slice(&c.bv_ones);
    }
    StaticParts {
        n,
        internal: acc.internal,
        labels: acc.labels,
        label_lens: acc.label_lens,
        bv_concat: acc.bv_concat,
        bv_lens: acc.bv_lens,
        bv_ones: acc.bv_ones,
    }
}

impl WaveletTrie {
    /// Builds the Wavelet Trie of a sequence of binary strings
    /// (Definition 3.1).
    ///
    /// # Errors
    /// [`PrefixFreeViolation`] if the underlying string set is not
    /// prefix-free (§3 requires it; see [`crate::binarize`] for coders that
    /// guarantee it).
    pub fn from_bitstrings<I>(seq: I) -> Result<Self, PrefixFreeViolation>
    where
        I: IntoIterator<Item = BitString>,
    {
        let strings: Vec<BitString> = seq.into_iter().collect();
        Self::build(&strings)
    }

    /// Builds from a slice of (owned or borrowed) binary strings without
    /// copying any of them.
    pub fn build<S: std::borrow::Borrow<BitString>>(
        strings: &[S],
    ) -> Result<Self, PrefixFreeViolation> {
        Self::from_views(strings.iter().map(|s| s.borrow().as_bitstr()))
    }

    /// Like [`WaveletTrie::build`] with an explicit construction thread
    /// count (see [`WaveletTrie::from_views_with_threads`]).
    pub fn build_with_threads<S: std::borrow::Borrow<BitString>>(
        strings: &[S],
        threads: usize,
    ) -> Result<Self, PrefixFreeViolation> {
        Self::from_views_with_threads(strings.iter().map(|s| s.borrow().as_bitstr()), threads)
    }

    /// Builds from borrowed bit-string views. This is the zero-copy entry
    /// point: the builder reads every input in place and copies each bit
    /// exactly once, into the label / bitvector concatenations. Large
    /// inputs are built with a scoped worker pool
    /// ([`WaveletTrie::from_views_with_threads`] with the available
    /// parallelism); the result is identical either way.
    pub fn from_views<'a, I>(seq: I) -> Result<Self, PrefixFreeViolation>
    where
        I: IntoIterator<Item = BitStr<'a>>,
    {
        let views: Vec<BitStr<'a>> = seq.into_iter().collect();
        Self::build_views(&views, auto_threads(views.len()))
    }

    /// Builds with an explicit thread count: the partition recursion splits
    /// subtries across `threads` scoped worker threads once the preorder
    /// spine has produced enough independent subtrees; the succinct
    /// assembly after it is serial. `threads <= 1` is the serial
    /// construction; any value produces a **bit-identical** structure,
    /// since workers emit the same preorder chunks the serial walk would.
    pub fn from_views_with_threads<'a, I>(
        seq: I,
        threads: usize,
    ) -> Result<Self, PrefixFreeViolation>
    where
        I: IntoIterator<Item = BitStr<'a>>,
    {
        let views: Vec<BitStr<'a>> = seq.into_iter().collect();
        Self::build_views(&views, threads)
    }

    fn build_views(views: &[BitStr<'_>], threads: usize) -> Result<Self, PrefixFreeViolation> {
        let n = views.len();
        if n == 0 {
            return Ok(Self::assemble(StaticParts::empty()));
        }
        let threads = threads.max(1);
        let root = Frame {
            idx: (0..n as u32).collect(),
            delta: 0,
        };
        if threads == 1 {
            let chunk = build_chunk(views, root)?;
            let parts = parts_from_chunks(n, vec![chunk]);
            return Ok(Self::assemble(parts));
        }
        // Parallel build: the main thread walks the preorder "spine" —
        // nodes whose subsequence is still large — and defers every
        // subtree at or below `cutoff` strings as an independent task.
        // Because frames pop in preorder and a subtree's nodes are
        // preorder-contiguous, stitching the spine pieces and task chunks
        // back in emission order reproduces the serial preorder exactly.
        enum Piece {
            Done(PartsChunk),
            Task(usize),
        }
        let cutoff = (n / (threads * 8)).max(1024);
        let mut pieces: Vec<Piece> = Vec::new();
        let mut tasks: Vec<Frame> = Vec::new();
        let mut cur = PartsChunk::default();
        let mut stack = vec![root];
        while let Some(f) = stack.pop() {
            if f.idx.len() <= cutoff {
                if !cur.internal.is_empty() {
                    pieces.push(Piece::Done(std::mem::take(&mut cur)));
                }
                pieces.push(Piece::Task(tasks.len()));
                tasks.push(f);
                continue;
            }
            if let Some((f0, f1)) = emit_node(views, f, &mut cur)? {
                stack.push(f1);
                stack.push(f0);
            }
        }
        if !cur.internal.is_empty() {
            pieces.push(Piece::Done(cur));
        }
        let n_tasks = tasks.len();
        let n_workers = threads.min(n_tasks).max(1);
        let mut buckets: Vec<Vec<(usize, Frame)>> = (0..n_workers).map(|_| Vec::new()).collect();
        for (i, f) in tasks.into_iter().enumerate() {
            buckets[i % n_workers].push((i, f));
        }
        let mut results: Vec<Option<Result<PartsChunk, PrefixFreeViolation>>> =
            (0..n_tasks).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    s.spawn(move || {
                        bucket
                            .into_iter()
                            .map(|(i, f)| (i, build_chunk(views, f)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("build worker panicked") {
                    results[i] = Some(r);
                }
            }
        });
        let mut chunks = Vec::with_capacity(pieces.len());
        for p in pieces {
            match p {
                Piece::Done(c) => chunks.push(c),
                Piece::Task(i) => chunks.push(results[i].take().expect("task ran")?),
            }
        }
        Ok(Self::assemble(parts_from_chunks(n, chunks)))
    }

    /// Renumbers preorder raw parts into level order and compresses them
    /// into the succinct representation of Theorem 3.7 (internal flags +
    /// Elias–Fano delimiters + RRR bitvectors).
    pub(crate) fn assemble(parts: StaticParts) -> Self {
        let parts = parts.into_level_order();
        let nh0_bits = parts.nh0_bits();
        let root_label_len = parts.label_lens.first().map_or(0, |&l| l as usize);
        let StaticParts {
            n,
            internal,
            labels,
            label_lens,
            bv_concat,
            bv_lens,
            bv_ones,
        } = parts;
        WaveletTrie {
            n,
            labels,
            label_bounds: EliasFano::prefix_sums(label_lens),
            internal: Fid::from_bits(internal),
            bvs: RrrVector::new(&bv_concat),
            bv_bounds: EliasFano::prefix_sums(bv_lens),
            bv_ones: EliasFano::prefix_sums(bv_ones),
            nh0_bits,
            root_label_len,
        }
    }

    /// Sequence length n.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of trie nodes (2|Sset| − 1 for |Sset| ≥ 1).
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.internal.len()
    }

    /// Number of distinct strings (= trie leaves), O(1) off the
    /// internal-flag directory: leaves = nodes − internal nodes.
    #[inline]
    pub fn n_distinct(&self) -> usize {
        self.internal.len() - self.internal.count_ones()
    }

    /// Bounds of node `p`'s label in the label concatenation.
    #[inline]
    pub(crate) fn label_range(&self, p: usize) -> (usize, usize) {
        let (s, e) = self.label_bounds.get_pair(p);
        (s as usize, e as usize)
    }

    #[inline]
    fn bv_range(&self, p: usize) -> (usize, usize) {
        let j = self.bv_index(p);
        let (s, e) = self.bv_bounds.get_pair(j);
        (s as usize, e as usize)
    }

    /// Index `j` of internal node `p` into the bitvector directories.
    #[inline]
    pub(crate) fn bv_index(&self, p: usize) -> usize {
        debug_assert!(self.internal.get(p));
        self.internal.rank1(p)
    }

    /// Child of internal node `p` on branch `bit`, given `p`'s internal
    /// index `j` (which every descent computes anyway for the bitvector
    /// directories): in level order the children of the j-th internal
    /// node are `2j + 1` and `2j + 2`.
    #[inline]
    pub(crate) fn child_fast(&self, p: usize, j: usize, bit: bool) -> usize {
        debug_assert!(self.internal.get(p), "child_fast on a leaf");
        debug_assert_eq!(j, self.internal.rank1(p));
        2 * j + 1 + bit as usize
    }

    /// Bits of internal node `p`'s bitvector, in order (used by `thaw`,
    /// which wants the segment bounds resolved once, not per bit).
    pub(crate) fn bv_bits(&self, p: usize) -> impl Iterator<Item = bool> + '_ {
        let (s, e) = self.bv_range(p);
        (s..e).map(move |i| self.bvs.get(i))
    }

    /// Measured vs. information-theoretic space (experiment E4).
    pub fn space_breakdown(&self) -> StaticSpaceBreakdown {
        let distinct = self.n_distinct();
        let label_bits = self.labels.len();
        let label_delim_bits = self.label_bounds.size_bits();
        let bv_bits = self.bvs.size_bits();
        // Delimiters + the per-node ones directory that backs O(1)
        // segment-start ranks.
        let bv_delim_bits = self.bv_bounds.size_bits() + self.bv_ones.size_bits();
        let flags_bits = self.internal.size_bits();
        let total_bits =
            self.labels.size_bits() + label_delim_bits + bv_bits + bv_delim_bits + flags_bits;
        // LT(Sset) = |L| + e + B(e, |L| + e), L excluding the root label.
        let l_bits = label_bits.saturating_sub(self.root_label_len);
        let e = self.n_nodes().saturating_sub(1);
        let lt_bits = if distinct <= 1 {
            l_bits as f64
        } else {
            l_bits as f64 + e as f64 + wt_bits::entropy::binomial_bound_bits(l_bits + e, e)
        };
        StaticSpaceBreakdown {
            n: self.n,
            distinct,
            label_bits,
            label_delim_bits,
            bv_bits,
            bv_delim_bits,
            flags_bits,
            total_bits,
            lt_bits,
            nh0_bits: self.nh0_bits,
            lb_bits: lt_bits + self.nh0_bits,
            hn_bits: self.bvs.len(),
        }
    }

    /// `n·H0(S)` in bits.
    pub fn nh0_bits(&self) -> f64 {
        self.nh0_bits
    }
}

// --- persistence -------------------------------------------------------------

/// Section tags of a Wavelet-Trie archive, one per component.
mod sec {
    pub const META: u32 = 0;
    pub const LABELS: u32 = 2;
    pub const LABEL_BOUNDS: u32 = 3;
    pub const INTERNAL: u32 = 4;
    pub const BVS: u32 = 5;
    pub const BV_BOUNDS: u32 = 6;
    pub const BV_ONES: u32 = 7;
}

fn push_section<T: Persist>(w: &mut ArchiveWriter, tag: u32, value: &T) {
    let mut payload = Vec::new();
    value.encode(&mut payload);
    w.section(tag, payload);
}

fn read_section<T: Persist>(a: &Archive, tag: u32) -> Result<T, LoadError> {
    let mut r = a.section(tag)?;
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

impl WaveletTrie {
    /// Serializes to a versioned archive (see [`wt_bits::persist`]): one
    /// section per succinct component, each individually checksummed.
    pub fn save_bytes(&self) -> Vec<u8> {
        self.write_archive(kind::WAVELET_TRIE)
    }

    /// Loads an archive written by [`WaveletTrie::save_bytes`].
    ///
    /// *Validate-then-view*: after the header, bounds and checksum checks
    /// every component reinterprets its section of the (single) archive
    /// buffer in place — no bitvector is decoded or rebuilt, so loading is
    /// O(bytes) with a small constant.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, LoadError> {
        Self::read_archive(bytes, kind::WAVELET_TRIE)
    }

    /// [`WaveletTrie::save_bytes`] to a file, atomically: the bytes go to
    /// a sibling `*.tmp` which is fsynced and renamed over `path`, so a
    /// crash mid-save never leaves a torn archive under the final name.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        wt_bits::write_atomic(&wt_bits::FsStorage, path.as_ref(), &self.save_bytes())
    }

    /// [`WaveletTrie::load_bytes`] from a file. Errors are tagged with
    /// the offending path ([`LoadError::InFile`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, LoadError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| LoadError::from(e).in_file(path))?;
        Self::load_bytes(&bytes).map_err(|e| e.in_file(path))
    }

    pub(crate) fn write_archive(&self, archive_kind: u32) -> Vec<u8> {
        let mut w = ArchiveWriter::new(archive_kind);
        w.section(
            sec::META,
            vec![
                self.n as u64,
                self.nh0_bits.to_bits(),
                self.root_label_len as u64,
            ],
        );
        push_section(&mut w, sec::LABELS, &self.labels);
        push_section(&mut w, sec::LABEL_BOUNDS, &self.label_bounds);
        push_section(&mut w, sec::INTERNAL, &self.internal);
        push_section(&mut w, sec::BVS, &self.bvs);
        push_section(&mut w, sec::BV_BOUNDS, &self.bv_bounds);
        push_section(&mut w, sec::BV_ONES, &self.bv_ones);
        w.finish()
    }

    pub(crate) fn read_archive(bytes: &[u8], archive_kind: u32) -> Result<Self, LoadError> {
        let a = Archive::parse(bytes, archive_kind)?;
        let mut meta = a.section(sec::META)?;
        let n = meta.read_len()?;
        let nh0_bits = meta.read_f64()?;
        let root_label_len = meta.read_len()?;
        meta.finish()?;
        let labels: RawBitVec = read_section(&a, sec::LABELS)?;
        let label_bounds: EliasFano = read_section(&a, sec::LABEL_BOUNDS)?;
        let internal: Fid = read_section(&a, sec::INTERNAL)?;
        let bvs: RrrVector = read_section(&a, sec::BVS)?;
        let bv_bounds: EliasFano = read_section(&a, sec::BV_BOUNDS)?;
        let bv_ones: EliasFano = read_section(&a, sec::BV_ONES)?;
        let wt = WaveletTrie {
            n,
            labels,
            label_bounds,
            internal,
            bvs,
            bv_bounds,
            bv_ones,
            nh0_bits,
            root_label_len,
        };
        wt.check_invariants()?;
        Ok(wt)
    }

    /// Checks the cross-component invariants every query relies on: the
    /// internal flags form a full binary trie, the label and bitvector
    /// directories agree with their concatenations, each node's ones
    /// entry is the rank of the bitvector concatenation at the node's
    /// start, and each internal child's bitvector is exactly as long as
    /// its parent's zero or one count. Forward passes over the
    /// directories, and one batched rank per node start. The loader runs
    /// it on every archive, so a corrupt image fails with a typed error
    /// instead of answering out of bounds or wrongly.
    pub fn check_invariants(&self) -> Result<(), LoadError> {
        let (n, nh0_bits, root_label_len) = (self.n, self.nh0_bits, self.root_label_len);
        let Self {
            labels,
            label_bounds,
            internal,
            bvs,
            bv_bounds,
            bv_ones,
            ..
        } = self;
        let n_nodes = internal.len();
        let internals = internal.count_ones();
        if (n == 0) != (n_nodes == 0) {
            return Err(LoadError::Invalid("empty trie encoding"));
        }
        // A full binary trie: with `child = 2·rank1(p) + 1 + b` this keeps
        // every reachable child in range and strictly deeper (by id) than
        // its parent, so every descent terminates.
        if n_nodes > 0 && n_nodes != 2 * internals + 1 {
            return Err(LoadError::Invalid(
                "internal flags are not a full binary trie",
            ));
        }
        if n_nodes > 0 && n < n_nodes.div_ceil(2) {
            return Err(LoadError::Invalid("fewer strings than leaves"));
        }
        if label_bounds.len() != n_nodes + 1 {
            return Err(LoadError::Invalid("label delimiter count"));
        }
        if labels.len() as u64 != label_bounds.get(n_nodes) {
            return Err(LoadError::Invalid("label concatenation length"));
        }
        if root_label_len > labels.len() {
            return Err(LoadError::Invalid("root label length"));
        }
        if bv_bounds.len() != internals + 1 || bv_ones.len() != internals + 1 {
            return Err(LoadError::Invalid("bitvector delimiter count"));
        }
        if bvs.len() as u64 != bv_bounds.get(internals) {
            return Err(LoadError::Invalid("bitvector concatenation length"));
        }
        if bvs.count_ones() as u64 != bv_ones.get(internals) {
            return Err(LoadError::Invalid("bitvector ones directory"));
        }
        if !nh0_bits.is_finite() || nh0_bits < 0.0 {
            return Err(LoadError::Invalid("entropy metadata"));
        }
        // Each node's ones entry is the rank of the concatenation at the
        // node's start, which queries subtract from their in-node ranks.
        // The bounds do not decrease (their loader checked) and end at the
        // concatenation's length, so every start is a valid rank index.
        let starts: Vec<usize> = bv_bounds.iter().map(|s| s as usize).collect();
        let mut ranks = vec![0; starts.len()];
        bvs.rank1_batch(&starts, &mut ranks);
        if !ranks.iter().map(|&r| r as u64).eq(bv_ones.iter()) {
            return Err(LoadError::Invalid("bitvector ones directory vs its bits"));
        }
        // Every child's segment holds exactly the positions its parent
        // routes to it, so a descent never maps a position past its node's
        // segment. One forward pass: the children of internal node `j`
        // are ids `2j + 1` and `2j + 2`, so the internal ones among them
        // come up in id order, which is their directory order after the
        // root's entry.
        let root_internal = internals > 0 && internal.get(0);
        let mut child_lens = gaps(bv_bounds).skip(root_internal as usize);
        for (j, (len, ones)) in gaps(bv_bounds).zip(gaps(bv_ones)).enumerate() {
            if j == 0 && len != n as u64 {
                return Err(LoadError::Invalid("root bitvector length"));
            }
            for (b, count) in [(0, len - ones), (1, ones)] {
                if internal.get(2 * j + 1 + b) && child_lens.next() != Some(count) {
                    return Err(LoadError::Invalid("child bitvector length"));
                }
            }
        }
        Ok(())
    }
}

/// Differences of neighbouring values, in order: each node's segment
/// length from the bounds, or its ones from the ones directory.
fn gaps(ef: &EliasFano) -> impl Iterator<Item = u64> + '_ {
    let mut values = ef.iter();
    let mut prev = values.next().unwrap_or(0);
    values.map(move |v| {
        let gap = v - prev;
        prev = v;
        gap
    })
}

impl SpaceUsage for WaveletTrie {
    fn size_bits(&self) -> usize {
        self.space_breakdown().total_bits
    }
}

impl TrieNav for WaveletTrie {
    type Node<'a> = usize;

    #[inline]
    fn nav_root(&self) -> Option<usize> {
        (self.n > 0).then_some(0)
    }

    #[inline]
    fn nav_len(&self) -> usize {
        self.n
    }

    #[inline]
    fn nav_is_leaf(&self, p: usize) -> bool {
        !self.internal.get(p)
    }

    #[inline]
    fn nav_child(&self, p: usize, bit: bool) -> usize {
        self.child_fast(p, self.bv_index(p), bit)
    }

    #[inline]
    fn nav_label_len(&self, v: usize) -> usize {
        let (s, e) = self.label_range(v);
        e - s
    }

    #[inline]
    fn nav_label_bit(&self, v: usize, i: usize) -> bool {
        let (s, e) = self.label_range(v);
        debug_assert!(i < e - s);
        self.labels.get(s + i)
    }

    #[inline]
    fn nav_label_lcp(&self, v: usize, s: BitStr<'_>) -> usize {
        let (ls, le) = self.label_range(v);
        BitStr::new(&self.labels, ls, le - ls).lcp(&s)
    }

    #[inline]
    fn nav_label_append(&self, v: usize, out: &mut BitString) {
        let (ls, le) = self.label_range(v);
        out.push_str(BitStr::new(&self.labels, ls, le - ls));
    }

    #[inline]
    fn nav_bv_len(&self, v: usize) -> usize {
        let (s, e) = self.bv_range(v);
        e - s
    }

    #[inline]
    fn nav_bv_get(&self, v: usize, i: usize) -> bool {
        let j = self.bv_index(v);
        let s = self.bv_bounds.get(j) as usize;
        self.bvs.get(s + i)
    }

    #[inline]
    fn nav_bv_rank(&self, v: usize, bit: bool, i: usize) -> usize {
        let j = self.bv_index(v);
        let s = self.bv_bounds.get(j) as usize;
        let ones_before = self.bv_ones.get(j) as usize;
        let r1 = self.bvs.rank1(s + i);
        if bit {
            r1 - ones_before
        } else {
            (s + i - r1) - (s - ones_before)
        }
    }

    #[inline]
    fn nav_bv_get_rank(&self, v: usize, i: usize) -> (bool, usize) {
        let j = self.bv_index(v);
        let s = self.bv_bounds.get(j) as usize;
        let ones_before = self.bv_ones.get(j) as usize;
        let (bit, r1) = self.bvs.get_rank1(s + i);
        if bit {
            (true, r1 - ones_before)
        } else {
            (false, (s + i - r1) - (s - ones_before))
        }
    }

    #[inline]
    fn nav_bv_select(&self, v: usize, bit: bool, k: usize) -> Option<usize> {
        let j = self.bv_index(v);
        let (s, e) = self.bv_bounds.get_pair(j);
        let (s, e) = (s as usize, e as usize);
        let ones_before = self.bv_ones.get(j) as usize;
        let before = if bit { ones_before } else { s - ones_before };
        let p = self.bvs.select(bit, before + k)?;
        (p < e).then(|| p - s)
    }

    #[inline]
    fn nav_key(&self, v: usize) -> usize {
        v
    }

    // Batched queries: the software-pipelined group descents of
    // [`crate::batch`] replace the scalar-loop defaults.

    fn nav_access_batch(&self, positions: &[usize]) -> Vec<BitString> {
        crate::batch::access_batch(self, positions)
    }

    fn nav_rank_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<usize> {
        crate::batch::rank_batch(self, queries)
    }

    fn nav_select_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<Option<usize>> {
        crate::batch::select_batch(self, queries)
    }

    fn nav_count_prefix_batch(&self, prefixes: &[BitStr<'_>]) -> Vec<usize> {
        crate::batch::count_prefix_batch(self, prefixes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{SeqIndex, SequenceOps};
    use wt_workloads::xorshift;

    fn bs(s: &str) -> BitString {
        BitString::parse(s)
    }

    /// The paper's Figure 2 sequence.
    fn figure2_seq() -> Vec<BitString> {
        ["0001", "0011", "0100", "00100", "0100", "00100", "0100"]
            .iter()
            .map(|s| bs(s))
            .collect()
    }

    #[test]
    fn figure2_structure() {
        let wt = WaveletTrie::build(&figure2_seq()).unwrap();
        assert_eq!(wt.len(), 7);
        assert_eq!(wt.distinct_len(), 4);
        assert_eq!(wt.n_nodes(), 7);
        // Root: α = "0", β = 0010101 (Figure 2).
        let root = wt.nav_root().unwrap();
        let mut label = BitString::new();
        wt.nav_label_append(root, &mut label);
        assert_eq!(label.to_string(), "0");
        let beta: String = (0..wt.nav_bv_len(root))
            .map(|i| if wt.nav_bv_get(root, i) { '1' } else { '0' })
            .collect();
        assert_eq!(beta, "0010101");
        // Left child: α = ε, β = 0111.
        let l = wt.nav_child(root, false);
        assert_eq!(wt.nav_label_len(l), 0);
        let beta: String = (0..wt.nav_bv_len(l))
            .map(|i| if wt.nav_bv_get(l, i) { '1' } else { '0' })
            .collect();
        assert_eq!(beta, "0111");
        // Left-left leaf: α = "1" (appendix of 0001 after "0"+"0").
        let ll = wt.nav_child(l, false);
        assert!(wt.nav_is_leaf(ll));
        let mut lab = BitString::new();
        wt.nav_label_append(ll, &mut lab);
        assert_eq!(lab.to_string(), "1");
        // Left-right internal: α = ε, β = 100.
        let lr = wt.nav_child(l, true);
        let beta: String = (0..wt.nav_bv_len(lr))
            .map(|i| if wt.nav_bv_get(lr, i) { '1' } else { '0' })
            .collect();
        assert_eq!(beta, "100");
        // Right child of root: leaf α = "00" (0100 after "0"+"1").
        let r = wt.nav_child(root, true);
        assert!(wt.nav_is_leaf(r));
        let mut lab = BitString::new();
        wt.nav_label_append(r, &mut lab);
        assert_eq!(lab.to_string(), "00");
    }

    #[test]
    fn figure2_queries() {
        let seq = figure2_seq();
        let wt = WaveletTrie::build(&seq).unwrap();
        for (i, s) in seq.iter().enumerate() {
            assert_eq!(&wt.access(i), s, "access({i})");
        }
        // rank/select against naive
        for s in &seq {
            let occs: Vec<usize> = (0..seq.len()).filter(|&i| &seq[i] == s).collect();
            for pos in 0..=seq.len() {
                let naive = occs.iter().filter(|&&p| p < pos).count();
                assert_eq!(wt.rank(s.as_bitstr(), pos), naive);
            }
            for (k, &p) in occs.iter().enumerate() {
                assert_eq!(wt.select(s.as_bitstr(), k), Some(p));
            }
            assert_eq!(wt.select(s.as_bitstr(), occs.len()), None);
        }
        // prefix ops: strings starting with "00" are at positions 0,1,3,5
        let p = bs("00");
        assert_eq!(wt.count_prefix(p.as_bitstr()), 4);
        assert_eq!(wt.rank_prefix(p.as_bitstr(), 4), 3);
        assert_eq!(wt.select_prefix(p.as_bitstr(), 0), Some(0));
        assert_eq!(wt.select_prefix(p.as_bitstr(), 2), Some(3));
        assert_eq!(wt.select_prefix(p.as_bitstr(), 3), Some(5));
        assert_eq!(wt.select_prefix(p.as_bitstr(), 4), None);
        // absent strings
        assert_eq!(wt.rank(bs("0000").as_bitstr(), 7), 0);
        assert_eq!(wt.select(bs("1111").as_bitstr(), 0), None);
        assert_eq!(wt.count_prefix(bs("11").as_bitstr()), 0);
        // a prefix that is also a full string boundary: "0100" exactly
        assert_eq!(wt.count_prefix(bs("0100").as_bitstr()), 3);
    }

    #[test]
    fn single_distinct_string() {
        let seq: Vec<BitString> = (0..5).map(|_| bs("1010")).collect();
        let wt = WaveletTrie::build(&seq).unwrap();
        assert_eq!(wt.len(), 5);
        assert_eq!(wt.distinct_len(), 1);
        assert_eq!(wt.access(3).to_string(), "1010");
        assert_eq!(wt.rank(bs("1010").as_bitstr(), 4), 4);
        assert_eq!(wt.select(bs("1010").as_bitstr(), 4), Some(4));
        assert_eq!(wt.select(bs("1010").as_bitstr(), 5), None);
        assert_eq!(wt.count_prefix(bs("10").as_bitstr()), 5);
        assert_eq!(wt.height(), 0);
    }

    #[test]
    fn empty_sequence() {
        let wt = WaveletTrie::build::<BitString>(&[]).unwrap();
        assert!(wt.is_empty());
        assert_eq!(wt.rank(bs("01").as_bitstr(), 0), 0);
        assert_eq!(wt.select(bs("01").as_bitstr(), 0), None);
        assert_eq!(wt.distinct_len(), 0);
    }

    #[test]
    fn prefix_violation_rejected() {
        let seq = vec![bs("01"), bs("010")];
        assert!(WaveletTrie::build(&seq).is_err());
        let seq = vec![bs("010"), bs("01")];
        assert!(WaveletTrie::build(&seq).is_err());
        let seq = vec![bs(""), bs("1")];
        assert!(WaveletTrie::build(&seq).is_err());
    }

    #[test]
    fn avg_height_bounds_lemma_3_5() {
        // H0(S) <= h̃ <= (1/n)Σ|s_i|
        let seq = figure2_seq();
        let wt = WaveletTrie::build(&seq).unwrap();
        let h = wt.avg_height();
        let n = seq.len() as f64;
        let h0 = wt.nh0_bits() / n;
        let avg_len: f64 = seq.iter().map(|s| s.len() as f64).sum::<f64>() / n;
        assert!(h0 <= h + 1e-9, "H0={h0} h̃={h}");
        assert!(h <= avg_len + 1e-9, "h̃={h} avg|s|={avg_len}");
    }

    #[test]
    fn space_breakdown_sane() {
        let seq: Vec<BitString> = (0..200u32)
            .map(|i| {
                // 16-bit fixed width: prefix-free
                BitString::from_bits((0..16).rev().map(move |k| ((i * 37 % 50) >> k) & 1 != 0))
            })
            .collect();
        let wt = WaveletTrie::build(&seq).unwrap();
        let sp = wt.space_breakdown();
        assert_eq!(sp.n, 200);
        assert!(sp.distinct <= 50);
        assert!(sp.total_bits > 0);
        assert!(sp.lb_bits > 0.0);
        // at least one bit per string per level
        assert!(sp.hn_bits >= sp.n);
        // total should be in the same ballpark as LB (within a small factor)
        assert!(
            (sp.total_bits as f64) < 8.0 * sp.lb_bits + 4096.0,
            "total {} vs LB {}",
            sp.total_bits,
            sp.lb_bits
        );
    }

    #[test]
    fn range_ops_on_figure2() {
        let wt = WaveletTrie::build(&figure2_seq()).unwrap();
        // distinct in [2, 6): 0100, 00100, 0100, 00100 -> {0100:2, 00100:2}
        let d = wt.distinct_in_range(2, 6);
        let strs: Vec<(String, usize)> = d.iter().map(|(s, c)| (s.to_string(), *c)).collect();
        assert_eq!(strs, vec![("00100".into(), 2), ("0100".into(), 2)]);
        // majority of [2, 7): 0100 x3 of 5
        let m = wt.range_majority(2, 7).unwrap();
        assert_eq!(m.0.to_string(), "0100");
        assert_eq!(m.1, 3);
        // no majority in [0, 4)
        assert!(wt.range_majority(0, 4).is_none());
        // frequent with threshold 3 over all: 0100 (3x)
        let f = wt.range_frequent(0, 7, 3);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].0.to_string(), "0100");
        // sequential iteration reproduces the sequence
        let all: Vec<String> = wt.iter_seq().map(|s| s.to_string()).collect();
        assert_eq!(
            all,
            vec!["0001", "0011", "0100", "00100", "0100", "00100", "0100"]
        );
        let mid: Vec<String> = wt.iter_range(2, 5).map(|s| s.to_string()).collect();
        assert_eq!(mid, vec!["0100", "00100", "0100"]);
        // prefix-restricted iteration: "00"-strings are 0001,0011,00100,00100
        let pm: Vec<String> = wt
            .iter_prefix_matches(bs("00").as_bitstr(), 1, 4)
            .map(|s| s.to_string())
            .collect();
        assert_eq!(pm, vec!["0011", "00100", "00100"]);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let mut next = xorshift(0xBEE5);
        // Large enough that the parallel path engages even past the spine
        // cutoff (build_views is called directly to bypass the size gate).
        let seq: Vec<BitString> = (0..6000)
            .map(|_| {
                let v = next() % 300;
                BitString::from_bits((0..14).rev().map(move |k| (v >> k) & 1 != 0))
            })
            .collect();
        let views: Vec<_> = seq.iter().map(|s| s.as_bitstr()).collect();
        let serial = WaveletTrie::build_views(&views, 1).unwrap();
        for threads in [2usize, 4] {
            let par = WaveletTrie::from_views_with_threads(views.iter().copied(), threads).unwrap();
            let a = serial.space_breakdown();
            let b = par.space_breakdown();
            assert_eq!(a.total_bits, b.total_bits, "threads={threads}");
            assert_eq!(par.save_bytes(), serial.save_bytes(), "threads={threads}");
            assert_eq!(a.hn_bits, b.hn_bits);
            assert!((a.nh0_bits - b.nh0_bits).abs() < 1e-6);
            for i in (0..seq.len()).step_by(97) {
                assert_eq!(par.access(i), serial.access(i), "access({i})");
            }
            for probe in (0..300u64).step_by(13) {
                let s = BitString::from_bits((0..14).rev().map(move |k| (probe >> k) & 1 != 0));
                assert_eq!(
                    par.count(s.as_bitstr()),
                    serial.count(s.as_bitstr()),
                    "count({probe})"
                );
            }
        }
        // A prefix-free violation must surface from a worker task too.
        let mut bad: Vec<BitString> = views.iter().map(|v| v.to_owned_str()).collect();
        bad.push(bad[0].as_bitstr().prefix(5).to_owned_str());
        assert!(WaveletTrie::build_with_threads(&bad, 4).is_err());
    }

    #[test]
    fn larger_random_sequence_against_naive() {
        let mut next = xorshift(0xFEED_BEEF);
        // Fixed-width 12-bit strings over a small alphabet: prefix-free.
        let vals: Vec<u32> = (0..3000).map(|_| (next() % 40) as u32).collect();
        let seq: Vec<BitString> = vals
            .iter()
            .map(|&v| BitString::from_bits((0..12).rev().map(move |k| (v >> k) & 1 != 0)))
            .collect();
        let wt = WaveletTrie::build(&seq).unwrap();
        assert_eq!(wt.distinct_len(), {
            let mut u: Vec<u32> = vals.clone();
            u.sort_unstable();
            u.dedup();
            u.len()
        });
        for probe in 0..40u32 {
            let s = BitString::from_bits((0..12).rev().map(move |k| (probe >> k) & 1 != 0));
            let occs: Vec<usize> = (0..vals.len()).filter(|&i| vals[i] == probe).collect();
            for &pos in &[0usize, 1, 100, 1500, 3000] {
                let naive = occs.iter().filter(|&&p| p < pos).count();
                assert_eq!(wt.rank(s.as_bitstr(), pos), naive, "rank({probe},{pos})");
            }
            for k in (0..occs.len()).step_by(7) {
                assert_eq!(wt.select(s.as_bitstr(), k), Some(occs[k]));
            }
        }
        for &i in &[0usize, 1, 999, 2999] {
            assert_eq!(wt.access(i), seq[i], "access({i})");
        }
    }
}
