//! Path-decomposed static trie — the cache-friendly twin of the static
//! Wavelet Trie (Grossi–Ottaviano, "Fast Compressed Tries through Path
//! Decompositions", applied to the Definition 3.1 binary trie).
//!
//! The binary wavelet trie pays one chain of dependent cache misses per
//! *bit-level* of the descent: internal-flag rank → three scattered
//! Elias–Fano probes → RRR rank, every level. On near-distinct
//! workloads (the 12M-key ints adversary) the trie is ~log n levels deep
//! and the scalar path is latency-bound.
//!
//! [`PathDecompTrie`] stores the *same* binary trie as a centroid path
//! decomposition: each decomposition node is one root-to-centroid-leaf
//! path; the branching steps of a path are laid out **consecutively** in
//! every directory (labels, branch directions, bitvector delimiters, the
//! RRR concatenation). A descent that stays on the heavy path therefore
//! reads consecutive directory entries — cache hits after the first — and
//! pays a scattered miss chain only when it leaves the path, which happens
//! O(log n) times regardless of depth. The node handle ([`PdNode`])
//! carries its resolved directory state, so the per-step work is one RRR
//! probe plus arithmetic.
//!
//! Every per-binary-node view (label α, bitvector β) is **bit-identical**
//! to the wavelet trie's, so the whole [`SeqIndex`](crate::SeqIndex)
//! surface — implemented once over [`TrieNav`] — answers identically;
//! `tests/pd_model.rs` pins this. Construction is a structural conversion
//! from the static wavelet trie (word-level copies, no string
//! re-emission), and [`PathDecompTrie::thaw`] melts back to the dynamic
//! trie for store compaction.

use crate::dyn_wt::{DynWaveletTrie, Node, WtBitVec};
use crate::nav::TrieNav;
use crate::static_wt::WaveletTrie;
use std::collections::VecDeque;
use wt_bits::persist::{kind, Archive, ArchiveWriter, LoadError, Persist};
use wt_bits::{BitAccess, BitRank, BitSelect, EliasFano, RawBitVec, RrrVector, SpaceUsage};
use wt_trie::{BitStr, BitString, PathSkeleton};

/// An immutable compressed indexed sequence of binary strings, stored as a
/// centroid path decomposition of the Definition 3.1 trie.
#[derive(Clone, Debug)]
pub struct PathDecompTrie {
    pub(crate) n: usize,
    /// BFS degree directory of the decomposition tree (one node per
    /// distinct string; degree = branching steps on the node's path).
    pub(crate) skeleton: PathSkeleton,
    /// Concatenated binary-node labels in `(path, step)` order.
    pub(crate) labels: RawBitVec,
    /// Prefix sums of label lengths (`2·paths` values).
    pub(crate) label_bounds: EliasFano,
    /// Heavy-branch direction per step, global step order.
    pub(crate) dirs: RawBitVec,
    /// Concatenated per-step bitvectors β, `(path, step)` order, RRR.
    pub(crate) bvs: RrrVector,
    /// Prefix sums of per-step bitvector lengths (`steps + 1` values).
    pub(crate) bv_bounds: EliasFano,
    /// Prefix sums of per-step ones counts (`steps + 1` values).
    pub(crate) bv_ones: EliasFano,
    /// `n·H0(S)` in bits (for the space report).
    nh0_bits: f64,
    /// Length of the root label.
    root_label_len: usize,
}

/// Handle to one *binary* trie node `(path, step)` with its directory
/// state resolved, so in-node operations never re-probe the directories.
#[derive(Clone, Copy, Debug)]
pub struct PdNode {
    /// Decomposition-tree node (BFS id).
    pub(crate) pd: usize,
    /// Step along the path, `0..=k`; `j == k` is the path's leaf.
    pub(crate) j: usize,
    /// Branching steps on this path (= children of `pd`).
    pub(crate) k: usize,
    /// Global index of this path's first step; also `first_child − 1` and
    /// `first_label − pd`.
    pub(crate) step_base: usize,
    /// Label arena bounds of this binary node's label α.
    pub(crate) lab_start: u64,
    pub(crate) lab_len: u64,
    /// β segment in the global RRR concatenation (valid when `j < k`).
    pub(crate) seg_start: u64,
    pub(crate) seg_len: u64,
    pub(crate) ones_before: u64,
}

impl PdNode {
    /// Global step id (valid when `j < k`).
    #[inline]
    pub(crate) fn step(&self) -> usize {
        self.step_base + self.j
    }
}

/// Raw BFS-order material of a path decomposition, assembled into the
/// succinct directories by [`PathDecompTrie::assemble`].
struct PdParts {
    pub n: usize,
    /// Per-path branching-step counts, BFS order.
    pub degrees: Vec<u64>,
    pub labels: RawBitVec,
    pub label_lens: Vec<u64>,
    pub dirs: RawBitVec,
    pub bv_concat: RawBitVec,
    pub bv_lens: Vec<u64>,
    pub bv_ones: Vec<u64>,
    pub nh0_bits: f64,
    pub root_label_len: usize,
}

impl PdParts {
    fn empty() -> Self {
        PdParts {
            n: 0,
            degrees: Vec::new(),
            labels: RawBitVec::new(),
            label_lens: Vec::new(),
            dirs: RawBitVec::new(),
            bv_concat: RawBitVec::new(),
            bv_lens: Vec::new(),
            bv_ones: Vec::new(),
            nh0_bits: 0.0,
            root_label_len: 0,
        }
    }
}

/// The decomposition walk: BFS over decomposition nodes; within each, the
/// heavy-path loop. Children are enqueued in step order, so BFS numbering
/// makes every node's children a consecutive id range (the
/// [`PathSkeleton`] invariant). The heavy child is the one holding the
/// *majority of occurrences* (centroid by subsequence count, ties to
/// branch 0), so a uniformly random occurrence leaves the path with
/// probability ≤ 1/2 per step and the decomposition tree has depth
/// O(log n) on every workload. The trie is read through its own
/// accessors, and its RRR concatenation is decoded to raw words once, so
/// every label and β copy is a word-level range copy.
fn build_parts(wt: &WaveletTrie) -> PdParts {
    let n = wt.len();
    let mut parts = PdParts::empty();
    parts.n = n;
    let Some(root) = wt.nav_root() else {
        return parts;
    };
    let raw = wt.bvs.to_raw();
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    queue.push_back((root, n));
    let mut first = true;
    while let Some((head, count)) = queue.pop_front() {
        let (mut v, mut m) = (head, count);
        let mut k = 0u64;
        loop {
            let (ls, le) = wt.label_range(v);
            parts.labels.extend_from_range(&wt.labels, ls, le - ls);
            parts.label_lens.push((le - ls) as u64);
            if first {
                parts.root_label_len = le - ls;
                first = false;
            }
            if wt.nav_is_leaf(v) {
                let c = m as f64;
                parts.nh0_bits += c * (n as f64 / c).log2();
                break;
            }
            let j = wt.bv_index(v);
            let (s, e) = wt.bv_bounds.get_pair(j);
            let (o0, o1) = wt.bv_ones.get_pair(j);
            let (len, ones) = ((e - s) as usize, (o1 - o0) as usize);
            debug_assert_eq!(len, m, "β length = subtree occurrence count");
            parts.bv_concat.extend_from_range(&raw, s as usize, len);
            parts.bv_lens.push(len as u64);
            parts.bv_ones.push(ones as u64);
            let heavy = 2 * ones > len;
            parts.dirs.push(heavy);
            let (light_m, heavy_m) = if heavy {
                (len - ones, ones)
            } else {
                (ones, len - ones)
            };
            queue.push_back((wt.nav_child(v, !heavy), light_m));
            v = wt.nav_child(v, heavy);
            m = heavy_m;
            k += 1;
        }
        parts.degrees.push(k);
    }
    parts
}

impl PathDecompTrie {
    /// Converts a static wavelet trie, structurally: one BFS walk with
    /// word-level label/bitvector copies (the RRR concatenation is decoded
    /// once up front). No string is re-emitted.
    pub fn from_static(wt: &WaveletTrie) -> Self {
        Self::from_static_with_threads(wt, 1)
    }

    /// [`PathDecompTrie::from_static`] with the succinct assembly spread
    /// over `threads` scoped worker threads (the chunk-parallel RRR
    /// encoding runs on a worker while the main thread builds the
    /// Elias–Fano directories). Bit-identical to the serial conversion.
    pub fn from_static_with_threads(wt: &WaveletTrie, threads: usize) -> Self {
        Self::assemble_with_threads(build_parts(wt), threads)
    }

    /// Builds from scratch via the static trie (conversion is structural,
    /// so this costs one extra assembly over `WaveletTrie::build`).
    pub fn build<S: std::borrow::Borrow<BitString>>(
        strings: &[S],
    ) -> Result<Self, wt_trie::PrefixFreeViolation> {
        Ok(Self::from_static(&WaveletTrie::build(strings)?))
    }

    /// Compresses BFS raw parts into the succinct directories, with the
    /// RRR encoding on a scoped worker thread when `threads > 1`, like
    /// `WaveletTrie::assemble_with_threads`.
    fn assemble_with_threads(parts: PdParts, threads: usize) -> Self {
        let PdParts {
            n,
            degrees,
            labels,
            label_lens,
            dirs,
            bv_concat,
            bv_lens,
            bv_ones,
            nh0_bits,
            root_label_len,
        } = parts;
        let threads = threads.max(1);
        let (bvs, skeleton, label_bounds, bv_bounds, bv_ones) = if threads == 1 {
            (
                RrrVector::new(&bv_concat),
                PathSkeleton::from_degrees(degrees.iter().copied()),
                EliasFano::prefix_sums(label_lens.iter().copied()),
                EliasFano::prefix_sums(bv_lens.iter().copied()),
                EliasFano::prefix_sums(bv_ones.iter().copied()),
            )
        } else {
            std::thread::scope(|s| {
                let t_bvs = s.spawn(|| RrrVector::from_raw_with_threads(&bv_concat, threads));
                let skeleton = PathSkeleton::from_degrees(degrees.iter().copied());
                let label_bounds = EliasFano::prefix_sums(label_lens.iter().copied());
                let bv_bounds = EliasFano::prefix_sums(bv_lens.iter().copied());
                let bv_ones = EliasFano::prefix_sums(bv_ones.iter().copied());
                (
                    t_bvs.join().expect("RRR build panicked"),
                    skeleton,
                    label_bounds,
                    bv_bounds,
                    bv_ones,
                )
            })
        };
        PathDecompTrie {
            n,
            skeleton,
            labels,
            label_bounds,
            dirs,
            bvs,
            bv_bounds,
            bv_ones,
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

    /// Number of decomposition-tree nodes (= distinct strings).
    #[inline]
    pub fn n_paths(&self) -> usize {
        self.skeleton.n_nodes()
    }

    /// `n·H0(S)` in bits.
    pub fn nh0_bits(&self) -> f64 {
        self.nh0_bits
    }

    /// Resolves the handle of binary node `(pd, j)` given the path's
    /// skeleton entry. The directory probes for consecutive steps of one
    /// path touch adjacent entries, so heavy-path descents stay in cache.
    #[inline]
    fn make_node(&self, pd: usize, j: usize, step_base: usize, k: usize) -> PdNode {
        let (ls, le) = self.label_bounds.get_pair(step_base + pd + j);
        let mut node = PdNode {
            pd,
            j,
            k,
            step_base,
            lab_start: ls,
            lab_len: le - ls,
            seg_start: 0,
            seg_len: 0,
            ones_before: 0,
        };
        if j < k {
            let f = step_base + j;
            let (bs, be) = self.bv_bounds.get_pair(f);
            node.seg_start = bs;
            node.seg_len = be - bs;
            node.ones_before = self.bv_ones.get(f);
        }
        node
    }

    /// The label of `v` as a borrowed view.
    #[inline]
    pub(crate) fn label_view(&self, v: &PdNode) -> BitStr<'_> {
        BitStr::new(&self.labels, v.lab_start as usize, v.lab_len as usize)
    }

    /// Melts into a dynamic wavelet trie (any backend), structurally.
    pub fn thaw<B: WtBitVec>(&self) -> DynWaveletTrie<B> {
        match self.nav_root() {
            None => DynWaveletTrie::new(),
            Some(root) => {
                let raw = self.bvs.to_raw();
                DynWaveletTrie {
                    root: Some(self.thaw_rec(root, &raw)),
                    len: self.n,
                }
            }
        }
    }

    fn thaw_rec<B: WtBitVec>(&self, v: PdNode, raw: &RawBitVec) -> Node<B> {
        let mut label = BitString::new();
        self.nav_label_append(v, &mut label);
        if self.nav_is_leaf(v) {
            Node::Leaf(label)
        } else {
            let (s, e) = (v.seg_start as usize, (v.seg_start + v.seg_len) as usize);
            let bv = B::wt_from_iter((s..e).map(|i| raw.get(i)));
            let children = [
                self.thaw_rec(self.nav_child(v, false), raw),
                self.thaw_rec(self.nav_child(v, true), raw),
            ];
            Node::Internal(Box::new(crate::dyn_wt::Internal {
                label,
                bv,
                children,
            }))
        }
    }

    /// Measured space of each component (experiment E16).
    pub fn space_breakdown(&self) -> PdSpaceBreakdown {
        let skeleton_bits = self.skeleton.size_bits();
        let label_bits = self.labels.len();
        let label_delim_bits = self.label_bounds.size_bits();
        let dir_bits = self.dirs.size_bits();
        let bv_bits = self.bvs.size_bits();
        let bv_delim_bits = self.bv_bounds.size_bits() + self.bv_ones.size_bits();
        let total_bits = self.labels.size_bits()
            + skeleton_bits
            + label_delim_bits
            + dir_bits
            + bv_bits
            + bv_delim_bits;
        PdSpaceBreakdown {
            n: self.n,
            distinct: self.n_paths(),
            skeleton_bits,
            label_bits,
            label_delim_bits,
            dir_bits,
            bv_bits,
            bv_delim_bits,
            total_bits,
            hn_bits: self.bvs.len(),
            nh0_bits: self.nh0_bits,
        }
    }
}

/// Measured space of each component of a [`PathDecompTrie`].
#[derive(Clone, Copy, Debug)]
pub struct PdSpaceBreakdown {
    pub n: usize,
    pub distinct: usize,
    /// BFS degree directory bits.
    pub skeleton_bits: usize,
    /// Raw concatenated label bits.
    pub label_bits: usize,
    /// Elias–Fano delimiters for labels.
    pub label_delim_bits: usize,
    /// Heavy-direction bits (one per step).
    pub dir_bits: usize,
    /// RRR-compressed bitvector bits (including directories).
    pub bv_bits: usize,
    /// Elias–Fano delimiters + ones directory for bitvectors.
    pub bv_delim_bits: usize,
    /// Total measured bits.
    pub total_bits: usize,
    /// `h̃·n`: total bitvector length (bits).
    pub hn_bits: usize,
    /// `n·H0(S)` (bits).
    pub nh0_bits: f64,
}

impl SpaceUsage for PathDecompTrie {
    fn size_bits(&self) -> usize {
        self.space_breakdown().total_bits
    }
}

impl TrieNav for PathDecompTrie {
    type Node<'a> = PdNode;

    #[inline]
    fn nav_root(&self) -> Option<PdNode> {
        if self.n == 0 {
            return None;
        }
        let (base, k) = self.skeleton.node(0);
        Some(self.make_node(0, 0, base, k))
    }

    #[inline]
    fn nav_len(&self) -> usize {
        self.n
    }

    #[inline]
    fn nav_is_leaf(&self, v: PdNode) -> bool {
        v.j == v.k
    }

    #[inline]
    fn nav_child(&self, v: PdNode, bit: bool) -> PdNode {
        debug_assert!(v.j < v.k, "nav_child on a leaf");
        let step = v.step();
        if bit == self.dirs.get(step) {
            // Heavy: next step of the same path — consecutive directory
            // entries, no skeleton probe.
            self.make_node(v.pd, v.j + 1, v.step_base, v.k)
        } else {
            // Light: jump to the child path hanging off this step.
            let c = step + 1;
            let (base, k) = self.skeleton.node(c);
            self.make_node(c, 0, base, k)
        }
    }

    #[inline]
    fn nav_label_len(&self, v: PdNode) -> usize {
        v.lab_len as usize
    }

    #[inline]
    fn nav_label_bit(&self, v: PdNode, i: usize) -> bool {
        debug_assert!((i as u64) < v.lab_len);
        self.labels.get(v.lab_start as usize + i)
    }

    #[inline]
    fn nav_label_lcp(&self, v: PdNode, s: BitStr<'_>) -> usize {
        self.label_view(&v).lcp(&s)
    }

    #[inline]
    fn nav_label_append(&self, v: PdNode, out: &mut BitString) {
        out.push_str(self.label_view(&v));
    }

    #[inline]
    fn nav_bv_len(&self, v: PdNode) -> usize {
        debug_assert!(v.j < v.k, "nav_bv_len on a leaf");
        v.seg_len as usize
    }

    #[inline]
    fn nav_bv_get(&self, v: PdNode, i: usize) -> bool {
        debug_assert!((i as u64) < v.seg_len);
        self.bvs.get(v.seg_start as usize + i)
    }

    #[inline]
    fn nav_bv_rank(&self, v: PdNode, bit: bool, i: usize) -> usize {
        debug_assert!((i as u64) <= v.seg_len);
        let r1 = self.bvs.rank1(v.seg_start as usize + i) - v.ones_before as usize;
        if bit {
            r1
        } else {
            i - r1
        }
    }

    #[inline]
    fn nav_bv_get_rank(&self, v: PdNode, i: usize) -> (bool, usize) {
        debug_assert!((i as u64) < v.seg_len);
        let (bit, r1) = self.bvs.get_rank1(v.seg_start as usize + i);
        let r1 = r1 - v.ones_before as usize;
        if bit {
            (true, r1)
        } else {
            (false, i - r1)
        }
    }

    #[inline]
    fn nav_bv_select(&self, v: PdNode, bit: bool, k: usize) -> Option<usize> {
        let s = v.seg_start as usize;
        let before = if bit {
            v.ones_before as usize
        } else {
            s - v.ones_before as usize
        };
        let p = self.bvs.select(bit, before + k)?;
        (p < s + v.seg_len as usize).then(|| p - s)
    }

    #[inline]
    fn nav_key(&self, v: PdNode) -> usize {
        // The global label-entry id: unique per binary node.
        v.step_base + v.pd + v.j
    }

    // Scalar overrides: the cursor descent of `pd_scalar` (heavy steps are
    // directory-cursor advances, light jumps one overlapped probe round,
    // rank/select chains prefetched from the structural descent).

    fn nav_access(&self, pos: usize) -> BitString {
        crate::pd_scalar::access(self, pos)
    }

    fn nav_rank(&self, s: BitStr<'_>, pos: usize) -> usize {
        crate::pd_scalar::rank(self, s, pos)
    }

    fn nav_select(&self, s: BitStr<'_>, idx: usize) -> Option<usize> {
        crate::pd_scalar::select(self, s, idx)
    }

    fn nav_count(&self, s: BitStr<'_>) -> usize {
        crate::pd_scalar::count(self, s)
    }

    fn nav_count_prefix(&self, p: BitStr<'_>) -> usize {
        crate::pd_scalar::count_prefix(self, p)
    }
}

// --- persistence -------------------------------------------------------------

/// Section tags of a path-decomposed-trie archive.
mod sec {
    pub const META: u32 = 0;
    pub const SKELETON: u32 = 1;
    pub const LABELS: u32 = 2;
    pub const LABEL_BOUNDS: u32 = 3;
    pub const DIRS: u32 = 4;
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

impl PathDecompTrie {
    /// Serializes to a versioned archive: one section per succinct
    /// component, each individually checksummed (see [`wt_bits::persist`]).
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut w = ArchiveWriter::new(kind::PATH_DECOMP);
        w.section(
            sec::META,
            vec![
                self.n as u64,
                self.nh0_bits.to_bits(),
                self.root_label_len as u64,
            ],
        );
        push_section(&mut w, sec::SKELETON, &self.skeleton);
        push_section(&mut w, sec::LABELS, &self.labels);
        push_section(&mut w, sec::LABEL_BOUNDS, &self.label_bounds);
        push_section(&mut w, sec::DIRS, &self.dirs);
        push_section(&mut w, sec::BVS, &self.bvs);
        push_section(&mut w, sec::BV_BOUNDS, &self.bv_bounds);
        push_section(&mut w, sec::BV_ONES, &self.bv_ones);
        w.finish()
    }

    /// Loads an archive written by [`PathDecompTrie::save_bytes`]:
    /// validate-then-view, O(bytes) with zero per-bit work.
    pub fn load_bytes(bytes: &[u8]) -> Result<Self, LoadError> {
        let a = Archive::parse(bytes, kind::PATH_DECOMP)?;
        let mut meta = a.section(sec::META)?;
        let n = meta.read_len()?;
        let nh0_bits = meta.read_f64()?;
        let root_label_len = meta.read_len()?;
        meta.finish()?;
        let skeleton: PathSkeleton = read_section(&a, sec::SKELETON)?;
        let labels: RawBitVec = read_section(&a, sec::LABELS)?;
        let label_bounds: EliasFano = read_section(&a, sec::LABEL_BOUNDS)?;
        let dirs: RawBitVec = read_section(&a, sec::DIRS)?;
        let bvs: RrrVector = read_section(&a, sec::BVS)?;
        let bv_bounds: EliasFano = read_section(&a, sec::BV_BOUNDS)?;
        let bv_ones: EliasFano = read_section(&a, sec::BV_ONES)?;
        // Cross-component invariants: O(1) directory probes that pin every
        // index computed on the query path inside bounds.
        let paths = skeleton.n_nodes();
        let steps = skeleton.total_steps();
        if (n == 0) != (paths == 0) {
            return Err(LoadError::Invalid("empty decomposition encoding"));
        }
        if paths > 0 && steps != paths - 1 {
            return Err(LoadError::Invalid("decomposition tree step count"));
        }
        if n < paths {
            return Err(LoadError::Invalid("fewer strings than paths"));
        }
        let label_entries = if paths == 0 { 0 } else { 2 * paths - 1 };
        if label_bounds.len() != label_entries + 1 {
            return Err(LoadError::Invalid("label delimiter count"));
        }
        if labels.len() as u64 != label_bounds.get(label_entries) {
            return Err(LoadError::Invalid("label concatenation length"));
        }
        if root_label_len > labels.len() {
            return Err(LoadError::Invalid("root label length"));
        }
        if dirs.len() != steps {
            return Err(LoadError::Invalid("direction bit count"));
        }
        if bv_bounds.len() != steps + 1 || bv_ones.len() != steps + 1 {
            return Err(LoadError::Invalid("bitvector delimiter count"));
        }
        if bvs.len() as u64 != bv_bounds.get(steps) {
            return Err(LoadError::Invalid("bitvector concatenation length"));
        }
        if bvs.count_ones() as u64 != bv_ones.get(steps) {
            return Err(LoadError::Invalid("bitvector ones directory"));
        }
        if !nh0_bits.is_finite() || nh0_bits < 0.0 {
            return Err(LoadError::Invalid("entropy metadata"));
        }
        Ok(PathDecompTrie {
            n,
            skeleton,
            labels,
            label_bounds,
            dirs,
            bvs,
            bv_bounds,
            bv_ones,
            nh0_bits,
            root_label_len,
        })
    }

    /// [`PathDecompTrie::save_bytes`] to a file, atomically.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        wt_bits::write_atomic(&wt_bits::FsStorage, path.as_ref(), &self.save_bytes())
    }

    /// [`PathDecompTrie::load_bytes`] from a file; errors are tagged with
    /// the offending path ([`LoadError::InFile`]).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, LoadError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| LoadError::from(e).in_file(path))?;
        Self::load_bytes(&bytes).map_err(|e| e.in_file(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{SeqIndex, SequenceOps};

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
    fn figure2_binary_views_match_wavelet_trie() {
        let seq = figure2_seq();
        let wt = WaveletTrie::build(&seq).unwrap();
        let pd = PathDecompTrie::from_static(&wt);
        assert_eq!(pd.len(), 7);
        assert_eq!(pd.distinct_len(), 4);
        assert_eq!(pd.n_paths(), 4);
        // Root binary node: α = "0", β = 0010101.
        let root = pd.nav_root().unwrap();
        let mut label = BitString::new();
        pd.nav_label_append(root, &mut label);
        assert_eq!(label.to_string(), "0");
        let beta: String = (0..pd.nav_bv_len(root))
            .map(|i| if pd.nav_bv_get(root, i) { '1' } else { '0' })
            .collect();
        assert_eq!(beta, "0010101");
        // 0100 occurs 3/7 times: branch 1 at the root is light (3 ≤ 4), so
        // the root path goes left.
        assert!(!pd.dirs.get(0));
        for (i, s) in seq.iter().enumerate() {
            assert_eq!(&pd.access(i), s, "access({i})");
        }
        for s in &seq {
            assert_eq!(pd.count(s.as_bitstr()), wt.count(s.as_bitstr()));
        }
        assert_eq!(pd.count_prefix(bs("00").as_bitstr()), 4);
        assert_eq!(pd.select_prefix(bs("00").as_bitstr(), 2), Some(3));
    }

    #[test]
    fn from_dynamic_matches_from_static() {
        let mut s = 0xD1CEu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let encode = |v: u64| BitString::from_bits((0..16).rev().map(move |k| (v >> k) & 1 != 0));
        let mut d = crate::dyn_wt::DynamicWaveletTrie::new();
        for _ in 0..800 {
            d.append(encode(next() % 4000).as_bitstr()).unwrap();
        }
        let wt = d.freeze();
        let rebuilt = WaveletTrie::from_bitstrings(d.iter_seq()).unwrap();
        let a = PathDecompTrie::from_static(&wt);
        let b = PathDecompTrie::from_static(&rebuilt);
        let c = PathDecompTrie::from_static_with_threads(&wt, 4);
        assert_eq!(a.save_bytes(), b.save_bytes(), "frozen vs rebuilt source");
        assert_eq!(a.save_bytes(), c.save_bytes(), "serial vs threaded");
        for i in (0..800).step_by(37) {
            assert_eq!(a.access(i), wt.access(i), "access({i})");
        }
    }

    #[test]
    fn empty_and_singletons() {
        let empty = PathDecompTrie::build::<BitString>(&[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.distinct_len(), 0);
        assert_eq!(empty.rank(bs("01").as_bitstr(), 0), 0);
        assert_eq!(empty.select(bs("01").as_bitstr(), 0), None);
        let one = PathDecompTrie::build(&vec![bs("1010"); 5]).unwrap();
        assert_eq!(one.len(), 5);
        assert_eq!(one.n_paths(), 1);
        assert_eq!(one.access(3).to_string(), "1010");
        assert_eq!(one.rank(bs("1010").as_bitstr(), 4), 4);
        assert_eq!(one.height(), 0);
        // Empty-string singleton.
        let e = PathDecompTrie::build(&[bs("")]).unwrap();
        assert_eq!(e.access(0), bs(""));
    }

    #[test]
    fn round_trips_to_static_and_dynamic() {
        let seq = figure2_seq();
        let wt = WaveletTrie::build(&seq).unwrap();
        let pd = PathDecompTrie::from_static(&wt);
        // PD → dynamic stays editable and answers identically.
        let mut melted: crate::dyn_wt::DynamicWaveletTrie = pd.thaw();
        for (i, s) in seq.iter().enumerate() {
            assert_eq!(&melted.access(i), s);
        }
        melted.insert(bs("11").as_bitstr(), 2).unwrap();
        assert_eq!(melted.len(), 8);
        assert_eq!(melted.access(2), bs("11"));
    }

    #[test]
    fn persist_round_trip_and_rejects() {
        let seq: Vec<BitString> = (0..300u32)
            .map(|i| BitString::from_bits((0..14).rev().map(move |k| ((i * 131) >> k) & 1 != 0)))
            .collect();
        let pd = PathDecompTrie::build(&seq).unwrap();
        let bytes = pd.save_bytes();
        let back = PathDecompTrie::load_bytes(&bytes).unwrap();
        for i in (0..seq.len()).step_by(17) {
            assert_eq!(back.access(i), pd.access(i));
        }
        assert_eq!(back.save_bytes(), bytes);
        // A wavelet-trie archive must be rejected by kind.
        let wt = WaveletTrie::build(&seq).unwrap();
        assert!(matches!(
            PathDecompTrie::load_bytes(&wt.save_bytes()),
            Err(LoadError::WrongKind { .. })
        ));
        // Truncation must be detected.
        assert!(PathDecompTrie::load_bytes(&bytes[..bytes.len() - 9]).is_err());
        // Flipped payload bits must be caught by section checksums.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(PathDecompTrie::load_bytes(&bad).is_err());
    }

    #[test]
    fn space_breakdown_sane() {
        let seq: Vec<BitString> = (0..500u32)
            .map(|i| {
                BitString::from_bits(
                    (0..20)
                        .rev()
                        .map(move |k| ((i as u64 * 2654435761) >> k) & 1 != 0),
                )
            })
            .collect();
        let wt = WaveletTrie::build(&seq).unwrap();
        let pd = PathDecompTrie::from_static(&wt);
        let sp = pd.space_breakdown();
        assert_eq!(sp.n, 500);
        assert_eq!(sp.distinct, wt.space_breakdown().distinct);
        assert_eq!(sp.hn_bits, wt.space_breakdown().hn_bits);
        assert!((sp.nh0_bits - wt.nh0_bits()).abs() < 1e-6);
        assert!(sp.total_bits > 0);
        // Same order of magnitude as the wavelet trie (same payload, the
        // directories differ).
        let wt_bits = wt.space_breakdown().total_bits as f64;
        assert!((sp.total_bits as f64) < 2.0 * wt_bits + 4096.0);
    }
}
