//! Dynamic Wavelet Tries (§4 of the paper) — the main contribution: the
//! first compressed dynamic sequence with a **dynamic alphabet**.
//!
//! One generic engine [`DynWaveletTrie<B>`] implements the §4 algorithms —
//! insertion with node splitting and `Init` (Figure 3), deletion with node
//! merging — over any bitvector satisfying [`WtBitVec`]. It is instantiated
//! twice:
//!
//! * [`AppendWaveletTrie`] (Theorem 4.3): bitvectors are
//!   [`OffsetBitVec`] (append-only §4.1 bitvector + implicit-prefix `Init`);
//!   `Append` and queries in O(|s| + h_s).
//! * [`DynamicWaveletTrie`] (Theorem 4.4): bitvectors are
//!   [`DynamicBitVec`] (§4.2 RLE+γ); `Insert`/`Delete` and queries in
//!   O(|s| + h_s log n).

use crate::nav::{self, InlinePath, TrieNav};
use wt_bits::{BitAccess, BitSelect, DynamicBitVec, OffsetBitVec, RawBitVec, SpaceUsage};
use wt_trie::{BitStr, BitString, PrefixFreeViolation};

/// Bitvector interface required by the dynamic Wavelet Trie nodes: the
/// queries of [`BitSelect`] plus the constructors and the one mutation
/// the §4 algorithms need.
pub trait WtBitVec: Default + SpaceUsage + BitSelect {
    /// `Init(b, n)`: constant bitvector of `n` copies of `bit`
    /// (Remark 4.2: must not cost Ω(n)).
    fn wt_filled(bit: bool, n: usize) -> Self;
    /// Inserts `bit` at `i`. Append-only implementations support only
    /// `i == len` (which is the only position the append-only Wavelet Trie
    /// ever produces).
    fn wt_insert(&mut self, i: usize, bit: bool);
    /// Appends all bits to a raw bitvector — the bulk-export half of the
    /// structural freeze. Implementations should copy run- or word-wise
    /// where the representation allows it.
    fn wt_append_into(&self, out: &mut RawBitVec);
    /// Builds from a bit iterator — the bulk-import half of `thaw`.
    /// The default pushes one bit at a time; backends with a faster bulk
    /// constructor should override.
    fn wt_from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = Self::default();
        for b in iter {
            v.wt_insert(v.len(), b);
        }
        v
    }
}

/// Deletion support (fully dynamic bitvectors only).
pub trait WtBitVecRemove: WtBitVec {
    /// Removes and returns the bit at `i`.
    fn wt_remove(&mut self, i: usize) -> bool;
}

impl WtBitVec for OffsetBitVec {
    fn wt_filled(bit: bool, n: usize) -> Self {
        OffsetBitVec::filled(bit, n)
    }
    fn wt_insert(&mut self, i: usize, bit: bool) {
        assert_eq!(i, self.len(), "append-only bitvector: insert at end only");
        self.push(bit);
    }
    fn wt_append_into(&self, out: &mut RawBitVec) {
        self.append_into(out);
    }
}

impl WtBitVec for DynamicBitVec {
    fn wt_filled(bit: bool, n: usize) -> Self {
        DynamicBitVec::filled(bit, n)
    }
    fn wt_insert(&mut self, i: usize, bit: bool) {
        self.insert(i, bit);
    }
    fn wt_append_into(&self, out: &mut RawBitVec) {
        for b in self.iter() {
            out.push(b);
        }
    }
    fn wt_from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        DynamicBitVec::from_bits(iter)
    }
}

impl WtBitVecRemove for DynamicBitVec {
    fn wt_remove(&mut self, i: usize) -> bool {
        self.remove(i)
    }
}

/// A node label. One of at most 64 bits sits in one word beside its
/// length, so the splits of an insert allocate no label; a longer one
/// goes in one boxed word slice. [`BitString`] stays the API type: labels
/// convert at the trie's edges.
#[derive(Clone, Debug)]
pub(crate) enum Label {
    Inline {
        len: u8,
        bits: u64,
    },
    /// Word 0 is the length in bits; the bits follow, LSB-first.
    Boxed(Box<[u64]>),
}

impl Default for Label {
    fn default() -> Self {
        Label::Inline { len: 0, bits: 0 }
    }
}

/// The low `width <= 64` bits of `v`.
#[inline]
fn low_bits(v: u64, width: usize) -> u64 {
    if width == 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

impl Label {
    /// A label of `len` bits, read `chunk(i, width)` at a time.
    fn collect(len: usize, mut chunk: impl FnMut(usize, usize) -> u64) -> Label {
        if len <= 64 {
            let bits = if len == 0 { 0 } else { chunk(0, len) };
            return Label::Inline {
                len: len as u8,
                bits,
            };
        }
        let mut words = Vec::with_capacity(1 + len.div_ceil(64));
        words.push(len as u64);
        words.extend((0..len).step_by(64).map(|i| chunk(i, (len - i).min(64))));
        Label::Boxed(words.into_boxed_slice())
    }

    pub(crate) fn from_bitstr(s: BitStr<'_>) -> Label {
        Self::collect(s.len(), |i, w| s.get_bits(i, w))
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            Label::Inline { len, .. } => *len as usize,
            Label::Boxed(words) => words[0] as usize,
        }
    }

    /// The `width <= 64` bits from bit `i`, LSB-first.
    #[inline]
    fn get_bits(&self, i: usize, width: usize) -> u64 {
        debug_assert!(width <= 64 && i + width <= self.len());
        if width == 0 {
            return 0;
        }
        match self {
            Label::Inline { bits, .. } => low_bits(bits >> i, width),
            Label::Boxed(words) => {
                let (w, off) = (1 + i / 64, i % 64);
                let mut v = words[w] >> off;
                if off + width > 64 {
                    v |= words[w + 1] << (64 - off);
                }
                low_bits(v, width)
            }
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        assert!(i < self.len(), "label bit {i} out of bounds");
        self.get_bits(i, 1) != 0
    }

    /// Bits `start..start + len` as a label of their own.
    fn slice(&self, start: usize, len: usize) -> Label {
        Self::collect(len, |i, w| self.get_bits(start + i, w))
    }

    /// Length of the longest common prefix with `s`, a word at a time.
    #[inline]
    fn lcp(&self, s: BitStr<'_>) -> usize {
        let n = self.len().min(s.len());
        let mut i = 0;
        while i < n {
            let w = (n - i).min(64);
            let x = self.get_bits(i, w) ^ s.get_bits(i, w);
            if x != 0 {
                return i + x.trailing_zeros() as usize;
            }
            i += w;
        }
        n
    }

    /// The bits as `(word, width)` chunks, LSB-first.
    pub(crate) fn chunks(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let len = self.len();
        (0..len).step_by(64).map(move |i| {
            let w = (len - i).min(64);
            (self.get_bits(i, w), w)
        })
    }

    fn push_onto(&self, out: &mut BitString) {
        for (word, width) in self.chunks() {
            out.push_bits(word, width);
        }
    }

    /// `self · bit · tail`: the label of a node merged with its only child.
    fn join(&self, bit: bool, tail: &Label) -> Label {
        let head = self.len();
        Self::collect(head + 1 + tail.len(), |i, width| {
            // The chunk's part in `self`, then `bit`, then its part in `tail`.
            let from_head = head.saturating_sub(i).min(width);
            let mut v = self.get_bits(i.min(head), from_head);
            let mut k = from_head;
            if k < width && i + k == head {
                v |= (bit as u64) << k;
                k += 1;
            }
            if k < width {
                v |= tail.get_bits(i + k - head - 1, width - k) << k;
            }
            v
        })
    }

    /// Heap bits: none for an inline label.
    fn heap_bits(&self) -> usize {
        match self {
            Label::Inline { .. } => 0,
            Label::Boxed(words) => 64 * words.len(),
        }
    }
}

/// Internal-node payload, boxed so leaves stay two words and a tag: with
/// `|Sset| = Θ(n)` alphabets (common for URL logs) the per-leaf footprint
/// is a large part of the `PT = O(|Sset|·w)` term of Theorems 4.3/4.4.
#[derive(Clone, Debug)]
pub(crate) struct Internal<B> {
    pub(crate) label: Label,
    pub(crate) bv: B,
    pub(crate) children: [Node<B>; 2],
}

#[derive(Clone, Debug)]
pub(crate) enum Node<B> {
    Internal(Box<Internal<B>>),
    Leaf(Label),
}

// The append-only trie's node layout, pinned so that a later field cannot
// re-bloat the hot node unnoticed.
const _: () = {
    assert!(std::mem::size_of::<Node<OffsetBitVec>>() <= 24);
    assert!(std::mem::size_of::<Internal<OffsetBitVec>>() <= 128);
};

impl<B> Default for Node<B> {
    /// A leaf with the empty label: what a node slot holds while its node
    /// is moved under a new parent.
    fn default() -> Self {
        Node::Leaf(Label::default())
    }
}

impl<B> Node<B> {
    pub(crate) fn label(&self) -> &Label {
        match self {
            Node::Internal(i) => &i.label,
            Node::Leaf(label) => label,
        }
    }

    fn label_mut(&mut self) -> &mut Label {
        match self {
            Node::Internal(i) => &mut i.label,
            Node::Leaf(label) => label,
        }
    }
}

/// The dynamic Wavelet Trie engine (§4), generic over the node bitvector.
#[derive(Clone, Debug, Default)]
pub struct DynWaveletTrie<B: WtBitVec> {
    pub(crate) root: Option<Node<B>>,
    pub(crate) len: usize,
}

impl<B: WtBitVec> DynWaveletTrie<B> {
    /// An empty sequence.
    pub fn new() -> Self {
        DynWaveletTrie { root: None, len: 0 }
    }

    /// Sequence length n.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `Insert(s, pos)` (§4): inserts `s` immediately before position `pos`.
    ///
    /// # Errors
    /// [`PrefixFreeViolation`] if `s` would break prefix-freeness; the
    /// structure is unchanged in that case.
    ///
    /// # Panics
    /// If `pos > len()`, or (append-only backend) if `pos != len()`.
    pub fn insert(&mut self, s: BitStr<'_>, pos: usize) -> Result<(), PrefixFreeViolation> {
        assert!(pos <= self.len, "insert position out of bounds");
        let verdict = self.insert_checked(s, pos);
        // A stored `s` is admitted again, and a refused one left the trie
        // as it was, so the verdict must be what `admits` says now.
        debug_assert_eq!(verdict.is_ok(), nav::admits(self, s), "insert verdict");
        verdict
    }

    /// The insert in one descent: it checks prefix-freeness on the way
    /// down and collects each level's bitvector edit, then applies them
    /// only once `s` is admitted, so a refused insert changes nothing.
    fn insert_checked(&mut self, s: BitStr<'_>, pos: usize) -> Result<(), PrefixFreeViolation> {
        let Some(root) = self.root.as_mut() else {
            self.root = Some(Node::Leaf(Label::from_bitstr(s)));
            self.len = 1;
            return Ok(());
        };
        // (bitvector, position, bit) of each level passed.
        let mut edits = InlinePath::new();
        let mut node: &mut Node<B> = root;
        let mut delta = 0usize;
        let mut p = pos;
        // Number of strings in the current node's subsequence (pre-insert).
        let mut m = self.len;
        loop {
            let label = node.label();
            let l = label.lcp(s.suffix(delta));
            if l < label.len() {
                // s ends inside the label: a proper prefix of what is below.
                if delta + l == s.len() {
                    return Err(PrefixFreeViolation);
                }
                // Split (Figure 3): mismatch strictly inside the label.
                let new_bit = s.get(delta + l);
                let old_bit = label.get(l);
                debug_assert_ne!(new_bit, old_bit);
                let common = label.slice(0, l);
                let old_rest = label.slice(l + 1, label.len() - l - 1);
                let new_leaf = Node::Leaf(Label::from_bitstr(s.suffix(delta + l + 1)));
                // New internal node: constant bitvector Init(old_bit, m),
                // then the new string's bit at the mapped position.
                let mut bv = B::wt_filled(old_bit, m);
                bv.wt_insert(p, new_bit);
                let mut old = std::mem::take(node);
                *old.label_mut() = old_rest;
                let children = if new_bit {
                    [old, new_leaf]
                } else {
                    [new_leaf, old]
                };
                *node = Node::Internal(Box::new(Internal {
                    label: common,
                    bv,
                    children,
                }));
                break;
            }
            delta += l;
            match node {
                Node::Leaf(_) => {
                    // A stored string that is a proper prefix of s.
                    if delta < s.len() {
                        return Err(PrefixFreeViolation);
                    }
                    break; // an exact duplicate
                }
                Node::Internal(int) => {
                    // s is a proper prefix of every string below.
                    if delta == s.len() {
                        return Err(PrefixFreeViolation);
                    }
                    let Internal { bv, children, .. } = &mut **int;
                    debug_assert_eq!(m, bv.len());
                    let b = s.get(delta);
                    delta += 1;
                    let ones = bv.count_ones();
                    let child_count = if b { ones } else { m - ones };
                    // The mapped position is rank(b, p); at the end of the
                    // bitvector (every append) that is the child's count.
                    let mapped = if p == m { child_count } else { bv.rank(b, p) };
                    edits.push((bv, p, b));
                    p = mapped;
                    m = child_count;
                    node = &mut children[b as usize];
                }
            }
        }
        // `s` is admitted: only now does a path bitvector take its bit.
        edits.drain(|(bv, p, b): (&mut B, usize, bool)| bv.wt_insert(p, b));
        self.len += 1;
        Ok(())
    }

    /// `Append(s)`: inserts at the end (the Theorem 4.3 operation).
    pub fn append(&mut self, s: BitStr<'_>) -> Result<(), PrefixFreeViolation> {
        self.insert(s, self.len)
    }

    /// Checks the node tree against the sequence it indexes: the trie is
    /// empty exactly when it has no root, the root's bitvector has one
    /// bit per string, every internal node's bitvector has one bit per
    /// string of its subtree, and neither side of any bitvector is empty
    /// (an empty side would be a leaf no string reaches).
    pub fn check_invariants(&self) -> Result<(), &'static str> {
        let root = match &self.root {
            None if self.len == 0 => return Ok(()),
            Some(root) if self.len > 0 => root,
            _ => return Err("sequence length vs root"),
        };
        let mut stack = vec![(root, self.len)];
        while let Some((node, strings)) = stack.pop() {
            let Node::Internal(int) = node else {
                continue;
            };
            if int.bv.len() != strings {
                return Err("node bitvector length vs subtree strings");
            }
            let ones = int.bv.rank1(strings);
            if ones == 0 || ones == strings {
                return Err("node bitvector with an empty side");
            }
            stack.push((&int.children[0], strings - ones));
            stack.push((&int.children[1], ones));
        }
        Ok(())
    }

    /// Heap space of the whole structure in bits, split into the Patricia
    /// part (labels + pointers, the `PT`/`O(|Sset|w)` term) and the
    /// bitvector part (the `nH0` term).
    pub fn space_parts(&self) -> (usize, usize) {
        fn rec<B: WtBitVec>(n: &Node<B>) -> (usize, usize) {
            let slot = std::mem::size_of::<Node<B>>() * 8;
            match n {
                Node::Leaf(label) => (slot + label.heap_bits(), 0),
                Node::Internal(int) => {
                    // The box less what its bitvector and child slots
                    // count themselves: the label and any padding.
                    let heap = (std::mem::size_of::<Internal<B>>()
                        - std::mem::size_of::<B>()
                        - 2 * std::mem::size_of::<Node<B>>())
                        * 8;
                    let (p0, b0) = rec(&int.children[0]);
                    let (p1, b1) = rec(&int.children[1]);
                    (
                        slot + heap + int.label.heap_bits() + p0 + p1,
                        int.bv.size_bits() + b0 + b1,
                    )
                }
            }
        }
        self.root.as_ref().map_or((0, 0), |r| rec(r))
    }
}

impl<B: WtBitVec + SpaceUsage> SpaceUsage for DynWaveletTrie<B> {
    fn size_bits(&self) -> usize {
        let (pt, bv) = self.space_parts();
        pt + bv + 2 * 64
    }
}

impl<B: WtBitVecRemove> DynWaveletTrie<B> {
    /// `Delete(pos)` (§4): removes and returns the string at `pos`.
    ///
    /// # Panics
    /// If `pos >= len()`.
    pub fn delete(&mut self, pos: usize) -> BitString {
        assert!(pos < self.len, "delete position out of bounds");
        let mut out = BitString::new();
        let root = self.root.as_mut().expect("nonempty");
        Self::delete_rec(root, pos, &mut out);
        self.len -= 1;
        if self.len == 0 {
            self.root = None;
        }
        out
    }

    fn delete_rec(node: &mut Node<B>, pos: usize, out: &mut BitString) {
        node.label().push_onto(out);
        let (b, mapped) = match node {
            Node::Leaf(_) => return,
            Node::Internal(int) => {
                let b = int.bv.get(pos);
                let mapped = int.bv.rank(b, pos);
                int.bv.wt_remove(pos);
                (b, mapped)
            }
        };
        out.push(b);
        let merge_needed = match node {
            Node::Internal(int) => {
                Self::delete_rec(&mut int.children[b as usize], mapped, out);
                // Last occurrence of the leaf's string gone? (its side of the
                // bitvector became constant-empty)
                matches!(&int.children[b as usize], Node::Leaf(_))
                    && int.bv.rank(b, int.bv.len()) == 0
            }
            Node::Leaf(_) => unreachable!(),
        };
        if merge_needed {
            // Remove the dead leaf and splice the sibling into this node,
            // folding the branch bit into the label (Appendix B deletion).
            let int = match std::mem::take(node) {
                Node::Internal(int) => *int,
                Node::Leaf(_) => unreachable!(),
            };
            let Internal {
                label, children, ..
            } = int;
            let [c0, c1] = children;
            let mut sibling = if b { c0 } else { c1 };
            *sibling.label_mut() = label.join(!b, sibling.label());
            *node = sibling;
        }
    }
}

/// Opaque handle to a node of a dynamic Wavelet Trie (used by the generic
/// navigation/query layer).
pub struct NodeRef<'a, B: WtBitVec>(&'a Node<B>);

impl<B: WtBitVec> Clone for NodeRef<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B: WtBitVec> Copy for NodeRef<'_, B> {}

impl<B: WtBitVec> TrieNav for DynWaveletTrie<B> {
    type Node<'a>
        = NodeRef<'a, B>
    where
        B: 'a;

    #[inline]
    fn nav_root(&self) -> Option<NodeRef<'_, B>> {
        self.root.as_ref().map(NodeRef)
    }

    #[inline]
    fn nav_len(&self) -> usize {
        self.len
    }

    #[inline]
    fn nav_is_leaf<'a>(&'a self, v: NodeRef<'a, B>) -> bool {
        matches!(v.0, Node::Leaf(_))
    }

    #[inline]
    fn nav_child<'a>(&'a self, v: NodeRef<'a, B>, bit: bool) -> NodeRef<'a, B> {
        match v.0 {
            Node::Internal(int) => NodeRef(&int.children[bit as usize]),
            Node::Leaf(_) => panic!("nav_child on a leaf"),
        }
    }

    #[inline]
    fn nav_label_len<'a>(&'a self, v: NodeRef<'a, B>) -> usize {
        v.0.label().len()
    }

    #[inline]
    fn nav_label_bit<'a>(&'a self, v: NodeRef<'a, B>, i: usize) -> bool {
        v.0.label().get(i)
    }

    #[inline]
    fn nav_label_lcp<'a>(&'a self, v: NodeRef<'a, B>, s: BitStr<'_>) -> usize {
        v.0.label().lcp(s)
    }

    #[inline]
    fn nav_label_append<'a>(&'a self, v: NodeRef<'a, B>, out: &mut BitString) {
        v.0.label().push_onto(out);
    }

    #[inline]
    fn nav_bv_len<'a>(&'a self, v: NodeRef<'a, B>) -> usize {
        match v.0 {
            Node::Internal(int) => int.bv.len(),
            Node::Leaf(_) => panic!("nav_bv_len on a leaf"),
        }
    }

    #[inline]
    fn nav_bv_get<'a>(&'a self, v: NodeRef<'a, B>, i: usize) -> bool {
        match v.0 {
            Node::Internal(int) => int.bv.get(i),
            Node::Leaf(_) => panic!("nav_bv_get on a leaf"),
        }
    }

    #[inline]
    fn nav_bv_rank<'a>(&'a self, v: NodeRef<'a, B>, bit: bool, i: usize) -> usize {
        match v.0 {
            Node::Internal(int) => int.bv.rank(bit, i),
            Node::Leaf(_) => panic!("nav_bv_rank on a leaf"),
        }
    }

    #[inline]
    fn nav_bv_select<'a>(&'a self, v: NodeRef<'a, B>, bit: bool, k: usize) -> Option<usize> {
        match v.0 {
            Node::Internal(int) => int.bv.select(bit, k),
            Node::Leaf(_) => panic!("nav_bv_select on a leaf"),
        }
    }

    #[inline]
    fn nav_key<'a>(&'a self, v: NodeRef<'a, B>) -> usize {
        v.0 as *const Node<B> as usize
    }
}

/// The append-only Wavelet Trie of Theorem 4.3: `Append` and all queries in
/// O(|s| + h_s); space `LB + PT + o(h̃n)` bits.
pub type AppendWaveletTrie = DynWaveletTrie<OffsetBitVec>;

/// The fully dynamic Wavelet Trie of Theorem 4.4: `Insert`, `Delete` and all
/// queries in O(|s| + h_s log n); space `LB + PT + O(nH0)` bits.
pub type DynamicWaveletTrie = DynWaveletTrie<DynamicBitVec>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{SeqIndex, SequenceOps};
    use wt_workloads::xorshift;

    fn bs(s: &str) -> BitString {
        BitString::parse(s)
    }

    fn figure2_strs() -> Vec<&'static str> {
        vec!["0001", "0011", "0100", "00100", "0100", "00100", "0100"]
    }

    /// Naive mirror of the sequence for equivalence checking.
    fn check_equiv<B: WtBitVec>(wt: &DynWaveletTrie<B>, model: &[BitString]) {
        assert_eq!(wt.len(), model.len());
        assert_eq!(wt.check_invariants(), Ok(()));
        for (i, s) in model.iter().enumerate() {
            assert_eq!(&wt.access(i), s, "access({i})");
        }
        let mut distinct: Vec<&BitString> = model.iter().collect();
        distinct.sort();
        distinct.dedup();
        for s in distinct {
            let occs: Vec<usize> = (0..model.len()).filter(|&i| &model[i] == s).collect();
            for pos in 0..=model.len() {
                let naive = occs.iter().filter(|&&p| p < pos).count();
                assert_eq!(wt.rank(s.as_bitstr(), pos), naive, "rank({s},{pos})");
            }
            for (k, &p) in occs.iter().enumerate() {
                assert_eq!(wt.select(s.as_bitstr(), k), Some(p), "select({s},{k})");
            }
            assert_eq!(wt.select(s.as_bitstr(), occs.len()), None);
        }
        let iterated: Vec<BitString> = wt.iter_seq().collect();
        assert_eq!(&iterated, model, "sequential iteration");
    }

    #[test]
    fn append_only_figure2() {
        let mut wt = AppendWaveletTrie::new();
        let mut model = Vec::new();
        for s in figure2_strs() {
            wt.append(bs(s).as_bitstr()).unwrap();
            model.push(bs(s));
            check_equiv(&wt, &model);
        }
        assert_eq!(wt.distinct_len(), 4);
        // prefix ops
        assert_eq!(wt.count_prefix(bs("00").as_bitstr()), 4);
        assert_eq!(wt.select_prefix(bs("00").as_bitstr(), 3), Some(5));
    }

    #[test]
    fn check_invariants_flags_broken_tries() {
        let mut wt = DynamicWaveletTrie::new();
        assert_eq!(wt.check_invariants(), Ok(()));
        for s in figure2_strs() {
            wt.append(bs(s).as_bitstr()).unwrap();
        }
        assert_eq!(wt.check_invariants(), Ok(()));
        let mut rootless = wt.clone();
        rootless.root = None;
        assert_eq!(rootless.check_invariants(), Err("sequence length vs root"));
        let mut longer = wt.clone();
        longer.len += 1;
        let err = Err("node bitvector length vs subtree strings");
        assert_eq!(longer.check_invariants(), err);
        let (mut one_sided, mut moved) = (wt.clone(), wt.clone());
        let (Some(Node::Internal(all_ones)), Some(Node::Internal(flipped))) =
            (&mut one_sided.root, &mut moved.root)
        else {
            panic!("four distinct strings need an internal root");
        };
        all_ones.bv = DynamicBitVec::filled(true, 7);
        let err = Err("node bitvector with an empty side");
        assert_eq!(one_sided.check_invariants(), err);
        // Root bits 0010101: flipping the first moves a string from the
        // 0-subtree (an internal node over four strings) to the 1-leaf.
        let bits: Vec<bool> = (0..7).map(|i| flipped.bv.get(i) ^ (i == 0)).collect();
        flipped.bv = DynamicBitVec::from_bits(bits);
        let err = Err("node bitvector length vs subtree strings");
        assert_eq!(moved.check_invariants(), err);
    }

    #[test]
    fn figure3_split_shape() {
        // Insert a brand-new string and verify the split produced an
        // internal node with a constant bitvector + the new bit.
        let mut wt = DynamicWaveletTrie::new();
        for s in ["0001", "0001", "0011"] {
            wt.append(bs(s).as_bitstr()).unwrap();
        }
        // Root: label "00", the LCP of 0001 and 0011, and bitvector 001,
        // each string's branch bit after it.
        {
            let root = wt.nav_root().unwrap();
            let mut lab = BitString::new();
            wt.nav_label_append(root, &mut lab);
            assert_eq!(lab.to_string(), "00");
            assert_eq!(wt.nav_bv_len(root), 3);
        }
        // New string "0100" splits the root label "00" at offset 1.
        wt.insert(bs("0100").as_bitstr(), 1).unwrap();
        let root = wt.nav_root().unwrap();
        let mut lab = BitString::new();
        wt.nav_label_append(root, &mut lab);
        assert_eq!(lab.to_string(), "0");
        // Root bitvector: old strings get 0 (their next bit is '0'), the new
        // string got 1 at position 1: 0100 -> β = 0,1,0,0
        let beta: String = (0..4)
            .map(|i| if wt.nav_bv_get(root, i) { '1' } else { '0' })
            .collect();
        assert_eq!(beta, "0100");
        // Child 0 is the old node with label shortened to ε... its label was
        // "00": common="0", branch bit "0" consumed, rest = "" -> ε.
        let c0 = wt.nav_child(root, false);
        assert_eq!(wt.nav_label_len(c0), 0);
        // Child 1 is the new leaf with label "00" (0100 minus "0"+"1").
        let c1 = wt.nav_child(root, true);
        assert!(wt.nav_is_leaf(c1));
        let mut lab = BitString::new();
        wt.nav_label_append(c1, &mut lab);
        assert_eq!(lab.to_string(), "00");
        // And the old subtree's bitvector is unchanged under child 0.
        assert_eq!(wt.nav_bv_len(c0), 3);
    }

    #[test]
    fn dynamic_insert_at_positions() {
        let mut wt = DynamicWaveletTrie::new();
        let mut model: Vec<BitString> = Vec::new();
        let seq = ["0001", "0011", "0100", "00100"];
        // interleave inserts at front, middle, back
        for (i, s) in seq.iter().cycle().take(40).enumerate() {
            let pos = match i % 3 {
                0 => 0,
                1 => model.len() / 2,
                _ => model.len(),
            };
            wt.insert(bs(s).as_bitstr(), pos).unwrap();
            model.insert(pos, bs(s));
        }
        check_equiv(&wt, &model);
    }

    #[test]
    fn dynamic_delete_including_last_occurrence() {
        let mut wt = DynamicWaveletTrie::new();
        let mut model: Vec<BitString> = Vec::new();
        for s in figure2_strs() {
            wt.append(bs(s).as_bitstr()).unwrap();
            model.push(bs(s));
        }
        // Delete the single occurrence of 0011 (pos 1): trie must shrink.
        let before_distinct = wt.distinct_len();
        let removed = wt.delete(1);
        assert_eq!(removed.to_string(), "0011");
        model.remove(1);
        assert_eq!(wt.distinct_len(), before_distinct - 1);
        check_equiv(&wt, &model);
        // Delete one of several occurrences: alphabet unchanged.
        let removed = wt.delete(1); // "0100"
        assert_eq!(removed.to_string(), "0100");
        model.remove(1);
        assert_eq!(wt.distinct_len(), before_distinct - 1);
        check_equiv(&wt, &model);
        // Drain everything.
        while !model.is_empty() {
            let removed = wt.delete(0);
            let expect = model.remove(0);
            assert_eq!(removed, expect);
            check_equiv(&wt, &model);
        }
        assert!(wt.is_empty());
        // And we can start over.
        wt.append(bs("11").as_bitstr()).unwrap();
        assert_eq!(wt.access(0).to_string(), "11");
    }

    #[test]
    fn prefix_free_violations_leave_structure_intact() {
        let mut wt = DynamicWaveletTrie::new();
        wt.append(bs("0100").as_bitstr()).unwrap();
        wt.append(bs("0001").as_bitstr()).unwrap();
        let snapshot: Vec<BitString> = wt.iter_seq().collect();
        assert!(wt.insert(bs("01").as_bitstr(), 0).is_err());
        assert!(wt.insert(bs("01001").as_bitstr(), 2).is_err());
        assert!(wt.insert(bs("").as_bitstr(), 1).is_err());
        assert_eq!(wt.len(), 2);
        let after: Vec<BitString> = wt.iter_seq().collect();
        assert_eq!(snapshot, after, "failed inserts must not mutate");
    }

    /// Strings that part from one 400-bit spine at offsets 70, 135, 136,
    /// 150 and 300, with tails of 10–130 bits: a trie of depth 5 whose
    /// labels sit on both sides of 64 bits (internal 70, 64, 0, 13 and 149;
    /// leaves 10, 65, 3, 64, 130 and the spine's 99), each string twice.
    fn deep_long_labels() -> Vec<BitString> {
        let mut next = xorshift(0x1ABE_1564);
        let mut bits = |n: usize| BitString::from_bits((0..n).map(|_| next() & 1 != 0));
        let spine = bits(400);
        let mut seq = vec![spine.clone()];
        for (cut, tail) in [(70, 10), (135, 65), (136, 3), (150, 64), (300, 130)] {
            let mut s: BitString = spine.as_bitstr().prefix(cut).into();
            s.push(!spine.get(cut));
            s.push_str(bits(tail).as_bitstr());
            seq.push(s);
        }
        let again = seq.clone();
        seq.extend(again.into_iter().rev());
        seq
    }

    /// Refuses each kind of prefix-free violation at each of `positions`
    /// and checks that nothing changed: invariants, space and sequence.
    fn refusals_leave_trie_intact<B: WtBitVec>(mut wt: DynWaveletTrie<B>, positions: &[usize]) {
        let seq: Vec<BitString> = wt.iter_seq().collect();
        assert!(nav::height(&wt) >= 4, "depth {}", nav::height(&wt));
        let spine = &seq[0];
        let cut = |s: &BitString, len: usize| BitString::from(s.as_bitstr().prefix(len));
        let mut longer = spine.clone();
        longer.push_str(seq[5].as_bitstr());
        let mut one_more = seq[3].clone();
        one_more.push(true);
        let refused = [
            // Proper prefixes ending inside a label: the root's boxed one,
            // an inline one, a boxed leaf's and an inline leaf's.
            ("inside the root label", cut(spine, 40)),
            ("inside an inline label", cut(spine, 100)),
            ("inside a boxed leaf", cut(&seq[5], seq[5].len() - 7)),
            ("inside an inline leaf", cut(&seq[4], seq[4].len() - 1)),
            // Proper prefixes ending exactly at an internal node.
            ("at the root's branch", cut(spine, 70)),
            ("at an inner branch", cut(spine, 135)),
            ("at an empty-label branch", cut(spine, 136)),
            // Extensions of stored strings.
            ("extending the spine", longer),
            ("extending a leaf", one_more),
            ("the empty string", BitString::new()),
        ];
        let space = wt.space_parts();
        for (what, s) in &refused {
            for &pos in positions {
                assert!(wt.insert(s.as_bitstr(), pos).is_err(), "{what} at {pos}");
                assert_eq!(wt.check_invariants(), Ok(()), "{what} at {pos}");
                assert_eq!(wt.space_parts(), space, "{what} at {pos}");
                let after: Vec<BitString> = wt.iter_seq().collect();
                assert_eq!(after, seq, "{what} at {pos}");
            }
        }
        // The trie still takes admissible strings after the refusals.
        wt.insert(spine.as_bitstr(), wt.len()).unwrap();
        assert_eq!(wt.access(seq.len()), *spine);
    }

    #[test]
    fn refused_deep_inserts_change_nothing() {
        let seq = deep_long_labels();
        let (mut app, mut dynamic) = (AppendWaveletTrie::new(), DynamicWaveletTrie::new());
        for s in &seq {
            app.append(s.as_bitstr()).unwrap();
            dynamic.append(s.as_bitstr()).unwrap();
        }
        let n = seq.len();
        refusals_leave_trie_intact(app, &[n]);
        refusals_leave_trie_intact(dynamic, &[n, n / 2, 0]);
    }

    #[test]
    fn labels_across_the_inline_word() {
        let mut next = xorshift(0x0064_B175);
        for len in [0, 1, 63, 64, 65, 127, 128, 129, 200] {
            let s = BitString::from_bits((0..len).map(|_| next() & 1 != 0));
            let label = Label::from_bitstr(s.as_bitstr());
            assert_eq!(label.len(), len);
            assert_eq!(matches!(label, Label::Inline { .. }), len <= 64, "{len}");
            let mut back = BitString::new();
            label.push_onto(&mut back);
            assert_eq!(back, s, "{len}");
            assert_eq!(label.lcp(s.as_bitstr()), len);
            for at in [0, 1, 63, 64, 65, 128, len.saturating_sub(1)] {
                if at >= len {
                    continue;
                }
                assert_eq!(label.get(at), s.get(at));
                let mut other: BitString = s.as_bitstr().prefix(at).into();
                other.push(!s.get(at));
                assert_eq!(label.lcp(other.as_bitstr()), at, "{len} at {at}");
                let (head, tail) = (label.slice(0, at), label.slice(at + 1, len - at - 1));
                let joined = head.join(s.get(at), &tail);
                let mut rejoined = BitString::new();
                joined.push_onto(&mut rejoined);
                assert_eq!(rejoined, s, "{len} split and joined at {at}");
            }
        }
    }

    #[test]
    fn pseudorandom_ops_against_model() {
        let mut next = xorshift(0x00DD_BA11_5EED);
        let mut wt = DynamicWaveletTrie::new();
        let mut model: Vec<BitString> = Vec::new();
        // 10-bit fixed-width values over a 25-symbol alphabet.
        let encode = |v: u64| BitString::from_bits((0..10).rev().map(move |k| (v >> k) & 1 != 0));
        for step in 0..600 {
            let r = next() % 10;
            if model.is_empty() || r < 6 {
                let v = next() % 25;
                let pos = (next() % (model.len() as u64 + 1)) as usize;
                wt.insert(encode(v).as_bitstr(), pos).unwrap();
                model.insert(pos, encode(v));
            } else {
                let pos = (next() % model.len() as u64) as usize;
                let got = wt.delete(pos);
                let want = model.remove(pos);
                assert_eq!(got, want, "delete({pos}) at step {step}");
            }
            if step % 100 == 99 {
                check_equiv(&wt, &model);
            }
        }
        check_equiv(&wt, &model);
    }

    #[test]
    fn append_only_space_uses_offsets() {
        // A node created by a late split over a long history must be O(1)
        // space: the implicit prefix does the Init.
        let mut wt = AppendWaveletTrie::new();
        for _ in 0..10_000 {
            wt.append(bs("0000000001").as_bitstr()).unwrap();
        }
        let (pt_before, bv_before) = wt.space_parts();
        wt.append(bs("0000000010").as_bitstr()).unwrap();
        let (pt_after, bv_after) = wt.space_parts();
        // The split added one internal node + leaf (O(w) each: two Node
        // structs of a few hundred bytes) and an O(1) offset bitvector,
        // not a 10k-bit payload.
        assert!(
            pt_after - pt_before < 16 * 1024,
            "PT grew by {}",
            pt_after - pt_before
        );
        assert!(
            bv_after - bv_before < 16 * 1024,
            "BV grew by {}",
            bv_after - bv_before
        );
        assert_eq!(wt.count(bs("0000000010").as_bitstr()), 1);
        assert_eq!(wt.count(bs("0000000001").as_bitstr()), 10_000);
    }

    #[test]
    fn range_ops_work_on_dynamic() {
        let mut wt = DynamicWaveletTrie::new();
        for s in figure2_strs() {
            wt.append(bs(s).as_bitstr()).unwrap();
        }
        let d = wt.distinct_in_range(2, 6);
        let strs: Vec<(String, usize)> = d.iter().map(|(s, c)| (s.to_string(), *c)).collect();
        assert_eq!(strs, vec![("00100".into(), 2), ("0100".into(), 2)]);
        assert_eq!(wt.range_majority(2, 7).unwrap().0.to_string(), "0100");
        let pm: Vec<String> = wt
            .iter_prefix_matches(bs("00").as_bitstr(), 0, 4)
            .map(|s| s.to_string())
            .collect();
        assert_eq!(pm, vec!["0001", "0011", "00100", "00100"]);
        let d = wt.distinct_in_range_with_prefix(bs("00").as_bitstr(), 0, 7);
        let strs: Vec<(String, usize)> = d.iter().map(|(s, c)| (s.to_string(), *c)).collect();
        assert_eq!(
            strs,
            vec![("0001".into(), 1), ("00100".into(), 2), ("0011".into(), 1)]
        );
    }
}
