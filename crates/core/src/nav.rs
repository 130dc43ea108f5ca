//! Navigation abstraction shared by every Wavelet Trie variant, and the
//! query algorithms of §3 (Lemmas 3.2/3.3) implemented once on top of it.
//!
//! The static structure addresses nodes by level-order id, the dynamic
//! ones through node references. [`TrieNav`] hides the difference so
//! `Access`, `Rank`, `Select`, `RankPrefix`, `SelectPrefix` and all of
//! §5's range algorithms have a single implementation, tested across
//! backends.

use wt_trie::{BitStr, BitString};

/// Read-only navigation over a Wavelet Trie.
///
/// Internal nodes expose a label, a bitvector and two children; leaves only
/// a label (Definition 3.1).
pub trait TrieNav {
    /// Node handle (copyable; borrows from `self`).
    type Node<'a>: Copy
    where
        Self: 'a;

    /// The root, or `None` if the sequence is empty.
    fn nav_root(&self) -> Option<Self::Node<'_>>;

    /// Sequence length `n`.
    fn nav_len(&self) -> usize;

    /// Whether `v` is a leaf.
    fn nav_is_leaf<'a>(&'a self, v: Self::Node<'a>) -> bool;

    /// Child of internal node `v` on branch `bit`.
    fn nav_child<'a>(&'a self, v: Self::Node<'a>, bit: bool) -> Self::Node<'a>;

    /// Length of the label α of `v`.
    fn nav_label_len<'a>(&'a self, v: Self::Node<'a>) -> usize;

    /// Bit `i` of the label of `v`.
    fn nav_label_bit<'a>(&'a self, v: Self::Node<'a>, i: usize) -> bool;

    /// Longest common prefix length between the label of `v` and `s`.
    fn nav_label_lcp<'a>(&'a self, v: Self::Node<'a>, s: BitStr<'_>) -> usize;

    /// Appends the label of `v` to `out`.
    fn nav_label_append<'a>(&'a self, v: Self::Node<'a>, out: &mut BitString);

    /// Length of the bitvector β of internal node `v` (= size of the
    /// subsequence represented by `v`).
    fn nav_bv_len<'a>(&'a self, v: Self::Node<'a>) -> usize;

    /// Bit `i` of β.
    fn nav_bv_get<'a>(&'a self, v: Self::Node<'a>, i: usize) -> bool;

    /// Occurrences of `bit` in `β[0, i)`.
    fn nav_bv_rank<'a>(&'a self, v: Self::Node<'a>, bit: bool, i: usize) -> usize;

    /// `(β[i], rank_{β[i]}(β, i))` in one probe — the position-mapping step
    /// of every Access descent. Backends whose bitvectors can fuse the two
    /// queries override this.
    fn nav_bv_get_rank<'a>(&'a self, v: Self::Node<'a>, i: usize) -> (bool, usize) {
        let b = self.nav_bv_get(v, i);
        (b, self.nav_bv_rank(v, b, i))
    }

    /// Position of the `k`-th `bit` in β.
    fn nav_bv_select<'a>(&'a self, v: Self::Node<'a>, bit: bool, k: usize) -> Option<usize>;

    /// A key identifying `v` uniquely while the structure is unchanged
    /// (used by the sequential iterator's cursor table).
    fn nav_key<'a>(&'a self, v: Self::Node<'a>) -> usize;

    // --- batched queries ---------------------------------------------------
    //
    // Hooks behind the `SeqIndex::*_batch` surface. The defaults loop the
    // scalar algorithms below; the static trie, whose descents are chains
    // of cache misses, overrides them with a software-pipelined group
    // descent that advances all lanes level-by-level in lockstep.

    /// Batched `Access`: the strings at `positions`, in order.
    fn nav_access_batch(&self, positions: &[usize]) -> Vec<BitString>
    where
        Self: Sized,
    {
        positions.iter().map(|&p| access(self, p)).collect()
    }

    /// Batched `Rank` over `(string, position)` queries.
    fn nav_rank_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<usize>
    where
        Self: Sized,
    {
        queries.iter().map(|&(s, pos)| rank(self, s, pos)).collect()
    }

    /// Batched `Select` over `(string, occurrence index)` queries.
    fn nav_select_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<Option<usize>>
    where
        Self: Sized,
    {
        queries
            .iter()
            .map(|&(s, idx)| select(self, s, idx))
            .collect()
    }

    /// Batched `CountPrefix`.
    fn nav_count_prefix_batch(&self, prefixes: &[BitStr<'_>]) -> Vec<usize>
    where
        Self: Sized,
    {
        prefixes.iter().map(|&p| count_prefix(self, p)).collect()
    }
}

/// Entries a descent path keeps on the stack before spilling to the heap.
/// Covers every realistic trie height (one entry per *branching* ancestor),
/// so queries are allocation-free in the common case.
const INLINE_PATH: usize = 40;

/// The (ancestor, branch-bit) trail of a root-to-node descent.
///
/// A stack-allocated inline buffer with heap spill: `descend_exact` /
/// `descend_prefix` run once per query, and the per-query `Vec` they used
/// to build showed up as the last allocation in every static rank/select.
/// The inline slots stay uninitialised until written (`len` tracks
/// occupancy), so constructing a path costs nothing.
pub(crate) struct DescentPath<'a, T: TrieNav + 'a> {
    inline: [std::mem::MaybeUninit<(T::Node<'a>, bool)>; INLINE_PATH],
    len: usize,
    spill: Vec<(T::Node<'a>, bool)>,
}

impl<'a, T: TrieNav + 'a> DescentPath<'a, T> {
    pub(crate) fn new() -> Self {
        DescentPath {
            inline: [std::mem::MaybeUninit::uninit(); INLINE_PATH],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Entry `k`, which must be `< self.len`.
    #[inline]
    fn inline_entry(&self, k: usize) -> (T::Node<'a>, bool) {
        debug_assert!(k < self.len);
        // SAFETY: `len` only grows past a slot in `push` after writing it,
        // and entries are `Copy` (no drop obligations).
        unsafe { self.inline[k].assume_init() }
    }

    #[inline]
    pub(crate) fn push(&mut self, v: T::Node<'a>, b: bool) {
        if self.len < INLINE_PATH {
            self.inline[self.len].write((v, b));
            self.len += 1;
        } else {
            self.spill.push((v, b));
        }
    }

    /// The deepest (ancestor, branch) pair, if any.
    #[inline]
    pub(crate) fn last(&self) -> Option<(T::Node<'a>, bool)> {
        self.spill.last().copied().or(if self.len > 0 {
            Some(self.inline_entry(self.len - 1))
        } else {
            None
        })
    }

    /// Root-to-leaf order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (T::Node<'a>, bool)> + '_ {
        (0..self.len)
            .map(|k| self.inline_entry(k))
            .chain(self.spill.iter().copied())
    }

    /// Leaf-to-root order.
    pub(crate) fn iter_rev(&self) -> impl Iterator<Item = (T::Node<'a>, bool)> + '_ {
        self.spill
            .iter()
            .rev()
            .copied()
            .chain((0..self.len).rev().map(|k| self.inline_entry(k)))
    }
}

/// Result of descending towards a query string.
pub(crate) enum Descent<'a, T: TrieNav + 'a> {
    /// The string/prefix is represented: node, mapped position bounds
    /// unused here; path of (ancestor, branch bit) from root.
    Found {
        node: T::Node<'a>,
        path: DescentPath<'a, T>,
    },
    /// No stored string matches.
    Absent,
}

/// `Access(pos)` — Lemma 3.2: O(h_s) bitvector ranks.
pub(crate) fn access<T: TrieNav>(t: &T, pos: usize) -> BitString {
    assert!(pos < t.nav_len(), "Access position out of bounds");
    let mut out = BitString::new();
    let mut v = t.nav_root().expect("nonempty");
    let mut p = pos;
    loop {
        t.nav_label_append(v, &mut out);
        if t.nav_is_leaf(v) {
            return out;
        }
        let (b, mapped) = t.nav_bv_get_rank(v, p);
        out.push(b);
        p = mapped;
        v = t.nav_child(v, b);
    }
}

/// Descends consuming the *exact* string `s`; `Found` iff `s ∈ Sset`.
pub(crate) fn descend_exact<'a, T: TrieNav>(t: &'a T, s: BitStr<'_>) -> Descent<'a, T> {
    let mut v = match t.nav_root() {
        Some(v) => v,
        None => return Descent::Absent,
    };
    let mut delta = 0usize;
    let mut path = DescentPath::new();
    loop {
        let rest = s.suffix(delta);
        let l = t.nav_label_lcp(v, rest);
        if l < t.nav_label_len(v) {
            return Descent::Absent;
        }
        delta += l;
        if t.nav_is_leaf(v) {
            return if delta == s.len() {
                Descent::Found { node: v, path }
            } else {
                Descent::Absent
            };
        }
        if delta == s.len() {
            // s is a proper prefix of every string below: not an element.
            return Descent::Absent;
        }
        let b = s.get(delta);
        delta += 1;
        path.push(v, b);
        v = t.nav_child(v, b);
    }
}

/// Descends consuming the *prefix* `p`; `Found` gives the node `n_p` of
/// Lemma 3.3 whose subtree holds exactly the strings with prefix `p`.
pub(crate) fn descend_prefix<'a, T: TrieNav>(t: &'a T, p: BitStr<'_>) -> Descent<'a, T> {
    let mut v = match t.nav_root() {
        Some(v) => v,
        None => return Descent::Absent,
    };
    let mut delta = 0usize;
    let mut path = DescentPath::new();
    loop {
        let rest = p.suffix(delta);
        let l = t.nav_label_lcp(v, rest);
        delta += l;
        if delta == p.len() {
            // p exhausted (possibly mid-label): subtree of v is the match.
            return Descent::Found { node: v, path };
        }
        if l < t.nav_label_len(v) || t.nav_is_leaf(v) {
            return Descent::Absent;
        }
        let b = p.get(delta);
        delta += 1;
        path.push(v, b);
        v = t.nav_child(v, b);
    }
}

/// Maps a position downward through the recorded path.
fn map_down<'a, T: TrieNav>(t: &'a T, path: &DescentPath<'a, T>, pos: usize) -> usize {
    let mut p = pos;
    for (v, b) in path.iter() {
        p = t.nav_bv_rank(v, b, p);
    }
    p
}

/// `Rank(s, pos)` — occurrences of the exact string `s` in positions `[0, pos)`.
/// At `pos = n` that is [`count`], the size of `s`'s leaf, so the position
/// is not mapped down the path.
pub(crate) fn rank<T: TrieNav>(t: &T, s: BitStr<'_>, pos: usize) -> usize {
    assert!(pos <= t.nav_len(), "Rank position out of bounds");
    match descend_exact(t, s) {
        Descent::Absent => 0,
        Descent::Found { node, path } if pos == t.nav_len() => subtree_count(t, node, &path),
        Descent::Found { path, .. } => map_down(t, &path, pos),
    }
}

/// `RankPrefix(p, pos)` — strings with prefix `p` in positions `[0, pos)`
/// (Lemma 3.3).
pub(crate) fn rank_prefix<T: TrieNav>(t: &T, p: BitStr<'_>, pos: usize) -> usize {
    assert!(pos <= t.nav_len(), "RankPrefix position out of bounds");
    match descend_prefix(t, p) {
        Descent::Absent => 0,
        Descent::Found { path, .. } => map_down(t, &path, pos),
    }
}

/// Walks a mapped index back up through the path with selects.
fn map_up<'a, T: TrieNav>(t: &'a T, path: &DescentPath<'a, T>, idx: usize) -> Option<usize> {
    let mut i = idx;
    for (v, b) in path.iter_rev() {
        i = t.nav_bv_select(v, b, i)?;
    }
    Some(i)
}

/// Number of occurrences of the subtree rooted at `node` (given its path).
fn subtree_count<'a, T: TrieNav>(t: &'a T, node: T::Node<'a>, path: &DescentPath<'a, T>) -> usize {
    if !t.nav_is_leaf(node) {
        t.nav_bv_len(node)
    } else {
        match path.last() {
            Some((parent, b)) => t.nav_bv_rank(parent, b, t.nav_bv_len(parent)),
            None => t.nav_len(), // root leaf: the whole sequence
        }
    }
}

/// `Select(s, idx)` — position of the `idx`-th (0-based) occurrence of `s`.
pub(crate) fn select<T: TrieNav>(t: &T, s: BitStr<'_>, idx: usize) -> Option<usize> {
    match descend_exact(t, s) {
        Descent::Absent => None,
        Descent::Found { node, path } => {
            if idx >= subtree_count(t, node, &path) {
                return None;
            }
            map_up(t, &path, idx)
        }
    }
}

/// `SelectPrefix(p, idx)` — position of the `idx`-th string with prefix `p`.
pub(crate) fn select_prefix<T: TrieNav>(t: &T, p: BitStr<'_>, idx: usize) -> Option<usize> {
    match descend_prefix(t, p) {
        Descent::Absent => None,
        Descent::Found { node, path } => {
            if idx >= subtree_count(t, node, &path) {
                return None;
            }
            map_up(t, &path, idx)
        }
    }
}

/// Whether `s` can join the sequence without violating prefix-freeness
/// (§3): `s` must not be a proper prefix of a stored string, and no stored
/// string may be a proper prefix of `s`. Exact duplicates are admitted.
/// One descent, O(|s| + h_s).
pub(crate) fn admits<T: TrieNav>(t: &T, s: BitStr<'_>) -> bool {
    let mut v = match t.nav_root() {
        Some(v) => v,
        None => return true,
    };
    let mut delta = 0usize;
    loop {
        let rest = s.suffix(delta);
        let l = t.nav_label_lcp(v, rest);
        if l < t.nav_label_len(v) {
            // Mismatch (or exhaustion of s) strictly inside the label: fine
            // unless s ends here, which would make it a proper prefix.
            return delta + l < s.len();
        }
        delta += l;
        if t.nav_is_leaf(v) {
            // Reached a stored string: s must equal it exactly.
            return delta == s.len();
        }
        if delta == s.len() {
            // s is a proper prefix of every string below this node.
            return false;
        }
        let b = s.get(delta);
        delta += 1;
        v = t.nav_child(v, b);
    }
}

/// Number of occurrences of `s` in the whole sequence: the size of its
/// leaf, one probe of the parent's bitvector instead of one rank per level
/// to map `n` down the path.
pub(crate) fn count<T: TrieNav>(t: &T, s: BitStr<'_>) -> usize {
    match descend_exact(t, s) {
        Descent::Absent => 0,
        Descent::Found { node, path } => subtree_count(t, node, &path),
    }
}

/// Number of strings with prefix `p` in the whole sequence: the size of
/// the subtree where `p` ends, as in [`count`].
pub(crate) fn count_prefix<T: TrieNav>(t: &T, p: BitStr<'_>) -> usize {
    match descend_prefix(t, p) {
        Descent::Absent => 0,
        Descent::Found { node, path } => subtree_count(t, node, &path),
    }
}

/// Maximum number of internal nodes on any root-to-leaf path (trie height).
pub(crate) fn height<T: TrieNav>(t: &T) -> usize {
    fn rec<'a, T: TrieNav>(t: &'a T, v: T::Node<'a>) -> usize {
        if t.nav_is_leaf(v) {
            0
        } else {
            1 + rec(t, t.nav_child(v, false)).max(rec(t, t.nav_child(v, true)))
        }
    }
    t.nav_root().map_or(0, |r| rec(t, r))
}

/// Sum of all bitvector lengths = `h̃·n` (Definition 3.4 discussion).
pub(crate) fn total_bitvector_bits<T: TrieNav>(t: &T) -> usize {
    fn rec<'a, T: TrieNav>(t: &'a T, v: T::Node<'a>) -> usize {
        if t.nav_is_leaf(v) {
            0
        } else {
            t.nav_bv_len(v) + rec(t, t.nav_child(v, false)) + rec(t, t.nav_child(v, true))
        }
    }
    t.nav_root().map_or(0, |r| rec(t, r))
}

/// Number of distinct strings (leaves).
pub(crate) fn distinct_count<T: TrieNav>(t: &T) -> usize {
    fn rec<'a, T: TrieNav>(t: &'a T, v: T::Node<'a>) -> usize {
        if t.nav_is_leaf(v) {
            1
        } else {
            rec(t, t.nav_child(v, false)) + rec(t, t.nav_child(v, true))
        }
    }
    t.nav_root().map_or(0, |r| rec(t, r))
}
