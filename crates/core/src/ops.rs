//! The public query interface shared by all Wavelet Trie variants.
//!
//! Two layers:
//!
//! * [`SeqIndex`] — the **object-safe** query surface (the paper's §1
//!   primitive list, Lemmas 3.2/3.3, and the §5 range algorithms). It is
//!   blanket-implemented for every type that knows how to navigate its trie
//!   ([`TrieNav`]) — the static, append-only and fully dynamic structures —
//!   and implemented directly by composite indexes such as the tiered
//!   store, so heterogeneous segments can sit behind `&dyn SeqIndex` /
//!   `Box<dyn SeqIndex>`.
//! * [`SequenceOps`] — a thin `Sized` extension adding the borrowing
//!   sequential iterators ([`RangeIter`] holds the concrete navigator
//!   type, so these methods cannot be object-safe).

use crate::nav::{self, TrieNav};
use crate::range::{self, RangeIter};
use wt_trie::{BitStr, BitString};

/// Object-safe queries over an indexed sequence of binary strings.
///
/// Positions are 0-based; `rank`-style bounds are exclusive (`[0, pos)`);
/// `select`-style indices are 0-based occurrence numbers.
///
/// Every method is dispatchable through `&dyn SeqIndex`, which is how the
/// tiered store treats its mixed static/dynamic segments.
pub trait SeqIndex {
    /// Number of strings in the sequence.
    fn seq_len(&self) -> usize;

    /// Whether the sequence is empty.
    fn seq_is_empty(&self) -> bool {
        self.seq_len() == 0
    }

    /// `Access(pos)`: the string at position `pos`.
    ///
    /// # Panics
    /// If `pos >= seq_len()`.
    fn access(&self, pos: usize) -> BitString;

    /// `Rank(s, pos)`: occurrences of `s` in positions `[0, pos)`.
    fn rank(&self, s: BitStr<'_>, pos: usize) -> usize;

    /// `Select(s, idx)`: position of the `idx`-th (0-based) occurrence of `s`.
    fn select(&self, s: BitStr<'_>, idx: usize) -> Option<usize>;

    /// `RankPrefix(p, pos)`: strings with prefix `p` in positions `[0, pos)`.
    fn rank_prefix(&self, p: BitStr<'_>, pos: usize) -> usize;

    /// `SelectPrefix(p, idx)`: position of the `idx`-th string with prefix `p`.
    fn select_prefix(&self, p: BitStr<'_>, idx: usize) -> Option<usize>;

    /// Total occurrences of `s`.
    fn count(&self, s: BitStr<'_>) -> usize {
        self.rank(s, self.seq_len())
    }

    /// Total strings with prefix `p`.
    fn count_prefix(&self, p: BitStr<'_>) -> usize {
        self.rank_prefix(p, self.seq_len())
    }

    /// Occurrences of `s` in `[l, r)` (range counting, §1).
    fn range_count(&self, s: BitStr<'_>, l: usize, r: usize) -> usize {
        assert!(l <= r, "range out of bounds");
        self.rank(s, r) - self.rank(s, l)
    }

    /// Strings with prefix `p` in `[l, r)`.
    fn range_count_prefix(&self, p: BitStr<'_>, l: usize, r: usize) -> usize {
        assert!(l <= r, "range out of bounds");
        self.rank_prefix(p, r) - self.rank_prefix(p, l)
    }

    /// Whether `s` could join the sequence without breaking the prefix-free
    /// invariant of §3: `s` must be neither a proper prefix of a stored
    /// string nor a proper extension of one (an exact duplicate is fine).
    fn admits(&self, s: BitStr<'_>) -> bool;

    /// Number of distinct strings (|Sset|).
    fn distinct_len(&self) -> usize;

    /// Trie height: max internal nodes on a root-to-leaf path.
    fn height(&self) -> usize;

    /// Average height `h̃` (Definition 3.4): total bitvector bits / n.
    fn avg_height(&self) -> f64 {
        if self.seq_len() == 0 {
            0.0
        } else {
            self.total_bitvector_bits() as f64 / self.seq_len() as f64
        }
    }

    /// Sum of all node bitvector lengths (= `h̃·n`, §3).
    fn total_bitvector_bits(&self) -> usize;

    /// Distinct strings of `S[l, r)` with counts, lexicographically (§5).
    fn distinct_in_range(&self, l: usize, r: usize) -> Vec<(BitString, usize)>;

    /// Distinct strings with prefix `p` in `S[l, r)` with counts (§5).
    fn distinct_in_range_with_prefix(
        &self,
        p: BitStr<'_>,
        l: usize,
        r: usize,
    ) -> Vec<(BitString, usize)>;

    /// Distinct `depth`-bit prefixes of `S[l, r)` with counts (§5
    /// stop-early enumeration; e.g. distinct hostnames in a time window).
    /// Strings shorter than `depth` are reported whole.
    fn distinct_prefixes_in_range(
        &self,
        l: usize,
        r: usize,
        depth: usize,
    ) -> Vec<(BitString, usize)>;

    /// Majority element of `S[l, r)` (> (r−l)/2 occurrences), if any (§5).
    fn range_majority(&self, l: usize, r: usize) -> Option<(BitString, usize)>;

    /// All strings occurring ≥ `min_count` times in `S[l, r)` (§5 heuristic).
    fn range_frequent(&self, l: usize, r: usize, min_count: usize) -> Vec<(BitString, usize)>;

    // --- batched queries ---------------------------------------------------
    //
    // Throughput entry points: resolve many *independent* queries per call
    // so a backend can overlap their memory latencies (each scalar static
    // descent is a chain of dependent cache misses; N interleaved descents
    // turn into ~depth rounds of overlapped misses). The defaults loop the
    // scalar operations — every implementation answers bit-identically to
    // the scalar API. The static trie and the tiered store override these.

    /// Batched [`SeqIndex::access`]: the strings at `positions`, in order.
    ///
    /// # Panics
    /// If any position is `>= seq_len()`.
    fn access_batch(&self, positions: &[usize]) -> Vec<BitString> {
        positions.iter().map(|&p| self.access(p)).collect()
    }

    /// Batched [`SeqIndex::rank`] over `(string, position)` queries.
    fn rank_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<usize> {
        queries.iter().map(|&(s, pos)| self.rank(s, pos)).collect()
    }

    /// Batched [`SeqIndex::select`] over `(string, occurrence idx)` queries.
    fn select_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<Option<usize>> {
        queries
            .iter()
            .map(|&(s, idx)| self.select(s, idx))
            .collect()
    }

    /// Batched [`SeqIndex::count_prefix`].
    fn count_prefix_batch(&self, prefixes: &[BitStr<'_>]) -> Vec<usize> {
        prefixes.iter().map(|&p| self.count_prefix(p)).collect()
    }

    /// Sequential iterator over `S[l, r)` (§5 "Sequential access"), boxed so
    /// it stays object-safe. `Sized` callers get the allocation-free
    /// [`SequenceOps::iter_range`] instead.
    fn iter_range_boxed(&self, l: usize, r: usize) -> Box<dyn Iterator<Item = BitString> + '_>;

    /// Boxed iterator over the whole sequence.
    fn iter_seq_boxed(&self) -> Box<dyn Iterator<Item = BitString> + '_> {
        self.iter_range_boxed(0, self.seq_len())
    }
}

impl<T: TrieNav> SeqIndex for T {
    fn seq_len(&self) -> usize {
        self.nav_len()
    }

    fn access(&self, pos: usize) -> BitString {
        nav::access(self, pos)
    }

    fn rank(&self, s: BitStr<'_>, pos: usize) -> usize {
        nav::rank(self, s, pos)
    }

    fn select(&self, s: BitStr<'_>, idx: usize) -> Option<usize> {
        nav::select(self, s, idx)
    }

    fn rank_prefix(&self, p: BitStr<'_>, pos: usize) -> usize {
        nav::rank_prefix(self, p, pos)
    }

    fn select_prefix(&self, p: BitStr<'_>, idx: usize) -> Option<usize> {
        nav::select_prefix(self, p, idx)
    }

    fn count(&self, s: BitStr<'_>) -> usize {
        nav::count(self, s)
    }

    fn count_prefix(&self, p: BitStr<'_>) -> usize {
        nav::count_prefix(self, p)
    }

    fn admits(&self, s: BitStr<'_>) -> bool {
        nav::admits(self, s)
    }

    fn distinct_len(&self) -> usize {
        nav::distinct_count(self)
    }

    fn height(&self) -> usize {
        nav::height(self)
    }

    fn total_bitvector_bits(&self) -> usize {
        nav::total_bitvector_bits(self)
    }

    fn distinct_in_range(&self, l: usize, r: usize) -> Vec<(BitString, usize)> {
        let mut out = Vec::new();
        range::distinct_in_range(self, l, r, &mut |s, c| out.push((s.clone(), c)));
        out
    }

    fn distinct_in_range_with_prefix(
        &self,
        p: BitStr<'_>,
        l: usize,
        r: usize,
    ) -> Vec<(BitString, usize)> {
        let mut out = Vec::new();
        range::distinct_in_range_with_prefix(self, p, l, r, &mut |s, c| out.push((s.clone(), c)));
        out
    }

    fn distinct_prefixes_in_range(
        &self,
        l: usize,
        r: usize,
        depth: usize,
    ) -> Vec<(BitString, usize)> {
        let mut out = Vec::new();
        range::distinct_prefixes_in_range(self, l, r, depth, &mut |s, c| out.push((s.clone(), c)));
        out
    }

    fn range_majority(&self, l: usize, r: usize) -> Option<(BitString, usize)> {
        range::range_majority(self, l, r)
    }

    fn range_frequent(&self, l: usize, r: usize, min_count: usize) -> Vec<(BitString, usize)> {
        let mut out = Vec::new();
        range::range_frequent(self, l, r, min_count, &mut |s, c| out.push((s.clone(), c)));
        out
    }

    fn access_batch(&self, positions: &[usize]) -> Vec<BitString> {
        self.nav_access_batch(positions)
    }

    fn rank_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<usize> {
        self.nav_rank_batch(queries)
    }

    fn select_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<Option<usize>> {
        self.nav_select_batch(queries)
    }

    fn count_prefix_batch(&self, prefixes: &[BitStr<'_>]) -> Vec<usize> {
        self.nav_count_prefix_batch(prefixes)
    }

    fn iter_range_boxed(&self, l: usize, r: usize) -> Box<dyn Iterator<Item = BitString> + '_> {
        Box::new(RangeIter::new(self, l, r))
    }
}

/// Borrowing sequential iterators over an indexed sequence; requires the
/// concrete navigator type (`Sized`), so it lives outside [`SeqIndex`].
pub trait SequenceOps: TrieNav + SeqIndex + Sized {
    /// Sequential iterator over `S[l, r)` (§5 "Sequential access").
    fn iter_range(&self, l: usize, r: usize) -> RangeIter<'_, Self> {
        RangeIter::new(self, l, r)
    }

    /// Iterator over the whole sequence.
    fn iter_seq(&self) -> RangeIter<'_, Self> {
        self.iter_range(0, self.nav_len())
    }

    /// Iterator over the `idx0`-th to `idx1`-th (exclusive) strings having
    /// prefix `p`, in sequence order.
    fn iter_prefix_matches(&self, p: BitStr<'_>, idx0: usize, idx1: usize) -> RangeIter<'_, Self> {
        RangeIter::new_with_prefix(self, p, idx0, idx1)
    }
}

impl<T: TrieNav> SequenceOps for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyn_wt::{AppendWaveletTrie, DynamicWaveletTrie};
    use crate::static_wt::WaveletTrie;

    fn bs(s: &str) -> BitString {
        BitString::parse(s)
    }

    /// The query surface must be usable through trait objects: one vector
    /// holding all three paper variants, queried uniformly.
    #[test]
    fn seq_index_is_object_safe() {
        let seq: Vec<BitString> = ["0001", "0011", "0100", "00100", "0100"]
            .iter()
            .map(|s| bs(s))
            .collect();
        let stat = WaveletTrie::build(&seq).unwrap();
        let mut app = AppendWaveletTrie::new();
        let mut dynamic = DynamicWaveletTrie::new();
        for s in &seq {
            app.append(s.as_bitstr()).unwrap();
            dynamic.append(s.as_bitstr()).unwrap();
        }
        let indexes: Vec<Box<dyn SeqIndex>> =
            vec![Box::new(stat), Box::new(app), Box::new(dynamic)];
        for idx in &indexes {
            assert_eq!(idx.seq_len(), 5);
            assert_eq!(idx.access(3), bs("00100"));
            assert_eq!(idx.rank(bs("0100").as_bitstr(), 5), 2);
            assert_eq!(idx.select(bs("0100").as_bitstr(), 1), Some(4));
            assert_eq!(idx.count_prefix(bs("00").as_bitstr()), 3);
            assert_eq!(idx.distinct_len(), 4);
            assert!(idx.admits(bs("0100").as_bitstr()));
            assert!(!idx.admits(bs("01").as_bitstr()));
            assert!(!idx.admits(bs("01000").as_bitstr()));
            let all: Vec<String> = idx.iter_seq_boxed().map(|s| s.to_string()).collect();
            assert_eq!(all, vec!["0001", "0011", "0100", "00100", "0100"]);
            let d = idx.distinct_in_range(0, 5);
            assert_eq!(d.len(), 4);
        }
    }

    #[test]
    fn admits_edge_cases() {
        let empty = WaveletTrie::build::<BitString>(&[]).unwrap();
        assert!(empty.admits(bs("").as_bitstr()));
        assert!(empty.admits(bs("0101").as_bitstr()));
        let single: Vec<BitString> = vec![bs("101")];
        let wt = WaveletTrie::build(&single).unwrap();
        assert!(wt.admits(bs("101").as_bitstr()));
        assert!(!wt.admits(bs("10").as_bitstr()));
        assert!(!wt.admits(bs("1011").as_bitstr()));
        assert!(wt.admits(bs("100").as_bitstr()));
        assert!(wt.admits(bs("0").as_bitstr()));
        assert!(!wt.admits(bs("").as_bitstr()));
    }
}
