//! The merged-query engine: every read of a tiered sequence — live
//! ([`TieredStore`](crate::TieredStore)) or frozen
//! ([`StoreSnapshot`](crate::StoreSnapshot)) — is the same computation
//! over a slice of segments and a total length. [`SegmentedRead`] holds
//! that computation once as default methods; the two readers implement the
//! two accessors and inherit the rest, and
//! [`impl_seq_index_for_segmented!`] turns the engine into a [`SeqIndex`]
//! impl so both answer bit-identically to a monolithic Wavelet Trie over
//! the concatenated sequence.

use std::collections::BTreeMap;

use wavelet_trie::SeqIndex;
use wt_trie::{BitStr, BitString};

use crate::Segment;

/// Internal read-side view of a segmented sequence. `rank`/`count` sum
/// across segments, `select` walks segment counts with early exit, and the
/// §5 analytics (distinct values, majority, frequent) combine per-segment
/// results exactly; see the crate docs for the architecture.
pub(crate) trait SegmentedRead {
    /// The segments, in sequence order.
    fn segments(&self) -> &[Segment];

    /// Total number of strings across the segments.
    fn total_len(&self) -> usize;

    // --- position routing ----------------------------------------------------

    /// Maps a global position (`< total_len`) to `(segment, local offset)`
    /// by walking the segment lengths; empty segments own no position.
    fn locate(&self, pos: usize) -> (usize, usize) {
        debug_assert!(pos < self.total_len());
        let mut off = pos;
        for (i, g) in self.segments().iter().enumerate() {
            let l = g.len();
            if off < l {
                return (i, off);
            }
            off -= l;
        }
        unreachable!("position {pos} beyond the segments' total length")
    }

    /// `(segment, local l, local r)` for every segment overlapping the
    /// global range `[l, r)`.
    fn overlaps(&self, l: usize, r: usize) -> Vec<(usize, usize, usize)> {
        assert!(l <= r && r <= self.total_len(), "range out of bounds");
        let mut out = Vec::new();
        let mut start = 0usize;
        for (i, g) in self.segments().iter().enumerate() {
            let end = start + g.len();
            if end > l && start < r {
                out.push((i, l.max(start) - start, r.min(end) - start));
            }
            start = end;
            if start >= r {
                break;
            }
        }
        out
    }

    /// Merges per-segment `(string, count)` lists (each lexicographically
    /// sorted) into one, summing counts of equal strings.
    fn merge_counts(
        &self,
        l: usize,
        r: usize,
        per_segment: impl Fn(&dyn SeqIndex, usize, usize) -> Vec<(BitString, usize)>,
    ) -> Vec<(BitString, usize)> {
        let mut merged: BTreeMap<BitString, usize> = BTreeMap::new();
        for (i, lo, hi) in self.overlaps(l, r) {
            for (s, c) in per_segment(self.segments()[i].index(), lo, hi) {
                *merged.entry(s).or_insert(0) += c;
            }
        }
        // BitString's Ord is lexicographic with prefixes first — the same
        // order a single trie's traversal emits.
        merged.into_iter().collect()
    }

    // --- point queries -------------------------------------------------------

    fn m_access(&self, pos: usize) -> BitString {
        assert!(pos < self.total_len(), "Access position out of bounds");
        let (seg, off) = self.locate(pos);
        self.segments()[seg].index().access(off)
    }

    fn m_rank(&self, s: BitStr<'_>, pos: usize) -> usize {
        assert!(pos <= self.total_len(), "Rank position out of bounds");
        let mut acc = 0usize;
        let mut remaining = pos;
        for g in self.segments() {
            if remaining == 0 {
                break;
            }
            let l = g.len();
            if remaining >= l {
                acc += g.index().count(s);
                remaining -= l;
            } else {
                acc += g.index().rank(s, remaining);
                break;
            }
        }
        acc
    }

    fn m_select(&self, s: BitStr<'_>, idx: usize) -> Option<usize> {
        let mut idx = idx;
        let mut base = 0usize;
        for g in self.segments() {
            let c = g.index().count(s);
            if idx < c {
                return g.index().select(s, idx).map(|p| base + p);
            }
            idx -= c;
            base += g.len();
        }
        None
    }

    fn m_rank_prefix(&self, p: BitStr<'_>, pos: usize) -> usize {
        assert!(pos <= self.total_len(), "RankPrefix position out of bounds");
        let mut acc = 0usize;
        let mut remaining = pos;
        for g in self.segments() {
            if remaining == 0 {
                break;
            }
            let l = g.len();
            if remaining >= l {
                acc += g.index().count_prefix(p);
                remaining -= l;
            } else {
                acc += g.index().rank_prefix(p, remaining);
                break;
            }
        }
        acc
    }

    fn m_select_prefix(&self, p: BitStr<'_>, idx: usize) -> Option<usize> {
        let mut idx = idx;
        let mut base = 0usize;
        for g in self.segments() {
            let c = g.index().count_prefix(p);
            if idx < c {
                return g.index().select_prefix(p, idx).map(|q| base + q);
            }
            idx -= c;
            base += g.len();
        }
        None
    }

    fn m_admits(&self, s: BitStr<'_>) -> bool {
        self.segments().iter().all(|g| g.admits(s))
    }

    // --- §5 analytics --------------------------------------------------------

    fn m_distinct_len(&self) -> usize {
        if self.total_len() == 0 {
            return 0;
        }
        self.merge_counts(0, self.total_len(), |g, lo, hi| g.distinct_in_range(lo, hi))
            .len()
    }

    fn m_height(&self) -> usize {
        self.segments()
            .iter()
            .map(|g| g.index().height())
            .max()
            .unwrap_or(0)
    }

    fn m_total_bitvector_bits(&self) -> usize {
        self.segments()
            .iter()
            .map(|g| g.index().total_bitvector_bits())
            .sum()
    }

    fn m_distinct_in_range(&self, l: usize, r: usize) -> Vec<(BitString, usize)> {
        self.merge_counts(l, r, |g, lo, hi| g.distinct_in_range(lo, hi))
    }

    fn m_distinct_in_range_with_prefix(
        &self,
        p: BitStr<'_>,
        l: usize,
        r: usize,
    ) -> Vec<(BitString, usize)> {
        self.merge_counts(l, r, |g, lo, hi| g.distinct_in_range_with_prefix(p, lo, hi))
    }

    fn m_distinct_prefixes_in_range(
        &self,
        l: usize,
        r: usize,
        depth: usize,
    ) -> Vec<(BitString, usize)> {
        self.merge_counts(l, r, |g, lo, hi| {
            g.distinct_prefixes_in_range(lo, hi, depth)
        })
    }

    fn m_range_majority(&self, l: usize, r: usize) -> Option<(BitString, usize)> {
        assert!(l <= r && r <= self.total_len(), "range out of bounds");
        if l == r {
            return None;
        }
        // Pigeonhole: a global majority of [l, r) must be a majority of at
        // least one overlapped part, so per-part majorities are the only
        // candidates; verify each against the merged count.
        let total = r - l;
        for (i, lo, hi) in self.overlaps(l, r) {
            if let Some((cand, _)) = self.segments()[i].index().range_majority(lo, hi) {
                let c = self.m_rank(cand.as_bitstr(), r) - self.m_rank(cand.as_bitstr(), l);
                if 2 * c > total {
                    return Some((cand, c));
                }
            }
        }
        None
    }

    fn m_range_frequent(&self, l: usize, r: usize, min_count: usize) -> Vec<(BitString, usize)> {
        assert!(l <= r && r <= self.total_len(), "range out of bounds");
        let min_count = min_count.max(1);
        if r - l < min_count {
            return Vec::new();
        }
        // A string can clear the threshold globally while staying below it
        // in every segment, so enumerate distinct values and filter.
        self.merge_counts(l, r, |g, lo, hi| g.distinct_in_range(lo, hi))
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .collect()
    }

    fn m_iter_range_boxed(&self, l: usize, r: usize) -> Box<dyn Iterator<Item = BitString> + '_>
    where
        Self: Sized,
    {
        let parts = self.overlaps(l, r);
        Box::new(
            parts
                .into_iter()
                .flat_map(move |(i, lo, hi)| self.segments()[i].index().iter_range_boxed(lo, hi)),
        )
    }

    // --- batched queries -----------------------------------------------------
    //
    // A batch is routed lane by lane through `locate` and dispatched as one
    // sub-batch per segment, so wavelet-trie segments run their
    // software-pipelined group descent over every lane that lands in them
    // instead of per-lane dispatch.

    fn m_access_batch(&self, positions: &[usize]) -> Vec<BitString> {
        for &p in positions {
            assert!(p < self.total_len(), "Access position out of bounds");
        }
        let mut out: Vec<BitString> = vec![BitString::new(); positions.len()];
        let routed: Vec<(usize, usize)> = positions.iter().map(|&p| self.locate(p)).collect();
        let mut by_seg: Vec<Vec<u32>> = vec![Vec::new(); self.segments().len()];
        for (lane, &(seg, _)) in routed.iter().enumerate() {
            by_seg[seg].push(lane as u32);
        }
        for (si, lanes) in by_seg.iter().enumerate() {
            if lanes.is_empty() {
                continue;
            }
            let locals: Vec<usize> = lanes.iter().map(|&l| routed[l as usize].1).collect();
            let res = self.segments()[si].index().access_batch(&locals);
            for (r, &l) in res.into_iter().zip(lanes) {
                out[l as usize] = r;
            }
        }
        out
    }

    fn m_rank_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<usize> {
        for &(_, pos) in queries {
            assert!(pos <= self.total_len(), "Rank position out of bounds");
        }
        let mut acc = vec![0usize; queries.len()];
        let mut start = 0usize;
        let mut sub: Vec<(BitStr<'_>, usize)> = Vec::new();
        let mut lanes: Vec<u32> = Vec::new();
        for g in self.segments() {
            let l = g.len();
            sub.clear();
            lanes.clear();
            for (k, &(s, pos)) in queries.iter().enumerate() {
                if pos > start {
                    sub.push((s, (pos - start).min(l)));
                    lanes.push(k as u32);
                }
            }
            if sub.is_empty() {
                break; // positions are exhausted for every lane
            }
            for (r, &k) in g.index().rank_batch(&sub).into_iter().zip(&lanes) {
                acc[k as usize] += r;
            }
            start += l;
        }
        acc
    }

    fn m_select_batch(&self, queries: &[(BitStr<'_>, usize)]) -> Vec<Option<usize>> {
        let mut res = vec![None; queries.len()];
        let mut remaining: Vec<usize> = queries.iter().map(|&(_, idx)| idx).collect();
        let mut unresolved: Vec<u32> = (0..queries.len() as u32).collect();
        let mut base = 0usize;
        for g in self.segments() {
            if unresolved.is_empty() {
                break;
            }
            // Occurrences of each unresolved lane's string in this segment.
            let sub: Vec<(BitStr<'_>, usize)> = unresolved
                .iter()
                .map(|&k| (queries[k as usize].0, g.len()))
                .collect();
            let counts = g.index().rank_batch(&sub);
            let mut here: Vec<u32> = Vec::new();
            let mut here_q: Vec<(BitStr<'_>, usize)> = Vec::new();
            let mut keep: Vec<u32> = Vec::new();
            for (j, &k) in unresolved.iter().enumerate() {
                if remaining[k as usize] < counts[j] {
                    here.push(k);
                    here_q.push((queries[k as usize].0, remaining[k as usize]));
                } else {
                    remaining[k as usize] -= counts[j];
                    keep.push(k);
                }
            }
            if !here_q.is_empty() {
                for (r, &k) in g.index().select_batch(&here_q).into_iter().zip(&here) {
                    res[k as usize] = r.map(|p| base + p);
                }
            }
            unresolved = keep;
            base += g.len();
        }
        res
    }

    fn m_count_prefix_batch(&self, prefixes: &[BitStr<'_>]) -> Vec<usize> {
        let mut acc = vec![0usize; prefixes.len()];
        for g in self.segments() {
            for (a, c) in acc.iter_mut().zip(g.index().count_prefix_batch(prefixes)) {
                *a += c;
            }
        }
        acc
    }
}

/// Implements [`SeqIndex`] for a [`SegmentedRead`] type by delegating
/// every method to the shared engine — one query implementation, two
/// readers, bit-identical answers.
macro_rules! impl_seq_index_for_segmented {
    ($ty:ty) => {
        impl wavelet_trie::SeqIndex for $ty {
            fn seq_len(&self) -> usize {
                $crate::merged::SegmentedRead::total_len(self)
            }

            fn access(&self, pos: usize) -> wt_trie::BitString {
                self.m_access(pos)
            }

            fn rank(&self, s: wt_trie::BitStr<'_>, pos: usize) -> usize {
                self.m_rank(s, pos)
            }

            fn select(&self, s: wt_trie::BitStr<'_>, idx: usize) -> Option<usize> {
                self.m_select(s, idx)
            }

            fn rank_prefix(&self, p: wt_trie::BitStr<'_>, pos: usize) -> usize {
                self.m_rank_prefix(p, pos)
            }

            fn select_prefix(&self, p: wt_trie::BitStr<'_>, idx: usize) -> Option<usize> {
                self.m_select_prefix(p, idx)
            }

            fn admits(&self, s: wt_trie::BitStr<'_>) -> bool {
                self.m_admits(s)
            }

            fn distinct_len(&self) -> usize {
                self.m_distinct_len()
            }

            fn height(&self) -> usize {
                self.m_height()
            }

            fn total_bitvector_bits(&self) -> usize {
                self.m_total_bitvector_bits()
            }

            fn distinct_in_range(&self, l: usize, r: usize) -> Vec<(wt_trie::BitString, usize)> {
                self.m_distinct_in_range(l, r)
            }

            fn distinct_in_range_with_prefix(
                &self,
                p: wt_trie::BitStr<'_>,
                l: usize,
                r: usize,
            ) -> Vec<(wt_trie::BitString, usize)> {
                self.m_distinct_in_range_with_prefix(p, l, r)
            }

            fn distinct_prefixes_in_range(
                &self,
                l: usize,
                r: usize,
                depth: usize,
            ) -> Vec<(wt_trie::BitString, usize)> {
                self.m_distinct_prefixes_in_range(l, r, depth)
            }

            fn range_majority(&self, l: usize, r: usize) -> Option<(wt_trie::BitString, usize)> {
                self.m_range_majority(l, r)
            }

            fn range_frequent(
                &self,
                l: usize,
                r: usize,
                min_count: usize,
            ) -> Vec<(wt_trie::BitString, usize)> {
                self.m_range_frequent(l, r, min_count)
            }

            fn iter_range_boxed(
                &self,
                l: usize,
                r: usize,
            ) -> Box<dyn Iterator<Item = wt_trie::BitString> + '_> {
                self.m_iter_range_boxed(l, r)
            }

            fn access_batch(&self, positions: &[usize]) -> Vec<wt_trie::BitString> {
                self.m_access_batch(positions)
            }

            fn rank_batch(&self, queries: &[(wt_trie::BitStr<'_>, usize)]) -> Vec<usize> {
                self.m_rank_batch(queries)
            }

            fn select_batch(&self, queries: &[(wt_trie::BitStr<'_>, usize)]) -> Vec<Option<usize>> {
                self.m_select_batch(queries)
            }

            fn count_prefix_batch(&self, prefixes: &[wt_trie::BitStr<'_>]) -> Vec<usize> {
                self.m_count_prefix_batch(prefixes)
            }
        }
    };
}

pub(crate) use impl_seq_index_for_segmented;
