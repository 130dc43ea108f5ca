//! Information-theoretic quantities for sequences of strings (§2/§3 and
//! Appendix A): `nH0(S)`, `LT(Sset)` of Theorem 3.6, the combined lower
//! bound `LB(S) = LT(Sset) + nH0(S)`, and the average height `h̃`
//! (Definition 3.4). These drive the space experiments E4/E10.

use std::collections::HashMap;
use wt_trie::{BitStr, BitString, PatriciaSet};

/// Information-theoretic summary of a sequence of binary strings.
#[derive(Clone, Copy, Debug)]
pub struct SequenceStats {
    /// Sequence length n.
    pub n: usize,
    /// Distinct strings |Sset|.
    pub distinct: usize,
    /// Total input bits Σ|s_i|.
    pub total_input_bits: usize,
    /// `n·H0(S)` in bits.
    pub nh0_bits: f64,
    /// `|L|`: concatenated non-root Patricia labels, bits.
    pub l_bits: usize,
    /// `e = 2(|Sset| − 1)`: trie edges.
    pub e: usize,
    /// `LT(Sset) = |L| + e + B(e, |L| + e)` (Theorem 3.6), bits.
    pub lt_bits: f64,
    /// `LB(S) = LT + nH0`, bits.
    pub lb_bits: f64,
}

impl SequenceStats {
    /// Computes the stats; O(total input bits · log) time.
    ///
    /// Returns `None` if the string set is not prefix-free (the bounds are
    /// defined for prefix-free sets only).
    pub fn from_bitstrings(seq: &[BitString]) -> Option<Self> {
        let n = seq.len();
        let mut counts: HashMap<&BitString, usize> = HashMap::new();
        for s in seq {
            *counts.entry(s).or_insert(0) += 1;
        }
        let distinct = counts.len();
        let nh0_bits: f64 = counts
            .values()
            .map(|&c| c as f64 * (n as f64 / c as f64).log2())
            .sum();
        // Build the Patricia trie of Sset to obtain |L|.
        let mut trie = PatriciaSet::new();
        for s in counts.keys() {
            match trie.insert(s.as_bitstr()) {
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        // label_bits counts every node label including the root; Theorem 3.6
        // concatenates the e non-root labels. Recover the root label length
        // as the LCP of the whole set.
        let root_label = if distinct <= 1 {
            seq.first().map_or(0, |s| s.len())
        } else {
            let mut it = counts.keys();
            let first = it.next().expect("nonempty");
            let mut l = first.len();
            for s in it {
                l = l.min(first.as_bitstr().lcp(&s.as_bitstr()));
            }
            l
        };
        let l_bits = trie.label_bits().saturating_sub(root_label);
        let e = 2 * distinct.saturating_sub(1);
        let lt_bits = if distinct <= 1 {
            l_bits as f64
        } else {
            l_bits as f64 + e as f64 + wt_bits::entropy::binomial_bound_bits(l_bits + e, e)
        };
        let total_input_bits = seq.iter().map(|s| s.len()).sum();
        Some(SequenceStats {
            n,
            distinct,
            total_input_bits,
            nh0_bits,
            l_bits,
            e,
            lt_bits,
            lb_bits: lt_bits + nh0_bits,
        })
    }

    /// `H0(S)` per string (bits).
    pub fn h0_per_string(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.nh0_bits / self.n as f64
        }
    }

    /// Average input string length `Σ|s_i| / n` (bits).
    pub fn avg_input_bits(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_input_bits as f64 / self.n as f64
        }
    }
}

/// Average height `h̃` computed directly from the strings via a Patricia
/// descent per string (Definition 3.4: `h̃ = (1/n)Σ h_{s_i}`).
pub fn average_height_of(seq: &[BitString]) -> f64 {
    if seq.is_empty() {
        return 0.0;
    }
    // Build a static Wavelet Trie and read h̃ = Σ|β| / n off it.
    use crate::ops::SeqIndex;
    match crate::static_wt::WaveletTrie::build(seq) {
        Ok(wt) => wt.avg_height(),
        Err(_) => f64::NAN,
    }
}

/// Minimum segment length for path decomposition to pay off: below this
/// the whole trie fits in cache and the wavelet trie's pointer chase is
/// free anyway.
pub const PD_MIN_N: usize = 1024;

/// Average-depth threshold for path decomposition, as a fraction of
/// `log2 n`: a trie at least this deep on average is "ints-like" (long
/// dependent miss chains), a shallower one is "url-like" (shared hot top,
/// already cache-friendly).
pub const PD_DEPTH_FACTOR: f64 = 0.8;

/// The adaptive static-representation choice used at seal/compact time by
/// the tiered store: path-decompose iff the segment is big enough, its
/// strings are mostly distinct (at least half — duplication-heavy
/// segments are the best case of the wavelet trie's grouped batch
/// kernels, which dedup shared descents, while the decomposition batches
/// by looping its scalar walkers), and its
/// occurrence-weighted average depth `h̃` (= `total_bitvector_bits / n`,
/// an O(1) read off a built trie) is a constant fraction of `log2 n`.
/// All three inputs are O(1) reads off the frozen trie's directories.
pub fn prefers_path_decomposition(n: usize, distinct: usize, avg_depth: f64) -> bool {
    n >= PD_MIN_N
        && distinct.saturating_mul(2) >= n
        && avg_depth >= PD_DEPTH_FACTOR * (n as f64).log2()
}

/// Shape summary of a binary trie: the evidence behind the adaptive
/// representation choice, printed by `store_report`.
#[derive(Clone, Debug)]
pub struct TrieShape {
    /// Sequence length n.
    pub n: usize,
    /// Distinct strings (= leaves).
    pub distinct: usize,
    /// Deepest leaf, in internal nodes traversed.
    pub max_depth: usize,
    /// Occurrence-weighted average leaf depth — exactly `h̃` of
    /// Definition 3.4 (`Σ|β_v| / n`).
    pub avg_depth: f64,
    /// `log2 n` (0 for an empty trie), the yardstick for `avg_depth`.
    pub log2n: f64,
    /// Leaves per depth; `depth_hist[d]` counts leaves at depth `d`.
    pub depth_hist: Vec<usize>,
    /// Node counts by fanout `[0, 1, 2]`; compacted binary tries have no
    /// unary nodes, so `fanout[1] == 0`.
    pub fanout: [usize; 3],
}

impl TrieShape {
    /// Whether the seal heuristic would pick the path-decomposed
    /// representation for this shape.
    pub fn prefers_path_decomposition(&self) -> bool {
        prefers_path_decomposition(self.n, self.distinct, self.avg_depth)
    }
}

/// Probes the shape of any navigable trie in one DFS, carrying occurrence
/// counts down via the per-node bitvector ones directories (no string
/// materialization).
pub fn trie_shape<T: crate::nav::TrieNav>(t: &T) -> TrieShape {
    let n = t.nav_len();
    let mut shape = TrieShape {
        n,
        distinct: 0,
        max_depth: 0,
        avg_depth: 0.0,
        log2n: if n > 0 { (n as f64).log2() } else { 0.0 },
        depth_hist: Vec::new(),
        fanout: [0; 3],
    };
    let Some(root) = t.nav_root() else {
        return shape;
    };
    let mut weighted = 0.0f64;
    let mut stack = vec![(root, 0usize, n)];
    while let Some((v, depth, m)) = stack.pop() {
        if t.nav_is_leaf(v) {
            shape.distinct += 1;
            shape.fanout[0] += 1;
            shape.max_depth = shape.max_depth.max(depth);
            if shape.depth_hist.len() <= depth {
                shape.depth_hist.resize(depth + 1, 0);
            }
            shape.depth_hist[depth] += 1;
            weighted += (m * depth) as f64;
        } else {
            shape.fanout[2] += 1;
            let len = t.nav_bv_len(v);
            let ones = t.nav_bv_rank(v, true, len);
            stack.push((t.nav_child(v, false), depth + 1, len - ones));
            stack.push((t.nav_child(v, true), depth + 1, ones));
        }
    }
    shape.avg_depth = if n == 0 { 0.0 } else { weighted / n as f64 };
    shape
}

/// Per-string trie depth `h_s` (internal nodes traversed when searching
/// `s`), computed against a Patricia trie of the distinct set.
pub fn string_depth<T: crate::nav::TrieNav>(t: &T, s: BitStr<'_>) -> Option<usize> {
    let mut v = t.nav_root()?;
    let mut delta = 0usize;
    let mut depth = 0usize;
    loop {
        let l = t.nav_label_lcp(v, s.suffix(delta));
        if l < t.nav_label_len(v) {
            return None;
        }
        delta += l;
        if t.nav_is_leaf(v) {
            return (delta == s.len()).then_some(depth);
        }
        if delta == s.len() {
            return None;
        }
        let b = s.get(delta);
        delta += 1;
        depth += 1;
        v = t.nav_child(v, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        BitString::parse(s)
    }

    #[test]
    fn figure2_stats() {
        let seq: Vec<BitString> = ["0001", "0011", "0100", "00100", "0100", "00100", "0100"]
            .iter()
            .map(|s| bs(s))
            .collect();
        let st = SequenceStats::from_bitstrings(&seq).unwrap();
        assert_eq!(st.n, 7);
        assert_eq!(st.distinct, 4);
        assert_eq!(st.e, 6);
        // H0 = -(1/7 log 1/7 + 1/7 ... + 3/7 log 3/7 + 2/7 log 2/7)
        let h0 = st.h0_per_string();
        let expect = (1.0f64 / 7.0) * 7f64.log2() * 2.0
            + (3.0 / 7.0) * (7f64 / 3.0).log2()
            + (2.0 / 7.0) * (7f64 / 2.0).log2();
        assert!((h0 - expect).abs() < 1e-9, "{h0} vs {expect}");
        // Lemma 3.5: H0 <= h̃ <= avg input length
        let h = average_height_of(&seq);
        assert!(h0 <= h + 1e-9);
        assert!(h <= st.avg_input_bits() + 1e-9);
    }

    #[test]
    fn non_prefix_free_detected() {
        let seq = vec![bs("01"), bs("010")];
        assert!(SequenceStats::from_bitstrings(&seq).is_none());
    }

    #[test]
    fn single_string_degenerate() {
        let seq = vec![bs("10101"); 4];
        let st = SequenceStats::from_bitstrings(&seq).unwrap();
        assert_eq!(st.distinct, 1);
        assert_eq!(st.nh0_bits, 0.0);
        assert_eq!(st.e, 0);
        assert_eq!(st.l_bits, 0); // the single label is the root label
    }

    #[test]
    fn trie_shape_figure2() {
        use crate::ops::SeqIndex;
        let seq: Vec<BitString> = ["0001", "0011", "0100", "00100", "0100", "00100", "0100"]
            .iter()
            .map(|s| bs(s))
            .collect();
        let wt = crate::static_wt::WaveletTrie::build(&seq).unwrap();
        let shape = trie_shape(&wt);
        assert_eq!(shape.n, 7);
        assert_eq!(shape.distinct, 4);
        assert_eq!(shape.max_depth, 3);
        // Leaves: 0100×3 at depth 1, 0001×1 at 2, 0011×1 and 00100×2 at 3.
        assert_eq!(shape.depth_hist, vec![0, 1, 1, 2]);
        assert_eq!(shape.fanout, [4, 0, 3]);
        let expect = (3 + 2 + 3 * 3) as f64 / 7.0;
        assert!((shape.avg_depth - expect).abs() < 1e-9);
        // h̃ from the probe must agree with the O(1) directory read.
        assert!((shape.avg_depth - wt.avg_height()).abs() < 1e-9);
        // The probe is representation-independent.
        let pd = crate::pd::PathDecompTrie::from_static(&wt);
        let ps = trie_shape(&pd);
        assert_eq!(ps.depth_hist, shape.depth_hist);
        assert_eq!(ps.fanout, shape.fanout);
        assert!((ps.avg_depth - shape.avg_depth).abs() < 1e-9);
        // Tiny and shallow: the heuristic keeps the wavelet trie.
        assert!(!shape.prefers_path_decomposition());
    }

    #[test]
    fn adaptive_choice_thresholds() {
        // Deep near-distinct segment: decompose.
        assert!(prefers_path_decomposition(1 << 20, 1 << 20, 20.0));
        // Shallow url-like segment (h̃ ≪ log n): keep the wavelet trie.
        assert!(!prefers_path_decomposition(1 << 20, 1 << 20, 8.0));
        // Deep but duplication-heavy (distinct < n/2): the wavelet trie's
        // grouped batch kernels dedup the shared descents.
        assert!(!prefers_path_decomposition(1 << 20, 1 << 18, 20.0));
        // Too small to matter, however deep and distinct.
        assert!(!prefers_path_decomposition(512, 512, 40.0));
    }

    #[test]
    fn string_depth_matches_height() {
        use crate::ops::SeqIndex;
        let seq: Vec<BitString> = ["0001", "0011", "0100", "00100"]
            .iter()
            .map(|s| bs(s))
            .collect();
        let wt = crate::static_wt::WaveletTrie::build(&seq).unwrap();
        // depths: 0001 -> 2 internals (root, left); 0011 -> 3; 00100 -> 3; 0100 -> 1
        assert_eq!(string_depth(&wt, bs("0001").as_bitstr()), Some(2));
        assert_eq!(string_depth(&wt, bs("0011").as_bitstr()), Some(3));
        assert_eq!(string_depth(&wt, bs("00100").as_bitstr()), Some(3));
        assert_eq!(string_depth(&wt, bs("0100").as_bitstr()), Some(1));
        assert_eq!(string_depth(&wt, bs("1111").as_bitstr()), None);
        assert_eq!(wt.height(), 3);
    }
}
