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
        use crate::nav::TrieNav;
        use crate::ops::SeqIndex;
        let seq: Vec<BitString> = ["0001", "0011", "0100", "00100", "0100", "00100", "0100"]
            .iter()
            .map(|s| bs(s))
            .collect();
        let wt = crate::static_wt::WaveletTrie::build(&seq).unwrap();
        // Leaves: 0100×3 at depth 1, 0001×1 at 2, 0011×1 and 00100×2 at 3.
        let depths: Vec<usize> = seq
            .iter()
            .map(|s| string_depth(&wt, s.as_bitstr()).unwrap())
            .collect();
        assert_eq!(depths, vec![2, 3, 1, 3, 1, 3, 1]);
        let mut distinct = seq.clone();
        distinct.sort();
        distinct.dedup();
        let mut depth_hist = vec![0usize; wt.height() + 1];
        for s in &distinct {
            depth_hist[string_depth(&wt, s.as_bitstr()).unwrap()] += 1;
        }
        assert_eq!(depth_hist, vec![0, 1, 1, 2]);
        // A compacted binary trie: 4 leaves, 3 binary internal nodes.
        let mut fanout = [0usize; 3];
        let mut stack = vec![wt.nav_root().unwrap()];
        while let Some(v) = stack.pop() {
            if wt.nav_is_leaf(v) {
                fanout[0] += 1;
            } else {
                fanout[2] += 1;
                stack.push(wt.nav_child(v, false));
                stack.push(wt.nav_child(v, true));
            }
        }
        assert_eq!(fanout, [4, 0, 3]);
        assert_eq!(wt.distinct_len(), 4);
        // h̃ is the occurrence-weighted leaf depth, read off the directories.
        let expect = (3 + 2 + 3 * 3) as f64 / 7.0;
        assert!((wt.avg_height() - expect).abs() < 1e-9);
        assert!((average_height_of(&seq) - expect).abs() < 1e-9);
        let weighted = depths.iter().sum::<usize>() as f64 / 7.0;
        assert!((weighted - expect).abs() < 1e-9);
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
