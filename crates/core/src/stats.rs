//! Information-theoretic quantities for sequences of strings (§2/§3 and
//! Appendix A): `nH0(S)`, `LT(Sset)` of Theorem 3.6, the combined lower
//! bound `LB(S) = LT(Sset) + nH0(S)`, and the average height `h̃`
//! (Definition 3.4). These drive the space experiments E4/E10.

use crate::nav::{self, Descent, TrieNav};
use wt_trie::{BitStr, BitString};

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
    /// Computes the stats from the sorted strings, in O(n log n)
    /// comparisons.
    ///
    /// `|L|` needs no trie. Each non-empty distinct prefix of `Sset` is
    /// one position of its Patricia trie, either a label bit or one of
    /// the `e` branch bits, and in sorted order the new prefixes each
    /// string adds are the bits past its LCP with its predecessor. So
    /// `|L| = Σ|s| − Σ lcp − e − root label`, where the root label (the
    /// LCP of the whole set) is the smallest adjacent LCP.
    ///
    /// Returns `None` if the string set is not prefix-free (the bounds are
    /// defined for prefix-free sets only).
    pub fn from_bitstrings(seq: &[BitString]) -> Option<Self> {
        let n = seq.len();
        let mut sorted: Vec<&BitString> = seq.iter().collect();
        sorted.sort_unstable();
        let mut nh0_bits = 0.0;
        let (mut distinct, mut distinct_bits, mut lcp_bits) = (0usize, 0usize, 0usize);
        let mut root_label = usize::MAX;
        let mut prev: Option<&BitString> = None;
        for run in sorted.chunk_by(|a, b| a == b) {
            let s = run[0];
            let c = run.len() as f64;
            nh0_bits += c * (n as f64 / c).log2();
            distinct += 1;
            distinct_bits += s.len();
            if let Some(p) = prev {
                let l = p.as_bitstr().lcp(&s.as_bitstr());
                if l == p.len() {
                    return None; // `p` is a proper prefix of `s`
                }
                lcp_bits += l;
                root_label = root_label.min(l);
            }
            prev = Some(s);
        }
        let e = 2 * distinct.saturating_sub(1);
        let (l_bits, lt_bits) = if distinct <= 1 {
            (0, 0.0) // the only label is the root's
        } else {
            let l_bits = distinct_bits - lcp_bits - e - root_label;
            let lt =
                l_bits as f64 + e as f64 + wt_bits::entropy::binomial_bound_bits(l_bits + e, e);
            (l_bits, lt)
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

/// Average height `h̃` of the strings (Definition 3.4:
/// `h̃ = (1/n)Σ h_{s_i}`): builds their static Wavelet Trie and reads
/// `h̃ = Σ|β| / n` off its bitvector lengths. `NaN` if the set is not
/// prefix-free.
pub fn average_height_of(seq: &[BitString]) -> f64 {
    if seq.is_empty() {
        return 0.0;
    }
    use crate::ops::SeqIndex;
    match crate::static_wt::WaveletTrie::build(seq) {
        Ok(wt) => wt.avg_height(),
        Err(_) => f64::NAN,
    }
}

/// Per-string trie depth `h_s`: the internal nodes one descent of `t`
/// traverses when searching `s`, or `None` if `s` is not stored.
pub fn string_depth<T: TrieNav>(t: &T, s: BitStr<'_>) -> Option<usize> {
    match nav::descend_exact(t, s) {
        Descent::Found { path, .. } => Some(path.iter().count()),
        Descent::Absent => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(s: &str) -> BitString {
        BitString::parse(s)
    }

    fn figure2_strs() -> [&'static str; 7] {
        ["0001", "0011", "0100", "00100", "0100", "00100", "0100"]
    }

    #[test]
    fn figure2_stats() {
        let seq: Vec<BitString> = figure2_strs().iter().map(|s| bs(s)).collect();
        let st = SequenceStats::from_bitstrings(&seq).unwrap();
        assert_eq!(st.n, 7);
        assert_eq!(st.distinct, 4);
        assert_eq!(st.e, 6);
        // Below the root label "0", Figure 2's labels are "00", "1", "0"
        // and three empty ones; B(6, 10) = ⌈log₂ C(10, 6)⌉ = 8.
        assert_eq!((st.l_bits, st.lt_bits), (4, 18.0));
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
        // A proper prefix sorts right before its extensions, in any input
        // order; ε is a prefix of everything.
        for set in [
            &["01", "010"][..],
            &["010", "01"],
            &["", "0"],
            &["01", "0100", "0111"],
        ] {
            let seq: Vec<BitString> = set.iter().map(|s| bs(s)).collect();
            assert!(SequenceStats::from_bitstrings(&seq).is_none(), "{set:?}");
        }
    }

    #[test]
    fn single_string_degenerate() {
        let seq = vec![bs("10101"); 4];
        let st = SequenceStats::from_bitstrings(&seq).unwrap();
        assert_eq!(st.distinct, 1);
        assert_eq!(st.nh0_bits, 0.0);
        assert_eq!(st.e, 0);
        assert_eq!(st.l_bits, 0); // the single label is the root label
        let st = SequenceStats::from_bitstrings(&[]).unwrap();
        assert_eq!((st.n, st.distinct, st.e, st.l_bits), (0, 0, 0, 0));
        assert_eq!((st.nh0_bits, st.lt_bits), (0.0, 0.0));
    }

    /// `LT` from the sorted LCPs equals `LT` read off the built trie's
    /// labels and node count, and both `nH0` sums agree.
    #[test]
    fn stats_agree_with_the_trie_they_bound() {
        use crate::binarize::{Coder, FixedWidthMsb, NinthBitCoder};
        use wt_workloads::{url_log, word_text, xorshift, UrlLogConfig};
        let text = |v: Vec<String>| -> Vec<BitString> {
            v.iter()
                .map(|s| NinthBitCoder.encode(s.as_bytes()))
                .collect()
        };
        let mut next = xorshift(0x57A7);
        let ints = FixedWidthMsb::new(28);
        let corpora = [
            ("figure 2", figure2_strs().iter().map(|s| bs(s)).collect()),
            ("urls", text(url_log(5_000, UrlLogConfig::default(), 3))),
            ("words", text(word_text(5_000, 400, 4))),
            (
                "28-bit ints",
                (0..5_000)
                    .map(|_| ints.encode_u64(next() & ((1 << 28) - 1)))
                    .collect(),
            ),
        ];
        for (name, seq) in corpora {
            let st = SequenceStats::from_bitstrings(&seq).unwrap();
            let sp = crate::static_wt::WaveletTrie::build(&seq)
                .unwrap()
                .space_breakdown();
            assert_eq!(st.distinct, sp.distinct, "{name}");
            assert_eq!(st.lt_bits, sp.lt_bits, "{name}");
            let rel = (st.nh0_bits - sp.nh0_bits).abs() / sp.nh0_bits.max(1.0);
            assert!(rel < 1e-9, "{name}: nH0 {} vs {}", st.nh0_bits, sp.nh0_bits);
        }
    }

    #[test]
    fn trie_shape_figure2() {
        use crate::ops::SeqIndex;
        let seq: Vec<BitString> = figure2_strs().iter().map(|s| bs(s)).collect();
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
