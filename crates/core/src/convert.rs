//! Structural conversion between the dynamic and static Wavelet Tries.
//!
//! [`DynWaveletTrie::freeze`] walks the dynamic trie **once** and emits the
//! raw parts of the static representation of Theorem 3.7 — internal flags,
//! the concatenated label bitvector `L`, and the concatenated node
//! bitvectors — without re-inserting the `n` strings through the Patricia
//! trie. Cost is O(total bits) with word-level copies, versus
//! O(Σ|sᵢ| · h) re-descent work plus the partition recursion for a
//! from-scratch rebuild; on string-heavy workloads this is an order of
//! magnitude faster (experiment E13, `BENCH_store.json`).
//!
//! [`WaveletTrie::thaw`] is the inverse: it materializes the pointer-based
//! dynamic node tree from the succinct one, so a sealed segment can be
//! melted for in-place edits or merged with its neighbour during
//! compaction (thaw + append + freeze), again without any per-string trie
//! descent for the thawed side.

use crate::dyn_wt::{DynWaveletTrie, Internal, Label, Node, WtBitVec};
use crate::nav::TrieNav;
use crate::static_wt::{StaticParts, WaveletTrie};
use wt_bits::RawBitVec;
use wt_trie::BitStr;

impl<B: WtBitVec> DynWaveletTrie<B> {
    /// Seals this dynamic trie into the static representation
    /// (Theorem 3.7) by a single structural walk: no string is ever
    /// re-emitted or re-inserted.
    ///
    /// Both tries represent the same Definition 3.1 object, so the result
    /// answers every query identically to
    /// `WaveletTrie::from_views(self.iter_seq())` — the tests pin this.
    pub fn freeze(&self) -> WaveletTrie {
        WaveletTrie::assemble(self.freeze_parts())
    }

    /// The preorder walk behind [`DynWaveletTrie::freeze`].
    fn freeze_parts(&self) -> StaticParts {
        let n = self.len;
        let root = match &self.root {
            None => return StaticParts::empty(),
            Some(r) => r,
        };
        let mut internal: Vec<bool> = Vec::new();
        let mut labels = RawBitVec::new();
        let mut label_lens: Vec<u64> = Vec::new();
        let mut bv_concat = RawBitVec::new();
        let mut bv_lens: Vec<u64> = Vec::new();
        let mut bv_ones: Vec<u64> = Vec::new();
        let mut stack: Vec<&Node<B>> = vec![root];
        while let Some(node) = stack.pop() {
            let label = node.label();
            for (word, width) in label.chunks() {
                labels.push_bits(word, width);
            }
            label_lens.push(label.len() as u64);
            match node {
                Node::Leaf(_) => internal.push(false),
                Node::Internal(int) => {
                    internal.push(true);
                    let len = int.bv.len();
                    int.bv.wt_append_into(&mut bv_concat);
                    bv_lens.push(len as u64);
                    bv_ones.push(int.bv.rank1(len) as u64);
                    // Child 0 must pop first (preorder).
                    stack.push(&int.children[1]);
                    stack.push(&int.children[0]);
                }
            }
        }
        StaticParts {
            n,
            internal,
            labels,
            label_lens,
            bv_concat,
            bv_lens,
            bv_ones,
        }
    }
}

impl WaveletTrie {
    /// Melts this static trie back into a dynamic one, structurally: the
    /// pointer-based node tree is rebuilt from the succinct directories
    /// with one pass over labels and bitvectors, never touching the
    /// string sequence itself.
    pub fn thaw<B: WtBitVec>(&self) -> DynWaveletTrie<B> {
        match self.nav_root() {
            None => DynWaveletTrie::new(),
            Some(root) => DynWaveletTrie {
                root: Some(thaw_rec(self, root)),
                len: self.len(),
            },
        }
    }
}

fn thaw_rec<B: WtBitVec>(wt: &WaveletTrie, v: usize) -> Node<B> {
    let (start, end) = wt.label_range(v);
    let label = Label::from_bitstr(BitStr::new(&wt.labels, start, end - start));
    if wt.nav_is_leaf(v) {
        Node::Leaf(label)
    } else {
        let bv = B::wt_from_iter(wt.bv_bits(v));
        let children = [
            thaw_rec(wt, wt.nav_child(v, false)),
            thaw_rec(wt, wt.nav_child(v, true)),
        ];
        Node::Internal(Box::new(Internal {
            label,
            bv,
            children,
        }))
    }
}

#[cfg(test)]
mod tests {
    use crate::dyn_wt::{AppendWaveletTrie, DynamicWaveletTrie};
    use crate::ops::{SeqIndex, SequenceOps};
    use crate::static_wt::WaveletTrie;
    use wt_trie::BitString;
    use wt_workloads::xorshift;

    fn bs(s: &str) -> BitString {
        BitString::parse(s)
    }

    /// Asserts every SeqIndex operation agrees between two indexes.
    fn assert_same_index(a: &dyn SeqIndex, b: &dyn SeqIndex, probes: &[BitString]) {
        let n = a.seq_len();
        assert_eq!(n, b.seq_len());
        assert_eq!(a.distinct_len(), b.distinct_len());
        assert_eq!(a.height(), b.height());
        assert_eq!(a.total_bitvector_bits(), b.total_bitvector_bits());
        for pos in 0..n {
            assert_eq!(a.access(pos), b.access(pos), "access({pos})");
        }
        for s in probes {
            let v = s.as_bitstr();
            assert_eq!(a.count(v), b.count(v), "count({s})");
            for pos in [0, n / 3, n / 2, n] {
                assert_eq!(a.rank(v, pos), b.rank(v, pos), "rank({s},{pos})");
                assert_eq!(
                    a.rank_prefix(v, pos),
                    b.rank_prefix(v, pos),
                    "rank_prefix({s},{pos})"
                );
            }
            for k in 0..a.count(v) + 1 {
                assert_eq!(a.select(v, k), b.select(v, k), "select({s},{k})");
            }
            for k in [0, 1, 5] {
                assert_eq!(
                    a.select_prefix(v, k),
                    b.select_prefix(v, k),
                    "select_prefix({s},{k})"
                );
            }
            assert_eq!(a.admits(v), b.admits(v), "admits({s})");
        }
        let (l, r) = (n / 4, n - n / 4);
        assert_eq!(a.distinct_in_range(l, r), b.distinct_in_range(l, r));
        assert_eq!(a.range_majority(l, r), b.range_majority(l, r));
        assert_eq!(a.range_frequent(l, r, 2), b.range_frequent(l, r, 2));
        assert_eq!(
            a.distinct_prefixes_in_range(l, r, 4),
            b.distinct_prefixes_in_range(l, r, 4)
        );
        let ia: Vec<BitString> = a.iter_range_boxed(l, r).collect();
        let ib: Vec<BitString> = b.iter_range_boxed(l, r).collect();
        assert_eq!(ia, ib);
    }

    #[test]
    fn freeze_matches_from_scratch_build() {
        let mut next = xorshift(0xF1E2_D3C4);
        let encode = |v: u64| BitString::from_bits((0..10).rev().map(move |k| (v >> k) & 1 != 0));
        let mut dynamic = DynamicWaveletTrie::new();
        for _ in 0..400 {
            let v = next() % 60;
            let pos = (next() % (dynamic.len() as u64 + 1)) as usize;
            dynamic.insert(encode(v).as_bitstr(), pos).unwrap();
        }
        for _ in 0..50 {
            let pos = (next() % dynamic.len() as u64) as usize;
            dynamic.delete(pos);
        }
        let frozen = dynamic.freeze();
        let rebuilt = WaveletTrie::from_bitstrings(dynamic.iter_seq()).unwrap();
        // Same preorder parts, same level-order assembly: same bytes.
        assert_eq!(frozen.save_bytes(), rebuilt.save_bytes());
        let probes: Vec<BitString> = (0..60).map(encode).collect();
        assert_same_index(&frozen, &rebuilt, &probes);
        assert_same_index(&frozen, &dynamic, &probes);
        // The space report must be coherent too (same nH0, same h̃·n).
        let a = frozen.space_breakdown();
        let b = rebuilt.space_breakdown();
        assert!((a.nh0_bits - b.nh0_bits).abs() < 1e-6);
        assert_eq!(a.hn_bits, b.hn_bits);
        assert_eq!(a.label_bits, b.label_bits);
        assert_eq!(a.lt_bits, b.lt_bits);
    }

    #[test]
    fn freeze_append_only_variant() {
        let mut wt = AppendWaveletTrie::new();
        for s in ["0001", "0011", "0100", "00100", "0100", "00100", "0100"] {
            wt.append(bs(s).as_bitstr()).unwrap();
        }
        let frozen = wt.freeze();
        let rebuilt = WaveletTrie::from_bitstrings(wt.iter_seq()).unwrap();
        let probes: Vec<BitString> = ["0001", "0011", "0100", "00100", "11", "00"]
            .iter()
            .map(|s| bs(s))
            .collect();
        assert_same_index(&frozen, &rebuilt, &probes);
    }

    #[test]
    fn freeze_edge_cases() {
        // Empty.
        let empty = DynamicWaveletTrie::new().freeze();
        assert!(empty.is_empty());
        assert_eq!(empty.distinct_len(), 0);
        // Single distinct string (root leaf), duplicated.
        let mut wt = DynamicWaveletTrie::new();
        for _ in 0..5 {
            wt.append(bs("1010").as_bitstr()).unwrap();
        }
        let frozen = wt.freeze();
        assert_eq!(frozen.len(), 5);
        assert_eq!(frozen.distinct_len(), 1);
        assert_eq!(frozen.access(3), bs("1010"));
        assert_eq!(frozen.rank(bs("1010").as_bitstr(), 5), 5);
        // Empty-string singleton.
        let mut wt = DynamicWaveletTrie::new();
        wt.append(bs("").as_bitstr()).unwrap();
        let frozen = wt.freeze();
        assert_eq!(frozen.access(0), bs(""));
    }

    #[test]
    fn thaw_round_trips_and_stays_editable() {
        let seq: Vec<BitString> = ["0001", "0011", "0100", "00100", "0100", "00100", "0100"]
            .iter()
            .map(|s| bs(s))
            .collect();
        let stat = WaveletTrie::build(&seq).unwrap();
        let mut melted: DynamicWaveletTrie = stat.thaw();
        let probes: Vec<BitString> = seq.clone();
        assert_same_index(&melted, &stat, &probes);
        // Thaw → freeze round trip is bit-identical on queries.
        let refrozen = melted.freeze();
        assert_same_index(&refrozen, &stat, &probes);
        // The melted trie is fully dynamic again.
        melted.insert(bs("11").as_bitstr(), 3).unwrap();
        assert_eq!(melted.len(), 8);
        assert_eq!(melted.access(3), bs("11"));
        let removed = melted.delete(0);
        assert_eq!(removed, bs("0001"));
        assert_eq!(melted.distinct_len(), 4);
        // Thaw into the append-only backend too.
        let mut app: AppendWaveletTrie = stat.thaw();
        app.append(bs("0111").as_bitstr()).unwrap();
        assert_eq!(app.len(), 8);
        assert_eq!(app.access(7), bs("0111"));
        assert_eq!(app.count(bs("0100").as_bitstr()), 3);
    }

    #[test]
    fn thaw_empty_and_singleton() {
        let empty = WaveletTrie::build::<BitString>(&[]).unwrap();
        let d: DynamicWaveletTrie = empty.thaw();
        assert!(d.is_empty());
        let one = WaveletTrie::build(&[bs("0110")]).unwrap();
        let mut d: DynamicWaveletTrie = one.thaw();
        assert_eq!(d.access(0), bs("0110"));
        d.append(bs("0111").as_bitstr()).unwrap();
        assert_eq!(d.len(), 2);
    }
}
