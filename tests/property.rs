//! Property-based tests on the core invariants, each a checker over
//! concrete inputs run on 64 seeded cases: the Wavelet Tries ≡ the naive
//! oracle of the conformance harness in `support/`, under arbitrary inputs
//! and op sequences; the bitvector substrates ≡ `Vec<bool>` models; and
//! coder round-trips and order preservation.

mod support;

use support::{admits, check_ops, conform, encode_all, Oracle};
use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{DynamicWaveletTrie, IndexedStrings, WaveletTrie};
use wt_bits::{AppendBitVec, BitAccess, BitRank, BitSelect, DynamicBitVec, EliasFano};
use wt_trie::BitString;

fn check_static_wt_matches_naive(data: &[Vec<u8>], seed: u64) {
    let (idx, o) = (IndexedStrings::build(data), Oracle::new(encode_all(data)));
    conform("IndexedStrings", idx.inner(), &o, seed);
    assert_eq!(idx.get_bytes(0), data[0]);
}

fn check_coder_roundtrip_and_order(a: &[u8], b: &[u8]) {
    let c = NinthBitCoder;
    let (ea, eb) = (c.encode(a), c.encode(b));
    assert_eq!(c.decode(ea.as_bitstr()), a.to_vec());
    assert_eq!(c.decode(eb.as_bitstr()), b.to_vec());
    // order preservation
    assert_eq!(ea.cmp(&eb), a.cmp(b));
    // prefix-freeness
    if a != b {
        assert!(!ea.as_bitstr().starts_with(&eb.as_bitstr()));
    }
}

fn check_dynamic_bitvec_matches_model(ops: &[(u8, u16, bool)]) {
    let mut v = DynamicBitVec::new();
    let mut m: Vec<bool> = Vec::new();
    for &(op, r, bit) in ops {
        let r = r as usize;
        match op {
            0 => {
                let pos = r % (m.len() + 1);
                v.insert(pos, bit);
                m.insert(pos, bit);
            }
            _ if !m.is_empty() => {
                let pos = r % m.len();
                assert_eq!(v.remove(pos), m.remove(pos));
            }
            _ => {}
        }
    }
    assert_eq!(v.len(), m.len());
    let mut ones = 0;
    for (i, &b) in m.iter().enumerate() {
        assert_eq!(v.get(i), b);
        assert_eq!(v.rank1(i), ones);
        ones += b as usize;
    }
    let collected: Vec<bool> = v.iter().collect();
    assert_eq!(collected, m);
}

fn check_append_bitvec_matches_model(bits: &[bool]) {
    let v = AppendBitVec::from_bits(bits.iter().copied());
    assert_eq!(v.len(), bits.len());
    let mut ones = 0usize;
    for (i, &b) in bits.iter().enumerate() {
        assert_eq!(v.get(i), b);
        assert_eq!(v.rank1(i), ones);
        if b {
            assert_eq!(v.select1(ones), Some(i));
        } else {
            assert_eq!(v.select0(i - ones), Some(i));
        }
        ones += b as usize;
    }
}

fn check_elias_fano_matches_model(mut vals: Vec<u32>) {
    vals.sort_unstable();
    let vals: Vec<u64> = vals.into_iter().map(u64::from).collect();
    let ef = EliasFano::new(&vals);
    assert_eq!(ef.len(), vals.len());
    for (i, &x) in vals.iter().enumerate() {
        assert_eq!(ef.get(i), x);
    }
    for probe in vals.iter().take(20) {
        let naive = vals.iter().filter(|&&v| v <= *probe).count();
        assert_eq!(ef.rank_leq(*probe), naive);
    }
}

fn check_bit_level_trie_rejects_only_prefix_violations(data: &[Vec<bool>], seed: u64) {
    // Build from raw bit strings: must succeed iff the set is prefix-free.
    let strs: Vec<BitString> = data.iter().map(|v| v.iter().copied().collect()).collect();
    let prefix_free = strs.iter().all(|s| admits(&strs, s.as_bitstr()));
    let result = WaveletTrie::build(&strs);
    assert_eq!(result.is_ok(), prefix_free);
    if let Ok(wt) = result {
        conform("bit-level trie", &wt, &Oracle::new(strs), seed);
    }
}

mod fallback {
    use super::*;
    use std::ops::Range;
    use wt_workloads::{rng, RngExt};

    /// Up to 5 arbitrary bytes.
    fn bytes(r: &mut impl RngExt) -> Vec<u8> {
        vec_of(r, 0..6, |r| r.random())
    }

    fn vec_of<R: RngExt, T>(r: &mut R, n: Range<usize>, mut f: impl FnMut(&mut R) -> T) -> Vec<T> {
        (0..r.random_range(n)).map(|_| f(r)).collect()
    }

    /// Runs `f` on 64 cases: each a generator and its seed, derived from
    /// the test name.
    fn for_each_case<R>(test: &str, make: fn(u64) -> R, f: impl Fn(&mut R, u64)) {
        let fnv = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        let base = test.bytes().fold(0xCBF2_9CE4_8422_2325, fnv);
        for case in 0..64u64 {
            let seed = base ^ case.wrapping_mul(0xA24B_AED4_963E_E407);
            f(&mut make(seed), seed);
        }
    }

    #[test]
    fn static_wt_matches_naive() {
        for_each_case("static_wt_matches_naive", rng, |r, seed| {
            check_static_wt_matches_naive(&vec_of(r, 1..80, bytes), seed);
        });
    }

    #[test]
    fn dynamic_ops_match_naive() {
        for_each_case("dynamic_ops_match_naive", rng, |r, seed| {
            let pool = encode_all(&vec_of(r, 1..31, bytes));
            check_ops(DynamicWaveletTrie::new(), &pool, seed, 90, 90);
        });
    }

    #[test]
    fn coder_roundtrip_and_order() {
        for_each_case("coder_roundtrip_and_order", rng, |r, _| {
            check_coder_roundtrip_and_order(&bytes(r), &bytes(r));
        });
    }

    #[test]
    fn dynamic_bitvec_matches_model() {
        for_each_case("dynamic_bitvec_matches_model", rng, |r, _| {
            let ops = vec_of(r, 0..200, |r| {
                (r.random_range(0..2u8), r.random(), r.random())
            });
            check_dynamic_bitvec_matches_model(&ops);
        });
    }

    #[test]
    fn append_bitvec_matches_model() {
        for_each_case("append_bitvec_matches_model", rng, |r, _| {
            check_append_bitvec_matches_model(&vec_of(r, 0..6000, |r| r.random()));
        });
    }

    #[test]
    fn elias_fano_matches_model() {
        for_each_case("elias_fano_matches_model", rng, |r, _| {
            check_elias_fano_matches_model(vec_of(r, 0..300, |r| r.random()));
        });
    }

    #[test]
    fn bit_level_trie_rejects_only_prefix_violations() {
        let test = "bit_level_trie_rejects_only_prefix_violations";
        for_each_case(test, rng, |r, seed| {
            let data = vec_of(r, 1..30, |r| vec_of(r, 0..9, |r| r.random()));
            check_bit_level_trie_rejects_only_prefix_violations(&data, seed);
        });
    }
}
