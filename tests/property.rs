//! Property-based tests on the core invariants:
//! * every Wavelet Trie variant ≡ the naive model under arbitrary inputs;
//! * the dynamic structures ≡ the model under arbitrary op sequences;
//! * the bitvector substrates ≡ `Vec<bool>` models;
//! * coder round-trips and order preservation.
//!
//! Each property is a plain checker function over concrete inputs, driven
//! by a hand-rolled loop over a seeded deterministic generator (64 cases
//! per property).

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{DynamicStrings, IndexedStrings, SeqIndex, WaveletTrie};
use wt_baselines::NaiveSeq;
use wt_bits::{AppendBitVec, BitAccess, BitRank, BitSelect, DynamicBitVec, EliasFano};
use wt_trie::BitString;

// ---------------------------------------------------------------------------
// Checkers: one per property, over concrete inputs.
// ---------------------------------------------------------------------------

fn check_static_wt_matches_naive(data: &[Vec<u8>]) {
    let idx = IndexedStrings::build(data.iter());
    let naive = NaiveSeq::from_iter(data.iter());
    let n = data.len();
    for i in 0..n {
        assert_eq!(idx.get_bytes(i), naive.get(i).to_vec());
    }
    for s in data.iter().take(10) {
        for pos in [0, n / 2, n] {
            assert_eq!(idx.rank(s, pos), naive.rank(s, pos));
        }
        let total = naive.rank(s, n);
        for k in 0..total {
            assert_eq!(idx.select(s, k), naive.select(s, k));
        }
        // every non-empty byte prefix
        for plen in 0..s.len().min(3) {
            let p = &s[..plen];
            assert_eq!(idx.rank_prefix(p, n), naive.rank_prefix(p, n));
            assert_eq!(idx.select_prefix(p, 0), naive.select_prefix(p, 0));
        }
    }
}

fn check_dynamic_ops_match_naive(init: &[Vec<u8>], ops: &[(u8, Vec<u8>, u16)]) {
    let mut dy = DynamicStrings::new();
    let mut naive = NaiveSeq::new();
    for s in init {
        dy.push(s);
        naive.push(s);
    }
    for (op, s, r) in ops {
        let r = *r as usize;
        match op {
            0 => {
                let pos = r % (naive.len() + 1);
                dy.insert(s, pos);
                naive.insert(s, pos);
            }
            1 if !naive.is_empty() => {
                let pos = r % naive.len();
                assert_eq!(dy.remove(pos), naive.remove(pos));
            }
            _ => {
                let pos = r % (naive.len() + 1);
                assert_eq!(dy.rank(s, pos), naive.rank(s, pos));
                assert_eq!(dy.select(s, r % 4), naive.select(s, r % 4));
            }
        }
    }
    assert_eq!(dy.len(), naive.len());
    for i in 0..naive.len() {
        assert_eq!(dy.get_bytes(i), naive.get(i).to_vec());
    }
}

fn check_coder_roundtrip_and_order(a: &[u8], b: &[u8]) {
    let c = NinthBitCoder;
    let ea = c.encode(a);
    let eb = c.encode(b);
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

fn check_bit_level_trie_rejects_only_prefix_violations(data: &[Vec<bool>]) {
    // Build from raw bit strings: must succeed iff the set is prefix-free.
    let strs: Vec<BitString> = data
        .iter()
        .map(|v| BitString::from_bits(v.iter().copied()))
        .collect();
    let mut prefix_free = true;
    'outer: for (i, a) in strs.iter().enumerate() {
        for (j, b) in strs.iter().enumerate() {
            if i != j && a != b && a.as_bitstr().starts_with(&b.as_bitstr()) {
                prefix_free = false;
                break 'outer;
            }
        }
    }
    let result = WaveletTrie::build(&strs);
    assert_eq!(result.is_ok(), prefix_free);
    if let Ok(wt) = result {
        for (i, s) in strs.iter().enumerate() {
            assert_eq!(&wt.access(i), s);
        }
    }
}

// ---------------------------------------------------------------------------
// Harness: deterministic seeded PRNG.
// ---------------------------------------------------------------------------

mod fallback {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const CASES: u64 = 64;

    /// Thin wrapper adding the generation helpers the checkers need.
    struct Prng(StdRng);

    impl Prng {
        fn new(seed: u64) -> Self {
            Prng(StdRng::seed_from_u64(seed))
        }

        fn next_u64(&mut self) -> u64 {
            self.0.random()
        }

        fn below(&mut self, n: usize) -> usize {
            self.0.random_range(0..n)
        }

        fn bool(&mut self) -> bool {
            self.0.random()
        }

        /// Up to 5 arbitrary bytes.
        fn short_string(&mut self) -> Vec<u8> {
            let len = self.below(6);
            (0..len).map(|_| self.next_u64() as u8).collect()
        }

        fn vec_of<T>(&mut self, max_len: usize, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let len = self.below(max_len);
            (0..len).map(|_| f(self)).collect()
        }
    }

    fn for_each_case(test: &str, f: impl Fn(&mut Prng)) {
        for case in 0..CASES {
            let mut seed = 0xCBF2_9CE4_8422_2325u64;
            for b in test.bytes() {
                seed = (seed ^ b as u64).wrapping_mul(0x100_0000_01B3);
            }
            let mut rng = Prng::new(seed ^ case.wrapping_mul(0xA24B_AED4_963E_E407));
            f(&mut rng);
        }
    }

    #[test]
    fn static_wt_matches_naive() {
        for_each_case("static_wt_matches_naive", |rng| {
            let data: Vec<Vec<u8>> = (0..1 + rng.below(79)).map(|_| rng.short_string()).collect();
            super::check_static_wt_matches_naive(&data);
        });
    }

    #[test]
    fn dynamic_ops_match_naive() {
        for_each_case("dynamic_ops_match_naive", |rng| {
            let init = rng.vec_of(30, |r| r.short_string());
            let ops = rng.vec_of(60, |r| {
                (r.below(3) as u8, r.short_string(), r.next_u64() as u16)
            });
            super::check_dynamic_ops_match_naive(&init, &ops);
        });
    }

    #[test]
    fn coder_roundtrip_and_order() {
        for_each_case("coder_roundtrip_and_order", |rng| {
            let a = rng.short_string();
            let b = rng.short_string();
            super::check_coder_roundtrip_and_order(&a, &b);
        });
    }

    #[test]
    fn dynamic_bitvec_matches_model() {
        for_each_case("dynamic_bitvec_matches_model", |rng| {
            let ops = rng.vec_of(200, |r| (r.below(2) as u8, r.next_u64() as u16, r.bool()));
            super::check_dynamic_bitvec_matches_model(&ops);
        });
    }

    #[test]
    fn append_bitvec_matches_model() {
        for_each_case("append_bitvec_matches_model", |rng| {
            let bits = rng.vec_of(6000, |r| r.bool());
            super::check_append_bitvec_matches_model(&bits);
        });
    }

    #[test]
    fn elias_fano_matches_model() {
        for_each_case("elias_fano_matches_model", |rng| {
            let vals = rng.vec_of(300, |r| r.next_u64() as u32);
            super::check_elias_fano_matches_model(vals);
        });
    }

    #[test]
    fn bit_level_trie_rejects_only_prefix_violations() {
        for_each_case("bit_level_trie_rejects_only_prefix_violations", |rng| {
            let data: Vec<Vec<bool>> = (0..1 + rng.below(29))
                .map(|_| rng.vec_of(9, |r| r.bool()))
                .collect();
            super::check_bit_level_trie_rejects_only_prefix_violations(&data);
        });
    }
}
