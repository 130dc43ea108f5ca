//! Probabilistically-balanced dynamic Wavelet Trees (§6 of the paper,
//! Theorem 6.2).
//!
//! A sequence of integers from a universe `U = {0, …, 2^w − 1}` is stored in
//! a [`DynamicWaveletTrie`] after hashing each value with the
//! Dietzfelbinger et al. multiplicative permutation `h_a(x) = a·x mod 2^w`
//! (odd `a`), written MSB-first at fixed width `w` (see the bit-order note
//! below). With probability
//! `1 − |Σ|^{-α}` the trie height is at most `(α+2)·log|Σ|`, independent of
//! the universe size — so a working alphabet Σ that is tiny inside a 2^64
//! universe still gets logarithmic-depth operations without knowing Σ in
//! advance. Lemma 6.1 ports the bound; `h_a` is invertible (odd `a` has an
//! inverse mod 2^w), so `Access` can recover the original value.

use crate::binarize::FixedWidthMsb;
use crate::dyn_wt::DynamicWaveletTrie;
use crate::ops::{SeqIndex, SequenceOps};
use wt_bits::SpaceUsage;
use wt_trie::BitString;

/// Multiplicative inverse of odd `a` modulo 2^64 (Newton iteration).
fn inverse_mod_2_64(a: u64) -> u64 {
    debug_assert!(a % 2 == 1, "only odd numbers are invertible mod 2^64");
    let mut inv = a; // correct mod 2^3
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
    }
    debug_assert_eq!(a.wrapping_mul(inv), 1);
    inv
}

/// A dynamic Rank/Select sequence over integers in `{0, …, 2^width − 1}`
/// with height logarithmic in the *working* alphabet (w.h.p.), not the
/// universe.
#[derive(Clone, Debug)]
pub struct RandomizedWaveletTree {
    inner: DynamicWaveletTrie,
    coder: FixedWidthMsb,
    a: u64,
    a_inv: u64,
    mask: u64,
}

impl RandomizedWaveletTree {
    /// Creates an empty sequence over a `width`-bit universe, drawing the
    /// multiplier from `seed` ("a is chosen at random among the odd
    /// integers" — §6).
    pub fn new(width: u32, seed: u64) -> Self {
        // SplitMix64 step to decorrelate trivial seeds, then force odd.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let a = (z ^ (z >> 31)) | 1;
        Self::with_multiplier(width, a)
    }

    /// Creates with an explicit odd multiplier (tests, reproducibility).
    ///
    /// # Panics
    /// If `a` is even or `width` is not in `1..=64`.
    pub fn with_multiplier(width: u32, a: u64) -> Self {
        assert!(a % 2 == 1, "multiplier must be odd");
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        RandomizedWaveletTree {
            inner: DynamicWaveletTrie::new(),
            coder: FixedWidthMsb::new(width),
            a,
            a_inv: inverse_mod_2_64(a),
            mask,
        }
    }

    /// Identity layout (no hashing): exposes the §6 motivation — adversarial
    /// value sets produce a trie as deep as `width = log u`.
    pub fn unhashed(width: u32) -> Self {
        Self::with_multiplier(width, 1)
    }

    #[inline]
    fn encode(&self, x: u64) -> BitString {
        assert!(x <= self.mask, "value exceeds the declared universe");
        self.coder.encode_u64(self.a.wrapping_mul(x) & self.mask)
    }

    #[inline]
    fn decode(&self, b: &BitString) -> u64 {
        self.a_inv
            .wrapping_mul(self.coder.decode_u64(b.as_bitstr()))
            & self.mask
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// `Insert(x, pos)`.
    pub fn insert(&mut self, x: u64, pos: usize) {
        let e = self.encode(x);
        self.inner
            .insert(e.as_bitstr(), pos)
            .expect("fixed-width strings are prefix-free");
    }

    /// Appends `x`.
    pub fn push(&mut self, x: u64) {
        self.insert(x, self.len());
    }

    /// `Delete(pos)`: removes and returns the value at `pos`.
    pub fn remove(&mut self, pos: usize) -> u64 {
        let removed = self.inner.delete(pos);
        self.decode(&removed)
    }

    /// `Access(pos)`.
    pub fn get(&self, pos: usize) -> u64 {
        self.decode(&self.inner.access(pos))
    }

    /// `Rank(x, pos)`: occurrences of `x` before `pos`.
    pub fn rank(&self, x: u64, pos: usize) -> usize {
        self.inner.rank(self.encode(x).as_bitstr(), pos)
    }

    /// `Select(x, idx)`: position of the `idx`-th occurrence of `x`.
    pub fn select(&self, x: u64, idx: usize) -> Option<usize> {
        self.inner.select(self.encode(x).as_bitstr(), idx)
    }

    /// Occurrences of `x` in the whole sequence.
    pub fn count(&self, x: u64) -> usize {
        self.inner.count(self.encode(x).as_bitstr())
    }

    /// Number of distinct values (|Σ| working alphabet size).
    pub fn distinct_len(&self) -> usize {
        self.inner.distinct_len()
    }

    /// Trie height (the quantity Theorem 6.2 bounds by `(α+2)·log|Σ|` w.h.p.).
    pub fn height(&self) -> usize {
        self.inner.height()
    }

    /// The underlying Wavelet Trie (for experiments).
    pub fn inner(&self) -> &DynamicWaveletTrie {
        &self.inner
    }

    /// Iterates values in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.inner.iter_seq().map(move |b| self.decode(&b))
    }
}

impl SpaceUsage for RandomizedWaveletTree {
    fn size_bits(&self) -> usize {
        self.inner.size_bits() + 4 * 64
    }
}

/// Height of the Patricia trie on the *unhashed* encodings — the baseline
/// §6 improves on (can reach `log u` for adversarial value sets).
pub fn unhashed_height(values: &[u64], width: u32) -> usize {
    let mut t = RandomizedWaveletTree::unhashed(width);
    for &v in values {
        t.push(v);
    }
    t.height()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_workloads::xorshift;

    #[test]
    fn inverse_works() {
        for a in [1u64, 3, 5, 0xDEAD_BEEF | 1, u64::MAX] {
            let inv = inverse_mod_2_64(a);
            assert_eq!(a.wrapping_mul(inv), 1, "a={a}");
        }
    }

    #[test]
    fn roundtrip_all_ops() {
        let mut t = RandomizedWaveletTree::new(64, 42);
        let vals = [7u64, 1 << 60, 7, 42, 0, 42, 7, u64::MAX];
        for &v in &vals {
            t.push(v);
        }
        assert_eq!(t.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(t.get(i), v, "get({i})");
        }
        assert_eq!(t.count(7), 3);
        assert_eq!(t.count(42), 2);
        assert_eq!(t.count(12345), 0);
        assert_eq!(t.rank(7, 4), 2);
        assert_eq!(t.select(7, 2), Some(6));
        assert_eq!(t.select(7, 3), None);
        let collected: Vec<u64> = t.iter().collect();
        assert_eq!(collected, vals);
    }

    #[test]
    fn insert_delete_middle() {
        let mut t = RandomizedWaveletTree::new(32, 7);
        let mut model: Vec<u64> = Vec::new();
        let mut next = xorshift(99);
        for _ in 0..300 {
            if model.is_empty() || !next().is_multiple_of(3) {
                let v = next() % 50; // small working alphabet
                let pos = (next() % (model.len() as u64 + 1)) as usize;
                t.insert(v, pos);
                model.insert(pos, v);
            } else {
                let pos = (next() % model.len() as u64) as usize;
                assert_eq!(t.remove(pos), model.remove(pos));
            }
        }
        let collected: Vec<u64> = t.iter().collect();
        assert_eq!(collected, model);
    }

    #[test]
    fn hashing_balances_pathological_values() {
        // §6 motivation: the powers of two form a comb — the unhashed trie
        // is a chain of height ~log u = 64 with only |Σ| = 64 values; after
        // hashing the height is O(log |Σ|) w.h.p.
        let values: Vec<u64> = (0..64u64).map(|j| 1u64 << j).collect();
        let deep = unhashed_height(&values, 64);
        let mut hashed = RandomizedWaveletTree::new(64, 12345);
        for &v in &values {
            hashed.push(v);
        }
        let shallow = hashed.height();
        assert!(deep >= 50, "power-of-two comb should be deep: {deep}");
        // (α+2)·log|Σ| with α=2: 4·6 = 24; allow some slack.
        assert!(
            shallow <= 30,
            "hashed height {shallow} should be O(log |Σ|) = ~24"
        );
        assert!(shallow >= 6, "can't beat log|Σ| = 6: {shallow}");
    }

    #[test]
    fn width_smaller_than_64() {
        let mut t = RandomizedWaveletTree::new(16, 3);
        for v in 0..100u64 {
            t.push(v % 1000 % 65536);
        }
        for i in 0..100 {
            assert_eq!(t.get(i), (i as u64) % 1000);
        }
    }
}
