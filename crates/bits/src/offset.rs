//! [`OffsetBitVec`]: an append-only bitvector with an implicit constant
//! prefix.
//!
//! §4 of the paper: *"in the append-only case, `Init` can be implemented
//! simply by adding a left offset in each bitvector, which increments each
//! bitvector space by O(log n) and can be checked in constant time."* The
//! append-only Wavelet Trie creates node bitvectors as `b^m` followed only
//! by appends; we store the run `b^m` as a length and a bit, the first 64
//! explicit bits in an inline word, and only the bits past those in a
//! boxed [`AppendBitVec`]. Most node bitvectors never get past the word,
//! so the whole vector is 32 bytes and allocates nothing.

use crate::broadword::select_bit_in_word;
use crate::{AppendBitVec, BitAccess, BitRank, BitSelect, SpaceUsage};

/// Append-only bitvector whose first `implicit_len` bits are all equal to
/// `implicit_bit` and stored implicitly.
#[derive(Clone, Debug, Default)]
pub struct OffsetBitVec {
    implicit_len: usize,
    /// Explicit bits 0..64, LSB-first.
    first: u64,
    /// Explicit bits from 64 on; boxed once the inline word is full.
    rest: Option<Box<AppendBitVec>>,
    implicit_bit: bool,
    /// Explicit bits held in `first`, 0..=64.
    first_len: u8,
}

impl OffsetBitVec {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// `Init(b, n)`: `n` copies of `bit` in O(1) time and space.
    pub fn filled(bit: bool, n: usize) -> Self {
        OffsetBitVec {
            implicit_len: n,
            implicit_bit: bit,
            ..Self::default()
        }
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        if self.first_len == 0 {
            // No explicit bit yet: an empty vector starts its run with
            // whichever bit comes first, and the run grows while it holds.
            if self.implicit_len == 0 {
                self.implicit_bit = bit;
            }
            if bit == self.implicit_bit {
                self.implicit_len += 1;
                return;
            }
        }
        if self.first_len < 64 {
            self.first |= (bit as u64) << self.first_len;
            self.first_len += 1;
        } else {
            self.rest.get_or_insert_default().push(bit);
        }
    }

    /// Length of the implicit constant prefix (for space accounting tests).
    pub fn implicit_len(&self) -> usize {
        self.implicit_len
    }

    /// Appends every bit to `out`: the implicit run and the inline word
    /// go word-wise, the boxed bits via [`AppendBitVec::append_into`]'s
    /// sequential block decode. Bulk export for the structural freeze
    /// path.
    pub fn append_into(&self, out: &mut crate::RawBitVec) {
        out.push_run(self.implicit_bit, self.implicit_len);
        out.push_bits(self.first, self.first_len as usize);
        if let Some(rest) = &self.rest {
            rest.append_into(out);
        }
    }

    /// Ones in the implicit run.
    #[inline]
    fn implicit_ones(&self) -> usize {
        if self.implicit_bit {
            self.implicit_len
        } else {
            0
        }
    }

    /// The boxed bits past the inline word; `None` would be a bug, as an
    /// explicit position past 64 exists only once they do.
    #[inline]
    fn rest(&self) -> &AppendBitVec {
        self.rest.as_deref().expect("bit past the inline word")
    }

    /// The `k`-th `bit` among the explicit bits, as an explicit position.
    fn select_explicit(&self, bit: bool, k: usize) -> Option<usize> {
        let ones = self.first.count_ones() as usize;
        let in_first = if bit {
            ones
        } else {
            self.first_len as usize - ones
        };
        if k < in_first {
            let valid = self.first_len as usize;
            return Some(select_bit_in_word(self.first, bit, valid, k as u32) as usize);
        }
        let rest = self.rest.as_ref()?;
        rest.select(bit, k - in_first).map(|p| p + 64)
    }
}

impl BitAccess for OffsetBitVec {
    #[inline]
    fn len(&self) -> usize {
        self.implicit_len + self.first_len as usize + self.rest.as_ref().map_or(0, |r| r.len())
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        let Some(j) = i.checked_sub(self.implicit_len) else {
            return self.implicit_bit;
        };
        if j < 64 {
            assert!(j < self.first_len as usize, "index {i} out of bounds");
            (self.first >> j) & 1 != 0
        } else {
            self.rest().get(j - 64)
        }
    }
}

impl BitRank for OffsetBitVec {
    #[inline]
    fn rank1(&self, i: usize) -> usize {
        let Some(j) = i.checked_sub(self.implicit_len) else {
            return if self.implicit_bit { i } else { 0 };
        };
        if j <= 64 {
            assert!(j <= self.first_len as usize, "rank index {i} out of bounds");
            let below = if j == 64 { !0 } else { (1u64 << j) - 1 };
            self.implicit_ones() + (self.first & below).count_ones() as usize
        } else {
            self.implicit_ones() + self.first.count_ones() as usize + self.rest().rank1(j - 64)
        }
    }

    #[inline]
    fn count_ones(&self) -> usize {
        self.implicit_ones()
            + self.first.count_ones() as usize
            + self.rest.as_ref().map_or(0, |r| r.count_ones())
    }
}

impl BitSelect for OffsetBitVec {
    fn select1(&self, k: usize) -> Option<usize> {
        if self.implicit_bit && k < self.implicit_len {
            return Some(k);
        }
        let k = k - self.implicit_ones();
        self.select_explicit(true, k).map(|p| p + self.implicit_len)
    }

    fn select0(&self, k: usize) -> Option<usize> {
        if !self.implicit_bit && k < self.implicit_len {
            return Some(k);
        }
        let k = k - (self.implicit_len - self.implicit_ones());
        self.select_explicit(false, k)
            .map(|p| p + self.implicit_len)
    }
}

impl SpaceUsage for OffsetBitVec {
    /// The vector itself, plus the boxed bits once there are any: the same
    /// from no explicit bit to 64.
    fn size_bits(&self) -> usize {
        8 * std::mem::size_of::<Self>() + self.rest.as_ref().map_or(0, |r| r.size_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::append_only::BLOCK_BITS;
    use crate::RawBitVec;

    fn check_against(model: &[bool], v: &OffsetBitVec) {
        assert_eq!(v.len(), model.len());
        let mut cum = 0usize;
        let mut s1 = 0usize;
        let mut s0 = 0usize;
        for (i, &b) in model.iter().enumerate() {
            assert_eq!(v.get(i), b, "get({i})");
            assert_eq!(v.rank1(i), cum, "rank1({i})");
            cum += b as usize;
            if b {
                assert_eq!(v.select1(s1), Some(i));
                s1 += 1;
            } else {
                assert_eq!(v.select0(s0), Some(i));
                s0 += 1;
            }
        }
        assert_eq!(v.rank1(model.len()), cum);
        assert_eq!(v.count_ones(), cum);
        assert_eq!(v.select1(s1), None);
        assert_eq!(v.select0(s0), None);
        let mut out = RawBitVec::new();
        v.append_into(&mut out);
        assert_eq!(
            out,
            RawBitVec::from_bits(model.iter().copied()),
            "append_into"
        );
    }

    #[test]
    fn init_then_append() {
        for &bit in &[false, true] {
            let mut v = OffsetBitVec::filled(bit, 100);
            let mut model = vec![bit; 100];
            for i in 0..500 {
                let b = i % 3 == 0;
                v.push(b);
                model.push(b);
            }
            check_against(&model, &v);
        }
    }

    #[test]
    fn split_node_pushes_past_the_inline_word() {
        // §4's split: `Init(b, m)`, then the new string's bit, then the
        // bits of later strings. 1–200 pushes run from the inline word
        // into the boxed bits; a clone taken midway grows on its own.
        let mut next = wt_workloads::xorshift(0x5_B117);
        for (bit, m) in [(false, 1), (true, 5), (false, 64), (true, 1000)] {
            for pushes in 1..=200 {
                let mut v = OffsetBitVec::filled(bit, m);
                let mut model = vec![bit; m];
                let mut space_at_first_explicit = None;
                let mut clone = None;
                for k in 0..pushes {
                    let b = if k == 0 {
                        !bit
                    } else {
                        next().is_multiple_of(2)
                    };
                    v.push(b);
                    model.push(b);
                    let explicit = v.len() - v.implicit_len();
                    let space = *space_at_first_explicit.get_or_insert(v.size_bits());
                    if explicit <= 64 {
                        assert_eq!(v.size_bits(), space, "{explicit} explicit bits");
                    }
                    if k == pushes / 2 {
                        clone = Some((v.clone(), model.clone()));
                    }
                }
                check_against(&model, &v);
                let (mut c, mut cm) = clone.expect("taken midway");
                for _ in 0..pushes / 2 {
                    let b = next().is_multiple_of(3);
                    c.push(b);
                    cm.push(b);
                }
                check_against(&cm, &c);
            }
        }
    }

    #[test]
    fn boxed_bits_cross_their_first_seal() {
        // The boxed bits start at explicit bit 64 and seal their first
        // block `BLOCK_BITS` bits later; a clone taken mid-seal finishes
        // its own copy.
        let mut next = wt_workloads::xorshift(0x000F_F5E7);
        for bit in [false, true] {
            let mut v = OffsetBitVec::filled(bit, 7);
            let mut model = vec![bit; 7];
            let mut clone = None;
            for k in 0..64 + BLOCK_BITS + 100 {
                let b = if k == 0 {
                    !bit
                } else {
                    next().is_multiple_of(3)
                };
                v.push(b);
                model.push(b);
                if k == 64 + BLOCK_BITS + 10 {
                    clone = Some((v.clone(), model.clone()));
                }
            }
            check_against(&model, &v);
            let (mut c, mut cm) = clone.expect("taken mid-seal");
            for _ in 0..100 {
                let b = next().is_multiple_of(2);
                c.push(b);
                cm.push(b);
            }
            check_against(&cm, &c);
        }
    }

    #[test]
    fn implicit_run_extends_while_constant() {
        let mut v = OffsetBitVec::filled(true, 10);
        v.push(true);
        v.push(true);
        assert_eq!(v.implicit_len(), 12);
        v.push(false);
        v.push(true); // now physical
        assert_eq!(v.implicit_len(), 12);
        check_against(&[vec![true; 12], vec![false, true]].concat(), &v);
    }

    #[test]
    fn empty_starts_fresh() {
        let mut v = OffsetBitVec::new();
        v.push(true);
        v.push(false);
        check_against(&[true, false], &v);
    }

    #[test]
    fn empty_vector_runs_with_its_first_bit() {
        // Leading ones go implicit exactly as leading zeros do.
        for bit in [false, true] {
            let mut v = OffsetBitVec::new();
            let empty = v.size_bits();
            for _ in 0..100 {
                v.push(bit);
            }
            assert_eq!(v.implicit_len(), 100, "run of {bit}");
            assert_eq!(v.size_bits(), empty, "run of {bit}");
            v.push(!bit);
            assert_eq!(v.implicit_len(), 100);
            check_against(&[vec![bit; 100], vec![!bit]].concat(), &v);
        }
    }

    #[test]
    fn init_space_independent_of_n() {
        let v = OffsetBitVec::filled(false, 1 << 40);
        // A few words, independent of n = 2^40: nothing is allocated.
        assert!(v.size_bits() < 1024);
        assert_eq!(v.rank0(1 << 39), 1 << 39);
    }
}
