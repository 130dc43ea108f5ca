//! [`OffsetBitVec`]: an append-only bitvector with an implicit constant
//! prefix.
//!
//! §4 of the paper: *"in the append-only case, `Init` can be implemented
//! simply by adding a left offset in each bitvector, which increments each
//! bitvector space by O(log n) and can be checked in constant time."* The
//! append-only Wavelet Trie creates node bitvectors as `b^m` followed only
//! by appends; we store the run `b^m` as two words and delegate the suffix
//! to an [`AppendBitVec`].

use crate::{AppendBitVec, BitAccess, BitRank, BitSelect, SpaceUsage};

/// Append-only bitvector whose first `implicit_len` bits are all equal to
/// `implicit_bit` and stored implicitly.
#[derive(Clone, Debug, Default)]
pub struct OffsetBitVec {
    implicit_bit: bool,
    implicit_len: usize,
    rest: AppendBitVec,
}

impl OffsetBitVec {
    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// `Init(b, n)`: `n` copies of `bit` in O(1) time and space.
    pub fn filled(bit: bool, n: usize) -> Self {
        OffsetBitVec {
            implicit_bit: bit,
            implicit_len: n,
            rest: AppendBitVec::new(),
        }
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        if self.rest.is_empty() && bit == self.implicit_bit {
            // Extend the implicit run for free (also covers the empty case).
            if self.implicit_len == 0 {
                self.implicit_bit = bit;
            }
            self.implicit_len += 1;
        } else {
            self.rest.push(bit);
        }
    }

    /// Length of the implicit constant prefix (for space accounting tests).
    pub fn implicit_len(&self) -> usize {
        self.implicit_len
    }

    /// Appends every bit to `out`: the implicit run goes word-wise, the
    /// explicit suffix via [`AppendBitVec::append_into`]'s sequential
    /// block decode. Bulk export for the structural freeze path.
    pub fn append_into(&self, out: &mut crate::RawBitVec) {
        out.push_run(self.implicit_bit, self.implicit_len);
        self.rest.append_into(out);
    }
}

impl BitAccess for OffsetBitVec {
    #[inline]
    fn len(&self) -> usize {
        self.implicit_len + self.rest.len()
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        if i < self.implicit_len {
            self.implicit_bit
        } else {
            self.rest.get(i - self.implicit_len)
        }
    }
}

impl BitRank for OffsetBitVec {
    fn rank1(&self, i: usize) -> usize {
        if i <= self.implicit_len {
            if self.implicit_bit {
                i
            } else {
                0
            }
        } else {
            let prefix = if self.implicit_bit {
                self.implicit_len
            } else {
                0
            };
            prefix + self.rest.rank1(i - self.implicit_len)
        }
    }

    fn count_ones(&self) -> usize {
        let prefix = if self.implicit_bit {
            self.implicit_len
        } else {
            0
        };
        prefix + self.rest.count_ones()
    }
}

impl BitSelect for OffsetBitVec {
    fn select1(&self, k: usize) -> Option<usize> {
        if self.implicit_bit && k < self.implicit_len {
            return Some(k);
        }
        let prefix = if self.implicit_bit {
            self.implicit_len
        } else {
            0
        };
        self.rest.select1(k - prefix).map(|p| p + self.implicit_len)
    }

    fn select0(&self, k: usize) -> Option<usize> {
        if !self.implicit_bit && k < self.implicit_len {
            return Some(k);
        }
        let prefix = if self.implicit_bit {
            0
        } else {
            self.implicit_len
        };
        self.rest.select0(k - prefix).map(|p| p + self.implicit_len)
    }
}

impl SpaceUsage for OffsetBitVec {
    fn size_bits(&self) -> usize {
        2 * 64 + self.rest.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(v.select1(s1), None);
        assert_eq!(v.select0(s0), None);
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
        // bits of later strings.
        let mut next = wt_workloads::xorshift(0x5_B117);
        for (bit, m) in [(false, 1), (true, 5), (false, 64), (true, 1000)] {
            for pushes in 1..=70 {
                let mut v = OffsetBitVec::filled(bit, m);
                let mut model = vec![bit; m];
                let mut space_at_first_explicit = None;
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
                }
                check_against(&model, &v);
            }
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
    fn init_space_independent_of_n() {
        let v = OffsetBitVec::filled(false, 1 << 40);
        // A few words, independent of n = 2^40: nothing is allocated.
        assert!(v.size_bits() < 1024);
        assert_eq!(v.rank0(1 << 39), 1 << 39);
    }
}
