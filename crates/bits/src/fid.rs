//! Fully Indexable Dictionary over a plain bitvector.
//!
//! [`Fid`] augments a [`RawBitVec`] with a rank9-style two-level rank
//! directory (O(1) rank, ~25% overhead) and sampled select hints
//! (O(log) worst-case select over a narrow window, O(1)-ish in practice).
//! This is the *uncompressed* FID; the compressed counterpart is
//! [`crate::RrrVector`] (§2 of the paper, "Bitvectors and FIDs").

use crate::broadword::{
    count_bit_in_word, prefetch_read, select_bit_in_word, select_block, PIPELINE_LANES,
};
use crate::persist::{LoadError, Persist, WordsReader};
use crate::words::{U32Words, Words};
use crate::{RawBitVec, SpaceUsage};

/// Bits covered by one rank superblock (8 words).
const BLOCK_BITS: usize = 512;
const WORDS_PER_BLOCK: usize = BLOCK_BITS / 64;
/// One select hint is stored for every `SELECT_SAMPLE` set (resp. unset)
/// bits. 1024 pins the binary-search window to ≤ 3 blocks (32 bits of hint
/// per 1024 target bits ≈ 0.03 bits/bit of overhead) — selects are the
/// inner loop of every Elias–Fano delimiter probe on the Wavelet-Trie
/// descent path, where the old 8192-sample windows made the search and
/// scan the dominant per-level compute.
const SELECT_SAMPLE: usize = 1024;

/// Read-only positional access to a sequence of bits.
pub trait BitAccess {
    /// Number of bits.
    fn len(&self) -> usize;
    /// Whether the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Bit at position `i` (`i < len`).
    fn get(&self, i: usize) -> bool;
}

/// Counting queries: `rank1(i)` = number of set bits in `[0, i)`.
pub trait BitRank: BitAccess {
    /// Number of set bits in `[0, i)`; `i` may equal `len()`.
    fn rank1(&self, i: usize) -> usize;

    /// Number of unset bits in `[0, i)`.
    fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// `rank1` or `rank0` depending on `bit`.
    fn rank(&self, bit: bool, i: usize) -> usize {
        if bit {
            self.rank1(i)
        } else {
            self.rank0(i)
        }
    }

    /// Total number of set bits.
    fn count_ones(&self) -> usize {
        self.rank1(self.len())
    }

    /// Total number of unset bits.
    fn count_zeros(&self) -> usize {
        self.len() - self.count_ones()
    }
}

/// Positional queries: `select1(k)` = position of the `k`-th (0-based) set bit.
pub trait BitSelect: BitRank {
    /// Position of the `k`-th set bit, or `None` if there are `<= k` ones.
    fn select1(&self, k: usize) -> Option<usize>;

    /// Position of the `k`-th unset bit, or `None` if there are `<= k` zeros.
    fn select0(&self, k: usize) -> Option<usize>;

    /// `select1` or `select0` depending on `bit`.
    fn select(&self, bit: bool, k: usize) -> Option<usize> {
        if bit {
            self.select1(k)
        } else {
            self.select0(k)
        }
    }
}

/// An uncompressed bitvector with O(1) rank and fast select.
#[derive(Clone, Debug)]
pub struct Fid {
    bits: RawBitVec,
    /// Absolute rank before each 512-bit block.
    block_rank: Words,
    /// Packed 9-bit relative ranks before words 1..=7 of each block
    /// (rank9 second level).
    sub_rank: Words,
    ones: usize,
    /// Block index containing the `(k*SELECT_SAMPLE)`-th one.
    hints1: U32Words,
    /// Block index containing the `(k*SELECT_SAMPLE)`-th zero.
    hints0: U32Words,
}

impl Fid {
    /// Builds the directory over `bits`, dropping their growth slack so
    /// the built footprint equals the loaded one.
    pub fn new(mut bits: RawBitVec) -> Self {
        bits.shrink_to_fit();
        let n_blocks = bits.len().div_ceil(BLOCK_BITS).max(1);
        let mut block_rank = Vec::with_capacity(n_blocks + 1);
        let mut sub_rank = Vec::with_capacity(n_blocks);
        let mut hints1 = Vec::new();
        let mut hints0 = Vec::new();
        let mut ones = 0u64;
        for b in 0..n_blocks {
            block_rank.push(ones);
            let mut packed = 0u64;
            let mut within = 0u64;
            for w in 0..WORDS_PER_BLOCK {
                if w > 0 {
                    packed |= within << (9 * (w - 1));
                }
                within += bits.word(b * WORDS_PER_BLOCK + w).count_ones() as u64;
            }
            sub_rank.push(packed);
            ones += within;
        }
        block_rank.push(ones);
        // hints1[k] = index of the block containing the (k*SELECT_SAMPLE)-th
        // one; likewise hints0 for zeros.
        let total_ones = ones as usize;
        let total_zeros = bits.len() - total_ones;
        let mut b = 0usize;
        for k in (0..total_ones).step_by(SELECT_SAMPLE) {
            while block_rank[b + 1] <= k as u64 {
                b += 1;
            }
            hints1.push(b as u32);
        }
        let zeros_before = |blk: usize| (blk * BLOCK_BITS).min(bits.len()) as u64 - block_rank[blk];
        let mut b = 0usize;
        for k in (0..total_zeros).step_by(SELECT_SAMPLE) {
            while zeros_before(b + 1) <= k as u64 {
                b += 1;
            }
            hints0.push(b as u32);
        }
        Fid {
            bits,
            block_rank: block_rank.into(),
            sub_rank: sub_rank.into(),
            ones: total_ones,
            hints1: U32Words::from_vec(hints1),
            hints0: U32Words::from_vec(hints0),
        }
    }

    /// Builds from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::new(RawBitVec::from_bits(iter))
    }

    /// The underlying raw bits.
    #[inline]
    pub fn raw(&self) -> &RawBitVec {
        &self.bits
    }

    #[inline]
    fn sub(&self, block: usize, word_in_block: usize) -> u64 {
        if word_in_block == 0 {
            0
        } else {
            (self.sub_rank[block] >> (9 * (word_in_block - 1))) & 0x1FF
        }
    }

    /// Hints the CPU to load the rank directory entries and data word a
    /// `rank`/`get` at position `i` will touch. Issued for every lane of a
    /// batch before any lane resolves, so the misses overlap.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        let block = i / BLOCK_BITS;
        prefetch_read(self.block_rank.as_ptr().wrapping_add(block));
        prefetch_read(self.sub_rank.as_ptr().wrapping_add(block));
        self.bits.prefetch(i);
    }

    /// Batched `select1` over in-bounds ranks, software-pipelined in three
    /// phases per chunk of lanes: prefetch every lane's hint window of the
    /// block-rank directory, then binary-search each lane's block (the
    /// window is now resident) while prefetching that block's data words,
    /// then scan. This is the staged core under the Elias–Fano batch entry
    /// points — a scalar EF probe serializes two to three misses that this
    /// pipeline overlaps across lanes.
    ///
    /// # Panics
    /// If the slices differ in length or any `k >= count_ones()`.
    pub fn select1_batch(&self, ks: &[usize], out: &mut [usize]) {
        assert_eq!(ks.len(), out.len(), "batch length mismatch");
        let mut range = [(0usize, 0usize); PIPELINE_LANES];
        let mut blk = [0usize; PIPELINE_LANES];
        for (chunk, outs) in ks
            .chunks(PIPELINE_LANES)
            .zip(out.chunks_mut(PIPELINE_LANES))
        {
            for (r, &k) in range.iter_mut().zip(chunk) {
                assert!(k < self.ones, "select1 rank {k} out of bounds");
                let hi = k / SELECT_SAMPLE;
                let lo_block = self.hints1.get(hi) as usize;
                let hi_block = self
                    .hints1
                    .get_opt(hi + 1)
                    .map(|b| b as usize + 1)
                    .unwrap_or(self.block_rank.len() - 1);
                // The whole window the binary search can touch (8 u64
                // directory entries per line; cap the round for very
                // sparse vectors with wide windows).
                let mut b = lo_block;
                let mut budget = 8;
                while b <= hi_block && budget > 0 {
                    prefetch_read(self.block_rank.as_ptr().wrapping_add(b));
                    b += 8;
                    budget -= 1;
                }
                *r = (lo_block, hi_block);
            }
            for ((b, &(lo, hi)), &k) in blk.iter_mut().zip(&range).zip(chunk) {
                let block = select_block(lo, hi, k, |blk| self.block_rank[blk] as usize);
                // The resolve round reads the sub-rank word plus one data
                // word somewhere in the block's two cache lines.
                prefetch_read(self.sub_rank.as_ptr().wrapping_add(block));
                self.bits.prefetch(block * BLOCK_BITS);
                self.bits.prefetch(block * BLOCK_BITS + BLOCK_BITS - 64);
                *b = block;
            }
            for ((o, &block), &k) in outs.iter_mut().zip(&blk).zip(chunk) {
                *o = self.select1_in_block(block, k - self.block_rank[block] as usize);
            }
        }
    }

    #[inline]
    fn zeros_before_block(&self, blk: usize) -> usize {
        (blk * BLOCK_BITS).min(self.bits.len()) - self.block_rank[blk] as usize
    }

    /// Resolves the `remaining`-th one inside `block` with **no word
    /// scan**: the rank9 sub-rank word pins the target word with seven
    /// in-register compares, so only that one data word is loaded. Safe
    /// for ones regardless of padding (padding bits are zero).
    ///
    /// Requires the block to actually contain the target.
    #[inline]
    fn select1_in_block(&self, block: usize, remaining: usize) -> usize {
        let packed = self.sub_rank[block];
        let mut w = 0usize;
        for t in 1..WORDS_PER_BLOCK {
            let before = ((packed >> (9 * (t - 1))) & 0x1FF) as usize;
            w += (before <= remaining) as usize;
        }
        let before = if w == 0 {
            0
        } else {
            ((packed >> (9 * (w - 1))) & 0x1FF) as usize
        };
        let word_idx = block * WORDS_PER_BLOCK + w;
        let word = self.bits.word(word_idx);
        let pos = word_idx * 64
            + crate::broadword::select_in_word(word, (remaining - before) as u32) as usize;
        debug_assert!(pos < self.bits.len());
        pos
    }

    /// Shared select kernel: `bit` chooses ones/zeros.
    fn select_generic(&self, bit: bool, k: usize) -> Option<usize> {
        let total = if bit {
            self.ones
        } else {
            self.bits.len() - self.ones
        };
        if k >= total {
            return None;
        }
        let hints = if bit { &self.hints1 } else { &self.hints0 };
        let hi = k / SELECT_SAMPLE;
        let lo_block = hints.get(hi) as usize;
        let hi_block = hints
            .get_opt(hi + 1)
            .map(|b| b as usize + 1)
            .unwrap_or(self.block_rank.len() - 1);
        // Binary search for the block containing the k-th target bit.
        let count_before = |blk: usize| {
            if bit {
                self.block_rank[blk] as usize
            } else {
                self.zeros_before_block(blk)
            }
        };
        let block = select_block(lo_block, hi_block, k, count_before);
        if bit {
            return Some(self.select1_in_block(block, k - count_before(block)));
        }
        let mut remaining = (k - count_before(block)) as u32;
        // Zeros: scan the (at most 8) words of the block — the sub-rank
        // jump would miscount the zero-padding of a final partial word.
        for w in 0..WORDS_PER_BLOCK {
            let word_idx = block * WORDS_PER_BLOCK + w;
            let word = self.bits.word(word_idx);
            // Padding past len must not count as zeros in the final word.
            let valid = self.bits.len().saturating_sub(word_idx * 64).min(64);
            let c = count_bit_in_word(word, bit, valid);
            if remaining < c {
                let pos = word_idx * 64 + select_bit_in_word(word, bit, valid, remaining) as usize;
                debug_assert!(pos < self.bits.len());
                return Some(pos);
            }
            remaining -= c;
        }
        unreachable!("select hint directory inconsistent");
    }
}

impl BitAccess for Fid {
    #[inline]
    fn len(&self) -> usize {
        self.bits.len()
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        self.bits.get(i)
    }
}

impl BitRank for Fid {
    #[inline]
    fn rank1(&self, i: usize) -> usize {
        assert!(i <= self.bits.len(), "rank index {i} out of bounds");
        let block = i / BLOCK_BITS;
        let word = (i % BLOCK_BITS) / 64;
        let mut r = self.block_rank[block] as usize + self.sub(block, word) as usize;
        let off = i % 64;
        if off != 0 {
            r += (self.bits.word(block * WORDS_PER_BLOCK + word) & ((1u64 << off) - 1)).count_ones()
                as usize;
        }
        r
    }

    #[inline]
    fn count_ones(&self) -> usize {
        self.ones
    }
}

impl BitSelect for Fid {
    #[inline]
    fn select1(&self, k: usize) -> Option<usize> {
        self.select_generic(true, k)
    }

    #[inline]
    fn select0(&self, k: usize) -> Option<usize> {
        self.select_generic(false, k)
    }
}

impl SpaceUsage for Fid {
    fn size_bits(&self) -> usize {
        self.bits.size_bits()
            + self.block_rank.size_bits()
            + self.sub_rank.size_bits()
            + self.hints1.size_bits()
            + self.hints0.size_bits()
            + 64
    }
}

impl Persist for Fid {
    fn encode(&self, out: &mut Vec<u64>) {
        self.bits.encode(out);
        self.block_rank.encode(out);
        self.sub_rank.encode(out);
        out.push(self.ones as u64);
        self.hints1.encode(out);
        self.hints0.encode(out);
    }

    fn decode(r: &mut WordsReader) -> Result<Self, LoadError> {
        let bits = RawBitVec::decode(r)?;
        let block_rank = Words::decode(r)?;
        let sub_rank = Words::decode(r)?;
        let ones = r.read_len()?;
        let hints1 = U32Words::decode(r)?;
        let hints0 = U32Words::decode(r)?;
        // Structural invariants the query paths rely on, all checked at
        // directory (word) granularity — never per bit.
        let n_blocks = bits.len().div_ceil(BLOCK_BITS).max(1);
        if block_rank.len() != n_blocks + 1 || sub_rank.len() != n_blocks {
            return Err(LoadError::Invalid("fid directory length"));
        }
        if block_rank[0] != 0 || block_rank[n_blocks] != ones as u64 || ones > bits.len() {
            return Err(LoadError::Invalid("fid rank totals"));
        }
        for b in 0..n_blocks {
            if block_rank[b + 1] < block_rank[b]
                || block_rank[b + 1] - block_rank[b] > BLOCK_BITS as u64
            {
                return Err(LoadError::Invalid("fid rank directory not monotone"));
            }
        }
        let zeros = bits.len() - ones;
        if hints1.len() != ones.div_ceil(SELECT_SAMPLE)
            || hints0.len() != zeros.div_ceil(SELECT_SAMPLE)
        {
            return Err(LoadError::Invalid("fid hint length"));
        }
        for hints in [&hints1, &hints0] {
            for k in 0..hints.len() {
                let b = hints.get(k) as usize;
                if b >= n_blocks || (k > 0 && b < hints.get(k - 1) as usize) {
                    return Err(LoadError::Invalid("fid hint out of range"));
                }
            }
        }
        Ok(Fid {
            bits,
            block_rank,
            sub_rank,
            ones,
            hints1,
            hints0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_workloads::xorshift;

    fn check_against_scan(bits: &RawBitVec) {
        let fid = Fid::new(bits.clone());
        assert_eq!(fid.len(), bits.len());
        assert_eq!(fid.count_ones(), bits.count_ones());
        let step = (bits.len() / 257).max(1);
        for i in (0..=bits.len()).step_by(step) {
            assert_eq!(fid.rank1(i), bits.rank1_scan(i), "rank1({i})");
            assert_eq!(fid.rank0(i), i - bits.rank1_scan(i), "rank0({i})");
        }
        let ones = bits.count_ones();
        let kstep = (ones / 311).max(1);
        for k in (0..ones).step_by(kstep) {
            assert_eq!(fid.select1(k), bits.select1_scan(k), "select1({k})");
        }
        assert_eq!(fid.select1(ones), None);
        let zeros = bits.len() - ones;
        let kstep = (zeros / 311).max(1);
        for k in (0..zeros).step_by(kstep) {
            assert_eq!(fid.select0(k), bits.select0_scan(k), "select0({k})");
        }
        assert_eq!(fid.select0(zeros), None);
    }

    #[test]
    fn empty() {
        let fid = Fid::new(RawBitVec::new());
        assert_eq!(fid.len(), 0);
        assert_eq!(fid.rank1(0), 0);
        assert_eq!(fid.select1(0), None);
        assert_eq!(fid.select0(0), None);
    }

    #[test]
    fn all_ones_all_zeros() {
        check_against_scan(&RawBitVec::filled(true, 10_000));
        check_against_scan(&RawBitVec::filled(false, 10_000));
        check_against_scan(&RawBitVec::filled(true, 511));
        check_against_scan(&RawBitVec::filled(false, 513));
    }

    #[test]
    fn periodic_patterns() {
        for period in [2usize, 3, 7, 64, 65, 511, 512] {
            let bits = RawBitVec::from_bits((0..20_000).map(|i| i % period == 0));
            check_against_scan(&bits);
        }
    }

    #[test]
    fn pseudorandom_dense_and_sparse() {
        let mut next = xorshift(12345);
        for &density in &[1u64, 8, 128, 4096] {
            let bits = RawBitVec::from_bits((0..50_000).map(|_| next().is_multiple_of(density)));
            check_against_scan(&bits);
        }
    }

    #[test]
    fn rank_select_inverse() {
        let bits = RawBitVec::from_bits((0..30_000).map(|i| (i * i) % 17 < 5));
        let fid = Fid::new(bits);
        for k in (0..fid.count_ones()).step_by(97) {
            let p = fid.select1(k).unwrap();
            assert!(fid.get(p));
            assert_eq!(fid.rank1(p), k);
            assert_eq!(fid.rank1(p + 1), k + 1);
        }
    }

    #[test]
    fn boundary_sizes() {
        for n in [
            1usize, 63, 64, 65, 127, 128, 129, 512, 513, 8191, 8192, 8193,
        ] {
            let bits = RawBitVec::from_bits((0..n).map(|i| i % 2 == 1));
            check_against_scan(&bits);
        }
    }
}
