//! RRR compressed bitvector [Raman–Raman–Rao'07], §2 of the paper.
//!
//! The bitvector is split into blocks of 63 bits. Each block is encoded as a
//! (class, offset) pair: the class is the block's popcount (6 bits) and the
//! offset is the block's index in the enumeration of all 63-bit words with
//! that popcount (combinatorial number system, ⌈log₂ C(63,c)⌉ bits). The
//! exception is the near-½-density classes 22–41, whose offsets would need
//! ≥ 56 bits: those blocks store their 63 raw bits instead, so the class is
//! also the tag, and a query on one is a mask and a popcount rather than a
//! decode walk of up to 63 steps.
//! Superblocks of SB_BLOCKS blocks store an absolute rank and an absolute bit
//! pointer into the offset stream, so every query touches at most one
//! superblock walk (a bounded constant amount of work).
//!
//! Space is the paper's `B(m, n) + o(n)` bits except for the verbatim
//! blocks: each costs 63 − ⌈log₂ C(63,c)⌉ ≤ 7 bits more than its offset
//! would, and only blocks in classes 22–41 pay it. Operations are O(1) for
//! access/rank/select: superblock walks read all sixteen 6-bit classes with
//! two word loads and decode only the portion of the target block a query
//! needs, and select starts from a sampled hint directory instead of a
//! global binary search (DESIGN.md substitutions #1/#9).

use crate::broadword::{
    prefetch_read, select_bit_in_word, select_block, PIPELINE_LANES as BATCH_LANES,
};
use crate::persist::{LoadError, Persist, WordsReader};
use crate::words::{U32Words, Words};
use crate::{BitAccess, BitRank, BitSelect, RawBitVec, SpaceUsage};

/// Bits per RRR block; 63 so class+offset arithmetic fits in `u64`.
pub const RRR_BLOCK_BITS: usize = 63;
/// Blocks per superblock: walks touch at most this many classes, so it
/// trades directory space (64+64 bits per superblock) for query constants.
const SB_BLOCKS: usize = 16;
const CLASS_BITS: usize = 6;
/// One select hint (a superblock index) per this many ones/zeros:
/// 32 bits of directory per 4096 target bits keeps the overhead below
/// 0.01 bits/bit while bounding the select search window to the few
/// superblocks a sample interval spans.
const SELECT_SAMPLE: usize = 4096;

/// Pascal's triangle up to n = 63; `C(63, 31)` fits comfortably in `u64`.
const fn binomial_table() -> [[u64; 64]; 64] {
    let mut t = [[0u64; 64]; 64];
    let mut n = 0;
    while n < 64 {
        t[n][0] = 1;
        let mut k = 1;
        while k <= n {
            t[n][k] = t[n - 1][k - 1] + if k < n { t[n - 1][k] } else { 0 };
            k += 1;
        }
        n += 1;
    }
    t
}

static BINOM: [[u64; 64]; 64] = binomial_table();

/// Offset width from which a class is stored verbatim (classes 22–41):
/// 63 raw bits cost at most 7 bits more than such an offset and replace
/// its decode walk with a mask and a popcount. EXPERIMENTS.md (E12)
/// records the threshold sweep behind the value.
const VERBATIM_MIN_WIDTH: u8 = 56;

/// Stored width of a verbatim block. The widest offset (class 31's) takes
/// 60 bits, so this width alone tags a block as verbatim.
const VERBATIM: usize = RRR_BLOCK_BITS;

/// Stored width in bits for each class: ⌈log₂ C(63, c)⌉, or [`VERBATIM`]
/// once that reaches [`VERBATIM_MIN_WIDTH`].
const fn offset_widths() -> [u8; 64] {
    let mut w = [0u8; 64];
    let mut c = 0;
    while c <= 63 {
        let count = BINOM[63][c] as u128;
        // smallest `bits` with 2^bits >= count
        let mut bits = 0u8;
        while (1u128 << bits) < count {
            bits += 1;
        }
        w[c] = if bits >= VERBATIM_MIN_WIDTH {
            VERBATIM as u8
        } else {
            bits
        };
        c += 1;
    }
    w
}

const OFFSET_WIDTH: [u8; 64] = offset_widths();

/// What a block of class `c` stores: the word itself in a verbatim class,
/// its combinatorial offset otherwise.
#[inline]
fn stored_offset(word: u64, c: u32) -> u64 {
    if OFFSET_WIDTH[c as usize] as usize == VERBATIM {
        word
    } else {
        block_rank_offset(word, c)
    }
}

/// The low `bits` bits of a word (`bits < 64`).
#[inline]
fn low_bits(word: u64, bits: usize) -> u64 {
    word & ((1u64 << bits) - 1)
}

/// Encodes a 63-bit block of class `c` into its combinatorial offset.
#[inline]
fn block_rank_offset(word: u64, c: u32) -> u64 {
    debug_assert_eq!(word >> 63, 0);
    debug_assert_eq!(word.count_ones(), c);
    let mut off = 0u64;
    let mut remaining = c as usize;
    let mut i = RRR_BLOCK_BITS;
    while remaining > 0 {
        i -= 1;
        if (word >> i) & 1 != 0 {
            off += BINOM[i][remaining];
            remaining -= 1;
        }
    }
    off
}

/// Decodes a combinatorial offset back into the 63-bit block.
///
/// The walk is branchless: each step turns the `off >= C(i, remaining)`
/// comparison into a mask instead of a 50%-unpredictable branch, so the
/// loop retires at the dependency-chain rate (a table load + subtract per
/// bit) rather than the mispredict rate — the decode loops are the
/// single hottest compute in every dense-bitvector query.
#[inline]
fn block_unrank_offset(mut off: u64, c: u32) -> u64 {
    let mut word = 0u64;
    let mut remaining = c as usize;
    let mut i = RRR_BLOCK_BITS;
    while remaining > 0 {
        i -= 1;
        let b = BINOM[i][remaining];
        let take = (off >= b) as u64;
        let mask = take.wrapping_neg();
        off -= b & mask;
        word |= (1u64 << i) & mask;
        remaining -= take as usize;
    }
    debug_assert_eq!(off, 0);
    word
}

/// Superblock directory: per entry an absolute rank and an absolute
/// offset-stream bit pointer, interleaved `(rank, ptr)` pairs in word
/// storage so a block locate touches one cache line and the directory
/// serializes as-is.
#[derive(Clone, Debug, Default)]
struct SbDir {
    words: Words,
}

impl SbDir {
    fn from_parts(sb_rank: &[u64], sb_ptr: &[u64]) -> Self {
        let mut words = Vec::with_capacity(sb_rank.len() * 2);
        for (&r, &p) in sb_rank.iter().zip(sb_ptr) {
            words.push(r);
            words.push(p);
        }
        SbDir {
            words: words.into(),
        }
    }

    /// Number of entries (including the sentinel).
    #[inline]
    fn len(&self) -> usize {
        self.words.len() / 2
    }

    /// Ones before superblock `i`.
    #[inline]
    fn rank(&self, i: usize) -> u64 {
        self.words[2 * i]
    }

    /// Bit index into the offset stream at superblock `i`'s start.
    #[inline]
    fn ptr(&self, i: usize) -> u64 {
        self.words[2 * i + 1]
    }

    #[inline]
    fn prefetch(&self, i: usize) {
        prefetch_read(self.words.as_ptr().wrapping_add(2 * i));
    }
}

/// Sampled select hints: the superblock holding every
/// `SELECT_SAMPLE`-th one and zero, derived from the rank directory alone
/// (`sb` includes its sentinel). Vectors spanning only a handful of
/// superblocks get none — the fallback binary search is already 2–3
/// probes there, and the many small node bitvectors of a Wavelet Trie then
/// pay no hint memory.
fn select_hints(len: usize, ones: usize, sb: &SbDir) -> (Vec<u32>, Vec<u32>) {
    let mut hints1 = Vec::new();
    let mut hints0 = Vec::new();
    if sb.len() > 5 {
        let total_zeros = len - ones;
        let zeros_before =
            |i: usize| (i * SB_BLOCKS * RRR_BLOCK_BITS).min(len) - sb.rank(i) as usize;
        hints1.reserve_exact(ones / SELECT_SAMPLE + 1);
        hints0.reserve_exact(total_zeros / SELECT_SAMPLE + 1);
        let mut i = 0usize;
        for k in (0..ones).step_by(SELECT_SAMPLE) {
            while (sb.rank(i + 1) as usize) <= k {
                i += 1;
            }
            hints1.push(i as u32);
        }
        let mut i = 0usize;
        for k in (0..total_zeros).step_by(SELECT_SAMPLE) {
            while zeros_before(i + 1) <= k {
                i += 1;
            }
            hints0.push(i as u32);
        }
    }
    (hints1, hints0)
}

/// An immutable entropy-compressed bitvector with constant-time access/rank.
#[derive(Clone, Debug)]
pub struct RrrVector {
    len: usize,
    ones: usize,
    /// 6-bit class per block (fixed width, random access).
    classes: RawBitVec,
    /// Variable-width combinatorial offsets, one per block.
    offsets: RawBitVec,
    /// Superblock directory (+ final sentinel).
    sb: SbDir,
    /// Superblock containing the `(k·SELECT_SAMPLE)`-th one.
    hints1: U32Words,
    /// Superblock containing the `(k·SELECT_SAMPLE)`-th zero.
    hints0: U32Words,
}

impl RrrVector {
    /// Compresses `bits`.
    pub fn new(bits: &RawBitVec) -> Self {
        let mut b = RrrBuilder::new(bits.len());
        let n_blocks = bits.len().div_ceil(RRR_BLOCK_BITS);
        for i in 0..n_blocks {
            let start = i * RRR_BLOCK_BITS;
            let width = RRR_BLOCK_BITS.min(bits.len() - start);
            b.push_block(bits.get_bits(start, width));
        }
        b.finish()
    }

    /// Builds from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::new(&RawBitVec::from_bits(iter))
    }

    /// The first `count` classes of superblock `sb`, packed LSB-first
    /// 6 bits each (at most `16 × 6 = 96` bits). One word-level load when
    /// `count ≤ 10`, two otherwise.
    #[inline]
    fn sb_classes(&self, sb: usize, count: usize) -> u128 {
        let start = sb * SB_BLOCKS * CLASS_BITS;
        let avail = (count * CLASS_BITS).min(self.classes.len() - start);
        let lo = self.classes.get_bits(start, avail.min(64)) as u128;
        if avail > 64 {
            lo | (self.classes.get_bits(start + 64, (avail - 64).min(32)) as u128) << 64
        } else {
            lo
        }
    }

    /// Decodes the block with class `c` whose offset starts at bit `ptr`.
    #[inline]
    fn decode_block_with(&self, c: u32, ptr: usize) -> u64 {
        let w = OFFSET_WIDTH[c as usize] as usize;
        let off = if w == 0 {
            0
        } else {
            self.offsets.get_bits(ptr, w)
        };
        if w == VERBATIM {
            return off;
        }
        block_unrank_offset(off, c)
    }

    /// Walks a superblock's packed classes to find
    /// `(rank_before_block, offset_ptr, class)` of `block` — a bounded
    /// ≤ 15-step scan over register-resident classes, no per-block reads.
    #[inline]
    fn locate_block(&self, block: usize) -> (usize, usize, u32) {
        let sb = block / SB_BLOCKS;
        let mut rank = self.sb.rank(sb) as usize;
        let mut ptr = self.sb.ptr(sb) as usize;
        let mut cls = self.sb_classes(sb, block % SB_BLOCKS + 1);
        for _ in sb * SB_BLOCKS..block {
            let c = (cls & 63) as usize;
            cls >>= CLASS_BITS;
            rank += c;
            ptr += OFFSET_WIDTH[c] as usize;
        }
        (rank, ptr, (cls & 63) as u32)
    }

    /// Ones among the low `off` bits of the block with class `c` and offset
    /// pointer `ptr`: a verbatim block masks and counts; otherwise the
    /// combinatorial decode runs only over positions `>= off` — the ones
    /// not yet placed when the walk reaches `off` are exactly the ones
    /// below it.
    #[inline]
    fn block_rank_low(&self, c: u32, ptr: usize, off: usize) -> usize {
        let w = OFFSET_WIDTH[c as usize] as usize;
        if w == 0 {
            // Class 0 (all zeros) or 63 (all valid bits set).
            return if c == 0 { 0 } else { off };
        }
        let mut offv = self.offsets.get_bits(ptr, w);
        if w == VERBATIM {
            return low_bits(offv, off).count_ones() as usize;
        }
        if c == 1 {
            return (offv < off as u64) as usize;
        }
        let mut remaining = c as usize;
        let mut i = RRR_BLOCK_BITS;
        // Branchless walk (see `block_unrank_offset`) with a *fixed* trip
        // count: once `remaining` hits 0 the residual offset is 0 and
        // every further step is a no-op (`0 >= C(i,0) = 1` is false), so
        // dropping the data-dependent exit leaves the loop perfectly
        // predicted.
        while i > off {
            i -= 1;
            let b = BINOM[i][remaining];
            let take = (offv >= b) as u64;
            offv -= b & take.wrapping_neg();
            remaining -= take as usize;
        }
        remaining
    }

    /// Position of the `k`-th (0-based, from the bottom) `bit`-valued entry
    /// of the block with class `c`, offset pointer `ptr` and `valid` data
    /// bits. A verbatim block is selected in-word; otherwise the
    /// combinatorial decode runs from position `valid` downward and stops
    /// at the target instead of materialising the whole block.
    ///
    /// Requires `k < c` (ones) resp. `k < valid − c` (zeros).
    #[inline]
    fn block_select(&self, c: u32, ptr: usize, bit: bool, k: usize, valid: usize) -> usize {
        let w = OFFSET_WIDTH[c as usize] as usize;
        if w == 0 {
            // Uniform block (all zeros / all ones): the k-th target is k.
            return k;
        }
        if w == VERBATIM {
            return select_bit_in_word(self.offsets.get_bits(ptr, w), bit, valid, k as u32)
                as usize;
        }
        if c == 1 {
            // A class-1 offset *is* the position of the block's single one
            // (`C(p, 1) = p`) — the sparse-block hot path.
            let p = self.offsets.get_bits(ptr, w) as usize;
            return if bit {
                p
            } else if k < p {
                k
            } else {
                k + 1
            };
        }
        // All ones sit below `valid`, so the offset is < C(valid, c) and
        // the walk may start there directly.
        let mut offv = self.offsets.get_bits(ptr, w);
        let mut remaining = c as usize;
        let mut i = valid;
        if bit {
            // The k-th one from the bottom is the (c − k)-th produced by
            // the top-down decode. Branchless walk (see
            // `block_unrank_offset`); only the exit test branches.
            let mut to_produce = c as usize - k;
            loop {
                i -= 1;
                let b = BINOM[i][remaining];
                let take = (offv >= b) as u64;
                offv -= b & take.wrapping_neg();
                remaining -= take as usize;
                to_produce -= take as usize;
                if to_produce == 0 {
                    return i;
                }
            }
        } else {
            let mut to_produce = valid - c as usize - k;
            loop {
                i -= 1;
                let b = BINOM[i][remaining];
                let take = ((remaining > 0) & (offv >= b)) as usize;
                offv -= b & (take as u64).wrapping_neg();
                remaining -= take;
                to_produce -= 1 - take;
                if to_produce == 0 {
                    return i;
                }
            }
        }
    }

    /// Hints the CPU towards the directory words a query at bit `i` will
    /// touch first: the superblock entry and the packed class words. The
    /// offset stream is prefetched in a second round once `locate_block`
    /// has resolved the pointer (see the `*_batch` entry points).
    #[inline]
    pub fn prefetch(&self, i: usize) {
        let sb = (i / RRR_BLOCK_BITS) / SB_BLOCKS;
        self.sb.prefetch(sb);
        let class_bit = sb * SB_BLOCKS * CLASS_BITS;
        self.classes.prefetch(class_bit);
        // The 16 packed classes can straddle a second word.
        self.classes.prefetch(class_bit + 64);
    }

    /// Fused `get(i)` / `rank1(i)`: one block locate and one partial decode
    /// answer both — the access hot path of a Wavelet Trie descent, which
    /// always needs `β[i]` and the rank of that bit together.
    pub fn get_rank1(&self, i: usize) -> (bool, usize) {
        assert!(i < self.len);
        let block = i / RRR_BLOCK_BITS;
        let (rank, ptr, c) = self.locate_block(block);
        self.finish_get_rank1(i % RRR_BLOCK_BITS, rank, ptr, c)
    }

    /// Second half of [`RrrVector::get_rank1`], split from the block locate
    /// so batched queries can interleave the two phases across lanes.
    #[inline]
    fn finish_get_rank1(&self, pos: usize, rank: usize, ptr: usize, c: u32) -> (bool, usize) {
        let w = OFFSET_WIDTH[c as usize] as usize;
        if w == 0 {
            return if c == 0 {
                (false, rank)
            } else {
                (true, rank + pos)
            };
        }
        let mut offv = self.offsets.get_bits(ptr, w);
        if w == VERBATIM {
            let rank_low = low_bits(offv, pos).count_ones() as usize;
            return ((offv >> pos) & 1 != 0, rank + rank_low);
        }
        if c == 1 {
            let p = offv as usize;
            return (p == pos, rank + (p < pos) as usize);
        }
        let mut remaining = c as usize;
        let mut i = RRR_BLOCK_BITS;
        // Branchless fixed-count walk (see `block_rank_low`).
        while i > pos + 1 {
            i -= 1;
            let b = BINOM[i][remaining];
            let take = (offv >= b) as u64;
            offv -= b & take.wrapping_neg();
            remaining -= take as usize;
        }
        // With `remaining == 0` the residual offset is 0 and
        // `C(pos, 0) = 1`, so `bit` correctly resolves to false.
        let bit = offv >= BINOM[pos][remaining];
        (bit, rank + remaining - bit as usize)
    }

    fn n_blocks(&self) -> usize {
        self.len.div_ceil(RRR_BLOCK_BITS)
    }

    /// Locates the block of bit `i` and prefetches its offset word — the
    /// shared middle phase of every batched query.
    #[inline]
    fn locate_prefetch(&self, i: usize) -> (usize, usize, u32) {
        let (rank, ptr, c) = self.locate_block(i / RRR_BLOCK_BITS);
        if OFFSET_WIDTH[c as usize] > 0 {
            self.offsets.prefetch(ptr);
        }
        (rank, ptr, c)
    }

    /// Batched fused `get`/`rank1` over up to arbitrarily many positions.
    ///
    /// Runs in three software-pipelined phases per chunk of lanes:
    /// prefetch every lane's superblock entry and class words, then locate
    /// every block (classes now resident) while prefetching its offset
    /// word, then decode — so the per-lane dependent miss chain
    /// (superblock → classes → offsets) turns into three rounds of
    /// overlapped misses. Results are bit-identical to scalar calls.
    ///
    /// # Panics
    /// If the slices differ in length or any position is `>= len()`.
    pub fn get_rank1_batch(&self, positions: &[usize], out: &mut [(bool, usize)]) {
        assert_eq!(positions.len(), out.len(), "batch length mismatch");
        let mut loc = [(0usize, 0usize, 0u32); BATCH_LANES];
        for (chunk, outs) in positions
            .chunks(BATCH_LANES)
            .zip(out.chunks_mut(BATCH_LANES))
        {
            for &i in chunk {
                assert!(i < self.len);
                self.prefetch(i);
            }
            for (l, &i) in loc.iter_mut().zip(chunk) {
                *l = self.locate_prefetch(i);
            }
            for ((o, &i), &(rank, ptr, c)) in outs.iter_mut().zip(chunk).zip(&loc) {
                *o = self.finish_get_rank1(i % RRR_BLOCK_BITS, rank, ptr, c);
            }
        }
    }

    /// Batched [`BitRank::rank1`] with the same pipeline as
    /// [`RrrVector::get_rank1_batch`]. Positions may equal `len()`.
    pub fn rank1_batch(&self, positions: &[usize], out: &mut [usize]) {
        assert_eq!(positions.len(), out.len(), "batch length mismatch");
        let mut loc = [(0usize, 0usize, 0u32); BATCH_LANES];
        for (chunk, outs) in positions
            .chunks(BATCH_LANES)
            .zip(out.chunks_mut(BATCH_LANES))
        {
            for &i in chunk {
                assert!(i <= self.len);
                if i < self.len {
                    self.prefetch(i);
                }
            }
            for (l, &i) in loc.iter_mut().zip(chunk) {
                if i < self.len {
                    *l = self.locate_prefetch(i);
                }
            }
            for ((o, &i), &(rank, ptr, c)) in outs.iter_mut().zip(chunk).zip(&loc) {
                *o = if i == self.len {
                    self.ones
                } else {
                    let off = i % RRR_BLOCK_BITS;
                    if off == 0 {
                        rank
                    } else {
                        rank + self.block_rank_low(c, ptr, off)
                    }
                };
            }
        }
    }

    #[inline]
    fn zeros_before_sb(&self, sb: usize) -> usize {
        (sb * SB_BLOCKS * RRR_BLOCK_BITS).min(self.len) - self.sb.rank(sb) as usize
    }

    fn select_generic(&self, bit: bool, k: usize) -> Option<usize> {
        let total = if bit { self.ones } else { self.len - self.ones };
        if k >= total {
            return None;
        }
        let count_before = |sb: usize| {
            if bit {
                self.sb.rank(sb) as usize
            } else {
                self.zeros_before_sb(sb)
            }
        };
        // The sampled hints pin the k-th target bit between two known
        // superblocks; the remaining binary search spans only the few
        // superblocks one sample interval covers. Small vectors carry no
        // hints and binary-search their handful of superblocks directly.
        let hints = if bit { &self.hints1 } else { &self.hints0 };
        let (lo_sb, hi_sb) = if hints.is_empty() {
            (0, self.sb.len() - 1)
        } else {
            let sample = k / SELECT_SAMPLE;
            let lo = hints.get(sample) as usize;
            let hi = hints
                .get_opt(sample + 1)
                .map(|s| s as usize + 1)
                .unwrap_or(self.sb.len() - 1);
            (lo, hi)
        };
        let sb = select_block(lo_sb, hi_sb, k, count_before);
        let mut remaining = k - count_before(sb);
        let mut ptr = self.sb.ptr(sb) as usize;
        let mut cls = self.sb_classes(sb, SB_BLOCKS);
        // The directory guarantees the hit inside `sb`, so the walk is
        // bounded to one superblock even when `sb` is the last one.
        let sb_end = ((sb + 1) * SB_BLOCKS).min(self.n_blocks());
        for b in sb * SB_BLOCKS..sb_end {
            let c = (cls & 63) as usize;
            cls >>= CLASS_BITS;
            let block_start = b * RRR_BLOCK_BITS;
            let valid = RRR_BLOCK_BITS.min(self.len - block_start);
            let in_block = if bit { c } else { valid - c };
            if remaining < in_block {
                return Some(block_start + self.block_select(c as u32, ptr, bit, remaining, valid));
            }
            remaining -= in_block;
            ptr += OFFSET_WIDTH[c] as usize;
        }
        unreachable!("select directory inconsistent");
    }

    /// Checks every block against the directory in one pass over the
    /// classes, as loading must: queries step their walks and index
    /// `BINOM` by these invariants, so an image that breaks one would
    /// panic or answer wrongly. Per superblock the classes sum to the
    /// rank delta and the stored widths to the pointer delta; the final
    /// partial block's class fits its valid bits; a verbatim word holds
    /// exactly its class in ones, none at or past the valid width; and a
    /// combinatorial offset is below `C(valid, c)`.
    fn check_blocks(&self) -> Result<(), LoadError> {
        let (mut rank, mut ptr) = (0usize, 0usize);
        for b in 0..self.n_blocks() {
            if b.is_multiple_of(SB_BLOCKS) {
                let sb = b / SB_BLOCKS;
                if self.sb.rank(sb) != rank as u64 || self.sb.ptr(sb) != ptr as u64 {
                    return Err(LoadError::Invalid(
                        "rrr superblock disagrees with its classes",
                    ));
                }
            }
            let c = self.classes.get_bits(b * CLASS_BITS, CLASS_BITS) as usize;
            let valid = RRR_BLOCK_BITS.min(self.len - b * RRR_BLOCK_BITS);
            let w = OFFSET_WIDTH[c] as usize;
            if c > valid {
                return Err(LoadError::Invalid("rrr block class exceeds its width"));
            }
            if ptr + w > self.offsets.len() {
                return Err(LoadError::Invalid("rrr offset stream too short"));
            }
            let off = self.offsets.get_bits(ptr, w);
            let in_range = if w == VERBATIM {
                off.count_ones() as usize == c && off >> valid == 0
            } else {
                off < BINOM[valid][c]
            };
            if !in_range {
                return Err(LoadError::Invalid("rrr block offset out of range"));
            }
            rank += c;
            ptr += w;
        }
        let end = self.sb.len() - 1;
        if self.sb.rank(end) != rank as u64
            || self.sb.ptr(end) != ptr as u64
            || rank != self.ones
            || ptr != self.offsets.len()
        {
            return Err(LoadError::Invalid("rrr superblock sentinel"));
        }
        Ok(())
    }

    /// Decompresses the whole vector (tests, iteration).
    pub fn to_raw(&self) -> RawBitVec {
        let mut out = RawBitVec::with_capacity(self.len);
        let mut ptr = 0usize;
        for b in 0..self.n_blocks() {
            let c = self.classes.get_bits(b * CLASS_BITS, CLASS_BITS) as u32;
            let word = self.decode_block_with(c, ptr);
            let valid = RRR_BLOCK_BITS.min(self.len - b * RRR_BLOCK_BITS);
            out.push_bits(word, valid);
            ptr += OFFSET_WIDTH[c as usize] as usize;
        }
        out
    }
}

impl BitAccess for RrrVector {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        // locate_block accumulates the rank anyway, so the fused path costs
        // the same and keeps a single partial-decode walk.
        self.get_rank1(i).0
    }
}

impl BitRank for RrrVector {
    fn rank1(&self, i: usize) -> usize {
        assert!(i <= self.len);
        if i == self.len {
            return self.ones;
        }
        let block = i / RRR_BLOCK_BITS;
        let (rank, ptr, c) = self.locate_block(block);
        let off = i % RRR_BLOCK_BITS;
        if off == 0 {
            return rank;
        }
        rank + self.block_rank_low(c, ptr, off)
    }

    #[inline]
    fn count_ones(&self) -> usize {
        self.ones
    }
}

impl BitSelect for RrrVector {
    #[inline]
    fn select1(&self, k: usize) -> Option<usize> {
        self.select_generic(true, k)
    }

    #[inline]
    fn select0(&self, k: usize) -> Option<usize> {
        self.select_generic(false, k)
    }
}

impl SpaceUsage for RrrVector {
    fn size_bits(&self) -> usize {
        self.classes.size_bits()
            + self.offsets.size_bits()
            + self.sb.words.size_bits()
            + self.hints1.size_bits()
            + self.hints0.size_bits()
            + 2 * 64
    }
}

impl Persist for RrrVector {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.len as u64);
        out.push(self.ones as u64);
        self.classes.encode(out);
        self.offsets.encode(out);
        self.sb.words.encode(out);
        self.hints1.encode(out);
        self.hints0.encode(out);
    }

    fn decode(r: &mut WordsReader) -> Result<Self, LoadError> {
        let len = r.read_len()?;
        let ones = r.read_len()?;
        let classes = RawBitVec::decode(r)?;
        let offsets = RawBitVec::decode(r)?;
        let sb = SbDir {
            words: Words::decode(r)?,
        };
        let hints1 = U32Words::decode(r)?;
        let hints0 = U32Words::decode(r)?;
        let n_blocks = len.div_ceil(RRR_BLOCK_BITS);
        if classes.len() != n_blocks * CLASS_BITS {
            return Err(LoadError::Invalid("rrr class stream length"));
        }
        if !sb.words.len().is_multiple_of(2) || sb.len() != n_blocks.div_ceil(SB_BLOCKS) + 1 {
            return Err(LoadError::Invalid("rrr superblock directory length"));
        }
        let v = RrrVector {
            len,
            ones,
            classes,
            offsets,
            sb,
            hints1,
            hints0,
        };
        v.check_blocks()?;
        // The select hints must be exactly the ones `RrrBuilder::finish`
        // derives: a hint past its target would start the search beyond it.
        let (hints1, hints0) = select_hints(len, ones, &v.sb);
        let same = |got: &U32Words, want: &[u32]| {
            got.len() == want.len() && want.iter().enumerate().all(|(k, &h)| got.get(k) == h)
        };
        if !same(&v.hints1, &hints1) || !same(&v.hints0, &hints0) {
            return Err(LoadError::Invalid(
                "rrr select hints disagree with the directory",
            ));
        }
        Ok(v)
    }
}

/// Incremental RRR construction, one 63-bit block at a time.
///
/// This is the "decomposable" construction property Theorem 4.5 requires:
/// the append-only bitvector (§4.1) spreads this work over subsequent
/// appends to de-amortize block sealing.
#[derive(Clone, Debug)]
pub struct RrrBuilder {
    len: usize,
    target_len: usize,
    ones: usize,
    classes: RawBitVec,
    offsets: RawBitVec,
    sb_rank: Vec<u64>,
    sb_ptr: Vec<u64>,
    blocks_pushed: usize,
}

impl RrrBuilder {
    /// Starts building a vector that will hold exactly `target_len` bits.
    pub fn new(target_len: usize) -> Self {
        let n_blocks = target_len.div_ceil(RRR_BLOCK_BITS);
        RrrBuilder {
            len: 0,
            target_len,
            ones: 0,
            classes: RawBitVec::with_capacity(n_blocks * CLASS_BITS),
            offsets: RawBitVec::new(),
            sb_rank: Vec::with_capacity(n_blocks / SB_BLOCKS + 2),
            sb_ptr: Vec::with_capacity(n_blocks / SB_BLOCKS + 2),
            blocks_pushed: 0,
        }
    }

    /// Number of blocks the finished vector will have.
    pub fn total_blocks(&self) -> usize {
        self.target_len.div_ceil(RRR_BLOCK_BITS)
    }

    /// Number of blocks already pushed.
    pub fn blocks_pushed(&self) -> usize {
        self.blocks_pushed
    }

    /// Whether all blocks have been pushed.
    pub fn is_complete(&self) -> bool {
        self.blocks_pushed == self.total_blocks()
    }

    /// Pushes the next 63-bit block (the final block may be partial; its
    /// upper padding bits must be zero).
    pub fn push_block(&mut self, word: u64) {
        debug_assert!(
            !self.is_complete(),
            "pushed more blocks than target_len holds"
        );
        debug_assert_eq!(word >> 63, 0);
        if self.blocks_pushed.is_multiple_of(SB_BLOCKS) {
            self.sb_rank.push(self.ones as u64);
            self.sb_ptr.push(self.offsets.len() as u64);
        }
        let c = word.count_ones();
        self.classes.push_bits(c as u64, CLASS_BITS);
        let w = OFFSET_WIDTH[c as usize] as usize;
        if w > 0 {
            self.offsets.push_bits(stored_offset(word, c), w);
        }
        self.ones += c as usize;
        self.blocks_pushed += 1;
        self.len = (self.blocks_pushed * RRR_BLOCK_BITS).min(self.target_len);
    }

    /// Finalizes the vector: appends the sentinel superblock and derives
    /// the sampled select hints. The streams drop their growth slack, so
    /// the built footprint equals the loaded one.
    ///
    /// # Panics
    /// If fewer blocks than promised were pushed.
    pub fn finish(mut self) -> RrrVector {
        assert!(self.is_complete(), "RrrBuilder: missing blocks");
        self.classes.shrink_to_fit();
        self.offsets.shrink_to_fit();
        // Sentinel superblock so binary searches have an upper fence.
        self.sb_rank.push(self.ones as u64);
        self.sb_ptr.push(self.offsets.len() as u64);
        let sb = SbDir::from_parts(&self.sb_rank, &self.sb_ptr);
        let (hints1, hints0) = select_hints(self.target_len, self.ones, &sb);
        RrrVector {
            len: self.target_len,
            ones: self.ones,
            classes: self.classes,
            offsets: self.offsets,
            sb,
            hints1: U32Words::from_vec(hints1),
            hints0: U32Words::from_vec(hints0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_workloads::xorshift;

    #[test]
    fn binom_table_sane() {
        assert_eq!(BINOM[0][0], 1);
        assert_eq!(BINOM[4][2], 6);
        assert_eq!(BINOM[63][0], 1);
        assert_eq!(BINOM[63][63], 1);
        assert_eq!(BINOM[63][1], 63);
        // C(63,31) known value
        assert_eq!(BINOM[63][31], 916312070471295267);
    }

    #[test]
    fn offset_width_sane() {
        // ⌈log₂ C(63, c)⌉, except the verbatim classes 22–41 at 63 bits.
        #[rustfmt::skip]
        const STORED: [u8; 64] = [
            0, 6, 11, 16, 20, 23, 27, 30, 32, 35, 37, 40, 42, 44, 46, 47,
            49, 50, 52, 53, 54, 55, 63, 63, 63, 63, 63, 63, 63, 63, 63, 63,
            63, 63, 63, 63, 63, 63, 63, 63, 63, 63, 55, 54, 53, 52, 50, 49,
            47, 46, 44, 42, 40, 37, 35, 32, 30, 27, 23, 20, 16, 11, 6, 0,
        ];
        assert_eq!(OFFSET_WIDTH, STORED);
        for (c, &w) in OFFSET_WIDTH.iter().enumerate() {
            let count = BINOM[63][c] as u128;
            let need = (count - 1).checked_ilog2().map_or(0, |b| b + 1) as u8;
            if need >= VERBATIM_MIN_WIDTH {
                assert_eq!(w as usize, VERBATIM, "class {c}");
            } else {
                assert_eq!(w, need, "class {c}");
            }
        }
    }

    #[test]
    fn block_rank_unrank_roundtrip() {
        let mut next = xorshift(0xDEAD_BEEF_1234_5678);
        for _ in 0..5000 {
            let word = next() >> 1; // 63 bits
            let c = word.count_ones();
            let off = block_rank_offset(word, c);
            if OFFSET_WIDTH[c as usize] < 64 {
                assert!(off < (1u64 << OFFSET_WIDTH[c as usize]).max(1));
            }
            assert_eq!(block_unrank_offset(off, c), word);
        }
        // extremes
        assert_eq!(block_unrank_offset(block_rank_offset(0, 0), 0), 0);
        let full = (1u64 << 63) - 1;
        assert_eq!(block_unrank_offset(block_rank_offset(full, 63), 63), full);
    }

    #[test]
    fn offsets_are_dense() {
        // offsets enumerate words of a class contiguously from 0
        for c in [1u32, 2, 62] {
            // smallest word of class c: low c bits set -> offset 0
            let lowest = (1u64 << c) - 1;
            assert_eq!(block_rank_offset(lowest, c), 0);
            // largest word: high c bits of the 63 -> offset C(63,c)-1
            let highest = ((1u64 << c) - 1) << (63 - c);
            assert_eq!(block_rank_offset(highest, c), BINOM[63][c as usize] - 1);
        }
    }

    /// Checks a vector built from `bits`, and the same vector after a
    /// persist round trip, against scans of `bits`: `to_raw`, the scalar
    /// API and the two `*_batch` entry points. Vectors up to 4096 bits
    /// are probed at every position.
    fn check(bits: &RawBitVec) {
        use crate::persist::{from_bytes, kind, to_bytes};
        let rrr = RrrVector::new(bits);
        let loaded: RrrVector = from_bytes(kind::RRR, &to_bytes(kind::RRR, &rrr)).unwrap();
        check_against(&rrr, bits);
        check_against(&loaded, bits);
    }

    fn check_against(rrr: &RrrVector, bits: &RawBitVec) {
        assert_eq!(rrr.len(), bits.len());
        assert_eq!(rrr.to_raw(), *bits, "roundtrip");
        assert_eq!(rrr.count_ones(), bits.count_ones());
        let every = bits.len() <= 4096;
        let step_over = |total: usize| if every { 1 } else { (total / 200).max(1) };
        let step = step_over(bits.len());
        let pos: Vec<usize> = (0..bits.len()).step_by(step).collect();
        let mut with_len = pos.clone();
        with_len.push(bits.len());
        let mut ranks = vec![0usize; with_len.len()];
        rrr.rank1_batch(&with_len, &mut ranks);
        for (&i, &r) in with_len.iter().zip(&ranks) {
            assert_eq!(rrr.rank1(i), bits.rank1_scan(i), "rank1({i})");
            assert_eq!(r, bits.rank1_scan(i), "rank1_batch({i})");
        }
        let mut grs = vec![(false, 0usize); pos.len()];
        rrr.get_rank1_batch(&pos, &mut grs);
        for (k, &i) in pos.iter().enumerate() {
            let want = (bits.get(i), bits.rank1_scan(i));
            assert_eq!(rrr.get(i), want.0, "get({i})");
            assert_eq!(rrr.get_rank1(i), want, "get_rank1({i})");
            assert_eq!(grs[k], want, "get_rank1_batch({i})");
        }
        let ones = bits.count_ones();
        for k in (0..ones).step_by(step_over(ones)) {
            assert_eq!(rrr.select1(k), bits.select1_scan(k), "select1({k})");
        }
        assert_eq!(rrr.select1(ones), None);
        let zeros = bits.len() - ones;
        for k in (0..zeros).step_by(step_over(zeros)) {
            assert_eq!(rrr.select0(k), bits.select0_scan(k), "select0({k})");
        }
        assert_eq!(rrr.select0(zeros), None);
    }

    #[test]
    fn empty_and_tiny() {
        check(&RawBitVec::new());
        check(&RawBitVec::from_bit_str("1"));
        check(&RawBitVec::from_bit_str("0"));
        check(&RawBitVec::from_bit_str("0010101"));
    }

    #[test]
    fn block_boundaries() {
        for n in [62usize, 63, 64, 125, 126, 127, 2015, 2016, 2017] {
            check(&RawBitVec::from_bits((0..n).map(|i| i % 3 == 0)));
            check(&RawBitVec::filled(true, n));
            check(&RawBitVec::filled(false, n));
        }
    }

    /// Every class and every partial width: block `c` of the first vector
    /// holds `c` ones for each `c` in 0..=63, and each tail vector ends in
    /// a partial block of width 1–62 whose class is verbatim wherever the
    /// width fits one (≥ 22 bits).
    #[test]
    fn every_class_and_partial_width() {
        let mut next = xorshift(0x0C1A_55E5);
        // `c` ones at random places among the low `width` bits.
        let mut block = |c: usize, width: usize| {
            let mut word = 0u64;
            while word.count_ones() < c as u32 {
                word |= 1 << (next() % width as u64);
            }
            word
        };
        let mut all = RawBitVec::new();
        for c in 0..=RRR_BLOCK_BITS {
            all.push_bits(block(c, RRR_BLOCK_BITS), RRR_BLOCK_BITS);
        }
        let rrr = RrrVector::new(&all);
        for c in 0..=RRR_BLOCK_BITS {
            assert_eq!(rrr.classes.get_bits(c * CLASS_BITS, CLASS_BITS), c as u64);
        }
        check(&all);
        // Tails follow 21 blocks of classes 20–40, both encodings and a
        // superblock boundary.
        let mut prefix = RawBitVec::new();
        prefix.extend_from_range(&all, 20 * RRR_BLOCK_BITS, 21 * RRR_BLOCK_BITS);
        for width in 1..RRR_BLOCK_BITS {
            for c in [width.min(22), width.min(41)] {
                let mut bits = prefix.clone();
                bits.push_bits(block(c, width), width);
                let rrr = RrrVector::new(&bits);
                let last = bits.len().div_ceil(RRR_BLOCK_BITS) - 1;
                let stored =
                    OFFSET_WIDTH[rrr.classes.get_bits(last * CLASS_BITS, CLASS_BITS) as usize];
                assert_eq!(stored as usize == VERBATIM, width >= 22, "width {width}");
                check(&bits);
            }
        }
    }

    #[test]
    fn pseudorandom_densities() {
        let mut next = xorshift(777);
        for &density in &[2u64, 10, 100, 1000] {
            let bits = RawBitVec::from_bits((0..40_000).map(|_| next().is_multiple_of(density)));
            check(&bits);
        }
    }

    #[test]
    fn compresses_sparse_input() {
        // 1% density over 100k bits: entropy ~ 0.081 bits/bit.
        let bits = RawBitVec::from_bits((0..100_000).map(|i| i % 100 == 0));
        let rrr = RrrVector::new(&bits);
        let h0 = crate::entropy::bitvec_h0_bits(bits.count_ones(), bits.len());
        let used = rrr.size_bits() as f64;
        // within entropy + directory overhead (classes 6/63 ≈ 9.5% +
        // superblock directories 128/(16·63) ≈ 12.7%)
        assert!(
            used < h0 + 0.24 * bits.len() as f64 + 1024.0,
            "RRR too large: {used} bits vs nH0 = {h0}"
        );
        assert!(used < bits.len() as f64, "should beat plain storage");
    }

    #[test]
    fn batch_entry_points_match_scalar() {
        let mut next = xorshift(0xABCD_1234);
        for &density in &[2u64, 50, 700] {
            let bits = RawBitVec::from_bits((0..30_000).map(|_| next().is_multiple_of(density)));
            let rrr = RrrVector::new(&bits);
            // Random positions including block/superblock edges and len.
            let mut pos: Vec<usize> = (0..333).map(|_| (next() % 30_000) as usize).collect();
            pos.extend([0, 62, 63, 64, 1007, 1008, 29_999]);
            let mut ranks = vec![0usize; pos.len()];
            let mut with_len = pos.clone();
            with_len.push(30_000);
            let mut ranks_len = vec![0usize; with_len.len()];
            let mut grs = vec![(false, 0usize); pos.len()];
            rrr.rank1_batch(&with_len, &mut ranks_len);
            rrr.rank1_batch(&pos, &mut ranks);
            rrr.get_rank1_batch(&pos, &mut grs);
            for (k, &i) in pos.iter().enumerate() {
                assert_eq!(ranks[k], rrr.rank1(i), "rank1_batch({i})");
                assert_eq!(grs[k], rrr.get_rank1(i), "get_rank1_batch({i})");
            }
            assert_eq!(*ranks_len.last().unwrap(), rrr.count_ones());
            // Empty and singleton batches.
            rrr.rank1_batch(&[], &mut []);
            let mut one = [0usize];
            rrr.rank1_batch(&[17], &mut one);
            assert_eq!(one[0], rrr.rank1(17));
        }
    }

    #[test]
    fn incremental_builder_matches_batch() {
        let bits = RawBitVec::from_bits((0..10_000).map(|i| i % 7 == 0));
        let batch = RrrVector::new(&bits);
        let mut b = RrrBuilder::new(bits.len());
        let mut i = 0;
        while !b.is_complete() {
            let width = RRR_BLOCK_BITS.min(bits.len() - i);
            b.push_block(bits.get_bits(i, width));
            i += width;
        }
        let inc = b.finish();
        assert_eq!(inc.to_raw(), batch.to_raw());
        assert_eq!(inc.rank1(5000), batch.rank1(5000));
    }
}
