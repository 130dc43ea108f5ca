//! Append-only compressed bitvector (§4.1 of the paper, Theorem 4.5).
//!
//! The bitvector is the concatenation `B₁·B₂···B_k·B'` where each sealed
//! block `Bᵢ` holds exactly `L` bits compressed with RRR and `B'` is a small
//! explicit tail (Lemma 4.6: stored answers, O(1) everything). Cumulative
//! per-block counts form the partial-sum directory (the paper bootstraps
//! another compressed bitvector for these; we store the O(n/L)-word arrays
//! directly — the same o(n) bits, DESIGN.md substitution #3).
//!
//! Sealing a tail into RRR takes O(L/63) block pushes. The seal is
//! **de-amortized** (Lemma 4.8 / Thm 4.5 partial rebuilding): the work is
//! spread over subsequent appends, `STEPS_PER_APPEND` RRR blocks per
//! append, while the frozen raw tail keeps answering queries until the
//! compressed block is ready, giving O(1) worst-case `Append`.

use crate::broadword::{select_bit_in_word, select_block};
use crate::rrr::{RrrBuilder, RrrVector, RRR_BLOCK_BITS};
use crate::{BitAccess, BitRank, BitSelect, RawBitVec, SpaceUsage};

/// Sealed-block size `L` in bits: 64 RRR blocks.
const BLOCK_BITS: usize = 64 * RRR_BLOCK_BITS;

/// RRR blocks built per append while a seal is in flight, so a seal
/// finishes within `BLOCK_BITS / 126` of the `BLOCK_BITS` appends that
/// refill the tail.
const STEPS_PER_APPEND: usize = 2;

/// Small explicit bitvector (Lemma 4.6): raw bits plus per-word cumulative
/// ranks, so every operation is O(1) for the bounded sizes it is used at.
///
/// The first 64 bits sit in an inline word, whose rank is 0, so the heap
/// words and the rank directory both start at word 1. Most node
/// bitvectors of a Wavelet Trie never outgrow that word, and those
/// allocate nothing.
#[derive(Clone, Debug, Default)]
struct SmallTail {
    /// Bits 0..64, LSB-first.
    first: u64,
    /// Words 1, 2, … of the bits.
    rest: Vec<u64>,
    /// `word_ranks[k]`: ones before word `k + 1`.
    word_ranks: Vec<u32>,
    len: usize,
    ones: usize,
}

impl SmallTail {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn push(&mut self, bit: bool) {
        let (w, off) = (self.len / 64, self.len % 64);
        if w == 0 {
            self.first |= (bit as u64) << off;
        } else {
            if off == 0 {
                self.rest.push(0);
                self.word_ranks.push(self.ones as u32);
            }
            self.rest[w - 1] |= (bit as u64) << off;
        }
        self.len += 1;
        self.ones += bit as usize;
    }

    /// Word `w` of the bits; the last one is zero-padded.
    #[inline]
    fn word(&self, w: usize) -> u64 {
        if w == 0 {
            self.first
        } else {
            self.rest[w - 1]
        }
    }

    /// Ones before word `w`, for `w` up to one past the last word.
    #[inline]
    fn ones_before_word(&self, w: usize) -> usize {
        match w.checked_sub(1) {
            None => 0,
            Some(k) => self.word_ranks.get(k).map_or(self.ones, |&r| r as usize),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.word(i / 64) >> (i % 64)) & 1 != 0
    }

    /// Reads `width <= 64` bits from bit `i`, LSB-first.
    fn get_bits(&self, i: usize, width: usize) -> u64 {
        debug_assert!(width <= 64 && i + width <= self.len);
        let (w, off) = (i / 64, i % 64);
        let mut v = self.word(w) >> off;
        if off + width > 64 {
            v |= self.word(w + 1) << (64 - off);
        }
        if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    }

    #[inline]
    fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len);
        if i == self.len {
            return self.ones;
        }
        let (w, off) = (i / 64, i % 64);
        self.ones_before_word(w) + (self.word(w) & ((1u64 << off) - 1)).count_ones() as usize
    }

    fn select(&self, bit: bool, k: usize) -> Option<usize> {
        let total = if bit { self.ones } else { self.len - self.ones };
        if k >= total {
            return None;
        }
        // Binary search completed words, then in-word select.
        let count_before = |w: usize| {
            let r1 = self.ones_before_word(w);
            if bit {
                r1
            } else {
                (w * 64).min(self.len) - r1
            }
        };
        let lo = select_block(0, self.len / 64 + 1, k, count_before);
        let valid = self.len - lo * 64;
        let rem = (k - count_before(lo)) as u32;
        Some(lo * 64 + select_bit_in_word(self.word(lo), bit, valid, rem) as usize)
    }

    /// Appends every bit to `out`, a word at a time.
    fn append_into(&self, out: &mut RawBitVec) {
        out.push_bits(self.first, self.len.min(64));
        for (k, &word) in self.rest.iter().enumerate() {
            out.push_bits(word, (self.len - 64 * (k + 1)).min(64));
        }
    }

    /// The inline word, `len` and `ones`, plus the heap words and ranks.
    fn size_bits(&self) -> usize {
        3 * 64 + self.rest.capacity() * 64 + self.word_ranks.capacity() * 32
    }
}

/// An in-flight seal: the frozen raw block still answers queries while its
/// RRR encoding is built a few blocks per append.
#[derive(Clone, Debug)]
struct PendingSeal {
    frozen: SmallTail,
    builder: RrrBuilder,
    /// Bits of `frozen` already fed to the builder.
    fed: usize,
}

impl PendingSeal {
    fn new(frozen: SmallTail) -> Self {
        let builder = RrrBuilder::new(frozen.len());
        PendingSeal {
            frozen,
            builder,
            fed: 0,
        }
    }

    /// Advances construction by up to `steps` RRR blocks; returns the
    /// finished vector when complete.
    fn step(&mut self, steps: usize) -> bool {
        for _ in 0..steps {
            if self.builder.is_complete() {
                return true;
            }
            let width = RRR_BLOCK_BITS.min(self.frozen.len() - self.fed);
            self.builder
                .push_block(self.frozen.get_bits(self.fed, width));
            self.fed += width;
        }
        self.builder.is_complete()
    }

    fn finish(mut self) -> RrrVector {
        while !self.step(usize::MAX / 2) {}
        self.builder.finish()
    }
}

/// A sealed block plus the partial-sum directory entry pointing at it.
#[derive(Clone, Debug)]
struct SealedBlock {
    /// Ones before this block (the cumulative directory of §4.1).
    ones_before: u64,
    rrr: RrrVector,
}

/// The append-only compressed bitvector of Theorem 4.5: O(1) `push`,
/// `get`, `rank`; `select` in O(log(n/L)); space `nH0(β) + o(n)` bits.
#[derive(Clone, Debug)]
pub struct AppendBitVec {
    sealed: Vec<SealedBlock>,
    pending: Option<Box<PendingSeal>>,
    tail: SmallTail,
    len: usize,
    ones: usize,
}

impl Default for AppendBitVec {
    fn default() -> Self {
        Self::new()
    }
}

impl AppendBitVec {
    /// Creates an empty vector.
    pub fn new() -> Self {
        AppendBitVec {
            sealed: Vec::new(),
            pending: None,
            tail: SmallTail::default(),
            len: 0,
            ones: 0,
        }
    }

    /// Builds by pushing every bit of `bits`.
    pub fn from_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = Self::new();
        for b in iter {
            v.push(b);
        }
        v
    }

    /// Appends a bit (the `Append(b)` of §4.1).
    pub fn push(&mut self, bit: bool) {
        // Advance any in-flight seal first.
        if let Some(p) = self.pending.as_mut() {
            if p.step(STEPS_PER_APPEND) {
                let p = *self.pending.take().expect("pending");
                self.complete_seal(p);
            }
        }
        if self.tail.len() == BLOCK_BITS {
            // Tail full: freeze it. Any still-pending seal must finish now
            // (cannot happen at `STEPS_PER_APPEND`; guarded for safety).
            if let Some(p) = self.pending.take() {
                self.complete_seal(*p);
            }
            let frozen = std::mem::take(&mut self.tail);
            self.pending = Some(Box::new(PendingSeal::new(frozen)));
        }
        self.tail.push(bit);
        self.len += 1;
        self.ones += bit as usize;
    }

    fn complete_seal(&mut self, p: PendingSeal) {
        let ones_before = self.ones_before_pending() as u64;
        let rrr = p.finish();
        self.sealed.push(SealedBlock { ones_before, rrr });
    }

    /// Appends every bit to `out`: sealed blocks decode sequentially
    /// (amortized O(1)/bit, unlike random-access `get`), the in-flight
    /// seal and the tail copy word-wise. Bulk export for the structural
    /// freeze path.
    pub fn append_into(&self, out: &mut crate::RawBitVec) {
        for blk in &self.sealed {
            let raw = blk.rrr.to_raw();
            out.extend_from_range(&raw, 0, raw.len());
        }
        if let Some(p) = &self.pending {
            p.frozen.append_into(out);
        }
        self.tail.append_into(out);
    }

    /// Ones before the region (pending + tail) that follows sealed blocks.
    #[inline]
    fn ones_before_pending(&self) -> usize {
        self.sealed
            .last()
            .map_or(0, |b| b.ones_before as usize + b.rrr.count_ones())
    }

    #[inline]
    fn sealed_bits(&self) -> usize {
        self.sealed.len() * BLOCK_BITS
    }

    /// Bits covered by sealed blocks plus the frozen pending block.
    #[inline]
    fn stable_bits(&self) -> usize {
        self.sealed_bits() + self.pending.as_ref().map_or(0, |p| p.frozen.len())
    }

    fn select_generic(&self, bit: bool, k: usize) -> Option<usize> {
        let total = if bit { self.ones } else { self.len - self.ones };
        if k >= total {
            return None;
        }
        let count_before = |i: usize| {
            let r1 = if i == self.sealed.len() {
                self.ones_before_pending()
            } else {
                self.sealed[i].ones_before as usize
            };
            if bit {
                r1
            } else {
                i * BLOCK_BITS - r1
            }
        };
        // Binary search sealed blocks.
        let lo = select_block(0, self.sealed.len() + 1, k, count_before);
        if lo < self.sealed.len() && count_before(lo + 1) > k {
            let rem = k - count_before(lo);
            let p = self.sealed[lo]
                .rrr
                .select(bit, rem)
                .expect("in-block select");
            return Some(lo * BLOCK_BITS + p);
        }
        // Target is in the pending frozen block or the tail.
        let mut rem = k - count_before(self.sealed.len());
        let mut base = self.sealed_bits();
        if let Some(p) = self.pending.as_ref() {
            let in_frozen = if bit {
                p.frozen.ones
            } else {
                p.frozen.len() - p.frozen.ones
            };
            if rem < in_frozen {
                return Some(base + p.frozen.select(bit, rem).expect("frozen select"));
            }
            rem -= in_frozen;
            base += p.frozen.len();
        }
        self.tail.select(bit, rem).map(|p| base + p)
    }
}

impl BitAccess for AppendBitVec {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if i < self.sealed_bits() {
            return self.sealed[i / BLOCK_BITS].rrr.get(i % BLOCK_BITS);
        }
        let stable = self.stable_bits();
        if i < stable {
            let p = self.pending.as_ref().expect("pending covers this range");
            return p.frozen.get(i - self.sealed_bits());
        }
        self.tail.get(i - stable)
    }
}

impl BitRank for AppendBitVec {
    fn rank1(&self, i: usize) -> usize {
        assert!(
            i <= self.len,
            "rank index {i} out of bounds (len {})",
            self.len
        );
        if i < self.sealed_bits() {
            let b = i / BLOCK_BITS;
            return self.sealed[b].ones_before as usize + self.sealed[b].rrr.rank1(i % BLOCK_BITS);
        }
        let mut r = self.ones_before_pending();
        let mut rem = i - self.sealed_bits();
        if let Some(p) = self.pending.as_ref() {
            if rem <= p.frozen.len() {
                return r + p.frozen.rank1(rem);
            }
            r += p.frozen.ones;
            rem -= p.frozen.len();
        }
        r + self.tail.rank1(rem)
    }

    #[inline]
    fn count_ones(&self) -> usize {
        self.ones
    }
}

impl BitSelect for AppendBitVec {
    #[inline]
    fn select1(&self, k: usize) -> Option<usize> {
        self.select_generic(true, k)
    }

    #[inline]
    fn select0(&self, k: usize) -> Option<usize> {
        self.select_generic(false, k)
    }
}

impl SpaceUsage for AppendBitVec {
    fn size_bits(&self) -> usize {
        self.sealed
            .iter()
            .map(|b| b.rrr.size_bits() + 64)
            .sum::<usize>()
            + self.pending.as_ref().map_or(0, |p| {
                p.frozen.size_bits() + p.builder.total_blocks() * 70 // in-flight bound
            })
            + self.tail.size_bits()
            + 4 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_check(pattern: impl Iterator<Item = bool>) {
        let mut v = AppendBitVec::new();
        let mut model = Vec::new();
        for b in pattern {
            v.push(b);
            model.push(b);
        }
        assert_eq!(v.len(), model.len());
        let ones: usize = model.iter().filter(|&&b| b).count();
        assert_eq!(v.count_ones(), ones);
        let step = (model.len() / 300).max(1);
        let mut cum = 0usize;
        let mut cums = vec![0usize];
        for &b in &model {
            cum += b as usize;
            cums.push(cum);
        }
        for i in (0..=model.len()).step_by(step) {
            assert_eq!(v.rank1(i), cums[i], "rank1({i})");
        }
        for i in (0..model.len()).step_by(step) {
            assert_eq!(v.get(i), model[i], "get({i})");
        }
        for k in (0..ones).step_by((ones / 200).max(1)) {
            let p = v.select1(k).unwrap();
            assert!(model[p], "select1({k}) -> {p}");
            assert_eq!(cums[p], k);
        }
        assert_eq!(v.select1(ones), None);
        let zeros = model.len() - ones;
        for k in (0..zeros).step_by((zeros / 200).max(1)) {
            let p = v.select0(k).unwrap();
            assert!(!model[p], "select0({k}) -> {p}");
            assert_eq!(p - cums[p], k);
        }
        assert_eq!(v.select0(zeros), None);
    }

    #[test]
    fn deamortized_default() {
        model_check((0..30_000).map(|i| i % 3 == 0));
    }

    #[test]
    fn tiny_blocks_force_many_seals() {
        // Twelve seals, the last one still in flight at the end.
        model_check((0..12 * BLOCK_BITS + 20).map(|i| (i * i) % 5 == 0));
    }

    #[test]
    fn queries_mid_pending_seal() {
        // Probe immediately after a seal starts, while the builder is mid-flight.
        let mut v = AppendBitVec::new();
        let n = BLOCK_BITS + 10;
        for i in 0..n {
            v.push(i % 2 == 0);
        }
        assert!(v.pending.is_some(), "seal should be in flight");
        assert_eq!(v.rank1(BLOCK_BITS), BLOCK_BITS / 2);
        assert_eq!(v.rank1(n), n / 2);
        assert!(v.get(0));
        assert_eq!(v.select1(10), Some(20));
        assert_eq!(v.select0(10), Some(21));
    }

    /// Every `get`, `rank1`, `select1` and `select0`, and `append_into`,
    /// against the model.
    fn check_every_position(v: &AppendBitVec, model: &[bool]) {
        let n = model.len();
        assert_eq!(v.len(), n);
        let (mut ones, mut zeros) = (0, 0);
        for (i, &b) in model.iter().enumerate() {
            assert_eq!(v.get(i), b, "get({i}) at length {n}");
            assert_eq!(v.rank1(i), ones, "rank1({i}) at length {n}");
            if b {
                assert_eq!(v.select1(ones), Some(i), "select1({ones}) at length {n}");
                ones += 1;
            } else {
                assert_eq!(v.select0(zeros), Some(i), "select0({zeros}) at length {n}");
                zeros += 1;
            }
        }
        assert_eq!(v.rank1(n), ones);
        assert_eq!(v.count_ones(), ones);
        assert_eq!(v.select1(ones), None);
        assert_eq!(v.select0(zeros), None);
        let mut out = RawBitVec::new();
        v.append_into(&mut out);
        assert_eq!(
            out,
            RawBitVec::from_bits(model.iter().copied()),
            "append_into"
        );
    }

    #[test]
    fn inline_word_boundaries() {
        let mut next = wt_workloads::xorshift(0x0014_F11E);
        let mut bit = || next().is_multiple_of(3);
        let mut v = AppendBitVec::new();
        let mut model = Vec::new();
        check_every_position(&v, &model);
        for len in 1..=130 {
            let b = bit();
            v.push(b);
            model.push(b);
            check_every_position(&v, &model);
            if len == 100 {
                // A clone taken here grows apart from the original.
                let (mut c, mut cm) = (v.clone(), model.clone());
                for _ in 0..60 {
                    let b = !bit();
                    c.push(b);
                    cm.push(b);
                    check_every_position(&c, &cm);
                }
            }
        }
        // Across the first seal, which stays in flight for a few dozen
        // appends after the tail fills; a clone taken mid-seal finishes
        // its own copy.
        while model.len() < BLOCK_BITS - 2 {
            let b = bit();
            v.push(b);
            model.push(b);
        }
        let seal_appends = BLOCK_BITS / RRR_BLOCK_BITS / STEPS_PER_APPEND;
        let mut clone = None;
        for len in BLOCK_BITS - 2..=BLOCK_BITS + 70 {
            let in_flight = len > BLOCK_BITS && len <= BLOCK_BITS + seal_appends;
            assert_eq!(v.pending.is_some(), in_flight, "seal at length {len}");
            check_every_position(&v, &model);
            if len == BLOCK_BITS + 10 {
                clone = Some((v.clone(), model.clone()));
            }
            let b = bit();
            v.push(b);
            model.push(b);
        }
        assert!(v.pending.is_none(), "the first seal has finished");
        let (mut c, mut cm) = clone.expect("taken mid-seal");
        for _ in 0..60 {
            let b = !bit();
            c.push(b);
            cm.push(b);
            check_every_position(&c, &cm);
        }
    }

    #[test]
    fn all_same_bit() {
        model_check(std::iter::repeat_n(true, 10_000));
        model_check(std::iter::repeat_n(false, 10_000));
    }

    #[test]
    fn empty_vector() {
        let v = AppendBitVec::new();
        assert_eq!(v.len(), 0);
        assert_eq!(v.rank1(0), 0);
        assert_eq!(v.select1(0), None);
        assert_eq!(v.select0(0), None);
    }

    #[test]
    fn compression_near_entropy() {
        // Long runs: entropy tiny, structure should stay well below plain size.
        let n = 200_000;
        let mut v = AppendBitVec::new();
        for i in 0..n {
            v.push((i / 1000) % 2 == 0);
        }
        let bits = v.size_bits();
        assert!(
            bits < n / 2,
            "append-only bitvector should compress runs: {bits} bits for {n}"
        );
    }
}
