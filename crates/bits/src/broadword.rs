//! Broadword (word-parallel) bit primitives.
//!
//! The only non-trivial primitive needed by the rank/select structures is
//! in-word select, answered by popcount-guided binary search over word
//! halves — branch-light and table-free.

/// Lanes per software-pipeline chunk in the `*_batch` entry points:
/// enough in-flight lanes to cover a DRAM miss, small enough that the
/// chunk's prefetched lines all survive until their resolve round. Every
/// batched kernel in this crate chunks at this width — prefetching a
/// whole unbounded batch up front would evict its own early lines before
/// the resolve loop reaches them.
pub(crate) const PIPELINE_LANES: usize = 64;

/// Hints the CPU to pull the cache line holding `*p` towards L1.
///
/// This is the latency-hiding primitive behind every `*_batch` entry point:
/// a batched query issues the prefetches for all lanes' directory words
/// before touching any payload, so the misses of independent lanes overlap
/// instead of serializing. A prefetch is a pure hint — it never faults, so
/// slightly-out-of-range addresses (e.g. one past a directory) are fine —
/// and on architectures without a stable intrinsic it compiles to nothing.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it performs no memory access that could
    // fault, regardless of the pointer's validity.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is a hint instruction; it never faults.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{0}]",
            in(reg) p as *const u8,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Position (0-based) of the `k`-th (0-based) set bit of `x`.
///
/// # Panics
/// Debug-panics if `x` has at most `k` set bits; in release the result is
/// unspecified (but in-range) in that case.
#[inline]
pub fn select_in_word(mut x: u64, mut k: u32) -> u32 {
    debug_assert!(x.count_ones() > k, "select_in_word: not enough ones");
    let mut pos = 0u32;
    let c = (x as u32).count_ones();
    if k >= c {
        x >>= 32;
        pos += 32;
        k -= c;
    }
    let c = (x as u16 as u32).count_ones();
    if k >= c {
        x >>= 16;
        pos += 16;
        k -= c;
    }
    let c = (x as u8 as u32).count_ones();
    if k >= c {
        x >>= 8;
        pos += 8;
        k -= c;
    }
    let c = ((x & 0xF) as u32).count_ones();
    if k >= c {
        x >>= 4;
        pos += 4;
        k -= c;
    }
    let c = ((x & 0x3) as u32).count_ones();
    if k >= c {
        x >>= 2;
        pos += 2;
        k -= c;
    }
    if k >= (x & 1) as u32 {
        pos += 1;
    }
    pos
}

/// Position of the `k`-th zero bit of `x` (i.e. select over the complement).
#[inline]
pub fn select_zero_in_word(x: u64, k: u32) -> u32 {
    select_in_word(!x, k)
}

/// Largest index `b` in `[lo, hi)` with `count_before(b) <= k`, for a
/// non-decreasing count function — the block-locating binary search every
/// sampled select implementation shares ([`crate::Fid`], the append-only
/// bitvector's sealed-block directory, small explicit tails).
#[inline]
pub fn select_block<F: Fn(usize) -> usize>(
    mut lo: usize,
    mut hi: usize,
    k: usize,
    count_before: F,
) -> usize {
    debug_assert!(lo < hi);
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if count_before(mid) <= k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Restricts `word` to its low `valid` bits, complementing first when
/// selecting zeros so padding past the end is never counted.
#[inline]
fn candidate_bits(word: u64, bit: bool, valid: usize) -> u64 {
    let w = if bit { word } else { !word };
    if valid >= 64 {
        w
    } else {
        w & ((1u64 << valid) - 1)
    }
}

/// Number of `bit`-valued entries among the low `valid` bits of `word`.
#[inline]
pub fn count_bit_in_word(word: u64, bit: bool, valid: usize) -> u32 {
    candidate_bits(word, bit, valid).count_ones()
}

/// Position of the `k`-th `bit`-valued entry among the low `valid` bits of
/// `word` — the in-word finishing step after a block search.
#[inline]
pub fn select_bit_in_word(word: u64, bit: bool, valid: usize, k: u32) -> u32 {
    select_in_word(candidate_bits(word, bit, valid), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_workloads::xorshift;

    fn naive_select(x: u64, k: u32) -> Option<u32> {
        let mut seen = 0;
        for i in 0..64 {
            if (x >> i) & 1 != 0 {
                if seen == k {
                    return Some(i);
                }
                seen += 1;
            }
        }
        None
    }

    #[test]
    fn select_matches_naive_on_patterns() {
        let patterns = [
            1u64,
            u64::MAX,
            0x8000_0000_0000_0000,
            0xAAAA_AAAA_AAAA_AAAA,
            0x5555_5555_5555_5555,
            0xF0F0_F0F0_0F0F_0F0F,
            0x0123_4567_89AB_CDEF,
            0x8000_0000_0000_0001,
        ];
        for &p in &patterns {
            for k in 0..p.count_ones() {
                assert_eq!(
                    select_in_word(p, k),
                    naive_select(p, k).unwrap(),
                    "p={p:#x} k={k}"
                );
            }
        }
    }

    #[test]
    fn select_matches_naive_pseudorandom() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for _ in 0..2000 {
            let s = next();
            let ones = s.count_ones();
            if ones == 0 {
                continue;
            }
            let k = (s >> 32) as u32 % ones;
            assert_eq!(select_in_word(s, k), naive_select(s, k).unwrap());
        }
    }

    #[test]
    fn select_zero_is_select_of_complement() {
        let x = 0xF0F0_F0F0_F0F0_F0F0u64;
        for k in 0..32 {
            assert_eq!(select_zero_in_word(x, k), naive_select(!x, k).unwrap());
        }
    }

    #[test]
    fn select_block_finds_last_block_not_past_k() {
        // Blocks of counts [0, 3, 3, 7, 10] (cumulative before each index).
        let cum = [0usize, 3, 3, 7, 10];
        let count_before = |i: usize| cum[i];
        for k in 0..10 {
            let b = select_block(0, cum.len(), k, count_before);
            assert!(cum[b] <= k, "k={k} b={b}");
            assert!(b + 1 == cum.len() || cum[b + 1] > k, "k={k} b={b}");
        }
        // A narrowed window behaves identically.
        assert_eq!(select_block(1, 4, 5, count_before), 2);
    }

    #[test]
    fn masked_word_select_ignores_padding() {
        // 10 valid bits, the rest of the word is garbage padding.
        let word = 0xFFFF_FFFF_FFFF_FC05u64; // valid low 10: 0000000101
        assert_eq!(count_bit_in_word(word, true, 10), 2);
        assert_eq!(count_bit_in_word(word, false, 10), 8);
        assert_eq!(select_bit_in_word(word, true, 10, 0), 0);
        assert_eq!(select_bit_in_word(word, true, 10, 1), 2);
        assert_eq!(select_bit_in_word(word, false, 10, 0), 1);
        assert_eq!(select_bit_in_word(word, false, 10, 7), 9);
        // valid = 64 is the unmasked case.
        assert_eq!(count_bit_in_word(u64::MAX, true, 64), 64);
        assert_eq!(count_bit_in_word(u64::MAX, false, 64), 0);
    }
}
