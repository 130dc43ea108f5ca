//! The Elias γ code [Elias'75], used by the fully dynamic bitvector (§4.2:
//! runs are encoded with Elias γ).
//!
//! Convention (LSB-first bit order of [`RawBitVec`]): γ(x), x ≥ 1: with
//! N = ⌊log₂ x⌋, write N zeros, then the N+1 significant bits of x starting
//! with the leading 1.

use crate::RawBitVec;

/// Length in bits of the γ code of `x` (`x >= 1`).
#[inline]
pub fn gamma_len(x: u64) -> usize {
    debug_assert!(x >= 1);
    2 * (63 - x.leading_zeros() as usize) + 1
}

/// Appends the γ code of `x >= 1` to `out`.
pub fn gamma_encode(out: &mut RawBitVec, x: u64) {
    debug_assert!(x >= 1);
    let n = 63 - x.leading_zeros() as usize;
    // N zeros.
    out.push_bits(0, n);
    // N+1 significant bits; we emit them LSB-first with the top bit last so
    // the decoder (which reads the marker 1 first) sees MSB-first order.
    // Simpler: emit the marker 1, then the N low bits LSB-first, and have the
    // decoder mirror this.
    out.push(true);
    if n > 0 {
        out.push_bits(x & ((1u64 << n) - 1), n);
    }
}

/// A cursor for sequentially decoding codes out of a [`RawBitVec`].
///
/// All reads go through a 64-bit lookahead word (`peek_word`)
/// assembled straight from the backing words, so a unary prefix is decoded
/// with one `trailing_zeros` instead of a bit-at-a-time loop and a whole
/// γ code usually costs a single peek. The same word-level discipline pays
/// off wherever variable-length codes are scanned (γ runs here, and the
/// RRR-offset / Elias–Fano style "count to the next 1" loops).
#[derive(Clone, Copy, Debug)]
pub struct BitReader<'a> {
    words: &'a [u64],
    len: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Starts reading at bit `pos`.
    #[inline]
    pub fn new(bits: &'a RawBitVec, pos: usize) -> Self {
        debug_assert!(pos <= bits.len());
        Self {
            words: bits.words(),
            len: bits.len(),
            pos,
        }
    }

    /// Current bit position.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the cursor reached the end.
    #[inline]
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.len
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    /// The next 64 bits starting at the cursor, LSB-first, zero-padded past
    /// the end of the stream (the tail word is kept masked by `RawBitVec`).
    #[inline]
    fn peek_word(&self) -> u64 {
        let w = self.pos / 64;
        let off = self.pos % 64;
        let lo = self.word(w) >> off;
        if off == 0 {
            lo
        } else {
            lo | (self.word(w + 1) << (64 - off))
        }
    }

    /// Reads `width <= 64` bits LSB-first.
    #[inline]
    pub fn read_bits(&mut self, width: usize) -> u64 {
        debug_assert!(width <= 64);
        assert!(self.pos + width <= self.len, "BitReader read past end");
        let v = if width == 64 {
            self.peek_word()
        } else {
            self.peek_word() & ((1u64 << width) - 1)
        };
        self.pos += width;
        v
    }

    /// Counts zeros up to (not including) the next 1, consuming it too.
    ///
    /// Word-at-a-time: each iteration consumes up to 64 zeros with one
    /// `trailing_zeros` on the lookahead word.
    #[inline]
    pub fn read_unary(&mut self) -> usize {
        let mut n = 0usize;
        loop {
            let w = self.peek_word();
            if w != 0 {
                let tz = w.trailing_zeros() as usize;
                self.pos += tz + 1;
                debug_assert!(self.pos <= self.len);
                return n + tz;
            }
            let step = (self.len - self.pos).min(64);
            assert!(step > 0, "BitReader: unary code runs past end");
            n += step;
            self.pos += step;
        }
    }

    /// Decodes one γ code.
    #[inline]
    pub fn read_gamma(&mut self) -> u64 {
        // Fast path: the whole code (N zeros, marker 1, N low bits) sits in
        // the 64-bit lookahead, true for any value below 2^32.
        let w = self.peek_word();
        if w != 0 {
            let n = w.trailing_zeros() as usize;
            if 2 * n < 64 {
                self.pos += 2 * n + 1;
                debug_assert!(self.pos <= self.len);
                let low = (w >> (n + 1)) & ((1u64 << n) - 1);
                return (1u64 << n) | low;
            }
        }
        let n = self.read_unary();
        let low = if n > 0 { self.read_bits(n) } else { 0 };
        (1u64 << n) | low
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_roundtrip_exhaustive_small() {
        let mut bv = RawBitVec::new();
        for x in 1..=2000u64 {
            gamma_encode(&mut bv, x);
        }
        let mut r = BitReader::new(&bv, 0);
        for x in 1..=2000u64 {
            assert_eq!(r.read_gamma(), x);
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn roundtrip_large_values() {
        let vals = [
            1u64,
            2,
            3,
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
            0x8000_0000_0000_0000,
        ];
        let mut bv = RawBitVec::new();
        for &x in &vals {
            gamma_encode(&mut bv, x);
        }
        let mut r = BitReader::new(&bv, 0);
        for &x in &vals {
            assert_eq!(r.read_gamma(), x, "gamma {x}");
        }
    }

    #[test]
    fn lengths_match_encoding() {
        for x in (1..5000u64).step_by(7).chain([u64::MAX, 1 << 40]) {
            let mut bv = RawBitVec::new();
            gamma_encode(&mut bv, x);
            assert_eq!(bv.len(), gamma_len(x), "gamma_len({x})");
        }
    }

    #[test]
    fn gamma_len_of_small_values() {
        assert_eq!(gamma_len(1), 1);
        assert_eq!(gamma_len(2), 3);
        assert_eq!(gamma_len(3), 3);
        assert_eq!(gamma_len(4), 5);
    }

    #[test]
    fn reader_resumes_mid_stream() {
        let mut bv = RawBitVec::new();
        gamma_encode(&mut bv, 42);
        let mark = bv.len();
        gamma_encode(&mut bv, 999);
        let mut r = BitReader::new(&bv, mark);
        assert_eq!(r.read_gamma(), 999);
    }
}
