//! Binary strings at bit granularity.
//!
//! The Wavelet Trie stores sequences of *binary strings* (§3: "We focus on
//! binary strings without loss of generality"). [`BitString`] is the owned
//! type and [`BitStr`] a borrowed sub-range view; both support the
//! operations Patricia tries live on: longest common prefix, slicing,
//! lexicographic comparison.

use wt_bits::RawBitVec;

/// Error returned when an operation would break prefix-freeness
/// (the paper requires `Sset` prefix-free; see §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixFreeViolation;

impl std::fmt::Display for PrefixFreeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operation would make the string set non-prefix-free")
    }
}

impl std::error::Error for PrefixFreeViolation {}

/// An owned binary string (sequence of bits).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    bits: RawBitVec,
}

impl BitString {
    /// The empty string ε.
    pub fn new() -> Self {
        Self::default()
    }

    /// From an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitString {
            bits: RawBitVec::from_bits(iter),
        }
    }

    /// Parses a `0`/`1` string, e.g. `BitString::parse("00100")` — handy for
    /// transcribing the paper's figures.
    ///
    /// # Panics
    /// On characters other than `0`/`1`.
    pub fn parse(s: &str) -> Self {
        BitString {
            bits: RawBitVec::from_bit_str(s),
        }
    }

    /// Length in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether this is ε.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Appends a bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        self.bits.push(bit);
    }

    /// Appends all bits of `other`.
    pub fn push_str(&mut self, other: BitStr<'_>) {
        self.bits
            .extend_from_range(other.bits, other.start, other.len);
    }

    /// Keeps only the first `len` bits.
    pub fn truncate(&mut self, len: usize) {
        self.bits.truncate(len);
    }

    /// Removes all bits.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Borrowed view of the whole string.
    #[inline]
    pub fn as_bitstr(&self) -> BitStr<'_> {
        BitStr {
            bits: &self.bits,
            start: 0,
            len: self.bits.len(),
        }
    }

    /// Borrowed view of `self[start..start+len]`.
    #[inline]
    pub fn sub(&self, start: usize, len: usize) -> BitStr<'_> {
        self.as_bitstr().sub(start, len)
    }

    /// Borrowed suffix `self[start..]`.
    #[inline]
    pub fn suffix(&self, start: usize) -> BitStr<'_> {
        self.as_bitstr().suffix(start)
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.bits.iter()
    }

    /// The backing raw bits.
    #[inline]
    pub fn raw(&self) -> &RawBitVec {
        &self.bits
    }

    /// Heap size in bits (space experiments).
    pub fn size_bits(&self) -> usize {
        self.bits.size_bits()
    }
}

impl std::fmt::Debug for BitString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self.as_bitstr(), f)
    }
}

impl std::fmt::Display for BitString {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&self.as_bitstr(), f)
    }
}

impl PartialOrd for BitString {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitString {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bitstr().cmp(&other.as_bitstr())
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

impl<'a> From<BitStr<'a>> for BitString {
    fn from(s: BitStr<'a>) -> Self {
        let mut out = BitString::new();
        out.push_str(s);
        out
    }
}

/// A borrowed view into a range of bits of some [`RawBitVec`].
#[derive(Clone, Copy)]
pub struct BitStr<'a> {
    bits: &'a RawBitVec,
    start: usize,
    len: usize,
}

impl<'a> BitStr<'a> {
    /// Views `bits[start..start+len]`.
    ///
    /// # Panics
    /// If the range is out of bounds.
    pub fn new(bits: &'a RawBitVec, start: usize, len: usize) -> Self {
        assert!(start + len <= bits.len(), "BitStr range out of bounds");
        BitStr { bits, start, len }
    }

    /// Length in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is ε.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i` of the view.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "BitStr index {i} out of bounds (len {})",
            self.len
        );
        unsafe { self.bits.get_unchecked(self.start + i) }
    }

    /// Up to 64 bits starting at `i`, LSB-first.
    #[inline]
    pub fn get_bits(&self, i: usize, width: usize) -> u64 {
        assert!(i + width <= self.len);
        self.bits.get_bits(self.start + i, width)
    }

    /// Sub-view `self[start..start+len]`.
    #[inline]
    pub fn sub(&self, start: usize, len: usize) -> BitStr<'a> {
        assert!(start + len <= self.len, "BitStr sub-range out of bounds");
        BitStr {
            bits: self.bits,
            start: self.start + start,
            len,
        }
    }

    /// Suffix `self[start..]`.
    #[inline]
    pub fn suffix(&self, start: usize) -> BitStr<'a> {
        assert!(start <= self.len);
        self.sub(start, self.len - start)
    }

    /// Prefix `self[..len]`.
    #[inline]
    pub fn prefix(&self, len: usize) -> BitStr<'a> {
        self.sub(0, len)
    }

    /// Length of the longest common prefix with `other`, compared 64 bits
    /// at a time.
    pub fn lcp(&self, other: &BitStr<'_>) -> usize {
        let n = self.len.min(other.len);
        let mut i = 0usize;
        while i < n {
            let w = (n - i).min(64);
            let a = self.bits.get_bits(self.start + i, w);
            let b = other.bits.get_bits(other.start + i, w);
            let x = a ^ b;
            if x != 0 {
                return i + (x.trailing_zeros() as usize).min(w);
            }
            i += w;
        }
        n
    }

    /// Whether `self` starts with `prefix`.
    pub fn starts_with(&self, prefix: &BitStr<'_>) -> bool {
        prefix.len <= self.len && self.lcp(prefix) == prefix.len
    }

    /// Iterates over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + 'a {
        let bits = self.bits;
        let start = self.start;
        (0..self.len).map(move |i| unsafe { bits.get_unchecked(start + i) })
    }

    /// Copies into an owned [`BitString`].
    pub fn to_owned_str(&self) -> BitString {
        BitString::from(*self)
    }

    /// Appends this view's bits to a raw bitvector (word-level copy).
    pub fn append_into(&self, out: &mut RawBitVec) {
        out.extend_from_range(self.bits, self.start, self.len);
    }
}

impl PartialEq for BitStr<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.lcp(other) == self.len
    }
}

impl Eq for BitStr<'_> {}

impl PartialOrd for BitStr<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitStr<'_> {
    /// Lexicographic order; a proper prefix sorts before its extensions.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let l = self.lcp(other);
        if l == self.len && l == other.len {
            std::cmp::Ordering::Equal
        } else if l == self.len {
            std::cmp::Ordering::Less
        } else if l == other.len {
            std::cmp::Ordering::Greater
        } else {
            // First differing bit decides.
            self.get(l).cmp(&other.get(l))
        }
    }
}

impl std::hash::Hash for BitStr<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        let mut i = 0;
        while i < self.len {
            let w = (self.len - i).min(64);
            self.get_bits(i, w).hash(state);
            i += w;
        }
    }
}

impl std::fmt::Debug for BitStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "\"")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "\"")
    }
}

impl std::fmt::Display for BitStr<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["", "0", "1", "00100", "110010101010101010101"] {
            assert_eq!(BitString::parse(s).to_string(), s);
        }
    }

    #[test]
    fn lcp_basic() {
        let a = BitString::parse("0010100");
        let b = BitString::parse("0011");
        assert_eq!(a.as_bitstr().lcp(&b.as_bitstr()), 3);
        assert_eq!(a.as_bitstr().lcp(&a.as_bitstr()), 7);
        let e = BitString::new();
        assert_eq!(a.as_bitstr().lcp(&e.as_bitstr()), 0);
    }

    #[test]
    fn lcp_across_word_boundaries() {
        let mut a = BitString::new();
        let mut b = BitString::new();
        for i in 0..200 {
            let bit = i % 3 == 0;
            a.push(bit);
            b.push(bit);
        }
        assert_eq!(a.as_bitstr().lcp(&b.as_bitstr()), 200);
        b.push(true);
        a.push(false);
        assert_eq!(a.as_bitstr().lcp(&b.as_bitstr()), 200);
        // Mismatch at bit 100.
        let mut c = BitString::from(a.sub(0, 150));
        let mut d = BitString::from(a.sub(0, 150));
        c.truncate(100);
        c.push(!a.get(100));
        c.push_str(a.sub(101, 49));
        assert_eq!(c.len(), 150);
        assert_eq!(d.as_bitstr().lcp(&c.as_bitstr()), 100);
        d.clear();
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn sub_views_are_offset_correct() {
        let s = BitString::parse("0110100110010110");
        let v = s.sub(3, 8);
        assert_eq!(v.to_owned_str().to_string(), "01001100");
        let vv = v.sub(2, 4);
        assert_eq!(vv.to_owned_str().to_string(), "0011");
        assert_eq!(v.suffix(6).to_owned_str().to_string(), "00");
        assert_eq!(v.prefix(3).to_owned_str().to_string(), "010");
    }

    #[test]
    fn ordering_is_lexicographic_with_prefix_less() {
        let strs = ["", "0", "00", "0010", "01", "1", "10", "11"];
        let parsed: Vec<BitString> = strs.iter().map(|s| BitString::parse(s)).collect();
        for i in 0..parsed.len() {
            for j in 0..parsed.len() {
                let want = strs[i].cmp(strs[j]); // ASCII '0'<'1' gives the same order
                assert_eq!(
                    parsed[i].cmp(&parsed[j]),
                    want,
                    "{:?} vs {:?}",
                    strs[i],
                    strs[j]
                );
            }
        }
    }

    #[test]
    fn starts_with_works() {
        let s = BitString::parse("110101");
        assert!(s
            .as_bitstr()
            .starts_with(&BitString::parse("110").as_bitstr()));
        assert!(s.as_bitstr().starts_with(&BitString::new().as_bitstr()));
        assert!(!s
            .as_bitstr()
            .starts_with(&BitString::parse("111").as_bitstr()));
        assert!(!s
            .as_bitstr()
            .starts_with(&BitString::parse("1101011").as_bitstr()));
    }

    #[test]
    fn eq_and_hash_respect_offsets() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = BitString::parse("0011010");
        let b = BitString::parse("110011010");
        let va = a.as_bitstr();
        let vb = b.sub(2, 7);
        assert_eq!(va, vb);
        let hash = |v: &BitStr<'_>| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&va), hash(&vb));
    }

    #[test]
    fn push_str_concatenates() {
        let mut s = BitString::parse("101");
        s.push_str(BitString::parse("0011").as_bitstr());
        assert_eq!(s.to_string(), "1010011");
    }
}
