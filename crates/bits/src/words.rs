//! Owned-vs-borrowed word storage — the substrate of zero-copy persistence.
//!
//! Every static container in this workspace ultimately stores flat arrays
//! of little-endian `u64` words (RRR classes, rank directories, Elias–Fano
//! halves, …). [`Words`] makes that storage *relocatable*: a freshly
//! built structure owns its `Vec<u64>`, while a structure loaded from disk
//! borrows a sub-range of one shared [`Arc`] buffer — the validate-then-view
//! load path carves all components out of a single allocation with zero
//! per-bit work. `Words` dereferences to `[u64]`, so query code is
//! oblivious to which variant it is running on; mutation goes through
//! [`Words::make_mut`], which copies a view out into owned storage first
//! (construction paths always start owned, so they never pay the copy).

use std::sync::Arc;

/// A flat array of `u64` words, either owned or a view into a shared
/// relocatable buffer (a loaded archive).
#[derive(Clone)]
pub enum Words {
    /// Mutable storage, used by all construction paths.
    Owned(Vec<u64>),
    /// `buf[start..start + len]`, carved out of a loaded archive. Cloning
    /// is an `Arc` bump; the backing buffer outlives every view into it.
    View {
        /// The shared archive payload.
        buf: Arc<[u64]>,
        /// First word of this component within `buf`.
        start: usize,
        /// Number of words.
        len: usize,
    },
}

impl Words {
    /// Empty owned storage.
    #[inline]
    pub fn new() -> Self {
        Words::Owned(Vec::new())
    }

    /// Owned storage with reserved capacity.
    #[inline]
    pub fn with_capacity(words: usize) -> Self {
        Words::Owned(Vec::with_capacity(words))
    }

    /// The words as a slice (also available through `Deref`).
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        match self {
            Words::Owned(v) => v,
            Words::View { buf, start, len } => &buf[*start..*start + *len],
        }
    }

    /// Mutable access, converting a borrowed view into owned storage first
    /// (copy-on-write). Construction paths are always `Owned`, so this is
    /// a no-op branch for them.
    #[inline]
    pub fn make_mut(&mut self) -> &mut Vec<u64> {
        if let Words::View { buf, start, len } = self {
            *self = Words::Owned(buf[*start..*start + *len].to_vec());
        }
        match self {
            Words::Owned(v) => v,
            Words::View { .. } => unreachable!(),
        }
    }

    /// Whether this is a borrowed view into a loaded archive.
    #[inline]
    pub fn is_view(&self) -> bool {
        matches!(self, Words::View { .. })
    }

    /// Heap size in bits. Owned storage counts its capacity; a view counts
    /// its span of the shared buffer — sections carved from one archive are
    /// disjoint, so summing views over all components counts the mapped
    /// buffer exactly once.
    pub fn size_bits(&self) -> usize {
        match self {
            Words::Owned(v) => v.capacity() * 64,
            Words::View { len, .. } => len * 64,
        }
    }
}

impl Default for Words {
    fn default() -> Self {
        Words::new()
    }
}

impl std::ops::Deref for Words {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl From<Vec<u64>> for Words {
    fn from(v: Vec<u64>) -> Self {
        Words::Owned(v)
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Words {}

impl std::hash::Hash for Words {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Words {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = if self.is_view() { "View" } else { "Owned" };
        write!(f, "Words::{tag}[{} words]", self.len())
    }
}

/// A `u32` array packed two-per-word into [`Words`] storage, so select
/// hints and child directories serialize with the same relocatable layout
/// as everything else. Entry `i` lives in the low (even `i`) or high
/// (odd `i`) half of word `i / 2`; the trailing half-word is zero.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct U32Words {
    words: Words,
    len: usize,
}

impl U32Words {
    /// Packs a `u32` vector.
    pub fn from_vec(v: Vec<u32>) -> Self {
        let mut words = vec![0u64; v.len().div_ceil(2)];
        for (i, &x) in v.iter().enumerate() {
            words[i / 2] |= (x as u64) << (32 * (i % 2));
        }
        U32Words {
            words: Words::Owned(words),
            len: v.len(),
        }
    }

    /// Wraps pre-packed storage; `words.len()` must be `len.div_ceil(2)`.
    pub fn from_raw(words: Words, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(2));
        U32Words { words, len }
    }

    /// Number of `u32` entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entry `i`.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        assert!(
            i < self.len,
            "U32Words index {i} out of bounds ({})",
            self.len
        );
        (self.words[i / 2] >> (32 * (i % 2))) as u32
    }

    /// Entry `i`, or `None` past the end.
    #[inline]
    pub fn get_opt(&self, i: usize) -> Option<u32> {
        (i < self.len).then(|| self.get(i))
    }

    /// The packed backing words.
    #[inline]
    pub fn words(&self) -> &Words {
        &self.words
    }

    /// Heap size in bits (see [`Words::size_bits`]).
    pub fn size_bits(&self) -> usize {
        self.words.size_bits() + 64
    }
}

impl std::fmt::Debug for U32Words {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "U32Words[{}]", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_owned_view_equivalence() {
        let v: Vec<u64> = (0..100u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let owned = Words::Owned(v.clone());
        let buf: Arc<[u64]> = v.clone().into();
        let view = Words::View {
            buf: buf.clone(),
            start: 0,
            len: v.len(),
        };
        assert_eq!(owned, view);
        assert_eq!(&view[..], &v[..]);
        let sub = Words::View {
            buf,
            start: 10,
            len: 5,
        };
        assert_eq!(&sub[..], &v[10..15]);
        assert!(sub.is_view());
        assert_eq!(sub.size_bits(), 5 * 64);
    }

    #[test]
    fn make_mut_copies_view_out() {
        let buf: Arc<[u64]> = vec![1, 2, 3, 4].into();
        let mut w = Words::View {
            buf,
            start: 1,
            len: 2,
        };
        w.make_mut().push(9);
        assert!(!w.is_view());
        assert_eq!(&w[..], &[2, 3, 9]);
    }

    #[test]
    fn u32_words_roundtrip() {
        for n in [0usize, 1, 2, 3, 7, 100] {
            let v: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
            let packed = U32Words::from_vec(v.clone());
            assert_eq!(packed.len(), n);
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(packed.get(i), x);
                assert_eq!(packed.get_opt(i), Some(x));
            }
            assert_eq!(packed.get_opt(n), None);
            let re = U32Words::from_raw(packed.words().clone(), n);
            assert_eq!(re, packed);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn u32_words_oob_panics() {
        U32Words::from_vec(vec![1, 2, 3]).get(3);
    }
}
