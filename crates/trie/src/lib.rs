//! # wt-trie — trie substrates for the Wavelet Trie
//!
//! Substrates from §2, §3 and Appendix B of *"The Wavelet Trie"*
//! (Grossi & Ottaviano, PODS 2012):
//!
//! * [`bitstr`] — binary strings at bit granularity ([`BitString`],
//!   [`BitStr`]): LCP, slicing, ordering.
//! * [`patricia`] — the dynamic Patricia trie of Appendix B
//!   ([`PatriciaSet`]), with O(|s|) insert and merge-on-delete.
//!
//! The static Wavelet Trie needs no tree encoding from this crate: its
//! internal nodes are always binary, so numbering nodes in level order
//! makes one internal flag per node the whole topology (see
//! `wavelet_trie::WaveletTrie`).

pub mod bitstr;
pub mod patricia;

pub use bitstr::{BitStr, BitString};
pub use patricia::{PatriciaSet, PrefixFreeViolation};
