//! # wt-trie — binary strings for the Wavelet Trie
//!
//! [`bitstr`] holds the binary strings the Wavelet Trie of *"The Wavelet
//! Trie"* (Grossi & Ottaviano, PODS 2012) stores, at bit granularity:
//! [`BitString`] and the borrowed [`BitStr`] with LCP, slicing and
//! ordering, plus [`PrefixFreeViolation`], the error every structure
//! returns when a string would break §3's prefix-free requirement.
//!
//! The Patricia trie of §2 and Appendix B is not a separate structure
//! here: the Wavelet Trie is that trie with a bitvector on each internal
//! node. The dynamic variants split and merge its nodes
//! (`wavelet_trie::DynWaveletTrie`), one set of descents serves every
//! variant (`wavelet_trie::TrieNav`), and the static trie numbers its
//! nodes in level order, so one internal flag per node is the whole
//! topology (`wavelet_trie::WaveletTrie`).

pub mod bitstr;

pub use bitstr::{BitStr, BitString, PrefixFreeViolation};
