//! # wt-baselines — the comparators of the Wavelet Trie paper
//!
//! Everything the paper positions itself against (§1 "Related work"):
//!
//! * [`NaiveSeq`] — plain `Vec` with linear scans (E4 and E7 baseline).
//! * [`IntWaveletTree`] — the classic fixed-alphabet balanced Wavelet Tree
//!   \[13\] the Wavelet Trie generalizes.
//! * [`DictSequence`] — approach (1): dictionary-mapped integers; rebuilds
//!   on alphabet growth (issue (a)), no prefix queries (issue (b)).
//! * [`BTreeIndex`] — approach (3): sorted `(s, i)` dictionary + full
//!   uncompressed copy; no compression guarantee.
//!
//! Approach (2) (compressed full-text index over the concatenation) is a
//! documented omission — see DESIGN.md.

pub mod btree_index;
pub mod dict_sequence;
pub mod int_wavelet_tree;
pub mod naive;

pub use btree_index::BTreeIndex;
pub use dict_sequence::DictSequence;
pub use int_wavelet_tree::IntWaveletTree;
pub use naive::NaiveSeq;
