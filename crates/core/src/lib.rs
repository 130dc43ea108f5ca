//! # wavelet-trie — compressed indexed sequences of strings
//!
//! A from-scratch implementation of *"The Wavelet Trie: Maintaining an
//! Indexed Sequence of Strings in Compressed Space"* (Roberto Grossi,
//! Giuseppe Ottaviano — PODS 2012).
//!
//! An *indexed sequence of strings* stores `S = ⟨s₀, …, s_{n−1}⟩` (order
//! matters, duplicates allowed) and supports `Access`, `Rank`, `Select`,
//! their prefix variants `RankPrefix`/`SelectPrefix`, range analytics
//! (distinct values, majority, top-t), and — in the dynamic variants —
//! `Insert`, `Append` and `Delete` **with a dynamic alphabet**: strings
//! never seen before can arrive at any time, which static-alphabet Wavelet
//! Trees cannot handle (§1, issue (a)).
//!
//! ## The three variants (Table 1 of the paper)
//!
//! | type | update ops | query time | space |
//! |---|---|---|---|
//! | [`WaveletTrie`] (static) | — | O(\|s\| + h_s) | LB + o(h̃n) |
//! | [`AppendWaveletTrie`] | `append` | O(\|s\| + h_s) | LB + PT + o(h̃n) |
//! | [`DynamicWaveletTrie`] | `insert`/`delete` | O(\|s\| + h_s·log n) | LB + PT + O(nH0) |
//!
//! where `LB = LT(Sset) + nH0(S)` is the information-theoretic lower bound
//! (§3) and `h_s` the trie depth of `s`.
//!
//! ## Quick start
//!
//! ```
//! use wavelet_trie::text::AppendLog;
//!
//! let mut log = AppendLog::new();
//! for url in ["a.com/x", "b.org/y", "a.com/z", "a.com/x"] {
//!     log.append(url);
//! }
//! assert_eq!(log.count("a.com/x"), 2);           // Rank over all
//! assert_eq!(log.count_prefix("a.com/"), 3);     // RankPrefix
//! assert_eq!(log.select_prefix("a.com/", 2), Some(3));
//! assert_eq!(log.get_string(1), "b.org/y");      // Access
//! ```
//!
//! Work at the bit level with [`WaveletTrie`]/[`DynamicWaveletTrie`] and
//! [`wt_trie::BitString`] keys (must form a prefix-free set), or at the
//! byte level with the [`text`] wrappers whose [`binarize::NinthBitCoder`]
//! guarantees prefix-freeness and preserves lexicographic order.
//!
//! Numeric sequences over a huge universe get the §6 treatment in
//! [`RandomizedWaveletTree`]: multiplicative hashing keeps the trie height
//! logarithmic in the *working* alphabet with high probability.
//!
//! Queries live on the **object-safe** [`SeqIndex`] trait (so mixed
//! static/dynamic structures fit behind `Box<dyn SeqIndex>`), with
//! [`SequenceOps`] adding the borrowing iterators. The [`convert`] module
//! converts between the variants structurally: [`DynWaveletTrie::freeze`]
//! seals a dynamic trie into the static form with one walk (no
//! re-insertion), [`static_wt::WaveletTrie::thaw`] melts it back — the
//! machinery behind the `wt-store` tiered store.

mod batch;
pub mod binarize;
pub mod convert;
pub mod dyn_wt;
pub mod hashed;
pub mod nav;
pub mod ops;
pub mod range;
pub mod static_wt;
pub mod stats;
pub mod text;

pub use dyn_wt::{AppendWaveletTrie, DynWaveletTrie, DynamicWaveletTrie, WtBitVec, WtBitVecRemove};
pub use hashed::RandomizedWaveletTree;
pub use nav::TrieNav;
pub use ops::{SeqIndex, SequenceOps};
pub use range::RangeIter;
pub use static_wt::{StaticSpaceBreakdown, WaveletTrie};
pub use stats::SequenceStats;
pub use text::{AppendLog, DynamicStrings, IndexedStrings};

// Re-export the substrate types users need for the bit-level API.
pub use wt_trie::{BitStr, BitString, PrefixFreeViolation};
