//! # wt-bits — succinct bitvector substrates for the Wavelet Trie
//!
//! Every bitvector the paper *"The Wavelet Trie: Maintaining an Indexed
//! Sequence of Strings in Compressed Space"* (Grossi & Ottaviano, PODS 2012)
//! relies on, implemented from scratch:
//!
//! * [`RawBitVec`] — plain word-packed bits (the storage layer).
//! * [`Fid`] — uncompressed Fully Indexable Dictionary: O(1) rank,
//!   fast select (§2 "Bitvectors and FIDs").
//! * [`RrrVector`] — the RRR entropy-compressed FID of
//!   Raman–Raman–Rao, `B(m,n) + o(n)` bits (§2).
//! * [`EliasFano`] — monotone sequences / partial sums, used to delimit
//!   labels and node bitvectors in the static Wavelet Trie (§3).
//! * [`codes`] — Elias γ and δ universal codes (§4.2).
//! * [`AppendBitVec`] — the append-only compressed bitvector of §4.1
//!   (Theorem 4.5), with de-amortized sealing.
//! * [`OffsetBitVec`] — append-only bitvector with an implicit constant
//!   prefix: the O(1) `Init` of the append-only Wavelet Trie (§4).
//! * [`DynamicBitVec`] — the fully dynamic RLE+γ bitvector of §4.2
//!   (Theorem 4.9) with O(log n) `Insert`/`Delete` and O(1) `Init`.
//! * [`entropy`] — `H0`, `B(m,n)` and the [`SpaceUsage`] trait backing the
//!   space experiments.
//!
//! The traits [`BitAccess`], [`BitRank`], [`BitSelect`] give all of these a
//! common query interface.

pub mod append_only;
pub mod broadword;
pub mod codes;
pub mod dynamic;
pub mod elias_fano;
pub mod entropy;
pub mod fid;
pub mod offset;
pub mod persist;
pub mod raw;
pub mod rrr;
pub mod storage;
pub mod words;

pub use append_only::AppendBitVec;
pub use dynamic::DynamicBitVec;
pub use elias_fano::EliasFano;
pub use entropy::SpaceUsage;
pub use fid::{BitAccess, BitRank, BitSelect, Fid};
pub use offset::OffsetBitVec;
pub use persist::{LoadError, Persist};
pub use raw::RawBitVec;
pub use rrr::{RrrBuilder, RrrVector};
pub use storage::{
    write_atomic, FaultPlan, FaultStorage, FsStorage, MemFs, RetryPolicy, RetryingStorage, Storage,
};
pub use words::{U32Words, Words};
