//! # wt-store — an LSM-style tiered store over Wavelet Trie segments
//!
//! The paper's Table 1 is a tradeoff: the static Wavelet Trie
//! (Theorem 3.7) is the smallest and fastest to query, while the §4
//! dynamic variants absorb updates at O(log n) cost per bit. The paper's
//! own motivating workload — a growing URL log (§1) — wants both at once.
//! [`TieredStore`] resolves the tension the way log-structured systems do:
//!
//! * a **hot tail** absorbs appends/inserts/deletes. It is an
//!   [`AppendWaveletTrie`] (Theorem 4.3, appends in O(|s| + h_s)) while it
//!   only grows at its end; the first insert anywhere else in it, or any
//!   delete, converts it once to a [`DynamicWaveletTrie`] (Theorem 4.4,
//!   edits in O(|s| + h_s log n)), which it stays until sealed;
//! * once the tail reaches `seal_at` strings it is **sealed** into an
//!   immutable static segment by the structural
//!   [`wavelet_trie::DynWaveletTrie::freeze`] — a single trie walk, no
//!   re-insertion of strings — and a fresh append-only tail starts;
//! * an insert/delete that lands inside a sealed segment **melts** just
//!   that segment back to dynamic form ([`wavelet_trie::WaveletTrie::thaw`]);
//!   melted middles stay dynamic until re-frozen;
//! * **compaction** merges adjacent small segments (thaw into the
//!   append-only trie + append + freeze) so the segment count stays
//!   bounded by `max_sealed`.
//!
//! Global positions are routed by walking the segment lengths in order.
//! Queries merge per-segment answers: `rank`/`count` sum across segments,
//! `select` walks segment counts with early exit, and the §5 analytics
//! (distinct values, majority, frequent) combine per-segment results
//! exactly — every operation returns the same answer a single monolithic
//! Wavelet Trie over the concatenated sequence would (the randomized
//! op-interleave suite pins this against a naive oracle).
//!
//! Heterogeneous segments — static or dynamic — sit behind the object-safe
//! [`SeqIndex`] trait; the store itself implements [`SeqIndex`] too, so a
//! `Box<dyn SeqIndex>` may hold a plain trie or a whole tiered store.
//!
//! The store keeps the global string set **prefix-free across segments**
//! (checked per insert with one descent per segment), preserving the §3
//! invariant the per-segment tries rely on and keeping results identical
//! to the monolithic equivalent.
//!
//! # Concurrency model: epoch-swapped snapshots
//!
//! The store serves concurrent traffic with a single-writer /
//! many-readers design (see the [`snapshot`] module docs for the full
//! picture):
//!
//! * Every handle here is thread-safe: [`TieredStore`], [`StoreReader`]
//!   and [`StoreSnapshot`] are all `Send + Sync` (compile-time asserted
//!   below). Mutation goes through `&mut self`, so Rust's borrow rules
//!   enforce the single writer statically.
//! * The writer calls [`TieredStore::publish`] at the consistency points
//!   it chooses; each publish freezes the current segment manifest into an
//!   immutable epoch and swaps it into a shared slot.
//! * Readers hold a [`StoreReader`] (from [`TieredStore::reader`]) and
//!   take [`StoreSnapshot`]s from any thread, wait-free of the query path:
//!   a snapshot is an `Arc` of the published epoch and keeps answering
//!   bit-identically to its publish point no matter what the writer does
//!   next — sealed segments are immutable behind `Arc`, and the hot tail
//!   is copy-on-write ([`std::sync::Arc::make_mut`]), so the writer's
//!   post-publish mutations land on a private copy.
//! * Background maintenance — seal, compact, persist, publish — runs
//!   under panic containment with retries and a structured report; see
//!   [`TieredStore::maintain`] and the [`maintain`] module. A maintenance
//!   step that fails or panics leaves the previous epoch served
//!   bit-identically; nothing observable from the query API ever panics
//!   or poisons a lock (the interleave harness in `tests/interleave.rs`
//!   enumerates every step and proves it).

pub mod durable;
pub mod error;
pub mod maintain;
pub(crate) mod merged;
pub mod snapshot;
pub mod text;

pub use error::{Quarantine, RecoveryReport, StoreError, StoreErrorCause, StoreOp};
pub use maintain::{
    Maintenance, MaintenanceFailure, MaintenanceProbe, MaintenanceReport, MaintenanceStep, NoProbe,
};
pub use snapshot::{StoreReader, StoreSnapshot};
pub use text::TieredStrings;

use std::sync::Arc;

use crate::merged::{impl_seq_index_for_segmented, SegmentedRead};
use crate::snapshot::{Epoch, EpochSlot};
use wavelet_trie::{AppendWaveletTrie, DynamicWaveletTrie, SeqIndex, WaveletTrie};
use wt_bits::SpaceUsage;
use wt_trie::{BitStr, BitString, PrefixFreeViolation};

// Compile-time pins of the thread-safety story documented above: every
// public handle is fully thread-safe — the store itself (share `&TieredStore`
// for reads, `&mut` for the single writer), the reader handle, and the
// snapshots served to query threads — as are the shared read-only
// structures underneath (cross-thread readers depend on those).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    // The store handle: thread-safe; `&mut` statically enforces one writer.
    assert_send_sync::<TieredStore>();
    assert_send_sync::<text::TieredStrings>();
    // The concurrent-serving surface.
    assert_send_sync::<StoreReader>();
    assert_send_sync::<StoreSnapshot>();
    // The sealed-segment payload.
    assert_send_sync::<WaveletTrie>();
    // The compressed bitvector substrate of every static segment.
    assert_send_sync::<wt_bits::RrrVector>();
    // The hot tail in both forms, which published epochs share behind
    // `Arc`.
    assert_send_sync::<AppendWaveletTrie>();
    assert_send_sync::<DynamicWaveletTrie>();
};

/// Tiering policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Hot-segment size (in strings) that triggers an automatic seal.
    pub seal_at: usize,
    /// Compaction keeps at most this many sealed segments by merging the
    /// adjacent pair with the smallest combined length.
    pub max_sealed: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            seal_at: 8192,
            max_sealed: 8,
        }
    }
}

/// One tier member: an immutable sealed segment or a hot one. A hot
/// segment is append-only while it only grows at its end — every fresh
/// tail and every replayed hot log starts so — and is converted once to
/// the fully dynamic form by its first other edit (`TieredStore::melt`);
/// melted middles are dynamic. Cloning is an `Arc` bump — epochs share
/// segments with the live store; the writer mutates hot segments
/// copy-on-write via [`Arc::make_mut`].
#[derive(Clone, Debug)]
pub(crate) enum Segment {
    Sealed(Arc<WaveletTrie>),
    Append(Arc<AppendWaveletTrie>),
    Dynamic(Arc<DynamicWaveletTrie>),
}

impl Segment {
    /// The only kind of fresh hot segment: an empty append-only trie.
    fn new_hot() -> Self {
        Segment::Append(Arc::new(AppendWaveletTrie::new()))
    }

    /// The object-safe query view — static and dynamic segments are
    /// indistinguishable to the read path.
    pub(crate) fn index(&self) -> &dyn SeqIndex {
        match self {
            Segment::Sealed(s) => s.as_ref(),
            Segment::Append(h) => h.as_ref(),
            Segment::Dynamic(h) => h.as_ref(),
        }
    }

    /// The static form of a hot segment, by the structural freeze.
    ///
    /// # Panics
    /// On a sealed segment, which is static already.
    pub(crate) fn freeze(&self) -> WaveletTrie {
        match self {
            Segment::Sealed(_) => unreachable!("a sealed segment is frozen already"),
            Segment::Append(h) => h.freeze(),
            Segment::Dynamic(h) => h.freeze(),
        }
    }

    /// The segment's own structural check.
    fn check_invariants(&self) -> Result<(), String> {
        match self {
            Segment::Sealed(s) => s.check_invariants().map_err(|e| e.to_string()),
            Segment::Append(h) => h.check_invariants().map_err(str::to_string),
            Segment::Dynamic(h) => h.check_invariants().map_err(str::to_string),
        }
    }

    /// The §3 prefix-free check: one descent of this segment's trie.
    pub(crate) fn admits(&self, s: BitStr<'_>) -> bool {
        self.index().admits(s)
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Segment::Sealed(s) => s.len(),
            Segment::Append(h) => h.len(),
            Segment::Dynamic(h) => h.len(),
        }
    }

    pub(crate) fn is_sealed(&self) -> bool {
        matches!(self, Segment::Sealed(_))
    }
}

impl SpaceUsage for Segment {
    fn size_bits(&self) -> usize {
        match self {
            Segment::Sealed(s) => s.size_bits(),
            Segment::Append(h) => h.size_bits(),
            Segment::Dynamic(h) => h.size_bits(),
        }
    }
}

/// A tiered indexed sequence of binary strings (see the crate docs).
///
/// The segment list always ends in a hot tail (possibly empty); sealed
/// segments and melted middles precede it in sequence order.
///
/// Queries through `&TieredStore` read the **live** state (and are safe
/// from any thread — the handle is `Sync`); concurrent serving against a
/// mutating store goes through published [`StoreSnapshot`]s instead (see
/// [`TieredStore::publish`] / [`TieredStore::reader`]).
#[derive(Debug)]
pub struct TieredStore {
    segments: Vec<Segment>,
    len: usize,
    config: StoreConfig,
    /// The published-epoch slot shared with every [`StoreReader`].
    slot: Arc<EpochSlot>,
    /// Last published epoch version (0 = the construction-time epoch).
    version: u64,
}

impl Default for TieredStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for TieredStore {
    /// Clones the store: segments are shared structurally (`Arc`), but the
    /// clone gets its **own** epoch slot — existing [`StoreReader`]s keep
    /// following the original, and the clone starts its version counter
    /// afresh with its current state published.
    fn clone(&self) -> Self {
        let segments = self.segments.clone();
        let slot = Arc::new(EpochSlot::new(Epoch::new(0, segments.clone(), self.len)));
        TieredStore {
            segments,
            len: self.len,
            config: self.config,
            slot,
            version: 0,
        }
    }
}

impl TieredStore {
    /// An empty store with the default policy.
    pub fn new() -> Self {
        Self::with_config(StoreConfig::default())
    }

    /// An empty store with an explicit policy.
    pub fn with_config(config: StoreConfig) -> Self {
        Self::from_parts(vec![Segment::new_hot()], 0, config)
    }

    /// Assembles a store from loaded parts and publishes the initial
    /// epoch (version 0) so readers can serve immediately.
    pub(crate) fn from_parts(segments: Vec<Segment>, len: usize, config: StoreConfig) -> Self {
        let slot = Arc::new(EpochSlot::new(Epoch::new(0, segments.clone(), len)));
        TieredStore {
            segments,
            len,
            config,
            slot,
            version: 0,
        }
    }

    /// Number of strings stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The active policy.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Total number of segments (including the hot tail).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Number of sealed (static) segments.
    pub fn sealed_segments(&self) -> usize {
        self.segments.iter().filter(|g| g.is_sealed()).count()
    }

    /// Lengths of the segments, in sequence order.
    pub fn segment_lens(&self) -> Vec<usize> {
        self.segments.iter().map(|g| g.len()).collect()
    }

    /// Object-safe view of segment `i` (sequence order).
    pub fn segment(&self, i: usize) -> &dyn SeqIndex {
        self.segments[i].index()
    }

    /// Iterates the segments as object-safe indexes, in sequence order.
    pub fn segment_indexes(&self) -> impl Iterator<Item = &dyn SeqIndex> {
        self.segments.iter().map(|g| g.index())
    }

    /// Checks the store's structure: the segment lengths sum to
    /// [`TieredStore::len`], the list ends in a hot segment, and every
    /// segment passes its own check — [`WaveletTrie::check_invariants`]
    /// for a sealed one, [`wavelet_trie::DynWaveletTrie::check_invariants`]
    /// for a hot one. The error names the first segment that fails.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: usize = self.segments.iter().map(Segment::len).sum();
        if sum != self.len {
            return Err(format!("segment lengths sum to {sum}, not {}", self.len));
        }
        if self.segments.last().is_none_or(Segment::is_sealed) {
            return Err("the segment list does not end in a hot segment".into());
        }
        for (i, g) in self.segments.iter().enumerate() {
            g.check_invariants()
                .map_err(|e| format!("segment {i}: {e}"))?;
        }
        Ok(())
    }

    // --- concurrent serving ------------------------------------------------

    /// Publishes the current state as a new immutable epoch and returns a
    /// snapshot of it. Readers (via [`TieredStore::reader`]) switch to the
    /// new epoch on their next `snapshot()`; snapshots already taken keep
    /// serving their own epoch unchanged.
    ///
    /// Cost: O(#segments) `Arc` clones, and the writer's *next* mutation
    /// of the hot tail pays one copy-on-write clone of it (none if the
    /// tail was empty here).
    pub fn publish(&mut self) -> StoreSnapshot {
        self.version += 1;
        let epoch = Arc::new(Epoch::new(self.version, self.segments.clone(), self.len));
        self.slot.swap(Arc::clone(&epoch));
        StoreSnapshot::from_epoch(epoch)
    }

    /// Version of the last published epoch (0 until the first
    /// [`TieredStore::publish`]).
    pub fn published_version(&self) -> u64 {
        self.version
    }

    /// A cloneable, `Send + Sync` handle for taking snapshots of this
    /// store's published state from any thread.
    pub fn reader(&self) -> StoreReader {
        StoreReader {
            slot: Arc::clone(&self.slot),
        }
    }

    // --- mutation ----------------------------------------------------------

    /// Appends `s` at the end (the hot tail), sealing/compacting per the
    /// policy afterwards.
    ///
    /// # Errors
    /// [`PrefixFreeViolation`] if `s` would break the global prefix-free
    /// invariant; the store is unchanged in that case.
    pub fn append(&mut self, s: BitStr<'_>) -> Result<(), PrefixFreeViolation> {
        let n = self.len;
        self.insert(s, n)
    }

    /// Inserts `s` immediately before global position `pos`. At the end of
    /// an append-only hot segment this is an append; anywhere else it
    /// first melts the owning segment to dynamic form, once.
    ///
    /// # Errors
    /// [`PrefixFreeViolation`] if `s` would break the global prefix-free
    /// invariant; the store is unchanged in that case.
    ///
    /// # Panics
    /// If `pos > len()`.
    pub fn insert(&mut self, s: BitStr<'_>, pos: usize) -> Result<(), PrefixFreeViolation> {
        assert!(pos <= self.len, "insert position out of bounds");
        let (seg, off) = self.locate_for_insert(pos);
        // The target checks `s` itself in its own insert, before its first
        // edit, so only the other segments are asked here — unless the
        // target must melt first, which a refused string must not cause.
        let target = &self.segments[seg];
        let melts = off < target.len() && !matches!(target, Segment::Dynamic(_));
        let admitted = self
            .segments
            .iter()
            .enumerate()
            .all(|(i, g)| (i == seg && !melts) || g.admits(s));
        if !admitted {
            return Err(PrefixFreeViolation);
        }
        if melts {
            self.melt(seg);
        }
        match &mut self.segments[seg] {
            Segment::Append(h) => Arc::make_mut(h).append(s)?,
            Segment::Dynamic(h) => Arc::make_mut(h).insert(s, off)?,
            Segment::Sealed(_) => unreachable!("melted above"),
        }
        self.len += 1;
        self.roll();
        Ok(())
    }

    /// Removes and returns the string at global position `pos`, melting
    /// the owning segment to dynamic form first unless it is already.
    ///
    /// # Panics
    /// If `pos >= len()`.
    pub fn delete(&mut self, pos: usize) -> BitString {
        assert!(pos < self.len, "delete position out of bounds");
        let (seg, off) = self.locate(pos);
        self.melt(seg);
        let out = match &mut self.segments[seg] {
            Segment::Dynamic(h) => Arc::make_mut(h).delete(off),
            _ => unreachable!("melted above"),
        };
        self.len -= 1;
        if self.segments[seg].len() == 0 && seg + 1 != self.segments.len() {
            self.segments.remove(seg);
        }
        out
    }

    /// Seals every hot segment (structural freeze, on the calling thread)
    /// and starts a fresh append-only hot tail. Never merges; call
    /// [`TieredStore::compact`] for that.
    ///
    /// # Panics
    /// Re-raises a freeze panic (a library bug, not an I/O condition) —
    /// after restoring the store to a valid, fully serviceable state;
    /// published epochs are never affected. For contained, reported
    /// failures use [`TieredStore::maintain`].
    pub fn seal(&mut self) {
        let mut failures = Vec::new();
        self.seal_probed(&NoProbe, &mut failures);
        if let Some(f) = failures.into_iter().next() {
            panic!("seal: {f}");
        }
    }

    /// Freezes melted middle segments and merges adjacent sealed segments
    /// (thaw into the append-only trie + append + freeze, smallest
    /// combined length first) until at most `max_sealed` sealed segments
    /// remain, on the calling thread.
    ///
    /// # Panics
    /// Re-raises a freeze or merge panic, as [`TieredStore::seal`] does;
    /// the store remains valid and published epochs are unaffected.
    pub fn compact(&mut self) {
        let mut failures = Vec::new();
        self.compact_probed(&NoProbe, &mut failures);
        if let Some(f) = failures.into_iter().next() {
            panic!("compact: {f}");
        }
    }

    /// Adjacent `(i, i+1)` sealed pairs with their combined length.
    pub(crate) fn sealed_adjacent_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.segments
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0].is_sealed() && w[1].is_sealed())
            .map(|(i, w)| (i, w[0].len() + w[1].len()))
    }

    /// Converts segment `seg` to the fully dynamic form, once: a sealed
    /// segment thaws, and an append-only one is frozen and thawed (the
    /// append-only bitvectors cannot take an insert before their end).
    fn melt(&mut self, seg: usize) {
        let melted: DynamicWaveletTrie = match &self.segments[seg] {
            Segment::Sealed(s) => s.thaw(),
            Segment::Append(h) => h.freeze().thaw(),
            Segment::Dynamic(_) => return,
        };
        self.segments[seg] = Segment::Dynamic(Arc::new(melted));
    }

    /// Policy hook run after every insert: auto-seal once the hot **tail**
    /// reaches `seal_at`, then bound the sealed-segment count. Melted
    /// middle segments are deliberately not a trigger — they must stay
    /// dynamic between edits (re-freezing them on every insert would make
    /// n middle edits cost O(n · segment bits)); they are re-frozen only
    /// when a tail roll or an explicit [`TieredStore::seal`] /
    /// [`TieredStore::compact`] happens.
    fn roll(&mut self) {
        let tail_full = self
            .segments
            .last()
            .is_some_and(|g| !g.is_sealed() && g.len() >= self.config.seal_at);
        if tail_full {
            self.seal();
            if self.sealed_segments() > self.config.max_sealed {
                self.compact();
            }
        }
    }

    // --- position routing --------------------------------------------------

    /// Like [`SegmentedRead::locate`] but accepts `pos == len` (append)
    /// and redirects boundary positions to a preceding hot segment where
    /// that avoids melting a sealed one.
    fn locate_for_insert(&self, pos: usize) -> (usize, usize) {
        if pos == self.len {
            let last = self.segments.len() - 1;
            return (last, self.segments[last].len());
        }
        let (seg, off) = self.locate(pos);
        if off == 0 && seg > 0 && !self.segments[seg - 1].is_sealed() {
            // Inserting at a boundary: appending to the hot predecessor is
            // equivalent and cheaper than melting `seg`, and keeps an
            // append-only predecessor append-only.
            return (seg - 1, self.segments[seg - 1].len());
        }
        (seg, off)
    }
}

impl SegmentedRead for TieredStore {
    fn segments(&self) -> &[Segment] {
        &self.segments
    }

    fn total_len(&self) -> usize {
        self.len
    }
}

impl_seq_index_for_segmented!(TieredStore);

impl SpaceUsage for TieredStore {
    fn size_bits(&self) -> usize {
        let segs: usize = self.segments.iter().map(Segment::size_bits).sum();
        segs + 4 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use wavelet_trie::binarize::{Coder, NinthBitCoder};
    use wavelet_trie::SequenceOps;
    use wt_bits::storage::{MemFs, Storage};
    use wt_workloads::urls::{url_log, UrlLogConfig};
    use wt_workloads::xorshift;

    fn bs(s: &str) -> BitString {
        BitString::parse(s)
    }

    fn encode(v: u64) -> BitString {
        BitString::from_bits((0..10).rev().map(move |k| (v >> k) & 1 != 0))
    }

    fn tiny() -> TieredStore {
        TieredStore::with_config(StoreConfig {
            seal_at: 8,
            max_sealed: 3,
        })
    }

    /// One letter per segment, in order: `S`ealed, `A`ppend-only or
    /// `D`ynamic.
    fn kinds(st: &TieredStore) -> String {
        let kind = |g: &Segment| match g {
            Segment::Sealed(_) => 'S',
            Segment::Append(_) => 'A',
            Segment::Dynamic(_) => 'D',
        };
        st.segments.iter().map(kind).collect()
    }

    /// Where the hot tail lives: an edit that lands in place, without a
    /// conversion or a copy-on-write clone, leaves it unchanged.
    fn tail_addr(st: &TieredStore) -> *const () {
        match st.segments.last() {
            Some(Segment::Append(h)) => Arc::as_ptr(h).cast(),
            Some(Segment::Dynamic(h)) => Arc::as_ptr(h).cast(),
            _ => panic!("the segment list ends in a hot tail"),
        }
    }

    fn strings(st: &TieredStore) -> Vec<BitString> {
        st.iter_seq_boxed().collect()
    }

    /// A store that never seals on its own, fed `encode(0..n)`.
    fn unsealed(n: u64) -> (TieredStore, Vec<BitString>) {
        let mut st = TieredStore::with_config(StoreConfig {
            seal_at: usize::MAX,
            max_sealed: 8,
        });
        let oracle: Vec<BitString> = (0..n).map(encode).collect();
        for s in &oracle {
            st.append(s.as_bitstr()).unwrap();
        }
        (st, oracle)
    }

    #[test]
    fn appends_keep_the_tail_append_only() {
        let mut st = tiny();
        assert_eq!(kinds(&st), "A");
        for i in 0..20u64 {
            st.append(encode(i).as_bitstr()).unwrap();
            assert!(kinds(&st).ends_with('A'), "append {i}: {}", kinds(&st));
            st.check_invariants().unwrap();
        }
        assert_eq!(kinds(&st), "SSA");
        assert_eq!(st.segment_lens(), [8, 8, 4]);
        // An insert at the end is an append too.
        st.insert(encode(30).as_bitstr(), st.len()).unwrap();
        assert_eq!(kinds(&st), "SSA");
        assert_eq!(st.access(20), encode(30));
    }

    #[test]
    fn a_middle_insert_converts_the_tail_once() {
        let (mut st, mut oracle) = unsealed(10);
        st.insert(encode(40).as_bitstr(), 3).unwrap();
        oracle.insert(3, encode(40));
        assert_eq!(kinds(&st), "D");
        let converted = tail_addr(&st);
        // Later appends and edits land in the converted tail, in place.
        for v in 10..20 {
            st.append(encode(v).as_bitstr()).unwrap();
            oracle.push(encode(v));
        }
        st.insert(encode(41).as_bitstr(), 5).unwrap();
        oracle.insert(5, encode(41));
        assert_eq!(kinds(&st), "D");
        assert_eq!(tail_addr(&st), converted, "converted a second time");
        assert_eq!(strings(&st), oracle);
        st.check_invariants().unwrap();
    }

    #[test]
    fn a_delete_converts_the_tail_once() {
        let (mut st, mut oracle) = unsealed(10);
        assert_eq!(st.delete(9), oracle.remove(9), "even the last string");
        assert_eq!(kinds(&st), "D");
        let converted = tail_addr(&st);
        for v in 10..20 {
            st.append(encode(v).as_bitstr()).unwrap();
            oracle.push(encode(v));
        }
        assert_eq!(st.delete(2), oracle.remove(2));
        assert_eq!(kinds(&st), "D");
        assert_eq!(tail_addr(&st), converted, "converted a second time");
        assert_eq!(strings(&st), oracle);
        st.check_invariants().unwrap();
    }

    #[test]
    fn boundary_insert_appends_to_an_append_only_predecessor() {
        // A melted middle saved and loaded again comes back append-only,
        // in front of the append-only tail.
        let mut st = tiny();
        for i in 0..20u64 {
            st.append(encode(i).as_bitstr()).unwrap();
        }
        st.insert(encode(40).as_bitstr(), 10).unwrap();
        assert_eq!(kinds(&st), "SDA");
        let (fs, dir) = (MemFs::new(), Path::new("store"));
        st.save_dir_with(&fs, dir).unwrap();
        let mut st = TieredStore::load_dir_with(&fs, dir).unwrap();
        assert_eq!(kinds(&st), "SAA");
        let mut oracle = strings(&st);
        // Position 17 starts the tail: the middle takes it as an append.
        st.insert(encode(41).as_bitstr(), 17).unwrap();
        oracle.insert(17, encode(41));
        assert_eq!(kinds(&st), "SAA");
        assert_eq!(st.segment_lens(), [8, 10, 4]);
        assert_eq!(strings(&st), oracle);
        st.check_invariants().unwrap();
    }

    #[test]
    fn seal_installs_a_fresh_append_only_tail() {
        let (mut st, _) = unsealed(10);
        st.delete(0);
        assert_eq!(kinds(&st), "D");
        st.seal();
        assert_eq!(kinds(&st), "SA");
        assert_eq!(st.segment_lens(), [9, 0]);
        let report = st.maintain();
        assert!(report.is_clean(), "{report}");
        assert_eq!(kinds(&st), "SA");
        st.check_invariants().unwrap();
    }

    #[test]
    fn load_and_recover_replay_hot_logs_append_only() {
        // Sealed, a melted middle, and a tail an edit made dynamic.
        let mut st = tiny();
        for i in 0..20u64 {
            st.append(encode(i).as_bitstr()).unwrap();
        }
        st.insert(encode(40).as_bitstr(), 10).unwrap();
        st.delete(18);
        assert_eq!(kinds(&st), "SDD");
        let oracle = strings(&st);
        // Both hot forms log a sequence in the same bytes.
        let Segment::Dynamic(tail) = &st.segments[2] else {
            panic!("edited tail");
        };
        let mut append_only = AppendWaveletTrie::new();
        for s in tail.iter_seq() {
            append_only.append(s.as_bitstr()).unwrap();
        }
        let logged = durable::hot_log_bytes(tail.as_ref());
        assert_eq!(durable::hot_log_bytes(&append_only), logged);

        let (fs, dir) = (MemFs::new(), Path::new("store"));
        st.save_dir_with(&fs, dir).unwrap();
        let loaded = TieredStore::load_dir_with(&fs, dir).unwrap();
        let (recovered, report) = TieredStore::recover_dir_with(&fs, dir).unwrap();
        assert!(report.is_clean(), "{report}");
        for st in [&loaded, &recovered] {
            assert_eq!(kinds(st), "SAA");
            assert_eq!(strings(st), oracle);
            st.check_invariants().unwrap();
        }

        // A torn tail log: only the first two of its strings survive.
        let log = fs
            .list_names(dir)
            .into_iter()
            .filter(|name| name.ends_with(".log"))
            .max()
            .unwrap();
        let mut torn = AppendWaveletTrie::new();
        for s in tail.iter_seq().take(2) {
            torn.append(s.as_bitstr()).unwrap();
        }
        fs.write(&dir.join(log), &durable::hot_log_bytes(&torn))
            .unwrap();
        assert!(TieredStore::load_dir_with(&fs, dir).is_err());
        let (mut recovered, report) = TieredStore::recover_dir_with(&fs, dir).unwrap();
        assert_eq!(report.strings_lost, tail.len() - 2, "{report}");
        assert_eq!(kinds(&recovered), "SAA");
        assert_eq!(recovered.segment_lens(), [8, 9, 2]);
        assert_eq!(strings(&recovered), oracle[..19]);
        recovered.append(encode(50).as_bitstr()).unwrap();
        assert_eq!(kinds(&recovered), "SAA");
        recovered.check_invariants().unwrap();
    }

    /// `n` URLs through the text facades' coder.
    fn urls(n: usize) -> Vec<BitString> {
        let strings = url_log(n, UrlLogConfig::default(), 5);
        strings
            .iter()
            .map(|s| NinthBitCoder.encode(s.as_bytes()))
            .collect()
    }

    /// `n` random 28-bit ints, most of them distinct.
    fn ints28(n: usize) -> Vec<BitString> {
        let mut next = xorshift(0x28);
        (0..n)
            .map(|_| {
                let v = next() & ((1 << 28) - 1);
                BitString::from_bits((0..28).rev().map(move |k| (v >> k) & 1 != 0))
            })
            .collect()
    }

    #[test]
    fn merges_and_freezes_match_the_dynamic_path_byte_for_byte() {
        for (name, seq) in [("urls", urls(1500)), ("ints", ints28(1500))] {
            let (mut app, mut dynamic) = (AppendWaveletTrie::new(), DynamicWaveletTrie::new());
            for s in &seq {
                app.append(s.as_bitstr()).unwrap();
                dynamic.append(s.as_bitstr()).unwrap();
            }
            let frozen = dynamic.freeze().save_bytes();
            assert!(app.freeze().save_bytes() == frozen, "{name}: freeze");
            // Two sealed segments, merged by compaction.
            let mut st = TieredStore::with_config(StoreConfig {
                seal_at: usize::MAX,
                max_sealed: 2,
            });
            let (head, tail) = seq.split_at(seq.len() / 3);
            for part in [head, tail] {
                for s in part {
                    st.append(s.as_bitstr()).unwrap();
                }
                st.seal();
            }
            assert_eq!(kinds(&st), "SSA");
            let (Segment::Sealed(a), Segment::Sealed(b)) = (&st.segments[0], &st.segments[1])
            else {
                panic!("two sealed segments");
            };
            // The reference merges the way a dynamic trie would.
            let mut reference: DynamicWaveletTrie = a.thaw();
            for s in b.iter_seq() {
                reference.append(s.as_bitstr()).unwrap();
            }
            let want = reference.freeze().save_bytes();
            assert!(
                want == frozen,
                "{name}: the merge is the freeze of the whole"
            );
            st.config.max_sealed = 1;
            st.compact();
            assert_eq!(kinds(&st), "SA");
            let Segment::Sealed(merged) = &st.segments[0] else {
                panic!("one sealed segment");
            };
            assert!(merged.save_bytes() == want, "{name}: merge");
        }
    }

    #[test]
    fn appends_seal_and_compact_automatically() {
        let mut st = tiny();
        for i in 0..100u64 {
            st.append(encode(i % 30).as_bitstr()).unwrap();
        }
        assert_eq!(st.len(), 100);
        // seal_at = 8 ⇒ many seals happened; compaction bounds the count.
        assert!(st.sealed_segments() <= 3 + 1, "{:?}", st.segment_lens());
        assert!(st.num_segments() >= 2);
        for i in 0..100u64 {
            assert_eq!(st.access(i as usize), encode(i % 30), "access({i})");
        }
        let probe = encode(7);
        assert_eq!(st.count(probe.as_bitstr()), 4); // 7, 37, 67, 97
        assert_eq!(st.select(probe.as_bitstr(), 2), Some(67));
        assert_eq!(st.rank(probe.as_bitstr(), 68), 3);
    }

    #[test]
    fn inserts_melt_sealed_segments() {
        let mut st = tiny();
        for i in 0..32u64 {
            st.append(encode(i).as_bitstr()).unwrap();
        }
        st.seal();
        let sealed_before = st.sealed_segments();
        assert!(sealed_before >= 1);
        // Insert into the middle of a sealed segment.
        st.insert(encode(40).as_bitstr(), 3).unwrap();
        assert_eq!(st.access(3), encode(40));
        assert_eq!(st.access(2), encode(2));
        assert_eq!(st.access(4), encode(3));
        assert_eq!(st.len(), 33);
        // Delete from a sealed segment.
        let gone = st.delete(3);
        assert_eq!(gone, encode(40));
        assert_eq!(st.len(), 32);
        assert_eq!(st.access(3), encode(3));
        // compact() re-freezes the melted middles.
        st.compact();
        assert_eq!(st.num_segments() - 1, st.sealed_segments());
    }

    #[test]
    fn melted_middle_stays_hot_across_edits() {
        let mut st = tiny();
        for i in 0..16u64 {
            st.append(encode(i).as_bitstr()).unwrap();
        }
        st.seal();
        let sealed_before = st.sealed_segments();
        // Repeated edits at the front: the first melts, the rest must hit
        // the already-hot segment — no thaw/freeze cycle per insert, and
        // the melted middle must not trip the auto-seal even though its
        // length exceeds seal_at.
        for k in 0..6 {
            st.insert(encode(30 + k).as_bitstr(), 0).unwrap();
            st.delete(1);
        }
        assert_eq!(st.sealed_segments(), sealed_before - 1, "one melt only");
        assert_eq!(st.len(), 16);
        // An explicit compact re-freezes it.
        st.compact();
        assert_eq!(st.sealed_segments(), st.num_segments() - 1);
    }

    #[test]
    fn global_prefix_freeness_is_enforced() {
        let mut st = tiny();
        st.append(bs("0100").as_bitstr()).unwrap();
        st.seal();
        // "01" is a prefix of "0100", which lives in a *sealed* segment.
        assert!(st.append(bs("01").as_bitstr()).is_err());
        assert!(st.append(bs("01001").as_bitstr()).is_err());
        assert!(st.append(bs("0100").as_bitstr()).is_ok()); // duplicate
        assert!(st.append(bs("0111").as_bitstr()).is_ok());
        assert_eq!(st.len(), 3);
        assert!(!st.admits(bs("011").as_bitstr()));
        assert!(st.admits(bs("00").as_bitstr()));
    }

    #[test]
    fn refused_inserts_leave_every_segment_as_it_was() {
        // Segments: sealed [0..8) and an append-only tail [8..12), all
        // 10-bit; 7-bit and 11-bit strings are prefixes and extensions.
        let mut st = tiny();
        for i in 0..12u64 {
            st.append(encode(i).as_bitstr()).unwrap();
        }
        assert_eq!(kinds(&st), "SA");
        let before = strings(&st);
        let prefix = |v: u64| encode(v).as_bitstr().prefix(7).to_owned_str();
        let extension = |v: u64| {
            let mut s = encode(v);
            s.push(true);
            s
        };
        let unchanged = |st: &TieredStore, what: &str| {
            assert_eq!(kinds(st), "SA", "{what}");
            assert_eq!(st.segment_lens(), [8, 4], "{what}");
            assert_eq!(strings(st), before, "{what}");
            st.check_invariants().unwrap();
        };
        // Appends to the tail, clashing with the tail itself (its own
        // insert refuses) and with the sealed segment; the second after
        // a publish, so the refused append meets a shared tail.
        assert!(st.append(extension(9).as_bitstr()).is_err());
        unchanged(&st, "append clashing with the tail");
        let snap = st.publish();
        assert!(st.append(prefix(2).as_bitstr()).is_err());
        unchanged(&st, "append clashing with a sealed string");
        assert_eq!(snap.len(), 12);
        // Inserts before the tail's end must not convert it.
        for (s, what) in [(prefix(10), "own"), (extension(3), "sealed")] {
            assert!(st.insert(s.as_bitstr(), 9).is_err());
            unchanged(&st, &format!("tail insert clashing with a {what} string"));
        }
        // Inserts into the sealed segment must not melt it.
        for (s, what) in [(extension(5), "own"), (prefix(11), "tail")] {
            assert!(st.insert(s.as_bitstr(), 3).is_err());
            unchanged(&st, &format!("sealed insert clashing with a {what} string"));
        }
        // An admissible string still lands where it was asked to.
        st.insert(encode(40).as_bitstr(), 3).unwrap();
        assert_eq!(kinds(&st), "DA");
        assert_eq!(st.access(3), encode(40));
    }

    #[test]
    fn boundary_insert_prefers_hot_predecessor() {
        let mut st = tiny();
        for i in 0..4u64 {
            st.append(encode(i).as_bitstr()).unwrap();
        }
        // segments: [hot(4)] — insert at 0 stays in the only segment.
        st.insert(encode(9).as_bitstr(), 0).unwrap();
        assert_eq!(st.access(0), encode(9));
        st.seal();
        // segments: [sealed(5), hot(0)]; insert at len lands in the tail.
        st.insert(encode(8).as_bitstr(), 5).unwrap();
        assert_eq!(st.sealed_segments(), 1, "no melt for a tail append");
        assert_eq!(st.access(5), encode(8));
    }

    #[test]
    fn empty_store_queries() {
        let st = TieredStore::new();
        assert!(st.is_empty());
        assert_eq!(st.count(bs("01").as_bitstr()), 0);
        assert_eq!(st.select(bs("01").as_bitstr(), 0), None);
        assert_eq!(st.distinct_len(), 0);
        assert_eq!(st.distinct_in_range(0, 0), vec![]);
        assert_eq!(st.range_majority(0, 0), None);
        assert_eq!(st.iter_seq_boxed().count(), 0);
    }

    /// Naive prefix-freeness oracle over the stored multiset: `s` may join
    /// iff every stored `t` equals `s` or diverges before either ends.
    fn naive_admits(strings: &[BitString], s: BitStr<'_>) -> bool {
        strings.iter().all(|t| {
            let t = t.as_bitstr();
            t == s || t.lcp(&s) < t.len().min(s.len())
        })
    }

    #[test]
    fn admits_matches_naive_oracle() {
        let mut next = xorshift(0xCAC4E);
        let mut st = tiny();
        let mut model: Vec<BitString> = Vec::new();
        // Variable-length strings so prefix relations actually occur.
        let probe_pool: Vec<BitString> = (0..40)
            .map(|k| {
                let len = 3 + (k % 9);
                let v = k as u64 * 2654435761 % (1 << len);
                BitString::from_bits((0..len).rev().map(move |b| (v >> b) & 1 != 0))
            })
            .collect();
        for step in 0..400 {
            let q = &probe_pool[(next() % probe_pool.len() as u64) as usize];
            let want = naive_admits(&model, q.as_bitstr());
            assert_eq!(st.admits(q.as_bitstr()), want, "admits step {step}");
            match next() % 10 {
                0..=5 => {
                    if want {
                        let pos = (next() % (model.len() as u64 + 1)) as usize;
                        st.insert(q.as_bitstr(), pos).unwrap();
                        model.insert(pos, q.clone());
                    } else {
                        assert!(st.insert(q.as_bitstr(), 0).is_err());
                    }
                }
                6 if !model.is_empty() => {
                    let pos = (next() % model.len() as u64) as usize;
                    assert_eq!(st.delete(pos), model.remove(pos));
                }
                7 => st.seal(),
                _ => {}
            }
        }
        // The only occurrence of a string leaving flips its prefixes to
        // admissible.
        let mut st = tiny();
        st.append(bs("0100").as_bitstr()).unwrap();
        st.seal();
        assert!(!st.admits(bs("01").as_bitstr()));
        st.delete(0);
        assert!(st.admits(bs("01").as_bitstr()), "stale admits verdict");
    }

    /// Records which thread runs each maintenance step.
    #[derive(Default)]
    struct ThreadProbe(std::sync::Mutex<Vec<(MaintenanceStep, std::thread::ThreadId)>>);

    impl MaintenanceProbe for ThreadProbe {
        fn step(&self, step: MaintenanceStep) {
            let id = std::thread::current().id();
            self.0.lock().unwrap().push((step, id));
        }
    }

    #[test]
    fn maintain_freezes_and_merges_on_the_calling_thread() {
        let mut st = TieredStore::with_config(StoreConfig {
            seal_at: 64,
            max_sealed: 2,
        });
        let mut oracle: Vec<BitString> = (0..200u64).map(|i| encode(i % 50)).collect();
        for s in &oracle {
            st.append(s.as_bitstr()).unwrap();
        }
        // Melt two middles: the pass freezes them and the hot tail.
        for (pos, v) in [(10, 51u64), (130, 52)] {
            st.insert(encode(v).as_bitstr(), pos).unwrap();
            oracle.insert(pos, encode(v));
        }
        assert_eq!(st.segments.iter().filter(|g| !g.is_sealed()).count(), 3);
        let probe = ThreadProbe::default();
        let report = st.maintain_with(&Maintenance {
            probe: &probe,
            ..Maintenance::default()
        });
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.sealed, 3, "{report}");
        assert!(report.merged >= 1, "{report}");
        assert_eq!(st.sealed_segments(), st.num_segments() - 1);
        assert_eq!(st.segment_lens().last(), Some(&0), "fresh hot tail");
        let stored: Vec<BitString> = (0..st.len()).map(|i| st.access(i)).collect();
        assert_eq!(stored, oracle);
        for v in 0..53u64 {
            let want = oracle.iter().filter(|s| **s == encode(v)).count();
            assert_eq!(st.count(encode(v).as_bitstr()), want, "count({v})");
        }
        let caller = std::thread::current().id();
        let steps = probe.0.into_inner().unwrap();
        let heavy: Vec<_> = steps
            .iter()
            .filter(|(step, _)| {
                matches!(
                    step,
                    MaintenanceStep::Freeze { .. } | MaintenanceStep::Merge { .. }
                )
            })
            .collect();
        assert_eq!(heavy.len(), report.sealed + report.merged);
        assert!(heavy.iter().all(|&&(_, id)| id == caller), "{steps:?}");
    }

    #[test]
    fn store_is_object_safe_alongside_plain_tries() {
        let mut st = tiny();
        let mut dynamic = DynamicWaveletTrie::new();
        for i in 0..20u64 {
            st.append(encode(i % 6).as_bitstr()).unwrap();
            dynamic.append(encode(i % 6).as_bitstr()).unwrap();
        }
        st.seal();
        let indexes: Vec<Box<dyn SeqIndex>> = vec![Box::new(st), Box::new(dynamic)];
        for idx in &indexes {
            assert_eq!(idx.seq_len(), 20);
            assert_eq!(idx.count(encode(3).as_bitstr()), 3);
            assert_eq!(idx.count(encode(1).as_bitstr()), 4);
            assert_eq!(idx.distinct_len(), 6);
        }
    }

    #[test]
    fn snapshots_are_frozen_across_every_mutation_kind() {
        let mut st = tiny();
        for i in 0..20u64 {
            st.append(encode(i).as_bitstr()).unwrap();
        }
        let reader = st.reader();
        let snap = st.publish();
        assert_eq!(snap.version(), 1);
        let frozen: Vec<BitString> = snap.iter_seq_boxed().collect();
        assert_eq!(frozen.len(), 20);
        // Every mutation kind: append, middle insert (melts), delete,
        // seal, compact — the snapshot must not move.
        st.append(encode(90).as_bitstr()).unwrap();
        st.insert(encode(91).as_bitstr(), 3).unwrap();
        st.delete(0);
        st.seal();
        st.compact();
        assert_eq!(snap.len(), 20);
        let after: Vec<BitString> = snap.iter_seq_boxed().collect();
        assert_eq!(frozen, after, "published epoch must stay bit-identical");
        assert_eq!(snap.count(encode(90).as_bitstr()), 0, "no write leakage");
        // The reader still serves version 1 until the writer re-publishes.
        assert_eq!(reader.snapshot().version(), 1);
        let snap2 = st.publish();
        assert_eq!(snap2.version(), 2);
        assert_eq!(reader.snapshot().version(), 2);
        assert_eq!(snap2.count(encode(90).as_bitstr()), 1);
        // And the old snapshot still hasn't moved.
        assert_eq!(snap.iter_seq_boxed().collect::<Vec<_>>(), frozen);
    }

    #[test]
    fn snapshot_queries_match_live_store() {
        let mut st = tiny();
        for i in 0..60u64 {
            st.append(encode(i % 17).as_bitstr()).unwrap();
        }
        st.insert(encode(40).as_bitstr(), 5).unwrap(); // melt a middle
        let snap = st.publish();
        assert_eq!(snap.num_segments(), st.num_segments());
        assert_eq!(snap.sealed_segments(), st.sealed_segments());
        for i in 0..st.len() {
            assert_eq!(snap.access(i), st.access(i), "access({i})");
        }
        for v in 0..18u64 {
            let s = encode(v);
            assert_eq!(snap.count(s.as_bitstr()), st.count(s.as_bitstr()));
            assert_eq!(snap.select(s.as_bitstr(), 1), st.select(s.as_bitstr(), 1));
        }
        assert_eq!(snap.distinct_len(), st.distinct_len());
        let positions: Vec<usize> = (0..st.len()).collect();
        assert_eq!(snap.access_batch(&positions), st.access_batch(&positions));
    }

    #[test]
    fn reader_serves_from_other_threads() {
        let mut st = tiny();
        for i in 0..30u64 {
            st.append(encode(i % 7).as_bitstr()).unwrap();
        }
        st.publish();
        let reader = st.reader();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let r = reader.clone();
                    scope.spawn(move || {
                        let snap = r.snapshot();
                        (0..snap.len()).map(|i| snap.access(i)).collect::<Vec<_>>()
                    })
                })
                .collect();
            let expect: Vec<BitString> = (0..30u64).map(|i| encode(i % 7)).collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), expect);
            }
        });
    }
}
