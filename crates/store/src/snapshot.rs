//! Snapshot-isolated concurrent reads: immutable epochs behind an
//! atomically swapped slot.
//!
//! The concurrency model is single-writer / many-readers with **epoch
//! swapping**: the writer owns the live [`TieredStore`](crate::TieredStore)
//! and, at publish points, freezes its current segment manifest into an
//! immutable epoch — `Arc`-shared segments and the total length — and
//! swaps it into the store's epoch slot in one pointer-sized critical
//! section. Readers hold a [`StoreReader`] (cheaply cloneable,
//! `Send + Sync`) and take [`StoreSnapshot`]s from it at any time, on any
//! thread:
//!
//! ```text
//!  writer thread                    epoch slot                reader threads
//!  ─────────────                 ┌──────────────┐             ──────────────
//!  append/insert/delete          │ RwLock<Arc<Epoch>> │ ◀──── snapshot() ──── r1
//!  seal / compact / save    ──publish()──▶ swap │ ◀──── snapshot() ──── r2
//!  (hot tail copy-on-write)      └──────────────┘        (Arc clone, no wait)
//! ```
//!
//! A snapshot is a fully consistent point-in-time image: every query on it
//! answers exactly as the store answered at its publish point, *forever* —
//! later appends, seals, compactions, melts and failed maintenance never
//! perturb it. That is guaranteed structurally, not by locking discipline:
//! sealed segments are immutable behind `Arc`, and the hot tail is
//! copy-on-write (`Arc::make_mut`) — the writer's first mutation after a
//! publish clones the published tail and mutates the private copy, so the
//! epoch's view stays frozen. The cost model follows: `publish()` is
//! O(#segments) Arc clones, and the writer pays at most one hot-tail
//! clone per publish (nothing at all when the tail was empty at publish
//! time, as it is after a seal).
//!
//! The slot is a `RwLock<Arc<Epoch>>` used only for pointer swaps — no
//! query ever runs under it, writers hold it for one store, readers for
//! one `Arc` clone — and both sides recover a poisoned lock
//! ([`std::sync::PoisonError::into_inner`]): the invariant "the slot holds
//! a valid epoch" can never be violated mid-swap, so poisoning carries no
//! information here and must not cascade panics into readers.

use std::sync::{Arc, PoisonError, RwLock};

use wt_bits::SpaceUsage;

use crate::merged::{impl_seq_index_for_segmented, SegmentedRead};
use crate::Segment;

/// One published, immutable view of the store: the segment manifest and
/// the total length, both frozen at publish time.
#[derive(Debug)]
pub(crate) struct Epoch {
    /// Monotone publish counter; 0 is the construction-time epoch.
    version: u64,
    /// Arc-shared segments, in sequence order (sealed segments are shared
    /// with the live store; the hot tail is a copy-on-write reference).
    segments: Vec<Segment>,
    /// Total strings across the segments.
    len: usize,
}

impl Epoch {
    /// Freezes a manifest into an epoch.
    pub(crate) fn new(version: u64, segments: Vec<Segment>, len: usize) -> Self {
        Epoch {
            version,
            segments,
            len,
        }
    }
}

/// The atomically swapped slot holding the latest published [`Epoch`].
#[derive(Debug)]
pub(crate) struct EpochSlot {
    slot: RwLock<Arc<Epoch>>,
}

impl EpochSlot {
    pub(crate) fn new(initial: Epoch) -> Self {
        EpochSlot {
            slot: RwLock::new(Arc::new(initial)),
        }
    }

    /// The latest published epoch (an `Arc` clone; never blocks on
    /// queries, only on a concurrent pointer swap).
    pub(crate) fn load(&self) -> Arc<Epoch> {
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `epoch`, replacing the previous one. Readers holding the
    /// old `Arc` keep serving it unchanged.
    pub(crate) fn swap(&self, epoch: Arc<Epoch>) {
        *self.slot.write().unwrap_or_else(PoisonError::into_inner) = epoch;
    }
}

/// A cloneable, thread-safe handle for taking [`StoreSnapshot`]s of a
/// [`TieredStore`](crate::TieredStore); obtained from
/// [`TieredStore::reader`](crate::TieredStore::reader). The handle stays
/// valid for the life of the store's epoch slot — snapshots taken from it
/// always see the latest *published* state.
#[derive(Clone, Debug)]
pub struct StoreReader {
    pub(crate) slot: Arc<EpochSlot>,
}

impl StoreReader {
    /// The latest published snapshot. O(1): one `Arc` clone under a
    /// read lock held for the duration of that clone.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            epoch: self.slot.load(),
        }
    }

    /// Version of the latest published epoch (monotone; bumped by every
    /// [`publish`](crate::TieredStore::publish)).
    pub fn version(&self) -> u64 {
        self.slot.load().version
    }
}

/// An immutable point-in-time view of a [`TieredStore`](crate::TieredStore):
/// the full [`SeqIndex`](wavelet_trie::SeqIndex) query surface (point,
/// range, analytics, and the software-pipelined `*_batch` kernels) over
/// the state as of one publish. `Send + Sync` and cheap to clone — share
/// one snapshot across a thread pool or take one per request.
///
/// Answers are frozen: a snapshot taken before further writes, seals,
/// compactions or maintenance failures keeps answering from its epoch,
/// bit-identically, until dropped.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    epoch: Arc<Epoch>,
}

impl StoreSnapshot {
    pub(crate) fn from_epoch(epoch: Arc<Epoch>) -> Self {
        StoreSnapshot { epoch }
    }

    /// The epoch version this snapshot serves.
    pub fn version(&self) -> u64 {
        self.epoch.version
    }

    /// Number of strings in the snapshot.
    pub fn len(&self) -> usize {
        self.epoch.len
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.epoch.len == 0
    }

    /// Number of segments (including the hot-tail view).
    pub fn num_segments(&self) -> usize {
        self.epoch.segments.len()
    }

    /// Number of sealed (static) segments.
    pub fn sealed_segments(&self) -> usize {
        self.epoch.segments.iter().filter(|g| g.is_sealed()).count()
    }

    /// Object-safe query view of segment `i` (sequence order).
    pub fn segment(&self, i: usize) -> &dyn wavelet_trie::SeqIndex {
        self.epoch.segments[i].index()
    }
}

impl SegmentedRead for StoreSnapshot {
    fn segments(&self) -> &[Segment] {
        &self.epoch.segments
    }

    fn total_len(&self) -> usize {
        self.epoch.len
    }
}

impl_seq_index_for_segmented!(StoreSnapshot);

impl SpaceUsage for StoreSnapshot {
    fn size_bits(&self) -> usize {
        let segs: usize = self.epoch.segments.iter().map(Segment::size_bits).sum();
        segs + 3 * 64
    }
}
