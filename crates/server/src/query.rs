//! Query, answer and degraded-result types for the sharded front-end.
//!
//! The router hash-partitions strings across shards: every occurrence of a
//! given (binarized) string lives on exactly one shard, chosen by
//! [`shard_for`]. That makes [`Query::Count`] and [`Query::Access`]
//! single-shard operations, while [`Query::CountPrefix`] must fan out to
//! every shard and sum.
//!
//! Degradation is *structured*: a batch never fails wholesale. Each query
//! either gets an answer that is bit-identical to what an unsharded oracle
//! store would return, or `None` plus a [`ShardMiss`] entry naming the
//! shard that could not contribute and why ([`MissCause`]). Partial
//! answers are never silently passed off as exact ones.

use wt_trie::{BitStr, BitString};

/// A document handle returned by a sharded append: which shard holds the
/// string and at which local position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DocId {
    /// Owning shard index.
    pub shard: u32,
    /// Position within that shard's sequence.
    pub pos: u64,
}

/// One query in a client batch, over binarized (prefix-free) strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Query {
    /// Total occurrences of the string (single-shard: all occurrences are
    /// co-located by hash partitioning).
    Count(BitString),
    /// Total strings with the given prefix (fans out to every shard).
    CountPrefix(BitString),
    /// The string stored at a [`DocId`] (single-shard).
    Access(DocId),
}

/// One operation in a per-shard sub-batch, produced by splitting a client
/// batch. Owned (no borrows) so it can move onto a scatter worker thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardOp {
    /// Count occurrences of a string on this shard.
    Count(BitString),
    /// Count prefixed strings on this shard.
    CountPrefix(BitString),
    /// Access a local position on this shard.
    Access(u64),
}

/// The answer to one [`Query`]. Every produced answer is exact — equal to
/// what an unsharded store holding the union of all shards would return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Occurrence count for [`Query::Count`].
    Count(usize),
    /// Prefixed-string count for [`Query::CountPrefix`].
    CountPrefix(usize),
    /// Stored string for [`Query::Access`] (`None` when the position is
    /// out of range on the owning shard).
    Access(Option<BitString>),
}

/// Why a shard could not contribute to a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MissCause {
    /// The shard's circuit breaker is open; the sub-call was not sent.
    Quarantined,
    /// The query's deadline budget ran out before the shard replied.
    DeadlineExpired,
    /// The router shed the batch at admission (in-flight window full).
    Shed,
    /// The shard returned an error (message preserved for diagnostics).
    Failed(String),
    /// The shard refused the request itself (e.g. an append that breaks
    /// prefix-freeness): a client error, not a shard fault.
    Rejected(String),
    /// The shard panicked; the panic was contained by the router.
    Panicked(String),
}

impl std::fmt::Display for MissCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MissCause::Quarantined => write!(f, "shard quarantined (circuit open)"),
            MissCause::DeadlineExpired => write!(f, "deadline expired"),
            MissCause::Shed => write!(f, "shed at admission (overloaded)"),
            MissCause::Failed(m) => write!(f, "shard failed: {m}"),
            MissCause::Rejected(m) => write!(f, "request rejected: {m}"),
            MissCause::Panicked(m) => write!(f, "shard panicked: {m}"),
        }
    }
}

/// One shard's absence from a batch result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMiss {
    /// The shard that did not contribute.
    pub shard: u32,
    /// Why it did not contribute.
    pub cause: MissCause,
}

/// The structured, possibly degraded result of a query batch.
///
/// `answers[i]` corresponds to the `i`-th input [`Query`]: `Some` iff every
/// shard the query depends on replied in time, in which case the value is
/// bit-identical to the unsharded oracle's. Queries touching a missing
/// shard get `None`; the shard appears in `missing` with its cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialResult {
    /// Per-query answers, parallel to the input batch.
    pub answers: Vec<Option<Answer>>,
    /// Shards that replied with answers, ascending.
    pub answered_shards: Vec<u32>,
    /// Shards that could not contribute, with causes, ascending by shard.
    pub missing: Vec<ShardMiss>,
}

impl PartialResult {
    /// True when every dispatched shard answered (all answers are `Some`).
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }
}

/// The owning shard for a (binarized) string: FNV-1a over the bits in
/// 64-bit chunks, reduced modulo the shard count. Deterministic across
/// runs and processes, so appends and counts always agree on placement.
pub fn shard_for(s: BitStr<'_>, shards: usize) -> u32 {
    debug_assert!(shards > 0, "router must have at least one shard");
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let n = s.len();
    let mut i = 0;
    while i < n {
        let w = (n - i).min(64);
        h ^= s.get_bits(i, w);
        h = h.wrapping_mul(FNV_PRIME);
        i += w;
    }
    // Fold in the length so strings that differ only by trailing zero-width
    // (e.g. "" vs "0" with equal chunk values) cannot collide structurally.
    h ^= n as u64;
    h = h.wrapping_mul(FNV_PRIME);
    (h % shards.max(1) as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_for_is_deterministic_and_in_range() {
        let n = 5;
        for s in ["", "0", "00", "1", "10110", "111100001111"] {
            let b = BitString::parse(s);
            let a = shard_for(b.as_bitstr(), n);
            let b2 = shard_for(b.as_bitstr(), n);
            assert_eq!(a, b2);
            assert!((a as usize) < n);
        }
    }

    #[test]
    fn shard_for_spreads_across_shards() {
        // Not a statistical test — just require that a few hundred distinct
        // strings do not all land on one shard.
        let n = 4;
        let mut seen = [false; 4];
        for i in 0..256u64 {
            let mut b = BitString::new();
            for k in 0..16 {
                b.push((i >> (k % 8)) & 1 == 1 || (i + k) % 3 == 0);
            }
            seen[shard_for(b.as_bitstr(), n) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all shards should receive keys");
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        for s in ["", "0", "101"] {
            let b = BitString::parse(s);
            assert_eq!(shard_for(b.as_bitstr(), 1), 0);
        }
    }

    #[test]
    fn partial_result_completeness() {
        let complete = PartialResult {
            answers: vec![Some(Answer::Count(3))],
            answered_shards: vec![0, 1],
            missing: vec![],
        };
        assert!(complete.is_complete());
        let degraded = PartialResult {
            answers: vec![None],
            answered_shards: vec![0],
            missing: vec![ShardMiss {
                shard: 1,
                cause: MissCause::Quarantined,
            }],
        };
        assert!(!degraded.is_complete());
        assert_eq!(
            degraded.missing[0].cause.to_string(),
            "shard quarantined (circuit open)"
        );
    }
}
