//! # wt-server — fault-tolerant sharded serving for tiered Wavelet Tries
//!
//! Turns the per-shard [`TieredStore`](wt_store::TieredStore) into an
//! end-to-end front-end: N hash-partitioned shards behind a
//! [`ShardRouter`] that splits query batches, scatter-gathers over
//! per-shard wait-free snapshots with the store's `*_batch` kernels, and
//! merges — wrapped in the robustness layer that is this crate's point:
//!
//! - **Deadline budgets** ([`Deadline`]): fixed at batch entry, propagated
//!   (never reset) to every shard sub-call, bounding both worker waits and
//!   in-kernel execution.
//! - **Circuit breaking** ([`ShardHealth`]): per-shard
//!   Healthy → Degraded → Quarantined state machine over a sliding
//!   error/latency window, with half-open probes that heal a recovered
//!   shard.
//! - **Bounded retries**: transient shard errors retry under the
//!   workspace-wide [`RetryPolicy`](wt_bits::storage::RetryPolicy) —
//!   decorrelated jitter keeps simultaneous retriers from re-converging
//!   in waves — and never past the deadline.
//! - **Admission control**: batches beyond the in-flight window are shed
//!   at the door instead of queueing into latency collapse.
//! - **Reusable scatter workers**: sub-batches go to parked workers from
//!   one elastic pool per router, and a thread is spawned only when none
//!   is idle ([`ShardRouter::spawn_count`]). The pool has no fixed size,
//!   so a worker stuck in a stalled shard call never holds up a probe or
//!   another shard's sub-batch; at most `max_in_flight × shards` workers
//!   stay parked, and they exit when the router drops.
//! - **Structured degradation** ([`PartialResult`]): a query that outlives
//!   its budget or touches a broken shard gets `None` plus a
//!   machine-readable [`ShardMiss`]; every `Some` answer is bit-identical
//!   to an unsharded oracle store. No panic escapes the router.
//! - **Deterministic fault injection** ([`FaultyShard`]): delay / fail /
//!   panic faults keyed by operation index, modeled on
//!   [`FaultStorage`](wt_bits::storage::FaultStorage), so failover tests
//!   replay bit-identically; shards recover through the store's
//!   crash-safe `recover_dir` + panic-contained `maintain_with`.
//!
//! See `DESIGN.md` §16 for the state machine diagram and
//! `tests/shard_failover.rs` for the fault-injection suite that proves the
//! claims above.

pub mod deadline;
pub mod fault;
pub mod health;
pub mod query;
pub mod router;
pub mod shard;

pub use deadline::Deadline;
pub use fault::{FaultAction, FaultScript, FaultyShard};
pub use health::{Admission, HealthConfig, HealthSnapshot, HealthState, ShardHealth};
pub use query::{shard_for, Answer, DocId, MissCause, PartialResult, Query, ShardMiss, ShardOp};
pub use router::{RouterConfig, ShardRouter};
pub use shard::{Shard, ShardError, StoreShard};

// The whole point of the router is to be shared across client threads and
// to move sub-batches onto workers; lock these bounds in at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardRouter>();
    assert_send_sync::<StoreShard>();
    assert_send_sync::<FaultyShard>();
    assert_send_sync::<Deadline>();
    assert_send_sync::<PartialResult>();
};
