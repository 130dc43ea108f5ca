//! Deadline-bounded scatter-gather over hash-partitioned shards.
//!
//! [`ShardRouter`] splits a client batch into per-shard sub-batches,
//! hands each to one of the router's reusable scatter workers, and gathers
//! replies over a channel with every wait bounded by the batch's
//! [`Deadline`]. The robustness discipline:
//!
//! - **Admission control**: batches beyond [`RouterConfig::max_in_flight`]
//!   are shed immediately ([`MissCause::Shed`]) instead of queueing into a
//!   latency collapse.
//! - **Circuit breaking**: each shard's [`ShardHealth`] gates dispatch;
//!   quarantined shards are skipped ([`MissCause::Quarantined`]) until a
//!   half-open probe heals them.
//! - **Bounded retries**: transient shard errors retry with the
//!   [`RetryPolicy`]'s (optionally jittered) backoff, but never past the
//!   deadline.
//! - **Panic containment**: a panicking shard costs its sub-batch
//!   ([`MissCause::Panicked`]), never the process. A shard sleeping past
//!   the deadline cannot wedge the router: its worker is simply busy, its
//!   late reply lands on a closed channel and is dropped.
//! - **Structured degradation**: the merge returns a [`PartialResult`]
//!   whose `Some` answers are bit-identical to an unsharded oracle and
//!   whose misses carry machine-readable causes.
//!
//! Scatter workers are pooled and elastic. A sub-batch goes to a parked
//! worker when one is idle and to a newly spawned thread only when none
//! is, so once the pool has grown to the load's concurrency a steady load
//! spawns nothing. A worker parks again after each call unless
//! `max_in_flight × shards` workers are already parked — the most
//! sub-calls admission ever lets run at once — and parked workers exit
//! when the router drops. The pool has no fixed size on purpose: a worker
//! stuck in a stalled call is just not idle, so a half-open probe or a
//! healthy shard's sub-batch never queues behind it. Workers busy with a
//! stalled call stay detached; dropping the router never waits for them.
//!
//! Health outcomes are recorded only on the router (gathering) thread, so
//! state transitions are deterministic under a deterministic fault script.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

use wt_bits::storage::RetryPolicy;
use wt_trie::BitStr;

use crate::deadline::Deadline;
use crate::health::{Admission, HealthConfig, HealthSnapshot, ShardHealth};
use crate::query::{shard_for, Answer, DocId, MissCause, PartialResult, Query, ShardMiss, ShardOp};
use crate::shard::{Shard, ShardError};

/// Router tuning.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Default per-batch deadline budget (entry points taking an explicit
    /// [`Deadline`] override it).
    pub deadline: Duration,
    /// Retry policy for transient shard errors (attempts, backoff,
    /// jitter). Retries always additionally respect the deadline.
    pub retry: RetryPolicy,
    /// Query batches admitted concurrently before shedding.
    pub max_in_flight: usize,
    /// Per-shard circuit-breaker tuning.
    pub health: HealthConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            deadline: Duration::from_millis(100),
            retry: RetryPolicy {
                attempts: 3,
                base_backoff: Duration::from_micros(100),
                max_elapsed: None,
                jitter: Some(0x5EED),
            },
            max_in_flight: 64,
            health: HealthConfig::default(),
        }
    }
}

/// What one scatter worker sends back for its shard.
struct ShardReply {
    shard: usize,
    outcome: Result<(Vec<Answer>, Duration), MissCause>,
}

/// One shard's sub-batch, moved onto a scatter worker.
struct SubCall {
    shard: usize,
    target: Arc<dyn Shard>,
    ops: Vec<ShardOp>,
    deadline: Deadline,
    retry: RetryPolicy,
    reply: mpsc::Sender<ShardReply>,
}

impl SubCall {
    /// Execute with retries; the reply is returned, not sent, so the worker
    /// can park before the gatherer sees it.
    fn run(self) -> (mpsc::Sender<ShardReply>, ShardReply) {
        let outcome = run_with_retries(&self.retry, self.deadline, || {
            self.target.execute(&self.ops, self.deadline)
        });
        let reply = ShardReply {
            shard: self.shard,
            outcome,
        };
        (self.reply, reply)
    }
}

/// The router's scatter workers. A parked worker waits on a one-slot inbox
/// whose sender sits in `parked`; a busy worker holds only a [`Weak`] to
/// the pool, so dropping the router drops every inbox and the parked
/// workers exit.
struct Workers {
    parked: Mutex<Vec<mpsc::SyncSender<SubCall>>>,
    max_parked: usize,
    spawned: AtomicU64,
}

impl Workers {
    /// Hand `call` to the most recently parked worker, or to a new thread
    /// when none is parked.
    fn dispatch(self: &Arc<Self>, call: SubCall) -> std::io::Result<()> {
        let parked = self
            .parked
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let call = match parked {
            // An inbox takes exactly one call and its worker waits on it,
            // so the send cannot fail; if it did, a new thread takes over.
            Some(inbox) => match inbox.try_send(call) {
                Ok(()) => return Ok(()),
                Err(mpsc::TrySendError::Full(call) | mpsc::TrySendError::Disconnected(call)) => {
                    call
                }
            },
            None => call,
        };
        let pool = Arc::downgrade(self);
        std::thread::Builder::new()
            .name("wt-scatter".to_string())
            .spawn(move || serve(&pool, call))?;
        self.spawned.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A fresh inbox for a worker that just finished a call, or `None`
    /// when enough workers are parked already.
    fn park(&self) -> Option<mpsc::Receiver<SubCall>> {
        let mut parked = self.parked.lock().unwrap_or_else(PoisonError::into_inner);
        if parked.len() >= self.max_parked {
            return None;
        }
        let (inbox, calls) = mpsc::sync_channel(1);
        parked.push(inbox);
        Some(calls)
    }
}

/// A scatter worker's loop: run a call, park, reply, wait for the next
/// call. It exits when it cannot park (the router is gone, or enough
/// workers are parked) or when its inbox disconnects (the router dropped
/// while it was parked).
fn serve(pool: &Weak<Workers>, mut call: SubCall) {
    loop {
        let (reply_to, reply) = call.run();
        // Park before replying: once the gatherer holds a batch's replies,
        // every worker that served it is parked again, so a client issuing
        // one batch at a time never needs more workers than one batch uses.
        let inbox = pool.upgrade().and_then(|workers| workers.park());
        // The receiver may be gone (deadline hit): a late reply is
        // dropped, never a panic.
        let _ = reply_to.send(reply);
        match inbox.and_then(|calls| calls.recv().ok()) {
            Some(next) => call = next,
            None => return,
        }
    }
}

/// Scatter-gather front-end over `N` shards. Shareable across client
/// threads (`&self` entry points; wrap in `Arc` to share).
pub struct ShardRouter {
    shards: Vec<Arc<dyn Shard>>,
    health: Vec<Mutex<ShardHealth>>,
    config: RouterConfig,
    in_flight: AtomicUsize,
    shed: AtomicU64,
    workers: Arc<Workers>,
}

impl ShardRouter {
    /// Build a router over `shards` (at least one).
    pub fn new(shards: Vec<Arc<dyn Shard>>, config: RouterConfig) -> Self {
        assert!(!shards.is_empty(), "router needs at least one shard");
        let health = shards
            .iter()
            .map(|_| Mutex::new(ShardHealth::new(config.health.clone())))
            .collect();
        let workers = Arc::new(Workers {
            parked: Mutex::new(Vec::new()),
            max_parked: config.max_in_flight.saturating_mul(shards.len()),
            spawned: AtomicU64::new(0),
        });
        ShardRouter {
            shards,
            health,
            config,
            in_flight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            workers,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns string `s` under hash partitioning.
    pub fn shard_for(&self, s: BitStr<'_>) -> u32 {
        shard_for(s, self.shards.len())
    }

    /// Published length of one shard (administrative read: not deadline-
    /// bounded, not health-gated, never faulted by `FaultyShard`).
    pub fn shard_len(&self, shard: u32) -> Option<usize> {
        self.shards.get(shard as usize).map(|s| s.len())
    }

    /// Batches shed at admission since construction.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Scatter worker threads spawned since construction. It stays flat
    /// under a steady load: a thread is spawned only when no worker is
    /// parked.
    pub fn spawn_count(&self) -> u64 {
        self.workers.spawned.load(Ordering::Relaxed)
    }

    /// Read-only health of every shard, for observability and tests.
    pub fn health_report(&self) -> Vec<HealthSnapshot> {
        self.health
            .iter()
            .enumerate()
            .map(|(i, h)| {
                h.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .snapshot(i as u32)
            })
            .collect()
    }

    /// Append a string to its owning shard, with health gating and bounded
    /// retries under the default deadline. Returns the document's id.
    pub fn append(&self, s: BitStr<'_>) -> Result<DocId, ShardMiss> {
        let shard_idx = self.shard_for(s) as usize;
        let deadline = Deadline::within(self.config.deadline);
        let admission = self.health[shard_idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .admit();
        if admission == Admission::Reject {
            return Err(ShardMiss {
                shard: shard_idx as u32,
                cause: MissCause::Quarantined,
            });
        }
        let shard = Arc::clone(&self.shards[shard_idx]);
        let outcome = run_with_retries(&self.config.retry, deadline, || {
            shard.append(s).map(|pos| vec![Answer::Count(pos as usize)])
        });
        let probe = admission == Admission::Probe;
        match outcome {
            Ok((answers, latency)) => {
                self.record_outcome(shard_idx, probe, Ok(latency));
                let pos = match answers.first() {
                    Some(Answer::Count(pos)) => *pos as u64,
                    _ => unreachable!("append closure returns exactly one Count"),
                };
                Ok(DocId {
                    shard: shard_idx as u32,
                    pos,
                })
            }
            Err(cause) => {
                self.record_miss(shard_idx, probe, &cause);
                Err(ShardMiss {
                    shard: shard_idx as u32,
                    cause,
                })
            }
        }
    }

    /// Execute a query batch under the configured default deadline.
    pub fn query(&self, queries: &[Query]) -> PartialResult {
        self.query_with_deadline(queries, Deadline::within(self.config.deadline))
    }

    /// Execute a query batch under an explicit deadline (propagated, not
    /// reset, by every sub-call).
    pub fn query_with_deadline(&self, queries: &[Query], deadline: Deadline) -> PartialResult {
        let n = self.shards.len();
        let answers: Vec<Option<Answer>> = vec![None; queries.len()];

        // --- split: per-shard op lists, remembering which query each op
        // answers so the merge can route replies back. The op lists move
        // into the sub-calls; `slots` stays for the merge.
        let mut ops: Vec<Vec<ShardOp>> = vec![Vec::new(); n];
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut missing: Vec<ShardMiss> = Vec::new();
        for (qi, q) in queries.iter().enumerate() {
            match q {
                Query::Count(s) => {
                    let t = shard_for(s.as_bitstr(), n) as usize;
                    ops[t].push(ShardOp::Count(s.clone()));
                    slots[t].push(qi);
                }
                Query::CountPrefix(p) => {
                    for (shard_ops, shard_slots) in ops.iter_mut().zip(&mut slots) {
                        shard_ops.push(ShardOp::CountPrefix(p.clone()));
                        shard_slots.push(qi);
                    }
                }
                Query::Access(doc) => {
                    if (doc.shard as usize) < n {
                        let t = doc.shard as usize;
                        ops[t].push(ShardOp::Access(doc.pos));
                        slots[t].push(qi);
                    } else {
                        // Client error: answer stays None, attributed to
                        // the (nonexistent) shard it named.
                        missing.push(ShardMiss {
                            shard: doc.shard,
                            cause: MissCause::Failed("no such shard".to_string()),
                        });
                    }
                }
            }
        }
        let targeted: Vec<usize> = (0..n).filter(|&i| !ops[i].is_empty()).collect();

        // --- admission control: shed the whole batch when saturated.
        let guard = InFlight::enter(&self.in_flight);
        if guard.prior >= self.config.max_in_flight {
            self.shed.fetch_add(1, Ordering::Relaxed);
            for &t in &targeted {
                missing.push(ShardMiss {
                    shard: t as u32,
                    cause: MissCause::Shed,
                });
            }
            return finish(answers, queries, &slots, vec![None; n], missing);
        }

        // --- scatter: health-gated dispatch onto the worker pool.
        let (tx, rx) = mpsc::channel::<ShardReply>();
        let mut probe_flags: Vec<bool> = vec![false; n];
        let mut outstanding = 0usize;
        for &t in &targeted {
            if deadline.expired() {
                // Budget already gone: attribute to the query, not the
                // shards — no dispatch, no health penalty.
                missing.push(ShardMiss {
                    shard: t as u32,
                    cause: MissCause::DeadlineExpired,
                });
                continue;
            }
            let admission = self.health[t]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .admit();
            if admission == Admission::Reject {
                missing.push(ShardMiss {
                    shard: t as u32,
                    cause: MissCause::Quarantined,
                });
                continue;
            }
            probe_flags[t] = admission == Admission::Probe;
            let call = SubCall {
                shard: t,
                target: Arc::clone(&self.shards[t]),
                ops: std::mem::take(&mut ops[t]),
                deadline,
                retry: self.config.retry,
                reply: tx.clone(),
            };
            match self.workers.dispatch(call) {
                Ok(()) => outstanding += 1,
                Err(e) => missing.push(self.dispatch_failed(t, probe_flags[t], &e)),
            }
        }
        drop(tx);

        // --- gather: every wait bounded by the remaining budget.
        let mut replies: Vec<Option<Vec<Answer>>> = vec![None; n];
        let mut replied: Vec<bool> = vec![false; n];
        while outstanding > 0 {
            let reply = match deadline.remaining() {
                None => rx.recv().ok(),
                Some(rem) if rem.is_zero() => None,
                Some(rem) => rx.recv_timeout(rem).ok(),
            };
            let Some(reply) = reply else { break };
            outstanding -= 1;
            replied[reply.shard] = true;
            let probe = probe_flags[reply.shard];
            match reply.outcome {
                Ok((answers_for_shard, latency)) => {
                    self.record_outcome(reply.shard, probe, Ok(latency));
                    replies[reply.shard] = Some(answers_for_shard);
                }
                Err(cause) => {
                    self.record_miss(reply.shard, probe, &cause);
                    missing.push(ShardMiss {
                        shard: reply.shard as u32,
                        cause,
                    });
                }
            }
        }
        // Shards whose worker never delivered: deadline expired mid-gather.
        // That *is* a health signal — a shard that cannot answer within a
        // budget the router considered live when dispatching is slow, and
        // slowness is what degrades it toward quarantine.
        for &t in &targeted {
            if replied[t] {
                continue;
            }
            if missing.iter().any(|m| m.shard == t as u32) {
                continue; // already attributed (rejected / pre-expired / dispatch failure)
            }
            let detail = if probe_flags[t] {
                "probe timed out"
            } else {
                "deadline expired before reply"
            };
            self.record_outcome(t, probe_flags[t], Err(detail.to_string()));
            missing.push(ShardMiss {
                shard: t as u32,
                cause: MissCause::DeadlineExpired,
            });
        }

        // --- merge.
        drop(guard);
        finish(answers, queries, &slots, replies, missing)
    }

    /// The one failure path for a sub-call no worker could take. That is a
    /// router-side resource problem, not a shard fault, so a normal call
    /// costs the shard no health. A probe is settled as failed: until its
    /// outcome is recorded the breaker admits no further probe.
    fn dispatch_failed(&self, shard: usize, probe: bool, err: &std::io::Error) -> ShardMiss {
        let cause = format!("spawn failed: {err}");
        if probe {
            self.record_outcome(shard, true, Err(cause.clone()));
        }
        ShardMiss {
            shard: shard as u32,
            cause: MissCause::Failed(cause),
        }
    }

    fn record_outcome(&self, shard: usize, probe: bool, outcome: Result<Duration, String>) {
        let mut h = self.health[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if probe {
            h.record_probe(outcome);
        } else {
            match outcome {
                Ok(latency) => h.record_success(latency),
                Err(cause) => h.record_error(&cause),
            }
        }
    }

    fn record_miss(&self, shard: usize, probe: bool, cause: &MissCause) {
        match cause {
            // The query ran out of budget or the router shed it — that is
            // not evidence the shard is unhealthy. (Workers that *timed
            // out* are penalized in the gather loop, where the router can
            // tell "slow shard" from "small budget".)
            MissCause::Shed => {}
            MissCause::DeadlineExpired if !probe => {}
            // A rejected request is the client's error, never the shard's.
            // As a half-open probe it still proves the shard replies, so
            // it closes the circuit (probes ignore latency).
            MissCause::Rejected(_) if !probe => {}
            MissCause::Rejected(_) => self.record_outcome(shard, true, Ok(Duration::ZERO)),
            _ => self.record_outcome(shard, probe, Err(cause.to_string())),
        }
    }
}

/// RAII in-flight counter for admission control.
struct InFlight<'a> {
    counter: &'a AtomicUsize,
    prior: usize,
}

impl<'a> InFlight<'a> {
    fn enter(counter: &'a AtomicUsize) -> Self {
        let prior = counter.fetch_add(1, Ordering::AcqRel);
        InFlight { counter, prior }
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Run `call` with bounded, deadline-respecting retries. Transient
/// ([`ShardError::Unavailable`]) errors retry per the policy; deadline
/// exhaustion, rejections and panics do not. Panics are contained here so
/// they cannot cross the channel as thread death.
fn run_with_retries(
    retry: &RetryPolicy,
    deadline: Deadline,
    mut call: impl FnMut() -> Result<Vec<Answer>, ShardError>,
) -> Result<(Vec<Answer>, Duration), MissCause> {
    let started = Instant::now();
    let mut backoffs = retry.backoffs();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if deadline.expired() {
            return Err(MissCause::DeadlineExpired);
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut call));
        match result {
            Ok(Ok(answers)) => return Ok((answers, started.elapsed())),
            Ok(Err(ShardError::DeadlineExceeded)) => return Err(MissCause::DeadlineExpired),
            Ok(Err(ShardError::Rejected(m))) => return Err(MissCause::Rejected(m)),
            Ok(Err(ShardError::Unavailable(m))) => {
                if attempt >= retry.attempts.max(1) {
                    return Err(MissCause::Failed(m));
                }
                let sleep = backoffs.next().unwrap_or(Duration::ZERO);
                match deadline.remaining() {
                    // Out of budget for another attempt: return the error,
                    // not DeadlineExpired — the shard did fail.
                    Some(rem) if rem <= sleep => return Err(MissCause::Failed(m)),
                    _ => std::thread::sleep(sleep),
                }
            }
            Err(panic) => return Err(MissCause::Panicked(panic_message(panic.as_ref()))),
        }
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Merge per-shard replies into the final [`PartialResult`]. `slots[t]`
/// names the query each of shard `t`'s answers belongs to.
fn finish(
    mut answers: Vec<Option<Answer>>,
    queries: &[Query],
    slots: &[Vec<usize>],
    replies: Vec<Option<Vec<Answer>>>,
    mut missing: Vec<ShardMiss>,
) -> PartialResult {
    // Route single-shard answers back to their queries; accumulate
    // CountPrefix partial sums separately so incompleteness can void them.
    let n = slots.len();
    let mut prefix_sums: Vec<usize> = vec![0; queries.len()];
    let mut prefix_votes: Vec<usize> = vec![0; queries.len()];
    for t in 0..n {
        let Some(shard_answers) = &replies[t] else {
            continue;
        };
        for (slot, &qi) in slots[t].iter().enumerate() {
            match (&queries[qi], &shard_answers[slot]) {
                (Query::CountPrefix(_), Answer::CountPrefix(c)) => {
                    prefix_sums[qi] += c;
                    prefix_votes[qi] += 1;
                }
                (_, a) => answers[qi] = Some(a.clone()),
            }
        }
    }
    let answered: Vec<u32> = (0..n as u32)
        .filter(|&t| replies[t as usize].is_some())
        .collect();
    for (qi, q) in queries.iter().enumerate() {
        if let Query::CountPrefix(_) = q {
            // Exact only if every shard contributed; a partial sum is not
            // the oracle's answer, so it stays None (causes in `missing`).
            if prefix_votes[qi] == n {
                answers[qi] = Some(Answer::CountPrefix(prefix_sums[qi]));
            }
        }
    }
    missing.sort_by_key(|m| m.shard);
    missing.dedup();
    PartialResult {
        answers,
        answered_shards: answered,
        missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultScript, FaultyShard};
    use crate::shard::StoreShard;
    use wt_store::TieredStore;
    use wt_trie::BitString;

    fn store_with(strings: &[&str]) -> TieredStore {
        let mut store = TieredStore::new();
        for s in strings {
            store
                .append(BitString::parse(s).as_bitstr())
                .expect("prefix-free test data");
        }
        store
    }

    /// Router + oracle holding the same corpus, partitioned by the
    /// router's own hash so placement matches production.
    fn router_and_oracle(shards: usize, corpus: &[&str]) -> (ShardRouter, TieredStore) {
        let stores: Vec<Arc<dyn Shard>> = (0..shards)
            .map(|_| Arc::new(StoreShard::new(TieredStore::new())) as Arc<dyn Shard>)
            .collect();
        let config = RouterConfig {
            deadline: Duration::from_secs(5),
            ..RouterConfig::default()
        };
        let router = ShardRouter::new(stores, config);
        let mut oracle = TieredStore::new();
        for s in corpus {
            let b = BitString::parse(s);
            router.append(b.as_bitstr()).expect("healthy append");
            oracle.append(b.as_bitstr()).expect("prefix-free test data");
        }
        (router, oracle)
    }

    #[test]
    fn clean_batch_matches_unsharded_oracle() {
        use wavelet_trie::SeqIndex;
        let corpus = ["000", "001", "010", "011", "001", "010", "110", "111"];
        let (router, oracle) = router_and_oracle(3, &corpus);
        let queries: Vec<Query> = ["000", "001", "010", "100", "110"]
            .iter()
            .map(|s| Query::Count(BitString::parse(s)))
            .chain(
                ["0", "01", "1", ""]
                    .iter()
                    .map(|s| Query::CountPrefix(BitString::parse(s))),
            )
            .collect();
        let result = router.query(&queries);
        assert!(result.is_complete(), "missing: {:?}", result.missing);
        for (q, a) in queries.iter().zip(&result.answers) {
            let want = match q {
                Query::Count(s) => Answer::Count(oracle.count(s.as_bitstr())),
                Query::CountPrefix(p) => Answer::CountPrefix(oracle.count_prefix(p.as_bitstr())),
                Query::Access(_) => unreachable!(),
            };
            assert_eq!(a.as_ref(), Some(&want), "query {q:?}");
        }
    }

    #[test]
    fn append_then_access_roundtrips_by_doc_id() {
        let (router, _) = router_and_oracle(4, &[]);
        let s = BitString::parse("10101");
        let doc = router.append(s.as_bitstr()).expect("healthy append");
        let result = router.query(&[Query::Access(doc)]);
        assert_eq!(result.answers[0], Some(Answer::Access(Some(s))));
    }

    #[test]
    fn single_shard_router_answers_everything() {
        let corpus = ["00", "01", "10"];
        let (router, _) = router_and_oracle(1, &corpus);
        let result = router.query(&[
            Query::Count(BitString::parse("00")),
            Query::CountPrefix(BitString::parse("")),
        ]);
        assert!(result.is_complete());
        assert_eq!(result.answers[0], Some(Answer::Count(1)));
        assert_eq!(result.answers[1], Some(Answer::CountPrefix(3)));
        assert_eq!(result.answered_shards, vec![0]);
    }

    #[test]
    fn empty_shard_still_contributes_zeroes() {
        // With 2 shards and a corpus chosen to land entirely on one of
        // them, the other is empty — prefix counts must still merge.
        let (router, _) = router_and_oracle(2, &["010", "010", "010"]);
        let lens: Vec<usize> = (0..2).map(|i| router.shards[i].len()).collect();
        assert!(lens.contains(&0) || lens.iter().sum::<usize>() == 3);
        let result = router.query(&[Query::CountPrefix(BitString::parse("01"))]);
        assert!(result.is_complete());
        assert_eq!(result.answers[0], Some(Answer::CountPrefix(3)));
    }

    #[test]
    fn access_to_nonexistent_shard_is_a_client_error() {
        let (router, _) = router_and_oracle(2, &["00"]);
        let result = router.query(&[Query::Access(DocId { shard: 9, pos: 0 })]);
        assert_eq!(result.answers[0], None);
        assert_eq!(result.missing.len(), 1);
        assert!(matches!(result.missing[0].cause, MissCause::Failed(_)));
        // A client error must not poison shard health.
        assert!(router
            .health_report()
            .iter()
            .all(|h| h.state == crate::health::HealthState::Healthy));
    }

    #[test]
    fn empty_batch_yields_empty_complete_result() {
        let (router, _) = router_and_oracle(2, &["00"]);
        let result = router.query(&[]);
        assert!(result.is_complete());
        assert!(result.answers.is_empty());
        assert!(result.answered_shards.is_empty());
    }

    #[test]
    fn saturation_sheds_with_structured_cause() {
        let (router, _) = router_and_oracle(2, &["00", "01"]);
        // Occupy the admission window artificially.
        let cfg = RouterConfig {
            max_in_flight: 0,
            ..RouterConfig::default()
        };
        let shards: Vec<Arc<dyn Shard>> = vec![
            Arc::new(StoreShard::new(store_with(&["00"]))),
            Arc::new(StoreShard::new(store_with(&["11"]))),
        ];
        let shedding = ShardRouter::new(shards, cfg);
        let result = shedding.query(&[Query::CountPrefix(BitString::parse(""))]);
        assert!(!result.is_complete());
        assert!(result.missing.iter().all(|m| m.cause == MissCause::Shed));
        assert_eq!(shedding.shed_count(), 1);
        drop(router);
    }

    #[test]
    fn pre_expired_deadline_misses_without_health_penalty() {
        let (router, _) = router_and_oracle(2, &["00", "11"]);
        let past = Deadline::within(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        let result = router.query_with_deadline(&[Query::CountPrefix(BitString::parse(""))], past);
        assert!(!result.is_complete());
        assert!(result
            .missing
            .iter()
            .all(|m| m.cause == MissCause::DeadlineExpired));
        assert!(router
            .health_report()
            .iter()
            .all(|h| h.state == crate::health::HealthState::Healthy));
    }

    #[test]
    fn transient_faults_are_retried_within_budget() {
        // Fail the first attempt only: the retry must make the batch
        // complete and the health window should record the final success.
        let inner: Arc<dyn Shard> = Arc::new(StoreShard::new(store_with(&["010"])));
        let faulty = Arc::new(FaultyShard::new(inner, FaultScript::new().fail(0)));
        let mut cfg = RouterConfig::default();
        cfg.retry.attempts = 3;
        cfg.retry.base_backoff = Duration::from_micros(50);
        cfg.deadline = Duration::from_secs(5);
        let router = ShardRouter::new(vec![faulty as Arc<dyn Shard>], cfg);
        let result = router.query(&[Query::Count(BitString::parse("010"))]);
        assert!(result.is_complete(), "missing: {:?}", result.missing);
        assert_eq!(result.answers[0], Some(Answer::Count(1)));
    }

    #[test]
    fn rejected_appends_leave_the_shard_healthy() {
        use crate::health::HealthState;
        let inner: Arc<dyn Shard> = Arc::new(StoreShard::new(store_with(&["0100"])));
        let faulty = Arc::new(FaultyShard::new(inner, FaultScript::new()));
        let router = ShardRouter::new(
            vec![Arc::clone(&faulty) as Arc<dyn Shard>],
            RouterConfig::default(),
        );
        // "01" is a prefix of the stored "0100": every append is refused.
        let bad = BitString::parse("01");
        for _ in 0..6 {
            let miss = router.append(bad.as_bitstr()).unwrap_err();
            assert!(matches!(miss.cause, MissCause::Rejected(_)), "{miss:?}");
        }
        let health = &router.health_report()[0];
        assert_eq!(health.state, HealthState::Healthy);
        assert_eq!(health.trips, 0);
        let read = router.query(&[Query::Count(BitString::parse("0100"))]);
        assert!(read.is_complete(), "missing: {:?}", read.missing);
        assert_eq!(read.answers[0], Some(Answer::Count(1)));

        // A rejection that lands as the half-open probe closes the circuit.
        faulty.set_script(FaultScript::new().fail_from(faulty.ops_seen()));
        for _ in 0..HealthConfig::default().quarantine_errors {
            router.query(&[Query::Count(BitString::parse("0100"))]);
        }
        assert_eq!(router.health_report()[0].state, HealthState::Quarantined);
        faulty.set_script(FaultScript::new());
        std::thread::sleep(HealthConfig::default().probe_cooldown);
        let miss = router.append(bad.as_bitstr()).unwrap_err();
        assert!(matches!(miss.cause, MissCause::Rejected(_)), "{miss:?}");
        let health = &router.health_report()[0];
        assert_eq!(health.state, HealthState::Healthy);
        assert_eq!((health.probes, health.recoveries), (1, 1));
    }

    #[test]
    fn failed_dispatch_settles_a_probe_and_spares_a_normal_call() {
        let (router, _) = router_and_oracle(2, &["00", "11"]);
        let cooldown_free = HealthConfig {
            probe_cooldown: Duration::ZERO,
            ..HealthConfig::default()
        };
        let no_thread = std::io::Error::other("no thread available");
        {
            let mut h = router.health[0].lock().unwrap();
            *h = ShardHealth::new(cooldown_free.clone());
            for _ in 0..cooldown_free.quarantine_errors {
                h.record_error("injected");
            }
            assert_eq!(h.admit(), Admission::Probe);
        }
        let miss = router.dispatch_failed(0, true, &no_thread);
        assert_eq!(miss.shard, 0);
        assert!(matches!(miss.cause, MissCause::Failed(_)), "{miss:?}");
        assert_eq!(
            router.health[0].lock().unwrap().admit(),
            Admission::Probe,
            "a probe that never ran must not leave the shard quarantined"
        );

        // A normal call that could not be dispatched is no shard fault.
        for _ in 0..HealthConfig::default().quarantine_errors {
            router.dispatch_failed(1, false, &no_thread);
        }
        let health = &router.health_report()[1];
        assert_eq!(health.state, crate::health::HealthState::Healthy);
        assert_eq!(health.last_error, None);
    }

    #[test]
    fn steady_batches_reuse_parked_workers() {
        // The warm-up call stalls on every shard, so all four sub-calls are
        // in flight at once and the warm-up spawns one worker per shard.
        let shards: Vec<Arc<dyn Shard>> = ["000", "011", "101", "110"]
            .iter()
            .map(|s| {
                let inner: Arc<dyn Shard> = Arc::new(StoreShard::new(store_with(&[s])));
                let stall = FaultScript::new().delay(0, Duration::from_millis(50));
                Arc::new(FaultyShard::new(inner, stall)) as Arc<dyn Shard>
            })
            .collect();
        let config = RouterConfig {
            deadline: Duration::from_secs(5),
            ..RouterConfig::default()
        };
        let router = ShardRouter::new(shards, config);
        let batch = [Query::CountPrefix(BitString::parse(""))];
        assert!(router.query(&batch).is_complete(), "warm-up");
        assert_eq!(router.spawn_count(), 4, "one worker per targeted shard");
        for _ in 0..50 {
            let result = router.query(&batch);
            assert!(result.is_complete(), "missing: {:?}", result.missing);
            assert_eq!(result.answers[0], Some(Answer::CountPrefix(4)));
        }
        assert_eq!(router.spawn_count(), 4, "steady state spawns nothing");
    }

    #[test]
    fn dropping_the_router_never_waits_for_a_stalled_call() {
        let inner: Arc<dyn Shard> = Arc::new(StoreShard::new(store_with(&["010"])));
        let stall = Duration::from_secs(2);
        let faulty = Arc::new(FaultyShard::new(inner, FaultScript::new().delay(0, stall)));
        let cfg = RouterConfig {
            deadline: Duration::from_millis(20),
            ..RouterConfig::default()
        };
        let router = ShardRouter::new(vec![Arc::clone(&faulty) as Arc<dyn Shard>], cfg);
        let started = Instant::now();
        let result = router.query(&[Query::Count(BitString::parse("010"))]);
        assert_eq!(result.missing[0].cause, MissCause::DeadlineExpired);
        assert_eq!(faulty.ops_seen(), 1, "the call is in its stall");
        drop(router);
        assert!(
            started.elapsed() < stall / 4,
            "drop waited for the stalled call: {:?}",
            started.elapsed()
        );
    }
}
