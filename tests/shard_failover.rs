//! Fault-injection suite for the sharded front-end: the proof artifact of
//! the ISSUE-10 robustness claims.
//!
//! For every injected fault class — shard delay past the deadline, shard
//! panic, failed shard op, damaged (quarantined) generation on disk — the
//! router must return a *correct* `PartialResult`: every `Some` answer
//! bit-identical to an unsharded oracle `TieredStore` holding the same
//! corpus, every miss attributed to the faulted shard with a structured
//! cause, zero panics escaping. And in every scenario the shard must
//! *heal* within the test: circuit opens (Healthy → Degraded →
//! Quarantined), the fault is cleared, a half-open probe closes the
//! circuit, and a final batch completes cleanly.
//!
//! Faults are keyed by operation index (`FaultScript`), so every run
//! replays identically.

use std::sync::{Arc, Once};
use std::time::Duration;

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::SeqIndex;
use wt_bits::{MemFs, RetryPolicy, Storage};
use wt_server::{
    Answer, DocId, FaultScript, FaultyShard, HealthConfig, HealthState, MissCause, PartialResult,
    Query, RouterConfig, Shard, ShardMiss, ShardRouter, StoreShard,
};
use wt_store::TieredStore;
use wt_trie::BitString;

/// Injected panics are expected here; keep them out of the test output
/// while still printing anything unexpected.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected"));
            if !injected {
                prev(info);
            }
        }));
    });
}

const CORPUS: &[&str] = &[
    "example.com/index",
    "example.com/about",
    "example.com/about",
    "example.org/blog/post-1",
    "example.org/blog/post-2",
    "example.org/blog/post-1",
    "cdn.example.net/asset/logo",
    "cdn.example.net/asset/app",
    "example.com/index",
    "api.example.com/v1/users",
    "api.example.com/v1/items",
    "api.example.com/v2/users",
];

fn encode(s: &str) -> BitString {
    NinthBitCoder.encode(s.as_bytes())
}

fn encode_prefix(p: &str) -> BitString {
    NinthBitCoder.encode_prefix(p.as_bytes())
}

/// Snappy, test-friendly tuning: small budgets, instant-ish retries,
/// zero probe cooldown (the heal step drives probes explicitly).
fn test_config(deadline: Duration) -> RouterConfig {
    RouterConfig {
        deadline,
        retry: RetryPolicy {
            attempts: 2,
            base_backoff: Duration::from_micros(100),
            max_elapsed: None,
            jitter: Some(0xFA17),
        },
        max_in_flight: 64,
        health: HealthConfig {
            window: 8,
            degrade_errors: 2,
            quarantine_errors: 3,
            probe_cooldown: Duration::ZERO,
            latency_budget: None,
        },
    }
}

/// A router whose shard 0 is wrapped in a `FaultyShard` (initially
/// transparent), the wrapper handle for scripting it, and an unsharded
/// oracle holding the identical corpus.
fn faulted_fixture(
    shards: usize,
    deadline: Duration,
) -> (ShardRouter, Arc<FaultyShard>, TieredStore) {
    let mut members: Vec<Arc<dyn Shard>> = Vec::new();
    let faulty = Arc::new(FaultyShard::new(
        Arc::new(StoreShard::new(TieredStore::new())),
        FaultScript::new(),
    ));
    members.push(Arc::clone(&faulty) as Arc<dyn Shard>);
    for _ in 1..shards {
        members.push(Arc::new(StoreShard::new(TieredStore::new())));
    }
    let router = ShardRouter::new(members, test_config(deadline));
    let mut oracle = TieredStore::new();
    for s in CORPUS {
        let b = encode(s);
        router.append(b.as_bitstr()).expect("clean append");
        oracle.append(b.as_bitstr()).expect("prefix-free corpus");
    }
    (router, faulty, oracle)
}

fn count_queries() -> Vec<Query> {
    CORPUS
        .iter()
        .map(|s| Query::Count(encode(s)))
        .chain(
            ["example.", "example.org/", "api.", "nosuch."]
                .iter()
                .map(|p| Query::CountPrefix(encode_prefix(p))),
        )
        .collect()
}

/// Every `Some` answer must equal the unsharded oracle's; every `None`
/// must be explained by a miss on a shard the query depends on.
fn assert_answers_match_oracle(queries: &[Query], result: &PartialResult, oracle: &TieredStore) {
    assert_eq!(result.answers.len(), queries.len());
    for (q, a) in queries.iter().zip(&result.answers) {
        match (q, a) {
            (Query::Count(s), Some(Answer::Count(c))) => {
                assert_eq!(*c, oracle.count(s.as_bitstr()), "Count({s:?})");
            }
            (Query::CountPrefix(p), Some(Answer::CountPrefix(c))) => {
                assert_eq!(*c, oracle.count_prefix(p.as_bitstr()), "CountPrefix({p:?})");
            }
            (_, None) => {
                assert!(
                    !result.missing.is_empty(),
                    "unanswered query {q:?} without any miss entry"
                );
            }
            (q, a) => panic!("mismatched query/answer kinds: {q:?} vs {a:?}"),
        }
    }
}

/// Drive the quarantined shard 0 through heal: clear the fault script,
/// then issue probe batches until the circuit closes. Returns batches
/// used.
fn heal_shard_zero(router: &ShardRouter, faulty: &FaultyShard, queries: &[Query]) -> usize {
    faulty.set_script(FaultScript::new());
    for round in 1..=10 {
        let _ = router.query(queries);
        let health = &router.health_report()[0];
        if health.state == HealthState::Healthy {
            assert!(health.recoveries >= 1, "heal must go through a probe");
            return round;
        }
    }
    panic!(
        "shard 0 did not heal within 10 rounds: {:?}",
        router.health_report()[0]
    );
}

#[test]
fn clean_sharded_serving_matches_oracle() {
    let (router, _faulty, oracle) = faulted_fixture(4, Duration::from_secs(5));
    let queries = count_queries();
    let result = router.query(&queries);
    assert!(result.is_complete(), "missing: {:?}", result.missing);
    assert_answers_match_oracle(&queries, &result, &oracle);

    // Access round-trips by DocId through the owning shard.
    let s = encode("example.com/new-doc");
    let doc = router.append(s.as_bitstr()).expect("clean append");
    let access = router.query(&[Query::Access(doc)]);
    assert_eq!(access.answers[0], Some(Answer::Access(Some(s))));
}

#[test]
fn slow_shard_trips_breaker_and_heals() {
    let deadline = Duration::from_millis(40);
    let (router, faulty, oracle) = faulted_fixture(4, deadline);
    // Fault class 1: shard delay > deadline. Three delayed batches trip
    // the breaker (quarantine_errors = 3). Each stall outlasts all three
    // batches and the probe after them by a wide margin.
    let slow = deadline * 8;
    // Appends during the fixture consumed op indices; script relative to
    // the counter's current position.
    let base = faulty.ops_seen();
    faulty.set_script(
        FaultScript::new()
            .delay(base, slow)
            .delay(base + 1, slow)
            .delay(base + 2, slow),
    );

    let queries = count_queries();
    let first_stall = std::time::Instant::now();
    for expected_state in [
        None,                           // 1st timeout: window warming
        Some(HealthState::Degraded),    // 2nd
        Some(HealthState::Quarantined), // 3rd
    ] {
        let result = router.query(&queries);
        assert!(!result.is_complete());
        assert_answers_match_oracle(&queries, &result, &oracle);
        assert!(
            result
                .missing
                .iter()
                .all(|m| m.shard == 0 && m.cause == MissCause::DeadlineExpired),
            "missing: {:?}",
            result.missing
        );
        if let Some(state) = expected_state {
            assert_eq!(router.health_report()[0].state, state);
        }
    }
    assert_eq!(router.health_report()[0].trips, 1);

    // Zero cooldown: the next batch carries the half-open probe, and the
    // unfaulted op after the stalls answers it. The three stalled calls
    // still hold their workers, so the probe must not wait behind them:
    // it closes the circuit and the batch is complete.
    let result = router.query(&queries);
    assert!(
        first_stall.elapsed() < slow,
        "the stalled calls must still be sleeping: {:?}",
        first_stall.elapsed()
    );
    assert!(result.is_complete(), "missing: {:?}", result.missing);
    assert_answers_match_oracle(&queries, &result, &oracle);
    let health = &router.health_report()[0];
    assert_eq!(health.state, HealthState::Healthy);
    assert_eq!((health.probes, health.recoveries), (1, 1));

    let result = router.query(&queries);
    assert!(result.is_complete(), "missing: {:?}", result.missing);
    assert_answers_match_oracle(&queries, &result, &oracle);
}

#[test]
fn panicking_shard_is_contained_and_heals() {
    quiet_injected_panics();
    let (router, faulty, oracle) = faulted_fixture(4, Duration::from_secs(5));
    // Fault class 2: shard panic on every call until cleared (scripted
    // past the op indices the fixture's appends consumed).
    let base = faulty.ops_seen();
    faulty.set_script(
        FaultScript::new()
            .panic(base)
            .panic(base + 1)
            .panic(base + 2)
            .panic(base + 3),
    );

    let queries = count_queries();
    for _ in 0..3 {
        let result = router.query(&queries);
        assert!(!result.is_complete());
        assert_answers_match_oracle(&queries, &result, &oracle);
        for miss in &result.missing {
            assert_eq!(miss.shard, 0);
            match &miss.cause {
                MissCause::Panicked(msg) => assert!(msg.contains("injected panic")),
                other => panic!("expected Panicked, got {other:?}"),
            }
        }
    }
    assert_eq!(router.health_report()[0].state, HealthState::Quarantined);

    heal_shard_zero(&router, &faulty, &queries);
    let result = router.query(&queries);
    assert!(result.is_complete(), "missing: {:?}", result.missing);
    assert_answers_match_oracle(&queries, &result, &oracle);
}

#[test]
fn failing_shard_exhausts_retries_and_heals() {
    let (router, faulty, oracle) = faulted_fixture(4, Duration::from_secs(5));
    // Fault class 3: failed shard ops (every attempt, until cleared) —
    // the retry layer must try again (attempts = 2 consumes two op
    // indices per batch) and then degrade gracefully.
    faulty.set_script(FaultScript::new().fail_from(0));

    let queries = count_queries();
    for _ in 0..3 {
        let result = router.query(&queries);
        assert!(!result.is_complete());
        assert_answers_match_oracle(&queries, &result, &oracle);
        for miss in &result.missing {
            assert_eq!(miss.shard, 0);
            match &miss.cause {
                MissCause::Failed(msg) => assert!(msg.contains("injected failure")),
                other => panic!("expected Failed, got {other:?}"),
            }
        }
    }
    assert_eq!(router.health_report()[0].state, HealthState::Quarantined);
    // Retries happened: more ops consumed than batches issued.
    assert!(faulty.ops_seen() > 3, "ops: {}", faulty.ops_seen());

    heal_shard_zero(&router, &faulty, &queries);
    let result = router.query(&queries);
    assert!(result.is_complete(), "missing: {:?}", result.missing);
    assert_answers_match_oracle(&queries, &result, &oracle);
}

#[test]
fn damaged_generation_quarantines_and_recovers() {
    // Fault class 4: a damaged generation on disk. The shard recovers
    // with the damaged segment quarantined, serves what survived, and a
    // re-save heals the image.
    let fs = MemFs::new();
    let dir = std::path::Path::new("/shard0");
    let mut store = TieredStore::new();
    for s in CORPUS {
        store
            .append(encode(s).as_bitstr())
            .expect("prefix-free corpus");
    }
    store.seal();
    store.save_dir_with(&fs, dir).expect("clean save");

    // Corrupt the sealed segment payload.
    let victim = fs
        .list(dir)
        .expect("listable dir")
        .into_iter()
        .find(|n| n.contains("seg") && n.contains("static"))
        .or_else(|| {
            fs.list(dir)
                .expect("listable dir")
                .into_iter()
                .find(|n| !n.contains("manifest"))
        })
        .expect("a segment file to corrupt");
    let path = dir.join(&victim);
    let mut bytes = fs.read(&path).expect("readable segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs.write(&path, &bytes).expect("corruptible segment");

    let (shard, report) = StoreShard::recover(&fs, dir).expect("recovery serves what survived");
    assert!(
        !report.quarantined.is_empty(),
        "corruption must be detected and quarantined: {report:?}"
    );
    assert!(report.strings_lost > 0);

    // The recovered shard serves the surviving strings behind a router;
    // the oracle is the recovered content itself (sharded serving adds no
    // further loss).
    let survived: Vec<BitString> = shard.snapshot().iter_seq_boxed().collect();
    let mut oracle = TieredStore::new();
    for s in &survived {
        oracle
            .append(s.as_bitstr())
            .expect("recovered set stays prefix-free");
    }
    let shard = Arc::new(shard);
    let router = ShardRouter::new(
        vec![Arc::clone(&shard) as Arc<dyn Shard>],
        test_config(Duration::from_secs(5)),
    );
    let queries: Vec<Query> = CORPUS.iter().map(|s| Query::Count(encode(s))).collect();
    let result = router.query(&queries);
    assert!(result.is_complete(), "missing: {:?}", result.missing);
    assert_answers_match_oracle(&queries, &result, &oracle);

    // Heal the on-disk image: a fresh save commits a new full generation
    // which recovers clean.
    shard.save_dir_with(&fs, dir).expect("healing save");
    let (_healed, report2) = StoreShard::recover(&fs, dir).expect("healed recovery");
    assert!(
        report2.is_clean(),
        "re-saved image must be clean: {report2:?}"
    );
}

#[test]
fn all_shards_quarantined_yields_structured_empty_result() {
    let deadline = Duration::from_secs(5);
    // Wrap EVERY shard in an always-failing FaultyShard.
    let mut members: Vec<Arc<dyn Shard>> = Vec::new();
    let mut handles: Vec<Arc<FaultyShard>> = Vec::new();
    for _ in 0..3 {
        let mut store = TieredStore::new();
        for s in CORPUS {
            store
                .append(encode(s).as_bitstr())
                .expect("prefix-free corpus");
        }
        let f = Arc::new(FaultyShard::new(
            Arc::new(StoreShard::new(store)),
            FaultScript::new().fail_from(0),
        ));
        handles.push(Arc::clone(&f));
        members.push(f as Arc<dyn Shard>);
    }
    // Long cooldown: the point of this test is the fully-open circuit, so
    // no half-open probes may sneak in.
    let mut config = test_config(deadline);
    config.health.probe_cooldown = Duration::from_secs(3600);
    let router = ShardRouter::new(members, config);
    let queries = vec![Query::CountPrefix(encode_prefix("example."))];

    // Trip every breaker.
    for _ in 0..3 {
        let _ = router.query(&queries);
    }
    assert!(router
        .health_report()
        .iter()
        .all(|h| h.state == HealthState::Quarantined));

    // All-quarantined: answers all None, all misses structured, no panic.
    let result = router.query(&queries);
    assert!(result.answers.iter().all(Option::is_none));
    assert!(result.answered_shards.is_empty());
    assert_eq!(result.missing.len(), 3);
    assert!(result
        .missing
        .iter()
        .all(|m| m.cause == MissCause::Quarantined));
}

#[test]
fn deadline_expiring_mid_gather_returns_partial() {
    let deadline = Duration::from_millis(50);
    let (router, faulty, oracle) = faulted_fixture(4, deadline);
    faulty.set_script(FaultScript::new().delay(faulty.ops_seen(), deadline * 4));

    // Mixed batch: single-shard Counts land on every shard, so healthy
    // shards answer while shard 0 sleeps past the budget.
    let queries = count_queries();
    let result = router.query(&queries);
    assert!(!result.is_complete());
    assert_answers_match_oracle(&queries, &result, &oracle);
    assert!(result.missing.iter().all(|m| m.shard == 0));
    assert!(!result.answered_shards.contains(&0));
    assert!(result.answered_shards.len() >= 2, "healthy shards answered");
    // Prefix queries fan out to all shards, so they are unanswered; the
    // Count queries owned by healthy shards must be answered.
    let answered = result.answers.iter().filter(|a| a.is_some()).count();
    assert!(answered > 0, "healthy single-shard answers survive");
}

/// Hostile client input: out-of-range positions, unknown shards, empty and
/// very long keys, proper prefixes of stored keys, and appends that break
/// prefix-freeness on their own shard. Each gets a structured answer,
/// never a panic, and no shard's health pays for it.
#[test]
fn hostile_input_gets_structured_answers() {
    let (router, _faulty, oracle) = faulted_fixture(4, Duration::from_secs(5));

    let result = router.query(&[
        Query::Access(DocId {
            shard: 0,
            pos: u64::MAX,
        }),
        Query::Access(DocId {
            shard: u32::MAX,
            pos: 0,
        }),
    ]);
    assert_eq!(result.answers[0], Some(Answer::Access(None)));
    assert_eq!(result.answers[1], None);
    assert_eq!(
        result.missing,
        vec![ShardMiss {
            shard: u32::MAX,
            cause: MissCause::Failed("no such shard".to_string()),
        }]
    );

    // Keys that equal no stored string: the empty key, a 1M-bit key, and
    // a proper prefix of a stored key (whose prefix count is not zero).
    let stored = encode("example.org/blog/post-1");
    let proper_prefix = BitString::from(stored.sub(0, stored.len() - 1));
    let keys = [
        BitString::new(),
        (0..1usize << 20).map(|i| i % 3 == 0).collect(),
        proper_prefix,
    ];
    let queries: Vec<Query> = keys
        .iter()
        .flat_map(|k| [Query::Count(k.clone()), Query::CountPrefix(k.clone())])
        .collect();
    let result = router.query(&queries);
    assert!(result.is_complete(), "missing: {:?}", result.missing);
    assert_answers_match_oracle(&queries, &result, &oracle);
    assert_eq!(result.answers[1], Some(Answer::CountPrefix(CORPUS.len())));
    assert_eq!(result.answers[4], Some(Answer::Count(0)));
    assert_eq!(
        result.answers[5],
        Some(Answer::CountPrefix(oracle.count(stored.as_bitstr())))
    );

    // Appends that break prefix-freeness against a key on their own
    // shard: a proper prefix of it, and an extension of it.
    let owner = router.shard_for(stored.as_bitstr());
    let prefix = (1..stored.len())
        .map(|len| BitString::from(stored.sub(0, len)))
        .find(|p| router.shard_for(p.as_bitstr()) == owner)
        .expect("some proper prefix hashes to the key's shard");
    let extension = (1..=16)
        .map(|extra| {
            let mut e = stored.clone();
            (0..extra).for_each(|b| e.push(b % 2 == 0));
            e
        })
        .find(|e| router.shard_for(e.as_bitstr()) == owner)
        .expect("some extension hashes to the key's shard");
    let lens: Vec<Option<usize>> = (0..4).map(|t| router.shard_len(t)).collect();
    for bad in [&prefix, &extension] {
        let miss = router.append(bad.as_bitstr()).unwrap_err();
        assert_eq!(miss.shard, owner);
        assert!(matches!(miss.cause, MissCause::Rejected(_)), "{miss:?}");
    }
    assert_eq!(
        lens,
        (0..4).map(|t| router.shard_len(t)).collect::<Vec<_>>()
    );

    let queries = count_queries();
    let result = router.query(&queries);
    assert!(result.is_complete(), "missing: {:?}", result.missing);
    assert_answers_match_oracle(&queries, &result, &oracle);
    for health in router.health_report() {
        assert_eq!(health.state, HealthState::Healthy, "{health:?}");
        assert_eq!(health.trips, 0, "{health:?}");
    }
}
