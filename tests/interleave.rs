//! Deterministic interleave harness for concurrent serving: the proof
//! artifact of the epoch-swap + panic-contained-maintenance design.
//!
//! Three enumerations, mirroring `crash_points.rs` for the in-process
//! half of the story:
//!
//! 1. **A forced panic at every maintenance step.** A probe counts
//!    `MaintenanceStep` callbacks and panics at exactly the k-th, for
//!    every k in a clean run's step sequence (freeze, install, merge,
//!    save, publish — serial worker so the sequence is deterministic).
//!    After each: no panic escapes, exactly that step is reported failed,
//!    the previously published snapshot answers bit-identically to its
//!    capture-time oracle, readers see the old or the new epoch (never a
//!    torn one), the store remains fully serviceable, and a follow-up
//!    clean maintenance converges.
//! 2. **An I/O fault at every save operation.** `FaultStorage` kills the
//!    maintenance-save at operation k for every k; the in-memory store
//!    and served epochs are unaffected and the directory stays loadable
//!    as the old image or the new one.
//! 3. **A reader in lockstep at every epoch-swap boundary.** A scripted
//!    writer alternates mutation batches, explicit publishes and full
//!    maintenance passes; a reader thread samples the epoch slot at every
//!    boundary (barrier-synchronized, so every ordering around every swap
//!    is exercised) and checks each observed snapshot equals the oracle
//!    state recorded for its version — and that every retained snapshot
//!    still matches its oracle at the end.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Barrier, Mutex, Once};
use std::time::{Duration, Instant};

use wavelet_trie::SeqIndex;
use wt_bits::{FaultPlan, FaultStorage, MemFs, RetryPolicy};
use wt_store::{
    Maintenance, MaintenanceProbe, MaintenanceStep, StoreConfig, StoreSnapshot, TieredStore,
};
use wt_trie::{BitStr, BitString};

fn encode(v: u64) -> BitString {
    BitString::from_bits((0..10).rev().map(move |k| (v >> k) & 1 != 0))
}

/// Injected panics are expected by the dozen here; keep them out of the
/// test output while still printing anything unexpected.
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

/// A store exercising every maintenance step kind — four sealed segments
/// (over the `max_sealed = 2` bound, so merges are pending), two melted
/// middles and a non-empty hot tail — built without auto-rolls
/// (`seal_at` out of reach) so the shape is exact and deterministic.
fn loaded_store() -> TieredStore {
    let mut st = TieredStore::with_config(StoreConfig {
        seal_at: 1000,
        max_sealed: 2,
    });
    for chunk in 0..4u64 {
        for i in 0..12u64 {
            st.append(encode((chunk * 12 + i) % 29).as_bitstr())
                .unwrap();
        }
        st.seal();
    }
    // Melt segments 0 and 2 so maintenance has multiple freezes to do.
    st.insert(encode(40).as_bitstr(), 4).unwrap();
    st.insert(encode(41).as_bitstr(), 30).unwrap();
    for i in 0..5u64 {
        st.append(encode(50 + i).as_bitstr()).unwrap();
    }
    assert_eq!(st.sealed_segments(), 2);
    assert_eq!(st.num_segments(), 5);
    st
}

fn contents(idx: &dyn SeqIndex) -> Vec<BitString> {
    idx.iter_seq_boxed().collect()
}

fn naive_count(oracle: &[BitString], s: BitStr<'_>) -> usize {
    oracle.iter().filter(|t| t.as_bitstr() == s).count()
}

fn naive_count_prefix(oracle: &[BitString], p: BitStr<'_>) -> usize {
    oracle
        .iter()
        .filter(|t| t.as_bitstr().lcp(&p) == p.len())
        .count()
}

/// Full bit-identity check of a snapshot against a plain-vector oracle:
/// contents, point queries, prefix queries, and the batch kernels.
fn assert_matches_oracle(snap: &StoreSnapshot, oracle: &[BitString], ctx: &str) {
    assert_eq!(snap.len(), oracle.len(), "{ctx}: len");
    assert_eq!(contents(snap), oracle, "{ctx}: contents");
    let positions: Vec<usize> = (0..oracle.len()).step_by(3).collect();
    let want: Vec<BitString> = positions.iter().map(|&p| oracle[p].clone()).collect();
    assert_eq!(snap.access_batch(&positions), want, "{ctx}: access_batch");
    for probe in [encode(0), encode(7), encode(28), encode(40), encode(99)] {
        let s = probe.as_bitstr();
        assert_eq!(snap.count(s), naive_count(oracle, s), "{ctx}: count");
        let mid = oracle.len() / 2;
        assert_eq!(
            snap.rank(s, mid),
            naive_count(&oracle[..mid], s),
            "{ctx}: rank"
        );
        let idx = snap.count(s).saturating_sub(1);
        let want = oracle
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_bitstr() == s)
            .nth(idx)
            .map(|(i, _)| i);
        assert_eq!(snap.select(s, idx), want, "{ctx}: select");
    }
    let prefixes: Vec<BitString> = (0..4u64)
        .map(|v| BitString::from_bits((0..4).rev().map(move |k| (v >> k) & 1 != 0)))
        .collect();
    let refs: Vec<BitStr<'_>> = prefixes.iter().map(|p| p.as_bitstr()).collect();
    let want: Vec<usize> = refs
        .iter()
        .map(|&p| naive_count_prefix(oracle, p))
        .collect();
    assert_eq!(snap.count_prefix_batch(&refs), want, "{ctx}: count_prefix");
}

/// Probe that panics at exactly the `at`-th step callback (0-based).
struct PanicAt {
    countdown: AtomicI64,
}

impl PanicAt {
    fn new(at: usize) -> Self {
        PanicAt {
            countdown: AtomicI64::new(at as i64),
        }
    }
}

impl MaintenanceProbe for PanicAt {
    fn step(&self, step: MaintenanceStep) {
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 0 {
            panic!("injected panic at {step}");
        }
    }
}

/// Probe that records the step sequence.
#[derive(Default)]
struct Recorder(Mutex<Vec<MaintenanceStep>>);

impl MaintenanceProbe for Recorder {
    fn step(&self, step: MaintenanceStep) {
        self.0.lock().unwrap().push(step);
    }
}

/// Single-pass, no-sleep maintenance options (deterministic step order;
/// retries are exercised separately).
fn one_pass<'a>(probe: &'a dyn MaintenanceProbe) -> Maintenance<'a> {
    Maintenance {
        retry: RetryPolicy {
            attempts: 1,
            base_backoff: Duration::ZERO,
            max_elapsed: None,
            jitter: None,
        },
        save_to: None,
        probe,
    }
}

#[test]
fn maintenance_panic_at_every_step_leaves_readers_unharmed() {
    quiet_injected_panics();
    // Enumerate the clean run's deterministic step sequence.
    let recorder = Recorder::default();
    let steps: Vec<MaintenanceStep> = {
        let mut st = loaded_store();
        let report = st.maintain_with(&one_pass(&recorder));
        assert!(report.is_clean(), "clean run must not fail: {report}");
        assert!(report.sealed >= 3, "expected several freezes: {report}");
        assert!(report.merged >= 1, "expected at least one merge: {report}");
        recorder.0.into_inner().unwrap()
    };
    assert!(steps.len() >= 8, "step enumeration too small: {steps:?}");

    for (k, &expected_step) in steps.iter().enumerate() {
        let ctx = format!("panic at step {k} ({expected_step})");
        let mut st = loaded_store();
        let oracle = contents(&st);
        let baseline = st.publish();
        let baseline_segs = baseline.num_segments();
        let reader = st.reader();

        let probe = PanicAt::new(k);
        let report = st.maintain_with(&one_pass(&probe));

        // Exactly the k-th step failed; the panic never escaped.
        assert_eq!(report.failures.len(), 1, "{ctx}: {report}");
        assert_eq!(report.failures[0].step(), expected_step, "{ctx}");
        let publish_failed = matches!(expected_step, MaintenanceStep::Publish);
        assert_eq!(report.published.is_none(), publish_failed, "{ctx}");

        // The pre-maintenance snapshot is bit-identical to its oracle,
        // including its segment structure.
        assert_matches_oracle(&baseline, &oracle, &ctx);
        assert_eq!(baseline.num_segments(), baseline_segs, "{ctx}: frozen");
        assert_eq!(baseline.version(), 1, "{ctx}");

        // Readers see the old epoch or the new one — both serve the same
        // sequence (maintenance only reorganizes) — and no poisoned lock
        // or panic is observable from any query.
        let now = reader.snapshot();
        if publish_failed {
            assert_eq!(now.version(), 1, "{ctx}: must still serve old epoch");
        } else {
            assert_eq!(now.version(), 2, "{ctx}: new epoch");
        }
        assert_matches_oracle(&now, &oracle, &ctx);

        // The store itself is untorn and fully serviceable...
        assert_eq!(contents(&st), oracle, "{ctx}: live store");
        st.append(encode(50).as_bitstr()).unwrap();
        assert_eq!(st.access(st.len() - 1), encode(50), "{ctx}");

        // ...and a clean follow-up maintenance converges.
        let retry = st.maintain();
        assert!(retry.is_clean(), "{ctx}: follow-up failed: {retry}");
        assert!(
            st.sealed_segments() <= 2,
            "{ctx}: compaction did not converge: {:?}",
            st.segment_lens()
        );
        let mut healed = oracle.clone();
        healed.push(encode(50));
        assert_matches_oracle(&reader.snapshot(), &healed, &ctx);
    }
}

#[test]
fn retrying_maintenance_recovers_from_a_transient_panic() {
    quiet_injected_panics();
    let mut st = loaded_store();
    let oracle = contents(&st);
    let reader = st.reader();
    // Panics once at the first step; every later step (and the whole
    // retry pass) succeeds.
    let probe = PanicAt::new(0);
    let report = st.maintain_with(&Maintenance {
        retry: RetryPolicy {
            attempts: 3,
            base_backoff: Duration::ZERO,
            max_elapsed: None,
            jitter: None,
        },
        save_to: None,
        probe: &probe,
    });
    assert_eq!(report.passes, 2, "one failing pass + one clean: {report}");
    assert_eq!(report.failures.len(), 1, "{report}");
    assert!(report.published.is_some(), "{report}");
    assert!(st.sealed_segments() <= 2, "{:?}", st.segment_lens());
    assert_matches_oracle(&reader.snapshot(), &oracle, "after retry");
}

/// Probe that panics at every step, so every pass fails.
struct AlwaysPanic;

impl MaintenanceProbe for AlwaysPanic {
    fn step(&self, step: MaintenanceStep) {
        panic!("injected panic at {step}");
    }
}

#[test]
fn maintenance_retries_sleep_by_the_jittered_schedule() {
    quiet_injected_panics();
    let mut st = loaded_store();
    // A seed whose second sleep, drawn from [20, 60] ms, is long: the
    // plain exponential ladder would sleep 20 + 40 ms instead.
    let retry = (1..)
        .map(|seed| RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(20),
            max_elapsed: None,
            jitter: Some(seed),
        })
        .find(|p| p.backoffs().nth(1).unwrap() >= Duration::from_millis(55))
        .unwrap();
    let slept: Duration = retry.backoffs().take(2).sum();
    let started = Instant::now();
    let report = st.maintain_with(&Maintenance {
        retry,
        probe: &AlwaysPanic,
        ..Maintenance::default()
    });
    let elapsed = started.elapsed();
    assert_eq!(report.passes, 3, "{report}");
    assert!(elapsed >= slept, "{elapsed:?} < {slept:?}");
}

#[test]
fn maintenance_save_fault_at_every_io_op_is_old_or_new() {
    let mem = MemFs::new();
    let dir = std::path::Path::new("/store");

    // Commit an *old* image, then mutate so old and new states differ.
    let mut st = loaded_store();
    st.save_dir_with(&mem, dir).unwrap();
    let old_oracle = contents(&st);
    for i in 0..10u64 {
        st.append(encode(60 + i).as_bitstr()).unwrap();
    }
    let new_oracle = contents(&st);
    let baseline = st.publish();

    // Count the ops of a clean maintenance-save on a throwaway fork.
    let clean_ops = {
        let fork = mem.fork();
        let mut probe_st = st.clone();
        let fault = FaultStorage::new(&fork, FaultPlan::default());
        let report = probe_st.maintain_with(&Maintenance {
            save_to: Some((&fault, dir)),
            ..one_pass(&wt_store::NoProbe)
        });
        assert!(report.is_clean(), "clean save failed: {report}");
        assert!(report.saved, "{report}");
        fault.ops()
    };
    assert!(clean_ops >= 8, "save should take many ops: {clean_ops}");

    for k in 0..clean_ops {
        let ctx = format!("save fault at op {k}");
        let fork = mem.fork();
        let mut st_k = st.clone();
        let reader = st_k.reader();
        let fault = FaultStorage::new(
            &fork,
            FaultPlan {
                fail_from: Some(k),
                torn_writes: true,
                seed: 0xA11CE ^ k,
                ..FaultPlan::default()
            },
        );
        let report = st_k.maintain_with(&Maintenance {
            save_to: Some((&fault, dir)),
            ..one_pass(&wt_store::NoProbe)
        });

        // The save step failed (as an error, not a panic) — unless the
        // fault landed in the post-commit best-effort sweep, in which
        // case the save correctly still counts as committed.
        assert!(fault.fired(), "{ctx}: fault did not trigger");
        if report.is_clean() {
            assert!(report.saved, "{ctx}: clean report must mean committed");
        } else {
            assert_eq!(report.failures.len(), 1, "{ctx}: {report}");
            assert_eq!(report.failures[0].step(), MaintenanceStep::Save, "{ctx}");
            assert!(!report.saved, "{ctx}");
        }

        // Served state is never perturbed by a failed save: the epoch
        // published by the same (partially failed) pass and the baseline
        // snapshot both still answer exactly.
        assert_eq!(contents(&st_k), new_oracle, "{ctx}: live store");
        assert_matches_oracle(&reader.snapshot(), &new_oracle, &ctx);
        assert_matches_oracle(&baseline, &new_oracle, &ctx);

        // The directory is the old committed image or the new one — a
        // torn save must never produce a third loadable state.
        let loaded = TieredStore::load_dir_with(&fork, dir).unwrap_or_else(|e| {
            panic!("{ctx}: directory must stay loadable, got {e}");
        });
        let got = contents(&loaded);
        assert!(
            got == old_oracle || got == new_oracle,
            "{ctx}: loaded a third state ({} strings)",
            got.len()
        );
    }
}

#[test]
fn lockstep_reader_observes_only_prefix_consistent_epochs() {
    let mut st = TieredStore::with_config(StoreConfig {
        seal_at: 16,
        max_sealed: 3,
    });
    let reader = st.reader();
    // version -> oracle contents at that publish. Version 0 is the
    // construction epoch (empty store).
    let oracle: Mutex<HashMap<u64, Vec<BitString>>> = Mutex::new(HashMap::new());
    oracle.lock().unwrap().insert(0, Vec::new());

    const ROUNDS: u64 = 16;
    let barrier = Barrier::new(2);

    std::thread::scope(|scope| {
        let observer = scope.spawn(|| {
            let mut retained: Vec<StoreSnapshot> = Vec::new();
            for _ in 0..ROUNDS {
                barrier.wait(); // writer has published + recorded
                let snap = reader.snapshot();
                let map = oracle.lock().unwrap();
                let state = map
                    .get(&snap.version())
                    .unwrap_or_else(|| panic!("unknown epoch v{}", snap.version()));
                assert_matches_oracle(&snap, state, &format!("observer v{}", snap.version()));
                drop(map);
                retained.push(snap);
                barrier.wait(); // release the writer for the next round
            }
            retained
        });

        let mut next = 1u64;
        for round in 0..ROUNDS {
            // Mutation batch: appends, plus periodic edits and deletes.
            for _ in 0..7 {
                st.append(encode(next % 61).as_bitstr()).unwrap();
                next += 1;
            }
            if round % 3 == 1 && st.len() > 4 {
                st.insert(encode(next % 61).as_bitstr(), 2).unwrap();
                st.delete(st.len() / 2);
            }
            // Publish point: plain swap or a full maintenance pass.
            let version = if round % 4 == 3 {
                let report = st.maintain();
                assert!(report.is_clean(), "round {round}: {report}");
                report.published.unwrap()
            } else {
                st.publish().version()
            };
            oracle.lock().unwrap().insert(version, contents(&st));
            barrier.wait(); // boundary: observer samples here
            barrier.wait(); // observer done; safe to mutate again
        }

        // Every retained snapshot must still match its capture-time
        // oracle after the full schedule of later mutation.
        let retained = observer.join().unwrap();
        assert_eq!(retained.len(), ROUNDS as usize);
        let map = oracle.lock().unwrap();
        for snap in &retained {
            let state = &map[&snap.version()];
            assert_matches_oracle(snap, state, &format!("retained v{}", snap.version()));
        }
        // The observer saw a monotone, prefix-consistent version history.
        let versions: Vec<u64> = retained.iter().map(|s| s.version()).collect();
        assert!(
            versions.windows(2).all(|w| w[0] <= w[1]),
            "versions regressed: {versions:?}"
        );
    });
}
