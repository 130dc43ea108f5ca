//! Free-running concurrent stress: N reader threads hammering snapshots
//! with `access` / `rank` / `select` / `count_prefix_batch` while the
//! writer appends, edits, seals, compacts and saves — every read checked
//! bit-identical against the frozen oracle recorded for that snapshot's
//! epoch version.
//!
//! Protocol: the writer records `version -> contents` into a shared map
//! immediately after each publish (same thread, so the recorded contents
//! are exactly the published state); readers that observe a version
//! before its oracle lands briefly spin for it. Readers never block the
//! writer and vice versa beyond that map lock.
//!
//! Runs in debug and release (the CI concurrency lane runs both).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

use wavelet_trie::SeqIndex;
use wt_bits::MemFs;
use wt_store::{StoreConfig, TieredStore};
use wt_trie::{BitStr, BitString};
use wt_workloads::xorshift;

fn encode(v: u64) -> BitString {
    BitString::from_bits((0..10).rev().map(move |k| (v >> k) & 1 != 0))
}

fn prefix4(v: u64) -> BitString {
    BitString::from_bits((0..4).rev().map(move |k| (v >> k) & 1 != 0))
}

fn contents(idx: &dyn SeqIndex) -> Vec<BitString> {
    idx.iter_seq_boxed().collect()
}

const READERS: usize = 4;
const ROUNDS: u64 = 60;

#[test]
fn readers_stay_bit_identical_under_concurrent_maintenance() {
    let mut st = TieredStore::with_config(StoreConfig {
        seal_at: 64,
        max_sealed: 3,
    });
    let reader = st.reader();
    let mem = MemFs::new();
    let dir = std::path::Path::new("/stress");

    // version -> frozen contents at that publish (version 0 = empty).
    let oracle: RwLock<HashMap<u64, Vec<BitString>>> = RwLock::new(HashMap::new());
    oracle.write().unwrap().insert(0, Vec::new());
    let done = AtomicBool::new(false);
    let checks = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                let reader = reader.clone();
                let oracle = &oracle;
                let done = &done;
                let checks = &checks;
                scope.spawn(move || {
                    // Per-thread seed: access patterns differ, replays are stable.
                    let mut next = xorshift(0x5EED ^ (r as u64) << 17 | 1);
                    let mut last_version = 0u64;
                    while !done.load(Ordering::Acquire) {
                        let snap = reader.snapshot();
                        let v = snap.version();
                        assert!(v >= last_version, "reader {r}: version regressed");
                        last_version = v;
                        // Spin until the writer's oracle for v lands (it is
                        // recorded right after the publish we just saw).
                        let state = loop {
                            if let Some(s) = oracle.read().unwrap().get(&v) {
                                break s.clone();
                            }
                            std::thread::yield_now();
                        };
                        assert_eq!(snap.len(), state.len(), "reader {r} v{v}: len");
                        if state.is_empty() {
                            continue;
                        }
                        // access
                        let pos = (next() as usize) % state.len();
                        assert_eq!(snap.access(pos), state[pos], "reader {r} v{v}: access");
                        // rank at a random bound
                        let probe = state[(next() as usize) % state.len()].clone();
                        let s = probe.as_bitstr();
                        let bound = (next() as usize) % (state.len() + 1);
                        let want = state[..bound].iter().filter(|t| t.as_bitstr() == s).count();
                        assert_eq!(snap.rank(s, bound), want, "reader {r} v{v}: rank");
                        // select of a random occurrence
                        let total = state.iter().filter(|t| t.as_bitstr() == s).count();
                        let idx = (next() as usize) % total;
                        let want = state
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| t.as_bitstr() == s)
                            .nth(idx)
                            .map(|(i, _)| i);
                        assert_eq!(snap.select(s, idx), want, "reader {r} v{v}: select");
                        // count_prefix_batch over a handful of 4-bit prefixes
                        let prefixes: Vec<BitString> =
                            (0..8).map(|k| prefix4(next() ^ k)).collect();
                        let refs: Vec<BitStr<'_>> =
                            prefixes.iter().map(|p| p.as_bitstr()).collect();
                        let want: Vec<usize> = refs
                            .iter()
                            .map(|&p| {
                                state
                                    .iter()
                                    .filter(|t| t.as_bitstr().lcp(&p) == p.len())
                                    .count()
                            })
                            .collect();
                        assert_eq!(
                            snap.count_prefix_batch(&refs),
                            want,
                            "reader {r} v{v}: count_prefix_batch"
                        );
                        checks.fetch_add(1, Ordering::Relaxed);
                    }
                    last_version
                })
            })
            .collect();

        // The writer: append batches, periodic middle edits, and every
        // few rounds a full maintenance pass (seal + compact + save).
        let mut next = 0u64;
        for round in 0..ROUNDS {
            for _ in 0..9 {
                st.append(encode(next % 97).as_bitstr()).unwrap();
                next += 1;
            }
            if round % 5 == 2 && st.len() > 10 {
                st.insert(encode(next % 97).as_bitstr(), 3).unwrap();
                st.delete(st.len() / 3);
            }
            let version = if round % 6 == 5 {
                let report = if round % 12 == 11 {
                    st.maintain_with(&wt_store::Maintenance {
                        save_to: Some((&mem, dir)),
                        ..Default::default()
                    })
                } else {
                    st.maintain()
                };
                assert!(report.is_clean(), "round {round}: {report}");
                report.published.unwrap()
            } else {
                st.publish().version()
            };
            oracle.write().unwrap().insert(version, contents(&st));
        }
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().expect("reader thread panicked");
        }
    });

    assert!(
        checks.load(Ordering::Relaxed) > 0,
        "readers never completed a verification pass"
    );
    // The saved image loads back to some published oracle state.
    let loaded = TieredStore::load_dir_with(&mem, dir).expect("stress save must be loadable");
    let got = contents(&loaded);
    let map = oracle.read().unwrap();
    assert!(
        map.values().any(|state| *state == got),
        "loaded state matches no published oracle"
    );
}
