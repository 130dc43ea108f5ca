//! Batch-vs-scalar equivalence suite.
//!
//! Every `SeqIndex::*_batch` entry point must return **bit-identical**
//! results to the scalar API it accelerates, for every backend: the static
//! Wavelet Trie (software-pipelined group descent), the append-only and
//! fully dynamic tries (default scalar-loop impls), and the tiered store
//! (directory-routed per-segment sub-batches). The suite drives all four
//! through `&dyn SeqIndex` with random, adversarial (all-equal,
//! all-distinct, deep-skewed) and empty/singleton batches.

use wavelet_trie::{
    AppendWaveletTrie, BitStr, BitString, DynamicWaveletTrie, SeqIndex, WaveletTrie,
};
use wt_store::{StoreConfig, TieredStore};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// Fixed-width binary code (prefix-free by construction).
fn encode(v: u64, width: usize) -> BitString {
    BitString::from_bits((0..width).rev().map(move |k| (v >> k) & 1 != 0))
}

/// Deep-skewed prefix-free string: `1^depth 0` + a fixed-width tail.
/// Different depths diverge at position `min(depth)`, same depths at the
/// tail — so arbitrarily deep paths with long shared prefixes.
fn deep(depth: usize, tail: u64) -> BitString {
    let mut s = BitString::new();
    for _ in 0..depth {
        s.push(true);
    }
    s.push(false);
    for k in (0..4).rev() {
        s.push((tail >> k) & 1 != 0);
    }
    s
}

/// All four backends over the same sequence, behind the object-safe trait.
fn backends(seq: &[BitString]) -> Vec<(&'static str, Box<dyn SeqIndex>)> {
    let stat = WaveletTrie::build(seq).expect("prefix-free");
    let mut app = AppendWaveletTrie::new();
    let mut dynamic = DynamicWaveletTrie::new();
    for s in seq {
        app.append(s.as_bitstr()).unwrap();
        dynamic.append(s.as_bitstr()).unwrap();
    }
    // Small segments so the tiered store mixes several sealed segments
    // with a non-empty hot tail.
    let mut tiered = TieredStore::with_config(StoreConfig {
        seal_at: (seq.len() / 5).max(4),
        max_sealed: 3,
    });
    for s in seq {
        tiered.append(s.as_bitstr()).unwrap();
    }
    vec![
        ("static", Box::new(stat)),
        ("append", Box::new(app)),
        ("dynamic", Box::new(dynamic)),
        ("tiered", Box::new(tiered)),
    ]
}

/// Asserts every batched op equals its scalar counterpart on this backend.
fn check_equivalence(
    name: &str,
    idx: &dyn SeqIndex,
    positions: &[usize],
    queries: &[(BitStr<'_>, usize)],
    sel: &[(BitStr<'_>, usize)],
    prefixes: &[BitStr<'_>],
) {
    let got = idx.access_batch(positions);
    assert_eq!(got.len(), positions.len());
    for (k, &p) in positions.iter().enumerate() {
        assert_eq!(got[k], idx.access(p), "{name}: access lane {k} (pos {p})");
    }
    let got = idx.rank_batch(queries);
    for (k, &(s, pos)) in queries.iter().enumerate() {
        assert_eq!(got[k], idx.rank(s, pos), "{name}: rank lane {k}");
    }
    let got = idx.select_batch(sel);
    for (k, &(s, i)) in sel.iter().enumerate() {
        assert_eq!(got[k], idx.select(s, i), "{name}: select lane {k}");
    }
    let got = idx.count_prefix_batch(prefixes);
    for (k, &p) in prefixes.iter().enumerate() {
        assert_eq!(got[k], idx.count_prefix(p), "{name}: count_prefix lane {k}");
    }
}

#[test]
fn random_batches_across_backends() {
    let mut next = xorshift(0xBA7C4);
    let seq: Vec<BitString> = (0..1500).map(|_| encode(next() % 120, 10)).collect();
    let n = seq.len();
    // Probe strings: mostly present, some absent (codes past the alphabet).
    let probes: Vec<BitString> = (0..300).map(|_| encode(next() % 180, 10)).collect();
    for (name, idx) in backends(&seq) {
        // Batch sizes spanning the pipeline's 64-lane chunking.
        for &bs in &[1usize, 3, 64, 300] {
            let positions: Vec<usize> = (0..bs).map(|_| (next() % n as u64) as usize).collect();
            let queries: Vec<(BitStr<'_>, usize)> = (0..bs)
                .map(|k| {
                    (
                        probes[k % probes.len()].as_bitstr(),
                        (next() % (n as u64 + 1)) as usize,
                    )
                })
                .collect();
            let sel: Vec<(BitStr<'_>, usize)> = (0..bs)
                .map(|k| (probes[k % probes.len()].as_bitstr(), (next() % 30) as usize))
                .collect();
            let prefixes: Vec<BitStr<'_>> = (0..bs)
                .map(|k| {
                    let p = &probes[k % probes.len()];
                    p.as_bitstr().prefix((next() % 11) as usize)
                })
                .collect();
            check_equivalence(name, idx.as_ref(), &positions, &queries, &sel, &prefixes);
        }
    }
}

#[test]
fn adversarial_batches() {
    let mut next = xorshift(0xAD7E5);
    // Mix fixed-width values with deep-skewed strings.
    let mut seq: Vec<BitString> = (0..600).map(|_| encode(next() % 40, 8)).collect();
    for d in 0..50 {
        seq.push(deep(d + 8, next() % 16));
    }
    let n = seq.len();
    let deep_probe = deep(30, 3);
    let absent_deep = deep(200, 0); // deeper than anything stored
    for (name, idx) in backends(&seq) {
        // All-equal batch: every lane asks the same query.
        let positions = vec![n / 2; 128];
        let queries: Vec<(BitStr<'_>, usize)> = vec![(deep_probe.as_bitstr(), n); 128];
        let sel: Vec<(BitStr<'_>, usize)> = vec![(deep_probe.as_bitstr(), 0); 128];
        let prefixes: Vec<BitStr<'_>> = vec![deep_probe.as_bitstr().prefix(20); 128];
        check_equivalence(name, idx.as_ref(), &positions, &queries, &sel, &prefixes);
        // All-distinct batch: every lane a different position / string.
        let positions: Vec<usize> = (0..n).step_by(7).collect();
        let queries: Vec<(BitStr<'_>, usize)> = seq
            .iter()
            .step_by(11)
            .enumerate()
            .map(|(k, s)| (s.as_bitstr(), (k * 13) % (n + 1)))
            .collect();
        let sel: Vec<(BitStr<'_>, usize)> = seq
            .iter()
            .step_by(11)
            .enumerate()
            .map(|(k, s)| (s.as_bitstr(), k % 25))
            .collect();
        let prefixes: Vec<BitStr<'_>> = seq
            .iter()
            .step_by(11)
            .enumerate()
            .map(|(k, s)| s.as_bitstr().prefix(k % (s.len() + 1)))
            .collect();
        check_equivalence(name, idx.as_ref(), &positions, &queries, &sel, &prefixes);
        // Deep-skewed absent queries and out-of-range select indexes.
        let queries: Vec<(BitStr<'_>, usize)> = vec![(absent_deep.as_bitstr(), n); 64];
        let sel: Vec<(BitStr<'_>, usize)> = (0..64)
            .map(|k| (deep_probe.as_bitstr(), n + k)) // always out of range
            .collect();
        let prefixes: Vec<BitStr<'_>> = vec![absent_deep.as_bitstr(); 64];
        check_equivalence(name, idx.as_ref(), &[], &queries, &sel, &prefixes);
    }
}

#[test]
fn empty_and_singleton_batches() {
    let mut next = xorshift(0x51461);
    let seq: Vec<BitString> = (0..200).map(|_| encode(next() % 9, 6)).collect();
    let present = seq[0].clone();
    for (name, idx) in backends(&seq) {
        // Empty batches on every op.
        assert!(idx.access_batch(&[]).is_empty(), "{name}");
        assert!(idx.rank_batch(&[]).is_empty(), "{name}");
        assert!(idx.select_batch(&[]).is_empty(), "{name}");
        assert!(idx.count_prefix_batch(&[]).is_empty(), "{name}");
        // Singleton batches.
        check_equivalence(
            name,
            idx.as_ref(),
            &[0],
            &[(present.as_bitstr(), 1)],
            &[(present.as_bitstr(), 0)],
            &[present.as_bitstr().prefix(0)], // empty prefix matches all
        );
    }
    // Degenerate sequences: a single string, and the empty-string-only set
    // (a root leaf with an empty label).
    for seq in [vec![encode(5, 6)], vec![BitString::new(); 4]] {
        let probe = seq[0].clone();
        for (name, idx) in backends(&seq) {
            let positions: Vec<usize> = (0..seq.len()).collect();
            check_equivalence(
                name,
                idx.as_ref(),
                &positions,
                &[(probe.as_bitstr(), seq.len()), (probe.as_bitstr(), 0)],
                &[(probe.as_bitstr(), 0), (probe.as_bitstr(), seq.len())],
                &[probe.as_bitstr(), probe.as_bitstr().prefix(0)],
            );
        }
    }
}

#[test]
fn empty_sequence_batches() {
    let seq: Vec<BitString> = Vec::new();
    let probe = encode(3, 6);
    for (name, idx) in backends(&seq) {
        assert!(idx.access_batch(&[]).is_empty(), "{name}");
        assert_eq!(idx.rank_batch(&[(probe.as_bitstr(), 0)]), vec![0], "{name}");
        assert_eq!(
            idx.select_batch(&[(probe.as_bitstr(), 0)]),
            vec![None],
            "{name}"
        );
        assert_eq!(
            idx.count_prefix_batch(&[probe.as_bitstr()]),
            vec![0],
            "{name}"
        );
    }
}
