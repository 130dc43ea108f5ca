//! Deep-segment oracle suite.
//!
//! The file keeps the name of the path-decomposition oracle it grew out
//! of. That representation is retired: every sealed segment, the deep and
//! mostly-distinct ones it once served included, is now a level-order
//! [`WaveletTrie`] answered by the grouped batch kernels. The same oracles
//! now check what replaced it. On every trie shape (random, all-equal,
//! all-distinct, deep-skewed, empty, singleton), a reloaded trie and a
//! store sealing the shape in segments must answer every `SeqIndex`
//! operation — scalar, prefix, range-analytic and batched —
//! **bit-identically** to the trie built from the whole sequence. A store
//! whose segments split between shallow duplication-heavy and deep
//! all-distinct halves must stay exact through seal, melt, compaction,
//! save/load and recovery.

use wavelet_trie::{BitStr, BitString, SeqIndex, WaveletTrie};
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

/// Deep-skewed prefix-free string: `1^depth 0` + a 4-bit tail.
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

/// The sequence shapes the oracle runs over: random (mixed fanout),
/// all-equal (a single root leaf), all-distinct (one leaf per string),
/// deep-skewed (long dependent descents), empty and singleton.
fn shapes() -> Vec<(&'static str, Vec<BitString>)> {
    let mut next = xorshift(0x9D_0DE1);
    let random: Vec<BitString> = (0..1200).map(|_| encode(next() % 90, 9)).collect();
    let all_equal = vec![encode(5, 7); 400];
    let all_distinct: Vec<BitString> = (0..700).map(|v| encode(v, 12)).collect();
    let mut deep_skewed: Vec<BitString> = (0..80).map(|d| deep(d, next() % 16)).collect();
    deep_skewed.extend((0..400).map(|_| deep((next() % 60) as usize, next() % 16)));
    vec![
        ("random", random),
        ("all_equal", all_equal),
        ("all_distinct", all_distinct),
        ("deep_skewed", deep_skewed),
        ("empty", Vec::new()),
        ("singleton", vec![encode(3, 5)]),
    ]
}

/// Probe strings for a shape: every distinct stored string plus absent
/// cousins (bit-flipped tails, extensions, truncations).
fn probes(seq: &[BitString]) -> Vec<BitString> {
    let mut out: Vec<BitString> = seq.to_vec();
    out.sort();
    out.dedup();
    let stored = out.len();
    for i in 0..stored.min(40) {
        let s = out[i].clone();
        if !s.is_empty() {
            // Flip the last bit: shares the whole path except the leaf arc.
            let mut flipped = BitString::from_bits(s.iter().take(s.len() - 1));
            flipped.push(!s.get(s.len() - 1));
            out.push(flipped);
            // Strict extension: descends past a leaf.
            let mut ext = s.clone();
            ext.push(true);
            out.push(ext);
        }
    }
    out.push(deep(300, 0)); // deeper than anything stored
    out.push(BitString::new());
    out
}

/// Full-surface bit-identity: `got` must match `want` (a wavelet trie
/// built from the whole sequence) on every operation.
fn assert_same_index(name: &str, want: &dyn SeqIndex, got: &dyn SeqIndex, seq: &[BitString]) {
    let n = want.seq_len();
    assert_eq!(got.seq_len(), n, "{name}: len");
    assert_eq!(got.seq_is_empty(), want.seq_is_empty(), "{name}");

    for i in 0..n {
        assert_eq!(got.access(i), want.access(i), "{name}: access({i})");
    }

    let probes = probes(seq);
    let positions = [0, n / 3, n / 2, n.saturating_sub(1), n];
    for p in &probes {
        let s = p.as_bitstr();
        assert_eq!(got.admits(s), want.admits(s), "{name}: admits({p:?})");
        for &pos in &positions {
            assert_eq!(
                got.rank(s, pos),
                want.rank(s, pos),
                "{name}: rank({p:?},{pos})"
            );
            assert_eq!(
                got.rank_prefix(s, pos),
                want.rank_prefix(s, pos),
                "{name}: rank_prefix({p:?},{pos})"
            );
        }
        assert_eq!(got.count(s), want.count(s), "{name}: count({p:?})");
        assert_eq!(
            got.count_prefix(s),
            want.count_prefix(s),
            "{name}: count_prefix({p:?})"
        );
        let total = want.count(s);
        for k in [0, total / 2, total.saturating_sub(1), total, total + 3] {
            assert_eq!(
                got.select(s, k),
                want.select(s, k),
                "{name}: select({p:?},{k})"
            );
        }
        let ptotal = want.count_prefix(s);
        for k in [0, ptotal / 2, ptotal.saturating_sub(1), ptotal] {
            assert_eq!(
                got.select_prefix(s, k),
                want.select_prefix(s, k),
                "{name}: select_prefix({p:?},{k})"
            );
        }
        // Prefix truncations exercise mid-path and mid-label stops.
        for cut in [0, p.len() / 2, p.len().saturating_sub(1)] {
            let q = s.prefix(cut);
            assert_eq!(
                got.count_prefix(q),
                want.count_prefix(q),
                "{name}: count_prefix({p:?}[..{cut}])"
            );
            assert_eq!(
                got.select_prefix(q, 0),
                want.select_prefix(q, 0),
                "{name}: select_prefix({p:?}[..{cut}], 0)"
            );
        }
    }

    // Range analytics (§5) over a few windows.
    for (l, r) in [(0, n), (n / 4, 3 * n / 4), (n / 2, n / 2), (0, n / 10)] {
        assert_eq!(
            got.distinct_in_range(l, r),
            want.distinct_in_range(l, r),
            "{name}: distinct [{l},{r})"
        );
        assert_eq!(
            got.range_majority(l, r),
            want.range_majority(l, r),
            "{name}: majority [{l},{r})"
        );
        let t = 1 + (r - l) / 16;
        assert_eq!(
            got.range_frequent(l, r, t),
            want.range_frequent(l, r, t),
            "{name}: frequent [{l},{r})"
        );
        let got_iter: Vec<BitString> = got.iter_range_boxed(l, r).collect();
        let want_iter: Vec<BitString> = want.iter_range_boxed(l, r).collect();
        assert_eq!(got_iter, want_iter, "{name}: iter [{l},{r})");
    }
}

/// Batch-vs-oracle: every `*_batch` op on `got` equals the oracle's
/// answers (scalar, on `want` — so batch bugs can't self-confirm).
fn assert_same_batches(name: &str, want: &dyn SeqIndex, got: &dyn SeqIndex, seq: &[BitString]) {
    let mut next = xorshift(0xBA7C9);
    let n = want.seq_len();
    let probes = probes(seq);
    for &bs in &[1usize, 7, 64, 257] {
        let positions: Vec<usize> = if n == 0 {
            Vec::new()
        } else {
            (0..bs).map(|_| (next() % n as u64) as usize).collect()
        };
        let got_acc = got.access_batch(&positions);
        for (k, &p) in positions.iter().enumerate() {
            assert_eq!(got_acc[k], want.access(p), "{name}: access_batch lane {k}");
        }
        let queries: Vec<(BitStr<'_>, usize)> = (0..bs)
            .map(|k| {
                (
                    probes[k % probes.len()].as_bitstr(),
                    (next() % (n as u64 + 1)) as usize,
                )
            })
            .collect();
        let got_rank = got.rank_batch(&queries);
        for (k, &(s, pos)) in queries.iter().enumerate() {
            assert_eq!(
                got_rank[k],
                want.rank(s, pos),
                "{name}: rank_batch lane {k}"
            );
        }
        let sel: Vec<(BitStr<'_>, usize)> = (0..bs)
            .map(|k| (probes[k % probes.len()].as_bitstr(), (next() % 40) as usize))
            .collect();
        let got_sel = got.select_batch(&sel);
        for (k, &(s, i)) in sel.iter().enumerate() {
            assert_eq!(
                got_sel[k],
                want.select(s, i),
                "{name}: select_batch lane {k}"
            );
        }
        let prefixes: Vec<BitStr<'_>> = (0..bs)
            .map(|k| {
                let p = &probes[k % probes.len()];
                p.as_bitstr()
                    .prefix((next() % (p.len() as u64 + 1)) as usize)
            })
            .collect();
        let got_cp = got.count_prefix_batch(&prefixes);
        for (k, &p) in prefixes.iter().enumerate() {
            assert_eq!(
                got_cp[k],
                want.count_prefix(p),
                "{name}: count_prefix_batch lane {k}"
            );
        }
    }
    // Empty batches.
    assert!(got.access_batch(&[]).is_empty(), "{name}");
    assert!(got.rank_batch(&[]).is_empty(), "{name}");
    assert!(got.select_batch(&[]).is_empty(), "{name}");
    assert!(got.count_prefix_batch(&[]).is_empty(), "{name}");
}

/// Structural accessors must agree too when both sides index the *same*
/// whole sequence (the tiered store is exempt: its per-segment tries are
/// built over subsets, so global trie shape legitimately differs).
fn assert_same_structure(name: &str, want: &dyn SeqIndex, got: &dyn SeqIndex) {
    assert_eq!(got.distinct_len(), want.distinct_len(), "{name}: distinct");
    assert_eq!(got.height(), want.height(), "{name}: height");
    assert_eq!(
        got.total_bitvector_bits(),
        want.total_bitvector_bits(),
        "{name}: total bitvector bits"
    );
    assert!(
        (got.avg_height() - want.avg_height()).abs() < 1e-9,
        "{name}: avg height"
    );
}

/// Every shape the path decomposition was checked on now seals to the
/// level-order trie. The archive view a sealed segment serves after a load,
/// and a store sealing the shape in several segments, must both answer
/// like the trie built from the whole sequence.
#[test]
fn pd_matches_wavelet_trie_on_every_shape() {
    for (name, seq) in shapes() {
        let wt = WaveletTrie::build(&seq).expect("prefix-free");
        let loaded = WaveletTrie::load_bytes(&wt.save_bytes()).expect("round trip");
        assert_same_structure(name, &wt, &loaded);
        assert_same_index(name, &wt, &loaded, &seq);
        assert_same_batches(name, &wt, &loaded, &seq);

        let store = fill_store(&seq, (seq.len() / 4).max(1), 64);
        assert_eq!(store.segment_lens().iter().sum::<usize>(), seq.len());
        assert_same_index(name, &wt, &store, &seq);
        assert_same_batches(name, &wt, &store, &seq);
    }
}

/// Appends `seq` into a store whose policy seals every `seal_at` strings,
/// maintaining after each append so segments freeze as they fill.
fn fill_store(seq: &[BitString], seal_at: usize, max_sealed: usize) -> TieredStore {
    let mut store = TieredStore::with_config(StoreConfig {
        seal_at,
        max_sealed,
    });
    for s in seq {
        store.append(s.as_bitstr()).unwrap();
    }
    store
}

/// Fixed-width 16-bit code.
fn code16(v: u64) -> BitString {
    encode(v, 16)
}

/// 40 repeated shallow values, then all-distinct 16-bit codes: sealed in
/// segments of 1,500, the first half is duplication-heavy and the second
/// deep and near-distinct (h̃ = 16 ≥ 0.8·log2 n), the regime that once
/// sealed to a different representation.
fn mixed_repr_sequence() -> Vec<BitString> {
    let mut next = xorshift(0x3A7ED);
    let mut seq: Vec<BitString> = (0..3000).map(|_| code16(next() % 40)).collect();
    seq.extend((0..3000).map(|v| code16(4096 + v)));
    seq
}

/// Scalar and batched queries against a naive scan of `oracle`.
fn check_bits(name: &str, idx: &dyn SeqIndex, oracle: &[BitString]) {
    let n = oracle.len();
    assert_eq!(idx.seq_len(), n, "{name}: len");
    let all: Vec<usize> = (0..n).collect();
    assert_eq!(idx.access_batch(&all), oracle, "{name}: access_batch");
    for pos in (0..n).step_by(97) {
        assert_eq!(idx.access(pos), oracle[pos], "{name}: access({pos})");
    }
    // Every shallow value, strides of both deep ranges, and absent codes.
    let mut probes: Vec<BitString> = (0..40).map(code16).collect();
    probes.extend((4096..4096 + 3300).step_by(61).map(code16));
    probes.extend((8192..8192 + 1500).step_by(61).map(code16));
    probes.push(code16(40_001));
    let ends = [0, n / 3, n / 2, n];
    let mut rank_q = Vec::new();
    let mut want_rank = Vec::new();
    for p in &probes {
        let s = p.as_bitstr();
        let occs: Vec<usize> = (0..n).filter(|&i| oracle[i] == *p).collect();
        assert_eq!(idx.count(s), occs.len(), "{name}: count({p:?})");
        for &pos in &ends {
            let naive = occs.iter().filter(|&&o| o < pos).count();
            assert_eq!(idx.rank(s, pos), naive, "{name}: rank({p:?},{pos})");
            rank_q.push((s, pos));
            want_rank.push(naive);
        }
        for k in [0, occs.len() / 2, occs.len()] {
            assert_eq!(idx.select(s, k), occs.get(k).copied(), "{name}: select");
        }
    }
    assert_eq!(idx.rank_batch(&rank_q), want_rank, "{name}: rank_batch");
    let prefixes: Vec<_> = probes
        .iter()
        .flat_map(|p| [4, 9, 13].map(|l| p.as_bitstr().prefix(l)))
        .collect();
    let want_cp: Vec<usize> = prefixes
        .iter()
        .map(|p| {
            oracle
                .iter()
                .filter(|s| s.as_bitstr().starts_with(p))
                .count()
        })
        .collect();
    for (p, &want) in prefixes.iter().zip(&want_cp) {
        assert_eq!(idx.count_prefix(*p), want, "{name}: count_prefix");
    }
    assert_eq!(
        idx.count_prefix_batch(&prefixes),
        want_cp,
        "{name}: count_prefix_batch"
    );
}

/// The mixed store driven through seal → melt a deep middle → re-seal →
/// compact, checked against the naive oracle after every step. Returns the
/// store (four sealed segments, an empty hot tail) and its oracle.
fn churned_store() -> (TieredStore, Vec<BitString>) {
    let mut oracle = mixed_repr_sequence();
    let mut st = fill_store(&oracle, 1500, 4);
    assert_eq!(st.segment_lens(), vec![1500, 1500, 1500, 1500, 0]);
    check_bits("sealed", &st, &oracle);

    // Insert into the middle of the first deep segment: it melts.
    let extra = code16(40_000);
    st.insert(extra.as_bitstr(), 3750).unwrap();
    oracle.insert(3750, extra);
    assert_eq!(st.sealed_segments(), 3, "the insert melts one segment");
    check_bits("melted", &st, &oracle);
    st.seal();
    assert_eq!(st.sealed_segments(), 4);
    check_bits("resealed", &st, &oracle);

    // A fifth full tail seals and then compacts back to four segments.
    for v in 0..1500 {
        let s = code16(8192 + v);
        st.append(s.as_bitstr()).unwrap();
        oracle.push(s);
    }
    assert_eq!(st.sealed_segments(), 4, "compaction bounds the segments");
    assert_eq!(st.segment_lens().iter().sum::<usize>(), oracle.len());
    check_bits("compacted", &st, &oracle);
    (st, oracle)
}

/// Shallow and deep segments seal to the same level-order layout, and the
/// store stays bit-identical to the trie built from the whole sequence.
#[test]
fn store_mixes_representations_and_stays_bit_identical() {
    let seq = mixed_repr_sequence();
    let store = fill_store(&seq, 1500, 64);
    assert_eq!(store.segment_lens(), vec![1500, 1500, 1500, 1500, 0]);
    let oracle = WaveletTrie::build(&seq).expect("prefix-free");
    assert_same_index("mixed store", &oracle, &store, &seq);
    assert_same_batches("mixed store", &oracle, &store, &seq);
}

#[test]
fn mixed_store_save_load_recover_round_trip() {
    let (st, oracle) = churned_store();
    let tmp = |tag: &str| {
        let d = std::env::temp_dir().join(format!("wt-mixed-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };
    let (dir, resave) = (tmp("save"), tmp("resave"));
    st.save_dir(&dir).unwrap();
    let loaded = TieredStore::load_dir(&dir).unwrap();
    assert_eq!(loaded.segment_lens(), st.segment_lens());
    check_bits("loaded", &loaded, &oracle);

    // Both directories commit generation 1, so a re-save of the loaded
    // store reproduces every file name and byte.
    loaded.save_dir(&resave).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(names.len() > 5, "{names:?}");
    for name in &names {
        assert_eq!(
            std::fs::read(dir.join(name)).unwrap(),
            std::fs::read(resave.join(name)).unwrap(),
            "{name} changed across a load/save round trip"
        );
    }

    // Resilient recovery of the healthy image is clean and identical.
    let (recovered, report) = TieredStore::recover_dir(&dir).unwrap();
    assert!(report.is_clean(), "healthy mixed dir not clean: {report}");
    check_bits("recovered", &recovered, &oracle);

    // A corrupted deep segment (the last, all-distinct codes) is
    // quarantined, not fatal: the strict load names the file and refuses,
    // and recovery keeps the other segments serving.
    let lens = st.segment_lens();
    let victim_seg = st.sealed_segments() - 1;
    let victim = dir.join(format!("seg-g00000001-{victim_seg:03}.wt"));
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let err = TieredStore::load_dir(&dir).expect_err("strict load must refuse");
    assert_eq!(err.file().unwrap(), victim);
    let (damaged, report) = TieredStore::recover_dir(&dir).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert_eq!(report.quarantined[0].file, victim);
    assert_eq!(report.strings_lost, lens[victim_seg]);
    let start: usize = lens[..victim_seg].iter().sum();
    let mut survivors = oracle.clone();
    survivors.drain(start..start + lens[victim_seg]);
    check_bits("quarantined", &damaged, &survivors);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&resave).unwrap();
}

#[test]
fn store_mix_survives_seal_compact_and_melt() {
    // Seal, melt a deep middle, re-seal and compact (checked inside).
    let (st, oracle) = churned_store();
    let wt = WaveletTrie::build(&oracle).expect("prefix-free");
    assert_same_batches("churned store", &wt, &st, &oracle);

    // An explicit compaction of many small segments merges them down to
    // the configured bound and stays exact.
    let seq = mixed_repr_sequence();
    let mut store = fill_store(&seq, 700, 3);
    store.compact();
    assert!(store.sealed_segments() <= store.config().max_sealed);
    let wt = WaveletTrie::build(&seq).expect("prefix-free");
    assert_same_index("compacted store", &wt, &store, &seq);
    assert_same_batches("compacted store", &wt, &store, &seq);
}
