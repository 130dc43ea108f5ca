//! Path-decomposition oracle suite.
//!
//! The path-decomposed static trie is a *drop-in* representation: it must
//! answer every `SeqIndex` operation — scalar, prefix, range-analytic and
//! batched — **bit-identically** to the level-order [`WaveletTrie`] it
//! was converted from, on every trie shape (random, all-equal,
//! all-distinct, deep-skewed, empty, singleton). The tiered store then mixes both
//! representations across segments; the mix must stay invisible through
//! seal, compact and melt.

use wavelet_trie::{BitStr, BitString, PathDecompTrie, SeqIndex, WaveletTrie};
use wt_store::{SegmentKind, StoreConfig, TieredStore};

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

/// The sequence shapes the oracle runs over. Each stresses a different
/// part of the decomposition: random (mixed fanout), all-equal (a single
/// root leaf), all-distinct (maximal P), deep-skewed (long heavy paths),
/// empty and singleton (degenerate skeletons).
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

/// Full-surface bit-identity: `got` (the path-decomposed trie) must match
/// `want` (the preorder wavelet trie) on every operation.
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

#[test]
fn pd_matches_wavelet_trie_on_every_shape() {
    for (name, seq) in shapes() {
        let wt = WaveletTrie::build(&seq).expect("prefix-free");
        let pd = PathDecompTrie::from_static(&wt);
        assert_same_structure(name, &wt, &pd);
        assert_same_index(name, &wt, &pd, &seq);
        assert_same_batches(name, &wt, &pd, &seq);
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

/// A sequence whose sealed segments split between representations: the
/// first half is 40 shallow values repeated (h̃ ≪ log n → wavelet trie),
/// the second half all-distinct 16-bit codes (h̃ = 16 > 0.8·log n → path
/// decomposition). Segment size 1500 clears the `PD_MIN_N = 1024` floor.
fn mixed_repr_sequence() -> Vec<BitString> {
    let mut next = xorshift(0x3A7ED);
    let mut seq: Vec<BitString> = (0..3000).map(|_| encode(next() % 40, 16)).collect();
    seq.extend((0..3000).map(|v| encode(4096 + v, 16)));
    seq
}

#[test]
fn store_mixes_representations_and_stays_bit_identical() {
    let seq = mixed_repr_sequence();
    let store = fill_store(&seq, 1500, 64);
    let kinds = store.segment_kinds();
    assert!(
        kinds.contains(&SegmentKind::Wavelet),
        "expected a wavelet-trie segment, got {kinds:?}"
    );
    assert!(
        kinds.contains(&SegmentKind::PathDecomp),
        "expected a path-decomposed segment, got {kinds:?}"
    );
    let oracle = WaveletTrie::build(&seq).expect("prefix-free");
    assert_same_index("mixed store", &oracle, &store, &seq);
    assert_same_batches("mixed store", &oracle, &store, &seq);

    // The shape probe agrees with the adaptive choice, segment by segment.
    for (shape, kind) in store.segment_shapes().iter().zip(&kinds) {
        match kind {
            SegmentKind::Wavelet => assert!(!shape.prefers_path_decomposition()),
            SegmentKind::PathDecomp => assert!(shape.prefers_path_decomposition()),
            SegmentKind::Hot => {}
        }
    }
}

#[test]
fn mixed_store_save_load_recover_round_trip() {
    let seq = mixed_repr_sequence();
    let store = fill_store(&seq, 1500, 64);
    let kinds = store.segment_kinds();
    assert!(kinds.contains(&SegmentKind::Wavelet) && kinds.contains(&SegmentKind::PathDecomp));

    let dir = std::env::temp_dir().join(format!("wt-pd-mixed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    store.save_dir(&dir).unwrap();

    // Strict load preserves the per-segment representation choice and the
    // bytes: a re-save of the loaded store reproduces every file.
    let loaded = TieredStore::load_dir(&dir).unwrap();
    assert_eq!(loaded.segment_kinds(), kinds);
    assert_eq!(loaded.segment_lens(), store.segment_lens());
    let oracle = WaveletTrie::build(&seq).expect("prefix-free");
    assert_same_index("loaded mixed store", &oracle, &loaded, &seq);

    let resave = std::env::temp_dir().join(format!("wt-pd-mixed-resave-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&resave);
    loaded.save_dir(&resave).unwrap();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    for name in &names {
        // The resave dir is fresh, so it commits as generation 1 too —
        // names and bytes must match exactly.
        assert_eq!(
            std::fs::read(dir.join(name)).unwrap(),
            std::fs::read(resave.join(name)).unwrap(),
            "{name} changed across a load/save round trip"
        );
    }

    // Resilient recovery of the healthy image is clean and identical.
    let (recovered, report) = TieredStore::recover_dir(&dir).unwrap();
    assert!(report.is_clean(), "healthy mixed dir not clean: {report}");
    assert_eq!(recovered.segment_kinds(), kinds);
    assert_same_index("recovered mixed store", &oracle, &recovered, &seq);

    // A corrupted path-decomposed segment is quarantined, not fatal: the
    // rest of the store keeps serving.
    let pd_seg = kinds
        .iter()
        .position(|k| *k == SegmentKind::PathDecomp)
        .unwrap();
    let victim = dir.join(format!("seg-g00000001-{pd_seg:03}.wt"));
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).unwrap();
    let (damaged, report) = TieredStore::recover_dir(&dir).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert_eq!(report.strings_lost, store.segment_lens()[pd_seg]);
    assert_eq!(damaged.len(), store.len() - report.strings_lost);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&resave).unwrap();
}

#[test]
fn store_mix_survives_seal_compact_and_melt() {
    let seq = mixed_repr_sequence();
    let mut store = fill_store(&seq, 1500, 64);
    let oracle = WaveletTrie::build(&seq).expect("prefix-free");

    // Melt a path-decomposed middle: insert into a sealed segment.
    let kinds = store.segment_kinds();
    let pd_seg = kinds
        .iter()
        .position(|k| *k == SegmentKind::PathDecomp)
        .expect("a path-decomposed segment");
    let lens = store.segment_lens();
    let pos: usize = lens[..pd_seg].iter().sum::<usize>() + lens[pd_seg] / 2;
    let extra = encode(40_000, 16);
    store.insert(extra.as_bitstr(), pos).unwrap();
    let mut expect: Vec<BitString> = seq.clone();
    expect.insert(pos, extra);
    assert!(
        store.segment_kinds().contains(&SegmentKind::Hot),
        "insert into a sealed segment must melt it"
    );

    // Re-seal: the melted middle re-freezes, choosing its representation
    // afresh — the all-distinct segment comes back path-decomposed.
    store.seal();
    assert!(store.segment_kinds().contains(&SegmentKind::PathDecomp));
    let oracle2 = WaveletTrie::build(&expect).expect("prefix-free");
    assert_same_index("resealed store", &oracle2, &store, &expect);

    // Compact down to few segments: merges melt + re-freeze pairs, again
    // re-deciding the representation per merged segment.
    let mut store = fill_store(&seq, 700, 3);
    store.compact();
    assert!(store.sealed_segments() <= store.config().max_sealed);
    assert_same_index("compacted store", &oracle, &store, &seq);
    assert_same_batches("compacted store", &oracle, &store, &seq);
}
