//! Round-trip property suite for the zero-copy persistence layer: every
//! persistent container — `RawBitVec`, `Fid`, `RrrVector`, `EliasFano`,
//! `WaveletTrie`, `IndexedStrings`, `TieredStore` — must answer
//! **bit-identically** after a save → load cycle, across randomized
//! workloads and the degenerate shapes (empty, singleton, all-equal,
//! deep-skewed), and a save-after-load-after-save must reproduce the byte
//! image exactly (the canonical-form invariant the golden fixtures rely
//! on). The Wavelet Trie's topology check gets checksum-valid hostile
//! images too: flags that are no full binary trie, and swapped flag bits.

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{BitString, DynamicWaveletTrie, IndexedStrings, SeqIndex, WaveletTrie};
use wt_bits::persist::{from_bytes, kind, to_bytes, Archive, ArchiveWriter, LoadError};
use wt_bits::{
    BitAccess, BitRank, BitSelect, EliasFano, Fid, Persist, RawBitVec, RrrVector, SpaceUsage,
};
use wt_store::{StoreConfig, TieredStrings};
use wt_workloads::xorshift;

/// Bit patterns covering the shapes the directories specialize on:
/// empty, singleton, all-zero, all-one, dense-random, sparse, and a long
/// run-structured vector (RRR's best case).
fn bit_shapes() -> Vec<Vec<bool>> {
    let mut rnd = xorshift(0xB175);
    let mut shapes: Vec<Vec<bool>> = vec![
        vec![],
        vec![true],
        vec![false],
        vec![false; 1000],
        vec![true; 1000],
        (0..64).map(|i| i % 2 == 0).collect(),
    ];
    shapes.push((0..5000).map(|_| rnd() % 2 == 1).collect());
    shapes.push((0..5000).map(|_| rnd().is_multiple_of(64)).collect());
    shapes.push((0..5000).map(|i| (i / 97) % 2 == 0).collect());
    shapes
}

/// Round-trips `value` through bytes twice and checks byte stability.
fn roundtrip<T: Persist>(archive_kind: u32, value: &T) -> T {
    let bytes = to_bytes(archive_kind, value);
    let loaded: T = from_bytes(archive_kind, &bytes).expect("valid archive must load");
    let rebytes = to_bytes(archive_kind, &loaded);
    assert_eq!(bytes, rebytes, "save-after-load must be byte-stable");
    loaded
}

#[test]
fn raw_bitvec_roundtrip() {
    for bits in bit_shapes() {
        let mut bv = RawBitVec::new();
        for &b in &bits {
            bv.push(b);
        }
        let loaded = roundtrip(kind::RAW, &bv);
        assert_eq!(loaded.len(), bv.len());
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(loaded.get(i), b, "bit {i}");
        }
    }
}

#[test]
fn fid_roundtrip() {
    for bits in bit_shapes() {
        let fid = Fid::from_bits(bits.iter().copied());
        let loaded = roundtrip(kind::FID, &fid);
        assert_eq!(loaded.len(), fid.len());
        assert_eq!(loaded.count_ones(), fid.count_ones());
        for i in 0..bits.len() {
            assert_eq!(loaded.get(i), fid.get(i), "get({i})");
            assert_eq!(loaded.rank1(i), fid.rank1(i), "rank1({i})");
        }
        for k in 0..fid.count_ones() {
            assert_eq!(loaded.select1(k), fid.select1(k), "select1({k})");
        }
        for k in 0..fid.len() - fid.count_ones() {
            assert_eq!(loaded.select0(k), fid.select0(k), "select0({k})");
        }
    }
}

#[test]
fn rrr_roundtrip() {
    for bits in bit_shapes() {
        let rrr = RrrVector::from_bits(bits.iter().copied());
        let loaded = roundtrip(kind::RRR, &rrr);
        assert_eq!(loaded.len(), rrr.len());
        assert_eq!(loaded.count_ones(), rrr.count_ones());
        for i in 0..bits.len() {
            assert_eq!(loaded.get(i), rrr.get(i), "get({i})");
            assert_eq!(loaded.rank1(i), rrr.rank1(i), "rank1({i})");
        }
        for k in (0..rrr.count_ones()).step_by(7.max(rrr.count_ones() / 50)) {
            assert_eq!(loaded.select1(k), rrr.select1(k), "select1({k})");
        }
    }
}

#[test]
fn elias_fano_roundtrip() {
    let mut rnd = xorshift(0xEF);
    let mut sequences: Vec<Vec<u64>> = vec![
        vec![],
        vec![0],
        vec![42],
        vec![7; 100], // all-equal (duplicates allowed)
        (0..1000u64).collect(),
    ];
    let mut sparse: Vec<u64> = (0..500).map(|_| rnd() % 1_000_000).collect();
    sparse.sort_unstable();
    sequences.push(sparse);
    for values in sequences {
        let ef = EliasFano::new(&values);
        let loaded = roundtrip(kind::ELIAS_FANO, &ef);
        assert_eq!(loaded.len(), ef.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(loaded.get(i), v, "get({i})");
        }
        for probe in [0, 1, 500, 999_999, u64::MAX] {
            assert_eq!(loaded.rank_leq(probe), ef.rank_leq(probe));
            assert_eq!(loaded.predecessor_index(probe), ef.predecessor_index(probe));
        }
    }
}

/// Bit vectors large enough that every builder stream grows past its
/// first allocation: dense, sparse and run-structured, at sizes that are
/// and are not multiples of the 63-bit RRR block and the 64-bit word.
fn grown_bit_shapes() -> Vec<Vec<bool>> {
    let mut rnd = xorshift(0x5AC7);
    let mut shapes = Vec::new();
    for n in [63 * 64 * 16, 300_007] {
        shapes.push((0..n).map(|_| rnd() % 2 == 1).collect());
        shapes.push((0..n).map(|_| rnd().is_multiple_of(64)).collect());
        shapes.push((0..n).map(|i| (i / 301) % 2 == 0).collect());
    }
    shapes
}

#[test]
fn rrr_size_bits_matches_after_save_load() {
    for bits in grown_bit_shapes() {
        let rrr = RrrVector::from_bits(bits.iter().copied());
        let loaded = roundtrip(kind::RRR, &rrr);
        assert_eq!(loaded.size_bits(), rrr.size_bits(), "n = {}", bits.len());
    }
}

#[test]
fn fid_size_bits_matches_after_save_load() {
    for bits in grown_bit_shapes().into_iter().chain(bit_shapes()) {
        let fid = Fid::from_bits(bits.iter().copied());
        let loaded = roundtrip(kind::FID, &fid);
        assert_eq!(loaded.size_bits(), fid.size_bits(), "n = {}", bits.len());
    }
}

#[test]
fn elias_fano_size_bits_matches_after_save_load() {
    let mut rnd = xorshift(0xEF5);
    let mut sequences: Vec<Vec<u64>> = vec![
        vec![],
        vec![0],
        (0..64u64).collect(),
        (0..1000u64).map(|i| i * 3).collect(),
    ];
    for n in [4096usize, 100_000] {
        let mut v: Vec<u64> = (0..n).map(|_| rnd() % (n as u64 * 40)).collect();
        v.sort_unstable();
        sequences.push(v);
    }
    for values in sequences {
        let ef = EliasFano::new(&values);
        let loaded = roundtrip(kind::ELIAS_FANO, &ef);
        assert_eq!(loaded.size_bits(), ef.size_bits(), "n = {}", values.len());
    }
}

#[test]
fn wavelet_trie_size_bits_matches_after_save_load() {
    // Near-distinct 28-bit ints, as in one sealed segment of a numeric
    // store, and a duplicated URL-like log.
    let mut rnd = xorshift(0x1D5);
    let ints: Vec<BitString> = (0..10_000)
        .map(|_| {
            let v = rnd() & ((1 << 28) - 1);
            BitString::from_bits((0..28).rev().map(move |k| (v >> k) & 1 != 0))
        })
        .collect();
    let urls: Vec<BitString> = (0..5_000)
        .map(|i| {
            NinthBitCoder.encode(format!("http://h{}.com/p{}", rnd() % 50, i % 700).as_bytes())
        })
        .collect();
    for seq in [ints, urls] {
        let mut hot = DynamicWaveletTrie::new();
        for s in &seq {
            hot.append(s.as_bitstr()).unwrap();
        }
        // The store's seal path: a structural freeze of a hot trie.
        let frozen = hot.freeze();
        for threads in [1, 3] {
            let wt = WaveletTrie::build_with_threads(&seq, threads).expect("prefix-free");
            let loaded = WaveletTrie::load_bytes(&wt.save_bytes()).expect("valid archive");
            assert_eq!(loaded.size_bits(), wt.size_bits(), "threads = {threads}");
            assert_eq!(frozen.size_bits(), wt.size_bits(), "threads = {threads}");
        }
    }
}

/// String workloads for the trie-level structures, including the
/// degenerate shapes: empty, singleton, all-equal, and a deep-skewed set
/// (shared long prefix, so the trie degenerates toward a path).
fn string_workloads() -> Vec<Vec<String>> {
    let mut rnd = xorshift(0x57D5);
    let mut workloads: Vec<Vec<String>> =
        vec![vec![], vec!["one".into()], vec!["same".into(); 200]];
    let deep_prefix = "x".repeat(120);
    workloads.push((0..100).map(|i| format!("{deep_prefix}{i:03}")).collect());
    let hosts = ["a.com", "b.org", "c.net", "d.io"];
    workloads.push(
        (0..800)
            .map(|_| {
                let h = hosts[(rnd() % 4) as usize];
                format!("http://{h}/p{}", rnd() % 60)
            })
            .collect(),
    );
    workloads
}

fn check_wt_equal(a: &WaveletTrie, b: &WaveletTrie, strings: &[BitString]) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.n_nodes(), b.n_nodes());
    // Builders drop their growth slack, so the built footprint equals the
    // loaded one, whose views count their exact span.
    assert_eq!(b.size_bits(), a.size_bits(), "built vs loaded footprint");
    for (i, s) in strings.iter().enumerate() {
        assert_eq!(b.access(i), *s, "access({i})");
    }
    for s in strings.iter().take(40) {
        let q = s.as_bitstr();
        assert_eq!(a.count(q), b.count(q));
        assert_eq!(a.rank(q, strings.len() / 2), b.rank(q, strings.len() / 2));
        assert_eq!(a.select(q, 0), b.select(q, 0));
    }
    if !strings.is_empty() {
        assert_eq!(
            a.distinct_in_range(0, a.seq_len()),
            b.distinct_in_range(0, b.seq_len())
        );
    }
}

#[test]
fn wavelet_trie_roundtrip() {
    for strings in string_workloads() {
        // 9-bit-ish manual prefix-free encoding via IndexedStrings' coder is
        // exercised separately; here feed raw prefix-free bit strings.
        let encoded: Vec<BitString> = strings
            .iter()
            .map(|s| {
                let mut b = BitString::new();
                for byte in s.bytes() {
                    b.push(true);
                    for k in (0..8).rev() {
                        b.push((byte >> k) & 1 != 0);
                    }
                }
                b.push(false); // terminator keeps the set prefix-free
                b
            })
            .collect();
        let wt = WaveletTrie::build(&encoded).expect("prefix-free");
        let bytes = wt.save_bytes();
        let loaded = WaveletTrie::load_bytes(&bytes).expect("valid archive");
        assert_eq!(loaded.save_bytes(), bytes, "byte stability");
        check_wt_equal(&wt, &loaded, &encoded);
    }
}

/// Section tags of a Wavelet-Trie archive, in the order the writer emits
/// them: meta, labels, label bounds, internal flags, bitvectors,
/// bitvector bounds, ones directory.
const WT_SECTIONS: [u32; 7] = [0, 2, 3, 4, 5, 6, 7];
/// Tag of the internal-flag section (a `Fid`, whose raw bits lead).
const WT_INTERNAL: u32 = 4;

/// Every section of a Wavelet-Trie archive as raw words, in tag order.
fn wt_sections(bytes: &[u8]) -> Vec<(u32, Vec<u64>)> {
    let a = Archive::parse(bytes, kind::WAVELET_TRIE).expect("valid archive");
    WT_SECTIONS
        .iter()
        .map(|&tag| {
            let mut r = a.section(tag).expect("section present");
            let n = r.remaining();
            (tag, (0..n).map(|_| r.read_u64().unwrap()).collect())
        })
        .collect()
}

/// Writes sections back as a Wavelet-Trie archive with fresh checksums.
fn wt_archive(sections: &[(u32, Vec<u64>)]) -> Vec<u8> {
    let mut w = ArchiveWriter::new(kind::WAVELET_TRIE);
    for (tag, words) in sections {
        w.section(*tag, words.clone());
    }
    w.finish()
}

fn encoded<T: Persist>(value: &T) -> Vec<u64> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// A synthetic three-string archive with level-order `flags` and two
/// internal nodes whose bitvectors are `011` and `01`: every section
/// agrees with every other on its counts, whatever the flags.
fn synthetic_wt(flags: &[bool]) -> Vec<u8> {
    assert_eq!(flags.iter().filter(|&&f| f).count(), 2);
    let bits = [false, true, true, false, true];
    let payloads = [
        vec![3, 0f64.to_bits(), 0],
        encoded(&RawBitVec::new()),
        encoded(&EliasFano::new(&vec![0; flags.len() + 1])),
        encoded(&Fid::from_bits(flags.iter().copied())),
        encoded(&RrrVector::from_bits(bits)),
        encoded(&EliasFano::new(&[0, 3, 5])),
        encoded(&EliasFano::new(&[0, 2, 3])),
    ];
    let sections: Vec<(u32, Vec<u64>)> = WT_SECTIONS.into_iter().zip(payloads).collect();
    wt_archive(&sections)
}

#[test]
fn wavelet_trie_rejects_flags_that_are_no_full_binary_trie() {
    // The consistent shape: root (β = 011) → leaf, internal (β = 01) →
    // two leaves.
    let ok = WaveletTrie::load_bytes(&synthetic_wt(&[true, false, true, false, false]))
        .expect("a full binary trie loads");
    assert_eq!(ok.len(), 3);
    assert_eq!(ok.n_nodes(), 5);
    // Same counts everywhere, but `n_nodes ≠ 2·internals + 1`.
    for flags in [
        vec![true, true, false, false],
        vec![true, false, true, false],
        vec![false, true, true, false],
        vec![true, true, false, false, false, false],
    ] {
        match WaveletTrie::load_bytes(&synthetic_wt(&flags)) {
            Err(LoadError::Invalid(why)) => {
                assert!(why.contains("full binary trie"), "{flags:?}: {why}")
            }
            other => panic!("{flags:?}: expected Invalid, got {other:?}"),
        }
    }
}

#[test]
fn swapped_internal_flag_bits_reject_or_answer() {
    // Two bits of one flag word swapped keep every directory total intact,
    // so only the loader's topology checks stand between such an image
    // and the query paths: each must be rejected or answer every
    // access/count without panicking.
    const MUTANTS: usize = 600;
    let mut rnd = xorshift(0x5A9F);
    let code = |v: u64| BitString::from_bits((0..12).rev().map(move |k| (v >> k) & 1 != 0));
    let strings: Vec<BitString> = (0..500).map(|_| code(rnd() % 300)).collect();
    let mut distinct = strings.clone();
    distinct.sort();
    distinct.dedup();
    let wt = WaveletTrie::build(&strings).unwrap();
    let bytes = wt.save_bytes();
    let sections = wt_sections(&bytes);
    assert_eq!(wt_archive(&sections), bytes, "archive section layout");
    let at = WT_SECTIONS.iter().position(|&t| t == WT_INTERNAL).unwrap();
    let n_flags = sections[at].1[0] as usize;
    assert_eq!(n_flags, wt.n_nodes());
    let (mut made, mut rejected) = (0, 0);
    let mut panicked = Vec::new();
    while made < MUTANTS {
        let word = (rnd() % n_flags.div_ceil(64) as u64) as usize;
        let valid = (n_flags - 64 * word).min(64) as u64;
        let (a, b) = (rnd() % valid, rnd() % valid);
        let w = sections[at].1[1 + word];
        if (w >> a) & 1 == (w >> b) & 1 {
            continue;
        }
        made += 1;
        let mut m = sections.clone();
        m[at].1[1 + word] ^= (1 << a) | (1 << b);
        let Ok(t) = WaveletTrie::load_bytes(&wt_archive(&m)) else {
            rejected += 1;
            continue;
        };
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..t.len() {
                std::hint::black_box(t.access(i));
            }
            for s in &distinct {
                std::hint::black_box(t.count(s.as_bitstr()));
            }
        }));
        if run.is_err() {
            panicked.push((word, a, b));
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {MUTANTS} mutants ({rejected} rejected) panicked: {panicked:?}",
        panicked.len()
    );
}

#[test]
fn indexed_strings_roundtrip() {
    for strings in string_workloads() {
        let idx = IndexedStrings::build(strings.iter().map(|s| s.as_bytes()));
        let bytes = idx.save_bytes();
        let loaded = IndexedStrings::load_bytes(&bytes).expect("valid archive");
        assert_eq!(loaded.save_bytes(), bytes, "byte stability");
        assert_eq!(loaded.len(), idx.len());
        assert_eq!(loaded.distinct_len(), idx.distinct_len());
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(&loaded.get_string(i), s, "access({i})");
        }
        for s in strings.iter().take(30) {
            assert_eq!(loaded.count(s), idx.count(s));
            assert_eq!(
                loaded.count_prefix(&s[..s.len() / 2]),
                idx.count_prefix(&s[..s.len() / 2])
            );
        }
        // An IndexedStrings archive must not load as a bit-level trie and
        // vice versa: the kind header separates them.
        assert!(WaveletTrie::load_bytes(&bytes).is_err(), "kind confusion");
    }
}

#[test]
fn indexed_strings_file_roundtrip() {
    let dir = std::env::temp_dir().join(format!("wt-persist-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idx = IndexedStrings::build(["alpha", "beta", "alpha", "gamma"]);
    let path = dir.join("idx.wt");
    idx.save(&path).unwrap();
    let loaded = IndexedStrings::load(&path).expect("file round-trip");
    for i in 0..idx.len() {
        assert_eq!(loaded.get_string(i), idx.get_string(i));
    }
    // Errors out of file entry points carry the offending path.
    let missing = dir.join("missing.wt");
    match IndexedStrings::load(&missing) {
        Err(wt_bits::LoadError::InFile { path, cause }) => {
            assert_eq!(path, missing);
            assert!(matches!(*cause, wt_bits::LoadError::Io(_)));
        }
        other => panic!("expected path-tagged Io error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tiered_store_roundtrip() {
    let dir = std::env::temp_dir().join(format!("wt-persist-store-{}", std::process::id()));
    let mut rnd = xorshift(0x570E);
    // Several store states: empty, hot-only, sealed+hot, melted middle.
    let mut stores: Vec<TieredStrings> = Vec::new();
    stores.push(TieredStrings::new());
    let mut hot_only = TieredStrings::with_config(StoreConfig {
        seal_at: 1 << 20,
        max_sealed: 8,
    });
    for i in 0..50 {
        hot_only.push(format!("hot-{i}"));
    }
    stores.push(hot_only);
    let mut tiered = TieredStrings::with_config(StoreConfig {
        seal_at: 64,
        max_sealed: 4,
    });
    for _ in 0..400 {
        tiered.push(format!("http://h{}.com/p{}", rnd() % 5, rnd() % 40));
    }
    // Melt a middle segment so the saved image holds a mid-list hot log.
    tiered.insert("http://melted.example/", 10);
    stores.push(tiered);
    for (case, st) in stores.iter().enumerate() {
        let d = dir.join(format!("case-{case}"));
        st.save_dir(&d).unwrap();
        let loaded = TieredStrings::load_dir(&d).expect("valid store dir");
        assert_eq!(loaded.len(), st.len(), "case {case}");
        assert_eq!(loaded.num_segments(), st.num_segments(), "case {case}");
        assert_eq!(
            loaded.sealed_segments(),
            st.sealed_segments(),
            "case {case}"
        );
        for i in 0..st.len() {
            assert_eq!(
                loaded.get_string(i),
                st.get_string(i),
                "case {case} access({i})"
            );
        }
        for probe in [
            "http://h1.com/p3",
            "hot-7",
            "http://melted.example/",
            "absent",
        ] {
            assert_eq!(
                loaded.count(probe),
                st.count(probe),
                "case {case} count({probe})"
            );
            assert_eq!(
                loaded.count_prefix("http://"),
                st.count_prefix("http://"),
                "case {case}"
            );
        }
        // save-after-load reproduces every file byte-for-byte.
        let d2 = dir.join(format!("case-{case}-resaved"));
        loaded.save_dir(&d2).unwrap();
        let mut names: Vec<_> = std::fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        let mut names2: Vec<_> = std::fs::read_dir(&d2)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names2.sort();
        assert_eq!(names, names2, "case {case} file set");
        for name in names {
            let a = std::fs::read(d.join(&name)).unwrap();
            let b = std::fs::read(d2.join(&name)).unwrap();
            assert_eq!(a, b, "case {case} file {name:?} not byte-stable");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn loaded_structures_answer_after_buffer_source_drops() {
    // The load path carves views into one shared buffer; the original byte
    // vector must be droppable (the archive keeps its own Arc).
    let idx = IndexedStrings::build((0..500).map(|i| format!("k{:04}", i % 37)));
    let loaded = {
        let bytes = idx.save_bytes();
        IndexedStrings::load_bytes(&bytes).unwrap()
        // `bytes` dropped here
    };
    assert_eq!(loaded.count("k0003"), idx.count("k0003"));
}

#[test]
fn space_usage_counts_mapped_buffer_once() {
    let idx = IndexedStrings::build((0..2000).map(|i| format!("http://host{}.com/{i}", i % 7)));
    let bytes = idx.save_bytes();
    let file_bits = bytes.len() * 8;
    let loaded = IndexedStrings::load_bytes(&bytes).unwrap();
    // Owned-vs-loaded: the loaded structure's components are disjoint views
    // into the one archive buffer, so its reported size must stay at file
    // scale (double-counting the buffer per component would blow it up by
    // the component count) and within the owned structure's footprint plus
    // per-struct constants.
    let loaded_bits = loaded.size_bits();
    assert!(
        loaded_bits < file_bits + 4096,
        "loaded {loaded_bits} bits vs file {file_bits} bits: buffer counted more than once?"
    );
    assert!(
        loaded_bits * 4 > file_bits,
        "loaded {loaded_bits} bits vs file {file_bits} bits: views not accounted?"
    );
    // Round-tripping again from the loaded structure changes nothing.
    let again = IndexedStrings::load_bytes(&loaded.save_bytes()).unwrap();
    assert_eq!(again.size_bits(), loaded_bits);
}
