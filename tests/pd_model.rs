//! Deep-segment oracle suite. The file keeps the name of the retired
//! path-decomposition oracle it grew out of: every sealed segment, the deep
//! and mostly-distinct ones that representation served included, is now a
//! level-order `WaveletTrie`. Every backend state must conform to the
//! naive oracle on every trie shape, and a store whose segments split
//! between shallow duplication-heavy and deep all-distinct halves must
//! stay exact through seal, melt, compaction, save/load and recovery.

mod support;

use std::sync::OnceLock;

use support::{check_shape, code, conform, conform_all, shapes, store, xorshift, Oracle};
use wavelet_trie::BitString;
use wt_store::TieredStore;

#[test]
fn pd_matches_wavelet_trie_on_every_shape() {
    for (name, seq) in shapes() {
        conform_all(name, &seq, 0x9D_0DE1);
    }
}

/// 40 repeated shallow values, then all-distinct 16-bit codes: in segments
/// of 1,500, a duplication-heavy half and a deep, near-distinct half.
fn mixed_repr_sequence() -> Vec<BitString> {
    let mut next = xorshift(0x3A7ED);
    let mut seq: Vec<BitString> = (0..3000).map(|_| code(next() % 40, 16)).collect();
    seq.extend((0..3000).map(|v| code(4096 + v, 16)));
    seq
}

/// The mixed store driven through seal → melt a deep middle → re-seal →
/// compact, checked after every edit (the freshly sealed layout is
/// `store_mixes_representations_and_stays_bit_identical`'s). Built once
/// and shared: four sealed segments, an empty hot tail, and the oracle.
fn churned_store() -> &'static (TieredStore, Oracle) {
    static CHURNED: OnceLock<(TieredStore, Oracle)> = OnceLock::new();
    CHURNED.get_or_init(|| {
        let mut seq = mixed_repr_sequence();
        let mut st = store(&seq, 1500, 4);
        assert_eq!(st.segment_lens(), vec![1500, 1500, 1500, 1500, 0]);
        // Insert into the middle of the first deep segment: it melts.
        st.insert(code(40_000, 16).as_bitstr(), 3750).unwrap();
        seq.insert(3750, code(40_000, 16));
        assert_eq!(st.sealed_segments(), 3, "the insert melts one segment");
        conform("melted", &st, &Oracle::new(seq.clone()), 2);
        st.seal();
        assert_eq!(st.sealed_segments(), 4);
        conform("resealed", &st, &Oracle::new(seq.clone()), 3);
        // A fifth full tail seals and then compacts back to four segments.
        for s in (8192..9692).map(|v| code(v, 16)) {
            st.append(s.as_bitstr()).unwrap();
            seq.push(s);
        }
        assert_eq!(st.sealed_segments(), 4, "compaction bounds the segments");
        let oracle = Oracle::new(seq);
        conform("compacted", &st, &oracle, 4);
        (st, oracle)
    })
}

/// Shallow and deep segments seal to the same level-order layout: each
/// answers, and is shaped, like the trie over its slice, and the store
/// answers like the oracle over the whole sequence.
#[test]
fn store_mixes_representations_and_stays_bit_identical() {
    let seq = mixed_repr_sequence();
    let store = store(&seq, 1500, 64);
    assert_eq!(store.segment_lens(), vec![1500, 1500, 1500, 1500, 0]);
    for (i, part) in seq.chunks(1500).enumerate() {
        let o = Oracle::new(part.to_vec());
        conform(&format!("segment {i}"), store.segment(i), &o, i as u64);
        check_shape(&format!("segment {i}"), store.segment(i), &o);
    }
    conform("mixed store", &store, &Oracle::new(seq), 5);
}

#[test]
fn mixed_store_save_load_recover_round_trip() {
    let (st, oracle) = churned_store();
    let tmp =
        |tag: &str| std::env::temp_dir().join(format!("wt-mixed-{tag}-{}", std::process::id()));
    let (dir, resave) = (tmp("save"), tmp("resave"));
    let _ = (
        std::fs::remove_dir_all(&dir),
        std::fs::remove_dir_all(&resave),
    );
    st.save_dir(&dir).unwrap();
    let loaded = TieredStore::load_dir(&dir).unwrap();
    assert_eq!(loaded.segment_lens(), st.segment_lens());
    conform("loaded", &loaded, oracle, 6);

    // Both directories commit generation 1, so a re-save of the loaded
    // store reproduces every file name and byte.
    loaded.save_dir(&resave).unwrap();
    let files = |d: &std::path::Path| {
        let mut names: Vec<_> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
            .into_iter()
            .map(|f| (std::fs::read(d.join(&f)).unwrap(), f))
            .collect::<Vec<_>>()
    };
    let saved = files(&dir);
    assert!(saved.len() > 5, "{} files", saved.len());
    assert!(
        saved == files(&resave),
        "a load/save round trip changed a file"
    );

    // Resilient recovery of the healthy image is clean and identical.
    let (recovered, report) = TieredStore::recover_dir(&dir).unwrap();
    assert!(report.is_clean(), "healthy mixed dir not clean: {report}");
    conform("recovered", &recovered, oracle, 7);

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
    let mut survivors = oracle.seq.clone();
    survivors.drain(start..start + lens[victim_seg]);
    conform("quarantined", &damaged, &Oracle::new(survivors), 8);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&resave).unwrap();
}

#[test]
fn store_mix_survives_seal_compact_and_melt() {
    // Seal, melt a deep middle, re-seal and compact (checked inside).
    churned_store();
    // An explicit compaction of many small segments merges them down to
    // the configured bound and stays exact.
    let seq = mixed_repr_sequence();
    let mut store = store(&seq, 700, 3);
    store.compact();
    assert!(store.sealed_segments() <= store.config().max_sealed);
    conform("compacted store", &store, &Oracle::new(seq), 9);
}
