//! Golden-fixture compatibility suite: small canonical `.wt` archives
//! checked into `tests/fixtures/` freeze format version 2 on disk. Two
//! guarantees per fixture:
//!
//! * **reader compat** — the loader reads the checked-in bytes and answers
//!   bit-identically to a structure freshly built from the same input;
//! * **writer compat** — re-serializing that freshly built structure
//!   reproduces the checked-in bytes exactly.
//!
//! Any intentional format change must bump `FORMAT_VERSION` and regenerate
//! the fixtures: `WT_REGEN_FIXTURES=1 cargo test --test golden_fixtures`.

use std::path::{Path, PathBuf};

use wavelet_trie::{IndexedStrings, WaveletTrie};
use wt_bits::persist::{kind, to_bytes, Archive, ArchiveWriter};
use wt_bits::{
    BitAccess, BitRank, EliasFano, FaultPlan, FaultStorage, FsStorage, LoadError, RawBitVec,
    RrrVector,
};
use wt_store::{StoreConfig, TieredStrings};
use wt_workloads::xorshift;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn regen() -> bool {
    std::env::var_os("WT_REGEN_FIXTURES").is_some()
}

/// Checks (or regenerates) one single-file fixture.
fn check_fixture(name: &str, canonical: &[u8]) {
    let path = fixture_dir().join(name);
    if regen() {
        std::fs::create_dir_all(fixture_dir()).unwrap();
        std::fs::write(&path, canonical).unwrap();
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing fixture {name} ({e}); regenerate with WT_REGEN_FIXTURES=1")
    });
    assert_eq!(
        golden, canonical,
        "writer no longer reproduces fixture {name}: the on-disk format \
         changed without a FORMAT_VERSION bump"
    );
}

/// Deterministic bit pattern shared by the bits-level fixtures.
fn fixture_bits() -> Vec<bool> {
    let mut next = xorshift(0x5EED);
    (0..777).map(|_| next().is_multiple_of(3)).collect()
}

/// The URL log behind the trie-level fixtures (the §1 workload in
/// miniature, with duplicates and shared prefixes).
fn fixture_urls() -> Vec<String> {
    let hosts = ["a.com", "b.org", "c.net"];
    let mut urls = Vec::new();
    for round in 0..5 {
        for (i, h) in hosts.iter().enumerate() {
            urls.push(format!("http://{h}/page{}", (round * 7 + i * 3) % 9));
            urls.push(format!("http://{h}/"));
        }
    }
    urls
}

#[test]
fn raw_bitvec_fixture() {
    let mut bv = RawBitVec::new();
    for b in fixture_bits() {
        bv.push(b);
    }
    check_fixture("raw-v2.wt", &to_bytes(kind::RAW, &bv));
    if regen() {
        return;
    }
    let bytes = std::fs::read(fixture_dir().join("raw-v2.wt")).unwrap();
    let loaded: RawBitVec = wt_bits::persist::from_bytes(kind::RAW, &bytes).unwrap();
    for (i, b) in fixture_bits().into_iter().enumerate() {
        assert_eq!(loaded.get(i), b, "bit {i}");
    }
}

#[test]
fn rrr_fixture() {
    let rrr = RrrVector::from_bits(fixture_bits());
    check_fixture("rrr-v2.wt", &to_bytes(kind::RRR, &rrr));
    if regen() {
        return;
    }
    let bytes = std::fs::read(fixture_dir().join("rrr-v2.wt")).unwrap();
    let loaded: RrrVector = wt_bits::persist::from_bytes(kind::RRR, &bytes).unwrap();
    let bits = fixture_bits();
    assert_eq!(loaded.len(), bits.len());
    let mut ones = 0;
    for (i, b) in bits.into_iter().enumerate() {
        assert_eq!(loaded.rank1(i), ones, "rank1({i})");
        assert_eq!(loaded.get(i), b, "bit {i}");
        ones += b as usize;
    }
}

#[test]
fn elias_fano_fixture() {
    let values: Vec<u64> = (0..300u64).map(|i| i * i % 7919 + i).collect();
    let mut sorted = values;
    sorted.sort_unstable();
    let ef = EliasFano::new(&sorted);
    check_fixture("ef-v2.wt", &to_bytes(kind::ELIAS_FANO, &ef));
    if regen() {
        return;
    }
    let bytes = std::fs::read(fixture_dir().join("ef-v2.wt")).unwrap();
    let loaded: EliasFano = wt_bits::persist::from_bytes(kind::ELIAS_FANO, &bytes).unwrap();
    for (i, &v) in sorted.iter().enumerate() {
        assert_eq!(loaded.get(i), v, "get({i})");
    }
}

#[test]
fn indexed_strings_fixture() {
    let idx = IndexedStrings::build(fixture_urls());
    check_fixture("urls-v2.wt", &idx.save_bytes());
    if regen() {
        return;
    }
    let loaded = IndexedStrings::load(fixture_dir().join("urls-v2.wt")).unwrap();
    let urls = fixture_urls();
    assert_eq!(loaded.len(), urls.len());
    for (i, u) in urls.iter().enumerate() {
        assert_eq!(&loaded.get_string(i), u, "access({i})");
    }
    assert_eq!(loaded.count("http://a.com/"), 5);
    assert_eq!(loaded.count_prefix("http://b.org/"), 10);
    assert_eq!(
        loaded.distinct_len(),
        IndexedStrings::build(fixture_urls()).distinct_len()
    );
}

/// The retired path-decomposition layout: no writer produces it and no
/// bytes of it are checked in, but its kind code stays frozen at 11 and
/// reserved. An archive of that kind is still a well-formed container,
/// and every static loader refuses it with a typed `WrongKind` error
/// instead of misreading it.
#[test]
fn path_decomp_fixture() {
    assert_eq!(kind::PATH_DECOMP, 11);
    let live = [
        kind::RAW,
        kind::FID,
        kind::RRR,
        kind::ELIAS_FANO,
        kind::WAVELET_TRIE,
        kind::INDEXED_STRINGS,
        kind::MANIFEST,
        kind::HOT_LOG,
    ];
    assert!(!live.contains(&kind::PATH_DECOMP), "kind 11 reused");

    let mut w = ArchiveWriter::new(kind::PATH_DECOMP);
    w.section(0, vec![200]);
    let bytes = w.finish();
    assert!(Archive::parse(&bytes, kind::PATH_DECOMP).is_ok());
    let wrong_kind = |r: Result<(), LoadError>, expected: u32| {
        assert!(
            matches!(
                r,
                Err(LoadError::WrongKind { expected: e, found })
                    if e == expected && found == kind::PATH_DECOMP
            ),
            "{r:?}"
        );
    };
    wrong_kind(
        WaveletTrie::load_bytes(&bytes).map(drop),
        kind::WAVELET_TRIE,
    );
    wrong_kind(
        IndexedStrings::load_bytes(&bytes).map(drop),
        kind::INDEXED_STRINGS,
    );
    wrong_kind(
        wt_bits::persist::from_bytes::<RrrVector>(kind::RRR, &bytes).map(drop),
        kind::RRR,
    );
}

/// The canonical fixture store: sealed segments AND a non-empty hot tail,
/// built deterministically (freezes are bit-identical serial or parallel).
fn fixture_store() -> TieredStrings {
    let mut st = TieredStrings::with_config(StoreConfig {
        seal_at: 10,
        max_sealed: 4,
    });
    for u in fixture_urls() {
        st.push(u);
    }
    st
}

/// Sorted file names of a directory.
fn dir_names(dir: &Path, what: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            panic!("missing fixture dir {what} ({e}); regenerate with WT_REGEN_FIXTURES=1")
        })
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Copies a fixture directory into a scratch dir (recovery sweeps temps, so
/// resilient-load tests must never run on the checked-in tree).
fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for name in dir_names(src, "copy source") {
        std::fs::copy(src.join(&name), dst.join(&name)).unwrap();
    }
}

/// Asserts the loaded store answers exactly like the freshly built one.
fn assert_store_matches(loaded: &TieredStrings, st: &TieredStrings) {
    assert_eq!(loaded.len(), st.len());
    assert_eq!(loaded.sealed_segments(), st.sealed_segments());
    for i in 0..st.len() {
        assert_eq!(loaded.get_string(i), st.get_string(i), "access({i})");
    }
    assert_eq!(
        loaded.count_prefix("http://c.net/"),
        st.count_prefix("http://c.net/")
    );
}

/// Writes the pre-generation layout into `dir` from the current writer's
/// output: a generation-1 save with its segments renamed `seg-NNN.*` and
/// a bare `manifest.wt` holding only section 0 (policy + segment table).
fn write_legacy_fixture(st: &TieredStrings, dir: &Path) {
    let src = std::env::temp_dir().join(format!("wt-golden-legacy-src-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&src);
    st.save_dir(&src).unwrap();
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    for name in dir_names(&src, "legacy source") {
        let path = src.join(&name);
        if let Some(rest) = name.strip_prefix("seg-g00000001-") {
            std::fs::copy(&path, dir.join(format!("seg-{rest}"))).unwrap();
            continue;
        }
        assert_eq!(name, "manifest-g00000001.wt");
        let a = Archive::parse(&std::fs::read(&path).unwrap(), kind::MANIFEST).unwrap();
        let mut r = a.section(0).unwrap();
        let n = r.remaining();
        let words: Vec<u64> = (0..n).map(|_| r.read_u64().unwrap()).collect();
        let mut w = ArchiveWriter::new(kind::MANIFEST);
        w.section(0, words);
        std::fs::write(dir.join("manifest.wt"), w.finish()).unwrap();
    }
    std::fs::remove_dir_all(&src).unwrap();
}

#[test]
fn tiered_store_legacy_fixture() {
    // `store-v2` is the pre-generation layout (bare `manifest.wt` +
    // `seg-NNN.*`, no atomic-commit naming). The current writer no longer
    // produces it — this fixture is **reader compat only**, pinning that
    // images written before the commit protocol keep loading, as
    // generation 0. A format bump re-freezes it from the current writer's
    // segments (`write_legacy_fixture`); otherwise it is never regenerated.
    let st = fixture_store();
    let dir = fixture_dir().join("store-v2");
    if regen() {
        write_legacy_fixture(&st, &dir);
        return;
    }
    let loaded = TieredStrings::load_dir(&dir).unwrap();
    assert_store_matches(&loaded, &st);
    // The resilient path agrees and reports a clean generation-0 image.
    let tmp = std::env::temp_dir().join(format!("wt-golden-legacy-{}", std::process::id()));
    copy_dir(&dir, &tmp);
    let (recovered, report) = TieredStrings::recover_dir(&tmp).unwrap();
    assert!(report.is_clean(), "legacy fixture not clean: {report}");
    assert_eq!(report.generation, 0);
    assert_store_matches(&recovered, &st);
    std::fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn tiered_store_generation_fixture() {
    // `store-gen-v2` freezes the atomic-commit layout: generation-numbered
    // segments plus `manifest-g00000001.wt` as the commit point.
    let st = fixture_store();
    let dir = fixture_dir().join("store-gen-v2");
    if regen() {
        let _ = std::fs::remove_dir_all(&dir);
        st.save_dir(&dir).unwrap();
        return;
    }
    // Writer compat: every file byte-identical to a fresh save.
    let tmp = std::env::temp_dir().join(format!("wt-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    st.save_dir(&tmp).unwrap();
    let names = dir_names(&dir, "store-gen-v2");
    assert_eq!(names, dir_names(&tmp, "fresh save"), "file set changed");
    assert!(
        names.contains(&"manifest-g00000001.wt".to_string()),
        "fixture must be a generation-1 commit: {names:?}"
    );
    for name in &names {
        assert_eq!(
            std::fs::read(dir.join(name)).unwrap(),
            std::fs::read(tmp.join(name)).unwrap(),
            "store fixture file {name} changed"
        );
    }
    std::fs::remove_dir_all(&tmp).unwrap();
    // Reader compat, strict and resilient.
    let loaded = TieredStrings::load_dir(&dir).unwrap();
    assert_store_matches(&loaded, &st);
}

/// Extends the fixture store — the image a torn save *almost* committed.
fn fixture_store_next() -> TieredStrings {
    let mut st = fixture_store();
    for i in 0..12 {
        st.push(format!("http://new.example/p{i}"));
    }
    st
}

/// Writes the torn-save image into `dir`: generation 1 fully committed,
/// then a save of the extended store killed at its first segment write,
/// leaving one torn `*.tmp` behind. Deterministic (fixed fault seed).
fn write_torn_fixture(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    fixture_store().save_dir(dir).unwrap();
    // Ops 0/1 of the second save are create-dir + list; op 2 is the first
    // temp-file write — kill there, tearing the write mid-buffer.
    let faulty = FaultStorage::new(
        &FsStorage,
        FaultPlan {
            fail_from: Some(2),
            torn_writes: true,
            seed: 0x70_12_5A_FE,
            ..FaultPlan::default()
        },
    );
    let err = fixture_store_next()
        .inner()
        .save_dir_with(&faulty, dir)
        .expect_err("save must die at the injected fault");
    assert!(err.file().is_some(), "fault should name the torn file");
}

#[test]
fn tiered_store_torn_fixture() {
    // `store-torn-v2` freezes the aftermath of a crash mid-save: the old
    // committed generation plus a partial temp of the never-committed next
    // one. Both loaders must serve the OLD image — and keep doing so
    // byte-for-byte as the recovery code evolves.
    let st = fixture_store();
    let dir = fixture_dir().join("store-torn-v2");
    if regen() {
        write_torn_fixture(&dir);
        return;
    }
    let names = dir_names(&dir, "store-torn-v2");
    assert!(
        names.iter().any(|n| n.ends_with(".tmp")),
        "torn fixture must hold a partial temp: {names:?}"
    );
    // Writer compat of the torn state itself: replaying the same crash
    // reproduces the fixture exactly (same commit bytes, same torn prefix).
    let tmp = std::env::temp_dir().join(format!("wt-golden-torn-{}", std::process::id()));
    write_torn_fixture(&tmp);
    assert_eq!(names, dir_names(&tmp, "replayed torn save"));
    for name in &names {
        assert_eq!(
            std::fs::read(dir.join(name)).unwrap(),
            std::fs::read(tmp.join(name)).unwrap(),
            "torn fixture file {name} changed"
        );
    }
    // Strict load (read-only) serves the old committed generation.
    let loaded = TieredStrings::load_dir(&dir).unwrap();
    assert_store_matches(&loaded, &st);
    // Resilient load agrees, sweeps exactly the torn temp, loses nothing.
    let (recovered, report) = TieredStrings::recover_dir(&tmp).unwrap();
    assert!(report.is_clean(), "torn dir should recover clean: {report}");
    assert_eq!(report.generation, 1);
    assert_eq!(report.temps_removed.len(), 1, "{report}");
    assert_store_matches(&recovered, &st);
    // After recovery the swept dir still loads byte-compatibly: a re-save
    // of the recovered store reproduces the committed generation's bytes.
    let resaved =
        std::env::temp_dir().join(format!("wt-golden-torn-resave-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&resaved);
    recovered.save_dir(&resaved).unwrap();
    for name in dir_names(&resaved, "resaved recovery") {
        assert_eq!(
            std::fs::read(resaved.join(&name)).unwrap(),
            std::fs::read(dir.join(&name)).unwrap(),
            "recovered image diverged from the committed generation ({name})"
        );
    }
    std::fs::remove_dir_all(&tmp).unwrap();
    std::fs::remove_dir_all(&resaved).unwrap();
}
