//! Self-healing recovery: graceful degradation under real damage.
//!
//! Where `crash_points.rs` proves crashes alone never corrupt a committed
//! image, this suite damages committed bytes on purpose — bit rot, lost
//! files, truncation — and checks [`wt_store::TieredStore::recover_dir`]
//! degrades gracefully: serve every byte that validates, quarantine
//! exactly what doesn't, fall back a generation when the commit point
//! itself is gone, and report the whole story.

use std::path::Path;

use wavelet_trie::SeqIndex;
use wt_bits::persist::{kind, Archive, ArchiveWriter};
use wt_bits::{FaultPlan, FaultStorage, LoadError, MemFs, Storage};
use wt_store::{StoreConfig, StoreErrorCause, TieredStore};
use wt_trie::BitString;

fn encode(v: u64) -> BitString {
    BitString::from_bits((0..10).rev().map(move |k| (v >> k) & 1 != 0))
}

/// A store with several sealed segments and a non-empty hot tail.
fn sample_store() -> TieredStore {
    let mut st = TieredStore::with_config(StoreConfig {
        seal_at: 10,
        max_sealed: 8,
    });
    for i in 0..47u64 {
        st.append(encode(i).as_bitstr()).unwrap();
    }
    st
}

/// The strings a store serves, in order.
fn strings_of(st: &TieredStore) -> Vec<BitString> {
    st.iter_range_boxed(0, st.len()).collect()
}

/// Flips one byte in the middle of `name`, breaking its checksum.
fn corrupt(fs: &MemFs, dir: &Path, name: &str) {
    let path = dir.join(name);
    let mut bytes = fs.read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs.write(&path, &bytes).unwrap();
    fs.sync_file(&path).unwrap();
}

/// Sealed-segment file names of the only generation in `dir`, sorted.
fn sealed_files(fs: &MemFs, dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs
        .list_names(dir)
        .into_iter()
        .filter(|n| n.starts_with("seg-") && n.ends_with(".wt"))
        .collect();
    names.sort();
    names
}

#[test]
fn one_corrupt_sealed_segment_quarantines_exactly_that_segment() {
    // The acceptance scenario: flip a byte in one sealed segment of a
    // multi-segment directory. The resilient load serves every OTHER
    // segment's strings, in order, and reports exactly one quarantine.
    let dir = Path::new("store");
    let st = sample_store();
    let seg_lens = st.segment_lens();
    assert!(
        st.sealed_segments() >= 3,
        "want several segments to survive"
    );
    let fs = MemFs::new();
    st.save_dir_with(&fs, dir).unwrap();
    let victims = sealed_files(&fs, dir);
    // Corrupt sealed segment #1 (the second one).
    corrupt(&fs, dir, &victims[1]);
    // Strict load refuses: a damaged generation is all-or-nothing, and the
    // error names the damaged file.
    let err = TieredStore::load_dir_with(&fs, dir).expect_err("strict must fail");
    assert_eq!(err.file().unwrap(), dir.join(&victims[1]));
    assert!(matches!(err.cause(), StoreErrorCause::Format(_)), "{err}");
    assert!(!err.is_retryable(), "corruption is not transient");
    // Resilient load degrades gracefully.
    let (rec, report) = TieredStore::recover_dir_with(&fs, dir).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert_eq!(report.quarantined[0].file, dir.join(&victims[1]));
    assert_eq!(report.quarantined[0].strings_lost, seg_lens[1]);
    assert_eq!(report.strings_lost, seg_lens[1]);
    assert_eq!(rec.len(), st.len() - seg_lens[1]);
    // Every surviving string is served, in the original order.
    let mut expected = strings_of(&st);
    expected.drain(seg_lens[0]..seg_lens[0] + seg_lens[1]);
    assert_eq!(strings_of(&rec), expected, "surviving segments must serve");
    assert!(!report.is_clean());
}

#[test]
fn missing_segment_file_is_quarantined_not_fatal() {
    let dir = Path::new("store");
    let st = sample_store();
    let fs = MemFs::new();
    st.save_dir_with(&fs, dir).unwrap();
    let victims = sealed_files(&fs, dir);
    fs.remove(&dir.join(&victims[0])).unwrap();
    let (rec, report) = TieredStore::recover_dir_with(&fs, dir).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert!(report.quarantined[0].reason.contains("read"), "{report}");
    assert_eq!(rec.len() + report.strings_lost, st.len());
}

#[test]
fn torn_hot_log_replays_its_valid_prefix() {
    let dir = Path::new("store");
    let st = sample_store();
    let tail_len = *st.segment_lens().last().unwrap();
    assert!(tail_len >= 2, "need a non-trivial hot tail");
    let fs = MemFs::new();
    st.save_dir_with(&fs, dir).unwrap();
    // Rewrite the hot log with a correct archive envelope whose length
    // table over-promises: CRC passes, replay hits the table fault. This is
    // the in-payload damage a torn-then-checksum-patched log would show.
    let log_name = fs
        .list_names(dir)
        .into_iter()
        .find(|n| n.ends_with(".log"))
        .unwrap();
    // Build a half-length hot store and graft its (valid) log bytes in
    // place of the full tail: fewer strings than the manifest promises.
    let mut short = TieredStore::with_config(st.config());
    for s in strings_of(&st)
        .iter()
        .take(st.len() - tail_len + tail_len / 2)
    {
        short.append(s.as_bitstr()).unwrap();
    }
    let fs2 = MemFs::new();
    short.save_dir_with(&fs2, dir).unwrap();
    let short_log = fs2
        .list_names(dir)
        .into_iter()
        .find(|n| n.ends_with(".log"))
        .unwrap();
    let log_bytes = fs2.read(&dir.join(short_log)).unwrap();
    fs.write(&dir.join(&log_name), &log_bytes).unwrap();
    // Strict load cross-checks the manifest and refuses.
    assert!(TieredStore::load_dir_with(&fs, dir).is_err());
    // Recovery keeps the shortened tail and accounts for the loss.
    let (rec, report) = TieredStore::recover_dir_with(&fs, dir).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert_eq!(report.hot_replayed, tail_len / 2, "{report}");
    assert_eq!(report.strings_lost, tail_len - tail_len / 2, "{report}");
    assert_eq!(rec.len(), st.len() - report.strings_lost);
}

#[test]
fn corrupt_manifest_falls_back_one_generation() {
    let dir = Path::new("store");
    let old = sample_store();
    let mut new = sample_store();
    for i in 100..110u64 {
        new.append(encode(i).as_bitstr()).unwrap();
    }
    // Build a directory holding BOTH generations: kill the second save
    // during its post-commit sweep (searching from the last op backwards
    // for the first crash point that leaves both manifests).
    let mut both: Option<MemFs> = None;
    let total = {
        let fs = MemFs::new();
        old.save_dir_with(&fs, dir).unwrap();
        let counter = FaultStorage::new(&fs, FaultPlan::default());
        new.save_dir_with(&counter, dir).unwrap();
        counter.ops()
    };
    for k in (0..=total).rev() {
        let fs = MemFs::with_seed(k);
        old.save_dir_with(&fs, dir).unwrap();
        let faulty = FaultStorage::new(
            &fs,
            FaultPlan {
                fail_from: Some(k),
                ..FaultPlan::default()
            },
        );
        let _ = new.save_dir_with(&faulty, dir);
        let names = fs.list_names(dir);
        if names.iter().any(|n| n == "manifest-g00000001.wt")
            && names.iter().any(|n| n == "manifest-g00000002.wt")
        {
            both = Some(fs);
            break;
        }
    }
    let fs = both.expect("some crash point leaves both generations");
    // Sanity: with both generations intact, the newest wins.
    assert_eq!(
        TieredStore::load_dir_with(&fs, dir).unwrap().len(),
        new.len()
    );
    // Now lose generation 2's commit point.
    corrupt(&fs, dir, "manifest-g00000002.wt");
    let loaded = TieredStore::load_dir_with(&fs, dir).unwrap();
    assert_eq!(loaded.len(), old.len(), "strict load must fall back");
    let (rec, report) = TieredStore::recover_dir_with(&fs, dir).unwrap();
    assert_eq!(report.generation, 1, "{report}");
    assert_eq!(report.manifests_skipped, 1, "{report}");
    assert_eq!(rec.len(), old.len());
    assert_eq!(strings_of(&rec), strings_of(&old));
}

#[test]
fn recovery_quarantine_then_resave_is_stable() {
    // Damage → recover → save → load: the healed image is a first-class
    // committed generation with nothing left to heal.
    let dir = Path::new("store");
    let st = sample_store();
    let fs = MemFs::new();
    st.save_dir_with(&fs, dir).unwrap();
    let victims = sealed_files(&fs, dir);
    corrupt(&fs, dir, &victims[2]);
    let (rec, r1) = TieredStore::recover_dir_with(&fs, dir).unwrap();
    assert!(!r1.is_clean());
    rec.save_dir_with(&fs, dir).unwrap();
    let (again, r2) = TieredStore::recover_dir_with(&fs, dir).unwrap();
    assert!(r2.is_clean(), "healed image must recover clean: {r2}");
    assert_eq!(strings_of(&again), strings_of(&rec));
    assert_eq!(
        TieredStore::load_dir_with(&fs, dir).unwrap().len(),
        rec.len(),
        "strict load accepts the healed image"
    );
}

#[test]
fn empty_or_foreign_directory_reports_no_generation() {
    let dir = Path::new("store");
    let fs = MemFs::new();
    fs.create_dir_all(dir).unwrap();
    fs.write(&dir.join("notes.txt"), b"not a store").unwrap();
    let err = TieredStore::load_dir_with(&fs, dir).expect_err("nothing committed");
    assert!(
        matches!(err.cause(), StoreErrorCause::NoCommittedGeneration),
        "{err}"
    );
    assert!(TieredStore::recover_dir_with(&fs, dir).is_err());
}

#[test]
fn retired_path_decomposed_segment_fails_typed_and_quarantines() {
    // Manifest tag 2 once named a path-decomposed sealed segment. That
    // representation is gone, but the tag stays reserved: a directory
    // still holding such a segment must fail with a typed error naming the
    // file, never be misread, and recovery must set aside only it.
    let dir = Path::new("store");
    let st = sample_store();
    let seg_lens = st.segment_lens();
    let fs = MemFs::new();
    st.save_dir_with(&fs, dir).unwrap();
    let victim = dir.join(&sealed_files(&fs, dir)[1]);

    // Re-tag segment 1 in the manifest. Payload layout: seal_at,
    // max_sealed, total length, segment count, then (tag, length) pairs.
    let mpath = dir.join("manifest-g00000001.wt");
    let manifest = Archive::parse(&fs.read(&mpath).unwrap(), kind::MANIFEST).unwrap();
    let mut r = manifest.section(0).unwrap();
    let mut payload: Vec<u64> = (0..r.remaining()).map(|_| r.read_u64().unwrap()).collect();
    assert_eq!(payload[4 + 2], 1, "segment 1 is a sealed wavelet trie");
    payload[4 + 2] = 2;
    let mut w = ArchiveWriter::new(kind::MANIFEST);
    w.section(0, payload);
    w.section(1, vec![1]);
    fs.write(&mpath, &w.finish()).unwrap();
    // The segment file holds an archive of the retired kind.
    let mut pd = ArchiveWriter::new(kind::PATH_DECOMP);
    pd.section(0, vec![seg_lens[1] as u64]);
    fs.write(&victim, &pd.finish()).unwrap();

    let err = TieredStore::load_dir_with(&fs, dir).expect_err("retired kind must not load");
    assert_eq!(err.file().unwrap(), victim);
    assert!(
        matches!(
            err.cause(),
            StoreErrorCause::Format(LoadError::WrongKind { expected, found })
                if *expected == kind::WAVELET_TRIE && *found == kind::PATH_DECOMP
        ),
        "{err}"
    );

    let (rec, report) = TieredStore::recover_dir_with(&fs, dir).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{report}");
    assert_eq!(report.quarantined[0].file, victim);
    assert_eq!(report.strings_lost, seg_lens[1]);
    let mut expected = strings_of(&st);
    expected.drain(seg_lens[0]..seg_lens[0] + seg_lens[1]);
    assert_eq!(
        strings_of(&rec),
        expected,
        "the other segments keep serving"
    );
}
