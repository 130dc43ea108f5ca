//! Self-healing recovery: graceful degradation under real damage.
//!
//! Where `crash_points.rs` proves crashes alone never corrupt a committed
//! image, this suite damages committed bytes on purpose — bit rot, lost
//! files, truncation — and checks [`wt_store::TieredStore::recover_dir`]
//! degrades gracefully: serve every byte that validates, quarantine
//! exactly what doesn't, fall back a generation when the commit point
//! itself is gone, and report the whole story. Checksum-valid forged
//! manifests never panic either loader, and a directory of an earlier
//! format gets a typed error from both.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{SeqIndex, WaveletTrie};
use wt_bits::persist::{kind, Archive, ArchiveWriter, FORMAT_VERSION};
use wt_bits::{FaultPlan, FaultStorage, LoadError, MemFs, Storage};
use wt_store::{StoreConfig, StoreErrorCause, TieredStore};
use wt_trie::BitString;
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::xorshift;

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

/// Segment file names of the only generation in `dir`, in segment order.
fn segment_files(fs: &MemFs, dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs
        .list_names(dir)
        .into_iter()
        .filter(|n| n.starts_with("seg-"))
        .collect();
    names.sort();
    names
}

/// Damages every segment file of `sample_store()`, sealed and hot, in turn
/// with `damage` ("flip", "truncate" or "delete"). The strict load refuses
/// and names the file; the resilient load quarantines exactly that file,
/// counts its strings as lost, and serves every other segment's strings in
/// order.
fn damage_each_segment(damage: &str) {
    let dir = Path::new("store");
    let st = sample_store();
    let seg_lens = st.segment_lens();
    assert_eq!(st.sealed_segments(), 4, "want several segments to survive");
    let saved = MemFs::new();
    st.save_dir_with(&saved, dir).unwrap();
    let files = segment_files(&saved, dir);
    assert_eq!(files.len(), seg_lens.len());
    for (i, name) in files.iter().enumerate() {
        let victim = dir.join(name);
        let fs = saved.fork();
        match damage {
            "flip" => corrupt(&fs, dir, name),
            "truncate" => {
                let bytes = fs.read(&victim).unwrap();
                fs.write(&victim, &bytes[..bytes.len() / 2]).unwrap();
            }
            _ => fs.remove(&victim).unwrap(),
        }
        let case = format!("{damage} {name}");
        let err = TieredStore::load_dir_with(&fs, dir).expect_err(&case);
        assert_eq!(err.file(), Some(victim.as_path()), "{case}: {err}");
        assert!(!err.is_retryable(), "{case}: damage is not transient");
        let (rec, report) = TieredStore::recover_dir_with(&fs, dir).unwrap();
        assert_eq!(report.quarantined.len(), 1, "{case}: {report}");
        let q = &report.quarantined[0];
        assert_eq!(q.file, victim, "{case}");
        if damage == "delete" {
            assert!(matches!(err.cause(), StoreErrorCause::Io(_)), "{case}");
            assert!(q.reason.contains("read"), "{case}: {report}");
        } else {
            assert!(matches!(err.cause(), StoreErrorCause::Format(_)), "{case}");
        }
        assert_eq!(q.strings_lost, seg_lens[i], "{case}");
        assert_eq!(report.strings_lost, seg_lens[i], "{case}");
        assert!(!report.is_clean(), "{case}");
        let start: usize = seg_lens[..i].iter().sum();
        let mut expected = strings_of(&st);
        expected.drain(start..start + seg_lens[i]);
        assert_eq!(strings_of(&rec), expected, "{case}: survivors must serve");
    }
}

#[test]
fn one_corrupt_sealed_segment_quarantines_exactly_that_segment() {
    damage_each_segment("flip");
    damage_each_segment("truncate");
}

#[test]
fn missing_segment_file_is_quarantined_not_fatal() {
    damage_each_segment("delete");
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
    corrupt(&fs, dir, &segment_files(&fs, dir)[2]);
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
fn earlier_format_directory_never_reaches_the_segment_loader() {
    // Every file of a directory written at an earlier format version
    // carries that version; the version gate runs before the checksums,
    // so the manifest is refused before any segment is read.
    let dir = Path::new("store");
    let fs = MemFs::new();
    sample_store().save_dir_with(&fs, dir).unwrap();
    let old = FORMAT_VERSION - 1;
    for name in fs.list_names(dir) {
        let path = dir.join(name);
        let mut bytes = fs.read(&path).unwrap();
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        fs.write(&path, &bytes).unwrap();
    }
    let manifest = dir.join("manifest-g00000001.wt");
    let err = TieredStore::load_dir_with(&fs, dir).expect_err("old format must not load");
    assert_eq!(err.file(), Some(manifest.as_path()));
    assert!(
        matches!(
            err.cause(),
            StoreErrorCause::Format(LoadError::UnsupportedVersion { found }) if *found == old
        ),
        "{err}"
    );
    let err = TieredStore::recover_dir_with(&fs, dir).expect_err("old format must not recover");
    assert_eq!(err.file(), Some(manifest.as_path()));
}

#[test]
fn checksum_valid_manifest_mutants_never_panic() {
    // Manifests with 1–3 words of the policy-and-segment-table section
    // replaced by boundary values or random words, re-wrapped so every
    // checksum passes. Both loaders must answer with a store or a typed
    // error: a strict load that succeeds serves the saved strings exactly,
    // and a recovered store serves a subsequence of them.
    let dir = Path::new("store");
    let st = sample_store();
    let expected = strings_of(&st);
    let fs = MemFs::new();
    st.save_dir_with(&fs, dir).unwrap();
    let mpath = dir.join("manifest-g00000001.wt");
    let manifest = Archive::parse(&fs.read(&mpath).unwrap(), kind::MANIFEST).unwrap();
    let mut r = manifest.section(0).unwrap();
    let words: Vec<u64> = (0..r.remaining()).map(|_| r.read_u64().unwrap()).collect();
    let mut rnd = xorshift(0x03A7_FE57);
    for round in 0..4000 {
        let mut mutant = words.clone();
        for _ in 0..1 + rnd() % 3 {
            let at = (rnd() % mutant.len() as u64) as usize;
            let real = words[at];
            mutant[at] = match rnd() % 8 {
                0 => 0,
                1 => 1,
                2 => real.wrapping_add(1),
                3 => real.wrapping_sub(1),
                4 => 1 << 63,
                5 => real ^ 1 << 63,
                6 => u64::MAX,
                _ => rnd(),
            };
        }
        let mut w = ArchiveWriter::new(kind::MANIFEST);
        w.section(0, mutant.clone());
        w.section(1, vec![1]);
        fs.write(&mpath, &w.finish()).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(loaded) = TieredStore::load_dir_with(&fs, dir) {
                assert_eq!(strings_of(&loaded), expected);
            }
            if let Ok((rec, report)) = TieredStore::recover_dir_with(&fs, dir) {
                assert_eq!(rec.len(), report.strings_recovered);
                let mut rest = expected.iter();
                assert!(strings_of(&rec).iter().all(|s| rest.any(|e| e == s)));
            }
        }));
        assert!(outcome.is_ok(), "round {round}: manifest words {mutant:?}");
    }
}

/// The sections of an archive image, as (tag, payload words) in table
/// order.
fn sections_of(image: &[u8]) -> Vec<(u32, Vec<u64>)> {
    let words: Vec<u64> = image
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let payload_start = 5 + 4 * words[2] as usize;
    (0..words[2] as usize)
        .map(|k| {
            let (tag, offset, len) = (words[4 + 4 * k], words[5 + 4 * k], words[6 + 4 * k]);
            let start = payload_start + offset as usize;
            (tag as u32, words[start..start + len as usize].to_vec())
        })
        .collect()
}

/// `mutants` images of one static trie over 3,000 URLs, each with 1–3
/// payload words replaced by a random word, a one-bit flip or zero and
/// every checksum refixed. A mutant loads or gets a typed error; one that
/// loads must rank each string it returns like an oracle over its own
/// sequence: `rank(access(i), i + 1)` is the occurrences of `access(i)`
/// among `access(0..=i)`, so at least 1. Every position is asked through
/// the batch entry points, every 64th through the scalar ones too.
/// Returns how many mutants loaded.
fn payload_mutants_answer_like_their_own_sequence(seed: u64, mutants: usize) -> usize {
    let coder = NinthBitCoder;
    let urls = url_log(3000, UrlLogConfig::default(), 0x0A11);
    let encoded: Vec<BitString> = urls.iter().map(|u| coder.encode(u.as_bytes())).collect();
    let sections = sections_of(&WaveletTrie::build(&encoded).unwrap().save_bytes());
    let payload_words: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut rnd = xorshift(seed);
    let mut loaded = 0;
    for round in 0..mutants {
        let mut mutant = sections.clone();
        for _ in 0..1 + rnd() % 3 {
            let mut at = (rnd() % payload_words as u64) as usize;
            let mut k = 0;
            while at >= mutant[k].1.len() {
                at -= mutant[k].1.len();
                k += 1;
            }
            let payload = &mut mutant[k].1;
            payload[at] = match rnd() % 3 {
                0 => rnd(),
                1 => payload[at] ^ 1 << (rnd() % 64),
                _ => 0,
            };
        }
        let mut w = ArchiveWriter::new(kind::WAVELET_TRIE);
        for (tag, payload) in &mutant {
            w.section(*tag, payload.clone());
        }
        let bytes = w.finish();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(wt) = WaveletTrie::load_bytes(&bytes) else {
                return false;
            };
            let positions: Vec<usize> = (0..wt.len()).collect();
            let seq = wt.access_batch(&positions);
            let queries: Vec<_> = (0..seq.len())
                .map(|i| (seq[i].as_bitstr(), i + 1))
                .collect();
            let ranks = wt.rank_batch(&queries);
            let mut seen: HashMap<&BitString, usize> = HashMap::new();
            for (i, (s, rank)) in seq.iter().zip(ranks).enumerate() {
                let count = seen.entry(s).or_default();
                *count += 1;
                assert_eq!(rank, *count, "rank_batch(access({i}), {})", i + 1);
                if i % 64 == 0 {
                    assert_eq!(&wt.access(i), s, "access({i})");
                    assert_eq!(wt.rank(s.as_bitstr(), i + 1), *count, "rank at {i}");
                }
            }
            true
        }));
        match outcome {
            Ok(true) => loaded += 1,
            Ok(false) => {}
            Err(_) => panic!("seed {seed:#x} round {round}: a mutant panicked"),
        }
    }
    loaded
}

// Two halves of 1,500 mutants each, so the harness runs them side by side.

#[test]
fn checksum_valid_payload_mutants_never_panic() {
    let loaded = payload_mutants_answer_like_their_own_sequence(0x9A7_10AD, 1500);
    // Label words and padding may change freely; most mutants must not load.
    assert!(
        loaded > 0 && loaded < 750,
        "{loaded} of 1,500 mutants loaded"
    );
}

#[test]
fn checksum_valid_payload_mutants_never_panic_second_half() {
    let loaded = payload_mutants_answer_like_their_own_sequence(0x9A7_10AE, 1500);
    assert!(
        loaded > 0 && loaded < 750,
        "{loaded} of 1,500 mutants loaded"
    );
}
