//! Crash-safe directory persistence for [`TieredStore`]: atomic
//! generation commits, fallback loading, and self-healing recovery.
//!
//! # On-disk layout
//!
//! A store directory holds one *generation* per committed save:
//!
//! ```text
//! seg-g00000003-000.wt    sealed segment 0 of generation 3 (zero-copy archive)
//! seg-g00000003-001.log   hot segment 1 of generation 3 (string log)
//! manifest-g00000003.wt   THE commit point of generation 3
//! *.tmp                   in-flight writes; never read, swept on commit/recovery
//! ```
//!
//! This is the only layout the store reads. Images of the bare-`manifest.wt`
//! layout before it carry format version 1 or 2, and [`Archive::parse`]
//! refuses every version but [`FORMAT_VERSION`](wt_bits::persist::FORMAT_VERSION).
//!
//! # Commit protocol
//!
//! Every file lands via write-temp → fsync → rename → fsync-dir, and the
//! generation's manifest is written **last**; its rename plus directory
//! fsync is the single commit point:
//!
//! ```text
//!            ┌────────────────────────  per segment i  ───────────────────────┐
//! save:  ──▶ │ write seg.tmp ─ fsync ─ rename seg-g<G>-i ─ fsync dir │ ──▶ ...
//!            └──────────────────────────────────────────────────────────┘
//!        ──▶ write manifest.tmp ─ fsync ─ rename manifest-g<G> ─ fsync dir   ◀ COMMIT
//!        ──▶ best-effort GC: remove every store file not in generation G
//! ```
//!
//! A crash strictly before the commit point leaves the previous
//! generation fully intact (its files are only removed *after* the new
//! manifest is durable), so a reader sees the **old** image; a crash at
//! or after it (e.g. during GC) leaves the new manifest authoritative, so
//! a reader sees the **new** image. There is no third state — the
//! crash-point enumeration suite (`tests/crash_points.rs`) kills the save
//! at every operation index and checks exactly this.
//!
//! # Recovery state machine
//!
//! ```text
//!             list dir
//!                │
//!      newest manifest generation ──(read/parse fails)──▶ next older generation
//!                │ parsed                                       │ none left
//!                ▼                                              ▼
//!        load each segment                            NoCommittedGeneration
//!        │               │
//!   strict load      resilient recover
//!   any failure ▶    any failure ▶ QUARANTINE segment, keep serving the
//!   fall back to     rest; torn hot log ▶ replay the valid prefix;
//!   older gen        then sweep *.tmp, report everything
//! ```
//!
//! Both entry points read manifests with one reader and segments with one
//! loader, which names the file in every error; they differ only in what
//! they do with a segment's error. [`TieredStore::load_dir`] is the
//! strict path (all-or-nothing per generation, falls back to the last
//! fully loadable generation); [`TieredStore::recover_dir`] is the
//! resilient path (serve what survives, quarantine the rest, return a
//! [`RecoveryReport`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use wavelet_trie::{AppendWaveletTrie, SeqIndex, WaveletTrie};
use wt_bits::persist::{kind, Archive, ArchiveWriter, LoadError};
use wt_bits::storage::{tmp_path, FsStorage, RetryPolicy, RetryingStorage, Storage};
use wt_trie::BitStr;

use crate::error::{Quarantine, RecoveryReport, StoreError, StoreOp};
use crate::{Segment, StoreConfig, TieredStore};

// --- file naming -------------------------------------------------------------

/// Manifest file name of a generation.
fn manifest_name(generation: u64) -> String {
    format!("manifest-g{generation:08}.wt")
}

/// Segment file name: `.wt` archives for sealed segments, `.log` string
/// logs for hot ones.
fn segment_name(generation: u64, i: usize, sealed: bool) -> String {
    let ext = if sealed { "wt" } else { "log" };
    format!("seg-g{generation:08}-{i:03}.{ext}")
}

/// Parses a manifest file name back to its generation.
fn parse_manifest_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("manifest-g")?.strip_suffix(".wt")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Whether a file name belongs to the store's own layout (and is thus
/// fair game for garbage collection). Unknown files are never touched.
fn is_store_file(name: &str) -> bool {
    name.ends_with(".tmp")
        || parse_manifest_name(name.strip_suffix(".tmp").unwrap_or(name)).is_some()
        || (name.starts_with("seg-") && (name.ends_with(".wt") || name.ends_with(".log")))
}

// --- manifest encoding -------------------------------------------------------

/// Section 1 of a manifest holds its generation.
const SEC_GENERATION: u32 = 1;

/// Parsed manifest: its generation, the policy, the total length and the
/// segment table.
struct Manifest {
    generation: u64,
    config: StoreConfig,
    len: usize,
    /// `(sealed, length)` per segment, in sequence order.
    entries: Vec<(bool, usize)>,
}

/// Manifest tag of a hot segment (a string log).
const TAG_HOT: u64 = 0;
/// Manifest tag of a sealed level-order wavelet-trie segment.
const TAG_WAVELET: u64 = 1;

fn manifest_bytes(store: &TieredStore, generation: u64) -> Vec<u8> {
    let mut payload = vec![
        store.config.seal_at as u64,
        store.config.max_sealed as u64,
        store.len as u64,
        store.segments.len() as u64,
    ];
    for g in &store.segments {
        payload.push(if g.is_sealed() { TAG_WAVELET } else { TAG_HOT });
        payload.push(g.len() as u64);
    }
    let mut w = ArchiveWriter::new(kind::MANIFEST);
    w.section(0, payload);
    w.section(SEC_GENERATION, vec![generation]);
    w.finish()
}

/// Parses and validates a manifest image; `generation` is the value the
/// file name claims, cross-checked against the embedded one. The segment
/// count must fit the table and the segment lengths must sum to the
/// total, so no field of a checksum-valid forgery can overflow a caller's
/// arithmetic.
fn parse_manifest(bytes: &[u8], generation: u64) -> Result<Manifest, LoadError> {
    let a = Archive::parse(bytes, kind::MANIFEST)?;
    let mut r = a.section(0)?;
    let seal_at = r.read_u64()? as usize;
    let max_sealed = r.read_u64()? as usize;
    let len = r.read_u64()? as usize;
    let n_segments = r.read_u64()? as usize;
    if r.remaining() / 2 != n_segments || n_segments == 0 {
        return Err(LoadError::Invalid("manifest segment table"));
    }
    let mut entries = Vec::with_capacity(n_segments);
    for _ in 0..n_segments {
        let tag = r.read_u64()?;
        if tag > TAG_WAVELET {
            return Err(LoadError::Invalid("manifest segment tag"));
        }
        entries.push((tag == TAG_WAVELET, r.read_u64()? as usize));
    }
    r.finish()?;
    let sum = entries
        .iter()
        .try_fold(0usize, |sum, &(_, l)| sum.checked_add(l));
    if sum != Some(len) {
        return Err(LoadError::Invalid("store length vs manifest"));
    }
    let mut g = a.section(SEC_GENERATION)?;
    if g.read_u64()? != generation {
        return Err(LoadError::Invalid("manifest generation vs file name"));
    }
    g.finish()?;
    Ok(Manifest {
        generation,
        config: StoreConfig {
            seal_at,
            max_sealed,
        },
        len,
        entries,
    })
}

// --- hot-segment string logs -------------------------------------------------

/// Serializes a hot segment, append-only or dynamic, as a string log: the
/// strings in order, as one concatenated bitvector plus a length table,
/// so both forms write the same bytes. Unlike sealed segments this is not
/// zero-copy on load — the hot tail is small by policy (`seal_at`), so
/// re-appending its strings into a fresh append-only trie is cheap.
pub(crate) fn hot_log_bytes(h: &dyn SeqIndex) -> Vec<u8> {
    let mut lens: Vec<u64> = Vec::new();
    let mut concat = wt_bits::RawBitVec::new();
    for s in h.iter_seq_boxed() {
        lens.push(s.len() as u64);
        s.as_bitstr().append_into(&mut concat);
    }
    let mut payload = vec![lens.len() as u64];
    payload.extend_from_slice(&lens);
    wt_bits::Persist::encode(&concat, &mut payload);
    let mut w = ArchiveWriter::new(kind::HOT_LOG);
    w.section(0, payload);
    w.finish()
}

/// Replays a hot-segment string log written by [`hot_log_bytes`] into a
/// fresh append-only trie. With `partial`, a fault *inside* the
/// (checksum-valid) log — a bad length table entry or a prefix-free
/// violation — stops the replay and returns the valid prefix plus the
/// reason, instead of failing the whole load.
fn replay_hot_log(
    bytes: &[u8],
    partial: bool,
) -> Result<(AppendWaveletTrie, Option<&'static str>), LoadError> {
    let a = Archive::parse(bytes, kind::HOT_LOG)?;
    let mut r = a.section(0)?;
    let n = r.read_len()?;
    let lens = r.view(n)?;
    let concat: wt_bits::RawBitVec = wt_bits::Persist::decode(&mut r)?;
    r.finish()?;
    let mut h = AppendWaveletTrie::new();
    let mut start = 0usize;
    let mut stopped = None;
    for i in 0..n {
        let l = lens[i] as usize;
        if l > concat.len() - start {
            stopped = Some("hot log length table");
            break;
        }
        if h.append(BitStr::new(&concat, start, l)).is_err() {
            stopped = Some("hot log not prefix-free");
            break;
        }
        start += l;
    }
    if stopped.is_none() && start != concat.len() {
        stopped = Some("hot log length table");
    }
    match stopped {
        Some(what) if !partial => Err(LoadError::Invalid(what)),
        other => Ok((h, other)),
    }
}

// --- per-file helpers over Storage -------------------------------------------

/// Durably publishes one file, mapping each step to its [`StoreOp`] so a
/// failure names the exact file and operation.
fn put_file(storage: &dyn Storage, dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let path = dir.join(name);
    let tmp = tmp_path(&path);
    storage
        .write(&tmp, bytes)
        .map_err(|e| StoreError::io(StoreOp::Write, &tmp, e))?;
    storage
        .sync_file(&tmp)
        .map_err(|e| StoreError::io(StoreOp::SyncFile, &tmp, e))?;
    storage
        .rename(&tmp, &path)
        .map_err(|e| StoreError::io(StoreOp::Rename, &path, e))?;
    storage
        .sync_dir(dir)
        .map_err(|e| StoreError::io(StoreOp::SyncDir, dir, e))?;
    Ok(())
}

/// Default storage for the convenience entry points: the real filesystem
/// with transient-error retries.
fn default_storage() -> RetryingStorage<'static> {
    static FS: FsStorage = FsStorage;
    RetryingStorage::new(&FS, RetryPolicy::default())
}

// --- save --------------------------------------------------------------------

impl TieredStore {
    /// Persists the store into `dir` (created if needed) with an atomic
    /// generation commit (see the [module docs](self)): segments are
    /// written to temp names, fsynced and renamed; the generation's
    /// manifest is written last as the single commit point; files of
    /// older generations and stale temps are swept after the commit. A
    /// crash at any point leaves the directory loadable as either the
    /// previous image or this one.
    ///
    /// Runs on the real filesystem with transient-I/O retries; see
    /// [`TieredStore::save_dir_with`] to inject a different backend.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), StoreError> {
        self.save_dir_with(&default_storage(), dir)
    }

    /// [`TieredStore::save_dir`] against an explicit [`Storage`] backend
    /// (fault-injection harnesses pass
    /// [`FaultStorage`](wt_bits::storage::FaultStorage) here).
    pub fn save_dir_with(
        &self,
        storage: &dyn Storage,
        dir: impl AsRef<Path>,
    ) -> Result<(), StoreError> {
        let dir = dir.as_ref();
        storage
            .create_dir_all(dir)
            .map_err(|e| StoreError::io(StoreOp::CreateDir, dir, e))?;
        let committed = committed_generations(storage, dir)?;
        let generation = committed.last().map_or(1, |g| g + 1);
        let mut keep: Vec<String> = Vec::with_capacity(self.segments.len() + 1);
        for (i, g) in self.segments.iter().enumerate() {
            let (name, bytes) = match g {
                Segment::Sealed(s) => (segment_name(generation, i, true), s.save_bytes()),
                hot => (
                    segment_name(generation, i, false),
                    hot_log_bytes(hot.index()),
                ),
            };
            put_file(storage, dir, &name, &bytes)?;
            keep.push(name);
        }
        // The commit point: once this manifest's rename + dir fsync land,
        // generation `generation` is the image every loader serves.
        let mname = manifest_name(generation);
        put_file(storage, dir, &mname, &manifest_bytes(self, generation))?;
        keep.push(mname);
        // Post-commit sweep of stale generations, orphan segments and
        // temps. Best-effort by design: the commit already happened, so a
        // failure here must not fail the save — the next save or recovery
        // sweeps again.
        let _ = gc(storage, dir, &keep);
        Ok(())
    }
}

/// Removes every store-owned file not in `keep`. Unknown (non-store)
/// files are left alone. Returns the removed paths; individual removal
/// failures are skipped.
fn gc(storage: &dyn Storage, dir: &Path, keep: &[String]) -> Vec<PathBuf> {
    let Ok(names) = storage.list(dir) else {
        return Vec::new();
    };
    let mut removed = Vec::new();
    for name in names {
        if !is_store_file(&name) || keep.contains(&name) {
            continue;
        }
        let path = dir.join(&name);
        if storage.remove(&path).is_ok() {
            removed.push(path);
        }
    }
    let _ = storage.sync_dir(dir);
    removed
}

// --- load: one manifest reader, one segment loader ---------------------------

/// Committed generations present in `dir`, sorted ascending.
fn committed_generations(storage: &dyn Storage, dir: &Path) -> Result<Vec<u64>, StoreError> {
    let names = storage
        .list(dir)
        .map_err(|e| StoreError::io(StoreOp::List, dir, e))?;
    let mut gens: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_manifest_name(n))
        .collect();
    gens.sort_unstable();
    Ok(gens)
}

/// Runs `attempt` on each committed generation of `dir`, newest first,
/// and returns the first success with the number of newer generations
/// that failed. When every one fails, returns the *newest* generation's
/// error: that is the image the caller expected to read.
fn newest_generation<T>(
    storage: &dyn Storage,
    dir: &Path,
    mut attempt: impl FnMut(u64) -> Result<T, StoreError>,
) -> Result<(T, usize), StoreError> {
    let mut newest_err: Option<StoreError> = None;
    let generations = committed_generations(storage, dir)?;
    for (skipped, &generation) in generations.iter().rev().enumerate() {
        match attempt(generation) {
            Ok(t) => return Ok((t, skipped)),
            Err(e) => {
                let _ = newest_err.get_or_insert(e);
            }
        }
    }
    Err(newest_err.unwrap_or_else(|| StoreError::no_generation(dir)))
}

/// Reads and parses the manifest of `generation`.
fn read_manifest(
    storage: &dyn Storage,
    dir: &Path,
    generation: u64,
) -> Result<Manifest, StoreError> {
    let path = dir.join(manifest_name(generation));
    let bytes = storage
        .read(&path)
        .map_err(|e| StoreError::io(StoreOp::Read, &path, e))?;
    parse_manifest(&bytes, generation).map_err(|e| StoreError::format(&path, e))
}

/// Loads one segment file: a sealed archive zero-copy, or a hot string
/// log replayed into a fresh append-only trie. Its length is checked against
/// the manifest's `(sealed, len)` entry, and every error names `path`.
/// With `partial`, a hot log that replays only a prefix or disagrees with
/// the manifest still loads, and the second value says why.
fn load_segment(
    storage: &dyn Storage,
    path: &Path,
    (sealed, len): (bool, usize),
    partial: bool,
) -> Result<(Segment, Option<&'static str>), StoreError> {
    let bytes = storage
        .read(path)
        .map_err(|e| StoreError::io(StoreOp::Read, path, e))?;
    if sealed {
        let wt = WaveletTrie::load_bytes(&bytes).map_err(|e| StoreError::format(path, e))?;
        if wt.len() != len || len == 0 {
            return Err(StoreError::validate(
                path,
                "sealed segment length vs manifest",
            ));
        }
        return Ok((Segment::Sealed(Arc::new(wt)), None));
    }
    let (h, stopped) = replay_hot_log(&bytes, partial).map_err(|e| StoreError::format(path, e))?;
    let mismatch = (h.len() != len).then_some("hot segment length vs manifest");
    match stopped.or(mismatch) {
        Some(what) if !partial => Err(StoreError::validate(path, what)),
        damage => Ok((Segment::Append(Arc::new(h)), damage)),
    }
}

impl TieredStore {
    /// Loads a store directory written by [`TieredStore::save_dir`],
    /// serving the **newest fully loadable generation**: if the newest
    /// manifest or any of its segments fails to read, parse or validate,
    /// the loader falls back to the next older committed generation.
    /// All-or-nothing per generation; see [`TieredStore::recover_dir`]
    /// for the resilient, per-segment-quarantine variant, which reads
    /// through the same manifest reader and segment loader.
    ///
    /// Sealed segments load zero-copy (validate-then-view, no bitvector
    /// rebuilds); hot segments replay their string logs into fresh
    /// append-only tries, which an edit other than an append converts to
    /// the dynamic form. Segment lengths are cross-checked against the
    /// manifest.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::load_dir_with(&default_storage(), dir)
    }

    /// [`TieredStore::load_dir`] against an explicit [`Storage`] backend.
    pub fn load_dir_with(storage: &dyn Storage, dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let (store, _) = newest_generation(storage, dir, |generation| {
            let manifest = read_manifest(storage, dir, generation)?;
            let mut segments = Vec::with_capacity(manifest.entries.len());
            for (i, &entry) in manifest.entries.iter().enumerate() {
                let path = dir.join(segment_name(generation, i, entry.0));
                segments.push(load_segment(storage, &path, entry, false)?.0);
            }
            if segments.last().is_none_or(Segment::is_sealed) {
                let path = dir.join(manifest_name(generation));
                return Err(StoreError::validate(path, "store must end in a hot tail"));
            }
            Ok(TieredStore::from_parts(
                segments,
                manifest.len,
                manifest.config,
            ))
        })?;
        Ok(store)
    }

    /// Self-healing load: serves the newest generation whose *manifest*
    /// parses, validating each segment independently. Damaged segments —
    /// checksum mismatch, missing file, length mismatch — are
    /// **quarantined** (set aside; the store serves every surviving
    /// segment, in order) instead of failing the load. A torn hot log
    /// replays its valid prefix. Stale `*.tmp` files are swept. The
    /// returned [`RecoveryReport`] says exactly what happened;
    /// [`RecoveryReport::is_clean`] is true when the directory was a
    /// perfectly healthy image.
    ///
    /// Errors only when the directory cannot be listed or no manifest of
    /// any generation parses — i.e. when there is nothing to serve.
    pub fn recover_dir(dir: impl AsRef<Path>) -> Result<(Self, RecoveryReport), StoreError> {
        Self::recover_dir_with(&default_storage(), dir)
    }

    /// [`TieredStore::recover_dir`] against an explicit [`Storage`]
    /// backend.
    pub fn recover_dir_with(
        storage: &dyn Storage,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let dir = dir.as_ref();
        let (manifest, manifests_skipped) = newest_generation(storage, dir, |generation| {
            read_manifest(storage, dir, generation)
        })?;
        let mut report = RecoveryReport {
            generation: manifest.generation,
            manifests_skipped,
            ..RecoveryReport::default()
        };
        let mut segments = Vec::with_capacity(manifest.entries.len());
        for (i, &(sealed, owed)) in manifest.entries.iter().enumerate() {
            let path = dir.join(segment_name(manifest.generation, i, sealed));
            // A damaged segment is quarantined; a partly replayed hot log
            // keeps serving its prefix as well.
            let (reason, lost) = match load_segment(storage, &path, (sealed, owed), true) {
                Ok((segment, damage)) => {
                    let got = segment.len();
                    report.strings_recovered += got;
                    if !sealed {
                        report.hot_replayed += got;
                    }
                    segments.push(segment);
                    match damage {
                        Some(what) => (what.to_string(), owed.saturating_sub(got)),
                        None => continue,
                    }
                }
                Err(e) => (e.to_string(), owed),
            };
            report.strings_lost += lost;
            report.quarantined.push(Quarantine {
                file: path,
                reason,
                strings_lost: lost,
            });
        }
        // The store invariant: the segment list ends in a hot tail.
        if segments.last().is_none_or(Segment::is_sealed) {
            segments.push(Segment::new_hot());
        }
        let len = segments.iter().map(|g| g.len()).sum();
        let store = TieredStore::from_parts(segments, len, manifest.config);
        // Sweep stale temps — in-flight writes of a save that died.
        if let Ok(names) = storage.list(dir) {
            for name in names {
                if name.ends_with(".tmp") && is_store_file(&name) {
                    let path = dir.join(&name);
                    if storage.remove(&path).is_ok() {
                        report.temps_removed.push(path);
                    }
                }
            }
            let _ = storage.sync_dir(dir);
        }
        Ok((store, report))
    }
}
