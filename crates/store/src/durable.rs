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
//! (The pre-generation layout — bare `manifest.wt` + `seg-NNN.*` — is
//! read as generation 0, so PR 6 images keep loading.)
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
//!   any failure ▶    checksum failure / missing file ▶ QUARANTINE segment,
//!   fall back to     keep serving the rest; torn hot log ▶ replay the
//!   older gen        valid prefix; then sweep *.tmp, report everything
//! ```
//!
//! [`TieredStore::load_dir`] is the strict path (all-or-nothing per
//! generation, falls back to the last fully loadable generation);
//! [`TieredStore::recover_dir`] is the resilient path (serve what
//! survives, quarantine the rest, return a [`RecoveryReport`]).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use wavelet_trie::{DynamicWaveletTrie, SeqIndex, WaveletTrie};
use wt_bits::persist::{kind, Archive, ArchiveWriter, LoadError};
use wt_bits::storage::{tmp_path, FsStorage, RetryPolicy, RetryingStorage, Storage};
use wt_trie::BitStr;

use crate::error::{Quarantine, RecoveryReport, StoreError, StoreOp};
use crate::{Segment, StoreConfig, TieredStore};

// --- file naming -------------------------------------------------------------

/// Manifest file name of a generation (`manifest.wt` is the legacy,
/// generation-0 layout of PR 6 images).
fn manifest_name(generation: u64) -> String {
    if generation == 0 {
        TieredStore::MANIFEST_FILE.to_string()
    } else {
        format!("manifest-g{generation:08}.wt")
    }
}

/// Segment file name: `.wt` archives for sealed segments, `.log` string
/// logs for hot ones.
fn segment_name(generation: u64, i: usize, sealed: bool) -> String {
    let ext = if sealed { "wt" } else { "log" };
    if generation == 0 {
        format!("seg-{i:03}.{ext}")
    } else {
        format!("seg-g{generation:08}-{i:03}.{ext}")
    }
}

/// Parses a manifest file name back to its generation.
fn parse_manifest_name(name: &str) -> Option<u64> {
    if name == TieredStore::MANIFEST_FILE {
        return Some(0);
    }
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

/// Section 1 of a generation-numbered manifest holds the generation; the
/// legacy layout has only section 0.
const SEC_GENERATION: u32 = 1;

/// Parsed manifest: policy, total length, and the segment table.
struct ManifestData {
    config: StoreConfig,
    total_len: usize,
    /// `(tag, length)` per segment, in sequence order.
    entries: Vec<(u64, usize)>,
}

/// Manifest tag of a hot segment (a string log).
const TAG_HOT: u64 = 0;
/// Manifest tag of a sealed level-order wavelet-trie segment.
const TAG_WAVELET: u64 = 1;
/// Retired manifest tag of a path-decomposed sealed segment. Still parsed,
/// so that such a segment fails to load with a typed error naming its file
/// (and [`TieredStore::recover_dir`] quarantines just that segment), but
/// never written.
const TAG_PATH_DECOMP: u64 = 2;

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
/// file name claims, cross-checked against the embedded one.
fn parse_manifest(bytes: &[u8], generation: u64) -> Result<ManifestData, LoadError> {
    let a = Archive::parse(bytes, kind::MANIFEST)?;
    let mut r = a.section(0)?;
    let seal_at = r.read_u64()? as usize;
    let max_sealed = r.read_u64()? as usize;
    let total_len = r.read_u64()? as usize;
    let n_segments = r.read_u64()? as usize;
    if r.remaining() != 2 * n_segments || n_segments == 0 {
        return Err(LoadError::Invalid("manifest segment table"));
    }
    let mut entries = Vec::with_capacity(n_segments);
    for _ in 0..n_segments {
        let tag = r.read_u64()?;
        if tag > TAG_PATH_DECOMP {
            return Err(LoadError::Invalid("manifest segment tag"));
        }
        entries.push((tag, r.read_u64()? as usize));
    }
    r.finish()?;
    if generation > 0 {
        let mut g = a.section(SEC_GENERATION)?;
        if g.read_u64()? != generation {
            return Err(LoadError::Invalid("manifest generation vs file name"));
        }
        g.finish()?;
    }
    Ok(ManifestData {
        config: StoreConfig {
            seal_at,
            max_sealed,
        },
        total_len,
        entries,
    })
}

// --- hot-segment string logs -------------------------------------------------

/// Serializes a hot segment as a string log: the strings in order, as one
/// concatenated bitvector plus a length table. Unlike sealed segments this
/// is not zero-copy on load — the hot tail is small by policy (`seal_at`),
/// so re-appending its strings into a fresh dynamic trie is cheap.
fn hot_log_bytes(h: &DynamicWaveletTrie) -> Vec<u8> {
    let mut lens: Vec<u64> = Vec::new();
    let mut concat = wt_bits::RawBitVec::new();
    for s in h.iter_range_boxed(0, SeqIndex::seq_len(h)) {
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

/// Replays a hot-segment string log written by [`hot_log_bytes`]. With
/// `partial`, a fault *inside* the (checksum-valid) log — a bad length
/// table entry or a prefix-free violation — stops the replay and returns
/// the valid prefix plus the reason, instead of failing the whole load.
fn replay_hot_log(
    bytes: &[u8],
    partial: bool,
) -> Result<(DynamicWaveletTrie, Option<&'static str>), LoadError> {
    let a = Archive::parse(bytes, kind::HOT_LOG)?;
    let mut r = a.section(0)?;
    let n = r.read_len()?;
    let lens = r.view(n)?;
    let concat: wt_bits::RawBitVec = wt_bits::Persist::decode(&mut r)?;
    r.finish()?;
    let mut h = DynamicWaveletTrie::new();
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
    /// Name of the manifest file in the **legacy** (generation-0) layout;
    /// still recognized by [`TieredStore::load_dir`]. Generation-numbered
    /// saves write `manifest-g<NNNNNNNN>.wt` instead.
    pub const MANIFEST_FILE: &'static str = "manifest.wt";

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
        let names = storage
            .list(dir)
            .map_err(|e| StoreError::io(StoreOp::List, dir, e))?;
        let committed = names.iter().filter_map(|n| parse_manifest_name(n)).max();
        let generation = committed.map_or(1, |g| g + 1);
        let mut keep: Vec<String> = Vec::with_capacity(self.segments.len() + 1);
        for (i, g) in self.segments.iter().enumerate() {
            let (name, bytes) = match g {
                Segment::Sealed(s) => (segment_name(generation, i, true), s.save_bytes()),
                Segment::Hot(h) => (segment_name(generation, i, false), hot_log_bytes(h)),
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

// --- strict load -------------------------------------------------------------

impl TieredStore {
    /// Loads a store directory written by [`TieredStore::save_dir`],
    /// serving the **newest fully loadable generation**: if the newest
    /// manifest or any of its segments fails to read, parse or validate,
    /// the loader falls back to the next older committed generation.
    /// All-or-nothing per generation; see [`TieredStore::recover_dir`]
    /// for the resilient, per-segment-quarantine variant.
    ///
    /// Sealed segments load zero-copy (validate-then-view, no bitvector
    /// rebuilds); hot segments replay their string logs into fresh dynamic
    /// tries. Segment lengths are cross-checked against the manifest.
    /// Legacy (PR 6) directories load as generation 0.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::load_dir_with(&default_storage(), dir)
    }

    /// [`TieredStore::load_dir`] against an explicit [`Storage`] backend.
    pub fn load_dir_with(storage: &dyn Storage, dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let mut generations = committed_generations(storage, dir)?;
        let mut newest_err: Option<StoreError> = None;
        while let Some(generation) = generations.pop() {
            match load_generation(storage, dir, generation) {
                Ok(store) => return Ok(store),
                // Remember the *newest* generation's failure — that is
                // the image the caller expected to read.
                Err(e) => {
                    let _ = newest_err.get_or_insert(e);
                }
            }
        }
        Err(newest_err.unwrap_or_else(|| StoreError::no_generation(dir)))
    }
}

/// Loads a sealed segment archive. A segment tagged with the retired
/// path-decomposed kind fails with `WrongKind`, whatever its bytes hold.
fn load_sealed(tag: u64, bytes: &[u8]) -> Result<WaveletTrie, LoadError> {
    if tag == TAG_PATH_DECOMP {
        return Err(LoadError::WrongKind {
            expected: kind::WAVELET_TRIE,
            found: kind::PATH_DECOMP,
        });
    }
    WaveletTrie::load_bytes(bytes)
}

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

/// Strictly loads one committed generation: every file must read, parse
/// and cross-validate.
fn load_generation(
    storage: &dyn Storage,
    dir: &Path,
    generation: u64,
) -> Result<TieredStore, StoreError> {
    let mpath = dir.join(manifest_name(generation));
    let bytes = storage
        .read(&mpath)
        .map_err(|e| StoreError::io(StoreOp::Read, &mpath, e))?;
    let manifest = parse_manifest(&bytes, generation).map_err(|e| StoreError::format(&mpath, e))?;
    let mut segments = Vec::with_capacity(manifest.entries.len());
    let mut sum = 0usize;
    for (i, &(tag, seg_len)) in manifest.entries.iter().enumerate() {
        let sealed = tag != TAG_HOT;
        let spath = dir.join(segment_name(generation, i, sealed));
        let bytes = storage
            .read(&spath)
            .map_err(|e| StoreError::io(StoreOp::Read, &spath, e))?;
        if sealed {
            let wt = load_sealed(tag, &bytes).map_err(|e| StoreError::format(&spath, e))?;
            if wt.len() != seg_len || seg_len == 0 {
                return Err(StoreError::validate(
                    &spath,
                    "sealed segment length vs manifest",
                ));
            }
            segments.push(Segment::Sealed(Arc::new(wt)));
        } else {
            let (h, _) =
                replay_hot_log(&bytes, false).map_err(|e| StoreError::format(&spath, e))?;
            if SeqIndex::seq_len(&h) != seg_len {
                return Err(StoreError::validate(
                    &spath,
                    "hot segment length vs manifest",
                ));
            }
            segments.push(Segment::Hot(Arc::new(h)));
        }
        sum = sum
            .checked_add(seg_len)
            .ok_or_else(|| StoreError::validate(&mpath, "manifest segment lengths overflow"))?;
    }
    if sum != manifest.total_len {
        return Err(StoreError::validate(&mpath, "store length vs manifest"));
    }
    if !matches!(segments.last(), Some(Segment::Hot(_))) {
        return Err(StoreError::validate(&mpath, "store must end in a hot tail"));
    }
    Ok(TieredStore::from_parts(segments, sum, manifest.config))
}

// --- resilient recovery ------------------------------------------------------

impl TieredStore {
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
        let mut generations = committed_generations(storage, dir)?;
        if generations.is_empty() {
            return Err(StoreError::no_generation(dir));
        }
        let mut report = RecoveryReport::default();
        let mut newest_err: Option<StoreError> = None;
        let mut chosen: Option<(u64, ManifestData)> = None;
        while let Some(generation) = generations.pop() {
            let mpath = dir.join(manifest_name(generation));
            let attempt = storage
                .read(&mpath)
                .map_err(|e| StoreError::io(StoreOp::Read, &mpath, e))
                .and_then(|bytes| {
                    parse_manifest(&bytes, generation).map_err(|e| StoreError::format(&mpath, e))
                });
            match attempt {
                Ok(m) => {
                    chosen = Some((generation, m));
                    break;
                }
                Err(e) => {
                    let _ = newest_err.get_or_insert(e);
                    report.manifests_skipped += 1;
                }
            }
        }
        let Some((generation, manifest)) = chosen else {
            return Err(newest_err.unwrap_or_else(|| StoreError::no_generation(dir)));
        };
        report.generation = generation;
        let mut segments: Vec<Segment> = Vec::with_capacity(manifest.entries.len());
        for (i, &(tag, seg_len)) in manifest.entries.iter().enumerate() {
            let sealed = tag != TAG_HOT;
            let spath = dir.join(segment_name(generation, i, sealed));
            let bytes = match storage.read(&spath) {
                Ok(b) => b,
                Err(e) => {
                    report.quarantined.push(Quarantine {
                        file: spath,
                        reason: format!("read: {e}"),
                        strings_lost: seg_len,
                    });
                    report.strings_lost += seg_len;
                    continue;
                }
            };
            if sealed {
                match load_sealed(tag, &bytes) {
                    Ok(wt) if wt.len() == seg_len && seg_len > 0 => {
                        report.strings_recovered += seg_len;
                        segments.push(Segment::Sealed(Arc::new(wt)));
                    }
                    Ok(_) => {
                        report.quarantined.push(Quarantine {
                            file: spath,
                            reason: "sealed segment length vs manifest".to_string(),
                            strings_lost: seg_len,
                        });
                        report.strings_lost += seg_len;
                    }
                    Err(e) => {
                        report.quarantined.push(Quarantine {
                            file: spath,
                            reason: e.to_string(),
                            strings_lost: seg_len,
                        });
                        report.strings_lost += seg_len;
                    }
                }
            } else {
                match replay_hot_log(&bytes, true) {
                    Ok((h, stopped)) => {
                        let got = SeqIndex::seq_len(&h);
                        let lost = seg_len.saturating_sub(got);
                        if lost > 0 || stopped.is_some() || got > seg_len {
                            report.quarantined.push(Quarantine {
                                file: spath,
                                reason: stopped
                                    .unwrap_or("hot segment length vs manifest")
                                    .to_string(),
                                strings_lost: lost,
                            });
                        }
                        report.strings_lost += lost;
                        report.strings_recovered += got;
                        report.hot_replayed += got;
                        segments.push(Segment::Hot(Arc::new(h)));
                    }
                    Err(e) => {
                        report.quarantined.push(Quarantine {
                            file: spath,
                            reason: e.to_string(),
                            strings_lost: seg_len,
                        });
                        report.strings_lost += seg_len;
                    }
                }
            }
        }
        // The store invariant: the segment list ends in a hot tail.
        if !matches!(segments.last(), Some(Segment::Hot(_))) {
            segments.push(Segment::Hot(Arc::new(DynamicWaveletTrie::new())));
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
