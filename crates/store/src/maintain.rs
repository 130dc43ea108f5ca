//! Panic-contained background maintenance: seal, compact, persist,
//! publish — with structured failure reporting and retries.
//!
//! Maintenance is the housekeeping half of the store's write path: freeze
//! hot segments into static ones ([`TieredStore::seal`]), bound the
//! segment count by merging ([`TieredStore::compact`]), persist through
//! the [`Storage`] stack, and publish the result as a new epoch for
//! concurrent readers. Each of those is decomposed here into enumerable
//! [`MaintenanceStep`]s, and every step runs under
//! [`std::panic::catch_unwind`] so that **no failure mode — I/O error or
//! outright panic — can poison the store or disturb readers**:
//!
//! * Heavy work (freezing, merging) happens on private data *before* any
//!   store state changes; the *install* of each result is a separate,
//!   panic-free single assignment. A panic during heavy work therefore
//!   aborts only that step's result, and a panic injected at an install
//!   boundary (via [`MaintenanceProbe`]) fires before the assignment —
//!   the store is always either pre-step or post-step, never torn.
//! * The previous published epoch keeps serving bit-identically until the
//!   final `Publish` step succeeds; a failure anywhere earlier means
//!   readers simply never see the half-finished pass.
//! * Failures are collected into a [`MaintenanceReport`] (the degraded-
//!   mode mirror of [`RecoveryReport`](crate::RecoveryReport)): what got
//!   sealed/merged/saved/published, and a [`MaintenanceFailure`] per step
//!   that didn't.
//! * [`TieredStore::maintain_with`] retries failed passes on the same
//!   sleep schedule the storage stack uses ([`RetryPolicy::backoffs`]),
//!   including its total-elapsed cap.
//!
//! Every step runs on the thread that called `maintain_with`.
//!
//! The deterministic interleave harness (`tests/interleave.rs`) drives a
//! probe that panics at every enumerated step in turn — and a
//! [`FaultStorage`](wt_bits::storage::FaultStorage) that fails every save
//! I/O in turn — and checks the invariants above hold at each boundary.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use wavelet_trie::{AppendWaveletTrie, SequenceOps};
use wt_bits::storage::{RetryPolicy, Storage};

use crate::error::StoreError;
use crate::{Segment, TieredStore};

use self::MaintenanceStep::*;

/// One enumerable unit of a maintenance pass, in execution order. The
/// `segment`/`left` payloads index the store's segment list at the time
/// the step runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MaintenanceStep {
    /// Freeze hot segment `segment` into a static trie (heavy, read-only).
    Freeze { segment: usize },
    /// Install the frozen result over segment `segment` (single assignment).
    InstallFrozen { segment: usize },
    /// Merge sealed segments `left` and `left + 1` (heavy, read-only).
    Merge { left: usize },
    /// Install the merged segment over `left`, dropping `left + 1`.
    InstallMerged { left: usize },
    /// Persist the store via the configured [`Storage`] backend.
    Save,
    /// Publish the new epoch to readers.
    Publish,
}

impl fmt::Display for MaintenanceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Freeze { segment } => write!(f, "freeze(segment {segment})"),
            InstallFrozen { segment } => write!(f, "install-frozen(segment {segment})"),
            Merge { left } => write!(f, "merge(segments {left}+{})", left + 1),
            InstallMerged { left } => write!(f, "install-merged(segments {left}+{})", left + 1),
            Save => write!(f, "save"),
            Publish => write!(f, "publish"),
        }
    }
}

/// Observation/injection hook called at the start of every
/// [`MaintenanceStep`], on the thread running the pass. Probes are
/// `Sync`, so one probe may watch stores maintained on different
/// threads. A probe that **panics** models a fault at exactly that
/// step — the panic is contained and reported, never propagated; the
/// interleave harness uses this to enumerate every failure point.
pub trait MaintenanceProbe: Sync {
    /// Called immediately before the step's effect.
    fn step(&self, step: MaintenanceStep);
}

/// The default probe: observes nothing, injects nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoProbe;

impl MaintenanceProbe for NoProbe {
    fn step(&self, _step: MaintenanceStep) {}
}

/// Why one maintenance step failed. Collected (not thrown) — the pass
/// continues with the steps that can still make progress.
///
/// `Clone` + [`std::error::Error`]: a health layer can hold onto the
/// failure, thread it through error-reporting stacks, and surface it
/// later without stringly plumbing.
#[derive(Clone, Debug)]
pub enum MaintenanceFailure {
    /// The step panicked; the panic was contained by `catch_unwind`.
    Panicked {
        step: MaintenanceStep,
        /// The panic payload, if it was a string (the common case).
        message: String,
    },
    /// The `Save` step failed with a storage error.
    Save(StoreError),
}

impl MaintenanceFailure {
    pub(crate) fn panicked(step: MaintenanceStep, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        MaintenanceFailure::Panicked { step, message }
    }

    /// The step that failed (`Save` for storage errors).
    pub fn step(&self) -> MaintenanceStep {
        match self {
            MaintenanceFailure::Panicked { step, .. } => *step,
            MaintenanceFailure::Save(_) => Save,
        }
    }
}

impl fmt::Display for MaintenanceFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintenanceFailure::Panicked { step, message } => {
                write!(f, "{step} panicked: {message}")
            }
            MaintenanceFailure::Save(e) => write!(f, "save failed: {e}"),
        }
    }
}

impl std::error::Error for MaintenanceFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaintenanceFailure::Panicked { .. } => None,
            MaintenanceFailure::Save(e) => Some(e),
        }
    }
}

/// What a [`TieredStore::maintain`] run accomplished — the degraded-mode
/// mirror of [`RecoveryReport`](crate::RecoveryReport). A non-clean
/// report means some step(s) failed after all retries; the store is still
/// fully valid and readers still serve the last successfully published
/// epoch.
///
/// `Clone` for the same reason as
/// [`RecoveryReport`](crate::RecoveryReport): health layers retain it.
#[derive(Clone, Debug, Default)]
pub struct MaintenanceReport {
    /// Passes executed (1 for a clean first pass; more means retries).
    pub passes: u32,
    /// Hot segments successfully frozen and installed.
    pub sealed: usize,
    /// Sealed-segment merges successfully installed.
    pub merged: usize,
    /// Whether a configured save completed.
    pub saved: bool,
    /// Version of the epoch published by this run, if publishing succeeded.
    pub published: Option<u64>,
    /// Every step failure across all passes, in order of occurrence.
    pub failures: Vec<MaintenanceFailure>,
}

impl MaintenanceReport {
    /// True when every step of some pass succeeded with no failures at all.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for MaintenanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "maintenance: {} pass(es), {} sealed, {} merged, saved={}, published={:?}",
            self.passes, self.sealed, self.merged, self.saved, self.published
        )?;
        if self.failures.is_empty() {
            write!(f, ", clean")
        } else {
            write!(f, ", {} failure(s):", self.failures.len())?;
            for failure in &self.failures {
                write!(f, "\n  - {failure}")?;
            }
            Ok(())
        }
    }
}

/// Options for [`TieredStore::maintain_with`].
pub struct Maintenance<'a> {
    /// Retry policy for failed passes: `attempts` passes total, sleeping
    /// by [`RetryPolicy::backoffs`] between them (jittered when
    /// [`RetryPolicy::jitter`] is set), bounded by `max_elapsed`.
    pub retry: RetryPolicy,
    /// Persist into this backend + directory during the `Save` step
    /// (`None` skips saving).
    pub save_to: Option<(&'a dyn Storage, &'a Path)>,
    /// Step hook; see [`MaintenanceProbe`].
    pub probe: &'a dyn MaintenanceProbe,
}

impl Default for Maintenance<'_> {
    fn default() -> Self {
        Maintenance {
            retry: RetryPolicy::default(),
            save_to: None,
            probe: &NoProbe,
        }
    }
}

/// Runs `f` under panic containment, attributing a panic to `step`.
///
/// `AssertUnwindSafe` is sound here by construction of the call sites:
/// every closure either (a) only *reads* shared data and returns a fresh
/// value (freeze/merge work), or (b) is a probe call followed by nothing —
/// the store mutation happens *after* `run_step` returns `Ok` — so an
/// unwind can never leave a broken invariant behind the reference.
fn run_step<T>(step: MaintenanceStep, f: impl FnOnce() -> T) -> Result<T, MaintenanceFailure> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| MaintenanceFailure::panicked(step, p.as_ref()))
}

impl TieredStore {
    /// Freezes every non-empty hot segment among the first `limit`
    /// segments, installing each result as it lands. Panics (real or
    /// probe-injected) are contained per segment: a failed freeze leaves
    /// that segment hot and valid. Returns the number of segments
    /// installed.
    fn freeze_probed(
        &mut self,
        limit: usize,
        probe: &dyn MaintenanceProbe,
        failures: &mut Vec<MaintenanceFailure>,
    ) -> usize {
        let mut installed = 0;
        for i in 0..limit {
            let hot = &self.segments[i];
            if hot.is_sealed() || hot.len() == 0 {
                continue;
            }
            let step = Freeze { segment: i };
            let frozen = run_step(step, || {
                probe.step(step);
                hot.freeze()
            });
            let step = InstallFrozen { segment: i };
            match frozen.and_then(|repr| run_step(step, || probe.step(step)).map(|()| repr)) {
                Ok(repr) => {
                    self.segments[i] = Segment::Sealed(Arc::new(repr));
                    installed += 1;
                }
                Err(failure) => failures.push(failure),
            }
        }
        installed
    }

    /// The probed form of [`TieredStore::seal`]: freeze all hot segments,
    /// drop empty ones, and start a fresh append-only hot tail. Returns
    /// installs.
    pub(crate) fn seal_probed(
        &mut self,
        probe: &dyn MaintenanceProbe,
        failures: &mut Vec<MaintenanceFailure>,
    ) -> usize {
        let installed = self.freeze_probed(self.segments.len(), probe, failures);
        self.segments.retain(|g| g.len() > 0);
        // The invariant "the list ends in a hot tail" must hold even after
        // failures: push a fresh tail unless a (failed, still-hot) tail
        // survived.
        if self.segments.last().is_none_or(Segment::is_sealed) {
            self.segments.push(Segment::new_hot());
        }
        installed
    }

    /// Merges sealed segments `left` and `left + 1` under panic
    /// containment. True iff the merge installed.
    fn merge_probed(
        &mut self,
        left: usize,
        probe: &dyn MaintenanceProbe,
        failures: &mut Vec<MaintenanceFailure>,
    ) -> bool {
        let step = Merge { left };
        let merged = run_step(step, || {
            probe.step(step);
            let (Segment::Sealed(a), Segment::Sealed(b)) =
                (&self.segments[left], &self.segments[left + 1])
            else {
                unreachable!("merge_probed called on a non-sealed pair");
            };
            // Only appends follow, so the append-only trie takes them.
            let mut melted: AppendWaveletTrie = a.thaw();
            for s in b.iter_seq() {
                // The two segments coexist in one store, whose inserts
                // check admits() across *all* segments — so their union
                // is prefix-free and append cannot fail.
                melted
                    .append(s.as_bitstr())
                    .expect("segments are jointly prefix-free");
            }
            melted.freeze()
        });
        let merged = match merged {
            Ok(m) => m,
            Err(failure) => {
                failures.push(failure);
                return false;
            }
        };
        let step = InstallMerged { left };
        match run_step(step, || probe.step(step)) {
            Ok(()) => {
                self.segments[left] = Segment::Sealed(Arc::new(merged));
                self.segments.remove(left + 1);
                true
            }
            Err(failure) => {
                failures.push(failure);
                false
            }
        }
    }

    /// The probed form of [`TieredStore::compact`]: freeze melted middles
    /// (not the tail), then merge smallest adjacent sealed pairs until at
    /// most `max_sealed` remain or a merge fails. Returns (installs,
    /// merges).
    pub(crate) fn compact_probed(
        &mut self,
        probe: &dyn MaintenanceProbe,
        failures: &mut Vec<MaintenanceFailure>,
    ) -> (usize, usize) {
        let middles = self.segments.len().saturating_sub(1);
        let installed = self.freeze_probed(middles, probe, failures);
        let mut merges = 0;
        while self.sealed_segments() > self.config().max_sealed {
            let best = self
                .sealed_adjacent_pairs()
                .min_by_key(|&(_, combined)| combined)
                .map(|(i, _)| i);
            match best {
                Some(left) => {
                    if !self.merge_probed(left, probe, failures) {
                        // A failed merge would be re-picked forever; the
                        // retry pass (or the next compact) will try again.
                        break;
                    }
                    merges += 1;
                }
                None => break,
            }
        }
        (installed, merges)
    }

    /// One full maintenance pass: seal → compact → save (if configured)
    /// → publish. Failures are appended to `report.failures`.
    fn maintenance_pass(&mut self, opts: &Maintenance<'_>, report: &mut MaintenanceReport) {
        let mut failures = Vec::new();
        report.sealed += self.seal_probed(opts.probe, &mut failures);
        let (installed, merged) = self.compact_probed(opts.probe, &mut failures);
        report.sealed += installed;
        report.merged += merged;
        if let Some((storage, dir)) = opts.save_to {
            match run_step(Save, || {
                opts.probe.step(Save);
                self.save_dir_with(storage, dir)
            }) {
                Ok(Ok(())) => report.saved = true,
                Ok(Err(e)) => failures.push(MaintenanceFailure::Save(e)),
                Err(failure) => failures.push(failure),
            }
        }
        match run_step(Publish, || opts.probe.step(Publish)) {
            Ok(()) => report.published = Some(self.publish().version()),
            Err(failure) => failures.push(failure),
        }
        report.failures.extend(failures);
    }

    /// Background-style maintenance with default options: seal everything,
    /// compact to policy, publish a fresh epoch (no persistence). Never
    /// panics; see [`MaintenanceReport`].
    pub fn maintain(&mut self) -> MaintenanceReport {
        self.maintain_with(&Maintenance::default())
    }

    /// Runs maintenance passes until one completes without new failures,
    /// the retry budget (`opts.retry.attempts` passes) is exhausted, or
    /// `opts.retry.max_elapsed` has elapsed — sleeping between passes by
    /// [`RetryPolicy::backoffs`], the schedule the storage stack's
    /// transient-I/O retries use.
    ///
    /// This call **never panics and never poisons the store**: every step
    /// runs under `catch_unwind`, a failed step's effect is skipped whole,
    /// and readers keep serving the previous epoch until the pass's final
    /// `Publish` step succeeds.
    pub fn maintain_with(&mut self, opts: &Maintenance<'_>) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        let attempts = opts.retry.attempts.max(1);
        let started = Instant::now();
        let mut backoffs = opts.retry.backoffs();
        for pass in 0..attempts {
            let failures_before = report.failures.len();
            self.maintenance_pass(opts, &mut report);
            report.passes += 1;
            if report.failures.len() == failures_before {
                break; // clean pass
            }
            let out_of_time = opts
                .retry
                .max_elapsed
                .is_some_and(|cap| started.elapsed() >= cap);
            if pass + 1 >= attempts || out_of_time {
                break;
            }
            let backoff = backoffs.next().unwrap_or(opts.retry.base_backoff);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        report
    }
}
