//! Spans recorded from outside the program: a [`Shard`] wrapper that times
//! every `execute` and `append` the router makes, a [`MaintenanceProbe`]
//! that timestamps each maintenance step, and the attribution of shard
//! spans to the router batch that caused them.
//!
//! Tracing can be switched on and off between batches, so one run can
//! alternate traced and untraced batches and measure its own overhead.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use wt_server::{Answer, Deadline, Shard, ShardError, ShardOp, StoreShard};
use wt_store::{Maintenance, MaintenanceProbe, MaintenanceReport, MaintenanceStep, StoreSnapshot};
use wt_trie::BitStr;

/// One shard `execute` call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: Instant,
    pub end: Instant,
    pub ops: usize,
}

/// A sub-batch kept for replay against the snapshot it ran on.
pub struct Recorded {
    pub snapshot: StoreSnapshot,
    pub ops: Vec<ShardOp>,
}

/// One maintenance call: wall time, per-step durations and the report.
#[derive(Clone, Debug, Default)]
pub struct MaintSample {
    pub total_ms: f64,
    pub freeze_ms: Vec<f64>,
    pub merge_ms: Vec<f64>,
    pub sealed: usize,
    pub merged: usize,
}

/// Shared sink for everything the wrappers observe.
#[derive(Default)]
pub struct Tracer {
    on: AtomicBool,
    /// Sub-batches still to be kept for replay.
    record_budget: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    recorded: Mutex<Vec<Recorded>>,
    append_us: Mutex<Vec<f64>>,
    maint: Mutex<Vec<MaintSample>>,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Tracer {
    pub fn new(record_budget: usize) -> Arc<Self> {
        let tracer = Tracer::default();
        tracer.record_budget.store(record_budget, Ordering::Relaxed);
        Arc::new(tracer)
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn take_record_slot(&self) -> bool {
        self.record_budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut lock(&self.spans))
    }

    pub fn take_recorded(&self) -> Vec<Recorded> {
        std::mem::take(&mut lock(&self.recorded))
    }

    pub fn append_us(&self) -> Vec<f64> {
        lock(&self.append_us).clone()
    }

    pub fn maint(&self) -> Vec<MaintSample> {
        lock(&self.maint).clone()
    }

    /// Runs `shard.maintain_with` under a step probe and logs the result.
    pub fn maintain(&self, shard: &StoreShard) -> MaintenanceReport {
        let probe = StepProbe::default();
        let started = Instant::now();
        let report = shard.maintain_with(&Maintenance {
            probe: &probe,
            ..Maintenance::default()
        });
        let total_ms = started.elapsed().as_secs_f64() * 1e3;
        let (freeze_ms, merge_ms) = probe.durations();
        lock(&self.maint).push(MaintSample {
            total_ms,
            freeze_ms,
            merge_ms,
            sealed: report.sealed,
            merged: report.merged,
        });
        report
    }
}

/// A [`Shard`] that forwards to a [`StoreShard`] and, while its tracer is
/// on, records a span per call.
pub struct TracedShard {
    pub inner: Arc<StoreShard>,
    pub tracer: Arc<Tracer>,
}

impl Shard for TracedShard {
    fn execute(&self, ops: &[ShardOp], deadline: Deadline) -> Result<Vec<Answer>, ShardError> {
        if !self.tracer.is_on() {
            return self.inner.execute(ops, deadline);
        }
        let keep = self
            .tracer
            .take_record_slot()
            .then(|| self.inner.snapshot());
        let start = Instant::now();
        let out = self.inner.execute(ops, deadline);
        let end = Instant::now();
        lock(&self.tracer.spans).push(Span {
            start,
            end,
            ops: ops.len(),
        });
        if let Some(snapshot) = keep {
            lock(&self.tracer.recorded).push(Recorded {
                snapshot,
                ops: ops.to_vec(),
            });
        }
        out
    }

    fn append(&self, s: BitStr<'_>) -> Result<u64, ShardError> {
        if !self.tracer.is_on() {
            return self.inner.append(s);
        }
        let start = Instant::now();
        let out = self.inner.append(s);
        lock(&self.tracer.append_us).push(start.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Timestamps every maintenance step it is shown.
#[derive(Default)]
struct StepProbe {
    steps: Mutex<Vec<(MaintenanceStep, Instant)>>,
}

impl MaintenanceProbe for StepProbe {
    fn step(&self, step: MaintenanceStep) {
        lock(&self.steps).push((step, Instant::now()));
    }
}

impl StepProbe {
    /// Freeze and merge durations in ms: each heavy step runs from its own
    /// start to the start of its install. Steps that never installed
    /// (contained failures) are left out.
    fn durations(&self) -> (Vec<f64>, Vec<f64>) {
        let steps = lock(&self.steps);
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        let mut freezing: Vec<(usize, Instant)> = Vec::new();
        let mut merging: Option<Instant> = None;
        let (mut freeze, mut merge) = (Vec::new(), Vec::new());
        for &(step, t) in steps.iter() {
            match step {
                MaintenanceStep::Freeze { segment } => freezing.push((segment, t)),
                MaintenanceStep::InstallFrozen { segment } => {
                    if let Some(k) = freezing.iter().position(|&(s, _)| s == segment) {
                        freeze.push(ms(freezing.swap_remove(k).1, t));
                    }
                }
                MaintenanceStep::Merge { .. } => merging = Some(t),
                MaintenanceStep::InstallMerged { .. } => {
                    if let Some(t0) = merging.take() {
                        merge.push(ms(t0, t));
                    }
                }
                MaintenanceStep::Save | MaintenanceStep::Publish => {}
            }
        }
        (freeze, merge)
    }
}

/// One traced router batch, as the load generator saw it.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub scheduled: Instant,
    pub entry: Instant,
    pub exit: Instant,
}

/// A batch's critical path: scheduled send → router entry (queue) →
/// start of the last-finishing shard's execute (dispatch) → its end
/// (execute) → router return (gather). The four sum to the batch latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phases {
    pub queue_us: f64,
    pub dispatch_us: f64,
    pub execute_us: f64,
    pub gather_us: f64,
    /// Router entry to return: dispatch + execute + gather.
    pub router_us: f64,
    /// Share of the router call not covered by any shard span.
    pub router_self_frac: f64,
    pub fanout: usize,
    pub ops: usize,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Assigns each span to the window that contains it and derives the
/// critical path of every window that received at least one span. Windows
/// must not overlap (one generator thread sends them in sequence); spans
/// may arrive in any order.
pub fn attribute(windows: &[Window], spans: &[Span]) -> Vec<Option<Phases>> {
    let mut spans = spans.to_vec();
    spans.sort_by_key(|s| s.start);
    let mut next = 0;
    windows
        .iter()
        .map(|w| {
            while next < spans.len() && spans[next].start < w.entry {
                next += 1; // belongs to no traced window
            }
            let first = next;
            while next < spans.len() && spans[next].start <= w.exit {
                next += 1;
            }
            let mine: Vec<Span> = spans[first..next]
                .iter()
                .copied()
                .filter(|s| s.end <= w.exit)
                .collect();
            let last = mine.iter().max_by_key(|s| s.end)?;
            let mut covered = Duration::ZERO;
            let mut reach = w.entry;
            for s in &mine {
                let from = s.start.max(reach);
                if s.end > from {
                    covered += s.end - from;
                    reach = s.end;
                }
            }
            let router = w.exit - w.entry;
            Some(Phases {
                queue_us: us(w.entry.saturating_duration_since(w.scheduled)),
                dispatch_us: us(last.start - w.entry),
                execute_us: us(last.end - last.start),
                gather_us: us(w.exit - last.end),
                router_us: us(router),
                router_self_frac: 1.0 - covered.as_secs_f64() / router.as_secs_f64().max(1e-12),
                fanout: mine.len(),
                ops: mine.iter().map(|s| s.ops).sum(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_attach_to_their_window_and_phases_sum() {
        let t0 = Instant::now();
        let at = |u: u64| t0 + Duration::from_micros(u);
        let windows = [
            Window {
                scheduled: at(0),
                entry: at(10),
                exit: at(100),
            },
            Window {
                scheduled: at(200),
                entry: at(200),
                exit: at(300),
            },
            Window {
                scheduled: at(400),
                entry: at(400),
                exit: at(450),
            },
        ];
        let span = |s, e, ops| Span {
            start: at(s),
            end: at(e),
            ops,
        };
        // Out of order on purpose; one stray span sits between windows.
        let spans = [
            span(250, 280, 3),
            span(20, 60, 5),
            span(30, 90, 7),
            span(150, 160, 1),
            span(210, 240, 2),
        ];
        let got = attribute(&windows, &spans);
        let w0 = got[0].expect("window 0 has spans");
        assert_eq!((w0.fanout, w0.ops), (2, 12));
        // Last finisher is the 30..90 span.
        assert_eq!(
            (w0.queue_us, w0.dispatch_us, w0.execute_us, w0.gather_us),
            (10.0, 20.0, 60.0, 10.0)
        );
        assert_eq!(w0.router_us, 90.0);
        let sum = w0.queue_us + w0.dispatch_us + w0.execute_us + w0.gather_us;
        assert_eq!(sum, 100.0, "phases sum to latency from the scheduled send");
        // Spans cover 20..90 of the 10..100 router call.
        assert!((w0.router_self_frac - 20.0 / 90.0).abs() < 1e-9);
        let w1 = got[1].expect("window 1 has spans");
        assert_eq!((w1.fanout, w1.ops), (2, 5));
        assert_eq!(w1.execute_us, 30.0);
        assert!(
            got[2].is_none(),
            "a window without spans has no critical path"
        );
    }

    #[test]
    fn step_probe_pairs_heavy_steps_with_their_installs() {
        let probe = StepProbe::default();
        for step in [
            MaintenanceStep::Freeze { segment: 0 },
            MaintenanceStep::Freeze { segment: 2 },
            MaintenanceStep::InstallFrozen { segment: 2 },
            MaintenanceStep::InstallFrozen { segment: 0 },
            MaintenanceStep::Merge { left: 0 },
            MaintenanceStep::InstallMerged { left: 0 },
            MaintenanceStep::Merge { left: 1 },
            MaintenanceStep::Publish,
        ] {
            probe.step(step);
        }
        let (freeze, merge) = probe.durations();
        assert_eq!(freeze.len(), 2);
        assert_eq!(merge.len(), 1, "a merge that never installed is left out");
        assert!(freeze.iter().chain(&merge).all(|&ms| ms >= 0.0));
    }
}
