//! E15: cold-start — zero-copy load vs rebuild-from-strings.
//!
//! The persistence claim, one machine-readable trajectory file
//! (`BENCH_persist.json`): loading a saved [`IndexedStrings`] image (parse
//! header, verify checksums and structural invariants, then *view* the
//! payload words in place — zero per-bit work) must beat rebuilding the
//! same index from its input strings by ≥50× on the 100k-URL workload.
//! The tiered store's directory load (sealed segments zero-copy, hot tail
//! replayed) is reported alongside, with its build split into the time
//! spent appending, freezing tails and merging segments.
//!
//! Usage: `persist_report [--quick] [--out PATH]` (see [`wt_bench::Report`]).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use wavelet_trie::IndexedStrings;
use wt_bench::{time_ms, Report, Summary, Table};
use wt_store::{Maintenance, MaintenanceProbe, MaintenanceStep, StoreConfig, TieredStrings};
use wt_workloads::urls::{url_log, UrlLogConfig};

fn scratch_dir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("wt-persist-report-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn bench_indexed_strings(n: usize, samples: usize, report: &mut Report, t: &Table) {
    let strings = url_log(n, UrlLogConfig::default(), 5);
    let build_ms = time_ms(samples, || IndexedStrings::build(strings.iter()));
    let idx = IndexedStrings::build(strings.iter());
    let path = scratch_dir().join(format!("urls-{n}.wt"));
    let save_ms = time_ms(samples, || {
        idx.save(&path).expect("save image to scratch dir")
    });
    let file_bytes = std::fs::metadata(&path).expect("stat saved image").len();
    let load_ms = time_ms(samples, || {
        IndexedStrings::load(&path).expect("load image just saved")
    });
    // Sanity: the loaded index answers like the built one.
    let loaded = IndexedStrings::load(&path).expect("load image just saved");
    assert_eq!(loaded.len(), n);
    assert_eq!(loaded.get_string(n / 2), strings[n / 2]);
    assert_eq!(loaded.count_prefix("http://"), idx.count_prefix("http://"));
    std::fs::remove_file(&path).ok();

    let speedup = build_ms.p50 / load_ms.p50;
    t.row(&[
        "IndexedStrings",
        &format!("{n}"),
        &format!("{:.1}ms", build_ms.p50),
        &format!("{:.1}ms", save_ms.p50),
        &format!("{:.2}ms", load_ms.p50),
        &format!("{:.1}KiB", file_bytes as f64 / 1024.0),
        &format!("{speedup:.0}x"),
    ]);
    for (op, value, ratio) in [
        ("build", build_ms, None),
        ("save", save_ms, None),
        ("cold_load", load_ms, Some(speedup)),
    ] {
        report.value_row(("IndexedStrings", "url_log", op), n, value, "ms", ratio);
    }
    let key = ("IndexedStrings", "url_log", "file_size");
    report.value_row(key, n, file_bytes as usize, "bytes", None);
}

/// Sums the time from each `Freeze` or `Merge` step to its install.
#[derive(Default)]
struct StepTimer(Mutex<StepTimes>);

#[derive(Default)]
struct StepTimes {
    started: Option<Instant>,
    freeze: Duration,
    merge: Duration,
}

impl MaintenanceProbe for StepTimer {
    fn step(&self, step: MaintenanceStep) {
        let t = &mut *self.0.lock().expect("no probe panics");
        let since_start =
            |started: &mut Option<Instant>| started.take().expect("step started").elapsed();
        match step {
            MaintenanceStep::Freeze { .. } | MaintenanceStep::Merge { .. } => {
                t.started = Some(Instant::now());
            }
            MaintenanceStep::InstallFrozen { .. } => t.freeze += since_start(&mut t.started),
            MaintenanceStep::InstallMerged { .. } => t.merge += since_start(&mut t.started),
            _ => {}
        }
    }
}

/// The default-policy build of `TieredStrings`, split: the store never
/// seals on its own, and a maintenance pass after every `seal_at`
/// strings seals and compacts as the policy would. Returns the ms spent
/// appending, freezing and merging.
fn split_build(strings: &[String]) -> [f64; 3] {
    let policy = StoreConfig::default();
    let mut st = TieredStrings::with_config(StoreConfig {
        seal_at: usize::MAX,
        ..policy
    });
    let timer = StepTimer::default();
    let opts = Maintenance {
        probe: &timer,
        ..Maintenance::default()
    };
    let mut append = Duration::ZERO;
    for chunk in strings.chunks(policy.seal_at) {
        let t = Instant::now();
        st.extend(chunk);
        append += t.elapsed();
        if chunk.len() == policy.seal_at {
            assert!(st.maintain_with(&opts).is_clean());
        }
    }
    assert_eq!(st.len(), strings.len());
    let t = timer.0.into_inner().expect("no probe panics");
    [append, t.freeze, t.merge].map(|d| d.as_secs_f64() * 1e3)
}

fn bench_tiered(n: usize, samples: usize, report: &mut Report, t: &Table) {
    let strings = url_log(n, UrlLogConfig::default(), 5);
    let build = || {
        let mut st = TieredStrings::new();
        st.extend(strings.iter());
        st
    };
    let build_ms = time_ms(samples, build);
    let st = build();
    let [append_ms, freeze_ms, merge_ms] = split_build(&strings);
    let dir = scratch_dir().join(format!("store-{n}"));
    let save_ms = time_ms(samples, || {
        st.save_dir(&dir).expect("save store to scratch dir")
    });
    let dir_bytes: u64 = std::fs::read_dir(&dir)
        .expect("list saved store dir")
        .map(|e| {
            e.expect("read dir entry")
                .metadata()
                .expect("stat dir entry")
                .len()
        })
        .sum();
    let load_ms = time_ms(samples, || {
        TieredStrings::load_dir(&dir).expect("load store just saved")
    });
    let loaded = TieredStrings::load_dir(&dir).expect("load store just saved");
    assert_eq!(loaded.len(), n);
    assert_eq!(loaded.get_string(n / 2), strings[n / 2]);
    // Recovery time, clean path: the resilient loader's overhead over the
    // strict one (same directory, per-segment validation + temp sweep).
    let recover_clean_ms = time_ms(samples, || {
        let (_, report) = TieredStrings::recover_dir(&dir).expect("recover undamaged dir");
        assert!(report.is_clean());
    });
    // Recovery time, degraded path: one sealed segment corrupted — the
    // loader must checksum everything, quarantine the victim and still
    // serve the rest.
    let broken = scratch_dir().join(format!("store-broken-{n}"));
    std::fs::remove_dir_all(&broken).ok();
    std::fs::create_dir_all(&broken).expect("create scratch copy dir");
    let mut victim = None;
    for entry in std::fs::read_dir(&dir).expect("list saved store dir") {
        let name = entry.expect("read dir entry").file_name();
        std::fs::copy(dir.join(&name), broken.join(&name)).expect("copy store file");
        let s = name.to_string_lossy().into_owned();
        if s.starts_with("seg-") && s.ends_with(".wt") && victim.is_none() {
            victim = Some(s);
        }
    }
    let victim = broken.join(victim.expect("a sealed segment exists"));
    let mut bytes = std::fs::read(&victim).expect("read victim segment");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, bytes).expect("write corrupted segment");
    let recover_degraded_ms = time_ms(samples, || {
        let (_, report) =
            TieredStrings::recover_dir(&broken).expect("recover dir with one bad segment");
        assert_eq!(report.quarantined.len(), 1);
    });
    std::fs::remove_dir_all(&broken).ok();
    std::fs::remove_dir_all(&dir).ok();

    let speedup = build_ms.p50 / load_ms.p50;
    t.row(&[
        "TieredStrings",
        &format!("{n}"),
        &format!("{:.1}ms", build_ms.p50),
        &format!("{:.1}ms", save_ms.p50),
        &format!("{:.2}ms", load_ms.p50),
        &format!("{:.1}KiB", dir_bytes as f64 / 1024.0),
        &format!("{speedup:.0}x"),
    ]);
    println!(
        "    build split: append {append_ms:.1}ms, freeze {freeze_ms:.1}ms, merge {merge_ms:.1}ms"
    );
    println!(
        "    recovery: clean {:.2}ms, one-segment-corrupt {:.2}ms",
        recover_clean_ms.p50, recover_degraded_ms.p50
    );
    // The split is one build's: a single sample each.
    let once = |ms: f64| Summary::of(vec![ms]);
    for (op, value, ratio) in [
        ("build", build_ms, None),
        ("build_append", once(append_ms), None),
        ("build_freeze", once(freeze_ms), None),
        ("build_merge", once(merge_ms), None),
        ("save", save_ms, None),
        ("cold_load", load_ms, Some(speedup)),
        ("recover_clean", recover_clean_ms, None),
        ("recover_degraded", recover_degraded_ms, None),
    ] {
        report.value_row(("TieredStrings", "url_log", op), n, value, "ms", ratio);
    }
    let key = ("TieredStrings", "url_log", "file_size");
    report.value_row(key, n, dir_bytes as usize, "bytes", None);
}

fn main() {
    let mut report = Report::from_args("persist_report");
    let (sizes, samples): (&[usize], usize) = if report.quick {
        (&[20_000], 3)
    } else {
        (&[100_000, 1_000_000], 5)
    };

    println!("== cold-start: zero-copy load vs rebuild ==\n");
    let t = Table::new(
        &[
            "structure",
            "n",
            "build",
            "save",
            "cold load",
            "on disk",
            "speedup",
        ],
        &[14, 8, 9, 8, 9, 10, 8],
    );
    for &n in sizes {
        bench_indexed_strings(n, samples, &mut report, &t);
        bench_tiered(n, samples, &mut report, &t);
    }
    println!();
    std::fs::remove_dir_all(scratch_dir()).ok();
    report.finish();
}
