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
//! Usage: `persist_report [--quick] [--out PATH]`

use std::sync::Mutex;
use std::time::{Duration, Instant};

use wavelet_trie::IndexedStrings;
use wt_bench::{time_once_ms, Table};
use wt_store::{Maintenance, MaintenanceProbe, MaintenanceStep, StoreConfig, TieredStrings};
use wt_workloads::urls::{url_log, UrlLogConfig};

/// One measured series.
struct Measurement {
    structure: &'static str,
    workload: &'static str,
    op: &'static str,
    n: usize,
    value: f64,
    unit: &'static str,
    /// build-time / load-time (the cold-start speedup); 0 when n/a.
    ratio: f64,
}

fn median_ms(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..samples).map(|_| f()).collect();
    // Timings come from `Instant` deltas, so NaN is impossible.
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v[v.len() / 2]
}

fn scratch_dir() -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("wt-persist-report-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("create scratch dir");
    d
}

fn bench_indexed_strings(n: usize, samples: usize, out: &mut Vec<Measurement>, t: &Table) {
    let strings = url_log(n, UrlLogConfig::default(), 5);
    let build_ms = median_ms(samples, || {
        time_once_ms(|| IndexedStrings::build(strings.iter())).1
    });
    let idx = IndexedStrings::build(strings.iter());
    let path = scratch_dir().join(format!("urls-{n}.wt"));
    let save_ms = median_ms(samples, || {
        time_once_ms(|| idx.save(&path).expect("save image to scratch dir")).1
    });
    let file_bytes = std::fs::metadata(&path).expect("stat saved image").len();
    let load_ms = median_ms(samples, || {
        time_once_ms(|| IndexedStrings::load(&path).expect("load image just saved")).1
    });
    // Sanity: the loaded index answers like the built one.
    let loaded = IndexedStrings::load(&path).expect("load image just saved");
    assert_eq!(loaded.len(), n);
    assert_eq!(loaded.get_string(n / 2), strings[n / 2]);
    assert_eq!(loaded.count_prefix("http://"), idx.count_prefix("http://"));
    std::fs::remove_file(&path).ok();

    let speedup = build_ms / load_ms;
    t.row(&[
        "IndexedStrings",
        &format!("{n}"),
        &format!("{build_ms:.1}ms"),
        &format!("{save_ms:.1}ms"),
        &format!("{load_ms:.2}ms"),
        &format!("{:.1}KiB", file_bytes as f64 / 1024.0),
        &format!("{speedup:.0}x"),
    ]);
    for (op, value, ratio) in [
        ("build", build_ms, 0.0),
        ("save", save_ms, 0.0),
        ("cold_load", load_ms, speedup),
    ] {
        out.push(Measurement {
            structure: "IndexedStrings",
            workload: "url_log",
            op,
            n,
            value,
            unit: "ms",
            ratio,
        });
    }
    out.push(Measurement {
        structure: "IndexedStrings",
        workload: "url_log",
        op: "file_size",
        n,
        value: file_bytes as f64,
        unit: "bytes",
        ratio: 0.0,
    });
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

fn bench_tiered(n: usize, samples: usize, out: &mut Vec<Measurement>, t: &Table) {
    let strings = url_log(n, UrlLogConfig::default(), 5);
    let build = || {
        let mut st = TieredStrings::new();
        st.extend(strings.iter());
        st
    };
    let build_ms = median_ms(samples, || time_once_ms(build).1);
    let st = build();
    let [append_ms, freeze_ms, merge_ms] = split_build(&strings);
    let dir = scratch_dir().join(format!("store-{n}"));
    let save_ms = median_ms(samples, || {
        time_once_ms(|| st.save_dir(&dir).expect("save store to scratch dir")).1
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
    let load_ms = median_ms(samples, || {
        time_once_ms(|| TieredStrings::load_dir(&dir).expect("load store just saved")).1
    });
    let loaded = TieredStrings::load_dir(&dir).expect("load store just saved");
    assert_eq!(loaded.len(), n);
    assert_eq!(loaded.get_string(n / 2), strings[n / 2]);
    // Recovery time, clean path: the resilient loader's overhead over the
    // strict one (same directory, per-segment validation + temp sweep).
    let recover_clean_ms = median_ms(samples, || {
        time_once_ms(|| {
            let (_, report) = TieredStrings::recover_dir(&dir).expect("recover undamaged dir");
            assert!(report.is_clean());
        })
        .1
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
    let recover_degraded_ms = median_ms(samples, || {
        time_once_ms(|| {
            let (_, report) =
                TieredStrings::recover_dir(&broken).expect("recover dir with one bad segment");
            assert_eq!(report.quarantined.len(), 1);
        })
        .1
    });
    std::fs::remove_dir_all(&broken).ok();
    std::fs::remove_dir_all(&dir).ok();

    let speedup = build_ms / load_ms;
    t.row(&[
        "TieredStrings",
        &format!("{n}"),
        &format!("{build_ms:.1}ms"),
        &format!("{save_ms:.1}ms"),
        &format!("{load_ms:.2}ms"),
        &format!("{:.1}KiB", dir_bytes as f64 / 1024.0),
        &format!("{speedup:.0}x"),
    ]);
    println!(
        "    build split: append {append_ms:.1}ms, freeze {freeze_ms:.1}ms, merge {merge_ms:.1}ms"
    );
    println!(
        "    recovery: clean {recover_clean_ms:.2}ms, \
         one-segment-corrupt {recover_degraded_ms:.2}ms"
    );
    for (op, value, ratio) in [
        ("build", build_ms, 0.0),
        ("build_append", append_ms, 0.0),
        ("build_freeze", freeze_ms, 0.0),
        ("build_merge", merge_ms, 0.0),
        ("save", save_ms, 0.0),
        ("cold_load", load_ms, speedup),
        ("recover_clean", recover_clean_ms, 0.0),
        ("recover_degraded", recover_degraded_ms, 0.0),
    ] {
        out.push(Measurement {
            structure: "TieredStrings",
            workload: "url_log",
            op,
            n,
            value,
            unit: "ms",
            ratio,
        });
    }
    out.push(Measurement {
        structure: "TieredStrings",
        workload: "url_log",
        op: "file_size",
        n,
        value: dir_bytes as f64,
        unit: "bytes",
        ratio: 0.0,
    });
}

fn write_json(path: &str, mode: &str, results: &[Measurement]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"persist_report\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let ratio = if m.ratio > 0.0 {
            format!(", \"ratio\": {:.2}", m.ratio)
        } else {
            String::new()
        };
        s.push_str(&format!(
            "    {{\"structure\": \"{}\", \"workload\": \"{}\", \"op\": \"{}\", \"n\": {}, \
             \"value\": {:.2}, \"unit\": \"{}\"{}}}{}\n",
            m.structure,
            m.workload,
            m.op,
            m.n,
            m.value,
            m.unit,
            ratio,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH_persist.json");
    println!("wrote {path} ({} series)", results.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_persist.json".to_string());
    let (sizes, samples): (&[usize], usize) = if quick {
        (&[20_000], 3)
    } else {
        (&[100_000, 1_000_000], 5)
    };
    let mode = if quick { "quick" } else { "full" };

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
    let mut results = Vec::new();
    for &n in sizes {
        bench_indexed_strings(n, samples, &mut results, &t);
        bench_tiered(n, samples, &mut results, &t);
    }
    println!();
    std::fs::remove_dir_all(scratch_dir()).ok();
    write_json(&out_path, mode, &results);
}
