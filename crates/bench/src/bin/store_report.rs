//! E13: the tiered store and the structural freeze path.
//!
//! Two claims, one machine-readable trajectory file (`BENCH_store.json`):
//!
//! * **freeze vs rebuild** — sealing a dynamic Wavelet Trie with the
//!   structural `freeze()` (one trie walk, word-level copies) must beat
//!   rebuilding the static trie from re-emitted strings
//!   (`iter_seq` → `WaveletTrie::from_bitstrings`) by ≥5× on the
//!   100k-URL workload, for both the append-only and fully dynamic
//!   backends;
//! * **tiered query overhead** — `TieredStrings` (hot tier + sealed
//!   static segments + Elias–Fano position routing) pays a bounded
//!   constant over a single monolithic static `IndexedStrings` on
//!   access/rank/select/count_prefix, while also absorbing updates the
//!   static structure cannot.
//!
//! Usage: `store_report [--quick] [--out PATH]`

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{
    AppendWaveletTrie, DynamicWaveletTrie, IndexedStrings, SeqIndex, SequenceOps, WaveletTrie,
};
use wt_bench::{fmt_ns, time_once_ms, time_per_op_ns, Table};
use wt_bits::SpaceUsage;
use wt_store::TieredStrings;
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::xorshift;

/// One measured series.
struct Measurement {
    structure: &'static str,
    workload: &'static str,
    op: &'static str,
    n: usize,
    /// ns/op for query series, ms for build series.
    value: f64,
    unit: &'static str,
    /// Ratio vs the comparison series (speedup for builds, overhead for
    /// tiered queries); 0 when n/a.
    ratio: f64,
}

fn median_ms(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..samples).map(|_| f()).collect();
    // Timings come from `Instant` deltas, so NaN is impossible.
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v[v.len() / 2]
}

fn bench_freeze_vs_rebuild(n: usize, samples: usize, out: &mut Vec<Measurement>) {
    println!("== structural freeze vs rebuild-from-strings at n = {n} ==\n");
    let coder = NinthBitCoder;
    let strings = url_log(n, UrlLogConfig::default(), 5);
    let encoded: Vec<_> = strings.iter().map(|s| coder.encode(s.as_bytes())).collect();

    let mut dynamic = DynamicWaveletTrie::new();
    let mut append = AppendWaveletTrie::new();
    for s in &encoded {
        dynamic
            .insert(s.as_bitstr(), dynamic.len())
            .expect("NinthBitCoder output is prefix-free");
        append
            .append(s.as_bitstr())
            .expect("NinthBitCoder output is prefix-free");
    }

    let t = Table::new(
        &["backend", "freeze", "rebuild", "speedup"],
        &[20, 10, 10, 8],
    );
    for (name, freeze_ms, rebuild_ms) in [
        (
            "DynamicWaveletTrie",
            median_ms(samples, || time_once_ms(|| dynamic.freeze()).1),
            median_ms(samples, || {
                time_once_ms(|| {
                    WaveletTrie::from_bitstrings(dynamic.iter_seq())
                        .expect("stored sequence is prefix-free")
                })
                .1
            }),
        ),
        (
            "AppendWaveletTrie",
            median_ms(samples, || time_once_ms(|| append.freeze()).1),
            median_ms(samples, || {
                time_once_ms(|| {
                    WaveletTrie::from_bitstrings(append.iter_seq())
                        .expect("stored sequence is prefix-free")
                })
                .1
            }),
        ),
    ] {
        let speedup = rebuild_ms / freeze_ms;
        t.row(&[
            name,
            &format!("{freeze_ms:.1}ms"),
            &format!("{rebuild_ms:.1}ms"),
            &format!("{speedup:.1}x"),
        ]);
        out.push(Measurement {
            structure: name,
            workload: "url_log",
            op: "freeze",
            n,
            value: freeze_ms,
            unit: "ms",
            ratio: speedup,
        });
        out.push(Measurement {
            structure: name,
            workload: "url_log",
            op: "rebuild",
            n,
            value: rebuild_ms,
            unit: "ms",
            ratio: 0.0,
        });
    }
    // Sanity: the frozen trie answers like the rebuilt one.
    let frozen = dynamic.freeze();
    assert_eq!(frozen.seq_len(), n);
    assert_eq!(frozen.access(n / 2), encoded[n / 2]);
    println!();
}

fn bench_tiered_overhead(n: usize, iters: usize, out: &mut Vec<Measurement>) {
    println!("== tiered query overhead vs pure static at n = {n} ==\n");
    let strings = url_log(n, UrlLogConfig::default(), 5);

    let stat: IndexedStrings = strings.iter().collect();
    let mut tiered = TieredStrings::new(); // default policy: seal_at 8192
    tiered.extend(strings.iter());
    tiered.seal(); // freeze the tail so the store is all-static segments
    println!(
        "tiered segments: {} ({} sealed), {:.0} vs {:.0} bits/str\n",
        tiered.num_segments(),
        tiered.sealed_segments(),
        tiered.size_bits() as f64 / n as f64,
        stat.size_bits() as f64 / n as f64,
    );

    let t = Table::new(
        &["structure", "access", "rank", "select", "count_prefix"],
        &[14, 9, 9, 9, 12],
    );
    // Identical probe schedule for both structures.
    let series = |name: &'static str,
                  access: f64,
                  rank: f64,
                  select: f64,
                  count_prefix: f64,
                  base: Option<&[f64; 4]>,
                  out: &mut Vec<Measurement>| {
        t.row(&[
            name,
            &fmt_ns(access),
            &fmt_ns(rank),
            &fmt_ns(select),
            &fmt_ns(count_prefix),
        ]);
        for (i, (op, ns)) in [
            ("access", access),
            ("rank", rank),
            ("select", select),
            ("count_prefix", count_prefix),
        ]
        .into_iter()
        .enumerate()
        {
            out.push(Measurement {
                structure: name,
                workload: "url_log",
                op,
                n,
                value: ns,
                unit: "ns_per_op",
                ratio: base.map_or(0.0, |b| ns / b[i]),
            });
        }
    };

    macro_rules! measure {
        ($idx:expr) => {{
            let idx = &$idx;
            let mut next = xorshift(3);
            let access = time_per_op_ns(iters, 7, || {
                let pos = (next() % n as u64) as usize;
                std::hint::black_box(idx.get_bytes(pos));
            });
            let rank = time_per_op_ns(iters, 7, || {
                let s = &strings[(next() % n as u64) as usize];
                let pos = (next() % (n as u64 + 1)) as usize;
                std::hint::black_box(idx.rank(s, pos));
            });
            let select = time_per_op_ns(iters, 7, || {
                let s = &strings[(next() % n as u64) as usize];
                std::hint::black_box(idx.select(s, 0));
            });
            let count_prefix = time_per_op_ns(iters, 7, || {
                let s = &strings[(next() % n as u64) as usize];
                let p = &s[..s.len().min(12)];
                std::hint::black_box(idx.count_prefix(p));
            });
            [access, rank, select, count_prefix]
        }};
    }

    let base = measure!(stat);
    series(
        "IndexedStrings",
        base[0],
        base[1],
        base[2],
        base[3],
        None,
        out,
    );
    let tier = measure!(tiered);
    series(
        "TieredStrings",
        tier[0],
        tier[1],
        tier[2],
        tier[3],
        Some(&base),
        out,
    );
    println!();
}

fn write_json(path: &str, mode: &str, results: &[Measurement]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"store_report\",\n");
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
             \"value\": {:.1}, \"unit\": \"{}\"{}}}{}\n",
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
    std::fs::write(path, s).expect("write BENCH_store.json");
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
        .unwrap_or_else(|| "BENCH_store.json".to_string());
    let (n, samples, iters) = if quick {
        (20_000, 3, 2_000)
    } else {
        (100_000, 5, 20_000)
    };
    let mode = if quick { "quick" } else { "full" };

    let mut results = Vec::new();
    bench_freeze_vs_rebuild(n, samples, &mut results);
    bench_tiered_overhead(n, iters, &mut results);
    write_json(&out_path, mode, &results);
}
