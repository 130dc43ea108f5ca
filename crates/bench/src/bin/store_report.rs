//! E13: the tiered store and the structural freeze path.
//!
//! Two claims and two baselines, one machine-readable trajectory file
//! (`BENCH_store.json`):
//!
//! * **freeze vs rebuild** — sealing a dynamic Wavelet Trie with the
//!   structural `freeze()` (one trie walk, word-level copies) must beat
//!   rebuilding the static trie from re-emitted strings
//!   (`iter_seq` → `WaveletTrie::from_bitstrings`) by ≥5× on the
//!   100k-URL workload, for both the append-only and fully dynamic
//!   backends; the µs per `append` that built each backend is reported
//!   beside its freeze (the store's hot tail is append-only until
//!   edited);
//! * **ints shard** — µs per append and the freeze of an
//!   `AppendWaveletTrie` over 150k near-distinct 28-bit ints that share
//!   their top two bits, the shape of one ints_scan shard of `wtbench`,
//!   where appends and the seal are nearly all of the set-up;
//! * **tail fill** — µs per `TieredStore::append` while the hot tail grows
//!   from empty to K strings, with and without a `publish()` after every
//!   append, the pattern of a serving shard: each publish makes the next
//!   append copy the tail;
//! * **tiered query overhead** — `TieredStrings` (hot tier + sealed
//!   static segments + Elias–Fano position routing) pays a bounded
//!   constant over a single monolithic static `IndexedStrings` on
//!   access/rank/select/count_prefix, while also absorbing updates the
//!   static structure cannot.
//!
//! Usage: `store_report [--quick] [--out PATH]`

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{
    AppendWaveletTrie, BitString, DynWaveletTrie, DynamicWaveletTrie, IndexedStrings, SeqIndex,
    SequenceOps, WaveletTrie, WtBitVec,
};
use wt_bench::{fmt_ns, time_once_ms, time_per_op_ns, Table};
use wt_bits::SpaceUsage;
use wt_store::{StoreConfig, TieredStore, TieredStrings};
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::xorshift;

/// One measured series.
struct Measurement {
    structure: &'static str,
    workload: &'static str,
    op: &'static str,
    n: usize,
    /// ns/op for query series, µs per string for appends, ms for builds.
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

fn encode_urls(n: usize, seed: u64) -> Vec<BitString> {
    let coder = NinthBitCoder;
    let strings = url_log(n, UrlLogConfig::default(), seed);
    strings.iter().map(|s| coder.encode(s.as_bytes())).collect()
}

/// Builds a trie of `encoded` by appends, `samples` times; returns the
/// last build and the median µs per append.
fn build_by_appends<B: WtBitVec>(
    encoded: &[BitString],
    samples: usize,
) -> (DynWaveletTrie<B>, f64) {
    let mut built = DynWaveletTrie::new();
    let ms = median_ms(samples, || {
        let (wt, ms) = time_once_ms(|| {
            let mut wt = DynWaveletTrie::<B>::new();
            for s in encoded {
                wt.append(s.as_bitstr())
                    .expect("NinthBitCoder output is prefix-free");
            }
            wt
        });
        built = wt;
        ms
    });
    (built, ms * 1e3 / encoded.len() as f64)
}

fn bench_freeze_vs_rebuild(n: usize, samples: usize, out: &mut Vec<Measurement>) {
    println!("== append, structural freeze, and rebuild-from-strings at n = {n} ==\n");
    let encoded = encode_urls(n, 5);
    let (dynamic, dynamic_us): (DynamicWaveletTrie, f64) = build_by_appends(&encoded, samples);
    let (append, append_us): (AppendWaveletTrie, f64) = build_by_appends(&encoded, samples);

    let t = Table::new(
        &["backend", "append", "freeze", "rebuild", "speedup"],
        &[20, 10, 10, 10, 8],
    );
    for (name, append_us, append_ratio, freeze_ms, rebuild_ms) in [
        (
            "DynamicWaveletTrie",
            dynamic_us,
            0.0,
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
            append_us,
            dynamic_us / append_us,
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
            &format!("{append_us:.2}µs"),
            &format!("{freeze_ms:.1}ms"),
            &format!("{rebuild_ms:.1}ms"),
            &format!("{speedup:.1}x"),
        ]);
        out.push(Measurement {
            structure: name,
            workload: "url_log",
            op: "append",
            n,
            value: append_us,
            unit: "us_per_op",
            ratio: append_ratio,
        });
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

/// Strings in one ints_scan shard: 600k ints over four shards.
const INTS_SHARD: usize = 150_000;

fn bench_ints_shard(samples: usize, out: &mut Vec<Measurement>) {
    println!("== append and freeze of one ints_scan shard, n = {INTS_SHARD} ==\n");
    // The shard's ints share their top two bits, as `shard_for` places them.
    let mut next = xorshift(0x1A75);
    let encoded: Vec<BitString> = (0..INTS_SHARD)
        .map(|_| {
            let v = next() & ((1 << 26) - 1);
            BitString::from_bits((0..28).rev().map(move |k| (v >> k) & 1 != 0))
        })
        .collect();
    let (append, append_us): (AppendWaveletTrie, f64) = build_by_appends(&encoded, samples);
    let freeze_ms = median_ms(samples, || time_once_ms(|| append.freeze()).1);
    let t = Table::new(&["backend", "append", "freeze"], &[20, 10, 10]);
    t.row(&[
        "AppendWaveletTrie",
        &format!("{append_us:.2}µs"),
        &format!("{freeze_ms:.1}ms"),
    ]);
    for (op, value, unit) in [
        ("append", append_us, "us_per_op"),
        ("freeze", freeze_ms, "ms"),
    ] {
        out.push(Measurement {
            structure: "AppendWaveletTrie",
            workload: "ints28",
            op,
            n: INTS_SHARD,
            value,
            unit,
            ratio: 0.0,
        });
    }
    println!();
}

/// Hot-tail sizes of the fill sweep.
const TAIL_KS: [usize; 4] = [128, 600, 2_000, 8_192];

fn bench_tail_fill(samples: usize, out: &mut Vec<Measurement>) {
    println!("== TieredStore::append while the hot tail fills to K strings ==\n");
    let encoded = encode_urls(TAIL_KS[TAIL_KS.len() - 1], 9);
    let t = Table::new(&["tail K", "append", "+ publish", "ratio"], &[8, 10, 10, 8]);
    for k in TAIL_KS {
        let fill_us = |publish: bool| {
            let ms = median_ms(samples, || {
                let mut st = TieredStore::with_config(StoreConfig {
                    seal_at: usize::MAX,
                    max_sealed: 8,
                });
                time_once_ms(|| {
                    for s in &encoded[..k] {
                        st.append(s.as_bitstr())
                            .expect("NinthBitCoder output is prefix-free");
                        if publish {
                            st.publish();
                        }
                    }
                })
                .1
            });
            ms * 1e3 / k as f64
        };
        let (bare, published) = (fill_us(false), fill_us(true));
        t.row(&[
            &k.to_string(),
            &format!("{bare:.2}µs"),
            &format!("{published:.2}µs"),
            &format!("{:.1}x", published / bare),
        ]);
        for (op, value, ratio) in [
            ("append", bare, 0.0),
            ("append_publish", published, published / bare),
        ] {
            out.push(Measurement {
                structure: "TieredStore",
                workload: "url_log",
                op,
                n: k,
                value,
                unit: "us_per_op",
                ratio,
            });
        }
    }
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
    bench_ints_shard(samples, &mut results);
    bench_tail_fill(samples, &mut results);
    bench_tiered_overhead(n, iters, &mut results);
    write_json(&out_path, mode, &results);
}
