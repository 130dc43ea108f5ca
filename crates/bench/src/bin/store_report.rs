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
//! * **ints shard** — µs per append, the freeze and the drop of an
//!   `AppendWaveletTrie` over 150k near-distinct 28-bit ints that share
//!   their top two bits, the shape of one ints_scan shard of `wtbench`,
//!   where appends and the seal are nearly all of the set-up, and the
//!   trie's size in bits per string before it is sealed;
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
//! Usage: `store_report [--quick] [--out PATH]` (see [`wt_bench::Report`]).

use wavelet_trie::{
    AppendWaveletTrie, BitString, DynWaveletTrie, DynamicWaveletTrie, IndexedStrings, SeqIndex,
    SequenceOps, WaveletTrie, WtBitVec,
};
use wt_bench::{
    encode_all, fmt_ns, random_ints, time_ms, time_once_ms, time_per_op_ns, Report, Summary, Table,
};
use wt_bits::SpaceUsage;
use wt_store::{StoreConfig, TieredStore, TieredStrings};
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::xorshift;

/// Builds a trie of `encoded` by appends, `samples` times; returns the
/// last build and the µs per append.
fn build_by_appends<B: WtBitVec>(
    encoded: &[BitString],
    samples: usize,
) -> (DynWaveletTrie<B>, Summary) {
    let mut built = DynWaveletTrie::new();
    let us = Summary::sample(samples, || {
        let (wt, ms) = time_once_ms(|| {
            let mut wt = DynWaveletTrie::<B>::new();
            for s in encoded {
                wt.append(s.as_bitstr())
                    .expect("NinthBitCoder output is prefix-free");
            }
            wt
        });
        built = wt;
        ms * 1e3 / encoded.len() as f64
    });
    (built, us)
}

fn bench_freeze_vs_rebuild(n: usize, samples: usize, report: &mut Report) {
    println!("== append, structural freeze, and rebuild-from-strings at n = {n} ==\n");
    let encoded = encode_all(&url_log(n, UrlLogConfig::default(), 5));
    let (dynamic, dynamic_us): (DynamicWaveletTrie, _) = build_by_appends(&encoded, samples);
    let (append, append_us): (AppendWaveletTrie, _) = build_by_appends(&encoded, samples);

    let t = Table::new(
        &["backend", "append", "freeze", "rebuild", "speedup"],
        &[20, 10, 10, 10, 8],
    );
    for (name, append_us, append_ratio, freeze_ms, rebuild_ms) in [
        (
            "DynamicWaveletTrie",
            dynamic_us,
            None,
            time_ms(samples, || dynamic.freeze()),
            time_ms(samples, || {
                WaveletTrie::from_bitstrings(dynamic.iter_seq())
                    .expect("stored sequence is prefix-free")
            }),
        ),
        (
            "AppendWaveletTrie",
            append_us,
            Some(dynamic_us.p50 / append_us.p50),
            time_ms(samples, || append.freeze()),
            time_ms(samples, || {
                WaveletTrie::from_bitstrings(append.iter_seq())
                    .expect("stored sequence is prefix-free")
            }),
        ),
    ] {
        let speedup = rebuild_ms.p50 / freeze_ms.p50;
        t.row(&[
            name,
            &format!("{:.2}µs", append_us.p50),
            &format!("{:.1}ms", freeze_ms.p50),
            &format!("{:.1}ms", rebuild_ms.p50),
            &format!("{speedup:.1}x"),
        ]);
        for (op, value, unit, ratio) in [
            ("append", append_us, "us_per_op", append_ratio),
            ("freeze", freeze_ms, "ms", Some(speedup)),
            ("rebuild", rebuild_ms, "ms", None),
        ] {
            report.value_row((name, "url_log", op), n, value, unit, ratio);
        }
    }
    // Sanity: the frozen trie answers like the rebuilt one.
    let frozen = dynamic.freeze();
    assert_eq!(frozen.seq_len(), n);
    assert_eq!(frozen.access(n / 2), encoded[n / 2]);
    println!();
}

/// Strings in one ints_scan shard: 600k ints over four shards.
const INTS_SHARD: usize = 150_000;

fn bench_ints_shard(samples: usize, report: &mut Report) {
    println!("== append, freeze and drop of one ints_scan shard, n = {INTS_SHARD} ==\n");
    // The shard's ints share their top two bits, as `shard_for` places them.
    let encoded = random_ints(INTS_SHARD, 28, 26, 0x1A75);
    let (append, append_us): (AppendWaveletTrie, _) = build_by_appends(&encoded, samples);
    let freeze_ms = time_ms(samples, || append.freeze());
    // Each sample frees a trie built by appends, as a seal frees its tail.
    let drop_ms = Summary::sample(samples, || {
        let (wt, _): (AppendWaveletTrie, _) = build_by_appends(&encoded, 1);
        time_once_ms(|| drop(wt)).1
    });
    let hot_bits = append.size_bits() as f64 / INTS_SHARD as f64;
    let t = Table::new(
        &["backend", "append", "freeze", "drop", "bits/str"],
        &[20, 10, 10, 10, 10],
    );
    t.row(&[
        "AppendWaveletTrie",
        &format!("{:.2}µs", append_us.p50),
        &format!("{:.1}ms", freeze_ms.p50),
        &format!("{:.1}ms", drop_ms.p50),
        &format!("{hot_bits:.0}"),
    ]);
    let key = |op| ("AppendWaveletTrie", "ints28", op);
    for (op, value, unit) in [
        ("append", append_us, "us_per_op"),
        ("freeze", freeze_ms, "ms"),
        ("drop", drop_ms, "ms"),
    ] {
        report.value_row(key(op), INTS_SHARD, value, unit, None);
    }
    report.value_row(key("size"), INTS_SHARD, hot_bits, "bits_per_str", None);
    println!();
}

/// Hot-tail sizes of the fill sweep.
const TAIL_KS: [usize; 4] = [128, 600, 2_000, 8_192];

fn bench_tail_fill(samples: usize, report: &mut Report) {
    println!("== TieredStore::append while the hot tail fills to K strings ==\n");
    let encoded = encode_all(&url_log(
        TAIL_KS[TAIL_KS.len() - 1],
        UrlLogConfig::default(),
        9,
    ));
    let t = Table::new(&["tail K", "append", "+ publish", "ratio"], &[8, 10, 10, 8]);
    for k in TAIL_KS {
        let fill_us = |publish: bool| {
            Summary::sample(samples, || {
                let mut st = TieredStore::with_config(StoreConfig {
                    seal_at: usize::MAX,
                    max_sealed: 8,
                });
                let ((), ms) = time_once_ms(|| {
                    for s in &encoded[..k] {
                        st.append(s.as_bitstr())
                            .expect("NinthBitCoder output is prefix-free");
                        if publish {
                            st.publish();
                        }
                    }
                });
                ms * 1e3 / k as f64
            })
        };
        let (bare, published) = (fill_us(false), fill_us(true));
        let ratio = published.p50 / bare.p50;
        t.row(&[
            &k.to_string(),
            &format!("{:.2}µs", bare.p50),
            &format!("{:.2}µs", published.p50),
            &format!("{ratio:.1}x"),
        ]);
        for (op, value, ratio) in [
            ("append", bare, None),
            ("append_publish", published, Some(ratio)),
        ] {
            report.value_row(("TieredStore", "url_log", op), k, value, "us_per_op", ratio);
        }
    }
    println!();
}

fn bench_tiered_overhead(n: usize, iters: usize, report: &mut Report) {
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
    let series =
        |name: &'static str, ns: [Summary; 4], base: Option<&[Summary; 4]>, report: &mut Report| {
            t.row(&[
                name,
                &fmt_ns(ns[0].p50),
                &fmt_ns(ns[1].p50),
                &fmt_ns(ns[2].p50),
                &fmt_ns(ns[3].p50),
            ]);
            let ops = ["access", "rank", "select", "count_prefix"];
            for (i, op) in ops.into_iter().enumerate() {
                let ratio = base.map(|b| ns[i].p50 / b[i].p50);
                report.value_row((name, "url_log", op), n, ns[i], "ns_per_op", ratio);
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
    series("IndexedStrings", base, None, report);
    series("TieredStrings", measure!(tiered), Some(&base), report);
    println!();
}

fn main() {
    let mut report = Report::from_args("store_report");
    let (n, samples, iters) = if report.quick {
        (20_000, 3, 2_000)
    } else {
        (100_000, 5, 20_000)
    };
    bench_freeze_vs_rebuild(n, samples, &mut report);
    bench_ints_shard(samples, &mut report);
    bench_tail_fill(samples, &mut report);
    bench_tiered_overhead(n, iters, &mut report);
    report.finish();
}
