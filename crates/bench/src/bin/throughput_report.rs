//! E14: the throughput engine — batched interleaved queries and scoped-
//! thread parallel construction.
//!
//! PR 3 drove single-query latency to the memory wall: a static descent is
//! a chain of *dependent* cache misses, so serving heavy traffic is bounded
//! by misses-per-query. This report measures the two ways the engine buys
//! throughput back:
//!
//! * **batched queries** — `access_batch` / `rank_batch` /
//!   `count_prefix_batch` advance N independent descents level-by-level in
//!   lockstep with software prefetch, so N dependent miss chains become
//!   ~depth rounds of overlapped misses. Measured against the scalar-loop
//!   baseline at batch sizes 1/8/64/512, on the static trie and the tiered
//!   store.
//! * **parallel construction** — string-build scaling at 1/2/4 scoped
//!   worker threads (subtrie tasks; the succinct assembly after them is
//!   serial). Note the `cores` field: thread scaling is only meaningful
//!   when the host grants more than one CPU.
//! * **concurrent read scaling** — 1/2/4 *real* reader threads, each
//!   holding a published `StoreSnapshot` of a tiered store and running
//!   batch-64 `access`/`rank`/`count_prefix` kernels; reported as
//!   aggregate throughput and speedup vs one thread. Snapshots are
//!   `Send + Sync` and wait-free on the query path, so this lane measures
//!   genuine parallel serving, not time-sliced interleaving.
//!
//! Writes machine-readable `BENCH_throughput.json`.
//!
//! Usage: `throughput_report [--quick] [--out PATH]`

use std::sync::Barrier;

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{BitStr, BitString, SeqIndex, WaveletTrie};
use wt_bench::{fmt_ns, time_per_op_ns, Table};
use wt_store::{StoreConfig, StoreSnapshot, TieredStore};
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::words::word_text;
use wt_workloads::xorshift;

/// One measured query series.
struct QuerySeries {
    workload: &'static str,
    op: &'static str,
    batch: usize,
    n: usize,
    ns_per_op: f64,
    scalar_ns_per_op: f64,
}

/// One measured string-build point (the url workload).
struct BuildSeries {
    threads: usize,
    n: usize,
    ms: f64,
}

/// One measured concurrent-read point (aggregate across reader threads).
struct ReadSeries {
    workload: &'static str,
    op: &'static str,
    threads: usize,
    batch: usize,
    n: usize,
    total_ops: usize,
    wall_ms: f64,
    mops: f64,
}

const BATCH_SIZES: [usize; 4] = [1, 8, 64, 512];
/// Probe-pool size: large enough that consecutive batches don't re-walk
/// the same cache-resident paths.
const POOL: usize = 8192;

fn encode_all(strings: &[String]) -> Vec<BitString> {
    let coder = NinthBitCoder;
    strings.iter().map(|s| coder.encode(s.as_bytes())).collect()
}

/// Fixed-width random integers: a near-distinct alphabet, so the trie is
/// large and every level of every descent is an uncached pointer chase —
/// the adversarial regime for single-query latency and the best case for
/// interleaving.
fn random_ints(n: usize, width: usize, seed: u64) -> Vec<BitString> {
    let mut next = xorshift(seed);
    (0..n)
        .map(|_| {
            let v = next() & ((1u64 << width) - 1);
            BitString::from_bits((0..width).rev().map(move |k| (v >> k) & 1 != 0))
        })
        .collect()
}

/// Measures one op's scalar baseline and batched throughput on `idx`.
#[allow(clippy::too_many_arguments)]
fn bench_op(
    workload: &'static str,
    op: &'static str,
    n: usize,
    iters: usize,
    scalar: &dyn Fn(usize),
    batched: &dyn Fn(usize, usize),
    t: &Table,
    out: &mut Vec<QuerySeries>,
) {
    let mut at = 0usize;
    let scalar_ns = time_per_op_ns(iters, 5, || {
        scalar(at % POOL);
        at += 1;
    });
    let mut row: Vec<String> = vec![workload.into(), op.into(), fmt_ns(scalar_ns)];
    for &bs in &BATCH_SIZES {
        let calls = (iters / bs).max(4);
        let mut at = 0usize;
        let ns = time_per_op_ns(calls, 5, || {
            batched(at % POOL, bs);
            at += bs;
        }) / bs as f64;
        row.push(format!("{} ({:.2}x)", fmt_ns(ns), scalar_ns / ns));
        out.push(QuerySeries {
            workload,
            op,
            batch: bs,
            n,
            ns_per_op: ns,
            scalar_ns_per_op: scalar_ns,
        });
    }
    let cells: Vec<&str> = row.iter().map(|s| s.as_str()).collect();
    t.row(&cells);
}

/// Batched-query section for one backend over one workload.
fn bench_queries(
    workload: &'static str,
    idx: &dyn SeqIndex,
    encoded: &[BitString],
    iters: usize,
    t: &Table,
    out: &mut Vec<QuerySeries>,
) {
    let n = idx.seq_len();
    let mut next = xorshift(0x9E3779B9);
    // Pre-generated probe pools (wrapping slices keep batch windows cheap).
    let positions: Vec<usize> = (0..POOL + 512)
        .map(|_| (next() % n as u64) as usize)
        .collect();
    let rank_q: Vec<(BitStr<'_>, usize)> = (0..POOL + 512)
        .map(|_| {
            let s = &encoded[(next() % n as u64) as usize];
            (s.as_bitstr(), (next() % (n as u64 + 1)) as usize)
        })
        .collect();
    // Byte-aligned prefixes (~12 bytes) of stored strings: the common
    // "count URLs under this folder" probe.
    let prefixes: Vec<BitStr<'_>> = (0..POOL + 512)
        .map(|_| {
            let s = &encoded[(next() % n as u64) as usize];
            s.as_bitstr().prefix((s.len() / 9).min(12) * 9)
        })
        .collect();
    bench_op(
        workload,
        "access",
        n,
        iters,
        &|k| {
            std::hint::black_box(idx.access(positions[k]));
        },
        &|k, bs| {
            std::hint::black_box(idx.access_batch(&positions[k..k + bs]));
        },
        t,
        out,
    );
    bench_op(
        workload,
        "rank",
        n,
        iters,
        &|k| {
            let (s, pos) = rank_q[k];
            std::hint::black_box(idx.rank(s, pos));
        },
        &|k, bs| {
            std::hint::black_box(idx.rank_batch(&rank_q[k..k + bs]));
        },
        t,
        out,
    );
    bench_op(
        workload,
        "count_prefix",
        n,
        iters,
        &|k| {
            std::hint::black_box(idx.count_prefix(prefixes[k]));
        },
        &|k, bs| {
            std::hint::black_box(idx.count_prefix_batch(&prefixes[k..k + bs]));
        },
        t,
        out,
    );
}

fn bench_query_section(quick: bool, out: &mut Vec<QuerySeries>) {
    // Full mode sizes the working sets past the last-level cache (~100MB
    // on big server parts): throughput batching hides *memory* latency,
    // so the interesting regime is the one where descents actually miss.
    let (n_url, n_words, n_ints) = if quick {
        (100_000, 100_000, 200_000)
    } else {
        (5_000_000, 1_000_000, 12_000_000)
    };
    let iters = if quick { 20_000 } else { 30_000 };
    println!("== batched interleaved queries (pool {POOL}) ==\n");
    let headers: Vec<String> = ["workload", "op", "scalar"]
        .iter()
        .map(|s| s.to_string())
        .chain(BATCH_SIZES.iter().map(|b| format!("batch {b}")))
        .collect();
    let hcells: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let t = Table::new(&hcells, &[12, 12, 9, 16, 16, 16, 16]);
    let url_cfg = UrlLogConfig {
        hosts: 2000,
        ..UrlLogConfig::default()
    };
    let workloads: [(&'static str, Vec<BitString>); 3] = [
        ("url", encode_all(&url_log(n_url, url_cfg, 5))),
        ("words", encode_all(&word_text(n_words, 2000, 7))),
        ("ints", random_ints(n_ints, 28, 99)),
    ];
    for (name, encoded) in &workloads {
        let wt = WaveletTrie::build(encoded).expect("prefix-free inputs");
        bench_queries(name, &wt, encoded, iters, &t, out);
    }
    // The tiered store splits the same batches by segment: 4-ish sealed
    // segments + a hot tail.
    let encoded = &workloads[0].1;
    let mut store = TieredStore::with_config(StoreConfig {
        seal_at: n_url / 5,
        max_sealed: 8,
    });
    for s in encoded.iter() {
        store.append(s.as_bitstr()).expect("prefix-free");
    }
    bench_queries("url_tiered", &store, encoded, iters / 2, &t, out);
    println!();
}

fn bench_construction(quick: bool, out: &mut Vec<BuildSeries>) {
    let n_build = if quick { 60_000 } else { 400_000 };
    println!("== construction scaling (scoped worker threads) ==\n");
    let t = Table::new(
        &["op", "workload", "threads", "wall", "vs 1T"],
        &[8, 10, 7, 10, 7],
    );
    let urls = url_log(n_build, UrlLogConfig::default(), 11);
    let encoded = encode_all(&urls);
    let mut base_ms = 0.0f64;
    for threads in [1usize, 2, 4] {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = std::time::Instant::now();
            let wt = WaveletTrie::build_with_threads(&encoded, threads).expect("prefix-free");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(wt.len());
            best = best.min(ms);
        }
        if threads == 1 {
            base_ms = best;
        }
        t.row(&[
            "build",
            "url",
            &threads.to_string(),
            &format!("{best:.0}ms"),
            &format!("{:.2}x", base_ms / best),
        ]);
        out.push(BuildSeries {
            threads,
            n: n_build,
            ms: best,
        });
    }
    println!();
}

/// Measures how well *pure register-only CPU work* (no memory traffic, no
/// locks, no allocation) scales from 1 to 2 threads on this host. On an
/// oversubscribed cloud box "2 cores" can deliver well under 2x even for
/// embarrassingly parallel spin loops; this ceiling is the fair yardstick
/// for the read-scaling lane — a reader speedup at or above it means the
/// snapshot path added no contention of its own.
fn cpu_scaling_ceiling_2t() -> f64 {
    fn spin(iters: u64) -> u64 {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(next());
        }
        acc
    }
    let iters = 150_000_000u64;
    let wall = |threads: usize| {
        let t0 = std::time::Instant::now();
        std::thread::scope(|sc| {
            let hs: Vec<_> = (0..threads)
                .map(|_| sc.spawn(move || spin(iters)))
                .collect();
            for h in hs {
                std::hint::black_box(h.join().expect("spin thread panicked"));
            }
        });
        t0.elapsed().as_secs_f64()
    };
    let one = wall(1).min(wall(1));
    let two = wall(2).min(wall(2));
    2.0 * one / two
}

/// Concurrent read scaling: 1/2/4 reader threads, each holding its own
/// `StoreSnapshot` of the same published epoch, hammering batch-64 query
/// kernels. Every thread does a *fixed* amount of work, so aggregate
/// throughput (total ops / wall) scales with threads exactly when the
/// snapshot read path is contention-free.
fn bench_read_scaling(quick: bool, ceiling_2t: f64, out: &mut Vec<ReadSeries>) {
    const RB: usize = 64;
    let n = if quick { 150_000 } else { 1_000_000 };
    let per_thread_ops = if quick { 64_000 } else { 512_000 };
    println!("== concurrent read scaling (one StoreSnapshot per reader thread, batch {RB}) ==");
    println!("   host pure-CPU 2-thread ceiling: {ceiling_2t:.2}x\n");
    let t = Table::new(
        &["op", "threads", "wall", "Mop/s", "vs 1T"],
        &[14, 7, 10, 9, 7],
    );
    let url_cfg = UrlLogConfig {
        hosts: 2000,
        ..UrlLogConfig::default()
    };
    let encoded = encode_all(&url_log(n, url_cfg, 23));
    let mut store = TieredStore::with_config(StoreConfig {
        seal_at: n / 5,
        max_sealed: 8,
    });
    for s in &encoded {
        store.append(s.as_bitstr()).expect("prefix-free");
    }
    store.publish();
    let reader = store.reader();

    let mut next = xorshift(0xC0FFEE);
    let positions: Vec<usize> = (0..POOL + 512)
        .map(|_| (next() % n as u64) as usize)
        .collect();
    let rank_q: Vec<(BitStr<'_>, usize)> = (0..POOL + 512)
        .map(|_| {
            let s = &encoded[(next() % n as u64) as usize];
            (s.as_bitstr(), (next() % (n as u64 + 1)) as usize)
        })
        .collect();
    let prefixes: Vec<BitStr<'_>> = (0..POOL + 512)
        .map(|_| {
            let s = &encoded[(next() % n as u64) as usize];
            s.as_bitstr().prefix((s.len() / 9).min(12) * 9)
        })
        .collect();

    type Kernel<'a> = Box<dyn Fn(&StoreSnapshot, usize) + Sync + 'a>;
    let kernels: [(&'static str, Kernel<'_>); 3] = [
        (
            "access",
            Box::new(|snap, k| {
                std::hint::black_box(snap.access_batch(&positions[k..k + RB]));
            }),
        ),
        (
            "rank",
            Box::new(|snap, k| {
                std::hint::black_box(snap.rank_batch(&rank_q[k..k + RB]));
            }),
        ),
        (
            "count_prefix",
            Box::new(|snap, k| {
                std::hint::black_box(snap.count_prefix_batch(&prefixes[k..k + RB]));
            }),
        ),
    ];
    for (op, kernel) in &kernels {
        let mut base_mops = 0.0f64;
        for threads in [1usize, 2, 4] {
            let mut best_wall = f64::INFINITY;
            for _ in 0..2 {
                let barrier = Barrier::new(threads + 1);
                let wall = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..threads)
                        .map(|ti| {
                            let reader = reader.clone();
                            let barrier = &barrier;
                            scope.spawn(move || {
                                let snap = reader.snapshot();
                                barrier.wait();
                                // Decorrelate thread starting offsets so the
                                // threads don't march through the pool in
                                // cache-sharing lockstep.
                                let mut at = ti * 977;
                                let mut done = 0usize;
                                while done < per_thread_ops {
                                    kernel(&snap, at % POOL);
                                    at += RB;
                                    done += RB;
                                }
                            })
                        })
                        .collect();
                    barrier.wait();
                    let t0 = std::time::Instant::now();
                    for h in handles {
                        h.join().expect("reader thread panicked");
                    }
                    t0.elapsed().as_secs_f64()
                });
                best_wall = best_wall.min(wall);
            }
            let total_ops = per_thread_ops * threads;
            let mops = total_ops as f64 / best_wall / 1e6;
            if threads == 1 {
                base_mops = mops;
            }
            t.row(&[
                op,
                &threads.to_string(),
                &format!("{:.0}ms", best_wall * 1e3),
                &format!("{mops:.2}"),
                &format!("{:.2}x", mops / base_mops),
            ]);
            out.push(ReadSeries {
                workload: "url_tiered",
                op,
                threads,
                batch: RB,
                n,
                total_ops,
                wall_ms: best_wall * 1e3,
                mops,
            });
        }
    }
    println!();
}

fn write_json(
    path: &str,
    mode: &str,
    ceiling_2t: f64,
    queries: &[QuerySeries],
    builds: &[BuildSeries],
    reads: &[ReadSeries],
) {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"throughput_report\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str(&format!("  \"cores\": {cores},\n"));
    s.push_str(&format!("  \"cpu_scaling_ceiling_2t\": {ceiling_2t:.2},\n"));
    s.push_str("  \"batch_results\": [\n");
    for (i, q) in queries.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"op\": \"{}\", \"batch\": {}, \"n\": {}, \
             \"ns_per_op\": {:.1}, \"scalar_ns_per_op\": {:.1}, \"speedup\": {:.2}}}{}\n",
            q.workload,
            q.op,
            q.batch,
            q.n,
            q.ns_per_op,
            q.scalar_ns_per_op,
            q.scalar_ns_per_op / q.ns_per_op,
            if i + 1 < queries.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"read_results\": [\n");
    let read_base = |op: &str| {
        reads
            .iter()
            .find(|r| r.op == op && r.threads == 1)
            .map(|r| r.mops)
            .unwrap_or(0.0)
    };
    for (i, r) in reads.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"op\": \"{}\", \"threads\": {}, \"batch\": {}, \
             \"n\": {}, \"total_ops\": {}, \"wall_ms\": {:.1}, \"mops\": {:.2}, \
             \"speedup_vs_1t\": {:.2}{}}}{}\n",
            r.workload,
            r.op,
            r.threads,
            r.batch,
            r.n,
            r.total_ops,
            r.wall_ms,
            r.mops,
            r.mops / read_base(r.op),
            if r.threads == 2 {
                format!(
                    ", \"efficiency_vs_host_ceiling\": {:.2}",
                    (r.mops / read_base(r.op)) / ceiling_2t
                )
            } else {
                String::new()
            },
            if i + 1 < reads.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"build_results\": [\n");
    let base = builds.iter().find(|b| b.threads == 1).map_or(0.0, |b| b.ms);
    for (i, b) in builds.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"url\", \"op\": \"build\", \"threads\": {}, \"n\": {}, \
             \"ms\": {:.1}, \"speedup_vs_1t\": {:.2}}}{}\n",
            b.threads,
            b.n,
            b.ms,
            base / b.ms,
            if i + 1 < builds.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH_throughput.json");
    println!(
        "wrote {path} ({} query series, {} read points, {} build points, {cores} core(s))",
        queries.len(),
        reads.len(),
        builds.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let mode = if quick { "quick" } else { "full" };
    let mut queries = Vec::new();
    let mut builds = Vec::new();
    let mut reads = Vec::new();
    let ceiling_2t = cpu_scaling_ceiling_2t();
    bench_query_section(quick, &mut queries);
    bench_read_scaling(quick, ceiling_2t, &mut reads);
    bench_construction(quick, &mut builds);
    write_json(&out_path, mode, ceiling_2t, &queries, &builds, &reads);
}
