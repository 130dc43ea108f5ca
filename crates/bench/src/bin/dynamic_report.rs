//! E11: throughput trajectory for the fully dynamic structures (§4.2).
//!
//! Unlike `bitvec_report` (which checks the *asymptotic shape* of the §4.2
//! cost claims), this report measures absolute throughput of every
//! [`wt_bits::DynamicBitVec`] and [`wavelet_trie::DynamicWaveletTrie`] hot path across bit
//! distributions, and writes machine-readable `BENCH_dynamic.json` so each
//! perf PR extends a comparable trajectory.
//!
//! The headline series is `chunk_local_mixed_insert_rank`: interleaved
//! insert/rank/delete confined to a sliding window, the access pattern a
//! Wavelet Trie column update produces in every node bitvector on its root
//! to leaf path — and the pattern the hot-chunk run cache is built for.
//!
//! Usage: `dynamic_report [--quick] [--out PATH]` (see [`wt_bench::Report`]).

use wavelet_trie::DynamicStrings;
use wt_bench::{fmt_ns, per_op_ns, time_per_op_ns, Report, Summary, Table};
use wt_bits::{BitAccess, BitRank, BitSelect, DynamicBitVec, SpaceUsage};
use wt_workloads::words::word_text;
use wt_workloads::xorshift;

/// Adds one row: ns/op for `op` on `structure` under `dist` at size `n`.
fn push(report: &mut Report, structure: &str, dist: &str, op: &str, n: usize, ns: Summary) {
    report
        .row()
        .set("structure", structure)
        .set("dist", dist)
        .set("op", op)
        .set("n", n)
        .set("ns_per_op", ns)
        .set("mops", 1e3 / ns.p50);
}

/// The three §4.2-relevant bit distributions: dense (runs ≈ 2, worst case
/// for RLE), sparse (runs ≈ 64), runny (runs ≈ 256, best case).
fn build(dist: &str, n: usize, next: &mut impl FnMut() -> u64) -> DynamicBitVec {
    let mut v = DynamicBitVec::new();
    match dist {
        "dense" => {
            for _ in 0..n {
                v.push(next().is_multiple_of(2));
            }
        }
        "sparse" => {
            for _ in 0..n {
                v.push(next().is_multiple_of(64));
            }
        }
        "runny" => {
            for i in 0..n {
                v.push((i / 256) % 2 == 0);
            }
        }
        _ => unreachable!("unknown distribution"),
    }
    v
}

fn bench_bitvec(report: &mut Report) {
    let n = if report.quick { 200_000 } else { 1_000_000 };
    let iters = if report.quick { 20_000 } else { 100_000 };
    println!("== DynamicBitVec (§4.2, Thm 4.9) at n = {n} ==\n");
    let t = Table::new(
        &[
            "dist",
            "insert",
            "delete",
            "rank",
            "select",
            "access",
            "local mix",
            "bits/bit",
        ],
        &[8, 9, 9, 9, 9, 9, 10, 9],
    );
    for dist in ["dense", "sparse", "runny"] {
        let mut next = xorshift(42);
        let mut v = build(dist, n, &mut next);

        // Random-position edit pairs: each insert lands in a fresh chunk
        // (cache miss + flush); the immediate delete of the same bit keeps
        // the content identical — at the price of being chunk-local, so the
        // per-op figure averages one cold and one cache-warm edit. Content
        // preservation matters: deleting anywhere else would scramble the
        // distribution under the later measurements.
        let mut i = 0usize;
        let insert_delete = Summary::sample(3, || {
            per_op_ns(iters, || {
                i = (i + 7919) % n;
                v.insert(i, i.is_multiple_of(2));
                v.remove(i);
            }) / 2.0
        });
        let rank = time_per_op_ns(iters, 3, || {
            i = (i + 7919) % n;
            std::hint::black_box(v.rank1(i));
        });
        let ones = v.count_ones().max(1);
        let select = time_per_op_ns(iters, 3, || {
            i = (i + 7919) % ones;
            std::hint::black_box(v.select1(i));
        });
        let access = time_per_op_ns(iters, 3, || {
            i = (i + 7919) % n;
            std::hint::black_box(v.get(i));
        });

        // Chunk-local mixed insert/rank: a sliding 32-bit window that moves
        // rarely, so consecutive ops hit the same chunk (the Wavelet Trie
        // column-update pattern). One iteration = insert + rank + delete;
        // the reported figure is per primitive op.
        let mut base = n / 2;
        let local = Summary::sample(3, || {
            per_op_ns(iters, || {
                let r = next();
                let pos = base + (r % 32) as usize;
                v.insert(pos, r.is_multiple_of(2));
                std::hint::black_box(v.rank1(pos));
                v.remove(pos);
                if r.is_multiple_of(1024) {
                    base = (next() % (n as u64 - 64)) as usize;
                }
            }) / 3.0
        });

        t.row(&[
            dist,
            &fmt_ns(insert_delete.p50),
            &fmt_ns(insert_delete.p50),
            &fmt_ns(rank.p50),
            &fmt_ns(select.p50),
            &fmt_ns(access.p50),
            &fmt_ns(local.p50),
            &format!("{:.3}", v.size_bits() as f64 / n as f64),
        ]);
        for (op, ns) in [
            ("insert", insert_delete),
            ("delete", insert_delete),
            ("rank", rank),
            ("select", select),
            ("access", access),
            ("chunk_local_mixed_insert_rank", local),
        ] {
            push(report, "DynamicBitVec", dist, op, n, ns);
        }
    }
    println!();
}

fn bench_wavelet_trie(report: &mut Report) {
    let n = if report.quick { 5_000 } else { 20_000 };
    let iters = if report.quick { 2_000 } else { 5_000 };
    println!("== DynamicWaveletTrie (§4, Thm 4.4) at n = {n} strings ==\n");
    let strings = word_text(n, 1000, 7);
    let mut ws = DynamicStrings::new();
    // One timed fill: the pushes build the trie every later op runs on.
    let mut fill = strings.iter();
    let push_ns = Summary::of(vec![per_op_ns(n, || {
        ws.push(fill.next().expect("one string per push"))
    })]);
    let mut next = xorshift(9);
    let insert = Summary::sample(3, || {
        per_op_ns(iters, || {
            let pos = (next() % (ws.len() as u64 + 1)) as usize;
            let s = &strings[(next() % n as u64) as usize];
            ws.insert(s, pos);
            ws.remove(pos);
        }) / 2.0
    });
    let rank = time_per_op_ns(iters, 3, || {
        let pos = (next() % (ws.len() as u64 + 1)) as usize;
        let s = &strings[(next() % n as u64) as usize];
        std::hint::black_box(ws.rank(s, pos));
    });
    let select = time_per_op_ns(iters, 3, || {
        let s = &strings[(next() % n as u64) as usize];
        std::hint::black_box(ws.select(s, 0));
    });
    let access = time_per_op_ns(iters, 3, || {
        let pos = (next() % ws.len() as u64) as usize;
        std::hint::black_box(ws.get_bytes(pos));
    });
    let t = Table::new(
        &["push", "insert", "delete", "rank", "select", "access"],
        &[9, 9, 9, 9, 9, 9],
    );
    t.row(&[
        &fmt_ns(push_ns.p50),
        &fmt_ns(insert.p50),
        &fmt_ns(insert.p50),
        &fmt_ns(rank.p50),
        &fmt_ns(select.p50),
        &fmt_ns(access.p50),
    ]);
    for (op, ns) in [
        ("push", push_ns),
        ("insert", insert),
        ("delete", insert),
        ("rank", rank),
        ("select", select),
        ("access", access),
    ] {
        push(report, "DynamicWaveletTrie", "word_text", op, n, ns);
    }
    println!();
}

fn main() {
    let mut report = Report::from_args("dynamic_report");
    bench_bitvec(&mut report);
    bench_wavelet_trie(&mut report);
    report.finish();
}
