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
//! Usage: `dynamic_report [--quick] [--out PATH]`

use wavelet_trie::DynamicStrings;
use wt_bench::{fmt_ns, time_per_op_ns, Table};
use wt_bits::{BitAccess, BitRank, BitSelect, DynamicBitVec, SpaceUsage};
use wt_workloads::words::word_text;
use wt_workloads::xorshift;

/// One measured series: ns/op for `op` on `structure` under `dist` at size `n`.
struct Measurement {
    structure: &'static str,
    dist: &'static str,
    op: &'static str,
    n: usize,
    ns_per_op: f64,
}

impl Measurement {
    fn mops(&self) -> f64 {
        1e3 / self.ns_per_op
    }
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

fn bench_bitvec(quick: bool, out: &mut Vec<Measurement>) {
    let n = if quick { 200_000 } else { 1_000_000 };
    let iters = if quick { 20_000 } else { 100_000 };
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
        let insert_delete = time_per_op_ns(iters, 3, || {
            i = (i + 7919) % n;
            v.insert(i, i.is_multiple_of(2));
            v.remove(i);
        }) / 2.0;
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
        let local = time_per_op_ns(iters, 3, || {
            let r = next();
            let pos = base + (r % 32) as usize;
            v.insert(pos, r.is_multiple_of(2));
            std::hint::black_box(v.rank1(pos));
            v.remove(pos);
            if r.is_multiple_of(1024) {
                base = (next() % (n as u64 - 64)) as usize;
            }
        }) / 3.0;

        t.row(&[
            dist,
            &fmt_ns(insert_delete),
            &fmt_ns(insert_delete),
            &fmt_ns(rank),
            &fmt_ns(select),
            &fmt_ns(access),
            &fmt_ns(local),
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
            out.push(Measurement {
                structure: "DynamicBitVec",
                dist,
                op,
                n,
                ns_per_op: ns,
            });
        }
    }
    println!();
}

fn bench_wavelet_trie(quick: bool, out: &mut Vec<Measurement>) {
    let n = if quick { 5_000 } else { 20_000 };
    let iters = if quick { 2_000 } else { 5_000 };
    println!("== DynamicWaveletTrie (§4, Thm 4.4) at n = {n} strings ==\n");
    let strings = word_text(n, 1000, 7);
    let mut ws = DynamicStrings::new();
    let push = {
        let t0 = std::time::Instant::now();
        for s in &strings {
            ws.push(s);
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    let mut next = xorshift(9);
    let insert = time_per_op_ns(iters, 3, || {
        let pos = (next() % (ws.len() as u64 + 1)) as usize;
        let s = &strings[(next() % n as u64) as usize];
        ws.insert(s, pos);
        ws.remove(pos);
    }) / 2.0;
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
        &fmt_ns(push),
        &fmt_ns(insert),
        &fmt_ns(insert),
        &fmt_ns(rank),
        &fmt_ns(select),
        &fmt_ns(access),
    ]);
    for (op, ns) in [
        ("push", push),
        ("insert", insert),
        ("delete", insert),
        ("rank", rank),
        ("select", select),
        ("access", access),
    ] {
        out.push(Measurement {
            structure: "DynamicWaveletTrie",
            dist: "word_text",
            op,
            n,
            ns_per_op: ns,
        });
    }
    println!();
}

fn write_json(path: &str, mode: &str, results: &[Measurement]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"dynamic_report\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"unit\": \"ns_per_op\",\n");
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"structure\": \"{}\", \"dist\": \"{}\", \"op\": \"{}\", \"n\": {}, \
             \"ns_per_op\": {:.1}, \"mops\": {:.3}}}{}\n",
            m.structure,
            m.dist,
            m.op,
            m.n,
            m.ns_per_op,
            m.mops(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH_dynamic.json");
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
        .unwrap_or_else(|| "BENCH_dynamic.json".to_string());
    let mode = if quick { "quick" } else { "full" };

    let mut results = Vec::new();
    bench_bitvec(quick, &mut results);
    bench_wavelet_trie(quick, &mut results);
    write_json(&out_path, mode, &results);
}
