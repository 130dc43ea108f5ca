//! E12: throughput trajectory for the *static* query stack (§2/§3).
//!
//! The static half of Table 1 bottoms out in two substrates: the
//! entropy-compressed [`RrrVector`] (§2 FID) and the uncompressed [`Fid`]
//! directory, which also holds the static trie's level-order internal
//! flags (§3). This report measures absolute ns/op for every static hot
//! path across bit distributions and string workloads, and writes
//! machine-readable `BENCH_static.json` so perf PRs extend a comparable
//! trajectory — the static counterpart of `dynamic_report` (E11).
//!
//! Sections:
//! * static bitvectors — rank/select/access on dense/mid/sparse/runny
//!   inputs, for both `RrrVector` and `Fid`, with bits-per-bit space;
//! * `IndexedStrings` (static Wavelet Trie, Thm 3.7) — access/rank/select/
//!   prefix ops on the url-log and word-text workloads.
//!
//! Usage: `static_report [--quick] [--out PATH]` (see [`wt_bench::Report`]).

use wavelet_trie::IndexedStrings;
use wt_bench::{fmt_ns, time_per_op_ns, Report, Table};
use wt_bits::{BitSelect, Fid, RawBitVec, RrrVector, SpaceUsage};
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::words::word_text;
use wt_workloads::xorshift;

/// Static bit distributions mirroring `dynamic_report`: dense (~50% ones),
/// sparse (~1.6%), runny (256-bit runs), plus mid (~33%), whose RRR blocks
/// fall on both sides of the verbatim classes 22–41 (dense blocks sit
/// inside them, sparse ones below).
fn build_bits(dist: &str, n: usize, next: &mut impl FnMut() -> u64) -> RawBitVec {
    match dist {
        "dense" => RawBitVec::from_bits((0..n).map(|_| next().is_multiple_of(2))),
        "mid" => RawBitVec::from_bits((0..n).map(|_| next().is_multiple_of(3))),
        "sparse" => RawBitVec::from_bits((0..n).map(|_| next().is_multiple_of(64))),
        "runny" => RawBitVec::from_bits((0..n).map(|i| (i / 256) % 2 == 0)),
        _ => unreachable!("unknown distribution"),
    }
}

fn bench_static_bitvecs(report: &mut Report) {
    let n = if report.quick { 200_000 } else { 1_000_000 };
    let iters = if report.quick { 20_000 } else { 100_000 };
    println!("== static bitvectors (§2 FIDs) at n = {n} ==\n");
    let t = Table::new(
        &[
            "structure",
            "dist",
            "rank",
            "select1",
            "select0",
            "access",
            "bits/bit",
        ],
        &[10, 8, 9, 9, 9, 9, 9],
    );
    for dist in ["dense", "mid", "sparse", "runny"] {
        let mut next = xorshift(42);
        let bits = build_bits(dist, n, &mut next);
        let ones = bits.count_ones().max(1);
        let zeros = (bits.len() - bits.count_ones()).max(1);

        // Type-erased loop body per structure, keeping one measurement path.
        let rrr = RrrVector::new(&bits);
        let fid = Fid::new(bits.clone());
        let structures: [(&'static str, &dyn BitSelect, f64); 2] = [
            ("RrrVector", &rrr, rrr.size_bits() as f64 / n as f64),
            ("Fid", &fid, fid.size_bits() as f64 / n as f64),
        ];
        for (name, bv, bits_per) in structures {
            let mut i = 0usize;
            let rank = time_per_op_ns(iters, 7, || {
                i = (i + 7919) % n;
                std::hint::black_box(bv.rank1(i));
            });
            let select1 = time_per_op_ns(iters, 7, || {
                i = (i + 7919) % ones;
                std::hint::black_box(bv.select1(i));
            });
            let select0 = time_per_op_ns(iters, 7, || {
                i = (i + 7919) % zeros;
                std::hint::black_box(bv.select0(i));
            });
            let access = time_per_op_ns(iters, 7, || {
                i = (i + 7919) % n;
                std::hint::black_box(bv.get(i));
            });
            t.row(&[
                name,
                dist,
                &fmt_ns(rank.p50),
                &fmt_ns(select1.p50),
                &fmt_ns(select0.p50),
                &fmt_ns(access.p50),
                &format!("{bits_per:.3}"),
            ]);
            for (op, ns) in [
                ("rank", rank),
                ("select1", select1),
                ("select0", select0),
                ("access", access),
            ] {
                report
                    .row()
                    .set("structure", name)
                    .set("dist", dist)
                    .set("op", op)
                    .set("n", n)
                    .set("ns_per_op", ns)
                    .set("space_bits_per", bits_per);
            }
        }
    }
    println!();
}

fn bench_static_wt(report: &mut Report) {
    let n = if report.quick { 20_000 } else { 100_000 };
    let iters = if report.quick { 5_000 } else { 20_000 };
    println!("== IndexedStrings (static Wavelet Trie, Thm 3.7) at n = {n} ==\n");
    let t = Table::new(
        &[
            "workload",
            "access",
            "rank",
            "select",
            "count_prefix",
            "bits/str",
        ],
        &[10, 9, 9, 9, 12, 9],
    );
    let workloads: [(&'static str, Vec<String>); 2] = [
        ("url_log", url_log(n, UrlLogConfig::default(), 5)),
        ("word_text", word_text(n, 2000, 7)),
    ];
    for (dist, strings) in workloads {
        let ws = IndexedStrings::build(&strings);
        let bits_per = ws.size_bits() as f64 / n as f64;
        let mut next = xorshift(3);
        let access = time_per_op_ns(iters, 7, || {
            let pos = (next() % n as u64) as usize;
            std::hint::black_box(ws.get_bytes(pos));
        });
        let rank = time_per_op_ns(iters, 7, || {
            let s = &strings[(next() % n as u64) as usize];
            let pos = (next() % (n as u64 + 1)) as usize;
            std::hint::black_box(ws.rank(s, pos));
        });
        let select = time_per_op_ns(iters, 7, || {
            let s = &strings[(next() % n as u64) as usize];
            std::hint::black_box(ws.select(s, 0));
        });
        let count_prefix = time_per_op_ns(iters, 7, || {
            let s = &strings[(next() % n as u64) as usize];
            let p = &s[..s.len().min(12)];
            std::hint::black_box(ws.count_prefix(p));
        });
        t.row(&[
            dist,
            &fmt_ns(access.p50),
            &fmt_ns(rank.p50),
            &fmt_ns(select.p50),
            &fmt_ns(count_prefix.p50),
            &format!("{bits_per:.0}"),
        ]);
        for (op, ns) in [
            ("access", access),
            ("rank", rank),
            ("select", select),
            ("count_prefix", count_prefix),
        ] {
            report
                .row()
                .set("structure", "IndexedStrings")
                .set("dist", dist)
                .set("op", op)
                .set("n", n)
                .set("ns_per_op", ns)
                .set("space_bits_per", bits_per);
        }
    }
    println!();
}

fn main() {
    let mut report = Report::from_args("static_report");
    bench_static_bitvecs(&mut report);
    bench_static_wt(&mut report);
    report.finish();
}
