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
//! * static bitvectors — rank/select/access on dense/sparse/runny inputs,
//!   for both `RrrVector` and `Fid`, with bits-per-bit space;
//! * `IndexedStrings` (static Wavelet Trie, Thm 3.7) — access/rank/select/
//!   prefix ops on the url-log and word-text workloads.
//!
//! Usage: `static_report [--quick] [--out PATH] [--baseline PATH]`
//!
//! `--baseline` merges a previous run's JSON into the output: each series
//! gains `baseline_ns_per_op` and `speedup`, so a single file carries the
//! before/after pair a perf PR claims.

use wavelet_trie::IndexedStrings;
use wt_bench::{fmt_ns, time_per_op_ns, Table};
use wt_bits::{BitSelect, Fid, RawBitVec, RrrVector, SpaceUsage};
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::words::word_text;
use wt_workloads::xorshift;

/// One measured series: ns/op for `op` on `structure` under `dist` at size `n`.
struct Measurement {
    structure: &'static str,
    dist: &'static str,
    op: &'static str,
    n: usize,
    ns_per_op: f64,
    /// Bits per input bit (bitvectors) or per string (tries); 0 when n/a.
    space_bits_per: f64,
}

impl Measurement {
    fn key(&self) -> String {
        format!("{}/{}/{}", self.structure, self.dist, self.op)
    }
}

/// Static bit distributions mirroring `dynamic_report`: dense (~50% ones),
/// sparse (~1.6%), runny (256-bit runs).
fn build_bits(dist: &str, n: usize, next: &mut impl FnMut() -> u64) -> RawBitVec {
    match dist {
        "dense" => RawBitVec::from_bits((0..n).map(|_| next().is_multiple_of(2))),
        "sparse" => RawBitVec::from_bits((0..n).map(|_| next().is_multiple_of(64))),
        "runny" => RawBitVec::from_bits((0..n).map(|i| (i / 256) % 2 == 0)),
        _ => unreachable!("unknown distribution"),
    }
}

fn bench_static_bitvecs(quick: bool, out: &mut Vec<Measurement>) {
    let n = if quick { 200_000 } else { 1_000_000 };
    let iters = if quick { 20_000 } else { 100_000 };
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
    for dist in ["dense", "sparse", "runny"] {
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
                &fmt_ns(rank),
                &fmt_ns(select1),
                &fmt_ns(select0),
                &fmt_ns(access),
                &format!("{bits_per:.3}"),
            ]);
            for (op, ns) in [
                ("rank", rank),
                ("select1", select1),
                ("select0", select0),
                ("access", access),
            ] {
                out.push(Measurement {
                    structure: name,
                    dist,
                    op,
                    n,
                    ns_per_op: ns,
                    space_bits_per: bits_per,
                });
            }
        }
    }
    println!();
}

fn bench_static_wt(quick: bool, out: &mut Vec<Measurement>) {
    let n = if quick { 20_000 } else { 100_000 };
    let iters = if quick { 5_000 } else { 20_000 };
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
            &fmt_ns(access),
            &fmt_ns(rank),
            &fmt_ns(select),
            &fmt_ns(count_prefix),
            &format!("{bits_per:.0}"),
        ]);
        for (op, ns) in [
            ("access", access),
            ("rank", rank),
            ("select", select),
            ("count_prefix", count_prefix),
        ] {
            out.push(Measurement {
                structure: "IndexedStrings",
                dist,
                op,
                n,
                ns_per_op: ns,
                space_bits_per: bits_per,
            });
        }
    }
    println!();
}

/// Pulls `"key": {...` ns figures out of a previous report without a JSON
/// dependency: looks up `"structure" ... "dist" ... "op"` triples.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let get = |field: &str| -> Option<&str> {
            let tag = format!("\"{field}\": ");
            let at = line.find(&tag)? + tag.len();
            let rest = &line[at..];
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim().trim_matches('"'))
        };
        if let (Some(s), Some(d), Some(o), Some(ns)) =
            (get("structure"), get("dist"), get("op"), get("ns_per_op"))
        {
            if let Ok(ns) = ns.parse::<f64>() {
                out.push((format!("{s}/{d}/{o}"), ns));
            }
        }
    }
    out
}

fn write_json(path: &str, mode: &str, results: &[Measurement], baseline: &[(String, f64)]) {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"static_report\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"unit\": \"ns_per_op\",\n");
    s.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let base = baseline
            .iter()
            .find(|(k, _)| *k == m.key())
            .map(|&(_, ns)| ns);
        let before_after = match base {
            Some(b) => format!(
                ", \"baseline_ns_per_op\": {:.1}, \"speedup\": {:.2}",
                b,
                b / m.ns_per_op
            ),
            None => String::new(),
        };
        s.push_str(&format!(
            "    {{\"structure\": \"{}\", \"dist\": \"{}\", \"op\": \"{}\", \"n\": {}, \
             \"ns_per_op\": {:.1}, \"space_bits_per\": {:.3}{}}}{}\n",
            m.structure,
            m.dist,
            m.op,
            m.n,
            m.ns_per_op,
            m.space_bits_per,
            before_after,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    std::fs::write(path, s).expect("write BENCH_static.json");
    println!("wrote {path} ({} series)", results.len());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_static.json".to_string());
    let baseline = arg_after("--baseline")
        .and_then(|p| std::fs::read_to_string(p).ok())
        .map(|t| parse_baseline(&t))
        .unwrap_or_default();
    let mode = if quick { "quick" } else { "full" };

    let mut results = Vec::new();
    bench_static_bitvecs(quick, &mut results);
    bench_static_wt(quick, &mut results);
    write_json(&out_path, mode, &results, &baseline);
}
