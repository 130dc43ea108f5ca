//! E1–E3: regenerates the **time columns of Table 1**.
//!
//! For each variant (static / append-only / fully-dynamic) and each
//! operation, per-op cost is measured at geometrically growing `n` on the
//! URL-log workload. Expected shape (the paper's claim):
//! * static & append-only: flat in `n` (O(|s| + h_s));
//! * fully dynamic: growing ~log n (O(|s| + h_s·log n));
//! * Append (append-only) flat; Insert/Delete (dynamic) ~log n.

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{AppendWaveletTrie, BitString, DynamicWaveletTrie, SeqIndex, WaveletTrie};
use wt_bench::{encode_all, fmt_ns, median_ns_per_op, per_op_ns, Table};
use wt_workloads::{url_log, UrlLogConfig};

fn main() {
    let sizes = [10_000usize, 20_000, 40_000, 80_000, 160_000];
    let max_n = *sizes.last().expect("sizes is non-empty");
    let raw = url_log(max_n, UrlLogConfig::default(), 1);
    let coder = NinthBitCoder;
    let all = encode_all(&raw);
    let prefix = coder.encode_prefix(b"http://host001.example");

    println!("== Table 1 (time): per-operation cost vs n, URL-log workload ==\n");
    let t = Table::new(
        &[
            "variant", "n", "Access", "Rank", "Select", "RankPfx", "SelPfx", "update",
        ],
        &[9, 7, 9, 9, 9, 9, 9, 10],
    );

    for &n in &sizes {
        let seq = &all[..n];
        // Probe strings cycle through the data; positions cycle through n.
        let probes: Vec<&BitString> = (0..64).map(|i| &seq[i * (n / 64)]).collect();

        // -------- static --------------------------------------------------
        let wt = WaveletTrie::build(seq).expect("NinthBitCoder output is prefix-free");
        let mut i = 0usize;
        let access = median_ns_per_op(2000, 3, || {
            i = (i + 7919) % n;
            std::hint::black_box(wt.access(i));
        });
        let mut j = 0usize;
        let rank = median_ns_per_op(2000, 3, || {
            j += 1;
            let s = probes[j % probes.len()];
            std::hint::black_box(wt.rank(s.as_bitstr(), (j * 31) % (n + 1)));
        });
        let select = median_ns_per_op(2000, 3, || {
            j += 1;
            let s = probes[j % probes.len()];
            std::hint::black_box(wt.select(s.as_bitstr(), j % 3));
        });
        let rankp = median_ns_per_op(2000, 3, || {
            j += 1;
            std::hint::black_box(wt.rank_prefix(prefix.as_bitstr(), (j * 31) % (n + 1)));
        });
        let selp = median_ns_per_op(2000, 3, || {
            j += 1;
            std::hint::black_box(wt.select_prefix(prefix.as_bitstr(), j % 8));
        });
        t.row(&[
            "static",
            &n.to_string(),
            &fmt_ns(access),
            &fmt_ns(rank),
            &fmt_ns(select),
            &fmt_ns(rankp),
            &fmt_ns(selp),
            "-",
        ]);

        // -------- append-only ---------------------------------------------
        let mut app = AppendWaveletTrie::new();
        let mut rest = seq.iter();
        let append = per_op_ns(n, || app.append(rest.next().unwrap().as_bitstr()).unwrap());
        let access = median_ns_per_op(2000, 3, || {
            i = (i + 7919) % n;
            std::hint::black_box(app.access(i));
        });
        let rank = median_ns_per_op(2000, 3, || {
            j += 1;
            let s = probes[j % probes.len()];
            std::hint::black_box(app.rank(s.as_bitstr(), (j * 31) % (n + 1)));
        });
        let select = median_ns_per_op(2000, 3, || {
            j += 1;
            let s = probes[j % probes.len()];
            std::hint::black_box(app.select(s.as_bitstr(), j % 3));
        });
        let rankp = median_ns_per_op(2000, 3, || {
            j += 1;
            std::hint::black_box(app.rank_prefix(prefix.as_bitstr(), (j * 31) % (n + 1)));
        });
        let selp = median_ns_per_op(2000, 3, || {
            j += 1;
            std::hint::black_box(app.select_prefix(prefix.as_bitstr(), j % 8));
        });
        t.row(&[
            "append",
            &n.to_string(),
            &fmt_ns(access),
            &fmt_ns(rank),
            &fmt_ns(select),
            &fmt_ns(rankp),
            &fmt_ns(selp),
            &format!("A:{}", fmt_ns(append)),
        ]);

        // -------- fully dynamic -------------------------------------------
        let mut dy = DynamicWaveletTrie::new();
        for s in seq {
            dy.append(s.as_bitstr()).unwrap();
        }
        let access = median_ns_per_op(1000, 3, || {
            i = (i + 7919) % n;
            std::hint::black_box(dy.access(i));
        });
        let rank = median_ns_per_op(1000, 3, || {
            j += 1;
            let s = probes[j % probes.len()];
            std::hint::black_box(dy.rank(s.as_bitstr(), (j * 31) % (n + 1)));
        });
        let select = median_ns_per_op(1000, 3, || {
            j += 1;
            let s = probes[j % probes.len()];
            std::hint::black_box(dy.select(s.as_bitstr(), j % 3));
        });
        let rankp = median_ns_per_op(1000, 3, || {
            j += 1;
            std::hint::black_box(dy.rank_prefix(prefix.as_bitstr(), (j * 31) % (n + 1)));
        });
        let selp = median_ns_per_op(1000, 3, || {
            j += 1;
            std::hint::black_box(dy.select_prefix(prefix.as_bitstr(), j % 8));
        });
        // Insert + Delete paired so n stays fixed while measuring.
        let ins_del = median_ns_per_op(500, 3, || {
            j += 1;
            let s = probes[j % probes.len()];
            let pos = (j * 131) % (dy.len() + 1);
            dy.insert(s.as_bitstr(), pos).unwrap();
            std::hint::black_box(dy.delete(pos));
        }) / 2.0;
        t.row(&[
            "dynamic",
            &n.to_string(),
            &fmt_ns(access),
            &fmt_ns(rank),
            &fmt_ns(select),
            &fmt_ns(rankp),
            &fmt_ns(selp),
            &format!("ID:{}", fmt_ns(ins_del)),
        ]);
    }
    println!(
        "\nExpected shape: static/append rows flat in n; dynamic rows grow ~log n;\n\
         Append flat (Theorem 4.3); Insert+Delete/2 grows ~log n (Theorem 4.4)."
    );
}
