//! E7: the §5 range algorithms against the naive alternative (one `Access`
//! per position / a scan + hash map).
//!
//! Expected shape: the trie-based algorithms win by a growing factor as the
//! window grows, because their cost scales with the *distinct* strings in
//! the window (`Σ |s| + h_s·C_op`), not with the window length.

use wavelet_trie::{SeqIndex, SequenceOps, WaveletTrie};
use wt_baselines::NaiveSeq;
use wt_bench::{encode_all, fmt_ns, median_ns_per_op, Table};
use wt_workloads::{url_log, word_text, UrlLogConfig};

fn main() {
    let n = 200_000;
    // Two regimes: words = few distinct strings per window (the §5 sweet
    // spot); URLs = adversarially many distinct strings per window.
    run("word text (|Sset| small)", word_text(n, 400, 77), n);
    run(
        "URL log (|Sset| = Θ(n))",
        url_log(n, UrlLogConfig::default(), 77),
        n,
    );
}

fn run(name: &str, data: Vec<String>, n: usize) {
    let seq = encode_all(&data);
    let wt = WaveletTrie::build(&seq).expect("NinthBitCoder output is prefix-free");
    let naive = NaiveSeq::from_iter(data.iter());
    println!(
        "\n== E7: §5 range algorithms, {name}, n = {n}, |Sset| = {} ==\n",
        wt.distinct_len()
    );

    let t = Table::new(
        &["window", "op", "wavelet trie", "naive scan", "speedup"],
        &[9, 16, 13, 13, 9],
    );
    for &w in &[1_000usize, 10_000, 100_000] {
        let l = (n - w) / 2;
        let r = l + w;

        let wt_d = median_ns_per_op(5, 3, || {
            std::hint::black_box(wt.distinct_in_range(l, r));
        });
        let nv_d = median_ns_per_op(5, 3, || {
            std::hint::black_box(naive.distinct_in_range(l, r));
        });
        t.row(&[
            &w.to_string(),
            "distinct",
            &fmt_ns(wt_d),
            &fmt_ns(nv_d),
            &format!("{:.1}x", nv_d / wt_d),
        ]);

        let wt_m = median_ns_per_op(20, 3, || {
            std::hint::black_box(wt.range_majority(l, r));
        });
        let nv_m = median_ns_per_op(5, 3, || {
            std::hint::black_box(naive.range_majority(l, r));
        });
        t.row(&[
            &w.to_string(),
            "majority",
            &fmt_ns(wt_m),
            &fmt_ns(nv_m),
            &format!("{:.1}x", nv_m / wt_m),
        ]);

        let thresh = (w / 50).max(2);
        let wt_f = median_ns_per_op(20, 3, || {
            std::hint::black_box(wt.range_frequent(l, r, thresh));
        });
        let nv_f = median_ns_per_op(5, 3, || {
            std::hint::black_box(naive.range_frequent(l, r, thresh));
        });
        t.row(&[
            &w.to_string(),
            &format!("frequent t={thresh}"),
            &fmt_ns(wt_f),
            &fmt_ns(nv_f),
            &format!("{:.1}x", nv_f / wt_f),
        ]);

        // Sequential iteration (per extracted string) vs per-position Access.
        let iter_ns = median_ns_per_op(3, 3, || {
            let mut c = 0usize;
            for s in wt.iter_range(l, r) {
                c += s.len();
            }
            std::hint::black_box(c);
        }) / w as f64;
        let access_ns = median_ns_per_op(3, 3, || {
            let mut c = 0usize;
            for i in l..(l + (w / 10).max(1)) {
                c += wt.access(i).len();
            }
            std::hint::black_box(c);
        }) / ((w / 10).max(1) as f64);
        t.row(&[
            &w.to_string(),
            "iterate (per s)",
            &fmt_ns(iter_ns),
            &fmt_ns(access_ns),
            &format!("{:.1}x", access_ns / iter_ns),
        ]);
    }
    println!(
        "\nnote: 'naive scan' for iterate is repeated Access(pos) on the same\n\
         structure — the §5 cursor iterator amortizes the per-node Ranks away."
    );
}
