//! E8: §6 / Theorem 6.2 — measured trie height of the randomized Wavelet
//! Tree vs the `(α+2)·log|Σ|` bound, with the failure fraction compared to
//! the `|Σ|^{-α}` prediction, plus the unhashed pathological baseline and
//! the per-op cost of the hashed tree against the unhashed trie and the
//! fixed-alphabet integer Wavelet Tree.

use std::hint::black_box;

use wavelet_trie::hashed::unhashed_height;
use wavelet_trie::RandomizedWaveletTree;
use wt_baselines::IntWaveletTree;
use wt_bench::{fmt_ns, median_ns_per_op, Table};
use wt_workloads::{power_comb, small_alphabet_u64};

fn main() {
    println!("== E8: randomized Wavelet Tree balance (§6, Thm 6.2) ==\n");
    let seeds = 200u64;
    println!("α = 2, {seeds} random multipliers per row; u = 2^64\n");
    let t = Table::new(
        &[
            "|Σ|", "log|Σ|", "bound", "max h", "mean h", "viol.", "pred.",
        ],
        &[8, 8, 7, 7, 8, 7, 9],
    );
    for &sigma in &[16usize, 64, 256, 1024] {
        let log_sigma = (sigma as f64).log2();
        let bound = (4.0 * log_sigma).ceil() as usize; // (α+2)·log|Σ|, α=2
        let values = small_alphabet_u64(4 * sigma, sigma, 64, sigma as u64);
        let mut max_h = 0usize;
        let mut sum_h = 0usize;
        let mut violations = 0usize;
        for seed in 0..seeds {
            let mut t = RandomizedWaveletTree::new(64, seed * 2654435761 + 1);
            for &v in &values {
                t.push(v);
            }
            let h = t.height();
            max_h = max_h.max(h);
            sum_h += h;
            if h > bound {
                violations += 1;
            }
        }
        t.row(&[
            &sigma.to_string(),
            &format!("{log_sigma:.0}"),
            &bound.to_string(),
            &max_h.to_string(),
            &format!("{:.1}", sum_h as f64 / seeds as f64),
            &format!("{violations}/{seeds}"),
            &format!("≤{:.3}", seeds as f64 * (sigma as f64).powi(-2)),
        ]);
    }

    println!("\nunhashed pathological baseline (power-of-two comb {{2^j}}):");
    let t = Table::new(&["|Σ|", "unhashed h", "hashed h (seed 1)"], &[8, 12, 18]);
    for &k in &[16u32, 32, 64] {
        let comb = power_comb(k);
        let mut hashed = RandomizedWaveletTree::new(64, 1);
        for &v in &comb {
            hashed.push(v);
        }
        t.row(&[
            &k.to_string(),
            &unhashed_height(&comb, 64).to_string(),
            &hashed.height().to_string(),
        ]);
    }
    println!(
        "\nexpected: max height ≤ bound for (almost) every seed — violations far\n\
         below the |Σ|^-α prediction; unhashed comb height ≈ |Σ| (up to log u)."
    );
    op_costs();
}

/// Per-op cost at n = 50,000 over |Σ| = 64, probing a stride-7919 position
/// sequence.
fn op_costs() {
    let n = 50_000;
    println!("\nper-op cost, n = {n}, |Σ| = 64:");
    let values = small_alphabet_u64(n, 64, 64, 9);
    let mut hashed = RandomizedWaveletTree::new(64, 13);
    let mut unhashed = RandomizedWaveletTree::unhashed(64);
    for &v in &values {
        hashed.push(v);
        unhashed.push(v);
    }
    // The fixed-alphabet baseline needs its dictionary up front.
    let mut dict = values.clone();
    dict.sort_unstable();
    dict.dedup();
    let ids: Vec<u64> = values
        .iter()
        .map(|v| dict.binary_search(v).unwrap() as u64)
        .collect();
    let int_wt = IntWaveletTree::new(&ids, dict.len() as u64);

    let mut i = 0usize;
    let mut next = move || {
        i = (i + 7919) % n;
        i
    };
    let t = Table::new(&["structure", "op", "ns/op"], &[16, 15, 9]);
    let ns = median_ns_per_op(10_000, 5, || {
        black_box(hashed.get(next()));
    });
    t.row(&["hashed", "access", &fmt_ns(ns)]);
    let ns = median_ns_per_op(10_000, 5, || {
        black_box(unhashed.get(next()));
    });
    t.row(&["unhashed", "access", &fmt_ns(ns)]);
    let ns = median_ns_per_op(10_000, 5, || {
        black_box(int_wt.access(next()));
    });
    t.row(&["int WT (fixed Σ)", "access", &fmt_ns(ns)]);
    let ns = median_ns_per_op(10_000, 5, || {
        let p = next();
        black_box(hashed.rank(values[p], p));
    });
    t.row(&["hashed", "rank", &fmt_ns(ns)]);
    let ns = median_ns_per_op(2_000, 5, || {
        let p = next();
        hashed.insert(values[p], p);
        black_box(hashed.remove(p));
    });
    t.row(&["hashed", "insert+remove", &fmt_ns(ns)]);
}
