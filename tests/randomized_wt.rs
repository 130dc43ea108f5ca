//! §6 / Theorem 6.2 behaviour (experiment E8 in machine-checkable form):
//! the randomized Wavelet Tree stays balanced w.h.p. on working alphabets
//! tiny inside a 2^64 universe, while matching a naive model exactly.

use wavelet_trie::RandomizedWaveletTree;
use wt_bits::SpaceUsage;
use wt_workloads::{power_comb, rng, small_alphabet_u64, RngExt};

#[test]
fn matches_naive_model_on_sparse_alphabet() {
    let values = small_alphabet_u64(2000, 40, 64, 0xAB);
    let mut t = RandomizedWaveletTree::new(64, 7);
    for &v in &values {
        t.push(v);
    }
    assert_eq!(t.len(), values.len());
    for i in (0..values.len()).step_by(37) {
        assert_eq!(t.get(i), values[i], "get({i})");
    }
    let mut distinct: Vec<u64> = values.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(t.distinct_len(), distinct.len());
    for &x in distinct.iter().take(20) {
        let occs: Vec<usize> = (0..values.len()).filter(|&i| values[i] == x).collect();
        assert_eq!(t.count(x), occs.len());
        for pos in [0, 500, 2000] {
            assert_eq!(t.rank(x, pos), occs.iter().filter(|&&p| p < pos).count());
        }
        for (k, &p) in occs.iter().enumerate().take(5) {
            assert_eq!(t.select(x, k), Some(p));
        }
    }
}

#[test]
fn height_bound_holds_across_seeds() {
    // Theorem 6.2 with α = 2: height ≤ 4·log|Σ| with prob ≥ 1 − |Σ|^−2.
    // Over 30 seeds on |Σ| = 64 we expect zero (or at most one) violations.
    let comb = power_comb(64); // adversarial without hashing
    let bound = 4 * 6; // (α+2)·log2(64) with α = 2
    let mut violations = 0;
    for seed in 0..30u64 {
        let mut t = RandomizedWaveletTree::new(64, seed);
        for &v in &comb {
            t.push(v);
        }
        if t.height() > bound {
            violations += 1;
        }
    }
    assert!(
        violations <= 1,
        "{violations}/30 seeds exceeded the (α+2)log|Σ| bound {bound}"
    );
    // The unhashed baseline is pathological on the same input.
    assert!(wavelet_trie::hashed::unhashed_height(&comb, 64) >= 50);
}

#[test]
fn mixed_insert_delete_fuzz() {
    let mut rng = rng(5);
    let mut t = RandomizedWaveletTree::new(48, 11);
    let mut model: Vec<u64> = Vec::new();
    for _ in 0..1200 {
        if model.is_empty() || rng.random_range(0..3u32) > 0 {
            let v = rng.random_range(0..99u64) * 0x0012_3456_789A % (1 << 48);
            let pos = rng.random_range(0..=model.len());
            t.insert(v, pos);
            model.insert(pos, v);
        } else {
            let pos = rng.random_range(0..model.len());
            assert_eq!(t.remove(pos), model.remove(pos));
        }
    }
    let collected: Vec<u64> = t.iter().collect();
    assert_eq!(collected, model);
}

#[test]
fn space_scales_with_working_alphabet_not_universe() {
    // Same n, same |Σ|, universes 2^16 vs 2^64: space should be comparable
    // (within a small factor), since labels absorb the unused width.
    let narrow = small_alphabet_u64(5000, 32, 16, 1);
    let wide = small_alphabet_u64(5000, 32, 64, 1);
    let mut t16 = RandomizedWaveletTree::new(16, 3);
    let mut t64 = RandomizedWaveletTree::new(64, 3);
    for &v in &narrow {
        t16.push(v);
    }
    for &v in &wide {
        t64.push(v);
    }
    let (b16, b64) = (t16.size_bits(), t64.size_bits());
    assert!(
        b64 < 3 * b16,
        "64-bit universe should not blow space up: {b64} vs {b16}"
    );
}
