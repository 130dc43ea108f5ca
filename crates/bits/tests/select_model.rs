//! Model-based boundary suite for the static select paths (RRR, FID,
//! Elias–Fano), mirroring every structure against naive scans exactly at
//! the places the broadword rewrite touches: sample-interval boundaries of
//! the hint directories, superblock/block edges (63/64/65-bit blocks),
//! first/last ones and zeros, and degenerate all-ones/all-zeros inputs.

use wt_bits::{BitAccess, BitRank, BitSelect, EliasFano, Fid, RawBitVec, RrrVector};
use wt_workloads::xorshift;

/// RRR select hints sample every 4096th target bit; FID every 8192th.
/// Probing `k` around both catches off-by-one hint indexing in either.
const SAMPLE_EDGES: [usize; 6] = [4095, 4096, 4097, 8191, 8192, 8193];

/// Exercises select/rank/access of both bitvector indexes against scans,
/// concentrating probes at boundaries rather than uniformly.
fn check_bitvectors(bits: &RawBitVec) {
    let rrr = RrrVector::new(bits);
    let fid = Fid::new(bits.clone());
    let ones = bits.count_ones();
    let zeros = bits.len() - ones;

    let mut ks: Vec<usize> = vec![0, 1, 2];
    ks.extend(SAMPLE_EDGES);
    for c in [ones, zeros] {
        ks.extend([c.saturating_sub(2), c.saturating_sub(1), c, c + 1]);
    }
    // block/superblock edge ranks: RRR blocks are 63 bits, superblocks
    // 16 blocks; FID blocks 512 bits.
    for edge in [63usize, 64, 65, 1007, 1008, 1009, 511, 512, 513] {
        if edge < bits.len() {
            ks.push(bits.rank1_scan(edge));
            ks.push(edge - bits.rank1_scan(edge));
        }
    }
    ks.sort_unstable();
    ks.dedup();

    for &k in &ks {
        let e1 = bits.select1_scan(k);
        let e0 = bits.select0_scan(k);
        assert_eq!(rrr.select1(k), e1, "rrr select1({k}) len {}", bits.len());
        assert_eq!(rrr.select0(k), e0, "rrr select0({k}) len {}", bits.len());
        assert_eq!(fid.select1(k), e1, "fid select1({k}) len {}", bits.len());
        assert_eq!(fid.select0(k), e0, "fid select0({k}) len {}", bits.len());
        // Round-trip: select then rank must invert.
        if let Some(p) = e1 {
            assert_eq!(rrr.rank1(p), k);
            assert_eq!(fid.rank1(p), k);
            assert!(rrr.get(p));
        }
        if let Some(p) = e0 {
            assert_eq!(rrr.rank0(p), k);
            assert_eq!(fid.rank0(p), k);
            assert!(!rrr.get(p));
        }
    }
    // Past-the-end always None.
    assert_eq!(rrr.select1(ones), None);
    assert_eq!(rrr.select0(zeros), None);
    assert_eq!(fid.select1(ones), None);
    assert_eq!(fid.select0(zeros), None);
}

#[test]
fn block_boundary_lengths() {
    // One partial/full/overfull RRR block and FID block, three contents.
    for n in [63usize, 64, 65, 511, 512, 513, 1007, 1008, 1009] {
        check_bitvectors(&RawBitVec::filled(true, n));
        check_bitvectors(&RawBitVec::filled(false, n));
        check_bitvectors(&RawBitVec::from_bits((0..n).map(|i| i % 3 == 0)));
    }
}

#[test]
fn sample_interval_boundaries_dense() {
    // > 8192 ones and zeros so every hint directory has multiple entries.
    let mut next = xorshift(99);
    let bits = RawBitVec::from_bits((0..40_000).map(|_| next().is_multiple_of(2)));
    check_bitvectors(&bits);
}

#[test]
fn sample_interval_boundaries_sparse_and_runny() {
    let mut next = xorshift(7);
    check_bitvectors(&RawBitVec::from_bits(
        (0..60_000).map(|_| next().is_multiple_of(64)),
    ));
    check_bitvectors(&RawBitVec::from_bits(
        (0..60_000).map(|i| (i / 256) % 2 == 0),
    ));
}

#[test]
fn last_superblock_is_bounded() {
    // Targets in the final (partial) superblock of a vector whose length is
    // not a multiple of the superblock size — the former tail-scan path.
    for tail in [1usize, 62, 63, 64, 1000] {
        let n = 5 * 1008 + tail;
        let bits = RawBitVec::from_bits((0..n).map(|i| i % 7 == 0));
        check_bitvectors(&bits);
    }
}

#[test]
fn all_ones_then_all_zeros_transition() {
    // select0 must skip the solid-ones prefix superblocks entirely and
    // vice versa: exercises tied superblock counts in the binary search.
    let mut bits = RawBitVec::filled(true, 10_000);
    for _ in 0..10_000 {
        bits.push(false);
    }
    check_bitvectors(&bits);
}

#[test]
fn elias_fano_boundary_access() {
    // get / get_pair / rank_leq on bucket boundaries, duplicates, large
    // gaps (select0-driven bucket walks) and the dense-bucket binary
    // search path (> 8 equal-high-part values).
    let cases: Vec<Vec<u64>> = vec![
        vec![0],
        vec![0, 0, 0, 0],
        (0..5000u64).collect(),
        (0..500u64).map(|i| i * 1_234_567).collect(),
        (0..2000u64)
            .map(|i| (i / 100) * 1_000_000 + i % 100)
            .collect(),
        (0..64u64).map(|i| i / 16).collect(),
        vec![u64::MAX - 2, u64::MAX - 1, u64::MAX - 1],
        // One dominant gap in the upper bits: get_pair's capped word scan
        // must take the select fallback, not a linear walk.
        (0..100u64).chain(std::iter::once(1u64 << 40)).collect(),
    ];
    for values in cases {
        let ef = EliasFano::new(&values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v, "get({i})");
            if i + 1 < values.len() {
                assert_eq!(ef.get_pair(i), (v, values[i + 1]), "get_pair({i})");
            }
        }
        for x in values
            .iter()
            .flat_map(|&v| [v.saturating_sub(1), v, v.saturating_add(1)])
            .chain([0, 1, u64::MAX])
        {
            let naive = values.iter().filter(|&&v| v <= x).count();
            assert_eq!(ef.rank_leq(x), naive, "rank_leq({x})");
        }
    }
}

#[test]
fn elias_fano_pair_crosses_upper_words() {
    // Values spaced so consecutive upper-bitvector ones land in different
    // words, forcing get_pair's scan across word boundaries.
    let values: Vec<u64> = (0..300u64).map(|i| i * 97).collect();
    let ef = EliasFano::new(&values);
    for i in 0..values.len() - 1 {
        assert_eq!(ef.get_pair(i), (values[i], values[i + 1]), "pair({i})");
    }
}
