//! Per-layer timings measured by replaying what the router executed:
//! the store layer (`StoreSnapshot` batch kernels, which merge segments),
//! the trie layer (the same sub-batch on each segment's `SeqIndex`), and
//! the bitvector layer (a dependent `RrrVector::rank1` chain).

use std::hint::black_box;
use std::time::Instant;

use wavelet_trie::SeqIndex;
use wt_bits::{BitRank, RrrVector};
use wt_server::ShardOp;
use wt_trie::{BitStr, BitString};
use wt_workloads::{rng, RngExt};

use crate::stats::Summary;
use crate::trace::Recorded;

pub const KINDS: [&str; 3] = ["count", "count_prefix", "access"];

/// Per op kind: samples of store ns/op, trie ns/op and store/trie ratio,
/// one sample per replayed sub-batch that held that kind.
#[derive(Default)]
pub struct Kernels {
    pub store_ns: [Vec<f64>; 3],
    pub trie_ns: [Vec<f64>; 3],
    pub merge_x: [Vec<f64>; 3],
    /// Sub-batches whose per-segment answers did not merge to the store's.
    pub mismatches: usize,
}

/// A recorded sub-batch split by kind, ready for both replays.
struct Prepared<'a> {
    rec: &'a Recorded,
    counts: Vec<BitStr<'a>>,
    prefixes: Vec<BitStr<'a>>,
    accesses: Vec<usize>,
}

impl<'a> Prepared<'a> {
    fn new(rec: &'a Recorded) -> Self {
        let len = rec.snapshot.len();
        let mut p = Prepared {
            rec,
            counts: Vec::new(),
            prefixes: Vec::new(),
            accesses: Vec::new(),
        };
        for op in &rec.ops {
            match op {
                ShardOp::Count(s) => p.counts.push(s.as_bitstr()),
                ShardOp::CountPrefix(s) => p.prefixes.push(s.as_bitstr()),
                ShardOp::Access(pos) if (*pos as usize) < len => p.accesses.push(*pos as usize),
                ShardOp::Access(_) => {}
            }
        }
        p
    }

    fn ops(&self, kind: usize) -> usize {
        [self.counts.len(), self.prefixes.len(), self.accesses.len()][kind]
    }

    /// The store's answer, as a checksum vector, and its time.
    fn store(&self, kind: usize) -> (Vec<u64>, f64) {
        let snap = &self.rec.snapshot;
        let t = Instant::now();
        let out: Vec<u64> = match kind {
            0 => {
                let q: Vec<(BitStr<'_>, usize)> =
                    self.counts.iter().map(|&s| (s, snap.len())).collect();
                snap.rank_batch(&q).into_iter().map(|c| c as u64).collect()
            }
            1 => snap
                .count_prefix_batch(&self.prefixes)
                .into_iter()
                .map(|c| c as u64)
                .collect(),
            _ => snap
                .access_batch(&self.accesses)
                .iter()
                .map(digest)
                .collect(),
        };
        (black_box(out), t.elapsed().as_secs_f64() * 1e9)
    }

    /// The same sub-batch answered segment by segment and merged by hand,
    /// timing only the segment calls.
    fn segments(&self, kind: usize) -> (Vec<u64>, f64) {
        let snap = &self.rec.snapshot;
        let mut ns = 0.0;
        let mut out = vec![0u64; self.ops(kind)];
        let mut base = 0usize;
        for i in 0..snap.num_segments() {
            let seg = snap.segment(i);
            let len = seg.seq_len();
            if len == 0 {
                continue;
            }
            match kind {
                0 => {
                    let q: Vec<(BitStr<'_>, usize)> =
                        self.counts.iter().map(|&s| (s, len)).collect();
                    let t = Instant::now();
                    let r = black_box(seg.rank_batch(&q));
                    ns += t.elapsed().as_secs_f64() * 1e9;
                    out.iter_mut().zip(r).for_each(|(o, c)| *o += c as u64);
                }
                1 => {
                    let t = Instant::now();
                    let r = black_box(seg.count_prefix_batch(&self.prefixes));
                    ns += t.elapsed().as_secs_f64() * 1e9;
                    out.iter_mut().zip(r).for_each(|(o, c)| *o += c as u64);
                }
                _ => {
                    let (slots, local): (Vec<usize>, Vec<usize>) = self
                        .accesses
                        .iter()
                        .enumerate()
                        .filter(|&(_, &p)| (base..base + len).contains(&p))
                        .map(|(k, &p)| (k, p - base))
                        .unzip();
                    if !local.is_empty() {
                        let t = Instant::now();
                        let r = black_box(seg.access_batch(&local));
                        ns += t.elapsed().as_secs_f64() * 1e9;
                        for (k, s) in slots.into_iter().zip(&r) {
                            out[k] = digest(s);
                        }
                    }
                }
            }
            base += len;
        }
        (out, ns)
    }
}

fn digest(s: &BitString) -> u64 {
    s.iter().fold(s.len() as u64, |h, b| {
        h.wrapping_mul(0x100_0000_01b3) ^ b as u64
    })
}

/// Replays every recorded sub-batch `rounds` times. Each round runs the
/// whole store pass, then the whole per-segment pass, so both see the
/// same cache state (the previous sub-batches' data); a sub-batch's
/// sample is its median over rounds.
pub fn replay(recorded: &[Recorded], rounds: usize) -> Kernels {
    let prepared: Vec<Prepared<'_>> = recorded.iter().map(Prepared::new).collect();
    let mut out = Kernels::default();
    for kind in 0..3 {
        let todo: Vec<&Prepared<'_>> = prepared.iter().filter(|p| p.ops(kind) > 0).collect();
        let mut store_t = vec![Vec::new(); todo.len()];
        let mut seg_t = vec![Vec::new(); todo.len()];
        for _ in 0..rounds {
            let merged: Vec<Vec<u64>> = todo
                .iter()
                .zip(&mut store_t)
                .map(|(p, t)| {
                    let (ans, ns) = p.store(kind);
                    t.push(ns);
                    ans
                })
                .collect();
            for ((p, t), want) in todo.iter().zip(&mut seg_t).zip(&merged) {
                let (ans, ns) = p.segments(kind);
                t.push(ns);
                out.mismatches += usize::from(ans != *want);
            }
        }
        for ((p, s), g) in todo.iter().zip(store_t).zip(seg_t) {
            let (s, g) = (Summary::of(s).p50, Summary::of(g).p50);
            let ops = p.ops(kind) as f64;
            out.store_ns[kind].push(s / ops);
            out.trie_ns[kind].push(g / ops);
            out.merge_x[kind].push(s / g.max(1.0));
        }
    }
    out
}

/// Share of ones over all node bitvectors of the binary trie on these
/// distinct strings (sorted, with multiplicities): a node's bitvector has
/// one bit per string below it, set for those branching right.
pub fn trie_density(sorted: &[(BitString, usize)]) -> f64 {
    let (mut ones, mut bits) = (0usize, 0usize);
    let mut stack = vec![(0usize, sorted.len())];
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo < 2 {
            continue;
        }
        let (first, last) = (sorted[lo].0.as_bitstr(), sorted[hi - 1].0.as_bitstr());
        let b = first.lcp(&last);
        let split = lo + sorted[lo..hi].partition_point(|(s, _)| !s.get(b));
        let weight = |r: std::ops::Range<usize>| sorted[r].iter().map(|(_, c)| c).sum::<usize>();
        ones += weight(split..hi);
        bits += weight(lo..hi);
        stack.push((lo, split));
        stack.push((split, hi));
    }
    if bits == 0 {
        0.5
    } else {
        ones as f64 / bits as f64
    }
}

/// ns per `rank1` along a dependent chain (each position is a hash of the
/// previous rank) over a random RRR vector of `len` bits at `density`:
/// `reps` timed chains of `steps` ranks each.
pub fn rank_chain(len: usize, density: f64, seed: u64, steps: usize, reps: usize) -> Summary {
    let mut r = rng(seed);
    let v = RrrVector::from_bits((0..len.max(64)).map(|_| r.random::<f64>() < density));
    let n = len.max(64);
    let mut pos = r.random_range(0..n);
    let samples = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for k in 0..steps {
                let rank = v.rank1(pos);
                pos = (rank as u64 ^ k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % n;
            }
            t.elapsed().as_secs_f64() * 1e9 / steps as f64
        })
        .collect();
    black_box(pos);
    Summary::of(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_counts_right_branches_per_node() {
        // Trie over {00, 01 (x2), 1}: root splits {00,01,01} | {1} → 1 of 4;
        // node "0" splits {00} | {01,01} → 2 of 3.
        let strs: Vec<(BitString, usize)> = [("00", 1), ("01", 2), ("1", 1)]
            .iter()
            .map(|&(s, c)| (BitString::parse(s), c))
            .collect();
        assert!((trie_density(&strs) - 3.0 / 7.0).abs() < 1e-12);
        assert_eq!(trie_density(&strs[..1]), 0.5, "no internal node");
    }

    #[test]
    fn rank_chain_reports_every_rep() {
        let s = rank_chain(10_000, 0.5, 1, 1000, 5);
        assert_eq!(s.n, 5);
        assert!(s.p50 > 0.0);
    }
}
