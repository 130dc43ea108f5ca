//! Model-based property test for the fully dynamic RLE+γ bitvector: long
//! mixed insert/delete/rank/select/access workloads checked against a
//! `Vec<bool>` mirror, seeded from `Init(b, n)` ([`DynamicBitVec::filled`])
//! so every workload starts from the single-run state of Remark 4.2 and has
//! to grow through chunk splits, shrink through merges, and cross hot-chunk
//! cache fill/flush boundaries.

use wt_bits::{BitAccess, BitRank, BitSelect, DynamicBitVec};
use wt_workloads::xorshift;

/// The shared seeded xorshift stream, with a bounded draw.
struct Rng(Box<dyn FnMut() -> u64>);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(Box::new(xorshift(seed)))
    }

    fn next(&mut self) -> u64 {
        (self.0)()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Model {
    v: DynamicBitVec,
    m: Vec<bool>,
}

impl Model {
    fn filled(bit: bool, n: usize) -> Self {
        Model {
            v: DynamicBitVec::filled(bit, n),
            m: vec![bit; n],
        }
    }

    fn insert(&mut self, pos: usize, bit: bool) {
        self.v.insert(pos, bit);
        self.m.insert(pos, bit);
    }

    fn remove(&mut self, pos: usize) {
        let got = self.v.remove(pos);
        let want = self.m.remove(pos);
        assert_eq!(got, want, "remove({pos})");
    }

    /// Spot-checks a handful of positions (cheap enough to run every step).
    fn check_probes(&self, rng: &mut Rng) {
        let n = self.m.len();
        if n == 0 {
            assert_eq!(self.v.len(), 0);
            return;
        }
        for _ in 0..4 {
            let i = rng.below(n);
            assert_eq!(self.v.get(i), self.m[i], "get({i})");
            let want_rank = self.m[..i].iter().filter(|&&b| b).count();
            assert_eq!(self.v.rank1(i), want_rank, "rank1({i})");
        }
        let ones = self.m.iter().filter(|&&b| b).count();
        assert_eq!(self.v.count_ones(), ones);
        if ones > 0 {
            let k = rng.below(ones);
            let want = self
                .m
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .nth(k)
                .map(|(i, _)| i);
            assert_eq!(self.v.select1(k), want, "select1({k})");
        }
        let zeros = n - ones;
        if zeros > 0 {
            let k = rng.below(zeros);
            let want = self
                .m
                .iter()
                .enumerate()
                .filter(|(_, &b)| !b)
                .nth(k)
                .map(|(i, _)| i);
            assert_eq!(self.v.select0(k), want, "select0({k})");
        }
    }

    /// Full sweep: every position, every rank, the whole iterator.
    fn check_full(&self) {
        assert_eq!(self.v.len(), self.m.len());
        let mut cum = 0usize;
        for (i, &b) in self.m.iter().enumerate() {
            assert_eq!(self.v.get(i), b, "get({i})");
            assert_eq!(self.v.rank1(i), cum, "rank1({i})");
            cum += b as usize;
        }
        assert_eq!(self.v.rank1(self.m.len()), cum);
        let collected: Vec<bool> = self.v.iter().collect();
        assert_eq!(collected, self.m, "iterator");
    }
}

/// One long mixed workload. `spread` controls edit locality: small spreads
/// hammer one chunk (cache hits), large spreads hop across chunks (cache
/// flushes); the mix drives both, plus splits (net growth phases) and
/// merges (net shrink phases).
fn drive(seed: u64, init_bit: bool, init_n: usize, steps: usize, spread: usize) {
    let mut rng = Rng::new(seed | 1);
    let mut model = Model::filled(init_bit, init_n);
    let mut anchor = init_n / 2;
    for step in 0..steps {
        let n = model.m.len();
        // Re-anchor occasionally so edits wander across chunk boundaries.
        if step % 64 == 0 && n > 0 {
            anchor = rng.below(n);
        }
        let pos_near = |rng: &mut Rng, max: usize| {
            if max == 0 {
                0
            } else {
                (anchor + rng.below(spread)).min(max)
            }
        };
        // Growth phase in the first half, shrink phase in the second:
        // forces chunk splits and then leaf merges.
        let grow = step < steps / 2;
        let r = rng.next();
        match r % 8 {
            0..=3 => {
                let p = pos_near(&mut rng, n);
                model.insert(p, r.is_multiple_of(2));
            }
            4..=5 => {
                if n > 0 && (!grow || r % 16 == 4) {
                    let p = pos_near(&mut rng, n - 1);
                    model.remove(p);
                } else {
                    let p = pos_near(&mut rng, n);
                    model.insert(p, r.is_multiple_of(3));
                }
            }
            6 => {
                // Far edit: evicts (flushes) any dirty hot chunk.
                if n > 0 {
                    let p = rng.below(n + 1);
                    model.insert(p, r.is_multiple_of(2));
                }
            }
            _ => model.check_probes(&mut rng),
        }
        if step % 997 == 0 {
            model.check_full();
        }
    }
    model.check_full();
}

#[test]
fn filled_ones_local_edits() {
    // Starts as a single giant run; edits split it into many chunks.
    drive(0xA5A5_0001, true, 50_000, 6_000, 16);
}

#[test]
fn filled_zeros_local_edits() {
    drive(0xA5A5_0002, false, 50_000, 6_000, 16);
}

#[test]
fn empty_start_wide_spread() {
    // From nothing: growth phase builds chunks, shrink phase merges them.
    drive(0xA5A5_0003, true, 0, 8_000, 4_096);
}

#[test]
fn small_vector_stays_uncached() {
    // Below the cache threshold: exercises the decode-reencode edit path.
    drive(0xA5A5_0004, false, 64, 3_000, 8);
}

#[test]
fn dense_alternation_maximizes_runs() {
    // Alternating bits make every insert create or split runs, maximizing
    // split/merge churn.
    let mut model = Model::filled(false, 1_000);
    let mut rng = Rng::new(0xA5A5_0005);
    for i in 0..4_000 {
        let n = model.m.len();
        let p = (n / 2 + rng.below(64).min(n / 2)).min(n);
        model.insert(p, i % 2 == 0);
        if i % 3 == 0 && model.m.len() > 500 {
            let p = model.m.len() / 2 + (i % 32);
            model.remove(p.min(model.m.len() - 1));
        }
    }
    model.check_full();
}

#[test]
fn interleaved_clones_share_nothing() {
    // Clone mid-workload (dirty cache included) and drive both copies on
    // divergent schedules; each must stay consistent with its own mirror.
    let mut rng = Rng::new(0xA5A5_0006);
    let mut a = Model::filled(true, 10_000);
    for _ in 0..500 {
        let p = 5_000 + rng.below(32);
        a.insert(p, rng.next().is_multiple_of(2));
    }
    let mut b = Model {
        v: a.v.clone(),
        m: a.m.clone(),
    };
    for _ in 0..1_000 {
        let pa = rng.below(a.m.len());
        a.insert(pa, rng.next().is_multiple_of(2));
        let pb = rng.below(b.m.len());
        b.remove(pb);
    }
    a.check_full();
    b.check_full();
}
