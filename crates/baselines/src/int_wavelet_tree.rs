//! The classic balanced Wavelet Tree [Grossi–Gupta–Vitter'03] over a
//! *fixed integer alphabet* (§2 of the paper) — the structure the Wavelet
//! Trie generalizes, and the core of the "approach (1)" baseline: it cannot
//! change its alphabet after construction and knows nothing about prefixes.

use wt_bits::{BitAccess, BitRank, BitSelect, Fid, RawBitVec, SpaceUsage};

/// A pointer-based balanced Wavelet Tree over `{0, …, sigma−1}`.
#[derive(Clone, Debug)]
pub struct IntWaveletTree {
    /// Bitvectors level by level, one per internal node, in BFS order kept
    /// as a flat binary heap layout (node 1 = root; children 2v, 2v+1).
    nodes: Vec<Option<Fid>>,
    sigma: u64,
    /// Bits needed to write a symbol (tree height).
    width: u32,
    len: usize,
}

impl IntWaveletTree {
    /// Builds over `seq`, whose symbols must all be `< sigma`.
    ///
    /// # Panics
    /// If a symbol is out of range or `sigma == 0`.
    pub fn new(seq: &[u64], sigma: u64) -> Self {
        assert!(sigma > 0, "alphabet must be nonempty");
        let width = if sigma <= 1 {
            1
        } else {
            64 - (sigma - 1).leading_zeros()
        };
        let n_nodes = 1usize << width; // heap positions 1..2^width
        let mut nodes: Vec<Option<RawBitVec>> = vec![None; n_nodes];
        // Distribute symbols top-down, one level at a time.
        let mut buckets: Vec<(usize, Vec<u64>)> = vec![(1, seq.to_vec())];
        for level in 0..width {
            let shift = width - 1 - level;
            let mut next = Vec::new();
            for (node, vals) in buckets {
                if vals.is_empty() {
                    continue;
                }
                let mut bv = RawBitVec::with_capacity(vals.len());
                let mut zeros = Vec::new();
                let mut ones = Vec::new();
                for &v in &vals {
                    assert!(v < sigma, "symbol {v} out of alphabet {sigma}");
                    let bit = (v >> shift) & 1 != 0;
                    bv.push(bit);
                    if bit {
                        ones.push(v);
                    } else {
                        zeros.push(v);
                    }
                }
                nodes[node] = Some(bv);
                if level + 1 < width {
                    next.push((2 * node, zeros));
                    next.push((2 * node + 1, ones));
                }
            }
            buckets = next;
        }
        IntWaveletTree {
            nodes: nodes.into_iter().map(|o| o.map(Fid::new)).collect(),
            sigma,
            width,
            len: seq.len(),
        }
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Alphabet size the tree was built for.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// `Access(pos)`.
    pub fn access(&self, pos: usize) -> u64 {
        assert!(pos < self.len, "position out of bounds");
        let mut node = 1usize;
        let mut p = pos;
        let mut v = 0u64;
        for _ in 0..self.width {
            let bv = self.nodes[node].as_ref().expect("path exists");
            let bit = bv.get(p);
            v = (v << 1) | bit as u64;
            p = bv.rank(bit, p);
            node = 2 * node + bit as usize;
            if node >= self.nodes.len() {
                break;
            }
        }
        v
    }

    /// `Rank(c, pos)`: occurrences of `c` before `pos`.
    pub fn rank(&self, c: u64, pos: usize) -> usize {
        assert!(pos <= self.len);
        if c >= self.sigma {
            return 0;
        }
        let mut node = 1usize;
        let mut p = pos;
        for level in 0..self.width {
            let bv = match self.nodes.get(node).and_then(|o| o.as_ref()) {
                Some(bv) => bv,
                None => return 0,
            };
            let bit = (c >> (self.width - 1 - level)) & 1 != 0;
            p = bv.rank(bit, p);
            node = 2 * node + bit as usize;
        }
        p
    }

    /// `Select(c, idx)`: position of the `idx`-th occurrence of `c`.
    pub fn select(&self, c: u64, idx: usize) -> Option<usize> {
        if c >= self.sigma {
            return None;
        }
        // Descend to the (virtual) leaf recording the path.
        let mut path = Vec::with_capacity(self.width as usize);
        let mut node = 1usize;
        for level in 0..self.width {
            let _bv = self.nodes.get(node).and_then(|o| o.as_ref())?;
            let bit = (c >> (self.width - 1 - level)) & 1 != 0;
            path.push((node, bit));
            node = 2 * node + bit as usize;
        }
        let mut i = idx;
        for &(node, bit) in path.iter().rev() {
            let bv = self.nodes[node].as_ref().expect("on path");
            i = bv.select(bit, i)?;
        }
        Some(i)
    }

    /// Occurrences of `c` in the whole sequence.
    pub fn count(&self, c: u64) -> usize {
        self.rank(c, self.len)
    }
}

impl SpaceUsage for IntWaveletTree {
    fn size_bits(&self) -> usize {
        self.nodes
            .iter()
            .flatten()
            .map(|f| f.size_bits())
            .sum::<usize>()
            + self.nodes.capacity() * 64
            + 3 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_workloads::xorshift;

    fn check(seq: &[u64], sigma: u64) {
        let wt = IntWaveletTree::new(seq, sigma);
        assert_eq!(wt.len(), seq.len());
        for (i, &v) in seq.iter().enumerate() {
            assert_eq!(wt.access(i), v, "access({i})");
        }
        for c in 0..sigma {
            let occs: Vec<usize> = (0..seq.len()).filter(|&i| seq[i] == c).collect();
            for pos in (0..=seq.len()).step_by((seq.len() / 50).max(1)) {
                let naive = occs.iter().filter(|&&p| p < pos).count();
                assert_eq!(wt.rank(c, pos), naive, "rank({c},{pos})");
            }
            for (k, &p) in occs.iter().enumerate() {
                assert_eq!(wt.select(c, k), Some(p), "select({c},{k})");
            }
            assert_eq!(wt.select(c, occs.len()), None);
        }
    }

    #[test]
    fn abracadabra() {
        // Figure 1 of the paper: a=0 b=1 c=2 d=3 r=4.
        let seq = [0u64, 1, 4, 0, 2, 0, 3, 0, 1, 4, 0];
        check(&seq, 5);
    }

    #[test]
    fn degenerate_alphabets() {
        check(&[0, 0, 0], 1);
        check(&[0, 1, 0, 1], 2);
        check(&[], 4);
        check(&[3], 4);
    }

    #[test]
    fn pseudorandom() {
        let mut next = xorshift(777);
        let seq: Vec<u64> = (0..5000).map(|_| next() % 100).collect();
        check(&seq, 100);
        let seq: Vec<u64> = (0..1000).map(|_| next() % 3).collect();
        check(&seq, 3);
    }
}
