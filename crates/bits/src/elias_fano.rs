//! Elias–Fano encoding of monotone sequences.
//!
//! Used as the partial-sum structure that delimits the concatenated node
//! labels `L` and the concatenated node bitvectors in the static Wavelet
//! Trie (§3: "We use the partial sum data structure of \[22\] to delimit...").
//! Elias–Fano is the standard engineered equivalent with the same
//! `B(m, n) + o(n)` space and O(1) access (DESIGN.md substitution #1).

use crate::broadword::PIPELINE_LANES;
use crate::persist::{LoadError, Persist, WordsReader};
use crate::{BitRank, BitSelect, Fid, RawBitVec, SpaceUsage};

/// A compressed monotone non-decreasing sequence of `u64`s with O(1) access.
#[derive(Clone, Debug)]
pub struct EliasFano {
    n: usize,
    /// Strict upper bound on values (max + 1); 0 when empty.
    u: u64,
    low_width: usize,
    low: RawBitVec,
    high: Fid,
}

impl EliasFano {
    /// Encodes `values`, which must be non-decreasing.
    ///
    /// # Panics
    /// If the values decrease.
    pub fn new(values: &[u64]) -> Self {
        let n = values.len();
        if n == 0 {
            return EliasFano {
                n: 0,
                u: 0,
                low_width: 0,
                low: RawBitVec::new(),
                high: Fid::new(RawBitVec::new()),
            };
        }
        let max = *values.last().expect("nonempty");
        let u = max.saturating_add(1);
        let low_width = if u as usize > n && n > 0 {
            (u / n as u64).max(1).ilog2() as usize
        } else {
            0
        };
        let mut low = RawBitVec::with_capacity(n * low_width);
        let n_buckets = (max >> low_width) as usize + 1;
        let mut high = RawBitVec::with_capacity(n + n_buckets);
        let mut prev = 0u64;
        let mut bucket = 0usize;
        for &v in values {
            assert!(v >= prev, "EliasFano requires monotone input");
            prev = v;
            if low_width > 0 {
                low.push_bits(v & ((1u64 << low_width) - 1), low_width);
            }
            let b = (v >> low_width) as usize;
            while bucket < b {
                high.push(false);
                bucket += 1;
            }
            high.push(true);
        }
        high.push(false); // fence so the last bucket is closed
        EliasFano {
            n,
            u,
            low_width,
            low,
            high: Fid::new(high),
        }
    }

    /// Encodes the prefix sums `0, w₀, w₀+w₁, …` of the given weights;
    /// the result has `weights.len() + 1` entries. This is the delimiter
    /// layout used by the static Wavelet Trie.
    pub fn prefix_sums<I: IntoIterator<Item = u64>>(weights: I) -> Self {
        let mut acc = 0u64;
        let mut vals = vec![0u64];
        for w in weights {
            acc += w;
            vals.push(acc);
        }
        Self::new(&vals)
    }

    /// Number of values stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn low_of(&self, i: usize) -> u64 {
        if self.low_width == 0 {
            0
        } else {
            self.low.get_bits(i * self.low_width, self.low_width)
        }
    }

    /// The `i`-th value.
    ///
    /// # Panics
    /// If `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(
            i < self.n,
            "EliasFano index {i} out of bounds (len {})",
            self.n
        );
        let hi = (self.high.select1(i).expect("directory") - i) as u64;
        if self.low_width == 0 {
            hi
        } else {
            (hi << self.low_width) | self.low_of(i)
        }
    }

    /// The `i`-th and `(i+1)`-th values with a single directory probe: the
    /// second select resolves by scanning the upper bitvector for the next
    /// set bit (the average gap is < 2 bits). The scan is capped at four
    /// words so a pathologically skewed distribution (one huge gap in the
    /// upper bits) degrades to the plain second select, never to a linear
    /// walk. This is the segment-bounds access pattern of the static
    /// Wavelet Trie, where every node visit needs a `[start, end)` pair
    /// from each delimiter structure.
    ///
    /// # Panics
    /// If `i + 1 >= len()`.
    pub fn get_pair(&self, i: usize) -> (u64, u64) {
        assert!(
            i + 1 < self.n,
            "EliasFano pair index {i} out of bounds (len {})",
            self.n
        );
        let p = self.high.select1(i).expect("directory");
        self.pair_from_first(i, p)
    }

    /// Second half of [`EliasFano::get_pair`]: both values given the
    /// already-resolved position `p` of the `i`-th upper-bits one (split
    /// out so the batched entry point can resolve all lanes' selects in a
    /// pipelined round first).
    #[inline]
    fn pair_from_first(&self, i: usize, p: usize) -> (u64, u64) {
        let q = self.next_one_after(i, p);
        let hi0 = (p - i) as u64;
        let hi1 = (q - i - 1) as u64;
        if self.low_width == 0 {
            (hi0, hi1)
        } else {
            (
                (hi0 << self.low_width) | self.low_of(i),
                (hi1 << self.low_width) | self.low_of(i + 1),
            )
        }
    }

    /// Batched [`EliasFano::get`]: all lanes' upper-bit selects run through
    /// the pipelined [`Fid::select1_batch`], with the low-bits words
    /// prefetched up front — so a batch pays overlapped misses instead of
    /// one serialized select chain per lane.
    ///
    /// # Panics
    /// If the slices differ in length or any index is out of bounds.
    pub fn get_batch(&self, idxs: &[usize], out: &mut [u64]) {
        assert_eq!(idxs.len(), out.len(), "batch length mismatch");
        let mut sel = [0usize; PIPELINE_LANES];
        for (chunk, outs) in idxs
            .chunks(PIPELINE_LANES)
            .zip(out.chunks_mut(PIPELINE_LANES))
        {
            // Per-chunk prefetch so a huge batch cannot evict its own
            // early low-bits lines before the resolve below reaches them.
            for &i in chunk {
                assert!(i < self.n, "EliasFano index {i} out of bounds");
                if self.low_width != 0 {
                    self.low.prefetch(i * self.low_width);
                }
            }
            self.high.select1_batch(chunk, &mut sel[..chunk.len()]);
            for ((o, &i), &p) in outs.iter_mut().zip(chunk).zip(&sel) {
                let hi = (p - i) as u64;
                *o = if self.low_width == 0 {
                    hi
                } else {
                    (hi << self.low_width) | self.low_of(i)
                };
            }
        }
    }

    /// Batched [`EliasFano::get_pair`] — the segment-bounds access pattern
    /// of a group descent: all lanes' `[start, end)` pairs with the
    /// upper-bit selects pipelined across lanes.
    ///
    /// # Panics
    /// If the slices differ in length or any `i + 1` is out of bounds.
    pub fn get_pair_batch(&self, idxs: &[usize], out: &mut [(u64, u64)]) {
        assert_eq!(idxs.len(), out.len(), "batch length mismatch");
        let mut sel = [0usize; PIPELINE_LANES];
        for (chunk, outs) in idxs
            .chunks(PIPELINE_LANES)
            .zip(out.chunks_mut(PIPELINE_LANES))
        {
            for &i in chunk {
                assert!(i + 1 < self.n, "EliasFano pair index {i} out of bounds");
                if self.low_width != 0 {
                    self.low.prefetch(i * self.low_width);
                }
            }
            self.high.select1_batch(chunk, &mut sel[..chunk.len()]);
            for ((o, &i), &p) in outs.iter_mut().zip(chunk).zip(&sel) {
                *o = self.pair_from_first(i, p);
            }
        }
    }

    /// Position of the `(i+1)`-th upper-bits one given the `i`-th at `p`:
    /// capped forward scan with a directory-select fallback.
    #[inline]
    fn next_one_after(&self, i: usize, p: usize) -> usize {
        let words = self.high.raw().words();
        let mut w = (p + 1) / 64;
        let mut cur = words[w] & (!0u64 << ((p + 1) % 64));
        let mut budget = 4;
        loop {
            if cur != 0 {
                break w * 64 + cur.trailing_zeros() as usize;
            }
            w += 1;
            budget -= 1;
            match words.get(w) {
                Some(&next) if budget > 0 => cur = next,
                _ => break self.high.select1(i + 1).expect("directory"),
            }
        }
    }

    /// Number of stored values `<= x`.
    pub fn rank_leq(&self, x: u64) -> usize {
        if self.n == 0 || x >= self.u {
            return self.n;
        }
        let bucket = (x >> self.low_width) as usize;
        // Values with high part < bucket: position after the (bucket-1)-th 0.
        let start = if bucket == 0 {
            0
        } else {
            match self.high.select0(bucket - 1) {
                Some(p) => p + 1 - bucket,
                None => return self.n,
            }
        };
        let end = match self.high.select0(bucket) {
            Some(p) => p - bucket,
            None => self.n,
        };
        let xl = x & (((1u64 << self.low_width) - 1) * (self.low_width != 0) as u64);
        // Low bits are sorted within a bucket: binary-search large buckets,
        // scan small ones.
        if end - start > 8 {
            let (mut lo, mut hi) = (start, end);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.low_of(mid) <= xl {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            return lo;
        }
        let mut cnt = start;
        for i in start..end {
            if self.low_of(i) <= xl {
                cnt = i + 1;
            } else {
                break;
            }
        }
        cnt
    }

    /// Index of the largest value `<= x`, if any.
    pub fn predecessor_index(&self, x: u64) -> Option<usize> {
        self.rank_leq(x).checked_sub(1)
    }

    /// Iterates over all values in order, decoding them in one walk over
    /// the upper stream's words.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.parts().map(|(hi, lo)| (hi << self.low_width) | lo)
    }

    /// The high and low parts of every value, in order: the position of
    /// each upper-stream one less the ones before it, and the low bits.
    fn parts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let words = self.high.raw().words();
        let (mut w, mut ones, mut i) = (0, words.first().copied().unwrap_or(0), 0);
        std::iter::from_fn(move || {
            while ones == 0 {
                w += 1;
                ones = *words.get(w)?;
            }
            let hi = (w * 64 + ones.trailing_zeros() as usize - i) as u64;
            ones &= ones - 1;
            i += 1;
            Some((hi, self.low_of(i - 1)))
        })
    }

    /// Checks that the values never decrease and stay below `u` (which
    /// saturates at `u64::MAX`, a value it then admits), in one pass over
    /// both streams: queries subtract neighbouring values and compare
    /// against `u`.
    fn check_values(&self) -> Result<(), LoadError> {
        let mut prev = 0u64;
        for (hi, lo) in self.parts() {
            if hi > u64::MAX >> self.low_width {
                return Err(LoadError::Invalid("elias-fano value overflows"));
            }
            let v = (hi << self.low_width) | lo;
            if v < prev {
                return Err(LoadError::Invalid("elias-fano values decrease"));
            }
            if v >= self.u && self.u != u64::MAX {
                return Err(LoadError::Invalid("elias-fano value reaches its bound"));
            }
            prev = v;
        }
        Ok(())
    }
}

impl SpaceUsage for EliasFano {
    fn size_bits(&self) -> usize {
        self.low.size_bits() + self.high.size_bits() + 4 * 64
    }
}

impl Persist for EliasFano {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.n as u64);
        out.push(self.u);
        out.push(self.low_width as u64);
        self.low.encode(out);
        self.high.encode(out);
    }

    fn decode(r: &mut WordsReader) -> Result<Self, LoadError> {
        let n = r.read_len()?;
        let u = r.read_u64()?;
        let low_width = r.read_len()?;
        let low = RawBitVec::decode(r)?;
        let high = Fid::decode(r)?;
        if low_width >= 64 || low.len() != n * low_width {
            return Err(LoadError::Invalid("elias-fano low stream length"));
        }
        // One set bit per element in the upper bucket unary stream
        // (`Fid::decode` has checked the count against the words).
        if high.count_ones() != n {
            return Err(LoadError::Invalid("elias-fano upper bucket count"));
        }
        let ef = EliasFano {
            n,
            u,
            low_width,
            low,
            high,
        };
        ef.check_values()?;
        Ok(ef)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(values: &[u64]) {
        let ef = EliasFano::new(values);
        assert_eq!(ef.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(i), v, "get({i})");
        }
        let collected: Vec<u64> = ef.iter().collect();
        assert_eq!(collected, values);
        // rank_leq against naive on probe points
        let probes: Vec<u64> = values
            .iter()
            .flat_map(|&v| [v.saturating_sub(1), v, v + 1])
            .chain([0, u64::MAX])
            .collect();
        for x in probes {
            let naive = values.iter().filter(|&&v| v <= x).count();
            assert_eq!(ef.rank_leq(x), naive, "rank_leq({x})");
        }
    }

    #[test]
    fn empty_sequence() {
        let ef = EliasFano::new(&[]);
        assert!(ef.is_empty());
        assert_eq!(ef.rank_leq(123), 0);
        assert_eq!(ef.predecessor_index(5), None);
    }

    #[test]
    fn basic_sequences() {
        check(&[0]);
        check(&[5]);
        check(&[0, 0, 0]);
        check(&[1, 2, 3, 4, 5]);
        check(&[0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]);
        check(&[10, 10, 10, 1000, 1000, 1_000_000]);
    }

    #[test]
    fn sparse_and_dense() {
        let dense: Vec<u64> = (0..5000).collect();
        check(&dense);
        let sparse: Vec<u64> = (0..500).map(|i| i * 1_234_567).collect();
        check(&sparse);
        let clustered: Vec<u64> = (0..2000).map(|i| (i / 100) * 1_000_000 + i % 100).collect();
        check(&clustered);
    }

    #[test]
    fn large_values() {
        check(&[u64::MAX - 2, u64::MAX - 1, u64::MAX - 1]);
        check(&[0, u64::MAX / 2, u64::MAX - 1]);
    }

    #[test]
    fn prefix_sums_layout() {
        let ef = EliasFano::prefix_sums([3u64, 0, 7, 1]);
        let expected = [0u64, 3, 3, 10, 11];
        assert_eq!(ef.len(), 5);
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(ef.get(i), e);
        }
        // segment lookup: offset 5 lies in segment 2 (bounds [3,10))
        assert_eq!(ef.predecessor_index(5), Some(2));
    }

    #[test]
    fn cursor_walks_sequences() {
        // In-order walks pairing each value with its successor: `get_pair`
        // steps through the whole sequence, and `get_pair_batch`/`get_batch`
        // walk it from the front and from mid-sequence.
        for values in [
            vec![0u64],
            vec![0, 0, 0, 1, 1, 2],
            (0..5000u64).collect(),
            (0..500u64).map(|i| i * 1_234_567).collect(),
            (0..2000u64)
                .map(|i| (i / 100) * 1_000_000 + i % 100)
                .collect(),
        ] {
            let ef = EliasFano::new(&values);
            let steps = values.len() - 1;
            for i in 0..steps {
                assert_eq!(ef.get_pair(i), (values[i], values[i + 1]), "pair at {i}");
            }
            for start in [0, values.len() / 2] {
                let idxs: Vec<usize> = (start..steps).collect();
                let mut pairs = vec![(0, 0); idxs.len()];
                ef.get_pair_batch(&idxs, &mut pairs);
                let mut vals = vec![0; idxs.len()];
                ef.get_batch(&idxs, &mut vals);
                for (k, &i) in idxs.iter().enumerate() {
                    assert_eq!(pairs[k], (values[i], values[i + 1]), "batched pair at {i}");
                    assert_eq!(vals[k], values[i], "batched value at {i}");
                }
            }
        }
    }

    #[test]
    fn decode_refuses_decreasing_or_unbounded_values() {
        let roundtrip = |ef: &EliasFano| {
            let bytes = crate::persist::to_bytes(crate::persist::kind::ELIAS_FANO, ef);
            let loaded =
                crate::persist::from_bytes::<EliasFano>(crate::persist::kind::ELIAS_FANO, &bytes);
            loaded.map(|l| l.iter().collect::<Vec<u64>>())
        };
        let values = [4u64, 6, 7, 40];
        let ef = EliasFano::new(&values);
        assert_eq!(ef.low_width, 3, "4, 6 and 7 share bucket 0");
        assert_eq!(roundtrip(&ef).unwrap(), values);
        // 6 and 7 swap their low bits: 4, 7, 6, 40.
        let mut swapped = ef.clone();
        swapped.low = RawBitVec::new();
        for lo in [4, 7, 6, 0] {
            swapped.low.push_bits(lo, 3);
        }
        let err = LoadError::Invalid("elias-fano values decrease");
        assert_eq!(
            roundtrip(&swapped).unwrap_err().to_string(),
            err.to_string()
        );
        let mut low_bound = ef.clone();
        low_bound.u = 40;
        let err = LoadError::Invalid("elias-fano value reaches its bound");
        assert_eq!(
            roundtrip(&low_bound).unwrap_err().to_string(),
            err.to_string()
        );
        // A bound that saturates admits `u64::MAX` itself.
        let top = [0, u64::MAX];
        assert_eq!(roundtrip(&EliasFano::new(&top)).unwrap(), top);
    }

    #[test]
    fn beats_plain_storage_when_sparse() {
        let values: Vec<u64> = (0..10_000u64).map(|i| i * 1000).collect();
        let ef = EliasFano::new(&values);
        assert!(ef.size_bits() < values.len() * 64, "EF should compress");
    }
}
