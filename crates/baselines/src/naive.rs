//! Naive uncompressed indexed sequence: `Vec` of strings with linear-scan
//! queries. The space baseline of experiment E4 and the baseline the §5
//! range algorithms are measured against (experiment E7).

/// A plain `Vec<Vec<u8>>` sequence answering every operation by scanning.
#[derive(Clone, Debug, Default)]
pub struct NaiveSeq {
    data: Vec<Vec<u8>>,
}

impl<S: AsRef<[u8]>> FromIterator<S> for NaiveSeq {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        NaiveSeq {
            data: iter.into_iter().map(|s| s.as_ref().to_vec()).collect(),
        }
    }
}

impl NaiveSeq {
    /// Empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Inserts before `pos`.
    pub fn insert(&mut self, s: impl AsRef<[u8]>, pos: usize) {
        self.data.insert(pos, s.as_ref().to_vec());
    }

    /// Appends.
    pub fn push(&mut self, s: impl AsRef<[u8]>) {
        self.data.push(s.as_ref().to_vec());
    }

    /// Removes and returns the string at `pos`.
    pub fn remove(&mut self, pos: usize) -> Vec<u8> {
        self.data.remove(pos)
    }

    /// `Access(pos)`.
    pub fn get(&self, pos: usize) -> &[u8] {
        &self.data[pos]
    }

    /// `Rank(s, pos)` by scanning.
    pub fn rank(&self, s: impl AsRef<[u8]>, pos: usize) -> usize {
        let s = s.as_ref();
        self.data[..pos]
            .iter()
            .filter(|t| t.as_slice() == s)
            .count()
    }

    /// `Select(s, idx)` by scanning.
    pub fn select(&self, s: impl AsRef<[u8]>, idx: usize) -> Option<usize> {
        let s = s.as_ref();
        self.data
            .iter()
            .enumerate()
            .filter(|(_, t)| t.as_slice() == s)
            .nth(idx)
            .map(|(i, _)| i)
    }

    /// `RankPrefix(p, pos)` by scanning.
    pub fn rank_prefix(&self, p: impl AsRef<[u8]>, pos: usize) -> usize {
        let p = p.as_ref();
        self.data[..pos].iter().filter(|t| t.starts_with(p)).count()
    }

    /// `SelectPrefix(p, idx)` by scanning.
    pub fn select_prefix(&self, p: impl AsRef<[u8]>, idx: usize) -> Option<usize> {
        let p = p.as_ref();
        self.data
            .iter()
            .enumerate()
            .filter(|(_, t)| t.starts_with(p))
            .nth(idx)
            .map(|(i, _)| i)
    }

    /// Distinct strings with counts in `[l, r)`, lexicographically sorted.
    pub fn distinct_in_range(&self, l: usize, r: usize) -> Vec<(Vec<u8>, usize)> {
        let mut map = std::collections::BTreeMap::new();
        for s in &self.data[l..r] {
            *map.entry(s.clone()).or_insert(0usize) += 1;
        }
        map.into_iter().collect()
    }

    /// Majority element of `[l, r)`, if any.
    pub fn range_majority(&self, l: usize, r: usize) -> Option<(Vec<u8>, usize)> {
        self.distinct_in_range(l, r)
            .into_iter()
            .find(|(_, c)| 2 * c > r - l)
    }

    /// Strings with ≥ `min_count` occurrences in `[l, r)`.
    pub fn range_frequent(&self, l: usize, r: usize, min_count: usize) -> Vec<(Vec<u8>, usize)> {
        self.distinct_in_range(l, r)
            .into_iter()
            .filter(|(_, c)| *c >= min_count.max(1))
            .collect()
    }

    /// Heap bits (the uncompressed cost every compressed structure is
    /// compared against).
    pub fn size_bits(&self) -> usize {
        let content: usize = self.data.iter().map(|s| s.capacity() * 8).sum();
        content + self.data.capacity() * (std::mem::size_of::<Vec<u8>>() * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = NaiveSeq::from_iter(["a", "b", "a", "c", "ab"]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.rank("a", 5), 2);
        assert_eq!(s.rank("a", 2), 1);
        assert_eq!(s.select("a", 1), Some(2));
        assert_eq!(s.select("a", 2), None);
        assert_eq!(s.rank_prefix("a", 5), 3);
        assert_eq!(s.select_prefix("a", 2), Some(4));
        assert_eq!(s.range_majority(0, 3).unwrap().0, b"a");
        s.insert("a", 0);
        assert_eq!(s.rank("a", 6), 3);
        assert_eq!(s.remove(0), b"a");
        let d = s.distinct_in_range(0, 5);
        assert_eq!(d.len(), 4);
        assert_eq!(s.range_frequent(0, 5, 2).len(), 1);
    }
}
