//! The answer oracle: plain data structures over the raw (unencoded)
//! strings, independent of every layer under test.
//!
//! * `Count` looks the raw string up in a hash map.
//! * `CountPrefix` is a byte-prefix range over the raw strings in sorted
//!   order. Both codecs keep byte prefixes as bit prefixes, so the range
//!   size is what the encoded store must answer.
//! * `Access` maps a [`DocId`] (as returned by an append) back to the raw
//!   string appended under it.

use std::collections::HashMap;

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wt_server::DocId;
use wt_trie::BitString;

/// How a workload turns raw byte strings into the store's binary strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Text (URLs): [`NinthBitCoder`], prefix-free and prefix-preserving.
    Ninth,
    /// Fixed-width integers written as `'0'`/`'1'` text: the text *is* the
    /// MSB-first bit string, so equal widths make the set prefix-free.
    BitText,
}

impl Codec {
    pub fn encode(self, raw: &[u8]) -> BitString {
        match self {
            Codec::Ninth => NinthBitCoder.encode(raw),
            Codec::BitText => self.encode_prefix(raw),
        }
    }

    pub fn encode_prefix(self, raw: &[u8]) -> BitString {
        match self {
            Codec::Ninth => NinthBitCoder.encode_prefix(raw),
            Codec::BitText => BitString::from_bits(raw.iter().map(|&b| b == b'1')),
        }
    }
}

/// Raw strings in append order, indexed three ways.
#[derive(Debug)]
pub struct Oracle {
    raw: Vec<Box<[u8]>>,
    /// Indices into `raw`, ascending by raw bytes.
    sorted: Vec<u32>,
    counts: HashMap<Box<[u8]>, usize>,
    /// Per shard: the `raw` index appended at each local position.
    docs: Vec<Vec<u32>>,
}

impl Oracle {
    pub fn new(shards: usize) -> Self {
        Oracle {
            raw: Vec::new(),
            sorted: Vec::new(),
            counts: HashMap::new(),
            docs: vec![Vec::new(); shards],
        }
    }

    /// Bulk load: `placed[i]` is the shard raw string `i` was appended to,
    /// in append order (so local positions follow).
    pub fn load(raw: Vec<Box<[u8]>>, placed: &[u32], shards: usize) -> Self {
        let mut oracle = Oracle::new(shards);
        for (i, s) in raw.iter().enumerate() {
            *oracle.counts.entry(s.clone()).or_insert(0) += 1;
            oracle.docs[placed[i] as usize].push(i as u32);
        }
        let mut sorted: Vec<u32> = (0..raw.len() as u32).collect();
        sorted.sort_unstable_by(|&a, &b| raw[a as usize].cmp(&raw[b as usize]));
        oracle.raw = raw;
        oracle.sorted = sorted;
        oracle
    }

    /// Records one append that the store acknowledged with `doc`.
    pub fn append(&mut self, raw: Box<[u8]>, doc: DocId) {
        let idx = self.raw.len() as u32;
        let at = self
            .sorted
            .partition_point(|&i| *self.raw[i as usize] < *raw);
        self.sorted.insert(at, idx);
        *self.counts.entry(raw.clone()).or_insert(0) += 1;
        let local = &mut self.docs[doc.shard as usize];
        assert_eq!(
            local.len() as u64,
            doc.pos,
            "append acknowledged out of order"
        );
        local.push(idx);
        self.raw.push(raw);
    }

    pub fn raw(&self, idx: usize) -> &[u8] {
        &self.raw[idx]
    }

    pub fn count(&self, raw: &[u8]) -> usize {
        self.counts.get(raw).copied().unwrap_or(0)
    }

    pub fn count_prefix(&self, prefix: &[u8]) -> usize {
        let key = |i: &u32| &*self.raw[*i as usize];
        let lo = self.sorted.partition_point(|i| key(i) < prefix);
        let hi = self
            .sorted
            .partition_point(|i| key(i) < prefix || key(i).starts_with(prefix));
        hi - lo
    }

    /// The raw index appended under `doc`, if it exists.
    pub fn doc(&self, doc: DocId) -> Option<usize> {
        let local = self.docs.get(doc.shard as usize)?;
        local.get(doc.pos as usize).map(|&i| i as usize)
    }

    /// Distinct raw strings with their multiplicities, in sorted order.
    pub fn distinct(&self) -> Vec<(&[u8], usize)> {
        let mut out: Vec<(&[u8], usize)> = Vec::new();
        for &i in &self.sorted {
            let s = &*self.raw[i as usize];
            match out.last_mut() {
                Some((last, c)) if *last == s => *c += 1,
                _ => out.push((s, 1)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavelet_trie::binarize::FixedWidthMsb;
    use wavelet_trie::{SeqIndex, WaveletTrie};

    fn boxed(strs: &[&str]) -> Vec<Box<[u8]>> {
        strs.iter().map(|s| s.as_bytes().into()).collect()
    }

    /// The prefix oracle over raw bytes agrees with the trie's
    /// `count_prefix` over the encoded strings, for both codecs.
    #[test]
    fn prefix_ranges_match_encoded_counts() {
        let urls = [
            "http://a.example/x",
            "http://a.example/x",
            "http://a.example/y/z",
            "http://ab.example/",
            "http://b.example/x",
            "http://a.example",
        ];
        let oracle = Oracle::load(boxed(&urls), &[0; 6], 1);
        let enc: Vec<BitString> = urls
            .iter()
            .map(|u| Codec::Ninth.encode(u.as_bytes()))
            .collect();
        let wt = WaveletTrie::build(&enc).expect("ninth-bit encodings are prefix-free");
        for p in [
            "",
            "h",
            "http://a",
            "http://a.",
            "http://a.example",
            "http://a.example/",
            "http://a.example/x",
            "http://a.example/x/",
            "http://c",
            "z",
        ] {
            let want = wt.count_prefix(Codec::Ninth.encode_prefix(p.as_bytes()).as_bitstr());
            assert_eq!(oracle.count_prefix(p.as_bytes()), want, "prefix {p:?}");
        }
        assert_eq!(oracle.count(b"http://a.example/x"), 2);
        assert_eq!(oracle.count(b"http://a.example/"), 0);

        let coder = FixedWidthMsb::new(6);
        let ints = [5u64, 5, 17, 40, 41, 63, 0];
        let text: Vec<String> = ints.iter().map(|x| format!("{x:06b}")).collect();
        let refs: Vec<&str> = text.iter().map(String::as_str).collect();
        let oracle = Oracle::load(boxed(&refs), &[0; 7], 1);
        let enc: Vec<BitString> = ints.iter().map(|&x| coder.encode_u64(x)).collect();
        assert_eq!(enc[2], Codec::BitText.encode(text[2].as_bytes()));
        let wt = WaveletTrie::build(&enc).expect("fixed width is prefix-free");
        for p in ["", "0", "1", "00", "000101", "101", "10100", "111111", "11"] {
            let want = wt.count_prefix(Codec::BitText.encode_prefix(p.as_bytes()).as_bitstr());
            assert_eq!(oracle.count_prefix(p.as_bytes()), want, "prefix {p:?}");
        }
    }

    #[test]
    fn appends_keep_every_index_current() {
        let mut oracle = Oracle::load(boxed(&["b", "d"]), &[0, 1], 2);
        oracle.append(b"c".as_slice().into(), DocId { shard: 0, pos: 1 });
        oracle.append(b"b".as_slice().into(), DocId { shard: 1, pos: 1 });
        assert_eq!(oracle.count(b"b"), 2);
        assert_eq!(oracle.count_prefix(b""), 4);
        assert_eq!(oracle.count_prefix(b"c"), 1);
        assert_eq!(
            oracle
                .doc(DocId { shard: 0, pos: 1 })
                .map(|i| oracle.raw(i)),
            Some(&b"c"[..])
        );
        assert_eq!(oracle.doc(DocId { shard: 1, pos: 1 }), Some(3));
        assert_eq!(oracle.doc(DocId { shard: 1, pos: 2 }), None);
        assert_eq!(
            oracle.distinct(),
            vec![(&b"b"[..], 2), (&b"c"[..], 1), (&b"d"[..], 1)]
        );
    }
}
