//! The three workloads: their constants, inputs made from the seed, and
//! the query and append streams drawn from those inputs.
//!
//! Offered rates are constants here, set once and never recalibrated, so
//! a parent and a change are measured under the same load. They sit at a
//! fifth to a quarter of the closed-loop capacity measured on a 2-vCPU
//! host, not half: the one generator thread sends synchronously, so at
//! half of capacity, or whenever the host slows down, its own backlog
//! would set the latency.

use wt_server::{shard_for, DocId, Query};
use wt_trie::BitString;
use wt_workloads::urls::{url_log, UrlLogConfig};
use wt_workloads::zipf::Zipf;
use wt_workloads::{rng, RngExt};

use crate::oracle::Codec;

/// Shards behind the router, as in E17.
pub const SHARDS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `url_log` URLs over this many hosts.
    Urls { hosts: usize },
    /// Uniform random integers of this many bits.
    Ints { bits: u32 },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Strings stored at the end of set-up.
    pub n: usize,
    /// Queries per router batch.
    pub batch: usize,
    /// Cumulative shares of Count and Access in a batch; CountPrefix
    /// takes the rest.
    pub mix: (f64, f64),
    /// Zipf(1.0) arguments (otherwise uniform).
    pub zipf: bool,
    /// Open-loop arrivals per second. On `url_ingest` half of them are
    /// appends; elsewhere all are query batches.
    pub rate: f64,
    /// Arrivals are interleaved appends and batches (the write path).
    pub ingest: bool,
    /// Appends per second in the closing append phase (read-only
    /// workloads only).
    pub append_rate: f64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "url_serve",
        kind: Kind::Urls { hosts: 2000 },
        n: 200_000,
        batch: 64,
        mix: (0.7, 0.9),
        zipf: true,
        rate: 400.0,
        ingest: false,
        append_rate: 1000.0,
    },
    Spec {
        name: "ints_scan",
        kind: Kind::Ints { bits: 28 },
        n: 600_000,
        batch: 1024,
        mix: (1.0 / 3.0, 2.0 / 3.0),
        zipf: false,
        rate: 40.0,
        ingest: false,
        append_rate: 1000.0,
    },
    Spec {
        name: "url_ingest",
        kind: Kind::Urls { hosts: 2000 },
        n: 50_000,
        batch: 64,
        mix: (0.7, 0.9),
        zipf: true,
        rate: 400.0,
        ingest: true,
        append_rate: 0.0,
    },
];

/// Appends per shard between two maintenance passes.
pub const MAINTAIN_EVERY: usize = 128;

/// Maintenance passes that close set-up on `url_ingest`, one per
/// `MAINTAIN_EVERY` corpus strings. With the head segment they fill the
/// store's `max_sealed` sealed segments, the count the run then keeps.
pub const PRIMING_PASSES: usize = 3;

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    pub fn codec(&self) -> Codec {
        match self.kind {
            Kind::Urls { .. } => Codec::Ninth,
            Kind::Ints { .. } => Codec::BitText,
        }
    }
}

/// One query, by reference into the workload's inputs, so the oracle can
/// recompute its answer after the timed interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Count of corpus string `i`.
    Count(usize),
    /// CountPrefix of prefix-pool entry `j`.
    Prefix(usize),
    Access(DocId),
}

/// One string to append: raw bytes plus their encoding.
pub struct Fresh {
    pub raw: Box<[u8]>,
    pub enc: BitString,
}

/// Raw byte strings, in order.
pub type Strings = Vec<Box<[u8]>>;

/// Inputs made from the seed, and the samplers over them.
pub struct Inputs {
    pub spec: Spec,
    pub raw: Strings,
    pub enc: Vec<BitString>,
    /// Owning shard of each corpus string.
    pub placed: Vec<u32>,
    pub prefix_raw: Strings,
    pub prefix_enc: Vec<BitString>,
    zipf: Zipf,
    prefix_zipf: Zipf,
}

fn int_text(x: u64, bits: u32) -> Box<[u8]> {
    format!("{x:0width$b}", width = bits as usize)
        .into_bytes()
        .into()
}

/// `http://hostNNN.example` and, for every other sample, the first path
/// segment too: the prefixes an analyst would count by.
fn url_prefixes(raw: &[Box<[u8]>]) -> Strings {
    let mut out = Strings::new();
    for (k, s) in raw.iter().step_by(raw.len() / 256 + 1).enumerate() {
        let slashes: Vec<usize> = s
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'/')
            .map(|(i, _)| i)
            .collect();
        // Slashes 0 and 1 are the scheme's; 2 ends the host, 3 the segment.
        let cut = slashes.get(2 + k % 2).copied().unwrap_or(s.len());
        out.push(s[..cut].into());
    }
    out.sort();
    out.dedup();
    out
}

impl Inputs {
    pub fn generate(spec: Spec, seed: u64) -> Self {
        let codec = spec.codec();
        let (raw, prefix_raw): (Strings, Strings) = match spec.kind {
            Kind::Urls { hosts } => {
                let cfg = UrlLogConfig {
                    hosts,
                    ..UrlLogConfig::default()
                };
                let raw: Strings = url_log(spec.n, cfg, seed)
                    .into_iter()
                    .map(|s| s.into_bytes().into())
                    .collect();
                let prefixes = url_prefixes(&raw);
                (raw, prefixes)
            }
            Kind::Ints { bits } => {
                let mut r = rng(seed);
                let mask = (1u64 << bits) - 1;
                let raw = (0..spec.n)
                    .map(|_| int_text(r.random::<u64>() & mask, bits))
                    .collect();
                let prefixes = (0..4096)
                    .map(|_| {
                        let len = r.random_range(4..=20usize);
                        int_text(r.random::<u64>() & mask, bits)[..len].into()
                    })
                    .collect();
                (raw, prefixes)
            }
        };
        let enc: Vec<BitString> = raw.iter().map(|s| codec.encode(s)).collect();
        let placed = enc
            .iter()
            .map(|e| shard_for(e.as_bitstr(), SHARDS))
            .collect();
        let prefix_enc = prefix_raw.iter().map(|p| codec.encode_prefix(p)).collect();
        let zipf = Zipf::new(spec.n, 1.0);
        let prefix_zipf = Zipf::new(prefix_raw.len(), 1.0);
        Inputs {
            spec,
            raw,
            enc,
            placed,
            prefix_raw,
            prefix_enc,
            zipf,
            prefix_zipf,
        }
    }

    fn pick(&self, rng: &mut impl RngExt, zipf: &Zipf, n: usize) -> usize {
        if self.spec.zipf {
            zipf.sample(rng) % n
        } else {
            rng.random_range(0..n)
        }
    }

    /// One batch. Access targets count back from the newest document, so
    /// on `url_ingest` the hot tails are read.
    pub fn batch(&self, rng: &mut impl RngExt, docs: &[DocId]) -> Vec<Op> {
        (0..self.spec.batch)
            .map(|_| {
                let pick: f64 = rng.random();
                if pick < self.spec.mix.0 {
                    Op::Count(self.pick(rng, &self.zipf, self.raw.len()))
                } else if pick < self.spec.mix.1 {
                    Op::Access(docs[docs.len() - 1 - self.pick(rng, &self.zipf, docs.len())])
                } else {
                    Op::Prefix(self.pick(rng, &self.prefix_zipf, self.prefix_raw.len()))
                }
            })
            .collect()
    }

    pub fn query(&self, op: Op) -> Query {
        match op {
            Op::Count(i) => Query::Count(self.enc[i].clone()),
            Op::Prefix(j) => Query::CountPrefix(self.prefix_enc[j].clone()),
            Op::Access(doc) => Query::Access(doc),
        }
    }

    /// An append: half repeats of corpus strings, half strings the store
    /// has not seen (a query-string suffix no corpus URL has, or a fresh
    /// random integer). `serial` makes fresh URLs distinct.
    pub fn fresh(&self, rng: &mut impl RngExt, serial: usize) -> Fresh {
        let i = self.pick(rng, &self.zipf, self.raw.len());
        let raw: Box<[u8]> = if rng.random::<f64>() < 0.5 {
            self.raw[i].clone()
        } else {
            match self.spec.kind {
                Kind::Urls { .. } => {
                    let mut s = self.raw[i].to_vec();
                    s.extend_from_slice(format!("?v={serial}").as_bytes());
                    s.into()
                }
                Kind::Ints { bits } => int_text(rng.random::<u64>() & ((1u64 << bits) - 1), bits),
            }
        };
        let enc = self.spec.codec().encode(&raw);
        Fresh { raw, enc }
    }

    /// The document ids set-up hands out: local positions in append order.
    pub fn setup_docs(&self) -> Vec<DocId> {
        let mut next = [0u64; SHARDS];
        self.placed
            .iter()
            .map(|&shard| {
                let pos = next[shard as usize];
                next[shard as usize] += 1;
                DocId { shard, pos }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed() {
        let spec = Spec {
            n: 2000,
            ..Spec::named("url_serve").expect("known workload")
        };
        let (a, b) = (Inputs::generate(spec, 3), Inputs::generate(spec, 3));
        assert_eq!(a.raw, b.raw);
        assert_eq!(a.prefix_raw, b.prefix_raw);
        assert_ne!(a.raw, Inputs::generate(spec, 4).raw);
        let docs = a.setup_docs();
        let (mut r1, mut r2) = (rng(9), rng(9));
        assert_eq!(a.batch(&mut r1, &docs), b.batch(&mut r2, &docs));
        assert!(a.prefix_raw.iter().all(|p| p.starts_with(b"http://host")));
    }

    #[test]
    fn int_prefixes_are_bit_prefixes_of_the_universe() {
        let spec = Spec {
            n: 500,
            ..Spec::named("ints_scan").expect("known workload")
        };
        let inputs = Inputs::generate(spec, 1);
        assert!(inputs.raw.iter().all(|s| s.len() == 28));
        assert!(inputs
            .prefix_raw
            .iter()
            .all(|p| (4..=20).contains(&p.len())));
        assert_eq!(inputs.enc[0].len(), 28);
    }
}
