//! The conformance harness the integration suites share (`mod support;`):
//! one naive [`Oracle`]; [`conform`], which checks a [`SeqIndex`] against
//! it over the §1 scalar queries, the §5 range analytics and every batch
//! entry point; [`conform_all`] over every backend state; and the seeded
//! op driver [`check_ops`]. The Wavelet Trie is defined over prefix-free
//! sets (Definition 3.1): every generator here emits one, and a backend
//! must reject exactly the inserts [`admits`] refuses.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{AppendWaveletTrie, BitStr, BitString, DynamicWaveletTrie};
use wavelet_trie::{SeqIndex, WaveletTrie};
use wt_store::{StoreConfig, StoreSnapshot, TieredStore};
pub use wt_workloads::xorshift;

/// `same!(got => want, context...)`: `assert_eq!` naming the query and
/// its context on failure.
macro_rules! same {
    ($got:expr => $want:expr, $($ctx:tt)+) => {
        assert_eq!($got, $want, "{}: {}", format_args!($($ctx)+), stringify!($got))
    };
}

/// `v` as a `width`-bit code; equal-width codes are prefix-free.
pub fn code(v: u64, width: usize) -> BitString {
    BitString::from_bits((0..width).rev().map(move |k| (v >> k) & 1 != 0))
}

/// `n` random `width`-bit codes of the first `alphabet` values.
pub fn random_codes(n: usize, alphabet: u64, width: usize, seed: u64) -> Vec<BitString> {
    let mut next = xorshift(seed);
    (0..n).map(|_| code(next() % alphabet, width)).collect()
}

/// `1^depth 0` plus a 4-bit tail: strings of different depths part at the
/// shallower depth, so paths get deep and share long prefixes.
pub fn deep(depth: usize, tail: u64) -> BitString {
    let mut s = BitString::from_bits(std::iter::repeat_n(true, depth));
    s.push(false);
    s.push_str(code(tail, 4).as_bitstr());
    s
}

/// Byte strings through the text facades' order-preserving `NinthBitCoder`.
pub fn encode_all<S: AsRef<[u8]>>(strings: &[S]) -> Vec<BitString> {
    let c = NinthBitCoder;
    strings.iter().map(|s| c.encode(s.as_ref())).collect()
}

/// The named trie shapes: mixed fanout, one root leaf, one leaf per
/// string, deep-skewed, empty, singleton, and the empty string alone.
pub fn shapes() -> Vec<(&'static str, Vec<BitString>)> {
    let mut next = xorshift(0x9D_0DE1);
    let mut deep_skewed: Vec<BitString> = (0..80).map(|d| deep(d, next() % 16)).collect();
    deep_skewed.extend((0..400).map(|_| deep((next() % 60) as usize, next() % 16)));
    vec![
        ("random", random_codes(1200, 90, 9, 0x9D_0DE2)),
        ("all_equal", vec![code(5, 7); 400]),
        ("all_distinct", (0..700).map(|v| code(v, 12)).collect()),
        ("deep_skewed", deep_skewed),
        ("empty", Vec::new()),
        ("singleton", vec![code(3, 5)]),
        ("empty_string_only", vec![BitString::new(); 4]),
    ]
}

/// Whether `s` can join `set` without breaking prefix-freeness (§3): it
/// must be no proper prefix or extension of a member.
pub fn admits<'a>(set: impl IntoIterator<Item = &'a BitString>, s: BitStr<'_>) -> bool {
    set.into_iter().all(|t| {
        let t = t.as_bitstr();
        t == s || !(t.starts_with(&s) || s.starts_with(&t))
    })
}

/// The naive model: the sequence, and each distinct string's ascending
/// positions, so a query is a lookup rather than a scan.
pub struct Oracle {
    pub seq: Vec<BitString>,
    occ: BTreeMap<BitString, Vec<usize>>,
}

type Tally = Vec<(BitString, usize)>;

fn rank_in(positions: &[usize], pos: usize) -> usize {
    positions.partition_point(|&p| p < pos)
}

impl Oracle {
    pub fn new(seq: Vec<BitString>) -> Self {
        let mut occ: BTreeMap<BitString, Vec<usize>> = BTreeMap::new();
        for (i, s) in seq.iter().enumerate() {
            occ.entry(s.clone()).or_default().push(i);
        }
        Oracle { seq, occ }
    }

    fn positions(&self, s: BitStr<'_>) -> &[usize] {
        self.occ.get(&s.to_owned_str()).map_or(&[], Vec::as_slice)
    }

    fn rank(&self, s: BitStr<'_>, pos: usize) -> usize {
        rank_in(self.positions(s), pos)
    }

    fn select(&self, s: BitStr<'_>, k: usize) -> Option<usize> {
        self.positions(s).get(k).copied()
    }

    fn count_prefix(&self, p: BitStr<'_>) -> usize {
        self.with_prefix(p).map(Vec::len).sum()
    }

    /// Position lists of the strings with prefix `p`: contiguous in sorted
    /// order, from the first string `>= p`.
    fn with_prefix<'a>(&'a self, p: BitStr<'a>) -> impl Iterator<Item = &'a Vec<usize>> {
        let from = self.occ.range(p.to_owned_str()..);
        from.take_while(move |(k, _)| k.as_bitstr().starts_with(&p))
            .map(|(_, v)| v)
    }

    fn prefix_positions(&self, p: BitStr<'_>) -> Vec<usize> {
        let mut out: Vec<usize> = self.with_prefix(p).flatten().copied().collect();
        out.sort_unstable();
        out
    }

    /// Distinct `key(s)` over `S[l, r)` with counts, in lexicographic order.
    fn tally(&self, l: usize, r: usize, key: impl Fn(&BitString) -> BitString) -> Tally {
        let mut counts = BTreeMap::new();
        for s in &self.seq[l..r] {
            *counts.entry(key(s)).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// Height and total bitvector bits of the Patricia trie over the
    /// distinct strings: a node splits its sorted keys where their longest
    /// common prefix ends, and holds a bit per string below it.
    fn shape(&self) -> (usize, usize) {
        fn walk(keys: &[(&BitString, usize)]) -> (usize, usize) {
            if keys.len() < 2 {
                return (0, 0);
            }
            let (first, last) = (keys[0].0.as_bitstr(), keys[keys.len() - 1].0.as_bitstr());
            let split = first.lcp(&last);
            let mid = keys.partition_point(|(k, _)| !k.get(split));
            let ((h0, b0), (h1, b1)) = (walk(&keys[..mid]), walk(&keys[mid..]));
            let here: usize = keys.iter().map(|&(_, c)| c).sum();
            (1 + h0.max(h1), here + b0 + b1)
        }
        let keys: Vec<_> = self.occ.iter().map(|(k, v)| (k, v.len())).collect();
        walk(&keys)
    }
}

fn keep(tally: &Tally, f: impl Fn(&BitString, usize) -> bool) -> Tally {
    tally.iter().filter(|(s, c)| f(s, *c)).cloned().collect()
}

/// Repeats `lanes` cyclically out to `bs` lanes.
fn widen<T: Clone>(lanes: impl Iterator<Item = T>, bs: usize) -> Vec<T> {
    let lanes: Vec<T> = lanes.collect();
    lanes.iter().cloned().cycle().take(bs).collect()
}

/// Batch sizes straddling the kernels' 8-lane scalar fallback and their
/// 64-lane chunks.
const BATCH_SIZES: [usize; 7] = [0, 1, 7, 8, 9, 64, 130];

/// Asserts that `idx` answers every query as the oracle does; `seed`
/// draws the probes, positions, windows and batch lanes.
pub fn conform(name: &str, idx: &dyn SeqIndex, o: &Oracle, seed: u64) {
    let n = o.seq.len();
    let mut next = xorshift(seed);
    let mut pick = |m: usize| (next() % m as u64) as usize;
    same!(idx.seq_len() => n, "{name}");
    same!(idx.seq_is_empty() => n == 0, "{name}");
    same!(idx.distinct_len() => o.occ.len(), "{name}");
    // The whole sequence as one batch: far cheaper than iterating it.
    same!(idx.access_batch(&(0..n).collect::<Vec<_>>()) => o.seq, "{name}");
    let h = n.min(64);
    same!(idx.iter_seq_boxed().take(h).collect::<Vec<_>>() => o.seq[..h], "{name}");
    same!(idx.iter_range_boxed(n - h, n).collect::<Vec<_>>() => o.seq[n - h..], "{name}");
    for i in (0..h / 2).map(|_| pick(n)) {
        same!(idx.access(i) => o.seq[i], "{name}");
    }

    // Scalar queries on stored strings, absent cousins of them, and
    // truncations that stop mid-path or mid-label.
    let keys: Vec<&BitString> = o.occ.keys().collect();
    let mut probes = vec![deep(300, 0), BitString::new()];
    for s in (0..keys.len().min(5)).map(|_| keys[pick(keys.len())]) {
        probes.push(s.clone());
        if let Some(last) = s.len().checked_sub(1) {
            let (mut flipped, mut longer) = (s.clone(), s.clone());
            flipped.truncate(last);
            flipped.push(!s.get(last));
            longer.push(true);
            probes.extend([flipped, longer, s.as_bitstr().prefix(last / 2).into()]);
        }
    }
    for p in &probes {
        let (s, at) = (p.as_bitstr(), format!("{name} at {p}"));
        let (occ, pre) = (o.positions(s), o.prefix_positions(s));
        same!(idx.admits(s) => admits(o.occ.keys(), s), "{at}");
        same!(idx.count(s) => occ.len(), "{at}");
        same!(idx.count_prefix(s) => pre.len(), "{at}");
        for pos in [0, pick(n + 1), n] {
            same!(idx.rank(s, pos) => rank_in(occ, pos), "{at}, {pos}");
            same!(idx.rank_prefix(s, pos) => rank_in(&pre, pos), "{at}, {pos}");
        }
        let l = pick(n + 1);
        let r = l + pick(n - l + 1);
        let within = |ps: &[usize]| rank_in(ps, r) - rank_in(ps, l);
        same!(idx.range_count(s, l, r) => within(occ), "{at}, [{l}, {r})");
        same!(idx.range_count_prefix(s, l, r) => within(&pre), "{at}, [{l}, {r})");
        let c = occ.len();
        for k in [0, pick(c + 1), c.saturating_sub(1), c, c + 3] {
            same!(idx.select(s, k) => occ.get(k).copied(), "{at}, {k}");
        }
        let c = pre.len();
        for k in [pick(c + 1), c.saturating_sub(1), c] {
            same!(idx.select_prefix(s, k) => pre.get(k).copied(), "{at}, {k}");
        }
        let cut = s.prefix(pick(p.len() + 1));
        let pre = o.prefix_positions(cut);
        let k = pick(pre.len() + 1);
        same!(idx.count_prefix(cut) => pre.len(), "{name} at {cut}");
        same!(idx.select_prefix(cut, k) => pre.get(k).copied(), "{name} at {cut}, {k}");
    }

    // §5 range analytics over the whole sequence, an empty window and a
    // random one.
    let deepest = keys.iter().map(|k| k.len()).max().unwrap_or(0);
    let l = pick(n + 1);
    for (l, r) in [(0, n), (n / 2, n / 2), (l, l + pick(n - l + 1))] {
        let at = format!("{name} in [{l}, {r})");
        let distinct = o.tally(l, r, BitString::clone);
        same!(idx.distinct_in_range(l, r) => distinct, "{at}");
        let p = &probes[pick(probes.len())];
        let p = p.as_bitstr().prefix(pick(p.len() + 1));
        let want = keep(&distinct, |s, _| s.as_bitstr().starts_with(&p));
        same!(idx.distinct_in_range_with_prefix(p, l, r) => want, "{at}, {p}");
        let d = pick(deepest + 2);
        let want = o.tally(l, r, |s| s.as_bitstr().prefix(d.min(s.len())).into());
        same!(idx.distinct_prefixes_in_range(l, r, d) => want, "{at}, {d}");
        let majority = keep(&distinct, |_, c| 2 * c > r - l).pop();
        same!(idx.range_majority(l, r) => majority, "{at}");
        // One threshold is a count that occurs, so `>=` and `>` differ.
        let exact = distinct.get(pick(distinct.len().max(1))).map_or(1, |e| e.1);
        for t in [0, exact, r - l + 1] {
            same!(idx.range_frequent(l, r, t) => keep(&distinct, |_, c| c >= t), "{at}, {t}");
        }
        let head = idx.iter_range_boxed(l, r).take(64).collect::<Vec<_>>();
        same!(head => o.seq[l..r.min(l + 64)], "{at}");
    }

    // Batches of random lanes at every size, then 130 lanes asking one
    // query. The oracle answers, so a kernel cannot vouch for itself
    // through its own scalar path.
    for (bs, width) in BATCH_SIZES.map(|bs| (bs, bs)).into_iter().chain([(130, 1)]) {
        let at = format!("{name}, batch of {bs} ({width} distinct)");
        let mut lane = || probes[pick(probes.len())].as_bitstr();
        let lanes: Vec<BitStr<'_>> = (0..width).map(|_| lane()).collect();
        if n > 0 {
            let pos = widen((0..width).map(|_| pick(n)), bs);
            let want: Vec<BitString> = pos.iter().map(|&i| o.seq[i].clone()).collect();
            same!(idx.access_batch(&pos) => want, "{at}");
        }
        let q = widen(lanes.iter().map(|&s| (s, pick(n + 1))), bs);
        let want: Vec<usize> = q.iter().map(|&(s, pos)| o.rank(s, pos)).collect();
        same!(idx.rank_batch(&q) => want, "{at}");
        // Up to one past the last occurrence, so some lanes miss.
        let q = widen(lanes.iter().map(|&s| (s, pick(o.rank(s, n) + 2))), bs);
        let want: Vec<Option<usize>> = q.iter().map(|&(s, k)| o.select(s, k)).collect();
        same!(idx.select_batch(&q) => want, "{at}");
        let q = widen(lanes.iter().map(|s| s.prefix(pick(s.len() + 1))), bs);
        let want: Vec<usize> = q.iter().map(|&p| o.count_prefix(p)).collect();
        same!(idx.count_prefix_batch(&q) => want, "{at}");
    }

    // Rank at `pos = n` is a count. Every probe twice over, first with
    // every lane at `n`, then with every other lane there; the truncated
    // probes have a count of 0 but a nonzero prefix count.
    let bs = (2 * probes.len()).max(16);
    for every in [1, 2] {
        let at = format!("{name}, rank batch of {bs}, one lane in {every} at n");
        let lanes = widen(probes.iter().map(BitString::as_bitstr), bs).into_iter();
        let q: Vec<_> = (lanes.enumerate())
            .map(|(k, s)| (s, if k % every == 0 { n } else { pick(n + 1) }))
            .collect();
        let want: Vec<usize> = q.iter().map(|&(s, pos)| o.rank(s, pos)).collect();
        same!(idx.rank_batch(&q) => want, "{at}");
    }
}

/// Asserts that a trie over the whole sequence has the height, bitvector
/// bits and average height `h̃` (Definition 3.4) of the Patricia trie over
/// the distinct strings.
pub fn check_shape(name: &str, idx: &dyn SeqIndex, o: &Oracle) {
    let (height, bits) = o.shape();
    same!(idx.height() => height, "{name}");
    same!(idx.total_bitvector_bits() => bits, "{name}");
    let avg = bits as f64 / o.seq.len().max(1) as f64;
    assert!((idx.avg_height() - avg).abs() < 1e-9, "{name}: avg_height");
}

/// A store fed `seq` by appends under the given seal policy.
pub fn store(seq: &[BitString], seal_at: usize, max_sealed: usize) -> TieredStore {
    let mut st = TieredStore::with_config(StoreConfig {
        seal_at,
        max_sealed,
    });
    for s in seq {
        st.append(s.as_bitstr()).unwrap();
    }
    st
}

/// Conforms every backend state over `seq` to one oracle: the static trie
/// built, reloaded and frozen, the append-only and dynamic tries (each
/// shape-checked too), the tiered store under two seal policies, with a
/// melted middle, with an edited hot tail and after a compaction, and a
/// published snapshot. Every trie and store state is invariant-checked.
pub fn conform_all(label: &str, seq: &[BitString], seed: u64) {
    let (o, n) = (Oracle::new(seq.to_vec()), seq.len());
    let built = WaveletTrie::build(seq).expect("prefix-free");
    let reloaded = WaveletTrie::load_bytes(&built.save_bytes()).expect("round trip");
    let (mut app, mut dynamic) = (AppendWaveletTrie::new(), DynamicWaveletTrie::new());
    // Built back to front by inserts at the head, with a decoy sibling
    // inserted and deleted every eighth string: node splits and merges.
    let mut edited = DynamicWaveletTrie::new();
    for (i, s) in seq.iter().enumerate() {
        app.append(s.as_bitstr()).unwrap();
        dynamic.append(s.as_bitstr()).unwrap();
        let s = &seq[n - 1 - i];
        edited.insert(s.as_bitstr(), 0).unwrap();
        if let Some(last) = s.len().checked_sub(1).filter(|_| i % 8 == 0) {
            let mut decoy = s.clone();
            decoy.truncate(last);
            decoy.push(!s.get(last));
            if edited.insert(decoy.as_bitstr(), i / 2).is_ok() {
                same!(edited.delete(i / 2) => decoy, "{label}: decoy");
            }
        }
    }
    let frozen = dynamic.freeze();
    for wt in [&built, &reloaded, &frozen] {
        wt.check_invariants().expect("static trie invariants");
    }
    same!(app.check_invariants() => Ok(()), "{label}: append");
    for (name, wt) in [("dynamic", &dynamic), ("edited", &edited)] {
        same!(wt.check_invariants() => Ok(()), "{label}: {name}");
    }
    let tries: [&dyn SeqIndex; 6] = [&built, &reloaded, &frozen, &app, &dynamic, &edited];
    let names = [
        "static", "reloaded", "frozen", "append", "dynamic", "edited",
    ];
    // Each state draws its own probes, windows and lanes.
    let mut seeds = xorshift(seed);
    for (name, idx) in names.into_iter().zip(tries) {
        conform(&format!("{label}/{name}"), idx, &o, seeds());
        check_shape(&format!("{label}/{name}"), idx, &o);
    }
    // Fifths compact to three sealed segments as they fill; thirds never
    // compact. Both leave a non-empty hot tail.
    let (fifths, thirds) = (store(seq, n / 5 + 1, 3), store(seq, n / 3 + 1, 64));
    // An insert and a delete that cancel out leave the middle melted.
    let mut melted = thirds.clone();
    if n > 0 {
        melted.insert(seq[n / 2].as_bitstr(), n / 2).unwrap();
        same!(melted.delete(n / 2) => seq[n / 2], "{label}");
    }
    // An insert and a delete inside the hot tail turn it dynamic.
    let mut tail_edited = thirds.clone();
    if n > 0 {
        tail_edited.insert(seq[n - 1].as_bitstr(), n - 1).unwrap();
        same!(tail_edited.delete(n - 1) => seq[n - 1], "{label}");
    }
    // Sealing the tail makes four sealed segments; compaction merges two.
    let mut compacted = fifths.clone();
    compacted.seal();
    compacted.compact();
    // A snapshot answers at its publish point while the writer moves on.
    let mut writer = melted.clone();
    let snapshot = writer.publish();
    if n > 0 {
        writer.append(seq[0].as_bitstr()).unwrap();
        writer.delete(0);
    }
    let stores = [
        ("fifths", &fifths),
        ("thirds", &thirds),
        ("melted", &melted),
        ("compacted", &compacted),
    ];
    for (name, st) in stores {
        conform(&format!("{label}/store/{name}"), st, &o, seeds());
    }
    conform(&format!("{label}/store/snapshot"), &snapshot, &o, seeds());
    conform(
        &format!("{label}/store/tail_edited"),
        &tail_edited,
        &o,
        seeds(),
    );
    let edited = [("tail_edited", &tail_edited), ("writer", &writer)];
    for (name, st) in stores.into_iter().chain(edited) {
        same!(st.check_invariants() => Ok(()), "{label}/store/{name}");
    }
}

/// A structure [`check_ops`] drives: the dynamic trie, or the tiered store
/// with seal, compact and publish on top. Both consume the same op stream
/// for a seed, so driven with one seed they hold the same sequence.
pub trait Edit: SeqIndex + Clone {
    fn put(&mut self, s: BitStr<'_>, pos: usize) -> bool;
    fn take(&mut self, pos: usize) -> BitString;
    /// The structure's own invariant check, run after every op.
    fn check(&self) -> Result<(), String>;
    fn store(&mut self) -> Option<&mut TieredStore> {
        None
    }
    /// Checks that run once the ops are done.
    fn finish(&self, _at: &str, _o: &Oracle, _seed: u64) {}
}

impl Edit for DynamicWaveletTrie {
    fn put(&mut self, s: BitStr<'_>, pos: usize) -> bool {
        self.insert(s, pos).is_ok()
    }
    fn take(&mut self, pos: usize) -> BitString {
        self.delete(pos)
    }
    fn check(&self) -> Result<(), String> {
        self.check_invariants().map_err(str::to_string)
    }
    fn finish(&self, at: &str, o: &Oracle, seed: u64) {
        let frozen = self.freeze();
        frozen.check_invariants().expect("frozen trie invariants");
        conform(&format!("{at}, frozen"), &frozen, o, seed);
        check_shape(at, self, o);
        check_shape(&format!("{at}, frozen"), &frozen, o);
    }
}

impl Edit for TieredStore {
    fn put(&mut self, s: BitStr<'_>, pos: usize) -> bool {
        self.insert(s, pos).is_ok()
    }
    fn take(&mut self, pos: usize) -> BitString {
        self.delete(pos)
    }
    fn check(&self) -> Result<(), String> {
        self.check_invariants()
    }
    fn store(&mut self) -> Option<&mut TieredStore> {
        Some(self)
    }
}

/// Drives a copy of `empty` through `n_ops` ops on strings from `pool`,
/// checking its invariants after every op and conforming it every `every`
/// ops and at the end. On a failure, bisects to the shortest failing op
/// prefix and panics with the seed and its length. The op stream depends
/// only on the seed, so passing that length as `n_ops` replays exactly the
/// failing prefix.
pub fn check_ops<T: Edit>(empty: T, pool: &[BitString], seed: u64, n_ops: usize, every: usize) {
    let run = |k| replay(empty.clone(), pool, seed, k, every);
    let fails = |k| catch_unwind(AssertUnwindSafe(|| run(k))).is_err();
    if !fails(n_ops) {
        return;
    }
    let (mut good, mut bad) = (0, n_ops);
    while bad - good > 1 {
        let mid = (good + bad) / 2;
        (good, bad) = if fails(mid) { (good, mid) } else { (mid, bad) };
    }
    let name = std::any::type_name::<T>();
    panic!("{name} seed {seed:#x}: fails from op {bad} of {n_ops}; rerun with n_ops {bad}");
}

fn replay<T: Edit>(mut t: T, pool: &[BitString], seed: u64, n_ops: usize, every: usize) {
    let mut next = xorshift(seed);
    let mut seq: Vec<BitString> = Vec::new();
    let mut published: Option<(StoreSnapshot, Oracle)> = None;
    for step in 0..n_ops {
        let (r, a, b) = (next() % 100, next(), next());
        let (n, pos) = (seq.len(), (b >> 8) as usize);
        let at = format!("seed {seed:#x}, op {step}");
        // One string in twenty is a pool string one bit longer or shorter:
        // a prefix-free violation unless its relatives are absent.
        let mut s = pool[(a % pool.len() as u64) as usize].clone();
        match b % 40 {
            0 => s.push(true),
            1 => s.truncate(s.len().saturating_sub(1)),
            _ => {}
        }
        if r < 65 {
            // Appends below 40, inserts anywhere up to 64.
            let pos = if r < 40 { n } else { pos % (n + 1) };
            let ok = admits(&seq, s.as_bitstr());
            same!(t.put(s.as_bitstr(), pos) => ok, "{at}, insert {s} at {pos}");
            if ok {
                seq.insert(pos, s);
            }
        } else if r < 85 {
            if n > 0 {
                same!(t.take(pos % n) => seq.remove(pos % n), "{at}");
            }
        } else if let Some(st) = t.store() {
            match r {
                85..=91 => st.seal(),
                92..=96 => {
                    st.compact();
                    let bound = st.config().max_sealed;
                    assert!(st.sealed_segments() <= bound, "{at}: compaction");
                }
                _ => published = Some((st.publish(), Oracle::new(seq.clone()))),
            }
        }
        same!(t.check() => Ok(()), "{at}");
        if (step + 1) % every == 0 {
            conform(&at, &t, &Oracle::new(seq.clone()), seed ^ step as u64);
        }
    }
    let at = format!("seed {seed:#x}, after {n_ops} ops");
    let o = Oracle::new(seq);
    conform(&at, &t, &o, seed);
    t.finish(&at, &o, seed);
    if let Some((snapshot, then)) = &published {
        conform(&format!("{at}, last snapshot"), snapshot, then, seed);
    }
}
