//! Software-pipelined batched queries for the static Wavelet Trie.
//!
//! A scalar static descent (§3, Lemmas 3.2/3.3) is a chain of *dependent*
//! cache misses and branchy directory probes: internal flag → label
//! delimiter → labels → bitvector delimiters → RRR superblock → classes →
//! offsets, repeated per level. Independent queries have no such
//! dependence on each other, so the group descent here advances all lanes
//! level-by-level in lockstep, issuing the prefetches for every lane's
//! directory words before any lane resolves — N sequential miss chains of
//! depth `h` become ~`h` rounds of overlapped misses, so a batch runs at
//! memory bandwidth instead of memory latency.
//!
//! On top of the pipelining, lanes are kept in **node-group order**: a
//! group is a run of lanes currently sitting in the same trie node, and a
//! group's children are emitted as two consecutive runs, so grouping is
//! preserved level to level with no sorting. All node metadata (label
//! delimiters, internal index, bitvector segment bounds) is resolved
//! **once per group**, not once per lane — real traffic is Zipf-skewed,
//! so batches share the hot top of the trie and often whole hot paths,
//! and identical query strings collapse into a single descent.
//!
//! Every function here is **bit-identical** to its scalar counterpart in
//! [`crate::nav`]; `tests/batch_model.rs` pins that across backends.

use crate::nav::TrieNav;
use crate::static_wt::WaveletTrie;
use wt_bits::{BitRank, BitSelect};
use wt_trie::{BitStr, BitString};

/// Sentinel for "no parent" in the descent-link arena.
const NO_LINK: u32 = u32::MAX;

/// Below this many lanes the grouped pipeline's bookkeeping outweighs the
/// overlap it buys; such batches take the scalar loop instead.
const MIN_BATCH: usize = 8;

/// Per-level group scratch: parallel arrays indexed by group.
#[derive(Default)]
struct GroupMeta {
    lab: Vec<(u64, u64)>,
    j: Vec<usize>,
    /// `(segment start, ones before)` per group.
    seg: Vec<(usize, usize)>,
    svals: Vec<u64>,
    ovals: Vec<u64>,
}

impl GroupMeta {
    /// Stages A: per-group node metadata with a prefetch round before
    /// every resolve round. `need_seg` additionally resolves the bitvector
    /// segment bounds/ones (two pipelined EF rounds).
    fn resolve(&mut self, wt: &WaveletTrie, nodes: &[usize], need_seg: bool) {
        let g = nodes.len();
        for &p in nodes {
            wt.internal.prefetch(p);
        }
        self.lab.clear();
        self.lab.resize(g, (0, 0));
        wt.label_bounds.get_pair_batch(nodes, &mut self.lab);
        for &(ls, _) in &self.lab {
            wt.labels.prefetch(ls as usize);
        }
        self.j.clear();
        self.j.extend(nodes.iter().map(|&p| wt.internal.rank1(p)));
        if need_seg {
            self.resolve_seg(wt);
        }
    }

    /// Slim variant of [`GroupMeta::resolve`] for passes that only need
    /// each group's internal index `j` (no labels): the leaf-to-root
    /// mapping of `select_batch`.
    fn resolve_rank_only(&mut self, wt: &WaveletTrie, nodes: &[usize]) {
        for &p in nodes {
            wt.internal.prefetch(p);
        }
        self.j.clear();
        self.j.extend(nodes.iter().map(|&p| wt.bv_index(p)));
    }

    /// Batched `(segment start, ones before)` for the internal indexes in
    /// `self.j`.
    fn resolve_seg(&mut self, wt: &WaveletTrie) {
        let g = self.j.len();
        self.svals.clear();
        self.svals.resize(g, 0);
        wt.bv_bounds.get_batch(&self.j, &mut self.svals);
        self.ovals.clear();
        self.ovals.resize(g, 0);
        wt.bv_ones.get_batch(&self.j, &mut self.ovals);
        self.seg.clear();
        self.seg.extend(
            self.svals
                .iter()
                .zip(&self.ovals)
                .map(|(&s, &o)| (s as usize, o as usize)),
        );
    }

    /// The group's label as a borrowed view.
    fn label<'a>(&self, wt: &'a WaveletTrie, gi: usize) -> BitStr<'a> {
        let (ls, le) = self.lab[gi];
        BitStr::new(&wt.labels, ls as usize, (le - ls) as usize)
    }
}

/// Batched `Access` (Lemma 3.2) — see the module docs for the pipeline.
pub(crate) fn access_batch(wt: &WaveletTrie, positions: &[usize]) -> Vec<BitString> {
    if positions.len() < MIN_BATCH {
        return positions
            .iter()
            .map(|&p| crate::nav::access(wt, p))
            .collect();
    }
    for &p in positions {
        assert!(p < wt.n, "Access position out of bounds");
    }
    let m0 = positions.len();
    let mut out: Vec<BitString> = std::iter::repeat_with(BitString::new).take(m0).collect();
    if m0 == 0 {
        return out;
    }
    let root = wt.nav_root().expect("nonempty");
    // Lanes in group order (all start in the root group).
    let mut lane: Vec<u32> = (0..m0 as u32).collect();
    let mut pos: Vec<usize> = positions.to_vec();
    let mut groups: Vec<(usize, u32)> = vec![(root, m0 as u32)]; // (node, run len)
    let mut meta = GroupMeta::default();
    // Surviving-lane scratch (internal-node lanes of the current level).
    let mut s_lane: Vec<u32> = Vec::with_capacity(m0);
    let mut s_gi: Vec<u32> = Vec::with_capacity(m0);
    let mut gidx: Vec<usize> = Vec::with_capacity(m0);
    let mut gr: Vec<(bool, usize)> = Vec::with_capacity(m0);
    let mut groups2: Vec<(usize, u32)> = Vec::new();
    while !groups.is_empty() {
        // Stage A: metadata once per group.
        let nodes: Vec<usize> = groups.iter().map(|&(v, _)| v).collect();
        meta.resolve(wt, &nodes, true);
        // Stage B: per lane — emit the group label; leaves finish here.
        s_lane.clear();
        s_gi.clear();
        gidx.clear();
        let mut cur = 0usize;
        for (gi, &(v, len)) in groups.iter().enumerate() {
            let label = meta.label(wt, gi);
            let leaf = wt.nav_is_leaf(v);
            let (s, _) = meta.seg[gi];
            for k in cur..cur + len as usize {
                out[lane[k] as usize].push_str(label);
                if !leaf {
                    s_lane.push(lane[k]);
                    s_gi.push(gi as u32);
                    gidx.push(s + pos[k]);
                }
            }
            cur += len as usize;
        }
        if s_lane.is_empty() {
            break;
        }
        // Stage C: fused get+rank across all surviving lanes (its own
        // three-phase pipeline inside the RRR).
        gr.clear();
        gr.resize(s_lane.len(), (false, 0));
        wt.bvs.get_rank1_batch(&gidx, &mut gr);
        // Stage D: resolve branch bits; each group partitions into its
        // child runs (child 0 first), keeping lanes in group order.
        groups2.clear();
        lane.clear();
        pos.clear();
        let mut a = 0usize;
        while a < s_gi.len() {
            let gi = s_gi[a] as usize;
            let mut b = a + 1;
            while b < s_gi.len() && s_gi[b] as usize == gi {
                b += 1;
            }
            let (v, _) = groups[gi];
            let (s, ones) = meta.seg[gi];
            let j = meta.j[gi];
            for want in [false, true] {
                let start = lane.len();
                for k in a..b {
                    let (bit, r1) = gr[k];
                    if bit == want {
                        out[s_lane[k] as usize].push(bit);
                        lane.push(s_lane[k]);
                        pos.push(if bit {
                            r1 - ones
                        } else {
                            (gidx[k] - r1) - (s - ones)
                        });
                    }
                }
                if lane.len() > start {
                    let child = wt.child_fast(v, j, want);
                    wt.internal.prefetch(child);
                    groups2.push((child, (lane.len() - start) as u32));
                }
            }
            a = b;
        }
        std::mem::swap(&mut groups, &mut groups2);
    }
    out
}

/// Result of a grouped descent: per-lane outcome plus the shared
/// (ancestor, branch-bit) trails, encoded as a link arena so lanes that
/// followed the same branches share one path.
struct Descent {
    /// Per lane: `(node, link)` when the descent found a match.
    found: Vec<Option<(usize, u32)>>,
    /// Link arena: `(parent link, ancestor node, branch bit)`.
    links: Vec<(u32, usize, bool)>,
}

impl Descent {
    /// Materializes the root-to-node trail behind `link`.
    fn path_of(&self, mut link: u32, out: &mut Vec<(usize, bool)>) {
        out.clear();
        while link != NO_LINK {
            let (p, v, b) = self.links[link as usize];
            out.push((v, b));
            link = p;
        }
        out.reverse();
    }
}

/// Shared grouped descent: consumes each lane's query string level by
/// level. With `prefix` false this is the exact-membership descent (the
/// string must be consumed exactly at a leaf); with `prefix` true the
/// descent stops successfully as soon as the query is exhausted
/// (Lemma 3.3). Lanes with equal query strings follow identical branches
/// and therefore stay in the same group for the whole descent — the
/// degenerate "all lanes ask the same thing" batch costs one descent.
fn descend_batch(wt: &WaveletTrie, queries: &[BitStr<'_>], prefix: bool) -> Descent {
    let m0 = queries.len();
    let mut desc = Descent {
        found: (0..m0).map(|_| None).collect(),
        links: Vec::new(),
    };
    if m0 == 0 {
        return desc;
    }
    let Some(root) = wt.nav_root() else {
        return desc;
    };
    let mut lane: Vec<u32> = (0..m0 as u32).collect();
    // (node, run len, delta, link): delta is the consumed-bit count, a
    // function of the node; link identifies the shared trail so far.
    let mut groups: Vec<(usize, u32, usize, u32)> = vec![(root, m0 as u32, 0, NO_LINK)];
    let mut groups2: Vec<(usize, u32, usize, u32)> = Vec::new();
    let mut lane2: Vec<u32> = Vec::with_capacity(m0);
    let mut meta = GroupMeta::default();
    let mut branch: Vec<u8> = Vec::with_capacity(m0); // 0, 1, 2 = lane done
    while !groups.is_empty() {
        let nodes: Vec<usize> = groups.iter().map(|&(v, ..)| v).collect();
        meta.resolve(wt, &nodes, false);
        groups2.clear();
        lane2.clear();
        let mut cur = 0usize;
        for (gi, &(v, len, delta, link)) in groups.iter().enumerate() {
            let label = meta.label(wt, gi);
            let leaf = wt.nav_is_leaf(v);
            let run = cur..cur + len as usize;
            cur = run.end;
            // Per lane: lcp against the group label decides the outcome.
            branch.clear();
            for k in run.clone() {
                let l_id = lane[k] as usize;
                let s = queries[l_id];
                let rest = s.suffix(delta);
                let lcp = label.lcp(&rest);
                if prefix && delta + lcp == s.len() {
                    // Prefix exhausted (possibly mid-label): subtree match.
                    desc.found[l_id] = Some((v, link));
                    branch.push(2);
                    continue;
                }
                if lcp < label.len() {
                    branch.push(2); // mismatch inside the label: absent
                    continue;
                }
                let d = delta + lcp;
                if leaf {
                    if !prefix && d == s.len() {
                        desc.found[l_id] = Some((v, link));
                    }
                    branch.push(2);
                    continue;
                }
                if d == s.len() {
                    branch.push(2); // proper prefix of everything below
                    continue;
                }
                branch.push(s.get(d) as u8);
            }
            if leaf {
                continue;
            }
            let child_delta = delta + label.len() + 1;
            for want in [0u8, 1u8] {
                let start = lane2.len();
                for (k, &b) in run.clone().zip(&branch) {
                    if b == want {
                        lane2.push(lane[k]);
                    }
                }
                if lane2.len() > start {
                    let bit = want == 1;
                    let child = wt.child_fast(v, meta.j[gi], bit);
                    wt.internal.prefetch(child);
                    desc.links.push((link, v, bit));
                    groups2.push((
                        child,
                        (lane2.len() - start) as u32,
                        child_delta,
                        (desc.links.len() - 1) as u32,
                    ));
                }
            }
        }
        std::mem::swap(&mut groups, &mut groups2);
        std::mem::swap(&mut lane, &mut lane2);
    }
    desc
}

/// The distinct `(node, link)` outcomes of a descent, with the lanes that
/// reached each — the unit the downstream passes (map-down, subtree
/// count, map-up) operate on, so identical queries pay once.
struct FoundGroups {
    /// `(node, link)` per distinct outcome.
    key: Vec<(usize, u32)>,
    /// Materialized path per outcome.
    paths: Vec<Vec<(usize, bool)>>,
    /// Lanes per outcome.
    lanes: Vec<Vec<u32>>,
}

fn found_groups(desc: &Descent) -> FoundGroups {
    let mut fg = FoundGroups {
        key: Vec::new(),
        paths: Vec::new(),
        lanes: Vec::new(),
    };
    // Outcomes are keyed by link (distinct trails) + node; linear probe
    // over a small map keyed by link id.
    let mut by_link: std::collections::HashMap<(usize, u32), usize> =
        std::collections::HashMap::new();
    for (l, f) in desc.found.iter().enumerate() {
        let Some((node, link)) = *f else { continue };
        let idx = *by_link.entry((node, link)).or_insert_with(|| {
            fg.key.push((node, link));
            let mut p = Vec::new();
            desc.path_of(link, &mut p);
            fg.paths.push(p);
            fg.lanes.push(Vec::new());
            fg.key.len() - 1
        });
        fg.lanes[idx].push(l as u32);
    }
    fg
}

/// Batched `Rank(s, pos)` — a *fused* grouped walk: the scalar algorithm
/// descends first and then maps the position down the recorded path, two
/// passes over the same levels; here every lane's position is mapped in
/// the same round that consumes its query bits, so a batch pays one round
/// of (grouped metadata + batched bitvector ranks) per level instead of
/// two. Lanes that turn out absent report 0 (their partial mapping is
/// discarded), exactly like the scalar early-exit.
pub(crate) fn rank_batch(wt: &WaveletTrie, queries: &[(BitStr<'_>, usize)]) -> Vec<usize> {
    if queries.len() < MIN_BATCH {
        return queries
            .iter()
            .map(|&(s, pos)| crate::nav::rank(wt, s, pos))
            .collect();
    }
    for &(_, pos) in queries {
        assert!(pos <= wt.n, "Rank position out of bounds");
    }
    let m0 = queries.len();
    let mut res = vec![0usize; m0];
    let Some(root) = wt.nav_root() else {
        return res;
    };
    let mut lane: Vec<u32> = (0..m0 as u32).collect();
    let mut p: Vec<usize> = queries.iter().map(|&(_, pos)| pos).collect();
    // (node, run len, delta) in group order, as in `descend_batch`.
    let mut groups: Vec<(usize, u32, usize)> = vec![(root, m0 as u32, 0)];
    let mut groups2: Vec<(usize, u32, usize)> = Vec::new();
    let mut lane2: Vec<u32> = Vec::with_capacity(m0);
    let mut p2: Vec<usize> = Vec::with_capacity(m0);
    let mut meta = GroupMeta::default();
    let mut branch: Vec<u8> = Vec::with_capacity(m0); // 0, 1, 2 = lane done
    let mut gidx: Vec<usize> = Vec::with_capacity(m0);
    let mut r1s: Vec<usize> = Vec::with_capacity(m0);
    let mut nodes: Vec<usize> = Vec::new();
    while !groups.is_empty() {
        nodes.clear();
        nodes.extend(groups.iter().map(|&(v, ..)| v));
        meta.resolve(wt, &nodes, true);
        // Pass 1: consume this level's label per lane; survivors register
        // their bitvector target for the batched rank round.
        branch.clear();
        gidx.clear();
        let mut cur = 0usize;
        for (gi, &(v, len, delta)) in groups.iter().enumerate() {
            let label = meta.label(wt, gi);
            let leaf = wt.nav_is_leaf(v);
            let (s, _) = meta.seg[gi];
            for k in cur..cur + len as usize {
                let l_id = lane[k] as usize;
                let q = queries[l_id].0;
                let rest = q.suffix(delta);
                let lcp = label.lcp(&rest);
                if lcp < label.len() {
                    branch.push(2); // mismatch inside the label: absent (0)
                    continue;
                }
                let d = delta + lcp;
                if leaf {
                    if d == q.len() {
                        res[l_id] = p[k]; // found: fully mapped position
                    }
                    branch.push(2);
                    continue;
                }
                if d == q.len() {
                    branch.push(2); // proper prefix of everything below
                    continue;
                }
                branch.push(q.get(d) as u8);
                gidx.push(s + p[k]);
            }
            cur += len as usize;
        }
        if gidx.is_empty() {
            break;
        }
        // Batched rank over every surviving lane's target.
        r1s.clear();
        r1s.resize(gidx.len(), 0);
        wt.bvs.rank1_batch(&gidx, &mut r1s);
        // Pass 2: map positions down and split each group into child runs.
        groups2.clear();
        lane2.clear();
        p2.clear();
        let mut cur = 0usize;
        let mut at = 0usize; // cursor into gidx/r1s (survivors only)
        for (gi, &(v, len, delta)) in groups.iter().enumerate() {
            let run = cur..cur + len as usize;
            cur = run.end;
            if wt.nav_is_leaf(v) {
                continue; // no survivors registered targets here
            }
            let (s, ones) = meta.seg[gi];
            let child_delta = delta + (meta.lab[gi].1 - meta.lab[gi].0) as usize + 1;
            let run_at = at;
            for want in [0u8, 1u8] {
                let start = lane2.len();
                let mut a = run_at;
                for k in run.clone() {
                    let b = branch[k];
                    if b == 2 {
                        continue;
                    }
                    let (gx, r1) = (gidx[a], r1s[a]);
                    a += 1;
                    if b == want {
                        lane2.push(lane[k]);
                        p2.push(if b == 1 {
                            r1 - ones
                        } else {
                            (gx - r1) - (s - ones)
                        });
                    }
                }
                at = a;
                if lane2.len() > start {
                    let child = wt.child_fast(v, meta.j[gi], want == 1);
                    wt.internal.prefetch(child);
                    groups2.push((child, (lane2.len() - start) as u32, child_delta));
                }
            }
        }
        std::mem::swap(&mut groups, &mut groups2);
        std::mem::swap(&mut lane, &mut lane2);
        std::mem::swap(&mut p, &mut p2);
    }
    res
}

/// Number of sequence positions in each found group's subtree — the
/// batched [`crate::nav`] `subtree_count`, resolved from the delimiter
/// directories alone (no bitvector probes), once per distinct outcome.
fn subtree_counts(wt: &WaveletTrie, fg: &FoundGroups) -> Vec<usize> {
    fg.key
        .iter()
        .zip(&fg.paths)
        .map(|(&(node, _), path)| {
            if !wt.nav_is_leaf(node) {
                let j = wt.bv_index(node);
                let (s, e) = wt.bv_bounds.get_pair(j);
                (e - s) as usize
            } else {
                match path.last() {
                    Some(&(parent, b)) => {
                        // Count of `b` in the parent's bitvector, straight
                        // from the per-node ones directory.
                        let j = wt.bv_index(parent);
                        let (s, e) = wt.bv_bounds.get_pair(j);
                        let (o0, o1) = wt.bv_ones.get_pair(j);
                        let ones = (o1 - o0) as usize;
                        if b {
                            ones
                        } else {
                            (e - s) as usize - ones
                        }
                    }
                    None => wt.n, // root leaf: the whole sequence
                }
            }
        })
        .collect()
}

/// Batched `Select(s, idx)` — grouped descent, then lockstep upward
/// mapping (one select round per level, leaf-to-root).
pub(crate) fn select_batch(
    wt: &WaveletTrie,
    queries: &[(BitStr<'_>, usize)],
) -> Vec<Option<usize>> {
    if queries.len() < MIN_BATCH {
        return queries
            .iter()
            .map(|&(s, idx)| crate::nav::select(wt, s, idx))
            .collect();
    }
    let strings: Vec<BitStr<'_>> = queries.iter().map(|&(s, _)| s).collect();
    let desc = descend_batch(wt, &strings, false);
    let fg = found_groups(&desc);
    let counts = subtree_counts(wt, &fg);
    let mut res: Vec<Option<usize>> = vec![None; queries.len()];
    // Per-lane occurrence index, bound-checked against the group count.
    let mut iv: Vec<usize> = vec![0; queries.len()];
    let mut in_range: Vec<Vec<u32>> = Vec::with_capacity(fg.key.len());
    for (g, lanes) in fg.lanes.iter().enumerate() {
        let mut keep = Vec::new();
        for &l in lanes {
            let idx = queries[l as usize].1;
            if idx < counts[g] {
                iv[l as usize] = idx;
                keep.push(l);
            }
        }
        in_range.push(keep);
    }
    let mut act: Vec<u32> = (0..fg.key.len() as u32)
        .filter(|&g| !in_range[g as usize].is_empty())
        .collect();
    let mut meta = GroupMeta::default();
    let mut nodes: Vec<usize> = Vec::new();
    let mut ends: Vec<(u64, u64)> = Vec::new();
    let mut round = 0usize;
    while !act.is_empty() {
        act.retain(|&g| {
            let g = g as usize;
            if fg.paths[g].len() <= round {
                for &l in &in_range[g] {
                    res[l as usize] = Some(iv[l as usize]);
                }
                false
            } else {
                true
            }
        });
        if act.is_empty() {
            break;
        }
        // Entry `depth - 1 - round` of each group: leaf-to-root order.
        nodes.clear();
        nodes.extend(act.iter().map(|&g| {
            let path = &fg.paths[g as usize];
            path[path.len() - 1 - round].0
        }));
        // One bounds round (the pair gives both segment ends) plus one
        // ones round; the full `resolve` would also fetch label bounds
        // this pass never reads.
        meta.resolve_rank_only(wt, &nodes);
        ends.clear();
        ends.resize(nodes.len(), (0, 0));
        wt.bv_bounds.get_pair_batch(&meta.j, &mut ends);
        meta.ovals.clear();
        meta.ovals.resize(nodes.len(), 0);
        wt.bv_ones.get_batch(&meta.j, &mut meta.ovals);
        for (k, &g) in act.iter().enumerate() {
            let g = g as usize;
            let path = &fg.paths[g];
            let bit = path[path.len() - 1 - round].1;
            let (s, ones) = (ends[k].0 as usize, meta.ovals[k] as usize);
            let e = ends[k].1 as usize;
            let before = if bit { ones } else { s - ones };
            for &l in &in_range[g] {
                let l = l as usize;
                match wt.bvs.select(bit, before + iv[l]) {
                    Some(pp) if pp < e => iv[l] = pp - s,
                    _ => {
                        // Out of this node's segment: no such occurrence.
                        // Mark dead by removing from the group below.
                        iv[l] = usize::MAX;
                    }
                }
            }
        }
        // Drop dead lanes; drop groups with no lanes left.
        for &g in &act {
            in_range[g as usize].retain(|&l| iv[l as usize] != usize::MAX);
        }
        act.retain(|&g| !in_range[g as usize].is_empty());
        round += 1;
    }
    res
}

/// Batched `CountPrefix(p)` (Lemma 3.3): grouped prefix descent, then the
/// subtree sizes straight from the delimiter directories — identical
/// prefixes pay a single descent and a single count.
pub(crate) fn count_prefix_batch(wt: &WaveletTrie, prefixes: &[BitStr<'_>]) -> Vec<usize> {
    if prefixes.len() < MIN_BATCH {
        return prefixes
            .iter()
            .map(|&p| crate::nav::count_prefix(wt, p))
            .collect();
    }
    let desc = descend_batch(wt, prefixes, true);
    let fg = found_groups(&desc);
    let counts = subtree_counts(wt, &fg);
    let mut res = vec![0usize; prefixes.len()];
    for (g, lanes) in fg.lanes.iter().enumerate() {
        for &l in lanes {
            res[l as usize] = counts[g];
        }
    }
    res
}

#[cfg(test)]
mod tests {
    use crate::ops::SeqIndex;
    use crate::static_wt::WaveletTrie;
    use wt_trie::BitString;
    use wt_workloads::xorshift;

    /// Pipeline-level smoke check (the cross-backend equivalence suite
    /// lives in `tests/batch_model.rs`): every batched op must agree with
    /// its scalar counterpart on a sequence wide and deep enough to
    /// exercise group splits and multi-chunk batches.
    #[test]
    fn group_descent_matches_scalar() {
        let mut next = xorshift(0x5EED_CAFE);
        // Variable-depth strings: 12-bit prefix-free codes plus a few very
        // deep "skewed" strings sharing long prefixes.
        let encode = |v: u64| BitString::from_bits((0..12).rev().map(move |k| (v >> k) & 1 != 0));
        let mut seq: Vec<BitString> = (0..4000).map(|_| encode(next() % 150)).collect();
        for d in 0..40 {
            let mut deep = BitString::parse("111111111111");
            for i in 0..d {
                deep.push(i % 3 == 0);
            }
            deep.push(true);
            seq.push(deep);
        }
        let seq: Vec<BitString> = {
            // Drop prefix-violating deep strings by admitting one by one.
            let mut probe = crate::dyn_wt::DynamicWaveletTrie::new();
            seq.into_iter()
                .filter(|s| probe.append(s.as_bitstr()).is_ok())
                .collect()
        };
        let wt = WaveletTrie::build(&seq).unwrap();
        let n = wt.len();
        // Access over a 300-lane batch (crosses the 64-lane RRR chunks).
        let positions: Vec<usize> = (0..300).map(|_| (next() % n as u64) as usize).collect();
        let batched = wt.access_batch(&positions);
        for (k, &p) in positions.iter().enumerate() {
            assert_eq!(batched[k], wt.access(p), "access lane {k}");
        }
        // Rank / select / count_prefix over mixed present + absent queries
        // (with heavy duplication, so the grouped paths are exercised).
        let probes: Vec<BitString> = (0..200)
            .map(|k| {
                if k % 3 == 0 {
                    encode(next() % 200) // sometimes absent
                } else {
                    seq[(next() % seq.len() as u64) as usize].clone()
                }
            })
            .collect();
        let rank_q: Vec<_> = probes
            .iter()
            .map(|s| (s.as_bitstr(), (next() % (n as u64 + 1)) as usize))
            .collect();
        let got = wt.rank_batch(&rank_q);
        for (k, &(s, pos)) in rank_q.iter().enumerate() {
            assert_eq!(got[k], wt.rank(s, pos), "rank lane {k}");
        }
        let sel_q: Vec<_> = probes
            .iter()
            .map(|s| (s.as_bitstr(), (next() % 40) as usize))
            .collect();
        let got = wt.select_batch(&sel_q);
        for (k, &(s, idx)) in sel_q.iter().enumerate() {
            assert_eq!(got[k], wt.select(s, idx), "select lane {k}");
        }
        let prefixes: Vec<_> = probes
            .iter()
            .map(|s| s.as_bitstr().prefix((next() % 14) as usize % (s.len() + 1)))
            .collect();
        let got = wt.count_prefix_batch(&prefixes);
        for (k, &p) in prefixes.iter().enumerate() {
            assert_eq!(got[k], wt.count_prefix(p), "count_prefix lane {k}");
        }
    }
}
