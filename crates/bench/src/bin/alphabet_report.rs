//! E9: the **dynamic alphabet** comparison — the paper's core motivation
//! (§1 issue (a)): what happens when previously-unseen strings keep
//! arriving?
//!
//! * Wavelet Trie (append-only): each unseen string is one O(|s| + h_s)
//!   split — no rebuild, ever.
//! * approach (1) (dictionary + integer Wavelet Tree): every unseen string
//!   changes the alphabet and forces a full rebuild.
//! * approach (3) (BTree index + plain copy): cheap updates but several
//!   times the space and no compressed Access.
//!
//! A second table times `RankPrefix` on the ingested Wavelet Trie against
//! the BTree's posting lists.

use std::hint::black_box;

use wavelet_trie::AppendLog;
use wt_baselines::{BTreeIndex, DictSequence};
use wt_bench::{bits_per, fmt_ns, median_ns_per_op, time_once_ms, Table};
use wt_bits::SpaceUsage;
use wt_workloads::{url_log, UrlLogConfig};

fn main() {
    println!("== E9: appending with a growing alphabet (§1 issue (a)) ==\n");
    let cfg = UrlLogConfig {
        hosts: 2000, // many hosts => unseen strings keep arriving
        ..UrlLogConfig::default()
    };
    let t = Table::new(
        &["n", "structure", "ingest", "unseen", "rebuilds", "b/str"],
        &[8, 16, 10, 8, 9, 8],
    );
    for &n in &[2_000usize, 8_000, 32_000] {
        let data = url_log(n, cfg, 9);
        let distinct = {
            let mut d: Vec<&String> = data.iter().collect();
            d.sort();
            d.dedup();
            d.len()
        };

        let (log, wt_ms) = time_once_ms(|| {
            let mut log = AppendLog::new();
            for s in &data {
                log.append(s);
            }
            log
        });
        t.row(&[
            &n.to_string(),
            "wavelet trie",
            &format!("{wt_ms:.0}ms"),
            &distinct.to_string(),
            "0",
            &bits_per(log.size_bits(), n),
        ]);

        if n <= 8_000 {
            let (dict, dict_ms) = time_once_ms(|| {
                let mut d = DictSequence::new();
                for s in &data {
                    d.push(s);
                }
                d
            });
            t.row(&[
                &n.to_string(),
                "dict + int WT",
                &format!("{dict_ms:.0}ms"),
                &distinct.to_string(),
                &dict.rebuilds().to_string(),
                &bits_per(dict.size_bits(), n),
            ]);
        } else {
            t.row(&[
                &n.to_string(),
                "dict + int WT",
                "(skipped)",
                &distinct.to_string(),
                &distinct.to_string(),
                "-",
            ]);
        }

        let (btree, bt_ms) = time_once_ms(|| {
            let mut b = BTreeIndex::new();
            for s in &data {
                b.push(s);
            }
            b
        });
        t.row(&[
            &n.to_string(),
            "BTree + copy",
            &format!("{bt_ms:.0}ms"),
            &distinct.to_string(),
            "0",
            &bits_per(btree.size_bits(), n),
        ]);
    }
    println!(
        "\nexpected: wavelet-trie ingest scales ~linearly; dict+WT ingest blows up\n\
         with one full rebuild per unseen string (quadratic-ish); the BTree is\n\
         fast but pays several × the space and has no compressed Access/Rank."
    );
    rank_prefix_costs(cfg);
}

/// `RankPrefix("http://host1", i)` at stride-7919 positions: one trie
/// descent against a sum over every matching key's posting list.
fn rank_prefix_costs(cfg: UrlLogConfig) {
    println!("\nRankPrefix(\"http://host1\", i) on the ingested structure:");
    let t = Table::new(&["n", "structure", "ns/op"], &[8, 16, 9]);
    for &n in &[4_000usize, 32_000] {
        let data = url_log(n, cfg, 9);
        let mut log = AppendLog::new();
        let mut btree = BTreeIndex::new();
        for s in &data {
            log.append(s);
            btree.push(s);
        }
        let mut i = 0usize;
        let mut next = move || {
            i = (i + 7919) % n;
            i
        };
        let ns = median_ns_per_op(2_000, 5, || {
            black_box(log.rank_prefix("http://host1", next()));
        });
        t.row(&[&n.to_string(), "wavelet trie", &fmt_ns(ns)]);
        let ns = median_ns_per_op(2_000, 5, || {
            black_box(btree.rank_prefix("http://host1", next()));
        });
        t.row(&[&n.to_string(), "BTree + copy", &fmt_ns(ns)]);
    }
}
