//! Cross-variant equivalence on realistic workloads: the byte-level
//! facades of the static, append-only, dynamic and tiered structures each
//! wrap an index that must answer like the naive oracle over the same
//! `NinthBitCoder` encoding, and decode back to the input strings.

mod support;

use support::{check_ops, conform, encode_all, Oracle};
use wavelet_trie::{AppendLog, DynamicStrings, DynamicWaveletTrie, IndexedStrings, SeqIndex};
use wt_store::TieredStrings;
use wt_workloads::{url_log, word_text, UrlLogConfig};

/// Conforms the index inside each facade, and spot-checks one decode.
fn check_facades(data: &[String], seed: u64) {
    let (o, i) = (Oracle::new(encode_all(data)), data.len() / 2);
    let stat = IndexedStrings::build(data);
    let app: AppendLog = data.iter().collect();
    let dy: DynamicStrings = data.iter().collect();
    let tiered: TieredStrings = data.iter().collect();
    let facades: [(&str, &dyn SeqIndex, String); 4] = [
        ("IndexedStrings", stat.inner(), stat.get_string(i)),
        ("AppendLog", app.inner(), app.get_string(i)),
        ("DynamicStrings", dy.inner(), dy.get_string(i)),
        ("TieredStrings", tiered.inner(), tiered.get_string(i)),
    ];
    for (name, idx, decoded) in facades {
        conform(name, idx, &o, seed);
        assert_eq!(decoded, data[i], "{name}: get_string({i})");
    }
}

#[test]
fn url_log_equivalence() {
    check_facades(&url_log(3000, UrlLogConfig::default(), 0xC0FFEE), 0xC0FFEE);
}

#[test]
fn word_text_equivalence() {
    check_facades(&word_text(4000, 300, 0xBEEF), 0xBEEF);
}

#[test]
fn tiny_sequences_equivalence() {
    let tiny = ["a", "a,a", "a,b", "x,xy,xyz,x,w,xy"];
    for data in tiny.map(|d| d.split(',').map(String::from).collect::<Vec<_>>()) {
        check_facades(&data, 0x7111);
    }
}

#[test]
fn dynamic_matches_naive_under_mixed_ops() {
    let pool = encode_all(&word_text(200, 50, 5));
    check_ops(DynamicWaveletTrie::new(), &pool, 99, 1500, 250);
}
