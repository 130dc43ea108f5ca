//! E4: regenerates the **space column of Table 1** — measured bits of every
//! variant against the information-theoretic quantities of §3, on three
//! workloads, plus the uncompressed baselines the paper argues against.
//!
//! Paper's claims: static = LB + o(h̃n); append-only = LB + PT + o(h̃n);
//! fully dynamic = LB + PT + O(nH0); traditional indexes = "several times
//! the space of the sequence alone".

use wavelet_trie::{AppendWaveletTrie, DynamicWaveletTrie, SeqIndex, SequenceStats, WaveletTrie};
use wt_baselines::{BTreeIndex, DictSequence, NaiveSeq};
use wt_bench::{bits_per, encode_all, Table};
use wt_bits::SpaceUsage;
use wt_workloads::{small_alphabet_u64, url_log, word_text, UrlLogConfig};

fn report(name: &str, data: Vec<String>) {
    let n = data.len();
    let seq = encode_all(&data);
    let stats = SequenceStats::from_bitstrings(&seq).expect("prefix-free");
    let input_bits: usize = data.iter().map(|s| s.len() * 8).sum();

    let wt = WaveletTrie::build(&seq).expect("NinthBitCoder output is prefix-free");
    let sp = wt.space_breakdown();

    let mut app = AppendWaveletTrie::new();
    let mut dy = DynamicWaveletTrie::new();
    for s in &seq {
        app.append(s.as_bitstr())
            .expect("NinthBitCoder output is prefix-free");
        dy.append(s.as_bitstr())
            .expect("NinthBitCoder output is prefix-free");
    }
    let (apt, abv) = app.space_parts();
    let (dpt, dbv) = dy.space_parts();

    let naive = NaiveSeq::from_iter(data.iter());
    let btree = BTreeIndex::from_iter(data.iter());
    let dict = DictSequence::from_iter(data.iter());

    println!(
        "\n== {name}: n = {n}, |Sset| = {}, raw input = {} bits ({} b/str) ==",
        stats.distinct,
        input_bits,
        bits_per(input_bits, n)
    );
    println!(
        "   lower bounds: nH0 = {:.0}  LT = {:.0}  LB = {:.0} ({} b/str)   h̃n = {}",
        stats.nh0_bits,
        stats.lt_bits,
        stats.lb_bits,
        bits_per(stats.lb_bits as usize, n),
        wt.total_bitvector_bits(),
    );
    let t = Table::new(
        &["structure", "bits", "b/str", "x LB", "note"],
        &[16, 12, 8, 7, 34],
    );
    let xlb = |bits: usize| format!("{:.2}", bits as f64 / stats.lb_bits.max(1.0));
    t.row(&[
        "static WT",
        &sp.total_bits.to_string(),
        &bits_per(sp.total_bits, n),
        &xlb(sp.total_bits),
        "LB + o(h̃n)  (Thm 3.7)",
    ]);
    t.row(&[
        "append-only WT",
        &(apt + abv).to_string(),
        &bits_per(apt + abv, n),
        &xlb(apt + abv),
        &format!("PT={apt} BV={abv}  (Thm 4.3)"),
    ]);
    t.row(&[
        "dynamic WT",
        &(dpt + dbv).to_string(),
        &bits_per(dpt + dbv, n),
        &xlb(dpt + dbv),
        &format!("PT={dpt} BV={dbv}  (Thm 4.4)"),
    ]);
    t.row(&[
        "Vec<String>",
        &naive.size_bits().to_string(),
        &bits_per(naive.size_bits(), n),
        &xlb(naive.size_bits()),
        "no index at all",
    ]);
    t.row(&[
        "BTree index",
        &btree.size_bits().to_string(),
        &bits_per(btree.size_bits(), n),
        &xlb(btree.size_bits()),
        "approach (3): two copies",
    ]);
    t.row(&[
        "dict + int WT",
        &dict.size_bits().to_string(),
        &bits_per(dict.size_bits(), n),
        &xlb(dict.size_bits()),
        "approach (1): no prefix ops",
    ]);
    // Static breakdown (Theorem 3.7 components).
    println!(
        "   static breakdown: labels={} (+delim {}) bitvectors={} (+delim {}) flags={}",
        sp.label_bits, sp.label_delim_bits, sp.bv_bits, sp.bv_delim_bits, sp.flags_bits
    );
}

fn main() {
    println!("== Table 1 (space): measured bits vs LB = LT(Sset) + nH0(S) ==");
    report(
        "URL access log",
        url_log(50_000, UrlLogConfig::default(), 3),
    );
    report("word text", word_text(50_000, 400, 4));
    report(
        "u64 column (50 values in 2^64)",
        small_alphabet_u64(50_000, 50, 64, 5)
            .into_iter()
            .map(|v| format!("{v:016x}"))
            .collect(),
    );
    println!(
        "\nExpected shape: static ≈ 1–2× LB; append/dynamic add PT (O(|Sset|·w)) and\n\
         the dynamic bitvector constant; baselines are several × the raw input."
    );
}
