//! Tiered-store equivalence suite: a [`TieredStore`] driven through a
//! seeded interleaving of append / insert / delete / seal / compact /
//! publish must answer every query like the naive oracle, including right
//! after a mid-interleave seal or compaction, and so must its last
//! published snapshot. A monolithic dynamic trie fed the same op stream
//! conforms to the same oracle, so the two are bit-identical.

mod support;

use support::{check_ops, check_shape, code, conform, encode_all, random_codes, store, Oracle};
use wavelet_trie::{BitString, DynamicWaveletTrie};

#[test]
fn randomized_op_interleave_matches_oracle() {
    // Shaped like the §1 URL log: shared hosts, varied paths, duplicates.
    let urls: Vec<String> = ["a.com", "b.org", "c.net"]
        .iter()
        .flat_map(|h| ["", "p0", "p1", "p2", "p3", "p4", "p5"].map(|p| format!("http://{h}/{p}")))
        .collect();
    // Seals every 24 strings and compacts down to three sealed segments.
    let pool = encode_all(&urls);
    check_ops(store(&[], 24, 3), &pool, 0x7153_D0CA_FE01, 900, 150);
}

/// Bit-level: the tiered store and a single monolithic dynamic trie fed
/// the identical op sequence both conform to one oracle.
#[test]
fn tiered_store_matches_monolithic_trie_bit_level() {
    let pool: Vec<BitString> = (0..40).map(|v| code(v, 9)).collect();
    check_ops(DynamicWaveletTrie::new(), &pool, 0xBEE5_1DE5, 500, 100);
    check_ops(store(&[], 16, 2), &pool, 0xBEE5_1DE5, 500, 100);
}

/// A sealed segment produced by the store must answer exactly like a
/// from-scratch static build of the same strings, down to its height and
/// bitvector bits (the freeze round trip seen through the store API).
#[test]
fn sealed_segment_equals_from_scratch_static_build() {
    let strings = random_codes(200, 50, 8, 0x5EA1_5EA1);
    let mut st = store(&strings, usize::MAX, 64); // manual sealing only
    st.seal();
    assert_eq!(st.sealed_segments(), 1);
    let o = Oracle::new(strings);
    conform("sealed segment", st.segment(0), &o, 0x5EA1);
    check_shape("sealed segment", st.segment(0), &o);
}

/// Failed inserts must leave the store untouched even when the violation
/// comes from a *different* segment than the one that would host the
/// position.
#[test]
fn failed_inserts_leave_store_unchanged() {
    let strings: Vec<BitString> = ["0100", "0001", "1100", "1010"]
        .map(BitString::parse)
        .into();
    let mut st = store(&strings, 2, 8);
    assert!(st.sealed_segments() >= 1);
    let lens = st.segment_lens();
    // "01" is a prefix of "0100" which lives in a sealed segment, but the
    // insert position targets the hot tail.
    assert!(st.insert(BitString::parse("01").as_bitstr(), 4).is_err());
    assert!(st.insert(BitString::parse("01001").as_bitstr(), 0).is_err());
    assert_eq!(st.segment_lens(), lens, "no melt on failed insert");
    conform("after failed inserts", &st, &Oracle::new(strings), 0xFA11);
}
