//! Batch-vs-oracle suite: every backend's `*_batch` entry points, and its
//! scalar and §5 range answers, must match the naive oracle on random,
//! adversarial (all-equal, all-distinct, deep-skewed) and degenerate
//! sequences. The harness in `support/` draws batches of 0, 1, 7, 8, 9,
//! 64 and 130 lanes, straddling the kernels' 8-lane scalar fallback and
//! their 64-lane chunks.

mod support;

use support::{code, conform_all, deep, random_codes};
use wavelet_trie::BitString;

#[test]
fn random_batches_across_backends() {
    conform_all("random", &random_codes(1500, 120, 10, 0xBA7C4), 0xBA7C4);
}

#[test]
fn adversarial_batches() {
    // Shallow codes, all starting `00`, mixed with deep-skewed strings.
    let mut seq = random_codes(600, 40, 8, 0xAD7E5);
    seq.extend((0..50).map(|d| deep(d + 8, d as u64 % 16)));
    conform_all("adversarial", &seq, 0xAD7E5);
}

#[test]
fn empty_and_singleton_batches() {
    conform_all("singleton", &[code(5, 6)], 0x51461);
    conform_all("empty string only", &vec![BitString::new(); 4], 0x51461);
    conform_all("tiny alphabet", &random_codes(200, 9, 6, 0x51461), 0x51461);
}

#[test]
fn empty_sequence_batches() {
    conform_all("empty", &[], 0xE3);
}
