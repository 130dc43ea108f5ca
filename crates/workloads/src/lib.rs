//! # wt-workloads — deterministic synthetic workloads
//!
//! The paper has no datasets (its evaluation is analytical), so the
//! experiments run on seeded generators modelling the distributional
//! features §1 motivates: repeated strings with shared prefixes (URL/query
//! logs), skewed frequencies (Zipf), time-ordered positions, and integer
//! sequences whose working alphabet is tiny inside a huge universe (§6).
//! Every generator is a pure function of its seed.

pub mod ints;
pub mod urls;
pub mod words;
pub mod zipf;

pub use ints::{clustered_u64, power_comb, small_alphabet_u64};
pub use urls::{url_log, UrlLogConfig};
pub use words::word_text;
pub use zipf::Zipf;

// Re-exported so downstream load generators can drive the samplers above
// without taking their own dependency on the vendored `rand` shim.
pub use rand::RngExt;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The workspace-standard seeded RNG.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Seeded xorshift64 closure: the dependency-free PRNG behind the report
/// binaries' probe streams and the tests' seeded inputs. A zero seed is
/// bumped to 1, since zero is xorshift's fixed point.
pub fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed.max(1);
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            url_log(50, UrlLogConfig::default(), 7),
            url_log(50, UrlLogConfig::default(), 7)
        );
        assert_eq!(word_text(50, 100, 9), word_text(50, 100, 9));
        assert_eq!(clustered_u64(50, 4, 10, 3), clustered_u64(50, 4, 10, 3));
        assert_ne!(
            url_log(50, UrlLogConfig::default(), 7),
            url_log(50, UrlLogConfig::default(), 8)
        );
    }

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
        })
    }

    /// Pins the seeded streams the benchmark and the tests draw from, so a
    /// change to the RNG plumbing cannot silently change their inputs.
    #[test]
    fn seeded_streams_are_pinned() {
        let strings = |v: Vec<String>| fnv1a(v.iter().flat_map(|s| s.bytes().chain([0])));
        let words = |v: Vec<u64>| fnv1a(v.iter().flat_map(|w| w.to_le_bytes()));
        let urls = url_log(500, UrlLogConfig::default(), 7);
        assert_eq!(strings(urls), 0x9aff_cfdd_e5ec_e93f, "url_log");
        assert_eq!(strings(word_text(500, 100, 9)), 0xe8a7_290d_03e7_a54f);
        assert_eq!(words(clustered_u64(500, 4, 10, 3)), 0x0dfc_19ac_c64a_71dd);
        let mut r = rng(7);
        let draws = (0..16).map(|_| r.random()).collect();
        assert_eq!(words(draws), 0x5f48_2658_719b_7dff, "rng(7)");
        let mut next = xorshift(7);
        let draws = (0..16).map(|_| next()).collect();
        assert_eq!(words(draws), 0xf6cb_5964_82ff_dd71, "xorshift(7)");
    }
}
