//! Byte-string facade over [`TieredStore`] — the growing-URL-log scenario
//! of §1, served by the tiered architecture.
//!
//! [`TieredStrings`] pairs the store with the default
//! [`NinthBitCoder`], whose output is prefix-free by construction, so the
//! store's global prefix-free check never fires for byte inputs. The
//! query surface is generated by the same
//! [`wavelet_trie::string_facade_queries!`] macro the core facades use —
//! identical API, tiered backend.

use crate::{
    Maintenance, MaintenanceReport, RecoveryReport, StoreConfig, StoreError, StoreReader,
    StoreSnapshot, TieredStore,
};
use wavelet_trie::binarize::{Coder, NinthBitCoder};
use wavelet_trie::{string_facade_queries, SeqIndex};
use wt_bits::SpaceUsage;

/// Tiered compressed indexed sequence of byte strings: a hot tier
/// absorbing updates, append-only until edited, sealed into immutable
/// static segments (see the crate docs for the architecture).
#[derive(Clone, Debug, Default)]
pub struct TieredStrings {
    inner: TieredStore,
    coder: NinthBitCoder,
}

impl TieredStrings {
    /// An empty store with the default policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with an explicit tiering policy.
    pub fn with_config(config: StoreConfig) -> Self {
        TieredStrings {
            inner: TieredStore::with_config(config),
            coder: NinthBitCoder,
        }
    }

    /// Appends `s` at the end: O(|s| + h_s) into an append-only tail,
    /// O(|s| + h_s log n) into one an edit made dynamic, plus the
    /// occasional policy-triggered seal/compaction.
    pub fn push(&mut self, s: impl AsRef<[u8]>) {
        // Infallible: NinthBitCoder writes a 1 marker before each byte's 8
        // bits and ends the string with a single 0. That terminator can
        // never start another encoded byte (those start with 1), so no
        // codeword is a proper prefix of another and the store's
        // prefix-free check passes.
        self.inner
            .append(self.coder.encode(s.as_ref()).as_bitstr())
            .expect("NinthBitCoder output is prefix-free");
    }

    /// `Insert(s, pos)`; melts the owning segment if it was sealed.
    pub fn insert(&mut self, s: impl AsRef<[u8]>, pos: usize) {
        // Infallible for the same reason as `push`: terminated codewords
        // are prefix-free by construction.
        self.inner
            .insert(self.coder.encode(s.as_ref()).as_bitstr(), pos)
            .expect("NinthBitCoder output is prefix-free");
    }

    /// `Delete(pos)`: removes and returns the string.
    pub fn remove(&mut self, pos: usize) -> Vec<u8> {
        self.coder.decode(self.inner.delete(pos).as_bitstr())
    }

    /// Seals every hot segment into static form; see
    /// [`TieredStore::seal`].
    pub fn seal(&mut self) {
        self.inner.seal();
    }

    /// Freezes melted segments and merges small adjacent ones.
    pub fn compact(&mut self) {
        self.inner.compact();
    }

    /// Number of segments (including the hot tail).
    pub fn num_segments(&self) -> usize {
        self.inner.num_segments()
    }

    /// Number of sealed (static) segments.
    pub fn sealed_segments(&self) -> usize {
        self.inner.sealed_segments()
    }

    /// The underlying bit-level tiered store.
    pub fn inner(&self) -> &TieredStore {
        &self.inner
    }

    /// Publishes the current state as an immutable epoch and returns a
    /// bit-level snapshot of it; see [`TieredStore::publish`]. Snapshots
    /// serve the full [`SeqIndex`] surface from any thread, frozen at
    /// this point regardless of later mutation.
    pub fn publish(&mut self) -> StoreSnapshot {
        self.inner.publish()
    }

    /// A cloneable, `Send + Sync` handle for taking snapshots of the
    /// published state from other threads; see [`TieredStore::reader`].
    pub fn reader(&self) -> StoreReader {
        self.inner.reader()
    }

    /// Panic-contained maintenance (seal + compact + publish) with the
    /// default options; see [`TieredStore::maintain`].
    pub fn maintain(&mut self) -> MaintenanceReport {
        self.inner.maintain()
    }

    /// [`TieredStrings::maintain`] with explicit options (retry policy,
    /// persistence backend, probe); see
    /// [`TieredStore::maintain_with`].
    pub fn maintain_with(&mut self, opts: &Maintenance<'_>) -> MaintenanceReport {
        self.inner.maintain_with(opts)
    }

    /// Persists the store into a directory with an atomic generation
    /// commit; see [`TieredStore::save_dir`].
    pub fn save_dir(&self, dir: impl AsRef<std::path::Path>) -> Result<(), StoreError> {
        self.inner.save_dir(dir)
    }

    /// Loads a directory written by [`TieredStrings::save_dir`], serving
    /// the newest fully loadable generation. Sealed segments load
    /// zero-copy; the hot tail replays its string log. See
    /// [`TieredStore::load_dir`].
    pub fn load_dir(dir: impl AsRef<std::path::Path>) -> Result<Self, StoreError> {
        Ok(TieredStrings {
            inner: TieredStore::load_dir(dir)?,
            coder: NinthBitCoder,
        })
    }

    /// Self-healing load: damaged segments are quarantined instead of
    /// failing the whole directory; see [`TieredStore::recover_dir`].
    pub fn recover_dir(
        dir: impl AsRef<std::path::Path>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let (inner, report) = TieredStore::recover_dir(dir)?;
        Ok((
            TieredStrings {
                inner,
                coder: NinthBitCoder,
            },
            report,
        ))
    }

    string_facade_queries!();
}

impl<S: AsRef<[u8]>> Extend<S> for TieredStrings {
    fn extend<I: IntoIterator<Item = S>>(&mut self, iter: I) {
        for s in iter {
            self.push(s);
        }
    }
}

impl<S: AsRef<[u8]>> FromIterator<S> for TieredStrings {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut store = TieredStrings::new();
        store.extend(iter);
        store
    }
}

impl SpaceUsage for TieredStrings {
    fn size_bits(&self) -> usize {
        self.inner.size_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &[&str] = &[
        "http://a.com/x",
        "http://b.org/y",
        "http://a.com/x",
        "http://a.com/z",
        "http://c.net/",
        "http://a.com/x",
    ];

    #[test]
    fn facade_matches_core_api() {
        let mut st = TieredStrings::with_config(StoreConfig {
            seal_at: 2,
            max_sealed: 2,
        });
        for s in LOG {
            st.push(s);
        }
        assert_eq!(st.len(), 6);
        assert!(st.num_segments() > 1, "policy should have sealed");
        assert_eq!(st.distinct_len(), 4);
        assert_eq!(st.get_string(0), "http://a.com/x");
        assert_eq!(st.count("http://a.com/x"), 3);
        assert_eq!(st.count_prefix("http://a.com/"), 4);
        assert_eq!(st.select_prefix("http://a.com/", 2), Some(3));
        assert_eq!(st.select("http://a.com/x", 2), Some(5));
        assert_eq!(st.select("http://missing/", 0), None);
        let all: Vec<String> = st.iter_range(0, 6).collect();
        assert_eq!(all, LOG.to_vec());
        st.insert("sqlite", 2);
        assert_eq!(st.get_string(2), "sqlite");
        assert_eq!(st.remove(2), b"sqlite");
        assert_eq!(st.len(), 6);
        st.seal();
        st.compact();
        assert_eq!(st.count("http://a.com/x"), 3);
    }

    #[test]
    fn bulk_loading() {
        let st: TieredStrings = LOG.iter().copied().collect();
        assert_eq!(st.len(), 6);
        let mut st2 = TieredStrings::new();
        st2.extend(LOG.iter().copied());
        assert_eq!(st2.len(), 6);
        assert_eq!(st.count_prefix("http://"), st2.count_prefix("http://"));
    }
}
