//! Versioned zero-copy archives — the on-disk format of every static
//! structure in the workspace.
//!
//! An archive is a flat little-endian `u64` stream:
//!
//! ```text
//! word 0            MAGIC ("WVLTRIE\x01")
//! word 1            format version (low 32) | structure kind (high 32)
//! word 2            number of sections S
//! word 3            total payload words P
//! words 4 .. 4+4S   section table: (tag, offset, len, crc64) per section
//! word 4+4S         crc64 of everything above (header + table)
//! words 4+4S+1 ..   P payload words, sections contiguous in table order
//! ```
//!
//! *Validate-then-view*: [`Archive::parse`] checks the magic, version and
//! kind, that section offsets are contiguous and in bounds, and that every
//! checksum matches — an O(bytes) scan with no per-bit work — then hands
//! out [`WordsReader`] cursors that carve [`Words::View`]s out of one
//! shared buffer. No bitvector is decoded or rebuilt on load; callers add
//! cheap structural invariant checks (directory lengths, monotonicity) on
//! top. CRC-64 detects every single-bit flip and every burst shorter than
//! 64 bits; truncation is caught by the strict word-count equality.
//!
//! **Versioning policy**: the format is frozen by the golden fixtures in
//! `tests/fixtures/`. Any layout change must bump [`FORMAT_VERSION`] and
//! regenerate fixtures; readers reject versions they do not know.

use crate::words::{U32Words, Words};
use std::sync::Arc;

/// First word of every archive: `"WVLTRIE\x01"` as a little-endian word.
pub const MAGIC: u64 = u64::from_le_bytes(*b"WVLTRIE\x01");

/// Current (and only) format version. Version 3 stores RRR blocks of
/// classes 22–41 as their 63 raw bits instead of a combinatorial offset.
/// Version 2 dropped the Wavelet Trie's DFUDS tree section: its nodes are
/// numbered in level order, so the internal flags alone are the topology.
pub const FORMAT_VERSION: u32 = 3;

/// Structure kinds (high 32 bits of word 1) — one per archive-rooted type,
/// so a file saved as one structure cannot be loaded as another. The gaps
/// (5, 6, 11) were structures retired before [`FORMAT_VERSION`] 3, so the
/// version gate refuses every archive they wrote.
pub mod kind {
    /// `RawBitVec` (bits-level archives, used by tests and tools).
    pub const RAW: u32 = 1;
    /// `Fid`.
    pub const FID: u32 = 2;
    /// `RrrVector`.
    pub const RRR: u32 = 3;
    /// `EliasFano`.
    pub const ELIAS_FANO: u32 = 4;
    /// Static `WaveletTrie` (also a sealed `TieredStore` segment).
    pub const WAVELET_TRIE: u32 = 7;
    /// `IndexedStrings` (byte-string facade over the static trie).
    pub const INDEXED_STRINGS: u32 = 8;
    /// `TieredStore` directory manifest.
    pub const MANIFEST: u32 = 9;
    /// Hot-segment string log (re-appended on load).
    pub const HOT_LOG: u32 = 10;
}

/// Why a load was rejected. Corrupt or truncated input must surface as one
/// of these — never a panic, never a structure that answers queries.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The magic word is wrong (not an archive, or not ours).
    BadMagic,
    /// A format version this reader does not understand.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The archive holds a different structure kind.
    WrongKind {
        /// Kind this caller requires.
        expected: u32,
        /// Kind found in the header.
        found: u32,
    },
    /// The byte stream is shorter than its own length fields claim.
    Truncated,
    /// A section offset/length is out of bounds, non-contiguous, or an
    /// embedded length field is oversized.
    SectionBounds,
    /// A CRC-64 mismatch, in the header/table (`None`) or in the payload
    /// of the section with this tag.
    Checksum(Option<u32>),
    /// The section table lacks a section this structure requires.
    MissingSection(u32),
    /// Checksums passed but a structural invariant does not hold.
    Invalid(&'static str),
    /// Any of the above, tagged with the file it came from — so a failure
    /// in a multi-file directory names the offending file.
    InFile {
        /// Path of the file that failed to load.
        path: std::path::PathBuf,
        /// The underlying failure.
        cause: Box<LoadError>,
    },
}

impl Clone for LoadError {
    /// Structure-preserving clone. `io::Error` itself is not `Clone`, so
    /// the `Io` variant clones as a new error of the same kind carrying
    /// the original's message — everything a reporter or health tracker
    /// needs; only the live OS handle (if any) is not duplicated.
    fn clone(&self) -> Self {
        match self {
            LoadError::Io(e) => LoadError::Io(std::io::Error::new(e.kind(), e.to_string())),
            LoadError::BadMagic => LoadError::BadMagic,
            LoadError::UnsupportedVersion { found } => {
                LoadError::UnsupportedVersion { found: *found }
            }
            LoadError::WrongKind { expected, found } => LoadError::WrongKind {
                expected: *expected,
                found: *found,
            },
            LoadError::Truncated => LoadError::Truncated,
            LoadError::SectionBounds => LoadError::SectionBounds,
            LoadError::Checksum(tag) => LoadError::Checksum(*tag),
            LoadError::MissingSection(tag) => LoadError::MissingSection(*tag),
            LoadError::Invalid(what) => LoadError::Invalid(what),
            LoadError::InFile { path, cause } => LoadError::InFile {
                path: path.clone(),
                cause: cause.clone(),
            },
        }
    }
}

impl LoadError {
    /// Tags this error with the file it came from. Idempotent: an error
    /// already carrying a path keeps the innermost (original) one.
    pub fn in_file(self, path: impl Into<std::path::PathBuf>) -> LoadError {
        match self {
            LoadError::InFile { .. } => self,
            other => LoadError::InFile {
                path: path.into(),
                cause: Box::new(other),
            },
        }
    }

    /// The file this error is tagged with, if any.
    pub fn file(&self) -> Option<&std::path::Path> {
        match self {
            LoadError::InFile { path, .. } => Some(path),
            _ => None,
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::BadMagic => write!(f, "bad magic (not a .wt archive)"),
            LoadError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            LoadError::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong structure kind: expected {expected}, found {found}"
                )
            }
            LoadError::Truncated => write!(f, "archive truncated"),
            LoadError::SectionBounds => write!(f, "section table out of bounds"),
            LoadError::Checksum(None) => write!(f, "header checksum mismatch"),
            LoadError::Checksum(Some(tag)) => {
                write!(f, "payload checksum mismatch in section {tag}")
            }
            LoadError::MissingSection(tag) => write!(f, "missing section {tag}"),
            LoadError::Invalid(what) => write!(f, "structural invariant violated: {what}"),
            LoadError::InFile { path, cause } => write!(f, "{}: {cause}", path.display()),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// CRC-64/ECMA-182 table (reflected polynomial), built at compile time.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-64 of a word slice, taken over its little-endian bytes.
pub fn crc64(words: &[u64]) -> u64 {
    let mut crc = !0u64;
    for &w in words {
        for b in w.to_le_bytes() {
            crc = (crc >> 8) ^ CRC64_TABLE[((crc ^ b as u64) & 0xff) as usize];
        }
    }
    !crc
}

/// A structure that serializes into / deserializes out of a word stream.
///
/// `encode` appends the canonical word image; `decode` consumes exactly
/// that image from a [`WordsReader`], validating cheap structural
/// invariants but doing zero per-bit work — loaded structures hold
/// [`Words::View`]s into the archive buffer.
pub trait Persist: Sized {
    /// Appends the canonical word encoding.
    fn encode(&self, out: &mut Vec<u64>);
    /// Reads back one encoded value, validating invariants.
    fn decode(r: &mut WordsReader) -> Result<Self, LoadError>;
}

impl Persist for Words {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        out.extend_from_slice(self);
    }

    fn decode(r: &mut WordsReader) -> Result<Self, LoadError> {
        let n = r.read_len()?;
        r.view(n)
    }
}

impl Persist for U32Words {
    fn encode(&self, out: &mut Vec<u64>) {
        out.push(self.len() as u64);
        out.extend_from_slice(self.words());
    }

    fn decode(r: &mut WordsReader) -> Result<Self, LoadError> {
        let n = r.read_len()?;
        let words = r.view(n.div_ceil(2))?;
        Ok(U32Words::from_raw(words, n))
    }
}

/// Builds an archive: push sections, then [`ArchiveWriter::finish`].
pub struct ArchiveWriter {
    kind: u32,
    sections: Vec<(u32, Vec<u64>)>,
}

impl ArchiveWriter {
    /// Starts an archive of the given structure kind.
    pub fn new(kind: u32) -> Self {
        ArchiveWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Appends a section. Tags must be unique within one archive.
    pub fn section(&mut self, tag: u32, words: Vec<u64>) -> &mut Self {
        debug_assert!(self.sections.iter().all(|(t, _)| *t != tag));
        self.sections.push((tag, words));
        self
    }

    /// Serializes the archive to little-endian bytes.
    pub fn finish(&self) -> Vec<u8> {
        let s = self.sections.len();
        let payload_words: usize = self.sections.iter().map(|(_, w)| w.len()).sum();
        let mut words = Vec::with_capacity(5 + 4 * s + payload_words);
        words.push(MAGIC);
        words.push(FORMAT_VERSION as u64 | ((self.kind as u64) << 32));
        words.push(s as u64);
        words.push(payload_words as u64);
        let mut offset = 0u64;
        for (tag, payload) in &self.sections {
            words.push(*tag as u64);
            words.push(offset);
            words.push(payload.len() as u64);
            words.push(crc64(payload));
            offset += payload.len() as u64;
        }
        words.push(crc64(&words));
        for (_, payload) in &self.sections {
            words.extend_from_slice(payload);
        }
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes
    }
}

struct SectionInfo {
    tag: u32,
    /// Absolute start word within the archive buffer.
    start: usize,
    len: usize,
}

/// A parsed, fully checksum-verified archive. All sections share one
/// `Arc<[u64]>` buffer; readers carve zero-copy views out of it.
pub struct Archive {
    buf: Arc<[u64]>,
    sections: Vec<SectionInfo>,
}

impl Archive {
    /// Parses and validates an archive image: magic, version, kind,
    /// section-table bounds and contiguity, and every CRC. O(bytes).
    pub fn parse(bytes: &[u8], expected_kind: u32) -> Result<Archive, LoadError> {
        if !bytes.len().is_multiple_of(8) || bytes.len() < 8 {
            return Err(LoadError::Truncated);
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if words[0] != MAGIC {
            return Err(LoadError::BadMagic);
        }
        if words.len() < 5 {
            return Err(LoadError::Truncated);
        }
        let version = words[1] as u32;
        let found_kind = (words[1] >> 32) as u32;
        if version != FORMAT_VERSION {
            return Err(LoadError::UnsupportedVersion { found: version });
        }
        if found_kind != expected_kind {
            return Err(LoadError::WrongKind {
                expected: expected_kind,
                found: found_kind,
            });
        }
        let total = words.len() as u64;
        let n_sections = words[2];
        let payload_words = words[3];
        // Strict accounting: header + table + crc + payload must equal the
        // file exactly, so any truncation or tail garbage is caught here.
        let meta_words = n_sections
            .checked_mul(4)
            .and_then(|t| t.checked_add(5))
            .ok_or(LoadError::SectionBounds)?;
        if meta_words > total {
            return Err(LoadError::Truncated);
        }
        if payload_words != total - meta_words {
            return Err(LoadError::Truncated);
        }
        let table_end = 4 + 4 * n_sections as usize;
        if crc64(&words[..table_end]) != words[table_end] {
            return Err(LoadError::Checksum(None));
        }
        let payload_start = table_end + 1;
        let mut sections = Vec::with_capacity(n_sections as usize);
        let mut running = 0u64;
        for i in 0..n_sections as usize {
            let e = 4 + 4 * i;
            let (tag, offset, len, crc) = (words[e], words[e + 1], words[e + 2], words[e + 3]);
            if tag > u32::MAX as u64 {
                return Err(LoadError::SectionBounds);
            }
            // Sections must tile the payload contiguously in table order.
            let end = offset.checked_add(len).ok_or(LoadError::SectionBounds)?;
            if offset != running || end > payload_words {
                return Err(LoadError::SectionBounds);
            }
            running = end;
            let start = payload_start + offset as usize;
            let payload = &words[start..start + len as usize];
            if crc64(payload) != crc {
                return Err(LoadError::Checksum(Some(tag as u32)));
            }
            sections.push(SectionInfo {
                tag: tag as u32,
                start,
                len: len as usize,
            });
        }
        if running != payload_words {
            return Err(LoadError::SectionBounds);
        }
        Ok(Archive {
            buf: words.into(),
            sections,
        })
    }

    /// A cursor over the section with this tag.
    pub fn section(&self, tag: u32) -> Result<WordsReader, LoadError> {
        let s = self
            .sections
            .iter()
            .find(|s| s.tag == tag)
            .ok_or(LoadError::MissingSection(tag))?;
        Ok(WordsReader {
            buf: self.buf.clone(),
            pos: s.start,
            end: s.start + s.len,
        })
    }
}

/// Sequential cursor over one section of a parsed archive. Scalar reads
/// copy a word; [`WordsReader::view`] carves a zero-copy [`Words::View`].
pub struct WordsReader {
    buf: Arc<[u64]>,
    pos: usize,
    end: usize,
}

impl WordsReader {
    /// Next word as `u64`; `Truncated` past the section end.
    pub fn read_u64(&mut self) -> Result<u64, LoadError> {
        if self.pos >= self.end {
            return Err(LoadError::Truncated);
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        Ok(w)
    }

    /// Next word as a length/index, rejecting absurd values so corrupt
    /// length fields never overflow downstream arithmetic. The bound must
    /// stay generous: compressed containers (RRR, an all-equal trie)
    /// legitimately describe far more logical bits than the archive holds
    /// words, so lengths cannot be capped at the file size. Every view is
    /// still bounds-checked against its section by [`WordsReader::view`].
    pub fn read_len(&mut self) -> Result<usize, LoadError> {
        let w = self.read_u64()?;
        // 2^48 bits = 32 TiB of logical payload — far beyond any real
        // archive, and small enough that length products in decoders
        // cannot overflow u64/usize on supported targets.
        if w > 1 << 48 {
            return Err(LoadError::SectionBounds);
        }
        Ok(w as usize)
    }

    /// Next word as an `f64` (bit pattern).
    pub fn read_f64(&mut self) -> Result<f64, LoadError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Carves the next `len` words as a zero-copy view and advances.
    pub fn view(&mut self, len: usize) -> Result<Words, LoadError> {
        if len > self.end - self.pos {
            return Err(LoadError::Truncated);
        }
        let v = Words::View {
            buf: self.buf.clone(),
            start: self.pos,
            len,
        };
        self.pos += len;
        Ok(v)
    }

    /// Asserts the section was consumed exactly.
    pub fn finish(&self) -> Result<(), LoadError> {
        if self.pos != self.end {
            return Err(LoadError::Invalid("trailing words in section"));
        }
        Ok(())
    }

    /// Words left in the section.
    pub fn remaining(&self) -> usize {
        self.end - self.pos
    }
}

/// Single-section archive of one container — the bits-level `.wt` files
/// used by tests, fixtures and tools.
pub fn to_bytes<T: Persist>(kind: u32, value: &T) -> Vec<u8> {
    let mut payload = Vec::new();
    value.encode(&mut payload);
    let mut w = ArchiveWriter::new(kind);
    w.section(0, payload);
    w.finish()
}

/// Parses a single-section archive written by [`to_bytes`].
pub fn from_bytes<T: Persist>(kind: u32, bytes: &[u8]) -> Result<T, LoadError> {
    let archive = Archive::parse(bytes, kind)?;
    let mut r = archive.section(0)?;
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ ("ECMA" reflected) of ASCII "123456789" is
        // 0x995DC9BBDF1939FA; our word-level CRC over one padded word
        // must at least be stable and sensitive to every bit.
        let w = [0x0123_4567_89ab_cdefu64, 42];
        let base = crc64(&w);
        for bit in 0..128 {
            let mut m = w;
            m[bit / 64] ^= 1 << (bit % 64);
            assert_ne!(crc64(&m), base, "bit {bit} undetected");
        }
        let bytes = b"123456789";
        let mut crc = !0u64;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC64_TABLE[((crc ^ b as u64) & 0xff) as usize];
        }
        assert_eq!(!crc, 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn archive_roundtrip_and_rejects() {
        let mut w = ArchiveWriter::new(kind::RAW);
        w.section(7, vec![1, 2, 3]).section(9, vec![0xdead]);
        let bytes = w.finish();
        let a = Archive::parse(&bytes, kind::RAW).unwrap();
        let mut r = a.section(7).unwrap();
        assert_eq!(r.read_u64().unwrap(), 1);
        assert_eq!(r.view(2).unwrap().as_slice(), &[2, 3]);
        r.finish().unwrap();
        assert!(matches!(a.section(8), Err(LoadError::MissingSection(8))));
        assert!(matches!(
            Archive::parse(&bytes, kind::FID),
            Err(LoadError::WrongKind { .. })
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(matches!(
            Archive::parse(&bad, kind::RAW),
            Err(LoadError::BadMagic)
        ));
        assert!(matches!(
            Archive::parse(&bytes[..bytes.len() - 8], kind::RAW),
            Err(LoadError::Truncated)
        ));
        assert!(matches!(
            Archive::parse(&bytes[..bytes.len() - 3], kind::RAW),
            Err(LoadError::Truncated)
        ));
    }
}
