//! Corruption battery for the archive format: truncations at every word
//! boundary (and unaligned ones), single-bit flips anywhere in the image,
//! wrong magic/version/kind, and checksum-valid images with tampered
//! length fields or broken RRR block invariants — every case must surface
//! a typed [`LoadError`], never a panic, never a queryable structure.

use wt_bits::persist::{
    crc64, from_bytes, kind, to_bytes, Archive, ArchiveWriter, LoadError, Persist, FORMAT_VERSION,
};
use wt_bits::{BitSelect, EliasFano, Fid, RawBitVec, RrrVector};
use wt_workloads::xorshift;

/// One representative image per archive-rooted container kind.
fn images() -> Vec<(u32, Vec<u8>)> {
    let mut rnd = xorshift(0xC0FF);
    let bits: Vec<bool> = (0..3000).map(|_| rnd().is_multiple_of(3)).collect();
    let mut raw = RawBitVec::new();
    for &b in &bits {
        raw.push(b);
    }
    let fid = Fid::from_bits(bits.iter().copied());
    let rrr = RrrVector::from_bits(bits.iter().copied());
    let mut vals: Vec<u64> = (0..400).map(|_| rnd() % 100_000).collect();
    vals.sort_unstable();
    let ef = EliasFano::new(&vals);
    vec![
        (kind::RAW, to_bytes(kind::RAW, &raw)),
        (kind::FID, to_bytes(kind::FID, &fid)),
        (kind::RRR, to_bytes(kind::RRR, &rrr)),
        (kind::ELIAS_FANO, to_bytes(kind::ELIAS_FANO, &ef)),
    ]
}

/// Decodes `bytes` as the container the kind tag names; any outcome but a
/// typed error is a test failure (the caller guarantees `bytes` is bad).
fn assert_rejected(archive_kind: u32, bytes: &[u8], what: &str) {
    let err = match archive_kind {
        kind::RAW => from_bytes::<RawBitVec>(archive_kind, bytes).map(drop),
        kind::FID => from_bytes::<Fid>(archive_kind, bytes).map(drop),
        kind::RRR => from_bytes::<RrrVector>(archive_kind, bytes).map(drop),
        kind::ELIAS_FANO => from_bytes::<EliasFano>(archive_kind, bytes).map(drop),
        _ => unreachable!(),
    };
    match err {
        Ok(()) => panic!("{what}: corrupt image loaded as kind {archive_kind}"),
        Err(e) => {
            // The error must render (typed, not a panic payload).
            let _ = format!("{e}");
        }
    }
}

/// Sanity: the pristine images load.
#[test]
fn pristine_images_load() {
    for (k, bytes) in images() {
        match k {
            kind::RAW => drop(from_bytes::<RawBitVec>(k, &bytes).unwrap()),
            kind::FID => drop(from_bytes::<Fid>(k, &bytes).unwrap()),
            kind::RRR => drop(from_bytes::<RrrVector>(k, &bytes).unwrap()),
            kind::ELIAS_FANO => drop(from_bytes::<EliasFano>(k, &bytes).unwrap()),
            _ => unreachable!(),
        }
    }
}

#[test]
fn truncation_at_every_boundary() {
    for (k, bytes) in images() {
        // Every aligned prefix, including the empty one.
        for words in 0..bytes.len() / 8 {
            assert_rejected(
                k,
                &bytes[..words * 8],
                &format!("truncate to {words} words"),
            );
        }
        // Unaligned prefixes near the end and in the middle.
        for cut in [1usize, 3, 7] {
            assert_rejected(k, &bytes[..bytes.len() - cut], &format!("cut {cut} bytes"));
            assert_rejected(k, &bytes[..bytes.len() / 2 + cut], "mid-file unaligned cut");
        }
    }
}

#[test]
fn single_bit_flips_never_load() {
    let mut rnd = xorshift(0xF11B);
    for (k, bytes) in images() {
        // Exhaustive over the header + section table + meta CRC (the first
        // 9 words of a single-section archive) …
        let meta_bits = 9 * 64;
        for bit in 0..meta_bits.min(bytes.len() * 8) {
            let mut m = bytes.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            assert_rejected(k, &m, &format!("meta bit {bit}"));
        }
        // … and sampled across the payload. CRC-64 catches every
        // single-bit flip, so each must be rejected.
        for _ in 0..300 {
            let bit = (rnd() % (bytes.len() as u64 * 8)) as usize;
            let mut m = bytes.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            assert_rejected(k, &m, &format!("payload bit {bit}"));
        }
    }
}

#[test]
fn wrong_magic_version_kind() {
    let (k, bytes) = images().remove(0);
    let mut not_ours = bytes.clone();
    not_ours[..8].copy_from_slice(b"NOTANARC");
    assert!(matches!(
        Archive::parse(&not_ours, k),
        Err(LoadError::BadMagic)
    ));
    // Version is the low 32 bits of word 1; any other version, older or
    // newer, must be rejected even with checksums refixed (readers only
    // know FORMAT_VERSION).
    for other in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
        let mut v = bytes.clone();
        v[8..12].copy_from_slice(&other.to_le_bytes());
        let v = refix_checksums(&v);
        assert!(matches!(
            Archive::parse(&v, k),
            Err(LoadError::UnsupportedVersion { found }) if found == other
        ));
    }
    // A RawBitVec archive is not a Fid archive.
    assert!(matches!(
        Archive::parse(&bytes, kind::FID),
        Err(LoadError::WrongKind {
            expected: kind::FID,
            found: kind::RAW,
        })
    ));
    // Empty and sub-word inputs.
    assert!(matches!(Archive::parse(&[], k), Err(LoadError::Truncated)));
    assert!(matches!(
        Archive::parse(&bytes[..5], k),
        Err(LoadError::Truncated)
    ));
}

/// Recomputes every section CRC and the meta CRC so a tampered payload
/// passes the checksum gate — the structural validators must then be the
/// ones to reject it.
fn refix_checksums(bytes: &[u8]) -> Vec<u8> {
    let mut words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    // Defensive against images whose section table was itself mutated:
    // only refix what is in bounds; the parser rejects the rest anyway.
    let s = words[2] as usize;
    let table_end = match s.checked_mul(4).and_then(|t| t.checked_add(4)) {
        Some(t) if t < words.len() => t,
        _ => return bytes.to_vec(),
    };
    let payload_start = table_end + 1;
    for i in 0..s {
        let e = 4 + 4 * i;
        let (off, len) = (words[e + 1] as usize, words[e + 2] as usize);
        let start = payload_start.checked_add(off);
        let end = start.and_then(|s| s.checked_add(len));
        if let (Some(start), Some(end)) = (start, end) {
            if let Some(section) = words.get(start..end) {
                words[e + 3] = crc64(section);
            }
        }
    }
    words[table_end] = crc64(&words[..table_end]);
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Checksum-valid images with tampered content: oversized length fields
/// and broken structural invariants must be caught by validation, with no
/// panic and no allocation blow-up.
#[test]
fn tampered_but_checksum_valid_images() {
    for (k, bytes) in images() {
        // The first payload word of every container encoding is its
        // logical bit/element count. Oversize it three ways.
        for huge in [u64::MAX, 1 << 60, (1 << 40) + 1] {
            let mut m = bytes.clone();
            // Single-section archive: payload starts at word 9.
            m[9 * 8..10 * 8].copy_from_slice(&huge.to_le_bytes());
            assert_rejected(k, &refix_checksums(&m), &format!("len = {huge:#x}"));
        }
        // Shrinking the count desynchronizes every directory length.
        let mut m = bytes.clone();
        let real = u64::from_le_bytes(m[9 * 8..10 * 8].try_into().unwrap());
        m[9 * 8..10 * 8].copy_from_slice(&(real / 2 + 1).to_le_bytes());
        assert_rejected(k, &refix_checksums(&m), "halved length field");
    }
    // RawBitVec-specific: nonzero bits beyond `len` (tail padding) are
    // structurally invalid even though every checksum passes.
    let mut raw = RawBitVec::new();
    for i in 0..67 {
        raw.push(i % 2 == 0);
    }
    let bytes = to_bytes(kind::RAW, &raw);
    let mut m = bytes.clone();
    let last = m.len() - 1;
    m[last] ^= 0x80; // top bit of the final payload word, past len = 67
    let m = refix_checksums(&m);
    assert!(matches!(
        from_bytes::<RawBitVec>(kind::RAW, &m),
        Err(LoadError::Invalid("nonzero bitvector tail padding"))
    ));
    oversized_section_lengths();
    rrr_block_mutants();
}

/// A multi-section image whose later table entries claim lengths that
/// overflow `offset + len`, or run past the payload, with every checksum
/// refixed: the table check must refuse each with `SectionBounds`.
fn oversized_section_lengths() {
    let mut w = ArchiveWriter::new(kind::RAW);
    for tag in 0..5u32 {
        w.section(tag, (0..=tag as u64 * 3).collect());
    }
    let bytes = w.finish();
    Archive::parse(&bytes, kind::RAW).expect("pristine image loads");
    for section in 1..5 {
        let entry = 8 * (4 + 4 * section);
        let offset = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap());
        assert!(offset > 0, "a later section starts past word 0");
        for len in [u64::MAX, u64::MAX - offset + 1, 1 << 63] {
            let mut m = bytes.clone();
            m[entry + 16..entry + 24].copy_from_slice(&len.to_le_bytes());
            let got = Archive::parse(&refix_checksums(&m), kind::RAW).map(drop);
            assert!(
                matches!(got, Err(LoadError::SectionBounds)),
                "section {section}, len {len:#x}: {got:?}"
            );
        }
    }
}

/// An RRR vector of whole blocks with the given classes (each block's
/// ones at its bottom), then a partial block of `tail_width` bits holding
/// `tail_ones` ones.
fn rrr_of_classes(classes: &[usize], tail_width: usize, tail_ones: usize) -> RrrVector {
    let mut bits = RawBitVec::new();
    let low = |c: usize| (1u64 << c) - 1;
    for &c in classes {
        bits.push_bits(low(c), 63);
    }
    bits.push_bits(low(tail_ones), tail_width);
    RrrVector::new(&bits)
}

/// The streams of an RRR payload, in order: the class stream, offset
/// stream, superblock directory and the two select-hint arrays.
const CLASSES: usize = 0;
const OFFSETS: usize = 1;
const DIRECTORY: usize = 2;
const HINTS1: usize = 3;
const HINTS0: usize = 4;

/// Word index of each stream's first data word in a single-section RRR
/// image: the payload (from word 9) is `len`, `ones`, then the streams,
/// each a length word followed by its data.
fn rrr_streams(bytes: &[u8]) -> [usize; 5] {
    let word = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap()) as usize;
    let mut at = [12; 5];
    at[OFFSETS] = at[CLASSES] + word(at[CLASSES] - 1).div_ceil(64) + 1;
    at[DIRECTORY] = at[OFFSETS] + word(at[OFFSETS] - 1).div_ceil(64) + 1;
    at[HINTS1] = at[DIRECTORY] + word(at[DIRECTORY] - 1) + 1;
    at[HINTS0] = at[HINTS1] + word(at[HINTS1] - 1).div_ceil(2) + 1;
    at
}

/// Reads the `width`-bit field at bit `bit` of the stream starting at `word`.
fn field(bytes: &[u8], word: usize, bit: usize, width: usize) -> u64 {
    (0..width).fold(0, |v, i| {
        let at = word * 64 + bit + i;
        v | (((bytes[at / 8] >> (at % 8)) & 1) as u64) << i
    })
}

/// Overwrites that field with `value`.
fn set_field(bytes: &mut [u8], word: usize, bit: usize, width: usize, value: u64) {
    for i in 0..width {
        let at = word * 64 + bit + i;
        let mask = 1u8 << (at % 8);
        if (value >> i) & 1 != 0 {
            bytes[at / 8] |= mask;
        } else {
            bytes[at / 8] &= !mask;
        }
    }
}

/// Checksum-valid RRR images that break one block or directory invariant
/// each. Queries trust those invariants (a class walk bounded by the
/// directory, `BINOM` indexed by decoded offsets, a select search started
/// at its hint), so the loader must refuse every one with the named
/// `LoadError::Invalid`. Blocks in classes 22–41 are stored as 63 raw
/// bits, all others as ⌈log₂ C(63, c)⌉-bit combinatorial offsets.
fn rrr_block_mutants() {
    let class_at = |b: usize| (b * 6, 6);
    // Blocks of classes 22 and 40 (verbatim), 2 (an 11-bit offset at
    // offset-stream bit 126) and 63 (no offset), then 10 zero bits.
    let v1 = to_bytes(kind::RRR, &rrr_of_classes(&[22, 40, 2, 63], 10, 0));
    // A class-22 block, then a 40-bit tail with 22 ones: a verbatim word
    // at offset-stream bit 63.
    let v2 = to_bytes(kind::RRR, &rrr_of_classes(&[22], 40, 22));
    // A class-22 block, then a 10-bit tail with 2 ones: an 11-bit offset
    // at bit 63 that must stay below C(10, 2) = 45.
    let v3 = to_bytes(kind::RRR, &rrr_of_classes(&[22], 10, 2));
    // Seven superblocks at density 1/3: enough for select hints.
    let mut rnd = xorshift(0x5E1EC7);
    let v4 = RrrVector::from_bits((0..7000).map(|_| rnd().is_multiple_of(3)));
    let v4 = to_bytes(kind::RRR, &v4);
    // Each edit: (stream, (bit, width) within it, new value).
    let edit = |image: &[u8], edits: &[(usize, (usize, usize), u64)]| {
        let mut m = image.to_vec();
        let at = rrr_streams(&m);
        for &(stream, (bit, width), value) in edits {
            set_field(&mut m, at[stream], bit, width, value);
        }
        refix_checksums(&m)
    };
    let dir = |i: usize| (64 * i, 64); // directory word i: (rank, ptr) pairs
    let v4_dir = |i: usize| field(&v4, rrr_streams(&v4)[DIRECTORY], 64 * i, 64);
    let sentinel = "rrr superblock sentinel";
    let directory = "rrr superblock disagrees with its classes";
    let class_width = "rrr block class exceeds its width";
    let offset = "rrr block offset out of range";
    let mutants = [
        // Block 0's class lowered: the classes sum to 3 ones too few.
        (
            "class 22 -> 19",
            edit(&v1, &[(CLASSES, class_at(0), 19)]),
            sentinel,
        ),
        // Class sum kept, stored widths not (21 takes 55 bits, 41 takes
        // 63): block 1's word is read 8 bits early and holds 40 ones.
        (
            "classes 22, 40 -> 21, 41",
            edit(
                &v1,
                &[(CLASSES, class_at(0), 21), (CLASSES, class_at(1), 41)],
            ),
            offset,
        ),
        // Sums and widths kept: the verbatim words' popcounts disagree.
        (
            "classes 22, 40 swapped",
            edit(
                &v1,
                &[(CLASSES, class_at(0), 40), (CLASSES, class_at(1), 22)],
            ),
            offset,
        ),
        // Offset 2047 of class 2 is past C(63, 2) - 1 = 1952.
        (
            "offset >= C(63, 2)",
            edit(&v1, &[(OFFSETS, (126, 11), 2047)]),
            offset,
        ),
        // Classes 63 and 0 swapped: the 10-bit tail claims 63 ones.
        (
            "tail class 63 > width 10",
            edit(
                &v1,
                &[(CLASSES, class_at(3), 0), (CLASSES, class_at(4), 63)],
            ),
            class_width,
        ),
        // One of the tail's ones moved from bit 0 to bit 50, past its width.
        (
            "verbatim bit past the tail",
            edit(&v2, &[(OFFSETS, (63, 1), 0), (OFFSETS, (113, 1), 1)]),
            offset,
        ),
        // 1000 is below C(63, 2) but not below C(10, 2).
        (
            "tail offset >= C(10, 2)",
            edit(&v3, &[(OFFSETS, (63, 11), 1000)]),
            offset,
        ),
        // Superblock 1's rank and pointer each one off its blocks' sums.
        (
            "superblock rank",
            edit(&v4, &[(DIRECTORY, dir(2), v4_dir(2) + 1)]),
            directory,
        ),
        (
            "superblock pointer",
            edit(&v4, &[(DIRECTORY, dir(3), v4_dir(3) + 1)]),
            directory,
        ),
        // The first zero sits in superblock 0, not 1.
        (
            "select hint past its target",
            edit(&v4, &[(HINTS0, (0, 32), 1)]),
            "rrr select hints disagree with the directory",
        ),
    ];
    for image in [&v1, &v2, &v3, &v4] {
        from_bytes::<RrrVector>(kind::RRR, image).expect("pristine image loads");
    }
    assert_eq!(field(&v1, rrr_streams(&v1)[CLASSES], 0, 6), 22);
    // The tail's ones sit at its bottom: the lowest class-2 word, offset 0.
    assert_eq!(field(&v3, rrr_streams(&v3)[OFFSETS], 63, 11), 0);
    assert_eq!(field(&v4, rrr_streams(&v4)[HINTS0], 0, 32), 0);
    for (what, m, why) in mutants {
        let got = from_bytes::<RrrVector>(kind::RRR, &m).map(drop);
        assert!(
            matches!(got, Err(LoadError::Invalid(m)) if m == why),
            "{what}: {got:?}"
        );
    }
}

/// Queries a loaded bitvector against scans of `raw`, the bits it holds:
/// `get` and `rank1` at 0, at `len` and at random positions, and sampled
/// selects. A mutant that passes validation must answer consistently,
/// never panic.
fn query_bits<V: BitSelect>(v: &V, raw: &RawBitVec, rnd: &mut impl FnMut() -> u64) {
    let (n, ones) = (v.len(), v.count_ones());
    assert_eq!(n, raw.len());
    assert_eq!(ones, raw.count_ones());
    assert_eq!(v.rank1(0), 0);
    assert_eq!(v.rank1(n), ones);
    for _ in 0..64 {
        let i = (rnd() % (n as u64 + 1)) as usize;
        assert_eq!(v.rank1(i), raw.rank1_scan(i), "rank1({i})");
        if i < n {
            assert_eq!(v.get(i), raw.get(i), "get({i})");
        }
    }
    for k in (0..=ones).step_by((ones / 32).max(1)) {
        assert_eq!(v.select1(k), raw.select1_scan(k), "select1({k})");
    }
    for k in (0..=n - ones).step_by(((n - ones) / 32).max(1)) {
        assert_eq!(v.select0(k), raw.select0_scan(k), "select0({k})");
    }
}

/// An RRR vector against its own bits as `to_raw` decodes them from the
/// classes and offsets, `get_rank1` included.
fn query_rrr(v: &RrrVector, rnd: &mut impl FnMut() -> u64) {
    let raw = v.to_raw();
    query_bits(v, &raw, rnd);
    for _ in 0..64 {
        let i = (rnd() % (raw.len() as u64 + 1)) as usize;
        if i < raw.len() {
            let want = (raw.get(i), raw.rank1_scan(i));
            assert_eq!(v.get_rank1(i), want, "get_rank1({i})");
        }
    }
}

/// Every `get` of a loaded Elias–Fano sequence against its two halves
/// read back from `image` itself: the low bits, and the upper unary
/// stream scanned without the directory of the `Fid` that holds it.
fn query_elias_fano(ef: &EliasFano, image: &[u8]) {
    let archive = Archive::parse(image, kind::ELIAS_FANO).unwrap();
    let mut r = archive.section(0).unwrap();
    let n = r.read_len().unwrap();
    let _universe = r.read_u64().unwrap();
    let low_width = r.read_len().unwrap();
    let low = RawBitVec::decode(&mut r).unwrap();
    let high = RawBitVec::decode(&mut r).unwrap(); // the upper `Fid`'s bits
    assert_eq!(ef.len(), n);
    for i in 0..n {
        let hi = (high.select1_scan(i).unwrap() - i) as u64;
        let lo = if low_width == 0 {
            0
        } else {
            low.get_bits(i * low_width, low_width)
        };
        assert_eq!(ef.get(i), (hi << low_width) | lo, "get({i})");
    }
}

/// Deterministic fuzz loop: random multi-bit flips, truncations, byte
/// splices and length doctoring across every image — thousands of mutants,
/// each of which must either load (only possible for a no-op mutation) or
/// return a typed error. Any panic fails the harness.
#[test]
fn fuzz_mutations_never_panic() {
    let mut rnd = xorshift(0xFA22);
    let imgs = images();
    for round in 0..4000 {
        let (k, pristine) = &imgs[(rnd() % imgs.len() as u64) as usize];
        let mut m = pristine.clone();
        match rnd() % 4 {
            0 => {
                // 1–8 random bit flips.
                for _ in 0..1 + rnd() % 8 {
                    let bit = (rnd() % (m.len() as u64 * 8)) as usize;
                    m[bit / 8] ^= 1 << (bit % 8);
                }
            }
            1 => {
                // Random truncation (any byte length).
                let keep = (rnd() % (m.len() as u64 + 1)) as usize;
                m.truncate(keep);
            }
            2 => {
                // Splice a random word with a random value, checksums fixed
                // so the structural validators take the hit.
                let w = (rnd() % (m.len() as u64 / 8)) as usize;
                m[w * 8..(w + 1) * 8].copy_from_slice(&rnd().to_le_bytes());
                if m[..8] == pristine[..8] {
                    m = refix_checksums(&m);
                }
            }
            _ => {
                // Append random trailing garbage.
                for _ in 0..1 + rnd() % 32 {
                    m.push(rnd() as u8);
                }
            }
        }
        if m == *pristine {
            continue; // a no-op mutation (e.g. truncate to full length)
        }
        // Oracle: a mutant either fails with a typed error, or — possible
        // only for checksum-refixed splices that happen to produce another
        // well-formed image — loads as a structure whose canonical re-save
        // is byte-identical to the mutant. Anything else (a panic, or a
        // loaded structure that does not round-trip) is a failure. An RRR,
        // `Fid` or Elias–Fano mutant that loads must also answer queries
        // like its own bits.
        let outcome = match *k {
            kind::RAW => from_bytes::<RawBitVec>(*k, &m).map(|v| to_bytes(*k, &v)),
            kind::FID => from_bytes::<Fid>(*k, &m).map(|v| {
                query_bits(&v, v.raw(), &mut rnd);
                to_bytes(*k, &v)
            }),
            kind::RRR => from_bytes::<RrrVector>(*k, &m).map(|v| {
                query_rrr(&v, &mut rnd);
                to_bytes(*k, &v)
            }),
            kind::ELIAS_FANO => from_bytes::<EliasFano>(*k, &m).map(|v| {
                query_elias_fano(&v, &m);
                to_bytes(*k, &v)
            }),
            _ => unreachable!(),
        };
        match outcome {
            Err(e) => {
                let _ = format!("{e}"); // must render
            }
            Ok(resaved) => {
                assert_eq!(
                    resaved, m,
                    "round {round}: kind {k} loaded a non-canonical mutant"
                );
            }
        }
    }
}
