//! Corruption battery for the archive format: truncations at every word
//! boundary (and unaligned ones), single-bit flips anywhere in the image,
//! wrong magic/version/kind, and checksum-valid images with tampered
//! length fields — every case must surface a typed [`LoadError`], never a
//! panic, never a queryable structure.

use wt_bits::persist::{crc64, from_bytes, kind, to_bytes, Archive, LoadError, FORMAT_VERSION};
use wt_bits::{EliasFano, Fid, RawBitVec, RrrVector};
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
        // loaded structure that does not round-trip) is a failure.
        let outcome = match *k {
            kind::RAW => from_bytes::<RawBitVec>(*k, &m).map(|v| to_bytes(*k, &v)),
            kind::FID => from_bytes::<Fid>(*k, &m).map(|v| to_bytes(*k, &v)),
            kind::RRR => from_bytes::<RrrVector>(*k, &m).map(|v| to_bytes(*k, &v)),
            kind::ELIAS_FANO => from_bytes::<EliasFano>(*k, &m).map(|v| to_bytes(*k, &v)),
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
