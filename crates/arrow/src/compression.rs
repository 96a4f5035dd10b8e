//! LZ4-style byte-oriented block compression.
//!
//! The shuffle path and the wire server compress IPC frames with this
//! codec: `measured_output_bytes` — and therefore every storage/network
//! price the simulator charges — reflect the *compressed* frame length.
//!
//! The format is a self-framing LZ4-flavored block:
//!
//! ```text
//! magic "SKLZ" | raw_len u32 LE | sequences...
//! ```
//!
//! Each sequence is `token | [ext lit len] | literals | offset u16 LE |
//! [ext match len]`: the token's high nibble is the literal run length
//! and its low nibble is the match length minus [`MIN_MATCH`], both
//! extended by `0xFF`-saturated continuation bytes when they hit 15. The
//! final sequence carries literals only. Matches copy byte-at-a-time so
//! overlapping copies (RLE-style `offset < len`) work.
//!
//! [`decompress`] is fully bounds-checked and never panics on junk,
//! truncated, or bit-flipped input — it returns [`ArrowError::Corrupt`].
//! Declared output sizes are validated against both a hard cap and the
//! codec's maximum expansion ratio before any allocation, so hostile
//! headers cannot trigger huge allocations either.

use crate::error::ArrowError;

/// Magic prefix of a compressed block. Distinct from the IPC frame magic
/// (`"SKAR"`), so a receiver can tell compressed and plain frames apart
/// from the first four bytes.
pub const COMPRESSED_MAGIC: [u8; 4] = *b"SKLZ";

/// Shortest back-reference worth encoding.
pub const MIN_MATCH: usize = 4;

/// Hard cap on a declared decompressed size (1 GiB); anything larger is
/// rejected as corrupt before allocating.
pub const MAX_DECOMPRESSED: usize = 1 << 30;

/// Match window: offsets are u16, so references reach back 64 KiB.
const MAX_OFFSET: usize = u16::MAX as usize;

const HASH_BITS: u32 = 14;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// True if `bytes` start with the compressed-block magic.
pub fn is_compressed(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == COMPRESSED_MAGIC
}

fn write_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(0xFF);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = m.map_or(0, |(_, len)| (len - MIN_MATCH).min(15)) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        write_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if let Some((offset, len)) = m {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            write_len(out, len - MIN_MATCH - 15);
        }
    }
}

/// Compresses `raw` into a framed block. Incompressible input grows by a
/// small constant plus one byte per 255 input bytes; use
/// [`maybe_compress`] when the caller wants a never-larger guarantee.
///
/// # Panics
///
/// Panics if `raw` exceeds [`MAX_DECOMPRESSED`].
pub fn compress(raw: &[u8]) -> Vec<u8> {
    assert!(raw.len() <= MAX_DECOMPRESSED, "block too large to compress");
    let mut out = Vec::with_capacity(raw.len() / 2 + 16);
    out.extend_from_slice(&COMPRESSED_MAGIC);
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());

    // Greedy LZ4-style matcher: a hash table over 4-byte sequences maps
    // to the most recent position; `0` means empty (positions are
    // stored + 1).
    let mut table = vec![0u32; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut i = 0usize;
    // The last MIN_MATCH bytes are always literals (no room to match).
    while i + MIN_MATCH <= raw.len() {
        let h = hash4(&raw[i..]);
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        let found = candidate > 0 && {
            let c = candidate - 1;
            i - c <= MAX_OFFSET && raw[c..c + MIN_MATCH] == raw[i..i + MIN_MATCH]
        };
        if !found {
            i += 1;
            continue;
        }
        let c = candidate - 1;
        let mut len = MIN_MATCH;
        while i + len < raw.len() && raw[c + len] == raw[i + len] {
            len += 1;
        }
        emit_sequence(&mut out, &raw[lit_start..i], Some((i - c, len)));
        // Seed the table inside the match so runs keep chaining.
        let mut j = i + 1;
        while j + MIN_MATCH <= raw.len() && j < i + len {
            table[hash4(&raw[j..])] = (j + 1) as u32;
            j += 1;
        }
        i += len;
        lit_start = i;
    }
    if lit_start < raw.len() || raw.is_empty() {
        emit_sequence(&mut out, &raw[lit_start..], None);
    } else {
        // Format requires a terminating literals-only sequence.
        emit_sequence(&mut out, &[], None);
    }
    out
}

/// Compresses `frame` if that makes it smaller; otherwise returns the
/// original bytes. The receiver tells the cases apart by magic (the
/// plain payloads this is used on — IPC frames, wire packets — never
/// start with [`COMPRESSED_MAGIC`]).
pub fn maybe_compress(frame: &[u8]) -> Vec<u8> {
    let compressed = compress(frame);
    if compressed.len() < frame.len() {
        compressed
    } else {
        frame.to_vec()
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, ArrowError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| ArrowError::Corrupt("compressed block truncated".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ArrowError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| ArrowError::Corrupt("compressed block truncated".into()))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn ext_len(&mut self, base: usize) -> Result<usize, ArrowError> {
        let mut len = base;
        if base == 15 {
            loop {
                let b = self.u8()?;
                len = len
                    .checked_add(b as usize)
                    .ok_or_else(|| ArrowError::Corrupt("length overflow".into()))?;
                if b != 0xFF {
                    break;
                }
            }
        }
        Ok(len)
    }

    fn done(&self) -> bool {
        self.pos >= self.data.len()
    }
}

/// Decompresses a block produced by [`compress`]. Every read and copy is
/// bounds-checked; junk, truncated, or bit-flipped input yields
/// [`ArrowError::Corrupt`], never a panic.
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>, ArrowError> {
    if !is_compressed(frame) {
        return Err(ArrowError::Corrupt("missing compression magic".into()));
    }
    let mut r = Reader {
        data: frame,
        pos: 4,
    };
    let raw_len = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")) as usize;
    if raw_len > MAX_DECOMPRESSED {
        return Err(ArrowError::Corrupt(format!(
            "declared size {raw_len} exceeds cap {MAX_DECOMPRESSED}"
        )));
    }
    // A sequence byte can produce at most 255 output bytes, so a valid
    // header can never declare more than that ratio — reject hostile
    // headers before allocating.
    let body = frame.len() - r.pos;
    if raw_len > body.saturating_mul(255).saturating_add(15) {
        return Err(ArrowError::Corrupt(
            "declared size impossible for body length".into(),
        ));
    }
    let mut out: Vec<u8> = Vec::with_capacity(raw_len);
    loop {
        let token = r.u8()?;
        let lit_len = r.ext_len((token >> 4) as usize)?;
        let literals = r.take(lit_len)?;
        if out.len() + lit_len > raw_len {
            return Err(ArrowError::Corrupt("literal run overflows block".into()));
        }
        out.extend_from_slice(literals);
        if r.done() {
            // Final sequence: literals only.
            if (token & 0x0F) != 0 {
                return Err(ArrowError::Corrupt("dangling match token".into()));
            }
            break;
        }
        let offset = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes")) as usize;
        if offset == 0 || offset > out.len() {
            return Err(ArrowError::Corrupt(format!(
                "match offset {offset} outside {} decoded bytes",
                out.len()
            )));
        }
        let match_len = r.ext_len((token & 0x0F) as usize)? + MIN_MATCH;
        if out.len() + match_len > raw_len {
            return Err(ArrowError::Corrupt("match run overflows block".into()));
        }
        // Byte-at-a-time so overlapping (offset < match_len) copies work.
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    if out.len() != raw_len {
        return Err(ArrowError::Corrupt(format!(
            "decoded {} bytes, header declared {raw_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::batch::RecordBatch;
    use crate::datatype::DataType;
    use crate::ipc;
    use crate::schema::{Field, Schema};
    use bytes::Bytes;
    use proptest::prelude::*;

    fn round_trip(raw: &[u8]) {
        let c = compress(raw);
        assert!(is_compressed(&c));
        assert_eq!(decompress(&c).unwrap(), raw, "{} bytes", raw.len());
    }

    #[test]
    fn round_trips_representative_blocks() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(&[0u8; 10_000]); // RLE-style overlap copies
        round_trip("hello hello hello hello!".as_bytes());
        round_trip(&(0..255u8).cycle().take(4096).collect::<Vec<_>>());
        // Long literal and match runs exercise extended lengths.
        let mut mixed: Vec<u8> = (0..100u32).flat_map(|x| x.to_le_bytes()).collect();
        mixed.extend(std::iter::repeat_n(7u8, 1000));
        mixed.extend((0..50u8).map(|x| x.wrapping_mul(17)));
        round_trip(&mixed);
    }

    #[test]
    fn repetitive_input_shrinks() {
        let raw: Vec<u8> = std::iter::repeat_n(b"abcdefgh".as_slice(), 512)
            .flatten()
            .copied()
            .collect();
        let c = compress(&raw);
        assert!(c.len() * 4 < raw.len(), "{} !< {} / 4", c.len(), raw.len());
    }

    #[test]
    fn maybe_compress_never_grows() {
        // Random-ish incompressible bytes fall back to the original.
        let raw: Vec<u8> = (0u32..200)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let kept = maybe_compress(&raw);
        assert!(kept.len() <= raw.len());
        if !is_compressed(&kept) {
            assert_eq!(kept, raw);
        }
        // Compressible bytes do compress.
        let zeros = vec![0u8; 4096];
        let c = maybe_compress(&zeros);
        assert!(is_compressed(&c) && c.len() < zeros.len());
        assert_eq!(decompress(&c).unwrap(), zeros);
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(decompress(b"").is_err());
        assert!(decompress(b"SKL").is_err());
        assert!(decompress(b"XXXX\x00\x00\x00\x00").is_err());
        // Declared size beyond the cap.
        let mut huge = COMPRESSED_MAGIC.to_vec();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(decompress(&huge).is_err());
        // Declared size impossible for the body length.
        let mut lying = COMPRESSED_MAGIC.to_vec();
        lying.extend_from_slice(&1_000_000u32.to_le_bytes());
        lying.push(0x00);
        assert!(decompress(&lying).is_err());
    }

    #[test]
    fn truncations_and_bit_flips_never_panic() {
        // A compressed IPC frame, as a task stores it. Every truncation is
        // an error and every single-bit flip decodes to an error or a
        // batch — through `decompress` and through `ipc::decode_payload`
        // — never a panic.
        let batch = RecordBatch::try_new(
            Schema::new(vec![Field::new("s", DataType::Utf8, false)]),
            vec![Array::from_utf8(&["skadi shuffle frame"; 64])],
        )
        .unwrap();
        let c = compress(ipc::encode(&batch).as_slice());
        assert_eq!(ipc::decode_payload(Bytes::from(c.clone())).unwrap(), batch);
        for cut in 0..c.len() {
            let _ = decompress(&c[..cut]);
            assert!(ipc::decode_payload(Bytes::from(c[..cut].to_vec())).is_err());
        }
        for i in 0..c.len() {
            for bit in 0..8 {
                let mut m = c.clone();
                m[i] ^= 1 << bit;
                if let Ok(out) = decompress(&m) {
                    // A surviving decode must still honor the header.
                    assert!(out.len() <= MAX_DECOMPRESSED);
                }
                let _ = ipc::decode_payload(Bytes::from(m));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_round_trip(raw in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let c = compress(&raw);
            prop_assert_eq!(decompress(&c).unwrap(), raw);
        }

        #[test]
        fn prop_junk_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decompress(&junk);
            let _ = ipc::decode_payload(Bytes::from(junk.clone()));
            let mut framed = COMPRESSED_MAGIC.to_vec();
            framed.extend_from_slice(&junk);
            let _ = decompress(&framed);
            let _ = ipc::decode_payload(Bytes::from(framed));
        }

        #[test]
        fn prop_repetition_round_trips_through_overlap(
            unit in proptest::collection::vec(any::<u8>(), 1..16),
            reps in 1usize..200,
        ) {
            let raw: Vec<u8> = std::iter::repeat_n(unit.as_slice(), reps).flatten().copied().collect();
            let c = compress(&raw);
            prop_assert_eq!(decompress(&c).unwrap(), raw);
        }
    }
}
