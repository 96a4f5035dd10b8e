//! Framed wire format with a zero-copy decode path.
//!
//! This stands in for Arrow IPC: encode writes the schema header followed
//! by the raw column buffers; decode reconstructs arrays whose buffers
//! *alias* the wire bytes (O(1) per buffer, no per-value work). Experiment
//! E9 contrasts this with [`crate::marshal`], the conventional
//! row-at-a-time baseline.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "SKAR" | version u8 | ncols u16 | nrows u64
//! ncols x field:  name_len u16 | name bytes | type tag u8 | nullable u8
//! ncols x column: has_validity u8 [| validity bits ceil(nrows/8)]
//!                 Int64/Float64: values (nrows * 8)
//!                 Bool:          value bits ceil(nrows/8)
//!                 Utf8:          offsets ((nrows+1) * 4) | data_len u64 | data
//!                 DictUtf8:      keys (nrows * 4) | dict_len u64
//!                                | dict offsets ((dict_len+1) * 4)
//!                                | dict data_len u64 | dict data
//! ```

use bytes::Bytes;

use crate::array::{Array, BoolArray, DictUtf8Array, Float64Array, Int64Array, Utf8Array};
use crate::batch::RecordBatch;
use crate::buffer::{Bitmap, Buffer};
use crate::datatype::DataType;
use crate::error::ArrowError;
use crate::schema::{Field, Schema};

const MAGIC: &[u8; 4] = b"SKAR";
const VERSION: u8 = 1;

/// Encodes a batch into a self-describing frame.
pub fn encode(batch: &RecordBatch) -> Bytes {
    let mut out: Vec<u8> = Vec::with_capacity(batch.byte_size() + 64);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(batch.num_columns() as u16).to_le_bytes());
    out.extend_from_slice(&(batch.num_rows() as u64).to_le_bytes());

    for field in batch.schema().fields() {
        let name = field.name.as_bytes();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.push(field.data_type.tag());
        out.push(field.nullable as u8);
    }

    for col in batch.columns() {
        let validity = match col {
            Array::Int64(a) => a.validity(),
            Array::Float64(a) => a.validity(),
            Array::Bool(a) => a.validity(),
            Array::Utf8(a) => a.validity(),
            Array::DictUtf8(a) => a.validity(),
        };
        match validity {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(v.buffer().as_slice());
            }
            None => out.push(0),
        }
        match col {
            Array::Int64(a) => out.extend_from_slice(a.values().as_slice()),
            Array::Float64(a) => out.extend_from_slice(a.values().as_slice()),
            Array::Bool(a) => out.extend_from_slice(a.values().buffer().as_slice()),
            Array::Utf8(a) => {
                out.extend_from_slice(a.offsets().as_slice());
                out.extend_from_slice(&(a.data().len() as u64).to_le_bytes());
                out.extend_from_slice(a.data().as_slice());
            }
            Array::DictUtf8(a) => {
                out.extend_from_slice(&a.keys().as_slice()[..a.len() * 4]);
                let dict = a.dictionary();
                out.extend_from_slice(&(dict.len() as u64).to_le_bytes());
                out.extend_from_slice(&dict.offsets().as_slice()[..(dict.len() + 1) * 4]);
                out.extend_from_slice(&(dict.data().len() as u64).to_le_bytes());
                out.extend_from_slice(dict.data().as_slice());
            }
        }
    }
    Bytes::from(out)
}

/// A bounds-checked cursor over shared bytes that can hand out aliasing
/// sub-buffers.
struct Cursor {
    data: Bytes,
    pos: usize,
}

impl Cursor {
    fn new(data: Bytes) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<Bytes, ArrowError> {
        // `n` may come from a corrupt header; checked add so a huge value
        // is reported as truncation rather than overflowing.
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(ArrowError::Corrupt(format!(
                "truncated frame: need {n} bytes at offset {}, have {}",
                self.pos,
                self.data.len() - self.pos
            )));
        };
        let b = self.data.slice(self.pos..end);
        self.pos = end;
        Ok(b)
    }

    fn u8(&mut self) -> Result<u8, ArrowError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArrowError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> Result<u64, ArrowError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.as_ref().try_into().expect("8 bytes")))
    }
}

/// `count * width` with overflow reported as corruption: the counts come
/// straight from the (possibly hostile) frame header.
fn frame_size(count: usize, width: usize) -> Result<usize, ArrowError> {
    count
        .checked_mul(width)
        .ok_or_else(|| ArrowError::Corrupt(format!("frame size overflow: {count} x {width}")))
}

/// Decodes a frame produced by [`encode`]. Column buffers alias `data`.
pub fn decode(data: Bytes) -> Result<RecordBatch, ArrowError> {
    let mut cur = Cursor::new(data);
    let magic = cur.take(4)?;
    if magic.as_ref() != MAGIC {
        return Err(ArrowError::Corrupt("bad magic".into()));
    }
    let version = cur.u8()?;
    if version != VERSION {
        return Err(ArrowError::Corrupt(format!("unknown version {version}")));
    }
    let ncols = cur.u16()? as usize;
    let nrows = cur.u64()? as usize;

    let mut fields = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name_len = cur.u16()? as usize;
        let name_bytes = cur.take(name_len)?;
        let name = std::str::from_utf8(&name_bytes)
            .map_err(|_| ArrowError::Corrupt("field name is not UTF-8".into()))?
            .to_string();
        let tag = cur.u8()?;
        let dt = DataType::from_tag(tag)
            .ok_or_else(|| ArrowError::Corrupt(format!("unknown type tag {tag}")))?;
        let nullable = cur.u8()? != 0;
        fields.push(Field::new(name, dt, nullable));
    }
    let schema = Schema::new(fields);

    let bitmap_bytes = nrows.div_ceil(8);
    let mut columns = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let has_validity = cur.u8()? != 0;
        let validity = if has_validity {
            let bits = Buffer::from_bytes(cur.take(bitmap_bytes)?);
            Some(Bitmap::from_buffer(bits, nrows))
        } else {
            None
        };
        let dt = schema.field(c).data_type;
        let array = match dt {
            DataType::Int64 => {
                let values = Buffer::from_bytes(cur.take(frame_size(nrows, 8)?)?);
                Array::Int64(Int64Array::from_parts(values, validity, nrows))
            }
            DataType::Float64 => {
                let values = Buffer::from_bytes(cur.take(frame_size(nrows, 8)?)?);
                Array::Float64(Float64Array::from_parts(values, validity, nrows))
            }
            DataType::Bool => {
                let bits = Buffer::from_bytes(cur.take(bitmap_bytes)?);
                Array::Bool(BoolArray::from_parts(
                    Bitmap::from_buffer(bits, nrows),
                    validity,
                ))
            }
            DataType::Utf8 => {
                let noffs = nrows
                    .checked_add(1)
                    .ok_or_else(|| ArrowError::Corrupt("row count overflow".into()))?;
                let offsets = Buffer::from_bytes(cur.take(frame_size(noffs, 4)?)?);
                let data_len = cur.u64()? as usize;
                let strings = Buffer::from_bytes(cur.take(data_len)?);
                // Validate the offsets so later accesses cannot slice out
                // of bounds or split UTF-8.
                let mut prev = 0i32;
                for i in 0..=nrows {
                    let o = offsets.get_i32(i);
                    if o < prev || o as usize > data_len {
                        return Err(ArrowError::Corrupt(format!("bad utf8 offset {o} at {i}")));
                    }
                    prev = o;
                }
                std::str::from_utf8(strings.as_slice())
                    .map_err(|_| ArrowError::Corrupt("utf8 column is not UTF-8".into()))?;
                Array::Utf8(Utf8Array::from_parts(offsets, strings, validity, nrows))
            }
            DataType::DictUtf8 => {
                let keys = Buffer::from_bytes(cur.take(frame_size(nrows, 4)?)?);
                let dict_len = cur.u64()? as usize;
                if dict_len > u32::MAX as usize {
                    return Err(ArrowError::Corrupt(format!(
                        "dictionary of {dict_len} entries exceeds u32 keys"
                    )));
                }
                let offsets = Buffer::from_bytes(cur.take(frame_size(dict_len + 1, 4)?)?);
                let data_len = cur.u64()? as usize;
                let strings = Buffer::from_bytes(cur.take(data_len)?);
                // Validate the dictionary exactly like a Utf8 column.
                let mut prev = 0i32;
                for i in 0..=dict_len {
                    let o = offsets.get_i32(i);
                    if o < prev || o as usize > data_len {
                        return Err(ArrowError::Corrupt(format!("bad dict offset {o} at {i}")));
                    }
                    prev = o;
                }
                std::str::from_utf8(strings.as_slice())
                    .map_err(|_| ArrowError::Corrupt("dict data is not UTF-8".into()))?;
                // Keys must resolve: valid slots index the dictionary,
                // null slots hold the canonical placeholder 0.
                for (i, k) in keys.iter_u32(nrows).enumerate() {
                    let is_valid = validity.as_ref().is_none_or(|v| v.get(i));
                    if is_valid && k as usize >= dict_len {
                        return Err(ArrowError::Corrupt(format!(
                            "dict key {k} at row {i} outside dictionary of {dict_len}"
                        )));
                    }
                    if !is_valid && k != 0 {
                        return Err(ArrowError::Corrupt(format!(
                            "non-canonical key {k} at null row {i}"
                        )));
                    }
                }
                let dict = Utf8Array::from_parts(offsets, strings, None, dict_len);
                Array::DictUtf8(DictUtf8Array::from_parts(keys, dict, validity, nrows))
            }
        };
        columns.push(array);
    }

    RecordBatch::try_new(schema, columns)
}

/// Decodes a stored or shipped payload: an [`encode`] frame, either plain
/// or wrapped in a [`compression`](crate::compression) block (told apart
/// by magic). A plain frame keeps the zero-copy path — column buffers
/// alias `payload`. Hostile input of either kind yields an error, never a
/// panic.
pub fn decode_payload(payload: Bytes) -> Result<RecordBatch, ArrowError> {
    if crate::compression::is_compressed(&payload) {
        decode(Bytes::from(crate::compression::decompress(&payload)?))
    } else {
        decode(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("score", DataType::Float64, true),
            Field::new("flag", DataType::Bool, true),
            Field::new("name", DataType::Utf8, true),
        ]);
        RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64(vec![1, 2, 3]),
                Array::from_opt_f64(vec![Some(0.5), None, Some(-1.25)]),
                Array::from_opt_bool(vec![Some(true), Some(false), None]),
                Array::from_opt_utf8(vec![Some("alpha"), None, Some("gamma")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_all_types() {
        let b = sample();
        let bytes = encode(&b);
        let back = decode(bytes).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn round_trip_empty_batch() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int64, false)]);
        let b = RecordBatch::empty(schema);
        assert_eq!(decode(encode(&b)).unwrap(), b);
    }

    #[test]
    fn decode_is_zero_copy() {
        let b = sample();
        let bytes = encode(&b);
        let base = bytes.as_ref().as_ptr() as usize;
        let end = base + bytes.len();
        let back = decode(bytes).unwrap();
        // The decoded int column's value buffer points into the frame.
        let col = back.column(0).as_i64().unwrap();
        let p = col.values().as_slice().as_ptr() as usize;
        assert!(p >= base && p < end, "decoded buffer does not alias frame");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode(Bytes::from_static(b"NOPE\x01\x00\x00")).unwrap_err();
        assert!(matches!(err, ArrowError::Corrupt(_)));
    }

    #[test]
    fn truncated_frame_rejected() {
        let bytes = encode(&sample());
        let cut = bytes.slice(0..bytes.len() - 5);
        assert!(matches!(decode(cut), Err(ArrowError::Corrupt(_))));
    }

    #[test]
    fn corrupt_offsets_rejected() {
        let schema = Schema::new(vec![Field::new("s", DataType::Utf8, false)]);
        let b = RecordBatch::try_new(schema, vec![Array::from_utf8(&["ab", "cd"])]).unwrap();
        let mut raw = encode(&b).to_vec();
        // Flip a byte inside the offsets region (last 4-byte offset).
        let data_start = raw.len() - 4; // "abcd"
        raw[data_start - 8 - 2] = 0xFF; // Corrupt the middle offset.
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(ArrowError::Corrupt(_))
        ));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut raw = encode(&sample()).to_vec();
        raw[4] = 99;
        assert!(matches!(
            decode(Bytes::from(raw)),
            Err(ArrowError::Corrupt(_))
        ));
    }

    fn dict_sample() -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64, false),
            Field::new("kind", DataType::DictUtf8, true),
        ]);
        RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64(vec![1, 2, 3, 4, 5]),
                Array::from_opt_dict_utf8(vec![
                    Some("click"),
                    Some("view"),
                    None,
                    Some("click"),
                    Some("click"),
                ]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dict_round_trip() {
        let b = dict_sample();
        let back = decode(encode(&b)).unwrap();
        assert_eq!(b, back);
        // Still dictionary-encoded after the round trip, not decoded.
        assert_eq!(back.column(1).data_type(), DataType::DictUtf8);
        let d = back.column(1).as_dict_utf8().unwrap();
        assert_eq!(d.dictionary().len(), 2);
    }

    #[test]
    fn dict_frame_is_smaller_than_plain_for_repetitive_strings() {
        let n = 2000;
        let plain: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "click" } else { "view" })
            .collect();
        let pb = RecordBatch::try_new(
            Schema::new(vec![Field::new("kind", DataType::Utf8, false)]),
            vec![Array::from_utf8(&plain)],
        )
        .unwrap();
        let db = RecordBatch::try_new(
            Schema::new(vec![Field::new("kind", DataType::DictUtf8, false)]),
            vec![Array::from_dict_utf8(&plain)],
        )
        .unwrap();
        let (pe, de) = (encode(&pb), encode(&db));
        assert!(
            de.len() < pe.len(),
            "dict frame {} !< plain frame {}",
            de.len(),
            pe.len()
        );
    }

    #[test]
    fn dict_out_of_range_key_rejected() {
        let mut raw = encode(&dict_sample()).to_vec();
        // Keys for column 1 sit right after its validity byte + bitmap.
        // Find them by corrupting every byte in turn and requiring that
        // the decoder never panics and that at least one corruption is
        // caught as an out-of-range key.
        let mut saw_key_error = false;
        for i in 0..raw.len() {
            let orig = raw[i];
            raw[i] = 0xEE;
            match decode(Bytes::from(raw.clone())) {
                Ok(_) => {}
                Err(ArrowError::Corrupt(msg)) => {
                    if msg.contains("outside dictionary") {
                        saw_key_error = true;
                    }
                }
                Err(_) => {}
            }
            raw[i] = orig;
        }
        assert!(saw_key_error, "no corruption tripped the key-range check");
    }

    #[test]
    fn dict_all_null_round_trips() {
        let schema = Schema::new(vec![Field::new("s", DataType::DictUtf8, true)]);
        let b = RecordBatch::try_new(
            schema,
            vec![Array::from_opt_dict_utf8(vec![None, None, None])],
        )
        .unwrap();
        assert_eq!(decode(encode(&b)).unwrap(), b);
    }

    #[test]
    fn large_batch_round_trip() {
        let n = 10_000;
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64, false),
            Field::new("v", DataType::Utf8, false),
        ]);
        let strings: Vec<String> = (0..n).map(|i| format!("value-{i}")).collect();
        let b = RecordBatch::try_new(
            schema,
            vec![
                Array::from_i64((0..n as i64).collect()),
                Array::from_utf8(&strings),
            ],
        )
        .unwrap();
        assert_eq!(decode(encode(&b)).unwrap(), b);
    }
}
