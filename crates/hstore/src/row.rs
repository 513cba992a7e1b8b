//! Rows, values, and order-preserving composite-key encoding.
//!
//! Accessors and the key encoder are fully typed: a malformed row (wrong
//! column type, a non-indexable double in a key column) surfaces as a
//! [`MemtreeError::Schema`] the transaction layer can reject, rather than
//! a panic that would take a serve worker down with it.

/// A column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// 64-bit signed integer.
    I64(i64),
    /// UTF-8 string (NUL-free, as all OLTP benchmark strings are).
    Str(String),
    /// Double (money amounts etc.; never indexed).
    F64(f64),
}

impl Val {
    /// Integer accessor; [`MemtreeError::Schema`] on any other variant.
    pub fn as_i64(&self) -> Result<i64, MemtreeError> {
        match self {
            Val::I64(v) => Ok(*v),
            _ => Err(MemtreeError::schema("val-accessor", "I64", format!("{self:?}"))),
        }
    }

    /// String accessor; [`MemtreeError::Schema`] on any other variant.
    pub fn as_str(&self) -> Result<&str, MemtreeError> {
        match self {
            Val::Str(s) => Ok(s),
            _ => Err(MemtreeError::schema("val-accessor", "Str", format!("{self:?}"))),
        }
    }

    /// Double accessor; [`MemtreeError::Schema`] on any other variant.
    pub fn as_f64(&self) -> Result<f64, MemtreeError> {
        match self {
            Val::F64(v) => Ok(*v),
            _ => Err(MemtreeError::schema("val-accessor", "F64", format!("{self:?}"))),
        }
    }

    /// Appends this value's order-preserving encoding to `out`.
    ///
    /// Integers map sign-flipped big-endian (total order over i64);
    /// strings append their bytes plus a 0x00 terminator so shorter
    /// strings sort before their extensions in composite keys. Doubles
    /// are not indexable ([`MemtreeError::Schema`]); `out` is unchanged
    /// on error.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), MemtreeError> {
        match self {
            Val::I64(v) => out.extend_from_slice(&((*v as u64) ^ (1 << 63)).to_be_bytes()),
            Val::Str(s) => {
                debug_assert!(!s.as_bytes().contains(&0));
                out.extend_from_slice(s.as_bytes());
                out.push(0);
            }
            Val::F64(_) => {
                return Err(MemtreeError::schema(
                    "key-encoder",
                    "indexable value (I64 or Str)",
                    format!("{self:?}"),
                ))
            }
        }
        Ok(())
    }

    /// Approximate heap bytes of the value.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Val::Str(s) => s.capacity(),
            _ => 0,
        }
    }
}

/// A table row.
pub type Row = Vec<Val>;

/// Encodes a composite key from the given column positions of a row.
pub fn encode_key(row: &Row, cols: &[usize]) -> Result<Vec<u8>, MemtreeError> {
    let mut out = Vec::with_capacity(cols.len() * 9);
    for &c in cols {
        row[c].encode_into(&mut out)?;
    }
    Ok(out)
}

/// Encodes a composite key directly from values.
pub fn encode_vals(vals: &[Val]) -> Result<Vec<u8>, MemtreeError> {
    let mut out = Vec::with_capacity(vals.len() * 9);
    for v in vals {
        v.encode_into(&mut out)?;
    }
    Ok(out)
}

/// Approximate in-memory bytes of a row (inline enum + string heaps).
pub fn row_bytes(row: &Row) -> usize {
    row.len() * std::mem::size_of::<Val>() + row.iter().map(Val::heap_bytes).sum::<usize>()
}

// ---- anti-cache tuple serialization ------------------------------------
//
// Evicted tuples travel through the anti-cache as a flat byte image (then
// compressed and checksum-framed by `memtree-compress`). Layout, all
// little-endian: `u32` tuple count, then per tuple `u16` table id, `u32`
// slot, `u16` column count, then per column a tag byte (0=I64, 1=Str,
// 2=F64) and its payload (i64 / u32 len + bytes / f64 bits).

use memtree_common::codec::{put_bytes, Reader};
use memtree_common::error::MemtreeError;

/// Serializes an eviction batch into a flat byte image.
pub fn encode_tuples(tuples: &[(u16, u32, Row)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * tuples.len());
    out.extend_from_slice(&(tuples.len() as u32).to_le_bytes());
    for (tbl, slot, row) in tuples {
        out.extend_from_slice(&tbl.to_le_bytes());
        out.extend_from_slice(&slot.to_le_bytes());
        out.extend_from_slice(&(row.len() as u16).to_le_bytes());
        for val in row {
            match val {
                Val::I64(v) => {
                    out.push(0);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                Val::Str(s) => {
                    out.push(1);
                    put_bytes(&mut out, s.as_bytes());
                }
                Val::F64(v) => {
                    out.push(2);
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
        }
    }
    out
}

/// Deserializes an eviction batch. Returns
/// [`MemtreeError::Corruption`] on any structural damage; never panics.
pub fn decode_tuples(bytes: &[u8]) -> Result<Vec<(u16, u32, Row)>, MemtreeError> {
    const CTX: &str = "anticache-tuples";
    let mut r = Reader::new(bytes);
    // A tuple takes at least its 8 header bytes, a column at least its
    // tag and a 4-byte string length.
    let count = r.count::<u32>(8, CTX)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let tbl = r.u16(CTX)?;
        let slot = r.u32(CTX)?;
        let ncols = r.count::<u16>(5, CTX)?;
        let mut row = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            row.push(match r.u8(CTX)? {
                0 => Val::I64(r.u64(CTX)? as i64),
                1 => {
                    let s = std::str::from_utf8(r.bytes::<u32>(CTX)?).map_err(|e| {
                        MemtreeError::corruption(CTX, format!("non-UTF-8 string column: {e}"))
                    })?;
                    Val::Str(s.to_string())
                }
                2 => Val::F64(f64::from_bits(r.u64(CTX)?)),
                t => return Err(MemtreeError::corruption(CTX, format!("unknown value tag {t}"))),
            });
        }
        out.push((tbl, slot, row));
    }
    r.done(CTX)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_encoding_is_order_preserving_over_sign() {
        let vals = [-5i64, -1, 0, 1, 42, i64::MIN, i64::MAX];
        let mut pairs: Vec<(Vec<u8>, i64)> = vals
            .iter()
            .map(|&v| (encode_vals(&[Val::I64(v)]).unwrap(), v))
            .collect();
        pairs.sort();
        let sorted: Vec<i64> = pairs.iter().map(|(_, v)| *v).collect();
        let mut expect = vals.to_vec();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn composite_keys_sort_lexicographically() {
        let a = encode_vals(&[Val::I64(1), Val::Str("apple".into())]).unwrap();
        let b = encode_vals(&[Val::I64(1), Val::Str("apples".into())]).unwrap();
        let c = encode_vals(&[Val::I64(2), Val::Str("a".into())]).unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn string_terminator_orders_prefixes() {
        let short = encode_vals(&[Val::Str("ab".into()), Val::I64(9)]).unwrap();
        let long = encode_vals(&[Val::Str("abc".into()), Val::I64(0)]).unwrap();
        assert!(short < long);
    }

    #[test]
    fn schema_violations_are_typed_not_panics() {
        let v = Val::F64(1.5);
        assert!(matches!(v.as_i64(), Err(MemtreeError::Schema { expected: "I64", .. })));
        assert!(matches!(v.as_str(), Err(MemtreeError::Schema { expected: "Str", .. })));
        assert!(matches!(Val::I64(3).as_f64(), Err(MemtreeError::Schema { .. })));
        assert_eq!(Val::I64(3).as_i64().unwrap(), 3);
        assert_eq!(Val::Str("x".into()).as_str().unwrap(), "x");
        assert_eq!(v.as_f64().unwrap(), 1.5);
        // A double in a key column rejects the encode and leaves the
        // buffer untouched.
        let mut out = vec![7u8];
        let err = encode_vals(&[Val::I64(1), Val::F64(0.5)]).unwrap_err();
        assert!(matches!(err, MemtreeError::Schema { context: "key-encoder", .. }));
        assert!(Val::F64(0.5).encode_into(&mut out).is_err());
        assert_eq!(out, vec![7u8]);
        assert!(encode_key(&vec![Val::F64(9.0)], &[0]).is_err());
    }

    #[test]
    fn tuples_roundtrip() {
        let tuples = vec![
            (0u16, 7u32, vec![Val::I64(-3), Val::Str("hello".into()), Val::F64(1.25)]),
            (9, 100_000, vec![]),
            (1, 0, vec![Val::Str(String::new())]),
        ];
        let bytes = encode_tuples(&tuples);
        assert_eq!(decode_tuples(&bytes).unwrap(), tuples);
        assert_eq!(decode_tuples(&encode_tuples(&[])).unwrap(), vec![]);
    }

    #[test]
    fn corrupt_tuple_images_error_never_panic() {
        let tuples = vec![(2u16, 5u32, vec![Val::I64(1), Val::Str("abcd".into())])];
        let bytes = encode_tuples(&tuples);
        for cut in 0..bytes.len() {
            assert!(decode_tuples(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Byte garbage must decode or error, never panic. (The checksum
        // frame above this layer catches flips; this is defense in depth.)
        for seed in 0..64u8 {
            let junk: Vec<u8> = (0..97).map(|i| seed.wrapping_mul(31).wrapping_add(i)).collect();
            let _ = decode_tuples(&junk);
        }
    }
}
