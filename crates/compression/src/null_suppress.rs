//! NULL/blank suppression (ROW compression).
//!
//! Mirrors SQL Server ROW compression (§2.1, \[13\]): each value is stored in
//! its minimal significant form —
//!
//! * numerics drop trailing sign-extension bytes of their little-endian
//!   two's-complement representation (a small positive `BIGINT` takes 1–2
//!   bytes instead of 8);
//! * `CHAR(n)` drops trailing blank padding;
//! * `VARCHAR` is already minimal and passes through unchanged.
//!
//! Compression is per value, so the compressed size of a set of rows does
//! **not** depend on their order: this is the canonical ORD-IND method.

use cadb_common::DataType;

/// Suppress a canonical value byte-string into its minimal form.
pub fn suppress(canonical: &[u8], dtype: &DataType) -> Vec<u8> {
    canonical[..suppressed_len(canonical, dtype)].to_vec()
}

/// Length of the suppressed form of `canonical`. The suppressed form is
/// always a prefix of the canonical bytes, so this is all a size-only
/// measurement needs.
pub(crate) fn suppressed_len(canonical: &[u8], dtype: &DataType) -> usize {
    match dtype {
        DataType::Int | DataType::Decimal { .. } | DataType::Date => twos_complement_len(canonical),
        DataType::Char { .. } => canonical
            .iter()
            .rposition(|&b| b != b' ')
            .map_or(0, |p| p + 1),
        DataType::Varchar { .. } => canonical.len(),
    }
}

/// Re-expand a suppressed byte-string to canonical form.
pub fn expand(suppressed: &[u8], dtype: &DataType) -> Vec<u8> {
    match dtype {
        DataType::Int | DataType::Decimal { .. } => expand_twos_complement(suppressed, 8),
        DataType::Date => expand_twos_complement(suppressed, 4),
        DataType::Char { len } => {
            let mut out = suppressed.to_vec();
            out.resize(*len as usize, b' ');
            out
        }
        DataType::Varchar { .. } => suppressed.to_vec(),
    }
}

/// Length of the minimal two's-complement little-endian form: trailing
/// bytes that are pure sign extension drop. The empty string encodes zero.
fn twos_complement_len(le: &[u8]) -> usize {
    let mut end = le.len();
    while end > 0 {
        let last = le[end - 1];
        if last == 0x00 {
            // Droppable iff the value stays non-negative: the new last byte
            // must have its high bit clear (or the value becomes empty = 0).
            if end == 1 || le[end - 2] & 0x80 == 0 {
                end -= 1;
                continue;
            }
        } else if last == 0xFF {
            // Droppable iff the value stays negative.
            if end > 1 && le[end - 2] & 0x80 != 0 {
                end -= 1;
                continue;
            }
        }
        break;
    }
    end
}

fn expand_twos_complement(minimal: &[u8], width: usize) -> Vec<u8> {
    let mut out = minimal.to_vec();
    let fill = if minimal.last().is_some_and(|b| b & 0x80 != 0) {
        0xFF
    } else {
        0x00
    };
    out.resize(width, fill);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytesrepr::{value_bytes, value_from_bytes};
    use cadb_common::Value;
    use proptest::prelude::*;

    fn roundtrip_int(i: i64) -> usize {
        let t = DataType::Int;
        let canon = value_bytes(&Value::Int(i), &t);
        let s = suppress(&canon, &t);
        let back = expand(&s, &t);
        assert_eq!(back, canon, "value {i}");
        assert_eq!(
            value_from_bytes(&back, &t).unwrap(),
            Value::Int(i),
            "value {i}"
        );
        s.len()
    }

    #[test]
    fn small_ints_shrink() {
        assert_eq!(roundtrip_int(0), 0);
        assert_eq!(roundtrip_int(1), 1);
        assert_eq!(roundtrip_int(127), 1);
        assert_eq!(roundtrip_int(128), 2); // 0x80 needs an explicit 0x00
        assert_eq!(roundtrip_int(-1), 1);
        assert_eq!(roundtrip_int(-128), 1);
        assert_eq!(roundtrip_int(-129), 2);
        assert_eq!(roundtrip_int(i64::MAX), 8);
        assert_eq!(roundtrip_int(i64::MIN), 8);
    }

    #[test]
    fn char_padding_suppressed() {
        let t = DataType::Char { len: 10 };
        let canon = value_bytes(&Value::Str("ca".into()), &t);
        let s = suppress(&canon, &t);
        assert_eq!(s, b"ca");
        assert_eq!(expand(&s, &t), canon);
    }

    #[test]
    fn all_blank_char_suppresses_to_empty() {
        let t = DataType::Char { len: 4 };
        let canon = value_bytes(&Value::Str("".into()), &t);
        assert_eq!(canon, b"    ");
        let s = suppress(&canon, &t);
        assert!(s.is_empty());
        assert_eq!(expand(&s, &t), canon);
    }

    #[test]
    fn varchar_pass_through() {
        let t = DataType::Varchar { max_len: 20 };
        let canon = value_bytes(&Value::Str("hello".into()), &t);
        assert_eq!(suppress(&canon, &t), canon);
        assert_eq!(expand(&canon, &t), canon);
    }

    #[test]
    fn internal_blanks_preserved() {
        let t = DataType::Char { len: 8 };
        let canon = value_bytes(&Value::Str("a b".into()), &t);
        let s = suppress(&canon, &t);
        assert_eq!(s, b"a b");
        assert_eq!(expand(&s, &t), canon);
    }

    proptest! {
        #[test]
        fn prop_int_roundtrip(i in any::<i64>()) {
            roundtrip_int(i);
        }

        #[test]
        fn prop_date_roundtrip(d in any::<i32>()) {
            let t = DataType::Date;
            let canon = value_bytes(&Value::Int(d as i64), &t);
            let s = suppress(&canon, &t);
            prop_assert!(s.len() <= 4);
            prop_assert_eq!(expand(&s, &t), canon);
        }

        #[test]
        fn prop_char_roundtrip(s in "[a-z ]{0,12}") {
            let trimmed = s.trim_end_matches(' ').to_string();
            let t = DataType::Char { len: 12 };
            let canon = value_bytes(&Value::Str(trimmed.clone()), &t);
            let sup = suppress(&canon, &t);
            prop_assert_eq!(expand(&sup, &t), canon);
        }

        #[test]
        fn prop_suppressed_never_longer(i in any::<i64>()) {
            let t = DataType::Int;
            let canon = value_bytes(&Value::Int(i), &t);
            prop_assert!(suppress(&canon, &t).len() <= canon.len());
        }
    }
}
