//! Per-page prefix suppression.
//!
//! SQL Server PAGE compression stores, per column per page, an *anchor*
//! value; each value then records how many leading bytes it shares with the
//! anchor plus its remaining suffix (§2.1). We pick the median value of the
//! page as the anchor — on sorted index pages values cluster, so the median
//! maximizes total shared prefix without an O(n²) search.
//!
//! Block layout:
//! ```text
//! [anchor_len: u16][anchor bytes]
//! [n: u16]
//! n × ( [match_len: u8][suffix_len: u16][suffix bytes] )
//! ```

use cadb_common::{CadbError, Result};

/// Pick the anchor value for a page: the median by byte-string order.
/// On sorted index pages values cluster, so the median maximizes total
/// shared prefix without an O(n²) search.
pub fn choose_anchor(values: &[Vec<u8>]) -> Vec<u8> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].cmp(&values[b]));
    values[idx[idx.len() / 2]].clone()
}

/// Prefix-encode a single value against an anchor:
/// `[match_len: u8][suffix bytes]`.
pub fn encode_one(anchor: &[u8], v: &[u8]) -> Vec<u8> {
    let m = common_prefix_len(anchor, v).min(255);
    let mut out = Vec::with_capacity(1 + v.len() - m);
    out.push(m as u8);
    out.extend_from_slice(&v[m..]);
    out
}

/// Invert [`encode_one`].
pub fn decode_one(anchor: &[u8], enc: &[u8]) -> Result<Vec<u8>> {
    let m = *enc
        .first()
        .ok_or_else(|| CadbError::Storage("empty prefix-encoded value".into()))?
        as usize;
    if m > anchor.len() {
        return Err(CadbError::Storage("prefix match exceeds anchor".into()));
    }
    let mut v = Vec::with_capacity(m + enc.len() - 1);
    v.extend_from_slice(&anchor[..m]);
    v.extend_from_slice(&enc[1..]);
    Ok(v)
}

/// Encode a set of byte-strings with prefix suppression against an anchor.
pub fn encode(values: &[Vec<u8>]) -> Vec<u8> {
    let anchor = choose_anchor(values);
    let mut out = Vec::with_capacity(anchor.len() + 4 + values.len() * 3);
    out.extend_from_slice(&(anchor.len() as u16).to_le_bytes());
    out.extend_from_slice(&anchor);
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        let enc = encode_one(&anchor, v);
        let suffix_len = enc.len() - 1;
        out.push(enc[0]);
        out.extend_from_slice(&(suffix_len as u16).to_le_bytes());
        out.extend_from_slice(&enc[1..]);
    }
    out
}

/// Decode a prefix-suppressed block back into the original byte-strings.
pub fn decode(block: &[u8]) -> Result<Vec<Vec<u8>>> {
    let mut pos = 0usize;
    let anchor_len = read_u16(block, &mut pos)? as usize;
    let anchor = read_slice(block, &mut pos, anchor_len)?.to_vec();
    let n = read_u16(block, &mut pos)? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let m = *block
            .get(pos)
            .ok_or_else(|| CadbError::Storage("prefix block truncated".into()))?
            as usize;
        pos += 1;
        let suffix_len = read_u16(block, &mut pos)? as usize;
        let suffix = read_slice(block, &mut pos, suffix_len)?;
        if m > anchor.len() {
            return Err(CadbError::Storage("prefix match exceeds anchor".into()));
        }
        let mut v = Vec::with_capacity(m + suffix.len());
        v.extend_from_slice(&anchor[..m]);
        v.extend_from_slice(suffix);
        out.push(v);
    }
    Ok(out)
}

pub(crate) fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

pub(crate) fn read_u16(block: &[u8], pos: &mut usize) -> Result<u16> {
    let b = block
        .get(*pos..*pos + 2)
        .ok_or_else(|| CadbError::Storage("block truncated reading u16".into()))?;
    *pos += 2;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

pub(crate) fn read_u32(block: &[u8], pos: &mut usize) -> Result<u32> {
    let b = block
        .get(*pos..*pos + 4)
        .ok_or_else(|| CadbError::Storage("block truncated reading u32".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

pub(crate) fn read_slice<'a>(block: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let s = block
        .get(*pos..*pos + len)
        .ok_or_else(|| CadbError::Storage("block truncated reading slice".into()))?;
    *pos += len;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_shared_prefixes() {
        let vals: Vec<Vec<u8>> = ["aaabc", "aaacd", "aaade", "aaabc"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        let block = encode(&vals);
        assert_eq!(decode(&block).unwrap(), vals);
        // The paper's example: {aaabc, aaacd, aaade} share "aaa"; with the
        // anchor we should beat the plain concatenation (20 bytes payload).
        let plain: usize = vals.iter().map(|v| v.len() + 3).sum::<usize>() + 4;
        assert!(block.len() < plain);
    }

    #[test]
    fn empty_input() {
        let block = encode(&[]);
        assert!(decode(&block).unwrap().is_empty());
    }

    #[test]
    fn disjoint_values_still_round_trip() {
        let vals: Vec<Vec<u8>> = vec![b"xyz".to_vec(), b"abc".to_vec(), vec![], b"q".to_vec()];
        let block = encode(&vals);
        assert_eq!(decode(&block).unwrap(), vals);
    }

    #[test]
    fn truncated_block_errors() {
        let vals = vec![b"hello".to_vec()];
        let block = encode(&vals);
        for cut in 0..block.len() {
            assert!(decode(&block[..cut]).is_err(), "cut at {cut}");
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip(vals in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 0..50)) {
            let block = encode(&vals);
            prop_assert_eq!(decode(&block).unwrap(), vals);
        }

        #[test]
        fn prop_identical_values_compress(v in proptest::collection::vec(any::<u8>(), 8..32),
                                          n in 4usize..40) {
            let vals: Vec<Vec<u8>> = (0..n).map(|_| v.clone()).collect();
            let block = encode(&vals);
            let plain: usize = vals.iter().map(|x| x.len()).sum();
            // All-identical values: every value collapses to a match against
            // the anchor, so the block must be far below plain payload.
            prop_assert!(block.len() < plain / 2 + v.len() + 8);
        }
    }
}
