//! Page encoder/decoder: composes the per-column codecs into a full
//! compressed page, column-wise, with per-column null bitmaps.
//!
//! Layout:
//! ```text
//! [n_rows: u16][n_cols: u16]
//! per column:
//!   [tag: u8]                       -- actual encoding used (may fall back)
//!   [null bitmap: ceil(n_rows/8)]
//!   [block_len: u32][block bytes]
//! ```
//!
//! For `CompressionKind::GlobalDict` each column independently falls back to
//! ROW (NULL-suppression) encoding when dictionary ids would be larger than
//! the suppressed values — mirroring how real engines apply dictionary
//! encoding only where it pays.

use crate::bytesrepr::{append_value_bytes, value_from_bytes, value_width};
use crate::global_dict::{self, GlobalDictionary};
use crate::method::CompressionKind;
use crate::null_suppress;
use crate::prefix::{self, read_slice, read_u16, read_u32};
use crate::{local_dict, rle};
use cadb_common::{CadbError, DataType, Result, Row, Value};

/// Per-row header bytes in the uncompressed accounting (slot + status).
pub const ROW_HEADER_BYTES: usize = 4;

/// Everything the page codec needs to know about its environment.
#[derive(Debug, Clone, Copy)]
pub struct PageContext<'a> {
    /// Column types, in stored order.
    pub dtypes: &'a [DataType],
    /// Compression method for the whole page.
    pub kind: CompressionKind,
    /// Per-column global dictionaries; required when `kind == GlobalDict`.
    pub global_dicts: Option<&'a [GlobalDictionary]>,
}

/// A compressed page plus its uncompressed-footprint accounting.
#[derive(Debug, Clone)]
pub struct EncodedPage {
    /// The encoded bytes (this *is* the measured compressed size).
    pub bytes: Vec<u8>,
    /// Number of rows stored.
    pub n_rows: usize,
    /// What the same rows would occupy uncompressed (row headers + null
    /// bitmap + canonical value bytes).
    pub uncompressed_bytes: usize,
}

impl EncodedPage {
    /// Compression fraction of this page (compressed / uncompressed).
    pub fn compression_fraction(&self) -> f64 {
        if self.uncompressed_bytes == 0 {
            1.0
        } else {
            self.bytes.len() as f64 / self.uncompressed_bytes as f64
        }
    }
}

/// Column encoding tags, stored per column in the page. Public so that
/// executors operating directly on encoded pages (see `cadb-exec`) can
/// dispatch on the physical encoding each column actually used — which may
/// differ from the page's [`CompressionKind`] (e.g. the GDICT → NS
/// fallback).
pub mod tag {
    /// Raw canonical value bytes, back to back.
    pub const PLAIN: u8 = 0;
    /// NULL-suppressed values, each with a 2-byte length prefix.
    pub const NS: u8 = 1;
    /// The PAGE pipeline: anchor + prefix suppression + local dictionary.
    pub const PAGE: u8 = 2;
    /// Index-wide dictionary ids.
    pub const GDICT: u8 = 3;
    /// Run-length encoded NULL-suppressed values.
    pub const RLE: u8 = 4;
}

/// Borrowed view of one column's encoded section within a page: the tag it
/// was actually stored with, its null bitmap and its value block. Produced
/// by [`column_sections`]; the executor's per-column vectors are built from
/// this without decoding the whole page.
#[derive(Debug, Clone, Copy)]
pub struct ColumnSection<'a> {
    /// Actual encoding of the block (one of the [`tag`] constants).
    pub tag: u8,
    /// Null bitmap, one bit per row (bit set = NULL).
    pub bitmap: &'a [u8],
    /// The encoded value block (non-null values only).
    pub block: &'a [u8],
}

impl ColumnSection<'_> {
    /// Number of non-NULL values in the first `n_rows` rows.
    pub fn n_non_null(&self, n_rows: usize) -> usize {
        (0..n_rows)
            .filter(|i| self.bitmap[i / 8] & (1 << (i % 8)) == 0)
            .count()
    }

    /// `true` when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.bitmap[i / 8] & (1 << (i % 8)) != 0
    }
}

/// Split an encoded page into its per-column sections without decoding any
/// values. Returns `(n_rows, sections)`; this is the page cursor the
/// vectorized executor walks.
pub fn column_sections(bytes: &[u8]) -> Result<(usize, Vec<ColumnSection<'_>>)> {
    let mut pos = 0usize;
    let n = read_u16(bytes, &mut pos)? as usize;
    let n_cols = read_u16(bytes, &mut pos)? as usize;
    let mut sections = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let used_tag = *bytes
            .get(pos)
            .ok_or_else(|| CadbError::Storage("page truncated at tag".into()))?;
        pos += 1;
        let bitmap = read_slice(bytes, &mut pos, n.div_ceil(8))?;
        let block_len = read_u32(bytes, &mut pos)? as usize;
        let block = read_slice(bytes, &mut pos, block_len)?;
        sections.push(ColumnSection {
            tag: used_tag,
            bitmap,
            block,
        });
    }
    Ok((n, sections))
}

/// Split a [`tag::PAGE`] column block into its `(anchor, local-dict block)`
/// parts. Each dictionary entry / literal in the sub-block is a
/// prefix-encoded, NULL-suppressed value against the anchor.
pub fn split_page_block(block: &[u8]) -> Result<(&[u8], &[u8])> {
    let mut pos = 0usize;
    let anchor_len = read_u16(block, &mut pos)? as usize;
    let anchor = read_slice(block, &mut pos, anchor_len)?;
    Ok((anchor, &block[pos..]))
}

/// Encode one page of rows.
///
/// All rows must have arity `ctx.dtypes.len()`. Returns an error when
/// `GlobalDict` is requested without dictionaries.
pub fn encode_page(rows: &[Row], ctx: &PageContext<'_>) -> Result<EncodedPage> {
    let n = rows.len();
    if n > u16::MAX as usize {
        return Err(CadbError::InvalidArgument(format!(
            "page cannot hold {n} rows"
        )));
    }
    let n_cols = ctx.dtypes.len();
    let mut uncompressed = 0usize;
    for r in rows {
        check_arity(r, n_cols)?;
        uncompressed += ROW_HEADER_BYTES + n_cols.div_ceil(8);
        for (v, t) in r.values.iter().zip(ctx.dtypes) {
            uncompressed += value_width(v, t);
        }
    }

    let mut out = Vec::new();
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&(n_cols as u16).to_le_bytes());

    for (c, dtype) in ctx.dtypes.iter().enumerate() {
        // Null bitmap + the canonical bytes of non-null values.
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        let mut canon: Vec<Vec<u8>> = Vec::with_capacity(n);
        for (i, r) in rows.iter().enumerate() {
            let v = &r.values[c];
            if v.is_null() {
                bitmap[i / 8] |= 1 << (i % 8);
            } else {
                let mut b = Vec::new();
                append_value_bytes(v, dtype, &mut b);
                canon.push(b);
            }
        }

        let (used_tag, block) = encode_column(&canon, dtype, ctx, c)?;
        out.push(used_tag);
        out.extend_from_slice(&bitmap);
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&block);
    }

    Ok(EncodedPage {
        bytes: out,
        n_rows: n,
        uncompressed_bytes: uncompressed,
    })
}

/// The arity check every page encode (and size-only probe) applies.
pub(crate) fn check_arity(row: &Row, n_cols: usize) -> Result<()> {
    if row.arity() != n_cols {
        return Err(CadbError::Schema(format!(
            "row arity {} != page arity {n_cols}",
            row.arity()
        )));
    }
    Ok(())
}

fn encode_column(
    canon: &[Vec<u8>],
    dtype: &DataType,
    ctx: &PageContext<'_>,
    col: usize,
) -> Result<(u8, Vec<u8>)> {
    match ctx.kind {
        CompressionKind::None => {
            let mut block = Vec::new();
            for v in canon {
                block.extend_from_slice(v);
            }
            Ok((tag::PLAIN, block))
        }
        CompressionKind::Row => Ok((tag::NS, encode_ns_block(canon, dtype))),
        CompressionKind::Page => {
            // ROW-compress first, then prefix against the anchor, then the
            // page-local dictionary — the SQL Server PAGE pipeline (App. A.1).
            let ns: Vec<Vec<u8>> = canon
                .iter()
                .map(|v| null_suppress::suppress(v, dtype))
                .collect();
            let anchor = prefix::choose_anchor(&ns);
            let prefixed: Vec<Vec<u8>> =
                ns.iter().map(|v| prefix::encode_one(&anchor, v)).collect();
            let dict_block = local_dict::encode(&prefixed);
            let mut block = Vec::with_capacity(anchor.len() + 2 + dict_block.len());
            block.extend_from_slice(&(anchor.len() as u16).to_le_bytes());
            block.extend_from_slice(&anchor);
            block.extend_from_slice(&dict_block);
            Ok((tag::PAGE, block))
        }
        CompressionKind::GlobalDict => {
            let dicts = ctx.global_dicts.ok_or_else(|| {
                CadbError::InvalidArgument(
                    "GlobalDict compression requires per-column dictionaries".into(),
                )
            })?;
            let dict = dicts.get(col).ok_or_else(|| {
                CadbError::InvalidArgument(format!("no global dictionary for column {col}"))
            })?;
            let gd_block = global_dict::encode(canon, dict)?;
            let ns_block = encode_ns_block(canon, dtype);
            if gd_block.len() < ns_block.len() {
                Ok((tag::GDICT, gd_block))
            } else {
                Ok((tag::NS, ns_block))
            }
        }
        CompressionKind::Rle => {
            let ns: Vec<Vec<u8>> = canon
                .iter()
                .map(|v| null_suppress::suppress(v, dtype))
                .collect();
            Ok((tag::RLE, rle::encode(&ns)))
        }
    }
}

fn encode_ns_block(canon: &[Vec<u8>], dtype: &DataType) -> Vec<u8> {
    let mut block = Vec::new();
    for v in canon {
        let s = null_suppress::suppress(v, dtype);
        block.extend_from_slice(&(s.len() as u16).to_le_bytes());
        block.extend_from_slice(&s);
    }
    block
}

/// Decode a page produced by [`encode_page`].
pub fn decode_page(bytes: &[u8], ctx: &PageContext<'_>) -> Result<Vec<Row>> {
    let (n, sections) = column_sections(bytes)?;
    if sections.len() != ctx.dtypes.len() {
        return Err(CadbError::Schema(format!(
            "page has {} columns, context has {}",
            sections.len(),
            ctx.dtypes.len()
        )));
    }
    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(sections.len());
    for (c, (sec, dtype)) in sections.iter().zip(ctx.dtypes).enumerate() {
        let n_non_null = sec.n_non_null(n);
        let canon = decode_column_values(sec.block, sec.tag, dtype, ctx, c, n_non_null)?;
        if canon.len() != n_non_null {
            return Err(CadbError::Storage(format!(
                "column {c}: decoded {} values, expected {n_non_null}",
                canon.len()
            )));
        }
        let mut vals = Vec::with_capacity(n);
        let mut it = canon.into_iter();
        for i in 0..n {
            if sec.is_null(i) {
                vals.push(Value::Null);
            } else {
                let b = it.next().expect("counted above");
                vals.push(value_from_bytes(&b, dtype)?);
            }
        }
        columns.push(vals);
    }
    // Transpose columns back into rows.
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push(Row::new(
            columns
                .iter_mut()
                .map(|col| std::mem::replace(&mut col[i], Value::Null))
                .collect(),
        ));
    }
    Ok(rows)
}

/// Decode one column block back into the canonical bytes of its non-null
/// values. `used_tag` is the section's actual encoding (a [`tag`]
/// constant), `col` the column ordinal (needed for GDICT dictionaries).
pub fn decode_column_values(
    block: &[u8],
    used_tag: u8,
    dtype: &DataType,
    ctx: &PageContext<'_>,
    col: usize,
    n_non_null: usize,
) -> Result<Vec<Vec<u8>>> {
    match used_tag {
        tag::PLAIN => decode_plain_block(block, dtype, n_non_null),
        tag::NS => {
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(n_non_null);
            for _ in 0..n_non_null {
                let len = read_u16(block, &mut pos)? as usize;
                let s = read_slice(block, &mut pos, len)?;
                out.push(null_suppress::expand(s, dtype));
            }
            Ok(out)
        }
        tag::PAGE => {
            let (anchor, dict_block) = split_page_block(block)?;
            let prefixed = local_dict::decode(dict_block)?;
            prefixed
                .iter()
                .map(|enc| {
                    let ns = prefix::decode_one(anchor, enc)?;
                    Ok(null_suppress::expand(&ns, dtype))
                })
                .collect()
        }
        tag::GDICT => {
            let dicts = ctx.global_dicts.ok_or_else(|| {
                CadbError::InvalidArgument("decoding GDICT page requires dictionaries".into())
            })?;
            let dict = dicts
                .get(col)
                .ok_or_else(|| CadbError::Storage(format!("no dictionary for column {col}")))?;
            global_dict::decode(block, dict)
        }
        tag::RLE => {
            let ns = rle::decode(block)?;
            Ok(ns.iter().map(|s| null_suppress::expand(s, dtype)).collect())
        }
        other => Err(CadbError::Storage(format!("unknown column tag {other}"))),
    }
}

/// Bounded (range) decode of one column block: the canonical bytes of only
/// the non-null values at positions `range` of the column's value stream,
/// without materializing the values outside it.
///
/// This is the decode primitive behind key-range scans: an executor that
/// has already located the leaf rows it cares about (e.g. the boundary
/// leaves of a B+Tree seek) can decode just those positions. How much work
/// is skipped depends on the codec — fixed-width PLAIN blocks slice
/// directly, RLE skips whole runs without expanding them, dictionary
/// codecs (PAGE / GDICT) decode only the dictionary entries the requested
/// codes reference — while variable-width streams (NS, VARCHAR PLAIN)
/// still walk length prefixes up to `range.end` but skip value expansion
/// outside the range.
pub fn decode_column_values_range(
    block: &[u8],
    used_tag: u8,
    dtype: &DataType,
    ctx: &PageContext<'_>,
    col: usize,
    n_non_null: usize,
    range: std::ops::Range<usize>,
) -> Result<Vec<Vec<u8>>> {
    let lo = range.start.min(n_non_null);
    let hi = range.end.min(n_non_null);
    if lo >= hi {
        return Ok(Vec::new());
    }
    match used_tag {
        tag::PLAIN => {
            if matches!(dtype, DataType::Varchar { .. }) {
                // Variable width: walk the length prefixes, expand in range.
                let mut pos = 0usize;
                let mut out = Vec::with_capacity(hi - lo);
                for i in 0..hi {
                    let len = read_u16(block, &mut pos)? as usize;
                    pos -= 2;
                    let s = read_slice(block, &mut pos, len + 2)?;
                    if i >= lo {
                        out.push(s.to_vec());
                    }
                }
                Ok(out)
            } else {
                let w = dtype.fixed_width();
                let mut pos = lo * w;
                let mut out = Vec::with_capacity(hi - lo);
                for _ in lo..hi {
                    out.push(read_slice(block, &mut pos, w)?.to_vec());
                }
                Ok(out)
            }
        }
        tag::NS => {
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(hi - lo);
            for i in 0..hi {
                let len = read_u16(block, &mut pos)? as usize;
                let s = read_slice(block, &mut pos, len)?;
                if i >= lo {
                    out.push(crate::null_suppress::expand(s, dtype));
                }
            }
            Ok(out)
        }
        tag::PAGE => {
            let (anchor, dict_block) = split_page_block(block)?;
            let (raw_dict, tokens) = local_dict::decode_parts(dict_block)?;
            // Decode dictionary entries lazily: only slots the requested
            // token range references are prefix-expanded.
            let mut decoded: Vec<Option<Vec<u8>>> = vec![None; raw_dict.len()];
            let mut out = Vec::with_capacity(hi - lo);
            for t in tokens.into_iter().take(hi).skip(lo) {
                let enc = match t {
                    local_dict::Token::Code(c) => {
                        let c = c as usize;
                        if decoded[c].is_none() {
                            let ns = prefix::decode_one(anchor, &raw_dict[c])?;
                            decoded[c] = Some(crate::null_suppress::expand(&ns, dtype));
                        }
                        decoded[c].clone().expect("filled above")
                    }
                    local_dict::Token::Literal(enc) => {
                        let ns = prefix::decode_one(anchor, &enc)?;
                        crate::null_suppress::expand(&ns, dtype)
                    }
                };
                out.push(enc);
            }
            Ok(out)
        }
        tag::GDICT => {
            let dicts = ctx.global_dicts.ok_or_else(|| {
                CadbError::InvalidArgument("decoding GDICT page requires dictionaries".into())
            })?;
            let dict = dicts
                .get(col)
                .ok_or_else(|| CadbError::Storage(format!("no dictionary for column {col}")))?;
            let ids = global_dict::decode_ids(block)?;
            ids.into_iter()
                .take(hi)
                .skip(lo)
                .map(|id| {
                    dict.entry(id)
                        .map(<[u8]>::to_vec)
                        .ok_or_else(|| CadbError::Storage(format!("gdict id {id} out of range")))
                })
                .collect()
        }
        tag::RLE => {
            // Skip whole runs before the range without expanding them.
            let mut seen = 0usize;
            let mut out = Vec::with_capacity(hi - lo);
            for run in rle::runs(block)? {
                let (len, ns) = run?;
                let run_lo = seen;
                seen += len;
                if seen <= lo {
                    continue;
                }
                let v = crate::null_suppress::expand(ns, dtype);
                let take = seen.min(hi) - run_lo.max(lo);
                out.extend(std::iter::repeat_n(v, take));
                if seen >= hi {
                    break;
                }
            }
            Ok(out)
        }
        other => Err(CadbError::Storage(format!("unknown column tag {other}"))),
    }
}

fn decode_plain_block(block: &[u8], dtype: &DataType, n: usize) -> Result<Vec<Vec<u8>>> {
    let mut out = Vec::with_capacity(n);
    let mut pos = 0usize;
    match dtype {
        DataType::Varchar { .. } => {
            for _ in 0..n {
                let len = read_u16(block, &mut pos)? as usize;
                pos -= 2; // value_from_bytes expects the length prefix too
                let s = read_slice(block, &mut pos, len + 2)?;
                out.push(s.to_vec());
            }
        }
        _ => {
            let w = dtype.fixed_width();
            for _ in 0..n {
                out.push(read_slice(block, &mut pos, w)?.to_vec());
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadb_common::Value;

    fn dtypes() -> Vec<DataType> {
        vec![
            DataType::Int,
            DataType::Char { len: 10 },
            DataType::Varchar { max_len: 20 },
            DataType::Date,
        ]
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64 % 16),
                    Value::Str(format!("st{}", i % 4)),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("comment {}", i % 3))
                    },
                    Value::Int(10_000 + (i as i64 % 30)),
                ])
            })
            .collect()
    }

    fn roundtrip(kind: CompressionKind) -> EncodedPage {
        let d = dtypes();
        let rs = rows(200);
        let dicts: Vec<GlobalDictionary> = (0..d.len())
            .map(|c| {
                GlobalDictionary::build(
                    rs.iter()
                        .filter(|r| !r.values[c].is_null())
                        .map(|r| crate::bytesrepr::value_bytes(&r.values[c], &d[c]))
                        .collect::<Vec<_>>()
                        .iter()
                        .map(|v| v.as_slice()),
                )
            })
            .collect();
        let ctx = PageContext {
            dtypes: &d,
            kind,
            global_dicts: Some(&dicts),
        };
        let page = encode_page(&rs, &ctx).unwrap();
        assert_eq!(decode_page(&page.bytes, &ctx).unwrap(), rs, "{kind}");
        page
    }

    #[test]
    fn all_methods_round_trip() {
        for kind in [CompressionKind::None, CompressionKind::Row]
            .into_iter()
            .chain(CompressionKind::ALL_COMPRESSED)
        {
            roundtrip(kind);
        }
    }

    #[test]
    fn compression_actually_compresses() {
        let plain = roundtrip(CompressionKind::None);
        for kind in CompressionKind::ALL_COMPRESSED {
            let page = roundtrip(kind);
            assert!(
                page.bytes.len() < plain.bytes.len(),
                "{kind}: {} !< {}",
                page.bytes.len(),
                plain.bytes.len()
            );
            assert!(page.compression_fraction() < 1.0, "{kind}");
        }
    }

    #[test]
    fn page_beats_row_on_repetitive_data() {
        // Low-cardinality repeated strings: the dictionary stage must win
        // over plain NULL suppression.
        let row = roundtrip(CompressionKind::Row);
        let page = roundtrip(CompressionKind::Page);
        assert!(page.bytes.len() < row.bytes.len());
    }

    #[test]
    fn empty_page() {
        let d = dtypes();
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Row,
            global_dicts: None,
        };
        let page = encode_page(&[], &ctx).unwrap();
        assert_eq!(page.n_rows, 0);
        assert_eq!(page.uncompressed_bytes, 0);
        assert!(decode_page(&page.bytes, &ctx).unwrap().is_empty());
    }

    #[test]
    fn column_sections_expose_layout_without_decoding() {
        let d = dtypes();
        let rs = rows(100);
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Rle,
            global_dicts: None,
        };
        let page = encode_page(&rs, &ctx).unwrap();
        let (n, sections) = column_sections(&page.bytes).unwrap();
        assert_eq!(n, 100);
        assert_eq!(sections.len(), d.len());
        for sec in &sections {
            assert_eq!(sec.tag, tag::RLE);
        }
        // Column 2 has NULLs every 7th row.
        assert!(sections[2].n_non_null(n) < n);
        assert!(sections[2].is_null(0));
        // Decoding a single section reproduces that column of the rows.
        let canon =
            decode_column_values(sections[0].block, sections[0].tag, &d[0], &ctx, 0, n).unwrap();
        assert_eq!(canon.len(), n);
        assert_eq!(
            value_from_bytes(&canon[5], &d[0]).unwrap(),
            rs[5].values[0].clone()
        );
    }

    #[test]
    fn range_decode_equals_full_decode_sliced_for_every_codec() {
        let d = dtypes();
        let rs = rows(200);
        let dicts: Vec<GlobalDictionary> = (0..d.len())
            .map(|c| {
                GlobalDictionary::build(
                    rs.iter()
                        .filter(|r| !r.values[c].is_null())
                        .map(|r| crate::bytesrepr::value_bytes(&r.values[c], &d[c]))
                        .collect::<Vec<_>>()
                        .iter()
                        .map(|v| v.as_slice()),
                )
            })
            .collect();
        for kind in [CompressionKind::None, CompressionKind::Row]
            .into_iter()
            .chain(CompressionKind::ALL_COMPRESSED)
        {
            let ctx = PageContext {
                dtypes: &d,
                kind,
                global_dicts: Some(&dicts),
            };
            let page = encode_page(&rs, &ctx).unwrap();
            let (n, sections) = column_sections(&page.bytes).unwrap();
            for (c, sec) in sections.iter().enumerate() {
                let n_nn = sec.n_non_null(n);
                let full = decode_column_values(sec.block, sec.tag, &d[c], &ctx, c, n_nn).unwrap();
                for range in [0..0, 0..1, 0..n_nn, 3..17, n_nn.saturating_sub(1)..n_nn] {
                    let part = decode_column_values_range(
                        sec.block,
                        sec.tag,
                        &d[c],
                        &ctx,
                        c,
                        n_nn,
                        range.clone(),
                    )
                    .unwrap();
                    assert_eq!(part, full[range.clone()], "{kind} col {c} {range:?}");
                }
                // Out-of-bounds ranges clamp instead of erroring.
                let over = decode_column_values_range(
                    sec.block,
                    sec.tag,
                    &d[c],
                    &ctx,
                    c,
                    n_nn,
                    n_nn..n_nn + 10,
                )
                .unwrap();
                assert!(over.is_empty(), "{kind} col {c}");
            }
        }
    }

    #[test]
    fn gdict_without_dicts_errors() {
        let d = dtypes();
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::GlobalDict,
            global_dicts: None,
        };
        assert!(encode_page(&rows(3), &ctx).is_err());
    }

    #[test]
    fn arity_mismatch_errors() {
        let d = dtypes();
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Row,
            global_dicts: None,
        };
        assert!(encode_page(&[Row::new(vec![Value::Int(1)])], &ctx).is_err());
    }

    #[test]
    fn uncompressed_accounting_matches_widths() {
        let d = vec![DataType::Int, DataType::Char { len: 6 }];
        let rs = vec![
            Row::new(vec![Value::Int(1), Value::Str("ab".into())]),
            Row::new(vec![Value::Int(2), Value::Str("cd".into())]),
        ];
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::None,
            global_dicts: None,
        };
        let page = encode_page(&rs, &ctx).unwrap();
        // Per row: 4 header + 1 bitmap + 8 int + 6 char = 19.
        assert_eq!(page.uncompressed_bytes, 38);
    }
}
