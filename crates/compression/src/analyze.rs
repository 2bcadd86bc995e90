//! Whole-index compression measurement.
//!
//! Given the rows of an index **in index order**, packs them into 8 KiB pages
//! (greedily, so compressed pages hold more rows — as on a real engine where
//! a page is compressed in place and keeps accepting rows until full) and
//! reports the measured compressed size, uncompressed footprint and
//! compression fraction (CF, §2.2).
//!
//! Packing searches each page's row count with size-only probes: the exact
//! encoded length of a candidate prefix is computed from per-row value
//! lengths (and, for PAGE and RLE, per-value ids) without building the
//! candidate page, and only the chosen prefix is encoded — once. The pages
//! are byte-identical to encoding every candidate in full.
//!
//! This is the ground truth that `SampleCF` and the deduction methods try to
//! estimate cheaply.

use crate::bytesrepr::value_bytes;
use crate::global_dict::GlobalDictionary;
use crate::method::CompressionKind;
use crate::page::{encode_page, EncodedPage, PageContext};
use crate::probe::ProbeScratch;
use cadb_common::{obs, DataType, Result, Row};

/// Physical page size in bytes (SQL Server uses 8 KiB pages).
pub const PAGE_SIZE: usize = 8192;

/// Usable payload per page after the fixed page header.
pub const PAGE_PAYLOAD: usize = PAGE_SIZE - 96;

/// Result of measuring an index's compressed layout.
#[derive(Debug, Clone)]
pub struct CompressionMeasurement {
    /// The compression method measured.
    pub kind: CompressionKind,
    /// Total rows packed.
    pub n_rows: usize,
    /// Physical page count: `ceil(compressed_bytes / PAGE_SIZE)`.
    pub n_pages: usize,
    /// Measured compressed bytes (page payloads + global dictionary).
    pub compressed_bytes: usize,
    /// Uncompressed footprint of the same rows.
    pub uncompressed_bytes: usize,
    /// Bytes of the index-wide dictionary (0 unless `GlobalDict`).
    pub dict_bytes: usize,
    /// Mean rows per packed page.
    pub avg_rows_per_page: f64,
}

impl CompressionMeasurement {
    /// Compression fraction: compressed / uncompressed (≤ 1 when the method
    /// helps; can exceed 1 on incompressible data).
    pub fn compression_fraction(&self) -> f64 {
        if self.uncompressed_bytes == 0 {
            1.0
        } else {
            self.compressed_bytes as f64 / self.uncompressed_bytes as f64
        }
    }

    /// Uncompressed page count for the same rows.
    pub fn uncompressed_pages(&self) -> usize {
        self.uncompressed_bytes.div_ceil(PAGE_PAYLOAD).max(1)
    }
}

/// Measure the compressed size of an index holding `rows` (already in index
/// order) with the given column types and method.
///
/// For [`CompressionKind::GlobalDict`] the per-column dictionaries are built
/// over the full input first and their storage is charged to the result.
///
/// ```
/// use cadb_compression::{compressed_index_size, CompressionKind};
/// use cadb_common::{DataType, Row, Value};
///
/// let rows: Vec<Row> = (0..4000)
///     .map(|i| Row::new(vec![Value::Int(i / 100), Value::Str(format!("tag{}", i % 5))]))
///     .collect();
/// let dtypes = [DataType::Int, DataType::Char { len: 8 }];
/// let m = compressed_index_size(&rows, &dtypes, CompressionKind::Page).unwrap();
/// assert!(m.compression_fraction() < 0.8); // repetitive data compresses well
/// assert_eq!(m.n_rows, 4000);
/// ```
pub fn compressed_index_size(
    rows: &[Row],
    dtypes: &[DataType],
    kind: CompressionKind,
) -> Result<CompressionMeasurement> {
    let dicts = if kind == CompressionKind::GlobalDict {
        Some(build_dictionaries(rows, dtypes))
    } else {
        None
    };
    let ctx = PageContext {
        dtypes,
        kind,
        global_dicts: dicts.as_deref(),
    };
    let pages = pack_pages(rows, &ctx)?;
    let dict_bytes: usize = dicts
        .as_deref()
        .map(|ds| ds.iter().map(GlobalDictionary::storage_bytes).sum())
        .unwrap_or(0);
    let payload: usize = pages.iter().map(|p| p.bytes.len()).sum();
    let uncompressed: usize = pages.iter().map(|p| p.uncompressed_bytes).sum();
    let compressed = payload + dict_bytes;
    let n_rows = rows.len();
    Ok(CompressionMeasurement {
        kind,
        n_rows,
        n_pages: compressed.div_ceil(PAGE_SIZE).max(1),
        compressed_bytes: compressed,
        uncompressed_bytes: uncompressed,
        dict_bytes,
        avg_rows_per_page: if pages.is_empty() {
            0.0
        } else {
            n_rows as f64 / pages.len() as f64
        },
    })
}

/// Build one global dictionary per column over all rows.
pub fn build_dictionaries(rows: &[Row], dtypes: &[DataType]) -> Vec<GlobalDictionary> {
    dtypes
        .iter()
        .enumerate()
        .map(|(c, t)| {
            let mut dict = GlobalDictionary::default();
            for r in rows {
                let v = &r.values[c];
                if !v.is_null() {
                    dict.intern(&value_bytes(v, t));
                }
            }
            dict
        })
        .collect()
}

/// Greedily pack rows into pages: each page takes as many rows as fit within
/// [`PAGE_PAYLOAD`] bytes *after* compression.
///
/// The row count of each page is found by exponential probing (2, 4, 8, …
/// rows until a prefix no longer fits) followed by a binary search between
/// the last fit and the first miss. A prefix of `n` rows fits when
/// `n ≤ u16::MAX` (checked first) and its exact encoded length is at most
/// [`PAGE_PAYLOAD`]. Probes are size-only: they compute that length from
/// per-row facts gathered once per row, without building the candidate
/// page, and the chosen prefix is then encoded exactly once. The first row
/// always goes in, so an oversize row gets a page of its own.
///
/// Publishes the `compression.pack.probes` and `compression.pack.pages`
/// counters once per call.
pub fn pack_pages(rows: &[Row], ctx: &PageContext<'_>) -> Result<Vec<EncodedPage>> {
    let mut pages = Vec::new();
    let mut scratch = ProbeScratch::new(ctx);
    let mut probes = 0u64;
    let mut pos = 0usize;
    while pos < rows.len() {
        let window = &rows[pos..];
        let mut fits = |n: usize| -> Result<bool> {
            if n > u16::MAX as usize {
                return Ok(false);
            }
            probes += 1;
            scratch.extend_to(window, n)?;
            Ok(scratch.encoded_len(n) <= PAGE_PAYLOAD)
        };
        let mut lo = 1usize;
        let mut miss = None;
        while lo < window.len() {
            let next = (lo * 2).min(window.len());
            if fits(next)? {
                lo = next;
            } else {
                miss = Some(next);
                break;
            }
        }
        if let Some(mut hi) = miss {
            while lo + 1 < hi {
                let mid = (lo + hi) / 2;
                if fits(mid)? {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        }
        pages.push(encode_page(&window[..lo], ctx)?);
        scratch.advance(lo);
        pos += lo;
    }
    obs::counter_add("compression.pack.probes", probes);
    obs::counter_add("compression.pack.pages", pages.len() as u64);
    Ok(pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::tests::{rows as arb_rows, ALL_KINDS};
    use cadb_common::Value;
    use proptest::prelude::*;

    /// Reference packer: every probe encodes the whole candidate page.
    /// `pack_pages` applies the same decision rule to size-only probes,
    /// so the pages must be identical.
    fn oracle_pack_pages(rows: &[Row], ctx: &PageContext<'_>) -> Result<Vec<EncodedPage>> {
        let mut pages = Vec::new();
        let mut pos = 0usize;
        while pos < rows.len() {
            let remaining = rows.len() - pos;
            // Exponential probe for an upper bound that no longer fits.
            let mut lo = 1usize; // rows[pos..pos+1] always goes in (oversize rows get a page of their own)
            let mut hi = lo;
            let mut best = encode_page(&rows[pos..pos + 1], ctx)?;
            while hi < remaining {
                let next = (hi * 2).min(remaining);
                let cand = encode_page(&rows[pos..pos + next], ctx)?;
                if cand.bytes.len() <= PAGE_PAYLOAD && next <= u16::MAX as usize {
                    lo = next;
                    best = cand;
                    if next == remaining {
                        break;
                    }
                    hi = next;
                } else {
                    hi = next;
                    // Binary search in (lo, hi).
                    let mut l = lo;
                    let mut h = hi;
                    while l + 1 < h {
                        let mid = (l + h) / 2;
                        let cand = encode_page(&rows[pos..pos + mid], ctx)?;
                        if cand.bytes.len() <= PAGE_PAYLOAD && mid <= u16::MAX as usize {
                            l = mid;
                            best = cand;
                        } else {
                            h = mid;
                        }
                    }
                    lo = l;
                    break;
                }
            }
            pages.push(best);
            pos += lo;
        }
        Ok(pages)
    }

    fn assert_same_pages(got: &[EncodedPage], want: &[EncodedPage], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: page count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.n_rows, w.n_rows, "{what}: page {i} rows");
            assert_eq!(
                g.uncompressed_bytes, w.uncompressed_bytes,
                "{what}: page {i} uncompressed"
            );
            assert!(g.bytes == w.bytes, "{what}: page {i} bytes differ");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_pack_pages_equals_full_encode_oracle(
            seed in any::<u64>(),
            n in 0usize..2500,
            card in 1usize..400,
            null_pct in 0u64..40,
        ) {
            let d = crate::probe::tests::dtypes();
            let rows = arb_rows(seed, n, card, null_pct, seed % 3 != 0);
            let dicts = build_dictionaries(&rows, &d);
            for kind in ALL_KINDS {
                let ctx = PageContext { dtypes: &d, kind, global_dicts: Some(&dicts) };
                let got = pack_pages(&rows, &ctx).unwrap();
                let want = oracle_pack_pages(&rows, &ctx).unwrap();
                assert_same_pages(&got, &want, &format!("{kind} n={n}"));
            }
        }
    }

    #[test]
    fn pack_pages_equals_oracle_on_repetitive_narrow_rows() {
        // Many rows per page: deep exponential phase and long binary search.
        let rows = sorted_rows(20_000, 3);
        let d = dtypes();
        let dicts = build_dictionaries(&rows, &d);
        for kind in ALL_KINDS {
            let ctx = PageContext {
                dtypes: &d,
                kind,
                global_dicts: Some(&dicts),
            };
            let got = pack_pages(&rows, &ctx).unwrap();
            assert_same_pages(
                &got,
                &oracle_pack_pages(&rows, &ctx).unwrap(),
                &kind.to_string(),
            );
        }
    }

    #[test]
    fn page_row_count_stops_at_u16_max() {
        // Column-less rows cost nothing but the page header, so only the
        // row bound ends a page. It is checked before sizing: the reference
        // packer fails here, encoding a 65 536-row candidate.
        let d: [DataType; 0] = [];
        let rows = vec![Row::new(vec![]); 70_000];
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Page,
            global_dicts: None,
        };
        let pages = pack_pages(&rows, &ctx).unwrap();
        let counts: Vec<usize> = pages.iter().map(|p| p.n_rows).collect();
        assert_eq!(counts, vec![u16::MAX as usize, 70_000 - u16::MAX as usize]);
    }

    #[test]
    fn errors_match_the_oracle() {
        let d = dtypes();
        let bad = vec![Row::new(vec![Value::Int(1)])];
        let gdict = PageContext {
            dtypes: &d,
            kind: CompressionKind::GlobalDict,
            global_dicts: None,
        };
        let row = PageContext {
            dtypes: &d,
            kind: CompressionKind::Row,
            global_dicts: None,
        };
        let good = sorted_rows(10, 2);
        for (rows, ctx) in [(&bad, &row), (&good, &gdict)] {
            let got = pack_pages(rows, ctx).unwrap_err().to_string();
            assert_eq!(got, oracle_pack_pages(rows, ctx).unwrap_err().to_string());
        }
    }

    fn dtypes() -> Vec<DataType> {
        vec![DataType::Int, DataType::Char { len: 12 }]
    }

    fn sorted_rows(n: usize, distinct_strs: usize) -> Vec<Row> {
        let mut rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i % 100) as i64),
                    Value::Str(format!("v{}", i % distinct_strs)),
                ])
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn pages_respect_payload_limit() {
        let rows = sorted_rows(5000, 10);
        let d = dtypes();
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::None,
            global_dicts: None,
        };
        let pages = pack_pages(&rows, &ctx).unwrap();
        assert!(pages.len() > 1);
        for p in &pages {
            assert!(p.bytes.len() <= PAGE_PAYLOAD);
        }
        let total: usize = pages.iter().map(|p| p.n_rows).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn compressed_pages_hold_more_rows() {
        let rows = sorted_rows(5000, 4);
        let d = dtypes();
        let plain = compressed_index_size(&rows, &d, CompressionKind::None).unwrap();
        let page = compressed_index_size(&rows, &d, CompressionKind::Page).unwrap();
        assert!(page.avg_rows_per_page > plain.avg_rows_per_page);
        assert!(page.compression_fraction() < plain.compression_fraction());
        assert!(page.compressed_bytes < plain.compressed_bytes);
    }

    #[test]
    fn cf_reasonable_for_all_methods() {
        let rows = sorted_rows(3000, 8);
        let d = dtypes();
        for kind in CompressionKind::ALL_COMPRESSED {
            let m = compressed_index_size(&rows, &d, kind).unwrap();
            let cf = m.compression_fraction();
            assert!(cf > 0.0 && cf < 1.0, "{kind}: cf={cf}");
            assert_eq!(m.n_rows, 3000);
            assert!(m.n_pages >= 1);
        }
    }

    #[test]
    fn global_dict_charges_dictionary() {
        let rows = sorted_rows(2000, 5);
        let d = dtypes();
        let m = compressed_index_size(&rows, &d, CompressionKind::GlobalDict).unwrap();
        assert!(m.dict_bytes > 0);
        assert!(m.compressed_bytes > m.dict_bytes);
    }

    #[test]
    fn order_dependent_methods_feel_sort_order() {
        // RLE on a sorted column vs a shuffled one: the sorted layout must
        // compress strictly better — this is the ORD-DEP property the
        // deduction framework has to model.
        let n = 4000;
        let sorted: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![Value::Int((i / 400) as i64), Value::Str("pad".into())]))
            .collect();
        let mut shuffled = sorted.clone();
        // Deterministic interleave (even indexes first, then odd).
        shuffled.sort_by_key(|r| {
            let v = r.values[0].as_i64().unwrap();
            (v % 2, v)
        });
        let d = dtypes();
        let s = compressed_index_size(&sorted, &d, CompressionKind::Rle).unwrap();
        let sh = compressed_index_size(&shuffled, &d, CompressionKind::Rle).unwrap();
        assert!(s.compressed_bytes <= sh.compressed_bytes);

        // NULL suppression must NOT care about order (ORD-IND).
        let a = compressed_index_size(&sorted, &d, CompressionKind::Row).unwrap();
        let b = compressed_index_size(&shuffled, &d, CompressionKind::Row).unwrap();
        let rel = (a.compressed_bytes as f64 - b.compressed_bytes as f64).abs()
            / a.compressed_bytes as f64;
        assert!(rel < 0.02, "ORD-IND size moved {rel} with order");
    }

    #[test]
    fn empty_index() {
        let d = dtypes();
        let m = compressed_index_size(&[], &d, CompressionKind::Row).unwrap();
        assert_eq!(m.n_rows, 0);
        assert_eq!(m.compressed_bytes, 0);
        assert_eq!(m.compression_fraction(), 1.0);
    }
}
