//! Size-only page probes for [`crate::analyze::pack_pages`].
//!
//! Packing a page asks "do the first `n` rows still fit?" for a dozen or so
//! values of `n`. Answering each question with a full [`encode_page`] costs
//! a fresh byte vector per value, and for PAGE also a sort, prefixed copies
//! and a hash map — all thrown away. [`ProbeScratch`] answers it with the
//! exact encoded length instead, from facts computed once per row: each
//! value's stored length (canonical bytes for NONE, NULL-suppressed bytes
//! otherwise) and, for the order-dependent kinds, a dense id per distinct
//! value. [`ProbeScratch::encoded_len`] mirrors the page layout of
//! [`encode_page`] column by column, so a probe's answer is the length the
//! real encode would produce — pinned by the oracle tests below.
//!
//! [`encode_page`]: crate::page::encode_page

use crate::bytesrepr::append_value_bytes;
use crate::method::CompressionKind;
use crate::null_suppress;
use crate::page::{check_arity, PageContext};
use crate::prefix::common_prefix_len;
use cadb_common::{Result, Row};
use std::collections::HashMap;
use std::rc::Rc;

/// Marks a NULL in the per-row length and id vectors.
const NULL: u32 = u32::MAX;

/// Per-row facts about a window of rows (the rows from the current page
/// start onwards), enough to size any prefix of the window as one page.
/// Holds at most the rows of the largest probe made for the current page.
pub(crate) struct ProbeScratch<'a> {
    ctx: PageContext<'a>,
    cols: Vec<ColumnScratch>,
    /// Rows scratched so far (a prefix of the window).
    len: usize,
    /// Reused buffer for one value's canonical bytes.
    buf: Vec<u8>,
}

#[derive(Default)]
struct ColumnScratch {
    /// Stored length of each window row's value, [`NULL`] for NULL.
    lens: Vec<u32>,
    /// Interned id of each window row's value (PAGE and RLE only).
    ids: Vec<u32>,
    dict: Interner,
    /// Reused per-probe buffers (PAGE only).
    sel: Vec<u32>,
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl<'a> ProbeScratch<'a> {
    pub(crate) fn new(ctx: &PageContext<'a>) -> Self {
        ProbeScratch {
            ctx: *ctx,
            cols: ctx
                .dtypes
                .iter()
                .map(|_| ColumnScratch::default())
                .collect(),
            len: 0,
            buf: Vec::new(),
        }
    }

    /// Make sure the first `n` rows of `window` are scratched. `window`
    /// must start at the same row every call since the last
    /// [`Self::advance`].
    pub(crate) fn extend_to(&mut self, window: &[Row], n: usize) -> Result<()> {
        let interns = matches!(self.ctx.kind, CompressionKind::Page | CompressionKind::Rle);
        for r in &window[self.len.min(n)..n] {
            check_arity(r, self.cols.len())?;
            for ((col, v), dtype) in self.cols.iter_mut().zip(&r.values).zip(self.ctx.dtypes) {
                if v.is_null() {
                    col.lens.push(NULL);
                    if interns {
                        col.ids.push(NULL);
                    }
                    continue;
                }
                self.buf.clear();
                append_value_bytes(v, dtype, &mut self.buf);
                let len = match self.ctx.kind {
                    CompressionKind::None => self.buf.len(),
                    _ => null_suppress::suppressed_len(&self.buf, dtype),
                };
                col.lens.push(len as u32);
                if interns {
                    col.ids.push(col.dict.intern(&self.buf[..len]));
                }
            }
        }
        self.len = self.len.max(n);
        Ok(())
    }

    /// Drop the first `n` scratched rows: the next page starts after them.
    /// Interned values of the kept rows move to a fresh interner, so the
    /// scratch never holds more than the current page's probes.
    pub(crate) fn advance(&mut self, n: usize) {
        // A page made of the window's only row was never probed.
        let n = n.min(self.len);
        for col in &mut self.cols {
            col.lens.drain(..n);
            // Non-empty exactly when the kind interns and rows are held.
            if !col.ids.is_empty() {
                let old = std::mem::take(&mut col.dict);
                let kept: Vec<u32> = col.ids[n..]
                    .iter()
                    .map(|&id| {
                        if id == NULL {
                            NULL
                        } else {
                            col.dict.intern_shared(&old.vals[id as usize])
                        }
                    })
                    .collect();
                col.ids = kept;
            }
        }
        self.len -= n;
    }

    /// Exact `encode_page(&window[..n], ctx).bytes.len()` for scratched
    /// rows, without building the page. For GlobalDict without
    /// dictionaries the answer is meaningless; the page's real encode
    /// reports that error.
    pub(crate) fn encoded_len(&mut self, n: usize) -> usize {
        debug_assert!(n <= self.len);
        let kind = self.ctx.kind;
        let dicts = self.ctx.global_dicts;
        // [n_rows: u16][n_cols: u16], then per column a tag byte, the null
        // bitmap and a u32 block length ahead of the block.
        let col_header = 1 + n.div_ceil(8) + 4;
        let mut total = 4;
        for (c, col) in self.cols.iter_mut().enumerate() {
            let lens = col.lens[..n].iter().filter(|&&l| l != NULL);
            total += col_header
                + match kind {
                    CompressionKind::None => lens.map(|&l| l as usize).sum(),
                    CompressionKind::Row => lens.map(|&l| 2 + l as usize).sum(),
                    CompressionKind::GlobalDict => {
                        let (nn, ns) =
                            lens.fold((0, 0), |(nn, ns), &l| (nn + 1, ns + 2 + l as usize));
                        let width = dicts.and_then(|d| d.get(c)).map_or(0, |d| d.id_width());
                        (3 + nn * width).min(ns)
                    }
                    CompressionKind::Rle => col.rle_block_len(n),
                    CompressionKind::Page => col.page_block_len(n),
                };
        }
        total
    }
}

impl ColumnScratch {
    /// `[n_runs: u16]` plus `[run_len: u16][val_len: u16][bytes]` per run
    /// of equal non-NULL values (a run never exceeds `u16::MAX` rows on a
    /// page, so none splits).
    fn rle_block_len(&self, n: usize) -> usize {
        let mut prev = NULL;
        let mut len = 2;
        for &id in self.ids[..n].iter().filter(|&&id| id != NULL) {
            if id != prev {
                len += 4 + self.dict.vals[id as usize].len();
                prev = id;
            }
        }
        len
    }

    /// `[anchor_len: u16][anchor]` plus the local-dictionary block over the
    /// values prefix-encoded against the anchor. Equal values are equal
    /// bytes, so selecting the sort-median id gives the anchor the real
    /// encode's sort picks, and a value's frequency and prefixed length
    /// decide its dictionary admission exactly as `local_dict::encode`.
    fn page_block_len(&mut self, n: usize) -> usize {
        let vals = &self.dict.vals;
        self.sel.clear();
        self.sel
            .extend(self.ids[..n].iter().copied().filter(|&id| id != NULL));
        if self.sel.is_empty() {
            // Empty anchor, empty dictionary, no tokens.
            return 2 + 2 + 2;
        }
        let mid = self.sel.len() / 2;
        let (_, &mut anchor_id, _) = self
            .sel
            .select_nth_unstable_by(mid, |&a, &b| vals[a as usize].cmp(&vals[b as usize]));
        let anchor = &vals[anchor_id as usize];

        self.counts.resize(vals.len(), 0);
        for &id in &self.sel {
            let f = &mut self.counts[id as usize];
            if *f == 0 {
                self.touched.push(id);
            }
            *f += 1;
        }
        let (mut dict, mut tokens) = (0usize, 0usize);
        for &id in &self.touched {
            let f = std::mem::take(&mut self.counts[id as usize]) as usize;
            let v = &vals[id as usize];
            // [match_len: u8][suffix]
            let l = 1 + v.len() - common_prefix_len(anchor, v).min(255);
            if f >= 2 && (f - 1) * (l + 2) > 2 * f {
                dict += 2 + l;
                tokens += 2 * f;
            } else {
                tokens += f * (4 + l);
            }
        }
        self.touched.clear();
        // [anchor_len][anchor] [n_dict][entries] [n][tokens]
        2 + anchor.len() + 2 + dict + 2 + tokens
    }
}

/// Dense ids for distinct byte strings. Values are shared, so moving the
/// kept rows to a fresh interner (see [`ProbeScratch::advance`]) copies no
/// bytes.
#[derive(Default)]
struct Interner {
    ids: HashMap<Rc<[u8]>, u32>,
    vals: Vec<Rc<[u8]>>,
}

impl Interner {
    fn intern(&mut self, v: &[u8]) -> u32 {
        match self.ids.get(v) {
            Some(&id) => id,
            None => self.insert(Rc::from(v)),
        }
    }

    fn intern_shared(&mut self, v: &Rc<[u8]>) -> u32 {
        match self.ids.get(&**v) {
            Some(&id) => id,
            None => self.insert(Rc::clone(v)),
        }
    }

    fn insert(&mut self, v: Rc<[u8]>) -> u32 {
        let id = self.vals.len() as u32;
        self.ids.insert(Rc::clone(&v), id);
        self.vals.push(v);
        id
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::analyze::build_dictionaries;
    use crate::page::encode_page;
    use cadb_common::{DataType, Value};
    use proptest::prelude::*;

    /// Column types covering every suppression rule: 8-byte ints, 4-byte
    /// dates, blank-padded CHAR, and VARCHAR long enough for prefixes past
    /// the 255-byte prefix-length cap.
    pub(crate) fn dtypes() -> Vec<DataType> {
        vec![
            DataType::Int,
            DataType::Char { len: 6 },
            DataType::Varchar { max_len: 400 },
            DataType::Date,
            DataType::Decimal { scale: 2 },
        ]
    }

    /// Deterministic rows over [`dtypes`] with `card` distinct values per
    /// column: NULLs, negative and 1–8-byte ints, CHAR values with trailing
    /// blanks, empty VARCHARs, VARCHARs sharing a >255-byte prefix, and
    /// short repeated values at the dictionary admission boundary.
    /// `sorted` orders rows as an index would.
    pub(crate) fn rows(seed: u64, n: usize, card: usize, null_pct: u64, sorted: bool) -> Vec<Row> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let card = card.max(1) as u64;
        let long_prefix = "p".repeat(260);
        let mut out: Vec<Row> = (0..n)
            .map(|_| {
                let mut values = Vec::with_capacity(5);
                for c in 0..5 {
                    let r = next();
                    if r % 100 < null_pct {
                        values.push(Value::Null);
                        continue;
                    }
                    let k = (r >> 8) % card;
                    values.push(match c {
                        // 0..=8 significant bytes, either sign.
                        0 => {
                            let bytes = (k % 9) as u32;
                            let mag = if bytes == 0 {
                                0
                            } else {
                                (1i64 << (8 * bytes - 1).min(62)) - 1 - k as i64
                            };
                            Value::Int(if k.is_multiple_of(2) { mag } else { -mag - 1 })
                        }
                        1 => Value::Str(
                            ["", "x", "x ", "ab", "a b", "ab  c"][(k % 6) as usize].into(),
                        ),
                        2 => Value::Str(match k % 4 {
                            0 => String::new(),
                            1 => format!("{long_prefix}{k}"),
                            2 => format!("{long_prefix}{}{k}", "q".repeat(10)),
                            _ => format!("v{k}"),
                        }),
                        3 => Value::Int(k as i64 * 37 - 500),
                        _ => Value::Int((k as i64) << (k % 40)),
                    });
                }
                Row::new(values)
            })
            .collect();
        if sorted {
            out.sort();
        }
        out
    }

    pub(crate) const ALL_KINDS: [CompressionKind; 5] = [
        CompressionKind::None,
        CompressionKind::Row,
        CompressionKind::Page,
        CompressionKind::GlobalDict,
        CompressionKind::Rle,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every prefix length a probe may ask for — before and after the
        /// window advances — sizes exactly as the real encode.
        #[test]
        fn prop_encoded_len_equals_encode_page(
            seed in any::<u64>(),
            n in 1usize..160,
            card in 1usize..12,
            null_pct in 0u64..60,
            cut in 0usize..160,
        ) {
            let d = dtypes();
            let rs = rows(seed, n, card, null_pct, seed.is_multiple_of(2));
            let dicts = build_dictionaries(&rs, &d);
            for kind in ALL_KINDS {
                let ctx = PageContext { dtypes: &d, kind, global_dicts: Some(&dicts) };
                let mut scratch = ProbeScratch::new(&ctx);
                scratch.extend_to(&rs, n).unwrap();
                for m in 0..=n {
                    let want = encode_page(&rs[..m], &ctx).unwrap().bytes.len();
                    prop_assert_eq!(scratch.encoded_len(m), want, "{} m={}", kind, m);
                }
                let cut = cut.min(n);
                scratch.advance(cut);
                let rest = &rs[cut..];
                scratch.extend_to(rest, rest.len()).unwrap();
                for m in 0..=rest.len() {
                    let want = encode_page(&rest[..m], &ctx).unwrap().bytes.len();
                    prop_assert_eq!(scratch.encoded_len(m), want, "{} cut={} m={}", kind, cut, m);
                }
            }
        }
    }

    #[test]
    fn dictionary_admission_boundary() {
        // CHAR "x" suppresses to 1 byte and prefix-encodes to L = 2 bytes
        // against an unrelated anchor (1 byte against itself): f = 2 stays
        // out ((f−1)(L+2) = 4 ≤ 2f), f = 3 gets in (8 > 6).
        let d = [DataType::Char { len: 4 }];
        for page in [
            vec!["x", "x", "z"],
            vec!["x", "x", "a", "z"],
            vec!["x", "x", "x", "a", "z", "z"],
            vec!["xy", "xy", "a", "b", "c"],
            vec!["", "", "x"],
        ] {
            let rs: Vec<Row> = page
                .iter()
                .map(|s| Row::new(vec![Value::Str((*s).into())]))
                .collect();
            let ctx = PageContext {
                dtypes: &d,
                kind: CompressionKind::Page,
                global_dicts: None,
            };
            let mut scratch = ProbeScratch::new(&ctx);
            scratch.extend_to(&rs, rs.len()).unwrap();
            let want = encode_page(&rs, &ctx).unwrap().bytes.len();
            assert_eq!(scratch.encoded_len(rs.len()), want, "{page:?}");
        }
    }

    #[test]
    fn arity_mismatch_errors_like_encode_page() {
        let d = dtypes();
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Page,
            global_dicts: None,
        };
        let rs = vec![Row::new(vec![Value::Int(1)])];
        let err = ProbeScratch::new(&ctx).extend_to(&rs, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            encode_page(&rs, &ctx).unwrap_err().to_string()
        );
    }
}
