//! The serve phase: one closed-loop client on the built rich
//! configuration. Each group commit holds [`BATCH`] prepared writes
//! (INSERTs into the append-only `lineitem`, UPDATEs and a DELETE on
//! `orders`); after each commit come `Snapshot::seek` reads on `lineitem`
//! and, once per cycle, one on `orders`. Every [`CYCLE_BATCHES`]
//! batches the client checkpoints and then runs checkpoint-anchored
//! recoveries whose state digest must equal the live store's; the first
//! recovered store checkpoints too, untimed, and its artifact must be
//! bit-identical to the live checkpoint.
//!
//! Each cycle opens a fresh `Store` over the built configuration, so every
//! cycle serves tables of the same size and a longer run does not measure
//! a larger database.

use crate::harness::Tally;
use crate::stats::{mean, p50, p95};
use cadb_common::{obs, ColumnId, Result, Row, TableId, Value};
use cadb_engine::{BulkDelete, BulkInsert, BulkUpdate, CostModel, Database};
use cadb_exec::store::effects::CommitEffects;
use cadb_exec::{MaterializedConfig, PageCacheStats, Store, StoreCheckpoint};
use std::collections::HashMap;
use std::time::Instant;

/// Prepared writes per group commit.
const BATCH: usize = 8;
/// Group commits between two checkpoints. It sets the share of the cold
/// first commit (the base-row decode) in `write_s`, and with it how much
/// of `commits_per_s` is that decode rather than warm commit work. At 32
/// a cycle, with its checkpoint and recoveries, takes under a second, so
/// the 15-cycle minimum fits beside the advise phase in tune-tpch.
const CYCLE_BATCHES: usize = 32;
/// `lineitem` seeks after every commit.
const LINEITEM_READS: usize = 8;
/// One `orders` seek after every this many commits (once per cycle).
const ORDERS_READ_EVERY: usize = 32;
/// Checkpoint-anchored recoveries per cycle, each from the same anchor
/// and log tail; the first recovered store is checkpointed as well.
const RECOVERIES_PER_CYCLE: usize = 2;
/// Rows per `lineitem` INSERT (5 per batch).
const INSERT_ROWS: u64 = 24;
/// Rows per `orders` UPDATE (2 per batch).
const UPDATE_ROWS: u64 = 8;
/// Rows per `orders` DELETE (1 per batch).
const DELETE_ROWS: u64 = 4;
/// The `orders` column UPDATEs rewrite (`totalprice`).
const UPDATE_COLUMN: ColumnId = ColumnId(3);

/// One cycle's timings; the end-to-end serve metrics take the fastest
/// cycles (`stats::fastest`).
#[derive(Debug, Default, Clone, Copy)]
pub struct CycleTimes {
    /// p50 of the cycle's warm commits, ms.
    pub commit_p50: f64,
    /// p95 of the cycle's warm commits, ms.
    pub commit_p95: f64,
    /// p50 of the cycle's reads, ms.
    pub read_p50: f64,
    /// p95 of the cycle's reads, ms.
    pub read_p95: f64,
    /// Seconds in prepare + `commit_batch` per statement, every group
    /// commit of the cycle counted.
    pub write_s_per_statement: f64,
    /// The live store's checkpoint, ms.
    pub checkpoint_ms: f64,
    /// Mean of the cycle's recoveries, ms.
    pub recover_ms: f64,
}

/// What the serve phase measured.
#[derive(Debug, Default)]
pub struct ServeResult {
    /// Milliseconds per warm group commit (prepare + `commit_batch`). The
    /// first commit of a cycle pays the cold base-row decode; at 1/32 of
    /// the commits it would sit above any p95 and push the p95 into the
    /// extreme warm tail, so it is kept out here and shows in
    /// `prepare_first_ms` and in `write_s`.
    pub commit_ms: Vec<f64>,
    /// Seconds in prepare + `commit_batch` over every group commit.
    pub write_s: f64,
    /// The part of `write_s` spent in the first group commit of each cycle.
    pub cold_write_s: f64,
    /// Group commits run.
    pub batches: usize,
    /// Milliseconds in the batch's `prepare_*` calls.
    pub prepare_ms: Vec<f64>,
    /// `prepare_ms` of the first batch of each cycle (cold base rows).
    pub prepare_first_ms: Vec<f64>,
    /// Milliseconds in `commit_batch`.
    pub commit_batch_ms: Vec<f64>,
    /// Milliseconds per snapshot read.
    pub read_ms: Vec<f64>,
    /// Read milliseconds of page-cache hits.
    pub hit_ms: Vec<f64>,
    /// Read milliseconds of reads that folded a page image.
    pub miss_ms: Vec<f64>,
    /// Milliseconds per checkpoint of the live store.
    pub checkpoint_ms: Vec<f64>,
    /// Milliseconds per checkpoint-anchored recovery.
    pub recover_ms: Vec<f64>,
    /// Frames each recovery replayed.
    pub recover_frames: Vec<f64>,
    /// Statements committed.
    pub statements: u64,
    /// Cycles run.
    pub cycles: usize,
    /// Timings of each cycle that ran without error.
    pub per_cycle: Vec<CycleTimes>,
    /// Wall seconds of the cycles.
    pub wall_s: f64,
    /// Page-cache counters summed over cycles.
    pub cache: PageCacheStats,
    /// Rows written (appended + rewritten + deleted), summed.
    pub rows_written: u64,
    /// Index rows touched by maintenance, summed.
    pub index_rows_touched: u64,
    /// MV groups touched by maintenance, summed.
    pub mv_groups_touched: u64,
    /// WAL bytes committed, summed.
    pub wal_bytes: u64,
    /// WAL sync points at each cycle's end, summed.
    pub sync_points: u64,
    /// Tables the live store's checkpoints folded by page patch, summed.
    pub patched_tables: u64,
    /// Tables they folded by rebuild, summed.
    pub rebuilt_tables: u64,
}

/// SplitMix64: the benchmark's own seeded generator for seek keys.
struct Keys(u64);

impl Keys {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<'k>(&mut self, from: &'k [Value]) -> &'k Value {
        &from[(self.next() % from.len() as u64) as usize]
    }
}

/// Rows per distinct value of column 0.
fn key_counts(rows: &[Row]) -> HashMap<Value, usize> {
    let mut m = HashMap::new();
    for r in rows {
        *m.entry(r.values[0].clone()).or_insert(0) += 1;
    }
    m
}

fn sorted_keys(counts: &HashMap<Value, usize>) -> Vec<Value> {
    let mut k: Vec<Value> = counts.keys().cloned().collect();
    k.sort();
    k
}

/// The serve phase's fixed inputs.
struct ServeInputs {
    lineitem: TableId,
    orders: TableId,
    lineitem_counts: HashMap<Value, usize>,
    orders_counts: HashMap<Value, usize>,
    lineitem_keys: Vec<Value>,
    orders_keys: Vec<Value>,
}

impl ServeInputs {
    /// Key statistics of the base tables, for choosing and checking seeks.
    fn new(db: &Database) -> Result<Self> {
        let lineitem = db.table_id("lineitem")?;
        let orders = db.table_id("orders")?;
        let lineitem_counts = key_counts(db.table(lineitem).rows());
        let orders_counts = key_counts(db.table(orders).rows());
        Ok(ServeInputs {
            lineitem,
            orders,
            lineitem_keys: sorted_keys(&lineitem_counts),
            orders_keys: sorted_keys(&orders_counts),
            lineitem_counts,
            orders_counts,
        })
    }
}

/// Prepare one batch: 5 INSERTs into `lineitem`, 2 UPDATEs and 1 DELETE
/// on `orders`, labelled by seed, cycle, batch and position.
fn prepare_batch(
    store: &Store<'_>,
    inp: &ServeInputs,
    seed: u64,
    cycle: usize,
    batch: usize,
) -> Result<Vec<CommitEffects>> {
    (0..BATCH)
        .map(|i| {
            let label = format!("w{seed}.c{cycle}.b{batch}.{i}");
            match i {
                0..=4 => store.prepare_insert(
                    &BulkInsert {
                        table: inp.lineitem,
                        n_rows: INSERT_ROWS,
                    },
                    seed,
                    &label,
                ),
                5 | 6 => store.prepare_update(
                    &BulkUpdate {
                        table: inp.orders,
                        n_rows: UPDATE_ROWS,
                        column: UPDATE_COLUMN,
                    },
                    seed,
                    &label,
                ),
                _ => store.prepare_delete(
                    &BulkDelete {
                        table: inp.orders,
                        n_rows: DELETE_ROWS,
                    },
                    seed,
                    &label,
                ),
            }
        })
        .collect()
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed snapshot read, classified as a page-cache hit or miss by the
/// store's own counters. The returned rows must all carry `key`; for
/// `lineitem` (append-only) their number must equal `expected`, for
/// `orders` (updates and deletes) it must not exceed it.
#[allow(clippy::too_many_arguments)]
fn read(
    store: &Store<'_>,
    t: TableId,
    key: &Value,
    expected: usize,
    exact: bool,
    out: &mut ServeResult,
    tally: &mut Tally,
) {
    tally.attempt();
    let before = store.page_cache_stats().misses;
    let snap = store.snapshot();
    let t0 = Instant::now();
    let rows = {
        let _s = obs::span("bench.serve.read");
        snap.seek(t, std::slice::from_ref(key))
    };
    let dt = ms(t0);
    let rows = match rows {
        Ok(r) => r,
        Err(e) => return tally.fail(format!("seek: {e}")),
    };
    out.read_ms.push(dt);
    if store.page_cache_stats().misses > before {
        out.miss_ms.push(dt);
    } else {
        out.hit_ms.push(dt);
    }
    let keyed = rows.iter().all(|r| r.values.first() == Some(key));
    let count_ok = if exact {
        rows.len() == expected
    } else {
        rows.len() <= expected
    };
    if !keyed || !count_ok {
        tally.fail(format!(
            "seek returned {} rows for a key with {expected} (table {})",
            rows.len(),
            t.0
        ));
    }
}

/// One timed checkpoint of the live store; returns the artifact's digest.
fn checkpoint(store: &Store<'_>, out: &mut ServeResult, tally: &mut Tally) -> Option<u64> {
    tally.attempt();
    let t = Instant::now();
    let ckpt = {
        let _s = obs::span("bench.serve.checkpoint");
        store.checkpoint()
    };
    let checkpoint_ms = ms(t);
    match ckpt {
        Ok(k) => {
            out.checkpoint_ms.push(checkpoint_ms);
            out.patched_tables += k.patched_tables as u64;
            out.rebuilt_tables += k.rebuilt_tables as u64;
            Some(k.digest())
        }
        Err(e) => {
            tally.fail(format!("checkpoint: {e}"));
            None
        }
    }
}

/// The serve phase, one cycle per [`Server::step`].
pub struct Server<'a> {
    db: &'a Database,
    mat: &'a MaterializedConfig,
    inp: ServeInputs,
    seed: u64,
    keys: Keys,
    out: ServeResult,
}

impl<'a> Server<'a> {
    /// A client serving the built configuration, its writes and seek keys
    /// drawn from `seed`.
    pub fn new(db: &'a Database, mat: &'a MaterializedConfig, seed: u64) -> Result<Self> {
        Ok(Server {
            db,
            mat,
            inp: ServeInputs::new(db)?,
            seed,
            keys: Keys(seed ^ 0x5e7e_5eed),
            out: ServeResult::default(),
        })
    }

    /// One cycle on a fresh store.
    pub fn step(&mut self, tally: &mut Tally) {
        let t_cycle = Instant::now();
        let s = self;
        if let Err(e) = cycle(s.db, s.mat, &s.inp, s.seed, &mut s.keys, &mut s.out, tally) {
            tally.attempt();
            tally.fail(format!("serve cycle {}: {e}", s.out.cycles));
        }
        s.out.cycles += 1;
        s.out.wall_s += t_cycle.elapsed().as_secs_f64();
    }

    /// What the cycles so far measured.
    pub fn finish(self) -> ServeResult {
        self.out
    }
}

/// One cycle: anchor checkpoint, [`CYCLE_BATCHES`] commits with reads,
/// checkpoint, recovery from the anchor and the log tail, digest check.
fn cycle(
    db: &Database,
    mat: &MaterializedConfig,
    inp: &ServeInputs,
    seed: u64,
    keys: &mut Keys,
    out: &mut ServeResult,
    tally: &mut Tally,
) -> Result<()> {
    let c = out.cycles;
    let start = (
        out.commit_ms.len(),
        out.read_ms.len(),
        out.checkpoint_ms.len(),
        out.recover_ms.len(),
        out.write_s,
        out.statements,
    );
    let store = Store::open(db, mat, CostModel::default());
    let anchor: StoreCheckpoint = store.checkpoint()?;
    // `lineitem` keys appended this cycle, for exact seek counts.
    let mut appended: HashMap<Value, usize> = HashMap::new();
    for b in 0..CYCLE_BATCHES {
        tally.attempt();
        let t0 = Instant::now();
        let effs = {
            let _s = obs::span("bench.serve.prepare");
            prepare_batch(&store, inp, seed, c, b)
        };
        let prepare = ms(t0);
        let effs = match effs {
            Ok(e) => e,
            Err(e) => {
                tally.fail(format!("prepare: {e}"));
                continue;
            }
        };
        let t1 = Instant::now();
        let receipts = {
            let _s = obs::span("bench.serve.commit");
            store.commit_batch(&effs)
        };
        let commit = ms(t1);
        match receipts {
            Ok(r) if r.len() == effs.len() => {}
            Ok(r) => tally.fail(format!("{} receipts for {} writes", r.len(), effs.len())),
            Err(e) => {
                tally.fail(format!("commit_batch: {e}"));
                continue;
            }
        }
        out.prepare_ms.push(prepare);
        if b == 0 {
            out.prepare_first_ms.push(prepare);
            out.cold_write_s += (prepare + commit) / 1e3;
        } else {
            out.commit_ms.push(prepare + commit);
        }
        out.commit_batch_ms.push(commit);
        out.write_s += (prepare + commit) / 1e3;
        out.batches += 1;
        out.statements += effs.len() as u64;
        for e in effs.iter().filter(|e| e.table == inp.lineitem) {
            for r in &e.appended {
                *appended.entry(r.values[0].clone()).or_insert(0) += 1;
            }
        }
        for _ in 0..LINEITEM_READS {
            let key = keys.pick(&inp.lineitem_keys);
            let expected = inp.lineitem_counts[key] + appended.get(key).copied().unwrap_or(0);
            read(&store, inp.lineitem, key, expected, true, out, tally);
        }
        if b % ORDERS_READ_EVERY == ORDERS_READ_EVERY - 1 {
            let key = keys.pick(&inp.orders_keys);
            read(
                &store,
                inp.orders,
                key,
                inp.orders_counts[key],
                false,
                out,
                tally,
            );
        }
    }
    let live = store.state_digest()?;
    let wal = store.wal_bytes();
    let totals = store.totals();
    let cache = store.page_cache_stats();
    out.sync_points += store.wal_sync_points().len() as u64;

    let live_ckpt = checkpoint(&store, out, tally);
    drop(store);
    for r in 0..RECOVERIES_PER_CYCLE {
        tally.attempt();
        let t = Instant::now();
        let recovered = {
            let _s = obs::span("bench.serve.recover");
            Store::recover_with_checkpoint(db, mat, CostModel::default(), &anchor, &wal)
        };
        let recover_ms = ms(t);
        let (rec, report) = match recovered {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("recover_with_checkpoint: {e}"));
                continue;
            }
        };
        out.recover_ms.push(recover_ms);
        out.recover_frames.push(report.frames_applied as f64);
        let digest = rec.state_digest()?;
        if digest != live
            || report.truncated_bytes != 0
            || report.duplicates_skipped != 0
            || report.frames_applied as u64 != totals.commits
        {
            tally.fail(format!(
                "recovery: digest {digest:016x} vs live {live:016x}, {} frames for {} commits",
                report.frames_applied, totals.commits
            ));
        }
        // The recovered store checkpoints the same state: its artifact
        // must be bit-identical to the live store's. Untimed: a store that
        // has served no read has no page images to fold, so its
        // checkpoint is a different operation from the live one.
        if r == 0 {
            tally.attempt();
            match rec.checkpoint() {
                Ok(k) if live_ckpt.is_some_and(|d| d != k.digest()) => {
                    tally.fail("checkpoint of the recovered store differs from the live one".into())
                }
                Ok(_) => {}
                Err(e) => tally.fail(format!("checkpoint of the recovered store: {e}")),
            }
        }
    }

    out.per_cycle.push(CycleTimes {
        commit_p50: p50(&out.commit_ms[start.0..]),
        commit_p95: p95(&out.commit_ms[start.0..]),
        read_p50: p50(&out.read_ms[start.1..]),
        read_p95: p95(&out.read_ms[start.1..]),
        write_s_per_statement: (out.write_s - start.4) / (out.statements - start.5) as f64,
        checkpoint_ms: mean(&out.checkpoint_ms[start.2..]),
        recover_ms: mean(&out.recover_ms[start.3..]),
    });
    let k = totals.counters;
    out.rows_written += k.rows_appended + k.rows_rewritten + k.rows_deleted;
    out.index_rows_touched += k.index_rows_touched;
    out.mv_groups_touched += k.mv_groups_touched;
    out.wal_bytes += k.wal_bytes;
    out.cache.hits += cache.hits;
    out.cache.misses += cache.misses;
    out.cache.patched += cache.patched;
    out.cache.rebuilt += cache.rebuilt;
    Ok(())
}
