//! The **sharded serving mode**: per-shard WAL streams under a global
//! commit order.
//!
//! [`ShardedStore`] serves the same snapshot-isolated write path as the
//! monolithic [`Store`], but the log is partitioned the way the build path
//! already partitions data (PR 8's `cadb_shard` policies): every shard
//! owns its own [`WalSegment`], a committed statement's effects are split
//! across shards by a [`ShardRouter`] ([`Partitioning::Hash`](cadb_shard::Partitioning::Hash) routes by
//! `key_hash` of the row, [`Partitioning::Range`](cadb_shard::Partitioning::Range) by base-ordinal ranges /
//! statement-local round-robin), and a dedicated **order log** of
//! [`CommitOrderRecord`]s stitches the per-shard frames back into the one
//! total order the monolithic store would have logged.
//!
//! ## The commit protocol
//!
//! A group commit of `B` statements runs the monolithic two-phase
//! discipline with a sharded durability step:
//!
//! 1. **Prepare (outside any lock)**: price maintenance against the
//!    *whole* statement (the same pure function the monolithic store
//!    uses, so measured costs and [`WriteActual`]s are bit-identical),
//!    split the effects per shard, and encode each shard's sub-frame.
//! 2. **Critical section**: assign consecutive *global* LSNs and
//!    per-shard *local* LSNs, append each shard's sub-frames as one
//!    coalesced batch (one sync point per participating shard), then
//!    append the batch's order records — **the order-log sync is the
//!    commit point** — and apply the original effects to the shared
//!    version chains.
//!
//! A commit is durable iff its order record and every shard frame it
//! references are durable. Because shard segments sync before the order
//! log, a crash can tear a shard tail (commits whose frames are lost are
//! discarded from the first gap on — the total order admits no holes) or
//! the order tail (fully-logged shard frames without an order record are
//! uncommitted), and recovery converges to the committed prefix either
//! way.
//!
//! ## Equivalence contract
//!
//! Sharding is an execution strategy, not a semantic: for every shard
//! count × [`Partitioning`](cadb_shard::Partitioning) policy × [`Parallelism`] mode × batch size,
//! the sharded store's snapshots, state digests, per-statement
//! [`WriteActual`]s, checkpoint artifacts and post-recovery state are
//! **bit-identical** to the monolithic store's
//! (`tests/sharded_store_equivalence.rs` pins the matrix, the crash
//! matrix in `tests/store_recovery.rs` pins it through fault injection at
//! every per-shard sync point and at the order record).

use super::effects::{CommitEffects, RowSlot};
use super::maintain::{fnv1a, maintain};
use super::{
    CommitReceipt, RecoveryReport, Snapshot, Store, StoreCheckpoint, StoreTotals, WriteActual,
};
use crate::measured::MaterializedConfig;
use cadb_common::{obs, CadbError, Parallelism, Result, TableId, Value};
use cadb_engine::{CostModel, Database, Workload};
use cadb_shard::{ShardRouter, ShardSpec};
use cadb_storage::wal::{
    self, CommitOrderRecord, FrameType, WalFrame, WalSegment, FRAME_HEADER_BYTES,
};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Most shards a serving-layer log set supports — route bytes address
/// shards as `u8`.
pub const MAX_SERVE_SHARDS: usize = 255;

/// Per-shard log state: the shard's WAL segment, its local LSN counter
/// and its running maintenance counters.
#[derive(Debug, Default)]
struct ShardLog {
    wal: WalSegment,
    next_lsn: u64,
    stats: ShardStats,
}

/// The sharded log set: one segment per shard plus the order log.
#[derive(Debug, Default)]
struct ShardedLogs {
    order: WalSegment,
    shards: Vec<ShardLog>,
}

/// Running per-shard counters of the sharded write path — the
/// shard-local view of the maintenance work the store also reports
/// globally (each shard's numbers come from re-running the maintenance
/// accounting on just that shard's sub-effects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard-local WAL frames appended.
    pub frames: u64,
    /// Rows routed to this shard (appended + rewritten + deleted).
    pub rows_routed: u64,
    /// Shard WAL bytes appended.
    pub wal_bytes: u64,
    /// Secondary/clustered index rows this shard's sub-effects touched.
    pub index_rows_touched: u64,
    /// Distinct MV groups this shard's sub-effects wrote.
    pub mv_groups_touched: u64,
}

impl ShardStats {
    /// View as named observability metrics (`store.shard.*`).
    pub fn as_metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("store.shard.frames", self.frames),
            ("store.shard.rows_routed", self.rows_routed),
            ("store.shard.wal_bytes", self.wal_bytes),
            ("store.shard.index_rows_touched", self.index_rows_touched),
            ("store.shard.mv_groups_touched", self.mv_groups_touched),
        ]
    }
}

/// What sharded crash recovery found across the log set.
#[derive(Debug, Clone)]
pub struct ShardedRecoveryReport {
    /// Per-shard replay outcome: `frames_applied` counts the shard frames
    /// an applied commit referenced; `truncated_bytes` /
    /// `duplicates_skipped` are the shard segment's own tail accounting.
    pub per_shard: Vec<RecoveryReport>,
    /// The order log's outcome: `frames_applied` is the number of commits
    /// re-applied in global order.
    pub order: RecoveryReport,
    /// Order records discarded because a shard frame they reference was
    /// lost (every later record is discarded with them — the total order
    /// admits no gaps).
    pub commits_discarded: usize,
    /// Highest committed LSN after replay.
    pub watermark: u64,
}

impl ShardedRecoveryReport {
    /// View as named observability metrics (also published by
    /// [`ShardedStore::recover`] / `recover_with_checkpoint`).
    pub fn as_metrics(&self) -> Vec<(&'static str, u64)> {
        let mut m = vec![
            (
                "store.shard.recovery.commits_applied",
                self.order.frames_applied as u64,
            ),
            (
                "store.shard.recovery.commits_discarded",
                self.commits_discarded as u64,
            ),
        ];
        m.push((
            "store.shard.recovery.truncated_bytes",
            self.per_shard
                .iter()
                .map(|r| r.truncated_bytes as u64)
                .sum::<u64>()
                + self.order.truncated_bytes as u64,
        ));
        m.push((
            "store.shard.recovery.duplicates_skipped",
            self.per_shard
                .iter()
                .map(|r| r.duplicates_skipped as u64)
                .sum::<u64>()
                + self.order.duplicates_skipped as u64,
        ));
        m
    }
}

/// A sharded checkpoint: the monolithic artifact (folded structures,
/// overlays, totals — bit-identical to what the monolithic store would
/// produce at the same watermark) plus the per-shard local LSN counters
/// the truncated shard logs resume from.
#[derive(Debug)]
pub struct ShardedCheckpoint {
    /// The folded artifact, shared with the monolithic format.
    pub store: StoreCheckpoint,
    /// Shard-local `next_lsn` after each shard's checkpoint marker.
    pub shard_next_lsns: Vec<u64>,
}

/// One statement's effects split across the shard logs.
struct SplitEffects {
    /// `Some(sub-effects)` per shard that received at least one row.
    per_shard: Vec<Option<CommitEffects>>,
    /// Route bytes, in the original statement's row order.
    appended_routes: Vec<u8>,
    rewritten_routes: Vec<u8>,
    deleted_routes: Vec<u8>,
}

/// The snapshot-isolated store in sharded serving mode. See the module
/// docs for the protocol; every read-side accessor delegates to the
/// shared (monolithic-identical) MVCC state.
pub struct ShardedStore<'a> {
    inner: Store<'a>,
    spec: ShardSpec,
    logs: RwLock<ShardedLogs>,
}

impl<'a> ShardedStore<'a> {
    /// Open a sharded store over a materialized configuration. A spec of
    /// one shard degenerates to the monolithic protocol with the order
    /// log alongside (and is the baseline the equivalence suite compares
    /// against).
    pub fn open(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        spec: ShardSpec,
    ) -> Result<ShardedStore<'a>> {
        if spec.shards > MAX_SERVE_SHARDS {
            return Err(CadbError::InvalidArgument(format!(
                "sharded store supports at most {MAX_SERVE_SHARDS} shards, got {}",
                spec.shards
            )));
        }
        Ok(ShardedStore {
            inner: Store::open(db, mat, model),
            spec,
            logs: RwLock::new(ShardedLogs {
                order: WalSegment::new(),
                shards: (0..spec.shards).map(|_| ShardLog::default()).collect(),
            }),
        })
    }

    /// The shard layout this store serves under.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of shard logs.
    pub fn shards(&self) -> usize {
        self.spec.shards
    }

    /// The router for one table's writes.
    fn router(&self, t: TableId, base_n: usize) -> ShardRouter {
        let n_key = self
            .inner
            .mat
            .base_spec(t)
            .map(|s| s.key_cols.len().min(self.inner.db.dtypes(t).len()))
            .unwrap_or(0);
        ShardRouter::new(self.spec, n_key, base_n)
    }

    /// Split one statement's effects across the shards. Routing is a pure
    /// function of the effects and the immutable base, so the split — and
    /// every shard's logged bytes — is identical across parallelism modes
    /// and batch sizes.
    fn split(&self, eff: &CommitEffects, router: &ShardRouter) -> SplitEffects {
        let n = self.spec.shards;
        let mut per_shard: Vec<Option<CommitEffects>> = (0..n).map(|_| None).collect();
        fn sub(slot: &mut Option<CommitEffects>, table: TableId) -> &mut CommitEffects {
            slot.get_or_insert_with(|| CommitEffects {
                table,
                appended: Vec::new(),
                rewritten: Vec::new(),
                deleted: Vec::new(),
            })
        }
        let mut appended_routes = Vec::with_capacity(eff.appended.len());
        for (seq, row) in eff.appended.iter().enumerate() {
            let s = router.route_append(row, seq as u64);
            sub(&mut per_shard[s], eff.table).appended.push(row.clone());
            appended_routes.push(s as u8);
        }
        let mut rewritten_routes = Vec::with_capacity(eff.rewritten.len());
        for rw in &eff.rewritten {
            let s = match rw.slot {
                RowSlot::Base(o) => router.route_base_slot(o, &rw.old_row),
                RowSlot::Appended(q) => router.route_append(&rw.old_row, q as u64),
            };
            sub(&mut per_shard[s], eff.table).rewritten.push(rw.clone());
            rewritten_routes.push(s as u8);
        }
        let mut deleted_routes = Vec::with_capacity(eff.deleted.len());
        for ts in &eff.deleted {
            let s = match ts.slot {
                RowSlot::Base(o) => router.route_base_slot(o, &ts.old_row),
                RowSlot::Appended(q) => router.route_append(&ts.old_row, q as u64),
            };
            sub(&mut per_shard[s], eff.table).deleted.push(ts.clone());
            deleted_routes.push(s as u8);
        }
        SplitEffects {
            per_shard,
            appended_routes,
            rewritten_routes,
            deleted_routes,
        }
    }

    /// Resolve a bulk INSERT into effects (delegates to the shared
    /// prepare path — pure, lock-free).
    pub fn prepare_insert(
        &self,
        ins: &cadb_engine::BulkInsert,
        seed: u64,
        label: &str,
    ) -> Result<CommitEffects> {
        self.inner.prepare_insert(ins, seed, label)
    }

    /// Resolve a bulk UPDATE into effects.
    pub fn prepare_update(
        &self,
        upd: &cadb_engine::BulkUpdate,
        seed: u64,
        label: &str,
    ) -> Result<CommitEffects> {
        self.inner.prepare_update(upd, seed, label)
    }

    /// Resolve a bulk DELETE into effects.
    pub fn prepare_delete(
        &self,
        del: &cadb_engine::BulkDelete,
        seed: u64,
        label: &str,
    ) -> Result<CommitEffects> {
        self.inner.prepare_delete(del, seed, label)
    }

    /// Commit resolved effects — a [`Self::commit_batch`] of one.
    pub fn commit(&self, eff: CommitEffects) -> Result<CommitReceipt> {
        let mut receipts = self.commit_batch(std::slice::from_ref(&eff))?;
        Ok(receipts.pop().expect("one effect yields one receipt"))
    }

    /// **Sharded group commit**: price and split every statement outside
    /// any lock, then — in one critical section — assign consecutive
    /// global LSNs and shard-local LSNs, append each participating
    /// shard's sub-frames as one coalesced batch (one sync point per
    /// shard), append the order records (one order-log sync: the commit
    /// point) and apply the original effects in order.
    ///
    /// Receipts — LSNs, counters, measured costs — are bit-identical to
    /// the monolithic [`Store::commit_batch`] on the same effects.
    pub fn commit_batch(&self, effs: &[CommitEffects]) -> Result<Vec<CommitReceipt>> {
        if effs.is_empty() {
            return Ok(Vec::new());
        }
        let _span = obs::span("store.shard.commit_batch");
        let t_batch = obs::recording().then(Instant::now);
        // Phase 1, outside any lock: warm caches, price maintenance
        // against the whole statement (monolithic framing, so the
        // receipts price identically), split per shard and price each
        // shard's sub-effects for the shard-local accounting.
        let prepare_span = obs::span("store.shard.commit.prepare");
        let mut base_ns = Vec::with_capacity(effs.len());
        let mut runs = Vec::with_capacity(effs.len());
        let mut splits = Vec::with_capacity(effs.len());
        let mut sub_payloads: Vec<Vec<Option<Vec<u8>>>> = Vec::with_capacity(effs.len());
        let mut sub_counters: Vec<Vec<Option<(u64, u64)>>> = Vec::with_capacity(effs.len());
        for eff in effs {
            self.inner.warm_for_table(eff.table)?;
            let base_n = self.inner.base_rows(eff.table)?.len();
            base_ns.push(base_n);
            // Monolithic frame size: what the statement would have cost
            // to log unsharded — the receipt's `wal_bytes`.
            let mono_bytes = (eff.encode().len() + FRAME_HEADER_BYTES) as u64;
            runs.push(maintain(
                eff,
                &self.inner.specs,
                &self.inner.model,
                self.inner.base_kind(eff.table),
                mono_bytes,
                &|mv, row, col| self.inner.resolve_col(mv, row, col, 0),
            ));
            let split = self.split(eff, &self.router(eff.table, base_n));
            let mut payloads = Vec::with_capacity(self.spec.shards);
            let mut counters = Vec::with_capacity(self.spec.shards);
            for sub in &split.per_shard {
                match sub {
                    None => {
                        payloads.push(None);
                        counters.push(None);
                    }
                    Some(sub) => {
                        let payload = sub.encode();
                        // Shard-local maintenance accounting: the same
                        // pure counter function, restricted to the rows
                        // this shard received.
                        let sub_run = maintain(
                            sub,
                            &self.inner.specs,
                            &self.inner.model,
                            self.inner.base_kind(sub.table),
                            (payload.len() + FRAME_HEADER_BYTES) as u64,
                            &|mv, row, col| self.inner.resolve_col(mv, row, col, 0),
                        );
                        counters.push(Some((
                            sub_run.counters.index_rows_touched,
                            sub_run.counters.mv_groups_touched,
                        )));
                        payloads.push(Some(payload));
                    }
                }
            }
            sub_payloads.push(payloads);
            sub_counters.push(counters);
            splits.push(split);
        }
        drop(prepare_span);
        // Phase 2, the critical section. Lock order: state, then logs.
        let mut st = self.inner.state.write();
        let mut logs = self.logs.write();
        let first = st.next_lsn;
        st.next_lsn += effs.len() as u64;
        let mut shard_frames: Vec<Vec<WalFrame>> =
            (0..self.spec.shards).map(|_| Vec::new()).collect();
        let mut order_frames = Vec::with_capacity(effs.len());
        let mut fanouts = Vec::with_capacity(effs.len());
        for (i, (eff, split)) in effs.iter().zip(&splits).enumerate() {
            let lsn = first + i as u64;
            let mut entries = Vec::new();
            for (s, payload) in sub_payloads[i].iter().enumerate() {
                let Some(payload) = payload else { continue };
                let sub = split.per_shard[s].as_ref().expect("payload implies sub");
                let local = logs.shards[s].next_lsn;
                logs.shards[s].next_lsn += 1;
                shard_frames[s].push(WalFrame {
                    frame_type: FrameType::Commit,
                    lsn: local,
                    payload: payload.clone(),
                });
                entries.push((s as u32, local));
                let stats = &mut logs.shards[s].stats;
                stats.frames += 1;
                stats.rows_routed += sub.n_rows() as u64;
                if let Some((ix_rows, mv_groups)) = sub_counters[i][s] {
                    stats.index_rows_touched += ix_rows;
                    stats.mv_groups_touched += mv_groups;
                }
            }
            fanouts.push(entries.len() as u64);
            let record = CommitOrderRecord {
                table: eff.table.0,
                entries,
                appended_routes: split.appended_routes.clone(),
                rewritten_routes: split.rewritten_routes.clone(),
                deleted_routes: split.deleted_routes.clone(),
            };
            order_frames.push(WalFrame {
                frame_type: FrameType::Commit,
                lsn,
                payload: record.encode(),
            });
        }
        // Durability: every participating shard syncs its coalesced
        // sub-frames first, then the order log syncs the batch's records
        // — the commit point.
        let append_span = obs::span("store.shard.commit.append");
        let t_append = obs::recording().then(Instant::now);
        for (s, frames) in shard_frames.iter().enumerate() {
            if frames.is_empty() {
                continue;
            }
            logs.shards[s].wal.append_batch(frames);
            logs.shards[s].stats.wal_bytes = logs.shards[s].wal.bytes().len() as u64;
        }
        logs.order.append_batch(&order_frames);
        if let Some(t0) = t_append {
            obs::observe("store.shard.wal_append_ns", t0.elapsed().as_nanos() as u64);
        }
        drop(append_span);
        // Apply the *original* effects at the global LSNs — the shared
        // MVCC state evolves exactly as under the monolithic store.
        let apply_span = obs::span("store.shard.commit.apply");
        let mut receipts = Vec::with_capacity(effs.len());
        for (i, (eff, run)) in effs.iter().zip(&runs).enumerate() {
            let lsn = first + i as u64;
            Store::apply(&mut st, eff, lsn, base_ns[i])?;
            Store::absorb(&mut st, run, lsn);
            receipts.push(CommitReceipt {
                lsn,
                counters: run.counters,
                measured_cost: run.measured_cost,
                measured_mv_cost: run.measured_mv_cost,
            });
        }
        drop(apply_span);
        obs::counter_add("store.commits", effs.len() as u64);
        obs::counter_add("store.commit_batches", 1);
        obs::counter_add("store.shard.order_records", order_frames.len() as u64);
        obs::counter_add("store.shard.frames", fanouts.iter().sum());
        obs::gauge_set("store.shard.order_bytes", logs.order.bytes().len() as f64);
        for f in fanouts {
            obs::observe("store.shard.fanout", f);
        }
        if let Some(t0) = t_batch {
            let ns = t0.elapsed().as_nanos() as u64;
            obs::observe("store.group_commit_ns", ns);
            obs::observe("store.commit_batch_rows", effs.len() as u64);
        }
        Ok(receipts)
    }

    /// Execute every write statement of a workload through the sharded
    /// commit path. Equivalent to [`Self::apply_workload_batched`] with
    /// batch size 1.
    pub fn apply_workload(
        &self,
        w: &Workload,
        seed: u64,
        par: Parallelism,
    ) -> Result<Vec<WriteActual>> {
        self.apply_workload_batched(w, seed, par, 1)
    }

    /// The sharded group-commit workload driver: prepare every write in
    /// parallel under `par`, commit **in statement order** in durable
    /// batches of `batch`. Per-statement actuals (LSNs included) are
    /// bit-identical to the monolithic [`Store::apply_workload_batched`]
    /// for every `par` × `batch` × shard count × partitioning policy.
    pub fn apply_workload_batched(
        &self,
        w: &Workload,
        seed: u64,
        par: Parallelism,
        batch: usize,
    ) -> Result<Vec<WriteActual>> {
        let _span = obs::span("store.shard.apply_workload");
        let batch = batch.max(1);
        let prepared = self.inner.prepare_writes(w, seed, par)?;
        let mut out = Vec::with_capacity(prepared.len());
        for preps in prepared.chunks(batch) {
            let effs: Vec<CommitEffects> = preps.iter().map(|p| p.4.clone()).collect();
            let receipts = self.commit_batch(&effs)?;
            for (p, r) in preps.iter().zip(receipts) {
                out.push(WriteActual {
                    statement_index: p.0,
                    kind: p.1,
                    table: p.2,
                    n_rows: p.3,
                    lsn: r.lsn,
                    measured_cost: r.measured_cost,
                    measured_mv_cost: r.measured_mv_cost,
                    counters: r.counters,
                });
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Read path (delegates to the shared MVCC state)
    // ------------------------------------------------------------------

    /// A snapshot pinned at the current committed watermark.
    pub fn snapshot(&self) -> Snapshot<'_, 'a> {
        self.inner.snapshot()
    }

    /// Pre-fold `table`'s base into the row cache, exactly as
    /// [`Store::warm_for_table`] — the sharded layer shares the inner
    /// store's caches.
    pub fn warm_for_table(&self, table: TableId) -> Result<()> {
        self.inner.warm_for_table(table)
    }

    /// Highest committed LSN.
    pub fn watermark(&self) -> u64 {
        self.inner.watermark()
    }

    /// Running totals — bit-identical to the monolithic store's.
    pub fn totals(&self) -> StoreTotals {
        self.inner.totals()
    }

    /// The committed MV overlay at spec position `pos`.
    pub fn mv_overlay(&self, pos: usize) -> HashMap<Vec<Value>, super::maintain::MvGroupDelta> {
        self.inner.mv_overlay(pos)
    }

    /// Order-insensitive digest of the committed state.
    pub fn state_digest(&self) -> Result<u64> {
        self.inner.state_digest()
    }

    /// Per-shard running counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.logs.read().shards.iter().map(|s| s.stats).collect()
    }

    /// The order log's bytes (what would be on disk at the last sync).
    pub fn order_bytes(&self) -> Vec<u8> {
        self.logs.read().order.bytes().to_vec()
    }

    /// One shard's WAL segment bytes.
    pub fn shard_wal_bytes(&self, shard: usize) -> Vec<u8> {
        self.logs.read().shards[shard].wal.bytes().to_vec()
    }

    /// Every shard's WAL segment bytes, in shard order.
    pub fn all_shard_wal_bytes(&self) -> Vec<Vec<u8>> {
        self.logs
            .read()
            .shards
            .iter()
            .map(|s| s.wal.bytes().to_vec())
            .collect()
    }

    /// The order log's sync points.
    pub fn order_sync_points(&self) -> Vec<usize> {
        self.logs.read().order.sync_points().to_vec()
    }

    /// One shard's sync points.
    pub fn shard_sync_points(&self, shard: usize) -> Vec<usize> {
        self.logs.read().shards[shard].wal.sync_points().to_vec()
    }

    /// FNV-1a digest over the whole log set — the order log's raw bytes
    /// and every shard segment's, shard index included. The witness that
    /// batch size and parallelism mode change durability granularity
    /// only, never a single logged byte.
    pub fn wal_frame_digest(&self) -> u64 {
        let logs = self.logs.read();
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, logs.order.bytes());
        for (s, sh) in logs.shards.iter().enumerate() {
            h = fnv1a(h, &(s as u64).to_le_bytes());
            h = fnv1a(h, sh.wal.bytes());
        }
        h
    }

    /// Snapshot-atomicity check against the sharded log set: re-derive,
    /// from the order log plus the shard frames it references, how many
    /// appended rows each table must show at `lsn`, and compare with what
    /// the shared version chains make visible. A reader mid-commit must
    /// never observe a partially applied cross-shard batch — the commit's
    /// effects hit every shard's chains inside one critical section.
    /// LSNs before the checkpoint anchor are vacuously consistent.
    pub fn snapshot_consistent(&self, lsn: u64) -> Result<bool> {
        let st = self.inner.state.read();
        let logs = self.logs.read();
        if lsn < st.log_anchor {
            return Ok(true);
        }
        let shard_effs = decode_shard_frames(
            &logs
                .shards
                .iter()
                .map(|s| s.wal.bytes().to_vec())
                .collect::<Vec<_>>(),
            Parallelism::Serial,
        )?;
        let order = wal::replay(logs.order.bytes());
        let mut expected: BTreeMap<TableId, i64> = st.anchor_appends.clone();
        for f in &order.frames {
            if f.frame_type != FrameType::Commit || f.lsn > lsn || f.lsn <= st.log_anchor {
                continue;
            }
            let rec = CommitOrderRecord::decode(&f.payload)?;
            let e = expected.entry(TableId(rec.table)).or_default();
            *e += rec.appended_routes.len() as i64;
            for (shard, local) in &rec.entries {
                let Some((sub, _)) = shard_effs
                    .get(*shard as usize)
                    .and_then(|(m, _, _)| m.get(local))
                else {
                    continue;
                };
                for ts in &sub.deleted {
                    if matches!(ts.slot, RowSlot::Appended(_)) {
                        *e -= 1;
                    }
                }
            }
        }
        for (t, want) in expected {
            let got = st.deltas.get(&t).map_or(0, |d| d.appended_at(lsn).count()) as i64;
            if got != want {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Checkpoint + recovery
    // ------------------------------------------------------------------

    /// Fold the committed deltas into real compressed structures and
    /// truncate **every** log: the order log and each shard segment get a
    /// checkpoint marker (global / shard-local LSN respectively) and drop
    /// their pre-marker history. The artifact is bit-identical to the
    /// monolithic [`Store::checkpoint`] at the same watermark — same
    /// folded leaf bytes, same digest — plus the shard-local LSN counters
    /// recovery resumes the truncated logs from.
    ///
    /// Same epoch-boundary semantics as the monolithic checkpoint: slot
    /// ordinals re-address to the artifact's scan order, deltas reset,
    /// derived caches invalidate.
    pub fn checkpoint(&self) -> Result<ShardedCheckpoint> {
        let _span = obs::span("store.shard.checkpoint");
        let touched: Vec<TableId> = self.inner.state.read().deltas.keys().copied().collect();
        for t in &touched {
            self.inner.base_rows(*t)?;
        }
        let mut st = self.inner.state.write();
        let mut logs = self.logs.write();
        let lsn = st.watermark;
        let mut tables = BTreeMap::new();
        let mut patched_tables = 0usize;
        let mut rebuilt_tables = 0usize;
        for (t, d) in &st.deltas {
            let (ix, patched) = self.inner.fold_table(*t, d, lsn)?;
            if patched {
                patched_tables += 1;
            } else {
                rebuilt_tables += 1;
            }
            tables.insert(*t, ix);
        }
        let marker_lsn = st.next_lsn;
        st.next_lsn += 1;
        let head = logs.order.bytes().len();
        logs.order.append(&WalFrame {
            frame_type: FrameType::Checkpoint,
            lsn: marker_lsn,
            payload: lsn.to_le_bytes().to_vec(),
        });
        let mut truncated_wal_bytes = logs.order.truncate_head(head);
        let mut shard_next_lsns = Vec::with_capacity(logs.shards.len());
        for sh in logs.shards.iter_mut() {
            let h = sh.wal.bytes().len();
            let local = sh.next_lsn;
            sh.next_lsn += 1;
            sh.wal.append(&WalFrame {
                frame_type: FrameType::Checkpoint,
                lsn: local,
                payload: lsn.to_le_bytes().to_vec(),
            });
            truncated_wal_bytes += sh.wal.truncate_head(h);
            sh.stats.wal_bytes = sh.wal.bytes().len() as u64;
            shard_next_lsns.push(sh.next_lsn);
        }
        // Epoch switch, identical to the monolithic checkpoint.
        {
            let mut base_ix = self.inner.base_ix.write();
            for (t, ix) in &tables {
                base_ix.insert(*t, std::sync::Arc::new(ix.clone()));
            }
        }
        {
            let mut rows = self.inner.base_rows.write();
            for t in tables.keys() {
                rows.remove(t);
            }
        }
        self.inner.dim_maps.write().clear();
        self.inner.page_cache.write().entries.clear();
        for (t, ix) in &tables {
            st.deltas
                .insert(*t, super::delta::TableDelta::new(ix.n_rows()));
        }
        st.mod_lsns.clear();
        st.log_anchor = lsn;
        st.anchor_appends = BTreeMap::new();
        obs::counter_add("store.checkpoints", 1);
        obs::counter_add(
            "store.shard.checkpoint.truncated_wal_bytes",
            truncated_wal_bytes as u64,
        );
        Ok(ShardedCheckpoint {
            store: StoreCheckpoint {
                lsn,
                next_lsn: st.next_lsn,
                tables,
                overlays: st.overlays.clone(),
                totals: st.totals,
                patched_tables,
                rebuilt_tables,
                truncated_wal_bytes,
            },
            shard_next_lsns,
        })
    }

    /// Re-apply one reconstructed commit during recovery, re-logging its
    /// shard frames and order record so the recovered log set is exactly
    /// the committed prefix of the crashed one.
    fn replay_commit(
        &self,
        eff: &CommitEffects,
        lsn: u64,
        rec: &CommitOrderRecord,
        shard_effs: &[DecodedShard],
    ) -> Result<()> {
        self.inner.warm_for_table(eff.table)?;
        let base_n = self.inner.base_rows(eff.table)?.len();
        let mono_bytes = (eff.encode().len() + FRAME_HEADER_BYTES) as u64;
        let run = maintain(
            eff,
            &self.inner.specs,
            &self.inner.model,
            self.inner.base_kind(eff.table),
            mono_bytes,
            &|mv, row, col| self.inner.resolve_col(mv, row, col, 0),
        );
        let mut st = self.inner.state.write();
        let mut logs = self.logs.write();
        st.next_lsn = st.next_lsn.max(lsn + 1);
        for (shard, local) in &rec.entries {
            let s = *shard as usize;
            let (sub, _) = &shard_effs[s].0[local];
            let payload = sub.encode();
            let sh = &mut logs.shards[s];
            sh.wal.append(&WalFrame {
                frame_type: FrameType::Commit,
                lsn: *local,
                payload,
            });
            sh.next_lsn = sh.next_lsn.max(local + 1);
            sh.stats.frames += 1;
            sh.stats.rows_routed += sub.n_rows() as u64;
            sh.stats.wal_bytes = sh.wal.bytes().len() as u64;
        }
        logs.order.append(&WalFrame {
            frame_type: FrameType::Commit,
            lsn,
            payload: rec.encode(),
        });
        Store::apply(&mut st, eff, lsn, base_n)?;
        Store::absorb(&mut st, &run, lsn);
        Ok(())
    }

    /// Sharded crash recovery: replay every shard segment **in parallel**
    /// (decode is per-shard independent work), then walk the order log
    /// serially, re-merging each record's per-shard sub-effects into the
    /// original statement effects and applying them in global LSN order.
    /// A record referencing a lost shard frame — a torn shard tail — ends
    /// the committed prefix: it and every later record are discarded.
    pub fn recover(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        spec: ShardSpec,
        order_bytes: &[u8],
        shard_bytes: &[Vec<u8>],
    ) -> Result<(ShardedStore<'a>, ShardedRecoveryReport)> {
        let _span = obs::span("store.shard.recover");
        if shard_bytes.len() != spec.shards {
            return Err(CadbError::InvalidArgument(format!(
                "recover: {} shard logs for a {}-shard spec",
                shard_bytes.len(),
                spec.shards
            )));
        }
        let store = ShardedStore::open(db, mat, model, spec)?;
        let report = store.replay_log_set(order_bytes, shard_bytes, 0)?;
        obs::publish_counters(&report.as_metrics());
        Ok((store, report))
    }

    /// Checkpoint-anchored sharded recovery: install the artifact, resume
    /// every shard's local LSN counter, and replay only the
    /// post-checkpoint tails of the (truncated, possibly torn) log set.
    pub fn recover_with_checkpoint(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        spec: ShardSpec,
        ckpt: &ShardedCheckpoint,
        order_bytes: &[u8],
        shard_bytes: &[Vec<u8>],
    ) -> Result<(ShardedStore<'a>, ShardedRecoveryReport)> {
        let _span = obs::span("store.shard.recover");
        if shard_bytes.len() != spec.shards || ckpt.shard_next_lsns.len() != spec.shards {
            return Err(CadbError::InvalidArgument(format!(
                "recover: {} shard logs / {} checkpoint counters for a {}-shard spec",
                shard_bytes.len(),
                ckpt.shard_next_lsns.len(),
                spec.shards
            )));
        }
        let store = ShardedStore::open(db, mat, model, spec)?;
        {
            let mut base_ix = store.inner.base_ix.write();
            for (t, ix) in &ckpt.store.tables {
                base_ix.insert(*t, std::sync::Arc::new(ix.clone()));
            }
        }
        {
            let mut st = store.inner.state.write();
            st.next_lsn = ckpt.store.next_lsn;
            st.watermark = ckpt.store.lsn;
            st.log_anchor = ckpt.store.lsn;
            st.overlays = ckpt.store.overlays.clone();
            st.totals = ckpt.store.totals;
        }
        for t in ckpt.store.tables.keys() {
            let n = store.inner.base_pages(*t)?.n_rows();
            store
                .inner
                .state
                .write()
                .deltas
                .insert(*t, super::delta::TableDelta::new(n));
        }
        {
            let mut logs = store.logs.write();
            for (sh, next) in logs.shards.iter_mut().zip(&ckpt.shard_next_lsns) {
                sh.next_lsn = *next;
            }
        }
        let report = store.replay_log_set(order_bytes, shard_bytes, ckpt.store.lsn)?;
        obs::publish_counters(&report.as_metrics());
        Ok((store, report))
    }

    /// Shared replay core: parallel per-shard decode, then the serial
    /// order walk. Commits with `lsn <= anchor` are already folded into
    /// the artifact and skipped.
    fn replay_log_set(
        &self,
        order_bytes: &[u8],
        shard_bytes: &[Vec<u8>],
        anchor: u64,
    ) -> Result<ShardedRecoveryReport> {
        let shard_effs = decode_shard_frames(shard_bytes, Parallelism::Auto)?;
        let order = wal::replay(order_bytes);
        let mut commits_applied = 0usize;
        let mut commits_discarded = 0usize;
        let mut checkpoints_seen = 0usize;
        let mut applied_per_shard = vec![0usize; shard_bytes.len()];
        let mut broken = false;
        for f in &order.frames {
            match f.frame_type {
                FrameType::Checkpoint => {
                    checkpoints_seen += 1;
                    let mut st = self.inner.state.write();
                    st.next_lsn = st.next_lsn.max(f.lsn + 1);
                    // Keep the marker so the recovered order log stays a
                    // consistent prefix of the input tail.
                    self.logs.write().order.append(f);
                }
                FrameType::Commit if broken => {
                    commits_discarded += 1;
                }
                FrameType::Commit => {
                    let rec = CommitOrderRecord::decode(&f.payload)?;
                    if f.lsn <= anchor {
                        // Pre-anchor commits are folded into the artifact.
                        continue;
                    }
                    match merge_effects(&rec, &shard_effs) {
                        Some(eff) => {
                            self.replay_commit(&eff, f.lsn, &rec, &shard_effs)?;
                            commits_applied += 1;
                            for (shard, _) in &rec.entries {
                                applied_per_shard[*shard as usize] += 1;
                            }
                        }
                        None => {
                            // A referenced shard frame was torn away (or
                            // disagrees with the routes): the committed
                            // prefix ends here.
                            broken = true;
                            commits_discarded += 1;
                        }
                    }
                }
            }
        }
        // Shard checkpoints seen feed the per-shard reports.
        let per_shard: Vec<RecoveryReport> = shard_effs
            .iter()
            .enumerate()
            .map(|(s, (_, rep, ckpts))| RecoveryReport {
                frames_applied: applied_per_shard[s],
                checkpoints_seen: *ckpts,
                truncated_bytes: rep.0,
                duplicates_skipped: rep.1,
                watermark: self.inner.watermark(),
            })
            .collect();
        Ok(ShardedRecoveryReport {
            per_shard,
            order: RecoveryReport {
                frames_applied: commits_applied,
                checkpoints_seen,
                truncated_bytes: order.truncated_bytes,
                duplicates_skipped: order.duplicates_skipped,
                watermark: self.inner.watermark(),
            },
            commits_discarded,
            watermark: self.inner.watermark(),
        })
    }
}

/// One shard's decoded log: `local LSN → (sub-effects, payload length)`,
/// the segment's `(truncated_bytes, duplicates_skipped)`, and the number
/// of checkpoint markers seen.
type DecodedShard = (HashMap<u64, (CommitEffects, usize)>, (usize, usize), usize);

/// Replay + decode every shard segment, in parallel under `par`.
fn decode_shard_frames(shard_bytes: &[Vec<u8>], par: Parallelism) -> Result<Vec<DecodedShard>> {
    cadb_common::par_map(par, shard_bytes, |_, bytes| {
        let rep = wal::replay(bytes);
        let mut map = HashMap::with_capacity(rep.frames.len());
        let mut checkpoints = 0usize;
        for f in &rep.frames {
            match f.frame_type {
                FrameType::Checkpoint => checkpoints += 1,
                FrameType::Commit => {
                    let eff = CommitEffects::decode(&f.payload)?;
                    map.insert(f.lsn, (eff, f.payload.len()));
                }
            }
        }
        Ok((
            map,
            (rep.truncated_bytes, rep.duplicates_skipped),
            checkpoints,
        ))
    })
    .into_iter()
    .collect()
}

/// Re-interleave an order record's per-shard sub-effects into the
/// original statement effects, following the route bytes. Returns `None`
/// when a referenced frame is missing or the routes disagree with the
/// sub-effects — either way the commit never fully hit disk.
fn merge_effects(rec: &CommitOrderRecord, shards: &[DecodedShard]) -> Option<CommitEffects> {
    let mut subs: HashMap<u32, &CommitEffects> = HashMap::with_capacity(rec.entries.len());
    for (shard, local) in &rec.entries {
        let (eff, _) = shards.get(*shard as usize)?.0.get(local)?;
        if eff.table.0 != rec.table {
            return None;
        }
        subs.insert(*shard, eff);
    }
    let mut cursors: HashMap<u32, (usize, usize, usize)> =
        subs.keys().map(|s| (*s, (0, 0, 0))).collect();
    let mut out = CommitEffects {
        table: TableId(rec.table),
        appended: Vec::with_capacity(rec.appended_routes.len()),
        rewritten: Vec::with_capacity(rec.rewritten_routes.len()),
        deleted: Vec::with_capacity(rec.deleted_routes.len()),
    };
    for &s in &rec.appended_routes {
        let sub = subs.get(&(s as u32))?;
        let c = &mut cursors.get_mut(&(s as u32))?.0;
        out.appended.push(sub.appended.get(*c)?.clone());
        *c += 1;
    }
    for &s in &rec.rewritten_routes {
        let sub = subs.get(&(s as u32))?;
        let c = &mut cursors.get_mut(&(s as u32))?.1;
        out.rewritten.push(sub.rewritten.get(*c)?.clone());
        *c += 1;
    }
    for &s in &rec.deleted_routes {
        let sub = subs.get(&(s as u32))?;
        let c = &mut cursors.get_mut(&(s as u32))?.2;
        out.deleted.push(sub.deleted.get(*c)?.clone());
        *c += 1;
    }
    // Every routed row must be consumed: leftovers mean the routes and
    // the shard frames disagree.
    for (s, (a, r, d)) in &cursors {
        let sub = subs[s];
        if *a != sub.appended.len() || *r != sub.rewritten.len() || *d != sub.deleted.len() {
            return None;
        }
    }
    Some(out)
}
