//! Per-layer metrics of a traced run: the benchmark's own timings around
//! each layer call, the program's public counters and stats, and the span
//! tree a `TraceRecorder` collected.

use crate::query::QueryResult;
use crate::serve::ServeResult;
use crate::stats::{mean, p50};
use crate::tune::TuneResult;
use crate::Metric;
use cadb_common::obs::{SpanNode, TraceReport};
use cadb_compression::CompressionKind;
use cadb_core::{DeductionEstimator, EstimationContext, SizeEstimator};
use cadb_engine::{Database, IndexSpec, WhatIfOptimizer};
use cadb_exec::MaterializedConfig;
use cadb_sampling::SampleManager;

/// The benchmark's own boundary spans, one per layer call it times.
const BOUNDARIES: [&str; 9] = [
    "bench.build",
    "bench.advise",
    "bench.query.plan",
    "bench.query.exec",
    "bench.serve.prepare",
    "bench.serve.commit",
    "bench.serve.read",
    "bench.serve.checkpoint",
    "bench.serve.recover",
];

/// Program spans whose own time the ROADMAP calls dark: time inside them
/// that none of their child spans covers.
const DARK_SPANS: [&str; 2] = ["planner.fraction_grid", "store.recover"];

fn visit<'a>(nodes: &'a [SpanNode], f: &mut impl FnMut(&'a SpanNode)) {
    for n in nodes {
        f(n);
        visit(&n.children, f);
    }
}

/// Total nanoseconds of every span called `name`, wherever it sits.
fn span_ns(report: &TraceReport, name: &str) -> f64 {
    let mut ns = 0u64;
    visit(&report.roots, &mut |n| {
        if n.name == name {
            ns += n.total_ns;
        }
    });
    ns as f64
}

/// Share (%) of the time of the spans called `name` that none of their
/// children covers. Each span's self time is its duration minus its
/// children's, clamped at 0 where parallel children overlap.
fn unattributed_pct(report: &TraceReport, name: &str) -> f64 {
    let (mut total, mut own) = (0u64, 0u64);
    visit(&report.roots, &mut |n| {
        if n.name == name {
            let kids: u64 = n.children.iter().map(|c| c.total_ns).sum();
            total += n.total_ns;
            own += n.total_ns.saturating_sub(kids);
        }
    });
    if total == 0 {
        0.0
    } else {
        100.0 * own as f64 / total as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Byte-weighted measured compression fraction of the built structures
/// of one compression kind: compressed bytes over uncompressed bytes.
fn measured_cf(mat: &MaterializedConfig, kind: CompressionKind) -> f64 {
    let (mut compressed, mut raw) = (0.0, 0.0);
    for s in mat
        .structures()
        .iter()
        .filter(|s| s.spec.compression == kind)
    {
        compressed += s.measured_bytes as f64;
        raw += s.measured_bytes as f64 / s.measured_cf.max(1e-12);
    }
    ratio(compressed, raw)
}

/// Absolute error (%) of the DeductionEstimator's total size estimate for
/// the rich configuration's compressed structures against their built
/// bytes.
pub fn size_error_pct(db: &Database, mat: &MaterializedConfig) -> cadb_common::Result<f64> {
    let targets: Vec<IndexSpec> = mat
        .structures()
        .iter()
        .filter(|s| s.spec.compression.is_compressed())
        .map(|s| s.spec.clone())
        .collect();
    let opt = WhatIfOptimizer::new(db).with_parallelism(crate::harness::PAR);
    let manager = SampleManager::new(db, 7);
    let ctx = EstimationContext {
        opt: &opt,
        manager: &manager,
    };
    let report = DeductionEstimator::default().estimate_sizes(&ctx, &targets, &[])?;
    let estimated: f64 = targets
        .iter()
        .filter_map(|t| report.estimates.get(t))
        .map(|e| e.bytes)
        .sum();
    let measured: f64 = mat
        .structures()
        .iter()
        .filter(|s| s.spec.compression.is_compressed())
        .map(|s| s.measured_bytes as f64)
        .sum();
    Ok(100.0 * ratio((estimated - measured).abs(), measured))
}

/// Everything a traced run measured.
pub struct Traced<'r> {
    pub tune: &'r TuneResult,
    pub query: &'r QueryResult,
    pub serve: &'r ServeResult,
    pub builds: usize,
    pub report: &'r TraceReport,
    pub mat: &'r MaterializedConfig,
    pub size_error_pct: f64,
    pub overhead_pct: f64,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn metrics(t: &Traced<'_>) -> Vec<Metric> {
    let r = t.report;
    let calls = t.tune.calls().max(1) as f64;
    let per_call_ms = |s: f64| 1e3 * s / calls;
    let counter = |name: &str| r.counter(name).unwrap_or(0) as f64;
    let candidates_s = t.tune.advise_s.iter().sum::<f64>()
        - t.tune.estimate_s
        - t.tune.select_s
        - t.tune.enumerate_s;
    let q = t.query;
    let s = t.serve;
    let build = t.mat.build_stats();
    let mut out = vec![
        Metric::new(
            "advisor.candidates_ms",
            per_call_ms(candidates_s.max(0.0)),
            "ms/call",
        ),
        Metric::new(
            "advisor.estimate_ms",
            per_call_ms(t.tune.estimate_s),
            "ms/call",
        ),
        Metric::new("advisor.select_ms", per_call_ms(t.tune.select_s), "ms/call"),
        Metric::new(
            "advisor.enumerate_ms",
            per_call_ms(t.tune.enumerate_s),
            "ms/call",
        ),
        Metric::new(
            "core.planner.plan_ms",
            per_call_ms(t.tune.planner_s),
            "ms/call",
        ),
        Metric::new(
            "core.planner.planned_cost_pages",
            t.tune.planned_cost_pages / calls,
            "pages/call",
        ),
        Metric::new(
            "core.planner.deduced_share",
            ratio(
                t.tune.deduced as f64,
                (t.tune.sampled + t.tune.deduced) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "sampling.samplecf_ms",
            per_call_ms(t.tune.samplecf_s),
            "ms/call",
        ),
        Metric::new(
            "sampling.sample_cf_calls",
            counter("sampling.sample_cf_calls") / calls,
            "count/call",
        ),
        Metric::new(
            "sampling.base_rows",
            counter("sampling.base_rows") / calls,
            "rows/call",
        ),
        Metric::new("sampling.size_error_pct", t.size_error_pct, "%"),
        Metric::new(
            "engine.whatif.configs_costed",
            counter("whatif.configs_costed") / calls,
            "count/call",
        ),
        Metric::new(
            "engine.whatif.batch_ms",
            span_ns(r, "whatif.batch") / 1e6 / calls,
            "ms/call",
        ),
        Metric::new(
            "shard.stripe_pack_ms",
            span_ns(r, "shard.stripe_pack") / 1e6 / t.builds.max(1) as f64,
            "ms/build",
        ),
        Metric::new("shard.build_peak_bytes", build.peak_bytes as f64, "bytes"),
        Metric::new("shard.rows", build.rows as f64, "rows/build"),
        Metric::new(
            "compression.cf.row",
            measured_cf(t.mat, CompressionKind::Row),
            "ratio",
        ),
        Metric::new(
            "compression.cf.page",
            measured_cf(t.mat, CompressionKind::Page),
            "ratio",
        ),
        Metric::new("exec.planner.plan_us", p50(&q.plan_us), "us"),
        Metric::new(
            "exec.planner.paths.base_scan",
            q.paths[0] as f64,
            "count/pass",
        ),
        Metric::new(
            "exec.planner.paths.index_scan",
            q.paths[1] as f64,
            "count/pass",
        ),
        Metric::new(
            "exec.planner.paths.index_seek",
            q.paths[2] as f64,
            "count/pass",
        ),
        Metric::new(
            "exec.planner.paths.mv_scan",
            q.paths[3] as f64,
            "count/pass",
        ),
        Metric::new("exec.scan.exec_ms", p50(&q.exec_ms), "ms"),
        Metric::new(
            "exec.scan.pages_scanned",
            q.pages_scanned as f64 / q.passes.max(1) as f64,
            "pages/pass",
        ),
        Metric::new(
            "exec.scan.match_ratio",
            ratio(q.rows_matched as f64, q.rows_scanned as f64),
            "ratio",
        ),
        Metric::new(
            "exec.scan.evals_per_row",
            ratio(q.predicate_evals as f64, q.rows_scanned as f64),
            "evals/row",
        ),
        Metric::new("store.prepare_ms", p50(&s.prepare_ms), "ms"),
        Metric::new("store.prepare_first_ms", p50(&s.prepare_first_ms), "ms"),
        Metric::new("store.commit_batch_ms", p50(&s.commit_batch_ms), "ms"),
        Metric::new(
            "store.maintain.index_rows_per_row",
            ratio(s.index_rows_touched as f64, s.rows_written as f64),
            "ratio",
        ),
        Metric::new(
            "store.maintain.mv_groups_per_commit",
            ratio(s.mv_groups_touched as f64, s.statements as f64),
            "groups/commit",
        ),
        Metric::new(
            "store.page_cache.hit_ratio",
            ratio(s.cache.hits as f64, (s.cache.hits + s.cache.misses) as f64),
            "ratio",
        ),
        Metric::new("store.page_cache.hit_ms", p50(&s.hit_ms), "ms"),
        Metric::new("store.page_cache.miss_ms", p50(&s.miss_ms), "ms"),
        Metric::new(
            "store.page_cache.patched",
            ratio(s.cache.patched as f64, s.batches as f64),
            "count/commit",
        ),
        Metric::new(
            "store.page_cache.rebuilt",
            ratio(s.cache.rebuilt as f64, s.batches as f64),
            "count/commit",
        ),
        Metric::new(
            "storage.wal.bytes_per_row",
            ratio(s.wal_bytes as f64, s.rows_written as f64),
            "bytes/row",
        ),
        Metric::new(
            "storage.wal.sync_points",
            ratio(s.sync_points as f64, s.batches as f64),
            "count/commit",
        ),
        Metric::new(
            "store.checkpoint.patched_tables",
            ratio(s.patched_tables as f64, s.checkpoint_ms.len() as f64),
            "count/ckpt",
        ),
        Metric::new(
            "store.checkpoint.rebuilt_tables",
            ratio(s.rebuilt_tables as f64, s.checkpoint_ms.len() as f64),
            "count/ckpt",
        ),
        Metric::new("store.recover.frames", mean(&s.recover_frames), "frames"),
        Metric::new(
            "store.recover.us_per_frame",
            1e3 * ratio(s.recover_ms.iter().sum(), s.recover_frames.iter().sum()),
            "us/frame",
        ),
    ];
    for b in BOUNDARIES.iter().chain(&DARK_SPANS) {
        out.push(Metric::new(
            &format!("unattributed_pct.{b}"),
            unattributed_pct(r, b),
            "%",
        ));
    }
    out.push(Metric::new("tracing.overhead_pct", t.overhead_pct, "%"));
    out
}
