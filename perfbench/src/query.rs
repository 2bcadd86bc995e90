//! The query phase: passes of the 22 TPC-H SELECTs through `plan_query`
//! and `execute_planned` over the built rich configuration, each result
//! checked against the decompress-then-execute reference outside the
//! timed section.

use crate::harness::{Tally, PAR};
use crate::stats::{p50, p95};
use cadb_common::{obs, Row};
use cadb_engine::{Query, Workload};
use cadb_exec::{
    execute_planned, execute_query, plan_query, ExecMode, MaterializedConfig, PathKind,
};
use std::time::Instant;

/// What the query phase measured.
#[derive(Debug, Default)]
pub struct QueryResult {
    /// Milliseconds per query (plan + execute), one sample per query run.
    pub query_ms: Vec<f64>,
    /// `query_ms` p50 of each pass.
    pub pass_p50_ms: Vec<f64>,
    /// `query_ms` p95 of each pass.
    pub pass_p95_ms: Vec<f64>,
    /// Microseconds in `plan_query`, per query run.
    pub plan_us: Vec<f64>,
    /// Milliseconds in `execute_planned`, per query run.
    pub exec_ms: Vec<f64>,
    /// Passes over the workload's queries.
    pub passes: usize,
    /// Wall seconds of the passes.
    pub wall_s: f64,
    /// Table paths of one pass's plans, by kind: base scan, index scan,
    /// index seek, and whole-query MV plans.
    pub paths: [u64; 4],
    /// Scan counters summed over all query runs.
    pub pages_scanned: u64,
    /// Rows the scans represented.
    pub rows_scanned: u64,
    /// Rows that survived the predicates.
    pub rows_matched: u64,
    /// Predicate evaluations performed.
    pub predicate_evals: u64,
}

/// The reference result of every query, computed once, untimed.
pub fn reference_results(
    mat: &MaterializedConfig,
    w: &Workload,
    tally: &mut Tally,
) -> Vec<Option<Vec<Row>>> {
    w.queries()
        .map(
            |(q, _)| match execute_query(mat, q, PAR, ExecMode::Reference) {
                Ok((rows, _)) => Some(rows),
                Err(e) => {
                    tally.attempt();
                    tally.fail(format!("reference execution: {e}"));
                    None
                }
            },
        )
        .collect()
}

/// The query phase, one pass over the workload's queries per
/// [`Querier::step`].
pub struct Querier<'a> {
    mat: &'a MaterializedConfig,
    queries: Vec<&'a Query>,
    reference: &'a [Option<Vec<Row>>],
    out: QueryResult,
}

impl<'a> Querier<'a> {
    /// A querier over the built configuration, checking against
    /// `reference` (one expected result per query).
    pub fn new(
        mat: &'a MaterializedConfig,
        w: &'a Workload,
        reference: &'a [Option<Vec<Row>>],
    ) -> Self {
        Querier {
            mat,
            queries: w.queries().map(|(q, _)| q).collect(),
            reference,
            out: QueryResult::default(),
        }
    }

    /// One pass: plan and execute every query, then check its result.
    pub fn step(&mut self, tally: &mut Tally) {
        let t_pass = Instant::now();
        let (mat, out) = (self.mat, &mut self.out);
        let pass_start = out.query_ms.len();
        for (q, expected) in self.queries.iter().zip(self.reference) {
            tally.attempt();
            let t0 = Instant::now();
            let plan = {
                let _s = obs::span("bench.query.plan");
                plan_query(mat, q)
            };
            let t1 = Instant::now();
            let plan = match plan {
                Ok(p) => p,
                Err(e) => {
                    tally.fail(format!("plan_query: {e}"));
                    continue;
                }
            };
            let result = {
                let _s = obs::span("bench.query.exec");
                execute_planned(mat, q, &plan, PAR)
            };
            let t2 = Instant::now();
            let (rows, stats) = match result {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(format!("execute_planned: {e}"));
                    continue;
                }
            };
            out.plan_us.push((t1 - t0).as_secs_f64() * 1e6);
            out.exec_ms.push((t2 - t1).as_secs_f64() * 1e3);
            out.query_ms.push((t2 - t0).as_secs_f64() * 1e3);
            out.pages_scanned += stats.pages_scanned as u64;
            out.rows_scanned += stats.rows_scanned as u64;
            out.rows_matched += stats.rows_matched as u64;
            out.predicate_evals += stats.predicate_evals as u64;
            if out.passes == 0 {
                if plan.mv.is_some() {
                    out.paths[3] += 1;
                } else {
                    for p in &plan.tables {
                        out.paths[match p.kind {
                            PathKind::BaseScan => 0,
                            PathKind::IndexScan => 1,
                            PathKind::IndexSeek => 2,
                            PathKind::MvScan => 3,
                        }] += 1;
                    }
                }
            }
            if expected.as_ref() != Some(&rows) {
                tally.fail(format!(
                    "query result differs from the reference: {}",
                    plan.describe()
                ));
            }
        }
        let pass = &out.query_ms[pass_start..];
        out.pass_p50_ms.push(p50(pass));
        out.pass_p95_ms.push(p95(pass));
        out.passes += 1;
        out.wall_s += t_pass.elapsed().as_secs_f64();
    }

    /// What the passes so far measured.
    pub fn finish(self) -> QueryResult {
        self.out
    }
}
