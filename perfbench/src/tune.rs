//! The advise phase: DTAc (all features) over the paper's budget grid,
//! a fresh `Advisor` per call, with timing wrappers around the three
//! strategy traits so the advisor's stages are measured from outside.

use crate::harness::{Tally, PAR};
use crate::stats::{fastest, mean};
use cadb_common::{obs, Result};
use cadb_core::{
    Advisor, AdvisorContext, AdvisorOptions, CandidateSelection, EnumerationStrategy,
    EstimationContext, FeatureSet, SizeEstimationReport, SizeEstimator, StrategySet,
};
use cadb_engine::{Configuration, Database, IndexSpec, PhysicalStructure, Workload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Storage budgets as fractions of the base data bytes (the paper's grid).
pub const BUDGET_GRID: [f64; 5] = [0.08, 0.15, 0.3, 0.5, 0.8];

/// Nanoseconds spent inside each wrapped strategy, summed over calls.
#[derive(Debug, Default)]
struct StageClock {
    estimate_ns: AtomicU64,
    select_ns: AtomicU64,
    enumerate_ns: AtomicU64,
}

fn timed<R>(slot: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    slot.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

struct TimedEstimator(Arc<dyn SizeEstimator>, Arc<StageClock>);
struct TimedSelection(Arc<dyn CandidateSelection>, Arc<StageClock>);
struct TimedEnumeration(Arc<dyn EnumerationStrategy>, Arc<StageClock>);

impl SizeEstimator for TimedEstimator {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn estimate_sizes(
        &self,
        ctx: &EstimationContext<'_>,
        targets: &[IndexSpec],
        existing: &[IndexSpec],
    ) -> Result<SizeEstimationReport> {
        timed(&self.1.estimate_ns, || {
            self.0.estimate_sizes(ctx, targets, existing)
        })
    }
}

impl CandidateSelection for TimedSelection {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn select(
        &self,
        ctx: &AdvisorContext<'_>,
        workload: &Workload,
        priced: &[PhysicalStructure],
    ) -> Result<Vec<PhysicalStructure>> {
        timed(&self.1.select_ns, || self.0.select(ctx, workload, priced))
    }
}

impl EnumerationStrategy for TimedEnumeration {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn enumerate(
        &self,
        ctx: &AdvisorContext<'_>,
        workload: &Workload,
        pool: &[PhysicalStructure],
    ) -> Result<Configuration> {
        timed(&self.1.enumerate_ns, || {
            self.0.enumerate(ctx, workload, pool)
        })
    }
}

/// What the advise phase measured.
#[derive(Debug, Default)]
pub struct TuneResult {
    /// Seconds per recommendation, one sample per call.
    pub advise_s: Vec<f64>,
    /// Seconds per recommendation at each budget of the grid. Budgets
    /// differ in cost, so `advise_s` takes the fastest calls of each
    /// budget and weighs every budget once.
    pub by_budget: [Vec<f64>; BUDGET_GRID.len()],
    /// Estimated workload-cost improvement per budget of the grid, %.
    pub improvement_pct: Vec<f64>,
    /// Wall seconds of the calls.
    pub wall_s: f64,
    /// Seconds inside the size-estimation strategy, summed over calls.
    pub estimate_s: f64,
    /// Seconds inside candidate selection, summed.
    pub select_s: f64,
    /// Seconds inside enumeration, summed.
    pub enumerate_s: f64,
    /// `Recommendation.timings.sample_seconds`, summed.
    pub planner_s: f64,
    /// `Recommendation.timings.estimate_seconds` (SampleCF), summed.
    pub samplecf_s: f64,
    /// `Recommendation.timings.estimation_cost_pages`, summed.
    pub planned_cost_pages: f64,
    /// Targets sampled by the estimation framework, summed.
    pub sampled: usize,
    /// Targets deduced, summed.
    pub deduced: usize,
}

impl TuneResult {
    /// Recommendations made.
    pub fn calls(&self) -> usize {
        self.advise_s.len()
    }

    /// Seconds per recommendation: the fastest calls at each budget
    /// (`stats::fastest`), averaged over the grid.
    pub fn seconds_per_call(&self) -> f64 {
        mean(&self.by_budget.each_ref().map(|v| fastest(v)))
    }
}

/// One line that identifies a recommendation: its structures in the order
/// chosen and its estimated cost.
fn fingerprint(cfg: &Configuration, final_cost: f64) -> String {
    let mut s: Vec<String> = cfg
        .structures()
        .iter()
        .map(|p| p.spec.to_string())
        .collect();
    s.push(format!("{:016x}", final_cost.to_bits()));
    s.join("|")
}

/// The advise phase, one recommendation per [`Tuner::step`], cycling
/// through [`BUDGET_GRID`]. Each recommendation must fit its budget and
/// equal the first recommendation for the same budget.
pub struct Tuner<'a> {
    db: &'a Database,
    w: &'a Workload,
    clock: Arc<StageClock>,
    first: Vec<Option<String>>,
    steps: usize,
    out: TuneResult,
}

impl<'a> Tuner<'a> {
    /// A tuner over the generated database and workload.
    pub fn new(db: &'a Database, w: &'a Workload) -> Self {
        Tuner {
            db,
            w,
            clock: Arc::new(StageClock::default()),
            first: vec![None; BUDGET_GRID.len()],
            steps: 0,
            out: TuneResult::default(),
        }
    }

    /// One recommendation at the next budget of the grid, by a fresh
    /// `Advisor`.
    pub fn step(&mut self, tally: &mut Tally) {
        let t_call = Instant::now();
        let i = self.steps % BUDGET_GRID.len();
        self.steps += 1;
        self.recommend(i, tally);
        self.out.wall_s += t_call.elapsed().as_secs_f64();
    }

    fn recommend(&mut self, i: usize, tally: &mut Tally) {
        let frac = BUDGET_GRID[i];
        let budget = frac * self.db.base_data_bytes() as f64;
        let opts = AdvisorOptions::dtac(budget)
            .with_features(FeatureSet::All)
            .with_parallelism(PAR);
        let plain = StrategySet::from_options(&opts);
        let strategies = StrategySet {
            estimator: Arc::new(TimedEstimator(plain.estimator, self.clock.clone())),
            selection: Arc::new(TimedSelection(plain.selection, self.clock.clone())),
            enumeration: Arc::new(TimedEnumeration(plain.enumeration, self.clock.clone())),
        };
        tally.attempt();
        let t = Instant::now();
        let rec = {
            let _s = obs::span("bench.advise");
            Advisor::new(self.db, opts).recommend_with(self.w, &strategies)
        };
        let secs = t.elapsed().as_secs_f64();
        let rec = match rec {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("advise at budget {frac}: {e}"));
                return;
            }
        };
        let out = &mut self.out;
        out.advise_s.push(secs);
        out.by_budget[i].push(secs);
        let tm = rec.timings;
        out.planner_s += tm.sample_seconds;
        out.samplecf_s += tm.estimate_seconds;
        out.planned_cost_pages += tm.estimation_cost_pages;
        out.sampled += tm.sampled;
        out.deduced += tm.deduced;
        let fp = fingerprint(&rec.configuration, rec.final_cost);
        if rec.total_bytes() > budget {
            tally.fail(format!(
                "recommendation at budget {frac} takes {:.0} B > {budget:.0} B",
                rec.total_bytes()
            ));
        } else if let Some(prev) = &self.first[i] {
            if *prev != fp {
                tally.fail(format!("recommendation at budget {frac} changed on repeat"));
            }
        } else {
            self.first[i] = Some(fp);
            out.improvement_pct.push(rec.improvement_percent());
        }
    }

    /// What the calls so far measured.
    pub fn finish(self) -> TuneResult {
        let secs = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / 1e9;
        TuneResult {
            estimate_s: secs(&self.clock.estimate_ns),
            select_s: secs(&self.clock.select_ns),
            enumerate_s: secs(&self.clock.enumerate_ns),
            ..self.out
        }
    }
}
