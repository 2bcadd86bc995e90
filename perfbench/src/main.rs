//! The cadb benchmark: one process, one client thread, every call run with
//! `Parallelism::Serial` (see [`harness::PAR`]).
//!
//! ```text
//! perfbench --workload <tune-tpch|serve-tpch> --seed <n>
//!           --seconds <s> --trace <0|1> [--scale <f>] [--inject-mismatch]
//! ```
//!
//! Every run generates TPC-H from `--seed`, builds the fixed rich
//! configuration, and then interleaves three phases — advise, query,
//! serve — with five more set-ups. Each phase runs at least its minimum
//! number of repetitions; the phase the workload is not named after, and
//! the query phase, run just that, and the named one runs until the
//! three phases together have taken `--seconds`. Every timing metric is
//! taken over the fastest repetitions (see [`stats::fastest`]). The last
//! line of standard output is one JSON object: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! replay of the same work. See `README.md` beside this file.

mod harness;
mod layers;
mod query;
mod rich;
mod serve;
mod stats;
mod tune;

use cadb_common::json::JsonObject;
use cadb_common::obs::{self, TraceRecorder};
use cadb_datagen::TpchGen;
use cadb_engine::{Database, Workload};
use cadb_exec::MaterializedConfig;
use cadb_shard::BuildOptions;
use harness::{interleave, Tally, Target, PAR};
use stats::{fastest, fastest_count, mean, p50};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// TPC-H scale the workloads run at (the data fits in memory).
const DEFAULT_SCALE: f64 = 0.2;
/// Set-ups per run; `setup_s` is their median, `build_s` the fastest
/// build (`stats::fastest`).
const SETUP_REPS: usize = 6;
/// Minimum recommendations of the advise phase: 6 at each budget of the
/// grid, for `stats::fastest` to find some outside the host's slow spells.
const MIN_ADVISE_CALLS: usize = 6 * tune::BUDGET_GRID.len();
/// Minimum query passes (22 queries each), for the same reason.
const MIN_QUERY_PASSES: usize = 40;
/// Minimum serve cycles (31 warm commits each), for the same reason.
const MIN_SERVE_CYCLES: usize = 15;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Bench {
    Tune,
    Serve,
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    inject_mismatch: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = DEFAULT_SCALE;
    let mut inject_mismatch = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-mismatch" {
            inject_mismatch = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                bench = Some(match value.as_str() {
                    "tune-tpch" => Bench::Tune,
                    "serve-tpch" => Bench::Serve,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--scale" => scale = value.parse::<f64>().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds >= 0.0 && seconds.is_finite() && scale > 0.0 && scale.is_finite()) {
        return Err("--seconds and --scale must be finite, --scale positive".into());
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale,
        inject_mismatch,
    })
}

/// Generated data, its workload and the built rich configuration.
struct Setup {
    db: Database,
    w: Workload,
    mat: MaterializedConfig,
}

impl Setup {
    /// Generate TPC-H from the seed and build the rich configuration;
    /// push the set-up and the build seconds.
    fn new(
        args: &Args,
        setup_s: &mut Vec<f64>,
        build_s: &mut Vec<f64>,
    ) -> cadb_common::Result<Self> {
        let t0 = Instant::now();
        let gen = TpchGen::new(args.scale).with_seed(args.seed);
        let db = gen.build()?;
        let w = gen.workload(&db)?;
        let cfg = rich::rich_configuration(&db, &w)?;
        let t1 = Instant::now();
        let mat = {
            let _s = obs::span("bench.build");
            // `MaterializedConfig::build`'s single stripe, on `PAR`.
            let opts = BuildOptions::default()
                .with_stripe_rows(usize::MAX)
                .with_parallelism(PAR);
            MaterializedConfig::build_with(&db, &cfg, &opts)?
        };
        build_s.push(t1.elapsed().as_secs_f64());
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(Setup { db, w, mat })
    }
}

/// What one run of the phases measured.
struct Phases {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    tune: tune::TuneResult,
    query: query::QueryResult,
    serve: serve::ServeResult,
}

impl Phases {
    /// Seconds spent in all units.
    fn wall_s(&self) -> f64 {
        self.setup_s.iter().sum::<f64>() + self.tune.wall_s + self.query.wall_s + self.serve.wall_s
    }

    /// Units each phase ran: repeated set-ups, recommendations, query passes,
    /// serve cycles.
    fn units(&self) -> [usize; 4] {
        [
            self.setup_s.len(),
            self.tune.calls(),
            self.query.passes,
            self.serve.cycles,
        ]
    }
}

/// Run the phases interleaved (see [`harness::interleave`]): repeated
/// set-ups (their first is `s` itself, timed by the caller), recommendations,
/// query passes and serve cycles. With `fixed`, replay exactly those unit
/// counts; otherwise the phases the workload is not named after run their
/// minimum and the named one also runs until the advise, query and serve
/// units together have taken `--seconds`.
fn run_phases(
    args: &Args,
    s: &Setup,
    reference: &[Option<Vec<cadb_common::Row>>],
    fixed: Option<[usize; 4]>,
    tally: &mut Tally,
) -> cadb_common::Result<Phases> {
    let named = |b: Bench| (b == args.bench).then_some(args.seconds);
    let plan = match fixed {
        Some(units) => units.map(|n| (n, None)),
        None => [
            (SETUP_REPS - 1, None),
            (MIN_ADVISE_CALLS, named(Bench::Tune)),
            (MIN_QUERY_PASSES, None),
            (MIN_SERVE_CYCLES, named(Bench::Serve)),
        ],
    };
    let mut phase = 0;
    let targets = plan.map(|(min_units, seconds)| {
        phase += 1;
        Target {
            min_units,
            seconds,
            // Repeated set-ups do not use up the measured time.
            measured: phase > 1,
        }
    });
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let mut tuner = tune::Tuner::new(&s.db, &s.w);
    let mut querier = query::Querier::new(&s.mat, &s.w, reference);
    let mut server = serve::Server::new(&s.db, &s.mat, args.seed)?;
    interleave(&targets, |phase| match phase {
        0 => {
            tally.attempt();
            if let Err(e) = Setup::new(args, &mut setup_s, &mut build_s) {
                tally.fail(format!("set-up: {e}"));
            }
        }
        1 => tuner.step(tally),
        2 => querier.step(tally),
        _ => server.step(tally),
    });
    Ok(Phases {
        setup_s,
        build_s,
        tune: tuner.finish(),
        query: querier.finish(),
        serve: server.finish(),
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(p: &Phases, setup_s: &[f64], build_s: &[f64], s: &Setup) -> Vec<Metric> {
    let built: f64 = s
        .mat
        .structures()
        .iter()
        .map(|m| m.measured_bytes as f64)
        .sum();
    let serve = &p.serve;
    let cycles = |f: fn(&serve::CycleTimes) -> f64| {
        fastest(&serve.per_cycle.iter().map(f).collect::<Vec<_>>())
    };
    vec![
        Metric::new("setup_s", p50(setup_s), "s"),
        Metric::new("advise_s", p.tune.seconds_per_call(), "s"),
        Metric::new("improvement_pct", mean(&p.tune.improvement_pct), "%"),
        Metric::new("build_s", fastest(build_s), "s"),
        Metric::new(
            "stored_bytes_ratio",
            built / s.db.base_data_bytes() as f64,
            "ratio",
        ),
        Metric::new("query_ms_p50", fastest(&p.query.pass_p50_ms), "ms"),
        Metric::new("query_ms_p95", fastest(&p.query.pass_p95_ms), "ms"),
        Metric::new(
            "commits_per_s",
            1.0 / cycles(|c| c.write_s_per_statement),
            "1/s",
        ),
        Metric::new("commit_ms_p50", cycles(|c| c.commit_p50), "ms"),
        Metric::new("commit_ms_p95", cycles(|c| c.commit_p95), "ms"),
        Metric::new("read_ms_p50", cycles(|c| c.read_p50), "ms"),
        Metric::new("read_ms_p95", cycles(|c| c.read_p95), "ms"),
        Metric::new("checkpoint_ms", cycles(|c| c.checkpoint_ms), "ms"),
        Metric::new("recover_ms", cycles(|c| c.recover_ms), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Sample counts behind the timing metrics, for the human-readable log.
fn sample_counts(p: &Phases, setups: usize) -> String {
    format!(
        "samples: setup {setups}, advise {}, query {} ({} passes), \
         commit {} ({} warm, {} statements, cold first commits {:.1}% of write time), \
         read {} ({} misses), checkpoint {}, recover {}; \
         timings over the fastest {} of {} query passes, {} of {} cycles \
         and {} of the calls at each budget; \
         phase seconds: advise {:.2}, query {:.2}, serve {:.2}",
        p.tune.advise_s.len(),
        p.query.query_ms.len(),
        p.query.passes,
        p.serve.batches,
        p.serve.commit_ms.len(),
        p.serve.statements,
        100.0 * p.serve.cold_write_s / p.serve.write_s,
        p.serve.read_ms.len(),
        p.serve.miss_ms.len(),
        p.serve.checkpoint_ms.len(),
        p.serve.recover_ms.len(),
        fastest_count(p.query.passes),
        p.query.passes,
        fastest_count(p.serve.per_cycle.len()),
        p.serve.per_cycle.len(),
        fastest_count(p.tune.calls() / tune::BUDGET_GRID.len()),
        p.tune.wall_s,
        p.query.wall_s,
        p.serve.wall_s,
    )
}

fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body = metrics.iter().fold(JsonObject::new(), |o, m| {
        let metric = JsonObject::new().num("value", m.value).str("unit", m.unit);
        o.raw(&m.name, &metric.finish())
    });
    JsonObject::new()
        .bool("correct", correct)
        .int("attempted", tally.attempted as i64)
        .int("failed", tally.failed as i64)
        .raw("metrics", &body.finish())
        .finish()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> cadb_common::Result<ExitCode> {
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    let s = Setup::new(args, &mut setup_s, &mut build_s)?;
    let mut tally = Tally::default();
    let mut reference = query::reference_results(&s.mat, &s.w, &mut tally);
    if args.inject_mismatch {
        // Corrupt the benchmark's expected result, never the program's
        // output: the check must count the difference and fail the run.
        if let Some(Some(rows)) = reference.first_mut() {
            rows.push(cadb_common::Row::new(vec![cadb_common::Value::Null]));
        }
    }
    let untraced = run_phases(args, &s, &reference, None, &mut tally)?;
    setup_s.extend(&untraced.setup_s);
    build_s.extend(&untraced.build_s);
    println!(
        "perfbench: workload {:?}, seed {}, scale {}, {} cores, {}",
        args.bench,
        args.seed,
        args.scale,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sample_counts(&untraced, setup_s.len())
    );
    let metrics = if args.trace {
        // Replay the same units under a recorder; the difference in time
        // is the tracing overhead.
        let rec = Arc::new(TraceRecorder::new());
        let traced = {
            let _guard = obs::install(rec.clone());
            run_phases(args, &s, &reference, Some(untraced.units()), &mut tally)?
        };
        let report = rec.report();
        layers::metrics(&layers::Traced {
            tune: &traced.tune,
            query: &traced.query,
            serve: &traced.serve,
            builds: traced.build_s.len(),
            report: &report,
            mat: &s.mat,
            size_error_pct: layers::size_error_pct(&s.db, &s.mat)?,
            overhead_pct: 100.0 * (traced.wall_s() / untraced.wall_s() - 1.0),
        })
    } else {
        end_to_end(&untraced, &setup_s, &build_s, &s)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if !finite {
        tally.attempt();
        tally.fail("a metric has no finite value".into());
    }
    let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "perfbench: {} operations attempted, {} failed (failed_ratio {failed_ratio})",
        tally.attempted, tally.failed
    );
    for m in &metrics {
        println!("perfbench: {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = tally.failed == 0;
    println!("{}", json_line(correct, &tally, &metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
