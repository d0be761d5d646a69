//! The statistical workload, `drift_smc`: the text of
//! `examples/specs/drift.mcc`, parsed, compiled and checked by sampling
//! on each of its three asserts.

use crate::engine_wl::Drive;
use crate::util::{expected_violations, median, metric, ms, okamoto, Metric, Tracer};
use crate::Outcome;
use moccml_engine::{Program, SolverOptions, SplitMix64};
use moccml_lang::Compiled;
use moccml_smc::{check_statistical, SmcOptions, SmcReport, SmcVerdict};
use moccml_verify::is_witness;
use std::time::{Duration, Instant};

pub const DRIFT: &str = include_str!("../../examples/specs/drift.mcc");
pub const EPSILON: f64 = 0.02;
pub const DELTA: f64 = 0.05;
pub const WORKERS: usize = 2;

pub fn options(seed: u64, workers: usize) -> SmcOptions {
    SmcOptions::default()
        .with_epsilon(EPSILON)
        .with_delta(DELTA)
        .with_seed(seed)
        .with_workers(workers)
}

/// Parses and compiles the spec text (the set-up's woven spec).
pub fn compile(source: &str) -> Compiled {
    moccml_lang::compile_str(source).expect("drift.mcc compiles")
}

fn op(options: &SmcOptions, t: &mut Tracer, id: u64) -> (Compiled, Vec<SmcReport>) {
    t.time("op", id, |t| {
        let ast = t.time("lang.parse", id, |_| {
            moccml_lang::parse_spec(DRIFT).expect("drift.mcc parses")
        });
        let compiled = t.time("lang.compile", id, |_| {
            moccml_lang::compile(&ast).expect("drift.mcc compiles")
        });
        let reports = compiled
            .props
            .iter()
            .map(|p| {
                t.time("smc.sample", id, |_| {
                    check_statistical(&compiled.program, p, options)
                })
            })
            .collect();
        (compiled, reports)
    })
}

/// Checks the reports against the known answers; returns traces sampled.
fn gate(compiled: &Compiled, reports: &[SmcReport]) -> Result<usize, String> {
    let expected = expected_violations(DRIFT);
    let planned = okamoto(EPSILON, DELTA);
    if reports.len() != expected.len() {
        return Err(format!(
            "{} reports for {} asserts",
            reports.len(),
            expected.len()
        ));
    }
    for ((r, violated), prop) in reports.iter().zip(&expected).zip(&compiled.props) {
        if r.verdict != SmcVerdict::Estimated || r.traces != planned {
            return Err(format!(
                "{:?} after {} traces, expected Estimated after {planned}",
                r.verdict, r.traces
            ));
        }
        let witness_ok = r.witness.as_ref().is_some_and(|w| {
            w.replays_on(&compiled.program) && is_witness(&compiled.program, prop, &w.schedule)
        });
        let ok = if *violated {
            r.violations > 0 && witness_ok
        } else {
            r.violations == 0 && r.witness.is_none()
        };
        if !ok {
            return Err(format!(
                "{} violations against the expectation violated={violated}",
                r.violations
            ));
        }
    }
    Ok(reports.iter().map(|r| r.traces).sum())
}

/// Runs operations for at least `budget` (and at least `min_ops`),
/// timing the set-up (parse + compile) [`crate::SETUP_REPS`] times
/// before each.
fn drive(
    options: &SmcOptions,
    t: &mut Tracer,
    budget: Duration,
    min_ops: usize,
    first_id: u64,
) -> Drive {
    let mut d = Drive {
        times: Vec::new(),
        work: 0,
        attempted: 0,
        setups: Vec::new(),
    };
    let start = Instant::now();
    while d.attempted < min_ops || start.elapsed() < budget {
        for _ in 0..crate::SETUP_REPS {
            let t0 = Instant::now();
            std::hint::black_box(compile(DRIFT));
            d.setups.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let (compiled, reports) = op(options, t, first_id + d.attempted as u64);
        let dt = t0.elapsed();
        d.attempted += 1;
        match gate(&compiled, &reports) {
            Ok(n) => {
                d.work += n;
                d.times.push(ms(dt));
            }
            Err(e) => eprintln!("perfbench: wrong answer: {e}"),
        }
    }
    d
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Outcome {
    let options = options(seed, WORKERS);
    let mut tracer = Tracer::new(false);
    let (warm_compiled, warm_reports) = op(&options, &mut tracer, 0);
    let warm_failed = usize::from(gate(&warm_compiled, &warm_reports).is_err());
    let budget = Duration::from_secs(seconds);
    if !trace {
        let d = drive(&options, &mut tracer, budget, 3, 1);
        let rss = crate::util::peak_rss_mb("self").unwrap_or(0.0);
        let mut record = crate::verdict_record("traces_per_s", &d.times);
        record.push((
            "traces_per_property",
            moccml_serve::Json::int(okamoto(EPSILON, DELTA)),
        ));
        return Outcome {
            attempted: d.attempted + 1,
            failed: d.attempted - d.times.len() + warm_failed,
            metrics: crate::end_to_end(
                median(&d.setups),
                &d.times,
                crate::per_busy_second(d.work, &d.times),
                rss,
            ),
            record,
            ledger: Vec::new(),
            tracer,
        };
    }
    let plain = drive(&options, &mut tracer, budget / 2, 2, 1);
    tracer.set_enabled(true);
    let traced = drive(&options, &mut tracer, budget / 2, 2, 1000);
    let ops = traced.attempted as f64;
    let parse = tracer.total_ms("lang.parse") / ops;
    let compile_ms = tracer.total_ms("lang.compile") / ops;
    let sample = tracer.total_ms("smc.sample") / ops;
    let op_ms = tracer.total_ms("op") / ops;
    let program = &warm_compiled.program;
    let spec = program.specification();
    let t0 = Instant::now();
    let reps = 20;
    for _ in 0..reps {
        std::hint::black_box(Program::compile(spec));
    }
    let program_compile_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(reps);
    let walk = walk(program, seed, 40, 256);
    let mut metrics = walk;
    metrics.extend([
        metric("lang.parse_us", "us", parse * 1e3),
        metric("lang.compile_us", "us", compile_ms * 1e3),
        metric("engine.program_compile_us", "us", program_compile_us),
        metric(
            "engine.formulas_cached",
            "count",
            program.cached_formula_count() as f64,
        ),
        metric(
            "smc.sample_ms",
            "ms",
            sample / warm_compiled.props.len() as f64,
        ),
        metric(
            "obs.trace_overhead_ratio",
            "ratio",
            median(&traced.times) / median(&plain.times),
        ),
    ]);
    let mut ledger = vec![
        ("verdict (mean traced operation)".to_owned(), op_ms),
        ("  lang.parse".to_owned(), parse),
        ("  lang.compile".to_owned(), compile_ms),
    ];
    for (i, p) in warm_compiled.props.iter().enumerate() {
        let per: Vec<f64> = tracer_samples(&tracer, i, warm_compiled.props.len());
        ledger.push((
            format!("  smc.sample {}", p.display(warm_compiled.universe())),
            per.iter().sum::<f64>() / ops,
        ));
    }
    ledger.push((
        "  benchmark glue".to_owned(),
        op_ms - parse - compile_ms - sample,
    ));
    Outcome {
        attempted: plain.attempted + traced.attempted + 1,
        failed: (plain.attempted - plain.times.len())
            + (traced.attempted - traced.times.len())
            + warm_failed,
        metrics: crate::complete_layers(metrics),
        record: Vec::new(),
        ledger,
        tracer,
    }
}

/// Durations (ms) of the `index`-th `smc.sample` span of every traced
/// operation.
fn tracer_samples(t: &Tracer, index: usize, per_op: usize) -> Vec<f64> {
    t.spans()
        .filter(|s| s.name == "smc.sample")
        .enumerate()
        .filter(|(i, _)| i % per_op == index)
        .map(|(_, s)| ms(s.end - s.start))
        .collect()
}

/// An outside random walk with a `Cursor`, the way the sampler drives
/// one: `traces` walks of up to `len` steps, each step timed as solve
/// (`acceptable_steps`) and successor (`fire` + `state_key`).
pub fn walk(program: &Program, seed: u64, traces: usize, len: usize) -> Vec<Metric> {
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
    let solver = SolverOptions::default();
    let mut cursor = program.cursor();
    let (mut solve, mut successor) = (Duration::ZERO, Duration::ZERO);
    let (mut states, mut candidates, mut fired) = (0usize, 0usize, 0usize);
    for _ in 0..traces {
        cursor.reset();
        for _ in 0..len {
            let t0 = Instant::now();
            let steps = cursor.acceptable_steps(&solver);
            solve += t0.elapsed();
            states += 1;
            candidates += steps.len();
            if steps.is_empty() {
                break;
            }
            let step = &steps[rng.next_below(steps.len())];
            let t0 = Instant::now();
            cursor.fire(step).expect("an acceptable step fires");
            std::hint::black_box(cursor.state_key());
            successor += t0.elapsed();
            fired += 1;
        }
    }
    let hits = cursor.memo_hits() as f64;
    let lookups = hits + cursor.memo_misses() as f64;
    let solve_us = solve.as_secs_f64() * 1e6 / states as f64;
    vec![
        metric("smc.solve_us_per_step", "us", solve_us),
        metric("engine.solve_us_per_state", "us", solve_us),
        metric("engine.solve_ms", "ms", ms(solve)),
        metric("engine.successor_ms", "ms", ms(successor)),
        metric(
            "engine.steps_per_state",
            "count",
            candidates as f64 / states as f64,
        ),
        metric(
            "engine.successor_us_per_transition",
            "us",
            successor.as_secs_f64() * 1e6 / fired.max(1) as f64,
        ),
        metric(
            "engine.memo_hit_ratio",
            "ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
    ]
}
