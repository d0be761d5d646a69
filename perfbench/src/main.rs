//! `perfbench`: the moccml benchmark.
//!
//! ```text
//! perfbench --workload <pam_quad|drift_cube|drift_smc|serve_mix> --seed N --seconds S --trace 0|1
//! perfbench --selfcheck
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) measures the per-layer metrics, prints the
//! layer ledger and writes its spans to `perfbench/out/`. Every
//! operation's answer is checked; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md`.

mod engine_wl;
mod selfcheck;
mod serve_wl;
mod smc_wl;
mod util;

use moccml_serve::Json;
use util::{Metric, Tracer};

/// The end-to-end metrics of an untraced run: set-up median (s),
/// median verdict time (ms), throughput (states, traces or requests
/// per second, whichever the workload completes) and peak resident
/// memory of the process doing the work.
pub fn end_to_end(setup_s: f64, times: &[f64], throughput: f64, rss_mb: f64) -> Vec<Metric> {
    vec![
        util::metric("setup_s", "s", setup_s),
        util::metric("verdict_p50_ms", "ms", util::median(times)),
        util::metric("throughput_per_s", "1/s", throughput),
        util::metric("peak_rss_mb", "MB", rss_mb),
    ]
}

/// Set-up samples timed before each operation of the engine and SMC
/// workloads. The first one after an operation runs on caches that the
/// operation evicted; the median of several reads the set-up itself.
pub const SETUP_REPS: usize = 9;

/// Work per second of verdict time.
pub fn per_busy_second(work: usize, times_ms: &[f64]) -> f64 {
    work as f64 / (times_ms.iter().sum::<f64>() / 1e3)
}

/// Record-line members describing a verdict sample: what the
/// throughput counts, the fastest verdict, and the tail with its
/// percentile and the samples beyond it.
pub fn verdict_record(throughput: &str, times: &[f64]) -> Vec<(&'static str, Json)> {
    let (tail, pct, beyond) = util::tail(times);
    vec![
        ("throughput_counts", Json::str(throughput)),
        ("verdict_samples", Json::int(times.len())),
        (
            "verdict_min_ms",
            Json::Float(times.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("verdict_tail_ms", Json::Float(tail)),
        ("verdict_tail_percentile", Json::Float(pct)),
        ("verdict_tail_samples_beyond", Json::int(beyond)),
    ]
}

/// Per-layer metrics, in output order, with their units. A layer that
/// a workload never calls reports `0` there.
pub const LAYER_METRICS: [(&str, &str); 30] = [
    ("lang.parse_us", "us"),
    ("lang.compile_us", "us"),
    ("engine.program_compile_us", "us"),
    ("engine.formulas_cached", "count"),
    ("engine.restore_ms", "ms"),
    ("engine.solve_ms", "ms"),
    ("engine.successor_ms", "ms"),
    ("engine.solve_us_per_state", "us"),
    ("engine.steps_per_state", "count"),
    ("engine.successor_us_per_transition", "us"),
    ("engine.memo_hit_ratio", "ratio"),
    ("engine.explore_ms", "ms"),
    ("engine.explorer_self_ms", "ms"),
    ("engine.peak_frontier", "count"),
    ("engine.interner_occupancy", "ratio"),
    ("verify.check_ms", "ms"),
    ("verify.monitor_ms", "ms"),
    ("verify.minimize_ms", "ms"),
    ("verify.states_visited", "count"),
    ("smc.sample_ms", "ms"),
    ("smc.solve_us_per_step", "us"),
    ("analyze.lint_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.check_warm_p50_ms", "ms"),
    ("serve.check_cold_p50_ms", "ms"),
    ("serve.lint_p50_ms", "ms"),
    ("serve.conformance_p50_ms", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// What a workload run hands back to `main` for printing.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Extra members of the record line.
    pub record: Vec<(&'static str, Json)>,
    /// Layer ledger rows `(label, ms)`, printed by traced runs.
    pub ledger: Vec<(String, f64)>,
    pub tracer: Tracer,
}

/// Orders a traced run's metrics as [`LAYER_METRICS`], filling the
/// layers the workload does not call with `0`.
pub fn complete_layers(measured: Vec<Metric>) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            util::metric(name, unit, value)
        })
        .collect()
}

const WORKLOADS: [&str; 4] = ["pam_quad", "drift_cube", "drift_smc", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        // the serve_mix daemon: this binary re-executed as `moccml serve`
        let mut serve = vec!["serve".to_owned()];
        serve.extend(args[1..].iter().cloned());
        let mut out = String::new();
        let code = moccml_serve::cli::run(&serve, &mut out);
        eprint!("{out}");
        return std::process::ExitCode::from(u8::try_from(code).unwrap_or(2));
    }
    if args.first().map(String::as_str) == Some("--selfcheck") {
        return if selfcheck::run() {
            std::process::ExitCode::SUCCESS
        } else {
            std::process::ExitCode::FAILURE
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            eprintln!("       perfbench --selfcheck");
            return std::process::ExitCode::from(2);
        }
    };
    let provenance = util::provenance(&args.workload, args.seed, args.seconds, args.trace);
    let outcome = match args.workload.as_str() {
        "pam_quad" => engine_wl::run(
            engine_wl::Kind::PamQuad,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "drift_cube" => engine_wl::run(
            engine_wl::Kind::DriftCube,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "drift_smc" => smc_wl::run(args.seed, args.seconds, args.trace),
        "serve_mix" => match serve_wl::run(args.seed, args.seconds, args.trace) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: serve_mix: {e}");
                return std::process::ExitCode::FAILURE;
            }
        },
        _ => unreachable!("workload names are validated by parse_args"),
    };
    report(&args, &provenance, &outcome);
    std::process::ExitCode::SUCCESS
}

fn report(args: &Args, provenance: &Json, o: &Outcome) {
    let error_ratio = o.failed as f64 / o.attempted.max(1) as f64;
    let mut record = vec![
        ("provenance", provenance.clone()),
        ("attempted", Json::int(o.attempted)),
        ("failed", Json::int(o.failed)),
        ("error_ratio", Json::Float(error_ratio)),
    ];
    record.extend(o.record.iter().cloned());
    if !o.ledger.is_empty() {
        let rows = o
            .ledger
            .iter()
            .map(|(label, v)| {
                Json::obj([
                    ("row", Json::str(label.trim())),
                    (
                        "depth",
                        Json::int((label.len() - label.trim_start().len()) / 2),
                    ),
                    ("ms", Json::Float(*v)),
                ])
            })
            .collect();
        record.push(("ledger", Json::Arr(rows)));
        print_ledger(&args.workload, &o.ledger);
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match o.tracer.write(&path, provenance) {
            Ok(()) => record.push(("spans_file", Json::str(&path.to_string_lossy()))),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        Json::obj([("perfbench_record", Json::obj(record))]).to_line()
    );
    // a metric of a run whose operations all failed can be 0/0; the
    // result line must still hold a number (and says `correct: false`)
    let metrics = o.metrics.iter().map(|m| {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        (
            m.name,
            Json::obj([("value", Json::Float(value)), ("unit", Json::str(m.unit))]),
        )
    });
    let result = Json::obj([
        ("correct", Json::Bool(o.failed == 0)),
        ("attempted", Json::int(o.attempted)),
        ("failed", Json::int(o.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.to_line());
}

/// Prints the ledger as a table: each row with its share of the top row,
/// and a check that every parent equals the sum of its children.
fn print_ledger(workload: &str, rows: &[(String, f64)]) {
    let depth = |l: &str| (l.len() - l.trim_start().len()) / 2;
    println!("layer ledger, {workload} (ms, share of the top row above):");
    let mut top = 1.0;
    for (label, v) in rows {
        if depth(label) == 0 {
            top = *v;
        }
        println!("  {label:<48} {v:>12.3}  {:>6.1}%", 100.0 * v / top);
    }
    for (i, (label, v)) in rows.iter().enumerate() {
        let d = depth(label);
        let children: f64 = rows[i + 1..]
            .iter()
            .take_while(|(l, _)| depth(l) > d)
            .filter(|(l, _)| depth(l) == d + 1)
            .map(|r| r.1)
            .sum();
        let has_children = rows.get(i + 1).is_some_and(|(l, _)| depth(l) > d);
        if has_children {
            println!(
                "  sum check: {:<37} {v:>12.3} = {children:.3}",
                label.trim()
            );
        }
    }
}
