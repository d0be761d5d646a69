//! The two exhaustive-checking workloads, `pam_quad` and `drift_cube`.
//!
//! One operation is what one `moccml check` pays: a fresh
//! `Program::compile`, a check of the holding properties (which visits
//! the whole space), a separate check of the violated property and the
//! minimization of its witness.

use crate::util::{median, metric, ms, Metric, Tracer};
use crate::Outcome;
use moccml_engine::{ExploreMonitor, ExploreOptions, Program, SolverOptions, SplitMix64};
use moccml_kernel::{Schedule, Specification, StepPred};
use moccml_verify::{check_props, is_witness, minimize_witness, CheckReport, Prop, PropStatus};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pinned answers for the PAM quad-core deployment.
const PAM_EXPECTED: &str = include_str!("../expected/pam_quad.txt");

/// Drift-cube bound: `e9_scale_spec(46)` has 47³ states.
const CUBE_BOUND: u64 = 46;
/// Horizon of the violated bounded-liveness property on the cube.
const CUBE_HORIZON: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PamQuad,
    DriftCube,
}

/// The known answers an operation is checked against.
pub struct Expect {
    pub states: usize,
    pub transitions: usize,
    pub deadlocks: usize,
    pub witness_steps: usize,
}

/// Everything an operation needs, built once per run (the set-up).
pub struct Setup {
    pub spec: Specification,
    pub holding: Vec<Prop>,
    pub violated: Prop,
    /// Check every property in one exploration (see [`check`]).
    pub one_pass: bool,
    pub options: ExploreOptions,
    pub expect: Expect,
}

/// Reads `key value` lines of an expected-answer file.
pub fn pinned(text: &str) -> BTreeMap<String, usize> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            Some((it.next()?.to_owned(), it.next()?.parse().ok()?))
        })
        .collect()
}

pub fn pam_expect() -> Expect {
    let p = pinned(PAM_EXPECTED);
    let get = |k: &str| {
        *p.get(k)
            .unwrap_or_else(|| panic!("expected/pam_quad.txt lacks `{k}`"))
    };
    Expect {
        states: get("states"),
        transitions: get("transitions"),
        deadlocks: get("deadlocks"),
        witness_steps: get("witness_steps"),
    }
}

/// Builds the workload inputs from the seed. The seed picks which
/// equivalent properties are checked; their cost does not depend on it.
pub fn setup(kind: Kind, seed: u64) -> Setup {
    let mut rng = SplitMix64::new(seed);
    match kind {
        Kind::PamQuad => {
            let (platform, deployment) = moccml_sdf::pam::deployment_quad_core();
            let spec = moccml_sdf::pam::deployed(&platform, &deployment)
                .expect("the quad-core deployment weaves");
            let u = spec.universe();
            let ev = |n: &str| u.lookup(n).expect("PAM event");
            // acquisition and filtering of one channel share a core: any
            // two of these mutual exclusions hold on the whole space
            let mut pool: Vec<Prop> = ["A", "B"]
                .iter()
                .flat_map(|ch| ["start", "isExecuting", "stop"].map(|p| (*ch, p)))
                .map(|(ch, p)| {
                    Prop::Never(StepPred::and(
                        StepPred::fired(ev(&format!("hydro{ch}.{p}"))),
                        StepPred::fired(ev(&format!("filter{ch}.{p}"))),
                    ))
                })
                .collect();
            let first = pool.remove(rng.next_below(pool.len()));
            let second = pool.remove(rng.next_below(pool.len()));
            let violated = Prop::Never(StepPred::fired(ev("detect.start")));
            Setup {
                spec,
                holding: vec![first, second],
                violated,
                one_pass: false,
                options: ExploreOptions::default().with_workers(1),
                expect: pam_expect(),
            }
        }
        Kind::DriftCube => {
            let (spec, states) = moccml_bench::experiments::e9_scale_spec(CUBE_BOUND);
            // the three channels are symmetric: the seed picks one
            let ch = rng.next_below(3);
            let u = spec.universe();
            let c = u.lookup(&format!("c{ch}")).expect("cube event");
            let e = u.lookup(&format!("e{ch}")).expect("cube event");
            let b = usize::try_from(CUBE_BOUND).expect("small bound");
            Setup {
                spec,
                one_pass: true,
                holding: vec![
                    Prop::DeadlockFree,
                    Prop::Never(StepPred::and(StepPred::fired(c), StepPred::fired(e))),
                ],
                violated: Prop::EventuallyWithin(StepPred::fired(c), CUBE_HORIZON),
                options: ExploreOptions::default()
                    .with_workers(2)
                    .with_max_states(4 * states),
                expect: Expect {
                    // closed forms: (b+1)³ states; every channel offers
                    // 2 moves except at its two ends, so 3·(2(b+1)-2)·(b+1)²
                    states: (b + 1).pow(3),
                    transitions: 6 * b * (b + 1) * (b + 1),
                    deadlocks: 0,
                    // a c-free prefix of exactly the horizon (no deadlocks)
                    witness_steps: CUBE_HORIZON,
                },
            }
        }
    }
}

/// What one operation produced, kept for the (untimed) gate.
struct OpResult {
    program: Arc<Program>,
    /// The pass that checked the holding properties.
    full: CheckReport,
    /// The violated property's status, from its own pass or the same one.
    violated: PropStatus,
    minimized: Option<Schedule>,
}

/// The property checks of one operation, timed as spans. With
/// `one_pass` every property is checked in one exploration (the cube's
/// violation is found only after the whole space is visited); otherwise
/// the holding set and the violated property get a pass each, so the
/// early stop at the violation cannot cut the holding check short.
/// Returns the reports and the time of each pass (ms).
fn check(
    s: &Setup,
    program: &Program,
    options: &ExploreOptions,
    t: &mut Tracer,
    id: u64,
) -> (CheckReport, PropStatus, f64, f64) {
    let t0 = Instant::now();
    if s.one_pass {
        let mut all = s.holding.clone();
        all.push(s.violated.clone());
        let full = t.time("verify.check", id, |_| check_props(program, &all, options));
        let violated = full.statuses[s.holding.len()].clone();
        return (full, violated, ms(t0.elapsed()), 0.0);
    }
    let full = t.time("verify.check", id, |_| {
        check_props(program, &s.holding, options)
    });
    let first = ms(t0.elapsed());
    let t0 = Instant::now();
    let violated = t.time("verify.check_violated", id, |_| {
        check_props(program, std::slice::from_ref(&s.violated), options)
    });
    (full, violated.statuses[0].clone(), first, ms(t0.elapsed()))
}

fn minimize(
    s: &Setup,
    program: &Program,
    violated: &PropStatus,
    t: &mut Tracer,
    id: u64,
) -> Option<Schedule> {
    t.time("verify.minimize", id, |_| match violated {
        PropStatus::Violated(ce) => Some(minimize_witness(program, &s.violated, &ce.schedule)),
        _ => None,
    })
}

fn op(s: &Setup, t: &mut Tracer, id: u64) -> OpResult {
    t.time("op", id, |t| {
        let program = t.time("engine.program_compile", id, |_| Program::compile(&s.spec));
        let (full, violated, _, _) = check(s, &program, &s.options, t, id);
        let minimized = minimize(s, &program, &violated, t, id);
        OpResult {
            program,
            full,
            violated,
            minimized,
        }
    })
}

/// Checks an operation's answers; returns the states it explored.
fn gate(s: &Setup, r: &OpResult) -> Result<usize, String> {
    let h = &r.full;
    if !h.statuses[..s.holding.len()]
        .iter()
        .all(|st| *st == PropStatus::Holds)
    {
        return Err("a holding property was not reported as holding".into());
    }
    if h.states_visited != s.expect.states || h.transitions_visited != s.expect.transitions {
        return Err(format!(
            "the holding check visited {} states / {} transitions, expected {} / {}",
            h.states_visited, h.transitions_visited, s.expect.states, s.expect.transitions
        ));
    }
    let PropStatus::Violated(ce) = &r.violated else {
        return Err("the violated property was not reported violated".into());
    };
    if !ce.replays_on(&r.program) || !is_witness(&r.program, &s.violated, &ce.schedule) {
        return Err("the raw witness does not replay".into());
    }
    let min = r.minimized.as_ref().ok_or("no minimized witness")?;
    if !is_witness(&r.program, &s.violated, min) || min.len() != s.expect.witness_steps {
        return Err(format!(
            "minimized witness has {} steps, expected {}",
            min.len(),
            s.expect.witness_steps
        ));
    }
    Ok(h.states_visited)
}

/// Operations of one drive: times (ms) of the correct ones, the states
/// they explored, how many were attempted, and the set-up times (s)
/// sampled before each.
pub struct Drive {
    pub times: Vec<f64>,
    pub work: usize,
    pub attempted: usize,
    pub setups: Vec<f64>,
}

/// Runs operations for at least `budget` (and at least `min_ops`),
/// gating each. Before each operation the set-up is timed [`crate::SETUP_REPS`] times,
/// so set-up samples spread over the run as the operations do.
fn drive(
    s: &Setup,
    kind: Kind,
    seed: u64,
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
            std::hint::black_box(setup(kind, seed));
            d.setups.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        let r = op(s, t, first_id + d.attempted as u64);
        let dt = t0.elapsed();
        d.attempted += 1;
        match gate(s, &r) {
            Ok(n) => {
                d.work += n;
                d.times.push(ms(dt));
            }
            Err(e) => eprintln!("perfbench: wrong answer: {e}"),
        }
    }
    d
}

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let s = setup(kind, seed);
    let mut tracer = Tracer::new(false);
    // one untimed operation lets the allocator and the page cache settle
    let warm_failed = usize::from(gate(&s, &op(&s, &mut tracer, 0)).is_err());
    let budget = Duration::from_secs(seconds);
    if !trace {
        let d = drive(&s, kind, seed, &mut tracer, budget, 3, 1);
        let rss = crate::util::peak_rss_mb("self").unwrap_or(0.0);
        return Outcome {
            attempted: d.attempted + 1,
            failed: d.attempted - d.times.len() + warm_failed,
            metrics: crate::end_to_end(
                median(&d.setups),
                &d.times,
                crate::per_busy_second(d.work, &d.times),
                rss,
            ),
            record: crate::verdict_record("states_per_s", &d.times),
            ledger: Vec::new(),
            tracer,
        };
    }
    // traced run: untraced half, traced half, then the serial ledger
    let plain = drive(&s, kind, seed, &mut tracer, budget / 2, 2, 1);
    tracer.set_enabled(true);
    let traced = drive(&s, kind, seed, &mut tracer, budget / 2, 2, 1000);
    let compile_us = tracer.total_ms("engine.program_compile") * 1e3 / traced.attempted as f64;
    let (layers, ledger, failed) = ledger(&s, &mut tracer);
    let mut metrics = layers;
    metrics.push(metric("engine.program_compile_us", "us", compile_us));
    metrics.push(metric(
        "obs.trace_overhead_ratio",
        "ratio",
        median(&traced.times) / median(&plain.times),
    ));
    Outcome {
        attempted: plain.attempted + traced.attempted + 2,
        failed: (plain.attempted - plain.times.len())
            + (traced.attempted - traced.times.len())
            + failed
            + warm_failed,
        metrics: crate::complete_layers(metrics),
        record: Vec::new(),
        ledger,
        tracer,
    }
}

/// One serial operation taken apart call by call, plus a bare
/// exploration with the holding check's options, re-driven state by
/// state through public `Cursor` calls. All times in ms.
struct Pass {
    op: f64,
    compile: f64,
    check: f64,
    check_violated: f64,
    minimize: f64,
    explore: f64,
    restore: f64,
    solve: f64,
    successor: f64,
}

/// Facts of a pass that do not vary between repetitions.
struct Facts {
    formulas: usize,
    states_visited: usize,
    states: usize,
    transitions: usize,
    peak_frontier: usize,
    interner_occupancy: f64,
    memo_hit_ratio: f64,
}

fn pass(s: &Setup, t: &mut Tracer, id: u64) -> (Pass, Facts, bool) {
    let serial = s.options.clone().with_workers(1);
    let t_op = Instant::now();
    let program = t.time("engine.program_compile", id, |_| Program::compile(&s.spec));
    let compile = ms(t_op.elapsed());
    let (full, violated, check_ms, check_violated) = check(s, &program, &serial, t, id);
    let t0 = Instant::now();
    let minimized = minimize(s, &program, &violated, t, id);
    let minimize_ms = ms(t0.elapsed());
    let op_ms = ms(t_op.elapsed());
    let formulas = program.cached_formula_count();
    let states_visited = full.states_visited;
    let mut ok = gate(
        s,
        &OpResult {
            program: Arc::clone(&program),
            full,
            violated,
            minimized,
        },
    )
    .is_ok();

    let monitor = ExploreMonitor::new();
    let t0 = Instant::now();
    let space = t.time("engine.explore", id, |_| {
        program.explore(&serial.clone().with_monitor(&monitor))
    });
    let explore = ms(t0.elapsed());
    let snap = monitor.snapshot();

    let solver = SolverOptions::default();
    let mut cursor = program.cursor();
    let (mut restore, mut solve, mut successor) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut transitions, mut deadlocks) = (0usize, 0usize);
    t.time("engine.redrive", id, |_| {
        for key in space.states() {
            let t0 = Instant::now();
            cursor.restore(key).expect("a reached state restores");
            let t1 = Instant::now();
            let steps = cursor.acceptable_steps(&solver);
            let t2 = Instant::now();
            restore += t1 - t0;
            solve += t2 - t1;
            deadlocks += usize::from(steps.is_empty());
            for step in &steps {
                let t0 = Instant::now();
                cursor.restore(key).expect("a reached state restores");
                cursor.fire(step).expect("an acceptable step fires");
                std::hint::black_box(cursor.state_key());
                successor += t0.elapsed();
            }
            transitions += steps.len();
        }
    });
    if space.state_count() != s.expect.states
        || transitions != s.expect.transitions
        || deadlocks != s.expect.deadlocks
    {
        eprintln!("perfbench: the re-driven space disagrees with the expected answers");
        ok = false;
    }
    let hits = cursor.memo_hits() as f64;
    let lookups = hits + cursor.memo_misses() as f64;
    let pass = Pass {
        op: op_ms,
        compile,
        check: check_ms,
        check_violated,
        minimize: minimize_ms,
        explore,
        restore: ms(restore),
        solve: ms(solve),
        successor: ms(successor),
    };
    let facts = Facts {
        formulas,
        states_visited,
        states: space.state_count(),
        transitions,
        peak_frontier: snap.peak_frontier,
        interner_occupancy: snap.interner_occupancy(),
        memo_hit_ratio: if lookups > 0.0 { hits / lookups } else { 0.0 },
    };
    (pass, facts, ok)
}

/// The layer ledger: the median of five serial passes, component by
/// component. Each parent row is the sum of its children plus a
/// measured remainder (the parent's median minus its children's), so
/// the rows add up to the top figure.
pub fn ledger(s: &Setup, t: &mut Tracer) -> (Vec<Metric>, Vec<(String, f64)>, usize) {
    let mut passes = Vec::new();
    let mut facts = None;
    let mut failed = 0;
    for rep in 0..5 {
        let (p, f, ok) = pass(s, t, 1_000_000 + rep);
        failed += usize::from(!ok);
        passes.push(p);
        facts = Some(f);
    }
    let f = facts.expect("five passes ran");
    let med = |get: fn(&Pass) -> f64| median(&passes.iter().map(get).collect::<Vec<_>>());
    let (op_ms, compile, check, check_violated, minimize) = (
        med(|p| p.op),
        med(|p| p.compile),
        med(|p| p.check),
        med(|p| p.check_violated),
        med(|p| p.minimize),
    );
    let (explore, restore, solve, successor) = (
        med(|p| p.explore),
        med(|p| p.restore),
        med(|p| p.solve),
        med(|p| p.successor),
    );
    let states = f.states as f64;
    let explorer_self = explore - restore - solve - successor;
    let monitor_ms = check - explore;
    let metrics = vec![
        metric("engine.formulas_cached", "count", f.formulas as f64),
        metric("engine.restore_ms", "ms", restore),
        metric("engine.solve_ms", "ms", solve),
        metric("engine.successor_ms", "ms", successor),
        metric("engine.solve_us_per_state", "us", solve * 1e3 / states),
        metric(
            "engine.steps_per_state",
            "count",
            f.transitions as f64 / states,
        ),
        metric(
            "engine.successor_us_per_transition",
            "us",
            successor * 1e3 / f.transitions.max(1) as f64,
        ),
        metric("engine.memo_hit_ratio", "ratio", f.memo_hit_ratio),
        metric("engine.explore_ms", "ms", explore),
        metric("engine.explorer_self_ms", "ms", explorer_self),
        metric("engine.peak_frontier", "count", f.peak_frontier as f64),
        metric("engine.interner_occupancy", "ratio", f.interner_occupancy),
        metric("verify.check_ms", "ms", check),
        metric("verify.monitor_ms", "ms", monitor_ms),
        metric("verify.minimize_ms", "ms", minimize),
        metric("verify.states_visited", "count", f.states_visited as f64),
    ];
    let check_label = if s.one_pass {
        "  verify.check (all properties, one pass)"
    } else {
        "  verify.check (holding set)"
    };
    let mut ledger = vec![
        ("verdict (one serial operation)".to_owned(), op_ms),
        ("  engine.program_compile".to_owned(), compile),
        (check_label.to_owned(), check),
        (
            "    engine.explore (bare, same options)".to_owned(),
            explore,
        ),
        ("      engine.restore".to_owned(), restore),
        ("      engine.solve".to_owned(), solve),
        ("      engine.successor".to_owned(), successor),
        ("      engine.explorer_self".to_owned(), explorer_self),
        ("    verify.monitor".to_owned(), monitor_ms),
    ];
    if !s.one_pass {
        ledger.push(("  verify.check (violated)".to_owned(), check_violated));
    }
    ledger.push(("  verify.minimize".to_owned(), minimize));
    ledger.push((
        "  benchmark glue".to_owned(),
        op_ms - compile - check - check_violated - minimize,
    ));
    (metrics, ledger, failed)
}
