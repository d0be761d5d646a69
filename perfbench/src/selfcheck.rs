//! `perfbench --selfcheck`: untimed checks that the benchmark's
//! workloads mean what they claim.
//!
//! * worker count does not change results: the drift-cube `StateSpace`
//!   and the drift_smc reports are identical at workers 1 and 2;
//! * CLI↔serve parity: a served `check` payload is byte-identical to
//!   `moccml check --format json` on the same spec;
//! * the pinned PAM quad-core answers agree with an exploration driven
//!   by the benchmark's own step enumerator (a three-valued search over
//!   each state's lowered formulas, in the reverse event order of the
//!   engine's solver). The engine's naive 2ⁿ solver is capped at 26
//!   events and the deployment has 28, so it cannot serve here.

use crate::engine_wl::{self, Kind};
use crate::serve_wl::{request_line, Conn, Daemon, Req, PAM, VERIFICATION};
use crate::smc_wl;
use moccml_engine::{ExploreOptions, Program};
use moccml_kernel::{EventId, StateKey, Step, StepFormula, Ternary};
use std::collections::{HashMap, VecDeque};

type Check = fn() -> Result<(), String>;

pub fn run() -> bool {
    let checks: [(&str, Check); 4] = [
        (
            "drift_cube StateSpace identical at workers 1 and 2",
            cube_workers,
        ),
        (
            "drift_smc reports identical at workers 1 and 2",
            smc_workers,
        ),
        (
            "served check payload == moccml check --format json",
            cli_serve_parity,
        ),
        (
            "pam_quad pinned answers == independent enumeration",
            pam_cross_check,
        ),
    ];
    let mut ok = true;
    for (name, check) in checks {
        match check() {
            Ok(()) => println!("ok    {name}"),
            Err(e) => {
                ok = false;
                println!("FAIL  {name}: {e}");
            }
        }
    }
    ok
}

fn cube_workers() -> Result<(), String> {
    let s = engine_wl::setup(Kind::DriftCube, 0);
    let program = Program::compile(&s.spec);
    let one = program.explore(&s.options.clone().with_workers(1));
    let two = program.explore(&s.options.clone().with_workers(2));
    if one.state_count() != s.expect.states {
        return Err(format!(
            "{} states, expected {}",
            one.state_count(),
            s.expect.states
        ));
    }
    if one == two {
        Ok(())
    } else {
        Err("the spaces differ".into())
    }
}

fn smc_workers() -> Result<(), String> {
    let compiled = smc_wl::compile(smc_wl::DRIFT);
    for prop in &compiled.props {
        let one = moccml_smc::check_statistical(&compiled.program, prop, &smc_wl::options(7, 1));
        let two = moccml_smc::check_statistical(&compiled.program, prop, &smc_wl::options(7, 2));
        if one != two {
            return Err(format!(
                "reports differ on {}",
                prop.display(compiled.universe())
            ));
        }
    }
    Ok(())
}

fn cli_serve_parity() -> Result<(), String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let daemon = Daemon::spawn()?;
    let result = (|| {
        let mut conn = Conn::open(&daemon.addr)?;
        for (name, text) in [("pam", PAM), ("verification", VERIFICATION)] {
            let path = dir.join(format!("parity-{name}.mcc"));
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            let mut cli = String::new();
            let args = ["check", &path.to_string_lossy(), "--format", "json"].map(str::to_owned);
            moccml_serve::cli::run(&args, &mut cli);
            let served = conn.timed(&request_line("parity", text, Req::Check))?.line;
            let cli = cli.trim_end();
            if cli.is_empty() || !served.contains(&format!("\"result\":{cli}")) {
                return Err(format!(
                    "{name}: served `{served}` does not carry the CLI payload `{cli}`"
                ));
            }
        }
        Ok(())
    })();
    daemon.stop()?;
    result
}

fn pam_cross_check() -> Result<(), String> {
    let s = engine_wl::setup(Kind::PamQuad, 0);
    let expect = engine_wl::pam_expect();
    let pinned = engine_wl::pinned(include_str!("../expected/pam_quad.txt"));
    if s.spec.universe().len() != pinned["events"]
        || s.spec.constraint_count() != pinned["constraints"]
    {
        return Err("event or constraint count differs from the pinned file".into());
    }
    let program = Program::compile(&s.spec);
    let events: Vec<EventId> = s.spec.constrained_events().iter().collect();
    let mut cursor = program.cursor();
    let mut index: HashMap<StateKey, usize> = HashMap::new();
    let mut queue = VecDeque::new();
    let init = cursor.state_key();
    index.insert(init.clone(), 0);
    queue.push_back(init);
    let (mut transitions, mut deadlocks) = (0, 0);
    while let Some(key) = queue.pop_front() {
        cursor.restore(&key).map_err(|e| e.to_string())?;
        let formulas = cursor.specification().lowered_formulas();
        let mut steps = Vec::new();
        enumerate(
            &formulas,
            &events,
            events.len(),
            &mut Step::new(),
            &mut Step::new(),
            &mut steps,
        );
        steps.retain(|st| !st.is_empty());
        deadlocks += usize::from(steps.is_empty());
        transitions += steps.len();
        for step in steps {
            cursor.restore(&key).map_err(|e| e.to_string())?;
            cursor.fire(&step).map_err(|e| e.to_string())?;
            let next = cursor.state_key();
            if !index.contains_key(&next) {
                index.insert(next.clone(), index.len());
                queue.push_back(next);
            }
        }
    }
    let engine = program.explore(&ExploreOptions::default().with_workers(1));
    let got = (index.len(), transitions, deadlocks);
    let want = (expect.states, expect.transitions, expect.deadlocks);
    let explored = (
        engine.state_count(),
        engine.transition_count(),
        engine.deadlocks().len(),
    );
    if got != want || explored != want {
        return Err(format!(
            "independent {got:?}, engine {explored:?}, pinned {want:?}"
        ));
    }
    Ok(())
}

/// Every model of the conjunction, assigning events last to first.
fn enumerate(
    formulas: &[StepFormula],
    events: &[EventId],
    left: usize,
    assigned: &mut Step,
    value: &mut Step,
    out: &mut Vec<Step>,
) {
    let mut all_true = true;
    for f in formulas {
        match f.eval_partial(assigned, value) {
            Ternary::False => return,
            Ternary::Unknown => all_true = false,
            Ternary::True => {}
        }
    }
    if left == 0 {
        if all_true {
            out.push(value.clone());
        }
        return;
    }
    let e = events[left - 1];
    assigned.insert(e);
    enumerate(formulas, events, left - 1, assigned, value, out);
    value.insert(e);
    enumerate(formulas, events, left - 1, assigned, value, out);
    value.remove(e);
    assigned.remove(e);
}
