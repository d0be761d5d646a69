//! The memoised successor rows behind `Cursor::expand`.
//!
//! A program memoises, per `(constraint, local state)`, the local key
//! the constraint moves to under each projection of a step onto its
//! footprint, filled on first use by firing the real constraint. These
//! tests pin what that memo must not change and what it must save:
//!
//! * expansions are identical whether the memo is cold or warm, and
//!   whichever cursor or thread fills it;
//! * during a full exploration, `Constraint::fire` runs at most once per
//!   distinct `(constraint, local state, projection)`, for footprints
//!   that get dense rows (≤ 6 events) and for wider ones alike;
//! * the drift cube at bound 6 keeps its exact shape at any worker
//!   count.
//!
//! Deterministic in-repo `moccml-testkit` harness; failures report a
//! replayable case seed.

use moccml_bench::experiments::e9_scale_spec;
use moccml_ccsl::{Exclusion, Precedence};
use moccml_engine::{ExploreOptions, Program, SolverOptions, StateExpansion};
use moccml_kernel::{
    Constraint, EventId, KernelError, Specification, StateKey, Step, StepFormula, Universe,
};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, TestRng};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const CASES: usize = 32;

/// How often `fire` ran, per `(local state, step projection)`.
type FireCounts = Arc<Mutex<HashMap<(StateKey, Step), usize>>>;

/// A constraint that counts its own `fire` calls and otherwise behaves
/// exactly like the constraint it wraps.
#[derive(Debug, Clone)]
struct Counted {
    inner: Box<dyn Constraint>,
    footprint: Step,
    counts: FireCounts,
}

impl Counted {
    fn wrap(inner: Box<dyn Constraint>) -> (Counted, FireCounts) {
        let counts = FireCounts::default();
        let footprint = Step::from_events(inner.constrained_events());
        let counted = Counted {
            inner,
            footprint,
            counts: Arc::clone(&counts),
        };
        (counted, counts)
    }
}

impl Constraint for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn constrained_events(&self) -> Vec<EventId> {
        self.inner.constrained_events()
    }
    fn current_formula(&self) -> StepFormula {
        self.inner.current_formula()
    }
    fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        let row = (self.inner.state_key(), step.intersection(&self.footprint));
        *self
            .counts
            .lock()
            .expect("counts lock")
            .entry(row)
            .or_default() += 1;
        self.inner.fire(step)
    }
    fn state_key(&self) -> StateKey {
        self.inner.state_key()
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        self.inner.restore(key)
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

/// `k` bounded precedences `c_i < e_i` plus one exclusion over all
/// `2k` events, so the exclusion's footprint is dense-row sized for
/// `k ≤ 3` and wider for `k ≥ 4`. Returns the counters of every
/// constraint, in constraint order.
fn counted_cube(k: usize, bound: u64) -> (Specification, Vec<FireCounts>) {
    let mut u = Universe::new();
    let pairs: Vec<(EventId, EventId)> = (0..k)
        .map(|i| (u.event(&format!("c{i}")), u.event(&format!("e{i}"))))
        .collect();
    let mut spec = Specification::new("counted", u);
    let mut all_counts = Vec::new();
    let mut add = |spec: &mut Specification, c: Box<dyn Constraint>| {
        let (counted, counts) = Counted::wrap(c);
        spec.add_constraint(Box::new(counted));
        all_counts.push(counts);
    };
    for (i, &(c, e)) in pairs.iter().enumerate() {
        let precedence = Precedence::strict(&format!("c{i}<e{i}"), c, e).with_bound(bound);
        add(&mut spec, Box::new(precedence));
    }
    let events = pairs.iter().flat_map(|&(c, e)| [c, e]);
    add(&mut spec, Box::new(Exclusion::new("one-at-a-time", events)));
    (spec, all_counts)
}

/// A random counted cube: 2–4 channels (the exclusion spans 4–8
/// events) with bounds 1–3.
fn random_counted_cube(rng: &mut TestRng) -> (Specification, Vec<FireCounts>, String) {
    let k = rng.usize_in(2..5);
    let bound = rng.u64_in(1..4);
    let (spec, counts) = counted_cube(k, bound);
    (spec, counts, format!("k={k}, bound={bound}"))
}

/// Expands every key on one cursor of `program`.
fn expand_all(program: &Program, keys: &[StateKey]) -> Vec<StateExpansion> {
    let mut cursor = program.cursor();
    keys.iter()
        .map(|key| {
            cursor
                .expand(key, &SolverOptions::default())
                .expect("own key")
        })
        .collect()
}

/// Two cursors on one program — the second on another thread — get
/// identical expansions from a cold memo and from the warm memo the
/// first left behind, and so does the first cursor re-expanding warm.
#[test]
fn cold_and_warm_memos_expand_identically_across_cursors_and_threads() {
    cases(CASES).run(
        "cold_and_warm_memos_expand_identically_across_cursors_and_threads",
        |rng| {
            let (spec, _, ctx) = random_counted_cube(rng);
            // the keys come from a separate program, so `program` is cold
            let keys = Program::compile(&spec)
                .explore(&ExploreOptions::default().with_workers(1))
                .states()
                .to_vec();
            let program = Program::new(spec);
            let cold = expand_all(&program, &keys);
            let warm_elsewhere = std::thread::scope(|s| {
                s.spawn(|| expand_all(&program, &keys))
                    .join()
                    .expect("expander thread")
            });
            prop_assert_eq!(&warm_elsewhere, &cold, "warm, other thread: {ctx}");
            prop_assert_eq!(expand_all(&program, &keys), cold, "warm, again: {ctx}");
            Ok(())
        },
    );
}

/// During a full exploration — serial or on racing workers — every
/// constraint fires at most once per distinct `(local state, step
/// projection)`: after the first expansion that needs it, a successor
/// comes from the memo. Both the dense rows (footprints of ≤ 6 events)
/// and the wide map are covered.
#[test]
fn fire_runs_once_per_constraint_state_and_projection() {
    cases(CASES).run(
        "fire_runs_once_per_constraint_state_and_projection",
        |rng| {
            let (spec, counts, ctx) = random_counted_cube(rng);
            let workers = [1, 2][rng.usize_in(0..2)];
            let space =
                Program::new(spec).explore(&ExploreOptions::default().with_workers(workers));
            let mut rows = 0;
            for (i, counts) in counts.iter().enumerate() {
                let counts = counts.lock().expect("counts lock");
                let repeated: Vec<_> = counts.iter().filter(|(_, &n)| n > 1).collect();
                prop_assert_eq!(
                    repeated,
                    Vec::<(&(StateKey, Step), &usize)>::new(),
                    "constraint {i}, {workers} workers: {ctx}"
                );
                rows += counts.len();
            }
            // the counters are wired: every transition filled or read a row
            prop_assert!(rows > 0 && space.transition_count() > 0, "{ctx}");
            Ok(())
        },
    );
}

/// The drift cube at bound 6: 7³ = 343 states; along each of the three
/// axes 12 single-event steps per line of 7 states, on 49 lines
/// (3 × 12 × 49 = 1,764 transitions); no deadlock — and the same
/// `StateSpace` at 1, 2 and 8 workers.
#[test]
fn drift_cube_of_bound_six_is_pinned_at_every_worker_count() {
    let (spec, expected_states) = e9_scale_spec(6);
    assert_eq!(expected_states, 343);
    let program = Program::new(spec);
    let spaces: Vec<_> = [1, 2, 8]
        .into_iter()
        .map(|workers| program.explore(&ExploreOptions::default().with_workers(workers)))
        .collect();
    let serial = &spaces[0];
    assert_eq!(serial.state_count(), 343);
    assert_eq!(serial.transition_count(), 1_764);
    assert!(serial.deadlocks().is_empty());
    assert!(!serial.truncated());
    for space in &spaces[1..] {
        assert_eq!(space, serial, "identical at every worker count");
    }
}
