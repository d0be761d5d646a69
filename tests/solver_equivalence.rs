//! Property-based equivalence of the truth-table step solver against
//! the naive `2^n` enumeration, over randomly generated constraint sets
//! — the correctness side of the B3 ablation — plus the touched-only,
//! memoised successor generation of `Cursor::expand` against restore +
//! fire + `state_key` on a bare `Specification`, over these random
//! specs and over `.mcc` specs with user automata.
//!
//! The random specifications draw from eleven events spread over three
//! `Step` words (ids 0 to 139), so the search order has to reproduce
//! the `Step` ordering across word boundaries. Footprints range from two
//! to eight events: the tabulated path (≤ 6 events) and the
//! three-valued fallback (wider) both run, often in one search.
//!
//! Deterministic in-repo `moccml-testkit` harness at 96 cases per
//! property; failures report a replayable case seed.

mod common;

use common::random_spec_with_automata;
use moccml::lang::compile;
use moccml_ccsl::{Alternation, Coincidence, Exclusion, Precedence, SubClock, Union};
use moccml_engine::{Cursor, ExploreOptions, Program, SolverOptions};
use moccml_kernel::{
    Constraint, EventId, KernelError, Specification, StateKey, Step, StepFormula, Universe,
};
use moccml_testkit::{cases, prop_assert, prop_assert_eq, TestRng};

const CASES: usize = 96;

/// Size of the universe the random specifications live in.
const UNIVERSE: usize = 140;

/// The event ids constraints draw from: eleven, across three words.
const POOL: [usize; 11] = [0, 5, 31, 62, 63, 64, 65, 100, 127, 128, 139];

/// Events no constraint ever mentions, listed as extra free variables.
const EXTRA: [usize; 2] = [1, 129];

/// Steps of each random walk.
const WALK: usize = 6;

/// A recipe for one random constraint; operands index [`POOL`].
#[derive(Debug, Clone)]
enum Recipe {
    Sub(u8, u8),
    Coinc(u8, u8),
    Prec(u8, u8, u8),
    Alt(u8, u8),
    /// Mutual exclusion over 2–8 distinct events.
    Excl(Vec<u8>),
    /// `result = union(operands)` over 2–8 distinct events in all.
    Union(Vec<u8>),
    /// [`NoRepeat`] over 2–8 distinct events.
    NoRepeat(Vec<u8>),
}

/// `k` distinct pool indices.
fn distinct(rng: &mut TestRng, k: usize) -> Vec<u8> {
    let mut picked = Vec::with_capacity(k);
    while picked.len() < k {
        let e = rng.u8_in(0..POOL.len() as u8);
        if !picked.contains(&e) {
            picked.push(e);
        }
    }
    picked
}

fn random_recipe(rng: &mut TestRng) -> Recipe {
    let e = |rng: &mut TestRng| rng.u8_in(0..POOL.len() as u8);
    match rng.u8_in(0..7) {
        0 => Recipe::Sub(e(rng), e(rng)),
        1 => Recipe::Coinc(e(rng), e(rng)),
        2 => Recipe::Prec(e(rng), e(rng), rng.u8_in(1..4)),
        3 => Recipe::Alt(e(rng), e(rng)),
        4 => {
            let k = rng.usize_in(2..9);
            Recipe::Excl(distinct(rng, k))
        }
        5 => {
            let k = rng.usize_in(2..9);
            Recipe::Union(distinct(rng, k))
        }
        _ => {
            let k = rng.usize_in(2..9);
            Recipe::NoRepeat(distinct(rng, k))
        }
    }
}

/// A stateful constraint over any number of events: it remembers which
/// of its events occurred in the last step that touched it, and
/// forbids the next touching step from repeating exactly that set. Its
/// successor depends on the whole projection of a step onto its
/// footprint, so over 7 or 8 events it exercises the wide successor map
/// with distinct rows (the built-in wide constraints are stateless).
#[derive(Debug, Clone)]
struct NoRepeat {
    name: String,
    events: Vec<EventId>,
    last: Step,
}

impl Constraint for NoRepeat {
    fn name(&self) -> &str {
        &self.name
    }
    fn constrained_events(&self) -> Vec<EventId> {
        self.events.clone()
    }
    fn current_formula(&self) -> StepFormula {
        if self.last.is_empty() {
            return StepFormula::True;
        }
        let repeat = self.events.iter().map(|&e| {
            if self.last.contains(e) {
                StepFormula::event(e)
            } else {
                StepFormula::not(StepFormula::event(e))
            }
        });
        StepFormula::not(StepFormula::and(repeat.collect()))
    }
    fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if !self.current_formula().eval(step) {
            return Err(KernelError::StepRejected {
                constraint: self.name.clone(),
                step: step.to_string(),
            });
        }
        let touched = Step::from_events(self.events.iter().copied().filter(|&e| step.contains(e)));
        if !touched.is_empty() {
            self.last = touched;
        }
        Ok(())
    }
    fn state_key(&self) -> StateKey {
        self.last.iter().map(|e| e.index() as i64).collect()
    }
    fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        self.last = key
            .values()
            .iter()
            .map(|&i| EventId::from_index(i as usize))
            .collect();
        Ok(())
    }
    fn reset(&mut self) {
        self.last = Step::new();
    }
    fn boxed_clone(&self) -> Box<dyn Constraint> {
        Box::new(self.clone())
    }
}

fn event(i: u8) -> EventId {
    EventId::from_index(POOL[i as usize])
}

fn build(recipes: &[Recipe]) -> Specification {
    let mut u = Universe::new();
    for i in 0..UNIVERSE {
        u.event(&format!("e{i}"));
    }
    let mut spec = Specification::new("random", u);
    for (i, r) in recipes.iter().enumerate() {
        let name = format!("c{i}");
        let c: Option<Box<dyn Constraint>> = match r {
            Recipe::Sub(a, b) if a != b => {
                Some(Box::new(SubClock::new(&name, event(*a), event(*b))))
            }
            Recipe::Coinc(a, b) if a != b => {
                Some(Box::new(Coincidence::new(&name, event(*a), event(*b))))
            }
            Recipe::Prec(a, b, k) if a != b => Some(Box::new(
                Precedence::strict(&name, event(*a), event(*b)).with_bound(u64::from(*k)),
            )),
            Recipe::Alt(a, b) if a != b => {
                Some(Box::new(Alternation::new(&name, event(*a), event(*b))))
            }
            Recipe::Excl(es) => Some(Box::new(Exclusion::new(
                &name,
                es.iter().map(|&e| event(e)),
            ))),
            Recipe::Union(es) => Some(Box::new(Union::new(
                &name,
                event(es[0]),
                es[1..].iter().map(|&e| event(e)),
            ))),
            Recipe::NoRepeat(es) => Some(Box::new(NoRepeat {
                name,
                events: es.iter().map(|&e| event(e)).collect(),
                last: Step::new(),
            })),
            _ => None, // degenerate draws are skipped
        };
        if let Some(c) = c {
            spec.add_constraint(c);
        }
    }
    spec
}

/// Compares the table search with the naive enumeration over `events`
/// (or the program's own constrained events when `None`), both with
/// and without the empty step.
fn agree(cursor: &Cursor, events: Option<&[EventId]>, ctx: &str) -> Result<(), String> {
    let solve = |options: SolverOptions| match events {
        Some(events) => cursor.acceptable_steps_over(events, &options),
        None => cursor.acceptable_steps(&options),
    };
    let naive = solve(SolverOptions::naive().with_empty(true));
    let pruned = solve(SolverOptions::default().with_empty(true));
    prop_assert_eq!(&pruned, &naive, "with empty: {ctx}");
    let nonempty: Vec<Step> = naive.into_iter().filter(|s| !s.is_empty()).collect();
    prop_assert_eq!(
        solve(SolverOptions::default()),
        nonempty,
        "without empty: {ctx}"
    );
    Ok(())
}

/// Fires a uniformly drawn acceptable step; `false` on a deadlock.
fn walk(cursor: &mut Cursor, rng: &mut TestRng) -> bool {
    let steps = cursor.acceptable_steps(&SolverOptions::default());
    if steps.is_empty() {
        return false;
    }
    let step = &steps[rng.usize_in(0..steps.len())];
    cursor.fire(step).expect("an enumerated step fires");
    true
}

/// Pruned and naive enumerations agree on arbitrary constraint sets
/// in the initial state.
#[test]
fn pruned_equals_naive_initially() {
    cases(CASES).run("pruned_equals_naive_initially", |rng| {
        let recipes = rng.vec_of(1..8, random_recipe);
        let cursor = Program::new(build(&recipes)).cursor();
        agree(&cursor, None, &format!("recipes: {recipes:?}"))
    });
}

/// They also agree on every state of a random walk.
#[test]
fn pruned_equals_naive_along_runs() {
    cases(CASES).run("pruned_equals_naive_along_runs", |rng| {
        let recipes = rng.vec_of(1..8, random_recipe);
        let mut cursor = Program::new(build(&recipes)).cursor();
        for depth in 0..=WALK {
            agree(
                &cursor,
                None,
                &format!("depth {depth}, recipes: {recipes:?}"),
            )?;
            if !walk(&mut cursor, rng) {
                break;
            }
        }
        Ok(())
    });
}

/// Over an explicit event list, listed events no constraint mentions
/// are free (each doubles the answer) and unlisted events never occur.
#[test]
fn acceptable_steps_over_agrees_with_naive() {
    cases(CASES).run("acceptable_steps_over_agrees_with_naive", |rng| {
        let recipes = rng.vec_of(1..6, random_recipe);
        let mut cursor = Program::new(build(&recipes)).cursor();
        let constrained = cursor.program().constrained_events().to_vec();
        let mut widened = constrained.clone();
        widened.extend(EXTRA.iter().map(|&i| EventId::from_index(i)));
        for depth in 0..=WALK / 2 {
            let ctx = format!("depth {depth}, recipes: {recipes:?}");
            agree(&cursor, Some(&widened), &ctx)?;
            let all = SolverOptions::default().with_empty(true);
            prop_assert_eq!(
                cursor.acceptable_steps_over(&widened, &all).len(),
                cursor.acceptable_steps(&all).len() << EXTRA.len(),
                "each free event doubles the answer: {ctx}"
            );
            // drop one constrained event: it is then held absent
            if !constrained.is_empty() {
                let dropped = constrained[rng.usize_in(0..constrained.len())];
                let narrowed: Vec<EventId> =
                    widened.iter().copied().filter(|&e| e != dropped).collect();
                agree(
                    &cursor,
                    Some(&narrowed),
                    &format!("without {dropped}, {ctx}"),
                )?;
            }
            if !walk(&mut cursor, rng) {
                break;
            }
        }
        Ok(())
    });
}

/// Every enumerated step really satisfies the conjunction, and the
/// specification's `accepts` agrees.
#[test]
fn enumerated_steps_are_accepted() {
    cases(CASES).run("enumerated_steps_are_accepted", |rng| {
        let recipes = rng.vec_of(1..8, random_recipe);
        let spec = build(&recipes);
        let formula = spec.conjunction();
        for step in Program::compile(&spec)
            .cursor()
            .acceptable_steps(&SolverOptions::default())
        {
            prop_assert!(formula.eval(&step));
            prop_assert!(spec.accepts(&step));
        }
        Ok(())
    });
}

/// Checks `expander.expand(key)` against a bare [`Specification`]
/// cloned from the program's template: every expanded step is accepted
/// there, the steps are what a fresh cursor enumerates, and each
/// successor is what restore + fire + `state_key` on the bare
/// specification gives. Also checks the cursor is left at `key`.
fn expand_matches_bare_spec(
    program: &Program,
    expander: &mut Cursor,
    key: &StateKey,
    ctx: &str,
) -> Result<(), String> {
    let options = SolverOptions::default();
    let expansion = expander.expand(key, &options).expect("own key");
    prop_assert_eq!(expansion.state(), key, "{ctx}");
    prop_assert_eq!(
        expander.state_key(),
        key.clone(),
        "cursor left at key: {ctx}"
    );
    let mut reference = program.cursor();
    reference.restore(key).expect("own key");
    let steps = reference.acceptable_steps(&options);
    prop_assert_eq!(expansion.steps().len(), steps.len(), "{ctx}");
    let mut bare = program.specification().clone();
    for ((step, succ), expected) in expansion.steps().iter().zip(&steps) {
        prop_assert_eq!(step, expected, "{ctx}");
        bare.restore(key).expect("own key");
        prop_assert!(bare.accepts(step), "{step} accepted: {ctx}");
        bare.fire(step).expect("acceptable");
        prop_assert_eq!(succ, &bare.state_key(), "successor of {step}: {ctx}");
    }
    Ok(())
}

/// `Cursor::expand` — which moves only the constraints a step touches,
/// taking their successor keys from the memoised successor rows, and
/// splices those keys into the parent key — yields exactly the
/// successors of restore + fire + `state_key` on a bare
/// `Specification`, and leaves the cursor at the expanded state. The
/// expander persists along the walk, so later depths run on a warm
/// memo.
#[test]
fn expand_equals_restore_fire_state_key() {
    cases(CASES).run("expand_equals_restore_fire_state_key", |rng| {
        let recipes = rng.vec_of(1..8, random_recipe);
        let program = Program::new(build(&recipes));
        let mut walker = program.cursor();
        let mut expander = program.cursor();
        for depth in 0..=WALK {
            let ctx = format!("depth {depth}, recipes: {recipes:?}");
            expand_matches_bare_spec(&program, &mut expander, &walker.state_key(), &ctx)?;
            if !walk(&mut walker, rng) {
                break;
            }
        }
        Ok(())
    });
}

/// The same check over `.mcc` specifications that instantiate a user
/// constraint automaton (the Fig. 3 place, with a guarded counter)
/// beside random built-ins, on every state of a bounded exploration.
#[test]
fn expand_equals_bare_spec_on_lang_specs_with_automata() {
    cases(CASES / 2).run(
        "expand_equals_bare_spec_on_lang_specs_with_automata",
        |rng| {
            let ast = random_spec_with_automata(rng);
            let compiled = compile(&ast).map_err(|e| format!("compiles: {e}"))?;
            let program = compiled.program;
            let space = program.explore(&ExploreOptions::default().with_max_states(64));
            let mut expander = program.cursor();
            for (i, key) in space.states().iter().enumerate() {
                let ctx = format!("state {i} of\n{}", ast.to_text());
                expand_matches_bare_spec(&program, &mut expander, key, &ctx)?;
            }
            Ok(())
        },
    );
}
