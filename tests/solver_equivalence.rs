//! Property-based equivalence of the truth-table step solver against
//! the naive `2^n` enumeration, over randomly generated constraint sets
//! — the correctness side of the B3 ablation — plus the touched-only
//! successor generation of `Cursor::expand` against restore + fire +
//! `state_key`.
//!
//! The random specifications draw from eleven events spread over three
//! `Step` words (ids 0 to 139), so the search order has to reproduce
//! the `Step` ordering across word boundaries. Footprints range from two
//! to eight events: the tabulated path (≤ 6 events) and the
//! three-valued fallback (wider) both run, often in one search.
//!
//! Deterministic in-repo `moccml-testkit` harness at 96 cases per
//! property; failures report a replayable case seed.

use moccml_ccsl::{Alternation, Coincidence, Exclusion, Precedence, SubClock, Union};
use moccml_engine::{Cursor, Program, SolverOptions};
use moccml_kernel::{Constraint, EventId, Specification, Step, Universe};
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
        _ => {
            let k = rng.usize_in(2..9);
            Recipe::Union(distinct(rng, k))
        }
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

/// `Cursor::expand` — which fires only the constraints a step touches
/// and splices their keys into the parent key — yields exactly the
/// successors of restore + fire + `state_key`, and leaves the cursor at
/// the expanded state.
#[test]
fn expand_equals_restore_fire_state_key() {
    cases(CASES).run("expand_equals_restore_fire_state_key", |rng| {
        let recipes = rng.vec_of(1..8, random_recipe);
        let program = Program::new(build(&recipes));
        let mut walker = program.cursor();
        let mut expander = program.cursor();
        let mut reference = program.cursor();
        let options = SolverOptions::default();
        for depth in 0..=WALK {
            let ctx = format!("depth {depth}, recipes: {recipes:?}");
            let key = walker.state_key();
            let expansion = expander.expand(&key, &options).expect("own key");
            prop_assert_eq!(expansion.state(), &key, "{ctx}");
            prop_assert_eq!(
                expander.state_key(),
                key.clone(),
                "cursor left at key: {ctx}"
            );
            reference.restore(&key).expect("own key");
            let steps = reference.acceptable_steps(&options);
            prop_assert_eq!(expansion.steps().len(), steps.len(), "{ctx}");
            for ((step, succ), expected) in expansion.steps().iter().zip(&steps) {
                prop_assert_eq!(step, expected, "{ctx}");
                reference.restore(&key).expect("own key");
                reference.fire(step).expect("acceptable");
                prop_assert_eq!(succ, &reference.state_key(), "successor of {step}: {ctx}");
            }
            if !walk(&mut walker, rng) {
                break;
            }
        }
        Ok(())
    });
}
