//! Property coverage for the post-hoc analysis queries (ISSUE 4
//! satellites):
//!
//! * every `Witness` returned by `shortest_path_to` and
//!   `deadlock_witness` **replays** via `Cursor::fire` from the initial
//!   state and lands exactly on the reported state;
//! * `deadlock_witness` schedules end in genuinely wedged states and
//!   are shortest (length = BFS depth of the nearest deadlock).
//!
//! Runs on the deterministic in-repo `moccml-testkit` harness.

use moccml_engine::{
    deadlock_witness, shortest_path_to, ExploreOptions, Program, SolverOptions, StateSpace,
};
use moccml_testkit::{cases, prop_assert, prop_assert_eq};
use std::sync::Arc;

mod common;
use common::{build, random_recipe};

const CASES: usize = 56;

/// Replays a witness schedule via `Cursor::fire` from the initial
/// state; returns the reached state key.
fn replay(
    program: &Arc<Program>,
    witness: &moccml_engine::Witness,
) -> Result<moccml_kernel::StateKey, String> {
    let mut cursor = program.cursor();
    for (i, step) in witness.schedule.iter().enumerate() {
        if !cursor.accepts(step) {
            return Err(format!("witness step {i} ({step}) rejected"));
        }
        cursor.fire(step).map_err(|e| format!("step {i}: {e}"))?;
    }
    Ok(cursor.state_key())
}

#[test]
fn shortest_path_witnesses_replay_to_their_target() {
    cases(CASES).run("shortest_path_witnesses_replay_to_their_target", |rng| {
        let recipes = rng.vec_of(1..5, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let space: StateSpace = program.explore(&ExploreOptions::default().with_max_states(2_000));
        if space.state_count() == 0 {
            return Ok(());
        }
        // target a random reachable state
        let target = rng.usize_in(0..space.state_count());
        let witness = shortest_path_to(&space, |s| s == target)
            .ok_or_else(|| format!("state {target} was interned but is unreachable"))?;
        prop_assert_eq!(witness.state, target, "recipes {:?}", recipes);
        let reached =
            replay(&program, &witness).map_err(|e| format!("{e} (recipes {recipes:?})"))?;
        prop_assert_eq!(
            &reached,
            &space.states()[target],
            "witness must land on the target key (recipes {:?})",
            recipes
        );
        Ok(())
    });
}

#[test]
fn deadlock_witnesses_replay_into_wedged_states() {
    cases(CASES).run("deadlock_witnesses_replay_into_wedged_states", |rng| {
        let recipes = rng.vec_of(2..6, random_recipe);
        let spec = build(&recipes);
        let program = Program::compile(&spec);
        let space = program.explore(&ExploreOptions::default().with_max_states(2_000));
        match deadlock_witness(&space) {
            None => {
                prop_assert!(
                    space.deadlocks().is_empty() || space.truncated(),
                    "no witness only without (reachable) deadlocks: {recipes:?}"
                );
            }
            Some(witness) => {
                prop_assert!(
                    space.deadlocks().contains(&witness.state),
                    "witness state is a deadlock (recipes {recipes:?})"
                );
                // replay lands on the deadlock key, and the state is
                // genuinely wedged for a fresh cursor
                let mut cursor = program.cursor();
                for (i, step) in witness.schedule.iter().enumerate() {
                    prop_assert!(
                        cursor.accepts(step),
                        "witness step {i} rejected (recipes {recipes:?})"
                    );
                    cursor.fire(step).map_err(|e| e.to_string())?;
                }
                prop_assert_eq!(
                    &cursor.state_key(),
                    &space.states()[witness.state],
                    "recipes {:?}",
                    recipes
                );
                prop_assert!(
                    cursor
                        .acceptable_steps(&SolverOptions::default())
                        .is_empty(),
                    "deadlock state must admit no non-empty step (recipes {recipes:?})"
                );
                // shortest: no deadlock at a strictly smaller BFS depth
                let shorter = shortest_path_to(&space, |s| space.deadlocks().contains(&s))
                    .expect("same target set");
                prop_assert_eq!(
                    shorter.schedule.len(),
                    witness.schedule.len(),
                    "deadlock_witness must be shortest (recipes {:?})",
                    recipes
                );
            }
        }
        Ok(())
    });
}
