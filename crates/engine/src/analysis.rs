//! Analyses over explored state spaces: deadlock witnesses, dead
//! events, bounded reachability — the "validation" half of the paper's
//! "simulation and analysis" promise.

use crate::explorer::StateSpace;
use moccml_kernel::{EventId, Schedule, Step};
use std::collections::VecDeque;

/// A counterexample: the schedule prefix leading from the initial state
/// to a problematic state.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The steps of the counterexample, in order.
    pub schedule: Schedule,
    /// Index of the reached state in the state space.
    pub state: usize,
}

/// Finds a *shortest* schedule leading to a deadlock state, if any —
/// the counterexample a designer asks for when exploration reports a
/// wedged allocation.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Precedence;
/// use moccml_engine::{deadlock_witness, ExploreOptions, Program};
/// use moccml_kernel::{Specification, Universe};
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("d", u);
/// spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
/// spec.add_constraint(Box::new(Precedence::strict("b<a", b, a)));
/// let space = Program::new(spec).explore(&ExploreOptions::default());
/// let witness = deadlock_witness(&space).expect("deadlocked spec");
/// assert_eq!(witness.schedule.len(), 0); // already dead at the start
/// ```
#[must_use]
pub fn deadlock_witness(space: &StateSpace) -> Option<Witness> {
    shortest_path_to(space, |state| space.deadlocks().contains(&state))
}

/// Finds a shortest schedule to any state satisfying `target`.
#[must_use]
pub fn shortest_path_to<F: Fn(usize) -> bool>(space: &StateSpace, target: F) -> Option<Witness> {
    let n = space.state_count();
    let mut predecessor: Vec<Option<(usize, Step)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::from([space.initial()]);
    visited[space.initial()] = true;
    // BFS over the explored graph
    let mut found = None;
    if target(space.initial()) {
        found = Some(space.initial());
    }
    'bfs: while let Some(state) = queue.pop_front() {
        for (src, step, dst) in space.transitions() {
            if *src != state || visited[*dst] {
                continue;
            }
            visited[*dst] = true;
            predecessor[*dst] = Some((state, step.clone()));
            if target(*dst) {
                found = Some(*dst);
                break 'bfs;
            }
            queue.push_back(*dst);
        }
    }
    let end = found?;
    let mut steps = Vec::new();
    let mut cursor = end;
    while let Some((prev, step)) = predecessor[cursor].clone() {
        steps.push(step);
        cursor = prev;
    }
    steps.reverse();
    Some(Witness {
        schedule: steps.into_iter().collect(),
        state: end,
    })
}

/// Whether `event` occurs on at least one transition (it is not dead in
/// the explored fragment).
#[must_use]
pub fn is_event_fireable(space: &StateSpace, event: EventId) -> bool {
    space
        .transitions()
        .iter()
        .any(|(_, step, _)| step.contains(event))
}

/// Events that never occur on any transition of the explored fragment —
/// dead events usually reveal a mis-wired mapping or an over-constrained
/// MoCC.
///
/// Computed as a single set difference — the union of all transition
/// steps subtracted from the universe — instead of scanning every
/// transition once per event.
#[must_use]
pub fn dead_events(space: &StateSpace, universe: &moccml_kernel::Universe) -> Vec<EventId> {
    let fired = space
        .transitions()
        .iter()
        .fold(Step::new(), |acc, (_, step, _)| acc.union(step));
    let all: Step = universe.iter().collect();
    all.difference(&fired).iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::ExploreOptions;
    use crate::program::Program;
    use moccml_ccsl::{Alternation, Precedence};
    use moccml_kernel::{Specification, Universe};

    fn explore(spec: &Specification, options: &ExploreOptions) -> StateSpace {
        Program::compile(spec).explore(options)
    }

    fn alternating() -> (Specification, EventId, EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("x", a, b)));
        (spec, a, b)
    }

    #[test]
    fn live_cycle_has_no_witness_and_no_dead_events() {
        let (spec, a, b) = alternating();
        let space = explore(&spec, &ExploreOptions::default());
        assert!(deadlock_witness(&space).is_none());
        assert!(is_event_fireable(&space, a));
        assert!(is_event_fireable(&space, b));
        assert!(dead_events(&space, spec.universe()).is_empty());
    }

    #[test]
    fn witness_reaches_a_bounded_deadlock() {
        // a < b with bound 1, and b forbidden entirely via a second
        // constraint ⇒ after one `a` the system wedges.
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("wedge", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b).with_bound(1)));
        // b requires c first, and c requires b first: both dead
        spec.add_constraint(Box::new(Precedence::strict("c<b", c, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        let space = explore(&spec, &ExploreOptions::default());
        let witness = deadlock_witness(&space).expect("wedges after a");
        assert_eq!(witness.schedule.len(), 1);
        assert!(witness.schedule.steps()[0].contains(a));
        assert!(space.deadlocks().contains(&witness.state));
    }

    #[test]
    fn dead_events_are_reported() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("half-dead", u);
        // b strictly precedes a, and a strictly precedes b: both dead —
        // but the space still has its initial state.
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<a", b, a)));
        let space = explore(&spec, &ExploreOptions::default());
        let dead = dead_events(&space, spec.universe());
        assert_eq!(dead.len(), 2);
        assert!(!is_event_fireable(&space, a));
        assert!(!is_event_fireable(&space, b));
    }

    #[test]
    fn shortest_path_targets_arbitrary_predicates() {
        let (spec, _, _) = alternating();
        let space = explore(&spec, &ExploreOptions::default());
        // reach the non-initial state of the 2-cycle
        let other = (0..space.state_count())
            .find(|&s| s != space.initial())
            .expect("two states");
        let w = shortest_path_to(&space, |s| s == other).expect("reachable");
        assert_eq!(w.schedule.len(), 1);
        assert_eq!(w.state, other);
    }
}
