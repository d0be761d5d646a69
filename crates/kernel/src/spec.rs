//! [`Specification`]: a universe of events plus a conjunction of
//! constraints — the paper's *execution model*.

use crate::constraint::{Constraint, StateKey};
use crate::error::KernelError;
use crate::event::{EventId, Universe};
use crate::formula::StepFormula;
use crate::step::Step;

/// An executable MoCCML specification: events plus constraints.
///
/// In the paper's big picture (Fig. 1), instantiating the MoCC
/// constraints over a specific model yields the *execution model*, "a
/// symbolic representation of all the acceptable schedules". This type is
/// that execution model: it owns the [`Universe`] of events and the bag
/// of [`Constraint`] instances, and exposes the conjunction semantics of
/// Sec. II-C through [`Specification::conjunction`].
///
/// The engine crate drives it: enumerate acceptable steps, pick one,
/// [`fire`](Specification::fire) it, repeat.
///
/// # Example
///
/// ```
/// use moccml_kernel::{Specification, Universe};
/// let mut u = Universe::new();
/// u.event("a");
/// let spec = Specification::new("demo", u);
/// assert_eq!(spec.universe().len(), 1);
/// assert!(spec.constraints().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Specification {
    name: String,
    universe: Universe,
    constraints: Vec<Box<dyn Constraint>>,
}

impl Specification {
    /// Creates a specification with no constraints over `universe`.
    #[must_use]
    pub fn new(name: &str, universe: Universe) -> Self {
        Specification {
            name: name.to_owned(),
            universe,
            constraints: Vec::new(),
        }
    }

    /// The specification's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The event universe.
    #[must_use]
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Mutable access to the universe (to register late events).
    pub fn universe_mut(&mut self) -> &mut Universe {
        &mut self.universe
    }

    /// Adds a constraint to the conjunction.
    pub fn add_constraint(&mut self, constraint: Box<dyn Constraint>) {
        self.constraints.push(constraint);
    }

    /// The installed constraints.
    #[must_use]
    pub fn constraints(&self) -> &[Box<dyn Constraint>] {
        &self.constraints
    }

    /// Mutable access to the constraint at `index` (in installation
    /// order), so a caller can fire or restore one constraint without
    /// touching the others. Only sound for steps that miss every other
    /// constraint's footprint: by the stuttering contract those
    /// constraints would not have changed state anyway.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn constraint_mut(&mut self, index: usize) -> &mut dyn Constraint {
        self.constraints[index].as_mut()
    }

    /// Number of installed constraints.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// The conjunction of every constraint's current formula —
    /// the boolean expression whose models are the acceptable next steps
    /// (Sec. II-C: "their boolean expressions are put in conjunction").
    #[must_use]
    pub fn conjunction(&self) -> StepFormula {
        StepFormula::And(
            self.constraints
                .iter()
                .map(|c| c.current_formula())
                .collect(),
        )
        .simplify()
    }

    /// Per-constraint lowered formulas, in constraint order: each
    /// constraint's [`current_formula`](Constraint::current_formula),
    /// structurally simplified.
    ///
    /// A step satisfies [`conjunction`](Specification::conjunction) iff
    /// it satisfies every formula of this vector — the engine's
    /// compiled `Program` memoises these per constraint (keyed by the
    /// local [`state_key`](Constraint::state_key)) so the lowering
    /// happens once per reached constraint state instead of once per
    /// query, shared across all of its cursors.
    #[must_use]
    pub fn lowered_formulas(&self) -> Vec<StepFormula> {
        self.constraints
            .iter()
            .map(|c| c.current_formula().simplify())
            .collect()
    }

    /// Per-constraint state keys, in constraint order — the same
    /// snapshots [`state_key`](Specification::state_key) concatenates,
    /// but kept separate so a caller can detect *which* constraints
    /// changed state.
    #[must_use]
    pub fn constraint_state_keys(&self) -> Vec<StateKey> {
        self.constraints.iter().map(|c| c.state_key()).collect()
    }

    /// Per-constraint event footprints, in constraint order: the
    /// [`constrained_events`](Constraint::constrained_events) of each
    /// constraint as a [`Step`] bitset.
    ///
    /// This is the raw material of cone-of-influence slicing: two
    /// constraints interact only if their footprints intersect, because
    /// the stuttering contract makes every constraint indifferent to
    /// steps over foreign events.
    #[must_use]
    pub fn constraint_footprints(&self) -> Vec<Step> {
        self.constraints
            .iter()
            .map(|c| Step::from_events(c.constrained_events()))
            .collect()
    }

    /// The set of events restricted by at least one constraint.
    ///
    /// Events outside this set are *free*: nothing ever forbids or
    /// requires them, so the solver handles them separately (each free
    /// event doubles the acceptable-step count without affecting any
    /// constraint state).
    #[must_use]
    pub fn constrained_events(&self) -> Step {
        let mut s = Step::new();
        for c in &self.constraints {
            s.extend(c.constrained_events());
        }
        s
    }

    /// Events of the universe that no constraint mentions.
    #[must_use]
    pub fn free_events(&self) -> Vec<EventId> {
        let constrained = self.constrained_events();
        self.universe
            .iter()
            .filter(|e| !constrained.contains(*e))
            .collect()
    }

    /// Whether `step` satisfies every constraint in the current state.
    #[must_use]
    pub fn accepts(&self, step: &Step) -> bool {
        self.constraints
            .iter()
            .all(|c| c.current_formula().eval(step))
    }

    /// Fires `step`: advances every constraint's state.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::StepRejected`] (from the first rejecting
    /// constraint) if `step` is not acceptable; in that case constraints
    /// already advanced are *not* rolled back, so callers should check
    /// [`accepts`](Specification::accepts) first or treat the
    /// specification as poisoned on error.
    pub fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        for c in &mut self.constraints {
            c.fire(step)?;
        }
        Ok(())
    }

    /// Snapshot of the global state: concatenation of every constraint's
    /// state key, prefixed by its length for unambiguous restoration.
    #[must_use]
    pub fn state_key(&self) -> StateKey {
        let mut key = StateKey::new();
        for c in &self.constraints {
            let k = c.state_key();
            key.push(i64::try_from(k.len()).expect("state key length fits i64"));
            key.extend_from(&k);
        }
        key
    }

    /// Restores a global state produced by
    /// [`state_key`](Specification::state_key).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if the key does not match
    /// the current constraint population.
    pub fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        self.restore_where(key, |_, _| true)
    }

    /// Restores a global state like [`restore`](Specification::restore),
    /// but winds back only the constraints for which
    /// `needs_restore(index, local values)` returns `true`; the others
    /// are assumed to sit in that local state already. The key's shape
    /// is validated in full either way, and errors are reported exactly
    /// as [`restore`](Specification::restore) reports them.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if the key does not match
    /// the current constraint population; constraints before the bad
    /// one may already have been restored.
    pub fn restore_where(
        &mut self,
        key: &StateKey,
        mut needs_restore: impl FnMut(usize, &[i64]) -> bool,
    ) -> Result<(), KernelError> {
        let values = key.values();
        let mut cursor = 0usize;
        for (i, c) in self.constraints.iter_mut().enumerate() {
            let len = *values
                .get(cursor)
                .ok_or_else(|| KernelError::InvalidStateKey {
                    constraint: c.name().to_owned(),
                    reason: "global key too short".to_owned(),
                })?;
            cursor += 1;
            let len = usize::try_from(len).map_err(|_| KernelError::InvalidStateKey {
                constraint: c.name().to_owned(),
                reason: "negative length prefix".to_owned(),
            })?;
            let end = cursor + len;
            let slice = values
                .get(cursor..end)
                .ok_or_else(|| KernelError::InvalidStateKey {
                    constraint: c.name().to_owned(),
                    reason: "global key too short".to_owned(),
                })?;
            if needs_restore(i, slice) {
                c.restore(&StateKey::from_values(slice.iter().copied()))?;
            }
            cursor = end;
        }
        if cursor != values.len() {
            return Err(KernelError::InvalidStateKey {
                constraint: self.name.clone(),
                reason: "trailing values in global key".to_owned(),
            });
        }
        Ok(())
    }

    /// Resets every constraint to its initial state.
    pub fn reset(&mut self) {
        for c in &mut self.constraints {
            c.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal stateful test constraint: allows `e` only `budget` times.
    #[derive(Debug, Clone)]
    struct Budget {
        name: String,
        event: EventId,
        budget: i64,
        used: i64,
    }

    impl Constraint for Budget {
        fn name(&self) -> &str {
            &self.name
        }
        fn constrained_events(&self) -> Vec<EventId> {
            vec![self.event]
        }
        fn current_formula(&self) -> StepFormula {
            if self.used < self.budget {
                StepFormula::True
            } else {
                StepFormula::not(StepFormula::event(self.event))
            }
        }
        fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
            if !self.current_formula().eval(step) {
                return Err(KernelError::StepRejected {
                    constraint: self.name.clone(),
                    step: step.to_string(),
                });
            }
            if step.contains(self.event) {
                self.used += 1;
            }
            Ok(())
        }
        fn state_key(&self) -> StateKey {
            StateKey::from_values([self.used])
        }
        fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
            match key.values() {
                [used] => {
                    self.used = *used;
                    Ok(())
                }
                _ => Err(KernelError::InvalidStateKey {
                    constraint: self.name.clone(),
                    reason: "expected one value".to_owned(),
                }),
            }
        }
        fn reset(&mut self) {
            self.used = 0;
        }
        fn boxed_clone(&self) -> Box<dyn Constraint> {
            Box::new(self.clone())
        }
    }

    fn spec_with_budget(budget: i64) -> (Specification, EventId) {
        let mut u = Universe::new();
        let e = u.event("e");
        u.event("free");
        let mut spec = Specification::new("test", u);
        spec.add_constraint(Box::new(Budget {
            name: "budget".into(),
            event: e,
            budget,
            used: 0,
        }));
        (spec, e)
    }

    #[test]
    fn accepts_and_fire_advance_state() {
        let (mut spec, e) = spec_with_budget(1);
        let step = Step::from_events([e]);
        assert!(spec.accepts(&step));
        spec.fire(&step).expect("accepted step fires");
        assert!(!spec.accepts(&step));
        assert!(spec.fire(&step).is_err());
    }

    #[test]
    fn free_events_are_reported() {
        let (spec, e) = spec_with_budget(1);
        let free = spec.free_events();
        assert_eq!(free.len(), 1);
        assert!(!free.contains(&e));
    }

    #[test]
    fn state_key_round_trip() {
        let (mut spec, e) = spec_with_budget(2);
        let initial = spec.state_key();
        spec.fire(&Step::from_events([e])).expect("fires");
        let advanced = spec.state_key();
        assert_ne!(initial, advanced);
        spec.restore(&initial).expect("restores");
        assert_eq!(spec.state_key(), initial);
        spec.restore(&advanced).expect("restores");
        assert_eq!(spec.state_key(), advanced);
    }

    #[test]
    fn restore_where_skips_the_constraints_it_is_told_to() {
        let (mut spec, e) = spec_with_budget(2);
        let initial = spec.state_key();
        spec.fire(&Step::from_events([e])).expect("fires");
        let advanced = spec.state_key();
        let mut asked = Vec::new();
        spec.restore_where(&initial, |i, local| {
            asked.push((i, local.to_vec()));
            false
        })
        .expect("well-formed key");
        assert_eq!(asked, vec![(0, vec![0])]);
        assert_eq!(spec.state_key(), advanced, "nothing was wound back");
        spec.restore_where(&initial, |_, _| true).expect("restores");
        assert_eq!(spec.state_key(), initial);
        // the shape is still checked for skipped constraints
        assert!(spec.restore_where(&StateKey::new(), |_, _| false).is_err());
    }

    #[test]
    fn restore_rejects_malformed_keys() {
        let (mut spec, _) = spec_with_budget(2);
        assert!(spec.restore(&StateKey::new()).is_err());
        assert!(spec.restore(&StateKey::from_values([1, 0, 99])).is_err());
    }

    #[test]
    fn constraint_mut_drives_one_constraint() {
        let (mut spec, e) = spec_with_budget(1);
        let initial = spec.state_key();
        let c = spec.constraint_mut(0);
        c.fire(&Step::from_events([e])).expect("fires");
        let local = c.state_key();
        assert_eq!(spec.constraint_state_keys(), vec![local]);
        assert_ne!(spec.state_key(), initial);
    }

    #[test]
    fn reset_returns_to_initial() {
        let (mut spec, e) = spec_with_budget(1);
        let initial = spec.state_key();
        spec.fire(&Step::from_events([e])).expect("fires");
        spec.reset();
        assert_eq!(spec.state_key(), initial);
    }

    #[test]
    fn conjunction_simplifies() {
        let (spec, _) = spec_with_budget(1);
        // one constraint currently allowing everything ⇒ True
        assert_eq!(spec.conjunction(), StepFormula::True);
    }
}
