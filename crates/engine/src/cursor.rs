//! [`Cursor`]: the mutable per-worker half of a compiled
//! specification.
//!
//! A cursor owns exactly the state one execution needs — a clone of
//! the constraint vector plus, per constraint, the currently selected
//! lowered formula — and borrows everything immutable (event interning,
//! footprints, the solver's search plan, the formula memo) from its
//! [`Program`](crate::Program). Cursors are therefore cheap to create
//! and fully independent: the parallel explorer hands one to every
//! worker thread, and all of them share every formula-lowering cache
//! hit through the program's sharded memo.
//!
//! Each cursor keeps a small L1 cache in front of the shared memo
//! (one map per constraint), so a `(constraint, state)` pair locks a
//! memo shard only the first time *this cursor* meets it — re-visits,
//! the overwhelmingly common case in breadth-first exploration, are
//! lock-free.
//!
//! [`Cursor::expand`] generates successors *touched-only*: it restores
//! the expanded state once, then per step looks at just the constraints
//! whose footprint meets the step (every other constraint stutters, by
//! the [`Constraint`](moccml_kernel::Constraint) contract) and splices
//! their new local keys into the parent key. Those keys come from the
//! successor rows of the constraints' memo entries (described in the
//! `solver` module), indexed by the step's projection onto each
//! footprint. Only the first expansion program-wide that needs a
//! row fires the real constraint, checks the step against it, and
//! restores it from its slot. It leaves the cursor at the expanded
//! state.
//!
//! [`Cursor::restore`] winds back only the constraints whose local
//! slice of the key differs from their slot, so restoring a neighbour
//! of the current state touches one or two constraints, not all.

use crate::explorer::{explore_program, ExploreOptions, StateSpace};
use crate::program::Program;
use crate::solver::{enumerate_steps, Lowered, SolverOptions};
use moccml_kernel::{EventId, KernelError, Specification, StateKey, Step};
use std::collections::HashMap;
use std::sync::Arc;

/// One constraint's run state inside a cursor: its local state key and
/// the cursor-local L1 cache over the program's shared memo. The
/// formula selected for that state lives in [`Cursor::formulas`], so
/// the solver reads one contiguous slice.
#[derive(Debug, Clone)]
struct Slot {
    key: StateKey,
    l1: HashMap<StateKey, Arc<Lowered>>,
}

/// A mutable execution position over a compiled [`Program`].
///
/// Created by [`Program::cursor`]; driven through
/// [`acceptable_steps`](Cursor::acceptable_steps),
/// [`fire`](Cursor::fire), [`state_key`](Cursor::state_key) /
/// [`restore`](Cursor::restore) and [`explore`](Cursor::explore) —
/// the same step protocol as the constraints themselves.
///
/// # Example
///
/// ```
/// use moccml_ccsl::Alternation;
/// use moccml_engine::{Program, SolverOptions};
/// use moccml_kernel::{Specification, Universe};
///
/// let mut u = Universe::new();
/// let (a, b) = (u.event("a"), u.event("b"));
/// let mut spec = Specification::new("alt", u);
/// spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
///
/// let program = Program::new(spec);
/// let mut cursor = program.cursor();
/// let snapshot = cursor.state_key();
/// let steps = cursor.acceptable_steps(&SolverOptions::default());
/// cursor.fire(&steps[0]).expect("acceptable");
/// cursor.restore(&snapshot).expect("own snapshot restores");
/// assert_eq!(cursor.acceptable_steps(&SolverOptions::default()), steps);
/// ```
#[derive(Debug, Clone)]
pub struct Cursor {
    program: Arc<Program>,
    spec: Specification,
    slots: Vec<Slot>,
    /// Per constraint, the memoised formula of its current state.
    formulas: Vec<Arc<Lowered>>,
    /// Scratch list of the constraints a [`restore`](Cursor::restore)
    /// wound back.
    dirty: Vec<usize>,
    memo_hits: u64,
    memo_misses: u64,
}

impl Cursor {
    pub(crate) fn new(program: Arc<Program>) -> Self {
        let spec = program.specification().clone();
        let (slots, formulas) = program
            .initial_slots()
            .iter()
            .map(|(key, formula)| {
                let slot = Slot {
                    key: key.clone(),
                    l1: HashMap::from([(key.clone(), Arc::clone(formula))]),
                };
                (slot, Arc::clone(formula))
            })
            .unzip();
        Cursor {
            program,
            spec,
            slots,
            formulas,
            dirty: Vec::new(),
            memo_hits: 0,
            memo_misses: 0,
        }
    }

    /// L1 cache hits across all slot refreshes: `(constraint, state)`
    /// pairs this cursor had already met, resolved without touching
    /// the program's shared memo. Plain per-cursor tallies — no
    /// atomics — read by the explorer's memo-hit-rate counters.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// L1 cache misses: refreshes that went to the shared memo (and
    /// possibly lowered a formula program-wide first).
    #[must_use]
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// The program this cursor executes.
    #[must_use]
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Read access to this cursor's specification (in its *current*
    /// state — unlike [`Program::specification`], which stays at the
    /// compile-time state).
    #[must_use]
    pub fn specification(&self) -> &Specification {
        &self.spec
    }

    /// Recovers the specification (in its current state).
    #[must_use]
    pub fn into_specification(self) -> Specification {
        self.spec
    }

    /// Enumerates every acceptable step in the current state, using the
    /// cached per-constraint formulas (no lowering on this path). The
    /// result is sorted by the `Ord` on [`Step`].
    #[must_use]
    pub fn acceptable_steps(&self, options: &SolverOptions) -> Vec<Step> {
        enumerate_steps(&self.formulas, self.program.plan(), options)
    }

    /// Whether `step` satisfies every constraint in the current state —
    /// evaluated on the cached formulas, without lowering.
    #[must_use]
    pub fn accepts(&self, step: &Step) -> bool {
        self.formulas.iter().all(|f| f.formula.eval(step))
    }

    /// Names of the constraints whose current formula rejects `step`,
    /// in constraint order — empty iff [`accepts`](Cursor::accepts).
    /// The conformance checker's diagnostic: *which* constraints a
    /// recorded schedule violates at a step, not just that one does.
    #[must_use]
    pub fn violated_constraints(&self, step: &Step) -> Vec<String> {
        self.formulas
            .iter()
            .zip(self.spec.constraints())
            .filter(|(f, _)| !f.formula.eval(step))
            .map(|(_, c)| c.name().to_owned())
            .collect()
    }

    /// Enumerates every acceptable step over an explicit `events` list
    /// instead of the program's own constrained-event list. Events in
    /// `events` that no constraint of *this* program mentions are free
    /// (they may occur or not in any step); events outside `events`
    /// never occur. The synchronized-product equivalence checker uses
    /// this to compare two programs over the *union* of their
    /// constrained events. Sorted by the `Ord` on [`Step`].
    #[must_use]
    pub fn acceptable_steps_over(&self, events: &[EventId], options: &SolverOptions) -> Vec<Step> {
        enumerate_steps(&self.formulas, &self.program.plan_over(events), options)
    }

    /// Fires `step` and refreshes the slots of the constraints whose
    /// event footprints intersect it (the stuttering guarantee of the
    /// [`Constraint`](moccml_kernel::Constraint) protocol: a step that
    /// touches none of a constraint's events leaves its state
    /// unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::StepRejected`] if `step` is not
    /// acceptable; like [`Specification::fire`], the underlying state
    /// is then poisoned and the caller should [`reset`](Cursor::reset)
    /// or [`restore`](Cursor::restore).
    pub fn fire(&mut self, step: &Step) -> Result<(), KernelError> {
        if let Err(e) = self.spec.fire(step) {
            // some constraints may have advanced: keep the slots honest
            // so a later `restore` knows which ones to wind back
            self.resync();
            return Err(e);
        }
        for i in 0..self.slots.len() {
            if !self.program.footprints()[i].is_disjoint_from(step) {
                self.refresh(i);
            }
        }
        Ok(())
    }

    /// Snapshot of the global constraint state (delegates to
    /// [`Specification::state_key`]).
    #[must_use]
    pub fn state_key(&self) -> StateKey {
        self.spec.state_key()
    }

    /// Restores a state produced by [`state_key`](Cursor::state_key).
    /// Only the constraints whose local slice of `key` differs from
    /// their slot's key are wound back and re-synced; the others
    /// already sit in that state. Previously visited states hit the
    /// cursor's L1 cache (or, first time, the program memo), so winding
    /// exploration back and forth does not re-lower anything.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if the key does not
    /// match the constraint population.
    pub fn restore(&mut self, key: &StateKey) -> Result<(), KernelError> {
        let Cursor {
            spec, slots, dirty, ..
        } = self;
        dirty.clear();
        let restored = spec.restore_where(key, |i, local| {
            let changed = local != slots[i].key.values();
            if changed {
                dirty.push(i);
            }
            changed
        });
        if let Err(e) = restored {
            self.resync();
            return Err(e);
        }
        for k in 0..self.dirty.len() {
            self.refresh(self.dirty[k]);
        }
        Ok(())
    }

    /// Resets every constraint to its initial state.
    pub fn reset(&mut self) {
        self.spec.reset();
        self.resync();
    }

    /// Explores the reachable scheduling state-space from the cursor's
    /// *current* state. The cursor itself is untouched — exploration
    /// runs on its own worker cursors. See the
    /// [`explorer`](crate::StateSpace) docs for the graph's semantics
    /// and the determinism guarantee.
    #[must_use]
    pub fn explore(&self, options: &ExploreOptions) -> StateSpace {
        explore_program(&self.program, self.state_key(), options, &mut ())
    }

    /// [`explore`](Cursor::explore) with a streaming
    /// [`ExploreVisitor`](crate::ExploreVisitor) — see
    /// [`Program::explore_with`].
    #[must_use]
    pub fn explore_with(
        &self,
        options: &ExploreOptions,
        visitor: &mut dyn crate::ExploreVisitor,
    ) -> StateSpace {
        explore_program(&self.program, self.state_key(), options, visitor)
    }

    /// Expands one state: restores `key`, enumerates its acceptable
    /// steps under `solver`, and learns each step's successor key.
    /// Steps come back in canonical ([`Step`] `Ord`) order, which is
    /// what the explorer's determinism contract rests on. Each
    /// successor key equals what [`restore`](Cursor::restore) +
    /// [`fire`](Cursor::fire) + [`state_key`](Cursor::state_key) would
    /// give. Only the constraints whose footprint meets the step move
    /// (every other constraint stutters, by the
    /// [`Constraint`](moccml_kernel::Constraint) contract), and their
    /// new local keys come from the successor rows of their memoised
    /// entries, spliced into the parent key. A row is filled on its
    /// program-wide first use by firing the real constraint and
    /// restoring it from the slot. The cursor is left at `key`.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::InvalidStateKey`] if `key` does not match
    /// the constraint population.
    pub fn expand(
        &mut self,
        key: &StateKey,
        solver: &SolverOptions,
    ) -> Result<StateExpansion, KernelError> {
        self.restore(key)?;
        let steps = self.acceptable_steps(solver);
        // the parent key, rebuilt from the slots so it is exactly what
        // `state_key` reports, and where each local key starts in it
        let mut parent = Vec::with_capacity(key.len());
        let mut starts = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            parent.push(length_prefix(&slot.key));
            starts.push(parent.len());
            parent.extend_from_slice(slot.key.values());
        }
        let Cursor {
            program,
            spec,
            slots,
            formulas,
            ..
        } = self;
        let footprint_events = program.footprint_events();
        let mut succs = Vec::with_capacity(steps.len());
        for step in steps {
            let mut succ = Vec::with_capacity(parent.len());
            let mut copied = 0;
            for (i, footprint) in program.footprints().iter().enumerate() {
                if footprint.is_disjoint_from(&step) {
                    continue;
                }
                let slot = &slots[i].key;
                let fire = || {
                    let c = spec.constraint_mut(i);
                    c.fire(&step).expect("solver returns acceptable steps");
                    let local = c.state_key();
                    c.restore(slot).expect("a constraint restores its own key");
                    local
                };
                formulas[i].successor(&footprint_events[i], &step, fire, |local| {
                    succ.extend_from_slice(&parent[copied..starts[i] - 1]);
                    succ.push(length_prefix(local));
                    succ.extend_from_slice(local.values());
                });
                copied = starts[i] + slot.len();
            }
            succ.extend_from_slice(&parent[copied..]);
            // exact length: the explorer's arena keeps the key as is
            succ.shrink_to_fit();
            succs.push((step, StateKey::from_values(succ)));
        }
        Ok(StateExpansion {
            state: key.clone(),
            steps: succs,
        })
    }

    /// [`expand`](Cursor::expand) over a batch of states — the bulk
    /// API the explorer's workers drain their deques through. One
    /// expansion per key, in input order.
    ///
    /// # Errors
    ///
    /// Returns the first [`KernelError::InvalidStateKey`] encountered;
    /// earlier expansions are discarded.
    pub fn expand_batch<'k>(
        &mut self,
        keys: impl IntoIterator<Item = &'k StateKey>,
        solver: &SolverOptions,
    ) -> Result<Vec<StateExpansion>, KernelError> {
        keys.into_iter()
            .map(|key| self.expand(key, solver))
            .collect()
    }

    /// Re-syncs every slot against the constraint's actual local state.
    fn resync(&mut self) {
        for i in 0..self.slots.len() {
            self.refresh(i);
        }
    }

    /// Brings slot `index` up to date with its constraint's current
    /// state, lowering the formula only on the program-wide first visit
    /// of that state, and tallies an L1 hit or miss (nothing when the
    /// slot was already current).
    fn refresh(&mut self, index: usize) {
        let c = self.spec.constraints()[index].as_ref();
        let key = c.state_key();
        let slot = &mut self.slots[index];
        if key == slot.key {
            return;
        }
        self.formulas[index] = if let Some(f) = slot.l1.get(&key) {
            self.memo_hits += 1;
            Arc::clone(f)
        } else {
            self.memo_misses += 1;
            let f = self.program.lowered(index, &key, c);
            slot.l1.insert(key.clone(), Arc::clone(&f));
            f
        };
        slot.key = key;
    }
}

/// The length prefix [`Specification::state_key`] puts before each
/// local key.
fn length_prefix(local: &StateKey) -> i64 {
    i64::try_from(local.len()).expect("state key length fits i64")
}

/// One state's outgoing behaviour, as produced by
/// [`Cursor::expand`]: the acceptable non-empty steps in canonical
/// ([`Step`] `Ord`) order, each paired with its successor state key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateExpansion {
    state: StateKey,
    steps: Vec<(Step, StateKey)>,
}

impl StateExpansion {
    /// The expanded state's key.
    #[must_use]
    pub fn state(&self) -> &StateKey {
        &self.state
    }

    /// The acceptable steps with their successor keys, in step order.
    #[must_use]
    pub fn steps(&self) -> &[(Step, StateKey)] {
        &self.steps
    }

    /// Consumes the expansion into its `(step, successor)` pairs.
    #[must_use]
    pub fn into_steps(self) -> Vec<(Step, StateKey)> {
        self.steps
    }

    /// Whether the state has no outgoing non-empty step.
    #[must_use]
    pub fn is_deadlock(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moccml_ccsl::{Alternation, Precedence, SubClock};
    use moccml_kernel::{EventId, Universe};

    fn alternating() -> (Specification, EventId, EventId) {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("alt", u);
        spec.add_constraint(Box::new(Alternation::new("a~b", a, b)));
        (spec, a, b)
    }

    #[test]
    fn matches_recompiled_solver_along_a_run() {
        let mut u = Universe::new();
        let (a, b, c) = (u.event("a"), u.event("b"), u.event("c"));
        let mut spec = Specification::new("mix", u);
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c).with_bound(2)));
        let mut cursor = Program::compile(&spec).cursor();
        let options = SolverOptions::default();
        for _ in 0..8 {
            let fast = cursor.acceptable_steps(&options);
            // the recompile-per-query baseline: lower everything afresh
            let slow = Program::compile(&spec).cursor().acceptable_steps(&options);
            assert_eq!(fast, slow);
            let Some(step) = fast.first().cloned() else {
                break;
            };
            cursor.fire(&step).expect("acceptable");
            spec.fire(&step).expect("acceptable");
        }
    }

    #[test]
    fn fire_refreshes_only_touched_slots() {
        let (spec, a, _) = alternating();
        let program = Program::new(spec);
        let mut cursor = program.cursor();
        assert_eq!(program.cached_formula_count(), 1);
        cursor.fire(&Step::from_events([a])).expect("fires");
        // the alternation moved to its second state: one new memo entry
        assert_eq!(program.cached_formula_count(), 2);
    }

    #[test]
    fn restore_hits_the_memo() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        let mut cursor = program.cursor();
        let start = cursor.state_key();
        cursor.fire(&Step::from_events([a])).expect("fires");
        cursor.fire(&Step::from_events([b])).expect("fires");
        let after_cycle = program.cached_formula_count();
        // wind back and forth: the memo must not grow
        for _ in 0..4 {
            cursor.restore(&start).expect("restores");
            cursor.fire(&Step::from_events([a])).expect("fires");
        }
        assert_eq!(program.cached_formula_count(), after_cycle);
    }

    #[test]
    fn memo_counters_track_l1_hits_and_misses() {
        let (spec, a, b) = alternating();
        let program = Program::new(spec);
        let mut cursor = program.cursor();
        assert_eq!((cursor.memo_hits(), cursor.memo_misses()), (0, 0));
        cursor.fire(&Step::from_events([a])).expect("fires");
        // first visit of the post-`a` state: the L1 misses
        assert_eq!(cursor.memo_misses(), 1);
        cursor.fire(&Step::from_events([b])).expect("fires");
        // back to the initial state, which seeded the L1
        assert_eq!(cursor.memo_hits(), 1);
    }

    #[test]
    fn restore_after_a_rejected_fire_winds_every_constraint_back() {
        let mut u = Universe::new();
        let (a, b) = (u.event("a"), u.event("b"));
        let mut spec = Specification::new("two", u);
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        spec.add_constraint(Box::new(Alternation::new("b~a", b, a)));
        let mut cursor = Program::new(spec).cursor();
        let start = cursor.state_key();
        // the precedence advances, then the alternation rejects `{a}`
        assert!(cursor.fire(&Step::from_events([a])).is_err());
        assert_ne!(cursor.state_key(), start, "the cursor is poisoned");
        cursor.restore(&start).expect("own key");
        assert_eq!(cursor.state_key(), start);
        let fresh = cursor.program().cursor();
        let options = SolverOptions::default();
        assert_eq!(
            cursor.acceptable_steps(&options),
            fresh.acceptable_steps(&options)
        );
    }

    #[test]
    fn reset_returns_to_initial_answers() {
        let (spec, a, _) = alternating();
        let mut cursor = Program::new(spec).cursor();
        let options = SolverOptions::default();
        let initial = cursor.acceptable_steps(&options);
        cursor.fire(&Step::from_events([a])).expect("fires");
        assert_ne!(cursor.acceptable_steps(&options), initial);
        cursor.reset();
        assert_eq!(cursor.acceptable_steps(&options), initial);
    }

    #[test]
    fn accepts_agrees_with_enumeration() {
        let (spec, a, b) = alternating();
        let cursor = Program::new(spec).cursor();
        assert!(cursor.accepts(&Step::from_events([a])));
        assert!(!cursor.accepts(&Step::from_events([b])));
        assert!(cursor.accepts(&Step::new()), "stuttering is acceptable");
    }

    #[test]
    fn into_specification_round_trips_state() {
        let (spec, a, _) = alternating();
        let mut cursor = Program::new(spec).cursor();
        cursor.fire(&Step::from_events([a])).expect("fires");
        let key = cursor.state_key();
        let spec = cursor.into_specification();
        assert_eq!(spec.state_key(), key);
    }

    #[test]
    fn cloned_cursor_diverges_without_affecting_the_original() {
        let (spec, a, _) = alternating();
        let mut original = Program::new(spec).cursor();
        let before = original.state_key();
        let mut clone = original.clone();
        clone.fire(&Step::from_events([a])).expect("fires");
        assert_eq!(original.state_key(), before);
        assert_ne!(clone.state_key(), before);
        // both still answer correctly
        original.fire(&Step::from_events([a])).expect("fires");
        assert_eq!(original.state_key(), clone.state_key());
    }
}
