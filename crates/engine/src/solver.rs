//! The step solver: enumerating the acceptable steps of a configuration.
//!
//! Sec. II-C of the paper: with `n` events and no constraints there are
//! `2^n` possible steps; every constraint conjoins a boolean expression
//! that shrinks the set. The solver enumerates the models of the
//! conjunction over the *constrained* events (free events never appear
//! in any formula; each would merely double every answer, so they are
//! reported separately by
//! [`Specification::free_events`](moccml_kernel::Specification::free_events)).
//!
//! The conjunction is represented as a *slice of per-constraint
//! formulas* rather than one materialised `And` node: that is what lets
//! a [`Program`](crate::Program) cache each constraint's lowered
//! formula independently and hand the solver a
//! [`Cursor`](crate::Cursor)'s cached slice with zero per-query
//! lowering work.
//!
//! # Truth-table search
//!
//! A constraint's footprint is usually tiny (two or three events), so
//! every memoised `(constraint, local state)` formula whose footprint
//! has at most [`TABLE_WIDTH`] (6) events also carries a `u64` truth
//! table over that footprint: bit `r` of the table is the formula's
//! value on row `r`, where bit `j` of `r` says whether the footprint's
//! `j`-th event occurs. The table is built once per reached constraint
//! state, program-wide, next to the formula ([`Lowered`]).
//!
//! The search is a depth-first walk over the listed events. It keeps
//! one `rows` word per constraint: the table rows still consistent with
//! the assignment so far. Assigning an event ANDs a constant column
//! mask into the rows of only the constraints that mention it (the
//! static incidence of a [`SearchPlan`]), and a branch dies as soon as
//! some constraint has `rows & table == 0`. That pruning is exact per
//! constraint: a branch survives iff every constraint on its own still
//! has a model extending it.
//!
//! A constraint whose footprint is wider than [`TABLE_WIDTH`], or whose
//! formula mentions an event outside its footprint, has no table. It is
//! pruned by three-valued [`eval_partial`](StepFormula::eval_partial)
//! whenever one of its footprint events is assigned, and evaluated
//! exactly at every leaf.
//!
//! Events are assigned most significant first in the [`Step`] `Ord`
//! (ascending word, and within a word from the highest id down), absent
//! branch first, so the leaves come out already sorted.
//!
//! # Successor rows
//!
//! The same memo entry also keeps the constraint's local transitions.
//! By the projection rule of [`Constraint`](moccml_kernel::Constraint),
//! a constraint's next state depends only on its state and on the
//! step's projection onto its footprint. So an entry whose footprint has
//! at most [`TABLE_WIDTH`] events gets one successor row per projection,
//! numbered like the truth table's rows (at most 64); a wider footprint
//! gets one map keyed by the projection. The rows are allocated on the
//! first [`Cursor::expand`](crate::Cursor::expand) that needs them and
//! each row is filled once, program-wide, by firing the real constraint.
//! Callers that only [`fire`](crate::Cursor::fire) never allocate them.

use moccml_kernel::{EventId, StateKey, Step, StepFormula, Ternary};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Options controlling the step enumeration.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Include the empty (stuttering) step in the result. Defaults to
    /// `false`: simulation and exploration treat "nothing happens" as a
    /// non-step, and its acceptance is an invariant anyway.
    pub include_empty: bool,
    /// Prune the search with the per-constraint truth tables (default).
    /// `false` selects the naive `2^n` enumeration — kept only for the
    /// B3 ablation benchmark and as the test oracle.
    pub prune: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            include_empty: false,
            prune: true,
        }
    }
}

impl SolverOptions {
    /// Options selecting the naive (unpruned) enumeration.
    #[must_use]
    pub fn naive() -> Self {
        SolverOptions {
            include_empty: false,
            prune: false,
        }
    }

    /// Builder-style toggle for including the empty step.
    #[must_use]
    pub fn with_empty(mut self, include: bool) -> Self {
        self.include_empty = include;
        self
    }
}

/// Widest footprint, in events, that gets a truth table: `2^6` rows
/// fill one `u64`.
pub(crate) const TABLE_WIDTH: usize = 6;

/// `COLUMNS[v][j]`: the rows of a 6-column table in which column `j`
/// has value `v`.
const COLUMNS: [[u64; TABLE_WIDTH]; 2] = {
    let present = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    let mut absent = [0; TABLE_WIDTH];
    let mut j = 0;
    while j < TABLE_WIDTH {
        absent[j] = !present[j];
        j += 1;
    }
    [absent, present]
};

/// Every row of a table over `width ≤ TABLE_WIDTH` columns.
fn all_rows(width: usize) -> u64 {
    if width >= TABLE_WIDTH {
        u64::MAX
    } else {
        (1 << (1 << width)) - 1
    }
}

/// One memoised `(constraint, local state)` entry: the lowered formula;
/// when the constraint's footprint has at most [`TABLE_WIDTH`] events
/// and the formula mentions no other event, its truth table over the
/// footprint (see the [module docs](self)); and the successor rows
/// [`Cursor::expand`](crate::Cursor::expand) fills in.
#[derive(Debug)]
pub(crate) struct Lowered {
    pub(crate) formula: StepFormula,
    pub(crate) table: Option<u64>,
    /// Allocated on the first [`successor`](Lowered::successor) query,
    /// so programs that only fire steps never pay for it.
    successors: OnceLock<Successors>,
}

/// The memoised local transitions out of one `(constraint, local
/// state)` entry: the successor local key per projection of a step onto
/// the constraint's footprint. By the projection rule of
/// [`Constraint`](moccml_kernel::Constraint), that projection and the
/// local state determine the successor.
#[derive(Debug)]
enum Successors {
    /// Footprints of at most [`TABLE_WIDTH`] events: one row per
    /// projection, numbered like the truth table's rows.
    Rows(Box<[OnceLock<StateKey>]>),
    /// Wider footprints: keyed by the projection itself. A row is
    /// filled outside the map lock, and still only once.
    Wide(RwLock<HashMap<Step, Arc<OnceLock<StateKey>>>>),
}

impl Lowered {
    /// Tabulates `formula` over `footprint` (ascending event ids) when
    /// it is small enough.
    pub(crate) fn new(formula: StepFormula, footprint: &[EventId]) -> Self {
        let table = if footprint.len() <= TABLE_WIDTH {
            tabulate(&formula, footprint).map(|table| table & all_rows(footprint.len()))
        } else {
            None
        };
        Lowered {
            formula,
            table,
            successors: OnceLock::new(),
        }
    }

    /// Hands `splice` the local key this constraint moves to when
    /// `step` fires in this entry's state. `footprint` is the
    /// constraint's footprint in ascending order. On the program-wide
    /// first query for the step's projection, `fire` computes the key
    /// (by firing the real constraint) and the answer is kept.
    pub(crate) fn successor<R>(
        &self,
        footprint: &[EventId],
        step: &Step,
        fire: impl FnOnce() -> StateKey,
        splice: impl FnOnce(&StateKey) -> R,
    ) -> R {
        let successors = self.successors.get_or_init(|| {
            if footprint.len() <= TABLE_WIDTH {
                Successors::Rows((0..1 << footprint.len()).map(|_| OnceLock::new()).collect())
            } else {
                Successors::Wide(RwLock::default())
            }
        });
        match successors {
            Successors::Rows(rows) => {
                let row = footprint
                    .iter()
                    .enumerate()
                    .filter(|(_, &e)| step.contains(e))
                    .fold(0, |row, (j, _)| row | 1 << j);
                splice(rows[row].get_or_init(fire))
            }
            Successors::Wide(map) => {
                let projection =
                    Step::from_events(footprint.iter().copied().filter(|&e| step.contains(e)));
                let known = map
                    .read()
                    .expect("successor map lock")
                    .get(&projection)
                    .cloned();
                let row = known.unwrap_or_else(|| {
                    let mut map = map.write().expect("successor map lock");
                    Arc::clone(map.entry(projection).or_default())
                });
                splice(row.get_or_init(fire))
            }
        }
    }
}

/// Evaluates `formula` on all 64 rows of a table over `footprint` at
/// once, one bitwise operation per node; `None` if the formula mentions
/// an event outside the footprint.
fn tabulate(formula: &StepFormula, footprint: &[EventId]) -> Option<u64> {
    Some(match formula {
        StepFormula::True => u64::MAX,
        StepFormula::False => 0,
        StepFormula::Event(e) => COLUMNS[1][footprint.iter().position(|f| f == e)?],
        StepFormula::Not(f) => !tabulate(f, footprint)?,
        StepFormula::And(fs) => fs
            .iter()
            .try_fold(u64::MAX, |table, f| Some(table & tabulate(f, footprint)?))?,
        StepFormula::Or(fs) => fs
            .iter()
            .try_fold(0, |table, f| Some(table | tabulate(f, footprint)?))?,
    })
}

/// The static half of a search: the listed events in assignment order
/// and, per event, the constraints whose footprint mentions it.
/// [`Program`](crate::Program) builds one over its constrained events
/// at compile time; `acceptable_steps_over` builds one per call.
#[derive(Debug)]
pub(crate) struct SearchPlan {
    /// The listed events, most significant in the [`Step`] `Ord` first.
    order: Vec<EventId>,
    /// `incidence[starts[d]..starts[d + 1]]`: the constraints mentioning
    /// `order[d]`, each with the event's table column (meaningless for
    /// constraints wider than [`TABLE_WIDTH`], which have no table).
    starts: Vec<usize>,
    incidence: Vec<(usize, u8)>,
    /// Per constraint, the rows in which every footprint event that is
    /// *not* listed is absent: unlisted events never occur.
    rows: Vec<u64>,
}

impl SearchPlan {
    /// Plans a search over `events` for constraints with the given
    /// footprints (each in ascending event order).
    pub(crate) fn new(events: &[EventId], footprints: &[Vec<EventId>]) -> Self {
        let mut order = events.to_vec();
        order.sort_by_key(|e| (e.index() / 64, Reverse(e.index() % 64)));
        order.dedup();
        // event index → depth, for the listed events
        let mut depth = vec![usize::MAX; order.iter().map(|e| e.index() + 1).max().unwrap_or(0)];
        for (d, e) in order.iter().enumerate() {
            depth[e.index()] = d;
        }
        let depth_of = |e: &EventId| depth.get(e.index()).copied().filter(|&d| d != usize::MAX);
        // bucket the (constraint, column) pairs by depth: count, then fill
        let mut starts = vec![0; order.len() + 1];
        for e in footprints.iter().flatten() {
            if let Some(d) = depth_of(e) {
                starts[d + 1] += 1;
            }
        }
        for d in 0..order.len() {
            starts[d + 1] += starts[d];
        }
        let mut next = starts.clone();
        let mut incidence = vec![(0, 0); starts[order.len()]];
        let mut rows = Vec::with_capacity(footprints.len());
        for (c, footprint) in footprints.iter().enumerate() {
            let tabulable = footprint.len() <= TABLE_WIDTH;
            let mut consistent = all_rows(footprint.len());
            for (column, e) in footprint.iter().enumerate() {
                let column = if tabulable { column } else { 0 };
                match depth_of(e) {
                    Some(d) => {
                        incidence[next[d]] = (c, column as u8);
                        next[d] += 1;
                    }
                    None if tabulable => consistent &= COLUMNS[0][column],
                    None => {}
                }
            }
            rows.push(consistent);
        }
        SearchPlan {
            order,
            starts,
            incidence,
            rows,
        }
    }

    fn incidence(&self, depth: usize) -> &[(usize, u8)] {
        &self.incidence[self.starts[depth]..self.starts[depth + 1]]
    }
}

/// Enumerates the models of the conjunction of `formulas` (one per
/// constraint, parallel to the plan's footprints) over the plan's
/// events. The result is sorted by the `Ord` on [`Step`].
pub(crate) fn enumerate_steps(
    formulas: &[Arc<Lowered>],
    plan: &SearchPlan,
    options: &SolverOptions,
) -> Vec<Step> {
    let mut out = Vec::new();
    if options.prune {
        TableSearch::new(formulas, plan, options.include_empty, &mut out).run();
    } else {
        naive_search(formulas, &plan.order, &mut out);
        if !options.include_empty {
            out.retain(|s| !s.is_empty());
        }
        out.sort();
    }
    out
}

/// The run state of one truth-table search.
struct TableSearch<'a> {
    formulas: &'a [Arc<Lowered>],
    plan: &'a SearchPlan,
    include_empty: bool,
    /// Per constraint: the table rows consistent with the assignment.
    rows: Vec<u64>,
    /// `(constraint, rows before)` for every narrowing, popped on
    /// backtrack.
    undo: Vec<(usize, u64)>,
    /// The events assigned present so far; cloned at each leaf.
    value: Step,
    /// Constraints without a table in this state. While any exists the
    /// search also tracks the `assigned` events, for
    /// [`eval_partial`](StepFormula::eval_partial).
    untabled: Vec<usize>,
    assigned: Step,
    out: &'a mut Vec<Step>,
}

impl<'a> TableSearch<'a> {
    fn new(
        formulas: &'a [Arc<Lowered>],
        plan: &'a SearchPlan,
        include_empty: bool,
        out: &'a mut Vec<Step>,
    ) -> Self {
        TableSearch {
            formulas,
            plan,
            include_empty,
            rows: plan.rows.clone(),
            undo: Vec::with_capacity(plan.incidence.len()),
            value: Step::new(),
            untabled: (0..formulas.len())
                .filter(|&c| formulas[c].table.is_none())
                .collect(),
            assigned: Step::new(),
            out,
        }
    }

    fn run(mut self) {
        let satisfiable = self
            .formulas
            .iter()
            .zip(&self.rows)
            .all(|(f, &rows)| f.table.is_none_or(|table| rows & table != 0));
        if satisfiable {
            self.descend(0);
        }
    }

    fn descend(&mut self, depth: usize) {
        let Some(&event) = self.plan.order.get(depth) else {
            self.leaf();
            return;
        };
        let plan = self.plan;
        let incidence = plan.incidence(depth);
        let partial = !self.untabled.is_empty();
        if partial {
            self.assigned.insert(event);
        }
        self.branch(depth, incidence, false);
        self.value.insert(event);
        self.branch(depth, incidence, true);
        self.value.remove(event);
        if partial {
            self.assigned.remove(event);
        }
    }

    /// Explores the subtree below `depth` with its event set to
    /// `present`, unless that already refutes a constraint.
    fn branch(&mut self, depth: usize, incidence: &[(usize, u8)], present: bool) {
        let mark = self.undo.len();
        if self.narrow(incidence, present)
            && (self.untabled.is_empty() || self.partially_holds(incidence))
        {
            self.descend(depth + 1);
        }
        for &(c, rows) in self.undo[mark..].iter().rev() {
            self.rows[c] = rows;
        }
        self.undo.truncate(mark);
    }

    /// Narrows the rows of the tabled constraints in `incidence` to the
    /// event's value; `false` as soon as one has no model left.
    fn narrow(&mut self, incidence: &[(usize, u8)], present: bool) -> bool {
        let columns = &COLUMNS[usize::from(present)];
        for &(c, column) in incidence {
            let Some(table) = self.formulas[c].table else {
                continue;
            };
            let before = self.rows[c];
            let rows = before & columns[usize::from(column)];
            self.undo.push((c, before));
            self.rows[c] = rows;
            if rows & table == 0 {
                return false;
            }
        }
        true
    }

    /// Whether no untabled constraint in `incidence` is already refuted.
    fn partially_holds(&self, incidence: &[(usize, u8)]) -> bool {
        incidence.iter().all(|&(c, _)| {
            let f = &self.formulas[c];
            f.table.is_some()
                || f.formula.eval_partial(&self.assigned, &self.value) != Ternary::False
        })
    }

    fn leaf(&mut self) {
        if (self.include_empty || !self.value.is_empty())
            && self
                .untabled
                .iter()
                .all(|&c| self.formulas[c].formula.eval(&self.value))
        {
            self.out.push(self.value.clone());
        }
    }
}

fn naive_search(formulas: &[Arc<Lowered>], events: &[EventId], out: &mut Vec<Step>) {
    let n = events.len();
    assert!(n < 26, "naive enumeration is capped at 2^26 candidates");
    for mask in 0u64..(1u64 << n) {
        let step: Step = events
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        if formulas.iter().all(|f| f.formula.eval(&step)) {
            out.push(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use moccml_ccsl::{Coincidence, Exclusion, Precedence, SubClock};
    use moccml_kernel::{Specification, Universe};

    fn three_events() -> (Specification, EventId, EventId, EventId) {
        let mut u = Universe::new();
        let a = u.event("a");
        let b = u.event("b");
        let c = u.event("c");
        let spec = Specification::new("s", u);
        (spec, a, b, c)
    }

    fn steps(spec: &Specification, options: &SolverOptions) -> Vec<Step> {
        Program::compile(spec).cursor().acceptable_steps(options)
    }

    fn ids(indices: &[usize]) -> Vec<EventId> {
        indices.iter().map(|&i| EventId::from_index(i)).collect()
    }

    #[test]
    fn unconstrained_spec_has_no_constrained_events() {
        let (spec, _, _, _) = three_events();
        // no constraints ⇒ no constrained events ⇒ only the empty step,
        // which is excluded by default
        assert!(steps(&spec, &SolverOptions::default()).is_empty());
        let with_empty = steps(&spec, &SolverOptions::default().with_empty(true));
        assert_eq!(with_empty.len(), 1);
        assert!(with_empty[0].is_empty());
    }

    #[test]
    fn each_constraint_shrinks_the_step_set() {
        // E2: monotone restriction (Sec. II-C) — over a fixed event set.
        let (mut spec, a, b, _) = three_events();
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        let s1 = steps(&spec, &SolverOptions::default().with_empty(true));
        assert_eq!(s1.len(), 3); // {}, {b}, {a,b}
        spec.add_constraint(Box::new(Exclusion::new("a#b", [a, b])));
        let s2 = steps(&spec, &SolverOptions::default().with_empty(true));
        assert_eq!(s2.len(), 2); // {}, {b}
        for s in &s2 {
            assert!(s1.contains(s), "adding constraints only removes steps");
        }
    }

    #[test]
    fn subclock_steps_match_implication() {
        let (mut spec, a, b, _) = three_events();
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        let steps = steps(&spec, &SolverOptions::default());
        // over {a,b}: acceptable non-empty steps are {b}, {a,b}
        assert_eq!(steps.len(), 2);
        assert!(steps.contains(&Step::from_events([b])));
        assert!(steps.contains(&Step::from_events([a, b])));
    }

    #[test]
    fn pruned_and_naive_agree() {
        let (mut spec, a, b, c) = three_events();
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        spec.add_constraint(Box::new(Exclusion::new("a#c", [a, c])));
        spec.add_constraint(Box::new(Coincidence::new("b=c", b, c)));
        let pruned = steps(&spec, &SolverOptions::default());
        let naive = steps(&spec, &SolverOptions::naive());
        assert_eq!(pruned, naive);
    }

    #[test]
    fn stateful_constraint_changes_answers_after_fire() {
        let (mut spec, a, b, _) = three_events();
        spec.add_constraint(Box::new(Precedence::strict("a<b", a, b)));
        let mut cursor = Program::new(spec).cursor();
        let before = cursor.acceptable_steps(&SolverOptions::default());
        assert_eq!(before, vec![Step::from_events([a])]);
        cursor.fire(&Step::from_events([a])).expect("fires");
        let after = cursor.acceptable_steps(&SolverOptions::default());
        // now b alone, a alone, or both are acceptable
        assert_eq!(after.len(), 3);
    }

    #[test]
    fn results_are_sorted_and_deduplicated_by_construction() {
        let (mut spec, a, b, c) = three_events();
        spec.add_constraint(Box::new(Exclusion::new("x", [a, b, c])));
        let steps = steps(&spec, &SolverOptions::default());
        let mut sorted = steps.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(steps, sorted);
        assert_eq!(steps.len(), 3); // {a}, {b}, {c}
    }

    #[test]
    fn enumeration_is_stable_across_fresh_compiles() {
        let (mut spec, a, b, c) = three_events();
        spec.add_constraint(Box::new(SubClock::new("a⊆b", a, b)));
        spec.add_constraint(Box::new(Precedence::strict("b<c", b, c)));
        for options in [
            SolverOptions::default(),
            SolverOptions::naive(),
            SolverOptions::default().with_empty(true),
        ] {
            assert_eq!(
                steps(&spec, &options),
                steps(&spec, &options),
                "two compiles of one spec must enumerate identically"
            );
        }
    }

    #[test]
    fn truth_tables_index_rows_by_footprint_column() {
        let [a, b] = [EventId::from_index(3), EventId::from_index(9)];
        // a ⇒ b: false only on row 0b01 (a present, b absent)
        let sub = Lowered::new(
            StepFormula::implies(StepFormula::event(a), StepFormula::event(b)),
            &[a, b],
        );
        assert_eq!(sub.table, Some(0b1101));
        let none = Lowered::new(StepFormula::False, &[]);
        assert_eq!(none.table, Some(0));
        // a formula reaching outside its footprint is left untabled
        let foreign = Lowered::new(StepFormula::event(b), &[a]);
        assert_eq!(foreign.table, None);
        let wide: Vec<EventId> = ids(&[0, 1, 2, 3, 4, 5, 6]);
        let wide = Lowered::new(StepFormula::none_of(wide.clone()), &wide);
        assert_eq!(wide.table, None);
    }

    #[test]
    fn column_masks_select_their_bit() {
        for (j, &mask) in COLUMNS[1].iter().enumerate() {
            for row in 0..64u64 {
                assert_eq!(mask >> row & 1, row >> j & 1, "column {j}, row {row}");
            }
            assert_eq!(COLUMNS[0][j], !mask);
        }
        assert_eq!(all_rows(0), 1);
        assert_eq!(all_rows(2), 0b1111);
        assert_eq!(all_rows(6), u64::MAX);
    }

    #[test]
    fn plans_assign_events_in_step_significance_order() {
        let plan = SearchPlan::new(&ids(&[0, 5, 64, 70, 3, 5]), &[]);
        // word 0 from its highest id down, then word 1 likewise
        assert_eq!(plan.order, ids(&[5, 3, 0, 70, 64]));
        // so leaves of the free search come out in Step order
        let out = enumerate_steps(&[], &plan, &SolverOptions::default().with_empty(true));
        assert_eq!(out.len(), 32);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
    }

    #[test]
    fn unlisted_footprint_events_never_occur() {
        let [a, b] = [EventId::from_index(0), EventId::from_index(1)];
        // a ⇒ b with b left out of the listed events: a can never occur
        let f = Arc::new(Lowered::new(
            StepFormula::implies(StepFormula::event(a), StepFormula::event(b)),
            &[a, b],
        ));
        let plan = SearchPlan::new(&[a], &[vec![a, b]]);
        let options = SolverOptions::default().with_empty(true);
        let pruned = enumerate_steps(std::slice::from_ref(&f), &plan, &options);
        assert_eq!(pruned, vec![Step::new()]);
        let naive = enumerate_steps(&[f], &plan, &SolverOptions::naive().with_empty(true));
        assert_eq!(pruned, naive);
    }
}
