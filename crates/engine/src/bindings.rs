//! Plan execution: scans, joins and derived-fact stores.
//!
//! Bottom-up evaluation fires a rule by finding every binding frame that
//! satisfies its compiled body against the current facts. This module
//! provides:
//!
//! * [`DerivedFacts`] — a store of derived (IDB) facts, one [`Relation`]
//!   per predicate, with a cached running fact counter;
//! * [`FactView`] — a composite read view over the EDB, the derived store,
//!   and (for semi-naive evaluation) a delta override for one body
//!   occurrence;
//! * [`exec`] — the plan executor: walks a [`RulePlan`]'s linear step
//!   schedule over a flat [`Frame`], probing relation indexes with
//!   borrowed keys and undoing bindings in place on backtrack;
//! * [`fire_rule_batch`] — fires one round of compiled rules against a
//!   frozen view, buffering new head tuples and merging them in task
//!   order.
//!
//! The literal *ordering* lives in [`crate::plan`]; by the time execution
//! starts, every scheduling decision has already been made.

use crate::error::{EngineError, Result};
use crate::plan::{Col, RulePlan, Step};
use qdk_logic::fasthash::FxHashMap;
use qdk_logic::governor::Governor;
use qdk_logic::{Frame, IrTerm, Sym};
use qdk_storage::{builtins, Edb, Relation, StorageError, Tuple, Value};

/// A store of derived facts for IDB predicates.
#[derive(Clone, Debug, Default)]
pub struct DerivedFacts {
    relations: FxHashMap<Sym, Relation>,
    count: usize,
}

impl DerivedFacts {
    /// Creates an empty store.
    pub fn new() -> Self {
        DerivedFacts::default()
    }

    /// Inserts a derived fact tuple; returns `true` if new. Inserting a
    /// tuple whose arity disagrees with earlier facts for the same
    /// predicate is a [`StorageError::ArityMismatch`].
    pub fn insert(&mut self, pred: &Sym, tuple: Tuple) -> Result<bool> {
        let arity = tuple.arity();
        let new = self
            .relations
            .entry(pred.clone())
            .or_insert_with(|| Relation::new(pred.clone(), arity))
            .insert(tuple)?;
        if new {
            self.count += 1;
        }
        Ok(new)
    }

    /// The relation for a predicate, if any facts have been derived.
    pub fn relation(&self, pred: &str) -> Option<&Relation> {
        self.relations.get(pred)
    }

    /// Iterates over (predicate, relation) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Sym, &Relation)> {
        self.relations.iter()
    }

    /// Total number of derived facts (a cached counter, not a re-sum).
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if nothing has been derived.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adopts the index demand of `other` (typically the previously
    /// published snapshot of this store) into the matching relations here
    /// (see [`Relation::adopt_demand`]).
    pub fn adopt_index_demand(&mut self, other: &DerivedFacts) {
        for (pred, rel) in &other.relations {
            if let Some(mine) = self.relations.get_mut(pred) {
                mine.adopt_demand(rel);
            }
        }
    }

    /// Merges every fact of `other` into `self`, returning how many were new.
    pub fn absorb(&mut self, other: &DerivedFacts) -> Result<usize> {
        let mut added = 0;
        for (pred, rel) in other.iter() {
            for t in rel.iter() {
                if self.insert(pred, t.clone())? {
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// Removes a batch of tuples for one predicate (see
    /// [`Relation::remove_batch`]); returns how many were present. The
    /// relation entry itself is kept even when emptied. Removal may
    /// compact the relation and renumber its ids, so callers take id
    /// windows only after their removals.
    pub(crate) fn remove_all<'t>(
        &mut self,
        pred: &Sym,
        tuples: impl IntoIterator<Item = &'t Tuple>,
    ) -> usize {
        let Some(rel) = self.relations.get_mut(pred) else {
            return 0;
        };
        let removed = rel.remove_batch(tuples);
        self.count -= removed;
        removed
    }

    /// Drops the whole relation of one predicate (stratum-scoped
    /// invalidation: an affected predicate's extension is recomputed from
    /// scratch while unaffected relations survive).
    pub(crate) fn remove_relation(&mut self, pred: &Sym) -> usize {
        match self.relations.remove(pred) {
            Some(rel) => {
                self.count -= rel.len();
                rel.len()
            }
            None => 0,
        }
    }

    /// Inserts a batch of tuples for one predicate, resolving the relation
    /// entry once instead of per tuple. Returns how many were new.
    pub(crate) fn insert_all(&mut self, pred: &Sym, tuples: Vec<Tuple>) -> Result<usize> {
        let Some(first) = tuples.first() else {
            return Ok(0);
        };
        let arity = first.arity();
        let rel = self
            .relations
            .entry(pred.clone())
            .or_insert_with(|| Relation::new(pred.clone(), arity));
        let mut added = 0;
        for t in tuples {
            if rel.insert(t)? {
                added += 1;
            }
        }
        self.count += added;
        Ok(added)
    }
}

/// Per-predicate half-open tuple-id ranges into a [`DerivedFacts`] store,
/// marking the facts derived in the previous fixpoint round. New facts
/// always take ids above a relation's [`Relation::high_water`] mark, so
/// "the delta" never needs its own relations (or indexes): it is the tail
/// id window of each relation, and a delta scan is a windowed scan of the
/// full derived relation.
pub(crate) type DeltaRanges = FxHashMap<Sym, (usize, usize)>;

/// What a positive scan reads: the relation plus an optional tuple-id
/// window (the delta range assigned to this occurrence), or nothing when
/// the predicate has no extension yet.
pub(crate) type ScanTarget<'a> = Option<(&'a Relation, Option<(usize, usize)>)>;

/// A read view combining the EDB, a derived-facts store, and (optionally)
/// a delta override: when `delta` is `Some((ranges, i))`, the body atom at
/// position `i` of the rule under evaluation reads only the derived tuples
/// in the previous round's `ranges` window (the semi-naive "one
/// occurrence reads the delta" rewrite). The delta is never a separate
/// store — just an id window over the derived relations' newest ids.
pub struct FactView<'a> {
    edb: &'a Edb,
    derived: &'a DerivedFacts,
    delta: Option<(&'a DeltaRanges, usize)>,
    /// When set, the delta occurrence resolves its predicate in this store
    /// instead of the EDB or `derived` — a retraction's forward step reads
    /// the deleted facts here while every other occurrence reads the
    /// current state.
    overlay: Option<&'a DerivedFacts>,
}

impl<'a> FactView<'a> {
    /// A view over the EDB and the full derived store.
    pub fn total(edb: &'a Edb, derived: &'a DerivedFacts) -> Self {
        FactView {
            edb,
            derived,
            delta: None,
            overlay: None,
        }
    }

    /// A view where body occurrence `occurrence` reads only the tuples
    /// inside the per-predicate `delta` id ranges. Ranges over EDB
    /// predicates window the stored relation (incremental maintenance
    /// seeds a freshly inserted fact this way); the fixpoint loops only
    /// ever range over derived predicates, for which this is the classic
    /// semi-naive rewrite.
    pub(crate) fn with_delta(
        edb: &'a Edb,
        derived: &'a DerivedFacts,
        delta: &'a DeltaRanges,
        occurrence: usize,
    ) -> Self {
        FactView {
            edb,
            derived,
            delta: Some((delta, occurrence)),
            overlay: None,
        }
    }

    /// A view where body occurrence `occurrence` reads the `overlay`
    /// store's relation (windowed by `delta`) while every other occurrence
    /// reads the EDB and `derived` unchanged. This is a retraction's
    /// forward-step view: the overlay holds the deleted facts, and a rule
    /// fired through it enumerates exactly the derivations that used a
    /// deleted fact of the window at that position.
    pub(crate) fn with_overlay(
        edb: &'a Edb,
        derived: &'a DerivedFacts,
        overlay: &'a DerivedFacts,
        delta: &'a DeltaRanges,
        occurrence: usize,
    ) -> Self {
        FactView {
            edb,
            derived,
            delta: Some((delta, occurrence)),
            overlay: Some(overlay),
        }
    }

    /// The derived relation for a rule's head predicate, used to filter
    /// already-known facts at the emit site. Hoisted out of the per-emission
    /// path by [`fire_plan_buffered`]: the store is frozen while firing.
    pub(crate) fn derived_relation(&self, pred: &Sym) -> Option<&'a Relation> {
        self.derived.relation(pred.as_str())
    }

    /// The relation a positive scan at `occurrence` reads, plus the tuple-id
    /// window the scan must respect: the EDB relation for declared
    /// predicates (wrong arity is an error), else the derived relation —
    /// windowed to the delta range when this is the delta occurrence.
    /// Absent relation or wrong arity means an empty extension — nothing
    /// derived for that shape yet.
    pub(crate) fn scan_target(
        &self,
        occurrence: usize,
        pred: &Sym,
        arity: usize,
    ) -> Result<ScanTarget<'a>> {
        let window = match self.delta {
            Some((ranges, i)) if i == occurrence => {
                let Some(&range) = ranges.get(pred) else {
                    return Ok(None); // no new facts for this predicate last round
                };
                Some(range)
            }
            _ => None,
        };
        // The forward-step view: the delta occurrence reads the
        // deleted-facts overlay regardless of where the predicate is
        // stored (the retracted seed is an EDB fact, the consequences are
        // derived).
        if let (Some(overlay), Some(_)) = (self.overlay, window) {
            return Ok(match overlay.relation(pred.as_str()) {
                Some(rel) if rel.arity() == arity => Some((rel, window)),
                _ => None,
            });
        }
        if self.edb.is_edb_predicate(pred.as_str()) {
            let Some(rel) = self.edb.relation(pred.as_str()) else {
                return Ok(None);
            };
            if arity != rel.arity() {
                return Err(StorageError::ArityMismatch {
                    predicate: pred.to_string(),
                    expected: rel.arity(),
                    found: arity,
                }
                .into());
            }
            return Ok(Some((rel, window)));
        }
        Ok(match self.derived.relation(pred.as_str()) {
            Some(rel) if rel.arity() == arity => Some((rel, window)),
            _ => None,
        })
    }

    /// Closed-world membership test for a fully resolved negated atom.
    /// Negation always reads the full derived store, never a delta.
    pub(crate) fn neg_holds(&self, pred: &Sym, vals: &[Value]) -> Result<bool> {
        let rel = if self.edb.is_edb_predicate(pred.as_str()) {
            let Some(rel) = self.edb.relation(pred.as_str()) else {
                return Ok(false);
            };
            if vals.len() != rel.arity() {
                return Err(StorageError::ArityMismatch {
                    predicate: pred.to_string(),
                    expected: rel.arity(),
                    found: vals.len(),
                }
                .into());
            }
            rel
        } else {
            match self.derived.relation(pred.as_str()) {
                Some(rel) if rel.arity() == vals.len() => rel,
                _ => return Ok(false),
            }
        };
        Ok(rel.contains_slice(vals))
    }
}

/// Executes `plan` from step `step` under `frame`, calling `emit` for
/// every frame that satisfies the remaining schedule. Bindings made while
/// matching are undone in place before returning, so the caller's frame
/// is unchanged on exit.
pub(crate) fn exec(
    plan: &RulePlan,
    step: usize,
    view: &FactView<'_>,
    frame: &mut Frame,
    emit: &mut dyn FnMut(&Frame) -> Result<()>,
) -> Result<()> {
    let Some(s) = plan.steps.get(step) else {
        return emit(frame);
    };
    match s {
        Step::Compare {
            positive,
            op,
            lhs,
            rhs,
            literal,
        } => {
            let truth = match (lhs.resolve(frame), rhs.resolve(frame)) {
                (Some(l), Some(r)) => builtins::eval(op.as_str(), l, r)?,
                _ => {
                    // Reachable only when a pre-bound slot arrives unbound
                    // at run time (top-down call plans); same report the
                    // dynamic scheduler gave for an unschedulable literal.
                    return Err(EngineError::UnsafeRule {
                        rule: plan.rule_str.clone(),
                        literal: literal.clone(),
                    });
                }
            };
            if truth == *positive {
                exec(plan, step + 1, view, frame, emit)
            } else {
                Ok(())
            }
        }
        Step::EqBind { lhs, rhs, literal } => {
            match (lhs.resolve(frame).cloned(), rhs.resolve(frame).cloned()) {
                (Some(l), Some(r)) => {
                    if l == r {
                        exec(plan, step + 1, view, frame, emit)
                    } else {
                        Ok(())
                    }
                }
                (Some(l), None) => bind_eq(plan, step, rhs, l, view, frame, emit),
                (None, Some(r)) => bind_eq(plan, step, lhs, r, view, frame, emit),
                (None, None) => Err(EngineError::UnsafeRule {
                    rule: plan.rule_str.clone(),
                    literal: literal.clone(),
                }),
            }
        }
        Step::NegCheck {
            pred,
            args,
            literal,
        } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                match a.resolve(frame) {
                    Some(c) => vals.push(c.clone()),
                    None => {
                        return Err(EngineError::UnsafeRule {
                            rule: plan.rule_str.clone(),
                            literal: literal.clone(),
                        })
                    }
                }
            }
            if view.neg_holds(pred, &vals)? {
                Ok(())
            } else {
                exec(plan, step + 1, view, frame, emit)
            }
        }
        Step::Scan {
            occurrence,
            pred,
            cols,
            ..
        } => {
            let Some((rel, window)) = view.scan_target(*occurrence, pred, cols.len())? else {
                return Ok(()); // nothing derived yet
            };
            scan_relation(rel, cols, frame, window, &mut |frame| {
                exec(plan, step + 1, view, frame, emit)
            })
        }
        Step::Unsafe { literal } => Err(EngineError::UnsafeRule {
            rule: plan.rule_str.clone(),
            literal: literal.clone(),
        }),
    }
}

/// Binds the unbound side of an equality and continues, unbinding on the
/// way out.
fn bind_eq(
    plan: &RulePlan,
    step: usize,
    side: &IrTerm,
    value: Value,
    view: &FactView<'_>,
    frame: &mut Frame,
    emit: &mut dyn FnMut(&Frame) -> Result<()>,
) -> Result<()> {
    let IrTerm::Slot(slot) = side else {
        // A constant always resolves, so an unresolved side is a slot.
        return Ok(());
    };
    frame.set(*slot, value);
    let res = exec(plan, step + 1, view, frame, emit);
    frame.clear(*slot);
    res
}

/// Picks the index bucket for a scan: among columns with a value
/// available now (inline constants and bound slots), the one whose
/// bucket is smallest — first minimum in column order, exactly the
/// choice the pattern `select` made. Every bound column is probed, so a
/// scan with two bound columns is two `index_probes`; the caller's
/// [`match_cols_into`] checks the columns the winner did not cover.
/// Returns `None` when no column is bound (full scan). The probe borrows
/// the key from the frame or the plan: no `Value` is cloned to look up
/// the index.
pub(crate) fn probe_ids<'r>(rel: &'r Relation, cols: &[Col], frame: &Frame) -> Option<&'r [u32]> {
    // Keep the winning bucket while scoring so the winner is not probed
    // twice (each probe is a hash of the key plus a counter bump).
    let mut best: Option<&'r [u32]> = None;
    for (c, col) in cols.iter().enumerate() {
        let v: Option<&Value> = match col {
            Col::Const(v) => Some(v),
            Col::Slot { slot, .. } => frame.get(*slot),
        };
        if let Some(v) = v {
            let ids = rel.probe(c, v);
            if best.is_none_or(|b| ids.len() < b.len()) {
                best = Some(ids);
            }
        }
    }
    best
}

/// Matches one tuple against the scan columns, binding unbound slots as
/// it goes. Newly bound slots are appended to `trail` (the caller undoes
/// them); returns `false` on the first mismatched column.
pub(crate) fn match_cols_into(
    cols: &[Col],
    values: &[Value],
    frame: &mut Frame,
    trail: &mut Vec<u32>,
) -> bool {
    for (col, value) in cols.iter().zip(values) {
        let ok = match col {
            Col::Const(c) => c == value,
            Col::Slot { slot, .. } => match frame.get(*slot) {
                Some(bound) => bound == value,
                None => {
                    frame.set(*slot, value.clone());
                    trail.push(*slot);
                    true
                }
            },
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Enumerates the tuples of `rel` matching `cols` under `frame`, calling
/// `each` with the extended frame per match and undoing the bindings
/// afterwards, optionally restricted to the tuple-id `window`. Shared by
/// the bottom-up executor ([`exec`] recurses into the rest of the plan
/// here) and the top-down solver's EDB scans.
///
/// Index buckets store ids in ascending insertion order, so visiting each
/// window of a partition in turn reproduces the unwindowed visit order;
/// windows are clipped through the relation's [`qdk_storage::DeltaView`].
pub(crate) fn scan_relation(
    rel: &Relation,
    cols: &[Col],
    frame: &mut Frame,
    window: Option<(usize, usize)>,
    each: &mut dyn FnMut(&mut Frame) -> Result<()>,
) -> Result<()> {
    let ids = probe_ids(rel, cols, frame);
    // One trail for the whole scan, cleared per tuple: slots this scan
    // binds are unbound again before the next tuple (and before return).
    let mut trail: Vec<u32> = Vec::new();
    let mut visit = |tuple: &Tuple, frame: &mut Frame| -> Result<()> {
        trail.clear();
        let res = if match_cols_into(cols, tuple.values(), frame, &mut trail) {
            each(frame)
        } else {
            Ok(())
        };
        for &s in &trail {
            frame.clear(s);
        }
        res
    };
    match ids {
        Some(ids) => {
            let ids = match window {
                Some((lo, hi)) => rel.delta(lo, hi).clip(ids),
                None => ids,
            };
            for &id in ids {
                visit(rel.tuple_at(id), frame)?;
            }
        }
        None => {
            match window {
                Some((lo, hi)) => {
                    for t in rel.delta(lo, hi).iter() {
                        visit(t, frame)?;
                    }
                }
                None => {
                    for t in rel.iter() {
                        visit(t, frame)?;
                    }
                }
            };
        }
    }
    Ok(())
}

/// The row a satisfying frame gives answer columns held in `slots`;
/// `None` when a column is unbound (it has no slot, or its slot is unset).
pub(crate) fn frame_row(frame: &Frame, slots: &[Option<u32>]) -> Option<Tuple> {
    let mut row = Vec::with_capacity(slots.len());
    for slot in slots {
        row.push(slot.and_then(|s| frame.get(s))?.clone());
    }
    Some(Tuple::new(row))
}

/// Fires a compiled rule once against a view: executes the plan and
/// instantiates the head for every satisfying frame, inserting new head
/// tuples into `out`. Returns the number of new tuples.
///
/// A frame that leaves a head variable unbound is a range-restriction
/// violation; as in the dynamic evaluator, enumeration completes and the
/// first such violation is then reported as an unsafe rule.
#[cfg(test)]
pub(crate) fn fire_plan(
    plan: &RulePlan,
    view: &FactView<'_>,
    out: &mut DerivedFacts,
) -> Result<usize> {
    let mut added = 0usize;
    let mut err: Option<EngineError> = None;
    let head = &plan.compiled.head;
    let mut frame = Frame::new(plan.compiled.num_slots());
    exec(plan, 0, view, &mut frame, &mut |frame| {
        let mut row: Vec<Value> = Vec::with_capacity(head.args.len());
        for t in &head.args {
            match t.resolve(frame) {
                Some(c) => row.push(c.clone()),
                None => {
                    if err.is_none() {
                        err = Some(EngineError::UnsafeRule {
                            rule: plan.rule_str.clone(),
                            literal: head.reify(frame, &plan.compiled.slots).to_string(),
                        });
                    }
                    return Ok(());
                }
            }
        }
        if out.insert(&head.pred, Tuple::new(row))? {
            added += 1;
        }
        Ok(())
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    Ok(added)
}

/// How often a firing polls the governor for cancellation/deadline, in
/// emitted frames. Emission-based so the check is free for rules that
/// produce nothing; the per-task ticks still bound work.
pub(crate) const FIRE_POLL_EMISSIONS: u64 = 4096;

/// Fires a compiled rule once against a view, collecting the head tuples
/// not already in the view's derived store into a buffer the coordinator
/// inserts after the whole round has fired. The buffered content and order
/// are exactly the test-only reference `fire_plan`'s emission order minus
/// the already-known facts; the buffer may repeat a tuple (projections),
/// which insertion dedups.
///
/// Buffering is what lets the derived store be the *only* store: firings
/// read a frozen snapshot while new facts wait in the buffer, so the store
/// needs no per-round copy, subtract pass, or second set of indexes.
///
/// The firing polls `gov` every [`FIRE_POLL_EMISSIONS`] emissions, so one
/// long firing observes a cancel or deadline promptly without spending
/// work ticks.
pub(crate) fn fire_plan_buffered(
    plan: &RulePlan,
    view: &FactView<'_>,
    gov: &Governor,
) -> Result<Vec<Tuple>> {
    let mut out: Vec<Tuple> = Vec::new();
    let mut emitted = 0u64;
    let mut err: Option<EngineError> = None;
    let head = &plan.compiled.head;
    let known = view.derived_relation(&head.pred);
    let mut frame = Frame::new(plan.compiled.num_slots());
    // Reused across frames: most candidate rows are already known (the
    // whole point of re-firing against the total view), and the borrowed
    // containment check lets those die here without allocating a tuple.
    let mut row: Vec<Value> = Vec::with_capacity(head.args.len());
    exec(plan, 0, view, &mut frame, &mut |frame| {
        emitted += 1;
        if emitted == FIRE_POLL_EMISSIONS {
            emitted = 0;
            gov.poll()?;
        }
        row.clear();
        for t in &head.args {
            match t.resolve(frame) {
                Some(c) => row.push(c.clone()),
                None => {
                    if err.is_none() {
                        err = Some(EngineError::UnsafeRule {
                            rule: plan.rule_str.clone(),
                            literal: head.reify(frame, &plan.compiled.slots).to_string(),
                        });
                    }
                    return Ok(());
                }
            }
        }
        if !known.is_some_and(|r| r.contains_slice(&row)) {
            let vals = std::mem::replace(&mut row, Vec::with_capacity(head.args.len()));
            out.push(Tuple::new(vals));
        }
        Ok(())
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    Ok(out)
}

/// One unit of a fixpoint round: a rule to fire, against the totals or
/// with one body occurrence reading the delta.
pub(crate) struct RuleTask<'a> {
    plan: &'a RulePlan,
    delta: Option<(&'a DeltaRanges, usize)>,
}

impl<'a> RuleTask<'a> {
    /// Fire `plan` against the total view (round 0 / naive iteration).
    pub(crate) fn total(plan: &'a RulePlan) -> Self {
        RuleTask { plan, delta: None }
    }

    /// Fire `plan` with body occurrence `occurrence` reading `delta`.
    pub(crate) fn delta(plan: &'a RulePlan, occurrence: usize, delta: &'a DeltaRanges) -> Self {
        RuleTask {
            plan,
            delta: Some((delta, occurrence)),
        }
    }
}

/// Fires a batch of independent rule tasks against the frozen derived
/// store, then inserts the buffered new facts in task order. Returns how
/// many facts were new. The store is read-only until every task has fired
/// (jacobi-style); each task costs the governor one work tick before it
/// fires.
pub(crate) fn fire_rule_batch(
    gov: &Governor,
    edb: &Edb,
    derived: &mut DerivedFacts,
    tasks: &[RuleTask<'_>],
) -> Result<usize> {
    let mut buffers = Vec::with_capacity(tasks.len());
    for task in tasks {
        gov.tick()?;
        let view = match task.delta {
            Some((delta, occurrence)) => FactView::with_delta(edb, derived, delta, occurrence),
            None => FactView::total(edb, derived),
        };
        buffers.push(fire_plan_buffered(task.plan, &view, gov)?);
    }
    let mut added = 0;
    for (task, buf) in tasks.iter().zip(buffers) {
        added += derived.insert_all(&task.plan.compiled.head.pred, buf)?;
    }
    Ok(added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_rule};
    use qdk_logic::Interner;

    fn edb() -> Edb {
        let mut edb = Edb::new();
        edb.declare("student", &["Sname", "Major", "Gpa"]).unwrap();
        edb.declare("enroll", &["Sname", "Ctitle"]).unwrap();
        for f in [
            "student(ann, math, 3.9)",
            "student(bob, physics, 3.5)",
            "student(cara, math, 3.8)",
            "enroll(ann, databases)",
            "enroll(bob, databases)",
            "enroll(cara, calculus)",
        ] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        edb
    }

    fn plan_of(src: &str) -> RulePlan {
        let mut i = Interner::new();
        RulePlan::new(&parse_rule(src).unwrap(), &mut i)
    }

    /// Runs a rule's plan and returns, per satisfying frame, the value
    /// bound to variable `var` rendered as text.
    fn bound_values(src: &str, view: &FactView<'_>, var: &str) -> Vec<String> {
        let plan = plan_of(src);
        let slot = plan
            .compiled
            .slot_of(&qdk_logic::Var::new(var))
            .expect("variable occurs in rule");
        let mut frame = Frame::new(plan.compiled.num_slots());
        let mut out = Vec::new();
        exec(&plan, 0, view, &mut frame, &mut |f| {
            out.push(
                f.get(slot)
                    .expect("emitted frames bind head vars")
                    .to_string(),
            );
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn join_two_edb_atoms_with_comparison() {
        let edb = edb();
        let derived = DerivedFacts::new();
        let view = FactView::total(&edb, &derived);
        let names = bound_values(
            "ans(X) :- student(X, math, G), enroll(X, C), G > 3.7.",
            &view,
            "X",
        );
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"ann".to_string()));
        assert!(names.contains(&"cara".to_string()));
    }

    #[test]
    fn comparison_scheduled_after_binding() {
        // Comparison appears first in source order but must wait for G.
        let edb = edb();
        let derived = DerivedFacts::new();
        let view = FactView::total(&edb, &derived);
        let names = bound_values("ans(X) :- G > 3.7, student(X, math, G).", &view, "X");
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn equality_binds_a_variable() {
        let edb = edb();
        let derived = DerivedFacts::new();
        let view = FactView::total(&edb, &derived);
        let names = bound_values("ans(X, C) :- C = databases, enroll(X, C).", &view, "X");
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn unsafe_rule_is_reported() {
        let edb = edb();
        let derived = DerivedFacts::new();
        let view = FactView::total(&edb, &derived);
        // W never becomes bound.
        let plan = plan_of("ans(X) :- student(X, Y, Z), W > 3.7.");
        let mut frame = Frame::new(plan.compiled.num_slots());
        let err = exec(&plan, 0, &view, &mut frame, &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, EngineError::UnsafeRule { .. }));
    }

    #[test]
    fn negation_filters_ground_instances() {
        let edb = edb();
        let derived = DerivedFacts::new();
        let view = FactView::total(&edb, &derived);
        let names = bound_values(
            "ans(X) :- student(X, Y, Z), not enroll(X, databases).",
            &view,
            "X",
        );
        assert_eq!(names, ["cara"]);
    }

    #[test]
    fn idb_atoms_read_from_derived_store() {
        let edb = edb();
        let mut derived = DerivedFacts::new();
        derived
            .insert(&Sym::new("honor"), Tuple::new(vec![Value::sym("ann")]))
            .unwrap();
        let view = FactView::total(&edb, &derived);
        let names = bound_values("ans(X) :- honor(X), enroll(X, databases).", &view, "X");
        assert_eq!(names, ["ann"]);
    }

    #[test]
    fn delta_override_restricts_one_occurrence() {
        let edb = edb();
        let mut derived = DerivedFacts::new();
        derived
            .insert(&Sym::new("honor"), Tuple::new(vec![Value::sym("ann")]))
            .unwrap();
        derived
            .insert(&Sym::new("honor"), Tuple::new(vec![Value::sym("cara")]))
            .unwrap();
        // cara was inserted second, so the previous round's delta is the
        // id range [1, 2) of the honor relation.
        let mut delta = DeltaRanges::default();
        delta.insert(Sym::new("honor"), (1, 2));
        // Occurrence 0 is the honor atom.
        let view = FactView::with_delta(&edb, &derived, &delta, 0);
        let names = bound_values("ans(X) :- honor(X), student(X, M, G).", &view, "X");
        assert_eq!(names, ["cara"]);
    }

    #[test]
    fn fire_plan_inserts_head_tuples() {
        let edb = edb();
        let derived = DerivedFacts::new();
        let view = FactView::total(&edb, &derived);
        let plan = plan_of("honor(X) :- student(X, Y, Z), Z > 3.7.");
        let mut out = DerivedFacts::new();
        let added = fire_plan(&plan, &view, &mut out).unwrap();
        assert_eq!(added, 2);
        assert_eq!(out.relation("honor").unwrap().len(), 2);
        // Firing again adds nothing new.
        let view2 = FactView::total(&edb, &derived);
        assert_eq!(fire_plan(&plan, &view2, &mut out).unwrap(), 0);
    }

    #[test]
    fn fire_plan_rejects_non_ground_head() {
        let edb = edb();
        let derived = DerivedFacts::new();
        let view = FactView::total(&edb, &derived);
        // Head variable W not bound by body.
        let plan = plan_of("bad(X, W) :- student(X, Y, Z).");
        let mut out = DerivedFacts::new();
        assert!(matches!(
            fire_plan(&plan, &view, &mut out),
            Err(EngineError::UnsafeRule { .. })
        ));
    }

    #[test]
    fn absorb_merges_stores_and_len_is_cached() {
        let mut a = DerivedFacts::new();
        a.insert(&Sym::new("p"), Tuple::new(vec![Value::Int(1)]))
            .unwrap();
        let mut b = DerivedFacts::new();
        b.insert(&Sym::new("p"), Tuple::new(vec![Value::Int(1)]))
            .unwrap();
        b.insert(&Sym::new("p"), Tuple::new(vec![Value::Int(2)]))
            .unwrap();
        b.insert(&Sym::new("q"), Tuple::new(vec![Value::sym("x")]))
            .unwrap();
        assert_eq!(a.absorb(&b).unwrap(), 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a.iter().map(|(_, r)| r.len()).sum::<usize>(), a.len());
    }

    #[test]
    fn derived_arity_mismatch_is_an_error() {
        let mut a = DerivedFacts::new();
        a.insert(&Sym::new("p"), Tuple::new(vec![Value::Int(1)]))
            .unwrap();
        assert!(a
            .insert(
                &Sym::new("p"),
                Tuple::new(vec![Value::Int(1), Value::Int(2)])
            )
            .is_err());
        assert_eq!(a.len(), 1);
    }
}
