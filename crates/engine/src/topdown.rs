//! Goal-directed (top-down) evaluation.
//!
//! Bottom-up evaluation computes every derivable fact of every predicate.
//! A `retrieve` query touches only the predicates its subject and qualifier
//! (transitively) depend on, and often only a slice of those. This module
//! implements the goal-directed strategy used by real deductive systems in
//! two parts:
//!
//! 1. **Relevance restriction** — only the rules of predicates reachable
//!    from the query in the dependency graph are evaluated (QSQ's
//!    reachability component);
//! 2. **Constant propagation for non-recursive goals** — resolution that
//!    pushes the query's constant bindings into rule bodies, so e.g.
//!    `enroll(X, databases)` never enumerates other courses. For recursive
//!    predicates the SCC is closed bottom-up (semi-naively) first, which
//!    keeps termination unconditional; resolution then reads the closed
//!    relation.
//!
//! The solver runs the same compiled plans as the bottom-up strategies.
//! A call to a non-recursive IDB predicate specializes the predicate's
//! rule plans to the call's binding pattern — which head argument slots
//! arrive bound. The specialization is cached per (rule, adornment) in
//! the [`ProgramPlan`], so it outlives the solver: every later call with
//! the same shape, in this query or the next, on this session or a
//! snapshot reader of the same plan, re-runs a ready schedule instead of
//! re-deriving literal order. The dependency graph the solver cuts its
//! slices from is the plan's too; a solver owns only its closed
//! relations and its governor.
//!
//! This is the "top-down" comparator of the P1 experiment.

use crate::bindings::{frame_row, match_cols_into, probe_ids, scan_relation, DerivedFacts};
use crate::error::{EngineError, Result};
use crate::graph::DependencyGraph;
use crate::idb::Idb;
use crate::options::EvalOptions;
use crate::plan::{Col, ProgramPlan, RulePlan, Step};
use crate::seminaive;
use qdk_logic::governor::Governor;
use qdk_logic::{Frame, Interner, IrTerm, Literal, Sym, Var};
use qdk_storage::{builtins, Edb, StorageError, Tuple, Value};

/// A goal-directed solver for one (EDB, IDB) pair.
pub struct Solver<'a> {
    edb: &'a Edb,
    idb: &'a Idb,
    /// The plan's evaluation graph: slices and recursion.
    graph: &'a DependencyGraph,
    /// Closed relations for recursive SCCs, computed lazily per query.
    closed: DerivedFacts,
    /// The compiled program shared with the bottom-up strategies; it also
    /// holds the call plans.
    program: &'a ProgramPlan,
    opts: EvalOptions,
    /// Governs resolution steps; the semi-naive pre-closure of recursive
    /// SCCs builds its own governor from the same options, so both phases
    /// answer to the same limits.
    gov: Governor,
}

impl<'a> Solver<'a> {
    /// Creates a solver over a compiled program. `plan` must be the
    /// compilation of `idb`.
    pub fn with_plan(edb: &'a Edb, idb: &'a Idb, plan: &'a ProgramPlan, opts: EvalOptions) -> Self {
        let gov = opts.governor();
        Solver {
            edb,
            idb,
            graph: plan.analysis(idb, &opts.sink).graph(),
            closed: DerivedFacts::new(),
            program: plan,
            opts,
            gov,
        }
    }

    /// Finds every answer to the conjunction of `goals`: one row of
    /// `columns`' values per satisfying frame. `None` when a satisfying
    /// frame leaves a column unbound.
    pub fn solve_all(&mut self, goals: &[Literal], columns: &[Var]) -> Result<Option<Vec<Tuple>>> {
        // Pre-close every recursive predicate reachable from the goals.
        for lit in goals {
            if !lit.is_builtin() {
                self.ensure_closed(&lit.atom.pred)?;
            }
        }
        // Compile the conjunction as a headless query plan: its slots are
        // the goals' distinct variables in first-occurrence order, so each
        // satisfying frame is already restricted to the goal variables.
        let rule_str = goals
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let qplan =
            RulePlan::for_query(goals, rule_str, &mut Interner::new(), self.program.stats());
        let slots: Vec<Option<u32>> = columns.iter().map(|v| qplan.compiled.slot_of(v)).collect();
        let mut frame = Frame::new(qplan.compiled.num_slots());
        let mut rows = Some(Vec::new());
        self.exec_plan(&qplan, 0, &mut frame, &mut |f| {
            if let Some(out) = &mut rows {
                match frame_row(f, &slots) {
                    Some(row) => out.push(row),
                    None => rows = None,
                }
            }
            Ok(())
        })?;
        Ok(rows)
    }

    /// Closes (computes bottom-up) every recursive SCC that `pred`
    /// transitively reaches, so resolution never descends into a cycle.
    fn ensure_closed(&mut self, pred: &Sym) -> Result<()> {
        let reach = self.graph.reachable_from(pred.as_str());
        let recursive: Vec<Sym> = reach
            .iter()
            .filter(|p| self.graph.is_recursive(p.as_str()) && self.idb.defines(p.as_str()))
            .cloned()
            .collect();
        for p in recursive {
            if self.closed.relation(p.as_str()).is_some() {
                continue;
            }
            // Close the predicate together with everything it depends on
            // (its SCC and anything below it) semi-naively, reusing the
            // compiled program.
            let relevant = self.graph.reachable_from(p.as_str());
            let facts = seminaive::eval(
                self.edb,
                self.idb,
                self.program,
                Some(&relevant),
                DerivedFacts::new(),
                self.opts.clone(),
            )?;
            self.closed.absorb(&facts)?;
        }
        Ok(())
    }

    /// Executes a plan's step schedule, routing each scan to the right
    /// fact source: the EDB, a closed recursive relation, or — for
    /// non-recursive IDB predicates — resolution through call plans.
    fn exec_plan(
        &mut self,
        plan: &RulePlan,
        step: usize,
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
                        return Err(EngineError::UnsafeRule {
                            rule: plan.rule_str.clone(),
                            literal: literal.clone(),
                        })
                    }
                };
                if truth == *positive {
                    self.exec_plan(plan, step + 1, frame, emit)
                } else {
                    Ok(())
                }
            }
            Step::EqBind { lhs, rhs, literal } => {
                match (lhs.resolve(frame).cloned(), rhs.resolve(frame).cloned()) {
                    (Some(l), Some(r)) => {
                        if l == r {
                            self.exec_plan(plan, step + 1, frame, emit)
                        } else {
                            Ok(())
                        }
                    }
                    (Some(l), None) => self.bind_eq(plan, step, rhs, l, frame, emit),
                    (None, Some(r)) => self.bind_eq(plan, step, lhs, r, frame, emit),
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
                if self.neg_holds(pred, &vals)? {
                    Ok(())
                } else {
                    self.exec_plan(plan, step + 1, frame, emit)
                }
            }
            Step::Scan { pred, cols, .. } => self.scan_pred(plan, step, pred, cols, frame, emit),
            Step::Unsafe { literal } => Err(EngineError::UnsafeRule {
                rule: plan.rule_str.clone(),
                literal: literal.clone(),
            }),
        }
    }

    /// Binds the unbound side of an equality and continues, unbinding on
    /// the way out.
    fn bind_eq(
        &mut self,
        plan: &RulePlan,
        step: usize,
        side: &IrTerm,
        value: Value,
        frame: &mut Frame,
        emit: &mut dyn FnMut(&Frame) -> Result<()>,
    ) -> Result<()> {
        let IrTerm::Slot(slot) = side else {
            // A constant always resolves, so an unresolved side is a slot.
            return Ok(());
        };
        frame.set(*slot, value);
        let res = self.exec_plan(plan, step + 1, frame, emit);
        frame.clear(*slot);
        res
    }

    /// A positive scan: enumerate the predicate's extension under the
    /// current frame and recurse into the rest of the plan per match.
    fn scan_pred(
        &mut self,
        plan: &RulePlan,
        step: usize,
        pred: &Sym,
        cols: &[Col],
        frame: &mut Frame,
        emit: &mut dyn FnMut(&Frame) -> Result<()>,
    ) -> Result<()> {
        let pred_str = pred.as_str();
        if self.edb.is_edb_predicate(pred_str) {
            let edb = self.edb;
            let Some(rel) = edb.relation(pred_str) else {
                return Ok(());
            };
            if cols.len() != rel.arity() {
                return Err(StorageError::ArityMismatch {
                    predicate: pred.to_string(),
                    expected: rel.arity(),
                    found: cols.len(),
                }
                .into());
            }
            return scan_relation(rel, cols, frame, None, &mut |frame| {
                self.exec_plan(plan, step + 1, frame, emit)
            });
        }
        if self.graph.is_recursive(pred_str) {
            // Closed earlier. Materialize the candidate tuples (cheap
            // shared-buffer clones) so the recursion below can borrow the
            // solver mutably.
            let tuples: Vec<Tuple> = match self.closed.relation(pred_str) {
                Some(rel) if rel.arity() == cols.len() => match probe_ids(rel, cols, frame) {
                    Some(ids) => ids.iter().map(|&id| rel.tuple_at(id).clone()).collect(),
                    None => rel.iter().cloned().collect(),
                },
                _ => Vec::new(),
            };
            let mut trail: Vec<u32> = Vec::new();
            for t in tuples {
                trail.clear();
                let res = if match_cols_into(cols, t.values(), frame, &mut trail) {
                    self.exec_plan(plan, step + 1, frame, emit)
                } else {
                    Ok(())
                };
                for &s in &trail {
                    frame.clear(s);
                }
                res?;
            }
            return Ok(());
        }
        if !self.idb.defines(pred_str) {
            // Neither stored nor derived: empty extension.
            return Ok(());
        }
        // Non-recursive IDB predicate: resolve through the predicate's
        // rule plans, specialized to this call's binding pattern.
        let call_vals: Vec<Option<Value>> = cols
            .iter()
            .map(|col| match col {
                Col::Const(v) => Some(v.clone()),
                Col::Slot { slot, .. } => frame.get(*slot).cloned(),
            })
            .collect();
        let rows = self.solve_pred(pred, &call_vals)?;
        let mut trail: Vec<u32> = Vec::new();
        for row in rows {
            trail.clear();
            let mut matched = true;
            for (col, cell) in cols.iter().zip(&row) {
                // A `None` cell is a head variable the rule left unbound;
                // it constrains nothing on the caller's side.
                let Some(value) = cell else { continue };
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
                    matched = false;
                    break;
                }
            }
            let res = if matched {
                self.exec_plan(plan, step + 1, frame, emit)
            } else {
                Ok(())
            };
            for &s in &trail {
                frame.clear(s);
            }
            res?;
        }
        Ok(())
    }

    /// Resolves a call to a non-recursive IDB predicate: for each of its
    /// rules, pre-binds the head slots the call grounds, runs the rule's
    /// call plan, and collects the head rows it emits (`None` marks a
    /// head variable the body left unbound). One governor tick per call,
    /// as the dynamic resolver charged one per goal expansion.
    fn solve_pred(
        &mut self,
        pred: &Sym,
        call_vals: &[Option<Value>],
    ) -> Result<Vec<Vec<Option<Value>>>> {
        self.gov.tick()?;
        let mut rows: Vec<Vec<Option<Value>>> = Vec::new();
        // Copies of the `'a` references, so the loop borrows the program
        // and not the solver it re-enters.
        let (idb, program) = (self.idb, self.program);
        'rules: for &idx in idb.rule_indices(pred.as_str()) {
            let head_args = &program.plans()[idx].compiled.head.args;
            if head_args.len() != call_vals.len() {
                continue; // the head cannot unify with the call
            }
            let num_slots = program.plans()[idx].compiled.num_slots();
            let mut bound = vec![false; num_slots];
            let mut frame = Frame::new(num_slots);
            for (arg, cell) in head_args.iter().zip(call_vals) {
                let Some(v) = cell else { continue };
                match arg {
                    IrTerm::Const(c) => {
                        if c != v {
                            continue 'rules; // head constant conflicts
                        }
                    }
                    IrTerm::Slot(s) => match frame.get(*s) {
                        Some(prev) => {
                            if prev != v {
                                continue 'rules; // repeated head var conflicts
                            }
                        }
                        None => {
                            frame.set(*s, v.clone());
                            bound[*s as usize] = true;
                        }
                    },
                }
            }
            let cplan = program.call_plan(idx, bound);
            // Collect this rule's emissions eagerly (the dynamic resolver
            // also materialized each expansion level) before the caller's
            // remaining steps run.
            let mut emitted: Vec<Vec<Option<Value>>> = Vec::new();
            self.exec_plan(&cplan, 0, &mut frame, &mut |f| {
                emitted.push(
                    cplan
                        .compiled
                        .head
                        .args
                        .iter()
                        .map(|t| t.resolve(f).cloned())
                        .collect(),
                );
                Ok(())
            })?;
            rows.append(&mut emitted);
        }
        Ok(rows)
    }

    /// Closed-world membership test for a fully ground negated atom.
    fn neg_holds(&mut self, pred: &Sym, vals: &[Value]) -> Result<bool> {
        let pred_str = pred.as_str();
        if self.edb.is_edb_predicate(pred_str) {
            let Some(rel) = self.edb.relation(pred_str) else {
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
            return Ok(rel.contains_slice(vals));
        }
        if self.graph.is_recursive(pred_str) {
            return Ok(match self.closed.relation(pred_str) {
                Some(rel) if rel.arity() == vals.len() => rel.contains_slice(vals),
                _ => false,
            });
        }
        if !self.idb.defines(pred_str) {
            return Ok(false);
        }
        let call_vals: Vec<Option<Value>> = vals.iter().cloned().map(Some).collect();
        Ok(!self.solve_pred(pred, &call_vals)?.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::{parse_atom, parse_body, parse_program};

    fn setup() -> (Edb, Idb) {
        let mut edb = Edb::new();
        edb.declare("student", &["S", "M", "G"]).unwrap();
        edb.declare("enroll", &["S", "C"]).unwrap();
        edb.declare("prereq", &["C", "P"]).unwrap();
        for f in [
            "student(ann, math, 3.9)",
            "student(bob, physics, 3.5)",
            "student(cara, math, 3.8)",
            "enroll(ann, databases)",
            "enroll(bob, databases)",
            "prereq(databases, datastructures)",
            "prereq(datastructures, programming)",
            "prereq(calculus, algebra)",
        ] {
            edb.insert_fact(&parse_atom(f).unwrap()).unwrap();
        }
        let idb = Idb::from_rules(
            parse_program(
                "honor(X) :- student(X, Y, Z), Z > 3.7.\n\
                 prior(X, Y) :- prereq(X, Y).\n\
                 prior(X, Y) :- prereq(X, Z), prior(Z, Y).",
            )
            .unwrap()
            .rules,
        )
        .unwrap();
        (edb, idb)
    }

    /// The rows of the conjunction `goals` over `columns`.
    fn solve(edb: &Edb, idb: &Idb, goals: &str, columns: &[Var]) -> Vec<Tuple> {
        let goals = parse_body(goals).unwrap();
        let plan = ProgramPlan::compile_with_stats(idb, edb.stats());
        Solver::with_plan(edb, idb, &plan, EvalOptions::default())
            .solve_all(&goals, columns)
            .unwrap()
            .unwrap()
    }

    /// The distinct values of `v` in the answers to `goals`.
    fn names(edb: &Edb, idb: &Idb, goals: &str, v: &str) -> Vec<String> {
        let mut n: Vec<String> = solve(edb, idb, goals, &[Var::new(v)])
            .iter()
            .map(|row| row.values()[0].to_string())
            .collect();
        n.sort();
        n.dedup();
        n
    }

    #[test]
    fn solves_nonrecursive_goal() {
        let (edb, idb) = setup();
        assert_eq!(names(&edb, &idb, "honor(X)", "X"), ["ann", "cara"]);
    }

    #[test]
    fn conjunction_with_edb_and_comparison() {
        let (edb, idb) = setup();
        assert_eq!(
            names(&edb, &idb, "honor(X), enroll(X, databases)", "X"),
            ["ann"]
        );
    }

    #[test]
    fn recursive_goal_reads_closed_relation() {
        let (edb, idb) = setup();
        assert_eq!(
            names(&edb, &idb, "prior(databases, Y)", "Y"),
            ["datastructures", "programming"]
        );
    }

    #[test]
    fn negation_in_goal() {
        let (edb, idb) = setup();
        assert_eq!(
            names(&edb, &idb, "student(X, M, G), not honor(X)", "X"),
            ["bob"]
        );
    }

    #[test]
    fn agrees_with_seminaive() {
        let (edb, idb) = setup();
        for goal in ["honor(X)", "prior(X, Y)", "prior(X, programming)"] {
            let goals = parse_body(goal).unwrap();
            let vars = goals[0].atom.vars();
            let td = solve(&edb, &idb, goal, &vars);
            // Bottom-up reference.
            let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
            let facts = seminaive::eval(
                &edb,
                &idb,
                &plan,
                None,
                DerivedFacts::new(),
                EvalOptions::default(),
            )
            .unwrap();
            // The goals repeat no variable: a row is the matching tuple's
            // values at the goal's variable positions.
            let args = &goals[0].atom.args;
            let pattern: Vec<Option<Value>> = args.iter().map(|t| t.as_const().cloned()).collect();
            let rel = facts.relation(goals[0].atom.pred.as_str()).unwrap();
            let render = |values: Vec<&Value>| {
                let values: Vec<String> = values.iter().map(ToString::to_string).collect();
                values.join(",")
            };
            let mut td_set: Vec<String> = td
                .iter()
                .map(|row| render(row.values().iter().collect()))
                .collect();
            let mut ref_set: Vec<String> = rel
                .select(&pattern)
                .map(|t| {
                    render(
                        t.values()
                            .iter()
                            .zip(args)
                            .filter(|(_, a)| a.as_var().is_some())
                            .map(|(v, _)| v)
                            .collect(),
                    )
                })
                .collect();
            td_set.sort();
            td_set.dedup();
            ref_set.sort();
            ref_set.dedup();
            assert_eq!(td_set, ref_set, "goal {goal}");
        }
    }

    #[test]
    fn undefined_predicate_has_empty_extension() {
        let (edb, idb) = setup();
        assert!(solve(&edb, &idb, "ghost(X)", &[Var::new("X")]).is_empty());
    }

    #[test]
    fn equality_binds_in_goals() {
        let (edb, idb) = setup();
        assert_eq!(
            names(&edb, &idb, "C = databases, enroll(X, C)", "X"),
            ["ann", "bob"]
        );
    }

    #[test]
    fn call_plans_are_cached_per_adornment() {
        let (edb, idb) = setup();
        let plan = ProgramPlan::compile_with_stats(&idb, edb.stats());
        let solve = |goal: &str| {
            let goals = parse_body(goal).unwrap();
            Solver::with_plan(&edb, &idb, &plan, EvalOptions::default())
                .solve_all(&goals, &[])
                .unwrap();
        };
        // Two calls with the same binding shape share one specialization,
        // though each ran in a solver of its own.
        solve("honor(ann)");
        solve("honor(bob)");
        assert_eq!(plan.call_plan_count(), 1);
        // A differently adorned call adds a second specialization.
        solve("honor(X)");
        assert_eq!(plan.call_plan_count(), 2);
    }
}
