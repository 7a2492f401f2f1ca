//! Everything a reader calls. [`KnowledgeBase::serve`] is the one place
//! a read statement is evaluated — `retrieve`, the `describe` family,
//! `compare`, `explain`, `show` — under whatever strategy and options the
//! caller resolved; beside it, the lookups it needs: the compiled plan,
//! the prepared rule base, the describe-answer cache.

use super::KnowledgeBase;
use crate::answer::Answer;
use crate::ast::{ShowKind, Statement};
use crate::error::{LangError, Result};
use qdk_core::{
    compare, extensions, Completeness, Describe, DescribeAnswer, DescribeError, DescribeOptions,
    PreparedIdb, Theorem,
};
use qdk_engine::{
    query, AutoChoice, DataAnswer, EvalOptions, MaintainedStore, ProgramPlan, Retrieve, Strategy,
};
use qdk_logic::obs::ObsSink;
use qdk_logic::Governor;
use std::sync::Arc;

impl KnowledgeBase {
    /// Evaluates one read statement — the only code that does. `strategy`
    /// picks the `retrieve` evaluator (every other statement ignores it);
    /// `opts` carries the resource limits, cancellation token and
    /// observability sink that govern *every* kind, plus the describe
    /// policies. A statement that would change the knowledge
    /// base is refused with [`LangError::ReadOnly`], never executed.
    ///
    /// Everything the statement needs from the rules alone — the compiled
    /// program, the describe preparation, a cached describe answer — comes
    /// from this knowledge base's rules generation, built by whichever
    /// holder of the generation (the writer or a reader of any of its
    /// epochs) needed it first. A published epoch's plan was built at
    /// publish, so a snapshot retrieve reads it without a lock.
    ///
    /// A `retrieve` traces as the stages `plan` + `execute` (one
    /// `execute` when the maintained store answers it), everything else
    /// as one `execute` stage.
    pub fn serve(
        &self,
        stmt: &Statement,
        strategy: Strategy,
        opts: &DescribeOptions,
    ) -> Result<Answer> {
        let retrieve = matches!(stmt, Statement::Retrieve(_));
        let _span = (!retrieve).then(|| opts.sink.span("execute", 0));
        let rules = &*self.rules;
        Ok(match stmt {
            Statement::Retrieve(r) => Answer::Data(self.retrieve(r, strategy, opts)?),
            Statement::Describe(d) => Answer::Knowledge(self.describe(d, opts)?),
            Statement::Explain(d) => Answer::Ack(explain(&*self.describe(d, opts)?)),
            Statement::DescribeNecessary(d) => Answer::Knowledge(Arc::new(
                self.prepared(opts)
                    .describe_necessary(&rules.constraints, d, opts)?,
            )),
            Statement::DescribeDisjunctive { subject, disjuncts } => {
                Answer::Knowledge(Arc::new(self.prepared(opts).describe_disjunctive(
                    &rules.constraints,
                    subject,
                    disjuncts,
                    opts,
                )?))
            }
            Statement::DescribeWithout { subject, negated } => Answer::Necessity(
                extensions::describe_without(&rules.idb, subject, negated, opts)?,
            ),
            Statement::DescribePossible { hypothesis } => {
                Answer::Possibility(extensions::describe_possible(
                    &rules.idb,
                    hypothesis,
                    &self.keys,
                    &rules.constraints,
                    opts,
                )?)
            }
            Statement::DescribeWildcard { hypothesis } => Answer::Wildcard(
                self.prepared(opts)
                    .describe_wildcard(&rules.constraints, hypothesis, opts)?,
            ),
            Statement::Compare { first, second } => {
                Answer::Comparison(Box::new(compare::compare(&rules.idb, first, second, opts)?))
            }
            Statement::Show(kind) => {
                // A listing has no evaluation to bound, but a request
                // cancelled (or past its deadline) before it starts is
                // refused like any other.
                Governor::new(opts.limits)
                    .with_cancel(opts.cancel.clone())
                    .poll()
                    .map_err(DescribeError::Exhausted)?;
                Answer::Ack(self.show(*kind))
            }
            Statement::Declare { .. }
            | Statement::Clause(_)
            | Statement::Constraint(_)
            | Statement::Retract(_) => return Err(LangError::ReadOnly(stmt.to_string())),
        })
    }

    /// `retrieve` (data query, §3.1). The same resource limits and
    /// cancellation token that govern `describe` bound the engine
    /// evaluation: this is the one place the engine's
    /// [`EvalOptions`] are derived from the describe options. When the
    /// maintained store is live and the strategy is `Auto` or semi-naive,
    /// the answer is projected straight from the maintained derived facts
    /// — no fixpoint runs. Otherwise a QSQ net keeps its relations in this
    /// data epoch's tables, so a subquery is answered once per epoch.
    fn retrieve(
        &self,
        r: &Retrieve,
        strategy: Strategy,
        opts: &DescribeOptions,
    ) -> Result<DataAnswer> {
        let obs = &opts.sink;
        let idb = &self.rules.idb;
        let eval = EvalOptions {
            limits: opts.limits,
            cancel: opts.cancel.clone(),
            sink: obs.clone(),
        };
        if let Some(store) = self.maintained_for(strategy) {
            let _span = obs.span("execute", 0);
            obs.counter("maintained_serve", 1);
            let mut answer =
                query::retrieve_precomputed_with(&self.edb, idb, store.derived(), r, eval)?;
            if strategy == Strategy::Auto {
                obs.counter(AutoChoice::Maintained.counter(), 1);
                answer.auto = Some(AutoChoice::Maintained);
            }
            self.surface_pending(&mut answer, obs);
            return Ok(answer);
        }
        let plan = {
            let _span = obs.span("plan", 0);
            let (plan, hit) = self.plan();
            let name = if hit {
                "plan_cache_hit"
            } else {
                "plan_cache_miss"
            };
            obs.counter(name, 1);
            plan
        };
        let _span = obs.span("execute", 0);
        let tables = Some(&*self.qsq);
        let mut answer = query::retrieve_tabled(&self.edb, idb, plan, tables, r, strategy, eval)?;
        self.surface_pending(&mut answer, obs);
        Ok(answer)
    }

    /// `describe` (knowledge query, §3.2), respecting declared integrity
    /// constraints: theorems whose bodies the constraints forbid are
    /// discarded. Complete, unbounded answers are cached by subject
    /// signature and survive fact churn untouched (a describe answer
    /// never reads the EDB); rule and constraint changes evict per
    /// predicate closure. Both the cache and the rule base an answer that
    /// has to be computed runs over (built by the first describe-family
    /// statement that needs it) belong to the rules generation.
    fn describe(&self, d: &Describe, opts: &DescribeOptions) -> Result<Arc<DescribeAnswer>> {
        let cache = &self.rules.describe_cache;
        let key = describe_cache_key(d, opts);
        if let Some(k) = &key {
            if let Some(hit) = cache.lock().get(d.subject.pred.as_str(), k) {
                opts.sink.counter("describe_cache_hit", 1);
                return Ok(hit);
            }
            opts.sink.counter("describe_cache_miss", 1);
        }
        let prep = self.prepared(opts);
        let mut answer = prep.describe_with_constraints(&self.rules.constraints, d, opts)?;
        let Some(k) = key.filter(|_| !answer.is_truncated()) else {
            return Ok(Arc::new(answer));
        };
        // The cache keeps this very answer: drop what building it left
        // spare, as a copy would.
        answer.shrink_to_fit();
        let answer = Arc::new(answer);
        let closure = prep.answer_closure(d);
        cache
            .lock()
            .insert(d.subject.pred.as_str(), k, closure, Arc::clone(&answer));
        Ok(answer)
    }

    /// The listing of a `show` statement.
    fn show(&self, kind: ShowKind) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // Writing into a String cannot fail; the results are
        // discarded rather than unwrapped.
        match kind {
            ShowKind::Predicates => {
                for schema in self.edb.catalog().iter() {
                    let count = self
                        .edb
                        .relation(schema.name.as_str())
                        .map_or(0, |r| r.len());
                    let _ = write!(out, "{schema}");
                    if let Some(k) = self.keys.get(&schema.name) {
                        let _ = write!(out, " key {k}");
                    }
                    let _ = writeln!(out, " — {count} facts");
                }
            }
            ShowKind::Rules => {
                for rule in self.rules.idb.rules() {
                    let _ = writeln!(out, "{rule}");
                }
            }
            ShowKind::Constraints => {
                for c in &self.rules.constraints {
                    let _ = writeln!(out, "{c}");
                }
            }
        }
        out.trim_end().to_string()
    }

    /// The maintained store, when `strategy` can serve from it. Semi-naive
    /// computes exactly the maintained fixpoint, so the stored derived
    /// facts *are* its answer, and `Auto` takes them before it considers
    /// any evaluator (row 1 of its table: nothing beats not evaluating).
    /// A pinned goal-directed strategy keeps its own evaluation.
    fn maintained_for(&self, strategy: Strategy) -> Option<&MaintainedStore> {
        match strategy {
            Strategy::Auto | Strategy::SemiNaive => self.maintained.as_ref(),
            Strategy::TopDown | Strategy::Qsq => None,
        }
    }

    /// Moves queued maintenance downgrades onto `answer`, ahead of any
    /// evaluation downgrades (they happened first).
    fn surface_pending(&self, answer: &mut DataAnswer, obs: &ObsSink) {
        let drained = std::mem::take(&mut *self.pending.lock());
        if drained.is_empty() {
            return;
        }
        obs.counter("downgrade", drained.len() as u64);
        answer.downgrades.splice(0..0, drained);
    }

    /// The compiled program for the current rules generation, compiling
    /// it (against a fresh cardinality snapshot of the EDB) if no holder
    /// of the generation has yet, without emitting query counters.
    pub fn compiled_plan(&self) -> Arc<ProgramPlan> {
        Arc::clone(self.plan().0)
    }

    /// [`Self::compiled_plan`], borrowed, with whether it was already
    /// built. Concurrent readers that find it missing compile it once.
    pub(super) fn plan(&self) -> (&Arc<ProgramPlan>, bool) {
        let mut hit = true;
        let plan = self.rules.plan.get_or_init(|| {
            hit = false;
            Arc::new(ProgramPlan::compile_with_stats(
                &self.rules.idb,
                self.edb.stats(),
            ))
        });
        (plan, hit)
    }

    /// The rule base prepared for the describe family under
    /// `opts.transform`, built on first use in each rules generation. The
    /// `transform` span covers the lookup and, on a miss, the build.
    fn prepared(&self, opts: &DescribeOptions) -> Arc<PreparedIdb> {
        let _span = opts.sink.span("transform", 0);
        let mut slot = self.rules.prepared.lock();
        let (prep, name) = match &*slot {
            Some(prep) if prep.policy() == opts.transform => {
                (Arc::clone(prep), "describe_prep_hit")
            }
            _ => {
                let prep = Arc::new(PreparedIdb::prepare(&self.rules.idb, opts.transform));
                *slot = Some(Arc::clone(&prep));
                (prep, "describe_prep_miss")
            }
        };
        opts.sink.counter(name, 1);
        prep
    }

    /// True if the compiled program for the current rules generation is
    /// built — i.e. the next retrieve will hit, not compile (test hook).
    #[cfg(test)]
    pub(crate) fn plan_cached(&self) -> bool {
        self.rules.plan.get().is_some()
    }
}

/// The text of an `explain`: each theorem with its derivation tree, then
/// the completeness line `describe` prints. With no theorem to show it is
/// `describe`'s own rendering (no theorems, a contradiction, or nothing
/// found before a truncation).
fn explain(answer: &DescribeAnswer) -> String {
    if answer.theorems.is_empty() {
        return answer.to_string().trim_end().to_string();
    }
    let mut text: String = answer.theorems.iter().map(Theorem::explain).collect();
    if let Completeness::Truncated(e) = answer.completeness {
        text.push_str(&format!("-- truncated: {e}"));
    }
    text.trim_end().to_string()
}

/// The describe-cache key for `d` under `opts`, `None` when the
/// combination is not cacheable: bounded or cancellable evaluations can
/// be cut short by wall-clock-dependent limits, so their answers never
/// enter the cache.
fn describe_cache_key(d: &Describe, opts: &DescribeOptions) -> Option<String> {
    if opts.cancel.is_some() || opts.limits != qdk_core::ResourceLimits::default() {
        return None;
    }
    Some(format!(
        "{d}|fb={:?}|tr={:?}|untyped={}|simp={}|rr={}",
        opts.fallback,
        opts.transform,
        opts.untyped_rule_limit,
        opts.simplify_comparisons,
        opts.remove_redundant
    ))
}
