//! The knowledge base facade: one coherent instrument for data and
//! knowledge. `state` holds the struct and its accessors, `mutate`
//! everything that takes `&mut self`, `serve` everything a reader calls.

mod mutate;
mod serve;
mod state;

pub use state::KnowledgeBase;

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.load(
            "predicate student(Sname, Major, Gpa) key 1.\n\
             predicate enroll(Sname, Ctitle).\n\
             student(ann, math, 3.9).\n\
             student(bob, math, 3.5).\n\
             enroll(ann, databases).\n\
             honor(X) :- student(X, Y, Z), Z > 3.7.",
        )
        .unwrap();
        kb
    }

    #[test]
    fn transaction_commits_or_rolls_back_atomically() {
        let mut kb = mini_kb();
        // Commit: the closure observes its own writes, and they stick.
        let n = kb
            .transaction(|kb| {
                kb.run("student(cara, math, 3.95).")?;
                kb.run("enroll(cara, databases).")?;
                Ok(kb.edb().fact_count())
            })
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(kb.edb().fact_count(), 5);
        // Rollback: an error anywhere undoes every write in the batch,
        // including rule additions.
        let before = kb.dump();
        let err = kb.transaction(|kb| {
            kb.run("student(dan, physics, 2.8).")?;
            kb.run("star(X) :- student(X, M, G), G > 3.8.")?;
            kb.run("this is not a statement.")?;
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(kb.dump(), before);
        assert_eq!(kb.edb().fact_count(), 5);
        assert_eq!(kb.idb().len(), 1);
        // Nested transactions flatten into the outer one.
        kb.transaction(|kb| {
            kb.transaction(|kb| kb.run("enroll(bob, algebra).").map(|_| ()))?;
            Ok(())
        })
        .unwrap();
        assert_eq!(kb.edb().fact_count(), 6);
    }

    #[test]
    fn twin_statements_through_one_instrument() {
        let mut kb = mini_kb();
        // "Retrieve the honor students" — data.
        let data = kb.run("retrieve honor(X).").unwrap();
        let d = data.as_data().unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains_row(&["ann"]));
        // "Describe the honor students" — knowledge.
        let knowledge = kb.run("describe honor(X).").unwrap();
        let k = knowledge.as_knowledge().unwrap();
        assert_eq!(
            k.rendered(),
            vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)"]
        );
    }

    #[test]
    fn facts_go_to_edb_rules_to_idb() {
        let kb = mini_kb();
        assert_eq!(kb.edb().fact_count(), 3);
        assert_eq!(kb.idb().len(), 1);
        assert_eq!(kb.keys().get("student"), Some(&1));
    }

    #[test]
    fn ground_idb_fact_is_a_rule() {
        // A ground clause whose predicate is *not* declared becomes an IDB
        // fact-rule rather than an EDB fact.
        let mut kb = mini_kb();
        kb.run("special(ann).").unwrap();
        assert!(kb.idb().defines("special"));
    }

    #[test]
    fn duplicate_fact_acknowledged() {
        let mut kb = mini_kb();
        let a = kb.run("student(ann, math, 3.9).").unwrap();
        assert!(a.to_string().contains("already stored"));
    }

    #[test]
    fn constraints_are_recorded() {
        let mut kb = mini_kb();
        kb.run(":- honor(X), suspended(X).").unwrap();
        assert_eq!(kb.constraints().len(), 1);
    }

    #[test]
    fn retract_show_and_explain() {
        let mut kb = mini_kb();
        // Retract flips the data answer.
        assert_eq!(
            kb.run("retrieve honor(X).")
                .unwrap()
                .as_data()
                .unwrap()
                .len(),
            1
        );
        let a = kb.run("retract student(ann, math, 3.9).").unwrap();
        assert!(a.to_string().contains("retracted"));
        assert!(kb
            .run("retrieve honor(X).")
            .unwrap()
            .as_data()
            .unwrap()
            .is_empty());
        // Retracting again reports absence.
        let a = kb.run("retract student(ann, math, 3.9).").unwrap();
        assert!(a.to_string().contains("not stored"));

        // Show lists the catalog, the rules and the constraints.
        let preds = kb.run("show predicates.").unwrap().to_string();
        assert!(
            preds.contains("student(Sname, Major, Gpa) key 1"),
            "{preds}"
        );
        assert!(preds.contains("facts"), "{preds}");
        let rules = kb.run("show rules.").unwrap().to_string();
        assert!(rules.contains("honor(X) :-"), "{rules}");
        kb.run(":- honor(X), suspended(X).").unwrap();
        let cons = kb.run("show constraints.").unwrap().to_string();
        assert!(cons.contains("suspended"), "{cons}");

        // Explain renders theorems with their derivations.
        let ex = kb.run("explain honor(X).").unwrap().to_string();
        assert!(ex.contains("honor(X) ←"), "{ex}");
        assert!(ex.contains("definition:"), "{ex}");
    }

    #[test]
    fn dump_load_roundtrip() {
        let mut kb = crate::datasets::university_extended();
        let dumped = kb.dump();
        let mut restored = KnowledgeBase::new();
        restored.load(&dumped).unwrap();
        assert_eq!(restored.edb().fact_count(), kb.edb().fact_count());
        assert_eq!(restored.idb().len(), kb.idb().len());
        assert_eq!(restored.constraints().len(), kb.constraints().len());
        assert_eq!(restored.keys().len(), kb.keys().len());
        // Queries agree on the restored copy.
        let q = "retrieve honor(X) where enroll(X, databases).";
        let a = kb.run(q).unwrap();
        let b = restored.run(q).unwrap();
        assert_eq!(a.as_data().unwrap().sorted(), b.as_data().unwrap().sorted());
        let q = "describe can_ta(X, Y) where honor(X) and teach(susan, Y).";
        let a = kb.run(q).unwrap();
        let b = restored.run(q).unwrap();
        assert_eq!(
            a.as_knowledge().unwrap().rendered(),
            b.as_knowledge().unwrap().rendered()
        );
        // Dump is idempotent.
        assert_eq!(restored.dump(), dumped);
    }

    #[test]
    fn plan_cache_fills_on_query_and_survives_fact_mutations() {
        let mut kb = mini_kb();
        assert!(!kb.plan_cached());
        kb.run("retrieve honor(X).").unwrap();
        assert!(kb.plan_cached());
        // Reads keep the cache.
        kb.run("show rules.").unwrap();
        assert!(kb.plan_cached());
        // Fact-only mutations keep it too: compilation depends on rules,
        // not data, so declares/asserts/retracts never force a recompile.
        kb.run("student(cara, math, 3.95).").unwrap();
        assert!(kb.plan_cached());
        kb.run("retract student(cara, math, 3.95).").unwrap();
        kb.declare("lab", &["name"], None).unwrap();
        assert!(kb.plan_cached());
        // Rule and constraint changes advance the generation: the cached
        // entry is stale and the next query recompiles.
        kb.run("star(X) :- student(X, M, G), G > 3.8.").unwrap();
        assert!(!kb.plan_cached());
        kb.run("retrieve honor(X).").unwrap();
        assert!(kb.plan_cached());
        kb.run("inconsistent :- honor(X), star(X).").unwrap();
        assert!(!kb.plan_cached());
    }

    #[test]
    fn plan_cache_counters_expose_retention() {
        use qdk_logic::obs::{CollectSink, Event, ObsSink};
        use std::sync::Arc;
        let mut kb = mini_kb();
        // Run one traced retrieve and report which plan-cache counter fired.
        let traced = |kb: &KnowledgeBase| {
            let stmt = crate::parser::parse_statement("retrieve honor(X).").unwrap();
            let collect = Arc::new(CollectSink::new());
            let opts = kb
                .describe_options()
                .clone()
                .with_sink(ObsSink::new(collect.clone()));
            kb.serve(&stmt, kb.strategy(), &opts).unwrap();
            let hits = |wanted: &str| {
                collect
                    .events()
                    .iter()
                    .filter(|e| matches!(e, Event::Counter { name, .. } if *name == wanted))
                    .count()
            };
            (hits("plan_cache_hit"), hits("plan_cache_miss"))
        };
        // First query compiles, second hits.
        assert_eq!(traced(&kb), (0, 1));
        assert_eq!(traced(&kb), (1, 0));
        // A fact write does not spend the cache...
        kb.run("student(cara, math, 3.95).").unwrap();
        assert_eq!(traced(&kb), (1, 0));
        // ...but a rule write does.
        kb.run("star(X) :- student(X, M, G), G > 3.8.").unwrap();
        assert_eq!(traced(&kb), (0, 1));
    }

    #[test]
    fn answers_track_mutations_through_the_cache() {
        let mut kb = mini_kb();
        // Fill the cache, then mutate facts and rules: answers must
        // reflect every change, never a stale compilation.
        assert_eq!(
            kb.run("retrieve honor(X).")
                .unwrap()
                .as_data()
                .unwrap()
                .len(),
            1
        );
        kb.run("student(cara, math, 3.95).").unwrap();
        assert_eq!(
            kb.run("retrieve honor(X).")
                .unwrap()
                .as_data()
                .unwrap()
                .len(),
            2
        );
        kb.run("star(X) :- student(X, M, G), G > 3.8.").unwrap();
        let stars = kb.run("retrieve star(X).").unwrap();
        let stars = stars.as_data().unwrap();
        assert_eq!(stars.len(), 2);
        assert!(stars.contains_row(&["ann"]) && stars.contains_row(&["cara"]));
        kb.run("retract student(cara, math, 3.95).").unwrap();
        assert_eq!(
            kb.run("retrieve star(X).")
                .unwrap()
                .as_data()
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn describe_respects_constraints() {
        let mut kb = KnowledgeBase::new();
        kb.load(
            "predicate demographic(S, N, M) key 1.\n\
             foreign(X) :- demographic(X, N, M), N != usa.\n\
             unmarried(X) :- demographic(X, N, single).\n\
             visa_ok(X) :- foreign(X), unmarried(X).\n\
             visa_ok(X) :- foreign(X), sponsor(X).\n\
             :- foreign(X), unmarried(X).",
        )
        .unwrap();
        let a = kb.run("describe visa_ok(X).").unwrap();
        let k = a.as_knowledge().unwrap();
        // The foreign ∧ unmarried definition is forbidden by the
        // constraint; only the sponsor rule survives.
        assert_eq!(k.len(), 1, "{k}");
        assert!(k.rendered()[0].contains("sponsor"), "{k}");
    }

    #[test]
    fn disjunctive_describe_through_language() {
        let mut kb = mini_kb();
        let a = kb
            .run("describe honor(X) where student(X, math, V) and V > 3.8 or student(X, M, W) and W > 3.9.")
            .unwrap();
        // Both disjuncts entail the GPA bound: the unconditional theorem
        // survives the intersection.
        assert_eq!(a.as_knowledge().unwrap().rendered(), vec!["honor(X)"]);
    }

    #[test]
    fn errors_propagate() {
        let mut kb = mini_kb();
        assert!(kb.run("retrieve honor(X) where").is_err()); // parse
        assert!(kb.run("describe student(X, Y, Z).").is_err()); // not IDB
        assert!(kb.run("enroll(ann).").is_err()); // arity
    }
}
