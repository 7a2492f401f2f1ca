//! Epoch publication for concurrent serving.
//!
//! A [`Publisher`] owns the single writer's side of an
//! [`EpochCell`]: after a batch of mutations it freezes the current
//! [`KnowledgeBase`] into an immutable [`KbState`] and publishes it
//! atomically. Readers pin `(version, Arc<KbState>)` pairs and retrieve
//! without taking any lock: the knowledge base's copy-on-write storage
//! means the clone taken at publish time shares every tuple segment and
//! index shard the next batch does not touch, so a publish — and the
//! refresh that later drops the epoch it replaced — costs what the batch
//! touched.

use std::sync::Arc;

use qdk_storage::{EpochCell, EpochId};

use crate::error::Result;
use crate::kb::KnowledgeBase;

/// One published epoch: an immutable knowledge base. Its facts are the
/// epoch's own; its rules generation — rules, constraints, compiled plan,
/// describe preparation and describe cache — is shared with the writer
/// and with every epoch published while the rules stay unchanged. The
/// plan is built before the epoch is published, so readers answer
/// retrieves without locking it; a preparation or a describe answer any
/// holder of the generation builds is there for all the others, the
/// writer included, with no publish in between. The epoch's QSQ tables
/// are shared the same way by its readers and, until its next change, by
/// the writer.
#[derive(Debug)]
pub struct KbState {
    /// Which epoch this state was published as.
    pub epoch: EpochId,
    /// The frozen knowledge base (facts, rules, constraints, options).
    pub kb: KnowledgeBase,
}

/// The single writer's handle on the epoch cell: batches mutations in a
/// private [`KnowledgeBase`] and publishes immutable snapshots of it.
#[derive(Debug)]
pub struct Publisher {
    cell: Arc<EpochCell<KbState>>,
    last: Arc<KbState>,
}

impl Publisher {
    /// Publishes `kb`'s current state as the first epoch and returns the
    /// writer handle. `kb` stays with the caller; the published state is
    /// a copy-on-write clone.
    pub fn new(kb: &mut KnowledgeBase) -> Result<Publisher> {
        kb.prepare_publish(None)?;
        let state = Arc::new(KbState {
            epoch: EpochId(1),
            kb: kb.clone(),
        });
        Ok(Publisher {
            cell: Arc::new(EpochCell::from_arc(Arc::clone(&state))),
            last: state,
        })
    }

    /// The shared cell readers subscribe to.
    pub fn cell(&self) -> Arc<EpochCell<KbState>> {
        Arc::clone(&self.cell)
    }

    /// The most recently published state.
    pub fn last(&self) -> &Arc<KbState> {
        &self.last
    }

    /// The epoch of the most recent publish.
    pub fn epoch(&self) -> EpochId {
        self.last.epoch
    }

    /// How many reader handles currently pin the latest epoch, not
    /// counting the publisher's own — the `snapshot_pins` metrics gauge.
    /// Readers still pinned to older epochs are not counted (their
    /// `Arc`s reference states the cell no longer holds).
    pub fn pinned_readers(&self) -> u64 {
        self.cell.pinned().saturating_sub(1)
    }

    /// Freezes `kb` and publishes it as the next epoch. Index demand
    /// observed by readers of the previous epoch is adopted first, the
    /// compiled plan is built, and the WAL (if any) is forced to stable
    /// storage *before* the new epoch becomes visible — a published epoch
    /// is always durable. Readers that pinned an older snapshot are
    /// unaffected; they see the new epoch at their next `refresh`.
    pub fn publish(&mut self, kb: &mut KnowledgeBase) -> Result<EpochId> {
        kb.prepare_publish(Some(&self.last.kb))?;
        let epoch = EpochId(self.last.epoch.0 + 1);
        let state = Arc::new(KbState {
            epoch,
            kb: kb.clone(),
        });
        self.last = Arc::clone(&state);
        self.cell.publish_arc(state);
        kb.describe_options().sink.counter("epoch_publish", 1);
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_atom;

    fn kb_with(facts: &[&str]) -> KnowledgeBase {
        let mut kb = KnowledgeBase::new();
        kb.declare("edge", &["from", "to"], None).unwrap();
        for f in facts {
            kb.add_fact(&parse_atom(f).unwrap()).unwrap();
        }
        kb
    }

    #[test]
    fn publish_advances_epochs_and_readers_pin_old_states() {
        let mut kb = kb_with(&["edge(a, b)"]);
        let mut publisher = Publisher::new(&mut kb).unwrap();
        assert_eq!(publisher.epoch(), EpochId(1));

        let cell = publisher.cell();
        let (v1, s1) = cell.load();
        assert_eq!(s1.epoch, EpochId(1));

        kb.add_fact(&parse_atom("edge(b, c)").unwrap()).unwrap();
        let e2 = publisher.publish(&mut kb).unwrap();
        assert_eq!(e2, EpochId(2));

        // The pinned state still sees one fact; a fresh load sees two.
        assert_eq!(s1.kb.edb().relation("edge").unwrap().len(), 1);
        let (v2, s2) = cell.load();
        assert!(v2 > v1);
        assert_eq!(s2.kb.edb().relation("edge").unwrap().len(), 2);
    }

    #[test]
    fn published_state_holds_a_built_plan_for_its_own_rules() {
        let mut kb = kb_with(&["edge(a, b)", "edge(b, c)"]);
        kb.run("path(X, Y) :- edge(X, Y).").unwrap();
        assert!(!kb.plan_cached());
        let mut publisher = Publisher::new(&mut kb).unwrap();
        let s1 = Arc::clone(publisher.last());

        kb.run("path(X, Z) :- edge(X, Y), path(Y, Z).").unwrap();
        assert!(!kb.plan_cached());
        publisher.publish(&mut kb).unwrap();
        let s2 = Arc::clone(publisher.last());

        // Each epoch's plan is built at publish, for its own rule set.
        assert!(s1.kb.plan_cached() && s2.kb.plan_cached());
        assert!(!Arc::ptr_eq(&s1.kb.compiled_plan(), &s2.kb.compiled_plan()));
        assert!(Arc::ptr_eq(&s2.kb.compiled_plan(), &kb.compiled_plan()));
        let r = crate::parser::parse_statement("retrieve path(X, Y).").unwrap();
        let rows = |s: &KbState| {
            let kb = &s.kb;
            kb.serve(&r, kb.strategy(), kb.describe_options())
                .unwrap()
                .into_data()
                .unwrap()
                .rows
                .len()
        };
        // Non-recursive epoch: the two edges. Recursive epoch: plus a→c.
        assert_eq!(rows(&s1), 2);
        assert_eq!(rows(&s2), 3);
    }
}
