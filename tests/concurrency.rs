//! Snapshot-isolated concurrent serving: one writer publishing epochs,
//! many readers pinning immutable snapshots.
//!
//! The contract under test (DESIGN.md §15):
//!
//! * a [`qdk::SnapshotSession`] is `Send + Sync` and answers queries
//!   against exactly the epoch it pinned — byte-identical to a
//!   sequential run over the same state, at every worker count,
//!   including completeness tags and `Exhausted` diagnostics;
//! * a reader opened before a publish never observes it; `refresh()`
//!   hops to the newest epoch explicitly;
//! * a single writer batching mutations between publishes never blocks
//!   readers, and every reader sees a whole batch or none of it.

use proptest::prelude::*;
use qdk::{EpochId, Parallelism, Request, ResourceLimits, Session, SnapshotSession, Strategy};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// The reader worker counts required by the acceptance criteria.
const WORKER_COUNTS: [usize; 2] = [1, 4];

fn routing_session(edges: &[(u32, u32)]) -> Session {
    let mut s = Session::new();
    s.load(
        "predicate edge(F, T).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).",
    )
    .unwrap();
    for (f, t) in edges {
        s.run(&format!("edge(n{f}, n{t}).")).unwrap();
    }
    s
}

/// The canonical byte rendering of one retrieve over a snapshot: rows in
/// display order, plus any downgrades. Sorting is *not* applied — the
/// point is that the engine itself is deterministic per snapshot.
fn answer_bytes(snap: &SnapshotSession, request: Request) -> String {
    let resp = snap.retrieve(request).unwrap();
    format!("{resp}|downgrades={:?}", resp.downgrades())
}

#[test]
fn snapshot_handles_are_send_sync_and_clone() {
    fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<SnapshotSession>();
}

#[test]
fn reader_opened_before_publish_never_observes_it() {
    let mut s = routing_session(&[(1, 2), (2, 3)]);
    let old = s.snapshot().unwrap();
    let before = answer_bytes(&old, Request::subject("path(X, Y)"));
    assert_eq!(old.knowledge_base().edb().fact_count(), 2);

    // Writer keeps mutating and publishing; the pinned handle is frozen.
    s.run("edge(n3, n4).").unwrap();
    let e2 = s.publish().unwrap();
    assert!(e2 > old.epoch());
    assert_eq!(old.knowledge_base().edb().fact_count(), 2);
    assert_eq!(answer_bytes(&old, Request::subject("path(X, Y)")), before);

    // An explicit refresh hops to the new epoch.
    let mut fresh = old.clone();
    assert!(fresh.refresh());
    assert_eq!(fresh.epoch(), e2);
    assert_eq!(fresh.knowledge_base().edb().fact_count(), 3);
    assert!(!fresh.refresh(), "nothing newer published");
    // The original handle still hasn't moved.
    assert_eq!(old.knowledge_base().edb().fact_count(), 2);
}

#[test]
fn answers_are_byte_identical_at_every_worker_count() {
    let mut s = routing_session(&[(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]);
    let snap = s.snapshot().unwrap();
    for strategy in Strategy::ALL {
        let reference = answer_bytes(
            &snap,
            Request::subject("path(X, Y)")
                .strategy(strategy)
                .parallelism(Parallelism::SEQUENTIAL),
        );
        for workers in WORKER_COUNTS {
            let got = answer_bytes(
                &snap,
                Request::subject("path(X, Y)")
                    .strategy(strategy)
                    .parallelism(Parallelism::workers(workers)),
            );
            assert_eq!(got, reference, "{strategy:?} with {workers} workers");
        }
    }
}

#[test]
fn concurrent_readers_agree_with_the_sequential_run() {
    let mut s = routing_session(&[(1, 2), (2, 3), (3, 4), (4, 5)]);
    let snap = s.snapshot().unwrap();
    let reference = Arc::new(answer_bytes(
        &snap,
        Request::subject("path(X, Y)").parallelism(Parallelism::SEQUENTIAL),
    ));
    let handles: Vec<_> = WORKER_COUNTS
        .into_iter()
        .map(|workers| {
            let snap = snap.clone();
            let reference = Arc::clone(&reference);
            thread::spawn(move || {
                for _ in 0..10 {
                    let got = answer_bytes(
                        &snap,
                        Request::subject("path(X, Y)").parallelism(Parallelism::workers(workers)),
                    );
                    assert_eq!(got, *reference, "{workers} workers");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn exhausted_diagnostics_are_deterministic_across_snapshots() {
    let mut s = routing_session(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]);
    let snap = s.snapshot().unwrap();
    let tight =
        || Request::subject("path(X, Y)").limits(ResourceLimits::default().with_work_budget(3));
    let reference = format!(
        "{:?}",
        snap.retrieve(tight()).unwrap_err().exhausted().unwrap()
    );
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let snap = snap.clone();
            let reference = reference.clone();
            thread::spawn(move || {
                let got = format!(
                    "{:?}",
                    snap.retrieve(tight()).unwrap_err().exhausted().unwrap()
                );
                assert_eq!(got, reference);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn describe_completeness_tags_survive_the_snapshot_path() {
    let mut s = Session::new();
    s.load(
        "predicate student(Sname, Major, Gpa) key 1.\n\
         student(ann, math, 3.9).\n\
         honor(X) :- student(X, Y, Z), Z > 3.7.",
    )
    .unwrap();
    let snap = s.snapshot().unwrap();
    let direct = s.describe(Request::subject("honor(X)")).unwrap();
    let snapped = snap.describe(Request::subject("honor(X)")).unwrap();
    let render = |r: &qdk::Response| {
        let k = r.as_knowledge().unwrap();
        format!("{:?}|{:?}", k.rendered(), k.completeness)
    };
    assert_eq!(render(&snapped), render(&direct));
}

#[test]
fn batches_publish_atomically_to_refreshing_readers() {
    let mut s = routing_session(&[(0, 1)]);
    let mut reader = s.snapshot().unwrap();
    // Readers refreshing mid-batch must see either the whole batch or
    // none of it: each batch adds a chain link AND its marker fact, so
    // fact_count per epoch is always odd (1 edge + k*(2)).
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let stop = Arc::clone(&stop);
        let reader = reader.clone();
        thread::spawn(move || {
            let mut reader = reader;
            let mut last = EpochId(0);
            while !stop.load(Ordering::Relaxed) {
                reader.refresh();
                let epoch = reader.epoch();
                assert!(epoch >= last, "epochs must be monotonic");
                last = epoch;
                let n = reader.knowledge_base().edb().fact_count();
                assert_eq!(n % 2, 1, "observed a half-applied batch: {n} facts");
            }
        })
    };
    for i in 1..20u32 {
        s.batch(|kb| {
            kb.run(&format!("edge(n{i}, n{j}).", j = i + 1))?;
            kb.run(&format!("edge(m{i}, m{i}).")).map(|_| ())
        })
        .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();
    assert!(reader.refresh());
    assert_eq!(reader.knowledge_base().edb().fact_count(), 39);
}

/// Satellite (c): one writer batching epochs while N readers pin
/// snapshots; every reader's answer must be byte-identical to the
/// sequential answer for the epoch it pinned.
#[test]
fn pinned_readers_match_sequential_answers_per_epoch() {
    let mut s = routing_session(&[(0, 1)]);
    // Build the epoch history up front: epoch -> expected bytes, computed
    // through the ordinary (non-snapshot) sequential path on the writer.
    let mut expected: HashMap<EpochId, String> = HashMap::new();
    let mut record = |s: &mut Session, epoch: EpochId| {
        let snap_free = s
            .retrieve(Request::subject("path(X, Y)").parallelism(Parallelism::SEQUENTIAL))
            .unwrap();
        expected.insert(
            epoch,
            format!("{snap_free}|downgrades={:?}", snap_free.downgrades()),
        );
    };
    let first = s.snapshot().unwrap();
    record(&mut s, first.epoch());
    let mut snapshots = vec![first];
    for i in 1..8u32 {
        s.run(&format!("edge(n{i}, n{j}).", j = i + 1)).unwrap();
        let snap = s.snapshot().unwrap();
        record(&mut s, snap.epoch());
        snapshots.push(snap);
    }
    let expected = Arc::new(expected);
    // Readers at every worker count, each re-checking every pinned epoch.
    let handles: Vec<_> = WORKER_COUNTS
        .into_iter()
        .map(|workers| {
            let snapshots = snapshots.clone();
            let expected = Arc::clone(&expected);
            thread::spawn(move || {
                for snap in &snapshots {
                    let got = answer_bytes(
                        snap,
                        Request::subject("path(X, Y)").parallelism(Parallelism::workers(workers)),
                    );
                    assert_eq!(
                        got,
                        expected[&snap.epoch()],
                        "epoch {} at {workers} workers",
                        snap.epoch()
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised writer/reader interleavings: arbitrary edge batches
    /// published over a run of epochs; snapshots taken at arbitrary
    /// points answer exactly like a fresh KB holding the same facts.
    #[test]
    fn snapshot_answers_equal_rebuilt_kb_answers(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u32..6, 0u32..6), 1..4),
            1..6,
        ),
    ) {
        let mut s = routing_session(&[]);
        let mut all: Vec<(u32, u32)> = Vec::new();
        let mut pinned: Vec<(SnapshotSession, Vec<(u32, u32)>)> = Vec::new();
        for batch in &batches {
            s.batch(|kb| {
                for (f, t) in batch {
                    kb.run(&format!("edge(n{f}, n{t})."))?;
                }
                Ok(())
            }).unwrap();
            all.extend(batch.iter().copied());
            pinned.push((s.snapshot().unwrap(), all.clone()));
        }
        for (snap, facts) in &pinned {
            // A fresh, never-shared KB with the same facts is ground truth.
            let ground = routing_session(facts);
            let want = ground
                .retrieve(Request::subject("path(X, Y)").parallelism(Parallelism::SEQUENTIAL))
                .unwrap()
                .to_string();
            let got = snap
                .retrieve(Request::subject("path(X, Y)").parallelism(Parallelism::SEQUENTIAL))
                .unwrap()
                .to_string();
            prop_assert_eq!(got, want);
        }
    }
}
