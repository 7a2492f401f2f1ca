//! The durable-store handle: one directory holding a WAL and at most one
//! checkpoint, with LSN assignment and checkpoint scheduling.
//!
//! Layout of a store directory:
//!
//! ```text
//! store/
//! ├── wal.log         append-only log (crate::wal)
//! └── checkpoint.ckp  latest snapshot (crate::checkpoint), may be absent
//! ```
//!
//! [`Durable::open`] performs recovery: load the checkpoint if present,
//! scan the WAL, keep only the records past the checkpoint's LSN, and
//! hand both back (as [`Opened`]) for the knowledge base to apply through
//! its ordinary mutation paths. The handle itself never interprets ops —
//! it assigns LSNs, appends, schedules checkpoints and meters bytes.

use crate::checkpoint::{self, CheckpointData, CheckpointView};
use crate::error::{DurabilityError, Result};
use crate::op::WalOp;
use crate::wal::{self, FsyncPolicy, Lsn, RecoveryReport, WalRecord, WalWriter};
use std::path::{Path, PathBuf};

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// Checkpoint file name inside a store directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.ckp";

/// Tuning knobs for a durable store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// How eagerly WAL appends reach stable storage.
    pub fsync: FsyncPolicy,
    /// Take a checkpoint after this many logged ops (`None`: only when
    /// asked explicitly).
    pub checkpoint_every_ops: Option<u64>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::Always,
            checkpoint_every_ops: Some(1024),
        }
    }
}

impl DurabilityOptions {
    /// Fastest safe preset for bulk loads: batched fsync, periodic
    /// checkpoints.
    pub fn bulk_load() -> Self {
        DurabilityOptions {
            fsync: FsyncPolicy::EveryN(64),
            checkpoint_every_ops: Some(8192),
        }
    }
}

/// Counters a durable store accumulates over its lifetime (process-local,
/// not persisted). Mirrored into the obs layer by the session facade.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityMetrics {
    /// Records appended to the WAL since open.
    pub wal_appends: u64,
    /// Bytes appended to the WAL since open (frames + payloads).
    pub wal_bytes: u64,
    /// Fsyncs issued by the WAL writer since open.
    pub wal_fsyncs: u64,
    /// Checkpoints taken since open.
    pub checkpoints: u64,
    /// Bytes written by the latest checkpoint.
    pub last_checkpoint_bytes: u64,
    /// The LSN of the most recent logged mutation (0 if none).
    pub last_lsn: u64,
    /// The LSN the latest checkpoint covers (0 if none) — recovered from
    /// disk on open, so the lag survives restarts.
    pub checkpoint_lsn: u64,
}

impl DurabilityMetrics {
    /// How many logged mutations the latest checkpoint does not cover —
    /// the WAL replay debt a crash right now would incur.
    pub fn checkpoint_lsn_lag(&self) -> u64 {
        self.last_lsn.saturating_sub(self.checkpoint_lsn)
    }
}

/// An open durable store.
#[derive(Debug)]
pub struct Durable {
    dir: PathBuf,
    writer: WalWriter,
    opts: DurabilityOptions,
    next_lsn: Lsn,
    ops_since_checkpoint: u64,
    metrics: DurabilityMetrics,
    report: RecoveryReport,
}

/// What [`Durable::open`] recovered, for the caller to apply before any
/// new mutation: the snapshot (if any), then the WAL tail in log order.
#[derive(Debug)]
pub struct Opened {
    /// The ready-to-append handle.
    pub durable: Durable,
    /// The latest checkpoint, absent on first open or if never taken.
    pub checkpoint: Option<CheckpointData>,
    /// WAL records past the checkpoint, in log order.
    pub tail: Vec<WalRecord>,
    /// Recovery accounting (also retained on the handle).
    pub report: RecoveryReport,
}

impl Durable {
    /// Opens (creating if absent) the store at `dir` and recovers its
    /// state. Never panics on a torn or truncated WAL tail — the damage
    /// is measured and reported instead.
    pub fn open(dir: &Path, opts: DurabilityOptions) -> Result<Opened> {
        std::fs::create_dir_all(dir).map_err(|e| DurabilityError::io("create dir", dir, &e))?;
        let ckp_path = dir.join(CHECKPOINT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let checkpoint = checkpoint::read(&ckp_path)?;
        let floor = checkpoint.as_ref().map(|c| c.last_lsn).unwrap_or_default();
        let scan = wal::scan(&wal_path)?;
        if scan.discarded_tail_bytes > 0 {
            // Physically remove the torn tail so new appends land right
            // after the last intact record, not after garbage the
            // scanner would stop at on the next open.
            wal::truncate_to(&wal_path, scan.valid_len)?;
        }
        // Records at or below the checkpoint LSN are already inside the
        // snapshot (a crash between checkpoint publish and WAL truncate
        // leaves them behind); replay only what the snapshot misses.
        let tail: Vec<WalRecord> = scan.records.into_iter().filter(|r| r.lsn > floor).collect();
        let last_lsn = tail.last().map(|r| r.lsn).unwrap_or(floor);

        let report = RecoveryReport {
            checkpointed: checkpoint
                .as_ref()
                .map(CheckpointData::op_count)
                .unwrap_or(0),
            replayed: tail.len() as u64,
            discarded_tail_bytes: scan.discarded_tail_bytes,
            last_lsn: (last_lsn > Lsn(0)).then_some(last_lsn),
        };

        let writer = WalWriter::open(&wal_path, opts.fsync)?;
        let durable = Durable {
            dir: dir.to_path_buf(),
            writer,
            opts,
            next_lsn: Lsn(last_lsn.0 + 1),
            ops_since_checkpoint: tail.len() as u64,
            metrics: DurabilityMetrics {
                checkpoint_lsn: floor.0,
                ..DurabilityMetrics::default()
            },
            report: report.clone(),
        };
        Ok(Opened {
            durable,
            checkpoint,
            tail,
            report,
        })
    }

    /// Logs one mutation, assigning it the next LSN. Returns the LSN and
    /// the bytes appended. Must be called *before* the mutation is
    /// applied in memory — the WAL discipline.
    pub fn append(&mut self, op: &WalOp) -> Result<(Lsn, u64)> {
        let lsn = self.next_lsn;
        let bytes = self.writer.append(lsn, op)?;
        self.next_lsn = Lsn(lsn.0 + 1);
        self.ops_since_checkpoint += 1;
        self.metrics.wal_appends += 1;
        self.metrics.wal_bytes += bytes;
        Ok((lsn, bytes))
    }

    /// True once enough ops have accumulated that the configured policy
    /// wants a checkpoint.
    pub fn should_checkpoint(&self) -> bool {
        match self.opts.checkpoint_every_ops {
            Some(n) if n > 0 => self.ops_since_checkpoint >= n,
            _ => false,
        }
    }

    /// Writes `state` as a checkpoint covering the current last LSN,
    /// atomically publishes it, then truncates the WAL. Returns the LSN
    /// the checkpoint covers and the bytes written. On an error the WAL
    /// is left whole and the next call retries.
    pub fn checkpoint(&mut self, state: &CheckpointView<'_>) -> Result<(Lsn, u64)> {
        let covered = Lsn(self.next_lsn.0.saturating_sub(1));
        // The store changes little between checkpoints: the last one's
        // size fits the next body without regrowing the buffer.
        let hint = self.metrics.last_checkpoint_bytes as usize;
        let bytes = checkpoint::write(&self.dir.join(CHECKPOINT_FILE), covered, state, hint)?;
        // Truncation is safe only now: the snapshot is published.
        self.writer.truncate_to_header()?;
        self.ops_since_checkpoint = 0;
        self.metrics.checkpoints += 1;
        self.metrics.last_checkpoint_bytes = bytes;
        self.metrics.checkpoint_lsn = covered.0;
        Ok((covered, bytes))
    }

    /// Forces the WAL to stable storage regardless of the fsync policy.
    pub fn sync(&mut self) -> Result<()> {
        self.writer.sync()
    }

    /// The LSN of the most recent logged mutation (`Lsn(0)` if none yet).
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.next_lsn.0.saturating_sub(1))
    }

    /// Lifetime counters, with the fsync count and LSN positions sampled
    /// at call time.
    pub fn metrics(&self) -> DurabilityMetrics {
        let mut m = self.metrics;
        m.wal_fsyncs = self.writer.fsyncs();
        m.last_lsn = self.last_lsn().0;
        m
    }

    /// What recovery found when this handle was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the store was opened with.
    pub fn options(&self) -> DurabilityOptions {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::RelationSnapshot;
    use qdk_logic::parser::parse_atom;
    use qdk_storage::{Tuple, Value};
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qdk-durable-{tag}-{}-{n}", std::process::id()))
    }

    fn opts() -> DurabilityOptions {
        DurabilityOptions {
            fsync: FsyncPolicy::Never,
            checkpoint_every_ops: Some(3),
        }
    }

    fn fact(text: &str) -> WalOp {
        WalOp::add_fact(&parse_atom(text).unwrap()).unwrap()
    }

    #[test]
    fn fresh_store_opens_empty_then_recovers_appends() {
        let dir = temp_dir("fresh");
        {
            let opened = Durable::open(&dir, opts()).unwrap();
            assert_eq!(opened.report, RecoveryReport::default());
            let mut d = opened.durable;
            assert_eq!(d.append(&fact("edge(a, b)")).unwrap().0, Lsn(1));
            assert_eq!(d.append(&fact("edge(b, c)")).unwrap().0, Lsn(2));
            d.sync().unwrap();
            assert_eq!(d.metrics().wal_appends, 2);
        }
        let opened = Durable::open(&dir, opts()).unwrap();
        assert_eq!(opened.tail.len(), 2);
        assert_eq!(opened.report.replayed, 2);
        assert_eq!(opened.report.last_lsn, Some(Lsn(2)));
        assert_eq!(opened.durable.last_lsn(), Lsn(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_wal_and_lsns_stay_monotonic() {
        let dir = temp_dir("ckp");
        {
            let mut d = Durable::open(&dir, opts()).unwrap().durable;
            d.append(&fact("edge(a, b)")).unwrap();
            d.append(&fact("edge(b, c)")).unwrap();
            d.append(&fact("edge(c, d)")).unwrap();
            assert!(d.should_checkpoint());
            let data = CheckpointData {
                relations: vec![RelationSnapshot {
                    name: "edge".into(),
                    attrs: vec!["from".into(), "to".into()],
                    key: None,
                    facts: vec![
                        Tuple::new(vec![Value::sym("a"), Value::sym("b")]),
                        Tuple::new(vec![Value::sym("b"), Value::sym("c")]),
                        Tuple::new(vec![Value::sym("c"), Value::sym("d")]),
                    ],
                }],
                ..CheckpointData::default()
            };
            let stored = checkpoint::tests::stored(&data);
            let view = checkpoint::tests::view(&data, &stored);
            let (covered, _) = d.checkpoint(&view).unwrap();
            assert_eq!(covered, Lsn(3));
            assert!(!d.should_checkpoint());
            // Post-checkpoint appends continue the LSN sequence.
            assert_eq!(d.append(&fact("edge(d, e)")).unwrap().0, Lsn(4));
            d.sync().unwrap();
        }
        let opened = Durable::open(&dir, opts()).unwrap();
        let ckp = opened.checkpoint.expect("checkpoint should exist");
        assert_eq!(ckp.last_lsn, Lsn(3));
        assert_eq!(ckp.relations[0].facts.len(), 3);
        assert_eq!(opened.tail.len(), 1);
        assert_eq!(opened.tail[0].lsn, Lsn(4));
        assert_eq!(opened.report.checkpointed, 4); // 1 decl + 3 facts
        assert_eq!(opened.durable.last_lsn(), Lsn(4));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_track_fsyncs_and_checkpoint_lag() {
        let dir = temp_dir("metrics");
        {
            let mut d = Durable::open(
                &dir,
                DurabilityOptions {
                    fsync: FsyncPolicy::Always,
                    checkpoint_every_ops: None,
                },
            )
            .unwrap()
            .durable;
            d.append(&fact("edge(a, b)")).unwrap();
            d.append(&fact("edge(b, c)")).unwrap();
            let m = d.metrics();
            assert_eq!(m.wal_fsyncs, 2); // Always: one per append
            assert_eq!(m.last_lsn, 2);
            assert_eq!(m.checkpoint_lsn, 0);
            assert_eq!(m.checkpoint_lsn_lag(), 2);
            d.checkpoint(&CheckpointView::default()).unwrap();
            let m = d.metrics();
            assert_eq!(m.checkpoint_lsn, 2);
            assert_eq!(m.checkpoint_lsn_lag(), 0);
            d.append(&fact("edge(c, d)")).unwrap();
            assert_eq!(d.metrics().checkpoint_lsn_lag(), 1);
        }
        // The checkpoint floor is recovered from disk, so the lag
        // survives a restart.
        let d = Durable::open(
            &dir,
            DurabilityOptions {
                fsync: FsyncPolicy::Always,
                checkpoint_every_ops: None,
            },
        )
        .unwrap()
        .durable;
        let m = d.metrics();
        assert_eq!(m.checkpoint_lsn, 2);
        assert_eq!(m.last_lsn, 3);
        assert_eq!(m.checkpoint_lsn_lag(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_wal_records_below_checkpoint_lsn_are_skipped() {
        // A crash between checkpoint publish and WAL truncate leaves the
        // old records in the log; they must not replay twice.
        let dir = temp_dir("stale");
        {
            let mut d = Durable::open(&dir, opts()).unwrap().durable;
            d.append(&fact("edge(a, b)")).unwrap();
            d.append(&fact("edge(b, c)")).unwrap();
            d.sync().unwrap();
            // Publish a checkpoint covering LSN 2 directly, bypassing the
            // handle so the WAL is left untruncated (the crash window).
            let data = CheckpointData {
                last_lsn: Lsn(2),
                ..CheckpointData::default()
            };
            checkpoint::tests::write_data(&dir.join(CHECKPOINT_FILE), &data).unwrap();
        }
        let opened = Durable::open(&dir, opts()).unwrap();
        assert_eq!(opened.tail.len(), 0);
        assert_eq!(opened.durable.last_lsn(), Lsn(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_reported_and_next_lsn_reuses_torn_slot() {
        let dir = temp_dir("torn");
        {
            let mut d = Durable::open(&dir, opts()).unwrap().durable;
            d.append(&fact("edge(a, b)")).unwrap();
            d.append(&fact("edge(b, c)")).unwrap();
            d.sync().unwrap();
        }
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 4]).unwrap();
        let opened = Durable::open(&dir, opts()).unwrap();
        assert_eq!(opened.tail.len(), 1);
        assert!(opened.report.discarded_tail_bytes > 0);
        assert_eq!(opened.report.last_lsn, Some(Lsn(1)));
        // The torn record's LSN was never acknowledged; it is reassigned.
        let mut d = opened.durable;
        assert_eq!(d.append(&fact("edge(b, c2)")).unwrap().0, Lsn(2));
        std::fs::remove_dir_all(&dir).ok();
    }
}
