//! Durability for the knowledge base: write-ahead log, checkpoint
//! snapshots, and crash recovery.
//!
//! Everything above this crate is in-memory; this crate makes the
//! *declared* state of a knowledge base — predicate declarations, stored
//! facts, rules, integrity constraints and key declarations — survive a
//! process crash. The design follows the classic WAL discipline
//! (DESIGN.md §14):
//!
//! * every mutation is appended to an append-only **write-ahead log**
//!   ([`wal`]) as a length-prefixed, CRC32-checksummed binary record
//!   *before* it is applied in memory, under a configurable
//!   [`FsyncPolicy`];
//! * a **checkpoint** ([`checkpoint`]) periodically snapshots the full
//!   EDB + rule set, read straight from the live relations and
//!   serialized through a dense `u32` symbol table, written atomically
//!   (temp file + rename) and stamped with the LSN it covers; the WAL is
//!   then truncated past that LSN;
//! * **recovery-on-open** loads the latest valid checkpoint and replays
//!   the WAL tail, tolerating a torn or truncated final record: scanning
//!   stops at the first bad CRC and the discarded bytes are reported in a
//!   structured [`RecoveryReport`] — corruption is never a panic.
//!
//! Deliberately **not** logged: derived facts (recomputed by the engine),
//! compiled plans and caches (rebuilt on demand), and query activity.
//! The log is a log of *knowledge*, not of work.
//!
//! The crate is storage-layer only: it knows how to persist and recover
//! the operations ([`WalOp`]) and state (written from a
//! [`CheckpointView`], read back as a [`CheckpointData`]),
//! while `qdk-lang::KnowledgeBase` owns applying them through the exact
//! same code paths live mutations take.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stderr, clippy::print_stdout)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
mod codec;
mod crc32;
mod durable;
mod error;
mod op;
pub mod wal;

pub use checkpoint::{CheckpointData, CheckpointView, RelationSnapshot, RelationView};
pub use durable::{DurabilityMetrics, DurabilityOptions, Durable, Opened};
pub use error::{DurabilityError, Result};
pub use op::WalOp;
pub use wal::{FsyncPolicy, Lsn, RecoveryReport, WalRecord};
