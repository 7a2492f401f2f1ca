//! The append-only write-ahead log.
//!
//! File layout:
//!
//! ```text
//! [8-byte magic "QDKWAL01"]
//! record*   where record = [u32 le: payload len][u32 le: crc32(payload)][payload]
//! ```
//!
//! and `payload = [symbol table][varint lsn][op body]` — each record is
//! self-contained (its own string table), so the tail can be replayed
//! with no state beyond the file itself.
//!
//! The reader scans until the first frame that is short, over-long or
//! fails its CRC, then stops: everything before that point is replayed,
//! everything after is the *torn tail* a crash mid-append leaves behind.
//! The torn bytes are counted in the [`RecoveryReport`], never raised as
//! an error and never a panic — a crashed append is an expected state,
//! not corruption of history.

use crate::codec::{Dec, Enc};
use crate::crc32::crc32;
use crate::error::{DurabilityError, Result};
use crate::op::WalOp;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file (name + format version).
pub const WAL_MAGIC: &[u8; 8] = b"QDKWAL01";

/// A log sequence number: the position of a mutation in the total order
/// of the knowledge base's history. Monotonic across checkpoints and WAL
/// truncations — a checkpoint records the last LSN it covers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

impl std::fmt::Display for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

/// What recovery found and did, surfaced through
/// [`Session::recovery_report`](../qdk/struct.Session.html) and the obs
/// layer so operators can see a crash was healed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Ops restored from the checkpoint snapshot (declarations + facts +
    /// rules + constraints), 0 when no checkpoint existed.
    pub checkpointed: u64,
    /// WAL tail records replayed after the checkpoint.
    pub replayed: u64,
    /// Bytes of torn/corrupt tail discarded from the end of the WAL.
    pub discarded_tail_bytes: u64,
    /// The LSN the knowledge base resumed at.
    pub last_lsn: Option<Lsn>,
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The logged mutation.
    pub op: WalOp,
}

/// Serializes one record payload: `[varint lsn][table][op body]`.
pub fn encode_record(lsn: Lsn, op: &WalOp) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.varint(lsn.0);
    op.encode(&mut enc);
    enc.finish()
}

fn decode_record(payload: &[u8]) -> Result<WalRecord> {
    let mut dec = Dec::new(payload)?;
    let lsn = Lsn(dec.varint()?);
    let op = WalOp::decode(&mut dec)?;
    dec.expect_end()?;
    Ok(WalRecord { lsn, op })
}

/// How eagerly appends reach stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record. Slowest, loses nothing on power loss.
    #[default]
    Always,
    /// `fsync` every N records (and on checkpoint/close). A crash can
    /// lose up to the last N−1 acknowledged mutations.
    EveryN(u32),
    /// Never `fsync` explicitly; the OS flushes when it pleases. For
    /// tests and bulk loads.
    Never,
}

/// The appender half of the WAL: an open file handle plus the fsync
/// policy and the count of records since the last sync.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    unsynced: u32,
    fsyncs: u64,
}

impl WalWriter {
    /// Opens (creating if absent) the WAL at `path` for appending. A new
    /// file gets the magic header; an existing file must start with it.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| DurabilityError::io("open wal", path, &e))?;
        let len = file
            .metadata()
            .map_err(|e| DurabilityError::io("stat wal", path, &e))?
            .len();
        if len == 0 {
            file.write_all(WAL_MAGIC)
                .map_err(|e| DurabilityError::io("write wal header", path, &e))?;
            file.sync_all()
                .map_err(|e| DurabilityError::io("sync wal header", path, &e))?;
        } else {
            let mut magic = [0u8; 8];
            file.read_exact(&mut magic)
                .map_err(|e| DurabilityError::io("read wal header", path, &e))?;
            if &magic != WAL_MAGIC {
                return Err(DurabilityError::Corrupt {
                    what: "wal header",
                    detail: format!("bad magic {magic:02x?}"),
                });
            }
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| DurabilityError::io("seek wal", path, &e))?;
        Ok(WalWriter {
            path: path.to_path_buf(),
            file,
            policy,
            // Records inherited from an earlier handle may never have been
            // forced (say, one opened with `FsyncPolicy::Never`), so the
            // first explicit sync still syncs.
            unsynced: u32::from(len > WAL_MAGIC.len() as u64),
            fsyncs: 0,
        })
    }

    /// Appends one record and applies the fsync policy. Returns the bytes
    /// written (frame + payload) so callers can meter log growth.
    pub fn append(&mut self, lsn: Lsn, op: &WalOp) -> Result<u64> {
        let payload = encode_record(lsn, op);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file
            .write_all(&frame)
            .map_err(|e| DurabilityError::io("append wal", &self.path, &e))?;
        self.unsynced += 1;
        let should_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if should_sync {
            self.sync()?;
        }
        Ok(frame.len() as u64)
    }

    /// Forces everything appended so far to stable storage. A no-op when
    /// nothing was appended since the last sync: the count of unsynced
    /// records resets only after `sync_all` succeeds, so a log with none
    /// is already durable (this is what keeps a publish after an
    /// `FsyncPolicy::Always` commit from syncing twice).
    pub fn sync(&mut self) -> Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        self.file
            .sync_all()
            .map_err(|e| DurabilityError::io("sync wal", &self.path, &e))?;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }

    /// How many fsyncs this writer has issued since open (policy-driven,
    /// explicit, and truncation syncs alike).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Discards every record (after a checkpoint has made them
    /// redundant), leaving just the magic header.
    pub fn truncate_to_header(&mut self) -> Result<()> {
        self.file
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(|e| DurabilityError::io("truncate wal", &self.path, &e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| DurabilityError::io("seek wal", &self.path, &e))?;
        self.file
            .sync_all()
            .map_err(|e| DurabilityError::io("sync wal", &self.path, &e))?;
        self.unsynced = 0;
        self.fsyncs += 1;
        Ok(())
    }
}

/// The outcome of scanning a WAL file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WalScan {
    /// Every record up to the first torn/corrupt frame, in log order.
    pub records: Vec<WalRecord>,
    /// Bytes from the first bad frame to end-of-file (0 for a clean log).
    pub discarded_tail_bytes: u64,
    /// File length up to and including the last intact record (i.e. where
    /// the torn tail starts). Recovery truncates the file here before new
    /// appends, so fresh records are never written after garbage the
    /// scanner would stop at.
    pub valid_len: u64,
}

/// Reads every intact record from the WAL at `path`.
///
/// A missing file is an empty log. A file that exists but lacks the
/// 8-byte magic is corrupt (that is damage to *history*, not a torn
/// append) — except a short file under 8 bytes, which is the torn
/// remnant of header creation and scans as empty.
pub fn scan(path: &Path) -> Result<WalScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| DurabilityError::io("read wal", path, &e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(DurabilityError::io("open wal", path, &e)),
    }
    if bytes.len() < WAL_MAGIC.len() {
        return Ok(WalScan {
            records: Vec::new(),
            discarded_tail_bytes: bytes.len() as u64,
            valid_len: 0,
        });
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(DurabilityError::Corrupt {
            what: "wal header",
            detail: format!("bad magic {:02x?}", &bytes[..8]),
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        let start = pos;
        if bytes.len() - pos < 8 {
            break; // torn frame header
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let want = u32::from_le_bytes([
            bytes[pos + 4],
            bytes[pos + 5],
            bytes[pos + 6],
            bytes[pos + 7],
        ]);
        pos += 8;
        if bytes.len() - pos < len {
            pos = start;
            break; // torn payload
        }
        let payload = &bytes[pos..pos + len];
        if crc32(payload) != want {
            pos = start;
            break; // flipped bits or a reused frame slot
        }
        match decode_record(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                // CRC passed but the payload doesn't decode: treat like a
                // torn tail rather than failing recovery outright.
                pos = start;
                break;
            }
        }
        pos += len;
    }
    Ok(WalScan {
        records,
        discarded_tail_bytes: (bytes.len() - pos) as u64,
        valid_len: pos as u64,
    })
}

/// Chops the file at `path` down to `len` bytes (recovery's removal of a
/// torn tail; a `len` of 0 removes a header-less remnant entirely so the
/// next open rewrites the magic).
pub fn truncate_to(path: &Path, len: u64) -> Result<()> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| DurabilityError::io("open wal", path, &e))?;
    file.set_len(len)
        .map_err(|e| DurabilityError::io("truncate wal", path, &e))?;
    file.sync_all()
        .map_err(|e| DurabilityError::io("sync wal", path, &e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdk_logic::parser::parse_atom;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_wal(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qdk-wal-{tag}-{}-{n}.wal", std::process::id()))
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Declare {
                name: "edge".into(),
                attrs: vec!["from".into(), "to".into()],
                key: None,
            },
            WalOp::add_fact(&parse_atom("edge(a, b)").unwrap()).unwrap(),
            WalOp::add_fact(&parse_atom("edge(b, c)").unwrap()).unwrap(),
            WalOp::retract(&parse_atom("edge(a, b)").unwrap()).unwrap(),
        ]
    }

    #[test]
    fn append_scan_roundtrip() {
        let path = temp_wal("roundtrip");
        let mut w = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        for (i, op) in sample_ops().iter().enumerate() {
            w.append(Lsn(i as u64 + 1), op).unwrap();
        }
        w.sync().unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.discarded_tail_bytes, 0);
        assert_eq!(scan.records.len(), 4);
        assert_eq!(scan.records[0].lsn, Lsn(1));
        assert_eq!(scan.records[3].lsn, Lsn(4));
        assert_eq!(scan.records[1].op, sample_ops()[1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_after_an_always_append_is_free() {
        let path = temp_wal("clean-sync");
        let mut w = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
        w.append(Lsn(1), &sample_ops()[0]).unwrap();
        w.sync().unwrap();
        assert_eq!(w.fsyncs(), 1, "the append synced; the log is clean");
        drop(w);
        // A reopened log's inherited records count as unsynced once.
        let mut w = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        w.sync().unwrap();
        w.sync().unwrap();
        assert_eq!(w.fsyncs(), 1);
        w.append(Lsn(2), &sample_ops()[1]).unwrap();
        w.sync().unwrap();
        assert_eq!(w.fsyncs(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let path = temp_wal("reopen");
        {
            let mut w = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
            w.append(Lsn(1), &sample_ops()[0]).unwrap();
        }
        {
            let mut w = WalWriter::open(&path, FsyncPolicy::Always).unwrap();
            w.append(Lsn(2), &sample_ops()[1]).unwrap();
        }
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].lsn, Lsn(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let path = temp_wal("torn");
        let mut w = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        for (i, op) in sample_ops().iter().enumerate() {
            w.append(Lsn(i as u64 + 1), op).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Chop 3 bytes off the final record: a torn append.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(scan.discarded_tail_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_bit_stops_scan_at_prior_record() {
        let path = temp_wal("flip");
        let mut w = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        for (i, op) in sample_ops().iter().enumerate() {
            w.append(Lsn(i as u64 + 1), op).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(scan.discarded_tail_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_to_header_empties_log_and_preserves_magic() {
        let path = temp_wal("trunc");
        let mut w = WalWriter::open(&path, FsyncPolicy::Never).unwrap();
        w.append(Lsn(1), &sample_ops()[0]).unwrap();
        w.truncate_to_header().unwrap();
        w.append(Lsn(2), &sample_ops()[1]).unwrap();
        w.sync().unwrap();
        let scan = scan(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].lsn, Lsn(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_scans_empty_but_bad_magic_is_corrupt() {
        let missing = temp_wal("missing");
        assert_eq!(scan(&missing).unwrap(), WalScan::default());
        let bad = temp_wal("badmagic");
        std::fs::write(&bad, b"NOTAWAL0rest").unwrap();
        assert!(matches!(
            scan(&bad),
            Err(DurabilityError::Corrupt {
                what: "wal header",
                ..
            })
        ));
        std::fs::remove_file(&bad).ok();
    }
}
