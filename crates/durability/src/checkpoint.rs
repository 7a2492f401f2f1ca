//! Checkpoint snapshots.
//!
//! A checkpoint is the full declared state of the knowledge base — the
//! schemas (with key declarations), every stored fact in per-relation
//! insertion order, the rules, and the integrity constraints — plus the
//! LSN of the last mutation it covers. After a checkpoint lands, the WAL
//! records at or below that LSN are redundant and the log is truncated.
//!
//! File layout:
//!
//! ```text
//! [8-byte magic "QDKCKP01"][u32 le: crc32(body)][body]
//! ```
//!
//! with one whole-file symbol table inside the body, so a million-fact
//! snapshot writes each fact as a few varint ids.
//!
//! The writer reads a [`CheckpointView`]: the declared state borrowed
//! from the live knowledge base, so no row is cloned to take a
//! checkpoint. Decoding returns the owned [`CheckpointData`].
//!
//! The write is atomic: body → temp file in the same directory → fsync →
//! rename over the target → fsync the directory (on unix). Readers
//! either see the previous complete checkpoint or the new one, never a
//! half-written hybrid; a checkpoint that fails its CRC is ignored (with
//! the WAL intact, recovery falls back to pure replay only if the
//! checkpoint never existed — a *damaged* checkpoint is an error, since
//! the truncated WAL no longer holds the history it covered).

use crate::codec::{Dec, Enc};
use crate::crc32::{crc32, Crc32};
use crate::error::{DurabilityError, Result};
use crate::op::{decode_named_tuple, encode_named_tuple};
use crate::wal::Lsn;
use qdk_logic::{Constraint, Rule, Sym};
use qdk_storage::{Relation, Tuple};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes opening every checkpoint file (name + format version).
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"QDKCKP01";

/// One declared relation in a decoded snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationSnapshot {
    /// Predicate name.
    pub name: Sym,
    /// Attribute names, in order.
    pub attrs: Vec<Sym>,
    /// Key prefix length, if declared.
    pub key: Option<usize>,
    /// Stored rows in insertion order (order matters: fact ids, delta
    /// windows and therefore diagnostics replay identically).
    pub facts: Vec<Tuple>,
}

/// The full declared state of a knowledge base at one LSN, as decoding
/// returns it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointData {
    /// The last LSN this snapshot covers; replay resumes after it.
    pub last_lsn: Lsn,
    /// Declared relations with their stored facts, in declaration order.
    pub relations: Vec<RelationSnapshot>,
    /// IDB rules in insertion order.
    pub rules: Vec<Rule>,
    /// Integrity constraints in insertion order.
    pub constraints: Vec<Constraint>,
}

/// One declared relation as a checkpoint writes it, borrowed.
#[derive(Clone, Copy, Debug)]
pub struct RelationView<'a> {
    /// Predicate name.
    pub name: &'a Sym,
    /// Attribute names, in order.
    pub attrs: &'a [Sym],
    /// Key prefix length, if declared.
    pub key: Option<usize>,
    /// The stored rows, written in row-id (insertion) order.
    pub rows: &'a Relation,
}

/// The declared state a checkpoint is written from: schemas (with key
/// declarations), rows, rules and constraints, all borrowed.
#[derive(Clone, Debug, Default)]
pub struct CheckpointView<'a> {
    /// Declared relations, in declaration order.
    pub relations: Vec<RelationView<'a>>,
    /// IDB rules in insertion order.
    pub rules: &'a [Rule],
    /// Integrity constraints in insertion order.
    pub constraints: &'a [Constraint],
}

impl CheckpointView<'_> {
    /// Encodes the body of a checkpoint covering `last_lsn`.
    fn encode(&self, last_lsn: Lsn, enc: &mut Enc) {
        enc.varint(last_lsn.0);
        enc.varint(self.relations.len() as u64);
        for rel in &self.relations {
            // Every fact repeats the relation's name: look its id up once.
            let name = enc.str_id(rel.name.as_str());
            enc.varint(u64::from(name));
            enc.varint(rel.attrs.len() as u64);
            for a in rel.attrs {
                enc.str(a.as_str());
            }
            match rel.key {
                None => enc.byte(0),
                Some(k) => {
                    enc.byte(1);
                    enc.varint(k as u64);
                }
            }
            enc.varint(rel.rows.len() as u64);
            for t in rel.rows {
                encode_named_tuple(enc, name, t);
            }
        }
        enc.varint(self.rules.len() as u64);
        for r in self.rules {
            enc.rule(r);
        }
        enc.varint(self.constraints.len() as u64);
        for c in self.constraints {
            enc.constraint(c);
        }
    }
}

impl CheckpointData {
    /// Ops this snapshot stands for (declarations + facts + rules +
    /// constraints) — recovery-report accounting.
    pub fn op_count(&self) -> u64 {
        let facts: usize = self.relations.iter().map(|r| r.facts.len()).sum();
        (self.relations.len() + facts + self.rules.len() + self.constraints.len()) as u64
    }

    fn decode(body: &[u8]) -> Result<CheckpointData> {
        let corrupt = |detail: String| DurabilityError::Corrupt {
            what: "checkpoint",
            detail,
        };
        let mut dec = Dec::new(body)?;
        let last_lsn = Lsn(dec.varint()?);
        let nrel = dec.checked_count()?;
        let mut relations = Vec::with_capacity(nrel);
        for _ in 0..nrel {
            let name = dec.sym()?;
            let nattr = dec.checked_count()?;
            let mut attrs = Vec::with_capacity(nattr);
            for _ in 0..nattr {
                attrs.push(dec.sym()?);
            }
            let key = match dec.byte()? {
                0 => None,
                1 => Some(dec.varint()? as usize),
                tag => return Err(corrupt(format!("unknown key tag {tag}"))),
            };
            let nfacts = dec.checked_count()?;
            let mut facts = Vec::with_capacity(nfacts);
            for _ in 0..nfacts {
                let (pred, tuple) = decode_named_tuple(&mut dec)?;
                if pred != name {
                    return Err(corrupt(format!("fact for {pred} inside relation {name}")));
                }
                facts.push(tuple);
            }
            relations.push(RelationSnapshot {
                name,
                attrs,
                key,
                facts,
            });
        }
        let nrules = dec.checked_count()?;
        let mut rules = Vec::with_capacity(nrules);
        for _ in 0..nrules {
            rules.push(dec.rule()?);
        }
        let ncons = dec.checked_count()?;
        let mut constraints = Vec::with_capacity(ncons);
        for _ in 0..ncons {
            constraints.push(dec.constraint()?);
        }
        dec.expect_end()?;
        Ok(CheckpointData {
            last_lsn,
            relations,
            rules,
            constraints,
        })
    }
}

/// Atomically writes the checkpoint of `state`, covering `last_lsn`, to
/// `path`. `size_hint` sizes the body buffer before it grows (the
/// previous checkpoint's size is a good one). Returns the bytes written.
pub fn write(
    path: &Path,
    last_lsn: Lsn,
    state: &CheckpointView<'_>,
    size_hint: usize,
) -> Result<u64> {
    let mut enc = Enc::with_capacity(size_hint);
    state.encode(last_lsn, &mut enc);
    // The symbol table is known only once the body is encoded, but comes
    // first in the file: the head is magic, checksum and table, and the
    // body is written from the encoder's own buffer, never copied.
    let mut head = CHECKPOINT_MAGIC.to_vec();
    head.extend_from_slice(&[0; 4]);
    enc.table_into(&mut head);
    let mut crc = Crc32::default();
    crc.update(&head[12..]);
    crc.update(enc.body());
    head[8..12].copy_from_slice(&crc.finish().to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut f =
            File::create(&tmp).map_err(|e| DurabilityError::io("create checkpoint", &tmp, &e))?;
        f.write_all(&head)
            .and_then(|()| f.write_all(enc.body()))
            .map_err(|e| DurabilityError::io("write checkpoint", &tmp, &e))?;
        f.sync_all()
            .map_err(|e| DurabilityError::io("sync checkpoint", &tmp, &e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| DurabilityError::io("publish checkpoint", path, &e))?;
    sync_parent_dir(path)?;
    Ok((head.len() + enc.body().len()) as u64)
}

/// Makes the rename itself durable by syncing the containing directory
/// (a no-op on platforms where directories can't be opened).
fn sync_parent_dir(path: &Path) -> Result<()> {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        let d = File::open(dir).map_err(|e| DurabilityError::io("open dir", dir, &e))?;
        d.sync_all()
            .map_err(|e| DurabilityError::io("sync dir", dir, &e))?;
    }
    Ok(())
}

/// Reads the checkpoint at `path`. `Ok(None)` if the file does not exist;
/// an existing but invalid file is [`DurabilityError::Corrupt`] (the WAL
/// was truncated when it was written, so its contents are irreplaceable).
pub fn read(path: &Path) -> Result<Option<CheckpointData>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)
                .map_err(|e| DurabilityError::io("read checkpoint", path, &e))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(DurabilityError::io("open checkpoint", path, &e)),
    }
    let corrupt = |detail: String| DurabilityError::Corrupt {
        what: "checkpoint",
        detail,
    };
    if bytes.len() < 12 {
        return Err(corrupt(format!("{} bytes is too short", bytes.len())));
    }
    if &bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt(format!("bad magic {:02x?}", &bytes[..8])));
    }
    let want = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let body = &bytes[12..];
    if crc32(body) != want {
        return Err(corrupt("body checksum mismatch".into()));
    }
    CheckpointData::decode(body).map(Some)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qdk_logic::parser::parse_rule;
    use qdk_storage::Value;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_ckp(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("qdk-ckp-{tag}-{}-{n}.ckp", std::process::id()))
    }

    /// `data`'s relations as stored relations, for a view to borrow.
    pub(crate) fn stored(data: &CheckpointData) -> Vec<Relation> {
        data.relations
            .iter()
            .map(|r| {
                let mut rel = Relation::new(r.name.clone(), r.attrs.len());
                for t in &r.facts {
                    rel.insert(t.clone()).unwrap();
                }
                rel
            })
            .collect()
    }

    /// The view a writer reads of `data`, rows borrowed from `stored`.
    pub(crate) fn view<'a>(data: &'a CheckpointData, stored: &'a [Relation]) -> CheckpointView<'a> {
        CheckpointView {
            relations: data
                .relations
                .iter()
                .zip(stored)
                .map(|(r, rows)| RelationView {
                    name: &r.name,
                    attrs: &r.attrs,
                    key: r.key,
                    rows,
                })
                .collect(),
            rules: &data.rules,
            constraints: &data.constraints,
        }
    }

    /// Writes `data` as the checkpoint at `path`.
    pub(crate) fn write_data(path: &Path, data: &CheckpointData) -> Result<u64> {
        write(path, data.last_lsn, &view(data, &stored(data)), 0)
    }

    fn sample() -> CheckpointData {
        CheckpointData {
            last_lsn: Lsn(42),
            relations: vec![RelationSnapshot {
                name: "edge".into(),
                attrs: vec!["from".into(), "to".into()],
                key: Some(2),
                facts: vec![
                    Tuple::new(vec![Value::sym("a"), Value::sym("b")]),
                    Tuple::new(vec![Value::sym("b"), Value::sym("c")]),
                ],
            }],
            rules: vec![parse_rule("path(X, Y) :- edge(X, Y).").unwrap()],
            constraints: vec![],
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let path = temp_ckp("roundtrip");
        let data = sample();
        write_data(&path, &data).unwrap();
        assert_eq!(read(&path).unwrap(), Some(data));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reads_none() {
        assert_eq!(read(&temp_ckp("missing")).unwrap(), None);
    }

    #[test]
    fn corrupted_body_is_an_error_not_a_panic() {
        let path = temp_ckp("corrupt");
        write_data(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read(&path),
            Err(DurabilityError::Corrupt {
                what: "checkpoint",
                ..
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_replaces_previous_snapshot() {
        let path = temp_ckp("rewrite");
        write_data(&path, &sample()).unwrap();
        let mut next = sample();
        next.last_lsn = Lsn(99);
        next.relations[0]
            .facts
            .push(Tuple::new(vec![Value::sym("c"), Value::sym("d")]));
        write_data(&path, &next).unwrap();
        assert_eq!(read(&path).unwrap(), Some(next));
        std::fs::remove_file(&path).ok();
    }

    /// A checkpoint an earlier encoder wrote (every value tag, a key, a
    /// rule with a negated literal, a constraint) decodes to the state it
    /// was written from, and encoding that state writes the same bytes.
    #[test]
    fn golden_file_decodes_and_re_encodes_byte_for_byte() {
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden.ckp");
        let data = read(&golden).unwrap().unwrap();
        assert_eq!(data.last_lsn, Lsn(13));
        let names: Vec<&str> = data.relations.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["flag", "knows", "person"]);
        assert_eq!(data.relations[2].key, Some(1));
        let rows = |i: usize| -> Vec<Vec<Value>> {
            let facts = &data.relations[i].facts;
            facts.iter().map(|t| t.values().to_vec()).collect()
        };
        assert_eq!(
            rows(0),
            [
                vec![Value::sym("ann"), Value::Bool(true)],
                vec![Value::sym("bob"), Value::Bool(false)],
            ]
        );
        assert_eq!(
            rows(2),
            [
                vec![
                    Value::sym("ann"),
                    Value::Int(-42),
                    Value::Num(1.75),
                    Value::str("naïve ça \"va\""),
                ],
                vec![
                    Value::sym("bob"),
                    Value::Int(7),
                    Value::Num(-0.5),
                    Value::str("plain"),
                ],
            ]
        );
        let rules: Vec<String> = data.rules.iter().map(ToString::to_string).collect();
        assert_eq!(
            rules,
            [
                "reach(X, Y) :- knows(X, Y).",
                "reach(X, Z) :- knows(X, Y), reach(Y, Z).",
                "loner(X) :- person(X, A, H, M), not reach(X, bob).",
            ]
        );
        assert_eq!(data.constraints.len(), 1);

        let path = temp_ckp("golden");
        write_data(&path, &data).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&golden).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn op_count_sums_all_state() {
        // 1 declaration + 2 facts + 1 rule + 0 constraints.
        assert_eq!(sample().op_count(), 4);
    }
}
