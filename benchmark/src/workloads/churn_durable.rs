//! `churn_durable`: the write path beside reads.
//!
//! A durable session (`FsyncPolicy::Always`, a checkpoint every
//! [`CHECKPOINT_EVERY`] commits) on a real directory, the maintained store
//! live. One *commit* is `Session::apply` → `Session::publish` →
//! `SnapshotSession::refresh` → one read on the snapshot that proves the
//! write is visible; each is followed by two retrieves from the `univ_read`
//! mix (now served from maintained state) and one describe from a
//! 16-statement hot set, all on the snapshot. *Why:* it uses the engine and
//! storage layers differently from `univ_read` (delta maintenance, COW
//! snapshots, index rebuild after publish) and is the only workload where
//! `qdk-durability`, `MaintainedStore`, `Publisher` and `EpochCell` work.

use super::{fs_type, repeat_setup, report_common, timed, AnswersDigest, Latencies, RunConfig};
use crate::gen::{
    complete_fact, hundredths, university, Completion, UnivShape, University, HONOR_GPA,
};
use crate::oracle::{answer_rows, theorem_lines, verdict, ReadMix, ReadOp, RowDigest};
use crate::probes::{self, Fixture};
use crate::report::{Checks, Outcome};
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use qdk::durability::DurabilityOptions;
use qdk::{FsyncPolicy, Mutation, Request, Session, SnapshotSession};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Scale: ≈ 2.1 × 10⁴ facts.
pub const SHAPE: (usize, usize) = (2000, 200);
/// Timed commits per second of `--seconds`, calibrated at the seed commit.
pub const COMMITS_PER_SECOND: f64 = 125.0;
/// One commit is one WAL record, so this is the checkpoint cadence in
/// commits: 1 in 30 (3.3 %) of commits runs a checkpoint in the foreground.
pub const CHECKPOINT_EVERY: u64 = 29;
/// `recover_s` is the median of this many reopens of a copy of the store.
const REOPENS: usize = 9;
/// One read in this many is also traced by the program in the traced pass.
const SAMPLE_EVERY: usize = 16;
/// At most this many `Mutation::rule` commits in one run.
const MAX_RULES: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitKind {
    EnrollSwap,
    Complete,
    Prereq,
    Gpa,
    Rule,
}

impl CommitKind {
    pub fn name(self) -> &'static str {
        match self {
            CommitKind::EnrollSwap => "enroll_swap",
            CommitKind::Complete => "complete",
            CommitKind::Prereq => "prereq",
            CommitKind::Gpa => "gpa_rewrite",
            CommitKind::Rule => "rule",
        }
    }
}

/// What the visible read after a commit must show.
#[derive(Clone, Debug)]
pub enum Visible {
    Has(String),
    Lacks(String),
    Exactly(Vec<String>),
}

/// One commit: the mutation, and the read that proves it took effect.
pub struct Commit {
    pub kind: CommitKind,
    pub mutation: Mutation,
    /// Bytes of mutation text, the denominator of `write_amp`.
    pub text_bytes: u64,
    pub probe: String,
    pub visible: Visible,
}

/// The harness's model of the store: the university tables plus the rules
/// committed so far (`watch<k>` over one course each).
#[derive(Clone)]
pub struct Model {
    pub univ: University,
    pub watch: Vec<u32>,
}

impl Model {
    fn watch_rule(k: usize, course: u32) -> String {
        format!("watch{k}(X) :- honor(X), complete(X, c{course}, S, G), G > 3.0")
    }

    fn watch_rows(&self, k: usize) -> Vec<String> {
        let course = self.watch[k] as usize;
        let mut rows: Vec<u32> = self.univ.complete_by_course[course]
            .iter()
            .filter(|&&(s, _, g)| g > 30 && self.univ.honor(s))
            .map(|&(s, _, _)| s)
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows.into_iter().map(|s| format!("s{s}")).collect()
    }
}

/// Draws commits against the current model and updates the model with each.
pub struct CommitGen {
    r: Rng,
}

impl CommitGen {
    pub fn new(seed: u64) -> Self {
        CommitGen {
            r: Rng::fork(seed, "commits"),
        }
    }

    fn nth<T: Copy + Ord>(set: &std::collections::BTreeSet<T>, r: &mut Rng) -> T {
        *set.iter().nth(r.below(set.len())).expect("non-empty set")
    }

    /// The mix: 60 % enroll swap (no IDB depends on it: storage + WAL only),
    /// 25 % complete insert/retract (feeds `can_ta`), 10 % prereq edge
    /// insert/retract (recursive delta / DRed on `prior`), 4 % GPA rewrite
    /// across the honor threshold (cascades), 1 % a new rule.
    pub fn next(&mut self, model: &mut Model) -> Commit {
        let r = &mut self.r;
        let u = &mut model.univ;
        let pick = r.below(100);
        let (kind, ops, probe, visible): (CommitKind, Vec<(bool, String)>, String, Visible) =
            if pick < 60 {
                let (s_in, c_in) = loop {
                    let (s, c) = (r.below(u.students()) as u32, r.below(u.courses()));
                    if !u.enroll[c].contains(&s) {
                        break (s, c);
                    }
                };
                let c_out = loop {
                    let c = r.below(u.courses());
                    if !u.enroll[c].is_empty() {
                        break c;
                    }
                };
                let s_out = Self::nth(&u.enroll[c_out], r);
                u.enroll[c_in].insert(s_in);
                u.enroll[c_out].remove(&s_out);
                (
                    CommitKind::EnrollSwap,
                    vec![
                        (true, format!("enroll(s{s_in}, c{c_in})")),
                        (false, format!("enroll(s{s_out}, c{c_out})")),
                    ],
                    format!("enroll(s{s_in}, Y)"),
                    Visible::Has(format!("c{c_in}")),
                )
            } else if pick < 85 {
                let student = r.below(u.students()) as u32;
                let done = &u.complete_by_student[student as usize];
                let retract = !done.is_empty() && r.below(2) == 0;
                let fact: Completion = if retract {
                    let (c, sem, g) = Self::nth(done, r);
                    (student, c, sem, g)
                } else {
                    u.draw_completion(student, r)
                };
                u.set_complete(fact, !retract);
                let row = format!(
                    "{}\t{}",
                    crate::gen::SEMESTERS[fact.2 as usize],
                    crate::gen::tenths(fact.3)
                );
                (
                    CommitKind::Complete,
                    vec![(!retract, complete_fact(fact))],
                    format!("complete(s{}, c{}, S, G)", fact.0, fact.1),
                    if retract {
                        Visible::Lacks(row)
                    } else {
                        Visible::Has(row)
                    },
                )
            } else if pick < 95 {
                let course = r.range(1, u.courses() - 1) as u32;
                let pres = &u.prereq[course as usize];
                // Half the time drop an existing edge; otherwise toggle a drawn
                // one. Edges only descend, so the graph stays a DAG.
                let pre = if !pres.is_empty() && r.below(2) == 0 {
                    Self::nth(pres, r)
                } else {
                    let lo = (course as usize).saturating_sub(u.shape.prereq_window);
                    r.range(lo, course as usize - 1) as u32
                };
                let retract = pres.contains(&pre);
                u.set_prereq(course, pre, !retract);
                (
                    CommitKind::Prereq,
                    vec![(!retract, format!("prereq(c{course}, c{pre})"))],
                    format!("prereq(c{course}, Y)"),
                    if retract {
                        Visible::Lacks(format!("c{pre}"))
                    } else {
                        Visible::Has(format!("c{pre}"))
                    },
                )
            } else if pick < 99 || model.watch.len() >= MAX_RULES {
                let s = r.below(u.students()) as u32;
                let old = u.student_fact(s);
                // Move the GPA to the other side of the honor threshold.
                u.gpa[s as usize] = if u.honor(s) {
                    r.range(200, HONOR_GPA as usize) as u16
                } else {
                    r.range(HONOR_GPA as usize + 1, 400) as u16
                };
                let row = format!(
                    "{}\t{}",
                    crate::gen::MAJORS[u.major[s as usize] as usize],
                    hundredths(u.gpa[s as usize])
                );
                (
                    CommitKind::Gpa,
                    vec![(false, old), (true, u.student_fact(s))],
                    format!("student(s{s}, M, G)"),
                    Visible::Exactly(vec![row]),
                )
            } else {
                let k = model.watch.len();
                let course = r.below(u.courses()) as u32;
                model.watch.push(course);
                let rule = Model::watch_rule(k, course);
                let text_bytes = rule.len() as u64;
                return Commit {
                    kind: CommitKind::Rule,
                    mutation: Mutation::new().rule(rule),
                    text_bytes,
                    probe: format!("watch{k}(X)"),
                    visible: Visible::Exactly(model.watch_rows(k)),
                };
            };
        let text_bytes = ops.iter().map(|(_, f)| f.len() as u64).sum();
        let mutation = ops.into_iter().fold(Mutation::new(), |m, (insert, fact)| {
            if insert {
                m.insert(fact)
            } else {
                m.retract(fact)
            }
        });
        Commit {
            kind,
            mutation,
            text_bytes,
            probe,
            visible,
        }
    }
}

/// The 16-statement describe hot set: paper Examples 3–7 with the
/// generator's constants. The first field is the answer the paper gives
/// (theorem lines, sorted), where the paper gives one.
pub fn hot_describes(univ: &University, seed: u64) -> Vec<(Request, Option<Vec<String>>)> {
    let mut r = Rng::fork(seed, "hot-describes");
    let mut set = vec![(
        Request::subject("honor(X)"),
        Some(vec!["honor(X) ← student(X, Y, Z) ∧ (Z > 3.7)".to_string()]),
    )];
    while set.len() < 16 {
        let c = format!("c{}", r.below(univ.courses()));
        let p = format!("p{}", r.below(univ.dept.len()));
        set.push(match set.len() % 4 {
            0 => (
                Request::subject(format!("can_ta(X, {c})")).where_clause("student(X, math, V), V > 3.7"),
                Some(vec![
                    format!("can_ta(X, {c}) ← complete(X, {c}, Y, 4.0)"),
                    format!("can_ta(X, {c}) ← complete(X, {c}, Y, Z) ∧ (Z > 3.3) ∧ taught(U, {c}, Y, V) ∧ teach(U, {c})"),
                ]),
            ),
            1 => (
                Request::subject("can_ta(X, Y)").where_clause(format!("honor(X), teach({p}, Y)")),
                Some(vec![
                    "can_ta(X, Y) ← complete(X, Y, Z, 4.0)".to_string(),
                    format!("can_ta(X, Y) ← complete(X, Y, Z, U) ∧ (U > 3.3) ∧ taught({p}, Y, Z, V)"),
                ]),
            ),
            2 => (
                Request::subject("prior(X, Y)").where_clause(format!("prior({c}, Y)")),
                Some(vec![
                    format!("prior(X, Y) ← (X = {c})"),
                    format!("prior(X, Y) ← prior(X, {c})"),
                ]),
            ),
            _ => (
                Request::subject("prior(X, Y)").where_clause(format!("prior(X, {c})")),
                None,
            ),
        });
    }
    set
}

/// Everything a running churn session carries.
pub struct Churn {
    pub dir: PathBuf,
    pub session: Session,
    pub snapshot: SnapshotSession,
    pub model: Model,
    pub gen: CommitGen,
    pub mix: ReadMix,
    pub reads: Rng,
    pub describes: Vec<(Request, Option<Vec<String>>)>,
    /// First answer seen per hot describe: later ones must be identical.
    pub first_seen: Vec<Option<String>>,
    /// `(WAL bytes, checkpoint bytes, mutation text bytes)` since open.
    pub written: (u64, u64, u64),
    pub commits: u64,
}

/// What a run of commits measured.
#[derive(Default)]
pub struct ChurnPass {
    pub commit: Latencies,
    pub ckpt_commit: Latencies,
    pub retrieve: Latencies,
    pub describe: Latencies,
    pub steps: [Latencies; 4],
    pub digest: AnswersDigest,
    pub ops: usize,
    pub fsyncs: u64,
    pub wal_bytes: u64,
    pub cache: (u64, u64),
    pub index_probes: u64,
    pub full_scans: u64,
    pub rows: u64,
    /// Σ program stage spans and Σ wall, µs, over the traced reads.
    pub stages: (u64, u64),
}

pub const STEP_NAMES: [&str; 4] = ["apply", "publish", "refresh", "visible_read"];

impl ChurnPass {
    pub fn busy_seconds(&self) -> f64 {
        self.commit.total_seconds()
            + self.ckpt_commit.total_seconds()
            + self.retrieve.total_seconds()
            + self.describe.total_seconds()
    }
}

/// Bulk-loading a store: no fsync, no automatic checkpoint.
pub const LOADING: DurabilityOptions = DurabilityOptions {
    fsync: FsyncPolicy::Never,
    checkpoint_every_ops: None,
};
/// Serving from it: every commit forced, a checkpoint every
/// [`CHECKPOINT_EVERY`] commits.
pub const SERVING: DurabilityOptions = DurabilityOptions {
    fsync: FsyncPolicy::Always,
    checkpoint_every_ops: Some(CHECKPOINT_EVERY),
};

impl Churn {
    /// Opens a fresh store at `dir`: bulk-load the script without fsync,
    /// checkpoint, reopen with the serving options, and take the first
    /// snapshot. The first `apply` (which materialises the maintained
    /// store) happens in the warm-up commits the caller runs next.
    pub fn open(dir: &Path, univ: University, seed: u64) -> Result<Churn, String> {
        let _ = std::fs::remove_dir_all(dir);
        let e = |e: qdk::Error| e.to_string();
        {
            let mut loader = Session::open_with(dir, LOADING).map_err(e)?;
            loader.load(&univ.script()).map_err(e)?;
            loader.checkpoint().map_err(e)?;
        }
        let mut session = Session::open_with(dir, SERVING).map_err(e)?;
        let snapshot = session.snapshot().map_err(e)?;
        Ok(Churn {
            dir: dir.to_path_buf(),
            mix: ReadMix::new(&univ, seed),
            describes: hot_describes(&univ, seed),
            first_seen: vec![None; 16],
            model: Model {
                univ,
                watch: Vec::new(),
            },
            session,
            snapshot,
            gen: CommitGen::new(seed),
            reads: Rng::fork(seed, "churn-reads"),
            written: (0, 0, 0),
            commits: 0,
        })
    }

    fn durability(&self) -> qdk::DurabilityMetrics {
        self.session
            .knowledge_base()
            .durability_metrics()
            .expect("churn sessions are durable")
    }

    /// Length of the WAL file: with `FsyncPolicy::Always` every byte of it
    /// is on stable storage once a commit is acknowledged.
    pub fn wal_len(&self) -> u64 {
        std::fs::metadata(self.dir.join("wal.log")).map_or(0, |m| m.len())
    }

    /// One commit and its follow-up reads.
    fn commit(&mut self, pass: &mut ChurnPass, tracer: &mut Tracer, checks: &mut Checks) {
        let commit = self.gen.next(&mut self.model);
        let op_id = self.commits;
        self.commits += 1;
        let before = self.durability();
        let root = tracer.begin(
            "session",
            &format!("commit:{}", commit.kind.name()),
            Tracer::ROOT,
            op_id,
        );
        let mut steps = [Duration::ZERO; 4];
        let mut problem = None;
        let (applied, d) = timed(|| {
            tracer.span("session", "apply", root, op_id, || {
                self.session.apply(commit.mutation)
            })
        });
        steps[0] = d;
        let (published, d) =
            timed(|| tracer.span("session", "publish", root, op_id, || self.session.publish()));
        steps[1] = d;
        let (_, d) = timed(|| {
            tracer.span("session", "refresh", root, op_id, || {
                self.snapshot.refresh()
            })
        });
        steps[2] = d;
        let (seen, d) = timed(|| {
            tracer.span("session", "visible_read", root, op_id, || {
                self.snapshot
                    .retrieve(Request::subject(commit.probe.clone()))
                    .map(|r| r.to_string())
            })
        });
        steps[3] = d;
        tracer.end(root);
        if let Err(e) = applied {
            problem = Some(format!("apply {}: {e}", commit.probe));
        } else if let Err(e) = published {
            problem = Some(format!("publish: {e}"));
        } else {
            match seen {
                Err(e) => problem = Some(format!("visible read {}: {e}", commit.probe)),
                Ok(text) => {
                    pass.digest.fold(&text);
                    let ok = match &commit.visible {
                        Visible::Has(row) => answer_rows(&text).any(|l| l == row),
                        Visible::Lacks(row) => !answer_rows(&text).any(|l| l == row),
                        Visible::Exactly(rows) => {
                            RowDigest::of_rendered(&text) == RowDigest::of_expected(rows)
                        }
                    };
                    if !ok {
                        problem = Some(format!(
                            "commit {} not visible: {} expected {:?}",
                            commit.kind.name(),
                            commit.probe,
                            commit.visible
                        ));
                    }
                }
            }
        }
        checks.op(problem);
        let after = self.durability();
        let total: Duration = steps.iter().sum();
        let checkpointed = after.checkpoints > before.checkpoints;
        if checkpointed {
            pass.ckpt_commit.push(total);
            self.written.1 += after.last_checkpoint_bytes;
        } else {
            pass.commit.push(total);
            for (lat, d) in pass.steps.iter_mut().zip(steps) {
                lat.push(d);
            }
        }
        pass.fsyncs += after.wal_fsyncs - before.wal_fsyncs;
        pass.wal_bytes += after.wal_bytes - before.wal_bytes;
        self.written.0 += after.wal_bytes - before.wal_bytes;
        self.written.2 += commit.text_bytes;
        tracer.counter(op_id, "wal_bytes", after.wal_bytes - before.wal_bytes);
        tracer.counter(op_id, "fsyncs", after.wal_fsyncs - before.wal_fsyncs);
        pass.ops += 1;

        for _ in 0..2 {
            let op = self.mix.draw(&mut self.reads);
            self.read(&op, pass, tracer, checks, op_id);
        }
        self.describe(pass, tracer, checks, op_id);
    }

    fn read(
        &mut self,
        op: &ReadOp,
        pass: &mut ChurnPass,
        tracer: &mut Tracer,
        checks: &mut Checks,
        op_id: u64,
    ) {
        let request = op.request();
        // One traced read in `SAMPLE_EVERY` also asks for the program's own
        // stage spans.
        if tracer.enabled() && pass.retrieve.len() % SAMPLE_EVERY == 0 {
            let traced = self.snapshot.retrieve(request.clone().with_trace(true));
            if let Some(t) = traced.as_ref().ok().and_then(|r| r.trace()) {
                pass.stages.0 += t.stages().map(|s| s.micros).sum::<u64>();
                pass.stages.1 += t.wall_micros;
            }
        }
        let name = format!("retrieve:{}", op.class.name());
        // Every epoch owns its relations' counters: read them around the op.
        let stats0 = self.snapshot.knowledge_base().edb().access_stats();
        let (rendered, d) = timed(|| {
            tracer.span("session", &name, Tracer::ROOT, op_id, || {
                self.snapshot.retrieve(request).map(|r| r.to_string())
            })
        });
        let stats1 = self.snapshot.knowledge_base().edb().access_stats();
        pass.index_probes += stats1.0 - stats0.0;
        pass.full_scans += stats1.1 - stats0.1;
        pass.ops += 1;
        match rendered {
            Ok(text) => {
                let got = RowDigest::of_rendered(&text);
                let want = RowDigest::of_expected(&self.model.univ.expected(op));
                checks.op(verdict(&op.statement(), got, want));
                pass.retrieve.push(d);
                pass.digest.fold(&text);
                pass.rows += got.rows;
            }
            Err(e) => checks.op(Some(format!("{}: {e}", op.statement()))),
        }
    }

    fn describe(
        &mut self,
        pass: &mut ChurnPass,
        tracer: &mut Tracer,
        checks: &mut Checks,
        op_id: u64,
    ) {
        let i = self.reads.below(self.describes.len());
        let (request, paper) = self.describes[i].clone();
        // Likewise every epoch starts from the writer's describe cache.
        let cache0 = self.snapshot.knowledge_base().describe_cache_stats();
        let (rendered, d) = timed(|| {
            tracer.span("session", "describe:hot", Tracer::ROOT, op_id, || {
                self.snapshot.describe(request).map(|r| r.to_string())
            })
        });
        let cache1 = self.snapshot.knowledge_base().describe_cache_stats();
        pass.cache.0 += cache1.hits - cache0.hits;
        pass.cache.1 += cache1.misses - cache0.misses;
        pass.ops += 1;
        match rendered {
            Ok(text) => {
                pass.describe.push(d);
                pass.digest.fold(&text);
                let mut problem = None;
                if let Some(want) = paper {
                    if theorem_lines(&text) != want {
                        problem = Some(format!(
                            "describe #{i} differs from the paper's answer: {text}"
                        ));
                    }
                }
                match &self.first_seen[i] {
                    Some(first) if *first != text => {
                        problem = Some(format!(
                            "describe #{i} changed between cold and cached answers"
                        ));
                    }
                    Some(_) => {}
                    None => self.first_seen[i] = Some(text),
                }
                checks.op(problem);
            }
            Err(e) => checks.op(Some(format!("describe #{i}: {e}"))),
        }
    }

    /// Runs `n` commits with their follow-up reads.
    pub fn run(
        &mut self,
        n: usize,
        tracer: &mut Tracer,
        checks: &mut Checks,
        mut after_commit: impl FnMut(&Churn, usize),
    ) -> ChurnPass {
        let mut pass = ChurnPass::default();
        for i in 0..n {
            self.commit(&mut pass, tracer, checks);
            after_commit(self, i);
        }
        pass
    }

    /// Checks a reopened store against `model`: same fact count, every
    /// committed rule answering as the oracle says, and a sample of the
    /// read mix.
    pub fn verify_recovered(
        session: &mut Session,
        model: &Model,
        seed: u64,
        what: &str,
        checks: &mut Checks,
    ) {
        let stored = session.knowledge_base().edb().fact_count();
        if stored != model.univ.fact_count() {
            checks.fail(format!(
                "{what}: {stored} facts recovered, model has {}",
                model.univ.fact_count()
            ));
        }
        let mix = ReadMix::new(&model.univ, seed);
        let mut r = Rng::fork(seed, "verify");
        let mut ops: Vec<(String, Vec<String>)> = (0..24)
            .map(|_| {
                let op = mix.draw(&mut r);
                (op.statement(), model.univ.expected(&op))
            })
            .collect();
        ops.extend(
            (0..model.watch.len()).map(|k| (format!("retrieve watch{k}(X)."), model.watch_rows(k))),
        );
        for (statement, want) in ops {
            match session.run(&statement) {
                Ok(a) => {
                    let got = RowDigest::of_rendered(&a.to_string());
                    if let Some(p) = verdict(&statement, got, RowDigest::of_expected(&want)) {
                        checks.fail(format!("{what}: {p}"));
                    }
                }
                Err(e) => checks.fail(format!("{what}: {statement}: {e}")),
            }
        }
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A copy of the store taken right after an acknowledged commit, plus the
/// model at that moment.
struct CrashPoint {
    dir: PathBuf,
    acked_wal_len: u64,
    model: Model,
    commit: usize,
}

/// The durability check: the WAL copy is cut to the acknowledged length
/// plus a random partial record (a process kill leaves the OS cache intact,
/// so the test itself discards what was never acknowledged), the copy is
/// reopened, and exactly the acknowledged prefix must come back.
fn check_crash_point(point: &CrashPoint, seed: u64, checks: &mut Checks) -> Result<(), String> {
    let wal = point.dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).map_err(|e| e.to_string())?;
    bytes.truncate(point.acked_wal_len as usize);
    let mut r = Rng::fork(seed, &format!("torn-{}", point.commit));
    // A frame header promising more payload than follows: a torn append.
    let torn = r.range(9, 40);
    bytes.extend_from_slice(&200u32.to_le_bytes());
    bytes.extend((4..torn).map(|_| r.below(256) as u8));
    std::fs::write(&wal, &bytes).map_err(|e| e.to_string())?;
    let what = format!("crash copy after commit {}", point.commit);
    let mut reopened =
        Session::open_with(&point.dir, SERVING).map_err(|e| format!("{what}: {e}"))?;
    let report = reopened.recovery_report().ok_or("no recovery report")?;
    if report.discarded_tail_bytes != torn as u64 {
        checks.fail(format!(
            "{what}: {} torn bytes discarded, {torn} were appended",
            report.discarded_tail_bytes
        ));
    }
    Churn::verify_recovered(&mut reopened, &point.model, seed, &what, checks);
    Ok(())
}

fn scratch(cfg: &RunConfig, name: &str) -> PathBuf {
    cfg.data_dir.join(format!("churn-{}-{name}", cfg.seed))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let shape = UnivShape::serving(SHAPE.0, SHAPE.1);
    let commits = cfg.ops(COMMITS_PER_SECOND, 60);
    let warmup = cfg.warmup(commits);
    let (univ, gen) = timed(|| university(shape, cfg.seed));
    let dir = scratch(cfg, "store");
    std::fs::create_dir_all(&cfg.data_dir).map_err(|e| e.to_string())?;
    let mut out = Outcome::new("churn_durable", cfg.seed, cfg.seconds, cfg.trace);
    let (mut churn, setup_s) = repeat_setup(cfg.setup_reps, || {
        let mut churn = Churn::open(&dir, univ.clone(), cfg.seed)?;
        let mut warm = Checks::default();
        churn.run(warmup, &mut Tracer::new(false), &mut warm, |_, _| {});
        match warm.reasons.first() {
            Some(r) => Err(format!("warm-up failed: {r}")),
            None => Ok(churn),
        }
    })?;
    out.note(format!(
        "{} students, {} courses, {} facts; {commits} timed commits (each + 2 retrieves + 1 describe) after {warmup} warm-up; 1 client, closed loop",
        SHAPE.0,
        SHAPE.1,
        univ.fact_count()
    ));
    out.note(format!(
        "store {} on {}; FsyncPolicy::Always, checkpoint every {CHECKPOINT_EVERY} commits",
        dir.display(),
        fs_type(&cfg.data_dir)
    ));

    if cfg.trace {
        let third = (commits / 3).max(1);
        let base = churn.run(third, &mut Tracer::new(false), &mut out.checks, |_, _| {});
        let mut tracer = Tracer::new(true);
        let traced = churn.run(third, &mut tracer, &mut out.checks, |_, _| {});
        out.metric(
            "trace_overhead_ratio",
            (traced.ops as f64 / traced.busy_seconds()) / (base.ops as f64 / base.busy_seconds()),
            traced.ops,
        );
        let n = traced.commit.len() + traced.ckpt_commit.len();
        for (name, lat) in STEP_NAMES.iter().zip(&traced.steps) {
            out.metric(format!("session.{name}_us"), lat.median(), lat.len());
        }
        let sum: f64 = traced.steps.iter().map(Latencies::median).sum();
        out.note(format!(
            "commit steps sum to {sum:.1} us; commit p50 of the same pass is {:.1} us (ratio {:.3})",
            traced.commit.median(),
            sum / traced.commit.median()
        ));
        out.metric(
            "durability.fsyncs_per_commit",
            traced.fsyncs as f64 / n as f64,
            n,
        );
        out.metric(
            "durability.wal_bytes_per_commit",
            traced.wal_bytes as f64 / n as f64,
            n,
        );
        let (hits, misses) = traced.cache;
        out.metric(
            "core.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        );
        out.metric(
            "storage.index_probes_per_op",
            traced.index_probes as f64 / traced.ops as f64,
            traced.ops,
        );
        out.metric(
            "storage.full_scans_per_op",
            traced.full_scans as f64 / traced.ops as f64,
            traced.ops,
        );
        out.metric(
            "engine.rows_per_op",
            traced.rows as f64 / traced.retrieve.len().max(1) as f64,
            traced.retrieve.len(),
        );
        // The maintained store a snapshot read projects from cannot be
        // reached for a replay, so no read is decomposed into layer calls.
        out.nothing_to_count(&["session.layers_cover_ratio"]);
        out.metric(
            "session.stage_cover_ratio",
            traced.stages.0 as f64 / traced.stages.1.max(1) as f64,
            traced.retrieve.len() / SAMPLE_EVERY,
        );
        out.answers_digest = traced.digest.0;
        out.counter("wal_bytes", traced.wal_bytes);
        out.counter("fsyncs", traced.fsyncs);
        out.counter("rows", traced.rows);
        let fixture = Fixture::university(&univ, cfg);
        probes::run_all(&fixture, &mut tracer, &mut out)?;
        probes::finish(&tracer, cfg, &mut out)?;
        return Ok(out);
    }

    // Timed pass, with store copies at three seeded commits for the
    // durability check (copied outside every op timer, checked afterwards).
    let mut r = Rng::fork(cfg.seed, "crash-points");
    let mut at: Vec<usize> = (0..3)
        .map(|k| k * commits / 3 + r.below((commits / 3).max(1)))
        .collect();
    at.dedup();
    let mut points: Vec<CrashPoint> = Vec::new();
    let mut copy_error = None;
    let pass = churn.run(
        commits,
        &mut Tracer::new(false),
        &mut out.checks,
        |churn, i| {
            if at.contains(&i) {
                let dir = scratch(cfg, &format!("crash{}", points.len()));
                match copy_dir(&churn.dir, &dir) {
                    Ok(()) => points.push(CrashPoint {
                        dir,
                        acked_wal_len: churn.wal_len(),
                        model: churn.model.clone(),
                        commit: i,
                    }),
                    Err(e) => copy_error = Some(e),
                }
            }
        },
    );
    if let Some(e) = copy_error {
        return Err(format!("copying the store: {e}"));
    }

    // Kill: drop the session with no checkpoint and no shutdown protocol,
    // then time recovery on copies and verify the state that comes back.
    let Churn {
        session,
        snapshot,
        model,
        written,
        ..
    } = churn;
    drop((session, snapshot));
    let mut reopen = Vec::new();
    for k in 0..REOPENS {
        let copy = scratch(cfg, "reopen");
        copy_dir(&dir, &copy)?;
        let (session, d) = timed(|| Session::open_with(&copy, SERVING));
        let mut session = session.map_err(|e| format!("reopen: {e}"))?;
        reopen.push(d.as_secs_f64());
        if k == 0 {
            Churn::verify_recovered(
                &mut session,
                &model,
                cfg.seed,
                "reopen after kill",
                &mut out.checks,
            );
            let report = session.recovery_report().ok_or("no recovery report")?;
            out.note(format!(
                "recovery: {} ops from the checkpoint, {} WAL records replayed, {} tail bytes discarded",
                report.checkpointed, report.replayed, report.discarded_tail_bytes
            ));
        }
    }
    for point in &points {
        check_crash_point(point, cfg.seed, &mut out.checks)?;
    }
    out.note(format!(
        "crash-copy check at commits {:?}: acknowledged prefix required after a torn tail",
        points.iter().map(|p| p.commit).collect::<Vec<_>>()
    ));

    report_common(
        &mut out,
        gen.as_secs_f64() + setup_s,
        pass.ops,
        pass.busy_seconds(),
    );
    pass.retrieve.report(&mut out, "retrieve");
    pass.describe.report(&mut out, "describe");
    pass.commit.report(&mut out, "commit");
    if pass.ckpt_commit.len() > 0 {
        out.metric(
            "ckpt_commit_p50_us",
            pass.ckpt_commit.median(),
            pass.ckpt_commit.len(),
        );
    }
    out.metric("recover_s", median(&reopen), reopen.len());
    out.metric(
        "write_amp",
        (written.0 + written.1) as f64 / written.2.max(1) as f64,
        commits,
    );
    for (name, lat) in STEP_NAMES.iter().zip(&pass.steps) {
        out.note(format!("step {name:<13} p50 {:>9.1} us", lat.median()));
    }
    out.answers_digest = pass.digest.0;
    out.counter("wal_bytes", pass.wal_bytes);
    out.counter("fsyncs", pass.fsyncs);
    out.counter("rows", pass.rows);
    out.counter("index_probes", pass.index_probes);
    out.counter("full_scans", pass.full_scans);
    Ok(out)
}
