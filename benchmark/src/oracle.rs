//! The read mix and its oracle: what each retrieve must answer, computed
//! from the generator's tables (a GPA threshold, a hash join for `can_ta`,
//! a graph walk for `prior`) and never from another engine strategy.

use crate::gen::{University, MAJORS};
use crate::rng::{Rng, Zipf};
use std::collections::BTreeSet;

/// The seven retrieve classes of the `univ_read` mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadClass {
    Point,
    E1Join,
    CanTaCourse,
    CanTaStudent,
    PriorDown,
    PriorUp,
    E2Answer,
}

impl ReadClass {
    /// Every class with its share of the mix in percent. 65 % of the mix
    /// is IDB classes, so the pooled median sits inside them.
    pub const MIX: [(ReadClass, usize); 7] = [
        (ReadClass::Point, 20),
        (ReadClass::E1Join, 15),
        (ReadClass::CanTaCourse, 20),
        (ReadClass::CanTaStudent, 15),
        (ReadClass::PriorDown, 20),
        (ReadClass::PriorUp, 5),
        (ReadClass::E2Answer, 5),
    ];

    pub fn name(self) -> &'static str {
        match self {
            ReadClass::Point => "point",
            ReadClass::E1Join => "e1_join",
            ReadClass::CanTaCourse => "can_ta_course",
            ReadClass::CanTaStudent => "can_ta_student",
            ReadClass::PriorDown => "prior_down",
            ReadClass::PriorUp => "prior_up",
            ReadClass::E2Answer => "e2_answer",
        }
    }
}

/// One retrieve: its class, the constant it binds, and its text in both
/// forms the facade takes (`Session::run` text, `Request` parts).
#[derive(Clone, Debug, PartialEq)]
pub struct ReadOp {
    pub class: ReadClass,
    /// The student or course id the statement binds.
    pub key: u32,
    /// Major index, for the `e2_answer` class.
    pub major: u8,
    pub subject: String,
    pub qualifier: Option<String>,
}

impl ReadOp {
    pub fn new(class: ReadClass, key: u32, major: u8) -> Self {
        let (subject, qualifier) = match class {
            ReadClass::Point => (format!("student(s{key}, M, G)"), None),
            ReadClass::E1Join => ("honor(X)".to_string(), Some(format!("enroll(X, c{key})"))),
            ReadClass::CanTaCourse => (format!("can_ta(X, c{key})"), None),
            ReadClass::CanTaStudent => (format!("can_ta(s{key}, Y)"), None),
            ReadClass::PriorDown => (format!("prior(c{key}, Y)"), None),
            ReadClass::PriorUp => (format!("prior(X, c{key})"), None),
            ReadClass::E2Answer => (
                "answer(X)".to_string(),
                Some(format!(
                    "can_ta(X, c{key}), student(X, {}, V), V > 3.7",
                    MAJORS[major as usize]
                )),
            ),
        };
        ReadOp {
            class,
            key,
            major,
            subject,
            qualifier,
        }
    }

    /// The same retrieve as a `Request`, for the snapshot path.
    pub fn request(&self) -> qdk::Request {
        let request = qdk::Request::subject(self.subject.clone());
        match &self.qualifier {
            Some(q) => request.where_clause(q.clone()),
            None => request,
        }
    }

    /// The statement as an application would type it.
    pub fn statement(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("retrieve {} where {q}.", self.subject),
            None => format!("retrieve {}.", self.subject),
        }
    }
}

/// Draws read ops with Zipf(1.0)-skewed constants. Popularity ranks map to
/// ids through seeded permutations, so the hot keys differ per seed.
pub struct ReadMix {
    students: Vec<u32>,
    courses: Vec<u32>,
    student_rank: Zipf,
    course_rank: Zipf,
}

impl ReadMix {
    pub fn new(univ: &University, seed: u64) -> Self {
        let mut r = Rng::fork(seed, "read-mix");
        let mut students: Vec<u32> = (0..univ.students() as u32).collect();
        let mut courses: Vec<u32> = (0..univ.courses() as u32).collect();
        r.shuffle(&mut students);
        r.shuffle(&mut courses);
        ReadMix {
            student_rank: Zipf::new(students.len()),
            course_rank: Zipf::new(courses.len()),
            students,
            courses,
        }
    }

    pub fn draw(&self, r: &mut Rng) -> ReadOp {
        let mut pick = r.below(100);
        let mut class = ReadClass::Point;
        for (c, share) in ReadClass::MIX {
            if pick < share {
                class = c;
                break;
            }
            pick -= share;
        }
        let key = match class {
            ReadClass::Point | ReadClass::CanTaStudent => {
                self.students[self.student_rank.sample(r)]
            }
            _ => self.courses[self.course_rank.sample(r)],
        };
        ReadOp::new(class, key, r.below(MAJORS.len()) as u8)
    }
}

impl University {
    /// Students eligible to TA `course` under the two `can_ta` rules.
    pub fn can_ta_course(&self, course: u32) -> BTreeSet<u32> {
        self.complete_by_course[course as usize]
            .iter()
            .filter(|&&(s, sem, grade)| self.qualifies(s, course, sem, grade))
            .map(|&(s, _, _)| s)
            .collect()
    }

    /// Courses `student` may TA.
    pub fn can_ta_student(&self, student: u32) -> BTreeSet<u32> {
        self.complete_by_student[student as usize]
            .iter()
            .filter(|&&(c, sem, grade)| self.qualifies(student, c, sem, grade))
            .map(|&(c, _, _)| c)
            .collect()
    }

    /// `can_ta` for one completion: an honor student who got a 4.0, or got
    /// over 3.3 in a semester taught by someone teaching the course now.
    fn qualifies(&self, student: u32, course: u32, sem: u8, grade: u8) -> bool {
        let c = course as usize;
        self.honor(student)
            && (grade == 40
                || (grade > 33
                    && self.taught[c]
                        .iter()
                        .any(|&(p, s, _)| s == sem && self.teach[c].contains(&p))))
    }

    /// Everything reachable from `start` along `edges` (start excluded
    /// unless a cycle returns to it).
    fn reach(edges: &[BTreeSet<u32>], start: u32) -> BTreeSet<u32> {
        let mut seen = BTreeSet::new();
        let mut stack: Vec<u32> = edges[start as usize].iter().copied().collect();
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(edges[n as usize].iter().copied());
            }
        }
        seen
    }

    /// `prior(course, Y)`: all transitive prerequisites.
    pub fn prior_down(&self, course: u32) -> BTreeSet<u32> {
        Self::reach(&self.prereq, course)
    }

    /// `prior(X, course)`: everything `course` is a prerequisite of.
    pub fn prior_up(&self, course: u32) -> BTreeSet<u32> {
        Self::reach(&self.prereq_of, course)
    }

    /// The rows the program must return for `op`, tab-separated like its
    /// rendering, in no particular order.
    pub fn expected(&self, op: &ReadOp) -> Vec<String> {
        let students = |set: BTreeSet<u32>| set.into_iter().map(|s| format!("s{s}")).collect();
        let courses = |set: BTreeSet<u32>| set.into_iter().map(|c| format!("c{c}")).collect();
        match op.class {
            ReadClass::Point => {
                let s = op.key as usize;
                vec![format!(
                    "{}\t{}",
                    MAJORS[self.major[s] as usize],
                    crate::gen::hundredths(self.gpa[s])
                )]
            }
            ReadClass::E1Join => students(
                self.enroll[op.key as usize]
                    .iter()
                    .copied()
                    .filter(|&s| self.honor(s))
                    .collect(),
            ),
            ReadClass::CanTaCourse => students(self.can_ta_course(op.key)),
            ReadClass::CanTaStudent => courses(self.can_ta_student(op.key)),
            ReadClass::PriorDown => courses(self.prior_down(op.key)),
            ReadClass::PriorUp => courses(self.prior_up(op.key)),
            ReadClass::E2Answer => students(
                self.can_ta_course(op.key)
                    .into_iter()
                    .filter(|&s| self.major[s as usize] == op.major)
                    .collect(),
            ),
        }
    }

    /// Rows of the unbound `prior(X, Y)`.
    pub fn prior_rows(&self) -> Vec<String> {
        (0..self.courses() as u32)
            .flat_map(|c| {
                self.prior_down(c)
                    .into_iter()
                    .map(move |p| format!("c{c}\tc{p}"))
            })
            .collect()
    }

    /// Rows of the unbound `path3(X, W)` (three `prereq` hops, deduplicated).
    pub fn path3_rows(&self) -> Vec<String> {
        let mut rows = BTreeSet::new();
        for x in 0..self.courses() {
            for &y in &self.prereq[x] {
                for &z in &self.prereq[y as usize] {
                    for &w in &self.prereq[z as usize] {
                        rows.insert((x, w));
                    }
                }
            }
        }
        rows.into_iter()
            .map(|(x, w)| format!("c{x}\tc{w}"))
            .collect()
    }

    /// Rows of the unbound transitive `triangle(X, Y, Z)`.
    pub fn triangle_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for x in 0..self.courses() {
            for &y in &self.prereq[x] {
                for &z in &self.prereq[y as usize] {
                    if self.prereq[x].contains(&z) {
                        rows.push(format!("c{x}\tc{y}\tc{z}"));
                    }
                }
            }
        }
        rows
    }
}

/// An order-independent digest of answer rows: the row count and the
/// wrapping sum of each row's FNV-1a hash. Two answers with the same rows
/// in any order agree; a missing, extra or altered row does not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowDigest {
    pub rows: u64,
    pub sum: u64,
}

/// The rows of a rendered data answer: the header line (variable names) is
/// skipped, and so are trailing `-- note:` downgrade lines, which report how
/// the answer was computed, not what it is.
pub fn answer_rows(rendered: &str) -> impl Iterator<Item = &str> {
    rendered
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with("-- note:"))
}

/// Checks one rendered retrieve's digest against the oracle's.
pub fn verdict(statement: &str, got: RowDigest, want: RowDigest) -> Option<String> {
    (got != want).then(|| {
        format!(
            "{statement}: {} rows (digest {:x}), oracle says {} (digest {:x})",
            got.rows, got.sum, want.rows, want.sum
        )
    })
}

/// A describe answer as sorted theorem lines, the form the paper's answers
/// are compared in.
pub fn theorem_lines(rendered: &str) -> Vec<String> {
    let mut lines: Vec<String> = rendered.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl RowDigest {
    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a str>) -> Self {
        let mut d = RowDigest::default();
        for row in rows {
            d.rows += 1;
            d.sum = d.sum.wrapping_add(fnv1a(row.as_bytes()));
        }
        d
    }

    /// Digest of a rendered data answer: the header line (variable names)
    /// is skipped, and so are trailing `-- note:` downgrade lines, which
    /// report how the answer was computed, not what it is.
    pub fn of_rendered(text: &str) -> Self {
        Self::of_rows(text.lines().skip(1).filter(|l| !l.starts_with("-- note:")))
    }

    pub fn of_expected(rows: &[String]) -> Self {
        Self::of_rows(rows.iter().map(String::as_str))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{university, UnivShape, JOIN_RULES};
    use crate::workloads::churn_durable::{CommitGen, Model};
    use qdk::{Mutation, Session, Strategy};

    /// The strategies the ROADMAP keeps (`Magic` and `Naive` are marked for
    /// deletion, and this package must keep compiling when they go).
    const STRATEGIES: [Strategy; 3] = [Strategy::SemiNaive, Strategy::Qsq, Strategy::TopDown];

    fn assert_oracle_agrees(session: &Session, univ: &University, what: &str) {
        let keys = |class| match class {
            ReadClass::Point | ReadClass::CanTaStudent => univ.students() as u32,
            _ => univ.courses() as u32,
        };
        for (class, _) in ReadClass::MIX {
            for key in 0..keys(class) {
                let op = ReadOp::new(class, key, (key % 8) as u8);
                let want = RowDigest::of_expected(&univ.expected(&op));
                for strategy in STRATEGIES {
                    let request = op.request().strategy(strategy);
                    let got =
                        RowDigest::of_rendered(&session.retrieve(request).unwrap().to_string());
                    assert_eq!(got, want, "{what}: {} under {strategy:?}", op.statement());
                }
            }
        }
    }

    #[test]
    fn oracle_equals_session_under_every_strategy_maintained_and_not() {
        let univ = university(UnivShape::serving(50, 12), 11);
        let mut session = Session::new();
        session.load(&univ.script()).unwrap();
        assert_oracle_agrees(&session, &univ, "fresh");
        // The first `apply` materialises the maintained store; from then on
        // the bottom-up strategies serve from it.
        session.apply(Mutation::new()).unwrap();
        assert!(session.knowledge_base().is_maintained());
        assert_oracle_agrees(&session, &univ, "maintained");
        // The model follows the churn mix commit by commit.
        let mut model = Model {
            univ,
            watch: Vec::new(),
        };
        let mut commits = CommitGen::new(11);
        for _ in 0..150 {
            session.apply(commits.next(&mut model).mutation).unwrap();
        }
        assert_oracle_agrees(&session, &model.univ, "after 150 commits");
        assert_eq!(
            session.knowledge_base().edb().fact_count(),
            model.univ.fact_count()
        );
    }

    #[test]
    fn unbound_rows_equal_session() {
        let shape = UnivShape {
            prereq_window: 4,
            prereq_block: 10,
            ..UnivShape::serving(20, 40)
        };
        let univ = university(shape, 5);
        let mut session = Session::new();
        session
            .load(&format!("{}{JOIN_RULES}", univ.script()))
            .unwrap();
        for (query, want) in [
            ("retrieve prior(X, Y).", univ.prior_rows()),
            ("retrieve path3(X, W).", univ.path3_rows()),
            ("retrieve triangle(X, Y, Z).", univ.triangle_rows()),
        ] {
            assert!(!want.is_empty(), "{query} should have rows at this shape");
            let got = RowDigest::of_rendered(&session.run(query).unwrap().to_string());
            assert_eq!(got, RowDigest::of_expected(&want), "{query}");
        }
    }

    #[test]
    fn digest_ignores_order_and_header_but_not_content() {
        let a = RowDigest::of_rendered("X\ns1\ns2\n-- note: downgraded\n");
        let b = RowDigest::of_expected(&["s2".into(), "s1".into()]);
        assert_eq!(a, b);
        assert_ne!(a, RowDigest::of_expected(&["s1".into()]));
        assert_ne!(a, RowDigest::of_expected(&["s1".into(), "s3".into()]));
    }

    #[test]
    fn mix_draws_every_class_deterministically() {
        let u = university(UnivShape::serving(50, 12), 1);
        let mix = ReadMix::new(&u, 1);
        let draw = |seed| {
            let mut r = Rng::fork(seed, "ops");
            (0..400).map(|_| mix.draw(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let classes: BTreeSet<ReadClass> = draw(1).iter().map(|o| o.class).collect();
        assert_eq!(classes.len(), 7);
    }
}
