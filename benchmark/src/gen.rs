//! Seeded input generators and the harness's own model of what it fed the
//! program.
//!
//! [`University`] is both things at once: `university(..)` draws an
//! instance of the paper's §2.2 schema from a seed, `script()` renders it
//! as the text the program loads, and the same tables — kept in step by the
//! churn workload's commit generator as it mutates the program — answer every
//! retrieve class independently of any engine strategy (see `oracle.rs`).

use crate::rng::Rng;
use std::collections::BTreeSet;
use std::fmt::Write as _;

pub const MAJORS: [&str; 8] = [
    "math",
    "physics",
    "cs",
    "biology",
    "history",
    "chemistry",
    "economics",
    "music",
];
pub const SEMESTERS: [&str; 6] = ["f86", "s87", "f87", "s88", "f88", "s89"];

/// The schema of §2.2 and its five IDB rules, verbatim.
pub use qdk::datasets::{UNIVERSITY_RULES, UNIVERSITY_SCHEMA};

/// Join-heavy rules over `prereq` for the bulk workload. `triangle` is the
/// transitive triangle (a prerequisite that is also a prerequisite of a
/// prerequisite), which a DAG does contain; the cyclic one would be empty.
pub const JOIN_RULES: &str = "\
path3(X, W) :- prereq(X, Y), prereq(Y, Z), prereq(Z, W).
triangle(X, Y, Z) :- prereq(X, Y), prereq(Y, Z), prereq(X, Z).
";

/// Paper Example 8: `p` depends on the recursive `q`.
pub const EXAMPLE8_PROGRAM: &str = "\
predicate r(From, To).
predicate s(From, To).
p(X, Y) :- q(X, Z), r(Z, Y).
q(X, Y) :- q(X, Z), s(Z, Y).
q(X, Y) :- r(X, Y).
";

/// Honor threshold of the `honor` rule, in hundredths of a grade point.
pub const HONOR_GPA: u16 = 370;

/// Renders hundredths (`385`) as the program renders the parsed number
/// (`3.85`, `3.8`, `4.0`).
pub fn hundredths(h: u16) -> String {
    let v = f64::from(h) / 100.0;
    if v.fract() == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Renders tenths (`33`) the same way (`3.3`).
pub fn tenths(t: u8) -> String {
    hundredths(u16::from(t) * 10)
}

/// One `complete(student, course, sem, grade)` fact, grade in tenths.
pub type Completion = (u32, u32, u8, u8);

/// Shape of one university instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnivShape {
    pub students: usize,
    pub courses: usize,
    pub enroll_per_student: usize,
    pub complete_per_student: usize,
    /// `prereq` is a layered DAG: each course draws this many edges…
    pub prereq_draws: usize,
    /// …into this many immediately preceding course ids…
    pub prereq_window: usize,
    /// …never leaving its block of this many consecutive ids (a
    /// department), which is what bounds the closure: nothing reaches
    /// further than its own block.
    pub prereq_block: usize,
}

impl UnivShape {
    /// The ISSUE's default: two edges per course into the 20 preceding ids.
    pub fn serving(students: usize, courses: usize) -> Self {
        UnivShape {
            students,
            courses,
            enroll_per_student: 4,
            complete_per_student: 5,
            prereq_draws: 2,
            prereq_window: 20,
            prereq_block: courses.max(1),
        }
    }
}

/// A university instance: the generator's tables, indexed the way the
/// oracle and the mutation generator need them.
#[derive(Clone, Debug, PartialEq)]
pub struct University {
    pub shape: UnivShape,
    /// Per student: GPA in hundredths and major index.
    pub gpa: Vec<u16>,
    pub major: Vec<u8>,
    /// Per professor: department index.
    pub dept: Vec<u8>,
    /// Per course: units.
    pub units: Vec<u8>,
    /// Per course: professors teaching it now.
    pub teach: Vec<BTreeSet<u32>>,
    /// Per course: `(professor, semester, eval in tenths)` history.
    pub taught: Vec<BTreeSet<(u32, u8, u8)>>,
    /// Per course: enrolled students.
    pub enroll: Vec<BTreeSet<u32>>,
    /// Per course and per student: completions `(other, semester, grade)`.
    pub complete_by_course: Vec<BTreeSet<(u32, u8, u8)>>,
    pub complete_by_student: Vec<BTreeSet<(u32, u8, u8)>>,
    /// Per course: direct prerequisites, and the reverse.
    pub prereq: Vec<BTreeSet<u32>>,
    pub prereq_of: Vec<BTreeSet<u32>>,
}

/// A layered DAG over `nodes` ids: node `i` draws `draws` edges into the
/// `window` ids below it (duplicates collapse) without leaving its block of
/// `block` consecutive ids, so every path descends and stays in one block.
pub fn layered_dag(
    nodes: usize,
    draws: usize,
    window: usize,
    block: usize,
    rng: &mut Rng,
) -> Vec<BTreeSet<u32>> {
    (0..nodes)
        .map(|i| {
            let lo = i.saturating_sub(window).max(i - i % block);
            (0..if i == lo { 0 } else { draws })
                .map(|_| rng.range(lo, i - 1) as u32)
                .collect()
        })
        .collect()
}

/// Draws a university instance from `seed`.
pub fn university(shape: UnivShape, seed: u64) -> University {
    let UnivShape {
        students, courses, ..
    } = shape;
    let professors = (courses / 3).max(2);
    let mut r = Rng::fork(seed, "university");
    let gpa = (0..students).map(|_| r.range(200, 400) as u16).collect();
    let major = (0..students).map(|_| r.below(MAJORS.len()) as u8).collect();
    let dept = (0..professors)
        .map(|_| r.below(MAJORS.len()) as u8)
        .collect();
    let units = (0..courses).map(|_| r.range(2, 5) as u8).collect();
    let mut u = University {
        shape,
        gpa,
        major,
        dept,
        units,
        teach: vec![BTreeSet::new(); courses],
        taught: vec![BTreeSet::new(); courses],
        enroll: vec![BTreeSet::new(); courses],
        complete_by_course: vec![BTreeSet::new(); courses],
        complete_by_student: vec![BTreeSet::new(); students],
        prereq: vec![BTreeSet::new(); courses],
        prereq_of: vec![BTreeSet::new(); courses],
    };
    for c in 0..courses {
        u.teach[c].insert(r.below(professors) as u32);
        // Three past offerings; the current teacher gave about half of
        // them, so both `can_ta` rules have work to do.
        for _ in 0..3 {
            let prof = if r.below(2) == 0 {
                *u.teach[c].iter().next().expect("one teacher")
            } else {
                r.below(professors) as u32
            };
            let sem = r.below(SEMESTERS.len()) as u8;
            // `taught` has key 3: one row per (professor, course, semester).
            if !u.taught[c].iter().any(|&(p, s, _)| p == prof && s == sem) {
                u.taught[c].insert((prof, sem, r.range(20, 40) as u8));
            }
        }
    }
    for s in 0..students {
        for _ in 0..shape.enroll_per_student {
            u.enroll[r.below(courses)].insert(s as u32);
        }
        for _ in 0..shape.complete_per_student {
            let done = u.draw_completion(s as u32, &mut r);
            u.set_complete(done, true);
        }
    }
    let dag = layered_dag(
        courses,
        shape.prereq_draws,
        shape.prereq_window,
        shape.prereq_block,
        &mut r,
    );
    for (c, pres) in dag.into_iter().enumerate() {
        for p in pres {
            u.set_prereq(c as u32, p, true);
        }
    }
    u
}

impl University {
    pub fn students(&self) -> usize {
        self.gpa.len()
    }

    pub fn courses(&self) -> usize {
        self.units.len()
    }

    pub fn honor(&self, student: u32) -> bool {
        self.gpa[student as usize] > HONOR_GPA
    }

    /// A completion for `student` that respects `complete`'s key
    /// (student, course, semester). Grades are 2.0–4.0 in tenths, with
    /// exact 4.0s common enough that the second `can_ta` rule fires.
    pub fn draw_completion(&self, student: u32, r: &mut Rng) -> Completion {
        loop {
            let course = r.below(self.courses()) as u32;
            let sem = r.below(SEMESTERS.len()) as u8;
            let taken = self.complete_by_student[student as usize]
                .iter()
                .any(|&(c, s, _)| c == course && s == sem);
            if !taken {
                let grade = if r.below(8) == 0 {
                    40
                } else {
                    r.range(20, 39) as u8
                };
                return (student, course, sem, grade);
            }
        }
    }

    pub fn set_complete(&mut self, (student, course, sem, grade): Completion, present: bool) {
        let (by_c, by_s) = (
            &mut self.complete_by_course[course as usize],
            &mut self.complete_by_student[student as usize],
        );
        if present {
            by_c.insert((student, sem, grade));
            by_s.insert((course, sem, grade));
        } else {
            by_c.remove(&(student, sem, grade));
            by_s.remove(&(course, sem, grade));
        }
    }

    pub fn set_prereq(&mut self, course: u32, pre: u32, present: bool) {
        if present {
            self.prereq[course as usize].insert(pre);
            self.prereq_of[pre as usize].insert(course);
        } else {
            self.prereq[course as usize].remove(&pre);
            self.prereq_of[pre as usize].remove(&course);
        }
    }

    pub fn student_fact(&self, s: u32) -> String {
        format!(
            "student(s{s}, {}, {})",
            MAJORS[self.major[s as usize] as usize],
            hundredths(self.gpa[s as usize])
        )
    }

    /// Number of stored facts.
    pub fn fact_count(&self) -> usize {
        let sets = |v: &[BTreeSet<u32>]| v.iter().map(BTreeSet::len).sum::<usize>();
        self.students()
            + self.dept.len()
            + self.courses()
            + sets(&self.enroll)
            + sets(&self.teach)
            + sets(&self.prereq)
            + self.taught.iter().map(BTreeSet::len).sum::<usize>()
            + self
                .complete_by_course
                .iter()
                .map(BTreeSet::len)
                .sum::<usize>()
    }

    /// The facts alone, one per line, in a fixed order.
    pub fn facts(&self) -> String {
        let mut out = String::with_capacity(self.fact_count() * 28);
        for s in 0..self.students() as u32 {
            let _ = writeln!(out, "{}.", self.student_fact(s));
        }
        for (p, d) in self.dept.iter().enumerate() {
            let _ = writeln!(
                out,
                "professor(p{p}, {}, {}).",
                MAJORS[*d as usize],
                50_000 + p
            );
        }
        for (c, units) in self.units.iter().enumerate() {
            let _ = writeln!(out, "course(c{c}, {units}).");
        }
        for c in 0..self.courses() {
            for s in &self.enroll[c] {
                let _ = writeln!(out, "enroll(s{s}, c{c}).");
            }
            for p in &self.teach[c] {
                let _ = writeln!(out, "teach(p{p}, c{c}).");
            }
            for p in &self.prereq[c] {
                let _ = writeln!(out, "prereq(c{c}, c{p}).");
            }
            for &(p, sem, eval) in &self.taught[c] {
                let _ = writeln!(
                    out,
                    "taught(p{p}, c{c}, {}, {}).",
                    SEMESTERS[sem as usize],
                    tenths(eval)
                );
            }
            for &(s, sem, grade) in &self.complete_by_course[c] {
                let _ = writeln!(out, "{}.", complete_fact((s, c as u32, sem, grade)));
            }
        }
        out
    }

    /// Schema, facts and the five §2.2 rules: the text a workload loads.
    pub fn script(&self) -> String {
        format!("{UNIVERSITY_SCHEMA}{}{UNIVERSITY_RULES}", self.facts())
    }
}

pub fn complete_fact((s, c, sem, grade): Completion) -> String {
    format!(
        "complete(s{s}, c{c}, {}, {})",
        SEMESTERS[sem as usize],
        tenths(grade)
    )
}

/// Shape of the generated "policy" rule base.
#[derive(Clone, Copy, Debug)]
pub struct PolicyShape {
    pub levels: usize,
    pub width: usize,
    pub alts: usize,
    /// Sub-concepts per rule body.
    pub fan: usize,
    /// Declared `attr_k(Id, Val)` EDB predicates the rules draw from.
    pub attrs: usize,
}

/// A layered, non-recursive rule base: `levels × width` predicates
/// `pol<level>_<i>(X)`, each defined by `alts` alternative rules whose body
/// is `fan` sub-concepts from the next level down (attribute atoms at the
/// bottom) plus one attribute atom and one comparison on it. Returns the
/// script (attribute declarations first).
pub fn policy_idb(shape: PolicyShape, seed: u64) -> String {
    let mut r = Rng::fork(seed, "policy");
    let mut out = String::new();
    for a in 0..shape.attrs {
        let _ = writeln!(out, "predicate attr{a}(Id, Val).");
    }
    for level in 0..shape.levels {
        for i in 0..shape.width {
            for _ in 0..shape.alts {
                let _ = write!(out, "pol{level}_{i}(X) :- ");
                for k in 0..shape.fan {
                    if level + 1 < shape.levels {
                        let _ = write!(out, "pol{}_{}(X), ", level + 1, r.below(shape.width));
                    } else {
                        let _ = write!(out, "attr{}(X, U{k}), ", r.below(shape.attrs));
                    }
                }
                let _ = writeln!(
                    out,
                    "attr{}(X, V), V > {}.",
                    r.below(shape.attrs),
                    r.range(1, 9)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> University {
        university(UnivShape::serving(50, 12), seed)
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        assert_eq!(small(3).script(), small(3).script());
        assert_ne!(small(3).script(), small(4).script());
        let shape = PolicyShape {
            levels: 3,
            width: 5,
            alts: 2,
            fan: 2,
            attrs: 6,
        };
        assert_eq!(policy_idb(shape, 3), policy_idb(shape, 3));
        assert_ne!(policy_idb(shape, 3), policy_idb(shape, 4));
    }

    #[test]
    fn dag_descends_and_respects_window() {
        let dag = layered_dag(200, 2, 6, 50, &mut Rng::new(5));
        for (i, pres) in dag.iter().enumerate() {
            assert!(pres.len() <= 2);
            assert!(pres
                .iter()
                .all(|&p| (p as usize) < i && i - p as usize <= 6 && p as usize / 50 == i / 50));
        }
        assert!(dag[0].is_empty() && dag[50].is_empty() && !dag[1].is_empty());
    }

    #[test]
    fn indexes_agree_and_keys_hold() {
        let u = small(9);
        let by_course: usize = u.complete_by_course.iter().map(BTreeSet::len).sum();
        let by_student: usize = u.complete_by_student.iter().map(BTreeSet::len).sum();
        assert_eq!(by_course, by_student);
        for done in &u.complete_by_student {
            let keys: BTreeSet<(u32, u8)> = done.iter().map(|&(c, s, _)| (c, s)).collect();
            assert_eq!(keys.len(), done.len());
        }
        assert_eq!(u.facts().lines().count(), u.fact_count());
    }

    #[test]
    fn numbers_render_as_the_program_renders_them() {
        assert_eq!(hundredths(385), "3.85");
        assert_eq!(hundredths(380), "3.8");
        assert_eq!(hundredths(400), "4.0");
        assert_eq!(tenths(33), "3.3");
    }
}
