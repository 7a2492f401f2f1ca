//! The canonical order of a retrieve answer: its rows sorted under `Ord`
//! on values, duplicates dropped.
//!
//! Comparing tuples directly follows a pointer into each row and compares
//! symbol text, which costs most of 90 ms on the 2.5·10⁵ rows of the
//! largest benchmark answer. Instead one pass over the rows, in the order
//! the evaluation produced them, gives every distinct value an id; the
//! ids are ranked in value order (values that compare equal share a
//! rank); a counting pass places each row's index in the range of its
//! first column's rank; each such group is sorted by the packed ranks of
//! the other columns; and the rows are gathered in that order. Only the
//! first pass reads the rows' values; everything after it touches
//! integers and row handles.
//!
//! What the sort allocates beside the rows is a few integers and a row
//! handle per row, in 8 KiB pieces — the size of the pieces the
//! evaluation's derived store frees just before, so they are reused and
//! the sort does not raise the memory peak the evaluation set — plus a
//! few words per distinct value.

use qdk_logic::FxMixHashMap;
use qdk_storage::{Tuple, Value};

/// At or below this many rows a direct sort is as cheap as ranking.
const SMALL: usize = 64;
/// Bytes per piece of the sort's per-row arrays.
const PIECE_BYTES: usize = 8 << 10;
/// An entry's row equals the row before it.
const DUPLICATE: u64 = 1 << 63;

/// Sorts `rows` under `Ord` on values and drops duplicates (of two equal
/// rows, which one is kept is unspecified).
pub(crate) fn sort_dedup(rows: &mut Vec<Tuple>) {
    let n = rows.len();
    let arity = rows.first().map_or(0, Tuple::arity);
    if n <= SMALL || arity == 0 || rows.iter().any(|r| r.arity() != arity) {
        return plain(rows);
    }
    let (ids, ranks) = Ranks::new(rows, arity);
    let at = bits(n as u64 - 1);
    if at + ranks.bits * (arity - 1) > 63 {
        return plain(rows);
    }
    // Each row's entry, `(ranks of columns 1.. << at) | index`, at the
    // next free position of its first column's group.
    let mut order: Pieces<u64> = Pieces::filled(n, 0);
    let mut next = ranks.starts.clone();
    for i in 0..n {
        let first = ranks.of_id[ids.get(i * arity) as usize] as usize;
        let rest = (1..arity).fold(0u64, |k, c| {
            (k << ranks.bits) | u64::from(ranks.of_id[ids.get(i * arity + c) as usize])
        });
        order.set(next[first], (rest << at) | i as u64);
        next[first] += 1;
    }
    drop(ids);
    let key = |e: u64| (e & !DUPLICATE) >> at;
    let mut scratch = Vec::new();
    for group in ranks.starts.windows(2) {
        let (lo, hi) = (group[0], group[1]);
        if hi - lo > 1 {
            order.sort(lo, hi, &mut scratch);
            for p in lo + 1..hi {
                if key(order.get(p)) == key(order.get(p - 1)) {
                    order.set(p, order.get(p) | DUPLICATE);
                }
            }
        }
    }
    // Gather: take each kept row out of its slot in sorted order, then
    // put them back. The slots reuse the rows' own allocation.
    let mut slots: Vec<Option<Tuple>> = std::mem::take(rows).into_iter().map(Some).collect();
    let index = |e: u64| (e & ((1 << at) - 1)) as usize;
    let sorted: Pieces<Tuple> = Pieces::from_iter(
        order
            .into_iter()
            .filter(|&e| e & DUPLICATE == 0)
            .filter_map(|e| slots[index(e)].take()),
    );
    slots.clear();
    slots.extend(sorted.into_iter().map(Some));
    // Every slot holds a row, and `map_while` collects in place.
    *rows = slots.into_iter().map_while(|row| row).collect();
}

/// The direct sort, for small or irregular answers.
fn plain(rows: &mut Vec<Tuple>) {
    rows.sort_unstable();
    rows.dedup();
}

/// Bits needed to write `x`.
fn bits(x: u64) -> usize {
    (u64::BITS - x.leading_zeros()) as usize
}

/// The rank of every distinct value of an answer, and where each first
/// column rank's rows start in the sorted order.
struct Ranks {
    /// Distinct value id to rank.
    of_id: Vec<u32>,
    /// Bits one rank takes.
    bits: usize,
    /// `starts[r]..starts[r + 1]`: the positions of the rows whose first
    /// value has rank `r`.
    starts: Vec<usize>,
}

impl Ranks {
    /// The id of each value of `rows` (row-major), and the ranks of the
    /// ids.
    fn new(rows: &[Tuple], arity: usize) -> (Pieces<u32>, Ranks) {
        // The distinct values by identity, and how many rows each starts.
        let mut index: FxMixHashMap<(u8, u64), u32> = FxMixHashMap::default();
        let mut distinct: Vec<&Value> = Vec::new();
        let mut firsts: Vec<usize> = Vec::new();
        let ids = Pieces::from_iter(rows.iter().flat_map(|row| row.values()).enumerate().map(
            |(k, v)| {
                let id = *index.entry(identity(v)).or_insert_with(|| {
                    distinct.push(v);
                    firsts.push(0);
                    (distinct.len() - 1) as u32
                });
                if k % arity == 0 {
                    firsts[id as usize] += 1;
                }
                id
            },
        ));
        let mut by_value: Vec<usize> = (0..distinct.len()).collect();
        by_value.sort_unstable_by(|&a, &b| distinct[a].cmp(distinct[b]));
        // Rank the ids in value order, equal values alike, and count the
        // rows each rank starts.
        let mut of_id = vec![0u32; distinct.len()];
        let mut counts = vec![0usize];
        for (w, &id) in by_value.iter().enumerate() {
            if w > 0 && distinct[by_value[w - 1]] != distinct[id] {
                counts.push(0);
            }
            let r = counts.len() - 1;
            of_id[id] = r as u32;
            counts[r] += firsts[id];
        }
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut at = 0;
        starts.push(at);
        for c in &counts {
            at += c;
            starts.push(at);
        }
        let ranks = Ranks {
            of_id,
            bits: bits(counts.len() as u64 - 1),
            starts,
        };
        (ids, ranks)
    }
}

/// A value's identity: its kind, and its bits or the address of its
/// text, which the rows keep alive. Equal identities are equal values.
fn identity(v: &Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, *i as u64),
        Value::Num(n) => (1, n.to_bits()),
        Value::Sym(s) => (2, s.as_str().as_ptr() as u64),
        Value::Str(s) => (3, s.as_str().as_ptr() as u64),
        Value::Bool(b) => (4, u64::from(*b)),
    }
}

/// An array in pieces of [`PIECE_BYTES`].
struct Pieces<T>(Vec<Box<[T]>>);

impl<T> Pieces<T> {
    /// Elements per piece.
    const LEN: usize = PIECE_BYTES / std::mem::size_of::<T>();

    fn from_iter(items: impl Iterator<Item = T>) -> Self {
        let mut pieces = Vec::new();
        let mut piece = Vec::with_capacity(Self::LEN);
        for item in items {
            piece.push(item);
            if piece.len() == Self::LEN {
                pieces.push(std::mem::replace(&mut piece, Vec::with_capacity(Self::LEN)).into());
            }
        }
        if !piece.is_empty() {
            pieces.push(piece.into());
        }
        Pieces(pieces)
    }

    /// The elements in order, each piece freed once read.
    fn into_iter(self) -> impl Iterator<Item = T> {
        self.0.into_iter().flat_map(Vec::from)
    }
}

impl<T: Copy + Ord> Pieces<T> {
    fn filled(n: usize, value: T) -> Self {
        Pieces::from_iter(std::iter::repeat_n(value, n))
    }

    fn get(&self, i: usize) -> T {
        self.0[i / Self::LEN][i % Self::LEN]
    }

    fn set(&mut self, i: usize, value: T) {
        self.0[i / Self::LEN][i % Self::LEN] = value;
    }

    /// Sorts the elements at `lo..hi`, through `scratch` when they
    /// straddle pieces.
    fn sort(&mut self, lo: usize, hi: usize, scratch: &mut Vec<T>) {
        let (piece, base) = (lo / Self::LEN, lo / Self::LEN * Self::LEN);
        if (hi - 1) / Self::LEN == piece {
            self.0[piece][lo - base..hi - base].sort_unstable();
            return;
        }
        scratch.clear();
        scratch.extend((lo..hi).map(|i| self.get(i)));
        scratch.sort_unstable();
        for (i, &value) in (lo..hi).zip(scratch.iter()) {
            self.set(i, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn value(rng: &mut StdRng, spread: i64) -> Value {
        let k = rng.gen_range(0..spread);
        match rng.gen_range(0..6) {
            0 => Value::Int(k),
            1 => Value::Num(k as f64 / 2.0),
            2 | 3 => Value::sym(&format!("s{k}")),
            4 => Value::str(&format!("s{k}")),
            _ => Value::Bool(k % 2 == 0),
        }
    }

    #[test]
    fn matches_a_direct_sort_on_random_answers() {
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..200 {
            let arity = rng.gen_range(1..4);
            let n = rng.gen_range(0..3_000);
            // Few distinct values make large groups and many duplicates.
            let spread = [2, 20, 4_000][case % 3];
            let rows: Vec<Tuple> = (0..n)
                .map(|_| (0..arity).map(|_| value(&mut rng, spread)).collect())
                .collect();
            let mut fast = rows.clone();
            sort_dedup(&mut fast);
            let mut direct = rows;
            plain(&mut direct);
            assert_eq!(fast, direct, "case {case}: {n} rows of arity {arity}");
        }
    }

    #[test]
    fn symbols_compare_by_text_whatever_their_allocation() {
        let rows: Vec<Tuple> = (0..500)
            .rev()
            .map(|k| Tuple::new(vec![Value::sym(&format!("c{}", k % 100))]))
            .collect();
        let mut fast = rows;
        sort_dedup(&mut fast);
        let mut want: Vec<String> = (0..100).map(|k| format!("(c{k})")).collect();
        want.sort();
        let got: Vec<String> = fast.iter().map(ToString::to_string).collect();
        assert_eq!(got, want);
    }
}
