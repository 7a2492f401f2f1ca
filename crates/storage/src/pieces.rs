//! Copy-on-write piece directories: the unit of structural sharing.
//!
//! A [`Pieces`] is a sequence of `Arc`-shared pieces — tuple segments,
//! hash-index shards — behind one shared directory.
//! Cloning it bumps a single reference count. Mutating piece `i` copies
//! the directory (a vector of handles) and piece `i` the first time
//! either is touched after a clone, and mutates in place while both are
//! unshared, so a write after a snapshot costs the pieces it touches, not
//! the structure. An empty or one-piece directory — every small relation
//! and every fresh working set — allocates no directory at all.

use std::sync::Arc;

/// A copy-on-write sequence of `Arc`-shared pieces (see the module docs).
#[derive(Debug, Default)]
pub(crate) enum Pieces<T> {
    #[default]
    Empty,
    One(Arc<T>),
    Many(Arc<Vec<Arc<T>>>),
}

impl<T> Clone for Pieces<T> {
    fn clone(&self) -> Self {
        match self {
            Pieces::Empty => Pieces::Empty,
            Pieces::One(p) => Pieces::One(Arc::clone(p)),
            Pieces::Many(v) => Pieces::Many(Arc::clone(v)),
        }
    }
}

impl<T> Pieces<T> {
    /// The piece handles, in order.
    pub(crate) fn as_slice(&self) -> &[Arc<T>] {
        match self {
            Pieces::Empty => &[],
            Pieces::One(p) => std::slice::from_ref(p),
            Pieces::Many(v) => v,
        }
    }

    /// Number of pieces.
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Piece `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub(crate) fn get(&self, i: usize) -> &T {
        &self.as_slice()[i]
    }

    /// A directory holding `pieces`, each freshly owned.
    pub(crate) fn from_vec(pieces: Vec<T>) -> Self {
        let mut handles: Vec<Arc<T>> = pieces.into_iter().map(Arc::new).collect();
        match handles.len() {
            0 => Pieces::Empty,
            1 => handles.pop().map_or(Pieces::Empty, Pieces::One),
            _ => Pieces::Many(Arc::new(handles)),
        }
    }

    /// Appends a piece (copying the directory if a clone shares it).
    pub(crate) fn push(&mut self, piece: T) {
        let piece = Arc::new(piece);
        *self = match std::mem::take(self) {
            Pieces::Empty => Pieces::One(piece),
            Pieces::One(first) => Pieces::Many(Arc::new(vec![first, piece])),
            Pieces::Many(mut v) => {
                Arc::make_mut(&mut v).push(piece);
                Pieces::Many(v)
            }
        };
    }

    /// Takes every piece handle out, leaving the directory empty.
    pub(crate) fn into_handles(self) -> Vec<Arc<T>> {
        match self {
            Pieces::Empty => Vec::new(),
            Pieces::One(p) => vec![p],
            Pieces::Many(v) => Arc::try_unwrap(v).unwrap_or_else(|v| (*v).clone()),
        }
    }

    /// How many of these pieces are not the very piece `other` holds at
    /// the same position — what a write since the two diverged copied.
    pub(crate) fn unshared_with(&self, other: &Pieces<T>) -> usize {
        let theirs = other.as_slice();
        self.as_slice()
            .iter()
            .enumerate()
            .filter(|(i, p)| !theirs.get(*i).is_some_and(|q| Arc::ptr_eq(p, q)))
            .count()
    }
}

impl<T: Clone> Pieces<T> {
    /// Mutable access to piece `i`, copying the directory and the piece
    /// first if a clone still shares them.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub(crate) fn make_mut(&mut self, i: usize) -> &mut T {
        match self {
            Pieces::One(p) if i == 0 => Arc::make_mut(p),
            Pieces::Many(v) => Arc::make_mut(&mut Arc::make_mut(v)[i]),
            _ => panic!("piece {i} out of range"),
        }
    }

    /// Mutable access to every piece, copying the shared ones.
    pub(crate) fn each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        for i in 0..self.len() {
            f(self.make_mut(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_until_a_piece_is_written() {
        let mut a: Pieces<Vec<u32>> = Pieces::default();
        assert_eq!(a.len(), 0);
        a.push(vec![1]);
        assert!(matches!(a, Pieces::One(_)));
        a.push(vec![2]);
        a.push(vec![3]);
        let b = a.clone();
        assert_eq!(a.unshared_with(&b), 0);
        a.make_mut(1).push(20);
        assert_eq!(a.unshared_with(&b), 1);
        assert_eq!(b.get(1), &vec![2]);
        assert_eq!(a.get(1), &vec![2, 20]);
        // In place from now on: the piece is unshared.
        let p = Arc::as_ptr(&a.as_slice()[1]);
        a.make_mut(1).push(21);
        assert_eq!(Arc::as_ptr(&a.as_slice()[1]), p);
        assert_eq!(a.into_handles().len(), 3);
    }

    #[test]
    fn from_vec_picks_the_smallest_shape() {
        assert!(matches!(Pieces::<u8>::from_vec(vec![]), Pieces::Empty));
        assert!(matches!(Pieces::from_vec(vec![1u8]), Pieces::One(_)));
        let mut many = Pieces::from_vec(vec![1u8, 2, 3]);
        many.each_mut(|p| *p += 1);
        let got: Vec<u8> = many.as_slice().iter().map(|p| **p).collect();
        assert_eq!(got, [2, 3, 4]);
    }
}
