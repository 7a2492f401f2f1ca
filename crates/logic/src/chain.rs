//! Persistent append-only sequences.

use std::sync::Arc;

/// A persistent append-only sequence. Extending hands back a new tail
/// node `Arc`-linked to the previous chain, so cloning a chain is one
/// reference-count bump instead of a deep copy of every item accumulated
/// so far. A search that branches — the derivation-tree enumerator, the
/// unfolder, a frozen [`Bindings`](crate::Bindings) prefix — shares each
/// branch's history with the branches grown from it.
#[derive(Debug)]
pub struct Chain<T>(Option<Arc<ChainNode<T>>>);

#[derive(Debug)]
struct ChainNode<T> {
    items: Items<T>,
    parent: Chain<T>,
    /// Items in the whole chain up to and including this node.
    len: usize,
}

/// A node's items: one held inline (a push, the common case), or several.
#[derive(Debug)]
enum Items<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Items<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Items::One(item) => std::slice::from_ref(item),
            Items::Many(items) => items,
        }
    }
}

impl<T> Default for Chain<T> {
    fn default() -> Self {
        Chain(None)
    }
}

impl<T> Chain<T> {
    /// Number of items in the chain.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len)
    }

    /// True if the chain holds no item.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    fn append(&self, items: Items<T>) -> Self {
        Chain(Some(Arc::new(ChainNode {
            len: self.len() + items.as_slice().len(),
            items,
            parent: self.clone(),
        })))
    }

    /// Appends `items`, returning the extended chain (`self` unchanged).
    pub fn extend(&self, items: Vec<T>) -> Self {
        if items.is_empty() {
            return self.clone();
        }
        self.append(Items::Many(items))
    }

    /// Appends `item`, returning the extended chain (`self` unchanged).
    pub fn push(&self, item: T) -> Self {
        self.append(Items::One(item))
    }

    /// The items from index `from` onward, in append order.
    pub fn items_from(&self, from: usize) -> impl Iterator<Item = &T> {
        let mut segs: Vec<&[T]> = Vec::new();
        let mut cur = self;
        let base = loop {
            match cur.0.as_deref() {
                Some(n) if n.len > from => {
                    segs.push(n.items.as_slice());
                    cur = &n.parent;
                }
                node => break node.map_or(0, |n| n.len),
            }
        };
        // `from` may fall inside the earliest collected node.
        segs.into_iter().rev().flatten().skip(from - base)
    }

    /// The items as the slices they were appended in, last appended
    /// first. Allocates nothing.
    pub fn segments_rev(&self) -> impl Iterator<Item = &[T]> {
        let mut cur = self.0.as_deref();
        std::iter::from_fn(move || {
            let node = cur?;
            cur = node.parent.0.as_deref();
            Some(node.items.as_slice())
        })
    }
}

impl<T> Clone for Chain<T> {
    fn clone(&self) -> Self {
        Chain(self.0.clone())
    }
}

impl<T> Drop for ChainNode<T> {
    fn drop(&mut self) {
        // Unroll the tail-recursive drop of a uniquely owned parent chain
        // so guard-length derivations cannot overflow the stack.
        let mut parent = std::mem::take(&mut self.parent);
        while let Some(arc) = parent.0.take() {
            match Arc::try_unwrap(arc) {
                Ok(mut node) => parent = std::mem::take(&mut node.parent),
                Err(_) => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_come_back_in_both_orders() {
        let base = Chain::default().push(1).extend(vec![2, 3]);
        let branch = base.push(4);
        assert_eq!(
            branch.items_from(0).copied().collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        assert_eq!(branch.items_from(2).copied().collect::<Vec<_>>(), [3, 4]);
        let segments: Vec<&[i32]> = branch.segments_rev().collect();
        assert_eq!(segments, [&[4][..], &[2, 3], &[1]]);
        // Extending a chain leaves the one it grew from as it was.
        assert_eq!(base.len(), 3);
        assert!(Chain::<u8>::default().is_empty());
    }
}
