//! Writing a knowledge answer allocates for the text, not per literal: a
//! theorem is written straight into the answer's text, its fresh
//! variables named from a table on the stack. Writing a canonicalized
//! copy of each theorem, one string per literal, costs dozens more.

mod policy;

use policy::{nth_describe, policy_session};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn rendering_allocates_at_most_four_times_per_theorem() {
    let mut s = policy_session();
    let answers: Vec<_> = (0..600).map(|n| s.run(&nth_describe(n)).unwrap()).collect();
    let theorems: usize = answers
        .iter()
        .map(|a| a.as_knowledge().unwrap().theorems.len())
        .sum();
    assert!(theorems >= 600, "{theorems} theorems");

    let before = allocations();
    let bytes: usize = answers.iter().map(|a| a.to_string().len()).sum();
    let per_theorem = (allocations() - before) as f64 / theorems as f64;
    assert!(bytes > 0);
    assert!(
        per_theorem <= 4.0,
        "rendering {theorems} theorems: {per_theorem:.2} allocations per theorem"
    );
}
