//! Parsing allocates per distinct name, not per token: a script of 10^4
//! facts over 537 distinct constants costs at most three allocations per
//! fact. A parser that copies tokens, or gives each occurrence of a name
//! its own symbol, costs several more.

use qdk::lang::parser::parse_script;
use qdk::logic::parser::parse_program;
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

const FACTS: usize = 10_000;

#[test]
fn parsing_allocates_at_most_three_times_per_fact() {
    let text: String = (0..FACTS)
        .map(|i| format!("enroll(s{}, c{}).\n", i % 500, i % 37))
        .collect();

    let before = allocations();
    let script = parse_script(&text).unwrap();
    let per_fact = (allocations() - before) as f64 / FACTS as f64;
    assert_eq!(script.len(), FACTS);
    drop(script);
    assert!(
        per_fact <= 3.0,
        "parse_script: {per_fact:.2} allocations per fact"
    );

    let before = allocations();
    let program = parse_program(&text).unwrap();
    let per_fact = (allocations() - before) as f64 / FACTS as f64;
    assert_eq!(program.rules.len(), FACTS);
    assert!(
        per_fact <= 3.0,
        "parse_program: {per_fact:.2} allocations per fact"
    );
}
