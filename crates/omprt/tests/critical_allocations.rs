//! A `critical` entry allocates nothing.
//!
//! The construct is one probe of the caller's lock word, the body and an
//! unlock: no name lookup, no map and no reference count. A counting
//! global allocator counts the allocations the master thread makes over
//! a thousand uncontended entries, after one warm-up entry has grown the
//! thread's shadow callstack. It lives in its own binary because the
//! allocator is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use omprt::{OpenMp, WordLock};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            COUNT.with(|count| count.set(count.get() + 1));
        }
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn an_uncontended_critical_entry_allocates_nothing() {
    static COUNTER: WordLock = WordLock::new();
    let rt = OpenMp::with_threads(1);
    let entered = AtomicUsize::new(0);
    let allocations = AtomicUsize::new(usize::MAX);
    rt.parallel(|ctx| {
        let enter = || {
            entered.fetch_add(1, Ordering::Relaxed);
        };
        ctx.critical(&COUNTER, enter);
        ARMED.with(|armed| armed.set(true));
        for _ in 0..1000 {
            ctx.critical(&COUNTER, enter);
        }
        ARMED.with(|armed| armed.set(false));
        allocations.store(COUNT.with(Cell::get), Ordering::Relaxed);
    });
    assert_eq!(entered.into_inner(), 1001);
    assert_eq!(allocations.into_inner(), 0, "a critical entry allocated");
}
