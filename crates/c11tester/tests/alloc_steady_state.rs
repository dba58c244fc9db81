//! Allocation discipline of a recycled execution.
//!
//! A counting global allocator tallies allocator calls made by the
//! calling OS thread while a flag is up. Under the fiber handover every
//! model thread runs on that thread, so one execution's count is
//! exact, and other tests running in parallel do not disturb it.

use c11tester::sync::atomic::{AtomicU32, Ordering};
use c11tester::{Config, HandoverKind, Model};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // `try_with`: the allocator also runs during thread teardown.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            CALLS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: forwards every call to `System` unchanged; the tally touches
// only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    CALLS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    CALLS.with(Cell::get)
}

/// Main plus three spawned `()`-returning threads, each joined; every
/// atomic is unnamed, and nothing else in the program allocates.
fn program() {
    let x = AtomicU32::new(0);
    let spawn = |k: u32| {
        c11tester::thread::spawn(move || {
            let y = AtomicU32::new(k);
            y.fetch_add(1, Ordering::Relaxed);
            let _ = y.load(Ordering::Acquire);
        })
    };
    let handles = [spawn(1), spawn(2), spawn(3)];
    x.store(1, Ordering::Release);
    for h in handles {
        h.join();
    }
    let _ = x.load(Ordering::Relaxed);
}

/// In the steady state an execution's only allocations are the three
/// spawned bodies' boxes (`Runtime::spawn` takes a `Box<dyn FnOnce>`).
/// Join results of `()` are zero-sized boxes, fiber bookkeeping, stacks,
/// slot records, engine tables and report labels are all recycled, and
/// unnamed atomics take no label string.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the memory model's debug-build oracles allocate scratch; run with --release"
)]
fn recycled_fiber_execution_allocates_one_box_per_spawn() {
    let mut model = Model::new(
        Config::new()
            .with_seed(7)
            .with_handover(HandoverKind::Fiber),
    );
    // Warm-up: grow every recycled table to this program's size, over
    // more than one schedule.
    for index in 0..64 {
        assert!(!model.run_at(index, program).found_bug());
    }
    for index in 0..16 {
        let mut report = None;
        let calls = allocations(|| report = Some(model.run_at(index, program)));
        let report = report.expect("ran");
        assert!(!report.found_bug(), "{report}");
        assert_eq!(calls, 3, "allocator calls in execution {index}");
    }
}
