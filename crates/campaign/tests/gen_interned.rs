//! A `gen:<pseed>` target generates its program once, not per
//! execution.
//!
//! A counting global allocator tallies allocator calls made by the
//! calling OS thread while a flag is up (under the fiber handover every
//! model thread runs on that thread). Interpreting an already-generated
//! program in place is the floor; an execution of the target must cost
//! exactly that much, while generating the program, or copying each
//! thread's ops, costs more.

use c11tester::{Config, HandoverKind, Model};
use c11tester_campaign::targets;
use c11tester_genprog::{run_program, run_shared, Program};
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

#[test]
fn gen_target_executions_generate_nothing() {
    let target = targets::find("gen:3").expect("gen target resolves");
    // The same program, generated once for the whole test.
    let program: &'static Program = Box::leak(Box::new(Program::generate(3)));
    let generation = allocations(|| drop(Program::generate(3)));
    assert!(generation > 0);

    let config = || {
        Config::new()
            .with_seed(5)
            .with_handover(HandoverKind::Fiber)
    };
    let [mut via_target, mut shared, mut copying] = [(); 3].map(|()| Model::new(config()));
    // Warm the models up on the same indices, then compare the same
    // execution made each way.
    for index in 0..32 {
        via_target.run_at(index, || target.run());
        shared.run_at(index, || run_shared(program));
        copying.run_at(index, || run_program(program));
    }
    let copies = program.threads.iter().filter(|ops| !ops.is_empty()).count() as u64;
    assert!(copies > 0);
    for index in 0..8 {
        let target_calls = allocations(|| drop(via_target.run_at(index, || target.run())));
        let floor = allocations(|| drop(shared.run_at(index, || run_shared(program))));
        let copied = allocations(|| drop(copying.run_at(index, || run_program(program))));
        assert_eq!(
            target_calls, floor,
            "execution {index}: the target allocates beyond interpreting its program \
             (generating it costs {generation} calls)"
        );
        assert_eq!(
            copied,
            floor + copies,
            "execution {index}: one copy per thread"
        );
    }
}
