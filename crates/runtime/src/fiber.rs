//! Fiber-backed run-token handover (paper §7.3–§7.4).
//!
//! The paper's fastest handover strategy implements application threads
//! as *fibers*: user-space contexts that switch with a register swap
//! instead of a futex round trip through the kernel (Figure 14 reports
//! 0.34µs per swapcontext switch vs 1.32µs for futexes on one core).
//! This module is the Rust equivalent: every model thread of an
//! execution runs on the **driver's OS thread**, each on its own
//! heap-allocated stack, and the run token moves by swapping stack
//! pointers and callee-saved registers — no syscall, no kernel
//! scheduler, no cross-core traffic.
//!
//! Where the paper borrows a kernel thread's context for TLS (§7.4),
//! we need the reverse adjustment: because every fiber shares the
//! driver's OS thread, thread-locals are shared too, so the facade
//! derives the current model-thread id from [`Fibers::current`]
//! instead of a per-OS-thread binding.
//!
//! # Cooperative protocol
//!
//! The executor's `wake(next); park(self)` pairs become one atomic
//! handover: `wake` records the chosen successor, and the *next
//! suspension point* of the caller — a park or the end of its body —
//! performs the actual context switch. Strict run-token passing (at
//! most one wake is ever outstanding) is what makes this exact; the
//! module panics loudly on protocol violations instead of deadlocking.
//!
//! # Safety model
//!
//! All switching happens on the driver OS thread that owns the
//! execution, so the group's bookkeeping is plain driver-owned state in
//! a [`TokenCell`]: no lock, two checks per access. The *owner check*
//! confines the group to one OS thread per execution: the first access
//! claims it, any other thread's access panics, and the end of the
//! execution ([`Fibers::finish`]) releases it, so a fiber `Runtime` may
//! move to another thread between executions. The cell's tripwire makes
//! a re-entrant access panic. Every borrow ends before
//! `fiber_switch`, so the fiber switched to finds the cell free. A panic
//! never unwinds across a switch frame: fiber bodies are caught at the
//! fiber's root, and the cooperative `Aborted` unwind is contained to
//! the fiber's own stack. Stacks are fixed-size (1 MiB) `mmap` regions
//! with a `PROT_NONE` guard page below them, so overflowing one is a
//! deterministic SIGSEGV (a `CrashRecord` under `--isolate`) instead of
//! a silent scribble over the heap. They are recycled through a
//! per-driver-thread cache so steady-state executions map nothing.

#![allow(unsafe_code)]

use crate::pool::panic_message;
use crate::token::{TokenCell, TokenRef};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Whether fiber handover is available on this target. The context
/// switch is x86_64 SysV assembly; other targets fall back to the
/// futex strategy at `Runtime` construction.
pub(crate) const fn supported() -> bool {
    cfg!(all(target_arch = "x86_64", unix))
}

/// Usable fiber stack size. Model-thread bodies are ordinary Rust
/// closures; 1 MiB is an order of magnitude above what the deepest
/// workload uses, debug builds included. Only touched pages are
/// committed.
const STACK_SIZE: usize = 1 << 20;

/// Size of the inaccessible region below each stack: one x86_64 page
/// (the only architecture with a context switch). One page is enough
/// because rustc probes every page of a frame larger than that.
const GUARD_SIZE: usize = 4096;

/// Per-driver-thread cache of retired fiber stacks. Executions are
/// driven to completion on one OS thread, so a thread-local free list
/// makes steady-state stack allocation free without any locking.
const STACK_CACHE_MAX: usize = 32;

thread_local! {
    static STACK_CACHE: RefCell<Vec<RawStack>> = const { RefCell::new(Vec::new()) };
    /// Its address identifies the calling OS thread (the owner check).
    static THREAD_MARK: u8 = const { 0 };
}

/// A non-zero token unique to the calling OS thread while it lives. A
/// later thread may reuse an exited one's, which is harmless: the
/// exited thread makes no further access.
#[inline]
fn thread_mark() -> usize {
    THREAD_MARK.with(|m| m as *const u8 as usize)
}

/// Memory-mapping calls, declared directly against the libc the binary
/// links anyway (the `libc` crate is unavailable offline).
#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ_WRITE: i32 = 1 | 2;
    pub const MAP_PRIVATE: i32 = 2;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    pub const MAP_ANONYMOUS: i32 = 0x20;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    pub const MAP_ANONYMOUS: i32 = 0x1000;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
}

/// One mapped region: `GUARD_SIZE` inaccessible bytes at `base`, then
/// `STACK_SIZE` usable bytes (the stack grows down toward the guard).
struct RawStack {
    base: std::ptr::NonNull<u8>,
}

impl RawStack {
    fn obtain() -> RawStack {
        STACK_CACHE
            .with(|c| c.borrow_mut().pop())
            .unwrap_or_else(RawStack::map)
    }

    #[cfg(unix)]
    fn map() -> RawStack {
        // SAFETY: a fresh private anonymous mapping aliases nothing;
        // `mprotect` covers the first page of that same mapping.
        let base = unsafe {
            let base = sys::mmap(
                std::ptr::null_mut(),
                GUARD_SIZE + STACK_SIZE,
                sys::PROT_READ_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            );
            assert!(base != sys::MAP_FAILED, "fiber stack mmap failed");
            assert_eq!(
                sys::mprotect(base, GUARD_SIZE, sys::PROT_NONE),
                0,
                "fiber stack guard mprotect failed"
            );
            base
        };
        RawStack {
            base: std::ptr::NonNull::new(base.cast()).expect("mmap returned null"),
        }
    }

    #[cfg(not(unix))]
    fn map() -> RawStack {
        unreachable!("fiber handover unsupported on this target")
    }

    /// One past the highest usable byte.
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + GUARD_SIZE + STACK_SIZE
    }

    fn recycle(self) {
        STACK_CACHE.with(|c| {
            let mut cache = c.borrow_mut();
            if cache.len() < STACK_CACHE_MAX {
                cache.push(self);
            }
            // Else: drop, unmapping.
        });
    }
}

impl Drop for RawStack {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: `base` is the start of a live mapping of exactly this
        // length that nothing else references: a stack is dropped only
        // after its fiber finished. Failure would leak, never corrupt.
        unsafe {
            sys::munmap(self.base.as_ptr().cast(), GUARD_SIZE + STACK_SIZE);
        }
    }
}

/// Lifecycle of one fiber slot.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Status {
    /// Slot allocated; no body yet, or body stored but never started.
    New,
    /// Currently executing (exactly one slot per driver at any time).
    Running,
    /// Started and parked; `sp` holds its suspended context.
    Suspended,
    /// Body returned (or unwound); stack is reclaimable.
    Finished,
}

/// One model thread's fiber state. Boxed so its address — which the
/// context-switch assembly writes through — survives slot-vector
/// growth.
struct FiberSlot {
    /// Saved stack pointer while `Suspended` (written by the switch).
    sp: *mut u8,
    /// The fiber's stack, `None` for the driver's native context and
    /// for fibers not yet started.
    stack: Option<RawStack>,
    status: Status,
    /// Body stored at spawn, taken by the fiber entry on first switch-in.
    body: Option<Box<dyn FnOnce() + Send>>,
    /// Back-pointers for the fiber entry (stable: they live inside the
    /// `Runtime`'s `Arc` allocation, which outlives every fiber).
    fibers: *const Fibers,
    poisoned: *const AtomicBool,
    ix: usize,
}

impl FiberSlot {
    fn blank() -> FiberSlot {
        FiberSlot {
            sp: std::ptr::null_mut(),
            stack: None,
            status: Status::New,
            body: None,
            fibers: std::ptr::null(),
            poisoned: std::ptr::null(),
            ix: 0,
        }
    }
}

struct FiberState {
    /// Boxed on purpose (not `clippy::vec_box` noise): suspended stacks
    /// hold raw pointers into their `FiberSlot`, so slot addresses must
    /// survive `slots` reallocating as the execution forks threads.
    #[allow(clippy::vec_box)]
    slots: Vec<Box<FiberSlot>>,
    /// Slot records of earlier executions ([`Fibers::reset`]), reused
    /// by `add_slot` so steady-state executions allocate none.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<FiberSlot>>,
    /// The successor chosen by the last `wake`, consumed by the next
    /// suspension point. Strict token passing keeps this at most one.
    pending: Option<usize>,
    /// Panic messages that escaped a fiber body's root `catch_unwind`
    /// (anything but the cooperative `Aborted` unwind).
    escaped: Vec<String>,
    /// The slot bound to the driver's native context.
    driver: usize,
}

/// The fiber group backing one execution's `Runtime` in
/// [`HandoverKind::Fiber`](crate::HandoverKind::Fiber) mode.
pub(crate) struct Fibers {
    /// Driver-owned bookkeeping; reached only through [`Fibers::state`].
    state: TokenCell<FiberState>,
    /// [`thread_mark`] of the OS thread that claimed the group, 0
    /// while it is free (before the first access, after `finish`).
    owner: AtomicUsize,
    /// Slot currently executing — read on every model operation to
    /// derive the current thread id, so it needs no borrow.
    current: AtomicUsize,
}

// SAFETY: the raw pointers inside `FiberState` reference the owning
// `Runtime`'s `Arc` allocation and heap boxes that live until the
// `Fibers` is dropped, and `Fibers::state` — the only way to them —
// admits only the OS thread that claimed the group. Moving the group to
// another thread between executions is fine: `finish` releases the
// claim once no fiber is live.
unsafe impl Send for Fibers {}
// SAFETY: shared references reach the bookkeeping only through
// `Fibers::state`, which claims a free group for the calling thread with
// a compare-exchange and panics on every thread but the claimant; its
// cell panics on overlapping borrows. So all access between a claim and
// its release is from one thread, one borrow at a time, and the
// release/acquire pair on `owner` orders one claimant's accesses before
// the next's. `current` and `owner` are atomics.
unsafe impl Sync for Fibers {}

impl std::fmt::Debug for Fibers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fibers")
            .field("current", &self.current.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Fibers {
    pub(crate) fn new() -> Fibers {
        assert!(supported(), "fiber handover unsupported on this target");
        let state = FiberState {
            slots: Vec::new(),
            spare: Vec::new(),
            pending: None,
            escaped: Vec::new(),
            driver: 0,
        };
        Fibers {
            // SAFETY: every borrow goes through `Fibers::state`, whose
            // owner check confines the cell to the claiming OS thread, on
            // which program order is the happens-before edge (a new
            // claim acquires what the last release published); no method
            // holds its borrow across `fiber_switch` (so the fiber
            // switched to, which may borrow, never overlaps it).
            state: unsafe {
                TokenCell::new(
                    state,
                    "fiber handover: re-entrant access to the fiber group's bookkeeping",
                )
            },
            owner: AtomicUsize::new(0),
            current: AtomicUsize::new(0),
        }
    }

    /// The bookkeeping, borrowed by the owning thread; a free group is
    /// claimed for the calling thread first.
    ///
    /// # Panics
    ///
    /// Panics when another OS thread owns the group, or while a borrow
    /// is live.
    #[inline]
    fn state(&self) -> TokenRef<'_, FiberState> {
        if self.owner.load(Ordering::Relaxed) != thread_mark() {
            self.claim();
        }
        self.state.borrow()
    }

    /// Claims a free group for the calling thread, acquiring what the
    /// previous owner's [`Fibers::release`] published.
    #[cold]
    #[inline(never)]
    fn claim(&self) {
        if self
            .owner
            .compare_exchange(0, thread_mark(), Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            foreign_thread();
        }
    }

    /// Frees the group for any thread's next claim. Call with no borrow
    /// live and no fiber suspended.
    fn release(&self) {
        self.owner.store(0, Ordering::Release);
    }

    /// Allocates a fiber slot; indices match the engine's thread ids.
    pub(crate) fn add_slot(&self) -> usize {
        let mut st = self.state();
        let slot = st
            .spare
            .pop()
            .unwrap_or_else(|| Box::new(FiberSlot::blank()));
        st.slots.push(slot);
        st.slots.len() - 1
    }

    /// Rewinds the group to its just-built state for the next
    /// execution, keeping the slot records, and leaves it free for any
    /// thread. Every fiber must be gone: call after [`Fibers::finish`],
    /// which unwound or dropped them and reclaimed their stacks.
    pub(crate) fn reset(&self) {
        {
            let mut st = self.state();
            let st = &mut *st;
            for slot in &mut st.slots {
                assert!(
                    slot.stack.is_none() && slot.body.is_none(),
                    "fiber handover: reset before teardown of slot {}",
                    slot.ix
                );
                **slot = FiberSlot::blank();
            }
            st.spare.append(&mut st.slots);
            st.pending = None;
            st.escaped.clear();
            st.driver = 0;
        }
        self.current.store(0, Ordering::Relaxed);
        self.release();
    }

    /// Binds slot `ix` to the calling (driver) thread's native context.
    /// The group is the calling OS thread's from here to `finish`.
    pub(crate) fn bind_driver(&self, ix: usize) {
        let mut st = self.state();
        st.slots[ix].status = Status::Running;
        st.driver = ix;
        self.current.store(ix, Ordering::Relaxed);
    }

    /// The slot currently executing on the driver thread.
    pub(crate) fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// Stores `body` for slot `ix`. The fiber starts lazily: its stack
    /// is built when the run token first reaches it, so threads the
    /// schedule never reaches cost nothing and never run.
    pub(crate) fn spawn(&self, ix: usize, body: Box<dyn FnOnce() + Send>, poisoned: &AtomicBool) {
        let mut st = self.state();
        let slot = &mut st.slots[ix];
        assert_eq!(slot.status, Status::New, "fiber slot {ix} spawned twice");
        slot.body = Some(body);
        slot.fibers = self;
        slot.poisoned = poisoned;
        slot.ix = ix;
    }

    /// Records the successor chosen by the scheduler. The switch
    /// happens at the caller's next suspension point.
    pub(crate) fn wake(&self, ix: usize) {
        let mut st = self.state();
        assert!(
            st.pending.replace(ix).is_none(),
            "fiber handover: second wake({ix}) before the token holder suspended"
        );
    }

    /// Suspends the calling fiber (slot `ix`) and switches to the
    /// pending successor; returns when the run token comes back.
    pub(crate) fn park(&self, ix: usize) {
        let (save, restore) = {
            let mut st = self.state();
            let target = st
                .pending
                .take()
                .expect("fiber handover: park with no pending wake");
            if target == ix {
                return; // Token handed straight back.
            }
            debug_assert_eq!(st.slots[ix].status, Status::Running);
            st.slots[ix].status = Status::Suspended;
            let save: *mut *mut u8 = &mut st.slots[ix].sp;
            let restore = self.prepare(&mut st, target);
            (save, restore)
        };
        // SAFETY: `save` and `restore` point at the `sp` fields of two
        // distinct boxed slot records, which outlive every fiber;
        // `prepare` made `*restore` a context this module suspended or
        // built, on a stack nothing else is running on. The borrow of
        // the bookkeeping ended with the block above.
        unsafe { fiber_switch(save, restore) };
        // Resumed: whoever switched to us already marked us Running and
        // set `current`.
    }

    /// Terminates the calling fiber after its body returned; switches
    /// to the pending successor, or to the driver if none (the abort
    /// path). Never returns.
    fn exit(&self, ix: usize) -> ! {
        let (save, restore) = {
            let mut st = self.state();
            st.slots[ix].status = Status::Finished;
            let target = st.pending.take().unwrap_or(st.driver);
            debug_assert_ne!(target, ix, "finished fiber woke itself");
            // The save location is dead — nothing resumes a finished
            // fiber — but the switch needs somewhere to write.
            let save: *mut *mut u8 = &mut st.slots[ix].sp;
            let restore = self.prepare(&mut st, target);
            (save, restore)
        };
        // SAFETY: as in `park`; the context saved through `save` is
        // never resumed, so this stack is dead from here on.
        unsafe { fiber_switch(save, restore) };
        unreachable!("finished fiber {ix} was resumed");
    }

    /// Marks `target` Running (building its initial context if it was
    /// never started) and returns the location of its saved stack
    /// pointer. Caller still borrows the bookkeeping.
    fn prepare(&self, st: &mut FiberState, target: usize) -> *const *mut u8 {
        let slot = &mut st.slots[target];
        match slot.status {
            Status::Suspended => {}
            Status::New => {
                assert!(
                    slot.body.is_some(),
                    "fiber handover: woke slot {target} before it was spawned"
                );
                let stack = RawStack::obtain();
                // SAFETY: `stack` is a live mapping with `STACK_SIZE`
                // writable bytes below `top()`, owned by this slot from
                // the next line on; `slot` is boxed, so the pointer
                // stays valid for the fiber's lifetime.
                slot.sp = unsafe { build_initial_sp(&stack, &mut **slot) };
                slot.stack = Some(stack);
            }
            Status::Running | Status::Finished => {
                panic!(
                    "fiber handover: switching to slot {target} in state {:?}",
                    slot.status
                );
            }
        }
        slot.status = Status::Running;
        self.current.store(target, Ordering::Relaxed);
        &st.slots[target].sp
    }

    /// Driver-side switch into `target`, returning when control comes
    /// back to the driver's native context (used by teardown).
    fn switch_from_driver(&self, target: usize) {
        let (save, restore) = {
            let mut st = self.state();
            let driver = st.driver;
            debug_assert_eq!(st.slots[driver].status, Status::Running);
            st.slots[driver].status = Status::Suspended;
            let save: *mut *mut u8 = &mut st.slots[driver].sp;
            let restore = self.prepare(&mut st, target);
            (save, restore)
        };
        // SAFETY: as in `park`, saving the driver's native context.
        unsafe { fiber_switch(save, restore) };
    }

    /// Teardown (the fiber analog of joining every model thread):
    /// consumes any granted-but-unconsumed token, unwinds suspended
    /// fibers when the execution was poisoned, drops never-started
    /// bodies, and recycles stacks.
    ///
    /// # Errors
    ///
    /// Returns the collected panic messages of fiber bodies whose
    /// panic escaped their root `catch_unwind`.
    pub(crate) fn finish(&self, poisoned: bool) -> Result<(), String> {
        // A wake whose grantor returned to the driver without parking
        // (e.g. the driver was the last to run) must still be honored.
        loop {
            let target = self.state().pending.take();
            match target {
                Some(t) => self.switch_from_driver(t),
                None => break,
            }
        }
        if poisoned {
            // Resume each suspended fiber so it observes the poison,
            // unwinds (running Drop code), and exits back here.
            loop {
                let target = self
                    .state()
                    .slots
                    .iter()
                    .position(|s| s.status == Status::Suspended);
                match target {
                    Some(t) => self.switch_from_driver(t),
                    None => break,
                }
            }
        }
        let mut st = self.state();
        let stuck = st.slots.iter().position(|s| s.status == Status::Suspended);
        assert!(
            stuck.is_none(),
            "fiber handover: slot {} still suspended at teardown of a completed execution",
            stuck.unwrap_or(0)
        );
        for slot in &mut st.slots {
            slot.body = None; // Never-started threads must not run.
            if let Some(stack) = slot.stack.take() {
                stack.recycle();
            }
        }
        let escaped = std::mem::take(&mut st.escaped);
        drop(st);
        // No fiber is left: the next execution may run on any thread.
        self.release();
        if escaped.is_empty() {
            Ok(())
        } else {
            Err(escaped.join("; "))
        }
    }
}

#[cold]
#[inline(never)]
fn foreign_thread() -> ! {
    panic!(
        "fiber handover: runtime used from an OS thread other than its owner \
         (every fiber of an execution runs on the thread that first touched it)"
    )
}

/// Root of every fiber: runs the body under `catch_unwind` so no panic
/// can unwind across the context-switch frame, then terminates the
/// fiber. A fiber first scheduled after the execution was poisoned
/// never runs its body (matching the OS-thread wrapper, whose first
/// park reports the abort before the body).
extern "C" fn fiber_entry(slot: *mut FiberSlot) -> ! {
    // SAFETY: `slot` is the boxed slot this fiber was built from; its
    // body/ix/back-pointers are only touched by the running fiber.
    let (fibers, poisoned, ix, body) = unsafe {
        let s = &mut *slot;
        (
            &*s.fibers,
            &*s.poisoned,
            s.ix,
            s.body.take().expect("fiber started without a body"),
        )
    };
    if !poisoned.load(Ordering::Acquire) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            if payload.downcast_ref::<crate::Aborted>().is_none() {
                // Not the cooperative abort: surface it from join_all
                // (same contract as the OS-thread runtime).
                fibers.state().escaped.push(panic_message(payload.as_ref()));
            }
        }
    }
    fibers.exit(ix)
}

/// Builds the initial stack image for a fiber so that the first switch
/// into it lands in [`fiber_trampoline`] with the slot pointer and
/// entry address in callee-saved registers. Returns the initial stack
/// pointer, matching the save/restore layout of [`fiber_switch`].
///
/// Image (ascending addresses from the returned `sp`):
/// `[mxcsr|fcw] r15 r14 r13=entry r12=slot rbx rbp ret=trampoline`.
///
/// # Safety
///
/// `stack` must be a live mapping nothing is running on, and `slot`
/// must stay valid until the fiber started from this image has exited.
#[cfg(all(target_arch = "x86_64", unix))]
unsafe fn build_initial_sp(stack: &RawStack, slot: *mut FiberSlot) -> *mut u8 {
    let top = stack.top() & !15;
    let sp = (top - 64) as *mut u64;
    // x87/SSE control words: the Rust/SysV defaults (round-to-nearest,
    // all exceptions masked).
    // SAFETY: the caller passes a live stack; the eight words written
    // sit in its top 64 bytes, 8-aligned because `top` is 16-aligned.
    unsafe {
        sp.write(0x1F80 | (0x037F_u64 << 32));
        sp.add(1).write(0); // r15
        sp.add(2).write(0); // r14
        sp.add(3).write(fiber_entry as *const () as usize as u64); // r13
        sp.add(4).write(slot as usize as u64); // r12
        sp.add(5).write(0); // rbx
        sp.add(6).write(0); // rbp
        sp.add(7)
            .write(fiber_trampoline as *const () as usize as u64); // return address
    }
    sp as *mut u8
}

/// Saves the caller's callee-saved context on its stack, writes the
/// resulting stack pointer to `*save`, switches to the stack pointer
/// read from `*restore`, and resumes that context. SysV x86_64:
/// callee-saved registers plus the SSE/x87 control words.
#[cfg(all(target_arch = "x86_64", unix))]
#[unsafe(naked)]
unsafe extern "C" fn fiber_switch(save: *mut *mut u8, restore: *const *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every fiber: entered by `fiber_switch`'s `ret` with
/// a 16-aligned stack, forwards the slot pointer (r12) to the entry
/// function (r13). The entry never returns.
#[cfg(all(target_arch = "x86_64", unix))]
#[unsafe(naked)]
unsafe extern "C" fn fiber_trampoline() {
    core::arch::naked_asm!("mov rdi, r12", "call r13", "ud2")
}

#[cfg(not(all(target_arch = "x86_64", unix)))]
unsafe fn build_initial_sp(_stack: &RawStack, _slot: *mut FiberSlot) -> *mut u8 {
    unreachable!("fiber handover unsupported on this target")
}

#[cfg(not(all(target_arch = "x86_64", unix)))]
unsafe fn fiber_switch(_save: *mut *mut u8, _restore: *const *mut u8) {
    unreachable!("fiber handover unsupported on this target")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// Mirrors the executor's usage closely enough for mechanism tests:
    /// driver on slot 0, cooperative wake/park between fibers.
    struct Harness {
        fibers: Arc<Fibers>,
        poisoned: Arc<AtomicBool>,
    }

    impl Harness {
        fn new() -> Harness {
            let h = Harness {
                fibers: Arc::new(Fibers::new()),
                poisoned: Arc::new(AtomicBool::new(false)),
            };
            let driver = h.fibers.add_slot();
            h.fibers.bind_driver(driver);
            h
        }

        fn spawn(&self, body: impl FnOnce() + Send + 'static) -> usize {
            let ix = self.fibers.add_slot();
            self.fibers.spawn(ix, Box::new(body), &self.poisoned);
            ix
        }
    }

    #[test]
    fn round_trip_through_one_fiber() {
        let h = Harness::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let fibers = Arc::clone(&h.fibers);
        let ix = h.spawn(move || {
            log2.lock().unwrap().push("fiber");
            fibers.wake(0);
            // Body ends: exit consumes the pending wake... no — the
            // wake targets the driver; exit finds it pending and
            // switches there.
        });
        h.fibers.wake(ix);
        h.fibers.park(0);
        log.lock().unwrap().push("driver");
        h.fibers.finish(false).expect("no escaped panics");
        assert_eq!(*log.lock().unwrap(), vec!["fiber", "driver"]);
    }

    #[test]
    fn token_ring_visits_fibers_in_order() {
        let h = Harness::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut ixs = Vec::new();
        for k in 0..3usize {
            let log2 = Arc::clone(&log);
            let fibers = Arc::clone(&h.fibers);
            // Ring: 1 -> 2 -> 3 -> driver(0), five rounds.
            let ix = h.spawn(move || {
                for round in 0..5 {
                    log2.lock().unwrap().push((k + 1, round));
                    let next = if k == 2 { 0 } else { k + 2 };
                    fibers.wake(next);
                    if round < 4 {
                        fibers.park(k + 1);
                    }
                }
            });
            ixs.push(ix);
        }
        for _ in 0..5 {
            h.fibers.wake(ixs[0]);
            h.fibers.park(0);
        }
        h.fibers.finish(false).expect("no escaped panics");
        let log = log.lock().unwrap();
        for round in 0..5 {
            let entries: Vec<usize> = log
                .iter()
                .filter(|(_, r)| *r == round)
                .map(|(ix, _)| *ix)
                .collect();
            assert_eq!(entries, vec![1, 2, 3], "round {round}");
        }
    }

    #[test]
    fn poisoned_execution_unwinds_suspended_fibers() {
        let h = Harness::new();
        let unwound = Arc::new(AtomicBool::new(false));
        let u2 = Arc::clone(&unwound);
        let fibers = Arc::clone(&h.fibers);
        let poisoned = Arc::clone(&h.poisoned);
        struct SetOnDrop(Arc<AtomicBool>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let ix = h.spawn(move || {
            let _witness = SetOnDrop(u2);
            fibers.wake(0);
            fibers.park(1);
            // Resumed by teardown: the poison is visible; unwind like
            // the model runtime does.
            if poisoned.load(Ordering::Acquire) {
                std::panic::panic_any(crate::Aborted);
            }
        });
        h.fibers.wake(ix);
        h.fibers.park(0);
        h.poisoned.store(true, Ordering::Release);
        h.fibers.finish(true).expect("Aborted unwind is swallowed");
        assert!(unwound.load(Ordering::Acquire), "Drop code must run");
    }

    #[test]
    fn never_started_fiber_does_not_run_on_poison() {
        let h = Harness::new();
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        h.spawn(move || r2.store(true, Ordering::Release));
        h.poisoned.store(true, Ordering::Release);
        h.fibers.finish(true).expect("clean teardown");
        assert!(!ran.load(Ordering::Acquire), "body must not run");
    }

    #[test]
    fn escaped_panics_surface_from_finish() {
        let h = Harness::new();
        let ix = h.spawn(|| panic!("fiber body exploded"));
        // Token granted but the driver never parks: teardown honors it.
        h.fibers.wake(ix);
        let err = h.fibers.finish(false).expect_err("panic must surface");
        assert!(err.contains("fiber body exploded"), "got: {err}");
    }

    impl Fibers {
        /// Asserts the group equals a freshly built one field for field
        /// — the recycled slot records in `spare` included, capacities
        /// aside. Destructures exhaustively, so a new field does not
        /// compile until it is checked here.
        fn assert_pristine(&self) {
            let Fibers {
                state: _,
                owner,
                current,
            } = self;
            assert_eq!(owner.load(Ordering::Relaxed), 0, "owner");
            assert_eq!(current.load(Ordering::Relaxed), 0, "current");
            let st = self.state();
            let FiberState {
                slots,
                spare,
                pending,
                escaped,
                driver,
            } = &*st;
            assert!(slots.is_empty(), "slots");
            assert_eq!(*pending, None, "pending");
            assert!(escaped.is_empty(), "escaped");
            assert_eq!(*driver, 0, "driver");
            for slot in spare {
                let FiberSlot {
                    sp,
                    stack,
                    status,
                    body,
                    fibers,
                    poisoned,
                    ix,
                } = &**slot;
                assert!(sp.is_null(), "slot sp");
                assert!(stack.is_none(), "slot stack");
                assert_eq!(*status, Status::New, "slot status");
                assert!(body.is_none(), "slot body");
                assert!(fibers.is_null(), "slot back-pointer");
                assert!(poisoned.is_null(), "slot poison pointer");
                assert_eq!(*ix, 0, "slot index");
            }
        }
    }

    /// After `reset`, a group that ran a completed, a poisoned, and a
    /// panicking execution — with the driver on a slot other than 0 —
    /// is indistinguishable from a fresh one, and runs again.
    #[test]
    fn reset_restores_a_pristine_group_after_every_shape() {
        let fibers = Arc::new(Fibers::new());
        fibers.assert_pristine();
        let poisoned = Arc::new(AtomicBool::new(false));
        for shape in 0..3 {
            poisoned.store(false, Ordering::Release);
            let _spare = fibers.add_slot();
            let driver = fibers.add_slot();
            fibers.bind_driver(driver);
            let ix = fibers.add_slot();
            let (f2, p2) = (Arc::clone(&fibers), Arc::clone(&poisoned));
            let body: Box<dyn FnOnce() + Send> = match shape {
                0 => Box::new(move || f2.wake(driver)),
                1 => Box::new(move || {
                    f2.wake(driver);
                    f2.park(ix);
                    if p2.load(Ordering::Acquire) {
                        std::panic::panic_any(crate::Aborted);
                    }
                }),
                _ => Box::new(|| panic!("shape 2 exploded")),
            };
            fibers.spawn(ix, body, &poisoned);
            fibers.wake(ix);
            if shape < 2 {
                fibers.park(driver);
            }
            poisoned.store(shape == 1, Ordering::Release);
            let outcome = fibers.finish(shape == 1);
            assert_eq!(outcome.is_err(), shape == 2, "shape {shape}");
            fibers.reset();
            fibers.assert_pristine();
        }
    }

    #[test]
    fn reentrant_bookkeeping_borrow_trips_the_wire() {
        let h = Harness::new();
        let nested = catch_unwind(AssertUnwindSafe(|| {
            let _held = h.fibers.state();
            h.fibers.wake(0);
        }));
        let payload = nested.expect_err("a second borrow must panic");
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("re-entrant access"), "{msg}");
        // The unwind released the borrow: the group still works.
        h.fibers.wake(0);
        h.fibers.park(0);
        h.fibers.finish(false).expect("clean");
    }

    #[test]
    fn stacks_are_recycled_across_groups() {
        // Two sequential harnesses on this thread: the second must be
        // able to reuse the first's stack (observable only as "does
        // not crash and completes" — the cache is internal).
        for _ in 0..2 {
            let h = Harness::new();
            let fibers = Arc::clone(&h.fibers);
            let ix = h.spawn(move || {
                fibers.wake(0);
            });
            h.fibers.wake(ix);
            h.fibers.park(0);
            h.fibers.finish(false).expect("clean");
        }
    }
}
