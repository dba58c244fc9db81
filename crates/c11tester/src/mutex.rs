//! Model `Mutex` and `Condvar`.
//!
//! Lock and unlock are modeled with the atomic machinery itself — an
//! unlock is a release store and a lock is an acquire RMW that reads
//! from it (the paper omits locks from its core language for exactly
//! this reason: "they can be implemented with atomic statements", §6).
//! Blocking, wakeup, and deadlock detection are provided by the
//! engine's thread-status bookkeeping.

use crate::ctx::{self, OpClass};
use crate::engine::{Engine, WaitReason};
use c11tester_core::{MemOrder, ObjId, StoreKind, ThreadId};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering as RealOrdering};

/// A model mutex protecting `T`.
///
/// # Examples
///
/// ```
/// use c11tester::{Config, Model};
/// use c11tester::sync::Mutex;
/// use std::sync::Arc;
///
/// let mut model = Model::new(Config::new());
/// let report = model.run(|| {
///     let m = Arc::new(Mutex::new(0u32));
///     let m2 = Arc::clone(&m);
///     let t = c11tester::thread::spawn(move || {
///         *m2.lock() += 1;
///     });
///     *m.lock() += 1;
///     t.join();
///     assert_eq!(*m.lock(), 2);
/// });
/// assert!(!report.found_bug());
/// ```
#[derive(Debug)]
pub struct Mutex<T> {
    obj: ObjId,
    held: AtomicBool,
    owner: std::sync::atomic::AtomicU32,
    data: UnsafeCell<T>,
}

// SAFETY: owning the mutex owns `data`, and `T: Send`.
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: the controlled runtime sequentializes model threads, and the
// guard discipline gives exclusive access to `data`: `held` admits one
// live guard at a time, and `&mut T` only comes from a guard.
unsafe impl<T: Send> Sync for Mutex<T> {}

/// RAII guard; unlocking is a release store at drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    /// False for guards synthesized during an abort unwind: their drop
    /// performs no model operations.
    live: bool,
}

impl<T> Mutex<T> {
    /// Creates a mutex.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`crate::Model::run`].
    pub fn new(value: T) -> Self {
        Self::named("mutex", value)
    }

    /// Creates a labeled mutex.
    pub fn named(label: impl Into<String>, value: T) -> Self {
        let obj = ctx::new_object(Some(label.into()), false);
        // The "unlocked" initial store, non-atomic like atomic_init.
        ctx::atomic_init(obj, 0);
        Mutex {
            obj,
            held: AtomicBool::new(false),
            owner: std::sync::atomic::AtomicU32::new(u32::MAX),
            data: UnsafeCell::new(value),
        }
    }

    /// Takes the mutex if it is free.
    fn try_acquire(&self, eng: &mut Engine, tid: ThreadId) -> bool {
        if self.held.load(RealOrdering::Relaxed) {
            return false;
        }
        self.held.store(true, RealOrdering::Relaxed);
        self.owner.store(tid.as_u32(), RealOrdering::Relaxed);
        // A lock is a successful CAS(0 → 1, acquire): it must read a
        // store of the *unlocked* value. The may-read-from set can
        // also offer stale locked (1) stores — a real weak-memory
        // behavior that would merely make a CAS loop spin again, so
        // the model commits the successful iteration directly.
        let mut cands = eng
            .exec
            .feasible_read_candidates(tid, self.obj, MemOrder::Acquire, true);
        cands.retain(|&s| eng.exec.store_value(s) == 0);
        assert!(
            !cands.is_empty(),
            "mutex protocol violated: no unlocked store to acquire"
        );
        let choice = eng.scheduler.choose_read(cands.len());
        eng.exec
            .commit_rmw(tid, self.obj, MemOrder::Acquire, cands[choice], 1);
        true
    }

    /// Acquires the mutex, blocking the model thread while it is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let live = ctx::with_ctx(|ctx, tid| {
            if ctx.runtime.is_poisoned() && std::thread::panicking() {
                // Abort unwind: hand out a dead guard so Drop code can
                // proceed without touching the model.
                return false;
            }
            let mut eng = ctx::schedule_point(ctx, tid, OpClass::Other);
            while !self.try_acquire(&mut eng, tid) {
                eng = ctx::block_and_yield(ctx, eng, tid, WaitReason::Mutex(self.obj));
            }
            true
        });
        MutexGuard { mutex: self, live }
    }

    /// Attempts to acquire without blocking. A failed attempt is a
    /// relaxed load of the lock word (no synchronization).
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        ctx::with_ctx(|ctx, tid| {
            let mut eng = ctx::schedule_point(ctx, tid, OpClass::Other);
            if self.try_acquire(&mut eng, tid) {
                return Some(MutexGuard {
                    mutex: self,
                    live: true,
                });
            }
            let cands = eng
                .exec
                .feasible_read_candidates(tid, self.obj, MemOrder::Relaxed, false);
            if !cands.is_empty() {
                let choice = eng.scheduler.choose_read(cands.len());
                eng.exec
                    .commit_load(tid, self.obj, MemOrder::Relaxed, cands[choice]);
            }
            None
        })
    }

    /// The release store, and the wakeup of threads blocked on the lock.
    fn release(&self, eng: &mut Engine, tid: ThreadId) {
        debug_assert_eq!(
            self.owner.load(RealOrdering::Relaxed),
            tid.as_u32(),
            "mutex unlocked by a non-owner"
        );
        self.held.store(false, RealOrdering::Relaxed);
        self.owner.store(u32::MAX, RealOrdering::Relaxed);
        eng.exec
            .atomic_store(tid, self.obj, MemOrder::Release, 0, StoreKind::Atomic);
        let obj = self.obj;
        eng.unblock_where(|r| matches!(r, WaitReason::Mutex(o) if *o == obj));
    }

    /// Guard drop: a visible release.
    fn unlock(&self) {
        ctx::with_ctx(|ctx, tid| {
            if ctx.runtime.is_poisoned() {
                self.held.store(false, RealOrdering::Relaxed);
                if !std::thread::panicking() {
                    std::panic::panic_any(c11tester_runtime::Aborted);
                }
                return;
            }
            let mut eng = ctx::schedule_point(ctx, tid, OpClass::Other);
            self.release(&mut eng, tid);
        });
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this guard is the only access path to `data` while
        // it lives (see the `Sync` impl).
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` is exclusive.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.live {
            self.mutex.unlock();
        }
    }
}

/// A model condition variable.
///
/// Wakeups happen only at `notify_*` (no spurious wakeups); the
/// happens-before relation flows through the associated mutex, as in
/// pthreads. Lost-wakeup bugs therefore surface as model deadlocks.
#[derive(Debug)]
pub struct Condvar {
    obj: ObjId,
}

impl Condvar {
    /// Creates a condition variable.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`crate::Model::run`].
    pub fn new() -> Self {
        Condvar {
            obj: ctx::new_object(Some("condvar".into()), false),
        }
    }

    /// Releases the guard's mutex, blocks until notified, re-acquires.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mutex = guard.mutex;
        let live = guard.live;
        std::mem::forget(guard);
        if !live {
            return MutexGuard { mutex, live: false };
        }
        ctx::with_ctx(|ctx, tid| {
            // The wait is the one visible operation: the mutex is
            // released without a scheduling point of its own.
            let mut eng = ctx::schedule_point(ctx, tid, OpClass::Other);
            mutex.release(&mut eng, tid);
            eng.exec.sync_event(tid);
            drop(ctx::block_and_yield(
                ctx,
                eng,
                tid,
                WaitReason::Condvar(self.obj),
            ));
        });
        mutex.lock()
    }

    /// Waits until notified *and* `cond` holds (re-checks on wakeup).
    pub fn wait_while<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut cond: impl FnMut(&mut T) -> bool,
    ) -> MutexGuard<'a, T> {
        while cond(&mut guard) {
            guard = self.wait(guard);
        }
        guard
    }

    /// Wakes one waiter (chosen by the testing strategy).
    pub fn notify_one(&self) {
        ctx::with_ctx(|ctx, tid| {
            let mut eng = ctx::schedule_point(ctx, tid, OpClass::Other);
            eng.exec.sync_event(tid);
            let waiters = eng.condvar_waiters(self.obj);
            if !waiters.is_empty() {
                let pick = eng.scheduler.choose_read(waiters.len());
                eng.unblock_one(waiters[pick]);
            }
        });
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        ctx::with_ctx(|ctx, tid| {
            let mut eng = ctx::schedule_point(ctx, tid, OpClass::Other);
            eng.exec.sync_event(tid);
            let obj = self.obj;
            eng.unblock_where(|r| matches!(r, WaitReason::Condvar(o) if *o == obj));
        });
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}
