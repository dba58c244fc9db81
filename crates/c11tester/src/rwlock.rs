//! Model reader-writer lock.
//!
//! Every acquisition and release is an acq_rel RMW on one lock word, so
//! the operations form a single modification-order chain and each
//! synchronizes with everything before it — pthread `rwlock` semantics.
//! Blocking and wakeup run through the engine's thread-status
//! machinery, like [`crate::sync::Mutex`].

use crate::ctx::{self, OpClass};
use crate::engine::{Engine, WaitReason};
use c11tester_core::{MemOrder, ObjId, ThreadId};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering as RealOrdering};

const WRITER: u64 = 1 << 16;

/// A model reader-writer lock protecting `T`.
///
/// # Examples
///
/// ```
/// use c11tester::{Config, Model};
/// use c11tester::sync::RwLock;
/// use std::sync::Arc;
///
/// let mut model = Model::new(Config::new());
/// let report = model.run(|| {
///     let l = Arc::new(RwLock::new(1u32));
///     let l2 = Arc::clone(&l);
///     let t = c11tester::thread::spawn(move || *l2.read());
///     {
///         let r = l.read();
///         assert!(*r >= 1);
///     }
///     t.join();
/// });
/// assert!(!report.found_bug());
/// ```
#[derive(Debug)]
pub struct RwLock<T> {
    obj: ObjId,
    /// Real-word mirror of the lock state (reader count + writer bit),
    /// mutated only by the run-token holder, with the engine borrowed.
    state: AtomicU32,
    data: UnsafeCell<T>,
}

// SAFETY: owning the lock owns `data`, and `T: Send`.
unsafe impl<T: Send> Send for RwLock<T> {}
// SAFETY: model threads are sequentialized; guards enforce the usual
// shared-xor-mutable discipline on `data` (`state` admits readers or
// one writer), and `T: Sync` covers the shared `&T` of read guards.
unsafe impl<T: Send + Sync> Sync for RwLock<T> {}

/// Shared guard.
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    live: bool,
}

/// Exclusive guard.
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    live: bool,
}

impl<T> RwLock<T> {
    /// Creates an unlocked lock.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`crate::Model::run`].
    pub fn new(value: T) -> Self {
        Self::named("rwlock", value)
    }

    /// Creates a labeled lock.
    pub fn named(label: impl Into<String>, value: T) -> Self {
        let obj = ctx::new_object(Some(label.into()), false);
        ctx::atomic_init(obj, 0);
        RwLock {
            obj,
            state: AtomicU32::new(0),
            data: UnsafeCell::new(value),
        }
    }

    /// Commits one acq_rel RMW on the lock word mapping the chain-head
    /// value through `f`.
    fn lock_rmw(&self, eng: &mut Engine, tid: ThreadId, f: impl Fn(u64) -> u64) {
        let cands = eng
            .exec
            .feasible_read_candidates(tid, self.obj, MemOrder::AcqRel, true);
        // All ops are RMWs: the chain has exactly one head.
        assert!(!cands.is_empty(), "rwlock protocol violated");
        let choice = eng.scheduler.choose_read(cands.len());
        let old = eng.exec.store_value(cands[choice]);
        eng.exec
            .commit_rmw(tid, self.obj, MemOrder::AcqRel, cands[choice], f(old));
        let obj = self.obj;
        eng.unblock_where(|r| matches!(r, WaitReason::Mutex(o) if *o == obj));
    }

    /// Acquires the lock in the mode whose `admit` maps the current
    /// state mirror to the next one, blocking while it returns `None`.
    /// `false` means the execution is being unwound: the caller hands
    /// out a dead guard.
    fn acquire(&self, admit: impl Fn(u32) -> Option<u32>, delta: u64) -> bool {
        ctx::with_ctx(|ctx, tid| {
            if ctx.runtime.is_poisoned() && std::thread::panicking() {
                return false;
            }
            let mut eng = ctx::schedule_point(ctx, tid, OpClass::Other);
            loop {
                if let Some(next) = admit(self.state.load(RealOrdering::Relaxed)) {
                    self.state.store(next, RealOrdering::Relaxed);
                    self.lock_rmw(&mut eng, tid, |v| v + delta);
                    return true;
                }
                eng = ctx::block_and_yield(ctx, eng, tid, WaitReason::Mutex(self.obj));
            }
        })
    }

    /// Acquires shared access, blocking while a writer holds the lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let live = self.acquire(|s| (u64::from(s) & WRITER == 0).then_some(s + 1), 1);
        RwLockReadGuard { lock: self, live }
    }

    /// Acquires exclusive access, blocking while readers or a writer
    /// hold the lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let live = self.acquire(|s| (s == 0).then_some(WRITER as u32), WRITER);
        RwLockWriteGuard { lock: self, live }
    }

    fn release(&self, delta_is_writer: bool) {
        ctx::with_ctx(|ctx, tid| {
            if ctx.runtime.is_poisoned() {
                if !std::thread::panicking() {
                    std::panic::panic_any(c11tester_runtime::Aborted);
                }
                return;
            }
            let mut eng = ctx::schedule_point(ctx, tid, OpClass::Other);
            if delta_is_writer {
                self.state.store(0, RealOrdering::Relaxed);
            } else {
                let s = self.state.load(RealOrdering::Relaxed);
                self.state.store(s - 1, RealOrdering::Relaxed);
            }
            self.lock_rmw(&mut eng, tid, move |v| {
                if delta_is_writer {
                    v - WRITER
                } else {
                    v - 1
                }
            });
        });
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: a read guard excludes writers while it lives, so
        // nothing holds `&mut T` (see the `Sync` impl).
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.live {
            self.lock.release(false);
        }
    }
}

impl<T> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the write guard is the only access path to `data`
        // while it lives (see the `Sync` impl).
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` is exclusive.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.live {
            self.lock.release(true);
        }
    }
}
