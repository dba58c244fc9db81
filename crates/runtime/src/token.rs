//! The run token's cell: state owned by whoever holds the token.
//!
//! Only one model thread runs at a time (see `executor`), so what the
//! threads of an execution share needs no lock: holding the token *is*
//! exclusive access. A [`TokenCell`] is that state plus an always-on,
//! one-word tripwire. A second borrow while one is live — a re-entrant
//! call, or two threads that both believe they hold the token — panics
//! with the cell's message instead of aliasing.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};

/// State borrowed only by the run-token holder.
pub struct TokenCell<T> {
    value: UnsafeCell<T>,
    busy: AtomicBool,
    /// Panic message of an overlapping borrow.
    reentry: &'static str,
}

// SAFETY: `borrow` hands out `&mut T` from `&self`, so what must hold
// is that borrows never overlap. `TokenCell::new`'s contract makes the
// constructing code prove that: borrows are serialised by the run token,
// each ends before the token moves, and each handover carries a
// happens-before edge. `T: Send` because successive borrows may come
// from different OS threads (pooled model threads).
unsafe impl<T: Send> Sync for TokenCell<T> {}

impl<T> TokenCell<T> {
    /// Wraps `value`; `reentry` is the panic message of an overlapping
    /// borrow.
    ///
    /// # Safety
    ///
    /// The caller guarantees that the cell is borrowed only by the
    /// holder of one run token, that every borrow ends before the token
    /// moves on, and that each handover orders the previous holder's
    /// writes before the next holder's reads. The tripwire catches
    /// violations of this contract, it does not replace it: a
    /// cross-thread overlap escapes it if both threads pass the check
    /// within the same few instructions.
    pub unsafe fn new(value: T, reentry: &'static str) -> Self {
        TokenCell {
            value: UnsafeCell::new(value),
            busy: AtomicBool::new(false),
            reentry,
        }
    }

    /// Takes the state for the duration of the returned guard.
    ///
    /// # Panics
    ///
    /// Panics with the cell's message if it is already borrowed.
    #[inline]
    pub fn borrow(&self) -> TokenRef<'_, T> {
        // A load and a store, not a swap: no `lock`-prefixed
        // instruction on the per-operation path.
        if self.busy.load(Ordering::Relaxed) {
            busy(self.reentry);
        }
        self.busy.store(true, Ordering::Relaxed);
        TokenRef { cell: self }
    }
}

impl<T> std::fmt::Debug for TokenCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenCell")
            .field("busy", &self.busy.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cold]
#[inline(never)]
fn busy(msg: &'static str) -> ! {
    panic!("{msg}")
}

/// Exclusive access to a [`TokenCell`]'s state; releases it on drop
/// (also when a panic unwinds through the borrow).
pub struct TokenRef<'a, T> {
    cell: &'a TokenCell<T>,
}

impl<T> std::ops::Deref for TokenRef<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: `busy` was clear when this guard was made and stays
        // set until it drops, so no other guard — hence no other
        // reference into the cell — exists.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> std::ops::DerefMut for TokenRef<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes this the only
        // reference derived from this guard.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T> Drop for TokenRef<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.busy.store(false, Ordering::Relaxed);
    }
}

impl<T> std::fmt::Debug for TokenRef<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TokenRef").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_borrows_trip_the_wire_and_release_on_unwind() {
        // SAFETY: one thread, borrows nested on purpose.
        let cell = unsafe { TokenCell::new(7u32, "cell already borrowed") };
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = cell.borrow();
            let _inner = cell.borrow();
        }));
        let payload = nested.expect_err("second borrow must panic");
        assert_eq!(
            crate::pool::panic_message(payload.as_ref()),
            "cell already borrowed"
        );
        // The unwind dropped the outer guard: the cell is usable again.
        *cell.borrow() += 1;
        assert_eq!(*cell.borrow(), 8);
    }
}
