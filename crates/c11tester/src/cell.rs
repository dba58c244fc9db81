//! Non-atomic shared data under race detection.
//!
//! [`Shared<T>`] is a plain (non-atomic) memory cell: reads and writes
//! are *invisible* operations (no scheduling decision), but every
//! access is checked by the FastTrack shadow memory, so two conflicting
//! unordered accesses produce a data-race report — the model's
//! equivalent of the instrumented "normal memory accesses" of Table 3.
//!
//! Access is safe despite the interior mutability because the runtime
//! guarantees at most one model thread executes at any instant.

use crate::ctx;
use c11tester_core::ObjId;
use std::cell::UnsafeCell;

/// A non-atomic shared memory cell tracked by the race detector.
#[derive(Debug)]
pub struct Shared<T> {
    obj: ObjId,
    cell: UnsafeCell<T>,
}

// SAFETY: owning the cell owns its value, and `T: Send`.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: the controlled runtime sequentializes model threads; at most
// one thread executes (and thus touches `cell`) at any instant, and
// `get`/`set` copy the value in or out without handing out a
// reference. Racy programs are *detected* via the shadow memory rather
// than performing overlapping accesses.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T: Copy> Shared<T> {
    /// Creates a shared cell. The creating thread's write is recorded.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`crate::Model::run`].
    pub fn new(value: T) -> Self {
        Self::named_impl(None, value)
    }

    /// Creates a labeled shared cell (the label appears in reports).
    pub fn named(label: impl Into<String>, value: T) -> Self {
        Self::named_impl(Some(label.into()), value)
    }

    fn named_impl(label: Option<String>, value: T) -> Self {
        let obj = ctx::new_object(label, false);
        let cell = Shared {
            obj,
            cell: UnsafeCell::new(value),
        };
        ctx::nonatomic_write(obj, 0);
        cell
    }

    /// Non-atomic read.
    pub fn get(&self) -> T {
        ctx::nonatomic_read(self.obj, 0);
        // SAFETY: only the run-token holder executes (see `Sync`).
        unsafe { *self.cell.get() }
    }

    /// Non-atomic write.
    pub fn set(&self, value: T) {
        ctx::nonatomic_write(self.obj, 0);
        // SAFETY: only the run-token holder executes (see `Sync`).
        unsafe {
            *self.cell.get() = value;
        }
    }

    /// Read-modify-write convenience (still non-atomic: both the read
    /// and the write are checked).
    pub fn update(&self, f: impl FnOnce(T) -> T) -> T {
        let old = self.get();
        let new = f(old);
        self.set(new);
        new
    }
}

/// A fixed-size array of non-atomic cells, one shadow cell per element.
#[derive(Debug)]
pub struct SharedArray<T> {
    obj: ObjId,
    cells: Vec<UnsafeCell<T>>,
}

// SAFETY: same argument as `Shared<T>`.
unsafe impl<T: Send> Send for SharedArray<T> {}
// SAFETY: same argument as `Shared<T>`, per element.
unsafe impl<T: Send> Sync for SharedArray<T> {}

impl<T: Copy> SharedArray<T> {
    /// Creates an array of `len` cells initialized to `value`.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`crate::Model::run`].
    pub fn new(len: usize, value: T) -> Self {
        Self::named(format!("array#{len}"), len, value)
    }

    /// Creates a labeled array.
    pub fn named(label: impl Into<String>, len: usize, value: T) -> Self {
        let obj = ctx::new_object(Some(label.into()), false);
        let cells = (0..len).map(|_| UnsafeCell::new(value)).collect();
        let arr = SharedArray { obj, cells };
        for ix in 0..len {
            ctx::nonatomic_write(obj, ix as u32);
        }
        arr
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Non-atomic read of element `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    pub fn get(&self, ix: usize) -> T {
        ctx::nonatomic_read(self.obj, ix as u32);
        // SAFETY: only the run-token holder executes (see `Shared`).
        unsafe { *self.cells[ix].get() }
    }

    /// Non-atomic write of element `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    pub fn set(&self, ix: usize, value: T) {
        ctx::nonatomic_write(self.obj, ix as u32);
        // SAFETY: only the run-token holder executes (see `Shared`).
        unsafe {
            *self.cells[ix].get() = value;
        }
    }
}
