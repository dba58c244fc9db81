//! Model atomics mirroring `std::sync::atomic`.
//!
//! Every operation routes into the engine, which computes the legal
//! reads-from set under the active memory-model fragment and lets the
//! testing strategy pick among the behaviors — so a `load(Relaxed)`
//! really can return stale values, exactly as on ARM hardware.
//!
//! Construction is `atomic_init`: a **non-atomic** store (paper §7.2),
//! which can race with concurrent atomic accesses — a real bug class
//! C11Tester detects.

use crate::ctx;
pub use c11tester_core::MemOrder as Ordering;
use c11tester_core::{ObjId, StoreKind};

/// Issues an atomic thread fence with the given ordering.
///
/// # Panics
///
/// Panics when called outside [`crate::Model::run`].
pub fn fence(order: Ordering) {
    ctx::fence(order);
}

/// Untyped model atomic cell holding up to 64 bits. The typed wrappers
/// below are thin views over this.
#[derive(Debug)]
pub struct RawAtomic {
    obj: ObjId,
}

impl RawAtomic {
    /// Creates and non-atomically initializes a cell.
    pub fn new(label: Option<String>, init: u64) -> Self {
        let obj = ctx::new_object(label, false);
        ctx::atomic_init(obj, init);
        RawAtomic { obj }
    }

    /// Creates a cell registered as a legacy-volatile location.
    pub(crate) fn new_volatile(label: Option<String>, init: u64) -> Self {
        let obj = ctx::new_object(label, true);
        ctx::atomic_init(obj, init);
        RawAtomic { obj }
    }

    /// The underlying model object id.
    pub fn obj(&self) -> ObjId {
        self.obj
    }

    /// Atomic load.
    pub fn load(&self, order: Ordering) -> u64 {
        ctx::atomic_load(self.obj, order, StoreKind::Atomic)
    }

    /// Atomic store.
    pub fn store(&self, value: u64, order: Ordering) {
        ctx::atomic_store(self.obj, order, value, StoreKind::Atomic);
    }

    /// Non-atomic store to an atomic location (memory reuse /
    /// `atomic_init` pattern; may race with concurrent atomics).
    pub fn store_nonatomic(&self, value: u64) {
        ctx::atomic_init(self.obj, value);
    }

    /// Volatile load using the configured volatile ordering.
    pub(crate) fn load_volatile(&self) -> u64 {
        let (load_order, _) = ctx::volatile_orders();
        ctx::atomic_load(self.obj, load_order, StoreKind::Volatile)
    }

    /// Volatile store using the configured volatile ordering.
    pub(crate) fn store_volatile(&self, value: u64) {
        let (_, store_order) = ctx::volatile_orders();
        ctx::atomic_store(self.obj, store_order, value, StoreKind::Volatile);
    }

    /// Generic read-modify-write; `f` maps the read value to the
    /// written value. Returns the value read.
    pub fn rmw(&self, order: Ordering, f: impl FnOnce(u64) -> u64) -> u64 {
        ctx::atomic_rmw(self.obj, order, f)
    }

    /// Compare-exchange; on success writes `new` with `success`
    /// ordering, on failure performs a load with `failure` ordering.
    pub fn compare_exchange(
        &self,
        expected: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        ctx::atomic_cas(self.obj, expected, new, success, failure)
    }
}

macro_rules! int_atomic {
    ($(#[$doc:meta])* $name:ident, $ty:ty) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            raw: RawAtomic,
        }

        impl $name {
            /// Creates the atomic with a non-atomic initializing store.
            ///
            /// # Panics
            ///
            /// Panics when called outside [`crate::Model::run`].
            pub fn new(value: $ty) -> Self {
                $name { raw: RawAtomic::new(None, value as u64) }
            }

            /// Creates the atomic with a label used in race reports.
            pub fn named(label: impl Into<String>, value: $ty) -> Self {
                $name { raw: RawAtomic::new(Some(label.into()), value as u64) }
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> $ty {
                self.raw.load(order) as $ty
            }

            /// Atomic store.
            pub fn store(&self, value: $ty, order: Ordering) {
                self.raw.store(value as u64, order);
            }

            /// Non-atomic store (mixed-mode access, may race).
            pub fn store_nonatomic(&self, value: $ty) {
                self.raw.store_nonatomic(value as u64);
            }

            /// Atomic swap; returns the previous value.
            pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                self.raw.rmw(order, |_| value as u64) as $ty
            }

            /// Atomic add (wrapping); returns the previous value.
            pub fn fetch_add(&self, delta: $ty, order: Ordering) -> $ty {
                self.raw
                    .rmw(order, |old| (old as $ty).wrapping_add(delta) as u64)
                    as $ty
            }

            /// Atomic subtract (wrapping); returns the previous value.
            pub fn fetch_sub(&self, delta: $ty, order: Ordering) -> $ty {
                self.raw
                    .rmw(order, |old| (old as $ty).wrapping_sub(delta) as u64)
                    as $ty
            }

            /// Atomic bitwise and; returns the previous value.
            pub fn fetch_and(&self, mask: $ty, order: Ordering) -> $ty {
                self.raw.rmw(order, |old| ((old as $ty) & mask) as u64) as $ty
            }

            /// Atomic bitwise or; returns the previous value.
            pub fn fetch_or(&self, mask: $ty, order: Ordering) -> $ty {
                self.raw.rmw(order, |old| ((old as $ty) | mask) as u64) as $ty
            }

            /// Atomic bitwise xor; returns the previous value.
            pub fn fetch_xor(&self, mask: $ty, order: Ordering) -> $ty {
                self.raw.rmw(order, |old| ((old as $ty) ^ mask) as u64) as $ty
            }

            /// Compare-exchange.
            ///
            /// # Errors
            ///
            /// Returns `Err(actual)` when the value read differs from
            /// `expected` (the read uses `failure` ordering).
            pub fn compare_exchange(
                &self,
                expected: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.raw
                    .compare_exchange(expected as u64, new as u64, success, failure)
                    .map(|v| v as $ty)
                    .map_err(|v| v as $ty)
            }

            /// Weak compare-exchange. The model has no spurious
            /// failures, so this is `compare_exchange`.
            ///
            /// # Errors
            ///
            /// Returns `Err(actual)` when the value read differs.
            pub fn compare_exchange_weak(
                &self,
                expected: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(expected, new, success, failure)
            }
        }
    };
}

int_atomic!(
    /// Model equivalent of `std::sync::atomic::AtomicU8`.
    AtomicU8, u8
);
int_atomic!(
    /// Model equivalent of `std::sync::atomic::AtomicU16`.
    AtomicU16, u16
);
int_atomic!(
    /// Model equivalent of `std::sync::atomic::AtomicU32`.
    AtomicU32, u32
);
int_atomic!(
    /// Model equivalent of `std::sync::atomic::AtomicU64`.
    AtomicU64, u64
);
int_atomic!(
    /// Model equivalent of `std::sync::atomic::AtomicUsize`.
    AtomicUsize, usize
);
int_atomic!(
    /// Model equivalent of `std::sync::atomic::AtomicI32`.
    AtomicI32, i32
);
int_atomic!(
    /// Model equivalent of `std::sync::atomic::AtomicI64`.
    AtomicI64, i64
);

/// Model equivalent of `std::sync::atomic::AtomicBool`.
#[derive(Debug)]
pub struct AtomicBool {
    raw: RawAtomic,
}

impl AtomicBool {
    /// Creates the atomic with a non-atomic initializing store.
    ///
    /// # Panics
    ///
    /// Panics when called outside [`crate::Model::run`].
    pub fn new(value: bool) -> Self {
        AtomicBool {
            raw: RawAtomic::new(None, u64::from(value)),
        }
    }

    /// Creates the atomic with a label used in race reports.
    pub fn named(label: impl Into<String>, value: bool) -> Self {
        AtomicBool {
            raw: RawAtomic::new(Some(label.into()), u64::from(value)),
        }
    }

    /// Atomic load.
    pub fn load(&self, order: Ordering) -> bool {
        self.raw.load(order) != 0
    }

    /// Atomic store.
    pub fn store(&self, value: bool, order: Ordering) {
        self.raw.store(u64::from(value), order);
    }

    /// Atomic swap; returns the previous value.
    pub fn swap(&self, value: bool, order: Ordering) -> bool {
        self.raw.rmw(order, |_| u64::from(value)) != 0
    }

    /// Compare-exchange.
    ///
    /// # Errors
    ///
    /// Returns `Err(actual)` when the value read differs.
    pub fn compare_exchange(
        &self,
        expected: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        self.raw
            .compare_exchange(u64::from(expected), u64::from(new), success, failure)
            .map(|v| v != 0)
            .map_err(|v| v != 0)
    }
}
