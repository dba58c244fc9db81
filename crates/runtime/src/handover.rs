//! Run-token handover primitives (paper §7.3, Figure 14).
//!
//! A controlled-scheduling tool runs exactly one application thread at
//! a time; the cost of *handing the run token* from one thread to the
//! next is the tool's core overhead. The paper measures a spectrum of
//! strategies (condition variables, futexes, spinning, spinning with
//! yield, fibers) and picks fibers. The runtime ships that choice and
//! the one fallback that must exist:
//!
//! * [`HandoverKind::Fiber`] — user-space stack switching on the
//!   driver's OS thread (the paper's winning strategy, §7.3; see
//!   `fiber.rs`). The default on supported targets;
//! * [`HandoverKind::Park`] — futex-backed `thread::park`/`unpark`
//!   between pooled OS threads (the paper's futex row): the only path
//!   on targets without the context switch, and the reference twin the
//!   tests compare the fiber path against.
//!
//! The rest of the Figure 14 spectrum lives with its reproduction, as
//! self-contained microbenchmarks in the `figure14` binary.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex as StdMutex;
use std::thread::Thread;

/// Selects the run-token handover implementation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum HandoverKind {
    /// Futex-backed park/unpark between pooled OS threads.
    Park,
    /// User-space fiber stack switching on the driver thread (§7.3,
    /// the paper's choice). Behaviorally identical to
    /// [`HandoverKind::Park`] — canonical output is byte-identical —
    /// but a switch is a register swap instead of a futex round trip.
    /// Falls back to `Park` on unsupported targets.
    Fiber,
}

impl HandoverKind {
    /// The fastest handover available on this target: fibers where the
    /// user-space context switch is implemented, futex park/unpark
    /// elsewhere. What `Config::new` selects.
    pub fn default_fast() -> HandoverKind {
        HandoverKind::Fiber.effective()
    }

    /// The kind a [`crate::Runtime`] built with `self` actually runs:
    /// [`HandoverKind::Fiber`] degrades to [`HandoverKind::Park`] where
    /// the user-space context switch is not implemented (same
    /// observable behavior, kernel-mediated switches).
    pub fn effective(self) -> HandoverKind {
        if self == HandoverKind::Fiber && !crate::fiber::supported() {
            HandoverKind::Park
        } else {
            self
        }
    }

    /// Name used in the Figure-14 table output and as the `handover`
    /// value of `c11metrics/v1` worker rows.
    pub fn name(self) -> &'static str {
        match self {
            HandoverKind::Park => "futex park/unpark",
            HandoverKind::Fiber => "fibers (stack switch)",
        }
    }
}

/// One OS thread's wakeup mailbox: a token flag plus the owner's thread
/// handle. `notify` may race with (or precede) `wait`; the token
/// semantics guarantee no lost wakeups either way.
#[derive(Debug)]
pub struct Notifier {
    token: AtomicBool,
    handle: StdMutex<Option<Thread>>,
}

impl Notifier {
    /// Creates a futex mailbox. Fibers have no mailbox (handover is a
    /// direct stack switch, see `fiber.rs`), so kind-generic code gets
    /// the same mailbox for either kind.
    pub fn new(_kind: HandoverKind) -> Self {
        Notifier {
            token: AtomicBool::new(false),
            handle: StdMutex::new(None),
        }
    }

    /// Binds the owning OS thread. Call from the thread that will
    /// `wait`.
    pub fn bind_current(&self) {
        *self.handle.lock().expect("handle mutex poisoned") = Some(std::thread::current());
    }

    /// Blocks until a token is delivered, consuming it.
    pub fn wait(&self) {
        while !self.token.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }

    /// Delivers a token, waking the owner if it is waiting.
    pub fn notify(&self) {
        self.token.store(true, Ordering::Release);
        if let Some(t) = self.handle.lock().expect("handle mutex poisoned").as_ref() {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn park_ping_pong() {
        let a = Arc::new(Notifier::new(HandoverKind::Park));
        let b = Arc::new(Notifier::new(HandoverKind::Park));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let child = std::thread::spawn(move || {
            b2.bind_current();
            for _ in 0..100 {
                b2.wait();
                a2.notify();
            }
        });
        a.bind_current();
        for _ in 0..100 {
            b.notify();
            a.wait();
        }
        child.join().expect("child thread panicked");
    }

    #[test]
    fn notify_before_wait_is_not_lost() {
        let n = Notifier::new(HandoverKind::Park);
        n.bind_current();
        n.notify();
        // Must return immediately instead of blocking.
        n.wait();
    }

    #[test]
    fn notify_wakes_a_later_waiter() {
        // Waiter binds and sleeps before the notify arrives.
        let n = Arc::new(Notifier::new(HandoverKind::Park));
        let n2 = Arc::clone(&n);
        let waiter = std::thread::spawn(move || {
            n2.bind_current();
            n2.wait();
        });
        std::thread::sleep(Duration::from_millis(20));
        n.notify();
        waiter.join().expect("waiter panicked");
    }
}
