//! Run-token handover primitives (paper §7.3, Figure 14).
//!
//! A controlled-scheduling tool runs exactly one application thread at
//! a time; the cost of *handing the run token* from one thread to the
//! next is the tool's core overhead. The paper measures eight
//! strategies (condition variables, futexes, spinning, spinning with
//! yield, swapcontext/setjmp fibers ± TLS migration) and picks fibers.
//! We reproduce that spectrum, fibers included:
//!
//! * [`HandoverKind::Fiber`] — user-space stack switching on the
//!   driver's OS thread (the paper's winning strategy, §7.3; see
//!   `fiber.rs`). The default on supported targets;
//! * [`HandoverKind::Park`] — futex-backed `thread::park`/`unpark`
//!   (the paper's futex row; the fastest strategy backed by real OS
//!   threads, and the fallback default);
//! * [`HandoverKind::Condvar`] — mutex + condition variable (the
//!   paper's slowest practical strategy; used by the tsan11rec
//!   emulation);
//! * [`HandoverKind::Spin`] — pure spinning (fast with a core per
//!   thread, catastrophic when cores are shared);
//! * [`HandoverKind::SpinYield`] — spinning with `yield_now`;
//! * [`HandoverKind::Channel`] — a rendezvous over `mpsc` channels.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Mutex as StdMutex;
use std::thread::Thread;

/// Selects the run-token handover implementation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum HandoverKind {
    /// Futex-backed park/unpark (the OS-thread default).
    #[default]
    Park,
    /// Mutex + condition variable.
    Condvar,
    /// Busy spinning.
    Spin,
    /// Spinning with `std::thread::yield_now`.
    SpinYield,
    /// `mpsc` channel rendezvous.
    Channel,
    /// User-space fiber stack switching on the driver thread (§7.3,
    /// the paper's choice). Behaviorally identical to the OS-thread
    /// strategies — canonical output is byte-identical — but a switch
    /// is a register swap instead of a futex round trip. Falls back to
    /// [`HandoverKind::Park`] on unsupported targets.
    Fiber,
}

impl HandoverKind {
    /// All kinds, in Figure-14 presentation order.
    pub fn all() -> [HandoverKind; 6] {
        [
            HandoverKind::Condvar,
            HandoverKind::Park,
            HandoverKind::Spin,
            HandoverKind::SpinYield,
            HandoverKind::Channel,
            HandoverKind::Fiber,
        ]
    }

    /// The fastest handover available on this target: fibers where the
    /// user-space context switch is implemented, futex park/unpark
    /// elsewhere. What `Config::new` selects.
    pub fn default_fast() -> HandoverKind {
        HandoverKind::Fiber.effective()
    }

    /// The kind a [`crate::Runtime`] built with `self` actually runs:
    /// [`HandoverKind::Fiber`] degrades to [`HandoverKind::Park`] where
    /// the user-space context switch is not implemented (same
    /// observable behavior, kernel-mediated switches); every other
    /// kind is itself.
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
            HandoverKind::Condvar => "condition variable",
            HandoverKind::Spin => "spinning",
            HandoverKind::SpinYield => "spinning w/ yield",
            HandoverKind::Channel => "channel rendezvous",
            HandoverKind::Fiber => "fibers (stack switch)",
        }
    }
}

enum Impl {
    Park {
        token: AtomicBool,
        handle: StdMutex<Option<Thread>>,
    },
    Condvar {
        token: parking_lot::Mutex<bool>,
        cond: parking_lot::Condvar,
    },
    Spin {
        token: AtomicBool,
        yield_between: bool,
    },
    Channel {
        tx: Sender<()>,
        rx: StdMutex<Receiver<()>>,
    },
}

/// One thread's wakeup mailbox. `notify` may race with (or precede)
/// `wait`; the token semantics guarantee no lost wakeups either way.
pub struct Notifier {
    imp: Impl,
}

impl std::fmt::Debug for Notifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.imp {
            Impl::Park { .. } => "Park",
            Impl::Condvar { .. } => "Condvar",
            Impl::Spin {
                yield_between: false,
                ..
            } => "Spin",
            Impl::Spin {
                yield_between: true,
                ..
            } => "SpinYield",
            Impl::Channel { .. } => "Channel",
        };
        write!(f, "Notifier({kind})")
    }
}

impl Notifier {
    /// Creates a notifier of the given kind. The fiber strategy has no
    /// mailbox (handover is a direct stack switch, see `fiber.rs`), so
    /// kind-generic code gets a futex notifier for it.
    pub fn new(kind: HandoverKind) -> Self {
        let imp = match kind {
            HandoverKind::Park | HandoverKind::Fiber => Impl::Park {
                token: AtomicBool::new(false),
                handle: StdMutex::new(None),
            },
            HandoverKind::Condvar => Impl::Condvar {
                token: parking_lot::Mutex::new(false),
                cond: parking_lot::Condvar::new(),
            },
            HandoverKind::Spin => Impl::Spin {
                token: AtomicBool::new(false),
                yield_between: false,
            },
            HandoverKind::SpinYield => Impl::Spin {
                token: AtomicBool::new(false),
                yield_between: true,
            },
            HandoverKind::Channel => {
                let (tx, rx) = std::sync::mpsc::channel();
                Impl::Channel {
                    tx,
                    rx: StdMutex::new(rx),
                }
            }
        };
        Notifier { imp }
    }

    /// Binds the owning OS thread (needed by the park strategy; no-op
    /// for the others). Call from the thread that will `wait`.
    pub fn bind_current(&self) {
        if let Impl::Park { handle, .. } = &self.imp {
            *handle.lock().expect("handle mutex poisoned") = Some(std::thread::current());
        }
    }

    /// Blocks until a token is delivered, consuming it.
    pub fn wait(&self) {
        match &self.imp {
            Impl::Park { token, .. } => loop {
                if token.swap(false, Ordering::Acquire) {
                    return;
                }
                std::thread::park();
            },
            Impl::Condvar { token, cond } => {
                let mut guard = token.lock();
                while !*guard {
                    cond.wait(&mut guard);
                }
                *guard = false;
            }
            Impl::Spin {
                token,
                yield_between,
            } => loop {
                if token.swap(false, Ordering::Acquire) {
                    return;
                }
                if *yield_between {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            },
            Impl::Channel { rx, .. } => {
                rx.lock()
                    .expect("receiver mutex poisoned")
                    .recv()
                    .expect("notifier channel closed while waiting");
            }
        }
    }

    /// Delivers a token, waking the owner if it is waiting.
    pub fn notify(&self) {
        match &self.imp {
            Impl::Park { token, handle } => {
                token.store(true, Ordering::Release);
                if let Some(t) = handle.lock().expect("handle mutex poisoned").as_ref() {
                    t.unpark();
                }
            }
            Impl::Condvar { token, cond } => {
                *token.lock() = true;
                cond.notify_one();
            }
            Impl::Spin { token, .. } => {
                token.store(true, Ordering::Release);
            }
            Impl::Channel { tx, .. } => {
                // Ignore send errors: the owner may already have exited
                // during an abort.
                let _ = tx.send(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn ping_pong(kind: HandoverKind) {
        let a = Arc::new(Notifier::new(kind));
        let b = Arc::new(Notifier::new(kind));
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
    fn park_ping_pong() {
        ping_pong(HandoverKind::Park);
    }

    #[test]
    fn condvar_ping_pong() {
        ping_pong(HandoverKind::Condvar);
    }

    #[test]
    fn spin_yield_ping_pong() {
        ping_pong(HandoverKind::SpinYield);
    }

    #[test]
    fn channel_ping_pong() {
        ping_pong(HandoverKind::Channel);
    }

    #[test]
    fn notify_before_wait_is_not_lost() {
        for kind in HandoverKind::all() {
            let n = Notifier::new(kind);
            n.bind_current();
            n.notify();
            // Must return immediately instead of blocking.
            n.wait();
        }
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
