//! Figure 14: context-switch (run-token handover) costs for the
//! scheduling strategies of §7.3, in the all-core and single-core
//! configurations.
//!
//! The paper measures pthread condvars, futexes, spinning, spinning
//! with yield, and ucontext/setjmp fibers (± TLS migration) on a
//! 2-thread ping-pong, and picks fibers. The runtime ships only that
//! choice and its fallback, so two rows here measure product code —
//! futex park/unpark ([`Notifier`]) and fibers ([`Runtime`]; no TLS
//! migration is needed because thread identity is slot-derived) — and
//! the condvar and spinning rows are mailboxes local to this module.
//!
//! Expected shape (paper Fig. 14): fibers are fastest everywhere;
//! spinning is fast with a core per thread but collapses by orders of
//! magnitude on one core; condition variables are the slowest blocking
//! strategy; futex-style wakeups sit in between.
//!
//! ```text
//! paper-tables figure14
//! ```

use c11tester_bench::{pin_to_single_core, rule, runs_from_env, unpin_all_cores};
use c11tester_runtime::{HandoverKind, Notifier, Runtime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A one-token wakeup mailbox: what each OS-thread row ping-pongs
/// through. `notify` may precede `wait`; the token is never lost.
trait Mailbox: Send + Sync + 'static {
    /// Called once by the thread that will `wait`.
    fn bind(&self) {}
    fn wait(&self);
    fn notify(&self);
}

impl Mailbox for Notifier {
    fn bind(&self) {
        self.bind_current();
    }
    fn wait(&self) {
        Notifier::wait(self);
    }
    fn notify(&self) {
        Notifier::notify(self);
    }
}

/// Mutex + condition variable (the paper's slowest practical row).
#[derive(Default)]
struct CondvarBox {
    token: Mutex<bool>,
    cond: Condvar,
}

impl Mailbox for CondvarBox {
    fn wait(&self) {
        let mut token = self.token.lock().expect("token mutex");
        while !*token {
            token = self.cond.wait(token).expect("token mutex");
        }
        *token = false;
    }
    fn notify(&self) {
        *self.token.lock().expect("token mutex") = true;
        self.cond.notify_one();
    }
}

/// Busy spinning on a flag, optionally yielding between polls.
struct SpinBox {
    token: AtomicBool,
    yield_between: bool,
}

impl Mailbox for SpinBox {
    fn wait(&self) {
        while !self.token.swap(false, Ordering::Acquire) {
            if self.yield_between {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
    fn notify(&self) {
        self.token.store(true, Ordering::Release);
    }
}

/// `iters` round trips between two OS threads through a pair of
/// mailboxes; returns nanoseconds per one-way handover.
fn ping_pong<M: Mailbox>(make: impl Fn() -> M, iters: u32) -> f64 {
    let (a, b) = (Arc::new(make()), Arc::new(make()));
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let child = std::thread::spawn(move || {
        b2.bind();
        for _ in 0..iters {
            b2.wait();
            a2.notify();
        }
    });
    a.bind();
    let t0 = Instant::now();
    for _ in 0..iters {
        b.notify();
        a.wait();
    }
    let elapsed = t0.elapsed();
    child.join().expect("ping-pong child");
    elapsed.as_nanos() as f64 / f64::from(iters) / 2.0
}

/// Fiber handover has no mailbox — a switch IS the wake+park pair — so
/// its row ping-pongs through the [`Runtime`] between the driver and
/// one fiber. (On targets without the fiber implementation the runtime
/// degrades to futex park, making this row ≈ the futex row.)
fn fiber_ping_pong(iters: u32) -> f64 {
    let runtime = Runtime::new(HandoverKind::Fiber);
    let driver = runtime.add_slot();
    runtime.bind_current(driver);
    let fiber = runtime.add_slot();
    let rt2 = Arc::clone(&runtime);
    runtime
        .spawn(
            fiber,
            Box::new(move || {
                // One fewer round than the driver: the final handover
                // back is the body's exit switch.
                for _ in 0..iters - 1 {
                    rt2.wake(driver);
                    rt2.park(fiber).expect("fiber poisoned");
                }
                rt2.wake(driver);
            }),
        )
        .expect("spawn fiber");
    let t0 = Instant::now();
    for _ in 0..iters {
        runtime.wake(fiber);
        runtime.park(driver).expect("driver poisoned");
    }
    let elapsed = t0.elapsed();
    runtime.join_all().expect("fiber ping-pong teardown");
    elapsed.as_nanos() as f64 / f64::from(iters) / 2.0
}

fn spin_box(yield_between: bool) -> SpinBox {
    SpinBox {
        token: AtomicBool::new(false),
        yield_between,
    }
}

pub fn run() {
    let iters = runs_from_env(20_000);
    println!("Figure 14: context-switch costs (ns per handover, {iters} round trips)");
    rule(60);
    println!(
        "{:<24} {:>15} {:>15}",
        "Scheduling approach", "all cores", "1 core"
    );
    rule(60);
    // Pure spinning on one core is pathological (the paper reports
    // 15,976µs per switch); cap its iteration count so the row
    // completes in reasonable time.
    let capped = (iters / 100).max(10);
    // The paper's rows, in its presentation order: name, measurement,
    // 1-core round trips.
    type Row = (&'static str, fn(u32) -> f64, u32);
    let rows: [Row; 5] = [
        (
            "condition variable",
            |n| ping_pong(CondvarBox::default, n),
            iters,
        ),
        (
            HandoverKind::Park.name(),
            |n| ping_pong(|| Notifier::new(HandoverKind::Park), n),
            iters,
        ),
        ("spinning", |n| ping_pong(|| spin_box(false), n), capped),
        (
            "spinning w/ yield",
            |n| ping_pong(|| spin_box(true), n),
            iters,
        ),
        (HandoverKind::Fiber.name(), fiber_ping_pong, iters),
    ];
    for (name, measure, one_iters) in rows {
        unpin_all_cores();
        let all = measure(iters);
        let pinned = pin_to_single_core();
        let one = measure(one_iters);
        unpin_all_cores();
        println!(
            "{:<24} {:>12.0} ns {:>12.0} ns{}",
            name,
            all,
            one,
            if pinned { "" } else { "  (unpinned!)" }
        );
    }
    rule(60);
    println!("(paper: condvar 1.95/1.61µs; futex 1.85/1.32µs; spin 0.07µs/16ms;");
    println!(" spin+yield 0.21/0.54µs; swapcontext fibers 0.34µs)");
}
