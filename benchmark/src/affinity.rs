//! CPU placement of the benchmark process — an environment control, like
//! running under `taskset`, not a product setting.
//!
//! A one-worker in-process campaign is two threads (the worker and the
//! aggregating caller) exchanging one message per execution. Left to the
//! scheduler on a virtualized 2-CPU host, that pair is bistable: phases
//! in which every cross-CPU wake-up is cheap alternate with phases —
//! minutes long, reliably entered after the `isolate` workload's process
//! storm — in which it costs enough to take 35–40 % off `execs_per_s` on
//! `bughunt` and `gen`, with unchanged code. No bound survives that, so
//! single-worker passes run pinned to **one** CPU: "one campaign worker"
//! then means one CPU's worth of work, and repeats within a few percent.
//! Threads the product spawns inherit the mask. Passes that need
//! parallelism (`isolate`, the 2-worker scaling trial) run unpinned.

use std::sync::atomic::{AtomicI64, Ordering};

#[cfg(target_os = "linux")]
mod sys {
    use std::sync::OnceLock;

    /// `cpu_set_t`: 1024 CPUs.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    /// The mask the process started with.
    fn original() -> Option<CpuSet> {
        static ORIGINAL: OnceLock<Option<CpuSet>> = OnceLock::new();
        *ORIGINAL.get_or_init(|| {
            let mut mask: CpuSet = [0; 16];
            // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer
            // and the size passed is its size; pid 0 is the caller.
            let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
            (rc == 0).then_some(mask)
        })
    }

    fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` points to a live `cpu_set_t`-sized value and
        // the size passed is its size; pid 0 is the caller.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
    }

    pub fn pin() -> Option<usize> {
        let allowed = original()?;
        // The highest allowed CPU: CPU 0 tends to take the interrupts.
        let cpu = (0..1024)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask).then_some(cpu)
    }

    pub fn unpin() {
        if let Some(mask) = original() {
            set(&mask);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn pin() -> Option<usize> {
        None
    }

    pub fn unpin() {}
}

/// The CPU the process is currently pinned to, or -1.
static PINNED: AtomicI64 = AtomicI64::new(-1);

/// Pins the calling thread (and every thread it spawns from now on) to
/// one of the CPUs the process was started on. Returns the CPU, or
/// `None` where pinning is unsupported or refused — the pass then runs
/// unpinned and its record says so.
pub fn pin() -> Option<usize> {
    let cpu = sys::pin();
    PINNED.store(cpu.map_or(-1, |c| c as i64), Ordering::Relaxed);
    cpu
}

/// Restores the affinity mask the process was started with.
pub fn unpin() {
    sys::unpin();
    PINNED.store(-1, Ordering::Relaxed);
}

/// The CPU single-worker measurements of this pass are pinned to.
pub fn pinned() -> Option<usize> {
    usize::try_from(PINNED.load(Ordering::Relaxed)).ok()
}
