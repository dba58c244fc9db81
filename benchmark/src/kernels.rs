//! Per-layer kernels: ns/op medians over ≥ 7 batches of ≥ 10 ms, timed
//! around **public functions** of one crate at a time. They do not
//! depend on the workload; their job is to let a campaign-level change
//! be bisected to a layer (the README lists which end-to-end metric, on
//! which workload, each kernel is expected to move).

use crate::measure::fork_server;
use crate::record::Metric;
use crate::stats::median;
use c11tester::sync::atomic::{AtomicU32, Ordering};
use c11tester::{Config, ExecutionReport, Model};
use c11tester_campaign::{targets, Campaign, CampaignBudget, Executor};
use c11tester_core::{
    ClockVector, Execution, MemOrder, MoGraph, NodeId, ObjId, Policy, PruneConfig, SeqNum,
    StoreIdx, StoreKind, ThreadId,
};
use c11tester_genprog::Program;
use c11tester_isolation::protocol::{exec_payload, parse_frame};
use c11tester_race::{AccessKind, DedupHistory, RaceDetector};
use c11tester_runtime::{
    HandoverKind, Notifier, PctScheduler, RandomScheduler, Runtime, Scheduler,
};
use c11tester_telemetry::{phase_start, Phase};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long and how often a kernel is sampled.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Timed batches per kernel (the reported value is their median).
    pub batches: usize,
    /// Minimum timed duration of one batch.
    pub batch: Duration,
    /// Fork-server round trips sampled for `isolation.child_spawn_us`.
    pub spawns: usize,
}

impl Budget {
    /// The measuring budget: 7 batches of ≥ 10 ms.
    pub fn full() -> Budget {
        Budget {
            batches: 7,
            batch: Duration::from_millis(10),
            spawns: 15,
        }
    }

    /// The `--quick` budget: enough to exercise every kernel once.
    pub fn quick() -> Budget {
        Budget {
            batches: 2,
            batch: Duration::from_micros(300),
            spawns: 2,
        }
    }
}

/// Samples `op`, which performs (about) the requested number of
/// operations and returns the time spent inside them plus the number
/// actually performed — so kernels with untimed per-chunk set-up can
/// keep it off the clock. The batch size is calibrated until one batch
/// takes at least `budget.batch`.
fn kernel(
    name: &'static str,
    budget: Budget,
    mut op: impl FnMut(u64) -> (Duration, u64),
) -> Metric {
    let mut iters = 1u64;
    loop {
        let (spent, done) = op(iters);
        if spent >= budget.batch || iters >= 1 << 40 {
            break;
        }
        let per_op = spent.as_secs_f64() / done.max(1) as f64;
        let wanted = if per_op > 0.0 {
            (budget.batch.as_secs_f64() * 1.1 / per_op).ceil() as u64
        } else {
            iters * 16
        };
        iters = wanted.clamp(iters * 2, iters * 64);
    }
    let samples: Vec<f64> = (0..budget.batches)
        .map(|_| {
            let (spent, done) = op(iters);
            spent.as_nanos() as f64 / done.max(1) as f64
        })
        .collect();
    Metric {
        name,
        value: median(&samples),
        unit: "ns",
        note: format!("{} batches of {iters} ops", samples.len()),
        samples,
    }
}

/// Times `iters` back-to-back calls of `f`.
fn timed(iters: u64, mut f: impl FnMut()) -> (Duration, u64) {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed(), iters)
}

/// Runs ⌈iters / per_chunk⌉ chunks over `state`; each chunk's `setup`
/// is untimed and its `body` (which performs `per_chunk` operations on
/// what `setup` prepared) is timed.
fn chunked<S, T>(
    iters: u64,
    per_chunk: u64,
    state: &mut S,
    mut setup: impl FnMut(&mut S) -> T,
    mut body: impl FnMut(&mut S, T),
) -> (Duration, u64) {
    let chunks = iters.div_ceil(per_chunk);
    let mut spent = Duration::ZERO;
    for _ in 0..chunks {
        let prepared = setup(state);
        let start = Instant::now();
        body(state, prepared);
        spent += start.elapsed();
    }
    (spent, chunks * per_chunk)
}

fn tid(ix: usize) -> ThreadId {
    ThreadId::from_index(ix)
}

/// A clock vector over `threads` threads with slot `t` = `base + step·t`.
fn clock(threads: usize, base: u64, step: u64) -> ClockVector {
    let mut cv = ClockVector::new();
    for t in 0..threads {
        cv.set(tid(t), base + step * t as u64);
    }
    cv
}

// ---------------------------------------------------------------------
// core
// ---------------------------------------------------------------------

fn clock_union(name: &'static str, threads: usize, budget: Budget) -> Metric {
    // Every union raises one slot, like a thread absorbing a release
    // clock that is ahead of it in a single component.
    let mut acc = clock(threads, 10, 3);
    let mut src = clock(threads, 5, 2);
    let mut tick = 1_000u64;
    kernel(name, budget, |iters| {
        timed(iters, || {
            tick += 1;
            src.set(tid(tick as usize % threads), tick);
            black_box(acc.union_with(black_box(&src)));
        })
    })
}

fn clock_leq(budget: Budget) -> Metric {
    let lo = clock(4, 10, 3);
    let hi = clock(4, 20, 5);
    kernel("core.clock_leq_ns", budget, |iters| {
        timed(iters, || {
            black_box(black_box(&lo).leq(black_box(&hi)));
        })
    })
}

/// Operations per chunk of the chunked core kernels: long enough to
/// amortize the two clock reads, short enough that histories stay at
/// the scale the workloads produce.
const CHUNK: u64 = 256;

fn fresh(e: &mut Execution) {
    e.reset(Policy::C11Tester, PruneConfig::disabled());
}

fn read_candidates(budget: Budget) -> Metric {
    // Four unsynchronized writers stored four times each to one location
    // (a 16-store window); the reader was forked before any of them, so
    // every store is an unseen candidate to vet.
    let mut e = Execution::new(Policy::C11Tester);
    let x = e.new_object();
    e.atomic_store(ThreadId::MAIN, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
    let writers: Vec<ThreadId> = (0..4).map(|_| e.fork(ThreadId::MAIN)).collect();
    let reader = e.fork(ThreadId::MAIN);
    for value in 1..=16 {
        let w = writers[value as usize % 4];
        e.atomic_store(w, x, MemOrder::Relaxed, value, StoreKind::Atomic);
    }
    let mut buf = Vec::new();
    kernel("core.read_candidates_ns", budget, |iters| {
        timed(iters, || {
            e.feasible_read_candidates_into(reader, x, MemOrder::Relaxed, false, &mut buf);
            black_box(buf.len());
        })
    })
}

fn load_commit(budget: Budget) -> Metric {
    // A writer publishes CHUNK release stores (untimed); the reader then
    // acquires them in modification order, one commit per store.
    let mut e = Execution::new(Policy::C11Tester);
    kernel("core.load_commit_ns", budget, |iters| {
        chunked(
            iters,
            CHUNK,
            &mut e,
            |e| {
                fresh(e);
                let x = e.new_object();
                let writer = e.fork(ThreadId::MAIN);
                let reader = e.fork(ThreadId::MAIN);
                let stores: Vec<StoreIdx> = (0..CHUNK)
                    .map(|v| e.atomic_store(writer, x, MemOrder::Release, v, StoreKind::Atomic))
                    .collect();
                (x, reader, stores)
            },
            |e, (x, reader, stores)| {
                for s in stores {
                    black_box(e.commit_load(reader, x, MemOrder::Acquire, s));
                }
            },
        )
    })
}

fn rmw_commit(budget: Budget) -> Metric {
    // Two threads alternate acq_rel RMWs, each reading the previous one
    // (the only feasible candidate under RMW atomicity).
    let mut e = Execution::new(Policy::C11Tester);
    kernel("core.rmw_commit_ns", budget, |iters| {
        chunked(
            iters,
            CHUNK,
            &mut e,
            |e| {
                fresh(e);
                let x = e.new_object();
                let init =
                    e.atomic_store(ThreadId::MAIN, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
                let threads = [e.fork(ThreadId::MAIN), e.fork(ThreadId::MAIN)];
                (x, init, threads)
            },
            |e, (x, init, threads)| {
                let mut last = init;
                for i in 0..CHUNK {
                    let (_, store) =
                        e.commit_rmw(threads[i as usize % 2], x, MemOrder::AcqRel, last, i + 1);
                    last = store;
                }
                black_box(last);
            },
        )
    })
}

fn store_commit(budget: Budget) -> Metric {
    // Four unsynchronized writers store relaxed to one location.
    let mut e = Execution::new(Policy::C11Tester);
    kernel("core.store_commit_ns", budget, |iters| {
        chunked(
            iters,
            CHUNK,
            &mut e,
            |e| {
                fresh(e);
                let x = e.new_object();
                e.atomic_store(ThreadId::MAIN, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
                let writers: Vec<ThreadId> = (0..4).map(|_| e.fork(ThreadId::MAIN)).collect();
                (x, writers)
            },
            |e, (x, writers)| {
                for i in 0..CHUNK {
                    let w = writers[i as usize % 4];
                    black_box(e.atomic_store(w, x, MemOrder::Relaxed, i + 1, StoreKind::Atomic));
                }
            },
        )
    })
}

/// Adds `n` same-location nodes written round-robin by four threads.
fn graph_nodes(g: &mut MoGraph, n: usize) -> Vec<NodeId> {
    (0..n)
        .map(|i| g.add_node(tid(1 + i % 4), SeqNum(i as u64 + 1), ObjId(0)))
        .collect()
}

fn mograph_reaches(budget: Budget) -> [Metric; 2] {
    let mut g = MoGraph::new();
    let nodes = graph_nodes(&mut g, 64);
    for pair in nodes.windows(2) {
        g.add_edge(pair[0], pair[1]);
    }
    let (early, late) = (nodes[10], nodes[40]);
    [
        // Against the maintained order: one integer compare.
        kernel("core.mograph_reaches_fast_ns", budget, |iters| {
            timed(iters, || {
                black_box(g.reaches(black_box(late), black_box(early)));
            })
        }),
        // With the order: falls through to the Theorem-1 clock test.
        kernel("core.mograph_reaches_cv_ns", budget, |iters| {
            timed(iters, || {
                black_box(g.reaches(black_box(early), black_box(late)));
            })
        }),
    ]
}

fn mograph_add_edge_inorder(budget: Budget) -> Metric {
    // Edges arrive in modification order: the O(1) path.
    let mut g = MoGraph::new();
    kernel("core.mograph_add_edge_inorder_ns", budget, |iters| {
        chunked(
            iters,
            CHUNK,
            &mut g,
            |g| {
                g.reset();
                graph_nodes(g, CHUNK as usize + 1)
            },
            |g, nodes| {
                for pair in nodes.windows(2) {
                    g.add_edge(pair[0], pair[1]);
                }
            },
        )
    })
}

/// Nodes one order violation re-indexes in the reorder kernel — the
/// region size the `app` workload averages (62.6 at seed 0xC11).
const REORDER_REGION: usize = 63;

fn mograph_add_edge_reorder(budget: Budget) -> Metric {
    // Each edge points from the last node of a 63-node block back to its
    // first: an order violation repaired by a bounded local shift.
    const BLOCKS: usize = 32;
    let mut g = MoGraph::new();
    kernel("core.mograph_add_edge_reorder_ns", budget, |iters| {
        chunked(
            iters,
            BLOCKS as u64,
            &mut g,
            |g| {
                g.reset();
                graph_nodes(g, BLOCKS * REORDER_REGION)
            },
            |g, nodes| {
                for block in nodes.chunks_exact(REORDER_REGION) {
                    g.add_edge(block[REORDER_REGION - 1], block[0]);
                }
            },
        )
    })
}

fn prune_pass(budget: Budget) -> Metric {
    // One windowed pruning pass (window 64, compaction on) over a
    // 256-event history: two writers and a reader on two locations.
    // Interval 0 keeps automatic passes off, so the pass is ours to time.
    let cfg = PruneConfig::aggressive(0, 64).with_memory_limit();
    let mut e = Execution::with_pruning(Policy::C11Tester, cfg);
    kernel("core.prune_pass_ns", budget, |iters| {
        chunked(
            iters,
            1,
            &mut e,
            |e| {
                e.reset(Policy::C11Tester, cfg);
                let objs = [e.new_object(), e.new_object()];
                let writers = [e.fork(ThreadId::MAIN), e.fork(ThreadId::MAIN)];
                let reader = e.fork(ThreadId::MAIN);
                for i in 0..128u64 {
                    let x = objs[i as usize % 2];
                    let w = writers[(i as usize / 2) % 2];
                    let s = e.atomic_store(w, x, MemOrder::Release, i, StoreKind::Atomic);
                    e.commit_load(reader, x, MemOrder::Acquire, s);
                }
            },
            |e, ()| e.prune_now(),
        )
    })
}

fn compact(budget: Budget) -> Metric {
    // Compaction of a 128-node arena of which the oldest 96 are pruned.
    let mut g = MoGraph::new();
    kernel("core.compact_ns", budget, |iters| {
        chunked(
            iters,
            1,
            &mut g,
            |g| {
                g.reset();
                let nodes = graph_nodes(g, 128);
                for pair in nodes.windows(2) {
                    g.add_edge(pair[0], pair[1]);
                }
                for &n in &nodes[..96] {
                    g.prune_node(n);
                }
                g.drop_edges_to_pruned();
            },
            |g, ()| {
                black_box(g.compact().len());
            },
        )
    })
}

fn exec_reset(budget: Budget) -> Metric {
    // Rewinding a recycled execution that knows 16 locations — the
    // per-execution cost `Model` pays instead of reallocating.
    let mut e = Execution::new(Policy::C11Tester);
    let writer = e.fork(ThreadId::MAIN);
    for i in 0..64 {
        let x = ObjId(i % 16);
        e.atomic_store(writer, x, MemOrder::Relaxed, i, StoreKind::Atomic);
    }
    kernel("core.exec_reset_ns", budget, |iters| {
        timed(iters, || fresh(black_box(&mut e)))
    })
}

// ---------------------------------------------------------------------
// runtime
// ---------------------------------------------------------------------

/// `round_trips` driver↔fiber ping-pongs through the run-token runtime;
/// two handovers per round trip. (Off x86_64 the runtime degrades fibers
/// to futex park; the output's `handover_kind` says which ran.)
fn fiber_ping_pong(round_trips: u64) -> (Duration, u64) {
    let runtime = Runtime::new(HandoverKind::Fiber);
    let driver = runtime.add_slot();
    runtime.bind_current(driver);
    let fiber = runtime.add_slot();
    let rt = Arc::clone(&runtime);
    runtime
        .spawn(
            fiber,
            Box::new(move || {
                // The last handover back is the body's exit switch.
                for _ in 1..round_trips {
                    rt.wake(driver);
                    rt.park(fiber).expect("fiber poisoned");
                }
                rt.wake(driver);
            }),
        )
        .expect("fibers spawn infallibly");
    let start = Instant::now();
    for _ in 0..round_trips {
        runtime.wake(fiber);
        runtime.park(driver).expect("driver poisoned");
    }
    let spent = start.elapsed();
    runtime.join_all().expect("fiber teardown");
    (spent, round_trips * 2)
}

/// The same ping-pong between two OS threads over futex park/unpark —
/// the fallback handover.
fn park_ping_pong(round_trips: u64) -> (Duration, u64) {
    let ping = Arc::new(Notifier::new(HandoverKind::Park));
    let pong = Arc::new(Notifier::new(HandoverKind::Park));
    let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
    let peer = std::thread::spawn(move || {
        pong2.bind_current();
        for _ in 0..round_trips {
            pong2.wait();
            ping2.notify();
        }
    });
    ping.bind_current();
    let start = Instant::now();
    for _ in 0..round_trips {
        pong.notify();
        ping.wait();
    }
    let spent = start.elapsed();
    peer.join().expect("ping-pong peer");
    (spent, round_trips * 2)
}

/// Provisioning one model thread: a runtime, a fiber that runs an empty
/// body, and the teardown — what every execution pays per thread.
fn spawn_join(iters: u64) -> (Duration, u64) {
    timed(iters, || {
        black_box(fiber_ping_pong(1));
    })
}

fn schedulers(budget: Budget) -> [Metric; 2] {
    let enabled: Vec<ThreadId> = (0..4).map(tid).collect();
    let mut random = RandomScheduler::new(0xC11);
    random.begin_execution(0);
    let mut pct = PctScheduler::new(0xC11, 3, 128);
    pct.begin_execution(0);
    [
        kernel("runtime.sched_random_next_ns", budget, |iters| {
            timed(iters, || {
                black_box(random.next_thread(black_box(&enabled), enabled[0]));
            })
        }),
        kernel("runtime.sched_pct_next_ns", budget, |iters| {
            timed(iters, || {
                black_box(pct.next_thread(black_box(&enabled), enabled[0]));
            })
        }),
    ]
}

// ---------------------------------------------------------------------
// c11tester
// ---------------------------------------------------------------------

/// Atomic operations per execution of the `atomic_op` kernel's body.
const ATOMIC_OPS: u32 = 3 * 341;

fn model_kernels(config: &Config, budget: Budget) -> [Metric; 3] {
    let mut model = Model::new(config.clone());
    let empty = kernel("c11tester.empty_exec_ns", budget, |iters| {
        timed(iters, || {
            black_box(model.run(|| {}));
        })
    });
    let two_thread = kernel("c11tester.two_thread_exec_ns", budget, |iters| {
        timed(iters, || {
            black_box(model.run(|| {
                let flag = Arc::new(AtomicU32::new(0));
                let flag2 = Arc::clone(&flag);
                let t = c11tester::thread::spawn(move || flag2.store(1, Ordering::Release));
                black_box(flag.load(Ordering::Acquire));
                t.join();
            }));
        })
    });
    // One single-threaded execution of 1 023 relaxed operations on one
    // atomic; per-operation cost through the whole facade (scheduling
    // point, engine, race check), the fixed execution cost amortized.
    let mut atomic_op = kernel("c11tester.atomic_op_ns", budget, |iters| {
        let executions = iters.div_ceil(u64::from(ATOMIC_OPS));
        let (spent, _) = timed(executions, || {
            black_box(model.run(|| {
                let x = AtomicU32::new(0);
                for i in 0..ATOMIC_OPS / 3 {
                    x.store(i, Ordering::Relaxed);
                    black_box(x.load(Ordering::Relaxed));
                    black_box(x.fetch_add(1, Ordering::Relaxed));
                }
            }));
        });
        (spent, executions * u64::from(ATOMIC_OPS))
    });
    atomic_op.note += &format!(" ({ATOMIC_OPS} per execution)");
    [empty, two_thread, atomic_op]
}

// ---------------------------------------------------------------------
// race
// ---------------------------------------------------------------------

fn race_kernels(budget: Budget) -> [Metric; 6] {
    let obj = ObjId(0);
    let mut detector = RaceDetector::new();
    detector.register(obj, "cell", false);
    let (t1, t2) = (tid(1), tid(2));
    // t1 and t2 are concurrent: neither clock knows the other's slot.
    let (mut cv1, mut cv2) = (clock(1, 1, 0), clock(1, 1, 0));
    cv1.set(t1, 7);
    cv2.set(t2, 9);
    let read = kernel("race.read_check_ns", budget, |iters| {
        timed(iters, || {
            black_box(detector.on_read(obj, 0, t1, black_box(&cv1), AccessKind::NonAtomic));
        })
    });
    let write = kernel("race.write_check_ns", budget, |iters| {
        timed(iters, || {
            black_box(detector.on_write(obj, 0, t1, black_box(&cv1), AccessKind::NonAtomic));
        })
    });
    // Two concurrent non-atomic writes: the second completes a race, the
    // detector builds and dedups the report, the model layer drains it.
    let report = kernel("race.report_ns", budget, |iters| {
        timed(iters, || {
            detector.begin_execution();
            detector.on_write(obj, 0, t1, &cv1, AccessKind::NonAtomic);
            detector.on_write(obj, 0, t2, &cv2, AccessKind::NonAtomic);
            let reports = detector.take_reports();
            debug_assert_eq!(reports.len(), 1);
            black_box(reports);
        })
    });
    detector.begin_execution();
    detector.on_write(obj, 0, t1, &cv1, AccessKind::NonAtomic);
    detector.on_write(obj, 0, t2, &cv2, AccessKind::NonAtomic);
    let race = detector
        .take_reports()
        .pop()
        .expect("concurrent writes race");

    // Wiping the shadow tables of 64 objects × 16 cells.
    let mut wide = RaceDetector::new();
    for o in 0..64 {
        for cell in 0..16 {
            wide.on_write(ObjId(o), cell, t1, &cv1, AccessKind::NonAtomic);
        }
    }
    let begin = kernel("race.begin_execution_ns", budget, |iters| {
        timed(iters, || black_box(&mut wide).begin_execution())
    });

    let mut history = DedupHistory::new();
    let mut execution = 0;
    let record = kernel("race.dedup_record_ns", budget, |iters| {
        timed(iters, || {
            execution += 1;
            history.record(execution, black_box(&race));
        })
    });
    // Merging a worker's 8-class history into the aggregate's.
    let mut other = DedupHistory::new();
    for class in 0..8 {
        let mut r = race.clone();
        r.label = format!("cell-{class}");
        other.record(class, &r);
    }
    let mut merged = other.clone();
    let merge = kernel("race.dedup_merge_ns", budget, |iters| {
        timed(iters, || merged.merge(black_box(&other)))
    });
    [read, write, report, begin, record, merge]
}

// ---------------------------------------------------------------------
// campaign, isolation
// ---------------------------------------------------------------------

/// The first racing execution of `rwlock-buggy`: a representative
/// report (one race, no failure) for the absorb and wire kernels.
fn racy_report(config: &Config) -> Result<ExecutionReport, String> {
    let target = targets::find("rwlock-buggy").ok_or("no rwlock-buggy target")?;
    let mut model = Model::new(config.clone());
    (0..1_000)
        .map(|_| model.run(|| target.run()))
        .find(ExecutionReport::found_race)
        .ok_or_else(|| "rwlock-buggy did not race in 1000 executions".to_string())
}

fn campaign_kernels(config: &Config, report: &ExecutionReport, budget: Budget) -> [Metric; 2] {
    let mut aggregate = c11tester::TestReport::default();
    let absorb = kernel("campaign.absorb_ns", budget, |iters| {
        timed(iters, || aggregate.absorb(black_box(report)))
    });
    let target = targets::find("rwlock-buggy").expect("checked by racy_report");
    let campaign = Campaign::new(config.clone())
        .with_workers(1)
        .run(&CampaignBudget::executions(200), move || target.run());
    let mut canonical = kernel("campaign.canonical_json_ns", budget, |iters| {
        timed(iters, || {
            black_box(campaign.canonical_json());
        })
    });
    canonical.note += " (200-execution rwlock-buggy report)";
    [absorb, canonical]
}

fn isolation_kernels(
    config: &Config,
    report: &ExecutionReport,
    budget: Budget,
) -> Result<[Metric; 4], String> {
    let payload = exec_payload(report);
    let encode = kernel("isolation.exec_encode_ns", budget, |iters| {
        timed(iters, || {
            black_box(exec_payload(black_box(report)));
        })
    });
    let decode = kernel("isolation.frame_decode_ns", budget, |iters| {
        timed(iters, || {
            black_box(parse_frame(black_box(&payload)).expect("own frame parses"));
        })
    });
    let bytes = Metric::single("isolation.frame_bytes", "bytes", payload.len() as f64);
    // One single-execution batch: child spawn, worker start-up, one
    // frame each way, reap. The execution itself is microseconds.
    let fork = fork_server()?;
    let target = targets::find("seqlock-fixed").ok_or("no seqlock-fixed target")?;
    let one = CampaignBudget::executions(1);
    let spawns = (0..budget.spawns as u64)
        .map(|index| {
            let start = Instant::now();
            let outcome = fork.run_range(config, 1, &target, index, &one)?;
            let us = start.elapsed().as_secs_f64() * 1e6;
            if outcome.aggregate.executions == 1 {
                Ok(us)
            } else {
                Err("fork-server child returned no execution".to_string())
            }
        })
        .collect::<Result<Vec<f64>, String>>()?;
    let spawn = Metric::median_of("isolation.child_spawn_us", "us", spawns)
        .with_note("single-execution fork-server round trips");
    Ok([encode, decode, bytes, spawn])
}

// ---------------------------------------------------------------------
// genprog, telemetry
// ---------------------------------------------------------------------

fn genprog_kernels(config: &Config, budget: Budget) -> Result<[Metric; 2], String> {
    let mut pseed = 0u64;
    let generate = kernel("genprog.generate_ns", budget, |iters| {
        timed(iters, || {
            pseed = (pseed + 1) % 64;
            black_box(Program::generate(black_box(pseed)));
        })
    });
    let program = Program::generate(1);
    let (_, events) = c11tester_genprog::sweep(&program, config.clone(), 1)
        .pop()
        .ok_or("sweep captured no trace")?;
    let mut oracle = kernel("genprog.oracle_check_ns", budget, |iters| {
        timed(iters, || {
            black_box(c11tester_genprog::check_trace(black_box(&events)));
        })
    });
    oracle.note += &format!(" ({}-event trace of gen:1)", events.len());
    Ok([generate, oracle])
}

fn disabled_phase(budget: Budget) -> Metric {
    // What every profiling site costs while profiling is off.
    debug_assert!(!c11tester_telemetry::profiling_enabled());
    kernel("telemetry.disabled_phase_ns", budget, |iters| {
        timed(iters, || {
            black_box(phase_start(black_box(Phase::ReadFrom)));
        })
    })
}

/// All kernels, in the order of `metrics::PER_LAYER`.
pub fn all(config: &Config, budget: Budget) -> Result<Vec<Metric>, String> {
    let mut out = vec![
        clock_union("core.clock_union_ns", 4, budget),
        clock_union("core.clock_union_spilled_ns", 12, budget),
        clock_leq(budget),
        read_candidates(budget),
        load_commit(budget),
        rmw_commit(budget),
    ];
    out.extend(mograph_reaches(budget));
    out.extend([
        store_commit(budget),
        mograph_add_edge_inorder(budget),
        mograph_add_edge_reorder(budget),
        prune_pass(budget),
        compact(budget),
        exec_reset(budget),
        kernel("runtime.fiber_switch_ns", budget, fiber_ping_pong),
        kernel("runtime.park_switch_ns", budget, park_ping_pong),
        kernel("runtime.spawn_join_ns", budget, spawn_join),
    ]);
    out.extend(schedulers(budget));
    out.extend(model_kernels(config, budget));
    out.extend(race_kernels(budget));
    let report = racy_report(config)?;
    out.extend(campaign_kernels(config, &report, budget));
    out.extend(isolation_kernels(config, &report, budget)?);
    out.extend(genprog_kernels(config, budget)?);
    out.push(disabled_phase(budget));
    Ok(out)
}
