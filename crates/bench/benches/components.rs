//! Micro-benchmarks of the low-level components the skeletons are built from:
//! bitset algebra, the order-preserving depth pool, greedy colouring, raw
//! lazy-node-generator throughput, and the runtime's submission path.  These
//! quantify the constant factors behind the §5.3 overhead discussion and the
//! persistent-pool win of the anytime runtime.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

use yewpar::bitset::BitSet;
use yewpar::workpool::{DepthPool, KeyArena, OrderedPool, SeqKey, Task, POP_BATCH};
use yewpar::{Coordination, Runtime, RuntimeConfig, SearchConfig, SearchProblem, Skeleton};
use yewpar_apps::irregular::Irregular;
use yewpar_apps::maxclique::{greedy_colour, MaxClique};
use yewpar_instances::graph;

fn bench_bitset(c: &mut Criterion) {
    let mut group = c.benchmark_group("components/bitset");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let a = BitSet::from_iter(512, (0..512).filter(|i| i % 3 == 0));
    let b = BitSet::from_iter(512, (0..512).filter(|i| i % 7 == 0));
    group.bench_function("intersect_512", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut x| {
                x.intersect_with(&b);
                x
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("count_512", |bench| bench.iter(|| a.count()));
    group.bench_function("iterate_512", |bench| {
        bench.iter(|| a.iter().sum::<usize>())
    });
    group.finish();
}

fn bench_workpool(c: &mut Criterion) {
    let mut group = c.benchmark_group("components/workpool");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    group.bench_function("push_pop_1000", |bench| {
        bench.iter(|| {
            let pool = DepthPool::new();
            for i in 0..1000u32 {
                pool.push(Task::new(i, (i % 8) as usize));
            }
            let mut drained = 0;
            while pool.pop().is_some() {
                drained += 1;
            }
            drained
        })
    });
    group.bench_function("push_batch_1000", |bench| {
        // The per-task A/B partner of `push_pop_1000`: the same 1000 tasks
        // through the batched paths — one lock per 8-task generator burst on
        // the way in, one per `POP_BATCH` pops on the way out.
        bench.iter(|| {
            let pool = DepthPool::new();
            let mut batch = Vec::with_capacity(8);
            for burst in 0..125u32 {
                for i in 0..8u32 {
                    let t = burst * 8 + i;
                    batch.push(Task::new(t, (t % 8) as usize));
                }
                pool.push_batch(&mut batch);
            }
            let mut out = std::collections::VecDeque::new();
            let mut drained = 0;
            while pool.pop_batch(POP_BATCH, &mut out) > 0 {
                drained += out.len();
                out.clear();
            }
            drained
        })
    });
    group.bench_function("ordered_push_pop_1000", |bench| {
        // Pre-build the sequence keys so the bench isolates the pool's
        // O(log n) heap operations from key construction.
        let keys: Vec<SeqKey> = (0..1000u32)
            .map(|i| SeqKey::root().child(i % 8).child(i))
            .collect();
        bench.iter(|| {
            let pool = OrderedPool::new();
            for (i, key) in keys.iter().enumerate() {
                pool.push(key.clone(), Task::new(i as u32, key.depth()));
            }
            let mut drained = 0;
            while pool.pop().is_some() {
                drained += 1;
            }
            drained
        })
    });
    group.bench_function("ordered_purge_after_1000", |bench| {
        // The speculation-cancellation primitive: drop everything after a
        // mid-range witness key (≈ half the pool) in one O(n) sweep.
        let keys: Vec<SeqKey> = (0..1000u32)
            .map(|i| SeqKey::root().child(i % 8).child(i))
            .collect();
        let witness = SeqKey::root().child(4);
        bench.iter_batched(
            || {
                let pool = OrderedPool::new();
                for (i, key) in keys.iter().enumerate() {
                    pool.push(key.clone(), Task::new(i as u32, key.depth()));
                }
                pool
            },
            |pool| pool.purge_after(&witness),
            BatchSize::SmallInput,
        )
    });
    // The sharded-insertion A/B: four threads push keyed batches into the
    // ordered pool concurrently, against a single insertion point (1 shard,
    // the old single-mutex design) and one shard per thread.  The measured
    // phase is the *insertion* side — many small batches, the hot-path shape
    // of the Ordered release (a handful of children per expanded node) —
    // since that is all sharding changes: the `(key, arrival)` pop order is
    // proven identical by the pool's property tests, and the consume side
    // (pop + buffer migration) costs the same in both configurations.
    // Key construction happens in the (un-timed) setup: minting 16k `SeqKey`
    // paths costs the same either way and would otherwise drown the lock
    // behaviour under allocator traffic.
    // One keyed batch per push; each thread gets its rounds pre-built.
    type KeyedBatch = Vec<(SeqKey, Task<u32>)>;
    type ThreadRounds = Vec<KeyedBatch>;
    fn ordered_batches() -> Vec<ThreadRounds> {
        (0..4u32)
            .map(|t| {
                let base = SeqKey::root().child(t);
                (0..2000u32)
                    .map(|round| {
                        let parent = base.child(round);
                        (0..2u32)
                            .map(|i| (parent.child(i), Task::new(i, 3)))
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }
    fn ordered_contended(shards: usize, batches: Vec<ThreadRounds>) -> u64 {
        use std::sync::Arc;
        let pool: Arc<OrderedPool<Task<u32>>> = Arc::new(OrderedPool::with_shards(shards));
        let handles: Vec<_> = batches
            .into_iter()
            .enumerate()
            .map(|(t, rounds)| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for batch in rounds {
                        pool.push_batch_from(t % pool.shards(), batch);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Do not drain here: migrating 16k entries through the heap costs
        // the same in both configurations and would swamp the contended
        // phase under measurement.
        Arc::strong_count(&pool) as u64
    }
    group.bench_function("ordered_pool_single_heap_4_threads", |bench| {
        bench.iter_batched(
            ordered_batches,
            |batches| ordered_contended(1, batches),
            BatchSize::PerIteration,
        )
    });
    group.bench_function("ordered_pool_sharded_4_threads", |bench| {
        bench.iter_batched(
            ordered_batches,
            |batches| ordered_contended(4, batches),
            BatchSize::PerIteration,
        )
    });
    // Arena-vs-Vec key minting: `SeqKey::child` allocates a fresh path Vec
    // per key; the worker-local arena recycles retired allocations, which is
    // what the Ordered release path does per spawned child.
    group.bench_function("seqkey_child_alloc_1000", |bench| {
        let parent = SeqKey::root().child(1).child(2).child(3);
        bench.iter(|| {
            let mut depth_sum = 0usize;
            for i in 0..1000u32 {
                depth_sum += parent.child(i).depth();
            }
            depth_sum
        })
    });
    group.bench_function("seqkey_child_arena_1000", |bench| {
        let parent = SeqKey::root().child(1).child(2).child(3);
        bench.iter(|| {
            let mut arena = KeyArena::new();
            let mut depth_sum = 0usize;
            for i in 0..1000u32 {
                let key = arena.child_of(&parent, i);
                depth_sum += key.depth();
                arena.recycle(key);
            }
            depth_sum
        })
    });
    group.finish();
}

fn bench_maxclique_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("components/maxclique");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let g = graph::gnp(120, 0.5, 7);
    let all = BitSet::full(120);
    group.bench_function("greedy_colour_120", |bench| {
        bench.iter(|| greedy_colour(&g, &all))
    });

    let problem = MaxClique::new(g);
    let root = problem.root();
    group.bench_function("lazy_generator_root_children", |bench| {
        bench.iter(|| problem.generator(&root).count())
    });
    group.finish();
}

/// Spawn-per-search vs persistent-pool submission: the same small irregular
/// enumeration (≈2.4k nodes, small enough that fixed costs dominate) run
/// (a) through the blocking `Skeleton` facade, which spawns and joins 4
/// scoped worker threads per call, and (b) through a long-lived `Runtime`,
/// whose parked pool threads are reused across submissions.  The gap is the
/// per-search thread-churn cost the runtime redesign eliminates.
fn bench_runtime_submission(c: &mut Criterion) {
    let mut group = c.benchmark_group("components/runtime_submission");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let workers = 4;
    let mut config = SearchConfig::new(Coordination::depth_bounded(2));
    config.workers = workers;

    group.bench_function("spawn_per_search", |bench| {
        let skeleton = Skeleton::from_config(config.clone());
        bench.iter(|| skeleton.enumerate(&Irregular::new(8, 1)).value)
    });

    group.bench_function("persistent_pool", |bench| {
        let runtime = Runtime::new(RuntimeConfig::default().workers(workers));
        bench.iter(|| {
            runtime
                .enumerate(Irregular::new(8, 1), &config)
                .wait()
                .value
        })
    });

    // The single-worker facade needs no threads at all — the floor the two
    // multi-worker paths are measured against.
    group.bench_function("single_worker_inline", |bench| {
        let mut inline = config.clone();
        inline.workers = 1;
        let skeleton = Skeleton::from_config(inline);
        bench.iter(|| skeleton.enumerate(&Irregular::new(8, 1)).value)
    });
    group.finish();
}

/// The multiplexing A/B: the same four submissions served serially by the
/// FIFO policy (each search granted the whole 4-worker pool) versus
/// concurrently by FairShare (the pool split across the four).  The total
/// work is identical; the row quantifies what admission-time multiplexing
/// costs or saves end-to-end on the persistent pool, including FairShare's
/// lease changes.
fn bench_runtime_multiplexing(c: &mut Criterion) {
    use yewpar::schedule::{FairShare, Fifo, SchedulePolicy};

    let mut group = c.benchmark_group("components/runtime_multiplexing");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let pool_workers = 4;
    let submissions = 4;
    let mut config = SearchConfig::new(Coordination::depth_bounded(2));
    config.workers = pool_workers;

    let mut bench_policy = |label: &str, make_policy: fn() -> Box<dyn SchedulePolicy>| {
        let config = config.clone();
        group.bench_function(label, |bench| {
            let runtime = Runtime::with_policy(
                RuntimeConfig::default().workers(pool_workers),
                make_policy(),
            );
            bench.iter(|| {
                let handles: Vec<_> = (0..submissions)
                    .map(|_| runtime.enumerate(Irregular::new(9, 1), &config))
                    .collect();
                handles.into_iter().map(|h| h.wait().value.0).sum::<u64>()
            })
        });
    };
    bench_policy("4_searches_serial_fifo", || Box::new(Fifo));
    bench_policy("4_searches_concurrent_fair_share", || Box::new(FairShare));
    group.finish();
}

/// The elastic-regrant A/B: a 1-worker submission on a 4-worker pool is
/// grown into the idle capacity by the replanner, then shrunk back when a
/// pool-wide competitor arrives — the full lease-renegotiation cycle
/// (grow, cooperative revocation, re-admission) end to end.  The serial
/// FIFO row is the fixed-grant baseline (no renegotiation machinery at
/// all); the two FairShare rows vary the replanning period, which bounds
/// how quickly revocations are *issued* — the revocation-latency half of
/// the cycle (how quickly workers *acknowledge*) is bounded by the
/// engine's poll stride and is reported by `RuntimeStats::revocation_latency`.
fn bench_elastic_regrant(c: &mut Criterion) {
    use yewpar::schedule::{FairShare, Fifo, SchedulePolicy};

    let mut group = c.benchmark_group("components/elastic_regrant");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(300));
    let pool_workers = 4;
    let mut small = SearchConfig::new(Coordination::depth_bounded(2));
    small.workers = 1;
    let mut full = SearchConfig::new(Coordination::depth_bounded(2));
    full.workers = pool_workers;

    let mut bench_variant = |label: &str, make: fn() -> (Box<dyn SchedulePolicy>, Duration)| {
        let (small, full) = (small.clone(), full.clone());
        group.bench_function(label, |bench| {
            let (policy, replan) = make();
            let runtime = Runtime::with_policy(
                RuntimeConfig::default()
                    .workers(pool_workers)
                    .replan_period(replan),
                policy,
            );
            bench.iter(|| {
                let background = runtime.enumerate(Irregular::new(8, 1), &small);
                let competitor = runtime.enumerate(Irregular::new(8, 7), &full);
                background.wait().value.0 + competitor.wait().value.0
            })
        });
    };
    bench_variant("fixed_grant_fifo", || {
        (Box::new(Fifo), Duration::from_millis(5))
    });
    bench_variant("elastic_replan_1ms", || {
        (Box::new(FairShare), Duration::from_millis(1))
    });
    bench_variant("elastic_replan_5ms", || {
        (Box::new(FairShare), Duration::from_millis(5))
    });
    group.finish();
}

/// The flight-recorder A/B: the same 4-worker irregular enumeration with
/// tracing disabled (the default — every emission site is a branch on a
/// `None` handle), enabled with a ring large enough to never overflow, and
/// never-configured (the `SearchConfig::trace` flag untouched, the row the
/// zero-cost-when-off claim is judged against).  `traced_off` vs
/// `trace_never_configured` should be indistinguishable; `traced_on` pays
/// only the per-event ring pushes.
fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("components/trace");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let workers = 4;

    group.bench_function("trace_never_configured", |bench| {
        let skeleton = Skeleton::new(Coordination::stack_stealing_chunked()).workers(workers);
        bench.iter(|| skeleton.enumerate(&Irregular::new(9, 1)).value)
    });

    group.bench_function("traced_off", |bench| {
        let skeleton = Skeleton::new(Coordination::stack_stealing_chunked())
            .workers(workers)
            .trace(false);
        bench.iter(|| skeleton.enumerate(&Irregular::new(9, 1)).value)
    });

    group.bench_function("traced_on", |bench| {
        let skeleton = Skeleton::new(Coordination::stack_stealing_chunked())
            .workers(workers)
            .trace(true)
            .trace_capacity(1 << 20);
        bench.iter(|| {
            let value = skeleton.enumerate(&Irregular::new(9, 1)).value;
            // Drain between iterations so the ring never saturates and the
            // measured cost stays the per-event push, not overflow skips.
            let records = skeleton.take_trace();
            assert!(!records.is_empty());
            value
        })
    });
    group.finish();
}

/// The verification facade's zero-overhead claim (PR 9): in the default
/// build `yewpar::sync` re-exports the std atomics, so a hot loop through
/// the facade must cost exactly what the raw primitives cost.  The third
/// arm measures the `yewpar-check` shim's *fallback* path — what a
/// `--features model-check` build pays outside a model run (one enum-tag
/// branch per op); it is informational, not gated.
fn bench_check_shim(c: &mut Criterion) {
    let mut group = c.benchmark_group("components/check_shim");
    group
        .sample_size(60)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    const OPS: u64 = 1024;

    // The gauge/counter idiom the runtime's hot paths actually use:
    // relaxed fetch_add tallies, a fetch_max peak, and a relaxed load.
    macro_rules! gauge_loop {
        ($atomic:expr, $ord:path) => {{
            let counter = $atomic;
            let peak = $atomic;
            let mut acc = 0u64;
            for i in 0..OPS {
                let now = counter.fetch_add(1, $ord) + 1;
                peak.fetch_max(now, $ord);
                if i % 64 == 0 {
                    acc = acc.wrapping_add(counter.load($ord));
                }
            }
            acc
        }};
    }

    group.bench_function("raw_std", |bench| {
        use std::sync::atomic::{AtomicU64, Ordering};
        bench.iter(|| gauge_loop!(AtomicU64::new(0), Ordering::Relaxed))
    });

    group.bench_function("facade_default", |bench| {
        use yewpar::sync::{AtomicU64, Ordering};
        bench.iter(|| gauge_loop!(AtomicU64::new(0), Ordering::Relaxed))
    });

    group.bench_function("shim_fallback", |bench| {
        use std::sync::atomic::Ordering;
        use yewpar_check::sync::AtomicU64;
        bench.iter(|| gauge_loop!(AtomicU64::new(0), Ordering::Relaxed))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_bitset,
    bench_workpool,
    bench_maxclique_components,
    bench_runtime_submission,
    bench_runtime_multiplexing,
    bench_elastic_regrant,
    bench_trace,
    bench_check_shim
);
criterion_main!(benches);
