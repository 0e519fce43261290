//! Table 2 — comparing 18 alternate application parallelisations.
//!
//! The paper's Table 2 reports, for six applications (MaxClique, TSP,
//! Knapsack, SIP, NS, UTS) and the three parallel coordinations, the
//! geometric-mean speedup on 120 workers over ~20 instances per application,
//! where the skeleton parameters (dcutoff, backtrack budget) are chosen
//! worst / at random / best from a parameter sweep.
//!
//! This harness reproduces the table on the simulated cluster (8 localities ×
//! 15 workers = 120 workers): every (application, instance, coordination,
//! parameter) combination is simulated, speedups are taken against the
//! simulated Sequential skeleton, and the worst/random/best aggregation
//! follows the paper.
//!
//! Beyond the paper's three parallel coordinations the harness also sweeps
//! the Ordered (replicable) coordination added in PR 2, whose spawn depth
//! plays the same role as the Depth-Bounded cutoff.
//!
//! Environment variables and flags:
//!
//! * `YEWPAR_T2_LOCALITIES` (default 8) — simulated localities;
//! * `YEWPAR_T2_APPS` — comma-separated filter of application names
//!   (e.g. `YEWPAR_T2_APPS=Irregular` runs only the synthetic Irregular
//!   tree, the quick baseline recorded in `BENCH_0.json` / `BENCH_1.json` /
//!   `BENCH_2.json`);
//! * `--coordination <name>[,<name>…]` — filter of skeleton names
//!   (e.g. `--coordination ordered` is the CI smoke invocation);
//! * `--deadline-ms <n>` — anytime smoke: give every simulated run a
//!   virtual deadline of `n` milliseconds (1 ms = 100 000 ticks under the
//!   default cost model, ~1 µs per expanded node).  Runs that hit it
//!   report `SearchStatus::DeadlineExceeded` and partial work; the table
//!   then measures *truncated* speedups and the JSON report counts the
//!   deadline-exceeded runs per row.  This exercises the same
//!   `deadline_ticks` plumbing end-to-end that the threaded engine's
//!   `SearchConfig::deadline` uses per wall-clock.
//! * `--concurrent <n>` — multiplexed-scheduler smoke: runs `n` copies of
//!   the Irregular enumeration through (a) the *virtual-time* multiplexed
//!   scheduler mirror (`simulate_multiplexed`) under both `Fifo` and
//!   `FairShare`, reporting per-search granted workers, queue-wait ticks
//!   and finish times, and (b) the *threaded* `Runtime` under `FairShare`,
//!   asserting disjoint worker leases and reporting dispatcher-recorded
//!   queue waits.  The JSON report gains a `concurrent` section (recorded
//!   in `BENCH_4.json`).
//! * `--elastic` — elastic-scheduling smoke: a `DeadlineShare` demo in
//!   both clocks.  Virtual time asserts *to the tick* that an Urgent
//!   arrival against a saturating Low-priority background is admitted
//!   exactly one revocation-latency bound after it arrives; the threaded
//!   runtime asserts the ordering (the urgent search completes while the
//!   background is still running).  The JSON report gains an `elastic`
//!   section (recorded in `BENCH_7.json`).
//! * `--trace-dir <dir>` — flight-recorder smoke: records two traced
//!   Irregular runs (a threaded stack-stealing search and its virtual-time
//!   mirror), exports each as canonical JSONL plus a Chrome-trace file under
//!   `dir`, runs the search-anomaly analyzer on every trace, and adds a
//!   `trace` section to the JSON report.

use std::collections::BTreeMap;

use yewpar::Coordination;
use yewpar_apps::irregular::Irregular;
use yewpar_apps::knapsack::Knapsack;
use yewpar_apps::maxclique::MaxClique;
use yewpar_apps::semigroups::Semigroups;
use yewpar_apps::sip::Sip;
use yewpar_apps::tsp::Tsp;
use yewpar_apps::uts::Uts;
use yewpar_bench::{geometric_mean, TableWriter};
use yewpar_instances::registry;
use yewpar_sim::{simulate_decide, simulate_enumerate, simulate_maximise, SimConfig, SimOutcome};

/// What one simulated run reports back to the table: the virtual makespan
/// plus the Ordered coordination's speculation accounting (zero for every
/// other coordination).
#[derive(Debug, Clone, Copy)]
struct RunStats {
    makespan: u64,
    speculative_nodes: u64,
    cancelled_tasks: u64,
    lock_acquisitions: u64,
    batch_pushes: u64,
    poll_checks: u64,
    deadline_exceeded: bool,
}

impl RunStats {
    fn of<R>(out: SimOutcome<R>) -> RunStats {
        RunStats {
            makespan: out.makespan,
            speculative_nodes: out.speculative_nodes,
            cancelled_tasks: out.cancelled_tasks,
            lock_acquisitions: out.lock_acquisitions,
            batch_pushes: out.batch_pushes,
            poll_checks: out.poll_checks,
            deadline_exceeded: !out.status.is_complete(),
        }
    }
}

/// A named instance reduced to "run this search under this config and give
/// me the stats".
struct Workload {
    name: String,
    run: Box<dyn Fn(&SimConfig) -> RunStats>,
}

fn clique_workloads() -> Vec<Workload> {
    registry::table2_clique_instances()
        .into_iter()
        .map(|named| {
            let problem = MaxClique::new(named.graph);
            Workload {
                name: named.name,
                run: Box::new(move |cfg| RunStats::of(simulate_maximise(&problem, cfg))),
            }
        })
        .collect()
}

fn tsp_workloads() -> Vec<Workload> {
    registry::table2_tsp_instances()
        .into_iter()
        .map(|(name, inst)| {
            let problem = Tsp::new(inst);
            Workload {
                name,
                run: Box::new(move |cfg| RunStats::of(simulate_maximise(&problem, cfg))),
            }
        })
        .collect()
}

fn knapsack_workloads() -> Vec<Workload> {
    registry::table2_knapsack_instances()
        .into_iter()
        .map(|(name, inst)| {
            let problem = Knapsack::new(inst);
            Workload {
                name,
                run: Box::new(move |cfg| RunStats::of(simulate_maximise(&problem, cfg))),
            }
        })
        .collect()
}

fn sip_workloads() -> Vec<Workload> {
    registry::table2_sip_instances()
        .into_iter()
        .map(|(name, inst)| {
            let problem = Sip::new(inst);
            Workload {
                name,
                run: Box::new(move |cfg| RunStats::of(simulate_decide(&problem, cfg))),
            }
        })
        .collect()
}

fn semigroup_workloads() -> Vec<Workload> {
    [15u32, 16]
        .into_iter()
        .map(|genus| {
            let problem = Semigroups::new(genus);
            Workload {
                name: format!("ns-genus-{genus}"),
                run: Box::new(move |cfg| RunStats::of(simulate_enumerate(&problem, cfg))),
            }
        })
        .collect()
}

fn uts_workloads() -> Vec<Workload> {
    use yewpar_apps::uts::UtsShape;
    vec![
        {
            let problem = Uts::new(
                UtsShape::Geometric {
                    b0: 5.0,
                    max_depth: 11,
                },
                11,
            );
            Workload {
                name: "uts-geo-11".into(),
                run: Box::new(move |cfg| RunStats::of(simulate_enumerate(&problem, cfg))),
            }
        },
        {
            let problem = Uts::new(
                UtsShape::Binomial {
                    b0: 400,
                    q: 0.22,
                    m: 4,
                    max_depth: 2000,
                },
                17,
            );
            Workload {
                name: "uts-bin-17".into(),
                run: Box::new(move |cfg| RunStats::of(simulate_enumerate(&problem, cfg))),
            }
        },
    ]
}

fn irregular_workloads() -> Vec<Workload> {
    let mut workloads: Vec<Workload> = [(12usize, 1u64), (13, 7)]
        .into_iter()
        .map(|(depth, seed)| {
            let problem = Irregular::new(depth, seed);
            Workload {
                name: format!("irregular-d{depth}-s{seed}"),
                run: Box::new(move |cfg| RunStats::of(simulate_enumerate(&problem, cfg))),
            }
        })
        .collect();
    // Decision variants of the same family (target 990 over `state % 1000`,
    // node-level pruning only): the quick replicable decision workload with
    // Ordered speculation to cancel.
    workloads.extend([(12usize, 1u64), (13, 7)].into_iter().map(|(depth, seed)| {
        let problem = Irregular::new(depth, seed);
        Workload {
            name: format!("irregular-decide-d{depth}-s{seed}"),
            run: Box::new(move |cfg| RunStats::of(simulate_decide(&problem, cfg))),
        }
    }));
    workloads
}

/// The parameterised coordinations swept by the experiment.
fn sweep(coordination: &str) -> Vec<(String, Coordination)> {
    match coordination {
        "Depth-Bounded" => [1usize, 2, 4, 6]
            .iter()
            .map(|&d| (format!("d={d}"), Coordination::depth_bounded(d)))
            .collect(),
        "Stack-Stealing" => vec![
            ("single".into(), Coordination::stack_stealing()),
            ("chunked".into(), Coordination::stack_stealing_chunked()),
        ],
        "Budget" => [10u64, 100, 1_000, 10_000]
            .iter()
            .map(|&b| (format!("b={b}"), Coordination::budget(b)))
            .collect(),
        "Ordered" => [1usize, 2, 4, 6]
            .iter()
            .map(|&d| (format!("d={d}"), Coordination::ordered(d)))
            .collect(),
        _ => unreachable!(),
    }
}

/// Parse `--coordination <name>[,<name>…]` (case-insensitive, accepts both
/// "ordered" and "Ordered", "depth-bounded" etc.) into a skeleton filter.
fn coordination_filter(args: &[String]) -> Option<Vec<String>> {
    let pos = args.iter().position(|a| a == "--coordination")?;
    let value = args.get(pos + 1).unwrap_or_else(|| {
        eprintln!("--coordination requires a value (e.g. `--coordination ordered`)");
        std::process::exit(2);
    });
    Some(
        value
            .split(',')
            .map(|s| s.trim().to_ascii_lowercase())
            .collect(),
    )
}

/// Parse `--deadline-ms <n>` into a virtual-tick deadline (1 ms =
/// 100 000 ticks: the default cost model charges ~100 ticks ≈ 1 µs per
/// expanded node).
fn deadline_flag(args: &[String]) -> Option<u64> {
    let pos = args.iter().position(|a| a == "--deadline-ms")?;
    let value = args.get(pos + 1).unwrap_or_else(|| {
        eprintln!("--deadline-ms requires a value (e.g. `--deadline-ms 50`)");
        std::process::exit(2);
    });
    match value.parse::<u64>() {
        Ok(ms) => Some(ms.saturating_mul(100_000)),
        Err(_) => {
            eprintln!("--deadline-ms expects an integer millisecond count, got {value:?}");
            std::process::exit(2);
        }
    }
}

/// Parse `--concurrent <n>` into a concurrent-submission count.
fn concurrent_flag(args: &[String]) -> Option<usize> {
    let pos = args.iter().position(|a| a == "--concurrent")?;
    let value = args.get(pos + 1).unwrap_or_else(|| {
        eprintln!("--concurrent requires a value (e.g. `--concurrent 4`)");
        std::process::exit(2);
    });
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => {
            eprintln!("--concurrent expects a positive integer, got {value:?}");
            std::process::exit(2);
        }
    }
}

/// Parse `--trace-dir <path>`: where the flight-recorder smoke drops its
/// exported traces.
/// Parse `--elastic` (no value): run the elastic-scheduling demo.
fn elastic_flag(args: &[String]) -> bool {
    args.iter().any(|a| a == "--elastic")
}

fn trace_dir_flag(args: &[String]) -> Option<std::path::PathBuf> {
    let pos = args.iter().position(|a| a == "--trace-dir")?;
    let value = args.get(pos + 1).unwrap_or_else(|| {
        eprintln!("--trace-dir requires a directory (e.g. `--trace-dir traces`)");
        std::process::exit(2);
    });
    Some(std::path::PathBuf::from(value))
}

/// The `--trace-dir DIR` smoke: flight-recorder end-to-end.  Two traced
/// runs — a threaded stack-stealing Irregular search (nanosecond clock) and
/// its virtual-time simulator mirror — are each exported as canonical JSONL
/// plus a Chrome-trace file under `dir` and fed to the search-anomaly
/// analyzer with the sequential node count as the work-inflation baseline.
fn trace_section(
    dir: &std::path::Path,
    localities: usize,
    workers_per_locality: usize,
) -> serde_json::Value {
    use yewpar::trace::analyze::{analyze, summarize, AnalyzeConfig};
    use yewpar::trace::sink::{write_trace_file, ChromeTraceSink, JsonlSink};
    use yewpar::trace::TraceRecord;
    use yewpar::Skeleton;

    println!();
    println!(
        "Flight-recorder smoke: tracing Irregular (12, 1), exporting to {}",
        dir.display()
    );

    let problem = Irregular::new(12, 1);
    let baseline_nodes =
        simulate_enumerate(&problem, &SimConfig::new(Coordination::Sequential, 1, 1)).nodes;

    // JsonlSink and ChromeTraceSink use different extensions, so one stem
    // yields the `name.jsonl` / `name.json` pair side by side.
    let record = |name: &str, records: Vec<TraceRecord>, dropped: u64| -> serde_json::Value {
        let jsonl = write_trace_file(dir, name, &JsonlSink, &records)
            .unwrap_or_else(|e| panic!("writing {name}.jsonl under {}: {e}", dir.display()));
        let chrome = write_trace_file(dir, name, &ChromeTraceSink, &records)
            .unwrap_or_else(|e| panic!("writing {name}.json under {}: {e}", dir.display()));
        println!("  {name}: {}", summarize(&records));
        let config = AnalyzeConfig {
            baseline_nodes: Some(baseline_nodes),
            ..AnalyzeConfig::default()
        };
        let findings = analyze(&records, &config);
        for f in &findings {
            println!("    finding [{}] {}", f.kind.name(), f.summary);
        }
        if findings.is_empty() {
            println!("    no anomalies flagged");
        }
        serde_json::json!({
            "name": name,
            "events": records.len(),
            "dropped": dropped,
            "jsonl": jsonl.display().to_string(),
            "chrome_trace": chrome.display().to_string(),
            "findings": findings
                .iter()
                .map(|f| {
                    serde_json::json!({
                        "kind": f.kind.name(),
                        "value": f.value,
                        "summary": f.summary.clone(),
                    })
                })
                .collect::<Vec<_>>(),
        })
    };
    let mut runs = Vec::new();

    // ---- Threaded stack-stealing run (real clock) -----------------------
    let skeleton = Skeleton::new(Coordination::stack_stealing_chunked())
        .workers(4)
        .trace(true);
    let outcome = skeleton.enumerate(&problem);
    runs.push(record(
        "threaded_stack_stealing",
        skeleton.take_trace(),
        skeleton.trace_dropped(),
    ));

    // ---- Virtual-time mirror of the same coordination -------------------
    let mut sim_cfg = SimConfig::new(
        Coordination::stack_stealing_chunked(),
        localities,
        workers_per_locality,
    );
    sim_cfg.trace = true;
    let sim_out = simulate_enumerate(&problem, &sim_cfg);
    assert_eq!(
        sim_out.result, outcome.value,
        "sim/threaded result mismatch"
    );
    runs.push(record("sim_stack_stealing", sim_out.trace, 0));

    serde_json::json!({
        "dir": dir.display().to_string(),
        "baseline_nodes": baseline_nodes,
        "runs": runs,
    })
}

/// The `--concurrent N` smoke: schedule `n` identical Irregular
/// enumerations through the virtual-time multiplexed scheduler (both
/// policies) and through the threaded `FairShare` runtime, printing and
/// returning the queue-wait / grant observability the scheduler adds.
fn concurrent_section(n: usize, pool_workers: usize) -> serde_json::Value {
    use yewpar::schedule::{FairShare, Fifo, SchedulePolicy};
    use yewpar::{Runtime, RuntimeConfig, SearchConfig};
    use yewpar_sim::{simulate_multiplexed, SimJob};

    println!();
    println!(
        "Multiplexed scheduling smoke: {n} concurrent Irregular enumerations \
         on a {pool_workers}-worker simulated pool"
    );

    // ---- Virtual-time mirror: deterministic queue waits per policy ------
    let problem = Irregular::new(12, 1);
    let mut sim_sections: Vec<(String, serde_json::Value)> = Vec::new();
    for (name, policy) in [
        ("fifo", &mut Fifo as &mut dyn SchedulePolicy),
        ("fair_share", &mut FairShare as &mut dyn SchedulePolicy),
    ] {
        let jobs: Vec<SimJob<'_, _>> = (0..n)
            .map(|_| {
                SimJob::new(
                    SimConfig::new(Coordination::depth_bounded(2), 1, pool_workers),
                    |granted_cfg: &SimConfig| simulate_enumerate(&problem, granted_cfg),
                )
            })
            .collect();
        let outcomes = simulate_multiplexed(pool_workers, policy, jobs);
        let total_finish = outcomes
            .iter()
            .map(|o| o.queue_wait_ticks + o.makespan)
            .max()
            .unwrap_or(0);
        let max_wait = outcomes
            .iter()
            .map(|o| o.queue_wait_ticks)
            .max()
            .unwrap_or(0);
        println!(
            "  sim {name:<10}: all {n} done at {total_finish} ticks, \
             max queue wait {max_wait} ticks"
        );
        let rows: Vec<serde_json::Value> = outcomes
            .iter()
            .enumerate()
            .map(|(i, out)| {
                serde_json::json!({
                    "job": i,
                    "granted_workers": out.granted_workers,
                    "queue_wait_ticks": out.queue_wait_ticks,
                    "makespan": out.makespan,
                    "finish_at": out.queue_wait_ticks + out.makespan,
                })
            })
            .collect();
        sim_sections.push((
            name.to_string(),
            serde_json::json!({
                "rows": rows,
                "total_finish_ticks": total_finish,
                "max_queue_wait_ticks": max_wait,
            }),
        ));
    }

    // ---- Threaded runtime smoke: FairShare on the persistent pool -------
    let threaded_workers = 4usize;
    let runtime = Runtime::with_policy(
        RuntimeConfig::default().workers(threaded_workers),
        Box::new(FairShare),
    );
    let mut cfg = SearchConfig::new(Coordination::depth_bounded(2));
    cfg.workers = (threaded_workers / n).max(1);
    let reference = {
        let mut solo = cfg.clone();
        solo.workers = 1;
        yewpar::Skeleton::from_config(solo)
            .enumerate(&Irregular::new(10, 1))
            .value
    };
    let handles: Vec<_> = (0..n)
        .map(|_| runtime.enumerate(Irregular::new(10, 1), &cfg))
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let mut threaded_rows = Vec::new();
    for (i, out) in outcomes.iter().enumerate() {
        assert!(out.status.is_complete(), "concurrent search {i} failed");
        assert_eq!(out.value, reference, "concurrent search {i} wrong result");
        // Slots may be *reused* once a search finishes, so the smoke only
        // reports grant/queue-wait observability here; true disjointness of
        // overlapping leases is asserted by tests/multiplexed_runtime.rs
        // under a rendezvous gate.
        threaded_rows.push(serde_json::json!({
            "search_id": out.metrics.search_id,
            "granted_workers": out.metrics.granted_workers,
            "granted_slots": out.metrics.granted_slots.clone(),
            "queue_wait_micros": out.metrics.queue_wait.as_micros() as u64,
            "elapsed_micros": out.metrics.elapsed.as_micros() as u64,
        }));
    }
    let stats = runtime.stats();
    println!(
        "  threaded fair-share: {n} searches on {threaded_workers} workers, \
         peak concurrency {}, total queue wait {:?}",
        stats.peak_active_searches, stats.total_queue_wait
    );

    let threaded = serde_json::json!({
        "pool_workers": threaded_workers,
        "policy": "fair-share",
        "rows": threaded_rows,
        "peak_active_searches": stats.peak_active_searches,
        "total_queue_wait_micros": stats.total_queue_wait.as_micros() as u64,
    });
    serde_json::json!({
        "n": n,
        "pool_workers": pool_workers,
        "sim": serde_json::Value::Object(sim_sections),
        "threaded": threaded,
    })
}

/// The `--elastic` smoke: elastic grants and preemptive scheduling under
/// `DeadlineShare`, in both clocks.
///
/// *Virtual time*: a Low-priority background enumeration saturates the
/// pool; an Urgent job arrives mid-run.  The policy revokes workers
/// cooperatively, and the demo **asserts to the tick** that the urgent
/// job's queue wait equals exactly one revocation-latency bound — not the
/// background's makespan.
///
/// *Threaded*: the same shape on the real `Runtime` (wall clocks make the
/// exact bound unassertable, so the smoke asserts the *ordering*: the
/// urgent job completes while the background is still running).  Recorded
/// in `BENCH_7.json`.
fn elastic_section(pool_workers: usize) -> serde_json::Value {
    use std::time::Duration;
    use yewpar::schedule::{DeadlineShare, Priority};
    use yewpar::{Runtime, RuntimeConfig, SearchConfig, SearchStatus, TraceEvent};
    use yewpar_sim::{simulate_multiplexed_elastic, SimJob};

    println!();
    println!(
        "Elastic scheduling smoke (DeadlineShare): urgent arrival vs a \
         saturating background on a {pool_workers}-worker simulated pool"
    );

    // ---- Virtual-time demo: exact revocation-latency bound --------------
    const REVOCATION_LATENCY: u64 = 500;
    const URGENT_ARRIVES: u64 = 1_000;
    let background_problem = Irregular::new(13, 1);
    let urgent_problem = Irregular::new(10, 7);
    let background = SimJob::new(
        SimConfig::new(Coordination::depth_bounded(2), 1, pool_workers),
        |cfg: &SimConfig| simulate_enumerate(&background_problem, cfg),
    )
    .priority(Priority::Low);
    let urgent = SimJob::new(
        SimConfig::new(Coordination::depth_bounded(2), 1, pool_workers / 2),
        |cfg: &SimConfig| simulate_enumerate(&urgent_problem, cfg),
    )
    .priority(Priority::Urgent)
    .submit_at(URGENT_ARRIVES);
    let mut policy = DeadlineShare;
    let schedule = simulate_multiplexed_elastic(
        pool_workers,
        &mut policy,
        REVOCATION_LATENCY,
        vec![background, urgent],
    );
    let urgent_wait = schedule.outcomes[1].queue_wait_ticks;
    assert_eq!(
        urgent_wait, REVOCATION_LATENCY,
        "the urgent job must start exactly one revocation-latency bound \
         after arriving, not after the background makespan \
         ({} ticks)",
        schedule.outcomes[0].makespan
    );
    let revoked = schedule
        .trace
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::WorkerRevoked { .. }))
        .count();
    let grant_changes = schedule
        .trace
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::GrantGrown { .. } | TraceEvent::GrantShrunk { .. }
            )
        })
        .count();
    println!(
        "  sim deadline-share: urgent queue wait {urgent_wait} ticks == \
         revocation latency ({REVOCATION_LATENCY}); {revoked} workers revoked, \
         {grant_changes} lease changes; background makespan {} ticks",
        schedule.outcomes[0].makespan
    );
    let sim_rows: Vec<serde_json::Value> = schedule
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, out)| {
            serde_json::json!({
                "job": i,
                "priority": if i == 0 { "low" } else { "urgent" },
                "granted_workers": out.granted_workers,
                "queue_wait_ticks": out.queue_wait_ticks,
                "makespan": out.makespan,
                "complete": out.status.is_complete(),
            })
        })
        .collect();

    // ---- Threaded smoke: ordering on the real runtime -------------------
    let threaded_workers = 4usize;
    let runtime = Runtime::with_policy(
        RuntimeConfig::default()
            .workers(threaded_workers)
            .replan_period(Duration::from_millis(1)),
        Box::new(DeadlineShare),
    );
    let mut bg_cfg = SearchConfig::new(Coordination::depth_bounded(3));
    bg_cfg.workers = threaded_workers;
    bg_cfg.priority = Priority::Low;
    bg_cfg.deadline = Some(Duration::from_millis(400));
    // Depth-64 irregular trees never finish: the deadline bounds the demo.
    let bg_handle = runtime.maximise(Irregular::new(64, 1), &bg_cfg);
    std::thread::sleep(Duration::from_millis(20));
    let mut urgent_cfg = SearchConfig::new(Coordination::depth_bounded(2));
    urgent_cfg.workers = threaded_workers / 2;
    urgent_cfg.priority = Priority::High;
    let urgent_out = runtime.enumerate(Irregular::new(9, 7), &urgent_cfg).wait();
    assert!(
        urgent_out.status.is_complete(),
        "the urgent search must complete while the background runs"
    );
    let bg_out = bg_handle.wait();
    assert_eq!(
        bg_out.status,
        SearchStatus::DeadlineExceeded,
        "the background must still have been running when the urgent \
         search finished — DeadlineShare did not reclaim workers"
    );
    let stats = runtime.stats();
    println!(
        "  threaded deadline-share: urgent queue wait {:?} (background ran \
         its full {:?} budget); {} workers revoked, mean revocation latency {:?}",
        urgent_out.metrics.queue_wait,
        bg_cfg.deadline.unwrap(),
        stats.workers_preempted,
        stats
            .revocation_latency
            .checked_div(stats.workers_preempted.max(1) as u32)
            .unwrap_or_default(),
    );

    let sim_report = serde_json::json!({
        "pool_workers": pool_workers,
        "revocation_latency_ticks": REVOCATION_LATENCY,
        "urgent_arrives_at": URGENT_ARRIVES,
        "urgent_queue_wait_ticks": urgent_wait,
        "workers_revoked": revoked,
        "grant_changes": grant_changes,
        "rows": sim_rows,
    });
    let threaded_report = serde_json::json!({
        "pool_workers": threaded_workers,
        "urgent_queue_wait_micros": urgent_out.metrics.queue_wait.as_micros() as u64,
        "urgent_complete": urgent_out.status.is_complete(),
        "background_status": "deadline_exceeded",
        "grant_changes": stats.grant_changes,
        "workers_preempted": stats.workers_preempted,
        "revocation_latency_micros": stats.revocation_latency.as_micros() as u64,
    });
    serde_json::json!({
        "policy": "deadline-share",
        "sim": sim_report,
        "threaded": threaded_report,
    })
}

fn main() {
    let localities: usize = std::env::var("YEWPAR_T2_LOCALITIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let workers_per_locality = 15;
    let workers = localities * workers_per_locality;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let deadline_ticks = deadline_flag(&args);
    let concurrent = concurrent_flag(&args);
    let elastic = elastic_flag(&args);
    let trace_dir = trace_dir_flag(&args);
    println!("Table 2: alternate application parallelisations — mean speedup on {workers} simulated workers");
    println!("({localities} localities x {workers_per_locality} workers; speedup vs the simulated Sequential skeleton)");
    if let Some(ticks) = deadline_ticks {
        println!(
            "(anytime mode: every run carries a virtual deadline of {} ms = {ticks} ticks; \
             speedups below compare *truncated* runs)",
            ticks / 100_000
        );
    }
    println!();

    let app_filter: Option<Vec<String>> = std::env::var("YEWPAR_T2_APPS").ok().map(|v| {
        v.split(',')
            .map(|s| s.trim().to_ascii_lowercase())
            .collect()
    });
    let selected = |name: &str| {
        app_filter
            .as_ref()
            .map(|apps| apps.iter().any(|a| a == &name.to_ascii_lowercase()))
            .unwrap_or(true)
    };
    let applications: Vec<(&str, Vec<Workload>)> = [
        ("MaxClique", clique_workloads as fn() -> Vec<Workload>),
        ("TSP", tsp_workloads),
        ("Knapsack", knapsack_workloads),
        ("SIP", sip_workloads),
        ("NS", semigroup_workloads),
        ("UTS", uts_workloads),
        ("Irregular", irregular_workloads),
    ]
    .into_iter()
    .filter(|(name, _)| selected(name))
    .map(|(name, build)| (name, build()))
    .collect();
    let coord_filter = coordination_filter(&args);
    let known = ["Depth-Bounded", "Stack-Stealing", "Budget", "Ordered"];
    if let Some(wanted) = &coord_filter {
        // A typo'd filter must fail loudly, not print an empty table with
        // exit code 0 — CI relies on this invocation actually running work.
        for w in wanted {
            if !known.iter().any(|name| name.to_ascii_lowercase() == *w) {
                eprintln!(
                    "unknown --coordination {w:?}; expected one of: {}",
                    known.map(|n| n.to_ascii_lowercase()).join(", ")
                );
                std::process::exit(2);
            }
        }
    }
    let coordinations: Vec<&str> = known
        .into_iter()
        .filter(|name| {
            coord_filter
                .as_ref()
                .map(|wanted| wanted.iter().any(|w| w == &name.to_ascii_lowercase()))
                .unwrap_or(true)
        })
        .collect();

    let table = TableWriter::new(&[10, 15, 9, 9, 9]);
    println!(
        "{}",
        table.row(&[
            "App".into(),
            "Skeleton".into(),
            "Worst".into(),
            "Random".into(),
            "Best".into(),
        ])
    );
    println!("{}", table.separator());

    // speedups[coord] accumulates per-instance speedups across all apps for
    // the final "All" rows.
    type SpeedupAgg = (Vec<f64>, Vec<f64>, Vec<f64>);
    let mut all_speedups: BTreeMap<&str, SpeedupAgg> = BTreeMap::new();
    let mut report_rows = Vec::new();
    let mut total_deadline_exceeded: u64 = 0;
    let mut total_runs: u64 = 0;

    for (app, workloads) in &applications {
        // Sequential virtual baselines, one per instance (deadlined too in
        // anytime mode, so the comparison is truncated-vs-truncated).
        let mut seq_cfg = SimConfig::new(Coordination::Sequential, 1, 1);
        seq_cfg.deadline_ticks = deadline_ticks;
        let baselines: Vec<u64> = workloads
            .iter()
            .map(|w| (w.run)(&seq_cfg).makespan)
            .collect();

        for coord_name in &coordinations {
            let params = sweep(coord_name);
            // Per-instance speedups for every parameter choice, plus the
            // Ordered speculation accounting summed over the whole sweep.
            let mut worst = Vec::new();
            let mut random = Vec::new();
            let mut best = Vec::new();
            let mut speculative_nodes: u64 = 0;
            let mut cancelled_tasks: u64 = 0;
            let mut lock_acquisitions: u64 = 0;
            let mut batch_pushes: u64 = 0;
            let mut poll_checks: u64 = 0;
            let mut deadline_exceeded_runs: u64 = 0;
            for (w, &baseline) in workloads.iter().zip(&baselines) {
                let speedups: Vec<f64> = params
                    .iter()
                    .map(|(_, coord)| {
                        let mut cfg = SimConfig::new(*coord, localities, workers_per_locality);
                        cfg.deadline_ticks = deadline_ticks;
                        let stats = (w.run)(&cfg);
                        speculative_nodes += stats.speculative_nodes;
                        cancelled_tasks += stats.cancelled_tasks;
                        lock_acquisitions += stats.lock_acquisitions;
                        batch_pushes += stats.batch_pushes;
                        poll_checks += stats.poll_checks;
                        deadline_exceeded_runs += u64::from(stats.deadline_exceeded);
                        baseline as f64 / stats.makespan.max(1) as f64
                    })
                    .collect();
                let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = speedups.iter().cloned().fold(0.0, f64::max);
                // "Random" parameter choice: deterministic pseudo-random pick
                // based on the instance name so reruns are reproducible.
                let pick = w.name.bytes().map(|b| b as usize).sum::<usize>() % speedups.len();
                worst.push(min);
                random.push(speedups[pick]);
                best.push(max);
            }
            let (w_geo, r_geo, b_geo) = (
                geometric_mean(&worst),
                geometric_mean(&random),
                geometric_mean(&best),
            );
            println!(
                "{}",
                table.row(&[
                    app.to_string(),
                    coord_name.to_string(),
                    format!("{w_geo:.2}"),
                    format!("{r_geo:.2}"),
                    format!("{b_geo:.2}"),
                ])
            );
            let entry = all_speedups.entry(coord_name).or_default();
            entry.0.extend(&worst);
            entry.1.extend(&random);
            entry.2.extend(&best);
            report_rows.push(serde_json::json!({
                "application": app,
                "skeleton": coord_name,
                "worst_speedup": w_geo,
                "random_speedup": r_geo,
                "best_speedup": b_geo,
                "speculative_nodes": speculative_nodes,
                "cancelled_tasks": cancelled_tasks,
                "lock_acquisitions": lock_acquisitions,
                "batch_pushes": batch_pushes,
                "poll_checks": poll_checks,
                "deadline_exceeded_runs": deadline_exceeded_runs,
            }));
            total_deadline_exceeded += deadline_exceeded_runs;
            total_runs += (workloads.len() * params.len()) as u64;
        }
        println!("{}", table.separator());
    }

    for coord_name in &coordinations {
        let Some((worst, random, best)) = all_speedups.get(coord_name) else {
            continue; // An app filter excluded everything.
        };
        println!(
            "{}",
            table.row(&[
                "All".into(),
                coord_name.to_string(),
                format!("{:.2}", geometric_mean(worst)),
                format!("{:.2}", geometric_mean(random)),
                format!("{:.2}", geometric_mean(best)),
            ])
        );
    }

    println!();
    println!("Paper reference (Table 2, 120 workers): no single skeleton wins everywhere;");
    println!("Depth-Bounded is best for MaxClique/TSP, Budget for Knapsack/NS/UTS,");
    println!("Stack-Stealing for SIP; poor parameters can even cause slowdowns (<1x),");
    println!("while Stack-Stealing (parameter-free) varies the least between worst and best.");

    if let Some(ticks) = deadline_ticks {
        println!();
        println!(
            "Anytime smoke: {total_deadline_exceeded} of {total_runs} sweep runs hit the \
             {} ms virtual deadline (status DeadlineExceeded, partial results kept).",
            ticks / 100_000
        );
    }

    let concurrent_report = concurrent
        .map(|n| concurrent_section(n, workers))
        .unwrap_or(serde_json::Value::Null);
    let elastic_report = if elastic {
        elastic_section(workers)
    } else {
        serde_json::Value::Null
    };
    let trace_report = trace_dir
        .as_deref()
        .map(|dir| trace_section(dir, localities, workers_per_locality))
        .unwrap_or(serde_json::Value::Null);

    let report = serde_json::json!({
        "experiment": "table2",
        "workers": workers,
        "deadline_ticks": deadline_ticks.map(serde_json::Value::from).unwrap_or(serde_json::Value::Null),
        "deadline_exceeded_runs": total_deadline_exceeded,
        "rows": report_rows,
        "concurrent": concurrent_report,
        "elastic": elastic_report,
        "trace": trace_report,
    });
    write_report("table2.json", &report);
}

fn write_report(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(name);
        if std::fs::write(&path, serde_json::to_string_pretty(value).unwrap()).is_ok() {
            println!("(wrote {})", path.display());
        }
    }
}
