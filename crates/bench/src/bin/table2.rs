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
//! the Ordered (replicable) coordination, whose spawn depth plays the same
//! role as the Depth-Bounded cutoff.
//!
//! Two filters select part of the table; both are comma-separated and
//! case-insensitive, and an unknown name exits with status 2 and the list
//! of known names, so a typo cannot pass as an empty table:
//!
//! * `YEWPAR_T2_APPS` — application names (e.g. `YEWPAR_T2_APPS=Irregular`
//!   runs only the synthetic Irregular tree, the quick baseline recorded in
//!   `BENCH_0.json` / `BENCH_1.json` / `BENCH_2.json`);
//! * `--coordination <name>[,<name>…]` — skeleton names (e.g.
//!   `--coordination ordered` is the CI smoke invocation).
//!
//! The table is also written to `results/table2.json`.

use std::collections::BTreeMap;

use yewpar::Coordination;
use yewpar_apps::irregular::Irregular;
use yewpar_apps::knapsack::Knapsack;
use yewpar_apps::maxclique::MaxClique;
use yewpar_apps::semigroups::Semigroups;
use yewpar_apps::sip::Sip;
use yewpar_apps::tsp::Tsp;
use yewpar_apps::uts::Uts;
use yewpar_bench::{geometric_mean, write_report, TableWriter};
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

/// Simulated cluster shape: the paper's 8 localities × 15 workers.
const LOCALITIES: usize = 8;
const WORKERS_PER_LOCALITY: usize = 15;

/// Builds one application's instances.
type Workloads = fn() -> Vec<Workload>;

/// The applications in table order, each with its instance builder.
const APPLICATIONS: [(&str, Workloads); 7] = [
    ("MaxClique", clique_workloads),
    ("TSP", tsp_workloads),
    ("Knapsack", knapsack_workloads),
    ("SIP", sip_workloads),
    ("NS", semigroup_workloads),
    ("UTS", uts_workloads),
    ("Irregular", irregular_workloads),
];

/// The swept coordinations in table order.
const COORDINATIONS: [&str; 4] = ["Depth-Bounded", "Stack-Stealing", "Budget", "Ordered"];

/// The names in `known` that a comma-separated, case-insensitive `filter`
/// selects, in `known`'s order (all of them without a filter).  An unknown
/// name is an error that lists the known names: CI relies on its filtered
/// invocations actually running work.
fn select<'a>(what: &str, filter: Option<&str>, known: &[&'a str]) -> Result<Vec<&'a str>, String> {
    let Some(filter) = filter else {
        return Ok(known.to_vec());
    };
    let wanted: Vec<String> = filter
        .split(',')
        .map(|s| s.trim().to_ascii_lowercase())
        .collect();
    if let Some(w) = wanted
        .iter()
        .find(|w| !known.iter().any(|name| name.to_ascii_lowercase() == **w))
    {
        let names: Vec<String> = known.iter().map(|n| n.to_ascii_lowercase()).collect();
        return Err(format!(
            "unknown {what} {w:?}; expected one of: {}",
            names.join(", ")
        ));
    }
    Ok(known
        .iter()
        .copied()
        .filter(|name| wanted.contains(&name.to_ascii_lowercase()))
        .collect())
}

/// The value of `--coordination`, the only command-line argument; any
/// other argument is an error.
fn coordination_arg(mut args: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    let mut value = None;
    while let Some(arg) = args.next() {
        if arg != "--coordination" {
            return Err(format!(
                "unknown argument {arg:?}; usage: table2 [--coordination <name>[,<name>...]]"
            ));
        }
        let v = args
            .next()
            .ok_or("--coordination requires a value (e.g. `--coordination ordered`)")?;
        value = Some(v);
    }
    Ok(value)
}

/// Report a bad filter or argument and exit with status 2.
fn usage_error(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let workers = LOCALITIES * WORKERS_PER_LOCALITY;
    let coordination =
        coordination_arg(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(e));
    let coordinations = select("--coordination", coordination.as_deref(), &COORDINATIONS)
        .unwrap_or_else(|e| usage_error(e));
    let app_names = APPLICATIONS.map(|(name, _)| name);
    let app_filter = std::env::var("YEWPAR_T2_APPS").ok();
    let apps = select("YEWPAR_T2_APPS", app_filter.as_deref(), &app_names)
        .unwrap_or_else(|e| usage_error(e));
    println!("Table 2: alternate application parallelisations — mean speedup on {workers} simulated workers");
    println!("({LOCALITIES} localities x {WORKERS_PER_LOCALITY} workers; speedup vs the simulated Sequential skeleton)");
    println!();

    let applications: Vec<(&str, Vec<Workload>)> = APPLICATIONS
        .into_iter()
        .filter(|(name, _)| apps.contains(name))
        .map(|(name, build)| (name, build()))
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

    for (app, workloads) in &applications {
        // Sequential virtual baselines, one per instance.
        let seq_cfg = SimConfig::new(Coordination::Sequential, 1, 1);
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
            for (w, &baseline) in workloads.iter().zip(&baselines) {
                let speedups: Vec<f64> = params
                    .iter()
                    .map(|(_, coord)| {
                        let cfg = SimConfig::new(*coord, LOCALITIES, WORKERS_PER_LOCALITY);
                        let stats = (w.run)(&cfg);
                        speculative_nodes += stats.speculative_nodes;
                        cancelled_tasks += stats.cancelled_tasks;
                        lock_acquisitions += stats.lock_acquisitions;
                        batch_pushes += stats.batch_pushes;
                        poll_checks += stats.poll_checks;
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
            }));
        }
        println!("{}", table.separator());
    }

    for coord_name in &coordinations {
        let (worst, random, best) = &all_speedups[coord_name];
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

    let report = serde_json::json!({
        "experiment": "table2",
        "workers": workers,
        "rows": report_rows,
    });
    write_report("table2.json", &report);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn filters_select_case_insensitively_in_table_order() {
        let apps = APPLICATIONS.map(|(name, _)| name);
        assert_eq!(select("apps", None, &apps).unwrap(), apps);
        assert_eq!(
            select("apps", Some(" irregular , NS"), &apps).unwrap(),
            ["NS", "Irregular"]
        );
        assert_eq!(
            select("--coordination", Some("ordered"), &COORDINATIONS).unwrap(),
            ["Ordered"]
        );
    }

    #[test]
    fn an_unknown_filter_name_is_an_error_listing_the_known_names() {
        let apps = APPLICATIONS.map(|(name, _)| name);
        let err = select("YEWPAR_T2_APPS", Some("Irregular,NoSuchApp"), &apps).unwrap_err();
        assert!(err.contains("\"nosuchapp\""), "{err}");
        assert!(
            err.contains("maxclique, tsp, knapsack, sip, ns, uts, irregular"),
            "{err}"
        );
        assert!(select("--coordination", Some("orderd"), &COORDINATIONS).is_err());
    }

    #[test]
    fn coordination_is_the_only_argument() {
        assert_eq!(coordination_arg(args(&[])), Ok(None));
        assert_eq!(
            coordination_arg(args(&["--coordination", "ordered"])),
            Ok(Some("ordered".to_string()))
        );
        assert!(coordination_arg(args(&["--coordination"])).is_err());
        assert!(coordination_arg(args(&["--deadline-ms", "5"])).is_err());
    }
}
