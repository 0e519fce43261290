//! Figure 4 — k-clique scaling on a simulated cluster.
//!
//! The paper's Figure 4 plots runtime and relative speedup of three parallel
//! skeletons (Depth-Bounded d=2, Stack-Stealing chunked, Budget 10^7) for a
//! hard k-clique decision instance on 1–17 localities × 15 workers (up to 255
//! workers).  This harness reproduces both panels on the discrete-event
//! cluster simulator: the workload is the k-clique decision search with
//! `k = ω + 1` on the registry's `spreads_H(4,4)` stand-in (an exhaustive
//! unsatisfiability proof, giving a deterministic, large, prunable search),
//! and "runtime" is virtual makespan.  The series are also written to
//! `results/fig4.json`.

use yewpar::{Coordination, Skeleton};
use yewpar_apps::kclique::KClique;
use yewpar_apps::maxclique::MaxClique;
use yewpar_bench::{fmt_ticks, write_report, TableWriter};
use yewpar_instances::registry;
use yewpar_sim::{simulate_decide, SimConfig};

/// The Budget skeleton's backtrack budget.  The paper uses 10^7 backtracks
/// on an instance of ~10^10 nodes; the registry stand-in is roughly five
/// orders of magnitude smaller, so the budget is scaled down accordingly.
const BUDGET: u64 = 200;

fn main() {
    let named = registry::fig4_kclique_instance();
    let graph = named.graph.clone();

    // Establish the clique number so the decision bound k = ω + 1 makes the
    // instance an exhaustive proof (the hard, deterministic case).
    let omega = *Skeleton::new(Coordination::Sequential)
        .maximise(&MaxClique::new(graph.clone()))
        .try_score()
        .unwrap();
    let k = omega + 1;
    println!(
        "Figure 4: k-clique scaling on instance {} (|V|={}, ω={omega}, deciding k={k})",
        named.name,
        graph.order()
    );
    println!("Simulated cluster: localities × 15 workers, virtual-time makespans.");
    println!();

    let localities = [1usize, 2, 4, 8, 16, 17];
    let skeletons: Vec<(String, Coordination)> = vec![
        (
            "Depth-Bounded (d=2)".to_string(),
            Coordination::depth_bounded(2),
        ),
        (
            "Stack-Stealing (chunked)".to_string(),
            Coordination::stack_stealing_chunked(),
        ),
        (format!("Budget (b={BUDGET})"), Coordination::budget(BUDGET)),
    ];

    let mut results = Vec::new();
    let table = TableWriter::new(&[26, 11, 12, 12, 10, 10]);
    println!(
        "{}",
        table.row(&[
            "Skeleton".into(),
            "Localities".into(),
            "Workers".into(),
            "Makespan".into(),
            "Speedup".into(),
            "Nodes".into(),
        ])
    );
    println!("{}", table.separator());

    for (label, coord) in &skeletons {
        let problem = KClique::new(graph.clone(), k);
        let mut base_makespan = None;
        for &loc in &localities {
            let cfg = SimConfig::new(*coord, loc, 15);
            let out = simulate_decide(&problem, &cfg);
            assert!(out.result.is_none(), "k = ω + 1 must be unsatisfiable");
            let base = *base_makespan.get_or_insert(out.makespan);
            let speedup = base as f64 / out.makespan as f64;
            println!(
                "{}",
                table.row(&[
                    label.to_string(),
                    loc.to_string(),
                    (loc * 15).to_string(),
                    fmt_ticks(out.makespan),
                    format!("{speedup:.2}x"),
                    out.nodes.to_string(),
                ])
            );
            results.push(serde_json::json!({
                "skeleton": label,
                "localities": loc,
                "workers": loc * 15,
                "makespan_ticks": out.makespan,
                "speedup_vs_1_locality": speedup,
                "nodes": out.nodes,
                "steals": out.steals,
                "spawns": out.spawns,
                "efficiency": out.efficiency(),
            }));
        }
        println!("{}", table.separator());
    }

    println!();
    println!("Paper reference (Fig 4): all three skeletons scale to 17 localities,");
    println!("with Depth-Bounded and Budget achieving the best absolute runtimes and");
    println!("relative speedups of roughly 8–13x on 17 localities vs 1 locality.");

    let report = serde_json::json!({
        "experiment": "fig4",
        "instance": named.name,
        "omega": omega,
        "decision_k": k,
        "series": results,
    });
    write_report("fig4.json", &report);
}
