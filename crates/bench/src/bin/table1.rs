//! Table 1 — YewPar overheads versus hand-written Maximum Clique solvers.
//!
//! The paper's Table 1 compares, on 18 DIMACS instances,
//!
//! 1. a hand-written sequential C++ MaxClique solver against the YewPar
//!    `Sequential` skeleton (cost of the Lazy-Node-Generator abstraction), and
//! 2. a hand-written OpenMP solver (one task per depth-1 node, 15 workers)
//!    against the YewPar `DepthBounded` skeleton (cost of generic parallelism),
//!
//! reporting per-instance slowdowns and geometric means (8.8% sequential,
//! 16.6% parallel in the paper).  This harness reproduces the same comparison
//! with the hand-written Rust solvers of `yewpar_apps::maxclique::baseline`
//! and the 18 synthetic DIMACS-like instances of the registry.
//!
//! Environment variables: `YEWPAR_WORKERS` (default 15), `YEWPAR_REPS`
//! (default 5).

use yewpar::{Coordination, Skeleton};
use yewpar_apps::maxclique::{baseline, MaxClique};
use yewpar_bench::{fmt_secs, geometric_mean, slowdown_pct, time_mean, write_report, TableWriter};
use yewpar_instances::registry;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let workers = env_usize("YEWPAR_WORKERS", 15);
    let reps = env_usize("YEWPAR_REPS", 5).max(1);
    println!(
        "Table 1: YewPar vs hand-written Maximum Clique ({reps} repetitions, {workers} workers)"
    );
    println!();

    let table = TableWriter::new(&[16, 10, 10, 9, 10, 10, 9]);
    println!(
        "{}",
        table.row(&[
            "Instance".into(),
            "Seq hand".into(),
            "Seq YewPar".into(),
            "Slow(%)".into(),
            "Par hand".into(),
            "Par YewPar".into(),
            "Slow(%)".into(),
        ])
    );
    println!("{}", table.separator());

    let mut seq_ratios = Vec::new();
    let mut par_ratios = Vec::new();
    let mut rows = Vec::new();

    for named in registry::table1_clique_instances() {
        let graph = named.graph.clone();
        let problem = MaxClique::new(graph.clone());

        let (hand_seq, t_hand_seq) = time_mean(reps, || baseline::sequential_max_clique(&graph));
        let (skel_seq, t_skel_seq) = time_mean(reps, || {
            Skeleton::new(Coordination::Sequential).maximise(&problem)
        });
        let (hand_par, t_hand_par) = time_mean(reps, || {
            baseline::parallel_max_clique_depth1(&graph, workers)
        });
        let (skel_par, t_skel_par) = time_mean(reps, || {
            Skeleton::new(Coordination::depth_bounded(1))
                .workers(workers)
                .maximise(&problem)
        });

        // All four solvers must agree on the clique number — a correctness
        // gate on the overhead comparison.
        assert_eq!(
            hand_seq.size,
            *skel_seq.try_score().unwrap(),
            "{}: sequential mismatch",
            named.name
        );
        assert_eq!(
            hand_par.size,
            *skel_par.try_score().unwrap(),
            "{}: parallel mismatch",
            named.name
        );

        let seq_slow = slowdown_pct(t_hand_seq, t_skel_seq);
        let par_slow = slowdown_pct(t_hand_par, t_skel_par);
        seq_ratios.push(t_skel_seq / t_hand_seq);
        par_ratios.push(t_skel_par / t_hand_par);

        println!(
            "{}",
            table.row(&[
                named.name.clone(),
                fmt_secs(t_hand_seq),
                fmt_secs(t_skel_seq),
                format!("{seq_slow:+.1}"),
                fmt_secs(t_hand_par),
                fmt_secs(t_skel_par),
                format!("{par_slow:+.1}"),
            ])
        );
        rows.push(serde_json::json!({
            "instance": named.name,
            "clique_number": hand_seq.size,
            "seq_hand_s": t_hand_seq,
            "seq_yewpar_s": t_skel_seq,
            "seq_slowdown_pct": seq_slow,
            "par_hand_s": t_hand_par,
            "par_yewpar_s": t_skel_par,
            "par_slowdown_pct": par_slow,
        }));
    }

    println!("{}", table.separator());
    let seq_geo = (geometric_mean(&seq_ratios) - 1.0) * 100.0;
    let par_geo = (geometric_mean(&par_ratios) - 1.0) * 100.0;
    println!(
        "{}",
        table.row(&[
            "Geo. mean".into(),
            "".into(),
            "".into(),
            format!("{seq_geo:+.1}"),
            "".into(),
            "".into(),
            format!("{par_geo:+.1}"),
        ])
    );
    println!();
    println!("Paper reference: geometric-mean sequential slowdown 8.8%, parallel slowdown 16.6%.");

    let report = serde_json::json!({
        "experiment": "table1",
        "workers": workers,
        "repetitions": reps,
        "rows": rows,
        "geomean_seq_slowdown_pct": seq_geo,
        "geomean_par_slowdown_pct": par_geo,
    });
    write_report("table1.json", &report);
}
