//! `optim_clique`: Maximum Clique branch and bound over a seeded family of
//! `p_hat_like` graphs.
//!
//! Nodes cost about a microsecond (bitset colouring), so the application
//! kernel dominates; it adds what `enum_irregular` lacks: pruning, the
//! shared incumbent, and node-count inflation.  The search cost of one
//! random graph varies between seeds (node-count CV 14% here, 32% with the
//! wider `p_hat` range 0.25-0.75), so a run solves a family of graphs and
//! reports sums over it, which vary far less between seeds.

use yewpar::Skeleton;
use yewpar_apps::maxclique::{baseline, MaxClique};
use yewpar_instances::{graph, Graph};

use super::{
    coordinations, report_end_to_end, report_threaded_layers, report_workpool_probes, run_matrix,
    skeleton, Args, Pass, WORKERS,
};
use crate::probes::{dfs_maximise, measure, median_secs, SetupTimer, Spans};
use crate::report::Report;
use crate::stats::SeedStream;

/// Graphs per family.
pub const FAMILY: usize = 16;
/// Order and per-vertex edge-probability range of each graph.
pub const ORDER: usize = 260;
const DENSITY: (f64, f64) = (0.5, 0.6);
/// Set-up samples taken after each measurement cycle.
const SETUP_REPS: usize = 2;

/// The graph family for `seed`.
pub fn family(seed: u64) -> Vec<Graph> {
    let mut seeds = SeedStream::new(seed);
    (0..FAMILY)
        .map(|_| graph::p_hat_like(ORDER, DENSITY.0, DENSITY.1, seeds.next_u64()))
        .collect()
}

pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) {
    let problems: Vec<MaxClique> = family(args.seed).into_iter().map(MaxClique::new).collect();

    // References, outside set-up: the hand-written solver's optimum for
    // each graph, and the benchmark's own search for its node count.
    let (optima, baseline_s) = measure(1, || {
        let optima: Vec<u32> = problems
            .iter()
            .map(|p| baseline::sequential_max_clique(p.graph()).size)
            .collect();
        optima
    });
    let instances: Vec<(usize, _)> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let (best, nodes) = dfs_maximise(p, None);
            report.check(
                best == optima[i],
                format!("hand-written search on graph {i}"),
            );
            (i, coordinations(p, WORKERS, nodes))
        })
        .collect();

    let solve = |skel: &Skeleton, i: &usize| {
        let out = skel.maximise(&problems[*i]);
        let ok = out.best.as_ref().is_some_and(|(node, score)| {
            *score == optima[*i] && node.size == *score && problems[*i].verify(node)
        });
        (ok, out.status, out.metrics)
    };
    if !args.trace {
        // Set-up: generate the family and configure each graph's skeletons.
        let mut setup = SetupTimer::new(1);
        let mut sample = || {
            setup.sample(SETUP_REPS, || {
                let problems: Vec<MaxClique> =
                    family(args.seed).into_iter().map(MaxClique::new).collect();
                let skeletons: Vec<_> = instances
                    .iter()
                    .map(|(_, coords)| coords.map(|c| skeleton(c, WORKERS, false)))
                    .collect();
                (problems, skeletons)
            })
        };
        let [timed] = run_matrix(
            &instances,
            [Pass::Timed],
            args.seconds,
            report,
            spans,
            solve,
            &mut sample,
        );
        report_end_to_end(report, &timed.end_to_end(setup.median()));
        return;
    }
    let passes = [Pass::Timed, Pass::OneWorker, Pass::Traced];
    let [timed, one, traced] = run_matrix(
        &instances,
        passes,
        args.seconds,
        report,
        spans,
        solve,
        &mut || (),
    );
    report_threaded_layers(report, &timed, &one, &traced);
    report_workpool_probes(report);
    let span = spans.open("setup", None);
    report.set("instances.gen_s", median_secs(1, 5, || family(args.seed)));
    spans.close(span);
    report.set("apps.baseline_s", baseline_s);
    let (dfs_nodes, dfs_s) = measure(1, || {
        problems
            .iter()
            .map(|p| dfs_maximise(p, None).1)
            .sum::<u64>()
    });
    report.set("apps.ns_per_node", dfs_s * 1e9 / dfs_nodes as f64);
    report.set("skeleton.tax", timed.solve_s(0) / baseline_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_give_different_families() {
        let (a, b) = (family(1), family(2));
        assert_eq!(a.len(), FAMILY);
        assert_ne!(a[0].to_dimacs(), b[0].to_dimacs());
        assert_eq!(a[0].to_dimacs(), family(1)[0].to_dimacs());
    }
}
