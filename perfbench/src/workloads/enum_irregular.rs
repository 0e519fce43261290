//! `enum_irregular`: one large enumeration of `Irregular`.
//!
//! Nodes cost tens of nanoseconds and the node count is fixed, so the time
//! a coordination adds over Sequential is the coordination layers' own:
//! skeleton driver, generator stack, workpool, steals, termination and
//! lifecycle polls.

use yewpar_apps::irregular::Irregular;

use super::{
    coordinations, report_end_to_end, report_threaded_layers, report_workpool_probes, run_matrix,
    skeleton, Args, Pass, WORKERS,
};
use crate::probes::{dfs_nodes, measure, median_secs, SetupTimer, Spans};
use crate::report::Report;
use crate::stats::SeedStream;

/// Tree depth: 3,365,167 nodes, about 0.1 s for Sequential on the two-core
/// machine this was sized on.  That is long against a solve's fixed costs
/// (thread start, under 0.1 ms) and short enough for about fifty samples
/// per coordination in a run, which steadies the medians and the p99.
pub const DEPTH: usize = 17;

/// Set-up samples taken after each measurement cycle.
const SETUP_REPS: usize = 5;

/// The instance for `seed`.
pub fn instance(seed: u64) -> Irregular {
    Irregular::new(DEPTH, SeedStream::new(seed).irregular_seed())
}

pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) {
    let problem = instance(args.seed);
    // The reference count, outside set-up: the plain recursive traversal.
    let (expected, dfs_s) = measure(1, || dfs_nodes(&problem));
    let coords = coordinations(&problem, WORKERS, expected);

    let instances = [(problem, coords)];
    let solve = |skel: &yewpar::Skeleton, p: &Irregular| {
        let out = skel.enumerate(p);
        (out.value.0 == expected, out.status, out.metrics)
    };

    if !args.trace {
        // Set-up: generate the instance and configure its five skeletons.
        let mut setup = SetupTimer::new(1);
        let mut sample = || {
            setup.sample(SETUP_REPS, || {
                (
                    instance(args.seed),
                    coords.map(|c| skeleton(c, WORKERS, false)),
                )
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
    report.set(
        "instances.gen_s",
        median_secs(1000, 21, || instance(args.seed)),
    );
    spans.close(span);
    report.set("apps.baseline_s", dfs_s);
    report.set("apps.ns_per_node", dfs_s * 1e9 / expected as f64);
    report.set("skeleton.tax", timed.solve_s(0) / dfs_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_the_labels_but_not_the_size() {
        use yewpar::SearchProblem;
        let (a, b) = (instance(1), instance(2));
        assert_ne!(a.root(), b.root());
        let (a, b) = (
            Irregular::new(10, a.root().1),
            Irregular::new(10, b.root().1),
        );
        assert_eq!(dfs_nodes(&a), dfs_nodes(&b));
    }
}
