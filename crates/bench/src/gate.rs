//! The CI performance gate: a deterministic, fast subset of the Table 2
//! experiment whose results are compared against a committed baseline
//! (`BENCH_BASELINE.json` at the repository root) so hot-path regressions
//! fail the build instead of silently eroding the recorded speedups.
//!
//! The gate recomputes the *worst-case* speedup column of the Irregular
//! rows — the metric the perf-focused PRs optimise and the hardest one to
//! improve, since it is the geometric mean over every instance of the
//! *least favourable* skeleton parameter.  Everything runs on the virtual
//! cost model, so the numbers are bit-for-bit reproducible on any machine:
//! a gate failure is a real algorithmic regression, never CI noise.

use yewpar::schedule::Fifo;
use yewpar::Coordination;
use yewpar_apps::irregular::Irregular;
use yewpar_sim::{simulate_decide, simulate_enumerate, simulate_multiplexed, SimConfig, SimJob};

use crate::geometric_mean;

/// Measured speedups below `baseline × TOLERANCE` fail the gate: a >15%
/// regression of any worst-case row is an error.  The virtual cost model is
/// deterministic, so the slack exists only to let genuinely neutral
/// refactors (which can still perturb victim-selection RNG streams and move
/// a row by a few percent) land without a baseline refresh.
pub const TOLERANCE: f64 = 0.85;

/// One gated metric: a skeleton's worst-case Irregular speedup on the
/// simulated 120-worker cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Skeleton (coordination) name as printed by the Table 2 harness.
    pub skeleton: String,
    /// Geometric mean over the Irregular instances of the speedup under the
    /// least favourable parameter in the sweep.
    pub worst_speedup: f64,
}

/// The Irregular instances the gate sweeps: enumeration and decision
/// searches over the `(depth, seed)` pairs recorded in `BENCH_0.json`
/// onwards.  Each returns `(sequential_makespan, parallel_makespan)` for a
/// given coordination.
fn instance_makespans(
    cfg_of: impl Fn(Coordination) -> SimConfig,
    coord: &Coordination,
) -> Vec<f64> {
    let mut speedups = Vec::new();
    for (depth, seed) in [(12usize, 1u64), (13, 7)] {
        let problem = Irregular::new(depth, seed);
        let seq_cfg = SimConfig::new(Coordination::Sequential, 1, 1);
        let seq_enum = simulate_enumerate(&problem, &seq_cfg).makespan as f64;
        let seq_decide = simulate_decide(&problem, &seq_cfg).makespan as f64;
        let par = cfg_of(*coord);
        let par_enum = simulate_enumerate(&problem, &par).makespan as f64;
        let par_decide = simulate_decide(&problem, &par).makespan as f64;
        speedups.push(seq_enum / par_enum);
        speedups.push(seq_decide / par_decide);
    }
    speedups
}

/// Recompute the gated rows: for each parallel coordination, sweep its
/// Table 2 parameter grid over the Irregular instances and take the
/// geometric mean of each instance's worst parameter.  `localities` and
/// `workers_per_locality` match the Table 2 cluster shape (8 × 15 for the
/// recorded baselines).
pub fn irregular_worst_speedups(localities: usize, workers_per_locality: usize) -> Vec<GateRow> {
    let cfg_of = |coord: Coordination| SimConfig::new(coord, localities, workers_per_locality);
    let sweeps: Vec<(&str, Vec<Coordination>)> = vec![
        (
            "Depth-Bounded",
            [1usize, 2, 4, 6]
                .iter()
                .map(|&d| Coordination::depth_bounded(d))
                .collect(),
        ),
        (
            "Stack-Stealing",
            vec![
                Coordination::stack_stealing(),
                Coordination::stack_stealing_chunked(),
            ],
        ),
        (
            "Budget",
            [10u64, 100, 1000, 10000]
                .iter()
                .map(|&b| Coordination::budget(b))
                .collect(),
        ),
        (
            "Ordered",
            [1usize, 2, 4, 6]
                .iter()
                .map(|&d| Coordination::ordered(d))
                .collect(),
        ),
    ];
    sweeps
        .into_iter()
        .map(|(skeleton, params)| {
            // Per instance (outer index), the minimum speedup over the
            // parameter sweep; then the geometric mean across instances.
            let per_param: Vec<Vec<f64>> = params
                .iter()
                .map(|coord| instance_makespans(cfg_of, coord))
                .collect();
            let n_instances = per_param[0].len();
            let worst_per_instance: Vec<f64> = (0..n_instances)
                .map(|i| {
                    per_param
                        .iter()
                        .map(|row| row[i])
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            GateRow {
                skeleton: skeleton.to_string(),
                worst_speedup: geometric_mean(&worst_per_instance),
            }
        })
        .collect()
}

/// Flight-recorder neutrality: re-run one representative Irregular
/// enumeration per parallel coordination with tracing on and assert the
/// schedule is tick-for-tick identical to the untraced run.  The criterion
/// A/B in `benches/components.rs` can only bound the threaded recorder's
/// overhead statistically; the virtual cost model proves *exact*
/// neutrality — recording must never move a steal or a makespan.  Returns
/// one description per violated coordination (empty = gate passes).
pub fn trace_neutrality_violations(localities: usize, workers_per_locality: usize) -> Vec<String> {
    let problem = Irregular::new(12, 1);
    let mut violations = Vec::new();
    for (name, coord) in [
        ("Depth-Bounded", Coordination::depth_bounded(2)),
        ("Stack-Stealing", Coordination::stack_stealing_chunked()),
        ("Budget", Coordination::budget(100)),
        ("Ordered", Coordination::ordered(2)),
    ] {
        let off_cfg = SimConfig::new(coord, localities, workers_per_locality);
        let mut on_cfg = SimConfig::new(coord, localities, workers_per_locality);
        on_cfg.trace = true;
        let off = simulate_enumerate(&problem, &off_cfg);
        let on = simulate_enumerate(&problem, &on_cfg);
        if on.makespan != off.makespan || on.nodes != off.nodes || on.steals != off.steals {
            violations.push(format!(
                "{name}: traced run diverged — makespan {} vs {}, nodes {} vs {}, \
                 steals {} vs {} (traced vs untraced)",
                on.makespan, off.makespan, on.nodes, off.nodes, on.steals, off.steals
            ));
        }
    }
    violations
}

/// Serial-schedule check: under the [`Fifo`] policy (the default, and the
/// configuration every committed baseline was recorded under) the
/// multiplexed scheduler must produce the closed-form serial schedule — job
/// *k* granted its full request at max(arrival, predecessor's finish) and
/// running with exactly the makespan and node count of its own solo
/// [`simulate_enumerate`] — with zero lease renegotiations.  Lease
/// renegotiation may only change behaviour when a policy's `replan` opts
/// in; this is the gate that keeps every committed baseline number valid.
/// Returns one description per violation (empty = gate passes).
pub fn serial_schedule_violations(pool_workers: usize) -> Vec<String> {
    let mut violations = Vec::new();
    for (name, coord) in [
        ("Depth-Bounded", Coordination::depth_bounded(2)),
        ("Stack-Stealing", Coordination::stack_stealing_chunked()),
        ("Budget", Coordination::budget(100)),
        ("Ordered", Coordination::ordered(2)),
    ] {
        let instances = [(11usize, 1u64), (12, 7), (10, 23)];
        let cfg = SimConfig::new(coord, 1, pool_workers);
        let arrival = |i: usize| i as u64 * 1_000;
        let jobs: Vec<SimJob<'_, _>> = instances
            .iter()
            .enumerate()
            .map(|(i, &(depth, seed))| {
                SimJob::new(cfg.clone(), move |granted: &SimConfig| {
                    simulate_enumerate(&Irregular::new(depth, seed), granted)
                })
                .submit_at(arrival(i))
            })
            .collect();
        let schedule = simulate_multiplexed(pool_workers, &mut Fifo, 64, jobs);
        let mut pool_free_at = 0;
        for (i, (&(depth, seed), out)) in instances.iter().zip(&schedule.outcomes).enumerate() {
            let solo = simulate_enumerate(&Irregular::new(depth, seed), &cfg);
            let granted_at = arrival(i).max(pool_free_at);
            pool_free_at = granted_at + solo.makespan;
            let expected = (
                granted_at - arrival(i),
                pool_workers,
                solo.makespan,
                solo.nodes,
            );
            let got = (
                out.queue_wait_ticks,
                out.granted_workers,
                out.makespan,
                out.nodes,
            );
            if got != expected {
                violations.push(format!(
                    "{name} job {i}: serial schedule diverged — (wait, grant, makespan, \
                     nodes) {got:?}, closed form {expected:?}"
                ));
            }
        }
        let renegotiations = schedule
            .trace
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    yewpar::TraceEvent::GrantGrown { .. }
                        | yewpar::TraceEvent::GrantShrunk { .. }
                        | yewpar::TraceEvent::WorkerRevoked { .. }
                )
            })
            .count();
        if renegotiations > 0 {
            violations.push(format!(
                "{name}: a serial policy renegotiated {renegotiations} leases"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracing_never_perturbs_the_virtual_schedule() {
        assert_eq!(trace_neutrality_violations(2, 2), Vec::<String>::new());
    }

    #[test]
    fn fifo_reproduces_the_closed_form_serial_schedule() {
        assert_eq!(serial_schedule_violations(4), Vec::<String>::new());
    }

    #[test]
    fn gate_rows_cover_every_parallel_skeleton_and_are_deterministic() {
        // A small cluster keeps the test fast; determinism is the property
        // the gate depends on (identical recomputation on every machine).
        let a = irregular_worst_speedups(2, 2);
        let b = irregular_worst_speedups(2, 2);
        assert_eq!(a, b);
        let names: Vec<&str> = a.iter().map(|r| r.skeleton.as_str()).collect();
        assert_eq!(
            names,
            ["Depth-Bounded", "Stack-Stealing", "Budget", "Ordered"]
        );
        for row in &a {
            assert!(
                row.worst_speedup.is_finite() && row.worst_speedup > 0.0,
                "degenerate speedup in {row:?}"
            );
        }
    }
}
