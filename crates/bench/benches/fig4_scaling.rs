//! Criterion version of the Figure 4 scaling experiment: wall-clock cost of
//! simulating the k-clique decision search at increasing locality counts.
//! The `fig4` binary prints the actual figure data (virtual makespans and
//! speedups); this bench tracks the simulator's own performance so
//! regressions in the engine are caught by `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use yewpar::{Coordination, Skeleton};
use yewpar_apps::kclique::KClique;
use yewpar_apps::maxclique::MaxClique;
use yewpar_instances::graph;
use yewpar_sim::{simulate_decide, SimConfig};

fn bench_fig4(c: &mut Criterion) {
    // A smaller sibling of the fig4 registry instance so each simulation run
    // stays in the tens of milliseconds.
    let g = graph::p_hat_like(100, 0.35, 0.8, 4545);
    let omega = *Skeleton::new(Coordination::Sequential)
        .maximise(&MaxClique::new(g.clone()))
        .try_score()
        .unwrap();
    let problem = KClique::new(g, omega + 1);

    let mut group = c.benchmark_group("fig4/kclique-scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for (label, coord) in [
        ("depth-bounded", Coordination::depth_bounded(2)),
        ("stack-stealing", Coordination::stack_stealing_chunked()),
        ("budget", Coordination::budget(1000)),
        ("ordered", Coordination::ordered(2)),
    ] {
        for localities in [1usize, 8, 17] {
            let cfg = SimConfig::new(coord, localities, 15);
            group.bench_with_input(
                BenchmarkId::new(label, format!("{localities}loc")),
                &cfg,
                |b, cfg| b.iter(|| simulate_decide(&problem, cfg).makespan),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
