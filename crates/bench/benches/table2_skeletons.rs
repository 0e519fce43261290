//! Criterion version of the Table 2 skeleton comparison: one representative
//! instance per application, simulated under each parallel coordination at
//! 120 workers.  The `table2` binary prints the full worst/random/best table;
//! this bench provides repeatable timings of representative cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use yewpar::Coordination;
use yewpar_apps::knapsack::Knapsack;
use yewpar_apps::maxclique::MaxClique;
use yewpar_apps::semigroups::Semigroups;
use yewpar_apps::sip::Sip;
use yewpar_apps::tsp::Tsp;
use yewpar_apps::uts::Uts;
use yewpar_instances::registry;
use yewpar_sim::{simulate_decide, simulate_enumerate, simulate_maximise, SimConfig};

fn coordinations() -> Vec<(&'static str, Coordination)> {
    vec![
        ("depth-bounded", Coordination::depth_bounded(2)),
        ("stack-stealing", Coordination::stack_stealing_chunked()),
        ("budget", Coordination::budget(100)),
        ("ordered", Coordination::ordered(2)),
    ]
}

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/applications");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));

    let clique = MaxClique::new(registry::table2_clique_instances().remove(0).graph);
    let tsp = Tsp::new(registry::table2_tsp_instances().remove(0).1);
    let knapsack = Knapsack::new(registry::table2_knapsack_instances().remove(0).1);
    let sip = Sip::new(registry::table2_sip_instances().remove(0).1);
    let semigroups = Semigroups::new(12);
    let uts = Uts::geometric_small(11);

    for (label, coord) in coordinations() {
        let cfg = SimConfig::new(coord, 8, 15);
        group.bench_with_input(BenchmarkId::new("maxclique", label), &cfg, |b, cfg| {
            b.iter(|| simulate_maximise(&clique, cfg).makespan)
        });
        group.bench_with_input(BenchmarkId::new("tsp", label), &cfg, |b, cfg| {
            b.iter(|| simulate_maximise(&tsp, cfg).makespan)
        });
        group.bench_with_input(BenchmarkId::new("knapsack", label), &cfg, |b, cfg| {
            b.iter(|| simulate_maximise(&knapsack, cfg).makespan)
        });
        group.bench_with_input(BenchmarkId::new("sip", label), &cfg, |b, cfg| {
            b.iter(|| simulate_decide(&sip, cfg).makespan)
        });
        group.bench_with_input(BenchmarkId::new("semigroups", label), &cfg, |b, cfg| {
            b.iter(|| simulate_enumerate(&semigroups, cfg).makespan)
        });
        group.bench_with_input(BenchmarkId::new("uts", label), &cfg, |b, cfg| {
            b.iter(|| simulate_enumerate(&uts, cfg).makespan)
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
