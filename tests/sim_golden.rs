//! Golden simulated outcomes: the exact counters and trace of every
//! coordination × search type on a small Irregular instance, pinned at
//! three cluster shapes.
//!
//! The simulator is deterministic, so any change to its event order, its
//! cost accounting or the core rules it calls (traversal step, victim
//! choice, commit log) shows up here as a changed number.  A refactor of
//! either engine must leave every row untouched; a deliberate behaviour
//! change re-records the table and says why.

use yewpar::trace::sink::jsonl_line;
use yewpar::trace::TraceRecord;
use yewpar::Coordination;
use yewpar_apps::irregular::Irregular;
use yewpar_sim::{simulate_decide, simulate_enumerate, SimConfig, SimOutcome};

/// One pinned run: coordination label, search type, cluster shape, the
/// counters in [`counters`] order, and the FNV-1a digest of the JSONL trace.
type Golden = (&'static str, &'static str, usize, usize, [u64; 14], u64);

fn coordination(label: &str) -> Coordination {
    match label {
        "seq" => Coordination::Sequential,
        "depthbounded" => Coordination::depth_bounded(2),
        "stacksteal" => Coordination::stack_stealing_chunked(),
        "budget" => Coordination::budget(30),
        "ordered" => Coordination::ordered(2),
        other => panic!("unknown coordination {other}"),
    }
}

/// `[result, makespan, total_work, nodes, prunes, spawns, steals,
/// lock_acquisitions, batch_pushes, poll_checks, ordered_spawns,
/// priority_inversions, speculative_nodes, cancelled_tasks]`.
fn counters<R>(out: &SimOutcome<R>, result: u64) -> [u64; 14] {
    [
        result,
        out.makespan,
        out.total_work,
        out.nodes,
        out.prunes,
        out.spawns,
        out.steals,
        out.lock_acquisitions,
        out.batch_pushes,
        out.poll_checks,
        out.ordered_spawns,
        out.priority_inversions,
        out.speculative_nodes,
        out.cancelled_tasks,
    ]
}

/// 64-bit FNV-1a over the trace's canonical JSONL rendering.
fn digest(trace: &[TraceRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for record in trace {
        for b in jsonl_line(record).bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn run(coord: &str, search: &str, localities: usize, wpl: usize) -> ([u64; 14], u64) {
    let p = Irregular::new(8, 58);
    let mut cfg = SimConfig::new(coordination(coord), localities, wpl);
    cfg.trace = true;
    match search {
        "enum" => {
            let out = simulate_enumerate(&p, &cfg);
            (counters(&out, out.result.0), digest(&out.trace))
        }
        "decide" => {
            let out = simulate_decide(&p, &cfg);
            let witness = out.result.map_or(u64::MAX, |(_, state)| state);
            (counters(&out, witness), digest(&out.trace))
        }
        other => panic!("unknown search type {other}"),
    }
}

/// Recorded before the engines were refactored onto the shared core
/// traversal step and victim rule.
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("seq", "enum", 1, 1, [2968, 299788, 296800, 2968, 0, 0, 0, 1, 0, 5937, 0, 0, 0, 0], 0x750e99255d2c1695),
    ("seq", "enum", 1, 4, [2968, 299788, 296800, 2968, 0, 0, 0, 1, 0, 10434, 0, 0, 0, 0], 0x1d23d381bf1f003f),
    ("seq", "enum", 3, 2, [2968, 299788, 296800, 2968, 0, 0, 0, 1, 0, 13432, 0, 0, 0, 0], 0x21fc8287791b1e52),
    ("seq", "decide", 1, 1, [11720767757629100996, 76469, 75700, 757, 0, 0, 0, 1, 0, 1507, 0, 0, 0, 0], 0x595f8347f265d771),
    ("seq", "decide", 1, 4, [11720767757629100996, 76469, 75700, 757, 0, 0, 0, 1, 0, 2653, 0, 0, 0, 0], 0x5759089dfe599075),
    ("seq", "decide", 3, 2, [11720767757629100996, 76469, 75700, 757, 0, 0, 0, 1, 0, 3417, 0, 0, 0, 0], 0x48f0531b17a563dd),
    ("depthbounded", "enum", 1, 1, [2968, 300008, 296800, 2968, 0, 14, 0, 10, 5, 5936, 0, 0, 0, 0], 0x34d23ba237fac5fb),
    ("depthbounded", "enum", 1, 4, [2968, 97027, 296800, 2968, 0, 14, 0, 16, 5, 6384, 0, 0, 0, 0], 0x73d8346d565272e1),
    ("depthbounded", "enum", 3, 2, [2968, 83221, 296800, 2968, 0, 14, 5, 14, 5, 6689, 0, 0, 0, 0], 0xd070e18d9442a075),
    ("depthbounded", "decide", 1, 1, [11720767757629100996, 76954, 76000, 760, 0, 14, 0, 8, 5, 1512, 0, 0, 0, 0], 0xfdaf264b9b5ecd36),
    ("depthbounded", "decide", 1, 4, [4852897031420804990, 9770, 37700, 377, 0, 14, 0, 13, 5, 733, 0, 0, 0, 0], 0x7abb7636256ff778),
    ("depthbounded", "decide", 3, 2, [4852897031420804990, 9735, 18800, 188, 0, 14, 4, 13, 5, 373, 0, 0, 0, 0], 0x4737aed067763f14),
    ("stacksteal", "enum", 1, 1, [2968, 299768, 296800, 2968, 0, 0, 0, 0, 0, 5936, 0, 0, 0, 0], 0x45678cc257304d13),
    ("stacksteal", "enum", 1, 4, [2968, 79155, 296800, 2968, 0, 56, 26, 0, 0, 5983, 0, 0, 0, 0], 0xd04125f80077c68a),
    ("stacksteal", "enum", 3, 2, [2968, 107537, 296800, 2968, 0, 100, 56, 0, 0, 6537, 0, 0, 0, 0], 0xc23c62866578b4f0),
    ("stacksteal", "decide", 1, 1, [11720767757629100996, 76449, 75700, 757, 0, 0, 0, 0, 0, 1506, 0, 0, 0, 0], 0x5c9c87e6deebdf83),
    ("stacksteal", "decide", 1, 4, [4853176467434432990, 2211, 4300, 43, 0, 12, 5, 0, 0, 82, 0, 0, 0, 0], 0x18636a1ffaf34d79),
    ("stacksteal", "decide", 3, 2, [4852897031420804990, 9683, 17800, 178, 0, 14, 6, 0, 0, 369, 0, 0, 0, 0], 0x1471ee927dcc5834),
    ("budget", "enum", 1, 1, [2968, 301898, 296800, 2968, 0, 119, 0, 92, 61, 5967, 0, 0, 0, 0], 0x1173b061f02d1ce5),
    ("budget", "enum", 1, 4, [2968, 79083, 296800, 2968, 0, 119, 0, 100, 61, 6048, 0, 0, 0, 0], 0x95d7f18cb7ed4c7c),
    ("budget", "enum", 3, 2, [2968, 82073, 296800, 2968, 0, 119, 13, 108, 61, 6287, 0, 0, 0, 0], 0xce209fe1b7eb7ce4),
    ("budget", "decide", 1, 1, [4853176467434432990, 18324, 18000, 180, 0, 10, 0, 6, 4, 356, 0, 0, 0, 0], 0xd2f1dc20a5247260),
    ("budget", "decide", 1, 4, [4853176467434432990, 5228, 8700, 87, 0, 3, 0, 5, 1, 216, 0, 0, 0, 0], 0x82148b8b90d69ddd),
    ("budget", "decide", 3, 2, [4853176467434432990, 6036, 8100, 81, 0, 3, 1, 4, 1, 279, 0, 0, 0, 0], 0xf9947c19fc2bf41d),
    ("ordered", "enum", 1, 1, [2968, 300208, 296800, 2968, 0, 14, 0, 20, 5, 5931, 14, 0, 0, 0], 0x1e6765cb094aedbe),
    ("ordered", "enum", 1, 4, [2968, 96852, 296800, 2968, 0, 14, 0, 20, 5, 6369, 14, 12, 0, 0], 0x36d5a7953281c14b),
    ("ordered", "enum", 3, 2, [2968, 85890, 296800, 2968, 0, 14, 0, 20, 5, 7010, 14, 12, 0, 0], 0x95385fb7c69bb7d4),
    ("ordered", "decide", 1, 1, [11720767757629100996, 76619, 75700, 757, 0, 8, 0, 7, 2, 1506, 8, 0, 0, 4], 0x7524d052bc799d8e),
    ("ordered", "decide", 1, 4, [11720767757629100996, 54863, 76300, 757, 0, 8, 0, 8, 2, 2224, 8, 3, 6, 3], 0xd199dfe45c01614c),
    ("ordered", "decide", 3, 2, [11720767757629100996, 54863, 77000, 757, 0, 11, 0, 14, 4, 2779, 11, 7, 13, 4], 0x13a582b9327d3350),
];

#[test]
fn simulated_outcomes_match_the_recorded_golden_rows() {
    let mut mismatches = Vec::new();
    for coord in ["seq", "depthbounded", "stacksteal", "budget", "ordered"] {
        for search in ["enum", "decide"] {
            for (localities, wpl) in [(1, 1), (1, 4), (3, 2)] {
                let got = run(coord, search, localities, wpl);
                let expected = GOLDEN
                    .iter()
                    .find(|g| (g.0, g.1, g.2, g.3) == (coord, search, localities, wpl))
                    .map(|g| (g.4, g.5));
                if expected != Some(got) {
                    // Printed in table syntax, for re-recording a deliberate change.
                    mismatches.push(format!(
                        "(\"{coord}\", \"{search}\", {localities}, {wpl}, {:?}, {:#018x}),",
                        got.0, got.1
                    ));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden rows differ; now:\n{}",
        mismatches.join("\n")
    );
}
