//! Fixture tests for the repo-invariant lint: known-bad sources must be
//! flagged with the exact rule and `file:line`, known-good shapes (justified
//! orderings, test regions, allowlist entries) must pass, and the config
//! parser must reject unjustified allowlist entries.

use yewpar_check::lint::{lint_file, parse_config, scan, LintConfig};

/// The pairing map used by the fixtures: one variant, one counter token.
fn cfg_with(hot: &[&str]) -> LintConfig {
    let mut cfg = LintConfig {
        hot_paths: hot.iter().map(|s| s.to_string()).collect(),
        ..LintConfig::default()
    };
    cfg.trace_pairs.push(yewpar_check::lint::TracePair {
        variant: "TaskEnd".to_string(),
        counter: "metrics.nodes".to_string(),
    });
    cfg
}

// ---------------------------------------------------------------------------
// relaxed-justified
// ---------------------------------------------------------------------------

#[test]
fn unjustified_relaxed_is_flagged_with_line() {
    let src = "\
fn tick(c: &std::sync::atomic::AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
";
    let violations = lint_file("crates/demo/src/lib.rs", src, &cfg_with(&[]));
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    assert_eq!(v.rule, "relaxed-justified");
    assert_eq!((v.file.as_str(), v.line), ("crates/demo/src/lib.rs", 2));
    // The rendered form is what CI prints: it must carry file:line.
    assert!(v
        .to_string()
        .starts_with("crates/demo/src/lib.rs:2: [relaxed-justified]"));
}

#[test]
fn ordering_comment_within_window_passes() {
    let src = "\
fn tick(c: &std::sync::atomic::AtomicU64) {
    // ordering: advisory tally; readers tolerate staleness.
    c.fetch_add(1, Ordering::Relaxed);
    c.load(Ordering::Relaxed); // ordering: same-line form also accepted
}
";
    assert!(lint_file("a.rs", src, &cfg_with(&[])).is_empty());
}

#[test]
fn ordering_comment_beyond_window_does_not_count() {
    let mut src = String::from("// ordering: too far away to justify anything\n");
    src.push_str(&"\n".repeat(6));
    src.push_str("fn f(c: &A) { c.load(Ordering::Relaxed); }\n");
    let violations = lint_file("a.rs", &src, &cfg_with(&[]));
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].line, 8);
}

#[test]
fn relaxed_allowlist_entry_suppresses_the_exact_site() {
    let src = "fn f(c: &A) { c.load(Ordering::Relaxed); }\n";
    let mut cfg = cfg_with(&[]);
    cfg.allow_relaxed.push(yewpar_check::lint::AllowEntry {
        file: "demo/src/lib.rs".to_string(),
        contains: "c.load(Ordering::Relaxed)".to_string(),
        justification: "fixture".to_string(),
    });
    assert!(lint_file("crates/demo/src/lib.rs", src, &cfg).is_empty());
    // A different file with the same line is still flagged: `file` pins it.
    assert_eq!(lint_file("crates/other/src/lib.rs", src, &cfg).len(), 1);
}

// ---------------------------------------------------------------------------
// hot-path-unwrap
// ---------------------------------------------------------------------------

#[test]
fn unwrap_in_hot_path_is_flagged() {
    let src = "\
fn pick(v: &[u8]) -> u8 {
    *v.first().unwrap()
}
";
    let violations = lint_file(
        "crates/core/src/engine.rs",
        src,
        &cfg_with(&["crates/core/src/engine.rs"]),
    );
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].rule, "hot-path-unwrap");
    assert_eq!(violations[0].line, 2);
}

#[test]
fn unwrap_outside_hot_paths_or_in_tests_passes() {
    let src = "\
fn pick(v: &[u8]) -> u8 {
    *v.first().expect(\"non-empty by construction\")
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
";
    // expect() in the hot path and unwrap() in the test region: both fine.
    assert!(lint_file(
        "crates/core/src/engine.rs",
        src,
        &cfg_with(&["crates/core/src/engine.rs"])
    )
    .is_empty());
    // unwrap() outside any configured hot path: fine.
    let cold = "fn f() { Some(1).unwrap(); }\n";
    assert!(lint_file(
        "crates/apps/src/main.rs",
        cold,
        &cfg_with(&["crates/core/src"])
    )
    .is_empty());
}

#[test]
fn a_feature_gated_test_module_is_a_test_region() {
    let src = "\
fn tick(c: &A) { c.fetch_add(1, Ordering::AcqRel); }

#[cfg(all(test, feature = \"model-check\"))]
mod model_check {
    fn t(c: &A) { c.load(Ordering::Relaxed); Some(1).unwrap(); }
}
";
    assert!(lint_file(
        "crates/core/src/runtime/pool.rs",
        src,
        &cfg_with(&["crates/core/src/runtime/"])
    )
    .is_empty());
}

// ---------------------------------------------------------------------------
// trace-paired
// ---------------------------------------------------------------------------

#[test]
fn unpaired_trace_emission_is_flagged() {
    let src = "\
fn finish(tracer: &Tracer) {
    tracer.emit(TraceEvent::TaskEnd { nodes: 1 });
}
";
    let violations = lint_file("crates/core/src/x.rs", src, &cfg_with(&[]));
    assert_eq!(violations.len(), 1);
    let v = &violations[0];
    assert_eq!(v.rule, "trace-paired");
    assert_eq!(v.line, 2);
    assert!(v.message.contains("TaskEnd") && v.message.contains("metrics.nodes"));
}

#[test]
fn emission_with_counter_in_window_passes() {
    let src = "\
fn finish(tracer: &Tracer, metrics: &mut Metrics) {
    metrics.nodes += 1;
    tracer.emit(TraceEvent::TaskEnd { nodes: metrics.nodes });
}
";
    assert!(lint_file("crates/core/src/x.rs", src, &cfg_with(&[])).is_empty());
}

#[test]
fn unmapped_variants_are_not_paired() {
    // TaskStart has no counter in the pairing map: no violation.
    let src = "fn f(t: &Tracer) { t.emit(TraceEvent::TaskStart { id: 0 }); }\n";
    assert!(lint_file("crates/core/src/x.rs", src, &cfg_with(&[])).is_empty());
}

// ---------------------------------------------------------------------------
// layering-ban
// ---------------------------------------------------------------------------

#[test]
fn banned_call_under_its_path_is_flagged_with_the_justification() {
    let mut cfg = cfg_with(&[]);
    cfg.bans.push(yewpar_check::lint::BanEntry {
        path: "crates/sim/src".to_string(),
        contains: ".next_child()".to_string(),
        justification: "the step lives in core".to_string(),
    });
    let src = "\
fn step(stack: &mut Stack) {
    // a comment naming .next_child() is fine
    let child = stack.next_child();
}

#[cfg(test)]
mod tests {
    fn t(stack: &mut Stack) {
        stack.next_child();
    }
}
";
    let violations = lint_file("crates/sim/src/engine.rs", src, &cfg);
    assert_eq!(violations.len(), 1, "{violations:?}");
    let v = &violations[0];
    assert_eq!((v.rule, v.line), ("layering-ban", 3));
    assert!(
        v.message.contains("the step lives in core"),
        "{}",
        v.message
    );
    // The same call outside the banned path is allowed.
    assert!(lint_file("crates/core/src/genstack.rs", src, &cfg).is_empty());

    // A ban without a written justification is rejected like an allow entry.
    let toml = "\
[[ban]]
path = \"crates/sim/src\"
contains = \".next_child()\"
";
    assert!(parse_config(toml)
        .unwrap_err()
        .contains("no written justification"));
}

// ---------------------------------------------------------------------------
// config parsing
// ---------------------------------------------------------------------------

#[test]
fn allow_entry_without_justification_is_rejected() {
    let toml = "\
[[allow_relaxed]]
file = \"a.rs\"
contains = \"load\"
";
    let err = parse_config(toml).unwrap_err();
    assert!(err.contains("no written justification"), "got: {err}");

    let blank = "\
[[allow_unwrap]]
file = \"a.rs\"
contains = \"unwrap\"
justification = \"   \"
";
    assert!(parse_config(blank)
        .unwrap_err()
        .contains("no written justification"));
}

#[test]
fn unknown_sections_and_keys_are_rejected() {
    assert!(parse_config("[[bogus]]\n")
        .unwrap_err()
        .contains("unknown section"));
    assert!(parse_config("[[scan]]\nroot = \"x\"\n")
        .unwrap_err()
        .contains("unknown key"));
    assert!(parse_config("[[scan]]\npath = unquoted\n")
        .unwrap_err()
        .contains("double-quoted"));
}

/// The shipped hot-path rule covers the runtime module by prefix.
#[test]
fn shipped_config_flags_unwrap_in_the_runtime_dispatcher() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/lint.toml"));
    let cfg = parse_config(&text.expect("lint.toml")).expect("shipped lint.toml must parse");
    let src = "fn next(free: &mut Vec<usize>) -> usize {\n    free.pop().unwrap()\n}\n";
    let violations = lint_file("crates/core/src/runtime/dispatcher.rs", src, &cfg);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(
        (violations[0].rule, violations[0].line),
        ("hot-path-unwrap", 2)
    );
}

/// The shipped hot-path rule covers the generator stack, the traversal
/// step both engines run per node.
#[test]
fn shipped_config_flags_unwrap_in_the_generator_stack() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/lint.toml"));
    let cfg = parse_config(&text.expect("lint.toml")).expect("shipped lint.toml must parse");
    let src = "fn top(frames: &[usize]) -> usize {\n    *frames.last().unwrap()\n}\n";
    let violations = lint_file("crates/core/src/genstack.rs", src, &cfg);
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(
        (violations[0].rule, violations[0].line),
        ("hot-path-unwrap", 2)
    );
}

/// The shipped layering bans keep the spawn rules stated once: the
/// simulator may ask `Coordination::spawns_children` and
/// `Coordination::backtrack_budget`, but restating either rule from the
/// variant's fields is flagged, while core (where the rules live) is not.
#[test]
fn shipped_config_bans_restating_the_spawn_rules_in_the_simulator() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/lint.toml"));
    let cfg = parse_config(&text.expect("lint.toml")).expect("shipped lint.toml must parse");
    let src = "\
fn start(coord: Coordination, depth: usize) -> bool {
    coord.spawns_children(depth) && coord.backtrack_budget() > 0
}
fn restated(coord: Coordination, depth: usize) -> bool {
    match coord {
        Coordination::DepthBounded { dcutoff } => depth < dcutoff,
        Coordination::Ordered { spawn_depth } => depth < spawn_depth,
        Coordination::Budget { backtracks } => backtracks == 0,
        _ => false,
    }
}
";
    let violations = lint_file("crates/sim/src/engine.rs", src, &cfg);
    let flagged: Vec<_> = violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(
        flagged,
        [
            ("layering-ban", 6),
            ("layering-ban", 7),
            ("layering-ban", 8)
        ],
        "{violations:?}"
    );
    assert!(lint_file("crates/core/src/params.rs", src, &cfg).is_empty());
}

#[test]
fn shipped_lint_toml_parses_and_workspace_is_clean() {
    // The real config must stay parseable, and the workspace must stay
    // lint-clean — this is the CI gate in test form.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let text = std::fs::read_to_string(root.join("crates/check/lint.toml")).expect("lint.toml");
    let cfg = parse_config(&text).expect("shipped lint.toml must parse");
    let violations = scan(&root, &cfg).expect("scan");
    assert!(
        violations.is_empty(),
        "workspace has lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The shipped layering ban keeps the apps' node generators lazy: a
/// `SearchProblem::Gen` that is a `Vec`'s iterator (every child collected
/// per node) is flagged under `crates/apps/src`, a lazy generator type is
/// not, and neither is the same line in a test region.
#[test]
fn shipped_config_bans_vec_collected_generators_in_the_apps() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/lint.toml"));
    let cfg = parse_config(&text.expect("lint.toml")).expect("shipped lint.toml must parse");
    let src = "\
impl SearchProblem for Eager {
    type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
}
impl SearchProblem for Lazy {
    type Gen<'a> = LazyGen;
}

#[cfg(test)]
mod tests {
    impl SearchProblem for Reference {
        type Gen<'a> = std::vec::IntoIter<(usize, u64)>;
    }
}
";
    let violations = lint_file("crates/apps/src/tree.rs", src, &cfg);
    let flagged: Vec<_> = violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(flagged, [("layering-ban", 2)], "{violations:?}");
    assert!(violations[0].message.contains("§4.1"), "{violations:?}");
}

#[test]
fn shipped_config_bans_sleeping_in_the_harnesses() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/lint.toml"));
    let cfg = parse_config(&text.expect("lint.toml")).expect("shipped lint.toml must parse");
    let src = "\
fn main() {
    let background = runtime.maximise(problem, &cfg);
    std::thread::sleep(Duration::from_millis(20));
    // thread::sleep in a comment is prose, not a bet
    let urgent = runtime.enumerate(other, &cfg).wait();
}
";
    let violations = lint_file("crates/bench/src/bin/table2.rs", src, &cfg);
    let flagged: Vec<_> = violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(flagged, [("layering-ban", 3)], "{violations:?}");
    assert!(
        violations[0].message.contains("ROADMAP item 1"),
        "{violations:?}"
    );
    assert!(lint_file("tests/multiplexed_runtime.rs", src, &cfg).is_empty());
}

/// The shipped layering ban keeps the generator stack's frames peek-free:
/// a `Peekable` generator in `genstack.rs` is flagged, the same line in its
/// test region (where the reference stack peeks) is not, and neither is a
/// peeking iterator elsewhere.
#[test]
fn shipped_config_bans_peeking_frames_in_the_generator_stack() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/lint.toml"));
    let cfg = parse_config(&text.expect("lint.toml")).expect("shipped lint.toml must parse");
    let src = "\
struct Frame<'p, P: SearchProblem + 'p> {
    gen: std::iter::Peekable<P::Gen<'p>>,
    child_depth: usize,
}

#[cfg(test)]
mod tests {
    struct EveryFrame<'p, P: SearchProblem + 'p> {
        frames: Vec<(std::iter::Peekable<P::Gen<'p>>, usize)>,
    }
}
";
    let violations = lint_file("crates/core/src/genstack.rs", src, &cfg);
    let flagged: Vec<_> = violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(flagged, [("layering-ban", 2)], "{violations:?}");
    assert!(
        violations[0].message.contains("per-node path"),
        "{violations:?}"
    );
    assert!(lint_file("crates/sim/src/multiplex.rs", src, &cfg).is_empty());
}
