//! Named instance registry.
//!
//! The paper's evaluation uses named standard instances (DIMACS clique
//! graphs, a finite-geometry k-clique instance, around 20 instances per
//! application for Table 2).  This module fixes a *named*, seeded set of
//! synthetic stand-ins so that the benchmark harnesses, the tests and
//! README's recorded results all refer to the same instances.
//!
//! Naming convention: `<family>-<n>-<variant>`, e.g. `brock-90-1` is the
//! first planted-clique ("brock-like") graph on 90 vertices.

use crate::graph::{self, Graph};
use crate::knapsack::{KnapsackClass, KnapsackInstance};
use crate::sip::SipInstance;
use crate::tsp::TspInstance;

/// A named clique-search instance.
#[derive(Debug, Clone)]
pub struct NamedGraph {
    /// Registry name (stable across runs).
    pub name: String,
    /// The graph itself.
    pub graph: Graph,
}

/// The 18 clique instances used by the Table 1 overhead experiment, modelled
/// on the four DIMACS families that appear in the paper's Table 1
/// (brock, p_hat, san, MANN) but scaled so each solves in milliseconds to a
/// few seconds sequentially.
pub fn table1_clique_instances() -> Vec<NamedGraph> {
    let mut out = Vec::new();
    // brock-like: dense random graphs with a planted clique.
    for (i, (n, p, k)) in [
        (110, 0.60, 18),
        (120, 0.60, 19),
        (130, 0.58, 19),
        (140, 0.55, 20),
    ]
    .iter()
    .enumerate()
    {
        out.push(NamedGraph {
            name: format!("brock-{n}-{}", i + 1),
            graph: graph::planted_clique(*n, *p, *k, 1000 + i as u64),
        });
    }
    // p_hat-like: wide degree spread.
    for (i, (n, lo, hi)) in [
        (120, 0.3, 0.85),
        (130, 0.3, 0.85),
        (140, 0.3, 0.8),
        (150, 0.3, 0.8),
        (160, 0.25, 0.75),
    ]
    .iter()
    .enumerate()
    {
        out.push(NamedGraph {
            name: format!("p_hat-{n}-{}", i + 1),
            graph: graph::p_hat_like(*n, *lo, *hi, 2000 + i as u64),
        });
    }
    // san-like: dense with an outsized planted clique.
    for (i, (n, p, k)) in [
        (100, 0.72, 24),
        (110, 0.72, 25),
        (120, 0.70, 26),
        (130, 0.66, 25),
        (140, 0.65, 26),
    ]
    .iter()
    .enumerate()
    {
        out.push(NamedGraph {
            name: format!("san-{n}-{}", i + 1),
            graph: graph::san_like(*n, *p, *k, 3000 + i as u64),
        });
    }
    // MANN-like: near-complete graphs.
    for (i, (n, miss)) in [(60, 0.06), (66, 0.06), (70, 0.06), (72, 0.055)]
        .iter()
        .enumerate()
    {
        out.push(NamedGraph {
            name: format!("mann-{n}-{}", i + 1),
            graph: graph::mann_like(*n, *miss, 4000 + i as u64),
        });
    }
    out
}

/// The harder decision instance used by the Figure 4 scaling experiment: a
/// large graph with a wide degree spread, standing in for the
/// `spreads_H(4,4)` finite-geometry instance.  The Figure 4 harness runs the
/// k-clique decision search for `k = ω + 1` (one above the clique number),
/// i.e. an exhaustive unsatisfiability proof, which gives a deterministic,
/// heavily parallelisable workload of the same character as the paper's
/// hour-long decision search.
pub fn fig4_kclique_instance() -> NamedGraph {
    NamedGraph {
        name: "spreads-like-180".to_string(),
        graph: graph::p_hat_like(180, 0.4, 0.85, 4444),
    }
}

/// Clique instances for the Table 2 skeleton comparison (smaller set).
pub fn table2_clique_instances() -> Vec<NamedGraph> {
    vec![
        NamedGraph {
            name: "brock-110-t2".into(),
            graph: graph::planted_clique(110, 0.58, 17, 7001),
        },
        NamedGraph {
            name: "p_hat-120-t2".into(),
            graph: graph::p_hat_like(120, 0.3, 0.85, 7002),
        },
        NamedGraph {
            name: "san-110-t2".into(),
            graph: graph::san_like(110, 0.68, 25, 7003),
        },
    ]
}

/// Knapsack instances for Table 2.
pub fn table2_knapsack_instances() -> Vec<(String, KnapsackInstance)> {
    vec![
        (
            "knap-uncorr-44".into(),
            KnapsackInstance::generate(KnapsackClass::Uncorrelated, 44, 1000, 8001),
        ),
        (
            "knap-weak-40".into(),
            KnapsackInstance::generate(KnapsackClass::WeaklyCorrelated, 40, 1000, 8002),
        ),
        (
            "knap-strong-28".into(),
            KnapsackInstance::generate(KnapsackClass::StronglyCorrelated, 28, 200, 8003),
        ),
    ]
}

/// TSP instances for Table 2.
pub fn table2_tsp_instances() -> Vec<(String, TspInstance)> {
    vec![
        (
            "tsp-euc-13".into(),
            TspInstance::random_euclidean(13, 1000.0, 9001),
        ),
        (
            "tsp-euc-14".into(),
            TspInstance::random_euclidean(14, 1000.0, 9002),
        ),
        (
            "tsp-euc-15".into(),
            TspInstance::random_euclidean(15, 500.0, 9003),
        ),
    ]
}

/// SIP instances for Table 2 (satisfiable plus one unsatisfiability proof,
/// like the mixed difficulty of the paper's SIP set).
pub fn table2_sip_instances() -> Vec<(String, SipInstance)> {
    vec![
        (
            "sip-embed-60-14".into(),
            SipInstance::with_embedding(60, 14, 0.3, 10_001),
        ),
        (
            "sip-embed-70-15".into(),
            SipInstance::with_embedding(70, 15, 0.25, 10_002),
        ),
        (
            "sip-unsat-40-10".into(),
            SipInstance::unlikely(40, 10, 10_003),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table1_has_eighteen_distinctly_named_instances() {
        let set = table1_clique_instances();
        assert_eq!(set.len(), 18);
        let names: HashSet<_> = set.iter().map(|g| g.name.clone()).collect();
        assert_eq!(names.len(), 18, "instance names must be unique");
        for inst in &set {
            assert!(inst.graph.order() >= 40);
            assert!(inst.graph.size() > 0);
        }
    }

    #[test]
    fn registry_is_deterministic() {
        let a = table1_clique_instances();
        let b = table1_clique_instances();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.graph, y.graph);
        }
    }

    #[test]
    fn fig4_instance_is_large_and_dense_enough_to_be_hard() {
        let named = fig4_kclique_instance();
        assert!(named.graph.order() >= 100);
        assert!(named.graph.density() > 0.3);
    }

    #[test]
    fn table2_sets_are_nonempty_and_named() {
        assert_eq!(table2_clique_instances().len(), 3);
        assert_eq!(table2_knapsack_instances().len(), 3);
        assert_eq!(table2_tsp_instances().len(), 3);
        assert_eq!(table2_sip_instances().len(), 3);
    }
}
