//! End-to-end differential gate: n = 4 real TCP nodes on loopback must
//! replay the in-process reference schedule bit for bit, across many
//! seeds, and across reruns.

use net::{differential_gate, run_local_cluster, ClusterOpts, GateCase};
use tree_model::VertexId;

const SPIDER9: &str =
    "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nvertex 5\nvertex 6\nvertex 7\nvertex 8\n\
edge 0 1\nedge 1 2\nedge 2 3\nedge 2 4\nedge 4 5\nedge 0 6\nedge 6 7\nedge 7 8\n";

fn case_for(seed: u64) -> GateCase {
    // Vary the inputs with the seed so the 20 cases exercise different
    // hull geometries, not just different delay schedules.
    let picks = [
        (seed % 9) as usize,
        (seed * 3 + 1) as usize % 9,
        (seed * 5 + 4) as usize % 9,
        (seed * 7 + 2) as usize % 9,
    ];
    GateCase::from_text(SPIDER9, &picks, 1, seed).expect("valid case")
}

fn check_agreement(case: &GateCase, outcomes: &[sim_net::Outcome<VertexId>]) {
    let outputs: Vec<VertexId> = outcomes
        .iter()
        .map(|o| {
            assert!(!o.is_degraded(), "clean run must not degrade");
            *o.value()
        })
        .collect();
    tree_aa::check_tree_aa(&case.tree, &case.inputs, &outputs)
        .expect("outputs must 1-agree inside the input hull");
}

/// The headline acceptance criterion: ≥ 20 seeded cases where the
/// networked run reconciles with the reference event-for-event.
#[test]
fn twenty_seeded_cases_pass_the_differential_gate() {
    for seed in 0..20u64 {
        let case = case_for(seed);
        let reference = case.reference_run().expect("reference run");
        let cluster =
            run_local_cluster(&case, &ClusterOpts::new(0xc0ff_ee00 + seed)).expect("cluster run");

        check_agreement(&case, &cluster.outcomes);
        assert_eq!(
            cluster.outcomes, reference.outcomes,
            "seed {seed}: networked outcomes diverge from the reference"
        );
        let reconciled = differential_gate(&reference.trace, &cluster.merged_trace)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(reconciled > 0, "seed {seed}: gate reconciled no events");

        // Clean loopback runs must need none of the failure machinery.
        for (i, s) in cluster.stats.iter().enumerate() {
            assert_eq!(s.rejected_mac, 0, "seed {seed} node {i}");
            assert_eq!(s.rejected_replay, 0, "seed {seed} node {i}");
            assert_eq!(s.rejected_malformed, 0, "seed {seed} node {i}");
            assert_eq!(s.dead_peers, 0, "seed {seed} node {i}");
            assert_eq!(s.retransmissions, 0, "seed {seed} node {i}");
        }
    }
}

/// Rerunning the same seed over fresh sockets reproduces the merged
/// trace bit for bit (canonical string equality, not just event
/// reconciliation).
#[test]
fn networked_reruns_are_bit_identical() {
    for seed in [3u64, 11] {
        let case = case_for(seed);
        let a = run_local_cluster(&case, &ClusterOpts::new(0xaaaa)).expect("first run");
        let b = run_local_cluster(&case, &ClusterOpts::new(0xbbbb)).expect("second run");
        assert_eq!(
            a.merged_trace.to_canonical_string(),
            b.merged_trace.to_canonical_string(),
            "seed {seed}: reruns diverge"
        );
        assert_eq!(a.outcomes, b.outcomes);
    }
}
