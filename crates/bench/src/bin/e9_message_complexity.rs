//! **E9 — Message and communication complexity accounting.**
//!
//! The related-work discussion credits the `RealAA` building block with
//! `O(R · n³)` messages: n parallel gradecasts, each echo/vote phase
//! all-to-all with one message per leader, so `R · (2n³ + n²)` delivered
//! messages over `R` iterations. The implementation batches every phase
//! into one message per sender, so it delivers `3 · R · n²`. This
//! experiment measures total messages and bytes per protocol, prints the
//! per-message model beside the measurement, and checks the quadratic
//! scaling of the batched wire empirically.

use std::sync::Arc;

use bench::{spaced_inputs, Table};
use real_aa::{RealAaConfig, RealAaParty};
use sim_net::{run_simulation, Passive, SimConfig};
use tree_aa::{EngineKind, NowakRybickiConfig, NowakRybickiParty, TreeAaConfig, TreeAaParty};
use tree_model::generate;

fn main() {
    println!("## E9a: RealAA message complexity vs n (delta = 2^10, eps = 1)\n");
    let mut table = Table::new(&[
        "n",
        "t",
        "rounds",
        "messages",
        "messages / (R_iter * n^2)",
        "per-message model R_iter * (2n^3 + n^2)",
        "bytes",
    ]);
    for t in [1usize, 2, 4, 8] {
        let n = 3 * t + 1;
        let d = 1024.0;
        let cfg = RealAaConfig::new(n, t, 1.0, d).expect("valid");
        let inputs: Vec<f64> = (0..n).map(|i| d * i as f64 / (n - 1) as f64).collect();
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            Passive,
        )
        .expect("simulation completes");
        let msgs = report.metrics.total_messages();
        let r = cfg.iterations() as usize;
        let norm = msgs as f64 / (r * n * n) as f64;
        let per_message_model = r * (2 * n * n * n + n * n);
        table.row(vec![
            n.to_string(),
            t.to_string(),
            report.communication_rounds().to_string(),
            msgs.to_string(),
            format!("{norm:.2}"),
            per_message_model.to_string(),
            report.metrics.total_bytes().to_string(),
        ]);
    }
    table.print();
    println!(
        "\nThe normalized column is exactly 3 (one lead, one echo batch and one \
         vote batch per ordered pair of parties per iteration): the batched \
         wire delivers O(R * n^2) messages where the per-message model of \
         the gradecast-based engine delivers O(R * n^3).\n"
    );

    println!("## E9b: protocol comparison on one tree (caterpillar, |V| = 513, n = 7, t = 2)\n");
    let tree = Arc::new(generate::caterpillar(171, 2));
    let (n, t) = (7usize, 2usize);
    let inputs = spaced_inputs(&tree, n, 83);
    let mut table = Table::new(&["protocol", "rounds", "messages", "bytes"]);

    for engine in [EngineKind::Gradecast, EngineKind::Halving] {
        let cfg = TreeAaConfig::new(n, t, engine, &tree).expect("valid");
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.total_rounds() + 5,
            },
            |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            Passive,
        )
        .expect("simulation completes");
        table.row(vec![
            format!("TreeAA ({engine:?})"),
            report.communication_rounds().to_string(),
            report.metrics.total_messages().to_string(),
            report.metrics.total_bytes().to_string(),
        ]);
    }
    let cfg = NowakRybickiConfig::new(n, t, &tree).expect("valid");
    let report = run_simulation(
        SimConfig {
            n,
            t,
            max_rounds: cfg.rounds() + 5,
        },
        |id, _| NowakRybickiParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
        Passive,
    )
    .expect("simulation completes");
    table.row(vec![
        "Nowak-Rybicki".to_string(),
        report.communication_rounds().to_string(),
        report.metrics.total_messages().to_string(),
        report.metrics.total_bytes().to_string(),
    ]);
    table.print();
}
