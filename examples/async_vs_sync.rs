//! Synchronous vs asynchronous agreement on the same tree — the model
//! comparison behind the paper's contribution.
//!
//! The same fleet, map, and fault pattern runs three ways: the paper's
//! synchronous `TreeAA`, the synchronous safe-area baseline, and the
//! asynchronous safe-area protocol (reliable broadcast + witnesses) under
//! a hostile delivery schedule where one honest party's links are slow.
//!
//! ```sh
//! cargo run --example async_vs_sync
//! ```

use std::error::Error;
use std::sync::Arc;

use tree_aa_repro::async_aa::{AsyncTreeAaConfig, AsyncTreeAaParty};
use tree_aa_repro::async_net::{run_async, AsyncConfig, DelayModel, SilentAsync};
use tree_aa_repro::sim_net::{
    run_simulation, CrashAdversary, FaultPlan, Outcome, PartyId, SimConfig,
};
use tree_aa_repro::tree_aa::{
    check_tree_aa, EngineKind, NowakRybickiConfig, NowakRybickiParty, TreeAaConfig, TreeAaParty,
};
use tree_aa_repro::tree_model::{generate, VertexId};

fn main() -> Result<(), Box<dyn Error>> {
    let tree = Arc::new(generate::caterpillar(40, 2));
    let (n, t) = (7, 2);
    let m = tree.vertex_count();
    let inputs: Vec<VertexId> = (0..n)
        .map(|i| tree.vertices().nth((i * 17) % m).expect("in range"))
        .collect();
    let faulty = [PartyId(2), PartyId(5)];
    let honest_inputs: Vec<VertexId> = (0..n)
        .filter(|&i| i != 2 && i != 5)
        .map(|i| inputs[i])
        .collect();
    println!(
        "map: caterpillar, |V| = {m}, D = {}; n = {n}, t = {t}, parties 2 and 5 faulty\n",
        tree.diameter()
    );

    // 1. Synchronous TreeAA (the paper).
    let cfg = TreeAaConfig::new(n, t, EngineKind::Gradecast, &tree)
        .map_err(|e| format!("bad parameters: {e}"))?;
    let report = run_simulation(
        SimConfig {
            n,
            t,
            max_rounds: cfg.total_rounds() + 5,
        },
        |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
        CrashAdversary {
            crashes: faulty.iter().map(|&p| (p, 3)).collect(),
        },
    )?;
    check_tree_aa(&tree, &honest_inputs, &report.honest_outputs())?;
    println!(
        "synchronous TreeAA      {:>6} rounds   {:>7} messages",
        report.communication_rounds(),
        report.metrics.total_messages()
    );

    // 2. Synchronous safe-area baseline.
    let nr = NowakRybickiConfig::new(n, t, &tree).map_err(|e| format!("bad parameters: {e}"))?;
    let report = run_simulation(
        SimConfig {
            n,
            t,
            max_rounds: nr.rounds() + 5,
        },
        |id, _| NowakRybickiParty::new(id, nr.clone(), Arc::clone(&tree), inputs[id.index()]),
        CrashAdversary {
            crashes: faulty.iter().map(|&p| (p, 3)).collect(),
        },
    )?;
    check_tree_aa(&tree, &honest_inputs, &report.honest_outputs())?;
    println!(
        "synchronous safe-area   {:>6} rounds   {:>7} messages",
        report.communication_rounds(),
        report.metrics.total_messages()
    );

    // 3. Asynchronous safe-area protocol with a slow honest party: no
    //    round clock exists, so "time" counts normalized delay units.
    let acfg = AsyncTreeAaConfig::new(n, t, &tree).map_err(|e| format!("bad parameters: {e}"))?;
    let report = run_async(
        AsyncConfig {
            n,
            t,
            seed: 42,
            delay: DelayModel::SlowParties {
                slow: vec![PartyId(0)],
                min: 0.05,
            },
            max_events: 10_000_000,
            faults: FaultPlan::none(),
            record: false,
        },
        |id, _| AsyncTreeAaParty::new(acfg.clone(), Arc::clone(&tree), inputs[id.index()]),
        SilentAsync {
            parties: faulty.to_vec(),
        },
    )?;
    let outputs: Vec<_> = report
        .honest_outputs()
        .into_iter()
        .map(Outcome::into_value)
        .collect();
    check_tree_aa(&tree, &honest_inputs, &outputs)?;
    println!(
        "asynchronous safe-area  {:>6.1} time    {:>7} messages (slow-party schedule)",
        report.completion_time, report.messages_delivered
    );

    println!(
        "\nAll three satisfy Definition 2 on this run. The paper's point is the \
         first number's growth law: O(log|V|/loglog|V|) for TreeAA vs O(log D) \
         for both safe-area protocols — see experiments E3 and E13."
    );
    Ok(())
}
