//! Regression: the engine's parallel stepping path must be *bit-identical*
//! to the sequential reference — same outputs, same per-round metrics,
//! same adversary observations — because protocol rounds are pure
//! functions of their inboxes and outboxes are collected in party-id
//! order regardless of thread scheduling.
//!
//! The honest matrix covers the sizes the experiments use (below and
//! above `PARALLEL_THRESHOLD`); the rushing run pins down the adversary
//! path, whose tentative-outbox views must also be order-stable.

use real_aa::adversary::BudgetSplitEquivocator;
use real_aa::{RealAaConfig, RealAaParty};
use sim_net::{run_simulation, EngineConfig, PartyId, RunReport, SimConfig, StepMode};

fn run_mode(n: usize, mode: StepMode) -> RunReport<f64> {
    let t = (n - 1) / 3;
    let cfg = RealAaConfig::new(n, t, 1.0, 100.0).unwrap();
    let inputs: Vec<f64> = (0..n).map(|i| 100.0 * i as f64 / (n - 1) as f64).collect();
    run_simulation(
        EngineConfig {
            step_mode: mode,
            ..EngineConfig::from(SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            })
        },
        |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
        sim_net::Passive,
    )
    .unwrap()
}

#[test]
fn parallel_equals_sequential_across_sizes() {
    for n in [4usize, 7, 16, 64] {
        let sequential = run_mode(n, StepMode::Sequential);
        for mode in [
            StepMode::Auto,
            StepMode::Parallel { threads: 0 },
            StepMode::Parallel { threads: 2 },
            StepMode::Parallel { threads: 5 },
        ] {
            let report = run_mode(n, mode);
            assert_eq!(report, sequential, "n = {n}, mode {mode:?} diverged");
        }
    }
}

#[test]
fn parallel_equals_sequential_under_rushing_adversary() {
    // The equivocator is *rushing*: it inspects every party's tentative
    // outbox for the round before rewriting its own traffic, so any
    // cross-mode difference in outbox collection order would surface as a
    // different attack and different honest outputs.
    let (n, t) = (7usize, 2usize);
    let cfg = RealAaConfig::new(n, t, 1.0, 100.0).unwrap();
    let inputs = [0.0, 0.0, 0.0, 100.0, 30.0, 60.0, 90.0];
    let run = |mode: StepMode| {
        run_simulation(
            EngineConfig {
                step_mode: mode,
                ..EngineConfig::from(SimConfig {
                    n,
                    t,
                    max_rounds: cfg.rounds() + 5,
                })
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            BudgetSplitEquivocator::new(n, vec![PartyId(0), PartyId(1)], vec![1, 1]),
        )
        .unwrap()
    };
    let sequential = run(StepMode::Sequential);
    for mode in [
        StepMode::Auto,
        StepMode::Parallel { threads: 0 },
        StepMode::Parallel { threads: 3 },
    ] {
        assert_eq!(
            run(mode),
            sequential,
            "mode {mode:?} diverged under adversary"
        );
    }
}
