//! End-to-end acceptance tests of the fault-injection layer on the
//! asynchronous stack — the async half of the degradation contract the
//! lockstep fuzzer checks via `--faults`:
//!
//! * under an *eventually-connected* fault plan (probabilistic drops,
//!   duplication, delay spikes, healing partitions, recovering crashes)
//!   the reliable-delivery sublayer keeps `AsyncTreeAA` terminating, and
//!   every honest output stays in the honest input hull;
//! * over-budget *permanent* crashes surface as structured `Degraded`
//!   outcomes whose evidence certificates are non-empty and actually
//!   demonstrate the over-budget condition — never as silently
//!   unguaranteed plain values.

use std::sync::Arc;

use async_aa::{AsyncTreeAaConfig, AsyncTreeAaParty};
use async_net::{run_async, AsyncConfig, DelayModel, Reliable, SilentAsync};
use sim_net::{CrashFault, FaultPlan, Outcome, Partition};
use tree_aa::check_tree_aa;
use tree_model::{generate, Tree, VertexId};

fn setup(n: usize) -> (Arc<Tree>, Vec<VertexId>) {
    let tree = Arc::new(generate::caterpillar(5, 2));
    let verts: Vec<VertexId> = tree.vertices().collect();
    let inputs = (0..n).map(|i| verts[(i * 3) % verts.len()]).collect();
    (tree, inputs)
}

#[test]
fn reliable_layer_rides_out_eventually_connected_faults() {
    let (n, t) = (4, 1);
    let (tree, inputs) = setup(n);
    let cfg = AsyncTreeAaConfig::new(n, t, &tree).unwrap();
    let plan = FaultPlan {
        seed: 5,
        drop_permille: 250,
        dup_permille: 150,
        delay_spike_permille: 100,
        partitions: vec![Partition {
            side: vec![0],
            from_round: 2,
            heal_round: 4,
        }],
        crashes: vec![CrashFault {
            party: 2,
            crash_round: 2,
            recover_round: 3,
        }],
    };
    plan.validate(n).unwrap();
    assert!(plan.eventually_connected());
    for seed in [1u64, 7, 23] {
        let report = run_async(
            AsyncConfig {
                n,
                t,
                seed,
                delay: DelayModel::Uniform { min: 0.1 },
                max_events: 5_000_000,
                faults: plan.clone(),
                record: false,
            },
            |id, _| {
                Reliable::new(
                    AsyncTreeAaParty::new(cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
                    n,
                )
            },
            SilentAsync {
                parties: Vec::new(),
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: run did not terminate: {e}"));
        assert!(
            report.metrics.fault_drops > 0,
            "seed {seed}: the plan never bit"
        );
        assert!(
            report.metrics.retransmissions > 0,
            "seed {seed}: losses were never repaired"
        );
        // Transient faults only: nobody ends up permanently crashed, and
        // every output — degraded or not — stays in the honest hull.
        assert!(report.crashed.iter().all(|&c| !c), "seed {seed}");
        let outputs: Vec<VertexId> = report
            .honest_outputs()
            .into_iter()
            .map(Outcome::into_value)
            .collect();
        check_tree_aa(&tree, &inputs, &outputs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn over_budget_permanent_crashes_degrade_survivors_with_certificates() {
    let (n, t) = (4, 1);
    let (tree, inputs) = setup(n);
    let cfg = AsyncTreeAaConfig::new(n, t, &tree).unwrap();
    let plan = FaultPlan {
        seed: 9,
        crashes: vec![
            CrashFault {
                party: 2,
                crash_round: 2,
                recover_round: u32::MAX,
            },
            CrashFault {
                party: 3,
                crash_round: 2,
                recover_round: u32::MAX,
            },
        ],
        ..FaultPlan::none()
    };
    assert!(!plan.eventually_connected());
    let report = run_async(
        AsyncConfig {
            n,
            t,
            seed: 3,
            delay: DelayModel::Uniform { min: 0.2 },
            max_events: 5_000_000,
            faults: plan.clone(),
            record: false,
        },
        |id, _| {
            Reliable::new(
                AsyncTreeAaParty::new(cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
                n,
            )
        },
        SilentAsync {
            parties: Vec::new(),
        },
    )
    .unwrap();
    assert_eq!(report.crashed, vec![false, false, true, true]);
    let survivors = report.honest_outputs();
    assert_eq!(survivors.len(), 2);
    for (i, outcome) in survivors.into_iter().enumerate() {
        match outcome {
            Outcome::Value(v) => {
                panic!("survivor {i} claims full guarantees ({v:?}) with 2 > t = 1 parties down")
            }
            Outcome::Degraded(d) => {
                assert!(!d.certificate.evidence.is_empty(), "survivor {i}");
                assert!(
                    d.certificate.exceeds_budget(),
                    "survivor {i}: {} observed within budget {}",
                    d.certificate.observed,
                    d.certificate.budget
                );
            }
        }
    }
}
