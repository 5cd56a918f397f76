//! The bundled-AA equivalence suite: every instance of a
//! [`BundledAaParty`] bundle must be observably identical to running
//! that instance alone as a [`RealAaParty`] — same outputs, same
//! run length, same degradation verdicts, and the same protocol-level
//! trace events (grades and iteration summaries) — under honest,
//! crashing, equivocating, and scheduled-fault executions, in both the
//! sequential and the parallel stepping engine.
//!
//! This is the proof obligation that makes bundling safe to use for
//! throughput: amortizing k instances over one wire must not change any
//! single instance's semantics.

use std::sync::Arc;

use aa_trace::Json;
use gradecast::{GcBatchMsg, GcBundleMsg, GcSlots};
use real_aa::{BundledAaMsg, BundledAaParty, RealAaConfig, RealAaMsg, RealAaParty, R64};
use sim_net::{
    run_simulation, Adversary, AdversaryCtx, CrashAdversary, CrashFault, EngineConfig, EventKind,
    FaultPlan, Partition, PartyId, Passive, SimConfig, StaticByzantine, StepMode, Trace,
};

const N: usize = 7;
const T: usize = 2;
const EPS: f64 = 0.5;
const DIAM: f64 = 10.0;

/// Both engine paths under test.
const MODES: [StepMode; 2] = [StepMode::Sequential, StepMode::Parallel { threads: 2 }];

fn cfg(early: bool) -> RealAaConfig {
    let c = RealAaConfig::new(N, T, EPS, DIAM).expect("valid config");
    if early {
        c.with_early_stopping()
    } else {
        c
    }
}

/// Deterministic per-(party, instance) inputs. Every third instance is
/// ε-tight from the start so, with early stopping, instances terminate
/// at different iterations — exercising the partial-presence outer
/// bitmaps (a finished instance's slot goes absent on the wire).
fn input(p: usize, j: usize) -> f64 {
    if j.is_multiple_of(3) {
        5.0 + (p as f64) * 0.01
    } else {
        ((p * 31 + j * 17 + 3) % 101) as f64 / 100.0 * DIAM
    }
}

/// A traced run in `mode` under `plan`.
fn engine(cfg: &RealAaConfig, mode: StepMode, plan: &FaultPlan) -> EngineConfig {
    EngineConfig {
        step_mode: mode,
        faults: plan.clone(),
        trace: true,
        ..EngineConfig::from(SimConfig {
            n: N,
            t: T,
            max_rounds: 10 + cfg.rounds(),
        })
    }
}

/// `(round, party, label, fields)` — a protocol event with enough
/// context to compare across runs.
type NormEvent = (u32, usize, String, Vec<(String, Json)>);

/// The bundled trace restricted to instance `inst`, with the `inst`
/// field stripped: what that instance "saw" of the run.
fn bundled_instance_events(trace: &Trace, inst: u64) -> Vec<NormEvent> {
    trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Proto { party, event } => {
                let this = event.field("inst").and_then(Json::as_u64)?;
                (this == inst).then(|| {
                    (
                        e.round,
                        *party,
                        event.label.clone(),
                        event
                            .fields
                            .iter()
                            .filter(|(k, _)| k != "inst")
                            .cloned()
                            .collect(),
                    )
                })
            }
            _ => None,
        })
        .collect()
}

fn solo_events(trace: &Trace) -> Vec<NormEvent> {
    trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Proto { party, event } => {
                Some((e.round, *party, event.label.clone(), event.fields.clone()))
            }
            _ => None,
        })
        .collect()
}

/// The differential harness: one bundled run of `k` instances vs `k`
/// independent solo runs under semantically identical adversaries
/// and the same fault plan, compared per instance on outputs, verdicts,
/// trace events, and (across the bundle) total run length.
fn assert_bundle_equivalent<AB, AS>(
    cfg: RealAaConfig,
    k: usize,
    mode: StepMode,
    plan: &FaultPlan,
    adv_bundle: AB,
    mut adv_solo: impl FnMut() -> AS,
) where
    AB: Adversary<BundledAaMsg>,
    AS: Adversary<RealAaMsg>,
{
    let mut bundled = run_simulation(
        engine(&cfg, mode, plan),
        |id, _| {
            BundledAaParty::new(id, cfg, (0..k).map(|j| input(id.index(), j)).collect())
                .expect("k >= 1")
        },
        adv_bundle,
    )
    .expect("bundled run");
    let btrace = bundled.trace.take().expect("tracing is on");

    let mut slowest = 0;
    for j in 0..k {
        let solo = run_simulation(
            engine(&cfg, mode, plan),
            |id, _| RealAaParty::new(id, cfg, input(id.index(), j)),
            adv_solo(),
        )
        .expect("solo run");
        let strace = solo.trace.as_ref().expect("tracing is on");

        for p in 0..cfg.n {
            assert_eq!(
                bundled.outputs[p].as_ref().map(|v| v[j]),
                solo.outputs[p],
                "instance {j}, party {p}: bundled output diverges from solo ({mode:?})"
            );
        }
        assert_eq!(
            bundled.corrupted, solo.corrupted,
            "instance {j}: corruption verdicts diverge ({mode:?})"
        );
        assert_eq!(
            bundled.crashed, solo.crashed,
            "instance {j}: crash verdicts diverge ({mode:?})"
        );
        assert_eq!(
            bundled_instance_events(&btrace, j as u64),
            solo_events(strace),
            "instance {j}: protocol event streams diverge ({mode:?})"
        );
        slowest = slowest.max(solo.rounds_executed);
    }
    assert_eq!(
        bundled.rounds_executed, slowest,
        "bundled run length must equal the slowest instance's ({mode:?})"
    );
}

#[test]
fn honest_bundles_match_solo_runs() {
    for k in [1, 3, 17] {
        for mode in MODES {
            assert_bundle_equivalent(cfg(true), k, mode, &FaultPlan::none(), Passive, || Passive);
        }
    }
}

#[test]
fn crashing_bundles_match_solo_runs() {
    // Crashes land in rounds 2 and 3 — inside every instance's active
    // window (the earliest an instance can terminate is round 4), so the
    // bundled run and every solo run see the identical fault pattern
    // even though the runs have different lengths.
    let crashes = || CrashAdversary {
        crashes: vec![(PartyId(1), 2), (PartyId(4), 3)],
    };
    for k in [1, 3] {
        for mode in MODES {
            assert_bundle_equivalent(cfg(true), k, mode, &FaultPlan::none(), crashes(), crashes);
        }
    }
}

#[test]
fn equivocating_bundles_match_solo_runs() {
    // Leader 0 equivocates its round-1 lead — 0.0 to parties 1..=3,
    // DIAM to 4..=6 — expressed once on the bundled wire (the same lie
    // in every instance's slot) and once per solo wire.
    for k in [1, 3] {
        for mode in MODES {
            let adv_bundle = StaticByzantine {
                parties: vec![PartyId(0)],
                behave: move |ctx: &mut AdversaryCtx<'_, BundledAaMsg>| {
                    if ctx.round() == 1 {
                        for i in 1..N {
                            let v = if i <= 3 { 0.0 } else { DIAM };
                            let leads = GcSlots::from_options(vec![Some(R64::new(v)); k]);
                            ctx.send(
                                PartyId(0),
                                PartyId(i),
                                BundledAaMsg {
                                    iter: 0,
                                    body: GcBundleMsg::Leads(Arc::new(leads)),
                                },
                            );
                        }
                    }
                },
            };
            let adv_solo = || StaticByzantine {
                parties: vec![PartyId(0)],
                behave: |ctx: &mut AdversaryCtx<'_, RealAaMsg>| {
                    if ctx.round() == 1 {
                        for i in 1..N {
                            let v = if i <= 3 { 0.0 } else { DIAM };
                            ctx.send(
                                PartyId(0),
                                PartyId(i),
                                RealAaMsg {
                                    iter: 0,
                                    body: GcBatchMsg::Lead(R64::new(v)),
                                },
                            );
                        }
                    }
                },
            };
            assert_bundle_equivalent(
                cfg(false),
                k,
                mode,
                &FaultPlan::none(),
                adv_bundle,
                adv_solo,
            );
        }
    }
}

#[test]
fn faulted_schedules_match_solo_runs() {
    // A healing partition plus a crash/recovery window: scheduled faults
    // that the lockstep engine injects identically into both runs. Both
    // windows close by round 4 — before the earliest possible instance
    // termination — so every solo run experiences the full plan no
    // matter how short it is.
    let plan = FaultPlan {
        seed: 0,
        drop_permille: 0,
        dup_permille: 0,
        delay_spike_permille: 0,
        partitions: vec![Partition {
            side: vec![2],
            from_round: 2,
            heal_round: 4,
        }],
        crashes: vec![CrashFault {
            party: 1,
            crash_round: 2,
            recover_round: 4,
        }],
    };
    assert!(plan.lockstep_compatible() && plan.eventually_connected());
    for k in [1, 3] {
        for mode in MODES {
            assert_bundle_equivalent(cfg(true), k, mode, &plan, Passive, || Passive);
        }
    }
}
