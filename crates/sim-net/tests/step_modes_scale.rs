//! Sequential ≡ Parallel determinism at scale.
//!
//! The unit tests in `engine.rs` pin the step-mode invariants at n ≤ 7;
//! these runs exercise the work-stealing scheduler where it actually has
//! work to schedule — n ∈ {256, 1024}, thread counts {2, 3, 0 = cores} —
//! and assert the two guarantees the engine documents:
//!
//! * **bit-identical `RunReport`s**: outputs, corruption state, rounds,
//!   and every per-round metric are equal across modes;
//! * **byte-identical traces**: the canonical JSON rendering of a traced
//!   run is the same string no matter how threads were scheduled.
//!
//! The protocol is deliberately cheap (broadcast id, echo back the sum of
//! what was heard, then output) so the suite stays fast in debug builds
//! while still flowing n broadcasts through every inbox each round.

use sim_net::{
    run_simulation, CrashAdversary, EngineConfig, Inbox, PartyId, Protocol, RoundCtx, SimConfig,
    StepMode,
};

/// Three rounds of all-to-all traffic with state that depends on every
/// received message, so any mis-scheduled or reordered delivery changes
/// the output.
struct SumEcho {
    id: usize,
    heard: u64,
    done: Option<u64>,
}

impl Protocol for SumEcho {
    type Msg = u64;
    type Output = u64;

    fn step(&mut self, round: u32, inbox: &Inbox<u64>, ctx: &mut RoundCtx<u64>) {
        match round {
            1 => ctx.broadcast(self.id as u64),
            2 => {
                self.heard = inbox.iter().map(|r| r.payload).sum();
                ctx.broadcast(self.heard.wrapping_mul(31).wrapping_add(self.id as u64));
            }
            _ => {
                if self.done.is_none() {
                    self.done = Some(inbox.iter().map(|r| r.payload).sum());
                }
            }
        }
    }

    fn output(&self) -> Option<u64> {
        self.done
    }
}

fn factory(id: PartyId, _n: usize) -> SumEcho {
    SumEcho {
        id: id.index(),
        heard: 0,
        done: None,
    }
}

fn cfg(n: usize, mode: StepMode, trace: bool) -> EngineConfig {
    EngineConfig {
        step_mode: mode,
        trace,
        ..EngineConfig::from(SimConfig {
            n,
            t: (n - 1) / 3,
            max_rounds: 6,
        })
    }
}

/// A crash mid-protocol makes the runs assert determinism under
/// adversarial state changes too, not just on the happy path.
fn adversary(n: usize) -> CrashAdversary {
    CrashAdversary {
        crashes: vec![(PartyId(n / 2), 2)],
    }
}

const PARALLEL_MODES: [StepMode; 3] = [
    StepMode::Parallel { threads: 2 },
    StepMode::Parallel { threads: 3 },
    StepMode::Parallel { threads: 0 },
];

fn assert_modes_agree(n: usize) {
    let reference =
        run_simulation(cfg(n, StepMode::Sequential, false), factory, adversary(n)).unwrap();
    assert_eq!(reference.rounds_executed, 3);
    for mode in PARALLEL_MODES {
        let report = run_simulation(cfg(n, mode, false), factory, adversary(n)).unwrap();
        assert_eq!(report, reference, "n={n} mode {mode:?} diverged");
    }
}

fn assert_traces_agree(n: usize) {
    let ref_report =
        run_simulation(cfg(n, StepMode::Sequential, true), factory, adversary(n)).unwrap();
    let ref_trace = ref_report.trace.as_ref().expect("tracing is on");
    let ref_bytes = ref_trace.to_canonical_string();
    for mode in PARALLEL_MODES {
        let report = run_simulation(cfg(n, mode, true), factory, adversary(n)).unwrap();
        let trace = report.trace.as_ref().expect("tracing is on");
        assert_eq!(
            trace.to_canonical_string(),
            ref_bytes,
            "n={n} mode {mode:?} trace not byte-identical"
        );
        assert_eq!(report, ref_report, "n={n} mode {mode:?} report diverged");
    }
    aa_trace::check_round_totals(ref_trace).unwrap();
}

#[test]
fn reports_bit_identical_n256() {
    assert_modes_agree(256);
}

#[test]
fn reports_bit_identical_n1024() {
    assert_modes_agree(1024);
}

#[test]
fn traces_byte_identical_n256() {
    assert_traces_agree(256);
}

#[test]
fn traces_byte_identical_n1024() {
    assert_traces_agree(1024);
}
