//! The gradecast-based `RealAA` protocol (Theorem 3's building block).

use gradecast::{BatchGradecast, GcBatchMsg, Grade, GradecastOutput};
use sim_net::{Inbox, PartyId, Payload, Protocol, RoundCtx};

use crate::multiset::trimmed_mean;
use crate::rounds::iterations_for;
use crate::value::R64;

/// Public parameters of a `RealAA(ε)` execution. All parties must be
/// constructed with identical configs (the parameters are public in the
/// model).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RealAaConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound; the protocol requires `t < n/3`.
    pub t: usize,
    /// Output agreement tolerance ε.
    pub eps: f64,
    /// Public promise: honest inputs are `diameter_bound`-close.
    pub diameter_bound: f64,
    /// When `true`, a party additionally terminates as soon as the spread
    /// of its *accepted* multiset is ≤ ε (sound early stopping: honest
    /// values all carry grade 2, so the accepted spread upper-bounds the
    /// honest spread; once the honest spread is ≤ ε, validity confines all
    /// future honest values — and hence all outputs — to that ε-window).
    pub early_stopping: bool,
    /// When `Some(r)`, run exactly `r` iterations instead of the
    /// [`iterations_for`] formula. Used by convergence experiments that
    /// deliberately under-provision rounds to trace the adversarial
    /// envelope; ε-agreement is only guaranteed when `r` is at least the
    /// formula value.
    pub iterations_override: Option<u32>,
    /// The public constant substituted for leaders whose gradecast was not
    /// accepted (grade 0), keeping every multiset at exactly `n` entries.
    /// Any public value works (at most `t` slots are non-honest, so the
    /// fills are trimmed whenever they are extreme); 0 by default.
    pub fill_value: f64,
    /// **Ablation only — weakens the protocol.** Skip the fill rule and
    /// average the accepted values alone (variable-size multisets). A
    /// planted extreme value then shifts the trim window and the
    /// per-iteration divergence can reach `range/2` instead of
    /// `t_i/(n−2t)`; the `e10_ablations` experiment quantifies it.
    pub ablate_variable_multisets: bool,
    /// **Ablation only — weakens the protocol.** Never mute detected
    /// equivocators. A single Byzantine leader can then cause an
    /// inconsistency in *every* iteration and round optimality is lost;
    /// quantified by `e10_ablations`.
    pub ablate_no_muting: bool,
}

impl RealAaConfig {
    /// Creates a fixed-round configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated precondition if `n ≤ 3t`,
    /// `eps ≤ 0`, or `diameter_bound < 0` (or either is non-finite).
    pub fn new(n: usize, t: usize, eps: f64, diameter_bound: f64) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!("RealAA requires n > 3t, got n = {n}, t = {t}"));
        }
        if !eps.is_finite() || eps <= 0.0 {
            return Err(format!("epsilon must be positive and finite, got {eps}"));
        }
        if !diameter_bound.is_finite() || diameter_bound < 0.0 {
            return Err(format!(
                "diameter bound must be finite and >= 0, got {diameter_bound}"
            ));
        }
        Ok(RealAaConfig {
            n,
            t,
            eps,
            diameter_bound,
            early_stopping: false,
            iterations_override: None,
            fill_value: 0.0,
            ablate_variable_multisets: false,
            ablate_no_muting: false,
        })
    }

    /// Enables early stopping (see [`RealAaConfig::early_stopping`]).
    pub fn with_early_stopping(mut self) -> Self {
        self.early_stopping = true;
        self
    }

    /// Fixes the iteration count (see
    /// [`RealAaConfig::iterations_override`]).
    pub fn with_fixed_iterations(mut self, r: u32) -> Self {
        self.iterations_override = Some(r);
        self
    }

    /// Enables the variable-multiset ablation (see
    /// [`RealAaConfig::ablate_variable_multisets`]; weakens the protocol).
    pub fn with_ablated_fill_rule(mut self) -> Self {
        self.ablate_variable_multisets = true;
        self
    }

    /// Enables the no-muting ablation (see
    /// [`RealAaConfig::ablate_no_muting`]; weakens the protocol).
    pub fn with_ablated_muting(mut self) -> Self {
        self.ablate_no_muting = true;
        self
    }

    /// The fixed iteration count `R` of this configuration.
    pub fn iterations(&self) -> u32 {
        self.iterations_override
            .unwrap_or_else(|| iterations_for(self.diameter_bound, self.eps))
    }

    /// Total communication rounds of the fixed-round protocol
    /// (3 per iteration).
    pub fn rounds(&self) -> u32 {
        3 * self.iterations()
    }
}

/// A `RealAA` wire message: a gradecast batch tagged with its iteration.
///
/// Messages with tags other than the receiver's current phase are ignored
/// (a Byzantine party gains nothing by replaying across iterations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RealAaMsg {
    /// Iteration index (0-based).
    pub iter: u32,
    /// The gradecast batch body.
    pub body: GcBatchMsg<R64>,
}

impl Payload for RealAaMsg {
    fn size_bytes(&self) -> usize {
        4 + self.body.size_bytes()
    }
}

/// Reused buffers for [`Instance::finish_iteration`], so a bundle runs
/// thousands of instances per round without allocating.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    multiset: Vec<f64>,
    accepted: Vec<f64>,
}

/// One `RealAA` instance's state between iterations: value, muted set
/// and termination. [`RealAaParty`] holds one and the bundled
/// party one per instance, so both run the literal same iteration rule
/// and their value trajectories are bit-identical by construction.
#[derive(Clone, Debug)]
pub(crate) struct Instance {
    /// The current value (the input before the first iteration).
    pub value: f64,
    /// Leaders muted so far (carried across iterations).
    pub muted: Vec<bool>,
    /// Spread of the accepted multiset in the last completed iteration.
    last_accepted_spread: f64,
    /// The decided value, once terminated.
    pub output: Option<f64>,
}

impl Instance {
    /// A fresh instance with `input` and no leader muted.
    pub fn new(n: usize, input: f64) -> Self {
        Instance {
            value: input,
            muted: vec![false; n],
            last_accepted_spread: f64::INFINITY,
            output: None,
        }
    }

    /// Completes iteration `iter_tag` from its gradecast grades: emits a
    /// `gc.grade` event per leader and a `realaa.iter` summary (with an
    /// `inst` field when bundled), then applies the iteration rule —
    /// multiset construction with the fill rule, muting, accepted-range
    /// scan, trimmed mean.
    ///
    /// The accepted-range scan and the trimmed-mean sum run through the
    /// `aa-kernels` chunked kernels: exact left-to-right/streaming
    /// semantics below the dispatch threshold (recorded small-n traces
    /// unchanged), auto-vectorized at the n ≥ 1024 scale sizes.
    pub fn finish_iteration<M: Payload>(
        &mut self,
        cfg: &RealAaConfig,
        outputs: &[GradecastOutput<R64>],
        iter_tag: u32,
        inst: Option<usize>,
        ctx: &mut RoundCtx<M>,
        scratch: &mut Scratch,
    ) {
        let Scratch { multiset, accepted } = scratch;
        let event = |label: &str| {
            let ev = sim_net::ProtoEvent::new(label).u64("iter", u64::from(iter_tag));
            match inst {
                Some(i) => ev.u64("inst", i as u64),
                None => ev,
            }
        };
        for (leader, out) in outputs.iter().enumerate() {
            ctx.emit_with(|| {
                let mut ev = event("gc.grade")
                    .u64("leader", leader as u64)
                    .u64("grade", u64::from(out.grade.as_u8()));
                if let Some(v) = out.value {
                    ev = ev.f64("value", v.get());
                }
                ev
            });
        }
        // Build the size-n multiset: one slot per leader, the accepted
        // value for grades >= 1 and the public fill constant otherwise.
        // Keeping every honest multiset at exactly n entries is
        // essential: two honest multisets then differ in at most t_i
        // *replacements* (the leaders burned this iteration), and the
        // trimmed means of equal-size multisets differing in k
        // replacements diverge by at most k * range / (n - 2t) — the
        // envelope behind Theorem 3. (With variable-size multisets, one
        // planted extreme value shifts the whole trim window and the
        // divergence can reach range/2.)
        multiset.clear();
        accepted.clear();
        for (leader, out) in outputs.iter().enumerate() {
            // Acceptance is purely grade-based; muting below only
            // affects future relaying (see crate docs).
            if out.accepted() {
                let v = out.value.expect("accepted implies value").get();
                multiset.push(v);
                accepted.push(v);
            } else if !cfg.ablate_variable_multisets {
                multiset.push(cfg.fill_value);
            }
            if out.grade <= Grade::One && !cfg.ablate_no_muting {
                self.muted[leader] = true;
            }
        }
        let range = aa_kernels::min_max_f64(accepted);
        self.last_accepted_spread = range.map_or(f64::INFINITY, |(lo, hi)| hi - lo);
        // The multiset always has n > 3t > 2t entries, so the mean
        // exists; keeping the current value otherwise would preserve
        // validity regardless.
        if let Some(mean) = trimmed_mean(multiset, cfg.t) {
            self.value = mean;
        }
        ctx.emit_with(|| {
            let mut ev = event("realaa.iter");
            if let Some((lo, hi)) = range {
                ev = ev.f64("lo", lo).f64("hi", hi).f64("spread", hi - lo);
            }
            ev.f64("value", self.value)
        });
    }

    /// Applies the termination rule after a completed iteration: output
    /// when `schedule_done` (the fixed iteration count is reached) or,
    /// with early stopping, when the accepted spread is at most ε.
    /// Returns whether the instance has output.
    pub fn maybe_terminate(&mut self, cfg: &RealAaConfig, schedule_done: bool) -> bool {
        let early = cfg.early_stopping && self.last_accepted_spread <= cfg.eps;
        if self.output.is_none() && (schedule_done || early) {
            self.output = Some(self.value);
        }
        self.output.is_some()
    }
}

/// One party of the `RealAA(ε)` protocol.
///
/// Iteration `i` (0-based) occupies rounds `3i+1` (lead), `3i+2` (echo) and
/// `3i+3` (vote); the votes are delivered — and the value updated — at the
/// start of round `3i+4`, which is also the next iteration's lead round, so
/// iterations are seamlessly pipelined and the protocol uses exactly `3R`
/// communication rounds. Every round the party broadcasts one
/// [`GcBatchMsg`] covering all `n` gradecast instances.
#[derive(Clone, Debug)]
pub struct RealAaParty {
    cfg: RealAaConfig,
    state: Instance,
    gc: BatchGradecast<R64>,
    iterations_done: u32,
    scratch: Scratch,
}

impl RealAaParty {
    /// Creates the party with its input value.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not finite or `me` is out of range (honest
    /// inputs are real values; a non-finite input is a harness bug).
    pub fn new(me: PartyId, cfg: RealAaConfig, input: f64) -> Self {
        assert!(input.is_finite(), "honest inputs must be finite");
        assert!(me.index() < cfg.n, "party id out of range");
        RealAaParty {
            cfg,
            state: Instance::new(cfg.n, input),
            gc: BatchGradecast::new(me, cfg.n, cfg.t),
            iterations_done: 0,
            scratch: Scratch::default(),
        }
    }

    /// The party's current value (its input before round 1, its running
    /// estimate afterwards).
    pub fn current_value(&self) -> f64 {
        self.state.value
    }

    fn finish_iteration(
        &mut self,
        inbox: &Inbox<RealAaMsg>,
        iter_tag: u32,
        ctx: &mut RoundCtx<RealAaMsg>,
    ) {
        let outputs = self.gc.on_votes(
            inbox
                .iter()
                .filter(|e| e.payload.iter == iter_tag)
                .map(|e| (e.from, &e.payload.body)),
        );
        self.state
            .finish_iteration(&self.cfg, &outputs, iter_tag, None, ctx, &mut self.scratch);
        self.iterations_done += 1;
    }

    fn start_iteration(&mut self, ctx: &mut RoundCtx<RealAaMsg>, iter_tag: u32) {
        self.gc.reset_with_muted(&self.state.muted);
        ctx.broadcast(RealAaMsg {
            iter: iter_tag,
            body: self.gc.lead_msg(R64::new(self.state.value)),
        });
    }
}

impl Protocol for RealAaParty {
    type Msg = RealAaMsg;
    type Output = f64;

    fn step(&mut self, round: u32, inbox: &Inbox<RealAaMsg>, ctx: &mut RoundCtx<RealAaMsg>) {
        if self.state.output.is_some() {
            return;
        }
        if (round == 1 && self.cfg.iterations() == 0) || round > self.cfg.rounds() + 1 {
            // Inputs are promised ε-close already, or we are past the
            // schedule (a benign fault froze us through the decision
            // round): adopt the current value, which never leaves the
            // hull of accepted values.
            self.state.output = Some(self.state.value);
            return;
        }
        let phase = (round - 1) % 3;
        let iter_tag = (round - 1) / 3;
        let tagged = |tag: u32| {
            inbox
                .iter()
                .filter(move |e| e.payload.iter == tag)
                .map(|e| (e.from, &e.payload.body))
        };
        match phase {
            0 => {
                // Finish the previous iteration (if any), then lead the
                // next one.
                if iter_tag > 0 {
                    self.finish_iteration(inbox, iter_tag - 1, ctx);
                    let schedule_done = self.iterations_done >= self.cfg.iterations();
                    if self.state.maybe_terminate(&self.cfg, schedule_done) {
                        return;
                    }
                }
                self.start_iteration(ctx, iter_tag);
            }
            1 => {
                let batch = self.gc.on_leads(tagged(iter_tag));
                ctx.broadcast(RealAaMsg {
                    iter: iter_tag,
                    body: batch,
                });
            }
            _ => {
                let batch = self.gc.on_echoes(tagged(iter_tag));
                ctx.broadcast(RealAaMsg {
                    iter: iter_tag,
                    body: batch,
                });
            }
        }
    }

    fn output(&self) -> Option<f64> {
        self.state.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::{run_simulation, CrashAdversary, EngineConfig, Passive, SimConfig, StepMode};

    fn spread(outs: &[f64]) -> f64 {
        let lo = outs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }

    #[test]
    fn message_sizes_are_deep() {
        use std::sync::Arc;
        // Lead: 4 iter + 1 tag + the R64 value's own 8 bytes (not
        // size_of::<R64>() shallow).
        let lead = RealAaMsg {
            iter: 0,
            body: GcBatchMsg::Lead(R64::new(1.0)),
        };
        assert_eq!(lead.size_bytes(), 4 + 9);
        // Full 8-slot echo batch: 4 iter + 1 tag + 1 bitmap + 8 × 8.
        let echoes = RealAaMsg {
            iter: 1,
            body: GcBatchMsg::Echoes(Arc::new(gradecast::GcSlots::from_options(
                (0..8).map(|i| Some(R64::new(i as f64))).collect(),
            ))),
        };
        assert_eq!(echoes.size_bytes(), 4 + 1 + 1 + 64);
    }

    fn run_honest(n: usize, t: usize, eps: f64, d: f64, inputs: &[f64]) -> Vec<f64> {
        let cfg = RealAaConfig::new(n, t, eps, d).unwrap();
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        report.honest_outputs()
    }

    #[test]
    fn all_honest_exact_agreement_after_first_iteration() {
        // With no Byzantine interference the honest range collapses to a
        // point in the very first iteration.
        let outs = run_honest(4, 1, 1.0, 100.0, &[0.0, 100.0, 40.0, 60.0]);
        assert_eq!(spread(&outs), 0.0);
        // Trimmed mean of all four values: drop 0 and 100, mean(40,60).
        assert!((outs[0] - 50.0).abs() < 1e-12);
    }

    #[test]
    fn validity_within_input_range() {
        let inputs = [2.0, 9.0, 5.0, 7.0, 3.0, 8.0, 4.0];
        let outs = run_honest(7, 2, 0.5, 10.0, &inputs);
        for &o in &outs {
            assert!(
                (2.0..=9.0).contains(&o),
                "output {o} escaped the input range"
            );
        }
    }

    #[test]
    fn zero_iteration_config_outputs_inputs() {
        let outs = run_honest(4, 1, 2.0, 1.0, &[0.3, 0.9, 0.5, 0.7]);
        assert_eq!(outs, vec![0.3, 0.9, 0.5, 0.7]);
    }

    #[test]
    fn crash_faults_tolerated() {
        let cfg = RealAaConfig::new(4, 1, 1.0, 8.0).unwrap();
        let inputs = [0.0, 8.0, 2.0, 6.0];
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            CrashAdversary {
                crashes: vec![(PartyId(1), 2)],
            },
        )
        .unwrap();
        let outs = report.honest_outputs();
        assert!(spread(&outs) <= 1.0);
        for &o in &outs {
            assert!((0.0..=8.0).contains(&o));
        }
    }

    #[test]
    fn early_stopping_halts_after_one_iteration_without_faults() {
        let cfg = RealAaConfig::new(4, 1, 1.0, 1000.0)
            .unwrap()
            .with_early_stopping();
        assert!(cfg.iterations() > 2);
        let inputs = [0.0, 1000.0, 400.0, 600.0];
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        // One full iteration (rounds 1-3) plus the quiet processing round.
        assert_eq!(report.communication_rounds(), 3 + 3);
        // Spread is 0 after iteration 1; parties stop after iteration 2
        // confirms it (accepted spread measured on iteration-1 values is
        // the input spread, which exceeds eps).
        let outs = report.honest_outputs();
        assert_eq!(spread(&outs), 0.0);
    }

    #[test]
    fn fixed_round_count_matches_config() {
        let cfg = RealAaConfig::new(4, 1, 1.0, 64.0).unwrap();
        let inputs = [0.0, 64.0, 10.0, 30.0];
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        assert_eq!(report.communication_rounds(), cfg.rounds());
    }

    #[test]
    fn config_rejects_bad_parameters() {
        assert!(RealAaConfig::new(3, 1, 1.0, 1.0).is_err());
        assert!(RealAaConfig::new(4, 1, 0.0, 1.0).is_err());
        assert!(RealAaConfig::new(4, 1, 1.0, -1.0).is_err());
        assert!(RealAaConfig::new(4, 1, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn identical_inputs_identical_outputs() {
        let outs = run_honest(4, 1, 0.1, 50.0, &[7.0, 7.0, 7.0, 7.0]);
        assert!(outs.iter().all(|&o| o == 7.0));
    }

    #[test]
    fn step_modes_agree_with_byte_identical_traces_n256() {
        // Kernel fast paths genuinely engage here: full echo batches at
        // n = 256 take the eq_count sweep and the trimmed slice has
        // n − 2t = 172 ≥ 128 elements, exercising the chunked sum.
        let n = 256;
        let t = 42;
        let cfg = RealAaConfig::new(n, t, 1.0, 2.0).unwrap();
        let inputs: Vec<f64> = (0..n).map(|i| (i % 17) as f64 / 8.0).collect();
        let run = |mode| {
            let mut report = run_simulation(
                EngineConfig {
                    step_mode: mode,
                    trace: true,
                    ..EngineConfig::from(SimConfig {
                        n,
                        t,
                        max_rounds: 10 + cfg.rounds(),
                    })
                },
                |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
                CrashAdversary {
                    crashes: vec![(PartyId(3), 2)],
                },
            )
            .unwrap();
            let trace = report.trace.take().expect("tracing is on");
            (report, trace)
        };
        let (ref_report, ref_trace) = run(StepMode::Sequential);
        let ref_bytes = ref_trace.to_canonical_string();
        for mode in [
            StepMode::Parallel { threads: 3 },
            StepMode::Parallel { threads: 0 },
        ] {
            let (report, trace) = run(mode);
            assert_eq!(report, ref_report, "mode {mode:?} diverged");
            assert_eq!(
                trace.to_canonical_string(),
                ref_bytes,
                "mode {mode:?} trace not byte-identical"
            );
        }
        // Trace byte accounting reconciles with the metrics.
        aa_trace::check_round_totals(&ref_trace).unwrap();
        let totals = aa_trace::recomputed_totals(&ref_trace);
        assert_eq!(totals.bytes, ref_report.metrics.total_bytes());
    }
}

#[cfg(test)]
mod trajectory_tests {
    use super::*;
    use aa_trace::Json;
    use sim_net::{run_simulation, EngineConfig, EventKind, Passive, SimConfig, StepMode};

    /// Every completed iteration emits one `realaa.iter` event per party
    /// carrying the value after that iteration.
    #[test]
    fn iteration_events_record_every_value() {
        let n = 4;
        let t = 1;
        let cfg = RealAaConfig::new(n, t, 1.0, 64.0).unwrap();
        let inputs = [0.0, 64.0, 16.0, 48.0];
        let report = run_simulation(
            EngineConfig {
                step_mode: StepMode::Sequential,
                trace: true,
                ..EngineConfig::from(SimConfig {
                    n,
                    t,
                    max_rounds: cfg.rounds() + 1,
                })
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        assert_eq!(report.honest_outputs().len(), n);
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); n];
        for e in &report.trace.as_ref().expect("tracing is on").events {
            if let EventKind::Proto { party, event } = &e.kind {
                if event.label == "realaa.iter" {
                    let Some(Json::Num(v)) = event.field("value") else {
                        panic!("realaa.iter without a numeric value");
                    };
                    values[*party].push(*v);
                }
            }
        }
        for h in &values {
            assert_eq!(h.len() as u32, cfg.iterations());
            // Honest run: iteration 1 collapses everyone to the same
            // trimmed mean, which then persists.
            assert_eq!(h[0], 32.0); // mean of {16, 48} after trimming 0/64
            assert!(h.windows(2).all(|w| w[0] == w[1]));
        }
    }
}
