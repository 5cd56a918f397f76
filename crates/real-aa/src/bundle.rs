//! The bundled `RealAA` party: k in-flight instances over one wire.
//!
//! [`RealAaParty`](crate::RealAaParty) amortizes gradecast framing
//! across the n *leaders* of one AA instance;
//! [`BundledAaParty`] amortizes it across k concurrent *instances* as
//! well. Every round each party broadcasts **one**
//! [`GcBundleMsg`] whose outer slots range over instances (absent =
//! that instance already terminated here), so the per-round message
//! count — and, over real sockets, the syscall count — is that of a
//! single instance no matter how many are in flight.
//!
//! # Equivalence
//!
//! Instance `j` of a bundle is driven by its own
//! [`BatchGradecast`](gradecast::BatchGradecast) core and its own
//! muted set, value, and early-stopping state, all fed through
//! the literal iteration rule of the standalone party.
//! The differential suite in `tests/bundle_equiv.rs` checks the
//! resulting guarantee end to end: outputs, round counts, hull
//! trajectories, and per-instance trace events (keyed by the `inst`
//! field) are bit-identical to running each instance alone under
//! honest, crash, equivocating, and scheduled-fault adversaries, in
//! both engine step modes.
//!
//! # Async wiring
//!
//! The party also implements [`AsyncProtocol`] as a timer-paced
//! lockstep adapter: each message's round is recomputed from its
//! content (`Leads` → 3i+1, `Echoes` → 3i+2, `Votes` → 3i+3), arrivals
//! are buffered per round, and a local round timer — one and a half
//! delay bounds, so every in-round send lands before the next tick —
//! drives the same `step` function the synchronous engine calls. Late
//! arrivals are omissions, exactly the synchronous model's reading, so
//! `Reliable<BundledAaParty>` runs unchanged over the real sockets in
//! `crates/net`.

use std::collections::BTreeMap;

use async_net::{AsyncCtx, AsyncProtocol};
use gradecast::{BundleGradecast, GcBundleMsg, GradecastOutput};
use sim_net::{Envelope, Inbox, PartyId, Payload, Protocol, Received, RoundCtx};

use crate::real_aa::{Instance, RealAaConfig, Scratch};
use crate::value::R64;

pub use gradecast::BundleError;

/// A bundled `RealAA` wire message: a gradecast bundle tagged with its
/// iteration, exactly like [`RealAaMsg`](crate::RealAaMsg).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BundledAaMsg {
    /// Iteration index (0-based).
    pub iter: u32,
    /// The bundled gradecast body.
    pub body: GcBundleMsg<R64>,
}

impl Payload for BundledAaMsg {
    fn size_bytes(&self) -> usize {
        4 + self.body.size_bytes()
    }
}

/// The normalized round length of the async lockstep adapter. Delays
/// are normalized to (0, 1], so any message sent at a round boundary
/// arrives strictly before the next tick fires.
const ROUND_LEN: f64 = 1.5;

/// The wire round a bundled message belongs to, recomputed from its
/// content (phase within the 3-round iteration).
fn wire_round(msg: &BundledAaMsg) -> u32 {
    3 * msg.iter
        + match msg.body {
            GcBundleMsg::Leads(_) => 1,
            GcBundleMsg::Echoes(_) => 2,
            GcBundleMsg::Votes(_) | GcBundleMsg::KeyedVotes(_) => 3,
        }
}

/// One party running k bundled `RealAA(ε)` instances in lockstep.
///
/// All instances share the configuration and the round schedule of
/// [`RealAaParty`](crate::RealAaParty) — iteration `i` occupies rounds
/// `3i+1..=3i+3` — but each advances its own value, muted set, and (with
/// [`RealAaConfig::early_stopping`]) its own termination round. The party
/// outputs once every instance has.
#[derive(Clone, Debug)]
pub struct BundledAaParty {
    cfg: RealAaConfig,
    me: PartyId,
    instances: Vec<Instance>,
    gc: BundleGradecast<R64>,
    iterations_done: u32,
    output: Option<Vec<f64>>,
    /// Async adapter: the last round stepped (0 before `on_start`).
    async_round: u32,
    /// Async adapter: arrivals bucketed by wire round, consumed when the
    /// following round's timer fires.
    async_buf: BTreeMap<u32, Vec<Received<BundledAaMsg>>>,
    /// Reused per-instance grading buffer (round 3i+4 grades k
    /// instances; allocating k vectors per iteration dominates the
    /// amortized throughput at large k).
    grade_buf: Vec<GradecastOutput<R64>>,
    scratch: Scratch,
}

impl BundledAaParty {
    /// Creates the party with one input value per bundled instance
    /// (`k = inputs.len()`).
    ///
    /// # Errors
    ///
    /// [`BundleError::Empty`] if `inputs` is empty.
    ///
    /// # Panics
    ///
    /// As [`RealAaParty::new`](crate::RealAaParty::new): every input
    /// must be finite and `me` in range.
    pub fn new(me: PartyId, cfg: RealAaConfig, inputs: Vec<f64>) -> Result<Self, BundleError> {
        assert!(
            inputs.iter().all(|v| v.is_finite()),
            "honest inputs must be finite"
        );
        assert!(me.index() < cfg.n, "party id out of range");
        let gc = BundleGradecast::new(me, cfg.n, cfg.t, inputs.len())?;
        Ok(BundledAaParty {
            cfg,
            me,
            instances: inputs.iter().map(|&v| Instance::new(cfg.n, v)).collect(),
            gc,
            iterations_done: 0,
            output: None,
            async_round: 0,
            async_buf: BTreeMap::new(),
            grade_buf: Vec::new(),
            scratch: Scratch::default(),
        })
    }

    /// Number of bundled instances.
    pub fn k(&self) -> usize {
        self.instances.len()
    }

    /// Which instances are still running here.
    fn active(&self) -> Vec<bool> {
        self.instances.iter().map(|i| i.output.is_none()).collect()
    }

    fn finish_iteration(
        &mut self,
        inbox: &Inbox<BundledAaMsg>,
        iter_tag: u32,
        ctx: &mut RoundCtx<BundledAaMsg>,
    ) {
        self.gc.absorb_vote_bundles(
            inbox
                .iter()
                .filter(|e| e.payload.iter == iter_tag)
                .map(|e| (e.from, &e.payload.body)),
        );
        // Grade instance by instance into a reused buffer — the same
        // grades `on_votes` would produce, without per-instance
        // allocations.
        for (inst, state) in self.instances.iter_mut().enumerate() {
            if state.output.is_some() {
                continue;
            }
            self.gc.core(inst).grade_into(&mut self.grade_buf);
            state.finish_iteration(
                &self.cfg,
                &self.grade_buf,
                iter_tag,
                Some(inst),
                ctx,
                &mut self.scratch,
            );
        }
        self.iterations_done += 1;
    }

    /// Applies each running instance's termination rule; returns true
    /// when the whole bundle has output.
    fn maybe_terminate(&mut self) -> bool {
        let schedule_done = self.iterations_done >= self.cfg.iterations();
        let mut all = true;
        for state in &mut self.instances {
            all &= state.maybe_terminate(&self.cfg, schedule_done);
        }
        if all {
            self.output = Some(self.instances.iter().map(|i| i.value).collect());
        }
        all
    }

    fn start_iteration(&mut self, ctx: &mut RoundCtx<BundledAaMsg>, iter_tag: u32) {
        self.gc
            .reset_with_muted(self.instances.iter().map(|i| i.muted.as_slice()));
        let leads = self
            .instances
            .iter()
            .map(|i| i.output.is_none().then(|| R64::new(i.value)))
            .collect();
        ctx.broadcast(BundledAaMsg {
            iter: iter_tag,
            body: self.gc.lead_msg(leads),
        });
    }
}

impl Protocol for BundledAaParty {
    type Msg = BundledAaMsg;
    type Output = Vec<f64>;

    fn step(&mut self, round: u32, inbox: &Inbox<BundledAaMsg>, ctx: &mut RoundCtx<BundledAaMsg>) {
        if self.output.is_some() {
            return;
        }
        if (round == 1 && self.cfg.iterations() == 0) || round > self.cfg.rounds() + 1 {
            // As in `RealAaParty`: inputs already ε-close, or past the
            // schedule. A terminated instance's value is its output.
            self.output = Some(self.instances.iter().map(|i| i.value).collect());
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
                if iter_tag > 0 {
                    self.finish_iteration(inbox, iter_tag - 1, ctx);
                    if self.maybe_terminate() {
                        return;
                    }
                }
                self.start_iteration(ctx, iter_tag);
            }
            1 => {
                let active = self.active();
                let batch = self.gc.on_leads(tagged(iter_tag), &active);
                ctx.broadcast(BundledAaMsg {
                    iter: iter_tag,
                    body: batch,
                });
            }
            _ => {
                let active = self.active();
                let batch = self.gc.on_echoes(tagged(iter_tag), &active);
                ctx.broadcast(BundledAaMsg {
                    iter: iter_tag,
                    body: batch,
                });
            }
        }
    }

    fn output(&self) -> Option<Vec<f64>> {
        self.output.clone()
    }
}

impl BundledAaParty {
    /// Drives one synchronous round from the async run loop, replaying
    /// the resulting sends, events, and (unless the party terminated)
    /// the next round's timer into the async context.
    fn run_async_round(
        &mut self,
        round: u32,
        msgs: Vec<Received<BundledAaMsg>>,
        ctx: &mut AsyncCtx<BundledAaMsg>,
    ) {
        self.async_round = round;
        let inbox = Inbox::from_messages(msgs);
        let mut rctx = if ctx.tracing() {
            RoundCtx::traced(self.me, self.cfg.n)
        } else {
            RoundCtx::new(self.me, self.cfg.n)
        };
        Protocol::step(self, round, &inbox, &mut rctx);
        for ev in rctx.take_events() {
            ctx.emit_with(|| ev);
        }
        let out = rctx.into_outbox();
        for msg in out.broadcasts() {
            ctx.broadcast(msg.clone());
        }
        for env in out.unicasts() {
            ctx.send(env.to, env.payload.clone());
        }
        if self.output.is_none() {
            ctx.set_timer(ROUND_LEN, u64::from(round) + 1);
        }
    }
}

impl AsyncProtocol for BundledAaParty {
    type Msg = BundledAaMsg;
    type Output = Vec<f64>;

    fn on_start(&mut self, ctx: &mut AsyncCtx<BundledAaMsg>) {
        self.run_async_round(1, Vec::new(), ctx);
    }

    fn on_message(&mut self, env: Envelope<BundledAaMsg>, ctx: &mut AsyncCtx<BundledAaMsg>) {
        let _ = ctx;
        let r = wire_round(&env.payload);
        // A round-r message is consumed when stepping round r + 1; once
        // that has happened the arrival is late — an omission, exactly
        // as in the synchronous model.
        if r >= self.async_round {
            self.async_buf.entry(r).or_default().push(Received {
                from: env.from,
                payload: env.payload,
            });
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<BundledAaMsg>) {
        if self.output.is_some() || token <= u64::from(self.async_round) {
            return;
        }
        let round = u32::try_from(token).expect("round tokens fit u32");
        let msgs = self.async_buf.remove(&(round - 1)).unwrap_or_default();
        // Older buckets can no longer be consumed; drop them.
        self.async_buf.retain(|&r, _| r >= round);
        self.run_async_round(round, msgs, ctx);
    }

    fn output(&self) -> Option<Vec<f64>> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_net::{run_async, AsyncConfig, DelayModel, PassiveAsync, Reliable, SilentAsync};
    use sim_net::{run_simulation, FaultPlan, Passive, SimConfig};

    fn cfg(n: usize, t: usize) -> RealAaConfig {
        RealAaConfig::new(n, t, 0.5, 10.0).unwrap()
    }

    fn sync_outputs(cfg: RealAaConfig, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        run_simulation(
            SimConfig {
                n: cfg.n,
                t: cfg.t,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
            Passive,
        )
        .unwrap()
        .honest_outputs()
    }

    #[test]
    fn empty_bundle_is_rejected() {
        let err = BundledAaParty::new(PartyId(0), cfg(4, 1), Vec::new()).unwrap_err();
        assert_eq!(err, BundleError::Empty);
    }

    #[test]
    fn bundle_of_one_matches_the_solo_party() {
        let cfg = cfg(7, 2);
        let inputs = [2.0, 9.0, 5.0, 7.0, 3.0, 8.0, 4.0];
        let bundled: Vec<Vec<f64>> =
            sync_outputs(cfg, &inputs.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let solo = run_simulation(
            SimConfig {
                n: 7,
                t: 2,
                max_rounds: 10 + cfg.rounds(),
            },
            |id, _| crate::RealAaParty::new(id, cfg, inputs[id.index()]),
            Passive,
        )
        .unwrap();
        assert_eq!(
            bundled,
            solo.outputs
                .iter()
                .map(|o| vec![(*o).unwrap()])
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn async_lockstep_matches_the_synchronous_engine() {
        let cfg = cfg(4, 1);
        let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, 10.0 - i as f64]).collect();
        let sync = sync_outputs(cfg, &inputs);
        for seed in [1, 7, 42] {
            let report = run_async(
                AsyncConfig {
                    n: 4,
                    t: 1,
                    seed,
                    delay: DelayModel::Uniform { min: 0.1 },
                    max_events: 200_000,
                    faults: FaultPlan::none(),
                    record: false,
                },
                |id, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
                PassiveAsync,
            )
            .unwrap();
            assert_eq!(report.honest_outputs(), sync, "seed {seed}");
        }
    }

    #[test]
    fn reliable_wrapper_runs_the_bundle_over_lossy_links() {
        // Reliable<BundledAaParty>: the composition the TCP nodes in
        // crates/net deploy. A crashed-at-start party is within t.
        let cfg = cfg(4, 1);
        let inputs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64, (2 * i) as f64]).collect();
        let report = run_async(
            AsyncConfig {
                n: 4,
                t: 1,
                seed: 3,
                delay: DelayModel::Uniform { min: 0.1 },
                max_events: 400_000,
                faults: FaultPlan::none(),
                record: false,
            },
            |id, _| {
                Reliable::new(
                    BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
                    4,
                )
            },
            SilentAsync {
                parties: vec![PartyId(2)],
            },
        )
        .unwrap();
        let outs = report.honest_outputs();
        assert_eq!(outs.len(), 3);
        for inst in 0..2 {
            let vals: Vec<f64> = outs.iter().map(|o| o[inst]).collect();
            let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min);
            assert!(spread <= cfg.eps, "instance {inst} spread {spread}");
        }
    }

    /// Two finite reals whose vote hashes collide (birthday search over
    /// multiples of 2^-20 in `[0, 10)`).
    const X: f64 = 0.095_054_626_464_843_75;
    const X2: f64 = 0.102_589_607_238_769_53;

    /// Rewrites a bundle for instance 0, leader 0: echo slots get `echo`,
    /// vote slots the hash of `vote`.
    fn override_leader0(body: &GcBundleMsg<R64>, echo: R64, vote: R64) -> GcBundleMsg<R64> {
        use gradecast::{GcSlots, GcValue, VoteKey};
        use std::sync::Arc;
        fn set<T: Clone>(outer: &GcSlots<GcSlots<T>>, entry: T) -> Arc<GcSlots<GcSlots<T>>> {
            let inner: Vec<Option<GcSlots<T>>> = (0..outer.n())
                .map(|j| {
                    let slots = outer.iter().find(|&(i, _)| i == j)?.1;
                    let mut opts: Vec<Option<T>> = vec![None; slots.n()];
                    for (l, v) in slots.iter() {
                        opts[l] = Some(v.clone());
                    }
                    if j == 0 {
                        opts[0] = Some(entry.clone());
                    }
                    Some(GcSlots::from_options(opts))
                })
                .collect();
            Arc::new(GcSlots::from_options(inner))
        }
        match body {
            GcBundleMsg::Leads(_) => body.clone(),
            GcBundleMsg::Echoes(outer) => GcBundleMsg::Echoes(set(outer, echo)),
            GcBundleMsg::Votes(outer) => GcBundleMsg::Votes(set(outer, vote.hash32())),
            GcBundleMsg::KeyedVotes(outer) => {
                GcBundleMsg::KeyedVotes(set(outer, VoteKey::Hash(vote.hash32())))
            }
        }
    }

    /// The colliding-hash attack of the gradecast tests, driven through
    /// the bundle: Byzantine leader 0 leads x to {2, 3, 4} and x′ to
    /// {5, 6} in instance 0; Byzantine parties 0 and 1 echo x′ to party 6
    /// only and x to everyone else, and vote hash(x). Every honest party
    /// must grade leader 0 with the same value.
    #[test]
    fn binding_holds_under_colliding_vote_hashes() {
        use gradecast::{GcSlots, GcValue};
        use sim_net::{AdversaryCtx, EngineConfig, EventKind, StaticByzantine};
        use std::sync::Arc;

        let (x, x2) = (R64::new(X), R64::new(X2));
        assert_eq!(x.hash32(), x2.hash32());
        let cfg = cfg(7, 2);
        let adv = StaticByzantine {
            parties: vec![PartyId(0), PartyId(1)],
            behave: |ctx: &mut AdversaryCtx<'_, BundledAaMsg>| {
                if ctx.round() > 3 {
                    ctx.forward(PartyId(0));
                    ctx.forward(PartyId(1));
                    return;
                }
                if ctx.round() == 1 {
                    ctx.forward(PartyId(1));
                    for to in 2..7 {
                        let lead = if to >= 5 { x2 } else { x };
                        let body = GcBundleMsg::Leads(Arc::new(GcSlots::from_options(vec![
                            Some(lead),
                            Some(R64::new(1.0)),
                        ])));
                        ctx.send(PartyId(0), PartyId(to), BundledAaMsg { iter: 0, body });
                    }
                    return;
                }
                for b in [PartyId(0), PartyId(1)] {
                    let tentative = ctx.tentative_outbox(b).broadcasts().to_vec();
                    for to in 0..7 {
                        let echo = if to == 6 { x2 } else { x };
                        for msg in &tentative {
                            let body = override_leader0(&msg.body, echo, x);
                            ctx.send(b, PartyId(to), BundledAaMsg { iter: 0, body });
                        }
                    }
                }
            },
        };
        let inputs: Vec<Vec<f64>> = (0..7).map(|p| vec![p as f64, 1.0]).collect();
        let trace = run_simulation(
            EngineConfig {
                trace: true,
                ..EngineConfig::from(SimConfig {
                    n: 7,
                    t: 2,
                    max_rounds: 10 + cfg.rounds(),
                })
            },
            |id, _| BundledAaParty::new(id, cfg, inputs[id.index()].clone()).unwrap(),
            adv,
        )
        .unwrap()
        .trace
        .expect("tracing is on");
        let grades: Vec<(usize, u64, Option<f64>)> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Proto { party, event }
                    if *party >= 2
                        && event.label == "gc.grade"
                        && event.field("iter").and_then(|v| v.as_u64()) == Some(0)
                        && event.field("inst").and_then(|v| v.as_u64()) == Some(0)
                        && event.field("leader").and_then(|v| v.as_u64()) == Some(0) =>
                {
                    let value = match event.field("value") {
                        Some(aa_trace::Json::Num(v)) => Some(*v),
                        _ => None,
                    };
                    let grade = event.field("grade").and_then(|v| v.as_u64())?;
                    Some((*party, grade, value))
                }
                _ => None,
            })
            .collect();
        assert_eq!(grades.len(), 5, "{grades:?}");
        for &(party, grade, value) in &grades {
            assert!(grade >= 1, "party {party} rejected leader 0: {grades:?}");
            assert_eq!(value, Some(X), "party {party}: {grades:?}");
        }
    }

    #[test]
    fn wire_rounds_follow_the_phase_schedule() {
        let mut party = BundledAaParty::new(PartyId(0), cfg(4, 1), vec![1.0]).unwrap();
        let mut rctx = RoundCtx::new(PartyId(0), 4);
        Protocol::step(&mut party, 1, &Inbox::empty(), &mut rctx);
        let out = rctx.into_outbox();
        assert_eq!(wire_round(&out.broadcasts()[0]), 1);
        let mut rctx = RoundCtx::new(PartyId(0), 4);
        Protocol::step(&mut party, 2, &Inbox::empty(), &mut rctx);
        let out = rctx.into_outbox();
        assert_eq!(wire_round(&out.broadcasts()[0]), 2);
    }
}
