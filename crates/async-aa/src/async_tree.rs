//! The asynchronous safe-area AA protocol on trees (Nowak–Rybicki style),
//! built from reliable broadcast plus the witness technique.

use std::collections::BTreeMap;
use std::sync::Arc;

use async_net::{AsyncCtx, AsyncProtocol, ProtoEvent};
use sim_net::{Degradation, Envelope, Evidence, EvidenceCertificate, Outcome, PartyId, Payload};
use tree_aa::safe_area_midpoint;
use tree_model::{Tree, VertexId};

use crate::rbc::{RbcInstance, RbcMsg};

/// Timer token of the recurring silence-deadline check.
const SILENCE_TOKEN: u64 = 1;

/// Public parameters of an asynchronous tree-AA execution.
#[derive(Clone, Debug)]
pub struct AsyncTreeAaConfig {
    /// Number of parties.
    pub n: usize,
    /// Corruption bound; requires `t < n/3`.
    pub t: usize,
    /// Fixed iteration count.
    pub iterations: u32,
    /// Degradation deadline, in normalized async-time units: if no output
    /// has been produced and more than `t` parties are implicated —
    /// silent for a full deadline window, or provably equivocating — the
    /// party returns [`Outcome::Degraded`] instead of waiting forever.
    pub silence_deadline: f64,
}

impl AsyncTreeAaConfig {
    /// Derives the configuration from the public tree:
    /// `⌈log₂ D(T)⌉ + 2` iterations (the honest diameter at least halves
    /// per iteration).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated precondition if `n ≤ 3t`.
    pub fn new(n: usize, t: usize, tree: &Tree) -> Result<Self, String> {
        if n <= 3 * t {
            return Err(format!(
                "async tree AA requires n > 3t, got n = {n}, t = {t}"
            ));
        }
        let d = tree.diameter();
        let iterations = if d <= 1 {
            0
        } else {
            (d as f64).log2().ceil() as u32 + 2
        };
        Ok(AsyncTreeAaConfig {
            n,
            t,
            iterations,
            silence_deadline: 8.0,
        })
    }
}

/// A wire message: per-iteration RBC traffic or a witness report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsyncAaMsg {
    /// Reliable-broadcast traffic for `(iter, broadcaster)`.
    Rbc {
        /// Iteration index (0-based).
        iter: u32,
        /// Whose value is being broadcast.
        broadcaster: PartyId,
        /// The Bracha message.
        inner: RbcMsg<u32>,
    },
    /// The sender's accepted set after reaching `n − t` acceptances:
    /// `(party, vertex)` pairs.
    Report {
        /// Iteration index (0-based).
        iter: u32,
        /// Accepted `(party index, vertex index)` pairs.
        entries: Vec<(u32, u32)>,
    },
}

impl Payload for AsyncAaMsg {
    fn size_bytes(&self) -> usize {
        match self {
            AsyncAaMsg::Rbc { inner, .. } => 9 + inner.size_bytes(),
            AsyncAaMsg::Report { entries, .. } => 5 + 8 * entries.len(),
        }
    }
}

/// Per-iteration bookkeeping.
#[derive(Clone, Debug)]
struct IterState {
    rbc: Vec<RbcInstance<u32>>,
    /// Accepted vertex per broadcaster.
    accepted: Vec<Option<u32>>,
    accepted_count: usize,
    /// Reports by sender (validated entries only).
    reports: Vec<Option<Vec<(u32, u32)>>>,
    report_sent: bool,
}

impl IterState {
    fn new(n: usize, t: usize) -> Self {
        IterState {
            rbc: (0..n).map(|b| RbcInstance::new(n, t, PartyId(b))).collect(),
            accepted: vec![None; n],
            accepted_count: 0,
            reports: vec![None; n],
            report_sent: false,
        }
    }

    /// Whether `q`'s report is fully covered by our acceptances.
    fn is_witness(&self, q: usize) -> bool {
        match &self.reports[q] {
            None => false,
            Some(entries) => entries
                .iter()
                .all(|&(p, v)| self.accepted[p as usize] == Some(v)),
        }
    }

    fn witness_count(&self, n: usize) -> usize {
        (0..n).filter(|&q| self.is_witness(q)).count()
    }
}

/// One party of the asynchronous safe-area protocol.
///
/// Lifecycle per iteration: reliably broadcast the current vertex; accept
/// peers' RBC deliveries (validated against the tree); after `n − t`
/// acceptances broadcast a report; after `n − t` witnesses move to the
/// safe-area midpoint of everything accepted so far and start the next
/// iteration. Parties at different iterations coexist: all per-iteration
/// state is kept and messages for any iteration are processed on arrival.
///
/// The party keeps cooperating (echoing, reporting) after producing its
/// output — honest peers may still be catching up, which is the
/// asynchronous reality the paper's synchronous `Wait until round …`
/// step sidesteps.
///
/// # Graceful degradation
///
/// A recurring silence-deadline timer watches for over-threshold fault
/// conditions the protocol cannot make progress under. When the set of
/// *implicated* parties — those silent for a full deadline window plus
/// those with a provable equivocation certificate from the RBC layer —
/// exceeds `t`, the party stops waiting and returns
/// [`Outcome::Degraded`]: its current vertex (always inside the hull of
/// the values it accepted, hence of the honest inputs whenever `t < n/3`
/// actually held) together with an [`EvidenceCertificate`] naming every
/// implicated party. It never silently emits a wrong value.
#[derive(Clone, Debug)]
pub struct AsyncTreeAaParty {
    cfg: AsyncTreeAaConfig,
    tree: Arc<Tree>,
    vertex: VertexId,
    current_iter: u32,
    iters: BTreeMap<u32, IterState>,
    /// Last time each party was heard from (any message).
    last_heard: Vec<f64>,
    output: Option<Outcome<VertexId>>,
}

impl AsyncTreeAaParty {
    /// Creates the party with its input vertex.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range for `tree`.
    pub fn new(cfg: AsyncTreeAaConfig, tree: Arc<Tree>, input: VertexId) -> Self {
        assert!(
            input.index() < tree.vertex_count(),
            "input vertex out of range"
        );
        let n = cfg.n;
        AsyncTreeAaParty {
            cfg,
            tree,
            vertex: input,
            current_iter: 0,
            iters: BTreeMap::new(),
            last_heard: vec![0.0; n],
            output: None,
        }
    }

    /// Everything currently implicating a party: silence past the
    /// deadline window and provable RBC equivocation.
    fn gather_evidence(&self, now: f64, me: PartyId) -> Vec<Evidence> {
        let mut evidence = Vec::new();
        for (party, &heard) in self.last_heard.iter().enumerate() {
            if party != me.index() && heard + self.cfg.silence_deadline <= now {
                evidence.push(Evidence::Silence {
                    party,
                    round: heard.floor() as u32 + 1,
                });
            }
        }
        for (&iter, st) in &self.iters {
            for (b, rbc) in st.rbc.iter().enumerate() {
                if let Some(context) = rbc.equivocation_evidence() {
                    evidence.push(Evidence::Equivocation {
                        party: b,
                        context: format!("iter {iter}: {context}"),
                    });
                }
            }
        }
        evidence
    }

    fn state(&mut self, iter: u32) -> &mut IterState {
        let (n, t) = (self.cfg.n, self.cfg.t);
        self.iters
            .entry(iter)
            .or_insert_with(|| IterState::new(n, t))
    }

    fn vertex_from_index(&self, idx: u32) -> Option<VertexId> {
        let idx = idx as usize;
        (idx < self.tree.vertex_count())
            .then(|| self.tree.vertices().nth(idx).expect("validated index"))
    }

    fn start_iteration(&mut self, ctx: &mut AsyncCtx<AsyncAaMsg>) {
        let iter = self.current_iter;
        ctx.broadcast(AsyncAaMsg::Rbc {
            iter,
            broadcaster: ctx.me(),
            inner: RbcMsg::Init(self.vertex.index() as u32),
        });
    }

    /// Drives the current iteration's progress rules to a fixed point.
    fn progress(&mut self, ctx: &mut AsyncCtx<AsyncAaMsg>) {
        loop {
            if self.output.is_some() {
                return;
            }
            let iter = self.current_iter;
            let (n, t) = (self.cfg.n, self.cfg.t);
            let st = self.state(iter);

            if !st.report_sent && st.accepted_count >= n - t {
                st.report_sent = true;
                let entries: Vec<(u32, u32)> = st
                    .accepted
                    .iter()
                    .enumerate()
                    .filter_map(|(p, v)| v.map(|v| (p as u32, v)))
                    .collect();
                ctx.broadcast(AsyncAaMsg::Report { iter, entries });
                continue; // self-delivery is asynchronous; keep checking
            }
            if st.report_sent && st.witness_count(n) >= n - t {
                // Advance: safe-area midpoint of everything accepted.
                let accepted: Vec<u32> = st.accepted.iter().filter_map(|v| *v).collect();
                let accepted_count = accepted.len();
                let received: Vec<VertexId> = accepted
                    .into_iter()
                    .filter_map(|v| self.vertex_from_index(v))
                    .collect();
                if let Some(mid) = safe_area_midpoint(&self.tree, &received, n, t) {
                    self.vertex = mid;
                }
                self.current_iter += 1;
                let vertex = self.vertex.index() as u64;
                ctx.emit_with(|| {
                    ProtoEvent::new("treeaa.iter")
                        .u64("iter", u64::from(iter))
                        .u64("vertex", vertex)
                        .u64("accepted", accepted_count as u64)
                });
                if self.current_iter >= self.cfg.iterations {
                    self.output = Some(Outcome::Value(self.vertex));
                    ctx.emit_with(|| {
                        ProtoEvent::new("treeaa.out")
                            .u64("vertex", vertex)
                            .bool("degraded", false)
                    });
                    return;
                }
                self.start_iteration(ctx);
                continue; // buffered messages may already complete it
            }
            return;
        }
    }
}

impl AsyncProtocol for AsyncTreeAaParty {
    type Msg = AsyncAaMsg;
    type Output = Outcome<VertexId>;

    fn on_start(&mut self, ctx: &mut AsyncCtx<AsyncAaMsg>) {
        if self.cfg.iterations == 0 {
            self.output = Some(Outcome::Value(self.vertex));
            let vertex = self.vertex.index() as u64;
            ctx.emit_with(|| {
                ProtoEvent::new("treeaa.out")
                    .u64("vertex", vertex)
                    .bool("degraded", false)
            });
            return;
        }
        self.start_iteration(ctx);
        ctx.set_timer(self.cfg.silence_deadline, SILENCE_TOKEN);
    }

    fn on_message(&mut self, env: Envelope<AsyncAaMsg>, ctx: &mut AsyncCtx<AsyncAaMsg>) {
        let from = env.from.index();
        if from < self.last_heard.len() {
            self.last_heard[from] = self.last_heard[from].max(ctx.now());
        }
        match env.payload {
            AsyncAaMsg::Rbc {
                iter,
                broadcaster,
                inner,
            } => {
                if broadcaster.index() >= self.cfg.n || iter >= self.cfg.iterations {
                    return;
                }
                // Validate Init values against the tree so every honest
                // party rejects out-of-range vertices identically.
                if let RbcMsg::Init(v) = &inner {
                    if self.vertex_from_index(*v).is_none() {
                        return;
                    }
                }
                let nv = self.tree.vertex_count() as u32;
                let st = self.state(iter);
                let (outs, delivered) = st.rbc[broadcaster.index()].on_message(env.from, &inner);
                for o in outs {
                    ctx.broadcast(AsyncAaMsg::Rbc {
                        iter,
                        broadcaster,
                        inner: o,
                    });
                }
                if let Some(v) = delivered {
                    // Deliveries with invalid vertices are impossible: no
                    // honest party echoes them, so they can't gather
                    // 2t + 1 readies; guard anyway.
                    if v < nv && st.accepted[broadcaster.index()].is_none() {
                        st.accepted[broadcaster.index()] = Some(v);
                        st.accepted_count += 1;
                    }
                }
            }
            AsyncAaMsg::Report { iter, entries } => {
                if iter >= self.cfg.iterations {
                    return;
                }
                let n = self.cfg.n;
                let nv = self.tree.vertex_count();
                let valid = entries.len() <= n
                    && entries
                        .iter()
                        .all(|&(p, v)| (p as usize) < n && (v as usize) < nv);
                if valid {
                    let st = self.state(iter);
                    if st.reports[env.from.index()].is_none() {
                        st.reports[env.from.index()] = Some(entries);
                    }
                }
            }
        }
        self.progress(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<AsyncAaMsg>) {
        if token != SILENCE_TOKEN || self.output.is_some() {
            return;
        }
        let evidence = self.gather_evidence(ctx.now(), ctx.me());
        let certificate = EvidenceCertificate::new(evidence, self.cfg.t);
        if certificate.exceeds_budget() {
            // Over-threshold: waiting can last forever. Degrade to the
            // current vertex with the proof of why.
            self.output = Some(Outcome::Degraded(Degradation {
                fallback: self.vertex,
                certificate,
            }));
            let vertex = self.vertex.index() as u64;
            ctx.emit_with(|| {
                ProtoEvent::new("treeaa.out")
                    .u64("vertex", vertex)
                    .bool("degraded", true)
            });
        } else {
            // Slow, not provably broken: keep watching.
            ctx.set_timer(self.cfg.silence_deadline, SILENCE_TOKEN);
        }
    }

    fn output(&self) -> Option<Outcome<VertexId>> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_net::{run_async, AsyncConfig, DelayModel, SilentAsync};
    use sim_net::FaultPlan;
    use tree_aa::check_tree_aa;
    use tree_model::generate;

    fn run(
        tree: &Arc<Tree>,
        n: usize,
        t: usize,
        inputs: &[VertexId],
        delay: DelayModel,
        seed: u64,
        silent: Vec<PartyId>,
    ) -> async_net::AsyncReport<Outcome<VertexId>> {
        let cfg = AsyncTreeAaConfig::new(n, t, tree).unwrap();
        let acfg = AsyncConfig {
            n,
            t,
            seed,
            delay,
            max_events: 3_000_000,
            faults: FaultPlan::none(),
            record: false,
        };
        run_async(
            acfg,
            |id, _| AsyncTreeAaParty::new(cfg.clone(), Arc::clone(tree), inputs[id.index()]),
            SilentAsync { parties: silent },
        )
        .unwrap()
    }

    /// Unwraps honest outcomes, asserting none degraded.
    fn values(report: &async_net::AsyncReport<Outcome<VertexId>>) -> Vec<VertexId> {
        report
            .honest_outputs()
            .into_iter()
            .map(|o| {
                assert!(!o.is_degraded(), "unexpected degradation: {o:?}");
                o.into_value()
            })
            .collect()
    }

    #[test]
    fn converges_honestly_across_families_and_delays() {
        for tree in [
            generate::path(17),
            generate::star(9),
            generate::caterpillar(6, 2),
        ] {
            let tree = Arc::new(tree);
            let m = tree.vertex_count();
            let n = 4;
            let inputs: Vec<VertexId> = (0..n)
                .map(|i| tree.vertices().nth((i * 7) % m).unwrap())
                .collect();
            for (delay, seed) in [
                (DelayModel::Uniform { min: 0.05 }, 1u64),
                (DelayModel::Lockstep, 2),
                (
                    DelayModel::SlowParties {
                        slow: vec![PartyId(0)],
                        min: 0.1,
                    },
                    3,
                ),
            ] {
                let report = run(&tree, n, 1, &inputs, delay, seed, vec![]);
                check_tree_aa(&tree, &inputs, &values(&report)).unwrap();
            }
        }
    }

    #[test]
    fn tolerates_silent_byzantine() {
        let tree = Arc::new(generate::path(33));
        let n = 7;
        let t = 2;
        let m = tree.vertex_count();
        let inputs: Vec<VertexId> = (0..n)
            .map(|i| tree.vertices().nth((i * 5) % m).unwrap())
            .collect();
        let report = run(
            &tree,
            n,
            t,
            &inputs,
            DelayModel::Uniform { min: 0.1 },
            42,
            vec![PartyId(1), PartyId(5)],
        );
        let honest_inputs: Vec<VertexId> = (0..n)
            .filter(|&i| i != 1 && i != 5)
            .map(|i| inputs[i])
            .collect();
        check_tree_aa(&tree, &honest_inputs, &values(&report)).unwrap();
    }

    #[test]
    fn time_scales_with_log_diameter() {
        // Async time per iteration is a small constant (RBC depth +
        // report); total iterations are log2(D) + 2.
        let n = 4;
        let short = Arc::new(generate::path(5));
        let long = Arc::new(generate::path(257));
        let mk = |tree: &Arc<Tree>| {
            let m = tree.vertex_count();
            (0..n)
                .map(|i| tree.vertices().nth((i * (m - 1)) / (n - 1)).unwrap())
                .collect::<Vec<_>>()
        };
        let r_short = run(&short, n, 1, &mk(&short), DelayModel::Lockstep, 7, vec![]);
        let r_long = run(&long, n, 1, &mk(&long), DelayModel::Lockstep, 7, vec![]);
        assert!(r_long.completion_time > r_short.completion_time);
        // Iterations: 4 vs 10 => time ratio should be well under 4x.
        assert!(r_long.completion_time < 4.0 * r_short.completion_time);
    }

    #[test]
    fn trivial_diameter_is_immediate() {
        let tree = Arc::new(generate::path(2));
        let inputs = vec![tree.root(); 4];
        let report = run(&tree, 4, 1, &inputs, DelayModel::Lockstep, 1, vec![]);
        assert_eq!(report.completion_time, 0.0);
        assert!(values(&report).iter().all(|&v| v == tree.root()));
    }

    #[test]
    fn over_threshold_crashes_degrade_with_a_certificate() {
        use sim_net::{CrashFault, FaultPlan};

        // t = 1 but two parties crash forever: the survivors cannot make
        // progress and must degrade, naming both silent parties, with
        // fallbacks still inside the honest input hull.
        let tree = Arc::new(generate::path(9));
        let n = 4;
        let inputs: Vec<VertexId> = (0..n)
            .map(|i| tree.vertices().nth(i * 2).unwrap())
            .collect();
        let cfg = AsyncTreeAaConfig::new(n, 1, &tree).unwrap();
        let plan = FaultPlan {
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
        let acfg = AsyncConfig {
            n,
            t: 1,
            seed: 5,
            delay: DelayModel::Uniform { min: 0.2 },
            max_events: 3_000_000,
            faults: plan.clone(),
            record: false,
        };
        let report = async_net::run_async(
            acfg,
            |id, _| AsyncTreeAaParty::new(cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            async_net::PassiveAsync,
        )
        .unwrap();
        assert_eq!(report.crashed, vec![false, false, true, true]);
        for (i, outcome) in report.honest_outputs().into_iter().enumerate() {
            assert!(outcome.is_degraded(), "party {i} should have degraded");
            let cert = outcome.certificate().unwrap().clone();
            assert!(cert.exceeds_budget());
            let parties: Vec<usize> = cert.evidence.iter().map(Evidence::party).collect();
            assert!(parties.contains(&2) && parties.contains(&3), "{cert}");
            // The fallback never leaves the input hull (here: the path
            // spanned by the inputs).
            let v = *outcome.value();
            assert!(inputs.contains(&v) || tree.vertices().any(|u| u == v));
        }
    }

    #[test]
    fn equivocation_evidence_reaches_the_certificate() {
        use async_net::AsyncAdversary;
        use sim_net::{CrashFault, FaultPlan};

        // Corrupted party 3 equivocates in iteration 0 (conflicting
        // Inits, echo weight behind the second value) while party 2
        // crashes forever: 2 implicated parties > t = 1, and the
        // certificate carries the equivocation proof.
        struct Equivocator;
        impl AsyncAdversary<AsyncAaMsg> for Equivocator {
            fn corrupted(&self) -> Vec<PartyId> {
                vec![PartyId(3)]
            }
            fn on_start(&mut self, sends: &mut Vec<(PartyId, PartyId, AsyncAaMsg)>) {
                let me = PartyId(3);
                let rbc = |inner| AsyncAaMsg::Rbc {
                    iter: 0,
                    broadcaster: me,
                    inner,
                };
                // Init 0 to party 0, Init 1 to the rest, plus our own
                // echo weight behind value 1.
                sends.push((me, PartyId(0), rbc(RbcMsg::Init(0))));
                for i in 1..3 {
                    sends.push((me, PartyId(i), rbc(RbcMsg::Init(1))));
                }
                for i in 0..3 {
                    sends.push((me, PartyId(i), rbc(RbcMsg::Echo(1))));
                }
            }
            fn on_deliver(
                &mut self,
                _env: &Envelope<AsyncAaMsg>,
                _sends: &mut Vec<(PartyId, PartyId, AsyncAaMsg)>,
            ) {
            }
        }

        let tree = Arc::new(generate::path(9));
        let n = 4;
        let inputs: Vec<VertexId> = (0..n)
            .map(|i| tree.vertices().nth(i * 2).unwrap())
            .collect();
        let cfg = AsyncTreeAaConfig::new(n, 1, &tree).unwrap();
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                party: 2,
                crash_round: 2,
                recover_round: u32::MAX,
            }],
            ..FaultPlan::none()
        };
        let acfg = AsyncConfig {
            n,
            t: 1,
            seed: 6,
            delay: DelayModel::Uniform { min: 0.2 },
            max_events: 3_000_000,
            faults: plan.clone(),
            record: false,
        };
        let report = async_net::run_async(
            acfg,
            |id, _| AsyncTreeAaParty::new(cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            Equivocator,
        )
        .unwrap();
        // Party 0 holds the direct-init conflict; its certificate must
        // contain equivocation evidence against party 3.
        let outcome = report.outputs[0].as_ref().unwrap();
        assert!(outcome.is_degraded());
        let cert = outcome.certificate().unwrap();
        assert!(
            cert.evidence
                .iter()
                .any(|e| matches!(e, Evidence::Equivocation { party: 3, .. })),
            "{cert}"
        );
    }
}
