//! Property tests: the asynchronous safe-area protocol keeps Validity and
//! 1-Agreement across random trees, inputs, delay schedules and silent
//! Byzantine sets; reliable broadcast keeps consistency under value
//! injection.

use std::sync::Arc;

use async_aa::{AsyncAaMsg, AsyncTreeAaConfig, AsyncTreeAaParty, RbcMsg};
use async_net::{run_async, AsyncAdversary, AsyncConfig, DelayModel, SilentAsync};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sim_net::{Envelope, FaultPlan, Outcome, PartyId};
use tree_aa::check_tree_aa;
use tree_model::{generate, Tree, VertexId};

/// Unwraps honest outcomes; fault-free async runs must never degrade.
fn plain_values(outcomes: Vec<Outcome<VertexId>>) -> Result<Vec<VertexId>, TestCaseError> {
    outcomes
        .into_iter()
        .map(|o| {
            if o.is_degraded() {
                Err(TestCaseError::fail(format!(
                    "unexpected degradation: {o:?}"
                )))
            } else {
                Ok(o.into_value())
            }
        })
        .collect()
}

fn scenario(
    seed: u64,
) -> (
    Arc<Tree>,
    usize,
    usize,
    Vec<VertexId>,
    Vec<PartyId>,
    DelayModel,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t = rng.gen_range(1..=2usize);
    let n = 3 * t + 1;
    let size = rng.gen_range(2..25usize);
    let tree = Arc::new(generate::relabel_shuffled(
        &generate::random_prufer(size, &mut rng),
        &mut rng,
    ));
    let inputs: Vec<VertexId> = (0..n)
        .map(|_| tree.vertices().nth(rng.gen_range(0..size)).unwrap())
        .collect();
    let nbad = rng.gen_range(0..=t);
    let byz: Vec<PartyId> = (0..nbad).map(|i| PartyId((i * 2 + 1) % n)).collect();
    let delay = match rng.gen_range(0..3) {
        0 => DelayModel::Uniform { min: 0.05 },
        1 => DelayModel::Lockstep,
        _ => DelayModel::SlowParties {
            slow: vec![PartyId(0)],
            min: 0.1,
        },
    };
    (tree, n, t, inputs, byz, delay)
}

/// A spamming asynchronous adversary: on every delivery to a corrupted
/// party it re-broadcasts mangled RBC traffic (random vertices, random
/// iterations) from all corrupted identities.
struct AsyncSpammer {
    byz: Vec<PartyId>,
    rng: ChaCha8Rng,
    n: usize,
    vertex_count: usize,
    budget: usize,
}

impl AsyncAdversary<AsyncAaMsg> for AsyncSpammer {
    fn corrupted(&self) -> Vec<PartyId> {
        self.byz.clone()
    }
    fn on_start(&mut self, sends: &mut Vec<(PartyId, PartyId, AsyncAaMsg)>) {
        for &b in &self.byz {
            for to in 0..self.n {
                sends.push((
                    b,
                    PartyId(to),
                    AsyncAaMsg::Rbc {
                        iter: 0,
                        broadcaster: b,
                        inner: RbcMsg::Init(self.rng.gen_range(0..self.vertex_count as u32 + 2)),
                    },
                ));
            }
        }
    }
    fn on_deliver(
        &mut self,
        env: &Envelope<AsyncAaMsg>,
        sends: &mut Vec<(PartyId, PartyId, AsyncAaMsg)>,
    ) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        let b = env.to;
        let to = PartyId(self.rng.gen_range(0..self.n));
        let iter = self.rng.gen_range(0..6);
        let broadcaster = PartyId(self.rng.gen_range(0..self.n));
        let v = self.rng.gen_range(0..self.vertex_count as u32 + 2);
        let inner = match self.rng.gen_range(0..3) {
            0 => RbcMsg::Init(v),
            1 => RbcMsg::Echo(v),
            _ => RbcMsg::Ready(v),
        };
        sends.push((
            b,
            to,
            AsyncAaMsg::Rbc {
                iter,
                broadcaster,
                inner,
            },
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn async_tree_aa_safe_under_silence_and_delays(seed in any::<u64>()) {
        let (tree, n, t, inputs, byz, delay) = scenario(seed);
        let cfg = AsyncTreeAaConfig::new(n, t, &tree).unwrap();
        let report = run_async(
            AsyncConfig { n, t, seed, delay, max_events: 5_000_000, faults: FaultPlan::none(), record: false },
            |id, _| AsyncTreeAaParty::new(cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            SilentAsync { parties: byz.clone() },
        ).unwrap();
        let honest_inputs: Vec<VertexId> = (0..n)
            .filter(|i| !byz.iter().any(|b| b.index() == *i))
            .map(|i| inputs[i])
            .collect();
        check_tree_aa(&tree, &honest_inputs, &plain_values(report.honest_outputs())?)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn async_tree_aa_safe_under_spam(seed in any::<u64>()) {
        let (tree, n, t, inputs, byz, delay) = scenario(seed);
        let cfg = AsyncTreeAaConfig::new(n, t, &tree).unwrap();
        let adv = AsyncSpammer {
            byz: byz.clone(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xF00D),
            n,
            vertex_count: tree.vertex_count(),
            budget: 5_000,
        };
        let report = run_async(
            AsyncConfig { n, t, seed, delay, max_events: 5_000_000, faults: FaultPlan::none(), record: false },
            |id, _| AsyncTreeAaParty::new(cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
            adv,
        ).unwrap();
        let honest_inputs: Vec<VertexId> = (0..n)
            .filter(|i| !byz.iter().any(|b| b.index() == *i))
            .map(|i| inputs[i])
            .collect();
        check_tree_aa(&tree, &honest_inputs, &plain_values(report.honest_outputs())?)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    #[test]
    fn rbc_consistency_under_equivocating_broadcaster(seed in any::<u64>()) {
        // Drive n instances by hand; the Byzantine broadcaster (id 0)
        // sends different Inits to different parties; consistency must
        // hold: at most one value delivered across honest parties.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let t = rng.gen_range(1..=2usize);
        let n = 3 * t + 1;
        let mut machines: Vec<async_aa::RbcInstance<u32>> =
            (0..n).map(|_| async_aa::RbcInstance::new(n, t, PartyId(0))).collect();
        // Byzantine init: value i%2 to party i.
        let mut queue: Vec<(PartyId, usize, RbcMsg<u32>)> = (1..n)
            .map(|i| (PartyId(0), i, RbcMsg::Init((i % 2) as u32)))
            .collect();
        while let Some((from, to, msg)) = queue.pop() {
            let (outs, _) = machines[to].on_message(from, &msg);
            for o in outs {
                for dst in 0..n {
                    queue.push((PartyId(to), dst, o.clone()));
                }
            }
        }
        let delivered: Vec<u32> =
            (1..n).filter_map(|i| machines[i].delivered().copied()).collect();
        if let Some(&first) = delivered.first() {
            prop_assert!(delivered.iter().all(|&v| v == first),
                "consistency violated: {delivered:?}");
        }
    }
}
