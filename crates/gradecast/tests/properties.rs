//! Property tests: the three gradecast guarantees hold under arbitrary
//! (randomized) Byzantine behaviour by up to `t` statically corrupted
//! parties.

use std::sync::Arc;

use gradecast::{BatchGradecastProtocol, GcBatchMsg, GcSlots, GcValue, Grade, VoteKey};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sim_net::{run_simulation, AdversaryCtx, PartyId, ScriptedAdversary, SimConfig};

type Msg = GcBatchMsg<u64>;

/// Two values whose vote hashes collide (birthday search over `0..2^17`).
const X: u64 = 99_582;
const X2: u64 = 106_658;

/// How the corrupted parties misbehave.
#[derive(Clone, Copy, Debug)]
enum Strategy {
    /// Random messages of every kind (leads, echo batches, hash and keyed
    /// vote batches) with random leader slots, values and recipients.
    Spray,
    /// Colliding equivocation: every corrupted leader leads x or x′ (whose
    /// vote hashes collide) per recipient, and every corrupted party
    /// relays honestly except that, per recipient, it echoes x or x′ and
    /// votes either hash or exact key of x or x′ for the corrupted
    /// leaders.
    Colliding,
}

/// Random slots over `n` leaders, each present with probability 1/2.
fn random_slots<T>(
    rng: &mut ChaCha8Rng,
    n: usize,
    mut f: impl FnMut(&mut ChaCha8Rng) -> T,
) -> GcSlots<T> {
    GcSlots::from_options((0..n).map(|_| rng.gen_bool(0.5).then(|| f(rng))).collect())
}

fn spray(ctx: &mut AdversaryCtx<'_, Msg>, rng: &mut ChaCha8Rng, bad: &[PartyId], values: &[u64]) {
    let n = ctx.n();
    let pick = |rng: &mut ChaCha8Rng| values[rng.gen_range(0..values.len())];
    for &p in bad {
        let burst = rng.gen_range(0..2 * n);
        for _ in 0..burst {
            let to = PartyId(rng.gen_range(0..n));
            let msg = match rng.gen_range(0..4) {
                0 => GcBatchMsg::Lead(pick(rng)),
                1 => GcBatchMsg::Echoes(Arc::new(random_slots(rng, n, pick))),
                2 => GcBatchMsg::Votes(Arc::new(random_slots(rng, n, |r| pick(r).hash32()))),
                _ => GcBatchMsg::KeyedVotes(Arc::new(random_slots(rng, n, |r| {
                    let v = pick(r);
                    if r.gen_bool(0.5) {
                        VoteKey::Exact(v)
                    } else {
                        VoteKey::Hash(v.hash32())
                    }
                }))),
            };
            ctx.send(p, to, msg);
        }
    }
}

/// Rewrites `p`'s tentative batch toward one recipient: corrupted
/// leaders' slots get x or x′ (echoes) or one of their vote keys (votes).
fn colliding_rewrite(msg: &Msg, rng: &mut ChaCha8Rng, bad: &[PartyId], n: usize) -> Msg {
    let is_bad = |l: usize| bad.iter().any(|b| b.index() == l);
    let coin = |rng: &mut ChaCha8Rng| if rng.gen_bool(0.5) { X } else { X2 };
    match msg {
        GcBatchMsg::Echoes(slots) => {
            let mut opts: Vec<Option<u64>> = (0..n).map(|_| None).collect();
            for (l, &v) in slots.iter() {
                opts[l] = Some(v);
            }
            for (l, slot) in opts.iter_mut().enumerate() {
                if is_bad(l) {
                    *slot = Some(coin(rng));
                }
            }
            GcBatchMsg::Echoes(Arc::new(GcSlots::from_options(opts)))
        }
        GcBatchMsg::Votes(_) | GcBatchMsg::KeyedVotes(_) => {
            let keyed = match msg {
                GcBatchMsg::Votes(s) => (**s).clone().map(VoteKey::Hash),
                GcBatchMsg::KeyedVotes(s) => (**s).clone(),
                _ => unreachable!(),
            };
            let mut opts: Vec<Option<VoteKey>> = (0..n).map(|_| None).collect();
            for (l, &k) in keyed.iter() {
                opts[l] = Some(k);
            }
            for (l, slot) in opts.iter_mut().enumerate() {
                if is_bad(l) {
                    let v = coin(rng);
                    *slot = Some(if rng.gen_bool(0.5) {
                        VoteKey::Exact(v)
                    } else {
                        VoteKey::Hash(v.hash32())
                    });
                }
            }
            GcBatchMsg::KeyedVotes(Arc::new(GcSlots::from_options(opts)))
        }
        GcBatchMsg::Lead(_) => GcBatchMsg::Lead(coin(rng)),
    }
}

fn colliding(ctx: &mut AdversaryCtx<'_, Msg>, rng: &mut ChaCha8Rng, bad: &[PartyId]) {
    let n = ctx.n();
    for &p in bad {
        let tentative: Vec<Msg> = ctx.tentative_outbox(p).broadcasts().to_vec();
        for to in (0..n).map(PartyId) {
            for msg in &tentative {
                let lie = colliding_rewrite(msg, rng, bad, n);
                ctx.send(p, to, lie);
            }
        }
    }
}

/// The adversary: statically corrupts `bad` parties and runs `strategy`
/// with them every round.
fn chaos(
    bad: Vec<PartyId>,
    seed: u64,
    strategy: Strategy,
    values: Vec<u64>,
) -> impl FnMut(&mut AdversaryCtx<'_, Msg>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    move |ctx| {
        if ctx.round() == 1 {
            for &p in &bad {
                ctx.corrupt(p).expect("within budget");
            }
        }
        match strategy {
            Strategy::Spray => spray(ctx, &mut rng, &bad, &values),
            Strategy::Colliding => colliding(ctx, &mut rng, &bad),
        }
    }
}

fn check_gradecast_properties(n: usize, t: usize, num_bad: usize, seed: u64, strategy: Strategy) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
    // Pick corrupted set.
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    let bad: Vec<PartyId> = ids[..num_bad].iter().map(|&i| PartyId(i)).collect();
    let is_bad = |i: usize| bad.iter().any(|b| b.index() == i);

    let cfg = SimConfig {
        n,
        t,
        max_rounds: 10,
    };
    let values = vec![0, 1, 2, 3, 4, X, X2];
    let adv = ScriptedAdversary(chaos(bad.clone(), seed, strategy, values));
    let inputs: Vec<u64> = (0..n).map(|i| 100 + i as u64).collect();
    let report = run_simulation(
        cfg,
        |id, nn| BatchGradecastProtocol::new(id, nn, t, inputs[id.index()]),
        adv,
    )
    .unwrap();

    let honest_outs: Vec<_> = (0..n)
        .filter(|&i| !is_bad(i))
        .map(|i| (i, report.outputs[i].clone().expect("honest output")))
        .collect();

    for leader in 0..n {
        // Property 1: honest leader -> everyone grades (v, 2).
        if !is_bad(leader) {
            for (_, out) in &honest_outs {
                assert_eq!(out[leader].grade, Grade::Two, "honest leader {leader}");
                assert_eq!(out[leader].value, Some(inputs[leader]));
            }
            continue;
        }
        // Property 2: binding among grades >= 1.
        let mut bound: Option<u64> = None;
        for (_, out) in &honest_outs {
            if out[leader].accepted() {
                let v = out[leader].value.expect("accepted implies value");
                match bound {
                    Some(b) => assert_eq!(b, v, "binding violated for leader {leader}"),
                    None => bound = Some(v),
                }
            }
        }
        // Property 3: grade gap <= 1.
        let grades: Vec<u8> = honest_outs
            .iter()
            .map(|(_, o)| o[leader].grade.as_u8())
            .collect();
        let (lo, hi) = (grades.iter().min().unwrap(), grades.iter().max().unwrap());
        assert!(
            hi - lo <= 1,
            "grade gap violated for leader {leader}: {grades:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn properties_hold_under_chaos_n4(seed in any::<u64>()) {
        check_gradecast_properties(4, 1, 1, seed, Strategy::Spray);
    }

    #[test]
    fn properties_hold_under_chaos_n7(seed in any::<u64>(), bad in 0usize..=2) {
        check_gradecast_properties(7, 2, bad, seed, Strategy::Spray);
    }

    #[test]
    fn properties_hold_under_chaos_n10(seed in any::<u64>(), bad in 0usize..=3) {
        check_gradecast_properties(10, 3, bad, seed, Strategy::Spray);
    }

    #[test]
    fn properties_hold_under_colliding_equivocation_n7(seed in any::<u64>(), bad in 1usize..=2) {
        check_gradecast_properties(7, 2, bad, seed, Strategy::Colliding);
    }

    #[test]
    fn properties_hold_under_colliding_equivocation_n10(seed in any::<u64>(), bad in 1usize..=3) {
        check_gradecast_properties(10, 3, bad, seed, Strategy::Colliding);
    }
}

/// Slots for leader 0 only, out of 7: the Byzantine parties relay
/// nothing else, which the honest leaders' five honest echoes absorb.
fn only_leader0<T>(entry: T) -> Arc<GcSlots<T>> {
    let mut slots: Vec<Option<T>> = (0..7).map(|_| None).collect();
    slots[0] = Some(entry);
    Arc::new(GcSlots::from_options(slots))
}

/// A targeted (non-random) split adversary engineering a {0,1} grade split:
/// it leads value 7 to just enough parties that, with Byzantine help, some
/// honest parties vote but others see fewer than t+1 votes.
#[test]
fn engineered_grade_split_zero_one() {
    // n = 7, t = 2: echo threshold 5, vote thresholds 3 (grade 1), 5
    // (grade 2). Byzantine: p0 (leader), p1 (helper).
    let n = 7;
    let t = 2;
    let cfg = SimConfig {
        n,
        t,
        max_rounds: 10,
    };
    let adv = ScriptedAdversary(move |ctx: &mut AdversaryCtx<'_, Msg>| {
        match ctx.round() {
            1 => {
                ctx.corrupt(PartyId(0)).unwrap();
                ctx.corrupt(PartyId(1)).unwrap();
                // Lead 7 to honest parties 2,3,4 only: only 3 honest
                // echoes will exist.
                for i in 2..=4 {
                    ctx.send(PartyId(0), PartyId(i), GcBatchMsg::Lead(7));
                }
            }
            2 => {
                // Byzantine echoes top up to the n - t = 5 threshold at
                // party 2 only: parties 2,3,4 echo (3 honest echoes reach
                // everyone); p0+p1 echo only to party 2.
                for b in [0, 1] {
                    ctx.send(PartyId(b), PartyId(2), GcBatchMsg::Echoes(only_leader0(7)));
                }
            }
            3 => {
                // Party 2 votes (it saw 5 echoes); its vote reaches all.
                // Byzantine votes go to parties 2 and 3 only, lifting them
                // to 3 votes = grade 1 while 4,5,6 see a single vote ->
                // grade 0.
                for b in [0, 1] {
                    for to in [2, 3] {
                        let vote = GcBatchMsg::Votes(only_leader0(7u64.hash32()));
                        ctx.send(PartyId(b), PartyId(to), vote);
                    }
                }
            }
            _ => {}
        }
    });
    let report = run_simulation(
        cfg,
        |id, nn| BatchGradecastProtocol::new(id, nn, t, id.index() as u64),
        adv,
    )
    .unwrap();
    let grades: Vec<u8> = (2..7)
        .map(|i| report.outputs[i].as_ref().unwrap()[0].grade.as_u8())
        .collect();
    // Parties 2 and 3 accept with grade 1; 4,5,6 reject with grade 0.
    assert_eq!(grades, vec![1, 1, 0, 0, 0]);
}

/// The three grade-semantics guarantees (per the gradecast lineage,
/// arXiv:1007.1049) under the protocol-agnostic `EquivocatingAdversary`:
/// unlike the chaos adversary above, every injected message is a
/// well-formed message stolen from real tentative traffic, so this
/// exercises the "plausible lies" corner rather than random noise.
#[test]
fn grade_semantics_hold_under_equivocation() {
    use sim_net::EquivocatingAdversary;

    for seed in 0..20u64 {
        let n = 7;
        let t = 2;
        let bad = [PartyId(1), PartyId(5)];
        let cfg = SimConfig {
            n,
            t,
            max_rounds: 10,
        };
        let inputs: Vec<u64> = (0..n).map(|i| 100 + i as u64).collect();
        let report = run_simulation(
            cfg,
            |id, nn| BatchGradecastProtocol::new(id, nn, t, inputs[id.index()]),
            EquivocatingAdversary::new(bad.to_vec(), seed),
        )
        .unwrap();
        let honest_outs: Vec<_> = (0..n)
            .filter(|&i| !bad.iter().any(|b| b.index() == i))
            .map(|i| report.outputs[i].clone().expect("honest output"))
            .collect();

        for leader in 0..n {
            if !bad.iter().any(|b| b.index() == leader) {
                // Honest sender: every honest party outputs (v, 2).
                for out in &honest_outs {
                    assert_eq!(out[leader].grade, Grade::Two, "seed {seed} leader {leader}");
                    assert_eq!(out[leader].value, Some(inputs[leader]));
                }
            } else {
                // Binding: all accepted (grade >= 1) values are identical.
                let accepted: Vec<u64> = honest_outs
                    .iter()
                    .filter(|o| o[leader].accepted())
                    .map(|o| o[leader].value.expect("accepted implies value"))
                    .collect();
                assert!(
                    accepted.windows(2).all(|w| w[0] == w[1]),
                    "seed {seed}: binding violated for leader {leader}: {accepted:?}"
                );
                // Grade gap: any two honest grades differ by at most 1.
                let grades: Vec<u8> = honest_outs
                    .iter()
                    .map(|o| o[leader].grade.as_u8())
                    .collect();
                let (lo, hi) = (grades.iter().min().unwrap(), grades.iter().max().unwrap());
                assert!(
                    hi - lo <= 1,
                    "seed {seed}: grade gap for leader {leader}: {grades:?}"
                );
            }
        }
    }
}

/// Grade semantics also hold when equivocation is *composed* with a
/// crash under one shared corruption budget.
#[test]
fn grade_semantics_hold_under_composed_equivocation_and_crash() {
    use sim_net::{ComposedAdversary, CrashAdversary, EquivocatingAdversary};

    let n = 7;
    let t = 2;
    let cfg = SimConfig {
        n,
        t,
        max_rounds: 10,
    };
    let inputs: Vec<u64> = (0..n).map(|i| 10 * i as u64).collect();
    let adv: ComposedAdversary<Msg> = ComposedAdversary::new(vec![
        Box::new(EquivocatingAdversary::new(vec![PartyId(2)], 13)),
        Box::new(CrashAdversary {
            crashes: vec![(PartyId(6), 2)],
        }),
    ]);
    let report = run_simulation(
        cfg,
        |id, nn| BatchGradecastProtocol::new(id, nn, t, inputs[id.index()]),
        adv,
    )
    .unwrap();
    assert!(report.corrupted[2] && report.corrupted[6]);

    let honest_outs: Vec<_> = (0..n)
        .filter(|&i| !report.corrupted[i])
        .map(|i| report.outputs[i].clone().expect("honest output"))
        .collect();
    for leader in 0..n {
        if !report.corrupted[leader] {
            for out in &honest_outs {
                assert_eq!(out[leader].grade, Grade::Two);
                assert_eq!(out[leader].value, Some(inputs[leader]));
            }
        } else {
            let accepted: Vec<u64> = honest_outs
                .iter()
                .filter(|o| o[leader].accepted())
                .map(|o| o[leader].value.unwrap())
                .collect();
            assert!(accepted.windows(2).all(|w| w[0] == w[1]));
            let grades: Vec<u8> = honest_outs
                .iter()
                .map(|o| o[leader].grade.as_u8())
                .collect();
            let (lo, hi) = (grades.iter().min().unwrap(), grades.iter().max().unwrap());
            assert!(hi - lo <= 1, "leader {leader}: {grades:?}");
        }
    }
}
