//! Byzantine strategies against the real-valued AA protocols.
//!
//! The centerpiece is [`BudgetSplitEquivocator`], the strategy that
//! realizes the worst-case convergence envelope of Theorem 1/Lemma 5
//! against `RealAA`: it spends its corruption budget `t` across iterations
//! according to a schedule `(t_1, …, t_R)`, burning `t_i` fresh Byzantine
//! leaders in iteration `i` on engineered `{0, 1}` grade splits that make
//! one half of the honest parties accept an extreme value that the other
//! half rejects. Each burned leader is detected (and silenced) by *all*
//! honest parties, so the spread after `R` iterations tracks
//! `D · Π tᵢ / (n − 2t)^R` — maximized by the near-equal split
//! `tᵢ ≈ t/R`, which is exactly the supremum in Fekete's bound.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use gradecast::{GcBatchMsg, GcSlots, GcValue, VoteKey};
use sim_net::{Adversary, AdversaryCtx, PartyId};

use crate::real_aa::RealAaMsg;
use crate::value::R64;

/// Splits `budget` into `rounds` near-equal positive parts (the maximizer
/// of `Π tᵢ` under `Σ tᵢ ≤ budget`, restricted to using every iteration).
/// When `budget < rounds`, only the first `budget` iterations get one unit
/// each.
///
/// # Example
///
/// ```
/// use real_aa::adversary::equal_split_schedule;
///
/// assert_eq!(equal_split_schedule(7, 3), vec![3, 2, 2]);
/// assert_eq!(equal_split_schedule(2, 4), vec![1, 1, 0, 0]);
/// ```
pub fn equal_split_schedule(budget: usize, rounds: usize) -> Vec<usize> {
    if rounds == 0 {
        return Vec::new();
    }
    let base = budget / rounds;
    let extra = budget % rounds;
    (0..rounds).map(|i| base + usize::from(i < extra)).collect()
}

/// The Fekete-envelope adversary against [`crate::RealAaParty`].
///
/// Construction takes the statically corrupted set and a per-iteration
/// burn schedule; see the module docs for the strategy. Unburned corrupted
/// parties behave honestly (their tentative traffic is forwarded), both to
/// preserve their budget — a party that deviates detectably is silenced —
/// and to serve as echo/vote helpers for the engineered splits. A helper's
/// extra echoes and votes for the burned leaders ride in the one batch it
/// sends each recipient per phase, since receivers count only a sender's
/// first batch.
#[derive(Clone, Debug)]
pub struct BudgetSplitEquivocator {
    byz: Vec<PartyId>,
    schedule: Vec<usize>,
    next_fresh: usize,
    /// Plans for the iteration currently being attacked:
    /// `(leader, accepting_group, value)`.
    plans: Vec<(PartyId, Vec<PartyId>, f64)>,
    honest: Vec<PartyId>,
    low_group: Vec<PartyId>,
    high_group: Vec<PartyId>,
    /// The protocol's public fill constant (see
    /// `RealAaConfig::fill_value`), which the full-information adversary
    /// uses to predict the honest update rule exactly.
    fill_value: f64,
    /// Attack the same leaders every scheduled iteration instead of
    /// burning fresh ones — only useful against the no-muting ablation,
    /// where detection has no consequences.
    reuse_leaders: bool,
    /// Predict the ablated (variable-multiset) update rule instead of the
    /// fill rule.
    model_variable_multisets: bool,
}

impl BudgetSplitEquivocator {
    /// Creates the adversary.
    ///
    /// # Panics
    ///
    /// Panics if the schedule spends more than `byz.len()` leaders in
    /// total, or if `byz` is empty while the schedule is not all-zero.
    pub fn new(n: usize, byz: Vec<PartyId>, schedule: Vec<usize>) -> Self {
        let spend: usize = schedule.iter().sum();
        assert!(
            spend <= byz.len(),
            "schedule spends {spend} leaders but only {} are corrupted",
            byz.len()
        );
        let honest: Vec<PartyId> = (0..n).map(PartyId).filter(|p| !byz.contains(p)).collect();
        let half = honest.len() / 2;
        BudgetSplitEquivocator {
            low_group: honest[..half].to_vec(),
            high_group: honest[half..].to_vec(),
            honest,
            byz,
            schedule,
            next_fresh: 0,
            plans: Vec::new(),
            fill_value: 0.0,
            reuse_leaders: false,
            model_variable_multisets: false,
        }
    }

    /// Creates a leader-reusing variant: the *same* leaders attack every
    /// scheduled iteration. Only effective against the no-muting ablation
    /// (the real protocol silences them after their first split). The
    /// schedule may spend more than `byz.len()` in total, but no single
    /// iteration may use more leaders than are corrupted.
    ///
    /// # Panics
    ///
    /// Panics if some iteration's burn count exceeds `byz.len()`.
    pub fn new_reusing(n: usize, byz: Vec<PartyId>, schedule: Vec<usize>) -> Self {
        let per_iter = schedule.iter().copied().max().unwrap_or(0);
        assert!(
            per_iter <= byz.len(),
            "iteration burns {per_iter} leaders but only {} are corrupted",
            byz.len()
        );
        let mut adv = Self::new(n, byz, vec![]);
        adv.schedule = schedule;
        adv.reuse_leaders = true;
        adv
    }

    /// Predicts the variable-multiset (ablated) honest update rule.
    pub fn modeling_variable_multisets(mut self) -> Self {
        self.model_variable_multisets = true;
        self
    }

    /// Sets the fill constant assumed for the honest update rule (must
    /// match `RealAaConfig::fill_value`; defaults to 0).
    pub fn with_fill(mut self, fill_value: f64) -> Self {
        self.fill_value = fill_value;
        self
    }

    fn plan_iteration(&mut self, iter: usize, ctx: &AdversaryCtx<'_, RealAaMsg>, t: usize) {
        self.plans.clear();
        let burn = self.schedule.get(iter).copied().unwrap_or(0);
        if burn == 0 {
            return;
        }
        // Reconstruct the common base multiset M of this iteration: every
        // honest party accepts (at grade 2) the leads of all honest parties
        // and of all still-honest-behaving corrupted parties. Burned
        // leaders are muted by everyone; the leaders about to be burned
        // have their leads replaced below.
        let start = if self.reuse_leaders {
            0
        } else {
            self.next_fresh
        };
        let fresh: Vec<PartyId> = self.byz[start..].iter().copied().take(burn).collect();
        let mut base: Vec<f64> = Vec::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in (0..ctx.n()).map(PartyId) {
            if fresh.contains(&p) {
                continue; // handled as per-group extras below
            }
            if self.byz[..self.next_fresh].contains(&p) && !self.reuse_leaders {
                // Burned earlier: silenced. Under the fill rule every
                // honest party substitutes the public constant; under the
                // ablated rule the slot simply disappears.
                if !self.model_variable_multisets {
                    base.push(self.fill_value);
                }
                continue;
            }
            let mut led = false;
            let outbox = ctx.tentative_outbox(p);
            let payloads = outbox
                .broadcasts()
                .iter()
                .chain(outbox.unicasts().iter().map(|e| &e.payload));
            for msg in payloads {
                if let GcBatchMsg::Lead(v) = &msg.body {
                    base.push(v.get());
                    led = true;
                    if self.honest.contains(&p) {
                        lo = lo.min(v.get());
                        hi = hi.max(v.get());
                    }
                    break;
                }
            }
            if !led && !self.model_variable_multisets {
                base.push(self.fill_value); // terminated party: graded 0
            }
        }
        if fresh.is_empty() || !lo.is_finite() || !hi.is_finite() {
            return; // honest parties are silent (terminated); nothing to do
        }
        if !self.reuse_leaders {
            self.next_fresh += fresh.len();
        }

        // Choose, for each fresh leader, a target group (the honest half
        // that will accept) and a planted value, maximizing the divergence
        // of the two groups' trimmed means. The adversary has full
        // information, so it simply evaluates the update rule. Candidate
        // values: the honest extremes and far-out values (which survive as
        // extra copies of the multiset's edge elements after trimming).
        let spanwidth = (hi - lo).max(1.0);
        let candidates = [lo, hi, lo - 4.0 * spanwidth, hi + 4.0 * spanwidth];
        let options: Vec<(bool, f64)> = candidates
            .iter()
            .flat_map(|&x| [(true, x), (false, x)])
            .collect();

        let fill = self.fill_value;
        let variable = self.model_variable_multisets;
        let eval = |assign: &[(bool, f64)]| -> f64 {
            let mut m_high = base.clone();
            let mut m_low = base.clone();
            for &(to_high, x) in assign {
                if to_high {
                    m_high.push(x);
                    if !variable {
                        m_low.push(fill);
                    }
                } else {
                    if !variable {
                        m_high.push(fill);
                    }
                    m_low.push(x);
                }
            }
            match (
                crate::multiset::trimmed_mean(&mut m_high, t),
                crate::multiset::trimmed_mean(&mut m_low, t),
            ) {
                (Some(a), Some(b)) => (a - b).abs(),
                _ => 0.0,
            }
        };

        let mut best: Vec<(bool, f64)> = vec![options[0]; fresh.len()];
        let mut best_score = eval(&best);
        if fresh.len() <= 3 {
            // Exhaustive search over per-leader assignments.
            let k = options.len();
            let total = k.pow(fresh.len() as u32);
            for code in 0..total {
                let mut c = code;
                let assign: Vec<(bool, f64)> = (0..fresh.len())
                    .map(|_| {
                        let o = options[c % k];
                        c /= k;
                        o
                    })
                    .collect();
                let score = eval(&assign);
                if score > best_score {
                    best_score = score;
                    best = assign;
                }
            }
        } else {
            // All leaders share the best single option.
            for &opt in &options {
                let assign = vec![opt; fresh.len()];
                let score = eval(&assign);
                if score > best_score {
                    best_score = score;
                    best = assign;
                }
            }
        }

        for (j, &leader) in fresh.iter().enumerate() {
            let (to_high, x) = best[j];
            let group = if to_high {
                self.high_group.clone()
            } else {
                self.low_group.clone()
            };
            self.plans.push((leader, group, x));
        }
    }
}

/// Returns `msg` with the given leader slots overwritten: echo batches get
/// the planted value, vote batches its hash. Leads pass through.
fn plant(msg: &GcBatchMsg<R64>, plants: &[(usize, R64)], n: usize) -> GcBatchMsg<R64> {
    fn overwrite<T: Clone>(
        slots: &GcSlots<T>,
        n: usize,
        plants: impl Iterator<Item = (usize, T)>,
    ) -> Arc<GcSlots<T>> {
        let mut opts: Vec<Option<T>> = vec![None; n];
        for (l, v) in slots.iter().filter(|&(l, _)| l < n) {
            opts[l] = Some(v.clone());
        }
        for (l, v) in plants {
            opts[l] = Some(v);
        }
        Arc::new(GcSlots::from_options(opts))
    }
    let plants = plants.iter().copied();
    match msg {
        GcBatchMsg::Lead(_) => msg.clone(),
        GcBatchMsg::Echoes(slots) => GcBatchMsg::Echoes(overwrite(slots, n, plants)),
        GcBatchMsg::Votes(slots) => {
            GcBatchMsg::Votes(overwrite(slots, n, plants.map(|(l, x)| (l, x.hash32()))))
        }
        GcBatchMsg::KeyedVotes(slots) => GcBatchMsg::KeyedVotes(overwrite(
            slots,
            n,
            plants.map(|(l, x)| (l, VoteKey::Hash(x.hash32()))),
        )),
    }
}

impl BudgetSplitEquivocator {
    /// Relays corrupted party `b`'s honest batch of this phase to every
    /// party, planting each plan's value for the recipients `targets`
    /// picks out of the plan's accepting group. A machine that already
    /// terminated has no batch; the plants then travel alone.
    fn relay_with_plants(
        &self,
        ctx: &mut AdversaryCtx<'_, RealAaMsg>,
        b: PartyId,
        iter: u32,
        empty: &GcBatchMsg<R64>,
        targets: impl Fn(&[PartyId]) -> &[PartyId],
    ) {
        let n = ctx.n();
        let mut batches: Vec<RealAaMsg> = ctx.tentative_outbox(b).broadcasts().to_vec();
        if batches.is_empty() {
            batches.push(RealAaMsg {
                iter,
                body: empty.clone(),
            });
        }
        for to in (0..n).map(PartyId) {
            let plants: Vec<(usize, R64)> = self
                .plans
                .iter()
                .filter(|(_, group, _)| targets(group).contains(&to))
                .map(|&(q, _, x)| (q.index(), R64::new(x)))
                .collect();
            for msg in &batches {
                let body = plant(&msg.body, &plants, n);
                ctx.send(
                    b,
                    to,
                    RealAaMsg {
                        iter: msg.iter,
                        body,
                    },
                );
            }
        }
    }
}

impl Adversary<RealAaMsg> for BudgetSplitEquivocator {
    fn round(&mut self, ctx: &mut AdversaryCtx<'_, RealAaMsg>) {
        if ctx.round() == 1 {
            for &b in &self.byz.clone() {
                ctx.corrupt(b).expect("static set within budget");
            }
        }
        let iter = ((ctx.round() - 1) / 3) as usize;
        let phase = (ctx.round() - 1) % 3;
        let c = self.byz.len();
        let n = ctx.n();
        let t = ctx.t();

        if phase == 0 {
            self.plan_iteration(iter, ctx, t);
        }

        if phase == 0 || self.plans.is_empty() {
            // Forward every corrupted machine's honest behaviour, except
            // the leads of leaders being burned this iteration.
            let burning: Vec<PartyId> = self.plans.iter().map(|&(q, _, _)| q).collect();
            for &b in &self.byz {
                if phase == 0 && burning.contains(&b) {
                    continue;
                }
                ctx.forward(b);
            }
        }
        if self.plans.is_empty() {
            return;
        }

        match phase {
            0 => {
                // Selective leads: value x to the first n - t - c honest
                // parties only.
                let s_size = n.saturating_sub(t + c).min(self.honest.len());
                let s: Vec<PartyId> = self.honest[..s_size].to_vec();
                for (q, _, x) in self.plans.clone() {
                    for &p in &s {
                        ctx.send(
                            q,
                            p,
                            RealAaMsg {
                                iter: iter as u32,
                                body: GcBatchMsg::Lead(R64::new(x)),
                            },
                        );
                    }
                }
            }
            1 => {
                // Echo top-up: every corrupted party echoes x to the
                // designated honest voters V (|V| = t + 1 - c members of
                // the accepting group).
                let v_size = (t + 1).saturating_sub(c).max(1);
                let empty = GcBatchMsg::Echoes(Arc::new(GcSlots::from_options(vec![None; n])));
                for &b in &self.byz {
                    self.relay_with_plants(ctx, b, iter as u32, &empty, |group| {
                        &group[..v_size.min(group.len())]
                    });
                }
            }
            _ => {
                // Vote top-up: every corrupted party votes x toward the
                // whole accepting group, lifting it to t + 1 votes (grade
                // 1) while the other group sees at most t.
                let empty = GcBatchMsg::Votes(Arc::new(GcSlots::from_options(vec![None; n])));
                for &b in &self.byz {
                    self.relay_with_plants(ctx, b, iter as u32, &empty, |group| group);
                }
            }
        }
    }
}

/// Number of message kinds a chaos draw picks from; see
/// [`ChaosBatches::draw`].
pub const CHAOS_KINDS: u32 = 6;

/// One corrupted party's chaos gradecast traffic of one round, merged per
/// key: the recipient plus whatever tags the caller's message carries.
///
/// Receivers count only a sender's first echo batch and first vote batch
/// per phase, so every echo and every vote drawn for one key rides in one
/// batch, and a later draw for a leader overwrites an earlier one. Leads
/// are not merged: a sender leads only its own instance, and receivers
/// keep its first lead. Shared by the chaos adversaries of this crate and
/// of `tree-aa`.
#[derive(Clone, Debug)]
pub struct ChaosBatches<K> {
    n: usize,
    echoes: BTreeMap<K, Vec<Option<R64>>>,
    votes: BTreeMap<K, Vec<Option<VoteKey>>>,
}

impl<K: Ord> ChaosBatches<K> {
    /// An empty collector for `n` parties.
    pub fn new(n: usize) -> Self {
        ChaosBatches {
            n,
            echoes: BTreeMap::new(),
            votes: BTreeMap::new(),
        }
    }

    /// Records one draw of `kind` (below [`CHAOS_KINDS`]): 0–1 lead `x`,
    /// returned to be sent at once; 2–3 echo `x` for `leader`; 4 vote for
    /// `x` by hash, 5 by exact key, which makes the batch keyed.
    pub fn draw(&mut self, key: K, kind: u32, leader: PartyId, x: R64) -> Option<GcBatchMsg<R64>> {
        let n = self.n;
        match kind {
            0 | 1 => return Some(GcBatchMsg::Lead(x)),
            2 | 3 => {
                self.echoes.entry(key).or_insert_with(|| vec![None; n])[leader.index()] = Some(x)
            }
            4 => {
                self.votes.entry(key).or_insert_with(|| vec![None; n])[leader.index()] =
                    Some(VoteKey::Hash(x.hash32()))
            }
            _ => {
                self.votes.entry(key).or_insert_with(|| vec![None; n])[leader.index()] =
                    Some(VoteKey::Exact(x.bits64()))
            }
        }
        None
    }

    /// The merged batches, echoes before votes, each in key order; empties
    /// the collector. A vote batch is keyed only if it holds an exact key.
    pub fn drain(&mut self) -> Vec<(K, GcBatchMsg<R64>)> {
        let echoes = std::mem::take(&mut self.echoes)
            .into_iter()
            .map(|(k, opts)| (k, GcBatchMsg::Echoes(Arc::new(GcSlots::from_options(opts)))));
        let votes = std::mem::take(&mut self.votes)
            .into_iter()
            .map(|(k, opts)| {
                let slots = GcSlots::from_options(opts);
                let body = if slots.iter().any(|(_, v)| matches!(v, VoteKey::Exact(_))) {
                    GcBatchMsg::KeyedVotes(Arc::new(slots))
                } else {
                    GcBatchMsg::Votes(Arc::new(slots.map(|v| match v {
                        VoteKey::Hash(h) => h,
                        VoteKey::Exact(_) => unreachable!("checked above"),
                    })))
                };
                (k, body)
            });
        echoes.chain(votes).collect()
    }
}

/// A chaos adversary for `RealAA`: statically corrupts a set and sprays
/// random, arbitrarily tagged gradecast messages with values drawn from
/// around the honest input range, each party's echoes and votes merged
/// into one batch per recipient and iteration tag ([`ChaosBatches`]).
/// Used by the property tests: whatever it does, validity and
/// ε-agreement must hold.
#[derive(Clone, Debug)]
pub struct RealAaChaos {
    byz: Vec<PartyId>,
    rng: ChaCha8Rng,
    /// Values are sampled uniformly from this range (deliberately wider
    /// than any honest range to probe validity).
    pub value_range: (f64, f64),
}

impl RealAaChaos {
    /// Creates the adversary with its own deterministic RNG.
    pub fn new(byz: Vec<PartyId>, seed: u64, value_range: (f64, f64)) -> Self {
        use rand::SeedableRng;
        RealAaChaos {
            byz,
            rng: ChaCha8Rng::seed_from_u64(seed),
            value_range,
        }
    }
}

impl Adversary<RealAaMsg> for RealAaChaos {
    fn round(&mut self, ctx: &mut AdversaryCtx<'_, RealAaMsg>) {
        if ctx.round() == 1 {
            for &b in &self.byz.clone() {
                ctx.corrupt(b).expect("static set within budget");
            }
        }
        let n = ctx.n();
        let byz = self.byz.clone();
        let mut batches = ChaosBatches::new(n);
        for &b in &byz {
            let bursts = self.rng.gen_range(0..2 * n);
            for _ in 0..bursts {
                let to = PartyId(self.rng.gen_range(0..n));
                let leader = PartyId(self.rng.gen_range(0..n));
                let (lo, hi) = self.value_range;
                let x = R64::new(self.rng.gen_range(lo..=hi));
                // Tags near the plausible current iteration, sometimes off.
                let iter = ((ctx.round() - 1) / 3).saturating_sub(self.rng.gen_range(0..2))
                    + self.rng.gen_range(0..2u32);
                let kind = self.rng.gen_range(0..CHAOS_KINDS);
                if let Some(body) = batches.draw((to, iter), kind, leader, x) {
                    ctx.send(b, to, RealAaMsg { iter, body });
                }
            }
            for ((to, iter), body) in batches.drain() {
                ctx.send(b, to, RealAaMsg { iter, body });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real_aa::{RealAaConfig, RealAaParty};
    use sim_net::{run_simulation, SimConfig};

    fn spread(outs: &[f64]) -> f64 {
        let lo = outs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = outs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    }

    #[test]
    fn equal_split_examples() {
        assert_eq!(equal_split_schedule(6, 3), vec![2, 2, 2]);
        assert_eq!(equal_split_schedule(5, 3), vec![2, 2, 1]);
        assert_eq!(equal_split_schedule(0, 2), vec![0, 0]);
        assert_eq!(equal_split_schedule(3, 0), Vec::<usize>::new());
    }

    /// The equivocator burns one leader in iteration 1 against n = 7,
    /// t = 2; the run must preserve validity and ε-agreement, and every
    /// honest party must end up having muted the burned leader.
    #[test]
    fn burned_leader_is_silenced_but_safety_holds() {
        let n = 7;
        let t = 2;
        let cfg = RealAaConfig::new(n, t, 1.0, 100.0).unwrap();
        let byz = vec![PartyId(0), PartyId(1)];
        let adv = BudgetSplitEquivocator::new(n, byz, vec![1, 1]);
        let inputs = [0.0, 0.0, 0.0, 100.0, 30.0, 60.0, 90.0];
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            adv,
        )
        .unwrap();
        let outs = report.honest_outputs();
        assert!(spread(&outs) <= 1.0, "eps-agreement violated: {outs:?}");
        for &o in &outs {
            assert!((0.0..=100.0).contains(&o), "validity violated: {o}");
        }
    }

    /// Against the equivocator the first attacked iteration must actually
    /// produce divergent honest values (otherwise the adversary is a
    /// no-op and the convergence benchmark is meaningless).
    #[test]
    fn split_produces_real_divergence_then_recovers() {
        let n = 7;
        let t = 2;
        // Only one iteration of budget: after it, all honest multisets
        // agree again and the spread collapses to 0 in the next iteration.
        let cfg = RealAaConfig::new(n, t, 1e-9, 100.0).unwrap();
        let byz = vec![PartyId(5), PartyId(6)];
        let adv = BudgetSplitEquivocator::new(n, byz, vec![2]);
        let inputs = [0.0, 25.0, 50.0, 75.0, 100.0, 0.0, 0.0];
        let report = run_simulation(
            SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            |id, _| RealAaParty::new(id, cfg, inputs[id.index()]),
            adv,
        )
        .unwrap();
        let outs = report.honest_outputs();
        // eps is tiny; the protocol still converges because the budget is
        // exhausted after iteration 1 and every later iteration is clean.
        assert!(spread(&outs) <= 1e-9, "final spread {}", spread(&outs));
        for &o in &outs {
            assert!((0.0..=100.0).contains(&o));
        }
    }

    /// Echoes and votes drawn for one key leave as one batch each, a later
    /// draw for a leader overwriting an earlier one; leads leave at once.
    #[test]
    fn chaos_draws_merge_into_one_batch_per_key() {
        let (x, y) = (R64::new(1.0), R64::new(2.0));
        let mut batches = ChaosBatches::new(3);
        assert_eq!(
            batches.draw((0, 0), 1, PartyId(2), x),
            Some(GcBatchMsg::Lead(x))
        );
        assert_eq!(batches.draw((0, 0), 2, PartyId(1), x), None);
        batches.draw((0, 0), 3, PartyId(1), y);
        batches.draw((0, 0), 2, PartyId(2), x);
        batches.draw((1, 0), 4, PartyId(0), x);
        batches.draw((0, 0), 4, PartyId(0), x);
        batches.draw((0, 0), 5, PartyId(1), y);
        fn slots<T>(opts: Vec<Option<T>>) -> Arc<GcSlots<T>> {
            Arc::new(GcSlots::from_options(opts))
        }
        assert_eq!(
            batches.drain(),
            vec![
                (
                    (0, 0),
                    GcBatchMsg::Echoes(slots(vec![None, Some(y), Some(x)]))
                ),
                (
                    (0, 0),
                    GcBatchMsg::KeyedVotes(slots(vec![
                        Some(VoteKey::Hash(x.hash32())),
                        Some(VoteKey::Exact(y.bits64())),
                        None,
                    ]))
                ),
                (
                    (1, 0),
                    GcBatchMsg::Votes(slots(vec![Some(x.hash32()), None, None]))
                ),
            ]
        );
        assert!(batches.drain().is_empty());
    }

    #[test]
    #[should_panic(expected = "schedule spends")]
    fn overspending_schedule_rejected() {
        let _ = BudgetSplitEquivocator::new(7, vec![PartyId(0)], vec![2]);
    }
}
