//! Parallel gradecast over the batched wire.
//!
//! Every party leads one instance, and all n instances share the same
//! three rounds. Each party broadcasts **one** message per phase carrying
//! a struct-of-arrays view of all n instances — a presence bitmap
//! (⌈n/8⌉ wire bytes) plus a dense vector of per-leader entries — wrapped
//! in an [`Arc`] so cloning a batch out of an inbox never copies the
//! arrays. Delivered bytes per round are O(n²), where one message per
//! instance would pay O(n³).
//!
//! Two levers cut the bytes:
//!
//! * **Shared framing.** The tag and the leader id are paid once per
//!   batch, not once per instance: a slot's position names its leader.
//! * **Votes by hash.** A vote batch carries a 4-byte
//!   [`GcValue::hash32`] per instance instead of the value. A receiver
//!   resolves a hash to the value it binds through its own echo tally:
//!   among the echoed candidates with that hash, the one with the most
//!   echoes.
//!
//! # Binding under colliding hashes
//!
//! A 32-bit hash collides on purpose in about 2^16 tries, so resolution
//! alone cannot be trusted: a Byzantine leader that equivocates two
//! colliding values x and x′ can steer the echo counts so that one
//! honest receiver resolves the honest votes for x to x′. The fix is
//! **escalation**: a voter sends the exact 64-bit key
//! ([`GcValue::bits64`], injective) instead of the hash exactly when its
//! echo tally for that leader holds another value with the same hash.
//! Receivers count exact votes by key and resolve hash votes as above.
//!
//! Why this is sound. An honest vote for x needs n − t echoes of x, of
//! which at least n − 2t > t are honest; honest echoes reach every
//! party, so every honest receiver holds x with more than t echoes. A
//! *wrong* resolution of a hash vote for x needs a colliding x′ with at
//! least as many echoes at some receiver, hence more than t echoes,
//! hence at least one honest echo of x′. Every honest voter sees that
//! echo too, so every honest vote for that leader is exact. Turned
//! around: an honest hash vote means no colliding value has more than t
//! echoes anywhere, so it resolves to the voted value at every honest
//! receiver. Every honest vote is therefore counted for the value its
//! voter meant, and each Byzantine voter adds at most one vote per
//! leader — exactly the textbook gradecast, whose binding and grade-gap
//! proofs then apply unchanged. Keys that resolve to nothing carry only
//! Byzantine votes (at most t) and are dropped, which cannot change a
//! grade. On honest runs no tally holds two values for a leader, no vote
//! escalates, and vote batches keep their 4-byte entries.
//!
//! The tallies themselves are struct-of-arrays (`u64` key per leader +
//! `u32` count per leader), so absorbing a full honest batch is one
//! [`aa_kernels::eq_count_u64`] sweep; divergent (Byzantine) slots fall
//! back to a per-slot path backed by `BTreeMap` overflow tables.
//!
//! # Muting
//!
//! [`BatchGradecast::mute`] makes a party *stop relaying* (echoing and
//! voting) for a given leader while still evaluating that leader's grades
//! from other parties' traffic. Muting is how `RealAA` permanently
//! silences parties caught equivocating: once more than `t` honest parties
//! mute a leader, no value of that leader can gather the `n − t` echoes
//! needed for a single honest vote, so every honest party grades it 0
//! forever after.

use std::collections::BTreeMap;
use std::sync::Arc;

use sim_net::{PartyId, Payload};

use crate::state::{Grade, GradecastOutput};

/// A value batched gradecast can tally in struct-of-arrays form.
///
/// `bits64` must be **injective** on the values a deployment actually
/// gradecasts: the batch tallies compare 64-bit keys, not values, so two
/// distinct values mapping to the same key would be merged. Both wire
/// types in this repository qualify exactly (`u64` is the identity,
/// `real-aa`'s `R64` uses the IEEE-754 bit pattern, injective on finite
/// reals).
pub trait GcValue: Clone + Ord + std::fmt::Debug {
    /// An injective 64-bit encoding of the value.
    fn bits64(&self) -> u64;

    /// The 32-bit key vote batches carry on the wire: a fixed avalanche
    /// mix of [`GcValue::bits64`] (splitmix64 finalizer, xor-folded).
    fn hash32(&self) -> u32 {
        let z = self.bits64().wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z >> 32) ^ z) as u32
    }
}

impl GcValue for u64 {
    fn bits64(&self) -> u64 {
        *self
    }
}

/// Wire bytes of an n-slot presence bitmap.
fn bitmap_bytes(n: usize) -> usize {
    n.div_ceil(8)
}

/// A struct-of-arrays view of per-leader slots: a presence bitmap plus
/// a dense vector of entries in leader order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GcSlots<T> {
    present: Vec<bool>,
    entries: Vec<T>,
}

impl<T> GcSlots<T> {
    /// Builds slots from a per-leader option vector.
    pub fn from_options(slots: Vec<Option<T>>) -> Self {
        let mut present = Vec::with_capacity(slots.len());
        let mut entries = Vec::new();
        for slot in slots {
            present.push(slot.is_some());
            if let Some(v) = slot {
                entries.push(v);
            }
        }
        GcSlots { present, entries }
    }

    /// Number of leader slots (present or not).
    pub fn n(&self) -> usize {
        self.present.len()
    }

    /// Whether every slot is present (the honest-path fast case).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.present.len()
    }

    /// Iterates `(leader, entry)` over the present slots in leader order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(l, _)| l)
            .zip(self.entries.iter())
    }

    /// Whether `slot` is present. Out-of-range slots are absent.
    pub fn is_present(&self, slot: usize) -> bool {
        self.present.get(slot).copied().unwrap_or(false)
    }

    /// The same presence bitmap with every entry mapped through `f`.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> GcSlots<U> {
        GcSlots {
            present: self.present,
            entries: self.entries.into_iter().map(f).collect(),
        }
    }

    /// Wire bytes of the bitmap plus per-entry payloads as sized by `f`.
    /// Public so nested batch formats (the bundled wire in
    /// [`crate::bundle`]) can size inner slots recursively.
    pub fn wire_bytes_with(&self, f: impl Fn(&T) -> usize) -> usize {
        bitmap_bytes(self.n()) + self.entries.iter().map(f).sum::<usize>()
    }
}

/// One voter's key for one leader in an escalated vote batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum VoteKey {
    /// [`GcValue::hash32`] of the voted value: the default key.
    Hash(u32),
    /// [`GcValue::bits64`] of the voted value, sent when the voter's echo
    /// tally for the leader holds another value with the same hash.
    Exact(u64),
}

impl VoteKey {
    /// Wire bytes of the key: a kind byte plus the key itself.
    pub fn wire_bytes(&self) -> usize {
        match self {
            VoteKey::Hash(_) => 1 + 4,
            VoteKey::Exact(_) => 1 + 8,
        }
    }
}

/// One voter's vote slots for one instance: hash-only on every honest
/// run, keyed once any entry escalated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcVotes {
    /// Every present slot carries [`GcValue::hash32`].
    Hashed(GcSlots<u32>),
    /// At least one slot carries [`VoteKey::Exact`].
    Keyed(GcSlots<VoteKey>),
}

impl GcVotes {
    /// The slots as keys, whichever form they were built in.
    pub fn into_keyed(self) -> GcSlots<VoteKey> {
        match self {
            GcVotes::Hashed(slots) => slots.map(VoteKey::Hash),
            GcVotes::Keyed(slots) => slots,
        }
    }
}

/// A batched gradecast message: one broadcast per sender per phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcBatchMsg<V> {
    /// Round 1: the leader's own value.
    Lead(V),
    /// Round 2: this sender's echo for every leader it heard, as one
    /// `Arc`-shared struct-of-arrays batch.
    Echoes(Arc<GcSlots<V>>),
    /// Round 3: this sender's vote for every leader that reached the
    /// echo threshold — 4 bytes per instance ([`GcValue::hash32`]).
    Votes(Arc<GcSlots<u32>>),
    /// Round 3 when at least one vote escalated to its exact key (see
    /// the module docs); only a hash collision in the echo tally
    /// produces this.
    KeyedVotes(Arc<GcSlots<VoteKey>>),
}

impl<V> From<GcVotes> for GcBatchMsg<V> {
    fn from(votes: GcVotes) -> Self {
        match votes {
            GcVotes::Hashed(slots) => GcBatchMsg::Votes(Arc::new(slots)),
            GcVotes::Keyed(slots) => GcBatchMsg::KeyedVotes(Arc::new(slots)),
        }
    }
}

impl<V: Payload> Payload for GcBatchMsg<V> {
    fn size_bytes(&self) -> usize {
        // Tag byte + batch body. Entry payloads are sized through their
        // own `Payload` impls, so heap-carrying values count their real
        // wire size.
        match self {
            GcBatchMsg::Lead(v) => 1 + v.size_bytes(),
            GcBatchMsg::Echoes(slots) => 1 + slots.wire_bytes_with(Payload::size_bytes),
            GcBatchMsg::Votes(slots) => 1 + slots.wire_bytes_with(|_| 4),
            GcBatchMsg::KeyedVotes(slots) => 1 + slots.wire_bytes_with(VoteKey::wire_bytes),
        }
    }
}

/// One batch of `n` parallel gradecast instances (every party leads one),
/// as a pure three-phase state machine.
///
/// The caller drives the phases in order, feeding each phase the messages
/// delivered for it and broadcasting the message each phase returns:
///
/// 1. [`BatchGradecast::lead_msg`] — this party's round-1 broadcast;
/// 2. [`BatchGradecast::on_leads`] — consume leads, produce echoes;
/// 3. [`BatchGradecast::on_echoes`] — consume echoes, produce votes;
/// 4. [`BatchGradecast::on_votes`] — consume votes, produce the final
///    [`GradecastOutput`] per leader.
///
/// Only the first batch from each sender per phase counts (and the first
/// lead per leader): a Byzantine sender gains nothing by repeating itself
/// on an authenticated channel.
#[derive(Clone, Debug)]
pub struct BatchGradecast<V> {
    n: usize,
    t: usize,
    muted: Vec<bool>,
    /// Per leader: the lead value received (first lead wins).
    leads: Vec<Option<V>>,

    /// Per sender: whether an echo batch was already absorbed.
    echo_from: Vec<bool>,
    /// Per leader: whether an echo candidate exists (`echo_cnt` and
    /// `echo_bits` are meaningful only where this is set).
    echo_set: Vec<bool>,
    /// Leaders still without a candidate (fast path requires 0).
    echo_missing: usize,
    /// Per leader: `bits64` of the first value echoed for it.
    echo_bits: Vec<u64>,
    /// Per leader: distinct-sender echo count for the first value.
    echo_cnt: Vec<u32>,
    /// Per leader: the first value echoed for it.
    echo_val: Vec<Option<V>>,
    /// Rare path: `(leader, bits64)` → (value, count) for second and
    /// further distinct values — only Byzantine equivocation lands here.
    echo_overflow: BTreeMap<(usize, u64), (V, u32)>,

    /// Per sender: whether a vote batch was already absorbed.
    vote_from: Vec<bool>,
    /// Per leader: whether a vote candidate hash exists.
    vote_set: Vec<bool>,
    /// Leaders still without a vote candidate.
    vote_missing: usize,
    /// Per leader: the first vote hash seen (widened for the kernel).
    vote_bits: Vec<u64>,
    /// Per leader: distinct-sender vote count for the first hash.
    vote_cnt: Vec<u32>,
    /// Rare path: `(leader, key)` → count for further distinct hashes
    /// and for escalated exact keys.
    vote_overflow: BTreeMap<(usize, VoteKey), u32>,

    /// Reused per-batch key buffer for the kernel sweep.
    scratch: Vec<u64>,
}

impl<V: GcValue> BatchGradecast<V> {
    /// Creates a batch for party `me` out of `n` with corruption bound
    /// `t`, with no leaders muted.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` and `me < n` — gradecast's guarantees need
    /// `t < n/3`, and constructing it outside that regime is a bug.
    pub fn new(me: PartyId, n: usize, t: usize) -> Self {
        assert!(n > 3 * t, "gradecast requires n > 3t (n = {n}, t = {t})");
        assert!(me.index() < n, "party id out of range");
        BatchGradecast {
            n,
            t,
            muted: vec![false; n],
            leads: vec![None; n],
            echo_from: vec![false; n],
            echo_set: vec![false; n],
            echo_missing: n,
            echo_bits: vec![0; n],
            echo_cnt: vec![0; n],
            echo_val: vec![None; n],
            echo_overflow: BTreeMap::new(),
            vote_from: vec![false; n],
            vote_set: vec![false; n],
            vote_missing: n,
            vote_bits: vec![0; n],
            vote_cnt: vec![0; n],
            vote_overflow: BTreeMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Resets every tally to the freshly-constructed state with a new
    /// muted set, reusing the existing buffers: a fresh
    /// [`BatchGradecast::new`] muted as given, without the heap
    /// allocations — the lever that lets a party recycle
    /// its gradecast state every iteration.
    ///
    /// # Panics
    ///
    /// Panics unless `muted.len() == n`.
    pub fn reset_with_muted(&mut self, muted: &[bool]) {
        assert_eq!(muted.len(), self.n, "muted set must cover all parties");
        self.muted.copy_from_slice(muted);
        self.leads.fill(None);
        self.echo_from.fill(false);
        self.echo_set.fill(false);
        self.echo_missing = self.n;
        self.echo_bits.fill(0);
        self.echo_cnt.fill(0);
        self.echo_val.fill(None);
        self.echo_overflow.clear();
        self.vote_from.fill(false);
        self.vote_set.fill(false);
        self.vote_missing = self.n;
        self.vote_bits.fill(0);
        self.vote_cnt.fill(0);
        self.vote_overflow.clear();
    }

    /// Stops relaying for `leader`.
    pub fn mute(&mut self, leader: PartyId) {
        self.muted[leader.index()] = true;
    }

    /// Phase 1: the message this party broadcasts as leader of its own
    /// instance.
    pub fn lead_msg(&self, value: V) -> GcBatchMsg<V> {
        GcBatchMsg::Lead(value)
    }

    /// Phase 2: consume round-1 leads, return the echo batch to
    /// broadcast. Leads from muted leaders are ignored and get no slot.
    pub fn on_leads<'a, I>(&mut self, inbox: I) -> GcBatchMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBatchMsg<V>)>,
        V: 'a,
    {
        for (from, msg) in inbox {
            if let GcBatchMsg::Lead(v) = msg {
                self.absorb_lead(from, v);
            }
        }
        GcBatchMsg::Echoes(Arc::new(self.echo_slots()))
    }

    /// Absorbs one round-1 lead from `from` (first lead per leader wins;
    /// muted leaders are ignored). The absorb half of
    /// [`BatchGradecast::on_leads`], public so the bundled wire in
    /// [`crate::bundle`] can feed many instances from one message.
    pub fn absorb_lead(&mut self, from: PartyId, v: &V) {
        let leader = from.index();
        if !self.muted[leader] && self.leads[leader].is_none() {
            self.leads[leader] = Some(v.clone());
        }
    }

    /// The echo slots this party would broadcast after absorbing leads:
    /// the produce half of [`BatchGradecast::on_leads`].
    pub fn echo_slots(&self) -> GcSlots<V> {
        let mut present = Vec::with_capacity(self.n);
        let mut entries = Vec::with_capacity(self.n);
        for lead in &self.leads {
            present.push(lead.is_some());
            if let Some(v) = lead {
                entries.push(v.clone());
            }
        }
        GcSlots { present, entries }
    }

    /// Phase 3: consume round-2 echo batches, return the vote batch to
    /// broadcast. A vote slot for leader `ℓ` is present iff `n − t`
    /// distinct parties echoed one value for `ℓ` and `ℓ` is not muted.
    pub fn on_echoes<'a, I>(&mut self, inbox: I) -> GcBatchMsg<V>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBatchMsg<V>)>,
        V: 'a,
    {
        for (from, msg) in inbox {
            if let GcBatchMsg::Echoes(slots) = msg {
                self.absorb_echo_slots(from, slots);
            }
        }
        self.vote_slots().into()
    }

    /// The echo-tallied candidates for `leader` with their echo counts:
    /// the first value echoed, then the overflow values.
    fn echo_candidates(&self, leader: usize) -> impl Iterator<Item = (&V, u32)> {
        let first = self.echo_set[leader].then(|| {
            (
                self.echo_val[leader].as_ref().expect("set implies value"),
                self.echo_cnt[leader],
            )
        });
        // Honest runs never fill the overflow table; skip the range
        // lookup entirely then.
        let overflow = (!self.echo_overflow.is_empty())
            .then(|| self.echo_overflow.range((leader, 0)..=(leader, u64::MAX)))
            .into_iter()
            .flatten()
            .map(|(_, (v, c))| (v, *c));
        first.into_iter().chain(overflow)
    }

    /// This party's vote key for `leader`, if it votes: the hash of the
    /// value with `n − t` echoes, escalated to the exact key when another
    /// tallied value shares that hash.
    fn vote_key(&self, leader: usize) -> Option<VoteKey> {
        if self.muted[leader] {
            return None;
        }
        let quorum = self.n - self.t;
        if self.echo_overflow.is_empty() {
            // Honest runs: one candidate per leader, nothing to collide.
            let voted = self.echo_set[leader] && self.echo_cnt[leader] as usize >= quorum;
            let v = self.echo_val[leader].as_ref().filter(|_| voted)?;
            return Some(VoteKey::Hash(v.hash32()));
        }
        // At most one value can reach n − t distinct echoes (two would
        // need 2(n − t) > n senders), so the first hit is the only one.
        let (v, _) = self
            .echo_candidates(leader)
            .find(|&(_, c)| c as usize >= quorum)?;
        let (bits, hash) = (v.bits64(), v.hash32());
        let collides = self
            .echo_candidates(leader)
            .any(|(u, _)| u.bits64() != bits && u.hash32() == hash);
        Some(if collides {
            VoteKey::Exact(bits)
        } else {
            VoteKey::Hash(hash)
        })
    }

    /// The vote slots this party would broadcast after absorbing echoes:
    /// the produce half of [`BatchGradecast::on_echoes`]. Hash-only
    /// unless some vote escalated.
    pub fn vote_slots(&self) -> GcVotes {
        let mut present = Vec::with_capacity(self.n);
        let mut entries = Vec::with_capacity(self.n);
        for l in 0..self.n {
            match self.vote_key(l) {
                None => present.push(false),
                Some(VoteKey::Hash(h)) => {
                    present.push(true);
                    entries.push(h);
                }
                Some(VoteKey::Exact(_)) => {
                    let keys = (0..self.n).map(|l| self.vote_key(l)).collect();
                    return GcVotes::Keyed(GcSlots::from_options(keys));
                }
            }
        }
        GcVotes::Hashed(GcSlots { present, entries })
    }

    /// Phase 4: consume round-3 vote batches and produce the output for
    /// every leader. Outputs are computed for muted leaders too: muting
    /// suppresses *relaying*, not *evaluation* (see the module docs on
    /// why `RealAA` needs exactly this split).
    pub fn on_votes<'a, I>(&mut self, inbox: I) -> Vec<GradecastOutput<V>>
    where
        I: IntoIterator<Item = (PartyId, &'a GcBatchMsg<V>)>,
        V: 'a,
    {
        for (from, msg) in inbox {
            match msg {
                GcBatchMsg::Votes(slots) => self.absorb_vote_slots(from, slots),
                GcBatchMsg::KeyedVotes(slots) => self.absorb_keyed_vote_slots(from, slots),
                _ => {}
            }
        }
        self.grade_all()
    }

    /// Grades every leader: the produce half of
    /// [`BatchGradecast::on_votes`].
    pub fn grade_all(&self) -> Vec<GradecastOutput<V>> {
        (0..self.n).map(|l| self.grade_leader(l)).collect()
    }

    /// [`BatchGradecast::grade_all`] into a caller-owned buffer
    /// (cleared first), so a bundle grading many instances per round
    /// allocates nothing.
    pub fn grade_into(&self, out: &mut Vec<GradecastOutput<V>>) {
        out.clear();
        out.extend((0..self.n).map(|l| self.grade_leader(l)));
    }

    /// Folds one sender's echo batch into the per-leader tallies: a
    /// single kernel sweep when the batch is full and every leader
    /// already has a candidate key, per-slot otherwise. The absorb half
    /// of [`BatchGradecast::on_echoes`]; duplicate batches from the same
    /// sender are ignored.
    pub fn absorb_echo_slots(&mut self, sender: PartyId, slots: &GcSlots<V>) {
        let sender = sender.index();
        if slots.n() != self.n || self.echo_from[sender] {
            return;
        }
        self.echo_from[sender] = true;
        if slots.is_full() && self.echo_missing == 0 {
            self.scratch.clear();
            self.scratch.extend(slots.iter().map(|(_, v)| v.bits64()));
            let mismatches =
                aa_kernels::eq_count_u64(&self.scratch, &self.echo_bits, &mut self.echo_cnt);
            if mismatches > 0 {
                // Rare (Byzantine) path: find the divergent slots and
                // route them through the overflow table. The kernel
                // already counted the matching slots.
                for (l, v) in slots.iter() {
                    if v.bits64() != self.echo_bits[l] {
                        self.bump_echo_overflow(l, v);
                    }
                }
            }
            return;
        }
        for (l, v) in slots.iter() {
            let bits = v.bits64();
            if !self.echo_set[l] {
                self.echo_set[l] = true;
                self.echo_missing -= 1;
                self.echo_bits[l] = bits;
                self.echo_cnt[l] = 1;
                self.echo_val[l] = Some(v.clone());
            } else if self.echo_bits[l] == bits {
                self.echo_cnt[l] += 1;
            } else {
                self.bump_echo_overflow(l, v);
            }
        }
    }

    fn bump_echo_overflow(&mut self, leader: usize, v: &V) {
        self.echo_overflow
            .entry((leader, v.bits64()))
            .or_insert_with(|| (v.clone(), 0))
            .1 += 1;
    }

    /// Folds one sender's hash-only vote batch into the per-leader hash
    /// tallies, mirroring [`BatchGradecast::absorb_echo_slots`]. The
    /// absorb half of [`BatchGradecast::on_votes`].
    pub fn absorb_vote_slots(&mut self, sender: PartyId, slots: &GcSlots<u32>) {
        let sender = sender.index();
        if slots.n() != self.n || self.vote_from[sender] {
            return;
        }
        self.vote_from[sender] = true;
        if slots.is_full() && self.vote_missing == 0 {
            self.scratch.clear();
            self.scratch
                .extend(slots.iter().map(|(_, &h)| u64::from(h)));
            let mismatches =
                aa_kernels::eq_count_u64(&self.scratch, &self.vote_bits, &mut self.vote_cnt);
            if mismatches > 0 {
                for (l, &h) in slots.iter() {
                    if u64::from(h) != self.vote_bits[l] {
                        *self.vote_overflow.entry((l, VoteKey::Hash(h))).or_insert(0) += 1;
                    }
                }
            }
            return;
        }
        for (l, &h) in slots.iter() {
            self.bump_vote_hash(l, h);
        }
    }

    /// Folds one sender's escalated vote batch: hash entries as in
    /// [`BatchGradecast::absorb_vote_slots`], exact keys into the
    /// overflow table. A sender's first vote batch counts, whichever form
    /// it has.
    pub fn absorb_keyed_vote_slots(&mut self, sender: PartyId, slots: &GcSlots<VoteKey>) {
        let sender = sender.index();
        if slots.n() != self.n || self.vote_from[sender] {
            return;
        }
        self.vote_from[sender] = true;
        for (l, key) in slots.iter() {
            match *key {
                VoteKey::Hash(h) => self.bump_vote_hash(l, h),
                exact => *self.vote_overflow.entry((l, exact)).or_insert(0) += 1,
            }
        }
    }

    fn bump_vote_hash(&mut self, leader: usize, h: u32) {
        if !self.vote_set[leader] {
            self.vote_set[leader] = true;
            self.vote_missing -= 1;
            self.vote_bits[leader] = u64::from(h);
            self.vote_cnt[leader] = 1;
        } else if self.vote_bits[leader] == u64::from(h) {
            self.vote_cnt[leader] += 1;
        } else {
            *self
                .vote_overflow
                .entry((leader, VoteKey::Hash(h)))
                .or_insert(0) += 1;
        }
    }

    /// Hash votes counted for `hash` at `leader`.
    fn hash_votes(&self, leader: usize, hash: u32) -> u32 {
        if self.vote_set[leader] && self.vote_bits[leader] == u64::from(hash) {
            self.vote_cnt[leader]
        } else {
            self.overflow_votes(leader, VoteKey::Hash(hash))
        }
    }

    fn overflow_votes(&self, leader: usize, key: VoteKey) -> u32 {
        self.vote_overflow.get(&(leader, key)).copied().unwrap_or(0)
    }

    /// Votes counted for echo candidate `v` of `leader`: its exact votes
    /// plus the hash votes that resolve to it. With an empty overflow
    /// table every leader has a single candidate, which trivially wins
    /// its own hash.
    fn votes_for(&self, leader: usize, v: &V) -> u32 {
        let hash = v.hash32();
        let exact = self.overflow_votes(leader, VoteKey::Exact(v.bits64()));
        let resolves = self.echo_overflow.is_empty() || self.resolve_hash(leader, hash) == Some(v);
        exact
            + if resolves {
                self.hash_votes(leader, hash)
            } else {
                0
            }
    }

    /// Resolves a vote hash for `leader` to the value it binds: among
    /// the echo-tallied candidates matching the hash, the one with the
    /// highest echo count (smallest value on ties — deterministic, and
    /// the > t-echo dominance argument in the module docs makes the
    /// count tie unreachable for honest votes).
    fn resolve_hash(&self, leader: usize, hash: u32) -> Option<&V> {
        let mut best: Option<(&V, u32)> = None;
        for (v, c) in self.echo_candidates(leader) {
            if v.hash32() != hash {
                continue;
            }
            if best.is_none_or(|(bv, bc)| c > bc || (c == bc && v < bv)) {
                best = Some((v, c));
            }
        }
        best.map(|(v, _)| v)
    }

    /// Grades `leader`: every echo-tallied candidate collects its exact
    /// votes plus the hash votes that resolve to it; the maximum count
    /// wins (smallest value on ties), with grade 2 at `≥ n − t` votes,
    /// grade 1 at `≥ t + 1` and grade 0 otherwise. Votes that resolve to
    /// no candidate carry at most t Byzantine votes (see module docs) and
    /// cannot change a grade, so dropping them is exact.
    fn grade_leader(&self, leader: usize) -> GradecastOutput<V> {
        let mut best: Option<(&V, u32)> = None;
        for (v, _) in self.echo_candidates(leader) {
            let count = self.votes_for(leader, v);
            if best.is_none_or(|(bv, bc)| count > bc || (count == bc && v < bv)) {
                best = Some((v, count));
            }
        }
        match best {
            Some((v, c)) if c as usize >= self.n - self.t => GradecastOutput {
                value: Some(v.clone()),
                grade: Grade::Two,
            },
            Some((v, c)) if c as usize > self.t => GradecastOutput {
                value: Some(v.clone()),
                grade: Grade::One,
            },
            _ => GradecastOutput {
                value: None,
                grade: Grade::Zero,
            },
        }
    }
}

/// A `sim-net` protocol adapter running a single batch of `n` parallel
/// gradecasts: every party leads one instance with its input value and
/// outputs the vector of per-leader `(value, grade)` results after 3
/// communication rounds, emitting one `gc.grade` trace event per leader.
///
/// A test and measurement harness for the primitive; `RealAA` embeds
/// [`BatchGradecast`] directly to pipeline iterations.
#[derive(Clone, Debug)]
pub struct BatchGradecastProtocol<V> {
    value: V,
    gc: BatchGradecast<V>,
    output: Option<Vec<GradecastOutput<V>>>,
}

impl<V: GcValue> BatchGradecastProtocol<V> {
    /// Creates the party state machine for `me` with input `value`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` (see [`BatchGradecast::new`]).
    pub fn new(me: PartyId, n: usize, t: usize, value: V) -> Self {
        BatchGradecastProtocol {
            value,
            gc: BatchGradecast::new(me, n, t),
            output: None,
        }
    }

    /// Mutes `leader` before the run starts.
    pub fn mute(&mut self, leader: PartyId) {
        self.gc.mute(leader);
    }
}

impl<V> sim_net::Protocol for BatchGradecastProtocol<V>
where
    V: GcValue + Send + Sync,
    GcBatchMsg<V>: Payload,
{
    type Msg = GcBatchMsg<V>;
    type Output = Vec<GradecastOutput<V>>;

    fn step(
        &mut self,
        round: u32,
        inbox: &sim_net::Inbox<Self::Msg>,
        ctx: &mut sim_net::RoundCtx<Self::Msg>,
    ) {
        // Batches arrive `Arc`-shared, so feeding the state machine by
        // reference out of the inbox copies nothing.
        let received = || inbox.iter().map(|e| (e.from, &e.payload));
        match round {
            1 => ctx.broadcast(self.gc.lead_msg(self.value.clone())),
            2 => {
                let batch = self.gc.on_leads(received());
                ctx.broadcast(batch);
            }
            3 => {
                let batch = self.gc.on_echoes(received());
                ctx.broadcast(batch);
            }
            4 => {
                let outputs = self.gc.on_votes(received());
                for (leader, slot) in outputs.iter().enumerate() {
                    ctx.emit_with(|| {
                        let mut ev = sim_net::ProtoEvent::new("gc.grade")
                            .u64("leader", leader as u64)
                            .u64("grade", u64::from(slot.grade.as_u8()));
                        if let Some(v) = &slot.value {
                            ev = ev.str("value", &format!("{v:?}"));
                        }
                        ev
                    });
                }
                self.output = Some(outputs);
            }
            _ => {}
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.output.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Inbox = Vec<(PartyId, GcBatchMsg<u64>)>;

    fn refs(inbox: &Inbox) -> impl Iterator<Item = (PartyId, &GcBatchMsg<u64>)> {
        inbox.iter().map(|(p, m)| (*p, m))
    }

    /// A lockstep run: `lead[sender][recipient]` is the lead `recipient`
    /// receives from `sender` (None = silent toward it); `silent` parties
    /// never echo or vote; `muted` leaders are muted everywhere.
    struct Scenario {
        n: usize,
        t: usize,
        leads: Vec<Vec<Option<u64>>>,
        silent: Vec<bool>,
        muted: Vec<bool>,
    }

    impl Scenario {
        fn honest(n: usize, t: usize) -> Self {
            Scenario {
                n,
                t,
                leads: (0..n).map(|snd| vec![Some(100 + snd as u64); n]).collect(),
                silent: vec![false; n],
                muted: vec![false; n],
            }
        }

        fn run(&self) -> Vec<Vec<GradecastOutput<u64>>> {
            let mut ms: Vec<BatchGradecast<u64>> = (0..self.n)
                .map(|i| {
                    let mut m = BatchGradecast::new(PartyId(i), self.n, self.t);
                    m.reset_with_muted(&self.muted);
                    m
                })
                .collect();
            let mut echoes: Inbox = Vec::new();
            for (r, m) in ms.iter_mut().enumerate() {
                let inbox: Inbox = (0..self.n)
                    .filter_map(|s| self.leads[s][r].map(|v| (PartyId(s), GcBatchMsg::Lead(v))))
                    .collect();
                let batch = m.on_leads(refs(&inbox));
                if !self.silent[r] {
                    echoes.push((PartyId(r), batch));
                }
            }
            let mut votes: Inbox = Vec::new();
            for (r, m) in ms.iter_mut().enumerate() {
                let batch = m.on_echoes(refs(&echoes));
                if !self.silent[r] {
                    votes.push((PartyId(r), batch));
                }
            }
            ms.iter_mut().map(|m| m.on_votes(refs(&votes))).collect()
        }
    }

    #[test]
    fn all_honest_all_grade_two() {
        for out in Scenario::honest(7, 2).run() {
            for (l, slot) in out.iter().enumerate() {
                assert_eq!(slot.grade, Grade::Two);
                assert_eq!(slot.value, Some(100 + l as u64));
                assert!(slot.accepted());
            }
        }
    }

    #[test]
    fn crashed_parties_grade_zero_and_the_rest_two() {
        let mut s = Scenario::honest(7, 2);
        // Party 3 crashed before leading; party 5 led but stays silent
        // afterwards.
        s.leads[3] = vec![None; 7];
        s.silent[3] = true;
        s.silent[5] = true;
        for out in s.run() {
            for (l, slot) in out.iter().enumerate() {
                let want = if l == 3 { Grade::Zero } else { Grade::Two };
                assert_eq!(slot.grade, want, "leader {l}");
            }
        }
    }

    #[test]
    fn equivocating_leader_stays_bound() {
        let mut s = Scenario::honest(7, 2);
        // Leader 0 equivocates: 111 to five parties, 222 to the other
        // two, so 111 alone reaches the n − t echo threshold.
        for (r, slot) in s.leads[0].iter_mut().enumerate() {
            *slot = Some(if r <= 4 { 111 } else { 222 });
        }
        let outs = s.run();
        let mut bound = None;
        for out in &outs {
            if out[0].accepted() {
                let v = out[0].value.unwrap();
                assert_eq!(*bound.get_or_insert(v), v);
            }
        }
        assert_eq!(bound, Some(111));
    }

    #[test]
    fn muted_leader_grades_zero_when_all_mute() {
        let mut s = Scenario::honest(7, 2);
        s.muted[2] = true;
        for out in s.run() {
            assert_eq!(out[2].grade, Grade::Zero);
            assert_eq!(out[2].value, None);
            for (l, slot) in out.iter().enumerate().filter(|&(l, _)| l != 2) {
                assert_eq!(slot.grade, Grade::Two, "leader {l}");
            }
        }
    }

    #[test]
    fn muted_leaders_get_no_echo_slot() {
        let mut m = BatchGradecast::<u64>::new(PartyId(0), 4, 1);
        m.mute(PartyId(1));
        let leads: Inbox = (0..4)
            .map(|s| (PartyId(s), GcBatchMsg::Lead(s as u64)))
            .collect();
        let GcBatchMsg::Echoes(slots) = m.on_leads(refs(&leads)) else {
            panic!("phase 2 produces echoes")
        };
        assert!(!slots.is_present(1));
        assert_eq!(slots.iter().count(), 3);
    }

    #[test]
    fn first_lead_wins() {
        let mut m = BatchGradecast::<u64>::new(PartyId(0), 4, 1);
        let leads: Inbox = vec![
            (PartyId(1), GcBatchMsg::Lead(5)),
            (PartyId(1), GcBatchMsg::Lead(6)),
        ];
        let echoes = m.on_leads(refs(&leads));
        let want = GcSlots::from_options(vec![None, Some(5), None, None]);
        assert_eq!(echoes, GcBatchMsg::Echoes(Arc::new(want)));
    }

    #[test]
    fn protocol_adapter_takes_three_communication_rounds() {
        use sim_net::{run_simulation, Passive, SimConfig};
        let report = run_simulation(
            SimConfig {
                n: 4,
                t: 1,
                max_rounds: 10,
            },
            |id, n| BatchGradecastProtocol::new(id, n, 1, id.index() as u64),
            Passive,
        )
        .unwrap();
        assert_eq!(report.communication_rounds(), 3);
        for out in report.honest_outputs() {
            for (l, slot) in out.iter().enumerate() {
                assert_eq!((slot.grade, slot.value), (Grade::Two, Some(l as u64)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "n > 3t")]
    fn rejects_too_many_faults() {
        let _ = BatchGradecast::<u64>::new(PartyId(0), 6, 2);
    }

    /// A receiver whose echo tally holds value 7 for leader 3 at `count`
    /// echoes (from parties 0..count).
    fn tallied(count: usize) -> BatchGradecast<u64> {
        let mut m = BatchGradecast::<u64>::new(PartyId(0), 4, 1);
        let echo = GcSlots::from_options(vec![None, None, None, Some(7u64)]);
        for s in 0..count {
            m.absorb_echo_slots(PartyId(s), &echo);
        }
        m
    }

    fn hash_vote(n: usize, leader: usize, value: u64) -> GcBatchMsg<u64> {
        let mut slots = vec![None; n];
        slots[leader] = Some(value.hash32());
        GcBatchMsg::Votes(Arc::new(GcSlots::from_options(slots)))
    }

    #[test]
    fn duplicate_batches_from_same_sender_count_once() {
        let mut m = tallied(2);
        let vote = hash_vote(4, 3, 7);
        let out = m.on_votes([
            (PartyId(2), &vote),
            (PartyId(2), &vote),
            (PartyId(2), &vote),
        ]);
        // One distinct vote < t + 1 = 2, so grade 0.
        assert_eq!(out[3].grade, Grade::Zero);
    }

    #[test]
    fn votes_between_thresholds_grade_one() {
        // t = 1: grade 1 needs 2 votes, grade 2 needs 3.
        let mut m = tallied(2);
        let vote = hash_vote(4, 3, 7);
        let out = m.on_votes([(PartyId(1), &vote), (PartyId(2), &vote)]);
        assert_eq!(out[3].grade, Grade::One);
        assert_eq!(out[3].value, Some(7));
    }

    #[test]
    fn votes_without_an_echoed_value_resolve_to_nothing() {
        let mut m = BatchGradecast::<u64>::new(PartyId(0), 4, 1);
        let vote = hash_vote(4, 3, 7);
        let out = m.on_votes((1..4).map(|s| (PartyId(s), &vote)));
        assert_eq!(out[3].grade, Grade::Zero);
    }

    #[test]
    fn batch_bytes_are_quadratic_not_cubic() {
        // Per sender and per batch, one message per instance would cost
        // n × (tag + 4-byte leader id + value) per phase; the batch pays
        // one tag and a bitmap.
        let n = 1024usize;
        let per_instance = n * (1 + 4 + 8) * 2;
        let echo_batch = GcBatchMsg::Echoes(Arc::new(GcSlots::from_options(
            (0..n).map(|_| Some(7u64)).collect(),
        )))
        .size_bytes();
        let vote_batch = GcBatchMsg::<u64>::Votes(Arc::new(GcSlots::from_options(
            (0..n).map(|_| Some(7u64.hash32())).collect(),
        )))
        .size_bytes();
        assert_eq!(echo_batch, 1 + n / 8 + 8 * n);
        assert_eq!(vote_batch, 1 + n / 8 + 4 * n);
        assert!(per_instance >= 2 * (echo_batch + vote_batch));
    }

    #[test]
    fn slot_sizes_account_bitmap_and_entries() {
        // 10 slots, 3 present u64 entries: 2 bitmap bytes + 3 × 8.
        let mut slots = vec![None; 10];
        slots[1] = Some(1u64);
        slots[4] = Some(2u64);
        slots[9] = Some(3u64);
        let msg = GcBatchMsg::Echoes(Arc::new(GcSlots::from_options(slots)));
        assert_eq!(msg.size_bytes(), 1 + 2 + 24);
        // Keyed votes: a kind byte per entry plus the 4- or 8-byte key.
        let keyed = GcBatchMsg::<u64>::KeyedVotes(Arc::new(GcSlots::from_options(vec![
            Some(VoteKey::Hash(1)),
            None,
            Some(VoteKey::Exact(2)),
        ])));
        assert_eq!(keyed.size_bytes(), 1 + 1 + 5 + 9);
    }

    #[test]
    fn hash32_is_stable_and_spread() {
        // Pin the mixer so recorded traces stay replayable: a silent
        // change to `hash32` would alter vote-batch contents.
        assert_eq!(0u64.hash32(), 0x5d7c_35e6);
        assert_eq!(1u64.hash32(), 0x3a1c_2af7);
        assert_ne!(1u64.hash32(), 2u64.hash32());
    }

    /// Two `u64` values whose vote hashes collide, found by a birthday
    /// search over `0..2^17`.
    const X: u64 = 99_582;
    const X2: u64 = 106_658;

    /// The colliding-hash attack at n = 7, t = 2. Byzantine leader 0
    /// leads x to {2, 3, 4} and x′ to {5, 6}. Byzantine parties 0 and 1
    /// echo x′ to party 6 only and x to everyone else, then vote hash(x).
    /// Party 6 then tallies x′ ahead of x (4 echoes to 3), so resolving
    /// the hash votes by local echo count alone would hand it `(x′, 2)`
    /// while everyone else outputs `(x, 2)`. Returns the honest votes and
    /// each honest party's output for leader 0.
    fn colliding_equivocation() -> (Inbox, Vec<(usize, GradecastOutput<u64>)>) {
        assert_eq!(X.hash32(), X2.hash32());
        let (n, t) = (7, 2);
        let mut ms: Vec<BatchGradecast<u64>> = (0..n)
            .map(|i| BatchGradecast::new(PartyId(i), n, t))
            .collect();
        let lead_to = |snd: usize, r: usize| match snd {
            0 if r >= 5 => Some(X2),
            0 if r >= 2 => Some(X),
            0 => None,
            _ => Some(snd as u64),
        };
        let echoes: Vec<GcBatchMsg<u64>> = (0..n)
            .map(|r| {
                let inbox: Inbox = (0..n)
                    .filter_map(|s| lead_to(s, r).map(|v| (PartyId(s), GcBatchMsg::Lead(v))))
                    .collect();
                ms[r].on_leads(refs(&inbox))
            })
            .collect();
        let byz_echo = |r: usize| {
            let x = if r == 6 { X2 } else { X };
            let slots = (0..n).map(|l| Some(if l == 0 { x } else { l as u64 }));
            GcBatchMsg::Echoes(Arc::new(GcSlots::from_options(slots.collect())))
        };
        let byz_vote = GcBatchMsg::Votes(Arc::new(GcSlots::from_options(
            (0..n)
                .map(|l| Some(if l == 0 { X } else { l as u64 }.hash32()))
                .collect(),
        )));
        let mut honest_votes: Inbox = Vec::new();
        for (r, m) in ms.iter_mut().enumerate().skip(2) {
            let inbox: Inbox = (0..n)
                .map(|s| {
                    let echo = if s < 2 {
                        byz_echo(r)
                    } else {
                        echoes[s].clone()
                    };
                    (PartyId(s), echo)
                })
                .collect();
            honest_votes.push((PartyId(r), m.on_echoes(refs(&inbox))));
        }
        let votes: Inbox = [(PartyId(0), byz_vote.clone()), (PartyId(1), byz_vote)]
            .into_iter()
            .chain(honest_votes.iter().cloned())
            .collect();
        let outs = (2..n)
            .map(|r| (r, ms[r].on_votes(refs(&votes))[0].clone()))
            .collect();
        (honest_votes, outs)
    }

    #[test]
    fn binding_holds_under_colliding_vote_hashes() {
        let (_, outs) = colliding_equivocation();
        for (party, out) in &outs {
            assert_eq!(out.value, Some(X), "party {party} graded {out:?}");
        }
        // Party 6 counts only the four exact honest votes (grade 1) and
        // mutes the leader; the others add the Byzantine hash votes.
        assert_eq!(outs[4].1.grade, Grade::One);
        for (party, out) in &outs[..4] {
            assert_eq!(out.grade, Grade::Two, "party {party}");
        }
    }

    #[test]
    fn only_voters_that_tally_a_collision_escalate() {
        let (votes, _) = colliding_equivocation();
        for (party, msg) in &votes {
            if party.index() == 6 {
                // Party 6 votes for no value of leader 0, so nothing
                // escalates and its batch stays hash-only.
                assert!(matches!(msg, GcBatchMsg::Votes(_)), "party 6: {msg:?}");
                continue;
            }
            let GcBatchMsg::KeyedVotes(slots) = msg else {
                panic!("party {party:?} should escalate: {msg:?}")
            };
            for (l, key) in slots.iter() {
                let want = if l == 0 {
                    VoteKey::Exact(X)
                } else {
                    VoteKey::Hash((l as u64).hash32())
                };
                assert_eq!(*key, want, "party {party:?} leader {l}");
            }
        }
        // An honest run escalates nothing.
        let mut ms: Vec<BatchGradecast<u64>> = (0..4)
            .map(|i| BatchGradecast::new(PartyId(i), 4, 1))
            .collect();
        let leads: Inbox = (0..4).map(|s| (PartyId(s), GcBatchMsg::Lead(X))).collect();
        let echoes: Inbox = (0..4)
            .map(|r| (PartyId(r), ms[r].on_leads(refs(&leads))))
            .collect();
        for m in &mut ms {
            assert!(matches!(m.on_echoes(refs(&echoes)), GcBatchMsg::Votes(_)));
        }
    }

    #[test]
    fn keyed_and_hash_votes_for_one_value_add_up() {
        let mut m = tallied(3);
        let exact = GcBatchMsg::KeyedVotes(Arc::new(GcSlots::from_options(vec![
            None,
            None,
            None,
            Some(VoteKey::Exact(7)),
        ])));
        let hashed = hash_vote(4, 3, 7);
        let out = m.on_votes([
            (PartyId(1), &exact),
            (PartyId(2), &hashed),
            (PartyId(3), &hashed),
        ]);
        assert_eq!(out[3].grade, Grade::Two);
        assert_eq!(out[3].value, Some(7));
    }
}
