//! Timing shims: wrappers that implement the same protocol trait as the
//! party they wrap, forward every call unchanged, and add the time spent
//! inside each call to a shared [`Probe`]. They only observe — a traced
//! run must produce bit-identical outputs to an untraced one, and the
//! benchmark checks that it does.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use async_net::{AsyncCtx, AsyncProtocol};
use sim_net::{Envelope, Inbox, Protocol, RoundCtx};

/// Accumulators for one agreement run, shared by every shim of the run.
pub struct Probe {
    ns: [AtomicU64; SLOTS],
}

/// What a timed interval is charged to.
#[derive(Clone, Copy, Debug)]
pub enum Slot {
    /// Party constructors, timed in the factory.
    PartyNew,
    /// Rounds with (r − 1) mod 3 = 0: finish the previous RealAA
    /// iteration (tally + trimmed update) and lead the next gradecast.
    Update,
    /// Rounds with (r − 1) mod 3 = 1: gradecast echo.
    Echo,
    /// Rounds with (r − 1) mod 3 = 2: gradecast vote.
    Vote,
    /// TreeAA rounds up to `phase1_rounds()`.
    Phase1,
    /// TreeAA rounds after `phase1_rounds()`.
    Phase2,
    /// Everything the `Reliable` layer's callbacks take, inner protocol
    /// included (the outer async shim).
    Outer,
    /// Everything the inner protocol's callbacks take (the inner async
    /// shim).
    Handler,
}

const SLOTS: usize = 8;

impl Probe {
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }

    /// Charges the time since `since` to each of `slots`.
    pub fn add(&self, slots: &[Slot], since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        for &slot in slots {
            // A statistic: it publishes no other data, and is read only
            // after every thread that adds to it has been joined.
            self.ns[slot as usize].fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Seconds charged to `slot` so far.
    pub fn secs(&self, slot: Slot) -> f64 {
        self.ns[slot as usize].load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// The gradecast/RealAA sub-round a synchronous round belongs to.
pub fn round_slot(round: u32) -> Slot {
    match round.saturating_sub(1) % 3 {
        0 => Slot::Update,
        1 => Slot::Echo,
        _ => Slot::Vote,
    }
}

/// Wraps a synchronous [`Protocol`] party: times every `step`, charged to
/// its gradecast sub-round and to its TreeAA phase (rounds up to
/// `phase1_rounds` are phase 1). `after_step` sees the party after each
/// step, outside the timed interval.
pub struct Stepped<P, F> {
    inner: P,
    probe: Arc<Probe>,
    phase1_rounds: u32,
    after_step: F,
}

impl<P, F: Fn(&P, u32)> Stepped<P, F> {
    pub fn new(inner: P, probe: Arc<Probe>, phase1_rounds: u32, after_step: F) -> Self {
        Stepped {
            inner,
            probe,
            phase1_rounds,
            after_step,
        }
    }
}

impl<P: Protocol, F: Fn(&P, u32)> Protocol for Stepped<P, F> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step(&mut self, round: u32, inbox: &Inbox<P::Msg>, ctx: &mut RoundCtx<P::Msg>) {
        let start = Instant::now();
        self.inner.step(round, inbox, ctx);
        let phase = if round <= self.phase1_rounds {
            Slot::Phase1
        } else {
            Slot::Phase2
        };
        self.probe.add(&[round_slot(round), phase], start);
        (self.after_step)(&self.inner, round);
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }
}

/// Wraps the inner (lockstep) party of a `Reliable` stack: charges every
/// callback to [`Slot::Handler`], and round activations (`on_start` is
/// round 1, `on_timer(r)` steps round `r`) also to their sub-round.
pub struct InnerTimed<P> {
    inner: P,
    probe: Arc<Probe>,
}

impl<P> InnerTimed<P> {
    pub fn new(inner: P, probe: Arc<Probe>) -> Self {
        InnerTimed { inner, probe }
    }
}

impl<P: AsyncProtocol> AsyncProtocol for InnerTimed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut AsyncCtx<P::Msg>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        self.probe.add(&[Slot::Handler, round_slot(1)], start);
    }

    fn on_message(&mut self, env: Envelope<P::Msg>, ctx: &mut AsyncCtx<P::Msg>) {
        let start = Instant::now();
        self.inner.on_message(env, ctx);
        self.probe.add(&[Slot::Handler], start);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<P::Msg>) {
        let start = Instant::now();
        self.inner.on_timer(token, ctx);
        let round = u32::try_from(token).unwrap_or(u32::MAX);
        self.probe.add(&[Slot::Handler, round_slot(round)], start);
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }
}

/// Wraps a whole node protocol (the `Reliable` layer): charges every
/// callback to [`Slot::Outer`] and keeps a copy of every message that
/// arrived from another node, for the codec/MAC/frame replay.
pub struct OuterTimed<P: AsyncProtocol> {
    pub inner: P,
    probe: Arc<Probe>,
    received: Arc<Mutex<Vec<Envelope<P::Msg>>>>,
}

impl<P: AsyncProtocol> OuterTimed<P> {
    pub fn new(inner: P, probe: Arc<Probe>, received: Arc<Mutex<Vec<Envelope<P::Msg>>>>) -> Self {
        OuterTimed {
            inner,
            probe,
            received,
        }
    }
}

impl<P: AsyncProtocol> AsyncProtocol for OuterTimed<P>
where
    P::Msg: Clone,
{
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut AsyncCtx<P::Msg>) {
        let start = Instant::now();
        self.inner.on_start(ctx);
        self.probe.add(&[Slot::Outer], start);
    }

    fn on_message(&mut self, env: Envelope<P::Msg>, ctx: &mut AsyncCtx<P::Msg>) {
        if env.from != env.to {
            let copy = Envelope {
                from: env.from,
                to: env.to,
                payload: env.payload.clone(),
            };
            self.received
                .lock()
                .expect("a node thread panicked while recording")
                .push(copy);
        }
        let start = Instant::now();
        self.inner.on_message(env, ctx);
        self.probe.add(&[Slot::Outer], start);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<P::Msg>) {
        let start = Instant::now();
        self.inner.on_timer(token, ctx);
        self.probe.add(&[Slot::Outer], start);
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }
}
