//! Binary serialization for protocol messages.
//!
//! The simulators pass messages by value; real sockets need bytes. The
//! codec is deliberately boring: little-endian fixed-width integers, one
//! tag byte per enum, length-prefixed sequences — a format simple enough
//! to audit against the decoder by eye. Decoding is total: any byte
//! string either parses or returns [`CodecError`]; it never panics and
//! never reads out of bounds, which the property tests in
//! `tests/frame_props.rs` hammer on.

use std::fmt;
use std::sync::Arc;

use async_aa::{AsyncAaMsg, RbcMsg};
use async_net::RelMsg;
use gradecast::{GcBundleMsg, GcSlots, VoteKey};
use real_aa::{BundledAaMsg, R64};
use sim_net::PartyId;

use crate::frame::MAX_FRAME;
use crate::wire::HEADER_LEN;

/// A decode failure. Carries just enough context to report which layer
/// rejected the bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// Bytes remained after a complete top-level value.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A length field announced more elements than the buffer could hold.
    BadLength {
        /// The announced element count.
        announced: usize,
    },
    /// A field held bits with no canonical meaning (non-finite float,
    /// nonzero bitmap padding). Rejected so every value has exactly one
    /// encoding and decode never constructs an invalid domain value.
    BadValue {
        /// The type whose invariant the bytes violated.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated value"),
            CodecError::BadTag { what, tag } => write!(f, "bad tag {tag:#04x} for {what}"),
            CodecError::TrailingBytes { extra } => write!(f, "{extra} trailing byte(s)"),
            CodecError::BadLength { announced } => {
                write!(f, "length {announced} exceeds remaining input")
            }
            CodecError::BadValue { what } => write!(f, "non-canonical bytes for {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// A type with a canonical byte encoding. Encoding is infallible;
/// decoding is total and allocation-bounded by the input length.
pub trait WireCodec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the cursor.
    ///
    /// # Errors
    ///
    /// A [`CodecError`] describing the first malformed element.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encodes to a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a complete value, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// As [`WireCodec::decode`], plus [`CodecError::TrailingBytes`] if
    /// the value does not consume the whole input.
    fn from_bytes(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() > 0 {
            return Err(CodecError::TrailingBytes {
                extra: r.remaining(),
            });
        }
        Ok(v)
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl WireCodec for RbcMsg<u32> {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, v) = match self {
            RbcMsg::Init(v) => (0u8, *v),
            RbcMsg::Echo(v) => (1u8, *v),
            RbcMsg::Ready(v) => (2u8, *v),
        };
        out.push(tag);
        out.extend_from_slice(&v.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        let v = r.u32()?;
        match tag {
            0 => Ok(RbcMsg::Init(v)),
            1 => Ok(RbcMsg::Echo(v)),
            2 => Ok(RbcMsg::Ready(v)),
            tag => Err(CodecError::BadTag {
                what: "RbcMsg",
                tag,
            }),
        }
    }
}

impl WireCodec for AsyncAaMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AsyncAaMsg::Rbc {
                iter,
                broadcaster,
                inner,
            } => {
                out.push(0);
                out.extend_from_slice(&iter.to_le_bytes());
                out.extend_from_slice(&(broadcaster.index() as u32).to_le_bytes());
                inner.encode(out);
            }
            AsyncAaMsg::Report { iter, entries } => {
                out.push(1);
                out.extend_from_slice(&iter.to_le_bytes());
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (p, v) in entries {
                    out.extend_from_slice(&p.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                let iter = r.u32()?;
                let broadcaster = PartyId(r.u32()? as usize);
                let inner = RbcMsg::decode(r)?;
                Ok(AsyncAaMsg::Rbc {
                    iter,
                    broadcaster,
                    inner,
                })
            }
            1 => {
                let iter = r.u32()?;
                let count = r.u32()? as usize;
                // 8 bytes per entry: reject impossible counts before
                // allocating.
                if count > r.remaining() / 8 {
                    return Err(CodecError::BadLength { announced: count });
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((r.u32()?, r.u32()?));
                }
                Ok(AsyncAaMsg::Report { iter, entries })
            }
            tag => Err(CodecError::BadTag {
                what: "AsyncAaMsg",
                tag,
            }),
        }
    }
}

impl WireCodec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
}

impl WireCodec for R64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.get().to_bits().to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // `R64::new` panics on non-finite input; decode must stay total,
        // so the check happens here on the raw bits.
        let x = f64::from_bits(r.u64()?);
        if !x.is_finite() {
            return Err(CodecError::BadValue { what: "R64" });
        }
        Ok(R64::new(x))
    }
}

impl<T: WireCodec> WireCodec for GcSlots<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let n = self.n();
        out.extend_from_slice(&(n as u32).to_le_bytes());
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        for (slot, _) in self.iter() {
            bitmap[slot / 8] |= 1 << (slot % 8);
        }
        out.extend_from_slice(&bitmap);
        for (_, v) in self.iter() {
            v.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.u32()? as usize;
        // The bitmap alone needs ⌈n/8⌉ bytes: reject impossible widths
        // before allocating anything proportional to `n`.
        if n.div_ceil(8) > r.remaining() {
            return Err(CodecError::BadLength { announced: n });
        }
        let bitmap = r.bytes(n.div_ceil(8))?.to_vec();
        // Padding bits past slot n−1 must be zero so encode∘decode is
        // the identity on bytes, not just on values.
        for pad in n..bitmap.len() * 8 {
            if bitmap[pad / 8] & (1 << (pad % 8)) != 0 {
                return Err(CodecError::BadValue {
                    what: "GcSlots padding",
                });
            }
        }
        let mut slots = Vec::with_capacity(n);
        for slot in 0..n {
            if bitmap[slot / 8] & (1 << (slot % 8)) != 0 {
                slots.push(Some(T::decode(r)?));
            } else {
                slots.push(None);
            }
        }
        Ok(GcSlots::from_options(slots))
    }
}

impl WireCodec for VoteKey {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            VoteKey::Hash(h) => {
                out.push(0);
                h.encode(out);
            }
            VoteKey::Exact(bits) => {
                out.push(1);
                bits.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(VoteKey::Hash(r.u32()?)),
            1 => Ok(VoteKey::Exact(r.u64()?)),
            tag => Err(CodecError::BadTag {
                what: "VoteKey",
                tag,
            }),
        }
    }
}

impl WireCodec for GcBundleMsg<R64> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GcBundleMsg::Leads(s) => {
                out.push(0);
                s.encode(out);
            }
            GcBundleMsg::Echoes(s) => {
                out.push(1);
                s.encode(out);
            }
            GcBundleMsg::Votes(s) => {
                out.push(2);
                s.encode(out);
            }
            GcBundleMsg::KeyedVotes(s) => {
                out.push(3);
                s.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(GcBundleMsg::Leads(Arc::new(GcSlots::decode(r)?))),
            1 => Ok(GcBundleMsg::Echoes(Arc::new(GcSlots::decode(r)?))),
            2 => Ok(GcBundleMsg::Votes(Arc::new(GcSlots::decode(r)?))),
            3 => {
                // Escalated votes have their own tag so hash-only vote
                // bundles keep their bytes; a keyed bundle without an
                // exact key would be a second encoding of a tag-2 one.
                let s: GcSlots<GcSlots<VoteKey>> = GcSlots::decode(r)?;
                let exact = s
                    .iter()
                    .flat_map(|(_, inner)| inner.iter())
                    .any(|(_, k)| matches!(k, VoteKey::Exact(_)));
                if !exact {
                    return Err(CodecError::BadValue {
                        what: "keyed votes without an exact key",
                    });
                }
                Ok(GcBundleMsg::KeyedVotes(Arc::new(s)))
            }
            tag => Err(CodecError::BadTag {
                what: "GcBundleMsg",
                tag,
            }),
        }
    }
}

impl WireCodec for BundledAaMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.iter.to_le_bytes());
        self.body.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let iter = r.u32()?;
        let body = GcBundleMsg::decode(r)?;
        Ok(BundledAaMsg { iter, body })
    }
}

/// Frame payload bytes of the largest message a `Reliable<BundledAaParty>`
/// node sends for `k` instances over `n` parties: a Data envelope whose
/// vote bundle has every instance voting for every leader by exact key
/// (the escalated form, the widest per-leader entry on the wire).
#[must_use]
pub fn bundle_frame_bytes(n: usize, k: usize) -> usize {
    // Per instance: slot count + bitmap + (kind byte + u64) per leader.
    let inner = 4 + n.div_ceil(8) + 9 * n;
    // Bundle tag + outer slot count + outer bitmap + instances.
    let bundle = (1 + 4 + k.div_ceil(8)).saturating_add(k.saturating_mul(inner));
    // RelMsg tag + seq + iteration, inside the envelope header and MAC.
    (HEADER_LEN + 1 + 8 + 4 + 8).saturating_add(bundle)
}

/// A bundle size whose worst-case frame exceeds [`MAX_FRAME`]: no node
/// could send its escalated vote bundle, so deployments reject it up
/// front instead of failing mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OversizedBundle {
    /// Parties.
    pub n: usize,
    /// Requested instances.
    pub k: usize,
    /// [`bundle_frame_bytes`] for `(n, k)`.
    pub frame_bytes: usize,
    /// The largest bundle that fits at this `n`.
    pub max_k: usize,
}

impl fmt::Display for OversizedBundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a bundle of k = {} instances at n = {} can need a {}-byte frame, over the \
             {MAX_FRAME}-byte limit; at most k = {} fits",
            self.k, self.n, self.frame_bytes, self.max_k
        )
    }
}

impl std::error::Error for OversizedBundle {}

/// Checks that every frame a `k`-instance bundle over `n` parties can
/// produce fits in [`MAX_FRAME`].
///
/// # Errors
///
/// [`OversizedBundle`] with the largest `k` that fits, otherwise.
pub fn check_bundle_frame(n: usize, k: usize) -> Result<(), OversizedBundle> {
    let frame_bytes = bundle_frame_bytes(n, k);
    if frame_bytes <= MAX_FRAME {
        return Ok(());
    }
    let (mut lo, mut hi) = (0, k);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if bundle_frame_bytes(n, mid) <= MAX_FRAME {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Err(OversizedBundle {
        n,
        k,
        frame_bytes,
        max_k: lo,
    })
}

impl<M: WireCodec> WireCodec for RelMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RelMsg::Data { seq, inner } => {
                out.push(0);
                out.extend_from_slice(&seq.to_le_bytes());
                inner.encode(out);
            }
            RelMsg::Ack { seq } => {
                out.push(1);
                out.extend_from_slice(&seq.to_le_bytes());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => {
                let seq = r.u64()?;
                let inner = M::decode(r)?;
                Ok(RelMsg::Data { seq, inner })
            }
            1 => Ok(RelMsg::Ack { seq: r.u64()? }),
            tag => Err(CodecError::BadTag {
                what: "RelMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(msg: M) {
        let bytes = msg.to_bytes();
        assert_eq!(M::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn protocol_messages_roundtrip() {
        roundtrip(0xdead_beef_u64 << 32);
        roundtrip(RbcMsg::Init(7u32));
        roundtrip(RbcMsg::Echo(0));
        roundtrip(RbcMsg::Ready(u32::MAX));
        roundtrip(AsyncAaMsg::Rbc {
            iter: 3,
            broadcaster: PartyId(2),
            inner: RbcMsg::Ready(5),
        });
        roundtrip(AsyncAaMsg::Report {
            iter: 0,
            entries: vec![],
        });
        roundtrip(AsyncAaMsg::Report {
            iter: 9,
            entries: vec![(0, 4), (3, 1), (u32::MAX, 0)],
        });
        roundtrip(RelMsg::Data {
            seq: 42,
            inner: AsyncAaMsg::Rbc {
                iter: 1,
                broadcaster: PartyId(0),
                inner: RbcMsg::Init(2),
            },
        });
        roundtrip(RelMsg::<AsyncAaMsg>::Ack { seq: u64::MAX });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = RbcMsg::Init(1u32).to_bytes();
        bytes.push(0);
        assert_eq!(
            RbcMsg::<u32>::from_bytes(&bytes),
            Err(CodecError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn bad_tags_and_truncation_are_rejected() {
        assert_eq!(
            RbcMsg::<u32>::from_bytes(&[9, 0, 0, 0, 0]),
            Err(CodecError::BadTag {
                what: "RbcMsg",
                tag: 9
            })
        );
        assert_eq!(
            RbcMsg::<u32>::from_bytes(&[0, 1, 2]),
            Err(CodecError::Truncated)
        );
        assert_eq!(AsyncAaMsg::from_bytes(&[]), Err(CodecError::Truncated));
    }

    fn slots<T: Clone>(opts: &[Option<T>]) -> GcSlots<T> {
        GcSlots::from_options(opts.to_vec())
    }

    #[test]
    fn bundle_messages_roundtrip() {
        roundtrip(R64::new(-0.5));
        roundtrip(3u32);
        roundtrip(slots(&[Some(R64::new(1.0)), None, Some(R64::new(-2.5))]));
        roundtrip(slots::<u32>(&[None, None]));
        roundtrip(GcBundleMsg::Leads(Arc::new(slots(&[
            Some(R64::new(0.25)),
            None,
        ]))));
        roundtrip(GcBundleMsg::Echoes(Arc::new(slots(&[
            Some(slots(&[Some(R64::new(7.0)), None, Some(R64::new(0.0))])),
            None,
            Some(slots(&[None, None, None])),
        ]))));
        roundtrip(GcBundleMsg::Votes(Arc::new(slots(&[
            None,
            Some(slots(&[Some(0xdead_u32), Some(1), None])),
        ]))));
        roundtrip(RelMsg::Data {
            seq: 7,
            inner: BundledAaMsg {
                iter: 2,
                body: GcBundleMsg::Leads(Arc::new(slots(&[Some(R64::new(4.0))]))),
            },
        });
    }

    #[test]
    fn non_finite_reals_are_rejected_not_panicked_on() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                R64::from_bytes(&bad.to_bits().to_le_bytes()),
                Err(CodecError::BadValue { what: "R64" })
            );
        }
    }

    #[test]
    fn nonzero_bitmap_padding_is_rejected() {
        // n = 3 with the unused high bits of the bitmap byte set: the
        // same value as a clean encoding, so canonicality demands a
        // rejection.
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.push(0b1111_1000);
        assert_eq!(
            GcSlots::<u32>::from_bytes(&bytes),
            Err(CodecError::BadValue {
                what: "GcSlots padding"
            })
        );
    }

    #[test]
    fn absurd_slot_count_is_rejected_before_allocation() {
        let bytes = u32::MAX.to_le_bytes().to_vec();
        assert_eq!(
            GcSlots::<R64>::from_bytes(&bytes),
            Err(CodecError::BadLength {
                announced: u32::MAX as usize
            })
        );
    }

    #[test]
    fn keyed_vote_bundles_roundtrip_under_their_own_tag() {
        let keyed = GcBundleMsg::<R64>::KeyedVotes(Arc::new(slots(&[
            Some(slots(&[
                Some(VoteKey::Exact(u64::MAX)),
                None,
                Some(VoteKey::Hash(9)),
            ])),
            None,
            Some(slots(&[None, Some(VoteKey::Hash(0)), None])),
        ])));
        roundtrip(keyed.clone());
        assert_eq!(keyed.to_bytes()[0], 3);
        roundtrip(RelMsg::Data {
            seq: 1,
            inner: BundledAaMsg {
                iter: 4,
                body: keyed,
            },
        });
        // A hash-only vote bundle keeps tag 2 and 4-byte entries.
        let hashed = GcBundleMsg::<R64>::Votes(Arc::new(slots(&[Some(slots(&[Some(9u32)]))])));
        assert_eq!(
            hashed.to_bytes(),
            [2, 1, 0, 0, 0, 1, 1, 0, 0, 0, 1, 9, 0, 0, 0]
        );
    }

    #[test]
    fn keyed_vote_bundles_reject_malformed_bytes() {
        // A keyed bundle of hash keys only is a second encoding of a
        // tag-2 bundle: non-canonical, so rejected.
        let hash_only = GcBundleMsg::<R64>::KeyedVotes(Arc::new(slots(&[Some(slots(&[Some(
            VoteKey::Hash(9),
        )]))])));
        assert_eq!(
            GcBundleMsg::<R64>::from_bytes(&hash_only.to_bytes()),
            Err(CodecError::BadValue {
                what: "keyed votes without an exact key"
            })
        );
        // Unknown key kind.
        let mut bytes = GcBundleMsg::<R64>::KeyedVotes(Arc::new(slots(&[Some(slots(&[Some(
            VoteKey::Exact(1),
        )]))])))
        .to_bytes();
        let kind = bytes.len() - 9;
        assert_eq!(bytes[kind], 1);
        bytes[kind] = 2;
        assert_eq!(
            GcBundleMsg::<R64>::from_bytes(&bytes),
            Err(CodecError::BadTag {
                what: "VoteKey",
                tag: 2
            })
        );
        // An exact key cut short.
        bytes[kind] = 1;
        bytes.pop();
        assert_eq!(
            GcBundleMsg::<R64>::from_bytes(&bytes),
            Err(CodecError::Truncated)
        );
    }

    /// The worst-case frame of a `(n, k)` bundle, actually encoded: a
    /// Data envelope around a vote bundle with every vote exact.
    fn worst_case_frame(n: usize, k: usize) -> Vec<u8> {
        let inner = slots(&vec![Some(VoteKey::Exact(u64::MAX)); n]);
        let body = RelMsg::Data {
            seq: u64::MAX,
            inner: BundledAaMsg {
                iter: u32::MAX,
                body: GcBundleMsg::KeyedVotes(Arc::new(slots(&vec![Some(inner); k]))),
            },
        };
        crate::WrapperMsg {
            kind: crate::FrameKind::Data,
            from: 0,
            to: 1,
            wire_seq: 0,
            lseq: 0,
            vsend: 0.0,
            vdeliver: 0.0,
            body: body.to_bytes(),
            mac: 0,
        }
        .encode()
    }

    #[test]
    fn bundle_frame_bound_matches_the_encoding() {
        for (n, k) in [(1, 1), (4, 1), (4, 9), (7, 3), (13, 17)] {
            assert_eq!(
                worst_case_frame(n, k).len(),
                bundle_frame_bytes(n, k),
                "n {n} k {k}"
            );
        }
    }

    #[test]
    fn bundles_are_checked_at_the_frame_boundary() {
        let n = 4;
        let err = check_bundle_frame(n, 30_000).unwrap_err();
        let max_k = err.max_k;
        assert_eq!(check_bundle_frame(n, max_k), Ok(()));
        assert_eq!(
            check_bundle_frame(n, max_k + 1).unwrap_err(),
            OversizedBundle {
                n,
                k: max_k + 1,
                frame_bytes: bundle_frame_bytes(n, max_k + 1),
                max_k,
            }
        );
        // The real encodings straddle the limit exactly there.
        assert!(worst_case_frame(n, max_k).len() <= MAX_FRAME);
        assert!(worst_case_frame(n, max_k + 1).len() > MAX_FRAME);
        assert!(err.to_string().contains(&format!("at most k = {max_k}")));
    }

    #[test]
    fn bundle_tags_are_checked() {
        assert_eq!(
            GcBundleMsg::<R64>::from_bytes(&[4]),
            Err(CodecError::BadTag {
                what: "GcBundleMsg",
                tag: 4
            })
        );
        assert_eq!(
            BundledAaMsg::from_bytes(&[0, 0, 0]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn absurd_report_length_is_rejected_before_allocation() {
        // tag 1, iter, count = u32::MAX, no entries.
        let mut bytes = vec![1u8];
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            AsyncAaMsg::from_bytes(&bytes),
            Err(CodecError::BadLength {
                announced: u32::MAX as usize
            })
        );
    }
}
