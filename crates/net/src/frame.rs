//! Length-prefixed framing over a byte stream.
//!
//! Every frame on the wire is `u32` big-endian length followed by that
//! many payload bytes. [`FrameBuffer`] is the incremental decoder both
//! reader threads and the property tests drive: feed it arbitrary chunks,
//! pull complete frames out. Truncated input is simply "not yet a frame";
//! an oversized length prefix is a hard protocol error (the peer is
//! babbling or the stream is garbage) and poisons the buffer — the
//! connection must be dropped, never resynchronized by guesswork.

use std::fmt;

/// Hard cap on a frame's payload size (1 MiB). Protocol frames are tiny
/// (tens of bytes); anything near this is an attack or a desynced stream.
pub const MAX_FRAME: usize = 1 << 20;

/// The length-prefix header size.
pub const PREFIX_LEN: usize = 4;

/// A framing-layer protocol error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix announced more than [`MAX_FRAME`] bytes.
    Oversized {
        /// The announced payload length.
        announced: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { announced } => {
                write!(f, "frame announces {announced} bytes > max {MAX_FRAME}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Wraps `payload` in a length prefix.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME`] — encoders construct frames
/// locally and never legitimately approach the cap (bundle deployments
/// bound their largest frame up front with
/// [`check_bundle_frame`](crate::check_bundle_frame)).
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "oversized outgoing frame");
    let mut out = Vec::with_capacity(PREFIX_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame decoder: push bytes in any chunking, pop complete
/// frames. Once an oversized prefix is seen the buffer is poisoned and
/// every further [`FrameBuffer::next_frame`] returns the same error.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    pos: usize,
    poisoned: Option<FrameError>,
}

impl FrameBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame payload, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] if the length prefix exceeds
    /// [`MAX_FRAME`]; the buffer stays poisoned afterwards.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let avail = &self.buf[self.pos..];
        if avail.len() < PREFIX_LEN {
            return Ok(None);
        }
        let announced =
            u32::from_be_bytes(avail[..PREFIX_LEN].try_into().expect("4 bytes")) as usize;
        if announced > MAX_FRAME {
            let err = FrameError::Oversized { announced };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        if avail.len() < PREFIX_LEN + announced {
            return Ok(None);
        }
        let payload = avail[PREFIX_LEN..PREFIX_LEN + announced].to_vec();
        self.pos += PREFIX_LEN + announced;
        // Compact once the consumed prefix dominates.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_across_arbitrary_chunking() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1, 2, 3], vec![0xff; 300]];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&frame(p));
        }
        for chunk in [1usize, 2, 3, 5, 7, stream.len()] {
            let mut fb = FrameBuffer::new();
            let mut out = Vec::new();
            for piece in stream.chunks(chunk) {
                fb.push(piece);
                while let Some(f) = fb.next_frame().unwrap() {
                    out.push(f);
                }
            }
            assert_eq!(out, payloads, "chunk size {chunk}");
            assert_eq!(fb.pending(), 0);
        }
    }

    #[test]
    fn truncated_input_is_not_an_error() {
        let mut fb = FrameBuffer::new();
        fb.push(&frame(b"abcdef")[..7]);
        assert_eq!(fb.next_frame().unwrap(), None);
        assert_eq!(fb.pending(), 7);
    }

    #[test]
    fn oversized_prefix_poisons_the_buffer() {
        let mut fb = FrameBuffer::new();
        fb.push(&((MAX_FRAME as u32) + 1).to_be_bytes());
        let err = fb.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }));
        // Still poisoned even after valid-looking bytes arrive.
        fb.push(&frame(b"ok"));
        assert!(fb.next_frame().is_err());
    }
}
