//! The fleet wire protocol: length-framed, CRC'd messages.
//!
//! Every message travels as one frame, little-endian throughout:
//!
//! ```text
//! frame := len u32 LE      — bytes in (tag | body), excludes len + crc
//!        | tag u8          — message discriminant
//!        | body            — varint fields (ora-trace LEB128), then
//!                            for CHUNK the raw chunk bytes; decoded
//!                            through `ora_core::bytes::Cursor`
//!        | crc32 u32 LE    — IEEE CRC over (tag | body)
//! ```
//!
//! The messages, in handshake order:
//!
//! | tag  | message  | body                                            |
//! |------|----------|-------------------------------------------------|
//! | 0x01 | HELLO    | rank, trace format version, ticks per second    |
//! | 0x02 | CHUNK    | epoch, then one verbatim `ora-trace` write      |
//! | 0x03 | ACK      | epoch                                           |
//! | 0x04 | FIN      | observed, drained, dropped (ring accounting)    |
//! | 0x05 | FIN-ACK  | stored, late (daemon accounting)                |
//!
//! CHUNK payloads are exactly the bytes `ora_trace::Recorder` hands its
//! sink — the 8-byte file header, one encoded chunk, or the footer —
//! so the producer side needs no re-encoding and the daemon classifies
//! each payload by its leading bytes. Epochs are per-lane sequence
//! numbers starting at 0; the daemon acks each epoch and treats a
//! duplicate or a gap as lane misbehavior (see [`crate::daemon`]).

use std::io::{self, Read, Write};

use ora_core::bytes::Cursor;
use ora_trace::format::{crc32, put_varint};

use crate::FleetError;

/// Wire protocol version, carried in HELLO alongside the trace format
/// version (both must match for a lane to be accepted).
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on `len`: no legitimate drainer write approaches this,
/// so anything larger is a corrupt or hostile frame, refused before
/// allocation.
pub const MAX_FRAME_LEN: u64 = 16 * 1024 * 1024;

/// HELLO message tag.
pub const MSG_HELLO: u8 = 0x01;
/// CHUNK message tag.
pub const MSG_CHUNK: u8 = 0x02;
/// ACK message tag.
pub const MSG_ACK: u8 = 0x03;
/// FIN message tag.
pub const MSG_FIN: u8 = 0x04;
/// FIN-ACK message tag.
pub const MSG_FIN_ACK: u8 = 0x05;

/// One protocol message (see module docs for the wire layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Lane introduction: first message on every connection.
    Hello {
        /// Rank id of the producing process (its merge key component).
        rank: u64,
        /// `ora_trace::format::FORMAT_VERSION` the producer writes.
        format_version: u16,
        /// Producer clock rate, for cross-rank tick interpretation.
        ticks_per_sec: u64,
    },
    /// One verbatim `ora-trace` sink write, epoch-stamped.
    Chunk {
        /// Per-lane sequence number, starting at 0.
        epoch: u64,
        /// Raw bytes as the recorder wrote them.
        payload: Vec<u8>,
    },
    /// Daemon acknowledgment of one accepted epoch.
    Ack {
        /// The epoch accepted.
        epoch: u64,
    },
    /// Producer-side end-of-stream summary (ring accounting).
    Fin {
        /// Events the producer's callbacks observed.
        observed: u64,
        /// Records its drainer persisted (and therefore streamed).
        drained: u64,
        /// Records it lost to ring backpressure.
        dropped: u64,
    },
    /// Daemon-side close of the FIN handshake.
    FinAck {
        /// Records the daemon stored for this lane.
        stored: u64,
        /// Records (fleet-wide) that settled below the settled frontier
        /// as it stood before their flush.
        late: u64,
    },
}

/// Encode one complete frame into `frame`, replacing what it held:
/// `fields` as varints, then `payload` verbatim — each byte is copied
/// exactly once, into the frame.
pub(crate) fn build_frame(frame: &mut Vec<u8>, tag: u8, fields: &[u64], payload: &[u8]) {
    frame.clear();
    frame.reserve(4 + 1 + 10 * fields.len() + payload.len() + 4);
    frame.extend_from_slice(&[0; 4]);
    frame.push(tag);
    for &field in fields {
        put_varint(frame, field);
    }
    frame.extend_from_slice(payload);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&crc32(&frame[4..]).to_le_bytes());
}

/// Encode `msg` as one complete frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    let out = &mut frame;
    match *msg {
        Message::Hello {
            rank,
            format_version,
            ticks_per_sec,
        } => build_frame(
            out,
            MSG_HELLO,
            &[rank, u64::from(format_version), ticks_per_sec],
            &[],
        ),
        Message::Chunk { epoch, ref payload } => build_frame(out, MSG_CHUNK, &[epoch], payload),
        Message::Ack { epoch } => build_frame(out, MSG_ACK, &[epoch], &[]),
        Message::Fin {
            observed,
            drained,
            dropped,
        } => build_frame(out, MSG_FIN, &[observed, drained, dropped], &[]),
        Message::FinAck { stored, late } => build_frame(out, MSG_FIN_ACK, &[stored, late], &[]),
    }
    frame
}

/// If `framed` (a CRC-verified `(tag | body)` section) is a CHUNK,
/// its epoch and its payload, borrowed from the frame.
pub(crate) fn chunk_parts(framed: &[u8]) -> Result<Option<(u64, &[u8])>, FleetError> {
    let Some((&MSG_CHUNK, body)) = framed.split_first() else {
        return Ok(None);
    };
    let mut c = Cursor::new(body);
    let epoch = c.varint()?;
    Ok(Some((epoch, &body[c.position()..])))
}

/// Decode the `(tag | body)` section of a frame whose CRC has already
/// been verified.
pub fn decode_frame(framed: &[u8]) -> Result<Message, FleetError> {
    if let Some((epoch, payload)) = chunk_parts(framed)? {
        return Ok(Message::Chunk {
            epoch,
            payload: payload.to_vec(),
        });
    }
    let mut c = Cursor::new(framed);
    let message = match c.u8()? {
        MSG_HELLO => {
            let rank = c.varint()?;
            let version = c.varint()?;
            let ticks_per_sec = c.varint()?;
            let format_version = u16::try_from(version)
                .map_err(|_| FleetError::Protocol("format version overflows u16"))?;
            Message::Hello {
                rank,
                format_version,
                ticks_per_sec,
            }
        }
        MSG_ACK => Message::Ack { epoch: c.varint()? },
        MSG_FIN => Message::Fin {
            observed: c.varint()?,
            drained: c.varint()?,
            dropped: c.varint()?,
        },
        MSG_FIN_ACK => Message::FinAck {
            stored: c.varint()?,
            late: c.varint()?,
        },
        t => return Err(FleetError::UnknownMessage(t)),
    };
    c.finish()?;
    Ok(message)
}

/// Write `msg` as one frame.
pub fn write_frame(w: &mut impl Write, msg: &Message) -> io::Result<()> {
    w.write_all(&encode_frame(msg))
}

/// Read one frame, verify its CRC, and decode it.
///
/// A clean close *between* frames is [`FleetError::Closed`]; a close
/// mid-frame is [`FleetError::Truncated`] — the distinction the daemon
/// uses to tell an exited rank from a damaged stream.
pub fn read_frame(r: &mut impl Read) -> Result<Message, FleetError> {
    let mut framed = Vec::new();
    read_frame_bytes(r, &mut framed)?;
    decode_frame(&framed)
}

/// Read one frame into `framed`, replacing what it held, and verify its
/// CRC; leaves its `(tag | body)` section undecoded (what
/// [`decode_frame`] and [`chunk_parts`] take).
pub(crate) fn read_frame_bytes(r: &mut impl Read, framed: &mut Vec<u8>) -> Result<(), FleetError> {
    let mut len_bytes = [0u8; 4];
    // First byte separately: EOF here is a clean close, not truncation.
    match r.read(&mut len_bytes[..1]) {
        Ok(0) => return Err(FleetError::Closed),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return read_frame_bytes(r, framed),
        Err(e) => return Err(FleetError::Io(e.to_string())),
    }
    read_fully(r, &mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes) as u64;
    if len == 0 {
        return Err(FleetError::Protocol("empty frame"));
    }
    if len > MAX_FRAME_LEN {
        return Err(FleetError::FrameTooLarge(len));
    }
    let len = len as usize;
    framed.clear();
    framed.resize(len + 4, 0);
    read_fully(r, framed)?;
    let expected = u32::from_le_bytes(framed[len..].try_into().expect("four CRC bytes"));
    framed.truncate(len);
    let actual = crc32(framed);
    if expected != actual {
        return Err(FleetError::CrcMismatch { expected, actual });
    }
    Ok(())
}

fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FleetError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FleetError::Truncated
        } else {
            FleetError::Io(e.to_string())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let messages = [
            Message::Hello {
                rank: 7,
                format_version: 1,
                ticks_per_sec: 1_000_000_000,
            },
            Message::Chunk {
                epoch: 0,
                payload: b"ORATRC\x01\x00".to_vec(),
            },
            Message::Chunk {
                epoch: u64::MAX,
                payload: Vec::new(),
            },
            Message::Ack { epoch: 3 },
            Message::Fin {
                observed: 100,
                drained: 90,
                dropped: 10,
            },
            Message::FinAck {
                stored: 90,
                late: 2,
            },
        ];
        for msg in &messages {
            let frame = encode_frame(msg);
            let mut cursor = &frame[..];
            assert_eq!(read_frame(&mut cursor).unwrap(), *msg);
            assert!(cursor.is_empty(), "frame fully consumed");
        }
    }

    #[test]
    fn eof_between_frames_is_closed_mid_frame_is_truncated() {
        assert_eq!(read_frame(&mut &[][..]), Err(FleetError::Closed));
        let frame = encode_frame(&Message::Ack { epoch: 1 });
        for cut in 1..frame.len() {
            assert_eq!(
                read_frame(&mut &frame[..cut]),
                Err(FleetError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_frames_are_refused_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(MSG_ACK);
        assert_eq!(
            read_frame(&mut &bytes[..]),
            Err(FleetError::FrameTooLarge(u64::from(u32::MAX)))
        );
    }
}
