//! Length-prefixed message framing over [`Json`] — the wire codec of
//! `genbase-coord-v4`, spoken through `genbase`'s session layer
//! (`crates/core/src/session.rs`) by the sweep coordinator, its workers and
//! the resident server's framed front.
//!
//! Every frame is a 4-byte big-endian payload length followed by that many
//! bytes of compact UTF-8 JSON (rendered by [`Json::render`], so a frame's
//! bytes are deterministic for a given message). Frames are bounded by
//! [`MAX_FRAME_BYTES`]: a reader rejects oversized length prefixes *before*
//! allocating, so a corrupt or hostile peer cannot make the process reserve
//! gigabytes from four bytes of garbage. Truncated frames (EOF inside the
//! prefix or the payload) are errors; EOF *between* frames is a clean
//! end-of-stream, which [`read_frame_opt`] reports as `None`.

use crate::error::{Error, Result};
use crate::json::Json;
use std::io::{Read, Write};

/// Upper bound on a frame's JSON payload. Coordinator traffic is one grid
/// cell per frame (well under a kilobyte); the cap only exists to bound
/// allocation on malformed input.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Encode one message as a self-contained frame (prefix + payload). The
/// write side enforces the same [`MAX_FRAME_BYTES`] bound as the reader:
/// an oversized message is an error here, not a frame the peer will
/// reject mid-protocol (and a >4 GiB payload can never silently truncate
/// its `u32` length prefix and desync the stream).
pub fn encode_frame(msg: &Json) -> Result<Vec<u8>> {
    let payload = msg.render();
    if payload.len() > MAX_FRAME_BYTES {
        return Err(Error::invalid(format!(
            "message of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame cap",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    Ok(out)
}

/// Write one framed message.
pub fn write_frame(w: &mut impl Write, msg: &Json) -> Result<()> {
    let frame = encode_frame(msg)?;
    crate::faults::hit("frame.write").map_err(|e| Error::invalid(format!("write frame: {e}")))?;
    w.write_all(&frame)
        .and_then(|_| w.flush())
        .map_err(|e| Error::invalid(format!("write frame: {e}")))
}

/// Read one framed message; a clean EOF before the first prefix byte is an
/// error here (use [`read_frame_opt`] where end-of-stream is expected).
pub fn read_frame(r: &mut impl Read) -> Result<Json> {
    read_frame_opt(r)?.ok_or_else(|| Error::invalid("unexpected end of stream"))
}

/// Read one framed message, or `None` on a clean end-of-stream (EOF exactly
/// at a frame boundary). EOF *inside* a frame is a truncation error.
pub fn read_frame_opt(r: &mut impl Read) -> Result<Option<Json>> {
    crate::faults::hit("frame.read").map_err(|e| Error::invalid(format!("read frame: {e}")))?;
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(Error::invalid("truncated frame length prefix")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::invalid(format!("read frame prefix: {e}"))),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(Error::invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(Error::invalid(format!(
                    "truncated frame: got {filled} of {len} payload bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(Error::invalid(format!("read frame payload: {e}"))),
        }
    }
    let text =
        std::str::from_utf8(&payload).map_err(|_| Error::invalid("frame payload is not UTF-8"))?;
    Json::parse(text).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn msg(kind: &str) -> Json {
        let mut m = Json::obj();
        m.set("type", Json::from(kind));
        m.set("cells", Json::Arr(vec![Json::from(1u64), Json::Null]));
        m
    }

    #[test]
    fn frames_round_trip_in_sequence() {
        let mut buf = Vec::new();
        for kind in ["hello", "lease", "result"] {
            write_frame(&mut buf, &msg(kind)).unwrap();
        }
        let mut cursor = Cursor::new(buf);
        for kind in ["hello", "lease", "result"] {
            let got = read_frame(&mut cursor).unwrap();
            assert_eq!(got, msg(kind));
        }
        assert!(read_frame_opt(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let frame = encode_frame(&msg("hello")).unwrap();
        for cut in [1, 3, frame.len() - 1] {
            let mut cursor = Cursor::new(&frame[..cut]);
            assert!(read_frame(&mut cursor).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_prefix_rejected_before_allocation() {
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.extend_from_slice(b"{}");
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn oversized_message_rejected_at_encode() {
        // A string payload just over the cap must fail on the write side.
        let big = Json::Str("x".repeat(MAX_FRAME_BYTES));
        let err = encode_frame(&big).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        assert!(write_frame(&mut Vec::new(), &big).is_err());
    }

    #[test]
    fn non_json_payload_rejected() {
        let mut bytes = 3u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0xd0, 0xbd, 0xd0]); // UTF-8 cut mid-scalar
        assert!(read_frame(&mut Cursor::new(bytes)).is_err());
        let mut bytes = 2u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"{]");
        assert!(read_frame(&mut Cursor::new(bytes)).is_err());
    }
}
