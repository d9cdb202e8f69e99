//! Control-plane framing: every message between the coordinator and its
//! agents is a 4-byte big-endian length prefix followed by that many bytes
//! of UTF-8 JSON, over the TCP stream opened by the agent at startup.
//!
//! Messages are JSON objects with a `"t"` discriminator. The handshake
//! sequence is documented on [`crate::coordinator`].

use std::io::{Read, Write};
use std::net::TcpStream;

use serde_json::{self, Value};

/// Upper bound on a control frame. Reports with long per-host gap series
/// are the largest messages; 64 MiB leaves orders of magnitude of slack
/// while still rejecting garbage prefixes from a confused peer.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Everything that can go wrong on the control plane.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes read timeouts).
    Io(std::io::Error),
    /// The peer sent something that is not a framed JSON object, or a
    /// message of an unexpected type.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "control socket: {e}"),
            WireError::Protocol(reason) => write!(f, "control protocol: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Builds a message of type `t` with the given extra fields.
pub fn msg(t: &str, fields: Vec<(&str, Value)>) -> Value {
    std::iter::once(("t", Value::from(t)))
        .chain(fields)
        .collect()
}

/// Writes one framed message. A message that encodes to more than
/// [`MAX_FRAME`] bytes is a protocol error naming its type, and nothing of
/// it is written.
pub fn send(stream: &mut TcpStream, message: &Value) -> Result<(), WireError> {
    let text = serde_json::to_string(message);
    let bytes = text.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(WireError::Protocol(format!(
            "`{}` message of {} bytes exceeds the {MAX_FRAME}-byte limit",
            msg_type(message).unwrap_or("untyped"),
            bytes.len()
        )));
    }
    stream.write_all(&(bytes.len() as u32).to_be_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()?;
    Ok(())
}

/// Reads one framed message (blocking, honouring the stream's read
/// timeout).
pub fn recv(stream: &mut TcpStream) -> Result<Value, WireError> {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    let text = String::from_utf8(buf)
        .map_err(|_| WireError::Protocol("frame is not UTF-8".to_string()))?;
    serde_json::from_str(&text)
        .map_err(|e| WireError::Protocol(format!("frame is not JSON: {e:?}")))
}

/// The message's `"t"` discriminator.
pub fn msg_type(message: &Value) -> Option<&str> {
    message.get("t").and_then(|v| v.as_str())
}

/// Reads one framed message and checks its type.
pub fn recv_expect(stream: &mut TcpStream, expected: &str) -> Result<Value, WireError> {
    let message = recv(stream)?;
    match msg_type(&message) {
        Some(t) if t == expected => Ok(message),
        Some(t) => Err(WireError::Protocol(format!(
            "expected `{expected}`, got `{t}`"
        ))),
        None => Err(WireError::Protocol(format!(
            "expected `{expected}`, got a message without a type"
        ))),
    }
}

/// `value` as an integer of type `T`, if it is one and fits: a host of 2³²
/// is no `u32`, never a silently truncated host 0.
pub fn int<T: TryFrom<u64>>(value: &Value) -> Option<T> {
    T::try_from(value.as_u64()?).ok()
}

/// A required integer field of a control message, checked by [`int`].
pub fn field<T: TryFrom<u64>>(message: &Value, key: &str) -> Result<T, WireError> {
    message.get(key).and_then(int).ok_or_else(|| {
        WireError::Protocol(format!(
            "field `{key}` is missing or not a {}",
            std::any::type_name::<T>()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn control_frames_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut server, _) = listener.accept().unwrap();
            let hello = recv_expect(&mut server, "hello").unwrap();
            assert_eq!(field::<u32>(&hello, "host").unwrap(), 3);
            send(&mut server, &msg("start", vec![])).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        send(&mut client, &msg("hello", vec![("host", 3u64.into())])).unwrap();
        let start = recv(&mut client).unwrap();
        assert_eq!(msg_type(&start), Some("start"));
        handle.join().unwrap();
    }

    /// Writes a raw frame: `body` behind a prefix claiming `len` bytes.
    fn write_frame(stream: &mut TcpStream, len: u32, body: &[u8]) {
        stream
            .write_all(&len.to_be_bytes())
            .and_then(|_| stream.write_all(body))
            .and_then(|_| stream.flush())
            .unwrap();
    }

    #[test]
    fn unexpected_types_and_oversized_frames_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut server, _) = listener.accept().unwrap();
            send(&mut server, &msg("bye", vec![])).unwrap();
            for body in [&b"\xff\xfe"[..], b"not json", b"[1,2]", b"42"] {
                write_frame(&mut server, body.len() as u32, body);
            }
            // A frame whose prefix claims more than MAX_FRAME.
            write_frame(&mut server, u32::MAX, b"");
            // A prefix that promises more bytes than arrive before close.
            write_frame(&mut server, 100, b"{\"t\":");
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let err = recv_expect(&mut client, "start").unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        // Not UTF-8, then UTF-8 but not JSON.
        for _ in 0..2 {
            let err = recv(&mut client).unwrap_err();
            assert!(matches!(err, WireError::Protocol(_)), "{err}");
        }
        // JSON, but an array and a number: no `"t"` to check.
        for _ in 0..2 {
            let err = recv_expect(&mut client, "start").unwrap_err();
            assert!(matches!(err, WireError::Protocol(_)), "{err}");
        }
        let err = recv(&mut client).unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        handle.join().unwrap();
        let err = recv(&mut client).unwrap_err();
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err}"
        );
    }

    #[test]
    fn an_oversized_message_is_refused_before_anything_is_written() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut server, _) = listener.accept().unwrap();
            let report = msg("report", vec![("body", "x".repeat(MAX_FRAME).into())]);
            send(&mut server, &report).unwrap_err()
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let err = handle.join().unwrap();
        assert!(
            matches!(&err, WireError::Protocol(reason) if reason.contains("`report`")),
            "{err}"
        );
        // The sender closed its end without writing a byte: the peer reads
        // a clean EOF, not a partial frame.
        let err = recv(&mut client).unwrap_err();
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err}"
        );
    }

    #[test]
    fn integer_fields_that_do_not_fit_their_type_are_rejected() {
        let hello = msg(
            "hello",
            vec![
                ("host", (1u64 << 32).into()),
                ("udp_port", 70_000u64.into()),
                ("nonce", u64::MAX.into()),
            ],
        );
        let err = field::<u32>(&hello, "host").unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        let err = field::<u16>(&hello, "udp_port").unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        let err = field::<usize>(&hello, "missing").unwrap_err();
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        assert_eq!(field::<u64>(&hello, "nonce").unwrap(), u64::MAX);
        assert_eq!(field::<u32>(&hello, "udp_port").unwrap(), 70_000);
    }
}
