//! Control-plane framing: every message between the coordinator and its
//! agents is a 4-byte big-endian length prefix followed by that many bytes
//! of UTF-8 JSON, over the TCP stream opened by the agent at startup.
//!
//! Messages are JSON objects with a `"t"` discriminator. The handshake
//! sequence is documented on [`crate::coordinator`].

use std::io::{Read, Write};
use std::net::TcpStream;

use serde_json::{self, FieldError, Value};

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

impl From<FieldError> for WireError {
    fn from(e: FieldError) -> Self {
        WireError::Protocol(e.to_string())
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
    message.field("t").ok()
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
            assert_eq!(hello.field::<u32>("host"), Ok(3));
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

    /// A body cut anywhere, framed with its own (honest) length, is a
    /// protocol error, as is a body that is not UTF-8 and a prefix over
    /// [`MAX_FRAME`]; none panics.
    #[test]
    fn truncated_and_garbled_bodies_are_protocol_errors() {
        let hello = serde_json::to_string(&msg(
            "hello",
            vec![("host", 3u64.into()), ("udp_port", 4000u64.into())],
        ));
        let mut cuts: Vec<usize> = (0..hello.len()).step_by(5).collect();
        cuts.push(hello.len() - 1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bodies: Vec<Vec<u8>> = cuts
            .iter()
            .map(|&cut| hello.as_bytes()[..cut].to_vec())
            .chain([b"{\"t\":\"hel\xc3".to_vec(), b"\x80\x81".to_vec()])
            .collect();
        let n = bodies.len();
        let handle = std::thread::spawn(move || {
            let (mut server, _) = listener.accept().unwrap();
            for body in &bodies {
                write_frame(&mut server, body.len() as u32, body);
            }
            write_frame(&mut server, MAX_FRAME as u32 + 1, b"");
        });
        let mut client = TcpStream::connect(addr).unwrap();
        for _ in 0..=n {
            let err = recv(&mut client).unwrap_err();
            assert!(matches!(err, WireError::Protocol(_)), "{err}");
        }
        handle.join().unwrap();
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
        let err = WireError::from(hello.field::<u32>("host").unwrap_err());
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        let err = WireError::from(hello.field::<u16>("udp_port").unwrap_err());
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        let err = WireError::from(hello.field::<usize>("missing").unwrap_err());
        assert!(matches!(err, WireError::Protocol(_)), "{err}");
        assert_eq!(hello.field::<u64>("nonce"), Ok(u64::MAX));
        assert_eq!(hello.field::<u32>("udp_port"), Ok(70_000));
    }
}
