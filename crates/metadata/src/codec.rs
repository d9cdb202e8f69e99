//! Wire format of the Kollaps metadata messages (paper §4.2).
//!
//! Every message carries a small constant header — flow count, the
//! compact-id flag, the **sender host** and the **publish timestamp** —
//! followed by one entry per active flow. Receivers need the sender to
//! replace that host's previous (now stale) usage view, and the timestamp
//! to reason about staleness; both live in the header so the per-flow
//! layout (and therefore the Figure 3/4 traffic scaling) is unchanged.

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use kollaps_sim::time::SimTime;
use kollaps_sim::units::Bandwidth;

use crate::bus::HostId;

/// Fixed header size: 2 bytes flow count + 1 byte id-width flag + 4 bytes
/// sender host + 8 bytes publish timestamp (nanoseconds of virtual time).
pub const HEADER_LEN: usize = 15;

/// Size of the length prefix a framed message carries on the wire.
pub const FRAME_PREFIX_LEN: usize = 4;

/// Most flows one message can carry: the header's flow count is 16 bits.
pub const MAX_FLOWS: usize = u16::MAX as usize;

/// Most link ids one flow entry can carry: its link count is 8 bits.
pub const MAX_LINKS_PER_FLOW: usize = u8::MAX as usize;

/// Usage report for one active flow.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowUsage {
    /// Bandwidth currently used by the flow, rounded to kilobits per second
    /// so it fits the 4-byte field of the original format.
    pub used_kbps: u32,
    /// Identifiers of the links the flow's collapsed path traverses,
    /// shared: a publisher hands out the ids it keeps with the path, so a
    /// message costs no per-flow copy of them.
    pub link_ids: Arc<[u16]>,
}

impl FlowUsage {
    /// Builds a usage entry from a bandwidth value and the path's link ids.
    pub fn new(used: Bandwidth, link_ids: impl Into<Arc<[u16]>>) -> Self {
        FlowUsage {
            used_kbps: (used.as_bps() / 1_000).min(u32::MAX as u64) as u32,
            link_ids: link_ids.into(),
        }
    }

    /// The reported usage as a [`Bandwidth`].
    pub fn used(&self) -> Bandwidth {
        Bandwidth::from_kbps(self.used_kbps as u64)
    }
}

/// One metadata message, as emitted by an Emulation Manager on every
/// iteration of the emulation loop.
///
/// The wire carries the first [`MAX_FLOWS`] flows and, of each, the first
/// [`MAX_LINKS_PER_FLOW`] link ids; [`MetadataMessage::encoded_len`],
/// [`MetadataMessage::uses_compact_ids`] and [`MetadataMessage::encode`]
/// all describe that clamped message, so they agree whatever the sizes.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MetadataMessage {
    /// Physical host whose Emulation Manager published this message.
    pub sender: HostId,
    /// Virtual time at which the message was published.
    pub published: SimTime,
    /// Per-flow usage reports.
    pub flows: Vec<FlowUsage>,
}

/// Errors produced when decoding a metadata message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the advertised content.
    Truncated,
    /// A framed buffer's length prefix disagrees with its actual payload
    /// size (trailing garbage, or two frames glued together).
    FrameMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "metadata message is truncated"),
            DecodeError::FrameMismatch => {
                write!(f, "frame length prefix disagrees with the payload size")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl MetadataMessage {
    /// Creates an empty message.
    pub fn new() -> Self {
        MetadataMessage::default()
    }

    /// Creates an empty message stamped with its sender and publish time.
    pub fn from_host(sender: HostId, published: SimTime) -> Self {
        MetadataMessage {
            sender,
            published,
            flows: Vec::new(),
        }
    }

    /// Cuts the message to what the wire carries: its first [`MAX_FLOWS`]
    /// flows, each with its first [`MAX_LINKS_PER_FLOW`] link ids. Afterwards
    /// `decode(encode(m)) == m`, so a receiver sees the same message whether
    /// it was handed the value or the datagram.
    pub fn clamp_to_wire(&mut self) {
        self.flows.truncate(MAX_FLOWS);
        for flow in &mut self.flows {
            if flow.link_ids.len() > MAX_LINKS_PER_FLOW {
                flow.link_ids = flow.link_ids[..MAX_LINKS_PER_FLOW].into();
            }
        }
    }

    /// What the wire carries: `(used_kbps, link ids)` of the first
    /// [`MAX_FLOWS`] flows, each cut to [`MAX_LINKS_PER_FLOW`] ids.
    fn wire_flows(&self) -> impl ExactSizeIterator<Item = (u32, &[u16])> {
        self.flows.iter().take(MAX_FLOWS).map(|flow| {
            let carried = flow.link_ids.len().min(MAX_LINKS_PER_FLOW);
            (flow.used_kbps, &flow.link_ids[..carried])
        })
    }

    /// `true` if the network is small enough (≤ 256 links) for 1-byte link
    /// identifiers; decided per message from the largest id it carries, the
    /// same optimisation described in the paper for ≤ 256-node topologies.
    pub fn uses_compact_ids(&self) -> bool {
        self.wire_flows()
            .flat_map(|(_, ids)| ids)
            .all(|&id| id < 256)
    }

    /// Serialized size in bytes (without encoding).
    pub fn encoded_len(&self) -> usize {
        let id_width = if self.uses_compact_ids() { 1 } else { 2 };
        HEADER_LEN
            + self
                .wire_flows()
                .map(|(_, ids)| 4 + 1 + ids.len() * id_width)
                .sum::<usize>()
    }

    /// Encodes the message into a byte buffer.
    pub fn encode(&self) -> Bytes {
        let compact = self.uses_compact_ids();
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        let flows = self.wire_flows();
        buf.put_u16(flows.len() as u16);
        buf.put_u8(u8::from(compact));
        buf.put_u32(self.sender.0);
        buf.put_u64(self.published.as_nanos());
        for (used_kbps, ids) in flows {
            buf.put_u32(used_kbps);
            buf.put_u8(ids.len() as u8);
            for &id in ids {
                if compact {
                    buf.put_u8(id as u8);
                } else {
                    buf.put_u16(id);
                }
            }
        }
        buf.freeze()
    }

    /// Decodes a message previously produced by [`MetadataMessage::encode`].
    pub fn decode(mut buf: Bytes) -> Result<Self, DecodeError> {
        if buf.remaining() < HEADER_LEN {
            return Err(DecodeError::Truncated);
        }
        let n_flows = buf.get_u16() as usize;
        let compact = buf.get_u8() == 1;
        let sender = HostId(buf.get_u32());
        let published = SimTime::from_nanos(buf.get_u64());
        let mut flows = Vec::with_capacity(n_flows);
        for _ in 0..n_flows {
            if buf.remaining() < 5 {
                return Err(DecodeError::Truncated);
            }
            let used_kbps = buf.get_u32();
            let n_links = buf.get_u8() as usize;
            let width = if compact { 1 } else { 2 };
            if buf.remaining() < n_links * width {
                return Err(DecodeError::Truncated);
            }
            let link_ids = (0..n_links)
                .map(|_| {
                    if compact {
                        buf.get_u8() as u16
                    } else {
                        buf.get_u16()
                    }
                })
                .collect();
            flows.push(FlowUsage {
                used_kbps,
                link_ids,
            });
        }
        Ok(MetadataMessage {
            sender,
            published,
            flows,
        })
    }

    /// `true` when the encoded form fits a single UDP datagram (1472 bytes
    /// of payload after IP/UDP headers on a 1500-byte MTU), the property the
    /// paper's encoding aims for.
    pub fn fits_single_datagram(&self) -> bool {
        self.encoded_len() <= 1472
    }

    /// Encodes the message with a 4-byte big-endian length prefix — the
    /// frame the distributed runtime actually puts in a UDP datagram. The
    /// prefix lets a receiver reject truncated or corrupted datagrams
    /// before handing bytes to [`MetadataMessage::decode`].
    pub fn encode_framed(&self) -> Bytes {
        let body = self.encode();
        let mut buf = BytesMut::with_capacity(FRAME_PREFIX_LEN + body.len());
        buf.put_u32(body.len() as u32);
        buf.extend_from_slice(&body);
        buf.freeze()
    }

    /// Decodes one framed message: the 4-byte length prefix must match the
    /// remaining payload exactly (a datagram carries exactly one frame).
    /// Short buffers are [`DecodeError::Truncated`]; a prefix that
    /// disagrees with the payload size is [`DecodeError::FrameMismatch`].
    pub fn decode_framed(frame: &[u8]) -> Result<Self, DecodeError> {
        let Some((prefix, body)) = frame.split_first_chunk::<FRAME_PREFIX_LEN>() else {
            return Err(DecodeError::Truncated);
        };
        let declared = u32::from_be_bytes(*prefix) as usize;
        if body.len() < declared {
            return Err(DecodeError::Truncated);
        }
        if body.len() > declared {
            return Err(DecodeError::FrameMismatch);
        }
        MetadataMessage::decode(Bytes::copy_from_slice(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(n_flows: usize, links_per_flow: usize, max_id: u16) -> MetadataMessage {
        let mut m = MetadataMessage::new();
        for i in 0..n_flows {
            let ids = (0..links_per_flow)
                .map(|j| max_id.saturating_sub((i * links_per_flow + j) as u16))
                .collect::<Vec<u16>>();
            m.flows
                .push(FlowUsage::new(Bandwidth::from_mbps((i + 1) as u64), ids));
        }
        m
    }

    #[test]
    fn round_trip_compact() {
        let m = msg(10, 4, 200);
        assert!(m.uses_compact_ids());
        let encoded = m.encode();
        assert_eq!(encoded.len(), m.encoded_len());
        let decoded = MetadataMessage::decode(encoded).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn round_trip_wide_ids() {
        let m = msg(5, 3, 5_000);
        assert!(!m.uses_compact_ids());
        let decoded = MetadataMessage::decode(m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn header_carries_sender_and_publish_time() {
        // The 2-byte id path and the header fields round-trip together.
        let mut m = msg(4, 3, 9_999);
        m.sender = HostId(7);
        m.published = SimTime::from_millis(1_250);
        assert!(!m.uses_compact_ids());
        let decoded = MetadataMessage::decode(m.encode()).unwrap();
        assert_eq!(decoded.sender, HostId(7));
        assert_eq!(decoded.published, SimTime::from_millis(1_250));
        assert_eq!(decoded, m);
    }

    #[test]
    fn empty_message_is_header_only() {
        let m = MetadataMessage::from_host(HostId(3), SimTime::from_secs(2));
        assert_eq!(m.encode().len(), HEADER_LEN);
        assert_eq!(MetadataMessage::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn compact_ids_save_space() {
        let small = msg(20, 4, 200);
        let large = msg(20, 4, 2_000);
        assert!(small.encoded_len() < large.encoded_len());
        // 20 flows * (4 + 1 + 4) + the 15-byte header = 195 bytes.
        assert_eq!(small.encoded_len(), 195);
    }

    #[test]
    fn typical_messages_fit_one_datagram() {
        // 160 containers with one active flow each over 4-hop paths —
        // the largest configuration of Figure 3.
        let m = msg(160, 4, 250);
        assert!(m.fits_single_datagram(), "len = {}", m.encoded_len());
    }

    #[test]
    fn truncated_messages_are_rejected() {
        let m = msg(3, 2, 100);
        let encoded = m.encode();
        for cut in [0usize, 1, 2, 8, 14, 16, 19, 22] {
            let partial = encoded.slice(0..cut.min(encoded.len() - 1));
            assert_eq!(
                MetadataMessage::decode(partial),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn framed_round_trip_and_rejection() {
        let mut m = msg(3, 2, 100);
        m.sender = HostId(2);
        m.published = SimTime::from_millis(350);
        let frame = m.encode_framed();
        assert_eq!(frame.len(), FRAME_PREFIX_LEN + m.encoded_len());
        assert_eq!(MetadataMessage::decode_framed(&frame).unwrap(), m);
        // Any truncation is rejected.
        for cut in 0..frame.len() {
            assert_eq!(
                MetadataMessage::decode_framed(&frame[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
        // Trailing garbage after the declared frame is rejected too.
        let mut padded = frame.to_vec();
        padded.push(0xAB);
        assert_eq!(
            MetadataMessage::decode_framed(&padded),
            Err(DecodeError::FrameMismatch)
        );
    }

    /// Past either wire limit the message is clamped, and the announced
    /// length, the encoder and the decoder all see the same clamped message.
    #[test]
    fn oversized_messages_are_clamped_consistently() {
        for (n_flows, links_per_flow, max_id) in [
            (MAX_FLOWS - 1, 1, 200),
            (MAX_FLOWS, 1, 9_000),
            (MAX_FLOWS + 1, 1, 200),
            (MAX_FLOWS + 300, 2, 9_000),
            (3, MAX_LINKS_PER_FLOW - 1, 200),
            (3, MAX_LINKS_PER_FLOW, 9_000),
            (3, MAX_LINKS_PER_FLOW + 40, 200),
        ] {
            let mut m = msg(n_flows, links_per_flow, max_id);
            // An id only the cut-off tail carries must not widen the rest.
            let ids = Arc::get_mut(&mut m.flows[0].link_ids).expect("not shared yet");
            if let Some(id) = ids.get_mut(MAX_LINKS_PER_FLOW) {
                *id = 60_000;
            }
            let mut clamped = m.clone();
            clamped.flows.truncate(MAX_FLOWS);
            for flow in &mut clamped.flows {
                let carried = flow.link_ids.iter().take(MAX_LINKS_PER_FLOW);
                flow.link_ids = carried.copied().collect();
            }
            let mut in_place = m.clone();
            in_place.clamp_to_wire();
            let what = format!("{n_flows} flows of {links_per_flow} links");
            assert_eq!(m.encode().len(), m.encoded_len(), "{what}");
            assert_eq!(m.encode(), clamped.encode(), "{what}");
            assert_eq!(in_place, clamped, "{what}");
            assert_eq!(MetadataMessage::decode(m.encode()), Ok(clamped), "{what}");
        }
    }

    #[test]
    fn usage_round_trips_through_kbps() {
        let f = FlowUsage::new(Bandwidth::from_mbps(50), vec![1, 2, 3]);
        assert_eq!(f.used(), Bandwidth::from_mbps(50));
        let tiny = FlowUsage::new(Bandwidth::from_bps(500), vec![]);
        assert_eq!(tiny.used_kbps, 0);
    }
}
