//! HMC packet model (§2.2.2 of the paper; HMC 2.1 specification).
//!
//! The HMC protocol is packetized: every request and response is a train
//! of 16 B FLITs. Control information (header + tail: cube id, address,
//! tag, CRC, error codes) occupies exactly **one FLIT per packet**, i.e.
//! 32 B per complete memory access (request packet + response packet),
//! independent of the payload size. This fixed overhead is what makes
//! small transactions so inefficient (Figure 3) and is the quantity MAC
//! amortizes by coalescing.
//!
//! Packet layout (READ example):
//!
//! ```text
//! request:  [ header+tail: 1 FLIT ]                      = 1 FLIT
//! response: [ header+tail: 1 FLIT ][ data: size/16 FLITs ] = 1 + n FLITs
//! ```
//!
//! WRITE carries the data on the request packet and a bare 1-FLIT
//! completion on the response.

use crate::addr::PhysAddr;
use crate::request::ReqSize;

/// Control FLITs per packet (header + tail combined, 16 B).
pub const CONTROL_FLITS_PER_PACKET: u64 = 1;

/// Kind of HMC link packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Read request: 1 control FLIT, no data.
    ReadRequest,
    /// Read response: 1 control FLIT + payload FLITs.
    ReadResponse,
    /// Write request: 1 control FLIT + payload FLITs.
    WriteRequest,
    /// Write completion: 1 control FLIT.
    WriteResponse,
    /// Atomic request: 1 control FLIT + 1 operand FLIT.
    AtomicRequest,
    /// Atomic response: 1 control FLIT + 1 result FLIT.
    AtomicResponse,
}

/// A link-level HMC packet: the unit of serialization on the SerDes links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HmcPacket {
    /// Packet kind.
    pub kind: PacketKind,
    /// Target (or echoed) start address.
    pub addr: PhysAddr,
    /// Payload size of the underlying transaction.
    pub size: ReqSize,
    /// Link-layer tag correlating request and response packets.
    pub tag: u32,
}

impl HmcPacket {
    /// Total length of this packet in FLITs (control + data).
    pub fn flits(&self) -> u64 {
        CONTROL_FLITS_PER_PACKET + self.data_flits()
    }

    /// Data FLITs carried by this packet.
    pub fn data_flits(&self) -> u64 {
        match self.kind {
            PacketKind::ReadRequest | PacketKind::WriteResponse => 0,
            PacketKind::ReadResponse | PacketKind::WriteRequest => self.size.flits(),
            PacketKind::AtomicRequest | PacketKind::AtomicResponse => 1,
        }
    }

    /// Total length in bytes.
    pub fn bytes_len(&self) -> u64 {
        self.flits() * 16
    }

    /// Encode the packet header into its on-link wire format. The data
    /// payload is timing-only in this simulator (contents are not modeled),
    /// so only the 16 B control FLIT is materialized.
    pub fn encode(&self) -> [u8; 16] {
        let mut buf = [0u8; 16];
        buf[0] = match self.kind {
            PacketKind::ReadRequest => 0,
            PacketKind::ReadResponse => 1,
            PacketKind::WriteRequest => 2,
            PacketKind::WriteResponse => 3,
            PacketKind::AtomicRequest => 4,
            PacketKind::AtomicResponse => 5,
        };
        buf[1] = self.size.flits() as u8;
        buf[2..6].copy_from_slice(&self.tag.to_be_bytes());
        buf[6..14].copy_from_slice(&self.addr.raw().to_be_bytes());
        // CRC over the first 14 bytes, stored in the tail position.
        let crc = crc16(&buf[..14]);
        buf[14..].copy_from_slice(&crc.to_be_bytes());
        buf
    }

    /// Decode a packet header produced by [`HmcPacket::encode`], verifying
    /// the CRC. Returns `None` for malformed or corrupted headers.
    pub fn decode(raw: &[u8]) -> Option<HmcPacket> {
        let raw: &[u8; 16] = raw.try_into().ok()?;
        let crc = u16::from_be_bytes([raw[14], raw[15]]);
        if crc != crc16(&raw[..14]) {
            return None;
        }
        let tag = u32::from_be_bytes(raw[2..6].try_into().expect("4-byte range"));
        let addr = u64::from_be_bytes(raw[6..14].try_into().expect("8-byte range"));
        let kind = match raw[0] {
            0 => PacketKind::ReadRequest,
            1 => PacketKind::ReadResponse,
            2 => PacketKind::WriteRequest,
            3 => PacketKind::WriteResponse,
            4 => PacketKind::AtomicRequest,
            5 => PacketKind::AtomicResponse,
            _ => return None,
        };
        let size = match raw[1] {
            1 => ReqSize::B16,
            2 => ReqSize::B32,
            4 => ReqSize::B64,
            8 => ReqSize::B128,
            16 => ReqSize::B256,
            _ => return None,
        };
        Some(HmcPacket {
            kind,
            addr: PhysAddr::new(addr),
            size,
            tag,
        })
    }
}

/// CRC-16/CCITT-FALSE, the polynomial family used by the HMC spec's
/// packet integrity field.
pub fn crc16(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= (b as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(kind: PacketKind, size: ReqSize) -> HmcPacket {
        HmcPacket {
            kind,
            addr: PhysAddr::new(0xABC0),
            size,
            tag: 42,
        }
    }

    #[test]
    fn read_request_is_one_flit_regardless_of_size() {
        for size in [ReqSize::B16, ReqSize::B64, ReqSize::B256] {
            assert_eq!(pkt(PacketKind::ReadRequest, size).flits(), 1);
        }
    }

    #[test]
    fn read_response_carries_payload() {
        assert_eq!(pkt(PacketKind::ReadResponse, ReqSize::B16).flits(), 2);
        assert_eq!(pkt(PacketKind::ReadResponse, ReqSize::B256).flits(), 17);
    }

    #[test]
    fn access_control_overhead_is_32_bytes() {
        // §2.2.2: one FLIT of control per packet, 32 B per access.
        for size in [ReqSize::B16, ReqSize::B128, ReqSize::B256] {
            let req = pkt(PacketKind::ReadRequest, size);
            let rsp = pkt(PacketKind::ReadResponse, size);
            let control =
                (req.flits() - req.data_flits()) * 16 + (rsp.flits() - rsp.data_flits()) * 16;
            assert_eq!(control, 32);
        }
    }

    #[test]
    fn write_totals_match_read_totals() {
        // A write access moves the same FLITs as a read, just on the
        // request side instead of the response side.
        for size in [ReqSize::B16, ReqSize::B64, ReqSize::B256] {
            let read = pkt(PacketKind::ReadRequest, size).flits()
                + pkt(PacketKind::ReadResponse, size).flits();
            let write = pkt(PacketKind::WriteRequest, size).flits()
                + pkt(PacketKind::WriteResponse, size).flits();
            assert_eq!(read, write);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        for kind in [
            PacketKind::ReadRequest,
            PacketKind::ReadResponse,
            PacketKind::WriteRequest,
            PacketKind::WriteResponse,
            PacketKind::AtomicRequest,
            PacketKind::AtomicResponse,
        ] {
            for size in [
                ReqSize::B16,
                ReqSize::B32,
                ReqSize::B64,
                ReqSize::B128,
                ReqSize::B256,
            ] {
                let p = pkt(kind, size);
                let enc = p.encode();
                assert_eq!(enc.len(), 16, "control FLIT is 16 B");
                assert_eq!(HmcPacket::decode(&enc).as_ref(), Some(&p));
            }
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let p = pkt(PacketKind::ReadRequest, ReqSize::B64);
        let mut enc = p.encode();
        enc[6] ^= 0xFF; // flip an address byte -> CRC mismatch
        assert_eq!(HmcPacket::decode(&enc), None);
        assert_eq!(HmcPacket::decode(&[0u8; 8]), None);
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }
}
