//! Binary trace format — the artifact the paper's §5.1 pipeline passes
//! from the memory tracer to the MAC simulator.
//!
//! Layout (little-endian):
//!
//! ```text
//! header:  magic "MACT" | version u16 | thread count u16
//! per thread: record count u64, then records:
//!   [kind u8][pad u8][compute-gap u16][addr u64]
//! ```
//!
//! `kind`: 0 load, 1 store, 2 atomic, 3 fence, 4 SPM access. The
//! compute gap is the number of non-memory instructions preceding the
//! operation (capped at `u16::MAX`; longer gaps split into NOP records
//! with kind 255).

use mac_types::{MemOpKind, PhysAddr};

use crate::program::ThreadOp;

const MAGIC: &[u8; 4] = b"MACT";
const VERSION: u16 = 1;
const KIND_LOAD: u8 = 0;
const KIND_STORE: u8 = 1;
const KIND_ATOMIC: u8 = 2;
const KIND_FENCE: u8 = 3;
const KIND_SPM: u8 = 4;
const KIND_GAP: u8 = 255;

/// Serialize per-thread operation lists into the trace format.
pub fn encode_trace(threads: &[Vec<ThreadOp>]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(threads.len() as u16).to_le_bytes());
    for ops in threads {
        // First pass: fold Compute into the gap of the following record.
        let mut records: Vec<(u8, u16, u64)> = Vec::new();
        let mut gap: u64 = 0;
        for op in ops {
            match op {
                ThreadOp::Compute(c) => gap += c,
                ThreadOp::Spm => {
                    push_record(&mut records, KIND_SPM, &mut gap, 0);
                }
                ThreadOp::Mem { addr, kind } => {
                    let k = match kind {
                        MemOpKind::Load => KIND_LOAD,
                        MemOpKind::Store => KIND_STORE,
                        MemOpKind::Atomic => KIND_ATOMIC,
                        MemOpKind::Fence => KIND_FENCE,
                    };
                    push_record(&mut records, k, &mut gap, addr.raw());
                }
                ThreadOp::Done => break,
            }
        }
        while gap > 0 {
            let g = gap.min(u16::MAX as u64) as u16;
            records.push((KIND_GAP, g, 0));
            gap -= g as u64;
        }
        buf.extend_from_slice(&(records.len() as u64).to_le_bytes());
        for (kind, g, addr) in records {
            buf.extend_from_slice(&[kind, 0]);
            buf.extend_from_slice(&g.to_le_bytes());
            buf.extend_from_slice(&addr.to_le_bytes());
        }
    }
    buf
}

fn push_record(records: &mut Vec<(u8, u16, u64)>, kind: u8, gap: &mut u64, addr: u64) {
    while *gap > u16::MAX as u64 {
        records.push((KIND_GAP, u16::MAX, 0));
        *gap -= u16::MAX as u64;
    }
    records.push((kind, *gap as u16, addr));
    *gap = 0;
}

/// Split the first `N` bytes off the front of `raw`. Callers check the
/// remaining length first.
fn take<const N: usize>(raw: &mut &[u8]) -> [u8; N] {
    let (head, rest) = raw.split_at(N);
    *raw = rest;
    head.try_into().expect("split_at returns N bytes")
}

/// Deserialize a trace produced by [`encode_trace`].
pub fn decode_trace(mut raw: &[u8]) -> Result<Vec<Vec<ThreadOp>>, String> {
    if raw.len() < 8 {
        return Err("truncated header".into());
    }
    let magic: [u8; 4] = take(&mut raw);
    if &magic != MAGIC {
        return Err(format!("bad magic {magic:?}"));
    }
    let version = u16::from_le_bytes(take(&mut raw));
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let threads = u16::from_le_bytes(take(&mut raw)) as usize;
    let mut out = Vec::with_capacity(threads);
    for t in 0..threads {
        if raw.len() < 8 {
            return Err(format!("truncated thread {t} header"));
        }
        let n = u64::from_le_bytes(take(&mut raw));
        match n.checked_mul(12) {
            Some(len) if len <= raw.len() as u64 => {}
            _ => return Err(format!("truncated thread {t} records")),
        }
        let mut ops = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let [kind, _pad, g0, g1] = take(&mut raw);
            let gap = u16::from_le_bytes([g0, g1]) as u64;
            let addr = u64::from_le_bytes(take(&mut raw));
            if gap > 0 {
                ops.push(ThreadOp::Compute(gap));
            }
            match kind {
                KIND_GAP => {}
                KIND_SPM => ops.push(ThreadOp::Spm),
                k => {
                    let kind = match k {
                        KIND_LOAD => MemOpKind::Load,
                        KIND_STORE => MemOpKind::Store,
                        KIND_ATOMIC => MemOpKind::Atomic,
                        KIND_FENCE => MemOpKind::Fence,
                        other => return Err(format!("bad record kind {other}")),
                    };
                    ops.push(ThreadOp::Mem {
                        addr: PhysAddr::new(addr),
                        kind,
                    });
                }
            }
        }
        out.push(ops);
    }
    Ok(out)
}

/// Write a trace to a file.
pub fn write_trace_file(path: &std::path::Path, threads: &[Vec<ThreadOp>]) -> std::io::Result<()> {
    std::fs::write(path, encode_trace(threads))
}

/// Read a trace from a file.
pub fn read_trace_file(path: &std::path::Path) -> Result<Vec<Vec<ThreadOp>>, String> {
    let raw = std::fs::read(path).map_err(|e| e.to_string())?;
    decode_trace(&raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Vec<ThreadOp>> {
        vec![
            vec![
                ThreadOp::Compute(3),
                ThreadOp::Mem {
                    addr: PhysAddr::new(0x1000),
                    kind: MemOpKind::Load,
                },
                ThreadOp::Mem {
                    addr: PhysAddr::new(0x2000),
                    kind: MemOpKind::Store,
                },
                ThreadOp::Spm,
                ThreadOp::Mem {
                    addr: PhysAddr::new(0),
                    kind: MemOpKind::Fence,
                },
            ],
            vec![
                ThreadOp::Mem {
                    addr: PhysAddr::new(0x42),
                    kind: MemOpKind::Atomic,
                },
                ThreadOp::Compute(100),
            ],
        ]
    }

    #[test]
    fn round_trip_preserves_operations() {
        let original = sample();
        let decoded = decode_trace(&encode_trace(&original)).unwrap();
        assert_eq!(decoded.len(), 2);
        // Compute ops may be re-folded but the memory operations and their
        // preceding gaps must match exactly.
        assert_eq!(decoded[0], original[0]);
        // Trailing compute is preserved as a gap record.
        let total_compute: u64 = decoded[1]
            .iter()
            .filter_map(|op| match op {
                ThreadOp::Compute(c) => Some(*c),
                _ => None,
            })
            .sum();
        assert_eq!(total_compute, 100);
    }

    #[test]
    fn large_gaps_split_and_rejoin() {
        let original = vec![vec![
            ThreadOp::Compute(200_000),
            ThreadOp::Mem {
                addr: PhysAddr::new(0x10),
                kind: MemOpKind::Load,
            },
        ]];
        let decoded = decode_trace(&encode_trace(&original)).unwrap();
        let total: u64 = decoded[0]
            .iter()
            .filter_map(|op| match op {
                ThreadOp::Compute(c) => Some(*c),
                _ => None,
            })
            .sum();
        assert_eq!(total, 200_000);
        assert!(decoded[0].iter().any(|op| matches!(
            op,
            ThreadOp::Mem {
                kind: MemOpKind::Load,
                ..
            }
        )));
    }

    #[test]
    fn rejects_corruption() {
        assert!(decode_trace(b"oops").is_err());
        // A record count whose byte length wraps a u64 multiply to 8.
        let mut wrap = b"MACT\x01\x00\x01\x00".to_vec();
        wrap.extend_from_slice(&0x1555_5555_5555_5556u64.to_le_bytes());
        wrap.extend_from_slice(&[0; 8]);
        assert!(decode_trace(&wrap).is_err());
        let mut good = encode_trace(&sample());
        good[0] = b'X';
        assert!(decode_trace(&good).is_err());
        // Truncation.
        let enc = encode_trace(&sample());
        assert!(decode_trace(&enc[..enc.len() - 4]).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("mac_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        write_trace_file(&path, &sample()).unwrap();
        let back = read_trace_file(&path).unwrap();
        assert_eq!(back[0], sample()[0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let decoded = decode_trace(&encode_trace(&[])).unwrap();
        assert!(decoded.is_empty());
    }
}
