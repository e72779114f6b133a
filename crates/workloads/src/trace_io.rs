//! Trace-file import/export.
//!
//! The paper's Section IV methodology is trace-driven: "we collected the
//! memory trace from a detailed full-system simulator and the trace file
//! records the physical address, CPU ID, time stamp, and read/write status
//! of all main memory accesses". This module gives the library the same
//! workflow: record synthetic (or externally captured) traces to a file
//! and replay them later, so experiments are repeatable bit-for-bit and
//! external traces can be plugged into the simulator.
//!
//! The format (HMT1, `.hmt`) is a compact delta encoding: LEB128 varints
//! for the tick delta and the line address, one byte for cpu +
//! read/write. A typical record costs 4-8 bytes instead of 18, and
//! never less than 3. [`BinaryTraceReader`] is the validating decoder:
//! `replay::decode` runs it once over an upload, and the replay registry
//! then keeps the bytes in this form, decoding them again as it streams.

use crate::trace::TraceRecord;
use hmm_sim_base::addr::PhysAddr;
use std::io::{self, Read, Write};

/// Magic bytes of the binary format ("HMT1").
pub const MAGIC: [u8; 4] = *b"HMT1";

/// Largest line address (`addr >> 6`) the binary format carries: 56
/// bits, so `line << 6` is always a valid byte address. The reader
/// refuses larger lines rather than wrapping them.
pub const MAX_LINE: u64 = (1 << 56) - 1;

fn line_out_of_range(kind: io::ErrorKind, line: u64) -> io::Error {
    io::Error::new(kind, format!("line address {line:#x} exceeds the 56-bit maximum"))
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<Option<u64>> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let mut buf = [0u8; 1];
    loop {
        match r.read(&mut buf)? {
            0 => {
                return if shift == 0 {
                    Ok(None) // clean EOF between records
                } else {
                    Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated varint"))
                };
            }
            _ => {
                if shift >= 63 && buf[0] > 1 {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, "varint overflow"));
                }
                v |= u64::from(buf[0] & 0x7f) << shift;
                if buf[0] & 0x80 == 0 {
                    return Ok(Some(v));
                }
                shift += 7;
            }
        }
    }
}

/// Write records in the binary format. Ticks must be non-decreasing.
pub fn write_binary<W: Write>(
    w: &mut W,
    records: impl IntoIterator<Item = TraceRecord>,
) -> io::Result<u64> {
    w.write_all(&MAGIC)?;
    let mut last_tick = 0u64;
    let mut count = 0u64;
    for rec in records {
        let delta = rec.tick.checked_sub(last_tick).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "ticks must be non-decreasing")
        })?;
        last_tick = rec.tick;
        let line = rec.addr.0 >> 6; // line address: 6 fewer bits
        if line > MAX_LINE {
            return Err(line_out_of_range(io::ErrorKind::InvalidInput, line));
        }
        write_varint(w, delta)?;
        write_varint(w, line)?;
        let flags = (rec.cpu & 0x7f) | if rec.is_write { 0x80 } else { 0 };
        w.write_all(&[flags])?;
        count += 1;
    }
    Ok(count)
}

/// Streaming reader over the binary format.
pub struct BinaryTraceReader<R: Read> {
    inner: R,
    tick: u64,
    /// Set when the header has been validated.
    started: bool,
}

impl<R: Read> BinaryTraceReader<R> {
    /// Wrap a reader; the magic header is checked on first record.
    pub fn new(inner: R) -> Self {
        Self { inner, tick: 0, started: false }
    }

    fn check_header(&mut self) -> io::Result<()> {
        let mut magic = [0u8; 4];
        self.inner.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "not an HMT1 trace"));
        }
        self.started = true;
        Ok(())
    }

    fn read_record(&mut self) -> io::Result<Option<TraceRecord>> {
        if !self.started {
            self.check_header()?;
        }
        let Some(delta) = read_varint(&mut self.inner)? else {
            return Ok(None);
        };
        let line = read_varint(&mut self.inner)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "truncated record"))?;
        if line > MAX_LINE {
            return Err(line_out_of_range(io::ErrorKind::InvalidData, line));
        }
        let mut flags = [0u8; 1];
        self.inner.read_exact(&mut flags)?;
        self.tick = self
            .tick
            .checked_add(delta)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "tick overflows 64 bits"))?;
        Ok(Some(TraceRecord {
            tick: self.tick,
            cpu: flags[0] & 0x7f,
            addr: PhysAddr(line << 6),
            is_write: flags[0] & 0x80 != 0,
        }))
    }
}

impl<R: Read> Iterator for BinaryTraceReader<R> {
    type Item = io::Result<TraceRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{workload, WorkloadId};
    use hmm_sim_base::config::SimScale;

    fn sample(n: usize) -> Vec<TraceRecord> {
        workload(WorkloadId::Pgbench, &SimScale { divisor: 256 }).records(7, n)
    }

    #[test]
    fn binary_round_trip() {
        let recs = sample(5_000);
        let mut buf = Vec::new();
        let written = write_binary(&mut buf, recs.iter().copied()).unwrap();
        assert_eq!(written, 5_000);
        let back: Vec<TraceRecord> =
            BinaryTraceReader::new(&buf[..]).collect::<io::Result<_>>().unwrap();
        // Addresses are stored at line granularity; everything else exact.
        assert_eq!(back.len(), recs.len());
        for (a, b) in recs.iter().zip(&back) {
            assert_eq!(a.tick, b.tick);
            assert_eq!(a.cpu, b.cpu);
            assert_eq!(a.is_write, b.is_write);
            assert_eq!(a.addr.0 & !63, b.addr.0);
        }
    }

    #[test]
    fn binary_is_compact() {
        let recs = sample(10_000);
        let mut buf = Vec::new();
        write_binary(&mut buf, recs.iter().copied()).unwrap();
        let per_record = buf.len() as f64 / recs.len() as f64;
        assert!(per_record < 10.0, "expected <10 B/record, got {per_record:.1}");
    }

    #[test]
    fn binary_rejects_wrong_magic() {
        let buf = b"NOPE_____";
        let out: io::Result<Vec<TraceRecord>> = BinaryTraceReader::new(&buf[..]).collect();
        assert!(out.is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let recs = sample(10);
        let mut buf = Vec::new();
        write_binary(&mut buf, recs.iter().copied()).unwrap();
        buf.truncate(buf.len() - 1);
        let out: io::Result<Vec<TraceRecord>> = BinaryTraceReader::new(&buf[..]).collect();
        assert!(out.is_err());
    }

    #[test]
    fn varint_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut &buf[..]).unwrap(), Some(v));
        }
    }
}
