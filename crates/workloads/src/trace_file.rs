//! Binary trace files: record a workload's event log once, replay it many
//! times (or on another machine configuration).
//!
//! The format mirrors the atom segment's philosophy (§3.5.2): magic +
//! version header, forward-compatibly versioned, with atom attributes
//! encoded by the exact same codec the segment uses
//! ([`xmem_core::segment::encode_attrs`]).

use crate::sink::TraceEvent;
use cpu_sim::trace::Op;
use std::io::{self, Read, Write};
use xmem_core::atom::AtomId;
use xmem_core::segment::{decode_attrs_bytes, encode_attrs};

/// Magic bytes of a trace file.
pub const TRACE_MAGIC: &[u8; 8] = b"XMEMTRC\0";

/// Format version written (and highest read).
///
/// v2 added the shared-segment events (`CreateShared`/`AllocShared`).
pub const TRACE_VERSION: u32 = 2;

const TAG_COMPUTE: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_LOAD_DEP: u8 = 2;
const TAG_STORE: u8 = 3;
const TAG_CREATE: u8 = 4;
const TAG_ALLOC: u8 = 5;
const TAG_MAP: u8 = 6;
const TAG_UNMAP: u8 = 7;
const TAG_MAP2D: u8 = 8;
const TAG_UNMAP2D: u8 = 9;
const TAG_ACTIVATE: u8 = 10;
const TAG_DEACTIVATE: u8 = 11;
const TAG_CREATE_SHARED: u8 = 12;
const TAG_ALLOC_SHARED: u8 = 13;

/// Encoded size of the smallest event (`Activate`/`Deactivate`: tag + atom).
const MIN_EVENT_BYTES: usize = 2;

/// Writes `events` as a trace to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(events: &[TraceEvent], mut w: W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(events.len() * 10 + 16);
    buf.extend_from_slice(TRACE_MAGIC);
    buf.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    buf.extend_from_slice(&(events.len() as u64).to_le_bytes());
    for ev in events {
        match ev {
            TraceEvent::Op(Op::Compute(n)) => {
                buf.push(TAG_COMPUTE);
                buf.extend_from_slice(&n.to_le_bytes());
            }
            TraceEvent::Op(Op::Load { addr, dep }) => {
                buf.push(if *dep { TAG_LOAD_DEP } else { TAG_LOAD });
                buf.extend_from_slice(&addr.to_le_bytes());
            }
            TraceEvent::Op(Op::Store { addr }) => {
                buf.push(TAG_STORE);
                buf.extend_from_slice(&addr.to_le_bytes());
            }
            TraceEvent::Create { label, attrs } => {
                buf.push(TAG_CREATE);
                let bytes = label.as_bytes();
                buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                buf.extend_from_slice(bytes);
                encode_attrs(attrs, &mut buf);
            }
            TraceEvent::Alloc { bytes, atom, base } => {
                buf.push(TAG_ALLOC);
                buf.extend_from_slice(&bytes.to_le_bytes());
                buf.push(atom.map(|a| a.raw()).unwrap_or(u8::MAX));
                buf.extend_from_slice(&base.to_le_bytes());
            }
            TraceEvent::Map { atom, start, len } => {
                buf.push(TAG_MAP);
                buf.push(atom.raw());
                buf.extend_from_slice(&start.to_le_bytes());
                buf.extend_from_slice(&len.to_le_bytes());
            }
            TraceEvent::Unmap { start, len } => {
                buf.push(TAG_UNMAP);
                buf.extend_from_slice(&start.to_le_bytes());
                buf.extend_from_slice(&len.to_le_bytes());
            }
            TraceEvent::Map2d {
                atom,
                base,
                size_x,
                size_y,
                len_x,
            } => {
                buf.push(TAG_MAP2D);
                buf.push(atom.raw());
                for v in [*base, *size_x, *size_y, *len_x] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            TraceEvent::Unmap2d {
                base,
                size_x,
                size_y,
                len_x,
            } => {
                buf.push(TAG_UNMAP2D);
                for v in [*base, *size_x, *size_y, *len_x] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            TraceEvent::Activate(a) => {
                buf.push(TAG_ACTIVATE);
                buf.push(a.raw());
            }
            TraceEvent::Deactivate(a) => {
                buf.push(TAG_DEACTIVATE);
                buf.push(a.raw());
            }
            TraceEvent::CreateShared { key, label, attrs } => {
                buf.push(TAG_CREATE_SHARED);
                buf.extend_from_slice(&key.to_le_bytes());
                let bytes = label.as_bytes();
                buf.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                buf.extend_from_slice(bytes);
                encode_attrs(attrs, &mut buf);
            }
            TraceEvent::AllocShared {
                key,
                bytes,
                atom,
                base,
            } => {
                buf.push(TAG_ALLOC_SHARED);
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(&bytes.to_le_bytes());
                buf.push(atom.map(|a| a.raw()).unwrap_or(u8::MAX));
                buf.extend_from_slice(&base.to_le_bytes());
            }
        }
    }
    w.write_all(&buf)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(bad("truncated trace"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> io::Result<u16> {
        // simlint: allow(unwrap, reason = "take(2) yields exactly 2 bytes; the slice-to-array conversion is infallible")
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> io::Result<u32> {
        // simlint: allow(unwrap, reason = "take(4) yields exactly 4 bytes; the slice-to-array conversion is infallible")
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> io::Result<u64> {
        // simlint: allow(unwrap, reason = "take(8) yields exactly 8 bytes; the slice-to-array conversion is infallible")
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// The recorded VA an event touches, if any: an op's address or the start
/// of a map/unmap range.
fn event_va(ev: &TraceEvent) -> Option<u64> {
    match *ev {
        TraceEvent::Op(Op::Load { addr, .. } | Op::Store { addr }) => Some(addr),
        TraceEvent::Map { start, .. } | TraceEvent::Unmap { start, .. } => Some(start),
        TraceEvent::Map2d { base, .. } | TraceEvent::Unmap2d { base, .. } => Some(base),
        _ => None,
    }
}

/// Reads a trace previously written by [`write_trace`].
///
/// Every address an event touches (see `event_va`) must lie in an
/// `Alloc`/`AllocShared` range recorded before it, page-rounded as
/// [`VaRanges::insert`] rounds it: [`replay`] has nowhere to send any other
/// address.
///
/// # Errors
///
/// I/O errors from the reader, or `InvalidData` for corrupt/newer-version
/// traces and for an address outside every earlier allocation.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<Vec<TraceEvent>> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let mut c = Cursor {
        bytes: &bytes,
        pos: 0,
    };
    if c.take(8)? != TRACE_MAGIC {
        return Err(bad("not a trace file"));
    }
    let version = c.u32()?;
    if version > TRACE_VERSION {
        return Err(bad("trace version newer than supported"));
    }
    let count = c.u64()? as usize;
    let mut events = Vec::with_capacity(count.min((bytes.len() - c.pos) / MIN_EVENT_BYTES));
    let mut ranges = VaRanges::new();
    for i in 0..count {
        let tag = c.u8()?;
        let ev = match tag {
            TAG_COMPUTE => TraceEvent::Op(Op::Compute(c.u32()?)),
            TAG_LOAD => TraceEvent::Op(Op::load(c.u64()?)),
            TAG_LOAD_DEP => TraceEvent::Op(Op::load_dep(c.u64()?)),
            TAG_STORE => TraceEvent::Op(Op::store(c.u64()?)),
            TAG_CREATE => {
                let len = c.u16()? as usize;
                let label = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| bad("label not utf-8"))?
                    .to_owned();
                let (attrs, used) =
                    decode_attrs_bytes(&c.bytes[c.pos..]).map_err(|e| bad(&e.to_string()))?;
                c.pos += used;
                TraceEvent::Create { label, attrs }
            }
            TAG_ALLOC => {
                let bytes = c.u64()?;
                let raw = c.u8()?;
                let atom = (raw != u8::MAX).then(|| AtomId::new(raw));
                let base = c.u64()?;
                TraceEvent::Alloc { bytes, atom, base }
            }
            TAG_MAP => TraceEvent::Map {
                atom: AtomId::new(c.u8()?),
                start: c.u64()?,
                len: c.u64()?,
            },
            TAG_UNMAP => TraceEvent::Unmap {
                start: c.u64()?,
                len: c.u64()?,
            },
            TAG_MAP2D => TraceEvent::Map2d {
                atom: AtomId::new(c.u8()?),
                base: c.u64()?,
                size_x: c.u64()?,
                size_y: c.u64()?,
                len_x: c.u64()?,
            },
            TAG_UNMAP2D => TraceEvent::Unmap2d {
                base: c.u64()?,
                size_x: c.u64()?,
                size_y: c.u64()?,
                len_x: c.u64()?,
            },
            TAG_ACTIVATE => TraceEvent::Activate(AtomId::new(c.u8()?)),
            TAG_DEACTIVATE => TraceEvent::Deactivate(AtomId::new(c.u8()?)),
            TAG_CREATE_SHARED => {
                let key = c.u64()?;
                let len = c.u16()? as usize;
                let label = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| bad("label not utf-8"))?
                    .to_owned();
                let (attrs, used) =
                    decode_attrs_bytes(&c.bytes[c.pos..]).map_err(|e| bad(&e.to_string()))?;
                c.pos += used;
                TraceEvent::CreateShared { key, label, attrs }
            }
            TAG_ALLOC_SHARED => {
                let key = c.u64()?;
                let bytes = c.u64()?;
                let raw = c.u8()?;
                let atom = (raw != u8::MAX).then(|| AtomId::new(raw));
                let base = c.u64()?;
                TraceEvent::AllocShared {
                    key,
                    bytes,
                    atom,
                    base,
                }
            }
            other => return Err(bad(&format!("unknown event tag {other}"))),
        };
        match ev {
            TraceEvent::Alloc { bytes, base, .. } | TraceEvent::AllocShared { bytes, base, .. } => {
                if bytes.checked_next_multiple_of(4096).is_none() {
                    return Err(bad(&format!(
                        "event {i}: allocation of {bytes} bytes overflows page rounding"
                    )));
                }
                ranges.insert(base, bytes, base);
            }
            _ => {
                if let Some(va) = event_va(&ev).filter(|&va| ranges.lookup(va).is_none()) {
                    return Err(bad(&format!(
                        "event {i}: VA {va:#x} lies outside every earlier allocation"
                    )));
                }
            }
        }
        events.push(ev);
    }
    Ok(events)
}

/// The recorded → actual address table of one replayed log: one range per
/// replayed allocation, page-rounded as the allocators round them, kept
/// sorted by recorded base.
#[derive(Debug, Clone, Default)]
pub struct VaRanges {
    /// `(recorded base, len, actual base)`, sorted by recorded base.
    ranges: Vec<(u64, u64, u64)>,
}

impl VaRanges {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the `bytes` allocated at `recorded` in the log now live
    /// at `actual`.
    pub fn insert(&mut self, recorded: u64, bytes: u64, actual: u64) {
        let entry = (recorded, bytes.next_multiple_of(4096).max(4096), actual);
        let i = self.ranges.partition_point(|r| *r < entry);
        self.ranges.insert(i, entry);
    }

    /// The actual address of recorded address `va`, or `None` when no
    /// range holds it.
    #[inline]
    pub fn lookup(&self, va: u64) -> Option<u64> {
        let i = self.ranges.partition_point(|&(base, _, _)| base <= va);
        let (base, len, actual) = *self.ranges.get(i.checked_sub(1)?)?;
        (va - base < len).then(|| actual + (va - base))
    }
}

/// Replays a recorded trace into a sink, re-binding allocations.
///
/// Recorded `Alloc` events are re-executed through the sink (whose allocator
/// may return different base addresses); every subsequent address is
/// translated from the recorded address space to the actual one.
///
/// # Panics
///
/// Panics on an address outside every earlier recorded allocation, which
/// [`read_trace`] never returns.
pub fn replay(events: &[TraceEvent], sink: &mut dyn crate::sink::TraceSink) {
    let mut ranges = VaRanges::new();
    let translate = |ranges: &VaRanges, va: u64| {
        ranges
            .lookup(va)
            .unwrap_or_else(|| panic!("replayed trace: unallocated VA {va:#x}"))
    };
    for ev in events {
        match ev {
            TraceEvent::Op(Op::Compute(n)) => sink.compute(*n),
            TraceEvent::Op(Op::Load { addr, dep }) => {
                let a = translate(&ranges, *addr);
                if *dep {
                    sink.load_dep(a)
                } else {
                    sink.load(a)
                }
            }
            TraceEvent::Op(Op::Store { addr }) => sink.store(translate(&ranges, *addr)),
            TraceEvent::Create { label, attrs } => {
                let _ = sink.create_atom(label, attrs.clone());
            }
            TraceEvent::Alloc { bytes, atom, base } => {
                let actual = sink.alloc(*bytes, *atom);
                ranges.insert(*base, *bytes, actual);
            }
            TraceEvent::Map { atom, start, len } => {
                sink.map(*atom, translate(&ranges, *start), *len)
            }
            TraceEvent::Unmap { start, len } => sink.unmap(translate(&ranges, *start), *len),
            TraceEvent::Map2d {
                atom,
                base,
                size_x,
                size_y,
                len_x,
            } => sink.map_2d(*atom, translate(&ranges, *base), *size_x, *size_y, *len_x),
            TraceEvent::Unmap2d {
                base,
                size_x,
                size_y,
                len_x,
            } => sink.unmap_2d(translate(&ranges, *base), *size_x, *size_y, *len_x),
            TraceEvent::Activate(a) => sink.activate(*a),
            TraceEvent::Deactivate(a) => sink.deactivate(*a),
            TraceEvent::CreateShared { key, label, attrs } => {
                let _ = sink.create_atom_shared(*key, label, attrs.clone());
            }
            TraceEvent::AllocShared {
                key,
                bytes,
                atom,
                base,
            } => {
                let actual = sink.alloc_shared(*key, *bytes, *atom);
                ranges.insert(*base, *bytes, actual);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::polybench::{KernelParams, PolybenchKernel};
    use crate::sink::LogSink;

    fn sample_log() -> Vec<TraceEvent> {
        let mut log = LogSink::new();
        PolybenchKernel::Gemm.generate(
            &KernelParams {
                n: 16,
                tile_bytes: 1024,
                steps: 1,
                reuse: 99,
            },
            &mut log,
        );
        log.into_events()
    }

    #[test]
    fn roundtrip_kernel_trace() {
        let events = sample_log();
        let mut buf = Vec::new();
        write_trace(&events, &mut buf).unwrap();
        let parsed = read_trace(&buf[..]).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(read_trace(&b"garbage!"[..]).is_err());
        let events = sample_log();
        let mut buf = Vec::new();
        write_trace(&events, &mut buf).unwrap();
        let cut = buf.len() / 2;
        assert!(read_trace(&buf[..cut]).is_err());
    }

    #[test]
    fn rejects_future_version() {
        let mut buf = Vec::new();
        write_trace(&[], &mut buf).unwrap();
        buf[8..12].copy_from_slice(&(TRACE_VERSION + 1).to_le_bytes());
        assert!(read_trace(&buf[..]).is_err());
    }

    #[test]
    fn replay_reproduces_behaviour() {
        let events = sample_log();
        let mut sink = LogSink::new();
        replay(&events, &mut sink);
        // Same op count and same relative access structure.
        let original_ops = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Op(_)))
            .count();
        assert_eq!(sink.ops().count(), original_ops);
    }

    /// Two ranges: one page recorded at 0x1000 living at 0x9000, and two
    /// pages recorded at 0x4000 living at 0x20000.
    fn two_ranges() -> VaRanges {
        let mut r = VaRanges::new();
        r.insert(0x4000, 5000, 0x20000);
        r.insert(0x1000, 1, 0x9000);
        r
    }

    #[test]
    fn va_ranges_translate_inside_a_range() {
        let r = two_ranges();
        assert_eq!(r.lookup(0x1000), Some(0x9000), "va == base");
        assert_eq!(r.lookup(0x1fff), Some(0x9fff), "base + len - 1");
        assert_eq!(r.lookup(0x4000), Some(0x20000));
        assert_eq!(r.lookup(0x5fff), Some(0x21fff), "rounded up to pages");
    }

    #[test]
    fn va_ranges_miss_outside_every_range() {
        let r = two_ranges();
        assert_eq!(r.lookup(0x2000), None, "base + len");
        assert_eq!(r.lookup(0xfff), None, "below the first range");
        assert_eq!(r.lookup(0), None);
        assert_eq!(r.lookup(0x3000), None, "between two ranges");
        assert_eq!(r.lookup(0x6000), None, "past the last range");
        assert_eq!(VaRanges::new().lookup(0x1000), None, "empty table");
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace(&[], &mut buf).unwrap();
        assert_eq!(read_trace(&buf[..]).unwrap(), Vec::<TraceEvent>::new());
    }

    /// One event of every kind (every tag, v2's 12 and 13 included), each
    /// address inside an allocation recorded before it.
    fn all_event_kinds() -> Vec<TraceEvent> {
        use xmem_core::attrs::AtomAttributes;
        vec![
            TraceEvent::Op(Op::Compute(7)),
            TraceEvent::Create {
                label: "x".into(),
                attrs: AtomAttributes::default(),
            },
            TraceEvent::Alloc {
                bytes: 4096,
                atom: Some(AtomId::new(3)),
                base: 0x10000,
            },
            TraceEvent::Alloc {
                bytes: 64,
                atom: None,
                base: 0x20000,
            },
            TraceEvent::Op(Op::load(0x10ABC)),
            TraceEvent::Op(Op::load_dep(0x10234)),
            TraceEvent::Op(Op::store(0x20FF8)),
            TraceEvent::Map {
                atom: AtomId::new(3),
                start: 0x10000,
                len: 4096,
            },
            TraceEvent::Map2d {
                atom: AtomId::new(3),
                base: 0x10040,
                size_x: 2,
                size_y: 3,
                len_x: 4,
            },
            TraceEvent::Unmap2d {
                base: 0x10040,
                size_x: 2,
                size_y: 3,
                len_x: 4,
            },
            TraceEvent::Activate(AtomId::new(3)),
            TraceEvent::Deactivate(AtomId::new(3)),
            TraceEvent::Unmap {
                start: 0x10000,
                len: 4096,
            },
            TraceEvent::CreateShared {
                key: 42,
                label: "shared".into(),
                attrs: AtomAttributes::default(),
            },
            TraceEvent::AllocShared {
                key: 42,
                bytes: 8192,
                atom: Some(AtomId::new(4)),
                base: 0x30000,
            },
            TraceEvent::Op(Op::store(0x31FC0)),
        ]
    }

    fn encode(events: &[TraceEvent]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(events, &mut buf).unwrap();
        buf
    }

    #[test]
    fn all_event_kinds_roundtrip() {
        let events = all_event_kinds();
        assert_eq!(read_trace(&encode(&events)[..]).unwrap(), events);
    }

    /// One log from each generator family round-trips: every address a
    /// generator emits lies inside one of its own allocations.
    #[test]
    fn every_generator_family_roundtrips() {
        use crate::placement::PlacementWorkload;
        use crate::shared::{lock_counter, producer_consumer, read_mostly_reader, PcRole};
        use xmem_core::attrs::Reuse;
        let record = |generate: &dyn Fn(&mut LogSink)| {
            let mut log = LogSink::new();
            generate(&mut log);
            log.into_events()
        };
        let mut mix = PlacementWorkload::by_name("mcf").unwrap();
        mix.accesses = 2_000;
        let logs = [
            ("polybench", sample_log()),
            ("placement", record(&|s| mix.generate(s))),
            (
                "stream_hog",
                record(&|s| crate::stream_hog(s, 64 << 10, 500, 2)),
            ),
            (
                "random_hog",
                record(&|s| crate::random_hog(s, 64 << 10, 500, 2)),
            ),
            (
                "producer",
                record(&|s| producer_consumer(s, PcRole::Producer, 8192, 2, 1, Reuse(200))),
            ),
            (
                "consumer",
                record(&|s| producer_consumer(s, PcRole::Consumer, 8192, 2, 1, Reuse(200))),
            ),
            (
                "reader",
                record(&|s| read_mostly_reader(s, 1, 8192, 100, 1, Reuse(200))),
            ),
            ("lock_counter", record(&|s| lock_counter(s, 50, 2))),
        ];
        for (name, events) in logs {
            assert_eq!(read_trace(&encode(&events)[..]).unwrap(), events, "{name}");
        }
    }

    /// A load outside every allocation would alias the first real
    /// allocation on replay (`LogSink` records from 1 MiB, `Os::malloc`
    /// hands out from 4 KiB), so reading must reject it.
    #[test]
    fn stray_address_is_rejected() {
        let mut events = sample_log();
        let at = events.len() / 2;
        events.insert(at, TraceEvent::Op(Op::load(0x1000)));
        let err = read_trace(&encode(&events)[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("event {at}")) && msg.contains("0x1000"),
            "{msg}"
        );
        // Before the allocation it belongs to, an address is stray too.
        let early = [
            TraceEvent::Op(Op::store(0x10000)),
            all_event_kinds()[2].clone(),
        ];
        assert!(read_trace(&encode(&early)[..]).is_err());
        let map = [TraceEvent::Unmap {
            start: 0x5000,
            len: 64,
        }];
        assert!(read_trace(&encode(&map)[..]).is_err());
        // A size that page rounding would overflow is an error, not a panic.
        let huge = [TraceEvent::Alloc {
            bytes: u64::MAX,
            atom: None,
            base: 0x10000,
        }];
        assert!(read_trace(&encode(&huge)[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "unallocated VA 0x1000")]
    fn replay_panics_on_a_stray_address() {
        replay(&[TraceEvent::Op(Op::load(0x1000))], &mut LogSink::new());
    }

    /// Mutation fuzz: seeded byte flips and truncations of valid traces
    /// (every tag, v2's shared events included) return `Ok` or `Err`,
    /// never a panic.
    #[test]
    fn mutated_traces_never_panic() {
        use xmem_core::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x7ACE);
        let mut shared = LogSink::new();
        crate::shared::lock_counter(&mut shared, 20, 1);
        for valid in [
            encode(&all_event_kinds()),
            encode(&shared.into_events()),
            encode(&sample_log()[..400]),
        ] {
            for _ in 0..400 {
                let mut buf = valid.clone();
                for _ in 0..rng.range(1, 5) {
                    let at = rng.below(buf.len() as u64) as usize;
                    buf[at] ^= rng.range(1, 256) as u8;
                }
                if rng.percent(30) {
                    buf.truncate(rng.below(buf.len() as u64 + 1) as usize);
                }
                let _ = read_trace(&buf[..]);
            }
        }
    }
}
