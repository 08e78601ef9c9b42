//! The atom segment of a program binary (§3.5.2 of the paper).
//!
//! At compile time, the compiler summarizes all statically created atoms into
//! a table stored in a dedicated *atom segment* of the object file. At load
//! time the OS reads the segment into the [GAT](crate::gat). The segment
//! carries a **version identifier** so the information format can evolve
//! across architecture generations: newer formats are simply ignored by older
//! systems (hints only — skipping them is always safe), and older formats
//! remain parseable forever.
//!
//! The encoding is a small hand-rolled binary format (magic, version, count,
//! then one record per atom) so that the versioning story is explicit and
//! testable.

use crate::atom::{AtomId, StaticAtom};
use crate::attrs::{
    AccessIntensity, AccessPattern, AtomAttributes, DataProps, DataType, Reuse, RwChar,
};
use crate::error::{Result, XMemError};

/// Magic bytes identifying an atom segment.
pub const SEGMENT_MAGIC: &[u8; 8] = b"XMEMATOM";

/// The format version this implementation writes and the highest it reads.
pub const SEGMENT_VERSION: u32 = 1;

/// The compile-time summary of a program's atoms.
///
/// # Examples
///
/// ```
/// use xmem_core::segment::AtomSegment;
/// use xmem_core::atom::{AtomId, StaticAtom};
/// use xmem_core::attrs::AtomAttributes;
///
/// let mut seg = AtomSegment::new();
/// seg.push(StaticAtom::new(AtomId::new(0), "table", AtomAttributes::default()));
/// let bytes = seg.to_bytes();
/// let parsed = AtomSegment::from_bytes(&bytes)?;
/// assert_eq!(parsed.atoms().len(), 1);
/// # Ok::<(), xmem_core::error::XMemError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AtomSegment {
    atoms: Vec<StaticAtom>,
}

impl AtomSegment {
    /// Creates an empty segment.
    pub fn new() -> Self {
        AtomSegment { atoms: Vec::new() }
    }

    /// Appends an atom record.
    pub fn push(&mut self, atom: StaticAtom) {
        self.atoms.push(atom);
    }

    /// The atom records in creation order.
    pub fn atoms(&self) -> &[StaticAtom] {
        &self.atoms
    }

    /// Serializes the segment to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.atoms.len() * 40);
        out.extend_from_slice(SEGMENT_MAGIC);
        out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.atoms.len() as u32).to_le_bytes());
        for atom in &self.atoms {
            out.push(atom.id().raw());
            let label = atom.label().as_bytes();
            out.extend_from_slice(&(label.len() as u16).to_le_bytes());
            out.extend_from_slice(label);
            encode_attrs(atom.attrs(), &mut out);
        }
        out
    }

    /// Parses a segment from bytes.
    ///
    /// # Errors
    ///
    /// * [`XMemError::UnsupportedSegmentVersion`] for formats newer than
    ///   [`SEGMENT_VERSION`] — callers may treat this as "no hints".
    /// * [`XMemError::MalformedSegment`] for truncated or corrupt data.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader { bytes, pos: 0 };
        let magic = r.take(8)?;
        if magic != SEGMENT_MAGIC {
            return Err(XMemError::MalformedSegment("bad magic".into()));
        }
        let version = r.u32()?;
        if version > SEGMENT_VERSION {
            return Err(XMemError::UnsupportedSegmentVersion {
                found: version,
                supported: SEGMENT_VERSION,
            });
        }
        let count = r.u32()? as usize;
        if count > AtomId::MAX_ATOMS {
            return Err(XMemError::MalformedSegment(format!(
                "atom count {count} exceeds maximum"
            )));
        }
        let mut atoms = Vec::with_capacity(count);
        for _ in 0..count {
            let id = AtomId::new(r.u8()?);
            let label_len = r.u16()? as usize;
            let label = std::str::from_utf8(r.take(label_len)?)
                .map_err(|_| XMemError::MalformedSegment("label not utf-8".into()))?
                .to_owned();
            let attrs = decode_attrs(&mut r)?;
            atoms.push(StaticAtom::new(id, label, attrs));
        }
        Ok(AtomSegment { atoms })
    }
}

/// Encodes one attribute record in the segment's binary format (public so
/// other serializers — e.g. trace files — reuse the exact same encoding).
pub fn encode_attrs(attrs: &AtomAttributes, out: &mut Vec<u8>) {
    out.push(match attrs.data_type() {
        None => 0xFF,
        Some(DataType::Int8) => 0,
        Some(DataType::Int16) => 1,
        Some(DataType::Int32) => 2,
        Some(DataType::Int64) => 3,
        Some(DataType::Float32) => 4,
        Some(DataType::Float64) => 5,
        Some(DataType::Char8) => 6,
        Some(DataType::Other) => 7,
    });
    out.extend_from_slice(&attrs.props().bits().to_le_bytes());
    let (tag, stride) = match attrs.access_pattern() {
        AccessPattern::Regular { stride } => (0u8, stride),
        AccessPattern::Irregular => (1, 0),
        AccessPattern::NonDet => (2, 0),
    };
    out.push(tag);
    out.extend_from_slice(&stride.to_le_bytes());
    out.push(match attrs.rw() {
        RwChar::ReadOnly => 0,
        RwChar::ReadWrite => 1,
        RwChar::WriteOnly => 2,
    });
    out.push(attrs.intensity().0);
    out.push(attrs.reuse().0);
}

/// Decodes one attribute record, returning it and the bytes consumed.
///
/// # Errors
///
/// Returns [`XMemError::MalformedSegment`] on truncated or invalid input.
pub fn decode_attrs_bytes(bytes: &[u8]) -> Result<(AtomAttributes, usize)> {
    let mut r = Reader { bytes, pos: 0 };
    let attrs = decode_attrs(&mut r)?;
    Ok((attrs, r.pos))
}

fn decode_attrs(r: &mut Reader<'_>) -> Result<AtomAttributes> {
    let mut b = AtomAttributes::builder();
    let dt = r.u8()?;
    if dt != 0xFF {
        b = b.data_type(match dt {
            0 => DataType::Int8,
            1 => DataType::Int16,
            2 => DataType::Int32,
            3 => DataType::Int64,
            4 => DataType::Float32,
            5 => DataType::Float64,
            6 => DataType::Char8,
            7 => DataType::Other,
            other => {
                return Err(XMemError::MalformedSegment(format!(
                    "unknown data type tag {other}"
                )))
            }
        });
    }
    b = b.props(DataProps::from_bits(r.u32()?));
    let tag = r.u8()?;
    let stride = r.i64()?;
    b = b.access_pattern(match tag {
        0 => AccessPattern::Regular { stride },
        1 => AccessPattern::Irregular,
        2 => AccessPattern::NonDet,
        other => {
            return Err(XMemError::MalformedSegment(format!(
                "unknown pattern tag {other}"
            )))
        }
    });
    b = b.rw(match r.u8()? {
        0 => RwChar::ReadOnly,
        1 => RwChar::ReadWrite,
        2 => RwChar::WriteOnly,
        other => {
            return Err(XMemError::MalformedSegment(format!(
                "unknown rw tag {other}"
            )))
        }
    });
    b = b.intensity(AccessIntensity(r.u8()?));
    b = b.reuse(Reuse(r.u8()?));
    Ok(b.build())
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(XMemError::MalformedSegment("unexpected end".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        // simlint: allow(unwrap, reason = "take(2) yields exactly 2 bytes; the slice-to-array conversion is infallible")
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32> {
        // simlint: allow(unwrap, reason = "take(4) yields exactly 4 bytes; the slice-to-array conversion is infallible")
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64> {
        // simlint: allow(unwrap, reason = "take(8) yields exactly 8 bytes; the slice-to-array conversion is infallible")
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment() -> AtomSegment {
        let mut seg = AtomSegment::new();
        seg.push(StaticAtom::new(
            AtomId::new(0),
            "matrix_a",
            AtomAttributes::builder()
                .data_type(DataType::Float64)
                .access_pattern(AccessPattern::sequential(8))
                .reuse(Reuse(200))
                .build(),
        ));
        seg.push(StaticAtom::new(
            AtomId::new(1),
            "edges",
            AtomAttributes::builder()
                .data_type(DataType::Int32)
                .props(DataProps::INDEX | DataProps::SPARSE)
                .access_pattern(AccessPattern::Irregular)
                .rw(RwChar::ReadOnly)
                .intensity(AccessIntensity(90))
                .build(),
        ));
        seg
    }

    #[test]
    fn roundtrip() {
        let seg = sample_segment();
        let parsed = AtomSegment::from_bytes(&seg.to_bytes()).unwrap();
        assert_eq!(parsed, seg);
    }

    #[test]
    fn bad_magic() {
        let err = AtomSegment::from_bytes(b"NOTMAGIC\x01\x00\x00\x00").unwrap_err();
        assert!(matches!(err, XMemError::MalformedSegment(_)));
    }

    #[test]
    fn newer_version_rejected_gracefully() {
        let mut bytes = sample_segment().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let err = AtomSegment::from_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            XMemError::UnsupportedSegmentVersion {
                found: 99,
                supported: SEGMENT_VERSION
            }
        );
    }

    #[test]
    fn truncated_is_malformed() {
        let bytes = sample_segment().to_bytes();
        for cut in [4, 12, 20, bytes.len() - 1] {
            let err = AtomSegment::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, XMemError::MalformedSegment(_)),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn unknown_future_props_bits_roundtrip() {
        // A future writer sets property bits we don't know: they survive.
        let mut seg = AtomSegment::new();
        seg.push(StaticAtom::new(
            AtomId::new(0),
            "x",
            AtomAttributes::builder()
                .props(DataProps::from_bits(0xF000_0000))
                .build(),
        ));
        let parsed = AtomSegment::from_bytes(&seg.to_bytes()).unwrap();
        assert_eq!(parsed.atoms()[0].attrs().props().bits(), 0xF000_0000);
    }

    /// SplitMix64 mutation fuzz: byte flips, insertions, deletions and
    /// truncations of a valid segment decode to a segment or an error,
    /// never a panic.
    #[test]
    fn mutated_segments_never_panic() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x5E6);
        let valid = sample_segment().to_bytes();
        for _ in 0..4000 {
            let mut buf = valid.clone();
            for _ in 0..rng.range(1, 5) {
                let at = rng.below(buf.len() as u64) as usize;
                match rng.below(3) {
                    0 => buf[at] ^= rng.range(1, 256) as u8,
                    1 => buf.insert(at, rng.below(256) as u8),
                    _ => {
                        buf.remove(at);
                    }
                }
            }
            if rng.percent(30) {
                buf.truncate(rng.below(buf.len() as u64 + 1) as usize);
            }
            let _ = AtomSegment::from_bytes(&buf);
        }
    }

    #[test]
    fn empty_segment_roundtrip() {
        let seg = AtomSegment::new();
        let parsed = AtomSegment::from_bytes(&seg.to_bytes()).unwrap();
        assert!(parsed.atoms().is_empty());
    }
}
