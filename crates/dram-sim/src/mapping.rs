//! Physical-address → DRAM-location mapping schemes.
//!
//! How physical addresses spread over channels, ranks, banks, rows, and
//! columns determines both row-buffer locality and bank-level parallelism —
//! the two quantities use case 2 of the paper optimizes. DRAMSim2 ships
//! seven orderings; the paper's strengthened baseline additionally considers
//! the permutation-based (bank-XOR) mappings of Zhang et al. \[106\] and the
//! minimalist-open-page style mapping \[107\]. We implement the same space:
//! seven field orderings plus an optional bank-XOR permutation on any of
//! them.
//!
//! A mapping is an ordering of the five fields from least-significant to
//! most-significant address bits (above the cache-line offset). The row
//! field always absorbs the remaining high bits when it is the most
//! significant field; otherwise it uses a fixed width.

use crate::config::DramConfig;
use xmem_core::addr::addr_to_index;

/// One of the five DRAM coordinate fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// Channel select.
    Channel,
    /// Rank select.
    Rank,
    /// Bank select.
    Bank,
    /// Row select.
    Row,
    /// Column (cache-line within the row) select.
    Column,
}

/// A decoded DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line) index within the row.
    pub col: u64,
}

impl DramLocation {
    /// Flattened bank index across the whole system.
    pub fn global_bank(&self, cfg: &DramConfig) -> usize {
        (self.channel * cfg.ranks + self.rank) * cfg.banks + self.bank
    }
}

/// An address-mapping scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    /// Field order from LSB to MSB (above the line offset).
    order_lsb_to_msb: [Field; 5],
    /// XOR the bank index with the low row bits (permutation-based
    /// interleaving, Zhang et al.).
    bank_xor: bool,
    /// Short name for reports.
    name: &'static str,
}

impl AddressMapping {
    /// All nine mappings evaluated for the strengthened baseline of §6.3
    /// (seven orderings + two permutation-based variants).
    pub fn all_schemes() -> Vec<AddressMapping> {
        vec![
            Self::scheme1(),
            Self::scheme2(),
            Self::scheme3(),
            Self::scheme4(),
            Self::scheme5(),
            Self::scheme6(),
            Self::scheme7(),
            Self::scheme1().with_bank_xor("scheme1+xor"),
            Self::scheme2().with_bank_xor("scheme2+xor"),
        ]
    }

    /// `row:rank:bank:col:chan` — lines interleave across channels first,
    /// then columns: maximizes channel parallelism for sequential streams.
    pub fn scheme1() -> AddressMapping {
        AddressMapping {
            order_lsb_to_msb: [
                Field::Channel,
                Field::Column,
                Field::Bank,
                Field::Rank,
                Field::Row,
            ],
            bank_xor: false,
            name: "row:rank:bank:col:chan",
        }
    }

    /// `row:rank:bank:chan:col` — a row's worth of lines stays in one
    /// channel; channels interleave at row granularity.
    pub fn scheme2() -> AddressMapping {
        AddressMapping {
            order_lsb_to_msb: [
                Field::Column,
                Field::Channel,
                Field::Bank,
                Field::Rank,
                Field::Row,
            ],
            bank_xor: false,
            name: "row:rank:bank:col*:chan*",
        }
    }

    /// `row:col:rank:bank:chan` — banks interleave just above channels:
    /// sequential streams sweep all banks before moving within a row.
    pub fn scheme3() -> AddressMapping {
        AddressMapping {
            order_lsb_to_msb: [
                Field::Channel,
                Field::Bank,
                Field::Rank,
                Field::Column,
                Field::Row,
            ],
            bank_xor: false,
            name: "row:col:rank:bank:chan",
        }
    }

    /// `row:bank:rank:col:chan` — like scheme1 but ranks swap with banks.
    pub fn scheme4() -> AddressMapping {
        AddressMapping {
            order_lsb_to_msb: [
                Field::Channel,
                Field::Column,
                Field::Rank,
                Field::Bank,
                Field::Row,
            ],
            bank_xor: false,
            name: "row:bank:rank:col:chan",
        }
    }

    /// `chan:rank:bank:row:col` — fully bank-partitioned: consecutive
    /// addresses fill a whole bank row by row before moving on. This is the
    /// mapping that gives a single sequential stream perfect row locality
    /// (and no parallelism).
    pub fn scheme5() -> AddressMapping {
        AddressMapping {
            order_lsb_to_msb: [
                Field::Column,
                Field::Row,
                Field::Bank,
                Field::Rank,
                Field::Channel,
            ],
            bank_xor: false,
            name: "chan:rank:bank:row:col",
        }
    }

    /// `row:col:bank:rank:chan` — rank interleave below bank.
    pub fn scheme6() -> AddressMapping {
        AddressMapping {
            order_lsb_to_msb: [
                Field::Channel,
                Field::Rank,
                Field::Bank,
                Field::Column,
                Field::Row,
            ],
            bank_xor: false,
            name: "row:col:bank:rank:chan",
        }
    }

    /// `row:chan:col:rank:bank` — banks at the very bottom: consecutive
    /// lines hit different banks (maximal bank rotation).
    pub fn scheme7() -> AddressMapping {
        AddressMapping {
            order_lsb_to_msb: [
                Field::Bank,
                Field::Rank,
                Field::Column,
                Field::Channel,
                Field::Row,
            ],
            bank_xor: false,
            name: "row:chan:col:rank:bank",
        }
    }

    /// Returns a copy with permutation-based bank interleaving enabled
    /// (bank index XOR low row bits), renamed to `name`.
    pub fn with_bank_xor(mut self, name: &'static str) -> AddressMapping {
        self.bank_xor = true;
        self.name = name;
        self
    }

    /// The scheme's short name for reports.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Decodes a physical address into a DRAM location under `cfg`.
    pub fn decode(&self, addr: u64, cfg: &DramConfig) -> DramLocation {
        let line_bits = cfg.col_bytes.trailing_zeros();
        let mut rest = addr >> line_bits;

        let chan_bits = log2(cfg.channels as u64);
        let rank_bits = log2(cfg.ranks as u64);
        let bank_bits = log2(cfg.banks as u64);
        let col_bits = log2(cfg.row_bytes / cfg.col_bytes);

        let mut loc = DramLocation {
            channel: 0,
            rank: 0,
            bank: 0,
            row: 0,
            col: 0,
        };

        for (i, field) in self.order_lsb_to_msb.iter().enumerate() {
            let is_last = i == 4;
            match field {
                Field::Channel => {
                    loc.channel = addr_to_index(take(&mut rest, chan_bits));
                }
                Field::Rank => {
                    loc.rank = addr_to_index(take(&mut rest, rank_bits));
                }
                Field::Bank => {
                    loc.bank = addr_to_index(take(&mut rest, bank_bits));
                }
                Field::Column => {
                    loc.col = take(&mut rest, col_bits);
                }
                Field::Row => {
                    loc.row = if is_last {
                        std::mem::take(&mut rest)
                    } else {
                        take(&mut rest, cfg.row_bits)
                    };
                }
            }
        }

        if self.bank_xor && cfg.banks > 1 {
            let mask = (cfg.banks - 1) as u64;
            loc.bank = addr_to_index(loc.bank as u64 ^ (loc.row & mask));
        }
        loc
    }

    /// This mapping resolved against `cfg`: each field's shift and mask,
    /// computed once, so a [`Decoder::decode`] is five shift-and-mask steps
    /// where [`AddressMapping::decode`] walks the field order.
    pub fn decoder(&self, cfg: &DramConfig) -> Decoder {
        let widths = |field: Field, is_last: bool| match field {
            Field::Channel => log2(cfg.channels as u64),
            Field::Rank => log2(cfg.ranks as u64),
            Field::Bank => log2(cfg.banks as u64),
            Field::Column => log2(cfg.row_bytes / cfg.col_bytes),
            Field::Row if is_last => u64::BITS,
            Field::Row => cfg.row_bits,
        };
        let mut d = Decoder {
            channel: FieldBits::default(),
            rank: FieldBits::default(),
            bank: FieldBits::default(),
            row: FieldBits::default(),
            col: FieldBits::default(),
            xor_mask: if self.bank_xor && cfg.banks > 1 {
                (cfg.banks - 1) as u64
            } else {
                0
            },
        };
        let mut shift = cfg.col_bytes.trailing_zeros();
        for (i, &field) in self.order_lsb_to_msb.iter().enumerate() {
            let width = widths(field, i == 4);
            let bits = FieldBits {
                shift,
                mask: u64::MAX.checked_shr(u64::BITS - width).unwrap_or(0),
            };
            match field {
                Field::Channel => d.channel = bits,
                Field::Rank => d.rank = bits,
                Field::Bank => d.bank = bits,
                Field::Row => d.row = bits,
                Field::Column => d.col = bits,
            }
            shift += width;
        }
        d
    }
}

/// Where one field sits in an address: `(addr >> shift) & mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct FieldBits {
    shift: u32,
    mask: u64,
}

impl FieldBits {
    #[inline]
    fn of(self, addr: u64) -> u64 {
        addr.checked_shr(self.shift).unwrap_or(0) & self.mask
    }
}

/// An [`AddressMapping`] precomputed for one [`DramConfig`] (see
/// [`AddressMapping::decoder`]); decodes exactly as the mapping does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoder {
    channel: FieldBits,
    rank: FieldBits,
    bank: FieldBits,
    row: FieldBits,
    col: FieldBits,
    /// The bank-XOR mask (`banks - 1`), 0 when the mapping has none.
    xor_mask: u64,
}

impl Decoder {
    /// Decodes a physical address into a DRAM location.
    #[inline]
    pub fn decode(&self, addr: u64) -> DramLocation {
        let row = self.row.of(addr);
        DramLocation {
            channel: addr_to_index(self.channel.of(addr)),
            rank: addr_to_index(self.rank.of(addr)),
            bank: addr_to_index(self.bank.of(addr) ^ (row & self.xor_mask)),
            row,
            col: self.col.of(addr),
        }
    }
}

#[inline]
fn log2(n: u64) -> u32 {
    debug_assert!(n.is_power_of_two(), "DRAM geometry must be powers of two");
    n.trailing_zeros()
}

#[inline]
fn take(rest: &mut u64, bits: u32) -> u64 {
    let v = *rest & ((1u64 << bits) - 1);
    *rest >>= bits;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::default()
    }

    #[test]
    fn scheme1_interleaves_channels_per_line() {
        let m = AddressMapping::scheme1();
        let c = cfg();
        let a = m.decode(0, &c);
        let b = m.decode(64, &c);
        assert_ne!(a.channel, b.channel);
        assert_eq!(a.row, b.row);
    }

    #[test]
    fn scheme5_keeps_stream_in_one_bank() {
        let m = AddressMapping::scheme5();
        let c = cfg();
        // A full row of consecutive lines: same channel, same bank, same row.
        let first = m.decode(0, &c);
        for line in 1..(c.row_bytes / c.col_bytes) {
            let loc = m.decode(line * c.col_bytes, &c);
            assert_eq!(loc.channel, first.channel);
            assert_eq!(loc.bank, first.bank);
            assert_eq!(loc.row, first.row);
            assert_eq!(loc.col, line);
        }
        // The next line starts the next row of the same bank.
        let next = m.decode(c.row_bytes, &c);
        assert_eq!(next.bank, first.bank);
        assert_eq!(next.row, first.row + 1);
    }

    #[test]
    fn scheme7_rotates_banks_per_line() {
        let m = AddressMapping::scheme7();
        let c = cfg();
        let banks: Vec<usize> = (0..8).map(|i| m.decode(i * 64, &c).bank).collect();
        let unique: std::collections::HashSet<_> = banks.iter().collect();
        assert_eq!(unique.len(), 8, "all 8 banks touched: {banks:?}");
    }

    #[test]
    fn decode_is_injective_over_a_window() {
        // Distinct addresses must decode to distinct locations.
        let c = cfg();
        for m in AddressMapping::all_schemes() {
            let mut seen = std::collections::HashSet::new();
            for i in 0..4096u64 {
                let loc = m.decode(i * c.col_bytes, &c);
                assert!(
                    seen.insert((loc.channel, loc.rank, loc.bank, loc.row, loc.col)),
                    "collision under {} at line {i}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn bank_xor_differs_from_base_somewhere() {
        let c = cfg();
        let base = AddressMapping::scheme1();
        let xored = AddressMapping::scheme1().with_bank_xor("x");
        let differs = (0..1024u64).any(|i| {
            let addr = i * 64 * 8191; // scrambles low row bits
            let a = base.decode(addr, &c);
            let b = xored.decode(addr, &c);
            a.bank != b.bank
        });
        assert!(differs);
    }

    #[test]
    fn global_bank_is_dense() {
        let c = cfg();
        let m = AddressMapping::scheme3();
        let max = (0..65536u64)
            .map(|i| m.decode(i * 64, &c).global_bank(&c))
            .max()
            .unwrap();
        assert!(max < c.total_banks());
    }

    #[test]
    fn decoder_matches_the_field_walk() {
        let mut rng = xmem_core::rng::SplitMix64::new(0x0DEC);
        let configs = [
            cfg(),
            DramConfig::ddr3_1066(3.6).with_capacity(64 << 20),
            DramConfig {
                channels: 4,
                ranks: 2,
                banks: 16,
                ..DramConfig::default().with_capacity(1 << 30)
            },
        ];
        for c in configs {
            for m in AddressMapping::all_schemes() {
                let d = m.decoder(&c);
                for _ in 0..4096 {
                    let addr = rng.next_u64() >> (rng.next_u64() % 40);
                    assert_eq!(
                        d.decode(addr),
                        m.decode(addr, &c),
                        "{} at {addr:#x}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn all_schemes_have_distinct_names() {
        let names: std::collections::HashSet<_> = AddressMapping::all_schemes()
            .iter()
            .map(|m| m.name())
            .collect();
        assert_eq!(names.len(), 9);
    }
}
