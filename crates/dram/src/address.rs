//! Physical-address to DRAM-coordinate mapping.
//!
//! The paper's key software-architecture component is an address-mapping
//! scheme (Fig. 7) that stripes consecutive 64-byte blocks of an embedding
//! vector across TensorDIMMs so every NMP core works on its own slice of
//! every tensor concurrently. That node-level striping is
//! `tensordimm_analysis::lower_block_byte`; this module maps the address
//! that lowering leaves *inside* one DIMM (and a CPU channel's addresses)
//! to DRAM coordinates, as an ordered list of bit-fields peeled off a
//! physical address from least- to most-significant bit (above the 6-bit
//! intra-burst offset).

use crate::config::Geometry;
use crate::{DramError, ACCESS_BYTES};

/// A DRAM coordinate: which channel / rank / bank-group / bank / row / column
/// a physical address maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DramAddr {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank group within the rank.
    pub bank_group: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Column in 64-byte (burst) granularity.
    pub column: usize,
}

impl DramAddr {
    /// Flat bank index within a rank (`bank_group * banks_per_group + bank`).
    pub fn flat_bank(&self, banks_per_group: usize) -> usize {
        self.bank_group * banks_per_group + self.bank
    }
}

/// Address-mapping field identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Memory channel bits.
    Channel,
    /// Rank bits (a TensorDIMM maps to one or more ranks).
    Rank,
    /// Bank-group bits.
    BankGroup,
    /// Bank-within-group bits.
    Bank,
    /// Row bits.
    Row,
    /// Column bits (64-byte granularity; may be split across entries).
    Column,
}

/// An ordered physical-address bit layout.
///
/// Fields are listed from least- to most-significant bit, starting right
/// above the 6-bit burst offset. A field may appear multiple times (columns
/// are commonly split around bank bits).
///
/// # Example
///
/// The NMP-local mapping places bank-group bits at the lowest position, so
/// consecutive 64-byte blocks inside one TensorDIMM alternate bank groups:
///
/// ```
/// use tensordimm_dram::{DramConfig, MappingScheme};
///
/// let geom = DramConfig::ddr4_3200_channel().geometry;
/// let map = MappingScheme::nmp_local(&geom);
/// let a = map.decode(0, &geom)?;
/// let b = map.decode(64, &geom)?;
/// assert_ne!(a.bank_group, b.bank_group);
/// assert_eq!((a.rank, b.rank), (0, 0));
/// # Ok::<(), tensordimm_dram::DramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingScheme {
    fields: Vec<(Field, u32)>,
    /// XOR-permute bank and bank-group bits with low row bits. This is the
    /// classic conflict-avoidance permutation real controllers apply: two
    /// sequential streams at different rows then occupy different bank
    /// sequences instead of chasing each other's open rows.
    bank_xor: bool,
}

fn bits_for(n: usize) -> u32 {
    debug_assert!(n.is_power_of_two());
    n.trailing_zeros()
}

impl MappingScheme {
    /// Whether the bank XOR permutation is active.
    pub fn bank_xor(&self) -> bool {
        self.bank_xor
    }

    /// Apply the (self-inverse) bank permutation: the row number is
    /// XOR-folded down to `bank + bank-group` bits and XORed into those
    /// fields, so streams whose rows differ by *any* amount land on
    /// different bank sequences.
    fn permute(&self, mut addr: DramAddr, geom: &Geometry) -> DramAddr {
        if self.bank_xor {
            let bank_bits = bits_for(geom.banks_per_group);
            let bg_bits = bits_for(geom.bank_groups);
            let width = (bank_bits + bg_bits).max(1);
            let mask = (1usize << width) - 1;
            let mut rest = addr.row;
            let mut folded = 0usize;
            while rest != 0 {
                folded ^= rest & mask;
                rest >>= width;
            }
            addr.bank ^= folded & (geom.banks_per_group - 1);
            addr.bank_group ^= (folded >> bank_bits) & (geom.bank_groups - 1);
        }
        addr
    }

    /// Conventional CPU-memory mapping: channel bits at the lowest position
    /// (64-byte channel interleave), then bank-group bits (so back-to-back
    /// column bursts alternate bank groups and dodge tCCD_L), low column
    /// bits, bank, rank, remaining column bits and row.
    ///
    /// This is the baseline mapping for the "embeddings inside CPU" design
    /// points: the channel count fixes peak bandwidth regardless of how many
    /// DIMMs populate each channel.
    pub fn channel_interleaved(geom: &Geometry) -> Self {
        let col_bits = bits_for(geom.columns);
        let col_low = col_bits.min(3);
        let col_high = col_bits - col_low;
        let fields = vec![
            (Field::Channel, bits_for(geom.channels)),
            (Field::BankGroup, bits_for(geom.bank_groups)),
            (Field::Column, col_low),
            (Field::Bank, bits_for(geom.banks_per_group)),
            (Field::Rank, bits_for(geom.ranks_per_channel)),
            (Field::Column, col_high),
            (Field::Row, bits_for(geom.rows)),
        ];
        MappingScheme {
            fields,
            bank_xor: true,
        }
        .without_empty()
    }

    /// The mapping an NMP-local memory controller uses for the DRAM chips
    /// *inside* one TensorDIMM: bank-group bits lowest (consecutive bursts
    /// alternate groups, sustaining tCCD_S pacing), then low column bits,
    /// bank and internal-rank bits (an LR-DIMM stacks several ranks, giving
    /// the activate headroom random gathers need), then the remaining
    /// column bits and row.
    ///
    /// Node-level striping across TensorDIMMs (Fig. 7) happens before this
    /// mapping: `tensordimm_analysis::lower_block_byte` sends pool block
    /// `b` to DIMM `b % node_dim` at local block `b / node_dim`, and this
    /// mapping governs locality *within* the DIMM after that lowering.
    pub fn nmp_local(geom: &Geometry) -> Self {
        let col_bits = bits_for(geom.columns);
        let col_low = col_bits.min(2);
        let col_high = col_bits - col_low;
        let fields = vec![
            (Field::BankGroup, bits_for(geom.bank_groups)),
            (Field::Column, col_low),
            (Field::Bank, bits_for(geom.banks_per_group)),
            (Field::Rank, bits_for(geom.ranks_per_channel)),
            (Field::Column, col_high),
            (Field::Row, bits_for(geom.rows)),
            (Field::Channel, bits_for(geom.channels)),
        ];
        MappingScheme {
            fields,
            bank_xor: true,
        }
        .without_empty()
    }

    fn without_empty(mut self) -> Self {
        self.fields.retain(|&(_, bits)| bits > 0);
        self
    }

    /// Bits mapped for one field, summed across split entries.
    pub fn field_bits(&self, field: Field) -> u32 {
        self.fields
            .iter()
            .filter(|&&(f, _)| f == field)
            .map(|&(_, b)| b)
            .sum()
    }

    /// The ordered field list (LSB to MSB above the burst offset).
    pub fn fields(&self) -> &[(Field, u32)] {
        &self.fields
    }

    /// Check the mapping covers exactly the geometry's address bits.
    pub fn validate(&self, geom: &Geometry) -> Result<(), DramError> {
        let expect = [
            (Field::Channel, bits_for(geom.channels)),
            (Field::Rank, bits_for(geom.ranks_per_channel)),
            (Field::BankGroup, bits_for(geom.bank_groups)),
            (Field::Bank, bits_for(geom.banks_per_group)),
            (Field::Row, bits_for(geom.rows)),
            (Field::Column, bits_for(geom.columns)),
        ];
        for (field, required_bits) in expect {
            let mapped_bits = self.field_bits(field);
            if mapped_bits != required_bits {
                return Err(DramError::MappingMismatch {
                    field,
                    mapped_bits,
                    required_bits,
                });
            }
        }
        Ok(())
    }

    /// Decode a physical byte address into a DRAM coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::AddressOutOfRange`] if the address exceeds the
    /// geometry's capacity.
    pub fn decode(&self, addr: u64, geom: &Geometry) -> Result<DramAddr, DramError> {
        let capacity = geom.capacity_bytes();
        if addr >= capacity {
            return Err(DramError::AddressOutOfRange { addr, capacity });
        }
        let mut rest = addr / ACCESS_BYTES;
        let mut out = DramAddr::default();
        let mut seen = [0u32; 6];
        for &(field, bits) in &self.fields {
            let val = (rest & ((1u64 << bits) - 1)) as usize;
            rest >>= bits;
            // Later (more significant) entries of a split field extend the
            // accumulated value from the top, preserving LSB-first order.
            let slot = match field {
                Field::Channel => 0,
                Field::Rank => 1,
                Field::BankGroup => 2,
                Field::Bank => 3,
                Field::Row => 4,
                Field::Column => 5,
            };
            let shifted = val << seen[slot];
            seen[slot] += bits;
            match field {
                Field::Channel => out.channel |= shifted,
                Field::Rank => out.rank |= shifted,
                Field::BankGroup => out.bank_group |= shifted,
                Field::Bank => out.bank |= shifted,
                Field::Row => out.row |= shifted,
                Field::Column => out.column |= shifted,
            }
        }
        Ok(self.permute(out, geom))
    }

    /// Encode a DRAM coordinate back into a physical byte address
    /// (inverse of [`MappingScheme::decode`] for in-range coordinates).
    pub fn encode(&self, addr: &DramAddr, geom: &Geometry) -> u64 {
        let addr = &self.permute(*addr, geom);
        let mut out: u64 = 0;
        let mut shift: u32 = 0;
        let mut col_seen: u32 = 0;
        let mut chan_seen: u32 = 0;
        let mut rank_seen: u32 = 0;
        let mut bg_seen: u32 = 0;
        let mut bank_seen: u32 = 0;
        let mut row_seen: u32 = 0;
        for &(field, bits) in &self.fields {
            let (value, seen) = match field {
                Field::Channel => (addr.channel as u64, &mut chan_seen),
                Field::Rank => (addr.rank as u64, &mut rank_seen),
                Field::BankGroup => (addr.bank_group as u64, &mut bg_seen),
                Field::Bank => (addr.bank as u64, &mut bank_seen),
                Field::Row => (addr.row as u64, &mut row_seen),
                Field::Column => (addr.column as u64, &mut col_seen),
            };
            let chunk = (value >> *seen) & ((1u64 << bits) - 1);
            out |= chunk << shift;
            *seen += bits;
            shift += bits;
        }
        out * ACCESS_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Geometry;

    fn geom() -> Geometry {
        Geometry {
            channels: 2,
            ranks_per_channel: 4,
            bank_groups: 4,
            banks_per_group: 4,
            rows: 1 << 15,
            columns: 128,
            bus_bytes: 8,
        }
    }

    #[test]
    fn presets_validate() {
        let g = geom();
        MappingScheme::channel_interleaved(&g).validate(&g).unwrap();
        MappingScheme::nmp_local(&g).validate(&g).unwrap();
    }

    #[test]
    fn nmp_local_alternates_bank_groups() {
        let g = geom();
        let m = MappingScheme::nmp_local(&g);
        for i in 0..8u64 {
            let d = m.decode(i * 64, &g).unwrap();
            assert_eq!(d.bank_group, (i % 4) as usize, "block {i}");
            assert_eq!(d.rank, 0);
        }
    }

    #[test]
    fn channel_interleaved_strides_channels() {
        let g = geom();
        let m = MappingScheme::channel_interleaved(&g);
        for i in 0..4u64 {
            let d = m.decode(i * 64, &g).unwrap();
            assert_eq!(d.channel, (i % 2) as usize, "block {i}");
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let g = geom();
        let m = MappingScheme::nmp_local(&g);
        let cap = g.capacity_bytes();
        assert!(matches!(
            m.decode(cap, &g),
            Err(DramError::AddressOutOfRange { .. })
        ));
        assert!(m.decode(cap - 64, &g).is_ok());
    }

    #[test]
    fn mismatched_mapping_detected() {
        let g = geom();
        // Laid out for twice the rows this geometry has.
        let m = MappingScheme::nmp_local(&Geometry {
            rows: 2 * g.rows,
            ..g
        });
        assert!(matches!(
            m.validate(&g),
            Err(DramError::MappingMismatch {
                field: Field::Row,
                mapped_bits: 16,
                required_bits: 15,
            })
        ));
    }

    #[test]
    fn decode_encode_roundtrip_all_mappings() {
        let g = geom();
        for m in [
            MappingScheme::channel_interleaved(&g),
            MappingScheme::nmp_local(&g),
        ] {
            for addr in (0..1u64 << 20).step_by(64 * 97) {
                let d = m.decode(addr, &g).unwrap();
                assert_eq!(m.encode(&d, &g), addr, "mapping {m:?} addr {addr}");
            }
        }
    }
}
