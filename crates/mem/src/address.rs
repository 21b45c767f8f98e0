//! Address decode within one pseudo-channel.
//!
//! A PCH-local byte address splits into column (within a row), bank, and
//! row. Consecutive rows map to consecutive banks (row-granularity bank
//! interleaving), so a linear stream activates banks round-robin and
//! overlaps row activations with data transfer — the behaviour that lets
//! strided patterns stream near the bus limit while random patterns are
//! bounded by the activate rate.

use hbm_axi::Addr;

use crate::config::{AddressMapPolicy, PchGeometry};

/// Decoded PCH-local address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PchAddress {
    /// Bank index within the pseudo-channel.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Byte offset within the row.
    pub col: u32,
}

impl PchAddress {
    /// Decodes a PCH-local byte offset. The row size is a power of two
    /// (`HbmConfig::validate`), so the column and row split is a mask and
    /// a shift; the bank split divides only when its divisor is not a
    /// power of two. The scheduler decodes every queue entry it ranks,
    /// so this stays free of 64-bit divisions on stock geometries.
    #[inline]
    pub fn decode(geom: &PchGeometry, offset: Addr) -> PchAddress {
        debug_assert!(offset < geom.pch_capacity, "offset beyond PCH capacity");
        debug_assert!(geom.row_bytes.is_power_of_two(), "row size must be a power of two");
        let col = (offset & (geom.row_bytes - 1)) as u32;
        let row_linear = offset >> geom.row_bytes.trailing_zeros();
        // (row_linear mod n, row_linear / n)
        let split = |n: u64| {
            if n.is_power_of_two() {
                (row_linear & (n - 1), row_linear >> n.trailing_zeros())
            } else {
                (row_linear % n, row_linear / n)
            }
        };
        match geom.addr_map {
            AddressMapPolicy::RowInterleaved => {
                let (bank, row) = split(geom.banks_per_pch as u64);
                PchAddress { bank: bank as u32, row, col }
            }
            AddressMapPolicy::BankContiguous => {
                let (row, bank) = split(geom.rows_per_bank());
                PchAddress { bank: bank as u32, row, col }
            }
        }
    }

    /// Re-encodes to the PCH-local byte offset (inverse of `decode`).
    pub fn encode(&self, geom: &PchGeometry) -> Addr {
        let row_linear = match geom.addr_map {
            AddressMapPolicy::RowInterleaved => {
                self.row * geom.banks_per_pch as u64 + self.bank as u64
            }
            AddressMapPolicy::BankContiguous => self.bank as u64 * geom.rows_per_bank() + self.row,
        };
        row_linear * geom.row_bytes + self.col as u64
    }
}

/// Iterator over the per-row segments of a PCH-local byte range — see
/// [`row_segments`]. Decodes lazily, one segment per `next`, so the
/// common single-segment burst costs one inline decode and no heap
/// allocation (the controller executes one of these per issued burst and
/// the old `Vec` return was the last per-cycle allocation in the kernel).
#[derive(Debug, Clone)]
pub struct RowSegments {
    geom: PchGeometry,
    cur: Addr,
    left: u64,
}

impl Iterator for RowSegments {
    type Item = (PchAddress, u64);

    fn next(&mut self) -> Option<(PchAddress, u64)> {
        if self.left == 0 {
            return None;
        }
        let a = PchAddress::decode(&self.geom, self.cur);
        let room = self.geom.row_bytes - a.col as u64;
        let seg = self.left.min(room);
        self.cur += seg;
        self.left -= seg;
        Some((a, seg))
    }
}

/// Splits a PCH-local byte range `[offset, offset + bytes)` into per-row
/// segments `(PchAddress, segment_bytes)`. A DRAM access cannot stream
/// across a row boundary without a new activate, so the controller issues
/// one job per segment.
pub fn row_segments(geom: &PchGeometry, offset: Addr, bytes: u64) -> RowSegments {
    RowSegments { geom: *geom, cur: offset, left: bytes }
}

/// [`row_segments`] collected into a `Vec` — for tests and offline
/// analysis; the cycle kernel iterates lazily instead.
pub fn split_by_row(geom: &PchGeometry, offset: Addr, bytes: u64) -> Vec<(PchAddress, u64)> {
    row_segments(geom, offset, bytes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HbmConfig;

    fn geom() -> PchGeometry {
        HbmConfig::default().geom()
    }

    #[test]
    fn decode_first_row() {
        let g = geom();
        let a = PchAddress::decode(&g, 0);
        assert_eq!((a.bank, a.row, a.col), (0, 0, 0));
        let a = PchAddress::decode(&g, 100);
        assert_eq!((a.bank, a.row, a.col), (0, 0, 100));
    }

    #[test]
    fn consecutive_rows_interleave_banks() {
        let g = geom();
        let a = PchAddress::decode(&g, g.row_bytes);
        assert_eq!((a.bank, a.row), (1, 0));
        let a = PchAddress::decode(&g, g.row_bytes * g.banks_per_pch as u64);
        assert_eq!((a.bank, a.row), (0, 1));
    }

    #[test]
    fn encode_is_inverse() {
        let g = geom();
        for off in [0u64, 1, 1023, 1024, 123_456, g.pch_capacity - 1] {
            let a = PchAddress::decode(&g, off);
            assert_eq!(a.encode(&g), off, "offset {off}");
        }
    }

    #[test]
    fn bank_contiguous_policy_maps_slices() {
        let mut g = geom();
        g.addr_map = AddressMapPolicy::BankContiguous;
        // First 16 MiB (capacity / 16 banks) stays in bank 0.
        let slice = g.pch_capacity / g.banks_per_pch as u64;
        let a = PchAddress::decode(&g, 0);
        assert_eq!(a.bank, 0);
        let a = PchAddress::decode(&g, slice - 1);
        assert_eq!(a.bank, 0);
        let a = PchAddress::decode(&g, slice);
        assert_eq!((a.bank, a.row), (1, 0));
        // Round trips under the alternate policy too.
        for off in [0u64, slice - 1, slice, 3 * slice + 12345] {
            assert_eq!(PchAddress::decode(&g, off).encode(&g), off);
        }
    }

    #[test]
    fn split_within_one_row() {
        let g = geom();
        let parts = split_by_row(&g, 64, 512);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].1, 512);
        assert_eq!(parts[0].0.col, 64);
    }

    #[test]
    fn split_across_row_boundary() {
        let g = geom();
        // 512 B starting 128 B below the end of row 0.
        let start = g.row_bytes - 128;
        let parts = split_by_row(&g, start, 512);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].1, 128);
        assert_eq!(parts[1].1, 384);
        assert_eq!(parts[1].0.bank, 1);
        assert_eq!(parts[1].0.col, 0);
    }

    #[test]
    fn split_exact_row_end_no_empty_segment() {
        let g = geom();
        let parts = split_by_row(&g, g.row_bytes - 512, 512);
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn lazy_segments_match_collected() {
        let g = geom();
        let lazy: Vec<_> = row_segments(&g, g.row_bytes - 100, 2500).collect();
        assert_eq!(lazy, split_by_row(&g, g.row_bytes - 100, 2500));
        assert!(lazy.len() > 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::config::HbmConfig;
    use proptest::prelude::*;

    proptest! {
        /// The shift-and-mask decode equals the plain division formula,
        /// for power-of-two and other bank counts, under both policies.
        #[test]
        fn decode_matches_division(
            banks in prop::sample::select(vec![1usize, 3, 12, 16, 32]),
            row_log2 in 6u32..13,
            contiguous in any::<bool>(),
            frac in 0u64..1_000_000,
        ) {
            let row_bytes = 1u64 << row_log2;
            let rows_per_bank = 1 << 10;
            let g = PchGeometry {
                pch_capacity: row_bytes * banks as u64 * rows_per_bank,
                row_bytes,
                banks_per_pch: banks,
                addr_map: if contiguous {
                    AddressMapPolicy::BankContiguous
                } else {
                    AddressMapPolicy::RowInterleaved
                },
            };
            let off = g.pch_capacity * frac / 1_000_000;
            let row_linear = off / row_bytes;
            let (bank, row) = if contiguous {
                (row_linear / rows_per_bank, row_linear % rows_per_bank)
            } else {
                (row_linear % banks as u64, row_linear / banks as u64)
            };
            let a = PchAddress::decode(&g, off);
            prop_assert_eq!((a.bank as u64, a.row, a.col as u64), (bank, row, off % row_bytes));
            prop_assert_eq!(a.encode(&g), off);
        }

        /// decode/encode round-trips for arbitrary in-range offsets.
        #[test]
        fn decode_encode_roundtrip(off in 0u64..(256u64 << 20)) {
            let g = HbmConfig::default().geom();
            let a = PchAddress::decode(&g, off);
            prop_assert_eq!(a.encode(&g), off);
            prop_assert!((a.bank as usize) < g.banks_per_pch);
            prop_assert!((a.col as u64) < g.row_bytes);
            prop_assert!(a.row < g.rows_per_bank());
        }

        /// Row segments tile the range exactly and never cross a row.
        #[test]
        fn split_tiles_range(
            off in 0u64..(1u64 << 20),
            bytes in 1u64..8192,
        ) {
            let g = HbmConfig::default().geom();
            let parts = split_by_row(&g, off, bytes);
            let mut cursor = off;
            for (a, seg) in &parts {
                prop_assert_eq!(PchAddress::decode(&g, cursor), *a);
                // Segment stays inside its row.
                prop_assert!(a.col as u64 + seg <= g.row_bytes);
                cursor += seg;
            }
            prop_assert_eq!(cursor, off + bytes);
        }
    }
}
