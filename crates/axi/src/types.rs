//! Fundamental scalar types shared by the whole simulator.

use serde::{Deserialize, Serialize};

/// Byte address in the global HBM address space.
pub type Addr = u64;

/// Simulation cycle count (in the accelerator clock domain unless noted).
pub type Cycle = u64;

/// Width of one AXI data beat in bytes (256-bit bus → 32 B).
pub const BEAT_BYTES: u64 = 32;

/// Maximum AXI3 burst length in beats.
pub const MAX_BURST: u8 = 16;

/// Maximum AXI4 burst length in beats that still fits the 4 KiB rule at
/// a 32-byte beat (AXI4 allows 256 beats, but 128 × 32 B = 4 KiB).
pub const MAX_BURST_AXI4: u8 = 128;

/// Index of a bus master (BM) attached to the memory subsystem.
///
/// Xilinx HBM devices expose 32 AXI ports, so valid values are `0..32`
/// in the default configuration; the type itself is not range-limited so
/// that smaller or larger systems can be simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MasterId(pub u16);

/// Index of a pseudo-channel (PCH) port on the memory side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId(pub u16);

impl MasterId {
    /// Returns the raw index as `usize` for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl PortId {
    /// Returns the raw index as `usize` for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// AXI transaction identifier.
///
/// Transactions with the same ID on the same port must complete in issue
/// order; transactions with different IDs may be reordered. The number of
/// distinct IDs a master uses is therefore its *reorder window* — the
/// mechanism behind Fig. 6 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AxiId(pub u8);

/// Transfer direction. AXI read and write channels are fully independent,
/// which is why a 2:1 read/write mix can exceed the unidirectional port
/// bandwidth (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dir {
    /// AR/R channel pair.
    Read,
    /// AW/W/B channel triple.
    Write,
}

impl Dir {
    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Dir {
        match self {
            Dir::Read => Dir::Write,
            Dir::Write => Dir::Read,
        }
    }

    /// Both directions, for iteration.
    pub const BOTH: [Dir; 2] = [Dir::Read, Dir::Write];
}

/// Validated AXI3 burst length (1..=16 beats), or AXI4 (1..=128) through
/// [`BurstLen::new_axi4`]. It decodes through `new_axi4`, so a length
/// from outside the program is a legal burst or an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct BurstLen(u8);

impl<'de> Deserialize<'de> for BurstLen {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<BurstLen, D::Error> {
        let beats = u8::deserialize(d)?;
        BurstLen::new_axi4(beats).ok_or_else(|| {
            serde::de::Error::custom(format_args!("burst length {beats} is not 1..=128"))
        })
    }
}

impl BurstLen {
    /// Creates an AXI3 burst length, returning `None` outside `1..=16`.
    pub fn new(beats: u8) -> Option<BurstLen> {
        (1..=MAX_BURST).contains(&beats).then_some(BurstLen(beats))
    }

    /// Creates an AXI4 burst length (`1..=128` beats — the 4 KiB rule
    /// caps 32-byte beats at 128). The paper's device speaks AXI3; this
    /// constructor supports the what-if study of longer bursts
    /// (`hbm-core::experiment::ablate_axi4`).
    pub fn new_axi4(beats: u8) -> Option<BurstLen> {
        (1..=MAX_BURST_AXI4).contains(&beats).then_some(BurstLen(beats))
    }

    /// Creates an AXI4 burst length, panicking outside `1..=128`.
    pub fn of_axi4(beats: u8) -> BurstLen {
        BurstLen::new_axi4(beats).expect("AXI4 burst length must be 1..=128")
    }

    /// Creates a burst length, panicking outside `1..=16`.
    ///
    /// Convenient for constants in tests and experiment definitions.
    pub fn of(beats: u8) -> BurstLen {
        BurstLen::new(beats).expect("AXI3 burst length must be 1..=16")
    }

    /// Number of beats in the burst.
    #[inline]
    pub fn beats(self) -> u8 {
        self.0
    }

    /// Payload size of the burst in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        self.0 as u64 * BEAT_BYTES
    }
}

/// Counts delivered beats of a burst and reports completion.
///
/// Used by the return path (R channel) and the write-data path (W channel)
/// to know when a burst has fully transferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeatCounter {
    total: u8,
    done: u8,
}

impl BeatCounter {
    /// A counter expecting `len.beats()` beats.
    pub fn new(len: BurstLen) -> BeatCounter {
        BeatCounter { total: len.beats(), done: 0 }
    }

    /// Records one transferred beat; returns `true` when this beat was the
    /// last of the burst.
    pub fn advance(&mut self) -> bool {
        debug_assert!(self.done < self.total, "beat counter overrun");
        self.done += 1;
        self.done == self.total
    }

    /// Beats still to transfer.
    #[inline]
    pub fn remaining(self) -> u8 {
        self.total - self.done
    }

    /// `true` once every beat has been transferred.
    #[inline]
    pub fn complete(self) -> bool {
        self.done == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_len_bounds() {
        assert!(BurstLen::new(0).is_none());
        assert!(BurstLen::new(17).is_none());
        assert_eq!(BurstLen::new(1).unwrap().beats(), 1);
        assert_eq!(BurstLen::new(16).unwrap().beats(), 16);
    }

    #[test]
    fn axi4_burst_len_bounds() {
        assert!(BurstLen::new_axi4(0).is_none());
        assert!(BurstLen::new_axi4(129).is_none());
        assert_eq!(BurstLen::of_axi4(128).bytes(), 4096);
        // AXI3 lengths are a subset.
        assert_eq!(BurstLen::of_axi4(16).beats(), BurstLen::of(16).beats());
    }

    #[test]
    fn burst_len_decodes_only_legal_lengths() {
        let decode = |v: u64| serde::value::from_value::<BurstLen>(serde::value::Value::U64(v));
        assert_eq!(decode(16).unwrap(), BurstLen::of(16));
        assert_eq!(decode(128).unwrap(), BurstLen::of_axi4(128));
        for illegal in [0, 129, 257] {
            assert!(decode(illegal).is_err(), "burst length {illegal} decoded");
        }
    }

    #[test]
    fn burst_len_bytes() {
        assert_eq!(BurstLen::of(1).bytes(), 32);
        assert_eq!(BurstLen::of(16).bytes(), 512);
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn burst_len_of_panics() {
        let _ = BurstLen::of(0);
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::Read.flip(), Dir::Write);
        assert_eq!(Dir::Write.flip(), Dir::Read);
    }

    #[test]
    fn beat_counter_counts_to_completion() {
        let mut c = BeatCounter::new(BurstLen::of(3));
        assert!(!c.advance());
        assert!(!c.complete());
        assert!(!c.advance());
        assert!(c.advance());
        assert!(c.complete());
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn beat_counter_single_beat() {
        let mut c = BeatCounter::new(BurstLen::of(1));
        assert!(c.advance());
    }

    #[test]
    fn ids_index() {
        assert_eq!(MasterId(7).idx(), 7);
        assert_eq!(PortId(31).idx(), 31);
    }
}
