//! Global-address → pseudo-channel mapping.
//!
//! The Xilinx fabric maps each PCH's capacity **contiguously** into the
//! global address space — the root cause of the hot-spot pathology: data
//! copied linearly from a host lands entirely in one PCH until 256 MiB
//! are filled (paper §II). The MAO's interleaved map lives in `hbm-mao`
//! and implements the same trait.

use hbm_axi::{Addr, PortId};

/// A bijective mapping from global addresses to (port, local offset),
/// expressed as a rewrite onto a *physical* address space in which port
/// `p` owns the contiguous range `[p·cap, (p+1)·cap)`.
pub trait AddressMap {
    /// Number of pseudo-channel ports.
    fn num_ports(&self) -> usize;

    /// Capacity per port in bytes.
    fn port_capacity(&self) -> u64;

    /// Rewrites a global address into the physical (contiguous-per-port)
    /// space. Must be a bijection on `[0, num_ports · port_capacity)`.
    fn remap(&self, addr: Addr) -> Addr;

    /// The port that owns a global address.
    fn port_of(&self, addr: Addr) -> PortId {
        PortId((self.remap(addr) / self.port_capacity()) as u16)
    }
}

/// The identity map: global address space is already contiguous per PCH.
#[derive(Debug, Clone, Copy)]
pub struct ContiguousMap {
    num_ports: usize,
    port_capacity: u64,
    /// `log2(port_capacity)`: an address's port is a shift away.
    port_shift: u32,
}

impl ContiguousMap {
    /// A contiguous map over `num_ports` ports of `port_capacity` bytes.
    pub fn new(num_ports: usize, port_capacity: u64) -> ContiguousMap {
        assert!(num_ports > 0 && port_capacity > 0);
        assert!(
            port_capacity.is_power_of_two(),
            "port capacity must be a power of two for mask-based local offsets"
        );
        ContiguousMap { num_ports, port_capacity, port_shift: port_capacity.trailing_zeros() }
    }
}

impl AddressMap for ContiguousMap {
    fn num_ports(&self) -> usize {
        self.num_ports
    }

    fn port_capacity(&self) -> u64 {
        self.port_capacity
    }

    fn remap(&self, addr: Addr) -> Addr {
        debug_assert!(
            addr < self.num_ports as u64 * self.port_capacity,
            "address {addr:#x} beyond device capacity"
        );
        addr
    }

    #[inline]
    fn port_of(&self, addr: Addr) -> PortId {
        PortId((self.remap(addr) >> self.port_shift) as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_port_of() {
        let m = ContiguousMap::new(32, 256 << 20);
        assert_eq!(m.port_of(0), PortId(0));
        assert_eq!(m.port_of((256 << 20) - 1), PortId(0));
        assert_eq!(m.port_of(256 << 20), PortId(1));
        assert_eq!(m.port_of(31 * (256u64 << 20)), PortId(31));
    }

    #[test]
    fn contiguous_remap_is_identity() {
        let m = ContiguousMap::new(4, 1 << 20);
        for a in [0u64, 123, (1 << 20) + 7, (4 << 20) - 1] {
            assert_eq!(m.remap(a), a);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_rejected() {
        let _ = ContiguousMap::new(4, 1000);
    }
}
