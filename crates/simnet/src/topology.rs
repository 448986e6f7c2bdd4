//! Chain topologies — the four configurations of the paper's Figure 3.

/// How traffic enters and leaves the chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeKind {
    /// Figure 3(a): the first and last VM of the chain generate and sink
    /// the traffic themselves; no NIC, no PCIe.
    Memory,
    /// Figure 3(b): traffic enters/leaves through physical NICs of the
    /// given rate, with the given wire frame length.
    Nic { gbps: f64, frame_len: usize },
}

/// Whether the highway is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Vanilla OvS-DPDK: every seam crosses the switch.
    Vanilla,
    /// Transparent highway: every VM↔VM seam is a bypass channel
    /// (NIC↔VM seams still cross the switch — a NIC is not a VM).
    Highway,
}

/// A chain under test.
#[derive(Debug, Clone, Copy)]
pub struct ChainSpec {
    /// Number of VMs in the chain.
    pub n_vms: usize,
    pub mode: Mode,
    pub edge: EdgeKind,
}

impl ChainSpec {
    /// Figure 3(a) configuration.
    pub fn memory(n_vms: usize, mode: Mode) -> ChainSpec {
        ChainSpec {
            n_vms,
            mode,
            edge: EdgeKind::Memory,
        }
    }

    /// Figure 3(b) configuration (two 10 G ports, 64 B frames).
    pub fn nic(n_vms: usize, mode: Mode) -> ChainSpec {
        ChainSpec {
            n_vms,
            mode,
            edge: EdgeKind::Nic {
                gbps: 10.0,
                frame_len: 64,
            },
        }
    }

    /// Seams between *VMs* (bypassable).
    pub fn vm_seams(&self) -> usize {
        self.n_vms.saturating_sub(1)
    }

    /// Seams touching a NIC (never bypassable).
    pub fn nic_seams(&self) -> usize {
        match self.edge {
            EdgeKind::Memory => 0,
            EdgeKind::Nic { .. } => 2,
        }
    }

    /// VMs that forward traffic (rather than generating/sinking it).
    pub fn forwarding_vms(&self) -> usize {
        match self.edge {
            // First and last VM are source/sink.
            EdgeKind::Memory => self.n_vms.saturating_sub(2),
            // All VMs forward; the generator is outside the NICs.
            EdgeKind::Nic { .. } => self.n_vms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_chain_counts() {
        let spec = ChainSpec::memory(8, Mode::Vanilla);
        assert_eq!(spec.vm_seams(), 7);
        assert_eq!(spec.nic_seams(), 0);
        assert_eq!(spec.forwarding_vms(), 6);
    }

    #[test]
    fn nic_chain_counts() {
        let spec = ChainSpec::nic(4, Mode::Vanilla);
        assert_eq!(spec.vm_seams(), 3);
        assert_eq!(spec.nic_seams(), 2);
        assert_eq!(spec.forwarding_vms(), 4);
    }

    #[test]
    fn single_vm_nic_chain() {
        let spec = ChainSpec::nic(1, Mode::Vanilla);
        assert_eq!(spec.vm_seams(), 0);
        assert_eq!(spec.nic_seams(), 2);
        assert_eq!(spec.forwarding_vms(), 1);
    }
}
