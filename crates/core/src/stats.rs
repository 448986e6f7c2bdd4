//! The statistics bridge.
//!
//! Implements the switch's [`StatsAugmenter`] hook by reading the shared
//! statistics region the guest PMDs write for bypassed traffic. The switch
//! consults it while building flow-stats, port-stats and flow-removed
//! messages, so an OpenFlow controller sees exact counters regardless of
//! which channel the packets took — §2's transparency requirement.

use openflow::PortNo;
use ovs_dp::ofproto::{PortExtra, StatsAugmenter};
use shmem_sim::{PortDir, StatsRegion};

/// Adapter from [`StatsRegion`] to the switch's augmenter hook.
pub struct HighwayStatsAugmenter {
    region: StatsRegion,
}

impl HighwayStatsAugmenter {
    /// Wraps the region shared with the guest PMDs.
    pub fn new(region: StatsRegion) -> HighwayStatsAugmenter {
        HighwayStatsAugmenter { region }
    }
}

impl StatsAugmenter for HighwayStatsAugmenter {
    fn rule_extra(&self, cookie: u64) -> (u64, u64) {
        telemetry::coverage!("stats_augment_rule");
        self.region.rule_totals(cookie)
    }

    fn port_extra(&self, port: PortNo) -> PortExtra {
        let (rx_packets, rx_bytes) = self.region.port_totals(u32::from(port.0), PortDir::Rx);
        let (tx_packets, tx_bytes) = self.region.port_totals(u32::from(port.0), PortDir::Tx);
        PortExtra {
            rx_packets,
            rx_bytes,
            tx_packets,
            tx_bytes,
        }
    }

    fn rule_retired(&self, cookie: u64) {
        // The totals went out in FlowRemoved; a guest PMD still attached
        // keeps its own handle to the cell until the bypass is torn down.
        self.region.retire_rule(cookie);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn augmenter_reflects_region_writes() {
        let region = StatsRegion::new();
        let aug = HighwayStatsAugmenter::new(region.clone());
        assert_eq!(aug.rule_extra(7), (0, 0));

        region.rule_cell(7).add(3, 192);
        region.port_cell(1, PortDir::Rx).add(3, 192);
        region.port_cell(2, PortDir::Tx).add(3, 192);

        assert_eq!(aug.rule_extra(7), (3, 192));
        let p1 = aug.port_extra(PortNo(1));
        assert_eq!((p1.rx_packets, p1.rx_bytes), (3, 192));
        assert_eq!((p1.tx_packets, p1.tx_bytes), (0, 0));
        let p2 = aug.port_extra(PortNo(2));
        assert_eq!((p2.tx_packets, p2.tx_bytes), (3, 192));

        aug.rule_retired(7);
        assert_eq!(aug.rule_extra(7), (0, 0));
        assert_eq!(region.rule_count(), 0);
    }
}
