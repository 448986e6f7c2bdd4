//! Acceleration policy: which detected p-2-p links the highway is allowed
//! to carry.
//!
//! The paper's prototype accelerates every detected link as soon as it is
//! detected. Two filters narrow that:
//!
//! * **Port exclusion** — some dpdkr ports should never be bypassed (e.g.
//!   ports whose VM is about to be migrated, or operator policy). The
//!   detector result is filtered against this set.
//! * **Port state** — a link whose endpoint the controller set
//!   administratively down must not be accelerated: the switch would have
//!   dropped that traffic, so a live bypass would *add* connectivity the
//!   flow table no longer expresses. This filter is not optional; it is a
//!   correctness condition (transparency), but it is applied here so the
//!   whole "what may be accelerated" decision lives in one place.

use std::collections::BTreeSet;

/// Policy for turning detected links into bypass channels.
#[derive(Debug, Clone, Default)]
pub struct AccelerationPolicy {
    /// OpenFlow ports that must never participate in a bypass.
    pub excluded_ports: BTreeSet<u32>,
}

impl AccelerationPolicy {
    /// The paper's policy: accelerate everything, immediately.
    pub fn paper() -> AccelerationPolicy {
        AccelerationPolicy::default()
    }

    /// Builder: exclude a port from acceleration.
    pub fn exclude_port(mut self, port: u32) -> AccelerationPolicy {
        self.excluded_ports.insert(port);
        self
    }

    /// True when a link between these endpoints is allowed by the
    /// exclusion list (port state is checked separately, against live
    /// switch state).
    pub fn allows(&self, src: u32, dst: u32) -> bool {
        !self.excluded_ports.contains(&src) && !self.excluded_ports.contains(&dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_allows_everything_immediately() {
        let p = AccelerationPolicy::default();
        assert!(p.excluded_ports.is_empty());
        assert!(p.allows(1, 2));
    }

    #[test]
    fn exclusion_is_symmetric_over_endpoints() {
        let p = AccelerationPolicy::default().exclude_port(7);
        assert!(!p.allows(7, 2));
        assert!(!p.allows(2, 7));
        assert!(p.allows(1, 2));
    }

    #[test]
    fn builders_compose() {
        let p = AccelerationPolicy::paper().exclude_port(1).exclude_port(9);
        assert_eq!(p.excluded_ports.len(), 2);
        assert!(!p.allows(1, 2) && !p.allows(3, 9));
    }
}
