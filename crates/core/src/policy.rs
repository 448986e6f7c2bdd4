//! Acceleration policy: which detected p-2-p links the highway is allowed
//! to carry, and when.
//!
//! The paper's prototype accelerates every detected link immediately. In
//! operation two refinements matter, and both are exposed here as knobs:
//!
//! * **Debounce** — a controller reshuffling its table (e.g. a routing
//!   convergence burst) can create and destroy the same p-2-p link many
//!   times per second. Every activation costs ~100 ms of hypervisor work
//!   (§3), so chasing a flapping link wastes agent time and can queue a
//!   storm of stale setups. With a debounce, a link must remain stable for
//!   a grace period before the agent is engaged.
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
use std::time::Duration;

/// Policy for turning detected links into bypass channels.
#[derive(Debug, Clone)]
pub struct AccelerationPolicy {
    /// How long a detected link must remain stable before setup begins.
    /// Zero (the default, and the paper's behaviour) sets up immediately.
    pub setup_debounce: Duration,
    /// OpenFlow ports that must never participate in a bypass.
    pub excluded_ports: BTreeSet<u32>,
}

impl Default for AccelerationPolicy {
    fn default() -> Self {
        AccelerationPolicy {
            setup_debounce: Duration::ZERO,
            excluded_ports: BTreeSet::new(),
        }
    }
}

impl AccelerationPolicy {
    /// The paper's policy: accelerate everything, immediately.
    pub fn paper() -> AccelerationPolicy {
        AccelerationPolicy::default()
    }

    /// A conservative policy with the given debounce.
    pub fn debounced(grace: Duration) -> AccelerationPolicy {
        AccelerationPolicy {
            setup_debounce: grace,
            ..AccelerationPolicy::default()
        }
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
        assert_eq!(p.setup_debounce, Duration::ZERO);
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
        let p = AccelerationPolicy::debounced(Duration::from_millis(50))
            .exclude_port(1)
            .exclude_port(9);
        assert_eq!(p.setup_debounce, Duration::from_millis(50));
        assert_eq!(p.excluded_ports.len(), 2);
    }
}
