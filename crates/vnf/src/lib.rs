//! # vnf-apps
//!
//! Everything that runs *inside* a VM in the paper's architecture:
//!
//! * [`pmd`] — the **modified dpdkr poll-mode driver**: one logical port
//!   multiplexing the normal channel (to the vSwitch) and an optional bypass
//!   channel (directly to a peer VM). Transmit prefers the bypass when
//!   active and accounts every bypassed packet in the shared statistics
//!   region; receive polls the bypass first but always also drains the
//!   normal channel, so controller `packet-out`s keep arriving — exactly the
//!   behaviour §2 of the paper describes.
//! * [`control`] — the control-protocol messages the compute agent sends
//!   over virtio-serial to reconfigure a PMD at run time.
//! * [`runner`] — the guest main loop: polls ports, applies a [`VnfApp`],
//!   forwards between the VM's two ports (the paper's test application
//!   shape) and services control messages between bursts.
//! * [`apps`] — VNF applications: the plain forwarder used in the paper's
//!   evaluation, the firewall / network monitor / web cache from its
//!   motivating service graph (Figure 1), and a NAT whose header rewrites
//!   must be identical over a bypass channel.

pub mod apps;
pub mod control;
pub mod pmd;
pub mod runner;

pub use apps::{
    Firewall, FirewallRule, L2Forwarder, Nat44, NetworkMonitor, Verdict, VnfApp, WebCache,
};
pub use control::{PmdAck, PmdCtrl};
pub use pmd::DpdkrPmd;
pub use runner::{GuestConfig, VnfRunner};
