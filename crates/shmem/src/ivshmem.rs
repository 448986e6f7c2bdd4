//! ivshmem device model.
//!
//! In the prototype, QEMU exposes a shared-memory segment to a guest as an
//! ivshmem PCI device; the modified compute agent hot-plugs one per bypass
//! channel. Here the device is a named box carrying the guest's
//! [`ChannelEnd`]; "mapping the BAR" means taking the endpoint out.

use crate::channel::ChannelEnd;

/// An ivshmem device as seen on a VM's device board.
pub struct IvshmemDevice {
    segment_name: String,
    end: Option<ChannelEnd>,
}

impl IvshmemDevice {
    /// Wraps a channel endpoint in a pluggable device.
    pub fn new(segment_name: impl Into<String>, end: ChannelEnd) -> IvshmemDevice {
        IvshmemDevice {
            segment_name: segment_name.into(),
            end: Some(end),
        }
    }

    /// Name of the backing segment.
    pub fn segment_name(&self) -> &str {
        &self.segment_name
    }

    /// True until the guest maps the device.
    pub fn is_mapped(&self) -> bool {
        self.end.is_none()
    }

    /// Maps the device into the guest, yielding the channel endpoint.
    /// Returns `None` if already mapped (a guest bug the model surfaces).
    pub fn map(&mut self) -> Option<ChannelEnd> {
        self.end.take()
    }
}

impl std::fmt::Debug for IvshmemDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IvshmemDevice")
            .field("segment", &self.segment_name)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A VM's hot-pluggable device slots, shared between the host (QEMU/compute
/// agent, which plugs and unplugs) and the guest (which discovers and maps).
/// Also carries the guest's mapping of the host packet arena: the hugepage
/// segment QEMU maps read-write into every highway VM, through which the
/// guest PMD resolves and allocates offset-based mbufs.
#[derive(Default)]
pub struct DeviceBoard {
    slots: parking_lot::Mutex<std::collections::HashMap<String, IvshmemDevice>>,
    arena: parking_lot::Mutex<Option<dpdk_sim::Arena>>,
}

impl DeviceBoard {
    /// Creates an empty board.
    pub fn new() -> DeviceBoard {
        DeviceBoard::default()
    }

    /// Host side: plugs a device. Panics on duplicate segment names
    /// (the single compute agent chooses them, so that is a logic error).
    pub fn plug(&self, dev: IvshmemDevice) {
        let name = dev.segment_name().to_string();
        let prev = self.slots.lock().insert(name.clone(), dev);
        assert!(prev.is_none(), "device already plugged: {name}");
    }

    /// Host side: unplugs a device (returns false when absent).
    pub fn unplug(&self, segment_name: &str) -> bool {
        self.slots.lock().remove(segment_name).is_some()
    }

    /// Guest side: maps a plugged device's channel endpoint.
    /// Returns `None` when the device is absent or already mapped.
    pub fn map_segment(&self, segment_name: &str) -> Option<ChannelEnd> {
        self.slots.lock().get_mut(segment_name)?.map()
    }

    /// Host side: maps the packet arena into the VM, as a second mapping
    /// of the host's segment (a clone): the guest allocates from and frees
    /// to the same free stack as the host. Idempotent for the same
    /// segment; a re-plug simply replaces it.
    pub fn set_arena(&self, arena: &dpdk_sim::Arena) {
        *self.arena.lock() = Some(arena.clone());
    }

    /// Guest side: the VM's mapping of the packet arena, if one is plugged.
    pub fn arena(&self) -> Option<dpdk_sim::Arena> {
        self.arena.lock().clone()
    }

    /// Devices currently plugged.
    pub fn plugged(&self) -> Vec<String> {
        let mut v: Vec<String> = self.slots.lock().keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for DeviceBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBoard")
            .field("plugged", &self.plugged())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel;
    use dpdk_sim::Mbuf;

    #[test]
    fn board_plug_map_unplug() {
        let board = DeviceBoard::new();
        let (a, mut b) = channel("seg1", 4);
        board.plug(IvshmemDevice::new("seg1", a));
        assert_eq!(board.plugged(), vec!["seg1".to_string()]);
        let mut end = board.map_segment("seg1").unwrap();
        assert!(board.map_segment("seg1").is_none(), "second map fails");
        end.send(Mbuf::from_slice(&[3])).unwrap();
        assert_eq!(b.recv().unwrap().data(), &[3]);
        assert!(board.unplug("seg1"));
        assert!(!board.unplug("seg1"));
        assert!(board.plugged().is_empty());
    }

    #[test]
    fn map_missing_segment_is_none() {
        let board = DeviceBoard::new();
        assert!(board.map_segment("nope").is_none());
    }

    #[test]
    fn arena_mapping_shares_the_host_free_stack() {
        let board = DeviceBoard::new();
        assert!(board.arena().is_none());
        let host = dpdk_sim::Arena::new("vm-arena", 4, 256);
        board.set_arena(&host);
        let guest = board.arena().unwrap();
        assert_eq!(guest.segment_id(), host.segment_id());
        // A guest free is the host's next allocation.
        let _held = host.alloc().unwrap();
        let m = guest.alloc_from(&[1]).unwrap();
        let slot = m.slot();
        drop(m);
        assert_eq!(host.alloc().unwrap().slot(), slot);
        assert_eq!(host.stats().frees, 2);
    }

    #[test]
    fn map_once() {
        let (a, mut b) = channel("seg", 4);
        let mut dev = IvshmemDevice::new("seg", a);
        assert!(!dev.is_mapped());
        let mut end = dev.map().unwrap();
        assert!(dev.is_mapped());
        assert!(dev.map().is_none());
        end.send(Mbuf::from_slice(&[1])).unwrap();
        assert_eq!(b.recv().unwrap().data(), &[1]);
    }
}
