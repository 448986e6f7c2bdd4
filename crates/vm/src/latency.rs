//! Control-plane latency model.
//!
//! The data path of the reproduction is real code; the *hardware control*
//! operations (QEMU ivshmem hot-plug, virtio-serial scheduling) are where
//! the simulation substitutes sleeps for hypervisor work. The defaults are
//! calibrated so a full one-direction bypass setup lands near the ~100 ms
//! the paper reports (two hot-plugs plus a handful of serial round-trips).
//! The delays are constants: any spread in a measured setup time comes
//! from the code under test, not from the model.

use std::time::Duration;

/// Delays applied by the compute agent around control operations.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// One QEMU `device_add` of an ivshmem device.
    pub ivshmem_plug: Duration,
    /// One QEMU `device_del`.
    pub ivshmem_unplug: Duration,
    /// One virtio-serial request/ack round-trip (scheduling + guest apply).
    pub serial_rtt: Duration,
}

impl LatencyModel {
    /// Calibrated to the paper's testbed: setup ≈ 2×35 ms (plugs)
    /// + 4×7 ms (map/map/enable-rx/enable-tx round-trips) ≈ 98 ms.
    pub fn paper() -> LatencyModel {
        LatencyModel {
            ivshmem_plug: Duration::from_millis(35),
            ivshmem_unplug: Duration::from_millis(15),
            serial_rtt: Duration::from_millis(7),
        }
    }

    /// No artificial delays (unit tests, functional integration tests).
    pub fn zero() -> LatencyModel {
        LatencyModel {
            ivshmem_plug: Duration::ZERO,
            ivshmem_unplug: Duration::ZERO,
            serial_rtt: Duration::ZERO,
        }
    }

    /// Sleeps for one hot-plug delay.
    pub fn sleep_plug(&self) {
        sleep_nonzero(self.ivshmem_plug);
    }

    /// Sleeps for one unplug delay.
    pub fn sleep_unplug(&self) {
        sleep_nonzero(self.ivshmem_unplug);
    }

    /// Sleeps for one serial round-trip delay.
    pub fn sleep_serial(&self) {
        sleep_nonzero(self.serial_rtt);
    }

    /// The expected setup time for one bypass direction on a fresh
    /// segment: 2 plugs + 4 serial round-trips.
    pub fn nominal_setup(&self) -> Duration {
        self.ivshmem_plug * 2 + self.serial_rtt * 4
    }
}

fn sleep_nonzero(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_lands_near_100ms() {
        let nominal = LatencyModel::paper().nominal_setup();
        assert!(
            nominal >= Duration::from_millis(80) && nominal <= Duration::from_millis(120),
            "nominal setup {nominal:?} strays from the paper's ~100 ms"
        );
    }

    #[test]
    fn zero_model_never_sleeps_long() {
        let m = LatencyModel::zero();
        let start = std::time::Instant::now();
        m.sleep_plug();
        m.sleep_serial();
        m.sleep_unplug();
        assert!(start.elapsed() < Duration::from_millis(5));
    }
}
