//! The data plane on lcore workers, as the benchmark runs it: a node built
//! from a thread allowed one CPU puts its PMD and every guest on one
//! worker, which steps them round-robin. Delivery, per-flow order and the
//! arena census must hold there, and one guest's crash must not take its
//! neighbours on the worker down with it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnf_highway::dpdk::lcore;
use vnf_highway::prelude::*;
use vnf_highway::shmem::{channel, ChannelEnd};
use vnf_highway::testbed::Chain;
use vnf_highway::vnf::{Verdict, VnfApp};

/// Runs `f` on a thread allowed only the last CPU this one may use, so
/// every stepper it places shares that CPU's one worker; returns that CPU
/// and `f`'s result.
fn on_one_cpu<T: Send + 'static>(f: impl FnOnce(usize) -> T + Send + 'static) -> T {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let cpu = *lcore::allowed_cpus().last().expect("at least one CPU");
    std::thread::spawn(move || {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `set` is a readable cpu_set_t of the size passed; pid 0
        // is the calling thread, the only one whose mask this changes.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        assert_eq!(rc, 0, "confine the test thread to CPU {cpu}");
        assert_eq!(lcore::allowed_cpus(), vec![cpu]);
        f(cpu)
    })
    .join()
    .expect("the confined thread panicked")
}

/// The worker serving `cpu` alone, and the names of its steppers.
fn one_cpu_worker(cpu: usize) -> lcore::WorkerInfo {
    let mut on_cpu: Vec<_> = lcore::workers()
        .into_iter()
        .filter(|w| w.cpus == [cpu])
        .collect();
    assert_eq!(on_cpu.len(), 1, "one CPU, one worker: {on_cpu:?}");
    on_cpu.pop().expect("checked above")
}

fn send(end: &mut ChannelEnd, mut m: Mbuf) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while let Err(back) = end.send(m) {
        assert!(Instant::now() < deadline, "entry ring stayed full");
        m = back;
        std::thread::yield_now();
    }
}

/// Entry → 4 forwarders → exit, with the inner seams bypassed, built on
/// one CPU: five steppers (the PMD and four vCPUs) on one worker. Probes
/// of four flows go through it from the shared arena; then the node is
/// stopped and the guests shut down in the given order.
fn chain_on_one_worker(cpu: usize, vms_first: bool) {
    const FLOWS: u16 = 4;
    const PER_FLOW: u64 = 200;
    let Chain {
        node,
        mut entry,
        mut exit,
        dep,
    } = Chain::build(HighwayNodeConfig::default(), 4);

    let worker = one_cpu_worker(cpu);
    let mut mine: Vec<String> = (0..4).map(|i| format!("vm-vm{i}")).collect();
    mine.push("ovs-pmd-0".into());
    for name in &mine {
        assert!(
            worker.steppers.contains(name),
            "{name} is not on the CPU's worker: {:?}",
            worker.steppers
        );
    }

    let arena = node.registry().hugepage_arena();
    let (mut sent, mut next) = (0u64, HashMap::<u16, u64>::new());
    let total = u64::from(FLOWS) * PER_FLOW;
    let mut got = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    while got < total {
        assert!(Instant::now() < deadline, "{got} of {total} probes arrived");
        // At most 256 in flight: the arena and every ring keep room.
        if sent < total && sent - got < 256 {
            let flow = (sent % u64::from(FLOWS)) as u16;
            let frame = PacketBuilder::udp_probe(64)
                .ports(1000 + flow, 2000)
                .seq(sent / u64::from(FLOWS))
                .build();
            send(
                &mut entry,
                Mbuf::from_arena(arena.alloc_from(&frame).expect("arena slot")),
            );
            sent += 1;
        }
        while let Some(m) = exit.recv() {
            let key = FlowKey::extract(m.data());
            let seq = ProbeHeader::from_frame(m.data()).expect("intact probe").seq;
            let expect = next.entry(key.l4_src).or_insert(0);
            assert_eq!(seq, *expect, "flow {} out of order", key.l4_src);
            *expect += 1;
            got += 1;
        }
    }
    assert!(next.values().all(|&n| n == PER_FLOW), "{next:?}");

    if vms_first {
        for vm in &dep.vms {
            vm.shutdown();
        }
        node.stop();
    } else {
        node.stop();
        for vm in &dep.vms {
            vm.shutdown();
        }
    }
    let left = one_cpu_worker(cpu).steppers;
    assert!(
        mine.iter().all(|name| !left.contains(name)),
        "steppers outlived stop and shutdown: {left:?}"
    );
    assert!(
        arena.census_clean(),
        "census after teardown: in use {}, stats {:?}",
        arena.in_use(),
        arena.stats()
    );
}

#[test]
fn a_chain_built_on_one_cpu_shares_one_worker_in_order_and_leak_free() {
    on_one_cpu(|cpu| {
        chain_on_one_worker(cpu, false);
        chain_on_one_worker(cpu, true);
    });
}

/// A guest application that panics on its first packet.
struct Crasher;

impl VnfApp for Crasher {
    fn name(&self) -> &str {
        "crasher"
    }

    fn process(&mut self, _pkt: &mut Mbuf, _in_port_idx: usize) -> Verdict {
        panic!("guest application fault (injected by the test)");
    }
}

#[test]
fn a_panicking_guest_is_retired_and_its_worker_neighbour_keeps_forwarding() {
    on_one_cpu(|cpu| {
        let stats = StatsRegion::new();
        let (a0, mut to_doomed) = channel("crash-a0", 64);
        let (a1, _from_doomed) = channel("crash-a1", 64);
        let (b0, mut to_healthy) = channel("crash-b0", 64);
        let (b1, mut from_healthy) = channel("crash-b1", 64);
        let doomed: Arc<Vm> = Vm::launch(
            "doomed",
            vec![(1, a0), (2, a1)],
            Box::new(Crasher),
            stats.clone(),
        );
        let healthy = Vm::launch(
            "healthy",
            vec![(3, b0), (4, b1)],
            Box::new(L2Forwarder::new()),
            stats,
        );
        let names = one_cpu_worker(cpu).steppers;
        assert!(names.contains(&"vm-doomed".to_string()), "{names:?}");
        assert!(names.contains(&"vm-healthy".to_string()), "{names:?}");

        send(
            &mut to_doomed,
            Mbuf::from_slice(&PacketBuilder::udp_probe(64).build()),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while one_cpu_worker(cpu)
            .steppers
            .contains(&"vm-doomed".to_string())
        {
            assert!(
                Instant::now() < deadline,
                "the crashed guest was not retired"
            );
            std::thread::yield_now();
        }
        // Its shutdown returns: the worker dropped it already.
        doomed.shutdown();

        for seq in 0..100 {
            send(
                &mut to_healthy,
                Mbuf::from_slice(&PacketBuilder::udp_probe(64).seq(seq).build()),
            );
            let deadline = Instant::now() + Duration::from_secs(10);
            let m = loop {
                if let Some(m) = from_healthy.recv() {
                    break m;
                }
                assert!(Instant::now() < deadline, "probe {seq} not forwarded");
                std::thread::yield_now();
            };
            assert_eq!(ProbeHeader::from_frame(m.data()).map(|p| p.seq), Some(seq));
        }
        healthy.shutdown();
    });
}
