//! Property suite for the shared-arena allocator (satellite of the
//! zero-copy highway PR):
//!
//! 1. live handles never overlap — every allocated slot is distinct and
//!    writes through one handle are invisible through any other;
//! 2. exhaustion then free recovers full capacity, whichever way (a
//!    direct drop or an adopted handle) the frees went;
//! 3. a random interleaving of alloc (through either of two mappings) /
//!    into_desc→adopt / free keeps `allocs == frees + in_use` after every
//!    step and ends with a zero-leak census: `in_use == 0`,
//!    `available == capacity`, `foreign_frees == 0`;
//! 4. adopt succeeds at most once per `into_desc`, whether descriptors are
//!    adopted through the global table, through a resolver, or dropped
//!    unadopted — and the census is clean at the end;
//! 5. adopt returns the layout and metadata written before `into_desc`:
//!    the slot header travels with the slot, not in the token.

use dpdk_sim::arena::{adopt, Resolver};
use dpdk_sim::{Arena, Mbuf, MbufDesc, SlotHeader};
use proptest::prelude::*;

/// One step of the random-interleaving machine.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Allocate (through the first or the second mapping) and fill with a
    /// tag.
    Alloc { via_second: bool },
    /// Round-trip an arbitrary live handle through a descriptor + adopt.
    DescHop { pick: usize },
    /// Drop an arbitrary live handle.
    Free { pick: usize },
}

/// One step of the descriptor-lifetime machine.
#[derive(Debug, Clone, Copy)]
enum DescOp {
    Alloc,
    /// Turn a live handle into an in-flight descriptor.
    IntoDesc {
        pick: usize,
    },
    /// Adopt an in-flight descriptor (global table or a resolver).
    Adopt {
        pick: usize,
        via_resolver: bool,
    },
    /// Drop an in-flight descriptor unadopted.
    DropDesc {
        pick: usize,
    },
    /// Drop a live handle.
    Free {
        pick: usize,
    },
}

fn desc_op_strategy() -> impl Strategy<Value = DescOp> {
    prop_oneof![
        Just(DescOp::Alloc),
        (0usize..64).prop_map(|pick| DescOp::IntoDesc { pick }),
        ((0usize..64), proptest::bool::ANY)
            .prop_map(|(pick, via_resolver)| DescOp::Adopt { pick, via_resolver }),
        (0usize..64).prop_map(|pick| DescOp::DropDesc { pick }),
        (0usize..64).prop_map(|pick| DescOp::Free { pick }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::bool::ANY.prop_map(|via_second| Op::Alloc { via_second }),
        (0usize..64).prop_map(|pick| Op::DescHop { pick }),
        (0usize..64).prop_map(|pick| Op::Free { pick }),
    ]
}

/// Tag written into a slot at allocation time, checked on every observation.
fn tag(i: usize) -> [u8; 4] {
    let b = (i as u32).to_le_bytes();
    [b[0], b[1], b[2], b[3]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn live_handles_never_overlap(cap in 1usize..32, extra in 0usize..8) {
        let arena = Arena::new("props", cap, 256);
        let want = cap + extra; // over-ask: the tail must fail, not alias
        let mut live: Vec<Mbuf> = Vec::new();
        for i in 0..want {
            match arena.alloc_from(&tag(i)) {
                Some(m) => live.push(m),
                None => prop_assert!(live.len() == cap, "failed before exhaustion"),
            }
        }
        prop_assert_eq!(live.len(), cap);
        // Distinct slots, and every handle still reads its own tag — a
        // write through any overlapping handle would have clobbered one.
        let mut slots: Vec<u32> = live.iter().map(|m| m.slot()).collect();
        slots.sort_unstable();
        slots.dedup();
        prop_assert_eq!(slots.len(), cap, "two live handles share a slot");
        for (i, m) in live.iter().enumerate() {
            prop_assert_eq!(m.data(), &tag(i));
        }
    }

    #[test]
    fn exhaustion_then_free_recovers_full_capacity(
        cap in 1usize..32,
        free_adopted in proptest::collection::vec(proptest::bool::ANY, 32..33),
    ) {
        let arena = Arena::new("props", cap, 256);
        let live: Vec<Mbuf> = (0..cap).map(|i| arena.alloc_from(&tag(i)).unwrap()).collect();
        prop_assert!(arena.alloc().is_none());
        // Free each handle a randomly chosen way: direct drop, or a
        // descriptor hop and a drop of the adopted handle.
        for (i, m) in live.into_iter().enumerate() {
            if free_adopted[i % free_adopted.len()] {
                drop(adopt(m.into_desc()).unwrap());
            } else {
                drop(m);
            }
        }
        prop_assert!(arena.census_clean(), "census: {:?}", arena.stats());
        // Full capacity is allocatable again.
        let again: Vec<_> = (0..cap).map(|_| arena.alloc().unwrap()).collect();
        prop_assert_eq!(again.len(), cap);
    }

    #[test]
    fn random_interleaving_ends_with_zero_leak_census(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        cap in 1usize..16,
    ) {
        let arena = Arena::new("props", cap, 256);
        let second = arena.clone();
        let mut live: Vec<(usize, Mbuf)> = Vec::new();
        let mut next_id = 0usize;
        for op in ops {
            match op {
                Op::Alloc { via_second } => {
                    let from = if via_second { &second } else { &arena };
                    if let Some(m) = from.alloc_from(&tag(next_id)) {
                        live.push((next_id, m));
                        next_id += 1;
                    }
                }
                Op::DescHop { pick } if !live.is_empty() => {
                    let (id, m) = live.swap_remove(pick % live.len());
                    let back = adopt(m.into_desc()).unwrap();
                    live.push((id, back));
                }
                Op::Free { pick } if !live.is_empty() => {
                    live.swap_remove(pick % live.len());
                }
                _ => {}
            }
            // Interleaving invariant: every live handle still reads the
            // bytes written at its allocation.
            for (id, m) in &live {
                prop_assert_eq!(m.data(), &tag(*id), "slot contents clobbered");
            }
            prop_assert_eq!(arena.in_use(), count_distinct_slots(&live));
            let s = arena.stats();
            prop_assert_eq!(s.allocs, s.frees + s.in_use as u64, "census: {:?}", s);
        }
        drop(live);
        prop_assert!(arena.census_clean(), "census: {:?}", arena.stats());
    }

    #[test]
    fn adopt_succeeds_at_most_once_per_into_desc(
        ops in proptest::collection::vec(desc_op_strategy(), 1..200),
        cap in 1usize..16,
    ) {
        let arena = Arena::new("props", cap, 256);
        let mut resolver = Resolver::default();
        let mut live: Vec<Mbuf> = Vec::new();
        let mut in_flight: Vec<MbufDesc> = Vec::new();
        let (mut made, mut adopted, mut dropped) = (0usize, 0usize, 0usize);
        for op in ops {
            match op {
                DescOp::Alloc => live.extend(arena.alloc_from(&tag(made))),
                DescOp::IntoDesc { pick } if !live.is_empty() => {
                    in_flight.push(live.swap_remove(pick % live.len()).into_desc());
                    made += 1;
                }
                DescOp::Adopt { pick, via_resolver } if !in_flight.is_empty() => {
                    let desc = in_flight.swap_remove(pick % in_flight.len());
                    let m = if via_resolver { resolver.adopt(desc) } else { adopt(desc) };
                    let m = m.expect("a mapped segment adopts its descriptor");
                    adopted += 1;
                    live.push(m);
                }
                DescOp::DropDesc { pick } if !in_flight.is_empty() => {
                    drop(in_flight.swap_remove(pick % in_flight.len()));
                    dropped += 1;
                }
                DescOp::Free { pick } if !live.is_empty() => {
                    live.swap_remove(pick % live.len());
                }
                _ => {}
            }
            prop_assert!(adopted <= made, "{adopted} adopts for {made} descriptors");
            prop_assert_eq!(adopted + dropped + in_flight.len(), made);
            // Every holder — handle or descriptor — names its own slot.
            let mut slots: Vec<u32> = live.iter().map(Mbuf::slot).collect();
            slots.extend(in_flight.iter().map(MbufDesc::slot));
            let held = slots.len();
            slots.sort_unstable();
            slots.dedup();
            prop_assert_eq!(slots.len(), held, "two holders share a slot");
            prop_assert_eq!(arena.in_use(), held);
        }
        drop((live, in_flight));
        prop_assert!(arena.census_clean(), "census: {:?}", arena.stats());
    }

    #[test]
    fn adopt_returns_the_header_written_before_into_desc(
        headers in proptest::collection::vec(
            (0u32..=256, 0u32..=256, any::<u32>(), any::<u64>(), any::<u64>()),
            1..32,
        ),
        via_resolver in proptest::bool::ANY,
    ) {
        let arena = Arena::new("props", 8, 256);
        let mut resolver = Resolver::default();
        let writes = arena.stats().slab_writes;
        for (data_off, len, port, udata, timestamp) in headers {
            let header = SlotHeader {
                data_off: data_off.min(256 - len.min(256)),
                len: len.min(256),
                port,
                udata,
                timestamp,
            };
            let mut m = arena.alloc().unwrap();
            m.set_header(header);
            let desc = m.into_desc();
            let back = if via_resolver { resolver.adopt(desc) } else { adopt(desc) };
            let back = back.expect("a mapped segment adopts its descriptor");
            prop_assert_eq!(back.header(), header);
        }
        prop_assert_eq!(arena.stats().slab_writes, writes, "a header write counted");
        prop_assert!(arena.census_clean(), "census: {:?}", arena.stats());
    }
}

fn count_distinct_slots(live: &[(usize, Mbuf)]) -> usize {
    let mut slots: Vec<u32> = live.iter().map(|(_, m)| m.slot()).collect();
    slots.sort_unstable();
    slots.dedup();
    slots.len()
}
