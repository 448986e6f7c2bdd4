//! The process-wide private segment, in a process of its own so that no
//! other test's packets share its census:
//!
//! 1. a `from_slice` packet and its `duplicate` each take one slot and one
//!    slab write, cross a ring as descriptors, adopt through a resolver and
//!    give their slots back on drop;
//! 2. a full segment refuses `alloc_from` and `duplicate` with `None`,
//!    counting each refusal in `alloc_failures`;
//! 3. a `from_slice` longer than a slot holds panics and says why.

use dpdk_sim::arena::Resolver;
use dpdk_sim::mbuf::MBUF_MAX_LEN;
use dpdk_sim::{spsc_ring, Arena, Mbuf, MbufDesc, DEFAULT_BUF_SIZE};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests that read the segment's census: the test harness
/// runs them on parallel threads of this one process.
fn census() -> MutexGuard<'static, ()> {
    static CENSUS: Mutex<()> = Mutex::new(());
    CENSUS.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn a_slice_packet_and_its_copy_hop_as_descriptors_and_come_home() {
    let _census = census();
    let private = Arena::private();
    let start = private.stats();
    assert_eq!(start.capacity, DEFAULT_BUF_SIZE);

    let mut m = Mbuf::from_slice(&[1, 2, 3, 4]);
    m.set_udata(0x77);
    let copy = m.duplicate().expect("a free slot");
    let s = private.stats();
    assert_eq!(s.in_use, start.in_use + 2);
    assert_eq!(
        s.slab_writes - start.slab_writes,
        2,
        "one slab write per copy"
    );
    assert_ne!(m.slot(), copy.slot(), "the copy has a slot of its own");

    let (mut tx, mut rx) = spsc_ring::<MbufDesc>(4);
    tx.enqueue(m.into_desc()).unwrap();
    tx.enqueue(copy.into_desc()).unwrap();
    let mut resolver = Resolver::default();
    let got: Vec<Mbuf> = std::iter::from_fn(|| rx.dequeue())
        .map(|desc| resolver.adopt(desc).expect("the segment is never unmapped"))
        .collect();
    assert_eq!(got.len(), 2);
    for m in &got {
        assert_eq!(m.segment_id(), private.segment_id());
        assert_eq!((m.data(), m.udata()), (&[1, 2, 3, 4][..], 0x77));
    }
    assert_eq!(
        private.stats().slab_writes - start.slab_writes,
        2,
        "a hop writes no packet byte"
    );

    drop(got);
    let full = Mbuf::from_slice(&[0xee; MBUF_MAX_LEN]);
    assert_eq!((full.len(), full.tailroom()), (MBUF_MAX_LEN, 0));
    drop(full);
    let end = private.stats();
    assert_eq!(end.in_use, start.in_use, "every slot came home");
    assert_eq!(end.foreign_frees, 0);
}

#[test]
fn a_full_segment_refuses_and_counts() {
    let _census = census();
    let private = Arena::private();
    let start = private.stats();
    let held: Vec<Mbuf> = (start.in_use..start.capacity)
        .map(|_| private.alloc_from(&[0; 64]).expect("a free slot"))
        .collect();
    assert_eq!(private.stats().alloc_failures, start.alloc_failures);

    assert!(private.alloc_from(&[0; 64]).is_none());
    assert_eq!(private.stats().alloc_failures, start.alloc_failures + 1);
    assert!(held[0].duplicate().is_none(), "a flood copy is dropped");
    assert_eq!(private.stats().alloc_failures, start.alloc_failures + 2);

    drop(held);
    assert_eq!(private.stats().in_use, start.in_use);
    assert!(private.alloc_from(&[0; 64]).is_some(), "slots are reused");
}

#[test]
#[should_panic(expected = "Mbuf::from_slice: 1921 bytes exceed the 1920 a slot holds")]
fn an_oversize_slice_panics_with_its_length() {
    Mbuf::from_slice(&[0; MBUF_MAX_LEN + 1]);
}
