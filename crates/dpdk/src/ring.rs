//! Rings with DPDK burst semantics.
//!
//! [`spsc_ring`] is a bespoke lock-free single-producer/single-consumer
//! bounded queue — the exact topology of a `dpdkr` port ring and of the
//! paper's bypass channels (one VM produces, one consumer drains). The
//! producer and consumer sides are *owned handles*, so the
//! single-producer/single-consumer discipline is enforced by the type system
//! instead of by convention.
//!
//! A burst pays per burst, the shape of `rte_ring_enqueue_burst`: it
//! reserves n slots, moves n items and publishes them with one Release
//! store of `head` (or `tail`). Single-item operations are one-item bursts.
//!
//! It is the only ring family: every switch port (a VM's or a NIC's) and
//! every bypass channel is a pair of them.

use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

struct SpscInner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer will write (monotonically increasing).
    head: CachePadded<AtomicUsize>,
    /// Next slot the consumer will read (monotonically increasing).
    tail: CachePadded<AtomicUsize>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
}

// Safety: only one producer thread touches `head`-side slots and only one
// consumer thread touches `tail`-side slots; the handles below guarantee
// that statically (they are Send but not Clone/Sync).
unsafe impl<T: Send> Send for SpscInner<T> {}
unsafe impl<T: Send> Sync for SpscInner<T> {}

impl<T> SpscInner<T> {
    fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        head.wrapping_sub(tail)
    }
}

impl<T> Drop for SpscInner<T> {
    fn drop(&mut self) {
        // Drain any items still queued so their destructors run.
        let head = *self.head.get_mut();
        let mut tail = *self.tail.get_mut();
        while tail != head {
            let slot = &self.buf[tail & self.mask];
            unsafe { (*slot.get()).assume_init_drop() };
            tail = tail.wrapping_add(1);
        }
    }
}

/// Producing endpoint of an SPSC ring. Send to exactly one thread.
pub struct SpscProducer<T> {
    inner: Arc<SpscInner<T>>,
    /// Cached consumer tail to avoid reading the shared atomic on every
    /// burst that fits (the classic SPSC optimisation DPDK also performs).
    cached_tail: usize,
}

/// Consuming endpoint of an SPSC ring. Send to exactly one thread.
pub struct SpscConsumer<T> {
    inner: Arc<SpscInner<T>>,
    cached_head: usize,
    /// Next slot to read, advanced per item before the item is handed
    /// out; `inner.tail` publishes it once per burst.
    tail: usize,
}

/// Creates an SPSC ring with capacity rounded up to a power of two
/// (minimum 2), like `rte_ring_create`.
pub fn spsc_ring<T>(capacity: usize) -> (SpscProducer<T>, SpscConsumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let inner = Arc::new(SpscInner {
        buf,
        mask: cap - 1,
        head: CachePadded::new(AtomicUsize::new(0)),
        tail: CachePadded::new(AtomicUsize::new(0)),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
    });
    (
        SpscProducer {
            inner: Arc::clone(&inner),
            cached_tail: 0,
        },
        SpscConsumer {
            inner,
            cached_head: 0,
            tail: 0,
        },
    )
}

impl<T> SpscProducer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// True when the consumer handle has been dropped.
    pub fn is_disconnected(&self) -> bool {
        !self.inner.consumer_alive.load(Ordering::Acquire)
    }

    /// Items currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free slots, at most `want`. The consumer's `tail` is read only when
    /// the cached view shows fewer than `want` free. Free space only grows
    /// under the one producer, so a burst of this size will fit.
    pub fn room(&mut self, want: usize) -> usize {
        let head = self.inner.head.load(Ordering::Relaxed);
        if self.capacity() - head.wrapping_sub(self.cached_tail) < want {
            self.cached_tail = self.inner.tail.load(Ordering::Acquire);
        }
        (self.capacity() - head.wrapping_sub(self.cached_tail)).min(want)
    }

    /// Moves items from `items` into free slots in order and publishes
    /// them with one Release store of `head`; returns how many moved. An
    /// item that does not fit is not taken from `items`.
    pub fn push_burst(&mut self, items: impl ExactSizeIterator<Item = T>) -> usize {
        let head = self.inner.head.load(Ordering::Relaxed);
        let (room, mut n) = (self.room(items.len()), 0);
        for item in items.take(room) {
            let slot = &self.inner.buf[head.wrapping_add(n) & self.inner.mask];
            // SAFETY: `room` counted this slot free: the consumer published
            // a `tail` past it (Acquire), so nothing reads or owns it.
            unsafe { (*slot.get()).write(item) };
            n += 1;
        }
        if n > 0 {
            self.inner
                .head
                .store(head.wrapping_add(n), Ordering::Release);
        }
        n
    }

    /// Enqueues one item; on a full ring the item is handed back.
    pub fn enqueue(&mut self, value: T) -> Result<(), T> {
        let mut item = Some(value).into_iter();
        self.push_burst(&mut item);
        item.next().map_or(Ok(()), Err)
    }

    /// Enqueues as many items as fit, draining them from the front of
    /// `items`; returns how many were enqueued (DPDK burst semantics).
    pub fn enqueue_burst(&mut self, items: &mut Vec<T>) -> usize {
        let n = self.room(items.len());
        self.push_burst(items.drain(..n))
    }
}

impl<T> Drop for SpscProducer<T> {
    fn drop(&mut self) {
        self.inner.producer_alive.store(false, Ordering::Release);
    }
}

impl<T> SpscConsumer<T> {
    /// True when the producer handle has been dropped.
    pub fn is_disconnected(&self) -> bool {
        !self.inner.producer_alive.load(Ordering::Acquire)
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands up to `max` queued items to `f` in FIFO order and publishes
    /// them with one Release store of `tail`; returns how many. The
    /// producer's `head` is read only when the cached view shows fewer
    /// than `max` queued. Should `f` panic, the items it was given stay
    /// consumed and the rest stay queued.
    pub fn pop_burst(&mut self, max: usize, mut f: impl FnMut(T)) -> usize {
        if self.cached_head.wrapping_sub(self.tail) < max {
            self.cached_head = self.inner.head.load(Ordering::Acquire);
        }
        let n = self.cached_head.wrapping_sub(self.tail).min(max);
        for _ in 0..n {
            let slot = &self.inner.buf[self.tail & self.inner.mask];
            self.tail = self.tail.wrapping_add(1);
            // SAFETY: the slot is below the `head` loaded with Acquire, so it
            // holds a written item; `tail` moved past it first, so it is read once.
            f(unsafe { (*slot.get()).assume_init_read() });
        }
        // Also catches up a publish that a panicking `f` skipped.
        if self.inner.tail.load(Ordering::Relaxed) != self.tail {
            self.inner.tail.store(self.tail, Ordering::Release);
        }
        n
    }

    /// Dequeues one item, or `None` on an empty ring.
    pub fn dequeue(&mut self) -> Option<T> {
        let mut item = None;
        self.pop_burst(1, |v| item = Some(v));
        item
    }

    /// Dequeues up to `max` items into `out`; returns how many arrived.
    pub fn dequeue_burst(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        self.pop_burst(max, |v| out.push(v))
    }
}

impl<T> Drop for SpscConsumer<T> {
    fn drop(&mut self) {
        // Publish what a panicking `pop_burst` consumer took: dropped once.
        self.inner.tail.store(self.tail, Ordering::Release);
        self.inner.consumer_alive.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (mut p, mut c) = spsc_ring::<u32>(8);
        for i in 0..8 {
            p.enqueue(i).unwrap();
        }
        assert_eq!(p.enqueue(99), Err(99));
        for i in 0..8 {
            assert_eq!(c.dequeue(), Some(i));
        }
        assert_eq!(c.dequeue(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = spsc_ring::<u8>(100);
        assert_eq!(p.capacity(), 128);
        let (p, _c) = spsc_ring::<u8>(0);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn burst_enqueue_partial_on_full() {
        let (mut p, mut c) = spsc_ring::<u32>(4);
        let mut items: Vec<u32> = (0..6).collect();
        assert_eq!(p.enqueue_burst(&mut items), 4);
        assert_eq!(items, vec![4, 5]);
        let mut out = Vec::new();
        assert_eq!(c.dequeue_burst(&mut out, 16), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn disconnect_is_visible_both_ways() {
        let (p, c) = spsc_ring::<u8>(2);
        assert!(!p.is_disconnected());
        drop(c);
        assert!(p.is_disconnected());

        let (p2, c2) = spsc_ring::<u8>(2);
        drop(p2);
        assert!(c2.is_disconnected());
    }

    #[test]
    fn queued_items_are_dropped_with_the_ring() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, c) = spsc_ring::<D>(4);
        p.enqueue(D).map_err(|_| ()).unwrap();
        p.enqueue(D).map_err(|_| ()).unwrap();
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn bursts_publish_once() {
        let (mut p, mut c) = spsc_ring::<u32>(8);
        let pushed =
            p.push_burst((0..5).inspect(|_| assert_eq!(c.len(), 0, "nothing visible mid-burst")));
        assert_eq!((pushed, c.len()), (5, 5));
        let popped = c.pop_burst(8, |_| assert_eq!(p.len(), 5, "no slot freed mid-burst"));
        assert_eq!((popped, p.len()), (5, 0));
    }

    #[test]
    fn a_panicking_pop_consumer_keeps_the_rest_queued() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D(u32);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, mut c) = spsc_ring::<D>(8);
        let mut items: Vec<D> = (0..5).map(D).collect();
        assert_eq!(p.enqueue_burst(&mut items), 5);
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.pop_burst(5, |d| assert_ne!(d.0, 1, "consumer fault"))
        }));
        assert!(fault.is_err());
        assert_eq!(DROPS.load(Ordering::SeqCst), 2, "items 0 and 1 consumed");
        assert_eq!(c.dequeue().map(|d| d.0), Some(2));
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 5, "each item dropped once");
    }

    #[test]
    fn two_thread_stress_preserves_sequence() {
        let (mut p, mut c) = spsc_ring::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut i = 0;
            while i < N {
                if p.enqueue(i).is_ok() {
                    i += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            match c.dequeue() {
                Some(v) => {
                    assert_eq!(v, expected);
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn two_thread_burst_stress() {
        let (mut p, mut c) = spsc_ring::<u64>(32);
        const N: u64 = 100_000;
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                let hi = (next + 8).min(N);
                let mut batch: Vec<u64> = (next..hi).collect();
                let sent = p.enqueue_burst(&mut batch) as u64;
                next += sent;
                if sent == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut out = Vec::new();
        let mut expected = 0u64;
        while expected < N {
            out.clear();
            if c.dequeue_burst(&mut out, 16) == 0 {
                std::thread::yield_now();
            }
            for v in &out {
                assert_eq!(*v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn room_tracks_occupancy() {
        let (mut p, mut c) = spsc_ring::<u8>(4);
        assert_eq!(p.room(4), 4);
        p.enqueue(1).unwrap();
        p.enqueue(2).unwrap();
        assert_eq!(p.room(4), 2);
        c.dequeue();
        assert_eq!(p.room(4), 3);
        assert_eq!(p.room(1), 1);
        assert_eq!(c.len(), 1);
    }
}
