//! Rings with DPDK burst semantics.
//!
//! [`spsc_ring`] is a bespoke lock-free single-producer/single-consumer
//! bounded queue — the exact topology of a `dpdkr` port ring and of the
//! paper's bypass channels (one VM produces, one consumer drains). The
//! producer and consumer sides are *owned handles*, so the
//! single-producer/single-consumer discipline is enforced by the type system
//! instead of by convention.
//!
//! It is the only ring family: every switch port (a VM's or a NIC's) and
//! every bypass channel is a pair of them.

use crossbeam::utils::CachePadded;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Errors reported by ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The ring is full; the rejected value is returned to the caller.
    Full,
    /// The other endpoint has been dropped.
    Disconnected,
}

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
    /// enqueue (the classic SPSC optimisation DPDK also performs).
    cached_tail: usize,
}

/// Consuming endpoint of an SPSC ring. Send to exactly one thread.
pub struct SpscConsumer<T> {
    inner: Arc<SpscInner<T>>,
    cached_head: usize,
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

    /// Free slots currently available to this producer.
    pub fn free_space(&mut self) -> usize {
        let head = self.inner.head.load(Ordering::Relaxed);
        self.cached_tail = self.inner.tail.load(Ordering::Acquire);
        self.capacity() - head.wrapping_sub(self.cached_tail)
    }

    /// Enqueues one item; on a full ring the item is handed back.
    pub fn enqueue(&mut self, value: T) -> Result<(), T> {
        let head = self.inner.head.load(Ordering::Relaxed);
        if head.wrapping_sub(self.cached_tail) == self.capacity() {
            self.cached_tail = self.inner.tail.load(Ordering::Acquire);
            if head.wrapping_sub(self.cached_tail) == self.capacity() {
                return Err(value);
            }
        }
        let slot = &self.inner.buf[head & self.inner.mask];
        unsafe { (*slot.get()).write(value) };
        self.inner
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Enqueues one item, yielding to the scheduler and retrying up to
    /// `retries` times on a full ring before handing the item back — the
    /// bounded-backpressure push a PMD fan-out uses so one slow peer can
    /// stall a sender only briefly, never indefinitely.
    pub fn enqueue_yielding(&mut self, value: T, retries: usize) -> Result<(), T> {
        let mut value = value;
        for _ in 0..retries {
            match self.enqueue(value) {
                Ok(()) => return Ok(()),
                Err(back) => {
                    value = back;
                    std::thread::yield_now();
                }
            }
        }
        self.enqueue(value)
    }

    /// Enqueues as many items as fit, draining them from the front of
    /// `items`; returns how many were enqueued (DPDK burst semantics).
    pub fn enqueue_burst(&mut self, items: &mut Vec<T>) -> usize {
        let mut sent = 0;
        // drain() would be O(n) per item removed from the front; instead
        // enqueue in order and split off the remainder once.
        for item in items.iter() {
            // Check space without moving the item yet.
            let head = self.inner.head.load(Ordering::Relaxed);
            if head.wrapping_sub(self.cached_tail) == self.capacity() {
                self.cached_tail = self.inner.tail.load(Ordering::Acquire);
                if head.wrapping_sub(self.cached_tail) == self.capacity() {
                    break;
                }
            }
            let slot = &self.inner.buf[head & self.inner.mask];
            unsafe { (*slot.get()).write(std::ptr::read(item)) };
            self.inner
                .head
                .store(head.wrapping_add(1), Ordering::Release);
            sent += 1;
        }
        // The first `sent` items were moved out by ptr::read; forget them.
        unsafe {
            let remaining = items.len() - sent;
            let src = items.as_ptr().add(sent);
            let dst = items.as_mut_ptr();
            std::ptr::copy(src, dst, remaining);
            items.set_len(remaining);
        }
        sent
    }
}

impl<T> Drop for SpscProducer<T> {
    fn drop(&mut self) {
        self.inner.producer_alive.store(false, Ordering::Release);
    }
}

impl<T> SpscConsumer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

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

    /// Dequeues one item, or `None` on an empty ring.
    pub fn dequeue(&mut self) -> Option<T> {
        let tail = self.inner.tail.load(Ordering::Relaxed);
        if tail == self.cached_head {
            self.cached_head = self.inner.head.load(Ordering::Acquire);
            if tail == self.cached_head {
                return None;
            }
        }
        let slot = &self.inner.buf[tail & self.inner.mask];
        let value = unsafe { (*slot.get()).assume_init_read() };
        self.inner
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Dequeues up to `max` items into `out`; returns how many arrived.
    pub fn dequeue_burst(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut got = 0;
        while got < max {
            match self.dequeue() {
                Some(v) => {
                    out.push(v);
                    got += 1;
                }
                None => break,
            }
        }
        got
    }
}

impl<T> Drop for SpscConsumer<T> {
    fn drop(&mut self) {
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
    fn enqueue_yielding_retries_then_returns_item() {
        let (mut p, mut c) = spsc_ring::<u32>(2);
        p.enqueue(1).unwrap();
        p.enqueue(2).unwrap();
        // Full ring, nobody draining: the item comes back after the
        // bounded retries instead of blocking forever.
        assert_eq!(p.enqueue_yielding(3, 4), Err(3));
        c.dequeue();
        assert_eq!(p.enqueue_yielding(3, 4), Ok(()));
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
    fn free_space_tracks_occupancy() {
        let (mut p, mut c) = spsc_ring::<u8>(4);
        assert_eq!(p.free_space(), 4);
        p.enqueue(1).unwrap();
        p.enqueue(2).unwrap();
        assert_eq!(p.free_space(), 2);
        c.dequeue();
        assert_eq!(p.free_space(), 3);
        assert_eq!(c.len(), 1);
    }
}
