//! # dpdk-sim
//!
//! A faithful, process-local substitute for the slice of DPDK that the paper's
//! system depends on: packet buffers ([`Mbuf`]), each a slot of an
//! [`Arena`] segment, single-producer/single-consumer rings with DPDK burst
//! semantics ([`ring`]), a TSC-style cycle clock ([`cycles`]) and the
//! lcore workers every polling loop runs on ([`lcore`]).
//!
//! ## Fidelity notes
//!
//! * `dpdkr` ports and the paper's bypass channels are *single-producer /
//!   single-consumer* ring pairs in shared memory. The bespoke
//!   [`ring::spsc_ring`] reproduces exactly that topology with an ownership-
//!   typed API (`SpscProducer` / `SpscConsumer` handles), so misuse is a
//!   compile error rather than a data race. It is the one ring family: a
//!   NIC port is the same channel as a VM's, paced at its wire end.
//! * Mbufs carry the few metadata fields the reproduction needs (input port,
//!   a 64-bit user scratch word and a timestamp) in a [`SlotHeader`] beside
//!   the layout. Each owns its slot exclusively and releases it on drop,
//!   like `rte_pktmbuf_free`. There is one packet type: a packet made
//!   where no shared arena is mapped takes a slot of the process-wide
//!   [`Arena::private`] segment.
//! * The shared-memory highway allocates from [`Arena`] segments whose
//!   handles are **offset-based** ([`MbufDesc`], one `u64` of segment id
//!   and slot; the header stays in the segment): valid in any process that
//!   maps the segment, moved (never shared) between holders, with one
//!   lock-free LIFO free stack per segment that every mapping allocates
//!   from and frees to — the representation an ivshmem BAR actually
//!   permits.

pub mod arena;
pub mod cycles;
pub mod lcore;
pub mod mbuf;
pub mod ring;

pub use arena::{Arena, ArenaStats, Mbuf, MbufDesc, SlotHeader, WeakArena};
pub use ring::{spsc_ring, SpscConsumer, SpscProducer};

/// Default mbuf slot size and the slot count of [`Arena::private`]: the
/// size of DPDK's `RTE_MBUF_DEFAULT_DATAROOM`. DPDK puts its headroom in
/// front of that room; a slot holds its 128-byte [`mbuf::MBUF_HEADROOM`]
/// inside, so the largest packet it takes is [`mbuf::MBUF_MAX_LEN`],
/// 1920 bytes: a 1500 B MTU frame plus slack.
pub const DEFAULT_BUF_SIZE: usize = 2048;

/// Default burst size used by PMD loops throughout the reproduction,
/// matching DPDK's customary `MAX_PKT_BURST`.
pub const DEFAULT_BURST: usize = 32;
