//! Property tests over the wire layer: the framer must reassemble valid
//! streams from arbitrary chunkings, and corrupted or truncated input must
//! produce errors — never a panic, never a mis-framed message.

use openflow::codec::{decode, encode};
use openflow::messages::{OfpMessage, PacketIn, PacketInReason};
use openflow::{Action, FlowMatch, FlowMod, Framer, PortNo};
use proptest::prelude::*;

/// A deterministic valid message picked by `seed`.
fn message(seed: u64) -> OfpMessage {
    match seed % 7 {
        0 => OfpMessage::Hello,
        1 => OfpMessage::EchoRequest((0..(seed % 16)).map(|b| b as u8).collect()),
        2 => OfpMessage::BarrierRequest,
        3 => OfpMessage::FeaturesRequest,
        4 => OfpMessage::FlowMod(
            FlowMod::add(
                FlowMatch::in_port(PortNo((seed % 64) as u16 + 1)),
                (seed % 500) as u16,
                vec![Action::Output(PortNo((seed % 48) as u16 + 1))],
            )
            .with_cookie(seed),
        ),
        5 => OfpMessage::PacketIn(PacketIn {
            in_port: PortNo((seed % 32) as u16 + 1),
            reason: PacketInReason::NoMatch,
            data: (0..(seed % 40)).map(|b| (b * 7) as u8).collect(),
        }),
        _ => OfpMessage::BarrierReply,
    }
}

/// Encodes `seeds` into one contiguous stream; returns the byte stream and
/// the expected `(message, xid)` sequence.
fn stream_of(seeds: &[u64]) -> (Vec<u8>, Vec<(OfpMessage, u32)>) {
    let mut bytes = Vec::new();
    let mut expect = Vec::new();
    for (i, &s) in seeds.iter().enumerate() {
        let msg = message(s);
        let xid = 1000 + i as u32;
        bytes.extend_from_slice(&encode(&msg, xid));
        expect.push((msg, xid));
    }
    (bytes, expect)
}

/// Drains every complete frame the framer will currently yield. Returns
/// frames until `Ok(None)` or an error; panicking here fails the property.
fn drain(framer: &mut Framer) -> (Vec<Vec<u8>>, Option<openflow::OfError>) {
    let mut frames = Vec::new();
    loop {
        match framer.poll_frame() {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any chunking of a valid stream reassembles to the identical message
    /// sequence.
    #[test]
    fn reassembles_across_random_splits(
        seeds in proptest::collection::vec(0u64..10_000, 1..6),
        chunk_seed in proptest::num::u64::ANY,
    ) {
        let (bytes, expect) = stream_of(&seeds);
        let mut framer = Framer::new();
        let mut got = Vec::new();
        let mut pos = 0usize;
        let mut rng = chunk_seed | 1;
        while pos < bytes.len() {
            // Cheap xorshift for chunk sizes in 1..=13 bytes.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let take = (1 + (rng % 13) as usize).min(bytes.len() - pos);
            framer.push(&bytes[pos..pos + take]);
            pos += take;
            let (frames, err) = drain(&mut framer);
            prop_assert!(err.is_none(), "valid stream poisoned the framer: {err:?}");
            for f in frames {
                got.push(decode(&f).expect("frame of a valid stream must decode"));
            }
        }
        prop_assert_eq!(framer.buffered(), 0);
        prop_assert_eq!(got, expect);
    }

    /// Flipping any single byte never panics: each complete frame either
    /// decodes or errors, framing errors poison the stream permanently, and
    /// no yielded frame ever disagrees with its own header length.
    #[test]
    fn single_byte_mutations_never_panic_or_misframe(
        seeds in proptest::collection::vec(0u64..10_000, 1..5),
        pos_seed in proptest::num::u64::ANY,
        flip in 1u8..=255,
    ) {
        let (mut bytes, _) = stream_of(&seeds);
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        let mut framer = Framer::new();
        framer.push(&bytes);
        let (frames, err) = drain(&mut framer);
        for f in &frames {
            // Framing invariant: the yielded slice is exactly as long as
            // its header claims, even for corrupt bodies.
            let hdr = openflow::OfpHeader::parse(f).expect("yielded frame has a header");
            prop_assert_eq!(hdr.length(), f.len());
            let _ = decode(f); // must not panic; Ok or Err both fine
        }
        if err.is_some() {
            prop_assert!(framer.is_poisoned());
            // Poisoned framers stay down: more input must change nothing.
            framer.push(&bytes);
            prop_assert!(framer.poll_frame().is_err());
        }
    }

    /// Truncating a valid stream yields only the frames wholly contained in
    /// the prefix; the tail stays buffered and is never emitted as a frame.
    #[test]
    fn truncation_withholds_partial_frames(
        seeds in proptest::collection::vec(0u64..10_000, 1..5),
        cut_seed in proptest::num::u64::ANY,
    ) {
        let (bytes, expect) = stream_of(&seeds);
        let cut = (cut_seed % bytes.len() as u64) as usize;
        let mut framer = Framer::new();
        framer.push(&bytes[..cut]);
        let (frames, err) = drain(&mut framer);
        prop_assert!(err.is_none(), "a prefix of a valid stream is valid");
        let consumed: usize = frames.iter().map(Vec::len).sum();
        prop_assert_eq!(consumed + framer.buffered(), cut);
        for (f, (want_msg, want_xid)) in frames.iter().zip(&expect) {
            let (msg, xid) = decode(f).expect("whole frames of a valid prefix decode");
            prop_assert_eq!(&msg, want_msg);
            prop_assert_eq!(xid, *want_xid);
        }
    }

    /// `decode` over arbitrary bytes returns `Err`, never panics.
    #[test]
    fn decode_survives_arbitrary_garbage(
        data in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
    ) {
        let _ = decode(&data); // Ok for accidental valid frames, Err otherwise
    }
}

// ---------------------------------------------------------------------------
// Length narrowing. Every length on the wire is 16 bits; `try_encode` checks
// the whole message against that once, in `OfpHeader::for_message`, and the
// three length fields *inside* bodies measure parts of a checked whole. One
// case per field: the largest message that fits round-trips, one byte more
// is refused — never encoded with a wrapped length.

use openflow::codec::{flow_stats_parts, try_encode, HEADER_LEN};
use openflow::messages::{FlowStatsEntry, PacketOut};
use openflow::OfError;

const FRAME_MAX: usize = 65_535;

fn assert_fits_exactly(msg: OfpMessage) {
    let bytes = try_encode(&msg, 7).expect("largest message that fits");
    assert_eq!(bytes.len(), FRAME_MAX);
    let mut framer = Framer::new();
    framer.push(&bytes);
    framer.push(&encode(&OfpMessage::BarrierRequest, 8));
    let frame = framer.poll_frame().unwrap().expect("one whole frame");
    assert_eq!(decode(&frame).unwrap(), (msg, 7));
    // The stream is still in step behind it.
    let next = framer.poll_frame().unwrap().expect("the frame behind it");
    assert_eq!(decode(&next).unwrap(), (OfpMessage::BarrierRequest, 8));
}

fn assert_refused(msg: OfpMessage, len: usize) {
    assert_eq!(
        try_encode(&msg, 7).unwrap_err(),
        OfError::Oversized {
            len,
            max: FRAME_MAX
        }
    );
}

fn outputs(n: usize) -> Vec<Action> {
    vec![Action::Output(PortNo(1)); n]
}

fn stats_entry(cookie: u64, n_actions: usize) -> FlowStatsEntry {
    FlowStatsEntry {
        fmatch: FlowMatch::in_port(PortNo(1)),
        priority: 10,
        cookie,
        duration_sec: 0,
        idle_timeout: 0,
        hard_timeout: 0,
        packet_count: cookie,
        byte_count: 64 * cookie,
        actions: outputs(n_actions),
    }
}

#[test]
fn header_length_is_checked_not_wrapped() {
    let room = FRAME_MAX - HEADER_LEN;
    assert_fits_exactly(OfpMessage::EchoRequest(vec![0xa5; room]));
    assert_refused(OfpMessage::EchoRequest(vec![0xa5; room + 1]), FRAME_MAX + 1);
}

#[test]
fn packet_in_total_len_is_checked_not_wrapped() {
    let packet_in = |n: usize| {
        OfpMessage::PacketIn(PacketIn {
            in_port: PortNo(1),
            reason: PacketInReason::NoMatch,
            data: vec![0x5a; n],
        })
    };
    let room = FRAME_MAX - HEADER_LEN - 10;
    assert_fits_exactly(packet_in(room));
    assert_refused(packet_in(room + 1), FRAME_MAX + 1);
    // Large enough that `total_len` alone would have wrapped to 4.
    assert_refused(packet_in(65_540), HEADER_LEN + 10 + 65_540);
}

#[test]
fn packet_out_actions_len_is_checked_not_wrapped() {
    let packet_out = |n_actions: usize, n_data: usize| {
        OfpMessage::PacketOut(PacketOut {
            in_port: PortNo::NONE,
            actions: outputs(n_actions),
            data: vec![0x11; n_data],
        })
    };
    // 8 189 actions of 8 bytes and 7 bytes of packet fill the frame.
    assert_fits_exactly(packet_out(8_189, 7));
    assert_refused(packet_out(8_189, 8), FRAME_MAX + 1);
    // 8 192 actions: `actions_len` alone would have wrapped to 0.
    assert_refused(packet_out(8_192, 0), HEADER_LEN + 8 + 65_536);
}

#[test]
fn flow_stats_entry_len_is_checked_not_wrapped() {
    // 8 179 actions make a 65 520-byte entry: 65 532 with the headers.
    let reply = OfpMessage::FlowStatsReply(vec![stats_entry(1, 8_179)]);
    let bytes = try_encode(&reply, 7).unwrap();
    assert_eq!(bytes.len(), 65_532);
    assert_eq!(decode(&bytes).unwrap(), (reply, 7));
    // One action more and the entry no longer fits any frame; 8 181 and
    // its own `length` field would have wrapped.
    for n in [8_180, 8_181, 9_000] {
        assert_refused(
            OfpMessage::FlowStatsReply(vec![stats_entry(1, n)]),
            HEADER_LEN + 4 + 88 + 8 * n,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However a table's entries are sized, `flow_stats_parts` yields
    /// messages that each fit a frame, flags all but the last `MORE`, and
    /// loses, duplicates and reorders nothing — through the codec and the
    /// framer, the way the controller receives them.
    #[test]
    fn flow_stats_parts_fit_frames_and_reassemble(
        action_counts in proptest::collection::vec(0usize..700, 0..120),
    ) {
        let entries: Vec<FlowStatsEntry> = action_counts
            .iter()
            .enumerate()
            .map(|(i, &n)| stats_entry(i as u64 + 1, n))
            .collect();
        let parts = flow_stats_parts(entries.clone());
        let mut framer = Framer::new();
        for part in &parts {
            let bytes = try_encode(part, 9);
            prop_assert!(bytes.is_ok(), "a part does not fit a frame: {:?}", bytes.err());
            framer.push(&bytes.unwrap());
        }
        let (frames, err) = drain(&mut framer);
        prop_assert!(err.is_none());
        prop_assert_eq!(frames.len(), parts.len());
        let mut got = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            match decode(f).expect("part decodes") {
                (OfpMessage::FlowStatsReplyMore(part), 9) => {
                    prop_assert!(i + 1 < frames.len(), "MORE on the last part");
                    prop_assert!(!part.is_empty(), "an empty part with MORE set");
                    got.extend(part);
                }
                (OfpMessage::FlowStatsReply(part), 9) => {
                    prop_assert_eq!(i + 1, frames.len(), "a part without MORE before the last");
                    got.extend(part);
                }
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
        prop_assert_eq!(got, entries);
    }
}
