//! Byte representation of [`ClusterMessage`] for socket transports: the
//! format's specification.
//!
//! A message is written in one pass, straight from the struct to the frame
//! and back, with the vocabulary of `aeon_types::codec`.  This module only
//! *lists*: each type's fields appear once, in wire order, and that list
//! drives both directions.
//!
//! # Frame
//!
//! ```text
//! [u8 version = 2][u8 message tag][fields of that variant, in listed order]
//! ```
//!
//! Version 1 was a tagged `Value` tree; nothing persists it and no decoder
//! for it remains.  The transport's own header (`u32` length, `u32` from,
//! `u32` to — [`FRAME_OVERHEAD`] bytes) goes in front and is not part of
//! the payload.
//!
//! # Tags
//!
//! The tag table is the `wire! { enum … }` list of [`ClusterMessage`] at
//! the end of this module, and three lists elsewhere: the ones of
//! [`DirOp`](aeon_runtime::DirOp) and [`DirReply`](aeon_runtime::DirReply),
//! which sit beside their types in `aeon_runtime::deployment` (the orphan
//! rule puts the impls there, as for `SubEvent`), and the one beside
//! `AeonError`'s `Wire` impl in `aeon_types::codec`: `tag => Variant`, one
//! byte each.  Tags are part of the format: a new variant takes a fresh tag, a retired tag is not
//! reused, and declaration order means nothing here.  Retired: message tags
//! 0 and 24 (older `Host`s, the last with an escrow token) and 11–20 (the
//! migration and snapshot-freeze messages); `DirOp` tags 2 (`MayCall`) and
//! 3 (`ClassOf`); `DirReply` tags 1 (`Flag`) and 5 (`Class`).
//!
//! # Fields
//!
//! | field type | bytes |
//! |---|---|
//! | `u64`, `ContextId`, `EventId`, `ClientId` | 8, big-endian |
//! | `ServerId` | 4, big-endian |
//! | `usize` | as `u64`; refused on read if it does not fit the host |
//! | `bool`, `AccessMode` (1 = read-only) | 1 byte, 0 or 1 |
//! | `String` | `u32` length, UTF-8 bytes |
//! | `Value` (a state, a result) | tag-length-value as in `aeon_types::codec`, no version byte |
//! | `Args`, `Vec<T>` | `u32` count, the elements |
//! | `Option<T>` | 1 byte (1 = present), then `T` if present |
//! | `Result<T>` | 1 byte (1 = `Ok`), then `T` or the `AeonError` |
//! | `Box<T>`, tuples, the structs listed below | their parts in order, nothing added |
//! | `SubEvent` | likewise; listed beside the type in `aeon-runtime` (the orphan rule puts the impl there) |
//! | `LatencyHistogram` | four `u64` scalars, then `u32` count of `(usize bucket, u64 n)` for the non-empty buckets |
//!
//! # What `decode_wire` refuses
//!
//! Another version byte, an unknown tag (of a message, a directory
//! operation or reply, an error, a value), a buffer that ends early, a
//! flag byte other than 0 or 1, a string that is not UTF-8, a histogram
//! bucket out of range, a `usize` too wide for the host, an element count
//! whose elements cannot fit in the bytes that remain at their type's
//! `Wire::MIN_LEN` each (checked before anything is reserved),
//! a `Value` nested deeper than `codec::MAX_DEPTH`, and bytes left over
//! after the message — each as `AeonError::Codec`, never a panic.  Every
//! variant, including structured errors inside `Result` fields, survives
//! a round trip exactly, which is what lets a cluster run as N OS
//! processes with no semantic drift from the in-process channel
//! deployment.

use crate::message::{ClusterMessage, EventDescriptor, NodeMetrics};
use aeon_net::WireMessage;
use aeon_types::{codec, wire, Result};

/// Bytes of the TCP frame header (`u32` length + `u32` from + `u32` to).
const FRAME_OVERHEAD: u64 = 12;

/// First byte of every payload.
const WIRE_VERSION: u8 = 2;

/// Encoded size of `message` on the wire, including the frame header: the
/// encoder run against a counter.  The channel transport uses this as its
/// sizer so `NetworkStats` byte counters agree between channel and TCP runs
/// of the same workload.
pub(crate) fn message_wire_len(message: &ClusterMessage) -> u64 {
    FRAME_OVERHEAD + codec::framed_len(WIRE_VERSION, message) as u64
}

impl WireMessage for ClusterMessage {
    fn encode_wire(&self) -> Result<Vec<u8>> {
        // An `Exec` with a short method name and three arguments is 80 bytes.
        let mut out = Vec::with_capacity(128);
        self.encode_wire_into(&mut out)?;
        Ok(out)
    }

    fn encode_wire_into(&self, out: &mut Vec<u8>) -> Result<()> {
        codec::put_framed(WIRE_VERSION, self, out);
        Ok(())
    }

    fn decode_wire(bytes: &[u8]) -> Result<Self> {
        codec::get_framed(WIRE_VERSION, bytes)
    }
}

wire! { struct EventDescriptor { id, client, corr, target, method, args, mode } }
wire! { struct NodeMetrics {
    server, context_count, queue_depth, latency,
} }

wire! { enum ClusterMessage {
    1 => HostAck { corr, context, result },
    2 => DirReq { corr, from, op },
    3 => DirAck { corr, reply },
    4 => Act { event, sequencer },
    5 => Exec { event, sequencer },
    6 => ExecCertified { event },
    7 => Call { event, mode, client, caller, target, method, args, reply_to, corr },
    8 => CallReply { corr, result, participants, sub_events },
    9 => Release { event },
    10 => Done { corr, event, result, sub_events },
    21 => MetricsReq { corr },
    22 => MetricsAck { corr, metrics },
    23 => Shutdown,
    25 => Host { corr, context, class, state, reply_to },
} }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{gateway_id, virtual_root};
    use aeon_runtime::{DirOp, DirReply, SubEvent};
    use aeon_types::codec::{ByteCount, Wire};
    use aeon_types::{
        AccessMode, AeonError, Args, ClientId, ContextId, EventId, LatencyHistogram, ServerId,
        Value,
    };
    use proptest::prelude::*;

    fn cx(n: u64) -> ContextId {
        ContextId::new(n)
    }

    fn srv(n: u32) -> ServerId {
        ServerId::new(n)
    }

    fn evt(n: u64) -> EventId {
        EventId::new(n)
    }

    fn desc() -> EventDescriptor {
        EventDescriptor {
            id: evt(9),
            client: Some(ClientId::new(4)),
            corr: u64::MAX - 1,
            target: cx(7),
            method: "transfer".into(),
            args: Args::new(vec![Value::from(1i64), Value::Str("x".into())]),
            mode: AccessMode::Exclusive,
        }
    }

    fn sub() -> SubEvent {
        SubEvent {
            target: cx(3),
            method: "tick".into(),
            args: Args::empty(),
            mode: AccessMode::ReadOnly,
        }
    }

    fn roundtrip(message: &ClusterMessage) {
        let bytes = message.encode_wire().expect("encode");
        let back = ClusterMessage::decode_wire(&bytes).expect("decode");
        assert_eq!(&back, message);
        assert_eq!(
            message_wire_len(message),
            bytes.len() as u64 + FRAME_OVERHEAD,
            "sizer must match the encoder for {message:?}"
        );
    }

    /// At least one message of every variant, the `Result` fields of the
    /// acknowledgements in both arms.
    fn samples() -> Vec<ClusterMessage> {
        let state = Value::map([
            ("balance", Value::from(10i64)),
            ("tags", Value::from(vec![Value::from(vec![0xffu8, 0x00])])),
        ]);
        vec![
            ClusterMessage::Host {
                corr: 1,
                context: cx(2),
                class: "Account".into(),
                state: state.clone(),
                reply_to: gateway_id(),
            },
            ClusterMessage::HostAck {
                corr: 1,
                context: cx(2),
                result: Ok(()),
            },
            ClusterMessage::HostAck {
                corr: 1,
                context: cx(2),
                result: Err(AeonError::Config("no factory for Account".into())),
            },
            ClusterMessage::DirReq {
                corr: 3,
                from: srv(1),
                op: DirOp::CreateOwned {
                    owner: cx(5),
                    class: "Item".into(),
                },
            },
            ClusterMessage::DirReq {
                corr: 3,
                from: srv(1),
                op: DirOp::ChildrenOf {
                    parent: virtual_root(),
                    class: Some("Player".into()),
                },
            },
            ClusterMessage::DirReq {
                corr: 4,
                from: srv(1),
                op: DirOp::Subtree(cx(5)),
            },
            ClusterMessage::DirReq {
                corr: 5,
                from: srv(1),
                op: DirOp::PathOwners(cx(1), cx(5)),
            },
            ClusterMessage::DirAck {
                corr: 3,
                reply: Ok(DirReply::Contexts(vec![cx(1), cx(2)])),
            },
            ClusterMessage::DirAck {
                corr: 3,
                reply: Err(AeonError::ownership(cx(1), cx(2))),
            },
            ClusterMessage::Act {
                event: desc(),
                sequencer: virtual_root(),
            },
            ClusterMessage::Exec {
                event: desc(),
                sequencer: Some((gateway_id(), cx(1))),
            },
            ClusterMessage::Exec {
                event: desc(),
                sequencer: None,
            },
            ClusterMessage::ExecCertified { event: desc() },
            ClusterMessage::Call {
                event: evt(9),
                mode: AccessMode::ReadOnly,
                client: None,
                caller: cx(1),
                target: cx(2),
                method: "peek".into(),
                args: Args::new(vec![Value::Null]),
                reply_to: srv(0),
                corr: 11,
            },
            ClusterMessage::CallReply {
                corr: 11,
                result: Ok(Value::Float(2.5)),
                participants: vec![srv(0), srv(3)],
                sub_events: vec![sub()],
            },
            ClusterMessage::CallReply {
                corr: 11,
                result: Err(AeonError::Panicked {
                    reason: "boom".into(),
                }),
                participants: vec![],
                sub_events: vec![],
            },
            ClusterMessage::Release { event: evt(9) },
            ClusterMessage::Done {
                corr: 12,
                event: evt(9),
                result: Ok(Value::Null),
                sub_events: vec![sub(), sub()],
            },
            ClusterMessage::MetricsReq { corr: 18 },
            ClusterMessage::MetricsAck {
                corr: 18,
                metrics: Box::new(NodeMetrics {
                    server: srv(1),
                    context_count: 3,
                    queue_depth: 2,
                    latency: {
                        let mut h = LatencyHistogram::new();
                        h.record(120);
                        h.record(90_000);
                        h
                    },
                }),
            },
            ClusterMessage::Shutdown,
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for message in &samples() {
            roundtrip(message);
        }
    }

    /// Whether `T::MIN_LEN` is at most what `value` encodes to: were it
    /// more, an honest count of `T`s would be refused.
    fn within_min_len<T: Wire>(value: &T) -> bool {
        let mut len = ByteCount::default();
        value.put(&mut len);
        T::MIN_LEN <= len.0
    }

    #[test]
    fn no_counted_element_is_shorter_than_its_min_len() {
        for message in &samples() {
            assert!(within_min_len(message), "{message:?}");
            let fits = match message {
                ClusterMessage::Act { event, .. }
                | ClusterMessage::Exec { event, .. }
                | ClusterMessage::ExecCertified { event } => {
                    within_min_len(event) && event.args.iter().all(within_min_len)
                }
                ClusterMessage::CallReply {
                    participants,
                    sub_events,
                    ..
                } => {
                    participants.iter().all(within_min_len) && sub_events.iter().all(within_min_len)
                }
                ClusterMessage::Done { sub_events, .. } => sub_events.iter().all(within_min_len),
                ClusterMessage::DirAck {
                    reply: Ok(DirReply::Contexts(contexts)),
                    ..
                } => contexts.iter().all(within_min_len),
                ClusterMessage::MetricsAck { metrics, .. } => within_min_len(&**metrics),
                _ => true,
            };
            assert!(fits, "{message:?}");
        }
    }

    fn errors() -> Vec<AeonError> {
        vec![
            AeonError::ContextNotFound(cx(1)),
            AeonError::ServerNotFound(srv(2)),
            AeonError::EventNotFound(evt(3)),
            AeonError::CycleDetected {
                from: cx(1),
                to: cx(2),
            },
            AeonError::ClassCycleDetected {
                description: "A -> B -> A".into(),
            },
            AeonError::ownership(cx(1), cx(2)),
            AeonError::OwnershipViolation {
                caller: cx(1),
                callee: cx(2),
                detail: Some("class Item may not own class Player".into()),
            },
            AeonError::AnalysisRejected {
                errors: 2,
                report: "AEON002 uncovered call edge\nAEON003 ro unsound".into(),
            },
            AeonError::ReadOnlyViolation {
                context: cx(1),
                method: "set".into(),
            },
            AeonError::UnknownMethod {
                class: "Room".into(),
                method: "warp".into(),
            },
            AeonError::BadArguments {
                method: "incr".into(),
                reason: "arity".into(),
            },
            AeonError::Application("declined".into()),
            AeonError::Panicked {
                reason: "oops".into(),
            },
            AeonError::MigrationInProgress(cx(1)),
            AeonError::MigrationFailed {
                context: cx(1),
                reason: "late".into(),
            },
            AeonError::SnapshotFailed {
                context: cx(1),
                reason: "torn".into(),
            },
            AeonError::RuntimeShutdown,
            AeonError::Storage("cas".into()),
            AeonError::EventAborted {
                event: evt(3),
                reason: "crash".into(),
            },
            AeonError::SendQueueFull { peer: srv(4) },
            AeonError::Codec("short".into()),
            AeonError::Config("bad".into()),
            AeonError::Internal("bug".into()),
        ]
    }

    #[test]
    fn every_error_variant_survives_the_wire() {
        for err in errors() {
            roundtrip(&ClusterMessage::Done {
                corr: 1,
                event: evt(1),
                result: Err(err),
                sub_events: vec![],
            });
        }
    }

    /// `payload` behind the version byte.
    fn framed(payload: &[u8]) -> Vec<u8> {
        [&[WIRE_VERSION][..], payload].concat()
    }

    fn refusal(bytes: &[u8]) -> String {
        match ClusterMessage::decode_wire(bytes) {
            Err(AeonError::Codec(why)) => why,
            other => panic!("expected a codec error for {bytes:?}, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_payloads_are_rejected_not_panicked() {
        refusal(&[]);
        refusal(&[0xde, 0xad, 0xbe, 0xef]);
        // A well-formed `Value` is not a message, and it starts with the
        // version byte the old tree format used: the refusal names it.
        let old = codec::encode(&Value::from(vec!["Shutdown"]));
        assert!(refusal(&old).contains("version 1"), "{}", refusal(&old));
        assert!(refusal(&framed(&[200])).contains("unknown ClusterMessage tag 200"));
        // `Shutdown` has no fields: one more byte is trailing.
        assert!(refusal(&framed(&[23, 0])).contains("trailing"));
        // `Release` needs eight bytes of event id.
        refusal(&framed(&[9, 0, 0, 0]));
        // `Exec`'s `client` flag must be 0 or 1.
        let exec = [&[5][..], &9u64.to_be_bytes(), &[7]].concat();
        assert!(refusal(&framed(&exec)).contains("flag byte 7"));
        // `DirAck { corr, reply: Ok(<tag 9>) }`: no such directory reply.
        let ack = [&[3][..], &1u64.to_be_bytes(), &[1, 9]].concat();
        assert!(refusal(&framed(&ack)).contains("unknown DirReply tag 9"));
    }

    #[test]
    fn every_truncation_of_every_frame_is_refused() {
        for message in &samples() {
            let bytes = message.encode_wire().unwrap();
            for len in 0..bytes.len() {
                refusal(&bytes[..len]);
            }
        }
    }

    #[test]
    fn a_count_of_u32_max_with_nothing_behind_it_is_refused() {
        let corr = 1u64.to_be_bytes();
        let max = [0xff; 4];
        // `Done { corr, event, result: Ok(Null), sub_events: <u32::MAX> }`.
        let sub_events = [&[10][..], &corr, &corr, &[1, 0], &max].concat();
        // `CallReply { corr, result: Ok(Null), participants: <u32::MAX> }`.
        let participants = [&[8][..], &corr, &[1, 0], &max].concat();
        // `ExecCertified { id, client: None, corr, target, method: "", args: <u32::MAX> }`.
        let args = [&[6][..], &corr, &[0], &corr, &corr, &[0; 4], &max].concat();
        for payload in [sub_events, participants, args] {
            let why = refusal(&framed(&payload));
            assert!(why.contains("4294967295 elements announced"), "{why}");
        }
    }

    #[test]
    fn a_nested_value_bomb_in_a_state_is_refused_not_a_stack_overflow() {
        // `Host { corr, context, class: "", state: [[[[… }`: 200 000 list
        // headers, about 1 MB, far below the transport's frame limit.
        let mut payload = [&[25][..], &[0; 8], &[0; 8], &[0; 4]].concat();
        for _ in 0..200_000 {
            payload.extend_from_slice(&[8, 0, 0, 0, 1]);
        }
        assert!(refusal(&framed(&payload)).contains("nested deeper"));
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1.0e9f64..1.0e9).prop_map(Value::Float),
            "[a-z]{0,12}".prop_map(Value::from),
            proptest::collection::vec(any::<u8>(), 0..16).prop_map(Value::from),
            any::<u64>().prop_map(|n| Value::ContextRef(ContextId::new(n))),
        ];
        leaf.prop_recursive(3, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::from),
                proptest::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(Value::map),
            ]
        })
    }

    fn arb_result() -> impl Strategy<Value = Result<Value>> {
        prop_oneof![
            arb_value().prop_map(Ok),
            (0..errors().len()).prop_map(|i| Err(errors().swap_remove(i))),
        ]
    }

    fn arb_sub_events() -> impl Strategy<Value = Vec<SubEvent>> {
        let sub_event = (
            any::<u64>(),
            "[a-z]{0,8}",
            proptest::collection::vec(arb_value(), 0..3),
            any::<bool>(),
        )
            .prop_map(|(target, method, args, read_only)| SubEvent {
                target: cx(target),
                method,
                args: Args::new(args),
                mode: if read_only {
                    AccessMode::ReadOnly
                } else {
                    AccessMode::Exclusive
                },
            });
        proptest::collection::vec(sub_event, 0..3)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 5_000 }
        ))]

        #[test]
        fn random_states_and_args_round_trip(
            state in arb_value(),
            args in proptest::collection::vec(arb_value(), 0..4),
            corr in any::<u64>(),
            ctx_raw in any::<u64>(),
        ) {
            let host = ClusterMessage::Host {
                corr,
                context: ContextId::new(ctx_raw),
                class: "Fuzz".into(),
                state: state.clone(),
                reply_to: srv(1),
            };
            roundtrip(&host);
            let call = ClusterMessage::Call {
                event: evt(corr),
                mode: AccessMode::Exclusive,
                client: Some(ClientId::new(corr)),
                caller: cx(1),
                target: ContextId::new(ctx_raw),
                method: "m".into(),
                args: Args::new(args.clone()),
                reply_to: gateway_id(),
                corr,
            };
            roundtrip(&call);
            // The certified admission is its own tag: it must never decay
            // into a plain `Exec`.
            let certified = ClusterMessage::ExecCertified {
                event: EventDescriptor {
                    id: evt(corr),
                    client: Some(ClientId::new(corr)),
                    corr,
                    target: ContextId::new(ctx_raw),
                    method: "m".into(),
                    args: Args::new(args),
                    mode: AccessMode::ReadOnly,
                },
            };
            roundtrip(&certified);
        }

        #[test]
        fn random_results_and_sub_events_round_trip(
            result in arb_result(),
            sub_events in arb_sub_events(),
            participants in proptest::collection::vec(any::<u32>(), 0..4),
            corr in any::<u64>(),
        ) {
            prop_assert!(sub_events.iter().all(within_min_len));
            roundtrip(&ClusterMessage::Done {
                corr,
                event: evt(corr),
                result: result.clone(),
                sub_events: sub_events.clone(),
            });
            roundtrip(&ClusterMessage::CallReply {
                corr,
                result,
                participants: participants.into_iter().map(srv).collect(),
                sub_events,
            });
        }

        #[test]
        fn decode_returns_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let _ = ClusterMessage::decode_wire(&bytes);
            // Past the version check, where every byte reaches a reader.
            let _ = ClusterMessage::decode_wire(&framed(&bytes));
        }

        #[test]
        fn decode_returns_on_any_single_replaced_byte(
            which in any::<usize>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let samples = samples();
            let mut bytes = samples[which % samples.len()].encode_wire().unwrap();
            let at = at % bytes.len();
            bytes[at] = byte;
            // `Ok` or `Err`: a replaced map key may legitimately reorder or
            // collapse a `Value::Map`, so no re-encode equality is asked.
            let _ = ClusterMessage::decode_wire(&bytes);
        }
    }
}
