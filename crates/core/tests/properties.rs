//! Property-based tests of the core data structures and wire protocol.

use bytes::Bytes;
use nbkv_core::client::Ring;
use nbkv_core::proto::{
    ApiFlavor, OpStatus, Request, Response, ServedFrom, SetMode, StageTimes, INLINE_THRESHOLD,
};
use nbkv_core::server::slab::{
    parse_item_bytes, write_item_bytes, SlabConfig, SlabPool, ITEM_HEADER,
};
use nbkv_fabric::Frame;
use proptest::prelude::*;

fn arb_flavor() -> impl Strategy<Value = ApiFlavor> {
    prop_oneof![
        Just(ApiFlavor::Block),
        Just(ApiFlavor::NonBlockingI),
        Just(ApiFlavor::NonBlockingB),
    ]
}

fn arb_status() -> impl Strategy<Value = OpStatus> {
    prop_oneof![
        Just(OpStatus::Stored),
        Just(OpStatus::Hit),
        Just(OpStatus::Miss),
        Just(OpStatus::Deleted),
        Just(OpStatus::NotFound),
        Just(OpStatus::Exists),
        Just(OpStatus::NotStored),
        Just(OpStatus::Error),
    ]
}

fn arb_mode() -> impl Strategy<Value = SetMode> {
    prop_oneof![
        Just(SetMode::Set),
        Just(SetMode::Add),
        Just(SetMode::Replace),
        any::<u64>().prop_map(SetMode::Cas),
        Just(SetMode::Append),
        Just(SetMode::Prepend),
    ]
}

fn arb_stages() -> impl Strategy<Value = StageTimes> {
    (
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        any::<bool>(),
        0u8..3,
    )
        .prop_map(
            |((a, b, c, d), (recv, comm, store, ssd), ov, sf)| StageTimes {
                slab_alloc_ns: a as u64,
                check_load_ns: b as u64,
                cache_update_ns: c as u64,
                server_recv_at_ns: recv as u64,
                comm_done_at_ns: comm as u64,
                store_done_at_ns: store as u64,
                ssd_ns: ssd as u64,
                overlapped_flush: ov,
                served_from: match sf {
                    0 => ServedFrom::Ram,
                    1 => ServedFrom::Ssd,
                    _ => ServedFrom::None,
                },
                queue_depth: (a ^ d) & 0xffff,
            },
        )
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    prop::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

/// A value body: random bytes up to [`INLINE_THRESHOLD`] (copied into a
/// frame's head) or, as often, a patterned body above it (a segment of
/// its own).
fn arb_value() -> impl Strategy<Value = Bytes> {
    prop_oneof![
        arb_bytes(INLINE_THRESHOLD + 1),
        (INLINE_THRESHOLD + 1..3 * INLINE_THRESHOLD, any::<u8>()).prop_map(|(len, seed)| {
            Bytes::from(
                (0..len)
                    .map(|i| (i as u8).wrapping_mul(31) ^ seed)
                    .collect::<Vec<_>>(),
            )
        }),
    ]
}

/// Any request but a batch frame.
fn arb_request() -> impl Strategy<Value = Request> {
    (
        (any::<u64>(), arb_flavor(), 0u8..8),
        (any::<u32>(), any::<u64>(), any::<u64>(), any::<bool>()),
        arb_mode(),
        arb_bytes(256),
        arb_value(),
    )
        .prop_map(
            |((req_id, flavor, which), (flags, expire_at_ns, n, flag), mode, key, value)| {
                match which {
                    0 => Request::Set {
                        req_id,
                        flavor,
                        mode,
                        flags,
                        expire_at_ns,
                        key,
                        value,
                    },
                    1 => Request::Get {
                        req_id,
                        flavor,
                        key,
                    },
                    2 => Request::Counter {
                        req_id,
                        flavor,
                        key,
                        delta: n,
                        negative: flag,
                    },
                    3 => Request::Touch {
                        req_id,
                        flavor,
                        key,
                        expire_at_ns,
                    },
                    4 => Request::Stats { req_id, flavor },
                    5 => Request::WindowLease { req_id, flavor },
                    6 => Request::Replicate {
                        req_id,
                        flavor,
                        seq: n,
                        delete: flag,
                        flags,
                        expire_at_ns,
                        key,
                        value,
                    },
                    _ => Request::Delete {
                        req_id,
                        flavor,
                        key,
                    },
                }
            },
        )
}

/// Any response but a batch frame.
fn arb_response() -> impl Strategy<Value = Response> {
    (
        (any::<u64>(), arb_status(), arb_stages(), 0u8..5),
        (any::<u32>(), any::<u64>(), any::<u64>()),
        prop::option::of(arb_value()),
    )
        .prop_map(
            |((req_id, status, stages, which), (flags, cas, n), value)| match which {
                0 => Response::Set {
                    req_id,
                    status,
                    stages,
                },
                1 => Response::Get {
                    req_id,
                    status,
                    stages,
                    flags,
                    cas,
                    value,
                },
                2 => Response::Counter {
                    req_id,
                    status,
                    stages,
                    value: n,
                },
                3 => Response::ReplAck {
                    req_id,
                    status,
                    stages,
                    seq: n,
                },
                _ => Response::Delete {
                    req_id,
                    status,
                    stages,
                },
            },
        )
}

/// The value bodies of `req` and of its batch members, in order.
fn request_values(req: &Request) -> Vec<&Bytes> {
    match req {
        Request::Set { value, .. } | Request::Replicate { value, .. } => vec![value],
        Request::Batch { ops, .. } => ops.iter().flat_map(request_values).collect(),
        _ => Vec::new(),
    }
}

/// The value bodies of `resp` and of its batch members, in order.
fn response_values(resp: &Response) -> Vec<&Bytes> {
    match resp {
        Response::Get { value: Some(v), .. } => vec![v],
        Response::Batch { responses, .. } => responses.iter().flat_map(response_values).collect(),
        _ => Vec::new(),
    }
}

/// A decoded large value is the sender's buffer, not a copy of it.
fn large_values_alias(sent: Vec<&Bytes>, got: Vec<&Bytes>) -> Result<(), TestCaseError> {
    prop_assert_eq!(sent.len(), got.len());
    for (s, g) in sent.into_iter().zip(got) {
        if s.len() > INLINE_THRESHOLD {
            prop_assert_eq!(s.as_ptr(), g.as_ptr());
        }
    }
    Ok(())
}

/// `req` decodes back from its encoding, whose segments add up to the
/// length `wire_len` predicts; the same bytes in one buffer decode the same.
fn request_round_trips(req: &Request) -> Result<(), TestCaseError> {
    let wire = req.encode();
    prop_assert_eq!(
        wire.segments().map(Bytes::len).sum::<usize>(),
        req.wire_len()
    );
    let decoded = Request::decode(&wire).expect("decode");
    prop_assert_eq!(&decoded, req);
    large_values_alias(request_values(req), request_values(&decoded))?;
    let flat = Frame::from(wire.to_bytes());
    prop_assert_eq!(&Request::decode(&flat).expect("decode"), req);
    Ok(())
}

/// `resp` decodes back from its encoding, whose segments add up to the
/// length `wire_len` predicts; the same bytes in one buffer decode the same.
fn response_round_trips(resp: &Response) -> Result<(), TestCaseError> {
    let wire = resp.encode();
    prop_assert_eq!(
        wire.segments().map(Bytes::len).sum::<usize>(),
        resp.wire_len()
    );
    let decoded = Response::decode(&wire).expect("decode");
    prop_assert_eq!(&decoded, resp);
    large_values_alias(response_values(resp), response_values(&decoded))?;
    let flat = Frame::from(wire.to_bytes());
    prop_assert_eq!(&Response::decode(&flat).expect("decode"), resp);
    Ok(())
}

/// The first `cut` bytes of `frame`, keeping its segment boundaries.
fn truncate(frame: &Frame, cut: usize) -> Frame {
    let mut left = cut;
    Frame::from_segments(frame.segments().map(|s| {
        let n = s.len().min(left);
        left -= n;
        s.slice(..n)
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every well-formed request survives an encode/decode round trip.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        request_round_trips(&req)?;
    }

    /// Every well-formed response survives a round trip.
    #[test]
    fn response_roundtrip(resp in arb_response()) {
        response_round_trips(&resp)?;
    }

    /// Batch frames of random members, some with values over
    /// `INLINE_THRESHOLD`, survive a round trip, both ways.
    #[test]
    fn batch_roundtrip(
        req_id in any::<u64>(),
        flavor in arb_flavor(),
        ops in prop::collection::vec(arb_request(), 1..8),
        responses in prop::collection::vec(arb_response(), 1..8),
    ) {
        request_round_trips(&Request::batch(req_id, flavor, ops).expect("batch"))?;
        response_round_trips(&Response::batch(req_id, responses).expect("batch"))?;
    }

    /// Truncating a valid message, segments and all, never panics — it
    /// errors.
    #[test]
    fn truncated_decode_never_panics(
        key in prop::collection::vec(any::<u8>(), 0..64),
        value in arb_value(),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = Request::Set {
            req_id: 1,
            flavor: ApiFlavor::Block,
            mode: SetMode::Set,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from(key),
            value,
        };
        let wire = req.encode();
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        prop_assert!(Request::decode(&truncate(&wire, cut)).is_err());
    }

    /// Random bytes never panic the decoder, in one segment or split in
    /// two anywhere.
    #[test]
    fn garbage_decode_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        split_frac in 0.0f64..1.0,
    ) {
        let buf = Bytes::from(bytes);
        let at = ((buf.len() as f64) * split_frac) as usize;
        for frame in [
            Frame::from(buf.clone()),
            Frame::from_segments([buf.slice(..at), buf.slice(at..)]),
        ] {
            let _ = Request::decode(&frame);
            let _ = Response::decode(&frame);
        }
    }

    /// Slab items always parse back to what was written.
    #[test]
    fn slab_item_bytes_roundtrip(
        key in prop::collection::vec(any::<u8>(), 0..128),
        value in prop::collection::vec(any::<u8>(), 0..2048),
        flags in any::<u32>(),
        expire in any::<u64>(),
    ) {
        let mut buf = vec![0u8; ITEM_HEADER + key.len() + value.len()];
        let n = write_item_bytes(&mut buf, &key, &value, flags, expire);
        prop_assert_eq!(n, buf.len());
        let item = parse_item_bytes(&buf).expect("parse");
        prop_assert_eq!(&item.key[..], &key[..]);
        prop_assert_eq!(&item.value[..], &value[..]);
        prop_assert_eq!(item.flags, flags);
        prop_assert_eq!(item.expire_at_ns, expire);
    }

    /// Alloc/free cycles never lose or duplicate chunks.
    #[test]
    fn slab_alloc_free_conserves_chunks(
        item_len in 100usize..100_000,
        frees in prop::collection::vec(any::<bool>(), 1..60),
    ) {
        let mut pool = SlabPool::new(SlabConfig::with_mem(2 << 20));
        let class = pool.class_for(item_len).expect("fits a class");
        let mut live = Vec::new();
        for do_free in frees {
            if do_free && !live.is_empty() {
                pool.free_chunk(live.pop().expect("nonempty"));
            } else if let Some(id) = pool.try_alloc(class) {
                // No double allocation of the same chunk.
                prop_assert!(!live.contains(&id), "chunk {id} double-allocated");
                live.push(id);
            }
        }
        prop_assert_eq!(pool.stats().live_items, live.len() as u64);
    }

    /// The ring maps every key to a valid server, deterministically.
    #[test]
    fn ring_is_total_and_stable(servers in 1usize..32, keys in prop::collection::vec(any::<Vec<u8>>(), 1..50)) {
        let ring = Ring::new(servers);
        let ring2 = Ring::new(servers);
        for k in &keys {
            let s = ring.select(k);
            prop_assert!(s < servers);
            prop_assert_eq!(s, ring2.select(k));
        }
    }
}
