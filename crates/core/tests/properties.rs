//! Property-based tests of the core data structures and wire protocol.

use bytes::Bytes;
use nbkv_core::client::Ring;
use nbkv_core::proto::{ApiFlavor, OpStatus, Request, Response, ServedFrom, SetMode, StageTimes};
use nbkv_core::server::slab::{
    parse_item_bytes, write_item_bytes, SlabConfig, SlabPool, ITEM_HEADER,
};
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
                response_ns: d as u64,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every well-formed request survives an encode/decode round trip.
    #[test]
    fn request_roundtrip(
        req_id in any::<u64>(),
        flavor in arb_flavor(),
        flags in any::<u32>(),
        expire in any::<u64>(),
        key in prop::collection::vec(any::<u8>(), 0..256),
        value in prop::collection::vec(any::<u8>(), 0..4096),
        mode in arb_mode(),
        delta in any::<u64>(),
        negative in any::<bool>(),
        which in 0u8..6,
    ) {
        let key = Bytes::from(key);
        let req = match which {
            0 => Request::Set {
                req_id, flavor, mode, flags, expire_at_ns: expire,
                key, value: Bytes::from(value),
            },
            1 => Request::Get { req_id, flavor, key },
            2 => Request::Counter { req_id, flavor, key, delta, negative },
            3 => Request::Touch { req_id, flavor, key, expire_at_ns: expire },
            4 => Request::Stats { req_id, flavor },
            _ => Request::Delete { req_id, flavor, key },
        };
        let wire = req.encode();
        prop_assert_eq!(Request::decode(&wire).expect("decode"), req);
    }

    /// Every well-formed response survives a round trip.
    #[test]
    fn response_roundtrip(
        req_id in any::<u64>(),
        status in arb_status(),
        stages in arb_stages(),
        flags in any::<u32>(),
        value in prop::option::of(prop::collection::vec(any::<u8>(), 0..4096)),
        cas in any::<u64>(),
        counter in any::<u64>(),
        which in 0u8..4,
    ) {
        let resp = match which {
            0 => Response::Set { req_id, status, stages },
            1 => Response::Get {
                req_id, status, stages, flags, cas,
                value: value.map(Bytes::from),
            },
            2 => Response::Counter { req_id, status, stages, value: counter },
            _ => Response::Delete { req_id, status, stages },
        };
        let wire = resp.encode();
        prop_assert_eq!(Response::decode(&wire).expect("decode"), resp);
    }

    /// Truncating a valid message never panics — it errors.
    #[test]
    fn truncated_decode_never_panics(
        key in prop::collection::vec(any::<u8>(), 0..64),
        value in prop::collection::vec(any::<u8>(), 0..512),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = Request::Set {
            req_id: 1,
            flavor: ApiFlavor::Block,
            mode: SetMode::Set,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from(key),
            value: Bytes::from(value),
        };
        let wire = req.encode();
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        let _ = Request::decode(&wire.slice(..cut)); // must not panic
    }

    /// Random bytes never panic the decoder.
    #[test]
    fn garbage_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let buf = Bytes::from(bytes);
        let _ = Request::decode(&buf);
        let _ = Response::decode(&buf);
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
