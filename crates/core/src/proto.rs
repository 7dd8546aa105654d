//! Wire protocol between the client library and the server.
//!
//! A compact binary framing (one message per request/response) in the
//! spirit of the memcached binary protocol, extended with what the paper's
//! design needs:
//!
//! - an [`ApiFlavor`] tag so the server can route non-blocking requests
//!   through the decoupled memory/SSD pipeline (Section V-B1);
//! - per-request [`StageTimes`] in every response: the server's split of
//!   its store phase and the absolute lifecycle stamps from which the
//!   client derives the time-wise breakdowns of Figures 2 and 6.
//!
//! Every layout is written once. Each message is one entry of a
//! `messages!` list: its opcode, then its fields in wire order. The enum,
//! `wire_len`, `encode` and `decode` are generated from that entry, so they
//! cannot disagree. All integers are big-endian.
//!
//! A message encodes to a [`Frame`], a gather list of byte segments. Every
//! opcode, fixed field, length prefix and byte body of at most
//! [`INLINE_THRESHOLD`] bytes goes into one head buffer; a longer body is
//! not copied but rides as a segment of its own, the caller's buffer
//! itself. The segments concatenate to the same wire bytes either way, and
//! `decode` hands such a body back as that segment.

use bytes::{BufMut, Bytes, BytesMut};
use nbkv_fabric::Frame;
use std::fmt;

/// Byte bodies at or below this size are copied into the frame's head
/// buffer, as the client copies them into pre-registered communication
/// buffers (like RDMA-Memcached's inline send path); larger ones go
/// zero-copy: the client registers them on first use and the frame
/// carries them as their own segment.
pub const INLINE_THRESHOLD: usize = 4 << 10;

/// True for a byte body that is sent as a segment of its own.
fn is_large(body: &[u8]) -> bool {
    body.len() > INLINE_THRESHOLD
}

/// How one message field sits on the wire. A message writes its opcode,
/// then every field's head in list order, then every field's body. A byte
/// field's head is its `u32` length, so all the length prefixes come
/// before all the bodies. A fixed-width field is all head.
trait Field: Sized {
    /// What the head decodes to on its own.
    type Head;
    /// Encoded size of head and body.
    fn wire_len(&self) -> usize;
    /// The part of [`Field::wire_len`] that is copied into the head buffer.
    fn inline_len(&self) -> usize {
        self.wire_len()
    }
    fn put_head(&self, w: &mut Writer);
    fn put_body(&self, w: &mut Writer);
    fn get_head(r: &mut Reader<'_>) -> Result<Self::Head, ProtoError>;
    fn get_body(head: Self::Head, r: &mut Reader<'_>) -> Result<Self, ProtoError>;
}

/// A fixed-width field: an integer, a one-byte code, or a struct of them.
trait Fixed: Sized {
    /// Encoded size in bytes.
    const LEN: usize;
    fn put(&self, b: &mut impl BufMut);
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError>;
}

impl<T: Fixed> Field for T {
    type Head = T;
    fn wire_len(&self) -> usize {
        T::LEN
    }
    fn put_head(&self, w: &mut Writer) {
        self.put(w);
    }
    fn put_body(&self, _: &mut Writer) {}
    fn get_head(r: &mut Reader<'_>) -> Result<T, ProtoError> {
        T::get(r)
    }
    fn get_body(head: T, _: &mut Reader<'_>) -> Result<T, ProtoError> {
        Ok(head)
    }
}

macro_rules! fixed_ints {
    ($($t:ty),*) => {$(
        impl Fixed for $t {
            const LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, b: &mut impl BufMut) {
                b.put_slice(&self.to_be_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                r.array().map(<$t>::from_be_bytes)
            }
        }
    )*};
}
fixed_ints!(u8, u32, u64);

/// One byte; any value but 1 reads as `false`.
impl Fixed for bool {
    const LEN: usize = u8::LEN;
    fn put(&self, b: &mut impl BufMut) {
        (*self as u8).put(b);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        Ok(u8::get(r)? == 1)
    }
}

/// Declares a fieldless enum carried as a one-byte code: each variant with
/// its code, and after the enum's name the `ProtoError` variant an unknown
/// code decodes to.
macro_rules! codes {
    ($(
        $(#[$meta:meta])*
        pub enum $name:ident / $bad:ident {
            $($(#[$vmeta:meta])* $var:ident = $code:literal,)*
        }
    )*) => {$(
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $var = $code,)*
        }

        impl Fixed for $name {
            const LEN: usize = u8::LEN;
            fn put(&self, b: &mut impl BufMut) {
                (*self as u8).put(b);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                match u8::get(r)? {
                    $($code => Ok($name::$var),)*
                    code => Err(ProtoError::$bad(code)),
                }
            }
        }
    )*};
}

codes! {
    /// Which API family issued a request.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ApiFlavor / BadFlavor {
        /// Blocking `set`/`get`: the client waits for the full response.
        Block = 0,
        /// `iset`/`iget`: issue returns immediately, no buffer-reuse guarantee.
        NonBlockingI = 1,
        /// `bset`/`bget`: issue returns once the user buffers are reusable.
        NonBlockingB = 2,
    }

    /// Result status of an operation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum OpStatus / BadStatus {
        /// Set stored the value.
        Stored = 0,
        /// Get found the key.
        Hit = 1,
        /// Get did not find the key (or it expired).
        Miss = 2,
        /// Delete removed the key.
        Deleted = 3,
        /// Delete found nothing to remove.
        NotFound = 4,
        /// Conditional store failed: the key exists (add) or the CAS token
        /// did not match.
        Exists = 6,
        /// Conditional store failed: the key does not exist (replace/append/
        /// prepend/incr on a missing key).
        NotStored = 7,
        /// Server-side failure (e.g. out of hybrid capacity).
        Error = 5,
    }

    /// Where a get was served from (for hit-rate accounting).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum ServedFrom / BadServedFrom {
        /// RAM slab.
        #[default]
        Ram = 0,
        /// SSD (hybrid store).
        Ssd = 1,
        /// Not served (miss / not applicable).
        None = 2,
    }
}

impl ApiFlavor {
    /// True for the non-blocking flavours (eligible for the server's
    /// asynchronous memory phase).
    pub fn is_nonblocking(self) -> bool {
        !matches!(self, ApiFlavor::Block)
    }
}

/// Conditional-store semantics for [`Request::Set`] (memcached's storage
/// command family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SetMode {
    /// Unconditional store (`set`).
    #[default]
    Set,
    /// Store only if the key is absent (`add`).
    Add,
    /// Store only if the key is present (`replace`).
    Replace,
    /// Store only if the entry's CAS token matches (`cas`).
    Cas(u64),
    /// Append to the existing value (`append`; keeps original flags and
    /// expiry).
    Append,
    /// Prepend to the existing value (`prepend`).
    Prepend,
}

/// A one-byte mode code, then the CAS token (0 unless `Cas`).
impl Fixed for SetMode {
    const LEN: usize = u8::LEN + u64::LEN;
    fn put(&self, b: &mut impl BufMut) {
        let (code, token) = match *self {
            SetMode::Set => (0u8, 0),
            SetMode::Add => (1, 0),
            SetMode::Replace => (2, 0),
            SetMode::Cas(token) => (3, token),
            SetMode::Append => (4, 0),
            SetMode::Prepend => (5, 0),
        };
        code.put(b);
        token.put(b);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        let (code, token) = (u8::get(r)?, u64::get(r)?);
        Ok(match code {
            0 => SetMode::Set,
            1 => SetMode::Add,
            2 => SetMode::Replace,
            3 => SetMode::Cas(token),
            4 => SetMode::Append,
            5 => SetMode::Prepend,
            _ => return Err(ProtoError::BadSetMode(code)),
        })
    }
}

/// Declares a struct of fixed-width fields, laid out in field order.
macro_rules! fixed_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl Fixed for $name {
            const LEN: usize = 0 $(+ <$ty as Fixed>::LEN)*;
            fn put(&self, b: &mut impl BufMut) {
                $(Fixed::put(&self.$field, b);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                Ok($name { $($field: Fixed::get(r)?,)* })
            }
        }
    };
}

fixed_struct! {
    /// Per-request server-side timings (virtual nanoseconds): stages 1-3
    /// of the six-stage breakdown of Section III-A, the server's own split
    /// of its store phase, plus the lifecycle stamps.
    ///
    /// The `*_at_ns` fields are **absolute** stamps on the shared simulation
    /// clock (all nodes run on one virtual clock, so client- and server-side
    /// stamps are directly comparable); the client combines them with its own
    /// issue/completion stamps into a full request-lifecycle timeline
    /// (`nbkv_obs::ReqTimeline`). A value of 0 means "not stamped". The
    /// other stages are measured at the client: stage 4 (server response)
    /// is that timeline's comm-out phase, stage 6 the backend miss penalty,
    /// and stage 5 (client wait) the rest of the op's latency.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StageTimes {
        /// Stage 1: slab allocation (including any eviction flush to SSD).
        pub slab_alloc_ns: u64,
        /// Stage 2: cache check and load (including SSD reads).
        pub check_load_ns: u64,
        /// Stage 3: cache (LRU) update.
        pub cache_update_ns: u64,
        /// Absolute stamp: server received the request.
        pub server_recv_at_ns: u64,
        /// Absolute stamp: communication phase done (parsed, and holding a
        /// staging slot for the worker pool or dispatched inline).
        pub comm_done_at_ns: u64,
        /// Absolute stamp: memory/SSD phase done (response about to be built).
        pub store_done_at_ns: u64,
        /// Duration within the store phase spent on SSD I/O (reads serving
        /// this request plus eviction flushes it waited on).
        pub ssd_ns: u64,
        /// True if the request arrived while a slab-eviction flush was in
        /// flight (the comm/memory overlap the non-blocking designs create).
        pub overlapped_flush: bool,
        /// Where the value came from.
        pub served_from: ServedFrom,
        /// Server load hint: requests sitting in the dispatch/staging queue
        /// when this response was built. The client's adaptive one-sided
        /// policy biases toward server-bypass direct reads when it grows.
        pub queue_depth: u32,
    }
}

fixed_struct! {
    /// Geometry of a server's RDMA-readable index window, exchanged through
    /// the [`Request::WindowLease`] handshake. Offsets are relative to the
    /// window base: `buckets` fixed-size descriptor slots of `desc_slot`
    /// bytes, then a value arena of `buckets` slots of `arena_slot` bytes
    /// starting at `arena_offset`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LeaseGeometry {
        /// Number of descriptor/arena buckets.
        pub buckets: u32,
        /// Bytes per descriptor slot.
        pub desc_slot: u32,
        /// Window offset where the value arena begins.
        pub arena_offset: u64,
        /// Bytes per arena slot (version copy + value capacity).
        pub arena_slot: u32,
    }
}

impl LeaseGeometry {
    /// Encoded size in bytes.
    pub const WIRE_LEN: usize = <Self as Fixed>::LEN;

    /// Encode as the value payload of a lease response.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(Self::WIRE_LEN);
        self.put(&mut b);
        b.freeze()
    }

    /// Decode from a lease response value.
    pub fn decode(buf: &Bytes) -> Result<LeaseGeometry, ProtoError> {
        Self::get(&mut Reader::new(&Frame::from(buf.clone())))
    }
}

/// A byte field: the head is its `u32` length, the body its bytes (in the
/// head buffer, or as a segment of its own when large).
impl Field for Bytes {
    type Head = usize;
    fn wire_len(&self) -> usize {
        u32::LEN + self.len()
    }
    fn inline_len(&self) -> usize {
        u32::LEN + if is_large(self) { 0 } else { self.len() }
    }
    fn put_head(&self, w: &mut Writer) {
        (self.len() as u32).put(w);
    }
    fn put_body(&self, w: &mut Writer) {
        w.body(self);
    }
    fn get_head(r: &mut Reader<'_>) -> Result<usize, ProtoError> {
        Ok(u32::get(r)? as usize)
    }
    fn get_body(len: usize, r: &mut Reader<'_>) -> Result<Bytes, ProtoError> {
        r.take(len)
    }
}

/// An optional byte field: a presence flag, then the byte field if present.
impl Field for Option<Bytes> {
    type Head = Option<usize>;
    fn wire_len(&self) -> usize {
        bool::LEN + self.as_ref().map_or(0, Field::wire_len)
    }
    fn inline_len(&self) -> usize {
        bool::LEN + self.as_ref().map_or(0, Field::inline_len)
    }
    fn put_head(&self, w: &mut Writer) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put_head(w);
        }
    }
    fn put_body(&self, w: &mut Writer) {
        if let Some(v) = self {
            v.put_body(w);
        }
    }
    fn get_head(r: &mut Reader<'_>) -> Result<Option<usize>, ProtoError> {
        if bool::get(r)? {
            Bytes::get_head(r).map(Some)
        } else {
            Ok(None)
        }
    }
    fn get_body(len: Option<usize>, r: &mut Reader<'_>) -> Result<Self, ProtoError> {
        len.map(|n| r.take(n)).transpose()
    }
}

/// Declares a message enum from one list: each variant's opcode and its
/// fields in wire order. Generates the enum, `req_id`, `wire_len`, `encode`
/// (through `encode_into`) and `decode`, and the field that carries a batch
/// frame's members: a `u32` count (never 0) as the head, then each member
/// behind its `u32` length. Every variant has a `req_id` field. The variant
/// named `Batch` is the direction's batch frame, which may not be a member
/// of another.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $var:ident = $op:literal {
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$vmeta])* $var { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        impl $name {
            /// The request id (echoed in a response; the frame id for a
            /// batch).
            pub fn req_id(&self) -> u64 {
                match self {
                    $($name::$var { req_id, .. } => *req_id,)*
                }
            }

            /// The batching invariants: at least one member, and none of
            /// them a batch.
            fn check_members(members: &[$name]) -> Result<(), ProtoError> {
                if members.is_empty() {
                    return Err(ProtoError::EmptyBatch);
                }
                if members.iter().any(|m| matches!(m, $name::Batch { .. })) {
                    return Err(ProtoError::NestedBatch);
                }
                Ok(())
            }

            /// Exact encoded size in bytes (excluding fabric frame overhead),
            /// computed without encoding: the client's coalescing queue
            /// sizes its byte threshold with it.
            pub fn wire_len(&self) -> usize {
                match self {
                    $($name::$var { $($field),* } => u8::LEN $(+ Field::wire_len($field))*,)*
                }
            }

            /// The part of [`Self::wire_len`] copied into the head
            /// buffer: all of it but the large byte bodies.
            fn inline_len(&self) -> usize {
                match self {
                    $($name::$var { $($field),* } => u8::LEN $(+ Field::inline_len($field))*,)*
                }
            }

            /// Bytes this message adds to a batch frame as a member: its
            /// `u32` length prefix plus its encoding.
            pub(crate) fn batch_member_len(&self) -> usize {
                u32::LEN + self.wire_len()
            }

            /// Encode to a wire frame of [`Self::wire_len`] bytes: one head
            /// buffer, plus each byte body over [`INLINE_THRESHOLD`] as a
            /// segment of its own (the field's buffer, not a copy).
            pub fn encode(&self) -> Frame {
                let mut w = Writer::with_capacity(self.inline_len());
                self.encode_into(&mut w);
                w.finish()
            }

            fn encode_into(&self, w: &mut Writer) {
                match self {
                    $($name::$var { $($field),* } => {
                        w.put_u8($op);
                        $(Field::put_head($field, w);)*
                        $(Field::put_body($field, w);)*
                    })*
                }
            }

            /// Decode from a wire frame, however it is segmented. Zero-copy:
            /// a byte field aliases the segment it lies in, so a large body
            /// sent as its own segment comes back as that very buffer.
            pub fn decode(frame: &Frame) -> Result<$name, ProtoError> {
                Self::decode_from(&mut Reader::new(frame))
            }

            // Inlined into `decode`, where the reader is a local: a
            // small message decodes ~15% faster (`proto/set_decode/64`).
            #[inline]
            fn decode_from(r: &mut Reader<'_>) -> Result<$name, ProtoError> {
                match u8::get(r)? {
                    $($op => {
                        $(let $field = <$ty as Field>::get_head(r)?;)*
                        Ok($name::$var {
                            $($field: <$ty as Field>::get_body($field, r)?,)*
                        })
                    })*
                    op => Err(ProtoError::BadOpcode(op)),
                }
            }
        }

        impl Field for Vec<$name> {
            type Head = usize;
            fn wire_len(&self) -> usize {
                u32::LEN + self.iter().map($name::batch_member_len).sum::<usize>()
            }
            fn inline_len(&self) -> usize {
                u32::LEN + self.iter().map(|m| u32::LEN + m.inline_len()).sum::<usize>()
            }
            fn put_head(&self, w: &mut Writer) {
                debug_assert!(!self.is_empty(), "empty batch frames are unencodable");
                (self.len() as u32).put(w);
            }
            fn put_body(&self, w: &mut Writer) {
                for m in self {
                    (m.wire_len() as u32).put(w);
                    m.encode_into(w);
                }
            }
            fn get_head(r: &mut Reader<'_>) -> Result<usize, ProtoError> {
                // Only a batch has members, so a member that reaches this
                // head is a nested batch: rejected before any of its own
                // members is read, however deep the nesting claims to go.
                if r.member {
                    return Err(ProtoError::NestedBatch);
                }
                match u32::get(r)? {
                    0 => Err(ProtoError::EmptyBatch),
                    count => Ok(count as usize),
                }
            }
            fn get_body(count: usize, r: &mut Reader<'_>) -> Result<Self, ProtoError> {
                // Every member brings at least its length prefix, so a forged
                // count reserves no more than the frame could hold.
                let mut members = Vec::with_capacity(count.min(r.remaining() / u32::LEN));
                r.member = true;
                for _ in 0..count {
                    let len = u32::get(r)? as usize;
                    let end = r.offset() + len;
                    members.push($name::decode_from(r)?);
                    // A member may not read past its length; bytes it
                    // leaves unread are skipped.
                    let rest = end.checked_sub(r.offset()).ok_or(ProtoError::Truncated)?;
                    r.skip(rest)?;
                }
                r.member = false;
                Ok(members)
            }
        }
    };
}

messages! {
    /// A client-to-server message. Every one leads with the issuing API
    /// family and the request id.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request {
        /// Store a key-value pair (plain or conditional; see [`SetMode`]).
        Set = 1 {
            /// Issuing API family.
            flavor: ApiFlavor,
            /// Client-assigned request id (unique per connection).
            req_id: u64,
            /// Conditional-store semantics.
            mode: SetMode,
            /// Opaque client flags (memcached semantics).
            flags: u32,
            /// Expiration in virtual ns since sim start; 0 = never.
            expire_at_ns: u64,
            /// Key bytes.
            key: Bytes,
            /// Value bytes.
            value: Bytes,
        },
        /// Fetch a value.
        Get = 2 {
            /// Issuing API family.
            flavor: ApiFlavor,
            /// Client-assigned request id.
            req_id: u64,
            /// Key bytes.
            key: Bytes,
        },
        /// Remove a key.
        Delete = 3 {
            /// Issuing API family.
            flavor: ApiFlavor,
            /// Client-assigned request id.
            req_id: u64,
            /// Key bytes.
            key: Bytes,
        },
        /// Arithmetic on a decimal-ASCII counter value (`incr`/`decr`).
        Counter = 4 {
            /// Issuing API family.
            flavor: ApiFlavor,
            /// Client-assigned request id.
            req_id: u64,
            /// Amount to add or subtract.
            delta: u64,
            /// True for `decr` (clamped at zero, memcached semantics).
            negative: bool,
            /// Key bytes.
            key: Bytes,
        },
        /// Update an entry's expiration without touching its value (`touch`).
        Touch = 5 {
            /// Issuing API family.
            flavor: ApiFlavor,
            /// Client-assigned request id.
            req_id: u64,
            /// New expiration (virtual ns since sim start; 0 = never).
            expire_at_ns: u64,
            /// Key bytes.
            key: Bytes,
        },
        /// Fetch a server observability snapshot (memcached's `stats`). The
        /// response is a `Get` whose value field holds the 37 big-endian `u64`
        /// words of a `StatsSnapshot`.
        Stats = 6 {
            /// Issuing API family.
            flavor: ApiFlavor,
            /// Client-assigned request id.
            req_id: u64,
        },
        /// One-sided window lease handshake: ask the server for the geometry
        /// of its RDMA-readable index window (models exchanging the rkey and
        /// layout at connection setup). The response is a `Get` whose value
        /// carries an encoded [`LeaseGeometry`]; a `Miss` means the server
        /// publishes no window.
        WindowLease = 8 {
            /// Issuing API family.
            flavor: ApiFlavor,
            /// Client-assigned request id.
            req_id: u64,
        },
        /// Primary-to-replica write propagation. The replica applies the new
        /// state iff `seq` is newer than every sequence number it has already
        /// applied for `key`, so out-of-order or retransmitted deliveries can
        /// never resurrect a stale value. Replication frames coalesce into
        /// [`Request::Batch`] doorbells on the server-to-server links, and the
        /// replica answers each op with a [`Response::ReplAck`].
        Replicate = 9 {
            /// Issuing API family (replication rides the non-blocking path).
            flavor: ApiFlavor,
            /// Primary-assigned request id (unique per peer link).
            req_id: u64,
            /// Per-key monotonic sequence number assigned by the serving
            /// server (derived from its store version counter, which survives
            /// warm restarts).
            seq: u64,
            /// True for a replicated delete: `value` is empty and the replica
            /// removes the key (the sequence number remains as a tombstone).
            delete: bool,
            /// Opaque client flags of the replicated value.
            flags: u32,
            /// Expiration of the replicated value (virtual ns; 0 = never).
            expire_at_ns: u64,
            /// Key bytes.
            key: Bytes,
            /// The full new value (empty for a delete).
            value: Bytes,
        },
        /// A doorbell-batched frame: several independent operations coalesced
        /// into one fabric message to amortize per-message overhead. Each
        /// member op keeps its own `req_id` (the client matches completions
        /// per op) and the server stamps per-op [`StageTimes`]. Batches never
        /// nest; build via [`Request::batch`] (empty batches are rejected).
        Batch = 7 {
            /// Issuing API family (decides the server's pipeline routing for
            /// the whole frame).
            flavor: ApiFlavor,
            /// Frame id (distinct from every member op's id).
            req_id: u64,
            /// The coalesced member operations.
            ops: Vec<Request>,
        },
    }
}

impl Request {
    /// Build a batch frame, validating the batching invariants: at least
    /// one member op, and no nested batches.
    pub fn batch(req_id: u64, flavor: ApiFlavor, ops: Vec<Request>) -> Result<Request, ProtoError> {
        Request::check_members(&ops)?;
        Ok(Request::Batch {
            req_id,
            flavor,
            ops,
        })
    }

    /// The issuing API family.
    pub fn flavor(&self) -> ApiFlavor {
        match self {
            Request::Set { flavor, .. }
            | Request::Get { flavor, .. }
            | Request::Delete { flavor, .. }
            | Request::Counter { flavor, .. }
            | Request::Stats { flavor, .. }
            | Request::WindowLease { flavor, .. }
            | Request::Touch { flavor, .. }
            | Request::Replicate { flavor, .. }
            | Request::Batch { flavor, .. } => *flavor,
        }
    }
}

messages! {
    /// A server-to-client message. Every one but a batch frame leads with
    /// the status, the echoed request id and the server stage timings.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        /// Outcome of a Set.
        Set = 129 {
            /// Operation status.
            status: OpStatus,
            /// Echoed request id.
            req_id: u64,
            /// Server stage timings.
            stages: StageTimes,
        },
        /// Outcome of a Get.
        Get = 130 {
            /// Operation status.
            status: OpStatus,
            /// Echoed request id.
            req_id: u64,
            /// Server stage timings.
            stages: StageTimes,
            /// Stored flags (valid on `Hit`).
            flags: u32,
            /// CAS token for a later [`SetMode::Cas`] (valid on `Hit`).
            cas: u64,
            /// The value on `Hit`.
            value: Option<Bytes>,
        },
        /// Outcome of a Delete.
        Delete = 131 {
            /// Operation status.
            status: OpStatus,
            /// Echoed request id.
            req_id: u64,
            /// Server stage timings.
            stages: StageTimes,
        },
        /// Outcome of an incr/decr.
        Counter = 132 {
            /// Operation status.
            status: OpStatus,
            /// Echoed request id.
            req_id: u64,
            /// Server stage timings.
            stages: StageTimes,
            /// The counter value after the operation (valid on `Stored`).
            value: u64,
        },
        /// Replica acknowledgement of a [`Request::Replicate`]:
        /// [`OpStatus::Stored`]/[`OpStatus::Deleted`] when the write was
        /// applied, [`OpStatus::NotStored`] when it was dropped as stale
        /// (an equal-or-newer sequence number had already been applied).
        ReplAck = 134 {
            /// Apply outcome.
            status: OpStatus,
            /// Echoed request id.
            req_id: u64,
            /// Server stage timings on the replica.
            stages: StageTimes,
            /// Echoed per-key sequence number.
            seq: u64,
        },
        /// A coalesced response frame for (part of) a [`Request::Batch`]: one
        /// completion wave's member responses in a single fabric message. The
        /// client matches each member to its op by the member's own `req_id`;
        /// per-op [`StageTimes`] live in the members. Never nests; build via
        /// [`Response::batch`].
        Batch = 133 {
            /// Echoed batch frame id.
            req_id: u64,
            /// Member responses completed in this wave.
            responses: Vec<Response>,
        },
    }
}

impl Response {
    /// Build a batch response frame, validating the batching invariants:
    /// at least one member, no nesting.
    pub fn batch(req_id: u64, responses: Vec<Response>) -> Result<Response, ProtoError> {
        Response::check_members(&responses)?;
        Ok(Response::Batch { req_id, responses })
    }

    /// The operation status. For a batch frame: [`OpStatus::Error`] if any
    /// member errored, otherwise [`OpStatus::Hit`] (per-member statuses
    /// live in the members).
    pub fn status(&self) -> OpStatus {
        match self {
            Response::Set { status, .. }
            | Response::Get { status, .. }
            | Response::Delete { status, .. }
            | Response::Counter { status, .. }
            | Response::ReplAck { status, .. } => *status,
            Response::Batch { responses, .. } => {
                if responses.iter().any(|r| r.status() == OpStatus::Error) {
                    OpStatus::Error
                } else {
                    OpStatus::Hit
                }
            }
        }
    }

    /// The server stage timings. A batch frame carries no frame-level
    /// stamps (each member has its own); it reports the default (unstamped)
    /// [`StageTimes`].
    pub fn stages(&self) -> StageTimes {
        match self {
            Response::Set { stages, .. }
            | Response::Get { stages, .. }
            | Response::Delete { stages, .. }
            | Response::Counter { stages, .. }
            | Response::ReplAck { stages, .. } => *stages,
            Response::Batch { .. } => StageTimes::default(),
        }
    }
}

/// Decode failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Message shorter than its framing claims.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown flavor byte.
    BadFlavor(u8),
    /// Unknown status byte.
    BadStatus(u8),
    /// Unknown served-from byte.
    BadServedFrom(u8),
    /// Unknown set-mode byte.
    BadSetMode(u8),
    /// A batch frame with zero member operations.
    EmptyBatch,
    /// A batch frame nested inside another batch frame.
    NestedBatch,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated message"),
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode {b}"),
            ProtoError::BadFlavor(b) => write!(f, "unknown flavor {b}"),
            ProtoError::BadStatus(b) => write!(f, "unknown status {b}"),
            ProtoError::BadServedFrom(b) => write!(f, "unknown served-from {b}"),
            ProtoError::BadSetMode(b) => write!(f, "unknown set mode {b}"),
            ProtoError::EmptyBatch => write!(f, "empty batch frame"),
            ProtoError::NestedBatch => write!(f, "nested batch frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Builds a frame: the head bytes in one buffer, and the large byte
/// bodies noted with the head offset they follow.
struct Writer {
    head: BytesMut,
    large: Vec<(usize, Bytes)>,
}

impl Writer {
    fn with_capacity(head_len: usize) -> Writer {
        Writer {
            head: BytesMut::with_capacity(head_len),
            large: Vec::new(),
        }
    }

    /// Append a byte body: copied when small, referred to when large.
    fn body(&mut self, body: &Bytes) {
        if is_large(body) {
            self.large.push((self.head.len(), body.clone()));
        } else {
            self.head.put_slice(body);
        }
    }

    /// The frame: the head buffer, cut where each large body goes.
    fn finish(self) -> Frame {
        let head = self.head.freeze();
        if self.large.is_empty() {
            return Frame::from(head);
        }
        let mut frame = Frame::default();
        let mut at = 0;
        for (cut, body) in self.large {
            frame.push(head.slice(at..cut));
            frame.push(body);
            at = cut;
        }
        frame.push(head.slice(at..));
        frame
    }
}

impl BufMut for Writer {
    fn put_slice(&mut self, s: &[u8]) {
        self.head.put_slice(s);
    }
}

/// Cursor over a frame's bytes, across its segments, with zero-copy
/// `take`.
struct Reader<'a> {
    frame: &'a Frame,
    /// The segment holding the next byte, its index, the offset there,
    /// and the bytes of the segments before it.
    cur: &'a Bytes,
    seg: usize,
    pos: usize,
    base: usize,
    /// True while reading a batch's members, where no batch may start.
    member: bool,
}

impl<'a> Reader<'a> {
    fn new(frame: &'a Frame) -> Self {
        Reader {
            frame,
            cur: frame.segment(0).expect("a frame has a first segment"),
            seg: 0,
            pos: 0,
            base: 0,
            member: false,
        }
    }

    /// Bytes read so far.
    fn offset(&self) -> usize {
        self.base + self.pos
    }

    fn remaining(&self) -> usize {
        self.frame.len() - self.offset()
    }

    /// The next `n` bytes if the current segment holds them all.
    fn within(&mut self, n: usize) -> Option<&'a [u8]> {
        let cur: &'a [u8] = self.cur;
        let out = cur.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(out)
    }

    /// Moves to the segment holding the next byte, if the current one is
    /// used up.
    fn next_segment(&mut self) -> Result<(), ProtoError> {
        while self.pos == self.cur.len() {
            let next = self
                .frame
                .segment(self.seg + 1)
                .ok_or(ProtoError::Truncated)?;
            self.base += self.cur.len();
            (self.cur, self.seg, self.pos) = (next, self.seg + 1, 0);
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        match self.within(N) {
            Some(b) => Ok(b.try_into().expect("`within` returns N bytes")),
            None => self.array_across(),
        }
    }

    /// An array that starts at or straddles a segment boundary.
    #[cold]
    fn array_across<const N: usize>(&mut self) -> Result<[u8; N], ProtoError> {
        Ok(self.sub_frame(N)?.to_bytes()[..]
            .try_into()
            .expect("a sub-frame of N bytes"))
    }

    /// The next `n` bytes: a slice of their segment when they lie in one
    /// (a large body, which begins a segment of its own, comes back as
    /// that segment), else a copy.
    fn take(&mut self, n: usize) -> Result<Bytes, ProtoError> {
        let at = self.pos;
        match self.within(n) {
            Some(_) => Ok(self.cur.slice(at..at + n)),
            None => self.take_across(n),
        }
    }

    /// [`Reader::take`] of bytes that start at or straddle a segment
    /// boundary.
    fn take_across(&mut self, n: usize) -> Result<Bytes, ProtoError> {
        self.next_segment()?;
        let at = self.pos;
        match self.within(n) {
            Some(_) => Ok(self.cur.slice(at..at + n)),
            None => Ok(self.sub_frame(n)?.to_bytes()),
        }
    }

    /// Steps over the next `n` bytes.
    fn skip(&mut self, n: usize) -> Result<(), ProtoError> {
        if self.within(n).is_none() {
            self.sub_frame(n)?;
        }
        Ok(())
    }

    /// The next `n` bytes as a frame of their own: slices of each segment
    /// they span, no bytes copied.
    fn sub_frame(&mut self, n: usize) -> Result<Frame, ProtoError> {
        if n > self.remaining() {
            return Err(ProtoError::Truncated);
        }
        let mut frame = Frame::default();
        let mut rest = n;
        while rest > 0 {
            self.next_segment()?;
            let k = rest.min(self.cur.len() - self.pos);
            frame.push(self.cur.slice(self.pos..self.pos + k));
            self.pos += k;
            rest -= k;
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stages() -> StageTimes {
        StageTimes {
            slab_alloc_ns: 123,
            check_load_ns: 456,
            cache_update_ns: 789,
            server_recv_at_ns: 10_000,
            comm_done_at_ns: 10_050,
            store_done_at_ns: 11_400,
            ssd_ns: 400,
            overlapped_flush: true,
            served_from: ServedFrom::Ssd,
            queue_depth: 3,
        }
    }

    #[test]
    fn set_request_round_trips() {
        let req = Request::Set {
            req_id: 77,
            flavor: ApiFlavor::NonBlockingB,
            mode: SetMode::Cas(0xFEED),
            flags: 0xDEAD,
            expire_at_ns: 5_000_000,
            key: Bytes::from_static(b"user:42"),
            value: Bytes::from(vec![9u8; 1000]),
        };
        let wire = req.encode();
        assert_eq!(Request::decode(&wire).unwrap(), req);
    }

    #[test]
    fn get_and_delete_round_trip() {
        for (req, op) in [
            (
                Request::Get {
                    req_id: 1,
                    flavor: ApiFlavor::Block,
                    key: Bytes::from_static(b"k"),
                },
                2u8,
            ),
            (
                Request::Delete {
                    req_id: 2,
                    flavor: ApiFlavor::NonBlockingI,
                    key: Bytes::from_static(b"gone"),
                },
                3u8,
            ),
        ] {
            let wire = req.encode();
            assert_eq!(wire.to_bytes()[0], op);
            assert_eq!(Request::decode(&wire).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Set {
                req_id: 9,
                status: OpStatus::Stored,
                stages: stages(),
            },
            Response::Get {
                req_id: 10,
                status: OpStatus::Hit,
                stages: stages(),
                flags: 7,
                cas: 99,
                value: Some(Bytes::from(vec![1u8; 333])),
            },
            Response::Counter {
                req_id: 13,
                status: OpStatus::Stored,
                stages: stages(),
                value: 1000,
            },
            Response::Get {
                req_id: 11,
                status: OpStatus::Miss,
                stages: StageTimes::default(),
                flags: 0,
                cas: 0,
                value: None,
            },
            Response::Delete {
                req_id: 12,
                status: OpStatus::NotFound,
                stages: stages(),
            },
        ];
        for resp in cases {
            let wire = resp.encode();
            assert_eq!(Response::decode(&wire).unwrap(), resp);
        }
    }

    #[test]
    fn decode_is_zero_copy() {
        let req = Request::Set {
            req_id: 1,
            flavor: ApiFlavor::Block,
            mode: SetMode::Set,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from_static(b"key"),
            value: Bytes::from(vec![5u8; 100]),
        };
        let wire = req.encode();
        let decoded = Request::decode(&wire).unwrap();
        if let Request::Set { value, .. } = decoded {
            // The decoded value aliases the frame's head buffer (no copy).
            let head = wire.segment(0).unwrap();
            let wire_range = head.as_ptr() as usize..head.as_ptr() as usize + head.len();
            assert!(wire_range.contains(&(value.as_ptr() as usize)));
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn truncated_messages_rejected() {
        let req = Request::Set {
            req_id: 1,
            flavor: ApiFlavor::Block,
            mode: SetMode::Set,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from_static(b"abc"),
            value: Bytes::from_static(b"defgh"),
        };
        let wire = req.encode();
        for cut in [0, 1, 5, 10, wire.len() - 1] {
            let partial = Frame::from(wire.to_bytes().slice(..cut));
            assert_eq!(
                Request::decode(&partial),
                Err(ProtoError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn bad_bytes_rejected() {
        assert_eq!(
            Request::decode(&Frame::from(Bytes::from_static(&[
                99, 0, 0, 0, 0, 0, 0, 0, 0, 0
            ]))),
            Err(ProtoError::BadOpcode(99))
        );
        assert_eq!(
            Request::decode(&Frame::from(Bytes::from_static(&[
                1, 9, 0, 0, 0, 0, 0, 0, 0, 0
            ]))),
            Err(ProtoError::BadFlavor(9))
        );
    }

    fn member_ops() -> Vec<Request> {
        vec![
            Request::Get {
                req_id: 101,
                flavor: ApiFlavor::NonBlockingI,
                key: Bytes::from_static(b"a"),
            },
            Request::Set {
                req_id: 102,
                flavor: ApiFlavor::NonBlockingI,
                mode: SetMode::Set,
                flags: 1,
                expire_at_ns: 0,
                key: Bytes::from_static(b"b"),
                value: Bytes::from(vec![3u8; 64]),
            },
            Request::Delete {
                req_id: 103,
                flavor: ApiFlavor::NonBlockingI,
                key: Bytes::from_static(b"c"),
            },
        ]
    }

    #[test]
    fn batch_request_round_trips_with_per_op_ids() {
        let req = Request::batch(9000, ApiFlavor::NonBlockingI, member_ops()).unwrap();
        let wire = req.encode();
        assert_eq!(wire.to_bytes()[0], 7);
        assert_eq!(wire.len(), req.wire_len());
        let decoded = Request::decode(&wire).unwrap();
        assert_eq!(decoded, req);
        if let Request::Batch { ops, .. } = decoded {
            assert_eq!(
                ops.iter().map(|op| op.req_id()).collect::<Vec<_>>(),
                vec![101, 102, 103],
                "member req-ids survive the frame"
            );
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn empty_batch_rejected_at_encode_and_decode() {
        assert_eq!(
            Request::batch(1, ApiFlavor::NonBlockingI, Vec::new()),
            Err(ProtoError::EmptyBatch)
        );
        assert_eq!(Response::batch(1, Vec::new()), Err(ProtoError::EmptyBatch));
        // A hand-rolled zero-count frame is rejected at decode too.
        let mut b = bytes::BytesMut::new();
        b.put_u8(7);
        b.put_u8(1);
        b.put_u64(1);
        b.put_u32(0);
        assert_eq!(
            Request::decode(&Frame::from(b.freeze())),
            Err(ProtoError::EmptyBatch),
            "zero-count request frame"
        );
        let mut b = bytes::BytesMut::new();
        b.put_u8(133);
        b.put_u64(1);
        b.put_u32(0);
        assert_eq!(
            Response::decode(&Frame::from(b.freeze())),
            Err(ProtoError::EmptyBatch),
            "zero-count response frame"
        );
    }

    #[test]
    fn forged_batch_count_is_truncated_not_an_allocation() {
        // A count of u32::MAX with no members behind it: the decoder must
        // not reserve room for four billion messages first.
        let request = [&[7u8, 0][..], &[0; 8], &[0xff; 4]].concat();
        assert_eq!(
            Request::decode(&Frame::from(Bytes::from(request))),
            Err(ProtoError::Truncated)
        );
        let response = [&[133u8][..], &[0; 8], &[0xff; 4]].concat();
        assert_eq!(
            Response::decode(&Frame::from(Bytes::from(response))),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn deep_batch_nesting_is_rejected_at_the_first_level() {
        // A forged frame of batch headers, each claiming one member that
        // is the rest of the frame: the decoder must reject the first
        // nested header, not recurse once per level and overflow its stack.
        const LEVELS: usize = 100_000;
        for (header, len) in [(&[7u8, 1][..], 18), (&[133u8][..], 17)] {
            let mut frame = Vec::with_capacity(LEVELS * len);
            for level in 0..LEVELS {
                frame.extend_from_slice(header);
                frame.extend_from_slice(&[0; 8]);
                frame.extend_from_slice(&1u32.to_be_bytes());
                frame.extend_from_slice(&(((LEVELS - level - 1) * len) as u32).to_be_bytes());
            }
            let frame = Frame::from(Bytes::from(frame));
            let got = match header[0] {
                7 => Request::decode(&frame).map(|_| ()),
                _ => Response::decode(&frame).map(|_| ()),
            };
            assert_eq!(got, Err(ProtoError::NestedBatch));
        }
    }

    #[test]
    fn nested_batches_rejected() {
        let inner = Request::batch(1, ApiFlavor::NonBlockingI, member_ops()).unwrap();
        assert_eq!(
            Request::batch(2, ApiFlavor::NonBlockingI, vec![inner]),
            Err(ProtoError::NestedBatch)
        );
        let inner = Response::batch(
            1,
            vec![Response::Set {
                req_id: 5,
                status: OpStatus::Stored,
                stages: stages(),
            }],
        )
        .unwrap();
        assert_eq!(
            Response::batch(2, vec![inner]),
            Err(ProtoError::NestedBatch)
        );
    }

    #[test]
    fn batch_response_round_trips_and_truncation_rejected() {
        let resp = Response::batch(
            9000,
            vec![
                Response::Get {
                    req_id: 101,
                    status: OpStatus::Hit,
                    stages: stages(),
                    flags: 0,
                    cas: 1,
                    value: Some(Bytes::from(vec![7u8; 20])),
                },
                Response::Set {
                    req_id: 102,
                    status: OpStatus::Stored,
                    stages: stages(),
                },
            ],
        )
        .unwrap();
        let wire = resp.encode();
        assert_eq!(wire.to_bytes()[0], 133);
        assert_eq!(Response::decode(&wire).unwrap(), resp);
        assert_eq!(resp.req_id(), 9000);
        assert_eq!(resp.status(), OpStatus::Hit);
        for cut in [0, 1, 8, 13, 20, wire.len() - 1] {
            assert_eq!(
                Response::decode(&Frame::from(wire.to_bytes().slice(..cut))),
                Err(ProtoError::Truncated),
                "cut={cut}"
            );
        }

        let req = Request::batch(9000, ApiFlavor::NonBlockingB, member_ops()).unwrap();
        let wire = req.encode();
        for cut in [1, 10, 13, 17, wire.len() - 1] {
            assert_eq!(
                Request::decode(&Frame::from(wire.to_bytes().slice(..cut))),
                Err(ProtoError::Truncated),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn wire_len_matches_encoding_for_all_variants() {
        let reqs = {
            let mut v = member_ops();
            v.push(Request::Counter {
                req_id: 104,
                flavor: ApiFlavor::Block,
                key: Bytes::from_static(b"ctr"),
                delta: 3,
                negative: true,
            });
            v.push(Request::Stats {
                req_id: 105,
                flavor: ApiFlavor::Block,
            });
            v.push(Request::WindowLease {
                req_id: 108,
                flavor: ApiFlavor::Block,
            });
            v.push(Request::Touch {
                req_id: 106,
                flavor: ApiFlavor::Block,
                key: Bytes::from_static(b"t"),
                expire_at_ns: 9,
            });
            v.push(Request::Replicate {
                req_id: 109,
                flavor: ApiFlavor::NonBlockingI,
                seq: 42,
                delete: false,
                flags: 3,
                expire_at_ns: 0,
                key: Bytes::from_static(b"rk"),
                value: Bytes::from(vec![8u8; 48]),
            });
            let members = member_ops();
            v.push(Request::batch(107, ApiFlavor::NonBlockingI, members).unwrap());
            v
        };
        for req in reqs {
            assert_eq!(req.encode().len(), req.wire_len(), "{req:?}");
        }
        // A batch is its empty frame's header plus each member's share,
        // which is what the client's coalescing queue counts per op.
        let members = member_ops();
        let header = Request::Batch {
            req_id: 107,
            flavor: ApiFlavor::NonBlockingI,
            ops: Vec::new(),
        }
        .wire_len();
        let shares: usize = members.iter().map(Request::batch_member_len).sum();
        let frame = Request::batch(107, ApiFlavor::NonBlockingI, members).unwrap();
        assert_eq!(frame.wire_len(), header + shares);
    }

    #[test]
    fn window_lease_round_trips() {
        let req = Request::WindowLease {
            req_id: 55,
            flavor: ApiFlavor::Block,
        };
        let wire = req.encode();
        assert_eq!(wire.to_bytes()[0], 8);
        assert_eq!(wire.len(), req.wire_len());
        assert_eq!(Request::decode(&wire).unwrap(), req);

        let geo = LeaseGeometry {
            buckets: 4096,
            desc_slot: 32,
            arena_offset: 4096 * 32,
            arena_slot: 4104,
        };
        let wire = geo.encode();
        assert_eq!(wire.len(), LeaseGeometry::WIRE_LEN);
        assert_eq!(LeaseGeometry::decode(&wire).unwrap(), geo);
        assert_eq!(
            LeaseGeometry::decode(&wire.slice(..10)),
            Err(ProtoError::Truncated)
        );
    }

    #[test]
    fn replicate_round_trips_standalone_and_batched() {
        let set = Request::Replicate {
            req_id: 900,
            flavor: ApiFlavor::NonBlockingI,
            seq: 0x1234_5678_9ABC,
            delete: false,
            flags: 0xF00D,
            expire_at_ns: 77,
            key: Bytes::from_static(b"repl-key"),
            value: Bytes::from(vec![6u8; 200]),
        };
        let del = Request::Replicate {
            req_id: 901,
            flavor: ApiFlavor::NonBlockingI,
            seq: 9,
            delete: true,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from_static(b"gone"),
            value: Bytes::new(),
        };
        for req in [&set, &del] {
            let wire = req.encode();
            assert_eq!(wire.to_bytes()[0], 9);
            assert_eq!(wire.len(), req.wire_len());
            assert_eq!(&Request::decode(&wire).unwrap(), req);
        }
        // Replication coalesces into doorbell batches like any other op.
        let frame = Request::batch(902, ApiFlavor::NonBlockingI, vec![set, del]).unwrap();
        let wire = frame.encode();
        assert_eq!(wire.len(), frame.wire_len());
        assert_eq!(Request::decode(&wire).unwrap(), frame);

        let ack = Response::ReplAck {
            req_id: 900,
            status: OpStatus::Stored,
            stages: stages(),
            seq: 0x1234_5678_9ABC,
        };
        let wire = ack.encode();
        assert_eq!(wire.to_bytes()[0], 134);
        assert_eq!(Response::decode(&wire).unwrap(), ack);
        let ack_frame = Response::batch(903, vec![ack]).unwrap();
        assert_eq!(
            Response::decode(&ack_frame.encode()).unwrap(),
            ack_frame,
            "acks ride batch response frames"
        );
    }

    #[test]
    fn queue_depth_hint_survives_responses() {
        let mut s = stages();
        s.queue_depth = 17;
        let resp = Response::Set {
            req_id: 1,
            status: OpStatus::Stored,
            stages: s,
        };
        let decoded = Response::decode(&resp.encode()).unwrap();
        assert_eq!(decoded.stages().queue_depth, 17);
    }

    /// Lower-case hex, two digits per byte, of a frame's segments in order.
    fn hex(frame: &Frame) -> String {
        frame
            .segments()
            .flat_map(|s| s.iter())
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// One literal encoding per message shape (fields separated by spaces),
    /// each decoding back to its value: the wire bytes may not move.
    #[test]
    fn every_variant_encodes_to_pinned_bytes() {
        let k = Bytes::from_static;
        let reqs = [
            (
                Request::Set {
                    req_id: 1,
                    flavor: ApiFlavor::NonBlockingB,
                    mode: SetMode::Cas(0xFEED),
                    flags: 7,
                    expire_at_ns: 9,
                    key: k(b"k"),
                    value: k(b"vv"),
                },
                "01 02 0000000000000001 03 000000000000feed 00000007 0000000000000009 \
                 00000001 00000002 6b 7676",
            ),
            (
                Request::Set {
                    req_id: 2,
                    flavor: ApiFlavor::Block,
                    mode: SetMode::Prepend,
                    flags: 0,
                    expire_at_ns: 0,
                    key: k(b"ab"),
                    value: k(b"c"),
                },
                "01 00 0000000000000002 05 0000000000000000 00000000 0000000000000000 \
                 00000002 00000001 6162 63",
            ),
            (
                Request::Get {
                    req_id: 3,
                    flavor: ApiFlavor::NonBlockingI,
                    key: k(b"g"),
                },
                "02 01 0000000000000003 00000001 67",
            ),
            (
                Request::Delete {
                    req_id: 4,
                    flavor: ApiFlavor::Block,
                    key: k(b"d"),
                },
                "03 00 0000000000000004 00000001 64",
            ),
            (
                Request::Counter {
                    req_id: 5,
                    flavor: ApiFlavor::Block,
                    key: k(b"n"),
                    delta: 10,
                    negative: true,
                },
                "04 00 0000000000000005 000000000000000a 01 00000001 6e",
            ),
            (
                Request::Touch {
                    req_id: 6,
                    flavor: ApiFlavor::NonBlockingI,
                    key: k(b"t"),
                    expire_at_ns: 11,
                },
                "05 01 0000000000000006 000000000000000b 00000001 74",
            ),
            (
                Request::Stats {
                    req_id: 7,
                    flavor: ApiFlavor::Block,
                },
                "06 00 0000000000000007",
            ),
            (
                Request::WindowLease {
                    req_id: 8,
                    flavor: ApiFlavor::Block,
                },
                "08 00 0000000000000008",
            ),
            (
                Request::Replicate {
                    req_id: 9,
                    flavor: ApiFlavor::NonBlockingI,
                    seq: 12,
                    delete: false,
                    flags: 13,
                    expire_at_ns: 14,
                    key: k(b"r"),
                    value: k(b"rv"),
                },
                "09 01 0000000000000009 000000000000000c 00 0000000d 000000000000000e \
                 00000001 00000002 72 7276",
            ),
            (
                Request::batch(
                    10,
                    ApiFlavor::NonBlockingI,
                    vec![
                        Request::Get {
                            req_id: 11,
                            flavor: ApiFlavor::NonBlockingI,
                            key: k(b"a"),
                        },
                        Request::Delete {
                            req_id: 12,
                            flavor: ApiFlavor::NonBlockingI,
                            key: k(b"b"),
                        },
                    ],
                )
                .unwrap(),
                "07 01 000000000000000a 00000002 \
                 0000000f 02 01 000000000000000b 00000001 61 \
                 0000000f 03 01 000000000000000c 00000001 62",
            ),
        ];
        for (req, pinned) in reqs {
            let wire = req.encode();
            assert_eq!(hex(&wire), pinned.replace(' ', ""), "{req:?}");
            assert_eq!(Request::decode(&wire).unwrap(), req);
        }

        let s = stages();
        const S: &str = "000000000000007b 00000000000001c8 0000000000000315 \
                         0000000000002710 0000000000002742 \
                         0000000000002c88 0000000000000190 01 01 00000003";
        let resps = [
            (
                Response::Set {
                    req_id: 21,
                    status: OpStatus::Stored,
                    stages: s,
                },
                format!("81 00 0000000000000015 {S}"),
            ),
            (
                Response::Get {
                    req_id: 22,
                    status: OpStatus::Hit,
                    stages: s,
                    flags: 5,
                    cas: 6,
                    value: Some(k(b"val")),
                },
                format!("82 01 0000000000000016 {S} 00000005 0000000000000006 01 00000003 76616c"),
            ),
            (
                Response::Get {
                    req_id: 23,
                    status: OpStatus::Miss,
                    stages: s,
                    flags: 0,
                    cas: 0,
                    value: None,
                },
                format!("82 02 0000000000000017 {S} 00000000 0000000000000000 00"),
            ),
            (
                Response::Counter {
                    req_id: 24,
                    status: OpStatus::Stored,
                    stages: s,
                    value: 42,
                },
                format!("84 00 0000000000000018 {S} 000000000000002a"),
            ),
            (
                Response::Delete {
                    req_id: 25,
                    status: OpStatus::NotFound,
                    stages: s,
                },
                format!("83 04 0000000000000019 {S}"),
            ),
            (
                Response::ReplAck {
                    req_id: 26,
                    status: OpStatus::Stored,
                    stages: s,
                    seq: 12,
                },
                format!("86 00 000000000000001a {S} 000000000000000c"),
            ),
            (
                Response::batch(
                    27,
                    vec![
                        Response::Set {
                            req_id: 28,
                            status: OpStatus::Stored,
                            stages: s,
                        },
                        Response::ReplAck {
                            req_id: 29,
                            status: OpStatus::NotStored,
                            stages: s,
                            seq: 3,
                        },
                    ],
                )
                .unwrap(),
                format!(
                    "85 000000000000001b 00000002 00000048 81 00 000000000000001c {S} \
                     00000050 86 07 000000000000001d {S} 0000000000000003"
                ),
            ),
        ];
        for (resp, pinned) in resps {
            let wire = resp.encode();
            assert_eq!(hex(&wire), pinned.replace(' ', ""), "{resp:?}");
            assert_eq!(Response::decode(&wire).unwrap(), resp);
        }

        let geo = LeaseGeometry {
            buckets: 4096,
            desc_slot: 32,
            arena_offset: 131_072,
            arena_slot: 4104,
        };
        let wire = geo.encode();
        assert_eq!(
            hex(&Frame::from(wire.clone())),
            "00001000 00000020 0000000000020000 00001008".replace(' ', "")
        );
        assert_eq!(LeaseGeometry::decode(&wire).unwrap(), geo);
    }

    #[test]
    fn flavor_nonblocking_classification() {
        assert!(!ApiFlavor::Block.is_nonblocking());
        assert!(ApiFlavor::NonBlockingI.is_nonblocking());
        assert!(ApiFlavor::NonBlockingB.is_nonblocking());
    }
}
