//! Gather-list messages.
//!
//! A [`Frame`] is what a [`Link`](crate::Link) carries: an ordered list of
//! byte segments that the NIC reads back to back, like the scatter/gather
//! list (`ibv_sge`) of one verbs send. Its bytes on the wire are the
//! segments concatenated. Where a frame is split is invisible to the
//! peer and to every cost model, which charge [`Frame::len`]; a sender
//! passes a large registered buffer as a segment of its own instead of
//! copying it into a header buffer.

use std::fmt;

use bytes::Bytes;

/// One message as a list of byte segments. Cloning shares the segments.
#[derive(Clone, Default)]
pub struct Frame {
    /// The first segment; empty only in an empty frame.
    head: Bytes,
    /// Every later segment; a one-segment frame allocates no list.
    tail: Vec<Bytes>,
}

impl Frame {
    /// A frame of `segments`, in wire order.
    pub fn from_segments(segments: impl IntoIterator<Item = Bytes>) -> Frame {
        let mut frame = Frame::default();
        for s in segments {
            frame.push(s);
        }
        frame
    }

    /// Append `segment` (an empty one adds nothing).
    pub fn push(&mut self, segment: Bytes) {
        if self.head.is_empty() {
            self.head = segment;
        } else if !segment.is_empty() {
            self.tail.push(segment);
        }
    }

    /// Total length in bytes: what the link serializes and charges.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.iter().map(Bytes::len).sum::<usize>()
    }

    /// True if the frame carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th segment, if there is one.
    pub fn segment(&self, i: usize) -> Option<&Bytes> {
        match i {
            0 => Some(&self.head),
            i => self.tail.get(i - 1),
        }
    }

    /// The segments in wire order.
    pub fn segments(&self) -> impl Iterator<Item = &Bytes> {
        std::iter::once(&self.head).chain(&self.tail)
    }

    /// The frame's bytes in one buffer: the only segment itself, or one
    /// copy of them all.
    pub fn to_bytes(&self) -> Bytes {
        if self.tail.is_empty() {
            return self.head.clone();
        }
        let mut out = Vec::with_capacity(self.len());
        for s in self.segments() {
            out.extend_from_slice(s);
        }
        Bytes::from(out)
    }
}

impl From<Bytes> for Frame {
    fn from(head: Bytes) -> Frame {
        Frame {
            head,
            tail: Vec::new(),
        }
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.segments()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_concatenate_in_order() {
        let value = Bytes::from(vec![7u8; 5000]);
        let frame = Frame::from_segments([
            Bytes::from_static(b"head"),
            value.clone(),
            Bytes::from_static(b"tail"),
        ]);
        assert_eq!(frame.len(), 4 + 5000 + 4);
        assert_eq!(frame.segments().count(), 3);
        let flat = frame.to_bytes();
        assert_eq!(&flat[..4], b"head");
        assert_eq!(&flat[5004..], b"tail");
        assert!(frame.segments().flat_map(|s| s.iter()).eq(flat.iter()));
        // A segment is the sender's buffer, not a copy of it.
        assert_eq!(frame.segment(1).unwrap().as_ptr(), value.as_ptr());
        assert!(frame.segment(3).is_none());
    }

    #[test]
    fn one_segment_frames_share_their_buffer() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let frame = Frame::from(b.clone());
        assert_eq!(frame.len(), 3);
        assert_eq!(frame.to_bytes().as_ptr(), b.as_ptr());
        assert!(Frame::default().is_empty());
        // Empty segments add nothing.
        let frame = Frame::from_segments([Bytes::new(), b.clone(), Bytes::new()]);
        assert_eq!(frame.segments().count(), 1);
    }
}
