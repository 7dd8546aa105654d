//! Byte runs held by reference.
//!
//! [`Runs`] is an ordered map of non-overlapping byte runs, each a
//! [`Bytes`] kept as given, never copied. Storing a run replaces whatever
//! it overlaps, trimming the runs across its ends to zero-copy slices; what
//! no run covers is a hole. It is the medium of an [`SsdDevice`] and the
//! store of a slab page's large values. An [`Image`] is what one write
//! stores: a length, and runs placed in it with holes between.
//!
//! [`SsdDevice`]: crate::SsdDevice

use std::collections::BTreeMap;
use std::ops::Range;

use bytes::Bytes;

/// Non-overlapping byte runs by offset, each held by reference.
#[derive(Debug, Clone, Default)]
pub struct Runs {
    map: BTreeMap<u64, Bytes>,
}

impl Runs {
    /// Store `data` at `at`, replacing every run it overlaps.
    pub fn put(&mut self, at: u64, data: Bytes) {
        let end = at + data.len() as u64;
        self.cut(at..end);
        if !data.is_empty() {
            self.map.insert(at, data);
        }
    }

    /// Make `range` a hole: drop the runs inside it and trim the runs
    /// across its ends to the parts outside it.
    pub fn cut(&mut self, range: Range<u64>) {
        if range.is_empty() {
            return;
        }
        if let Some((&start, run)) = self.map.range(..range.start).next_back() {
            let end = start + run.len() as u64;
            if end > range.start {
                let run = run.clone();
                if end > range.end {
                    self.map
                        .insert(range.end, run.slice((range.end - start) as usize..));
                }
                self.map
                    .insert(start, run.slice(..(range.start - start) as usize));
            }
        }
        while let Some((&start, _)) = self.map.range(range.clone()).next() {
            let run = self.map.remove(&start).expect("just found");
            let end = start + run.len() as u64;
            if end > range.end {
                self.map
                    .insert(range.end, run.slice((range.end - start) as usize..));
            }
        }
    }

    /// The bytes of `range` without a copy, if one run covers it all.
    pub fn covering(&self, range: Range<u64>) -> Option<Bytes> {
        let (&start, run) = self.map.range(..=range.start).next_back()?;
        let end = start + run.len() as u64;
        (end >= range.end)
            .then(|| run.slice((range.start - start) as usize..(range.end - start) as usize))
    }

    /// `range` in order, as pieces that together cover it: each part a
    /// run covers with its bytes (a zero-copy slice), each hole with
    /// `None`.
    pub fn pieces(
        &self,
        range: Range<u64>,
    ) -> impl Iterator<Item = (Range<u64>, Option<Bytes>)> + '_ {
        let head = self
            .map
            .range(..range.start)
            .next_back()
            .filter(|(&start, run)| start + run.len() as u64 > range.start);
        let mut runs = head
            .into_iter()
            .chain(self.map.range(range.clone()))
            .peekable();
        let mut pos = range.start;
        std::iter::from_fn(move || {
            if pos >= range.end {
                return None;
            }
            let piece = match runs.peek() {
                Some(&(&start, run)) if start <= pos => {
                    let end = (start + run.len() as u64).min(range.end);
                    let bytes = run.slice((pos - start) as usize..(end - start) as usize);
                    runs.next();
                    (pos..end, Some(bytes))
                }
                next => {
                    let end = next.map_or(range.end, |(&start, _)| start.min(range.end));
                    (pos..end, None)
                }
            };
            pos = piece.0.end;
            Some(piece)
        })
    }
}

/// What one write stores: `len` bytes, made of runs held by reference and
/// zeros between them.
#[derive(Debug, Clone, Default)]
pub struct Image {
    len: usize,
    runs: Vec<(usize, Bytes)>,
}

impl Image {
    /// `len` zero bytes, to place runs in.
    pub fn zeros(len: usize) -> Self {
        Image {
            len,
            runs: Vec::new(),
        }
    }

    /// Place `data` at `at`. Runs go in offset order and must not
    /// overlap; an empty one is ignored.
    pub fn push(&mut self, at: usize, data: Bytes) {
        let floor = self.runs.last().map_or(0, |(s, d)| s + d.len());
        assert!(
            at >= floor && at + data.len() <= self.len,
            "run out of order or past the end"
        );
        if !data.is_empty() {
            self.runs.push((at, data));
        }
    }

    /// Length in bytes, holes included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length image.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The runs, in offset order, by value.
    pub fn into_runs(self) -> Vec<(usize, Bytes)> {
        self.runs
    }
}

impl From<Bytes> for Image {
    /// One run over the whole image, held by reference.
    fn from(data: Bytes) -> Self {
        let mut image = Image::zeros(data.len());
        image.push(0, data);
        image
    }
}

impl<T: AsRef<[u8]> + ?Sized> From<&T> for Image {
    /// One run over the whole image, copied.
    fn from(data: &T) -> Self {
        Image::from(Bytes::copy_from_slice(data.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of(r: &Runs) -> Vec<(u64, Vec<u8>)> {
        r.map.iter().map(|(s, b)| (*s, b.to_vec())).collect()
    }

    #[test]
    fn put_trims_and_splits_what_it_overlaps() {
        let mut r = Runs::default();
        r.put(0, Bytes::from(vec![1u8; 10]));
        r.put(20, Bytes::from(vec![2u8; 10]));
        r.put(5, Bytes::from(vec![3u8; 20]));
        assert_eq!(
            runs_of(&r),
            vec![(0, vec![1; 5]), (5, vec![3; 20]), (25, vec![2; 5])]
        );
        // One run inside another splits it in two.
        r.put(8, Bytes::from(vec![4u8; 2]));
        assert_eq!(
            runs_of(&r),
            vec![
                (0, vec![1; 5]),
                (5, vec![3; 3]),
                (8, vec![4; 2]),
                (10, vec![3; 15]),
                (25, vec![2; 5])
            ]
        );
    }

    #[test]
    fn cut_leaves_a_hole_and_keeps_slices_of_the_same_allocation() {
        let data = Bytes::from((0..100u8).collect::<Vec<_>>());
        let mut r = Runs::default();
        r.put(1000, data.clone());
        r.cut(1010..1020);
        assert_eq!(runs_of(&r).len(), 2);
        let tail = r.covering(1020..1100).unwrap();
        assert_eq!(
            tail.as_ptr(),
            data[20..].as_ptr(),
            "a trimmed run is not copied"
        );
        assert!(r.covering(1005..1015).is_none());
        let pieces: Vec<_> = r
            .pieces(1005..1025)
            .map(|(rg, b)| (rg, b.map(|b| b.to_vec())))
            .collect();
        assert_eq!(
            pieces,
            vec![
                (1005..1010, Some((5..10u8).collect())),
                (1010..1020, None),
                (1020..1025, Some((20..25u8).collect())),
            ]
        );
    }

    #[test]
    fn pieces_cover_holes_before_between_and_after_runs() {
        let mut r = Runs::default();
        r.put(10, Bytes::from_static(b"ab"));
        r.put(14, Bytes::from_static(b"cd"));
        let pieces: Vec<_> = r.pieces(0..20).map(|(rg, b)| (rg, b.is_some())).collect();
        assert_eq!(
            pieces,
            vec![
                (0..10, false),
                (10..12, true),
                (12..14, false),
                (14..16, true),
                (16..20, false)
            ]
        );
        assert_eq!(r.pieces(5..5).count(), 0);
    }

    #[test]
    fn image_runs_go_in_order() {
        let mut image = Image::zeros(10);
        image.push(0, Bytes::from_static(b"ab"));
        image.push(2, Bytes::new());
        image.push(5, Bytes::from_static(b"cd"));
        assert_eq!(image.clone().into_runs().len(), 2);
        let overlap = std::panic::catch_unwind(move || image.push(6, Bytes::from_static(b"x")));
        assert!(overlap.is_err());
    }
}
