//! Memcached-style slab allocation.
//!
//! Memory is reserved in fixed-size pages (1 MiB by default) and each page
//! is assigned to a *slab class* that divides it into equal chunks; items
//! are stored whole (header + key + value) inside a chunk. This is the
//! structure the paper's hybrid design flushes to SSD one page at a time,
//! so pages carry a `flushing` state and whole-page data access.
//!
//! A page's bytes are a shared, copy-on-write buffer: a flush takes a
//! handle to the page instead of a copy, and a write to a page whose
//! handle is still held elsewhere copies the page first, so a holder never
//! sees the page change under it.

use std::rc::Rc;

use bytes::Bytes;

use crate::util::{pack_item_id, unpack_item_id};

/// On-chunk item header: key_len (4) + val_len (4) + flags (4) + expire (8).
pub const ITEM_HEADER: usize = 20;

/// Slab geometry and budget.
#[derive(Debug, Clone, Copy)]
pub struct SlabConfig {
    /// Page size (memcached default: 1 MiB).
    pub page_size: usize,
    /// Smallest chunk size.
    pub min_chunk: usize,
    /// Chunk-size growth factor between classes.
    pub growth: f64,
    /// Total RAM budget for pages.
    pub mem_bytes: u64,
}

impl SlabConfig {
    /// Memcached-flavoured defaults with the given memory budget.
    pub fn with_mem(mem_bytes: u64) -> Self {
        SlabConfig {
            page_size: 1 << 20,
            min_chunk: 96,
            growth: 1.25,
            mem_bytes,
        }
    }
}

/// A parsed item as stored in a chunk (or read back from SSD).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedItem {
    /// Key bytes (copied out).
    pub key: Bytes,
    /// Value bytes (copied out).
    pub value: Bytes,
    /// Client flags.
    pub flags: u32,
    /// Expiration (virtual ns since sim start; 0 = never).
    pub expire_at_ns: u64,
}

/// Serialize an item into `dst` (which must be at least
/// `ITEM_HEADER + key.len() + value.len()` long). Returns the stored
/// length.
pub fn write_item_bytes(
    dst: &mut [u8],
    key: &[u8],
    value: &[u8],
    flags: u32,
    expire_at_ns: u64,
) -> usize {
    dst[0..4].copy_from_slice(&(key.len() as u32).to_be_bytes());
    dst[4..8].copy_from_slice(&(value.len() as u32).to_be_bytes());
    dst[8..12].copy_from_slice(&flags.to_be_bytes());
    dst[12..20].copy_from_slice(&expire_at_ns.to_be_bytes());
    dst[ITEM_HEADER..ITEM_HEADER + key.len()].copy_from_slice(key);
    dst[ITEM_HEADER + key.len()..ITEM_HEADER + key.len() + value.len()].copy_from_slice(value);
    ITEM_HEADER + key.len() + value.len()
}

/// Key and value lengths from an item header, if the whole item fits in
/// `src`.
fn item_lens(src: &[u8]) -> Option<(usize, usize)> {
    if src.len() < ITEM_HEADER {
        return None;
    }
    let key_len = u32::from_be_bytes(src[0..4].try_into().ok()?) as usize;
    let val_len = u32::from_be_bytes(src[4..8].try_into().ok()?) as usize;
    (src.len() >= ITEM_HEADER + key_len + val_len).then_some((key_len, val_len))
}

/// Parse an item from raw chunk bytes (inverse of [`write_item_bytes`]).
pub fn parse_item_bytes(src: &[u8]) -> Option<ParsedItem> {
    let (key_len, val_len) = item_lens(src)?;
    let flags = u32::from_be_bytes(src[8..12].try_into().ok()?);
    let expire_at_ns = u64::from_be_bytes(src[12..20].try_into().ok()?);
    Some(ParsedItem {
        key: Bytes::copy_from_slice(&src[ITEM_HEADER..ITEM_HEADER + key_len]),
        value: Bytes::copy_from_slice(&src[ITEM_HEADER + key_len..ITEM_HEADER + key_len + val_len]),
        flags,
        expire_at_ns,
    })
}

struct ClassState {
    chunk_size: usize,
    chunks_per_page: u32,
    /// Free chunks (item ids) across this class's pages.
    free: Vec<u64>,
    /// Pages currently assigned to this class.
    pages: Vec<u32>,
}

struct Page {
    class: usize,
    /// Shared with any flush still holding the page (see [`SlabPool::page_data`]).
    data: Rc<Vec<u8>>,
    live: u32,
    flushing: bool,
    /// Retired pages are in the free-page pool; their ids must not be used.
    retired: bool,
    /// Bumped by every release, so a chunk id taken before a release can
    /// be told apart from the same id on the page's next use.
    generation: u32,
}

stats_words! {
    /// Pool counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SlabStats {
        /// Pages currently assigned to classes.
        pub pages_in_use: usize,
        /// Pages in the free pool.
        pub pages_free: usize,
        /// Total page budget.
        pub pages_budget: usize,
        /// Live items across all pages.
        pub live_items: u64,
    }
}

/// The slab pool: page budget, classes, and chunk storage.
pub struct SlabPool {
    cfg: SlabConfig,
    classes: Vec<ClassState>,
    pages: Vec<Page>,
    free_pages: Vec<u32>,
    max_pages: usize,
}

impl SlabPool {
    /// Build a pool with memcached-style geometric classes.
    pub fn new(cfg: SlabConfig) -> Self {
        assert!(cfg.page_size >= cfg.min_chunk);
        assert!(cfg.growth > 1.0);
        let mut classes = Vec::new();
        let mut size = cfg.min_chunk;
        while size < cfg.page_size {
            classes.push(ClassState {
                chunk_size: size,
                chunks_per_page: (cfg.page_size / size) as u32,
                free: Vec::new(),
                pages: Vec::new(),
            });
            let next = ((size as f64 * cfg.growth) as usize).max(size + 8);
            size = next.next_multiple_of(8);
        }
        classes.push(ClassState {
            chunk_size: cfg.page_size,
            chunks_per_page: 1,
            free: Vec::new(),
            pages: Vec::new(),
        });
        let max_pages = (cfg.mem_bytes / cfg.page_size as u64) as usize;
        SlabPool {
            cfg,
            classes,
            pages: Vec::new(),
            free_pages: Vec::new(),
            max_pages,
        }
    }

    /// Pool geometry.
    pub fn config(&self) -> &SlabConfig {
        &self.cfg
    }

    /// Number of slab classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Chunk size of `class`.
    pub fn chunk_size(&self, class: usize) -> usize {
        self.classes[class].chunk_size
    }

    /// The class whose chunks fit an item of `item_len` total bytes, or
    /// `None` if the item exceeds the page size.
    pub fn class_for(&self, item_len: usize) -> Option<usize> {
        self.classes.iter().position(|c| c.chunk_size >= item_len)
    }

    /// Total stored length of an item (header + key + value).
    pub fn item_len(key_len: usize, value_len: usize) -> usize {
        ITEM_HEADER + key_len + value_len
    }

    /// Allocate a chunk in `class` without evicting. `None` means the
    /// caller must free memory (evict or flush) and retry.
    pub fn try_alloc(&mut self, class: usize) -> Option<u64> {
        if let Some(id) = self.classes[class].free.pop() {
            let (page, _) = unpack_item_id(id);
            self.pages[page as usize].live += 1;
            return Some(id);
        }
        let page_idx = self.take_free_page(class)?;
        let c = &mut self.classes[class];
        c.pages.push(page_idx);
        // Carve the page; hand chunks out low-to-high.
        for chunk in (0..c.chunks_per_page).rev() {
            c.free.push(pack_item_id(page_idx, chunk));
        }
        let id = c.free.pop().expect("freshly carved page has chunks");
        self.pages[page_idx as usize].live += 1;
        Some(id)
    }

    fn take_free_page(&mut self, class: usize) -> Option<u32> {
        if let Some(idx) = self.free_pages.pop() {
            let p = &mut self.pages[idx as usize];
            p.class = class;
            p.live = 0;
            p.flushing = false;
            p.retired = false;
            return Some(idx);
        }
        if self.pages.len() < self.max_pages {
            self.pages.push(Page {
                class,
                data: Rc::new(vec![0u8; self.cfg.page_size]),
                live: 0,
                flushing: false,
                retired: false,
                generation: 0,
            });
            return Some((self.pages.len() - 1) as u32);
        }
        None
    }

    /// Store an item into an allocated chunk. Returns the stored length.
    /// If a [`page_data`](Self::page_data) handle to the page is still
    /// held, the page is copied first and the holder keeps the old bytes.
    pub fn write_item(
        &mut self,
        id: u64,
        key: &[u8],
        value: &[u8],
        flags: u32,
        expire_at_ns: u64,
    ) -> usize {
        let (page, chunk) = unpack_item_id(id);
        let class = self.pages[page as usize].class;
        let chunk_size = self.classes[class].chunk_size;
        let stored = Self::item_len(key.len(), value.len());
        assert!(stored <= chunk_size, "item does not fit chunk");
        let off = chunk as usize * chunk_size;
        let data = Rc::make_mut(&mut self.pages[page as usize].data);
        write_item_bytes(
            &mut data[off..off + stored],
            key,
            value,
            flags,
            expire_at_ns,
        )
    }

    /// Raw bytes of chunk `id`, or `None` if its page is retired.
    fn chunk_bytes(&self, id: u64) -> Option<&[u8]> {
        let (page, chunk) = unpack_item_id(id);
        let p = self.pages.get(page as usize)?;
        if p.retired {
            return None;
        }
        let chunk_size = self.classes[p.class].chunk_size;
        let off = chunk as usize * chunk_size;
        Some(&p.data[off..off + chunk_size])
    }

    /// Parse the item stored at `id`.
    pub fn read_item(&self, id: u64) -> Option<ParsedItem> {
        parse_item_bytes(self.chunk_bytes(id)?)
    }

    /// The key of the item stored at `id`, copying only the key: equal to
    /// `read_item(id).map(|i| i.key)` without copying the value.
    pub fn read_key(&self, id: u64) -> Option<Bytes> {
        let src = self.chunk_bytes(id)?;
        let (key_len, _) = item_lens(src)?;
        Some(Bytes::copy_from_slice(
            &src[ITEM_HEADER..ITEM_HEADER + key_len],
        ))
    }

    /// Stored length (header + key + value) of the item at `id`.
    pub fn stored_len(&self, id: u64) -> Option<usize> {
        let (page, chunk) = unpack_item_id(id);
        let p = self.pages.get(page as usize)?;
        let chunk_size = self.classes[p.class].chunk_size;
        let off = chunk as usize * chunk_size;
        let src = &p.data[off..off + chunk_size];
        let key_len = u32::from_be_bytes(src[0..4].try_into().ok()?) as usize;
        let val_len = u32::from_be_bytes(src[4..8].try_into().ok()?) as usize;
        Some(ITEM_HEADER + key_len + val_len)
    }

    /// Release a chunk. On a flushing page the chunk is not returned to the
    /// free list (the whole page is about to be released).
    pub fn free_chunk(&mut self, id: u64) {
        let (page, _) = unpack_item_id(id);
        let p = &mut self.pages[page as usize];
        debug_assert!(p.live > 0);
        p.live -= 1;
        if !p.flushing {
            let class = p.class;
            self.classes[class].free.push(id);
        }
    }

    /// The generation of chunk `id`'s page (see [`chunk_intact`](Self::chunk_intact)).
    pub(crate) fn generation(&self, id: u64) -> u32 {
        self.pages[unpack_item_id(id).0 as usize].generation
    }

    /// Whether chunk `id`, allocated while its page was at `generation`,
    /// may still be indexed: its page was not released since and is not
    /// mid-flush. A flush moves only the items indexed when it began, so a
    /// chunk indexed on a flushing page would vanish with the page.
    pub(crate) fn chunk_intact(&self, id: u64, generation: u32) -> bool {
        let p = &self.pages[unpack_item_id(id).0 as usize];
        p.generation == generation && !p.flushing
    }

    /// True if `page` is out of circulation (mid-flush or retired) and
    /// must not re-enter any eviction LRU.
    pub fn page_out_of_circulation(&self, page: u32) -> bool {
        let p = &self.pages[page as usize];
        p.flushing || p.retired
    }

    /// Begin flushing `page`: it leaves LRU/alloc circulation. Its free
    /// chunks are withdrawn from the class free list. Returns the class.
    pub fn begin_flush(&mut self, page: u32) -> usize {
        let p = &mut self.pages[page as usize];
        assert!(!p.flushing && !p.retired);
        p.flushing = true;
        let class = p.class;
        self.classes[class]
            .free
            .retain(|&id| unpack_item_id(id).0 != page);
        class
    }

    /// A handle to the page's bytes (for flushing to SSD). The handle is
    /// a snapshot: a later [`write_item`](Self::write_item) on the page
    /// copies the page instead of changing the bytes the handle sees.
    pub fn page_data(&self, page: u32) -> Rc<Vec<u8>> {
        Rc::clone(&self.pages[page as usize].data)
    }

    /// Item ids of a page's chunks (all of them; callers filter to live
    /// items via their index).
    pub fn page_chunk_ids(&self, page: u32) -> Vec<u64> {
        let p = &self.pages[page as usize];
        let n = self.classes[p.class].chunks_per_page;
        (0..n).map(|c| pack_item_id(page, c)).collect()
    }

    /// Return a flushing (or emptied) page to the free pool.
    pub fn release_page(&mut self, page: u32) {
        let class = {
            let p = &mut self.pages[page as usize];
            assert!(!p.retired, "double release");
            p.retired = true;
            p.generation = p.generation.wrapping_add(1);
            p.live = 0;
            p.class
        };
        self.classes[class].pages.retain(|&x| x != page);
        // Withdraw any leftover free chunks (non-flushing path).
        self.classes[class]
            .free
            .retain(|&id| unpack_item_id(id).0 != page);
        self.free_pages.push(page);
    }

    /// Pages currently assigned to `class`.
    pub fn class_pages(&self, class: usize) -> &[u32] {
        &self.classes[class].pages
    }

    /// Whether allocating in `class` could succeed without eviction.
    pub fn can_alloc(&self, class: usize) -> bool {
        !self.classes[class].free.is_empty()
            || !self.free_pages.is_empty()
            || self.pages.len() < self.max_pages
    }

    /// Pool counters.
    pub fn stats(&self) -> SlabStats {
        SlabStats {
            pages_in_use: self.pages.len() - self.free_pages.len(),
            pages_free: self.free_pages.len() + (self.max_pages - self.pages.len()),
            pages_budget: self.max_pages,
            live_items: self.pages.iter().map(|p| p.live as u64).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_1mb() -> SlabPool {
        SlabPool::new(SlabConfig::with_mem(1 << 20)) // exactly one page
    }

    #[test]
    fn classes_grow_geometrically_to_page_size() {
        let pool = SlabPool::new(SlabConfig::with_mem(4 << 20));
        let sizes: Vec<usize> = (0..pool.num_classes())
            .map(|c| pool.chunk_size(c))
            .collect();
        assert_eq!(sizes[0], 96);
        assert_eq!(*sizes.last().unwrap(), 1 << 20);
        for w in sizes.windows(2) {
            assert!(w[1] > w[0]);
            assert!(w[1] % 8 == 0);
        }
    }

    #[test]
    fn class_for_picks_smallest_fitting() {
        let pool = SlabPool::new(SlabConfig::with_mem(4 << 20));
        let c = pool.class_for(100).unwrap();
        assert!(pool.chunk_size(c) >= 100);
        if c > 0 {
            assert!(pool.chunk_size(c - 1) < 100);
        }
        assert_eq!(pool.class_for((1 << 20) + 1), None);
        assert!(pool.class_for(1 << 20).is_some());
    }

    #[test]
    fn item_round_trip_through_chunk() {
        let mut pool = pool_1mb();
        let class = pool.class_for(SlabPool::item_len(3, 11)).unwrap();
        let id = pool.try_alloc(class).unwrap();
        pool.write_item(id, b"abc", b"hello world", 7, 99);
        let item = pool.read_item(id).unwrap();
        assert_eq!(&item.key[..], b"abc");
        assert_eq!(&item.value[..], b"hello world");
        assert_eq!(item.flags, 7);
        assert_eq!(item.expire_at_ns, 99);
        assert_eq!(pool.stored_len(id), Some(ITEM_HEADER + 3 + 11));
    }

    #[test]
    fn alloc_exhausts_budget_then_fails() {
        let mut pool = pool_1mb();
        // 32 KiB-ish items: one page of the fitting class.
        let class = pool.class_for(32 << 10).unwrap();
        let per_page = (1 << 20) / pool.chunk_size(class);
        for _ in 0..per_page {
            assert!(pool.try_alloc(class).is_some());
        }
        assert!(pool.try_alloc(class).is_none(), "budget exhausted");
        assert!(!pool.can_alloc(class));
    }

    #[test]
    fn free_chunk_recycles() {
        let mut pool = pool_1mb();
        let class = pool.class_for(100_000).unwrap();
        let per_page = (1 << 20) / pool.chunk_size(class);
        let first = pool.try_alloc(class).unwrap();
        for _ in 1..per_page {
            pool.try_alloc(class).unwrap();
        }
        assert!(pool.try_alloc(class).is_none());
        pool.free_chunk(first);
        assert_eq!(pool.try_alloc(class), Some(first));
    }

    #[test]
    fn flush_cycle_releases_page_for_other_classes() {
        let mut pool = pool_1mb();
        let big = pool.class_for(100_000).unwrap();
        assert!(
            (1 << 20) / pool.chunk_size(big) >= 2,
            "test needs >= 2 chunks per page"
        );
        let a = pool.try_alloc(big).unwrap();
        let b = pool.try_alloc(big).unwrap();
        let (page, _) = crate::util::unpack_item_id(a);
        let class = pool.begin_flush(page);
        assert_eq!(class, big);
        // Frees during flush do not go back on the free list.
        pool.free_chunk(a);
        pool.free_chunk(b);
        pool.release_page(page);
        assert!(pool.read_item(a).is_none(), "retired page unreadable");
        // The page is reusable by a different class.
        let small = pool.class_for(128).unwrap();
        assert!(pool.try_alloc(small).is_some());
        assert_eq!(pool.class_pages(big).len(), 0);
    }

    #[test]
    fn read_key_matches_read_item_key() {
        let mut pool = pool_1mb();
        let class = pool.class_for(8 << 10).unwrap();
        let per_page = (1 << 20) / pool.chunk_size(class);
        let mut ids = Vec::new();
        // Leave the last chunk unwritten: its zeroed header reads as an
        // empty item, the same way for both readers.
        for i in 0..per_page - 1 {
            let id = pool.try_alloc(class).unwrap();
            let key = format!("key-{i:04}");
            pool.write_item(id, key.as_bytes(), &vec![i as u8; 4000 + i], 0, 0);
            ids.push(id);
        }
        let (page, _) = crate::util::unpack_item_id(ids[0]);
        for id in pool.page_chunk_ids(page) {
            assert_eq!(pool.read_key(id), pool.read_item(id).map(|i| i.key));
        }
        assert_eq!(
            pool.read_key(ids[3]).unwrap(),
            Bytes::from_static(b"key-0003")
        );
        pool.begin_flush(page);
        pool.release_page(page);
        assert!(ids.iter().all(|&id| pool.read_key(id).is_none()));
    }

    #[test]
    fn page_data_is_a_copy_on_write_snapshot() {
        let mut pool = pool_1mb();
        let class = pool.class_for(100_000).unwrap();
        let a = pool.try_alloc(class).unwrap();
        let b = pool.try_alloc(class).unwrap();
        pool.write_item(a, b"a", b"old", 0, 0);
        let (page, _) = crate::util::unpack_item_id(a);
        let snap = pool.page_data(page);
        // No write since: the snapshot is the page's own buffer.
        assert!(Rc::ptr_eq(&snap, &pool.page_data(page)));
        let before = snap.to_vec();
        pool.write_item(b, b"b", b"new", 0, 0);
        assert!(!Rc::ptr_eq(&snap, &pool.page_data(page)));
        assert_eq!(&snap[..], &before[..], "snapshot changed under its holder");
        assert_eq!(&pool.read_item(b).unwrap().value[..], b"new");
        assert_eq!(&pool.read_item(a).unwrap().value[..], b"old");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_item_bytes(&[0u8; 4]).is_none());
        // Header claims more bytes than present.
        let mut buf = vec![0u8; ITEM_HEADER + 2];
        write_item_bytes(&mut buf.clone(), b"", b"", 0, 0); // fits
        buf[0..4].copy_from_slice(&100u32.to_be_bytes());
        assert!(parse_item_bytes(&buf).is_none());
    }

    #[test]
    fn stats_track_pages_and_items() {
        let mut pool = SlabPool::new(SlabConfig::with_mem(2 << 20));
        let class = pool.class_for(100_000).unwrap();
        let per_page = (1 << 20) / pool.chunk_size(class);
        // Fill the first page and spill one item onto a second page.
        let a = pool.try_alloc(class).unwrap();
        for _ in 1..=per_page {
            pool.try_alloc(class).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.pages_in_use, 2);
        assert_eq!(s.pages_budget, 2);
        assert_eq!(s.live_items, per_page as u64 + 1);
        pool.free_chunk(a);
        assert_eq!(pool.stats().live_items, per_page as u64);
    }

    #[test]
    fn page_chunk_ids_cover_page() {
        let mut pool = pool_1mb();
        let class = pool.class_for(100_000).unwrap();
        let id = pool.try_alloc(class).unwrap();
        let (page, _) = crate::util::unpack_item_id(id);
        let ids = pool.page_chunk_ids(page);
        assert_eq!(ids.len(), (1 << 20) / pool.chunk_size(class));
        assert!(ids.contains(&id));
    }
}
