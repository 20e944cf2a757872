//! The file system buffer cache.
//!
//! The paper's central observation (its Figure 3) is about this component:
//! with LRU replacement and a file larger than the cache, a second linear
//! pass over the file gets *zero* hits, because the tail of the file keeps
//! evicting the head just before the reader arrives. An application that
//! knows which pages are resident — via SLEDs — can read the cached tail
//! first and turn most of the second pass into hits.
//!
//! [`PageCache`] tracks page residency and dirty state with a pluggable
//! [`ReplacementPolicy`]; the default is LRU, matching Linux 2.2's
//! approximation. Clock, FIFO, MRU and 2Q are provided for the ablation
//! benchmarks. The cache stores no data bytes — the simulator models *cost*,
//! and file contents live with the file system — only residency metadata.
//!
//! Residency, dirty and pinned state are stored per inode as sorted
//! run-length extents ([`ExtentSet`]), so the SLED construction path can ask
//! for the resident runs of a byte range ([`PageCache::resident_runs`]) or
//! the next residency transition ([`PageCache::next_boundary`]) in O(log
//! runs) instead of probing every page. Each inode also carries a
//! **generation counter**, bumped whenever its residency changes, which lets
//! callers memoize derived results (like a SLED vector) and revalidate them
//! in O(1).
//!
//! Pages enter the cache a run at a time. [`PageCache::insert_run`] is the
//! one insertion path ([`PageCache::insert`] is a run of one page), and its
//! contract is equivalence: victims, policy order, extents, counters and
//! generations end exactly as inserting the pages one at a time would leave
//! them. The policies keep their queues run-length too (consecutive pages of
//! one inode queued back to back share one entry), so a 512-page read that
//! fills a full cache evicts whole runs from the old end: its cost grows
//! with the runs touched, not the pages moved. Removal (`remove_file`,
//! `clear`) likewise works run by run.

pub mod extent;
pub mod policy;

use std::ops::RangeInclusive;

pub use extent::ExtentSet;
pub use policy::{
    ClockPolicy, FifoPolicy, LruPolicy, MruPolicy, PolicyKind, ReplacementPolicy, TwoQPolicy,
};

/// Identifies one page: an inode number and a page index within the file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct PageKey {
    /// Inode number (unique per mounted file system tree in the simulator).
    /// The cache indexes its per-inode state by this number in a slab, so
    /// numbers should be dense from zero and must never be reused: a reused
    /// number would inherit the old file's residency generation.
    pub inode: u64,
    /// Page index: byte offset divided by the page size.
    pub index: u64,
}

impl PageKey {
    /// Creates a page key.
    pub fn new(inode: u64, index: u64) -> Self {
        PageKey { inode, index }
    }
}

/// Counters describing cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the page resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Pages inserted.
    pub insertions: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Evicted pages that were dirty (required writeback).
    pub dirty_evictions: u64,
}

/// A page evicted to make room, with whether it needs writeback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The page that was dropped.
    pub key: PageKey,
    /// True when the page was dirty and must be written to its device.
    pub dirty: bool,
}

/// Per-inode extent bookkeeping: residency, dirty and pinned page sets plus
/// the residency generation.
#[derive(Clone, Debug, Default)]
struct InodeIndex {
    resident: ExtentSet,
    dirty: ExtentSet,
    pinned: ExtentSet,
    /// Bumped on every residency change (insert of a new page, eviction,
    /// removal). Dirty/pin transitions do not move it: they don't change
    /// which storage level a byte would be served from.
    generation: u64,
}

/// The extent indexes of every inode ever cached, in a slab indexed by inode
/// number: O(1) lookups, ascending-inode iteration. Entries are boxed so an
/// inode that was never cached costs one pointer. Relies on inode numbers
/// being dense and never reused (see [`PageKey::inode`]).
#[derive(Default)]
struct InodeSlab(Vec<Option<Box<InodeIndex>>>);

impl InodeSlab {
    /// The slab position of `inode` (lossless on the 64-bit hosts the
    /// simulator runs on).
    fn slot(inode: u64) -> usize {
        inode as usize
    }

    fn get(&self, inode: u64) -> Option<&InodeIndex> {
        self.0.get(Self::slot(inode))?.as_deref()
    }

    fn get_mut(&mut self, inode: u64) -> Option<&mut InodeIndex> {
        self.0.get_mut(Self::slot(inode))?.as_deref_mut()
    }

    /// The extent index of `inode`, created (and the slab grown) on first
    /// use.
    fn get_or_default(&mut self, inode: u64) -> &mut InodeIndex {
        let slot = Self::slot(inode);
        if slot >= self.0.len() {
            self.0.resize_with(slot + 1, || None);
        }
        self.0[slot].get_or_insert_with(Box::default)
    }

    /// Every inode ever cached with its extent index, ascending.
    fn iter(&self) -> impl Iterator<Item = (u64, &InodeIndex)> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(ino, ix)| Some((ino as u64, ix.as_deref()?)))
    }
}

/// The buffer cache: residency + dirty metadata under a replacement policy.
pub struct PageCache {
    capacity: usize,
    len: usize,
    pinned_len: usize,
    /// Inode number -> extent index. Entries are kept once created (even
    /// when emptied) so generation counters never restart.
    index: InodeSlab,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl std::fmt::Debug for PageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("capacity", &self.capacity)
            .field("resident", &self.len)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PageCache {
    /// Creates a cache holding at most `capacity` pages under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`: a zero-page buffer cache cannot satisfy
    /// any read and indicates a misconfigured simulation.
    pub fn new(capacity: usize, policy: PolicyKind) -> Self {
        assert!(capacity > 0, "page cache needs at least one page");
        PageCache {
            capacity,
            len: 0,
            pinned_len: 0,
            index: InodeSlab::default(),
            policy: policy.build(capacity),
            stats: CacheStats::default(),
        }
    }

    /// Creates an LRU cache, the simulator default.
    pub fn lru(capacity: usize) -> Self {
        PageCache::new(capacity, PolicyKind::Lru)
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current number of dirty resident pages across all inodes — the
    /// writeback debt a cache-state report shows next to residency.
    pub fn dirty_count(&self) -> u64 {
        self.index.iter().map(|(_, ix)| ix.dirty.page_count()).sum()
    }

    /// The replacement policy's name, for reports.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (residency is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Non-perturbing residency probe — the cache-side half of `mincore(2)`.
    ///
    /// Does not touch the replacement policy or the hit/miss counters: this
    /// is what the kernel's SLED walk uses, and observing state must not
    /// change it.
    pub fn contains(&self, key: PageKey) -> bool {
        self.index
            .get(key.inode)
            .is_some_and(|ix| ix.resident.contains(key.index))
    }

    /// Looks a page up on behalf of a read. Returns true on a hit (and
    /// informs the policy); counts a miss otherwise.
    pub fn lookup(&mut self, key: PageKey) -> bool {
        if self.contains(key) {
            self.policy.on_hit(key);
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Inserts a page (clean unless `dirty`), evicting if necessary:
    /// [`insert_run`](Self::insert_run) of one page.
    ///
    /// Returns the evicted page, if any, so the caller can charge a
    /// writeback for dirty victims. Inserting an already-resident page just
    /// refreshes it (and ORs the dirty bit).
    pub fn insert(&mut self, key: PageKey, dirty: bool) -> Option<Evicted> {
        self.insert_run(key.inode, key.index, 1, dirty).pop()
    }

    /// Inserts pages `first..first + pages` of `inode` (clean unless
    /// `dirty`), evicting as needed, and returns the victims in eviction
    /// order so the caller can charge a writeback for the dirty ones.
    ///
    /// Defined as inserting the pages one at a time, ascending. An
    /// already-resident page is refreshed (a policy hit) and ORs the dirty
    /// bit. A new page entering a full cache first evicts one victim;
    /// pinned pages are not evictable, so the search skips them
    /// (re-queueing each as the newest) for up to one full pass, and if
    /// everything is pinned the cache overflows, as mlock'd memory does —
    /// pinning reduces the reclaimable set, it does not make allocation
    /// fail. Victims, policy order, extents, counters and generations end
    /// exactly as that loop leaves them, but the work is done a run at a
    /// time: one policy call and one extent update per run of victims.
    pub fn insert_run(&mut self, inode: u64, first: u64, pages: u64, dirty: bool) -> Vec<Evicted> {
        assert!(
            pages <= u64::MAX - first,
            "u64::MAX is reserved as the no-boundary sentinel"
        );
        let end = first + pages;
        let mut victims = Vec::new();
        let mut p = first;
        while p < end {
            // Residency is re-read at every segment: filling a gap may
            // evict resident pages further along the run.
            let ix = self.index.get_or_default(inode);
            let boundary = ix.resident.next_boundary(p).min(end);
            if ix.resident.contains(p) {
                if dirty {
                    ix.dirty.insert_range(p, boundary - p);
                }
                for q in p..boundary {
                    self.policy.on_hit(PageKey::new(inode, q));
                }
            } else {
                self.fill(inode, p, boundary, dirty, &mut victims);
            }
            p = boundary;
        }
        victims
    }

    /// Inserts the non-resident pages `first..end` of `inode`, evicting one
    /// victim per page while the cache is full.
    fn fill(&mut self, inode: u64, first: u64, end: u64, dirty: bool, victims: &mut Vec<Evicted>) {
        let mut p = first;
        // Evictions that met a pinned page while searching for page `p`'s
        // victim; the search gives up after one full pass.
        let mut skipped = 0u64;
        while p < end {
            let room = self.capacity.saturating_sub(self.len) as u64;
            if room > 0 {
                let n = room.min(end - p);
                self.attach(inode, p, n, dirty);
                p += n;
                continue;
            }
            let pass = self.len as u64 + 1;
            let taken = (skipped < pass)
                .then(|| self.policy.evict_run((end - p).min(pass - skipped)))
                .flatten();
            let Some((v, n)) = taken else {
                // A full pass met only pinned pages: overflow.
                self.attach(inode, p, 1, dirty);
                p += 1;
                skipped = 0;
                continue;
            };
            if !self.any_pinned(v, n) {
                // The common case: `n` victims for the next `n` pages.
                self.evict_pages(v, n, victims);
                self.attach(inode, p, n, dirty);
                p += n;
                skipped = 0;
                continue;
            }
            for key in (0..n).map(|i| PageKey::new(v.inode, v.index + i)) {
                if self.is_pinned(key) {
                    self.policy.on_insert(key, 1);
                    skipped += 1;
                } else {
                    self.evict_pages(key, 1, victims);
                    self.attach(inode, p, 1, dirty);
                    p += 1;
                    skipped = 0;
                }
            }
        }
    }

    /// Makes the non-resident pages `first..first + pages` of `inode`
    /// resident and queues them with the policy.
    fn attach(&mut self, inode: u64, first: u64, pages: u64, dirty: bool) {
        let ix = self.index.get_or_default(inode);
        ix.resident.insert_range(first, pages);
        if dirty {
            ix.dirty.insert_range(first, pages);
        }
        ix.generation += pages;
        self.len += pages as usize;
        self.policy.on_insert(PageKey::new(inode, first), pages);
        self.stats.insertions += pages;
    }

    /// Evicts pages `first.index..first.index + pages`, which the policy has
    /// just given up, recording them as victims in ascending order.
    fn evict_pages(&mut self, first: PageKey, pages: u64, victims: &mut Vec<Evicted>) {
        let mut dirty = 0;
        self.detach(first.inode, first.index, pages, |key, was_dirty| {
            dirty += u64::from(was_dirty);
            victims.push(Evicted {
                key,
                dirty: was_dirty,
            });
        });
        self.stats.evictions += pages;
        self.stats.dirty_evictions += dirty;
    }

    /// Drops the resident pages `first..first + pages` of `inode` from the
    /// extent index without informing the policy (the caller settles with
    /// it), reporting each page with its dirty bit, ascending.
    fn detach(
        &mut self,
        inode: u64,
        first: u64,
        pages: u64,
        mut on_page: impl FnMut(PageKey, bool),
    ) {
        let Some(ix) = self.index.get_mut(inode) else {
            return;
        };
        let end = first + pages;
        let mut p = first;
        if !ix.dirty.is_empty() {
            for run in ix.dirty.runs_in(first..=end - 1) {
                for q in p..*run.start() {
                    on_page(PageKey::new(inode, q), false);
                }
                for q in run.clone() {
                    on_page(PageKey::new(inode, q), true);
                }
                p = run.end() + 1;
            }
            ix.dirty.remove_range(first, pages);
        }
        for q in p..end {
            on_page(PageKey::new(inode, q), false);
        }
        let removed = ix.resident.remove_range(first, pages);
        ix.generation += removed;
        self.len -= removed as usize;
        self.pinned_len -= ix.pinned.remove_range(first, pages) as usize;
    }

    /// True when any of pages `first.index..first.index + pages` is pinned.
    fn any_pinned(&self, first: PageKey, pages: u64) -> bool {
        self.pinned_len > 0
            && self.index.get(first.inode).is_some_and(|ix| {
                !ix.pinned
                    .runs_in(first.index..=first.index + pages - 1)
                    .is_empty()
            })
    }

    /// How many evictions until `key` would be chosen (0 = next out), when
    /// the policy can predict it. Pins are not accounted for — a pinned
    /// page's rank says where it *would* fall if unpinned.
    pub fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        self.policy.eviction_rank(key)
    }

    /// [`eviction_rank`](Self::eviction_rank) of pages `0..pages` of
    /// `inode`, in one pass over the policy's queue where it can.
    pub fn eviction_ranks(&self, inode: u64, pages: u64) -> Vec<Option<usize>> {
        self.policy.eviction_ranks(inode, pages)
    }

    /// Pins a resident page, exempting it from eviction until unpinned.
    /// Returns false (and pins nothing) when the page is not resident —
    /// a reservation can only hold what exists.
    pub fn pin(&mut self, key: PageKey) -> bool {
        let Some(ix) = self.index.get_mut(key.inode) else {
            return false;
        };
        if !ix.resident.contains(key.index) {
            return false;
        }
        if ix.pinned.insert(key.index) {
            self.pinned_len += 1;
        }
        true
    }

    /// Releases a pin. No-op if not pinned.
    pub fn unpin(&mut self, key: PageKey) {
        if let Some(ix) = self.index.get_mut(key.inode) {
            if ix.pinned.remove(key.index) {
                self.pinned_len -= 1;
            }
        }
    }

    /// True when the page is pinned.
    pub fn is_pinned(&self, key: PageKey) -> bool {
        self.index
            .get(key.inode)
            .is_some_and(|ix| ix.pinned.contains(key.index))
    }

    /// Number of pinned pages.
    pub fn pinned_count(&self) -> usize {
        self.pinned_len
    }

    /// Marks a resident page dirty. No-op if the page is not resident.
    pub fn mark_dirty(&mut self, key: PageKey) {
        if let Some(ix) = self.index.get_mut(key.inode) {
            if ix.resident.contains(key.index) {
                ix.dirty.insert(key.index);
            }
        }
    }

    /// True if the page is resident and dirty.
    pub fn is_dirty(&self, key: PageKey) -> bool {
        self.index
            .get(key.inode)
            .is_some_and(|ix| ix.dirty.contains(key.index))
    }

    /// Drops a page without writeback accounting (e.g. truncate). Returns
    /// whether it was dirty.
    pub fn remove(&mut self, key: PageKey) -> Option<bool> {
        if !self.contains(key) {
            return None;
        }
        let mut dirty = false;
        self.detach(key.inode, key.index, 1, |_, was_dirty| dirty = was_dirty);
        self.policy.on_remove(key, 1);
        Some(dirty)
    }

    /// Drops every page of `inode`, returning the dirty ones (the caller
    /// decides whether they must be flushed first, as `fsync` would).
    ///
    /// Costs O(runs of this inode), not O(cache): the extent index knows
    /// exactly which runs belong to the file, and each leaves the extents
    /// and the policy in one range removal.
    pub fn remove_file(&mut self, inode: u64) -> Vec<PageKey> {
        let runs: Vec<(u64, u64)> = self
            .index
            .get(inode)
            .map(|ix| ix.resident.iter_runs().collect())
            .unwrap_or_default();
        let mut dirty = Vec::new();
        for (first, pages) in runs {
            self.detach(inode, first, pages, |key, was_dirty| {
                if was_dirty {
                    dirty.push(key);
                }
            });
            self.policy.on_remove(PageKey::new(inode, first), pages);
        }
        dirty
    }

    /// Returns the dirty pages of `inode` without removing them (`fsync`).
    pub fn dirty_pages_of(&self, inode: u64) -> Vec<PageKey> {
        self.index
            .get(inode)
            .map(|ix| {
                ix.dirty
                    .iter_pages()
                    .map(|p| PageKey::new(inode, p))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Every dirty page in the cache, in ascending `(inode, page)` order —
    /// the writeback order of a whole-cache flush.
    pub fn dirty_pages(&self) -> Vec<PageKey> {
        self.index
            .iter()
            .flat_map(|(ino, ix)| ix.dirty.iter_pages().map(move |p| PageKey::new(ino, p)))
            .collect()
    }

    /// Marks a page clean after writeback.
    pub fn mark_clean(&mut self, key: PageKey) {
        if let Some(ix) = self.index.get_mut(key.inode) {
            ix.dirty.remove(key.index);
        }
    }

    /// Residency bitmap for the first `npages` pages of `inode` — the whole
    /// of `mincore(2)`, and the input to the per-page reference SLED walk.
    pub fn residency(&self, inode: u64, npages: u64) -> Vec<bool> {
        let mut v = vec![false; npages as usize];
        if npages == 0 {
            return v;
        }
        for run in self.resident_runs(inode, 0..=npages - 1) {
            for p in run {
                v[p as usize] = true;
            }
        }
        v
    }

    /// The resident runs of `inode` overlapping `range` (page indices,
    /// inclusive), clipped to it, ascending. O(log runs + runs-in-range).
    pub fn resident_runs(
        &self,
        inode: u64,
        range: RangeInclusive<u64>,
    ) -> Vec<RangeInclusive<u64>> {
        self.index
            .get(inode)
            .map(|ix| ix.resident.runs_in(range))
            .unwrap_or_default()
    }

    /// The first page index `> page` where `inode`'s residency state flips,
    /// or `u64::MAX` when it never does. O(log runs).
    pub fn next_boundary(&self, inode: u64, page: u64) -> u64 {
        self.index
            .get(inode)
            .map(|ix| ix.resident.next_boundary(page))
            .unwrap_or(u64::MAX)
    }

    /// Number of resident runs for `inode` (0 when nothing is cached).
    pub fn resident_run_count(&self, inode: u64) -> usize {
        self.index
            .get(inode)
            .map(|ix| ix.resident.run_count())
            .unwrap_or(0)
    }

    /// The residency generation of `inode`: bumped whenever a page of the
    /// file enters or leaves the cache. Starts at 0 for never-cached files
    /// and never restarts, so `(inode, generation)` uniquely identifies a
    /// residency state for memoization.
    pub fn generation(&self, inode: u64) -> u64 {
        self.index.get(inode).map(|ix| ix.generation).unwrap_or(0)
    }

    /// Drops everything (unmount without writeback), a file's runs at a
    /// time.
    pub fn clear(&mut self) {
        for inode in 0..self.index.0.len() as u64 {
            self.remove_file(inode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(1, i)
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = PageCache::lru(2);
        assert!(!c.lookup(key(0)));
        c.insert(key(0), false);
        assert!(c.lookup(key(0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn dirty_count_tracks_writeback_debt() {
        let mut c = PageCache::lru(8);
        assert_eq!(c.dirty_count(), 0);
        c.insert(key(0), true);
        c.insert(key(1), false);
        c.insert(PageKey::new(2, 0), true);
        assert_eq!(c.dirty_count(), 2);
        c.mark_clean(key(0));
        assert_eq!(c.dirty_count(), 1);
        c.remove(PageKey::new(2, 0));
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn generation_bumps_only_when_residency_actually_changes() {
        // Regression for the detach() restructure: removing a page that is
        // not resident must be a pure probe — no generation bump — while a
        // real removal bumps exactly once. The old code mutated the extent
        // set before discovering the page was absent on some paths, which
        // sledlint D010 flagged.
        let mut c = PageCache::lru(8);
        c.insert(key(3), true);
        let after_insert = c.generation(1);
        assert!(after_insert > 0, "insert must bump the generation");

        assert_eq!(c.remove(key(7)), None, "absent page: nothing to drop");
        assert_eq!(
            c.generation(1),
            after_insert,
            "failed probe must not bump the generation"
        );
        assert_eq!(c.remove(PageKey::new(9, 0)), None);
        assert_eq!(c.generation(9), 0, "unknown inode stays at generation 0");

        assert_eq!(c.remove(key(3)), Some(true), "resident dirty page drops");
        assert_eq!(
            c.generation(1),
            after_insert + 1,
            "real removal bumps exactly once"
        );
    }

    #[test]
    fn eviction_respects_capacity() {
        let mut c = PageCache::lru(3);
        for i in 0..10 {
            c.insert(key(i), false);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 7);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = PageCache::lru(3);
        c.insert(key(0), false);
        c.insert(key(1), false);
        c.insert(key(2), false);
        c.lookup(key(0)); // 0 is now most recent
        let ev = c.insert(key(3), false).expect("must evict");
        assert_eq!(ev.key, key(1));
    }

    #[test]
    fn dirty_pages_reported_on_eviction() {
        let mut c = PageCache::lru(1);
        c.insert(key(0), true);
        let ev = c.insert(key(1), false).unwrap();
        assert!(ev.dirty);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn reinsert_ors_dirty_bit() {
        let mut c = PageCache::lru(2);
        c.insert(key(0), false);
        c.insert(key(0), true);
        assert!(c.is_dirty(key(0)));
        c.insert(key(0), false);
        assert!(
            c.is_dirty(key(0)),
            "dirty bit must not be cleared by clean reinsert"
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn contains_does_not_perturb() {
        let mut c = PageCache::lru(2);
        c.insert(key(0), false);
        c.insert(key(1), false);
        // Probing page 0 must NOT make it recently used.
        for _ in 0..10 {
            assert!(c.contains(key(0)));
        }
        let ev = c.insert(key(2), false).unwrap();
        assert_eq!(ev.key, key(0), "contains() must not refresh LRU position");
        let s = c.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn figure3_two_linear_passes_zero_hits() {
        // The paper's Figure 3: five-block file, three-block LRU cache.
        // A second linear pass gets no benefit from the first.
        let mut c = PageCache::lru(3);
        for pass in 0..2 {
            for i in 0..5 {
                if !c.lookup(key(i)) {
                    c.insert(key(i), false);
                }
            }
            if pass == 0 {
                assert_eq!(c.stats().hits, 0);
            }
        }
        assert_eq!(c.stats().hits, 0, "LRU gives a second linear pass nothing");
        assert_eq!(c.stats().misses, 10);
    }

    #[test]
    fn figure3_sleds_order_hits_cached_tail() {
        // Same setup, but the second pass reads the cached tail {2,3,4}
        // first, as the SLEDs pick library would order it.
        let mut c = PageCache::lru(3);
        for i in 0..5 {
            if !c.lookup(key(i)) {
                c.insert(key(i), false);
            }
        }
        c.reset_stats();
        for i in [2u64, 3, 4, 0, 1] {
            if !c.lookup(key(i)) {
                c.insert(key(i), false);
            }
        }
        let s = c.stats();
        assert_eq!(s.hits, 3, "the cached tail should all hit");
        assert_eq!(s.misses, 2, "only the evicted head re-reads");
    }

    #[test]
    fn remove_file_returns_dirty_pages() {
        let mut c = PageCache::lru(8);
        c.insert(PageKey::new(1, 0), true);
        c.insert(PageKey::new(1, 1), false);
        c.insert(PageKey::new(2, 0), true);
        let dirty = c.remove_file(1);
        assert_eq!(dirty, vec![PageKey::new(1, 0)]);
        assert_eq!(c.len(), 1);
        assert!(c.contains(PageKey::new(2, 0)));
    }

    #[test]
    fn residency_bitmap() {
        let mut c = PageCache::lru(8);
        c.insert(PageKey::new(1, 0), false);
        c.insert(PageKey::new(1, 2), false);
        assert_eq!(c.residency(1, 4), vec![true, false, true, false]);
    }

    #[test]
    fn dirty_tracking_and_fsync_flow() {
        let mut c = PageCache::lru(8);
        c.insert(PageKey::new(1, 0), false);
        c.mark_dirty(PageKey::new(1, 0));
        c.insert(PageKey::new(1, 1), true);
        assert_eq!(c.dirty_pages_of(1).len(), 2);
        c.mark_clean(PageKey::new(1, 0));
        assert_eq!(c.dirty_pages_of(1), vec![PageKey::new(1, 1)]);
    }

    #[test]
    fn dirty_pages_ascend_by_inode_then_page() {
        let mut c = PageCache::lru(8);
        c.insert(PageKey::new(7, 3), true);
        c.insert(PageKey::new(2, 9), true);
        c.insert(PageKey::new(7, 1), true);
        c.insert(PageKey::new(2, 4), false);
        c.insert(PageKey::new(0, 5), true);
        assert_eq!(
            c.dirty_pages(),
            vec![
                PageKey::new(0, 5),
                PageKey::new(2, 9),
                PageKey::new(7, 1),
                PageKey::new(7, 3),
            ]
        );
        c.mark_clean(PageKey::new(2, 9));
        c.remove_file(7);
        assert_eq!(c.dirty_pages(), vec![PageKey::new(0, 5)]);
        assert!(!c.contains(PageKey::new(99, 0)), "beyond the slab: absent");
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        let _ = PageCache::lru(0);
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let mut c = PageCache::lru(3);
        c.insert(key(0), false);
        assert!(c.pin(key(0)));
        for i in 1..20 {
            c.insert(key(i), false);
        }
        assert!(c.contains(key(0)), "pinned page must not be evicted");
        assert_eq!(c.len(), 3);
        c.unpin(key(0));
        for i in 20..24 {
            c.insert(key(i), false);
        }
        assert!(!c.contains(key(0)), "unpinned page becomes evictable");
    }

    #[test]
    fn pinning_nonresident_fails() {
        let mut c = PageCache::lru(2);
        assert!(!c.pin(key(9)));
        assert_eq!(c.pinned_count(), 0);
    }

    #[test]
    fn fully_pinned_cache_overflows_rather_than_fails() {
        let mut c = PageCache::lru(2);
        c.insert(key(0), false);
        c.insert(key(1), false);
        c.pin(key(0));
        c.pin(key(1));
        c.insert(key(2), false);
        assert_eq!(c.len(), 3, "mlock semantics: overflow, not failure");
        assert!(c.contains(key(0)) && c.contains(key(1)) && c.contains(key(2)));
        // Once something is unpinned, pressure drains the overflow victim.
        c.unpin(key(1));
        c.insert(key(3), false);
        assert!(!c.contains(key(1)));
    }

    #[test]
    fn remove_clears_pin() {
        let mut c = PageCache::lru(2);
        c.insert(key(0), false);
        c.pin(key(0));
        c.remove(key(0));
        assert_eq!(c.pinned_count(), 0);
    }

    #[test]
    fn resident_runs_coalesce_and_clip() {
        let mut c = PageCache::lru(32);
        for i in [0u64, 1, 2, 3, 10, 11, 30] {
            c.insert(key(i), false);
        }
        assert_eq!(c.resident_runs(1, 0..=63), vec![0..=3, 10..=11, 30..=30]);
        assert_eq!(c.resident_runs(1, 2..=10), vec![2..=3, 10..=10]);
        assert_eq!(c.resident_runs(2, 0..=63), Vec::<_>::new());
        assert_eq!(c.resident_run_count(1), 3);
    }

    #[test]
    fn next_boundary_tracks_residency_flips() {
        let mut c = PageCache::lru(32);
        for i in [4u64, 5, 6] {
            c.insert(key(i), false);
        }
        assert_eq!(c.next_boundary(1, 0), 4);
        assert_eq!(c.next_boundary(1, 4), 7);
        assert_eq!(c.next_boundary(1, 7), u64::MAX);
        assert_eq!(c.next_boundary(99, 0), u64::MAX, "unknown inode: no flips");
    }

    #[test]
    fn generation_bumps_on_residency_changes_only() {
        let mut c = PageCache::lru(4);
        assert_eq!(c.generation(1), 0);
        c.insert(key(0), false);
        let g1 = c.generation(1);
        assert!(g1 > 0);
        // Re-insert, pin, dirty: no residency change, no bump.
        c.insert(key(0), true);
        c.pin(key(0));
        c.mark_dirty(key(0));
        c.mark_clean(key(0));
        c.unpin(key(0));
        assert_eq!(c.generation(1), g1);
        // Removal bumps.
        c.remove(key(0));
        assert!(c.generation(1) > g1);
    }

    #[test]
    fn generation_survives_full_eviction() {
        let mut c = PageCache::lru(2);
        c.insert(key(0), false);
        c.insert(key(1), false);
        let g = c.generation(1);
        c.remove_file(1);
        assert!(c.is_empty());
        assert!(
            c.generation(1) > g,
            "generation must keep counting after the file leaves the cache"
        );
    }

    #[test]
    fn eviction_bumps_victims_generation() {
        let mut c = PageCache::lru(1);
        c.insert(PageKey::new(1, 0), false);
        let g = c.generation(1);
        c.insert(PageKey::new(2, 0), false); // evicts inode 1's page
        assert!(c.generation(1) > g);
    }

    #[test]
    fn insert_run_returns_victims_in_eviction_order() {
        let mut c = PageCache::lru(4);
        assert!(c.insert_run(1, 0, 4, true).is_empty());
        c.mark_clean(key(1));
        let victims = c.insert_run(2, 0, 3, false);
        let expected: Vec<Evicted> = [(0, true), (1, false), (2, true)]
            .into_iter()
            .map(|(i, dirty)| Evicted { key: key(i), dirty })
            .collect();
        assert_eq!(victims, expected);
        assert_eq!(c.generation(1), 4 + 3, "bumped once per page changed");
        assert_eq!(c.generation(2), 3);
        assert_eq!(c.resident_runs(1, 0..=3), vec![3..=3]);
        assert_eq!(c.stats().dirty_evictions, 2);
    }

    #[test]
    fn requeued_pages_are_evicted_at_their_new_position() {
        // FIFO and Clock used to keep a removed page's old queue entry and
        // evict the page there once it was inserted again.
        for kind in [PolicyKind::Fifo, PolicyKind::Clock] {
            let mut c = PageCache::new(3, kind);
            c.insert(key(0), false);
            c.insert(key(1), false);
            c.remove(key(0));
            c.insert(key(2), false);
            c.insert(key(0), false);
            let ev = c.insert(key(3), false).expect("cache is full");
            assert_eq!(ev.key, key(1), "{}", kind.name());
        }
        // 2Q used to keep a promoted page's probation entry, so a page back
        // on probation was evicted ahead of older newcomers.
        let mut c = PageCache::new(8, PolicyKind::TwoQ);
        for i in 0..8 {
            c.insert(key(i), false);
            c.lookup(key(i));
        }
        c.insert(key(100), false);
        c.insert(key(0), false);
        let ev = c.insert(key(200), false).expect("cache is full");
        assert_eq!(ev.key, key(100), "probation is first in, first out");
    }

    #[test]
    fn one_pass_eviction_ranks_match_per_page_ranks() {
        for kind in [PolicyKind::Lru, PolicyKind::Mru, PolicyKind::Fifo] {
            let mut c = PageCache::new(16, kind);
            c.insert_run(1, 0, 6, false);
            c.insert_run(2, 0, 3, false);
            c.lookup(key(2));
            c.remove(key(4));
            c.insert_run(1, 8, 3, false);
            c.lookup(PageKey::new(2, 1));
            let per_page: Vec<_> = (0..12).map(|i| c.eviction_rank(key(i))).collect();
            assert_eq!(c.eviction_ranks(1, 12), per_page, "{}", kind.name());
            assert!(per_page.iter().any(Option::is_some) && per_page.iter().any(Option::is_none));
        }
    }

    #[test]
    fn range_removals_bump_generations_by_pages_removed() {
        let mut c = PageCache::lru(16);
        c.insert_run(1, 0, 5, true);
        c.insert_run(1, 8, 2, false);
        c.insert_run(2, 0, 3, false);
        c.pin(key(1));
        assert_eq!(c.remove_file(1), (0..5).map(key).collect::<Vec<_>>());
        assert_eq!(c.generation(1), 7 + 7);
        assert_eq!(c.pinned_count(), 0);
        c.clear();
        assert_eq!(c.generation(2), 3 + 3);
        assert!(c.is_empty());
        assert_eq!(c.dirty_count(), 0);
    }
}
