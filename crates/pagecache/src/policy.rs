//! Replacement policies for the buffer cache.
//!
//! LRU is the default (and what the paper's Figure 3 assumes). The others
//! exist for the ablation benchmarks: Clock approximates LRU the way real
//! kernels do, FIFO ignores recency, MRU is the pathological-for-scans
//! opposite, and 2Q resists exactly the sequential-flood behaviour SLEDs
//! exploits — making it an interesting counterfactual.

use std::collections::{BTreeMap, BTreeSet};

use crate::PageKey;

/// A page replacement policy: told about insertions/hits, asked for victims.
///
/// The cache guarantees `evict` and `evict_run` are only called when at
/// least one page is tracked, and `on_insert` is never called for an
/// already-tracked page.
pub trait ReplacementPolicy {
    /// Pages `first.index..first.index + pages` of `first.inode` became
    /// resident — the same as inserting them one at a time, ascending.
    fn on_insert(&mut self, first: PageKey, pages: u64);
    /// A resident page was referenced.
    fn on_hit(&mut self, key: PageKey);
    /// Chooses a page to discard.
    fn evict(&mut self) -> Option<PageKey>;
    /// Chooses up to `max` (at least one) pages to discard at once, as a
    /// run `(first, pages)` of ascending pages of one inode: exactly the
    /// pages that many successive [`evict`](Self::evict) calls would return,
    /// in order, even when new pages are inserted between those calls. The
    /// default takes one page.
    fn evict_run(&mut self, _max: u64) -> Option<(PageKey, u64)> {
        self.evict().map(|key| (key, 1))
    }
    /// Tracked pages among `first.index..first.index + pages` of
    /// `first.inode` were removed outside the eviction path (truncate,
    /// unmount).
    fn on_remove(&mut self, first: PageKey, pages: u64);
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// How many evictions until this page would be chosen, if the policy
    /// can predict it (0 = next out). Recency/queue policies can; Clock and
    /// 2Q depend on future references and return `None`. This feeds the
    /// SLED *forecast* extension (the paper's "predict which pages of a
    /// file would be flushed from cache based on current page replacement
    /// algorithms").
    fn eviction_rank(&self, _key: PageKey) -> Option<usize> {
        None
    }

    /// [`eviction_rank`](Self::eviction_rank) of pages `0..pages` of
    /// `inode`. The default asks page by page; recency policies answer in
    /// one walk over their runs.
    fn eviction_ranks(&self, inode: u64, pages: u64) -> Vec<Option<usize>> {
        (0..pages)
            .map(|i| self.eviction_rank(PageKey::new(inode, i)))
            .collect()
    }
}

/// Selects a policy implementation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// Least recently used (simulator default).
    Lru,
    /// Clock / second chance.
    Clock,
    /// First in, first out.
    Fifo,
    /// Most recently used.
    Mru,
    /// Two-queue (Johnson & Shasha's simplified 2Q).
    TwoQ,
}

impl PolicyKind {
    /// Instantiates the policy for a cache of `capacity` pages.
    pub fn build(self, capacity: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Clock => Box::new(ClockPolicy::new()),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
            PolicyKind::Mru => Box::new(MruPolicy::new()),
            PolicyKind::TwoQ => Box::new(TwoQPolicy::new(capacity)),
        }
    }

    /// All kinds, for ablation sweeps.
    pub fn all() -> [PolicyKind; 5] {
        [
            PolicyKind::Lru,
            PolicyKind::Clock,
            PolicyKind::Fifo,
            PolicyKind::Mru,
            PolicyKind::TwoQ,
        ]
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Clock => "clock",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Mru => "mru",
            PolicyKind::TwoQ => "2q",
        }
    }
}

/// Pages `first.index..first.index + pages` of `first.inode`, queued in
/// page order with nothing still queued between them. A run starting at
/// sequence `s` owns sequence numbers `s..s + pages`.
#[derive(Clone, Copy, Debug)]
struct Run {
    first: PageKey,
    pages: u64,
}

impl Run {
    fn end(&self) -> u64 {
        self.first.index + self.pages
    }
}

/// Pages ordered by when they were last queued, shared by every policy
/// (LRU, MRU and FIFO order, Clock's ring, both 2Q queues).
///
/// Stored run-length: consecutive pages of one inode queued back to back
/// share one entry, keyed by its start sequence number, and the entries'
/// sequence ranges are disjoint and ordered like the queue. A 512-page fill
/// is one entry, and evicting it from the old end is one, so costs scale
/// with runs touched rather than pages. A page is queued at most once, so
/// no stale entry can outlive its removal.
#[derive(Debug, Default)]
struct RecencyList {
    /// The sequence number of the next queued page.
    seq: u64,
    /// Pages queued.
    len: usize,
    /// Run start sequence -> run, oldest first.
    by_seq: BTreeMap<u64, Run>,
    /// Run first page -> run start sequence.
    by_key: BTreeMap<PageKey, u64>,
}

impl RecencyList {
    /// The run holding `key`, with its start sequence.
    fn run_of(&self, key: PageKey) -> Option<(u64, Run)> {
        let (&first, &s) = self.by_key.range(..=key).next_back()?;
        let run = self.by_seq[&s];
        (first.inode == key.inode && key.index < run.end()).then_some((s, run))
    }

    fn contains(&self, key: PageKey) -> bool {
        self.run_of(key).is_some()
    }

    /// Queues untracked pages `first.index..first.index + pages` as the
    /// newest, extending the newest run when they continue it (its
    /// sequence range stays below `seq`, so ranges stay disjoint).
    fn push(&mut self, first: PageKey, pages: u64) {
        if pages == 0 {
            return;
        }
        let seq = self.seq;
        self.seq += pages;
        self.len += pages as usize;
        if let Some(mut newest) = self.by_seq.last_entry() {
            let run = newest.get_mut();
            if run.first.inode == first.inode && run.end() == first.index {
                run.pages += pages;
                return;
            }
        }
        self.by_seq.insert(seq, Run { first, pages });
        self.by_key.insert(first, seq);
    }

    /// Re-queues a tracked (or untracked) page as the newest.
    fn touch(&mut self, key: PageKey) {
        self.remove(key, 1);
        self.push(key, 1);
    }

    /// Drops pages `lo..hi` of `run` (which starts at sequence `s`),
    /// keeping its head and tail as runs.
    fn cut(&mut self, s: u64, run: Run, lo: u64, hi: u64) {
        let head = lo - run.first.index;
        if head > 0 {
            if let Some(r) = self.by_seq.get_mut(&s) {
                r.pages = head;
            }
        } else {
            self.by_seq.remove(&s);
            self.by_key.remove(&run.first);
        }
        if hi < run.end() {
            let tail = Run {
                first: PageKey::new(run.first.inode, hi),
                pages: run.end() - hi,
            };
            let ts = s + (hi - run.first.index);
            self.by_seq.insert(ts, tail);
            self.by_key.insert(tail.first, ts);
        }
        self.len -= (hi - lo) as usize;
    }

    /// Drops the queued pages among `first.index..first.index + pages`;
    /// returns how many there were.
    fn remove(&mut self, first: PageKey, pages: u64) -> u64 {
        let end = first.index.saturating_add(pages);
        let mut removed = 0;
        let mut p = first.index;
        while p < end {
            let key = PageKey::new(first.inode, p);
            let found = self.run_of(key).or_else(|| {
                let (_, &s) = self
                    .by_key
                    .range(key..PageKey::new(first.inode, end))
                    .next()?;
                Some((s, self.by_seq[&s]))
            });
            let Some((s, run)) = found else {
                break;
            };
            let (lo, hi) = (p.max(run.first.index), end.min(run.end()));
            self.cut(s, run, lo, hi);
            removed += hi - lo;
            p = hi;
        }
        removed
    }

    /// Dequeues up to `max` of the oldest pages, as long as they form one
    /// run.
    fn pop_oldest(&mut self, max: u64) -> Option<(PageKey, u64)> {
        let (&s, &run) = self.by_seq.first_key_value()?;
        let n = run.pages.min(max);
        self.cut(s, run, run.first.index, run.first.index + n);
        Some((run.first, n))
    }

    /// Dequeues the newest page.
    fn pop_newest(&mut self) -> Option<PageKey> {
        let (&s, &run) = self.by_seq.last_key_value()?;
        let last = run.end() - 1;
        self.cut(s, run, last, last + 1);
        Some(PageKey::new(run.first.inode, last))
    }

    /// Position of `key` counted from the oldest (or the newest) page.
    /// O(runs).
    fn rank(&self, key: PageKey, from_newest: bool) -> Option<usize> {
        let (s, run) = self.run_of(key)?;
        let offset = key.index - run.first.index;
        let (others, within) = if from_newest {
            (self.by_seq.range(s + 1..), run.pages - 1 - offset)
        } else {
            (self.by_seq.range(..s), offset)
        };
        Some(others.map(|(_, r)| r.pages as usize).sum::<usize>() + within as usize)
    }

    /// [`rank`](Self::rank) of pages `0..pages` of `inode`, from one walk
    /// over the runs. O(runs + pages).
    fn ranks(&self, inode: u64, pages: u64, from_newest: bool) -> Vec<Option<usize>> {
        let mut out = vec![None; pages as usize];
        let mut before = 0usize;
        let mut visit = |run: &Run| {
            if run.first.inode == inode {
                for p in run.first.index..run.end().min(pages) {
                    let within = if from_newest {
                        run.end() - 1 - p
                    } else {
                        p - run.first.index
                    };
                    out[p as usize] = Some(before + within as usize);
                }
            }
            before += run.pages as usize;
        };
        if from_newest {
            self.by_seq.values().rev().for_each(&mut visit);
        } else {
            self.by_seq.values().for_each(&mut visit);
        }
        out
    }
}

/// Least recently used.
#[derive(Debug, Default)]
pub struct LruPolicy {
    list: RecencyList,
}

impl LruPolicy {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        LruPolicy::default()
    }
}

impl ReplacementPolicy for LruPolicy {
    fn on_insert(&mut self, first: PageKey, pages: u64) {
        self.list.push(first, pages);
    }
    fn on_hit(&mut self, key: PageKey) {
        self.list.touch(key);
    }
    fn evict(&mut self) -> Option<PageKey> {
        self.list.pop_oldest(1).map(|(key, _)| key)
    }
    fn evict_run(&mut self, max: u64) -> Option<(PageKey, u64)> {
        self.list.pop_oldest(max)
    }
    fn on_remove(&mut self, first: PageKey, pages: u64) {
        self.list.remove(first, pages);
    }
    fn name(&self) -> &'static str {
        "lru"
    }
    fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        self.list.rank(key, false)
    }
    fn eviction_ranks(&self, inode: u64, pages: u64) -> Vec<Option<usize>> {
        self.list.ranks(inode, pages, false)
    }
}

/// Most recently used — evicts the page touched last. Pathological for most
/// workloads but optimal for cyclic scans slightly larger than the cache,
/// which is exactly the regime of the paper's experiments.
#[derive(Debug, Default)]
pub struct MruPolicy {
    list: RecencyList,
}

impl MruPolicy {
    /// Creates an empty MRU policy.
    pub fn new() -> Self {
        MruPolicy::default()
    }
}

impl ReplacementPolicy for MruPolicy {
    fn on_insert(&mut self, first: PageKey, pages: u64) {
        self.list.push(first, pages);
    }
    fn on_hit(&mut self, key: PageKey) {
        self.list.touch(key);
    }
    fn evict(&mut self) -> Option<PageKey> {
        self.list.pop_newest()
    }
    fn on_remove(&mut self, first: PageKey, pages: u64) {
        self.list.remove(first, pages);
    }
    fn name(&self) -> &'static str {
        "mru"
    }
    fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        self.list.rank(key, true)
    }
    fn eviction_ranks(&self, inode: u64, pages: u64) -> Vec<Option<usize>> {
        self.list.ranks(inode, pages, true)
    }
}

/// First in, first out: eviction order is insertion order, hits are ignored.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    list: RecencyList,
}

impl FifoPolicy {
    /// Creates an empty FIFO policy.
    pub fn new() -> Self {
        FifoPolicy::default()
    }
}

impl ReplacementPolicy for FifoPolicy {
    fn on_insert(&mut self, first: PageKey, pages: u64) {
        self.list.push(first, pages);
    }
    fn on_hit(&mut self, _key: PageKey) {}
    fn evict(&mut self) -> Option<PageKey> {
        self.list.pop_oldest(1).map(|(key, _)| key)
    }
    fn evict_run(&mut self, max: u64) -> Option<(PageKey, u64)> {
        self.list.pop_oldest(max)
    }
    fn on_remove(&mut self, first: PageKey, pages: u64) {
        self.list.remove(first, pages);
    }
    fn name(&self) -> &'static str {
        "fifo"
    }
    fn eviction_rank(&self, key: PageKey) -> Option<usize> {
        self.list.rank(key, false)
    }
    fn eviction_ranks(&self, inode: u64, pages: u64) -> Vec<Option<usize>> {
        self.list.ranks(inode, pages, false)
    }
}

/// Clock (second chance): a FIFO ring whose entries get a reference bit;
/// the hand skips (and clears) referenced pages once before evicting.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    ring: RecencyList,
    referenced: BTreeSet<PageKey>,
}

impl ClockPolicy {
    /// Creates an empty Clock policy.
    pub fn new() -> Self {
        ClockPolicy::default()
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn on_insert(&mut self, first: PageKey, pages: u64) {
        self.ring.push(first, pages);
    }
    fn on_hit(&mut self, key: PageKey) {
        if self.ring.contains(key) {
            self.referenced.insert(key);
        }
    }
    fn evict(&mut self) -> Option<PageKey> {
        // Each lap either finds a victim or clears a referenced bit, so this
        // terminates: bits only get cleared here.
        loop {
            let (key, _) = self.ring.pop_oldest(1)?;
            if !self.referenced.remove(&key) {
                return Some(key);
            }
            self.ring.push(key, 1);
        }
    }
    fn on_remove(&mut self, first: PageKey, pages: u64) {
        self.ring.remove(first, pages);
        let end = PageKey::new(first.inode, first.index.saturating_add(pages));
        while let Some(&key) = self.referenced.range(first..end).next() {
            self.referenced.remove(&key);
        }
    }
    fn name(&self) -> &'static str {
        "clock"
    }
}

/// Simplified 2Q: newcomers enter a FIFO probation queue (`a1`, a quarter of
/// the cache); pages re-referenced while on probation are promoted to the
/// LRU main queue (`am`). Victims come from a too-long probation queue
/// first, otherwise from the main queue's cold end.
#[derive(Debug)]
pub struct TwoQPolicy {
    a1_target: usize,
    a1: RecencyList,
    am: RecencyList,
}

impl TwoQPolicy {
    /// Creates a 2Q policy for a cache of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        TwoQPolicy {
            a1_target: (capacity / 4).max(1),
            a1: RecencyList::default(),
            am: RecencyList::default(),
        }
    }
}

impl ReplacementPolicy for TwoQPolicy {
    fn on_insert(&mut self, first: PageKey, pages: u64) {
        self.a1.push(first, pages);
    }
    fn on_hit(&mut self, key: PageKey) {
        if self.a1.remove(key, 1) == 1 {
            // Promote out of probation.
            self.am.push(key, 1);
        } else if self.am.contains(key) {
            self.am.touch(key);
        }
    }
    fn evict(&mut self) -> Option<PageKey> {
        let queue = if self.a1.len >= self.a1_target || self.am.len == 0 {
            &mut self.a1
        } else {
            &mut self.am
        };
        queue.pop_oldest(1).map(|(key, _)| key)
    }
    fn on_remove(&mut self, first: PageKey, pages: u64) {
        self.a1.remove(first, pages);
        self.am.remove(first, pages);
    }
    fn name(&self) -> &'static str {
        "2q"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> PageKey {
        PageKey::new(9, i)
    }

    #[test]
    fn lru_order() {
        let mut p = LruPolicy::new();
        p.on_insert(key(0), 1);
        p.on_insert(key(1), 1);
        p.on_insert(key(2), 1);
        p.on_hit(key(0));
        assert_eq!(p.evict(), Some(key(1)));
        assert_eq!(p.evict(), Some(key(2)));
        assert_eq!(p.evict(), Some(key(0)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn mru_order() {
        let mut p = MruPolicy::new();
        p.on_insert(key(0), 1);
        p.on_insert(key(1), 1);
        p.on_insert(key(2), 1);
        assert_eq!(p.evict(), Some(key(2)));
        p.on_hit(key(0));
        assert_eq!(p.evict(), Some(key(0)));
        assert_eq!(p.evict(), Some(key(1)));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = FifoPolicy::new();
        p.on_insert(key(0), 1);
        p.on_insert(key(1), 1);
        p.on_hit(key(0));
        p.on_hit(key(0));
        assert_eq!(p.evict(), Some(key(0)));
    }

    #[test]
    fn fifo_skips_removed() {
        let mut p = FifoPolicy::new();
        p.on_insert(key(0), 1);
        p.on_insert(key(1), 1);
        p.on_remove(key(0), 1);
        assert_eq!(p.evict(), Some(key(1)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::new();
        p.on_insert(key(0), 1);
        p.on_insert(key(1), 1);
        p.on_hit(key(0));
        // 0 is referenced: hand clears it and takes 1.
        assert_eq!(p.evict(), Some(key(1)));
        // Next eviction takes 0 (bit now cleared).
        assert_eq!(p.evict(), Some(key(0)));
    }

    #[test]
    fn clock_handles_out_of_band_removal() {
        let mut p = ClockPolicy::new();
        p.on_insert(key(0), 1);
        p.on_insert(key(1), 1);
        p.on_remove(key(0), 1);
        assert_eq!(p.evict(), Some(key(1)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn twoq_promotes_on_probation_hit() {
        let mut p = TwoQPolicy::new(8); // a1 target = 2
        p.on_insert(key(0), 1);
        p.on_insert(key(1), 1);
        p.on_hit(key(0)); // promoted to Am
        p.on_insert(key(2), 1);
        // a1 = {1, 2} at target; evict from probation FIFO.
        assert_eq!(p.evict(), Some(key(1)));
        // Probation is now below target, so the main queue yields next.
        assert_eq!(p.evict(), Some(key(0)));
        // Fallback drains the remaining probation page.
        assert_eq!(p.evict(), Some(key(2)));
        assert_eq!(p.evict(), None);
    }

    #[test]
    fn twoq_scan_resistance() {
        // A hot page that is re-referenced survives a long sequential scan.
        let mut p = TwoQPolicy::new(4); // a1 target 1
        p.on_insert(key(100), 1);
        p.on_hit(key(100)); // hot, promoted
        for i in 0..64 {
            p.on_insert(key(i), 1);
            let v = p.evict().unwrap();
            assert_ne!(v, key(100), "scan must not evict the hot page");
        }
    }

    #[test]
    fn eviction_ranks_predict_order() {
        let mut p = LruPolicy::new();
        for i in 0..5 {
            p.on_insert(key(i), 1);
        }
        p.on_hit(key(0)); // 0 becomes newest
        assert_eq!(p.eviction_rank(key(1)), Some(0));
        assert_eq!(p.eviction_rank(key(0)), Some(4));
        assert_eq!(p.eviction_rank(key(9)), None);
        // The rank-0 page is indeed the next victim.
        assert_eq!(p.evict(), Some(key(1)));

        let mut f = FifoPolicy::new();
        f.on_insert(key(0), 1);
        f.on_insert(key(1), 1);
        f.on_insert(key(2), 1);
        f.on_remove(key(0), 1);
        assert_eq!(f.eviction_rank(key(1)), Some(0));
        assert_eq!(f.eviction_rank(key(2)), Some(1));
        assert_eq!(f.eviction_rank(key(0)), None);

        let mut m = MruPolicy::new();
        m.on_insert(key(0), 1);
        m.on_insert(key(1), 1);
        assert_eq!(m.eviction_rank(key(1)), Some(0));
        assert_eq!(m.eviction_rank(key(0)), Some(1));

        // Clock cannot predict without knowing future references.
        let mut c = ClockPolicy::new();
        c.on_insert(key(0), 1);
        assert_eq!(c.eviction_rank(key(0)), None);
    }

    #[test]
    fn kind_builds_matching_names() {
        for kind in PolicyKind::all() {
            let p = kind.build(16);
            assert_eq!(p.name(), kind.name());
        }
    }

    #[test]
    fn lru_evicts_whole_runs_from_the_old_end() {
        let mut p = LruPolicy::new();
        p.on_insert(key(0), 4);
        p.on_insert(PageKey::new(3, 0), 2);
        p.on_hit(key(1)); // splits the first run around page 1
        assert_eq!(p.evict_run(8), Some((key(0), 1)));
        assert_eq!(p.evict_run(1), Some((key(2), 1)), "capped at max");
        assert_eq!(p.evict_run(8), Some((key(3), 1)));
        assert_eq!(p.evict_run(8), Some((PageKey::new(3, 0), 2)));
        assert_eq!(p.evict_run(8), Some((key(1), 1)));
        assert_eq!(p.evict_run(8), None);
    }
}
