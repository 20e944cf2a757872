//! Differential property test: `PageCache::insert_run` against page-at-a-time
//! insertion, for every replacement policy.
//!
//! The reference is written independently of the crate: plain vectors in
//! queue order and the per-page insertion loop the run path is defined by
//! (refresh resident pages, evict one victim per new page once full, skip
//! pinned victims by re-queueing them for up to one full pass, overflow when
//! everything is pinned). After every operation the two must agree on the
//! victims and their order, the resident, dirty and pinned sets, every
//! inode's generation, the counters and the eviction ranks.
//!
//! Enable with `cargo test -p sleds-pagecache --features proptests`.

use std::collections::{BTreeMap, BTreeSet};

use sleds_pagecache::{PageCache, PageKey, PolicyKind};
use sleds_sim_core::{check, DetRng};

const INODES: u64 = 3;
const PAGES: u64 = 12;

/// A page-at-a-time cache over naive queues.
struct Reference {
    kind: PolicyKind,
    capacity: usize,
    resident: BTreeSet<PageKey>,
    dirty: BTreeSet<PageKey>,
    pinned: BTreeSet<PageKey>,
    generations: BTreeMap<u64, u64>,
    /// Queue order, oldest first: the LRU/MRU/FIFO list, Clock's ring, or
    /// 2Q's probation queue.
    queue: Vec<PageKey>,
    /// 2Q's main queue, oldest first.
    main: Vec<PageKey>,
    /// Clock's reference bits.
    referenced: BTreeSet<PageKey>,
    insertions: u64,
    evictions: u64,
    dirty_evictions: u64,
}

fn take(v: &mut Vec<PageKey>, key: PageKey) -> bool {
    let at = v.iter().position(|&k| k == key);
    if let Some(i) = at {
        v.remove(i);
    }
    at.is_some()
}

impl Reference {
    fn new(capacity: usize, kind: PolicyKind) -> Self {
        Reference {
            kind,
            capacity,
            resident: BTreeSet::new(),
            dirty: BTreeSet::new(),
            pinned: BTreeSet::new(),
            generations: BTreeMap::new(),
            queue: Vec::new(),
            main: Vec::new(),
            referenced: BTreeSet::new(),
            insertions: 0,
            evictions: 0,
            dirty_evictions: 0,
        }
    }

    fn bump(&mut self, inode: u64) {
        *self.generations.entry(inode).or_default() += 1;
    }

    fn hit(&mut self, key: PageKey) {
        match self.kind {
            PolicyKind::Lru | PolicyKind::Mru => {
                take(&mut self.queue, key);
                self.queue.push(key);
            }
            PolicyKind::Fifo => {}
            PolicyKind::Clock => {
                self.referenced.insert(key);
            }
            PolicyKind::TwoQ => {
                if take(&mut self.queue, key) || take(&mut self.main, key) {
                    self.main.push(key);
                }
            }
        }
    }

    fn evict(&mut self) -> Option<PageKey> {
        match self.kind {
            PolicyKind::Lru | PolicyKind::Fifo => {
                (!self.queue.is_empty()).then(|| self.queue.remove(0))
            }
            PolicyKind::Mru => self.queue.pop(),
            PolicyKind::Clock => loop {
                if self.queue.is_empty() {
                    return None;
                }
                let key = self.queue.remove(0);
                if !self.referenced.remove(&key) {
                    return Some(key);
                }
                self.queue.push(key);
            },
            PolicyKind::TwoQ => {
                let target = (self.capacity / 4).max(1);
                let q = if self.queue.len() >= target || self.main.is_empty() {
                    &mut self.queue
                } else {
                    &mut self.main
                };
                (!q.is_empty()).then(|| q.remove(0))
            }
        }
    }

    fn insert(&mut self, key: PageKey, dirty: bool) -> Option<(PageKey, bool)> {
        if self.resident.contains(&key) {
            if dirty {
                self.dirty.insert(key);
            }
            self.hit(key);
            return None;
        }
        let mut victim = None;
        if self.resident.len() >= self.capacity {
            for _ in 0..=self.resident.len() {
                match self.evict() {
                    Some(v) if self.pinned.contains(&v) => self.queue.push(v),
                    Some(v) => {
                        self.resident.remove(&v);
                        let was_dirty = self.dirty.remove(&v);
                        self.bump(v.inode);
                        self.evictions += 1;
                        self.dirty_evictions += u64::from(was_dirty);
                        victim = Some((v, was_dirty));
                        break;
                    }
                    None => break,
                }
            }
        }
        self.resident.insert(key);
        if dirty {
            self.dirty.insert(key);
        }
        self.bump(key.inode);
        self.queue.push(key);
        self.insertions += 1;
        victim
    }

    fn remove(&mut self, key: PageKey) {
        if self.resident.remove(&key) {
            self.dirty.remove(&key);
            self.pinned.remove(&key);
            self.referenced.remove(&key);
            take(&mut self.queue, key);
            take(&mut self.main, key);
            self.bump(key.inode);
        }
    }

    fn rank(&self, key: PageKey) -> Option<usize> {
        let at = self.queue.iter().position(|&k| k == key)?;
        match self.kind {
            PolicyKind::Lru | PolicyKind::Fifo => Some(at),
            PolicyKind::Mru => Some(self.queue.len() - 1 - at),
            PolicyKind::Clock | PolicyKind::TwoQ => None,
        }
    }
}

fn pages() -> impl Iterator<Item = PageKey> {
    (0..INODES).flat_map(|i| (0..PAGES).map(move |p| PageKey::new(i, p)))
}

fn assert_agree(real: &PageCache, model: &Reference, ctx: &str) {
    for key in pages() {
        assert_eq!(
            real.contains(key),
            model.resident.contains(&key),
            "{ctx}: residency of {key:?}"
        );
        assert_eq!(
            real.is_dirty(key),
            model.dirty.contains(&key),
            "{ctx}: dirty bit of {key:?}"
        );
        assert_eq!(
            real.is_pinned(key),
            model.pinned.contains(&key),
            "{ctx}: pin of {key:?}"
        );
        assert_eq!(
            real.eviction_rank(key),
            model.rank(key),
            "{ctx}: rank of {key:?}"
        );
    }
    for inode in 0..INODES {
        let ranks: Vec<_> = (0..PAGES)
            .map(|p| model.rank(PageKey::new(inode, p)))
            .collect();
        assert_eq!(
            real.eviction_ranks(inode, PAGES),
            ranks,
            "{ctx}: ranks of {inode}"
        );
        assert_eq!(
            real.generation(inode),
            model.generations.get(&inode).copied().unwrap_or(0),
            "{ctx}: generation of {inode}"
        );
    }
    let s = real.stats();
    assert_eq!(real.len(), model.resident.len(), "{ctx}: len");
    assert_eq!(real.pinned_count(), model.pinned.len(), "{ctx}: pins");
    assert_eq!(
        (s.insertions, s.evictions, s.dirty_evictions),
        (model.insertions, model.evictions, model.dirty_evictions),
        "{ctx}: counters"
    );
}

fn random_key(rng: &mut DetRng) -> PageKey {
    PageKey::new(rng.range_u64(0, INODES), rng.range_u64(0, PAGES))
}

#[test]
fn insert_run_matches_page_at_a_time_insertion() {
    check::run("insert_run_matches_page_at_a_time_insertion", |rng| {
        let kind = PolicyKind::all()[rng.range_usize(0, 5)];
        // Mostly tiny caches, so runs outgrow them and pins crowd them.
        let capacity = if rng.chance(0.8) {
            rng.range_usize(1, 5)
        } else {
            rng.range_usize(5, 17)
        };
        let mut real = PageCache::new(capacity, kind);
        let mut model = Reference::new(capacity, kind);
        for step in 0..rng.range_usize(1, 120) {
            let ctx = format!("{} cap {capacity} step {step}", kind.name());
            let key = random_key(rng);
            match rng.range_u64(0, 10) {
                0..=4 => {
                    // Runs may overlap resident pages and outgrow the cache.
                    let len =
                        rng.range_u64(1, (2 * capacity as u64 + 4).min(PAGES - key.index + 1));
                    let dirty = rng.chance(0.4);
                    let victims: Vec<_> = real
                        .insert_run(key.inode, key.index, len, dirty)
                        .into_iter()
                        .map(|ev| (ev.key, ev.dirty))
                        .collect();
                    let expected: Vec<_> = (key.index..key.index + len)
                        .filter_map(|p| model.insert(PageKey::new(key.inode, p), dirty))
                        .collect();
                    assert_eq!(victims, expected, "{ctx}: victims of run {key:?}+{len}");
                }
                5 => {
                    if real.lookup(key) {
                        model.hit(key);
                    }
                }
                6 | 7 => {
                    if real.pin(key) {
                        model.pinned.insert(key);
                    }
                }
                8 => {
                    real.unpin(key);
                    model.pinned.remove(&key);
                }
                _ => match rng.range_u64(0, 4) {
                    0 => {
                        real.remove(key);
                        model.remove(key);
                    }
                    1 => {
                        real.remove_file(key.inode);
                        for p in 0..PAGES {
                            model.remove(PageKey::new(key.inode, p));
                        }
                    }
                    2 => {
                        real.clear();
                        for k in pages() {
                            model.remove(k);
                        }
                    }
                    _ => {
                        real.mark_clean(key);
                        model.dirty.remove(&key);
                    }
                },
            }
            assert_agree(&real, &model, &ctx);
        }
    });
}
