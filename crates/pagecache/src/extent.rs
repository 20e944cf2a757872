//! Run-length extent sets over page indices.
//!
//! The residency index the paper's `FSLEDS_GET` path needs: membership of a
//! set of pages stored as sorted, coalesced `(start, length)` runs in a
//! `BTreeMap`, so range queries cost O(log runs + runs-in-range) instead of
//! one probe per page. This is the same shape real kernels use for the page
//! cache (radix tree / xarray ranges) and what log-structured systems keep
//! for allocation maps.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// A set of page indices stored as disjoint, non-adjacent runs.
///
/// Invariant: for consecutive runs `(s1, l1)` and `(s2, l2)`,
/// `s1 + l1 < s2` — adjacent runs are always coalesced on insert.
#[derive(Clone, Debug, Default)]
pub struct ExtentSet {
    /// `start -> length` (pages), keys sorted, runs disjoint and separated.
    runs: BTreeMap<u64, u64>,
    /// Total pages across runs.
    pages: u64,
}

impl ExtentSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ExtentSet::default()
    }

    /// True when no page is in the set.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of runs (level transitions / 2, roughly).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of pages in the set.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// The run containing `page`, if any.
    fn run_of(&self, page: u64) -> Option<(u64, u64)> {
        self.runs
            .range(..=page)
            .next_back()
            .map(|(&s, &l)| (s, l))
            .filter(|&(s, l)| page - s < l)
    }

    /// Membership probe: O(log runs).
    pub fn contains(&self, page: u64) -> bool {
        self.run_of(page).is_some()
    }

    /// Inserts `page`, coalescing with adjacent runs. Returns true when the
    /// page was not already present.
    pub fn insert(&mut self, page: u64) -> bool {
        self.insert_range(page, 1) == 1
    }

    /// Inserts pages `first..first + pages`, coalescing every run they
    /// overlap or touch into one. Returns how many pages were not already
    /// present. O(log runs + runs merged).
    pub fn insert_range(&mut self, first: u64, pages: u64) -> u64 {
        if pages == 0 {
            return 0;
        }
        assert!(
            pages <= u64::MAX - first,
            "u64::MAX is reserved as the no-boundary sentinel"
        );
        let end = first + pages;
        let (mut lo, mut hi, mut present) = (first, end, 0);
        // A run starting before `first` that reaches it absorbs the range...
        if let Some((&s, &l)) = self.runs.range(..first).next_back() {
            if s + l >= first {
                lo = s;
                hi = hi.max(s + l);
                present += (s + l).min(end).saturating_sub(first);
                self.runs.remove(&s);
            }
        }
        // ...as does every run starting inside it or right at its end.
        while let Some((&s, &l)) = self.runs.range(first..=end).next() {
            hi = hi.max(s + l);
            present += (s + l).min(end).saturating_sub(s);
            self.runs.remove(&s);
        }
        self.runs.insert(lo, hi - lo);
        let added = pages - present;
        self.pages += added;
        added
    }

    /// Removes `page`, splitting its run if needed. Returns true when the
    /// page was present.
    pub fn remove(&mut self, page: u64) -> bool {
        self.remove_range(page, 1) == 1
    }

    /// Removes pages `first..first + pages`, trimming or splitting the runs
    /// at its edges. Returns how many pages were present. O(log runs + runs
    /// removed).
    pub fn remove_range(&mut self, first: u64, pages: u64) -> u64 {
        if pages == 0 {
            return 0;
        }
        let end = first.saturating_add(pages);
        let mut removed = 0;
        // A run starting before `first` keeps its head; a tail past `end`
        // survives as its own run.
        if let Some((&s, &l)) = self.runs.range(..first).next_back() {
            if s + l > first {
                self.runs.insert(s, first - s);
                if s + l > end {
                    self.runs.insert(end, s + l - end);
                }
                removed += (s + l).min(end) - first;
            }
        }
        while let Some((&s, &l)) = self.runs.range(first..end).next() {
            self.runs.remove(&s);
            if s + l > end {
                self.runs.insert(end, s + l - end);
            }
            removed += (s + l).min(end) - s;
        }
        self.pages -= removed;
        removed
    }

    /// The first page index `> page` whose membership differs from `page`'s,
    /// or `u64::MAX` when membership never changes again.
    ///
    /// This is the primitive a run-length scan is built on: from any page,
    /// one O(log runs) query says how far the current state extends.
    pub fn next_boundary(&self, page: u64) -> u64 {
        if let Some((s, l)) = self.run_of(page) {
            return s + l; // inside a run: state flips where the run ends
        }
        // In a gap: state flips at the next run's start.
        match page.checked_add(1) {
            Some(n) => self
                .runs
                .range(n..)
                .next()
                .map(|(&s, _)| s)
                .unwrap_or(u64::MAX),
            None => u64::MAX,
        }
    }

    /// The runs overlapping `range`, clipped to it, in ascending order.
    pub fn runs_in(&self, range: RangeInclusive<u64>) -> Vec<RangeInclusive<u64>> {
        let (lo, hi) = (*range.start(), *range.end());
        if lo > hi {
            return Vec::new();
        }
        let mut out = Vec::new();
        // The run containing `lo`, if any, starts at or before `lo`.
        if let Some((s, l)) = self.run_of(lo) {
            out.push(lo..=(s + l - 1).min(hi));
        }
        if let Some(next) = lo.checked_add(1).filter(|&n| n <= hi) {
            for (&s, &l) in self.runs.range(next..=hi) {
                out.push(s..=(s + l - 1).min(hi));
            }
        }
        out
    }

    /// All runs as `(start, length)` pairs, ascending.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|(&s, &l)| (s, l))
    }

    /// All member pages, ascending.
    pub fn iter_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|(&s, &l)| s..s + l)
    }

    /// Removes every page.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(s: &ExtentSet) -> Vec<(u64, u64)> {
        s.iter_runs().collect()
    }

    #[test]
    fn insert_coalesces_neighbors() {
        let mut s = ExtentSet::new();
        assert!(s.insert(5));
        assert!(s.insert(7));
        assert_eq!(runs(&s), vec![(5, 1), (7, 1)]);
        // Filling the hole merges all three into one run.
        assert!(s.insert(6));
        assert_eq!(runs(&s), vec![(5, 3)]);
        assert!(!s.insert(6), "double insert reports already-present");
        assert_eq!(s.page_count(), 3);
    }

    #[test]
    fn remove_splits_runs() {
        let mut s = ExtentSet::new();
        for p in 10..20 {
            s.insert(p);
        }
        assert_eq!(s.run_count(), 1);
        assert!(s.remove(14));
        assert_eq!(runs(&s), vec![(10, 4), (15, 5)]);
        // Removing run edges shrinks without splitting.
        assert!(s.remove(10));
        assert!(s.remove(19));
        assert_eq!(runs(&s), vec![(11, 3), (15, 4)]);
        assert!(!s.remove(10), "absent page reports absent");
        assert_eq!(s.page_count(), 7);
    }

    #[test]
    fn contains_matches_runs() {
        let mut s = ExtentSet::new();
        for p in [1u64, 2, 3, 9, 10, 40] {
            s.insert(p);
        }
        for p in 0..50 {
            assert_eq!(
                s.contains(p),
                [1u64, 2, 3, 9, 10, 40].contains(&p),
                "page {p}"
            );
        }
    }

    #[test]
    fn next_boundary_flags_state_changes() {
        let mut s = ExtentSet::new();
        for p in [4u64, 5, 6, 10, 11] {
            s.insert(p);
        }
        assert_eq!(s.next_boundary(0), 4, "gap ends at first run");
        assert_eq!(s.next_boundary(4), 7, "run ends past its last page");
        assert_eq!(s.next_boundary(6), 7);
        assert_eq!(s.next_boundary(7), 10);
        assert_eq!(s.next_boundary(11), 12);
        assert_eq!(s.next_boundary(12), u64::MAX, "no further changes");
        assert_eq!(s.next_boundary(u64::MAX), u64::MAX);
    }

    #[test]
    fn runs_in_clips_to_range() {
        let mut s = ExtentSet::new();
        for p in [0u64, 1, 2, 3, 8, 9, 20, 21, 22] {
            s.insert(p);
        }
        assert_eq!(s.runs_in(2..=20), vec![2..=3, 8..=9, 20..=20]);
        assert_eq!(s.runs_in(4..=7), Vec::<RangeInclusive<u64>>::new());
        assert_eq!(s.runs_in(0..=100), vec![0..=3, 8..=9, 20..=22]);
        // An inverted (empty) range must yield nothing, not panic.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 9..=8;
        assert_eq!(s.runs_in(inverted), Vec::<RangeInclusive<u64>>::new());
    }

    #[test]
    fn iter_pages_ascending() {
        let mut s = ExtentSet::new();
        for p in [7u64, 3, 4, 12] {
            s.insert(p);
        }
        assert_eq!(s.iter_pages().collect::<Vec<_>>(), vec![3, 4, 7, 12]);
    }

    #[test]
    fn clear_empties() {
        let mut s = ExtentSet::new();
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.page_count(), 0);
        assert_eq!(s.next_boundary(0), u64::MAX);
    }

    #[test]
    fn extreme_indices_do_not_overflow() {
        let mut s = ExtentSet::new();
        s.insert(u64::MAX - 1);
        assert!(s.contains(u64::MAX - 1));
        assert_eq!(s.next_boundary(u64::MAX - 1), u64::MAX);
        s.remove(u64::MAX - 1);
        assert!(s.is_empty());
    }

    #[test]
    fn range_insert_merges_and_counts_new_pages() {
        let mut s = ExtentSet::new();
        s.insert_range(2, 2);
        s.insert_range(8, 2);
        // Pages 3..=8: 3 and 8 are present, 4..=7 are new.
        assert_eq!(s.insert_range(3, 6), 4);
        assert_eq!(runs(&s), vec![(2, 8)]);
        assert_eq!(s.insert_range(10, 1), 1, "adjacent pages coalesce");
        assert_eq!(s.insert_range(0, 1), 1);
        assert_eq!(runs(&s), vec![(0, 1), (2, 9)]);
        assert_eq!(s.insert_range(5, 0), 0);
        assert_eq!(s.page_count(), 10);
    }

    #[test]
    fn range_remove_trims_and_splits() {
        let mut s = ExtentSet::new();
        s.insert_range(0, 4);
        s.insert_range(6, 4);
        s.insert_range(12, 2);
        // Pages 2..=12: 2, 3, 6..=9 and 12 are present.
        assert_eq!(s.remove_range(2, 11), 7);
        assert_eq!(runs(&s), vec![(0, 2), (13, 1)]);
        assert_eq!(s.remove_range(4, 5), 0, "a gap removes nothing");
        s.insert_range(20, 10);
        assert_eq!(s.remove_range(22, 3), 3);
        assert_eq!(runs(&s), vec![(0, 2), (13, 1), (20, 2), (25, 5)]);
        assert_eq!(s.remove_range(21, 0), 0);
        assert_eq!(s.page_count(), 10);
    }
}
