//! Private (L2) caches: one per processor and one per fully-coherent
//! accelerator tile.

use cohmeleon_sim::stats::Counter;

use crate::geometry::{CacheGeometry, LineAddr};
use crate::mesi::MesiState;
use crate::tagarray::{Entry, Probe, TagArray, TagStats};

/// A private L2 cache: a MESI tag array plus hit/miss counters (the
/// tile-level performance monitors of Section 4.3).
///
/// Each L2 way also memoises the LLC way its line was filled from
/// (`home_ways`). The inclusive LLC can only move a line by evicting it,
/// and an LLC eviction back-invalidates every private copy, so while a
/// line stays L2-resident its LLC way cannot change — the memo lets the
/// controller replay LLC hits for writebacks and flushes with an O(1)
/// verified touch instead of an associative probe. A stale memo (e.g. a
/// line inserted through the raw [`insert`](Self::insert) path) is
/// harmless: consumers verify the tag at the memoised way before trusting
/// it.
#[derive(Debug, Clone)]
pub struct L2Cache {
    tags: TagArray<MesiState>,
    home_ways: Vec<u32>,
    hits: Counter,
    misses: Counter,
}

impl L2Cache {
    /// An empty L2 with the given geometry.
    pub fn new(geometry: CacheGeometry) -> L2Cache {
        let slots = geometry.lines() as usize;
        L2Cache {
            tags: TagArray::new(geometry),
            home_ways: vec![0; slots],
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.tags.geometry()
    }

    /// Number of sets (cached; no division).
    pub fn sets(&self) -> u64 {
        self.tags.sets()
    }

    /// The set a line maps to (masked, not divided, for power-of-two set
    /// counts).
    pub fn set_of(&self, line: LineAddr) -> u64 {
        self.tags.set_of(line)
    }

    /// Looks up `line`, updating LRU; returns its MESI state if present.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut MesiState> {
        self.tags.lookup(line)
    }

    /// Single-scan lookup-or-victim-selection (see [`TagArray::probe`]).
    pub fn probe(&mut self, line: LineAddr) -> Probe {
        self.tags.probe(line)
    }

    /// [`probe`](Self::probe) with a caller-computed set index.
    pub fn probe_in_set(&mut self, set: u64, line: LineAddr) -> Probe {
        self.tags.probe_in_set(set, line)
    }

    /// Replays a hit at a learned way after an O(1) tag check (see
    /// [`TagArray::touch_verified`]).
    pub fn touch_verified(&mut self, way: usize, line: LineAddr) -> bool {
        self.tags.touch_verified(way, line)
    }

    /// The tag-walk operation counters.
    pub fn tag_stats(&self) -> &TagStats {
        self.tags.tag_stats()
    }

    /// The MESI state at a way returned by a hit probe.
    pub fn state_at_mut(&mut self, way: usize) -> &mut MesiState {
        self.tags.state_at_mut(way)
    }

    /// The MESI state at a way returned by a hit probe (read-only).
    pub fn state_at(&self, way: usize) -> MesiState {
        *self.tags.state_at(way)
    }

    /// Completes a fill at a miss probe's way, returning the way the line
    /// actually landed in (fills divert to a freed way if a directory
    /// action invalidated part of the set since the probe) and the victim.
    pub fn insert_at(
        &mut self,
        probe: Probe,
        line: LineAddr,
        state: MesiState,
    ) -> (usize, Option<Entry<MesiState>>) {
        self.tags.insert_at(probe, line, state)
    }

    /// Memoises the LLC home way for the line resident at L2 way `way`.
    pub fn set_home_way(&mut self, way: usize, llc_way: u32) {
        self.home_ways[way] = llc_way;
    }

    /// The memoised LLC home way for the line at L2 way `way`. Only
    /// meaningful while that way is valid; verify before trusting.
    pub fn home_way(&self, way: usize) -> u32 {
        self.home_ways[way]
    }

    /// Looks up `line` without perturbing LRU or counters.
    pub fn peek(&self, line: LineAddr) -> Option<MesiState> {
        self.tags.peek(line).copied()
    }

    /// Inserts `line` in `state`, returning the evicted victim if any.
    pub fn insert(&mut self, line: LineAddr, state: MesiState) -> Option<Entry<MesiState>> {
        self.tags.insert(line, state)
    }

    /// Invalidates `line` if present, returning its former state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<MesiState> {
        self.tags.invalidate(line).map(|e| e.state)
    }

    /// Drains every line, calling `f` with each entry's memoised LLC home
    /// way and the entry itself (flush).
    pub fn drain<F: FnMut(u32, Entry<MesiState>)>(&mut self, mut f: F) {
        let L2Cache {
            tags, home_ways, ..
        } = self;
        tags.drain(|way, entry| f(home_ways[way], entry));
    }

    /// Iterates resident lines.
    pub fn iter(&self) -> impl Iterator<Item = Entry<MesiState>> + '_ {
        self.tags.iter()
    }

    /// Number of resident lines.
    pub fn valid_lines(&self) -> u64 {
        self.tags.valid_lines()
    }

    /// Number of resident dirty (Modified) lines.
    pub fn dirty_lines(&self) -> u64 {
        self.tags.iter().filter(|e| e.state.is_dirty()).count() as u64
    }

    /// Records a hit in the monitor counters.
    pub fn count_hit(&mut self) {
        self.hits.incr();
    }

    /// Records a miss in the monitor counters.
    pub fn count_miss(&mut self) {
        self.misses.incr();
    }

    /// Monitor: total hits.
    pub fn hits(&self) -> u64 {
        self.hits.sample()
    }

    /// Monitor: total misses.
    pub fn misses(&self) -> u64 {
        self.misses.sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> L2Cache {
        L2Cache::new(CacheGeometry::new(4 * 1024, 4, 64))
    }

    #[test]
    fn insert_lookup_invalidate() {
        let mut c = l2();
        assert!(c.lookup(LineAddr(7)).is_none());
        c.insert(LineAddr(7), MesiState::Exclusive);
        assert_eq!(c.peek(LineAddr(7)), Some(MesiState::Exclusive));
        *c.lookup(LineAddr(7)).unwrap() = MesiState::Modified;
        assert_eq!(c.invalidate(LineAddr(7)), Some(MesiState::Modified));
        assert!(c.peek(LineAddr(7)).is_none());
    }

    #[test]
    fn dirty_line_count() {
        let mut c = l2();
        c.insert(LineAddr(0), MesiState::Modified);
        c.insert(LineAddr(1), MesiState::Shared);
        c.insert(LineAddr(2), MesiState::Modified);
        assert_eq!(c.valid_lines(), 3);
        assert_eq!(c.dirty_lines(), 2);
    }

    #[test]
    fn drain_flushes_all() {
        let mut c = l2();
        c.insert(LineAddr(0), MesiState::Modified);
        c.insert(LineAddr(1), MesiState::Shared);
        let mut dirty = 0;
        c.drain(|_, e| {
            if e.state.is_dirty() {
                dirty += 1;
            }
        });
        assert_eq!(dirty, 1);
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn counters_are_manual() {
        let mut c = l2();
        c.count_hit();
        c.count_hit();
        c.count_miss();
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }
}
