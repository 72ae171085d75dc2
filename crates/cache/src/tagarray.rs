//! A generic set-associative tag array with LRU replacement.
//!
//! Both the private L2s (payload: [`MesiState`](crate::mesi::MesiState)) and
//! the LLC partitions (payload: directory entry) are built on this array, so
//! capacity and conflict behaviour — the source of the warm-data and
//! thrashing effects in the paper's Figure 2 — are structural.
//!
//! # Layout
//!
//! The array is structure-of-arrays: line tags, LRU stamps and payloads live
//! in three parallel `Vec`s indexed by global way (`set × ways + way`).
//! Payloads are touched only at the hit/fill way. Set mapping is a cached
//! mask when the set count is a power of two (every shipped SoC) and a
//! plain `%` otherwise.
//!
//! # The tag walk
//!
//! * [`probe_in_set`](TagArray::probe_in_set) computes the hit way, the
//!   first invalid way and the LRU arg-min in **one** traversal of the set,
//!   and skips the traversal entirely for an empty set, whose outcome is
//!   forced.
//! * [`touch_verified`](TagArray::touch_verified) replays a probe-hit's
//!   mutation (clock tick + LRU restamp) at a previously learned way after
//!   an O(1) tag check, so a repeat access costs zero traversals.
//!
//! Every operation also maintains [`TagStats`], deterministic operation
//! counters (probes, set traversals, fills, evictions) that the SoC layer
//! reports per run, outside every golden hash.

use crate::geometry::{CacheGeometry, LineAddr};

/// Tag value marking an invalid (empty) way.
const INVALID: u64 = u64::MAX;

/// One resident line: its address and the cache-specific payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<S> {
    /// The line address.
    pub line: LineAddr,
    /// Cache-specific state (MESI state, directory entry, …).
    pub state: S,
}

/// The outcome of a single-scan [`TagArray::probe`]: either the way holding
/// the line (hit) or the way a fill should use (first invalid way if any,
/// else the LRU victim). Way indices are global (`set × ways + way`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Whether the line is resident.
    pub hit: bool,
    /// Global way index: the resident way on a hit, the fill target on a
    /// miss.
    pub way: usize,
}

/// Deterministic operation counters for one tag array.
///
/// `scans` counts associative *set traversals* (a pass over one set's ways
/// searching or arg-minimising): at most one per probe, and none where the
/// outcome is forced (empty sets, verified way hints). Counters are plain
/// integer increments on paths that already mutate the array — effectively
/// free when unread — and are excluded from all golden/structural hashes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Lookup-or-victim-select operations, verified touches included.
    pub probes: u64,
    /// Associative set traversals (searches / arg-min passes) performed.
    pub scans: u64,
    /// Probe hits.
    pub hits: u64,
    /// Line fills.
    pub fills: u64,
    /// Fills that evicted a resident line.
    pub evictions: u64,
    /// Invalidations that removed a line.
    pub invalidations: u64,
    /// Probes through [`TagArray::probe_in_set`] (every probe that is not a
    /// verified touch).
    pub fused_probes: u64,
    /// Probes resolved with zero traversals because the set was empty.
    pub empty_skips: u64,
    /// LRU touches served by a verified way hint (zero traversals).
    pub hint_hits: u64,
    /// Always 0. It counted lines resolved by a set-stripe burst walk that
    /// never ran on measured traffic and was removed; the field stays so
    /// existing readers of the struct keep working.
    pub stripe_members: u64,
}

impl TagStats {
    /// Accumulates `other` into `self` (wrapping; counters are monotonic).
    pub fn merge(&mut self, other: &TagStats) {
        self.probes = self.probes.wrapping_add(other.probes);
        self.scans = self.scans.wrapping_add(other.scans);
        self.hits = self.hits.wrapping_add(other.hits);
        self.fills = self.fills.wrapping_add(other.fills);
        self.evictions = self.evictions.wrapping_add(other.evictions);
        self.invalidations = self.invalidations.wrapping_add(other.invalidations);
        self.fused_probes = self.fused_probes.wrapping_add(other.fused_probes);
        self.empty_skips = self.empty_skips.wrapping_add(other.empty_skips);
        self.hint_hits = self.hint_hits.wrapping_add(other.hint_hits);
        self.stripe_members = self.stripe_members.wrapping_add(other.stripe_members);
    }

    /// The counter deltas accumulated since `earlier` was sampled.
    pub fn delta_since(&self, earlier: &TagStats) -> TagStats {
        TagStats {
            probes: self.probes.wrapping_sub(earlier.probes),
            scans: self.scans.wrapping_sub(earlier.scans),
            hits: self.hits.wrapping_sub(earlier.hits),
            fills: self.fills.wrapping_sub(earlier.fills),
            evictions: self.evictions.wrapping_sub(earlier.evictions),
            invalidations: self.invalidations.wrapping_sub(earlier.invalidations),
            fused_probes: self.fused_probes.wrapping_sub(earlier.fused_probes),
            empty_skips: self.empty_skips.wrapping_sub(earlier.empty_skips),
            hint_hits: self.hint_hits.wrapping_sub(earlier.hint_hits),
            stripe_members: self.stripe_members.wrapping_sub(earlier.stripe_members),
        }
    }
}

/// A set-associative array of [`Entry`]s with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct TagArray<S> {
    geometry: CacheGeometry,
    /// Cached `geometry.sets()` (a division at construction, not per access).
    sets: u64,
    /// `sets - 1` when `sets` is a power of two; set mapping is then a mask.
    set_mask: u64,
    /// Whether `set_mask` is usable (power-of-two set count).
    pow2: bool,
    /// Line tag per global way; `INVALID` marks an empty way.
    tags: Vec<u64>,
    /// Monotonic use stamp per global way; smallest = least recently used.
    lrus: Vec<u64>,
    /// Payload per global way; `Some` exactly where `tags` is valid.
    states: Vec<Option<S>>,
    clock: u64,
    valid: u64,
    /// Valid-way count per set; lets flushes and iteration skip empty sets
    /// and lets fills detect a free way in O(1).
    set_valid: Vec<u32>,
    /// Operation counters (see [`TagStats`]).
    stats: TagStats,
}

/// Scan of one set's tags for `needle`: the first matching way offset.
#[inline]
fn scan(tags: &[u64], needle: u64) -> Option<usize> {
    tags.iter().position(|&t| t == needle)
}

impl<S> TagArray<S> {
    /// An empty array with the given geometry.
    pub fn new(geometry: CacheGeometry) -> TagArray<S> {
        let sets = geometry.sets();
        let n = (sets * u64::from(geometry.ways)) as usize;
        let mut states = Vec::with_capacity(n);
        states.resize_with(n, || None);
        TagArray {
            geometry,
            sets,
            set_mask: sets.wrapping_sub(1),
            pow2: sets.is_power_of_two(),
            tags: vec![INVALID; n],
            lrus: vec![0; n],
            states,
            clock: 0,
            valid: 0,
            set_valid: vec![0; sets as usize],
            stats: TagStats::default(),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of sets (cached; no division).
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// The set a line maps to — [`CacheGeometry::set_of`] as a mask for
    /// power-of-two set counts, a plain `%` otherwise.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> u64 {
        if self.pow2 {
            line.0 & self.set_mask
        } else {
            line.0 % self.sets
        }
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> u64 {
        self.valid
    }

    /// The operation counters accumulated so far.
    pub fn tag_stats(&self) -> &TagStats {
        &self.stats
    }

    #[inline]
    fn set_base(&self, set: u64) -> usize {
        set as usize * self.geometry.ways as usize
    }

    /// Looks up a line without touching LRU state; returns its payload.
    /// Not counted in [`TagStats`] (introspection, not a modeled access).
    pub fn peek(&self, line: LineAddr) -> Option<&S> {
        let base = self.set_base(self.set_of(line));
        let ways = self.geometry.ways as usize;
        let i = scan(&self.tags[base..base + ways], line.0)?;
        self.states[base + i].as_ref()
    }

    /// Looks up a line, updating LRU on hit, and returns a mutable reference
    /// to its state.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut S> {
        let set = self.set_of(line);
        let probe = self.probe_in_set(set, line);
        if probe.hit {
            Some(self.state_at_mut(probe.way))
        } else {
            None
        }
    }

    /// Single-scan lookup-or-victim-selection for the set `line` maps to.
    ///
    /// On a hit, updates the line's LRU stamp and returns its way. On a
    /// miss, returns the way a fill should use — the first invalid way if
    /// the set has one, otherwise the LRU victim — without mutating
    /// anything. Pair with [`insert_at`](Self::insert_at) to complete a
    /// fill without rescanning the set.
    pub fn probe(&mut self, line: LineAddr) -> Probe {
        let set = self.set_of(line);
        self.probe_in_set(set, line)
    }

    /// [`probe`](Self::probe) with the set index supplied by the caller.
    ///
    /// Batched range walks compute set indices incrementally (consecutive
    /// lines map to consecutive sets) instead of dividing per line.
    ///
    /// One traversal finds the hit way, the first invalid way and the LRU
    /// arg-min together; an empty set resolves with none.
    pub fn probe_in_set(&mut self, set: u64, line: LineAddr) -> Probe {
        debug_assert_eq!(set, self.set_of(line), "set index mismatch");
        self.clock += 1;
        let clock = self.clock;
        let ways = self.geometry.ways as usize;
        let base = self.set_base(set);
        self.stats.probes += 1;
        self.stats.fused_probes += 1;
        if self.set_valid[set as usize] == 0 {
            // Empty set: the outcome is forced — a miss filling the first
            // (invalid) way, exactly what the traversal below would find.
            self.stats.empty_skips += 1;
            return Probe {
                hit: false,
                way: base,
            };
        }
        self.stats.scans += 1;
        let mut first_invalid: Option<usize> = None;
        let mut min_lru = u64::MAX;
        let mut min_idx = 0usize;
        for i in 0..ways {
            let t = self.tags[base + i];
            if t == line.0 {
                self.stats.hits += 1;
                self.lrus[base + i] = clock;
                return Probe {
                    hit: true,
                    way: base + i,
                };
            }
            if t == INVALID {
                if first_invalid.is_none() {
                    first_invalid = Some(i);
                }
            } else if first_invalid.is_none() {
                // Arg-min only matters for a full set; stop tracking once a
                // free way is known. Strict `<` keeps the first on ties.
                let l = self.lrus[base + i];
                if l < min_lru {
                    min_lru = l;
                    min_idx = i;
                }
            }
        }
        let way = match first_invalid {
            Some(i) => base + i,
            None => base + min_idx,
        };
        Probe { hit: false, way }
    }

    /// Replays a probe-hit's mutation (clock tick + LRU restamp) at a
    /// previously learned way, after verifying in O(1) that the way still
    /// holds `line`. Returns `false` — with **no** mutation — if it does
    /// not (the caller falls back to a full probe). A successful touch is
    /// bit-identical to a hitting [`probe`](Self::probe) and costs zero
    /// traversals.
    pub fn touch_verified(&mut self, way: usize, line: LineAddr) -> bool {
        if self.tags[way] != line.0 {
            return false;
        }
        self.clock += 1;
        self.lrus[way] = self.clock;
        self.stats.probes += 1;
        self.stats.hits += 1;
        self.stats.hint_hits += 1;
        true
    }

    /// The state at a way returned by a hit probe.
    ///
    /// # Panics
    ///
    /// Panics if the way is invalid.
    pub fn state_at_mut(&mut self, way: usize) -> &mut S {
        self.states[way].as_mut().expect("way holds a line")
    }

    /// The state at a way returned by a hit probe (read-only).
    ///
    /// # Panics
    ///
    /// Panics if the way is invalid.
    pub fn state_at(&self, way: usize) -> &S {
        self.states[way].as_ref().expect("way holds a line")
    }

    /// Completes a fill at the way a miss probe returned, evicting its
    /// occupant if the set is still full. Returns the way the line actually
    /// landed in and the evicted entry.
    ///
    /// Directory actions between the probe and the fill may have
    /// invalidated lines in this set; if so, the fill diverts to a free way
    /// (detected in O(1) via the per-set valid count) exactly as a fresh
    /// [`insert`](Self::insert) would, so no spurious eviction occurs — the
    /// returned way reports the diversion.
    pub fn insert_at(&mut self, probe: Probe, line: LineAddr, state: S) -> (usize, Option<Entry<S>>) {
        debug_assert!(!probe.hit, "insert_at requires a miss probe");
        debug_assert!(self.peek(line).is_none(), "inserting resident line {line}");
        debug_assert_ne!(line.0, INVALID, "line address collides with the invalid tag");
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line) as usize;
        let ways = self.geometry.ways as usize;
        let mut way = probe.way;
        self.stats.fills += 1;
        if self.tags[way] != INVALID && self.set_valid[set] < ways as u32 {
            // An interleaved invalidation freed a way after the probe chose
            // an eviction victim: take the free way instead.
            self.stats.scans += 1;
            let base = set * ways;
            way = base
                + scan(&self.tags[base..base + ways], INVALID)
                    .expect("set_valid promised a free way");
        }
        let victim = if self.tags[way] != INVALID {
            self.stats.evictions += 1;
            Some(Entry {
                line: LineAddr(self.tags[way]),
                state: self.states[way].take().expect("valid way holds a state"),
            })
        } else {
            None
        };
        self.tags[way] = line.0;
        self.states[way] = Some(state);
        self.lrus[way] = clock;
        if victim.is_none() {
            self.valid += 1;
            self.set_valid[set] += 1;
        }
        (way, victim)
    }

    /// Inserts a line (which must not already be present), evicting the LRU
    /// victim of its set if the set is full. Returns the evicted entry.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is already present; callers must
    /// use [`lookup`](Self::lookup) first.
    pub fn insert(&mut self, line: LineAddr, state: S) -> Option<Entry<S>> {
        let set = self.set_of(line);
        let probe = self.probe_in_set(set, line);
        debug_assert!(!probe.hit, "inserting resident line {line}");
        self.insert_at(probe, line, state).1
    }

    /// Removes a line if present, returning its entry.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Entry<S>> {
        let set = self.set_of(line) as usize;
        if self.set_valid[set] == 0 {
            return None;
        }
        self.stats.scans += 1;
        let ways = self.geometry.ways as usize;
        let base = set * ways;
        let way = base + scan(&self.tags[base..base + ways], line.0)?;
        self.stats.invalidations += 1;
        self.valid -= 1;
        self.set_valid[set] -= 1;
        self.tags[way] = INVALID;
        Some(Entry {
            line,
            state: self.states[way].take().expect("valid way holds a state"),
        })
    }

    /// Removes every line, invoking `f` on each removed entry (e.g. to count
    /// dirty writebacks during a flush). Skips empty sets, so a flush costs
    /// O(resident + sets), not O(sets × ways). Each non-empty set counts as
    /// one traversal in [`TagStats`]. `f` also receives the way the entry
    /// occupied.
    pub fn drain<F: FnMut(usize, Entry<S>)>(&mut self, mut f: F) {
        let ways = self.geometry.ways as usize;
        for (set, count) in self.set_valid.iter_mut().enumerate() {
            if *count == 0 {
                continue;
            }
            self.stats.scans += 1;
            let mut remaining = *count;
            *count = 0;
            for way in set * ways..(set + 1) * ways {
                if self.tags[way] != INVALID {
                    let entry = Entry {
                        line: LineAddr(self.tags[way]),
                        state: self.states[way].take().expect("valid way holds a state"),
                    };
                    self.tags[way] = INVALID;
                    self.stats.invalidations += 1;
                    f(way, entry);
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
        self.valid = 0;
    }
}

impl<S: Copy> TagArray<S> {
    /// Iterates over all resident entries (no LRU update), skipping empty
    /// sets.
    pub fn iter(&self) -> impl Iterator<Item = Entry<S>> + '_ {
        let ways = self.geometry.ways as usize;
        self.set_valid
            .iter()
            .enumerate()
            .filter(|(_, count)| **count > 0)
            .flat_map(move |(set, _)| {
                (set * ways..(set + 1) * ways)
                    .filter(|&way| self.tags[way] != INVALID)
                    .map(move |way| Entry {
                        line: LineAddr(self.tags[way]),
                        state: self.states[way].expect("valid way holds a state"),
                    })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray<u32> {
        // 2 sets × 2 ways of 64-byte lines.
        TagArray::new(CacheGeometry::new(256, 2, 64))
    }

    #[test]
    fn miss_then_hit() {
        let mut t = small();
        assert!(t.lookup(LineAddr(0)).is_none());
        assert_eq!(t.insert(LineAddr(0), 7), None);
        assert_eq!(t.lookup(LineAddr(0)), Some(&mut 7));
        assert_eq!(t.valid_lines(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut t = small();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        t.insert(LineAddr(0), 0);
        t.insert(LineAddr(2), 2);
        // Touch line 0 so line 2 becomes LRU.
        t.lookup(LineAddr(0));
        let victim = t.insert(LineAddr(4), 4).expect("set is full");
        assert_eq!(victim.line, LineAddr(2));
        assert!(t.peek(LineAddr(0)).is_some());
        assert!(t.peek(LineAddr(4)).is_some());
    }

    #[test]
    fn insert_prefers_invalid_ways() {
        let mut t = small();
        t.insert(LineAddr(0), 0);
        assert!(t.insert(LineAddr(2), 2).is_none());
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut t = small();
        t.insert(LineAddr(0), 0); // set 0
        t.insert(LineAddr(1), 1); // set 1
        t.insert(LineAddr(2), 2); // set 0
        t.insert(LineAddr(3), 3); // set 1
        assert_eq!(t.valid_lines(), 4);
        assert!(t.insert(LineAddr(4), 4).is_some()); // set 0 overflows
    }

    #[test]
    fn invalidate_removes_line() {
        let mut t = small();
        t.insert(LineAddr(0), 9);
        let removed = t.invalidate(LineAddr(0)).unwrap();
        assert_eq!(removed.state, 9);
        assert!(t.peek(LineAddr(0)).is_none());
        assert_eq!(t.valid_lines(), 0);
        assert!(t.invalidate(LineAddr(0)).is_none());
    }

    #[test]
    fn drain_visits_everything() {
        let mut t = small();
        t.insert(LineAddr(0), 1);
        t.insert(LineAddr(1), 2);
        t.insert(LineAddr(2), 3);
        let mut sum = 0;
        t.drain(|_, e| sum += e.state);
        assert_eq!(sum, 6);
        assert_eq!(t.valid_lines(), 0);
    }

    #[test]
    fn state_is_mutable_through_lookup() {
        let mut t = small();
        t.insert(LineAddr(0), 1);
        *t.lookup(LineAddr(0)).unwrap() = 42;
        assert_eq!(*t.peek(LineAddr(0)).unwrap(), 42);
    }

    #[test]
    fn iter_covers_resident_lines() {
        let mut t = small();
        t.insert(LineAddr(0), 1);
        t.insert(LineAddr(3), 2);
        let mut lines: Vec<u64> = t.iter().map(|e| e.line.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 3]);
    }

    #[test]
    fn capacity_larger_arrays() {
        // 32 KiB, 4-way, 64 B: 512 lines. Insert 512 distinct lines in a
        // stride-free pattern: no evictions.
        let mut t: TagArray<()> = TagArray::new(CacheGeometry::new(32 * 1024, 4, 64));
        let mut evictions = 0;
        for i in 0..512 {
            if t.insert(LineAddr(i), ()).is_some() {
                evictions += 1;
            }
        }
        assert_eq!(evictions, 0);
        assert_eq!(t.valid_lines(), 512);
        // The 513th line must evict.
        assert!(t.insert(LineAddr(512), ()).is_some());
    }

    #[test]
    fn non_power_of_two_sets_still_map_correctly() {
        // 3 sets × 2 ways: set mapping uses `%`.
        let mut t: TagArray<u32> = TagArray::new(CacheGeometry::new(3 * 2 * 64, 2, 64));
        assert_eq!(t.sets(), 3);
        for i in 0..6 {
            t.insert(LineAddr(i), i as u32);
        }
        assert_eq!(t.valid_lines(), 6);
        for i in 0..6 {
            assert_eq!(t.peek(LineAddr(i)), Some(&(i as u32)), "line {i}");
        }
    }

    /// The obvious two-pass probe: a tag scan, then on a miss the first
    /// invalid way or else the LRU arg-min (first on ties).
    fn two_pass_probe(t: &mut TagArray<u32>, set: u64, line: LineAddr) -> Probe {
        t.clock += 1;
        let ways = t.geometry.ways as usize;
        let base = t.set_base(set);
        if let Some(i) = scan(&t.tags[base..base + ways], line.0) {
            t.lrus[base + i] = t.clock;
            return Probe {
                hit: true,
                way: base + i,
            };
        }
        let lrus = &t.lrus[base..base + ways];
        let way = scan(&t.tags[base..base + ways], INVALID).unwrap_or_else(|| {
            let min = *lrus.iter().min().expect("ways > 0");
            lrus.iter().position(|&l| l == min).expect("min is present")
        });
        Probe {
            hit: false,
            way: base + way,
        }
    }

    #[test]
    fn probe_matches_two_pass_reference() {
        // Drive two identical arrays through the same mixed sequence, one
        // with the reference probe and one with the real one; every Probe
        // and every later observation must agree.
        let geom = CacheGeometry::new(3 * 2 * 64, 2, 64); // 3 sets × 2 ways
        let mut a: TagArray<u32> = TagArray::new(geom);
        let mut b: TagArray<u32> = TagArray::new(geom);
        for step in 0u64..200 {
            let line = LineAddr((step * 7) % 18);
            let set = a.set_of(line);
            let pa = two_pass_probe(&mut a, set, line);
            let pb = b.probe_in_set(set, line);
            assert_eq!(pa, pb, "step {step}");
            if !pa.hit {
                assert_eq!(
                    a.insert_at(pa, line, step as u32).1.map(|e| e.line),
                    b.insert_at(pb, line, step as u32).1.map(|e| e.line),
                );
            }
            if step % 13 == 0 {
                assert_eq!(
                    a.invalidate(line).map(|e| e.line),
                    b.invalidate(line).map(|e| e.line)
                );
            }
        }
        for n in 0..18 {
            assert_eq!(a.peek(LineAddr(n)), b.peek(LineAddr(n)), "line {n}");
        }
        assert_eq!(a.clock, b.clock);
        assert_eq!(a.lrus, b.lrus);
    }

    #[test]
    fn touch_verified_restamps_exactly_like_a_hit_probe() {
        let geom = CacheGeometry::new(256, 2, 64);
        let mut a: TagArray<u32> = TagArray::new(geom);
        let mut b: TagArray<u32> = TagArray::new(geom);
        for t in [&mut a, &mut b] {
            t.insert(LineAddr(0), 1);
            t.insert(LineAddr(2), 2);
        }
        // a: classic hit probe; b: verified touch at the known way.
        let pa = a.probe(LineAddr(0));
        assert!(pa.hit);
        assert!(b.touch_verified(0, LineAddr(0)));
        // Same LRU consequence: line 2 is now the victim in both.
        assert_eq!(a.insert(LineAddr(4), 4).unwrap().line, LineAddr(2));
        assert_eq!(b.insert(LineAddr(4), 4).unwrap().line, LineAddr(2));
        // A stale hint mutates nothing and reports failure.
        assert!(!b.touch_verified(0, LineAddr(99)));
    }

    #[test]
    fn stats_track_operations() {
        let mut t = small();
        t.insert(LineAddr(0), 1); // probe (0 scans: empty set) + fill
        t.insert(LineAddr(4), 2); // probe (1 scan: miss) + fill
        t.lookup(LineAddr(0)); // probe (1 scan: hit)
        t.invalidate(LineAddr(0)); // 1 scan, 1 invalidation
        let s = t.tag_stats();
        assert_eq!(s.probes, 3);
        assert_eq!(s.fills, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.empty_skips, 1);
        assert_eq!(s.scans, 3);
        let mut total = TagStats::default();
        total.merge(s);
        total.merge(s);
        assert_eq!(total.probes, 6);
        assert_eq!(total.delta_since(s).probes, 3);
    }
}
