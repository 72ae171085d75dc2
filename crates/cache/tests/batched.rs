//! Property tests: the batched range APIs on `CoherenceController` are
//! bit-equivalent to the per-line loops they replaced — same accumulated
//! `AccessEffects`, same hit counts, same observable cache state — across
//! random geometries, priming traffic, modes and burst shapes.

use cohmeleon_cache::{
    AccessEffects, AddressMap, CacheGeometry, CacheId, CoherenceController, LineAddr,
};
use cohmeleon_core::PartitionId;
use proptest::prelude::*;

/// A random but valid cache geometry: sets × small ways, deliberately
/// including non-power-of-two set counts (and 3-way associativity) so the
/// `%` set mapping and the set-index wraparound see awkward shapes.
fn arb_geometry(max_sets: u64) -> impl Strategy<Value = CacheGeometry> {
    (2u64..=max_sets, 0usize..4).prop_map(|(sets, way_pick)| {
        let ways = [1u32, 2, 3, 4][way_pick];
        CacheGeometry::new(sets * u64::from(ways) * 64, ways, 64)
    })
}

/// One priming operation, interpreted against a controller.
#[derive(Debug, Clone, Copy)]
struct PrimeOp {
    kind: u8,
    cache: u16,
    line: u64,
    write: bool,
}

fn arb_prime_ops(lines_span: u64) -> impl Strategy<Value = Vec<PrimeOp>> {
    proptest::collection::vec(
        (0u8..5, 0u16..4, 0u64..lines_span, any::<bool>()).prop_map(
            |(kind, cache, line, write)| PrimeOp {
                kind,
                cache,
                line,
                write,
            },
        ),
        0..40,
    )
}

fn apply_prime(c: &mut CoherenceController, op: PrimeOp, n_l2s: u16, base: LineAddr) {
    let cache = CacheId(op.cache % n_l2s);
    let line = LineAddr(base.0 + op.line);
    match op.kind {
        0 => {
            c.l2_access(cache, line, op.write);
        }
        1 => {
            c.coh_dma_access(line, op.write);
        }
        2 => {
            c.llc_coh_dma_access(line, op.write);
        }
        3 => {
            c.l2_store_streaming(cache, line);
        }
        _ => {
            c.flush_l2(cache);
        }
    }
}

/// Builds two identical controllers, primes both with the same traffic, and
/// returns them with the base line of partition `p`.
#[allow(clippy::type_complexity)]
fn primed_pair(
    l2_geom: CacheGeometry,
    llc_geom: CacheGeometry,
    n_l2s: u16,
    partitions: u16,
    prime: &[PrimeOp],
    p: u16,
) -> (CoherenceController, CoherenceController, LineAddr) {
    let map = AddressMap::new(partitions);
    let geoms = vec![l2_geom; n_l2s as usize];
    let mut a = CoherenceController::new(map, &geoms, llc_geom);
    let mut b = CoherenceController::new(map, &geoms, llc_geom);
    let base = map.region_base(PartitionId(p % partitions));
    for op in prime {
        apply_prime(&mut a, *op, n_l2s, base);
        apply_prime(&mut b, *op, n_l2s, base);
    }
    (a, b, base)
}

/// Asserts every observable piece of state matches over the given line span.
fn assert_state_eq(
    a: &CoherenceController,
    b: &CoherenceController,
    base: LineAddr,
    span: u64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.llc_valid_lines(), b.llc_valid_lines());
    prop_assert_eq!(a.llc_dirty_lines(), b.llc_dirty_lines());
    for c in 0..a.num_l2s() {
        let id = CacheId(c as u16);
        prop_assert_eq!(a.l2(id).valid_lines(), b.l2(id).valid_lines());
        prop_assert_eq!(a.l2(id).dirty_lines(), b.l2(id).dirty_lines());
        prop_assert_eq!(a.l2(id).hits(), b.l2(id).hits());
        prop_assert_eq!(a.l2(id).misses(), b.l2(id).misses());
    }
    for p in 0..a.num_partitions() {
        let id = PartitionId(p as u16);
        prop_assert_eq!(a.llc(id).valid_lines(), b.llc(id).valid_lines());
        prop_assert_eq!(a.llc(id).hits(), b.llc(id).hits());
        prop_assert_eq!(a.llc(id).misses(), b.llc(id).misses());
    }
    for i in 0..span {
        let line = LineAddr(base.0 + i);
        for c in 0..a.num_l2s() {
            let id = CacheId(c as u16);
            prop_assert_eq!(a.l2(id).peek(line), b.l2(id).peek(line), "L2 {} line {}", c, i);
        }
        let pa = a.llc(a.address_map().partition_of(line)).peek(line);
        let pb = b.llc(b.address_map().partition_of(line)).peek(line);
        prop_assert_eq!(pa, pb, "LLC line {}", i);
    }
    a.validate_coherence().map_err(TestCaseError::Fail)?;
    b.validate_coherence().map_err(TestCaseError::Fail)?;
    Ok(())
}

/// One operation from the full mixed vocabulary — per-line accesses, all
/// four batched range paths, and L2 flushes (interleaved invalidations).
#[derive(Debug, Clone, Copy)]
struct MixedOp {
    kind: u8,
    cache: u16,
    line: u64,
    count: u64,
    write: bool,
}

fn arb_mixed_ops(lines_span: u64) -> impl Strategy<Value = Vec<MixedOp>> {
    proptest::collection::vec(
        (0u8..9, 0u16..4, 0u64..lines_span, 1u64..160, any::<bool>()).prop_map(
            |(kind, cache, line, count, write)| MixedOp {
                kind,
                cache,
                line,
                count,
                write,
            },
        ),
        1..24,
    )
}

/// Applies one mixed op; returns everything the caller can observe from
/// it: the access effects plus the L2 range hit count / flush totals.
fn apply_mixed(
    c: &mut CoherenceController,
    op: MixedOp,
    n_l2s: u16,
    base: LineAddr,
) -> (AccessEffects, u64, u64) {
    let cache = CacheId(op.cache % n_l2s);
    let line = LineAddr(base.0 + op.line);
    match op.kind {
        0 => (c.l2_access(cache, line, op.write), 0, 0),
        1 => (c.coh_dma_access(line, op.write), 0, 0),
        2 => (c.llc_coh_dma_access(line, op.write), 0, 0),
        3 => (c.l2_store_streaming(cache, line), 0, 0),
        4 => {
            let (fx, hits) = c.l2_access_range(cache, line, op.count, op.write);
            (fx, hits, 0)
        }
        5 => (c.coh_dma_access_range(line, op.count, op.write), 0, 0),
        6 => (c.llc_coh_dma_access_range(line, op.count, op.write), 0, 0),
        7 => (c.l2_store_streaming_range(cache, line, op.count), 0, 0),
        _ => {
            let fx = c.flush_l2(cache);
            (AccessEffects::new(), fx.writebacks, fx.lines())
        }
    }
}

const SPAN: u64 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `coh_dma_access_range` ≡ per-line `coh_dma_access`.
    #[test]
    fn coh_dma_range_matches_per_line(
        l2_geom in arb_geometry(16),
        llc_geom in arb_geometry(48),
        n_l2s in 1u16..4,
        partitions in 1u16..3,
        prime in arb_prime_ops(SPAN),
        p in 0u16..3,
        offset in 0u64..SPAN,
        count in 1u64..128,
        write in any::<bool>(),
    ) {
        let (mut a, mut b, base) =
            primed_pair(l2_geom, llc_geom, n_l2s, partitions, &prime, p);
        let first = LineAddr(base.0 + offset);
        let batched = a.coh_dma_access_range(first, count, write);
        let mut looped = AccessEffects::new();
        for i in 0..count {
            looped.accumulate(&b.coh_dma_access(first.offset(i), write));
        }
        prop_assert_eq!(batched, looped);
        assert_state_eq(&a, &b, base, SPAN + 128)?;
    }

    /// `llc_coh_dma_access_range` ≡ per-line `llc_coh_dma_access`, for
    /// bursts shorter than the LLC set count and for bursts that wrap the
    /// set index for several laps plus a remainder. Follow-up mixed traffic
    /// over the same lines pins the LRU and dirty state the burst left.
    #[test]
    fn llc_coh_dma_range_matches_per_line(
        l2_geom in arb_geometry(16),
        llc_geom in arb_geometry(48),
        n_l2s in 1u16..4,
        partitions in 1u16..3,
        prime in arb_prime_ops(SPAN),
        p in 0u16..3,
        offset in 0u64..SPAN,
        (laps, extra) in (0u64..4, 1u64..48),
        write in any::<bool>(),
        follow in arb_mixed_ops(SPAN),
    ) {
        let (mut a, mut b, base) =
            primed_pair(l2_geom, llc_geom, n_l2s, partitions, &prime, p);
        let first = LineAddr(base.0 + offset);
        let count = llc_geom.sets() * laps + extra;
        let batched = a.llc_coh_dma_access_range(first, count, write);
        let mut looped = AccessEffects::new();
        for i in 0..count {
            looped.accumulate(&b.llc_coh_dma_access(first.offset(i), write));
        }
        prop_assert_eq!(batched, looped);
        for (i, op) in follow.iter().enumerate() {
            let fa = apply_mixed(&mut a, *op, n_l2s, base);
            let fb = apply_mixed(&mut b, *op, n_l2s, base);
            prop_assert_eq!(fa, fb, "follow op {}", i);
        }
        assert_state_eq(&a, &b, base, SPAN + 192)?;
    }

    /// `l2_access_range` ≡ per-line `l2_access`, including the hit count.
    #[test]
    fn l2_access_range_matches_per_line(
        l2_geom in arb_geometry(16),
        llc_geom in arb_geometry(48),
        n_l2s in 1u16..4,
        partitions in 1u16..3,
        prime in arb_prime_ops(SPAN),
        p in 0u16..3,
        cache_pick in 0u16..4,
        offset in 0u64..SPAN,
        count in 1u64..128,
        write in any::<bool>(),
    ) {
        let (mut a, mut b, base) =
            primed_pair(l2_geom, llc_geom, n_l2s, partitions, &prime, p);
        let cache = CacheId(cache_pick % n_l2s);
        let first = LineAddr(base.0 + offset);
        let (batched, batched_hits) = a.l2_access_range(cache, first, count, write);
        let mut looped = AccessEffects::new();
        let mut looped_hits = 0u64;
        for i in 0..count {
            let fx = b.l2_access(cache, first.offset(i), write);
            if fx.l2_hit {
                looped_hits += 1;
            }
            looped.accumulate(&fx);
        }
        prop_assert_eq!(batched, looped);
        prop_assert_eq!(batched_hits, looped_hits);
        assert_state_eq(&a, &b, base, SPAN + 128)?;
    }

    /// `l2_store_streaming_range` ≡ per-line `l2_store_streaming`.
    #[test]
    fn l2_streaming_range_matches_per_line(
        l2_geom in arb_geometry(16),
        llc_geom in arb_geometry(48),
        n_l2s in 1u16..4,
        partitions in 1u16..3,
        prime in arb_prime_ops(SPAN),
        p in 0u16..3,
        cache_pick in 0u16..4,
        offset in 0u64..SPAN,
        count in 1u64..128,
    ) {
        let (mut a, mut b, base) =
            primed_pair(l2_geom, llc_geom, n_l2s, partitions, &prime, p);
        let cache = CacheId(cache_pick % n_l2s);
        let first = LineAddr(base.0 + offset);
        let batched = a.l2_store_streaming_range(cache, first, count);
        let mut looped = AccessEffects::new();
        for i in 0..count {
            looped.accumulate(&b.l2_store_streaming(cache, first.offset(i)));
        }
        prop_assert_eq!(batched, looped);
        assert_state_eq(&a, &b, base, SPAN + 128)?;
    }

    /// Flushes drain exactly the resident lines: effects match the dirty /
    /// valid counts observed beforehand, and both structures end empty.
    #[test]
    fn flush_accounts_for_every_resident_line(
        l2_geom in arb_geometry(16),
        llc_geom in arb_geometry(48),
        n_l2s in 1u16..4,
        partitions in 1u16..3,
        prime in arb_prime_ops(SPAN),
    ) {
        let (mut a, _, _) = primed_pair(l2_geom, llc_geom, n_l2s, partitions, &prime, 0);
        for c in 0..n_l2s {
            let id = CacheId(c);
            let valid = a.l2(id).valid_lines();
            let dirty = a.l2(id).dirty_lines();
            let fx = a.flush_l2(id);
            prop_assert_eq!(fx.writebacks, dirty);
            prop_assert_eq!(fx.lines(), valid);
            prop_assert_eq!(a.l2(id).valid_lines(), 0);
        }
        let llc_valid = a.llc_valid_lines();
        let llc_dirty = a.llc_dirty_lines();
        let fx = a.flush_all_llcs();
        prop_assert_eq!(fx.writebacks, llc_dirty);
        prop_assert_eq!(fx.lines(), llc_valid);
        prop_assert_eq!(a.llc_valid_lines(), 0);
        a.validate_coherence().map_err(TestCaseError::Fail)?;
    }
}
