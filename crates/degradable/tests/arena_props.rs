//! Property-based invariants of the arena-backed EIG engine
//! ([`degradable::engine`]): path interning is a bijection, the arena
//! size matches the closed-form path census, and the memoized resolve is
//! insensitive to the order in which relay envelopes filled the store.

use degradable::engine::{EigEngine, EigStore, PathId};
use degradable::{path_count, paths_of_length, Path, Val, VoteRule};
use proptest::prelude::*;
use simnet::{NodeId, SimRng};

/// Fisher–Yates driven by the deterministic simulation RNG.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SimRng::seed(seed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `intern` and `resolve_path` are mutually inverse over the full
    /// label space, and the arena enumerates exactly the lexicographic
    /// path order of `paths_of_length`.
    #[test]
    fn intern_resolve_roundtrip(n in 1usize..11, sender_raw in 0usize..10, depth in 1usize..5) {
        let sender = NodeId::new(sender_raw % n);
        let engine = EigEngine::new(n, sender, depth);
        let arena = engine.arena();

        // id -> path -> id round-trips for every arena node.
        for id in arena.ids() {
            let path = arena.resolve_path(id);
            prop_assert_eq!(arena.intern(&path), Some(id));
        }

        // path -> id -> path round-trips for every enumerable label, and
        // enumeration order matches the arena's level-ordered ids.
        let mut expect = 0usize;
        for len in 1..=depth.min(n) {
            for path in paths_of_length(sender, n, len) {
                let id = arena.intern(&path);
                prop_assert_eq!(id.map(PathId::index), Some(expect));
                prop_assert_eq!(&arena.resolve_path(id.unwrap()), &path);
                expect += 1;
            }
        }
        prop_assert_eq!(expect, arena.node_count());

        // Labels outside the space are rejected, not aliased.
        if n > 1 {
            let other = NodeId::new((sender.index() + 1) % n);
            prop_assert_eq!(arena.intern(&Path::root(other)), None);
        }
    }

    /// The arena holds exactly `Σ_{ℓ=1}^{depth} ∏_{i=0}^{ℓ-2} (n-1-i)`
    /// nodes — the EIG path census for a depth-round unfolding.
    #[test]
    fn node_count_matches_closed_form(n in 1usize..13, sender_raw in 0usize..12, depth in 1usize..5) {
        let sender = NodeId::new(sender_raw % n);
        let arena_nodes = EigEngine::new(n, sender, depth).arena().node_count() as u128;

        let mut expected: u128 = 0;
        for len in 1..=depth {
            // ∏_{i=0}^{len-2} (n-1-i): one sender root fanning out through
            // distinct relayers; zero once relayers are exhausted.
            let mut product: u128 = 1;
            for i in 0..len - 1 {
                product *= (n - 1).saturating_sub(i) as u128;
            }
            expected += product;
            // ... and path_count agrees with the direct product.
            prop_assert_eq!(path_count(n, len), product);
        }
        prop_assert_eq!(arena_nodes, expected);
    }

    /// Resolve is a pure function of the store *contents*: recording the
    /// same envelopes in any order — with same-value duplicates sprinkled
    /// in — yields bit-identical decisions AND bit-identical deterministic
    /// perf counters (the memoization collapse never depends on arrival
    /// order).
    #[test]
    fn resolve_is_fill_order_independent(
        n in 2usize..8,
        depth in 2usize..4,
        value_seed in 0u64..u64::MAX,
        order_seed in 0u64..u64::MAX,
    ) {
        let sender = NodeId::new(0);
        // VOTE(n - path_len - m, ..) needs n > path_len + m at every
        // internal level (path_len <= depth - 1, m = depth - 1), so clamp
        // the depth to the feasible BYZ range for this n.
        let depth = depth.min(n.div_ceil(2)).max(1);
        let engine = EigEngine::new(n, sender, depth);
        let arena = engine.arena();
        let rule = VoteRule::Degradable { m: depth - 1 };

        // Draw one value per (path, receiver) slot in canonical order, so
        // both fills record identical contents.
        let mut rng = SimRng::seed(value_seed);
        let mut envelopes: Vec<(PathId, NodeId, Val)> = Vec::new();
        for id in arena.ids() {
            for r in NodeId::all(n) {
                if arena.on_path(id, r) {
                    continue;
                }
                let value = match rng.below(4) {
                    0 => Val::Default,
                    v => Val::Value(v),
                };
                envelopes.push((id, r, value));
            }
        }

        let canonical = {
            let mut store = EigStore::new(arena);
            for (id, r, v) in &envelopes {
                prop_assert!(store.record(arena, *id, *r, *v));
            }
            engine.resolve(rule, &store)
        };

        let shuffled = {
            let mut order = envelopes.clone();
            shuffle(&mut order, order_seed);
            let mut store = EigStore::new(arena);
            let mut dup = SimRng::seed(order_seed ^ 0xD0B);
            for (id, r, v) in &order {
                prop_assert!(store.record(arena, *id, *r, *v));
                // A same-value duplicate relay must be a no-op.
                if dup.chance(0.25) {
                    prop_assert!(!store.record(arena, *id, *r, *v));
                }
            }
            engine.resolve(rule, &store)
        };

        prop_assert_eq!(&canonical.decisions, &shuffled.decisions);
        prop_assert_eq!(
            canonical.perf.deterministic_counters(),
            shuffled.perf.deterministic_counters()
        );
    }
}
