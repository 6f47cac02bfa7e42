//! Property-based tests for the analysis core: CDF laws, union-find
//! equivalence-relation axioms, and span-estimator invariants.

use proptest::prelude::*;
use std::collections::HashSet;
use ts_core::cdf::Cdf;
use ts_core::stream::SpanAcc;
use ts_core::unionfind::{DisjointSets, UnionFind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // --- CDF ---

    #[test]
    fn cdf_is_monotone_and_bounded(
        samples in proptest::collection::vec(any::<u64>(), 0..300),
        probes in proptest::collection::vec(any::<u64>(), 1..50),
    ) {
        let cdf = Cdf::from_samples(samples.clone());
        let mut probes = probes;
        probes.sort_unstable();
        let mut last = 0.0f64;
        for &x in &probes {
            let f = cdf.fraction_le(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last, "monotone");
            last = f;
        }
        if !samples.is_empty() {
            prop_assert_eq!(cdf.fraction_le(u64::MAX), 1.0);
            prop_assert_eq!(cdf.fraction_ge(0), 1.0);
        }
    }

    #[test]
    fn cdf_le_and_ge_complement(
        samples in proptest::collection::vec(0u64..1000, 1..200),
        x in 0u64..1001,
    ) {
        let cdf = Cdf::from_samples(samples);
        let le = cdf.fraction_le(x);
        let ge_next = cdf.fraction_ge(x + 1);
        prop_assert!((le + ge_next - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_quantiles_are_samples_and_ordered(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let cdf = Cdf::from_samples(samples.clone());
        let set: HashSet<u64> = samples.into_iter().collect();
        let v1 = cdf.quantile(q1).unwrap();
        let v2 = cdf.quantile(q2).unwrap();
        prop_assert!(set.contains(&v1), "quantile is an observed sample");
        if q1 <= q2 {
            prop_assert!(v1 <= v2, "quantiles ordered");
        }
    }

    #[test]
    fn cdf_count_ge_matches_manual(
        samples in proptest::collection::vec(0u64..100, 0..200),
        x in 0u64..101,
    ) {
        let manual = samples.iter().filter(|&&v| v >= x).count();
        let cdf = Cdf::from_samples(samples);
        prop_assert_eq!(cdf.count_ge(x), manual);
    }

    // --- union-find ---

    #[test]
    fn unionfind_is_an_equivalence_relation(
        n in 2usize..80,
        edges in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..120),
    ) {
        let mut uf = UnionFind::new(n);
        for (a, b) in &edges {
            uf.union(a % n, b % n);
        }
        // Reflexive.
        for i in 0..n {
            prop_assert!(uf.connected(i, i));
        }
        // Symmetric + transitive via the sets() partition.
        let sets = uf.sets();
        let mut seen = vec![false; n];
        let mut total = 0;
        for set in &sets {
            for &i in set {
                prop_assert!(!seen[i], "partition: no element twice");
                seen[i] = true;
                total += 1;
                prop_assert!(uf.connected(set[0], i));
            }
        }
        prop_assert_eq!(total, n, "partition covers everything");
        // Sizes agree.
        for set in &sets {
            prop_assert_eq!(uf.set_size(set[0]), set.len());
        }
        // Cross-set elements are not connected.
        if sets.len() >= 2 {
            prop_assert!(!uf.connected(sets[0][0], sets[1][0]));
        }
    }

    #[test]
    fn unionfind_matches_bruteforce_closure(
        n in 2usize..30,
        edges in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..40),
    ) {
        let edges: Vec<(usize, usize)> = edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let mut uf = UnionFind::new(n);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        // Brute-force transitive closure via adjacency matrix.
        let mut reach = vec![vec![false; n]; n];
        for i in 0..n {
            reach[i][i] = true;
        }
        for &(a, b) in &edges {
            reach[a][b] = true;
            reach[b][a] = true;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(uf.connected(i, j), reach[i][j], "({}, {})", i, j);
            }
        }
    }

    #[test]
    fn disjoint_sets_groups_partition_names(
        names in proptest::collection::hash_set("[a-e][0-9]", 1..20),
        unions in proptest::collection::vec(("[a-e][0-9]", "[a-e][0-9]"), 0..15),
    ) {
        let mut ds = DisjointSets::new();
        for n in &names {
            ds.add(n);
        }
        for (a, b) in &unions {
            ds.union(a, b);
        }
        let groups = ds.groups();
        let mut seen: HashSet<String> = HashSet::new();
        for g in &groups {
            for m in g {
                prop_assert!(seen.insert(m.clone()), "no domain in two groups");
            }
        }
        // Every added name appears (unions may add more).
        for n in &names {
            prop_assert!(seen.contains(n));
        }
        // Groups sorted largest-first.
        for w in groups.windows(2) {
            prop_assert!(w[0].len() >= w[1].len());
        }
    }

    // --- span estimator ---

    #[test]
    fn span_invariants(
        sightings in proptest::collection::vec(
            ("[ab][0-9]\\.sim", "[xyz]", 0u64..63),
            1..200,
        ),
    ) {
        let mut est = SpanAcc::exact();
        for (domain, id, day) in &sightings {
            est.record(domain, id, *day);
        }
        for (domain, spans) in est.domain_spans() {
            // Span bounded by the observation range.
            let days: Vec<u64> = sightings
                .iter()
                .filter(|(d, _, _)| *d == domain)
                .map(|(_, _, day)| *day)
                .collect();
            let min = *days.iter().min().unwrap();
            let max = *days.iter().max().unwrap();
            prop_assert!(spans.max_span_days >= 1);
            prop_assert!(spans.max_span_days <= max - min + 1);
            // distinct_ids bounded by distinct ids sighted for this domain.
            let distinct: HashSet<&str> = sightings
                .iter()
                .filter(|(d, _, _)| *d == domain)
                .map(|(_, id, _)| id.as_str())
                .collect();
            prop_assert_eq!(spans.distinct_ids, distinct.len());
            // days_seen = distinct days.
            let distinct_days: HashSet<u64> = days.iter().copied().collect();
            prop_assert_eq!(spans.days_seen, distinct_days.len());
        }
    }

    #[test]
    fn span_of_single_id_equals_range(
        days in proptest::collection::hash_set(0u64..63, 1..30),
    ) {
        let mut est = SpanAcc::exact();
        for &d in &days {
            est.record("x.sim", "only-key", d);
        }
        let min = *days.iter().min().unwrap();
        let max = *days.iter().max().unwrap();
        prop_assert_eq!(est.span_of("x.sim", "only-key"), Some(max - min + 1));
    }
}
