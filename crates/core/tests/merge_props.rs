//! Property-based tests for the shard-merge law ([`ts_core::stream::Merge`]).
//!
//! The sharded campaign rests on one algebraic claim: feeding a stream
//! through a single accumulator, or splitting it across shard-local
//! accumulators and merging them, yields the same analysis results.
//! These properties pin the law in the three regimes the campaign uses:
//!
//! * **exact mode, arbitrary splits** — every record can land in any
//!   shard and merge order cannot matter (SpanAcc, Cdf, TierAcc,
//!   ExposureTable, TopK);
//! * **exact mode, contiguous splits in shard order** — the regime the
//!   campaign's fixed shard layout guarantees, where even the
//!   order-sensitive group *labelling* must reproduce the single-pass
//!   output byte for byte (GroupAcc);
//! * **horizon mode, domain-/id-partitioned splits** — eviction stays
//!   equivalent as long as per-domain (per-identifier) state never
//!   straddles two accumulators, which the shard layout also guarantees.
//!
//! The single-accumulator side is itself checked against minimal batch
//! oracles: a first/last-seen map for spans and a sorted sample vector
//! for the CDF.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use ts_core::cdf::Cdf;
use ts_core::exposure::{ExposureKind, ExposureTable};
use ts_core::stream::{DomainSpans, GroupAcc, Merge, SpanAcc, TierAcc, TopK};
use ts_core::tiers::Tier;

/// A sighting stream: (domain, id, day), with a shard assignment.
fn sightings(max_len: usize) -> impl Strategy<Value = Vec<(String, String, u64, usize)>> {
    proptest::collection::vec(
        ("[ab][0-3]\\.sim", "[w-z][0-2]", 0u64..40, 0usize..4),
        1..max_len,
    )
}

/// Merge `parts` into one accumulator, in the given order.
fn merge_all<T: Merge>(parts: Vec<T>) -> T {
    let mut it = parts.into_iter();
    let mut acc = it.next().expect("at least one shard");
    for p in it {
        acc.merge(p);
    }
    acc
}

/// The paper's estimator in its plainest form: every (domain, id) pair's
/// first and last day, then per domain the longest inclusive span, the
/// number of ids and the number of distinct days.
fn span_oracle(stream: &[(String, String, u64, usize)]) -> BTreeMap<String, DomainSpans> {
    let mut ranges: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
    let mut days: BTreeMap<&str, BTreeSet<u64>> = BTreeMap::new();
    for (domain, id, day, _) in stream {
        let r = ranges.entry((domain, id)).or_insert((*day, *day));
        *r = (r.0.min(*day), r.1.max(*day));
        days.entry(domain).or_default().insert(*day);
    }
    let mut out: BTreeMap<String, DomainSpans> = BTreeMap::new();
    for ((domain, _), (first, last)) in ranges {
        let ds = out.entry(domain.to_string()).or_insert(DomainSpans {
            max_span_days: 0,
            distinct_ids: 0,
            days_seen: days[domain].len(),
        });
        ds.max_span_days = ds.max_span_days.max(last - first + 1);
        ds.distinct_ids += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // --- SpanAcc against the batch oracle ---

    #[test]
    fn span_acc_exact_matches_first_last_seen_oracle(
        stream in sightings(150),
        threshold in 1u64..20,
    ) {
        let mut acc = SpanAcc::exact();
        for (domain, id, day, _) in &stream {
            acc.record(domain, id, *day);
            acc.advance(*day);
        }
        let oracle = span_oracle(&stream);
        prop_assert_eq!(&acc.domain_spans(), &oracle);
        let max_spans: Vec<u64> = oracle.values().map(|s| s.max_span_days).collect();
        prop_assert_eq!(acc.max_spans(), max_spans);
        let mut long: Vec<(String, u64)> = oracle
            .iter()
            .filter(|(_, s)| s.max_span_days >= threshold)
            .map(|(d, s)| (d.clone(), s.max_span_days))
            .collect();
        long.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(acc.domains_with_span_at_least(threshold), long);
        let pairs: BTreeSet<(&str, &str)> =
            stream.iter().map(|(d, id, _, _)| (d.as_str(), id.as_str())).collect();
        prop_assert_eq!(acc.pair_count(), pairs.len());
        for (domain, id) in pairs {
            let days = stream
                .iter()
                .filter(|(d, i, _, _)| d == domain && i == id)
                .map(|(_, _, day, _)| *day);
            let (first, last) = (days.clone().min().unwrap(), days.max().unwrap());
            prop_assert_eq!(acc.span_of(domain, id), Some(last - first + 1));
        }
    }

    // --- SpanAcc, exact mode: full order independence ---

    #[test]
    fn span_acc_sharded_equals_single_any_split(
        stream in sightings(150),
    ) {
        let mut single = SpanAcc::exact();
        let mut shards: Vec<SpanAcc> = (0..4).map(|_| SpanAcc::exact()).collect();
        for (domain, id, day, shard) in &stream {
            single.record(domain, id, *day);
            shards[*shard].record(domain, id, *day);
        }
        // Forward and reverse merge orders both match the single pass:
        // with associativity (below) this covers arbitrary groupings.
        let forward = merge_all(shards.clone());
        let mut reversed = shards;
        reversed.reverse();
        let backward = merge_all(reversed);
        for merged in [&forward, &backward] {
            prop_assert_eq!(merged.domain_spans(), single.domain_spans());
            prop_assert_eq!(merged.pair_count(), single.pair_count());
            prop_assert_eq!(merged.watermark(), single.watermark());
            prop_assert_eq!(merged.max_spans(), single.max_spans());
        }
    }

    #[test]
    fn span_acc_merge_is_associative(
        stream in sightings(120),
    ) {
        let mut parts: Vec<SpanAcc> = (0..3).map(|_| SpanAcc::exact()).collect();
        for (domain, id, day, shard) in &stream {
            parts[shard % 3].record(domain, id, *day);
        }
        let [a, b, c] = <[SpanAcc; 3]>::try_from(parts).ok().unwrap();
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        prop_assert_eq!(left.domain_spans(), right.domain_spans());
        prop_assert_eq!(left.pair_count(), right.pair_count());
        prop_assert_eq!(left.domains_with_span_at_least(2),
                        right.domains_with_span_at_least(2));
    }

    // --- SpanAcc, horizon mode: domain-partitioned splits ---

    #[test]
    fn span_acc_horizon_sharded_equals_single_domain_partition(
        stream in sightings(150),
        horizon in 1u64..12,
    ) {
        // Day-lockstep replay, as the campaign runs it: all of day d is
        // recorded, then every accumulator advances to d. Domains are
        // partitioned by shard of their name, so per-domain state never
        // straddles accumulators.
        let mut stream = stream;
        stream.sort_by_key(|(_, _, day, _)| *day);
        let shard_of = |domain: &str| domain.as_bytes()[1] as usize % 2;
        let mut single = SpanAcc::with_horizon(Some(horizon));
        let mut shards: Vec<SpanAcc> =
            (0..2).map(|_| SpanAcc::with_horizon(Some(horizon))).collect();
        let last_day = stream.iter().map(|(_, _, d, _)| *d).max().unwrap();
        for day in 0..=last_day {
            for (domain, id, d, _) in stream.iter().filter(|(_, _, d, _)| *d == day) {
                single.record(domain, id, *d);
                shards[shard_of(domain)].record(domain, id, *d);
            }
            single.advance(day);
            for s in &mut shards {
                s.advance(day);
            }
        }
        let merged = merge_all(shards);
        prop_assert_eq!(merged.domain_spans(), single.domain_spans());
        prop_assert_eq!(merged.pair_count(), single.pair_count());
    }

    // --- Cdf / TierAcc ---

    #[test]
    fn cdf_sharded_equals_single_any_split(
        samples in proptest::collection::vec((0u64..200, 0usize..4), 1..200),
        q in 0.0f64..1.0,
    ) {
        let mut single = Cdf::new();
        let mut shards: Vec<Cdf> = (0..4).map(|_| Cdf::new()).collect();
        for (v, shard) in &samples {
            single.add(*v);
            shards[*shard].add(*v);
        }
        let forward = merge_all(shards.clone());
        let mut reversed = shards;
        reversed.reverse();
        let backward = merge_all(reversed);
        prop_assert_eq!(&forward, &single);
        prop_assert_eq!(&backward, &single);
        // Query surface agrees with a sorted sample vector: integer count
        // over total, and nearest rank.
        let mut sorted: Vec<u64> = samples.iter().map(|(v, _)| *v).collect();
        sorted.sort_unstable();
        let n = sorted.len();
        for x in [0, 50, 199] {
            let le = sorted.partition_point(|&v| v <= x);
            let ge = n - sorted.partition_point(|&v| v < x);
            prop_assert_eq!(forward.count_le(x), le);
            prop_assert_eq!(forward.count_ge(x), ge);
            prop_assert_eq!(forward.fraction_le(x), le as f64 / n as f64);
            prop_assert_eq!(forward.fraction_ge(x), ge as f64 / n as f64);
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        prop_assert_eq!(forward.quantile(q), Some(sorted[rank - 1]));
        prop_assert_eq!(forward.median(), Some(sorted[n.div_ceil(2) - 1]));
        prop_assert_eq!((forward.min(), forward.max()), (sorted.first().copied(), sorted.last().copied()));
    }

    #[test]
    fn tier_acc_sharded_equals_single_any_split(
        records in proptest::collection::vec(
            (1usize..5000, 0u64..64, 0usize..3), 1..150),
    ) {
        const TIERS: &[Tier] = &[
            Tier { label: "Top 100", limit: 100 },
            Tier { label: "Top 1K", limit: 1_000 },
            Tier { label: "All", limit: usize::MAX },
        ];
        let mut single = TierAcc::new(TIERS);
        let mut shards: Vec<TierAcc> = (0..3).map(|_| TierAcc::new(TIERS)).collect();
        for (rank, value, shard) in &records {
            single.record(*rank, *value);
            shards[*shard].record(*rank, *value);
        }
        let merged = merge_all(shards);
        prop_assert_eq!(merged.cdfs(), single.cdfs());
    }

    // --- GroupAcc, exact mode: contiguous splits in shard order ---

    #[test]
    fn group_acc_contiguous_shards_equal_single_exactly(
        stream in sightings(150),
        cut in 1usize..149,
    ) {
        // The campaign's regime: shard 0's stream precedes shard 1's, and
        // merges happen in shard order — then even name-interning order
        // (hence group labelling and tie-breaks) reproduces exactly.
        let cut = cut.min(stream.len());
        let mut single = GroupAcc::exact();
        let mut left = GroupAcc::exact();
        let mut right = GroupAcc::exact();
        for (i, (domain, id, day, _)) in stream.iter().enumerate() {
            single.record(domain, id, *day);
            if i < cut {
                left.record(domain, id, *day);
            } else {
                right.record(domain, id, *day);
            }
        }
        left.merge(right);
        prop_assert_eq!(left.groups(), single.groups());
        prop_assert_eq!(left.service_groups(), single.service_groups());
    }

    // --- GroupAcc, horizon mode: id-partitioned splits ---

    #[test]
    fn group_acc_horizon_id_partition_same_partition(
        stream in sightings(150),
        horizon in 1u64..12,
    ) {
        // Identifiers are partitioned across accumulators (each id's
        // sightings all reach one shard), so sharing edges form locally
        // and eviction retires the same ids. The *partition* of domains
        // into groups must agree; labelling order may differ between the
        // interleaved and concatenated feeds, so compare canonical sets.
        let mut stream = stream;
        stream.sort_by_key(|(_, _, day, _)| *day);
        let shard_of = |id: &str| id.as_bytes()[1] as usize % 2;
        let mut single = GroupAcc::with_horizon(Some(horizon));
        let mut shards: Vec<GroupAcc> =
            (0..2).map(|_| GroupAcc::with_horizon(Some(horizon))).collect();
        let last_day = stream.iter().map(|(_, _, d, _)| *d).max().unwrap();
        for day in 0..=last_day {
            for (domain, id, d, _) in stream.iter().filter(|(_, _, d, _)| *d == day) {
                single.record(domain, id, *d);
                shards[shard_of(id)].record(domain, id, *d);
            }
            single.advance(day);
            for s in &mut shards {
                s.advance(day);
            }
        }
        let mut merged = merge_all(shards);
        let canon = |groups: Vec<Vec<String>>| -> BTreeSet<Vec<String>> {
            groups.into_iter().collect()
        };
        prop_assert_eq!(canon(merged.groups()), canon(single.groups()));
        prop_assert_eq!(merged.evicted_ids(), single.evicted_ids());
    }

    // --- ExposureTable ---

    #[test]
    fn exposure_table_sharded_equals_single_any_split(
        records in proptest::collection::vec(
            ("[ab][0-3]\\.sim", 0u8..3, 1u64..1_000_000, 0usize..3), 1..120),
    ) {
        let kind = |k: u8| match k {
            0 => ExposureKind::Ticket,
            1 => ExposureKind::SessionCache,
            _ => ExposureKind::DhReuse,
        };
        let mut single = ExposureTable::new();
        let mut shards: Vec<ExposureTable> =
            (0..3).map(|_| ExposureTable::new()).collect();
        for (domain, k, window, shard) in &records {
            single.record(domain, kind(*k), *window);
            shards[*shard].record(domain, kind(*k), *window);
        }
        let mut it = shards.into_iter();
        let mut merged = it.next().unwrap();
        for s in it {
            merged.merge(s);
        }
        prop_assert_eq!(merged.len(), single.len());
        for (domain, _, _, _) in &records {
            prop_assert_eq!(merged.get(domain), single.get(domain));
        }
    }

    // --- TopK ---

    #[test]
    fn top_k_sharded_equals_single_any_split(
        entries in proptest::collection::vec(("[a-f][0-9]", 0u64..100, 0usize..3), 1..120),
        k in 1usize..12,
    ) {
        let mut single = TopK::new(k);
        let mut shards: Vec<TopK> = (0..3).map(|_| TopK::new(k)).collect();
        for (name, value, shard) in &entries {
            single.push(name, *value);
            shards[*shard].push(name, *value);
        }
        let merged = merge_all(shards);
        prop_assert_eq!(merged.into_vec(), single.into_vec());
    }
}
