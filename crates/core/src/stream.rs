//! Streaming, mergeable accumulators for sharded campaigns.
//!
//! A collect-then-sort pipeline (`Vec<TicketSighting>` → sort → group)
//! would hold every observation of a nine-week campaign in memory at once
//! — O(domain-days). The types here keep bounded state instead:
//!
//! * [`SpanAcc`] — the paper's first/last-seen span estimator: live
//!   (domain, id) ranges plus per-domain closed aggregates, with an
//!   optional eviction horizon that retires pairs not sighted for `h` days;
//! * [`TierAcc`] — the streaming tier-CDF builder behind Figure 4, one
//!   value→count [`Cdf`] per tier;
//! * [`GroupAcc`] — incremental union-find over (domain, shared-id)
//!   sightings, storing no edge list;
//! * [`TopK`] — bounded top-k selection for the notable-reuser tables.
//!
//! Every accumulator (and [`Cdf`]) implements [`Merge`] with the law that
//! drives the sharded campaign: feeding a stream through one accumulator,
//! or splitting it across several and merging them (in any order, any
//! grouping), yields the same analysis results. Eviction keeps the law on
//! *domain-partitioned* splits — per-domain state never straddles two
//! accumulators, so retiring a pair locally is the same as retiring it
//! globally.

use crate::cdf::Cdf;
use crate::tiers::Tier;
use std::collections::{BTreeMap, HashMap};

/// The shard-merge law: `a.merge(b)` folds `b`'s stream into `a`.
///
/// Implementations guarantee that merging is associative and — up to
/// internal bookkeeping that never reaches query results — commutative,
/// so a fixed merge order (shard 0, 1, 2, …) gives the same answers as
/// one accumulator fed the concatenated stream.
pub trait Merge {
    /// Fold `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// 128-bit FNV-1a over a string — the shard-stable identifier
/// fingerprint.
///
/// Streams hand accumulators identifier *strings* (STEK key names, DH
/// value fingerprints); storing each one per live pair would dominate
/// peak memory. A 128-bit fingerprint keeps collision probability
/// negligible at a billion ids (~10⁻²⁰) and is a pure function of the
/// bytes, so every shard and process agrees on it.
pub fn fp128(s: &str) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in s.as_bytes() {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Set of study days, packed 64 per word so merge is a bitwise OR.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DaySet {
    words: Vec<u64>,
}

impl DaySet {
    fn insert(&mut self, day: u64) {
        let word = (day / 64) as usize;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (day % 64);
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn union(&mut self, other: &DaySet) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// Span statistics for one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSpans {
    /// Longest identifier span, in days (first-to-last inclusive).
    pub max_span_days: u64,
    /// Number of distinct identifiers sighted.
    pub distinct_ids: usize,
    /// Number of days with at least one sighting.
    pub days_seen: usize,
}

/// Per-domain aggregate of pairs already retired by the horizon.
#[derive(Debug, Clone, Default)]
struct DomainAgg {
    max_closed_span: u64,
    closed_ids: u64,
    days: DaySet,
}

/// First/last-seen span estimation (§4.3, §4.4).
///
/// The paper's estimator: a (domain, identifier) pair's lifetime is the
/// span between the first and last day the pair was sighted, *inclusive*.
/// Intermediate days with a different identifier are attributed to scan
/// jitter (A-record selection, load-balancer affinity, missed
/// connections), because static keys don't flip back and forth and random
/// identifiers don't collide.
///
/// With `horizon_days = None` the accumulator is exact: every pair stays
/// individually addressable. With `Some(h)`, a live (domain, id) pair
/// whose last sighting is more than `h` days behind the watermark is
/// folded into a per-domain aggregate (its span is final); peak live
/// state is then O(domains + pairs inside the horizon) instead of O(all
/// pairs ever). The horizon contract: an identifier that has
/// been absent for `h` days never reappears — true of the simulation
/// (STEK managers do not resurrect retired keys; reuse windows are
/// contiguous) and of any reasonable server implementation.
#[derive(Debug, Clone)]
pub struct SpanAcc {
    horizon_days: Option<u64>,
    watermark: u64,
    // (domain, id fingerprint) -> (first_day, last_day). Ordered so
    // domain_spans() can group by domain in one keyed pass.
    live: BTreeMap<(String, u128), (u64, u64)>,
    domains: BTreeMap<String, DomainAgg>,
    closed_pairs: u64,
    live_high_water: usize,
}

impl SpanAcc {
    /// Exact accumulator (never evicts).
    pub fn exact() -> Self {
        Self::with_horizon(None)
    }

    /// Accumulator that retires pairs unsighted for `horizon_days`.
    pub fn with_horizon(horizon_days: Option<u64>) -> Self {
        SpanAcc {
            horizon_days,
            watermark: 0,
            live: BTreeMap::new(),
            domains: BTreeMap::new(),
            closed_pairs: 0,
            live_high_water: 0,
        }
    }

    /// Record one sighting of `id` at `domain` on `day`.
    pub fn record(&mut self, domain: &str, id: &str, day: u64) {
        self.watermark = self.watermark.max(day);
        let entry = self
            .live
            .entry((domain.to_string(), fp128(id)))
            .or_insert((day, day));
        entry.0 = entry.0.min(day);
        entry.1 = entry.1.max(day);
        self.domains
            .entry(domain.to_string())
            .or_default()
            .days
            .insert(day);
        self.live_high_water = self.live_high_water.max(self.live.len());
    }

    /// Advance the watermark to `day` and retire pairs past the horizon.
    /// Call once per completed campaign day; a no-op in exact mode.
    pub fn advance(&mut self, day: u64) {
        self.watermark = self.watermark.max(day);
        let Some(h) = self.horizon_days else {
            return;
        };
        let cutoff = match self.watermark.checked_sub(h) {
            Some(c) => c,
            None => return,
        };
        let mut retired: Vec<(String, u64)> = Vec::new();
        self.live.retain(|(domain, _), &mut (first, last)| {
            if last < cutoff {
                retired.push((domain.clone(), last - first + 1));
                false
            } else {
                true
            }
        });
        for (domain, span) in retired {
            let agg = self.domains.entry(domain).or_default();
            agg.max_closed_span = agg.max_closed_span.max(span);
            agg.closed_ids += 1;
            self.closed_pairs += 1;
        }
    }

    /// Per-domain span statistics, keyed in domain order.
    pub fn domain_spans(&self) -> BTreeMap<String, DomainSpans> {
        let mut out: BTreeMap<String, DomainSpans> = self
            .domains
            .iter()
            .filter(|(_, agg)| agg.days.len() > 0)
            .map(|(domain, agg)| {
                (
                    domain.clone(),
                    DomainSpans {
                        max_span_days: agg.max_closed_span,
                        distinct_ids: agg.closed_ids as usize,
                        days_seen: agg.days.len(),
                    },
                )
            })
            .collect();
        for ((domain, _), &(first, last)) in &self.live {
            let ds = out
                .get_mut(domain)
                .expect("live pair implies domain recorded");
            ds.max_span_days = ds.max_span_days.max(last - first + 1);
            ds.distinct_ids += 1;
        }
        out
    }

    /// Span of one live (domain, id) pair; pairs retired by the horizon
    /// are no longer individually addressable.
    pub fn span_of(&self, domain: &str, id: &str) -> Option<u64> {
        self.live
            .get(&(domain.to_string(), fp128(id)))
            .map(|&(first, last)| last - first + 1)
    }

    /// Domains whose longest span is at least `days`, sorted by span
    /// descending then name.
    pub fn domains_with_span_at_least(&self, days: u64) -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = self
            .domain_spans()
            .into_iter()
            .filter(|(_, s)| s.max_span_days >= days)
            .map(|(d, s)| (d, s.max_span_days))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// All per-domain max spans (for CDF building).
    pub fn max_spans(&self) -> Vec<u64> {
        self.domain_spans()
            .values()
            .map(|s| s.max_span_days)
            .collect()
    }

    /// Total distinct (domain, id) pairs seen (live + retired).
    pub fn pair_count(&self) -> usize {
        self.live.len() + self.closed_pairs as usize
    }

    /// Currently live (unretired) pairs.
    pub fn live_pairs(&self) -> usize {
        self.live.len()
    }

    /// High-water mark of live pairs — the memory the horizon bounds.
    pub fn live_high_water(&self) -> usize {
        self.live_high_water
    }

    /// Latest day observed.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

impl Default for SpanAcc {
    fn default() -> Self {
        Self::exact()
    }
}

impl Merge for SpanAcc {
    fn merge(&mut self, other: SpanAcc) {
        debug_assert_eq!(
            self.horizon_days, other.horizon_days,
            "merging accumulators with different horizons"
        );
        self.watermark = self.watermark.max(other.watermark);
        self.closed_pairs += other.closed_pairs;
        for ((domain, id), (first, last)) in other.live {
            let entry = self.live.entry((domain, id)).or_insert((first, last));
            entry.0 = entry.0.min(first);
            entry.1 = entry.1.max(last);
        }
        for (domain, agg) in other.domains {
            let mine = self.domains.entry(domain).or_default();
            mine.max_closed_span = mine.max_closed_span.max(agg.max_closed_span);
            mine.closed_ids += agg.closed_ids;
            mine.days.union(&agg.days);
        }
        self.live_high_water = self
            .live_high_water
            .max(other.live_high_water)
            .max(self.live.len());
    }
}

/// Streaming tier-CDF builder (Figure 4): records (rank, value) pairs
/// into the cumulative rank tiers without materializing the sample list.
#[derive(Debug, Clone)]
pub struct TierAcc {
    tiers: Vec<Tier>,
    cdfs: Vec<Cdf>,
}

impl TierAcc {
    /// Builder over the given tiers (see
    /// [`tiers_for_population`](crate::tiers::tiers_for_population)).
    pub fn new(tiers: &[Tier]) -> Self {
        TierAcc {
            tiers: tiers.to_vec(),
            cdfs: vec![Cdf::new(); tiers.len()],
        }
    }

    /// Record one (rank, value) sample into every tier it falls in
    /// (tiers are cumulative: Top 1K contains Top 100).
    pub fn record(&mut self, rank: usize, value: u64) {
        for (tier, cdf) in self.tiers.iter().zip(&mut self.cdfs) {
            if rank <= tier.limit {
                cdf.add(value);
            }
        }
    }

    /// Per-tier CDFs keyed by tier label.
    pub fn cdfs(&self) -> BTreeMap<&'static str, Cdf> {
        self.tiers
            .iter()
            .zip(&self.cdfs)
            .map(|(tier, cdf)| (tier.label, cdf.clone()))
            .collect()
    }

    /// The tiers this accumulator was built over.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }
}

impl Merge for TierAcc {
    fn merge(&mut self, other: TierAcc) {
        debug_assert_eq!(
            self.tiers.len(),
            other.tiers.len(),
            "merging tier accumulators with different layouts"
        );
        for (mine, theirs) in self.cdfs.iter_mut().zip(other.cdfs) {
            mine.merge(theirs);
        }
    }
}

/// Service groups from shared identifiers (§5.2, §5.3): any two domains
/// that ever presented the same id (STEK key name, DH value) belong
/// together, closed transitively.
///
/// Holds an *incremental* union-find (no edge list, unlike
/// [`DisjointSets`](crate::unionfind::DisjointSets)) plus one
/// first-holder entry per live identifier, so memory is O(domains + ids
/// inside the horizon) rather than O(sightings). Names are interned in
/// first-appearance order, each sighting unions its domain with the id's
/// first holder, and sets are ordered by (size desc, min member index)
/// before labelling.
#[derive(Debug, Clone, Default)]
pub struct GroupAcc {
    horizon_days: Option<u64>,
    watermark: u64,
    // Lookup-only hash map (get/insert; never iterated): insertion order
    // is captured by `names`, so the hash seed cannot leak into results.
    indices: HashMap<String, usize>,
    names: Vec<String>,
    parent: Vec<usize>,
    size: Vec<usize>,
    // id fingerprint -> (first holder index, last day sighted)
    holders: BTreeMap<u128, (usize, u64)>,
    evicted_ids: u64,
    holders_high_water: usize,
}

impl GroupAcc {
    /// Exact accumulator (keeps every identifier's first holder).
    pub fn exact() -> Self {
        Self::with_horizon(None)
    }

    /// Accumulator that forgets identifiers unsighted for
    /// `horizon_days`. The horizon contract is contemporaneity: domains
    /// sharing an identifier present it in the same period, so the
    /// sharing edge forms before the id can be evicted.
    pub fn with_horizon(horizon_days: Option<u64>) -> Self {
        GroupAcc {
            horizon_days,
            ..Self::default()
        }
    }

    fn index(&mut self, key: &str) -> usize {
        if let Some(&i) = self.indices.get(key) {
            return i;
        }
        let i = self.names.len();
        self.indices.insert(key.to_string(), i);
        self.names.push(key.to_string());
        self.parent.push(i);
        self.size.push(1);
        i
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
    }

    /// Register a domain with no sighting (a singleton until connected).
    pub fn add(&mut self, domain: &str) {
        self.index(domain);
    }

    /// Record that `domain` presented shared identifier `id` on `day`.
    pub fn record(&mut self, domain: &str, id: &str, day: u64) {
        self.watermark = self.watermark.max(day);
        let di = self.index(domain);
        let fp = fp128(id);
        match self.holders.get_mut(&fp) {
            Some((holder, last)) => {
                *last = (*last).max(day);
                let holder = *holder;
                self.union(holder, di);
            }
            None => {
                self.holders.insert(fp, (di, day));
            }
        }
        self.holders_high_water = self.holders_high_water.max(self.holders.len());
    }

    /// Advance the watermark to `day` and forget identifiers past the
    /// horizon (their sharing edges are already in the partition).
    pub fn advance(&mut self, day: u64) {
        self.watermark = self.watermark.max(day);
        let Some(h) = self.horizon_days else {
            return;
        };
        let cutoff = match self.watermark.checked_sub(h) {
            Some(c) => c,
            None => return,
        };
        let before = self.holders.len();
        self.holders.retain(|_, &mut (_, last)| last >= cutoff);
        self.evicted_ids += (before - self.holders.len()) as u64;
    }

    /// All groups as sorted member-name vectors, ordered (size desc, min
    /// member index) — the
    /// [`DisjointSets::groups`](crate::unionfind::DisjointSets::groups)
    /// shape, ready for
    /// [`finalize_groups`](crate::groups::finalize_groups).
    pub fn groups(&mut self) -> Vec<Vec<String>> {
        if self.names.is_empty() {
            return Vec::new();
        }
        let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..self.names.len() {
            let r = self.find(i);
            by_root.entry(r).or_default().push(i);
        }
        let mut sets: Vec<Vec<usize>> = by_root.into_values().collect();
        for s in &mut sets {
            s.sort_unstable();
        }
        sets.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        sets.into_iter()
            .map(|set| {
                let mut g: Vec<String> = set.into_iter().map(|i| self.names[i].clone()).collect();
                g.sort();
                g
            })
            .collect()
    }

    /// Labelled, ordered service groups (see
    /// [`finalize_groups`](crate::groups::finalize_groups)).
    pub fn service_groups(&mut self) -> Vec<crate::groups::ServiceGroup> {
        crate::groups::finalize_groups(self.groups())
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no domains registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Identifiers currently tracked (inside the horizon).
    pub fn live_ids(&self) -> usize {
        self.holders.len()
    }

    /// High-water mark of tracked identifiers.
    pub fn ids_high_water(&self) -> usize {
        self.holders_high_water
    }

    /// Identifiers forgotten by the horizon.
    pub fn evicted_ids(&self) -> u64 {
        self.evicted_ids
    }
}

impl Merge for GroupAcc {
    fn merge(&mut self, other: GroupAcc) {
        debug_assert_eq!(
            self.horizon_days, other.horizon_days,
            "merging group accumulators with different horizons"
        );
        self.watermark = self.watermark.max(other.watermark);
        self.evicted_ids += other.evicted_ids;
        // Intern the other side's names in insertion order, then join the
        // partitions: unioning each member with its root reproduces the
        // closure of the combined edge streams.
        let mut other = other;
        let remap: Vec<usize> = (0..other.names.len())
            .map(|i| self.index(&other.names[i]))
            .collect();
        for i in 0..other.names.len() {
            let root = other.find(i);
            if root != i {
                self.union(remap[i], remap[root]);
            }
        }
        for (fp, (holder, last)) in std::mem::take(&mut other.holders) {
            let holder = remap[holder];
            match self.holders.get_mut(&fp) {
                Some((mine, mine_last)) => {
                    *mine_last = (*mine_last).max(last);
                    let mine = *mine;
                    self.union(mine, holder);
                }
                None => {
                    self.holders.insert(fp, (holder, last));
                }
            }
        }
        self.holders_high_water = self
            .holders_high_water
            .max(other.holders_high_water)
            .max(self.holders.len());
    }
}

/// Bounded top-k selection by (value desc, name asc) — the order of the
/// notable-reuser tables.
#[derive(Debug, Clone)]
pub struct TopK {
    // Named `limit` rather than `k`: the workspace secret model taints
    // any field spelled `k` (HmacDrbg's key half), and a selection bound
    // must stay freely comparable.
    limit: usize,
    // Kept sorted by (value desc, name asc); at most `limit` entries.
    entries: Vec<(u64, String)>,
}

impl TopK {
    /// Selector keeping the `k` largest entries.
    pub fn new(k: usize) -> Self {
        TopK {
            limit: k,
            entries: Vec::with_capacity(k.min(64)),
        }
    }

    /// Offer one (name, value) candidate.
    pub fn push(&mut self, name: &str, value: u64) {
        if self.limit == 0 {
            return;
        }
        if self.entries.len() == self.limit {
            let worst = self.entries.last().expect("non-empty at capacity");
            if (std::cmp::Reverse(value), name) >= (std::cmp::Reverse(worst.0), worst.1.as_str()) {
                return;
            }
        }
        let pos = self.entries.partition_point(|(v, n)| {
            (std::cmp::Reverse(*v), n.as_str()) < (std::cmp::Reverse(value), name)
        });
        self.entries.insert(pos, (value, name.to_string()));
        self.entries.truncate(self.limit);
    }

    /// The retained entries as (name, value), best first.
    pub fn into_vec(self) -> Vec<(String, u64)> {
        self.entries.into_iter().map(|(v, n)| (n, v)).collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Merge for TopK {
    fn merge(&mut self, other: TopK) {
        for (value, name) in other.entries {
            self.push(&name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp128_distinguishes_and_is_stable() {
        assert_eq!(fp128(""), 0x6c62272e07bb014262b821756295c58d);
        assert_ne!(fp128("stek-a"), fp128("stek-b"));
        assert_eq!(fp128("stek-a"), fp128("stek-a"));
    }

    #[test]
    fn span_single_day_is_one() {
        let mut e = SpanAcc::exact();
        e.record("a.sim", "k1", 5);
        assert_eq!(e.span_of("a.sim", "k1"), Some(1));
        let spans = e.domain_spans();
        assert_eq!(spans["a.sim"].max_span_days, 1);
        assert_eq!(spans["a.sim"].distinct_ids, 1);
    }

    #[test]
    fn span_first_to_last_inclusive() {
        let mut e = SpanAcc::exact();
        e.record("a.sim", "k1", 0);
        e.record("a.sim", "k1", 62);
        assert_eq!(e.span_of("a.sim", "k1"), Some(63), "whole study");
    }

    #[test]
    fn span_jitter_days_bridged() {
        // The paper's key property: an intermediate sighting of a
        // different id (load-balancer jitter) does not split the span.
        let mut e = SpanAcc::exact();
        e.record("a.sim", "k1", 0);
        e.record("a.sim", "other", 5);
        e.record("a.sim", "k1", 10);
        assert_eq!(e.span_of("a.sim", "k1"), Some(11));
        let spans = e.domain_spans();
        assert_eq!(spans["a.sim"].max_span_days, 11);
        assert_eq!(spans["a.sim"].distinct_ids, 2);
        assert_eq!(spans["a.sim"].days_seen, 3);
    }

    #[test]
    fn span_missed_scan_days_bridged() {
        let mut e = SpanAcc::exact();
        e.record("a.sim", "k1", 0);
        // days 1-6 missed entirely (server unresponsive)
        e.record("a.sim", "k1", 7);
        assert_eq!(e.span_of("a.sim", "k1"), Some(8));
    }

    #[test]
    fn span_per_domain_max_over_multiple_ids() {
        let mut e = SpanAcc::exact();
        // Rotating daily: spans of 1 each.
        for day in 0..10 {
            e.record("daily.sim", &format!("key{day}"), day);
        }
        // One long key.
        e.record("static.sim", "k", 0);
        e.record("static.sim", "k", 29);
        let spans = e.domain_spans();
        assert_eq!(spans["daily.sim"].max_span_days, 1);
        assert_eq!(spans["daily.sim"].distinct_ids, 10);
        assert_eq!(spans["static.sim"].max_span_days, 30);
        assert_eq!(e.max_spans(), vec![1, 30], "domain order");
    }

    #[test]
    fn span_domains_with_span_at_least_sorted() {
        let mut e = SpanAcc::exact();
        e.record("long.sim", "k", 0);
        e.record("long.sim", "k", 62);
        e.record("mid.sim", "k", 0);
        e.record("mid.sim", "k", 9);
        e.record("mid2.sim", "k", 3);
        e.record("mid2.sim", "k", 12);
        e.record("short.sim", "k", 0);
        let v = e.domains_with_span_at_least(7);
        assert_eq!(
            v,
            vec![
                ("long.sim".to_string(), 63),
                ("mid.sim".to_string(), 10),
                ("mid2.sim".to_string(), 10)
            ],
            "span descending, then name"
        );
        assert_eq!(e.domains_with_span_at_least(64), vec![]);
    }

    #[test]
    fn span_same_id_different_domains_tracked_separately() {
        let mut e = SpanAcc::exact();
        e.record("a.sim", "shared", 0);
        e.record("a.sim", "shared", 5);
        e.record("b.sim", "shared", 3);
        assert_eq!(e.span_of("a.sim", "shared"), Some(6));
        assert_eq!(e.span_of("b.sim", "shared"), Some(1));
        assert_eq!(e.pair_count(), 2);
    }

    #[test]
    fn span_acc_horizon_bounds_live_pairs_without_changing_spans() {
        // One long-lived key plus a rotator: with a 3-day horizon the
        // rotator's dead keys retire, but every domain's final spans are
        // identical to the exact accumulator's.
        let mut exact = SpanAcc::exact();
        let mut evicting = SpanAcc::with_horizon(Some(3));
        for day in 0..30u64 {
            for acc in [&mut exact, &mut evicting] {
                acc.record("static.sim", "k", day);
                acc.record("rotator.sim", &format!("r{day}"), day);
                acc.advance(day);
            }
        }
        assert_eq!(exact.domain_spans(), evicting.domain_spans());
        assert_eq!(exact.pair_count(), evicting.pair_count());
        assert_eq!(exact.live_pairs(), 31);
        assert!(
            evicting.live_pairs() <= 6,
            "horizon must bound live state, got {}",
            evicting.live_pairs()
        );
        assert!(evicting.live_high_water() <= 7);
    }

    #[test]
    fn span_acc_merge_matches_single_stream() {
        let stream: Vec<(String, String, u64)> = (0..40)
            .map(|i| {
                (
                    format!("d{}.sim", i % 7),
                    format!("id{}", i % 11),
                    (i % 13) as u64,
                )
            })
            .collect();
        let mut whole = SpanAcc::exact();
        for (d, id, day) in &stream {
            whole.record(d, id, *day);
        }
        // Split three ways by round-robin (not domain-partitioned: exact
        // mode tolerates arbitrary splits), merge in a fixed order.
        let mut parts = vec![SpanAcc::exact(), SpanAcc::exact(), SpanAcc::exact()];
        for (i, (d, id, day)) in stream.iter().enumerate() {
            parts[i % 3].record(d, id, *day);
        }
        let mut merged = parts.remove(0);
        for p in parts {
            merged.merge(p);
        }
        assert_eq!(whole.domain_spans(), merged.domain_spans());
        assert_eq!(whole.pair_count(), merged.pair_count());
    }

    #[test]
    fn tier_acc_cdfs_are_cumulative() {
        use crate::tiers::tiers_for_population;
        let tiers = tiers_for_population(10_000);
        let mut acc = TierAcc::new(&tiers);
        for (rank, v) in [(5usize, 100u64), (500, 10), (5_000, 1)] {
            acc.record(rank, v);
        }
        let cdfs = acc.cdfs();
        assert_eq!(cdfs.len(), tiers.len());
        assert_eq!(cdfs["Top 100"].len(), 1);
        assert_eq!(cdfs["Top 1K"].len(), 2);
        assert_eq!(cdfs["Whole list"].len(), 3);
        assert_eq!(cdfs["Top 100"].median(), Some(100));
    }

    #[test]
    fn tier_acc_empty_tier_is_empty_cdf() {
        use crate::tiers::tiers_for_population;
        let tiers = tiers_for_population(10_000);
        let mut acc = TierAcc::new(&tiers);
        acc.record(5_000, 1);
        let cdfs = acc.cdfs();
        assert!(cdfs["Top 100"].is_empty());
        assert_eq!(cdfs["Whole list"].len(), 1);
    }

    #[test]
    fn tier_acc_merge_matches_single_stream() {
        use crate::tiers::tiers_for_population;
        let tiers = tiers_for_population(10_000);
        let samples: Vec<(usize, u64)> =
            (0..50).map(|i| (i * 137 % 9000, (i % 9) as u64)).collect();
        let mut whole = TierAcc::new(&tiers);
        let mut a = TierAcc::new(&tiers);
        let mut b = TierAcc::new(&tiers);
        for (i, &(r, v)) in samples.iter().enumerate() {
            whole.record(r, v);
            if i % 2 == 0 {
                a.record(r, v);
            } else {
                b.record(r, v);
            }
        }
        a.merge(b);
        assert_eq!(whole.cdfs(), a.cdfs());
    }

    #[test]
    fn group_acc_closes_shared_ids_transitively() {
        let pairs = [
            ("cdn-a.sim", "key1"),
            ("cdn-b.sim", "key1"),
            ("cdn-c.sim", "key2"),
            ("cdn-b.sim", "key2"), // b bridges key1 and key2
            ("lonely.sim", "key9"),
            ("rotator.sim", "r1"),
            ("rotator.sim", "r2"),
        ];
        let mut acc = GroupAcc::exact();
        for (i, &(d, id)) in pairs.iter().enumerate() {
            acc.record(d, id, i as u64);
        }
        let groups = acc.service_groups();
        let members: Vec<Vec<&str>> = groups
            .iter()
            .map(|g| g.members.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(
            members,
            vec![
                vec!["cdn-a.sim", "cdn-b.sim", "cdn-c.sim"],
                vec!["lonely.sim"],
                vec!["rotator.sim"],
            ],
            "a rotating domain's many ids keep it one singleton"
        );
        assert_eq!(groups[0].label, "cdn");
    }

    #[test]
    fn group_acc_horizon_keeps_contemporaneous_edges() {
        let mut acc = GroupAcc::with_horizon(Some(3));
        // Shared key sighted by both domains on the same days, then
        // rotated away; the edge must survive the id's eviction.
        for day in 0..5u64 {
            acc.record("a.sim", "shared", day);
            acc.record("b.sim", "shared", day);
            acc.advance(day);
        }
        for day in 5..30u64 {
            acc.record("a.sim", &format!("fresh{day}"), day);
            acc.record("b.sim", &format!("also{day}"), day);
            acc.advance(day);
        }
        assert!(acc.evicted_ids() > 0, "horizon should have evicted");
        assert!(acc.live_ids() <= 8);
        let groups = acc.groups();
        assert_eq!(groups[0], vec!["a.sim".to_string(), "b.sim".to_string()]);
    }

    #[test]
    fn group_acc_merge_joins_partitions() {
        // a—b learned on one shard, b—c on another: merging must close
        // the chain exactly like a single accumulator would.
        let mut whole = GroupAcc::exact();
        let mut left = GroupAcc::exact();
        let mut right = GroupAcc::exact();
        for (d, id) in [("a.sim", "k1"), ("b.sim", "k1")] {
            whole.record(d, id, 0);
            left.record(d, id, 0);
        }
        for (d, id) in [("b.sim", "k2"), ("c.sim", "k2"), ("solo.sim", "k3")] {
            whole.record(d, id, 1);
            right.record(d, id, 1);
        }
        left.merge(right);
        let mut whole_groups = whole.groups();
        let mut merged_groups = left.groups();
        whole_groups.sort();
        merged_groups.sort();
        assert_eq!(whole_groups, merged_groups);
        assert_eq!(merged_groups.iter().map(|g| g.len()).max(), Some(3));
    }

    #[test]
    fn group_acc_merge_connects_across_shared_holder() {
        // The same id seen on two shards with *different* first holders:
        // merging must union the two holders.
        let mut left = GroupAcc::exact();
        left.record("x.sim", "shared", 0);
        let mut right = GroupAcc::exact();
        right.record("y.sim", "shared", 2);
        left.merge(right);
        let groups = left.groups();
        assert_eq!(groups[0], vec!["x.sim".to_string(), "y.sim".to_string()]);
        // And the surviving holder entry still connects future sighters.
        left.record("z.sim", "shared", 3);
        assert_eq!(left.groups()[0].len(), 3);
    }

    #[test]
    fn top_k_keeps_best_and_merges() {
        let mut t = TopK::new(3);
        for (name, v) in [("e", 5u64), ("a", 9), ("b", 2), ("c", 9), ("d", 7)] {
            t.push(name, v);
        }
        let mut u = TopK::new(3);
        u.push("f", 8);
        u.push("g", 1);
        t.merge(u);
        assert_eq!(
            t.into_vec(),
            vec![
                ("a".to_string(), 9),
                ("c".to_string(), 9),
                ("f".to_string(), 8)
            ]
        );
        let mut zero = TopK::new(0);
        zero.push("x", 1);
        assert!(zero.is_empty());
    }
}
