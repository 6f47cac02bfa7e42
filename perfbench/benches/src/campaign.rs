//! The `campaign` workload: the sharded streaming daily campaign.
//!
//! One pass does the work of `repro campaign` (`ts_bench::Context::campaign`,
//! that is `exp_campaign::run_daily_campaign`) from the same public parts:
//! a fresh population, the `ShardPlan` layout, day-lockstep
//! `for_each_shard`, one `Scanner` per shard-day seeded exactly as there,
//! `run_campaign_streaming` feeding the shard's span accumulators, and the
//! post-barrier drain into the global group trackers. The only difference
//! is that each domain-day is its own `run_campaign_streaming` call behind
//! a timing `CampaignSink`, so that it can be timed from outside: the
//! scanner's generator carries over between calls, so the grab sequence
//! and the observation stream are unchanged. The `campaign/v1` columns a
//! pass returns are checked against `repro campaign` for the same
//! arguments, which proves it.

use std::collections::BTreeMap;
use std::time::Instant;
use ts_bench::exp_campaign::EVICTION_HORIZON_DAYS;
use ts_bench::Context;
use ts_core::json::Json;
use ts_core::observations::{KexKind, KexSighting, TicketSighting};
use ts_core::par::{for_each_shard, ShardPlan};
use ts_core::stream::{GroupAcc, Merge, SpanAcc, TopK};
use ts_population::Population;
use ts_scanner::daily::{run_campaign_streaming, CampaignOptions, CampaignSink};
use ts_scanner::Scanner;

use crate::stats::process_cpu_s;
use crate::trace::{Spans, Trace};

/// One shard's campaign state (the benchmark's twin of `exp_campaign`'s
/// private `ShardState`) plus its timing.
struct Shard {
    domains: Vec<String>,
    stek: SpanAcc,
    dhe: SpanAcc,
    ecdhe: SpanAcc,
    hints: BTreeMap<String, (u64, u32)>,
    attempts: u64,
    sightings: u64,
    day_tickets: Vec<(String, String)>,
    day_kex: Vec<(String, String)>,
    trace: Trace,
    op_ns: Vec<u64>,
    shard_day_ns: Vec<u64>,
}

impl Shard {
    fn new(domains: Vec<String>, trace: Trace) -> Self {
        let horizon = Some(EVICTION_HORIZON_DAYS);
        Shard {
            domains,
            stek: SpanAcc::with_horizon(horizon),
            dhe: SpanAcc::with_horizon(horizon),
            ecdhe: SpanAcc::with_horizon(horizon),
            hints: BTreeMap::new(),
            attempts: 0,
            sightings: 0,
            day_tickets: Vec::new(),
            day_kex: Vec::new(),
            trace,
            op_ns: Vec::new(),
            shard_day_ns: Vec::new(),
        }
    }

    fn live_entries(&self) -> usize {
        self.stek.live_pairs() + self.dhe.live_pairs() + self.ecdhe.live_pairs()
    }

    /// Scan this shard's domains for one day, one timed domain-day at a time.
    fn scan_day(&mut self, pop: &Population, day: u64, shard_id: usize) {
        let t0 = Instant::now();
        self.trace.enter("ts_scanner.shard_day");
        let mut scanner = Scanner::new(pop, &format!("daily-campaign-{day}-{shard_id}"));
        let options = CampaignOptions::new().days(day..day + 1);
        let domains = std::mem::take(&mut self.domains);
        for domain in &domains {
            let op0 = Instant::now();
            self.trace.enter("ts_scanner.domain_day");
            self.attempts +=
                run_campaign_streaming(&mut scanner, &options, |_| vec![domain.clone()], self);
            self.trace.exit();
            self.op_ns.push(op0.elapsed().as_nanos() as u64);
        }
        self.domains = domains;
        self.trace.exit();
        self.shard_day_ns.push(t0.elapsed().as_nanos() as u64);
    }
}

impl CampaignSink for Shard {
    fn ticket(&mut self, s: TicketSighting) {
        self.trace.enter("ts_core.stream.ingest");
        self.stek.record(&s.domain, &s.stek_id, s.day);
        let e = self
            .hints
            .entry(s.domain.clone())
            .or_insert((s.day, s.lifetime_hint));
        if s.day >= e.0 {
            *e = (s.day, s.lifetime_hint);
        }
        self.day_tickets.push((s.domain, s.stek_id));
        self.sightings += 1;
        self.trace.exit();
    }

    fn kex(&mut self, s: KexSighting) {
        self.trace.enter("ts_core.stream.ingest");
        match s.kex {
            KexKind::Dhe => self.dhe.record(&s.domain, &s.value_fp, s.day),
            KexKind::Ecdhe => self.ecdhe.record(&s.domain, &s.value_fp, s.day),
        }
        self.day_kex.push((s.domain, s.value_fp));
        self.sightings += 1;
        self.trace.exit();
    }
}

/// What one campaign pass did and how long it took.
pub struct Pass {
    /// The `campaign/v1` document `repro campaign` prints for this config.
    pub columns: Json,
    pub domain_days: u64,
    pub attempts: u64,
    pub sightings: u64,
    pub elapsed_s: f64,
    pub cpu_s: f64,
    /// Wall time of each domain-day (`run_campaign_streaming` call), ns.
    pub op_ns: Vec<u64>,
    /// Wall time of each shard-day, ns.
    pub shard_day_ns: Vec<u64>,
    /// Summed wall time of the days' parallel phases, ns.
    pub day_wall_ns: u64,
    /// Wall and CPU seconds of each day: its scan and its post-barrier drain.
    pub day_s: Vec<f64>,
    pub day_cpu_s: Vec<f64>,
    /// Threads that scanned each day.
    pub workers: usize,
    pub spans: Spans,
}

/// Run the whole campaign once against a fresh population.
pub fn run_pass(ctx: &Context, workers: usize, origin: Instant, traced: bool) -> Pass {
    let mut main = Trace::new(origin, traced);
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    main.enter("harness.campaign");

    main.enter("ts_population.build");
    let pop = ctx.fresh_pop();
    main.exit();

    let days = ctx.config.study_days;
    let domains = &ctx.core_trusted;
    let plan = ShardPlan::for_len(domains.len());
    let mut shards: Vec<Shard> = (0..plan.shard_count())
        .map(|s| Shard::new(domains[plan.range(s)].to_vec(), main.child()))
        .collect();
    let workers = workers.max(1).min(shards.len().max(1));
    let horizon = Some(EVICTION_HORIZON_DAYS);
    let mut stek_group_acc = GroupAcc::with_horizon(horizon);
    let mut dh_group_acc = GroupAcc::with_horizon(horizon);
    let mut peak_live_entries = 0usize;
    let mut day_wall_ns = 0u64;
    let (mut day_s, mut day_cpu_s) = (Vec::new(), Vec::new());
    for day in 0..days {
        let day_cpu0 = process_cpu_s();
        let d0 = Instant::now();
        main.enter("harness.day");
        for_each_shard(&mut shards, workers, |shard_id, shard| {
            shard.scan_day(&pop, day, shard_id)
        });
        main.exit();
        day_wall_ns += d0.elapsed().as_nanos() as u64;

        main.enter("ts_core.stream.advance");
        for shard in &mut shards {
            for (domain, id) in shard.day_tickets.drain(..) {
                stek_group_acc.record(&domain, &id, day);
            }
            for (domain, fp) in shard.day_kex.drain(..) {
                dh_group_acc.record(&domain, &fp, day);
            }
            shard.stek.advance(day);
            shard.dhe.advance(day);
            shard.ecdhe.advance(day);
        }
        stek_group_acc.advance(day);
        dh_group_acc.advance(day);
        main.exit();
        let live: usize = shards.iter().map(Shard::live_entries).sum::<usize>()
            + stek_group_acc.live_ids()
            + dh_group_acc.live_ids();
        peak_live_entries = peak_live_entries.max(live);
        day_s.push(d0.elapsed().as_secs_f64());
        day_cpu_s.push(process_cpu_s() - day_cpu0);
    }

    main.enter("ts_core.stream.merge");
    let mut stek = SpanAcc::with_horizon(horizon);
    let mut dhe = SpanAcc::with_horizon(horizon);
    let mut ecdhe = SpanAcc::with_horizon(horizon);
    let mut hints = BTreeMap::new();
    let (mut attempts, mut sightings) = (0u64, 0u64);
    let mut op_ns = Vec::new();
    let mut shard_day_ns = Vec::new();
    let mut spans = Spans::default();
    for shard in shards {
        stek.merge(shard.stek);
        dhe.merge(shard.dhe);
        ecdhe.merge(shard.ecdhe);
        for (domain, (_day, hint)) in shard.hints {
            hints.insert(domain, hint);
        }
        attempts += shard.attempts;
        sightings += shard.sightings;
        op_ns.extend(shard.op_ns);
        shard_day_ns.extend(shard.shard_day_ns);
        spans.add(shard.trace);
    }
    let evicted_group_ids = stek_group_acc.evicted_ids() + dh_group_acc.evicted_ids();
    let stek_groups = stek_group_acc.service_groups().len();
    let dh_groups = dh_group_acc.service_groups().len();
    let mut top = TopK::new(10);
    for (domain, ds) in stek.domain_spans() {
        top.push(&domain, ds.max_span_days);
    }
    main.exit();
    main.exit();
    let elapsed_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    spans.add(main);

    let domain_days = domains.len() as u64 * days;
    let top_reusers = top
        .into_vec()
        .into_iter()
        .map(|(domain, span)| {
            Json::obj(vec![
                ("domain", Json::str(domain)),
                ("span_days", Json::uint(span)),
            ])
        })
        .collect();
    // Field for field the document `repro campaign` prints.
    let columns = Json::obj(vec![
        ("schema", Json::str("campaign/v1")),
        ("size", Json::uint(ctx.config.size as u64)),
        ("seed", Json::uint(ctx.config.seed)),
        ("days", Json::uint(days)),
        ("shards", Json::uint(plan.shard_count() as u64)),
        ("domains", Json::uint(domains.len() as u64)),
        ("domain_days", Json::uint(domain_days)),
        ("attempts", Json::uint(attempts)),
        ("stek_pairs", Json::uint(stek.pair_count() as u64)),
        ("dhe_pairs", Json::uint(dhe.pair_count() as u64)),
        ("ecdhe_pairs", Json::uint(ecdhe.pair_count() as u64)),
        ("stek_groups", Json::uint(stek_groups as u64)),
        ("dh_groups", Json::uint(dh_groups as u64)),
        ("hinted_domains", Json::uint(hints.len() as u64)),
        ("peak_live_entries", Json::uint(peak_live_entries as u64)),
        ("evicted_group_ids", Json::uint(evicted_group_ids)),
        ("top_stek_reusers", Json::Array(top_reusers)),
    ]);
    Pass {
        columns,
        domain_days,
        attempts,
        sightings,
        elapsed_s,
        cpu_s,
        op_ns,
        shard_day_ns,
        day_wall_ns,
        day_s,
        day_cpu_s,
        workers,
        spans,
    }
}
