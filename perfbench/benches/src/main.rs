//! `perfbench` — runs one benchmark workload in this process and prints
//! one JSON line: its checks, its end-to-end metrics and, on a traced run,
//! its per-layer metrics. `perfbench/run.py` builds this program, runs each
//! workload in a process of its own and prints the result.
//!
//! ```text
//! perfbench --workload campaign|resume|bulk --seed N --seconds S --trace 0|1
//!           [--size N] [--days D] [--round R] [--trace-out PATH] [--fault NAME]
//! ```
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; see `campaign.rs`, `fleet.rs` and `probe.rs`.

mod campaign;
mod fleet;
mod probe;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;
use ts_bench::Context;
use ts_core::json::Json;
use ts_population::PopulationConfig;
use ts_telemetry::Snapshot;

use stats::{median, nproc, peak_rss_kb, percentile, process_cpu_s, Latency};
use trace::Spans;

/// Set-ups per run; `setup_s` is their median. A population takes
/// about half a second to build, a fleet a few tens of milliseconds.
const CAMPAIGN_SETUPS: usize = 3;
const FLEET_SETUPS: usize = 9;

/// Faults the self-test injects to prove that a failed check fails the run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// Report one more campaign attempt than was made.
    Columns,
    /// Expect a different echo than the one sent.
    Echo,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: usize,
    days: u64,
    round: usize,
    trace_out: Option<PathBuf>,
    fault: Fault,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: 400,
        days: 24,
        round: 500,
        trace_out: None,
        fault: Fault::None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| bad(flag))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| bad(flag))?,
            "--trace" => a.trace = value()? == "1",
            "--size" => a.size = value()?.parse().map_err(|_| bad(flag))?,
            "--days" => a.days = value()?.parse().map_err(|_| bad(flag))?,
            "--round" => a.round = value()?.parse().map_err(|_| bad(flag))?,
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            "--fault" => {
                a.fault = match value()?.as_str() {
                    "columns" => Fault::Columns,
                    "echo" => Fault::Echo,
                    v => return Err(bad(v)),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !matches!(a.workload.as_str(), "campaign" | "resume" | "bulk") {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if a.round == 0 || !a.round.is_multiple_of(100) {
        return Err("--round must be a positive multiple of 100".into());
    }
    if a.seconds <= 0.0 || a.size == 0 || a.days == 0 {
        return Err("--seconds, --size and --days must be positive".into());
    }
    Ok(a)
}

/// A named value with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> Json {
        Json::Object(
            self.0
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj(vec![
                            ("value", Json::Float(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// A correctness check and its outcome.
struct Check {
    name: String,
    ok: bool,
    detail: String,
}

/// Everything one run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    end_to_end: Metrics,
    report: Vec<(&'static str, Json)>,
    per_layer: Metrics,
    columns: Option<Json>,
    spans: Spans,
}

impl Outcome {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }
}

/// How long each measured phase runs. A traced run has two short phases,
/// untraced then traced, so that its spans stay under about a million.
/// A campaign phase is at least one whole pass.
fn phase_seconds(a: &Args) -> f64 {
    if a.trace {
        (a.seconds / 10.0).clamp(0.5, 1.0)
    } else {
        a.seconds
    }
}

/// Requests per second one client is assumed never to exceed, for
/// reserving its latency samples up front.
const MAX_OPS_PER_CLIENT: f64 = 200_000.0;

/// Run `f` until `seconds` have passed, at least once.
fn repeat<T>(seconds: f64, mut f: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

/// Median wall seconds of `n` set-ups, and the last thing set up.
/// `f` gets how many set-ups are still to come after this one.
fn timed_setup<T>(n: usize, mut f: impl FnMut(usize) -> T) -> (f64, T) {
    let mut secs = Vec::new();
    let mut last = None;
    for k in (0..n).rev() {
        let t0 = Instant::now();
        last = Some(f(k));
        secs.push(t0.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one set-up"))
}

fn delta(before: &Snapshot, after: &Snapshot, counter: &str) -> f64 {
    (after.counter(counter) - before.counter(counter)) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50(ns: &[u64]) -> f64 {
    let mut v = ns.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        0.0
    } else {
        percentile(&v, 50.0)
    }
}

/// Self time of every layer span (`ts_*`) as a share of `cpu_s` left over.
fn unattributed_pct(spans: &Spans, cpu_s: f64) -> f64 {
    let layer_ns: u64 = spans
        .totals()
        .iter()
        .filter(|(name, _)| name.starts_with("ts_"))
        .map(|(_, t)| t.self_ns)
        .sum();
    100.0 * (cpu_s - layer_ns as f64 / 1e9) / cpu_s
}

/// The `campaign/v1` fields in which `passes` differ from `first`, as
/// "; pass N: field a -> b" items (empty when every pass agrees).
fn column_diffs(first: &Json, passes: &[campaign::Pass]) -> String {
    let Json::Object(want) = first else {
        return "; columns are not an object".into();
    };
    let mut out = String::new();
    for (i, pass) in passes.iter().enumerate() {
        for (field, value) in want {
            let got = pass.columns.get(field);
            if got.map(Json::to_json_string) != Some(value.to_json_string()) {
                let got = got.map_or("missing".into(), Json::to_json_string);
                out += &format!(
                    "; pass {}: {field} {} -> {got}",
                    i + 1,
                    value.to_json_string()
                );
            }
        }
    }
    out
}

fn column(pass: &campaign::Pass, name: &str) -> f64 {
    pass.columns
        .get(name)
        .and_then(|v| v.as_u64().ok())
        .expect("campaign/v1 count column") as f64
}

/// Per-layer numbers of a traced campaign (the workload's or a probe's).
struct CampaignLayers {
    passes: f64,
    build_s: f64,
    builds: f64,
    shard_day_ms_p50: f64,
    shard_day_ms_max: f64,
    day_idle_pct: f64,
    ingest_ns: f64,
    ingest_calls: f64,
    advance_ms: f64,
    merge_ms: f64,
    attempts: f64,
    sightings: f64,
    peak_live_entries: f64,
    evicted_group_ids: f64,
}

impl CampaignLayers {
    fn of(passes: &[campaign::Pass], spans: &Spans) -> CampaignLayers {
        let n = passes.len() as f64;
        let totals = spans.totals();
        let total = |name: &str| totals.get(name).copied().unwrap_or_default();
        let shard_days: Vec<u64> = passes.iter().flat_map(|p| p.shard_day_ns.clone()).collect();
        let busy: u64 = shard_days.iter().sum();
        let capacity: f64 = passes
            .iter()
            .map(|p| p.workers as f64 * p.day_wall_ns as f64)
            .sum();
        let builds: Vec<f64> = spans
            .durations("ts_population.build")
            .iter()
            .map(|&ns| ns as f64 / 1e9)
            .collect();
        let ingest = total("ts_core.stream.ingest");
        CampaignLayers {
            passes: n,
            build_s: median(&builds),
            // The context's own build, then one fresh build per pass.
            builds: 1.0 + builds.len() as f64 / n,
            shard_day_ms_p50: p50(&shard_days) / 1e6,
            shard_day_ms_max: shard_days.iter().copied().max().unwrap_or(0) as f64 / 1e6,
            day_idle_pct: 100.0 * (1.0 - ratio(busy as f64, capacity)),
            ingest_ns: ratio(ingest.total_ns as f64, ingest.count as f64),
            ingest_calls: ingest.count as f64 / n,
            advance_ms: total("ts_core.stream.advance").total_ns as f64 / n / 1e6,
            merge_ms: total("ts_core.stream.merge").total_ns as f64 / n / 1e6,
            attempts: passes.iter().map(|p| p.attempts as f64).sum::<f64>() / n,
            sightings: passes.iter().map(|p| p.sightings as f64).sum::<f64>() / n,
            peak_live_entries: column(&passes[0], "peak_live_entries"),
            evicted_group_ids: column(&passes[0], "evicted_group_ids"),
        }
    }
}

/// Per-layer numbers of traced fleet rounds (the workload's or a probe's).
struct FleetLayers {
    client_full_us: f64,
    server_full_us: f64,
    client_resumed_us: f64,
    server_resumed_us: f64,
    full: f64,
    resumed_sid: f64,
    resumed_ticket: f64,
    hit_ratio: f64,
    wire_per_app: f64,
}

impl FleetLayers {
    fn of(t: &fleet::Tally, rounds: f64) -> FleetLayers {
        FleetLayers {
            client_full_us: p50(&t.client_full_ns) / 1e3,
            server_full_us: p50(&t.server_full_ns) / 1e3,
            client_resumed_us: p50(&t.client_resumed_ns) / 1e3,
            server_resumed_us: p50(&t.server_resumed_ns) / 1e3,
            full: t.full as f64 / rounds,
            resumed_sid: t.resumed_sid as f64 / rounds,
            resumed_ticket: t.resumed_ticket as f64 / rounds,
            hit_ratio: ratio((t.resumed_sid + t.resumed_ticket) as f64, t.offers as f64),
            wire_per_app: ratio(t.wire_bytes as f64, t.app_bytes as f64),
        }
    }
}

/// Which pass each group of per-layer metrics comes from. Work counts
/// always describe the workload (0 for a layer it does not cross); unit
/// costs come from the workload where it crosses the layer and from a
/// probe otherwise.
struct LayerInputs<'a> {
    /// Work units (campaign passes or fleet rounds) in the traced phase.
    units: f64,
    camp: &'a CampaignLayers,
    fleet: &'a FleetLayers,
    /// The workload is the campaign (else a fleet workload).
    camp_is_workload: bool,
    /// Counters over the traced phase of the workload.
    before: &'a Snapshot,
    after: &'a Snapshot,
    crypto: probe::CryptoUnits,
    net: probe::NetUnits,
    counter_inc_ns: f64,
    counter_inc_contended_ns: f64,
    worker_busy_pct: f64,
    unattributed_pct: f64,
    trace_overhead_pct: f64,
}

fn layer_metrics(i: LayerInputs) -> Metrics {
    let mut m = Metrics::default();
    let d = |name: &str| delta(i.before, i.after, name);
    let per_unit = |name: &str| d(name) / i.units;
    let (c, f) = (i.camp, i.fleet);
    let camp_count = |v: f64| if i.camp_is_workload { v } else { 0.0 };

    m.put("ts_population.build_s", c.build_s, "s");
    m.put("ts_population.builds", camp_count(c.builds), "count");

    m.put("ts_crypto.modexp_us", i.crypto.modexp_us, "us");
    m.put(
        "ts_crypto.modexps",
        per_unit("crypto.modexp.total"),
        "count",
    );
    m.put(
        "ts_crypto.mont_cache_hit_ratio",
        ratio(d("crypto.mont.cache.hit"), d("crypto.modexp.total")),
        "ratio",
    );
    m.put("ts_crypto.x25519_us", i.crypto.x25519_us, "us");
    m.put("ts_crypto.rsa_sign_us", i.crypto.rsa_sign_us, "us");
    m.put("ts_crypto.rsa_verify_us", i.crypto.rsa_verify_us, "us");
    m.put(
        "ts_crypto.aes128gcm_mb_per_s",
        i.crypto.aes128gcm_mb_per_s,
        "MB/s",
    );
    m.put(
        "ts_crypto.sha256_mb_per_s",
        i.crypto.sha256_mb_per_s,
        "MB/s",
    );

    m.put("ts_tls.client_half_us.full", f.client_full_us, "us");
    m.put("ts_tls.server_half_us.full", f.server_full_us, "us");
    m.put("ts_tls.client_half_us.resumed", f.client_resumed_us, "us");
    m.put("ts_tls.server_half_us.resumed", f.server_resumed_us, "us");
    let (full, sid, ticket, hit_ratio, wire) = if !i.camp_is_workload {
        (
            f.full,
            f.resumed_sid,
            f.resumed_ticket,
            f.hit_ratio,
            f.wire_per_app,
        )
    } else {
        // The campaign's handshakes, counted by the servers it scanned.
        let sid_hit = d("tls.server.resume.session_id.hit");
        let ticket_hit = d("tls.server.resume.ticket.hit");
        let tries = sid_hit
            + ticket_hit
            + d("tls.server.resume.session_id.miss")
            + d("tls.server.resume.ticket.miss");
        (
            per_unit("tls.server.handshake.full"),
            sid_hit / i.units,
            ticket_hit / i.units,
            ratio(sid_hit + ticket_hit, tries),
            0.0,
        )
    };
    m.put("ts_tls.handshakes.full", full, "count");
    m.put("ts_tls.handshakes.resumed_sid", sid, "count");
    m.put("ts_tls.handshakes.resumed_ticket", ticket, "count");
    m.put("ts_tls.resume_hit_ratio", hit_ratio, "ratio");
    m.put(
        "ts_tls.tickets_issued",
        per_unit("tls.server.ticket.issued"),
        "count",
    );
    m.put(
        "ts_tls.stek_rotations",
        per_unit("tls.stek.rotations"),
        "count",
    );
    m.put("ts_tls.wire_bytes_per_app_byte", wire, "B/B");

    m.put("ts_simnet.dns_resolve_ns", i.net.dns_resolve_ns, "ns");
    m.put("ts_simnet.connect_us", i.net.connect_us, "us");
    let connects = d("simnet.connect.attempts");
    m.put(
        "ts_simnet.connect_failed_pct",
        100.0 * ratio(connects - d("simnet.connect.ok"), connects),
        "%",
    );

    m.put("ts_scanner.grab_us.p50", i.net.grab_p50_us, "us");
    m.put("ts_scanner.grab_us.p99", i.net.grab_p99_us, "us");
    m.put("ts_scanner.attempts", camp_count(c.attempts), "count");
    m.put(
        "ts_scanner.retries",
        per_unit("scanner.grab.retries"),
        "count",
    );
    m.put(
        "ts_scanner.sighting_ratio",
        camp_count(ratio(c.sightings, c.attempts)),
        "ratio",
    );
    m.put("ts_scanner.shard_day_ms.p50", c.shard_day_ms_p50, "ms");
    m.put("ts_scanner.shard_day_ms.max", c.shard_day_ms_max, "ms");

    m.put("ts_core.par.day_idle_pct", c.day_idle_pct, "%");
    m.put("ts_core.stream.ingest_ns", c.ingest_ns, "ns");
    m.put(
        "ts_core.stream.ingest_calls",
        camp_count(c.ingest_calls),
        "count",
    );
    m.put("ts_core.stream.advance_ms", c.advance_ms, "ms");
    m.put("ts_core.stream.merge_ms", c.merge_ms, "ms");
    m.put(
        "ts_core.stream.peak_live_entries",
        camp_count(c.peak_live_entries),
        "count",
    );
    m.put(
        "ts_core.stream.evicted_group_ids",
        camp_count(c.evicted_group_ids),
        "count",
    );

    m.put("ts_telemetry.counter_inc_ns", i.counter_inc_ns, "ns");
    m.put(
        "ts_telemetry.counter_inc_ns.contended",
        i.counter_inc_contended_ns,
        "ns",
    );

    m.put("ts_loadgen.worker_busy_pct", i.worker_busy_pct, "%");
    m.put("unattributed_pct", i.unattributed_pct, "%");
    m.put("trace_overhead_pct", i.trace_overhead_pct, "%");
    m
}

/// Wall and CPU seconds of a typical campaign pass: the median day times
/// the number of days, plus the median of what each pass spends outside
/// its days (the fresh population build and the final merge). Medians
/// over days keep a burst of interference from other processes on the
/// host from moving the result, where a pass total would absorb it.
fn typical_pass(passes: &[campaign::Pass]) -> (f64, f64) {
    let days = passes[0].day_s.len() as f64;
    let all = |f: fn(&campaign::Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let outside = |total: fn(&campaign::Pass) -> f64, f: fn(&campaign::Pass) -> &Vec<f64>| {
        median(
            &passes
                .iter()
                .map(|p| total(p) - f(p).iter().sum::<f64>())
                .collect::<Vec<f64>>(),
        )
    };
    let wall = median(&all(|p| &p.day_s)) * days + outside(|p| p.elapsed_s, |p| &p.day_s);
    let cpu = median(&all(|p| &p.day_cpu_s)) * days + outside(|p| p.cpu_s, |p| &p.day_cpu_s);
    (wall, cpu)
}

fn campaign_config(seed: u64, size: usize, days: u64) -> PopulationConfig {
    let mut cfg = PopulationConfig::new(seed, size);
    cfg.study_days = days;
    cfg
}

/// The whole campaign, traced, at a size small enough to serve as the
/// probe of the campaign layers for the other workloads.
fn campaign_probe(seed: u64, workers: usize, origin: Instant) -> (CampaignLayers, probe::NetUnits) {
    const SIZE: usize = 150;
    const DAYS: u64 = 2;
    let ctx = Context::from_config(campaign_config(seed, SIZE, DAYS));
    let mut pass = campaign::run_pass(&ctx, workers, origin, true);
    let spans = std::mem::take(&mut pass.spans);
    let layers = CampaignLayers::of(&[pass], &spans);
    let net = probe::net(&ctx.pop, &ctx.core_trusted, DAYS);
    (layers, net)
}

fn run_campaign(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let workers = nproc();
    let cfg = campaign_config(a.seed, a.size, a.days);
    let (setup_s, ctx) = timed_setup(CAMPAIGN_SETUPS, |_| Context::from_config(cfg.clone()));
    let origin = Instant::now();
    let seconds = phase_seconds(a);

    let before = ts_telemetry::snapshot();
    let mut peaks = Vec::new();
    let passes = repeat(seconds, || {
        stats::reset_peak_rss();
        let pass = campaign::run_pass(&ctx, workers, origin, false);
        peaks.push(peak_rss_kb() as f64);
        pass
    });
    let after = ts_telemetry::snapshot();
    let peak_rss = median(&peaks);

    let mut columns = passes[0].columns.clone();
    if a.fault == Fault::Columns {
        if let Json::Object(fields) = &mut columns {
            for (k, v) in fields.iter_mut() {
                if k == "attempts" {
                    *v = Json::uint(v.as_u64().expect("attempts is a count") + 1);
                }
            }
        }
    }
    let first = &passes[0].columns;
    let diffs = column_diffs(first, &passes[1..]);
    out.check(
        "campaign.columns_repeat_across_passes",
        diffs.is_empty(),
        format!("{} passes{}", passes.len(), diffs),
    );

    let domain_days: u64 = passes.iter().map(|p| p.domain_days).sum();
    let attempts: u64 = passes.iter().map(|p| p.attempts).sum();
    let elapsed: f64 = passes.iter().map(|p| p.elapsed_s).sum();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.domain_days as f64 / p.elapsed_s)
        .collect();
    let (typical_s, typical_cpu_s) = typical_pass(&passes);
    let per_pass = passes[0].domain_days as f64;
    let completed = delta(&before, &after, "scanner.grab.ok");
    let lat = Latency::of(passes.iter().flat_map(|p| p.op_ns.clone()).collect());
    // Each pass's exact percentiles (thousands of domain-days, so p99 has
    // dozens of samples beyond it), then the median over passes: a pass
    // that a burst of interference from other processes on the host
    // slowed does not move the result.
    let pass_lat: Vec<Latency> = passes
        .iter()
        .map(|p| Latency::of(p.op_ns.clone()))
        .collect();
    let pass_p50: Vec<f64> = pass_lat.iter().map(|l| l.p50_us).collect();
    let pass_p99: Vec<f64> = pass_lat.iter().map(|l| l.p99_us).collect();
    out.attempted = domain_days;

    out.end_to_end.put("setup_s", setup_s, "s");
    out.end_to_end.put("ops_per_s", per_pass / typical_s, "1/s");
    out.end_to_end.put("op_p50_us", median(&pass_p50), "us");
    out.end_to_end.put("op_p99_us", median(&pass_p99), "us");
    out.end_to_end
        .put("cpu_us_per_op", typical_cpu_s / per_pass * 1e6, "us");
    out.end_to_end.put("peak_rss_kb", peak_rss, "kB");
    out.report = vec![
        (
            "op",
            Json::str("domain-day: three grabs of one domain on one day"),
        ),
        ("passes", Json::uint(passes.len() as u64)),
        (
            "pass_domain_days_per_s",
            Json::Array(rates.iter().map(|&r| Json::Float(r)).collect()),
        ),
        ("domain_days_per_s", Json::Float(per_pass / typical_s)),
        ("typical_pass_s", Json::Float(typical_s)),
        ("handshakes_per_s", Json::Float(completed / elapsed)),
        ("domain_day_latency", lat.to_json()),
        (
            "pass_p50_us",
            Json::Array(pass_p50.iter().map(|&v| Json::Float(v)).collect()),
        ),
        (
            "pass_p99_us",
            Json::Array(pass_p99.iter().map(|&v| Json::Float(v)).collect()),
        ),
        (
            "failed_pct",
            Json::Float(100.0 * (attempts as f64 - completed) / attempts as f64),
        ),
        ("grab_attempts", Json::uint(attempts)),
        ("grabs_completed", Json::uint(completed as u64)),
    ];
    out.columns = Some(columns);

    if a.trace {
        let busy: u64 = passes.iter().flat_map(|p| p.shard_day_ns.iter()).sum();
        let worker_busy_pct = 100.0 * busy as f64 / (workers as f64 * elapsed * 1e9);
        let before = ts_telemetry::snapshot();
        let mut traced = repeat(seconds, || campaign::run_pass(&ctx, workers, origin, true));
        let after = ts_telemetry::snapshot();
        let diffs = column_diffs(first, &traced);
        out.check(
            "campaign.traced_columns_equal_untraced",
            diffs.is_empty(),
            format!("{} traced passes{}", traced.len(), diffs),
        );
        let t_cpu: f64 = traced.iter().map(|p| p.cpu_s).sum();
        let mut spans = Spans::default();
        for p in &mut traced {
            spans.extend(std::mem::take(&mut p.spans));
        }
        let camp = CampaignLayers::of(&traced, &spans);
        let unattributed = unattributed_pct(&spans, t_cpu);

        let fcfg = fleet::config(a.seed, workers, 500, false);
        let fl = ts_loadgen::build_fleet(&fcfg);
        let mut tally = fleet::Tally::default();
        for client in fleet::run_clients(&fl, &fcfg, origin, true, false, 0.0, 0.0) {
            tally.absorb(client.tally);
        }
        let fleet_layers = FleetLayers::of(&tally, 1.0);

        let net = probe::net(&ctx.pop, &ctx.core_trusted, a.days);
        out.per_layer = layer_metrics(LayerInputs {
            units: camp.passes,
            camp: &camp,
            fleet: &fleet_layers,
            camp_is_workload: true,
            before: &before,
            after: &after,
            crypto: probe::crypto(a.seed),
            net,
            counter_inc_ns: probe::counter_inc_ns(1),
            counter_inc_contended_ns: probe::counter_inc_ns(workers),
            worker_busy_pct,
            unattributed_pct: unattributed,
            trace_overhead_pct: 100.0 * (typical_pass(&traced).0 / typical_s - 1.0),
        });
        out.spans = spans;
    }
    out
}

/// One measured phase of the fleet workloads.
struct Phase {
    /// Loadgen runs' worth of client rounds.
    runs: f64,
    total: fleet::Tally,
    elapsed: f64,
    cpu: f64,
    spans: Spans,
    before: Snapshot,
    after: Snapshot,
    peak_kb: f64,
    typical_ops_per_s: f64,
    typical_cpu_s_per_op: f64,
}

fn run_fleet(a: &Args, bulk: bool) -> Outcome {
    let mut out = Outcome::default();
    let workers = nproc();
    let cfg = fleet::config(a.seed, workers, a.round, bulk);
    // Key generation time depends on where the primes fall, so the fleets
    // timed come from neighbouring seeds; the last one, the run's own
    // seed, is the fleet the workload uses.
    let (setup_s, fl) = timed_setup(FLEET_SETUPS, |k| {
        ts_loadgen::build_fleet(&fleet::config(
            a.seed.wrapping_add(k as u64),
            workers,
            a.round,
            bulk,
        ))
    });
    // The reference: ts_loadgen's own run of one round's profile.
    let t0 = Instant::now();
    let clock = move || t0.elapsed().as_nanos() as u64;
    let reference = ts_loadgen::run(&cfg, &clock);

    let origin = Instant::now();
    let seconds = phase_seconds(a);
    // Each client's round must count its share of the reference run.
    let workers_u = workers as u64;
    let want: fleet::RoundCounts = [
        reference.work.full,
        reference.work.resume_session_id,
        reference.work.resume_ticket,
        reference.bulk.transfers,
        reference.bulk.app_bytes,
    ];
    let share_ok = want.iter().all(|v| v % workers_u == 0);
    let corrupt_echo = a.fault == Fault::Echo;
    let run_phase = |traced: bool, out: &mut Outcome| {
        let cpu0 = process_cpu_s();
        let before = ts_telemetry::snapshot();
        stats::reset_peak_rss();
        let t0 = Instant::now();
        let clients = fleet::run_clients(
            &fl,
            &cfg,
            origin,
            traced,
            corrupt_echo,
            seconds,
            MAX_OPS_PER_CLIENT,
        );
        let elapsed = t0.elapsed().as_secs_f64();
        // The workload's peak, less the latency samples the clients hold.
        let samples: usize = clients.iter().map(|c| fleet::sample_bytes(&c.tally)).sum();
        let peak_kb = peak_rss_kb() as f64 - samples as f64 / 1024.0;
        let after = ts_telemetry::snapshot();
        let cpu = process_cpu_s() - cpu0;
        let mut total = fleet::Tally::default();
        let mut spans = Spans::default();
        let (mut rounds, mut mismatched) = (0u64, 0u64);
        // A typical window: each client's median request rate, summed over
        // the clients, and the median on-CPU time per request over all
        // windows. Medians keep a burst of interference from other
        // processes on the host from moving the result, where a phase
        // total would absorb it.
        let typical_ops_per_s: f64 = clients.iter().map(|c| median(&c.window_ops_per_s)).sum();
        let cpu_per_op: Vec<f64> = clients
            .iter()
            .flat_map(|c| c.window_cpu_s_per_op.iter().copied())
            .collect();
        let typical_cpu_s_per_op = median(&cpu_per_op);
        for c in clients {
            rounds += c.rounds.len() as u64;
            mismatched += c
                .rounds
                .iter()
                .filter(|r| !share_ok || r.iter().zip(&want).any(|(&got, &w)| got * workers_u != w))
                .count() as u64;
            total.absorb(c.tally);
            spans.add(c.trace);
        }
        out.check(
            if traced {
                "fleet.traced_rounds_count_loadgen_share"
            } else {
                "fleet.rounds_count_loadgen_share"
            },
            mismatched == 0,
            format!(
                "{mismatched} of {rounds} client rounds differ from 1/{workers} of \
                 ts_loadgen::run (full {}, session-id {}, ticket {}, echoes {}, app bytes {})",
                want[0], want[1], want[2], want[3], want[4]
            ),
        );
        out.attempted += rounds * cfg.requests_per_worker as u64;
        out.failed += total.failed + mismatched;
        // Work units: client rounds, per loadgen run of `workers` clients.
        let runs = rounds as f64 / workers as f64;
        Phase {
            runs,
            total,
            elapsed,
            cpu,
            spans,
            before,
            after,
            peak_kb,
            typical_ops_per_s,
            typical_cpu_s_per_op,
        }
    };

    let Phase {
        runs: rounds,
        total,
        elapsed,
        peak_kb: peak_rss,
        typical_ops_per_s: ops_per_s,
        typical_cpu_s_per_op,
        ..
    } = run_phase(false, &mut out);
    out.check(
        "fleet.every_operation_succeeded",
        total.failed == 0,
        total
            .first_failure
            .clone()
            .unwrap_or_else(|| "every scheduled resumption resumed; every echo came back".into()),
    );
    let widen = |ns: &[u32]| ns.iter().map(|&v| u64::from(v)).collect::<Vec<u64>>();
    let op = Latency::of(widen(&total.op_ns));
    let hs = if bulk {
        Latency::of(widen(&total.handshake_ns))
    } else {
        Latency::of(widen(&total.op_ns))
    };
    out.end_to_end.put("setup_s", setup_s, "s");
    out.end_to_end.put("ops_per_s", ops_per_s, "1/s");
    out.end_to_end.put("op_p50_us", op.p50_us, "us");
    out.end_to_end.put("op_p99_us", op.p99_us, "us");
    out.end_to_end
        .put("cpu_us_per_op", typical_cpu_s_per_op * 1e6, "us");
    out.end_to_end.put("peak_rss_kb", peak_rss, "kB");
    out.report = vec![
        (
            "op",
            Json::str(if bulk {
                "request: a handshake, then a 40,000-byte echo"
            } else {
                "request: a handshake"
            }),
        ),
        ("clients", Json::uint(workers as u64)),
        ("loadgen_runs", Json::Float(rounds)),
        ("handshakes_per_s", Json::Float(ops_per_s)),
        (
            "handshakes_per_s_whole_phase",
            Json::Float(total.handshakes() as f64 / elapsed),
        ),
        ("handshake_latency", hs.to_json()),
        ("request_latency", op.to_json()),
        (
            "app_mb_per_s",
            Json::Float(ops_per_s * total.app_bytes as f64 / total.handshakes() as f64 / 1e6),
        ),
        (
            "failed_pct",
            Json::Float(100.0 * out.failed as f64 / out.attempted as f64),
        ),
    ];

    if a.trace {
        let worker_busy_pct = 100.0 * total.busy_ns as f64 / (workers as f64 * elapsed * 1e9);
        let Phase {
            runs: t_rounds,
            total: t_total,
            typical_ops_per_s: traced_ops_per_s,
            cpu: t_cpu,
            spans,
            before,
            after,
            ..
        } = run_phase(true, &mut out);
        let fleet_layers = FleetLayers::of(&t_total, t_rounds);
        let (camp, net) = campaign_probe(a.seed, workers, origin);
        out.per_layer = layer_metrics(LayerInputs {
            units: t_rounds,
            camp: &camp,
            fleet: &fleet_layers,
            camp_is_workload: false,
            before: &before,
            after: &after,
            crypto: probe::crypto(a.seed),
            net,
            counter_inc_ns: probe::counter_inc_ns(1),
            counter_inc_contended_ns: probe::counter_inc_ns(workers),
            worker_busy_pct,
            unattributed_pct: unattributed_pct(&spans, t_cpu),
            trace_overhead_pct: 100.0 * (ops_per_s / traced_ops_per_s - 1.0),
        });
        out.spans = spans;
    }
    out
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match a.workload.as_str() {
        "campaign" => run_campaign(&a),
        "resume" => run_fleet(&a, false),
        _ => run_fleet(&a, true),
    };
    let failed_checks = out.checks.iter().filter(|c| !c.ok).count() as u64;
    out.failed += failed_checks;
    let mut doc = vec![
        ("schema", Json::str("perfbench-run/v1")),
        ("workload", Json::str(a.workload.clone())),
        ("seed", Json::uint(a.seed)),
        ("seconds", Json::Float(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("host", stats::host()),
        ("attempted", Json::uint(out.attempted)),
        ("failed", Json::uint(out.failed)),
        (
            "checks",
            Json::Array(
                out.checks
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("name", Json::str(c.name.clone())),
                            ("ok", Json::Bool(c.ok)),
                            ("detail", Json::str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", out.end_to_end.to_json()),
        ("report", Json::obj(std::mem::take(&mut out.report))),
    ];
    if a.trace {
        doc.push(("per_layer", out.per_layer.to_json()));
        doc.push(("spans", Json::uint(out.spans.len() as u64)));
    }
    if let Some(columns) = out.columns.take() {
        doc.push(("campaign_v1", columns));
    }
    if let (true, Some(path)) = (a.trace, &a.trace_out) {
        if let Err(e) = out.spans.write_tsv(path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
        doc.push(("trace_file", Json::str(path.display().to_string())));
    }
    println!("{}", Json::obj(doc).to_json_string());
}
