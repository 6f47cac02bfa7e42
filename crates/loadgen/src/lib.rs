//! # ts-loadgen — a handshake load generator for the sans-I/O stack
//!
//! `repro loadgen` runs N worker threads hammering a simulated server
//! fleet (one CA, M leaf identities, **one shared session cache and one
//! shared STEK manager** — a §5 "service group") with a configurable mix
//! of full handshakes, session-ID resumptions, and ticket resumptions.
//! Every connection is driven through the poll-based connection API
//! ([`ts_tls::ConnectionCommon::read_tls`] / `write_tls` /
//! `process_new_packets`), so the harness doubles as a stress test of the
//! sharded cache and the epoch-pinned STEK snapshot under real thread
//! contention.
//!
//! ## Determinism contract
//!
//! The *work counts* (handshakes per kind, cache hits, tickets issued) are
//! a pure function of `(seed, workers, targets, requests_per_worker, mix)`
//! and independent of thread scheduling:
//!
//! * virtual time is pinned, so nothing expires, rotates, or is evicted;
//! * each worker resumes only sessions it established itself, so a hit
//!   can never depend on another worker's progress;
//! * the mix schedule is positional (`i % 100` against the percentages),
//!   not sampled.
//!
//! Wall-clock latencies go to a *wall-flagged* histogram
//! ([`ts_telemetry::Histogram::new_wall`]), which the deterministic
//! telemetry form drops — so `--telemetry-json` output stays byte-identical
//! across same-seed runs at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPrivateKey;
use ts_telemetry::{Counter, Histogram};
use ts_tls::cache::SharedSessionCache;
use ts_tls::config::{ClientConfig, ServerConfig, ServerIdentity};
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::pump::{pump, pump_app_data};
use ts_tls::server::ResumeKind;
use ts_tls::session::SessionState;
use ts_tls::ticket::{RotationPolicy, SharedStekManager, StekManager, TicketFormat};
use ts_tls::{ClientConn, ServerConn};
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

static LG_OK: Counter = Counter::new("loadgen.handshake.ok");
static LG_FULL: Counter = Counter::new("loadgen.handshake.full");
static LG_RESUME_SID: Counter = Counter::new("loadgen.resume.session_id");
static LG_RESUME_TICKET: Counter = Counter::new("loadgen.resume.ticket");
static LG_BULK_TRANSFERS: Counter = Counter::new("loadgen.bulk.transfers");
static LG_BULK_BYTES: Counter = Counter::new("loadgen.bulk.app_bytes");
/// Wall-clock handshake latency in microseconds. Excluded from the
/// deterministic telemetry form (see `Histogram::new_wall`).
static LG_LATENCY_US: Histogram = Histogram::new_wall(
    "loadgen.handshake_us",
    &[
        50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
        1_000_000,
    ],
);

/// The fixed virtual time every connection handshakes at: nothing ages,
/// so cache entries never expire and STEKs never rotate mid-run.
const VIRTUAL_NOW: u64 = 100;

/// Resumption mix as percentages of the request schedule (must sum to
/// 100). A resumption slot with nothing stashed yet falls back to a full
/// handshake — still deterministically, since the schedule is positional.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Full handshakes per 100 requests.
    pub full_pct: u8,
    /// Session-ID resumptions per 100 requests.
    pub session_id_pct: u8,
    /// Ticket resumptions per 100 requests.
    pub ticket_pct: u8,
}

impl Mix {
    /// The paper-motivated default: resumption-heavy (10/45/45).
    pub const RESUMPTION_HEAVY: Mix = Mix {
        full_pct: 10,
        session_id_pct: 45,
        ticket_pct: 45,
    };
}

/// Load-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Worker threads.
    pub workers: usize,
    /// Distinct server identities in the fleet (all sharing one session
    /// cache and one STEK manager).
    pub targets: usize,
    /// Requests each worker performs.
    pub requests_per_worker: usize,
    /// Request mix.
    pub mix: Mix,
    /// Seed for all derived randomness.
    pub seed: u64,
    /// Percentage of requests (positional, like the mix schedule) that
    /// additionally transfer application data through the negotiated
    /// record protection after the handshake: client sends
    /// [`LoadgenConfig::bulk_bytes`], server echoes them back. 0 disables
    /// bulk transfer entirely, leaving the handshake-only profile (and
    /// its CI-pinned work counts) untouched.
    pub bulk_pct: u8,
    /// Application bytes per direction of each bulk transfer.
    pub bulk_bytes: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            workers: 1,
            targets: 4,
            requests_per_worker: 200,
            mix: Mix::RESUMPTION_HEAVY,
            seed: 2016,
            bulk_pct: 0,
            bulk_bytes: 16_384,
        }
    }
}

/// Deterministic work performed by a run — a pure function of the config,
/// asserted byte-for-byte by the CI smoke job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounts {
    /// Total successful handshakes.
    pub handshakes: u64,
    /// Full handshakes (including resumption-slot fallbacks).
    pub full: u64,
    /// Session-ID cache resumptions.
    pub resume_session_id: u64,
    /// Ticket resumptions.
    pub resume_ticket: u64,
}

/// Deterministic bulk-transfer tallies, kept out of [`WorkCounts`] so the
/// CI equality check on the `work` object is independent of bulk knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BulkCounts {
    /// Echo round-trips performed (one per bulk-scheduled request).
    pub transfers: u64,
    /// Total application bytes moved (both directions summed).
    pub app_bytes: u64,
}

/// Outcome of a load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// The config that produced this report.
    pub config: LoadgenConfig,
    /// Deterministic work counts.
    pub work: WorkCounts,
    /// Deterministic bulk-transfer counts (all zero when `bulk_pct` is 0).
    pub bulk: BulkCounts,
    /// Wall seconds for the whole run (from the injected clock).
    pub elapsed_secs: f64,
    /// Busy seconds of the busiest worker — the run's critical path on a
    /// machine with at least `workers` idle cores.
    pub max_worker_busy_secs: f64,
    /// Sum of all workers' busy seconds.
    pub total_busy_secs: f64,
    /// p50 handshake latency in microseconds (None if nothing measured).
    pub p50_us: Option<u64>,
    /// p99 handshake latency in microseconds.
    pub p99_us: Option<u64>,
}

impl LoadgenReport {
    /// Measured wall throughput.
    pub fn handshakes_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.work.handshakes as f64 / self.elapsed_secs
    }

    /// Render as JSON (schema `loadgen/v1`). The `work` object is
    /// deterministic; everything under `measured` carries wall time.
    pub fn to_json(&self) -> String {
        let fmt_opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        format!(
            "{{\n  \"schema\": \"loadgen/v1\",\n  \
             \"workers\": {},\n  \"targets\": {},\n  \"requests_per_worker\": {},\n  \
             \"seed\": {},\n  \
             \"mix\": {{\"full_pct\": {}, \"session_id_pct\": {}, \"ticket_pct\": {}}},\n  \
             \"work\": {{\"handshakes\": {}, \"full\": {}, \"resume_session_id\": {}, \
             \"resume_ticket\": {}}},\n  \
             \"bulk\": {{\"pct\": {}, \"bytes_per_direction\": {}, \"transfers\": {}, \
             \"app_bytes\": {}}},\n  \
             \"measured\": {{\"elapsed_secs\": {:.3}, \"handshakes_per_sec\": {:.1}, \
             \"max_worker_busy_secs\": {:.3}, \"total_busy_secs\": {:.3}, \
             \"p50_us\": {}, \"p99_us\": {}}}\n}}",
            self.config.workers,
            self.config.targets,
            self.config.requests_per_worker,
            self.config.seed,
            self.config.mix.full_pct,
            self.config.mix.session_id_pct,
            self.config.mix.ticket_pct,
            self.work.handshakes,
            self.work.full,
            self.work.resume_session_id,
            self.work.resume_ticket,
            self.config.bulk_pct,
            self.config.bulk_bytes,
            self.bulk.transfers,
            self.bulk.app_bytes,
            self.elapsed_secs,
            self.handshakes_per_sec(),
            self.max_worker_busy_secs,
            self.total_busy_secs,
            fmt_opt(self.p50_us),
            fmt_opt(self.p99_us),
        )
    }
}

/// The simulated fleet: one root store and one `ServerConfig` per target,
/// all sharing a single session cache and STEK manager.
pub struct Fleet {
    /// Trust store containing the fleet CA.
    pub store: Arc<RootStore>,
    /// Per-target server configs (index = target id).
    pub configs: Vec<ServerConfig>,
}

/// The SNI of target `t`.
pub fn target_sni(t: usize) -> String {
    format!("lg-{t}.sim")
}

/// Build a fleet of `targets` servers from `seed`.
///
/// The shared cache is sized so the run can never evict (eviction order
/// would depend on thread interleaving); the STEK policy is `Static` so
/// the epoch-pinned snapshot stays on its lock-free fast path after the
/// first acceptance — exactly the steady state worth measuring.
pub fn build_fleet(cfg: &LoadgenConfig) -> Fleet {
    let mut rng = HmacDrbg::from_seed_label(cfg.seed, "loadgen-fleet");
    let ca_key = RsaPrivateKey::generate(512, &mut rng).expect("ca key");
    let ca_name = DistinguishedName::cn("Loadgen CA");
    let ca = Certificate::issue(
        &CertificateParams {
            serial: 1,
            subject: ca_name.clone(),
            validity: Validity {
                not_before: 0,
                not_after: u32::MAX as u64,
            },
            dns_names: vec![],
            is_ca: true,
        },
        &ca_key.public,
        &ca_name,
        &ca_key,
    );
    let mut store = RootStore::new();
    store.add_root(ca);

    // Headroom over the worst case (every request a full handshake, every
    // full handshake inserting one session) so eviction never triggers.
    // The total is multiplied by the shard count because SharedSessionCache
    // splits capacity evenly across shards while the target SNIs may all
    // hash into one — each shard must individually fit the worst case.
    let cache_capacity =
        (cfg.workers * cfg.requests_per_worker + 1_024) * ts_tls::cache::SHARD_COUNT;
    let cache = SharedSessionCache::new(3_600, cache_capacity);
    let stek = SharedStekManager::new(StekManager::new(
        RotationPolicy::Static,
        TicketFormat::Rfc5077,
        HmacDrbg::from_seed_label(cfg.seed, "loadgen-stek"),
        0,
    ));

    let configs = (0..cfg.targets)
        .map(|t| {
            let sni = target_sni(t);
            let key = RsaPrivateKey::generate(512, &mut rng).expect("leaf key");
            let leaf = Certificate::issue(
                &CertificateParams {
                    serial: 2 + t as u64,
                    subject: DistinguishedName::cn(&sni),
                    validity: Validity {
                        not_before: 0,
                        not_after: u32::MAX as u64,
                    },
                    dns_names: vec![sni.clone()],
                    is_ca: false,
                },
                &key.public,
                &ca_name,
                &ca_key,
            );
            let eph = EphemeralCache::new(
                EphemeralPolicy::FreshPerHandshake,
                ts_crypto::dh::DhGroup::Sim256,
                HmacDrbg::from_seed_label(cfg.seed ^ t as u64, "loadgen-eph"),
            );
            let mut sc = ServerConfig::new(
                Arc::new(ServerIdentity {
                    chain: vec![leaf],
                    key,
                }),
                eph,
            );
            sc.session_cache = Some(cache.clone());
            sc.tickets = Some(stek.clone());
            sc.ticket_lifetime_hint = 3_600;
            sc.ticket_accept_window = 3_600;
            sc
        })
        .collect();
    Fleet {
        store: Arc::new(store),
        configs,
    }
}

/// What a worker remembers about a target it has already visited. The
/// session ID and ticket blob are cleartext wire artifacts (§4.2); only
/// the `SessionState` fields below carry the master secret.
#[derive(Default)]
struct TargetStash {
    // ctlint: public
    session_id: Vec<u8>,
    session_state: Option<SessionState>,
    // ctlint: public
    ticket_blob: Vec<u8>,
    ticket_state: Option<SessionState>,
}

/// The three request kinds a schedule slot can ask for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Full,
    SessionId,
    Ticket,
}

fn kind_for(mix: Mix, i: usize) -> Kind {
    let slot = (i % 100) as u8;
    if slot < mix.full_pct {
        Kind::Full
    } else if slot < mix.full_pct + mix.session_id_pct {
        Kind::SessionId
    } else {
        Kind::Ticket
    }
}

/// Per-worker result, merged by [`run`].
struct WorkerOutcome {
    counts: WorkCounts,
    bulk: BulkCounts,
    busy_nanos: u64,
}

/// Is request `i` a bulk-transfer slot? Positional like [`kind_for`], so
/// bulk work counts stay a pure function of the config.
fn is_bulk_slot(cfg: &LoadgenConfig, i: usize) -> bool {
    cfg.bulk_pct > 0 && cfg.bulk_bytes > 0 && (i % 100) < cfg.bulk_pct as usize
}

fn run_worker(
    fleet: &Fleet,
    cfg: &LoadgenConfig,
    worker: usize,
    clock: &(dyn Fn() -> u64 + Sync),
) -> WorkerOutcome {
    let mut stash: Vec<TargetStash> = (0..cfg.targets).map(|_| TargetStash::default()).collect();
    let mut counts = WorkCounts {
        handshakes: 0,
        full: 0,
        resume_session_id: 0,
        resume_ticket: 0,
    };
    let mut bulk = BulkCounts::default();
    let mut busy_nanos = 0u64;
    for i in 0..cfg.requests_per_worker {
        // Spread workers across targets with a per-worker phase so the
        // fleet (and all cache shards) see traffic from request 0 on.
        let target = (worker + i) % cfg.targets;
        let kind = kind_for(cfg.mix, i);
        let mut ccfg = ClientConfig::new(fleet.store.clone(), &target_sni(target), VIRTUAL_NOW);
        match kind {
            Kind::SessionId => {
                if let Some(state) = stash[target].session_state.clone() {
                    ccfg.resumption.session = Some((stash[target].session_id.clone(), state));
                }
            }
            Kind::Ticket => {
                if let Some(state) = stash[target].ticket_state.clone() {
                    ccfg.resumption.ticket = Some((stash[target].ticket_blob.clone(), state));
                }
            }
            Kind::Full => {}
        }
        let client_rng = HmacDrbg::new(format!("lg-{}-w{worker}-r{i}-c", cfg.seed).as_bytes());
        let server_rng = HmacDrbg::new(format!("lg-{}-w{worker}-r{i}-s", cfg.seed).as_bytes());
        let t0 = clock();
        let mut client = ClientConn::new(ccfg, client_rng);
        let mut server = ServerConn::new(fleet.configs[target].clone(), server_rng, VIRTUAL_NOW);
        let mut capture = pump(&mut client, &mut server)
            .expect("loadgen handshake")
            .capture;
        let t1 = clock();
        busy_nanos += t1.saturating_sub(t0);
        LG_LATENCY_US.observe(t1.saturating_sub(t0) / 1_000);
        let summary = client.summary().expect("established");
        counts.handshakes += 1;
        LG_OK.inc();
        match summary.resumed {
            None => {
                counts.full += 1;
                LG_FULL.inc();
                // Stash what this full handshake earned for later slots.
                if !summary.server_session_id.is_empty() {
                    stash[target].session_id = summary.server_session_id.clone();
                    stash[target].session_state = Some(summary.session.clone());
                }
                if let Some(nst) = &summary.new_ticket {
                    stash[target].ticket_blob = nst.ticket.clone();
                    stash[target].ticket_state = Some(summary.session.clone());
                }
            }
            Some(ResumeKind::SessionId) => {
                counts.resume_session_id += 1;
                LG_RESUME_SID.inc();
            }
            Some(ResumeKind::Ticket) => {
                counts.resume_ticket += 1;
                LG_RESUME_TICKET.inc();
            }
        }
        if is_bulk_slot(cfg, i) {
            // Echo round-trip through the negotiated record protection —
            // the record-layer (AES-GCM / ChaCha20-Poly1305) counterpart
            // of the handshake stress above. The payload pattern varies
            // per request so a stuck sequence number or IV would trip the
            // equality checks.
            let payload: Vec<u8> = (0..cfg.bulk_bytes)
                .map(|b| (b as u8).wrapping_add(i as u8))
                .collect();
            let b0 = clock();
            client.send_app_data(&payload).expect("bulk send");
            pump_app_data(&mut client, &mut server, &mut capture).expect("bulk pump");
            // `ct_eq` + `panic!` instead of `assert_eq!` on purpose:
            // assert macros Debug-format their (secret-tainted) arguments
            // on failure, and `==` on tainted data trips the
            // timing-oracle lint.
            if !ts_crypto::ct::ct_eq(&server.recv_app_data(), &payload) {
                panic!("bulk upstream mismatch");
            }
            server.send_app_data(&payload).expect("bulk echo");
            pump_app_data(&mut client, &mut server, &mut capture).expect("bulk echo pump");
            if !ts_crypto::ct::ct_eq(&client.recv_app_data(), &payload) {
                panic!("bulk downstream mismatch");
            }
            busy_nanos += clock().saturating_sub(b0);
            bulk.transfers += 1;
            bulk.app_bytes += 2 * payload.len() as u64;
            LG_BULK_TRANSFERS.inc();
            LG_BULK_BYTES.add(2 * payload.len() as u64);
        }
    }
    WorkerOutcome {
        counts,
        bulk,
        busy_nanos,
    }
}

/// Run the load profile. `clock` supplies monotonic nanoseconds (injected
/// so this crate stays wall-clock-free under the determinism lint; the
/// `repro` binary passes an `Instant`-based closure, tests a fake).
pub fn run(cfg: &LoadgenConfig, clock: &(dyn Fn() -> u64 + Sync)) -> LoadgenReport {
    assert!(cfg.workers > 0 && cfg.targets > 0, "workers/targets >= 1");
    assert_eq!(
        cfg.mix.full_pct as u32 + cfg.mix.session_id_pct as u32 + cfg.mix.ticket_pct as u32,
        100,
        "mix percentages must sum to 100"
    );
    let fleet = build_fleet(cfg);
    let before = ts_telemetry::snapshot();
    let t0 = clock();
    let fleet_ref = &fleet;
    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| s.spawn(move || run_worker(fleet_ref, cfg, w, clock)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let elapsed_secs = clock().saturating_sub(t0) as f64 / 1e9;
    let after = ts_telemetry::snapshot();

    let mut work = WorkCounts {
        handshakes: 0,
        full: 0,
        resume_session_id: 0,
        resume_ticket: 0,
    };
    let mut bulk = BulkCounts::default();
    let mut max_busy = 0u64;
    let mut total_busy = 0u64;
    for o in &outcomes {
        work.handshakes += o.counts.handshakes;
        work.full += o.counts.full;
        work.resume_session_id += o.counts.resume_session_id;
        work.resume_ticket += o.counts.resume_ticket;
        bulk.transfers += o.bulk.transfers;
        bulk.app_bytes += o.bulk.app_bytes;
        max_busy = max_busy.max(o.busy_nanos);
        total_busy += o.busy_nanos;
    }
    let delta = after.delta_since(&before);
    let latency = delta
        .histograms
        .iter()
        .find(|h| h.name == "loadgen.handshake_us");
    LoadgenReport {
        config: *cfg,
        work,
        bulk,
        elapsed_secs,
        max_worker_busy_secs: max_busy as f64 / 1e9,
        total_busy_secs: total_busy as f64 / 1e9,
        p50_us: latency.and_then(|h| h.percentile(50.0)),
        p99_us: latency.and_then(|h| h.percentile(99.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake monotonic clock: 1µs per read, no wall time.
    fn fake_clock() -> impl Fn() -> u64 + Sync {
        let ticks = std::sync::atomic::AtomicU64::new(0);
        move || ticks.fetch_add(1, std::sync::atomic::Ordering::Relaxed) * 1_000
    }

    fn small(workers: usize) -> LoadgenConfig {
        LoadgenConfig {
            workers,
            targets: 3,
            requests_per_worker: 40,
            mix: Mix::RESUMPTION_HEAVY,
            seed: 7,
            ..LoadgenConfig::default()
        }
    }

    #[test]
    fn work_counts_are_deterministic_across_worker_counts_per_worker() {
        // The same worker index produces the same counts regardless of how
        // many siblings run beside it.
        let clock = fake_clock();
        let solo = run(&small(1), &clock);
        let four = run(&small(4), &clock);
        assert_eq!(four.work.handshakes, 4 * solo.work.handshakes);
        assert_eq!(four.work.full, 4 * solo.work.full);
        assert_eq!(four.work.resume_session_id, 4 * solo.work.resume_session_id);
        assert_eq!(four.work.resume_ticket, 4 * solo.work.resume_ticket);
    }

    #[test]
    fn resumption_mix_is_respected_after_warmup() {
        let clock = fake_clock();
        let cfg = LoadgenConfig {
            workers: 2,
            targets: 2,
            requests_per_worker: 100,
            mix: Mix::RESUMPTION_HEAVY,
            seed: 11,
            ..LoadgenConfig::default()
        };
        let report = run(&cfg, &clock);
        assert_eq!(report.work.handshakes, 200);
        // Slots 0..9 are full; the earliest resumption slots may fall back
        // to full until the worker has stashed a session per target, but
        // with requests covering both targets the overwhelming majority of
        // the 90 resumption slots must actually resume.
        assert!(report.work.full >= 20, "full floor: {:?}", report.work);
        assert!(
            report.work.resume_session_id >= 80,
            "sid resumes: {:?}",
            report.work
        );
        assert!(
            report.work.resume_ticket >= 80,
            "ticket resumes: {:?}",
            report.work
        );
        assert_eq!(
            report.work.full + report.work.resume_session_id + report.work.resume_ticket,
            report.work.handshakes
        );
    }

    #[test]
    fn report_json_has_schema_and_work_fields() {
        let clock = fake_clock();
        let report = run(&small(1), &clock);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"loadgen/v1\""));
        assert!(json.contains("\"work\""));
        assert!(json.contains(&format!("\"handshakes\": {}", report.work.handshakes)));
    }

    #[test]
    fn bulk_slots_echo_deterministic_byte_counts() {
        let clock = fake_clock();
        let mut cfg = small(2);
        cfg.bulk_pct = 50;
        cfg.bulk_bytes = 1_000;
        let report = run(&cfg, &clock);
        // 40 requests/worker: slots 0..49 of each century are bulk, so all
        // 40 are. Two workers → 80 transfers, 2 kB moved per transfer.
        assert_eq!(report.bulk.transfers, 80);
        assert_eq!(report.bulk.app_bytes, 80 * 2 * 1_000);
        // Bulk transfer must not perturb the handshake work counts.
        let baseline = run(&small(2), &clock);
        assert_eq!(report.work, baseline.work);
        assert_eq!(baseline.bulk, BulkCounts::default());
        let json = report.to_json();
        assert!(json.contains("\"bulk\""));
        assert!(json.contains("\"transfers\": 80"));
    }

    #[test]
    fn bulk_payload_crosses_record_fragmentation_boundary() {
        // 40 000 bytes forces write_record to fragment each direction into
        // three protected records; the echo equality inside run_worker is
        // the actual assertion — this test just has to survive it.
        let clock = fake_clock();
        let mut cfg = small(1);
        cfg.requests_per_worker = 2;
        cfg.bulk_pct = 100;
        cfg.bulk_bytes = 40_000;
        let report = run(&cfg, &clock);
        assert_eq!(report.bulk.transfers, 2);
        assert_eq!(report.bulk.app_bytes, 2 * 2 * 40_000);
    }

    #[test]
    fn full_only_mix_never_resumes() {
        let clock = fake_clock();
        let cfg = LoadgenConfig {
            workers: 1,
            targets: 2,
            requests_per_worker: 30,
            mix: Mix {
                full_pct: 100,
                session_id_pct: 0,
                ticket_pct: 0,
            },
            seed: 3,
            ..LoadgenConfig::default()
        };
        let report = run(&cfg, &clock);
        assert_eq!(report.work.full, 30);
        assert_eq!(report.work.resume_session_id, 0);
        assert_eq!(report.work.resume_ticket, 0);
    }
}
