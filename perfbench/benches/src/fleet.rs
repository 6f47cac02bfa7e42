//! The `resume` and `bulk` workloads: a closed loop of clients, one per
//! core, each waiting for its reply, handshaking against one
//! `ts_loadgen::build_fleet` fleet that shares one session cache and one
//! STEK manager.
//!
//! A client's round is its share of one `ts_loadgen` profile: its
//! `requests_per_worker` requests on `ts_loadgen`'s positional schedule,
//! with the same generator labels, so the clients' rounds together must
//! count what `ts_loadgen::run` counts for the same config. Each client
//! repeats rounds until the measured time is up. Each connection is driven here through the public
//! `read_tls` / `process_new_packets` / `write_tls` calls, so every
//! handshake, and each side's share of it, is timed from outside the stack.

use std::time::Instant;
use ts_crypto::drbg::HmacDrbg;
use ts_loadgen::{target_sni, Fleet, LoadgenConfig, Mix};
use ts_tls::server::ResumeKind;
use ts_tls::session::SessionState;
use ts_tls::{ClientConfig, ClientConn, ConnectionCommon, ServerConn, TlsError};

use crate::stats::thread_cpu_s;
use crate::trace::Trace;

/// Two full handshakes per hundred requests, the rest split between
/// session-ID and ticket resumption. Resumed handshakes take most of the
/// CPU, and p99 falls inside the full-handshake mode, well away from the
/// boundary between the two modes at p98.
pub const MIX: Mix = Mix {
    full_pct: 2,
    session_id_pct: 49,
    ticket_pct: 49,
};

/// Servers in the fleet. No more than the full-handshake slots per
/// hundred requests, so every client has a session and a ticket for every
/// server before its first resumption slot and every scheduled resumption
/// can resume.
pub const TARGETS: usize = 2;

/// Application bytes each way per `bulk` request: more than two 16 KiB
/// records, so every echo is fragmented and reassembled.
pub const BULK_BYTES: usize = 40_000;

/// The fixed virtual time `ts_loadgen` handshakes at.
const VIRTUAL_NOW: u64 = 100;

/// The loadgen profile of one round.
pub fn config(seed: u64, workers: usize, requests_per_worker: usize, bulk: bool) -> LoadgenConfig {
    LoadgenConfig {
        workers,
        targets: TARGETS,
        requests_per_worker,
        mix: MIX,
        seed,
        bulk_pct: if bulk { 100 } else { 0 },
        bulk_bytes: BULK_BYTES,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Full,
    SessionId,
    Ticket,
}

/// `ts_loadgen`'s positional schedule.
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

#[derive(Default)]
struct Stash {
    session_id: Vec<u8>,
    session_state: Option<SessionState>,
    ticket_blob: Vec<u8>,
    ticket_state: Option<SessionState>,
}

/// Everything a client (or a round, once merged) did and measured.
#[derive(Default)]
pub struct Tally {
    pub full: u64,
    pub resumed_sid: u64,
    pub resumed_ticket: u64,
    /// Handshakes that offered a session ID or a ticket.
    pub offers: u64,
    /// Operations that failed: a TLS error, a scheduled resumption that
    /// did not resume, or an echo that did not come back byte-equal.
    pub failed: u64,
    pub first_failure: Option<String>,
    pub echoes: u64,
    pub app_bytes: u64,
    /// TLS bytes the echoes put on the wire, both directions.
    pub wire_bytes: u64,
    /// Per-request wall time (handshake, plus the echo on `bulk`), ns.
    pub op_ns: Vec<u32>,
    /// Per-handshake wall time on `bulk` (on `resume` it is `op_ns`), ns.
    pub handshake_ns: Vec<u32>,
    /// Per-handshake time inside each side's calls (traced runs only), ns.
    pub client_full_ns: Vec<u64>,
    pub server_full_ns: Vec<u64>,
    pub client_resumed_ns: Vec<u64>,
    pub server_resumed_ns: Vec<u64>,
    pub busy_ns: u64,
}

impl Tally {
    pub fn handshakes(&self) -> u64 {
        self.full + self.resumed_sid + self.resumed_ticket
    }

    pub fn absorb(&mut self, o: Tally) {
        self.full += o.full;
        self.resumed_sid += o.resumed_sid;
        self.resumed_ticket += o.resumed_ticket;
        self.offers += o.offers;
        self.failed += o.failed;
        if self.first_failure.is_none() {
            self.first_failure = o.first_failure;
        }
        self.echoes += o.echoes;
        self.app_bytes += o.app_bytes;
        self.wire_bytes += o.wire_bytes;
        self.op_ns.extend(o.op_ns);
        self.handshake_ns.extend(o.handshake_ns);
        self.client_full_ns.extend(o.client_full_ns);
        self.server_full_ns.extend(o.server_full_ns);
        self.client_resumed_ns.extend(o.client_resumed_ns);
        self.server_resumed_ns.extend(o.server_resumed_ns);
        self.busy_ns += o.busy_ns;
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// A latency sample, kept in four bytes so that the samples of a run
/// weigh little beside the workload's own memory.
fn sample(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// Bytes of latency samples `tally` holds.
pub fn sample_bytes(tally: &Tally) -> usize {
    4 * (tally.op_ns.len() + tally.handshake_ns.len())
}

/// Time inside each side's calls during one exchange.
#[derive(Default)]
struct SideNs {
    client: u64,
    server: u64,
}

/// Drain `src`'s queued TLS bytes into `buf`.
fn drain(src: &mut ConnectionCommon, buf: &mut Vec<u8>) {
    buf.clear();
    while src.wants_write() {
        src.write_tls(buf).expect("writing to a Vec cannot fail");
    }
}

/// Feed `bytes` to `dst`.
fn deliver(dst: &mut ConnectionCommon, bytes: &[u8]) {
    let mut rd: &[u8] = bytes;
    while !rd.is_empty() {
        dst.read_tls(&mut rd)
            .expect("reading from a slice cannot fail");
    }
}

/// Shuttle bytes between the endpoints until both are quiet, timing each
/// side's calls; the same loop as `ts_tls::pump::pump_app_data`.
fn exchange(
    client: &mut ClientConn,
    server: &mut ServerConn,
    trace: &mut Trace,
    side: &mut SideNs,
    wire_bytes: &mut u64,
) -> Result<(), TlsError> {
    let mut buf = Vec::new();
    for _ in 0..32 {
        let mut progressed = false;
        buf.clear();
        if client.wants_write() {
            trace.enter("ts_tls.client");
            drain(client, &mut buf);
            side.client += trace.exit();
        }
        if !buf.is_empty() {
            progressed = true;
            *wire_bytes += buf.len() as u64;
            trace.enter("ts_tls.server");
            deliver(server, &buf);
            let r = server.process_new_packets();
            side.server += trace.exit();
            r?;
        }
        buf.clear();
        if server.wants_write() {
            trace.enter("ts_tls.server");
            drain(server, &mut buf);
            side.server += trace.exit();
        }
        if !buf.is_empty() {
            progressed = true;
            *wire_bytes += buf.len() as u64;
            trace.enter("ts_tls.client");
            deliver(client, &buf);
            let r = client.process_new_packets();
            side.client += trace.exit();
            r?;
        }
        if !progressed {
            break;
        }
    }
    Ok(())
}

/// Run client `worker`'s requests of one round into `tally`.
pub fn run_client(
    fleet: &Fleet,
    cfg: &LoadgenConfig,
    worker: usize,
    trace: &mut Trace,
    tally: &mut Tally,
    corrupt_echo: bool,
) {
    let mut stash: Vec<Stash> = (0..cfg.targets).map(|_| Stash::default()).collect();
    for i in 0..cfg.requests_per_worker {
        let target = (worker + i) % cfg.targets;
        let kind = kind_for(cfg.mix, i);
        let op0 = Instant::now();
        trace.enter("harness.handshake");
        let mut side = SideNs::default();

        trace.enter("ts_tls.client");
        let mut ccfg = ClientConfig::new(fleet.store.clone(), &target_sni(target), VIRTUAL_NOW);
        let offered = match kind {
            Kind::SessionId => stash[target].session_state.clone().map(|state| {
                ccfg.resumption.session = Some((stash[target].session_id.clone(), state));
            }),
            Kind::Ticket => stash[target].ticket_state.clone().map(|state| {
                ccfg.resumption.ticket = Some((stash[target].ticket_blob.clone(), state));
            }),
            Kind::Full => None,
        }
        .is_some();
        let client_rng = HmacDrbg::new(format!("lg-{}-w{worker}-r{i}-c", cfg.seed).as_bytes());
        let mut client = ClientConn::new(ccfg, client_rng);
        side.client += trace.exit();

        trace.enter("ts_tls.server");
        let server_rng = HmacDrbg::new(format!("lg-{}-w{worker}-r{i}-s", cfg.seed).as_bytes());
        let mut server = ServerConn::new(fleet.configs[target].clone(), server_rng, VIRTUAL_NOW);
        side.server += trace.exit();

        let mut handshake_wire = 0;
        let done = exchange(
            &mut client,
            &mut server,
            trace,
            &mut side,
            &mut handshake_wire,
        );
        trace.enter("ts_tls.client");
        let summary = done.and_then(|()| client.summary());
        side.client += trace.exit();
        let hs_ns = op0.elapsed().as_nanos() as u64;
        let summary = match summary {
            Ok(s) => s,
            Err(e) => {
                trace.exit();
                tally.fail(format!(
                    "client {worker} request {i}: handshake failed: {e:?}"
                ));
                continue;
            }
        };
        tally.offers += u64::from(offered);
        let resumed = summary.resumed;
        match resumed {
            None => {
                tally.full += 1;
                if !summary.server_session_id.is_empty() {
                    stash[target].session_id = summary.server_session_id.clone();
                    stash[target].session_state = Some(summary.session.clone());
                }
                if let Some(nst) = &summary.new_ticket {
                    stash[target].ticket_blob = nst.ticket.clone();
                    stash[target].ticket_state = Some(summary.session.clone());
                }
            }
            Some(ResumeKind::SessionId) => tally.resumed_sid += 1,
            Some(ResumeKind::Ticket) => tally.resumed_ticket += 1,
        }
        let expected = match kind {
            Kind::Full => None,
            Kind::SessionId => Some(ResumeKind::SessionId),
            Kind::Ticket => Some(ResumeKind::Ticket),
        };
        if resumed != expected {
            tally.fail(format!(
                "client {worker} request {i}: scheduled {expected:?}, got {resumed:?}"
            ));
        }
        if trace.enabled() {
            let (c, s) = if resumed.is_some() {
                (&mut tally.client_resumed_ns, &mut tally.server_resumed_ns)
            } else {
                (&mut tally.client_full_ns, &mut tally.server_full_ns)
            };
            c.push(side.client);
            s.push(side.server);
        }
        trace.exit();
        if cfg.bulk_pct > 0 {
            tally.handshake_ns.push(sample(hs_ns));
            trace.enter("harness.echo");
            let payload: Vec<u8> = (0..cfg.bulk_bytes)
                .map(|b| (b as u8).wrapping_add(i as u8))
                .collect();
            if let Err(why) = echo(
                &mut client,
                &mut server,
                &payload,
                trace,
                tally,
                corrupt_echo,
            ) {
                tally.fail(format!("client {worker} request {i}: {why}"));
            } else {
                tally.echoes += 1;
                tally.app_bytes += 2 * payload.len() as u64;
            }
            trace.exit();
        }
        let op = op0.elapsed().as_nanos() as u64;
        tally.op_ns.push(sample(op));
        tally.busy_ns += op;
    }
}

/// Send `payload` up, check it arrived intact, echo it back, check again.
/// `corrupt` makes the last check fail, for the benchmark's self-test.
fn echo(
    client: &mut ClientConn,
    server: &mut ServerConn,
    payload: &[u8],
    trace: &mut Trace,
    tally: &mut Tally,
    corrupt: bool,
) -> Result<(), String> {
    let mut side = SideNs::default();
    let wire = &mut tally.wire_bytes;
    trace.enter("ts_tls.client");
    let sent = client.send_app_data(payload);
    trace.exit();
    sent.map_err(|e| format!("send failed: {e:?}"))?;
    exchange(client, server, trace, &mut side, wire).map_err(|e| format!("upstream: {e:?}"))?;
    trace.enter("ts_tls.server");
    let up = server.recv_app_data();
    let sent = server.send_app_data(&up);
    trace.exit();
    if up != payload {
        return Err(format!(
            "upstream echo differs ({} of {} bytes)",
            up.len(),
            payload.len()
        ));
    }
    sent.map_err(|e| format!("echo send failed: {e:?}"))?;
    exchange(client, server, trace, &mut side, wire).map_err(|e| format!("downstream: {e:?}"))?;
    trace.enter("ts_tls.client");
    let down = client.recv_app_data();
    trace.exit();
    if down != payload || corrupt {
        return Err(format!(
            "downstream echo differs ({} of {} bytes)",
            down.len(),
            payload.len()
        ));
    }
    Ok(())
}

/// Work counts of one client's round: full, session-ID and ticket
/// handshakes, echoes and application bytes.
pub type RoundCounts = [u64; 5];

/// What one client did in a phase.
pub struct ClientRun {
    pub tally: Tally,
    pub rounds: Vec<RoundCounts>,
    /// Requests per wall second and on-CPU seconds per request in each
    /// window of whole rounds.
    pub window_ops_per_s: Vec<f64>,
    pub window_cpu_s_per_op: Vec<f64>,
    pub trace: Trace,
}

/// Shortest window of rounds a client's rate and CPU time are read over.
/// The kernel advances a running thread's CPU time at scheduler ticks, so
/// a window must span many ticks to read it to a few percent.
const WINDOW_S: f64 = 0.25;

/// Run every client on its own thread, each repeating rounds of its
/// requests until `seconds` have passed (at least one round each).
/// Clients never wait for each other. Sample space for `max_ops_per_s`
/// requests per client is reserved up front, so the samples are never
/// copied while the phase runs and only the pages they fill are resident.
pub fn run_clients(
    fleet: &Fleet,
    cfg: &LoadgenConfig,
    origin: Instant,
    traced: bool,
    corrupt_echo: bool,
    seconds: f64,
    max_ops_per_s: f64,
) -> Vec<ClientRun> {
    let reserve = (max_ops_per_s * seconds) as usize + cfg.requests_per_worker;
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                s.spawn(move || {
                    let mut run = ClientRun {
                        tally: Tally::default(),
                        rounds: Vec::new(),
                        window_ops_per_s: Vec::new(),
                        window_cpu_s_per_op: Vec::new(),
                        trace: Trace::new(origin, traced),
                    };
                    run.tally.op_ns.reserve_exact(reserve);
                    if cfg.bulk_pct > 0 {
                        run.tally.handshake_ns.reserve_exact(reserve);
                    }
                    let mut window = (Instant::now(), thread_cpu_s(), 0usize);
                    loop {
                        let mut round = Tally::default();
                        run_client(fleet, cfg, w, &mut run.trace, &mut round, corrupt_echo);
                        run.rounds.push([
                            round.full,
                            round.resumed_sid,
                            round.resumed_ticket,
                            round.echoes,
                            round.app_bytes,
                        ]);
                        run.tally.absorb(round);
                        window.2 += cfg.requests_per_worker;
                        let done = start.elapsed().as_secs_f64() >= seconds;
                        let window_s = window.0.elapsed().as_secs_f64();
                        if window_s >= WINDOW_S || done {
                            let ops = window.2 as f64;
                            run.window_ops_per_s.push(ops / window_s);
                            run.window_cpu_s_per_op
                                .push((thread_cpu_s() - window.1) / ops);
                            window = (Instant::now(), thread_cpu_s(), 0);
                        }
                        if done {
                            break;
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
