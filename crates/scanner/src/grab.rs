//! The TLS grabber: one observed connection.

use ts_core::observations::fingerprint_hex;
use ts_crypto::drbg::HmacDrbg;
use ts_population::Population;
use ts_simnet::{ConnectError, Ip};
use ts_telemetry::{Counter, Histogram};
use ts_tls::config::{ClientConfig, ResumptionOffer};
use ts_tls::server::ResumeKind;
use ts_tls::session::SessionState;
use ts_tls::suites::CipherSuite;
use ts_tls::ticket::{extract_stek_id, sniff_format};
use ts_tls::wire::handshake::NewSessionTicket;
use ts_tls::TlsError;

static GRAB_OK: Counter = Counter::new("scanner.grab.ok");
static GRAB_BLACKLISTED: Counter = Counter::new("scanner.grab.blacklisted");
static GRAB_NO_DNS: Counter = Counter::new("scanner.grab.no_dns");
static GRAB_REFUSED: Counter = Counter::new("scanner.grab.refused");
static GRAB_TIMEOUT: Counter = Counter::new("scanner.grab.timeout");
static GRAB_UNKNOWN_HOST: Counter = Counter::new("scanner.grab.unknown_host");
static GRAB_TLS_FAILED: Counter = Counter::new("scanner.grab.tls_failed");
static GRAB_RETRIES: Counter = Counter::new("scanner.grab.retries");
static GRAB_ATTEMPTS: Histogram = Histogram::new("scanner.grab.attempts", &[1, 2, 3, 4, 8]);

/// Count one concluded grab under its class counter.
fn record_grab(outcome: &Result<Observation, GrabFailure>, attempts: u32) {
    let counter: &'static Counter = match outcome {
        Ok(_) => &GRAB_OK,
        Err(GrabFailure::Blacklisted) => &GRAB_BLACKLISTED,
        Err(GrabFailure::NoDns) => &GRAB_NO_DNS,
        Err(GrabFailure::Refused) => &GRAB_REFUSED,
        Err(GrabFailure::Timeout) => &GRAB_TIMEOUT,
        Err(GrabFailure::UnknownHost) => &GRAB_UNKNOWN_HOST,
        Err(GrabFailure::TlsFailed(_)) => &GRAB_TLS_FAILED,
    };
    counter.inc();
    if attempts > 1 {
        GRAB_RETRIES.add(u64::from(attempts - 1));
    }
    if attempts > 0 {
        // Blacklisted / no-DNS grabs never touch the network.
        GRAB_ATTEMPTS.observe(u64::from(attempts));
    }
}

/// Which cipher suites the grabber offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteOffer {
    /// Everything, browser-like (ECDHE preferred).
    All,
    /// Only DHE suites (the Censys-style DHE scans).
    DheOnly,
    /// Only ECDHE suites.
    EcdheOnly,
    /// ECDHE preferred with RSA fallback (the paper's ECDHE scan offer).
    EcdheThenRsa,
}

impl SuiteOffer {
    fn suites(self) -> Vec<CipherSuite> {
        match self {
            SuiteOffer::All => CipherSuite::all().to_vec(),
            SuiteOffer::DheOnly => CipherSuite::dhe_only().to_vec(),
            SuiteOffer::EcdheOnly => CipherSuite::ecdhe_only().to_vec(),
            SuiteOffer::EcdheThenRsa => {
                let mut v = CipherSuite::ecdhe_only().to_vec();
                v.push(CipherSuite::RsaAes128CbcSha256);
                v
            }
        }
    }
}

/// Options for one grab.
///
/// Construct with [`GrabOptions::new`] and chain setters; the struct is
/// `#[non_exhaustive]` so new knobs can land without breaking callers:
///
/// ```
/// use ts_scanner::{GrabOptions, SuiteOffer};
/// let opts = GrabOptions::new().suites(SuiteOffer::DheOnly).retries(0);
/// ```
#[derive(Clone)]
#[non_exhaustive]
pub struct GrabOptions {
    pub(crate) suites: SuiteOffer,
    // Field names deliberately differ from the `resume_session` /
    // `resume_ticket` builder methods: ts-lint treats the byteish fields
    // of a secret-bearing struct as tainted projections by name, and a
    // chained `.resume_session(..)` call must not read as one.
    pub(crate) sid_resume: Option<(Vec<u8>, SessionState)>,
    pub(crate) ticket_resume: Option<(Vec<u8>, SessionState)>,
    pub(crate) permissive: bool,
    pub(crate) retries: u32,
}

impl GrabOptions {
    /// The defaults: offer every suite, no resumption, permissive trust
    /// handling (record failures instead of aborting), two retries.
    pub fn new() -> Self {
        GrabOptions {
            suites: SuiteOffer::All,
            sid_resume: None,
            ticket_resume: None,
            permissive: true,
            retries: 2,
        }
    }

    /// Cipher suites to offer.
    #[must_use]
    pub fn suites(mut self, offer: SuiteOffer) -> Self {
        self.suites = offer;
        self
    }

    /// Offer a session ID (and its cached state) for resumption.
    #[must_use]
    pub fn resume_session(mut self, session_id: Vec<u8>, state: SessionState) -> Self {
        self.sid_resume = Some((session_id, state));
        self
    }

    /// Offer a session ticket (and its cached state) for resumption.
    #[must_use]
    pub fn resume_ticket(mut self, ticket: Vec<u8>, state: SessionState) -> Self {
        self.ticket_resume = Some((ticket, state));
        self
    }

    /// Record trust failures instead of aborting the handshake.
    #[must_use]
    pub fn permissive(mut self, on: bool) -> Self {
        self.permissive = on;
        self
    }

    /// Transport retries on transient timeouts.
    #[must_use]
    pub fn retries(mut self, n: u32) -> Self {
        self.retries = n;
        self
    }
}

impl Default for GrabOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a grab failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrabFailure {
    /// Domain is blacklisted — never contacted.
    Blacklisted,
    /// No DNS A record.
    NoDns,
    /// TCP-level refusal (no HTTPS).
    Refused,
    /// Timed out after retries.
    Timeout,
    /// SNI unknown at the endpoint.
    UnknownHost,
    /// TLS handshake failed (the structured cause is preserved).
    TlsFailed(TlsError),
}

impl std::fmt::Display for GrabFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GrabFailure::Blacklisted => write!(f, "domain blacklisted"),
            GrabFailure::NoDns => write!(f, "no DNS A record"),
            GrabFailure::Refused => write!(f, "connection refused"),
            GrabFailure::Timeout => write!(f, "timed out after retries"),
            GrabFailure::UnknownHost => write!(f, "endpoint does not serve this SNI"),
            GrabFailure::TlsFailed(e) => write!(f, "TLS handshake failed: {e}"),
        }
    }
}

impl std::error::Error for GrabFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GrabFailure::TlsFailed(e) => Some(e),
            _ => None,
        }
    }
}

/// Everything one successful connection reveals.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Negotiated suite.
    pub cipher_suite: CipherSuite,
    /// Chain validated against the root store?
    pub trusted: bool,
    /// ServerHello session ID (empty if none; cleartext on the wire).
    // ctlint: public
    pub session_id: Vec<u8>,
    /// How the handshake resumed, if it did.
    pub resumed: Option<ResumeKind>,
    /// NewSessionTicket, if issued.
    pub ticket: Option<NewSessionTicket>,
    /// Hex STEK identifier parsed out of the ticket.
    pub stek_id: Option<String>,
    /// Hex fingerprint of the server's (EC)DHE public value.
    pub kex_value_fp: Option<String>,
    /// Session state for later resumption offers.
    pub session: SessionState,
}

/// The result of one grab.
#[derive(Debug, Clone)]
pub struct Grab {
    /// Target domain.
    pub domain: String,
    /// Resolved address, when DNS succeeded.
    pub ip: Option<Ip>,
    /// Observation or failure.
    pub outcome: Result<Observation, GrabFailure>,
}

impl Grab {
    /// Shorthand: did the handshake complete?
    pub fn ok(&self) -> Option<&Observation> {
        self.outcome.as_ref().ok()
    }
}

/// The scanner: a seeded connection factory against one population.
pub struct Scanner<'a> {
    pop: &'a Population,
    rng: HmacDrbg,
}

impl<'a> Scanner<'a> {
    /// New scanner with its own RNG stream.
    pub fn new(pop: &'a Population, seed_label: &str) -> Self {
        Scanner {
            pop,
            rng: HmacDrbg::from_seed_label(pop.config.seed, seed_label),
        }
    }

    /// The population under measurement.
    pub fn population(&self) -> &Population {
        self.pop
    }

    /// Perform one grab of `domain` at virtual time `now`.
    pub fn grab(&mut self, domain: &str, now: u64, options: &GrabOptions) -> Grab {
        if self.pop.blacklist.contains(domain) {
            let outcome = Err(GrabFailure::Blacklisted);
            record_grab(&outcome, 0);
            return Grab {
                domain: domain.into(),
                ip: None,
                outcome,
            };
        }
        let ip = match self.pop.dns.resolve(domain, &mut self.rng) {
            Some(ip) => ip,
            None => {
                let outcome = Err(GrabFailure::NoDns);
                record_grab(&outcome, 0);
                return Grab {
                    domain: domain.into(),
                    ip: None,
                    outcome,
                };
            }
        };
        self.grab_ip(domain, ip, now, options)
    }

    /// Grab a specific IP with a given SNI (the cross-domain experiments
    /// pick the address explicitly).
    pub fn grab_ip(&mut self, sni: &str, ip: Ip, now: u64, options: &GrabOptions) -> Grab {
        let mut attempts = 0u32;
        let finish = |outcome: Result<Observation, GrabFailure>, attempts: u32| {
            record_grab(&outcome, attempts);
            Grab {
                domain: sni.into(),
                ip: Some(ip),
                outcome,
            }
        };
        for _attempt in 0..=options.retries {
            attempts += 1;
            let mut cfg = ClientConfig::new(self.pop.root_store.clone(), sni, now);
            cfg.suites = options.suites.suites();
            cfg.verify_certs = !options.permissive;
            cfg.resumption = ResumptionOffer {
                session: options.sid_resume.clone(),
                ticket: options.ticket_resume.clone(),
            };
            match self.pop.net.connect(ip, cfg, now, &mut self.rng) {
                Ok(conn) => {
                    let summary = match conn.client.summary() {
                        Ok(s) => s,
                        Err(e) => return finish(Err(GrabFailure::TlsFailed(e)), attempts),
                    };
                    let trusted =
                        matches!(summary.trust, Some(Ok(()))) || summary.resumed.is_some();
                    let stek_id = summary.new_ticket.as_ref().map(|nst| {
                        let format = sniff_format(&nst.ticket);
                        extract_stek_id(&nst.ticket, format)
                            .map(|id| fingerprint_hex(&id))
                            .unwrap_or_else(|_| "unparseable".into())
                    });
                    let kex_value_fp = summary
                        .server_kex_public
                        .as_ref()
                        .map(|v| fingerprint_hex(v));
                    return finish(
                        Ok(Observation {
                            cipher_suite: summary.cipher_suite,
                            trusted,
                            session_id: summary.server_session_id.clone(),
                            resumed: summary.resumed,
                            ticket: summary.new_ticket.clone(),
                            stek_id,
                            kex_value_fp,
                            session: summary.session.clone(),
                        }),
                        attempts,
                    );
                }
                Err(ConnectError::Timeout) => continue,
                Err(ConnectError::Refused) => {
                    return finish(Err(GrabFailure::Refused), attempts);
                }
                Err(ConnectError::UnknownHost) => {
                    return finish(Err(GrabFailure::UnknownHost), attempts);
                }
                Err(ConnectError::Tls(e)) => {
                    return finish(Err(GrabFailure::TlsFailed(e)), attempts);
                }
            }
        }
        finish(Err(GrabFailure::Timeout), attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use ts_population::PopulationConfig;

    fn pop() -> &'static Population {
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| Population::build(PopulationConfig::new(7, 500)))
    }

    #[test]
    fn grab_trusted_domain_succeeds() {
        let mut s = Scanner::new(pop(), "grab-test");
        let g = s.grab("yahoo.sim", 1000, &GrabOptions::default());
        let obs = g.ok().expect("handshake succeeds");
        assert!(obs.trusted);
        assert!(obs.ticket.is_some());
        assert!(obs.stek_id.is_some());
        assert!(obs.kex_value_fp.is_some(), "PFS suite negotiated");
        assert!(obs.resumed.is_none());
    }

    #[test]
    fn grab_blacklist_never_contacts() {
        let p = pop();
        let victim = p
            .truth
            .iter()
            .find(|t| t.blacklisted)
            .map(|t| t.name.clone());
        if let Some(victim) = victim {
            let mut s = Scanner::new(p, "bl-test");
            let g = s.grab(&victim, 1000, &GrabOptions::default());
            assert_eq!(g.outcome.unwrap_err(), GrabFailure::Blacklisted);
            assert!(g.ip.is_none(), "no DNS resolution even");
        }
    }

    #[test]
    fn grab_unknown_domain_no_dns() {
        let mut s = Scanner::new(pop(), "nodns-test");
        let g = s.grab("no-such-domain.sim", 1000, &GrabOptions::default());
        assert_eq!(g.outcome.unwrap_err(), GrabFailure::NoDns);
    }

    #[test]
    fn grab_non_https_refused() {
        let p = pop();
        let dead = p
            .truth
            .iter()
            .find(|t| !t.https && t.stable && !t.blacklisted)
            .expect("non-https domain exists");
        let mut s = Scanner::new(p, "refused-test");
        let g = s.grab(&dead.name, 1000, &GrabOptions::default());
        assert_eq!(g.outcome.unwrap_err(), GrabFailure::Refused);
    }

    #[test]
    fn untrusted_domain_recorded_when_permissive() {
        let p = pop();
        let ut = p
            .truth
            .iter()
            .find(|t| t.https && !t.trusted && t.stable && !t.blacklisted)
            .expect("untrusted domain exists");
        let mut s = Scanner::new(p, "permissive-test");
        let g = s.grab(&ut.name, 1000, &GrabOptions::default());
        let obs = g.ok().expect("permissive grab succeeds");
        assert!(!obs.trusted);
    }

    #[test]
    fn dhe_only_offer_fails_on_non_dhe_domain() {
        let p = pop();
        // cirrusflare serves ECDHE+RSA only.
        let cdn = p
            .truth
            .iter()
            .find(|t| t.operator.as_deref() == Some("cirrusflare"))
            .expect("cdn domain");
        let mut s = Scanner::new(p, "dhe-test");
        let opts = GrabOptions::new().suites(SuiteOffer::DheOnly);
        let g = s.grab(&cdn.name, 1000, &opts);
        assert!(
            matches!(g.outcome, Err(GrabFailure::TlsFailed(_))),
            "no common suite: {:?}",
            g.outcome
        );
    }

    #[test]
    fn ticket_resumption_via_grab() {
        let p = pop();
        let mut s = Scanner::new(p, "resume-test");
        let g1 = s.grab("yahoo.sim", 2000, &GrabOptions::default());
        let obs1 = g1.ok().expect("first grab").clone();
        let nst = obs1.ticket.expect("ticket issued");
        let opts = GrabOptions::new().resume_ticket(nst.ticket, obs1.session.clone());
        let g2 = s.grab("yahoo.sim", 2001, &opts);
        let obs2 = g2.ok().expect("second grab");
        assert_eq!(obs2.resumed, Some(ResumeKind::Ticket));
    }

    #[test]
    fn session_resumption_via_grab() {
        let p = pop();
        let mut s = Scanner::new(p, "sid-resume-test");
        let g1 = s.grab("netflix.sim", 2000, &GrabOptions::default());
        let obs1 = g1.ok().expect("first grab").clone();
        assert!(!obs1.session_id.is_empty());
        let opts = GrabOptions::new().resume_session(obs1.session_id.clone(), obs1.session.clone());
        let g2 = s.grab("netflix.sim", 2001, &opts);
        let obs2 = g2.ok().expect("second grab");
        assert_eq!(obs2.resumed, Some(ResumeKind::SessionId));
    }
}
