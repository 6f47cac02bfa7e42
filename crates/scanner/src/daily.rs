//! The daily 63-day campaign (§4.3, §4.4 — Figures 3–5, Tables 2–4).
//!
//! Each day, for each domain in that day's list: one browser-like grab
//! recording the issued ticket's STEK identifier, one DHE-only grab and
//! one ECDHE-first grab recording the server's key-exchange values.

use crate::grab::{GrabOptions, Scanner, SuiteOffer};
use ts_core::observations::{KexKind, KexSighting, TicketSighting};
use ts_simnet::clock::{Clock, DAY, MINUTE};
use ts_telemetry::Counter;

static CAMPAIGN_DAYS: Counter = Counter::new("scanner.campaign.days");
static CAMPAIGN_ATTEMPTS: Counter = Counter::new("scanner.campaign.attempts");

/// Options for a daily campaign.
///
/// Construct with [`CampaignOptions::new`] and chain setters:
///
/// ```
/// use ts_scanner::CampaignOptions;
/// let opts = CampaignOptions::new().days(0..7).dhe(false);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CampaignOptions {
    pub(crate) days: std::ops::Range<u64>,
    pub(crate) scan_time_of_day: u64,
    pub(crate) tickets: bool,
    pub(crate) dhe: bool,
    pub(crate) ecdhe: bool,
}

impl CampaignOptions {
    /// The paper's campaign: 63 days, scans at 06:00, all three grabs.
    pub fn new() -> Self {
        CampaignOptions {
            days: 0..63,
            scan_time_of_day: 6 * 3_600,
            tickets: true,
            dhe: true,
            ecdhe: true,
        }
    }

    /// Days to scan (typically `0..63`).
    #[must_use]
    pub fn days(mut self, days: std::ops::Range<u64>) -> Self {
        self.days = days;
        self
    }

    /// Seconds after midnight the daily scan fires.
    #[must_use]
    pub fn scan_time_of_day(mut self, secs: u64) -> Self {
        self.scan_time_of_day = secs;
        self
    }

    /// Collect ticket sightings?
    #[must_use]
    pub fn tickets(mut self, on: bool) -> Self {
        self.tickets = on;
        self
    }

    /// Collect DHE sightings?
    #[must_use]
    pub fn dhe(mut self, on: bool) -> Self {
        self.dhe = on;
        self
    }

    /// Collect ECDHE sightings?
    #[must_use]
    pub fn ecdhe(mut self, on: bool) -> Self {
        self.ecdhe = on;
        self
    }
}

impl Default for CampaignOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Consumer of campaign observations, invoked as the scan produces them.
///
/// A sink that folds each sighting into a bounded accumulator (for
/// example a [`SpanAcc`](ts_core::stream::SpanAcc)) lets a sharded
/// campaign run with peak memory independent of the domain-day count,
/// instead of holding every sighting of a nine-week scan at once.
pub trait CampaignSink {
    /// One ticket sighting (trusted grab that issued a ticket).
    fn ticket(&mut self, sighting: TicketSighting);
    /// One key-exchange sighting (either flavour).
    fn kex(&mut self, sighting: KexSighting);
    /// A campaign day finished scanning (eviction / flush hook).
    fn day_done(&mut self, _day: u64) {}
}

/// Run a daily campaign, draining observations into `sink` as each grab
/// completes. Returns the number of handshake attempts made.
///
/// `domains_for_day` selects targets (e.g. the full list, or the stable
/// core); the default campaign scans whatever the churned list contains,
/// and analysis filters to the core afterwards — exactly the paper's flow.
pub fn run_campaign_streaming(
    scanner: &mut Scanner,
    options: &CampaignOptions,
    mut domains_for_day: impl FnMut(u64) -> Vec<String>,
    sink: &mut impl CampaignSink,
) -> u64 {
    let mut attempts = 0u64;
    for day in options.days.clone() {
        let clock = Clock::at(day * DAY + options.scan_time_of_day);
        let now = clock.now();
        debug_assert_eq!(clock.day(), day);
        for domain in domains_for_day(day) {
            if options.tickets {
                attempts += 1;
                let g = scanner.grab(&domain, now, &GrabOptions::new());
                if let Some(obs) = g.ok() {
                    if obs.trusted {
                        if let (Some(stek_id), Some(nst)) = (&obs.stek_id, &obs.ticket) {
                            sink.ticket(TicketSighting {
                                domain: domain.clone(),
                                day,
                                stek_id: stek_id.clone(),
                                lifetime_hint: nst.lifetime_hint,
                            });
                        }
                    }
                }
            }
            if options.dhe {
                attempts += 1;
                let opts = GrabOptions::new().suites(SuiteOffer::DheOnly);
                let g = scanner.grab(&domain, now + MINUTE, &opts);
                if let Some(obs) = g.ok() {
                    if obs.trusted {
                        if let Some(fp) = &obs.kex_value_fp {
                            sink.kex(KexSighting {
                                domain: domain.clone(),
                                day,
                                kex: KexKind::Dhe,
                                value_fp: fp.clone(),
                            });
                        }
                    }
                }
            }
            if options.ecdhe {
                attempts += 1;
                let opts = GrabOptions::new().suites(SuiteOffer::EcdheThenRsa);
                let g = scanner.grab(&domain, now + 2 * MINUTE, &opts);
                if let Some(obs) = g.ok() {
                    if obs.trusted {
                        // Only ECDHE connections yield a value; RSA
                        // fallback connections record nothing.
                        if let Some(fp) = &obs.kex_value_fp {
                            sink.kex(KexSighting {
                                domain: domain.clone(),
                                day,
                                kex: KexKind::Ecdhe,
                                value_fp: fp.clone(),
                            });
                        }
                    }
                }
            }
        }
        CAMPAIGN_DAYS.inc();
        sink.day_done(day);
    }
    CAMPAIGN_ATTEMPTS.add(attempts);
    attempts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use ts_core::stream::SpanAcc;
    use ts_population::{Population, PopulationConfig};

    fn pop() -> &'static Population {
        static POP: OnceLock<Population> = OnceLock::new();
        POP.get_or_init(|| {
            let mut cfg = PopulationConfig::new(31, 300);
            cfg.flakiness = 0.0;
            Population::build(cfg)
        })
    }

    /// Exact per-mechanism spans of one campaign run.
    #[derive(Default)]
    struct Spans {
        stek: SpanAcc,
        dhe: SpanAcc,
        ecdhe: SpanAcc,
        attempts: u64,
    }

    impl CampaignSink for Spans {
        fn ticket(&mut self, s: TicketSighting) {
            self.stek.record(&s.domain, &s.stek_id, s.day);
        }

        fn kex(&mut self, s: KexSighting) {
            let acc = match s.kex {
                KexKind::Dhe => &mut self.dhe,
                KexKind::Ecdhe => &mut self.ecdhe,
            };
            acc.record(&s.domain, &s.value_fp, s.day);
        }
    }

    fn campaign(
        p: &Population,
        label: &str,
        days: std::ops::Range<u64>,
        targets: Vec<String>,
    ) -> Spans {
        let mut s = Scanner::new(p, label);
        let options = CampaignOptions::new().days(days);
        let mut spans = Spans::default();
        spans.attempts =
            run_campaign_streaming(&mut s, &options, move |_day| targets.clone(), &mut spans);
        spans
    }

    fn mini_campaign(days: std::ops::Range<u64>, targets: Vec<String>) -> Spans {
        campaign(pop(), "daily-test", days, targets)
    }

    #[test]
    fn static_stek_domain_spans_whole_window() {
        let spans = mini_campaign(0..10, vec!["yahoo.sim".into()])
            .stek
            .domain_spans();
        assert_eq!(spans["yahoo.sim"].max_span_days, 10);
        assert_eq!(spans["yahoo.sim"].distinct_ids, 1, "one STEK for 10 days");
    }

    #[test]
    fn rotating_domain_changes_stek_daily() {
        // Fresh population: STEK rotation state is monotone in time, and
        // the shared test population may already have ticked past day 0.
        let mut cfg = PopulationConfig::new(33, 300);
        cfg.flakiness = 0.0;
        let p = Population::build(cfg);
        let spans = campaign(&p, "daily-rotate", 0..6, vec!["twitter.sim".into()])
            .stek
            .domain_spans();
        assert_eq!(spans["twitter.sim"].max_span_days, 1, "fresh STEK daily");
        assert_eq!(spans["twitter.sim"].distinct_ids, 6);
    }

    #[test]
    fn restart_rotation_observed_at_boundary() {
        // netflix.sim: STEK rotates every 54 days; in a 6-day window one id.
        let spans = mini_campaign(0..6, vec!["netflix.sim".into()])
            .stek
            .domain_spans();
        assert_eq!(spans["netflix.sim"].distinct_ids, 1);
    }

    #[test]
    fn ecdhe_reuser_spans_and_fresh_domain_does_not() {
        let spans = mini_campaign(0..5, vec!["whatsapp.sim".into(), "twitter.sim".into()])
            .ecdhe
            .domain_spans();
        assert_eq!(spans["whatsapp.sim"].max_span_days, 5, "62-day ECDHE reuse");
        assert_eq!(spans["twitter.sim"].max_span_days, 1, "fresh values");
    }

    #[test]
    fn dhe_scan_collects_only_dhe_capable_domains() {
        // cookpad.sim reuses DHE 63d; cirrusflare has no DHE.
        let p = pop();
        let cdn = p
            .truth
            .iter()
            .find(|t| t.operator.as_deref() == Some("cirrusflare"))
            .unwrap()
            .name
            .clone();
        let dhe = mini_campaign(0..3, vec!["cookpad.sim".into(), cdn.clone()])
            .dhe
            .domain_spans();
        assert!(dhe.contains_key("cookpad.sim"));
        assert!(!dhe.contains_key(&cdn));
    }

    #[test]
    fn attempts_counted() {
        let spans = mini_campaign(0..2, vec!["yahoo.sim".into()]);
        assert_eq!(spans.attempts, 2 * 3, "3 grabs per domain-day");
    }
}
