//! DNS: A records, MX records, and resolution jitter.
//!
//! Two paper-relevant behaviours live here. First, domains can map to
//! *multiple* A records and the resolver picks one per query — the "ZMap
//! tool-chain's choice of A-record entries between days" that §4.3 cites as
//! a jitter source the first/last-seen STEK estimator must absorb. Second,
//! MX records let the §7.2 analysis count domains whose mail flows through
//! a provider's SMTP endpoints.

use crate::addr::Ip;
use std::collections::BTreeMap;
use ts_crypto::drbg::HmacDrbg;
use ts_telemetry::Counter;

static DNS_HIT: Counter = Counter::new("simnet.dns.hit");
static DNS_MISS: Counter = Counter::new("simnet.dns.miss");

/// The simulation's DNS zone.
#[derive(Debug, Default)]
pub struct Dns {
    // Ordered: `domains_with_mx` scans mx_records for the §7.2 census, so
    // the zone's walk order must not depend on the hash seed.
    a_records: BTreeMap<String, Vec<Ip>>,
    mx_records: BTreeMap<String, String>,
}

impl Dns {
    /// Empty zone.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register A records for `domain` (replaces existing).
    pub fn set_a(&mut self, domain: &str, ips: Vec<Ip>) {
        assert!(!ips.is_empty(), "a domain needs at least one A record");
        self.a_records.insert(domain.to_ascii_lowercase(), ips);
    }

    /// Register an MX record: mail for `domain` handled by `mail_host`.
    pub fn set_mx(&mut self, domain: &str, mail_host: &str) {
        self.mx_records
            .insert(domain.to_ascii_lowercase(), mail_host.to_ascii_lowercase());
    }

    /// All A records for `domain`.
    pub fn lookup_all(&self, domain: &str) -> Option<&[Ip]> {
        self.a_records
            .get(&domain.to_ascii_lowercase())
            .map(|v| v.as_slice())
    }

    /// Resolve one A record, picking uniformly — the per-query jitter.
    pub fn resolve(&self, domain: &str, rng: &mut HmacDrbg) -> Option<Ip> {
        let ips = match self.lookup_all(domain) {
            Some(ips) => {
                DNS_HIT.inc();
                ips
            }
            None => {
                DNS_MISS.inc();
                return None;
            }
        };
        Some(ips[rng.gen_range(ips.len() as u64) as usize])
    }

    /// The MX target for `domain`.
    pub fn lookup_mx(&self, domain: &str) -> Option<&str> {
        self.mx_records
            .get(&domain.to_ascii_lowercase())
            .map(|s| s.as_str())
    }

    /// Domains whose MX points at `mail_host` (the §7.2 census), in name
    /// order — the zone map is ordered, so no explicit sort is needed.
    pub fn domains_with_mx(&self, mail_host: &str) -> Vec<&str> {
        let needle = mail_host.to_ascii_lowercase();
        self.mx_records
            .iter()
            .filter(|(_, target)| **target == needle)
            .map(|(d, _)| d.as_str())
            .collect()
    }

    /// Number of registered domains (A records).
    pub fn len(&self) -> usize {
        self.a_records.len()
    }

    /// True if the zone is empty.
    pub fn is_empty(&self) -> bool {
        self.a_records.is_empty()
    }

    /// A restricted copy of the zone covering only `domains` — the DNS
    /// view a population shard hands its workers. A and MX records carry
    /// over verbatim; lookups outside the subset miss, exactly as if the
    /// shard's resolver knew nothing beyond its slice of the world.
    pub fn subzone<'a>(&self, domains: impl IntoIterator<Item = &'a str>) -> Dns {
        let mut out = Dns::new();
        for d in domains {
            let key = d.to_ascii_lowercase();
            if let Some(ips) = self.a_records.get(&key) {
                out.a_records.insert(key.clone(), ips.clone());
            }
            if let Some(mx) = self.mx_records.get(&key) {
                out.mx_records.insert(key, mx.clone());
            }
        }
        out
    }

    /// Remove a domain entirely (churn).
    pub fn remove(&mut self, domain: &str) {
        let key = domain.to_ascii_lowercase();
        self.a_records.remove(&key);
        self.mx_records.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_resolve() {
        let mut dns = Dns::new();
        dns.set_a("Example.SIM", vec![Ip(1), Ip(2)]);
        let mut rng = HmacDrbg::new(b"dns");
        let ip = dns.resolve("example.sim", &mut rng).unwrap();
        assert!(ip == Ip(1) || ip == Ip(2));
        assert_eq!(dns.lookup_all("EXAMPLE.sim").unwrap().len(), 2);
        assert!(dns.resolve("missing.sim", &mut rng).is_none());
    }

    #[test]
    fn multi_a_record_jitter_covers_all_records() {
        let mut dns = Dns::new();
        dns.set_a("lb.sim", vec![Ip(1), Ip(2), Ip(3)]);
        let mut rng = HmacDrbg::new(b"jitter");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(dns.resolve("lb.sim", &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3, "all A records eventually chosen");
    }

    #[test]
    fn mx_census() {
        let mut dns = Dns::new();
        dns.set_a("a.sim", vec![Ip(1)]);
        dns.set_mx("a.sim", "smtp.bigmail.sim");
        dns.set_mx("b.sim", "smtp.bigmail.sim");
        dns.set_mx("c.sim", "mail.other.sim");
        assert_eq!(dns.lookup_mx("a.sim"), Some("smtp.bigmail.sim"));
        assert_eq!(
            dns.domains_with_mx("smtp.bigmail.sim"),
            vec!["a.sim", "b.sim"]
        );
        assert_eq!(dns.domains_with_mx("SMTP.BIGMAIL.SIM").len(), 2);
        assert!(dns.domains_with_mx("none.sim").is_empty());
    }

    #[test]
    fn subzone_covers_exactly_the_subset() {
        let mut dns = Dns::new();
        dns.set_a("a.sim", vec![Ip(1), Ip(2)]);
        dns.set_a("b.sim", vec![Ip(3)]);
        dns.set_a("c.sim", vec![Ip(4)]);
        dns.set_mx("a.sim", "smtp.bigmail.sim");
        dns.set_mx("b.sim", "smtp.bigmail.sim");
        let sub = dns.subzone(["a.sim", "b.sim", "nosuch.sim"]);
        assert_eq!(sub.len(), 2);
        assert_eq!(
            sub.lookup_all("a.sim").unwrap(),
            dns.lookup_all("a.sim").unwrap()
        );
        assert_eq!(sub.lookup_mx("b.sim"), Some("smtp.bigmail.sim"));
        assert!(sub.lookup_all("c.sim").is_none(), "outside the subset");
        assert!(sub.lookup_all("nosuch.sim").is_none());
        // The parent zone is untouched.
        assert_eq!(dns.len(), 3);
    }

    #[test]
    fn removal_churns_both_tables() {
        let mut dns = Dns::new();
        dns.set_a("gone.sim", vec![Ip(9)]);
        dns.set_mx("gone.sim", "mx.sim");
        dns.remove("gone.sim");
        assert!(dns.lookup_all("gone.sim").is_none());
        assert!(dns.lookup_mx("gone.sim").is_none());
        assert!(dns.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one A record")]
    fn empty_a_record_set_panics() {
        Dns::new().set_a("bad.sim", vec![]);
    }
}
