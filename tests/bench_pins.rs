//! The pin file, checked: every deterministic work count in `BENCH.json`
//! must be what the code does today.
//!
//! The `loadgen_smoke`, `loadgen_bulk` and `campaign_smoke` sections each
//! name a `repro` invocation (`args`) and the columns its stdout JSON must
//! carry (`expect`); they run `repro` as a subprocess. `handshake_work`
//! runs its handshakes in this process and reads the crypto counters
//! around them. A mismatch names the differing field, e.g.
//! `loadgen_smoke.expect.work.full: expected 80, got 81`.
//!
//! Timing is not pinned here: rates move between hosts and come from
//! `python3 perfbench/run.py`.

use std::path::Path;
use std::process::{Command, Output};
use std::sync::Arc;
use ts_core::json::Json;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPrivateKey;
use ts_tls::config::{ClientConfig, ServerConfig, ServerIdentity};
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::pump::pump;
use ts_tls::suites::CipherSuite;
use ts_tls::{ClientConn, ServerConn};
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

/// One section of `BENCH.json`, after checking the file's schema.
fn pins(section: &str) -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH.json");
    let text = std::fs::read_to_string(&path).expect("read BENCH.json");
    let pins = Json::parse(&text).expect("BENCH.json is valid JSON");
    assert_eq!(
        pins.field("schema").and_then(Json::as_str),
        Ok("bench/v2"),
        "BENCH.json schema"
    );
    pins.field(section).expect("BENCH.json section").clone()
}

/// Push one line per field of `want` that `got` lacks or holds with a
/// different value. Objects match as subsets (keys `want` leaves out are
/// not checked); arrays of equal length match element by element.
fn mismatches(path: &str, want: &Json, got: &Json, out: &mut Vec<String>) {
    match (want, got) {
        (Json::Object(fields), Json::Object(_)) => {
            for (key, w) in fields {
                let field = format!("{path}.{key}");
                let Some(g) = got.get(key) else {
                    out.push(format!("{field}: missing, expected {}", w.to_json_string()));
                    continue;
                };
                mismatches(&field, w, g, out);
            }
        }
        (Json::Array(ws), Json::Array(gs)) if ws.len() == gs.len() => {
            for (i, (w, g)) in ws.iter().zip(gs).enumerate() {
                mismatches(&format!("{path}[{i}]"), w, g, out);
            }
        }
        _ if want == got => {}
        _ => out.push(format!(
            "{path}: expected {}, got {}",
            want.to_json_string(),
            got.to_json_string()
        )),
    }
}

fn assert_pinned(path: &str, want: &Json, got: &Json) {
    let mut out = Vec::new();
    mismatches(path, want, got, &mut out);
    assert!(
        out.is_empty(),
        "BENCH.json pin differs from this build:\n  {}",
        out.join("\n  ")
    );
}

/// Run the `repro` binary cargo built for this test. `CARGO_BIN_EXE_*` is
/// resolved at compile time, so a missing binary fails the spawn rather
/// than skipping the check.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// Run the invocation a subprocess section pins, check its `expect`
/// columns, and return the section and the parsed stdout.
fn run_section(name: &str) -> (Json, Json) {
    let section = pins(name);
    let args: Vec<&str> = section
        .field("args")
        .and_then(Json::as_array)
        .expect("args array")
        .iter()
        .map(|a| a.as_str().expect("args are strings"))
        .collect();
    let out = repro(&args);
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let got = Json::parse(&stdout).expect("repro printed one JSON document");
    let want = section.field("expect").expect("expect object");
    assert_pinned(&format!("{name}.expect"), want, &got);
    (section, got)
}

#[test]
fn loadgen_smoke_work_matches_pins() {
    run_section("loadgen_smoke");
}

#[test]
fn loadgen_bulk_work_matches_pins() {
    run_section("loadgen_bulk");
}

#[test]
fn campaign_smoke_columns_match_pins() {
    let (section, got) = run_section("campaign_smoke");
    let span = section
        .field("top_stek_reusers_span_days")
        .and_then(Json::as_u64)
        .expect("top_stek_reusers_span_days");
    let rows = got
        .field("top_stek_reusers")
        .and_then(Json::as_array)
        .expect("top_stek_reusers array");
    assert!(!rows.is_empty(), "campaign_smoke: no top_stek_reusers rows");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.field("span_days").and_then(Json::as_u64),
            Ok(span),
            "campaign_smoke top_stek_reusers[{i}].span_days (top_stek_reusers_span_days)"
        );
    }
}

#[test]
fn unknown_flag_exits_2_before_any_work() {
    // The removed throughput-probe flag is now just an unknown flag: it
    // must be rejected at parse time, not taken for an experiment name
    // after a population build.
    let out = repro(&["--bench-smoke"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "exit status; stderr:\n{stderr}");
    assert!(out.stdout.is_empty(), "stdout not empty");
    assert!(
        !stderr.contains("building population"),
        "population built before the flag was rejected:\n{stderr}"
    );
}

/// Handshakes counted per suite, after one uncounted warm-up.
const ITERS: u64 = 24;

/// The three key-exchange families the paper's cost model distinguishes.
const SUITES: [CipherSuite; 3] = [
    CipherSuite::DheRsaAes128CbcSha256,
    CipherSuite::EcdheRsaChaCha20Poly1305,
    CipherSuite::RsaAes128CbcSha256,
];

struct World {
    store: Arc<RootStore>,
    config: ServerConfig,
}

/// A minimal CA + leaf + server world with per-handshake-fresh ephemerals,
/// so every handshake pays the full key-exchange cost.
fn world() -> World {
    let mut rng = HmacDrbg::new(b"handshake-pins-world");
    let ca_key = RsaPrivateKey::generate(512, &mut rng).expect("ca key");
    let ca_name = DistinguishedName::cn("Smoke CA");
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
    let key = RsaPrivateKey::generate(512, &mut rng).expect("leaf key");
    let leaf = Certificate::issue(
        &CertificateParams {
            serial: 2,
            subject: DistinguishedName::cn("smoke.sim"),
            validity: Validity {
                not_before: 0,
                not_after: u32::MAX as u64,
            },
            dns_names: vec!["smoke.sim".into()],
            is_ca: false,
        },
        &key.public,
        &ca_name,
        &ca_key,
    );
    let mut store = RootStore::new();
    store.add_root(ca);
    let identity = Arc::new(ServerIdentity {
        chain: vec![leaf],
        key,
    });
    let eph = EphemeralCache::new(
        EphemeralPolicy::FreshPerHandshake,
        ts_crypto::dh::DhGroup::Sim256,
        HmacDrbg::new(b"handshake-pins-eph"),
    );
    World {
        store: Arc::new(store),
        config: ServerConfig::new(identity, eph),
    }
}

fn one_handshake(w: &World, suite: CipherSuite, seed: u64) {
    let mut ccfg = ClientConfig::new(w.store.clone(), "smoke.sim", 100);
    ccfg.suites = vec![suite];
    let mut client = ClientConn::new(ccfg, HmacDrbg::from_seed_label(seed, "smoke-c"));
    let mut server = ServerConn::new(
        w.config.clone(),
        HmacDrbg::from_seed_label(seed, "smoke-s"),
        100,
    );
    pump(&mut client, &mut server).expect("handshake");
}

#[test]
fn handshake_work_matches_pins() {
    // The counters are process-global, so these deltas are exact only
    // because this is the one test in this binary that does crypto in
    // process (the others drive `repro` as a subprocess). That holds
    // until telemetry gets a run-scoped recorder (ROADMAP.md, run-scoped
    // telemetry); keep any new in-process crypto out of this file.
    let w = world();
    let mut rows = Vec::new();
    for (si, suite) in SUITES.iter().enumerate() {
        // Warm the per-process caches (Montgomery contexts, group
        // constants) before counting.
        one_handshake(&w, *suite, 1_000 * si as u64);
        let before = ts_telemetry::snapshot();
        for i in 0..ITERS {
            one_handshake(&w, *suite, 1_000 * si as u64 + 1 + i);
        }
        let after = ts_telemetry::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        rows.push(Json::obj(vec![
            ("suite", Json::str(format!("{suite:?}"))),
            ("handshakes", Json::uint(ITERS)),
            ("modexps", Json::uint(delta("crypto.modexp.total"))),
            (
                "mont_cache_hits",
                Json::uint(delta("crypto.mont.cache.hit")),
            ),
        ]));
    }
    let want = pins("handshake_work");
    assert_pinned(
        "handshake_work.suites",
        want.field("suites").expect("suites array"),
        &Json::Array(rows),
    );
}
