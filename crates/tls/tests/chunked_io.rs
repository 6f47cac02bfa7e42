//! The sans-I/O contract: `read_tls` must accept transport bytes in any
//! chunking — single bytes, mid-record cuts, whole flights — and produce
//! exactly the handshake that single-shot delivery produces. The property
//! test drives the same seeded handshake under arbitrary chunk schedules
//! and asserts the transcript hash, master secret, and full wire capture
//! are identical to the reference run. A pinned known-answer capture of a
//! 40,000-byte echo extends the same contract to protected records.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPrivateKey;
use ts_tls::config::{ClientConfig, ServerConfig, ServerIdentity};
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::suites::CipherSuite;
use ts_tls::{ClientConn, ConnectionCommon, ServerConn};
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

/// CA + leaf built once; the per-handshake pieces (ephemeral cache, DRBGs)
/// are reconstructed from fixed seeds per run so every handshake is
/// byte-identical to every other.
struct Env {
    store: Arc<RootStore>,
    identity: Arc<ServerIdentity>,
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let mut rng = HmacDrbg::new(b"chunked-io-env");
        let ca_key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let ca_name = DistinguishedName::cn("Chunk CA");
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
        let key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let leaf = Certificate::issue(
            &CertificateParams {
                serial: 2,
                subject: DistinguishedName::cn("chunk.sim"),
                validity: Validity {
                    not_before: 0,
                    not_after: u32::MAX as u64,
                },
                dns_names: vec!["chunk.sim".into()],
                is_ca: false,
            },
            &key.public,
            &ca_name,
            &ca_key,
        );
        let mut store = RootStore::new();
        store.add_root(ca);
        Env {
            store: Arc::new(store),
            identity: Arc::new(ServerIdentity {
                chain: vec![leaf],
                key,
            }),
        }
    })
}

fn fresh_pair() -> (ClientConn, ServerConn) {
    fresh_pair_with(None)
}

/// [`fresh_pair`] with the server restricted to `suite` when given.
fn fresh_pair_with(suite: Option<CipherSuite>) -> (ClientConn, ServerConn) {
    let e = env();
    // Fresh ephemeral cache per handshake, same seed: identical server
    // key-exchange bytes on every run.
    let eph = EphemeralCache::new(
        EphemeralPolicy::FreshPerHandshake,
        ts_crypto::dh::DhGroup::Sim256,
        HmacDrbg::new(b"chunk-eph"),
    );
    let mut cfg = ServerConfig::new(e.identity.clone(), eph);
    if let Some(suite) = suite {
        cfg.suites = vec![suite];
    }
    let client = ClientConn::new(
        ClientConfig::new(e.store.clone(), "chunk.sim", 100),
        HmacDrbg::new(b"chunk-c"),
    );
    let server = ServerConn::new(cfg, HmacDrbg::new(b"chunk-s"), 100);
    (client, server)
}

fn drain(conn: &mut ConnectionCommon) -> Vec<u8> {
    let mut buf = Vec::new();
    while conn.wants_write() {
        conn.write_tls(&mut buf).unwrap();
    }
    buf
}

/// Deliver `bytes` to `dst` under the chunk schedule, processing after
/// every chunk — partial records and split handshake messages are fine:
/// a mid-record `process_new_packets` just reports no new packets yet.
fn deliver_chunked<T: std::ops::DerefMut<Target = ConnectionCommon>>(
    dst: &mut T,
    bytes: &[u8],
    chunks: &mut dyn Iterator<Item = usize>,
    process: &dyn Fn(&mut T),
) {
    let mut pos = 0;
    while pos < bytes.len() {
        let take = chunks.next().unwrap_or(64).clamp(1, bytes.len() - pos);
        let mut rd: &[u8] = &bytes[pos..pos + take];
        while !rd.is_empty() {
            dst.read_tls(&mut rd).unwrap();
        }
        pos += take;
        process(dst);
    }
}

struct Outcome {
    transcript: [u8; 32],
    master: [u8; 48],
    client_to_server: Vec<u8>,
    server_to_client: Vec<u8>,
}

/// A chunk schedule: `plan` cycled, or single-shot delivery for `None`.
fn chunk_schedule(chunk_plan: Option<Vec<usize>>) -> Box<dyn Iterator<Item = usize>> {
    match chunk_plan {
        Some(plan) if !plan.is_empty() => Box::new(plan.into_iter().cycle()),
        _ => Box::new(std::iter::repeat(usize::MAX)),
    }
}

/// Shuttle bytes both ways under `chunks` until neither side has output,
/// appending everything each side sent to `c2s` / `s2c`.
fn exchange(
    client: &mut ClientConn,
    server: &mut ServerConn,
    chunks: &mut dyn Iterator<Item = usize>,
    c2s: &mut Vec<u8>,
    s2c: &mut Vec<u8>,
) {
    for _ in 0..16 {
        let mut progressed = false;
        let from_client = drain(client);
        if !from_client.is_empty() {
            progressed = true;
            c2s.extend_from_slice(&from_client);
            deliver_chunked(server, &from_client, chunks, &|s| {
                s.process_new_packets().unwrap();
            });
        }
        let from_server = drain(server);
        if !from_server.is_empty() {
            progressed = true;
            s2c.extend_from_slice(&from_server);
            deliver_chunked(client, &from_server, chunks, &|c| {
                c.process_new_packets().unwrap();
            });
        }
        if !progressed {
            break;
        }
    }
}

/// Run the fixed-seed handshake delivering bytes per `chunk_plan`
/// (cycled; `None` = single-shot).
fn run_handshake(chunk_plan: Option<Vec<usize>>) -> Outcome {
    let (mut client, mut server) = fresh_pair();
    let mut chunks = chunk_schedule(chunk_plan);
    let mut c2s = Vec::new();
    let mut s2c = Vec::new();
    exchange(&mut client, &mut server, &mut chunks, &mut c2s, &mut s2c);
    assert!(client.is_established(), "client established");
    assert!(server.is_established(), "server established");
    Outcome {
        transcript: client.transcript_hash(),
        master: client.master_secret().expect("client master"),
        client_to_server: c2s,
        server_to_client: s2c,
    }
}

/// Application bytes each way in the echo KAT: two full 2^14-byte
/// records and a partial third.
const ECHO_BYTES: usize = 40_000;

/// Handshake on `suite`, then the client sends [`ECHO_BYTES`] seeded
/// bytes and the server echoes them back. Returns the SHA-256 of the
/// whole wire capture (client-to-server bytes, then server-to-client).
fn echo_capture_hash(suite: CipherSuite, chunk_plan: Option<Vec<usize>>) -> String {
    let (mut client, mut server) = fresh_pair_with(Some(suite));
    let mut chunks = chunk_schedule(chunk_plan);
    let mut c2s = Vec::new();
    let mut s2c = Vec::new();
    exchange(&mut client, &mut server, &mut chunks, &mut c2s, &mut s2c);
    assert!(client.is_established() && server.is_established());
    let payload = HmacDrbg::new(b"chunk-echo").bytes(ECHO_BYTES);
    client.send_app_data(&payload).unwrap();
    exchange(&mut client, &mut server, &mut chunks, &mut c2s, &mut s2c);
    let upstream = server.recv_app_data();
    assert!(upstream == payload, "server received the payload");
    server.send_app_data(&upstream).unwrap();
    exchange(&mut client, &mut server, &mut chunks, &mut c2s, &mut s2c);
    assert!(
        client.recv_app_data() == payload,
        "client received the echo"
    );
    let mut wire = c2s;
    wire.extend_from_slice(&s2c);
    ts_crypto::sha256::sha256(&wire)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// The echo captures, one per record protection. Records are
/// deterministic (the per-record nonce and IV derive from the sequence
/// number), so these pin every byte the record layer puts on the wire.
const ECHO_KATS: [(CipherSuite, &str); 3] = [
    (
        CipherSuite::EcdheRsaAes128GcmSha256,
        "ba2c8abdd018f1d6453b95144ee945cc242c6e386d1657153f9e58cb6eaac4a1",
    ),
    (
        CipherSuite::EcdheRsaChaCha20Poly1305,
        "fa07efd4e3f62a948fc05ba8ee2b2258d121e68ff4c4e8a929da53a0806322b2",
    ),
    (
        CipherSuite::EcdheRsaAes128CbcSha256,
        "ab12acdc541b5f54dd89d793d555865ec74c9c3c79ac1fc00fe3cd6725c4f8ea",
    ),
];

fn reference() -> &'static Outcome {
    static REF: OnceLock<Outcome> = OnceLock::new();
    REF.get_or_init(|| run_handshake(None))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_delivery_matches_single_shot(
        plan in proptest::collection::vec(1usize..600, 1..12),
    ) {
        let reference = reference();
        let chunked = run_handshake(Some(plan));
        prop_assert_eq!(chunked.transcript, reference.transcript);
        prop_assert_eq!(chunked.master, reference.master);
        prop_assert_eq!(chunked.client_to_server, reference.client_to_server);
        prop_assert_eq!(chunked.server_to_client, reference.server_to_client);
    }
}

#[test]
fn one_byte_at_a_time_still_handshakes() {
    let reference = reference();
    let byte_by_byte = run_handshake(Some(vec![1]));
    assert_eq!(byte_by_byte.transcript, reference.transcript);
    assert_eq!(byte_by_byte.master, reference.master);
    assert_eq!(byte_by_byte.client_to_server, reference.client_to_server);
    assert_eq!(byte_by_byte.server_to_client, reference.server_to_client);
}

#[test]
fn echo_wire_capture_matches_kat() {
    for (suite, want) in ECHO_KATS {
        assert_eq!(echo_capture_hash(suite, None), want, "{suite:?}");
    }
}

#[test]
fn echo_one_byte_at_a_time_matches_kat() {
    let (suite, want) = ECHO_KATS[0];
    assert_eq!(echo_capture_hash(suite, Some(vec![1])), want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn chunked_echo_matches_kat(
        plan in proptest::collection::vec(1usize..20_000, 1..8),
        which in 0usize..3,
    ) {
        let (suite, want) = ECHO_KATS[which];
        prop_assert_eq!(echo_capture_hash(suite, Some(plan)), want);
    }
}
