//! Connection buffers are recycled per thread: a connection takes its
//! reassembly, outgoing and receive buffers from the thread's free list and
//! gives them back, zeroed, when it drops. Recycling must be invisible to
//! the protocol. Hundreds of sequential 40,000-byte echoes on one thread,
//! across all three record protections, with the client and server dropped
//! in alternating order and one pair dropped on another thread, must echo
//! every byte and produce the same transcript hashes as a fresh process in
//! which no connection ever reuses a buffer.

use std::process::Command;
use std::sync::{Arc, OnceLock};
use std::thread;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPrivateKey;
use ts_tls::config::{ClientConfig, ServerConfig, ServerIdentity};
use ts_tls::ephemeral::{EphemeralCache, EphemeralPolicy};
use ts_tls::pump::{pump, pump_app_data};
use ts_tls::suites::CipherSuite;
use ts_tls::{ClientConn, ServerConn};
use ts_x509::{Certificate, CertificateParams, DistinguishedName, RootStore, Validity};

const HOST: &str = "recycle.sim";

/// Sequential echoes in one run.
const ECHOES: usize = 300;

/// Application bytes each way per echo: two full 2^14-byte records and a
/// partial third.
const ECHO_BYTES: usize = 40_000;

/// One suite per record protection; echo `i` uses `SUITES[i % 3]`.
const SUITES: [CipherSuite; 3] = [
    CipherSuite::EcdheRsaAes128GcmSha256,
    CipherSuite::EcdheRsaChaCha20Poly1305,
    CipherSuite::EcdheRsaAes128CbcSha256,
];

/// The echo whose connections are dropped on another thread.
const CROSS_THREAD: usize = ECHOES / 2;

/// Marks the reference run's fingerprint lines in the child's output.
const LINE_PREFIX: &str = "transcript ";

struct Env {
    store: Arc<RootStore>,
    identity: Arc<ServerIdentity>,
}

fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let mut rng = HmacDrbg::new(b"recycle-env");
        let key = RsaPrivateKey::generate(512, &mut rng).unwrap();
        let name = DistinguishedName::cn(HOST);
        let cert = Certificate::issue(
            &CertificateParams {
                serial: 1,
                subject: name.clone(),
                validity: Validity {
                    not_before: 0,
                    not_after: u32::MAX as u64,
                },
                dns_names: vec![HOST.into()],
                is_ca: true,
            },
            &key.public,
            &name,
            &key,
        );
        let mut store = RootStore::new();
        store.add_root(cert.clone());
        Env {
            store: Arc::new(store),
            identity: Arc::new(ServerIdentity {
                chain: vec![cert],
                key,
            }),
        }
    })
}

/// Handshake number `i` from fixed seeds, then echo [`ECHO_BYTES`] seeded
/// bytes through it. Returns the still-open pair and a fingerprint of the
/// run: the transcript hash and the SHA-256 of the whole wire capture.
fn echo(i: usize) -> (ClientConn, ServerConn, String) {
    let e = env();
    let suite = SUITES[i % SUITES.len()];
    let eph = EphemeralCache::new(
        EphemeralPolicy::FreshPerHandshake,
        ts_crypto::dh::DhGroup::Sim256,
        HmacDrbg::new(format!("recycle-eph-{i}").as_bytes()),
    );
    let mut cfg = ServerConfig::new(e.identity.clone(), eph);
    cfg.suites = vec![suite];
    let mut client = ClientConn::new(
        ClientConfig::new(e.store.clone(), HOST, 100),
        HmacDrbg::new(format!("recycle-c-{i}").as_bytes()),
    );
    let mut server = ServerConn::new(cfg, HmacDrbg::new(format!("recycle-s-{i}").as_bytes()), 100);
    let mut wire = pump(&mut client, &mut server).unwrap().capture;
    assert!(
        client.is_established() && server.is_established(),
        "echo {i}"
    );
    assert_eq!(client.summary().unwrap().cipher_suite, suite);

    let payload = HmacDrbg::new(format!("recycle-payload-{i}").as_bytes()).bytes(ECHO_BYTES);
    client.send_app_data(&payload).unwrap();
    pump_app_data(&mut client, &mut server, &mut wire).unwrap();
    let upstream = server.recv_app_data();
    assert!(
        upstream == payload,
        "echo {i} ({suite:?}): upstream differs"
    );
    server.send_app_data(&upstream).unwrap();
    pump_app_data(&mut client, &mut server, &mut wire).unwrap();
    assert!(
        client.recv_app_data() == payload,
        "echo {i} ({suite:?}): downstream differs"
    );
    let transcript = client.transcript_hash();
    assert_eq!(transcript, server.transcript_hash(), "echo {i}");
    let mut bytes = wire.client_to_server;
    bytes.extend_from_slice(&wire.server_to_client);
    let fingerprint = format!(
        "{} {}",
        hex(&transcript),
        hex(&ts_crypto::sha256::sha256(&bytes))
    );
    (client, server, fingerprint)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every echo on one thread, so each connection after the first runs on
/// buffers its predecessors released.
#[test]
fn recycled_buffers_match_a_fresh_process() {
    let mut recycled = Vec::with_capacity(ECHOES);
    for i in 0..ECHOES {
        let (client, server, fingerprint) = echo(i);
        recycled.push(fingerprint);
        if i == CROSS_THREAD {
            thread::spawn(move || drop((server, client)))
                .join()
                .unwrap();
        } else if i % 2 == 0 {
            drop(client);
            drop(server);
        } else {
            drop(server);
            drop(client);
        }
    }

    let out = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "transcripts_without_recycling", "--nocapture"])
        .output()
        .unwrap();
    assert!(out.status.success(), "reference run failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let fresh: Vec<(usize, &str)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix(LINE_PREFIX)?.split_once(' '))
        .map(|(i, fingerprint)| (i.parse().unwrap(), fingerprint))
        .collect();
    assert_eq!(fresh.len(), ECHOES, "the reference run printed every echo");
    for (i, (got, &(n, want))) in recycled.iter().zip(&fresh).enumerate() {
        assert_eq!(n, i, "reference lines in echo order");
        assert_eq!(got, want, "echo {i} ({:?})", SUITES[i % SUITES.len()]);
    }
}

/// The reference for the test above, which runs it in a child process:
/// each echo on a thread of its own, so no connection ever takes a
/// recycled buffer. Prints one fingerprint per echo.
#[test]
fn transcripts_without_recycling() {
    for i in 0..ECHOES {
        let fingerprint = thread::spawn(move || echo(i).2).join().unwrap();
        println!("{LINE_PREFIX}{i} {fingerprint}");
    }
}
