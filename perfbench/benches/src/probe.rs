//! Unit costs measured by calling one layer's public functions directly.
//!
//! The traced run multiplies these by the work counts the workload made.
//! A layer the workload does not cross still reports its unit cost from
//! here, so every traced run prints every per-layer metric.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;
use ts_crypto::dh::DhGroup;
use ts_crypto::drbg::HmacDrbg;
use ts_crypto::rsa::RsaPrivateKey;
use ts_population::Population;
use ts_scanner::grab::{GrabOptions, SuiteOffer};
use ts_scanner::Scanner;
use ts_simnet::clock::{DAY, MINUTE};
use ts_telemetry::Counter;
use ts_tls::ClientConfig;

use crate::stats::{median, percentile};

/// Nanoseconds per call of `f`: the median over `batches` batches of
/// `iters` calls each.
fn ns_per_call(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_batch)
}

/// `ts_crypto` primitive costs.
pub struct CryptoUnits {
    pub modexp_us: f64,
    pub x25519_us: f64,
    pub rsa_sign_us: f64,
    pub rsa_verify_us: f64,
    pub aes128gcm_mb_per_s: f64,
    pub sha256_mb_per_s: f64,
}

/// Time the primitives a handshake and a protected record spend their
/// time in, at the sizes the simulated population uses (Sim256 DHE,
/// RSA-512 identities, 16 KiB records).
pub fn crypto(seed: u64) -> CryptoUnits {
    let mut rng = HmacDrbg::from_seed_label(seed, "perfbench-crypto");
    let group = DhGroup::Sim256;
    let exp = ts_crypto::bignum::Ub::from_bytes_be(&rng.bytes(group.byte_len()));
    let modexp_ns = ns_per_call(5, 200, || {
        black_box(
            group
                .montgomery()
                .modpow(black_box(group.generator()), &exp),
        );
    });

    let mut scalar = [0u8; 32];
    rng.fill_bytes(&mut scalar);
    let point = ts_crypto::x25519::public_key(&scalar);
    let x25519_ns = ns_per_call(5, 200, || {
        black_box(ts_crypto::x25519::x25519(black_box(&scalar), &point));
    });

    let key = RsaPrivateKey::generate(512, &mut rng).expect("RSA-512 key generation");
    let msg = rng.bytes(32);
    let sig = key.sign(&msg).expect("sign");
    let sign_ns = ns_per_call(5, 100, || {
        black_box(key.sign(black_box(&msg)).expect("sign"));
    });
    let verify_ns = ns_per_call(5, 400, || {
        key.public
            .verify(black_box(&msg), &sig)
            .expect("own signature verifies");
    });

    let record = rng.bytes(16 * 1024);
    let gcm_key = [7u8; ts_crypto::gcm::KEY_LEN];
    let nonce = [9u8; ts_crypto::gcm::NONCE_LEN];
    let gcm_ns = ns_per_call(5, 50, || {
        black_box(ts_crypto::gcm::seal(
            &gcm_key,
            &nonce,
            b"",
            black_box(&record),
        ));
    });
    let sha_ns = ns_per_call(5, 50, || {
        black_box(ts_crypto::sha256::sha256(black_box(&record)));
    });
    let mb_per_s = |ns: f64| record.len() as f64 / ns * 1e3;
    CryptoUnits {
        modexp_us: modexp_ns / 1e3,
        x25519_us: x25519_ns / 1e3,
        rsa_sign_us: sign_ns / 1e3,
        rsa_verify_us: verify_ns / 1e3,
        aes128gcm_mb_per_s: mb_per_s(gcm_ns),
        sha256_mb_per_s: mb_per_s(sha_ns),
    }
}

static PROBE_COUNTER: Counter = Counter::new("perfbench.probe.counter_inc");

/// Nanoseconds per `Counter::inc`, with `threads` threads incrementing the
/// same counter at once (1 = uncontended).
pub fn counter_inc_ns(threads: usize) -> f64 {
    const INCS: usize = 2_000_000;
    let start = Barrier::new(threads);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let t0 = Instant::now();
                    for _ in 0..INCS {
                        black_box(&PROBE_COUNTER).inc();
                    }
                    t0.elapsed().as_nanos() as f64 / INCS as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("counter probe thread"))
            .collect()
    });
    median(&per_thread)
}

/// `ts_simnet` and `ts_scanner` unit costs.
pub struct NetUnits {
    pub dns_resolve_ns: f64,
    pub connect_us: f64,
    pub grab_p50_us: f64,
    pub grab_p99_us: f64,
}

/// Resolve, connect to and grab each of `domains` once, on `day` at the
/// campaign's scan time. Virtual time in the population only moves
/// forward, so call this after every pass that scans `pop`, with a day at
/// or after the last one scanned.
pub fn net(pop: &Population, domains: &[String], day: u64) -> NetUnits {
    let now = day * DAY + 6 * 3_600;
    let mut rng = HmacDrbg::from_seed_label(pop.config.seed, "perfbench-net");

    let resolve_ns = ns_per_call(5, 20, || {
        for d in domains {
            black_box(pop.dns.resolve(black_box(d), &mut rng));
        }
    }) / domains.len() as f64;

    let mut connect_ns = Vec::with_capacity(domains.len());
    for d in domains {
        let Some(ip) = pop.dns.resolve(d, &mut rng) else {
            continue;
        };
        let cfg = ClientConfig::new(pop.root_store.clone(), d, now);
        let t0 = Instant::now();
        let conn = pop.net.connect(ip, cfg, now, &mut rng);
        connect_ns.push(t0.elapsed().as_nanos() as u64);
        black_box(conn.is_ok());
    }
    connect_ns.sort_unstable();

    let mut scanner = Scanner::new(pop, "perfbench-net");
    let offers = [
        (GrabOptions::new(), 0),
        (GrabOptions::new().suites(SuiteOffer::DheOnly), MINUTE),
        (
            GrabOptions::new().suites(SuiteOffer::EcdheThenRsa),
            2 * MINUTE,
        ),
    ];
    let mut grab_ns = Vec::with_capacity(3 * domains.len());
    for d in domains {
        for (opts, offset) in &offers {
            let t0 = Instant::now();
            let g = scanner.grab(d, now + 3 * MINUTE + offset, opts);
            grab_ns.push(t0.elapsed().as_nanos() as u64);
            black_box(g.ok().is_some());
        }
    }
    grab_ns.sort_unstable();
    NetUnits {
        dns_resolve_ns: resolve_ns,
        connect_us: percentile(&connect_ns, 50.0) / 1e3,
        grab_p50_us: percentile(&grab_ns, 50.0) / 1e3,
        grab_p99_us: percentile(&grab_ns, 99.0) / 1e3,
    }
}
