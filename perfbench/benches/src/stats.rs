//! Exact order statistics, process accounting and the host record.

use ts_core::json::Json;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile on a 50, 90, 99, 99.9, … ladder that still has
/// at least ten samples beyond it, so that its value rests on a tail and
/// not on one or two outliers. `None` below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, 1 / share of samples beyond it)
    const LADDER: [(f64, usize); 6] = [
        (50.0, 2),
        (90.0, 10),
        (99.0, 100),
        (99.9, 1_000),
        (99.99, 10_000),
        (99.999, 100_000),
    ];
    LADDER
        .iter()
        .take_while(|(_, inv_share)| n >= 10 * inv_share)
        .last()
        .map(|(p, _)| *p)
}

/// Latency summary of per-operation samples in nanoseconds, reported in µs.
pub struct Latency {
    pub samples: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub tail_pct: f64,
    pub tail_us: f64,
}

impl Latency {
    pub fn of(mut ns: Vec<u64>) -> Latency {
        ns.sort_unstable();
        let tail_pct = tail_percentile(ns.len()).unwrap_or(50.0);
        Latency {
            samples: ns.len(),
            p50_us: percentile(&ns, 50.0) / 1e3,
            p99_us: percentile(&ns, 99.0) / 1e3,
            tail_pct,
            tail_us: percentile(&ns, tail_pct) / 1e3,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("samples", Json::uint(self.samples as u64)),
            ("p50_us", Json::Float(self.p50_us)),
            ("p99_us", Json::Float(self.p99_us)),
            ("tail_pct", Json::Float(self.tail_pct)),
            ("tail_us", Json::Float(self.tail_us)),
        ])
    }
}

/// User plus system CPU seconds this process has used, all threads,
/// including threads that have already exited.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, counted in USER_HZ (100 on Linux).
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Seconds the calling thread has spent on a CPU, at nanosecond
/// resolution.
pub fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("procfs schedstat");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat starts with on-CPU nanoseconds");
    ns as f64 / 1e9
}

/// Peak resident set size of this process (VmHWM), in kB.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Reset this process's peak RSS to its current RSS, so that the next
/// [`peak_rss_kb`] reads the peak of what runs in between.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("procfs clear_refs is writable");
}

/// Worker threads the benchmark may use: the host's available cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The host a result was measured on: core count, the SIMD paths
/// `ts_crypto` dispatches to (each `available()` gate in that crate is
/// CPUID plus the `portable` build flag), and the build profile.
pub fn host() -> Json {
    let portable = ts_crypto::dispatch::force_portable();
    let feature = |name: &str, detected: bool, honours_portable: bool| {
        (
            name.to_string(),
            Json::obj(vec![
                ("cpu", Json::Bool(detected)),
                (
                    "selected",
                    Json::Bool(detected && !(honours_portable && portable)),
                ),
            ]),
        )
    };
    #[cfg(target_arch = "x86_64")]
    let features = vec![
        feature(
            "aes",
            std::arch::is_x86_feature_detected!("aes")
                && std::arch::is_x86_feature_detected!("sse2"),
            true,
        ),
        feature(
            "pclmulqdq",
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse2"),
            true,
        ),
        feature("avx2", std::arch::is_x86_feature_detected!("avx2"), true),
        // The SHA-NI gate does not consult the portable flag.
        feature(
            "sha",
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1"),
            false,
        ),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let features: Vec<(String, Json)> = Vec::new();
    Json::obj(vec![
        ("nproc", Json::uint(nproc() as u64)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("crypto_portable_build", Json::Bool(portable)),
        ("crypto_dispatch", Json::Object(features)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (opt-level 3, lto off, codegen-units 16)"
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn latency_does_not_interpolate_within_a_bucket() {
        // A resumed mode at 20–30 µs must read as such, not as the middle
        // of a 0–50 µs histogram bucket.
        let mut ns: Vec<u64> = (0..900).map(|i| 20_000 + i * 10).collect();
        ns.extend((0..100).map(|i| 500_000 + i * 1_000));
        let lat = Latency::of(ns);
        assert_eq!(lat.samples, 1_000);
        assert!((lat.p50_us - 24.99).abs() < 0.02, "{}", lat.p50_us);
        assert!(lat.p99_us >= 500.0);
    }

    #[test]
    fn median_of_even_count_is_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn process_readings_are_positive() {
        reset_peak_rss();
        assert!(peak_rss_kb() > 0);
        assert!(process_cpu_s() >= 0.0);
        let t0 = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..10_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        assert!(std::hint::black_box(x) > 0 && thread_cpu_s() > t0);
    }
}
