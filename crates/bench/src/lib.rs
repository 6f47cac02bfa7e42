//! # ts-bench — the experiment harness
//!
//! One function per paper artefact (Tables 1–7, Figures 1–8, the §7.2
//! target analysis), shared between the `repro` binary and the Criterion
//! benches. Every experiment runs against a seeded [`Context`] and returns
//! both structured results and a rendered report with paper-vs-measured
//! columns.
//!
//! The heavyweight scans (daily campaign, burst scans, probes) fan out
//! across scoped threads ([`ts_core::par`]); results are deterministic
//! for a fixed (seed, size) pair at any worker count because every worker
//! derives its DRBG from its chunk index, and the chunk layout depends
//! only on the item count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_smoke;
pub mod exp_ablation;
pub mod exp_campaign;
pub mod exp_exposure;
pub mod exp_lifetimes;
pub mod exp_sharing;
pub mod exp_support;
pub mod exp_target;
pub mod exp_tls13;

use std::sync::OnceLock;
use ts_population::{Population, PopulationConfig};

/// Seconds per day.
pub const DAY: u64 = 86_400;
/// Seconds per hour.
pub const HOUR: u64 = 3_600;

/// A built world plus lazily computed shared artefacts.
///
/// Simulated virtual time only moves forward inside a `Population` (STEK
/// managers rotate monotonically), so experiments that scan *different*
/// virtual time windows must not share one mutable world: each experiment
/// builds its own via [`Context::fresh_pop`] — byte-identical, since the
/// build is a pure function of the config.
pub struct Context {
    /// The population config every experiment world is built from.
    pub config: PopulationConfig,
    /// A read-mostly reference world (ground truth, DNS, ranks).
    pub pop: Population,
    /// Browser-trusted stable-core domains (the paper's 291,643 analogue).
    pub core_trusted: Vec<String>,
    campaign: OnceLock<exp_campaign::Campaign>,
}

impl Context {
    /// Build a context at the given scale.
    pub fn new(seed: u64, size: usize) -> Self {
        Self::from_config(PopulationConfig::new(seed, size))
    }

    /// Build with a custom population config.
    pub fn from_config(cfg: PopulationConfig) -> Self {
        let pop = Population::build(cfg.clone());
        let core_trusted = pop.core_trusted();
        Context {
            config: cfg,
            pop,
            core_trusted,
            campaign: OnceLock::new(),
        }
    }

    /// A pristine, byte-identical world for one experiment's exclusive use.
    pub fn fresh_pop(&self) -> Population {
        Population::build(self.config.clone())
    }

    /// The shared 63-day campaign (run once, reused by Figures 3–5 and
    /// Tables 2–4).
    pub fn campaign(&self) -> &exp_campaign::Campaign {
        self.campaign
            .get_or_init(|| exp_campaign::run_daily_campaign(self))
    }
}

// The fan-out primitives moved to ts-core so every crate (and the
// telemetry determinism tests) can share them; re-exported here for
// source compatibility with existing callers.
pub use ts_core::par::{default_workers, parallel_map};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_and_caches_campaign() {
        let ctx = Context::new(3, 200);
        assert!(!ctx.core_trusted.is_empty());
        let c1 = ctx.campaign() as *const _;
        let c2 = ctx.campaign() as *const _;
        assert_eq!(c1, c2, "campaign computed once");
    }
}
