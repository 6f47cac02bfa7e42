//! # ts-core — the measurement analysis of *TLS crypto shortcuts*
//!
//! This crate is the paper's primary contribution in library form: given
//! scan observations (produced by `ts-scanner`, but any source works), it
//! computes everything the paper's evaluation reports —
//!
//! * [`observations`] — the scan record types (sightings, probes, edges)
//! * [`json`] — dependency-free JSON tree for archiving observations
//! * [`par`] — deterministic chunked fan-out (`parallel_map`)
//! * [`unionfind`] — disjoint sets for transitive service-group closure
//! * [`cdf`] — empirical CDFs for Figures 1, 2, 3, 5, 8
//! * [`groups`] — service groups from shared STEK ids, shared DH values,
//!   and cross-domain resumption edges (§5, Tables 5–7)
//! * [`exposure`] — per-domain *vulnerability windows* and the combined
//!   maximum-exposure distribution (§6, Figure 8)
//! * [`stream`] — streaming, mergeable accumulators for sharded
//!   campaigns with an explicit merge law: first/last-seen span estimation
//!   for STEKs and key-exchange values (§4.3's jitter-tolerant
//!   estimator), per-tier CDFs, shared-identifier service groups, top-k
//! * [`tiers`] — rank-tier breakdowns (Figure 4)
//! * [`treemap`] — size × longevity summaries standing in for the paper's
//!   treemap visualizations (Figures 6, 7)
//! * [`report`] — text tables with paper-vs-measured columns
//!
//! The crate is pure analysis: no networking, no crypto, no simulation —
//! so it can equally post-process real zgrab output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdf;
pub mod exposure;
pub mod groups;
pub mod interleave;
pub mod json;
pub mod observations;
pub mod par;
pub mod report;
pub mod stream;
pub mod tiers;
pub mod treemap;
pub mod unionfind;

pub use cdf::Cdf;
pub use exposure::{DomainExposure, ExposureKind};
pub use observations::{KexKind, KexSighting, ResumptionProbe, TicketSighting};
pub use stream::{GroupAcc, Merge, SpanAcc, TierAcc, TopK};
pub use unionfind::DisjointSets;
