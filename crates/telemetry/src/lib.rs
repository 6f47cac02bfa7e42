//! # ts-telemetry — scan observability for the whole workspace
//!
//! The paper's credibility rests on throughput numbers it can only assert
//! ("33.6M successful handshakes", per-day success rates); this crate is
//! how the reproduction *measures* instead of asserting. It provides:
//!
//! * [`Counter`] — static-named monotonic counters, sharded across a fixed
//!   number of relaxed atomic cells so `parallel_map` workers never
//!   contend on one cache line; reads merge the shards.
//! * [`Histogram`] — fixed-bucket histograms with the same sharding.
//! * [`SpanStat`] — span timers recording *both* wall-clock nanoseconds
//!   and simnet virtual-clock seconds. Virtual durations are deterministic
//!   for a fixed seed; wall durations are not, and are therefore excluded
//!   from the deterministic snapshot serialization.
//! * [`Snapshot`] — a point-in-time merge of every registered metric,
//!   sorted by name, serializable through `ts_core::json`.
//!
//! ## The no-secret-bytes rule
//!
//! Telemetry values are *public by construction*: counter/histogram values
//! are `u64` tallies and span durations are times — never byte buffers,
//! session IDs, tickets, or key material. `ts-lint` enforces this shape: a
//! secret-tainted expression reaching a telemetry sink method (`observe`,
//! `emit`, `record`) fails the workspace lint.
//!
//! ## Determinism
//!
//! Counters and histograms are commutative sums, so their totals are
//! identical no matter how work is chunked across workers — the property
//! `tests/telemetry_determinism.rs` (workspace root) locks in. Metrics
//! self-register into a global registry on first touch; an untouched
//! metric does not appear in snapshots.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod registry;
mod span;

pub use metrics::{Counter, Histogram, SHARDS};
pub use registry::{snapshot, CounterSnapshot, HistogramSnapshot, Snapshot, SpanSnapshot};
pub use span::{SpanGuard, SpanStat};
