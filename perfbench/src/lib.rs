//! End-to-end benchmark of the NSCaching workspace.
//!
//! Each workload generates a synthetic benchmark graph from the seed,
//! trains on it with a filtered snapshot evaluation after every epoch,
//! saves the last two models, and serves the final one over TCP under an
//! open-loop load with hot reloads between the two snapshots. The untraced
//! run reports the end-to-end metrics; the traced run installs timing
//! decorators around the model and sampler, attaches the trainer's
//! telemetry, records spans, and reports per-layer metrics. See
//! `README.md` for the metric map.

pub mod reference;
pub mod report;
pub mod serve;
pub mod timing;
pub mod trace;
pub mod train;
pub mod workload;
