//! Horizontal sharding for the fleet runtime: many schedulers behind
//! one facade.
//!
//! The per-device stack ([`lnls_runtime`]) prices one scheduler
//! driving one device group. This crate adds the horizontal layer the
//! service fleet needs:
//!
//! * [`HashRing`] — consistent-hash tenant → shard placement over
//!   virtual nodes, so adding or removing a shard rebalances `≈ 1/N`
//!   of tenants instead of reshuffling everyone.
//! * [`ShardedFleet`] — N shards, each its own
//!   [`Scheduler`](lnls_runtime::Scheduler) +
//!   [`FleetClient`](lnls_runtime::FleetClient) admission path, with a
//!   deterministic *steal barrier*: on a fixed tick cadence,
//!   overloaded shards donate queued (never running) jobs to idle
//!   shards under a seeded, documented tie-break order, so replays
//!   stay bit-identical.
//! * Delta checkpoints — each shard snapshots through a
//!   [`DeltaCheckpointer`](lnls_runtime::DeltaCheckpointer) (rotating
//!   base + dirty-job deltas), so snapshot cost tracks per-tick churn,
//!   not fleet size.
//! * [`ShardConfig`] — a *versioned* knob set: traces record the
//!   [`CONFIG_VERSION`] they were captured under, and replay mints the
//!   recorded version's frozen semantics even after defaults move.
//! * [`ParallelFleet`] — the true-parallel service runtime: a
//!   [`ShardedFleet`] plus a pool of worker threads, one per group of
//!   shards, advancing barrier-to-barrier phases in virtual time behind
//!   bounded MPSC queues. The wrapped fleet keeps all shard state and
//!   every single-threaded step, so stealing and report merging are
//!   the same code, and results are **bit-identical** at any worker
//!   count (the `parallel_fleet` proptest harness pins it across the
//!   whole scenario catalog). At one worker no thread is spawned and
//!   ticks run inline.
//!
//! A 1-shard fleet degenerates exactly to a bare scheduler: shard 0
//! mints ids from base 0, the steal barrier never fires (no peers),
//! and [`ShardedFleet::fleet_report`] returns the shard's report
//! verbatim — which is why the workload driver replays every trace on
//! this one fleet type, and why the replay proptests can pin it
//! against a bare scheduler loop bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod fleet;
mod par;
mod ring;

pub use config::{ShardConfig, UnknownConfigVersion, CONFIG_VERSION};
pub use fleet::{ShardedFleet, SHARD_ID_SHIFT};
pub use par::ParallelFleet;
pub use ring::{fnv1a, HashRing};
