//! The sharding layer's external contracts, held through the facade:
//!
//! * **Degeneracy** — the driver replays every trace on a sharded
//!   fleet, and on one shard that must be Debug-bit-identical to a bare
//!   [`FleetClient`] over one [`Scheduler`], crash and restore
//!   included. The bare loop below is the reference: sharding must be a
//!   pure superset, not a parallel implementation that drifts.
//! * **Config versioning** — a trace recorded under config v1 replays
//!   deterministically under v1 ring/steal semantics, and those
//!   semantics observably differ from v2's.
//! * **Delta chains** — a chain missing its base, missing a middle
//!   delta, or holding a truncated segment is refused with a
//!   [`CheckpointError`] naming the exact segment, never a panic or a
//!   silently wrong restore; a base-terminated chain keeps its running
//!   jobs; a checkpointer re-armed over an existing store restores its
//!   own newest state, not the previous incarnation's; and at every
//!   tick of every catalog trace, the chain loads back to the exact
//!   bytes of the full checkpoint.

use lnls::core::{BitString, SearchConfig, TabuSearch};
use lnls::neighborhood::{Neighborhood, TwoHamming};
use lnls::prelude::{
    BinaryJob, CheckpointError, CheckpointStore, DeltaCheckpointer, DeviceSpec, Driver, HashRing,
    JobRegistry, OneMax, Scenario, Scheduler, SchedulerConfig, ShardConfig, SnapshotKind, Trace,
    TrafficGen,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

mod common;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For every catalog scenario and any seed, the driver's 1-shard
    /// sharded fleet produces the same `FleetReport` — bit for bit,
    /// every f64 through its exact Debug rendering — and the same
    /// driver counters as a bare scheduler replaying the same trace.
    /// The catalog's crash stressor runs through the crash on both.
    #[test]
    fn one_shard_fleet_is_bit_identical_to_the_bare_path(
        scenario_idx in 0usize..9,
        seed in 0u64..500,
    ) {
        let mut scenario = Scenario::catalog()[scenario_idx].clone();
        scenario.fleet.shards = 1;
        let (trace, sharded) = Driver::record(&scenario, seed);
        let bare = common::replay_bare(&trace, |_| {});
        prop_assert_eq!(
            format!("{:?}", sharded.fleet),
            format!("{:?}", bare.fleet),
            "scenario '{}' seed {}: one shard must be a bare scheduler, bit for bit",
            scenario.name,
            seed
        );
        prop_assert_eq!(
            (sharded.ticks, sharded.admitted, sharded.bounced, sharded.crashes),
            (bare.ticks, bare.admitted, bare.bounced, bare.crashes),
            "scenario '{}' seed {}: same driver counters",
            scenario.name,
            seed
        );
    }
}

/// A trace recorded under config v1 keeps v1 semantics on replay —
/// bit-identically — and those semantics are observably different from
/// v2's (the ring places at least one of the scenario's tenants on a
/// different shard).
#[test]
fn traces_recorded_under_v1_replay_with_v1_semantics() {
    let mut scenario = Scenario::saturation_sharded();
    scenario.fleet.config_version = 1;
    let (trace, recorded) = Driver::record(&scenario, 17);

    let reloaded = Trace::from_bytes(&trace.to_bytes()).expect("v1 traces round-trip");
    assert_eq!(reloaded.fleet.config_version, 1, "the trace must carry its recorded version");
    let replayed = Driver::replay(&reloaded);
    assert_eq!(
        format!("{:?}", recorded.fleet),
        format!("{:?}", replayed.fleet),
        "a v1 trace must replay bit-identically under v1 semantics"
    );

    // The versions genuinely differ: v1's sparser ring routes at least
    // one of this scenario's tenants to a different shard than v2's.
    let v1 = ShardConfig::for_version(1).unwrap();
    let v2 = ShardConfig::for_version(2).unwrap();
    let ring_v1 = HashRing::new(scenario.fleet.shards, v1.ring_replicas);
    let ring_v2 = HashRing::new(scenario.fleet.shards, v2.ring_replicas);
    let moved =
        trace.arrivals.iter().any(|a| ring_v1.shard_for(&a.tenant) != ring_v2.shard_for(&a.tenant));
    assert!(moved, "v1 and v2 rings must place this tenant set differently");
}

fn onemax_job(name: &str, seed: u64) -> BinaryJob<OneMax, TwoHamming> {
    let n = 24;
    let hood = TwoHamming::new(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let init = BitString::random(&mut rng, n);
    let search =
        TabuSearch::paper(SearchConfig::budget(60).with_seed(seed).with_target(None), hood.size());
    BinaryJob::new(name, OneMax::new(n), hood, search, init)
}

/// Write a base + several deltas into `dir` (jobs still in flight, so
/// every delta is non-trivial) and return the segment file names.
fn build_chain(dir: &Path) -> Vec<String> {
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 2, quantum_iters: Some(8), ..Default::default() },
    );
    for i in 0..6 {
        fleet.submit(onemax_job(&format!("chain-{i}"), i));
    }
    let mut ckpt = DeltaCheckpointer::open(dir, 8).expect("store opens");
    let first = ckpt.snapshot(&fleet).expect("base writes");
    assert_eq!(first.kind, SnapshotKind::Base);
    for _ in 0..3 {
        fleet.tick();
        let stats = ckpt.snapshot(&fleet).expect("delta writes");
        assert_eq!(stats.kind, SnapshotKind::Delta);
        assert!(stats.dirty_jobs > 0, "in-flight jobs must dirty every delta");
    }
    let mut names: Vec<String> = fs::read_dir(dir)
        .expect("chain dir lists")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8 name"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 4, "one base and three deltas: {names:?}");
    names
}

/// `FleetCheckpoint` carries live job state and has no `Debug`, so
/// `expect_err` cannot unwrap the chain-load result directly.
fn load_err(dir: &Path, registry: &JobRegistry) -> CheckpointError {
    match CheckpointStore::open(dir).expect("store opens").load_latest(registry) {
        Ok(_) => panic!("a broken chain must not load"),
        Err(e) => e,
    }
}

fn chain_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lnls-chain-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_chain_missing_its_base_is_refused_by_name() {
    let dir = chain_dir("missing-base");
    let names = build_chain(&dir);
    let base = names.iter().find(|n| n.starts_with("base-")).expect("a base segment");
    fs::remove_file(dir.join(base)).expect("delete the base");

    let registry = JobRegistry::with_builtin();
    let err = load_err(&dir, &registry);
    match err {
        CheckpointError::MissingBase { segment } => {
            assert!(segment.ends_with(base), "the error must name '{base}', got '{segment}'");
        }
        other => panic!("expected MissingBase, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_chain_with_a_hole_names_the_missing_delta() {
    let dir = chain_dir("missing-delta");
    let names = build_chain(&dir);
    // Delete the *middle* delta; the later one keeps the chain "longer
    // than" the hole, which is what makes it a hole and not a tail.
    let middle = names.iter().filter(|n| n.starts_with("delta-")).nth(1).expect("a middle delta");
    fs::remove_file(dir.join(middle)).expect("delete the middle delta");

    let registry = JobRegistry::with_builtin();
    let err = load_err(&dir, &registry);
    match err {
        CheckpointError::MissingDelta { segment, epoch, index } => {
            assert!(segment.ends_with(middle), "must name '{middle}', got '{segment}'");
            assert_eq!((epoch, index), (1, 2), "the first chain epoch, second delta");
        }
        other => panic!("expected MissingDelta, got: {other}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_truncated_delta_is_reported_corrupt_with_its_name() {
    let dir = chain_dir("truncated");
    let names = build_chain(&dir);
    let last = names.iter().rfind(|n| n.starts_with("delta-")).expect("a delta");
    let path = dir.join(last);
    let bytes = fs::read(&path).expect("read the delta");
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate the delta");

    let registry = JobRegistry::with_builtin();
    let err = load_err(&dir, &registry);
    match err {
        CheckpointError::CorruptSegment { segment, .. } => {
            assert!(segment.ends_with(last.as_str()), "must name '{last}', got '{segment}'");
        }
        other => panic!("expected CorruptSegment, got: {other}"),
    }
    // An intact chain in the same store layout still loads fine.
    fs::write(&path, &bytes).expect("restore the delta");
    assert!(
        CheckpointStore::open(&dir).expect("store opens").load_latest(&registry).is_ok(),
        "the repaired chain loads"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A chain whose *newest* segment is a base — a crash right after an
/// epoch rotation, before any delta followed it — must reproduce the
/// running jobs from the base's own active slots. (The chain replay
/// once materialized active state only from delta segments, silently
/// dropping every in-flight job of a base-terminated chain.)
#[test]
fn a_base_terminated_chain_keeps_running_jobs() {
    let dir = chain_dir("base-tail");
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 2, quantum_iters: Some(8), ..Default::default() },
    );
    for i in 0..4 {
        fleet.submit(onemax_job(&format!("chain-{i}"), i));
    }
    fleet.tick();
    assert!(fleet.running_len() > 0, "the base must capture jobs mid-flight");

    let mut ckpt = DeltaCheckpointer::open(&dir, 8).expect("store opens");
    assert_eq!(ckpt.snapshot(&fleet).expect("base writes").kind, SnapshotKind::Base);

    let registry = JobRegistry::with_builtin();
    let loaded = CheckpointStore::open(&dir)
        .expect("store opens")
        .load_latest(&registry)
        .expect("base-terminated chains load");
    let mut restored = Scheduler::restore(loaded);
    assert_eq!(
        (restored.running_len(), restored.queued_len()),
        (fleet.running_len(), fleet.queued_len()),
        "running and queued jobs must survive a base-terminated chain"
    );
    while fleet.tick() {}
    while restored.tick() {}
    assert_eq!(
        format!("{:?}", restored.fleet_report()),
        format!("{:?}", fleet.fleet_report()),
        "the restored run must finish on the original run's bits"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Re-arming a [`DeltaCheckpointer`] over a store that already holds a
/// previous incarnation's longer chain (crash, restore, resume
/// snapshotting into the same directory) must leave the store
/// restoring the *newest* state, not the stale longer chain.
#[test]
fn rearming_over_an_existing_store_restores_the_newest_state() {
    let dir = chain_dir("rearm");
    let mut sched = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { quantum_iters: Some(4), ..Default::default() },
    );
    for i in 0..6 {
        sched.submit(onemax_job(&format!("rearm-{i}"), i));
    }
    // First incarnation: a base and four deltas.
    let mut first = DeltaCheckpointer::open(&dir, 8).expect("store opens");
    for _ in 0..5 {
        sched.tick();
        first.snapshot(&sched).expect("snapshot writes");
    }
    drop(first);

    // Crash, restore, and re-arm over the same store; write fewer
    // segments than the first incarnation did.
    let registry = JobRegistry::with_builtin();
    let store = CheckpointStore::open(&dir).expect("store opens");
    let mut revived = Scheduler::restore(store.load_latest(&registry).expect("chain loads"));
    let mut second = DeltaCheckpointer::open(&dir, 8).expect("store reopens");
    for _ in 0..2 {
        revived.tick();
        second.snapshot(&revived).expect("snapshot writes");
    }
    drop(second);

    let loaded = CheckpointStore::open(&dir)
        .expect("store opens")
        .load_latest(&registry)
        .expect("the re-armed chain loads");
    assert_eq!(
        loaded.ticks(),
        revived.checkpoint().ticks(),
        "a re-armed store must restore its newest state, not the stale chain"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// At every tick of every catalog trace (seed 42), a never-rotating
/// delta chain loads back to exactly the bytes of the full checkpoint
/// taken at the same instant — queue diffs, active slots, job payloads,
/// metadata, reports and counters alike, across the catalog's crash
/// and restore too.
#[test]
fn a_delta_chain_reproduces_the_full_checkpoint_byte_for_byte() {
    let mut snapshots = 0;
    for scenario in Scenario::catalog() {
        let trace = TrafficGen::lower(&scenario, 42);
        let dir = chain_dir(&format!("every-tick-{}", scenario.name));
        snapshots += common::replay_with_delta_chain(&trace, &dir).snapshots;
    }
    assert!(snapshots > 500, "every catalog trace snapshots every tick ({snapshots})");
}

/// Bit flips in a delta segment come back as typed errors (or, until
/// segments carry a checksum, a silent accept) — never a panic. A
/// flipped queue-layout id once slipped past the chain's checks and
/// panicked when the checkpoint was materialized.
#[test]
fn corrupt_delta_segments_never_panic() {
    let dir = chain_dir("bit-flips");
    let mut fleet = Scheduler::with_uniform_fleet(
        1,
        DeviceSpec::gtx280(),
        SchedulerConfig { max_batch: 2, quantum_iters: Some(8), ..Default::default() },
    );
    for i in 0..4 {
        fleet.submit(onemax_job(&format!("flip-{i}"), i));
    }
    let mut ckpt = DeltaCheckpointer::open(&dir, 8).expect("store opens");
    ckpt.snapshot(&fleet).expect("base writes");
    for i in 4..10 {
        fleet.submit(onemax_job(&format!("flip-{i}"), i));
        fleet.tick();
        assert_eq!(ckpt.snapshot(&fleet).expect("delta writes").kind, SnapshotKind::Delta);
    }
    let last = dir.join("delta-00000001-00000006.ckpt");
    let clean = fs::read(&last).expect("read the newest delta");

    let registry = JobRegistry::with_builtin();
    let store = CheckpointStore::open(&dir).expect("store opens");
    let mut rng = StdRng::seed_from_u64(7);
    let mut panics = 0;
    for _ in 0..3000 {
        let mut bytes = clean.clone();
        for _ in 0..rng.gen_range(1..=4) {
            let bit = rng.gen_range(0..bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        fs::write(&last, &bytes).expect("write the flipped delta");
        let loaded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.load_latest(&registry).map(|c| c.pending_jobs())
        }));
        if loaded.is_err() {
            panics += 1;
        }
    }
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(panics, 0, "flipped delta segments must fail typed, not panic");
}
