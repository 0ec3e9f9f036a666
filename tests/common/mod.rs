//! Helpers shared by integration tests: one bare single-scheduler
//! replay loop, and a delta-chain harness built on it.

use lnls::prelude::{
    CheckpointStore, DeltaCheckpointer, DeviceSpec, FleetCheckpoint, FleetClient, JobRegistry,
    MultiDevice, Scheduler, SchedulerConfig, SnapshotKind, Trace, WorkloadReport,
};
use std::fs;
use std::path::Path;

/// Replay a trace on one bare [`FleetClient`] over one [`Scheduler`]:
/// no shards, no ring, no barrier. The same delivery, tick and crash
/// rules the driver applies, restated for a single scheduler.
/// `after_tick` sees the client after every tick (and after the crash
/// and restore, on the crash tick).
pub fn replay_bare(trace: &Trace, mut after_tick: impl FnMut(&FleetClient)) -> WorkloadReport {
    let registry = JobRegistry::with_builtin();
    let spec = DeviceSpec::gtx280().with_engines(trace.fleet.engines);
    let config = SchedulerConfig {
        cpu_workers: trace.fleet.cpu_workers,
        max_batch: trace.fleet.max_batch,
        quantum_iters: trace.fleet.quantum_iters,
        telemetry_every_ticks: Some(trace.fleet.telemetry_every_ticks),
        telemetry_max_samples: trace.fleet.telemetry_max_samples,
        selection: trace.fleet.selection,
        span_iters: trace.fleet.span_iters,
        launch_mode: trace.fleet.launch_mode,
        ..Default::default()
    };
    let scheduler = Scheduler::new(MultiDevice::new_uniform(trace.fleet.devices, spec), config);
    let mut client = FleetClient::new(scheduler, trace.admission.clone());
    client.set_inflight_limit(trace.fleet.max_inflight);
    let mut next = 0usize;
    let (mut admitted, mut bounced, mut crashes, mut ticks) = (0u64, 0u64, 0u64, 0u64);
    loop {
        while let Some(arrival) = trace.arrivals.get(next) {
            let scheduler = client.scheduler();
            let due = match arrival.at_tick {
                Some(t) => ticks >= t,
                None => {
                    arrival.at_s <= scheduler.now_s()
                        || (scheduler.queued_len() == 0 && scheduler.running_len() == 0)
                }
            };
            if !due {
                break;
            }
            match arrival.submit(&mut client) {
                Ok(_) => admitted += 1,
                Err(_) => bounced += 1,
            }
            next += 1;
        }
        let progressed = client.tick();
        ticks += 1;
        if trace.crash_at_tick == Some(ticks) {
            let bytes = client.checkpoint().to_bytes();
            drop(client);
            let revived =
                FleetCheckpoint::from_bytes(&bytes, &registry).expect("checkpoint decodes");
            client =
                FleetClient::resume(Scheduler::restore(revived), trace.admission.clone(), bounced);
            client.set_inflight_limit(trace.fleet.max_inflight);
            crashes += 1;
        }
        after_tick(&client);
        if !progressed && next >= trace.arrivals.len() {
            break;
        }
    }
    WorkloadReport {
        scenario: trace.scenario.clone(),
        seed: trace.seed,
        submitted: trace.arrivals.len() as u64,
        admitted,
        bounced,
        crashes,
        ticks,
        fleet: client.fleet_report(),
    }
}

/// Plain FNV-1a, 64-bit, continued from `hash` (start from
/// [`FNV_OFFSET`]) so a stream of byte strings folds into one digest.
pub fn fnv1a64_fold(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What [`replay_with_delta_chain`] wrote.
pub struct ChainDigests {
    /// Snapshots taken (one per tick).
    pub snapshots: u64,
    /// FNV-1a fold of every full checkpoint's bytes, in tick order.
    pub checkpoints: u64,
    /// FNV-1a fold of every segment file (the base, then each delta).
    pub segments: u64,
}

/// Replay `trace` bare with a [`DeltaCheckpointer`] over a fresh
/// `dir` that never rotates, snapshotting after every tick. After each
/// snapshot the chain is loaded back and must encode to exactly the
/// bytes of the full checkpoint taken at the same instant.
pub fn replay_with_delta_chain(trace: &Trace, dir: &Path) -> ChainDigests {
    let _ = fs::remove_dir_all(dir);
    let registry = JobRegistry::with_builtin();
    let mut checkpointer = DeltaCheckpointer::open(dir, 1_000_000).expect("store opens");
    let store = CheckpointStore::open(dir).expect("store opens");
    let mut digests = ChainDigests { snapshots: 0, checkpoints: FNV_OFFSET, segments: FNV_OFFSET };
    replay_bare(trace, |client| {
        let stats = checkpointer.snapshot(client.scheduler()).expect("snapshot writes");
        digests.snapshots += 1;
        // A fresh store that never rotates: epoch 1, deltas 1, 2, ...
        let name = match stats.kind {
            SnapshotKind::Base => "base-00000001.ckpt".to_string(),
            SnapshotKind::Delta => format!("delta-00000001-{:08}.ckpt", digests.snapshots - 1),
        };
        let segment = fs::read(dir.join(&name)).expect("the snapshot's segment exists");
        assert_eq!(segment.len() as u64, stats.bytes, "{name} is the segment just written");
        digests.segments = fnv1a64_fold(digests.segments, &segment);

        let full = client.checkpoint().to_bytes();
        digests.checkpoints = fnv1a64_fold(digests.checkpoints, &full);
        let chain = store.load_latest(&registry).expect("the chain loads").to_bytes();
        assert!(
            chain == full,
            "scenario '{}', snapshot {}: the delta chain must reproduce the full checkpoint \
             byte for byte ({} vs {} bytes)",
            trace.scenario,
            digests.snapshots,
            chain.len(),
            full.len()
        );
    });
    let _ = fs::remove_dir_all(dir);
    digests
}
