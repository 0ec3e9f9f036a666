//! The benchmark's own replay loop: the delivery, tick and crash rules
//! of `lnls_workload::Driver`, restated over the public shard facades so
//! that spans can be taken around every call into the program. A gate
//! checks that it reproduces `Driver::replay` bit for bit.

use crate::spans::Recorder;
use lnls_gpu_sim::{DeviceSpec, MultiDevice};
use lnls_runtime::{
    CheckpointError, FleetCheckpoint, FleetClient, FleetReport, JobHandle, JobRegistry, Scheduler,
    SchedulerConfig, SnapshotStats,
};
use lnls_shard::{ParallelFleet, ShardConfig, ShardedFleet};
use lnls_workload::Trace;
use std::path::Path;

/// Delta segments between two full bases in the durable workload.
pub const DELTAS_PER_BASE: u64 = 16;

/// What the replay loop needs from a fleet; implemented by the serial
/// [`ShardedFleet`] (a one-shard fleet is a bare scheduler bit for bit)
/// and the threaded [`ParallelFleet`].
pub trait Fleet: Sized {
    /// Span name for one call to `tick`, named by the module it enters.
    const TICK_SPAN: &'static str;
    fn build(trace: &Trace) -> Self;
    fn reassemble(trace: &Trace, clients: Vec<FleetClient>, ticks: u64) -> Self;
    fn shard_count(&self) -> usize;
    fn shard(&self, i: usize) -> &FleetClient;
    fn shard_mut(&mut self, i: usize) -> &mut FleetClient;
    fn shard_for(&self, tenant: &str) -> usize;
    fn idle(&self) -> bool;
    fn tick(&mut self) -> bool;
    fn fleet_report(&self) -> FleetReport;
    fn snapshot(&mut self) -> Result<Vec<SnapshotStats>, CheckpointError>;
    /// Arm per-shard delta checkpointing under `dir`.
    fn arm(self, dir: &Path) -> Self;
}

macro_rules! forward_fleet {
    () => {
        fn shard_count(&self) -> usize {
            self.shard_count()
        }
        fn shard(&self, i: usize) -> &FleetClient {
            self.shard(i)
        }
        fn shard_mut(&mut self, i: usize) -> &mut FleetClient {
            self.shard_mut(i)
        }
        fn shard_for(&self, tenant: &str) -> usize {
            self.shard_for(tenant)
        }
        fn idle(&self) -> bool {
            self.queued_len() == 0 && self.running_len() == 0
        }
        fn tick(&mut self) -> bool {
            self.tick()
        }
        fn fleet_report(&self) -> FleetReport {
            self.fleet_report()
        }
        fn snapshot(&mut self) -> Result<Vec<SnapshotStats>, CheckpointError> {
            self.snapshot()
        }
        fn arm(self, dir: &Path) -> Self {
            self.with_checkpoint_dir(dir, DELTAS_PER_BASE)
                .expect("the benchmark's checkpoint dir opens")
        }
    };
}

impl Fleet for ShardedFleet {
    const TICK_SPAN: &'static str = "runtime.scheduler.tick";
    fn build(trace: &Trace) -> Self {
        let spec = DeviceSpec::gtx280().with_engines(trace.fleet.engines);
        let mut fleet = ShardedFleet::new(
            shard_config(trace),
            trace.admission.clone(),
            trace.fleet.shards.max(1),
            scheduler_config(trace),
            move |_| MultiDevice::new_uniform(trace.fleet.devices, spec.clone()),
        );
        set_limits(&mut fleet, trace);
        fleet
    }
    fn reassemble(trace: &Trace, clients: Vec<FleetClient>, ticks: u64) -> Self {
        ShardedFleet::from_clients(shard_config(trace), clients, ticks)
    }
    forward_fleet!();
}

impl Fleet for ParallelFleet {
    const TICK_SPAN: &'static str = "shard.par.tick";
    fn build(trace: &Trace) -> Self {
        let spec = DeviceSpec::gtx280().with_engines(trace.fleet.engines);
        let mut fleet = ParallelFleet::new(
            shard_config(trace),
            trace.admission.clone(),
            trace.fleet.shards.max(1),
            trace.fleet.workers.max(1),
            scheduler_config(trace),
            move |_| MultiDevice::new_uniform(trace.fleet.devices, spec.clone()),
        );
        set_limits(&mut fleet, trace);
        fleet
    }
    fn reassemble(trace: &Trace, clients: Vec<FleetClient>, ticks: u64) -> Self {
        ParallelFleet::from_clients(shard_config(trace), clients, trace.fleet.workers, ticks)
    }
    forward_fleet!();
}

/// The scheduler knobs a trace carries, exactly as the driver derives
/// them.
pub fn scheduler_config(trace: &Trace) -> SchedulerConfig {
    SchedulerConfig {
        cpu_workers: trace.fleet.cpu_workers,
        max_batch: trace.fleet.max_batch,
        quantum_iters: trace.fleet.quantum_iters,
        telemetry_every_ticks: Some(trace.fleet.telemetry_every_ticks),
        telemetry_max_samples: trace.fleet.telemetry_max_samples,
        selection: trace.fleet.selection,
        span_iters: trace.fleet.span_iters,
        launch_mode: trace.fleet.launch_mode,
        ..Default::default()
    }
}

pub fn shard_config(trace: &Trace) -> ShardConfig {
    ShardConfig::for_version(trace.fleet.config_version)
        .unwrap_or_else(|e| panic!("trace '{}' is unreplayable: {e}", trace.scenario))
}

fn set_limits<F: Fleet>(fleet: &mut F, trace: &Trace) {
    for i in 0..fleet.shard_count() {
        fleet.shard_mut(i).set_inflight_limit(trace.fleet.max_inflight);
    }
}

/// Everything one pass of the loop leaves behind.
pub struct Replayed<F> {
    pub fleet: F,
    pub report: FleetReport,
    /// `(arrival index, handle)` of every admitted submission.
    pub admitted: Vec<(usize, JobHandle)>,
    pub bounced: u64,
    pub ticks: u64,
    pub idle_ticks: u64,
    pub snapshots: Vec<SnapshotStats>,
}

/// Replay `trace` on `fleet`, taking spans around every call into the
/// program. With `snapshot_every_tick`, the fleet's armed delta
/// checkpointers write a segment after every tick.
pub fn replay<F: Fleet>(
    trace: &Trace,
    mut fleet: F,
    rec: &mut Recorder,
    snapshot_every_tick: bool,
) -> Replayed<F> {
    let root = rec.begin("bench.replay");
    let mut next = 0usize;
    let mut admitted = Vec::new();
    let mut bounced = vec![0u64; fleet.shard_count()];
    let (mut ticks, mut idle_ticks) = (0u64, 0u64);
    let mut snapshots = Vec::new();
    loop {
        while let Some(arrival) = trace.arrivals.get(next) {
            let target = fleet.shard_for(&arrival.tenant);
            let due = match arrival.at_tick {
                Some(t) => ticks >= t,
                None => arrival.at_s <= fleet.shard(target).scheduler().now_s() || fleet.idle(),
            };
            if !due {
                break;
            }
            let span = rec.begin("runtime.client.submit");
            let result = arrival.submit(fleet.shard_mut(target));
            rec.end(span);
            match result {
                Ok(handle) => admitted.push((next, handle)),
                Err(_) => bounced[target] += 1,
            }
            next += 1;
        }
        let span = rec.begin(F::TICK_SPAN);
        let progressed = fleet.tick();
        rec.end(span);
        ticks += 1;
        idle_ticks += u64::from(!progressed);
        if snapshot_every_tick {
            let span = rec.begin("runtime.delta.snapshot");
            let stats = fleet.snapshot().expect("snapshot into the benchmark's checkpoint dir");
            rec.end(span);
            rec.count("runtime.delta.bytes", stats.iter().map(|s| s.bytes).sum());
            snapshots.extend(stats);
        }
        if trace.crash_at_tick == Some(ticks) {
            let registry = JobRegistry::with_builtin();
            let revived = round_trip(trace, &fleet, &registry, &bounced, ticks, rec);
            drop(fleet); // the crash: all in-memory state is gone
            fleet = revived;
        }
        if !progressed && next >= trace.arrivals.len() {
            break;
        }
    }
    let span = rec.begin("runtime.report.fleet_report");
    let report = fleet.fleet_report();
    rec.end(span);
    rec.end(root);
    Replayed {
        fleet,
        report,
        admitted,
        bounced: bounced.iter().sum(),
        ticks,
        idle_ticks,
        snapshots,
    }
}

/// Serialize every shard to checkpoint bytes and rebuild the fleet from
/// them (the driver's crash path). `rejected` restores each shard
/// client's admission-rejection counter.
pub fn round_trip<F: Fleet>(
    trace: &Trace,
    fleet: &F,
    registry: &JobRegistry,
    rejected: &[u64],
    ticks: u64,
    rec: &mut Recorder,
) -> F {
    let span = rec.begin("runtime.persist.encode");
    let bytes: Vec<Vec<u8>> =
        (0..fleet.shard_count()).map(|i| fleet.shard(i).checkpoint().to_bytes()).collect();
    rec.end(span);
    rec.count("runtime.persist.encode_bytes", bytes.iter().map(|b| b.len() as u64).sum());
    let restore = rec.begin("runtime.persist.restore");
    let clients = bytes
        .iter()
        .zip(rejected)
        .map(|(bytes, &rejected)| {
            let span = rec.begin("runtime.persist.decode");
            let checkpoint = FleetCheckpoint::from_bytes(bytes, registry)
                .expect("a checkpoint the fleet just wrote must decode");
            rec.end(span);
            rec.count("runtime.persist.decode_bytes", bytes.len() as u64);
            let mut client = FleetClient::resume(
                Scheduler::restore(checkpoint),
                trace.admission.clone(),
                rejected,
            );
            client.set_inflight_limit(trace.fleet.max_inflight);
            client
        })
        .collect();
    let revived = F::reassemble(trace, clients, ticks);
    rec.end(restore);
    revived
}
