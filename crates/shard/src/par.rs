//! [`ParallelFleet`]: a [`ShardedFleet`] plus a pool of worker threads
//! that run its shards' ticks concurrently, in virtual time, behind
//! bounded MPSC command queues — bit-identical to the bare
//! [`ShardedFleet`] at any worker count.
//!
//! All shard state and every single-threaded step (placement, submit,
//! queries, the steal barrier, report merging, checkpoints) live in
//! the wrapped [`ShardedFleet`]; this module adds only the pool and the
//! phase protocol below. With one worker there is no pool at all:
//! ticks run inline on the caller's thread, exactly as
//! [`ShardedFleet::tick`] runs them.
//!
//! # Why this can be bit-identical at all
//! Shards only interact at steal barriers: between two barriers every
//! shard's evolution is a pure function of its own state (admission,
//! placement, batching, preemption all read one scheduler). So the
//! runtime advances in *phases* — the stretch of global ticks up to the
//! next barrier boundary — farming each shard's ticks out to a fixed
//! worker, then joining every shard back on the coordinator before the
//! barrier runs. However the OS schedules the workers, each shard
//! executes exactly the tick sequence the serial facade would have
//! given it, and the barrier (the only cross-shard step) runs on the
//! coordinator over the very same state. Running jobs never cross a
//! barrier: the steal policy donates queued jobs only, so no job state
//! is ever in flight between threads mid-quantum.
//!
//! # The barrier protocol
//! 1. The coordinator moves the fleet's shard clients out and sends
//!    each to its worker in a [`WorkerCmd::Run`] command on that
//!    worker's **bounded** queue (capacity = the worker's shard count,
//!    so dispatch never blocks).
//! 2. Workers tick their shards concurrently, stopping early at the
//!    first idle tick (idleness is monotone within a phase — no new
//!    work can arrive mid-phase), and send the client back over the
//!    shared done queue with the tick count it actually ran.
//! 3. The coordinator puts every client back in shard order, *catches
//!    up* early-stopped shards with the idle ticks the serial path
//!    would have issued (idle ticks still advance telemetry and
//!    autosave cadences, so tick counts must match exactly), then
//!    advances the fleet's tick counter, which runs the steal barrier
//!    on its cadence — the same step [`ShardedFleet::tick`] takes.
//!
//! # Virtual-time merge order
//! Reports, telemetry and steals merge in ascending shard order on the
//! coordinator, inside the wrapped [`ShardedFleet`]; no wall-clock
//! ordering ever reaches the results.

use crate::config::ShardConfig;
use crate::fleet::ShardedFleet;
use lnls_runtime::{
    AdmissionPolicy, CheckpointError, FleetClient, FleetReport, JobHandle, JobRegistry, JobReport,
    JobStatus, SchedulerConfig, SnapshotStats,
};
use std::io;
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::thread::JoinHandle;
use std::time::Duration;

/// A command to a worker thread. The client travels *by value*: while a
/// shard is out on a worker it is not in the fleet, so exactly one
/// thread can ever touch a scheduler.
enum WorkerCmd {
    /// Tick `client` up to `max_ticks` times (stopping early once it
    /// goes idle), then send it home on the done queue.
    Run { shard: usize, client: Box<FleetClient>, max_ticks: u64 },
    /// Exit the worker loop.
    Shutdown,
}

/// A shard coming home at the end of a phase.
struct WorkerDone {
    shard: usize,
    client: Box<FleetClient>,
    ran: ShardPhase,
}

/// What one shard did in a phase.
#[derive(Clone, Copy)]
struct ShardPhase {
    /// Ticks actually executed (≤ the phase's `max_ticks`).
    ticks_run: u64,
    /// Whether the last executed tick returned `false` (shard fully
    /// idle: empty queue, nothing running).
    went_idle: bool,
}

struct Worker {
    tx: SyncSender<WorkerCmd>,
    join: Option<JoinHandle<()>>,
}

fn worker_loop(rx: Receiver<WorkerCmd>, done: SyncSender<WorkerDone>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WorkerCmd::Run { shard, mut client, max_ticks } => {
                let mut ran = ShardPhase { ticks_run: 0, went_idle: false };
                while ran.ticks_run < max_ticks {
                    ran.ticks_run += 1;
                    if !client.tick() {
                        ran.went_idle = true;
                        break;
                    }
                }
                if done.send(WorkerDone { shard, client, ran }).is_err() {
                    return; // coordinator gone; nothing left to do
                }
            }
            WorkerCmd::Shutdown => return,
        }
    }
}

/// The worker threads of a [`ParallelFleet`]; shard `i` belongs to
/// worker `i % workers.len()` for the pool's lifetime.
struct Pool {
    workers: Vec<Worker>,
    done_rx: Receiver<WorkerDone>,
}

impl Pool {
    fn spawn(shards: usize, nworkers: usize) -> Self {
        let (done_tx, done_rx) = mpsc::sync_channel(shards);
        let workers = (0..nworkers)
            .map(|w| {
                let owned = (0..shards).filter(|s| s % nworkers == w).count();
                let (tx, rx) = mpsc::sync_channel(owned.max(1));
                let done = done_tx.clone();
                let join = std::thread::Builder::new()
                    .name(format!("lnls-par-worker-{w}"))
                    .spawn(move || worker_loop(rx, done))
                    .expect("spawn shard worker");
                Worker { tx, join: Some(join) }
            })
            .collect();
        Self { workers, done_rx }
    }

    /// Move `shards` out to the workers for one phase of up to
    /// `max_ticks` ticks each, then put every client back in shard
    /// order. Returns what each shard did.
    fn phase(&mut self, shards: &mut Vec<FleetClient>, max_ticks: u64) -> Vec<ShardPhase> {
        debug_assert!(max_ticks > 0, "a phase must run at least one tick");
        let clients = std::mem::take(shards);
        let count = clients.len();
        for (shard, client) in clients.into_iter().enumerate() {
            self.workers[shard % self.workers.len()]
                .tx
                .send(WorkerCmd::Run { shard, client: Box::new(client), max_ticks })
                .expect("worker command queue alive");
        }
        let mut done: Vec<WorkerDone> = (0..count).map(|_| self.join_one()).collect();
        done.sort_unstable_by_key(|d| d.shard);
        let outcomes;
        (*shards, outcomes) = done.into_iter().map(|d| (*d.client, d.ran)).unzip();
        outcomes
    }

    /// Receive one shard from the done queue, converting a dead worker
    /// into a loud coordinator panic instead of a silent barrier hang.
    fn join_one(&mut self) -> WorkerDone {
        loop {
            match self.done_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(done) => return done,
                Err(RecvTimeoutError::Timeout) => {
                    // Workers only exit on Shutdown (never mid-phase),
                    // so a finished thread here means it panicked.
                    if let Some(dead) = self
                        .workers
                        .iter()
                        .position(|w| w.join.as_ref().is_some_and(|j| j.is_finished()))
                    {
                        let join = self.workers[dead].join.take().expect("handle present");
                        let payload = join.join().err();
                        panic!(
                            "shard worker {dead} died mid-phase: {}",
                            payload
                                .as_ref()
                                .and_then(|p| p.downcast_ref::<&str>().copied())
                                .or_else(|| payload
                                    .as_ref()
                                    .and_then(|p| p.downcast_ref::<String>().map(|s| s.as_str())))
                                .unwrap_or("panic payload lost")
                        );
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("every shard worker died mid-phase");
                }
            }
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for worker in &self.workers {
            let _ = worker.tx.send(WorkerCmd::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// A [`ShardedFleet`] whose shard ticks run on `workers` OS threads:
/// the same facade, the same bits. Everything that is not ticking —
/// submit, queries, reports, checkpoints — is the wrapped fleet's,
/// reached through [`Deref`]; only [`tick`](Self::tick),
/// [`run_until_idle`](Self::run_until_idle) and
/// [`await_report`](Self::await_report) go through the pool. See the
/// module docs for the protocol and why results are independent of the
/// worker count and of OS scheduling.
pub struct ParallelFleet {
    fleet: ShardedFleet,
    /// `None` when the clamped worker count is 1: ticks then run inline
    /// and no thread is ever spawned.
    pool: Option<Pool>,
}

impl ParallelFleet {
    /// Build a parallel fleet of `shards` schedulers served by
    /// `workers` threads (clamped to `1..=shards`; shard `i` is pinned
    /// to worker `i % workers` for the fleet's lifetime). `template`
    /// and `build_devices` behave exactly as in [`ShardedFleet::new`].
    pub fn new(
        cfg: ShardConfig,
        policy: AdmissionPolicy,
        shards: usize,
        workers: usize,
        template: SchedulerConfig,
        build_devices: impl FnMut(usize) -> lnls_gpu_sim::MultiDevice,
    ) -> Self {
        Self::with_workers(ShardedFleet::new(cfg, policy, shards, template, build_devices), workers)
    }

    /// Reassemble a parallel fleet from already-built (typically
    /// restored) shard clients — [`ShardedFleet::from_clients`] plus a
    /// pool of `workers` threads.
    pub fn from_clients(
        cfg: ShardConfig,
        clients: Vec<FleetClient>,
        workers: usize,
        ticks: u64,
    ) -> Self {
        Self::with_workers(ShardedFleet::from_clients(cfg, clients, ticks), workers)
    }

    /// [`ShardedFleet::restore`] plus a pool of `workers` threads.
    /// Restoration happens entirely on the coordinator *before* any
    /// worker exists, so a broken chain surfaces as a typed
    /// [`CheckpointError`] naming the exact segment; it can never panic
    /// a worker or hang a barrier.
    pub fn restore(
        cfg: ShardConfig,
        policy: AdmissionPolicy,
        dir: impl AsRef<Path>,
        registry: &JobRegistry,
        ticks: u64,
        rejected: &[u64],
        workers: usize,
    ) -> Result<Self, CheckpointError> {
        let fleet = ShardedFleet::restore(cfg, policy, dir, registry, ticks, rejected)?;
        Ok(Self::with_workers(fleet, workers))
    }

    fn with_workers(fleet: ShardedFleet, workers: usize) -> Self {
        let shards = fleet.shard_count();
        let nworkers = workers.clamp(1, shards);
        let pool = (nworkers > 1).then(|| Pool::spawn(shards, nworkers));
        Self { fleet, pool }
    }

    /// Number of worker threads serving the shards (1 means ticks run
    /// inline on the caller's thread).
    pub fn worker_count(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.workers.len())
    }

    // The forwards from here to `with_checkpoint_dir` repeat what
    // `Deref` already reaches, on purpose: inherent methods win over a
    // same-named trait method a caller implements for this type (the
    // benchmark's `Fleet` trait does), so such a trait can forward to
    // them without calling itself.

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.fleet.shard_count()
    }

    /// Borrow shard `i`'s client.
    pub fn shard(&self, i: usize) -> &FleetClient {
        self.fleet.shard(i)
    }

    /// Mutably borrow shard `i`'s client.
    pub fn shard_mut(&mut self, i: usize) -> &mut FleetClient {
        self.fleet.shard_mut(i)
    }

    /// The shard that owns `tenant` under the current ring.
    pub fn shard_for(&self, tenant: &str) -> usize {
        self.fleet.shard_for(tenant)
    }

    /// Queued jobs across all shards.
    pub fn queued_len(&self) -> usize {
        self.fleet.queued_len()
    }

    /// Running jobs across all shards.
    pub fn running_len(&self) -> usize {
        self.fleet.running_len()
    }

    /// The fleet-wide summary, merged exactly as
    /// [`ShardedFleet::fleet_report`] merges it.
    pub fn fleet_report(&self) -> FleetReport {
        self.fleet.fleet_report()
    }

    /// Snapshot every shard (coordinator-side, between phases — no
    /// worker ever holds a client while it is being serialized); see
    /// [`ShardedFleet::snapshot`].
    pub fn snapshot(&mut self) -> Result<Vec<SnapshotStats>, CheckpointError> {
        self.fleet.snapshot()
    }

    /// Arm per-shard delta checkpointing under `dir`; see
    /// [`ShardedFleet::with_checkpoint_dir`].
    pub fn with_checkpoint_dir(
        self,
        dir: impl Into<PathBuf>,
        deltas_per_base: u64,
    ) -> io::Result<Self> {
        let Self { fleet, pool } = self;
        Ok(Self { fleet: fleet.with_checkpoint_dir(dir, deltas_per_base)?, pool })
    }

    /// Advance every shard one tick — concurrently across workers —
    /// then run the steal barrier when the global tick count hits the
    /// cadence. Returns whether any shard did work. Bit-identical to
    /// [`ShardedFleet::tick`], which it simply is at one worker.
    pub fn tick(&mut self) -> bool {
        let Some(pool) = &mut self.pool else {
            return self.fleet.tick();
        };
        let outcomes = pool.phase(&mut self.fleet.shards, 1);
        self.fleet.advance(1);
        outcomes.iter().any(|o| !o.went_idle)
    }

    /// Tick until every shard is drained, in barrier-to-barrier phases
    /// (workers run whole stretches of virtual time without coordinator
    /// round-trips). Lands on exactly the tick
    /// [`ShardedFleet::run_until_idle`] would stop at, which it simply
    /// is at one worker.
    pub fn run_until_idle(&mut self) {
        let Some(pool) = &mut self.pool else {
            return self.fleet.run_until_idle();
        };
        loop {
            // Without barriers any chunk works (results are
            // phase-length-independent); 64 amortizes the handoff.
            let k = self.fleet.ticks_to_barrier().unwrap_or(64);
            let outcomes = pool.phase(&mut self.fleet.shards, k);
            // When every shard went idle inside the phase, the serial
            // loop stops at the first globally idle tick: the deepest
            // first-idle tick across shards.
            let all_idle = outcomes.iter().all(|o| o.went_idle);
            let ran =
                if all_idle { outcomes.iter().map(|o| o.ticks_run).max().unwrap_or(0) } else { k };
            // Catch early-idle shards up with the idle ticks the serial
            // path would have issued: idle ticks still advance
            // telemetry and autosave cadences, so they cannot be
            // skipped.
            for (client, o) in self.fleet.shards.iter_mut().zip(&outcomes) {
                for _ in o.ticks_run..ran {
                    client.tick();
                }
            }
            self.fleet.advance(ran);
            if all_idle && self.fleet.queued_len() == 0 && self.fleet.running_len() == 0 {
                return;
            }
        }
    }

    /// Tick (through the pool) until `handle`'s job reaches a terminal
    /// state, then return its report.
    ///
    /// # Panics
    /// When no shard knows the job.
    pub fn await_report(&mut self, handle: JobHandle) -> &JobReport {
        while matches!(self.fleet.status(handle), JobStatus::Queued | JobStatus::Running) {
            self.tick();
        }
        self.fleet.report(handle).expect("await_report on a job no shard knows")
    }
}

impl Deref for ParallelFleet {
    type Target = ShardedFleet;

    fn deref(&self) -> &ShardedFleet {
        &self.fleet
    }
}

impl DerefMut for ParallelFleet {
    fn deref_mut(&mut self) -> &mut ShardedFleet {
        &mut self.fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_core::{BitString, SearchConfig, TabuSearch};
    use lnls_gpu_sim::{DeviceSpec, MultiDevice};
    use lnls_neighborhood::{Neighborhood, TwoHamming};
    use lnls_problems::OneMax;
    use lnls_runtime::{BinaryJob, JobSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn onemax_job(i: u64, iters: u64) -> BinaryJob<OneMax, TwoHamming> {
        let n = 24;
        let hood = TwoHamming::new(n);
        let mut rng = StdRng::seed_from_u64(i);
        let init = BitString::random(&mut rng, n);
        let search = TabuSearch::paper(SearchConfig::budget(iters).with_seed(i), hood.size());
        BinaryJob::new(format!("onemax-{i}"), OneMax::new(n), hood, search, init)
    }

    fn template() -> SchedulerConfig {
        SchedulerConfig {
            quantum_iters: Some(8),
            max_batch: 4,
            telemetry_every_ticks: Some(1),
            ..Default::default()
        }
    }

    fn serial(shards: usize) -> crate::ShardedFleet {
        crate::ShardedFleet::new(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            shards,
            template(),
            |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
        )
    }

    fn parallel(shards: usize, workers: usize) -> ParallelFleet {
        ParallelFleet::new(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            shards,
            workers,
            template(),
            |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
        )
    }

    /// Pile jobs on a couple of tenants so steal barriers genuinely
    /// fire, on serial and parallel fleets alike.
    fn submit_load(submit: &mut dyn FnMut(JobSpec<BinaryJob<OneMax, TwoHamming>>)) {
        for i in 0..14 {
            let spec = JobSpec::new(onemax_job(i, 80)).for_tenant(format!("tenant-{}", i % 3));
            submit(spec);
        }
    }

    #[test]
    fn parallel_run_matches_serial_bits_at_every_worker_count() {
        let mut want = serial(4);
        submit_load(&mut |spec| {
            want.submit_spec(spec).unwrap();
        });
        want.run_until_idle();
        let want_report = format!("{:?}", want.fleet_report());
        assert!(want.steals() > 0, "the load must be lopsided enough to steal");

        for workers in [1, 2, 3, 4, 8] {
            let mut par = parallel(4, workers);
            assert_eq!(par.worker_count(), workers.min(4), "workers clamp to the shard count");
            submit_load(&mut |spec| {
                par.submit_spec(spec).unwrap();
            });
            par.run_until_idle();
            assert_eq!(
                format!("{:?}", par.fleet_report()),
                want_report,
                "{workers} workers must reproduce the serial bits"
            );
            assert_eq!(par.steals(), want.steals(), "{workers} workers: same steals");
            assert_eq!(par.ticks(), want.ticks(), "{workers} workers: same tick count");
        }
    }

    #[test]
    fn one_worker_spawns_no_thread() {
        for (shards, workers) in [(4, 1), (1, 8), (3, 0)] {
            let fleet = parallel(shards, workers);
            assert_eq!(fleet.worker_count(), 1, "{shards} shards, {workers} workers");
            assert!(fleet.pool.is_none(), "{shards} shards, {workers} workers: no pool");
        }
        assert!(parallel(2, 2).pool.is_some(), "two workers need a pool");
    }

    #[test]
    fn single_tick_interleaving_matches_serial() {
        let mut want = serial(2);
        let mut par = parallel(2, 2);
        submit_load(&mut |spec| {
            want.submit_spec(spec).unwrap();
        });
        submit_load(&mut |spec| {
            par.submit_spec(spec).unwrap();
        });
        loop {
            let a = want.tick();
            let b = par.tick();
            assert_eq!(a, b, "tick {} must report the same progress", want.ticks());
            if !a && want.queued_len() == 0 && want.running_len() == 0 {
                break;
            }
        }
        assert_eq!(format!("{:?}", par.fleet_report()), format!("{:?}", want.fleet_report()));
    }

    #[test]
    fn parallel_snapshot_restore_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("lnls-par-restore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No telemetry here: series are not checkpointed (a restored
        // fleet starts a fresh one), so a crashed run can only match an
        // uninterrupted one bit-for-bit with sampling off — the same
        // deal the serial restore test strikes.
        let plain = || {
            ParallelFleet::new(
                ShardConfig::current(),
                AdmissionPolicy::unbounded(),
                2,
                2,
                SchedulerConfig { quantum_iters: Some(8), max_batch: 4, ..Default::default() },
                |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
            )
        };

        let mut reference = plain();
        submit_load(&mut |spec| {
            reference.submit_spec(spec).unwrap();
        });
        reference.run_until_idle();
        let want = format!("{:?}", reference.fleet_report());

        let mut crashing = plain().with_checkpoint_dir(&dir, 8).unwrap();
        submit_load(&mut |spec| {
            crashing.submit_spec(spec).unwrap();
        });
        for _ in 0..6 {
            crashing.tick();
            crashing.snapshot().unwrap();
        }
        let ticks = crashing.ticks();
        drop(crashing); // every worker thread joins here — a full crash

        let registry = JobRegistry::with_builtin();
        let mut revived = ParallelFleet::restore(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            &dir,
            &registry,
            ticks,
            &[],
            2,
        )
        .unwrap();
        revived.run_until_idle();
        assert_eq!(format!("{:?}", revived.fleet_report()), want);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
