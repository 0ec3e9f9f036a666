//! [`ShardedFleet`]: N schedulers behind one facade, with consistent-
//! hash placement, a deterministic steal barrier, and per-shard delta
//! checkpoints.

use crate::config::ShardConfig;
use crate::ring::{fnv1a, HashRing};
use lnls_runtime::{
    percentile_sorted, AdmissionPolicy, CheckpointError, DeltaCheckpointer, FleetClient,
    FleetReport, JobHandle, JobRegistry, JobReport, JobSpec, JobStatus, Scheduler, SchedulerConfig,
    SearchJob, SnapshotStats, SubmitError, Telemetry, TenantStat,
};
use std::io;
use std::path::{Path, PathBuf};

/// Bit position of the shard index inside a [`JobId`]: shard `i` mints
/// ids from `i << SHARD_ID_SHIFT`, so ids stay globally unique however
/// many times stealing moves a job — and shard 0, based at 0, mints
/// exactly the ids a bare scheduler would.
///
/// [`JobId`]: lnls_runtime::JobId
pub const SHARD_ID_SHIFT: u32 = 40;

/// A horizontal fleet of [`FleetClient`]s (one scheduler + device
/// group per shard) behind a single submit/tick/report facade.
///
/// # Placement
/// Tenants are placed by consistent hashing over a virtual-node ring
/// (see [`HashRing`]); every job of a tenant lands on the tenant's
/// shard, so per-tenant admission caps and fairness stay local to one
/// scheduler.
///
/// # The steal barrier
/// Shards drift out of balance (bursty tenants, uneven job sizes), so
/// every [`ShardConfig::steal_every_ticks`] global ticks the fleet
/// runs a *steal barrier*. The policy is deliberately boring and fully
/// deterministic, in this order:
///
/// 1. **Takers** are shards with an empty queue, visited in ascending
///    shard index.
/// 2. **Donors** are shards with at least two queued jobs (a donation
///    never empties a donor). The donor for each taker is the one with
///    the deepest queue; ties break by the FNV-1a hash of
///    `(steal_seed, global tick, shard index)` — a seeded rotation so
///    one shard is not structurally favoured — and any remaining tie
///    by smaller index.
/// 3. The donor gives its **newest** queued job (highest submission
///    sequence): it has waited least, so moving it perturbs the
///    donor's fairness order least.
/// 4. At most [`ShardConfig::steal_max_per_barrier`] jobs move per
///    barrier, fleet-wide.
///
/// Running jobs are never stolen. Replays are bit-identical because
/// every input to the policy (queue depths, tick count, seed, shard
/// order) is itself deterministic.
///
/// # Checkpoints
/// [`with_checkpoint_dir`](Self::with_checkpoint_dir) arms one
/// [`DeltaCheckpointer`] per shard (subdirectories `shard-000`,
/// `shard-001`, …); [`snapshot`](Self::snapshot) then writes rotating
/// base + delta segments whose size tracks per-tick churn, not fleet
/// size. [`restore`](Self::restore) rebuilds the fleet from the latest
/// chain in each subdirectory.
pub struct ShardedFleet {
    cfg: ShardConfig,
    ring: HashRing,
    /// Shard clients in shard order. A [`ParallelFleet`](crate::ParallelFleet)
    /// moves the whole vector out to its workers for a phase and puts
    /// it back before any other method can run.
    pub(crate) shards: Vec<FleetClient>,
    ticks: u64,
    steals: u64,
    checkpointers: Option<Vec<DeltaCheckpointer>>,
    checkpoint_dir: Option<PathBuf>,
}

impl ShardedFleet {
    /// Build a fleet of `shards` schedulers. `template` supplies every
    /// scheduler knob except [`id_base`](SchedulerConfig::id_base),
    /// which the fleet overrides per shard (`i << `[`SHARD_ID_SHIFT`])
    /// to keep job ids globally unique across steals. `build_devices`
    /// supplies each shard's device group.
    pub fn new(
        cfg: ShardConfig,
        policy: AdmissionPolicy,
        shards: usize,
        template: SchedulerConfig,
        mut build_devices: impl FnMut(usize) -> lnls_gpu_sim::MultiDevice,
    ) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        let shards = (0..shards)
            .map(|i| {
                let mut shard_cfg = template.clone();
                shard_cfg.id_base = (i as u64) << SHARD_ID_SHIFT;
                FleetClient::new(Scheduler::new(build_devices(i), shard_cfg), policy.clone())
            })
            .collect::<Vec<_>>();
        let ring = HashRing::new(shards.len(), cfg.ring_replicas);
        Self { cfg, ring, shards, ticks: 0, steals: 0, checkpointers: None, checkpoint_dir: None }
    }

    /// Reassemble a fleet from already-built (typically restored)
    /// shard clients — the driver's crash path restores each shard
    /// from checkpoint bytes and hands them back here. `ticks`
    /// realigns the steal barrier phase to the tick count at snapshot
    /// time. The steal counter restarts at zero (it is informational
    /// and never feeds back into scheduling).
    pub fn from_clients(cfg: ShardConfig, shards: Vec<FleetClient>, ticks: u64) -> Self {
        assert!(!shards.is_empty(), "a fleet needs at least one shard");
        let ring = HashRing::new(shards.len(), cfg.ring_replicas);
        Self { cfg, ring, shards, ticks, steals: 0, checkpointers: None, checkpoint_dir: None }
    }

    /// The frozen config this fleet runs under.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The placement ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow shard `i`'s client.
    pub fn shard(&self, i: usize) -> &FleetClient {
        &self.shards[i]
    }

    /// Mutably borrow shard `i`'s client.
    pub fn shard_mut(&mut self, i: usize) -> &mut FleetClient {
        &mut self.shards[i]
    }

    /// Global ticks elapsed (each advances every shard once).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Jobs moved by steal barriers so far.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// The checkpoint directory, when one was ever attached (set by
    /// [`with_checkpoint_dir`](Self::with_checkpoint_dir) and
    /// remembered across [`restore`](Self::restore)).
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Queued jobs across all shards.
    pub fn queued_len(&self) -> usize {
        self.shards.iter().map(|s| s.scheduler().queued_len()).sum()
    }

    /// Running jobs across all shards.
    pub fn running_len(&self) -> usize {
        self.shards.iter().map(|s| s.scheduler().running_len()).sum()
    }

    /// The shard that owns `tenant` under the current ring.
    pub fn shard_for(&self, tenant: &str) -> usize {
        self.ring.shard_for(tenant)
    }

    /// Route a spec to its tenant's shard and submit it there. Returns
    /// the shard index with the handle; admission failures are the
    /// target shard's.
    pub fn submit_spec<J: SearchJob>(
        &mut self,
        spec: JobSpec<J>,
    ) -> Result<(usize, JobHandle), SubmitError> {
        let shard = self.ring.shard_for(spec.tenant());
        let handle = self.shards[shard].submit_spec(spec)?;
        Ok((shard, handle))
    }

    /// Submit a bare job under the default envelope (tenant
    /// `"default"`).
    pub fn submit<J: SearchJob>(&mut self, job: J) -> Result<(usize, JobHandle), SubmitError> {
        self.submit_spec(JobSpec::new(job))
    }

    /// Advance every shard one tick (ascending shard order), then run
    /// the steal barrier when the global tick count hits the cadence.
    /// Returns whether any shard did work.
    pub fn tick(&mut self) -> bool {
        let mut any = false;
        for shard in &mut self.shards {
            any |= shard.tick();
        }
        self.advance(1);
        any
    }

    /// Tick until every shard is drained.
    pub fn run_until_idle(&mut self) {
        while self.tick() || self.queued_len() > 0 || self.running_len() > 0 {}
    }

    /// Ticks left until the next steal barrier, or `None` when this
    /// fleet never steals (one shard, or a zero cadence).
    pub(crate) fn ticks_to_barrier(&self) -> Option<u64> {
        let cadence = self.cfg.steal_every_ticks;
        (self.shards.len() > 1 && cadence > 0).then(|| cadence - self.ticks % cadence)
    }

    /// Count `ticks` global ticks that every shard has already run,
    /// then run the steal barrier (see the type docs for the policy)
    /// if the new count sits on its cadence. `ticks` never crosses a
    /// barrier: it is at most [`ticks_to_barrier`](Self::ticks_to_barrier).
    pub(crate) fn advance(&mut self, ticks: u64) {
        let left = self.ticks_to_barrier();
        debug_assert!(left.is_none_or(|left| ticks <= left), "advance crossed a steal barrier");
        let on_cadence = left == Some(ticks);
        self.ticks += ticks;
        if on_cadence {
            self.steals += run_steal_barrier(&self.cfg, &mut self.shards, self.ticks);
        }
    }

    /// Where `handle`'s job currently is, searching every shard
    /// (stealing may have moved it off the shard that minted the id).
    pub fn status(&self, handle: JobHandle) -> JobStatus {
        for shard in &self.shards {
            match shard.status(handle) {
                JobStatus::Unknown => continue,
                s => return s,
            }
        }
        JobStatus::Unknown
    }

    /// The finished report for `handle`, if any shard completed it.
    pub fn report(&self, handle: JobHandle) -> Option<&JobReport> {
        self.shards.iter().find_map(|s| s.report(handle))
    }

    /// Request cancellation wherever the job lives.
    pub fn cancel(&mut self, handle: JobHandle) -> bool {
        self.shards.iter_mut().any(|s| s.cancel(handle))
    }

    /// Tick until `handle`'s job reaches a terminal state, then return
    /// its report.
    ///
    /// # Panics
    /// When no shard knows the job.
    pub fn await_report(&mut self, handle: JobHandle) -> &JobReport {
        while matches!(self.status(handle), JobStatus::Queued | JobStatus::Running) {
            self.tick();
        }
        self.report(handle).expect("await_report on a job no shard knows")
    }

    /// Every finished report across the fleet, shard-major.
    pub fn reports(&self) -> impl Iterator<Item = &JobReport> {
        self.shards.iter().flat_map(|s| s.reports())
    }

    /// The fleet-wide summary. One shard returns its report verbatim
    /// (a 1-shard fleet is byte-for-byte a bare scheduler run); more
    /// shards merge: counts and serialized seconds sum, makespans max,
    /// per-device vectors concatenate shard-major, and the fairness
    /// aggregates (means, maxima, percentiles) are recomputed over the
    /// union of per-job rows — exactly the statistics one scheduler
    /// holding all jobs would report. Telemetry merges sample-by-sample
    /// across shards when every shard recorded a series (shards tick in
    /// lockstep, so samples align index for index; counts sum, device
    /// columns concatenate shard-major, the clock maxes); per-shard
    /// series live on the shard reports.
    pub fn fleet_report(&self) -> FleetReport {
        if self.shards.len() == 1 {
            return self.shards[0].fleet_report();
        }
        let reports: Vec<FleetReport> = self.shards.iter().map(|s| s.fleet_report()).collect();
        merge_reports(&reports)
    }

    /// Arm per-shard delta checkpointing under `dir` (subdirectories
    /// `shard-000`, `shard-001`, …), rotating to a fresh base every
    /// `deltas_per_base` deltas. Re-arming after a
    /// [`restore`](Self::restore) starts a new epoch on the first
    /// [`snapshot`](Self::snapshot).
    pub fn with_checkpoint_dir(
        mut self,
        dir: impl Into<PathBuf>,
        deltas_per_base: u64,
    ) -> io::Result<Self> {
        let dir = dir.into();
        let mut checkpointers = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            checkpointers.push(DeltaCheckpointer::open(shard_dir(&dir, i), deltas_per_base)?);
        }
        self.checkpointers = Some(checkpointers);
        self.checkpoint_dir = Some(dir);
        Ok(self)
    }

    /// Snapshot every shard (a base or a delta each, on the rotation
    /// cadence), returning per-shard segment stats in shard order.
    ///
    /// # Panics
    /// When checkpointing was not armed via
    /// [`with_checkpoint_dir`](Self::with_checkpoint_dir).
    pub fn snapshot(&mut self) -> Result<Vec<SnapshotStats>, CheckpointError> {
        let checkpointers =
            self.checkpointers.as_mut().expect("snapshot() requires with_checkpoint_dir()");
        self.shards
            .iter()
            .zip(checkpointers)
            .map(|(shard, ckpt)| ckpt.snapshot(shard.scheduler()))
            .collect()
    }

    /// Rebuild a fleet from the latest base + delta chain in each
    /// `shard-NNN` subdirectory of `dir`. `ticks` realigns the steal
    /// barrier phase (pass the tick count at snapshot time);
    /// `rejected` restores each shard client's admission-rejection
    /// counter (missing entries default to 0). Checkpointing comes
    /// back disarmed — call
    /// [`with_checkpoint_dir`](Self::with_checkpoint_dir) to resume
    /// snapshotting.
    pub fn restore(
        cfg: ShardConfig,
        policy: AdmissionPolicy,
        dir: impl AsRef<Path>,
        registry: &JobRegistry,
        ticks: u64,
        rejected: &[u64],
    ) -> Result<Self, CheckpointError> {
        let dir = dir.as_ref();
        let mut shards = Vec::new();
        loop {
            let sub = shard_dir(dir, shards.len());
            if !sub.is_dir() {
                break;
            }
            let store = lnls_runtime::CheckpointStore::open(&sub).map_err(|source| {
                CheckpointError::Io { segment: sub.display().to_string(), source }
            })?;
            let scheduler = Scheduler::restore(store.load_latest(registry)?);
            let rejected_count = rejected.get(shards.len()).copied().unwrap_or(0);
            shards.push(FleetClient::resume(scheduler, policy.clone(), rejected_count));
        }
        if shards.is_empty() {
            return Err(CheckpointError::Empty { dir: dir.display().to_string() });
        }
        let mut fleet = Self::from_clients(cfg, shards, ticks);
        fleet.checkpoint_dir = Some(dir.to_path_buf());
        Ok(fleet)
    }
}

fn shard_dir(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard-{i:03}"))
}

/// One steal barrier over `shards` at global tick `ticks` (see the
/// [`ShardedFleet`] type docs for the policy). Returns how many jobs
/// moved.
fn run_steal_barrier(cfg: &ShardConfig, shards: &mut [FleetClient], ticks: u64) -> u64 {
    let mut budget = cfg.steal_max_per_barrier;
    let mut steals = 0;
    if budget == 0 {
        return steals;
    }
    let takers: Vec<usize> =
        (0..shards.len()).filter(|&i| shards[i].scheduler().queued_len() == 0).collect();
    for taker in takers {
        if budget == 0 {
            break;
        }
        // Deepest queue wins; ties rotate by seeded hash, then
        // fall to the smaller index. `(depth, !hash, !idx)` max =
        // (max depth, min hash, min idx).
        let donor = (0..shards.len())
            .filter(|&i| i != taker && shards[i].scheduler().queued_len() >= 2)
            .max_by_key(|&i| {
                let depth = shards[i].scheduler().queued_len();
                let mut key = [0u8; 24];
                key[..8].copy_from_slice(&cfg.steal_seed.to_le_bytes());
                key[8..16].copy_from_slice(&ticks.to_le_bytes());
                key[16..].copy_from_slice(&(i as u64).to_le_bytes());
                (depth, !fnv1a(&key), !(i as u64))
            });
        let Some(donor) = donor else { break };
        let id =
            shards[donor].scheduler().newest_queued().expect("donor has at least two queued jobs");
        let stolen = shards[donor].donate_queued(id).expect("newest_queued returned a queued id");
        shards[taker].adopt(stolen);
        steals += 1;
        budget -= 1;
    }
    steals
}

/// Merge per-shard reports into one fleet-wide report (see
/// [`ShardedFleet::fleet_report`] for the field-by-field semantics).
fn merge_reports(reports: &[FleetReport]) -> FleetReport {
    let mut merged = reports[0].clone();
    for r in &reports[1..] {
        merged.jobs_completed += r.jobs_completed;
        merged.jobs_cancelled += r.jobs_cancelled;
        merged.jobs_rejected += r.jobs_rejected;
        merged.jobs_queued += r.jobs_queued;
        merged.jobs_running += r.jobs_running;
        merged.makespan_s = merged.makespan_s.max(r.makespan_s);
        merged.serialized_s += r.serialized_s;
        merged.device_busy_s.extend_from_slice(&r.device_busy_s);
        merged.cpu_busy_s.extend_from_slice(&r.cpu_busy_s);
        merged.fused_launches += r.fused_launches;
        merged.launches_saved += r.launches_saved;
        merged.preemptions += r.preemptions;
        merged.autosaves += r.autosaves;
        merged.iterations_executed += r.iterations_executed;
        merged.stream_makespan_s = merged.stream_makespan_s.max(r.stream_makespan_s);
        merged.stream_serialized_s += r.stream_serialized_s;
        merged.spans += r.spans;
        merged.span_iterations += r.span_iterations;
        merged.launch_overhead_saved_s += r.launch_overhead_saved_s;
        merged.tenant_stats.extend(r.tenant_stats.iter().cloned());
        merged.fleet_book.add(&r.fleet_book);
    }
    // Telemetry: the facades tick every shard in lockstep, so series
    // recorded at the same cadence align index for index and merge
    // sample-by-sample (counts sum, devices concatenate shard-major,
    // the clock maxes — see [`Telemetry::merge`]). If any shard ran
    // unsampled there is no aligned fleet-wide series; shard 0's (the
    // observed shard, by the same convention drivers use for event
    // sinks) then stands in, which `merged` already carries.
    if let Some(series) =
        reports.iter().map(|r| r.telemetry.as_ref()).collect::<Option<Vec<&Telemetry>>>()
    {
        merged.telemetry = Some(Telemetry::merge(&series));
    }
    merged.speedup_vs_serial =
        if merged.makespan_s > 0.0 { merged.serialized_s / merged.makespan_s } else { 1.0 };
    merged.jobs_per_sim_s = if merged.makespan_s > 0.0 {
        merged.jobs_completed as f64 / merged.makespan_s
    } else {
        0.0
    };
    // Utilization is against the *fleet* makespan: a shard that
    // finished early idles (from the fleet's point of view) until the
    // slowest shard drains.
    merged.device_utilization = merged
        .device_busy_s
        .iter()
        .map(|&busy| if merged.makespan_s > 0.0 { busy / merged.makespan_s } else { 0.0 })
        .collect();
    // Fairness aggregates recomputed over the union of per-job rows,
    // mirroring `Scheduler::fleet_report` (rejected rows excluded).
    let served: Vec<&TenantStat> = merged.tenant_stats.iter().filter(|t| !t.rejected).collect();
    merged.max_wait_s = served.iter().map(|t| t.wait_s).fold(0.0, f64::max);
    merged.max_turnaround_s = served.iter().map(|t| t.turnaround_s).fold(0.0, f64::max);
    let count = served.len().max(1) as f64;
    merged.mean_wait_s = served.iter().map(|t| t.wait_s).sum::<f64>() / count;
    merged.mean_turnaround_s = served.iter().map(|t| t.turnaround_s).sum::<f64>() / count;
    let mut waits: Vec<f64> = served.iter().map(|t| t.wait_s).collect();
    waits.sort_by(f64::total_cmp);
    let mut turnarounds: Vec<f64> = served.iter().map(|t| t.turnaround_s).collect();
    turnarounds.sort_by(f64::total_cmp);
    merged.wait_p50_s = percentile_sorted(&waits, 0.50);
    merged.wait_p95_s = percentile_sorted(&waits, 0.95);
    merged.wait_p99_s = percentile_sorted(&waits, 0.99);
    merged.turnaround_p50_s = percentile_sorted(&turnarounds, 0.50);
    merged.turnaround_p95_s = percentile_sorted(&turnarounds, 0.95);
    merged.turnaround_p99_s = percentile_sorted(&turnarounds, 0.99);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_core::{BitString, SearchConfig, TabuSearch};
    use lnls_gpu_sim::{DeviceSpec, MultiDevice};
    use lnls_neighborhood::{Neighborhood, TwoHamming};
    use lnls_problems::OneMax;
    use lnls_runtime::BinaryJob;
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

    fn fleet(shards: usize) -> ShardedFleet {
        ShardedFleet::new(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            shards,
            SchedulerConfig::default(),
            |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
        )
    }

    /// A tenant name the current ring places on `shard` of a
    /// `shards`-wide fleet.
    fn tenant_on(f: &ShardedFleet, shard: usize) -> String {
        (0..).map(|i| format!("tenant-{i}")).find(|t| f.shard_for(t) == shard).unwrap()
    }

    #[test]
    fn one_shard_fleet_matches_bare_client_bit_for_bit() {
        let mut sharded = fleet(1);
        let mut bare = FleetClient::new(
            Scheduler::new(
                MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
                SchedulerConfig::default(),
            ),
            AdmissionPolicy::unbounded(),
        );
        for i in 0..6 {
            let spec = JobSpec::new(onemax_job(i, 40)).for_tenant(format!("t{}", i % 3));
            let (shard, _) = sharded.submit_spec(spec).unwrap();
            assert_eq!(shard, 0);
            let spec = JobSpec::new(onemax_job(i, 40)).for_tenant(format!("t{}", i % 3));
            bare.submit_spec(spec).unwrap();
        }
        sharded.run_until_idle();
        bare.run_until_idle();
        assert_eq!(
            format!("{:?}", sharded.fleet_report()),
            format!("{:?}", bare.fleet_report()),
            "a 1-shard fleet must be byte-for-byte a bare scheduler run"
        );
        assert_eq!(sharded.steals(), 0);
    }

    #[test]
    fn steal_barrier_moves_queued_work_to_idle_shards() {
        let mut f = fleet(2);
        // Pile every job on one shard's tenant; the other starts idle.
        let loaded = tenant_on(&f, 0);
        let mut handles = Vec::new();
        for i in 0..10 {
            let spec = JobSpec::new(onemax_job(i, 60)).for_tenant(loaded.clone());
            let (shard, h) = f.submit_spec(spec).unwrap();
            assert_eq!(shard, 0, "all jobs routed to the loaded shard");
            handles.push(h);
        }
        f.run_until_idle();
        assert!(f.steals() > 0, "idle shard never stole from the overloaded one");
        let report = f.fleet_report();
        assert_eq!(report.jobs_completed, 10);
        // Stolen jobs really ran on the taker: its device clock moved.
        assert!(
            report.device_busy_s.iter().all(|&b| b > 0.0),
            "every shard's device should have run something: {:?}",
            report.device_busy_s
        );
    }

    /// The PR 9 gap, pinned: a merged fleet report's telemetry is the
    /// sample-aligned merge of *every* shard's series, not shard 0's
    /// alone.
    #[test]
    fn merged_telemetry_spans_every_shard() {
        let mut f = ShardedFleet::new(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            2,
            SchedulerConfig {
                telemetry_every_ticks: Some(1),
                quantum_iters: Some(8),
                ..Default::default()
            },
            |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
        );
        for shard in 0..2 {
            let tenant = tenant_on(&f, shard);
            for i in 0..4 {
                let spec =
                    JobSpec::new(onemax_job(shard as u64 * 10 + i, 60)).for_tenant(tenant.clone());
                f.submit_spec(spec).unwrap();
            }
        }
        f.run_until_idle();
        let merged = f.fleet_report().telemetry.expect("telemetry was on");
        let s0 = f.shard(0).fleet_report().telemetry.expect("shard 0 sampled");
        let s1 = f.shard(1).fleet_report().telemetry.expect("shard 1 sampled");
        assert_eq!(s0.samples().len(), s1.samples().len(), "lockstep shards sample in lockstep");
        assert_eq!(merged.samples().len(), s0.samples().len());
        for (i, m) in merged.samples().iter().enumerate() {
            let (a, b) = (&s0.samples()[i], &s1.samples()[i]);
            assert_eq!(m.queue_depth, a.queue_depth + b.queue_depth, "sample {i}");
            assert_eq!(m.completed, a.completed + b.completed, "sample {i}");
            assert_eq!(m.now_s, a.now_s.max(b.now_s), "sample {i}");
            assert_eq!(m.device_busy_s.len(), 2, "one column per device fleet-wide");
        }
        // Both shards genuinely contributed load (the gap this pins).
        assert!(
            s1.samples().iter().any(|s| s.queue_depth > 0 || s.running > 0),
            "shard 1 must carry observable load for this pin to mean anything"
        );
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let run = || {
            let mut f = fleet(3);
            for i in 0..12 {
                let spec = JobSpec::new(onemax_job(i, 50)).for_tenant(format!("tenant-{}", i % 5));
                f.submit_spec(spec).unwrap();
            }
            f.run_until_idle();
            format!("{:?}", f.fleet_report())
        };
        assert_eq!(run(), run(), "same submissions, same config, same report bits");
    }

    /// Two shards, preemption on (so jobs outlive several ticks), all
    /// load on one shard's tenant — a steal is guaranteed at the first
    /// barrier.
    fn lopsided_fleet() -> ShardedFleet {
        ShardedFleet::new(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            2,
            SchedulerConfig { quantum_iters: Some(8), max_batch: 4, ..Default::default() },
            |_| MultiDevice::new_uniform(1, DeviceSpec::gtx280()),
        )
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("lnls-shard-restore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let submit_all = |f: &mut ShardedFleet| {
            let loaded = tenant_on(f, 0);
            for i in 0..10 {
                let spec = JobSpec::new(onemax_job(i, 80)).for_tenant(loaded.clone());
                f.submit_spec(spec).unwrap();
            }
        };
        // Reference: run to completion without interruption.
        let mut reference = lopsided_fleet();
        submit_all(&mut reference);
        reference.run_until_idle();
        let want = format!("{:?}", reference.fleet_report());

        // Crashing run: snapshot every tick (base, then deltas), die
        // after tick 6 — past the tick-4 steal barrier — and resume
        // from disk.
        let mut crashing = lopsided_fleet().with_checkpoint_dir(&dir, 8).unwrap();
        submit_all(&mut crashing);
        for _ in 0..6 {
            crashing.tick();
            crashing.snapshot().unwrap();
        }
        let ticks = crashing.ticks();
        assert!(crashing.steals() > 0, "crash point must be past a steal");
        drop(crashing);

        let registry = JobRegistry::with_builtin();
        let mut revived = ShardedFleet::restore(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            &dir,
            &registry,
            ticks,
            &[],
        )
        .unwrap();
        revived.run_until_idle();
        assert_eq!(
            format!("{:?}", revived.fleet_report()),
            want,
            "resume from base+deltas mid-steal must land on the reference bits"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restore_of_empty_dir_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("lnls-shard-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = JobRegistry::with_builtin();
        let err = match ShardedFleet::restore(
            ShardConfig::current(),
            AdmissionPolicy::unbounded(),
            &dir,
            &registry,
            0,
            &[],
        ) {
            Ok(_) => panic!("restore of an empty store must fail"),
            Err(e) => e,
        };
        assert!(matches!(err, CheckpointError::Empty { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
