//! Host wall-clock benchmark for the fleet simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload heavy-serial --seed 42 --seconds 20 --trace 0
//! ```
//!
//! One run lowers the workload's traffic shape, re-seeds its jobs from
//! `--seed`, times set-up, replays the traces through the public
//! `lnls-workload` / `lnls-runtime` / `lnls-shard` entry points for
//! `--seconds`, checks every output, and prints one JSON object as its
//! last line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. It exits 1 when a
//! correctness gate fails and 2 on bad arguments. See
//! `perfbench/README.md`.

mod replay;
mod solo;
mod spans;

use lnls_runtime::{percentile, FleetReport, JobRegistry, SnapshotKind};
use lnls_shard::{ParallelFleet, ShardedFleet};
use lnls_workload::{ArrivalProcess, Driver, Scenario, Trace, TrafficGen};
use replay::{replay, round_trip, Fleet, Replayed};
use solo::SoloTotals;
use spans::Recorder;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    HeavySerial,
    ServiceMix,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::HeavySerial, Workload::ServiceMix];

    fn name(self) -> &'static str {
        match self {
            Workload::HeavySerial => "heavy-serial",
            Workload::ServiceMix => "service-mix",
        }
    }

    /// Job-count scale applied to every scenario of the workload.
    fn scale(self) -> f64 {
        match self {
            Workload::HeavySerial => 2.0,
            Workload::ServiceMix => 8.0,
        }
    }

    fn scenarios(self) -> Vec<Scenario> {
        let scale = self.scale();
        match self {
            Workload::HeavySerial => vec![heavy(scale)],
            Workload::ServiceMix => Scenario::catalog()
                .into_iter()
                .chain([Scenario::closed_loop_saturation()])
                .map(|s| s.scaled(scale))
                .collect(),
        }
    }
}

/// The compute-heavy sharded trace of the workload bench's worker sweep:
/// big neighborhoods and long quanta, so search does nearly all the work.
fn heavy(scale: f64) -> Scenario {
    let mut s = Scenario::saturation_sharded_sized(32, 8, (48.0 * scale) as u64);
    s.name = "heavy-parallel".into();
    for t in &mut s.tenants {
        t.dims = vec![96];
        t.iters = (192, 256);
    }
    s.fleet.quantum_iters = Some(64);
    s
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42u64, 20.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::ALL.into_iter().find(|w| w.name() == value).ok_or_else(
                    || {
                        let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload '{value}'; known: {}", known.join(", "))
                    },
                )?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Correctness gates: every failure is counted and fails the run.
#[derive(Default)]
struct Gates {
    failed: u64,
}

impl Gates {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("gate failed: {what}");
            self.failed += 1;
        }
    }
}

fn bits(report: &FleetReport) -> String {
    format!("{report:?}")
}

/// Report bits a restore must reproduce: telemetry is observational and
/// not checkpointed, so a restored fleet starts a fresh series.
fn restored_bits(report: &FleetReport) -> String {
    bits(&FleetReport { telemetry: None, ..report.clone() })
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 * 1e-3).collect()
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the checkout came from, read from `.git` when there is
/// one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload lowers its traffic shape (arrival times, tenants,
/// families, sizes, budgets) from this fixed seed; `--seed` then
/// re-draws every job's instance and search seed. Lowering the shape
/// itself from `--seed` moves the family mix, and with it every metric,
/// by more than any bound a regression check could use.
const SHAPE_SEED: u64 = 42;

/// Re-seeded copies of the workload a run replays: the modeled metrics
/// average over them, which keeps them steady from seed to seed.
const COPIES: usize = 20;

/// Host seconds spent sampling set-up after each measured pass.
const SAMPLE_S: f64 = 0.02;

/// Give every job of `trace` a seed derived from its own and `seed`
/// (splitmix64 finalizer).
fn reseed(trace: &mut Trace, seed: u64) {
    use lnls_workload::JobRecipe as R;
    for arrival in &mut trace.arrivals {
        let (R::TabuOneMax { seed: s, .. }
        | R::TabuPpp { seed: s, .. }
        | R::TabuMaxCut { seed: s, .. }
        | R::AnnealOneMax { seed: s, .. }
        | R::Qap { seed: s, .. }
        | R::LnsRepair { seed: s, .. }
        | R::PortfolioRace { seed: s, .. }) = &mut arrival.recipe;
        let mut z = (*s ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *s = z ^ (z >> 31);
    }
}

/// The service-mix trace that the benchmark's own loop replays with a
/// delta checkpoint written after every tick, then restores from disk.
const DURABLE_TRACE: &str = "saturation-sharded";

/// Set-up: lower every trace shape (closed-loop scenarios are
/// recorded), re-seed it into [`COPIES`] copies, send each through the
/// trace codec, and build the fleet it replays on. Returns the decoded
/// copies, `copies[k][trace]`.
fn set_up(w: Workload, seed: u64, rec: &mut Recorder, gates: &mut Gates) -> Vec<Vec<Trace>> {
    let mut copies = vec![Vec::new(); COPIES];
    for scenario in w.scenarios() {
        let shape = if matches!(scenario.arrivals, ArrivalProcess::ClosedLoop { .. }) {
            // Recording is worker-independent; one worker keeps it serial.
            let span = rec.begin("workload.driver.record");
            let (trace, _) = Driver::record(&scenario.with_workers(1), SHAPE_SEED);
            rec.end(span);
            trace
        } else {
            let span = rec.begin("workload.traffic.lower");
            let trace = TrafficGen::lower(&scenario, SHAPE_SEED);
            rec.end(span);
            trace
        };
        for (k, copy) in copies.iter_mut().enumerate() {
            let mut trace = shape.clone();
            reseed(&mut trace, seed.wrapping_mul(COPIES as u64).wrapping_add(k as u64));
            let span = rec.begin("workload.trace.codec");
            let decoded = Trace::from_bytes(&trace.to_bytes());
            rec.end(span);
            let decoded = decoded.expect("a trace the codec just wrote must decode");
            gates.check(decoded == trace, "trace codec round trip");
            copy.push(decoded);
        }
    }
    for trace in &copies[0] {
        let span = rec.begin("bench.fleet.build");
        drop(ShardedFleet::build(trace));
        rec.end(span);
    }
    copies
}

/// `Driver::replay`, gated on its own accounting.
fn driver_replay(trace: &Trace, gates: &mut Gates) -> FleetReport {
    let r = Driver::replay(trace);
    gates.check(
        r.admitted + r.bounced == r.submitted,
        &format!("{}: Driver admitted + bounced == submitted", trace.scenario),
    );
    r.fleet
}

/// One end-to-end pass: every trace replayed once through
/// `Driver::replay`. Returns host seconds from first submit to final
/// report, the iterations executed, and the reports.
fn e2e_pass(traces: &[Trace], gates: &mut Gates) -> (f64, u64, Vec<FleetReport>) {
    let (mut wall, mut iters, mut reports) = (0.0, 0u64, Vec::new());
    for trace in traces {
        let t0 = Instant::now();
        let report = driver_replay(trace, gates);
        wall += t0.elapsed().as_secs_f64();
        iters += report.iterations_executed;
        reports.push(report);
    }
    (wall, iters, reports)
}

/// One pass of the benchmark's own loop over every trace. Returns its
/// host seconds and what each replay left behind.
fn own_pass<F: Fleet>(traces: &[Trace], dir: &Path, rec: &mut Recorder) -> (f64, Vec<Replayed<F>>) {
    rec.next_run();
    let (mut wall, mut out) = (0.0, Vec::new());
    for trace in traces {
        let durable = trace.scenario == DURABLE_TRACE;
        let mut fleet = F::build(trace);
        if durable {
            if dir.exists() {
                std::fs::remove_dir_all(dir).expect("remove the previous checkpoint dir");
            }
            fleet = fleet.arm(dir);
        }
        let t0 = Instant::now();
        out.push(replay(trace, fleet, rec, durable));
        wall += t0.elapsed().as_secs_f64();
    }
    (wall, out)
}

/// Check that every fleet of `last`, rebuilt from its checkpoint bytes
/// (and, for the durable trace, from its on-disk chain), reports what
/// the uninterrupted run reported.
fn gate_restore(
    traces: &[Trace],
    last: &[Replayed<ShardedFleet>],
    dir: &Path,
    rec: &mut Recorder,
    gates: &mut Gates,
) {
    rec.next_run();
    let registry = JobRegistry::with_builtin();
    for (trace, r) in traces.iter().zip(last) {
        let rejected: Vec<u64> =
            (0..r.fleet.shard_count()).map(|i| r.fleet.shard(i).rejected_submissions()).collect();
        let want = restored_bits(&r.report);
        let revived: ShardedFleet = round_trip(trace, &r.fleet, &registry, &rejected, r.ticks, rec);
        gates.check(
            restored_bits(&revived.fleet_report()) == want,
            &format!("{}: restored report == uninterrupted report", trace.scenario),
        );
        if trace.scenario == DURABLE_TRACE {
            let span = rec.begin("runtime.delta.restore");
            let config = replay::shard_config(trace);
            let revived = ShardedFleet::restore(
                config,
                trace.admission.clone(),
                dir,
                &registry,
                r.ticks,
                &rejected,
            )
            .expect("the chain the fleet just wrote must restore");
            rec.end(span);
            gates.check(
                restored_bits(&revived.fleet_report()) == want,
                &format!("{}: disk-restored report == uninterrupted report", trace.scenario),
            );
        }
    }
}

/// The own loop's result on each trace, as `gate_own` compares it: the
/// report bits and the submissions it accounted for.
fn own_outcomes<F: Fleet>(last: &[Replayed<F>]) -> Vec<(String, u64)> {
    last.iter().map(|r| (bits(&r.report), r.admitted.len() as u64 + r.bounced)).collect()
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// What a run prints: its metrics, and the submissions it attempted and
/// saw fail (not complete).
struct Measured {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// Worker threads of the parallel probe: the traced `heavy-serial` run
/// also replays its trace on `ParallelFleet`, for the fork/join layer
/// and its speed-up over the serial runtime.
const PROBE_WORKERS: usize = 2;

/// Every gate of a run, and the end-to-end metrics (untraced) or the
/// per-layer metrics (traced).
fn measure(
    w: Workload,
    args: &Args,
    copies: &[Vec<Trace>],
    setups: &mut Vec<f64>,
    dir: &Path,
    rec: &mut Recorder,
    gates: &mut Gates,
) -> Measured {
    let traces = &copies[0];
    let gate_own = |own: &[(String, u64)], driver: &[FleetReport], gates: &mut Gates| {
        for ((trace, (own_bits, accounted)), want) in traces.iter().zip(own).zip(driver) {
            let name = &trace.scenario;
            gates.check(*own_bits == bits(want), &format!("{name}: own loop == Driver::replay"));
            gates.check(
                *accounted == trace.arrivals.len() as u64,
                &format!("{name}: admitted + bounced == submitted"),
            );
        }
    };
    let probe = w == Workload::HeavySerial;
    let gate_workers = |driver: &[FleetReport], gates: &mut Gates| {
        if probe {
            for (trace, serial) in traces.iter().zip(driver) {
                let parallel = Driver::replay_with_workers(trace, PROBE_WORKERS).fleet;
                gates.check(bits(&parallel) == bits(serial), "2-worker bits == serial bits");
            }
        }
    };
    let submits: u64 = traces.iter().map(|t| t.arrivals.len() as u64).sum();

    if !args.trace {
        let (_, last) = own_pass::<ShardedFleet>(traces, dir, &mut Recorder::new(false));
        gate_restore(traces, &last, dir, &mut Recorder::new(false), gates);
        let own = own_outcomes(&last);
        drop(last);
        // At least one pass per copy, and passes for `--seconds`; pass `i`
        // replays copy `i % COPIES`, and the modeled metrics come from the
        // first pass over each copy.
        let (mut rates, mut makespan, mut completed) = (Vec::new(), 0.0, 0u64);
        let t0 = Instant::now();
        while rates.len() < COPIES || t0.elapsed().as_secs_f64() < args.seconds {
            let pass = rates.len();
            let (wall, iters, reports) = e2e_pass(&copies[pass % COPIES], gates);
            rates.push(iters as f64 / wall);
            if pass == 0 {
                gate_own(&own, &reports, gates);
                gate_workers(&reports, gates);
            }
            if pass < COPIES {
                makespan += reports.iter().map(|r| r.makespan_s).sum::<f64>();
                completed += reports.iter().map(|r| r.jobs_completed).sum::<u64>();
            }
            // Set-up is short: sample it after every pass, so that it sees
            // the same stretch of host time as the passes.
            let t = Instant::now();
            while t.elapsed().as_secs_f64() < SAMPLE_S {
                let start = Instant::now();
                drop(set_up(w, args.seed, &mut Recorder::new(false), gates));
                setups.push(start.elapsed().as_secs_f64());
            }
        }
        let peak_rss = peak_rss_mb();
        let attempted = submits * COPIES as u64;
        let metrics = vec![
            metric("iters_per_wall_s", median(&rates), "iter/s"),
            metric("setup_s", median(setups), "s"),
            metric("peak_rss_mb", peak_rss, "MB"),
            metric("sim_makespan_s", makespan / COPIES as f64, "sim_s"),
            metric("completed_frac", completed as f64 / attempted as f64, "ratio"),
        ];
        return Measured { metrics, attempted, failed: attempted - completed.min(attempted) };
    }

    // Traced: own-loop passes over copy 0 in turn: untraced, traced, and
    // traced on the parallel runtime when probing.
    let probe_traces: Vec<Trace> = traces
        .iter()
        .map(|t| {
            let mut t = t.clone();
            t.fleet.workers = PROBE_WORKERS;
            t
        })
        .collect();
    let (mut untraced, mut traced, mut parallel) = (Vec::new(), Vec::new(), Vec::new());
    let mut parallel_own = Vec::new();
    let t0 = Instant::now();
    let last = loop {
        untraced.push(own_pass::<ShardedFleet>(traces, dir, &mut Recorder::new(false)).0);
        let (wall, done) = own_pass::<ShardedFleet>(traces, dir, rec);
        traced.push(wall);
        if probe {
            let (wall, par) = own_pass::<ParallelFleet>(&probe_traces, dir, rec);
            parallel.push(wall);
            parallel_own = own_outcomes(&par);
        }
        if t0.elapsed().as_secs_f64() >= args.seconds {
            break done;
        }
    };
    let driver: Vec<FleetReport> = traces.iter().map(|t| driver_replay(t, gates)).collect();
    gate_own(&own_outcomes(&last), &driver, gates);
    if probe {
        gate_own(&parallel_own, &driver, gates);
    }
    gate_workers(&driver, gates);
    gate_restore(traces, &last, dir, rec, gates);

    rec.next_run();
    let mut solo = SoloTotals::default();
    for (trace, r) in traces.iter().zip(&last) {
        for &(idx, handle) in &r.admitted {
            solo::solo(&trace.arrivals[idx], r.fleet.report(handle), &mut solo, rec);
        }
    }
    gates.check(solo.mismatches == 0, "solo results == fleet results for whole jobs");

    let sum = |f: &dyn Fn(&Replayed<ShardedFleet>) -> u64| last.iter().map(f).sum::<u64>();
    let snapshots = || last.iter().flat_map(|r| &r.snapshots);
    let counts = Counts {
        submits,
        bounced: sum(&|r| r.bounced),
        ticks: sum(&|r| r.ticks),
        idle_ticks: sum(&|r| r.idle_ticks),
        steals: sum(&|r| r.fleet.steals()),
        base_bytes: snapshots().filter(|s| s.kind == SnapshotKind::Base).map(|s| s.bytes).sum(),
        delta_bytes: snapshots().filter(|s| s.kind == SnapshotKind::Delta).map(|s| s.bytes).sum(),
        dirty_jobs: snapshots().map(|s| s.dirty_jobs as u64).sum(),
    };
    let walls = Walls { untraced, traced, parallel };
    let completed: u64 = last.iter().map(|r| r.report.jobs_completed).sum();
    Measured {
        metrics: per_layer(rec, &counts, &solo, &walls, &driver),
        attempted: submits,
        failed: submits - completed.min(submits),
    }
}

/// Host seconds per own-loop pass over copy 0: untraced, traced, and
/// traced on the parallel runtime.
struct Walls {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    parallel: Vec<f64>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let scratch = Path::new(".bench_tmp").join(format!("{}-{}", w.name(), std::process::id()));
    let dir = scratch.join("ckpt");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let mut gates = Gates::default();
    let mut rec = Recorder::new(args.trace);

    // Set-up is short, so it is repeated and its median reported (the
    // untraced run samples it again between passes).
    let mut setups = Vec::new();
    let copies = loop {
        rec.next_run();
        let start = Instant::now();
        let copies = set_up(w, args.seed, &mut rec, &mut gates);
        setups.push(start.elapsed().as_secs_f64());
        if setups.len() >= 5 {
            break copies;
        }
    };
    let measured = measure(w, &args, &copies, &mut setups, &dir, &mut rec, &mut gates);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = format!(
        "workload={} seed={} scale={} cores={cores} commit={} trace={}",
        w.name(),
        args.seed,
        w.scale(),
        git_commit(),
        u8::from(args.trace)
    );
    for m in &measured.metrics {
        println!("{stamp} {}={} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path =
            PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
        match rec.write_tsv(&path) {
            Ok(()) => println!("{stamp} spans={} written to {}", rec.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        gates.failed == 0,
        measured.attempted,
        measured.failed + gates.failed
    );
    for (i, m) in measured.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(json, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    println!("{json}");
    if gates.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Counts from the last traced pass.
struct Counts {
    submits: u64,
    bounced: u64,
    ticks: u64,
    idle_ticks: u64,
    steals: u64,
    base_bytes: u64,
    delta_bytes: u64,
    dirty_jobs: u64,
}

/// The per-layer metrics of a traced run.
fn per_layer(
    rec: &Recorder,
    counts: &Counts,
    solo: &SoloTotals,
    walls: &Walls,
    reports: &[FleetReport],
) -> Vec<Metric> {
    let median_sum_s = |name: &str| {
        let sums: Vec<f64> = rec.sums_by_run(name).values().map(|&ns| ns as f64 * 1e-9).collect();
        median(&sums)
    };
    let us = |name: &str, q: f64| percentile(&ns_to_us(&rec.durations(name)), q);
    let mb_s = |bytes: u64, name: &str| bytes as f64 / 1e6 / rec.total_s(name);
    // Host seconds per traced pass spent inside the tick calls.
    let tick_s = median_sum_s(ShardedFleet::TICK_SPAN);
    let neighbors = solo.neighbors.max(1) as f64;
    let explore = solo.tabu_explore.as_secs_f64();
    vec![
        metric("workload.traffic.lower_s", median_sum_s("workload.traffic.lower"), "s"),
        metric("workload.driver.record_s", median_sum_s("workload.driver.record"), "s"),
        metric("workload.trace.codec_s", median_sum_s("workload.trace.codec"), "s"),
        metric("runtime.client.submit_us", us("runtime.client.submit", 0.5), "us"),
        metric("runtime.client.submit_p99_us", us("runtime.client.submit", 0.99), "us"),
        metric("runtime.client.submits", counts.submits as f64, "count"),
        metric("runtime.client.bounced", counts.bounced as f64, "count"),
        metric("runtime.scheduler.tick_us", us(ShardedFleet::TICK_SPAN, 0.5), "us"),
        metric("runtime.scheduler.tick_p99_us", us(ShardedFleet::TICK_SPAN, 0.99), "us"),
        metric("runtime.scheduler.ticks", counts.ticks as f64, "count"),
        metric("runtime.scheduler.idle_ticks", counts.idle_ticks as f64, "count"),
        metric(
            "runtime.scheduler.sim_wait_p95_s",
            reports.iter().map(|r| r.wait_p95_s).fold(0.0, f64::max),
            "sim_s",
        ),
        metric(
            "runtime.scheduler.residual_share",
            1.0 - solo.search_wall().as_secs_f64() / tick_s,
            "ratio",
        ),
        metric("core.explore.ns_per_neighbor", explore * 1e9 / neighbors, "ns"),
        metric("core.explore.neighbors", solo.neighbors as f64, "count"),
        metric(
            "core.tabu.select_ns_per_neighbor",
            (solo.tabu_run.as_secs_f64() - explore) * 1e9 / neighbors,
            "ns",
        ),
        metric("core.tabu.solo_s", solo.tabu_run.as_secs_f64(), "s"),
        metric("search.anneal.solo_s", solo.anneal.as_secs_f64(), "s"),
        metric("search.qap.solo_s", solo.qap.as_secs_f64(), "s"),
        metric("search.lns.solo_s", solo.lns.as_secs_f64(), "s"),
        metric("search.portfolio.solo_s", solo.portfolio.as_secs_f64(), "s"),
        metric("solo.checked_jobs", solo.checked as f64, "count"),
        metric("solo.excluded_jobs", solo.excluded as f64, "count"),
        metric("shard.par.tick_us", us(ParallelFleet::TICK_SPAN, 0.5), "us"),
        metric("shard.par.speedup", median(&walls.traced) / median(&walls.parallel), "ratio"),
        metric("shard.steals", counts.steals as f64, "count"),
        metric(
            "runtime.persist.encode_mb_s",
            mb_s(rec.counter("runtime.persist.encode_bytes"), "runtime.persist.encode"),
            "MB/s",
        ),
        metric(
            "runtime.persist.decode_mb_s",
            mb_s(rec.counter("runtime.persist.decode_bytes"), "runtime.persist.decode"),
            "MB/s",
        ),
        metric("runtime.persist.restore_us", us("runtime.persist.restore", 0.5), "us"),
        metric("runtime.delta.snapshot_us", us("runtime.delta.snapshot", 0.5), "us"),
        metric(
            "runtime.delta.snapshot_mb_s",
            mb_s(rec.counter("runtime.delta.bytes"), "runtime.delta.snapshot"),
            "MB/s",
        ),
        metric("runtime.delta.base_bytes", counts.base_bytes as f64, "bytes"),
        metric("runtime.delta.delta_bytes", counts.delta_bytes as f64, "bytes"),
        metric("runtime.delta.dirty_jobs", counts.dirty_jobs as f64, "count"),
        metric("runtime.delta.restore_us", us("runtime.delta.restore", 0.5), "us"),
        metric("runtime.report.fleet_report_us", us("runtime.report.fleet_report", 0.5), "us"),
        metric("trace.coverage", median(&rec.coverage("bench.replay")), "ratio"),
        metric("trace.overhead", median(&walls.traced) / median(&walls.untraced) - 1.0, "ratio"),
    ]
}
