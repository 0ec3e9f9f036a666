//! Cost shape of fused neighborhood evaluation for co-scheduled
//! searches.
//!
//! The paper wins by making each kernel launch *large* — thousands of
//! neighbors per iteration amortize the launch overhead and PCIe
//! latency that dominate small launches. A fleet serving many concurrent
//! searches can apply the same lever one level up: when several walks
//! share a problem family and neighborhood, their per-iteration
//! evaluations are independent and can ride in **one** fused launch —
//! one kernel covering `Σ mᵢ` threads — instead of `B` small launches
//! each paying its own overhead.
//!
//! Fusion is pricing-only. Each lane still fills its own fitness vector
//! through [`fill_fitness`](crate::explore::fill_fitness), exactly as a
//! solo [`SequentialExplorer`](crate::explore::SequentialExplorer) run
//! would, so the moves a driver selects are bit-for-bit those of a solo
//! run. What fusion changes is the cost: [`FusedShape`] folds the lanes'
//! [`LaneProfile`]s into one iteration's per-lane PCIe traffic, kernel
//! chain and host seconds, and the caller hands that shape to
//! [`price_fused_span`](lnls_gpu_sim::price_fused_span) (the stream
//! makespan the fleet clock advances by) and
//! [`charge_fused_span`](lnls_gpu_sim::charge_fused_span) (the device
//! ledger). Group membership is fixed for a span, so the shape is built
//! once per span.
//!
//! Selection is a second knob, and it is **per lane**: when a lane
//! selects [`SelectionMode::DeviceArgmin`], the kernel chain gains the
//! on-device argmin reduction ([`argmin_kernel_seconds`], keyed over
//! exactly the opted-in lanes' segments) and *that* lane's readback
//! shrinks from `m·8` bytes to one packed `(fitness, index)` record — so
//! a per-job override keeps its pricing even inside a mixed fused batch
//! (see `lnls_gpu_sim::reduce`).
//!
//! Cost shapes come from [`LaneProfile`], the same analytic quantities
//! [`IterationProfile`] uses for multi-walk stream pricing, so solo and
//! fused runs are priced with one consistent model.

use lnls_gpu_sim::{
    argmin_kernel_seconds, DeviceSpec, HostSpec, IterationProfile, LaneIo, SelectionMode,
    ARGMIN_RECORD_BYTES,
};

/// Per-iteration cost shape of one search lane on a device: what one
/// neighborhood evaluation moves over PCIe and burns in compute.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LaneProfile {
    /// Bytes uploaded per iteration (solution bits + incremental state).
    pub h2d_bytes: u64,
    /// Bytes read back per iteration (the fitness array).
    pub d2h_bytes: u64,
    /// Modeled kernel seconds per iteration (excluding launch overhead).
    pub kernel_seconds: f64,
    /// Modeled sequential-host seconds for the same evaluation (the
    /// paper's CPU column; feeds speedup reporting).
    pub host_seconds: f64,
}

impl LaneProfile {
    /// Analytic shape of the paper's `MoveIncrEvalKernel` pattern for a
    /// `k`-Hamming neighborhood of `m` moves on an `n`-bit problem whose
    /// incremental state re-uploads `state_bytes` per iteration.
    ///
    /// The per-neighbor work is modeled as `unrank + k incremental
    /// updates` — `12 + 18·k` abstract ops, the op count of the generic
    /// kernels in `lnls-problems::gpu` to within a small factor. Device
    /// throughput uses the issue model of [`DeviceSpec`] derated to 25 %
    /// of peak (the memory-bound regime every measured kernel of this
    /// workspace lands in); host throughput uses [`HostSpec`] CPIs.
    pub fn incremental_eval(
        spec: &DeviceSpec,
        host: &HostSpec,
        m: u64,
        k: usize,
        n: usize,
        state_bytes: u64,
    ) -> Self {
        let ops_per_neighbor = 12.0 + 18.0 * k as f64;
        let peak_ops =
            spec.sm_count as f64 * spec.warp_size as f64 / spec.issue_cycles * spec.clock_hz;
        let device_ops = peak_ops * 0.25;
        let host_ops = host.clock_hz / (host.cpi_alu.max(f64::EPSILON) * 1.5);
        Self {
            h2d_bytes: (n as u64).div_ceil(8) + state_bytes,
            d2h_bytes: m * std::mem::size_of::<i64>() as u64,
            kernel_seconds: m as f64 * ops_per_neighbor / device_ops,
            host_seconds: m as f64 * ops_per_neighbor / host_ops,
        }
    }

    /// The synchronous solo cost of one iteration: own upload (with PCIe
    /// latency), own launch overhead, kernel, own readback.
    pub fn solo_seconds(&self, spec: &DeviceSpec) -> f64 {
        IterationProfile {
            h2d_bytes: self.h2d_bytes,
            kernel_seconds: self.kernel_seconds,
            d2h_bytes: self.d2h_bytes,
        }
        .serial_seconds(spec)
    }
}

/// One fused iteration's cost shape: what every lane moves over PCIe,
/// the dependent kernel chain, and the summed host seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedShape {
    /// Per-lane PCIe traffic, in lane order.
    pub io: Vec<LaneIo>,
    /// The kernel chain in modeled seconds (excluding launch overhead):
    /// the fused evaluation kernel, then the argmin reduction when any
    /// lane selects on the device.
    pub kernels: Vec<f64>,
    /// Modeled sequential-host seconds of the iteration across all lanes.
    pub host_s: f64,
}

impl FusedShape {
    /// The shape of lanes `(profile, selection)` that all evaluate an
    /// `m`-move neighborhood in one fused launch.
    pub fn new(
        spec: &DeviceSpec,
        m: u64,
        lanes: impl IntoIterator<Item = (LaneProfile, SelectionMode)>,
    ) -> Self {
        let lanes = lanes.into_iter();
        let mut kernel_s = 0.0f64;
        let mut host_s = 0.0f64;
        let mut argmin_keys = 0u64;
        let mut io = Vec::with_capacity(lanes.size_hint().0);
        for (profile, selection) in lanes {
            // A one-key reduction cannot shrink the readback it gates
            // on, so degenerate neighborhoods stay on the host path.
            let device_argmin = selection.is_device() && m > 1;
            let d2h_bytes = if device_argmin { ARGMIN_RECORD_BYTES } else { profile.d2h_bytes };
            if device_argmin {
                argmin_keys += m;
            }
            io.push(LaneIo { h2d_bytes: profile.h2d_bytes, d2h_bytes });
            kernel_s += profile.kernel_seconds;
            host_s += profile.host_seconds;
        }
        let mut kernels = vec![kernel_s];
        if argmin_keys > 0 {
            kernels.push(argmin_kernel_seconds(spec, argmin_keys));
        }
        Self { io, kernels, host_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnls_gpu_sim::{
        charge_fused_span, price_fused_span, transfer_seconds, EngineConfig, LaunchMode, Schedule,
        SpanCharge,
    };

    /// A 2-Hamming neighborhood over 24 bits: 276 moves.
    const M: u64 = 276;

    fn profile(spec: &DeviceSpec) -> LaneProfile {
        LaneProfile::incremental_eval(spec, &HostSpec::xeon_3ghz(), M, 2, 24, 16)
    }

    /// One fused iteration of `n_lanes` identical lanes: its schedule and
    /// its ledger.
    fn fused(
        n_lanes: usize,
        spec: &DeviceSpec,
        selection: SelectionMode,
    ) -> (Schedule, SpanCharge) {
        let shape = FusedShape::new(spec, M, vec![(profile(spec), selection); n_lanes]);
        let mode = LaunchMode::PerIteration;
        let sched = price_fused_span(spec, &shape.io, &shape.kernels, 1, mode);
        (sched, charge_fused_span(spec, &shape.io, &shape.kernels, shape.host_s, 1, mode))
    }

    #[test]
    fn fusing_beats_solo_launches() {
        let spec = DeviceSpec::gtx280();
        let prof = profile(&spec);
        let (sched, charge) = fused(8, &spec, SelectionMode::HostArgmin);
        let solo_sum = prof.solo_seconds(&spec) * 8.0;
        assert!(sched.makespan < solo_sum, "fused {} must beat 8 solo launches", sched.makespan);
        assert_eq!(charge.book.launches, 1);
        // The kernel work itself is not discounted — only overhead and
        // transfer latency are amortized.
        assert!((charge.book.kernel_s - prof.kernel_seconds * 8.0).abs() < 1e-12);
    }

    #[test]
    fn gt200_makespan_is_the_serial_sum_of_the_schedule() {
        // Single DMA queue + serial kernels: nothing inside the
        // dependent fused iteration can overlap, so the makespan equals
        // the ledger total. Relative to a coalesced-transfer model the
        // only delta is the per-lane PCIe setup latency.
        let spec = DeviceSpec::gtx280();
        let (sched, charge) = fused(4, &spec, SelectionMode::HostArgmin);
        assert!((sched.makespan - sched.serialized).abs() < 1e-15);
        assert!((sched.makespan - charge.book.gpu_total_s()).abs() < 1e-12);
        let prof = profile(&spec);
        let coalesced = transfer_seconds(&spec, prof.h2d_bytes * 4)
            + spec.launch_overhead_s
            + prof.kernel_seconds * 4.0
            + transfer_seconds(&spec, prof.d2h_bytes * 4);
        let delta = sched.makespan - coalesced;
        assert!(delta >= 0.0 && delta <= 2.0 * 3.0 * spec.pcie_latency_s + 1e-15, "{delta}");
    }

    #[test]
    fn fermi_layout_overlaps_per_lane_copies() {
        let gt = DeviceSpec::gtx280();
        let fermi = DeviceSpec::gtx280().with_engines(EngineConfig::fermi());
        let (gt_sched, _) = fused(4, &gt, SelectionMode::HostArgmin);
        let (f_sched, _) = fused(4, &fermi, SelectionMode::HostArgmin);
        assert!((gt_sched.serialized - f_sched.serialized).abs() < 1e-15, "same ops");
        assert!(
            f_sched.makespan < gt_sched.makespan - 1e-12,
            "dual copy engines must beat the serial sum: fermi {} vs gt200 {}",
            f_sched.makespan,
            gt_sched.makespan
        );
    }

    #[test]
    fn device_argmin_shrinks_readback_and_prices_the_reduction() {
        let spec = DeviceSpec::gtx280();
        let (_, host) = fused(3, &spec, SelectionMode::HostArgmin);
        let (_, dev) = fused(3, &spec, SelectionMode::DeviceArgmin);
        assert_eq!(dev.book.bytes_d2h, 3 * ARGMIN_RECORD_BYTES);
        assert!(host.book.bytes_d2h >= 10 * dev.book.bytes_d2h, "m=276 lanes cut D2H ≥ 10×");
        assert_eq!(dev.book.launches, 2, "eval launch + argmin launch");
        assert_eq!(host.book.launches, 1);
        assert!(dev.book.kernel_s > host.book.kernel_s, "the reduction costs kernel time");
        assert_eq!(dev.book.bytes_h2d, host.book.bytes_h2d, "uploads unchanged");
    }

    #[test]
    fn argmin_reduces_only_the_opted_in_lanes() {
        let spec = DeviceSpec::gtx280();
        let prof = profile(&spec);
        let lanes = [(prof, SelectionMode::DeviceArgmin), (prof, SelectionMode::HostArgmin)];
        let shape = FusedShape::new(&spec, M, lanes);
        assert_eq!(shape.io[0].d2h_bytes, ARGMIN_RECORD_BYTES);
        assert_eq!(shape.io[1].d2h_bytes, prof.d2h_bytes);
        assert_eq!(shape.kernels[1], argmin_kernel_seconds(&spec, M));
        // A one-move neighborhood keeps the host path.
        let one = FusedShape::new(&spec, 1, [(prof, SelectionMode::DeviceArgmin)]);
        assert_eq!((one.kernels.len(), one.io[0].d2h_bytes), (1, prof.d2h_bytes));
    }

    #[test]
    fn lane_profile_scales_with_neighborhood() {
        let spec = DeviceSpec::gtx280();
        let host = HostSpec::xeon_3ghz();
        let small = LaneProfile::incremental_eval(&spec, &host, 100, 1, 32, 0);
        let large = LaneProfile::incremental_eval(&spec, &host, 10_000, 3, 32, 0);
        assert!(large.kernel_seconds > small.kernel_seconds);
        assert!(large.d2h_bytes > small.d2h_bytes);
        assert!(large.host_seconds / large.kernel_seconds > 1.0, "device must model faster");
    }
}
