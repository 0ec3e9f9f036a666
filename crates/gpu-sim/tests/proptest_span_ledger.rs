//! Property test tying the two halves of fused-span pricing together:
//! the stream schedule (`price_fused_span`) and the device ledger
//! (`charge_fused_span`) describe the same operations, so the
//! schedule's serialized sum equals the ledger's GPU total for every
//! shape, engine layout, span length and launch mode.

use lnls_gpu_sim::{
    charge_fused_span, price_fused_span, DeviceSpec, EngineConfig, LaneIo, LaunchMode,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn schedule_serialized_equals_ledger_total(
        shapes in prop::collection::vec((0u64..1 << 20, 0u64..1 << 20), 1..8),
        kernels_us in prop::collection::vec(0u64..5_000, 1..5),
        n in 1usize..9,
        persistent in any::<bool>(),
        copy_engines in 1usize..4,
        kernel_slots in 1usize..4,
    ) {
        let spec = DeviceSpec::gtx280()
            .with_engines(EngineConfig { copy_engines, concurrent_kernels: kernel_slots });
        let lanes: Vec<LaneIo> = shapes
            .iter()
            .map(|&(h2d_bytes, d2h_bytes)| LaneIo { h2d_bytes, d2h_bytes })
            .collect();
        let kernels: Vec<f64> = kernels_us.iter().map(|&us| us as f64 * 1e-6).collect();
        let mode = if persistent { LaunchMode::PersistentSpan } else { LaunchMode::PerIteration };

        let sched = price_fused_span(&spec, &lanes, &kernels, n, mode);
        let charge = charge_fused_span(&spec, &lanes, &kernels, 0.0, n as u64, mode);
        let total = charge.book.gpu_total_s();
        prop_assert!(
            (sched.serialized - total).abs() <= 1e-12 * sched.serialized,
            "schedule serialized {} vs ledger total {}",
            sched.serialized,
            total
        );
        let (book, rel) = (&charge.book, |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.max(b));
        prop_assert!(rel(sched.compute_busy, book.kernel_s + book.overhead_s));
        prop_assert!(rel(sched.copy_busy, book.h2d_s + book.d2h_s));
    }
}
