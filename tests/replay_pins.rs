//! Golden pins for the replay driver: every catalog scenario plus the
//! closed-loop recorder, recorded at one fixed seed, must produce the
//! exact trace bytes, fleet-report bits and driver counters captured
//! below. The checkpoint formats are pinned the same way: every full
//! checkpoint and every delta segment written while a catalog trace
//! replays, one snapshot per tick.
//!
//! The other determinism tests compare one run of the driver with
//! another (record vs. replay, serial vs. parallel), so a change that
//! moved every run the same way would pass them all. These constants
//! were captured once and only change when a PR changes results on
//! purpose and says so.
//!
//! Float formatting and FNV arithmetic are platform-independent, but
//! the pins were captured on x86_64 Linux, so the file only builds
//! there.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use common::{fnv1a64_fold, ChainDigests, FNV_OFFSET};
use lnls::prelude::{Driver, Scenario, TrafficGen};

mod common;

/// The one lowering seed every pin was captured at.
const SEED: u64 = 42;

/// Plain FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

/// `(scenario, trace digest, report digest, (ticks, admitted, bounced, crashes))`.
type Pin = (&'static str, u64, u64, (u64, u64, u64, u64));

const PINS: &[Pin] = &[
    ("steady", 0x42fe828f2a468e5f, 0x54671aa7ba477aad, (77, 18, 0, 0)),
    ("burst", 0xf20637611163eba1, 0xc509fa1758d2264b, (111, 21, 3, 0)),
    ("priority-inversion", 0x78da58b09eec38af, 0x61c8dd9a5abbdfc2, (53, 18, 2, 0)),
    ("deadline-heavy", 0x73deba01787a17d4, 0x2d5ceb3a29a7c758, (119, 16, 0, 0)),
    ("checkpoint-churn", 0xc367da1837895162, 0x28f69180db997c20, (41, 14, 0, 1)),
    ("saturation", 0x99fcf4c664377a37, 0xaa0378f80328cc3b, (56, 22, 4, 0)),
    ("lns-repair", 0x3fa0ad17d90b137b, 0x5c690ef947745b7f, (59, 16, 0, 0)),
    ("portfolio-race", 0x8d48b8c68ad64463, 0xb390986a099dd81a, (29, 12, 0, 0)),
    ("saturation-sharded", 0x51fff0df95d03410, 0xff1190dad876f285, (84, 40, 0, 0)),
    ("closed-loop-saturation", 0xd3fc031de14d9684, 0xcd4bc6574dd60db9, (77, 20, 104, 0)),
];

#[test]
fn every_scenario_replays_onto_its_pinned_bits() {
    let mut scenarios = Scenario::catalog();
    scenarios.push(Scenario::closed_loop_saturation());
    assert_eq!(scenarios.len(), PINS.len(), "one pin per scenario");
    for (scenario, want) in scenarios.iter().zip(PINS) {
        let (trace, report) = Driver::record(scenario, SEED);
        let got = (
            scenario.name.as_str(),
            fnv1a64(&trace.to_bytes()),
            fnv1a64(format!("{:?}", report.fleet).as_bytes()),
            (report.ticks, report.admitted, report.bounced, report.crashes),
        );
        assert_eq!(
            got, *want,
            "scenario '{}' moved off its pins; got ({:?}, {:#018x}, {:#018x}, {:?})",
            got.0, got.0, got.1, got.2, got.3
        );
    }
}

/// `(scenario, snapshots, full-checkpoint digest, segment digest)`.
type ChainPin = (&'static str, u64, u64, u64);

const CHAIN_PINS: &[ChainPin] = &[
    ("steady", 77, 0xb304e022bc680367, 0x630ac0de72ae979b),
    ("burst", 111, 0x3a5f37ec062b34b2, 0x9bedfcdc76678c57),
    ("priority-inversion", 53, 0x405bc2dc23ca27e2, 0x091e17e5af42e8a7),
    ("deadline-heavy", 119, 0x51bbf0c09d9fe0c0, 0xd59a15d6053a1a7d),
    ("checkpoint-churn", 41, 0x5ddb6c8ce586d4fd, 0x01d86294c703a176),
    ("saturation", 56, 0xc7fb24730c644b8a, 0xd35dbf22a5540218),
    ("lns-repair", 59, 0xe9560f0f589a02af, 0xbd06008d2fbd5d33),
    ("portfolio-race", 29, 0x346f00521fa4d85b, 0xda9d9dca11e3dd42),
    ("saturation-sharded", 126, 0x133e3a6b836db8b2, 0x3181a6d8563a8191),
];

/// The chain agreeing with the full checkpoint (checked inside the
/// harness) cannot catch a change that moves both encoders the same
/// way; these digests can.
#[test]
fn every_checkpoint_and_delta_segment_keeps_its_pinned_bytes() {
    let scenarios = Scenario::catalog();
    assert_eq!(scenarios.len(), CHAIN_PINS.len(), "one chain pin per catalog scenario");
    let mut failures = Vec::new();
    for (scenario, want) in scenarios.iter().zip(CHAIN_PINS) {
        let trace = TrafficGen::lower(scenario, SEED);
        let dir = std::env::temp_dir().join(format!(
            "lnls-pins-{}-{}",
            scenario.name,
            std::process::id()
        ));
        let ChainDigests { snapshots, checkpoints, segments } =
            common::replay_with_delta_chain(&trace, &dir);
        let got = (scenario.name.as_str(), snapshots, checkpoints, segments);
        if got != *want {
            failures
                .push(format!("    ({:?}, {}, {:#018x}, {:#018x}),", got.0, got.1, got.2, got.3));
        }
    }
    assert!(failures.is_empty(), "checkpoint bytes moved off their pins:\n{}", failures.join("\n"));
}
