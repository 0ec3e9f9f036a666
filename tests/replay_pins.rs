//! Golden pins for the replay driver: every catalog scenario plus the
//! closed-loop recorder, recorded at one fixed seed, must produce the
//! exact trace bytes, fleet-report bits and driver counters captured
//! below.
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

use lnls::prelude::{Driver, Scenario};

/// The one lowering seed every pin was captured at.
const SEED: u64 = 42;

/// Plain FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
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
