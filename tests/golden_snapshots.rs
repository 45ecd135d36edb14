//! Golden checkpoint blobs: little-endian snapshot containers checked
//! into `tests/golden/`. `checkpoint_v2_f64.bin` is captured from a
//! fixed warmed-up deployment and pinned twice:
//!
//! 1. Re-capturing the same deployment reproduces the checked-in blob
//!    byte-for-byte (the container layout and every encoder are frozen —
//!    a layout change must come with a version bump and regenerated
//!    goldens).
//! 2. Restoring the blob and extending the run stays in bit-exact
//!    lockstep with an uninterrupted simulation of the same scenario.
//!
//! `checkpoint_v2_q16.bin` was written by the retired Q16.16 trust
//! backend. It stays as a fixture: restore must refuse it with a typed
//! error.
//!
//! Regenerate after a deliberate format change with
//! `cargo test -p tibfit-experiments --test golden_snapshots -- --ignored`.

use std::path::PathBuf;

use tibfit_adversary::behavior::NodeBehavior;
use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
use tibfit_experiments::checkpoint::{restore_sequential, save_sequential, CheckpointError};
use tibfit_experiments::multicluster::{grid_sites, MultiClusterConfig, MultiClusterSim};
use tibfit_net::channel::BernoulliLoss;
use tibfit_net::geometry::Point;
use tibfit_net::topology::Topology;
use tibfit_sim::rng::SimRng;
use tibfit_sim::snapshot::{SnapshotError, MAGIC, VERSION};

const NODES: usize = 16;
const CLUSTERS: usize = 2;
const FIELD: f64 = 40.0;
const FAULTY: usize = 4;
const SEED: u64 = 2026;
const WARMUP_ROUNDS: usize = 6;
const EXTENSION_ROUNDS: usize = 6;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden")).join(name)
}

/// The f64 blob every pin is captured from.
const F64_BLOB: &str = "checkpoint_v2_f64.bin";
/// A blob from the retired Q16.16 backend (arithmetic byte `1`).
const Q16_BLOB: &str = "checkpoint_v2_q16.bin";

fn build() -> MultiClusterSim {
    let config = MultiClusterConfig::paper().mobile(0.6, 3);
    let faulty = SimRng::seed_from(SEED ^ 0xFA).choose_indices(NODES, FAULTY);
    let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..NODES)
        .map(|i| -> Box<dyn NodeBehavior + Send> {
            if faulty.contains(&i) {
                Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
            } else {
                Box::new(CorrectNode::new(0.0, 1.6))
            }
        })
        .collect();
    MultiClusterSim::try_new(
        config,
        Topology::uniform_grid(NODES, FIELD, FIELD),
        grid_sites(CLUSTERS, FIELD),
        behaviors,
        |_| Box::new(BernoulliLoss::new(0.005)),
        SEED,
    )
    .expect("golden scenario is valid")
}

fn events(n: usize, salt: u64) -> Vec<Point> {
    let mut rng = SimRng::seed_from(SEED ^ salt);
    (0..n)
        .map(|_| Point::new(rng.uniform_range(0.0, FIELD), rng.uniform_range(0.0, FIELD)))
        .collect()
}

/// The warmed-up deployment every golden blob is captured from.
fn warmed() -> MultiClusterSim {
    let mut sim = build();
    for &event in &events(WARMUP_ROUNDS, 0xE7) {
        sim.run_event(event);
    }
    sim
}

#[test]
fn golden_blobs_match_fresh_capture_bytewise() {
    let blob = save_sequential(&warmed()).expect("capture succeeds");
    let path = golden_path(F64_BLOB);
    let golden = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing golden blob {}: {e}", path.display()));
    assert_eq!(
        blob, golden,
        "{F64_BLOB} no longer matches a fresh capture; if the format change is \
         intentional, bump snapshot::VERSION and regenerate with \
         `cargo test --test golden_snapshots -- --ignored`"
    );
}

#[test]
fn golden_blobs_restore_and_extend_in_lockstep() {
    let golden = std::fs::read(golden_path(F64_BLOB)).expect("golden blob present");
    let mut restored = restore_sequential(&golden).expect("golden blob restores");
    let mut fresh = warmed();
    for (round, &event) in events(EXTENSION_ROUNDS, 0x5E).iter().enumerate() {
        assert_eq!(
            fresh.run_event(event),
            restored.run_event(event),
            "restored run diverged at extension round {round}"
        );
        assert_eq!(
            fresh.trust_snapshot(),
            restored.trust_snapshot(),
            "trust diverged at extension round {round}"
        );
    }
    assert_eq!(fresh.counters(), restored.counters());
}

#[test]
fn q16_blob_is_rejected_with_a_typed_error() {
    // The blob is intact (magic, version and every CRC check out), so
    // the decoder reaches the arithmetic byte and must refuse it there —
    // a typed error, never a panic or a silent f64 restore of Q16.16
    // counters.
    let blob = std::fs::read(golden_path(Q16_BLOB)).expect("golden blob present");
    match restore_sequential(&blob) {
        Ok(_) => panic!("the engine restored a Q16.16 blob"),
        Err(CheckpointError::Snapshot(SnapshotError::Invalid(msg))) => {
            assert!(msg.contains("Q16.16"), "unexpected message {msg:?}");
        }
        Err(other) => panic!("Q16.16 blob must be Invalid, got {other:?}"),
    }
}

#[test]
fn golden_blobs_are_little_endian_on_disk() {
    // The container is pinned little-endian regardless of host byte
    // order, so a blob captured on x86 restores on a big-endian box and
    // vice versa. Assert the raw layout directly: magic, then the
    // version's low byte first.
    for name in [F64_BLOB, Q16_BLOB] {
        let blob = std::fs::read(golden_path(name)).expect("golden blob present");
        assert_eq!(&blob[..4], &MAGIC, "{name}: magic");
        assert_eq!(
            &blob[4..6],
            &VERSION.to_le_bytes(),
            "{name}: version field is not little-endian"
        );
        assert_eq!(blob[4], 2, "low byte of version 2 comes first");
        assert_eq!(blob[5], 0);
    }
}

#[test]
fn byte_swapped_version_is_rejected_with_a_typed_error() {
    // A blob written by a (hypothetical) native-endian encoder on a
    // big-endian host would carry the version bytes swapped. The reader
    // must refuse it as an unsupported version — a typed, recoverable
    // error, never a panic or a silent misparse.
    let mut blob = std::fs::read(golden_path(F64_BLOB)).expect("golden blob present");
    blob.swap(4, 5);
    match restore_sequential(&blob) {
        Err(CheckpointError::Snapshot(SnapshotError::UnsupportedVersion { found, supported })) => {
            assert_eq!(found, VERSION.swap_bytes(), "byte-swapped version value");
            assert_eq!(supported, VERSION);
        }
        other => panic!("byte-swapped version must be UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn byte_swapped_payload_is_rejected_by_the_checksum() {
    // Swapping bytes inside a section payload models endian-confused
    // content under a correct header: the section CRC must catch it.
    for name in [F64_BLOB, Q16_BLOB] {
        let blob = std::fs::read(golden_path(name)).expect("golden blob present");
        // First section: tag at 6, length at 7..11, payload after.
        let section_len =
            u32::from_le_bytes(blob[7..11].try_into().expect("4-byte slice")) as usize;
        let payload = 11..11 + section_len;
        let swap_at = blob[payload.clone()]
            .windows(2)
            .position(|w| w[0] != w[1])
            .map(|i| payload.start + i)
            .expect("first section has two adjacent differing bytes");
        let mut corrupt = blob.clone();
        corrupt.swap(swap_at, swap_at + 1);
        match restore_sequential(&corrupt) {
            Err(CheckpointError::Snapshot(SnapshotError::CrcMismatch { .. })) => {}
            other => panic!(
                "{name}: swapped payload bytes at {swap_at} must be CrcMismatch, got {other:?}"
            ),
        }
    }
}

/// Regenerates the checked-in f64 blob. Run explicitly after a
/// deliberate container change:
/// `cargo test --test golden_snapshots -- --ignored`. The Q16.16 blob is
/// a frozen fixture and is never regenerated.
#[test]
#[ignore = "writes tests/golden/checkpoint_v2_f64.bin; run only to regenerate"]
fn regenerate_golden_blobs() {
    let dir = golden_path("");
    std::fs::create_dir_all(&dir).expect("create tests/golden");
    let blob = save_sequential(&warmed()).expect("capture succeeds");
    std::fs::write(golden_path(F64_BLOB), &blob).expect("write golden blob");
}
