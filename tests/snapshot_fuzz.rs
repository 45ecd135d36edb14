//! Corrupt-snapshot fuzzing: seeded bit-flips, truncations, and tail
//! garbage over real checkpoint blobs. The contract under test is the
//! robustness half of the checkpoint format: `restore` on *any*
//! corrupted blob returns a typed error — it never panics and never
//! silently loads a damaged deployment.
//!
//! Every mutation is drawn from a seeded [`SimRng`], so a failure
//! reproduces exactly from the printed seed/iteration, with no external
//! fuzzing corpus to manage.

use tibfit_adversary::behavior::NodeBehavior;
use tibfit_adversary::{CorrectNode, Level0Config, Level0Node};
use tibfit_experiments::checkpoint::{restore_sequential, save_sequential};
use tibfit_experiments::multicluster::{grid_sites, MultiClusterConfig, MultiClusterSim};
use tibfit_net::channel::BernoulliLoss;
use tibfit_net::geometry::Point;
use tibfit_net::topology::Topology;
use tibfit_sim::rng::SimRng;

/// A mid-run checkpoint blob with real accumulated state: drifted
/// positions, partially decayed trust, live quarantine timers.
fn real_blob(seed: u64) -> Vec<u8> {
    let nodes = 48;
    let field = 70.0;
    let faulty = SimRng::seed_from(seed ^ 0xFA).choose_indices(nodes, 12);
    let behaviors: Vec<Box<dyn NodeBehavior + Send>> = (0..nodes)
        .map(|i| -> Box<dyn NodeBehavior + Send> {
            if faulty.contains(&i) {
                Box::new(Level0Node::new(Level0Config::experiment2(4.25)))
            } else {
                Box::new(CorrectNode::new(0.0, 1.5))
            }
        })
        .collect();
    let mut sim = MultiClusterSim::try_new(
        MultiClusterConfig::paper().mobile(0.5, 3),
        Topology::uniform_grid(nodes, field, field),
        grid_sites(4, field),
        behaviors,
        |_| Box::new(BernoulliLoss::new(0.01)),
        seed,
    )
    .expect("fuzz scenario is valid");
    let mut rng = SimRng::seed_from(seed ^ 0xE7);
    for _ in 0..6 {
        let event = Point::new(rng.uniform_range(0.0, field), rng.uniform_range(0.0, field));
        sim.run_event(event);
    }
    save_sequential(&sim).expect("fuzz scenario is checkpointable")
}

/// Restore must reject the blob without panicking. (A panic fails the
/// test on its own — the assertion pins the "never silently loads"
/// half.)
fn assert_rejected(bad: &[u8], what: &str) {
    assert!(
        restore_sequential(bad).is_err(),
        "restore accepted a corrupt blob: {what}"
    );
}

#[test]
fn every_truncation_length_is_rejected() {
    let blob = real_blob(1);
    for cut in 0..blob.len() {
        assert_rejected(&blob[..cut], &format!("truncation to {cut} bytes"));
    }
}

#[test]
fn seeded_random_bit_flips_are_rejected() {
    let blob = real_blob(2);
    let mut rng = SimRng::seed_from(0xB17F_11B5);
    for iteration in 0..2500u32 {
        let mut bad = blob.clone();
        // 1–8 independent bit flips anywhere in the blob.
        let flips = 1 + rng.uniform_usize(8);
        for _ in 0..flips {
            let byte = rng.uniform_usize(bad.len());
            let bit = rng.uniform_usize(8) as u8;
            bad[byte] ^= 1 << bit;
        }
        if bad == blob {
            continue; // flips cancelled each other out
        }
        assert_rejected(&bad, &format!("bit flips, iteration {iteration}"));
    }
}

#[test]
fn seeded_random_truncations_and_tail_garbage_are_rejected() {
    let blob = real_blob(3);
    let mut rng = SimRng::seed_from(0x7A11_6A4B);
    for iteration in 0..500u32 {
        // Random truncation point (strictly shorter than the original).
        let cut = rng.uniform_usize(blob.len());
        assert_rejected(&blob[..cut], &format!("random truncation, iteration {iteration}"));

        // Valid blob with garbage appended: trailing bytes are corruption
        // too — a reader that ignores them would mask torn writes.
        let mut padded = blob.clone();
        let extra = 1 + rng.uniform_usize(16);
        for _ in 0..extra {
            padded.push((rng.next_u64() & 0xFF) as u8);
        }
        assert_rejected(&padded, &format!("tail garbage, iteration {iteration}"));
    }
}

#[test]
fn seeded_byte_overwrites_are_rejected() {
    // Whole-byte overwrites model single-sector rot rather than single
    // bit flips; spans of 1–32 bytes at a random offset.
    let blob = real_blob(4);
    let mut rng = SimRng::seed_from(0x0DD5_EC70);
    for iteration in 0..1000u32 {
        let mut bad = blob.clone();
        let start = rng.uniform_usize(bad.len());
        let len = (1 + rng.uniform_usize(32)).min(bad.len() - start);
        let mut changed = false;
        for b in &mut bad[start..start + len] {
            let v = (rng.next_u64() & 0xFF) as u8;
            changed |= v != *b;
            *b = v;
        }
        if !changed {
            continue;
        }
        assert_rejected(&bad, &format!("byte overwrite, iteration {iteration}"));
    }
}

#[test]
fn empty_and_foreign_blobs_are_rejected() {
    assert_rejected(&[], "empty blob");
    assert_rejected(b"not a snapshot at all", "foreign bytes");
    // A correct magic with nothing behind it.
    assert_rejected(b"TBSN", "bare magic");
}
