//! Tenant state slots under damage: a commit torn at every interesting
//! offset, sections mixed across generations, both slots corrupt, a
//! legacy single-file state directory, and stale slots an earlier
//! hosting of a migrated tenant left behind.
//!
//! The torn images are built black-box: the slot image a commit of
//! generation `g + 1` leaves is captured by really committing it in a
//! scratch directory, then spliced over the image of `g - 1`.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Command;

use tibfit_daemon::fleet::{owner_of, FleetConfig, FleetPolicy, PeerSpec};
use tibfit_daemon::migrate::{encode_bundle, push_bundle, MigrationBundle};
use tibfit_daemon::net_io::ListenSource;
use tibfit_daemon::queue::QueueStats;
use tibfit_daemon::state::{
    decision_log_path, decode_tenant_state, encode_tenant_state, read_tenant_snapshot,
    read_tenant_state, tenant_state_path, tenant_state_slots, write_tenant_state, SLOT_HEADER,
};
use tibfit_daemon::tenant::Tenant;
use tibfit_daemon::wire::Report;
use tibfit_daemon::{Daemon, DaemonConfig, DaemonError, EngineKind};
use tibfit_experiments::checkpoint::write_checkpoint;
use tibfit_experiments::replay::{tenant_seed, FieldScenario};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-slots-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Containers for rounds `1..=n` of tenant `id` built from `scenario`:
/// each a different payload of the same shape.
fn payloads(id: usize, scenario: &FieldScenario, n: usize) -> Vec<Vec<u8>> {
    payloads_and_log(id, scenario, n).0
}

/// [`payloads`], plus the decision log the rounds write.
fn payloads_and_log(id: usize, scenario: &FieldScenario, n: usize) -> (Vec<Vec<u8>>, String) {
    let mut tenant = Tenant::new(id, scenario.clone(), EngineKind::Sequential, 1).unwrap();
    let mut out = Vec::with_capacity(n);
    let mut log = String::new();
    for (i, p) in scenario.events(n).into_iter().enumerate() {
        let seq = i as u64 + 1;
        log += &tenant.apply(&Report {
            tenant: id,
            time: i as u64,
            src: 0,
            seq,
            x: p.x,
            y: p.y,
        });
        log.push('\n');
        out.push(encode_tenant_state(&tenant, &[(0, seq)], QueueStats::default()).unwrap());
    }
    (out, log)
}

/// A field big enough that a container spans more than 8 KiB.
fn wide_payloads() -> Vec<Vec<u8>> {
    let scenario = FieldScenario {
        nodes: 160,
        ..FieldScenario::mobile(21)
    };
    let p = payloads(0, &scenario, 3);
    assert!(p.iter().all(|b| b.len() > 8192), "{}", p[0].len());
    assert!(p[0] != p[2]);
    p
}

/// Commits `payloads` in order as tenant 0 under `dir`.
fn committed(dir: &Path, payloads: &[Vec<u8>]) -> PathBuf {
    let path = tenant_state_path(dir, 0);
    for bytes in payloads {
        write_tenant_state(&path, bytes).unwrap();
    }
    path
}

/// Offsets just past each top-level section of a container (its
/// 6-byte preamble first), walked from the framing.
fn section_ends(container: &[u8]) -> Vec<usize> {
    let mut ends = vec![6];
    let mut pos = 6;
    while pos < container.len() {
        let len = u32::from_le_bytes(container[pos + 1..pos + 5].try_into().unwrap()) as usize;
        pos += 9 + len;
        ends.push(pos);
    }
    ends
}

/// `new[..at]` over `old`: a write of `new` that reached `at` bytes.
fn torn(old: &[u8], new: &[u8], at: usize) -> Vec<u8> {
    let mut out = new[..at].to_vec();
    if old.len() > at {
        out.extend_from_slice(&old[at..]);
    }
    out
}

/// Generation and bytes of the snapshot a restore would load.
fn loaded(path: &Path) -> (u64, Vec<u8>) {
    let s = read_tenant_snapshot(path).unwrap().expect("a snapshot");
    (s.generation, s.bytes)
}

/// Slot a holds generation 1 (`p[0]`), slot b generation 2 (`p[1]`);
/// returns the state path, slot a's image, and the image a commit of
/// generation 3 (`p[2]`) leaves in slot a.
fn torn_fixture(tag: &str, p: &[Vec<u8>]) -> (PathBuf, Vec<u8>, Vec<u8>) {
    let path = committed(&fresh_dir(tag), &p[..2]);
    let old = std::fs::read(&tenant_state_slots(&path)[0]).unwrap();
    let scratch = committed(&fresh_dir(&format!("{tag}-next")), p);
    let new = std::fs::read(&tenant_state_slots(&scratch)[0]).unwrap();
    assert_eq!(
        &new[SLOT_HEADER..],
        &p[2][..],
        "the slot payload is the container"
    );
    (path, old, new)
}

#[test]
fn torn_slot_writes_restore_the_previous_generation_exactly() {
    let p = wide_payloads();
    let (path, old, new) = torn_fixture("torn", &p);
    let slot_a = &tenant_state_slots(&path)[0];
    let mut points: Vec<(String, Vec<u8>)> = Vec::new();
    let sections = section_ends(&p[2]);
    for &end in &sections[..sections.len() - 1] {
        points.push((
            format!("section boundary {end}"),
            torn(&old, &new, SLOT_HEADER + end),
        ));
    }
    for at in (0..=8192).step_by(512) {
        points.push((format!("sector {at}"), torn(&old, &new, at)));
    }
    let mut header_only = old.clone();
    header_only[..SLOT_HEADER].copy_from_slice(&new[..SLOT_HEADER]);
    points.push(("header only".into(), header_only));
    let mut payload_only = new.clone();
    payload_only[..SLOT_HEADER].copy_from_slice(&old[..SLOT_HEADER]);
    points.push(("payload only".into(), payload_only));
    for (what, image) in points {
        std::fs::write(slot_a, &image).unwrap();
        assert_eq!(loaded(&path), (2, p[1].clone()), "torn at {what}");
    }
    // The untorn write is generation 3.
    std::fs::write(slot_a, &new).unwrap();
    assert_eq!(loaded(&path), (3, p[2].clone()));
}

#[test]
fn torn_slot_section_mix_is_rejected_although_each_section_checks_out() {
    let p = wide_payloads();
    let (path, old, new) = torn_fixture("mix", &p);
    let slot_a = &tenant_state_slots(&path)[0];
    let meta_end = section_ends(&p[2])[1];
    assert_eq!(
        section_ends(&p[0])[1],
        meta_end,
        "same-shape sections line up"
    );
    let old_payload = &old[SLOT_HEADER..];
    let new_payload = &new[SLOT_HEADER..];
    // META from generation 3 with ENGINE from 1, and the reverse, both
    // under generation 3's header.
    for (meta, engine) in [(new_payload, old_payload), (old_payload, new_payload)] {
        let mut payload = meta[..meta_end].to_vec();
        payload.extend_from_slice(&engine[meta_end..]);
        assert!(
            decode_tenant_state(&payload).is_ok(),
            "each section passes its own CRC"
        );
        let mut image = new[..SLOT_HEADER].to_vec();
        image.extend_from_slice(&payload);
        std::fs::write(slot_a, &image).unwrap();
        assert_eq!(loaded(&path), (2, p[1].clone()));
    }
}

#[test]
fn torn_slot_pair_both_corrupt_is_a_typed_error() {
    let p = wide_payloads();
    let (path, old, new) = torn_fixture("both", &p);
    let [a, b] = tenant_state_slots(&path);
    std::fs::write(&a, torn(&old, &new, 4096)).unwrap();
    let mut image_b = std::fs::read(&b).unwrap();
    image_b[SLOT_HEADER + 100] ^= 0x01;
    std::fs::write(&b, &image_b).unwrap();
    assert!(matches!(
        read_tenant_state(&path),
        Err(DaemonError::State(_))
    ));
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn torn_slot_seeded_damage_loads_a_committed_generation_or_fails_typed() {
    let scenario = FieldScenario::mobile(5);
    let p = payloads(0, &scenario, 2);
    let path = committed(&fresh_dir("fuzz"), &p);
    let slots = tenant_state_slots(&path);
    let clean = slots.clone().map(|s| std::fs::read(s).unwrap());
    let mut rng = 0x5107_u64;
    for case in 0..300 {
        for (slot, image) in slots.iter().zip(&clean) {
            let mut image = image.clone();
            match splitmix(&mut rng) % 4 {
                0 => {}
                1 => image.truncate((splitmix(&mut rng) as usize) % image.len()),
                _ => {
                    for _ in 0..1 + splitmix(&mut rng) % 3 {
                        let at = (splitmix(&mut rng) as usize) % image.len();
                        image[at] ^= 1 << (splitmix(&mut rng) % 8);
                    }
                }
            }
            std::fs::write(slot, &image).unwrap();
        }
        match read_tenant_snapshot(&path) {
            Ok(Some(s)) => assert_eq!(s.bytes, p[s.generation as usize - 1], "case {case}"),
            Ok(None) => panic!("case {case}: slot files exist"),
            Err(DaemonError::State(_)) => {}
            Err(e) => panic!("case {case}: unexpected error {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// A legacy state directory, on the real binary.

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_tibfit-daemon")
}

fn serve(replay: &Path, state: &Path) -> String {
    let out = Command::new(bin())
        .args(["serve", "--replay", replay.to_str().unwrap(), "--state-dir"])
        .arg(state)
        .args([
            "--seed",
            "31",
            "--tenants",
            "2",
            "--snapshot-every",
            "3",
        ])
        .output()
        .expect("binary spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn applied(stdout: &str, tenant: usize) -> u64 {
    let key = format!("daemon.t{tenant}.applied ");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(&key))
        .and_then(|v| v.parse().ok())
        .expect("applied counter")
}

fn decisions(state: &Path) -> Vec<String> {
    (0..2)
        .map(|t| {
            std::fs::read_to_string(state.join("decisions").join(format!("tenant{t}.log"))).unwrap()
        })
        .collect()
}

/// The first `ticks` ticks of a replay file, as a replay file of its own.
fn prefix(root: &Path, text: &str, ticks: usize) -> PathBuf {
    let mut out = String::new();
    let mut seen = 0;
    for line in text.lines() {
        if seen == ticks {
            break;
        }
        out.push_str(line);
        out.push('\n');
        seen += usize::from(line == "T");
    }
    let path = root.join(format!("prefix{ticks}.replay"));
    std::fs::write(&path, out).unwrap();
    path
}

#[test]
fn legacy_state_dir_resumes_byte_identically_and_never_outranks_a_slot() {
    let root = fresh_dir("legacy");
    let replay = root.join("events.replay");
    let out = Command::new(bin())
        .args(["gen-replay", "--out", replay.to_str().unwrap()])
        .args([
            "--tenants",
            "2",
            "--seed",
            "31",
            "--ticks",
            "12",
            "--per-tick",
            "1",
        ])
        .output()
        .expect("binary spawns");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&replay).unwrap();

    let reference = root.join("ref");
    let full = serve(&replay, &reference);
    let want = decisions(&reference);

    // Half the stream, then turn each tenant's state into the single
    // file earlier versions wrote: `write_checkpoint` of the container.
    let state = root.join("state");
    serve(&prefix(&root, &text, 6), &state);
    let mut legacy = Vec::new();
    for t in 0..2 {
        let path = tenant_state_path(&state, t);
        let stored = read_tenant_snapshot(&path).unwrap().unwrap();
        for slot in tenant_state_slots(&path) {
            std::fs::remove_file(slot).unwrap();
        }
        write_checkpoint(&path, &stored.bytes).unwrap();
        assert_eq!(read_tenant_snapshot(&path).unwrap().unwrap().generation, 0);
        legacy.push(stored);
    }

    // Resume from the legacy files: only the rounds after them are
    // applied again, and the logs come out byte-identical.
    let resumed = root.join("resumed");
    copy_dir(&state, &resumed);
    let out = serve(&replay, &resumed);
    assert_eq!(decisions(&resumed), want);
    for (t, stored) in legacy.iter().enumerate() {
        assert!(stored.state.round > 0);
        assert_eq!(
            applied(&out, t),
            applied(&full, t) - stored.state.round,
            "tenant {t}"
        );
    }

    // Commit slots over the legacy files, then put each legacy file
    // back, as a kill between a slot's creation and the legacy unlink
    // would leave it: the slot still wins.
    serve(&prefix(&root, &text, 9), &state);
    for (t, stored) in legacy.iter().enumerate() {
        let path = tenant_state_path(&state, t);
        assert!(
            !path.exists(),
            "the first slot commit retires the legacy file"
        );
        write_checkpoint(&path, &stored.bytes).unwrap();
        let now = read_tenant_snapshot(&path).unwrap().unwrap();
        assert!(now.generation >= 1 && now.state.round > stored.state.round);
    }
    let rounds: Vec<u64> = (0..2)
        .map(|t| {
            read_tenant_state(&tenant_state_path(&state, t))
                .unwrap()
                .unwrap()
                .round
        })
        .collect();
    let out = serve(&replay, &state);
    assert_eq!(decisions(&state), want);
    for (t, round) in rounds.into_iter().enumerate() {
        assert_eq!(applied(&out, t), applied(&full, t) - round, "tenant {t}");
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to.join(entry.file_name()));
        } else {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Migration away and back, through a live daemon's MPUSH install.

#[test]
fn migration_install_never_resurrects_a_stale_slot() {
    const TENANTS: usize = 3;
    let seed = 47u64;
    let root = fresh_dir("install");
    let state = root.join("state");
    let mut cfg = DaemonConfig::standard(TENANTS, seed, state.clone());
    let decisions = cfg.decisions_dir.clone();
    let scenario_of = cfg.scenario;
    let scenario = |t: usize| scenario_of(tenant_seed(seed, t));
    // Tenants 1 and 2 belong to daemon 1, which never runs: daemon 0
    // hosts them only once a bundle installs them.
    let fleet_seed = (0..10_000u64)
        .find(|&s| (1..TENANTS).all(|t| owner_of(s, t, &[0, 1]) == Some(1)))
        .expect("some seed places tenants 1 and 2 on daemon 1");
    // An earlier hosting left generations 1..=5 of both on disk.
    for t in 1..TENANTS {
        for bytes in &payloads(t, &scenario(t), 5) {
            write_tenant_state(&tenant_state_path(&state, t), bytes).unwrap();
        }
    }
    cfg.fleet = Some(FleetConfig {
        id: 0,
        peers: vec![PeerSpec {
            id: 1,
            addr: "127.0.0.1:1".into(),
        }],
        seed: fleet_seed,
        listen: "127.0.0.1:0".into(),
        linger_ms: 200,
        catchup_replay: None,
        // Never quarantine the absent peer, so nothing is adopted.
        policy: FleetPolicy {
            grace_ms: 3_600_000,
            ..FleetPolicy::default()
        },
    });
    let source = ListenSource::bind("127.0.0.1:0", Some(1)).expect("ingest listener");
    let ingest = TcpStream::connect(source.local_addr().unwrap()).expect("ingest connect");
    let mut daemon = Daemon::new(cfg).expect("fleet daemon");
    let fleet_addr = daemon.fleet_addr().expect("fleet port").to_string();
    let server = std::thread::spawn(move || daemon.run(source).expect("fleet run"));

    let bundle = |tenant: usize, state_bytes: Vec<u8>| {
        let state_round = if state_bytes.is_empty() {
            0
        } else {
            decode_tenant_state(&state_bytes).unwrap().round
        };
        encode_bundle(&MigrationBundle {
            tenant,
            seed: scenario(tenant).seed,
            state_round,
            state_bytes,
            live_highwater: Vec::new(),
            live_stats: QueueStats::default(),
            replay: Vec::new(),
            pending: Vec::new(),
        })
    };
    // The source never snapshotted tenant 1: every stale slot goes.
    push_bundle(&fleet_addr, 1, &bundle(1, Vec::new())).expect("install tenant 1");
    let path = tenant_state_path(&state, 1);
    assert!(read_tenant_snapshot(&path).unwrap().is_none());
    assert!(tenant_state_slots(&path).iter().all(|s| !s.exists()));
    // Tenant 2 arrives with an older round than the stale slots hold:
    // it must land above generation 5, byte for byte. Its source wrote
    // the shared decision log through the shipped round.
    let (mut shipped, log) = payloads_and_log(2, &scenario(2), 2);
    let shipped = shipped.swap_remove(1);
    std::fs::create_dir_all(&decisions).unwrap();
    std::fs::write(decision_log_path(&decisions, 2), log).unwrap();
    push_bundle(&fleet_addr, 2, &bundle(2, shipped.clone())).expect("install tenant 2");
    assert_eq!(loaded(&tenant_state_path(&state, 2)), (6, shipped));

    drop(ingest);
    server.join().expect("daemon thread");
}
