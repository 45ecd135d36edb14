//! Fleet supervision: the Impact peer monitor must quarantine a dead
//! peer, adopt its tenants through the catch-up replay, and move the
//! fleet trace counters — all observable through the `STATUS` wire
//! query while the daemon is still serving.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use tibfit_daemon::fleet::{owner_of, FleetConfig, FleetPolicy, PeerSpec};
use tibfit_daemon::{Daemon, DaemonConfig};
use tibfit_experiments::replay::{render_replay, replay_records};

const TENANTS: usize = 2;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-fsup-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// One `STATUS` round trip against a fleet port.
fn status_query(addr: SocketAddr) -> Option<Vec<String>> {
    let stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .ok()?;
    let mut w = &stream;
    writeln!(w, "STATUS").ok()?;
    w.flush().ok()?;
    let mut reader = BufReader::new(&stream);
    let mut lines = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).ok()? == 0 {
            break;
        }
        let trimmed = line.trim_end().to_string();
        let done = trimmed == "S end";
        lines.push(trimmed);
        if done {
            break;
        }
    }
    Some(lines)
}

#[test]
fn dead_peer_is_quarantined_and_its_tenants_adopted() {
    let root = fresh_dir("failover");
    let seed = 42u64;
    // A placement seed under which the (dead) peer 1 owns at least one
    // tenant of the full roster {0, 1}.
    let fleet_seed = (0..1000u64)
        .find(|&s| (0..TENANTS).any(|t| owner_of(s, t, &[0, 1]) == Some(1)))
        .expect("some seed places a tenant on peer 1");
    let victim_tenants: Vec<usize> = (0..TENANTS)
        .filter(|&t| owner_of(fleet_seed, t, &[0, 1]) == Some(1))
        .collect();

    let text = render_replay(&replay_records(TENANTS, seed, 10, 2));
    let catchup = root.join("catchup.replay");
    std::fs::write(&catchup, &text).expect("catchup replay");

    let mut cfg = DaemonConfig::standard(TENANTS, seed, root.join("state"));
    cfg.fleet = Some(FleetConfig {
        id: 0,
        // Nothing listens on port 1: every probe misses immediately.
        peers: vec![PeerSpec {
            id: 1,
            addr: "127.0.0.1:1".into(),
        }],
        seed: fleet_seed,
        listen: "127.0.0.1:0".into(),
        linger_ms: 4000,
        catchup_replay: Some(catchup),
        policy: FleetPolicy {
            check_interval_ms: 10,
            grace_ms: 0,
            probe_timeout_ms: 50,
            ..FleetPolicy::default()
        },
    });
    let mut daemon = Daemon::new(cfg).expect("fleet daemon");
    let fleet_addr = daemon.fleet_addr().expect("fleet port bound");
    let handle = std::thread::spawn(move || daemon.run(Cursor::new(text)).expect("run"));

    // While the daemon lingers, STATUS must show peer 1 quarantined
    // with decayed trust, and placement must fall back to daemon 0.
    let status = (0..100)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(50));
            let lines = status_query(fleet_addr)?;
            lines
                .iter()
                .any(|l| l.starts_with("S peer 1 quarantined"))
                .then_some(lines)
        })
        .expect("peer 1 was never quarantined while the daemon served STATUS");
    assert!(status.contains(&"S self 0".to_string()), "{status:?}");
    for t in 0..TENANTS {
        assert!(
            status.contains(&format!("S tenant {t} 0")),
            "tenant {t} must be placed on the survivor: {status:?}"
        );
    }

    let report = handle.join().expect("daemon thread");
    let counters = report.counters();
    let fleet = report.fleet.expect("fleet summary present");
    assert_eq!(
        fleet.adopted, victim_tenants,
        "exactly the dead peer's tenants are adopted"
    );
    assert_eq!(fleet.rebalances, victim_tenants.len() as u64);
    assert_eq!(fleet.migrations_in + fleet.migrations_out, 0);

    // Counter movement across the forced failover.
    let get = |key: &str| {
        counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing counter {key}: {counters:?}"))
    };
    assert!(get("fleet.rebalance.count") >= 1);
    assert_eq!(get("fleet.migrations"), 0);
    assert!(
        get("fleet.peer_trust.p1") < 1000,
        "peer 1 trust must have decayed from 1.0"
    );
    // Every adopted tenant ends the run applied and unquarantined.
    for &t in &victim_tenants {
        let summary = report
            .tenants
            .iter()
            .find(|s| s.id == t)
            .expect("adopted tenant reported");
        assert!(summary.applied > 0, "adopted tenant {t} must apply rounds");
        assert!(!summary.quarantined);
    }
}

/// One raw command line against a fleet port; the reply until close.
fn raw_fleet_reply(addr: SocketAddr, line: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to the fleet port");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(line).expect("send the command");
    let mut reply = String::new();
    std::io::Read::read_to_string(&mut stream, &mut reply).expect("reply until close");
    reply
}

#[test]
fn the_fleet_port_answers_a_bad_command_with_merr() {
    let root = fresh_dir("merr");
    let mut cfg = DaemonConfig::standard(TENANTS, 43, root.join("state"));
    cfg.fleet = Some(FleetConfig {
        id: 0,
        peers: Vec::new(),
        seed: 43,
        listen: "127.0.0.1:0".into(),
        linger_ms: 0,
        catchup_replay: None,
        policy: FleetPolicy::default(),
    });
    let mut daemon = Daemon::new(cfg).expect("fleet daemon");
    let fleet_addr = daemon.fleet_addr().expect("fleet port bound");

    assert_eq!(
        raw_fleet_reply(fleet_addr, b"\xff\xfe STATUS\n"),
        "MERR line is not valid UTF-8\n"
    );
    let mut long = vec![b'A'; 5000];
    long.push(b'\n');
    assert_eq!(
        raw_fleet_reply(fleet_addr, &long),
        "MERR line of 5000 bytes exceeds the 4096-byte frame cap\n"
    );
    // The port still serves a good command afterwards.
    assert!(raw_fleet_reply(fleet_addr, b"STATUS\n").ends_with("S end\n"));

    daemon.run(Cursor::new(String::new())).expect("run");
}
