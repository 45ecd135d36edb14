//! Fleet supervision: the Impact peer monitor must quarantine a dead
//! peer, adopt its tenants through the catch-up replay, and move the
//! fleet trace counters — all observable through the `STATUS` wire
//! query while the daemon is still serving.

use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use tibfit_daemon::fleet::{owner_of, FleetConfig, FleetPolicy, PeerSpec};
use tibfit_daemon::migrate::{decode_bundle, encode_bundle, MigrationBundle};
use tibfit_daemon::net_io::ListenSource;
use tibfit_daemon::queue::{QueueStats, WorkItem};
use tibfit_daemon::{Daemon, DaemonConfig, WatchdogPolicy, WorkerFault};
use tibfit_experiments::replay::{render_replay, replay_records, tenant_seed, FieldScenario};
use tibfit_sim::snapshot::{read_framed, write_framed};

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

/// A migration bundle that lands after [`Daemon::run`] has returned is
/// refused: the daemon no longer supervises anything it would install,
/// so the source must keep serving the tenant.
#[test]
fn an_mpush_after_the_daemon_stopped_is_refused() {
    let root = fresh_dir("late-mpush");
    let master = 44u64;
    // A placement seed under which peer 1 owns tenant 0, so this
    // daemon does not host it and would accept it.
    let fleet_seed = (0..1000u64)
        .find(|&s| owner_of(s, 0, &[0, 1]) == Some(1))
        .expect("some seed places tenant 0 on peer 1");
    let mut cfg = DaemonConfig::standard(TENANTS, master, root.join("state"));
    cfg.fleet = Some(FleetConfig {
        id: 0,
        peers: vec![PeerSpec {
            id: 1,
            addr: "127.0.0.1:1".into(),
        }],
        seed: fleet_seed,
        listen: "127.0.0.1:0".into(),
        linger_ms: 0,
        catchup_replay: None,
        // Peer 1 is never contacted, and its grace outlasts the test:
        // nothing is adopted.
        policy: FleetPolicy {
            grace_ms: 600_000,
            ..FleetPolicy::default()
        },
    });
    let mut daemon = Daemon::new(cfg).expect("fleet daemon");
    let fleet_addr = daemon.fleet_addr().expect("fleet port bound");

    let mut push = TcpStream::connect(fleet_addr).expect("connect to the fleet port");
    push.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    push.write_all(b"MPUSH 0\n").expect("send MPUSH");
    push.flush().expect("flush MPUSH");
    // The listener accepts in arrival order: once a later STATUS is
    // answered, the MPUSH connection has its own handler thread.
    assert!(status_query(fleet_addr).is_some_and(|lines| lines.contains(&"S end".to_string())));

    let report = daemon.run(Cursor::new(String::new())).expect("run");
    assert_eq!(report.fleet.expect("fleet summary").migrations_in, 0);

    let bundle = MigrationBundle {
        tenant: 0,
        seed: FieldScenario::mobile(tenant_seed(master, 0)).seed,
        state_round: 0,
        state_bytes: Vec::new(),
        live_highwater: Vec::new(),
        live_stats: QueueStats::default(),
        replay: Vec::new(),
        pending: Vec::new(),
    };
    write_framed(&mut push, &encode_bundle(&bundle)).expect("send the bundle");
    push.flush().expect("flush the bundle");
    let mut reply = String::new();
    std::io::Read::read_to_string(&mut push, &mut reply).expect("reply until close");
    assert!(
        reply.starts_with("MERR "),
        "a stopped daemon must refuse the install: {reply:?}"
    );
}

/// A peer that takes the first `MPUSH 0` on `listener` and returns its
/// bundle. It acknowledges the push itself, or relays it to the fleet
/// port `dest` and that daemon's reply back. Probes go unanswered.
fn start_peer(
    listener: TcpListener,
    dest: Option<SocketAddr>,
) -> std::thread::JoinHandle<MigrationBundle> {
    std::thread::spawn(move || loop {
        let (stream, _) = listener.accept().expect("the source connects");
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("command line");
        if line.trim_end() != "MPUSH 0" {
            continue;
        }
        let bytes = read_framed(&mut reader, 1 << 30).expect("framed bundle");
        let bundle = decode_bundle(&bytes).expect("bundle decodes");
        let reply = match dest {
            None => "MOK 0\n".to_string(),
            Some(dest) => {
                let mut push = line.into_bytes();
                write_framed(&mut push, &bytes).expect("frame the bundle");
                raw_fleet_reply(dest, &push)
            }
        };
        (&stream).write_all(reply.as_bytes()).expect("reply");
        return bundle;
    })
}

/// `MIGRATE` lands while the router is parked at a snapshot-tick
/// barrier behind a wedged worker. Every record offered for the tenant
/// must then be in the bundle (applied into its state, in its replay
/// buffer, or pending) or counted foreign: none may move the highwaters
/// without reaching the bundle.
#[test]
fn a_migrate_while_the_router_waits_on_a_snapshot_tick_loses_no_record() {
    let root = fresh_dir("migrate-parked");
    let master = 45u64;
    let fleet_seed = (0..1000u64)
        .find(|&s| owner_of(s, 0, &[0, 1]) == Some(0))
        .expect("some seed places tenant 0 on daemon 0");
    let peer = TcpListener::bind("127.0.0.1:0").expect("bind fake peer");
    let dest_addr = peer.local_addr().expect("fake peer addr");
    let dest = start_peer(peer, None);
    let mut cfg = DaemonConfig::standard(1, master, root.join("state"));
    // Every tick is a snapshot tick, so tick 3 waits for tick 2.
    cfg.snapshot_every = 1;
    // The first worker wedges on tick 2's first record; the watchdog
    // replaces it after a few slow checks, well after the MIGRATE.
    cfg.faults = vec![(
        0,
        WorkerFault {
            wedge_at_round: Some(3),
            ..WorkerFault::default()
        },
    )];
    cfg.watchdog = WatchdogPolicy {
        check_interval_ms: 200,
        ..WatchdogPolicy::default()
    };
    cfg.fleet = Some(FleetConfig {
        id: 0,
        peers: vec![PeerSpec {
            id: 1,
            addr: dest_addr.to_string(),
        }],
        seed: fleet_seed,
        listen: "127.0.0.1:0".into(),
        linger_ms: 0,
        catchup_replay: None,
        policy: FleetPolicy {
            grace_ms: 600_000,
            ..FleetPolicy::default()
        },
    });
    let text = render_replay(&replay_records(1, master, 8, 2));
    let lines: Vec<&str> = text.lines().collect();
    let offered = lines.iter().filter(|l| l.starts_with("R ")).count() as u64;
    // Through the `T` that closes tick 3.
    let parked = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| **l == "T")
        .nth(2)
        .expect("three ticks")
        .0
        + 1;

    let source = ListenSource::bind("127.0.0.1:0", Some(1)).expect("ingest listener");
    let ingest_addr = source.local_addr().expect("ingest addr");
    let mut daemon = Daemon::new(cfg).expect("fleet daemon");
    let fleet_addr = daemon.fleet_addr().expect("fleet port");
    let server = std::thread::spawn(move || daemon.run(source).expect("fleet run"));

    let mut ingest = TcpStream::connect(ingest_addr).expect("ingest connect");
    for line in &lines[..parked] {
        writeln!(ingest, "{line}").expect("ticks 1-3");
    }
    ingest.flush().expect("flush ticks 1-3");
    std::thread::sleep(Duration::from_millis(100));
    let reply = raw_fleet_reply(fleet_addr, b"MIGRATE 0 1\n");
    assert!(reply.starts_with("MOK"), "the migration completes: {reply:?}");
    for line in &lines[parked..] {
        writeln!(ingest, "{line}").expect("the rest");
    }
    drop(ingest);

    let bundle = dest.join().expect("fake peer thread");
    let report = server.join().expect("daemon thread");
    let fleet = report.fleet.expect("fleet summary");
    assert_eq!(fleet.migrations_out, 1);
    let replayed = bundle
        .replay
        .iter()
        .filter(|i| matches!(i, WorkItem::Record(_)))
        .count() as u64;
    assert_eq!(
        bundle.state_round + replayed + bundle.pending.len() as u64 + fleet.foreign,
        offered,
        "state round {}, {replayed} replayed, {} pending, {} foreign",
        bundle.state_round,
        bundle.pending.len(),
        fleet.foreign
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Ingest fed chunk by chunk; a closed channel ends it. It signals each
/// time the router asks for more, and the router offers every record it
/// holds before it reads: a signal after a chunk means it is routed.
struct Feed(Receiver<Vec<u8>>, Sender<()>, Cursor<Vec<u8>>);

impl Read for Feed {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.read(out)?;
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.2.fill_buf()?.is_empty() {
            let _ = self.1.send(());
            self.2 = Cursor::new(self.0.recv().unwrap_or_default());
        }
        self.2.fill_buf()
    }

    fn consume(&mut self, n: usize) {
        self.2.consume(n);
    }
}

/// A tenant whose source has snapshotted migrates into a real
/// destination daemon. The destination restores the bundle's state and
/// applies only its replay buffer and pending records, then what
/// arrives after the move: fewer rounds than the snapshot holds, never
/// its history. The merged decision logs equal a one-daemon run.
#[test]
fn a_migrated_tenant_resumes_from_its_snapshot_byte_identically() {
    let root = fresh_dir("migrate-real");
    let text = render_replay(&replay_records(TENANTS, 46, 12, 2));
    let config = |dir: &str| {
        let mut cfg = DaemonConfig::standard(TENANTS, 46, root.join(dir));
        cfg.snapshot_every = 3;
        cfg
    };
    let mut one_daemon = Daemon::new(config("reference")).expect("reference daemon");
    one_daemon.run(Cursor::new(text.clone())).expect("reference run");

    // Before the move: ten ticks (a snapshot at tick 9, tick 10 in the
    // replay buffer) and tenant 0's first record of the open tick 11.
    let lines: Vec<&str> = text.lines().collect();
    let ticks = lines.iter().enumerate().filter(|(_, l)| **l == "T");
    let cut = ticks.map(|(i, _)| i).nth(9).expect("ten ticks") + 2;
    let (before, after) = (lines[..cut].join("\n") + "\n", lines[cut..].join("\n") + "\n");
    let arriving = lines[cut..].iter().filter(|l| l.starts_with("R 0 ")).count() as u64;

    // Daemon 0 hosts both tenants. Daemon 1 knows it by an address that
    // refuses connections, and the relay answers no probe: neither ever
    // hears from the other, so both stay in boot grace.
    let fleet_seed = (0..1000u64)
        .find(|&s| (0..TENANTS).all(|t| owner_of(s, t, &[0, 1]) == Some(0)))
        .expect("some seed places every tenant on daemon 0");
    let member = |id: usize, addr: String| {
        let mut cfg = config("fleet");
        cfg.fleet = Some(FleetConfig {
            id,
            peers: vec![PeerSpec { id: 1 - id, addr }],
            seed: fleet_seed,
            listen: "127.0.0.1:0".into(),
            linger_ms: 0,
            catchup_replay: None,
            policy: FleetPolicy {
                grace_ms: 600_000,
                ..FleetPolicy::default()
            },
        });
        Daemon::new(cfg).expect("fleet daemon")
    };
    let relay = TcpListener::bind("127.0.0.1:0").expect("bind the relay");
    let mut source = member(0, relay.local_addr().expect("relay addr").to_string());
    let source_addr = source.fleet_addr().expect("source fleet port");
    let mut dest = member(1, "127.0.0.1:1".into());
    // The relay's port stays bound until the source has stopped probing it.
    let _relay_port = relay.try_clone().expect("relay handle");
    let pushed = start_peer(relay, dest.fleet_addr());

    let ((chunks, feed), (asked_tx, asked)) = (channel(), channel());
    let feed = Feed(feed, asked_tx, Cursor::default());
    let server = std::thread::spawn(move || source.run(feed).expect("source run"));
    chunks.send(before.into_bytes()).expect("feed the source");
    // One ask for the chunk, one once it is routed.
    let ask = || asked.recv_timeout(Duration::from_secs(30));
    ask().and_then(|()| ask()).expect("the router asks for input");
    assert_eq!(raw_fleet_reply(source_addr, b"MIGRATE 0 1\n"), "MOK 0\n");
    let bundle = pushed.join().expect("relay thread");
    chunks.send(after.clone().into_bytes()).expect("feed the source");
    drop(chunks);
    let source_report = server.join().expect("source thread");
    let dest_report = dest.run(Cursor::new(after)).expect("destination run");

    assert_eq!(source_report.fleet.expect("fleet").migrations_out, 1);
    assert_eq!(dest_report.fleet.expect("fleet").migrations_in, 1);
    let replayed = bundle.replay.iter().filter(|i| matches!(i, WorkItem::Record(_))).count();
    let (replayed, pending) = (replayed as u64, bundle.pending.len() as u64);
    assert!(
        bundle.state_round > 0 && replayed > 0 && pending > 0,
        "state round {}, {replayed} replayed, {pending} pending",
        bundle.state_round
    );
    let applied = dest_report.tenants.iter().find(|s| s.id == 0).expect("tenant 0").applied;
    assert_eq!(applied, replayed + pending + arriving, "{arriving} arrived after the move");
    assert!(applied < bundle.state_round, "{applied} >= {}", bundle.state_round);
    for t in 0..TENANTS {
        let log = format!("decisions/tenant{t}.log");
        let read = |dir: &str| std::fs::read(root.join(dir).join(&log)).expect("decision log");
        assert!(read("fleet") == read("reference"), "tenant {t}: the merged log differs");
    }
    let _ = std::fs::remove_dir_all(&root);
}
