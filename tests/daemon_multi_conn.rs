//! Multi-connection fan-in ingest: the same stream split across 2–4
//! concurrent TCP connections must produce decision logs byte-identical
//! to the single-connection reference.
//!
//! Each connection carries a subset of every tick's `R` lines plus all
//! `T` lines; [`FanInSource`] holds tick `k` until every connection has
//! sealed it, and queue admission is arrival-order-independent within a
//! tick — together that makes the merged decisions deterministic no
//! matter how the OS schedules the senders.

use std::io::{Cursor, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

use tibfit_daemon::net_io::{FanInSource, ListenSource};
use tibfit_daemon::wire::parse_line;
use tibfit_daemon::{Daemon, DaemonConfig, DaemonReport};
use tibfit_experiments::replay::{render_replay, replay_records};

const TENANTS: usize = 2;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tibfit-fanin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn decisions(state_dir: &Path) -> Vec<String> {
    (0..TENANTS)
        .map(|t| {
            std::fs::read_to_string(state_dir.join("decisions").join(format!("tenant{t}.log")))
                .expect("decision log exists")
        })
        .collect()
}

/// Splits a replay: `R` lines round-robin across `k` parts, every part
/// carries every `T` line. With `overlap`, each `R` line is *also*
/// duplicated onto the next part — cross-connection resend noise the
/// dedup layers must cancel.
fn split_stream(text: &str, k: usize, overlap: bool) -> Vec<String> {
    let mut parts = vec![String::new(); k];
    let mut i = 0usize;
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line == "T" {
            for part in &mut parts {
                part.push_str("T\n");
            }
        } else {
            parts[i % k].push_str(line);
            parts[i % k].push('\n');
            if overlap {
                let dup = (i + 1) % k;
                parts[dup].push_str(line);
                parts[dup].push('\n');
            }
            i += 1;
        }
    }
    parts
}

fn fan_in_cycle(k: usize, overlap: bool, seed: u64) {
    let root = fresh_dir(&format!("k{k}-ov{overlap}"));
    let text = render_replay(&replay_records(TENANTS, seed, 12, 3));

    let mut reference = Daemon::new(DaemonConfig::standard(TENANTS, seed, root.join("ref")))
        .expect("reference daemon");
    let ref_report = reference.run(Cursor::new(text.clone())).expect("reference run");
    assert!(ref_report.ticks > 0, "reference must close ticks");
    let want = decisions(&root.join("ref"));
    assert!(!want[0].is_empty(), "reference must decide something");

    let source = FanInSource::bind("127.0.0.1:0", u32::try_from(k).unwrap()).expect("bind");
    let addr = source.local_addr().expect("local addr");
    let mut daemon =
        Daemon::new(DaemonConfig::standard(TENANTS, seed, root.join("fan"))).expect("fan daemon");
    let server = std::thread::spawn(move || daemon.run(source).expect("fan-in run"));

    let senders: Vec<_> = split_stream(&text, k, overlap)
        .into_iter()
        .map(|part| {
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.write_all(part.as_bytes()).expect("send split");
            })
        })
        .collect();
    for sender in senders {
        sender.join().expect("sender thread");
    }
    let report = server.join().expect("server thread");

    assert_eq!(
        report.ticks, ref_report.ticks,
        "k={k} overlap={overlap}: fan-in must close the same tick count"
    );
    assert_eq!(
        want,
        decisions(&root.join("fan")),
        "k={k} overlap={overlap}: fan-in decisions must be byte-identical"
    );
    if overlap {
        let dups: u64 = report.tenants.iter().map(|t| t.stats.duplicates).sum();
        assert!(
            dups > 0,
            "overlapped split must exercise cross-connection dedup"
        );
    }
}

#[test]
fn two_connections_merge_byte_identical() {
    fan_in_cycle(2, false, 71);
}

#[test]
fn three_connections_with_overlap_merge_byte_identical() {
    fan_in_cycle(3, true, 72);
}

#[test]
fn four_connections_with_overlap_merge_byte_identical() {
    fan_in_cycle(4, true, 73);
}

/// Serves `conns` over `source`: each element is one connection's
/// bytes, sent in order, each connection closed before the next opens.
fn serve_connections(
    mut daemon: Daemon,
    source: impl std::io::BufRead + Send + 'static,
    addr: std::net::SocketAddr,
    conns: Vec<Vec<u8>>,
) -> DaemonReport {
    let server = std::thread::spawn(move || daemon.run(source).expect("socket run"));
    for bytes in conns {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&bytes).expect("send");
    }
    server.join().expect("server thread")
}

#[test]
fn fan_in_keeps_a_non_utf8_line_like_the_unsplit_stream() {
    let root = fresh_dir("not-utf8");
    let text = render_replay(&replay_records(1, 74, 3, 1));
    let cut = text.find("T\n").expect("a tick line") + 2;
    let mut stream = text.as_bytes()[..cut].to_vec();
    stream.extend_from_slice(b"\xff\xfe\n");
    // An oversized line too: the reader forwards only the framer's
    // bounded prefix, which must still count as oversized.
    stream.extend_from_slice(format!("R {}\n", "9".repeat(5000)).as_bytes());
    stream.extend_from_slice(&text.as_bytes()[cut..]);

    let mut reference =
        Daemon::new(DaemonConfig::standard(1, 74, root.join("ref"))).expect("reference daemon");
    let want = reference.run(Cursor::new(stream.clone())).expect("reference run");
    assert_eq!(
        want.rejected_by_kind,
        vec![("not_utf8".to_string(), 1), ("oversized".to_string(), 1)]
    );

    let source = FanInSource::bind("127.0.0.1:0", 1).expect("bind");
    let addr = source.local_addr().expect("local addr");
    let daemon = Daemon::new(DaemonConfig::standard(1, 74, root.join("fan"))).expect("fan daemon");
    let got = serve_connections(daemon, source, addr, vec![stream]);

    assert_eq!(
        got.ticks, want.ticks,
        "the bad line must not end the connection"
    );
    assert_eq!(got.tenants[0].applied, want.tenants[0].applied);
    assert_eq!(got.rejected_by_kind, want.rejected_by_kind);
    let log = |dir: &str| {
        std::fs::read_to_string(root.join(dir).join("decisions").join("tenant0.log"))
            .expect("decision log exists")
    };
    assert_eq!(log("fan"), log("ref"));
}

/// A client drops mid-line and reconnects resending the whole replay:
/// the torn fragment is rejected on its own, whether it is cut before
/// the `y` token or inside it (where the truncation alone would still
/// parse), and the run decides exactly as the unsplit stream does.
#[test]
fn a_line_torn_by_a_disconnect_does_not_swallow_the_next_connection() {
    let root = fresh_dir("torn");
    let text = render_replay(&replay_records(1, 75, 4, 2));
    let start = text.find("\nR ").expect("a report line") + 1;
    let end = start + text[start..].find('\n').expect("terminated");
    let before_y = start + text[start..end].rfind(' ').expect("a y token") + 1;
    let inside_y = end - 1;
    assert!(
        parse_line(&text[start..inside_y]).is_ok_and(|f| f.is_some()),
        "the cut inside y must leave a fragment that parses on its own"
    );

    let mut reference =
        Daemon::new(DaemonConfig::standard(1, 75, root.join("ref"))).expect("reference daemon");
    let want = reference.run(Cursor::new(text.clone())).expect("reference run");
    let log = |dir: &str| {
        std::fs::read_to_string(root.join(dir).join("decisions").join("tenant0.log"))
            .expect("decision log exists")
    };
    for (tag, cut) in [("before-y", before_y), ("inside-y", inside_y)] {
        let source = ListenSource::bind("127.0.0.1:0", Some(2)).expect("bind");
        let addr = source.local_addr().expect("local addr");
        let daemon = Daemon::new(DaemonConfig::standard(1, 75, root.join(tag))).expect("daemon");
        let conns = vec![text.as_bytes()[..cut].to_vec(), text.clone().into_bytes()];
        let got = serve_connections(daemon, source, addr, conns);
        assert_eq!(
            got.rejected_by_kind,
            vec![("not_utf8".to_string(), 1)],
            "{tag}: the torn fragment is rejected on its own"
        );
        assert_eq!(got.ticks, want.ticks, "{tag}");
        assert_eq!(
            got.tenants[0].applied, want.tenants[0].applied,
            "{tag}: the resent line applies in full"
        );
        assert_eq!(log(tag), log("ref"), "{tag}: decisions match the unsplit run");
    }
}
