//! Wire-protocol fuzzing: seeded garbage, mutations of valid frames,
//! oversized lines, and raw non-UTF-8 bytes. Two contracts under test:
//!
//! - [`tibfit_daemon::wire::parse_line`] never panics on any input and
//!   maps every malformed line to a typed error with a stable counter
//!   kind, and the router's [`tibfit_daemon::wire::parse_frame`], with
//!   its fast path for plain `R` lines, returns the same frame (to the
//!   bit) or the same error on every line.
//! - A daemon fed a garbage-interleaved stream never aborts, counts
//!   every rejected line under the right kind, and produces decision
//!   logs byte-identical to the same stream with the garbage removed.
//!
//! Every mutation is drawn from a seeded [`SimRng`], so a failure
//! reproduces exactly from the printed seed/iteration.

use std::io::Cursor;

use tibfit_daemon::wire::{parse_frame, parse_line, Frame, MAX_LINE_BYTES};
use tibfit_daemon::{Daemon, DaemonConfig, DaemonReport};
use tibfit_experiments::replay::{tenant_seed, FieldScenario};
use tibfit_sim::rng::SimRng;

const KNOWN_KINDS: &[&str] = &[
    "oversized",
    "unknown_tag",
    "missing_field",
    "bad_number",
    "non_finite",
    "trailing_garbage",
    "unknown_query",
    "not_utf8",
];

/// The frame with each report coordinate as its bits, so `-0.0` and
/// `0.0` differ.
fn bits(
    frame: Result<Option<Frame>, tibfit_daemon::wire::IngestError>,
) -> impl PartialEq + std::fmt::Debug {
    let coords = match &frame {
        Ok(Some(Frame::Report(r))) => Some((r.x.to_bits(), r.y.to_bits())),
        _ => None,
    };
    (frame, coords)
}

/// Exercises one line: must return without panicking, any error must
/// carry a registered kind and a renderable message, and the router's
/// parser must agree with `parse_line` to the bit.
fn probe(line: &str, what: &str) {
    assert_eq!(
        bits(parse_frame(line)),
        bits(parse_line(line)),
        "parse_frame disagrees for {what}: {line:?}"
    );
    match parse_line(line) {
        Ok(_) => {}
        Err(e) => {
            assert!(
                KNOWN_KINDS.contains(&e.kind()),
                "unregistered error kind {:?} for {what}: {line:?}",
                e.kind()
            );
            let _ = e.to_string();
        }
    }
}

#[test]
fn random_token_soup_never_panics() {
    // Printable-ASCII soups with frame-ish tokens salted in, so the
    // parser's deep paths (numeric fields, query kinds) get hit too.
    let vocab = [
        "R",
        "T",
        "Q",
        "trust",
        "round",
        "#",
        "-",
        "NaN",
        "inf",
        "1e309",
        "0",
        "18446744073709551616",
        "3.5",
        "-0.0",
        "..",
        "+",
    ];
    for seed in 0..8u64 {
        let mut rng = SimRng::seed_from(0xF0_22 ^ seed);
        for iter in 0..500 {
            let tokens = rng.uniform_usize(9);
            let mut line = String::new();
            for _ in 0..tokens {
                if !line.is_empty() {
                    line.push(' ');
                }
                if rng.chance(0.6) {
                    line.push_str(vocab[rng.uniform_usize(vocab.len())]);
                } else {
                    let len = 1 + rng.uniform_usize(6);
                    for _ in 0..len {
                        line.push((0x20 + rng.uniform_usize(0x5f) as u8) as char);
                    }
                }
            }
            probe(&line, &format!("soup seed {seed} iter {iter}"));
        }
    }
}

#[test]
fn mutated_valid_frames_never_panic() {
    let valid = [
        "R 1 7 3 15 1.5 -0.25",
        "T",
        "Q trust 0 31",
        "Q round 1",
        "# comment line",
        "R 0 0 0 1 1e-308 9.75",
    ];
    for base in valid {
        assert!(parse_line(base).is_ok(), "fixture must be valid: {base:?}");
    }
    let mut rng = SimRng::seed_from(0xF0_23);
    for iter in 0..2000 {
        let mut line: Vec<char> = valid[rng.uniform_usize(valid.len())].chars().collect();
        for _ in 0..=rng.uniform_usize(3) {
            let c = (0x20 + rng.uniform_usize(0x5f) as u8) as char;
            match rng.uniform_usize(3) {
                0 if !line.is_empty() => {
                    let at = rng.uniform_usize(line.len());
                    line[at] = c;
                }
                1 => {
                    let at = rng.uniform_usize(line.len() + 1);
                    line.insert(at, c);
                }
                _ if !line.is_empty() => {
                    line.remove(rng.uniform_usize(line.len()));
                }
                _ => {}
            }
        }
        let line: String = line.into_iter().collect();
        probe(&line, &format!("mutation iter {iter}"));
    }
}

/// The edges of `parse_frame`'s fast path: mantissas at and past
/// `2^53`, 22 and 23 fraction digits, 19- and 20-digit integers,
/// signs, zeros, bare points, exponents, `\r` and doubled or trailing
/// spaces, each in every coordinate and integer position.
#[test]
fn the_fast_report_path_agrees_at_its_edges() {
    let numbers = [
        "9007199254740992",
        "9007199254740993",
        "900719925474099.3",
        "0.9007199254740993",
        "0.1234567890123456789012",
        "0.12345678901234567890123",
        "0.0000000000000000000001",
        "0.00000000000000000000001",
        "9999999999999999999",
        "10000000000000000000",
        "18446744073709551615",
        "18446744073709551616",
        "-0",
        "-0.0",
        "+1",
        "-1.5",
        "--1",
        "1.",
        ".5",
        "-.5",
        "1e3",
        "1.5E-3",
        "0x10",
        "007",
        "1_0",
        "",
        "79.770050729865",
        "16.29030529930712",
        "16.290305299307123",
    ];
    let base = ["R", "1", "7", "3", "15", "1.5", "-0.25"];
    for at in 1..base.len() {
        for n in numbers {
            let mut fields = base;
            fields[at] = n;
            for sep in [" ", "  ", "\t"] {
                let line = fields.join(sep);
                probe(&line, "edge");
                probe(&format!("{line}\r"), "edge with \\r");
                probe(&format!("{line} "), "edge with a trailing space");
                probe(&format!("{line} 1"), "edge with an extra field");
            }
        }
    }
    let mut rng = SimRng::seed_from(0xF0_26);
    for _ in 0..20_000 {
        let x = f64::from_bits(rng.next_u64());
        let y = rng.uniform_range(-1e3, 1e3);
        probe(&format!("R 0 1 2 3 {x} {y}"), "random coordinates");
        probe(&format!("R 0 1 2 3 {:.3} {y:.9}", x.clamp(-1e9, 1e9)), "rounded coordinates");
    }
}

#[test]
fn oversized_lines_are_typed_not_fatal() {
    let mut rng = SimRng::seed_from(0xF0_24);
    for _ in 0..20 {
        let len = MAX_LINE_BYTES + 1 + rng.uniform_usize(8192);
        let line: String = (0..len)
            .map(|_| (0x20 + rng.uniform_usize(0x5f) as u8) as char)
            .collect();
        let err = parse_line(&line).expect_err("oversized must reject");
        assert_eq!(err.kind(), "oversized");
        assert_eq!(parse_frame(&line), Err(err));
    }
}

// ---------------------------------------------------------------------
// End-to-end: a garbage-interleaved stream leaves decisions untouched.
// ---------------------------------------------------------------------

const TENANTS: usize = 2;

fn fuzz_scenario(seed: u64) -> FieldScenario {
    FieldScenario {
        nodes: 16,
        clusters: 2,
        field: 40.0,
        faulty: 4,
        noise_sigma: 1.0,
        loss: 0.0,
        drift_sigma: 0.3,
        reelect_every: 4,
        seed,
    }
}

fn valid_replay(master: u64, ticks: u64, per_tick: u64) -> Vec<String> {
    let streams: Vec<Vec<_>> = (0..TENANTS)
        .map(|t| fuzz_scenario(tenant_seed(master, t)).events((ticks * per_tick) as usize))
        .collect();
    let mut lines = Vec::new();
    for time in 0..ticks {
        for (tenant, stream) in streams.iter().enumerate() {
            for k in 0..per_tick {
                let p = stream[(time * per_tick + k) as usize];
                let seq = time * per_tick + k + 1;
                lines.push(format!("R {tenant} {time} {tenant} {seq} {} {}", p.x, p.y));
            }
        }
        lines.push("T".to_string());
    }
    lines
}

/// True when injecting `line` cannot change any tenant's state: it is
/// either rejected by the parser, rejected at routing (unknown
/// tenant), or a no-op comment/blank.
fn is_effect_free(line: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(line) else {
        return true; // not_utf8 → rejected
    };
    match parse_line(text) {
        Err(_) | Ok(None) => true,
        Ok(Some(Frame::Report(r))) => r.tenant >= TENANTS,
        Ok(Some(Frame::Query(q))) => {
            let t = match q {
                tibfit_daemon::wire::Query::Trust { tenant, .. }
                | tibfit_daemon::wire::Query::Round { tenant } => tenant,
                // A status dump reads state without mutating it.
                tibfit_daemon::wire::Query::Status => return true,
            };
            t >= TENANTS
        }
        Ok(Some(Frame::Tick)) => false,
    }
}

/// True when the daemon counts `line` under `daemon.ingest.rejected`
/// (comments/blanks are effect-free but not rejections).
fn is_counted_reject(line: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(line) else {
        return true;
    };
    match parse_line(text) {
        Err(_) => true,
        Ok(None) => false,
        Ok(Some(Frame::Report(r))) => r.tenant >= TENANTS,
        Ok(Some(Frame::Query(_))) => true, // only injected when tenant is unknown
        Ok(Some(Frame::Tick)) => false,
    }
}

fn garbage_pool(seed: u64) -> Vec<Vec<u8>> {
    let mut pool: Vec<Vec<u8>> = vec![
        b"X 1 2".to_vec(),
        b"R 1 2 3".to_vec(),
        b"R a 0 0 1 1 1".to_vec(),
        b"R 0 0 0 1 NaN 1".to_vec(),
        b"R 0 0 0 1 1 inf".to_vec(),
        b"T extra".to_vec(),
        b"Q votes 0".to_vec(),
        b"Q trust 99 0".to_vec(),
        b"R 99 0 0 1 1.0 1.0".to_vec(),
        vec![0xff, 0xfe, 0x52, 0x20, 0x30],
        format!("R {}", "9".repeat(MAX_LINE_BYTES)).into_bytes(),
        b"# a comment is effect-free but not a rejection".to_vec(),
    ];
    let mut rng = SimRng::seed_from(seed ^ 0x6A5B);
    while pool.len() < 60 {
        let len = 1 + rng.uniform_usize(24);
        let mut line = Vec::with_capacity(len);
        for _ in 0..len {
            line.push(if rng.chance(0.9) {
                0x20 + rng.uniform_usize(0x5f) as u8
            } else {
                0x80 + rng.uniform_usize(0x80) as u8
            });
        }
        if line.contains(&b'\n') {
            continue;
        }
        // A random line that accidentally forms a well-formed frame
        // for a live tenant is simply not injected — the test pins
        // decision-stream identity, so only effect-free lines qualify.
        if is_effect_free(&line) {
            pool.push(line);
        }
    }
    pool
}

fn run_daemon_over(tag: &str, master: u64, stream: &[u8]) -> (DaemonReport, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("tibfit-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DaemonConfig::standard(TENANTS, master, dir.clone());
    cfg.scenario = fuzz_scenario;
    cfg.snapshot_every = 3;
    let mut daemon = Daemon::new(cfg).expect("daemon builds");
    let report = daemon
        .run(Cursor::new(stream.to_vec()))
        .expect("garbage never aborts the daemon");
    let decisions = (0..TENANTS)
        .map(|t| {
            std::fs::read_to_string(dir.join("decisions").join(format!("tenant{t}.log")))
                .expect("decision log exists")
        })
        .collect();
    (report, decisions)
}

#[test]
fn garbage_interleaved_stream_is_rejected_and_decision_neutral() {
    let master = 0xF0_25;
    let valid = valid_replay(master, 10, 3);
    let pool = garbage_pool(master);

    let mut clean: Vec<u8> = Vec::new();
    for line in &valid {
        clean.extend_from_slice(line.as_bytes());
        clean.push(b'\n');
    }

    // Interleave: after every valid line, a seeded chance of one or
    // two garbage lines from the pool.
    let mut rng = SimRng::seed_from(master ^ 0x11);
    let mut dirty: Vec<u8> = Vec::new();
    let mut injected: Vec<&[u8]> = Vec::new();
    for line in &valid {
        dirty.extend_from_slice(line.as_bytes());
        dirty.push(b'\n');
        for _ in 0..rng.uniform_usize(3) {
            let g = &pool[rng.uniform_usize(pool.len())];
            dirty.extend_from_slice(g);
            dirty.push(b'\n');
            injected.push(g);
        }
    }
    assert!(injected.len() > 20, "fuzz stream must actually inject garbage");

    let (clean_report, clean_decisions) = run_daemon_over("clean", master, &clean);
    let (dirty_report, dirty_decisions) = run_daemon_over("dirty", master, &dirty);

    assert_eq!(clean_report.rejected, 0);
    assert_eq!(clean_decisions, dirty_decisions, "garbage must not perturb decisions");
    assert!(!clean_decisions[0].is_empty());

    let expected_rejects = injected.iter().filter(|g| is_counted_reject(g)).count() as u64;
    assert_eq!(dirty_report.rejected, expected_rejects);
    let by_kind_total: u64 = dirty_report.rejected_by_kind.iter().map(|(_, n)| n).sum();
    assert_eq!(by_kind_total, dirty_report.rejected, "breakdown must be complete");
    for kind in ["unknown_tag", "missing_field", "bad_number", "non_finite", "not_utf8"] {
        assert!(
            dirty_report
                .rejected_by_kind
                .iter()
                .any(|(k, n)| k == kind && *n > 0),
            "expected at least one {kind} rejection"
        );
    }
}
