//! Socket ingest and the fleet client: the daemon's one network edge.
//!
//! Every socket the daemon reads goes through the bounded, UTF-8
//! checking framer `wire::read_bounded_line` (the router takes a read
//! buffer's complete lines in place with `wire::frame_in_place`, which
//! types them the same), every listener accepts
//! through `accept_polling`, and every fleet-port request/reply goes
//! through [`fleet_call`].
//!
//! [`ListenSource`] accepts one connection at a time and splices
//! consecutive connections into one continuous frame stream — a client
//! that drops and reconnects *resumes the same daemon run*; a line torn
//! by the disconnect ends as its own (rejected) line. Combined with
//! `(src, seq)` dedup, a client that cannot remember where it stopped
//! can simply resend the whole replay: everything already seen is
//! idempotently dropped. [`FanInSource`] merges K *concurrent*
//! connections tick by tick.
//!
//! [`stream_replay`] is the reconnecting client: it connects with
//! seeded, jittered exponential backoff
//! ([`crate::backoff::JitteredBackoff`]) and resends the full file on
//! every (re)connection.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use tibfit_sim::shutdown;
use tibfit_sim::snapshot::{write_framed, FrameError};

use crate::backoff::RetryBudget;
use crate::wire::{read_bounded_line, read_frame, Frame};
use crate::DaemonError;

/// How long the ingest accept loops sleep between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Binds a non-blocking listener for [`accept_polling`].
pub(crate) fn bind_polling(addr: impl ToSocketAddrs) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true).map(|()| listener)
}

/// The one accept loop: polls `listener` (bound by [`bind_polling`],
/// so it is non-blocking) every `poll` until a connection arrives,
/// returned in blocking mode, or `stop` holds (`Ok(None)`). An accept
/// error goes to `on_error`: returning it ends the loop with that
/// error, `Ok(())` keeps polling.
pub(crate) fn accept_polling(
    listener: &TcpListener,
    poll: Duration,
    mut stop: impl FnMut() -> bool,
    on_error: impl Fn(io::Error) -> io::Result<()>,
) -> io::Result<Option<TcpStream>> {
    while !stop() {
        match listener
            .accept()
            .and_then(|(stream, _)| stream.set_nonblocking(false).map(|()| stream))
        {
            Ok(stream) => return Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => on_error(e)?,
        }
        std::thread::sleep(poll);
    }
    Ok(None)
}

/// `Read` through a source's `fill_buf`/`consume`, so each source
/// writes its connection handling once.
fn read_buffered(source: &mut impl BufRead, buf: &mut [u8]) -> io::Result<usize> {
    let available = source.fill_buf()?;
    let n = available.len().min(buf.len());
    buf[..n].copy_from_slice(&available[..n]);
    source.consume(n);
    Ok(n)
}

/// A `BufRead` over consecutive TCP connections: EOF on one connection
/// rolls over to accepting the next, until the connection budget is
/// exhausted or shutdown is requested.
pub struct ListenSource {
    listener: TcpListener,
    conn: Option<io::BufReader<TcpStream>>,
    remaining_conns: Option<u32>,
    /// Owed if the connection ends now: [`TORN_END`] after a consumed
    /// byte that is not a newline (or what is left of it once owed).
    torn_end: &'static [u8],
}

/// Ends a line torn by a disconnect as its own line, rejected
/// `not_utf8` even where the fragment alone would parse (`7.1` cut from
/// `7.125`).
const TORN_END: &[u8] = b"\xff\n";

impl ListenSource {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and returns the source.
    /// `max_conns` bounds how many connections are accepted before the
    /// stream reports EOF — `None` keeps accepting until a shutdown
    /// signal.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] if binding fails.
    pub fn bind(addr: &str, max_conns: Option<u32>) -> Result<Self, DaemonError> {
        Ok(ListenSource {
            listener: bind_polling(addr).map_err(DaemonError::Io)?,
            conn: None,
            remaining_conns: max_conns,
            torn_end: &[],
        })
    }

    /// The bound address (port 0 resolves here).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] if the socket is unusable.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, DaemonError> {
        self.listener.local_addr().map_err(DaemonError::Io)
    }
}

impl Read for ListenSource {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        read_buffered(self, buf)
    }
}

impl BufRead for ListenSource {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        loop {
            if let Some(conn) = self.conn.as_mut() {
                if !conn.fill_buf()?.is_empty() {
                    break;
                }
                self.conn = None;
            } else if !self.torn_end.is_empty() {
                return Ok(self.torn_end);
            } else {
                let spent = || shutdown::requested() || self.remaining_conns == Some(0);
                let Some(stream) = accept_polling(&self.listener, ACCEPT_POLL, spent, Err)? else {
                    return Ok(&[]);
                };
                if let Some(n) = self.remaining_conns.as_mut() {
                    *n -= 1;
                }
                self.conn = Some(io::BufReader::new(stream));
            }
        }
        self.conn.as_mut().expect("connection present").fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        if amt == 0 {
            return;
        }
        match self.conn.as_mut() {
            Some(conn) => {
                self.torn_end = match conn.buffer().get(amt - 1) {
                    Some(&b) if b != b'\n' => TORN_END,
                    _ => &[],
                };
                conn.consume(amt);
            }
            None => self.torn_end = &self.torn_end[amt.min(self.torn_end.len())..],
        }
    }
}

/// Per-connection merge state for [`FanInSource`].
#[derive(Default)]
struct FanConn {
    /// Tick segments sealed by a `T` line, awaiting the merge barrier.
    segments: VecDeque<Vec<Vec<u8>>>,
    /// Raw lines of the connection's current (open) tick.
    current: Vec<Vec<u8>>,
    /// The connection reached EOF.
    done: bool,
}

struct FanState {
    conns: Vec<FanConn>,
}

type FanShared = (Mutex<FanState>, Condvar);

fn lock_fan(shared: &FanShared) -> std::sync::MutexGuard<'_, FanState> {
    shared.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `BufRead` over *concurrent* TCP connections carrying one logical
/// report stream split across senders.
///
/// Every connection gets its own reader thread and its own
/// `(time, src, seq)` highwater per `(tenant, src)` — a sender that
/// resends (reconnect recovery, overlap at a split point) has its
/// stale lines dropped before they ever reach the merge. Tick (`T`)
/// lines act as the merge barrier: tick `k` is released downstream
/// only once every participating connection has sealed its `k`-th
/// segment, so the daemon admits exactly the same per-tick report sets
/// as it would from the unsplit stream — and admission itself is
/// arrival-order-independent, which makes the merged decisions
/// deterministic. Queries and malformed lines (non-UTF-8 and oversized
/// ones included) are forwarded as the framer kept them, so the daemon
/// counts the same rejections it would on the unsplit stream.
///
/// The discipline senders must follow: each connection carries a
/// subset of the `R` lines of every tick and **all** of the `T`
/// lines. (A connection may close early; it simply stops participating
/// in the barrier once its sealed segments are consumed.)
pub struct FanInSource {
    listener: Option<TcpListener>,
    want_conns: u32,
    shared: Arc<FanShared>,
    threads: Vec<JoinHandle<()>>,
    out: Vec<u8>,
    pos: usize,
}

impl FanInSource {
    /// Binds `addr` and prepares to merge exactly `conns` concurrent
    /// connections. Accepting is lazy: the first read waits
    /// (shutdown-aware) until all `conns` senders have connected.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] if binding fails.
    pub fn bind(addr: &str, conns: u32) -> Result<Self, DaemonError> {
        Ok(FanInSource {
            listener: Some(bind_polling(addr).map_err(DaemonError::Io)?),
            want_conns: conns.max(1),
            shared: Arc::new((Mutex::new(FanState { conns: Vec::new() }), Condvar::new())),
            threads: Vec::new(),
            out: Vec::new(),
            pos: 0,
        })
    }

    /// The bound address (port 0 resolves here).
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] if the socket is unusable.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, DaemonError> {
        self.listener
            .as_ref()
            .expect("local_addr before the first read")
            .local_addr()
            .map_err(DaemonError::Io)
    }

    fn accept_all(&mut self) -> io::Result<()> {
        let Some(listener) = self.listener.take() else {
            return Ok(());
        };
        while self.threads.len() < self.want_conns as usize {
            let Some(stream) = accept_polling(&listener, ACCEPT_POLL, shutdown::requested, Err)?
            else {
                // Shutdown: mark the missing slots done so the merge
                // terminates.
                let mut st = lock_fan(&self.shared);
                st.conns.resize_with(self.want_conns as usize, || FanConn {
                    done: true,
                    ..FanConn::default()
                });
                return Ok(());
            };
            let idx = {
                let mut st = lock_fan(&self.shared);
                st.conns.push(FanConn::default());
                st.conns.len() - 1
            };
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("tibfit-fanin-{idx}"))
                .spawn(move || fan_conn_reader(idx, stream, &shared))
                .expect("spawning a fan-in reader thread");
            self.threads.push(handle);
        }
        Ok(())
    }

    /// Assembles the next released batch of lines: one full tick
    /// segment (`R` lines of tick `k` from every connection, then one
    /// `T`), or the trailing un-ticked lines once every connection has
    /// finished. Empty means EOF.
    fn next_batch(&mut self) -> io::Result<Vec<Vec<u8>>> {
        self.accept_all()?;
        let shared = Arc::clone(&self.shared);
        let (_, cvar) = &*shared;
        let mut st = lock_fan(&shared);
        loop {
            if shutdown::requested() {
                return Ok(Vec::new());
            }
            if st.conns.iter().all(|c| c.done && c.segments.is_empty()) {
                // Trailing lines after the final tick, then EOF.
                return Ok(st
                    .conns
                    .iter_mut()
                    .flat_map(|c| std::mem::take(&mut c.current))
                    .collect());
            }
            // Barrier: every connection still sending has sealed a
            // segment (and, by the check above, some connection has one).
            if st.conns.iter().all(|c| c.done || !c.segments.is_empty()) {
                let mut batch: Vec<Vec<u8>> = st
                    .conns
                    .iter_mut()
                    .filter_map(|c| c.segments.pop_front())
                    .flatten()
                    .collect();
                batch.push(b"T".to_vec());
                return Ok(batch);
            }
            let (guard, _timeout) = cvar
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    fn join_threads(&mut self) {
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

fn fan_conn_reader(idx: usize, stream: TcpStream, shared: &FanShared) {
    let mut reader = io::BufReader::new(stream);
    // Per-connection dedup window: the newest (time, seq) seen per
    // (tenant, src) on *this* connection.
    let mut highwater: HashMap<(usize, u64), (u64, u64)> = HashMap::new();
    let (_, cvar) = shared;
    let mut raw = Vec::new();
    // A read error ends the connection's ingest like EOF does.
    while let Ok(Some(parsed)) = read_frame(&mut reader, &mut raw) {
        match &parsed {
            Ok(None) => continue,
            Ok(Some(Frame::Report(r))) => {
                let key = (r.tenant, r.src);
                if highwater
                    .get(&key)
                    .is_some_and(|&newest| (r.time, r.seq) <= newest)
                {
                    continue;
                }
                highwater.insert(key, (r.time, r.seq));
            }
            // Queries and bad lines pass through; the daemon's own
            // parser counts and rejects them.
            Ok(Some(Frame::Tick | Frame::Query(_))) | Err(_) => {}
        }
        let mut st = lock_fan(shared);
        let conn = &mut st.conns[idx];
        if parsed == Ok(Some(Frame::Tick)) {
            let segment = std::mem::take(&mut conn.current);
            conn.segments.push_back(segment);
        } else {
            conn.current.push(raw.clone());
        }
        drop(st);
        cvar.notify_all();
    }
    let mut st = lock_fan(shared);
    st.conns[idx].done = true;
    drop(st);
    cvar.notify_all();
}

impl Read for FanInSource {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        read_buffered(self, buf)
    }
}

impl BufRead for FanInSource {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.out.len() {
            self.pos = 0;
            self.out.clear();
            let batch = self.next_batch()?;
            if batch.is_empty() {
                self.join_threads();
                return Ok(&[]);
            }
            for line in batch {
                self.out.extend_from_slice(&line);
                self.out.push(b'\n');
            }
        }
        Ok(&self.out[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.out.len());
    }
}

/// The one fleet-port client: connects to `addr` within `timeout`,
/// sends `command` as one line plus an optional framed `payload`
/// (`write_framed`), and returns the reply lines read until the server
/// closes — every fleet-port reply ends with a close. `timeout` also
/// bounds each read and write.
///
/// # Errors
///
/// Any connect, write or read failure, or a timeout; a reply line the
/// framer rejects (not UTF-8, oversized) is
/// [`io::ErrorKind::InvalidData`].
pub fn fleet_call(
    addr: &str,
    command: &str,
    payload: Option<&[u8]>,
    timeout: Duration,
) -> io::Result<Vec<String>> {
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: no address"));
    let stream = addr
        .to_socket_addrs()?
        .find_map(|sock| {
            TcpStream::connect_timeout(&sock, timeout)
                .map_err(|e| last = e)
                .ok()
        })
        .ok_or(last)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut writer = io::BufWriter::new(&stream);
    writeln!(writer, "{command}")?;
    match payload {
        Some(bytes) => write_framed(&mut writer, bytes).map_err(|e| match e {
            FrameError::Io(e) => e,
            other => io::Error::other(other),
        })?,
        None => writer.flush()?,
    }
    drop(writer);
    let mut reader = io::BufReader::new(&stream);
    let mut raw = Vec::new();
    let mut lines = Vec::new();
    while let Some(line) = read_bounded_line(&mut reader, &mut raw)? {
        let line = line.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        lines.push(line.to_string());
    }
    Ok(lines)
}

/// Outcome of [`stream_replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Connections established (1 = no reconnects needed).
    pub connections: u32,
    /// Lines sent across all connections (resends included).
    pub lines_sent: u64,
}

/// How much total delay a replay stream may accumulate before giving
/// up, when the caller does not pick its own bound.
pub const DEFAULT_STREAM_DEADLINE_MS: u64 = 30_000;

/// Streams a replay file to `addr`, reconnecting with budgeted
/// jittered backoff on connect failure or mid-stream disconnect,
/// resending the whole file each time (the daemon's dedup makes
/// resends idempotent). `drop_after_lines` force-closes the first
/// connection after that many lines — the test hook proving
/// reconnect-and-resend safety.
///
/// Every retry, a mid-stream disconnect included, debits one
/// total-deadline budget of `deadline_ms`; when it runs dry the caller
/// gets a typed [`DaemonError::RetryExhausted`] instead of a hang.
///
/// # Errors
///
/// [`DaemonError::Io`] after `max_attempts` consecutive failed
/// connection attempts or an unreadable replay file;
/// [`DaemonError::RetryExhausted`] once `deadline_ms` of retry delay
/// has been spent.
pub fn stream_replay(
    addr: &str,
    replay: &Path,
    retry_seed: u64,
    max_attempts: u32,
    drop_after_lines: Option<u64>,
    deadline_ms: u64,
) -> Result<StreamOutcome, DaemonError> {
    let text = std::fs::read_to_string(replay).map_err(DaemonError::Io)?;
    let mut budget = RetryBudget::new(retry_seed, 5, 500, deadline_ms);
    let mut failures = 0u32;
    let mut outcome = StreamOutcome {
        connections: 0,
        lines_sent: 0,
    };
    loop {
        match TcpStream::connect(addr) {
            Err(e) => {
                failures += 1;
                if failures >= max_attempts {
                    return Err(DaemonError::Io(e));
                }
            }
            Ok(stream) => {
                failures = 0;
                budget.reset_curve();
                outcome.connections += 1;
                let limit = drop_after_lines.filter(|_| outcome.connections == 1);
                let mut writer = io::BufWriter::new(stream);
                let whole = (0u64..).zip(text.lines()).all(|(sent, line)| {
                    let ok = limit.is_none_or(|limit| sent < limit)
                        && writeln!(writer, "{line}").is_ok();
                    outcome.lines_sent += u64::from(ok);
                    ok
                });
                if writer.flush().is_ok() && whole {
                    return Ok(outcome);
                }
                // Dropped mid-stream (or we forced it): reconnect and
                // resend from the top — on the same deadline budget.
            }
        }
        match budget.try_next_delay() {
            Ok(delay) => std::thread::sleep(delay),
            Err(spent) => return Err(DaemonError::RetryExhausted(spent)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line the framer yields; a rejected one as `!<kind>`.
    fn read_all_lines(source: &mut impl BufRead) -> Vec<String> {
        let mut raw = Vec::new();
        let mut lines = Vec::new();
        while let Some(line) = read_bounded_line(source, &mut raw).unwrap() {
            lines.push(line.map_or_else(|e| format!("!{}", e.kind()), str::to_string));
        }
        lines
    }

    #[test]
    fn listen_source_splices_two_connections() {
        let mut source = ListenSource::bind("127.0.0.1:0", Some(2)).unwrap();
        let addr = source.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            for chunk in ["alpha\nbra", "vo\nlast\n"] {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(chunk.as_bytes()).unwrap();
            }
        });
        let lines = read_all_lines(&mut source);
        sender.join().unwrap();
        // The first connection ends mid-line: its torn "bra" is ended
        // as a line of its own, marked so it cannot parse, instead of
        // gluing onto the second connection's "vo".
        assert_eq!(lines, ["alpha", "!not_utf8", "vo", "last"]);
    }

    #[test]
    fn stream_replay_resends_after_forced_drop() {
        let dir = std::env::temp_dir().join(format!("tibfit-netio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("stream.replay");
        std::fs::write(&file, "R 0 0 0 1 1 1\nT\nR 0 1 0 2 2 2\nT\n").unwrap();
        let mut source = ListenSource::bind("127.0.0.1:0", Some(2)).unwrap();
        let addr = source.local_addr().unwrap().to_string();
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            source.read_to_string(&mut text).unwrap();
            text
        });
        let outcome =
            stream_replay(&addr, &file, 7, 5, Some(1), DEFAULT_STREAM_DEADLINE_MS).unwrap();
        assert_eq!(outcome.connections, 2);
        assert_eq!(outcome.lines_sent, 1 + 4);
        let text = reader.join().unwrap();
        assert!(text.contains("R 0 1 0 2 2 2"));
    }

    #[test]
    fn unreachable_address_errors_after_max_attempts() {
        let dir = std::env::temp_dir().join(format!("tibfit-netio-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("noop.replay");
        std::fs::write(&file, "T\n").unwrap();
        // Port 1 on localhost: connection refused.
        let err = stream_replay("127.0.0.1:1", &file, 3, 2, None, DEFAULT_STREAM_DEADLINE_MS);
        assert!(err.is_err());
    }

    #[test]
    fn fan_in_merges_split_streams_tick_by_tick() {
        let mut source = FanInSource::bind("127.0.0.1:0", 3).unwrap();
        let addr = source.local_addr().unwrap();
        // The same 2-tick stream split across three connections: each
        // carries a disjoint R subset of every tick plus all T lines.
        const SPLITS: [&str; 3] = [
            "R 0 0 0 1 1.0 1.0\nT\nR 0 3 0 2 1.0 1.0\nT\n",
            "R 0 1 0 1 2.0 2.0\nT\nT\n",
            "R 0 2 0 1 3.0 3.0\nT\nR 0 4 0 2 4.0 4.0\nT\n",
        ];
        let senders: Vec<_> = SPLITS
            .iter()
            .map(|chunk| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.write_all(chunk.as_bytes()).unwrap();
                })
            })
            .collect();
        let lines = read_all_lines(&mut source);
        for sender in senders {
            sender.join().unwrap();
        }
        let tick_positions: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.as_str() == "T")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(tick_positions.len(), 2, "both ticks released: {lines:?}");
        // Tick 1's three reports all precede the first T; tick 2's two
        // reports sit between the two Ts.
        let first: Vec<&String> = lines[..tick_positions[0]].iter().collect();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|l| l.contains(" 0 1 ")));
        let second: Vec<&String> = lines[tick_positions[0] + 1..tick_positions[1]]
            .iter()
            .collect();
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|l| l.contains(" 0 2 ")));
    }

    #[test]
    fn fan_in_connection_highwater_drops_stale_resends() {
        let mut source = FanInSource::bind("127.0.0.1:0", 1).unwrap();
        let addr = source.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The second and third lines are a duplicate and a stale
            // (time, seq) regression for the same (tenant, src=5); the
            // fourth advances and must pass.
            s.write_all(
                b"R 0 0 5 3 1.0 1.0\nR 0 0 5 3 1.0 1.0\nR 0 0 5 2 1.0 1.0\nR 0 1 5 4 1.0 1.0\nT\n",
            )
            .unwrap();
        });
        let lines = read_all_lines(&mut source);
        sender.join().unwrap();
        assert_eq!(
            lines,
            vec![
                "R 0 0 5 3 1.0 1.0".to_string(),
                "R 0 1 5 4 1.0 1.0".to_string(),
                "T".to_string()
            ]
        );
    }

    #[test]
    fn deadline_budget_turns_endless_retry_into_typed_error() {
        let dir = std::env::temp_dir().join(format!("tibfit-netio-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("budget.replay");
        std::fs::write(&file, "T\n").unwrap();
        // Unreachable address, generous attempt count, zero budget:
        // the first retry request exhausts the deadline.
        match stream_replay("127.0.0.1:1", &file, 3, 100, None, 0) {
            Err(DaemonError::RetryExhausted(e)) => {
                assert_eq!(e.budget_ms, 0);
                assert_eq!(e.spent_ms, 0);
            }
            other => panic!("expected RetryExhausted, got {other:?}"),
        }
    }
}
