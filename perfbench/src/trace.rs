//! The traced run: the daemon's per-tenant work replayed on one thread,
//! in process, through the same public functions in the same order —
//! `wire::parse_line`, `SharedQueue::{offer, end_tick, pop,
//! complete_tick, snapshot_view, commit_snapshot}`, `PositionView::
//! impact_of`, `Tenant::{apply_into, trust_of}`, the `state` encoders —
//! with a span around each call.
//!
//! A span's self time is its duration minus the spans inside it. The
//! engine's share of `Tenant::apply_into` comes from a shadow
//! `FieldScenario::sequential()` engine fed the same stimuli in
//! lockstep; its trust vector must equal the tenant's, bit for bit, at
//! the end.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use tibfit_daemon::queue::{QueueStats, SharedQueue, WorkItem};
use tibfit_daemon::state::{
    decision_log_path, encode_tenant_state, read_tenant_state, tenant_state_path,
    truncate_decision_log, write_tenant_state,
};
use tibfit_daemon::tenant::{EngineKind, PositionView, Tenant};
use tibfit_daemon::wire::{parse_line, Frame, Query};
use tibfit_daemon::DaemonConfig;
use tibfit_experiments::multicluster::MultiClusterSim;
use tibfit_experiments::replay::tenant_seed;
use tibfit_net::geometry::Point;

use crate::stats::{fnv1a, Fnv};
use crate::workload::{Input, Workload, TENANTS};

/// Spans of the first this many ticks are kept for `trace.json`; every
/// span feeds the per-name totals.
const DUMP_TICKS: u32 = 4;

/// The root span of each tick. Its self time is the replay's own glue.
const ROOT: &str = "tick";
/// Spans of the shadow engine: measurement, not the daemon's work.
const SHADOW_PREFIX: &str = "multicluster.";

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call, in nanoseconds.
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    tick: u32,
}

struct Open {
    start_ns: u64,
    child_ns: u64,
    dumped: Option<usize>,
}

/// In-memory span recorder; a disabled tracer runs the closures bare.
pub struct Tracer {
    on: bool,
    t0: Instant,
    tick: Cell<u32>,
    stack: RefCell<Vec<Open>>,
    totals: RefCell<Vec<(&'static str, Totals)>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            tick: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            totals: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let tick = self.tick.get();
        let start_ns = self.now_ns();
        {
            let mut stack = self.stack.borrow_mut();
            let dumped = (tick < DUMP_TICKS).then(|| {
                let mut spans = self.spans.borrow_mut();
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent: stack.last().and_then(|o| o.dumped),
                    tick,
                });
                spans.len() - 1
            });
            stack.push(Open {
                start_ns,
                child_ns: 0,
                dumped,
            });
        }
        let out = f();
        let end_ns = self.now_ns();
        let mut stack = self.stack.borrow_mut();
        let open = stack.pop().expect("every span is closed once");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.dumped {
            self.spans.borrow_mut()[i].end_ns = end_ns;
        }
        let mut totals = self.totals.borrow_mut();
        let i = match totals.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                totals.push((name, Totals::default()));
                totals.len() - 1
            }
        };
        let t = &mut totals[i].1;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - open.child_ns;
        out
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .borrow()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Self time of every span outside the roots and the shadow engine
    /// over the wall time the shadow engine did not take.
    pub fn coverage(&self, wall: Duration) -> f64 {
        let totals = self.totals.borrow();
        let layer_self: u64 = totals
            .iter()
            .filter(|(n, _)| *n != ROOT && !n.starts_with(SHADOW_PREFIX))
            .map(|(_, t)| t.self_ns)
            .sum();
        layer_self as f64 / (wall.as_nanos() as f64 - self.shadow_ns() as f64)
    }

    pub fn shadow_ns(&self) -> u64 {
        self.totals
            .borrow()
            .iter()
            .filter(|(n, _)| n.starts_with(SHADOW_PREFIX))
            .map(|(_, t)| t.total_ns)
            .sum()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the
    /// kept spans, plus the per-name totals of all of them.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let (ts, dur) = (
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts},\"dur\":{dur},\"args\":{{\"id\":{i},\"parent\":{parent},\"tick\":{}}}}}",
                s.name, s.tick
            );
        }
        out.push_str("\n],\"totals\":{");
        for (i, (name, t)) in self.totals.borrow().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        out.push_str("\n}}\n");
        out
    }
}

/// The shadow engine and its reusable view buffers.
struct Shadow {
    engine: Box<MultiClusterSim>,
    positions: Vec<(u64, u64)>,
    trust: Vec<u64>,
}

/// One tenant as its worker sees it, plus the shadow engine.
struct Slot {
    id: usize,
    tenant: Tenant,
    queue: SharedQueue,
    positions: std::sync::Arc<PositionView>,
    log: BufWriter<File>,
    lines: String,
    shadow: Option<Shadow>,
    trust_answers: Fnv,
}

/// What a replay produced.
pub struct Replay {
    pub wall: Duration,
    /// FNV-1a of each tenant's decision log.
    pub logs: [u64; TENANTS],
    /// FNV-1a of each tenant's `A trust` answers, as the host prints them.
    pub trust_answers: [u64; TENANTS],
    pub stats: QueueStats,
    pub snapshot_bytes: Vec<usize>,
    pub failures: Vec<String>,
}

struct Run<'a> {
    w: &'a Workload,
    cfg: DaemonConfig,
    tracer: &'a Tracer,
    snapshot_bytes: Vec<usize>,
    failures: Vec<String>,
}

impl Run<'_> {
    fn snapshot(&mut self, slot: &Slot) -> Result<(), String> {
        let tr = self.tracer;
        let (highwater, stats) = tr.span("queue.snapshot_view", || slot.queue.snapshot_view());
        let bytes = tr
            .span("state.encode", || {
                encode_tenant_state(&slot.tenant, &highwater, stats)
            })
            .map_err(|e| e.to_string())?;
        self.snapshot_bytes.push(bytes.len());
        let path = tenant_state_path(&self.cfg.state_dir, slot.id);
        tr.span("state.write", || {
            slot.queue
                .commit_snapshot(0, || write_tenant_state(&path, &bytes))
        })
        .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// The router's `end_tick` for one tenant, then its worker's drain
    /// of the admitted batch.
    fn close_tick(&mut self, slot: &mut Slot, tick: u64) -> Result<(), String> {
        let tr = self.tracer;
        let positions = &slot.positions;
        tr.span("queue.end_tick", || {
            slot.queue.end_tick(tick, |r| {
                tr.span("tenant.impact", || positions.impact_of(r.x, r.y))
            })
        });
        loop {
            let item = tr
                .span("queue.pop", || slot.queue.pop(0))
                .ok_or("queue closed mid-tick")?;
            match item {
                WorkItem::Record(r) => {
                    tr.span("tenant.apply", || {
                        slot.tenant.apply_into(&r, &mut slot.lines)
                    });
                    slot.lines.push('\n');
                    if let Some(sh) = slot.shadow.as_mut() {
                        tr.span("multicluster.run_event", || {
                            sh.engine.run_event(Point::new(r.x, r.y))
                        });
                        tr.span("multicluster.views", || {
                            sh.engine.position_snapshot_into(&mut sh.positions);
                            sh.engine.trust_snapshot_into(&mut sh.trust);
                        });
                    }
                }
                WorkItem::Query(Query::Round { tenant }) => {
                    let expected = tick * self.w.admitted_per_tick();
                    if slot.tenant.round() != expected {
                        self.failures.push(format!(
                            "tenant {tenant} tick {tick}: round {} != {expected}",
                            slot.tenant.round()
                        ));
                    }
                }
                WorkItem::Query(Query::Trust { tenant, node }) => {
                    let v = tr.span("tenant.trust_of", || slot.tenant.trust_of(node));
                    let line = match v {
                        Some(v) => format!("A trust {tenant} {node} {v}"),
                        None => format!("A trust {tenant} {node} -"),
                    };
                    slot.trust_answers.update(line.as_bytes());
                }
                WorkItem::Query(Query::Status) | WorkItem::Shutdown => {
                    return Err("unexpected work item".into());
                }
                WorkItem::TickEnd(t) => {
                    tr.span("sink.write", || {
                        slot.log.write_all(slot.lines.as_bytes())?;
                        slot.log.flush()
                    })
                    .map_err(|e| e.to_string())?;
                    slot.lines.clear();
                    if t % self.cfg.snapshot_every == 0 {
                        self.snapshot(slot)?;
                    }
                    tr.span("queue.complete_tick", || slot.queue.complete_tick(0, t));
                    return Ok(());
                }
            }
        }
    }
}

/// Replays `input` as the daemon would serve it on a fresh state dir,
/// tracing when `tracer` is on (and only then running the shadow).
pub fn replay(
    w: &Workload,
    seed: u64,
    input: &Input,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = DaemonConfig::standard(TENANTS, seed, dir.to_path_buf());
    std::fs::create_dir_all(&cfg.decisions_dir).map_err(|e| e.to_string())?;
    let mut slots = Vec::with_capacity(TENANTS);
    for id in 0..TENANTS {
        let scenario = (w.scenario)(tenant_seed(seed, id));
        let shadow = if tracer.on {
            let engine = scenario.sequential().map_err(|e| e.to_string())?;
            Some(Shadow {
                engine: Box::new(engine),
                positions: Vec::new(),
                trust: Vec::new(),
            })
        } else {
            None
        };
        let tenant = Tenant::new(id, scenario, EngineKind::Sequential, cfg.threads)
            .map_err(|e| e.to_string())?;
        let log =
            File::create(decision_log_path(&cfg.decisions_dir, id)).map_err(|e| e.to_string())?;
        slots.push(Slot {
            id,
            positions: tenant.positions(),
            tenant,
            queue: SharedQueue::new(cfg.queue),
            log: BufWriter::new(log),
            lines: String::new(),
            shadow,
            trust_answers: Fnv::default(),
        });
    }
    let mut run = Run {
        w,
        cfg,
        tracer,
        snapshot_bytes: Vec::new(),
        failures: Vec::new(),
    };
    let start = Instant::now();
    let mut tick = 0u64;
    for block in &input.ticks {
        tracer.tick.set(u32::try_from(tick).unwrap_or(u32::MAX));
        tracer.span(ROOT, || -> Result<(), String> {
            for line in block.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
                let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
                match tracer.span("wire.parse", || parse_line(text)) {
                    Ok(Some(Frame::Report(r))) => {
                        let slot = &slots[r.tenant];
                        tracer.span("queue.offer", || slot.queue.offer(r));
                    }
                    Ok(Some(Frame::Query(
                        q @ (Query::Round { tenant } | Query::Trust { tenant, .. }),
                    ))) => {
                        slots[tenant].queue.offer_query(q);
                    }
                    Ok(Some(Frame::Tick)) => {
                        tick += 1;
                        for slot in &mut slots {
                            run.close_tick(slot, tick)?;
                        }
                    }
                    other => return Err(format!("unexpected frame {other:?}")),
                }
            }
            Ok(())
        })?;
    }
    // The daemon's end of stream: one last (empty) tick, then every
    // worker's final snapshot.
    tick += 1;
    tracer.tick.set(u32::try_from(tick).unwrap_or(u32::MAX));
    tracer.span(ROOT, || -> Result<(), String> {
        for slot in &mut slots {
            run.close_tick(slot, tick)?;
            run.snapshot(slot)?;
        }
        Ok(())
    })?;
    // What a restart does to each tenant.
    for slot in &slots {
        let path = tenant_state_path(&run.cfg.state_dir, slot.id);
        let state = tracer
            .span("state.read", || read_tenant_state(&path))
            .map_err(|e| e.to_string())?
            .ok_or("the final snapshot is missing")?;
        let log_path = decision_log_path(&run.cfg.decisions_dir, slot.id);
        tracer
            .span("state.truncate_log", || {
                truncate_decision_log(&log_path, state.round)
            })
            .map_err(|e| e.to_string())?;
        let scenario = (w.scenario)(tenant_seed(seed, slot.id));
        let restored = tracer
            .span("tenant.from_blob", || {
                Tenant::from_blob(slot.id, scenario, state.kind, run.cfg.threads, &state.blob)
            })
            .map_err(|e| e.to_string())?;
        if restored.trust_digest() != slot.tenant.trust_digest() {
            run.failures
                .push(format!("tenant {}: restored trust differs", slot.id));
        }
    }
    let wall = start.elapsed();

    let mut out = Replay {
        wall,
        logs: [0; TENANTS],
        trust_answers: [0; TENANTS],
        stats: QueueStats::default(),
        snapshot_bytes: run.snapshot_bytes,
        failures: run.failures,
    };
    for (t, slot) in slots.iter().enumerate() {
        if let Some(sh) = &slot.shadow {
            let same = sh
                .engine
                .trust_snapshot()
                .iter()
                .enumerate()
                .all(|(node, &bits)| slot.tenant.trust_of(node).map(f64::to_bits) == Some(bits));
            if !same {
                out.failures
                    .push(format!("tenant {t}: shadow engine trust differs"));
            }
        }
        let log = std::fs::read(decision_log_path(&run.cfg.decisions_dir, t))
            .map_err(|e| e.to_string())?;
        out.logs[t] = fnv1a(&log);
        out.trust_answers[t] = slot.trust_answers.finish();
        let s = slot.queue.stats();
        out.stats.admitted += s.admitted;
        out.stats.shed_budget += s.shed_budget;
        out.stats.shed_overflow += s.shed_overflow;
        out.stats.duplicates += s.duplicates;
    }
    Ok(out)
}
