//! The benchmark's workloads: which fields the daemon hosts, the
//! traffic each tick carries, the paced rate, and the decision-log
//! digests the default seed must reproduce.

use std::fmt::Write;

use tibfit_experiments::replay::{tenant_seed, FieldScenario};

/// Fields every daemon workload hosts.
pub const TENANTS: usize = 2;
/// Records the daemon admits per tenant per tick (its default budget).
const BUDGET: u32 = 64;
/// The default `--seed`; the golden digests below hold for it.
pub const DEFAULT_SEED: u64 = 42;
/// The golden decision-log digests cover the first this many ticks.
pub const GOLDEN_TICKS: usize = 16;

/// One daemon traffic shape.
pub struct Workload {
    pub name: &'static str,
    /// Builds each tenant's field from its seed (what the host passes
    /// as `DaemonConfig::scenario`).
    pub scenario: fn(u64) -> FieldScenario,
    /// `R` frames per tenant per tick.
    pub per_tick: u32,
    /// `Q trust` reads per tenant per tick.
    pub trust_reads: u32,
    /// Ticks each host of a measured run is sent: about a third of a
    /// second's work on a 2-core Xeon.
    pub host_ticks: usize,
    /// The traced run's paced rate in ticks per second: fixed, a fifth
    /// to two fifths of the saturated tick rate on a 2-core Xeon.
    pub paced_rate: f64,
    /// FNV-1a of each tenant's first `GOLDEN_TICKS` ticks of decision
    /// lines at `DEFAULT_SEED`.
    pub golden: [u64; TENANTS],
}

/// 4096 nodes, 256 clusters and 1024 liars on a 640 m square: the
/// mobile field's density at 64 times its size.
fn big_field(seed: u64) -> FieldScenario {
    FieldScenario {
        nodes: 4096,
        clusters: 256,
        field: 640.0,
        faulty: 1024,
        ..FieldScenario::mobile(seed)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady",
        scenario: FieldScenario::mobile,
        per_tick: 8,
        trust_reads: 1,
        host_ticks: 800,
        paced_rate: 1000.0,
        golden: [0xdba1_883c_77c5_4225, 0x6ebc_cae8_c869_6e4c],
    },
    Workload {
        name: "sparse",
        scenario: FieldScenario::mobile,
        per_tick: 1,
        trust_reads: 1,
        host_ticks: 1600,
        paced_rate: 1000.0,
        golden: [0x5461_9bff_3f1c_b453, 0xd032_a844_ab8c_aae2],
    },
    Workload {
        name: "flood",
        scenario: FieldScenario::mobile,
        per_tick: 640,
        trust_reads: 1,
        host_ticks: 120,
        paced_rate: 150.0,
        golden: [0x3d42_c7e4_a771_85d1, 0x3d58_470c_0bc7_578c],
    },
    Workload {
        name: "big_field",
        scenario: big_field,
        per_tick: 2,
        trust_reads: 8,
        host_ticks: 100,
        paced_rate: 120.0,
        golden: [0xf103_6a56_91c3_d946, 0x5f0d_ce24_4f09_5cd0],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Records each tenant's tick admits: every offered record is
    /// distinct, so exactly `min(per_tick, BUDGET)`.
    pub fn admitted_per_tick(&self) -> u64 {
        u64::from(self.per_tick.min(BUDGET))
    }
}

/// The frames of a run, one newline-framed block per tick: each
/// tenant's `R` frames, its `Q trust` reads, one `Q round` per tenant,
/// and the `T` that closes the tick.
pub struct Input {
    pub ticks: Vec<Vec<u8>>,
    /// Frames (lines) across all ticks.
    pub frames: u64,
}

/// Builds `ticks` ticks of traffic from `seed`. Tenant `t`'s stimuli
/// are its field's own seeded event stream, keyed `(src = t, seq)` as
/// `tibfit_experiments::replay::replay_records` keys them.
pub fn build_input(w: &Workload, seed: u64, ticks: usize) -> Input {
    let per_tick = w.per_tick as usize;
    let fields: Vec<FieldScenario> = (0..TENANTS)
        .map(|t| (w.scenario)(tenant_seed(seed, t)))
        .collect();
    let streams: Vec<_> = fields.iter().map(|f| f.events(ticks * per_tick)).collect();
    let mut out = Vec::with_capacity(ticks);
    let mut frames = 0u64;
    for k in 0..ticks {
        let mut block = String::new();
        for (t, stream) in streams.iter().enumerate() {
            for j in 0..per_tick {
                let p = stream[k * per_tick + j];
                let seq = k * per_tick + j + 1;
                let _ = writeln!(block, "R {t} {k} {t} {seq} {} {}", p.x, p.y);
            }
            for j in 0..w.trust_reads as usize {
                let node = (k * 7 + j * 131) % fields[t].nodes;
                let _ = writeln!(block, "Q trust {t} {node}");
            }
        }
        for t in 0..TENANTS {
            let _ = writeln!(block, "Q round {t}");
        }
        block.push_str("T\n");
        frames += (TENANTS * (per_tick + w.trust_reads as usize + 1) + 1) as u64;
        out.push(block.into_bytes());
    }
    Input { ticks: out, frames }
}
