//! The three workloads and the inputs they generate from a seed.

use senseaid_device::Sensor;
use senseaid_serve::WireTaskSpec;
use senseaid_sim::SimRng;

use crate::client::campus;

/// One named traffic mix against one server configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Enrolled devices, split evenly over the connections.
    pub devices: usize,
    /// Extra identities that Register/Deregister in turn.
    pub churn_devices: usize,
    /// Share of steady requests that are churn.
    pub churn: f64,
    /// Arm the WAL (and make set-up a restart over it).
    pub wal: bool,
    pub tasks: TaskMix,
    /// Fixed offered rates, requests/s over all connections.
    pub light_rps: f64,
    pub busy_rps: f64,
}

/// The periodic barometer tasks a workload submits at set-up. Periods
/// and densities are spread evenly over their ranges (task `k` of `n`
/// sits at `k / n`), so the schedule's shape is the same for every seed;
/// the seed places the regions.
#[derive(Debug, Clone, Copy)]
pub struct TaskMix {
    pub count: usize,
    pub period_ms: (u64, u64),
    pub radius_m: (f64, f64),
    /// Task centres lie within this distance of the campus centre.
    pub spread_m: f64,
    pub density: (u32, u32),
}

/// No tasks at all: the transport workloads leave the coordinator idle.
const NO_TASKS: TaskMix = TaskMix {
    count: 0,
    period_ms: (0, 0),
    radius_m: (0.0, 0.0),
    spread_m: 0.0,
    density: (0, 0),
};

pub fn by_name(name: &str) -> Option<Workload> {
    let uplink = Workload {
        name: "uplink_chatter",
        devices: 2_000,
        churn_devices: 0,
        churn: 0.0,
        wal: false,
        tasks: NO_TASKS,
        light_rps: 5_000.0,
        busy_rps: 20_000.0,
    };
    match name {
        "uplink_chatter" => Some(uplink),
        "durable_churn" => Some(Workload {
            name: "durable_churn",
            churn_devices: 400,
            churn: 0.10,
            wal: true,
            ..uplink
        }),
        "campaign_polls" => Some(Workload {
            name: "campaign_polls",
            devices: 20_000,
            churn_devices: 0,
            churn: 0.0,
            wal: false,
            tasks: TaskMix {
                count: 256,
                period_ms: (500, 990),
                radius_m: (40.0, 100.0),
                spread_m: 500.0,
                density: (1, 2),
            },
            light_rps: 2_000.0,
            busy_rps: 5_000.0,
        }),
        _ => None,
    }
}

pub const NAMES: [&str; 3] = ["uplink_chatter", "durable_churn", "campaign_polls"];

/// Population identities; churn identities live in a disjoint range.
pub fn device_imei(i: usize) -> u64 {
    0x5A1D_0000_0000 + i as u64
}

pub fn churn_imei(i: usize) -> u64 {
    0x5A1D_1000_0000 + i as u64
}

/// The workload's task specs, each lasting `duration_us`.
pub fn tasks(mix: &TaskMix, seed: u64, duration_us: u64) -> Vec<WireTaskSpec> {
    let mut rng = SimRng::from_seed_label(seed, "edgebench/tasks");
    let even = |k: usize, (lo, hi): (u64, u64)| lo + (hi - lo + 1) * k as u64 / mix.count as u64;
    let span = |rng: &mut SimRng, lo: f64, hi: f64| {
        if hi > lo {
            rng.uniform_range(lo, hi)
        } else {
            lo
        }
    };
    (0..mix.count)
        .map(|k| {
            let centre = campus().offset_by_meters(
                span(&mut rng, -mix.spread_m, mix.spread_m),
                span(&mut rng, -mix.spread_m, mix.spread_m),
            );
            let period_ms = even(k, mix.period_ms);
            WireTaskSpec {
                sensor: Sensor::Barometer,
                centre_lat: centre.lat_deg(),
                centre_lon: centre.lon_deg(),
                radius_m: span(&mut rng, mix.radius_m.0, mix.radius_m.1),
                spatial_density: even(k, (mix.density.0.into(), mix.density.1.into())) as u32,
                one_shot: false,
                period_us: period_ms * 1_000,
                duration_us,
            }
        })
        .collect()
}
