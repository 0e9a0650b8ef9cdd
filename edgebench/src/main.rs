//! `edgebench` — the Sense-Aid edge server benchmark.
//!
//! ```text
//! edgebench --workload <uplink_chatter|durable_churn|campaign_polls>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the live server on loopback and prints the
//! end-to-end metrics; `--trace 1` runs a shorter live bout for the
//! transport accounting, then replays the recorded request stream in
//! process with spans around every layer call and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code is
//! nonzero when any correctness check failed. See README.md.

mod alloc;
mod client;
mod lat;
mod live;
mod procfs;
mod traced;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::client::Faults;
use crate::lat::Samples;
use crate::live::{BlockLog, Ctx, Kind, Plan, Rig, GEN_LAG_LIMIT_NS, P99_LIMIT_NS, SAT_WINDOW};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per measured run; `setup_s` is their median.
const SETUPS: usize = 21;

/// Generator threads, each with one connection. One leaves the second CPU
/// of a two-CPU host to the server's engine and worker threads.
const CONNECTIONS: usize = 1;

/// Length of every measured block.
const BLOCK: Duration = Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be 1..=600".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload::by_name(&workload).is_none() {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            workload::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// A correctness check and whether it held.
pub struct Check {
    pub what: String,
    pub ok: bool,
}

pub fn check(what: impl Into<String>, ok: bool) -> Check {
    Check {
        what: what.into(),
        ok,
    }
}

/// What a run reports.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("edgebench: {e}");
            std::process::exit(2);
        }
    };
    let w = workload::by_name(&args.workload).expect("validated above");
    let (nproc, model) = procfs::machine();
    let conns = CONNECTIONS.min(nproc.max(1));
    let scratch_dir =
        PathBuf::from(".edgebench_tmp").join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch_dir);
    std::fs::create_dir_all(&scratch_dir).expect("create the scratch directory");
    let seconds = args.seconds;
    let ctx = Ctx {
        w,
        seed: args.seed,
        conns,
        epoch: Instant::now(),
        // Long enough for every set-up, the run, and the drains after it.
        task_duration_us: (seconds * 2 + 30) * 1_000_000,
        scratch_dir: scratch_dir.clone(),
    };
    println!(
        "edgebench: workload={} seed={} seconds={} trace={}",
        ctx.w.name,
        args.seed,
        seconds,
        u8::from(args.trace)
    );
    println!(
        "machine: nproc={nproc} cpu=\"{model}\" profile={} generator_threads={conns} connections={conns} transport=loopback(127.0.0.1; traffic crossed the host loopback, not a real link)",
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    let outcome = if args.trace {
        traced::run(&ctx, seconds)
    } else {
        run_e2e(&ctx, seconds)
    };
    let _ = std::fs::remove_dir_all(&scratch_dir);
    let _ = std::fs::remove_dir(".edgebench_tmp");

    for note in &outcome.notes {
        println!("{note}");
    }
    let mut correct = true;
    for c in &outcome.checks {
        println!(
            "check: {} ... {}",
            c.what,
            if c.ok { "ok" } else { "FAILED" }
        );
        correct &= c.ok;
    }
    correct &= outcome.failed == 0;
    for m in &outcome.metrics {
        println!("metric: {} = {} {}", m.name, m.value, m.unit);
    }
    println!("attempted={} failed={}", outcome.attempted, outcome.failed);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Push lateness beyond the best case: arrival minus `sample_at`, less
/// the run's minimum of that difference (the clock offset). Samples are
/// in arrival order.
pub fn push_lag(pushes: &[(u64, u64)]) -> Samples {
    let mut pushes = pushes.to_vec();
    pushes.sort_unstable();
    let raw: Vec<i128> = pushes
        .iter()
        .map(|&(arrival_ns, sample_at_us)| arrival_ns as i128 - sample_at_us as i128 * 1_000)
        .collect();
    let offset = raw.iter().copied().min().unwrap_or(0);
    let mut lag = Samples::new();
    for r in raw {
        lag.push((r - offset) as u64);
    }
    lag
}

/// Memory the first set-up left behind.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupMemory {
    /// Live heap bytes, allocated less freed.
    pub heap: i64,
    /// Resident-set growth.
    pub rss: u64,
}

/// Brings up the measured server: the workload's set-up `setups` times
/// (the last one stays up), timing each and the first one's memory.
pub fn set_up(
    ctx: &Ctx,
    setups: usize,
    checks: &mut Vec<Check>,
    faults: &mut Faults,
) -> (Rig, Vec<f64>, SetupMemory) {
    let n = ctx.w.devices as u64;
    let mut times = Vec::with_capacity(setups);
    let mut devices_seen = Vec::with_capacity(setups + 1);
    let mut summaries = Vec::new();
    let mut stop = |rig: Rig, faults: &mut Faults| {
        faults.add(&rig.faults());
        summaries.push(rig.stop());
    };
    let mut memory = None;
    // Starts a server, taking the memory it holds once up when this is
    // the first.
    let mut start = |recovering: bool, faults: &mut Faults| {
        if memory.is_some() {
            return Rig::start(ctx, recovering, faults);
        }
        let (rss, heap) = (procfs::rss_bytes(), alloc::net_bytes());
        alloc::set_counting(true);
        let started = Rig::start(ctx, recovering, faults);
        alloc::set_counting(false);
        memory = Some(SetupMemory {
            heap: alloc::net_bytes() - heap,
            rss: procfs::rss_bytes().saturating_sub(rss),
        });
        started
    };
    if ctx.w.wal {
        // An earlier, untimed server run enrols the population over a
        // fresh WAL; every timed set-up is a restart that recovers it.
        let _ = std::fs::remove_dir_all(ctx.wal_dir());
        let (first, devices) = start(false, faults);
        devices_seen.push(devices);
        stop(first, faults);
    }
    let mut rig = None;
    for k in 0..setups {
        let t0 = Instant::now();
        let (next, devices) = start(ctx.w.wal, faults);
        times.push(t0.elapsed().as_secs_f64());
        devices_seen.push(devices);
        if k + 1 < setups {
            stop(next, faults);
        } else {
            rig = Some(next);
        }
    }
    let what = if ctx.w.wal {
        "enrolment and every restart"
    } else {
        "every set-up"
    };
    checks.push(check(
        format!("Stats after {what} reports {n} devices (got {devices_seen:?})"),
        devices_seen.iter().all(|&d| d == n),
    ));
    if ctx.w.wal {
        checks.push(check(
            format!(
                "every set-up shutdown says flush=clean ({} shutdowns)",
                summaries.len()
            ),
            summaries.iter().all(|s| s.contains("flush=clean")),
        ));
    }
    (
        rig.expect("at least one set-up"),
        times,
        memory.unwrap_or_default(),
    )
}

/// The generator-validity check of one fixed-rate phase. A block whose
/// generator lag p99 exceeds the limit is void and left out of the
/// phase's figures; that is the host's doing when the hypervisor stole
/// CPU time meanwhile, but on a host that stole nothing it means the
/// generator cannot keep the offered rate, and the check fails.
pub fn generator_check(name: &str, log: &BlockLog) -> Check {
    let lags: Vec<f64> = log.blocks.iter().map(|b| b.lag_ms).collect();
    let quiet_void = log
        .blocks
        .iter()
        .filter(|b| !b.valid && b.steal == 0.0)
        .count();
    check(
        format!(
            "{name} phase: generator lag p99 <= {:.1} ms (the latency limit) in every block the host stole no CPU time from; {} of {} blocks valid, {quiet_void} void with no steal; lag p99 ms by block {lags:.3?}",
            GEN_LAG_LIMIT_NS as f64 / 1e6,
            log.valid().count(),
            log.blocks.len(),
        ),
        quiet_void == 0,
    )
}

/// `p90 ms / p99 ms / cpu ms per kreq @ steal share` for each block; `*` marks the kept ones,
/// `(void)` the ones whose generator fell behind.
fn blocks_note(log: &BlockLog) -> String {
    let blocks: Vec<String> = log
        .blocks
        .iter()
        .map(|b| {
            format!(
                "{}{:.3}/{:.3}/{:.1}@{:.3}{}",
                if b.kept { "*" } else { "" },
                b.p90_ms,
                b.p99_ms,
                b.cpu_ms_per_kreq,
                b.steal,
                if b.valid { "" } else { "(void)" }
            )
        })
        .collect();
    format!(
        "blocks p90_ms/p99_ms/cpu_ms_per_kreq@steal [{}]",
        blocks.join(" ")
    )
}

fn run_e2e(ctx: &Ctx, seconds: u64) -> Outcome {
    let mut checks = Vec::new();
    let mut faults = Faults::default();
    let (mut rig, setup_times, memory) = set_up(ctx, SETUPS, &mut checks, &mut faults);
    // Rounds of one light, one busy and one saturation block fill about
    // 90% of the run; the rest is set-up and warm-up. Interleaving the
    // phases spreads each over the whole run, so a burst of host steal
    // lands on all of them alike and each keeps its quieter blocks.
    let rounds = (seconds as usize * 3 / 10).max(3);
    let plan = Plan {
        schedule: [Kind::Light, Kind::Busy, Kind::Sat].repeat(rounds),
        block: BLOCK,
        record_light: false,
    };
    let mut steady = live::steady(&mut rig, ctx, &plan);
    let run_faults = rig.faults();
    let summary = rig.stop();
    if ctx.w.wal {
        checks.push(check(
            format!("final shutdown flush=clean ({summary})"),
            summary.contains("flush=clean"),
        ));
    }
    checks.push(check(
        format!("every request answered once, in order, no unprovoked Error, pushes on their sessions' connections ({run_faults:?})"),
        run_faults.total() == 0,
    ));
    checks.push(check(
        format!("set-up faults none ({faults:?})"),
        faults.total() == 0,
    ));
    checks.push(generator_check("light", &steady.light_log));
    checks.push(generator_check("busy", &steady.busy_log));
    let light = &mut steady.light;
    let busy = &mut steady.busy;
    let sat = &mut steady.sat;
    let mut pushes = light.pushes.clone();
    pushes.extend(busy.pushes.iter().copied());
    let mut lag = push_lag(&pushes);
    let has_tasks = ctx.w.tasks.count > 0;
    checks.push(check(
        format!(
            "assignment pushes arrived iff the workload has tasks ({} pushes)",
            lag.len()
        ),
        (lag.len() > 0) == has_tasks,
    ));
    checks.push(check(
        "light phase kept its schedule (no backlog abort)",
        !light.aborted && light.undrained == 0,
    ));
    checks.push(check(
        "busy phase kept its schedule (no backlog abort)",
        !busy.aborted && busy.undrained == 0,
    ));
    let sat_met = steady
        .sat_log
        .blocks
        .iter()
        .filter(|b| b.kept && b.p99_ms * 1e6 <= P99_LIMIT_NS as f64)
        .count();
    let sat_blocks: Vec<String> = steady
        .sat_log
        .blocks
        .iter()
        .map(|b| {
            format!(
                "{}{:.0}@{:.3}",
                if b.kept { "*" } else { "" },
                b.delivered,
                b.steal
            )
        })
        .collect();
    let mut notes = vec![
        format!("setup_s samples: {setup_times:?}"),
        format!(
            "first set-up memory: heap {} B live, resident set +{} B",
            memory.heap, memory.rss
        ),
        format!(
            "light {:.0} rps: latency_ms {}; {}",
            light.rate,
            light.latency.describe_ms(),
            blocks_note(&steady.light_log)
        ),
        format!(
            "busy {:.0} rps: latency_ms {}; {}",
            busy.rate,
            busy.latency.describe_ms(),
            blocks_note(&steady.busy_log)
        ),
        format!(
            "generator: lag_ms light p99={:.4} busy p99={:.4} max={:.4}; outstanding max light={} busy={}",
            light.lag.quantile_ms(0.99),
            busy.lag.quantile_ms(0.99),
            busy.lag.max_ns().max(light.lag.max_ns()) as f64 / 1e6,
            light.outstanding_max,
            busy.outstanding_max
        ),
        format!(
            "saturation ({SAT_WINDOW} outstanding): latency_ms {}; p99 <= {:.0} ms in {sat_met} of the kept blocks; delivered rps@steal by block [{}]",
            sat.latency.describe_ms(),
            P99_LIMIT_NS as f64 / 1e6,
            sat_blocks.join(" "),
        ),
        format!(
            "p99_block_median_ms.light = {} ms and p99_block_median_ms.busy = {} ms (reported, not gated)",
            steady.light_log.median(|b| b.p99_ms),
            steady.busy_log.median(|b| b.p99_ms)
        ),
    ];
    if has_tasks {
        notes.push(format!("push lag_ms {}", lag.describe_ms()));
    }
    notes.push(format!("server: {summary}"));
    let failed = steady.faults.error_responses + steady.faults.mismatched + steady.undrained;
    let mut metrics = vec![
        metric("setup_s", median(setup_times), "s"),
        metric("p50_ms.light", light.latency.quantile_ms(0.5), "ms"),
        metric(
            "p90_block_median_ms.light",
            steady.light_log.median(|b| b.p90_ms),
            "ms",
        ),
        metric("p50_ms.busy", busy.latency.quantile_ms(0.5), "ms"),
        metric(
            "p90_block_median_ms.busy",
            steady.busy_log.median(|b| b.p90_ms),
            "ms",
        ),
        metric("window_rps", steady.sat_log.median(|b| b.delivered), "1/s"),
        metric(
            "cpu_ms_per_kreq",
            steady.light_log.median(|b| b.cpu_ms_per_kreq),
            "ms",
        ),
        metric("heap_mb", memory.heap as f64 / (1024.0 * 1024.0), "MiB"),
    ];
    // Push timeliness exists only where tasks assign devices.
    if has_tasks {
        metrics.push(metric("push_lag_p50_ms", lag.quantile_ms(0.5), "ms"));
        metrics.push(metric("push_lag_p99_ms", lag.quantile_ms(0.99), "ms"));
    }
    Outcome {
        metrics,
        checks,
        attempted: steady.attempted,
        failed,
        notes,
    }
}
