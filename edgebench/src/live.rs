//! The live run: an in-process `senseaid_serve::serve()` on loopback,
//! driven open-loop by the connections in [`crate::client`].

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use senseaid_serve::{serve, ServeHandle, ServeOptions, WireRequest};
use senseaid_sim::SimRng;

use crate::client::{observe, register, Conn, Expect, Faults, Pace, Recorded, Step, StepOut};
use crate::lat::Samples;
use crate::procfs::{self, ServerThreads};
use crate::workload::{self, Workload};

/// LTE's one-way user-plane latency target: the middleware should add no
/// more than the radio's own budget.
pub const P99_LIMIT_NS: u64 = 5_000_000;

/// Generator lag p99 beyond which a measured step is void: the latency
/// limit itself. Latency is timed from the due instant, so a step whose
/// generator alone wrote this late would miss the limit whatever the
/// server did: it measured the generator (or a host that starved it).
pub const GEN_LAG_LIMIT_NS: u64 = P99_LIMIT_NS;

/// Outstanding requests per set-up window, per connection.
const SETUP_WINDOW: usize = 512;

/// Runs `decide` on the first connection's thread between steps and
/// every step on all connections at once. `decide` gets the outputs of
/// the step just run (one per connection; empty before the first) and
/// returns the next step, or `None` to stop.
pub fn run_steps<F>(conns: &mut [Conn], decide: F)
where
    F: FnMut(Vec<StepOut>) -> Option<Step> + Send,
{
    let n = conns.len();
    let barrier = Barrier::new(n);
    let plan: Mutex<Option<Step>> = Mutex::new(None);
    let outs: Mutex<Vec<Option<StepOut>>> = Mutex::new((0..n).map(|_| None).collect());
    let abort = AtomicBool::new(false);
    let mut decide = Some(decide);
    std::thread::scope(|s| {
        for (i, conn) in conns.iter_mut().enumerate() {
            let mut decide = if i == 0 { decide.take() } else { None };
            let (barrier, plan, outs, abort) = (&barrier, &plan, &outs, &abort);
            std::thread::Builder::new()
                .name(format!("edgebench-gen-{i}"))
                .spawn_scoped(s, move || {
                    crate::client::sys::tight_timer_slack();
                    loop {
                        if let Some(decide) = decide.as_mut() {
                            let done: Vec<StepOut> = outs
                                .lock()
                                .expect("no generator panicked")
                                .iter_mut()
                                .filter_map(Option::take)
                                .collect();
                            let next = decide(done);
                            abort.store(false, std::sync::atomic::Ordering::Relaxed);
                            *plan.lock().expect("no generator panicked") = next;
                        }
                        barrier.wait();
                        let Some(step) = plan.lock().expect("no generator panicked").clone() else {
                            break;
                        };
                        let out = conn.run(&step, n, abort);
                        outs.lock().expect("no generator panicked")[i] = Some(out);
                        barrier.wait();
                    }
                })
                .expect("spawn generator thread");
        }
    });
}

/// Runs one set-up step: every connection sends its scripted requests
/// through a window of [`SETUP_WINDOW`] outstanding ones.
fn run_script(conns: &mut [Conn]) -> Vec<StepOut> {
    let mut step = Some(Step {
        start: Instant::now(),
        pace: Pace::Window {
            window: SETUP_WINDOW,
        },
        measure: false,
        record: false,
        churn: 0.0,
    });
    let mut outs = Vec::new();
    run_steps(conns, |done| {
        if !done.is_empty() {
            outs = done;
        }
        step.take()
    });
    outs
}

/// A live server plus the connections carrying its device sessions.
pub struct Rig {
    handle: Option<ServeHandle>,
    pub conns: Vec<Conn>,
    /// When set-up finished (tasks acknowledged, `Stats` answered).
    pub ready_at: Instant,
}

/// Options every benchmark server runs with: defaults, an ephemeral
/// loopback port, and idle reaping far beyond any run.
fn options(dir: Option<&Path>) -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        persist_dir: dir.map(Path::to_path_buf),
        idle_timeout: Duration::from_secs(3_600),
        ..ServeOptions::default()
    }
}

/// Everything a run needs to know to build the same inputs again.
pub struct Ctx {
    pub w: Workload,
    pub seed: u64,
    pub conns: usize,
    pub epoch: Instant,
    /// How long tasks must keep producing requests.
    pub task_duration_us: u64,
    pub scratch_dir: PathBuf,
}

impl Ctx {
    /// Device and churn identities of connection `c`.
    pub fn identities(&self, c: usize) -> (Vec<u64>, Vec<u64>) {
        let devices = (0..self.w.devices)
            .filter(|i| i % self.conns == c)
            .map(workload::device_imei)
            .collect();
        let churn = (0..self.w.churn_devices)
            .filter(|i| i % self.conns == c)
            .map(workload::churn_imei)
            .collect();
        (devices, churn)
    }

    pub fn rng(&self, c: usize) -> SimRng {
        SimRng::from_seed_label(self.seed, &format!("edgebench/conn-{c}"))
    }

    pub fn wal_dir(&self) -> PathBuf {
        self.scratch_dir.join("wal")
    }

    fn dial(&self, addr: SocketAddr) -> Vec<Conn> {
        (0..self.conns)
            .map(|c| {
                let (devices, churn) = self.identities(c);
                Conn::dial(addr, devices, churn, self.rng(c), self.epoch).expect("dial the server")
            })
            .collect()
    }

    /// Position reports for enrolment, one per device, drawn from the
    /// connection's own enrolment stream.
    pub fn enrol_observe(&self, c: usize, imeis: &[u64]) -> Vec<WireRequest> {
        let mut rng = SimRng::from_seed_label(self.seed, &format!("edgebench/enrol-{c}"));
        imeis.iter().map(|&imei| observe(imei, &mut rng)).collect()
    }
}

impl Rig {
    /// Starts a server and brings its population to steady state:
    /// sessions (`Hello`), and unless `recovering`, enrolment and task
    /// submission; a `Stats` probe closes set-up. Returns the rig and the
    /// `Stats` device count.
    pub fn start(ctx: &Ctx, recovering: bool, faults: &mut Faults) -> (Rig, u64) {
        let dir = ctx.w.wal.then(|| ctx.wal_dir());
        let handle = serve(options(dir.as_deref())).expect("start the server");
        let mut conns = ctx.dial(handle.addr());
        for conn in &mut conns {
            let hellos: Vec<_> = conn
                .devices
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    (
                        WireRequest::Hello { imei: d.imei },
                        Expect::SessionBound(i as u32),
                    )
                })
                .collect();
            conn.script(hellos);
        }
        let mut outs = run_script(&mut conns);
        if !recovering {
            for (c, conn) in conns.iter_mut().enumerate() {
                let imeis: Vec<u64> = conn.devices.iter().map(|d| d.imei).collect();
                let observes = ctx.enrol_observe(c, &imeis);
                let mut script = Vec::with_capacity(2 * imeis.len());
                for (i, (&imei, obs)) in imeis.iter().zip(observes).enumerate() {
                    script.push((conn.tracked(i, register(imei)), Expect::Ok));
                    script.push((conn.tracked(i, obs), Expect::Ok));
                }
                conn.script(script);
            }
            outs.extend(run_script(&mut conns));
            let specs = workload::tasks(&ctx.w.tasks, ctx.seed, ctx.task_duration_us);
            conns[0].script(specs.into_iter().map(|spec| {
                (
                    WireRequest::SubmitTask { cas: 1, spec },
                    Expect::TaskCreated,
                )
            }));
        }
        conns[0].script([(WireRequest::Stats, Expect::Stats)]);
        outs.extend(run_script(&mut conns));
        let ready_at = Instant::now();
        let devices = outs.iter().find_map(|o| o.stats_devices).unwrap_or(0);
        for out in &outs {
            faults.wire += out.undrained;
        }
        let rig = Rig {
            handle: Some(handle),
            conns,
            ready_at,
        };
        (rig, devices)
    }

    /// Graceful shutdown; returns the server's summary line.
    pub fn stop(mut self) -> String {
        let summary = self.handle.take().expect("running").shutdown();
        for conn in &mut self.conns {
            let faults = conn.faults;
            if faults.total() > 0 {
                eprintln!(
                    "edgebench: connection faults {faults:?}: {:?}",
                    conn.fault_notes
                );
            }
        }
        summary.render()
    }

    pub fn faults(&self) -> Faults {
        let mut f = Faults::default();
        for conn in &self.conns {
            f.add(&conn.faults);
        }
        f
    }
}

/// One measured phase: a fixed offered rate, or a saturating window.
#[derive(Default)]
pub struct Phase {
    /// Offered rate (0 for a window).
    pub rate: f64,
    pub sent: u64,
    pub completed: u64,
    pub latency: Samples,
    pub lag: Samples,
    pub outstanding_max: usize,
    pub pushes: Vec<(u64, u64)>,
    pub threads: ServerThreads,
    pub aborted: bool,
    pub undrained: u64,
    pub faults: Faults,
    pub recorded: Vec<Vec<Recorded>>,
    pub write_batches: Vec<u32>,
    /// Wall span from the step start to its last response.
    pub span_secs: f64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// step.
    pub steal: f64,
}

impl Phase {
    fn absorb(step: &Step, outs: Vec<StepOut>, threads: ServerThreads) -> Phase {
        let rate = match step.pace {
            Pace::Rate { rate, .. } => rate,
            Pace::Window { .. } | Pace::Saturate { .. } => 0.0,
        };
        let mut p = Phase {
            rate,
            threads,
            ..Phase::default()
        };
        let mut last = step.start;
        for o in outs {
            p.sent += o.sent;
            p.completed += o.completed;
            p.latency.extend(&o.latency);
            p.lag.extend(&o.lag);
            p.outstanding_max += o.outstanding_max;
            p.pushes.extend(o.pushes);
            p.aborted |= o.aborted;
            p.undrained += o.undrained;
            p.faults.add(&o.faults);
            p.recorded.push(o.recorded);
            p.write_batches.extend(o.write_batches);
            last = last.max(o.last_arrival.unwrap_or(step.start));
        }
        p.span_secs = last.duration_since(step.start).as_secs_f64();
        p
    }

    /// Adds another step at the same pace to this one.
    fn merge(&mut self, o: Phase) {
        self.rate = o.rate;
        self.sent += o.sent;
        self.completed += o.completed;
        self.latency.extend(&o.latency);
        self.lag.extend(&o.lag);
        self.outstanding_max = self.outstanding_max.max(o.outstanding_max);
        self.pushes.extend(o.pushes);
        self.threads = self.threads.plus(&o.threads);
        self.aborted |= o.aborted;
        self.undrained += o.undrained;
        self.faults.add(&o.faults);
        self.write_batches.extend(o.write_batches);
        self.span_secs += o.span_secs;
        merge_recorded(&mut self.recorded, o.recorded);
    }

    /// Requests delivered per second over the step's wall span.
    pub fn delivered_rps(&self) -> f64 {
        self.completed as f64 / self.span_secs.max(1e-9)
    }
}

/// Unmeasured light-rate traffic before the light phase, so caches and
/// lazy allocations settle first.
const WARMUP: Duration = Duration::from_millis(500);

/// Requests kept outstanding, over all connections, in the saturation
/// phase. On the validation machine 128 keep the server's threads busy
/// (~80–100k requests/s) with p99 near 2 ms, well inside the 5 ms limit;
/// at 256 the WAL workload's rate swung between blocks by up to 50%.
pub const SAT_WINDOW: usize = 128;

/// Appends per-connection request records.
fn merge_recorded(into: &mut Vec<Vec<Recorded>>, from: Vec<Vec<Recorded>>) {
    if into.len() < from.len() {
        into.resize_with(from.len(), Vec::new);
    }
    for (all, more) in into.iter_mut().zip(from) {
        all.extend(more);
    }
}

/// The phases a block can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open loop at the workload's light rate.
    Light,
    /// Open loop at its busy rate.
    Busy,
    /// [`SAT_WINDOW`] requests kept outstanding.
    Sat,
}

/// Run-length plan for the steady part of a run.
pub struct Plan {
    /// The blocks to run after the warm-up, in order.
    pub schedule: Vec<Kind>,
    /// Length of every block.
    pub block: Duration,
    /// Keep the warm-up's and light blocks' requests for the replay.
    pub record_light: bool,
}

/// One block of a phase, as run.
#[derive(Debug, Clone, Copy)]
pub struct BlockNote {
    /// Whole-block latency percentiles and generator lag p99, ms.
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub lag_ms: f64,
    /// Requests delivered per second.
    pub delivered: f64,
    /// CPU time of the server's threads per 1,000 completed requests, ms.
    pub cpu_ms_per_kreq: f64,
    /// Share of the host's CPU time the hypervisor stole meanwhile.
    pub steal: f64,
    /// The generator kept to its schedule: lag p99 within
    /// [`GEN_LAG_LIMIT_NS`] (always so for a window).
    pub valid: bool,
    /// The phase's figures include this block.
    pub kept: bool,
}

/// Every block of one phase, in the order run.
#[derive(Debug, Default, Clone)]
pub struct BlockLog {
    pub blocks: Vec<BlockNote>,
}

impl BlockLog {
    pub fn valid(&self) -> impl Iterator<Item = &BlockNote> {
        self.blocks.iter().filter(|b| b.valid)
    }

    /// The median over kept blocks of `f`.
    pub fn median(&self, f: impl Fn(&BlockNote) -> f64) -> f64 {
        crate::median(self.blocks.iter().filter(|b| b.kept).map(f).collect())
    }

    /// Marks the blocks the figures come from: the quieter half (by
    /// stolen CPU time; earlier first on a tie) of the valid blocks, or
    /// of all blocks when fewer than half are valid. Stolen time is the
    /// host's doing, never the server's, and the choice never looks at
    /// what a block measured.
    fn keep_quieter_half(&mut self) {
        let enough = 2 * self.valid().count() >= self.blocks.len();
        let mut order: Vec<usize> = (0..self.blocks.len())
            .filter(|&i| self.blocks[i].valid || !enough)
            .collect();
        order.sort_by(|&a, &b| self.blocks[a].steal.total_cmp(&self.blocks[b].steal));
        for &i in order.iter().take(order.len().div_ceil(2)) {
            self.blocks[i].kept = true;
        }
    }
}

/// Everything the steady part measured.
pub struct Steady {
    /// The kept blocks of each phase, merged; `recorded`, `aborted` and
    /// `undrained` cover every block.
    pub light: Phase,
    pub busy: Phase,
    pub sat: Phase,
    pub light_log: BlockLog,
    pub busy_log: BlockLog,
    pub sat_log: BlockLog,
    /// Requests recorded in the warm-up (the replay re-runs them so
    /// churn state matches the light phase).
    pub warmup_recorded: Vec<Vec<Recorded>>,
    /// Requests sent in measured steps.
    pub attempted: u64,
    /// Faults raised in measured steps.
    pub faults: Faults,
    /// Requests of measured steps never answered.
    pub undrained: u64,
}

/// Outstanding requests per connection past which a fixed-rate step is
/// cut: one second's worth, a safety net against an unbounded drain.
fn backlog_cap(rate: f64, conns: usize) -> usize {
    (rate as usize).max(1_000) / conns
}

/// One phase being collected block by block.
#[derive(Default)]
struct Collecting {
    blocks: Vec<Phase>,
}

impl Collecting {
    /// Merges the kept blocks (see [`BlockLog::keep_quieter_half`]);
    /// requests, backlog cuts and undrained requests of every block stay
    /// with the phase.
    fn finish(mut self) -> (Phase, BlockLog) {
        let mut log = BlockLog::default();
        for block in &mut self.blocks {
            log.blocks.push(BlockNote {
                p90_ms: block.latency.quantile_ms(0.9),
                p99_ms: block.latency.quantile_ms(0.99),
                lag_ms: block.lag.quantile_ms(0.99),
                delivered: block.delivered_rps(),
                cpu_ms_per_kreq: block.threads.cpu_ns() as f64
                    / 1e6
                    / (block.completed.max(1) as f64 / 1e3),
                steal: block.steal,
                valid: block.lag.quantile_ns(0.99) <= GEN_LAG_LIMIT_NS,
                kept: false,
            });
        }
        log.keep_quieter_half();
        let mut merged: Option<Phase> = None;
        let mut recorded = Vec::new();
        let (mut aborted, mut undrained) = (false, 0);
        for (mut block, note) in self.blocks.into_iter().zip(&log.blocks) {
            merge_recorded(&mut recorded, std::mem::take(&mut block.recorded));
            aborted |= block.aborted;
            undrained += block.undrained;
            if !note.kept {
                continue;
            }
            match merged.as_mut() {
                Some(m) => m.merge(block),
                None => merged = Some(block),
            }
        }
        let mut phase = merged.unwrap_or_default();
        phase.recorded = recorded;
        phase.aborted = aborted;
        phase.undrained = undrained;
        (phase, log)
    }
}

/// Runs warm-up, then the blocks of `plan.schedule`.
///
/// Every block runs and counts toward attempted requests and failures;
/// the phase's figures come from its kept blocks (see
/// [`BlockLog::keep_quieter_half`]), so a host stall that spoils a
/// minority of blocks moves neither a median nor the run's length.
pub fn steady(rig: &mut Rig, ctx: &Ctx, plan: &Plan) -> Steady {
    let w = &ctx.w;
    let conns = rig.conns.len();
    let rate_step = |rate: f64, duration: Duration, measure: bool, record: bool| Step {
        start: Instant::now() + Duration::from_millis(1),
        pace: Pace::Rate {
            rate,
            duration,
            backlog_cap: backlog_cap(rate, conns),
        },
        measure,
        record,
        churn: w.churn,
    };
    // `None` is the warm-up, then the index of the block in the schedule.
    let mut stage: Option<usize> = None;
    let mut current: Option<(Step, ServerThreads, (u64, u64))> = None;
    let (mut light, mut busy, mut sat) = (
        Collecting::default(),
        Collecting::default(),
        Collecting::default(),
    );
    let mut attempted = 0u64;
    let mut faults = Faults::default();
    let mut undrained = 0u64;
    let mut warmup_recorded = Vec::new();
    run_steps(&mut rig.conns, |outs| {
        if let Some((step, before, ticks)) = current.take() {
            let mut phase = Phase::absorb(&step, outs, procfs::server_threads().since(&before));
            let (stolen, total) = procfs::cpu_ticks();
            phase.steal = (stolen - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
            if step.measure {
                attempted += phase.sent;
                undrained += phase.undrained;
                faults.add(&phase.faults);
            }
            match stage.map(|i| plan.schedule[i]) {
                None => warmup_recorded = phase.recorded,
                Some(Kind::Light) => light.blocks.push(phase),
                Some(Kind::Busy) => busy.blocks.push(phase),
                Some(Kind::Sat) => sat.blocks.push(phase),
            }
            stage = Some(stage.map_or(0, |i| i + 1));
        }
        let step = match stage {
            None => rate_step(w.light_rps, WARMUP, false, plan.record_light),
            Some(i) => match plan.schedule.get(i)? {
                Kind::Light => rate_step(w.light_rps, plan.block, true, plan.record_light),
                Kind::Busy => rate_step(w.busy_rps, plan.block, true, false),
                Kind::Sat => Step {
                    start: Instant::now(),
                    pace: Pace::Saturate {
                        window: SAT_WINDOW / conns,
                        duration: plan.block,
                    },
                    measure: true,
                    record: false,
                    churn: w.churn,
                },
            },
        };
        current = Some((step.clone(), procfs::server_threads(), procfs::cpu_ticks()));
        Some(step)
    });
    let (light, light_log) = light.finish();
    let (busy, busy_log) = busy.finish();
    let (sat, sat_log) = sat.finish();
    Steady {
        warmup_recorded,
        light,
        busy,
        sat,
        light_log,
        busy_log,
        sat_log,
        attempted,
        faults,
        undrained,
    }
}

#[cfg(test)]
mod tests {
    use super::{BlockLog, BlockNote};

    fn log(blocks: &[(f64, bool)]) -> BlockLog {
        BlockLog {
            blocks: blocks
                .iter()
                .map(|&(steal, valid)| BlockNote {
                    p90_ms: 0.0,
                    p99_ms: 0.0,
                    lag_ms: 0.0,
                    delivered: 0.0,
                    cpu_ms_per_kreq: 0.0,
                    steal,
                    valid,
                    kept: false,
                })
                .collect(),
        }
    }

    fn kept(log: &BlockLog) -> Vec<usize> {
        (0..log.blocks.len())
            .filter(|&i| log.blocks[i].kept)
            .collect()
    }

    #[test]
    fn keeps_the_quieter_half_of_the_valid_blocks_earlier_first() {
        let mut l = log(&[
            (0.02, true),
            (0.0, true),
            (0.0, false),
            (0.01, true),
            (0.0, true),
            (0.0, true),
        ]);
        l.keep_quieter_half();
        // Five valid blocks: the three quietest, ties in run order.
        assert_eq!(kept(&l), vec![1, 4, 5]);
    }

    #[test]
    fn falls_back_to_all_blocks_when_most_are_void() {
        let mut l = log(&[(0.3, false), (0.1, true), (0.2, false), (0.25, false)]);
        l.keep_quieter_half();
        assert_eq!(kept(&l), vec![1, 2]);
    }
}
