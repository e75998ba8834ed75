//! `serverbench`: the end-to-end and per-layer benchmark of the
//! annotated-query HTTP server. See `README.md` in this directory.
//!
//! ```text
//! serverbench --workload point_eval|wide_stream|churn_rw --seed N
//!             --seconds S --trace 0|1 [--smoke] [--spans FILE]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`,
//! with the end-to-end metrics for `--trace 0` and the per-layer
//! metrics for `--trace 1`.

mod alloc;
mod client;
mod ladder;
mod report;
mod trace;
mod workload;

use client::{fnv, Client};
use std::sync::Arc;
use std::time::Instant;
use workload::Plan;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The timed run is cut into this many rounds of whole blocks (fewer
/// when there are fewer blocks). Each timing metric is computed per
/// round and reported as the median over rounds, so that a burst of
/// load from outside the process that covers less than half the run
/// does not move it.
const ROUNDS: usize = 30;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 12,
        trace: false,
        smoke: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--spans" => a.spans = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            workload::WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// Fixed sizes of one run of a workload.
struct Sizing {
    /// Nominal operations per second on a 2-core x86-64 container. A
    /// run sends `seconds × rate` operations (rounded up to whole
    /// blocks): a fixed count, so that counts and heap figures repeat
    /// from run to run, that takes about `seconds` on such a machine.
    rate: u64,
    /// Server set-ups per run; `setup_s` is their median. A cheap
    /// set-up varies more from one to the next, so it is repeated more.
    setups: usize,
}

fn sizing(workload: &str) -> Sizing {
    match workload {
        "point_eval" => Sizing {
            rate: 2500,
            setups: 51,
        },
        "wide_stream" => Sizing {
            rate: 35,
            setups: 9,
        },
        _ => Sizing {
            rate: 1000,
            setups: 41,
        },
    }
}

/// A running server with one keep-alive client connection. Fields drop
/// in order: the client closes its connection before the server shuts
/// down, so shutdown never waits on an idle connection.
struct Session {
    client: Client,
    server: axml_server::ServerHandle,
}

impl Session {
    /// Start a server on a fresh engine and send the plan's set-up
    /// requests: document loads, prepares and the warm-up pass.
    fn start(plan: &Plan) -> Result<Self, String> {
        let config = axml_server::ServerConfig {
            pool_workers: 2,
            max_prepared: plan.max_prepared,
            ..Default::default()
        };
        let server = axml_server::start(config, Arc::new(axml::Engine::new()))
            .map_err(|e| format!("server start: {e}"))?;
        let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut s = Session { client, server };
        for &t in &plan.setup {
            let reply = s
                .client
                .send(&plan.templates[t as usize].bytes)
                .map_err(|e| format!("set-up request: {e}"))?;
            if reply.status != 200 {
                return Err(format!(
                    "set-up request {:?} answered {}: {}",
                    plan.op(t),
                    reply.status,
                    String::from_utf8_lossy(s.client.body())
                ));
            }
        }
        Ok(s)
    }

    fn stats(&mut self) -> Result<report::ServerStats, String> {
        let reply = self
            .client
            .send(b"GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n")
            .map_err(|e| format!("GET /stats: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET /stats answered {}", reply.status));
        }
        report::ServerStats::parse(&String::from_utf8_lossy(self.client.body()))
    }
}

/// One measured operation as the client saw it.
pub struct Rec {
    pub status: u16,
    pub ttfb_ns: u64,
    pub total_ns: u64,
    pub hash: u64,
    pub len: usize,
}

/// One round of the timed run: operations `ops`, their wall and CPU
/// time.
pub struct Round {
    pub ops: std::ops::Range<usize>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub struct Timed {
    pub recs: Vec<Rec>,
    pub rounds: Vec<Round>,
    pub heap_peak_bytes: usize,
    pub setup_s: Vec<f64>,
    pub before: report::ServerStats,
    pub after: report::ServerStats,
}

/// User plus system CPU time of this process, every thread included,
/// live or ended: `/proc/self/stat`'s utime + stime, but read through
/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` in nanoseconds rather than
/// in 1/100 s ticks.
fn cpu_seconds() -> Result<f64, String> {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s
    // on Linux), and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// Set up `setups` times, keep the last session, and run the measured
/// operations on it, untraced. A request that fails in transport (the
/// server aborts a failed stream by closing the connection) is recorded
/// as a failed operation, slower than any other, and the client
/// reconnects; only a failed set-up ends the run.
fn timed_run(plan: &Plan, setups: usize) -> Result<Timed, String> {
    let mut setup_s = Vec::with_capacity(setups);
    let mut recs = Vec::with_capacity(plan.ops.len());
    for _ in 1..setups {
        let t = Instant::now();
        let session = Session::start(plan)?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(session);
    }
    // The last set-up is kept. The heap peak window covers it and the
    // timed run; what is live before it (the plan, these records) is
    // the baseline, subtracted from the peak.
    let baseline = alloc::reset_peak();
    let t = Instant::now();
    let mut s = Session::start(plan)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let before = s.stats()?;
    let blocks = plan.ops.len() / plan.block;
    let rounds_n = ROUNDS.min(blocks);
    let mut rounds = Vec::with_capacity(rounds_n);
    let mut cpu0 = cpu_seconds()?;
    let mut t0 = Instant::now();
    for (k, &t) in plan.ops.iter().enumerate() {
        match s.client.send(&plan.templates[t as usize].bytes) {
            Ok(reply) => {
                let body = s.client.body();
                recs.push(Rec {
                    status: reply.status,
                    ttfb_ns: reply.ttfb_ns,
                    total_ns: reply.total_ns,
                    hash: fnv(body),
                    len: body.len(),
                });
            }
            Err(e) => {
                eprintln!("serverbench: operation {k} {:?}: {e}", plan.op(t));
                recs.push(Rec {
                    status: 0,
                    ttfb_ns: u64::MAX,
                    total_ns: u64::MAX,
                    hash: 0,
                    len: 0,
                });
                s.client =
                    Client::connect(s.server.addr()).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
        // Round r ends after block (r + 1) * blocks / rounds_n.
        let r = rounds.len();
        if k + 1 == (r + 1) * blocks / rounds_n * plan.block {
            let (wall_s, cpu1) = (t0.elapsed().as_secs_f64(), cpu_seconds()?);
            let start = rounds.last().map_or(0, |p: &Round| p.ops.end);
            rounds.push(Round {
                ops: start..k + 1,
                wall_s,
                cpu_s: cpu1 - cpu0,
            });
            (cpu0, t0) = (cpu1, Instant::now());
        }
    }
    let heap_peak_bytes = alloc::peak_bytes() - baseline;
    let after = s.stats()?;
    Ok(Timed {
        recs,
        rounds,
        heap_peak_bytes,
        setup_s,
        before,
        after,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let size = sizing(&args.workload);
    let (min_ops, setups) = if args.smoke {
        (1, 2)
    } else {
        (args.seconds.max(1) * size.rate, size.setups)
    };
    let plan = workload::plan(&args.workload, args.seed, min_ops as usize).ok_or(format!(
        "unknown workload {:?} (one of {})",
        args.workload,
        workload::WORKLOADS.join(", ")
    ))?;
    let timed = timed_run(&plan, setups)?;
    let reference = ladder::replay(&plan, false);
    let failed = report::failures(&plan, &timed, &reference);
    let metrics = if args.trace {
        let traced = ladder::replay(&plan, true);
        if let Some(path) = &args.spans {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut w = std::io::BufWriter::new(file);
            traced
                .tracer
                .write_tsv(&mut w)
                .and_then(|()| std::io::Write::flush(&mut w))
                .map_err(|e| format!("{path}: {e}"))?;
        }
        report::per_layer(&plan, &timed, &reference, &traced)
    } else {
        report::end_to_end(&plan, &timed)
    };
    Ok(report::result_line(
        failed == 0,
        plan.ops.len(),
        failed,
        &metrics,
    ))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("serverbench: {e}");
            std::process::exit(1);
        }
    }
}
