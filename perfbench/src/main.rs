//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <rma|collectives|host> --seed <n> --seconds <s> --trace <0|1> [--negative-control]
//! ```
//!
//! Runs one workload in this process, checks every output, prints a
//! human-readable report and, as the last line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones.
//! `--negative-control` plants a wrong expectation; the run must then
//! report `"correct": false` and exit with status 1. See README.md for
//! the metric table.

mod exec;
mod layers;
mod plan;
mod report;

use std::sync::Barrier;
use std::time::Instant;

use exec::{PeOut, Run, SetupSample};
use layers::Counters;
use report::Metrics;

/// Separate set-ups timed per run, on top of the measured worlds' own.
const SETUP_SAMPLES: usize = 8;

/// Consecutive worlds an untraced run is split into. Thread placement
/// on the cores is decided when a world starts and can shift a whole
/// world's latencies; the report takes medians over per-world windows.
const WORLDS: usize = 10;

const USAGE: &str = "usage: perfbench --workload <rma|collectives|host> --seed <n> --seconds <s> \
                     --trace <0|1> [--negative-control]";

struct Args {
    spec: &'static plan::Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    negative_control: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut negative_control) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--negative-control" {
            negative_control = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = plan::spec(&workload).ok_or(format!("unknown workload {workload}"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        negative_control,
    })
}

/// Use one malloc arena for the whole process. By default glibc adds
/// per-thread arenas as threads happen to contend, which swung the peak
/// RSS of one seed between 45 and 74 MiB; with one arena it repeats
/// within 1% and throughput is unchanged on a 2-vCPU machine.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets a glibc allocator tunable. It runs at
    // the top of `main`, before this process starts any other thread,
    // and `M_ARENA_MAX` with a positive value is a documented setting.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.to_json());
            std::process::exit(if out.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<Metrics, String> {
    let spec = args.spec;
    println!(
        "workload {} ({} PEs, {} timing) seed {} seconds {} trace {}",
        spec.name,
        spec.pes,
        if spec.paper_time { "paper" } else { "zero" },
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut setups: Vec<SetupSample> = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        setups.push(exec::setup_once(spec, args.seed)?);
    }
    let mut out = Metrics::new();
    let worlds = if args.trace { 1 } else { WORLDS };
    let mut pe0: Option<PeOut> = None;
    let mut counters = Counters::default();
    let mut mismatches = 0;
    for w in 0..worlds {
        let gate = Barrier::new(spec.pes);
        let world = Run {
            spec,
            seed: args.seed,
            seconds: args.seconds / worlds as f64,
            first_round: (w as u64) << 32,
            trace: args.trace,
            negative_control: args.negative_control,
            t_run: Instant::now(),
            gate: &gate,
        };
        let mut pes = world.world()?;
        if let Some(fatal) = pes.iter().find_map(|p| p.fatal.clone()) {
            return Err(fatal);
        }
        let mut own = SetupSample { bringup_s: 0.0, setup_s: 0.0 };
        for p in &pes {
            let (entered, ready) = p.setup.ok_or("a PE never finished set-up")?;
            own.bringup_s = own.bringup_s.max(entered);
            own.setup_s = own.setup_s.max(ready);
            out.attempted += p.attempted;
            out.failed += p.failed;
            mismatches += p.mismatches;
            counters.add(&p.counters);
            if let Some(m) = &p.first_mismatch {
                println!("output check FAILED: {m}");
                out.correct = false;
            }
        }
        setups.push(own);
        let first = pes.swap_remove(0);
        match pe0.as_mut() {
            None => pe0 = Some(first),
            Some(acc) => acc.absorb(first),
        }
    }
    if mismatches > 0 {
        println!("{mismatches} output mismatches in total");
    }
    let pe0 = pe0.expect("at least one world ran");
    report::clusters(&pe0.series);
    if args.trace {
        report::per_layer(&mut out, spec, args.seed, &setups, pe0, counters)?;
    } else {
        report::end_to_end(&mut out, &setups, &pe0);
    }
    out.print_table();
    Ok(out)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
