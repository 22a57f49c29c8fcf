//! Turning samples into the named metrics, and the output format.

use crate::exec::{PeOut, Sample, Series, SetupSample};
use crate::layers::{self, Counters};
use crate::plan::{Spec, BURST_MSGS};

/// Nearest-rank percentile (`q` in 0..=1); 0 for no samples.
pub fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    pct(v, 0.5)
}

/// Consecutive windows a run's samples are cut into (one per world of an
/// untraced run). A reported percentile is the median of the per-window
/// percentiles, so a disturbance of the machine that lasts one window,
/// or an unlucky thread placement of one world, does not move the figure.
const WINDOWS: usize = 10;

/// `pct` over up to `WINDOWS` windows, each keeping at least ten samples
/// beyond its percentile.
fn windowed(v: &[f64], q: f64) -> f64 {
    let min_len = (10.0 / (1.0 - q)).ceil() as usize;
    let k = (v.len() / min_len).clamp(1, WINDOWS);
    let per: Vec<f64> = v.chunks(v.len().div_ceil(k).max(1)).map(|c| pct(c, q)).collect();
    median(&per)
}

/// Ops per second of the median round. Every round runs the same
/// multiset of ops, so this is the closed loop's throughput with the
/// scheduler stalls of a few rounds left out (they show in the `tail.*`
/// metrics instead).
fn round_rate(rounds: &[(u64, f64)]) -> f64 {
    let per: Vec<f64> = rounds.iter().map(|r| ratio(r.0 as f64, r.1)).collect();
    median(&per)
}

fn lat(v: &[Sample]) -> Vec<f64> {
    v.iter().map(|s| s.us).collect()
}

/// Goodput of a bulk series in MB/s (bytes per microsecond): all bytes
/// moved over the time the same ops take at each size's median latency,
/// so a few stalled transfers do not swing the figure.
fn goodput_mb_s(v: &[Sample]) -> f64 {
    let mut sizes: Vec<usize> = v.iter().map(|s| s.bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let (mut bytes, mut us) = (0.0, 0.0);
    for size in sizes {
        let lat: Vec<f64> = v.iter().filter(|s| s.bytes == size).map(|s| s.us).collect();
        bytes += (size * lat.len()) as f64;
        us += median(&lat) * lat.len() as f64;
    }
    ratio(bytes, us)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line plus the report table.
pub struct Metrics {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics { correct: true, attempted: 0, failed: 0, values: Vec::new() }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    pub fn print_table(&self) {
        for (name, value, unit) in &self.values {
            println!("  {name:<42} {value:>16.4} {unit}");
        }
        println!(
            "  ops attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn end_to_end(out: &mut Metrics, setups: &[SetupSample], pe0: &PeOut) {
    let s = &pe0.series;
    let setup: Vec<f64> = setups.iter().map(|x| x.setup_s).collect();
    out.push("setup_s", median(&setup), "s");
    out.push("peak_rss_mb", crate::peak_rss_mb(), "MiB");
    out.push("ops_per_s", round_rate(&pe0.untraced.rounds), "1/s");
    out.push("put_p50_us", windowed(&lat(&s.put), 0.5), "us");
    out.push("get_p50_us", windowed(&lat(&s.get), 0.5), "us");
    out.push("amo_p50_us", windowed(&lat(&s.amo), 0.5), "us");
    out.push("put_mb_s", goodput_mb_s(&s.bulk_put), "MB/s");
    out.push("get_mb_s", goodput_mb_s(&s.bulk_get), "MB/s");
    out.push("burst_msgs_per_s", ratio(BURST_MSGS as f64 * 1e6, median(&lat(&s.burst))), "1/s");
    out.push("barrier_p50_us", windowed(&lat(&s.barrier), 0.5), "us");
    out.push("allreduce_p50_us", windowed(&lat(&s.allreduce), 0.5), "us");
    out.push("broadcast_p50_us", windowed(&lat(&s.broadcast), 0.5), "us");
}

pub fn per_layer(
    out: &mut Metrics,
    spec: &Spec,
    seed: u64,
    setups: &[SetupSample],
    pe0: PeOut,
    counters: Counters,
) -> Result<(), String> {
    let log = pe0.log.as_ref().ok_or("traced run recorded no event log")?;
    let dropped = log.dropped();
    let verdict = ntb_net::check(&pe0.events, spec.pes);
    println!(
        "trace: {} events, {} dropped, checker {} ({} puts, {} gets, {} AMOs, {} barriers checked)",
        pe0.events.len(),
        dropped,
        if verdict.is_clean() { "clean" } else { "VIOLATED" },
        verdict.puts_checked,
        verdict.gets_checked,
        verdict.amos_checked,
        verdict.barriers_checked
    );
    if dropped > 0 || !verdict.is_clean() {
        let text = verdict.render_violations();
        println!("{}", text.lines().take(40).collect::<Vec<_>>().join("\n"));
        out.correct = false;
    }
    let traced_end = pe0.events.partition_point(|e| e.seq <= pe0.traced_seq_end);
    let ev = layers::replay(&pe0.events[..traced_end]);
    let micro = layers::port_micro(crate::exec::model(spec), seed, 200)?;
    for m in &micro.mismatches {
        println!("output check FAILED: {m}");
        out.correct = false;
    }

    let bringup: Vec<f64> = setups.iter().map(|x| x.bringup_s).collect();
    let alloc: Vec<f64> = setups.iter().map(|x| x.setup_s - x.bringup_s).collect();
    let p = &pe0.probes;
    let s: &Series = &pe0.series;
    let ops = pe0.traced.ops as f64;
    out.push("core.runtime.bringup_s", median(&bringup), "s");
    out.push("core.heap.alloc_s", median(&alloc), "s");
    out.push("core.ctx.put_issue_us", median(&s.put_issue_us), "us");
    out.push("core.ctx.quiet_us", median(&s.put_quiet_us), "us");
    out.push("core.ctx.overhead_us", median(&p.ctx_put_us) - median(&p.node_put_us[0]), "us");
    out.push("core.heap.malloc_us", median(&p.malloc_us), "us");
    out.push("core.heap.free_us", median(&p.free_us), "us");
    out.push(
        "core.barrier.rounds",
        ratio(ev.barrier_rounds as f64, ev.barrier_starts as f64),
        "count",
    );
    out.push("core.collectives.barriers_per_allreduce", median(&p.barriers_per_allreduce), "count");
    out.push("core.collectives.barriers_per_broadcast", median(&p.barriers_per_broadcast), "count");
    for (i, label) in layers::NODE_LABELS.iter().enumerate() {
        out.push(&format!("net.node.put_us.{label}"), median(&p.node_put_us[i]), "us");
        out.push(&format!("net.node.get_us.{label}"), median(&p.node_get_us[i]), "us");
    }
    out.push("net.node.put_ack_us", median(&ev.put_ack_us), "us");
    out.push("net.service.dispatch_us", median(&ev.dispatch_us), "us");
    out.push(
        "net.slots.frames_per_doorbell",
        ratio(ev.coalesced_slots as f64, ev.coalesced_doorbells as f64),
        "count",
    );
    let frames = (ev.frame_tx + ev.slot_publish) as f64;
    out.push("net.mailbox.frame_share", ratio(ev.frame_tx as f64, frames), "ratio");
    out.push("net.forwarder.fwd_per_op", p.fwd_per_op, "count");
    out.push("net.pending.get_req_us", median(&ev.get_req_us), "us");
    out.push(
        "net.pending.aperture_share",
        ratio(ev.aperture_gets as f64, ev.api_gets as f64),
        "ratio",
    );
    out.push(
        "net.pending.subreqs_per_get",
        ratio(ev.get_subreqs as f64, (ev.api_gets - ev.aperture_gets) as f64),
        "count",
    );
    out.push("net.pending.amo_us", median(&ev.amo_us), "us");
    out.push("net.frames_per_op", ratio(frames, ops), "count");
    out.push("net.retries", counters.retries as f64, "count");
    for (i, label) in layers::DMA_LABELS.iter().enumerate() {
        out.push(&format!("sim.port.dma_us.{label}"), median(&micro.dma_us[i]), "us");
    }
    out.push("sim.port.doorbell_us", median(&micro.doorbell_us), "us");
    out.push("sim.port.spad_us", median(&micro.spad_us), "us");
    out.push("sim.port.pio_write_us", median(&micro.pio_write_us), "us");
    out.push("sim.port.aperture_read_us", median(&micro.aperture_read_us), "us");
    out.push("sim.doorbells_per_op", ratio(counters.doorbells as f64, ops), "count");
    out.push("sim.dma_ops_per_op", ratio(counters.dma_ops as f64, ops), "count");
    out.push("sim.pio_ops_per_op", ratio(counters.pio_ops as f64, ops), "count");
    out.push("sim.spad_per_op", ratio(counters.spad as f64, ops), "count");
    out.push(
        "sim.wire_bytes_per_byte",
        ratio(counters.bytes_tx as f64, pe0.traced.bytes as f64),
        "ratio",
    );
    let untraced = round_rate(&pe0.untraced.rounds);
    let traced = round_rate(&pe0.traced.rounds);
    out.push("trace.overhead_pct", ratio(untraced - traced, untraced) * 100.0, "%");
    out.push("tail.put_p95_us", windowed(&lat(&s.put), 0.95), "us");
    out.push("tail.get_p95_us", windowed(&lat(&s.get), 0.95), "us");
    out.push("tail.barrier_p95_us", windowed(&lat(&s.barrier), 0.95), "us");
    Ok(())
}

/// Print each latency cluster's share of a series and how far (in
/// percentage points of the samples) p50 and p95 sit from the nearest
/// boundary between clusters ordered by their medians.
pub fn clusters(s: &Series) {
    for (name, v) in [("put", &s.put), ("get", &s.get), ("amo", &s.amo)] {
        if v.is_empty() {
            continue;
        }
        let mut names: Vec<&str> = v.iter().map(|x| x.cluster).collect();
        names.sort_unstable();
        names.dedup();
        let mut groups: Vec<(&str, f64, f64)> = names
            .into_iter()
            .map(|c| {
                let members: Vec<f64> = v.iter().filter(|x| x.cluster == c).map(|x| x.us).collect();
                (c, members.len() as f64 / v.len() as f64, median(&members))
            })
            .collect();
        groups.sort_by(|a, b| a.2.total_cmp(&b.2));
        // Only a step of more than 5% between neighbouring cluster
        // medians is a boundary a percentile can fall on.
        let mut edges = Vec::new();
        let mut acc = 0.0;
        for pair in groups.windows(2) {
            acc += pair[0].1;
            if pair[1].2 > 1.05 * pair[0].2 {
                edges.push(acc * 100.0);
            }
        }
        let gap = |q: f64| edges.iter().map(|e| (e - q).abs()).fold(f64::INFINITY, f64::min);
        let shares: Vec<String> = groups
            .iter()
            .map(|(c, share, med)| format!("{c} {:.1}% (p50 {med:.0} us)", share * 100.0))
            .collect();
        println!(
            "clusters {name}: {} | p50 {:.1} pts and p95 {:.1} pts from the nearest boundary",
            shares.join(", "),
            gap(50.0),
            gap(95.0)
        );
    }
}
