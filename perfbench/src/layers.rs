//! Per-layer measurements for the traced run. Everything is measured
//! from outside the program: calls into each layer's public functions
//! are timed here, and the counters and EventLog the program already
//! keeps are read and replayed.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntb_sim::{
    connect_ports, DmaRequest, DoorbellWaiter, EventKind, EventLog, HostMemory, PortConfig,
    ReadAperture, Region, TimeModel, TraceEvent,
};
use shmem_core::ShmemCtx;

use crate::exec::{during, us, Pe};
use crate::plan::{fill, mix, CollKind, CollOp, Region as Slot, ALLREDUCE_LEN};

/// One PE's port counters (summed over its links) and protocol
/// retry/shed counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub bytes_tx: u64,
    pub dma_ops: u64,
    pub pio_ops: u64,
    pub doorbells: u64,
    pub spad: u64,
    pub retries: u64,
}

impl Counters {
    pub fn read(ctx: &ShmemCtx) -> Counters {
        let node = ctx.node();
        let mut c = Counters::default();
        for i in 0..node.num_links() {
            let p = node.port_stats_at(i);
            c.bytes_tx += p.bytes_tx;
            c.dma_ops += p.dma_ops;
            c.pio_ops += p.pio_ops;
            c.doorbells += p.doorbells_rung;
            c.spad += p.scratchpad_accesses;
        }
        let s = ctx.stats_snapshot();
        c.retries = s.retransmits + s.deadline_sheds + s.overload_sheds + s.retry_sheds;
        c
    }

    pub fn minus(&self, o: &Counters) -> Counters {
        Counters {
            bytes_tx: self.bytes_tx - o.bytes_tx,
            dma_ops: self.dma_ops - o.dma_ops,
            pio_ops: self.pio_ops - o.pio_ops,
            doorbells: self.doorbells - o.doorbells,
            spad: self.spad - o.spad,
            retries: self.retries - o.retries,
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.bytes_tx += o.bytes_tx;
        self.dma_ops += o.dma_ops;
        self.pio_ops += o.pio_ops;
        self.doorbells += o.doorbells;
        self.spad += o.spad;
        self.retries += o.retries;
    }
}

/// Results of the probes PE 0 runs after the traced phase.
#[derive(Debug, Default)]
pub struct Probes {
    /// Put + quiet of 64 B through `ShmemCtx`, interleaved with the
    /// same op on `NtbNode`.
    pub ctx_put_us: Vec<f64>,
    /// Direct `NtbNode` put + quiet and windowed get, at 64 B, 4 KiB, 1 MiB.
    pub node_put_us: [Vec<f64>; 3],
    pub node_get_us: [Vec<f64>; 3],
    pub malloc_us: Vec<f64>,
    pub free_us: Vec<f64>,
    pub barriers_per_allreduce: Vec<f64>,
    pub barriers_per_broadcast: Vec<f64>,
    /// `FrameFwd` events per two-hop op; 0 on a ring without two-hop partners.
    pub fwd_per_op: f64,
}

pub const NODE_SIZES: [Slot; 3] = [Slot::B64, Slot::K4, Slot::M1];

/// Layer probes, run by every PE (PE 0 issues; the others serve and
/// join the collective probes). The EventLog is on throughout.
pub fn probes(pe: &mut Pe, log: &Arc<EventLog>) -> Result<(), String> {
    let (me, n) = (pe.ctx.my_pe(), pe.spec.pes);
    let (small, big) = if pe.spec.paper_time { (20, 4) } else { (200, 20) };
    if me == 0 {
        let node = Arc::clone(pe.ctx.node());
        let mode = pe.ctx.default_mode();
        let window = pe.ctx.config().net.get_window;
        for (i, r) in NODE_SIZES.into_iter().enumerate() {
            let off = pe.ws.as_ref().expect("allocated").region(r).addr().offset();
            let len = r.slot_bytes();
            for k in 0..if r == Slot::M1 { big } else { small } {
                let tag = mix(&[pe.seed, 0xB0B, i as u64, k as u64]);
                let data = fill(tag, len);
                pe.note_put(1, r, 0, None);
                let t0 = Instant::now();
                node.put_bytes_opts(1, off, &data, mode, false, 0).map_err(during("node put"))?;
                node.quiet().map_err(during("node quiet"))?;
                pe.out.probes.node_put_us[i].push(us(t0.elapsed()));
                pe.note_put(1, r, 0, Some(tag));
                let t0 = Instant::now();
                let got = node
                    .get_bytes_windowed(1, off, len as u64, mode, 0, window)
                    .map_err(during("node get"))?;
                pe.out.probes.node_get_us[i].push(us(t0.elapsed()));
                pe.check_slot(r, 0, 1, &got);
                if r == Slot::B64 {
                    let (issue, quiet) =
                        pe.put_quiet(r, 0, 1, tag ^ 1).map_err(during("ctx put"))?;
                    pe.out.probes.ctx_put_us.push(us(issue + quiet));
                }
            }
        }
        if n >= 4 {
            pe.out.events.extend(log.take());
            let before = pe.out.events.len();
            for k in 0..small {
                pe.put_quiet(Slot::B64, 1, 2, mix(&[pe.seed, 0xF0D, k as u64]))
                    .map_err(during("2-hop put"))?;
                pe.get_checked(Slot::K4, 1, 2).map_err(during("2-hop get"))?;
            }
            pe.out.events.extend(log.take());
            let fwds =
                pe.out.events[before..].iter().filter(|e| e.kind == EventKind::FrameFwd).count();
            pe.out.probes.fwd_per_op = fwds as f64 / (2 * small) as f64;
        }
    }
    pe.ctx.barrier_all().map_err(during("probe barrier"))?;
    for _ in 0..small {
        let t0 = Instant::now();
        let scratch = pe.ctx.malloc_array::<u64>(ALLREDUCE_LEN * n).map_err(during("malloc"))?;
        let t1 = Instant::now();
        pe.ctx.free_array(scratch).map_err(during("free"))?;
        if me == 0 {
            pe.out.probes.malloc_us.push(us(t1 - t0));
            pe.out.probes.free_us.push(us(t1.elapsed()));
        }
    }
    for k in 0..3 {
        for kind in [CollKind::Allreduce, CollKind::Broadcast] {
            if me == 0 {
                pe.out.events.extend(log.take());
            }
            let before = pe.out.events.len();
            pe.coll(&CollOp { kind, root: k % n, tag: mix(&[pe.seed, 0xC011, k as u64]) })?;
            if me == 0 {
                pe.out.events.extend(log.take());
                let starts = pe.out.events[before..]
                    .iter()
                    .filter(|e| e.pe == 0 && e.kind == EventKind::BarrierStart)
                    .count() as f64;
                match kind {
                    CollKind::Allreduce => pe.out.probes.barriers_per_allreduce.push(starts),
                    _ => pe.out.probes.barriers_per_broadcast.push(starts),
                }
            }
        }
    }
    Ok(())
}

/// Ratios and latencies replayed from the traced phase's events.
#[derive(Debug, Default)]
pub struct EventStats {
    pub put_ack_us: Vec<f64>,
    pub dispatch_us: Vec<f64>,
    pub get_req_us: Vec<f64>,
    pub amo_us: Vec<f64>,
    pub frame_tx: u64,
    pub slot_publish: u64,
    pub coalesced_doorbells: u64,
    pub coalesced_slots: u64,
    pub barrier_starts: u64,
    pub barrier_rounds: u64,
    pub api_gets: u64,
    pub aperture_gets: u64,
    pub get_subreqs: u64,
}

pub fn replay(events: &[TraceEvent]) -> EventStats {
    let mut s = EventStats::default();
    // PE 0's get windows (`ApiGetIssue` .. `ApiGetComplete`): a get that
    // sent no frame was served by one aperture read, though it still logs
    // a resolved `GetReqTx`/`GetDone` pair.
    let mut aperture_reqs: HashSet<u64> = HashSet::new();
    let mut window: Option<(Vec<u64>, bool)> = None;
    for e in events.iter().filter(|e| e.pe == 0) {
        match (e.kind, window.as_mut()) {
            (EventKind::ApiGetIssue, _) => window = Some((Vec::new(), false)),
            (EventKind::GetReqTx, Some(w)) => w.0.push(e.op_id),
            (EventKind::SlotPublish | EventKind::FrameTx, Some(w)) => w.1 = true,
            (EventKind::ApiGetComplete, Some(_)) => {
                let (reqs, sent) = window.take().expect("open window");
                s.api_gets += 1;
                if sent {
                    s.get_subreqs += reqs.len() as u64;
                } else {
                    s.aperture_gets += 1;
                    aperture_reqs.extend(reqs);
                }
            }
            _ => {}
        }
    }
    let mut open: HashMap<(EventKind, u16, u64), u64> = HashMap::new();
    let mut slots: HashMap<(u16, u16, u64), u64> = HashMap::new();
    let mut frames: HashMap<(u16, u64, u64), VecDeque<u64>> = HashMap::new();
    let lat = |open: &mut HashMap<_, u64>, k, e: &TraceEvent, out: &mut Vec<f64>| {
        if let Some(t0) = open.remove(&(k, e.pe, e.op_id)) {
            out.push(e.t_us.saturating_sub(t0) as f64);
        }
    };
    for e in events {
        match e.kind {
            EventKind::GetReqTx if e.pe == 0 && aperture_reqs.contains(&e.op_id) => {}
            EventKind::PutIssue | EventKind::GetReqTx | EventKind::AmoReqTx => {
                open.insert((e.kind, e.pe, e.op_id), e.t_us);
            }
            EventKind::PutAcked => lat(&mut open, EventKind::PutIssue, e, &mut s.put_ack_us),
            EventKind::GetDone => lat(&mut open, EventKind::GetReqTx, e, &mut s.get_req_us),
            EventKind::AmoDone => lat(&mut open, EventKind::AmoReqTx, e, &mut s.amo_us),
            EventKind::SlotPublish => {
                s.slot_publish += 1;
                slots.insert((e.pe, e.link, e.op_id), e.t_us);
            }
            EventKind::SlotDrain => {
                if let Some(t0) = slots.remove(&(e.payload[0] as u16, e.link, e.op_id)) {
                    s.dispatch_us.push(e.t_us.saturating_sub(t0) as f64);
                }
            }
            EventKind::FrameTx => {
                s.frame_tx += 1;
                frames.entry((e.link, e.payload[0], e.op_id)).or_default().push_back(e.t_us);
            }
            EventKind::FrameRx => {
                if let Some(t0) =
                    frames.get_mut(&(e.link, e.payload[0], e.op_id)).and_then(|q| q.pop_front())
                {
                    s.dispatch_us.push(e.t_us.saturating_sub(t0) as f64);
                }
            }
            EventKind::DoorbellCoalesce => {
                s.coalesced_doorbells += 1;
                s.coalesced_slots += e.payload[0];
            }
            EventKind::BarrierStart => s.barrier_starts += 1,
            EventKind::BarrierRound => s.barrier_rounds += 1,
            _ => {}
        }
    }
    s
}

/// Timings of single `NtbPort` calls on a bare `connect_ports` pair.
#[derive(Debug, Default)]
pub struct PortMicro {
    pub dma_us: [Vec<f64>; 2],
    pub doorbell_us: Vec<f64>,
    pub spad_us: Vec<f64>,
    pub pio_write_us: Vec<f64>,
    pub aperture_read_us: Vec<f64>,
    pub mismatches: Vec<String>,
}

pub const DMA_SIZES: [usize; 2] = [64 << 10, 1 << 20];
pub const DMA_LABELS: [&str; 2] = ["64KiB", "1MiB"];
const DOORBELL_BIT: u32 = 9;

struct RegionAperture(Region);

impl ReadAperture for RegionAperture {
    fn read(&self, offset: u64, buf: &mut [u8]) -> ntb_sim::Result<bool> {
        self.0.read(offset, buf)?;
        Ok(true)
    }
}

pub fn port_micro(model: TimeModel, seed: u64, reps: usize) -> Result<PortMicro, String> {
    let mem_a = HostMemory::new(0, 16 << 20);
    let mem_b = HostMemory::new(1, 16 << 20);
    let (a, b) = connect_ports(
        PortConfig::new(0, 1),
        PortConfig::new(1, 0),
        &mem_a,
        &mem_b,
        Arc::new(model),
    )
    .map_err(during("connect_ports"))?;
    let mut m = PortMicro::default();
    let result = (|| {
        for (i, len) in DMA_SIZES.into_iter().enumerate() {
            let data = fill(mix(&[seed, 0xD3A, len as u64]), len);
            let src = Region::anonymous(len as u64);
            src.write(0, &data).map_err(during("region write"))?;
            for _ in 0..reps.div_ceil(4) {
                let req =
                    DmaRequest { src: src.clone(), src_offset: 0, dst_offset: 0, len: len as u64 };
                let t0 = Instant::now();
                a.dma_transfer(req).map_err(during("dma"))?;
                m.dma_us[i].push(us(t0.elapsed()));
            }
            if b.incoming().region().read_vec(0, len as u64).map_err(during("window read"))? != data
            {
                m.mismatches.push(format!("{len}-byte DMA landed other bytes"));
            }
        }
        let small = fill(mix(&[seed, 0x910]), 512);
        for k in 0..reps {
            let v = mix(&[seed, k as u64]) as u32;
            let t0 = Instant::now();
            a.spad_write(k % 4, v).map_err(during("spad write"))?;
            m.spad_us.push(us(t0.elapsed()));
            if b.spad_read(k % 4).map_err(during("spad read"))? != v {
                m.mismatches.push("scratchpad read other value".into());
            }
            let t0 = Instant::now();
            a.pio_write(0, &small[..64]).map_err(during("pio write"))?;
            m.pio_write_us.push(us(t0.elapsed()));
        }
        if b.incoming().region().read_vec(0, 64).map_err(during("window read"))? != small[..64] {
            m.mismatches.push("PIO write landed other bytes".into());
        }
        let exposed = Region::anonymous(4096);
        exposed.write(0, &small).map_err(during("region write"))?;
        b.publish_aperture(Arc::new(RegionAperture(exposed)));
        let mut buf = vec![0u8; 512];
        for _ in 0..reps {
            let t0 = Instant::now();
            let hit = a.aperture_read(0, &mut buf).map_err(during("aperture read"))?;
            m.aperture_read_us.push(us(t0.elapsed()));
            if !hit || buf != small {
                m.mismatches.push("aperture read returned other bytes".into());
            }
        }
        b.clear_aperture();
        doorbells(&a, &b, reps, &mut m.doorbell_us)
    })();
    a.shutdown();
    b.shutdown();
    result.map(|()| m)
}

/// `ring_peer` on one side until `wait_doorbell` returns on the other.
fn doorbells(
    a: &ntb_sim::NtbPort,
    b: &ntb_sim::NtbPort,
    reps: usize,
    out: &mut Vec<f64>,
) -> Result<(), String> {
    let (tx, rx) = mpsc::channel::<Instant>();
    std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            for _ in 0..reps {
                match b.wait_doorbell(1 << DOORBELL_BIT, Some(Duration::from_secs(2))) {
                    DoorbellWaiter::Fired(_) => {
                        let woke = Instant::now();
                        b.clear_doorbell(1 << DOORBELL_BIT);
                        if tx.send(woke).is_err() {
                            return;
                        }
                    }
                    DoorbellWaiter::TimedOut => return,
                }
            }
        });
        let mut res = Ok(());
        for _ in 0..reps {
            let t0 = Instant::now();
            if let Err(err) = a.ring_peer(DOORBELL_BIT) {
                res = Err(format!("ring_peer: {err}"));
                break;
            }
            match rx.recv_timeout(Duration::from_secs(2)) {
                Ok(woke) => out.push(us(woke.saturating_duration_since(t0))),
                Err(_) => {
                    res = Err("doorbell never woke its waiter".into());
                    break;
                }
            }
        }
        drop(rx);
        let _ = waiter.join();
        res
    })
}

pub const NODE_LABELS: [&str; 3] = ["64B", "4KiB", "1MiB"];
