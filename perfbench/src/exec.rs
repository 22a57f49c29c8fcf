//! Runs a workload inside one OpenSHMEM world: set-up, closed-loop
//! rounds, output checks, and the traced phase with its layer probes.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ntb_sim::{EventLog, TimeModel, TraceEvent};
use shmem_core::{
    OpOptions, ReduceOp, ShmemConfig, ShmemCtx, ShmemError, ShmemWorld, Topology, TypedSym,
};

use crate::layers::{self, Counters, Probes};
use crate::plan::*;

/// Traced events kept in memory before the traced phase stops early
/// (about 50 bytes each).
const EVENT_CAP: usize = 1_500_000;

/// The world every run of `spec` uses: the builder, an explicit timing
/// model and an explicit ring topology.
pub fn config(spec: &Spec) -> ShmemConfig {
    ShmemConfig::builder()
        .hosts(spec.pes)
        .topology(Topology::ring(spec.pes))
        .barrier_timeout(Duration::from_secs(10))
        .build()
        .with_model(model(spec))
}

pub fn model(spec: &Spec) -> TimeModel {
    if spec.paper_time {
        TimeModel::paper()
    } else {
        TimeModel::zero()
    }
}

/// One timed operation as seen by PE 0.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub us: f64,
    /// Latency cluster the op belongs to (hop count and get path).
    pub cluster: &'static str,
    pub bytes: usize,
}

/// PE 0's samples, one series per end-to-end operation.
#[derive(Debug, Default)]
pub struct Series {
    pub put: Vec<Sample>,
    pub get: Vec<Sample>,
    pub amo: Vec<Sample>,
    pub burst: Vec<Sample>,
    pub bulk_put: Vec<Sample>,
    pub bulk_get: Vec<Sample>,
    pub barrier: Vec<Sample>,
    pub allreduce: Vec<Sample>,
    pub broadcast: Vec<Sample>,
    /// `put_slice_opts` return and the `quiet` after it, per small put.
    pub put_issue_us: Vec<f64>,
    pub put_quiet_us: Vec<f64>,
}

/// One closed-loop phase as PE 0 saw it.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub ops: u64,
    /// RMA payload bytes moved by completed ops.
    pub bytes: u64,
    /// Completed ops and wall seconds of each round, in order.
    pub rounds: Vec<(u64, f64)>,
}

/// The symmetric working set: one region per slot size, the fetch-add
/// counter, the broadcast buffer and the round-control word.
pub struct WorkingSet {
    regions: Vec<TypedSym<u8>>,
    pub counter: TypedSym<u64>,
    bcast: TypedSym<u8>,
    ctl: TypedSym<u64>,
}

impl WorkingSet {
    /// Allocate and stamp every slot with its initial seeded content,
    /// then pass the first barrier.
    pub fn alloc(ctx: &ShmemCtx, seed: u64) -> Result<WorkingSet, ShmemError> {
        let me = ctx.my_pe();
        let mut regions = Vec::new();
        for r in Region::ALL {
            let sym = ctx.malloc_array::<u8>(r.slot_bytes() * r.slots())?;
            for s in 0..r.slots() {
                let data = fill(initial_tag(seed, me, r, s), r.slot_bytes());
                ctx.write_local_slice(&sym, s * r.slot_bytes(), &data)?;
            }
            regions.push(sym);
        }
        let counter = ctx.calloc_array::<u64>(1)?;
        let bcast = ctx.calloc_array::<u8>(BCAST_BYTES)?;
        let ctl = ctx.calloc_array::<u64>(1)?;
        ctx.barrier_all()?;
        Ok(WorkingSet { regions, counter, bcast, ctl })
    }

    pub fn region(&self, r: Region) -> &TypedSym<u8> {
        &self.regions[r.index() as usize]
    }
}

/// Time of one set-up, as the slowest PE saw it.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    /// `ShmemWorld::run` until the PE closure starts (network bring-up).
    pub bringup_s: f64,
    /// `ShmemWorld::run` until the working set is allocated and the
    /// first barrier passed.
    pub setup_s: f64,
}

/// Set a world up and tear it down again.
pub fn setup_once(spec: &Spec, seed: u64) -> Result<SetupSample, String> {
    let t_run = Instant::now();
    let outs = ShmemWorld::run(config(spec), |ctx| {
        let entered = t_run.elapsed();
        WorkingSet::alloc(ctx, seed).map(|_| (entered, t_run.elapsed()))
    })
    .map_err(during("world set-up failed"))?;
    let mut s = SetupSample { bringup_s: 0.0, setup_s: 0.0 };
    for o in outs {
        let (entered, ready) = o.map_err(during("working-set allocation failed"))?;
        s.bringup_s = s.bringup_s.max(entered.as_secs_f64());
        s.setup_s = s.setup_s.max(ready.as_secs_f64());
    }
    Ok(s)
}

/// What one PE hands back from the measured world.
#[derive(Default)]
pub struct PeOut {
    pub setup: Option<(f64, f64)>,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    pub fatal: Option<String>,
    /// PE 0 only.
    pub series: Series,
    pub untraced: Phase,
    pub traced: Phase,
    /// This PE's port and protocol counters over the traced phase.
    pub counters: Counters,
    /// PE 0 only, traced runs: every drained event (sorted by sequence
    /// number), the last sequence number of the traced phase, and the
    /// probes' results.
    pub events: Vec<TraceEvent>,
    pub traced_seq_end: u64,
    pub probes: Probes,
    pub log: Option<Arc<EventLog>>,
}

impl PeOut {
    /// Append a later world's PE 0 samples and untraced phase.
    pub fn absorb(&mut self, o: PeOut) {
        let (s, t) = (&mut self.series, o.series);
        for (a, b) in [
            (&mut s.put, t.put),
            (&mut s.get, t.get),
            (&mut s.amo, t.amo),
            (&mut s.burst, t.burst),
            (&mut s.bulk_put, t.bulk_put),
            (&mut s.bulk_get, t.bulk_get),
            (&mut s.barrier, t.barrier),
            (&mut s.allreduce, t.allreduce),
            (&mut s.broadcast, t.broadcast),
        ] {
            a.extend(b);
        }
        s.put_issue_us.extend(t.put_issue_us);
        s.put_quiet_us.extend(t.put_quiet_us);
        self.untraced.ops += o.untraced.ops;
        self.untraced.bytes += o.untraced.bytes;
        self.untraced.rounds.extend(o.untraced.rounds);
    }
}

/// The measured world. Untraced runs spend `seconds` in one phase.
/// Traced runs split it: an untraced phase, a traced phase with the
/// EventLog on, then the layer probes.
pub struct Run<'a> {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    /// Round number this world starts at; worlds of one run use
    /// disjoint ranges, so every world runs fresh plans.
    pub first_round: u64,
    pub trace: bool,
    pub negative_control: bool,
    pub t_run: Instant,
    pub gate: &'a Barrier,
}

impl Run<'_> {
    pub fn world(&self) -> Result<Vec<PeOut>, String> {
        ShmemWorld::run(config(self.spec), |ctx| {
            let mut pe = Pe::new(ctx, self);
            if let Err(e) = pe.body(self) {
                pe.out.fatal = Some(e);
            }
            pe.out
        })
        .map_err(during("world set-up failed"))
    }
}

/// One PE's view of the run.
pub struct Pe<'a> {
    pub ctx: &'a ShmemCtx,
    pub spec: &'static Spec,
    pub seed: u64,
    pub ws: Option<WorkingSet>,
    /// PE 0: the tag last put into each (pe, region, slot).
    shadow: HashMap<(usize, Region, usize), Option<u64>>,
    /// PE 0: each target's counter value.
    amo_shadow: Vec<Option<u64>>,
    /// This PE's counter total, replayed from the round plans.
    amo_expected: u64,
    round: u64,
    pub out: PeOut,
}

impl<'a> Pe<'a> {
    fn new(ctx: &'a ShmemCtx, run: &Run) -> Pe<'a> {
        Pe {
            ctx,
            spec: run.spec,
            seed: run.seed,
            ws: None,
            shadow: HashMap::new(),
            amo_shadow: vec![Some(0); run.spec.pes],
            amo_expected: 0,
            round: run.first_round,
            out: PeOut::default(),
        }
    }

    fn me(&self) -> usize {
        self.ctx.my_pe()
    }

    fn ws(&self) -> &WorkingSet {
        self.ws.as_ref().expect("working set allocated before any op")
    }

    fn body(&mut self, run: &Run) -> Result<(), String> {
        let entered = run.t_run.elapsed().as_secs_f64();
        self.ws = Some(WorkingSet::alloc(self.ctx, self.seed).map_err(during("alloc"))?);
        self.out.setup = Some((entered, run.t_run.elapsed().as_secs_f64()));
        if !run.trace {
            self.out.untraced = self.phase(run.seconds, None)?;
        } else {
            self.out.untraced = self.phase(0.35 * run.seconds, None)?;
            let log = Arc::clone(self.ctx.node().obs().log().ok_or("world has no event log")?);
            self.quiesce(run.gate);
            if self.me() == 0 {
                log.enable();
                self.out.log = Some(Arc::clone(&log));
            }
            run.gate.wait();
            let before = Counters::read(self.ctx);
            self.out.traced = self.phase(0.35 * run.seconds, Some(&log))?;
            self.out.counters = Counters::read(self.ctx).minus(&before);
            if self.me() == 0 {
                self.out.events.extend(log.take());
                self.out.traced_seq_end = self.out.events.iter().map(|e| e.seq).max().unwrap_or(0);
            }
            layers::probes(self, &log)?;
            self.quiesce(run.gate);
            if self.me() == 0 {
                log.disable();
                self.out.events.extend(log.take());
                self.out.events.sort_by_key(|e| e.seq);
            }
        }
        self.ctx.barrier_all().map_err(during("final barrier"))?;
        let mut expected = self.amo_expected;
        if run.negative_control {
            expected += 1;
        }
        let got = self.ctx.read_local(&self.ws().counter, 0).map_err(|e| e.to_string())?;
        if got != expected {
            self.mismatch(format!("pe {} counter holds {got}, expected {expected}", self.me()));
        }
        Ok(())
    }

    /// Let every PE's in-flight work drain before the EventLog is
    /// switched, so no half-recorded operation straddles the switch.
    fn quiesce(&self, gate: &Barrier) {
        gate.wait();
        std::thread::sleep(Duration::from_millis(50));
    }

    pub fn mismatch(&mut self, what: String) {
        self.out.mismatches += 1;
        self.out.first_mismatch.get_or_insert(what);
    }

    /// Closed-loop rounds until `seconds` have passed (decided by PE 0
    /// at the end of its RMA block and passed on through the control
    /// word).
    fn phase(&mut self, seconds: f64, log: Option<&Arc<EventLog>>) -> Result<Phase, String> {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let (mut ops, mut bytes) = (0u64, 0u64);
        let mut rounds = Vec::new();
        let mut round_start = (start, 0u64);
        loop {
            let plan = round_plan(self.spec, self.seed, self.round);
            for op in &plan.rma {
                if matches!(op.kind, RmaKind::Amo { .. }) && op.target == self.me() {
                    self.amo_expected += op.tag;
                }
            }
            let mut stop = false;
            if self.me() == 0 {
                for op in &plan.rma {
                    let done = self.rma(op);
                    ops += done;
                    bytes += done * op.kind.bytes() as u64;
                }
                stop = Instant::now() >= end || log.is_some() && self.out.events.len() > EVENT_CAP;
                let word = self.round << 1 | u64::from(stop);
                let ctl = self.ws().ctl;
                for pe in 1..self.spec.pes {
                    self.ctx.put(&ctl, 0, word, pe).map_err(during("control put"))?;
                }
            }
            self.ctx.barrier_all().map_err(during("round gate"))?;
            if self.me() != 0 {
                let word = self.ctx.read_local(&self.ws().ctl, 0).map_err(|e| e.to_string())?;
                if word >> 1 != self.round {
                    return Err(format!("control word {word:#x} in round {}", self.round));
                }
                stop = word & 1 == 1;
            }
            for c in &plan.coll {
                self.coll(c)?;
                ops += 1;
            }
            if let (Some(log), 0) = (log, self.me()) {
                self.out.events.extend(log.take());
            }
            self.round += 1;
            let now = Instant::now();
            rounds.push((ops - round_start.1, (now - round_start.0).as_secs_f64()));
            round_start = (now, ops);
            if stop {
                break;
            }
        }
        Ok(Phase { ops, bytes, rounds })
    }

    fn tag_of(&self, pe: usize, r: Region, slot: usize) -> Option<u64> {
        match self.shadow.get(&(pe, r, slot)) {
            Some(t) => *t,
            None => Some(initial_tag(self.seed, pe, r, slot)),
        }
    }

    /// Put `data` into `target`'s slot and wait for `quiet`; returns the
    /// issue and quiet times.
    pub fn put_quiet(
        &mut self,
        r: Region,
        slot: usize,
        target: usize,
        tag: u64,
    ) -> Result<(Duration, Duration), ShmemError> {
        let data = fill(tag, r.slot_bytes());
        let sym = *self.ws().region(r);
        self.shadow.insert((target, r, slot), None);
        let t0 = Instant::now();
        self.ctx.put_slice_opts(&sym, slot * r.slot_bytes(), &data, target, OpOptions::new())?;
        let t1 = Instant::now();
        self.ctx.quiet()?;
        let t2 = Instant::now();
        self.shadow.insert((target, r, slot), Some(tag));
        Ok((t1 - t0, t2 - t1))
    }

    /// Get `target`'s slot and compare it with the bytes last put there.
    pub fn get_checked(
        &mut self,
        r: Region,
        slot: usize,
        target: usize,
    ) -> Result<Duration, ShmemError> {
        let sym = *self.ws().region(r);
        let t0 = Instant::now();
        let got = self.ctx.get_slice(&sym, slot * r.slot_bytes(), r.slot_bytes(), target)?;
        let dt = t0.elapsed();
        self.check_slot(r, slot, target, &got);
        Ok(dt)
    }

    pub fn check_slot(&mut self, r: Region, slot: usize, target: usize, got: &[u8]) {
        if let Some(tag) = self.tag_of(target, r, slot) {
            if got != fill(tag, r.slot_bytes()).as_slice() {
                self.mismatch(format!("get of pe {target} {r:?} slot {slot} returned other bytes"));
            }
        }
    }

    /// Record a put made outside `put_quiet` (direct `NtbNode` probes).
    pub fn note_put(&mut self, target: usize, r: Region, slot: usize, tag: Option<u64>) {
        self.shadow.insert((target, r, slot), tag);
    }

    /// Run one RMA op on PE 0; returns 1 when it completed.
    fn rma(&mut self, op: &RmaOp) -> u64 {
        self.out.attempted += 1;
        let small = op.kind.bytes() as u64 <= self.ctx.config().net.pio_crossover;
        let cluster = match (op.kind.hops(), small) {
            (1, true) => "1hop<=1KiB",
            (1, false) => "1hop>1KiB",
            (_, true) => "2hop<=1KiB",
            _ => "2hop>1KiB",
        };
        let res = match op.kind {
            RmaKind::Put { bytes, .. } | RmaKind::BulkPut { bytes, .. } => self
                .put_quiet(Region::for_bytes(bytes), op.slot, op.target, op.tag)
                .map(|(issue, quiet)| {
                    let s = Sample { us: us(issue + quiet), cluster, bytes };
                    if matches!(op.kind, RmaKind::Put { .. }) {
                        self.out.series.put_issue_us.push(us(issue));
                        self.out.series.put_quiet_us.push(us(quiet));
                        self.out.series.put.push(s);
                    } else {
                        self.out.series.bulk_put.push(s);
                    }
                }),
            RmaKind::Get { bytes, .. } | RmaKind::BulkGet { bytes, .. } => {
                self.get_checked(Region::for_bytes(bytes), op.slot, op.target).map(|dt| {
                    let cluster = if cluster == "1hop<=1KiB" { "aperture" } else { cluster };
                    let s = Sample { us: us(dt), cluster, bytes };
                    if matches!(op.kind, RmaKind::Get { .. }) {
                        self.out.series.get.push(s);
                    } else {
                        self.out.series.bulk_get.push(s);
                    }
                })
            }
            RmaKind::Amo { .. } => self.amo(op).map(|dt| {
                let cluster = if op.kind.hops() == 1 { "1hop" } else { "2hop" };
                self.out.series.amo.push(Sample { us: us(dt), cluster, bytes: 8 });
            }),
            RmaKind::Burst { .. } => self.burst(op).map(|dt| {
                self.out.series.burst.push(Sample {
                    us: us(dt),
                    cluster,
                    bytes: BURST_MSGS * BURST_MSG_BYTES,
                });
            }),
        };
        match res {
            Ok(()) => 1,
            Err(_) => {
                self.out.failed += 1;
                if let RmaKind::Amo { .. } = op.kind {
                    self.amo_shadow[op.target] = None;
                }
                0
            }
        }
    }

    fn amo(&mut self, op: &RmaOp) -> Result<Duration, ShmemError> {
        let counter = self.ws().counter;
        let t0 = Instant::now();
        let old = self.ctx.atomic_fetch_add(&counter, 0, op.tag, op.target)?;
        let dt = t0.elapsed();
        if let Some(want) = self.amo_shadow[op.target] {
            if old != want {
                self.mismatch(format!(
                    "fetch-add on pe {} returned {old}, expected {want}",
                    op.target
                ));
            }
            self.amo_shadow[op.target] = Some(want + op.tag);
        }
        Ok(dt)
    }

    fn burst(&mut self, op: &RmaOp) -> Result<Duration, ShmemError> {
        let r = Region::K4;
        let data = fill(op.tag, r.slot_bytes());
        let sym = *self.ws().region(r);
        let base = op.slot * r.slot_bytes();
        let opts = OpOptions::new().coalesce(true);
        self.shadow.insert((op.target, r, op.slot), None);
        let t0 = Instant::now();
        for (i, msg) in data.chunks(BURST_MSG_BYTES).enumerate() {
            self.ctx.put_slice_opts(&sym, base + i * BURST_MSG_BYTES, msg, op.target, opts)?;
        }
        self.ctx.quiet()?;
        let dt = t0.elapsed();
        self.shadow.insert((op.target, r, op.slot), Some(op.tag));
        Ok(dt)
    }

    /// Run one collective on this PE; PE 0 records its latency.
    pub fn coll(&mut self, c: &CollOp) -> Result<(), String> {
        let me = self.me();
        if me == 0 {
            self.out.attempted += 1;
        }
        self.coll_checked(c).map_err(|e| {
            if me == 0 {
                self.out.failed += 1;
            }
            format!("{:?} failed on pe {me}: {e}", c.kind)
        })
    }

    fn coll_checked(&mut self, c: &CollOp) -> Result<(), ShmemError> {
        let (me, n) = (self.me(), self.spec.pes);
        match c.kind {
            CollKind::Barrier => {
                let t0 = Instant::now();
                self.ctx.barrier_all()?;
                self.record_coll(c.kind, t0.elapsed());
            }
            CollKind::Allreduce => {
                let input = |pe| (0..ALLREDUCE_LEN).map(move |j| allreduce_input(c.tag, pe, j));
                let src: Vec<u64> = input(me).collect();
                let t0 = Instant::now();
                let got = self.ctx.allreduce(ReduceOp::Sum, &src)?;
                self.record_coll(c.kind, t0.elapsed());
                let mut want = vec![0u64; ALLREDUCE_LEN];
                for pe in 0..n {
                    for (w, x) in want.iter_mut().zip(input(pe)) {
                        *w = w.wrapping_add(x);
                    }
                }
                if got != want {
                    self.mismatch(format!(
                        "allreduce on pe {me} returned {got:?}, expected {want:?}"
                    ));
                }
            }
            CollKind::Broadcast => {
                let data = fill(c.tag, BCAST_BYTES);
                let bcast = self.ws().bcast;
                if me == c.root {
                    self.ctx.write_local_slice(&bcast, 0, &data)?;
                }
                let t0 = Instant::now();
                self.ctx.broadcast(&bcast, 0, BCAST_BYTES, c.root)?;
                self.record_coll(c.kind, t0.elapsed());
                if self.ctx.read_local_slice(&bcast, 0, BCAST_BYTES)? != data {
                    self.mismatch(format!(
                        "broadcast from pe {} left other bytes on pe {me}",
                        c.root
                    ));
                }
            }
        }
        Ok(())
    }

    fn record_coll(&mut self, kind: CollKind, dt: Duration) {
        if self.me() != 0 {
            return;
        }
        let s = Sample { us: us(dt), cluster: "all", bytes: 0 };
        match kind {
            CollKind::Barrier => self.out.series.barrier.push(s),
            CollKind::Allreduce => self.out.series.allreduce.push(s),
            CollKind::Broadcast => self.out.series.broadcast.push(s),
        }
    }
}

/// Attach what was being done to an error the program returned.
pub fn during<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
