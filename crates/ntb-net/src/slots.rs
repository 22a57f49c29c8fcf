//! The coalescing transmit ring: multi-slot mailboxes with one doorbell
//! per drained batch.
//!
//! The legacy scratchpad mailbox ([`crate::mailbox`]) is a one-slot
//! protocol: every frame waits for the previous frame's consumption,
//! publishes four ScratchPad registers, and rings its own doorbell — one
//! full link round-trip and one interrupt per message. That per-op
//! overhead dominates small transfers (the paper's Fig. 8/9 story), so
//! this module pipelines the hot path:
//!
//! * The window gains a **ring of mailbox slots** past the control slot
//!   (see [`WindowLayout::with_ring`]): each slot is a 32-byte record
//!   (header word, length, offset, aux, sequence, deadline, CRC) plus a
//!   private payload lane. A sender publishes record + payload with plain window
//!   writes, keeping several frames in flight at once.
//! * Headers are written **last and in batch** by [`TxSlotRing::flush`]:
//!   after the batch's payloads land (small ones by zero-copy PIO below
//!   the crossover threshold, large ones as one chained DMA submission
//!   with a single completion), every staged header is published and ONE
//!   `DB_DMAPUT` doorbell covers the whole batch.
//! * The receiver's service thread drains every pending slot per
//!   interrupt **in publish order** ([`RxSlotRing`]): it starts at its
//!   head cursor and stops at the first empty slot, zeroing each header
//!   as the per-slot acknowledgement. The sender polls a slot's header
//!   back to zero (a non-posted read) before reusing it, so flow control
//!   needs no reverse channel.
//! * Both sides walk the same cursor sequence (`slot = cursor %
//!   ring_slots`), so the ring is a FIFO lane: frames one sender publishes
//!   on one link are dispatched in the order they were published, so
//!   the last of several puts to one address wins. (This orders frames
//!   over one link, not end to end: a forwarding host may requeue or
//!   shed a frame, and a corrupted one is retransmitted late.) The
//!   sender never leaves a gap behind its cursor: a publish that fails
//!   does not advance it, and a flush that withholds headers rewinds it
//!   to the first withheld slot.
//!
//! Loss tolerance mirrors the scratchpad path: a swallowed doorbell is
//! recovered by the sender's bounded re-ring and the receiver's idle
//! poll; a corrupted record or payload fails the per-slot CRC (armed only
//! when the link has an active fault plan) and is consumed without
//! dispatch, leaving recovery to end-to-end retransmission. A header
//! zeroed in flight (a flipped byte on an otherwise one-byte header)
//! reads as an empty slot and parks the receiver's cursor there; the
//! sender sees the same slot free, and its next lap's publish fills the
//! hole and restarts the drain. The unacked-put ledger provides
//! exactly-once delivery for whatever a fault drops.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ntb_sim::{
    DmaRequest, EventKind, NtbError, NtbPort, Obs, Region, Result, TimeModel, TransferMode,
};
use parking_lot::Mutex;

use crate::config::NetConfig;
use crate::crc::crc32;
use crate::doorbells::DB_DMAPUT;
use crate::frame::Frame;
use crate::layout::WindowLayout;

/// Byte offset of the record body (everything after the header word).
const BODY_OFF: u64 = 4;
/// Record body length: len word, offset, aux, slot sequence, deadline, CRC.
const BODY_LEN: usize = 24;

/// One frame staged in the current batch: its header word is withheld
/// until [`TxSlotRing::flush`] publishes the whole batch.
#[derive(Debug, Clone, Copy)]
struct StagedSlot {
    idx: u32,
    header: u32,
    seq: u32,
}

#[derive(Debug, Default)]
struct TxState {
    /// Slot cursor of the next publish (slot = cursor % ring_slots). It
    /// doubles as the slot sequence number that rides the record, so
    /// publish and drain events pair up in the trace.
    cursor: u32,
    /// Frames staged since the last flush, in publish order.
    staged: Vec<StagedSlot>,
    /// DMA descriptors accumulated for the batch's large payloads;
    /// submitted as one chain at flush time.
    dma_reqs: Vec<DmaRequest>,
}

/// The transmit side of one link direction's slot ring.
pub struct TxSlotRing {
    port: Arc<NtbPort>,
    layout: WindowLayout,
    obs: Obs,
    model: Arc<TimeModel>,
    pio_crossover: u64,
    payload_max: u64,
    batch_cap: u32,
    abort: Option<Arc<AtomicBool>>,
    retry: Option<(Duration, u32)>,
    state: Mutex<TxState>,
}

impl TxSlotRing {
    /// Transmit ring of `port`, publishing into the peer's window ring
    /// area described by `layout`.
    pub fn new(
        port: Arc<NtbPort>,
        layout: WindowLayout,
        cfg: &NetConfig,
        model: Arc<TimeModel>,
        obs: Obs,
    ) -> Self {
        assert!(layout.has_ring(), "TxSlotRing needs a layout with a ring area");
        TxSlotRing {
            port,
            layout,
            obs,
            model,
            pio_crossover: cfg.pio_crossover,
            payload_max: cfg.coalesce_payload_max,
            batch_cap: cfg.batch_cap(),
            abort: None,
            retry: None,
            state: Mutex::new(TxState::default()),
        }
    }

    /// Install an abort flag: a publish blocked on an occupied slot fails
    /// with `DmaShutdown` once the flag is raised (network teardown).
    pub fn set_abort(&mut self, flag: Arc<AtomicBool>) {
        self.abort = Some(flag);
    }

    /// Bound the slot-free wait: after `timeout` the drain doorbell is
    /// re-rung (recovering a dropped interrupt), and after `max_rerings`
    /// such rounds the publish fails with [`NtbError::LinkFailed`].
    pub fn set_retry(&mut self, timeout: Duration, max_rerings: u32) {
        self.retry = Some((timeout, max_rerings));
    }

    /// Whether a payload of `len` bytes fits a slot's payload lane.
    pub fn fits(&self, len: usize) -> bool {
        len as u64 <= self.payload_max
    }

    /// Frames staged but not yet flushed (diagnostics and tests).
    pub fn staged(&self) -> usize {
        self.state.lock().staged.len()
    }

    /// Wait until slot `idx`'s header reads back zero (the receiver
    /// consumed its previous occupant). Non-posted read per poll; bounded
    /// by the retry policy like the scratchpad wait.
    ///
    /// The wait escalates instead of busy-spinning forever: a short pure
    /// spin catches the common sub-microsecond free, then the thread
    /// yields its core, then it parks for exponentially growing slices
    /// (capped at 64 µs) so a long-occupied slot costs interrupts, not a
    /// pegged core.
    fn wait_slot_free(&self, idx: u32) -> Result<()> {
        let off = self.layout.ring_slot_off(idx);
        let mut buf = [0u8; 4];
        let mut spins: u32 = 0;
        let mut round_start = Instant::now();
        let mut rounds: u32 = 0;
        loop {
            self.port.outgoing().read_bytes(off, &mut buf, TransferMode::Memcpy)?;
            if buf == [0u8; 4] {
                return Ok(());
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                if self.abort.as_ref().is_some_and(|f| f.load(std::sync::atomic::Ordering::SeqCst))
                {
                    return Err(NtbError::DmaShutdown);
                }
                if let Some((timeout, max_rerings)) = self.retry {
                    if round_start.elapsed() >= timeout {
                        if rounds >= max_rerings {
                            // RESOLVES(none): slot acquisition failed before
                            // the frame was staged — nothing was registered.
                            return Err(NtbError::LinkFailed { attempts: rounds + 1 });
                        }
                        rounds += 1;
                        round_start = Instant::now();
                        // The peer likely missed the interrupt for the
                        // batch occupying this slot; ring again. A down
                        // link rejects the ring — keep waiting, the
                        // retry budget bounds us.
                        let _ = self.port.ring_peer(DB_DMAPUT);
                    }
                }
            }
            if spins < 64 {
                std::hint::spin_loop();
            } else if spins < 512 {
                std::thread::yield_now();
            } else {
                // 1, 2, 4 ... 64 µs parks; a pending unpark or timeout
                // both resume the poll, so correctness is unchanged.
                let exp = (spins - 512).min(6);
                // DEADLINE-CLIPPED: micro-park poll quantum; the re-ring
                // retry budget above bounds the whole wait.
                std::thread::park_timeout(Duration::from_micros(1 << exp));
            }
        }
    }

    /// Stage `frame` (+ payload) into the next free ring slot without
    /// ringing a doorbell. The payload and record body are written now;
    /// the header word is withheld until [`flush`](Self::flush) publishes
    /// the batch. Auto-flushes first when the batch cap is reached.
    pub fn publish(&self, mut frame: Frame, payload: Option<&[u8]>) -> Result<()> {
        let data = payload.unwrap_or(&[]);
        debug_assert!(self.fits(data.len()), "payload exceeds the slot lane");
        crate::lockdep_track!(&crate::lockdep::NET_TXRING);
        let mut st = self.state.lock();
        if st.staged.len() as u32 >= self.batch_cap {
            self.flush_locked(&mut st)?;
        }
        let seq = st.cursor;
        let idx = seq % self.layout.ring_slots;
        self.wait_slot_free(idx)?;
        frame.seq = seq as u16;
        let words = frame.encode();
        let mut dma = None;
        if !data.is_empty() {
            let lane = self.layout.ring_lane_off(idx);
            if frame.mode == TransferMode::Memcpy || data.len() as u64 <= self.pio_crossover {
                // Zero-copy PIO fast path: below the crossover a CPU
                // store beats paying DMA setup (paper Fig. 9).
                self.port.outgoing().write_bytes(lane, data, TransferMode::Memcpy)?;
            } else {
                let staging = Region::anonymous(data.len() as u64);
                staging.write(0, data)?;
                self.model.delay(self.model.local_copy_time(data.len() as u64));
                dma = Some(DmaRequest {
                    src: staging,
                    src_offset: 0,
                    dst_offset: lane,
                    len: data.len() as u64,
                });
            }
        }
        let mut body = [0u8; BODY_LEN];
        body[0..4].copy_from_slice(&words[1].to_le_bytes());
        body[4..8].copy_from_slice(&words[2].to_le_bytes());
        body[8..12].copy_from_slice(&words[3].to_le_bytes());
        body[12..16].copy_from_slice(&seq.to_le_bytes());
        body[16..20].copy_from_slice(&frame.deadline_us.to_le_bytes());
        // Per-slot integrity word, armed (like the control-slot CRC) only
        // on links with an active fault plan. Covers the header word too —
        // it is written separately at flush time, and a corrupted header
        // that still decodes would otherwise dispatch a frame with garbage
        // routing fields.
        if self.port.outgoing().faults().is_active() {
            let mut crc = slot_crc(words[0], &body);
            if !data.is_empty() {
                crc ^= crc32(data);
            }
            body[20..24].copy_from_slice(&crc.to_le_bytes());
        }
        self.port.outgoing().write_bytes(
            self.layout.ring_slot_off(idx) + BODY_OFF,
            &body,
            TransferMode::Memcpy,
        )?;
        // The slot is staged only once every write succeeded: a failed
        // publish leaves the cursor where it was, so no gap opens.
        st.dma_reqs.extend(dma);
        st.cursor = seq.wrapping_add(1);
        st.staged.push(StagedSlot { idx, header: words[0], seq });
        self.obs.emit(EventKind::SlotPublish, u64::from(seq), [data.len() as u64, u64::from(idx)]);
        Ok(())
    }

    /// Drop the staged batch without publishing it and rewind the cursor
    /// to its first slot. A restarting node calls this: the batch belongs
    /// to the crashed incarnation, whose put ids the new one reuses.
    pub fn discard_staged(&self) {
        crate::lockdep_track!(&crate::lockdep::NET_TXRING);
        let mut st = self.state.lock();
        Self::withhold(&mut st, 0);
    }

    /// Give up on `st.staged[from..]`: their headers were never written,
    /// so rewinding the cursor to the first of them keeps the published
    /// sequence gap-free (the receiver's cursor would otherwise park on
    /// the empty slot forever).
    fn withhold(st: &mut TxState, from: usize) {
        if let Some(first) = st.staged.get(from) {
            st.cursor = first.seq;
        }
        st.staged.clear();
        st.dma_reqs.clear();
    }

    /// Publish the staged batch: submit the accumulated DMA chain (one
    /// completion for every large payload), then write every header word,
    /// then ring ONE doorbell. On a chain error no header is written —
    /// the slots stay free and end-to-end retransmission recovers.
    pub fn flush(&self) -> Result<()> {
        crate::lockdep_track!(&crate::lockdep::NET_TXRING);
        let mut st = self.state.lock();
        self.flush_locked(&mut st)
    }

    fn flush_locked(&self, st: &mut TxState) -> Result<()> {
        if st.staged.is_empty() {
            st.dma_reqs.clear();
            return Ok(());
        }
        let reqs = std::mem::take(&mut st.dma_reqs);
        if !reqs.is_empty() {
            if let Err(e) = self.port.dma_transfer_chain(reqs) {
                // No header was written: every staged slot still reads
                // zero at the receiver and is reused from the rewound
                // cursor.
                Self::withhold(st, 0);
                return Err(e);
            }
        }
        let first = st.staged[0].seq;
        let mut written = 0usize;
        let mut err: Option<NtbError> = None;
        for s in &st.staged {
            match self.port.outgoing().write_bytes(
                self.layout.ring_slot_off(s.idx),
                &s.header.to_le_bytes(),
                TransferMode::Memcpy,
            ) {
                Ok(()) => written += 1,
                Err(e) => {
                    // Later headers are withheld (their slots stay free);
                    // the already-published prefix still needs its
                    // doorbell below.
                    err = Some(e);
                    break;
                }
            }
        }
        Self::withhold(st, written);
        if written > 0 {
            match self.port.ring_peer(DB_DMAPUT) {
                Ok(()) => {
                    self.obs.emit(
                        EventKind::DoorbellCoalesce,
                        u64::from(first),
                        [written as u64, 0],
                    );
                }
                // Published frames without a ring are still recovered by
                // the receiver's idle poll and the sender's re-ring.
                Err(e) => err = err.or(Some(e)),
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for TxSlotRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxSlotRing")
            .field("slots", &self.layout.ring_slots)
            .field("staged", &self.staged())
            .finish()
    }
}

/// One successfully decoded ring slot on the receive side.
#[derive(Debug)]
pub struct DrainedSlot {
    /// The decoded frame.
    pub frame: Frame,
    /// Payload copied out of the slot's lane (`None` for payload-free
    /// kinds).
    pub payload: Option<Vec<u8>>,
    /// Slot index the frame occupied.
    pub slot_idx: u32,
    /// The sender's slot sequence number (pairs publish with drain in
    /// the trace).
    pub slot_seq: u32,
}

/// What the receiver found in one ring slot.
#[derive(Debug)]
pub enum SlotRead {
    /// Header is zero: nothing published (or already consumed).
    Empty,
    /// Header non-zero but the record failed to decode or its CRC did
    /// not match; the slot (index carried) must be consumed without
    /// dispatch.
    Corrupt(u32),
    /// A complete frame.
    Frame(DrainedSlot),
}

/// Read ring slot `idx` from the receiver's own incoming `region`.
/// Does not consume the slot — the caller zeroes the header (see
/// [`consume_slot`]) after copying what it needs.
pub fn read_slot(
    region: &Region,
    layout: &WindowLayout,
    idx: u32,
    check_crc: bool,
) -> Result<SlotRead> {
    let off = layout.ring_slot_off(idx);
    let header_bytes = region.read_vec(off, 4)?;
    let header = u32::from_le_bytes(header_bytes.try_into().unwrap_or([0; 4]));
    if header == 0 {
        return Ok(SlotRead::Empty);
    }
    let body = region.read_vec(off + BODY_OFF, BODY_LEN as u64)?;
    let word = |i: usize| {
        u32::from_le_bytes(body[i * 4..i * 4 + 4].try_into().unwrap_or([0; 4]))
        // lint: unwrap-ok(read_vec returned exactly BODY_LEN bytes; slices are 4-aligned)
    };
    let (len_w, offset_w, aux_w, slot_seq, deadline_us, stored_crc) =
        (word(0), word(1), word(2), word(3), word(4), word(5));
    let Some(frame) = Frame::decode([header, len_w, offset_w, aux_w]) else {
        return Ok(SlotRead::Corrupt(idx));
    };
    let frame = frame.with_deadline_us(deadline_us);
    let payload = if frame.kind.has_payload() && frame.len > 0 {
        if u64::from(frame.len) > layout.ring_lane {
            // A corrupted length must not trigger an out-of-bounds lane
            // read; treat it like any other integrity failure.
            return Ok(SlotRead::Corrupt(idx));
        }
        Some(region.read_vec(layout.ring_lane_off(idx), u64::from(frame.len))?)
    } else {
        None
    };
    if check_crc {
        let mut crc = slot_crc(header, &body);
        if let Some(data) = &payload {
            if !data.is_empty() {
                crc ^= crc32(data);
            }
        }
        if crc != stored_crc {
            return Ok(SlotRead::Corrupt(idx));
        }
    }
    Ok(SlotRead::Frame(DrainedSlot { frame, payload, slot_idx: idx, slot_seq }))
}

/// CRC over a slot record: the header word plus the first 20 body bytes
/// (length, offset, aux, slot sequence, deadline). The payload CRC is
/// XORed on top by the callers.
fn slot_crc(header: u32, body: &[u8]) -> u32 {
    let mut record = [0u8; 24];
    record[0..4].copy_from_slice(&header.to_le_bytes());
    record[4..24].copy_from_slice(&body[0..20]);
    crc32(&record)
}

/// Consume ring slot `idx`: zero its header in the receiver's own
/// incoming region, freeing it for the sender's next wraparound.
pub fn consume_slot(region: &Region, layout: &WindowLayout, idx: u32) -> Result<()> {
    region.write(layout.ring_slot_off(idx), &0u32.to_le_bytes())
}

/// The receive side of one link direction's slot ring: a head cursor
/// that walks the slots in the order the sender's cursor published them.
#[derive(Debug, Default)]
pub struct RxSlotRing {
    head: AtomicU32,
}

impl RxSlotRing {
    /// Consume the slot at the head and advance past it; `None` at the
    /// first empty slot, which ends the drain pass. Only the endpoint's
    /// service thread pops, so the head needs no lock.
    pub fn pop(
        &self,
        region: &Region,
        layout: &WindowLayout,
        check_crc: bool,
    ) -> Result<Option<SlotRead>> {
        // lint: relaxed-ok(single consumer: only this endpoint's service thread moves the head)
        let head = self.head.load(Ordering::Relaxed);
        let idx = head % layout.ring_slots;
        let read = read_slot(region, layout, idx, check_crc)?;
        if matches!(read, SlotRead::Empty) {
            return Ok(None);
        }
        // The record and payload are already copied out; zeroing the
        // header frees the slot for the sender's next lap.
        consume_slot(region, layout, idx)?;
        // lint: relaxed-ok(single consumer, as above)
        self.head.store(head.wrapping_add(1), Ordering::Relaxed);
        Ok(Some(read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntb_sim::{connect_ports, EventLog, HostMemory, PortConfig, TimeModel};

    fn ring_pair(cfg: &NetConfig) -> (Arc<NtbPort>, Arc<NtbPort>, WindowLayout) {
        let ma = HostMemory::new(0, 64 << 20);
        let mb = HostMemory::new(1, 64 << 20);
        let (a, b) = connect_ports(
            PortConfig::new(0, 1),
            PortConfig::new(1, 0),
            &ma,
            &mb,
            Arc::new(TimeModel::zero()),
        )
        .unwrap();
        let layout = WindowLayout::with_ring(
            cfg.direct_buf,
            cfg.bypass_buf,
            cfg.tx_slots,
            cfg.coalesce_payload_max,
        );
        (a, b, layout)
    }

    fn small_cfg() -> NetConfig {
        let mut cfg = NetConfig::fast(2);
        cfg.direct_buf = 64 << 10;
        cfg.bypass_buf = 64 << 10;
        cfg.tx_slots = 4;
        cfg.coalesce_batch = 4;
        cfg.coalesce_payload_max = 1024;
        cfg
    }

    fn tx_ring(port: &Arc<NtbPort>, layout: WindowLayout, cfg: &NetConfig) -> TxSlotRing {
        let obs = Obs::new(EventLog::new(1, 16), 0, 0);
        TxSlotRing::new(Arc::clone(port), layout, cfg, Arc::new(TimeModel::zero()), obs)
    }

    #[test]
    fn publish_withholds_header_until_flush() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        tx.publish(Frame::put(0, 1, 3, 0, 7, TransferMode::Memcpy), Some(b"abc")).unwrap();
        let region = b.incoming().region();
        assert!(matches!(read_slot(region, &layout, 0, false).unwrap(), SlotRead::Empty));
        assert_eq!(tx.staged(), 1);
        tx.flush().unwrap();
        assert_eq!(tx.staged(), 0);
        let SlotRead::Frame(slot) = read_slot(region, &layout, 0, false).unwrap() else {
            panic!("expected a frame after flush");
        };
        assert_eq!(slot.frame.aux, 7);
        assert_eq!(slot.payload.as_deref(), Some(&b"abc"[..]));
        assert_eq!(slot.slot_seq, 0);
    }

    #[test]
    fn batch_lands_in_distinct_slots_with_one_drain_pass() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        for i in 0..3u32 {
            let body = vec![i as u8 + 1; 8];
            tx.publish(Frame::put(0, 1, 8, i * 8, 100 + i, TransferMode::Memcpy), Some(&body))
                .unwrap();
        }
        tx.flush().unwrap();
        let region = b.incoming().region();
        let mut auxes = vec![];
        for idx in 0..layout.ring_slots {
            if let SlotRead::Frame(s) = read_slot(region, &layout, idx, false).unwrap() {
                auxes.push(s.frame.aux);
                consume_slot(region, &layout, idx).unwrap();
            }
        }
        assert_eq!(auxes, vec![100, 101, 102]);
        // All consumed: the ring reads empty again.
        for idx in 0..layout.ring_slots {
            assert!(matches!(read_slot(region, &layout, idx, false).unwrap(), SlotRead::Empty));
        }
    }

    #[test]
    fn consumed_slot_is_reusable() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let region = b.incoming().region();
        // Two full wraps of the 4-slot ring; consume as we go.
        for round in 0..8u32 {
            tx.publish(Frame::put(0, 1, 4, 0, round + 1, TransferMode::Memcpy), Some(&[9u8; 4]))
                .unwrap();
            tx.flush().unwrap();
            let idx = round % layout.ring_slots;
            let SlotRead::Frame(s) = read_slot(region, &layout, idx, false).unwrap() else {
                panic!("round {round}: expected frame in slot {idx}");
            };
            assert_eq!(s.frame.aux, round + 1);
            assert_eq!(s.slot_seq, round);
            consume_slot(region, &layout, idx).unwrap();
        }
    }

    #[test]
    fn occupied_slot_blocks_with_bounded_wait() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let mut tx = tx_ring(&a, layout, &cfg);
        tx.set_retry(Duration::from_millis(5), 2);
        let region = b.incoming().region();
        // Fill every slot without consuming any.
        for i in 0..4u32 {
            tx.publish(Frame::put(0, 1, 0, 0, i + 1, TransferMode::Memcpy), None).unwrap();
        }
        tx.flush().unwrap();
        // Slot 0 is still occupied: the fifth publish must fail in
        // bounded time, not hang.
        let err = tx.publish(Frame::put(0, 1, 0, 0, 9, TransferMode::Memcpy), None).unwrap_err();
        assert_eq!(err, NtbError::LinkFailed { attempts: 3 });
        // Consume one slot; the publish now succeeds into it.
        consume_slot(region, &layout, 0).unwrap();
        tx.publish(Frame::put(0, 1, 0, 0, 9, TransferMode::Memcpy), None).unwrap();
        tx.flush().unwrap();
        let SlotRead::Frame(s) = read_slot(region, &layout, 0, false).unwrap() else {
            panic!("expected reused slot 0");
        };
        assert_eq!(s.frame.aux, 9);
    }

    /// Drain `rx` until the first empty slot, returning the frames' aux
    /// words in dispatch order.
    fn drain_auxes(rx: &RxSlotRing, region: &Region, layout: &WindowLayout) -> Vec<u32> {
        let mut auxes = vec![];
        while let Some(read) = rx.pop(region, layout, false).unwrap() {
            let SlotRead::Frame(s) = read else { panic!("unexpected {read:?}") };
            auxes.push(s.frame.aux);
        }
        auxes
    }

    #[test]
    fn wrapped_batch_drains_in_publish_order() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let rx = RxSlotRing::default();
        let region = b.incoming().region();
        // Move both cursors to slot 2 of the 4-slot ring.
        for aux in [1, 2] {
            tx.publish(Frame::put(0, 1, 0, 0, aux, TransferMode::Memcpy), None).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain_auxes(&rx, region, &layout), vec![1, 2]);
        // This batch wraps: slots 2, 3, 0, 1. An index-order scan would
        // dispatch 5, 6, 3, 4.
        for aux in 3..=6 {
            tx.publish(Frame::put(0, 1, 0, 0, aux, TransferMode::Memcpy), None).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain_auxes(&rx, region, &layout), vec![3, 4, 5, 6]);
    }

    #[test]
    fn failed_flush_rewinds_so_the_lane_does_not_stall() {
        let mut cfg = small_cfg();
        cfg.pio_crossover = 16; // 64-byte payloads ride the DMA chain
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let rx = RxSlotRing::default();
        let region = b.incoming().region();
        tx.publish(Frame::put(0, 1, 64, 0, 1, TransferMode::Dma), Some(&[0xAA; 64])).unwrap();
        tx.publish(Frame::put(0, 1, 64, 64, 2, TransferMode::Dma), Some(&[0xBB; 64])).unwrap();
        // The DMA engine dies under the batch: no header is written.
        a.kill();
        assert!(tx.flush().is_err());
        assert_eq!(tx.staged(), 0);
        assert!(drain_auxes(&rx, region, &layout).is_empty());
        a.revive();
        // The next frames reuse the withheld slots, so the receiver's
        // cursor (still at slot 0) finds them instead of a hole.
        for aux in [3, 4, 5] {
            tx.publish(Frame::put(0, 1, 0, 0, aux, TransferMode::Memcpy), None).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain_auxes(&rx, region, &layout), vec![3, 4, 5]);
        // And the lane keeps flowing across the next wrap.
        for aux in 6..=9 {
            tx.publish(Frame::put(0, 1, 0, 0, aux, TransferMode::Memcpy), None).unwrap();
        }
        tx.flush().unwrap();
        assert_eq!(drain_auxes(&rx, region, &layout), vec![6, 7, 8, 9]);
    }

    #[test]
    fn discarded_batch_leaves_no_hole() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let rx = RxSlotRing::default();
        let region = b.incoming().region();
        tx.publish(Frame::put(0, 1, 0, 0, 1, TransferMode::Memcpy), None).unwrap();
        tx.discard_staged();
        tx.publish(Frame::put(0, 1, 0, 0, 2, TransferMode::Memcpy), None).unwrap();
        tx.flush().unwrap();
        assert_eq!(drain_auxes(&rx, region, &layout), vec![2]);
    }

    #[test]
    fn large_payload_rides_the_dma_chain() {
        let mut cfg = small_cfg();
        cfg.pio_crossover = 16; // force the chain path for 64-byte payloads
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let p1 = vec![0xAA; 64];
        let p2 = vec![0xBB; 64];
        tx.publish(Frame::put(0, 1, 64, 0, 1, TransferMode::Dma), Some(&p1)).unwrap();
        tx.publish(Frame::put(0, 1, 64, 64, 2, TransferMode::Dma), Some(&p2)).unwrap();
        tx.flush().unwrap();
        let region = b.incoming().region();
        let SlotRead::Frame(s0) = read_slot(region, &layout, 0, false).unwrap() else {
            panic!("slot 0")
        };
        let SlotRead::Frame(s1) = read_slot(region, &layout, 1, false).unwrap() else {
            panic!("slot 1")
        };
        assert_eq!(s0.payload.unwrap(), p1);
        assert_eq!(s1.payload.unwrap(), p2);
    }

    #[test]
    fn deadline_word_roundtrips_through_the_ring() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        let f = Frame::put(0, 1, 3, 0, 7, TransferMode::Memcpy).with_deadline_us(987_654);
        tx.publish(f, Some(b"abc")).unwrap();
        tx.flush().unwrap();
        let region = b.incoming().region();
        let SlotRead::Frame(slot) = read_slot(region, &layout, 0, false).unwrap() else {
            panic!("expected a frame");
        };
        assert_eq!(slot.frame.deadline_us, 987_654);
        assert_eq!(slot.frame.aux, 7);
    }

    #[test]
    fn corrupt_length_is_rejected_not_overread() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        tx.publish(Frame::put(0, 1, 4, 0, 1, TransferMode::Memcpy), Some(&[1, 2, 3, 4])).unwrap();
        tx.flush().unwrap();
        let region = b.incoming().region();
        // Forge an absurd length in the record body (simulating in-flight
        // corruption that still decodes).
        let huge = (layout.ring_lane as u32 + 64).to_le_bytes();
        region.write(layout.ring_slot_off(0) + BODY_OFF, &huge).unwrap();
        assert!(matches!(read_slot(region, &layout, 0, false).unwrap(), SlotRead::Corrupt(0)));
    }

    #[test]
    fn crc_mismatch_reads_corrupt() {
        let cfg = small_cfg();
        let (a, b, layout) = ring_pair(&cfg);
        let tx = tx_ring(&a, layout, &cfg);
        tx.publish(Frame::put(0, 1, 4, 0, 1, TransferMode::Memcpy), Some(&[1, 2, 3, 4])).unwrap();
        tx.flush().unwrap();
        let region = b.incoming().region();
        // The clean-link sender left the CRC word zero, so a checked read
        // against real contents fails — stand-in for a flipped payload
        // byte on a faulty link.
        assert!(matches!(read_slot(region, &layout, 0, true).unwrap(), SlotRead::Corrupt(0)));
    }
}
