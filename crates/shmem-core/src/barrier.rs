//! `shmem_barrier_all`: the two-round ring sweep of paper Fig. 6.
//!
//! The centralized-counter barrier needs shared memory every host can
//! reach, which the switchless ring does not have; the paper instead
//! circulates two doorbell sweeps:
//!
//! 1. **start sweep** — host 0 rings `BARRIER_START` on host 1; every
//!    other host waits for start from its left, then rings start on its
//!    right. The sweep returning to host 0 proves every host reached the
//!    barrier.
//! 2. **end sweep** — host 0 rings `BARRIER_END` rightward and releases;
//!    each host releases when end arrives from its left and passes it on.
//!    Host 0 finally consumes the end signal returning from host N-1,
//!    leaving the doorbell registers clean for the next barrier.
//!
//! Before signalling, each PE drains its outstanding puts (`quiet`) — the
//! paper's "first checked if previous DMA data transfer for Put or Get has
//! been completed" — which is what gives the barrier its memory-ordering
//! semantics.
//!
//! ## Failure behaviour (DESIGN.md §13)
//!
//! Both algorithms consult the heartbeat failure detector:
//!
//! - A barrier **entered** while the membership is degraded either fails
//!   fast with [`ShmemError::PeFailed`] or runs a dissemination barrier
//!   over the live PEs, per [`DegradedPolicy`].
//! - A death **during** a barrier is surfaced as `PeFailed` from the
//!   stalled wait (the waits are sliced so the detector is polled every
//!   [`MEMBERSHIP_POLL`]), well before the full barrier timeout. The
//!   in-flight barrier always fails — survivors retry it, and the retry
//!   resolves under the entry rule above.
//! - A timeout names its culprit: the error carries the [`BarrierPhase`]
//!   that stalled and the neighbour PE whose signal never arrived, and a
//!   `BarrierStall` trace event records the same pair.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ntb_net::{MembershipView, RouteDirection};
use ntb_sim::{EventKind, OpClass};

use crate::config::{BarrierAlgorithm, DegradedPolicy};
use crate::ctx::ShmemCtx;
use crate::error::{Result, ShmemError};
use crate::sync::CmpOp;

/// How often a blocked barrier wait re-polls the failure detector, so a
/// PE dying mid-barrier surfaces as [`ShmemError::PeFailed`] in bounded
/// time instead of the full barrier timeout.
pub(crate) const MEMBERSHIP_POLL: Duration = Duration::from_millis(50);

/// Which part of the barrier protocol a stall or timeout happened in.
/// Carried by [`ShmemError::BarrierTimeout`] and encoded into the
/// `BarrierStall` trace event payload via [`code`](Self::code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierPhase {
    /// Ring sweep: waiting for the barrier-start doorbell from the left.
    StartSweep,
    /// Ring sweep: waiting for the barrier-end doorbell from the left.
    EndSweep,
    /// Dissemination: waiting for the round-*k* flag put.
    Round(u32),
}

impl BarrierPhase {
    /// Stable numeric encoding for trace payloads: 0 = start sweep,
    /// 1 = end sweep, 2+k = dissemination round k.
    pub fn code(&self) -> u64 {
        match self {
            BarrierPhase::StartSweep => 0,
            BarrierPhase::EndSweep => 1,
            BarrierPhase::Round(k) => 2 + u64::from(*k),
        }
    }
}

impl std::fmt::Display for BarrierPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BarrierPhase::StartSweep => write!(f, "start sweep"),
            BarrierPhase::EndSweep => write!(f, "end sweep"),
            BarrierPhase::Round(k) => write!(f, "dissemination round {k}"),
        }
    }
}

impl ShmemCtx {
    /// Synchronize all PEs and complete all outstanding memory updates
    /// (`shmem_barrier_all`).
    pub fn barrier_all(&self) -> Result<()> {
        self.barrier_all_with_timeout(self.cfg.barrier_timeout)
    }

    /// `barrier_all` with an explicit timeout.
    pub fn barrier_all_with_timeout(&self, timeout: Duration) -> Result<()> {
        // The ring sweep addresses neighbours by ring direction, which
        // only exist on shapes where host i±1 is cabled (ring, clique); a
        // torus upgrades to the shape-agnostic dissemination barrier.
        let ring_capable = matches!(
            self.node.topology_kind().shape(),
            ntb_net::Shape::Ring | ntb_net::Shape::Clique
        );
        match self.cfg.barrier_algorithm {
            BarrierAlgorithm::RingSweep if ring_capable => self.barrier_ring_sweep(timeout),
            BarrierAlgorithm::RingSweep | BarrierAlgorithm::Dissemination => {
                self.barrier_dissemination(timeout)
            }
        }
    }

    /// Allocate the next trace epoch and emit `BarrierStart`. Barriers
    /// are collective and called in the same order on every PE, so the
    /// per-PE count of *successful* barriers names the same barrier
    /// everywhere — the checker's barrier invariant groups events by it.
    /// A failed attempt surrenders its epoch via
    /// [`barrier_trace_retire`](Self::barrier_trace_retire), so the retry
    /// re-enters the same epoch no matter how many attempts each PE
    /// needed (the checker accepts re-entry of an epoch a PE never
    /// completed).
    fn barrier_trace_enter(&self) -> u64 {
        // lint: relaxed-ok(monotonic trace-epoch allocation; collective call order names the
        // barrier, not this counter's memory ordering)
        let epoch = self.barrier_trace_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let obs = self.node.obs();
        if obs.is_enabled() {
            obs.emit(EventKind::BarrierStart, epoch, [self.num_pes() as u64, 0]);
        }
        epoch
    }

    /// Surrender a failed attempt's trace epoch (see
    /// [`barrier_trace_enter`](Self::barrier_trace_enter)).
    fn barrier_trace_retire(&self) {
        // lint: relaxed-ok(single app thread per ctx; pairs with the enter above)
        self.barrier_trace_epoch.fetch_sub(1, Ordering::Relaxed);
    }

    fn barrier_trace_exit(&self, epoch: u64, t0: Instant) {
        let obs = self.node.obs();
        if obs.is_enabled() {
            self.node.metrics().record_op(OpClass::Barrier, t0.elapsed().as_micros() as u64);
            obs.emit(EventKind::BarrierEnd, epoch, [0, 0]);
        }
    }

    /// Emit a `BarrierStall` event: this PE is giving up on the barrier,
    /// and `waiting_on` is the neighbour whose `phase` signal it lacked.
    fn barrier_stall(&self, trace_epoch: u64, waiting_on: usize, phase: BarrierPhase) {
        let obs = self.node.obs();
        if obs.is_enabled() {
            obs.emit(EventKind::BarrierStall, trace_epoch, [waiting_on as u64, phase.code()]);
        }
    }

    /// The membership view, if it is missing anyone.
    fn degraded_view(&self) -> Option<MembershipView> {
        let view = self.node.membership().view();
        (view.live_count(self.num_pes()) < self.num_pes()).then_some(view)
    }

    /// First dead PE of `view` (the one named in `PeFailed`).
    fn first_dead(&self, view: &MembershipView) -> usize {
        (0..self.num_pes()).find(|&p| !view.is_live(p)).unwrap_or(0)
    }

    /// The paper's Fig. 6 algorithm: start sweep + end sweep of doorbells
    /// around the ring.
    pub fn barrier_ring_sweep(&self, timeout: Duration) -> Result<()> {
        let t0 = Instant::now();
        let epoch = self.barrier_trace_enter();
        let r = self.ring_sweep_inner(epoch, t0, timeout);
        if r.is_err() {
            self.barrier_trace_retire();
        }
        r
    }

    fn ring_sweep_inner(&self, epoch: u64, t0: Instant, timeout: Duration) -> Result<()> {
        // Complete this PE's outstanding communication first.
        self.quiet()?;
        if self.num_pes() == 1 {
            self.barrier_trace_exit(epoch, t0);
            return Ok(());
        }
        let deadline = Instant::now() + timeout;
        if let Some(view) = self.degraded_view() {
            // The doorbell sweep is structural — it cannot route around a
            // dead host — so a degraded ring synchronizes by
            // dissemination over the live PEs instead (or refuses).
            return self.barrier_degraded(epoch, t0, deadline, view);
        }

        if self.my_pe() == 0 {
            // Initiate the start sweep.
            self.node.send_barrier(RouteDirection::Right, true)?;
            // Wait for it to come around the ring.
            self.wait_sweep(true, deadline, epoch)?;
            if self.node.obs().is_enabled() {
                // Start sweep complete: every PE has entered the barrier.
                self.node.obs().emit(EventKind::BarrierRound, epoch, [0, 0]);
            }
            // Initiate the end sweep.
            self.node.send_barrier(RouteDirection::Right, false)?;
            // Consume the end signal returning from host N-1 so the
            // doorbell register is clean for the next barrier.
            self.wait_sweep(false, deadline, epoch)?;
        } else {
            // Wait for start from the left, pass it right.
            self.wait_sweep(true, deadline, epoch)?;
            self.node.send_barrier(RouteDirection::Right, true)?;
            // Wait for end from the left, pass it right, release.
            self.wait_sweep(false, deadline, epoch)?;
            if self.node.obs().is_enabled() {
                // The end sweep reaching this PE proves the start sweep
                // closed the ring: every PE has entered.
                self.node.obs().emit(EventKind::BarrierRound, epoch, [0, 0]);
            }
            self.node.send_barrier(RouteDirection::Right, false)?;
        }
        self.barrier_trace_exit(epoch, t0);
        Ok(())
    }

    /// Wait for a sweep doorbell from the left neighbour in slices,
    /// polling the failure detector between slices so a mid-barrier death
    /// anywhere in the ring fails the wait promptly.
    fn wait_sweep(&self, start: bool, deadline: Instant, trace_epoch: u64) -> Result<()> {
        let phase = if start { BarrierPhase::StartSweep } else { BarrierPhase::EndSweep };
        let n = self.num_pes();
        let left = (self.my_pe() + n - 1) % n;
        loop {
            let slice = MEMBERSHIP_POLL.min(deadline.saturating_duration_since(Instant::now()));
            if !slice.is_zero() && self.node.wait_barrier(RouteDirection::Left, start, slice)? {
                return Ok(());
            }
            if let Some(view) = self.degraded_view() {
                // A dead PE stalls the sweep permanently; name it now
                // instead of burning the rest of the timeout.
                self.barrier_stall(trace_epoch, left, phase);
                let pe = self.first_dead(&view);
                // RESOLVES(none): barrier sweeps are doorbell-driven — the
                // net layer's fail_dest already swept any tracked entries
                // when the failure detector confirmed the death.
                return Err(ShmemError::PeFailed { pe, epoch: view.epoch });
            }
            if Instant::now() >= deadline {
                self.barrier_stall(trace_epoch, left, phase);
                return Err(ShmemError::BarrierTimeout { phase, waiting_on: left });
            }
        }
    }

    /// The "future work" algorithm: a ⌈log₂N⌉-round dissemination barrier
    /// (Mellor-Crummey & Scott, reference \[20\] in the paper's references). In round
    /// *k* every PE puts the current barrier epoch into the round-*k* flag
    /// of PE `(me + 2^k) mod N` and waits for its own round-*k* flag to
    /// reach the epoch. Signals are ordinary small puts, so they traverse
    /// the ring like any payload — no doorbell vectors are consumed and
    /// the hop count per round stays ≤ N/2.
    pub fn barrier_dissemination(&self, timeout: Duration) -> Result<()> {
        let t0 = Instant::now();
        let trace_epoch = self.barrier_trace_enter();
        let r = self.dissemination_inner(trace_epoch, t0, timeout);
        if r.is_err() {
            self.barrier_trace_retire();
        }
        r
    }

    fn dissemination_inner(&self, trace_epoch: u64, t0: Instant, timeout: Duration) -> Result<()> {
        self.quiet()?;
        let n = self.num_pes();
        if n == 1 {
            self.barrier_trace_exit(trace_epoch, t0);
            return Ok(());
        }
        let deadline = Instant::now() + timeout;
        if let Some(view) = self.degraded_view() {
            return self.barrier_degraded(trace_epoch, t0, deadline, view);
        }
        let epoch = self.barrier_epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        let mut round = 0usize;
        let mut dist = 1usize;
        while dist < n {
            let peer = (self.my_pe() + dist) % n;
            let waiting_on = (self.my_pe() + n - dist) % n;
            let phase = BarrierPhase::Round(round as u32);
            self.put(&self.barrier_flags, round, epoch, peer)?;
            // Wait for our own round flag. Epochs are monotonic, so `>=`
            // tolerates a fast peer that already signalled a later epoch
            // of this round (impossible here, but cheap insurance).
            loop {
                let seen = self.heap.version();
                let v = self.read_local(&self.barrier_flags, round)?;
                if CmpOp::Ge.eval(&v, &epoch) {
                    break;
                }
                if let Some(view) = self.degraded_view() {
                    self.barrier_stall(trace_epoch, waiting_on, phase);
                    let pe = self.first_dead(&view);
                    return Err(ShmemError::PeFailed { pe, epoch: view.epoch });
                }
                if Instant::now() >= deadline {
                    self.barrier_stall(trace_epoch, waiting_on, phase);
                    return Err(ShmemError::BarrierTimeout { phase, waiting_on });
                }
                // Clip the poll tick to the barrier deadline so a short
                // deadline is honored to the millisecond.
                self.heap.wait_change(
                    seen,
                    MEMBERSHIP_POLL
                        .min(Duration::from_millis(20))
                        .min(deadline.saturating_duration_since(Instant::now())),
                );
            }
            if self.node.obs().is_enabled() {
                self.node.obs().emit(
                    EventKind::BarrierRound,
                    trace_epoch,
                    [round as u64, dist as u64],
                );
            }
            dist <<= 1;
            round += 1;
        }
        self.barrier_trace_exit(trace_epoch, t0);
        Ok(())
    }

    /// Barrier over a degraded membership: refuse under
    /// [`DegradedPolicy::Fail`], otherwise run a dissemination barrier
    /// over the sorted live PEs using the dedicated degraded round flags.
    ///
    /// All surviving PEs run the same sequence of barrier calls (the SPMD
    /// contract), so the shared degraded-epoch counter names the same
    /// barrier on each of them even though the live set shrank.
    fn barrier_degraded(
        &self,
        trace_epoch: u64,
        t0: Instant,
        deadline: Instant,
        view: MembershipView,
    ) -> Result<()> {
        let n = self.num_pes();
        if self.cfg.degraded_policy == DegradedPolicy::Fail {
            let pe = self.first_dead(&view);
            // RESOLVES(none): policy check before the degraded round does
            // any communication — nothing is in flight for this barrier.
            return Err(ShmemError::PeFailed { pe, epoch: view.epoch });
        }
        let live = view.live_pes(n);
        let m = live.len();
        // lint: relaxed-ok(SeqCst matches barrier_epoch; collective call order names the epoch)
        let epoch = self.degraded_epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
        if m <= 1 {
            self.barrier_trace_exit(trace_epoch, t0);
            return Ok(());
        }
        let rank = live
            .iter()
            .position(|&p| p == self.my_pe())
            .ok_or(ShmemError::Runtime("degraded barrier on an evicted PE"))?;
        let mut round = 0usize;
        let mut dist = 1usize;
        while dist < m {
            let peer = live[(rank + dist) % m];
            let waiting_on = live[(rank + m - dist) % m];
            let phase = BarrierPhase::Round(round as u32);
            // A peer dying between the view snapshot and this put fails
            // it with PeFailed (the transmit path checks liveness) —
            // exactly the surfacing we want.
            self.put(&self.degraded_flags, round, epoch, peer)?;
            loop {
                let seen = self.heap.version();
                let v = self.read_local(&self.degraded_flags, round)?;
                if CmpOp::Ge.eval(&v, &epoch) {
                    break;
                }
                let now = self.node.membership().view();
                if live.iter().any(|&p| !now.is_live(p)) {
                    // The live set this barrier was planned over is stale:
                    // a participant died mid-round. Fail; the callers
                    // retry and re-plan over the new membership.
                    self.barrier_stall(trace_epoch, waiting_on, phase);
                    let pe = live.iter().copied().find(|&p| !now.is_live(p)).unwrap_or(0);
                    // RESOLVES(none): the stale participant's in-flight ops
                    // were swept by fail_dest at detection; callers re-plan.
                    return Err(ShmemError::PeFailed { pe, epoch: now.epoch });
                }
                if Instant::now() >= deadline {
                    self.barrier_stall(trace_epoch, waiting_on, phase);
                    return Err(ShmemError::BarrierTimeout { phase, waiting_on });
                }
                self.heap.wait_change(
                    seen,
                    Duration::from_millis(20)
                        .min(deadline.saturating_duration_since(Instant::now())),
                );
            }
            if self.node.obs().is_enabled() {
                self.node.obs().emit(
                    EventKind::BarrierRound,
                    trace_epoch,
                    [round as u64, dist as u64],
                );
            }
            dist <<= 1;
            round += 1;
        }
        self.barrier_trace_exit(trace_epoch, t0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_codes_are_stable() {
        assert_eq!(BarrierPhase::StartSweep.code(), 0);
        assert_eq!(BarrierPhase::EndSweep.code(), 1);
        assert_eq!(BarrierPhase::Round(0).code(), 2);
        assert_eq!(BarrierPhase::Round(3).code(), 5);
    }

    #[test]
    fn phase_displays() {
        assert_eq!(BarrierPhase::StartSweep.to_string(), "start sweep");
        assert_eq!(BarrierPhase::EndSweep.to_string(), "end sweep");
        assert_eq!(BarrierPhase::Round(2).to_string(), "dissemination round 2");
    }
}
