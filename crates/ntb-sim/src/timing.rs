//! The timing model: where simulated nanoseconds come from.
//!
//! The reproduction substitutes software for the PLX NTB adapters, so all
//! latency and bandwidth behaviour is *modelled*: every hardware action
//! charges wall-clock time through [`TimeModel`], and every transfer must
//! reserve its link through [`LinkTimer`], which serializes concurrent
//! transfers on the same link direction and applies a duplex penalty when a
//! port sends and receives at once. Because delays are real wall-clock
//! delays, the benchmark harness measures them exactly like the paper
//! measured its prototype — and contention effects (Fig. 8's ring vs
//! independent gap) *emerge* from the reservation discipline instead of
//! being hard-coded.
//!
//! Setting [`TimeModel::scale`] to `0.0` disables every injected delay,
//! turning the stack into a fast functional simulator for the test suite.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::link::LinkSpec;

/// How a payload crosses the NTB: through the descriptor DMA engine or by
/// the CPU storing/loading through the mapped window (PIO `memcpy`). The
/// paper's Fig. 9 compares exactly these two paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferMode {
    /// Descriptor-based DMA (the NTB adapter's engine moves the data).
    Dma,
    /// CPU `memcpy` through the mapped window (PIO).
    Memcpy,
}

impl TransferMode {
    /// Short label used in reports ("DMA" / "memcpy"), matching the paper's
    /// legends.
    pub fn label(self) -> &'static str {
        match self {
            TransferMode::Dma => "DMA",
            TransferMode::Memcpy => "memcpy",
        }
    }
}

/// Direction of travel on one NTB link. `Upstream` is from the port that
/// initiated the connection towards its peer; the names only need to be
/// consistent, not meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDirection {
    /// From connect-initiator to peer.
    Upstream,
    /// From peer to connect-initiator.
    Downstream,
}

impl LinkDirection {
    /// The opposite direction.
    pub fn opposite(self) -> LinkDirection {
        match self {
            LinkDirection::Upstream => LinkDirection::Downstream,
            LinkDirection::Downstream => LinkDirection::Upstream,
        }
    }

    /// 0 for Upstream, 1 for Downstream — stable array index for
    /// per-direction state (timer slots, fault-injection streams).
    pub fn index(self) -> usize {
        match self {
            LinkDirection::Upstream => 0,
            LinkDirection::Downstream => 1,
        }
    }
}

/// All calibrated timing constants of the hardware model.
///
/// The defaults are calibrated so that the benchmark harness reproduces the
/// *shape and magnitude band* of the paper's Figs. 8–10 (see
/// `EXPERIMENTS.md` for the calibration notes). They are deliberately public
/// fields: the ablation benches sweep them.
///
/// Only hardware and host costs live here. How the protocol above behaves
/// — such as whether a blocked requester sees a get's completion when it
/// lands or on the next tick of the paper's sleep-poll — is set in
/// `ntb_net::NetConfig` (`get_poll`).
#[derive(Debug, Clone)]
pub struct TimeModel {
    /// Physical link description (generation, lanes, protocol efficiency).
    pub link: LinkSpec,
    /// Global multiplier applied to every injected delay. `1.0` = paper
    /// scale, `0.0` = no delays (fast tests), values in between shrink all
    /// latencies proportionally so benches can run quickly while keeping
    /// relative shapes.
    pub scale: f64,
    /// Fixed cost of kicking one DMA descriptor: fetch, engine start,
    /// completion write-back.
    pub dma_setup: Duration,
    /// Effective bandwidth of CPU stores through the mapped window
    /// (write-combined posted writes). Slower than DMA on PEX 87xx.
    pub pio_write_bandwidth: f64,
    /// Effective bandwidth of CPU loads through the mapped window
    /// (non-posted reads; each read round-trips the link, so this is far
    /// slower than writes).
    pub pio_read_bandwidth: f64,
    /// One scratchpad register access over the link (32-bit non-posted).
    pub scratchpad_latency: Duration,
    /// Doorbell ring to interrupt delivery at the peer.
    pub doorbell_latency: Duration,
    /// Time from interrupt delivery until the service thread is running its
    /// handler. This models the ISR + kernel wakeup + the paper's
    /// "Sleep & Wait" loop in the service thread (Fig. 5) and is the main
    /// contributor to small-message Put latency.
    pub interrupt_service_delay: Duration,
    /// Bandwidth of the service thread's copy from the incoming window
    /// buffer to the symmetric heap (window memory is mapped uncacheable,
    /// so this is well below normal memcpy speed).
    pub window_copy_bandwidth: f64,
    /// Bandwidth of an ordinary local memcpy (staging user data).
    pub local_memcpy_bandwidth: f64,
    /// Time from "completion flag set" until a blocked requester thread has
    /// woken up and observed it (scheduler latency). Dominates small Get
    /// latency together with the per-hop service delays.
    pub requester_wake_delay: Duration,
    /// Multiplier (> 1) applied to a transfer's wire time when the same
    /// link is simultaneously carrying traffic in the opposite direction.
    /// Models the "connection overheads on both sides of the NTB ports" the
    /// paper blames for the ring-vs-independent throughput gap (Fig. 8).
    pub duplex_penalty: f64,
    /// Per-response-chunk think time at the host *serving* a Get: the
    /// service thread wakes from its sleep loop, stages the chunk and
    /// re-enters the loop between chunks.
    pub get_response_service_delay: Duration,
    /// Extra per-chunk delay when a payload is forwarded through an
    /// intermediate host's bypass buffer (the hop cost visible in the
    /// paper's 2-hop Get curves).
    pub bypass_forward_delay: Duration,
    /// Wait strategy for injected delays. `false` (default) spins the
    /// sub-120 µs tail for microsecond precision — right for the paper's
    /// ≤ 5-host worlds, where only a handful of threads delay at once.
    /// `true` plainly sleeps the whole delay: each wait cedes the core,
    /// so hundreds of concurrently-delaying threads (a 64-PE world runs
    /// ~9 threads per host) overlap their modelled time instead of
    /// serializing on the spin tails. Costs sleep-overshoot precision
    /// (tens of µs per wait); big worlds enable it automatically.
    pub coarse_waits: bool,
}

impl TimeModel {
    /// The calibrated paper-scale model (Gen3 x8, PEX 8733/8749 band).
    pub fn paper() -> Self {
        TimeModel {
            link: LinkSpec::paper_testbed(),
            scale: 1.0,
            dma_setup: Duration::from_micros(8),
            pio_write_bandwidth: 0.125e9,
            pio_read_bandwidth: 0.025e9,
            scratchpad_latency: Duration::from_nanos(600),
            doorbell_latency: Duration::from_micros(3),
            interrupt_service_delay: Duration::from_micros(150),
            window_copy_bandwidth: 0.6e9,
            local_memcpy_bandwidth: 6.0e9,
            requester_wake_delay: Duration::from_micros(25),
            duplex_penalty: 1.18,
            get_response_service_delay: Duration::from_micros(800),
            bypass_forward_delay: Duration::from_micros(500),
            coarse_waits: false,
        }
    }

    /// Switch the wait strategy (see [`TimeModel::coarse_waits`]).
    pub fn with_coarse_waits(mut self, coarse: bool) -> Self {
        self.coarse_waits = coarse;
        self
    }

    /// A model with every injected delay disabled: pure functional
    /// simulation for unit / property / integration tests.
    pub fn zero() -> Self {
        TimeModel { scale: 0.0, ..TimeModel::paper() }
    }

    /// Paper-scale model shrunk by `factor` (e.g. `0.1` makes every latency
    /// 10x smaller so sweeps finish quickly while preserving shapes).
    pub fn scaled(factor: f64) -> Self {
        TimeModel { scale: factor, ..TimeModel::paper() }
    }

    /// Whether any delay is injected at all.
    pub fn enabled(&self) -> bool {
        self.scale > 0.0
    }

    /// Scale a duration by the global factor.
    pub fn scaled_duration(&self, d: Duration) -> Duration {
        if self.scale == 1.0 {
            d
        } else {
            d.mul_f64(self.scale)
        }
    }

    /// Busy-wait for `d` (after scaling). The calibrated delays are mostly
    /// in the 1 µs – 1 ms band, where OS sleep granularity is too coarse, so
    /// we spin with a sleep for the coarse part.
    pub fn delay(&self, d: Duration) {
        if !self.enabled() || d.is_zero() {
            return;
        }
        let d = self.scaled_duration(d);
        if self.coarse_waits {
            std::thread::sleep(d);
        } else {
            spin_for(d);
        }
    }

    /// Block until `deadline` using the model's wait strategy: precise
    /// (spin tail) by default, a plain sleep under
    /// [`coarse_waits`](TimeModel::coarse_waits).
    pub fn wait_until(&self, deadline: Instant) {
        if self.coarse_waits {
            let now = Instant::now();
            if deadline > now {
                std::thread::sleep(deadline - now);
            }
        } else {
            spin_until(deadline);
        }
    }

    /// Wire time for `bytes` under `mode`, *excluding* fixed setup costs.
    pub fn wire_time(&self, bytes: u64, mode: TransferMode) -> Duration {
        let bw = match mode {
            TransferMode::Dma => self.link.effective_bandwidth(),
            TransferMode::Memcpy => self.pio_write_bandwidth,
        };
        Duration::from_secs_f64(bytes as f64 / bw)
    }

    /// Full time to move `bytes` across the link under `mode`, including the
    /// fixed setup cost (DMA descriptor kick; PIO has no setup).
    pub fn transfer_time(&self, bytes: u64, mode: TransferMode) -> Duration {
        let setup = match mode {
            TransferMode::Dma => self.dma_setup,
            TransferMode::Memcpy => Duration::ZERO,
        };
        setup + self.wire_time(bytes, mode)
    }

    /// Time for a PIO *read* of `bytes` through the window.
    pub fn pio_read_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.pio_read_bandwidth)
    }

    /// Time for the service thread to copy `bytes` from an incoming window
    /// buffer into the symmetric heap.
    pub fn window_copy_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.window_copy_bandwidth)
    }

    /// Time for an ordinary local memcpy of `bytes`.
    pub fn local_copy_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.local_memcpy_bandwidth)
    }
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel::paper()
    }
}

/// Wait until `deadline` without monopolizing a core.
///
/// Modelled delays frequently overlap across threads (three hosts
/// transmitting at once is the whole point of Fig. 8), and the harness
/// must also run on small machines — busy-spinning would serialize the
/// simulation on a single-core box and corrupt every concurrent
/// measurement. Long waits sleep (high-resolution timers overshoot by a
/// few tens of microseconds at worst); the tail yields, which polls at
/// scheduler granularity while still ceding the core to runnable peers.
pub fn spin_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > Duration::from_micros(120) {
            // Leave margin for sleep overshoot, then poll.
            std::thread::sleep(remaining - Duration::from_micros(60));
        } else if remaining > Duration::from_micros(3) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Spin for a duration from now.
pub fn spin_for(d: Duration) {
    spin_until(Instant::now() + d);
}

/// Per-host transmit-activity tracker.
///
/// The paper's hosts carry *two* NTB adapters sharing one root complex and
/// memory subsystem; when both move data at once the "connection overheads
/// on both sides of the NTB ports" shave throughput (the Fig. 8
/// ring-vs-independent gap). A transfer marks its sender host busy until
/// its completion deadline; a transfer whose *receiving* host is
/// concurrently transmitting pays the duplex penalty.
#[derive(Debug, Default)]
pub struct HostActivity {
    tx_busy_until: Mutex<Option<Instant>>,
}

impl HostActivity {
    /// Fresh idle tracker.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record that this host transmits until `deadline`.
    pub fn mark_tx(&self, deadline: Instant) {
        let mut b = self.tx_busy_until.lock();
        if b.is_none_or(|t| t < deadline) {
            *b = Some(deadline);
        }
    }

    /// True if the host is transmitting right now.
    pub fn is_tx_busy(&self) -> bool {
        let now = Instant::now();
        self.tx_busy_until.lock().is_some_and(|t| t > now)
    }
}

#[derive(Debug, Default)]
struct LinkTimerInner {
    /// Per-direction time at which the link becomes free.
    busy_until: [Option<Instant>; 2],
}

/// Reservation-based serialization of one NTB link.
///
/// Every transfer asks the timer for a completion deadline: the transfer
/// occupies its direction of the link for its wire time, starting no earlier
/// than the previous reservation's end. If the opposite direction is busy at
/// reservation time, the wire time is stretched by the duplex penalty. The
/// caller copies the payload immediately (the bytes must be visible when the
/// completion deadline passes) and then waits out the deadline.
#[derive(Debug, Default)]
pub struct LinkTimer {
    inner: Mutex<LinkTimerInner>,
}

impl LinkTimer {
    /// New idle link timer.
    pub fn new() -> Arc<Self> {
        Arc::new(LinkTimer { inner: Mutex::new(LinkTimerInner::default()) })
    }

    /// Reserve the link in `dir` for a transfer whose unloaded duration is
    /// `wire_time`. Returns the completion deadline the caller must wait
    /// for. `duplex_penalty` stretches the duration if the opposite
    /// direction is active at reservation time, or if the caller reports
    /// external contention (`contended`, e.g. the receiving host's other
    /// adapter is transmitting).
    pub fn reserve(
        &self,
        dir: LinkDirection,
        wire_time: Duration,
        duplex_penalty: f64,
        contended: bool,
    ) -> Instant {
        let now = Instant::now();
        let mut inner = self.inner.lock();
        let other_busy = inner.busy_until[dir.opposite().index()].is_some_and(|t| t > now);
        let duration = if (other_busy || contended) && duplex_penalty > 1.0 {
            wire_time.mul_f64(duplex_penalty)
        } else {
            wire_time
        };
        let start = match inner.busy_until[dir.index()] {
            Some(t) if t > now => t,
            _ => now,
        };
        let completion = start + duration;
        inner.busy_until[dir.index()] = Some(completion);
        completion
    }

    /// True if the given direction has an unfinished reservation.
    pub fn is_busy(&self, dir: LinkDirection) -> bool {
        let now = Instant::now();
        self.inner.lock().busy_until[dir.index()].is_some_and(|t| t > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_injects_nothing() {
        let m = TimeModel::zero();
        assert!(!m.enabled());
        let t0 = Instant::now();
        m.delay(Duration::from_millis(50));
        assert!(t0.elapsed() < Duration::from_millis(5));
    }

    #[test]
    fn scaled_duration_scales() {
        let m = TimeModel::scaled(0.5);
        assert_eq!(m.scaled_duration(Duration::from_micros(100)), Duration::from_micros(50));
    }

    #[test]
    fn dma_beats_memcpy_on_wire_time() {
        let m = TimeModel::paper();
        let n = 512 * 1024;
        assert!(m.wire_time(n, TransferMode::Dma) < m.wire_time(n, TransferMode::Memcpy));
    }

    #[test]
    fn memcpy_has_no_setup() {
        let m = TimeModel::paper();
        assert_eq!(m.transfer_time(0, TransferMode::Memcpy), Duration::ZERO);
        assert_eq!(m.transfer_time(0, TransferMode::Dma), m.dma_setup);
    }

    #[test]
    fn pio_read_much_slower_than_write() {
        let m = TimeModel::paper();
        assert!(m.pio_read_time(1 << 20) > m.wire_time(1 << 20, TransferMode::Memcpy) * 4);
    }

    #[test]
    fn spin_until_reaches_deadline() {
        let d = Duration::from_micros(500);
        let t0 = Instant::now();
        spin_for(d);
        assert!(t0.elapsed() >= d);
    }

    #[test]
    fn link_timer_serializes_same_direction() {
        let lt = LinkTimer::new();
        let w = Duration::from_millis(10);
        let c1 = lt.reserve(LinkDirection::Upstream, w, 1.0, false);
        let c2 = lt.reserve(LinkDirection::Upstream, w, 1.0, false);
        // Second reservation starts where the first one ends.
        assert!(c2 >= c1 + w - Duration::from_micros(100), "c2 must queue behind c1");
    }

    #[test]
    fn link_timer_directions_independent() {
        let lt = LinkTimer::new();
        let w = Duration::from_millis(10);
        let t0 = Instant::now();
        let _c1 = lt.reserve(LinkDirection::Upstream, w, 1.0, false);
        let c2 = lt.reserve(LinkDirection::Downstream, w, 1.0, false);
        // Downstream does not queue behind upstream (though it may be
        // stretched by the duplex penalty if one was requested — here 1.0).
        assert!(c2 < t0 + w + Duration::from_millis(5));
    }

    #[test]
    fn duplex_penalty_stretches_when_other_direction_busy() {
        let lt = LinkTimer::new();
        let w = Duration::from_millis(20);
        let t0 = Instant::now();
        let _up = lt.reserve(LinkDirection::Upstream, w, 1.5, false);
        let down = lt.reserve(LinkDirection::Downstream, w, 1.5, false);
        let stretched = down.duration_since(t0);
        assert!(stretched >= w.mul_f64(1.45), "expected ~1.5x stretch, got {stretched:?} vs {w:?}");
    }

    #[test]
    fn is_busy_reflects_reservations() {
        let lt = LinkTimer::new();
        assert!(!lt.is_busy(LinkDirection::Upstream));
        lt.reserve(LinkDirection::Upstream, Duration::from_millis(50), 1.0, false);
        assert!(lt.is_busy(LinkDirection::Upstream));
        assert!(!lt.is_busy(LinkDirection::Downstream));
    }

    #[test]
    fn host_activity_tracks_transmissions() {
        let a = HostActivity::new();
        assert!(!a.is_tx_busy());
        a.mark_tx(Instant::now() + Duration::from_millis(50));
        assert!(a.is_tx_busy());
        // An earlier deadline must not shrink the busy window.
        a.mark_tx(Instant::now() + Duration::from_millis(1));
        assert!(a.is_tx_busy());
    }

    #[test]
    fn host_activity_expires() {
        let a = HostActivity::new();
        a.mark_tx(Instant::now() + Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(10));
        assert!(!a.is_tx_busy());
    }

    #[test]
    fn reserve_with_external_contention_stretches() {
        let lt = LinkTimer::new();
        let w = Duration::from_millis(20);
        let t0 = Instant::now();
        let c = lt.reserve(LinkDirection::Upstream, w, 1.5, true);
        assert!(c.duration_since(t0) >= w.mul_f64(1.45));
    }

    #[test]
    fn transfer_mode_labels() {
        assert_eq!(TransferMode::Dma.label(), "DMA");
        assert_eq!(TransferMode::Memcpy.label(), "memcpy");
    }

    #[test]
    fn opposite_direction() {
        assert_eq!(LinkDirection::Upstream.opposite(), LinkDirection::Downstream);
        assert_eq!(LinkDirection::Downstream.opposite(), LinkDirection::Upstream);
    }
}
