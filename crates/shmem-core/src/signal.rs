//! Put-with-signal (`shmem_put_signal`, OpenSHMEM 1.5).
//!
//! A put followed by a signal-word update that the target can wait on,
//! with the guarantee that *when the signal is visible, the data is too*.
//!
//! On this transport the guarantee comes from `quiet`: the data is
//! acknowledged by the target before the signal leaves. Each link drains
//! its lanes in publish order, but that does not order two frames end to
//! end. A forwarding host requeues a frame behind later ones after a
//! transient send failure, or sheds it when its queue is full, and a
//! frame corrupted in flight is dropped — in the last two cases the
//! sender's retry sweeper delivers it again, late. A signal sent right
//! behind its data could overtake it in any of these cases.
//!
//! The workspace collectives do not pay this round trip: their landing
//! slots carry an epoch stamp and a checksum, so the data proves its own
//! arrival (see [`crate::workspace`]).

use crate::ctx::{OpOptions, ShmemCtx};
use crate::error::Result;
use crate::symmetric::TypedSym;
use crate::sync::CmpOp;
use crate::types::{ShmemAtomicInt, ShmemScalar};
use ntb_sim::TransferMode;

/// How the signal word is updated (`SHMEM_SIGNAL_SET` / `_ADD`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalOp {
    /// Overwrite the signal word.
    Set,
    /// Add to the signal word (useful when several producers target the
    /// same consumer).
    Add,
}

impl ShmemCtx {
    /// `shmem_put_signal`: put `data` into `sym[index..]` at PE `pe`, then
    /// update the signal word `sig[sig_index]` there with
    /// `op`/`sig_value`. When the target observes the signal, the data is
    /// guaranteed visible. Locally blocking like `put`.
    #[allow(clippy::too_many_arguments)]
    pub fn put_with_signal<T: ShmemScalar, S: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        sig: &TypedSym<S>,
        sig_index: usize,
        sig_value: S,
        op: SignalOp,
        pe: usize,
    ) -> Result<()> {
        self.put_with_signal_mode(
            sym,
            index,
            data,
            sig,
            sig_index,
            sig_value,
            op,
            pe,
            self.default_mode(),
        )
    }

    /// [`put_with_signal`](Self::put_with_signal) with an explicit
    /// transfer mode.
    #[allow(clippy::too_many_arguments)]
    pub fn put_with_signal_mode<T: ShmemScalar, S: ShmemAtomicInt>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        sig: &TypedSym<S>,
        sig_index: usize,
        sig_value: S,
        op: SignalOp,
        pe: usize,
        mode: TransferMode,
    ) -> Result<()> {
        self.check_pe(pe)?;
        let opts = OpOptions::new().mode(mode);
        self.put_slice_opts(sym, index, data, pe, opts)?;
        // The data must be at the target before the signal can be seen.
        self.quiet()?;
        match op {
            SignalOp::Set => self.put_slice_opts(sig, sig_index, &[sig_value], pe, opts),
            SignalOp::Add => self.atomic_add(sig, sig_index, sig_value, pe),
        }
    }

    /// `shmem_signal_wait_until`: block until this PE's signal word
    /// satisfies `cmp target` and return its value.
    pub fn signal_wait_until<S: ShmemAtomicInt + PartialOrd>(
        &self,
        sig: &TypedSym<S>,
        sig_index: usize,
        cmp: CmpOp,
        target: S,
    ) -> Result<S> {
        // DEADLINE-CLIPPED: delegate — `wait_until` derives its deadline
        // from `cfg.wait_timeout` and clips each poll tick to it.
        self.wait_until(sig, sig_index, cmp, target)
    }

    /// `shmem_signal_fetch`: read this PE's signal word.
    pub fn signal_fetch<S: ShmemAtomicInt>(
        &self,
        sig: &TypedSym<S>,
        sig_index: usize,
    ) -> Result<S> {
        self.read_local(sig, sig_index)
    }
}
