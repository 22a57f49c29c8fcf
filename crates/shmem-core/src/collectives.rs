//! Collective operations: broadcast, reductions, collect, all-to-all.
//!
//! §II-B lists broadcasts and reductions among the essential SHMEM
//! features. On the switchless ring they are built from the primitives
//! the paper implements — put, get and the ring barrier.
//!
//! * Collectives that write into a caller's symmetric buffer (`broadcast`,
//!   `fcollect`, `alltoall`, `collect`) synchronize with barriers: the
//!   entry barrier says every buffer is ready to be overwritten, the exit
//!   barrier that the data is visible everywhere.
//! * The reductions, `broadcast_value` and the size exchange of `collect`
//!   return their result instead, so they run over the persistent
//!   [workspace](crate::workspace) with no barrier: each contribution
//!   lands in a landing slot of its own, stamped with the epoch and a
//!   checksum, and a call returns once every contribution it needs has
//!   landed whole. The world and team variants are one implementation
//!   over an [`ActiveSet`].
//! * The signalled broadcasts (`broadcast_ring`, `broadcast_tree`)
//!   keep the entry and exit barriers of the caller's buffer; between
//!   them a receiver forwards the payload once its copy matches a
//!   digest the sender stamps into its workspace landing slot.
//!
//! Under a degraded membership (a PE confirmed dead by the heartbeat
//! detector) every collective addresses the **live** members only, or
//! fails fast with `PeFailed`, per
//! [`DegradedPolicy`](crate::config::DegradedPolicy). Dead PEs' slots in
//! gathered results keep whatever the local copy last held, and
//! reductions combine live contributions only. A member dying *during* a
//! workspace collective fails it with `PeFailed` within one membership
//! poll; the call hands its epochs back, so survivors retry it in step.

use std::time::Instant;

use crate::barrier::MEMBERSHIP_POLL;
use crate::config::DegradedPolicy;
use crate::ctx::ShmemCtx;
use crate::error::{Result, ShmemError};
use crate::symmetric::TypedSym;
use crate::teams::ActiveSet;
use crate::types::ShmemScalar;
use crate::workspace::{Workspace, DIGEST_BYTES};

/// Reduction operators (`shmem_TYPE_{sum,prod,min,max}_reduce`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum.
    Sum,
    /// Product.
    Prod,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// Scalars that support the arithmetic reductions.
pub trait ShmemReduce: ShmemScalar {
    /// Combine two values under `op`.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;

    /// The identity element of `op`.
    fn identity(op: ReduceOp) -> Self;
}

macro_rules! impl_reduce_int {
    ($($t:ty),*) => {$(
        impl ShmemReduce for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Prod => a.wrapping_mul(b),
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                }
            }

            fn identity(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0,
                    ReduceOp::Prod => 1,
                    ReduceOp::Min => <$t>::MAX,
                    ReduceOp::Max => <$t>::MIN,
                }
            }
        }
    )*};
}

macro_rules! impl_reduce_float {
    ($($t:ty),*) => {$(
        impl ShmemReduce for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Prod => a * b,
                    ReduceOp::Min => a.min(b),
                    ReduceOp::Max => a.max(b),
                }
            }

            fn identity(op: ReduceOp) -> Self {
                match op {
                    ReduceOp::Sum => 0.0,
                    ReduceOp::Prod => 1.0,
                    ReduceOp::Min => <$t>::INFINITY,
                    ReduceOp::Max => <$t>::NEG_INFINITY,
                }
            }
        }
    )*};
}

impl_reduce_int!(u8, u16, u32, u64, i8, i16, i32, i64);
impl_reduce_float!(f32, f64);

impl ShmemCtx {
    /// The live members a collective over `set` addresses: every member
    /// at full strength; under a degraded membership, the live ones
    /// (policy [`DegradedPolicy::Degrade`]) or [`ShmemError::PeFailed`]
    /// (policy [`DegradedPolicy::Fail`]).
    pub(crate) fn live_members(&self, set: &ActiveSet) -> Result<Vec<usize>> {
        let view = self.node.membership().view();
        let members = (0..set.size).map(|i| set.member(i));
        let live: Vec<usize> = members.clone().filter(|&p| view.is_live(p)).collect();
        if live.len() == set.size || self.cfg.degraded_policy == DegradedPolicy::Degrade {
            return Ok(live);
        }
        let pe = members.into_iter().find(|&p| !view.is_live(p)).unwrap_or(0);
        // RESOLVES(none): membership policy gate before the collective
        // communicates — nothing is in flight for this op yet.
        Err(ShmemError::PeFailed { pe, epoch: view.epoch })
    }

    /// [`Self::live_members`] of the whole world.
    pub(crate) fn collective_peers(&self) -> Result<Vec<usize>> {
        self.live_members(&self.world_set())
    }

    fn world_set(&self) -> ActiveSet {
        ActiveSet::world(self.num_pes())
    }

    /// Refuse a collective rooted at a dead PE: no policy can help when
    /// the data source itself is gone.
    fn check_root_live(&self, root: usize) -> Result<()> {
        self.check_pe(root)?;
        if self.is_pe_live(root) {
            return Ok(());
        }
        // RESOLVES(none): pre-flight check, before any put is issued.
        Err(ShmemError::PeFailed { pe: root, epoch: self.membership_epoch() })
    }

    /// `shmem_broadcast`: replicate `count` elements starting at `index`
    /// of `root`'s copy of `sym` into every other PE's copy. Collective.
    pub fn broadcast<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        root: usize,
    ) -> Result<()> {
        self.check_root_live(root)?;
        let peers = self.collective_peers()?;
        // Entry barrier: everyone's buffers are ready to be overwritten.
        self.barrier_all()?;
        if self.my_pe() == root {
            let data = self.read_local_slice(sym, index, count)?;
            for pe in peers {
                if pe != root {
                    self.put_slice(sym, index, &data, pe)?;
                }
            }
        }
        // Exit barrier: broadcast data visible everywhere.
        self.barrier_all()
    }

    /// `shmem_fcollect`: concatenate each PE's `src` block into every
    /// PE's copy of `dest` at slot `my_pe`. `dest.count()` must equal
    /// `num_pes * src.len()`. Collective.
    pub fn fcollect<T: ShmemScalar>(&self, dest: &TypedSym<T>, src: &[T]) -> Result<()> {
        let n = self.num_pes();
        if dest.count() != n * src.len() {
            return Err(ShmemError::Runtime("fcollect: dest.count() != num_pes * src.len()"));
        }
        let peers = self.collective_peers()?;
        self.barrier_all()?;
        let slot = self.my_pe() * src.len();
        self.write_local_slice(dest, slot, src)?;
        for pe in peers {
            if pe != self.my_pe() {
                self.put_slice(dest, slot, src, pe)?;
            }
        }
        self.barrier_all()
    }

    /// `shmem_alltoall`: PE *i*'s block *j* of `src` lands in PE *j*'s
    /// `dest` at slot *i*. Both arrays hold `num_pes * block` elements.
    /// Collective.
    pub fn alltoall<T: ShmemScalar>(
        &self,
        dest: &TypedSym<T>,
        src: &[T],
        block: usize,
    ) -> Result<()> {
        let n = self.num_pes();
        if src.len() != n * block || dest.count() != n * block {
            return Err(ShmemError::Runtime("alltoall: arrays must hold num_pes * block elements"));
        }
        let peers = self.collective_peers()?;
        self.barrier_all()?;
        let me = self.my_pe();
        for pe in peers {
            let chunk = &src[pe * block..(pe + 1) * block];
            if pe == me {
                self.write_local_slice(dest, me * block, chunk)?;
            } else {
                self.put_slice(dest, me * block, chunk, pe)?;
            }
        }
        self.barrier_all()
    }

    /// All-reduce `src` element-wise under `op`; every PE gets the full
    /// result.
    ///
    /// ```
    /// use shmem_core::{ReduceOp, ShmemConfig, ShmemWorld};
    /// let sums = ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(4), |ctx| {
    ///     ctx.allreduce(ReduceOp::Sum, &[ctx.my_pe() as u64, 1]).unwrap()
    /// })
    /// .unwrap();
    /// assert!(sums.iter().all(|v| v == &[6, 4]));
    /// ```
    ///
    /// Barrier-free: each PE puts `src`, stamped with the call's epoch,
    /// into its own landing slot of the persistent world workspace on
    /// every live peer, waits until every live contribution has landed
    /// whole, and folds them in PE order — so every PE computes
    /// bit-identical results, floats included. A contribution larger than
    /// the workspace's slots grows it once (one barrier), up to
    /// [`MAX_SLOT_BYTES`](crate::workspace::MAX_SLOT_BYTES); beyond that
    /// it runs in slot-sized pieces. Collective.
    pub fn allreduce<T: ShmemReduce>(&self, op: ReduceOp, src: &[T]) -> Result<Vec<T>> {
        self.reserve_workspace(src.len() * T::WIDTH)?;
        self.reduce_over(&self.world_set(), &self.ws, op, src, Tree::Flat)
    }

    /// Grow the world workspace's landing slots to hold `bytes` of data
    /// (up to the cap). Every PE of a collective asks for the same size,
    /// so they all grow together — once, with one barrier so nobody
    /// writes into a peer's new slots early. Never shrinks.
    fn reserve_workspace(&self, bytes: usize) -> Result<()> {
        let slot_bytes = Workspace::slot_bytes_for(bytes);
        if slot_bytes <= self.ws.slot_bytes() {
            return Ok(());
        }
        self.ws.grow(&self.heap, slot_bytes)?;
        self.barrier_all()
    }

    /// Ring-pipelined broadcast: the natural broadcast for the switchless
    /// topology. Instead of the root issuing N-1 puts (all of which leave
    /// through the root's two adapters), the payload travels **once**
    /// around the ring: the root puts to its right neighbour with a
    /// digest; each PE waits until its copy matches the digest, forwards
    /// to *its* right neighbour, and is done. Per-PE link work is
    /// constant, so large broadcasts scale with the ring instead of
    /// bottlenecking the root. Collective (entry and exit barriers; the
    /// digests land in the workspace).
    pub fn broadcast_ring<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        root: usize,
    ) -> Result<()> {
        self.check_pe(root)?;
        let n = self.num_pes();
        let live = self.collective_peers()?;
        if live.len() < n {
            // The pipeline is structural (every PE forwards to its right
            // neighbour), so a dead PE breaks it; fall back to the flat
            // root-fanout broadcast over the live membership.
            return self.broadcast(sym, index, count, root);
        }
        // Entry barrier: everyone's buffers are ready to be overwritten.
        self.barrier_all()?;
        self.workspace_call(&self.ws, || {
            let epoch = self.ws.begin();
            if n == 1 {
                return Ok(());
            }
            let me = self.my_pe();
            let right = (me + 1) % n;
            if me != root {
                let left = (me + n - 1) % n;
                self.wait_digest(&self.ws, epoch, left, &live, sym, index, count)?;
            }
            // Forward the (now local) payload down the pipeline.
            if right != root {
                let data = self.read_local_slice(sym, index, count)?;
                self.put_with_digest(&self.ws, epoch, me, sym, index, &data, right)?;
            }
            Ok(())
        })?;
        // Exit barrier: see `signalled_tree_broadcast`.
        self.barrier_all()
    }

    /// `shmem_collect`: concatenate *variable-length* per-PE
    /// contributions in PE order into every PE's copy of `dest`.
    /// `dest.count()` must be at least the global total. Returns the
    /// total number of collected elements. Collective (the sizes are
    /// exchanged through the workspace; one exit barrier).
    pub fn collect<T: ShmemScalar>(&self, dest: &TypedSym<T>, src: &[T]) -> Result<usize> {
        // Phase 1: everyone learns everyone's contribution size. A dead
        // PE contributes nothing, so it shifts no offsets.
        let set = self.world_set();
        let mut sizes = vec![0u64; self.num_pes()];
        let live = self.live_members(&set)?;
        let got = self.workspace_call(&self.ws, || {
            self.exchange(&set, &self.ws, &live, self.ws.begin(), &[src.len() as u64])
        })?;
        for (&pe, size) in live.iter().zip(got) {
            sizes[pe] = size[0];
        }
        let total: u64 = sizes.iter().sum();
        if total as usize > dest.count() {
            return Err(ShmemError::Runtime("collect: dest too small for the global total"));
        }
        // Phase 2: everyone places its block at its prefix offset on
        // every live PE. Finishing the exchange proves every PE entered
        // the call, so its `dest` is ready to be overwritten.
        let my_off = sizes[..self.my_pe()].iter().sum::<u64>() as usize;
        self.write_local_slice(dest, my_off, src)?;
        for &pe in &live {
            if pe != self.my_pe() {
                self.put_slice(dest, my_off, src, pe)?;
            }
        }
        self.barrier_all()?;
        Ok(total as usize)
    }

    /// Reduce to `root` only (other PEs get `None`). Collective.
    pub fn reduce_to_root<T: ShmemReduce>(
        &self,
        op: ReduceOp,
        src: &[T],
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        self.check_pe(root)?;
        let full = self.allreduce(op, src)?;
        Ok((self.my_pe() == root).then_some(full))
    }

    /// Binomial-tree broadcast: log₂N rounds instead of the flat root
    /// fan-out. Round *k* doubles the set of PEs holding the payload:
    /// every holder with tree rank `r` sends to rank `r + 2^k` (for
    /// `2^k > r`), so the root's adapters stop being the bottleneck and
    /// latency grows with the tree depth, not the PE count. Ranks are
    /// positions in the **live** PE list rotated so the root is rank 0,
    /// which honours [`DegradedPolicy`](crate::config::DegradedPolicy)
    /// exactly like the flat [`Self::broadcast`]. Collective (entry
    /// and exit barriers; the digests land in the workspace).
    pub fn broadcast_tree<T: ShmemScalar>(
        &self,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
        root: usize,
    ) -> Result<()> {
        self.check_root_live(root)?;
        let live = self.collective_peers()?;
        // Entry barrier: everyone's buffers are ready to be overwritten.
        self.barrier_all()?;
        self.signalled_tree_broadcast(&self.world_set(), &self.ws, &live, root, sym, index, count)?;
        self.barrier_all()
    }

    /// The tree broadcast shared by the world and team variants: `root`
    /// (a world PE, live) pushes `count` elements of `sym` down the
    /// binomial tree over `live`, each hop a put followed by the sender's
    /// digest. The caller barriers on entry, and on exit: a receiver
    /// whose copy already held the same bytes matches the digest before
    /// the put has landed, and the exit barrier (which drains every PE's
    /// puts) keeps such a put from landing after the call returns.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn signalled_tree_broadcast<T: ShmemScalar>(
        &self,
        set: &ActiveSet,
        ws: &Workspace,
        live: &[usize],
        root: usize,
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
    ) -> Result<()> {
        self.workspace_call(ws, || {
            let epoch = ws.begin();
            // Not in the live set (mid-rejoin): sit the data phase out.
            let Some(tree) = BinomialTree::over(live, root, self.my_pe()) else {
                return Ok(());
            };
            if let Some(parent) = tree.down_parent() {
                let rank = set_rank(set, parent)?;
                self.wait_digest(ws, epoch, rank, live, sym, index, count)?;
            }
            let data = self.read_local_slice(sym, index, count)?;
            let me = set_rank(set, self.my_pe())?;
            for child in tree.down_children() {
                self.put_with_digest(ws, epoch, me, sym, index, &data, child)?;
            }
            Ok(())
        })
    }

    /// Binomial-tree reduction to `root` (other PEs get `None`): log₂N
    /// combining rounds, each PE sends its partial exactly once to its
    /// tree parent. The result then travels back down the same tree —
    /// that return trip is what lets the next call reuse the workspace
    /// without a barrier (see [`crate::workspace`]). Dead PEs are
    /// excluded from the tree entirely (their contribution is dropped,
    /// like [`Self::allreduce`]). Collective.
    pub fn reduce_tree<T: ShmemReduce>(
        &self,
        op: ReduceOp,
        src: &[T],
        root: usize,
    ) -> Result<Option<Vec<T>>> {
        self.check_root_live(root)?;
        self.reserve_workspace(src.len() * T::WIDTH)?;
        let out = self.reduce_over(&self.world_set(), &self.ws, op, src, Tree::Rooted(root))?;
        Ok((self.my_pe() == root).then_some(out))
    }

    /// Log-depth all-reduce: a binomial reduce to the lowest live PE and
    /// the result back down the same tree — 2·log₂N rounds, versus the
    /// single all-to-all round of [`Self::allreduce`]. Collective.
    pub fn allreduce_tree<T: ShmemReduce>(&self, op: ReduceOp, src: &[T]) -> Result<Vec<T>> {
        self.reserve_workspace(src.len() * T::WIDTH)?;
        self.reduce_over(&self.world_set(), &self.ws, op, src, Tree::LowestLive)
    }

    /// Convenience: broadcast one value from `root` to every PE and
    /// return it. Collective (a workspace exchange, no barrier).
    pub fn broadcast_value<T: ShmemScalar>(&self, value: T, root: usize) -> Result<T> {
        self.check_root_live(root)?;
        let set = self.world_set();
        let live = self.live_members(&set)?;
        let all = self.workspace_call(&self.ws, || {
            self.exchange(&set, &self.ws, &live, self.ws.begin(), &[value])
        })?;
        let pos = live.iter().position(|&p| p == root);
        // The root passed the liveness gate, so it is in the live list.
        pos.map(|pos| all[pos][0]).ok_or(ShmemError::Runtime("broadcast root left the live set"))
    }

    /// Element-wise reduce `src` over the live members of `set` through
    /// `ws`; every live member gets the result. `shape` picks the flat
    /// exchange or a binomial tree. A contribution larger than the
    /// workspace's slots runs in slot-sized pieces, one epoch each.
    pub(crate) fn reduce_over<T: ShmemReduce>(
        &self,
        set: &ActiveSet,
        ws: &Workspace,
        op: ReduceOp,
        src: &[T],
        shape: Tree,
    ) -> Result<Vec<T>> {
        let live = self.live_members(set)?;
        let root = match shape {
            Tree::Flat => None,
            Tree::LowestLive => live.first().copied(),
            Tree::Rooted(root) => Some(root),
        };
        let piece = (ws.payload_bytes() / T::WIDTH).max(1);
        self.workspace_call(ws, || {
            let mut out = Vec::with_capacity(src.len());
            for part in src.chunks(piece) {
                let epoch = ws.begin();
                match root {
                    None => {
                        let all = self.exchange(set, ws, &live, epoch, part)?;
                        // Fold in member order: every PE computes the
                        // same sequence of combines, bit for bit.
                        let mut acc = vec![T::identity(op); part.len()];
                        for contribution in all {
                            fold(op, &mut acc, &contribution);
                        }
                        out.extend(acc);
                    }
                    Some(root) => {
                        out.extend(self.tree_round(set, ws, &live, root, epoch, op, part)?)
                    }
                }
            }
            Ok(out)
        })
    }

    /// Run one workspace collective: `call` begins its own epochs. It
    /// ends with `quiet`, so the collective is complete on return and its
    /// ack wait does not spill into whatever follows. On failure every
    /// epoch the call began is handed back for the retry, and the
    /// failed attempt's puts are drained (their own verdict — typically
    /// the same `PeFailed` — is not reported twice).
    fn workspace_call<R>(&self, ws: &Workspace, call: impl FnOnce() -> Result<R>) -> Result<R> {
        let start = ws.epoch();
        let result = call().and_then(|r| self.quiet().map(|()| r));
        if result.is_err() {
            ws.rewind(start);
            let _ = self.quiet();
        }
        result
    }

    /// One flat exchange round: put `mine` into this PE's landing slot on
    /// every other live member, wait for theirs, and return every live
    /// member's contribution in member order.
    fn exchange<T: ShmemScalar>(
        &self,
        set: &ActiveSet,
        ws: &Workspace,
        live: &[usize],
        epoch: u64,
        mine: &[T],
    ) -> Result<Vec<Vec<T>>> {
        let me = self.my_pe();
        let my_rank = set_rank(set, me)?;
        if !live.contains(&me) {
            return Err(ShmemError::Runtime("collective on a PE outside the live membership"));
        }
        for &pe in live.iter().filter(|&&p| p != me) {
            self.workspace_put(ws, epoch, my_rank, mine, pe)?;
        }
        let ranks = live.iter().map(|&p| set_rank(set, p)).collect::<Result<Vec<_>>>()?;
        let others: Vec<usize> = ranks.iter().copied().filter(|&r| r != my_rank).collect();
        let mut theirs = self.wait_slots(ws, epoch, &others, live, mine.len())?.into_iter();
        Ok(ranks
            .iter()
            .map(|&r| if r == my_rank { mine.to_vec() } else { theirs.next().unwrap_or_default() })
            .collect())
    }

    /// One binomial-tree round rooted at `root`: partials travel up to
    /// the root, its result back down. Every live member returns it.
    #[allow(clippy::too_many_arguments)]
    fn tree_round<T: ShmemReduce>(
        &self,
        set: &ActiveSet,
        ws: &Workspace,
        live: &[usize],
        root: usize,
        epoch: u64,
        op: ReduceOp,
        mine: &[T],
    ) -> Result<Vec<T>> {
        let tree = BinomialTree::over(live, root, self.my_pe())
            .ok_or(ShmemError::Runtime("collective on a PE outside the live membership"))?;
        let my_rank = set_rank(set, self.my_pe())?;
        let mut acc = mine.to_vec();
        for child in tree.up_children() {
            let rank = set_rank(set, child)?;
            for part in self.wait_slots(ws, epoch, &[rank], live, mine.len())? {
                fold(op, &mut acc, &part);
            }
        }
        if let Some(parent) = tree.up_parent() {
            self.workspace_put(ws, epoch, my_rank, &acc, parent)?;
        }
        if let Some(parent) = tree.down_parent() {
            let rank = set_rank(set, parent)?;
            acc = self.wait_slots(ws, epoch, &[rank], live, mine.len())?.concat();
        }
        for child in tree.down_children() {
            self.workspace_put(ws, epoch, my_rank, &acc, child)?;
        }
        Ok(acc)
    }

    /// Put `data`, stamped with `epoch`, into member `rank`'s landing
    /// slot of `epoch` at `pe`: one put, so one doorbell per peer, and
    /// receivers start on the first peer's frames while the later ones
    /// are still being written.
    fn workspace_put<T: ShmemScalar>(
        &self,
        ws: &Workspace,
        epoch: u64,
        rank: usize,
        data: &[T],
        pe: usize,
    ) -> Result<()> {
        let stamped = Workspace::stamped(epoch, &T::slice_to_bytes(data));
        self.put_slice(&ws.slot(epoch, rank)?, 0, &stamped, pe)
    }

    /// Wait until every member rank in `ranks` has landed its
    /// `len`-element contribution for `epoch` here; return them in
    /// `ranks` order.
    fn wait_slots<T: ShmemScalar>(
        &self,
        ws: &Workspace,
        epoch: u64,
        ranks: &[usize],
        planned: &[usize],
        len: usize,
    ) -> Result<Vec<Vec<T>>> {
        let mut got: Vec<Option<Vec<T>>> = vec![None; ranks.len()];
        self.wait_members(planned, || {
            for (part, &rank) in got.iter_mut().zip(ranks) {
                if part.is_none() {
                    let bytes = ws.take(&self.heap, epoch, rank, len * T::WIDTH)?;
                    *part = bytes.map(|b| T::bytes_to_vec(&b));
                }
            }
            Ok(got.iter().all(Option::is_some))
        })?;
        Ok(got.into_iter().flatten().collect())
    }

    /// Put `data` into `sym[index..]` at `pe`, then stamp this member's
    /// (`rank`'s) landing slot there with the data's digest for `epoch`.
    #[allow(clippy::too_many_arguments)]
    fn put_with_digest<T: ShmemScalar>(
        &self,
        ws: &Workspace,
        epoch: u64,
        rank: usize,
        sym: &TypedSym<T>,
        index: usize,
        data: &[T],
        pe: usize,
    ) -> Result<()> {
        self.put_slice(sym, index, data, pe)?;
        let digest = Workspace::digest(epoch, &T::slice_to_bytes(data));
        self.workspace_put(ws, epoch, rank, &digest, pe)
    }

    /// Wait until member `rank` has stamped its digest for `epoch` here
    /// and this PE's copy of `sym[index..index + count]` matches it.
    #[allow(clippy::too_many_arguments)]
    fn wait_digest<T: ShmemScalar>(
        &self,
        ws: &Workspace,
        epoch: u64,
        rank: usize,
        planned: &[usize],
        sym: &TypedSym<T>,
        index: usize,
        count: usize,
    ) -> Result<()> {
        let mut digest = None;
        self.wait_members(planned, || {
            if digest.is_none() {
                digest = ws.take(&self.heap, epoch, rank, DIGEST_BYTES)?;
            }
            let Some(want) = &digest else {
                return Ok(false);
            };
            let mine = self.read_local_slice(sym, index, count)?;
            Ok(want[..] == Workspace::digest(epoch, &T::slice_to_bytes(&mine)))
        })
    }

    /// Poll `done` whenever symmetric memory changes until it holds.
    /// Polls the failure detector like the barrier does: a death among
    /// `planned` (the live set the round was planned over) fails the wait
    /// with `PeFailed` within one poll.
    fn wait_members(
        &self,
        planned: &[usize],
        mut done: impl FnMut() -> Result<bool>,
    ) -> Result<()> {
        let deadline = Instant::now() + self.cfg.wait_timeout;
        loop {
            let seen = self.heap.version();
            if done()? {
                return Ok(());
            }
            let view = self.node.membership().view();
            if let Some(&pe) = planned.iter().find(|&&p| !view.is_live(p)) {
                // RESOLVES(none): the dead member's in-flight ops were
                // swept by fail_dest at detection; callers retry.
                return Err(ShmemError::PeFailed { pe, epoch: view.epoch });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ShmemError::WaitTimeout);
            }
            self.heap
                .wait_change(seen, MEMBERSHIP_POLL.min(deadline.saturating_duration_since(now)));
        }
    }
}

/// The shape of a workspace reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tree {
    /// One all-to-all exchange round.
    Flat,
    /// A binomial tree rooted at the lowest live member.
    LowestLive,
    /// A binomial tree rooted at this world PE.
    Rooted(usize),
}

/// Rank of world PE `pe` within `set` (its landing slot).
fn set_rank(set: &ActiveSet, pe: usize) -> Result<usize> {
    set.rank_of(pe).ok_or(ShmemError::Runtime("collective on a PE outside its active set"))
}

/// `acc[i] = acc[i] op part[i]`.
fn fold<T: ShmemReduce>(op: ReduceOp, acc: &mut [T], part: &[T]) {
    for (a, &b) in acc.iter_mut().zip(part) {
        *a = T::combine(op, *a, b);
    }
}

/// A binomial tree over a live member list, rotated so `root` is tree
/// rank 0, seen from one member. Partials go up to `r - lowbit(r)`; the
/// result comes down from `r - highbit(r)` and goes on to `r + 2^k` for
/// every `2^k > r`.
struct BinomialTree<'a> {
    live: &'a [usize],
    root_idx: usize,
    rank: usize,
}

impl<'a> BinomialTree<'a> {
    /// The tree over `live` rooted at `root`, seen from `me`; `None` if
    /// `me` (or the root) is not in `live`.
    fn over(live: &'a [usize], root: usize, me: usize) -> Option<Self> {
        let root_idx = live.iter().position(|&p| p == root)?;
        let pos = live.iter().position(|&p| p == me)?;
        let rank = (pos + live.len() - root_idx) % live.len();
        Some(BinomialTree { live, root_idx, rank })
    }

    fn pe(&self, rank: usize) -> usize {
        self.live[(self.root_idx + rank) % self.live.len()]
    }

    /// Children whose partials this member folds, in fold order.
    fn up_children(&self) -> impl Iterator<Item = usize> + '_ {
        let low = if self.rank == 0 { usize::MAX } else { self.rank & self.rank.wrapping_neg() };
        steps(self.live.len())
            .take_while(move |&s| s < low)
            .filter(move |&s| self.rank + s < self.live.len())
            .map(move |s| self.pe(self.rank + s))
    }

    /// Where this member's partial goes (`None` at the root).
    fn up_parent(&self) -> Option<usize> {
        (self.rank != 0).then(|| self.pe(self.rank - (self.rank & self.rank.wrapping_neg())))
    }

    /// Who sends this member the result (`None` at the root).
    fn down_parent(&self) -> Option<usize> {
        (self.rank != 0).then(|| {
            let high = 1usize << (usize::BITS - 1 - self.rank.leading_zeros());
            self.pe(self.rank - high)
        })
    }

    /// Where this member sends the result.
    fn down_children(&self) -> impl Iterator<Item = usize> + '_ {
        steps(self.live.len())
            .filter(move |&s| s > self.rank && self.rank + s < self.live.len())
            .map(move |s| self.pe(self.rank + s))
    }
}

/// `1, 2, 4, ...` below `m`.
fn steps(m: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |s| s.checked_mul(2)).take_while(move |&s| s < m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_combine() {
        assert_eq!(i32::combine(ReduceOp::Sum, 3, 4), 7);
        assert_eq!(i32::combine(ReduceOp::Prod, 3, 4), 12);
        assert_eq!(i32::combine(ReduceOp::Min, 3, 4), 3);
        assert_eq!(i32::combine(ReduceOp::Max, 3, 4), 4);
        assert_eq!(u8::combine(ReduceOp::Sum, 255, 1), 0, "wrapping");
    }

    #[test]
    fn float_combine() {
        assert_eq!(f64::combine(ReduceOp::Sum, 1.5, 2.5), 4.0);
        assert_eq!(f64::combine(ReduceOp::Min, -1.0, 2.0), -1.0);
    }

    #[test]
    fn identities_are_neutral() {
        for op in [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max] {
            for v in [-5i64, 0, 42] {
                assert_eq!(i64::combine(op, i64::identity(op), v), v, "{op:?} identity on {v}");
            }
            for v in [-1.5f64, 0.0, 3.25] {
                assert_eq!(f64::combine(op, f64::identity(op), v), v, "{op:?} identity on {v}");
            }
        }
    }
}
