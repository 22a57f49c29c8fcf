//! The persistent collective workspace: OpenSHMEM's `pSync`/`pWrk`
//! arrays, allocated once instead of per call.
//!
//! Every collective that needs symmetric scratch — landing slots for
//! contributions, partials or broadcast digests — takes it from a
//! [`Workspace`]: the world's is allocated in
//! `ShmemCtx::new`, each team's in `team_split`. None of them allocates,
//! frees or barriers per call.
//!
//! ## Layout
//!
//! For a set of `m` members (indexed by their rank in the set):
//!
//! * two **parity buffers**, each with one landing slot per member;
//!   member `r` only ever writes slot `r`;
//! * an **epoch counter**, local, bumped once per collective round.
//!   Collectives are called in the same order on every member, so the
//!   count names the same round everywhere.
//!
//! ## Stamped slots
//!
//! A sender writes its data into slot `r` of buffer `epoch % 2` in one
//! put, followed by a stamp: the epoch and a 64-bit checksum over the
//! epoch and the data. The receiver polls the stamp and takes the slot
//! only when the epoch matches and the checksum matches the bytes it
//! read. The data thus proves its own arrival, whatever order its frames
//! took: a forwarder may requeue or shed a frame under pressure, and a
//! corrupted frame comes back by retransmission, so frames of one put
//! can land in any order (and a poll can catch a frame half copied).
//! Stale data from two rounds earlier carries the wrong epoch.
//!
//! The broadcasts write into the caller's buffer, which has no room for
//! a stamp. A sender puts the data there and a stamped digest of it
//! (the same checksum) into its landing slot; the receiver waits until
//! its copy of the buffer matches the digest.
//!
//! ## Why two buffers suffice
//!
//! Every workspace collective finishes on a PE only after every live
//! member has *entered* that round: the flat exchange waits for every
//! member's contribution, and a tree round ends with the root's result
//! travelling down, which needs every member's partial first. So a PE
//! sends epoch `e` to a peer only after finishing epoch `e-1`, which the
//! peer entered — after finishing `e-2`. The peer has therefore read its
//! buffer `e % 2` for epoch `e-2` before anything for `e` can land there.
//! A broadcast finishes at its root before the leaves have read
//! anything, so broadcasts keep their entry and exit barriers instead.
//!
//! ## Growth
//!
//! Landing slots start at [`INITIAL_SLOT_BYTES`]. A world collective
//! with a larger contribution grows the world workspace once, up to
//! [`MAX_SLOT_BYTES`]: every PE sees the same element count, allocates
//! the new landing area and then frees the old one at the same point,
//! and one barrier keeps peers from writing into the new slots early. It
//! never shrinks. A team cannot grow (only its members would allocate,
//! and the heaps would stop being symmetric), so a contribution larger
//! than the slots runs in slot-sized pieces, one epoch each — as does a
//! world contribution beyond the cap.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::Result;
use crate::heap::SymmetricHeap;
use crate::symmetric::{SymAddr, TypedSym};

/// Landing-slot size of a fresh workspace, stamp included.
pub const INITIAL_SLOT_BYTES: usize = 256;

/// Largest landing slot a world workspace grows to. With `n` PEs the
/// workspace then keeps `2·n·MAX_SLOT_BYTES` of every heap (8 MiB at 64
/// PEs).
pub const MAX_SLOT_BYTES: usize = 64 << 10;

/// Bytes of the stamp that follows the data in a landing slot: the
/// epoch, then the checksum.
const STAMP_BYTES: usize = 16;

/// Bytes of a broadcast digest ([`Workspace::digest`]).
pub(crate) const DIGEST_BYTES: usize = 8;

/// One set's persistent collective scratch (see the module docs).
#[derive(Debug)]
pub(crate) struct Workspace {
    /// Members of the set: landing slots per buffer.
    members: usize,
    /// Flat offset of the landing area (both parity buffers).
    data_offset: AtomicU64,
    /// Bytes per landing slot.
    slot_bytes: AtomicU64,
    /// The epoch of the latest round begun on this PE.
    epoch: AtomicU64,
}

impl Workspace {
    /// Allocate a workspace for `members` members straight from the heap.
    /// Not collective by itself: every PE must allocate at the same point
    /// of its allocation sequence, and nobody may use it remotely before
    /// every PE has (init, or the barrier that ends `team_split`).
    pub(crate) fn alloc(heap: &SymmetricHeap, members: usize) -> Result<Workspace> {
        let data = heap.malloc(Self::area_bytes(members, INITIAL_SLOT_BYTES))?;
        Ok(Workspace {
            members,
            data_offset: AtomicU64::new(data.offset()),
            slot_bytes: AtomicU64::new(INITIAL_SLOT_BYTES as u64),
            epoch: AtomicU64::new(0),
        })
    }

    fn area_bytes(members: usize, slot_bytes: usize) -> u64 {
        (2 * members * slot_bytes) as u64
    }

    fn area(&self) -> SymAddr {
        SymAddr {
            offset: self.data_offset.load(Ordering::SeqCst),
            len: Self::area_bytes(self.members, self.slot_bytes()),
        }
    }

    /// Return the workspace to the heap (local; the caller synchronizes).
    pub(crate) fn release(self, heap: &SymmetricHeap) -> Result<()> {
        heap.free(self.area())
    }

    /// Bytes one landing slot holds.
    pub(crate) fn slot_bytes(&self) -> usize {
        self.slot_bytes.load(Ordering::SeqCst) as usize
    }

    /// Data bytes one landing slot holds besides its stamp.
    pub(crate) fn payload_bytes(&self) -> usize {
        self.slot_bytes() - STAMP_BYTES
    }

    /// Landing-slot size that holds `bytes` of data, for [`Self::grow`]:
    /// the next power of two, capped at [`MAX_SLOT_BYTES`].
    pub(crate) fn slot_bytes_for(bytes: usize) -> usize {
        (bytes + STAMP_BYTES).next_power_of_two().min(MAX_SLOT_BYTES)
    }

    /// Replace the landing area by one with `slot_bytes`-byte slots.
    /// Local, like [`Self::alloc`]: every PE grows at the same point, and
    /// the caller barriers before anyone writes into the new slots. The
    /// new area is allocated first, so a failed allocation leaves the
    /// workspace as it was.
    pub(crate) fn grow(&self, heap: &SymmetricHeap, slot_bytes: usize) -> Result<()> {
        let data = heap.malloc(Self::area_bytes(self.members, slot_bytes))?;
        let old = self.area();
        self.data_offset.store(data.offset(), Ordering::SeqCst);
        self.slot_bytes.store(slot_bytes as u64, Ordering::SeqCst);
        heap.free(old)
    }

    /// Member `rank`'s landing slot in the parity buffer of `epoch`.
    pub(crate) fn slot(&self, epoch: u64, rank: usize) -> Result<TypedSym<u8>> {
        let bytes = self.slot_bytes();
        let index = (epoch % 2) as usize * self.members + rank;
        let offset = self.area().byte_offset((index * bytes) as u64, bytes as u64)?;
        TypedSym::new(SymAddr { offset, len: bytes as u64 }, bytes)
    }

    /// `data` followed by its stamp for `epoch`: what a sender puts into
    /// its landing slot.
    pub(crate) fn stamped(epoch: u64, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() + STAMP_BYTES);
        out.extend_from_slice(data);
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&checksum(epoch, data).to_le_bytes());
        out
    }

    /// Member `rank`'s `len`-byte contribution for `epoch` in this PE's
    /// copy of its slot, once it has landed whole (`None` before). The
    /// stamp's epoch word is read first, so a slot is read and summed
    /// only once it names the round.
    pub(crate) fn take(
        &self,
        heap: &SymmetricHeap,
        epoch: u64,
        rank: usize,
        len: usize,
    ) -> Result<Option<Vec<u8>>> {
        let offset = self.slot(epoch, rank)?.addr().offset();
        if heap.read_flat_vec(offset + len as u64, 8)? != epoch.to_le_bytes() {
            return Ok(None);
        }
        Ok(unstamp(epoch, heap.read_flat_vec(offset, (len + STAMP_BYTES) as u64)?))
    }

    /// A digest of `data` for `epoch`: what a broadcast stamps into its
    /// landing slot for data it put into the caller's buffer.
    pub(crate) fn digest(epoch: u64, data: &[u8]) -> [u8; DIGEST_BYTES] {
        checksum(epoch, data).to_le_bytes()
    }

    /// The latest epoch begun here.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Begin the next round and return its epoch.
    pub(crate) fn begin(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Surrender every epoch begun after `epoch`: a failed call hands its
    /// epochs back so the retry reuses them, as the peers that did finish
    /// expect.
    pub(crate) fn rewind(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }
}

/// The data of a slot read back as data plus stamp, if the stamp names
/// `epoch` and its checksum matches the data.
fn unstamp(epoch: u64, mut read: Vec<u8>) -> Option<Vec<u8>> {
    let len = read.len().checked_sub(STAMP_BYTES)?;
    let word = |at: usize| u64::from_le_bytes(read[at..at + 8].try_into().unwrap_or([0; 8]));
    let (stamped_epoch, sum) = (word(len), word(len + 8));
    read.truncate(len);
    (stamped_epoch == epoch && sum == checksum(epoch, &read)).then_some(read)
}

/// FNV-1a over the epoch and the data. A slot read while its frames are
/// still landing mixes two rounds' bytes; the checksum tells it apart
/// from the finished slot except with probability about 2^-64.
fn checksum(epoch: u64, data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    epoch
        .to_le_bytes()
        .iter()
        .chain(data)
        .fold(OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stamped_slot_reads_back_only_for_its_own_epoch() {
        let data = [7u8, 1, 2, 3, 4, 5, 6, 7, 8];
        let slot = Workspace::stamped(9, &data);
        assert_eq!(slot.len(), data.len() + STAMP_BYTES);
        assert_eq!(unstamp(9, slot.clone()), Some(data.to_vec()));
        assert_eq!(unstamp(7, slot.clone()), None, "a stale round");
        let mut torn = slot;
        torn[3] ^= 0x10; // one byte still from another round
        assert_eq!(unstamp(9, torn), None);
    }

    #[test]
    fn growth_is_capped() {
        assert_eq!(Workspace::slot_bytes_for(64), 128);
        assert_eq!(Workspace::slot_bytes_for(4096), 8192);
        assert_eq!(Workspace::slot_bytes_for(1 << 20), MAX_SLOT_BYTES);
    }
}
