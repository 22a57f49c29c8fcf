//! Workload definitions and the seeded per-round operation plans.
//!
//! A run is a sequence of rounds. Each round PE 0 issues a shuffled list
//! of RMA operations while the other PEs wait at a gate barrier, then
//! every PE runs a shuffled list of collectives. A round's plan is a pure
//! function of `(workload, seed, round)`, so every PE can rebuild any
//! round's plan on its own: that is how each PE knows the fetch-add total
//! it must hold at the end, and how PE 0 knows what a get must return.

/// Bytes of one burst: 16 coalesced puts of 256 B each.
pub const BURST_MSGS: usize = 16;
pub const BURST_MSG_BYTES: usize = 256;
/// Elements of the allreduce input (8 × u64).
pub const ALLREDUCE_LEN: usize = 8;
/// Bytes of one broadcast payload.
pub const BCAST_BYTES: usize = 4096;

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Mix several words into one seed.
pub fn mix(words: &[u64]) -> u64 {
    let mut r = Rng::new(0x5EED);
    let mut acc = 0u64;
    for &w in words {
        r.0 ^= w.wrapping_add(acc);
        acc = r.next_u64();
    }
    acc
}

/// The deterministic content of a buffer stamped with `tag`.
pub fn fill(tag: u64, len: usize) -> Vec<u8> {
    let mut r = Rng::new(tag);
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&r.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Symmetric regions of the working set. Every region holds a few slots
/// of one size; puts of that size overwrite a whole slot and gets read a
/// whole slot back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    B64,
    B512,
    K4,
    K64,
    M1,
}

impl Region {
    pub const ALL: [Region; 5] = [Region::B64, Region::B512, Region::K4, Region::K64, Region::M1];

    pub fn for_bytes(bytes: usize) -> Region {
        match bytes {
            64 => Region::B64,
            512 => Region::B512,
            4096 => Region::K4,
            65536 => Region::K64,
            1048576 => Region::M1,
            _ => panic!("no region holds {bytes}-byte slots"),
        }
    }

    pub fn slot_bytes(self) -> usize {
        match self {
            Region::B64 => 64,
            Region::B512 => 512,
            Region::K4 => 4096,
            Region::K64 => 64 << 10,
            Region::M1 => 1 << 20,
        }
    }

    pub fn slots(self) -> usize {
        match self {
            Region::B64 | Region::B512 | Region::K4 => 4,
            Region::K64 => 2,
            Region::M1 => 1,
        }
    }

    pub fn index(self) -> u64 {
        self as u64
    }
}

/// The tag of a slot's content before any put reaches it.
pub fn initial_tag(seed: u64, pe: usize, region: Region, slot: usize) -> u64 {
    mix(&[seed, 0x1A17, pe as u64, region.index(), slot as u64])
}

/// What PE 0 does, before the target is drawn.
#[derive(Debug, Clone, Copy)]
pub enum RmaKind {
    /// Blocking put followed by `quiet`.
    Put { bytes: usize, hops: usize },
    /// Blocking get.
    Get { bytes: usize, hops: usize },
    /// `atomic_fetch_add` on the target's counter.
    Amo { hops: usize },
    /// 16 × 256 B coalesced puts into one 4 KiB slot, then `quiet`.
    Burst { hops: usize },
    /// Bulk put + quiet (64 KiB or 1 MiB).
    BulkPut { bytes: usize, hops: usize },
    /// Bulk get (64 KiB or 1 MiB).
    BulkGet { bytes: usize, hops: usize },
}

#[derive(Debug, Clone, Copy)]
pub enum CollKind {
    Barrier,
    Allreduce,
    Broadcast,
}

/// A named workload: world shape, timing model and per-round op counts.
pub struct Spec {
    pub name: &'static str,
    pub pes: usize,
    /// `true`: `TimeModel::paper()`; `false`: `TimeModel::zero()`.
    pub paper_time: bool,
    pub rma: &'static [(RmaKind, usize)],
    pub coll: &'static [(CollKind, usize)],
}

use CollKind::*;
use RmaKind::*;

/// Five-PE ring, paper timing, PE 0 the only requester. The op counts fix
/// the latency-cluster shares so that p50 and p95 sit at least 10
/// percentage points from every boundary between clusters. Puts, fastest
/// cluster first: one hop ≤ 1 KiB (PIO) 60%, one hop 4 KiB (DMA) 10%,
/// two hops ≤ 1 KiB 15%, two hops 4 KiB 15% — p50 lands 10 points inside
/// the first cluster and p95 10 points inside the last. Gets: 30%
/// aperture reads (one hop, ≤ 1 KiB) and 70% request/response gets,
/// whose one- and two-hop latencies coincide under the 1 ms get poll.
pub const RMA: Spec = Spec {
    name: "rma",
    pes: 5,
    paper_time: true,
    rma: &[
        (Put { bytes: 64, hops: 1 }, 6),
        (Put { bytes: 512, hops: 1 }, 6),
        (Put { bytes: 4096, hops: 1 }, 2),
        (Put { bytes: 64, hops: 2 }, 2),
        (Put { bytes: 512, hops: 2 }, 1),
        (Put { bytes: 4096, hops: 2 }, 3),
        (Get { bytes: 64, hops: 1 }, 2),
        (Get { bytes: 512, hops: 1 }, 1),
        (Get { bytes: 4096, hops: 1 }, 4),
        (Get { bytes: 64, hops: 2 }, 1),
        (Get { bytes: 512, hops: 2 }, 1),
        (Get { bytes: 4096, hops: 2 }, 1),
        (Amo { hops: 1 }, 4),
        (Burst { hops: 1 }, 2),
        (BulkPut { bytes: 65536, hops: 1 }, 1),
        (BulkPut { bytes: 1 << 20, hops: 1 }, 1),
        (BulkGet { bytes: 65536, hops: 1 }, 1),
        (BulkGet { bytes: 1 << 20, hops: 1 }, 1),
    ],
    coll: &[(Barrier, 1), (Allreduce, 1), (Broadcast, 1)],
};

/// Four-PE ring, paper timing: the paper's two-sweep barrier and the
/// collectives built on it take most of the time; a small one-hop RMA
/// block per round keeps every end-to-end metric defined.
pub const COLLECTIVES: Spec = Spec {
    name: "collectives",
    pes: 4,
    paper_time: true,
    rma: &[
        (Put { bytes: 512, hops: 1 }, 6),
        (Get { bytes: 512, hops: 1 }, 6),
        (Amo { hops: 1 }, 2),
        (Burst { hops: 1 }, 2),
        (BulkPut { bytes: 65536, hops: 1 }, 2),
        (BulkGet { bytes: 65536, hops: 1 }, 2),
    ],
    coll: &[(Barrier, 4), (Allreduce, 4), (Broadcast, 4)],
};

/// Two-PE ring with no modelled delay, the configuration every test and
/// example runs: what remains is the stack's own host cost.
pub const HOST: Spec = Spec {
    name: "host",
    pes: 2,
    paper_time: false,
    rma: &[
        (Put { bytes: 64, hops: 1 }, 8),
        (Get { bytes: 4096, hops: 1 }, 8),
        (Amo { hops: 1 }, 8),
        (Burst { hops: 1 }, 4),
        (BulkPut { bytes: 65536, hops: 1 }, 2),
        (BulkPut { bytes: 1 << 20, hops: 1 }, 1),
        (BulkGet { bytes: 65536, hops: 1 }, 2),
        (BulkGet { bytes: 1 << 20, hops: 1 }, 1),
    ],
    coll: &[(Barrier, 4), (Allreduce, 2), (Broadcast, 2)],
};

pub const WORKLOADS: [&Spec; 3] = [&RMA, &COLLECTIVES, &HOST];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.into_iter().find(|s| s.name == name)
}

/// One concrete RMA op of a round, issued by PE 0.
#[derive(Debug, Clone, Copy)]
pub struct RmaOp {
    pub kind: RmaKind,
    pub target: usize,
    pub slot: usize,
    /// Content tag for writes; fetch-add increment for AMOs.
    pub tag: u64,
}

/// One concrete collective of a round, run by every PE.
#[derive(Debug, Clone, Copy)]
pub struct CollOp {
    pub kind: CollKind,
    pub root: usize,
    pub tag: u64,
}

pub struct RoundPlan {
    pub rma: Vec<RmaOp>,
    pub coll: Vec<CollOp>,
}

impl RmaKind {
    pub fn hops(self) -> usize {
        match self {
            Put { hops, .. }
            | Get { hops, .. }
            | Amo { hops }
            | Burst { hops }
            | BulkPut { hops, .. }
            | BulkGet { hops, .. } => hops,
        }
    }

    /// Payload bytes the op moves.
    pub fn bytes(self) -> usize {
        match self {
            Put { bytes, .. }
            | Get { bytes, .. }
            | BulkPut { bytes, .. }
            | BulkGet { bytes, .. } => bytes,
            Burst { .. } => BURST_MSGS * BURST_MSG_BYTES,
            Amo { .. } => 8,
        }
    }

    /// The region a put/get of this kind addresses (bursts fill a 4 KiB slot).
    pub fn region(self) -> Option<Region> {
        match self {
            Put { bytes, .. }
            | Get { bytes, .. }
            | BulkPut { bytes, .. }
            | BulkGet { bytes, .. } => Some(Region::for_bytes(bytes)),
            Burst { .. } => Some(Region::K4),
            Amo { .. } => None,
        }
    }
}

/// A PE `hops` ring hops away from PE 0, in a seeded direction.
fn target(pes: usize, hops: usize, rng: &mut Rng) -> usize {
    assert!(hops >= 1 && 2 * hops <= pes.max(2), "{pes}-PE ring has no {hops}-hop partner");
    let right = hops % pes;
    let left = (pes - hops) % pes;
    if rng.below(2) == 0 {
        right
    } else {
        left
    }
}

/// The plan of round `round` of workload `spec` under `seed`.
pub fn round_plan(spec: &Spec, seed: u64, round: u64) -> RoundPlan {
    let mut rng = Rng::new(mix(&[seed, 0x9A1, round]));
    let mut rma = Vec::new();
    for &(kind, count) in spec.rma {
        for _ in 0..count {
            let target = target(spec.pes, kind.hops(), &mut rng);
            let slot = kind.region().map_or(0, |r| rng.below(r.slots()));
            let tag = match kind {
                Amo { .. } => 1 + rng.below(255) as u64,
                _ => rng.next_u64(),
            };
            rma.push(RmaOp { kind, target, slot, tag });
        }
    }
    rng.shuffle(&mut rma);
    let mut coll = Vec::new();
    for &(kind, count) in spec.coll {
        for _ in 0..count {
            coll.push(CollOp { kind, root: 0, tag: rng.next_u64() });
        }
    }
    rng.shuffle(&mut coll);
    for (i, c) in coll.iter_mut().enumerate() {
        c.root = (round as usize + i) % spec.pes;
    }
    RoundPlan { rma, coll }
}

/// The allreduce input element `j` of PE `pe` for a collective stamped `tag`.
pub fn allreduce_input(tag: u64, pe: usize, j: usize) -> u64 {
    mix(&[tag, pe as u64, j as u64]) >> 32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_dependent() {
        let order =
            |seed| -> Vec<u64> { round_plan(&RMA, seed, 3).rma.iter().map(|o| o.tag).collect() };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
    }

    #[test]
    fn targets_are_at_the_requested_distance() {
        for spec in WORKLOADS {
            for op in round_plan(spec, 1, 0).rma {
                let d = op.target.min(spec.pes - op.target);
                assert_eq!(d, op.kind.hops(), "{} {:?}", spec.name, op);
            }
        }
    }
}
