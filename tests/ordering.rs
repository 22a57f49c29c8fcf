//! Delivery-order regressions.
//!
//! A link's slot ring delivers frames in the order the sender published
//! them, so the last of several puts to one word wins. These tests pin
//! it through the public API with batches that wrap the transmit ring,
//! and run thousands of barrier-free workspace allreduces interleaved
//! with barriers, every result checked.

use shmem_ntb::shmem::{OpOptions, ReduceOp, ShmemConfig, ShmemWorld};

/// Transmit-ring slots per link in the default configuration; every
/// burst below is longer, so each one wraps the ring.
const RING_SLOTS: usize = 8;

#[test]
fn last_of_a_ring_wrapping_coalesced_burst_wins() {
    const ROUNDS: u64 = 200;
    const BURST: u64 = RING_SLOTS as u64 + 5;
    let lost = ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(2), |ctx| {
        let word = ctx.calloc_array::<u64>(1).expect("calloc");
        let opts = OpOptions::new().coalesce(true);
        let mut lost = Vec::new();
        for round in 0..ROUNDS {
            if ctx.my_pe() == 0 {
                for i in 1..=BURST {
                    ctx.put_slice_opts(&word, 0, &[round * 100 + i], 1, opts).expect("put");
                }
                ctx.quiet().expect("quiet");
            }
            ctx.barrier_all().expect("barrier");
            if ctx.my_pe() == 1 {
                let got = ctx.read_local(&word, 0).expect("read");
                if got != round * 100 + BURST {
                    lost.push((round, got));
                }
            }
            ctx.barrier_all().expect("barrier");
        }
        lost
    })
    .expect("world");
    assert!(lost[1].is_empty(), "an earlier put overwrote the last one in rounds {:?}", lost[1]);
}

#[test]
fn thousands_of_workspace_allreduces_interleaved_with_barriers() {
    const CALLS: u64 = 3000;
    let bad = ShmemWorld::run(ShmemConfig::fast_sim().with_hosts(4), |ctx| {
        let me = ctx.my_pe() as u64;
        let mut bad = Vec::new();
        for call in 0..CALLS {
            let src = [call * 10 + me, me, call];
            let got = ctx.allreduce(ReduceOp::Sum, &src).expect("allreduce");
            let want = [call * 40 + 6, 6, call * 4];
            if got != want {
                bad.push((call, got));
            }
            if call % 3 == 0 {
                ctx.barrier_all().expect("barrier");
            }
        }
        bad
    })
    .expect("world");
    for (pe, bad) in bad.iter().enumerate() {
        assert!(bad.is_empty(), "pe {pe}: wrong sums at {:?}", &bad[..bad.len().min(5)]);
    }
}
