//! Behaviour of the barrier-free collectives that run over the
//! persistent collective workspace: floating-point agreement, workspace
//! growth (and a growth the heap cannot hold), team reductions that only
//! the team's members call, and exact results when a forwarding host
//! sheds frames.

use std::time::Duration;

use shmem_ntb::shmem::{ActiveSet, OverloadConfig, ReduceOp, ShmemConfig, ShmemError, ShmemWorld};
use shmem_ntb::sim::EventKind;

fn cfg(hosts: usize) -> ShmemConfig {
    ShmemConfig::fast_sim().with_hosts(hosts)
}

/// Contributions whose sum depends on the order they are added in.
fn order_sensitive(pe: usize) -> Vec<f64> {
    let p = pe as f64;
    vec![1e16 * (1.0 - 2.0 * (pe % 2) as f64), 0.1 * (p + 1.0), 1.0 / (p + 3.0), -p * 1e-17]
}

#[test]
fn f64_sums_are_bit_identical_on_every_pe() {
    let results = ShmemWorld::run(cfg(5), |ctx| {
        let team = ctx.team_split(ActiveSet::world(ctx.num_pes())).expect("team");
        let src = order_sensitive(ctx.my_pe());
        let flat = ctx.allreduce(ReduceOp::Sum, &src).expect("allreduce");
        let tree = ctx.allreduce_tree(ReduceOp::Sum, &src).expect("allreduce_tree");
        let on_team =
            ctx.team_allreduce(&team, ReduceOp::Sum, &src).expect("team").expect("member");
        ctx.barrier_all().expect("barrier");
        ctx.team_destroy(team).expect("destroy");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (bits(&flat), bits(&tree), bits(&on_team))
    })
    .expect("world");
    for (pe, r) in results.iter().enumerate() {
        assert_eq!(r, &results[0], "pe {pe} disagrees with pe 0 bit for bit");
    }
    // The flat fold runs in PE order from the identity.
    let mut want = [0.0f64; 4];
    for pe in 0..5 {
        for (w, x) in want.iter_mut().zip(order_sensitive(pe)) {
            *w += x;
        }
    }
    let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
    assert_eq!(results[0].0, want);
    assert_eq!(results[0].2, want, "the team over the world folds like the world");
}

#[test]
fn large_allreduce_grows_the_workspace_once() {
    const LEN: usize = 8 << 10; // 64 KiB of u64: past the slot cap, so two pieces
    const CALLS: usize = 3;
    let results = ShmemWorld::run(cfg(4), |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let me = ctx.my_pe() as u64;
        let src: Vec<u64> = (0..LEN as u64).map(|i| i * 4 + me).collect();
        let want: Vec<u64> = (0..LEN as u64).map(|i| i * 16 + 6).collect();
        for call in 0..CALLS {
            let got = ctx.allreduce(ReduceOp::Sum, &src).expect("allreduce");
            assert!(got == want, "pe {me}: wrong sums on call {call}");
        }
        ctx.barrier_all().expect("closing barrier");
        assert_eq!(log.dropped(), 0, "trace ring wrapped");
        (ctx.my_pe() == 0).then(|| log.take())
    })
    .expect("world");
    let events = results[0].as_ref().expect("pe 0 took the trace");
    for pe in 0..4 {
        let barriers = events.iter().filter(|e| e.kind == EventKind::BarrierStart && e.pe == pe);
        // The growth barrier (first call only) plus the closing one.
        assert_eq!(barriers.count(), 2, "pe {pe}: growth barriers");
    }
}

#[test]
fn a_growth_the_heap_cannot_hold_leaves_the_workspace_intact() {
    // Small arenas: fill the heap, then ask for a contribution whose
    // landing area no longer fits.
    let mut cfg = cfg(4).with_heap_chunk(1 << 20);
    cfg.net.host_mem_capacity = 8 << 20;
    cfg.net.window_size = 1 << 20;
    let results = ShmemWorld::run(cfg, |ctx| {
        while ctx.heap().malloc(256 << 10).is_ok() {}
        let me = ctx.my_pe() as u64;
        let big = vec![me; 8 << 10];
        let grow = ctx.allreduce(ReduceOp::Sum, &big);
        assert!(matches!(grow, Err(ShmemError::OutOfSymmetricMemory { .. })), "pe {me}: {grow:?}");
        // The old landing area must still be the workspace's: user data
        // allocated now may not share bytes with it.
        let user = ctx.malloc_array::<u64>(64).expect("user array");
        let pattern: Vec<u64> = (0..64).map(|i| 0xABCD_0000 + i).collect();
        ctx.write_local_slice(&user, 0, &pattern).expect("fill");
        ctx.barrier_all().expect("barrier");
        for call in 0..50u64 {
            let got = ctx.allreduce(ReduceOp::Sum, &[me, call, 1]).expect("small allreduce");
            assert_eq!(got, vec![6, 4 * call, 4], "pe {me} call {call}");
        }
        ctx.barrier_all().expect("barrier");
        ctx.read_local_slice(&user, 0, 64).expect("read") == pattern
    })
    .expect("world");
    assert_eq!(results, vec![true; 4], "a workspace put landed in user data");
}

#[test]
fn allreduce_through_a_shedding_forwarder_stays_exact() {
    // A 5-PE ring routes two of every PE's four peers through a
    // neighbour. One-job forward queues shed under the all-to-all
    // exchange; the shed frames come back by retransmission, after frames
    // that were sent later.
    const CALLS: u64 = 60;
    let mut cfg = cfg(5);
    cfg.net.overload = OverloadConfig {
        forward_queue_cap: 1,
        high_watermark: 1,
        low_watermark: 0,
        ..cfg.net.overload
    };
    // Quick retransmission, so the run is not mostly waiting for it.
    cfg.net.retry.ack_timeout = Duration::from_millis(20);
    cfg.net.retry.backoff_base = Duration::from_millis(2);
    cfg.net.retry.max_retries = 50;
    let results = ShmemWorld::run(cfg, |ctx| {
        let log = ctx.node().obs().log().expect("observed world");
        log.enable();
        let me = ctx.my_pe() as u64;
        // Several frames per broadcast, so a forwarder sheds some of them.
        const BCAST: usize = 2048;
        let buf = ctx.calloc_array::<u64>(BCAST).expect("broadcast buffer");
        for call in 0..CALLS {
            let src: Vec<u64> = (0..40).map(|i| call * 1000 + i * 10 + me).collect();
            let want: Vec<u64> = (0..40).map(|i| 5 * (call * 1000 + i * 10) + 10).collect();
            let got = ctx.allreduce(ReduceOp::Sum, &src).expect("allreduce");
            assert!(got == want, "pe {me}: wrong sums on call {call}");
            let got = ctx.allreduce_tree(ReduceOp::Max, &[call * 5 + me]).expect("tree");
            assert_eq!(got, vec![call * 5 + 4], "pe {me}: tree call {call}");
            // The broadcasts land in a caller's buffer, checked by digest.
            for ring in [false, true] {
                let root = ((call + u64::from(ring)) % 5) as usize;
                let payload: Vec<u64> =
                    (0..BCAST as u64).map(|i| (2 * call + u64::from(ring)) * 10_000 + i).collect();
                if ctx.my_pe() == root {
                    ctx.write_local_slice(&buf, 0, &payload).expect("fill");
                }
                match ring {
                    false => ctx.broadcast_tree(&buf, 0, BCAST, root).expect("broadcast_tree"),
                    true => ctx.broadcast_ring(&buf, 0, BCAST, root).expect("broadcast_ring"),
                }
                let got = ctx.read_local_slice(&buf, 0, BCAST).expect("read");
                assert!(got == payload, "pe {me}: wrong broadcast on call {call} (ring {ring})");
            }
        }
        ctx.barrier_all().expect("closing barrier");
        (ctx.my_pe() == 0).then(|| log.take())
    })
    .expect("world");
    let events = results[0].as_ref().expect("pe 0 took the trace");
    let sheds = events.iter().filter(|e| e.kind == EventKind::OverloadShed).count();
    assert!(sheds > 0, "no forwarder shed a frame; the test exercised nothing");
}

#[test]
fn strided_team_allreduce_runs_without_the_non_members() {
    const CALLS: u64 = 200;
    // A contribution larger than the team workspace's slots runs in pieces.
    const BIG: usize = 1000;
    let results = ShmemWorld::run(cfg(6), |ctx| {
        let set = ActiveSet::new(1, 1, 3); // PEs 1, 3, 5
        let team = ctx.team_split(set).expect("team");
        let me = ctx.my_pe() as u64;
        let mut checked = 0;
        if team.is_member() {
            for call in 0..CALLS {
                let got = ctx.team_allreduce(&team, ReduceOp::Sum, &[me, call]).expect("flat");
                assert_eq!(got, Some(vec![9, 3 * call]), "pe {me} call {call}");
                let got =
                    ctx.team_allreduce_tree(&team, ReduceOp::Max, &[me * call]).expect("tree");
                assert_eq!(got, Some(vec![5 * call]), "pe {me} call {call}");
                checked += 2;
            }
            let big: Vec<u64> = (0..BIG as u64).map(|i| i + me).collect();
            let got = ctx.team_allreduce(&team, ReduceOp::Sum, &big).expect("pieces");
            let want: Vec<u64> = (0..BIG as u64).map(|i| 3 * i + 9).collect();
            assert!(got == Some(want), "pe {me}: piecewise team sum");
            checked += 1;
        }
        // Non-members never called a team collective; the world meets
        // again only here.
        ctx.barrier_all().expect("barrier");
        ctx.team_destroy(team).expect("destroy");
        checked
    })
    .expect("world");
    assert_eq!(results, vec![0, 2 * CALLS + 1, 0, 2 * CALLS + 1, 0, 2 * CALLS + 1]);
}
