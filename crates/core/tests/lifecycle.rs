//! Pins the client's op lifecycle (issue cost, window permit, send,
//! completion) on every path an op can take: per-op `iset`/`bset`/`iget`,
//! a doorbell batch, the non-blocking direct `iget` (hit and fallback)
//! and the blocking direct `get` (hit and fallback to RPC). Each case
//! asserts every completion's fields and virtual-time stamps, the final
//! `ClientStats` words and the executor's poll and timer-event counts.
//!
//! The `server_*` cases pin the server's frame paths the same way: a plain
//! and a batch frame on an inline server and on a pipelined one, and a
//! burst of batch frames that overruns the pipelined server's staging
//! queue. Each asserts every completion's server stamps (received,
//! communication done, store done), the `ServerStats` words and the poll
//! and timer-event counts.

use std::rc::Rc;

use bytes::Bytes;
use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_core::{BatchPolicy, Client, Completion, CpuCosts, DirectPolicy};
use nbkv_simrt::{yield_now, Sim};

fn b(s: &str) -> Bytes {
    Bytes::from(s.to_owned())
}

/// Runs `ops` on a one-server cluster configured by `tune`, and renders
/// each completion, the client counters and the executor counts.
fn pin<F>(tune: impl FnOnce(&mut ClusterConfig), ops: impl FnOnce(Rc<Client>) -> F) -> String
where
    F: std::future::Future<Output = Vec<Completion>> + 'static,
{
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
    tune(&mut cfg);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let done = sim.run_until(ops(Rc::clone(&client)));
    let mut out = String::new();
    for c in &done {
        let value = c
            .value
            .as_ref()
            .map(|v| String::from_utf8_lossy(v).into_owned());
        out += &format!(
            "{:?} {:?} {} {:?} {} {} {}\n",
            c.status,
            value,
            c.flags,
            c.stages.served_from,
            c.issued_at.as_nanos(),
            c.sent_at.as_nanos(),
            c.completed_at.as_nanos()
        );
    }
    let st = sim.stats();
    out += &format!(
        "{:?}\npolls {} timers {}",
        client.stats().words(),
        st.polls,
        st.timer_events
    );
    sim.shutdown();
    out
}

/// Runs `ops` on a one-server cluster of `design` configured by `tune`,
/// and renders each completion's server stamps as `recv comm store`, the
/// server counters and the executor counts.
fn pin_server<F>(
    design: Design,
    tune: impl FnOnce(&mut ClusterConfig),
    ops: impl FnOnce(Rc<Client>) -> F,
) -> String
where
    F: std::future::Future<Output = Vec<Completion>> + 'static,
{
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(design, 16 << 20);
    tune(&mut cfg);
    let cluster = build_cluster(&sim, &cfg);
    let done = sim.run_until(ops(Rc::clone(&cluster.clients[0])));
    let mut out = String::new();
    for c in &done {
        let s = &c.stages;
        out += &format!(
            "{} {} {}\n",
            s.server_recv_at_ns, s.comm_done_at_ns, s.store_done_at_ns
        );
    }
    let st = sim.stats();
    out += &format!(
        "{:?}\npolls {} timers {}",
        cluster.servers[0].stats().words(),
        st.polls,
        st.timer_events
    );
    sim.shutdown();
    out
}

/// One plain `iset`, then three `iset`s in one doorbell batch frame.
async fn plain_then_batch(c: Rc<Client>) -> Vec<Completion> {
    let mut done = vec![c.iset(b("p"), b("v"), 0, None).await.unwrap().wait().await];
    let mut hs = Vec::new();
    for i in 0..3 {
        hs.push(
            c.iset(b(&format!("k{i}")), b("val"), 0, None)
                .await
                .unwrap(),
        );
    }
    c.flush_batches();
    done.extend(c.wait_all(&hs).await);
    done
}

fn batched(cfg: &mut ClusterConfig) {
    cfg.client.batch = Some(BatchPolicy::default());
}

#[test]
fn server_inline_plain_and_batch_frames() {
    let got = pin_server(Design::RdmaMem, batched, plain_then_batch);
    assert_eq!(
        got,
        "5615 6615 7167\n\
         12021 13021 13574\n\
         12021 13021 14127\n\
         12021 13021 14680\n\
         [4, 4, 0, 2, 0, 0, 1, 3, 0, 0, 0]\n\
         polls 42 timers 32"
    );
}

#[test]
fn server_pipelined_plain_and_batch_frames() {
    let got = pin_server(Design::HRdmaOptNonBI, batched, plain_then_batch);
    assert_eq!(
        got,
        "5615 6615 7167\n\
         12021 13021 13574\n\
         12021 13021 13574\n\
         12021 13021 13574\n\
         [4, 0, 4, 2, 0, 0, 1, 3, 0, 0, 0]\n\
         polls 53 timers 32"
    );
}

/// Two 40-member batch frames sent back to back by a client whose issue
/// is free: the first frame takes 40 of the 64 staging slots, so the last
/// members of the second wait for slots the workers free.
#[test]
fn server_pipelined_backpressured_batch_burst() {
    let got = pin_server(
        Design::HRdmaOptNonBI,
        |cfg| {
            cfg.client.costs = CpuCosts::zero();
            cfg.client.batch = Some(BatchPolicy {
                max_ops: 64,
                ..BatchPolicy::default()
            });
        },
        |c| async move {
            let mut hs = Vec::new();
            for frame in 0..2 {
                for i in 0..40 {
                    let key = b(&format!("bp{frame}{i:02}"));
                    hs.push(c.iset(key, b("val"), 0, None).await.unwrap());
                }
                c.flush_batches();
                yield_now().await;
            }
            c.wait_all(&hs).await
        },
    );
    assert_eq!(
        got,
        "2550 3550 4103\n\
         2550 3550 4103\n\
         2550 3550 4103\n\
         2550 3550 4103\n\
         2550 3550 4656\n\
         2550 3550 4656\n\
         2550 3550 4656\n\
         2550 3550 4906\n\
         2550 3550 5209\n\
         2550 3550 5209\n\
         2550 3550 5209\n\
         2550 3550 5709\n\
         2550 3550 5762\n\
         2550 3550 5762\n\
         2550 3550 5762\n\
         2550 3550 6315\n\
         2550 3550 6315\n\
         2550 3550 6315\n\
         2550 3550 6512\n\
         2550 3550 6868\n\
         2550 3550 6868\n\
         2550 3550 7065\n\
         2550 3550 7118\n\
         2550 3550 7421\n\
         2550 3550 7618\n\
         2550 3550 7671\n\
         2550 3550 7671\n\
         2550 3550 8171\n\
         2550 3550 8224\n\
         2550 3550 8224\n\
         2550 3550 8224\n\
         2550 3550 8777\n\
         2550 3550 8777\n\
         2550 3550 8777\n\
         2550 3550 8974\n\
         2550 3550 9330\n\
         2550 3550 9330\n\
         2550 3550 9527\n\
         2550 3550 9580\n\
         2550 3550 9883\n\
         3800 4800 10080\n\
         3800 4800 10133\n\
         3800 4800 10133\n\
         3800 4800 10633\n\
         3800 4800 10686\n\
         3800 4800 10686\n\
         3800 4800 10686\n\
         3800 4800 11239\n\
         3800 4800 11239\n\
         3800 4800 11239\n\
         3800 4800 11436\n\
         3800 4800 11792\n\
         3800 4800 11792\n\
         3800 4800 11989\n\
         3800 4800 12042\n\
         3800 4800 12345\n\
         3800 4800 12542\n\
         3800 4800 12595\n\
         3800 4800 12595\n\
         3800 4800 13095\n\
         3800 4800 13148\n\
         3800 4800 13148\n\
         3800 4800 13148\n\
         3800 4800 13701\n\
         3800 4800 13701\n\
         3800 4800 13701\n\
         3800 4800 13898\n\
         3800 4800 14254\n\
         3800 4800 14254\n\
         3800 4800 14451\n\
         3800 4800 14504\n\
         3800 4906 14807\n\
         3800 5209 15004\n\
         3800 5209 15057\n\
         3800 5209 15057\n\
         3800 5709 15557\n\
         3800 5762 15610\n\
         3800 5762 15610\n\
         3800 5762 15610\n\
         3800 6315 16163\n\
         [80, 0, 80, 20, 0, 0, 2, 80, 0, 0, 0]\n\
         polls 360 timers 312"
    );
}

fn direct(cfg: &mut ClusterConfig) {
    cfg.client.direct = DirectPolicy::Always;
}

#[test]
fn per_op_iset_bset_iget() {
    let got = pin(
        |_| {},
        |c| async move {
            let s = c.iset(b("k"), b("v1"), 3, None).await.unwrap().wait().await;
            let bs = c.bset(b("j"), b("v2"), 4, None).await.unwrap().wait().await;
            let g = c.iget(b("k")).await.unwrap().wait().await;
            vec![s, bs, g]
        },
    );
    assert_eq!(
        got,
        "Stored None 0 None 0 665 6387\n\
         Stored None 0 None 6387 7052 12774\n\
         Hit Some(\"v1\") 3 Ram 12774 13435 18958\n\
         [3, 3, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]\n\
         polls 48 timers 33"
    );
}

#[test]
fn batched_isets_and_doorbell() {
    let got = pin(
        |cfg| cfg.client.batch = Some(BatchPolicy::default()),
        |c| async move {
            let mut hs = Vec::new();
            for i in 0..3 {
                hs.push(
                    c.iset(b(&format!("k{i}")), b("val"), i, None)
                        .await
                        .unwrap(),
                );
            }
            c.flush_batches();
            c.wait_all(&hs).await
        },
    );
    assert_eq!(
        got,
        "Stored None 0 None 0 684 6435\n\
         Stored None 0 None 0 684 6435\n\
         Stored None 0 None 0 684 6435\n\
         [3, 3, 0, 0, 0, 0, 0, 1, 1, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]\n\
         polls 36 timers 19"
    );
}

#[test]
fn nonblocking_direct_hit_and_fallback() {
    let got = pin(direct, |c| async move {
        let s = c.set(b("k"), b("hello"), 7, None).await.unwrap();
        let hit = c.iget(b("k")).await.unwrap().wait().await;
        let miss = c.iget(b("absent")).await.unwrap().wait().await;
        vec![s, hit, miss]
    });
    assert_eq!(
        got,
        "Stored None 0 None 1 676 7883\n\
         Hit Some(\"hello\") 7 Ram 7883 7883 15093\n\
         Miss None 0 None 15094 19162 24534\n\
         [4, 4, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]\n\
         polls 52 timers 36"
    );
}

#[test]
fn blocking_direct_hit_and_fallback() {
    let got = pin(direct, |c| async move {
        let s = c.set(b("k"), b("hello"), 7, None).await.unwrap();
        let hit = c.get(b("k")).await.unwrap();
        let miss = c.get(b("absent")).await.unwrap();
        vec![s, hit, miss]
    });
    assert_eq!(
        got,
        "Stored None 0 None 1 676 7883\n\
         Hit Some(\"hello\") 7 Ram 19883 19883 27093\n\
         Miss None 0 None 42900 43561 48933\n\
         [4, 4, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]\n\
         polls 50 timers 38"
    );
}
