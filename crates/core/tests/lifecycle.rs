//! Pins the client's op lifecycle (issue cost, window permit, send,
//! completion) on every path an op can take: per-op `iset`/`bset`/`iget`,
//! a doorbell batch, the non-blocking direct `iget` (hit and fallback)
//! and the blocking direct `get` (hit and fallback to RPC). Each case
//! asserts every completion's fields and virtual-time stamps, the final
//! `ClientStats` words and the executor's poll and timer-event counts.

use std::rc::Rc;

use bytes::Bytes;
use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_core::{BatchPolicy, Client, Completion, DirectPolicy};
use nbkv_simrt::Sim;

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
        "Stored None 0 None 0 665 6388\n\
         Stored None 0 None 6388 7053 12776\n\
         Hit Some(\"v1\") 3 Ram 12776 13437 18962\n\
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
        "Stored None 0 None 0 684 6439\n\
         Stored None 0 None 0 684 6439\n\
         Stored None 0 None 0 684 6439\n\
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
        "Stored None 0 None 1 676 7884\n\
         Hit Some(\"hello\") 7 Ram 7884 7884 15094\n\
         Miss None 0 None 15095 19163 24537\n\
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
        "Stored None 0 None 1 676 7884\n\
         Hit Some(\"hello\") 7 Ram 19884 19884 27094\n\
         Miss None 0 None 42901 43562 48936\n\
         [4, 4, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]\n\
         polls 50 timers 38"
    );
}
