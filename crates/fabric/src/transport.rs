//! Profile-aware transport endpoints.
//!
//! [`Transport`] pairs a [`Link`] with the receiving end of the opposite
//! direction and charges the *host-side* costs of the chosen
//! [`FabricProfile`] to the calling task:
//!
//! - RDMA: a sub-microsecond descriptor post per message, zero copies.
//! - IPoIB: per-message TCP-stack CPU plus a per-byte kernel copy on each
//!   end — which is exactly why the paper's `IPoIB-Mem` baseline loses.

use bytes::Bytes;
use nbkv_simrt::{channel, Receiver, Sim};

use crate::fault::FaultPlan;
use crate::link::{Disconnected, Link, SendTicket};
use crate::profiles::FabricProfile;

/// One endpoint of a profile-aware bidirectional transport. [`split`]
/// separates the clonable send half from the receive half, so a progress
/// engine can own the receive side while request issuers keep send
/// handles.
///
/// [`split`]: Transport::split
pub struct Transport {
    tx: TransportTx,
    rx: TransportRx,
}

/// Send half of a split [`Transport`]. Clonable.
#[derive(Clone)]
pub struct TransportTx {
    sim: Sim,
    profile: FabricProfile,
    link: Link,
}

/// Receive half of a split [`Transport`].
pub struct TransportRx {
    sim: Sim,
    profile: FabricProfile,
    rx: Receiver<Bytes>,
}

/// Create a connected transport pair using `profile` in both directions.
pub fn transport_pair(sim: &Sim, profile: FabricProfile) -> (Transport, Transport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    let endpoint = |tx, rx| Transport {
        tx: TransportTx {
            sim: sim.clone(),
            profile,
            link: Link::new(sim.clone(), profile.link, tx),
        },
        rx: TransportRx {
            sim: sim.clone(),
            profile,
            rx,
        },
    };
    (endpoint(a_tx, a_rx), endpoint(b_tx, b_rx))
}

impl Transport {
    /// Split into send and receive halves.
    pub fn split(self) -> (TransportTx, TransportRx) {
        (self.tx, self.rx)
    }

    /// The profile in force.
    pub fn profile(&self) -> &FabricProfile {
        &self.tx.profile
    }

    /// Clone the outgoing link handle (e.g. to keep reading
    /// [`Link::stats`]/fault counters after the transport is consumed).
    pub fn sender_link(&self) -> Link {
        self.tx.link.clone()
    }

    /// Attach (or clear) a fault plan on the outgoing link.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.tx.link.set_fault_plan(plan);
    }
}

impl TransportTx {
    /// Send a message (never waits on the link; see [`Link::send`]),
    /// charging the caller the profile's host-side send costs (descriptor
    /// post; kernel copy for IPoIB).
    pub async fn send(&self, payload: Bytes) -> Result<SendTicket, Disconnected> {
        charge_host(&self.sim, &self.profile, payload.len()).await;
        self.link.send(payload)
    }

    /// The profile in force.
    pub fn profile(&self) -> &FabricProfile {
        &self.profile
    }

    /// True while the peer is alive.
    pub fn is_open(&self) -> bool {
        self.link.is_open()
    }
}

impl TransportRx {
    /// Receive the next message, waiting in virtual time and charging
    /// host-side receive costs. `None` once the peer's send half is fully
    /// dropped.
    pub async fn recv(&self) -> Option<Bytes> {
        let msg = self.rx.recv().await?;
        charge_host(&self.sim, &self.profile, msg.len()).await;
        Some(msg)
    }
}

/// Charge the calling task the profile's per-message CPU plus the copy of
/// `len` bytes; the same on the send and the receive side.
async fn charge_host(sim: &Sim, profile: &FabricProfile, len: usize) {
    let host_cost = profile.per_message_cpu + profile.copy_cost(len);
    if !host_cost.is_zero() {
        sim.sleep(host_cost).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyModel;
    use crate::profiles::{fdr_rdma, ipoib, loopback};
    use std::time::Duration;

    fn ping_pong_us(profile: FabricProfile, len: usize) -> u64 {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (client, server) = transport_pair(&sim2, profile);
            let (s_tx, s_rx) = server.split();
            sim2.spawn(async move {
                while let Some(msg) = s_rx.recv().await {
                    if s_tx.send(msg).await.is_err() {
                        break;
                    }
                }
            });
            let (c_tx, c_rx) = client.split();
            c_tx.send(Bytes::from(vec![0u8; len])).await.unwrap();
            c_rx.recv().await.unwrap();
            sim2.now().as_nanos() / 1_000
        })
    }

    #[test]
    fn rdma_round_trip_is_microseconds() {
        let us = ping_pong_us(fdr_rdma(), 64);
        assert!((3..=10).contains(&us), "64B RDMA round trip {us}us");
    }

    #[test]
    fn ipoib_round_trip_is_tens_of_microseconds() {
        let us = ping_pong_us(ipoib(), 64);
        assert!((30..=80).contains(&us), "64B IPoIB round trip {us}us");
    }

    #[test]
    fn ratio_holds_for_32k_values() {
        let r = ping_pong_us(fdr_rdma(), 32 << 10);
        let i = ping_pong_us(ipoib(), 32 << 10);
        let ratio = i as f64 / r as f64;
        assert!(
            (2.0..=12.0).contains(&ratio),
            "IPoIB/RDMA 32KB ratio {ratio:.1} (rdma={r}us ipoib={i}us)"
        );
    }

    #[test]
    fn loopback_costs_nothing() {
        assert_eq!(ping_pong_us(loopback(), 1 << 20), 0);
    }

    #[test]
    fn cloned_send_halves_share_one_link() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (a, b) = transport_pair(&sim2, loopback());
            let (a_tx, _a_rx) = a.split();
            let (b_tx, b_rx) = b.split();
            let a_tx2 = a_tx.clone();
            a_tx.send(Bytes::from_static(b"one")).await.unwrap();
            a_tx2.send(Bytes::from_static(b"two")).await.unwrap();
            drop(b_tx);
            assert_eq!(&b_rx.recv().await.unwrap()[..], b"one");
            assert_eq!(&b_rx.recv().await.unwrap()[..], b"two");
        });
    }

    #[test]
    fn directions_have_independent_bandwidth() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let profile = FabricProfile {
                link: LatencyModel::from_bandwidth_gbps(Duration::ZERO, 1.0),
                ..loopback()
            };
            let (a, b) = transport_pair(&sim2, profile);
            let ((a_tx, _a_rx), (b_tx, _b_rx)) = (a.split(), b.split());
            // Saturate a->b; b->a must be unaffected.
            let t_ab = a_tx.send(Bytes::from(vec![0u8; 1_000_000])).await.unwrap();
            let t_ba = b_tx.send(Bytes::from(vec![0u8; 100])).await.unwrap();
            assert!(t_ba.sent_at() < t_ab.sent_at());
        });
    }
}
