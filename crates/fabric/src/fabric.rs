//! Cluster-level fabric registry.

use nbkv_simrt::Sim;

use crate::profiles::FabricProfile;
use crate::transport::{transport_pair, Transport};
use crate::verbs::QueuePair;

/// A simulated interconnect fabric: a factory for connections that all
/// share one [`FabricProfile`].
///
/// One `Fabric` models one physical network (e.g. "the FDR fabric of
/// Cluster A"); experiments that compare transports build one fabric per
/// profile.
#[derive(Clone)]
pub struct Fabric {
    sim: Sim,
    profile: FabricProfile,
}

impl Fabric {
    /// Create a fabric over `sim` with every connection using `profile`.
    pub fn new(sim: &Sim, profile: FabricProfile) -> Self {
        Fabric {
            sim: sim.clone(),
            profile,
        }
    }

    /// Create a connected [`Transport`] pair (profile costs applied).
    pub fn connect(&self) -> (Transport, Transport) {
        transport_pair(&self.sim, self.profile)
    }

    /// Create a verbs [`QueuePair`] for one-sided operations over this
    /// fabric's link model.
    pub fn connect_qp(&self) -> QueuePair {
        QueuePair::new(&self.sim, self.profile.link)
    }

    /// The profile every connection uses.
    pub fn profile(&self) -> &FabricProfile {
        &self.profile
    }

    /// The simulation this fabric lives in.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::fdr_rdma;
    use bytes::Bytes;

    #[test]
    fn connections_are_independent() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let fabric = Fabric::new(&sim2, fdr_rdma());
            let (a1, b1) = fabric.connect();
            let (a2, b2) = fabric.connect();
            let ((a1, _a1_rx), (_b1_tx, b1)) = (a1.split(), b1.split());
            let ((a2, _a2_rx), (_b2_tx, b2)) = (a2.split(), b2.split());
            a1.send(Bytes::from_static(b"one")).await.unwrap();
            a2.send(Bytes::from_static(b"two")).await.unwrap();
            assert_eq!(&b1.recv().await.unwrap()[..], b"one");
            assert_eq!(&b2.recv().await.unwrap()[..], b"two");
        });
    }
}
