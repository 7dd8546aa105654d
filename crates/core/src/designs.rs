//! The six designs the paper evaluates, as configuration factories.
//!
//! | Design | Transport | Store | Slab I/O | Server pipeline | Client API |
//! |---|---|---|---|---|---|
//! | `IPoIB-Mem` | IPoIB | memory-only | — | no | blocking |
//! | `RDMA-Mem` | RDMA | memory-only | — | no | blocking |
//! | `H-RDMA-Def` | RDMA | hybrid | direct | no | blocking |
//! | `H-RDMA-Opt-Block` | RDMA | hybrid | adaptive | yes | blocking |
//! | `H-RDMA-Opt-NonB-b` | RDMA | hybrid | adaptive | yes | `bset`/`bget` |
//! | `H-RDMA-Opt-NonB-i` | RDMA | hybrid | adaptive | yes | `iset`/`iget` |

use nbkv_fabric::{profiles, FabricProfile};

use crate::costs::CpuCosts;
use crate::proto::ApiFlavor;
use crate::server::{IoPolicy, PromotePolicy, ServerConfig, StoreConfig, StoreKind};

/// One of the paper's evaluated designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// Default Memcached over IP-over-IB (in-memory, blocking).
    IpoibMem,
    /// RDMA-based in-memory Memcached (blocking).
    RdmaMem,
    /// Existing SSD-assisted RDMA Memcached: direct I/O, blocking.
    HRdmaDef,
    /// This paper, server-side optimizations only: adaptive I/O, blocking.
    HRdmaOptBlock,
    /// This paper, non-blocking with buffer-reuse guarantee (`bset`/`bget`).
    HRdmaOptNonBB,
    /// This paper, purely non-blocking (`iset`/`iget`).
    HRdmaOptNonBI,
}

/// Scaling knobs shared by experiments.
#[derive(Debug, Clone, Copy)]
pub struct SpecParams {
    /// Server RAM budget for slab pages.
    pub mem_bytes: u64,
    /// Per-server SSD byte budget.
    pub ssd_capacity: u64,
    /// CPU cost model.
    pub costs: CpuCosts,
}

impl Design {
    /// All six designs, in the paper's presentation order.
    pub const ALL: [Design; 6] = [
        Design::IpoibMem,
        Design::RdmaMem,
        Design::HRdmaDef,
        Design::HRdmaOptBlock,
        Design::HRdmaOptNonBB,
        Design::HRdmaOptNonBI,
    ];

    /// The paper's label for this design.
    pub fn label(self) -> &'static str {
        match self {
            Design::IpoibMem => "IPoIB-Mem",
            Design::RdmaMem => "RDMA-Mem",
            Design::HRdmaDef => "H-RDMA-Def",
            Design::HRdmaOptBlock => "H-RDMA-Opt-Block",
            Design::HRdmaOptNonBB => "H-RDMA-Opt-NonB-b",
            Design::HRdmaOptNonBI => "H-RDMA-Opt-NonB-i",
        }
    }

    /// Transport profile.
    pub fn fabric_profile(self) -> FabricProfile {
        match self {
            Design::IpoibMem => profiles::ipoib(),
            _ => profiles::fdr_rdma(),
        }
    }

    /// Whether this design keeps evicted data on SSD.
    pub fn is_hybrid(self) -> bool {
        !matches!(self, Design::IpoibMem | Design::RdmaMem)
    }

    /// Which API family the workload drives this design with.
    pub fn flavor(self) -> ApiFlavor {
        match self {
            Design::HRdmaOptNonBB => ApiFlavor::NonBlockingB,
            Design::HRdmaOptNonBI => ApiFlavor::NonBlockingI,
            _ => ApiFlavor::Block,
        }
    }

    /// Server configuration for this design.
    pub fn server_config(self, p: SpecParams) -> ServerConfig {
        let store = if self.is_hybrid() {
            StoreConfig {
                kind: StoreKind::Hybrid,
                mem_bytes: p.mem_bytes,
                ssd_capacity: p.ssd_capacity,
                io_policy: match self {
                    Design::HRdmaDef => IoPolicy::Direct,
                    _ => IoPolicy::Adaptive,
                },
                promote: PromotePolicy::IfFree,
                costs: p.costs,
            }
        } else {
            StoreConfig {
                costs: p.costs,
                ..StoreConfig::memory_only(p.mem_bytes)
            }
        };
        match self {
            Design::HRdmaOptBlock | Design::HRdmaOptNonBB | Design::HRdmaOptNonBI => {
                ServerConfig::pipelined(store)
            }
            _ => ServerConfig::basic(store),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbkv_storesim::IoScheme;

    fn params() -> SpecParams {
        SpecParams {
            mem_bytes: 64 << 20,
            ssd_capacity: 1 << 30,
            costs: CpuCosts::default_costs(),
        }
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = Design::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(
            labels,
            vec![
                "IPoIB-Mem",
                "RDMA-Mem",
                "H-RDMA-Def",
                "H-RDMA-Opt-Block",
                "H-RDMA-Opt-NonB-b",
                "H-RDMA-Opt-NonB-i"
            ]
        );
    }

    #[test]
    fn only_ipoib_uses_ipoib_transport() {
        for d in Design::ALL {
            let expect = if d == Design::IpoibMem {
                "ipoib-fdr"
            } else {
                "rdma-fdr"
            };
            assert_eq!(d.fabric_profile().name, expect, "{d:?}");
        }
    }

    #[test]
    fn def_design_uses_direct_io() {
        let cfg = Design::HRdmaDef.server_config(params());
        assert_eq!(cfg.store.io_policy.scheme_for(1 << 20), IoScheme::Direct);
        assert!(!cfg.pipeline);
    }

    #[test]
    fn opt_designs_use_adaptive_io_and_pipeline() {
        for d in [
            Design::HRdmaOptBlock,
            Design::HRdmaOptNonBB,
            Design::HRdmaOptNonBI,
        ] {
            let cfg = d.server_config(params());
            assert!(cfg.pipeline, "{d:?}");
            // Adaptive: small chunks mmap, large chunks cached.
            assert_eq!(cfg.store.io_policy.scheme_for(4 << 10), IoScheme::Mmap);
            assert_eq!(cfg.store.io_policy.scheme_for(256 << 10), IoScheme::Cached);
        }
    }

    #[test]
    fn in_memory_designs_have_no_ssd() {
        for d in [Design::IpoibMem, Design::RdmaMem] {
            let cfg = d.server_config(params());
            assert_eq!(cfg.store.kind, StoreKind::MemoryOnly);
            assert!(!d.is_hybrid());
        }
    }

    #[test]
    fn flavors_map_to_apis() {
        assert_eq!(Design::HRdmaOptNonBI.flavor(), ApiFlavor::NonBlockingI);
        assert_eq!(Design::HRdmaOptNonBB.flavor(), ApiFlavor::NonBlockingB);
        assert_eq!(Design::HRdmaOptBlock.flavor(), ApiFlavor::Block);
        assert_eq!(Design::RdmaMem.flavor(), ApiFlavor::Block);
    }
}
