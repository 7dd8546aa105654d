//! Table I — design feature comparison.

use nbkv_core::designs::Design;

use crate::runner::Figure;
use crate::table::Table;

/// Table I as implemented by this reproduction. Table I is a feature
/// matrix with nothing measured: no cases, and the manifest stays empty.
pub const FIGURE: Figure = Figure(Vec::new, |_| vec![render()]);

fn render() -> Table {
    let mut t = Table::new(
        "table1",
        "Design comparison with existing work (as implemented)",
        &[
            "feature",
            "IPoIB-Mem",
            "RDMA-Mem",
            "H-RDMA-Def",
            "This paper (Opt)",
        ],
    );
    let designs = [
        Design::IpoibMem,
        Design::RdmaMem,
        Design::HRdmaDef,
        Design::HRdmaOptNonBI,
    ];
    let optimized = |d: Design| {
        matches!(
            d,
            Design::HRdmaOptBlock | Design::HRdmaOptNonBB | Design::HRdmaOptNonBI
        )
    };
    let features: [(&str, &dyn Fn(Design) -> bool); 5] = [
        ("RDMA-based communication", &|d| {
            d.fabric_profile().name.starts_with("rdma")
        }),
        ("Hybrid memory with SSD", &|d| d.is_hybrid()),
        ("Adaptive I/O enhancements", &optimized),
        // The paper evaluates NVMe only with its own optimized designs
        // (Table I row 4).
        ("NVMe-SSD support", &optimized),
        ("Non-blocking API extensions", &|d| {
            d.flavor().is_nonblocking()
        }),
    ];
    for (feature, has) in features {
        let mut row = vec![feature.to_string()];
        row.extend(designs.map(|d| if has(d) { "Y" } else { "N" }.to_string()));
        t.row(row);
    }
    t.note(
        "Paper Table I: only 'This Paper' has adaptive I/O, NVMe support, and non-blocking APIs.",
    );
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_shape() {
        let t = &super::render();
        assert_eq!(t.rows.len(), 5);
        // The Opt column is all-Y.
        for r in &t.rows {
            assert_eq!(r[4], "Y", "{}", r[0]);
        }
        // IPoIB-Mem has no feature except being a baseline.
        assert!(t.rows.iter().all(|r| r[1] == "N"));
    }
}
