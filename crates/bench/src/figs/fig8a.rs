//! Figure 8(a) — hybrid designs on NVMe vs SATA SSDs, read-only and
//! write-heavy mixes (single client/server, data larger than memory).

use nbkv_core::designs::Design;
use nbkv_storesim::DeviceProfile;
use nbkv_workload::{OpMix, RunReport};

use crate::exp::{scaled_bytes, LatencyExp};
use crate::manifest::Manifest;
use crate::table::{us, Table};

const DESIGNS: [Design; 4] = [
    Design::HRdmaDef,
    Design::HRdmaOptBlock,
    Design::HRdmaOptNonBB,
    Design::HRdmaOptNonBI,
];

/// Run one (design, device, mix) cell.
pub fn cell_report(design: Design, device: DeviceProfile, mix: OpMix) -> RunReport {
    let mem = scaled_bytes(1 << 30);
    let mut exp = LatencyExp::single(design, mem, mem + mem / 2);
    exp.cluster.device = device;
    exp.mix = mix;
    exp.run()
}

/// One (design, device, mix) cell: average latency in ns.
pub fn cell(design: Design, device: DeviceProfile, mix: OpMix) -> u64 {
    cell_report(design, device, mix).mean_latency_ns
}

/// Regenerate the SATA vs NVMe comparison.
pub fn run(m: &mut Manifest) -> Vec<Table> {
    let mut t = Table::new(
        "fig8a",
        "Avg Set/Get latency (us): SATA vs NVMe SSD, read-only and write-heavy",
        &[
            "design",
            "SATA read-only",
            "SATA write-heavy",
            "NVMe read-only",
            "NVMe write-heavy",
        ],
    );
    let mut sata_wh: Vec<(Design, u64)> = Vec::new();
    let mut nvme_wh: Vec<(Design, u64)> = Vec::new();
    for design in DESIGNS {
        let mut cell_rec = |dev_label: &str, device, mix_label: &str, mix| -> u64 {
            let r = cell_report(design, device, mix);
            m.record_report(
                &format!("fig8a/{dev_label}/{mix_label}/{}", design.label()),
                &r,
            );
            r.mean_latency_ns
        };
        let s_ro = cell_rec("sata", nbkv_storesim::sata_ssd(), "ro", OpMix::READ_ONLY);
        let s_wh = cell_rec("sata", nbkv_storesim::sata_ssd(), "wh", OpMix::WRITE_HEAVY);
        let n_ro = cell_rec("nvme", nbkv_storesim::nvme_p3700(), "ro", OpMix::READ_ONLY);
        let n_wh = cell_rec(
            "nvme",
            nbkv_storesim::nvme_p3700(),
            "wh",
            OpMix::WRITE_HEAVY,
        );
        sata_wh.push((design, s_wh));
        nvme_wh.push((design, n_wh));
        t.row(vec![
            design.label().to_string(),
            us(s_ro),
            us(s_wh),
            us(n_ro),
            us(n_wh),
        ]);
    }
    let imp = |v: &[(Design, u64)], from: Design, to: Design| -> f64 {
        let f = v.iter().find(|(d, _)| *d == from).expect("ran").1 as f64;
        let t = v.iter().find(|(d, _)| *d == to).expect("ran").1 as f64;
        100.0 * (1.0 - t / f)
    };
    t.note(format!(
        "paper: Opt-Block improves 54-83% over Def; measured (write-heavy) SATA {:.0}%, NVMe {:.0}%",
        imp(&sata_wh, Design::HRdmaDef, Design::HRdmaOptBlock),
        imp(&nvme_wh, Design::HRdmaDef, Design::HRdmaOptBlock),
    ));
    t.note(format!(
        "paper: NonB-b/i improve 48-80% over Opt-Block, larger gains on SATA than NVMe; measured (write-heavy) SATA {:.0}%, NVMe {:.0}%",
        imp(&sata_wh, Design::HRdmaOptBlock, Design::HRdmaOptNonBI),
        imp(&nvme_wh, Design::HRdmaOptBlock, Design::HRdmaOptNonBI),
    ));
    vec![t]
}
