//! Model-sensitivity sweeps: how the headline result (Def vs Opt-Block vs
//! NonB-i, data > memory) responds to the calibration knobs the simulation
//! had to choose. A reproduction built on a simulator owes its reader this
//! analysis: if the *ordering* flipped under plausible knob settings, the
//! conclusions would be calibration artifacts.

use std::time::Duration;

use nbkv_core::cluster::ClusterConfig;
use nbkv_core::designs::Design;
use nbkv_storesim::DeviceProfile;

use crate::exp::{scaled_bytes, scaled_ops, LatencyExp};
use crate::manifest::Manifest;
use crate::table::{us, Table};

const DESIGNS: [Design; 3] = [
    Design::HRdmaDef,
    Design::HRdmaOptBlock,
    Design::HRdmaOptNonBI,
];

fn mean_latency_ns(design: Design, mutate: &dyn Fn(&mut ClusterConfig)) -> u64 {
    let mem = scaled_bytes(1 << 30);
    let mut e = LatencyExp::single(design, mem, mem + mem / 2);
    e.ops_per_client = scaled_ops(2000);
    mutate(&mut e.cluster);
    e.run().mean_latency_ns
}

fn sweep(t: &mut Table, m: &mut Manifest, label: &str, mutate: &dyn Fn(&mut ClusterConfig)) {
    let cells: Vec<u64> = DESIGNS
        .iter()
        .map(|&d| mean_latency_ns(d, mutate))
        .collect();
    let reg = m.section(label);
    for (d, ns) in DESIGNS.iter().zip(&cells) {
        reg.set_counter(&format!("{}_mean_latency_ns", d.label()), *ns);
    }
    let ordering_holds = cells[0] > cells[1] && cells[1] > cells[2];
    t.row(vec![
        label.to_string(),
        us(cells[0]),
        us(cells[1]),
        us(cells[2]),
        if ordering_holds { "yes" } else { "NO" }.to_string(),
    ]);
}

/// Regenerate the calibration-knob sensitivity table.
pub fn run(m: &mut Manifest) -> Vec<Table> {
    let mut t = Table::new(
        "sensitivity",
        "Headline ordering under calibration-knob sweeps (avg latency, us; data > memory)",
        &[
            "knob setting",
            "H-RDMA-Def",
            "Opt-Block",
            "NonB-i",
            "Def > Opt > NonB ?",
        ],
    );

    sweep(&mut t, m, "baseline", &|_| {});

    // Network jitter on every link.
    for jitter_us in [5u64, 20] {
        sweep(
            &mut t,
            m,
            &format!("link jitter {jitter_us}us"),
            &move |cfg| {
                let mut profile = cfg.design.fabric_profile();
                profile.link = profile.link.with_jitter(Duration::from_micros(jitter_us));
                cfg.fabric_override = Some(profile);
            },
        );
    }

    // Flash garbage collection enabled (heavy: 1 ms stall per 16 MiB).
    sweep(&mut t, m, "SSD GC 1ms/16MiB", &|cfg| {
        cfg.device = cfg.device.with_gc(16 << 20, Duration::from_millis(1));
    });

    // Sync-write penalty halved / doubled.
    sweep(&mut t, m, "sync penalty x2 (8x)", &|cfg| {
        cfg.device = DeviceProfile {
            sync_write_multiplier: 8.0,
            ..cfg.device
        };
    });
    sweep(&mut t, m, "sync penalty off (1x)", &|cfg| {
        cfg.device = DeviceProfile {
            sync_write_multiplier: 1.0,
            ..cfg.device
        };
    });

    // OS cache small and large.
    sweep(&mut t, m, "os cache = 1x mem", &|cfg| {
        cfg.os_cache_bytes = cfg.server_mem_bytes;
    });
    sweep(&mut t, m, "os cache = 16x mem", &|cfg| {
        cfg.os_cache_bytes = 16 * cfg.server_mem_bytes;
    });

    t.note("the paper's ordering must hold in every row; magnitudes legitimately shift with the knobs.");
    vec![t]
}
