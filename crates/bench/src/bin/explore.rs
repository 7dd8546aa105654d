//! Free-form experiment runner: pick a design, sizes, mix, and device from
//! the command line and get a full report. The escape hatch for questions
//! the fixed figure harnesses don't answer.
//!
//! ```text
//! cargo run --release -p nbkv-bench --bin explore -- \
//!     --design h-rdma-opt-nonb-i --mem-mb 256 --data-mb 384 \
//!     --value-kb 32 --ops 4000 --read-pct 50 --device sata \
//!     --servers 1 --clients 1
//! ```

use std::collections::BTreeMap;
use std::ops::RangeInclusive;

use nbkv_core::designs::Design;
use nbkv_core::DirectPolicy;
use nbkv_storesim::{nvme_p3700, sata_ssd};
use nbkv_workload::OpMix;

use nbkv_bench::exp::LatencyExp;
use nbkv_bench::table::{us, us_f, Table};

const FLAGS: [&str; 11] = [
    "--design",
    "--mem-mb",
    "--data-mb",
    "--value-kb",
    "--ops",
    "--read-pct",
    "--device",
    "--servers",
    "--clients",
    "--window",
    "--direct",
];

/// Upper bound for every count and size flag (1 TiB in MiB), so that the
/// byte conversions cannot overflow.
const MAX: u64 = 1 << 20;

type Flags<'a> = BTreeMap<&'a str, &'a str>;

/// The numeric value of `flag`, or `default` when it is absent.
fn num(flags: &Flags, flag: &str, default: u64, range: RangeInclusive<u64>) -> Result<u64, String> {
    let Some(v) = flags.get(flag) else {
        return Ok(default);
    };
    match v.parse() {
        Ok(n) if range.contains(&n) => Ok(n),
        _ => Err(format!("{flag}: `{v}` is not a number in {range:?}")),
    }
}

/// The named option `flag` selects (case-insensitive), or `default`.
fn pick<T: Copy>(
    flags: &Flags,
    flag: &str,
    default: T,
    options: &[(&str, T)],
) -> Result<T, String> {
    let Some(v) = flags.get(flag) else {
        return Ok(default);
    };
    let names: Vec<&str> = options.iter().map(|&(name, _)| name).collect();
    options
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(v))
        .map(|&(_, t)| t)
        .ok_or_else(|| format!("{flag}: `{v}` is not one of {}", names.join(", ")))
}

/// Parse `--flag value` pairs into the experiment to run; `Ok(None)` asks
/// for the help text. An unknown flag, a missing value, or a value the
/// flag does not accept is an error naming the flag.
fn parse(args: &[String]) -> Result<Option<LatencyExp>, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(None);
    }
    let mut flags = Flags::new();
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{}: missing value", pair[0]));
        };
        if !FLAGS.contains(&flag.as_str()) {
            return Err(format!("unknown flag `{flag}`"));
        }
        flags.insert(flag, value);
    }
    let designs = Design::ALL.map(|d| (d.label(), d));
    let design = pick(&flags, "--design", Design::HRdmaOptNonBI, &designs)?;
    let mem = num(&flags, "--mem-mb", 256, 1..=MAX)? << 20;
    let data = num(&flags, "--data-mb", 384, 1..=MAX)? << 20;
    let mut e = LatencyExp::single(design, mem, data);
    e.value_len = (num(&flags, "--value-kb", 32, 1..=MAX)? << 10) as usize;
    e.ops_per_client = num(&flags, "--ops", 4000, 1..=MAX)? as usize;
    e.mix = OpMix {
        read_pct: num(&flags, "--read-pct", 50, 0..=100)? as u8,
    };
    e.window = num(&flags, "--window", 64, 1..=MAX)? as usize;
    let c = &mut e.cluster;
    c.servers = num(&flags, "--servers", 1, 1..=MAX)? as usize;
    c.clients = num(&flags, "--clients", 1, 1..=MAX)? as usize;
    let devices = [("sata", sata_ssd()), ("nvme", nvme_p3700())];
    c.device = pick(&flags, "--device", sata_ssd(), &devices)?;
    let policies = [
        ("off", DirectPolicy::Off),
        ("always", DirectPolicy::Always),
        ("adaptive", DirectPolicy::Adaptive),
    ];
    c.client.direct = pick(&flags, "--direct", DirectPolicy::Off, &policies)?;
    Ok(Some(e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = format!(
        "flags: {} (each takes a value; --device sata|nvme, --direct off|always|adaptive)\n\
         designs: {}",
        FLAGS.join(" "),
        Design::ALL.map(|d| d.label()).join(", ")
    );
    let exp = match parse(&args) {
        Ok(Some(exp)) => exp,
        Ok(None) => {
            println!("{usage}");
            return;
        }
        Err(e) => {
            eprintln!("explore: {e}\n{usage}");
            std::process::exit(2);
        }
    };
    let c = &exp.cluster;
    eprintln!(
        "running: {} | mem {} MiB x{} servers | data {} MiB | kv {} KiB | {} ops x{} clients | {}",
        c.design.label(),
        c.server_mem_bytes >> 20,
        c.servers,
        exp.data_bytes >> 20,
        exp.value_len >> 10,
        exp.ops_per_client,
        c.clients,
        c.device.name,
    );
    let (r, _) = exp.run();

    let mut t = Table::new(
        "explore",
        &format!("{} custom run", c.design.label()),
        &["metric", "value"],
    );
    let gets = (r.hits + r.misses).max(1) as f64;
    let b = &r.breakdown;
    let rows = [
        ("mean latency (us)", us(r.mean_latency_ns)),
        ("p99 latency (us)", us(r.p99_latency_ns)),
        (
            "throughput (ops/s)",
            format!("{:.0}", r.throughput_ops_per_sec()),
        ),
        ("overlap %", format!("{:.1}", r.overlap_pct)),
        (
            "miss rate %",
            format!("{:.2}", 100.0 * r.misses as f64 / gets),
        ),
        (
            "ssd-hit rate %",
            format!("{:.2}", 100.0 * r.ssd_hits as f64 / gets),
        ),
        ("backend queries", r.backend_fetches.to_string()),
        ("stage: slab alloc (us)", us_f(b.slab_alloc_ns)),
        ("stage: check+load (us)", us_f(b.check_load_ns)),
        ("stage: cache update (us)", us_f(b.cache_update_ns)),
        ("stage: server resp (us)", us_f(b.response_ns)),
        ("stage: client wait (us)", us_f(b.client_wait_ns)),
        ("stage: miss penalty (us)", us_f(b.miss_penalty_ns)),
    ];
    for (metric, value) in rows {
        t.row(vec![metric.to_string(), value]);
    }
    println!("{}", t.to_markdown());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(a: &[&str]) -> Result<Option<LatencyExp>, String> {
        parse(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_flags_parse() {
        let e = parse_strs(&[]).unwrap().unwrap();
        assert_eq!(e.cluster.design, Design::HRdmaOptNonBI);
        assert_eq!(
            (e.cluster.server_mem_bytes, e.data_bytes),
            (256 << 20, 384 << 20)
        );
        assert_eq!(
            (e.value_len, e.ops_per_client, e.window),
            (32 << 10, 4000, 64)
        );
        assert_eq!(e.cluster.device, sata_ssd());
        assert_eq!(e.cluster.client.direct, DirectPolicy::Off);
        let e = parse_strs(&[
            "--design", "RDMA-Mem", "--device", "nvme", "--direct", "adaptive",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(e.cluster.design, Design::RdmaMem);
        assert_eq!(e.cluster.device, nvme_p3700());
        assert_eq!(e.cluster.client.direct, DirectPolicy::Adaptive);
        let e = parse_strs(&["--read-pct", "90", "--servers", "2"])
            .unwrap()
            .unwrap();
        assert_eq!((e.mix.read_pct, e.cluster.servers), (90, 2));
        assert!(parse_strs(&["--ops", "5", "-h"]).unwrap().is_none());
    }

    #[test]
    fn bad_input_names_the_flag() {
        for (args, flag) in [
            (&["--design", "nope"][..], "--design"),
            (&["--device", "tape"], "--device"),
            (&["--direct", "sometimes"], "--direct"),
            (&["--mem-mb", "lots"], "--mem-mb"),
            (&["--ops", "-3"], "--ops"),
            (&["--read-pct", "101"], "--read-pct"),
            (&["--servers", "0"], "--servers"),
            (&["--window"], "--window"),
            (&["--bogus", "1"], "--bogus"),
        ] {
            let err = parse_strs(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(
                err.starts_with(flag) || err.contains(&format!("`{flag}`")),
                "{err}"
            );
        }
    }
}
