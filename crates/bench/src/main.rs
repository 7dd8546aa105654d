//! `nbkv-bench <id>`: regenerate one table or figure, `all` of the
//! paper's evaluation, or the pinned `regress` sets (see the crate docs).
//! At exit it prints what the run cost the host to stderr.

use std::time::Instant;

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match nbkv_bench::parse_args(&args) {
        Ok(target) => target.run(),
        Err(e) => {
            eprintln!("nbkv-bench: {e}");
            std::process::exit(2);
        }
    }
    if let Some(cost) = host_cost(start) {
        eprintln!("{cost}");
    }
}

/// One line of what this process cost the host since `start`: wall
/// seconds, peak RSS (`VmHWM`) and minor page faults, read from
/// `/proc/self`. `None` where `/proc` is missing.
fn host_cost(start: Instant) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let hwm_kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    // `minflt` is the 10th field; the 2nd (the command name, in
    // parentheses) may hold spaces, so count from the field after it.
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let minflt: u64 = stat
        .rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(7)?
        .parse()
        .ok()?;
    Some(format!(
        "nbkv-bench: host wall_s={:.2} peak_rss_mib={:.1} minor_faults={minflt}",
        start.elapsed().as_secs_f64(),
        hwm_kib as f64 / 1024.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cost_reads_proc_where_it_exists() {
        let line = host_cost(Instant::now());
        if std::path::Path::new("/proc/self/stat").exists() {
            let line = line.expect("a host-cost line");
            assert!(line.contains(" wall_s=") && line.contains(" peak_rss_mib="));
            assert!(line.contains(" minor_faults="), "{line}");
        } else {
            assert_eq!(line, None);
        }
    }
}
