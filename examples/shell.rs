//! An interactive memcached-style shell over a simulated hybrid cluster.
//!
//! The simulation persists across commands, so you can watch virtual time,
//! slab occupancy, and SSD spill evolve as you type:
//!
//! ```text
//! cargo run --release --example shell
//! nbkv> set greeting hello
//! STORED (5.8us)
//! nbkv> get greeting
//! VALUE greeting 0 5 (cas 2)
//! hello
//! nbkv> incr counter 5
//! NOT_FOUND
//! nbkv> stats
//! ...
//! ```

use std::io::{BufRead, Write};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv::core::cluster::{build_cluster, Cluster, ClusterConfig};
use nbkv::core::designs::Design;
use nbkv::core::proto::OpStatus;
use nbkv::core::Completion;
use nbkv::simrt::Sim;

fn status_str(s: OpStatus) -> &'static str {
    match s {
        OpStatus::Stored => "STORED",
        OpStatus::Hit => "HIT",
        OpStatus::Miss => "MISS",
        OpStatus::Deleted => "DELETED",
        OpStatus::NotFound => "NOT_FOUND",
        OpStatus::Exists => "EXISTS",
        OpStatus::NotStored => "NOT_STORED",
        OpStatus::Error => "ERROR",
    }
}

fn print_done(done: &Completion) {
    println!(
        "{} ({:.1}us)",
        status_str(done.status),
        done.latency_ns() as f64 / 1e3
    );
}

fn main() {
    let sim = Sim::new();
    let cluster: Cluster = build_cluster(&sim, &ClusterConfig::new(Design::HRdmaOptNonBI, 8 << 20));
    let client = Rc::clone(&cluster.clients[0]);

    println!("nbkv shell — hybrid RDMA key-value store (simulated, 8 MiB RAM + SATA SSD)");
    println!("commands: set|add|replace|append|prepend k v [ttl_ms] · get k · del k");
    println!("          incr|decr k n · touch k ttl_ms · stats · time · help · quit");

    let stdin = std::io::stdin();
    loop {
        print!("nbkv> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let Some(&cmd) = parts.first() else { continue };
        let key = |i: usize| Bytes::from(parts.get(i).copied().unwrap_or("").to_string());
        let val = |i: usize| Bytes::from(parts.get(i).copied().unwrap_or("").to_string());
        let ttl = |i: usize| {
            parts
                .get(i)
                .and_then(|t| t.parse::<u64>().ok())
                .map(Duration::from_millis)
        };

        match cmd {
            "quit" | "exit" => break,
            "help" => {
                println!("set/add/replace/append/prepend <key> <value> [ttl_ms]");
                println!("get/del <key> · incr/decr <key> <n> · touch <key> <ttl_ms>");
                println!("stats · time · quit");
            }
            "time" => println!("virtual time: {}", sim.now()),
            "stats" => {
                let client = Rc::clone(&client);
                let snap = sim.run_until(async move { client.server_stats(0).await.unwrap() });
                for (name, v) in snap.fields() {
                    println!("STAT {name} {v}");
                }
                println!("END");
            }
            "get" if parts.len() >= 2 => {
                let client = Rc::clone(&client);
                let k = key(1);
                let done = sim.run_until(async move { client.get(k).await.unwrap() });
                if done.status == OpStatus::Hit {
                    let v = done.value.clone().unwrap_or_default();
                    println!(
                        "VALUE {} {} {} (cas {}, {:.1}us, {})",
                        parts[1],
                        done.flags,
                        v.len(),
                        done.cas,
                        done.latency_ns() as f64 / 1e3,
                        match done.stages.served_from {
                            nbkv::core::ServedFrom::Ram => "ram",
                            nbkv::core::ServedFrom::Ssd => "ssd",
                            nbkv::core::ServedFrom::None => "-",
                        }
                    );
                    println!("{}", String::from_utf8_lossy(&v));
                } else {
                    print_done(&done);
                }
            }
            "del" | "delete" if parts.len() >= 2 => {
                let client = Rc::clone(&client);
                let k = key(1);
                let done = sim.run_until(async move { client.delete(k).await.unwrap() });
                print_done(&done);
            }
            "set" | "add" | "replace" if parts.len() >= 3 => {
                let client = Rc::clone(&client);
                let (k, v, t) = (key(1), val(2), ttl(3));
                let op = cmd.to_string();
                let done = sim.run_until(async move {
                    match op.as_str() {
                        "add" => client.add(k, v, 0, t).await.unwrap(),
                        "replace" => client.replace(k, v, 0, t).await.unwrap(),
                        _ => client.set(k, v, 0, t).await.unwrap(),
                    }
                });
                print_done(&done);
            }
            "append" | "prepend" if parts.len() >= 3 => {
                let client = Rc::clone(&client);
                let (k, v) = (key(1), val(2));
                let op = cmd.to_string();
                let done = sim.run_until(async move {
                    if op == "append" {
                        client.append(k, v).await.unwrap()
                    } else {
                        client.prepend(k, v).await.unwrap()
                    }
                });
                print_done(&done);
            }
            "incr" | "decr" if parts.len() >= 3 => {
                let client = Rc::clone(&client);
                let k = key(1);
                let n: u64 = parts[2].parse().unwrap_or(1);
                let op = cmd.to_string();
                let done = sim.run_until(async move {
                    if op == "incr" {
                        client.incr(k, n).await.unwrap()
                    } else {
                        client.decr(k, n).await.unwrap()
                    }
                });
                if done.status == OpStatus::Stored {
                    println!("{} ({:.1}us)", done.counter, done.latency_ns() as f64 / 1e3);
                } else {
                    print_done(&done);
                }
            }
            "touch" if parts.len() >= 3 => {
                let client = Rc::clone(&client);
                let (k, t) = (key(1), ttl(2));
                let done = sim.run_until(async move { client.touch(k, t).await.unwrap() });
                print_done(&done);
            }
            other => println!("ERROR unknown or incomplete command: {other} (try 'help')"),
        }
    }
    println!("bye — final virtual time {}", sim.now());
}
