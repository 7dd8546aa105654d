//! The simulated SSD block device.
//!
//! Service model: each command (read or write) occupies one of
//! `queue_depth` channels for `base + bytes/bandwidth` of virtual time;
//! commands beyond the queue depth wait for the earliest-free channel.
//! Data is held sparsely in RAM (64 KiB extents), so a mostly-empty 320 GB
//! device costs nothing.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use bytes::Bytes;
use nbkv_simrt::{FxHashMap, Sim, SimTime};

use crate::fault::{IoOp, SsdFaultPlan, SsdFaultStats, SALT_ERROR, SALT_STALL};
use crate::profile::DeviceProfile;

/// Sparse-extent granularity of the in-RAM backing store.
const EXTENT: usize = 64 << 10;

/// Device error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// An access extends past the device capacity.
    OutOfCapacity {
        /// Requested end offset.
        end: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// A fault-injection plan failed this command (see
    /// [`SsdFaultPlan`]). For writes, nothing was persisted.
    Injected {
        /// Which command class failed.
        op: IoOp,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfCapacity { end, capacity } => {
                write!(
                    f,
                    "access to offset {end} exceeds device capacity {capacity}"
                )
            }
            DeviceError::Injected { op } => {
                let what = match op {
                    IoOp::Read => "read",
                    IoOp::Write => "write",
                };
                write!(f, "injected {what} error")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

nbkv_obs::counters! {
    /// Device counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DeviceStats {
        /// Read commands serviced.
        sum reads: u64,
        /// Write commands serviced.
        sum writes: u64,
        /// Bytes read.
        sum bytes_read: u64,
        /// Bytes written.
        sum bytes_written: u64,
        /// Garbage-collection stalls taken.
        sum gc_stalls: u64,
    }
}

/// A simulated SSD.
pub struct SsdDevice {
    sim: Sim,
    profile: DeviceProfile,
    /// Busy-until cursor per parallel command channel.
    channels: RefCell<Vec<SimTime>>,
    extents: RefCell<FxHashMap<u64, Box<[u8]>>>,
    stats: RefCell<DeviceStats>,
    /// Bytes written since the last GC stall.
    gc_accumulator: Cell<u64>,
    /// Optional injected-fault schedule (see [`SsdFaultPlan`]).
    fault_plan: RefCell<Option<SsdFaultPlan>>,
    /// Per-command sequence for deterministic fault rolls.
    fault_seq: Cell<u64>,
    faults: RefCell<SsdFaultStats>,
}

/// Outcome of rolling the fault plan for one command.
#[derive(Default)]
struct CommandFault {
    stall: std::time::Duration,
    error: bool,
}

impl SsdDevice {
    /// Create a device with the given profile.
    pub fn new(sim: &Sim, profile: DeviceProfile) -> Rc<Self> {
        assert!(profile.queue_depth >= 1);
        Rc::new(SsdDevice {
            sim: sim.clone(),
            profile,
            channels: RefCell::new(vec![SimTime::ZERO; profile.queue_depth]),
            extents: RefCell::new(FxHashMap::default()),
            stats: RefCell::new(DeviceStats::default()),
            gc_accumulator: Cell::new(0),
            fault_plan: RefCell::new(None),
            fault_seq: Cell::new(0),
            faults: RefCell::new(SsdFaultStats::default()),
        })
    }

    /// Attach (or clear, with `None`) a fault-injection schedule.
    pub fn set_fault_plan(&self, plan: Option<SsdFaultPlan>) {
        *self.fault_plan.borrow_mut() = plan;
    }

    /// The currently attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<SsdFaultPlan> {
        self.fault_plan.borrow().clone()
    }

    /// Counters for injected device faults.
    pub fn fault_stats(&self) -> SsdFaultStats {
        *self.faults.borrow()
    }

    /// Roll the fault plan for the next command of class `op`.
    fn roll_fault(&self, op: IoOp) -> CommandFault {
        let seq = self.fault_seq.get();
        self.fault_seq.set(seq + 1);
        let plan = self.fault_plan.borrow();
        let Some(plan) = plan.as_ref() else {
            return CommandFault::default();
        };
        let mut fault = CommandFault::default();
        let mut stats = self.faults.borrow_mut();
        if plan.in_stall_window(self.sim.now()) {
            fault.stall = plan.stall;
            stats.stalled += 1;
        } else if plan.stall_prob > 0.0 && plan.roll(seq, SALT_STALL) < plan.stall_prob {
            fault.stall = plan.scaled_stall(seq);
            stats.stalled += 1;
        }
        let error_prob = match op {
            IoOp::Read => plan.read_error_prob,
            IoOp::Write => plan.write_error_prob,
        };
        if error_prob > 0.0 && plan.roll(seq, SALT_ERROR) < error_prob {
            fault.error = true;
            match op {
                IoOp::Read => stats.read_errors += 1,
                IoOp::Write => stats.write_errors += 1,
            }
        }
        fault
    }

    /// The device profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DeviceStats {
        *self.stats.borrow()
    }

    /// Read `len` bytes at `offset`, waiting the device service time.
    /// Unwritten regions read as zeros.
    pub async fn read(&self, offset: u64, len: usize) -> Result<Bytes, DeviceError> {
        self.check_range(offset, len)?;
        let fault = self.roll_fault(IoOp::Read);
        self.service(self.profile.read_cost(len) + fault.stall)
            .await;
        self.stats.borrow_mut().reads += 1;
        self.stats.borrow_mut().bytes_read += len as u64;
        if fault.error {
            return Err(DeviceError::Injected { op: IoOp::Read });
        }
        Ok(self.copy_out(offset, len))
    }

    /// Write `data` at `offset`, waiting the device service time. Durable
    /// once the future resolves. This is the *queued asynchronous* write
    /// cost (what writeback/flusher paths pay).
    pub async fn write(&self, offset: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.write_with_cost(offset, data, self.profile.write_cost(data.len()))
            .await
    }

    /// Synchronous (barriered) write — the cost direct I/O pays; see
    /// [`DeviceProfile::sync_write_cost`].
    pub async fn write_sync(&self, offset: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.write_with_cost(offset, data, self.profile.sync_write_cost(data.len()))
            .await
    }

    async fn write_with_cost(
        &self,
        offset: u64,
        data: &[u8],
        mut cost: std::time::Duration,
    ) -> Result<(), DeviceError> {
        self.check_range(offset, data.len())?;
        let fault = self.roll_fault(IoOp::Write);
        cost += fault.stall;
        // Flash GC: after every gc_window_bytes written, one command pays
        // the reclamation stall.
        if self.profile.gc_window_bytes > 0 {
            let acc = self.gc_accumulator.get() + data.len() as u64;
            if acc >= self.profile.gc_window_bytes {
                self.gc_accumulator.set(acc % self.profile.gc_window_bytes);
                self.stats.borrow_mut().gc_stalls += 1;
                cost += self.profile.gc_stall;
            } else {
                self.gc_accumulator.set(acc);
            }
        }
        self.service(cost).await;
        self.stats.borrow_mut().writes += 1;
        self.stats.borrow_mut().bytes_written += data.len() as u64;
        if fault.error {
            // The command occupied the device but persisted nothing.
            return Err(DeviceError::Injected { op: IoOp::Write });
        }
        self.copy_in(offset, data);
        Ok(())
    }

    /// Peek stored contents with no timing (test/verification helper).
    pub fn peek(&self, offset: u64, len: usize) -> Bytes {
        self.copy_out(offset, len)
    }

    /// True if any extent overlapping `[offset, offset+len)` has ever been
    /// written. Filesystems use this to skip read-modify-write for holes.
    pub fn has_data(&self, offset: u64, len: usize) -> bool {
        let extents = self.extents.borrow();
        let first = offset / EXTENT as u64;
        let last = (offset + len.max(1) as u64 - 1) / EXTENT as u64;
        (first..=last).any(|i| extents.contains_key(&i))
    }

    fn check_range(&self, offset: u64, len: usize) -> Result<(), DeviceError> {
        let end = offset + len as u64;
        if end > self.profile.capacity {
            return Err(DeviceError::OutOfCapacity {
                end,
                capacity: self.profile.capacity,
            });
        }
        Ok(())
    }

    /// Occupy the earliest-free channel for `cost`, waiting until done.
    async fn service(&self, cost: std::time::Duration) {
        let end = {
            let mut chans = self.channels.borrow_mut();
            let (idx, _) = chans
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .expect("queue_depth >= 1");
            let start = self.sim.now().max(chans[idx]);
            let end = start + cost;
            chans[idx] = end;
            end
        };
        self.sim.sleep_until(end).await;
    }

    fn copy_out(&self, offset: u64, len: usize) -> Bytes {
        let mut out = vec![0u8; len];
        let extents = self.extents.borrow();
        let mut pos = 0usize;
        while pos < len {
            let abs = offset + pos as u64;
            let ext_idx = abs / EXTENT as u64;
            let ext_off = (abs % EXTENT as u64) as usize;
            let n = (EXTENT - ext_off).min(len - pos);
            if let Some(ext) = extents.get(&ext_idx) {
                out[pos..pos + n].copy_from_slice(&ext[ext_off..ext_off + n]);
            }
            pos += n;
        }
        Bytes::from(out)
    }

    fn copy_in(&self, offset: u64, data: &[u8]) {
        let mut extents = self.extents.borrow_mut();
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let ext_idx = abs / EXTENT as u64;
            let ext_off = (abs % EXTENT as u64) as usize;
            let n = (EXTENT - ext_off).min(data.len() - pos);
            let ext = extents
                .entry(ext_idx)
                .or_insert_with(|| vec![0u8; EXTENT].into_boxed_slice());
            ext[ext_off..ext_off + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{instant_device, nvme_p3700, sata_ssd};

    #[test]
    fn write_then_read_round_trips() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
            dev.write(12_345, &data).await.unwrap();
            let got = dev.read(12_345, data.len()).await.unwrap();
            assert_eq!(&got[..], &data[..]);
        });
    }

    #[test]
    fn unwritten_regions_read_zero() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            dev.write(100, b"abc").await.unwrap();
            let got = dev.read(98, 8).await.unwrap();
            assert_eq!(&got[..], &[0, 0, b'a', b'b', b'c', 0, 0, 0]);
        });
    }

    #[test]
    fn read_costs_service_time() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, sata_ssd());
            dev.read(0, 32 << 10).await.unwrap();
            let want = sata_ssd().read_cost(32 << 10);
            assert_eq!(sim2.now().since_start(), want);
        });
    }

    #[test]
    fn sata_commands_serialize() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, sata_ssd());
            let reads: Vec<_> = (0..4)
                .map(|i| {
                    let dev = Rc::clone(&dev);
                    sim2.spawn(async move {
                        dev.read(i * 4096, 4096).await.unwrap();
                    })
                })
                .collect();
            for r in reads {
                r.await;
            }
            // Queue depth 1: four reads take 4x one read.
            let one = sata_ssd().read_cost(4096);
            assert_eq!(sim2.now().since_start(), one * 4);
        });
    }

    #[test]
    fn nvme_commands_overlap_up_to_queue_depth() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, nvme_p3700());
            let reads: Vec<_> = (0..8)
                .map(|i| {
                    let dev = Rc::clone(&dev);
                    sim2.spawn(async move {
                        dev.read(i * 4096, 4096).await.unwrap();
                    })
                })
                .collect();
            for r in reads {
                r.await;
            }
            // Queue depth 8: eight reads take ~one service time.
            let one = nvme_p3700().read_cost(4096);
            assert_eq!(sim2.now().since_start(), one);
        });
    }

    #[test]
    fn capacity_is_enforced() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let mut profile = instant_device();
            profile.capacity = 1024;
            let dev = SsdDevice::new(&sim2, profile);
            assert!(dev.write(1000, &[0u8; 24]).await.is_ok());
            let err = dev.write(1000, &[0u8; 25]).await.unwrap_err();
            assert_eq!(
                err,
                DeviceError::OutOfCapacity {
                    end: 1025,
                    capacity: 1024
                }
            );
            assert!(dev.read(0, 2000).await.is_err());
        });
    }

    #[test]
    fn stats_track_commands_and_bytes() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            dev.write(0, &[1u8; 100]).await.unwrap();
            dev.read(0, 50).await.unwrap();
            dev.read(0, 50).await.unwrap();
            assert_eq!(
                dev.stats(),
                DeviceStats {
                    reads: 2,
                    writes: 1,
                    bytes_read: 100,
                    bytes_written: 100,
                    gc_stalls: 0,
                }
            );
        });
    }

    #[test]
    fn cross_extent_write_round_trips() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            // Spans three 64 KiB extents.
            let data: Vec<u8> = (0..EXTENT * 2 + 100).map(|i| (i % 13) as u8).collect();
            let off = (EXTENT - 50) as u64;
            dev.write(off, &data).await.unwrap();
            let got = dev.read(off, data.len()).await.unwrap();
            assert_eq!(&got[..], &data[..]);
        });
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::profile::instant_device;
    use std::time::Duration;

    #[test]
    fn injected_write_error_persists_nothing() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            dev.set_fault_plan(Some(SsdFaultPlan {
                seed: 1,
                write_error_prob: 1.0,
                ..SsdFaultPlan::default()
            }));
            let err = dev.write(0, &[7u8; 64]).await.unwrap_err();
            assert_eq!(err, DeviceError::Injected { op: IoOp::Write });
            dev.set_fault_plan(None);
            let got = dev.read(0, 64).await.unwrap();
            assert_eq!(&got[..], &[0u8; 64], "failed write must not persist");
            assert_eq!(dev.fault_stats().write_errors, 1);
        });
    }

    #[test]
    fn injected_read_error_counts_and_replays() {
        let run = || {
            let sim = Sim::new();
            let sim2 = sim.clone();
            sim.run_until(async move {
                let dev = SsdDevice::new(&sim2, instant_device());
                dev.set_fault_plan(Some(SsdFaultPlan {
                    seed: 42,
                    read_error_prob: 0.5,
                    ..SsdFaultPlan::default()
                }));
                let mut outcomes = Vec::new();
                for _ in 0..50 {
                    outcomes.push(dev.read(0, 512).await.is_ok());
                }
                (outcomes, dev.fault_stats())
            })
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same seed, same error pattern");
        assert_eq!(sa, sb);
        assert!(sa.read_errors > 5 && sa.read_errors < 45);
    }

    #[test]
    fn stall_window_stretches_service_time() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            dev.set_fault_plan(Some(
                SsdFaultPlan {
                    seed: 2,
                    stall: Duration::from_millis(3),
                    ..SsdFaultPlan::default()
                }
                .with_stall_window(Duration::ZERO, Duration::from_millis(1)),
            ));
            // Inside the window: full stall on an otherwise-instant device.
            dev.read(0, 512).await.unwrap();
            assert_eq!(sim2.now().since_start(), Duration::from_millis(3));
            assert_eq!(dev.fault_stats().stalled, 1);
            // Past the window: no stall.
            let before = sim2.now();
            dev.read(0, 512).await.unwrap();
            assert_eq!(sim2.now(), before);
            assert_eq!(dev.fault_stats().stalled, 1);
        });
    }

    #[test]
    fn random_stalls_are_bounded_by_max() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            let max = Duration::from_micros(200);
            dev.set_fault_plan(Some(SsdFaultPlan {
                seed: 3,
                stall_prob: 1.0,
                stall: max,
                ..SsdFaultPlan::default()
            }));
            for _ in 0..20 {
                let t0 = sim2.now();
                dev.read(0, 512).await.unwrap();
                assert!(sim2.now() - t0 <= max);
            }
            assert_eq!(dev.fault_stats().stalled, 20);
        });
    }
}

#[cfg(test)]
mod gc_tests {
    use super::*;
    use crate::profile::instant_device;
    use std::time::Duration;

    #[test]
    fn gc_stalls_fire_per_window() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let profile = instant_device().with_gc(1 << 20, Duration::from_millis(5));
            let dev = SsdDevice::new(&sim2, profile);
            // 4 MiB of writes -> 4 GC stalls -> 20 ms of stall time.
            for i in 0..16u64 {
                dev.write(i * (256 << 10), &[1u8; 256 << 10]).await.unwrap();
            }
            assert_eq!(dev.stats().gc_stalls, 4);
            assert_eq!(sim2.now().since_start(), Duration::from_millis(20));
        });
    }

    #[test]
    fn gc_disabled_by_default() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            for i in 0..64u64 {
                dev.write(i * (256 << 10), &[1u8; 256 << 10]).await.unwrap();
            }
            assert_eq!(dev.stats().gc_stalls, 0);
            assert_eq!(sim2.now().since_start(), Duration::ZERO);
        });
    }

    #[test]
    fn reads_never_trigger_gc() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let profile = instant_device().with_gc(1024, Duration::from_millis(1));
            let dev = SsdDevice::new(&sim2, profile);
            for _ in 0..100 {
                dev.read(0, 4096).await.unwrap();
            }
            assert_eq!(dev.stats().gc_stalls, 0);
        });
    }
}
