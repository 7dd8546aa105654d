//! The executor's timer store.
//!
//! Armed timers live in a slab of `(seq, event)` slots. A min-heap of packed
//! `u128` keys, `at << 64 | seq << SLOT_BITS | slot`, orders them: by
//! deadline, then by the monotone sequence number, so timers due at the
//! same instant fire in the order they were armed. The slot bits never
//! decide an ordering (seqs are unique); they only say where the event is.
//!
//! Cancelling empties the slot in O(1) and frees it for reuse. The heap key
//! stays behind until it is popped or compacted away; a popped key whose
//! slot is empty, or now holds a later seq, is skipped. Once dead keys
//! outnumber live ones the heap is compacted, so it holds roughly the live
//! timers rather than every deadline ever armed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::task::Waker;

use crate::executor::Sim;
use crate::time::SimTime;

/// A timer event: either wake a waiting future or run a closure at a
/// scheduled virtual instant.
pub(crate) enum Event {
    Wake(Waker),
    Call(Box<dyn FnOnce(&Sim)>),
}

/// Bits of a heap key that hold the slot index.
const SLOT_BITS: u32 = 24;
/// Bits of a heap key that hold the seq, between the slot and the deadline.
const SEQ_BITS: u32 = 64 - SLOT_BITS;

/// Names one armed timer: its slot and the seq it was armed with, so a
/// handle to a timer that already fired cannot cancel the slot's next
/// occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TimerHandle {
    slot: u32,
    seq: u64,
}

/// The slot and seq a heap key names.
fn slot_and_seq(key: u128) -> (usize, u64) {
    let slot = key as usize & ((1 << SLOT_BITS) - 1);
    (slot, (key >> SLOT_BITS) as u64 & ((1 << SEQ_BITS) - 1))
}

#[derive(Default)]
pub(crate) struct TimerStore {
    /// The seq each slot was last armed with, and its event while armed.
    slots: Vec<(u64, Option<Event>)>,
    free: Vec<u32>,
    heap: BinaryHeap<Reverse<u128>>,
    live: usize,
}

impl TimerStore {
    /// Arm `event` for `at`. `seq` must exceed every seq armed before.
    pub(crate) fn insert(&mut self, at: SimTime, seq: u64, event: Event) -> TimerHandle {
        assert!(seq < 1 << SEQ_BITS, "timer seqs exhausted");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = (seq, Some(event));
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                assert!(slot < 1 << SLOT_BITS, "too many armed timers");
                self.slots.push((seq, Some(event)));
                slot
            }
        };
        let key = (at.as_nanos() as u128) << 64 | (seq as u128) << SLOT_BITS | slot as u128;
        self.heap.push(Reverse(key));
        self.live += 1;
        TimerHandle { slot, seq }
    }

    /// Disarm the timer `handle` names, if it is still armed.
    pub(crate) fn cancel(&mut self, handle: TimerHandle) {
        let Some((seq, event)) = self.slots.get_mut(handle.slot as usize) else {
            return; // cleared since the timer was armed
        };
        if *seq != handle.seq || event.take().is_none() {
            return; // fired (and maybe reused) or already cancelled
        }
        self.free.push(handle.slot);
        self.live -= 1;
        if (self.heap.len() - self.live) * 2 > self.heap.len() {
            let slots = &self.slots;
            self.heap.retain(|&Reverse(key)| {
                let (slot, seq) = slot_and_seq(key);
                slots[slot].0 == seq && slots[slot].1.is_some()
            });
        }
    }

    /// Take the earliest armed timer: its deadline and event.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
        while let Some(Reverse(key)) = self.heap.pop() {
            let (slot, seq) = slot_and_seq(key);
            let entry = &mut self.slots[slot];
            if entry.0 != seq {
                continue; // cancelled, and the slot re-armed since
            }
            let Some(event) = entry.1.take() else {
                continue; // cancelled
            };
            self.free.push(slot as u32);
            self.live -= 1;
            return Some((SimTime::from_nanos((key >> 64) as u64), event));
        }
        None
    }

    /// Timers armed and neither fired nor cancelled.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Heap keys held, dead ones included.
    #[cfg(test)]
    pub(crate) fn heap_len(&self) -> usize {
        self.heap.len()
    }

    /// Disarm everything. Handles armed before stay harmless: their slots
    /// are gone, or re-armed later with larger seqs.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.heap.clear();
        self.live = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashSet};
    use std::rc::Rc;

    use proptest::prelude::*;

    use super::*;
    use crate::executor::World;

    /// The executor's timers before the slab store: a `BinaryHeap` of
    /// `(at, seq)` entries, a `HashSet` of cancelled seqs skipped when
    /// popped, compaction once cancelled entries outnumber live ones, and
    /// `cleared_through` so a cancel from before a shutdown is a no-op.
    #[derive(Default)]
    struct HeapModel {
        now: u64,
        seq: u64,
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        cancelled: HashSet<u64>,
        cleared_through: u64,
        timer_events: u64,
    }

    impl HeapModel {
        fn arm(&mut self, at: u64) -> u64 {
            self.seq += 1;
            self.heap.push(Reverse((at.max(self.now), self.seq)));
            self.seq
        }

        fn disarm(&mut self, seq: u64, deadline: u64) {
            if self.now >= deadline || seq <= self.cleared_through {
                return;
            }
            self.cancelled.insert(seq);
            if self.cancelled.len() * 2 > self.heap.len() {
                let cancelled = &self.cancelled;
                self.heap
                    .retain(|Reverse((_, seq))| !cancelled.contains(seq));
                self.cancelled.clear();
            }
        }

        fn fire_next(&mut self) -> Option<u64> {
            loop {
                let Reverse((at, seq)) = self.heap.pop()?;
                if self.cancelled.remove(&seq) {
                    continue;
                }
                self.now = at;
                self.timer_events += 1;
                return Some(seq);
            }
        }

        fn pending(&self) -> usize {
            self.heap.len() - self.cancelled.len()
        }

        fn shutdown(&mut self) {
            self.heap.clear();
            self.cancelled.clear();
            self.cleared_through = self.seq;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random arm / cancel / fire / shutdown sequences drive the slab
        /// store (through the executor's `World`, which adds the clock and
        /// the at-the-deadline guard) and the heap model side by side:
        /// both must fire the same timers in the same order and agree on
        /// `timer_events` and `timers_pending` after every step. Small
        /// delays make same-instant ties common; a cancel picks any timer
        /// not cancelled yet, so cancels hit fired timers, reused slots and
        /// timers from before a shutdown.
        #[test]
        fn slab_store_fires_exactly_like_the_heap_model(
            ops in prop::collection::vec((0u8..20, 0u64..6, 0usize..1_000), 1..160),
        ) {
            let sim = Sim::new();
            let fired: Rc<RefCell<Vec<u64>>> = Rc::default();
            let mut world = World::new();
            let mut model = HeapModel::default();
            // (handle, model seq, deadline) of every timer armed and not yet
            // cancelled, fired ones included.
            let mut armed: Vec<(TimerHandle, u64, u64)> = Vec::new();
            let mut model_fired = Vec::new();
            for (step, &(kind, delay, pick)) in ops.iter().enumerate() {
                match kind {
                    0..=7 => {
                        // A few deadlines land in the past and are clamped.
                        let now = model.now;
                        let deadline = if kind == 7 { now.saturating_sub(delay) } else { now + delay };
                        let seq = model.arm(deadline);
                        let log = Rc::clone(&fired);
                        let event = Event::Call(Box::new(move |_| log.borrow_mut().push(seq)));
                        let handle = world.arm(SimTime::from_nanos(deadline), event);
                        armed.push((handle, seq, deadline));
                    }
                    8..=12 if !armed.is_empty() => {
                        // A `Sleep` cancels once, when dropped.
                        let (handle, seq, deadline) = armed.swap_remove(pick % armed.len());
                        world.disarm(handle, SimTime::from_nanos(deadline));
                        model.disarm(seq, deadline);
                    }
                    13..=18 => {
                        if let Some(Event::Call(f)) = world.fire_next() {
                            f(&sim);
                        }
                        model_fired.extend(model.fire_next());
                    }
                    19 => {
                        world.clear_timers();
                        model.shutdown();
                    }
                    _ => {}
                }
                prop_assert_eq!(&*fired.borrow(), &model_fired, "fire order at step {}", step);
                prop_assert_eq!(world.now().as_nanos(), model.now);
                prop_assert_eq!(
                    world.timer_counts(),
                    (model.timer_events, model.pending()),
                    "(timer_events, timers_pending) at step {}", step
                );
            }
            // Drain both to the end.
            while let Some(Event::Call(f)) = world.fire_next() {
                f(&sim);
            }
            while let Some(seq) = model.fire_next() {
                model_fired.push(seq);
            }
            prop_assert_eq!(&*fired.borrow(), &model_fired);
            prop_assert_eq!(world.timer_counts(), (model.timer_events, 0));
        }
    }

    #[test]
    fn cancel_is_a_slot_write_and_stale_handles_miss() {
        let mut store = TimerStore::default();
        let noop = || Event::Call(Box::new(|_| {}));
        let a = store.insert(SimTime::from_nanos(10), 1, noop());
        store.cancel(a);
        assert_eq!(store.len(), 0);
        // The freed slot is reused; the stale handle must not cancel it.
        let b = store.insert(SimTime::from_nanos(5), 2, noop());
        assert_eq!(b.slot, a.slot);
        store.cancel(a);
        assert_eq!(store.len(), 1);
        let (at, _) = store.pop().expect("b is armed");
        assert_eq!(at, SimTime::from_nanos(5), "b, not a (armed for 10)");
        assert!(store.pop().is_none(), "a's dead key is skipped");
        assert_eq!(store.heap_len(), 0);
    }
}
