//! The time-ordered event queue both serving surfaces keep their events in.
//!
//! Each surface's [`LinkWire`](crate::LinkWire) holds one [`Timeline`]: the
//! simulator's of its own `Event` enum, the runtime's of the four wire
//! events themselves ([`WireEvent`](crate::WireEvent)).  Entries pop in time order — by
//! `f64::total_cmp` on `at + 0.0`, so `-0.0` and `0.0` are one instant — and
//! of equal times in push order; the modelled results of both surfaces
//! depend on that tie-break.  Entries are stored inline in the heap: a
//! 24-byte event makes a 40-byte entry.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled at a point in time.
#[derive(Debug)]
struct Entry<E> {
    /// `at + 0.0`: `-0.0` and `0.0` are one instant under `total_cmp`.
    at: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.at.total_cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with FIFO tie-breaking; see the
/// [module documentation](self).
#[derive(Debug)]
pub struct Timeline<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for Timeline<E> {
    fn default() -> Self {
        Timeline {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<E> Timeline<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: f64, event: E) {
        debug_assert!(
            at.is_finite() && at >= 0.0,
            "event scheduled at invalid time {at}"
        );
        self.heap.push(Entry {
            at: at + 0.0,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, returning `(at, event)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Pops the earliest event if it is due at `now` — never before its
    /// time.
    pub fn pop_due(&mut self, now: f64) -> Option<(f64, E)> {
        self.heap.peek().filter(|e| e.at <= now)?;
        self.pop()
    }

    /// When the earliest pending event is due.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn events_pop_in_time_order_with_fifo_ties() {
        let mut q = Timeline::new();
        q.push(5.0, 4);
        q.push(1.0, 1);
        q.push(1.0, 2);
        q.push(3.0, 3);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0, 2)));
        assert_eq!(q.pop(), Some((3.0, 3)));
        assert_eq!(q.pop(), Some((5.0, 4)));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    /// `-0.0` and `0.0` are one instant: push order decides between them,
    /// and what pops carries `0.0`.
    #[test]
    fn negative_and_positive_zero_are_one_instant() {
        let mut q = Timeline::new();
        q.push(0.0, 'a');
        q.push(-0.0, 'b');
        q.push(0.0, 'c');
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, [(0.0, 'a'), (0.0, 'b'), (0.0, 'c')]);
        q.push(-0.0, 'd');
        let (at, _) = q.pop().unwrap();
        assert!(at.is_sign_positive(), "stored as 0.0");
    }

    /// Nothing pops before its time, and what is due pops in `(at, seq)`
    /// order.
    #[test]
    fn pop_due_returns_only_what_is_due() {
        let mut q = Timeline::new();
        for (at, event) in [(2.0, 'a'), (1.0, 'b'), (2.0, 'c')] {
            q.push(at, event);
        }
        assert_eq!(q.pop_due(0.5), None);
        assert_eq!(q.pop_due(1.0), Some((1.0, 'b')));
        assert_eq!(q.pop_due(1.5), None);
        assert_eq!(q.pop_due(2.0), Some((2.0, 'a')));
        assert_eq!(q.pop_due(f64::INFINITY), Some((2.0, 'c')));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pops_follow_time_then_push_order() {
        // Few distinct times, so most pushes tie; `-0.0` and `0.0` are one
        // instant.  The oracle is a stable sort of the pushes by time, and
        // pops interleave with pushes.
        const TIMES: [f64; 6] = [0.0, -0.0, 0.25, 0.5, 0.5, 3.0];
        for seed in 1..=32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = Timeline::new();
            let mut pushed: Vec<(f64, u64)> = Vec::new();
            let mut popped = Vec::new();
            let mut floor = 0.0;
            for event in 0..400 {
                // Pushes never go back in time past what was already popped
                // (at the start the offset is the time, so `-0.0` survives).
                let offset = TIMES[rng.gen_range(0..TIMES.len())];
                let at = if floor == 0.0 { offset } else { floor + offset };
                q.push(at, event);
                pushed.push((at, event));
                if rng.gen_bool(0.25) {
                    let (at, event) = q.pop().unwrap();
                    floor = at;
                    popped.push((at, event));
                }
            }
            popped.extend(std::iter::from_fn(|| q.pop()));
            pushed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            assert_eq!(popped, pushed, "seed {seed}");
        }
    }

    /// The queue pops in `(at, seq)` order under interleaved pushes and
    /// pops with many tied times, pushes earlier than what already popped
    /// included.
    #[test]
    fn interleaved_pushes_and_pops_come_out_in_at_seq_order() {
        // xorshift64: a fixed, seeded interleaving.
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut draw = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut q = Timeline::new();
        // The reference: every pending entry's (at, seq), kept sorted.
        let mut reference: Vec<(f64, u64)> = Vec::new();
        let (mut seq, mut popped) = (0u64, 0usize);
        for _ in 0..10_000 {
            if reference.is_empty() || draw(5) < 3 {
                // Times on a grid of eight values: ties are common.
                let at = draw(8) as f64 * 0.5;
                q.push(at, seq);
                let place = reference.partition_point(|&(a, s)| (a, s) < (at, seq));
                reference.insert(place, (at, seq));
                seq += 1;
            } else {
                assert_eq!(q.pop_due(f64::INFINITY), Some(reference.remove(0)));
                popped += 1;
            }
            assert_eq!(q.len(), reference.len());
        }
        assert!(popped > 2_000, "{popped} pops");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, reference);
    }

    /// A 24-byte event makes a 40-byte entry: a sift moves five words.
    #[test]
    fn an_entry_is_its_event_and_two_words() {
        assert_eq!(std::mem::size_of::<Entry<[u64; 3]>>(), 40);
    }

    #[test]
    #[should_panic(expected = "invalid time")]
    #[cfg(debug_assertions)]
    fn scheduling_at_nan_time_panics_in_debug() {
        Timeline::new().push(f64::NAN, ());
    }
}
