//! Test oracle for the serving loop's [`EventQueue`]: the binary min-heap
//! over `(time, seq)` it replaced, and the property that holds the two to
//! the same pop sequence under the pushes the loop makes.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::*;

/// A heap entry: ordered by total-order time, then insertion sequence.
#[derive(Debug, Clone, Copy)]
struct Entry(Event);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.0.time.total_cmp(&other.0.time)).then(self.0.seq.cmp(&other.0.seq))
    }
}

/// Every event in one min-heap, numbered in push order.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl HeapQueue {
    fn push(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.heap.push(Reverse(Entry(Event { time, seq, kind })));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(Entry(e))| e)
    }
}

/// The queue under test and the heap, fed the same run: arrivals, then
/// fleet events, then whatever each pop provokes.
fn both(arrivals: &[f64], fleet: &[f64]) -> (EventQueue, HeapQueue) {
    let queue = EventQueue::new(arrivals.to_vec(), fleet.to_vec());
    let mut heap = HeapQueue::default();
    for (i, &t) in arrivals.iter().enumerate() {
        heap.push(t, EventKind::Arrival(i));
    }
    for (i, &t) in fleet.iter().enumerate() {
        heap.push(t, EventKind::Fleet(i));
    }
    (queue, heap)
}

fn deadline(queue: &mut EventQueue, heap: &mut HeapQueue, time: f64, i: usize) {
    queue.push_deadline(time, i);
    heap.push(time, EventKind::WaitDeadline(i));
}

fn step_done(queue: &mut EventQueue, heap: &mut HeapQueue, time: f64) {
    queue.push_step_done(time);
    heap.push(time, EventKind::StepDone);
}

/// `n` sorted times on a coarse grid, so many of them tie.
fn grid_times(rng: &mut StdRng, n: usize, span: u32) -> Vec<f64> {
    let mut times: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.gen_range(0..=span)) * 0.25)
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A loop-shaped run against the heap, pop by pop: each arrival arms
    /// a wait deadline `max_wait` later (on the same grid, so deadlines
    /// tie with arrivals and with each other), a fleet event re-arms the
    /// deadlines of a few requests at its own clock (a GPU loss
    /// re-queueing them), and while no step is in flight a pop may start
    /// one, done a grid step or two later — or at once.
    #[test]
    fn the_queue_pops_what_the_heap_pops(
        seed in 0u64..1 << 62,
        n_arrivals in 0usize..40,
        n_fleet in 0usize..6,
        wait_ticks in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let arrivals = grid_times(&mut rng, n_arrivals, 40);
        let fleet = grid_times(&mut rng, n_fleet, 40);
        let max_wait = f64::from(wait_ticks) * 0.25;
        let (mut queue, mut heap) = both(&arrivals, &fleet);
        let (mut stepping, mut steps_left) = (false, 2 * n_arrivals);
        let mut popped = 0;
        while let Some(want) = heap.pop() {
            let got = queue.pop();
            prop_assert_eq!(
                got.map(|e| (e.time.to_bits(), e.seq, e.kind)),
                Some((want.time.to_bits(), want.seq, want.kind)),
                "pop {}", popped
            );
            popped += 1;
            let clock = want.time;
            match want.kind {
                EventKind::Arrival(i) => deadline(&mut queue, &mut heap, clock + max_wait, i),
                EventKind::Fleet(_) => {
                    for i in 0..rng.gen_range(0..4usize).min(n_arrivals) {
                        deadline(&mut queue, &mut heap, clock + max_wait, i);
                    }
                }
                EventKind::StepDone => stepping = false,
                EventKind::WaitDeadline(_) => {}
            }
            if !stepping && steps_left > 0 && rng.gen_range(0..3) > 0 {
                let dt = f64::from(rng.gen_range(0..3u32)) * 0.25;
                step_done(&mut queue, &mut heap, clock + dt);
                stepping = true;
                steps_left -= 1;
            }
        }
        prop_assert!(queue.pop().is_none(), "the queue outlived the heap");
        prop_assert!(popped >= n_arrivals + n_fleet);
    }
}
