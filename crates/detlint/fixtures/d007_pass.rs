// D007 should-pass: `total_cmp`, a handled `None`, and a `PartialOrd`
// impl that defines `partial_cmp` instead of unwrapping it.
use std::cmp::Ordering;

pub fn rank(scores: &mut [f64]) {
    scores.sort_by(f64::total_cmp);
}

pub fn order(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

pub struct Event {
    pub time: f64,
    pub seq: u64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

pub fn first_known(times: &[f64], by: Option<f64>) -> f64 {
    let _undecided = times[0].partial_cmp(&times[1]);
    by.unwrap()
}
