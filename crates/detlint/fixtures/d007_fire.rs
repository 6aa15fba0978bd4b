// D007 should-fire: float orderings that panic on the first NaN.
use std::cmp::Ordering;

pub fn rank(scores: &mut [f64]) {
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~ D007
}

pub fn best(scores: &[f64]) -> Option<&f64> {
    scores
        .iter()
        .max_by(|a, b| a.partial_cmp(b).expect("scores are finite")) //~ D007
}

pub struct Agent {
    pub priority: f64,
}

pub fn order(a: &Agent, b: &Agent) -> Ordering {
    a.priority
        .partial_cmp(&b.priority) //~ D007
        .unwrap()
}
