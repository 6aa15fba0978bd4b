// D002 should-fire: wall-clock reads.
use std::time::{Instant, SystemTime};

pub fn window_deadline() -> Instant {
    Instant::now() //~ D002
}

pub fn stamp() -> SystemTime {
    SystemTime::now() //~ D002
}
