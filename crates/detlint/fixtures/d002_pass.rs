// D002 should-pass: simulated results depend on the virtual clock only.
pub struct VirtualClock(f64);

impl VirtualClock {
    pub fn now(&self) -> f64 {
        // `now` on the virtual clock is fine; "Instant::now()" in a
        // string or comment is fine too.
        self.0
    }
}

pub const DOC: &str = "host time is read with Instant::now() only in benchmark/";
