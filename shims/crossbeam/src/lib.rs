//! Offline shim for the `crossbeam` crate.
//!
//! `channel` maps onto `std::sync::mpsc` (whose unbounded channel has been
//! crossbeam-backed in std since Rust 1.72). See `shims/README.md`.

/// Multi-producer channels, mirroring `crossbeam::channel`.
pub mod channel {
    pub use std::sync::mpsc::{Receiver, Sender};

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_round_trip() {
        let (tx, rx) = super::channel::unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv().unwrap() + rx.recv().unwrap(), 3);
    }
}
