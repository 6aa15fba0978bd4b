//! The contract that keeps the root `clippy.toml` alive. Clippy treats a
//! `disallowed-types` / `disallowed-methods` path that does not resolve as
//! a warning `-D warnings` does not escalate, so a misspelt entry would
//! silently lint nothing. Each test below uses the item one entry bans,
//! under an `#[expect]` of that entry alone: if the entry stops firing,
//! the expectation goes unfulfilled and `cargo clippy --workspace
//! --all-targets -- -D warnings` fails. Keep one entry per test; an
//! expectation that a second entry also fulfils cannot catch the first.

use std::cmp::Ordering;
use std::time::{Duration, Instant, SystemTime};

#[test]
#[expect(clippy::disallowed_types, reason = "D001 contract: HashMap")]
fn d001_hash_map() {
    let map: std::collections::HashMap<u8, u8> = [(1, 2)].into_iter().collect();
    assert_eq!(map.len(), 1);
}

#[test]
#[expect(clippy::disallowed_types, reason = "D001 contract: HashSet")]
fn d001_hash_set() {
    let set: std::collections::HashSet<u8> = [1, 1].into_iter().collect();
    assert_eq!(set.len(), 1);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "D002 contract: Instant::now")]
fn d002_instant_now() {
    assert!(Instant::now().elapsed() >= Duration::ZERO);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "D002 contract: SystemTime::now")]
fn d002_system_time_now() {
    assert!(SystemTime::now() > SystemTime::UNIX_EPOCH);
}

#[test]
#[expect(clippy::disallowed_types, reason = "D003 contract: RandomState")]
fn d003_random_state() {
    use std::hash::BuildHasher;
    let state = std::hash::RandomState::new();
    assert_eq!(state.hash_one(7u8), state.hash_one(7u8));
}

#[test]
#[expect(clippy::disallowed_methods, reason = "D007 contract: partial_cmp")]
fn d007_partial_cmp() {
    assert_eq!(1.0f64.partial_cmp(&f64::NAN), None);
    assert_eq!(1.0f64.total_cmp(&f64::NAN), Ordering::Less);
}
