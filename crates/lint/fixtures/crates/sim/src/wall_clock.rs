//! wall-clock fixture: time and thread-identity sources in sim code.

use std::time::{Instant, SystemTime};

pub struct Profiler {
    pub seconds: f64,
}

pub fn charge_wall_time(p: &mut Profiler) { //~ dead-pub
    let t0 = Instant::now(); //~ wall-clock
    p.seconds += t0.elapsed().as_secs_f64();
}

pub fn stamp_epoch() -> u64 { //~ dead-pub
    let now = SystemTime::now(); //~ wall-clock
    now.duration_since(std::time::UNIX_EPOCH).unwrap().as_secs()
}

pub fn shard_by_thread() -> u64 { //~ dead-pub
    let id = std::thread::current().id(); //~ wall-clock
    format!("{id:?}").len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_in_tests_is_fine() {
        let t0 = Instant::now();
        assert!(t0.elapsed().as_secs() < 100);
    }
}
