//! lock-poison fixture: bare `lock()` / `read()` / `write()` `.unwrap()`
//! in the serve layer.

use std::sync::{Mutex, PoisonError, RwLock};

pub struct Slot {
    inner: Mutex<u64>,
    registry: RwLock<Vec<u64>>,
}

impl Slot {
    pub fn publish(&self, value: u64) {
        *self.inner.lock().unwrap() = value; //~ lock-poison
    }

    pub fn read_recovering(&self) -> u64 {
        // poison recovery: one panicked worker must not cascade
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn register(&self, value: u64) {
        self.registry.write().unwrap().push(value); //~ lock-poison
    }

    pub fn lookup(&self, i: usize) -> Option<u64> {
        self.registry.read().unwrap().get(i).copied() //~ lock-poison
    }

    pub fn lookup_recovering(&self, i: usize) -> Option<u64> {
        self.registry
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(i)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_in_tests_is_fine() {
        let s = Slot {
            inner: Mutex::new(0),
            registry: RwLock::new(Vec::new()),
        };
        assert_eq!(*s.inner.lock().unwrap(), 0);
    }
}
