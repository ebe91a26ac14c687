#![forbid(unsafe_code)]
//! Seed: AB/BA lock nesting — `drain` takes store then gens, `backfill`
//! takes gens then store. The static graph gains a cycle.

use std::sync::Mutex;

pub struct Srv {
    store: Mutex<u32>,
    gens: Mutex<u32>,
}

impl Srv {
    pub fn new() -> Srv {
        Srv {
            store: Mutex::new(0),
            gens: Mutex::new(0),
        }
    }

    pub fn drain(&self) {
        let mut s = self.store.lock().expect("no panics hold this lock");
        let mut g = self.gens.lock().expect("no panics hold this lock");
        *g = g.wrapping_add(1);
        *s = s.wrapping_add(1);
    }

    pub fn backfill(&self) {
        let mut g = self.gens.lock().expect("no panics hold this lock");
        let mut s = self.store.lock().expect("no panics hold this lock");
        *s = s.wrapping_add(1);
        *g = g.wrapping_add(1);
    }
}
