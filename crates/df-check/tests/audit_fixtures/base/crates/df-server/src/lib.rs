#![forbid(unsafe_code)]
//! Fixture server: one consistent lock order, `store` before `gens`.

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
}
