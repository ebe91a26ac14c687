//! Seed: a grouped import reaches `std::fs` (line 6) and `std::sync`
//! (line 7) without ever spelling `std::fs` or `std::sync`.

use std::{
    collections::{BTreeMap, BTreeSet},
    fs,
    sync::{Arc, Mutex},
};
