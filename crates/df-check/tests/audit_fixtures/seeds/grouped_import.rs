//! Seed: a grouped import reaches `std::fs` (line 6) without ever
//! spelling `std::fs`.

use std::{
    collections::{BTreeMap, BTreeSet},
    fs,
};
