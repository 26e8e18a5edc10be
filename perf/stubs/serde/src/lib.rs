//! Offline stand-in for `serde`: the two trait names and derives that expand
//! to nothing (see `serde_derive`). Nothing the benchmark links serializes.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}

pub trait Deserialize<'de>: Sized {}
