//! Empty offline stand-in for `bytes`: the crates the benchmark links declare
//! the dependency but name nothing from it.
