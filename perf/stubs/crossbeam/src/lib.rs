//! Empty offline stand-in for `crossbeam`: the crates the benchmark links declare
//! the dependency but name nothing from it.
