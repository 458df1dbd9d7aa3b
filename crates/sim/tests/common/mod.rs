//! Shared test support: the full tape-executing engine grid, used by the
//! differential, randomized-fuzz, degenerate and resume suites so a new
//! engine dimension (thread count, backend) is added in exactly one place.

use bist_sim::{PackedBackend, ScalarBackend, ShardedBackend, SimBackend};

/// Every tape-executing engine: the scalar tape engine, packed64 and the
/// sharded engine on 2 and 4 threads. (One thread runs exactly
/// packed64's pass.)
pub fn engine_grid() -> Vec<Box<dyn SimBackend>> {
    let mut grid: Vec<Box<dyn SimBackend>> = vec![Box::new(ScalarBackend), Box::new(PackedBackend)];
    for threads in [2, 4] {
        grid.push(Box::new(ShardedBackend::new(threads).expect("threads >= 1")));
    }
    grid
}
