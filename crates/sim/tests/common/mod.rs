//! Shared test support: the full tape-executing engine grid, used by the
//! differential, randomized-fuzz, degenerate and resume suites so a new
//! engine dimension (width, thread count, backend) is added in exactly
//! one place.

use bist_sim::{PackedBackend, ScalarBackend, ShardedBackend, SimBackend, WordWidth};

/// Every tape-executing engine: the scalar tape engine, packed64 and the
/// sharded grid over all widths × the given thread counts.
pub fn engine_grid(threads: &[usize]) -> Vec<Box<dyn SimBackend>> {
    let mut grid: Vec<Box<dyn SimBackend>> = vec![Box::new(ScalarBackend), Box::new(PackedBackend)];
    for width in [WordWidth::W64, WordWidth::W256, WordWidth::W512] {
        for &t in threads {
            grid.push(Box::new(ShardedBackend::new(t, width).expect("threads >= 1")));
        }
    }
    grid
}
