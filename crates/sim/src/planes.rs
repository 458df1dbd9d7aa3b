//! The blocked bit-plane simulation engine —
//! [`StateLayout::BitPlanes`](crate::StateLayout).
//!
//! The interleaved engine in [`crate::backend`] stores the value table as
//! an array of words: one `PackedVec<N>` (`2·N` plane words) per gate
//! slot, so the ones/zeros planes of all lanes interleave in memory. At
//! 512 lanes that is 128 bytes per slot, and on circuits whose value
//! table outgrows the cache the sweep turns memory-bound — the PR 4
//! benchmarks show w512 no longer beating w256 on the `a5378` analog.
//! This module is the cache-shaped alternative; which layout wins is a
//! host property, recorded per build host by the `state_layout/*` group
//! of `BENCH_fault_sim.json` (on the current AVX-512 build host with a
//! 2 MiB L2 / 260 MiB L3, the interleaved layout's vectorized loops keep
//! it 2–3× ahead, so it remains the default — see the README).
//!
//! This module splits the state the other way: **structure of bit
//! planes**. The table is `2·N` contiguous rows of `u64`, one ones-row
//! and one zeros-row per plane word, each indexed by gate slot
//! (`row[plane][slot]`). One plane of one slot is exactly a
//! [`PackedValue`] (a 64-lane ones/zeros pair), so the per-plane sweep
//! reuses the scalar-word algebra unchanged — the layout cannot drift
//! from the packed semantics.
//!
//! The combinational sweep is **blocked**: it walks the tape's
//! precompiled cache-sized [`tiles`](GateTape::tiles) (run fragments of
//! at most [`GateTape::TILE_GATES`] gates), and for each tile evaluates
//! all `N` planes before moving on. A tile touches at most ~3 ·
//! `TILE_GATES` value slots per plane — small enough that the tile's
//! fanin window, its CSR metadata and its output slots stay L1-resident
//! while the tile is revisited once per plane, instead of every gate
//! dragging `2·N` plane words through the cache at once. Per plane the
//! working set of a whole sweep is two rows (`16 · num_nodes` bytes)
//! rather than the full `16·N`-byte-per-slot table.
//!
//! Fault injection, good-machine fusion and early exit are identical to
//! the interleaved engine (the [`Injector`] is shared); forces are
//! applied through the plane-filtered accessors so a patch point only
//! touches the plane being swept. Results are bit-identical to every
//! other engine — pinned by the differential and randomized-fuzz suites.

use crate::backend::{elapsed_us, eval2, Injector, SweepObs, SweepStats, IN_FORCE, OUT_FORCE};
use crate::packed::LaneMask;
use crate::{Fault, Logic, PackedValue, SimError};
use bist_expand::VectorSource;
use bist_netlist::{GateKind, GateTape, RunArity};

/// Reads plane value of `slot` from its ones/zeros rows.
#[inline]
fn pv(on: &[u64], zn: &[u64], slot: usize) -> PackedValue {
    PackedValue { ones: on[slot], zeros: zn[slot] }
}

/// Writes plane value of `slot` to its ones/zeros rows.
#[inline]
fn put(on: &mut [u64], zn: &mut [u64], slot: usize, v: PackedValue) {
    on[slot] = v.ones;
    zn[slot] = v.zeros;
}

/// The branch-free two-input row loop, monomorphized per `op` — the
/// bit-plane counterpart of the interleaved engine's `eval2_run`.
#[inline]
fn eval2_rows(
    on: &mut [u64],
    zn: &mut [u64],
    outs: &[u32],
    pairs: &[u32],
    op: impl Fn(PackedValue, PackedValue) -> PackedValue,
) {
    for (&o, p) in outs.iter().zip(pairs.chunks_exact(2)) {
        let v = op(pv(on, zn, p[0] as usize), pv(on, zn, p[1] as usize));
        put(on, zn, o as usize, v);
    }
}

/// Evaluates tape positions `[g0, g1)` — a slice of one homogeneous tile
/// — in a single bit plane, with no force checks. The opcode and arity
/// dispatch happen once here; the segment then runs in a tight loop over
/// the two plane rows.
#[inline]
fn eval_segment_rows(
    tape: &GateTape,
    kind: GateKind,
    arity: RunArity,
    g0: usize,
    g1: usize,
    on: &mut [u64],
    zn: &mut [u64],
) {
    let outs = &tape.gate_out()[g0..g1];
    let starts = tape.fanin_start();
    let s0 = starts[g0] as usize;
    match arity {
        RunArity::Two => {
            let pairs = &tape.fanin()[s0..s0 + 2 * outs.len()];
            match kind {
                GateKind::And => eval2_rows(on, zn, outs, pairs, super::packed::PackedValue::and),
                GateKind::Nand => eval2_rows(on, zn, outs, pairs, |a, b| !a.and(b)),
                GateKind::Or => eval2_rows(on, zn, outs, pairs, super::packed::PackedValue::or),
                GateKind::Nor => eval2_rows(on, zn, outs, pairs, |a, b| !a.or(b)),
                GateKind::Xor => eval2_rows(on, zn, outs, pairs, super::packed::PackedValue::xor),
                GateKind::Xnor => eval2_rows(on, zn, outs, pairs, |a, b| !a.xor(b)),
                // A validated netlist never gives BUF/NOT two fanins;
                // agree with `eval_gate_fold` (ignore the extra) anyway.
                GateKind::Buf => eval2_rows(on, zn, outs, pairs, |a, _| a),
                GateKind::Not => eval2_rows(on, zn, outs, pairs, |a, _| !a),
            }
        }
        RunArity::One => {
            let srcs = &tape.fanin()[s0..s0 + outs.len()];
            if kind.is_inverting() {
                for (&o, &f) in outs.iter().zip(srcs) {
                    let v = !pv(on, zn, f as usize);
                    put(on, zn, o as usize, v);
                }
            } else {
                for (&o, &f) in outs.iter().zip(srcs) {
                    let v = pv(on, zn, f as usize);
                    put(on, zn, o as usize, v);
                }
            }
        }
        RunArity::Many => {
            let fanin = tape.fanin();
            for g in g0..g1 {
                let s = starts[g] as usize;
                let e = starts[g + 1] as usize;
                let v = crate::eval::eval_gate_fold(
                    kind,
                    pv(on, zn, fanin[s] as usize),
                    fanin[s + 1..e].iter().map(|&f| pv(on, zn, f as usize)),
                );
                put(on, zn, outs[g - g0] as usize, v);
            }
        }
    }
}

/// One shard's reusable bit-plane simulation state: injector tables plus
/// the `2·N` value rows and `2·N` flip-flop state rows. Allocated once
/// per shard and reused across every chunk it runs.
pub(crate) struct PlaneScratch<const N: usize> {
    injector: Injector,
    /// `N` ones-rows, plane `p` at `[p·num_nodes, (p+1)·num_nodes)`.
    ones: Vec<u64>,
    /// `N` zeros-rows, laid out like `ones`.
    zeros: Vec<u64>,
    /// `N` flip-flop ones-rows, plane `p` at `[p·num_dffs, ...)`.
    state_ones: Vec<u64>,
    /// `N` flip-flop zeros-rows, laid out like `state_ones`.
    state_zeros: Vec<u64>,
}

impl<const N: usize> PlaneScratch<N> {
    pub(crate) fn new(tape: &GateTape) -> Self {
        PlaneScratch {
            injector: Injector::new(tape.num_nodes()),
            ones: vec![0; N * tape.num_nodes()],
            zeros: vec![0; N * tape.num_nodes()],
            state_ones: vec![0; N * tape.num_dffs()],
            state_zeros: vec![0; N * tape.num_dffs()],
        }
    }
}

/// One pass over the stream with up to `64·N - 1` faulty machines in the
/// low lanes and the fault-free machine fused into the top lane (plane
/// `N - 1`, bit 63) — semantically identical to the interleaved
/// `run_chunk`, but sweeping plane-major over the tape's blocked tiles.
#[allow(clippy::too_many_lines)]
fn run_chunk_planes<const N: usize>(
    tape: &GateTape,
    source: &dyn VectorSource,
    chunk: &[Fault],
    times: &mut [Option<usize>],
    scratch: &mut PlaneScratch<N>,
    stats: &mut SweepStats,
) -> Result<(), SimError> {
    scratch.injector.load(tape, chunk, 64 * N - 1)?;
    // All-X: neither plane bit set.
    scratch.ones.fill(0);
    scratch.zeros.fill(0);
    scratch.state_ones.fill(0);
    scratch.state_zeros.fill(0);
    let stride = tape.num_nodes();
    let dffs = tape.num_dffs();
    let PlaneScratch { injector, ones, zeros, state_ones, state_zeros } = scratch;
    stats.chunks += 1;
    stats.patches += injector.forced_gates.len() as u64;
    let mut vectors = 0u64;
    let mut early_exit = false;

    let mut undetected: [u64; N] = LaneMask::first_n(chunk.len());

    let gate_out = tape.gate_out();
    let starts = tape.fanin_start();
    let fanin = tape.fanin();
    const GOOD_BIT: u64 = 1 << 63;

    source.visit(&mut |t, vector| {
        vectors += 1;
        // Drive sources, plane by plane (stem forces included: a stuck
        // PI/DFF is stuck every cycle, in exactly its lane's plane).
        for p in 0..N {
            let on = &mut ones[p * stride..(p + 1) * stride];
            let zn = &mut zeros[p * stride..(p + 1) * stride];
            for (i, &pi) in tape.inputs().iter().enumerate() {
                let pi = pi as usize;
                let mut v = PackedValue::splat(Logic::from_bool(vector.get(i)));
                if injector.output_forced(pi) {
                    v = injector.force_output_in_plane(pi, p, v);
                }
                put(on, zn, pi, v);
            }
            for (k, &dff) in tape.dffs().iter().enumerate() {
                let dff = dff as usize;
                let mut v = PackedValue {
                    ones: state_ones[p * dffs + k],
                    zeros: state_zeros[p * dffs + k],
                };
                if injector.output_forced(dff) {
                    v = injector.force_output_in_plane(dff, p, v);
                }
                put(on, zn, dff, v);
            }
        }
        // Blocked combinational sweep: tile-outer, plane-inner, so one
        // tile's CSR metadata and fanin window serve all N planes while
        // cache-hot. The sorted forced-gate list splits each tile into
        // segments with zero per-gate force checks, exactly as in the
        // interleaved engine.
        let forced = &injector.forced_gates;
        let mut fi = 0usize;
        for tile in tape.tiles() {
            let (mut g, end) = (tile.start as usize, tile.end as usize);
            while g < end {
                while fi < forced.len() && (forced[fi].0 as usize) < g {
                    fi += 1;
                }
                let stop = match forced.get(fi) {
                    Some(&(pos, _)) => (pos as usize).min(end),
                    None => end,
                };
                if g < stop {
                    for p in 0..N {
                        eval_segment_rows(
                            tape,
                            tile.kind,
                            tile.arity,
                            g,
                            stop,
                            &mut ones[p * stride..(p + 1) * stride],
                            &mut zeros[p * stride..(p + 1) * stride],
                        );
                    }
                    g = stop;
                }
                if g < end {
                    let Some(&(pos, flags)) = forced.get(fi) else { unreachable!() };
                    debug_assert_eq!(pos as usize, g);
                    let out = gate_out[g] as usize;
                    let s = starts[g] as usize;
                    let e = starts[g + 1] as usize;
                    for p in 0..N {
                        let on = &mut ones[p * stride..(p + 1) * stride];
                        let zn = &mut zeros[p * stride..(p + 1) * stride];
                        let mut v = if flags & IN_FORCE != 0 {
                            let first = injector.forced_input_in_plane(
                                out,
                                0,
                                p,
                                pv(on, zn, fanin[s] as usize),
                            );
                            crate::eval::eval_gate_fold(
                                tile.kind,
                                first,
                                fanin[s + 1..e].iter().enumerate().map(|(i, &f)| {
                                    injector.forced_input_in_plane(
                                        out,
                                        (i + 1) as u32,
                                        p,
                                        pv(on, zn, f as usize),
                                    )
                                }),
                            )
                        } else if e - s == 2 {
                            eval2(
                                tile.kind,
                                pv(on, zn, fanin[s] as usize),
                                pv(on, zn, fanin[s + 1] as usize),
                            )
                        } else {
                            crate::eval::eval_gate_fold(
                                tile.kind,
                                pv(on, zn, fanin[s] as usize),
                                fanin[s + 1..e].iter().map(|&f| pv(on, zn, f as usize)),
                            )
                        };
                        if flags & OUT_FORCE != 0 {
                            v = injector.force_output_in_plane(out, p, v);
                        }
                        put(on, zn, out, v);
                    }
                    g += 1;
                    fi += 1;
                }
            }
        }
        // Compare the faulty lanes against the fused good lane (plane
        // N-1, bit 63): gather the output's plane words row by row.
        for &o in tape.outputs() {
            let o = o as usize;
            let diff_from_zeros = match (
                ones[(N - 1) * stride + o] & GOOD_BIT != 0,
                zeros[(N - 1) * stride + o] & GOOD_BIT != 0,
            ) {
                (true, false) => true,  // good = 1: lanes at 0 differ
                (false, true) => false, // good = 0: lanes at 1 differ
                _ => continue,          // good = X: nothing observable
            };
            let mut newly = [0u64; N];
            let mut any = 0u64;
            for (p, slot) in newly.iter_mut().enumerate() {
                let diff =
                    if diff_from_zeros { zeros[p * stride + o] } else { ones[p * stride + o] };
                *slot = diff & undetected[p];
                any |= *slot;
            }
            if any != 0 {
                newly.for_each_lane(|lane| times[lane] = Some(t));
                undetected = undetected.subtract(newly);
            }
        }
        // Chunk early-exit: every fault has its first detection; the rest
        // of the stream cannot change any result.
        if undetected.is_empty() {
            early_exit = true;
            return false;
        }
        // Clock: latch next state (with D-pin branch forces), plane by
        // plane.
        for p in 0..N {
            let on = &ones[p * stride..(p + 1) * stride];
            let zn = &zeros[p * stride..(p + 1) * stride];
            for (k, (&dff, &src)) in tape.dffs().iter().zip(tape.dff_src()).enumerate() {
                let di = dff as usize;
                let mut v = pv(on, zn, src as usize);
                if injector.input_forced(di) {
                    v = injector.forced_input_in_plane(di, 0, p, v);
                }
                state_ones[p * dffs + k] = v.ones;
                state_zeros[p * dffs + k] = v.zeros;
            }
        }
        true
    });
    stats.vectors += vectors;
    stats.early_exits += u64::from(early_exit);
    Ok(())
}

/// Runs one contiguous shard of the fault list through chunked bit-plane
/// passes of `64·N - 1` faults each, reusing one scratch block.
pub(crate) fn run_shard_planes<const N: usize>(
    tape: &GateTape,
    source: &dyn VectorSource,
    faults: &[Fault],
    times: &mut [Option<usize>],
    sweep: &SweepObs,
) -> Result<(), SimError> {
    let per_chunk = 64 * N - 1;
    let start = sweep.is_active().then(std::time::Instant::now);
    let mut stats = SweepStats::default();
    let mut scratch = PlaneScratch::<N>::new(tape);
    for (chunk, slots) in faults.chunks(per_chunk).zip(times.chunks_mut(per_chunk)) {
        sweep.check_cancelled()?;
        run_chunk_planes::<N>(tape, source, chunk, slots, &mut scratch, &mut stats)?;
    }
    if let Some(start) = start {
        sweep.flush(&stats, elapsed_us(start));
    }
    Ok(())
}

/// [`crate::backend::shard_across_threads`] over the bit-plane engine.
pub(crate) fn run_sharded_planes<const N: usize>(
    tape: &GateTape,
    source: &dyn VectorSource,
    faults: &[Fault],
    times: &mut [Option<usize>],
    threads: usize,
    sweep: &SweepObs,
) -> Result<(), SimError> {
    crate::backend::shard_across_threads(
        faults,
        times,
        threads,
        64 * N - 1,
        |chunk, slots| run_shard_planes::<N>(tape, source, chunk, slots, sweep),
        |(), ()| {},
    )
}
