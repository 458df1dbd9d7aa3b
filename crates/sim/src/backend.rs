//! Pluggable fault-simulation backends over the compiled gate tape.
//!
//! [`SimBackend`] is the engine interface behind
//! [`FaultSimulator`](crate::FaultSimulator): given a circuit — in its
//! compiled [`GateTape`] form — a machine state to start from, a
//! replayable stream of input vectors and a fault list, produce the first
//! detection time of every fault and snapshot the state at requested
//! times. That resumed pass, [`SimBackend::resume_tape_obs`], is the one
//! query an engine implements; every other query is provided on top of
//! it. Three engines are provided:
//!
//! * [`PackedBackend`] — the single-threaded production engine: one faulty
//!   machine per lane, the good machine fused into the last lane, fault
//!   dropping and early exit.
//! * [`ShardedBackend`] — the scaled engine: the fault list is split into
//!   contiguous shards across OS threads (scoped threads, no runtime
//!   dependencies), and each shard runs the same chunked pass.
//! * [`ScalarBackend`] — a deliberately simple reference: one faulty
//!   machine at a time over the scalar [`Logic`](crate::Logic) algebra,
//!   stepped in lockstep with its own fault-free machine — both the
//!   crate's one scalar machine (see [`SteppedSim`](crate::SteppedSim)).
//!   It is the differential oracle of the packed engines for every query,
//!   resume included. (The even simpler node-graph oracle that bypasses
//!   the tape entirely lives in [`crate::reference`].)
//!
//! The two packed engines run one pass, and its word width follows the
//! fault list, not an option: a list that fits one 64-lane
//! [`PackedValue`] (63 faults) runs in that word, a longer one in
//! 255-fault [`PackedValue256`] chunks, however many threads share it.
//! Both widths share one interleaved value table (one [`PackedWord`] per
//! node) whose `[u64; N]` plane loops autovectorize.
//!
//! Every engine *executes the tape*, never the node graph: the inner loop
//! reads byte opcodes, CSR fanin indices and pre-resolved PI/DFF/PO
//! tables from contiguous arrays — no `Node` dereferences, no per-gate
//! heap hops. The tape's levelized, kind-sorted
//! [`GateRun`](bist_netlist::GateRun)s let the
//! sweep dispatch on the opcode once per run instead of once per gate.
//! Faults are injected through force words, as in PROOFS (Niermann, Cheng
//! and Patel, IEEE TCAD 11(2), 1992): a chunk's faults set lanes of one
//! word per node output, fanin slot and flip-flop D pin, and
//! [`PackedWord::force`] gives a lane set to 1 or 0 that value and leaves
//! an `X` lane alone — so a word costs the same however many faults it
//! carries. The primary-input, flip-flop and D-pin loops apply their
//! words unconditionally; a run holding a forced gate applies pin and
//! output words to every gate in it; every other run evaluates in a tight
//! loop that reads no force at all. Each shard owns one reusable scratch
//! block (force table, value table, state), so a chunked pass allocates
//! nothing.
//!
//! All engines fuse the good machine into the fault passes: the packed
//! engines reserve the top lane of every word for the fault-free machine
//! and the scalar engine steps a good/faulty pair, so the fault-free
//! primary-output trace is **never** collected up front and detection is
//! O(1) in stream length. A chunk pass also terminates the stream walk
//! the moment its last undetected fault falls: detection times are
//! first-detections, so the tail of the stream is pure waste for a fully
//! detected chunk. Combined with the lazy
//! [`ExpansionIter`](bist_expand::ExpansionIter) this keeps the whole
//! `8·n·|S|`-vector pipeline allocation-flat.
//!
//! Every engine keeps machine state explicit:
//! [`SimBackend::resume_tape_obs`] loads each machine from a
//! [`MachineState`] — the good machine's flip-flops and, per fault, the
//! faulty machine's — and snapshots the machines after the latch at each
//! requested time, building the snapshots in fault-list order. The packed
//! engines re-pack the rows into lanes at chunk load, so a shrinking
//! fault list still fills whole words; the scalar engine loads its two
//! machines per fault. It is each engine's only stepping loop: a plain
//! detection pass is the resumed pass from [`MachineState::reset`], which
//! loads all-`X` machines and allocates nothing extra. One validation,
//! shared by both engine families, checks the stream, the fault sites,
//! the state and the capture times before any machine steps.
//!
//! The packed stepping loop also fast-forwards repeated memory walks. A
//! stream declares its [`Walks`]: `Sexp` is eight phases, each walking
//! the loaded memory `n` times with the same vectors. At the start of
//! each walk that has a successor in its phase, a chunk keeps its
//! flip-flop words; at the walk's end it compares them under the good
//! lane and every undetected lane. Equal means each machine the chunk
//! still tracks is back where the walk began, so — three-valued
//! simulation being deterministic, `X` included — the phase's remaining
//! walks replay this one and detect nothing: the chunk resumes the stream
//! at the phase end ([`VectorSource::visit_from`]). A skip never crosses
//! a requested capture time; a capture at the phase end reads the state
//! the chunk holds, which the skipped walks would have returned to. The
//! skipped walks and vectors are counted as `sim.walks_skipped` /
//! `sim.vectors_skipped`, apart from the simulated `sim.vectors`. The
//! scalar engine never skips, so it stays the oracle of the rule.
//!
//! Procedure 2 asks a different question — which of several candidate
//! streams is the first to detect *one* fault —
//! [`SimBackend::first_detecting_tape_obs`]. Its default is the
//! sequential scan of single-fault passes; the packed engines instead
//! run 32 candidates per 64-lane pass, candidate `c`'s faulty machine in
//! lane `c` and its good machine in lane `c + 32`, each pair driven by
//! its own candidate's vectors, and compare the halves lane pair by lane
//! pair. The pass steps through the same per-vector sweep as every
//! other packed pass. When every candidate of a pass declares the same
//! walks — Procedure 2's omission batches do — it applies the same
//! fast-forward under the undecided lane pairs; batches of mixed
//! structure (growing windows) walk every vector.
//!
//! Every engine validates its inputs at the boundary — width mismatches,
//! empty streams, faults on nodes the tape does not have and oversized
//! fault chunks surface as typed [`SimError`]s rather than panics deep
//! inside the engine.

use crate::good::validate;
use crate::packed::{LaneMask, PackedWord};
use crate::stepped::Machine;
use crate::{
    Fault, FaultSite, Logic, MachineState, PackedValue, PackedValue256, Resumed, SimError,
};
use bist_expand::{TestVector, VectorSource, Walks};
use bist_netlist::{Circuit, GateKind, GateTape, RunArity};
use bist_obs::{CancelKind, CancelToken, CounterHandle, HistogramHandle, Obs};
use std::fmt;
use std::time::Instant;

/// A sequential stuck-at fault-simulation engine.
///
/// Every engine implements one contract,
/// [`resume_tape_obs`](Self::resume_tape_obs): continue a pass from an
/// explicit [`MachineState`] and snapshot the state at requested times.
/// Every other query is provided on top of it — a plain detection pass is
/// the resumed pass from [`MachineState::reset`] without captures.
///
/// Implementations must treat `source` as replayable: it may be streamed
/// once per internal pass. All engines implement the same detection
/// criterion — a fault is detected at time `u` if some primary output is
/// binary in the fault-free machine and the complementary binary value in
/// the faulty machine at `u`, both machines starting from the all-`X`
/// state or from the given [`MachineState`].
pub trait SimBackend: fmt::Debug + Send + Sync {
    /// Short engine name for reports (e.g. `"packed64"`).
    fn name(&self) -> &'static str;

    /// The resumable pass, executing a caller-compiled [`GateTape`].
    /// Every machine starts from `from` (the good machine from its good
    /// state, each fault's machine from that fault's row), the stream's
    /// first vector is applied at time `from.time()`, and detection times
    /// are reported as times since reset. A resumed pass reports exactly
    /// what the from-reset pass over the whole history reports for every
    /// fault `from` tracks.
    ///
    /// `capture` lists times, strictly ascending and after `from.time()`,
    /// at which to snapshot the flip-flop state (the state *before* the
    /// vector of that time, so `from.time() + len` is the state the
    /// stream leaves behind); see [`Resumed::states`]. Capturing costs
    /// O(faults × flip-flops) per capture time on top of the sweep.
    /// `obs` receives sweep telemetry (vectors simulated, chunk
    /// early-exits, runs evaluated under force words, per-shard busy
    /// time) and may carry a cancel token; results never depend on it.
    ///
    /// # Errors
    ///
    /// [`SimError::WidthMismatch`] / [`SimError::EmptySequence`] for bad
    /// streams, [`SimError::FaultSiteOutOfRange`] for a fault on a node
    /// the tape does not have, [`SimError::StateMismatch`] when `from`
    /// was captured on a tape with another flip-flop count,
    /// [`SimError::MissingFaultState`] when a fault is not tracked by a
    /// non-reset `from`, [`SimError::InvalidCapture`] for out-of-order
    /// capture times, [`SimError::LaneOutOfRange`] /
    /// [`SimError::ZeroThreads`] for invalid engine configurations and
    /// [`SimError::Cancelled`] when `obs` carries a cancelled token.
    fn resume_tape_obs(
        &self,
        tape: &GateTape,
        from: &MachineState,
        source: &dyn VectorSource,
        faults: &[Fault],
        capture: &[usize],
        obs: &Obs,
    ) -> Result<Resumed, SimError>;

    /// First detection time of every fault in `faults` under the vector
    /// stream from the all-`X` state — the resumed pass from
    /// [`MachineState::reset`] without captures. Callers that simulate
    /// the same circuit repeatedly (the
    /// [`FaultSimulator`](crate::FaultSimulator) facade, sessions,
    /// campaigns) compile the tape once and pass it here.
    ///
    /// # Errors
    ///
    /// As for [`resume_tape_obs`](Self::resume_tape_obs).
    fn detection_times_tape_obs(
        &self,
        tape: &GateTape,
        source: &dyn VectorSource,
        faults: &[Fault],
        obs: &Obs,
    ) -> Result<Vec<Option<usize>>, SimError> {
        Ok(self.resume_tape_obs(tape, &MachineState::reset(), source, faults, &[], obs)?.times)
    }

    /// [`detection_times_tape_obs`](Self::detection_times_tape_obs)
    /// without telemetry.
    ///
    /// # Errors
    ///
    /// As for [`resume_tape_obs`](Self::resume_tape_obs).
    fn detection_times_tape(
        &self,
        tape: &GateTape,
        source: &dyn VectorSource,
        faults: &[Fault],
    ) -> Result<Vec<Option<usize>>, SimError> {
        self.detection_times_tape_obs(tape, source, faults, &Obs::noop())
    }

    /// Convenience wrapper over
    /// [`detection_times_tape`](Self::detection_times_tape) that compiles
    /// the tape on the fly — fine for one-shot calls; repeated callers
    /// should compile once.
    ///
    /// # Errors
    ///
    /// As for [`resume_tape_obs`](Self::resume_tape_obs).
    fn detection_times(
        &self,
        circuit: &Circuit,
        source: &dyn VectorSource,
        faults: &[Fault],
    ) -> Result<Vec<Option<usize>>, SimError> {
        self.detection_times_tape(&GateTape::compile(circuit), source, faults)
    }

    /// Index of the first candidate stream whose from-reset pass detects
    /// `fault` — exactly `candidates.iter().position(|c| detects(c,
    /// fault))`, including the error a scan that reaches an invalid
    /// candidate returns. This default is that sequential scan, one
    /// single-fault pass per candidate; the packed engines test up to 32
    /// candidates per pass (see [`PackedBackend`]).
    ///
    /// # Errors
    ///
    /// As for [`detection_times_tape_obs`](Self::detection_times_tape_obs),
    /// for the first invalid candidate the scan reaches.
    fn first_detecting_tape_obs(
        &self,
        tape: &GateTape,
        candidates: &[&dyn VectorSource],
        fault: Fault,
        obs: &Obs,
    ) -> Result<Option<usize>, SimError> {
        for (i, &candidate) in candidates.iter().enumerate() {
            if self.detection_times_tape_obs(tape, candidate, &[fault], obs)?[0].is_some() {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Sweep telemetry
// ---------------------------------------------------------------------

/// Per-shard sweep tallies, kept as plain locals on the hot path (one
/// integer add per vector/chunk) and merged into the sink once per
/// shard — the no-op sink then costs nothing but those adds.
#[derive(Debug, Default, Clone, Copy)]
struct SweepStats {
    /// Vector steps simulated, summed over chunk passes.
    pub vectors: u64,
    /// Chunk passes run.
    pub chunks: u64,
    /// Chunk passes that exited before exhausting the stream.
    pub early_exits: u64,
    /// Gate runs evaluated under force words, summed over chunk passes.
    pub forced_runs: u64,
    /// Repeated memory walks fast-forwarded, summed over chunk passes.
    pub walks_skipped: u64,
    /// Vectors those walks would have applied (not in `vectors`).
    pub vectors_skipped: u64,
}

/// Pre-resolved sweep metric handles shared by every engine. Built once
/// per pass; inactive handles are `None` branches, so the `detect/tape/*`
/// bench path pays no name lookups and no clock reads.
#[derive(Debug, Clone, Default)]
struct SweepObs {
    active: bool,
    cancel: Option<CancelToken>,
    vectors: CounterHandle,
    chunks: CounterHandle,
    early_exits: CounterHandle,
    forced_runs: CounterHandle,
    walks_skipped: CounterHandle,
    vectors_skipped: CounterHandle,
    shard_busy: HistogramHandle,
}

impl SweepObs {
    fn new(obs: &Obs) -> Self {
        SweepObs {
            active: obs.is_active(),
            cancel: obs.cancel_token().cloned(),
            vectors: obs.counter("sim.vectors"),
            chunks: obs.counter("sim.chunks"),
            early_exits: obs.counter("sim.chunk_early_exits"),
            forced_runs: obs.counter("sim.forced_runs"),
            walks_skipped: obs.counter("sim.walks_skipped"),
            vectors_skipped: obs.counter("sim.vectors_skipped"),
            shard_busy: obs.histogram("sim.shard_busy_us"),
        }
    }

    /// Whether flushing will record anything (gates the clock reads).
    fn is_active(&self) -> bool {
        self.active
    }

    /// Cooperative cancellation point, polled once per fault chunk (a
    /// `None` branch when no token rides the sweep). A cancelled token
    /// aborts the sweep with [`SimError::Cancelled`] so a timed-out job
    /// releases its worker instead of finishing a doomed pass.
    fn check_cancelled(&self) -> Result<(), SimError> {
        match &self.cancel {
            None => Ok(()),
            Some(token) => match token.kind() {
                None => Ok(()),
                Some(kind) => Err(SimError::Cancelled {
                    deadline_expired: kind == CancelKind::DeadlineExpired,
                }),
            },
        }
    }

    /// Merges one shard's tallies and busy time into the sink.
    fn flush(&self, stats: &SweepStats, busy_us: u64) {
        self.vectors.add(stats.vectors);
        self.chunks.add(stats.chunks);
        self.early_exits.add(stats.early_exits);
        self.forced_runs.add(stats.forced_runs);
        self.walks_skipped.add(stats.walks_skipped);
        self.vectors_skipped.add(stats.vectors_skipped);
        self.shard_busy.record(busy_us);
    }
}

/// Microseconds since `start`, saturating.
fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------
// Generic chunked engine (any PackedWord width, fused good machine)
// ---------------------------------------------------------------------

/// A chunk's faults as force words (PROOFS-style lane masks), allocated
/// once per shard and reloaded per chunk: one word per node output, then
/// one per fanin slot of the tape, then one per flip-flop D pin. A fault in
/// lane `l` sets lane `l` of its site's word to the stuck value; every
/// other lane stays `X`, which [`PackedWord::force`] leaves alone — so a
/// word costs the same however many faults it carries. Lane indices are
/// validated against the word width at [`load`](ForceTable::load) time, so
/// an oversized chunk surfaces a typed error instead of panicking inside
/// `set_lane`.
struct ForceTable<W: PackedWord> {
    words: Vec<W>,
    /// Offset of the fanin-slot words in `words`.
    pins: usize,
    /// Offset of the D-pin words in `words`.
    d_pins: usize,
    /// Indices of the words the current chunk set, cleared by the next
    /// load.
    touched: Vec<usize>,
    /// Per [`GateRun`](bist_netlist::GateRun): does some gate of the run
    /// carry a force this chunk?
    forced: Vec<bool>,
    /// Runs with `forced` set.
    forced_runs: u64,
}

impl<W: PackedWord> ForceTable<W> {
    fn new(tape: &GateTape) -> Self {
        let pins = tape.num_nodes();
        let d_pins = pins + tape.fanin().len();
        ForceTable {
            words: vec![W::ALL_X; d_pins + tape.num_dffs()],
            pins,
            d_pins,
            touched: Vec::new(),
            forced: vec![false; tape.runs().len()],
            forced_runs: 0,
        }
    }

    /// Loads one chunk of faults, one lane each, clearing every force of
    /// the previous chunk. `fault_lanes` is the engine's per-pass capacity
    /// (word width minus the good-machine lane). A branch fault on a pin
    /// its node does not have forces nothing.
    fn load(
        &mut self,
        tape: &GateTape,
        chunk: &[Fault],
        fault_lanes: usize,
    ) -> Result<(), SimError> {
        if chunk.len() > fault_lanes {
            return Err(SimError::LaneOutOfRange { lane: chunk.len() - 1, lanes: fault_lanes });
        }
        for &i in &self.touched {
            self.words[i] = W::ALL_X;
        }
        self.touched.clear();
        self.forced.fill(false);
        self.forced_runs = 0;
        let starts = tape.fanin_start();
        for (lane, fault) in chunk.iter().enumerate() {
            let node = fault.site.node().index();
            let gate = tape.gate_pos(node);
            let slot = match (fault.site, gate) {
                (FaultSite::Output(_), _) => Some(node),
                (FaultSite::Input { pin, .. }, Some(g)) => {
                    let slot = starts[g] as usize + pin as usize;
                    (slot < starts[g + 1] as usize).then_some(self.pins + slot)
                }
                (FaultSite::Input { pin: 0, .. }, None) => {
                    tape.dffs().iter().position(|&d| d as usize == node).map(|k| self.d_pins + k)
                }
                (FaultSite::Input { .. }, None) => None,
            };
            let Some(slot) = slot else { continue };
            if self.words[slot] == W::ALL_X {
                self.touched.push(slot);
            }
            self.words[slot].set_lane(lane, Logic::from_bool(fault.stuck));
            if let Some(g) = gate {
                let run = tape.runs().partition_point(|r| r.end as usize <= g);
                if !self.forced[run] {
                    self.forced[run] = true;
                    self.forced_runs += 1;
                }
            }
        }
        Ok(())
    }

    /// The force word of flip-flop `k`'s D pin.
    #[inline]
    fn d_pin(&self, k: usize) -> W {
        self.words[self.d_pins + k]
    }
}

/// How the gates of a run read their fanin pins and drive their outputs:
/// as they are ([`Unforced`]) or through a chunk's force words
/// ([`ForceTable`]). The sweep picks one per run, and each is its own
/// monomorphized loop.
trait Forcing<W> {
    /// Fanin slot `slot` (a position in [`GateTape::fanin`]) carrying `v`.
    fn pin(&self, slot: usize, v: W) -> W;
    /// Node `node` driving `v`.
    fn out(&self, node: usize, v: W) -> W;
}

/// The runs that carry no force this chunk: the identity, so their loops
/// compile to plain gate evaluation with no force words read.
struct Unforced;

impl<W> Forcing<W> for Unforced {
    #[inline(always)]
    fn pin(&self, _: usize, v: W) -> W {
        v
    }

    #[inline(always)]
    fn out(&self, _: usize, v: W) -> W {
        v
    }
}

impl<W: PackedWord> Forcing<W> for ForceTable<W> {
    #[inline(always)]
    fn pin(&self, slot: usize, v: W) -> W {
        v.force(self.words[self.pins + slot])
    }

    #[inline(always)]
    fn out(&self, node: usize, v: W) -> W {
        v.force(self.words[node])
    }
}

/// The two-input loop: `outs[i] = op(pairs[2i], pairs[2i+1])` through
/// `forcing`, fanin slots counted from `s0`. Monomorphized per `op` and
/// forcing, so the gate function is inlined straight into the loop body —
/// no per-gate dispatch of any kind.
#[inline]
fn eval2_run<W: PackedWord, F: Forcing<W>>(
    values: &mut [W],
    outs: &[u32],
    pairs: &[u32],
    s0: usize,
    forcing: &F,
    op: impl Fn(W, W) -> W,
) {
    for (i, (&o, p)) in outs.iter().zip(pairs.chunks_exact(2)).enumerate() {
        let slot = s0 + 2 * i;
        let a = forcing.pin(slot, values[p[0] as usize]);
        let b = forcing.pin(slot + 1, values[p[1] as usize]);
        values[o as usize] = forcing.out(o as usize, op(a, b));
    }
}

/// Evaluates tape positions `[g0, g1)` — one homogeneous [`GateRun`] —
/// through `forcing`: the opcode and arity dispatch happen once here,
/// then the whole run evaluates in a tight loop. This is the engines' hot
/// loop; everything it reads is a contiguous array.
///
/// [`GateRun`]: bist_netlist::GateRun
#[inline]
fn eval_segment<W: PackedWord, F: Forcing<W>>(
    tape: &GateTape,
    kind: GateKind,
    arity: RunArity,
    g0: usize,
    g1: usize,
    values: &mut [W],
    forcing: &F,
) {
    let outs = &tape.gate_out()[g0..g1];
    let starts = tape.fanin_start();
    let s0 = starts[g0] as usize;
    match arity {
        RunArity::Two => {
            let pairs = &tape.fanin()[s0..s0 + 2 * outs.len()];
            let f = forcing;
            match kind {
                GateKind::And => eval2_run(values, outs, pairs, s0, f, PackedWord::and),
                GateKind::Nand => eval2_run(values, outs, pairs, s0, f, |a, b| W::not(a.and(b))),
                GateKind::Or => eval2_run(values, outs, pairs, s0, f, PackedWord::or),
                GateKind::Nor => eval2_run(values, outs, pairs, s0, f, |a, b| W::not(a.or(b))),
                GateKind::Xor => eval2_run(values, outs, pairs, s0, f, PackedWord::xor),
                GateKind::Xnor => eval2_run(values, outs, pairs, s0, f, |a, b| W::not(a.xor(b))),
                // A validated netlist never gives BUF/NOT two fanins;
                // agree with `eval_gate_fold` (ignore the extra) anyway.
                GateKind::Buf => eval2_run(values, outs, pairs, s0, f, |a, _| a),
                GateKind::Not => eval2_run(values, outs, pairs, s0, f, |a, _| W::not(a)),
            }
        }
        RunArity::One => {
            let srcs = &tape.fanin()[s0..s0 + outs.len()];
            // The arity-1 fold of every kind is either pass-through or
            // complement (`eval_gate_fold` with an empty rest).
            if kind.is_inverting() {
                for (i, (&o, &f)) in outs.iter().zip(srcs).enumerate() {
                    let v = W::not(forcing.pin(s0 + i, values[f as usize]));
                    values[o as usize] = forcing.out(o as usize, v);
                }
            } else {
                for (i, (&o, &f)) in outs.iter().zip(srcs).enumerate() {
                    let v = forcing.pin(s0 + i, values[f as usize]);
                    values[o as usize] = forcing.out(o as usize, v);
                }
            }
        }
        RunArity::Many => {
            let fanin = tape.fanin();
            for g in g0..g1 {
                let (s, e) = (starts[g] as usize, starts[g + 1] as usize);
                let pin = |slot: usize| forcing.pin(slot, values[fanin[slot] as usize]);
                let v = crate::eval::eval_gate_fold(kind, pin(s), (s + 1..e).map(pin));
                let o = outs[g - g0] as usize;
                values[o] = forcing.out(o, v);
            }
        }
    }
}

/// One shard's reusable simulation state: the force table, the packed
/// value table, the flip-flop state and the shard's sweep tallies.
/// Allocated once per shard and reused across every chunk it runs — a
/// chunk pass performs no heap allocation.
struct ShardScratch<W: PackedWord> {
    forces: ForceTable<W>,
    values: Vec<W>,
    state: Vec<W>,
    /// The flip-flop state at the start of the current repeated walk.
    saved: Vec<W>,
    stats: SweepStats,
}

impl<W: PackedWord> ShardScratch<W> {
    fn new(tape: &GateTape) -> Self {
        ShardScratch {
            forces: ForceTable::new(tape),
            values: vec![W::ALL_X; tape.num_nodes()],
            state: vec![W::ALL_X; tape.num_dffs()],
            saved: vec![W::ALL_X; tape.num_dffs()],
            stats: SweepStats::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Walk fast-forward
// ---------------------------------------------------------------------

/// A run of a stream's [`Walks`] a packed pass can fast-forward: `reps ≥
/// 2` walks of `len ≥ 1` equal vectors, the first applied at stream time
/// `start`.
#[derive(Debug, Clone, Copy)]
struct RepeatedRun {
    start: usize,
    len: usize,
    reps: usize,
}

/// The runs of `walks` that repeat, with their start times.
fn repeated_runs(walks: &[Walks]) -> Vec<RepeatedRun> {
    let mut start = 0;
    let mut runs = Vec::new();
    for w in walks {
        if w.reps >= 2 && w.len >= 1 {
            runs.push(RepeatedRun { start, len: w.len, reps: w.reps });
        }
        start += w.len * w.reps;
    }
    runs
}

/// A packed pass's position in its stream's repeated runs — the one skip
/// rule of every packed pass. At the start of each walk that has a
/// successor in its run, the pass keeps its flip-flop words; at the
/// walk's end it compares them under the live lanes (the good machines
/// and every machine whose verdict is still open). Equal means every live
/// machine is back where the walk began: three-valued simulation is
/// deterministic, `X` included, so the remaining walks of the run replay
/// this one, detect nothing and end in this state. The pass then resumes
/// at the end of the run.
struct WalkCursor<'r> {
    runs: &'r [RepeatedRun],
    /// Index of the run the cursor is in (or waits for).
    run: usize,
    /// Stream time of the next walk boundary the cursor acts on:
    /// `usize::MAX` past the last run.
    next: usize,
}

impl<'r> WalkCursor<'r> {
    fn new(runs: &'r [RepeatedRun]) -> Self {
        let mut cursor = WalkCursor { runs, run: 0, next: 0 };
        cursor.enter(0);
        cursor
    }

    /// Waits for run `run` to begin.
    fn enter(&mut self, run: usize) {
        self.run = run;
        self.next = self.runs.get(run).map_or(usize::MAX, |r| r.start);
    }

    /// Acts on the walk boundary at stream time `now == self.next`, the
    /// machines holding `state`: keeps it in `saved` where a walk with a
    /// successor begins, and returns the end of the run when the walk
    /// that just ended repeats on the `live` lanes and the run ends no
    /// later than `limit` (a pass never skips across a time it must
    /// observe).
    fn at<W: PackedWord>(
        &mut self,
        now: usize,
        state: &[W],
        saved: &mut [W],
        live: W::Mask,
        limit: usize,
        stats: &mut SweepStats,
    ) -> Option<usize> {
        debug_assert_eq!(now, self.next);
        let RepeatedRun { start, len, reps } = self.runs[self.run];
        let end = start + reps * len;
        // Walks of this run completed so far (0 at its start).
        let walked = (now - start) / len;
        if walked > 0
            && end <= limit
            && state.iter().zip(saved.iter()).all(|(s, k)| s.differs(*k).intersect(live).is_empty())
        {
            stats.walks_skipped += (reps - walked) as u64;
            stats.vectors_skipped += (end - now) as u64;
            self.enter(self.run + 1);
            return Some(end);
        }
        if walked + 1 < reps {
            saved.copy_from_slice(state);
            self.next = now + len;
        } else {
            self.enter(self.run + 1);
        }
        None
    }
}

/// Where a pass starts and when it snapshots its machines: validated
/// once per call, for every engine, and shared by every chunk of every
/// shard.
struct PassPlan<'a> {
    from: &'a MachineState,
    /// The row of `from` holding each fault's starting flip-flops, in
    /// fault-list order — empty when `from` is the reset state.
    rows: Vec<usize>,
    /// Capture times since reset, strictly ascending, all after
    /// `from.time()`.
    capture: &'a [usize],
    /// The stream's repeated walks, which the packed engines fast-forward.
    repeats: Vec<RepeatedRun>,
}

impl<'a> PassPlan<'a> {
    /// The one validation of a resumed pass, shared by the packed and
    /// scalar engines: the stream and the fault sites, `from` against the
    /// tape, every fault against the rows of a non-reset `from`, and the
    /// capture times against `from`.
    fn new(
        tape: &GateTape,
        from: &'a MachineState,
        source: &dyn VectorSource,
        faults: &[Fault],
        capture: &'a [usize],
    ) -> Result<Self, SimError> {
        validate(tape.num_inputs(), tape.num_nodes(), source, faults)?;
        let dffs = tape.num_dffs();
        if !from.is_reset() && from.good().len() != dffs {
            return Err(SimError::StateMismatch { state_dffs: from.good().len(), tape_dffs: dffs });
        }
        let mut after = from.time();
        for &time in capture {
            if time <= after {
                return Err(SimError::InvalidCapture { time });
            }
            after = time;
        }
        let rows = if from.is_reset() {
            Vec::new()
        } else {
            faults
                .iter()
                .map(|&fault| from.row(fault).ok_or(SimError::MissingFaultState { fault }))
                .collect::<Result<_, _>>()?
        };
        Ok(PassPlan { from, rows, capture, repeats: repeated_runs(&source.walks()) })
    }

    /// The starting flip-flops of fault `i`'s machine (`i` indexes the
    /// pass's fault list) — empty (all `X`) at reset.
    fn start(&self, i: usize) -> &[Logic] {
        self.rows.get(i).map_or(&[], |&r| self.from.row_values(r))
    }

    /// Packs the starting flip-flop values of the `len` faults from
    /// fault-list index `first` on (lane `i` ← fault `first + i`) and of
    /// the good machine (every other lane) into `state`.
    fn load<W: PackedWord>(&self, first: usize, len: usize, state: &mut [W]) {
        if self.from.is_reset() {
            state.fill(W::ALL_X);
            return;
        }
        for (w, &v) in state.iter_mut().zip(self.from.good()) {
            *w = W::splat(v);
        }
        for lane in 0..len {
            for (w, &v) in state.iter_mut().zip(self.start(first + lane)) {
                w.set_lane(lane, v);
            }
        }
    }

    /// Turns the shards' merged captures into the snapshots.
    fn states(&self, captured: Captured) -> Vec<Option<MachineState>> {
        self.capture
            .iter()
            .zip(captured.0)
            .map(|(&at, snap)| {
                Some(MachineState::captured(at, snap.good?, snap.faults, snap.values))
            })
            .collect()
    }
}

/// What a pass captured at one capture time.
#[derive(Debug, Default)]
struct Snapshot {
    /// The good machine's flip-flop values, once some chunk got there
    /// (chunks stop at their last detection, so the good lane is only as
    /// far along as the longest walk).
    good: Option<Vec<Logic>>,
    /// The faults still undetected there, in fault-list order...
    faults: Vec<Fault>,
    /// ...and their flip-flop values, one row each.
    values: Vec<Logic>,
}

/// A shard's snapshots, one per capture time — empty, and allocation
/// free, for passes that capture nothing.
#[derive(Debug, Default)]
struct Captured(Vec<Snapshot>);

impl Captured {
    fn new(plan: &PassPlan<'_>) -> Self {
        Captured(plan.capture.iter().map(|_| Snapshot::default()).collect())
    }

    /// Records capture `ci` from a chunk's latched `state`: the good lane
    /// (once) and every still-undetected fault lane. Kept out of line so
    /// the sweep loop it is called from stays as tight as a plain pass's.
    #[cold]
    #[inline(never)]
    fn record<W: PackedWord>(
        &mut self,
        ci: usize,
        chunk: &[Fault],
        state: &[W],
        undetected: W::Mask,
    ) {
        let snap = &mut self.0[ci];
        if snap.good.is_none() {
            snap.good = Some(state.iter().map(|w| w.lane(W::LANES - 1)).collect());
        }
        undetected.for_each_lane(|lane| {
            snap.faults.push(chunk[lane]);
            snap.values.extend(state.iter().map(|w| w.lane(lane)));
        });
    }

    /// Records capture `ci` of one scalar fault pass: the good machine's
    /// flip-flops (once) and the faulty machine's.
    fn push(&mut self, ci: usize, fault: Fault, good: &[Logic], faulty: &[Logic]) {
        let snap = &mut self.0[ci];
        snap.good.get_or_insert_with(|| good.to_vec());
        snap.faults.push(fault);
        snap.values.extend_from_slice(faulty);
    }

    /// Folds a later shard's snapshots into this one's.
    fn merge(&mut self, other: Captured) {
        for (snap, more) in self.0.iter_mut().zip(other.0) {
            if snap.good.is_none() {
                snap.good = more.good;
            }
            snap.faults.extend(more.faults);
            snap.values.extend(more.values);
        }
    }
}

/// One clock's combinational evaluation of every lane: drives primary
/// input `i` with `input(i)` and loads the present `state`, both through
/// their output force words (a stuck PI is stuck every cycle), then sweeps
/// the tape run by run. A run holding a forced gate applies pin and
/// output force words to every gate in it; every other run evaluates with
/// no force at all. Every packed pass steps through this one sweep.
#[inline]
fn evaluate<W: PackedWord>(
    tape: &GateTape,
    forces: &ForceTable<W>,
    state: &[W],
    values: &mut [W],
    input: impl Fn(usize) -> W,
) {
    for (i, &pi) in tape.inputs().iter().enumerate() {
        let pi = pi as usize;
        values[pi] = forces.out(pi, input(i));
    }
    for (&dff, &v) in tape.dffs().iter().zip(state) {
        let dff = dff as usize;
        values[dff] = forces.out(dff, v);
    }
    for (run, &forced) in tape.runs().iter().zip(&forces.forced) {
        let (g0, g1) = (run.start as usize, run.end as usize);
        if forced {
            eval_segment(tape, run.kind, run.arity, g0, g1, values, forces);
        } else {
            eval_segment(tape, run.kind, run.arity, g0, g1, values, &Unforced);
        }
    }
}

/// Clocks the flip-flops: latches the next state from the evaluated
/// `values` through the D-pin force words.
#[inline]
fn latch<W: PackedWord>(tape: &GateTape, forces: &ForceTable<W>, values: &[W], state: &mut [W]) {
    for (k, (s, &src)) in state.iter_mut().zip(tape.dff_src()).enumerate() {
        *s = values[src as usize].force(forces.d_pin(k));
    }
}

/// One pass over the stream with up to `W::LANES - 1` faulty machines in
/// the low lanes and the fault-free machine fused into the top lane,
/// every lane starting from the flip-flop values the caller loaded into
/// `scratch.state`. The good machine sees
/// no forces (no force word sets its lane), so each output word
/// carries the reference value and all faulty values of that output in
/// the same pass — no precollected PO trace. The walk stops at the vector
/// that detects the chunk's last undetected fault, and jumps to the end of
/// a run of repeated walks once a walk returns the good machine and every
/// undetected machine to the state it began in (see [`WalkCursor`]).
fn run_chunk<W: PackedWord>(
    tape: &GateTape,
    source: &dyn VectorSource,
    plan: &PassPlan<'_>,
    chunk: &[Fault],
    times: &mut [Option<usize>],
    captured: &mut Captured,
    scratch: &mut ShardScratch<W>,
) -> Result<(), SimError> {
    let good_lane = W::LANES - 1;
    scratch.forces.load(tape, chunk, good_lane)?;
    scratch.values.fill(W::ALL_X);
    let ShardScratch { forces, values, state, saved, stats } = scratch;
    stats.chunks += 1;
    stats.forced_runs += forces.forced_runs;
    let mut vectors = 0u64;
    let mut early_exit = false;

    let mut undetected = W::Mask::first_n(chunk.len());
    let good = W::Mask::first_n(W::LANES).subtract(W::Mask::first_n(good_lane));
    let base = plan.from.time();
    let mut next_capture = 0usize;
    let mut walks = WalkCursor::new(&plan.repeats);
    // A skip never crosses the next capture time (stream-relative).
    let limit = |next: usize| plan.capture.get(next).map_or(usize::MAX, |&c| c - base);

    let mut from = 0;
    loop {
        if walks.next == from {
            // A run begins where the pass (re)starts: keep its state.
            walks.at(from, state, saved, good.union(undetected), limit(next_capture), stats);
        }
        let mut resume = None;
        source.visit_from(from, &mut |t, vector| {
            vectors += 1;
            evaluate(tape, forces, state, values, |i| W::splat(Logic::from_bool(vector.get(i))));
            // Compare the faulty lanes against the fused good lane.
            for &o in tape.outputs() {
                let w = values[o as usize];
                let diff = match w.lane(good_lane) {
                    Logic::One => w.zeros_mask(),
                    Logic::Zero => w.ones_mask(),
                    Logic::X => continue,
                };
                let newly = diff.intersect(undetected);
                if !newly.is_empty() {
                    newly.for_each_lane(|lane| times[lane] = Some(base + t));
                    undetected = undetected.subtract(newly);
                }
            }
            // Chunk early-exit: every fault has its first detection; the
            // rest of the stream cannot change any result.
            if undetected.is_empty() {
                early_exit = true;
                return false;
            }
            latch(tape, forces, values, state);
            let now = t + 1;
            if plan.capture.get(next_capture) == Some(&(base + now)) {
                captured.record(next_capture, chunk, state, undetected);
                next_capture += 1;
            }
            if now == walks.next {
                let live = good.union(undetected);
                resume = walks.at(now, state, saved, live, limit(next_capture), stats);
                return resume.is_none();
            }
            true
        });
        let Some(end) = resume else { break };
        // The live machines hold at `end` the state they hold now.
        if plan.capture.get(next_capture) == Some(&(base + end)) {
            captured.record(next_capture, chunk, state, undetected);
            next_capture += 1;
        }
        from = end;
    }
    stats.vectors += vectors;
    stats.early_exits += u64::from(early_exit);
    Ok(())
}

/// Runs one contiguous shard of the fault list, beginning at fault-list
/// index `first`, through chunked passes of `W::LANES - 1` faults each,
/// reusing one scratch block throughout.
fn run_shard<W: PackedWord>(
    tape: &GateTape,
    source: &dyn VectorSource,
    plan: &PassPlan<'_>,
    first: usize,
    faults: &[Fault],
    times: &mut [Option<usize>],
    sweep: &SweepObs,
) -> Result<Captured, SimError> {
    let per_chunk = W::LANES - 1;
    let start = sweep.is_active().then(Instant::now);
    let mut scratch = ShardScratch::<W>::new(tape);
    let mut captured = Captured::new(plan);
    for (c, (chunk, slots)) in faults.chunks(per_chunk).zip(times.chunks_mut(per_chunk)).enumerate()
    {
        sweep.check_cancelled()?;
        plan.load(first + c * per_chunk, chunk.len(), &mut scratch.state);
        run_chunk::<W>(tape, source, plan, chunk, slots, &mut captured, &mut scratch)?;
    }
    if let Some(start) = start {
        sweep.flush(&scratch.stats, elapsed_us(start));
    }
    Ok(captured)
}

/// The interleaved engine behind every packed backend: validates the
/// call, splits the fault list across `threads` scoped OS threads, each
/// running `W`-wide chunks over its own contiguous slice of faults and
/// result slots from `from`, and assembles the requested snapshots from
/// the shards' captures in fault-list order. Shard boundaries are rounded
/// to whole chunks so no pass is wasted on a partial word mid-list. A
/// plain from-reset pass allocates nothing beyond the times vector and
/// each shard's scratch block.
fn resume_interleaved<W: PackedWord>(
    tape: &GateTape,
    from: &MachineState,
    source: &dyn VectorSource,
    faults: &[Fault],
    capture: &[usize],
    threads: usize,
    obs: &Obs,
) -> Result<Resumed, SimError> {
    let plan = PassPlan::new(tape, from, source, faults, capture)?;
    let sweep = SweepObs::new(obs);
    let mut times = vec![None; faults.len()];
    let per_chunk = W::LANES - 1;
    let shard = faults.len().div_ceil(threads).div_ceil(per_chunk).max(1) * per_chunk;
    let run = |first: usize, chunk: &[Fault], slots: &mut [Option<usize>]| {
        run_shard::<W>(tape, source, &plan, first, chunk, slots, &sweep)
    };
    let captured = if threads == 1 || faults.len() <= shard {
        run(0, faults, &mut times)?
    } else {
        std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = faults
                .chunks(shard)
                .zip(times.chunks_mut(shard))
                .enumerate()
                .map(|(i, (chunk, slots))| scope.spawn(move || run(i * shard, chunk, slots)))
                .collect();
            let mut merged = Captured::new(&plan);
            for handle in handles {
                merged.merge(handle.join().expect("shard thread panicked")?);
            }
            Ok::<_, SimError>(merged)
        })?
    };
    let states = plan.states(captured);
    Ok(Resumed { times, states })
}

/// Every packed pass, at the crate's one word-width rule: 64 lanes for a
/// list of up to 63 faults, 256 otherwise, chosen from the length of the
/// whole list whatever `threads` splits it into. Faults are injected
/// through force words, so a 256-lane word costs about what a 64-lane one
/// does and cuts the words stepped per vector; results are per fault and
/// do not depend on the width.
fn resume_packed(
    tape: &GateTape,
    from: &MachineState,
    source: &dyn VectorSource,
    faults: &[Fault],
    capture: &[usize],
    threads: usize,
    obs: &Obs,
) -> Result<Resumed, SimError> {
    if faults.len() < PackedValue::LANES {
        resume_interleaved::<PackedValue>(tape, from, source, faults, capture, threads, obs)
    } else {
        resume_interleaved::<PackedValue256>(tape, from, source, faults, capture, threads, obs)
    }
}

// ---------------------------------------------------------------------
// Candidate-parallel probes (one fault, up to 32 streams per pass)
// ---------------------------------------------------------------------

/// Candidates one packed [`first_detecting`](SimBackend::first_detecting_tape_obs)
/// pass tests — lane `c` carries candidate `c`'s faulty machine and lane
/// `c + PROBE_LANES` its good machine — and so the batch size in which
/// callers best submit candidates they build on demand.
pub const PROBE_LANES: usize = PackedValue::LANES / 2;

/// The packed engines' [`SimBackend::first_detecting_tape_obs`]: the
/// candidates, 32 per 64-lane pass, each in a lane pair — the faulty
/// machine (`fault` injected) in a low lane, its good machine 32 lanes up,
/// both driven by that candidate's own vector every clock. A pass stops
/// once its lowest detecting candidate has no undecided candidate below
/// it (a candidate whose stream has ended undetected counts as "no"); the
/// next 32 candidates get a pass only when this one found no winner.
fn first_detecting_packed(
    tape: &GateTape,
    candidates: &[&dyn VectorSource],
    fault: Fault,
    obs: &Obs,
) -> Result<Option<usize>, SimError> {
    let sweep = SweepObs::new(obs);
    let start = sweep.is_active().then(Instant::now);
    let mut scratch = ShardScratch::<PackedValue>::new(tape);
    let mut probe = Probe {
        copies: [fault; PROBE_LANES],
        inputs: vec![PackedValue::ALL_X; tape.num_inputs()],
        vector: TestVector::zeros(tape.num_inputs().max(1)),
    };
    let mut scan = || {
        for (b, batch) in candidates.chunks(PROBE_LANES).enumerate() {
            sweep.check_cancelled()?;
            // The sequential scan never reaches past the first invalid
            // candidate: simulate the valid ones before it, then report it.
            let invalid = batch.iter().enumerate().find_map(|(i, &c)| {
                validate(tape.num_inputs(), tape.num_nodes(), c, &[fault]).err().map(|e| (i, e))
            });
            let valid = &batch[..invalid.as_ref().map_or(batch.len(), |(i, _)| *i)];
            if let Some(k) = probe.pass(tape, valid, &mut scratch)? {
                return Ok(Some(b * PROBE_LANES + k));
            }
            if let Some((_, e)) = invalid {
                return Err(e);
            }
        }
        Ok(None)
    };
    let found = scan();
    if let Some(start) = start {
        sweep.flush(&scratch.stats, elapsed_us(start));
    }
    found
}

/// Reusable buffers of a candidate-parallel probe: the fault copies the
/// force table loads into the low lanes, the per-lane primary-input words
/// and one vector buffer the candidates write into — so a clock
/// allocates nothing.
struct Probe {
    copies: [Fault; PROBE_LANES],
    inputs: Vec<PackedValue>,
    vector: TestVector,
}

impl Probe {
    /// One pass over up to 32 valid candidates from reset; the index of
    /// the first one that detects the fault, if any. When every candidate
    /// reports the same [`Walks`] (Procedure 2's omission batches), the
    /// pass fast-forwards repeated walks under the undecided lane pairs,
    /// as [`run_chunk`] does under its undetected lanes.
    fn pass(
        &mut self,
        tape: &GateTape,
        candidates: &[&dyn VectorSource],
        scratch: &mut ShardScratch<PackedValue>,
    ) -> Result<Option<usize>, SimError> {
        let k = candidates.len();
        if k == 0 {
            return Ok(None);
        }
        scratch.forces.load(tape, &self.copies[..k], PROBE_LANES)?;
        scratch.values.fill(PackedValue::ALL_X);
        scratch.state.fill(PackedValue::ALL_X);
        let ShardScratch { forces, values, state, saved, stats } = scratch;
        stats.chunks += 1;
        stats.forced_runs += forces.forced_runs;
        let mut lens = [0usize; PROBE_LANES];
        for (len, c) in lens.iter_mut().zip(candidates) {
            *len = c.num_vectors();
        }
        let longest = lens.iter().copied().max().unwrap_or(0);
        let walks = candidates[0].walks();
        let repeats = if candidates[1..].iter().all(|c| c.walks() == walks) {
            repeated_runs(&walks)
        } else {
            Vec::new()
        };
        let mut cursor = WalkCursor::new(&repeats);
        // Candidates still able to win: undetected so far, stream not
        // ended, and below the lowest detecting candidate `best`.
        let mut undecided = u64::first_n(k);
        let mut best = None;
        let mut t = 0;
        loop {
            if t == cursor.next {
                let live = undecided | (undecided << PROBE_LANES);
                if let Some(end) = cursor.at(t, state, saved, live, usize::MAX, stats) {
                    t = end;
                    continue;
                }
            }
            // A stream that ended undetected is a "no".
            undecided.for_each_lane(|c| {
                if lens[c] <= t {
                    undecided &= !(1u64 << c);
                }
            });
            if undecided == 0 {
                stats.early_exits += u64::from(t < longest);
                return Ok(best);
            }
            self.inputs.fill(PackedValue::ALL_X);
            undecided.for_each_lane(|c| {
                candidates[c].vector_into(t, &mut self.vector);
                let pair = (1u64 << c) | (1u64 << (c + PROBE_LANES));
                for (i, w) in self.inputs.iter_mut().enumerate() {
                    if self.vector.get(i) {
                        w.ones |= pair;
                    } else {
                        w.zeros |= pair;
                    }
                }
            });
            let inputs = &self.inputs;
            evaluate(tape, forces, state, values, |i| inputs[i]);
            stats.vectors += 1;
            // Lane pair compare: faulty lane `c` against good lane `c + 32`.
            let mut diff = 0u64;
            for &o in tape.outputs() {
                let w = values[o as usize];
                diff |= ((w.ones >> PROBE_LANES) & w.zeros) | ((w.zeros >> PROBE_LANES) & w.ones);
            }
            let newly = diff & undecided;
            if newly != 0 {
                let lowest = newly.trailing_zeros() as usize;
                best = Some(lowest);
                undecided &= u64::first_n(lowest);
            }
            latch(tape, forces, values, state);
            t += 1;
        }
    }
}

// ---------------------------------------------------------------------
// Packed engines (one word for short fault lists, 256-lane words otherwise)
// ---------------------------------------------------------------------

/// The single-threaded production engine: one faulty machine per low lane
/// and the fused fault-free machine in the top lane, in one 64-lane word
/// for up to 63 faults and in 256-lane words otherwise (see
/// [`ShardedBackend`] for the same pass across threads). The engine keeps
/// its report name `packed64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackedBackend;

impl SimBackend for PackedBackend {
    fn name(&self) -> &'static str {
        "packed64"
    }

    fn resume_tape_obs(
        &self,
        tape: &GateTape,
        from: &MachineState,
        source: &dyn VectorSource,
        faults: &[Fault],
        capture: &[usize],
        obs: &Obs,
    ) -> Result<Resumed, SimError> {
        resume_packed(tape, from, source, faults, capture, 1, obs)
    }

    fn first_detecting_tape_obs(
        &self,
        tape: &GateTape,
        candidates: &[&dyn VectorSource],
        fault: Fault,
        obs: &Obs,
    ) -> Result<Option<usize>, SimError> {
        first_detecting_packed(tape, candidates, fault, obs)
    }
}

/// The scaled engine: [`PackedBackend`]'s pass with the fault list split
/// across OS threads, behind the same [`SimBackend`] trait.
///
/// Each thread owns a contiguous shard of the collapsed fault list, rounded
/// to whole words, and runs the chunked fused-good-machine pass at the
/// width [`PackedBackend`] picks for the whole list. Threads share nothing
/// but the compiled tape and the replayable stream, so results are
/// deterministic and bit-identical to [`ScalarBackend`] at any thread
/// count.
///
/// # Example
///
/// ```
/// use bist_expand::TestSequence;
/// use bist_netlist::benchmarks;
/// use bist_sim::{collapse, fault_universe, ShardedBackend, SimBackend};
///
/// let c = benchmarks::s27();
/// let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
/// let t0: TestSequence =
///     "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse()?;
/// let engine = ShardedBackend::new(2)?;
/// let times = engine.detection_times(&c, &t0, &faults)?;
/// assert_eq!(times.iter().filter(|t| t.is_some()).count(), 32);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedBackend {
    threads: usize,
}

impl ShardedBackend {
    /// Creates an engine with `threads` worker threads.
    ///
    /// # Errors
    ///
    /// [`SimError::ZeroThreads`] if `threads == 0`.
    pub fn new(threads: usize) -> Result<Self, SimError> {
        if threads == 0 {
            return Err(SimError::ZeroThreads);
        }
        Ok(ShardedBackend { threads })
    }

    /// An engine sized to the host: one thread per available core.
    #[must_use]
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ShardedBackend { threads }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl SimBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn resume_tape_obs(
        &self,
        tape: &GateTape,
        from: &MachineState,
        source: &dyn VectorSource,
        faults: &[Fault],
        capture: &[usize],
        obs: &Obs,
    ) -> Result<Resumed, SimError> {
        // threads >= 1 is a construction invariant of every constructor.
        debug_assert!(self.threads >= 1);
        resume_packed(tape, from, source, faults, capture, self.threads, obs)
    }

    /// Candidate-parallel probes run at 64 lanes on the calling thread,
    /// whatever the thread count: one pass holds 32 candidates, and wider
    /// batches rarely end sooner.
    fn first_detecting_tape_obs(
        &self,
        tape: &GateTape,
        candidates: &[&dyn VectorSource],
        fault: Fault,
        obs: &Obs,
    ) -> Result<Option<usize>, SimError> {
        first_detecting_packed(tape, candidates, fault, obs)
    }
}

// ---------------------------------------------------------------------
// Scalar reference engine
// ---------------------------------------------------------------------

/// The reference engine: one faulty machine at a time over the scalar
/// three-valued algebra, stepped in lockstep with its own fault-free
/// machine (the scalar form of good-machine fusion) — both the crate's
/// one scalar machine walking the compiled tape, loaded from the pass's
/// [`MachineState`] and snapshotted after the latch at each capture time.
/// Dramatically slower than the packed engines on large fault lists; it
/// is the oracle for every query, resume included, and the simplest
/// possible template for new backends. For a tape-free oracle, see
/// [`crate::reference`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarBackend;

impl SimBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn resume_tape_obs(
        &self,
        tape: &GateTape,
        from: &MachineState,
        source: &dyn VectorSource,
        faults: &[Fault],
        capture: &[usize],
        obs: &Obs,
    ) -> Result<Resumed, SimError> {
        let plan = PassPlan::new(tape, from, source, faults, capture)?;
        let sweep = SweepObs::new(obs);
        let start = sweep.is_active().then(Instant::now);
        let mut stats = SweepStats::default();
        let mut captured = Captured::new(&plan);
        let mut times = vec![None; faults.len()];
        let base = from.time();
        let mut good = Machine::new(tape, None);
        for (i, (slot, &fault)) in times.iter_mut().zip(faults).enumerate() {
            // One fault per pass: the scalar engine's "chunk" is a
            // single faulty machine.
            sweep.check_cancelled()?;
            stats.chunks += 1;
            good.load(from.good());
            let mut bad = Machine::new(tape, Some(fault));
            bad.load(plan.start(i));
            let mut next_capture = 0usize;
            source.visit(&mut |t, vector| {
                stats.vectors += 1;
                let (g, b) = (good.step(tape, vector), bad.step(tape, vector));
                if g.iter().zip(b).any(|(g, b)| g.is_binary() && b.is_binary() && g != b) {
                    *slot = Some(base + t);
                    return false;
                }
                if plan.capture.get(next_capture) == Some(&(base + t + 1)) {
                    captured.push(next_capture, fault, good.state(), bad.state());
                    next_capture += 1;
                }
                true
            });
            stats.early_exits += u64::from(slot.is_some());
        }
        if let Some(start) = start {
            sweep.flush(&stats, elapsed_us(start));
        }
        let states = plan.states(captured);
        Ok(Resumed { times, states })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collapse, fault_universe};
    use bist_expand::expansion::{Expand, ExpansionConfig};
    use bist_expand::TestSequence;
    use bist_netlist::benchmarks;

    fn table2_t0() -> TestSequence {
        "0111 1001 0111 1001 0100 1011 1001 0000 0000 1011".parse().unwrap()
    }

    fn all_engines() -> Vec<Box<dyn SimBackend>> {
        vec![
            Box::new(PackedBackend),
            Box::new(ScalarBackend),
            Box::new(ShardedBackend::new(2).unwrap()),
            Box::new(ShardedBackend::new(4).unwrap()),
        ]
    }

    #[test]
    fn cancelled_token_aborts_every_engine() {
        use bist_obs::CancelToken;
        let c = benchmarks::s27();
        let tape = GateTape::compile(&c);
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let t0 = table2_t0();
        let token = CancelToken::new();
        token.cancel();
        let obs = Obs::noop().with_cancel(token);
        for engine in all_engines() {
            let err = engine.detection_times_tape_obs(&tape, &t0, &faults, &obs).unwrap_err();
            assert_eq!(err, SimError::Cancelled { deadline_expired: false }, "{}", engine.name());
        }
        // An already-expired deadline reports the deadline kind.
        let expired = Obs::noop().with_cancel(CancelToken::with_deadline(Instant::now()));
        let err =
            PackedBackend.detection_times_tape_obs(&tape, &t0, &faults, &expired).unwrap_err();
        assert_eq!(err, SimError::Cancelled { deadline_expired: true });
        // A live (uncancelled) token leaves results bit-identical.
        let live = Obs::noop().with_cancel(CancelToken::new());
        let plain = PackedBackend.detection_times_tape(&tape, &t0, &faults).unwrap();
        let tokened = PackedBackend.detection_times_tape_obs(&tape, &t0, &faults, &live).unwrap();
        assert_eq!(plain, tokened);
    }

    #[test]
    fn scalar_matches_packed_on_s27() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let t0 = table2_t0();
        let packed = PackedBackend.detection_times(&c, &t0, &faults).unwrap();
        let scalar = ScalarBackend.detection_times(&c, &t0, &faults).unwrap();
        assert_eq!(packed, scalar);
        assert_eq!(packed.iter().filter(|t| t.is_some()).count(), 32);
    }

    #[test]
    fn precompiled_tape_matches_on_the_fly_compilation() {
        let c = benchmarks::s27();
        let tape = GateTape::compile(&c);
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let t0 = table2_t0();
        for engine in all_engines() {
            assert_eq!(
                engine.detection_times_tape(&tape, &t0, &faults).unwrap(),
                engine.detection_times(&c, &t0, &faults).unwrap(),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn every_engine_agrees_on_streamed_expansion() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let s: TestSequence = "1011 0100".parse().unwrap();
        let cfg = ExpansionConfig::new(2).unwrap();
        let stream = cfg.stream(&s);
        let reference = ScalarBackend.detection_times(&c, &stream, &faults).unwrap();
        for engine in all_engines() {
            let times = engine.detection_times(&c, &stream, &faults).unwrap();
            assert_eq!(times, reference, "{}", engine.name());
        }
        // And the stream equals simulating the materialized expansion.
        let materialized = cfg.expand(&s);
        let on_mat = PackedBackend.detection_times(&c, &materialized, &faults).unwrap();
        assert_eq!(on_mat, reference);
    }

    #[test]
    fn validation_shared_by_backends() {
        let c = benchmarks::s27();
        let bad: TestSequence = "000".parse().unwrap();
        for engine in all_engines() {
            assert!(
                matches!(
                    engine.detection_times(&c, &bad, &[]),
                    Err(SimError::WidthMismatch { .. })
                ),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn sharded_zero_threads_is_a_typed_error() {
        assert_eq!(ShardedBackend::new(0), Err(SimError::ZeroThreads));
    }

    #[test]
    fn oversized_chunk_surfaces_lane_error() {
        let c = benchmarks::s27();
        let faults = fault_universe(&c);
        let tape = GateTape::compile(&c);
        let mut forces = ForceTable::<PackedValue>::new(&tape);
        // 52 faults into a 4-lane budget: typed error, no panic.
        let err = forces.load(&tape, &faults, 4);
        assert_eq!(err, Err(SimError::LaneOutOfRange { lane: faults.len() - 1, lanes: 4 }));
        // Within budget loads fine.
        assert_eq!(forces.load(&tape, &faults[..4], 4), Ok(()));
    }

    #[test]
    fn reloading_a_chunk_clears_every_previous_force() {
        let c = benchmarks::s27();
        let tape = GateTape::compile(&c);
        let faults = fault_universe(&c);
        let (a, b) = (&faults[..], &faults[20..30]);
        let mut reloaded = ForceTable::<PackedValue>::new(&tape);
        reloaded.load(&tape, a, 63).unwrap();
        let after_a = (reloaded.words.clone(), reloaded.forced.clone());
        reloaded.load(&tape, b, 63).unwrap();
        let mut fresh = ForceTable::<PackedValue>::new(&tape);
        fresh.load(&tape, b, 63).unwrap();
        assert_ne!(after_a, (fresh.words.clone(), fresh.forced.clone()), "chunk A must differ");
        assert_eq!(reloaded.words, fresh.words);
        assert_eq!(reloaded.forced, fresh.forced);
        assert_eq!(reloaded.forced_runs, fresh.forced_runs);
        // The forced runs are exactly the runs of B's gate sites.
        let mut runs: Vec<usize> = b
            .iter()
            .filter_map(|f| tape.gate_pos(f.site.node().index()))
            .map(|g| {
                tape.runs().iter().position(|r| (r.start..r.end).contains(&(g as u32))).unwrap()
            })
            .collect();
        runs.sort_unstable();
        runs.dedup();
        let forced: Vec<usize> = (0..tape.runs().len()).filter(|&r| fresh.forced[r]).collect();
        assert_eq!(forced, runs);
        assert_eq!(fresh.forced_runs, runs.len() as u64);
    }

    #[test]
    fn sharded_more_threads_than_chunks() {
        let c = benchmarks::s27();
        let faults = collapse(&c, &fault_universe(&c)).representatives().to_vec();
        let t0 = table2_t0();
        let reference = ScalarBackend.detection_times(&c, &t0, &faults).unwrap();
        // 32 faults, 8 threads, 63 faults/chunk: everything lands in one
        // shard; the engine must degrade gracefully.
        let engine = ShardedBackend::new(8).unwrap();
        assert_eq!(engine.detection_times(&c, &t0, &faults).unwrap(), reference);
    }

    #[test]
    fn sharded_accessors_and_auto() {
        let e = ShardedBackend::new(3).unwrap();
        assert_eq!(e.threads(), 3);
        assert_eq!(e.name(), "sharded");
        assert!(ShardedBackend::auto().threads() >= 1);
    }

    #[test]
    fn names_differ() {
        let sharded = ShardedBackend::auto();
        assert_ne!(PackedBackend.name(), ScalarBackend.name());
        assert_ne!(PackedBackend.name(), sharded.name());
        assert_ne!(ScalarBackend.name(), sharded.name());
    }
}
