//! The shared, thread-safe artifact cache behind a campaign run.
//!
//! Jobs that touch the same circuit share four expensive artifacts via
//! [`Arc`]: the parsed [`Circuit`], its compiled [`GateTape`] (the flat
//! instruction form every simulation engine executes), its collapsed
//! fault universe, and — per (seed, `T0` config) — the generated `T0`
//! with its coverage. Each
//! artifact is computed **exactly once** no matter how many workers race
//! for it: the per-key slot is a [`OnceLock`], so the first worker runs
//! the computation while later workers block on the same slot and then
//! share the result. Hit/miss counters make the reuse observable (and
//! testable).
//!
//! Two refinements keep long campaigns honest:
//!
//! * **Failure taxonomy.** A failed computation is cached like a value,
//!   but *transient* failures (interrupted/timed-out I/O, injected
//!   chaos) release their slot immediately so a retry recomputes instead
//!   of being fed the stale error forever. *Permanent* failures (a
//!   circuit that does not parse, a file that does not exist) stay
//!   cached and fail every sharer fast.
//! * **Bounded residency.** A [`CachePolicy`] with `max_bytes` turns the
//!   cache into a byte-budget LRU: whenever the approximate resident
//!   bytes exceed the budget, the globally least-recently-used completed
//!   artifact on an unpinned shelf is evicted (counted in
//!   `cache.<shelf>.evictions`). Outstanding `Arc`s keep evicted values
//!   alive for their holders; a later request recomputes the artifact
//!   bit-identically because every computation is deterministic.

use crate::campaign::CircuitSpec;
use crate::faultpoint::FaultPlan;
use crate::BatchError;
use bist_obs::{CounterHandle, GaugeHandle, Obs};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use subseq_bist::netlist::{Circuit, GateTape};
use subseq_bist::sim::{collapse, fault_universe, Fault};
use subseq_bist::tgen::{generate_t0_with_artifacts, GeneratedTest, TgenConfig};
use subseq_bist::{BistError, SessionArtifacts};

/// A snapshot of the cache's hit/miss/eviction counters.
///
/// A "miss" is a computation actually performed; a "hit" is a request
/// served from (or while waiting on) an existing slot. For a campaign of
/// `J` jobs over `C` distinct circuits, a fully shared cache shows
/// `C` misses and `J - C` hits on the circuit and fault shelves.
/// Evictions only occur under a bounded [`CachePolicy`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Parsed-circuit computations performed.
    pub circuit_misses: usize,
    /// Parsed-circuit requests served from the cache.
    pub circuit_hits: usize,
    /// Gate-tape compilations performed.
    pub tape_misses: usize,
    /// Gate-tape requests served from the cache.
    pub tape_hits: usize,
    /// Always 0: there is no staged-compile shelf. The field stays for
    /// readers that sum the counters of every shelf by name.
    pub compiled_misses: usize,
    /// Always 0, like [`compiled_misses`](Self::compiled_misses).
    pub compiled_hits: usize,
    /// Fault-universe collapses performed.
    pub fault_misses: usize,
    /// Fault-universe requests served from the cache.
    pub fault_hits: usize,
    /// `T0` generations performed.
    pub t0_misses: usize,
    /// `T0` requests served from the cache.
    pub t0_hits: usize,
    /// Parsed circuits evicted under the byte budget.
    pub circuit_evictions: usize,
    /// Gate tapes evicted under the byte budget.
    pub tape_evictions: usize,
    /// Fault universes evicted under the byte budget.
    pub fault_evictions: usize,
    /// Generated `T0`s evicted under the byte budget.
    pub t0_evictions: usize,
}

impl CacheStats {
    /// Total evictions across all shelves.
    #[must_use]
    pub fn total_evictions(&self) -> usize {
        self.circuit_evictions + self.tape_evictions + self.fault_evictions + self.t0_evictions
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "circuits {}+{} reused, tapes {}+{} reused, universes {}+{} reused, T0s {}+{} \
             reused, {} evicted",
            self.circuit_misses,
            self.circuit_hits,
            self.tape_misses,
            self.tape_hits,
            self.fault_misses,
            self.fault_hits,
            self.t0_misses,
            self.t0_hits,
            self.total_evictions(),
        )
    }
}

/// One shelf of the cache, for naming in a [`CachePolicy`]'s pin set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShelfId {
    /// Parsed circuits.
    Circuit,
    /// Compiled gate tapes.
    Tape,
    /// Collapsed fault universes.
    Fault,
    /// Generated `T0`s with coverage.
    T0,
}

impl ShelfId {
    /// The shelf's telemetry name (`cache.<name>.*`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShelfId::Circuit => "circuit",
            ShelfId::Tape => "tape",
            ShelfId::Fault => "fault",
            ShelfId::T0 => "t0",
        }
    }

    fn bit(self) -> u8 {
        match self {
            ShelfId::Circuit => 1,
            ShelfId::Tape => 2,
            ShelfId::Fault => 4,
            ShelfId::T0 => 8,
        }
    }
}

/// A small set of [`ShelfId`]s (a `Copy` bitset, so [`CachePolicy`] and
/// everything holding one stays `Copy`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShelfSet(u8);

impl ShelfSet {
    /// The empty set.
    #[must_use]
    pub const fn empty() -> Self {
        ShelfSet(0)
    }

    /// This set plus `shelf`.
    #[must_use]
    pub fn with(self, shelf: ShelfId) -> Self {
        ShelfSet(self.0 | shelf.bit())
    }

    /// Whether `shelf` is in the set.
    #[must_use]
    pub fn contains(self, shelf: ShelfId) -> bool {
        self.0 & shelf.bit() != 0
    }
}

/// Residency policy of an [`ArtifactCache`]: an optional approximate
/// byte budget plus shelves exempt from eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachePolicy {
    /// Approximate resident-byte budget across all shelves (`None` =
    /// unbounded, the historical behaviour). Enforced by LRU eviction
    /// after each artifact bundle is assembled.
    pub max_bytes: Option<usize>,
    /// Shelves never evicted from, budget notwithstanding.
    pub pinned_shelves: ShelfSet,
}

impl Default for CachePolicy {
    fn default() -> Self {
        CachePolicy::unbounded()
    }
}

impl CachePolicy {
    /// No budget: the cache grows for the life of the campaign.
    #[must_use]
    pub fn unbounded() -> Self {
        CachePolicy { max_bytes: None, pinned_shelves: ShelfSet::empty() }
    }

    /// An approximate byte budget enforced by LRU eviction.
    #[must_use]
    pub fn bounded(max_bytes: usize) -> Self {
        CachePolicy { max_bytes: Some(max_bytes), pinned_shelves: ShelfSet::empty() }
    }

    /// Exempts `shelf` from eviction.
    #[must_use]
    pub fn pin(mut self, shelf: ShelfId) -> Self {
        self.pinned_shelves = self.pinned_shelves.with(shelf);
        self
    }
}

/// Residency of one cache shelf: how many artifacts it holds and a rough
/// byte estimate of what they pin in memory. Only successfully computed
/// artifacts count (cached failures occupy a slot but hold no data).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShelfResidency {
    /// Number of resident artifacts.
    pub entries: usize,
    /// Approximate bytes the resident artifacts pin (coarse per-artifact
    /// models — node/gate/vector counts times typical struct sizes).
    pub approx_bytes: usize,
}

/// Residency of every shelf — the cache's memory footprint at a glance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheResidency {
    /// Parsed circuits.
    pub circuits: ShelfResidency,
    /// Compiled gate tapes.
    pub tapes: ShelfResidency,
    /// Collapsed fault universes.
    pub faults: ShelfResidency,
    /// Generated `T0`s with coverage.
    pub t0s: ShelfResidency,
}

impl CacheResidency {
    /// Total approximate resident bytes across all shelves.
    #[must_use]
    pub fn total_approx_bytes(&self) -> usize {
        self.circuits.approx_bytes
            + self.tapes.approx_bytes
            + self.faults.approx_bytes
            + self.t0s.approx_bytes
    }
}

impl std::fmt::Display for CacheResidency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "resident: {} circuits, {} tapes, {} universes, {} T0s (~{} KiB pinned)",
            self.circuits.entries,
            self.tapes.entries,
            self.faults.entries,
            self.t0s.entries,
            self.total_approx_bytes().div_ceil(1024),
        )
    }
}

/// A cached computation failure: the message plus whether a retry could
/// plausibly succeed. Transient failures (interrupted/timed-out I/O,
/// injected chaos) release their slot so the next request recomputes;
/// permanent failures (parse errors, missing files) stay cached.
#[derive(Debug, Clone)]
struct CacheFailure {
    message: String,
    transient: bool,
}

impl CacheFailure {
    fn of(e: &BistError) -> Self {
        let transient = matches!(
            e,
            BistError::Io(io) if matches!(
                io.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            )
        );
        CacheFailure { message: e.to_string(), transient }
    }
}

/// One keyed entry: a compute-once cell plus LRU bookkeeping. `touched`
/// is a tick from the cache-wide clock (updated on every request);
/// `bytes` is the approximate size recorded when the value was computed.
struct SlotInner<V> {
    cell: OnceLock<Result<Arc<V>, CacheFailure>>,
    touched: AtomicU64,
    bytes: AtomicUsize,
}

impl<V> Default for SlotInner<V> {
    fn default() -> Self {
        SlotInner { cell: OnceLock::new(), touched: AtomicU64::new(0), bytes: AtomicUsize::new(0) }
    }
}

/// A compute-once slot shared by every requester of one key.
type Slot<V> = Arc<SlotInner<V>>;

/// Pre-resolved telemetry handles of one shelf: hit/miss/eviction
/// counters plus resident-entry and approx-resident-bytes gauges, named
/// `cache.<shelf>.{hit,miss,evictions,resident,resident_bytes}`. No-op
/// (a branch per event) unless the cache was built with an active sink.
struct ShelfObs {
    hit: CounterHandle,
    miss: CounterHandle,
    evictions: CounterHandle,
    resident: GaugeHandle,
    resident_bytes: GaugeHandle,
}

impl ShelfObs {
    fn new(obs: &Obs, shelf: &str) -> Self {
        ShelfObs {
            hit: obs.counter(&format!("cache.{shelf}.hit")),
            miss: obs.counter(&format!("cache.{shelf}.miss")),
            evictions: obs.counter(&format!("cache.{shelf}.evictions")),
            resident: obs.gauge(&format!("cache.{shelf}.resident")),
            resident_bytes: obs.gauge(&format!("cache.{shelf}.resident_bytes")),
        }
    }
}

/// One keyed shelf of the cache: a map of compute-once slots with LRU
/// bookkeeping against the shared cache clock.
struct Shelf<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    clock: Arc<AtomicU64>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
    resident: AtomicUsize,
    resident_bytes: AtomicUsize,
    obs: ShelfObs,
}

impl<K: std::hash::Hash + Eq + Clone, V> Shelf<K, V> {
    fn new(obs: &Obs, name: &str, clock: Arc<AtomicU64>) -> Self {
        Shelf {
            slots: Mutex::new(HashMap::new()),
            clock,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            resident: AtomicUsize::new(0),
            resident_bytes: AtomicUsize::new(0),
            obs: ShelfObs::new(obs, name),
        }
    }

    /// Returns the cached value for `key`, computing it (exactly once
    /// across all threads) on first request. `describe` names the
    /// artifact in errors; `approx_bytes` estimates what a newly computed
    /// artifact pins in memory (for the residency gauges and the LRU
    /// budget). A transient computation failure releases the slot so the
    /// next request recomputes.
    fn get_or_compute(
        &self,
        key: &K,
        describe: &str,
        compute: impl FnOnce() -> Result<V, BistError>,
        approx_bytes: impl FnOnce(&V) -> usize,
    ) -> Result<Arc<V>, BatchError> {
        let slot = {
            let mut slots = self.slots.lock().expect("cache lock poisoned");
            Arc::clone(slots.entry(key.clone()).or_default())
        };
        slot.touched.store(self.clock.fetch_add(1, Ordering::Relaxed) + 1, Ordering::Relaxed);
        let mut computed = false;
        let outcome = slot.cell.get_or_init(|| {
            computed = true;
            compute().map(Arc::new).map_err(|e| CacheFailure::of(&e))
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.obs.miss.inc();
            match outcome {
                Ok(value) => {
                    let bytes = approx_bytes(value);
                    slot.bytes.store(bytes, Ordering::Relaxed);
                    self.resident.fetch_add(1, Ordering::Relaxed);
                    self.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
                    self.obs.resident.add(1);
                    self.obs.resident_bytes.add(i64::try_from(bytes).unwrap_or(i64::MAX));
                }
                Err(failure) if failure.transient => {
                    // Release the slot: a retry should recompute, not be
                    // served this failure forever. Guard against a newer
                    // slot having replaced ours in the meantime.
                    let mut slots = self.slots.lock().expect("cache lock poisoned");
                    if slots.get(key).is_some_and(|s| Arc::ptr_eq(s, &slot)) {
                        slots.remove(key);
                    }
                }
                Err(_) => {}
            }
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.obs.hit.inc();
        }
        match outcome {
            Ok(value) => Ok(Arc::clone(value)),
            Err(failure) => Err(BatchError::Artifact {
                artifact: describe.to_string(),
                message: failure.message.clone(),
                transient: failure.transient,
            }),
        }
    }

    /// The LRU tick of the oldest evictable (completed, successful)
    /// entry, if any.
    fn oldest_tick(&self) -> Option<u64> {
        let slots = self.slots.lock().expect("cache lock poisoned");
        slots
            .values()
            .filter(|s| matches!(s.cell.get(), Some(Ok(_))))
            .map(|s| s.touched.load(Ordering::Relaxed))
            .min()
    }

    /// Evicts the least-recently-used completed entry, returning its key
    /// and approximate bytes. In-flight and failed slots are never
    /// evicted (they hold no resident data).
    fn evict_oldest(&self) -> Option<(K, usize)> {
        let slot;
        let key;
        {
            let mut slots = self.slots.lock().expect("cache lock poisoned");
            key = slots
                .iter()
                .filter(|(_, s)| matches!(s.cell.get(), Some(Ok(_))))
                .min_by_key(|(_, s)| s.touched.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())?;
            slot = slots.remove(&key)?;
        }
        let bytes = slot.bytes.load(Ordering::Relaxed);
        self.resident.fetch_sub(1, Ordering::Relaxed);
        self.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.obs.resident.sub(1);
        self.obs.resident_bytes.sub(i64::try_from(bytes).unwrap_or(i64::MAX));
        self.obs.evictions.inc();
        Some((key, bytes))
    }

    fn counters(&self) -> (usize, usize) {
        (self.misses.load(Ordering::Relaxed), self.hits.load(Ordering::Relaxed))
    }

    fn evicted(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    fn residency(&self) -> ShelfResidency {
        ShelfResidency {
            entries: self.resident.load(Ordering::Relaxed),
            approx_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Key of the `T0` shelf: circuit identity × seed × `T0` configuration
/// fingerprint.
type T0Key = (String, u64, String);

/// The campaign-wide artifact cache. See the module docs.
pub struct ArtifactCache {
    circuits: Shelf<String, Circuit>,
    tapes: Shelf<String, GateTape>,
    faults: Shelf<String, Vec<Fault>>,
    t0s: Shelf<T0Key, GeneratedTest>,
    /// Wall-clock seconds each `T0` took to generate (recorded by the
    /// one worker that computed it; served to every sharer so session
    /// reports keep truthful timing context).
    t0_seconds: Mutex<HashMap<T0Key, f64>>,
    policy: CachePolicy,
    /// Chaos injection plan: poisons computes at `FaultSite::CachePoison`
    /// with transient failures. `None` in production.
    chaos: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .field("residency", &self.residency())
            .finish_non_exhaustive()
    }
}

/// Rough per-artifact byte models for the residency gauges. Deliberately
/// coarse — node/gate/vector counts times typical struct sizes — so the
/// report answers "what dominates?" without a real allocator probe.
mod approx {
    use super::{Circuit, Fault, GateTape, GeneratedTest};

    pub fn circuit(c: &Circuit) -> usize {
        c.num_nodes() * 64
    }

    pub fn tape(t: &GateTape) -> usize {
        t.num_nodes() * 16 + t.num_gates() * 24
    }

    pub fn faults(f: &[Fault]) -> usize {
        std::mem::size_of_val(f)
    }

    pub fn t0(g: &GeneratedTest) -> usize {
        // Packed vectors + one detection-time slot per fault.
        g.sequence.len() * g.sequence.width().div_ceil(8) + g.coverage.faults().len() * 24
    }
}

impl ArtifactCache {
    /// An empty cache with no telemetry sink ([`CacheStats`] and
    /// [`residency`](Self::residency) still work — they read the cache's
    /// own atomics).
    #[must_use]
    pub fn new() -> Self {
        ArtifactCache::with_obs(&Obs::noop())
    }

    /// An empty cache recording hit/miss/eviction counters and residency
    /// gauges (`cache.<shelf>.{hit,miss,evictions,resident,resident_bytes}`)
    /// into `obs`.
    #[must_use]
    pub fn with_obs(obs: &Obs) -> Self {
        ArtifactCache::with_config(obs, CachePolicy::default(), None)
    }

    /// An empty cache with a residency [`CachePolicy`] and an optional
    /// chaos [`FaultPlan`] poisoning computes (testing only).
    #[must_use]
    pub fn with_config(obs: &Obs, policy: CachePolicy, chaos: Option<Arc<FaultPlan>>) -> Self {
        let clock = Arc::new(AtomicU64::new(0));
        ArtifactCache {
            circuits: Shelf::new(obs, "circuit", Arc::clone(&clock)),
            tapes: Shelf::new(obs, "tape", Arc::clone(&clock)),
            faults: Shelf::new(obs, "fault", Arc::clone(&clock)),
            t0s: Shelf::new(obs, "t0", clock),
            t0_seconds: Mutex::new(HashMap::new()),
            policy,
            chaos,
        }
    }

    /// The cache's residency policy.
    #[must_use]
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// An injected transient failure for the compute identified by
    /// `key`, if the chaos plan fires. Always an interrupted-I/O error so
    /// the failure taxonomy classifies it as transient.
    fn injected(&self, key: &str) -> Option<BistError> {
        let message = self.chaos.as_ref()?.poison(key)?;
        Some(BistError::Io(std::io::Error::new(std::io::ErrorKind::Interrupted, message)))
    }

    /// The parsed circuit for `spec`, computed once per distinct key.
    ///
    /// # Errors
    ///
    /// [`BatchError::Artifact`] wrapping the parse/build failure.
    pub fn circuit(&self, spec: &CircuitSpec) -> Result<Arc<Circuit>, BatchError> {
        let key = spec.key();
        self.circuits.get_or_compute(
            &key,
            &format!("circuit `{key}`"),
            || match self.injected(&format!("circuit:{key}")) {
                Some(e) => Err(e),
                None => spec.build(),
            },
            approx::circuit,
        )
    }

    /// The compiled gate tape for `spec`'s circuit, compiled once per
    /// distinct key — so a campaign compiles each circuit exactly once no
    /// matter how many jobs (or seeds, or backends) touch it.
    ///
    /// # Errors
    ///
    /// As for [`circuit`](Self::circuit).
    pub fn tape(
        &self,
        spec: &CircuitSpec,
        circuit: &Arc<Circuit>,
    ) -> Result<Arc<GateTape>, BatchError> {
        let key = spec.key();
        self.tapes.get_or_compute(
            &key,
            &format!("gate tape of `{key}`"),
            || {
                if let Some(e) = self.injected(&format!("tape:{key}")) {
                    return Err(e);
                }
                let tape = GateTape::compile(circuit);
                #[cfg(debug_assertions)]
                subseq_bist::verify::audit_tape(circuit, &tape);
                Ok(tape)
            },
            approx::tape,
        )
    }

    /// The collapsed fault universe for `spec`'s circuit, computed once
    /// per distinct key.
    ///
    /// # Errors
    ///
    /// As for [`circuit`](Self::circuit).
    pub fn faults(
        &self,
        spec: &CircuitSpec,
        circuit: &Arc<Circuit>,
    ) -> Result<Arc<Vec<Fault>>, BatchError> {
        let key = spec.key();
        self.faults.get_or_compute(
            &key,
            &format!("fault universe of `{key}`"),
            || match self.injected(&format!("fault:{key}")) {
                Some(e) => Err(e),
                None => Ok(collapse(circuit, &fault_universe(circuit)).representatives().to_vec()),
            },
            |f| approx::faults(f),
        )
    }

    /// The generated `T0` (sequence + coverage) for `spec`'s circuit
    /// under `seed` and `tgen`, computed once per distinct
    /// (circuit, seed, config) triple. Reuses the cached collapsed
    /// universe and compiled tape, so the whole campaign collapses and
    /// compiles each circuit once.
    ///
    /// # Errors
    ///
    /// [`BatchError::Artifact`] wrapping the generation failure.
    pub fn generated_t0(
        &self,
        spec: &CircuitSpec,
        seed: u64,
        tgen: &TgenConfig,
        circuit: &Arc<Circuit>,
        faults: &Arc<Vec<Fault>>,
        tape: &Arc<GateTape>,
    ) -> Result<Arc<GeneratedTest>, BatchError> {
        let key = (spec.key(), seed, format!("{tgen:?}"));
        let describe = format!("T0 of `{}` (seed {seed})", spec.key());
        let chaos_key = format!("t0:{}:{seed}", spec.key());
        self.t0s.get_or_compute(
            &key,
            &describe,
            || {
                if let Some(e) = self.injected(&chaos_key) {
                    return Err(e);
                }
                let config = tgen.clone().seed(seed);
                let started = std::time::Instant::now();
                let generated = generate_t0_with_artifacts(
                    circuit,
                    &config,
                    faults.as_ref().clone(),
                    Arc::clone(tape),
                )
                .map_err(BistError::from)?;
                self.t0_seconds
                    .lock()
                    .expect("cache lock poisoned")
                    .insert(key.clone(), started.elapsed().as_secs_f64());
                Ok(generated)
            },
            approx::t0,
        )
    }

    /// Generation seconds of an already-computed `T0`, if any.
    fn t0_generation_seconds(&self, key: &T0Key) -> Option<f64> {
        self.t0_seconds.lock().expect("cache lock poisoned").get(key).copied()
    }

    /// The full artifact bundle for one job, ready for
    /// [`SessionBuilder::with_artifacts`](subseq_bist::SessionBuilder::with_artifacts).
    /// Under a bounded [`CachePolicy`] the byte budget is enforced after
    /// the bundle is assembled (the bundle's own `Arc`s keep its
    /// artifacts alive even if evicted).
    ///
    /// # Errors
    ///
    /// Any artifact computation failure, as above.
    pub fn artifacts_for(
        &self,
        spec: &CircuitSpec,
        seed: u64,
        tgen: &TgenConfig,
    ) -> Result<SessionArtifacts, BatchError> {
        let circuit = self.circuit(spec)?;
        let tape = self.tape(spec, &circuit)?;
        let faults = self.faults(spec, &circuit)?;
        let t0 = self.generated_t0(spec, seed, tgen, &circuit, &faults, &tape)?;
        let mut artifacts = SessionArtifacts::new()
            .circuit(Arc::clone(&circuit))
            .tape(Arc::clone(&tape))
            .faults(faults)
            .generated_t0(t0);
        let key = (spec.key(), seed, format!("{tgen:?}"));
        if let Some(seconds) = self.t0_generation_seconds(&key) {
            artifacts = artifacts.t0_seconds(seconds);
        }
        self.enforce_budget();
        Ok(artifacts)
    }

    /// Evicts least-recently-used artifacts until resident bytes fit the
    /// policy's budget (no-op when unbounded). Eviction picks the
    /// globally oldest completed entry across unpinned shelves; in-flight
    /// and failed slots never evict. Stops early if nothing evictable
    /// remains (everything left is pinned or in flight).
    pub fn enforce_budget(&self) {
        let Some(max_bytes) = self.policy.max_bytes else {
            return;
        };
        let pinned = self.policy.pinned_shelves;
        while self.residency().total_approx_bytes() > max_bytes {
            let mut oldest: Option<(u64, ShelfId)> = None;
            {
                let mut consider = |id: ShelfId, tick: Option<u64>| {
                    if pinned.contains(id) {
                        return;
                    }
                    if let Some(tick) = tick {
                        if oldest.is_none_or(|(best, _)| tick < best) {
                            oldest = Some((tick, id));
                        }
                    }
                };
                consider(ShelfId::Circuit, self.circuits.oldest_tick());
                consider(ShelfId::Tape, self.tapes.oldest_tick());
                consider(ShelfId::Fault, self.faults.oldest_tick());
                consider(ShelfId::T0, self.t0s.oldest_tick());
            }
            let Some((_, id)) = oldest else {
                return;
            };
            match id {
                ShelfId::Circuit => {
                    self.circuits.evict_oldest();
                }
                ShelfId::Tape => {
                    self.tapes.evict_oldest();
                }
                ShelfId::Fault => {
                    self.faults.evict_oldest();
                }
                ShelfId::T0 => {
                    // Keep the timing side-table in step with the shelf.
                    if let Some((key, _)) = self.t0s.evict_oldest() {
                        self.t0_seconds.lock().expect("cache lock poisoned").remove(&key);
                    }
                }
            }
        }
    }

    /// Current residency of every shelf — what the cache holds and
    /// roughly how much memory it pins.
    #[must_use]
    pub fn residency(&self) -> CacheResidency {
        CacheResidency {
            circuits: self.circuits.residency(),
            tapes: self.tapes.residency(),
            faults: self.faults.residency(),
            t0s: self.t0s.residency(),
        }
    }

    /// Current hit/miss/eviction counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let (circuit_misses, circuit_hits) = self.circuits.counters();
        let (tape_misses, tape_hits) = self.tapes.counters();
        let (fault_misses, fault_hits) = self.faults.counters();
        let (t0_misses, t0_hits) = self.t0s.counters();
        CacheStats {
            circuit_misses,
            circuit_hits,
            tape_misses,
            tape_hits,
            compiled_misses: 0,
            compiled_hits: 0,
            fault_misses,
            fault_hits,
            t0_misses,
            t0_hits,
            circuit_evictions: self.circuits.evicted(),
            tape_evictions: self.tapes.evicted(),
            fault_evictions: self.faults.evicted(),
            t0_evictions: self.t0s.evicted(),
        }
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultpoint::{FaultPoint, FaultSite};

    fn s27_spec() -> CircuitSpec {
        CircuitSpec::Suite("s27".to_string())
    }

    #[test]
    fn artifacts_are_computed_once_and_shared() {
        let cache = ArtifactCache::new();
        let spec = s27_spec();
        let a = cache.circuit(&spec).unwrap();
        let b = cache.circuit(&spec).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let ga = cache.tape(&spec, &a).unwrap();
        let gb = cache.tape(&spec, &a).unwrap();
        assert!(Arc::ptr_eq(&ga, &gb));
        assert_eq!(ga.num_nodes(), a.num_nodes());
        let fa = cache.faults(&spec, &a).unwrap();
        let fb = cache.faults(&spec, &b).unwrap();
        assert!(Arc::ptr_eq(&fa, &fb));
        assert_eq!(fa.len(), 32);
        let tgen = TgenConfig::new().max_length(32);
        let ta = cache.generated_t0(&spec, 7, &tgen, &a, &fa, &ga).unwrap();
        let tb = cache.generated_t0(&spec, 7, &tgen, &a, &fa, &ga).unwrap();
        assert!(Arc::ptr_eq(&ta, &tb));
        // A different seed is a different artifact.
        let tc = cache.generated_t0(&spec, 8, &tgen, &a, &fa, &ga).unwrap();
        assert!(!Arc::ptr_eq(&ta, &tc));
        let stats = cache.stats();
        assert_eq!((stats.circuit_misses, stats.circuit_hits), (1, 1));
        assert_eq!((stats.tape_misses, stats.tape_hits), (1, 1));
        assert_eq!((stats.fault_misses, stats.fault_hits), (1, 1));
        assert_eq!((stats.t0_misses, stats.t0_hits), (2, 1));
        assert_eq!(stats.total_evictions(), 0, "unbounded cache never evicts");
        assert!(stats.to_string().contains("tapes"));
    }

    #[test]
    fn concurrent_requests_compute_once() {
        let cache = ArtifactCache::new();
        let spec = s27_spec();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let c = cache.circuit(&spec).unwrap();
                    cache.faults(&spec, &c).unwrap();
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.circuit_misses, 1);
        assert_eq!(stats.circuit_hits, 7);
        assert_eq!(stats.fault_misses, 1);
        assert_eq!(stats.fault_hits, 7);
    }

    #[test]
    fn failed_artifacts_surface_and_stay_failed() {
        let cache = ArtifactCache::new();
        let spec = CircuitSpec::Suite("nope".to_string());
        let err = cache.circuit(&spec).unwrap_err();
        assert!(err.to_string().contains("nope"), "{err}");
        // The failure is cached too: no recompute, same message.
        let again = cache.circuit(&spec).unwrap_err();
        assert!(again.to_string().contains("nope"));
        assert_eq!(cache.stats().circuit_misses, 1);
    }

    #[test]
    fn failures_are_computed_once_and_counted_as_hits_thereafter() {
        // A circuit that fails to parse: the error itself is the cached
        // artifact. The first request is the one miss (the computation
        // that actually ran and failed); every later request — same
        // thread or racing threads — is served the cached error and
        // counts as a hit, exactly like a successful artifact.
        let cache = ArtifactCache::new();
        let spec = CircuitSpec::File(std::path::PathBuf::from("/definitely/not/here.bench"));
        let first = cache.circuit(&spec).unwrap_err();
        assert!(first.to_string().contains("here.bench"), "{first}");
        match &first {
            BatchError::Artifact { transient, .. } => {
                assert!(!*transient, "a missing file is a permanent failure");
            }
            other => panic!("expected Artifact error, got {other}"),
        }
        for _ in 0..3 {
            let again = cache.circuit(&spec).unwrap_err();
            assert_eq!(again.to_string(), first.to_string(), "cached error is re-served");
        }
        let stats = cache.stats();
        assert_eq!((stats.circuit_misses, stats.circuit_hits), (1, 3));

        // Concurrent requesters of a distinct failing key: still exactly
        // one computation, everyone else hits.
        let bad = CircuitSpec::Suite("still-not-a-circuit".to_string());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let err = cache.circuit(&bad).unwrap_err();
                    assert!(err.to_string().contains("still-not-a-circuit"));
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.circuit_misses, 2, "one miss per distinct failing key");
        assert_eq!(stats.circuit_hits, 3 + 7);

        // The full-bundle path reports the same cached failure and never
        // touches the downstream shelves for a broken circuit.
        let tgen = TgenConfig::new().max_length(16);
        let bundle = cache.artifacts_for(&spec, 1, &tgen).unwrap_err();
        assert!(bundle.to_string().contains("here.bench"));
        let stats = cache.stats();
        assert_eq!((stats.circuit_misses, stats.circuit_hits), (2, 11));
        assert_eq!(stats.tape_misses + stats.tape_hits, 0, "no tape compiled for a failed parse");
        assert_eq!(stats.fault_misses + stats.fault_hits, 0);
        assert_eq!(stats.t0_misses + stats.t0_hits, 0);
    }

    #[test]
    fn transient_failures_release_their_slot_and_heal_on_retry() {
        // A chaos plan poisons the first T0 generation with a transient
        // (interrupted-I/O) failure. The failed request surfaces a
        // retryable error; the retry recomputes and succeeds — unlike a
        // permanent parse failure, which is cached forever.
        let plan =
            Arc::new(FaultPlan::new(3).point(FaultPoint::new(FaultSite::CachePoison, "t0:s27")));
        let cache = ArtifactCache::with_config(&Obs::noop(), CachePolicy::default(), Some(plan));
        let spec = s27_spec();
        let tgen = TgenConfig::new().max_length(16);
        let err = cache.artifacts_for(&spec, 1, &tgen).unwrap_err();
        match &err {
            BatchError::Artifact { transient, message, .. } => {
                assert!(*transient, "injected poison must classify as transient: {err}");
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected Artifact error, got {other}"),
        }
        // Retry: the poisoned slot was released, the plan's one fire is
        // spent, so the recompute succeeds.
        cache.artifacts_for(&spec, 1, &tgen).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.t0_misses, 2, "failed compute + healing recompute");
        assert_eq!(cache.residency().t0s.entries, 1);
    }

    #[test]
    fn bounded_cache_evicts_lru_and_recomputes_bit_identically() {
        // A budget far below one circuit's bundle: after each bundle the
        // cache evicts down to whatever it cannot evict (nothing is
        // pinned, so everything completed goes). Recomputed artifacts are
        // bit-identical because every computation is deterministic.
        let tgen = TgenConfig::new().max_length(16);
        let spec = s27_spec();
        let cache = ArtifactCache::with_config(&Obs::noop(), CachePolicy::bounded(1), None);
        // The bundle path enforces the budget after assembly.
        cache.artifacts_for(&spec, 5, &tgen).unwrap();
        let stats = cache.stats();
        assert!(stats.total_evictions() > 0, "budget of 1 byte must evict: {stats:?}");
        assert_eq!(cache.residency().total_approx_bytes(), 0, "everything evictable evicted");
        // Re-requesting an evicted artifact is a recompute (miss), and
        // the result matches bit for bit.
        let circuit = cache.circuit(&spec).unwrap();
        let tape = cache.tape(&spec, &circuit).unwrap();
        let faults = cache.faults(&spec, &circuit).unwrap();
        let first = cache.generated_t0(&spec, 5, &tgen, &circuit, &faults, &tape).unwrap();
        assert_eq!(cache.stats().t0_misses, 2, "evicted T0 recomputed, not hit");
        cache.enforce_budget();
        let second = cache.generated_t0(&spec, 5, &tgen, &circuit, &faults, &tape).unwrap();
        assert!(!Arc::ptr_eq(&first, &second), "evicted artifact was recomputed");
        assert_eq!(cache.stats().t0_misses, 3);
        assert_eq!(first.sequence, second.sequence, "recompute is bit-identical");
        assert_eq!(
            first.coverage.detected_count(),
            second.coverage.detected_count(),
            "recomputed coverage matches"
        );
    }

    #[test]
    fn pinned_shelves_survive_eviction() {
        let tgen = TgenConfig::new().max_length(16);
        let policy = CachePolicy::bounded(1).pin(ShelfId::T0).pin(ShelfId::Circuit);
        let cache = ArtifactCache::with_config(&Obs::noop(), policy, None);
        cache.artifacts_for(&s27_spec(), 5, &tgen).unwrap();
        let residency = cache.residency();
        assert_eq!(residency.t0s.entries, 1, "pinned shelf keeps its artifact");
        assert_eq!(residency.circuits.entries, 1, "pinned shelf keeps its artifact");
        assert_eq!(residency.tapes.entries, 0, "unpinned shelf evicted");
        assert_eq!(residency.faults.entries, 0, "unpinned shelf evicted");
        let stats = cache.stats();
        assert_eq!(stats.t0_evictions, 0);
        assert_eq!(stats.circuit_evictions, 0);
        assert_eq!(stats.tape_evictions, 1);
        assert_eq!(stats.fault_evictions, 1);
        // A pinned T0 is served from the cache on the next request.
        cache.artifacts_for(&s27_spec(), 5, &tgen).unwrap();
        assert_eq!(cache.stats().t0_hits, 1);
    }

    #[test]
    fn instrumented_cache_mirrors_stats_and_tracks_residency() {
        let registry = Arc::new(bist_obs::Registry::new());
        let cache = ArtifactCache::with_obs(&Obs::with_registry(Arc::clone(&registry)));
        let spec = s27_spec();
        let tgen = TgenConfig::new().max_length(16);
        cache.artifacts_for(&spec, 1, &tgen).unwrap();
        cache.artifacts_for(&spec, 1, &tgen).unwrap();
        let snap = registry.snapshot();
        let stats = cache.stats();
        // The registry counters are an exact mirror of CacheStats.
        assert_eq!(snap.counter("cache.circuit.miss"), Some(stats.circuit_misses as u64));
        assert_eq!(snap.counter("cache.circuit.hit"), Some(stats.circuit_hits as u64));
        assert_eq!(snap.counter("cache.tape.miss"), Some(stats.tape_misses as u64));
        assert_eq!(snap.counter("cache.tape.hit"), Some(stats.tape_hits as u64));
        assert_eq!(snap.counter("cache.t0.miss"), Some(stats.t0_misses as u64));
        // One artifact resident per shelf (same circuit, seed, config).
        let residency = cache.residency();
        assert_eq!(residency.circuits.entries, 1);
        assert_eq!(residency.tapes.entries, 1);
        assert_eq!(residency.faults.entries, 1);
        assert_eq!(residency.t0s.entries, 1);
        assert_eq!((stats.compiled_misses, stats.compiled_hits), (0, 0));
        assert!(residency.total_approx_bytes() > 0);
        assert_eq!(snap.gauge("cache.circuit.resident"), Some(1));
        assert_eq!(
            snap.gauge("cache.tape.resident_bytes"),
            Some(residency.tapes.approx_bytes as i64)
        );
        assert!(residency.to_string().contains("resident:"), "{residency}");
        // Cached failures occupy a slot but are not resident artifacts.
        let bad = CircuitSpec::Suite("nope".to_string());
        cache.circuit(&bad).unwrap_err();
        assert_eq!(cache.residency().circuits.entries, 1);
    }

    #[test]
    fn instrumented_eviction_counters_mirror_stats() {
        let registry = Arc::new(bist_obs::Registry::new());
        let obs = Obs::with_registry(Arc::clone(&registry));
        let cache = ArtifactCache::with_config(&obs, CachePolicy::bounded(1), None);
        let tgen = TgenConfig::new().max_length(16);
        cache.artifacts_for(&s27_spec(), 1, &tgen).unwrap();
        let snap = registry.snapshot();
        let stats = cache.stats();
        assert!(stats.total_evictions() > 0);
        assert_eq!(snap.counter("cache.t0.evictions"), Some(stats.t0_evictions as u64));
        assert_eq!(snap.counter("cache.circuit.evictions"), Some(stats.circuit_evictions as u64));
        assert_eq!(snap.gauge("cache.t0.resident"), Some(0), "gauge follows the eviction");
        assert_eq!(snap.gauge("cache.t0.resident_bytes"), Some(0));
    }

    #[test]
    fn bundle_assembles_everything() {
        let cache = ArtifactCache::new();
        let tgen = TgenConfig::new().max_length(16);
        cache.artifacts_for(&s27_spec(), 3, &tgen).unwrap();
        let stats = cache.stats();
        assert_eq!(
            (stats.circuit_misses, stats.tape_misses, stats.fault_misses, stats.t0_misses),
            (1, 1, 1, 1)
        );
        // A second job over the same circuit compiles nothing new.
        cache.artifacts_for(&s27_spec(), 4, &tgen).unwrap();
        assert_eq!(cache.stats().tape_misses, 1);
        assert_eq!(cache.stats().tape_hits, 1);
    }
}
