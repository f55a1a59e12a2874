//! Budgeted, cached, batch-parallel oracle access shared by all synthesis
//! phases.
//!
//! The paper measures synthesis cost purely in membership queries, and the
//! query layer dominates wall-clock time for any real target (each query
//! runs the program under test). A check flows through it once:
//!
//! * callers describe checks as segment lists ([`CheckSpec`]) instead of
//!   pre-concatenated strings. A [`Wave`] writes each into one reusable
//!   scratch buffer, hashes it once, folds cache hits, dedups the misses
//!   by (hash, bytes) and allocates a key only for a new distinct miss.
//!   The staged chargen and merge planners fill a wave directly;
//!   [`QueryRunner::accepts_batch`] wraps one for phase one, the memo-off
//!   one-shot plan and tests;
//! * [`QueryRunner::pose`] answers the wave's distinct misses: from a
//!   partially loaded binary snapshot ([`BackingStore`], see
//!   `persist::BinaryCacheFile`) whose hits are faulted into the cache on
//!   demand, or from the oracle after charging the budget in slot order.
//!   Each answered key then moves into the session's [`QueryCache`] with
//!   its hash. The cache outlives any single run, so incremental
//!   `add_seeds` calls and warm-started runs (see `persist.rs`) answer
//!   repeated checks without re-paying oracle calls;
//! * dispatch is **work-stealing**: scoped worker threads
//!   (`std::thread::scope`) pull the next un-posed miss from a shared
//!   atomic cursor, so one slow query delays only the worker running it;
//! * oracles that multiplex batches natively ([`Oracle::native_batching`],
//!   e.g. the pooled process oracle's `poll(2)` dispatcher) are instead
//!   handed the whole miss set from the calling thread in bounded
//!   sub-batches, so no engine thread is parked per in-flight query.
//!
//! The runner is also the engine's observation and cancellation point:
//! every posed wave emits a [`SynthEvent::QueryBatch`] to the installed
//! observer, budget exhaustion and cancellation emit their events exactly
//! once, and a [`CancelToken`] is checked both at budget-reservation time
//! and between the queries of an in-flight batch — cancellation takes the
//! same fail-closed path as the deadline. All counters are atomics, making
//! [`QueryRunner`] `Sync`.
//!
//! Determinism: with no time limit and no cancellation, batch results
//! depend only on the oracle (which must be deterministic, see
//! [`Oracle`]) and the batch contents — never on worker count or
//! scheduling. Phase two and character generalization exploit this by
//! batching their embarrassingly parallel check sets and applying the
//! verdicts sequentially. A `time_limit` (or a cancel) is the exception:
//! which queries beat the cutoff is inherently a function of wall-clock
//! speed, so degraded runs are reproducible only in their guarantees
//! (fail-closed, seeds preserved), not byte-for-byte.

use crate::cache::{key_hash, PassThroughState, QueryCache};
use crate::events::{CancelToken, SynthEvent, SynthesisObserver};
use crate::persist::BinaryCacheFile;
use crate::tree::Context;
use crate::Oracle;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Maximum number of byte-slice segments in a [`CheckSpec`].
///
/// The widest check the synthesizer builds is phase one's two-repetition
/// residual `γ·α1·α2·α2·α3·δ` — six segments.
pub(crate) const MAX_SEGMENTS: usize = 6;

/// Smallest number of distinct cache misses worth spawning worker threads
/// for; below this a batch runs inline on the calling thread.
const MIN_PARALLEL_MISSES: usize = 4;

/// Misses handed to a natively batching oracle per
/// [`Oracle::accepts_batch_checked`] call. The bound is the granularity at
/// which the deadline and the cancel token are re-checked during a huge
/// batch; within one sub-batch the oracle runs uninterrupted. Large enough
/// that frame batching amortizes fully, small enough that cancellation
/// latency stays in the tens-of-milliseconds range for real targets.
const NATIVE_DISPATCH_SUB_BATCH: usize = 1024;

/// A membership check described as a concatenation of byte slices
/// borrowed from the seed string and the context, built without
/// allocating; a [`Wave`] materializes it into a reusable scratch buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CheckSpec<'a> {
    segments: [&'a [u8]; MAX_SEGMENTS],
    used: usize,
}

impl<'a> CheckSpec<'a> {
    /// Builds a spec from raw segments (at most [`MAX_SEGMENTS`]).
    pub fn new(segments: &[&'a [u8]]) -> Self {
        assert!(segments.len() <= MAX_SEGMENTS, "check has too many segments");
        let mut s: [&'a [u8]; MAX_SEGMENTS] = [b""; MAX_SEGMENTS];
        s[..segments.len()].copy_from_slice(segments);
        CheckSpec { segments: s, used: segments.len() }
    }

    /// Builds the check `γ·parts·δ` for a residual in context `ctx`.
    pub fn wrapped(ctx: &'a Context, parts: &[&'a [u8]]) -> Self {
        assert!(parts.len() + 2 <= MAX_SEGMENTS, "residual has too many segments");
        let mut s: [&'a [u8]; MAX_SEGMENTS] = [b""; MAX_SEGMENTS];
        s[0] = &ctx.before;
        s[1..=parts.len()].copy_from_slice(parts);
        s[parts.len() + 1] = &ctx.after;
        CheckSpec { segments: s, used: parts.len() + 2 }
    }

    /// Appends the concatenated check string to `out` (callers clear first).
    pub fn write_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.segments[..self.used].iter().map(|s| s.len()).sum());
        for seg in &self.segments[..self.used] {
            out.extend_from_slice(seg);
        }
    }
}

/// One planned wave of membership checks, from the planners to the cache.
///
/// [`Wave::resolve`] writes each check once into a reused scratch buffer,
/// hashes it once ([`key_hash`]) and resolves it once: a cache hit, or a
/// *slot* — one distinct miss, found by (hash, bytes), that owns its key.
/// [`QueryRunner::pose`] answers every slot and moves each key into the
/// cache with its hash; [`Wave::verdict`] then reads the answers until
/// [`Wave::clear`] starts the next wave.
///
/// Resolving a check does not count it, because callers charge checks
/// differently. [`QueryRunner::accepts_batch`] counts every check it is
/// handed, cache hits as cached. The staged planners (`chargen.rs`,
/// `phase2.rs`) fold cache hits and their own repeats at plan time and
/// count only the checks they pose; each starts with
/// [`Wave::next_planner`], so a string that an earlier planner of the same
/// wave posed is counted again (both posed it) but shares the slot.
#[derive(Debug, Default)]
pub(crate) struct Wave {
    scratch: Vec<u8>,
    slots: Vec<WaveSlot>,
    /// First slot per key hash; slots with equal hashes chain by `next`.
    index: HashMap<u64, u32, PassThroughState>,
    planner: u32,
    /// Checks counted, and how many of them the cache answered.
    checks: usize,
    cached: usize,
}

/// One distinct miss of a [`Wave`].
#[derive(Debug)]
struct WaveSlot {
    hash: u64,
    /// Moved into the cache once the oracle answers.
    key: Box<[u8]>,
    /// Counted checks this slot answers.
    checks: u32,
    /// The last planner that counted a check here (`u32::MAX` = none).
    counted_by: u32,
    /// Next slot with the same hash (`u32::MAX` = none).
    next: u32,
    /// `false` until answered; over-budget and skipped slots stay `false`.
    verdict: bool,
}

/// How a check resolved in a [`Wave`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Resolved {
    /// Answered by the cache at plan time.
    Cached(bool),
    /// Answered by [`Wave::verdict`] of `slot` once the wave is posed;
    /// `repeat` means the current planner already counted this slot.
    Slot { slot: usize, repeat: bool },
}

impl Wave {
    /// Empties the wave for the next round, keeping its buffers.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        (self.planner, self.checks, self.cached) = (0, 0, 0);
    }

    /// Starts the next planner's checks (see the type docs).
    pub fn next_planner(&mut self) {
        self.planner += 1;
    }

    /// Writes, hashes and resolves one check against `cache` and the
    /// wave's slots, opening a slot for a new distinct miss.
    pub fn resolve(&mut self, spec: &CheckSpec<'_>, cache: &QueryCache) -> Resolved {
        self.scratch.clear();
        spec.write_into(&mut self.scratch);
        let hash = key_hash(&self.scratch);
        if let Some(v) = cache.get_hashed(hash, &self.scratch) {
            return Resolved::Cached(v);
        }
        let head = self.index.get(&hash).copied().unwrap_or(u32::MAX);
        let mut s = head;
        while s != u32::MAX {
            let slot = &self.slots[s as usize];
            if *slot.key == *self.scratch {
                return Resolved::Slot {
                    slot: s as usize,
                    repeat: slot.counted_by == self.planner,
                };
            }
            s = slot.next;
        }
        let slot = self.slots.len();
        self.index.insert(hash, slot as u32);
        self.slots.push(WaveSlot {
            hash,
            key: self.scratch.as_slice().into(),
            checks: 0,
            counted_by: u32::MAX,
            next: head,
            verdict: false,
        });
        Resolved::Slot { slot, repeat: false }
    }

    /// Counts one posed check answered by `resolved`.
    pub fn count(&mut self, resolved: Resolved) {
        self.checks += 1;
        match resolved {
            Resolved::Cached(_) => self.cached += 1,
            Resolved::Slot { slot, .. } => {
                let slot = &mut self.slots[slot];
                slot.checks += 1;
                slot.counted_by = self.planner;
            }
        }
    }

    /// The verdict of a posed slot.
    pub fn verdict(&self, slot: usize) -> bool {
        self.slots[slot].verdict
    }
}

/// A partially loaded binary cache snapshot serving as a read-only
/// second cache level.
///
/// Opened by [`Session::attach_cache`](crate::Session::attach_cache): the
/// snapshot's index stays on disk and entries are faulted into the
/// in-memory [`QueryCache`] the first time a run revisits them.
/// `faulted` counts the *distinct* backing entries materialized so far, so
/// `unique_queries` accounting stays exact: distinct queries known to the
/// session = `cache.len() + (file.len() - faulted)` — every backing entry
/// is either still pending on disk or has been faulted (and is then
/// counted by the cache's distinct-ever ledger, which survives eviction).
#[derive(Debug)]
pub(crate) struct BackingStore {
    pub file: BinaryCacheFile,
    /// Distinct backing entries faulted into the in-memory cache.
    pub faulted: usize,
}

impl BackingStore {
    /// Backing entries not yet faulted into the in-memory cache.
    pub fn pending(&self) -> usize {
        self.file.len().saturating_sub(self.faulted)
    }
}

/// Construction-time knobs for a [`QueryRunner`], separate from the
/// borrowed oracle and cache so call sites stay readable.
#[derive(Default)]
pub(crate) struct RunnerOptions<'s> {
    /// Distinct-query budget for this run (`None` = unlimited).
    pub max_queries: Option<usize>,
    /// Wall-clock limit for this run.
    pub time_limit: Option<Duration>,
    /// Worker threads used to dispatch misses (0 or 1 = fully sequential).
    pub workers: usize,
    /// Progress observer; receives `QueryBatch`/`BudgetExhausted`/
    /// `Cancelled` events.
    pub observer: Option<&'s dyn SynthesisObserver>,
    /// Cooperative cancellation flag checked between and inside batches.
    pub cancel: Option<&'s CancelToken>,
    /// Session-owned partially loaded snapshot consulted on cache misses.
    pub backing: Option<&'s Mutex<BackingStore>>,
}

/// Internal oracle front-end enforcing the query/time budget and the
/// cancel token.
///
/// Once the budget is exhausted (or the run is cancelled) every further
/// query answers `false`; since checks gate *generalization*, this
/// gracefully degrades synthesis (pending substrings collapse to
/// constants, pending merges are skipped) instead of aborting, mirroring
/// the paper's timeout handling of "use the last language successfully
/// learned".
///
/// The budget counts **budgeted distinct queries only**: seed validation
/// through [`QueryRunner::accepts_unbudgeted`] shares the cache but not the
/// budget (the seed implementation compared the budget against the cache
/// size, silently charging seed validation to the synthesis budget).
pub(crate) struct QueryRunner<'s> {
    oracle: &'s dyn Oracle,
    /// Session-owned cache; shared across the runs of one session.
    cache: &'s QueryCache,
    /// Partially loaded snapshot consulted on cache misses (see
    /// [`BackingStore`]).
    backing: Option<&'s Mutex<BackingStore>>,
    observer: Option<&'s dyn SynthesisObserver>,
    cancel: Option<&'s CancelToken>,
    /// All queries, including cache hits.
    total: AtomicUsize,
    /// Distinct budgeted queries actually charged against `max_queries`.
    budget_used: AtomicUsize,
    max_queries: usize,
    deadline: Option<Instant>,
    exhausted: AtomicBool,
    /// Whether cancellation was actually observed by this run.
    cancelled: AtomicBool,
    /// One-shot latches so `BudgetExhausted`/`Cancelled` are emitted once.
    budget_event_sent: AtomicBool,
    cancel_event_sent: AtomicBool,
    /// Worker threads used to dispatch misses (1 = fully sequential).
    workers: usize,
    /// Oracle health counters as this run sees them: execution failures
    /// ([`Oracle::failure_count`]), deadline timeouts, breaker trips and
    /// recoveries.
    failures: RunCounter,
    timeouts: RunCounter,
    trips: RunCounter,
    recoveries: RunCounter,
}

/// One oracle health counter seen by a run: its value when the run
/// started, and the value already surfaced in an event.
struct RunCounter {
    at_start: usize,
    reported: AtomicUsize,
}

impl RunCounter {
    fn new(at_start: usize) -> Self {
        RunCounter { at_start, reported: AtomicUsize::new(at_start) }
    }

    /// Marks `current` as surfaced; returns `(growth since the last
    /// report, growth this run)` when the counter grew.
    fn grew(&self, current: usize) -> Option<(usize, usize)> {
        let previous = self.reported.swap(current, Ordering::Relaxed);
        (current > previous).then(|| (current - previous, current - self.at_start))
    }

    /// Growth this run.
    fn this_run(&self, current: usize) -> usize {
        current.saturating_sub(self.at_start)
    }
}

impl<'s> QueryRunner<'s> {
    pub fn new(oracle: &'s dyn Oracle, cache: &'s QueryCache, opts: RunnerOptions<'s>) -> Self {
        QueryRunner {
            oracle,
            cache,
            backing: opts.backing,
            observer: opts.observer,
            cancel: opts.cancel,
            total: AtomicUsize::new(0),
            budget_used: AtomicUsize::new(0),
            max_queries: opts.max_queries.unwrap_or(usize::MAX),
            deadline: opts.time_limit.map(|d| Instant::now() + d),
            exhausted: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            budget_event_sent: AtomicBool::new(false),
            cancel_event_sent: AtomicBool::new(false),
            workers: opts.workers.max(1),
            failures: RunCounter::new(oracle.failure_count()),
            timeouts: RunCounter::new(oracle.timed_out_count()),
            trips: RunCounter::new(oracle.tripped_worker_count()),
            recoveries: RunCounter::new(oracle.recovered_worker_count()),
        }
    }

    fn emit(&self, event: SynthEvent) {
        if let Some(obs) = self.observer {
            obs.on_event(&event);
        }
    }

    /// Trips the fail-closed flag; emits the matching event exactly once.
    fn trip_exhausted(&self, by_cancel: bool) {
        self.exhausted.store(true, Ordering::Relaxed);
        if by_cancel {
            self.cancelled.store(true, Ordering::Relaxed);
            if !self.cancel_event_sent.swap(true, Ordering::Relaxed) {
                self.emit(SynthEvent::Cancelled);
            }
        } else if !self.budget_event_sent.swap(true, Ordering::Relaxed) {
            self.emit(SynthEvent::BudgetExhausted);
        }
    }

    /// Oracle execution failures observed during this run (queries whose
    /// verdict could not be obtained and degraded to `false`).
    pub fn oracle_failures(&self) -> usize {
        self.failures.this_run(self.oracle.failure_count())
    }

    /// Surfaces newly observed oracle health transitions — execution
    /// failures ([`SynthEvent::OracleFailures`], see
    /// [`Oracle::failure_count`]), deadline timeouts
    /// ([`SynthEvent::WorkerHung`]), breaker trips
    /// ([`SynthEvent::BreakerTripped`]) and recoveries
    /// ([`SynthEvent::BreakerRecovered`]). Called after every batch; emits
    /// only for a counter that grew.
    fn report_oracle_health(&self) {
        if let Some((new_failures, run_failures)) = self.failures.grew(self.oracle.failure_count())
        {
            self.emit(SynthEvent::OracleFailures { new_failures, run_failures });
        }
        if let Some((new_timeouts, run_timeouts)) =
            self.timeouts.grew(self.oracle.timed_out_count())
        {
            self.emit(SynthEvent::WorkerHung { new_timeouts, run_timeouts });
        }
        if let Some((new_trips, run_trips)) = self.trips.grew(self.oracle.tripped_worker_count()) {
            self.emit(SynthEvent::BreakerTripped { new_trips, run_trips });
        }
        let recovered = self.oracle.recovered_worker_count();
        if let Some((new_recoveries, run_recoveries)) = self.recoveries.grew(recovered) {
            self.emit(SynthEvent::BreakerRecovered { new_recoveries, run_recoveries });
        }
    }

    /// Queries abandoned to the per-query deadline during this run (each
    /// was also retried or degraded, so it is *additionally* visible in
    /// [`QueryRunner::oracle_failures`] unless rescued).
    pub fn timed_out_queries(&self) -> usize {
        self.timeouts.this_run(self.oracle.timed_out_count())
    }

    /// Worker-slot circuit-breaker trips during this run.
    pub fn tripped_workers(&self) -> usize {
        self.trips.this_run(self.oracle.tripped_worker_count())
    }

    /// Whether the cancel token flipped or the deadline passed; trips the
    /// fail-closed flag (emitting its event once) if so.
    fn must_stop(&self) -> bool {
        let cancelled = self.cancel.is_some_and(CancelToken::is_cancelled);
        if cancelled || self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.trip_exhausted(cancelled);
            return true;
        }
        false
    }

    /// Reserves one budget slot, or trips the exhausted flag and fails.
    fn reserve_budget(&self) -> bool {
        if self.must_stop() || self.exhausted.load(Ordering::Relaxed) {
            return false;
        }
        let reserved = self
            .budget_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                (used < self.max_queries).then_some(used + 1)
            })
            .is_ok();
        if !reserved {
            self.trip_exhausted(false);
        }
        reserved
    }

    /// Consults the partially loaded backing snapshot for a cache miss.
    /// Hits are faulted into the in-memory cache (so later lookups skip
    /// the on-disk index) and charged to the store's `faulted` ledger exactly once
    /// per distinct entry — a re-fault after eviction is answered but not
    /// re-counted. I/O errors on a damaged file degrade to a miss: the
    /// oracle re-answers, trading queries for availability.
    fn backing_lookup(&self, hash: u64, key: &[u8]) -> Option<bool> {
        let store = self.backing?;
        let mut store = store.lock().expect("backing cache poisoned");
        match store.file.lookup(key) {
            Ok(Some(v)) => {
                if self.cache.insert_hashed(hash, key.into(), v) {
                    store.faulted += 1;
                }
                Some(v)
            }
            Ok(None) | Err(_) => None,
        }
    }

    /// Budget-aware batched membership query: plans `checks` as one
    /// [`Wave`] (every check counted, cache hits as cached) and poses it.
    /// Results are returned in input order and are identical for every
    /// worker count.
    ///
    /// Budget note: a batch charges every distinct miss it poses. Callers
    /// that previously short-circuited (stop at the first failing check of
    /// a candidate) now pay for the whole batch — that is the price of
    /// posing the checks concurrently, and it is the same in sequential
    /// mode so query counts stay worker-count-independent.
    pub fn accepts_batch(&self, checks: &[CheckSpec<'_>]) -> Vec<bool> {
        let mut wave = Wave::default();
        let resolved: Vec<Resolved> = checks
            .iter()
            .map(|spec| {
                let r = wave.resolve(spec, self.cache);
                wave.count(r);
                r
            })
            .collect();
        self.pose(&mut wave);
        let answer = |r| match r {
            Resolved::Cached(v) => v,
            Resolved::Slot { slot, .. } => wave.verdict(slot),
        };
        resolved.into_iter().map(answer).collect()
    }

    /// Poses a planned [`Wave`]. Slots are taken in order: a backing
    /// snapshot hit answers a slot (counted as cached, never budgeted);
    /// otherwise the slot reserves one unit of budget and goes to the
    /// oracle, and a slot over budget answers `false`. Every real verdict
    /// then moves into the cache with its key and hash. When an observer
    /// is installed, one [`SynthEvent::QueryBatch`] reports the wave's
    /// counted checks, cached and posed.
    ///
    /// The time budget and the cancel token are enforced during execution
    /// too: once the deadline passes or the token flips, remaining misses
    /// are skipped (answering `false`, *not* cached — only real oracle
    /// verdicts enter the cache) and the runner is marked exhausted.
    pub fn pose(&self, wave: &mut Wave) {
        self.total.fetch_add(wave.checks, Ordering::Relaxed);
        let mut cached = wave.cached;
        let mut misses: Vec<usize> = Vec::with_capacity(wave.slots.len());
        for (s, slot) in wave.slots.iter_mut().enumerate() {
            if let Some(v) = self.backing_lookup(slot.hash, &slot.key) {
                slot.verdict = v;
                cached += slot.checks as usize;
            } else if self.reserve_budget() {
                misses.push(s);
            }
        }
        let keys: Vec<&[u8]> = misses.iter().map(|&s| &*wave.slots[s].key).collect();
        let verdicts = self.dispatch(&keys);
        drop(keys);
        self.report_oracle_health();

        if self.observer.is_some() {
            // `posed` counts misses that actually reached the oracle —
            // slots left `None` were skipped by the deadline or a cancel.
            self.emit(SynthEvent::QueryBatch {
                checks: wave.checks,
                cached,
                posed: verdicts.iter().flatten().count(),
            });
        }
        for (s, verdict) in misses.into_iter().zip(verdicts) {
            let Some(verdict) = verdict else { continue };
            let slot = &mut wave.slots[s];
            slot.verdict = verdict;
            self.cache.insert_hashed(slot.hash, std::mem::take(&mut slot.key), verdict);
        }
    }

    /// Answers each distinct miss in `keys` through the oracle.
    fn dispatch(&self, keys: &[&[u8]]) -> Vec<Option<bool>> {
        // Dispatch the distinct misses. Two strategies, same results:
        //
        // * **Native batch dispatch** — oracles that multiplex a whole
        //   batch themselves ([`Oracle::native_batching`], e.g. the pooled
        //   process oracle's poll(2) dispatcher) are handed the miss set
        //   in bounded sub-batches from this thread. No engine thread is
        //   parked per in-flight query; the oracle keeps its own workers
        //   saturated. The sub-batch bound exists so the deadline and the
        //   cancel token are still honored *during* a large batch.
        // * **Work stealing** — for ordinary per-query oracles, a shared
        //   atomic cursor hands each idle engine worker the next un-posed
        //   miss, so a single slow query (heterogeneous latencies are the
        //   norm for real targets) stalls one worker instead of the whole
        //   static chunk scheduled behind it.
        //
        // Every miss is posed exactly once and the oracle is
        // deterministic, so results — and the set of cached queries — are
        // identical for every worker count and for either strategy. A
        // verdict left `None` marks a miss skipped because the deadline
        // expired (or the run was cancelled) mid-batch, or an oracle
        // execution failure: it answers `false` but is not cached (only
        // real oracle verdicts may enter the cache, or a persisted
        // snapshot would poison every warm start).
        if self.oracle.native_batching() {
            let mut verdicts: Vec<Option<bool>> = vec![None; keys.len()];
            for start in (0..keys.len()).step_by(NATIVE_DISPATCH_SUB_BATCH) {
                if self.must_stop() {
                    break;
                }
                let end = (start + NATIVE_DISPATCH_SUB_BATCH).min(keys.len());
                let answers = self.oracle.accepts_batch_checked(&keys[start..end]);
                debug_assert_eq!(answers.len(), end - start);
                verdicts[start..end].copy_from_slice(&answers);
            }
            verdicts
        } else {
            let slots: Vec<OnceLock<bool>> = keys.iter().map(|_| OnceLock::new()).collect();
            let cursor = AtomicUsize::new(0);
            let steal_loop = || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= keys.len() {
                    break;
                }
                if self.must_stop() {
                    break;
                }
                if let Some(v) = self.oracle.accepts_checked(keys[i]) {
                    let _ = slots[i].set(v);
                }
            };
            // Spawning threads costs tens of microseconds; only fan out
            // when the batch is big enough to amortize it (tiny batches —
            // e.g. phase 1's residual pairs against an in-process oracle —
            // run inline). Results are identical either way.
            let threads =
                if keys.len() >= MIN_PARALLEL_MISSES { self.workers.min(keys.len()) } else { 1 };
            if threads > 1 {
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        scope.spawn(steal_loop);
                    }
                });
            } else {
                steal_loop();
            }
            slots.into_iter().map(OnceLock::into_inner).collect()
        }
    }

    /// Unbudgeted query used for seed validation (seeds must be consulted
    /// even if the budget is already gone). Shares the cache but is not
    /// charged against `max_queries`, and ignores cancellation — a
    /// returned `Synthesis` must always have validated its seeds.
    pub fn accepts_unbudgeted(&self, input: &[u8]) -> bool {
        let hash = key_hash(input);
        if let Some(v) = self.cache.get_hashed(hash, input) {
            return v;
        }
        if let Some(v) = self.backing_lookup(hash, input) {
            return v;
        }
        // A seed whose validation *execution* fails is rejected (the
        // premise `E_in ⊆ L*` cannot be confirmed) without caching the
        // non-verdict.
        let Some(v) = self.oracle.accepts_checked(input) else { return false };
        self.cache.insert_hashed(hash, input.into(), v);
        v
    }

    /// Distinct inputs known so far (cumulative across the session):
    /// the in-memory cache's distinct-ever count plus the backing
    /// snapshot's not-yet-faulted entries, so partial and full loads of
    /// the same snapshot report identical `unique_queries`.
    pub fn unique_queries(&self) -> usize {
        let pending =
            self.backing.map_or(0, |b| b.lock().expect("backing cache poisoned").pending());
        self.cache.len() + pending
    }

    /// Total queries posed through this runner, including cache hits.
    pub fn total_queries(&self) -> usize {
        self.total.load(Ordering::Relaxed)
    }

    /// Whether the budget ran out (or the run was cancelled) at some point.
    pub fn exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Whether cancellation was observed by this run.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventLog;
    use crate::FnOracle;
    use std::sync::atomic::AtomicUsize;

    impl QueryRunner<'_> {
        /// One check posed as a batch of its own.
        fn accepts(&self, input: &[u8]) -> bool {
            self.accepts_batch(&[spec(input)])[0]
        }
    }

    fn spec<'a>(bytes: &'a [u8]) -> CheckSpec<'a> {
        CheckSpec::new(&[bytes])
    }

    fn runner<'s>(
        oracle: &'s dyn Oracle,
        cache: &'s QueryCache,
        max_queries: Option<usize>,
        time_limit: Option<Duration>,
        workers: usize,
    ) -> QueryRunner<'s> {
        QueryRunner::new(
            oracle,
            cache,
            RunnerOptions { max_queries, time_limit, workers, ..RunnerOptions::default() },
        )
    }

    #[test]
    fn caches_and_counts() {
        let o = FnOracle::new(|i: &[u8]| i.len() < 2);
        let cache = QueryCache::new();
        let r = runner(&o, &cache, None, None, 1);
        assert!(r.accepts(b"a"));
        assert!(r.accepts(b"a"));
        assert!(!r.accepts(b"ab"));
        assert_eq!(r.unique_queries(), 2);
        assert_eq!(r.total_queries(), 3);
        assert!(!r.exhausted());
    }

    #[test]
    fn budget_exhaustion_fails_closed() {
        let o = FnOracle::new(|_: &[u8]| true);
        let cache = QueryCache::new();
        let r = runner(&o, &cache, Some(2), None, 1);
        assert!(r.accepts(b"1"));
        assert!(r.accepts(b"2"));
        // Third distinct query exceeds the budget: rejected.
        assert!(!r.accepts(b"3"));
        assert!(r.exhausted());
        // Cached answers stay available.
        assert!(r.accepts(b"1"));
        // Unbudgeted path still works.
        assert!(r.accepts_unbudgeted(b"4"));
    }

    #[test]
    fn unbudgeted_queries_do_not_consume_budget() {
        // Regression: the seed implementation compared the budget against
        // the *cache size*, so seed validation (unbudgeted) silently ate
        // distinct-query budget.
        let o = FnOracle::new(|_: &[u8]| true);
        let cache = QueryCache::new();
        let r = runner(&o, &cache, Some(2), None, 1);
        assert!(r.accepts_unbudgeted(b"seed-1"));
        assert!(r.accepts_unbudgeted(b"seed-2"));
        assert!(r.accepts_unbudgeted(b"seed-3"));
        // The full budget of 2 distinct budgeted queries remains.
        assert!(r.accepts(b"q1"));
        assert!(r.accepts(b"q2"));
        assert!(!r.accepts(b"q3"));
        assert!(r.exhausted());
        assert_eq!(r.unique_queries(), 5, "cache still holds seeds + budgeted");
    }

    #[test]
    fn time_limit_expires() {
        let o = FnOracle::new(|_: &[u8]| true);
        let cache = QueryCache::new();
        let r = runner(&o, &cache, None, Some(Duration::from_nanos(1)), 1);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!r.accepts(b"x"));
        assert!(r.exhausted());
        assert!(!r.was_cancelled());
    }

    #[test]
    fn cancellation_fails_closed_and_reports() {
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|_: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        });
        let cache = QueryCache::new();
        let token = CancelToken::new();
        let log = EventLog::new();
        let r = QueryRunner::new(
            &o,
            &cache,
            RunnerOptions {
                cancel: Some(&token),
                observer: Some(&log),
                ..RunnerOptions::default()
            },
        );
        assert!(r.accepts(b"before"));
        token.cancel();
        assert!(!r.accepts(b"after"), "cancelled runs answer false");
        assert!(!r.accepts(b"again"));
        assert!(r.exhausted(), "cancellation shares the fail-closed path");
        assert!(r.was_cancelled());
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no oracle calls after cancel");
        // Cached answers stay available, unbudgeted validation still works.
        assert!(r.accepts(b"before"));
        assert!(r.accepts_unbudgeted(b"seed"));
        let cancels = log.events().iter().filter(|e| matches!(e, SynthEvent::Cancelled)).count();
        assert_eq!(cancels, 1, "Cancelled is emitted exactly once");
    }

    #[test]
    fn cancellation_mid_batch_stops_querying() {
        let calls = AtomicUsize::new(0);
        let token = CancelToken::new();
        let token_in_oracle = token.clone();
        let o = FnOracle::new(move |_: &[u8]| {
            if calls.fetch_add(1, Ordering::Relaxed) + 1 >= 3 {
                token_in_oracle.cancel();
            }
            true
        });
        let cache = QueryCache::new();
        let r = QueryRunner::new(
            &o,
            &cache,
            RunnerOptions { cancel: Some(&token), ..RunnerOptions::default() },
        );
        let inputs: Vec<Vec<u8>> = (0..10u8).map(|b| vec![b]).collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        let verdicts = r.accepts_batch(&specs);
        assert!(r.was_cancelled());
        assert!(verdicts.iter().any(|&v| !v), "skipped misses answer false");
        assert!(r.unique_queries() < 10, "skipped misses are not cached");
    }

    #[test]
    fn batch_results_preserve_order_and_dedup() {
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|i: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            i.len().is_multiple_of(2)
        });
        for workers in [1, 4] {
            calls.store(0, Ordering::Relaxed);
            let cache = QueryCache::new();
            let r = runner(&o, &cache, None, None, workers);
            let checks =
                [spec(b"aa"), spec(b"b"), spec(b"aa"), spec(b"cccc"), spec(b"b"), spec(b"")];
            let verdicts = r.accepts_batch(&checks);
            assert_eq!(verdicts, vec![true, false, true, true, false, true]);
            assert_eq!(r.unique_queries(), 4, "workers={workers}");
            assert_eq!(calls.load(Ordering::Relaxed), 4, "duplicates reach oracle once");
            assert_eq!(r.total_queries(), 6);
        }
    }

    #[test]
    fn batch_emits_query_batch_event() {
        let o = FnOracle::new(|i: &[u8]| i.len().is_multiple_of(2));
        let cache = QueryCache::new();
        cache.insert(b"hit".to_vec(), false);
        let log = EventLog::new();
        let r = QueryRunner::new(
            &o,
            &cache,
            RunnerOptions { observer: Some(&log), ..RunnerOptions::default() },
        );
        let checks = [spec(b"hit"), spec(b"miss"), spec(b"miss"), spec(b"other")];
        r.accepts_batch(&checks);
        assert_eq!(log.events(), vec![SynthEvent::QueryBatch { checks: 4, cached: 1, posed: 2 }]);
    }

    #[test]
    fn batch_mixed_segments_concatenate() {
        let o = FnOracle::new(|i: &[u8]| i == b"<a>hi</a>");
        let cache = QueryCache::new();
        let r = runner(&o, &cache, None, None, 2);
        let (pre, mid, post) = (&b"<a>"[..], &b"hi"[..], &b"</a>"[..]);
        let checks = [CheckSpec::new(&[pre, mid, post]), CheckSpec::new(&[pre, post])];
        assert_eq!(r.accepts_batch(&checks), vec![true, false]);
        // The same strings by another segmentation hit the cache.
        let checks2 = [spec(b"<a>hi</a>"), spec(b"<a></a>")];
        assert_eq!(r.accepts_batch(&checks2), vec![true, false]);
        assert_eq!(r.unique_queries(), 2);
    }

    #[test]
    fn batch_budget_answers_false_beyond_limit() {
        let o = FnOracle::new(|_: &[u8]| true);
        let cache = QueryCache::new();
        let log = EventLog::new();
        let r = QueryRunner::new(
            &o,
            &cache,
            RunnerOptions {
                max_queries: Some(2),
                workers: 4,
                observer: Some(&log),
                ..RunnerOptions::default()
            },
        );
        let checks = [spec(b"1"), spec(b"2"), spec(b"3"), spec(b"1")];
        let verdicts = r.accepts_batch(&checks);
        // First two distinct checks fit the budget; the third fails closed;
        // the duplicate of "1" is answered from the batch's dedup set.
        assert_eq!(verdicts, vec![true, true, false, true]);
        assert!(r.exhausted());
        assert_eq!(r.unique_queries(), 2);
        let exhaustions =
            log.events().iter().filter(|e| matches!(e, SynthEvent::BudgetExhausted)).count();
        assert_eq!(exhaustions, 1, "BudgetExhausted is emitted exactly once");
    }

    #[test]
    fn deadline_expiring_mid_batch_stops_querying() {
        // Regression: the deadline must be honored between queries *inside*
        // a batch, not just at reservation time — a slow oracle must not
        // run an hour-long batch past a 30 ms limit.
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|_: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(20));
            true
        });
        let cache = QueryCache::new();
        let r = runner(&o, &cache, None, Some(Duration::from_millis(30)), 1);
        let inputs: Vec<Vec<u8>> = (0..10u8).map(|b| vec![b]).collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        let verdicts = r.accepts_batch(&specs);
        assert!(r.exhausted());
        assert!(calls.load(Ordering::Relaxed) < 10, "deadline did not stop the batch");
        // Skipped misses answer false and are not poisoned into the cache.
        assert!(verdicts.iter().any(|&v| !v));
        assert!(r.unique_queries() < 10);
    }

    #[test]
    fn batch_agrees_with_sequential_accepts() {
        let o = FnOracle::new(|i: &[u8]| i.iter().all(|&b| b == b'x'));
        let seq_cache = QueryCache::new();
        let par_cache = QueryCache::new();
        let seq = runner(&o, &seq_cache, None, None, 1);
        let par = runner(&o, &par_cache, None, None, 8);
        let inputs: Vec<Vec<u8>> =
            (0..64).map(|n| std::iter::repeat_n(b'x', n % 7).collect()).collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        let par_verdicts = par.accepts_batch(&specs);
        let seq_verdicts: Vec<bool> = inputs.iter().map(|i| seq.accepts(i)).collect();
        assert_eq!(par_verdicts, seq_verdicts);
        assert_eq!(par.unique_queries(), seq.unique_queries());
    }

    #[test]
    fn warm_cache_answers_whole_batch_without_oracle() {
        // The session-persistence property at the runner level: a cache
        // pre-populated with every check answers the batch with zero
        // oracle calls and zero new unique queries.
        let calls = AtomicUsize::new(0);
        let o = FnOracle::new(|_: &[u8]| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        });
        let cache = QueryCache::new();
        cache.insert(b"p".to_vec(), true);
        cache.insert(b"q".to_vec(), false);
        let r = runner(&o, &cache, Some(0), None, 2);
        // Budget of zero: any miss would fail, proving these are all hits.
        assert_eq!(r.accepts_batch(&[spec(b"p"), spec(b"q"), spec(b"p")]), vec![true, false, true]);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert!(!r.exhausted());
        assert_eq!(r.unique_queries(), 2);
    }

    #[test]
    fn runner_is_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<QueryRunner<'static>>();
    }

    /// In-process stand-in for a natively batching oracle (the pooled
    /// process oracle without the processes): records how misses arrive.
    struct BatchingOracle {
        batch_calls: AtomicUsize,
        single_calls: AtomicUsize,
        largest_batch: AtomicUsize,
    }

    impl BatchingOracle {
        fn new() -> Self {
            BatchingOracle {
                batch_calls: AtomicUsize::new(0),
                single_calls: AtomicUsize::new(0),
                largest_batch: AtomicUsize::new(0),
            }
        }
    }

    impl Oracle for BatchingOracle {
        fn accepts(&self, input: &[u8]) -> bool {
            self.single_calls.fetch_add(1, Ordering::Relaxed);
            input.len().is_multiple_of(2)
        }

        fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
            self.batch_calls.fetch_add(1, Ordering::Relaxed);
            self.largest_batch.fetch_max(inputs.len(), Ordering::Relaxed);
            inputs.iter().map(|i| Some(i.len().is_multiple_of(2))).collect()
        }

        fn native_batching(&self) -> bool {
            true
        }
    }

    #[test]
    fn native_batching_oracle_receives_whole_miss_sets() {
        let o = BatchingOracle::new();
        let cache = QueryCache::new();
        cache.insert(b"zz".to_vec(), true); // a hit that must not be posed
        let r = runner(&o, &cache, None, None, 8);
        let inputs: Vec<Vec<u8>> = (0..40u8).map(|b| vec![b'x'; b as usize % 5]).collect();
        let mut checks: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        checks.push(spec(b"zz"));
        let verdicts = r.accepts_batch(&checks);
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(verdicts[i], input.len() % 2 == 0, "index {i}");
        }
        assert!(*verdicts.last().unwrap(), "cache hit answered");
        // The distinct misses (lengths 0..5 → 5 distinct strings) arrived
        // as ONE batch call, not per-query or per-thread.
        assert_eq!(o.batch_calls.load(Ordering::Relaxed), 1);
        assert_eq!(o.largest_batch.load(Ordering::Relaxed), 5);
        assert_eq!(o.single_calls.load(Ordering::Relaxed), 0);
        assert_eq!(r.unique_queries(), 6);
    }

    #[test]
    fn native_batching_matches_steal_dispatch_results() {
        // The same miss set through both strategies must produce the same
        // verdicts and the same cached set.
        let native = BatchingOracle::new();
        let plain = FnOracle::new(|i: &[u8]| i.len().is_multiple_of(2));
        let native_cache = QueryCache::new();
        let plain_cache = QueryCache::new();
        let rn = runner(&native, &native_cache, None, None, 4);
        let rp = runner(&plain, &plain_cache, None, None, 4);
        let inputs: Vec<Vec<u8>> = (0..64u16).map(|b| vec![b'y'; (b % 9) as usize]).collect();
        let checks: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        assert_eq!(rn.accepts_batch(&checks), rp.accepts_batch(&checks));
        assert_eq!(rn.unique_queries(), rp.unique_queries());
        assert_eq!(rn.total_queries(), rp.total_queries());
    }

    #[test]
    fn cancellation_skips_remaining_native_sub_batches() {
        // A cancel flipped during the batch is honored at the next
        // sub-batch boundary: remaining misses answer false and are not
        // cached.
        struct CancellingOracle {
            token: CancelToken,
        }
        impl Oracle for CancellingOracle {
            fn accepts(&self, _input: &[u8]) -> bool {
                true
            }
            fn accepts_batch_checked(&self, inputs: &[&[u8]]) -> Vec<Option<bool>> {
                self.token.cancel();
                inputs.iter().map(|_| Some(true)).collect()
            }
            fn native_batching(&self) -> bool {
                true
            }
        }
        let token = CancelToken::new();
        let o = CancellingOracle { token: token.clone() };
        let cache = QueryCache::new();
        let r = QueryRunner::new(
            &o,
            &cache,
            RunnerOptions { cancel: Some(&token), ..RunnerOptions::default() },
        );
        // More misses than one sub-batch so at least one boundary exists.
        let inputs: Vec<Vec<u8>> = (0..(super::NATIVE_DISPATCH_SUB_BATCH + 10) as u32)
            .map(|b| b.to_le_bytes().to_vec())
            .collect();
        let specs: Vec<CheckSpec<'_>> = inputs.iter().map(|i| spec(i)).collect();
        let verdicts = r.accepts_batch(&specs);
        assert!(r.was_cancelled());
        assert_eq!(
            verdicts.iter().filter(|&&v| v).count(),
            super::NATIVE_DISPATCH_SUB_BATCH,
            "exactly the first sub-batch was answered"
        );
        assert_eq!(
            r.unique_queries(),
            super::NATIVE_DISPATCH_SUB_BATCH,
            "skipped misses not cached"
        );
    }

    #[test]
    fn check_spec_write_into_reuses_buffer() {
        let ctx = Context { before: b"<a>".to_vec(), after: b"</a>".to_vec() };
        let s = CheckSpec::wrapped(&ctx, &[b"h", b"i"]);
        let mut buf = Vec::new();
        s.write_into(&mut buf);
        assert_eq!(buf, b"<a>hi</a>");
        let cap = buf.capacity();
        buf.clear();
        s.write_into(&mut buf);
        assert_eq!(buf, b"<a>hi</a>");
        assert_eq!(buf.capacity(), cap, "no reallocation on reuse");
    }

    /// Query string for key id `k`: lengths 2..=27 cover whole 8-byte words
    /// and every tail length of the hash.
    fn prop_key(k: u8) -> Vec<u8> {
        format!("q{k:02}").repeat(usize::from(k % 9) + 1).into_bytes()[1..].to_vec()
    }

    fn prop_oracle(q: &[u8]) -> bool {
        q.iter().map(|&b| u32::from(b)).sum::<u32>() % 3 != 0
    }

    /// What the pre-`Wave` engine did, written straight-line: each planner
    /// folds cache hits and its own repeats and posts the rest; the runner
    /// then takes the posted checks in order through cache → dedup →
    /// budget → oracle. Returns (verdict per planned check, total, unique,
    /// cached, posed).
    fn prop_model(
        pre: &[(u8, bool)],
        planners: &[Vec<u8>],
        budget: usize,
    ) -> (Vec<bool>, usize, usize, usize, usize) {
        let mut cache: HashMap<Vec<u8>, bool> = HashMap::new();
        for &(k, v) in pre {
            cache.entry(prop_key(k)).or_insert(v);
        }
        let mut posted: Vec<Vec<u8>> = Vec::new();
        let mut answers: Vec<Result<bool, Vec<u8>>> = Vec::new();
        for planner in planners {
            let mut mine: Vec<Vec<u8>> = Vec::new();
            for &k in planner {
                let q = prop_key(k);
                if let Some(&v) = cache.get(&q) {
                    answers.push(Ok(v));
                    continue;
                }
                if !mine.contains(&q) {
                    mine.push(q.clone());
                    posted.push(q.clone());
                }
                answers.push(Err(q));
            }
        }
        let (mut cached, mut posed, mut used) = (0, 0, 0);
        let mut answered: HashMap<Vec<u8>, bool> = HashMap::new();
        for q in &posted {
            if cache.contains_key(q) {
                cached += 1;
            } else if !answered.contains_key(q) && used < budget {
                used += 1;
                posed += 1;
                answered.insert(q.clone(), prop_oracle(q));
            }
        }
        cache.extend(answered.clone());
        let verdicts = answers
            .into_iter()
            .map(|a| a.unwrap_or_else(|q| answered.get(&q).copied().unwrap_or(false)))
            .collect();
        (verdicts, posted.len(), cache.len(), cached, posed)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn wave_matches_the_straight_line_model(
            pre in proptest::collection::vec((0u8..16, proptest::prelude::any::<bool>()), 0..6),
            planners in proptest::collection::vec(proptest::collection::vec(0u8..16, 0..24), 1..4),
            budget in 0usize..12,
            four_workers in proptest::prelude::any::<bool>(),
        ) {
            let oracle = FnOracle::new(prop_oracle);
            let cache = QueryCache::new();
            for &(k, v) in &pre {
                cache.insert(prop_key(k), v);
            }
            let log = EventLog::new();
            let r = QueryRunner::new(
                &oracle,
                &cache,
                RunnerOptions {
                    max_queries: Some(budget),
                    workers: if four_workers { 4 } else { 1 },
                    observer: Some(&log),
                    ..RunnerOptions::default()
                },
            );
            let keys: Vec<Vec<Vec<u8>>> =
                planners.iter().map(|p| p.iter().map(|&k| prop_key(k)).collect()).collect();
            let mut wave = Wave::default();
            let mut resolved = Vec::new();
            for planner in &keys {
                wave.next_planner();
                for q in planner {
                    let res = wave.resolve(&spec(q), &cache);
                    if let Resolved::Slot { repeat: false, .. } = res {
                        wave.count(res);
                    }
                    resolved.push(res);
                }
            }
            r.pose(&mut wave);
            let verdicts: Vec<bool> = resolved
                .iter()
                .map(|&res| match res {
                    Resolved::Cached(v) => v,
                    Resolved::Slot { slot, .. } => wave.verdict(slot),
                })
                .collect();
            let (want, total, unique, cached, posed) = prop_model(&pre, &planners, budget);
            proptest::prop_assert_eq!(verdicts, want);
            proptest::prop_assert_eq!(r.total_queries(), total);
            proptest::prop_assert_eq!(r.unique_queries(), unique);
            proptest::prop_assert_eq!(
                log.events()
                    .into_iter()
                    .filter(|e| matches!(e, SynthEvent::QueryBatch { .. }))
                    .collect::<Vec<_>>(),
                vec![SynthEvent::QueryBatch { checks: total, cached, posed }]
            );

            // `accepts_batch` counts every check it is handed: the model
            // with each check as its own planner (no folds of repeats),
            // plus the cache hits as cached checks.
            let flat: Vec<Vec<u8>> = keys.concat();
            let cache2 = QueryCache::new();
            for &(k, v) in &pre {
                cache2.insert(prop_key(k), v);
            }
            let r2 = runner(&oracle, &cache2, Some(budget), None, if four_workers { 4 } else { 1 });
            let specs: Vec<CheckSpec<'_>> = flat.iter().map(|q| spec(q)).collect();
            let got = r2.accepts_batch(&specs);
            let singles: Vec<Vec<u8>> = planners.concat().into_iter().map(|k| vec![k]).collect();
            let (want2, ..) = prop_model(&pre, &singles, budget);
            proptest::prop_assert_eq!(got, want2);
            proptest::prop_assert_eq!(r2.total_queries(), flat.len());
            proptest::prop_assert_eq!(r2.unique_queries(), cache2.len());
        }
    }
}
