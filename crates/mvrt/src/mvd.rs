//! `mvd` — a fault-tolerant commit control plane over [`SmpMachine`].
//!
//! The quiesce layer ([`crate::quiesce`]) answers "how do I run *one*
//! commit safely while vCPUs execute". This module answers the next
//! question a long-running system asks: what does the *driver* of those
//! commits look like when flips arrive faster than commits complete,
//! when some commits fault persistently, and when a quiesce protocol
//! stops converging on a degraded machine?
//!
//! [`CommitDaemon`] is that driver, deliberately built as a plain
//! deterministic state machine (no threads, no clocks): the host decides
//! when to [`CommitDaemon::step`] it, so every schedule is replayable
//! under a [`mvvm::FaultPlan`]. It owns:
//!
//! * **Queued commits with coalescing.** Requests land in two lanes
//!   (normal and priority — reverts and security flips preempt feature
//!   flips). N pending flips of the same switch collapse into one
//!   queued commit whose waiters all share the outcome; the flip value
//!   is last-writer-wins, exactly like a memory cell. A priority
//!   request coalescing onto a queued normal entry *escalates* it.
//! * **Deadlines.** Admission stamps the daemon's epoch; an entry whose
//!   ttl elapses before it is popped is shed un-run. Epochs advance one
//!   per processed entry, so deadlines are deterministic.
//! * **Retry with backoff.** Each attempt runs under the daemon's
//!   [`RetryPolicy`] (installed into the runtime for the duration of
//!   the attempt, restored after), so transient patch faults heal with
//!   jittered exponential backoff charged to
//!   [`crate::PatchTiming::backoff`].
//! * **Quarantine.** An operation that faults
//!   [`MvdConfig::quarantine_after`] times *consecutively* is parked
//!   with its full [`RtError`] chain instead of wedging the queue;
//!   later requests for it fail fast at submit until it is
//!   [`CommitDaemon::release`]d.
//! * **Graceful degradation.** Under [`CommitStrategy::Breakpoint`],
//!   after [`MvdConfig::degrade_after`] breakpoint failures within one
//!   request the daemon falls back to [`CommitStrategy::StopMachine`]
//!   for that commit — correctness over latency — and emits
//!   `strategy_degraded`. While degraded, the first attempt of each new
//!   request probes breakpoint again; a probe success heals the daemon
//!   back to its configured protocol.
//! * **Backpressure.** The queue is bounded: when full, the oldest
//!   normal-lane entry is shed (its waiters see [`MvdOutcome::Shed`]);
//!   if only priority entries remain, the *new* request is rejected.
//!
//! The watchdog story is layered: the quiesce protocols already bound
//! their rendezvous/drain rounds, the retry policy bounds attempts, and
//! the daemon bounds queue depth and entry lifetime (deadlines) — so no
//! single faulting assignment can stall the control plane forever.
//!
//! Every decision point is traced ([`EventKind::QueueAdmit`],
//! [`EventKind::Coalesced`], [`EventKind::Shed`],
//! [`EventKind::Quarantined`], [`EventKind::StrategyDegraded`]) through
//! the runtime's ring, so a truncated post-mortem trace still shows
//! *why* a flip never landed.

use crate::error::RtError;
use crate::quiesce::{CommitStrategy, QuiesceReport};
use crate::runtime::Runtime;
use crate::txn::{RetryPolicy, TxnOp};
use mvmetrics::residency::SwitchHistory;
use mvmetrics::{Counter, Gauge, Registry};
use mvtrace::EventKind;
use mvvm::SmpMachine;
use std::collections::{HashMap, VecDeque};

/// Ticket handed back by [`CommitDaemon::submit`]; outcomes are
/// retrieved by id from [`CommitDaemon::take_completions`].
pub type RequestId = u64;

/// Which queue a request lands in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Ordinary feature flips: FIFO, shed first under backpressure.
    Normal,
    /// Reverts and security flips: popped before any normal entry,
    /// never shed to make room.
    Priority,
}

impl Lane {
    /// Stable lane name as it appears in `queue_admit` trace events.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Normal => "normal",
            Lane::Priority => "priority",
        }
    }
}

/// What a queued request asks the control plane to commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MvdOp {
    /// Set the switch at `switch` to `value`, then commit its
    /// referencing functions (`multiverse_commit_refs`).
    Flip {
        /// Address of the configuration switch.
        switch: u64,
        /// New value; last writer wins under coalescing.
        value: i64,
    },
    /// Whole-image `multiverse_commit()`.
    CommitAll,
    /// Whole-image `multiverse_revert()`.
    RevertAll,
}

impl MvdOp {
    /// The key reported in trace events: the switch address for flips,
    /// 0 for whole-image operations.
    pub fn key(self) -> u64 {
        match self {
            MvdOp::Flip { switch, .. } => switch,
            MvdOp::CommitAll | MvdOp::RevertAll => 0,
        }
    }

    /// Coalescing identity: two requests merge iff they are the same
    /// kind of operation on the same switch. The flip *value* is
    /// excluded — that is exactly what last-writer-wins overwrites.
    fn coalesce_key(self) -> (u8, u64) {
        match self {
            MvdOp::Flip { switch, .. } => (0, switch),
            MvdOp::CommitAll => (1, 0),
            MvdOp::RevertAll => (2, 0),
        }
    }
}

/// Tuning knobs of the control plane.
#[derive(Clone, Copy, Debug)]
pub struct MvdConfig {
    /// Bound on queued entries across both lanes. When full, the
    /// oldest normal entry is shed; if none exists, new requests are
    /// rejected.
    pub capacity: usize,
    /// Commit attempts per processed entry before it is reported
    /// failed (at least 1 is always run).
    pub max_attempts: u32,
    /// Consecutive failed attempts (across entries, per operation)
    /// after which the operation is quarantined. Should exceed
    /// [`MvdConfig::degrade_after`], or a breakpoint-only fault will
    /// quarantine before the stop-machine fallback gets its turn.
    pub quarantine_after: u32,
    /// Breakpoint-quiesce failures within one request after which the
    /// daemon falls back to stop-machine for that commit. Only
    /// meaningful when [`MvdConfig::strategy`] is
    /// [`CommitStrategy::Breakpoint`].
    pub degrade_after: u32,
    /// Default entry lifetime in epochs (0 = entries never expire).
    /// One epoch elapses per processed entry.
    pub default_ttl: u64,
    /// Preferred quiesce protocol.
    pub strategy: CommitStrategy,
    /// Transaction-level retry/backoff installed for the duration of
    /// each attempt.
    pub retry: RetryPolicy,
}

impl Default for MvdConfig {
    fn default() -> Self {
        MvdConfig {
            capacity: 64,
            max_attempts: 3,
            quarantine_after: 3,
            degrade_after: 2,
            default_ttl: 0,
            strategy: CommitStrategy::default(),
            retry: RetryPolicy::default(),
        }
    }
}

/// How a request ended.
#[derive(Clone, Debug)]
pub enum MvdOutcome {
    /// The commit landed; the report is shared by every coalesced
    /// waiter.
    Committed(QuiesceReport),
    /// Every attempt failed; the final error (with its `source()`
    /// chain) is attached.
    Failed(RtError),
    /// The operation is quarantined — either it was parked while this
    /// request waited, or the request failed fast at submit. The
    /// triggering error lives in the [`QuarantineEntry`].
    Quarantined,
    /// Shed by backpressure before running.
    Shed,
    /// Its deadline elapsed before it was popped.
    Expired,
    /// Rejected at submit: the queue was full of priority entries.
    Rejected,
}

impl MvdOutcome {
    /// `true` for [`MvdOutcome::Committed`].
    pub fn is_committed(&self) -> bool {
        matches!(self, MvdOutcome::Committed(_))
    }
}

/// A finished request: the ticket, what it asked for, and how it ended.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Ticket returned by the submit call.
    pub id: RequestId,
    /// The operation as it ran (a coalesced flip carries the winning
    /// value, which may differ from what this waiter submitted).
    pub op: MvdOp,
    /// How it ended.
    pub outcome: MvdOutcome,
}

/// A parked operation and the evidence that parked it.
#[derive(Clone, Debug)]
pub struct QuarantineEntry {
    /// The operation (with the last value it tried, for flips).
    pub op: MvdOp,
    /// Consecutive failed attempts at parking time.
    pub failures: u32,
    /// The final error; its [`std::error::Error::source`] chain names
    /// the commit phase and root cause.
    pub error: RtError,
    /// Daemon epoch when it was parked.
    pub since_epoch: u64,
}

/// Control-plane counters, all monotone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MvdStats {
    /// Requests submitted (every submit call).
    pub submitted: u64,
    /// Requests that created a new queue entry.
    pub admitted: u64,
    /// Requests merged into an already-queued entry.
    pub coalesced: u64,
    /// Entries shed by backpressure.
    pub shed: u64,
    /// Entries shed because their deadline elapsed.
    pub expired: u64,
    /// Requests rejected because the queue was full of priority
    /// entries.
    pub rejected: u64,
    /// Requests failed fast against an existing quarantine.
    pub fast_failed: u64,
    /// Entries that committed.
    pub committed: u64,
    /// Entries that exhausted their attempts.
    pub failed: u64,
    /// Operations parked in quarantine.
    pub quarantined: u64,
    /// Breakpoint→stop-machine fallbacks taken.
    pub degraded: u64,
    /// Degraded-mode exits (a breakpoint probe succeeded again).
    pub healed: u64,
    /// Individual commit attempts run.
    pub attempts: u64,
}

/// A registered counter plus the `MvdStats` field it mirrors.
type StatCounter = (Counter, fn(&MvdStats) -> u64);

/// Registered handles for the `mv_mvd_*` metric family: one counter
/// per [`MvdStats`] field, a queue-depth gauge and a coalescing-ratio
/// gauge.
///
/// The counters are synced from the daemon's own [`MvdStats`] with
/// `store_max` after every submit and step — the registry mirrors the
/// single source of truth instead of maintaining a second increment
/// stream, so the two can never disagree.
pub struct MvdMetrics {
    counters: [StatCounter; 13],
    queue_depth: Gauge,
    coalesce_ratio: Gauge,
}

impl std::fmt::Debug for MvdMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvdMetrics").finish_non_exhaustive()
    }
}

impl MvdMetrics {
    /// Registers the control-plane metric family in `registry`.
    pub fn new(registry: &Registry) -> MvdMetrics {
        let c =
            |name: &str, help: &str, get: fn(&MvdStats) -> u64| (registry.counter(name, help), get);
        MvdMetrics {
            counters: [
                c("mv_mvd_submitted_total", "Requests submitted", |s| {
                    s.submitted
                }),
                c(
                    "mv_mvd_admitted_total",
                    "Requests that created a queue entry",
                    |s| s.admitted,
                ),
                c(
                    "mv_mvd_coalesced_total",
                    "Requests merged into a queued entry",
                    |s| s.coalesced,
                ),
                c("mv_mvd_shed_total", "Entries shed by backpressure", |s| {
                    s.shed
                }),
                c(
                    "mv_mvd_expired_total",
                    "Entries expired past their deadline",
                    |s| s.expired,
                ),
                c(
                    "mv_mvd_rejected_total",
                    "Requests rejected by a priority-full queue",
                    |s| s.rejected,
                ),
                c(
                    "mv_mvd_fast_failed_total",
                    "Requests failed fast against quarantine",
                    |s| s.fast_failed,
                ),
                c("mv_mvd_committed_total", "Entries committed", |s| {
                    s.committed
                }),
                c(
                    "mv_mvd_failed_total",
                    "Entries that exhausted their attempts",
                    |s| s.failed,
                ),
                c(
                    "mv_mvd_quarantined_total",
                    "Operations parked in quarantine",
                    |s| s.quarantined,
                ),
                c(
                    "mv_mvd_degraded_total",
                    "Breakpoint-to-stop-machine fallbacks",
                    |s| s.degraded,
                ),
                c(
                    "mv_mvd_healed_total",
                    "Degraded-mode exits by probe success",
                    |s| s.healed,
                ),
                c("mv_mvd_attempts_total", "Commit attempts run", |s| {
                    s.attempts
                }),
            ],
            queue_depth: registry.gauge(
                "mv_mvd_queue_depth",
                "Entries waiting across both daemon lanes",
            ),
            coalesce_ratio: registry.gauge(
                "mv_mvd_coalesce_ratio",
                "Fraction of submitted requests merged into queued entries",
            ),
        }
    }

    /// Syncs the registry to the daemon's counters (absolute,
    /// idempotent).
    fn sync(&self, stats: &MvdStats, pending: usize) {
        for (counter, get) in &self.counters {
            counter.store_max(get(stats));
        }
        self.queue_depth.set(pending as f64);
        let ratio = if stats.submitted == 0 {
            0.0
        } else {
            stats.coalesced as f64 / stats.submitted as f64
        };
        self.coalesce_ratio.set(ratio);
    }
}

/// A queued entry: one pending commit and everyone waiting on it.
#[derive(Clone, Debug)]
struct Entry {
    op: MvdOp,
    waiters: Vec<RequestId>,
    /// Absolute epoch after which the entry is expired, if any.
    deadline: Option<u64>,
}

/// The commit control plane. See the module docs for the protocol; see
/// `tests/mvd_chaos.rs` for the fault-sweep proof obligations.
///
/// The daemon holds no machine state — the runtime and SMP machine are
/// borrowed per call — so a host embeds it next to whatever owns the
/// world (e.g. `SmpWorld` in the `multiverse` crate).
#[derive(Debug, Default)]
pub struct CommitDaemon {
    config: MvdConfig,
    normal: VecDeque<Entry>,
    priority: VecDeque<Entry>,
    quarantine: HashMap<(u8, u64), QuarantineEntry>,
    /// Consecutive failed attempts per operation, reset by any success.
    consecutive: HashMap<(u8, u64), u32>,
    completions: Vec<Completion>,
    stats: MvdStats,
    /// Advances once per processed entry; the clock deadlines run on.
    epoch: u64,
    next_id: RequestId,
    /// Set while breakpoint quiesce is considered broken; cleared by a
    /// successful breakpoint probe.
    degraded: bool,
    /// Registry mirror of [`MvdStats`], synced after every submit and
    /// step (see [`CommitDaemon::enable_metrics`]).
    metrics: Option<MvdMetrics>,
    /// Switch flip timeline, recorded at the single point an entry
    /// commits (see [`CommitDaemon::enable_history`]).
    history: Option<SwitchHistory>,
}

impl CommitDaemon {
    /// A daemon with the given tuning.
    pub fn new(config: MvdConfig) -> CommitDaemon {
        CommitDaemon {
            config,
            ..CommitDaemon::default()
        }
    }

    /// Queued entries across both lanes.
    pub fn pending(&self) -> usize {
        self.normal.len() + self.priority.len()
    }

    /// Current epoch (entries processed so far).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MvdStats {
        self.stats
    }

    /// `true` while the daemon routes commits away from its configured
    /// breakpoint protocol.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// The tuning this daemon runs with.
    pub fn config(&self) -> &MvdConfig {
        &self.config
    }

    /// Parked operations, in no particular order.
    pub fn quarantined(&self) -> impl Iterator<Item = &QuarantineEntry> {
        self.quarantine.values()
    }

    /// `true` if requests for this operation currently fail fast.
    pub fn is_quarantined(&self, op: MvdOp) -> bool {
        self.quarantine.contains_key(&op.coalesce_key())
    }

    /// Releases a parked operation (an operator acknowledged the fault
    /// and wants the control plane to try again), returning the
    /// evidence. Also forgets its consecutive-failure count.
    pub fn release(&mut self, op: MvdOp) -> Option<QuarantineEntry> {
        let ck = op.coalesce_key();
        self.consecutive.remove(&ck);
        self.quarantine.remove(&ck)
    }

    /// Drains every finished request recorded since the last call.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Registers the `mv_mvd_*` metric family in `registry` and keeps
    /// it synced with [`MvdStats`] after every submit and step. The
    /// sync stores absolute values, so the registry and
    /// [`CommitDaemon::stats`] can never disagree.
    pub fn enable_metrics(&mut self, registry: &Registry) {
        let m = MvdMetrics::new(registry);
        m.sync(&self.stats, self.pending());
        self.metrics = Some(m);
    }

    /// Installs a [`SwitchHistory`] (with its switches already
    /// registered). From now on every *committed* flip entry records
    /// one timeline event — coalesced waiters share the single entry,
    /// so the history's flip count equals the number of committed flip
    /// commits, not the number of submitted requests.
    pub fn enable_history(&mut self, history: SwitchHistory) {
        self.history = Some(history);
    }

    /// The flip timeline recorded so far, if enabled.
    pub fn history(&self) -> Option<&SwitchHistory> {
        self.history.as_ref()
    }

    /// Detaches and returns the flip timeline.
    pub fn take_history(&mut self) -> Option<SwitchHistory> {
        self.history.take()
    }

    /// Submits with the configured default ttl. Returns the ticket;
    /// the outcome appears in [`CommitDaemon::take_completions`] once
    /// decided (immediately, for fast-fail/reject).
    pub fn submit(&mut self, rt: &mut Runtime, op: MvdOp, lane: Lane) -> RequestId {
        let ttl = match self.config.default_ttl {
            0 => None,
            t => Some(t),
        };
        self.submit_with_ttl(rt, op, lane, ttl)
    }

    /// Submits with an explicit per-request ttl (`None` = never
    /// expires), overriding [`MvdConfig::default_ttl`].
    pub fn submit_with_ttl(
        &mut self,
        rt: &mut Runtime,
        op: MvdOp,
        lane: Lane,
        ttl: Option<u64>,
    ) -> RequestId {
        let id = self.submit_inner(rt, op, lane, ttl);
        self.sync_metrics();
        id
    }

    fn submit_inner(
        &mut self,
        rt: &mut Runtime,
        op: MvdOp,
        lane: Lane,
        ttl: Option<u64>,
    ) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        self.stats.submitted += 1;

        // Fail fast against quarantine: the queue never wedges behind
        // an operation known to fault.
        if self.is_quarantined(op) {
            self.stats.fast_failed += 1;
            self.completions.push(Completion {
                id,
                op,
                outcome: MvdOutcome::Quarantined,
            });
            return id;
        }

        let deadline = ttl.map(|t| self.epoch + t);
        if self.coalesce(rt, op, lane, id, deadline) {
            return id;
        }

        // Admission under backpressure: shed the oldest normal entry,
        // or reject the newcomer if only priority work is queued.
        if self.pending() >= self.config.capacity.max(1) {
            match self.normal.pop_front() {
                Some(old) => {
                    self.stats.shed += 1;
                    rt.emit(|| EventKind::Shed { key: old.op.key() });
                    self.complete_all(old, MvdOutcome::Shed);
                }
                None => {
                    self.stats.rejected += 1;
                    self.completions.push(Completion {
                        id,
                        op,
                        outcome: MvdOutcome::Rejected,
                    });
                    return id;
                }
            }
        }

        self.stats.admitted += 1;
        rt.emit(|| EventKind::QueueAdmit {
            lane: lane.name(),
            key: op.key(),
        });
        let entry = Entry {
            op,
            waiters: vec![id],
            deadline,
        };
        match lane {
            Lane::Normal => self.normal.push_back(entry),
            Lane::Priority => self.priority.push_back(entry),
        }
        id
    }

    /// Merges `op` into an already-queued entry for the same
    /// operation, if one exists. Last writer wins for flip values; a
    /// priority submit escalates a normal entry; the later deadline
    /// wins (a fresh request keeps the merged entry alive).
    fn coalesce(
        &mut self,
        rt: &mut Runtime,
        op: MvdOp,
        lane: Lane,
        id: RequestId,
        deadline: Option<u64>,
    ) -> bool {
        let ck = op.coalesce_key();
        let in_priority = self.priority.iter().position(|e| e.op.coalesce_key() == ck);
        let in_normal = self.normal.iter().position(|e| e.op.coalesce_key() == ck);
        let entry = match (in_priority, in_normal) {
            (Some(i), _) => &mut self.priority[i],
            (None, Some(i)) => &mut self.normal[i],
            (None, None) => return false,
        };
        entry.op = op;
        entry.waiters.push(id);
        entry.deadline = match (entry.deadline, deadline) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        let waiters = entry.waiters.len() as u64;
        self.stats.coalesced += 1;
        rt.emit(|| EventKind::Coalesced {
            key: op.key(),
            waiters,
        });
        if lane == Lane::Priority {
            if let Some(i) = in_normal {
                if in_priority.is_none() {
                    let escalated = self.normal.remove(i).expect("index from position");
                    self.priority.push_back(escalated);
                }
            }
        }
        true
    }

    /// Processes the next queued entry (priority lane first). Returns
    /// `false` when both lanes are empty. One call advances the epoch
    /// by one.
    pub fn step(&mut self, rt: &mut Runtime, smp: &mut SmpMachine) -> bool {
        let progressed = self.step_inner(rt, smp);
        if progressed {
            self.sync_metrics();
        }
        progressed
    }

    fn step_inner(&mut self, rt: &mut Runtime, smp: &mut SmpMachine) -> bool {
        let Some(entry) = self
            .priority
            .pop_front()
            .or_else(|| self.normal.pop_front())
        else {
            return false;
        };
        self.epoch += 1;
        if entry.deadline.is_some_and(|d| self.epoch > d) {
            self.stats.expired += 1;
            rt.emit(|| EventKind::Shed {
                key: entry.op.key(),
            });
            self.complete_all(entry, MvdOutcome::Expired);
            return true;
        }
        // An earlier entry this pump may have quarantined the
        // operation after this request was admitted.
        if self.is_quarantined(entry.op) {
            self.stats.fast_failed += 1;
            self.complete_all(entry, MvdOutcome::Quarantined);
            return true;
        }
        self.process(rt, smp, entry);
        true
    }

    /// Steps until both lanes are empty; returns entries processed.
    /// The queue always drains: every attempt is bounded by the
    /// quiesce round budget and the retry policy, and persistent
    /// faulters leave through quarantine.
    pub fn drain(&mut self, rt: &mut Runtime, smp: &mut SmpMachine) -> usize {
        let mut n = 0;
        while self.step(rt, smp) {
            n += 1;
        }
        n
    }

    /// Runs one entry's attempt ladder to an outcome.
    fn process(&mut self, rt: &mut Runtime, smp: &mut SmpMachine, entry: Entry) {
        let ck = entry.op.coalesce_key();
        let mut consecutive = self.consecutive.get(&ck).copied().unwrap_or(0);
        let mut bp_failures = 0u32;
        let mut degraded_this_entry = false;
        let mut last_err: Option<RtError> = None;
        let mut attempts_left = self.config.max_attempts.max(1);

        while attempts_left > 0 && consecutive < self.config.quarantine_after.max(1) {
            attempts_left -= 1;
            self.stats.attempts += 1;
            let strategy = self.pick_strategy(rt, bp_failures, &mut degraded_this_entry);
            match Self::run_once(&self.config, rt, smp, entry.op, strategy) {
                Ok(report) => {
                    self.consecutive.remove(&ck);
                    if degraded_this_entry {
                        // Landed via the fallback: breakpoint is
                        // considered broken until a probe heals it.
                        self.degraded = true;
                    } else if self.degraded && strategy == self.config.strategy {
                        // The heal probe succeeded on the configured
                        // protocol: leave degraded mode.
                        self.degraded = false;
                        self.stats.healed += 1;
                    }
                    self.stats.committed += 1;
                    // The single point a flip lands: one timeline
                    // entry per committed flip, regardless of how many
                    // waiters coalesced onto it — so the history's
                    // flip count reconciles exactly with the committed
                    // counter.
                    if let MvdOp::Flip { switch, value } = entry.op {
                        if let Some(h) = self.history.as_mut() {
                            h.record_flip(switch, value, self.epoch, self.stats.committed);
                        }
                    }
                    self.complete_all(entry, MvdOutcome::Committed(report));
                    return;
                }
                Err(e) => {
                    consecutive += 1;
                    if strategy == CommitStrategy::Breakpoint {
                        bp_failures += 1;
                    }
                    last_err = Some(e);
                }
            }
        }

        self.consecutive.insert(ck, consecutive);
        self.stats.failed += 1;
        let err = last_err.expect("at least one attempt ran");
        if consecutive >= self.config.quarantine_after.max(1) {
            self.stats.quarantined += 1;
            rt.emit(|| EventKind::Quarantined {
                key: entry.op.key(),
                failures: u64::from(consecutive),
            });
            self.quarantine.insert(
                ck,
                QuarantineEntry {
                    op: entry.op,
                    failures: consecutive,
                    error: err.clone(),
                    since_epoch: self.epoch,
                },
            );
        }
        self.complete_all(entry, MvdOutcome::Failed(err));
    }

    /// Chooses the protocol for the next attempt and emits
    /// `strategy_degraded` on the first fallback of an entry.
    ///
    /// With a stop-machine configuration this is the identity. Under
    /// breakpoint: fall back once `degrade_after` breakpoint attempts
    /// of this entry failed, or — while the daemon is already degraded
    /// — as soon as the entry's single probe attempt failed.
    fn pick_strategy(
        &mut self,
        rt: &mut Runtime,
        bp_failures: u32,
        degraded_this_entry: &mut bool,
    ) -> CommitStrategy {
        if self.config.strategy != CommitStrategy::Breakpoint {
            return self.config.strategy;
        }
        let fall_back =
            bp_failures >= self.config.degrade_after.max(1) || (self.degraded && bp_failures >= 1);
        if !fall_back {
            return CommitStrategy::Breakpoint;
        }
        if !*degraded_this_entry {
            *degraded_this_entry = true;
            self.stats.degraded += 1;
            rt.emit(|| EventKind::StrategyDegraded {
                from: CommitStrategy::Breakpoint.name(),
                to: CommitStrategy::StopMachine.name(),
            });
        }
        CommitStrategy::StopMachine
    }

    /// One attempt: write the flip value (if any) and run the quiesced
    /// transaction under the daemon's retry policy.
    fn run_once(
        config: &MvdConfig,
        rt: &mut Runtime,
        smp: &mut SmpMachine,
        op: MvdOp,
        strategy: CommitStrategy,
    ) -> Result<QuiesceReport, RtError> {
        let saved = rt.retry;
        rt.retry = config.retry;
        let result = match op {
            MvdOp::Flip { switch, value } => rt
                .write_switch(&mut smp.machine, switch, value)
                .and_then(|()| rt.run_quiesced(smp, TxnOp::CommitRefs(switch), strategy)),
            MvdOp::CommitAll => rt.run_quiesced(smp, TxnOp::CommitAll, strategy),
            MvdOp::RevertAll => rt.run_quiesced(smp, TxnOp::RevertAll, strategy),
        };
        rt.retry = saved;
        result
    }

    /// Pushes the current counters into the registry, if enabled.
    fn sync_metrics(&mut self) {
        if let Some(m) = &self.metrics {
            m.sync(&self.stats, self.normal.len() + self.priority.len());
        }
    }

    /// Records the same outcome for every waiter of an entry.
    fn complete_all(&mut self, entry: Entry, outcome: MvdOutcome) {
        let op = entry.op;
        for id in entry.waiters {
            self.completions.push(Completion {
                id,
                op,
                outcome: outcome.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_identity_ignores_flip_value_but_not_kind() {
        let a = MvdOp::Flip {
            switch: 0x9000,
            value: 1,
        };
        let b = MvdOp::Flip {
            switch: 0x9000,
            value: 7,
        };
        let c = MvdOp::Flip {
            switch: 0x9008,
            value: 1,
        };
        assert_eq!(a.coalesce_key(), b.coalesce_key());
        assert_ne!(a.coalesce_key(), c.coalesce_key());
        assert_ne!(
            MvdOp::CommitAll.coalesce_key(),
            MvdOp::RevertAll.coalesce_key()
        );
        assert_ne!(a.coalesce_key(), MvdOp::CommitAll.coalesce_key());
    }

    #[test]
    fn event_keys_and_lane_names_are_stable() {
        assert_eq!(
            MvdOp::Flip {
                switch: 0x9000,
                value: 1
            }
            .key(),
            0x9000
        );
        assert_eq!(MvdOp::CommitAll.key(), 0);
        assert_eq!(Lane::Normal.name(), "normal");
        assert_eq!(Lane::Priority.name(), "priority");
    }

    #[test]
    fn defaults_keep_quarantine_above_degradation() {
        let c = MvdConfig::default();
        assert!(c.quarantine_after > c.degrade_after);
        assert!(c.capacity >= 2);
        assert_eq!(c.default_ttl, 0, "entries do not expire unless asked");
        assert!(!MvdOutcome::Shed.is_committed());
    }
}
