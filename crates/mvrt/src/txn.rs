//! The two-phase transactional executor behind every commit/revert.
//!
//! A transaction works on *units*: callees whose recorded call sites it
//! rebinds. A multiversed function is a unit with sites plus an entry
//! prologue (the completeness jump); a function-pointer switch is a unit
//! with sites only. `Runtime::units` maps each [`TxnOp`] to its units
//! — the one scope the planner, the quiesce danger regions and the
//! [`Runtime::validate`] dry run all walk. A unit is either *bound*
//! (every site it walks rewritten by the one site rule, `Bind::site`,
//! and a function's entry jumped to its variant) or *restored* to the
//! bytes found at attach.
//!
//! The op's units are compiled into a list of `Action`s (*plan*), every
//! action is checked read-only against the current image (*validate*),
//! and only then are the writes performed under the
//! [`crate::journal::Journal`] undo log (*apply*). Each phase handles
//! both unit kinds on one path. A validate failure writes nothing; an
//! apply failure rolls the journal back and restores the runtime's
//! bookkeeping snapshot, so the operation either fully succeeds or
//! leaves the process image byte-identical — the failure is reported as
//! [`RtError::Commit`] naming the phase and, when known, the function
//! being processed.
//!
//! Transient apply faults (a protection fault on a mapped text page, a
//! lost icache flush) may additionally be retried under the bounded
//! [`RetryPolicy`], since after rollback the image is clean and a new
//! plan/validate/apply cycle is safe. `Runtime::run_txn` runs and times
//! every operation — unicore, quiesced and daemon alike.

use crate::error::{CommitPhase, RtError};
use crate::journal::{Span, MAX_SPAN};
use crate::patch::pages_of;
use crate::runtime::{CommitReport, FnBinding, PatchStrategy, Runtime, SiteBinding, SwitchValues};
use crate::stats::PatchTiming;
use mvasm::MV64;
use mvobj::descriptor::NOT_INLINABLE;
use mvobj::Prot;
use mvtrace::{EventKind, Phase as TracePhase};
use mvvm::{Machine, MemError, PAGE_SIZE};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Bounded retry for transient apply-phase faults.
///
/// After a rollback the image is byte-identical to its pre-commit state,
/// so re-running the whole plan/validate/apply cycle is safe. Only
/// errors for which [`RtError::is_transient`] holds are retried; hard
/// errors (bad descriptors, tampered sites, unknown addresses) surface
/// immediately. The default policy performs no retries, so atomicity
/// tests observe every injected fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure (0 = fail fast).
    pub max_retries: u32,
    /// Base sleep between attempts. [`Duration::ZERO`] skips sleeping
    /// entirely. Attempt *n* waits `backoff * n` (linear, the default)
    /// or `backoff * 2^(n-1)` with [`RetryPolicy::exponential`] set —
    /// see [`RetryPolicy::delay`].
    pub backoff: Duration,
    /// Exponential doubling instead of the default linear scaling.
    pub exponential: bool,
    /// Upper bound for a single delay ([`Duration::ZERO`] = uncapped).
    /// Applied before jitter, so a jittered schedule stays under the
    /// cap too.
    pub max_backoff: Duration,
    /// Seed for deterministic jitter (0 = none). With a nonzero seed an
    /// exponential delay is "equal-jittered" into `[d/2, d]`: half the
    /// delay is kept, the rest drawn from a splitmix of `(seed,
    /// attempt)` — the decorrelation that keeps a thundering herd of
    /// retriers from re-colliding, reproducible run over run.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            backoff: Duration::from_micros(50),
            exponential: false,
            max_backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }
}

/// splitmix64 finalizer over a seed/counter pair — the jitter source.
fn mix64(seed: u64, counter: u64) -> u64 {
    let mut z = seed ^ counter.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy retrying up to `max_retries` times with no sleep —
    /// convenient under the deterministic VM, where faults heal
    /// instantly rather than with time.
    pub fn retries(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff: Duration::ZERO,
            ..RetryPolicy::default()
        }
    }

    /// A jittered-exponential policy: attempt *n* waits a deterministic
    /// draw from `[base·2^(n-1) / 2, base·2^(n-1)]` seeded by `seed`
    /// (`seed = 0` disables the jitter and keeps the pure doubling).
    /// Uncapped; chain [`RetryPolicy::capped`] to bound single delays.
    pub fn exponential(max_retries: u32, base: Duration, seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            backoff: base,
            exponential: true,
            max_backoff: Duration::ZERO,
            jitter_seed: seed,
        }
    }

    /// Caps every single delay at `max` (applied before jitter).
    pub fn capped(mut self, max: Duration) -> RetryPolicy {
        self.max_backoff = max;
        self
    }

    /// The sleep before retry `attempt` (1-based), fully deterministic:
    /// linear `backoff * attempt` by default, doubling (capped, then
    /// equal-jittered when seeded) with [`RetryPolicy::exponential`]
    /// set. A zero base means no sleeping in any mode.
    pub fn delay(&self, attempt: u32) -> Duration {
        if self.backoff.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        let mut d = if self.exponential {
            self.backoff.saturating_mul(1u32 << (attempt - 1).min(31))
        } else {
            self.backoff.saturating_mul(attempt)
        };
        if !self.max_backoff.is_zero() && d > self.max_backoff {
            d = self.max_backoff;
        }
        if self.exponential && self.jitter_seed != 0 {
            let ns = d.as_nanos().min(u64::MAX as u128) as u64;
            let half = ns / 2;
            let r = mix64(self.jitter_seed, attempt as u64);
            d = Duration::from_nanos(half + r % (half + 1));
        }
        d
    }
}

/// A Table 1 operation, as one transaction runs it — unicore through
/// the [`Runtime`] methods, or quiesced through
/// [`Runtime::run_quiesced`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnOp {
    /// `multiverse_commit()`.
    CommitAll,
    /// `multiverse_revert()`.
    RevertAll,
    /// `multiverse_commit_refs(&var)` for the switch at this address.
    CommitRefs(u64),
    /// `multiverse_revert_refs(&var)`.
    RevertRefs(u64),
    /// `multiverse_commit_func(&fn)` for the generic entry at this
    /// address.
    CommitFunc(u64),
    /// `multiverse_revert_func(&fn)`.
    RevertFunc(u64),
}

impl TxnOp {
    /// Stable operation names, as they appear in trace events and
    /// metric labels (the Table 1 entry points minus the `multiverse_`
    /// prefix), in variant order.
    pub(crate) const NAMES: [&'static str; 6] = [
        "commit",
        "revert",
        "commit_refs",
        "revert_refs",
        "commit_func",
        "revert_func",
    ];

    /// This operation's position in [`TxnOp::NAMES`].
    pub(crate) fn index(self) -> usize {
        match self {
            TxnOp::CommitAll => 0,
            TxnOp::RevertAll => 1,
            TxnOp::CommitRefs(_) => 2,
            TxnOp::RevertRefs(_) => 3,
            TxnOp::CommitFunc(_) => 4,
            TxnOp::RevertFunc(_) => 5,
        }
    }

    /// Stable operation name, as it appears in trace events.
    pub(crate) fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }

    /// `true` for the commits, `false` for the reverts.
    fn commits(self) -> bool {
        matches!(
            self,
            TxnOp::CommitAll | TxnOp::CommitRefs(_) | TxnOp::CommitFunc(_)
        )
    }
}

/// A callee whose recorded call sites a transaction rebinds.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Unit {
    /// Multiversed function `fns[i]`: its sites plus the completeness
    /// entry jump over its generic prologue.
    Func(usize),
    /// The function-pointer switch at this address: its sites only.
    Ptr(u64),
}

impl Unit {
    /// The address the unit's sites are recorded under: a generic entry
    /// or a switch.
    fn callee(self, rt: &Runtime) -> u64 {
        match self {
            Unit::Func(fi) => rt.fns[fi].desc.generic,
            Unit::Ptr(var_addr) => var_addr,
        }
    }

    /// The function an error in this unit is attributed to (none for a
    /// switch).
    fn function(self, rt: &Runtime) -> Option<u64> {
        match self {
            Unit::Func(fi) => Some(rt.fns[fi].desc.generic),
            Unit::Ptr(_) => None,
        }
    }
}

/// One [`TxnOp`] and the units it covers, in plan order: functions in
/// descriptor order, then function-pointer switches. A cursor over the
/// runtime's unit list (`fns`, then `vars`), so its walker may borrow
/// the runtime mutably between two units. Built once per operation by
/// [`Runtime::units`]; each walker steps a clone.
#[derive(Clone, Debug)]
pub(crate) struct Units {
    op: TxnOp,
    at: Range<usize>,
    pick: Pick,
}

/// Which units of a [`Units`] range the op covers.
#[derive(Clone, Copy, Debug)]
enum Pick {
    /// Every one.
    Each,
    /// Every function, and the function-pointer switches with recorded
    /// sites (the whole-image ops).
    All,
    /// The functions with a variant guarded by the switch at this
    /// address.
    Refs(u64),
}

impl Units {
    /// The op's next unit.
    pub(crate) fn next(&mut self, rt: &Runtime) -> Option<Unit> {
        let pick = self.pick;
        self.at
            .by_ref()
            .find_map(|i| match i.checked_sub(rt.fns.len()) {
                None => match pick {
                    Pick::Refs(var_addr) if !rt.references_var(i, var_addr) => None,
                    _ => Some(Unit::Func(i)),
                },
                Some(vi) => {
                    let v = &rt.vars[vi];
                    match pick {
                        Pick::All if !(v.fn_ptr && rt.sites_of.contains_key(&v.addr)) => None,
                        _ => Some(Unit::Ptr(v.addr)),
                    }
                }
            })
    }
}

/// What a bind points a unit's sites at.
#[derive(Clone, Copy, Debug)]
struct Bind {
    /// Call target: the variant entry, or the switch's pointee.
    target: u64,
    /// Inline length of the target's body, if it may be inlined.
    inline: Option<u32>,
}

impl Bind {
    /// The site rule: a site of `len` bytes gets the body inlined if it
    /// fits, and a direct call to the target otherwise.
    fn site(self, len: usize) -> SiteBinding {
        match self.inline {
            Some(il) if il as usize <= len => SiteBinding::Inlined(self.target),
            _ => SiteBinding::Call(self.target),
        }
    }
}

/// One planned unit of work. Planning resolves variant selection up
/// front, so validate and apply agree on what will happen.
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Bind `unit`'s sites, and a function's entry, as
    /// `Runtime::bind_of` says: to the function's `variant`, or to the
    /// target the switch holds (`variant` unused). `repatch` marks a
    /// function the bookkeeping already called bound to it whose image
    /// bytes did not verify, so the writes heal it.
    Bind {
        unit: Unit,
        variant: usize,
        repatch: bool,
    },
    /// Restore `unit` to the bytes found at attach. `fallback` marks the
    /// Fig. 3 d case (no variant admitted the configuration) as opposed
    /// to an explicit revert.
    Restore { unit: Unit, fallback: bool },
}

impl Action {
    fn unit(self) -> Unit {
        match self {
            Action::Bind { unit, .. } | Action::Restore { unit, .. } => unit,
        }
    }
}

/// Output of the planning phase: the actions that must run, plus the
/// delta-planning accounting for everything that did *not* need to —
/// units already bound to their selected state with verified sites,
/// generic fallbacks already fully generic. A no-change `commit()`
/// plans an empty action list and therefore performs zero text writes.
#[derive(Debug, Default)]
struct TxnPlan {
    /// Work that must actually run.
    actions: Vec<Action>,
    /// Functions / fn-pointer switches skipped as already current.
    unchanged: usize,
    /// Generic fallbacks (Fig. 3 d) skipped as already fully generic.
    /// These still count into [`CommitReport::generic_fallbacks`], so
    /// the fallback *signal* survives the fast path.
    skipped_fallbacks: usize,
    /// Call sites covered by the skipped work.
    sites_skipped: u64,
}

/// Bookkeeping snapshot taken before an apply phase; restored together
/// with the journal rollback so `Runtime` state matches the restored
/// image.
struct StateSnapshot {
    site_bindings: Vec<SiteBinding>,
    /// Prologue copies are inline [`Span`]s (an entry jump is 5 bytes):
    /// taking the snapshot is on the happy path of every commit and must
    /// not allocate per function.
    fn_states: Vec<(FnBinding, Option<Span>)>,
}

/// Health of one multiversed function, as reported by
/// [`Runtime::validate`].
#[derive(Clone, Debug)]
pub struct FnHealth {
    /// Generic entry address.
    pub generic: u64,
    /// Current binding.
    pub binding: FnBinding,
    /// Entry address of the variant the current configuration selects
    /// (`None`: generic fallback, or the function has no variants).
    pub selected: Option<u64>,
    /// Why a commit of this function would fail, if it would.
    pub issue: Option<String>,
}

/// Health of one recorded call site, as reported by
/// [`Runtime::validate`].
#[derive(Clone, Debug)]
pub struct SiteHealth {
    /// Call-site address.
    pub site: u64,
    /// Recorded callee (generic entry or function-pointer switch).
    pub callee: u64,
    /// `true` if the site is currently rewritten (patched or inlined).
    pub patched: bool,
    /// Why patching this site would fail, if it would — its own bytes,
    /// or, for a function-pointer switch's site, the switch's bind.
    pub issue: Option<String>,
}

/// Result of a [`Runtime::validate`] dry run: everything the validate
/// phase of a full `commit` would check, with nothing written.
#[derive(Clone, Debug, Default)]
pub struct ValidationReport {
    /// Per-function health, in descriptor order.
    pub functions: Vec<FnHealth>,
    /// Per-site health, in descriptor order.
    pub sites: Vec<SiteHealth>,
}

impl ValidationReport {
    /// `true` if no function and no site reported an issue — a full
    /// `commit` would pass its validate phase.
    pub fn healthy(&self) -> bool {
        self.functions.iter().all(|f| f.issue.is_none())
            && self.sites.iter().all(|s| s.issue.is_none())
    }

    /// Number of functions/sites with issues.
    pub fn issues(&self) -> usize {
        self.functions.iter().filter(|f| f.issue.is_some()).count()
            + self.sites.iter().filter(|s| s.issue.is_some()).count()
    }
}

impl Runtime {
    /// All text writes of the runtime funnel through here, inside the
    /// apply phase of a transaction. The write is journaled *before* it
    /// is attempted. The first write landing on a page unlocks it once,
    /// later writes go straight in, and [`Runtime::close_batch`] relocks
    /// and flushes every touched page exactly once at the end of the
    /// apply phase — O(pages) protection changes and flushes instead of
    /// O(sites).
    pub(crate) fn write_text(
        &mut self,
        m: &mut Machine,
        addr: u64,
        bytes: &[u8],
    ) -> Result<(), RtError> {
        let mut old = [0u8; MAX_SPAN];
        let old = &mut old[..bytes.len()];
        m.mem.read(addr, old)?;
        self.undo.record(addr, old, bytes);
        self.stats.journal_entries += 1;
        self.stats.journal_bytes += bytes.len() as u64;
        for page in pages_of(addr, bytes.len()) {
            if !self.batch.open.contains(&page) {
                m.mem.mprotect(page, PAGE_SIZE, Prot::RW)?;
                self.stats.mprotects += 1;
                self.batch.open.push(page);
            }
        }
        m.mem.write(addr, bytes)?;
        self.stats.bytes_written += bytes.len() as u64;
        self.batch.writes += 1;
        Ok(())
    }

    /// Relocks and flushes every page the batch unlocked — once per
    /// page — then accounts the batch. Flush effectiveness is verified
    /// per page through the flush epoch (a lost flush means stale code
    /// keeps executing — surfaced as [`RtError::IcacheStale`]). On error
    /// the batch is left in place so the rollback relocks its open
    /// windows.
    fn close_batch(&mut self, m: &mut Machine) -> Result<(), RtError> {
        for &page in &self.batch.open {
            let epoch_before = m.mem.flush_epoch();
            m.mem.mprotect(page, PAGE_SIZE, Prot::RX)?;
            self.stats.mprotects += 1;
            m.mem.flush_icache(page, PAGE_SIZE);
            self.stats.icache_flushes += 1;
            if m.mem.flush_epoch() == epoch_before {
                return Err(RtError::IcacheStale { addr: page });
            }
        }
        let (pages, writes) = (self.batch.open.len() as u64, self.batch.writes);
        self.stats.pages_touched += pages;
        if pages > 0 {
            self.emit(|| EventKind::PageBatch { pages, writes });
        }
        Ok(())
    }

    /// The scope of `op`: the units it covers. The planner, the quiesce
    /// danger regions and the [`Runtime::validate`] dry run all walk
    /// it. An unknown address fails here, raw
    /// ([`RtError::UnknownVariable`], [`RtError::UnknownFunction`]): it
    /// is API misuse, not a transaction failure. Every operation
    /// resolves it once, before its trace opens, so such a failure is
    /// untraced, untimed and unrecorded.
    pub(crate) fn units(&self, op: TxnOp) -> Result<Units, RtError> {
        let nf = self.fns.len();
        let (at, pick) = match op {
            TxnOp::CommitAll | TxnOp::RevertAll => (0..nf + self.vars.len(), Pick::All),
            TxnOp::CommitRefs(a) | TxnOp::RevertRefs(a) => {
                let &vi = self
                    .var_by_addr
                    .get(&a)
                    .ok_or(RtError::UnknownVariable(a))?;
                if self.vars[vi].fn_ptr {
                    (nf + vi..nf + vi + 1, Pick::Each)
                } else {
                    (0..nf, Pick::Refs(a))
                }
            }
            TxnOp::CommitFunc(a) | TxnOp::RevertFunc(a) => {
                let &fi = self.fn_by_addr.get(&a).ok_or(RtError::UnknownFunction(a))?;
                (fi..fi + 1, Pick::Each)
            }
        };
        Ok(Units { op, at, pick })
    }

    /// `false` for a function without variants: a commit has nothing to
    /// bind it to, so commits and the danger regions pass over it. A
    /// revert still restores it.
    pub(crate) fn bindable(&self, unit: Unit) -> bool {
        !matches!(unit, Unit::Func(fi) if self.fns[fi].desc.variants.is_empty())
    }

    /// The recorded sites a bind (`bind`) or a restore of `unit` walks.
    /// A function bound under [`PatchStrategy::EntryOnly`] walks none:
    /// its sites keep calling the generic entry, which the jump
    /// redirects. A restore walks every site.
    pub(crate) fn unit_sites(&self, unit: Unit, bind: bool) -> &[usize] {
        if bind && matches!(unit, Unit::Func(_)) && self.strategy == PatchStrategy::EntryOnly {
            return &[];
        }
        self.sites_of
            .get(&unit.callee(self))
            .map_or(&[], Vec::as_slice)
    }

    /// The inline rule: a body may be inlined if inlining is on and its
    /// descriptor gives it an inline length.
    fn inlinable(&self, inline_len: u32) -> Option<u32> {
        (self.inline_enabled && inline_len != NOT_INLINABLE).then_some(inline_len)
    }

    /// What binding `unit` means now: the function's `variant`, or the
    /// target the switch holds. Every phase reads that target afresh,
    /// so a null or unreadable one fails the phase reading it.
    fn bind_of(&self, m: &Machine, unit: Unit, variant: usize) -> Result<Bind, RtError> {
        let (target, inline_len) = match unit {
            Unit::Func(fi) => {
                let v = &self.fns[fi].desc.variants[variant];
                (v.addr, v.inline_len)
            }
            Unit::Ptr(var_addr) => {
                let target = m.mem.read_uint(var_addr, 8)?;
                if target == 0 {
                    return Err(RtError::BadFnPtrTarget { var_addr, target });
                }
                // A described pointee's short body is inlined into the
                // sites (PV-Ops style); anything else gets a direct call.
                let inline_len = self
                    .fn_by_addr
                    .get(&target)
                    .map_or(NOT_INLINABLE, |&fi| self.fns[fi].desc.generic_inline_len);
                (target, inline_len)
            }
        };
        Ok(Bind {
            target,
            inline: self.inlinable(inline_len),
        })
    }

    /// What a commit (`commit`) or a revert wants of `unit`, before any
    /// delta check. A commit binds a function to the variant the
    /// switches select, or restores it when none does (Fig. 3 d), and
    /// binds a switch to its target; `None` when there is nothing to
    /// bind. A revert restores. Selection failures come back raw.
    /// Selection reads switches through `values`, the plan's memo.
    fn intent(
        &self,
        m: &Machine,
        unit: Unit,
        commit: bool,
        values: &mut SwitchValues,
    ) -> Result<Option<Action>, RtError> {
        Ok(match unit {
            _ if !commit => Some(Action::Restore {
                unit,
                fallback: false,
            }),
            _ if !self.bindable(unit) => None,
            Unit::Ptr(_) => Some(Action::Bind {
                unit,
                variant: 0,
                repatch: false,
            }),
            Unit::Func(fi) => {
                let f = &self.fns[fi];
                Some(match self.select_variant(m, fi, values)? {
                    Some(variant) => Action::Bind {
                        unit,
                        variant,
                        repatch: f.binding == FnBinding::Variant(f.desc.variants[variant].addr),
                    },
                    None => Action::Restore {
                        unit,
                        fallback: true,
                    },
                })
            }
        })
    }

    /// `true` if `action` is verifiably done already: a bound function's
    /// entry jump is in place over its saved prologue (a restored one
    /// has nothing saved), and every site the action walks is bound by
    /// the site rule with verifying bytes (original, for a restore). Any
    /// read failure or mismatch reads as "not done", so the action runs
    /// and the validate phase names the problem.
    fn already_done(&self, m: &Machine, action: Action) -> bool {
        let (unit, bind) = match action {
            Action::Bind { unit, variant, .. } => match self.bind_of(m, unit, variant) {
                Ok(bind) => (unit, Some(bind)),
                Err(_) => return false,
            },
            Action::Restore { unit, .. } => (unit, None),
        };
        if let Unit::Func(fi) = unit {
            let f = &self.fns[fi];
            let entry_done = match bind {
                None => f.binding == FnBinding::Generic && f.saved_prologue.is_none(),
                Some(b) => {
                    f.binding == FnBinding::Variant(b.target)
                        && f.saved_prologue.is_some()
                        && MV64.encode_jmp(f.desc.generic, b.target).is_ok_and(|jmp| {
                            Span::read(&m.mem, f.desc.generic, jmp.len())
                                .is_ok_and(|cur| *cur == jmp)
                        })
                }
            };
            if !entry_done {
                return false;
            }
        }
        self.unit_sites(unit, bind.is_some()).iter().all(|&si| {
            let s = &self.sites[si];
            match bind {
                None => s.binding == SiteBinding::Original,
                Some(b) => s.binding == b.site(s.len) && self.check_site_patchable(m, si).is_ok(),
            }
        })
    }

    /// Phase 0 — planning. Walks the op's units, resolves each one's
    /// intent and, for a commit, skips what is already done (delta
    /// planning), accounting it in the returned [`TxnPlan`]. Reverts
    /// restore unconditionally. Selection failures are wrapped with
    /// [`CommitPhase::Plan`].
    fn plan(&mut self, m: &Machine, units: &Units) -> Result<TxnPlan, RtError> {
        // Guest memory is read-only while planning, so each switch is
        // read at most once per plan.
        let mut values = std::mem::take(&mut self.switch_values);
        values.clear();
        let plan = self.plan_units(m, units, &mut values);
        self.switch_values = values;
        plan
    }

    fn plan_units(
        &mut self,
        m: &Machine,
        units: &Units,
        values: &mut SwitchValues,
    ) -> Result<TxnPlan, RtError> {
        let commit = units.op.commits();
        let mut plan = TxnPlan::default();
        let mut units = units.clone();
        while let Some(unit) = units.next(self) {
            let intent = self
                .intent(m, unit, commit, values)
                .map_err(|e| RtError::Commit {
                    phase: CommitPhase::Plan,
                    function: unit.function(self),
                    source: Box::new(e),
                })?;
            let Some(action) = intent else { continue };
            if !commit || !self.already_done(m, action) {
                plan.actions.push(action);
                continue;
            }
            let sites = match action {
                Action::Bind { .. } => {
                    let sites = self.unit_sites(unit, true).len() as u64;
                    plan.unchanged += 1;
                    plan.sites_skipped += sites;
                    sites
                }
                Action::Restore { .. } => {
                    plan.skipped_fallbacks += 1;
                    0
                }
            };
            let function = unit.callee(self);
            self.emit(|| EventKind::ActionSkipped { function, sites });
        }
        Ok(plan)
    }

    /// Phase 1 — validation. Re-checks, read-only, everything the apply
    /// phase will rely on. Failures come back as [`RtError::Commit`]
    /// with [`CommitPhase::Validate`]; nothing has been written.
    fn validate_actions(&self, m: &Machine, actions: &[Action]) -> Result<(), RtError> {
        for &a in actions {
            self.check(m, a).map_err(|e| RtError::Commit {
                phase: CommitPhase::Validate,
                function: a.unit().function(self),
                source: Box::new(e),
            })?;
        }
        Ok(())
    }

    /// The read-only check of one action, shared by the validate phase
    /// and the [`Runtime::validate`] dry run: call-site bytes, page
    /// protections, the bound target being executable text (for both
    /// unit kinds), body readability and displacement reach.
    fn check(&self, m: &Machine, action: Action) -> Result<(), RtError> {
        let entry = match action.unit() {
            Unit::Func(fi) => Some(&self.fns[fi]),
            Unit::Ptr(_) => None,
        };
        let Action::Bind { unit, variant, .. } = action else {
            // A restore rewrites the bound sites and a saved prologue.
            for &si in self.unit_sites(action.unit(), false) {
                let s = &self.sites[si];
                if s.binding != SiteBinding::Original {
                    m.mem.check_read(s.desc.site, s.len)?;
                    self.check_exec(m, s.desc.site)?;
                }
            }
            if let Some(f) = entry.filter(|f| f.saved_prologue.is_some()) {
                m.mem.check_read(f.desc.generic, MV64.call_site_len())?;
                self.check_exec(m, f.desc.generic)?;
            }
            return Ok(());
        };
        let bind = self.bind_of(m, unit, variant)?;
        if let Some(f) = entry {
            // Completeness patching needs room for the entry jump, over a
            // readable, executable prologue.
            if f.desc.generic_size < MV64.call_site_len() as u32 {
                return Err(RtError::GenericTooSmall {
                    function: f.desc.generic,
                    size: f.desc.generic_size,
                });
            }
            m.mem.check_read(f.desc.generic, MV64.call_site_len())?;
            self.check_exec(m, f.desc.generic)?;
        }
        // Every rewritten call and the entry jump land on the target.
        self.check_exec(m, bind.target)?;
        if let Some(f) = entry {
            MV64.encode_jmp(f.desc.generic, bind.target)?;
        }
        // The body must be readable if it may be inlined.
        if let Some(il) = bind.inline {
            m.mem.check_read(bind.target, il as usize)?;
        }
        for &si in self.unit_sites(unit, true) {
            self.check_site_patchable(m, si)?;
            // Sites that will call (not inline) must be within rel32
            // reach of the target.
            let s = &self.sites[si];
            if let SiteBinding::Call(target) = bind.site(s.len) {
                MV64.encode_call(s.desc.site, target)?;
            }
        }
        Ok(())
    }

    /// A call site must still hold what the bookkeeping says it holds,
    /// on an executable page, before we overwrite it (§4's "check if
    /// they point to the expected call target", extended to all binding
    /// states). The check compares raw bytes against what the runtime
    /// knows it wrote (or found at attach), which is both stricter and
    /// cheaper than re-decoding the instruction.
    fn check_site_patchable(&self, m: &Machine, si: usize) -> Result<(), RtError> {
        let s = &self.sites[si];
        let mut current = [0u8; MAX_SPAN];
        let current = &mut current[..s.len];
        m.mem.read(s.desc.site, current)?;
        let ok = match s.binding {
            // Untouched: must still hold the exact attach-time bytes
            // (covers direct and indirect originals alike).
            SiteBinding::Original => current == &s.original[..],
            // Rewritten: must hold exactly the call we encoded.
            SiteBinding::Call(target) => {
                let mut expected = [0u8; MAX_SPAN];
                let expected = &mut expected[..s.len];
                MV64.call_image(s.desc.site, target, expected)?;
                current == expected
            }
            // Inlined bodies are arbitrary bytes; readability (above) is
            // the only byte-level invariant.
            SiteBinding::Inlined(_) => true,
        };
        if !ok {
            return Err(RtError::SiteVerifyFailed {
                site: s.desc.site,
                what: "site bytes changed behind the runtime's back".into(),
            });
        }
        self.check_exec(m, s.desc.site)
    }

    /// The page holding `addr` must be mapped executable text.
    fn check_exec(&self, m: &Machine, addr: u64) -> Result<(), RtError> {
        match m.mem.prot_of(addr) {
            Some(p) if p.exec => Ok(()),
            Some(_) => Err(RtError::SiteVerifyFailed {
                site: addr,
                what: "page is mapped but not executable".into(),
            }),
            None => Err(RtError::Mem(mvvm::MemError {
                addr,
                access: mvvm::mem::Access::Read,
                mapped: false,
            })),
        }
    }

    fn snapshot_state(&self) -> StateSnapshot {
        StateSnapshot {
            site_bindings: self.sites.iter().map(|s| s.binding).collect(),
            fn_states: self
                .fns
                .iter()
                .map(|f| (f.binding, f.saved_prologue))
                .collect(),
        }
    }

    fn restore_state(&mut self, snap: StateSnapshot) {
        for (s, b) in self.sites.iter_mut().zip(snap.site_bindings) {
            s.binding = b;
        }
        for (f, (b, p)) in self.fns.iter_mut().zip(snap.fn_states) {
            f.binding = b;
            f.saved_prologue = p;
        }
    }

    /// Phase 2 — apply. Executes the actions with every text write
    /// journaled; on failure the journal is rolled back and the
    /// bookkeeping snapshot restored, so an `Err` with
    /// [`CommitPhase::Apply`] guarantees a byte-identical image. Only a
    /// rollback that itself fails ([`CommitPhase::Rollback`]) can leave
    /// the image torn.
    fn apply_actions(
        &mut self,
        m: &mut Machine,
        actions: &[Action],
    ) -> Result<CommitReport, RtError> {
        let snapshot = self.snapshot_state();
        self.undo.clear();
        self.batch.open.clear();
        self.batch.writes = 0;
        let mut report = CommitReport::default();
        // A failure is attributed to the function being processed.
        let mut failure = actions.iter().find_map(|&a| {
            self.apply(m, a, &mut report)
                .err()
                .map(|e| (a.unit().function(self), e))
        });
        if failure.is_none() {
            failure = self.close_batch(m).err().map(|e| (None, e));
        }
        let Some((function, cause)) = failure else {
            return Ok(report);
        };
        // Classify the root cause for the trace before it is boxed away
        // inside the Commit wrapper.
        let (fault_addr, fault_what) = match cause.root_cause() {
            RtError::Mem(MemError {
                addr, mapped: true, ..
            }) => (*addr, "protection-fault"),
            RtError::IcacheStale { addr } => (*addr, "icache-stale"),
            _ => (0, "error"),
        };
        self.emit(|| EventKind::FaultObserved {
            addr: fault_addr,
            what: fault_what,
        });
        let entries = self.undo.len() as u64;
        match self.undo.rollback(m, &self.batch.open, &mut self.stats) {
            Ok(()) => {
                self.restore_state(snapshot);
                self.stats.rollbacks += 1;
                self.emit(|| EventKind::Rollback { entries });
                Err(RtError::Commit {
                    phase: CommitPhase::Apply,
                    function,
                    source: Box::new(cause),
                })
            }
            Err(rb) => Err(RtError::Commit {
                phase: CommitPhase::Rollback,
                function,
                source: Box::new(rb),
            }),
        }
    }

    /// Writes one action and accounts it in `report`. A bind rewrites
    /// the sites before a function's entry jump; a restore puts the
    /// sites back before the prologue.
    fn apply(
        &mut self,
        m: &mut Machine,
        action: Action,
        report: &mut CommitReport,
    ) -> Result<(), RtError> {
        match action {
            Action::Bind {
                unit,
                variant,
                repatch,
            } => {
                let bind = self.bind_of(m, unit, variant)?;
                let sites = self.for_sites_of(unit, true, |rt, si| rt.patch_site(m, si, bind))?;
                report.sites_touched += sites;
                let Unit::Func(fi) = unit else {
                    report.fnptr_sites += sites;
                    return Ok(());
                };
                // Completeness: overwrite the generic entry with `jmp
                // variant`, saving the prologue the first time.
                let generic = self.fns[fi].desc.generic;
                let jmp = MV64.encode_jmp(generic, bind.target)?;
                if self.fns[fi].saved_prologue.is_none() {
                    let saved = Span::read(&m.mem, generic, MV64.call_site_len())?;
                    self.fns[fi].saved_prologue = Some(saved);
                }
                self.write_text(m, generic, &jmp)?;
                self.stats.entry_jumps += 1;
                self.fns[fi].binding = FnBinding::Variant(bind.target);
                self.stats.committed_variants += 1;
                self.emit(|| EventKind::EntryJumpWritten {
                    function: generic,
                    variant: bind.target,
                });
                report.variants_committed += 1;
                report.repatched += usize::from(repatch);
            }
            Action::Restore { unit, fallback } => {
                report.sites_touched +=
                    self.for_sites_of(unit, false, |rt, si| rt.restore_site(m, si))?;
                if let Unit::Func(fi) = unit {
                    let generic = self.fns[fi].desc.generic;
                    if let Some(prologue) = self.fns[fi].saved_prologue {
                        self.write_text(m, generic, &prologue)?;
                        self.fns[fi].saved_prologue = None;
                        self.stats.prologues_restored += 1;
                        self.emit(|| EventKind::PrologueRestored { function: generic });
                    }
                    self.fns[fi].binding = FnBinding::Generic;
                }
                if fallback {
                    report.generic_fallbacks += 1;
                    self.stats.generic_fallbacks += 1;
                }
            }
        }
        Ok(())
    }

    /// Runs `f` over the sites [`Runtime::unit_sites`] names, in record
    /// order, and returns how many there are. The list is moved out of
    /// [`Runtime::sites_of`] for the walk and back after it, so the walk
    /// copies nothing; `f` must not read the map.
    fn for_sites_of(
        &mut self,
        unit: Unit,
        bind: bool,
        mut f: impl FnMut(&mut Runtime, usize) -> Result<(), RtError>,
    ) -> Result<usize, RtError> {
        if self.unit_sites(unit, bind).is_empty() {
            return Ok(0);
        }
        let callee = unit.callee(self);
        let list = self
            .sites_of
            .get_mut(&callee)
            .expect("walked sites are keyed");
        let idxs = std::mem::take(list);
        let walked = idxs.iter().try_for_each(|&si| f(self, si));
        let n = idxs.len();
        *self
            .sites_of
            .get_mut(&callee)
            .expect("the list stays keyed") = idxs;
        walked.map(|()| n)
    }

    /// Rewrites site `si` by the site rule. §4's "check the site still
    /// points at the expected target" is the validate phase's byte check
    /// of every site; apply trusts it.
    fn patch_site(&mut self, m: &mut Machine, si: usize, bind: Bind) -> Result<(), RtError> {
        let (site, len) = (self.sites[si].desc.site, self.sites[si].len);
        let mut image = [0u8; MAX_SPAN];
        let image = &mut image[..len];
        let binding = bind.site(len);
        match binding {
            SiteBinding::Inlined(body_addr) => {
                let il = bind.inline.expect("an inlined site has a body length");
                let body = Span::read(&m.mem, body_addr, il as usize)?;
                self.stats.sites_inlined += 1;
                MV64.inline_image(&body, image)?;
            }
            _ => MV64.call_image(site, bind.target, image)?,
        }
        self.write_text(m, site, image)?;
        self.stats.sites_patched += 1;
        self.sites[si].binding = binding;
        let target = bind.target;
        match binding {
            SiteBinding::Inlined(variant) => self.emit(|| EventKind::Inlined { site, variant }),
            _ => self.emit(|| EventKind::SitePatched { site, target }),
        }
        Ok(())
    }

    fn restore_site(&mut self, m: &mut Machine, si: usize) -> Result<(), RtError> {
        if self.sites[si].binding == SiteBinding::Original {
            return Ok(());
        }
        let site = self.sites[si].desc.site;
        let original = self.sites[si].original;
        self.write_text(m, site, &original)?;
        self.stats.sites_patched += 1;
        self.sites[si].binding = SiteBinding::Original;
        self.emit(|| EventKind::SiteRestored { site });
        Ok(())
    }

    /// The transaction driver: plan → validate → apply, retried under
    /// [`Runtime::retry`] for transient faults. Every operation runs
    /// here — unicore, quiesced and daemon — and is timed here: the
    /// wall-clock time goes to [`Runtime::patch_time`] whether the op
    /// succeeds or fails, and [`Runtime::last_timing`] gets the phase
    /// split, `elapsed` and the sites visited. The caller resolved the
    /// op's scope, so an unknown address never gets here.
    pub(crate) fn run_txn(
        &mut self,
        m: &mut Machine,
        units: &Units,
    ) -> Result<CommitReport, RtError> {
        let op = units.op;
        let start = Instant::now();
        self.last_timing = PatchTiming::default();
        self.emit(|| EventKind::CommitBegin { op: op.name() });
        let mut attempt = 0u32;
        let result = loop {
            // Re-plan every attempt: switches may have changed, and the
            // rollback restored the pre-commit image.
            let result = self.attempt_txn(m, units);
            match result {
                Err(e) if attempt < self.retry.max_retries && e.is_transient() => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.last_timing.retries += 1;
                    self.emit(|| EventKind::Retry { attempt });
                    let delay = self.retry.delay(attempt);
                    if !delay.is_zero() {
                        // Charged to the op's timing so elapsed − phases
                        // decomposes into backoff + driver overhead.
                        self.last_timing.backoff += delay;
                        std::thread::sleep(delay);
                    }
                }
                other => break other,
            }
        };
        // The image and bookkeeping are final for this operation: move
        // the native regions onto the new bindings.
        if result.is_ok() {
            self.sync_native(m);
        }
        self.emit(|| EventKind::CommitEnd { ok: result.is_ok() });
        self.tally.record_txn(op, result.is_ok(), &self.last_timing);
        let elapsed = start.elapsed();
        self.patch_time += elapsed;
        self.last_timing.elapsed = elapsed;
        self.last_timing.sites = result.as_ref().map_or(0, |r| r.sites_touched as u64);
        result
    }

    /// One plan → validate → apply cycle, with each phase timed into
    /// [`Runtime::last_timing`] (accumulating across attempts) and
    /// bracketed by trace events.
    fn attempt_txn(&mut self, m: &mut Machine, units: &Units) -> Result<CommitReport, RtError> {
        self.emit(|| EventKind::PhaseBegin {
            phase: TracePhase::Plan,
        });
        let t = Instant::now();
        let planned = self.plan(m, units);
        self.last_timing.plan += t.elapsed();
        self.emit(|| EventKind::PhaseEnd {
            phase: TracePhase::Plan,
            ok: planned.is_ok(),
        });
        let plan = planned?;

        self.emit(|| EventKind::PhaseBegin {
            phase: TracePhase::Validate,
        });
        let t = Instant::now();
        let validated = self.validate_actions(m, &plan.actions);
        self.last_timing.validate += t.elapsed();
        self.emit(|| EventKind::PhaseEnd {
            phase: TracePhase::Validate,
            ok: validated.is_ok(),
        });
        validated?;

        self.emit(|| EventKind::PhaseBegin {
            phase: TracePhase::Apply,
        });
        let t = Instant::now();
        let applied = self.apply_actions(m, &plan.actions);
        self.last_timing.apply += t.elapsed();
        self.emit(|| EventKind::PhaseEnd {
            phase: TracePhase::Apply,
            ok: applied.is_ok(),
        });
        // Fold the delta-planning summary into the successful attempt:
        // skipped work is reported as unchanged, skipped fallbacks keep
        // the Fig. 3 d signal alive, and the skipped sites are counted.
        applied.map(|mut report| {
            report.unchanged += plan.unchanged + plan.skipped_fallbacks;
            report.generic_fallbacks += plan.skipped_fallbacks;
            self.stats.generic_fallbacks += plan.skipped_fallbacks as u64;
            self.stats.sites_skipped += plan.sites_skipped;
            report
        })
    }

    /// Dry-run validation: the validate phase of a full
    /// [`Runtime::commit`], with no delta skip and nothing written. Every
    /// unit of the `CommitAll` scope gets the check its intent would
    /// get; a function's issue lands on its [`FnHealth`], a switch's on
    /// each of its sites. Powers the `mvcc verify` health report.
    pub fn validate(&self, m: &Machine) -> ValidationReport {
        let mut report = ValidationReport {
            functions: Vec::with_capacity(self.fns.len()),
            sites: self
                .sites
                .iter()
                .enumerate()
                .map(|(si, s)| SiteHealth {
                    site: s.desc.site,
                    callee: s.desc.callee,
                    patched: s.binding != SiteBinding::Original,
                    issue: self
                        .check_site_patchable(m, si)
                        .err()
                        .map(|e| e.to_string()),
                })
                .collect(),
        };
        let mut units = self
            .units(TxnOp::CommitAll)
            .expect("the whole-image scope names no address");
        let mut values = SwitchValues::new(self.vars.len());
        while let Some(unit) = units.next(self) {
            let (action, issue) = match self.intent(m, unit, true, &mut values) {
                Ok(action) => (action, action.and_then(|a| self.check(m, a).err())),
                Err(e) => (None, Some(e)),
            };
            let issue = issue.map(|e| e.to_string());
            match unit {
                Unit::Func(fi) => {
                    let f = &self.fns[fi];
                    report.functions.push(FnHealth {
                        generic: f.desc.generic,
                        binding: f.binding,
                        selected: match action {
                            Some(Action::Bind { variant, .. }) => {
                                Some(f.desc.variants[variant].addr)
                            }
                            _ => None,
                        },
                        issue,
                    });
                }
                Unit::Ptr(_) => {
                    for &si in self.unit_sites(unit, true) {
                        let site = &mut report.sites[si];
                        if site.issue.is_none() {
                            site.issue.clone_from(&issue);
                        }
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000; // ns per µs

    #[test]
    fn default_policy_keeps_linear_fixed_delay() {
        let p = RetryPolicy::default();
        assert!(!p.exponential);
        for n in 1..=5u32 {
            assert_eq!(p.delay(n), p.backoff * n, "linear schedule preserved");
        }
        assert_eq!(RetryPolicy::retries(3).delay(2), Duration::ZERO);
    }

    #[test]
    fn exponential_schedule_doubles_and_caps() {
        let p = RetryPolicy::exponential(8, Duration::from_micros(100), 0);
        let got: Vec<u64> = (1..=5).map(|n| p.delay(n).as_nanos() as u64).collect();
        assert_eq!(got, vec![100 * US, 200 * US, 400 * US, 800 * US, 1600 * US]);

        let capped = p.capped(Duration::from_micros(500));
        let got: Vec<u64> = (1..=5).map(|n| capped.delay(n).as_nanos() as u64).collect();
        assert_eq!(got, vec![100 * US, 200 * US, 400 * US, 500 * US, 500 * US]);
        // Far attempts must not overflow the doubling.
        assert_eq!(capped.delay(200), Duration::from_micros(500));
    }

    #[test]
    fn jitter_stays_in_the_equal_jitter_window() {
        let p = RetryPolicy::exponential(8, Duration::from_micros(100), 0xfeed);
        for n in 1..=8u32 {
            let pure = RetryPolicy::exponential(8, Duration::from_micros(100), 0).delay(n);
            let d = p.delay(n);
            assert!(d >= pure / 2, "attempt {n}: {d:?} below half of {pure:?}");
            assert!(d <= pure, "attempt {n}: {d:?} above {pure:?}");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
        let a = RetryPolicy::exponential(8, Duration::from_micros(100), 7);
        let b = RetryPolicy::exponential(8, Duration::from_micros(100), 7);
        let c = RetryPolicy::exponential(8, Duration::from_micros(100), 8);
        let sched = |p: &RetryPolicy| (1..=8u32).map(|n| p.delay(n)).collect::<Vec<_>>();
        assert_eq!(sched(&a), sched(&b), "same seed, same schedule");
        assert_ne!(sched(&a), sched(&c), "different seed decorrelates");
        // And the jitter really moves within one schedule: not every
        // attempt lands on the window boundary.
        let pure = RetryPolicy::exponential(8, Duration::from_micros(100), 0);
        assert!(
            (1..=8u32).any(|n| a.delay(n) != pure.delay(n)),
            "seeded schedule must differ from the unjittered one"
        );
    }

    #[test]
    fn zero_base_never_sleeps_in_any_mode() {
        let p = RetryPolicy {
            max_retries: 4,
            backoff: Duration::ZERO,
            exponential: true,
            max_backoff: Duration::from_micros(10),
            jitter_seed: 42,
        };
        for n in 0..=6u32 {
            assert_eq!(p.delay(n), Duration::ZERO);
        }
    }
}
