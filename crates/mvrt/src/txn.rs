//! The two-phase transactional executor behind every commit/revert.
//!
//! Each public [`Runtime`] operation ([`TxnOp`]) is compiled into a list
//! of `Action`s (*plan*), every action is checked read-only against the
//! current image (*validate*), and only then are the writes performed
//! under the [`crate::journal::Journal`] undo log (*apply*). A validate
//! failure writes nothing; an apply failure rolls the journal back and
//! restores the runtime's bookkeeping snapshot, so the operation either
//! fully succeeds or leaves the process image byte-identical — the
//! failure is reported as [`RtError::Commit`] naming the phase and, when
//! known, the function being processed.
//!
//! Transient apply faults (a protection fault on a mapped text page, a
//! lost icache flush) may additionally be retried under the bounded
//! [`RetryPolicy`], since after rollback the image is clean and a new
//! plan/validate/apply cycle is safe.

use crate::error::{CommitPhase, RtError};
use crate::journal::{Span, MAX_SPAN};
use crate::patch::pages_of;
use crate::runtime::{CommitReport, FnBinding, PatchStrategy, Runtime, SiteBinding};
use crate::stats::PatchTiming;
use mvasm::MV64;
use mvobj::descriptor::NOT_INLINABLE;
use mvobj::Prot;
use mvtrace::{EventKind, Phase as TracePhase};
use mvvm::{Machine, MemError, PAGE_SIZE};
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
    /// Stable operation name, as it appears in trace events (the Table 1
    /// entry point minus the `multiverse_` prefix).
    pub(crate) fn name(self) -> &'static str {
        match self {
            TxnOp::CommitAll => "commit",
            TxnOp::RevertAll => "revert",
            TxnOp::CommitRefs(_) => "commit_refs",
            TxnOp::RevertRefs(_) => "revert_refs",
            TxnOp::CommitFunc(_) => "commit_func",
            TxnOp::RevertFunc(_) => "revert_func",
        }
    }
}

/// One planned unit of work. Planning resolves variant selection up
/// front, so validate and apply agree on what will happen.
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Install variant `vi` of function `fi` (sites + entry jump).
    /// `repatch` marks an install where the bookkeeping already said
    /// "this variant is bound" but the image bytes did not verify, so
    /// the writes are re-applied to heal it.
    Install { fi: usize, vi: usize, repatch: bool },
    /// Restore function `fi` to its generic body. `fallback` marks the
    /// Fig. 3 d case (no variant admitted the configuration) as opposed
    /// to an explicit revert.
    RevertFn { fi: usize, fallback: bool },
    /// Re-bind the call sites of the function-pointer switch at
    /// `var_addr` to its current target.
    BindFnPtr { var_addr: u64 },
    /// Restore the call sites of the function-pointer switch.
    RevertFnPtr { var_addr: u64 },
}

impl Action {
    /// Generic entry of the function this action concerns, for error
    /// attribution.
    fn function(&self, rt: &Runtime) -> Option<u64> {
        match *self {
            Action::Install { fi, .. } | Action::RevertFn { fi, .. } => {
                Some(rt.fns[fi].desc.generic)
            }
            Action::BindFnPtr { .. } | Action::RevertFnPtr { .. } => None,
        }
    }
}

/// Output of the planning phase: the actions that must run, plus the
/// delta-planning accounting for everything that did *not* need to —
/// functions already bound to the selected variant with verified sites,
/// function-pointer switches already aimed at their target, generic
/// fallbacks already fully generic. A no-change `commit()` plans an
/// empty action list and therefore performs zero text writes.
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
    /// Why patching this site would fail, if it would.
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
        let mut old = [0u8; crate::journal::MAX_SPAN];
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

    /// Phase 0 — planning. Reads switches, resolves variant selection and
    /// consults the runtime bookkeeping to produce the action list:
    /// anything already in its selected state is *skipped* (delta
    /// planning) and accounted in the returned [`TxnPlan`].
    /// Address-resolution failures (`UnknownVariable`,
    /// `UnknownFunction`) surface raw — they are API misuse, not
    /// transaction failures — while selection failures are wrapped with
    /// [`CommitPhase::Plan`].
    fn plan_ops(&mut self, m: &Machine, op: TxnOp) -> Result<TxnPlan, RtError> {
        let mut plan = TxnPlan::default();
        match op {
            TxnOp::CommitAll => {
                for fi in 0..self.fns.len() {
                    self.plan_commit_fn(m, fi, &mut plan)?;
                }
                for vi in 0..self.vars.len() {
                    let var_addr = self.vars[vi].addr;
                    if self.vars[vi].fn_ptr && self.sites_of.contains_key(&var_addr) {
                        self.plan_bind_fnptr(m, var_addr, &mut plan);
                    }
                }
            }
            TxnOp::RevertAll => {
                for fi in 0..self.fns.len() {
                    plan.actions.push(Action::RevertFn {
                        fi,
                        fallback: false,
                    });
                }
                for v in &self.vars {
                    if v.fn_ptr && self.sites_of.contains_key(&v.addr) {
                        plan.actions.push(Action::RevertFnPtr { var_addr: v.addr });
                    }
                }
            }
            TxnOp::CommitRefs(var_addr) => {
                let &vi = self
                    .var_by_addr
                    .get(&var_addr)
                    .ok_or(RtError::UnknownVariable(var_addr))?;
                if self.vars[vi].fn_ptr {
                    self.plan_bind_fnptr(m, var_addr, &mut plan);
                } else {
                    for fi in 0..self.fns.len() {
                        if self.references_var(fi, var_addr) {
                            self.plan_commit_fn(m, fi, &mut plan)?;
                        }
                    }
                }
            }
            TxnOp::RevertRefs(var_addr) => {
                let &vi = self
                    .var_by_addr
                    .get(&var_addr)
                    .ok_or(RtError::UnknownVariable(var_addr))?;
                if self.vars[vi].fn_ptr {
                    plan.actions.push(Action::RevertFnPtr { var_addr });
                } else {
                    for fi in 0..self.fns.len() {
                        if self.references_var(fi, var_addr) {
                            plan.actions.push(Action::RevertFn {
                                fi,
                                fallback: false,
                            });
                        }
                    }
                }
            }
            TxnOp::CommitFunc(fn_addr) => {
                let &fi = self
                    .fn_by_addr
                    .get(&fn_addr)
                    .ok_or(RtError::UnknownFunction(fn_addr))?;
                self.plan_commit_fn(m, fi, &mut plan)?;
            }
            TxnOp::RevertFunc(fn_addr) => {
                let &fi = self
                    .fn_by_addr
                    .get(&fn_addr)
                    .ok_or(RtError::UnknownFunction(fn_addr))?;
                plan.actions.push(Action::RevertFn {
                    fi,
                    fallback: false,
                });
            }
        }
        Ok(plan)
    }

    /// Plans the commit of one function: selects the variant the current
    /// configuration admits, or a revert-to-generic fallback (Fig. 3 d).
    /// Delta planning: if the bookkeeping says the selected state is
    /// already installed *and* the image bytes verify, no action is
    /// emitted; bookkeeping-says-installed with mismatching bytes plans a
    /// healing re-install (`repatch`).
    fn plan_commit_fn(
        &mut self,
        m: &Machine,
        fi: usize,
        plan: &mut TxnPlan,
    ) -> Result<(), RtError> {
        if self.fns[fi].desc.variants.is_empty() {
            return Ok(());
        }
        let generic = self.fns[fi].desc.generic;
        match self.select_variant(m, fi) {
            Ok(Some(vi)) => {
                let v_addr = self.fns[fi].desc.variants[vi].addr;
                if self.fns[fi].binding == FnBinding::Variant(v_addr) {
                    if self.commit_fn_unchanged(m, fi, vi) {
                        let sites = match self.strategy {
                            PatchStrategy::CallSites => self.callsites_of(generic) as u64,
                            PatchStrategy::EntryOnly => 0,
                        };
                        plan.unchanged += 1;
                        plan.sites_skipped += sites;
                        self.emit(|| EventKind::ActionSkipped {
                            function: generic,
                            sites,
                        });
                    } else {
                        plan.actions.push(Action::Install {
                            fi,
                            vi,
                            repatch: true,
                        });
                    }
                } else {
                    plan.actions.push(Action::Install {
                        fi,
                        vi,
                        repatch: false,
                    });
                }
            }
            Ok(None) => {
                if self.fn_generic_unchanged(fi) {
                    plan.skipped_fallbacks += 1;
                    self.emit(|| EventKind::ActionSkipped {
                        function: generic,
                        sites: 0,
                    });
                } else {
                    plan.actions.push(Action::RevertFn { fi, fallback: true });
                }
            }
            Err(e) => {
                return Err(RtError::Commit {
                    phase: CommitPhase::Plan,
                    function: Some(generic),
                    source: Box::new(e),
                })
            }
        }
        Ok(())
    }

    /// Plans the re-bind of one function-pointer switch, delta-skipping
    /// it when every recorded site is already bound to the switch's
    /// current target and verifies. A null target keeps the action so
    /// the validate phase reports [`RtError::BadFnPtrTarget`].
    fn plan_bind_fnptr(&mut self, m: &Machine, var_addr: u64, plan: &mut TxnPlan) {
        if self.fnptr_unchanged(m, var_addr) {
            let sites = self.callsites_of(var_addr) as u64;
            plan.unchanged += 1;
            plan.sites_skipped += sites;
            self.emit(|| EventKind::ActionSkipped {
                function: var_addr,
                sites,
            });
        } else {
            plan.actions.push(Action::BindFnPtr { var_addr });
        }
    }

    /// `true` if function `fi` is verifiably already in the state an
    /// install of variant `vi` would produce: prologue saved, the entry
    /// jump bytes in place, and (under call-site patching) every
    /// recorded site bound the way the install would bind it, with its
    /// bytes verifying. Any read failure or mismatch conservatively
    /// reports "changed", so the install runs and surfaces the problem
    /// through the normal validate/apply machinery.
    fn commit_fn_unchanged(&self, m: &Machine, fi: usize, vi: usize) -> bool {
        let f = &self.fns[fi];
        let v = &f.desc.variants[vi];
        if f.saved_prologue.is_none() {
            return false;
        }
        let Ok(jmp) = MV64.encode_jmp(f.desc.generic, v.addr) else {
            return false;
        };
        match Span::read(&m.mem, f.desc.generic, jmp.len()) {
            Ok(cur) if *cur == jmp => {}
            _ => return false,
        }
        if self.strategy == PatchStrategy::CallSites {
            if let Some(idxs) = self.sites_of.get(&f.desc.generic) {
                for &si in idxs {
                    let s = &self.sites[si];
                    let expected = if self.inline_enabled
                        && v.inline_len != NOT_INLINABLE
                        && (v.inline_len as usize) <= s.len
                    {
                        SiteBinding::Inlined(v.addr)
                    } else {
                        SiteBinding::Call(v.addr)
                    };
                    if s.binding != expected || self.check_site_patchable(m, si).is_err() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// `true` if function `fi` is already fully generic (nothing saved,
    /// nothing bound, every site untouched) — the generic-fallback
    /// revert would write nothing.
    fn fn_generic_unchanged(&self, fi: usize) -> bool {
        let f = &self.fns[fi];
        if f.saved_prologue.is_some() || f.binding != FnBinding::Generic {
            return false;
        }
        match self.sites_of.get(&f.desc.generic) {
            Some(idxs) => idxs
                .iter()
                .all(|&si| self.sites[si].binding == SiteBinding::Original),
            None => true,
        }
    }

    /// `true` if every site of the function-pointer switch at `var_addr`
    /// is already bound the way [`Runtime::commit_fnptr_var`] would bind
    /// it for the switch's current target, with verifying bytes.
    fn fnptr_unchanged(&self, m: &Machine, var_addr: u64) -> bool {
        let Ok(target) = m.mem.read_uint(var_addr, 8) else {
            return false;
        };
        if target == 0 {
            return false;
        }
        let inline = self.fn_by_addr.get(&target).and_then(|&fi| {
            let il = self.fns[fi].desc.generic_inline_len;
            (self.inline_enabled && il != NOT_INLINABLE).then_some(il)
        });
        let Some(idxs) = self.sites_of.get(&var_addr) else {
            return true;
        };
        for &si in idxs {
            let s = &self.sites[si];
            let expected = match inline {
                Some(il) if (il as usize) <= s.len => SiteBinding::Inlined(target),
                _ => SiteBinding::Call(target),
            };
            if s.binding != expected || self.check_site_patchable(m, si).is_err() {
                return false;
            }
        }
        true
    }

    /// Phase 1 — validation. Re-checks, read-only, everything the apply
    /// phase will rely on: call-site bytes, page protections, body
    /// readability, descriptor constraints. Failures come back as
    /// [`RtError::Commit`] with [`CommitPhase::Validate`]; nothing has
    /// been written.
    fn validate_actions(&self, m: &Machine, actions: &[Action]) -> Result<(), RtError> {
        for a in actions {
            let checked = match *a {
                Action::Install { fi, vi, .. } => self.validate_install(m, fi, vi),
                Action::RevertFn { fi, .. } => self.validate_revert_fn(m, fi),
                Action::BindFnPtr { var_addr } => self.validate_bind_fnptr(m, var_addr),
                Action::RevertFnPtr { var_addr } => self.validate_revert_fnptr(m, var_addr),
            };
            checked.map_err(|e| RtError::Commit {
                phase: CommitPhase::Validate,
                function: a.function(self),
                source: Box::new(e),
            })?;
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

    fn validate_install(&self, m: &Machine, fi: usize, vi: usize) -> Result<(), RtError> {
        let f = &self.fns[fi];
        let v = &f.desc.variants[vi];
        // Completeness patching needs room for the entry jump.
        if f.desc.generic_size < MV64.call_site_len() as u32 {
            return Err(RtError::GenericTooSmall {
                function: f.desc.generic,
                size: f.desc.generic_size,
            });
        }
        // Entry prologue must be readable, executable text, the variant
        // entry executable text too, and the variant within rel32 reach
        // of the entry jump.
        m.mem.check_read(f.desc.generic, MV64.call_site_len())?;
        self.check_exec(m, f.desc.generic)?;
        self.check_exec(m, v.addr)?;
        MV64.encode_jmp(f.desc.generic, v.addr)?;
        // The variant body must be readable if it may be inlined.
        let may_inline = self.inline_enabled && v.inline_len != NOT_INLINABLE;
        if may_inline {
            m.mem.check_read(v.addr, v.inline_len as usize)?;
        }
        if self.strategy == PatchStrategy::CallSites {
            if let Some(idxs) = self.sites_of.get(&f.desc.generic) {
                for &si in idxs {
                    self.check_site_patchable(m, si)?;
                    // Sites that will be rewritten (not inlined) must be
                    // within rel32 reach of the variant.
                    if !(may_inline && (v.inline_len as usize) <= self.sites[si].len) {
                        MV64.encode_call(self.sites[si].desc.site, v.addr)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_revert_fn(&self, m: &Machine, fi: usize) -> Result<(), RtError> {
        let f = &self.fns[fi];
        if let Some(idxs) = self.sites_of.get(&f.desc.generic) {
            for &si in idxs {
                if self.sites[si].binding != SiteBinding::Original {
                    m.mem
                        .check_read(self.sites[si].desc.site, self.sites[si].len)?;
                    self.check_exec(m, self.sites[si].desc.site)?;
                }
            }
        }
        if f.saved_prologue.is_some() {
            m.mem.check_read(f.desc.generic, MV64.call_site_len())?;
            self.check_exec(m, f.desc.generic)?;
        }
        Ok(())
    }

    fn validate_bind_fnptr(&self, m: &Machine, var_addr: u64) -> Result<(), RtError> {
        let target = m.mem.read_uint(var_addr, 8)?;
        if target == 0 {
            return Err(RtError::BadFnPtrTarget { var_addr, target });
        }
        let mut inline_len = None;
        if let Some(&fi) = self.fn_by_addr.get(&target) {
            let il = self.fns[fi].desc.generic_inline_len;
            if self.inline_enabled && il != NOT_INLINABLE {
                m.mem.check_read(target, il as usize)?;
                inline_len = Some(il);
            }
        }
        if let Some(idxs) = self.sites_of.get(&var_addr) {
            for &si in idxs {
                self.check_site_patchable(m, si)?;
                if inline_len.is_none_or(|il| (il as usize) > self.sites[si].len) {
                    MV64.encode_call(self.sites[si].desc.site, target)?;
                }
            }
        }
        Ok(())
    }

    fn validate_revert_fnptr(&self, m: &Machine, var_addr: u64) -> Result<(), RtError> {
        if let Some(idxs) = self.sites_of.get(&var_addr) {
            for &si in idxs {
                if self.sites[si].binding != SiteBinding::Original {
                    m.mem
                        .check_read(self.sites[si].desc.site, self.sites[si].len)?;
                    self.check_exec(m, self.sites[si].desc.site)?;
                }
            }
        }
        Ok(())
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
        let mut failure = self.execute_actions(m, actions, &mut report).err();
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

    /// Runs the planned actions, attributing any failure to the function
    /// being processed.
    #[allow(clippy::type_complexity)]
    fn execute_actions(
        &mut self,
        m: &mut Machine,
        actions: &[Action],
        report: &mut CommitReport,
    ) -> Result<(), (Option<u64>, RtError)> {
        for a in actions {
            let function = a.function(self);
            match *a {
                Action::Install { fi, vi, repatch } => {
                    let sites = self.install_variant(m, fi, vi).map_err(|e| (function, e))?;
                    report.sites_touched += sites;
                    report.variants_committed += 1;
                    if repatch {
                        report.repatched += 1;
                    }
                }
                Action::RevertFn { fi, fallback } => {
                    let sites = self.revert_fn_idx(m, fi).map_err(|e| (function, e))?;
                    report.sites_touched += sites;
                    if fallback {
                        report.generic_fallbacks += 1;
                        self.stats.generic_fallbacks += 1;
                    }
                }
                Action::BindFnPtr { var_addr } => {
                    self.commit_fnptr_var(m, var_addr, report)
                        .map_err(|e| (function, e))?;
                }
                Action::RevertFnPtr { var_addr } => {
                    let sites = self
                        .revert_fnptr_var(m, var_addr)
                        .map_err(|e| (function, e))?;
                    report.sites_touched += sites;
                }
            }
        }
        Ok(())
    }

    /// The transaction driver: plan → validate → apply, retried under
    /// [`Runtime::retry`] for transient faults.
    pub(crate) fn run_txn(&mut self, m: &mut Machine, op: TxnOp) -> Result<CommitReport, RtError> {
        self.last_timing = PatchTiming::default();
        self.emit(|| EventKind::CommitBegin { op: op.name() });
        let mut attempt = 0u32;
        let result = loop {
            // Re-plan every attempt: switches may have changed, and the
            // rollback restored the pre-commit image.
            let result = self.attempt_txn(m, op);
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
        let (stats, timing) = (self.stats, self.last_timing);
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.record_txn(op.name(), result.is_ok(), stats, timing);
        }
        result
    }

    /// One plan → validate → apply cycle, with each phase timed into
    /// [`Runtime::last_timing`] (accumulating across attempts) and
    /// bracketed by trace events.
    fn attempt_txn(&mut self, m: &mut Machine, op: TxnOp) -> Result<CommitReport, RtError> {
        self.emit(|| EventKind::PhaseBegin {
            phase: TracePhase::Plan,
        });
        let t = Instant::now();
        let planned = self.plan_ops(m, op);
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

    /// Dry-run validation: everything a full [`Runtime::commit`] would
    /// check in its validate phase, with nothing written. Powers the
    /// `mvcc verify` health report.
    pub fn validate(&self, m: &Machine) -> ValidationReport {
        let mut report = ValidationReport::default();
        for (fi, f) in self.fns.iter().enumerate() {
            let mut health = FnHealth {
                generic: f.desc.generic,
                binding: f.binding,
                selected: None,
                issue: None,
            };
            if !f.desc.variants.is_empty() {
                match self.select_variant(m, fi) {
                    Ok(Some(vi)) => {
                        health.selected = Some(f.desc.variants[vi].addr);
                        health.issue = self
                            .validate_install(m, fi, vi)
                            .err()
                            .map(|e| e.to_string());
                    }
                    Ok(None) => {
                        health.issue = self.validate_revert_fn(m, fi).err().map(|e| e.to_string());
                    }
                    Err(e) => health.issue = Some(e.to_string()),
                }
            }
            report.functions.push(health);
        }
        for (si, s) in self.sites.iter().enumerate() {
            let issue = self
                .check_site_patchable(m, si)
                .err()
                .map(|e| e.to_string());
            report.sites.push(SiteHealth {
                site: s.desc.site,
                callee: s.desc.callee,
                patched: s.binding != SiteBinding::Original,
                issue,
            });
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
