//! The run-time library proper: descriptor interpretation, variant
//! selection, and the commit/revert API of Table 1.
//!
//! Since the transactional rework, every public commit/revert operation
//! runs as a two-phase transaction (see [`crate::txn`]): a read-only
//! *validate* pass plans and checks all work, then a journaled *apply*
//! pass performs it; any apply failure rolls the journal back so the
//! text segment is left byte-identical to its pre-call state.

use crate::error::RtError;
use crate::journal::{Journal, Span};
use crate::patch::{insn_at, PageBatch};
use crate::stats::{OpTally, PatchStats, PatchTiming};
use crate::txn::{RetryPolicy, TxnOp};
use mvasm::{Insn, MV64};
use mvobj::descriptor::{
    parse_callsites, parse_functions, parse_variables, CallsiteDesc, FnDesc, VarDesc,
};
use mvobj::{Executable, SEC_MV_CALLSITES, SEC_MV_FUNCTIONS, SEC_MV_VARIABLES};
use mvtrace::{EventKind, TraceRing};
use mvvm::fx::FxHashMap;
use mvvm::{ExecTier, Machine};
use std::time::Duration;

/// How commits install variants — the §7.1 design-space ablation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PatchStrategy {
    /// The paper's mechanism: rewrite every recorded call site (and
    /// inline short bodies), plus the completeness entry jump.
    #[default]
    CallSites,
    /// The rejected alternative, approximated: only the generic entry is
    /// redirected (one patch per function, like body patching would
    /// need). Calls pay an extra jump and nothing is ever inlined, but
    /// patching is O(functions) instead of O(call sites).
    EntryOnly,
}

/// Current binding of a multiversed function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FnBinding {
    /// The generic body is live; switches are evaluated dynamically.
    Generic,
    /// A specialized variant (by entry address) is committed.
    Variant(u64),
}

/// How a call site is currently bound.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SiteBinding {
    /// Untouched original instruction.
    Original,
    /// Rewritten to a direct call to this target.
    Call(u64),
    /// A variant body was inlined (recorded by variant address).
    Inlined(u64),
}

/// A call site and its patch state.
#[derive(Clone, Debug)]
pub(crate) struct SiteState {
    pub(crate) desc: CallsiteDesc,
    /// Total patchable length: 5 for a `call rel32` site, 9 for a
    /// `call *[mem]` (function-pointer) site.
    pub(crate) len: usize,
    /// The bytes found at attach, restored by a revert.
    pub(crate) original: Span,
    pub(crate) binding: SiteBinding,
}

/// A multiversed function and its patch state.
#[derive(Clone, Debug)]
pub(crate) struct FnState {
    pub(crate) desc: FnDesc,
    /// The switch (index into `Runtime::vars`) each guard reads, variant
    /// by variant, resolved at attach; `None` for a guard on an address
    /// no variable descriptor names, which fails the first selection
    /// that reaches it.
    pub(crate) guard_vars: Vec<Option<usize>>,
    pub(crate) binding: FnBinding,
    /// The generic entry's first call-site's worth of bytes, saved by the
    /// first entry jump and restored by a revert.
    pub(crate) saved_prologue: Option<Span>,
}

/// Switch values read during one plan, by variable index.
#[derive(Default)]
pub(crate) struct SwitchValues(Vec<Option<i64>>);

impl SwitchValues {
    pub(crate) fn new(vars: usize) -> SwitchValues {
        SwitchValues(vec![None; vars])
    }

    /// Forgets every value: a new plan reads afresh.
    pub(crate) fn clear(&mut self) {
        self.0.fill(None);
    }

    /// The value of variable `i`, read from guest memory the first time.
    fn read(&mut self, m: &Machine, vars: &[VarDesc], i: usize) -> Result<i64, RtError> {
        if let Some(v) = self.0[i] {
            return Ok(v);
        }
        let var = &vars[i];
        let v = m.mem.read_int(var.addr, var.width as usize, var.signed)?;
        self.0[i] = Some(v);
        Ok(v)
    }
}

/// Outcome of a commit operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitReport {
    /// Functions now bound to a specialized variant.
    pub variants_committed: usize,
    /// Functions left on (or reverted to) the generic body because no
    /// variant admitted the current switch values — the signalled
    /// situation of Fig. 3 d.
    pub generic_fallbacks: usize,
    /// Function-pointer call sites re-bound.
    pub fnptr_sites: usize,
    /// Call sites visited in this operation.
    pub sites_touched: usize,
    /// Functions and function-pointer switches delta planning skipped
    /// because the image already matched the selected state — the commit
    /// fast path. Skipped generic fallbacks count here *and* in
    /// [`CommitReport::generic_fallbacks`].
    pub unchanged: usize,
    /// Installs re-applied because the bookkeeping said "already bound"
    /// but the image bytes did not verify (healing re-install). Each is
    /// also counted in [`CommitReport::variants_committed`].
    pub repatched: usize,
}

/// The attached multiverse runtime for one loaded program.
pub struct Runtime {
    pub(crate) vars: Vec<VarDesc>,
    pub(crate) var_by_addr: FxHashMap<u64, usize>,
    /// The switch values the current plan has read, by variable index,
    /// so selection reads each switch at most once per plan.
    pub(crate) switch_values: SwitchValues,
    pub(crate) fns: Vec<FnState>,
    pub(crate) fn_by_addr: FxHashMap<u64, usize>,
    pub(crate) sites: Vec<SiteState>,
    /// callee address (generic entry or fn-pointer variable) → site indices.
    pub(crate) sites_of: FxHashMap<u64, Vec<usize>>,
    /// The undo log of the current (or last) apply phase, cleared when
    /// an apply phase begins so each one reuses the allocation.
    pub(crate) undo: Journal,
    /// Cumulative patching statistics.
    pub stats: PatchStats,
    /// Host wall-clock time spent patching, cumulative. Includes failed
    /// operations (validation, partial applies and their rollbacks).
    pub patch_time: Duration,
    /// Patch strategy (default: call-site patching).
    pub strategy: PatchStrategy,
    /// Whether short bodies may be inlined into call sites (default on).
    pub inline_enabled: bool,
    /// RW windows of the current (or last) apply phase: one per touched
    /// text page, relocked and flushed once when the phase ends.
    pub(crate) batch: PageBatch,
    /// Bounded retry for transient apply-phase faults (default: off).
    pub retry: RetryPolicy,
    /// Structured-event ring, installed by [`Runtime::enable_tracing`]
    /// (default: off — the hot path then pays one branch per would-be
    /// event and nothing else).
    pub tracer: Option<TraceRing>,
    /// Timing of the most recent commit/revert operation, with the
    /// per-phase breakdown accumulated across its attempts.
    pub last_timing: PatchTiming,
    /// Per-operation tallies (outcomes, phase times, quiesce windows),
    /// kept by every transaction and quiesce window.
    pub tally: OpTally,
}

// The commit daemon moves whole runtimes across threads.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Runtime>();
};

impl Runtime {
    /// Parses the descriptor sections out of the loaded image and verifies
    /// every recorded call site.
    ///
    /// Mirrors the library initialization of §5: the descriptors are read
    /// from the process image itself (the linker already concatenated and
    /// relocated them).
    pub fn attach(m: &Machine, exe: &Executable) -> Result<Runtime, RtError> {
        let read_sec = |name: &str| -> Result<Vec<u8>, RtError> {
            let (addr, size) = exe.section(name);
            if size == 0 {
                return Ok(Vec::new());
            }
            Ok(m.mem.read_vec(addr, size as usize)?)
        };
        let vars = parse_variables(&read_sec(SEC_MV_VARIABLES)?)?;
        let fn_descs = parse_functions(&read_sec(SEC_MV_FUNCTIONS)?)?;
        let site_descs = parse_callsites(&read_sec(SEC_MV_CALLSITES)?)?;

        let var_by_addr: FxHashMap<u64, usize> =
            vars.iter().enumerate().map(|(i, v)| (v.addr, i)).collect();
        let fn_by_addr: FxHashMap<u64, usize> = fn_descs
            .iter()
            .enumerate()
            .map(|(i, f)| (f.generic, i))
            .collect();

        let mut sites = Vec::with_capacity(site_descs.len());
        let mut sites_of: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
        for desc in site_descs {
            let insn = insn_at(m, desc.site)?;
            let len = match insn {
                Insn::CallRel { rel } => {
                    let t = MV64.call_target(desc.site, rel);
                    if t != desc.callee {
                        return Err(RtError::SiteVerifyFailed {
                            site: desc.site,
                            what: format!(
                                "initial call targets {t:#x}, descriptor says {:#x}",
                                desc.callee
                            ),
                        });
                    }
                    MV64.call_site_len()
                }
                Insn::CallMem { addr } => {
                    if addr != desc.callee {
                        return Err(RtError::SiteVerifyFailed {
                            site: desc.site,
                            what: format!(
                                "indirect call through {addr:#x}, descriptor says {:#x}",
                                desc.callee
                            ),
                        });
                    }
                    insn.len()
                }
                other => {
                    return Err(RtError::SiteVerifyFailed {
                        site: desc.site,
                        what: format!("found `{other}`, expected a call"),
                    })
                }
            };
            let original = Span::read(&m.mem, desc.site, len)?;
            sites_of.entry(desc.callee).or_default().push(sites.len());
            sites.push(SiteState {
                desc,
                len,
                original,
                binding: SiteBinding::Original,
            });
        }

        Ok(Runtime {
            switch_values: SwitchValues::new(vars.len()),
            fns: fn_descs
                .into_iter()
                .map(|desc| FnState {
                    guard_vars: desc
                        .variants
                        .iter()
                        .flat_map(|v| &v.guards)
                        .map(|g| var_by_addr.get(&g.var_addr).copied())
                        .collect(),
                    desc,
                    binding: FnBinding::Generic,
                    saved_prologue: None,
                })
                .collect(),
            vars,
            var_by_addr,
            fn_by_addr,
            sites,
            sites_of,
            undo: Journal::new(),
            stats: PatchStats::default(),
            patch_time: Duration::ZERO,
            strategy: PatchStrategy::default(),
            inline_enabled: true,
            batch: PageBatch::default(),
            retry: RetryPolicy::default(),
            tracer: None,
            last_timing: PatchTiming::default(),
            tally: OpTally::default(),
        })
    }

    /// Keeps the machine's native regions on the live bindings: on
    /// [`ExecTier::Native`] the live entry of every multiversed function
    /// (the committed variant, or the generic body under fallback) gets a
    /// lowered region and regions rooted anywhere else are dropped. On
    /// any other tier it does nothing. Every successful transaction runs
    /// it, unicore and quiesced alike.
    pub fn sync_native(&self, m: &mut Machine) {
        if m.tier() != ExecTier::Native {
            return;
        }
        // A Variant binding means calls land on the variant directly
        // (patched sites) or through the entry jump, which itself stays
        // on the block engine, so entry jumps need no chasing.
        let live: Vec<u64> = self
            .fns
            .iter()
            .map(|f| match f.binding {
                FnBinding::Variant(v) => v,
                FnBinding::Generic => f.desc.generic,
            })
            .collect();
        m.retain_native(|entry| live.contains(&entry));
        for &entry in &live {
            // Best-effort: a body the lowerer cannot digest stays on the
            // block engine, which runs it identically.
            m.ensure_native(entry);
        }
    }

    /// Installs a bounded event ring (capacity clamped to
    /// [`mvtrace::MAX_RING_CAP`]). Every subsequent commit/revert emits
    /// its span events into the ring.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Some(TraceRing::new(cap));
    }

    /// Uninstalls the ring and returns everything it buffered (oldest
    /// first). Returns an empty vec if tracing was never enabled.
    pub fn take_trace(&mut self) -> Vec<mvtrace::Event> {
        self.tracer.take().map(|r| r.snapshot()).unwrap_or_default()
    }

    /// Events the installed ring has dropped to overflow so far (0 with
    /// no ring). Read this *before* [`Runtime::take_trace`] detaches the
    /// ring; exporters surface it so a truncated trace is never silently
    /// misread as complete.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |r| r.dropped())
    }

    /// Copies the buffered events out without uninstalling the ring.
    pub fn trace_snapshot(&self) -> Vec<mvtrace::Event> {
        self.tracer
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default()
    }

    /// Records one event if a ring is installed. The closure only runs
    /// (and the event is only constructed) then, so with tracing off
    /// this inlines to a single predictable branch on `self.tracer`.
    #[inline]
    pub(crate) fn emit(&mut self, kind: impl FnOnce() -> EventKind) {
        if let Some(ring) = self.tracer.as_mut() {
            ring.record(kind());
        }
    }

    /// Number of known configuration switches.
    pub fn num_variables(&self) -> usize {
        self.vars.len()
    }

    /// Addresses of the integer configuration switches, in descriptor
    /// order (function-pointer switches excluded) — for tooling that
    /// flips every switch it can find.
    pub fn switch_addrs(&self) -> Vec<u64> {
        self.vars
            .iter()
            .filter(|v| !v.fn_ptr)
            .map(|v| v.addr)
            .collect()
    }

    /// Number of multiversed functions.
    pub fn num_functions(&self) -> usize {
        self.fns.len()
    }

    /// Number of recorded call sites.
    pub fn num_callsites(&self) -> usize {
        self.sites.len()
    }

    /// Call sites recorded for the callee at `addr` (generic function or
    /// function-pointer switch).
    pub fn callsites_of(&self, addr: u64) -> usize {
        self.sites_of.get(&addr).map_or(0, |v| v.len())
    }

    /// Current binding of the function whose generic entry is `addr`.
    pub fn binding_of(&self, addr: u64) -> Option<FnBinding> {
        self.fn_by_addr.get(&addr).map(|&i| self.fns[i].binding)
    }

    /// The variant entry addresses of the function at `addr` (for tests
    /// and tooling).
    pub fn variants_of(&self, addr: u64) -> Option<Vec<u64>> {
        self.fn_by_addr
            .get(&addr)
            .map(|&i| self.fns[i].desc.variants.iter().map(|v| v.addr).collect())
    }

    /// Reads the current value of the configuration switch at `addr`,
    /// honoring its descriptor's width and signedness.
    pub fn read_switch(&self, m: &Machine, addr: u64) -> Result<i64, RtError> {
        let &i = self
            .var_by_addr
            .get(&addr)
            .ok_or(RtError::UnknownVariable(addr))?;
        let v = &self.vars[i];
        Ok(m.mem.read_int(v.addr, v.width as usize, v.signed)?)
    }

    /// Writes a configuration switch (convenience for hosts; guest code
    /// writes switches with ordinary stores).
    pub fn write_switch(&self, m: &mut Machine, addr: u64, value: i64) -> Result<(), RtError> {
        let &i = self
            .var_by_addr
            .get(&addr)
            .ok_or(RtError::UnknownVariable(addr))?;
        let v = &self.vars[i];
        Ok(m.mem.write_int(v.addr, value as u64, v.width as usize)?)
    }

    /// The first variant of function `fi` whose guards all admit the
    /// current switch values, or `None` (the generic fallback). A
    /// switch is read when a guard first needs it and remembered in
    /// `values`, so an unreadable or unknown switch fails at the first
    /// guard that reads it.
    pub(crate) fn select_variant(
        &self,
        m: &Machine,
        fi: usize,
        values: &mut SwitchValues,
    ) -> Result<Option<usize>, RtError> {
        let f = &self.fns[fi];
        let mut at = 0;
        'variants: for (vi, v) in f.desc.variants.iter().enumerate() {
            // Each variant's guards own the next `guards.len()` entries.
            let vars = &f.guard_vars[at..at + v.guards.len()];
            at += v.guards.len();
            for (g, &var) in v.guards.iter().zip(vars) {
                let var = var.ok_or(RtError::UnknownGuardVariable {
                    function: f.desc.generic,
                    var_addr: g.var_addr,
                })?;
                if !g.admits(values.read(m, &self.vars, var)?) {
                    continue 'variants;
                }
            }
            return Ok(Some(vi));
        }
        Ok(None)
    }

    /// `multiverse_commit()`: inspect all switches, select and install
    /// variants for every multiversed function, and re-bind every
    /// function-pointer switch.
    ///
    /// Transactional: on `Err` the text segment is byte-identical to its
    /// state before the call (unless the error's phase is
    /// [`crate::CommitPhase::Rollback`], which reports a failed restore).
    pub fn commit(&mut self, m: &mut Machine) -> Result<CommitReport, RtError> {
        self.run_txn(m, &self.units(TxnOp::CommitAll)?)
    }

    /// `multiverse_revert()`: restore the original process image
    /// everywhere. Transactional like [`Runtime::commit`].
    pub fn revert(&mut self, m: &mut Machine) -> Result<CommitReport, RtError> {
        self.run_txn(m, &self.units(TxnOp::RevertAll)?)
    }

    /// `multiverse_commit_refs(&var)`: commit only the functions whose
    /// variants are guarded by the switch at `var_addr` (or, for a
    /// function-pointer switch, its call sites). Transactional like
    /// [`Runtime::commit`].
    pub fn commit_refs(&mut self, m: &mut Machine, var_addr: u64) -> Result<CommitReport, RtError> {
        self.run_txn(m, &self.units(TxnOp::CommitRefs(var_addr))?)
    }

    /// `multiverse_revert_refs(&var)`. Transactional like
    /// [`Runtime::commit`].
    pub fn revert_refs(&mut self, m: &mut Machine, var_addr: u64) -> Result<CommitReport, RtError> {
        self.run_txn(m, &self.units(TxnOp::RevertRefs(var_addr))?)
    }

    /// `multiverse_commit_func(&fn)`: commit a single function by its
    /// generic entry address. Transactional like [`Runtime::commit`].
    pub fn commit_func(&mut self, m: &mut Machine, fn_addr: u64) -> Result<CommitReport, RtError> {
        self.run_txn(m, &self.units(TxnOp::CommitFunc(fn_addr))?)
    }

    /// `multiverse_revert_func(&fn)`. Transactional like
    /// [`Runtime::commit`].
    pub fn revert_func(&mut self, m: &mut Machine, fn_addr: u64) -> Result<CommitReport, RtError> {
        self.run_txn(m, &self.units(TxnOp::RevertFunc(fn_addr))?)
    }

    pub(crate) fn references_var(&self, fi: usize, var_addr: u64) -> bool {
        self.fns[fi]
            .desc
            .variants
            .iter()
            .any(|v| v.guards.iter().any(|g| g.var_addr == var_addr))
    }
}
