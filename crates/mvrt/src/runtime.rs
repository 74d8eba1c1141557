//! The run-time library proper: descriptor interpretation, variant
//! selection, and the commit/revert API of Table 1.
//!
//! Since the transactional rework, every public commit/revert operation
//! runs as a two-phase transaction (see [`crate::txn`]): a read-only
//! *validate* pass plans and checks all work, then a journaled *apply*
//! pass performs it; any apply failure rolls the journal back so the
//! text segment is left byte-identical to its pre-call state.

use crate::error::RtError;
use crate::journal::{Journal, Span, MAX_SPAN};
use crate::patch::{insn_at, PageBatch};
use crate::stats::{PatchStats, PatchTiming};
use crate::txn::{RetryPolicy, TxnOp};
use mvasm::{Insn, MV64};
use mvobj::descriptor::{
    parse_callsites, parse_functions, parse_variables, CallsiteDesc, FnDesc, VarDesc, NOT_INLINABLE,
};
use mvobj::{Executable, SEC_MV_CALLSITES, SEC_MV_FUNCTIONS, SEC_MV_VARIABLES};
use mvtrace::{EventKind, TraceRing};
use mvvm::fx::FxHashMap;
use mvvm::{ExecTier, Machine};
use std::time::{Duration, Instant};

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
    pub(crate) binding: FnBinding,
    /// The generic entry's first call-site's worth of bytes, saved by the
    /// first entry jump and restored by a revert.
    pub(crate) saved_prologue: Option<Span>,
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
    /// Metrics handles, installed by [`Runtime::enable_metrics`]
    /// (default: off — commits then pay one branch per operation and
    /// nothing else).
    pub metrics: Option<crate::metrics::RtMetrics>,
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
            vars,
            var_by_addr,
            fns: fn_descs
                .into_iter()
                .map(|desc| FnState {
                    desc,
                    binding: FnBinding::Generic,
                    saved_prologue: None,
                })
                .collect(),
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
            metrics: None,
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

    /// Registers the `mv_rt_*` metric family in `registry` and starts
    /// recording per-operation telemetry. Recording is once per
    /// commit/revert (never per patched byte): an outcome tally, an
    /// absolute [`PatchStats`] sync, and the phase timing of the
    /// operation.
    pub fn enable_metrics(&mut self, registry: &mvmetrics::Registry) {
        self.metrics = Some(crate::metrics::RtMetrics::new(registry));
    }

    /// Installs a bounded event ring (capacity clamped to
    /// [`mvtrace::MAX_RING_CAP`]) and globally enables tracing. Every
    /// subsequent commit/revert emits its span events into the ring.
    pub fn enable_tracing(&mut self, cap: usize) {
        mvtrace::set_enabled(true);
        self.tracer = Some(TraceRing::new(cap));
    }

    /// Uninstalls the ring and returns everything it buffered (oldest
    /// first). Returns an empty vec if tracing was never enabled. The
    /// global enabled flag is left on: other runtimes in the process may
    /// still be tracing.
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

    /// Records one event if tracing is on. The closure only runs (and
    /// the event is only constructed) when a ring is installed *and* the
    /// global flag is set, so with tracing off this inlines to a single
    /// predictable branch on `self.tracer`.
    #[inline]
    pub(crate) fn emit(&mut self, kind: impl FnOnce() -> EventKind) {
        if let Some(ring) = self.tracer.as_mut() {
            if mvtrace::enabled() {
                ring.record(kind());
            }
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

    pub(crate) fn select_variant(&self, m: &Machine, fi: usize) -> Result<Option<usize>, RtError> {
        let f = &self.fns[fi];
        'variants: for (vi, v) in f.desc.variants.iter().enumerate() {
            for g in &v.guards {
                let &var_i =
                    self.var_by_addr
                        .get(&g.var_addr)
                        .ok_or(RtError::UnknownGuardVariable {
                            function: f.desc.generic,
                            var_addr: g.var_addr,
                        })?;
                let var = &self.vars[var_i];
                let value = m.mem.read_int(var.addr, var.width as usize, var.signed)?;
                if !g.admits(value) {
                    continue 'variants;
                }
            }
            return Ok(Some(vi));
        }
        Ok(None)
    }

    fn patch_site_to(
        &mut self,
        m: &mut Machine,
        si: usize,
        target: u64,
        inline: Option<(u64, u32)>,
    ) -> Result<(), RtError> {
        // §4's "check the site still points at the expected target" is
        // the validate phase's byte check of every site; apply trusts it.
        let (site, len) = (self.sites[si].desc.site, self.sites[si].len);
        let mut image = [0u8; MAX_SPAN];
        let image = &mut image[..len];
        let new_binding = match inline {
            Some((body_addr, inline_len)) if (inline_len as usize) <= len => {
                let body = Span::read(&m.mem, body_addr, inline_len as usize)?;
                self.stats.sites_inlined += 1;
                MV64.inline_image(&body, image)?;
                SiteBinding::Inlined(body_addr)
            }
            _ => {
                MV64.call_image(site, target, image)?;
                SiteBinding::Call(target)
            }
        };
        self.write_text(m, site, image)?;
        self.stats.sites_patched += 1;
        self.sites[si].binding = new_binding;
        match new_binding {
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

    /// Runs `f` over the recorded sites of `callee`, in record order,
    /// and returns how many there are. The list is moved out of
    /// [`Runtime::sites_of`] for the walk and back after it, so the walk
    /// copies nothing; `f` must not read the map.
    fn for_sites_of(
        &mut self,
        callee: u64,
        mut f: impl FnMut(&mut Runtime, usize) -> Result<(), RtError>,
    ) -> Result<usize, RtError> {
        let Some(list) = self.sites_of.get_mut(&callee) else {
            return Ok(0);
        };
        let idxs = std::mem::take(list);
        let walked = idxs.iter().try_for_each(|&si| f(self, si));
        let n = idxs.len();
        *self
            .sites_of
            .get_mut(&callee)
            .expect("the list stays keyed") = idxs;
        walked.map(|()| n)
    }

    pub(crate) fn install_variant(
        &mut self,
        m: &mut Machine,
        fi: usize,
        vi: usize,
    ) -> Result<usize, RtError> {
        let (generic, v_addr, v_inline) = {
            let f = &self.fns[fi];
            let v = &f.desc.variants[vi];
            (f.desc.generic, v.addr, v.inline_len)
        };
        let inline = if self.inline_enabled && v_inline != NOT_INLINABLE {
            Some((v_addr, v_inline))
        } else {
            None
        };
        // Patch all recorded call sites of the generic function (the
        // EntryOnly strategy leaves them aimed at the generic entry, where
        // the jump redirects them).
        let sites = match self.strategy {
            PatchStrategy::CallSites => {
                self.for_sites_of(generic, |rt, si| rt.patch_site_to(m, si, v_addr, inline))?
            }
            PatchStrategy::EntryOnly => 0,
        };
        // Completeness: overwrite the generic entry with `jmp variant`,
        // saving the prologue the first time.
        let jmp = MV64.encode_jmp(generic, v_addr)?;
        if self.fns[fi].saved_prologue.is_none() {
            let saved = Span::read(&m.mem, generic, MV64.call_site_len())?;
            self.fns[fi].saved_prologue = Some(saved);
        }
        self.write_text(m, generic, &jmp)?;
        self.stats.entry_jumps += 1;
        self.fns[fi].binding = FnBinding::Variant(v_addr);
        self.stats.committed_variants += 1;
        self.emit(|| EventKind::EntryJumpWritten {
            function: generic,
            variant: v_addr,
        });
        Ok(sites)
    }

    pub(crate) fn revert_fn_idx(&mut self, m: &mut Machine, fi: usize) -> Result<usize, RtError> {
        let generic = self.fns[fi].desc.generic;
        let sites = self.for_sites_of(generic, |rt, si| rt.restore_site(m, si))?;
        if let Some(prologue) = self.fns[fi].saved_prologue {
            self.write_text(m, generic, &prologue)?;
            self.fns[fi].saved_prologue = None;
            self.stats.prologues_restored += 1;
            self.emit(|| EventKind::PrologueRestored { function: generic });
        }
        self.fns[fi].binding = FnBinding::Generic;
        Ok(sites)
    }

    pub(crate) fn commit_fnptr_var(
        &mut self,
        m: &mut Machine,
        var_addr: u64,
        report: &mut CommitReport,
    ) -> Result<(), RtError> {
        let target = m.mem.read_uint(var_addr, 8)?;
        if target == 0 {
            return Err(RtError::BadFnPtrTarget { var_addr, target });
        }
        // If the pointee is a described function with an inlinable body,
        // inline it into the sites (PV-Ops style); otherwise bind a direct
        // call.
        let inline = self.fn_by_addr.get(&target).and_then(|&fi| {
            let il = self.fns[fi].desc.generic_inline_len;
            (self.inline_enabled && il != NOT_INLINABLE).then_some((target, il))
        });
        let sites = self.for_sites_of(var_addr, |rt, si| {
            rt.patch_site_to(m, si, target, inline)?;
            report.fnptr_sites += 1;
            Ok(())
        })?;
        report.sites_touched += sites;
        Ok(())
    }

    pub(crate) fn revert_fnptr_var(
        &mut self,
        m: &mut Machine,
        var_addr: u64,
    ) -> Result<usize, RtError> {
        self.for_sites_of(var_addr, |rt, si| rt.restore_site(m, si))
    }

    /// Runs `op` as a transaction, charging wall-clock time to
    /// [`Runtime::patch_time`] whether it succeeds or fails, and filling
    /// in [`Runtime::last_timing`].
    fn timed(&mut self, m: &mut Machine, op: TxnOp) -> Result<CommitReport, RtError> {
        let start = Instant::now();
        let result = self.run_txn(m, op);
        let elapsed = start.elapsed();
        self.patch_time += elapsed;
        self.last_timing.elapsed = elapsed;
        if let Ok(report) = &result {
            self.last_timing.sites = report.sites_touched as u64;
        }
        result
    }

    /// `multiverse_commit()`: inspect all switches, select and install
    /// variants for every multiversed function, and re-bind every
    /// function-pointer switch.
    ///
    /// Transactional: on `Err` the text segment is byte-identical to its
    /// state before the call (unless the error's phase is
    /// [`crate::CommitPhase::Rollback`], which reports a failed restore).
    pub fn commit(&mut self, m: &mut Machine) -> Result<CommitReport, RtError> {
        self.timed(m, TxnOp::CommitAll)
    }

    /// `multiverse_revert()`: restore the original process image
    /// everywhere. Transactional like [`Runtime::commit`].
    pub fn revert(&mut self, m: &mut Machine) -> Result<CommitReport, RtError> {
        self.timed(m, TxnOp::RevertAll)
    }

    /// `multiverse_commit_refs(&var)`: commit only the functions whose
    /// variants are guarded by the switch at `var_addr` (or, for a
    /// function-pointer switch, its call sites). Transactional like
    /// [`Runtime::commit`].
    pub fn commit_refs(&mut self, m: &mut Machine, var_addr: u64) -> Result<CommitReport, RtError> {
        if !self.var_by_addr.contains_key(&var_addr) {
            return Err(RtError::UnknownVariable(var_addr));
        }
        self.timed(m, TxnOp::CommitRefs(var_addr))
    }

    /// `multiverse_revert_refs(&var)`. Transactional like
    /// [`Runtime::commit`].
    pub fn revert_refs(&mut self, m: &mut Machine, var_addr: u64) -> Result<CommitReport, RtError> {
        if !self.var_by_addr.contains_key(&var_addr) {
            return Err(RtError::UnknownVariable(var_addr));
        }
        self.timed(m, TxnOp::RevertRefs(var_addr))
    }

    /// `multiverse_commit_func(&fn)`: commit a single function by its
    /// generic entry address. Transactional like [`Runtime::commit`].
    pub fn commit_func(&mut self, m: &mut Machine, fn_addr: u64) -> Result<CommitReport, RtError> {
        if !self.fn_by_addr.contains_key(&fn_addr) {
            return Err(RtError::UnknownFunction(fn_addr));
        }
        self.timed(m, TxnOp::CommitFunc(fn_addr))
    }

    /// `multiverse_revert_func(&fn)`. Transactional like
    /// [`Runtime::commit`].
    pub fn revert_func(&mut self, m: &mut Machine, fn_addr: u64) -> Result<CommitReport, RtError> {
        if !self.fn_by_addr.contains_key(&fn_addr) {
            return Err(RtError::UnknownFunction(fn_addr));
        }
        self.timed(m, TxnOp::RevertFunc(fn_addr))
    }

    pub(crate) fn references_var(&self, fi: usize, var_addr: u64) -> bool {
        self.fns[fi]
            .desc
            .variants
            .iter()
            .any(|v| v.guards.iter().any(|g| g.var_addr == var_addr))
    }
}
