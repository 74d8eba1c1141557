//! Concurrent commit: quiescing an SMP machine around a transaction.
//!
//! On a single core, `multiverse_commit()` can patch text between two
//! instructions and nothing can observe the intermediate state. With
//! true SMP execution ([`SmpMachine`]) the other vCPUs keep fetching
//! while the runtime writes, and two hazards appear — exactly the
//! cross-modifying-code hazards the kernel's `text_poke` machinery
//! exists for:
//!
//! * a vCPU whose `pc` (or a saved return address) points strictly
//!   *inside* a byte range the commit rewrites resumes in the middle of
//!   the new instruction — a torn fetch;
//! * a vCPU whose private instruction cache still holds a decode of the
//!   old bytes keeps executing them until an IPI shootdown evicts it —
//!   stale code. Under a block tier ([`mvvm::ExecTier`]) the same IPI
//!   also evicts exactly the decoded blocks spanning the flushed range
//!   from every per-vCPU block cache, in lockstep with the per-insn
//!   decode caches, so quiesced commits need no extra work regardless
//!   of the execution tier.
//!
//! This module provides the two classic protocols as
//! [`CommitStrategy`]:
//!
//! * **Stop-machine** (`stop_machine()` in Linux): rendezvous every
//!   vCPU at a safepoint — a `pc` outside every to-be-patched region
//!   interior with no saved return address inside one — park them all,
//!   run the ordinary journaled transaction while the world is stopped,
//!   shoot down the instruction caches and release. Simple, but every
//!   vCPU stalls for the whole window.
//! * **Breakpoint-first** (`text_poke_bp()`): plant a 1-byte trap
//!   ([`mvasm::Insn::Trap`], `0xCC`) over the *first* byte of every
//!   region, shoot down icaches so the traps are seen, and keep the
//!   machine running — only vCPUs that actually reach a patched region
//!   trap and stall, everyone else makes progress. Once no vCPU is left
//!   inside a region interior, the trap bytes are restored, the
//!   transaction applies while the stragglers are held on their traps,
//!   icaches are shot down again and the trapped vCPUs released to
//!   re-fetch the (new) first byte.
//!
//! Both paths end in the same place: the journaled plan → validate →
//! apply transaction of [`crate::txn`], so a mid-apply fault still rolls
//! the image back byte-identically — the quiesce layer then restores its
//! own trap bytes (breakpoint path), shoots down the caches and releases
//! the vCPUs, so a failed concurrent commit leaves the machine running
//! the old image, unharmed.
//!
//! A custom [`mvvm::smp::TrapHandler`] that answers
//! [`mvvm::TrapDisposition::Skip`] would step a vCPU *past* a planted
//! trap byte into the region interior; leave quiesced commits on the
//! default stall disposition.

use crate::error::RtError;
use crate::runtime::{CommitReport, PatchStrategy, Runtime};
use crate::txn::TxnOp;
use mvasm::MV64;
use mvobj::Prot;
use mvtrace::EventKind;
use mvvm::{FaultOp, Machine, MemError, SmpMachine, VcpuState};

/// How a commit quiesces the other vCPUs. See the module docs for the
/// two protocols.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitStrategy {
    /// Rendezvous and park every vCPU for the whole commit window.
    #[default]
    StopMachine,
    /// Trap bytes at region starts; only vCPUs entering a patched
    /// region stall.
    Breakpoint,
}

impl CommitStrategy {
    /// Stable protocol name, as it appears in trace events and CLI
    /// flags.
    pub fn name(self) -> &'static str {
        match self {
            CommitStrategy::StopMachine => "stop-machine",
            CommitStrategy::Breakpoint => "breakpoint",
        }
    }

    /// Parses a CLI spelling (`stop-machine`/`stop`/`breakpoint`/`bp`).
    pub fn parse(s: &str) -> Option<CommitStrategy> {
        match s {
            "stop-machine" | "stop" => Some(CommitStrategy::StopMachine),
            "breakpoint" | "bp" => Some(CommitStrategy::Breakpoint),
            _ => None,
        }
    }
}

impl std::fmt::Display for CommitStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a quiesced commit did, beyond the transaction's own
/// [`CommitReport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct QuiesceReport {
    /// The underlying transaction's report.
    pub commit: CommitReport,
    /// Protocol used.
    pub strategy: CommitStrategy,
    /// Scheduler rounds spent inside the quiesce window (rendezvous or
    /// breakpoint drain).
    pub rounds: u64,
    /// vCPUs parked by the stop-machine rendezvous (0 under
    /// breakpoint).
    pub parked: usize,
    /// Trap-byte hits absorbed during the breakpoint drain (0 under
    /// stop-machine).
    pub trap_hits: u64,
    /// IPI icache shootdowns issued.
    pub shootdowns: u64,
    /// Stall cycles charged to vCPUs while the window was open.
    pub stall_cycles: u64,
}

/// Rendezvous/drain round budget before a quiesce gives up. Generous:
/// a vCPU inside a region interior leaves it within a handful of
/// instructions unless it loops there forever.
const MAX_QUIESCE_ROUNDS: u64 = 10_000;

/// Byte ranges `[start, end)` the transaction may write, computed
/// conservatively (delta-planning skips are *not* subtracted: a region
/// the commit ends up not touching is still safe to quiesce around).
fn danger_regions(rt: &Runtime, op: TxnOp) -> Result<Vec<(u64, u64)>, RtError> {
    let mut fns: Vec<usize> = Vec::new();
    let mut ptr_vars: Vec<u64> = Vec::new();
    match op {
        TxnOp::CommitAll | TxnOp::RevertAll => {
            fns.extend(0..rt.fns.len());
            ptr_vars.extend(rt.vars.iter().filter(|v| v.fn_ptr).map(|v| v.addr));
        }
        TxnOp::CommitRefs(a) | TxnOp::RevertRefs(a) => {
            let &vi = rt.var_by_addr.get(&a).ok_or(RtError::UnknownVariable(a))?;
            if rt.vars[vi].fn_ptr {
                ptr_vars.push(a);
            } else {
                fns.extend((0..rt.fns.len()).filter(|&fi| rt.references_var(fi, a)));
            }
        }
        TxnOp::CommitFunc(a) | TxnOp::RevertFunc(a) => {
            let &fi = rt.fn_by_addr.get(&a).ok_or(RtError::UnknownFunction(a))?;
            fns.push(fi);
        }
    }
    let mut regions: Vec<(u64, u64)> = Vec::new();
    for fi in fns {
        let f = &rt.fns[fi];
        if f.desc.variants.is_empty() {
            continue;
        }
        let g = f.desc.generic;
        // The completeness entry jump overwrites the first call-site's
        // worth of generic bytes in every strategy.
        regions.push((g, g + MV64.call_site_len() as u64));
        if matches!(rt.strategy, PatchStrategy::CallSites) {
            if let Some(idxs) = rt.sites_of.get(&g) {
                for &si in idxs {
                    let s = &rt.sites[si];
                    regions.push((s.desc.site, s.desc.site + s.len as u64));
                }
            }
        }
    }
    for va in ptr_vars {
        if let Some(idxs) = rt.sites_of.get(&va) {
            for &si in idxs {
                let s = &rt.sites[si];
                regions.push((s.desc.site, s.desc.site + s.len as u64));
            }
        }
    }
    regions.sort_unstable();
    regions.dedup();
    Ok(regions)
}

/// `true` if `addr` lies strictly inside one of the regions. The
/// boundaries are safe: a `pc` *at* a region start re-decodes whatever
/// the commit put there (after the shootdown), and a return address at
/// `end` resumes past the rewritten bytes.
fn inside_interior(regions: &[(u64, u64)], addr: u64) -> bool {
    regions.iter().any(|&(s, e)| addr > s && addr < e)
}

/// Frames walked per vCPU when checking saved return addresses.
const BACKTRACE_DEPTH: usize = 64;

/// `true` if vCPU `i` must not be present while the regions are
/// rewritten: its `pc` or a saved return address is inside an interior.
fn vcpu_unsafe(smp: &SmpMachine, i: usize, regions: &[(u64, u64)]) -> bool {
    if inside_interior(regions, smp.pc_of(i)) {
        return true;
    }
    smp.backtrace_of(i, BACKTRACE_DEPTH)
        .iter()
        .any(|&ra| inside_interior(regions, ra))
}

/// Writes `byte` over `addr` through the ordinary mprotect → write →
/// mprotect → flush dance (fault-injectable like any other patch).
fn poke_byte(rt: &mut Runtime, m: &mut Machine, addr: u64, byte: u8) -> Result<(), RtError> {
    let r = crate::patch::patch_bytes(m, addr, &[byte], &mut rt.stats);
    if r.is_err() {
        // A fault inside the dance can strand the page RW — W^X broken
        // under vCPUs that are still executing it. Relock best-effort,
        // outside the stats so probe-counted fault schedules of a clean
        // commit stay aligned with the failing run.
        let _ = m.mem.mprotect(addr, 1, Prot::RX);
    }
    r
}

impl Runtime {
    /// Records one quiesce window into the metrics registry, if
    /// enabled — called wherever a `QuiesceEnd` trace event is emitted
    /// so traces and metrics agree on window counts.
    fn note_quiesce(
        &mut self,
        strategy: CommitStrategy,
        ok: bool,
        rounds: u64,
        parked: u64,
        trap_hits: u64,
        stall_cycles: u64,
    ) {
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.record_quiesce(strategy.name(), ok, rounds, parked, trap_hits, stall_cycles);
        }
    }

    /// Issues a full remote icache shootdown and emits the trace event.
    ///
    /// A real broadcast always acknowledges at least one invalidated
    /// cache (the machine's resident one), so a `0` return means the
    /// IPI was lost (a [`FaultOp::Shootdown`] plan, or nothing at all
    /// on a hypothetical broken interconnect) — re-issue once. A
    /// one-shot lost IPI is thereby absorbed exactly like a dropped
    /// local icache flush; a sticky loss still returns `0` and leaves
    /// stale decodes, which the caller's drain/commit oracle surfaces.
    fn shoot_down_all(&mut self, smp: &mut SmpMachine) -> u64 {
        let mut shot = smp.flush_remote(None) as u64;
        if shot == 0 {
            shot = smp.flush_remote(None) as u64;
        }
        self.emit(|| EventKind::IcacheShootdown {
            start: 0,
            end: 0,
            vcpus: shot,
        });
        shot
    }

    /// `multiverse_commit()` against a running [`SmpMachine`], quiesced
    /// under `strategy`. See [`Runtime::run_quiesced`].
    pub fn commit_quiesced(
        &mut self,
        smp: &mut SmpMachine,
        strategy: CommitStrategy,
    ) -> Result<QuiesceReport, RtError> {
        self.run_quiesced(smp, TxnOp::CommitAll, strategy)
    }

    /// `multiverse_revert()` against a running [`SmpMachine`], quiesced
    /// under `strategy`. See [`Runtime::run_quiesced`].
    pub fn revert_quiesced(
        &mut self,
        smp: &mut SmpMachine,
        strategy: CommitStrategy,
    ) -> Result<QuiesceReport, RtError> {
        self.run_quiesced(smp, TxnOp::RevertAll, strategy)
    }

    /// Runs one Table 1 operation as a quiesced transaction on an SMP
    /// machine.
    ///
    /// On `Ok` the operation committed, every vCPU has been released,
    /// and the icache shootdown made the new text visible everywhere.
    /// On `Err` the transaction rolled back (or never wrote — see
    /// [`RtError::commit_phase`]), any trap bytes were restored, and
    /// the vCPUs were likewise shot down and released: the machine keeps
    /// running the old image.
    pub fn run_quiesced(
        &mut self,
        smp: &mut SmpMachine,
        op: TxnOp,
        strategy: CommitStrategy,
    ) -> Result<QuiesceReport, RtError> {
        match strategy {
            CommitStrategy::StopMachine => self.quiesce_stop_machine(smp, op),
            CommitStrategy::Breakpoint => self.quiesce_breakpoint(smp, op),
        }
    }

    /// Stop-machine: rendezvous every vCPU at a safepoint, park the
    /// world, run the transaction, shoot down, release.
    fn quiesce_stop_machine(
        &mut self,
        smp: &mut SmpMachine,
        op: TxnOp,
    ) -> Result<QuiesceReport, RtError> {
        let regions = danger_regions(self, op)?;
        let n = smp.vcpus();
        self.emit(|| EventKind::QuiesceBegin {
            strategy: CommitStrategy::StopMachine.name(),
            vcpus: n as u64,
        });
        let stall0 = smp.total_stall_cycles();
        let shoot0 = smp.shootdowns();
        let mut rounds = 0u64;
        let mut parked: Vec<usize> = Vec::new();
        loop {
            let mut pending = false;
            for i in 0..n {
                if !matches!(smp.state(i), VcpuState::Runnable) {
                    continue;
                }
                if vcpu_unsafe(smp, i, &regions) {
                    pending = true;
                } else {
                    smp.park(i);
                    parked.push(i);
                    let pc = smp.pc_of(i);
                    self.emit(|| EventKind::VcpuParked { vcpu: i as u64, pc });
                }
            }
            if !pending {
                // Even with every vCPU already at a safepoint the
                // rendezvous is not free: each live CPU takes the IPI
                // and spins in the stopper loop for at least one round
                // — the fixed all-CPU cost that made Linux grow
                // `text_poke_bp`. Charge it unless the machine is idle.
                if parked.is_empty() || rounds >= 1 {
                    break;
                }
            }
            if rounds >= MAX_QUIESCE_ROUNDS {
                for &i in &parked {
                    smp.unpark(i);
                }
                self.emit(|| EventKind::QuiesceEnd { ok: false, rounds });
                self.note_quiesce(
                    CommitStrategy::StopMachine,
                    false,
                    rounds,
                    parked.len() as u64,
                    0,
                    smp.total_stall_cycles() - stall0,
                );
                return Err(RtError::Quiesce {
                    reason: "rendezvous never found a safepoint on every vcpu",
                    rounds,
                });
            }
            smp.step_round();
            rounds += 1;
        }
        // The world is stopped: apply the ordinary journaled transaction
        // host-atomically, then make it visible before anyone resumes.
        let result = self.run_txn(&mut smp.machine, op);
        self.shoot_down_all(smp);
        for &i in &parked {
            smp.unpark(i);
        }
        let ok = result.is_ok();
        self.emit(|| EventKind::QuiesceEnd { ok, rounds });
        let stall_cycles = smp.total_stall_cycles() - stall0;
        self.note_quiesce(
            CommitStrategy::StopMachine,
            ok,
            rounds,
            parked.len() as u64,
            0,
            stall_cycles,
        );
        Ok(QuiesceReport {
            commit: result?,
            strategy: CommitStrategy::StopMachine,
            rounds,
            parked: parked.len(),
            trap_hits: 0,
            shootdowns: smp.shootdowns() - shoot0,
            stall_cycles,
        })
    }

    /// Breakpoint-first: plant trap bytes, drain region interiors while
    /// the rest of the machine keeps running, patch under the traps,
    /// release.
    fn quiesce_breakpoint(
        &mut self,
        smp: &mut SmpMachine,
        op: TxnOp,
    ) -> Result<QuiesceReport, RtError> {
        let regions = danger_regions(self, op)?;
        let n = smp.vcpus();
        self.emit(|| EventKind::QuiesceBegin {
            strategy: CommitStrategy::Breakpoint.name(),
            vcpus: n as u64,
        });
        let stall0 = smp.total_stall_cycles();
        let shoot0 = smp.shootdowns();
        let traps0 = smp.trap_hits();

        // Plant a trap byte over the first byte of every region,
        // journaled locally so a mid-plant fault can unwind.
        let trap = MV64.trap_byte();
        let mut planted: Vec<(u64, u8)> = Vec::new();
        for &(start, _) in &regions {
            let mut orig = [0u8; 1];
            // A FaultPlan targeting trap plants fails this plant before
            // the byte lands — the poke racing a concurrent protection
            // change. Reported like any W^X violation (mapped: true),
            // indistinguishable from the real thing. Restores through
            // restore_traps never consume this counter.
            let r = if smp.machine.mem.trip_fault(FaultOp::TrapPlant, start) {
                Err(RtError::from(MemError {
                    addr: start,
                    access: mvvm::mem::Access::Write,
                    mapped: true,
                }))
            } else {
                smp.machine
                    .mem
                    .read(start, &mut orig)
                    .map_err(RtError::from)
                    .and_then(|()| poke_byte(self, &mut smp.machine, start, trap))
            };
            if let Err(e) = r {
                // The failed poke may already have landed the trap byte
                // (the RX relock or the flush faulted after the write):
                // hand it to the unwind so the original byte comes back.
                let mut cur = [0u8; 1];
                if smp.machine.mem.read(start, &mut cur).is_ok()
                    && cur[0] == trap
                    && cur[0] != orig[0]
                {
                    planted.push((start, orig[0]));
                }
                self.unwind_traps(smp, &planted)?;
                self.emit(|| EventKind::QuiesceEnd {
                    ok: false,
                    rounds: 0,
                });
                self.note_quiesce(
                    CommitStrategy::Breakpoint,
                    false,
                    0,
                    0,
                    smp.trap_hits() - traps0,
                    smp.total_stall_cycles() - stall0,
                );
                return Err(e);
            }
            planted.push((start, orig[0]));
        }
        self.shoot_down_all(smp);

        // Drain: step the machine until no vCPU sits inside a region
        // interior. vCPUs reaching a region start hit the trap and
        // stall; everyone else keeps making progress.
        let mut rounds = 0u64;
        let mut trapped_seen = vec![false; n];
        loop {
            for (i, seen) in trapped_seen.iter_mut().enumerate() {
                if let VcpuState::Trapped { addr } = *smp.state(i) {
                    if !*seen && planted.iter().any(|&(a, _)| a == addr) {
                        *seen = true;
                        self.emit(|| EventKind::TrapHit {
                            vcpu: i as u64,
                            addr,
                        });
                    }
                }
            }
            let pending = (0..n).any(|i| smp.state(i).is_live() && vcpu_unsafe(smp, i, &regions));
            if !pending {
                break;
            }
            if rounds >= MAX_QUIESCE_ROUNDS {
                self.unwind_traps(smp, &planted)?;
                self.emit(|| EventKind::QuiesceEnd { ok: false, rounds });
                self.note_quiesce(
                    CommitStrategy::Breakpoint,
                    false,
                    rounds,
                    0,
                    smp.trap_hits() - traps0,
                    smp.total_stall_cycles() - stall0,
                );
                return Err(RtError::Quiesce {
                    reason: "breakpoint drain never emptied the patched regions",
                    rounds,
                });
            }
            smp.step_round();
            rounds += 1;
        }

        // Restore the original first bytes so the transaction's validate
        // phase sees pristine text, then apply while the stragglers are
        // still held on their traps (they re-fetch only after release).
        if let Err(e) = self.restore_traps(&mut smp.machine, &planted) {
            self.shoot_down_all(smp);
            self.release_planted(smp, &planted);
            self.emit(|| EventKind::QuiesceEnd { ok: false, rounds });
            self.note_quiesce(
                CommitStrategy::Breakpoint,
                false,
                rounds,
                0,
                smp.trap_hits() - traps0,
                smp.total_stall_cycles() - stall0,
            );
            return Err(e);
        }
        let result = self.run_txn(&mut smp.machine, op);
        self.shoot_down_all(smp);
        self.release_planted(smp, &planted);
        let ok = result.is_ok();
        self.emit(|| EventKind::QuiesceEnd { ok, rounds });
        let trap_hits = smp.trap_hits() - traps0;
        let stall_cycles = smp.total_stall_cycles() - stall0;
        self.note_quiesce(
            CommitStrategy::Breakpoint,
            ok,
            rounds,
            0,
            trap_hits,
            stall_cycles,
        );
        Ok(QuiesceReport {
            commit: result?,
            strategy: CommitStrategy::Breakpoint,
            rounds,
            parked: 0,
            trap_hits,
            shootdowns: smp.shootdowns() - shoot0,
            stall_cycles,
        })
    }

    /// Restores every planted trap byte. A restore failure reports the
    /// first address that could not be healed — the image is torn there
    /// (a trap byte remains), like a journal rollback failure.
    fn restore_traps(&mut self, m: &mut Machine, planted: &[(u64, u8)]) -> Result<(), RtError> {
        // Best effort over every byte first: one transiently failing
        // poke must not strand the traps planted after it.
        let mut first_err = None;
        let mut failed: Vec<(u64, u8)> = Vec::new();
        for &(addr, orig) in planted {
            if let Err(e) = poke_byte(self, m, addr, orig) {
                if first_err.is_none() {
                    first_err = Some(e);
                }
                failed.push((addr, orig));
            }
        }
        // Second chance for the failures. A byte that still cannot be
        // restored leaves a trap in the text segment — the torn state
        // the kernel treats as unrecoverable (`text_poke_bp` BUG()s).
        for &(addr, orig) in &failed {
            poke_byte(self, m, addr, orig).map_err(|e| RtError::RollbackFailed {
                addr,
                source: Box::new(e),
            })?;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Failure unwind during planting: restore what was written, make it
    /// visible, and release anyone who already trapped.
    fn unwind_traps(&mut self, smp: &mut SmpMachine, planted: &[(u64, u8)]) -> Result<(), RtError> {
        let restored = self.restore_traps(&mut smp.machine, planted);
        self.shoot_down_all(smp);
        self.release_planted(smp, planted);
        restored
    }

    /// Releases every vCPU trapped on one of *our* trap addresses
    /// (a trap planted by someone else stays held).
    fn release_planted(&mut self, smp: &mut SmpMachine, planted: &[(u64, u8)]) {
        for i in 0..smp.vcpus() {
            if let VcpuState::Trapped { addr } = *smp.state(i) {
                if planted.iter().any(|&(a, _)| a == addr) {
                    smp.release_trap(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_excludes_boundaries() {
        let regions = [(0x100u64, 0x105u64), (0x200, 0x209)];
        assert!(!inside_interior(&regions, 0x100));
        assert!(inside_interior(&regions, 0x101));
        assert!(inside_interior(&regions, 0x104));
        assert!(!inside_interior(&regions, 0x105));
        assert!(!inside_interior(&regions, 0x1ff));
        assert!(inside_interior(&regions, 0x208));
        assert!(!inside_interior(&regions, 0x209));
    }

    #[test]
    fn strategy_names_parse_back() {
        for s in [CommitStrategy::StopMachine, CommitStrategy::Breakpoint] {
            assert_eq!(CommitStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(
            CommitStrategy::parse("bp"),
            Some(CommitStrategy::Breakpoint)
        );
        assert_eq!(CommitStrategy::parse("nope"), None);
    }
}
