//! Negative tests of the runtime: malformed descriptor sections and
//! descriptor/text mismatches must be rejected at attach, and injected
//! patching faults ([`mvvm::FaultPlan`]) must leave committed state
//! either fully applied or byte-identically rolled back.

use mvasm::{Assembler, Insn, Reg};
use mvobj::descriptor::{
    emit_callsite, emit_function, emit_variable, CallsiteDescSym, FnDescSym, GuardSym, VarDescSym,
    VariantDescSym, NOT_INLINABLE,
};
use mvobj::{link, Executable, Layout, Object, SectionKind};
use mvrt::{CommitPhase, RetryPolicy, RtError, Runtime};
use mvvm::{CostModel, FaultPlan, Machine, MachineConfig};

fn base_object() -> Object {
    let mut o = Object::new("t");
    let mut a = Assembler::new();
    a.emit(Insn::Halt);
    o.add_code("main", &a.finish().unwrap());
    o
}

fn attach(o: Object) -> Result<Runtime, RtError> {
    let exe = link(&[o], &Layout::default()).unwrap();
    let mut m = Machine::new(CostModel::default(), MachineConfig::default());
    m.load(&exe);
    Runtime::attach(&m, &exe)
}

#[test]
fn truncated_variable_section_is_rejected() {
    let mut o = base_object();
    // 31 bytes: not a multiple of the 32-byte record size.
    o.append(mvobj::SEC_MV_VARIABLES, SectionKind::Rodata, &[0u8; 31]);
    assert!(matches!(attach(o), Err(RtError::Desc(_))));
}

#[test]
fn truncated_callsite_section_is_rejected() {
    let mut o = base_object();
    o.append(mvobj::SEC_MV_CALLSITES, SectionKind::Rodata, &[0u8; 17]);
    assert!(matches!(attach(o), Err(RtError::Desc(_))));
}

#[test]
fn function_section_with_phantom_variants_is_rejected() {
    let mut o = base_object();
    // A 48-byte header claiming 3 variants with no variant records.
    let mut rec = vec![0u8; 48];
    rec[16..20].copy_from_slice(&3u32.to_le_bytes());
    o.append(mvobj::SEC_MV_FUNCTIONS, SectionKind::Rodata, &rec);
    assert!(matches!(attach(o), Err(RtError::Desc(_))));
}

#[test]
fn callsite_descriptor_must_point_at_a_call() {
    // A descriptor whose site address holds a `halt`, not a call.
    let mut o = base_object();
    let mut a = Assembler::new();
    a.ret();
    o.add_code("victim", &a.finish().unwrap());
    emit_callsite(
        &mut o,
        &CallsiteDescSym {
            callee: "victim".into(),
            caller: "main".into(),
            offset: 0, // main+0 is `halt`, not a call
        },
    );
    let err = match attach(o) {
        Err(e) => e,
        Ok(_) => panic!("attach must fail"),
    };
    assert!(matches!(err, RtError::SiteVerifyFailed { .. }), "{err:?}");
}

#[test]
fn callsite_descriptor_with_wrong_callee_is_rejected() {
    // The call at the site targets a different function than the
    // descriptor claims.
    let mut o = base_object();
    let mut a = Assembler::new();
    a.ret();
    o.add_code("real_target", &a.finish().unwrap());
    let mut a = Assembler::new();
    a.ret();
    o.add_code("claimed_target", &a.finish().unwrap());
    let mut a = Assembler::new();
    let off = a.len() as u32;
    a.call_sym("real_target", false);
    a.ret();
    o.add_code("caller_fn", &a.finish().unwrap());
    emit_callsite(
        &mut o,
        &CallsiteDescSym {
            callee: "claimed_target".into(),
            caller: "caller_fn".into(),
            offset: off,
        },
    );
    let err = match attach(o) {
        Err(e) => e,
        Ok(_) => panic!("attach must fail"),
    };
    assert!(matches!(err, RtError::SiteVerifyFailed { .. }), "{err:?}");
}

#[test]
fn empty_descriptor_sections_attach_cleanly() {
    let rt = attach(base_object()).unwrap();
    assert_eq!(rt.num_variables(), 0);
    assert_eq!(rt.num_functions(), 0);
    assert_eq!(rt.num_callsites(), 0);
}

// --- transactional fault-injection tests ------------------------------

/// A minimal multiversed program: switch `A`, function `mv` with an
/// A=0 / A=1 variant pair, and a recorded call site in `caller`. A full
/// commit performs several text writes (call site + entry jump per
/// function), giving injected faults mid-commit positions to hit.
fn mv_fixture() -> (Machine, Executable, Runtime) {
    mv_fixture_with_generic_size(None)
}

/// [`mv_fixture`] with the descriptor's `generic_size` overridden.
fn mv_fixture_with_generic_size(generic_size: Option<u32>) -> (Machine, Executable, Runtime) {
    let mut o = Object::new("t");
    o.define_bss("A", 4);
    let mut a = Assembler::new();
    a.emit(Insn::Halt);
    o.add_code("main", &a.finish().unwrap());

    let mut a = Assembler::new();
    a.load_sym(Reg::R0, "A", 0, mvasm::Width::W32, true);
    a.ret();
    let g = a.finish().unwrap();
    let g_size = g.bytes.len() as u32;
    o.add_code("mv", &g);
    for (sym, val) in [("mv.A=0", 0i64), ("mv.A=1", 1i64)] {
        let mut a = Assembler::new();
        a.mov_ri(Reg::R0, val);
        a.ret();
        let v = a.finish().unwrap();
        let size = v.bytes.len() as u32;
        o.add_code(sym, &v);
        let _ = size;
    }
    let mut a = Assembler::new();
    let off = a.len() as u32;
    a.call_sym("mv", true);
    a.ret();
    o.add_code("caller", &a.finish().unwrap());
    emit_callsite(
        &mut o,
        &CallsiteDescSym {
            callee: "mv".into(),
            caller: "caller".into(),
            offset: off,
        },
    );
    emit_variable(
        &mut o,
        &VarDescSym {
            symbol: "A".into(),
            width: 4,
            signed: true,
            fn_ptr: false,
            name_sym: None,
        },
    );
    emit_function(
        &mut o,
        &FnDescSym {
            symbol: "mv".into(),
            generic_size: generic_size.unwrap_or(g_size),
            generic_inline_len: NOT_INLINABLE,
            name_sym: None,
            variants: vec![
                VariantDescSym {
                    symbol: "mv.A=0".into(),
                    body_size: 11,
                    inline_len: NOT_INLINABLE,
                    guards: vec![GuardSym {
                        var_symbol: "A".into(),
                        low: 0,
                        high: 0,
                    }],
                },
                VariantDescSym {
                    symbol: "mv.A=1".into(),
                    body_size: 11,
                    inline_len: NOT_INLINABLE,
                    guards: vec![GuardSym {
                        var_symbol: "A".into(),
                        low: 1,
                        high: 1,
                    }],
                },
            ],
        },
    );
    let exe = link(&[o], &Layout::default()).unwrap();
    let mut m = Machine::new(CostModel::default(), MachineConfig::default());
    m.load(&exe);
    let rt = Runtime::attach(&m, &exe).unwrap();
    (m, exe, rt)
}

fn text_snapshot(m: &Machine, exe: &Executable) -> Vec<u8> {
    let (taddr, tsize) = exe.section(mvobj::SEC_TEXT);
    m.mem.read_vec(taddr, tsize as usize).unwrap()
}

#[test]
fn apply_fault_rolls_back_to_exact_bytes() {
    let (mut m, exe, mut rt) = mv_fixture();
    let pristine = text_snapshot(&m, &exe);
    let mv = exe.symbol("mv").unwrap();

    // Fail the 2nd text write of the apply phase (the entry jump, after
    // the call site was already rewritten).
    m.inject_fault(FaultPlan::fail_nth_write(2));
    let err = rt.commit(&mut m).unwrap_err();
    assert_eq!(err.commit_phase(), Some(CommitPhase::Apply));
    assert!(
        matches!(err.root_cause(), RtError::Mem(e) if e.mapped),
        "{err:?}"
    );
    assert!(err.is_transient());

    // Atomicity: the first write was undone, bindings are untouched.
    assert_eq!(text_snapshot(&m, &exe), pristine);
    assert_eq!(rt.binding_of(mv), Some(mvrt::FnBinding::Generic));
    assert_eq!(rt.stats.rollbacks, 1);
    assert!(rt.stats.journal_entries >= 2);

    // The one-shot fault healed: the same commit now succeeds.
    let report = rt.commit(&mut m).unwrap();
    assert_eq!(report.variants_committed, 1);
    assert_ne!(text_snapshot(&m, &exe), pristine);
}

#[test]
fn transient_fault_retries_and_converges() {
    let (mut m, exe, mut rt) = mv_fixture();
    rt.retry = RetryPolicy::retries(3);
    let mv = exe.symbol("mv").unwrap();

    // Fail once, then heal (one-shot): the bounded retry must converge
    // without the caller seeing an error.
    m.inject_fault(FaultPlan::fail_nth_write(1));
    let report = rt.commit(&mut m).unwrap();
    assert_eq!(report.variants_committed, 1);
    assert_eq!(rt.stats.retries, 1);
    assert_eq!(rt.stats.rollbacks, 1);
    assert_eq!(
        rt.binding_of(mv),
        Some(mvrt::FnBinding::Variant(exe.symbol("mv.A=0").unwrap()))
    );
}

#[test]
fn sticky_flush_fault_exhausts_the_retry_budget() {
    // A sticky lost-flush fault defeats every retry, but each attempt's
    // rollback still restores the bytes — the caller gets a clean Apply
    // failure and a pristine image after the budget is spent.
    let (mut m, exe, mut rt) = mv_fixture();
    rt.retry = RetryPolicy::retries(2);
    let pristine = text_snapshot(&m, &exe);

    m.inject_fault(FaultPlan::drop_nth_flush(1).sticky());
    let err = rt.commit(&mut m).unwrap_err();
    assert_eq!(err.commit_phase(), Some(CommitPhase::Apply));
    assert!(
        matches!(err.root_cause(), RtError::IcacheStale { .. }),
        "{err:?}"
    );
    assert_eq!(rt.stats.retries, 2, "budget spent");
    assert_eq!(rt.stats.rollbacks, 3, "every attempt rolled back");
    assert_eq!(text_snapshot(&m, &exe), pristine);
}

#[test]
fn sticky_write_fault_makes_rollback_itself_fail() {
    // If text writes fail *persistently*, the rollback's restores fail
    // too. That is the one case the transaction cannot hide: it reports
    // CommitPhase::Rollback (image may be torn) and never retries.
    let (mut m, _exe, mut rt) = mv_fixture();
    rt.retry = RetryPolicy::retries(2);

    m.inject_fault(FaultPlan::fail_nth_write(1).sticky());
    let err = rt.commit(&mut m).unwrap_err();
    assert_eq!(err.commit_phase(), Some(CommitPhase::Rollback));
    assert!(!err.is_transient(), "torn state must not be retried");
    assert_eq!(rt.stats.retries, 0);
    // The chain names the entry whose restore failed.
    match &err {
        RtError::Commit { source, .. } => {
            assert!(
                matches!(**source, RtError::RollbackFailed { .. }),
                "{err:?}"
            )
        }
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn dropped_icache_flush_is_detected_and_rolled_back() {
    let (mut m, exe, mut rt) = mv_fixture();
    let pristine = text_snapshot(&m, &exe);

    m.inject_fault(FaultPlan::drop_nth_flush(1));
    let err = rt.commit(&mut m).unwrap_err();
    assert_eq!(err.commit_phase(), Some(CommitPhase::Apply));
    assert!(
        matches!(err.root_cause(), RtError::IcacheStale { .. }),
        "{err:?}"
    );
    assert!(err.is_transient());
    assert_eq!(text_snapshot(&m, &exe), pristine);

    // With a retry budget the lost flush is survivable.
    let (mut m, _exe, mut rt) = mv_fixture();
    rt.retry = RetryPolicy::retries(1);
    m.inject_fault(FaultPlan::drop_nth_flush(1));
    let report = rt.commit(&mut m).unwrap();
    assert_eq!(report.variants_committed, 1);
    assert_eq!(rt.stats.retries, 1);
}

#[test]
fn selection_error_during_planning_is_labelled_plan() {
    // A guard referencing a switch with no variable descriptor fails
    // while *planning* (variant selection), before anything is checked
    // or written. Historically this was mislabelled CommitPhase::Validate;
    // it must report CommitPhase::Plan.
    let mut o = base_object();
    o.define_bss("A", 4);
    o.define_bss("B", 4); // linkable, but no variable descriptor
    let mut a = Assembler::new();
    a.load_sym(Reg::R0, "A", 0, mvasm::Width::W32, true);
    a.ret();
    let g = a.finish().unwrap();
    let g_size = g.bytes.len() as u32;
    o.add_code("mv", &g);
    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 1);
    a.ret();
    o.add_code("mv.B=1", &a.finish().unwrap());
    emit_variable(
        &mut o,
        &VarDescSym {
            symbol: "A".into(),
            width: 4,
            signed: true,
            fn_ptr: false,
            name_sym: None,
        },
    );
    emit_function(
        &mut o,
        &FnDescSym {
            symbol: "mv".into(),
            generic_size: g_size,
            generic_inline_len: NOT_INLINABLE,
            name_sym: None,
            variants: vec![VariantDescSym {
                symbol: "mv.B=1".into(),
                body_size: 11,
                inline_len: NOT_INLINABLE,
                guards: vec![GuardSym {
                    var_symbol: "B".into(),
                    low: 1,
                    high: 1,
                }],
            }],
        },
    );
    let exe = link(&[o], &Layout::default()).unwrap();
    let mut m = Machine::new(CostModel::default(), MachineConfig::default());
    m.load(&exe);
    let mut rt = Runtime::attach(&m, &exe).unwrap();

    let err = rt.commit(&mut m).unwrap_err();
    assert_eq!(err.commit_phase(), Some(CommitPhase::Plan), "{err:?}");
    assert!(
        matches!(
            err.root_cause(),
            RtError::UnknownGuardVariable { var_addr, .. }
                if *var_addr == exe.symbol("B").unwrap()
        ),
        "{err:?}"
    );
    // A plan failure writes nothing.
    assert_eq!(rt.stats.journal_entries, 0);
    assert_eq!(rt.stats.bytes_written, 0);
}

#[test]
fn generic_too_small_for_the_entry_jump_fails_validation() {
    // A descriptor claiming a generic body shorter than a call site
    // leaves no room for the completeness entry jump. Validation must
    // refuse the install before anything is written.
    let (mut m, exe, mut rt) = mv_fixture_with_generic_size(Some(4));
    let pristine = text_snapshot(&m, &exe);
    let err = rt.commit(&mut m).unwrap_err();
    assert_eq!(err.commit_phase(), Some(CommitPhase::Validate), "{err:?}");
    assert!(
        matches!(
            err.root_cause(),
            RtError::GenericTooSmall { function, size: 4 }
                if *function == exe.symbol("mv").unwrap()
        ),
        "{err:?}"
    );
    assert_eq!(rt.stats.journal_entries, 0);
    assert_eq!(rt.stats.bytes_written, 0);
    assert_eq!(text_snapshot(&m, &exe), pristine);
}
