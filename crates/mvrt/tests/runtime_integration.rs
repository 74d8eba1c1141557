//! Integration tests for the multiverse run-time library over a hand-built
//! program image — the Fig. 2 / Fig. 3 example driven through every patch
//! state, without involving the compiler.

use mvasm::{AluOp, Assembler, Insn, Reg, Width};
use mvobj::descriptor::{
    emit_callsite, emit_function, emit_variable, CallsiteDescSym, FnDescSym, GuardSym, VarDescSym,
    VariantDescSym, NOT_INLINABLE,
};
use mvobj::{link, Executable, Layout, Object};
use mvrt::{FnBinding, RtError, Runtime};
use mvvm::{CostModel, Machine, MachineConfig};

/// Builds the test program:
///
/// ```c
/// multiverse int A;                       // switch, domain {0, 1}
/// multiverse long multi() { return A + 100; }
///   // variants: multi.A=0 -> 100, multi.A=1 -> 101
/// multiverse void maybe_log() { if (A) { ...work...; } }
///   // variants: maybe_log.A=0 -> empty (inlinable), A=1 -> work
/// long caller()  { return multi(); }      // recorded call site
/// long caller2() { maybe_log(); return 7; }
/// void (*op)() = &impl_a;                 // multiverse fn-ptr switch
/// long caller3() { return op(); }         // indirect, recorded
/// ```
fn build_fixture() -> Executable {
    let mut o = Object::new("fixture");
    o.define_bss("A", 4);

    // main: just halt (entry required by the linker).
    let mut a = Assembler::new();
    a.emit(Insn::Halt);
    o.add_code("main", &a.finish().unwrap());

    // multi (generic): r0 = A + 100; ret.   (load 11 + alu 11 + ret 1)
    let mut a = Assembler::new();
    a.load_sym(Reg::R0, "A", 0, Width::W32, true);
    a.emit(Insn::AluRI {
        op: AluOp::Add,
        dst: Reg::R0,
        imm: 100,
    });
    a.ret();
    let multi_blob = a.finish().unwrap();
    let multi_size = multi_blob.bytes.len() as u32;
    o.add_code("multi", &multi_blob);

    // multi.A=0: r0 = 100; ret.
    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 100);
    a.ret();
    let v0 = a.finish().unwrap();
    let v0_size = v0.bytes.len() as u32;
    o.add_code("multi.A=0", &v0);

    // multi.A=1: r0 = 101; ret.
    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 101);
    a.ret();
    let v1 = a.finish().unwrap();
    let v1_size = v1.bytes.len() as u32;
    o.add_code("multi.A=1", &v1);

    // maybe_log (generic): if (A) simulate work; always ≥ 5 bytes.
    let mut a = Assembler::new();
    a.load_sym(Reg::R1, "A", 0, Width::W32, true);
    a.cmp_ri(Reg::R1, 0);
    a.jcc("done", mvasm::Cond::Eq);
    a.emit(Insn::AluRI {
        op: AluOp::Add,
        dst: Reg::R2,
        imm: 1,
    });
    a.label("done");
    a.ret();
    let ml = a.finish().unwrap();
    let ml_size = ml.bytes.len() as u32;
    o.add_code("maybe_log", &ml);

    // maybe_log.A=0: empty body (ret only) — inline_len 0.
    let mut a = Assembler::new();
    a.ret();
    let mlv0 = a.finish().unwrap();
    o.add_code("maybe_log.A=0", &mlv0);

    // maybe_log.A=1: the work, no branch.
    let mut a = Assembler::new();
    a.emit(Insn::AluRI {
        op: AluOp::Add,
        dst: Reg::R2,
        imm: 1,
    });
    a.ret();
    let mlv1 = a.finish().unwrap();
    let mlv1_size = mlv1.bytes.len() as u32;
    o.add_code("maybe_log.A=1", &mlv1);

    // caller: call multi; ret.
    let mut a = Assembler::new();
    a.call_sym("multi", true);
    a.ret();
    let caller = a.finish().unwrap();
    let caller_sites = caller.callsites.clone();
    o.add_code("caller", &caller);
    for off in caller_sites {
        emit_callsite(
            &mut o,
            &CallsiteDescSym {
                callee: "multi".into(),
                caller: "caller".into(),
                offset: off,
            },
        );
    }

    // caller2: call maybe_log; r0 = 7; ret.
    let mut a = Assembler::new();
    a.call_sym("maybe_log", true);
    a.mov_ri(Reg::R0, 7);
    a.ret();
    let caller2 = a.finish().unwrap();
    let c2_sites = caller2.callsites.clone();
    o.add_code("caller2", &caller2);
    for off in c2_sites {
        emit_callsite(
            &mut o,
            &CallsiteDescSym {
                callee: "maybe_log".into(),
                caller: "caller2".into(),
                offset: off,
            },
        );
    }

    // impl_a / impl_b: pointer targets (10-byte mov → not inlinable into a
    // 9-byte indirect site).
    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 11);
    a.ret();
    let ia = a.finish().unwrap();
    let ia_size = ia.bytes.len() as u32;
    o.add_code("impl_a", &ia);
    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 22);
    a.ret();
    let ib = a.finish().unwrap();
    let ib_size = ib.bytes.len() as u32;
    o.add_code("impl_b", &ib);

    // impl_cli: cli; ret — inlinable body of 1 byte.
    let mut a = Assembler::new();
    a.emit(Insn::Cli);
    a.emit(Insn::Nop { len: 4 }); // pad generic body to ≥ 5 bytes
    a.ret();
    let icli = a.finish().unwrap();
    let icli_size = icli.bytes.len() as u32;
    o.add_code("impl_cli", &icli);

    // op: function pointer, initialized to impl_a.
    o.define_data_ptr("op", "impl_a");

    // caller3: call *[op]; ret.
    let mut a = Assembler::new();
    let site3 = a.len() as u32;
    a.call_mem_sym("op");
    a.ret();
    let caller3 = a.finish().unwrap();
    o.add_code("caller3", &caller3);
    emit_callsite(
        &mut o,
        &CallsiteDescSym {
            callee: "op".into(),
            caller: "caller3".into(),
            offset: site3,
        },
    );

    // Descriptors.
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
    emit_variable(
        &mut o,
        &VarDescSym {
            symbol: "op".into(),
            width: 8,
            signed: false,
            fn_ptr: true,
            name_sym: None,
        },
    );
    emit_function(
        &mut o,
        &FnDescSym {
            symbol: "multi".into(),
            generic_size: multi_size,
            generic_inline_len: NOT_INLINABLE,
            name_sym: None,
            variants: vec![
                VariantDescSym {
                    symbol: "multi.A=0".into(),
                    body_size: v0_size,
                    inline_len: NOT_INLINABLE, // 10-byte mov does not fit
                    guards: vec![GuardSym {
                        var_symbol: "A".into(),
                        low: 0,
                        high: 0,
                    }],
                },
                VariantDescSym {
                    symbol: "multi.A=1".into(),
                    body_size: v1_size,
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
    emit_function(
        &mut o,
        &FnDescSym {
            symbol: "maybe_log".into(),
            generic_size: ml_size,
            generic_inline_len: NOT_INLINABLE,
            name_sym: None,
            variants: vec![
                VariantDescSym {
                    symbol: "maybe_log.A=0".into(),
                    body_size: 1,
                    inline_len: 0, // empty body — erases to a wide NOP
                    guards: vec![GuardSym {
                        var_symbol: "A".into(),
                        low: 0,
                        high: 0,
                    }],
                },
                VariantDescSym {
                    symbol: "maybe_log.A=1".into(),
                    body_size: mlv1_size,
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
    // Descriptors for the pointer targets (impl_cli is inlinable).
    for (sym, size, inline) in [
        ("impl_a", ia_size, NOT_INLINABLE),
        ("impl_b", ib_size, NOT_INLINABLE),
        ("impl_cli", icli_size, 5), // cli + nop4
    ] {
        emit_function(
            &mut o,
            &FnDescSym {
                symbol: sym.into(),
                generic_size: size,
                generic_inline_len: inline,
                name_sym: None,
                variants: vec![],
            },
        );
    }

    link(&[o], &Layout::default()).unwrap()
}

struct Fx {
    exe: Executable,
    m: Machine,
    rt: Runtime,
}

fn setup() -> Fx {
    let exe = build_fixture();
    let mut m = Machine::new(CostModel::default(), MachineConfig::default());
    m.load(&exe);
    let rt = Runtime::attach(&m, &exe).expect("attach");
    Fx { exe, m, rt }
}

fn set_a(fx: &mut Fx, v: i64) {
    let a = fx.exe.symbol("A").unwrap();
    fx.rt.write_switch(&mut fx.m, a, v).unwrap();
}

fn call(fx: &mut Fx, sym: &str) -> u64 {
    let f = fx.exe.symbol(sym).unwrap();
    fx.m.call(f, &[]).unwrap()
}

#[test]
fn attach_inventory() {
    let fx = setup();
    assert_eq!(fx.rt.num_variables(), 2);
    assert_eq!(fx.rt.num_functions(), 5);
    assert_eq!(fx.rt.num_callsites(), 3);
    let multi = fx.exe.symbol("multi").unwrap();
    assert_eq!(fx.rt.callsites_of(multi), 1);
    assert_eq!(fx.rt.binding_of(multi), Some(FnBinding::Generic));
}

#[test]
fn generic_behaviour_before_commit() {
    let mut fx = setup();
    set_a(&mut fx, 0);
    assert_eq!(call(&mut fx, "caller"), 100);
    set_a(&mut fx, 1);
    assert_eq!(call(&mut fx, "caller"), 101);
    // Arbitrary values work dynamically too.
    set_a(&mut fx, 42);
    assert_eq!(call(&mut fx, "caller"), 142);
}

#[test]
fn commit_installs_matching_variant() {
    let mut fx = setup();
    set_a(&mut fx, 1);
    let report = fx.rt.commit(&mut fx.m).unwrap();
    assert_eq!(report.generic_fallbacks, 0);
    assert!(report.variants_committed >= 2);
    let multi = fx.exe.symbol("multi").unwrap();
    let v1 = fx.exe.symbol("multi.A=1").unwrap();
    assert_eq!(fx.rt.binding_of(multi), Some(FnBinding::Variant(v1)));
    assert_eq!(call(&mut fx, "caller"), 101);
}

#[test]
fn committed_semantics_freeze_until_recommit() {
    // §2: after the commit the function no longer evaluates the switch —
    // a change has no effect until re-committed.
    let mut fx = setup();
    set_a(&mut fx, 1);
    fx.rt.commit(&mut fx.m).unwrap();
    set_a(&mut fx, 0);
    assert_eq!(call(&mut fx, "caller"), 101, "still bound to A=1 variant");
    fx.rt.commit(&mut fx.m).unwrap();
    assert_eq!(call(&mut fx, "caller"), 100, "re-commit re-binds");
}

#[test]
fn completeness_entry_jump_covers_untracked_calls() {
    // Calls the runtime never saw (here: a direct host call to the generic
    // entry, standing in for function pointers / assembler calls) must
    // reach the committed variant via the entry jump (§7.4).
    let mut fx = setup();
    set_a(&mut fx, 1);
    fx.rt.commit(&mut fx.m).unwrap();
    set_a(&mut fx, 0); // would change the generic's behaviour
    let multi = fx.exe.symbol("multi").unwrap();
    assert_eq!(fx.m.call(multi, &[]).unwrap(), 101);
}

#[test]
fn out_of_domain_value_falls_back_to_generic() {
    let mut fx = setup();
    set_a(&mut fx, 1);
    fx.rt.commit(&mut fx.m).unwrap();
    // Fig. 3 d: A=3 has no variant; commit reverts to generic and signals.
    set_a(&mut fx, 3);
    let report = fx.rt.commit(&mut fx.m).unwrap();
    assert!(report.generic_fallbacks >= 1);
    let multi = fx.exe.symbol("multi").unwrap();
    assert_eq!(fx.rt.binding_of(multi), Some(FnBinding::Generic));
    assert_eq!(call(&mut fx, "caller"), 103);
}

#[test]
fn revert_restores_original_image() {
    let mut fx = setup();
    let multi = fx.exe.symbol("multi").unwrap();
    let before = fx.m.mem.read_vec(multi, 16).unwrap();
    set_a(&mut fx, 1);
    fx.rt.commit(&mut fx.m).unwrap();
    assert_ne!(fx.m.mem.read_vec(multi, 16).unwrap(), before);
    fx.rt.revert(&mut fx.m).unwrap();
    assert_eq!(fx.m.mem.read_vec(multi, 16).unwrap(), before);
    set_a(&mut fx, 7);
    assert_eq!(call(&mut fx, "caller"), 107, "dynamic again");
}

#[test]
fn empty_variant_body_is_inlined_as_nop() {
    let mut fx = setup();
    set_a(&mut fx, 0);
    let stats0 = fx.rt.stats;
    fx.rt.commit(&mut fx.m).unwrap();
    let d = fx.rt.stats.since(&stats0);
    assert!(d.sites_inlined >= 1, "maybe_log.A=0 should inline");
    // The call site of maybe_log inside caller2 is now a NOP sled; the
    // function result is unaffected.
    assert_eq!(call(&mut fx, "caller2"), 7);
    // And it is cheaper than the generic path.
    let c0 = fx.m.cycles();
    call(&mut fx, "caller2");
    let inlined_cost = fx.m.cycles() - c0;
    fx.rt.revert(&mut fx.m).unwrap();
    call(&mut fx, "caller2"); // warm the predictor again
    let c1 = fx.m.cycles();
    call(&mut fx, "caller2");
    let generic_cost = fx.m.cycles() - c1;
    assert!(
        inlined_cost < generic_cost,
        "inlined {inlined_cost} !< generic {generic_cost}"
    );
}

#[test]
fn commit_func_and_refs_are_scoped() {
    let mut fx = setup();
    set_a(&mut fx, 1);
    let multi = fx.exe.symbol("multi").unwrap();
    let maybe_log = fx.exe.symbol("maybe_log").unwrap();
    // Only multi is committed.
    fx.rt.commit_func(&mut fx.m, multi).unwrap();
    assert!(matches!(
        fx.rt.binding_of(multi),
        Some(FnBinding::Variant(_))
    ));
    assert_eq!(fx.rt.binding_of(maybe_log), Some(FnBinding::Generic));
    // revert_func undoes only multi.
    fx.rt.revert_func(&mut fx.m, multi).unwrap();
    assert_eq!(fx.rt.binding_of(multi), Some(FnBinding::Generic));
    // commit_refs on A touches both guarded functions.
    let a = fx.exe.symbol("A").unwrap();
    fx.rt.commit_refs(&mut fx.m, a).unwrap();
    assert!(matches!(
        fx.rt.binding_of(multi),
        Some(FnBinding::Variant(_))
    ));
    assert!(matches!(
        fx.rt.binding_of(maybe_log),
        Some(FnBinding::Variant(_))
    ));
    fx.rt.revert_refs(&mut fx.m, a).unwrap();
    assert_eq!(fx.rt.binding_of(maybe_log), Some(FnBinding::Generic));
}

#[test]
fn unknown_addresses_are_rejected() {
    let mut fx = setup();
    assert!(matches!(
        fx.rt.commit_func(&mut fx.m, 0xdead),
        Err(RtError::UnknownFunction(0xdead))
    ));
    assert!(matches!(
        fx.rt.commit_refs(&mut fx.m, 0xbeef),
        Err(RtError::UnknownVariable(0xbeef))
    ));
}

#[test]
fn fnptr_switch_binds_direct_call() {
    let mut fx = setup();
    assert_eq!(call(&mut fx, "caller3"), 11, "indirect through op");
    let op = fx.exe.symbol("op").unwrap();
    let impl_b = fx.exe.symbol("impl_b").unwrap();
    let report = mvrt::fnptr::bind_and_commit(&mut fx.rt, &mut fx.m, op, impl_b).unwrap();
    assert_eq!(report.fnptr_sites, 1);
    assert_eq!(call(&mut fx, "caller3"), 22, "direct call to impl_b");
    // The site no longer performs an indirect call.
    let ic0 = fx.m.stats.indirect_calls;
    call(&mut fx, "caller3");
    assert_eq!(fx.m.stats.indirect_calls, ic0);
    // Revert restores the indirect call through the pointer.
    fx.rt.revert(&mut fx.m).unwrap();
    assert_eq!(call(&mut fx, "caller3"), 22, "pointer still holds impl_b");
    assert!(fx.m.stats.indirect_calls > ic0);
}

#[test]
fn fnptr_inlinable_target_is_inlined() {
    let mut fx = setup();
    let op = fx.exe.symbol("op").unwrap();
    let impl_cli = fx.exe.symbol("impl_cli").unwrap();
    let stats0 = fx.rt.stats;
    mvrt::fnptr::bind_and_commit(&mut fx.rt, &mut fx.m, op, impl_cli).unwrap();
    assert!(fx.rt.stats.since(&stats0).sites_inlined >= 1);
    // The inlined cli executes at the site: IF goes off, and neither a
    // call nor an indirect call is performed.
    fx.m.cpu.if_flag = true;
    let calls0 = (fx.m.stats.calls, fx.m.stats.indirect_calls);
    call(&mut fx, "caller3");
    assert!(!fx.m.cpu.if_flag, "inlined cli must execute");
    assert_eq!((fx.m.stats.calls, fx.m.stats.indirect_calls), calls0);
}

#[test]
fn tampered_site_fails_verification() {
    let mut fx = setup();
    set_a(&mut fx, 1);
    fx.rt.commit(&mut fx.m).unwrap();
    // Overwrite the patched call site behind the runtime's back.
    let caller = fx.exe.symbol("caller").unwrap();
    fx.m.mem.mprotect(caller, 5, mvobj::Prot::RW).unwrap();
    let mut nops = [0u8; 5];
    mvasm::MV64.nop_fill(&mut nops);
    fx.m.mem.write(caller, &nops).unwrap();
    fx.m.mem.mprotect(caller, 5, mvobj::Prot::RX).unwrap();
    set_a(&mut fx, 0);
    let err = fx.rt.commit(&mut fx.m).unwrap_err();
    // Tampering is caught by the read-only validate phase: the error names
    // the phase and the underlying mismatch, and nothing was written.
    assert_eq!(err.commit_phase(), Some(mvrt::CommitPhase::Validate));
    assert!(
        matches!(err.root_cause(), RtError::SiteVerifyFailed { .. }),
        "{err:?}"
    );
}

#[test]
fn patch_stats_accumulate() {
    let mut fx = setup();
    set_a(&mut fx, 1);
    fx.rt.commit(&mut fx.m).unwrap();
    let s = fx.rt.stats;
    assert!(s.sites_patched >= 2);
    assert!(s.entry_jumps >= 2);
    assert!(s.bytes_written > 0);
    assert_eq!(s.mprotects % 2, 0, "every unlock has a relock");
    assert!(s.icache_flushes > 0);
    fx.rt.revert(&mut fx.m).unwrap();
    assert!(fx.rt.stats.prologues_restored >= 2);
    assert!(fx.rt.patch_time > std::time::Duration::ZERO);
}

#[test]
fn double_commit_is_idempotent() {
    let mut fx = setup();
    set_a(&mut fx, 1);
    fx.rt.commit(&mut fx.m).unwrap();
    let img0 =
        fx.m.mem
            .read_vec(fx.exe.symbol("multi").unwrap(), 16)
            .unwrap();
    fx.rt.commit(&mut fx.m).unwrap();
    let img1 =
        fx.m.mem
            .read_vec(fx.exe.symbol("multi").unwrap(), 16)
            .unwrap();
    assert_eq!(img0, img1);
    assert_eq!(call(&mut fx, "caller"), 101);
}

#[test]
fn wxorx_is_preserved_after_patching() {
    let mut fx = setup();
    set_a(&mut fx, 1);
    fx.rt.commit(&mut fx.m).unwrap();
    // Text must be back to R-X after the commit.
    let caller = fx.exe.symbol("caller").unwrap();
    assert!(fx.m.mem.write(caller, &[0]).is_err());
    let prot = fx.m.mem.prot_of(caller).unwrap();
    assert!(prot.exec && !prot.write);
}

fn text(fx: &Fx) -> Vec<u8> {
    let (addr, size) = fx.exe.section(mvobj::SEC_TEXT);
    fx.m.mem.read_vec(addr, size as usize).unwrap()
}

#[test]
fn null_fnptr_target_fails_the_dry_run_and_the_validate_phase() {
    let mut fx = setup();
    let op = fx.exe.symbol("op").unwrap();
    fx.m.mem.write_int(op, 0, 8).unwrap();
    // The dry run reports the switch's bind on its call site.
    let report = fx.rt.validate(&fx.m);
    assert!(!report.healthy(), "a null target must not pass the dry run");
    let site = report.sites.iter().find(|s| s.callee == op).unwrap();
    assert!(
        site.issue
            .as_deref()
            .is_some_and(|i| i.contains("unreachable target 0x0")),
        "{site:?}"
    );
    // And the commit fails there too, having written nothing.
    let before = text(&fx);
    let err = fx.rt.commit(&mut fx.m).unwrap_err();
    assert_eq!(err.commit_phase(), Some(mvrt::CommitPhase::Validate));
    assert!(
        matches!(err.root_cause(), RtError::BadFnPtrTarget { var_addr, target: 0 } if *var_addr == op),
        "{err:?}"
    );
    assert_eq!(text(&fx), before, "a failed validate writes nothing");
}

#[test]
fn fnptr_aimed_at_data_fails_validation_with_nothing_written() {
    let mut fx = setup();
    let op = fx.exe.symbol("op").unwrap();
    let data = fx.exe.symbol("A").unwrap();
    let before = text(&fx);
    let err = mvrt::fnptr::bind_and_commit(&mut fx.rt, &mut fx.m, op, data).unwrap_err();
    assert_eq!(
        err.commit_phase(),
        Some(mvrt::CommitPhase::Validate),
        "{err:?}"
    );
    assert_eq!(text(&fx), before, "a failed validate writes nothing");
    assert!(!fx.rt.validate(&fx.m).healthy());
    // Aimed back at a function, the same switch commits cleanly.
    let impl_b = fx.exe.symbol("impl_b").unwrap();
    mvrt::fnptr::bind_and_commit(&mut fx.rt, &mut fx.m, op, impl_b).unwrap();
    assert_eq!(call(&mut fx, "caller3"), 22);
}
