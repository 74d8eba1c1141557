//! Fault-model tests: NX enforcement, unmapped execution, stack
//! exhaustion and bad jumps must all surface as structured faults, never
//! as silent misbehaviour — plus the deterministic fault-injection layer
//! ([`FaultPlan`]) that makes patching-time hazards reproducible.

use mvasm::{Assembler, Insn, Reg, Width};
use mvobj::{link, Layout, Object, Prot};
use mvvm::mem::Access;
use mvvm::{
    CostModel, ExecTier, Fault, FaultOp, FaultPlan, Machine, MachineConfig, MemError, SmpMachine,
};

fn boot(build: impl FnOnce(&mut Object)) -> (Machine, mvobj::Executable) {
    let mut o = Object::new("t");
    build(&mut o);
    let exe = link(&[o], &Layout::default()).unwrap();
    let mut m = Machine::new(CostModel::default(), MachineConfig::default());
    m.load(&exe);
    (m, exe)
}

#[test]
fn executing_data_faults_nx() {
    // A function pointer aimed at the .data segment: fetch must fault
    // (the data segment is RW, not X — W^X cuts both ways).
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.lea_sym(Reg::R1, "blob");
        a.emit(Insn::CallInd { target: Reg::R1 });
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
        // Valid instruction bytes, but in a non-executable section.
        o.define_data("blob", &mvasm::encode(&Insn::Ret));
    });
    match m.run_entry(&exe) {
        Err(Fault::Mem(e)) => {
            assert!(e.mapped, "mapped but not executable");
        }
        other => panic!("expected NX fault, got {other:?}"),
    }
}

#[test]
fn jumping_into_the_void_faults() {
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.mov_ri(Reg::R1, 0xdead_0000);
        a.emit(Insn::CallInd { target: Reg::R1 });
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
    });
    match m.run_entry(&exe) {
        Err(Fault::Mem(e)) => assert!(!e.mapped),
        other => panic!("expected unmapped fault, got {other:?}"),
    }
}

#[test]
fn runaway_recursion_overflows_the_stack() {
    // main calls itself forever; the stack guard (unmapped page below
    // the stack) stops it with a memory fault, not a host crash.
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.label("self");
        a.call_sym("main", false);
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
    });
    match m.run_entry(&exe) {
        Err(Fault::Mem(e)) => assert!(!e.mapped, "fell off the stack mapping"),
        other => panic!("expected stack overflow fault, got {other:?}"),
    }
}

#[test]
fn zero_bytes_are_never_valid_instructions() {
    // Jump into the zero-filled BSS-like padding within the text page.
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.emit(Insn::Jmp { rel: 64 }); // far past the emitted code
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
    });
    match m.run_entry(&exe) {
        Err(Fault::Decode { err, .. }) => {
            assert!(matches!(err, mvasm::DecodeError::BadOpcode(0)));
        }
        other => panic!("expected decode fault, got {other:?}"),
    }
}

/// The full W^X patch dance over `addr`: unlock, write, relock, flush.
fn patch(m: &mut Machine, addr: u64, bytes: &[u8]) -> Result<(), mvvm::MemError> {
    m.mem.mprotect(addr, bytes.len() as u64, Prot::RW)?;
    m.mem.write(addr, bytes)?;
    m.mem.mprotect(addr, bytes.len() as u64, Prot::RX)?;
    m.mem.flush_icache(addr, bytes.len() as u64);
    Ok(())
}

#[test]
fn dropped_icache_flush_executes_stale_code() {
    // Warm the decode cache, patch the function with the flush dropped:
    // the OLD code keeps executing. A later (healed) flush makes the new
    // bytes visible — the missing-flush hazard, fully observable.
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.mov_ri(Reg::R0, 1);
        a.ret();
        o.add_code("f", &a.finish().unwrap());
        let mut a = Assembler::new();
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
    });
    let f = exe.symbol("f").unwrap();
    assert_eq!(m.call(f, &[]).unwrap(), 1); // decode cache now warm

    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 2);
    a.ret();
    let new_body = a.finish().unwrap().bytes;

    m.inject_fault(FaultPlan::drop_nth_flush(1));
    patch(&mut m, f, &new_body).unwrap();
    assert_eq!(
        m.call(f, &[]).unwrap(),
        1,
        "stale decoded instructions must keep executing after a lost flush"
    );
    // Memory holds the new bytes all along — only the icache is stale.
    assert_eq!(m.mem.read_vec(f, new_body.len()).unwrap(), new_body);
    let plan = m.clear_fault().unwrap();
    assert_eq!(plan.fired(), 1);

    m.mem.flush_icache(f, new_body.len() as u64);
    assert_eq!(m.call(f, &[]).unwrap(), 2, "flush makes the patch visible");
}

#[test]
fn injected_write_fault_hits_text_but_not_data() {
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
        o.define_data("blob", &[0u8; 8]);
    });
    let main = exe.symbol("main").unwrap();
    let blob = exe.symbol("blob").unwrap();

    // Fail the 2nd *text* write. Data stores must not consume the counter,
    // even though they are writes too.
    m.inject_fault(FaultPlan::fail_nth_write(2));
    m.mem.mprotect(main, 1, Prot::RW).unwrap();
    m.mem.write(main, &[mvasm::encode(&Insn::Halt)[0]]).unwrap(); // text write #1
    m.mem.write(blob, &[1, 2, 3]).unwrap(); // data write: not counted
    let err = m.mem.write(main, &[0x90]).unwrap_err(); // text write #2: faults
    assert!(err.mapped, "injected fault mimics a protection fault");
    // One-shot: the fault heals, the retried write goes through.
    m.mem.write(main, &[mvasm::encode(&Insn::Halt)[0]]).unwrap();
    m.mem.mprotect(main, 1, Prot::RX).unwrap();
    assert_eq!(m.clear_fault().unwrap().fired(), 1);
}

#[test]
fn injected_mprotect_fault_interrupts_the_unlock() {
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
    });
    let main = exe.symbol("main").unwrap();
    m.inject_fault(FaultPlan::fail_nth_mprotect(1));
    let err = m.mem.mprotect(main, 1, Prot::RW).unwrap_err();
    assert!(err.mapped);
    // The page protection is unchanged: text is still not writable.
    assert!(m.mem.write(main, &[0x90]).is_err());
    // Sticky plans keep failing; one-shot heals (this one was one-shot).
    m.mem.mprotect(main, 1, Prot::RW).unwrap();
    m.mem.mprotect(main, 1, Prot::RX).unwrap();
}

#[test]
fn dropped_shootdown_loses_the_broadcast_and_heals_one_shot() {
    // Boot a 2-vCPU machine, warm a private decode cache, then lose the
    // first flush_remote: nothing is evicted, the shootdown counter does
    // not move and the call acknowledges zero caches. The re-issued
    // broadcast (the lost-IPI recovery) works and evicts the stale
    // decode.
    let mut o = Object::new("t");
    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 1);
    a.ret();
    o.add_code("f", &a.finish().unwrap());
    let mut a = Assembler::new();
    a.emit(Insn::Halt);
    o.add_code("main", &a.finish().unwrap());
    let exe = link(&[o], &Layout::default()).unwrap();
    let mut smp = SmpMachine::new(CostModel::default(), MachineConfig::default(), 2);
    smp.machine.load(&exe);
    let f = exe.symbol("f").unwrap();

    // Warm vCPU 0's sticky icache on the old body.
    smp.spawn(0, f, &[]).unwrap();
    while smp.state(0).is_live() {
        smp.step_round();
    }

    let mut a = Assembler::new();
    a.mov_ri(Reg::R0, 2);
    a.ret();
    let new_body = a.finish().unwrap().bytes;
    smp.machine
        .mem
        .mprotect(f, new_body.len() as u64, Prot::RW)
        .unwrap();
    smp.machine.mem.write(f, &new_body).unwrap();
    smp.machine
        .mem
        .mprotect(f, new_body.len() as u64, Prot::RX)
        .unwrap();

    smp.machine.inject_fault(FaultPlan::drop_nth_shootdown(1));
    let before = smp.shootdowns();
    assert_eq!(smp.flush_remote(None), 0, "lost broadcast acks no cache");
    assert_eq!(smp.shootdowns(), before, "a lost IPI is not counted");
    assert_eq!(
        smp.machine.clear_fault().unwrap().fired(),
        1,
        "the plan consumed and failed exactly the first broadcast"
    );

    // One-shot: the re-issued broadcast lands and evicts every cache.
    assert_eq!(smp.flush_remote(None), smp.vcpus() + 1);
    assert_eq!(smp.shootdowns(), before + 1);
    smp.spawn(0, f, &[]).unwrap();
    while smp.state(0).is_live() {
        smp.step_round();
    }
    match *smp.state(0) {
        mvvm::VcpuState::Done { ret } => {
            assert_eq!(ret, 2, "new body visible after real broadcast")
        }
        ref other => panic!("vCPU did not finish: {other:?}"),
    }
}

#[test]
fn sticky_shootdown_keeps_losing_broadcasts() {
    let mut o = Object::new("t");
    let mut a = Assembler::new();
    a.emit(Insn::Halt);
    o.add_code("main", &a.finish().unwrap());
    let exe = link(&[o], &Layout::default()).unwrap();
    let mut smp = SmpMachine::new(CostModel::default(), MachineConfig::default(), 2);
    smp.machine.load(&exe);

    smp.machine
        .inject_fault(FaultPlan::drop_nth_shootdown(1).sticky());
    assert_eq!(smp.flush_remote(None), 0);
    assert_eq!(smp.flush_remote(None), 0, "sticky: every broadcast lost");
    assert_eq!(smp.shootdowns(), 0);
    assert_eq!(smp.machine.clear_fault().unwrap().fired(), 2);
    assert!(smp.flush_remote(None) > 0, "cleared plan stops interfering");
}

#[test]
fn trap_plant_plans_are_not_consumed_by_memory_primitives() {
    // TrapPlant is a quiesce-layer operation class: Memory's own
    // primitives (mprotect / write / flush) must pass through untouched
    // and never consume the counter — only an explicit trip_fault call
    // from the layer that owns the operation does.
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
    });
    let main = exe.symbol("main").unwrap();
    m.inject_fault(FaultPlan::fail_nth_trap_plant(1));
    patch(&mut m, main, &[mvasm::encode(&Insn::Halt)[0]]).unwrap();
    assert_eq!(m.mem.fault_plan().unwrap().seen(), 0);
    assert!(
        m.mem.trip_fault(FaultOp::TrapPlant, main),
        "explicit trip fires"
    );
    assert!(
        !m.mem.trip_fault(FaultOp::TrapPlant, main),
        "one-shot heals"
    );
    assert_eq!(m.clear_fault().unwrap().fired(), 1);
}

#[test]
fn range_filtered_sticky_plan_poisons_one_function_only() {
    // A sticky TextWrite plan scoped to f's bytes: writes into f keep
    // faulting, writes into g (same op class, different address) land.
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        a.emit(Insn::Halt);
        o.add_code("main", &a.finish().unwrap());
        o.define_data("pad", &[0u8; 4]);
    });
    let main = exe.symbol("main").unwrap();
    let halt = mvasm::encode(&Insn::Halt)[0];
    m.inject_fault(
        FaultPlan::fail_nth_write(1)
            .sticky()
            .in_range(main, main + 1),
    );
    m.mem.mprotect(main, 2, Prot::RW).unwrap();
    assert!(m.mem.write(main, &[halt]).is_err(), "in range: faults");
    assert!(
        m.mem.write(main, &[halt]).is_err(),
        "sticky: keeps faulting"
    );
    m.mem.write(main + 1, &[0]).unwrap(); // outside the range: lands
    m.mem.mprotect(main, 2, Prot::RX).unwrap();
    assert_eq!(m.clear_fault().unwrap().fired(), 2);
}

#[test]
fn ret_with_empty_stack_faults_not_panics() {
    let (mut m, exe) = boot(|o| {
        let mut a = Assembler::new();
        // Pop the host-pushed sentinel… there is none under run_entry, so
        // sp points at the pristine stack top; ret reads the zeroed slot
        // and jumps to address 0 → unmapped execute fault.
        a.ret();
        o.add_code("main", &a.finish().unwrap());
    });
    match m.run_entry(&exe) {
        Err(Fault::Mem(e)) => assert!(!e.mapped),
        other => panic!("expected fault, got {other:?}"),
    }
}

#[test]
fn wrapping_access_faults_not_panics() {
    // A load or store whose bytes run past the end of the address space
    // is an unmapped access like any other, at every tier.
    let top = u64::MAX - 3;
    let ops = [
        (
            "load",
            Access::Read,
            Insn::Load {
                dst: Reg::R0,
                base: Reg::R1,
                off: 0,
                width: Width::W64,
                signed: false,
            },
        ),
        (
            "store",
            Access::Write,
            Insn::Store {
                src: Reg::R0,
                base: Reg::R1,
                off: 0,
                width: Width::W64,
            },
        ),
    ];
    for tier in [
        ExecTier::Tierless,
        ExecTier::Block,
        ExecTier::Superblock,
        ExecTier::Native,
    ] {
        for (name, access, insn) in ops {
            let (mut m, exe) = boot(|o| {
                let mut a = Assembler::new();
                a.mov_ri(Reg::R1, top as i64);
                a.emit(insn);
                a.ret();
                o.add_code(name, &a.finish().unwrap());
                let mut a = Assembler::new();
                a.emit(Insn::Halt);
                o.add_code("main", &a.finish().unwrap());
            });
            let f = exe.symbol(name).unwrap();
            m.set_tier(tier);
            if tier == ExecTier::Native {
                assert!(m.ensure_native(f));
            }
            let expect = MemError {
                addr: top,
                access,
                mapped: false,
            };
            match m.call(f, &[]) {
                Err(Fault::Mem(e)) => assert_eq!(e, expect, "{name} at {tier}"),
                other => panic!("{name} at {tier}: expected a memory fault, got {other:?}"),
            }
        }
    }
}
