//! Variational execution over a booted [`World`].
//!
//! This is the glue between the [`mvvx`] engine and the rest of the
//! stack: it recovers the configuration space from the descriptor
//! sections the compiler emitted into the loaded image (the same
//! `multiverse.variables` / `multiverse.functions` records the runtime
//! attaches to), runs a function under *every* switch assignment in one
//! variational pass, and cross-checks the per-leaf observations against
//! the two execution paths the repository already trusts:
//!
//! * [`enumerate_check`] — the generic path: for each leaf, boot a
//!   fresh world, store the assignment into the switch cells (no
//!   commit) and run the function through the ordinary interpreter.
//!   This compares the *full* architectural observation (exit value,
//!   output bytes, registers, compare operands and every written memory
//!   byte) and doubles as the enumerate-and-rerun cost baseline: it
//!   returns the instructions the enumeration actually retired.
//! * [`oracle_check`] — the committed-variant path: for each leaf, set
//!   the assignment, run `multiverse_commit()` so the specialized
//!   variants are bound, and call the function. Committed variants are
//!   *specialized* code, so only the black-box observation (exit value
//!   and output bytes) is compared — registers and scratch memory may
//!   legitimately differ between a generic body and its variant.

use crate::{BuildError, Program, World};
use mvobj::descriptor::{parse_functions, parse_variables, DescError};
use mvobj::{SEC_MV_FUNCTIONS, SEC_MV_VARIABLES};
use mvtrace::TraceRing;
use mvvm::Memory;
use mvvx::{ConfigSpace, SpaceError, SwitchDomain, Vexec, VexecLeaf, VexecReport};
use std::collections::BTreeSet;
use std::fmt;

/// Guard ranges at most this wide are enumerated point-by-point when
/// recovering a switch domain; wider ranges contribute only their
/// endpoints (the variant behaves identically across the interior, so
/// the endpoints witness both edges of the guard).
const RANGE_ENUM_CAP: i64 = 8;

/// Errors from driving a variational pass against a [`World`].
#[derive(Debug)]
pub enum VxError {
    /// Symbol lookup, machine fault or runtime error underneath.
    Build(BuildError),
    /// The image has descriptor sections but they did not parse.
    Desc(DescError),
    /// The image declares no (non-function-pointer) switches.
    NoSwitches,
    /// The recovered configuration space was rejected (too wide, …).
    Space(SpaceError),
    /// The variational engine could not complete the pass.
    Engine(mvvx::VexecError),
    /// A cross-check found a leaf whose variational observation differs
    /// from the replayed one.
    Mismatch {
        /// Leaf index in the configuration space.
        leaf: usize,
        /// `name=value,...` label of the assignment.
        label: String,
        /// What differed.
        what: String,
    },
}

impl fmt::Display for VxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VxError::Build(e) => write!(f, "{e}"),
            VxError::Desc(e) => write!(f, "{e}"),
            VxError::NoSwitches => write!(f, "image declares no integer switches"),
            VxError::Space(e) => write!(f, "{e}"),
            VxError::Engine(e) => write!(f, "{e}"),
            VxError::Mismatch { leaf, label, what } => {
                write!(
                    f,
                    "leaf {leaf} ({label}): vexec disagrees with replay: {what}"
                )
            }
        }
    }
}

impl std::error::Error for VxError {}

impl From<BuildError> for VxError {
    fn from(e: BuildError) -> Self {
        VxError::Build(e)
    }
}
impl From<DescError> for VxError {
    fn from(e: DescError) -> Self {
        VxError::Desc(e)
    }
}
impl From<SpaceError> for VxError {
    fn from(e: SpaceError) -> Self {
        VxError::Space(e)
    }
}
impl From<mvvx::VexecError> for VxError {
    fn from(e: mvvx::VexecError) -> Self {
        VxError::Engine(e)
    }
}
impl From<mvvm::MemError> for VxError {
    fn from(e: mvvm::MemError) -> Self {
        VxError::Build(BuildError::Fault(mvvm::Fault::Mem(e)))
    }
}

fn read_cstr(mem: &Memory, addr: u64) -> Option<String> {
    if addr == 0 {
        return None;
    }
    let mut bytes = Vec::new();
    for i in 0..128 {
        let b = mem.read_uint(addr + i, 1).ok()? as u8;
        if b == 0 {
            break;
        }
        bytes.push(b);
    }
    String::from_utf8(bytes).ok().filter(|s| !s.is_empty())
}

/// Recovers the configuration space of a booted world from the loaded
/// image's descriptor sections.
///
/// Every non-function-pointer switch contributes one [`SwitchDomain`]:
/// the union of all guard ranges naming it across every variant (narrow
/// ranges enumerated, wide ranges represented by their endpoints), plus
/// the cell's *current* value so a pass always covers the configuration
/// the machine is actually in.
pub fn config_space(w: &World) -> Result<ConfigSpace, VxError> {
    let read_sec = |name: &str| -> Result<Vec<u8>, VxError> {
        let (addr, size) = w.exe().section(name);
        if size == 0 {
            return Ok(Vec::new());
        }
        Ok(w.machine.mem.read_vec(addr, size as usize)?)
    };
    let vars = parse_variables(&read_sec(SEC_MV_VARIABLES)?)?;
    let fns = parse_functions(&read_sec(SEC_MV_FUNCTIONS)?)?;

    let mut domains = Vec::new();
    for v in vars.iter().filter(|v| !v.fn_ptr) {
        let mut values: BTreeSet<i64> = BTreeSet::new();
        for f in &fns {
            for variant in &f.variants {
                for g in variant.guards.iter().filter(|g| g.var_addr == v.addr) {
                    let (low, high) = (g.low as i64, g.high as i64);
                    if high - low <= RANGE_ENUM_CAP {
                        values.extend(low..=high);
                    } else {
                        values.insert(low);
                        values.insert(high);
                    }
                }
            }
        }
        values.insert(w.machine.mem.read_int(v.addr, v.width as usize, v.signed)?);
        let name = w
            .exe()
            .symbolize(v.addr)
            .filter(|&(_, off)| off == 0)
            .map(|(n, _)| n.to_string())
            .or_else(|| read_cstr(&w.machine.mem, v.name_addr))
            .unwrap_or_else(|| format!("switch@{:#x}", v.addr));
        domains.push(SwitchDomain {
            name,
            addr: v.addr,
            width: v.width as usize,
            signed: v.signed,
            values: values.into_iter().collect(),
        });
    }
    if domains.is_empty() {
        return Err(VxError::NoSwitches);
    }
    Ok(ConfigSpace::new(domains)?)
}

impl World {
    /// The configuration space of this world's image — see
    /// [`config_space`].
    pub fn config_space(&self) -> Result<ConfigSpace, VxError> {
        config_space(self)
    }

    /// Runs `func(args...)` under every switch assignment at once and
    /// returns one observation per leaf configuration.
    ///
    /// The pass reads the machine (`&self`) without perturbing it: the
    /// booted image, current register file and interrupt flag seed the
    /// shared context, and all writes land in per-context overlays.
    pub fn vexec(&self, func: &str, args: &[u64]) -> Result<VexecReport, VxError> {
        let space = config_space(self)?;
        self.vexec_in(&space, func, args)
    }

    /// Like [`World::vexec`] with a caller-built [`ConfigSpace`] (reuse
    /// one space across calls, or restrict/widen domains by hand).
    pub fn vexec_in(
        &self,
        space: &ConfigSpace,
        func: &str,
        args: &[u64],
    ) -> Result<VexecReport, VxError> {
        let entry = self.sym(func)?;
        let mut vx = Vexec::new(&self.machine.mem, space, self.machine.platform());
        Ok(vx.run_call(
            entry,
            args,
            &self.machine.cpu.regs,
            self.machine.cpu.if_flag,
        )?)
    }

    /// Like [`World::vexec_in`], recording `vexec_split` / `vexec_join`
    /// / `vexec_leaf` events into `ring`.
    pub fn vexec_traced(
        &self,
        space: &ConfigSpace,
        func: &str,
        args: &[u64],
        ring: &mut TraceRing,
    ) -> Result<VexecReport, VxError> {
        let entry = self.sym(func)?;
        let mut vx = Vexec::new(&self.machine.mem, space, self.machine.platform()).with_trace(ring);
        Ok(vx.run_call(
            entry,
            args,
            &self.machine.cpu.regs,
            self.machine.cpu.if_flag,
        )?)
    }
}

/// Outcome of a replay cross-check.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCheck {
    /// Leaves replayed and compared.
    pub leaves_checked: usize,
    /// Instructions the replays retired — the enumerate-and-rerun cost
    /// the variational pass competes against ([`enumerate_check`] only;
    /// the oracle path runs committed code, whose counts answer a
    /// different question, so it leaves this 0).
    pub insns: u64,
}

fn set_assignment(w: &mut World, space: &ConfigSpace, leaf: usize) -> Result<(), VxError> {
    for (i, sw) in space.switches().iter().enumerate() {
        let value = space.value(leaf, i);
        let done = match &w.rt {
            Some(rt) => rt.write_switch(&mut w.machine, sw.addr, value).is_ok(),
            None => false,
        };
        if !done {
            w.machine.mem.write_int(sw.addr, value as u64, sw.width)?;
        }
    }
    Ok(())
}

fn mismatch(space: &ConfigSpace, leaf: usize, what: String) -> VxError {
    VxError::Mismatch {
        leaf,
        label: space.label(leaf),
        what,
    }
}

/// Where [`replay_leaves`] hands a leaf's world to a cross-check's hook.
#[derive(Clone, Copy, PartialEq)]
enum At {
    /// Between the switch stores and the call.
    Call,
    /// After a call that returned the leaf's exit value, before the
    /// output is compared.
    Return,
    /// Last, once the output matched.
    End,
}

/// The leaf loop both cross-checks share: for each leaf of `report`,
/// boot a fresh world, store the leaf's switch values, call `func`, and
/// compare the halt, the exit value and the output with the leaf's.
/// `hook` adds the cross-check's own steps at each [`At`]; `who` names
/// the replay in fault messages and `prefix` heads the exit and output
/// messages.
fn replay_leaves<F>(
    boot: F,
    space: &ConfigSpace,
    func: &str,
    args: &[u64],
    report: &VexecReport,
    (who, prefix): (&str, &str),
    mut hook: impl FnMut(At, &mut World, &VexecLeaf) -> Result<(), VxError>,
) -> Result<(), VxError>
where
    F: Fn() -> Result<World, BuildError>,
{
    for leaf in &report.leaves {
        let fail = |what: String| Err(mismatch(space, leaf.leaf, what));
        let mut w = boot()?;
        set_assignment(&mut w, space, leaf.leaf)?;
        hook(At::Call, &mut w, leaf)?;
        let exit = match w.call(func, args) {
            Ok(v) => Some(v),
            Err(BuildError::Fault(mvvm::Fault::Halted)) if leaf.halted => None,
            Err(e) => return fail(format!("{who} faulted: {e}")),
        };
        if let Some(exit) = exit {
            if leaf.halted {
                return fail(format!("{who} returned, vexec halted"));
            }
            if exit != leaf.exit {
                return fail(format!("{prefix}exit {exit:#x} != vexec {:#x}", leaf.exit));
            }
            hook(At::Return, &mut w, leaf)?;
        }
        let out = w.machine.take_output();
        if out != leaf.out {
            return fail(format!(
                "{prefix}output {out:02x?} != vexec {:02x?}",
                leaf.out
            ));
        }
        hook(At::End, &mut w, leaf)?;
    }
    Ok(())
}

/// Replays every leaf of `report` through the *generic* path — fresh
/// world, switches stored but **not** committed, ordinary interpreter —
/// and asserts the full architectural observation matches: exit value,
/// output bytes, register file, compare operands, interrupt flag and
/// every memory byte the variational pass wrote.
///
/// Returns the replay cost in retired instructions, which is the
/// enumerate-and-rerun baseline `report.stats.steps` is measured
/// against.
pub fn enumerate_check(
    program: &Program,
    space: &ConfigSpace,
    func: &str,
    args: &[u64],
    report: &VexecReport,
) -> Result<ReplayCheck, VxError> {
    enumerate_check_with(|| Ok(program.boot()), space, func, args, report)
}

/// [`enumerate_check`] with a caller-supplied boot function, for images
/// whose pre-call state needs setup beyond `Program::boot` (a corpus
/// written into memory, a non-default platform, …). The closure must
/// reconstruct the same base state the variational pass ran against.
pub fn enumerate_check_with<F>(
    boot: F,
    space: &ConfigSpace,
    func: &str,
    args: &[u64],
    report: &VexecReport,
) -> Result<ReplayCheck, VxError>
where
    F: Fn() -> Result<World, BuildError>,
{
    let (mut before, mut insns) = (0, 0);
    let words = ("replay", "");
    replay_leaves(boot, space, func, args, report, words, |at, w, leaf| {
        let fail = |what: String| Err(mismatch(space, leaf.leaf, what));
        let cpu = &w.machine.cpu;
        match at {
            At::Call => before = w.machine.stats.instructions,
            At::Return => {
                for (r, (&got, &want)) in cpu.regs.iter().zip(&leaf.regs).enumerate() {
                    if got != want {
                        return fail(format!("r{r} {got:#x} != vexec {want:#x}"));
                    }
                }
                if cpu.cmp != leaf.cmp {
                    return fail(format!("cmp {:?} != vexec {:?}", cpu.cmp, leaf.cmp));
                }
                if cpu.if_flag != leaf.if_flag {
                    return fail("interrupt flag differs".into());
                }
            }
            At::End => {
                insns += w.machine.stats.instructions - before;
                for &(addr, byte) in &leaf.writes {
                    let got = w.machine.mem.read_uint(addr, 1)? as u8;
                    if got != byte {
                        return fail(format!("mem[{addr:#x}] {got:#04x} != vexec {byte:#04x}"));
                    }
                }
            }
        }
        Ok(())
    })?;
    Ok(ReplayCheck {
        leaves_checked: report.leaves.len(),
        insns,
    })
}

/// Replays every leaf of `report` through the *committed-variant* path:
/// fresh world, switches set, `multiverse_commit()`, then the call.
///
/// Committed code is specialized, so only the black-box observation is
/// compared — exit value and output bytes. A divergence here means the
/// variational pass (which models the generic bodies) and the binding
/// machinery disagree about a configuration's behavior.
pub fn oracle_check(
    program: &Program,
    space: &ConfigSpace,
    func: &str,
    args: &[u64],
    report: &VexecReport,
) -> Result<ReplayCheck, VxError> {
    oracle_check_with(|| Ok(program.boot()), space, func, args, report)
}

/// [`oracle_check`] with a caller-supplied boot function — see
/// [`enumerate_check_with`].
pub fn oracle_check_with<F>(
    boot: F,
    space: &ConfigSpace,
    func: &str,
    args: &[u64],
    report: &VexecReport,
) -> Result<ReplayCheck, VxError>
where
    F: Fn() -> Result<World, BuildError>,
{
    let words = ("oracle", "committed ");
    replay_leaves(boot, space, func, args, report, words, |at, w, _| {
        if at == At::Call && w.rt.is_some() {
            w.commit()?;
        }
        Ok(())
    })?;
    Ok(ReplayCheck {
        leaves_checked: report.leaves.len(),
        insns: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        multiverse(0, 1, 2) i32 mode;
        multiverse bool loud;
        multiverse i64 work(i64 x) {
            i64 acc = x;
            if (mode == 1) { acc = acc + 10; }
            if (mode == 2) { acc = acc * 3; }
            if (loud) { acc = acc + 1000; }
            return acc;
        }
        i64 main(void) { return work(5); }
    "#;

    #[test]
    fn space_is_recovered_from_descriptors() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let w = p.boot();
        let space = w.config_space().unwrap();
        let names: Vec<&str> = space.switches().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"mode"), "names: {names:?}");
        assert!(names.contains(&"loud"), "names: {names:?}");
        let mode = space.switches().iter().find(|s| s.name == "mode").unwrap();
        // Guard points 0/1/2 come from the three variants; the current
        // value 0 is already among them.
        assert_eq!(mode.values, vec![0, 1, 2]);
        assert_eq!(space.leaf_count(), 6);
    }

    #[test]
    fn vexec_covers_the_cross_product_and_replays_clean() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let w = p.boot();
        let space = w.config_space().unwrap();
        let report = w.vexec_in(&space, "work", &[5]).unwrap();
        assert_eq!(report.leaves.len(), 6);
        let chk = enumerate_check(&p, &space, "work", &[5], &report).unwrap();
        assert_eq!(chk.leaves_checked, 6);
        assert!(chk.insns > report.stats.steps, "sharing must pay");
        oracle_check(&p, &space, "work", &[5], &report).unwrap();
        // Spot-check one leaf against the source semantics.
        for leaf in &report.leaves {
            let mode = leaf.assignment.iter().find(|(n, _)| n == "mode").unwrap().1;
            let loud = leaf.assignment.iter().find(|(n, _)| n == "loud").unwrap().1;
            let mut want = 5i64;
            if mode == 1 {
                want += 10;
            }
            if mode == 2 {
                want *= 3;
            }
            if loud != 0 {
                want += 1000;
            }
            assert_eq!(leaf.exit as i64, want, "leaf {}", leaf.leaf);
        }
    }

    #[test]
    fn vexec_does_not_perturb_the_world() {
        let p = Program::build(&[("t", SRC)]).unwrap();
        let mut w = p.boot();
        let before = w.call("work", &[5]).unwrap();
        let space = w.config_space().unwrap();
        w.vexec_in(&space, "work", &[5]).unwrap();
        assert_eq!(w.call("work", &[5]).unwrap(), before);
        assert_eq!(w.get("mode").unwrap(), 0, "switch cell untouched");
    }

    #[test]
    fn non_multiversed_image_has_no_space() {
        let p = Program::build_with(
            &[("t", "i64 main(void) { return 7; }")],
            &mvc::Options::dynamic(),
        )
        .unwrap();
        let w = p.boot();
        assert!(matches!(w.config_space(), Err(VxError::NoSwitches)));
    }
}
