//! The multiverse variant-generation pass (§3 of the paper).
//!
//! For every `multiverse`-attributed function this pass:
//!
//! 1. computes the set of configuration switches the body *reads*;
//! 2. builds the cross product of their value domains (guarding against
//!    combinatorial explosion with a configurable limit, §7.1);
//! 3. clones the body once per assignment, replacing every switch read
//!    with the assignment's constant, and warning about switch writes;
//! 4. optimizes each clone with the regular pass pipeline, so constant
//!    propagation/folding and dead-code elimination specialize it fully;
//! 5. merges clones that optimized to structurally identical bodies
//!    (Fig. 2: `multi.A=0.B=0` and `multi.A=0.B=1` become one variant)
//!    and synthesizes `[low, high]` range guards that cover exactly the
//!    merged assignments — falling back to one point-guard descriptor
//!    entry per assignment when the merged set is not a contiguous box.

use crate::error::{CompileError, Warning};
use crate::ir::{FuncIr, Inst, Scratch};
use crate::lower::Ctx;
use crate::passes;
use mvobj::descriptor::GuardSym;
use std::collections::{HashMap, HashSet};

/// One specialized variant body with its descriptor guard sets.
#[derive(Clone, Debug)]
pub struct VariantInfo {
    /// Mangled symbol (e.g. `multi.A=1.B=0-1`).
    pub name: String,
    /// The optimized specialized body.
    pub ir: FuncIr,
    /// One guard conjunction per descriptor entry; multiple entries share
    /// this body when the merged assignment set is not a box.
    pub guard_sets: Vec<Vec<GuardSym>>,
    /// The concrete assignments this variant covers (for tests/tooling).
    pub assignments: Vec<Vec<(String, i64)>>,
}

/// Result of variant generation for one function.
#[derive(Clone, Debug)]
pub struct MvResult {
    /// Switch names the function reads, in deterministic order.
    pub switches: Vec<String>,
    /// Generated variants (post-merge).
    pub variants: Vec<VariantInfo>,
    /// Warnings produced.
    pub warnings: Vec<Warning>,
}

/// The mv-expand *plan* for one function: everything the expansion stage
/// decides before any clone is materialized. Splitting planning from
/// execution lets the pipeline report a unit's expansion errors before
/// it folds a single clone, and time the two stages apart.
#[derive(Clone, Debug)]
pub struct ExpandPlan {
    /// Switch names the function specializes over, in deterministic
    /// (sorted, bind-filtered) order.
    pub switches: Vec<String>,
    /// The full cross product of assignments, in domain-major order.
    pub assignments: Vec<Vec<(String, i64)>>,
    /// Warnings produced during planning (switch writes, no reads).
    pub warnings: Vec<Warning>,
}

/// Plans the expansion of `f`, or `None` if `f` is not multiversed.
///
/// This is stage "mv-expand" part one: switch discovery, bind
/// filtering, the switch-write warning scan, the explosion check (which
/// names every offending switch and its domain size), and the cross
/// product itself. No IR is cloned here.
pub fn plan_expansion(
    f: &FuncIr,
    ctx: &Ctx,
    limit: usize,
) -> Result<Option<ExpandPlan>, CompileError> {
    if !f.attrs.multiverse {
        return Ok(None);
    }
    let is_value_switch = |g: &str| {
        ctx.globals
            .get(g)
            .is_some_and(|info| info.is_switch() && info.ty != crate::types::Type::Fnptr)
    };
    let mut switches = f.globals_read(is_value_switch);
    switches.sort();
    // Partial specialization (§2/§7.1): an explicit bind list restricts
    // which referenced switches are fixed; the rest stay dynamic inside
    // the variants.
    if let Some(bind) = &f.attrs.bind {
        for name in bind {
            if !is_value_switch(name) {
                return Err(CompileError::Sema {
                    msg: format!(
                        "`{}`: bind({name}) does not name a configuration switch",
                        f.name
                    ),
                });
            }
        }
        switches.retain(|s| bind.contains(s));
    }

    let mut warnings = Vec::new();
    // §3: emit a warning if a switch is written inside a multiversed
    // function — the variant has it bound to a constant.
    let mut warned: HashSet<String> = HashSet::new();
    for b in &f.blocks {
        for inst in &b.insts {
            if let Inst::StoreGlobal { global, .. } = inst {
                if is_value_switch(global) && warned.insert(global.clone()) {
                    warnings.push(Warning::SwitchWrittenInVariant {
                        function: f.name.clone(),
                        switch: global.clone(),
                    });
                }
            }
        }
    }

    if switches.is_empty() {
        warnings.push(Warning::NoSwitchesReferenced {
            function: f.name.clone(),
        });
        return Ok(Some(ExpandPlan {
            switches,
            assignments: Vec::new(),
            warnings,
        }));
    }

    // Cross product of domains.
    let domains: Vec<Vec<i64>> = switches.iter().map(|s| ctx.switch_domain(s)).collect();
    let total: usize = domains.iter().map(|d| d.len().max(1)).product();
    if total > limit {
        return Err(CompileError::VariantExplosion {
            function: f.name.clone(),
            variants: total,
            limit,
            switches: switches
                .iter()
                .zip(&domains)
                .map(|(s, d)| (s.clone(), d.len().max(1)))
                .collect(),
        });
    }

    // The cross product, last switch varying fastest.
    let n: usize = domains.iter().map(Vec::len).product();
    let mut assignments = Vec::with_capacity(n);
    let mut digits = vec![0; switches.len()];
    for _ in 0..n {
        assignments.push(
            switches
                .iter()
                .zip(&domains)
                .zip(&digits)
                .map(|((s, dom), &d)| (s.clone(), dom[d]))
                .collect(),
        );
        for (d, dom) in digits.iter_mut().zip(&domains).rev() {
            *d += 1;
            if *d < dom.len() {
                break;
            }
            *d = 0;
        }
    }

    Ok(Some(ExpandPlan {
        switches,
        assignments,
        warnings,
    }))
}

/// One specialized, optimized clone plus its canonical merge key. The
/// per-assignment work unit of the pipeline's optimize stage.
#[derive(Clone, Debug)]
pub struct SpecializedBody {
    /// The optimized body, unnamed until [`assemble_variants`] names it.
    pub ir: FuncIr,
    /// `ir`'s [`FuncIr::canonical_key`], which the merge stage buckets on.
    pub key: String,
}

/// The optimize stage's folding state: the body each clone is
/// specialized and folded in, the passes' tables and the key buffer,
/// all reused from clone to clone. A [`crate::Pipeline`] owns one and
/// folds every clone and generic body in it. What a clone allocates is
/// what it keeps: its folded body, sized exactly, and its key.
#[derive(Default)]
pub struct Specializer {
    work: FuncIr,
    pub(crate) scratch: Scratch,
    key: String,
}

impl Specializer {
    /// Stage "optimize", one item: copy `f` with every read of a switch
    /// in `assign` replaced by its constant, run the regular pass
    /// pipeline, and compute the canonical key the merge stage buckets
    /// on. The result depends on `f` and `assign` alone, never on what
    /// this `Specializer` folded before.
    pub fn specialize(&mut self, f: &FuncIr, assign: &[(String, i64)]) -> SpecializedBody {
        let w = &mut self.work;
        w.name.clone_from(&f.name);
        w.n_params = f.n_params;
        w.n_slots = f.n_slots;
        w.n_temps = f.n_temps;
        w.has_ret = f.has_ret;
        let spare = &mut self.scratch.spare;
        if w.blocks.len() > f.blocks.len() {
            spare.extend(w.blocks.drain(f.blocks.len()..));
        }
        while w.blocks.len() < f.blocks.len() {
            w.blocks.push(spare.pop().unwrap_or_default());
        }
        for (b, src) in w.blocks.iter_mut().zip(&f.blocks) {
            b.insts.clear();
            b.insts
                .extend(src.insts.iter().map(|inst| specialized(inst, assign)));
            b.term = src.term.clone();
        }
        passes::optimize(w, &mut self.scratch);
        self.key.clear();
        w.write_canonical_key(&mut self.key, &mut self.scratch);
        SpecializedBody {
            ir: FuncIr {
                name: String::new(),
                blocks: w.blocks.clone(),
                attrs: f.attrs.clone(),
                ..*w
            },
            key: self.key.clone(),
        }
    }
}

/// `inst` with a read of a switch in `assign` replaced by its constant —
/// *before* optimization, exactly as in the plugin.
fn specialized(inst: &Inst, assign: &[(String, i64)]) -> Inst {
    if let Inst::LoadGlobal { dst, global, .. } = inst {
        if let Some(&(_, v)) = assign.iter().find(|(s, _)| s == global) {
            return Inst::bound_read(*dst, v);
        }
    }
    inst.clone()
}

/// 64-bit FNV-1a — the content address of a canonicalized body.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stage "merge": groups structurally identical bodies by content
/// address. Each body's canonical key is FNV-1a-hashed into buckets;
/// within a bucket the full key is compared, so hash collisions can
/// never merge distinct bodies. First-seen group order is preserved,
/// which keeps variant naming and object layout deterministic. O(n)
/// expected — replaces the seed's pairwise `find` scan.
pub fn merge_clones(bodies: &[SpecializedBody]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    // hash → indices into `groups` whose key has that hash.
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, SpecializedBody { key, .. }) in bodies.iter().enumerate() {
        let h = fnv1a(key.as_bytes());
        let bucket = buckets.entry(h).or_default();
        match bucket
            .iter()
            .find(|&&g| bodies[groups[g][0]].key == *key)
            .copied()
        {
            Some(g) => groups[g].push(i),
            None => {
                bucket.push(groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Stage "merge" part two: turns merge groups into named, guarded
/// variants, moving each group's first body and every assignment
/// (`assignments[i]` is `bodies[i]`'s) into them. `base` is the generic
/// function's symbol, which each variant's name extends.
pub fn assemble_variants(
    base: &str,
    switches: &[String],
    assignments: Vec<Vec<(String, i64)>>,
    mut bodies: Vec<SpecializedBody>,
    groups: &[Vec<usize>],
) -> Vec<VariantInfo> {
    let mut assignments: Vec<Option<Vec<(String, i64)>>> =
        assignments.into_iter().map(Some).collect();
    let mut variants = Vec::with_capacity(groups.len());
    for idxs in groups {
        let group_assignments: Vec<Vec<(String, i64)>> = idxs
            .iter()
            .map(|&i| assignments[i].take().expect("each clone is in one group"))
            .collect();
        let guard_sets = synthesize_guards(switches, &group_assignments);
        let name = variant_name(base, switches, &group_assignments, &guard_sets);
        let mut ir = std::mem::take(&mut bodies[idxs[0]].ir);
        ir.name = name.clone();
        variants.push(VariantInfo {
            name,
            ir,
            guard_sets,
            assignments: group_assignments,
        });
    }
    variants
}

/// Generates the variants of `f`, or `None` if `f` is not multiversed.
///
/// Does for one function what the pipeline's mv-expand, optimize and
/// merge stages do to its clones: plan → specialize each assignment in
/// order → merge → assemble. `tests/compile_pipeline.rs` drives it
/// directly to check that every guard set covers exactly the
/// assignments its variant merged.
pub fn generate_variants(
    f: &FuncIr,
    ctx: &Ctx,
    limit: usize,
) -> Result<Option<MvResult>, CompileError> {
    let Some(plan) = plan_expansion(f, ctx, limit)? else {
        return Ok(None);
    };
    if plan.switches.is_empty() {
        return Ok(Some(MvResult {
            switches: plan.switches,
            variants: Vec::new(),
            warnings: plan.warnings,
        }));
    }
    let mut specializer = Specializer::default();
    let bodies: Vec<SpecializedBody> = plan
        .assignments
        .iter()
        .map(|a| specializer.specialize(f, a))
        .collect();
    let groups = merge_clones(&bodies);
    let variants = assemble_variants(&f.name, &plan.switches, plan.assignments, bodies, &groups);
    Ok(Some(MvResult {
        switches: plan.switches,
        variants,
        warnings: plan.warnings,
    }))
}

/// Expresses the merged assignment set as range-guard conjunctions.
///
/// If the set is exactly a "box" — the cross product of per-switch value
/// sets, each of which is a gap-free integer interval — a single guard
/// conjunction with `[min, max]` ranges covers it (Fig. 2's
/// `multi.A=1.B=01`). Otherwise each assignment gets its own point-guard
/// conjunction; all entries share the one merged body.
fn synthesize_guards(switches: &[String], group: &[Vec<(String, i64)>]) -> Vec<Vec<GuardSym>> {
    // Per-switch distinct value sets.
    let mut per_switch: Vec<Vec<i64>> = Vec::with_capacity(switches.len());
    for (si, _) in switches.iter().enumerate() {
        let mut vals: Vec<i64> = group.iter().map(|a| a[si].1).collect();
        vals.sort_unstable();
        vals.dedup();
        per_switch.push(vals);
    }
    let box_size: usize = per_switch.iter().map(|v| v.len()).product();
    let contiguous = |v: &[i64]| v.windows(2).all(|w| w[1] == w[0] + 1);
    let is_box = box_size == group.len() && per_switch.iter().all(|v| contiguous(v));
    // (Distinct assignments guarantee group.len() ≤ box_size; equality
    // means every combination is present.)
    if is_box {
        let guards = switches
            .iter()
            .zip(&per_switch)
            .map(|(s, vals)| GuardSym {
                var_symbol: s.clone(),
                low: *vals.first().expect("non-empty domain") as i32,
                high: *vals.last().expect("non-empty domain") as i32,
            })
            .collect();
        vec![guards]
    } else {
        group
            .iter()
            .map(|assign| {
                assign
                    .iter()
                    .map(|(s, v)| GuardSym {
                        var_symbol: s.clone(),
                        low: *v as i32,
                        high: *v as i32,
                    })
                    .collect()
            })
            .collect()
    }
}

/// Builds the mangled variant symbol, e.g. `multi.A=1.B=0-1`.
fn variant_name(
    base: &str,
    switches: &[String],
    group: &[Vec<(String, i64)>],
    guard_sets: &[Vec<GuardSym>],
) -> String {
    let mut name = base.to_string();
    if guard_sets.len() == 1 {
        for g in &guard_sets[0] {
            if g.low == g.high {
                name.push_str(&format!(".{}={}", g.var_symbol, g.low));
            } else {
                name.push_str(&format!(".{}={}-{}", g.var_symbol, g.low, g.high));
            }
        }
    } else {
        // Non-box merge: name after the first assignment plus a count.
        for (si, s) in switches.iter().enumerate() {
            name.push_str(&format!(".{}={}", s, group[0][si].1));
        }
        name.push_str(&format!("+{}", group.len() - 1));
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lower::lower_unit;
    use crate::parser::parse;

    fn gen(src: &str, name: &str, limit: usize) -> Result<Option<MvResult>, CompileError> {
        let l = lower_unit(&parse(&lex(src).unwrap()).unwrap()).unwrap();
        let f = l.funcs.iter().find(|f| f.name == name).expect("fn");
        generate_variants(f, &l.ctx, limit)
    }

    const FIG2: &str = r#"
        multiverse bool A;
        multiverse i32 B;
        void calc(void) { __out(1); }
        void log_(void) { __out(2); }
        multiverse void multi(void) {
            if (A) {
                calc();
                if (B) {
                    log_();
                }
            }
        }
    "#;

    #[test]
    fn fig2_merges_a0_variants() {
        // Four raw assignments; A=0,B=0 and A=0,B=1 merge to one empty
        // body → 3 variants, as in Fig. 2.
        let r = gen(FIG2, "multi", 32).unwrap().unwrap();
        assert_eq!(r.switches, vec!["A".to_string(), "B".to_string()]);
        assert_eq!(r.variants.len(), 3);
        let merged = r
            .variants
            .iter()
            .find(|v| v.assignments.len() == 2)
            .expect("merged A=0 variant");
        // Its guard must be a single conjunction with B covering [0,1].
        assert_eq!(merged.guard_sets.len(), 1);
        let b_guard = merged.guard_sets[0]
            .iter()
            .find(|g| g.var_symbol == "B")
            .unwrap();
        assert_eq!((b_guard.low, b_guard.high), (0, 1));
        let a_guard = merged.guard_sets[0]
            .iter()
            .find(|g| g.var_symbol == "A")
            .unwrap();
        assert_eq!((a_guard.low, a_guard.high), (0, 0));
        // The merged body is empty (no instructions).
        assert!(merged.ir.blocks.iter().all(|b| b.insts.is_empty()));
        // Names follow the paper's scheme.
        assert!(merged.name.contains("A=0"));
        assert!(merged.name.contains("B=0-1"));
    }

    #[test]
    fn specialized_bodies_lose_the_branch() {
        let r = gen(FIG2, "multi", 32).unwrap().unwrap();
        let a1b1 = r
            .variants
            .iter()
            .find(|v| v.assignments == vec![vec![("A".into(), 1), ("B".into(), 1)]])
            .expect("A=1,B=1 variant");
        // Both calls unconditional, no branches left.
        assert_eq!(a1b1.ir.blocks.len(), 1);
        let calls = a1b1.ir.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Call { .. }))
            .count();
        assert_eq!(calls, 2);
    }

    #[test]
    fn non_multiverse_function_yields_none() {
        let r = gen("multiverse bool A; void f(void) { if (A) {} }", "f", 32).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn no_switch_reads_warns() {
        let r = gen("multiverse bool A; multiverse void f(void) { }", "f", 32)
            .unwrap()
            .unwrap();
        assert!(r.variants.is_empty());
        assert!(matches!(
            r.warnings[0],
            Warning::NoSwitchesReferenced { .. }
        ));
    }

    #[test]
    fn switch_write_warns() {
        let r = gen(
            "multiverse bool A; multiverse void f(void) { if (A) { A = 0; } }",
            "f",
            32,
        )
        .unwrap()
        .unwrap();
        assert!(r
            .warnings
            .iter()
            .any(|w| matches!(w, Warning::SwitchWrittenInVariant { .. })));
    }

    #[test]
    fn explosion_is_detected() {
        let src = r#"
            multiverse(1,2,3,4,5,6,7,8) i32 a;
            multiverse(1,2,3,4,5,6,7,8) i32 b;
            multiverse void f(void) { if (a + b) { __out(1); } }
        "#;
        let err = gen(src, "f", 32).unwrap_err();
        assert!(matches!(
            err,
            CompileError::VariantExplosion {
                variants: 64,
                limit: 32,
                ..
            }
        ));
        // A higher limit admits it.
        assert!(gen(src, "f", 64).is_ok());
    }

    #[test]
    fn enum_domains_use_all_enumerators() {
        let src = r#"
            enum hv { NATIVE, XEN = 1, KVM = 2 };
            multiverse enum hv which;
            multiverse void f(void) {
                if (which == 1) { __out(1); } else { __out(2); }
            }
        "#;
        let r = gen(src, "f", 32).unwrap().unwrap();
        // NATIVE and KVM collapse to the same body → 2 variants.
        assert_eq!(r.variants.len(), 2);
        let not_xen = r
            .variants
            .iter()
            .find(|v| v.assignments.len() == 2)
            .expect("merged non-XEN variant");
        // {0, 2} is not contiguous → two point-guard entries, one body.
        assert_eq!(not_xen.guard_sets.len(), 2);
        assert!(not_xen
            .guard_sets
            .iter()
            .all(|gs| gs.len() == 1 && gs[0].low == gs[0].high));
    }

    #[test]
    fn explicit_domain_restricts_variants() {
        let src = r#"
            multiverse(0, 1) i32 threads_minus_1;
            multiverse void lock(void) { if (threads_minus_1) { __out(1); } }
        "#;
        let r = gen(src, "lock", 32).unwrap().unwrap();
        assert_eq!(r.variants.len(), 2);
    }

    #[test]
    fn bind_restricts_specialization() {
        // f reads both switches but binds only A: two variants, each
        // still evaluating B dynamically, guarded on A alone.
        let src = r#"
            multiverse bool A;
            multiverse(0,1,2,3) i32 B;
            multiverse(bind(A)) i64 f(void) {
                if (A) { return B + 1; }
                return B;
            }
        "#;
        let r = gen(src, "f", 32).unwrap().unwrap();
        assert_eq!(r.switches, vec!["A".to_string()]);
        assert_eq!(r.variants.len(), 2);
        for v in &r.variants {
            assert_eq!(v.guard_sets[0].len(), 1);
            assert_eq!(v.guard_sets[0][0].var_symbol, "A");
            // B is still read dynamically in the variant body.
            let reads_b = v.ir.blocks.iter().any(|b| {
                b.insts
                    .iter()
                    .any(|i| matches!(i, Inst::LoadGlobal { global, .. } if global == "B"))
            });
            assert!(reads_b, "{}: B must stay dynamic", v.name);
        }
    }

    #[test]
    fn bind_of_non_switch_is_an_error() {
        let src = r#"
            multiverse bool A;
            i64 plain;
            multiverse(bind(plain)) void f(void) { if (A) { __out(1); } }
        "#;
        assert!(matches!(gen(src, "f", 32), Err(CompileError::Sema { .. })));
    }

    #[test]
    fn fnptr_switch_does_not_multiply_variants() {
        let src = r#"
            multiverse fnptr op;
            multiverse bool A;
            multiverse void f(void) { if (A) { op(); } }
        "#;
        let r = gen(src, "f", 32).unwrap().unwrap();
        assert_eq!(r.switches, vec!["A".to_string()]);
        assert_eq!(r.variants.len(), 2);
    }

    #[test]
    fn a_reused_specializer_folds_like_a_fresh_one() {
        // Functions of different block counts, specialized in turn by
        // one worker: its work body, spare blocks and tables carry
        // nothing from one clone into the next.
        let src = r#"
            multiverse bool A;
            multiverse(0, 1, 2) i32 B;
            i64 g;
            void calc(void) { __out(1); }
            multiverse void small(void) { if (A) { calc(); } }
            multiverse i64 loops(i64 n) {
                i64 acc = 0;
                for (i64 i = 0; i < n; i++) {
                    if (B == 1) { acc = acc + i; } else { g = g + 1; }
                    if (A) { while (acc > 100) { acc = acc - 7; } }
                }
                if (B) { return acc * 2; }
                return acc;
            }
        "#;
        let l = lower_unit(&parse(&lex(src).unwrap()).unwrap()).unwrap();
        let mut shared = Specializer::default();
        for _ in 0..2 {
            for f in &l.funcs {
                let Some(plan) = plan_expansion(f, &l.ctx, 32).unwrap() else {
                    continue;
                };
                for a in &plan.assignments {
                    let got = shared.specialize(f, a);
                    let fresh = Specializer::default().specialize(f, a);
                    assert_eq!(got.ir, fresh.ir, "{} {a:?}", f.name);
                    assert_eq!(got.key, fresh.key);
                    assert_eq!(got.key, got.ir.canonical_key());
                    // The kept body holds no spare capacity.
                    assert_eq!(got.ir.blocks.capacity(), got.ir.blocks.len());
                    for b in &got.ir.blocks {
                        assert_eq!(b.insts.capacity(), b.insts.len());
                    }
                }
            }
        }
    }
}
