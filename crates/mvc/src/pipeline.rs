//! The staged compile pipeline.
//!
//! The driver used to be one monolithic function; this module makes the
//! §3 structure explicit. Every unit flows through five named stages:
//!
//! ```text
//!   lower ──► mv-expand ──► optimize ──► merge ──► codegen
//!   parse,    switch          clone+fold   content-    generic +
//!   lower,    discovery,      per assign-  addressed   variant
//!   inline    cross product   ment         dedup +     machine code,
//!                                          guards      object assembly
//! ```
//!
//! Every build runs all five stages, one after the other on the calling
//! thread, each writing straight into per-function state: the object
//! depends only on the source and the [`Options`], and nothing survives
//! from one [`Pipeline::compile_unit`] call to the next but the
//! counters, the trace and the [`Specializer`]'s reused scratch.
//!
//! The [`Pipeline`] owns per-stage wall-clock timing and counters
//! ([`PipelineStats`]), an optional [`TraceRing`] that receives
//! `stage_begin`/`stage_end` events for mvtrace's sinks, one
//! [`Specializer`] that folds every clone and generic body it compiles,
//! and the knobs from [`Options`]. Structurally identical optimized
//! clones are merged by content address: bucketed by the FNV-1a hash of
//! their canonical key, with a full-key compare within a bucket (see
//! [`crate::mv::merge_clones`]).

use crate::codegen::{gen_function, GenFn};
use crate::driver::Options;
use crate::error::{CompileError, Warning};
use crate::ir::{FuncIr, Inst};
use crate::lexer::lex;
use crate::lower::{lower_unit, Ctx, Lowered};
use crate::mv::{self, ExpandPlan, SpecializedBody, Specializer, VariantInfo};
use crate::parser::parse;
use crate::passes::optimize;
use crate::types::Type;
use mvobj::descriptor::{
    emit_callsite, emit_function, emit_variable, CallsiteDescSym, FnDescSym, VarDescSym,
    VariantDescSym,
};
use mvobj::{link, Executable, Layout, Object};
use mvtrace::{Event, EventKind, TraceRing};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Accumulated wall time and item count for one named stage.
#[derive(Clone, Copy, Debug)]
pub struct StageStats {
    /// Stage name (`lower`, `mv-expand`, `optimize`, `merge`, `codegen`).
    pub name: &'static str,
    /// Total wall-clock nanoseconds spent in the stage.
    pub wall_ns: u64,
    /// Total work items the stage processed (functions, clones, …).
    pub items: u64,
}

/// Counters and timings the pipeline gathers; accumulated across every
/// unit compiled through one [`Pipeline`].
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Per-stage totals, in stage order of first execution.
    pub stages: Vec<StageStats>,
    /// Functions compiled.
    pub functions: u64,
    /// Of those, functions that produced at least one variant.
    pub mv_functions: u64,
    /// Raw specialized clones materialized (pre-merge).
    pub clones: u64,
    /// Variants emitted post-merge.
    pub variants: u64,
}

impl PipelineStats {
    fn add_stage(&mut self, name: &'static str, wall_ns: u64, items: u64) {
        match self.stages.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.wall_ns += wall_ns;
                s.items += items;
            }
            None => self.stages.push(StageStats {
                name,
                wall_ns,
                items,
            }),
        }
    }

    /// Total wall time across all stages.
    pub fn total_wall_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }

    /// Fraction of materialized clones eliminated by the merge stage
    /// (Fig. 2's sharing); 0 when nothing was cloned.
    pub fn merge_rate(&self) -> f64 {
        if self.clones == 0 {
            return 0.0;
        }
        1.0 - self.variants as f64 / self.clones as f64
    }

    /// Human-readable multi-line report (the `mvcc build --stats` body).
    pub fn report(&self) -> String {
        fn ms(ns: u64) -> String {
            format!("{:.3}", ns as f64 / 1e6)
        }
        let mut out = String::new();
        out.push_str(&format!("pipeline: {} stage(s)\n", self.stages.len()));
        out.push_str("  stage       wall (ms)      items\n");
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<10} {:>10} {:>10}\n",
                s.name,
                ms(s.wall_ns),
                s.items
            ));
        }
        out.push_str(&format!(
            "  {:<10} {:>10}\n",
            "total",
            ms(self.total_wall_ns())
        ));
        out.push_str(&format!(
            "functions: {} ({} multiversed)\n",
            self.functions, self.mv_functions
        ));
        out.push_str(&format!(
            "clones: {} -> variants: {} (merge rate {:.1}%)\n",
            self.clones,
            self.variants,
            self.merge_rate() * 100.0
        ));
        out
    }
}

/// Does nothing: the pipeline keeps no state between compiles. Kept
/// only because the benchmark harness under `mvbench/` still calls it;
/// ROADMAP item 9 drops that call and then this function.
#[doc(hidden)]
pub fn clear_compile_cache() {}

// ---------------------------------------------------------------------
// Shared lowering helpers (moved from the monolithic driver)
// ---------------------------------------------------------------------

/// Demotes a just-defined symbol to unit-local visibility (`static`).
fn mark_local(obj: &mut Object, name: &str) {
    if let Some(sym) = obj.symbols.iter_mut().rev().find(|s| s.name == name) {
        sym.global = false;
    }
}

/// Replaces reads of statically configured globals with constants —
/// the compile-time binding of Fig. 1 A.
fn apply_static_config(f: &mut FuncIr, config: &HashMap<String, i64>) {
    if config.is_empty() {
        return;
    }
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            if let Inst::LoadGlobal { dst, global, .. } = inst {
                if let Some(&v) = config.get(global) {
                    *inst = Inst::bound_read(*dst, v);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------

/// Per-function state, filled in stage by stage.
struct FnWork {
    name: String,
    /// Pre-optimize body (post static-config); folded in place by the
    /// optimize stage, after the clones specialized from it.
    generic: FuncIr,
    /// The clones to fold and merge; `None` when the function is not
    /// multiversed or reads no switch (generic body only). The merge
    /// stage consumes it.
    plan: Option<ExpandPlan>,
    /// The plan's folded clones, in assignment order (optimize → merge).
    clones: Vec<SpecializedBody>,
    /// The merged variants (merge → codegen); empty without a plan.
    variants: Vec<VariantInfo>,
}

/// The staged compiler. One instance accumulates stats (and optionally
/// a trace) across every unit it compiles.
pub struct Pipeline {
    opts: Options,
    stats: PipelineStats,
    tracer: Option<TraceRing>,
    /// Folds every clone and generic body, its scratch reused across
    /// functions and units.
    specializer: Specializer,
}

impl Pipeline {
    /// Creates a pipeline with the given options.
    pub fn new(opts: Options) -> Pipeline {
        Pipeline {
            opts,
            stats: PipelineStats::default(),
            tracer: None,
            specializer: Specializer::default(),
        }
    }

    /// Installs a bounded event ring; subsequent compiles emit
    /// `stage_begin`/`stage_end` events into it.
    pub fn enable_tracing(&mut self, cap: usize) {
        self.tracer = Some(TraceRing::new(cap));
    }

    /// Uninstalls the ring and returns everything it buffered.
    pub fn take_trace(&mut self) -> Vec<Event> {
        self.tracer.take().map(|r| r.snapshot()).unwrap_or_default()
    }

    /// The accumulated counters and timings.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    #[inline]
    fn emit(&mut self, kind: impl FnOnce() -> EventKind) {
        if let Some(ring) = self.tracer.as_mut() {
            ring.record(kind());
        }
    }

    /// Runs `f` as the named stage: emits the span events and records
    /// wall time plus the item count `items` extracts from the result.
    fn run_stage<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Pipeline) -> T,
        items: impl Fn(&T) -> u64,
    ) -> T {
        self.emit(|| EventKind::StageBegin { stage: name });
        let t0 = Instant::now();
        let out = f(self);
        let wall = t0.elapsed().as_nanos() as u64;
        let n = items(&out);
        self.stats.add_stage(name, wall, n);
        self.emit(|| EventKind::StageEnd {
            stage: name,
            items: n,
        });
        out
    }

    /// Compiles one translation unit to a relocatable object.
    pub fn compile_unit(
        &mut self,
        source: &str,
        unit_name: &str,
    ) -> Result<(Object, Vec<Warning>), CompileError> {
        let opts = self.opts.clone();
        let mut warnings: Vec<Warning> = Vec::new();

        // Stage 1: lower — parse, lower, inline.
        let lowered: Lowered = self.run_stage(
            "lower",
            |_| -> Result<Lowered, CompileError> {
                let unit = parse(&lex(source)?)?;
                let mut lowered = lower_unit(&unit)?;
                if opts.optimize {
                    crate::passes::inline::run_unit(&mut lowered.funcs);
                }
                Ok(lowered)
            },
            |r| r.as_ref().map(|l| l.funcs.len() as u64).unwrap_or(0),
        )?;
        let ctx = lowered.ctx;
        self.stats.functions += lowered.funcs.len() as u64;

        // Stage 2: mv-expand — static config, switch discovery, cross
        // product; the cheap, error-reporting part.
        let mut work: Vec<FnWork> = self.run_stage(
            "mv-expand",
            |_| -> Result<Vec<FnWork>, CompileError> {
                let mut out = Vec::with_capacity(lowered.funcs.len());
                for f in &lowered.funcs {
                    let mut generic = f.clone();
                    apply_static_config(&mut generic, &opts.static_config);
                    let mut plan = if opts.multiverse {
                        mv::plan_expansion(&generic, &ctx, opts.variant_limit)?
                    } else {
                        None
                    };
                    if let Some(plan) = &mut plan {
                        warnings.append(&mut plan.warnings);
                    }
                    out.push(FnWork {
                        name: f.name.clone(),
                        generic,
                        plan: plan.filter(|p| !p.switches.is_empty()),
                        clones: Vec::new(),
                        variants: Vec::new(),
                    });
                }
                Ok(out)
            },
            |r| {
                r.as_ref()
                    .map(|w| {
                        w.iter()
                            .flat_map(|f| &f.plan)
                            .map(|plan| plan.assignments.len() as u64)
                            .sum()
                    })
                    .unwrap_or(0)
            },
        )?;

        // Stage 3: optimize — the expensive middle. One item per
        // assignment clone plus one per generic body, all folded by the
        // pipeline's one `Specializer`. A function's clones specialize
        // its generic body as mv-expand left it, so the generic is
        // folded last.
        self.run_stage(
            "optimize",
            |p| {
                let mut clones = 0;
                for f in &mut work {
                    if let Some(plan) = &f.plan {
                        f.clones = plan
                            .assignments
                            .iter()
                            .map(|a| p.specializer.specialize(&f.generic, a))
                            .collect();
                        clones += f.clones.len() as u64;
                    }
                    if opts.optimize {
                        optimize(&mut f.generic, &mut p.specializer.scratch);
                    }
                }
                p.stats.clones += clones;
                clones + if opts.optimize { work.len() as u64 } else { 0 }
            },
            |&items| items,
        );

        // Stage 4: merge — content-addressed dedup + guard synthesis.
        self.run_stage(
            "merge",
            |p| {
                let mut items = 0;
                for f in &mut work {
                    let Some(plan) = f.plan.take() else {
                        continue;
                    };
                    let clones = std::mem::take(&mut f.clones);
                    let groups = mv::merge_clones(&clones);
                    f.variants = mv::assemble_variants(
                        &f.name,
                        &plan.switches,
                        plan.assignments,
                        clones,
                        &groups,
                    );
                    items += f.variants.len() as u64;
                    if !f.variants.is_empty() {
                        p.stats.mv_functions += 1;
                    }
                }
                p.stats.variants += items;
                items
            },
            |&items| items,
        );

        // Stage 5: codegen — machine code for each generic and its
        // variants, then object assembly.
        let obj = self.run_stage(
            "codegen",
            |_| -> Result<Object, CompileError> {
                let code = work
                    .iter()
                    .map(|f| {
                        let generic = gen_function(&f.generic, &ctx, opts.multiverse)?;
                        let variants = f
                            .variants
                            .iter()
                            .map(|v| gen_function(&v.ir, &ctx, opts.multiverse))
                            .collect::<Result<Vec<GenFn>, CompileError>>()?;
                        Ok((generic, variants))
                    })
                    .collect::<Result<Vec<_>, CompileError>>()?;
                assemble_object(unit_name, &ctx, &work, &code, opts.multiverse)
            },
            |r| r.as_ref().map(|o| o.symbols.len() as u64).unwrap_or(0),
        )?;

        // Unit-level, order-preserving warning dedup: a diagnostic is
        // reported once no matter how many clones touch it.
        let mut seen: HashSet<Warning> = HashSet::new();
        warnings.retain(|w| seen.insert(w.clone()));

        Ok((obj, warnings))
    }

    /// Compiles several units and links them into an executable.
    pub fn build(
        &mut self,
        units: &[(&str, &str)],
    ) -> Result<(Executable, Vec<Warning>), CompileError> {
        let mut objects = Vec::new();
        let mut warnings = Vec::new();
        for (name, src) in units {
            let (o, w) = self.compile_unit(src, name)?;
            objects.push(o);
            warnings.extend(w);
        }
        let exe =
            link(&objects, &Layout::default()).map_err(|e| CompileError::Link(e.to_string()))?;
        Ok((exe, warnings))
    }
}

/// Object assembly: globals, code, descriptors. `code[i]` is the
/// machine code of `work[i]`'s generic body and of each of its
/// variants. Emission order is fully determined by function order and
/// `BTreeMap` key order, so a build is reproducible byte for byte.
fn assemble_object(
    unit_name: &str,
    ctx: &Ctx,
    work: &[FnWork],
    code: &[(GenFn, Vec<GenFn>)],
    multiverse: bool,
) -> Result<Object, CompileError> {
    let mut obj = Object::new(unit_name);

    // Globals: deterministic order.
    let globals: BTreeMap<&String, _> = ctx.globals.iter().collect();
    for (name, g) in &globals {
        if g.attrs.is_extern {
            continue;
        }
        if let Some(target) = &g.init_addr_of {
            obj.define_data_ptr(name, target);
        } else if let Some(v) = g.init_const {
            let bytes = (v as u64).to_le_bytes();
            obj.define_data(name, &bytes[..g.ty.size() as usize]);
        } else {
            obj.define_bss(name, g.size().max(1));
        }
        if g.attrs.is_static {
            // `static` globals are unit-local: two units may define the
            // same name without a link-time collision.
            mark_local(&mut obj, name);
        }
    }

    // Which functions have their address taken (potential fn-ptr
    // targets)? They get registration descriptors so the runtime can
    // inline them at indirect sites.
    let mut addr_taken: HashSet<String> = HashSet::new();
    for g in ctx.globals.values() {
        if let Some(t) = &g.init_addr_of {
            addr_taken.insert(t.clone());
        }
    }
    for f in work {
        for b in &f.generic.blocks {
            for i in &b.insts {
                if let Inst::AddrOf { symbol, .. } = i {
                    if ctx.funcs.contains_key(symbol) {
                        addr_taken.insert(symbol.clone());
                    }
                }
            }
        }
    }

    // Emit code and gather call-site records.
    let mut all_mv_sites: Vec<(String, u32, String)> = Vec::new(); // (caller, off, callee)
    let mut all_ptr_sites: Vec<(String, u32, String)> = Vec::new();
    for (f, (gen, vgens)) in work.iter().zip(code) {
        obj.add_code(&f.name, &gen.blob);
        if ctx
            .funcs
            .get(&f.name)
            .is_some_and(|sig| sig.attrs.is_static)
        {
            mark_local(&mut obj, &f.name);
        }
        for (off, callee) in &gen.mv_callsites {
            all_mv_sites.push((f.name.clone(), *off, callee.clone()));
        }
        for (off, ptr) in &gen.ptr_callsites {
            all_ptr_sites.push((f.name.clone(), *off, ptr.clone()));
        }
        for (variant, vgen) in f.variants.iter().zip(vgens) {
            obj.add_code(&variant.name, &vgen.blob);
            for (off, callee) in &vgen.mv_callsites {
                all_mv_sites.push((variant.name.clone(), *off, callee.clone()));
            }
            for (off, ptr) in &vgen.ptr_callsites {
                all_ptr_sites.push((variant.name.clone(), *off, ptr.clone()));
            }
        }
    }

    if multiverse {
        // Variable descriptors for switches defined in this unit.
        for (name, g) in &globals {
            if !g.is_switch() || g.attrs.is_extern {
                continue;
            }
            let name_sym = obj.intern_string(name);
            emit_variable(
                &mut obj,
                &VarDescSym {
                    symbol: (*name).clone(),
                    width: g.ty.size() as u32,
                    signed: g.ty.signed(),
                    fn_ptr: g.ty == Type::Fnptr,
                    name_sym: Some(name_sym),
                },
            );
        }

        // Function descriptors: multiversed functions (with variants) and
        // address-taken pointer targets (registration only).
        for (f, (gen, vgens)) in work.iter().zip(code) {
            let is_mv = !f.variants.is_empty();
            if !is_mv && !addr_taken.contains(&f.name) {
                continue;
            }
            let name_sym = obj.intern_string(&f.name);
            emit_function(
                &mut obj,
                &FnDescSym {
                    symbol: f.name.clone(),
                    generic_size: gen.blob.bytes.len() as u32,
                    generic_inline_len: gen.inline_len,
                    name_sym: Some(name_sym),
                    variants: f
                        .variants
                        .iter()
                        .zip(vgens)
                        .flat_map(|(variant, vgen)| {
                            // One descriptor entry per guard set; merged
                            // bodies share the symbol.
                            variant.guard_sets.iter().map(move |gs| VariantDescSym {
                                symbol: variant.name.clone(),
                                body_size: vgen.blob.bytes.len() as u32,
                                inline_len: vgen.inline_len,
                                guards: gs.clone(),
                            })
                        })
                        .collect(),
                },
            );
        }

        // Call-site descriptors.
        for (caller, off, callee) in &all_mv_sites {
            emit_callsite(
                &mut obj,
                &CallsiteDescSym {
                    callee: callee.clone(),
                    caller: caller.clone(),
                    offset: *off,
                },
            );
        }
        for (caller, off, ptr) in &all_ptr_sites {
            emit_callsite(
                &mut obj,
                &CallsiteDescSym {
                    callee: ptr.clone(),
                    caller: caller.clone(),
                    offset: *off,
                },
            );
        }
    }

    Ok(obj)
}
