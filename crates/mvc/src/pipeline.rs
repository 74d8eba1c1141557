//! The staged compile pipeline.
//!
//! The driver used to be one monolithic function; this module makes the
//! §3 structure explicit. Every unit flows through five named stages:
//!
//! ```text
//!   lower ──► mv-expand ──► optimize ──► merge ──► codegen
//!   parse,    switch          clone+fold   content-    generic +
//!   lower,    discovery,      per assign-  addressed   variant
//!   inline    cross product   ment (par-   dedup +     machine code,
//!                             allel, -j)   guards      object assembly
//! ```
//!
//! Every build runs all five stages: the object depends only on the
//! source and the [`Options`], and nothing survives from one
//! [`Pipeline::compile_unit`] call to the next but the counters and the
//! trace.
//!
//! The [`Pipeline`] owns per-stage wall-clock timing and counters
//! ([`PipelineStats`]), an optional [`TraceRing`] that receives
//! `stage_begin`/`stage_end` events for mvtrace's sinks, and the knobs
//! from [`Options`]:
//!
//! * **Parallelism** (`Options::jobs`): the optimize and codegen stages
//!   fan their per-function / per-assignment work items out over a
//!   scoped `std::thread` pool. Work is claimed by atomic index and the
//!   results are collected *by index*, so the output is byte-identical
//!   to the sequential path regardless of scheduling.
//! * **Content-addressed merge**: structurally identical optimized
//!   clones are bucketed by the FNV-1a hash of their canonical key
//!   (full-key compare within a bucket), replacing the seed's pairwise
//!   O(n²) scan. See [`crate::mv::merge_clones`].

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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
    /// Effective worker count of the parallel stages.
    pub jobs: usize,
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
        out.push_str(&format!(
            "pipeline: {} stage(s), jobs={}\n",
            self.stages.len(),
            self.jobs
        ));
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
// Parallel map
// ---------------------------------------------------------------------

/// Maps `f` over `items` on `workers` scoped threads, each with its own
/// state from `init`, which `f` gets with every item the worker claims.
///
/// Work is claimed by a shared atomic index and each result lands in
/// the slot of its input, so the returned vector is in input order —
/// callers observe identical results for any worker count, which is
/// what makes `-j N` byte-identical to `-j 1`.
fn parallel_map<T, R, S, F>(workers: usize, items: Vec<T>, init: fn() -> S, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        let mut state = init();
        return items.into_iter().map(|t| f(&mut state, t)).collect();
    }
    let input: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let output: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            s.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = input[i]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("each index is claimed exactly once");
                    *output[i].lock().unwrap() = Some(f(&mut state, item));
                }
            });
        }
    });
    output
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled its slot"))
        .collect()
}

/// Resolves `Options::jobs`: 0 means "all available cores".
fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

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

/// Per-function state threaded between stages.
struct FnWork {
    name: String,
    /// Pre-optimize body (post static-config); replaced by the
    /// optimized body after the optimize stage.
    generic: FuncIr,
    /// The clones to fold and merge; `None` when the function is not
    /// multiversed or reads no switch (generic body only).
    plan: Option<ExpandPlan>,
}

/// The staged compiler. One instance accumulates stats (and optionally
/// a trace) across every unit it compiles.
pub struct Pipeline {
    opts: Options,
    stats: PipelineStats,
    tracer: Option<TraceRing>,
}

impl Pipeline {
    /// Creates a pipeline with the given options.
    pub fn new(opts: Options) -> Pipeline {
        let stats = PipelineStats {
            jobs: effective_jobs(opts.jobs),
            ..PipelineStats::default()
        };
        Pipeline {
            opts,
            stats,
            tracer: None,
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
        let jobs = effective_jobs(opts.jobs);
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
        // product. Sequential: this is the cheap, error-reporting part.
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

        // Stage 3: optimize — the expensive middle. One work item per
        // generic body plus one per assignment clone, fanned out over
        // the thread pool and collected by index. Each worker folds in
        // one `Specializer`, reused across its items.
        enum Job {
            Generic(usize),
            Clone(usize, usize),
        }
        enum JobOut {
            Generic(FuncIr),
            Clone(SpecializedBody),
        }
        let mut clone_results: Vec<Vec<Option<SpecializedBody>>> = work
            .iter()
            .map(|f| match &f.plan {
                Some(plan) => (0..plan.assignments.len()).map(|_| None).collect(),
                None => Vec::new(),
            })
            .collect();
        {
            let mut job_list: Vec<Job> = Vec::new();
            for (i, f) in work.iter().enumerate() {
                if opts.optimize {
                    job_list.push(Job::Generic(i));
                }
                if let Some(plan) = &f.plan {
                    for a in 0..plan.assignments.len() {
                        job_list.push(Job::Clone(i, a));
                    }
                }
            }
            let n_jobs = job_list.len() as u64;
            let work_ref = &work;
            let outs: Vec<(Job, JobOut)> = self.run_stage(
                "optimize",
                move |_| {
                    parallel_map(jobs, job_list, Specializer::default, |sp, job| {
                        let out = match &job {
                            Job::Generic(i) => {
                                let mut g = work_ref[*i].generic.clone();
                                optimize(&mut g, &mut sp.scratch);
                                JobOut::Generic(g)
                            }
                            Job::Clone(i, a) => {
                                let plan =
                                    work_ref[*i].plan.as_ref().expect("clone job has a plan");
                                JobOut::Clone(
                                    sp.specialize(&work_ref[*i].generic, &plan.assignments[*a]),
                                )
                            }
                        };
                        (job, out)
                    })
                },
                move |_| n_jobs,
            );
            for (job, out) in outs {
                match (job, out) {
                    (Job::Generic(i), JobOut::Generic(g)) => work[i].generic = g,
                    (Job::Clone(i, a), JobOut::Clone(sb)) => {
                        self.stats.clones += 1;
                        clone_results[i][a] = Some(sb);
                    }
                    _ => unreachable!("job/result kinds always match"),
                }
            }
        }

        // Stage 4: merge — content-addressed dedup + guard synthesis.
        // One variant list per function, empty when it has no plan.
        let merged: Vec<Vec<VariantInfo>> = self.run_stage(
            "merge",
            |p| {
                let mut out = Vec::with_capacity(work.len());
                for (i, f) in work.iter_mut().enumerate() {
                    let variants = match f.plan.take() {
                        None => Vec::new(),
                        Some(plan) => {
                            let bodies: Vec<SpecializedBody> = clone_results[i]
                                .iter_mut()
                                .map(|s| s.take().expect("optimize stage filled every slot"))
                                .collect();
                            let groups = mv::merge_clones(&bodies);
                            mv::assemble_variants(
                                &f.name,
                                &plan.switches,
                                plan.assignments,
                                bodies,
                                &groups,
                            )
                        }
                    };
                    p.stats.variants += variants.len() as u64;
                    if !variants.is_empty() {
                        p.stats.mv_functions += 1;
                    }
                    out.push(variants);
                }
                out
            },
            |r| r.iter().map(|v| v.len() as u64).sum(),
        );

        // Stage 5: codegen — machine code for generics and variants
        // (parallel, pure), then sequential object assembly.
        let obj = self.run_stage(
            "codegen",
            |_| -> Result<Object, CompileError> {
                // (fn index, None = generic | Some(variant index)).
                let mut gen_jobs: Vec<(usize, Option<usize>)> = Vec::new();
                for (i, variants) in merged.iter().enumerate() {
                    gen_jobs.push((i, None));
                    for v in 0..variants.len() {
                        gen_jobs.push((i, Some(v)));
                    }
                }
                let work_ref = &work;
                let merged_ref = &merged;
                let ctx_ref = &ctx;
                type GenResult = ((usize, Option<usize>), Result<GenFn, CompileError>);
                let results: Vec<GenResult> = parallel_map(
                    jobs,
                    gen_jobs,
                    || (),
                    |_, (i, v)| {
                        let ir = match v {
                            None => &work_ref[i].generic,
                            Some(v) => &merged_ref[i][v].ir,
                        };
                        ((i, v), gen_function(ir, ctx_ref, opts.multiverse))
                    },
                );
                let mut generics: Vec<Option<GenFn>> = (0..work.len()).map(|_| None).collect();
                let mut vgens: Vec<Vec<Option<GenFn>>> = merged
                    .iter()
                    .map(|variants| (0..variants.len()).map(|_| None).collect())
                    .collect();
                for ((i, v), r) in results {
                    let g = r?;
                    match v {
                        None => generics[i] = Some(g),
                        Some(v) => vgens[i][v] = Some(g),
                    }
                }

                assemble_object(
                    unit_name,
                    &ctx,
                    &work,
                    &merged,
                    &generics,
                    &vgens,
                    opts.multiverse,
                )
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

/// Sequential object assembly: globals, code, descriptors — emission
/// order is fully determined by function order and `BTreeMap` key
/// order, which is what keeps objects byte-identical across `-j`.
#[allow(clippy::too_many_arguments)]
fn assemble_object(
    unit_name: &str,
    ctx: &Ctx,
    work: &[FnWork],
    merged: &[Vec<VariantInfo>],
    generics: &[Option<GenFn>],
    vgens: &[Vec<Option<GenFn>>],
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
    for (i, f) in work.iter().enumerate() {
        let gen = generics[i].as_ref().expect("generic codegen ran");
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
        for (v, variant) in merged[i].iter().enumerate() {
            let vgen = vgens[i][v].as_ref().expect("variant codegen ran");
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
        for (i, f) in work.iter().enumerate() {
            let is_mv = !merged[i].is_empty();
            if !is_mv && !addr_taken.contains(&f.name) {
                continue;
            }
            let gen = generics[i].as_ref().expect("generic codegen ran");
            let name_sym = obj.intern_string(&f.name);
            emit_function(
                &mut obj,
                &FnDescSym {
                    symbol: f.name.clone(),
                    generic_size: gen.blob.bytes.len() as u32,
                    generic_inline_len: gen.inline_len,
                    name_sym: Some(name_sym),
                    variants: merged[i]
                        .iter()
                        .enumerate()
                        .flat_map(|(v, variant)| {
                            let vgen = vgens[i][v].as_ref().expect("variant codegen ran");
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
