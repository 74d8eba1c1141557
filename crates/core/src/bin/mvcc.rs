//! `mvcc` — the multiverse compiler driver.
//!
//! ```text
//! mvcc build  <file.c>… [--timings] [--stats]
//!                                   compile + link, print image summary;
//!                                   --timings/--stats print the staged
//!                                   pipeline's wall-time / counter report
//!                                   (--timings additionally records
//!                                   stage_begin/stage_end events —
//!                                   exported with --out/--format like
//!                                   `mvcc trace`)
//! mvcc compile <file.c> -o out.mvo  separate compilation: write one
//!                                   relocatable MVO object
//! mvcc link   <file.mvo>… [--run]   link MVO objects (and optionally run
//!                                   main)
//! mvcc dump   <file.c>…             list switches, functions, variants,
//!                                   guards and call sites
//! mvcc disasm <file.c>… [--fn NAME] disassemble the text segment (or one
//!                                   function)
//! mvcc run    <file.c>… [--call F] [--set VAR=V]… [--commit] [--smp N]
//!             [--tier T]
//!                                   execute main (or F) on the machine;
//!                                   --smp N boots an N-vCPU SMP machine,
//!                                   runs F (or main) on every vCPU and
//!                                   prints per-vCPU results plus the
//!                                   machine-wide roll-up (a --commit is
//!                                   performed as a quiesced concurrent
//!                                   commit, see --strategy); --tier picks
//!                                   the execution engine (see common
//!                                   flags)
//! mvcc verify <file.c>… [--set VAR=V]… [--commit] [--smp N]
//!                                   dry-run the commit validate phase and
//!                                   print a per-function / per-site health
//!                                   report (nothing is patched unless
//!                                   --commit is given first; with --commit
//!                                   the per-phase commit timing is printed;
//!                                   with --smp N the commit runs as a
//!                                   quiesced concurrent commit against N
//!                                   vCPUs executing main/F, and the
//!                                   quiesce report is printed)
//! mvcc trace  <file.c>… [--set VAR=V]… [--commit] [--call F]
//!             [--out PATH] [--format chrome|jsonl|text]
//!                                   record the runtime's structured events
//!                                   while committing (and optionally
//!                                   calling F), then export them — chrome
//!                                   format opens in chrome://tracing or
//!                                   Perfetto
//! mvcc stats  <file.c>… [--set VAR=V]… [--call F] [--per-fn] [--commit]
//!             [--json]
//!                                   execute main (or F) under the
//!                                   per-function profiler; with --commit,
//!                                   run generic and committed images and
//!                                   print a per-function comparison (the
//!                                   §6.2 branch-reduction report) plus the
//!                                   trace-ring kept/dropped counters;
//!                                   --per-fn appends the per-(function,
//!                                   variant) residency table; --json emits
//!                                   the profile as a versioned JSON
//!                                   document instead of text
//! mvcc metrics [<file.c>…] [--smoke] [--set VAR=V]… [--commit] [--call F]
//!             [--prom|--json] [--out PATH]
//!                                   run main (or F), then export every
//!                                   mv_vm_*/mv_rt_* metric, read from
//!                                   the machine's and the runtime's
//!                                   counters — Prometheus text
//!                                   exposition by default (--prom), or
//!                                   the versioned JSON snapshot with
//!                                   --json; --smoke uses the built-in
//!                                   storm kernel (no input files)
//! mvcc vexec  [<file.c>…] [--smoke] [--call F] [--configs all|sampled]
//!             [--oracle] [--set VAR=V]…
//!                                   run F (default main) under *every*
//!                                   switch assignment in one variational
//!                                   pass and print the per-configuration
//!                                   observations plus the sharing
//!                                   statistics; --configs picks how many
//!                                   leaves the enumerate-and-rerun
//!                                   cross-check replays (all = every
//!                                   leaf, sampled = a deterministic
//!                                   subset); --oracle additionally
//!                                   replays each leaf through set +
//!                                   commit + call and asserts the
//!                                   committed variants observe the same
//!                                   exit/output; --smoke uses a built-in
//!                                   three-switch kernel (no input files)
//! mvcc serve  <file.c>… [--smp N] [--call F] [--strategy S]
//!                                   boot an SMP world and drive the mvd
//!                                   commit daemon from stdin, one command
//!                                   per line: `flip VAR V`, `prio VAR V`,
//!                                   `commit`, `revert`, `pump [ROUNDS]`,
//!                                   `stats`, `metrics [json]`,
//!                                   `release VAR`, `quit`
//! mvcc storm  [<file.c>…] [--smoke] [--smp N] [--requests N] [--burst N]
//!             [--seed N] [--strategy S] [--history PATH]
//!                                   submit a randomized flip storm for
//!                                   every switch in the image through the
//!                                   mvd daemon and print throughput,
//!                                   latency percentiles and the daemon
//!                                   counters; --smoke uses a built-in
//!                                   kernel (no input files), checks the
//!                                   workers stayed exact and reconciles
//!                                   the exported mv_mvd_* metrics with
//!                                   the daemon counters; --history writes the
//!                                   versioned switch-history JSON (flip
//!                                   timeline + variant residency)
//!
//! common flags:
//!   --dynamic            build without multiverse (binding B)
//!   --static VAR=V       fix a switch at compile time (binding A)
//!   --variant-limit N    override the variant-explosion limit
//!   --smp N              run/verify on an N-vCPU SMP machine
//!   --strategy S         concurrent-commit protocol for --smp commits:
//!                        stop-machine (default) or breakpoint
//!   --tier T             execution engine: tierless (default), block
//!                        (tier-0 decode cache), superblock (tier-1
//!                        fused blocks) or native (tier-2 regions,
//!                        lowered from the live function bodies and
//!                        re-lowered after every commit) —
//!                        observationally identical, tiered runs print
//!                        the block-cache and native-region counters
//! ```

use multiverse::mvc::Options;
use multiverse::{mvasm, mvobj, mvrt, Program};
use std::process::ExitCode;

struct Args {
    cmd: String,
    files: Vec<String>,
    opts: Options,
    call: Option<String>,
    sets: Vec<(String, i64)>,
    commit: bool,
    func: Option<String>,
    output: Option<String>,
    run: bool,
    out: Option<String>,
    format: Option<String>,
    per_fn: bool,
    timings: bool,
    stats_flag: bool,
    smp: usize,
    strategy: mvrt::CommitStrategy,
    tier: multiverse::mvvm::ExecTier,
    configs: String,
    oracle: bool,
    smoke: bool,
    requests: u64,
    burst: u64,
    seed: u64,
    prom: bool,
    json: bool,
    history: Option<String>,
}

/// Parses the command line after the program name.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let cmd = it
        .next()
        .ok_or_else(|| format!("missing command ({})", command_names()))?;
    if !COMMANDS.iter().any(|(name, _)| *name == cmd) {
        return Err(format!("unknown command `{cmd}`"));
    }
    let mut args = Args {
        cmd,
        files: Vec::new(),
        opts: Options::default(),
        call: None,
        sets: Vec::new(),
        commit: false,
        func: None,
        output: None,
        run: false,
        out: None,
        format: None,
        per_fn: false,
        timings: false,
        stats_flag: false,
        smp: 0,
        strategy: mvrt::CommitStrategy::default(),
        tier: multiverse::mvvm::ExecTier::default(),
        configs: "all".to_string(),
        oracle: false,
        smoke: false,
        requests: 96,
        burst: 24,
        seed: 42,
        prom: false,
        json: false,
        history: None,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dynamic" => args.opts.multiverse = false,
            "--static" => {
                let kv = it.next().ok_or("--static needs VAR=V")?;
                let (k, v) = kv.split_once('=').ok_or("--static needs VAR=V")?;
                args.opts.multiverse = false;
                args.opts
                    .static_config
                    .insert(k.to_string(), v.parse().map_err(|_| "bad value")?);
            }
            "--variant-limit" => {
                args.opts.variant_limit = it
                    .next()
                    .ok_or("--variant-limit needs N")?
                    .parse()
                    .map_err(|_| "bad limit")?;
            }
            "--call" => args.call = Some(it.next().ok_or("--call needs a name")?),
            "--set" => {
                let kv = it.next().ok_or("--set needs VAR=V")?;
                let (k, v) = kv.split_once('=').ok_or("--set needs VAR=V")?;
                args.sets
                    .push((k.to_string(), v.parse().map_err(|_| "bad value")?));
            }
            "--commit" => args.commit = true,
            "--fn" => args.func = Some(it.next().ok_or("--fn needs a name")?),
            "-o" => args.output = Some(it.next().ok_or("-o needs a path")?),
            "--run" => args.run = true,
            "--out" => args.out = Some(it.next().ok_or("--out needs a path")?),
            "--format" => args.format = Some(it.next().ok_or("--format needs a name")?),
            "--per-fn" => args.per_fn = true,
            "--smp" => {
                args.smp = it
                    .next()
                    .ok_or("--smp needs a vCPU count")?
                    .parse()
                    .map_err(|_| "bad vCPU count")?;
                if args.smp == 0 {
                    return Err("--smp needs at least 1 vCPU".into());
                }
            }
            "--strategy" => {
                let s = it.next().ok_or("--strategy needs a protocol name")?;
                args.strategy = mvrt::CommitStrategy::parse(&s)
                    .ok_or(format!("unknown strategy `{s}` (stop-machine|breakpoint)"))?;
            }
            "--tier" => {
                let s = it.next().ok_or("--tier needs an engine name")?;
                args.tier = multiverse::mvvm::ExecTier::parse(&s).ok_or(format!(
                    "unknown tier `{s}` (tierless|block|superblock|native)"
                ))?;
            }
            "--configs" => {
                let s = it.next().ok_or("--configs needs a mode (all|sampled)")?;
                if s != "all" && s != "sampled" {
                    return Err(format!("unknown --configs mode `{s}` (all|sampled)"));
                }
                args.configs = s;
            }
            "--oracle" => args.oracle = true,
            "--timings" => args.timings = true,
            "--stats" => args.stats_flag = true,
            "--smoke" => args.smoke = true,
            "--prom" => args.prom = true,
            "--json" => args.json = true,
            "--history" => args.history = Some(it.next().ok_or("--history needs a path")?),
            "--requests" => {
                args.requests = it
                    .next()
                    .ok_or("--requests needs a count")?
                    .parse()
                    .map_err(|_| "bad request count")?;
            }
            "--burst" => {
                args.burst = it
                    .next()
                    .ok_or("--burst needs a count")?
                    .parse()
                    .map_err(|_| "bad burst size")?;
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|_| "bad seed")?;
            }
            f if !f.starts_with('-') => args.files.push(f.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.files.is_empty()
        && !(matches!(args.cmd.as_str(), "storm" | "metrics" | "vexec") && args.smoke)
    {
        return Err("no input files".into());
    }
    Ok(args)
}

fn read_units(args: &Args) -> Result<Vec<(String, String)>, String> {
    let mut units = Vec::new();
    for f in &args.files {
        let src = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        units.push((f.clone(), src));
    }
    Ok(units)
}

fn build(args: &Args) -> Result<Program, String> {
    let units = read_units(args)?;
    let refs: Vec<(&str, &str)> = units
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let p = Program::build_with(&refs, &args.opts).map_err(|e| e.to_string())?;
    for w in p.warnings() {
        eprintln!("{w}");
    }
    Ok(p)
}

fn cmd_build(args: &Args) -> Result<(), String> {
    use multiverse::mvtrace::{ChromeSink, JsonlSink, TextSink, TraceSink};
    let units = read_units(args)?;
    let refs: Vec<(&str, &str)> = units
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    let mut pipeline = multiverse::mvc::Pipeline::new(args.opts.clone());
    if args.timings {
        pipeline.enable_tracing(65536);
    }
    let p = Program::build_with_pipeline(&refs, &mut pipeline, args.opts.multiverse)
        .map_err(|e| e.to_string())?;
    for w in p.warnings() {
        eprintln!("{w}");
    }
    let exe = p.exe();
    println!("image: {} bytes, entry {:#x}", p.image_size(), exe.entry);
    for sec in [
        mvobj::SEC_TEXT,
        mvobj::SEC_RODATA,
        mvobj::SEC_DATA,
        mvobj::SEC_BSS,
        mvobj::SEC_MV_VARIABLES,
        mvobj::SEC_MV_FUNCTIONS,
        mvobj::SEC_MV_CALLSITES,
    ] {
        let (addr, size) = exe.section(sec);
        if size > 0 {
            println!("  {sec:22} {addr:#10x}  {size:>8} B");
        }
    }
    if args.timings || args.stats_flag {
        print!("{}", pipeline.stats().report());
    }
    if args.timings {
        let events = pipeline.take_trace();
        match &args.out {
            Some(path) => {
                let format = args.format.as_deref().unwrap_or("chrome");
                let sink: Box<dyn TraceSink> = match format {
                    "chrome" => Box::new(ChromeSink::with_dropped(0)),
                    "jsonl" => Box::new(JsonlSink::default()),
                    "text" => Box::new(TextSink),
                    other => return Err(format!("unknown --format `{other}` (chrome|jsonl|text)")),
                };
                let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
                sink.export(&events, &mut f).map_err(|e| e.to_string())?;
                eprintln!("wrote {path} ({format}, {} events)", events.len());
            }
            None => print!("{}", TextSink.export_string(&events)),
        }
    }
    Ok(())
}

fn cmd_dump(args: &Args) -> Result<(), String> {
    let p = build(args)?;
    let world = p.boot();
    let Some(rt) = &world.rt else {
        println!("(no multiverse descriptors in this build)");
        return Ok(());
    };
    println!(
        "{} switches, {} functions, {} call sites",
        rt.num_variables(),
        rt.num_functions(),
        rt.num_callsites()
    );
    // Reverse symbol table for pretty names.
    let exe = p.exe();
    let sym_name = |addr: u64| -> String {
        exe.symbolize(addr)
            .filter(|(_, off)| *off == 0)
            .map(|(n, _)| n.to_string())
            .unwrap_or_else(|| format!("{addr:#x}"))
    };
    for (name, &addr) in &exe.symbols {
        if let Some(variants) = rt.variants_of(addr) {
            if variants.is_empty() {
                continue;
            }
            println!("fn {name} @ {addr:#x}");
            for v in variants {
                println!("  variant {} @ {v:#x}", sym_name(v));
            }
            println!("  call sites: {}", rt.callsites_of(addr));
        }
    }
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let p = build(args)?;
    let world = p.boot();
    let exe = p.exe();
    if let Some(f) = &args.func {
        let addr = exe.symbol(f).ok_or_else(|| format!("no symbol `{f}`"))?;
        // Disassemble until the next symbol or 256 bytes.
        let end = exe
            .symbols
            .values()
            .filter(|&&a| a > addr)
            .min()
            .copied()
            .unwrap_or(addr + 256);
        let bytes = world
            .machine
            .mem
            .read_vec(addr, (end - addr) as usize)
            .map_err(|e| e.to_string())?;
        print!("{}", mvasm::disasm(&bytes, addr));
    } else {
        let (taddr, tsize) = exe.section(mvobj::SEC_TEXT);
        let bytes = world
            .machine
            .mem
            .read_vec(taddr, tsize as usize)
            .map_err(|e| e.to_string())?;
        print!("{}", mvasm::disasm(&bytes, taddr));
    }
    Ok(())
}

/// Prints one quiesce report line (shared by `run --smp` and
/// `verify --smp`).
fn print_quiesce(q: &mvrt::QuiesceReport) {
    println!(
        "quiesce[{}]: {} rounds, {} parked, {} trap hits, {} shootdowns, {} stall cycles",
        q.strategy, q.rounds, q.parked, q.trap_hits, q.shootdowns, q.stall_cycles
    );
    println!(
        "commit: {} variants bound, {} generic fallbacks, {} sites, {} unchanged",
        q.commit.variants_committed,
        q.commit.generic_fallbacks,
        q.commit.sites_touched,
        q.commit.unchanged
    );
}

/// The commit's timing line, shared by the unicore and SMP `verify`.
fn print_timing(t: &mvrt::PatchTiming) {
    println!(
        "timing: {:.1} µs total (plan {:.1} µs, validate {:.1} µs, apply {:.1} µs) over {} sites",
        t.elapsed.as_secs_f64() * 1e6,
        t.plan.as_secs_f64() * 1e6,
        t.validate.as_secs_f64() * 1e6,
        t.apply.as_secs_f64() * 1e6,
        t.sites
    );
}

/// Boots an SMP world with `smp` vCPUs, spawns `main` (or `--call F`) on
/// every vCPU and applies the `--set` assignments. Shared by `run --smp`,
/// `verify --smp` and `serve`.
fn boot_smp_workers(args: &Args, p: &Program, smp: usize) -> Result<multiverse::SmpWorld, String> {
    let mut w = p.boot_smp(smp);
    w.set_tier(args.tier);
    for (k, v) in &args.sets {
        w.set(k, *v).map_err(|e| e.to_string())?;
        println!("set {k} = {v}");
    }
    match &args.call {
        Some(f) => w.spawn_all(f, &[]).map_err(|e| e.to_string())?,
        None => {
            let entry = p.exe().entry;
            for i in 0..smp {
                w.smp.spawn(i, entry, &[]).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(w)
}

fn cmd_run_smp(args: &Args, p: &Program) -> Result<(), String> {
    let mut w = boot_smp_workers(args, p, args.smp)?;
    // Let the workers get under way before committing, so a --commit
    // exercises the concurrent protocol rather than patching an idle
    // machine.
    for _ in 0..4 {
        w.smp.step_round();
    }
    if args.commit {
        let q = w
            .commit_quiesced(args.strategy)
            .map_err(|e| e.to_string())?;
        print_quiesce(&q);
    }
    let results = w.run(10_000_000).map_err(|e| e.to_string())?;
    let out = w.smp.machine.take_output();
    if !out.is_empty() {
        println!("--- output ({} bytes) ---", out.len());
        println!("{}", String::from_utf8_lossy(&out));
    }
    for (i, r) in results.iter().enumerate() {
        println!(
            "vcpu {i}: result {r} ({} cycles, {} stalled)",
            w.smp.cycles_of(i),
            w.smp.stall_cycles(i)
        );
    }
    let stats = w.total_stats();
    println!(
        "smp: {} vcpus, {} rounds, {} instructions, {} cycles wall-clock",
        w.vcpus(),
        w.smp.rounds(),
        stats.instructions,
        w.smp.max_cycles()
    );
    print_block_stats(w.smp.machine.tier(), w.smp.block_stats());
    print_native_stats(w.smp.machine.tier(), w.smp.machine.native_stats());
    Ok(())
}

/// Prints the block-cache counters after a tiered run (`--tier block`,
/// `--tier superblock` or `--tier native`); tierless runs have no block
/// layer to report.
fn print_block_stats(tier: multiverse::mvvm::ExecTier, s: multiverse::mvvm::BlockCacheStats) {
    if tier == multiverse::mvvm::ExecTier::Tierless {
        return;
    }
    println!(
        "blocks[{tier}]: {} hits, {} recorded, {} evicted, {} promoted",
        s.hits, s.misses, s.evictions, s.promotions
    );
}

/// Prints the native-region counters after a native-tier run (`--tier
/// native`).
fn print_native_stats(tier: multiverse::mvvm::ExecTier, n: multiverse::mvvm::NativeStats) {
    if tier != multiverse::mvvm::ExecTier::Native {
        return;
    }
    println!(
        "native: {} regions ({} blocks) lowered, {} runs, {} insns, {} invalidated",
        n.regions, n.blocks, n.runs, n.insns, n.invalidations
    );
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let p = build(args)?;
    if args.smp > 0 {
        return cmd_run_smp(args, &p);
    }
    let mut world = p.boot();
    world.set_tier(args.tier);
    for (k, v) in &args.sets {
        world.set(k, *v).map_err(|e| e.to_string())?;
        println!("set {k} = {v}");
    }
    if args.commit {
        let report = world.commit().map_err(|e| e.to_string())?;
        println!(
            "commit: {} variants bound, {} generic fallbacks, {} sites",
            report.variants_committed, report.generic_fallbacks, report.sites_touched
        );
    }
    let result = match &args.call {
        Some(f) => world.call(f, &[]).map_err(|e| e.to_string())?,
        None => {
            let entry = p.exe().entry;
            world.machine.call(entry, &[]).map_err(|e| e.to_string())?
        }
    };
    let out = world.machine.take_output();
    if !out.is_empty() {
        println!("--- output ({} bytes) ---", out.len());
        println!("{}", String::from_utf8_lossy(&out));
    }
    println!("result: {result} ({} cycles)", world.cycles());
    print_block_stats(world.machine.tier(), world.machine.block_stats());
    print_native_stats(world.machine.tier(), world.machine.native_stats());
    if let Some(rt) = &world.rt {
        let s = rt.stats;
        if s.sites_patched > 0 {
            println!(
                "patcher: {} sites patched, {} inlined, {} bytes written",
                s.sites_patched, s.sites_inlined, s.bytes_written
            );
        }
    }
    Ok(())
}

/// Runs the validate dry-run against `m` and prints the health report.
fn print_validation(
    rt: &mvrt::Runtime,
    m: &multiverse::mvvm::Machine,
    exe: &mvobj::Executable,
) -> Result<(), String> {
    let sym_name = |addr: u64| -> String {
        exe.symbolize(addr)
            .filter(|(_, off)| *off == 0)
            .map(|(n, _)| n.to_string())
            .unwrap_or_else(|| format!("{addr:#x}"))
    };
    let report = rt.validate(m);
    println!(
        "verify: {} functions, {} call sites",
        report.functions.len(),
        report.sites.len()
    );
    for f in &report.functions {
        let binding = match f.binding {
            mvrt::FnBinding::Generic => "generic".to_string(),
            mvrt::FnBinding::Variant(v) => format!("variant {}", sym_name(v)),
        };
        let selected = match f.selected {
            Some(v) => format!("selects {}", sym_name(v)),
            None => "generic fallback".to_string(),
        };
        match &f.issue {
            Some(issue) => println!(
                "  fn {:20} bound: {binding:24} {selected}  !! {issue}",
                sym_name(f.generic)
            ),
            None => println!(
                "  fn {:20} bound: {binding:24} {selected}  ok",
                sym_name(f.generic)
            ),
        }
    }
    for s in &report.sites {
        let state = if s.patched { "patched" } else { "original" };
        match &s.issue {
            Some(issue) => println!(
                "  site {:#10x} -> {:20} {state:9} !! {issue}",
                s.site,
                sym_name(s.callee)
            ),
            None => println!(
                "  site {:#10x} -> {:20} {state:9} ok",
                s.site,
                sym_name(s.callee)
            ),
        }
    }
    if report.healthy() {
        println!("image healthy: a full commit would pass validation");
        Ok(())
    } else {
        Err(format!("{} issue(s) found", report.issues()))
    }
}

/// `verify --smp N`: commit concurrently against N running vCPUs, then
/// validate the quiesced image.
fn cmd_verify_smp(args: &Args, p: &Program) -> Result<(), String> {
    let mut w = boot_smp_workers(args, p, args.smp)?;
    if w.rt.is_none() {
        println!("(no multiverse descriptors in this build — nothing to verify)");
        return Ok(());
    }
    for _ in 0..4 {
        w.smp.step_round();
    }
    if args.commit {
        let q = w
            .commit_quiesced(args.strategy)
            .map_err(|e| e.to_string())?;
        print_quiesce(&q);
        print_timing(&w.rt.as_ref().expect("runtime present").last_timing);
    }
    let results = w.run(10_000_000).map_err(|e| e.to_string())?;
    println!(
        "smp: {} vcpus finished ({} rounds, {} stall cycles)",
        results.len(),
        w.smp.rounds(),
        w.smp.total_stall_cycles()
    );
    let rt = w.rt.as_ref().expect("runtime present");
    print_validation(rt, &w.smp.machine, p.exe())
}

fn cmd_verify(args: &Args) -> Result<(), String> {
    let p = build(args)?;
    if args.smp > 0 {
        return cmd_verify_smp(args, &p);
    }
    let mut world = p.boot();
    for (k, v) in &args.sets {
        world.set(k, *v).map_err(|e| e.to_string())?;
        println!("set {k} = {v}");
    }
    if args.commit {
        let report = world.commit().map_err(|e| e.to_string())?;
        println!(
            "commit: {} variants bound, {} generic fallbacks, {} sites, {} unchanged, {} repatched",
            report.variants_committed,
            report.generic_fallbacks,
            report.sites_touched,
            report.unchanged,
            report.repatched
        );
        if let Some(rt) = &world.rt {
            let s = rt.stats;
            println!(
                "batching: {} pages touched, {} mprotects, {} flushes, {} sites skipped",
                s.pages_touched, s.mprotects, s.icache_flushes, s.sites_skipped
            );
            print_timing(&rt.last_timing);
        }
    }
    let Some(rt) = &world.rt else {
        println!("(no multiverse descriptors in this build — nothing to verify)");
        return Ok(());
    };
    print_validation(rt, &world.machine, p.exe())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    use multiverse::mvtrace::{build_spans, ChromeSink, JsonlSink, TextSink, TraceSink};
    let p = build(args)?;
    let mut world = p.boot();
    {
        let Some(rt) = world.rt.as_mut() else {
            return Err("no multiverse descriptors in this build — nothing to trace".into());
        };
        rt.enable_tracing(65536);
    }
    for (k, v) in &args.sets {
        world.set(k, *v).map_err(|e| e.to_string())?;
        eprintln!("set {k} = {v}");
    }
    if args.commit {
        let report = world.commit().map_err(|e| e.to_string())?;
        eprintln!(
            "commit: {} variants bound, {} generic fallbacks, {} sites",
            report.variants_committed, report.generic_fallbacks, report.sites_touched
        );
    }
    if let Some(f) = &args.call {
        let r = world.call(f, &[]).map_err(|e| e.to_string())?;
        eprintln!("call {f} -> {r}");
    }
    let rt = world.rt.as_mut().expect("runtime present");
    let dropped = rt.trace_dropped();
    let events = rt.take_trace();
    if events.is_empty() {
        eprintln!("warning: no events recorded (pass --commit to trace a commit)");
    }
    let forest = build_spans(&events);
    eprintln!(
        "trace: {} events ({dropped} dropped by the ring), {} commit span(s)",
        events.len(),
        forest.commits.len()
    );
    let format = args.format.as_deref().unwrap_or("chrome");
    let sink: Box<dyn TraceSink> = match format {
        "chrome" => Box::new(ChromeSink::with_dropped(dropped)),
        "jsonl" => Box::new(JsonlSink::with_dropped(dropped)),
        "text" => Box::new(TextSink),
        other => return Err(format!("unknown --format `{other}` (chrome|jsonl|text)")),
    };
    match &args.out {
        Some(path) => {
            let mut f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            sink.export(&events, &mut f).map_err(|e| e.to_string())?;
            eprintln!("wrote {path} ({format})");
        }
        None => {
            let mut out = std::io::stdout();
            sink.export(&events, &mut out).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    if args.json && args.commit {
        return Err("--json reports a single profiled run (drop --commit)".into());
    }
    let p = build(args)?;
    // One fresh world per run so the generic and committed measurements
    // start from identical data-segment state. The committed run records
    // the runtime's events into a deliberately small ring so the
    // kept/dropped counters below reflect real ring behavior.
    const STATS_RING: usize = 64;
    type StatsRun = (multiverse::mvvm::Profiler, u64, Option<(usize, u64)>);
    let run = |commit: bool| -> Result<StatsRun, String> {
        let mut world = p.boot();
        for (k, v) in &args.sets {
            world.set(k, *v).map_err(|e| e.to_string())?;
        }
        if commit {
            if let Some(rt) = world.rt.as_mut() {
                rt.enable_tracing(STATS_RING);
            }
            world.commit().map_err(|e| e.to_string())?;
        }
        world.machine.enable_profile(p.exe());
        let result = match &args.call {
            Some(f) => world.call(f, &[]).map_err(|e| e.to_string())?,
            None => {
                let entry = p.exe().entry;
                world.machine.call(entry, &[]).map_err(|e| e.to_string())?
            }
        };
        let prof = world.machine.take_profile().expect("profiler installed");
        let trace = world
            .rt
            .as_mut()
            .filter(|_| commit)
            .map(|rt| (rt.take_trace().len(), rt.trace_dropped()));
        Ok((prof, result, trace))
    };
    if args.commit {
        let (generic, r0, _) = run(false)?;
        let (committed, r1, trace) = run(true)?;
        if r0 != r1 {
            eprintln!("warning: generic returned {r0}, committed returned {r1}");
        }
        println!(
            "{:<24} {:>12} {:>12} {:>9} {:>9} {:>8} {:>8}",
            "function", "cyc(gen)", "cyc(com)", "br(gen)", "br(com)", "mp(gen)", "mp(com)"
        );
        // Union of names, ordered by generic cycles descending, then the
        // committed-only rows (variant bodies) by committed cycles.
        let mut names: Vec<String> = generic.report().iter().map(|r| r.name.clone()).collect();
        for r in committed.report() {
            if !names.contains(&r.name) {
                names.push(r.name.clone());
            }
        }
        let empty = multiverse::mvvm::FnCounters::default();
        let mut tot_g = empty;
        let mut tot_c = empty;
        for name in &names {
            let g = generic.counters_of(name).unwrap_or(empty);
            let c = committed.counters_of(name).unwrap_or(empty);
            tot_g.cycles += g.cycles;
            tot_c.cycles += c.cycles;
            tot_g.stats += g.stats;
            tot_c.stats += c.stats;
            println!(
                "{:<24} {:>12} {:>12} {:>9} {:>9} {:>8} {:>8}",
                name,
                g.cycles,
                c.cycles,
                g.stats.branches,
                c.stats.branches,
                g.stats.mispredicts,
                c.stats.mispredicts
            );
        }
        let pct = |a: u64, b: u64| -> String {
            if a == 0 {
                return "-".into();
            }
            format!("{:+.1}%", (b as f64 - a as f64) / a as f64 * 100.0)
        };
        println!(
            "{:<24} {:>12} {:>12} {:>9} {:>9} {:>8} {:>8}",
            "total",
            tot_g.cycles,
            tot_c.cycles,
            tot_g.stats.branches,
            tot_c.stats.branches,
            tot_g.stats.mispredicts,
            tot_c.stats.mispredicts
        );
        println!(
            "delta: cycles {}, branches {}, mispredicts {}",
            pct(tot_g.cycles, tot_c.cycles),
            pct(tot_g.stats.branches, tot_c.stats.branches),
            pct(tot_g.stats.mispredicts, tot_c.stats.mispredicts)
        );
        if let Some((kept, dropped)) = trace {
            println!("trace ring: {kept} events kept, {dropped} dropped (cap {STATS_RING})");
        }
    } else {
        let (prof, result, _) = run(false)?;
        if args.json {
            println!("{}", stats_json(&prof, result));
        } else if args.per_fn {
            print!("{}", prof.render());
            println!("residency (per function/variant):");
            let rows = multiverse::telemetry::residency_rows(&prof);
            print!("{}", multiverse::telemetry::render_residency(&rows));
        } else {
            let total: u64 = prof.report().iter().map(|r| r.counters.cycles).sum();
            println!("result: {result} ({total} profiled cycles)");
            print!("{}", prof.render());
        }
    }
    Ok(())
}

/// The `mvcc stats --json` document: the profiler report plus its
/// residency join, written with the shared `mvmetrics` JSON writer.
fn stats_json(prof: &multiverse::mvvm::Profiler, result: u64) -> String {
    use multiverse::mvmetrics::json::{array, Obj};
    let functions = prof.report().into_iter().map(|r| {
        let mut o = Obj::new();
        o.str("name", &r.name)
            .u64("cycles", r.counters.cycles)
            .u64("instructions", r.counters.stats.instructions)
            .u64("branches", r.counters.stats.branches)
            .u64("mispredicts", r.counters.stats.mispredicts);
        o.finish()
    });
    let residency = multiverse::telemetry::residency_rows(prof);
    let rows = residency.iter().map(|r| {
        let mut o = Obj::new();
        o.str("function", &r.function)
            .str("variant", &r.variant)
            .u64("cycles", r.cycles)
            .u64("instructions", r.instructions);
        o.finish()
    });
    let mut doc = Obj::new();
    doc.u64("version", 1)
        .str("kind", "mv-stats")
        .u64("result", result)
        .u64(
            "total_cycles",
            multiverse::telemetry::total_attributed_cycles(prof),
        )
        .raw("functions", array(functions))
        .raw("residency", array(rows));
    doc.finish()
}

/// `mvcc metrics`: run main (or `--call F`), then export every metric of
/// the world — Prometheus text by default, the versioned JSON snapshot
/// with `--json`.
fn cmd_metrics(args: &Args) -> Result<(), String> {
    use multiverse::mvmetrics::export;
    if args.prom && args.json {
        return Err("--prom and --json are mutually exclusive".into());
    }
    let smoke = args.smoke && args.files.is_empty();
    let p = if smoke {
        Program::build(&[("smoke.c", SMOKE_SRC)]).map_err(|e| e.to_string())?
    } else {
        build(args)?
    };
    let mut world = p.boot();
    for (k, v) in &args.sets {
        world.set(k, *v).map_err(|e| e.to_string())?;
    }
    if smoke {
        world.set("fast_path", 1).map_err(|e| e.to_string())?;
    }
    if (args.commit || smoke) && world.rt.is_some() {
        world.commit().map_err(|e| e.to_string())?;
    }
    let result = match &args.call {
        Some(f) => world.call(f, &[]).map_err(|e| e.to_string())?,
        None => {
            let entry = world.exe().entry;
            world.machine.call(entry, &[]).map_err(|e| e.to_string())?
        }
    };
    let snap = world.metrics();
    eprintln!("result: {result} ({} metrics)", snap.len());
    let text = if args.json {
        let mut s = export::json(&snap);
        s.push('\n');
        s
    } else {
        export::prometheus(&snap)
    };
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Built-in kernel for `storm --smoke`: two switched functions and a
/// worker loop whose return value is its own iteration count.
const SMOKE_SRC: &str = r#"
    multiverse bool fast_path;
    multiverse bool logging;
    i64 sink;

    multiverse i64 step_fast(void) {
        if (fast_path) { return 3; }
        return 5;
    }

    multiverse i64 step_log(void) {
        if (logging) { return 7; }
        return 11;
    }

    i64 worker(i64 iters) {
        i64 i = 0;
        while (i < iters) {
            sink = step_fast() + step_log();
            i = i + 1;
        }
        return i;
    }

    i64 main(void) { return worker(8); }
"#;

/// Iterations given to each smoke worker.
const SMOKE_ITERS: u64 = 2_000;

/// Renders an `MvdOutcome` for the serve/storm report lines.
fn outcome_str(o: &mvrt::MvdOutcome) -> String {
    match o {
        mvrt::MvdOutcome::Committed(q) => format!("committed ({} rounds)", q.rounds),
        mvrt::MvdOutcome::Failed(e) => format!("failed: {e}"),
        mvrt::MvdOutcome::Quarantined => "quarantined (fast-fail)".into(),
        mvrt::MvdOutcome::Shed => "shed (backpressure)".into(),
        mvrt::MvdOutcome::Expired => "expired (deadline)".into(),
        mvrt::MvdOutcome::Rejected => "rejected (queue full)".into(),
    }
}

/// Renders an `MvdOp` with the switch's symbol name when available.
fn op_str(op: &mvrt::MvdOp, exe: &multiverse::mvobj::Executable) -> String {
    match op {
        mvrt::MvdOp::Flip { switch, value } => {
            let name = exe
                .symbolize(*switch)
                .filter(|(_, off)| *off == 0)
                .map(|(n, _)| n.to_string())
                .unwrap_or_else(|| format!("{switch:#x}"));
            format!("flip {name}={value}")
        }
        mvrt::MvdOp::CommitAll => "commit-all".into(),
        mvrt::MvdOp::RevertAll => "revert-all".into(),
    }
}

/// Prints every pending completion of `daemon`.
fn print_completions(daemon: &mut mvrt::CommitDaemon, exe: &multiverse::mvobj::Executable) {
    for c in daemon.take_completions() {
        println!(
            "req {:>3} {:<24} -> {}",
            c.id,
            op_str(&c.op, exe),
            outcome_str(&c.outcome)
        );
    }
}

fn print_daemon_stats(daemon: &mvrt::CommitDaemon, exe: &multiverse::mvobj::Executable) {
    let s = daemon.stats();
    println!(
        "daemon: {} submitted, {} admitted, {} coalesced, {} committed, {} failed",
        s.submitted, s.admitted, s.coalesced, s.committed, s.failed
    );
    println!(
        "        {} shed, {} expired, {} rejected, {} fast-failed, {} attempts",
        s.shed, s.expired, s.rejected, s.fast_failed, s.attempts
    );
    println!(
        "        {} quarantined, {} degraded, {} healed, epoch {}, pending {}{}",
        s.quarantined,
        s.degraded,
        s.healed,
        daemon.epoch(),
        daemon.pending(),
        if daemon.degraded() { " [degraded]" } else { "" }
    );
    for q in daemon.quarantined() {
        println!(
            "quarantine: {:<24} {} failures since epoch {}: {}",
            op_str(&q.op, exe),
            q.failures,
            q.since_epoch,
            q.error
        );
    }
}

/// `mvcc serve`: an interactive (stdin-driven) mvd control plane over a
/// running SMP world.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use std::io::BufRead;
    let p = build(args)?;
    let smp = if args.smp == 0 { 2 } else { args.smp };
    let mut w = boot_smp_workers(args, &p, smp)?;
    if w.rt.is_none() {
        return Err("no multiverse descriptors in this build — nothing to serve".into());
    }
    let mut daemon = mvrt::CommitDaemon::new(mvrt::MvdConfig {
        strategy: args.strategy,
        ..mvrt::MvdConfig::default()
    });
    let exe = p.exe();
    println!(
        "serving {} vCPUs, strategy {}; commands: flip VAR V | prio VAR V | commit | revert | pump [N] | stats | metrics [json] | release VAR | quit",
        smp, args.strategy
    );
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let res: Result<(), String> = match words.as_slice() {
            [] => Ok(()),
            ["quit"] | ["exit"] => break,
            [lane @ ("flip" | "prio"), var, v] => {
                let value: i64 = v.parse().map_err(|_| format!("bad value `{v}`"))?;
                let lane = if *lane == "prio" {
                    mvrt::Lane::Priority
                } else {
                    mvrt::Lane::Normal
                };
                w.submit_flip(&mut daemon, var, value, lane)
                    .map(|id| println!("queued req {id} ({} pending)", daemon.pending()))
                    .map_err(|e| e.to_string())
            }
            ["commit"] => w
                .submit_op(&mut daemon, mvrt::MvdOp::CommitAll, mvrt::Lane::Normal)
                .map(|id| println!("queued req {id} (commit-all)"))
                .map_err(|e| e.to_string()),
            ["revert"] => w
                .submit_op(&mut daemon, mvrt::MvdOp::RevertAll, mvrt::Lane::Normal)
                .map(|id| println!("queued req {id} (revert-all)"))
                .map_err(|e| e.to_string()),
            ["pump", rest @ ..] => {
                let rounds: u64 = match rest {
                    [] => 4,
                    [n] => n.parse().map_err(|_| format!("bad round count `{n}`"))?,
                    _ => return Err("pump takes at most one argument".into()),
                };
                for _ in 0..rounds {
                    if w.smp.any_live() {
                        w.smp.step_round();
                    }
                }
                let n = w.drain_daemon(&mut daemon).map_err(|e| e.to_string())?;
                println!("pumped {rounds} rounds, processed {n} entries");
                Ok(())
            }
            ["stats"] => {
                print_daemon_stats(&daemon, exe);
                Ok(())
            }
            ["metrics", rest @ ..] if matches!(rest, [] | ["json"]) => {
                let mut snap = w.metrics();
                snap.extend(multiverse::telemetry::daemon_metrics(&daemon));
                if rest.is_empty() {
                    print!("{}", multiverse::mvmetrics::export::prometheus(&snap));
                } else {
                    println!("{}", multiverse::mvmetrics::export::json(&snap));
                }
                Ok(())
            }
            ["release", var] => {
                let addr = w.sym(var).map_err(|e| e.to_string())?;
                match daemon.release(mvrt::MvdOp::Flip {
                    switch: addr,
                    value: 0,
                }) {
                    Some(q) => {
                        println!("released {} ({} failures)", op_str(&q.op, exe), q.failures)
                    }
                    None => println!("{var} is not quarantined"),
                }
                Ok(())
            }
            _ => Err(format!("unknown command `{line}`")),
        };
        if let Err(e) = res {
            println!("error: {e}");
        }
        print_completions(&mut daemon, exe);
    }
    print_daemon_stats(&daemon, exe);
    Ok(())
}

/// `mvcc storm`: a randomized flip storm for every switch in the image,
/// driven through the mvd daemon, with a throughput/latency report.
fn cmd_storm(args: &Args) -> Result<(), String> {
    let p = if args.smoke && args.files.is_empty() {
        Program::build(&[("smoke.c", SMOKE_SRC)]).map_err(|e| e.to_string())?
    } else {
        build(args)?
    };
    let smp = if args.smp == 0 { 4 } else { args.smp };
    let mut w = p.boot_smp(smp);
    w.smp.set_seed(args.seed);
    if args.smoke && args.files.is_empty() {
        w.spawn_all("worker", &[SMOKE_ITERS])
            .map_err(|e| e.to_string())?;
    } else {
        match &args.call {
            Some(f) => w.spawn_all(f, &[]).map_err(|e| e.to_string())?,
            None => {
                let entry = p.exe().entry;
                for i in 0..smp {
                    w.smp.spawn(i, entry, &[]).map_err(|e| e.to_string())?;
                }
            }
        }
    }
    let switches = {
        let Some(rt) = w.rt.as_mut() else {
            return Err("no multiverse descriptors in this build — nothing to storm".into());
        };
        rt.enable_tracing(4096);
        rt.switch_addrs()
    };
    if switches.is_empty() {
        return Err("no integer configuration switches to flip".into());
    }

    let mut daemon = mvrt::CommitDaemon::new(mvrt::MvdConfig {
        capacity: (2 * args.burst as usize).max(8),
        strategy: args.strategy,
        ..mvrt::MvdConfig::default()
    });
    daemon.enable_history(w.switch_history());
    w.smp.machine.enable_profile(p.exe());
    // Deterministic xorshift64 request stream over the seed.
    let mut x = args.seed | 1;
    let mut stream = Vec::with_capacity(args.requests as usize);
    for _ in 0..args.requests {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        stream.push((
            switches[((x >> 8) as usize) % switches.len()],
            ((x >> 32) & 1) as i64,
        ));
    }

    let mut latencies: Vec<u64> = Vec::new();
    for chunk in stream.chunks(args.burst.max(1) as usize) {
        for &(switch, value) in chunk {
            let rt = w.rt.as_mut().expect("runtime present");
            daemon.submit(rt, mvrt::MvdOp::Flip { switch, value }, mvrt::Lane::Normal);
        }
        for _ in 0..4 {
            if w.smp.any_live() {
                w.smp.step_round();
            }
        }
        loop {
            let before = daemon.stats().committed;
            let t0 = w.smp.max_cycles();
            let rt = w.rt.as_mut().expect("runtime present");
            if !daemon.step(rt, &mut w.smp) {
                break;
            }
            if daemon.stats().committed > before {
                latencies.push(w.smp.max_cycles() - t0);
            }
        }
    }
    daemon.take_completions();
    let rets = w.run(10_000_000).map_err(|e| e.to_string())?;

    let exe = p.exe();
    let s = daemon.stats();
    println!(
        "storm[{}]: {} requests over {} switches -> {} commits ({:.1}x coalesced), {} failed",
        args.strategy,
        args.requests,
        switches.len(),
        s.committed,
        args.requests as f64 / s.committed.max(1) as f64,
        s.failed
    );
    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let i = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[i]
    };
    println!(
        "latency: p50 {} cycles, p95 {} cycles ({} samples)",
        pct(0.50),
        pct(0.95),
        latencies.len()
    );
    print_daemon_stats(&daemon, exe);
    let rt = w.rt.as_mut().expect("runtime present");
    let dropped = rt.trace_dropped();
    println!(
        "trace: {} events kept, {dropped} dropped by the ring",
        rt.take_trace().len()
    );
    let history = daemon.take_history().expect("history enabled");
    let prof = w.smp.machine.take_profile().expect("profiler installed");
    let residency = multiverse::telemetry::residency_rows(&prof);
    let total_cycles = multiverse::telemetry::total_attributed_cycles(&prof);
    println!(
        "history: {} flips, {} residency rows over {total_cycles} profiled cycles",
        history.flip_count(),
        residency.len()
    );
    if let Some(path) = &args.history {
        let doc = history.to_json(&residency, total_cycles);
        std::fs::write(path, &doc).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if args.smoke && args.files.is_empty() {
        if daemon.pending() != 0 {
            return Err(format!(
                "smoke: queue failed to drain ({} pending)",
                daemon.pending()
            ));
        }
        if !rets.iter().all(|&r| r == SMOKE_ITERS) {
            return Err(format!("smoke: a worker lost iterations: {rets:?}"));
        }
        if s.committed == 0 {
            return Err("smoke: no commit ever landed".into());
        }
        // Reconcile the exported series with the daemon's own counters.
        let snap = multiverse::telemetry::daemon_metrics(&daemon);
        let counter = |name: &str| -> u64 {
            snap.iter()
                .find(|smp| smp.name == name)
                .and_then(|smp| match smp.value {
                    multiverse::mvmetrics::SampleValue::Counter(v) => Some(v),
                    _ => None,
                })
                .unwrap_or(0)
        };
        let pairs = [
            ("mv_mvd_submitted_total", s.submitted),
            ("mv_mvd_admitted_total", s.admitted),
            ("mv_mvd_coalesced_total", s.coalesced),
            ("mv_mvd_shed_total", s.shed),
            ("mv_mvd_expired_total", s.expired),
            ("mv_mvd_rejected_total", s.rejected),
            ("mv_mvd_fast_failed_total", s.fast_failed),
            ("mv_mvd_committed_total", s.committed),
            ("mv_mvd_failed_total", s.failed),
            ("mv_mvd_quarantined_total", s.quarantined),
            ("mv_mvd_degraded_total", s.degraded),
            ("mv_mvd_healed_total", s.healed),
            ("mv_mvd_attempts_total", s.attempts),
        ];
        for (name, want) in pairs {
            let got = counter(name);
            if got != want {
                return Err(format!("smoke: {name} = {got}, daemon says {want}"));
            }
        }
        if history.flip_count() != s.committed {
            return Err(format!(
                "smoke: {} flips recorded vs {} commits",
                history.flip_count(),
                s.committed
            ));
        }
        let row_sum: u64 = residency.iter().map(|r| r.cycles).sum();
        if row_sum != total_cycles {
            return Err(format!(
                "smoke: residency rows sum to {row_sum}, profiler attributed {total_cycles}"
            ));
        }
        println!(
            "smoke: ok ({} workers exact, {} mvd counters reconciled)",
            rets.len(),
            pairs.len()
        );
    }
    Ok(())
}

/// The built-in `vexec --smoke` kernel: three switches (3 × 2 × 2 = 12
/// leaves), config-dependent branching in a callee so the pass both
/// splits and re-joins, and per-configuration output bytes.
const VEXEC_SMOKE_SRC: &str = r#"
    multiverse(0, 1, 2) i32 mode;
    multiverse bool loud;
    multiverse bool deep;
    multiverse i64 step(i64 x) {
        if (mode == 1) { return x + 10; }
        if (mode == 2) { return x * 3; }
        return x;
    }
    multiverse i64 kernel(i64 x) {
        i64 acc = 0;
        i64 i = 0;
        while (i < 8) { acc = acc + step(x + i); i = i + 1; }
        if (deep) { acc = acc + step(acc); }
        if (loud) { __out(acc); }
        return acc;
    }
    i64 main(void) { return kernel(7); }
"#;

fn cmd_vexec(args: &Args) -> Result<(), String> {
    use multiverse::{enumerate_check, oracle_check};
    let p = if args.smoke {
        Program::build(&[("smoke.c", VEXEC_SMOKE_SRC)]).map_err(|e| e.to_string())?
    } else {
        build(args)?
    };
    let mut world = p.boot();
    for (k, v) in &args.sets {
        world.set(k, *v).map_err(|e| e.to_string())?;
    }
    let space = world.config_space().map_err(|e| e.to_string())?;
    println!(
        "config space: {} switches, {} leaf configurations",
        space.switches().len(),
        space.leaf_count()
    );
    for s in space.switches() {
        println!("  {} @{:#x}: {:?}", s.name, s.addr, s.values);
    }
    let func = args.call.clone().unwrap_or_else(|| {
        if args.smoke {
            "kernel".into()
        } else {
            "main".into()
        }
    });
    let report = world
        .vexec_in(&space, &func, &[])
        .map_err(|e| e.to_string())?;
    let shown = report.leaves.len().min(24);
    for leaf in &report.leaves[..shown] {
        println!(
            "  [{:>4}] {:40} -> {} ({} out bytes)",
            leaf.leaf,
            space.label(leaf.leaf),
            leaf.exit as i64,
            leaf.out.len()
        );
    }
    if shown < report.leaves.len() {
        println!("  … {} more leaves", report.leaves.len() - shown);
    }
    let st = &report.stats;
    println!(
        "vexec: {} shared steps for {} enumeration-equivalent insns \
         (sharing ratio {:.1}), {} splits, {} joins, {} live contexts peak",
        st.steps,
        st.enum_equiv_insns,
        st.shared_prefix_ratio(),
        st.splits,
        st.joins,
        st.max_live
    );
    // The replay cross-checks work off a leaf list; `--configs sampled`
    // thins it to a deterministic subset (first, last, every k-th).
    let mut checked = report.clone();
    if args.configs == "sampled" && checked.leaves.len() > 8 {
        let k = checked.leaves.len().div_ceil(8);
        let last = checked.leaves.len() - 1;
        checked.leaves.retain(|l| l.leaf % k == 0 || l.leaf == last);
    }
    let chk =
        enumerate_check(&p, &space, &func, &[], &checked).map_err(|e| format!("FAILED: {e}"))?;
    println!(
        "enumerate-and-rerun check: {} of {} leaves replayed, {} insns \
         (vexec speedup {:.1}x over the replayed subset)",
        chk.leaves_checked,
        report.leaves.len(),
        chk.insns,
        chk.insns as f64 / st.steps.max(1) as f64 * report.leaves.len() as f64
            / chk.leaves_checked.max(1) as f64
    );
    if args.oracle {
        let och =
            oracle_check(&p, &space, &func, &[], &checked).map_err(|e| format!("FAILED: {e}"))?;
        println!(
            "oracle check: {} leaves replayed through set + commit + call, all equal",
            och.leaves_checked
        );
    }
    Ok(())
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    if args.files.len() != 1 {
        return Err("compile takes exactly one source file".into());
    }
    let f = &args.files[0];
    let src = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
    let (obj, warnings) =
        multiverse::mvc::compile(&src, f, &args.opts).map_err(|e| e.to_string())?;
    for w in &warnings {
        eprintln!("{w}");
    }
    let out = args
        .output
        .clone()
        .unwrap_or_else(|| format!("{}.mvo", f.trim_end_matches(".c")));
    let bytes = mvobj::write_object(&obj);
    std::fs::write(&out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "{out}: {} bytes ({} sections, {} symbols, {} relocs)",
        bytes.len(),
        obj.sections.len(),
        obj.symbols.len(),
        obj.relocs.len()
    );
    Ok(())
}

fn cmd_link(args: &Args) -> Result<(), String> {
    let mut objects = Vec::new();
    for f in &args.files {
        let bytes = std::fs::read(f).map_err(|e| format!("{f}: {e}"))?;
        objects.push(mvobj::read_object(&bytes).map_err(|e| format!("{f}: {e}"))?);
    }
    let exe = mvobj::link(&objects, &mvobj::Layout::default()).map_err(|e| e.to_string())?;
    println!(
        "linked {} objects: image {} bytes, entry {:#x}",
        objects.len(),
        exe.image_size(),
        exe.entry
    );
    if args.run {
        let mut m = multiverse::mvvm::Machine::boot(&exe);
        let result = m.call(exe.entry, &[]).map_err(|e| e.to_string())?;
        println!("result: {result} ({} cycles)", m.cycles());
    }
    Ok(())
}

/// A subcommand's entry point.
type Command = fn(&Args) -> Result<(), String>;

/// Every subcommand, in usage order.
const COMMANDS: [(&str, Command); 13] = [
    ("build", cmd_build),
    ("compile", cmd_compile),
    ("link", cmd_link),
    ("dump", cmd_dump),
    ("disasm", cmd_disasm),
    ("run", cmd_run),
    ("vexec", cmd_vexec),
    ("verify", cmd_verify),
    ("trace", cmd_trace),
    ("stats", cmd_stats),
    ("metrics", cmd_metrics),
    ("serve", cmd_serve),
    ("storm", cmd_storm),
];

/// The subcommand names as `build|compile|…`.
fn command_names() -> String {
    COMMANDS.map(|(name, _)| name).join("|")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mvcc: {e}");
            eprintln!("usage: mvcc {} <file.c>… [flags]", command_names());
            return ExitCode::FAILURE;
        }
    };
    let (_, run) = COMMANDS
        .iter()
        .find(|(name, _)| *name == args.cmd)
        .expect("parse_args accepts only listed commands");
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mvcc: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        parse_args(line.split_whitespace().map(String::from)).expect("parses")
    }

    /// `--dynamic` and `--static` each switch multiverse off and nothing
    /// else, so the static config survives in either order.
    #[test]
    fn dynamic_keeps_the_static_config_in_either_order() {
        for line in [
            "build x.c --static X=1 --dynamic",
            "build x.c --dynamic --static X=1",
        ] {
            let args = parse(line);
            assert!(!args.opts.multiverse, "{line}");
            assert_eq!(args.opts.static_config.get("X"), Some(&1), "{line}");
        }
        let args = parse("build x.c --variant-limit 9 --dynamic");
        assert_eq!(args.opts.variant_limit, 9);
    }
}
