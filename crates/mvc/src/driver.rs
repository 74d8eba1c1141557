//! The compiler driver: source → object, and multi-unit source → linked
//! executable.
//!
//! Since the staged-pipeline refactor this module is a thin façade: it
//! owns [`Options`] and forwards to [`crate::pipeline::Pipeline`], which
//! runs the lower → mv-expand → optimize → merge → codegen stages with
//! timing and tracing.

use crate::error::{CompileError, Warning};
use crate::pipeline::Pipeline;
use mvobj::{Executable, Object};
use std::collections::HashMap;

/// Compilation options selecting the paper's binding modes.
#[derive(Clone, Debug)]
pub struct Options {
    /// Enable the multiverse pass and descriptor emission (binding C).
    /// With `false`, switches stay ordinary globals evaluated dynamically
    /// (binding B).
    pub multiverse: bool,
    /// Fix these globals to compile-time constants in *every* function —
    /// the `#ifdef` build (binding A). Reads are replaced; the variables
    /// keep their storage.
    pub static_config: HashMap<String, i64>,
    /// Maximum variants per function before
    /// [`CompileError::VariantExplosion`].
    pub variant_limit: usize,
    /// Run the optimizer (constant folding, DCE, CFG cleanup) and
    /// inline small non-multiverse functions (§7.1: multiversed
    /// functions are never inlined; everything else may be).
    pub optimize: bool,
    /// Read by nothing: every build runs on the calling thread. Kept
    /// only because the benchmark harness under `mvbench/` still sets
    /// it; ROADMAP item 9 drops that and then this field.
    #[doc(hidden)]
    pub jobs: usize,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            multiverse: true,
            static_config: HashMap::new(),
            variant_limit: 64,
            optimize: true,
            jobs: 1,
        }
    }
}

impl Options {
    /// Binding B: plain dynamic evaluation, no multiverse machinery.
    pub fn dynamic() -> Options {
        Options {
            multiverse: false,
            ..Options::default()
        }
    }

    /// Binding A: `#ifdef`-style static configuration.
    pub fn static_build(config: &[(&str, i64)]) -> Options {
        Options {
            multiverse: false,
            static_config: config.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            ..Options::default()
        }
    }
}

/// Compiles one translation unit to a relocatable object.
pub fn compile(
    source: &str,
    unit_name: &str,
    opts: &Options,
) -> Result<(Object, Vec<Warning>), CompileError> {
    Pipeline::new(opts.clone()).compile_unit(source, unit_name)
}

/// Compiles several translation units and links them into an executable.
pub fn compile_and_link(
    units: &[(&str, &str)],
    opts: &Options,
) -> Result<(Executable, Vec<Warning>), CompileError> {
    Pipeline::new(opts.clone()).build(units)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvvm::Machine;

    #[test]
    fn end_to_end_arithmetic() {
        let src = r#"
            i64 fib(i64 n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            i64 main(void) { i64 r = fib(10); __halt(); return r; }
        "#;
        // `__halt` stops the machine; main's return value is in r0 after
        // the returns unwound... halt happens before return, so compute
        // into r0 via the call result directly.
        let src2 = r#"
            i64 fib(i64 n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            i64 main(void) { return fib(10); }
        "#;
        let _ = src;
        let (exe, _) = compile_and_link(&[("t", src2)], &Options::default()).unwrap();
        let mut m = Machine::boot(&exe);
        let main = exe.symbol("main").unwrap();
        assert_eq!(m.call(main, &[]).unwrap(), 55);
    }

    #[test]
    fn globals_arrays_and_loops() {
        let src = r#"
            u64 tab[16];
            i64 main(void) {
                for (i64 i = 0; i < 16; i++) { tab[i] = i * i; }
                i64 sum = 0;
                for (i64 i = 0; i < 16; i++) { sum += tab[i]; }
                return sum;
            }
        "#;
        let (exe, _) = compile_and_link(&[("t", src)], &Options::default()).unwrap();
        let mut m = Machine::boot(&exe);
        let main = exe.symbol("main").unwrap();
        assert_eq!(m.call(main, &[]).unwrap(), 1240);
    }

    #[test]
    fn static_build_fixes_switches() {
        let src = r#"
            multiverse bool feature;
            i64 main(void) { if (feature) { return 1; } return 2; }
        "#;
        let on = Options::static_build(&[("feature", 1)]);
        let off = Options::static_build(&[("feature", 0)]);
        let (exe_on, _) = compile_and_link(&[("t", src)], &on).unwrap();
        let (exe_off, _) = compile_and_link(&[("t", src)], &off).unwrap();
        let mut m = Machine::boot(&exe_on);
        assert_eq!(m.call(exe_on.entry, &[]).unwrap(), 1);
        let mut m = Machine::boot(&exe_off);
        assert_eq!(m.call(exe_off.entry, &[]).unwrap(), 2);
        // Static builds carry no descriptors.
        assert_eq!(exe_on.section(mvobj::SEC_MV_FUNCTIONS), (0, 0));
    }

    #[test]
    fn multiverse_build_emits_descriptors() {
        let src = r#"
            multiverse bool a;
            multiverse i64 use_a(void) { if (a) { return 1; } return 0; }
            i64 main(void) { return use_a(); }
        "#;
        let (exe, _) = compile_and_link(&[("t", src)], &Options::default()).unwrap();
        let (_, vsz) = exe.section(mvobj::SEC_MV_VARIABLES);
        let (_, fsz) = exe.section(mvobj::SEC_MV_FUNCTIONS);
        let (_, csz) = exe.section(mvobj::SEC_MV_CALLSITES);
        assert_eq!(vsz, 32);
        assert!(fsz >= 48 + 2 * 32 + 2 * 16, "two variants with guards");
        assert_eq!(csz, 16, "one call site");
        // Variant symbols exist.
        assert!(exe.symbol("use_a.a=0").is_some());
        assert!(exe.symbol("use_a.a=1").is_some());
    }

    #[test]
    fn dynamic_build_emits_nothing() {
        let src = r#"
            multiverse bool a;
            multiverse i64 f(void) { if (a) { return 1; } return 0; }
            i64 main(void) { return f(); }
        "#;
        let (exe, _) = compile_and_link(&[("t", src)], &Options::dynamic()).unwrap();
        assert_eq!(exe.section(mvobj::SEC_MV_VARIABLES), (0, 0));
        assert!(exe.symbol("f.a=1").is_none());
    }

    #[test]
    fn separate_compilation_links() {
        let config = "multiverse bool dbg;";
        let lib = r#"
            extern multiverse bool dbg;
            multiverse i64 get(void) { if (dbg) { return 42; } return 7; }
        "#;
        let main = r#"
            extern i64 get(void);
            i64 main(void) { return get(); }
        "#;
        let (exe, _) = compile_and_link(
            &[("config.c", config), ("lib.c", lib), ("main.c", main)],
            &Options::default(),
        )
        .unwrap();
        let mut m = Machine::boot(&exe);
        assert_eq!(m.call(exe.entry, &[]).unwrap(), 7);
        // The switch descriptor comes from the defining unit only.
        assert_eq!(exe.section(mvobj::SEC_MV_VARIABLES).1, 32);
    }

    #[test]
    fn behaviour_is_identical_across_bindings() {
        // Soundness sanity: the same program computes the same result in
        // dynamic and multiverse builds (before any commit).
        let src = r#"
            multiverse(0,1,2) i32 mode;
            multiverse i64 classify(i64 x) {
                if (mode == 0) { return x * 2; }
                if (mode == 1) { return x + 100; }
                return x - 1;
            }
            i64 main(void) {
                mode = 1;
                return classify(5);
            }
        "#;
        for opts in [Options::default(), Options::dynamic()] {
            let (exe, _) = compile_and_link(&[("t", src)], &opts).unwrap();
            let mut m = Machine::boot(&exe);
            assert_eq!(m.call(exe.entry, &[]).unwrap(), 105, "{opts:?}");
        }
    }

    #[test]
    fn unoptimized_build_still_runs() {
        let src = "i64 main(void) { i64 x = 3; if (x > 1) { x = x * 7; } return x; }";
        let opts = Options {
            optimize: false,
            ..Options::default()
        };
        let (exe, _) = compile_and_link(&[("t", src)], &opts).unwrap();
        let mut m = Machine::boot(&exe);
        assert_eq!(m.call(exe.entry, &[]).unwrap(), 21);
    }

    #[test]
    fn warning_surfaces_switch_write() {
        let src = r#"
            multiverse bool a;
            multiverse void f(void) { if (a) { a = 0; } }
            i64 main(void) { f(); return 0; }
        "#;
        let (_, warnings) = compile_and_link(&[("t", src)], &Options::default()).unwrap();
        assert!(!warnings.is_empty());
    }

    #[test]
    fn recursion_and_params_spill_correctly() {
        // Forces live temps across calls (spill/reload path).
        let src = r#"
            i64 mix(i64 a, i64 b) { return a * 31 + b; }
            i64 chain(i64 n) {
                if (n == 0) { return 1; }
                i64 left = chain(n - 1);
                i64 right = mix(left, n);
                return left + right;
            }
            i64 main(void) { return chain(5); }
        "#;
        let (exe, _) = compile_and_link(&[("t", src)], &Options::default()).unwrap();
        let mut m = Machine::boot(&exe);
        // Reference computed in Rust:
        fn mix(a: i64, b: i64) -> i64 {
            a * 31 + b
        }
        fn chain(n: i64) -> i64 {
            if n == 0 {
                return 1;
            }
            let left = chain(n - 1);
            left + mix(left, n)
        }
        assert_eq!(m.call(exe.entry, &[]).unwrap() as i64, chain(5));
    }
}

#[cfg(test)]
mod static_tests {
    use super::*;
    use mvvm::Machine;

    #[test]
    fn static_globals_do_not_collide_across_units() {
        let unit = |ret: i64| {
            format!(
                "static i64 counter;\n\
                 static i64 helper(void) {{ counter = counter + 1; return {ret}; }}\n"
            )
        };
        let a = format!("{} i64 use_a(void) {{ return helper(); }}", unit(1));
        let b = format!(
            "{} i64 use_b(void) {{ return helper(); }} i64 main(void) {{ return 0; }}",
            unit(2)
        );
        let (exe, _) = compile_and_link(&[("a.c", &a), ("b.c", &b)], &Options::default()).unwrap();
        let mut m = Machine::boot(&exe);
        assert_eq!(m.call(exe.symbol("use_a").unwrap(), &[]).unwrap(), 1);
        assert_eq!(m.call(exe.symbol("use_b").unwrap(), &[]).unwrap(), 2);
        // The statics are not exported.
        assert!(exe.symbol("counter").is_none());
        assert!(exe.symbol("helper").is_none());
    }
}
