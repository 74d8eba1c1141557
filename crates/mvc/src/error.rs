//! Compiler diagnostics.

use crate::token::Pos;
use core::fmt;

/// A fatal compilation error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// Lexical error.
    Lex {
        /// Description.
        msg: String,
        /// Position.
        pos: Pos,
    },
    /// Syntax error.
    Parse {
        /// Description.
        msg: String,
        /// Position.
        pos: Pos,
    },
    /// Semantic error (undefined names, type mismatches, bad attributes).
    Sema {
        /// Description.
        msg: String,
    },
    /// The cross product of switch domains for one function exceeds the
    /// variant limit — the combinatorial explosion §7.1 warns about.
    VariantExplosion {
        /// Function name.
        function: String,
        /// Number of variants the cross product would produce.
        variants: usize,
        /// Configured limit.
        limit: usize,
        /// The offending switches with their domain sizes, in the
        /// deterministic expansion order — so the error names exactly
        /// which factors of the cross product to restrict.
        switches: Vec<(String, usize)>,
    },
    /// A value in a configuration switch's domain that the switch cannot
    /// hold: outside its type's range, or outside the `i32` range of a
    /// descriptor guard. No commit could ever select its variant.
    SwitchDomain {
        /// Switch name.
        switch: String,
        /// Switch type, as written.
        ty: String,
        /// The offending domain value.
        value: i64,
        /// The values both the switch and a guard can hold.
        range: (i64, i64),
    },
    /// Linking the compiled objects failed.
    Link(String),
    /// Internal assembler failure (a compiler bug).
    Asm(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Lex { msg, pos } => write!(f, "lex error at {pos}: {msg}"),
            CompileError::Parse { msg, pos } => write!(f, "parse error at {pos}: {msg}"),
            CompileError::Sema { msg } => write!(f, "error: {msg}"),
            CompileError::VariantExplosion {
                function,
                variants,
                limit,
                switches,
            } => {
                let product = switches
                    .iter()
                    .map(|(name, n)| format!("`{name}` ({n} values)"))
                    .collect::<Vec<_>>()
                    .join(" × ");
                write!(
                    f,
                    "function `{function}` would generate {variants} variants (limit {limit}): \
                     cross product {product}; restrict switch domains with \
                     `multiverse(v1, v2, …)` or bind fewer switches with `bind(…)`"
                )
            }
            CompileError::SwitchDomain {
                switch,
                ty,
                value,
                range: (lo, hi),
            } => write!(
                f,
                "configuration switch `{switch}` ({ty}) cannot hold domain value {value}: \
                 its variants' guards can only admit {lo}..={hi}"
            ),
            CompileError::Link(msg) => write!(f, "link error: {msg}"),
            CompileError::Asm(msg) => write!(f, "internal assembler error: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A non-fatal diagnostic.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Warning {
    /// A configuration switch is written inside a multiversed function —
    /// the write survives, but the variant generated for the enclosing
    /// assignment will not see it (§3).
    SwitchWrittenInVariant {
        /// Function name.
        function: String,
        /// Switch name.
        switch: String,
    },
    /// A multiversed function reads no configuration switch; no variants
    /// were generated.
    NoSwitchesReferenced {
        /// Function name.
        function: String,
    },
}

impl fmt::Display for Warning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Warning::SwitchWrittenInVariant { function, switch } => write!(
                f,
                "warning: `{function}` writes configuration switch `{switch}`; \
                 specialized variants bind it to a constant"
            ),
            Warning::NoSwitchesReferenced { function } => write!(
                f,
                "warning: multiversed function `{function}` references no configuration switch"
            ),
        }
    }
}
