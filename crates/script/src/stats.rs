//! Deterministic script-pipeline counters.
//!
//! Pure counters — no wall-clock — in the mold of the style system's
//! `StyleStats`, so the script bench and the oracle parity test can diff
//! them byte-for-byte. The engine fills these in as it loads and runs an
//! app; `ops` is backend-independent by the tick-parity contract, while
//! `dispatches`/`fold_wins` are VM-path-only evidence that compilation
//! actually happened (and paid off).

/// Counters from the script execution pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScriptStats {
    /// Setup programs executed at app load.
    pub programs: u64,
    /// Bytecode compilations performed by the engine (load-time compiles
    /// plus handler recompiles). Independent of event count on the VM
    /// path: each program/handler compiles at most once per app load.
    pub compiles: u64,
    /// Setup programs served from the app's precompiled table (compiled
    /// once at `App::build`, validated by source fingerprint).
    pub precompiled_hits: u64,
    /// Distinct handler bodies entered in the shared `HandlerCache`.
    pub handlers: u64,
    /// Handler bodies recompiled from tree-walker AST closures — the
    /// compile-twice debt. Zero on the VM path.
    pub handler_recompiles: u64,
    /// Callback invocations dispatched by the engine.
    pub callbacks: u64,
    /// Evaluation steps charged (backend-independent: VM tick weights
    /// sum to exactly the tree-walker's count).
    pub ops: u64,
    /// Raw VM instructions executed (zero on the tree-walk oracle; the
    /// gap to `ops` is the constant-folding win at run time).
    pub dispatches: u64,
    /// Constant-folding wins across every proto the engine loaded.
    pub fold_wins: u64,
}
