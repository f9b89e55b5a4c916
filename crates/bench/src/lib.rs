//! # greenweb-bench
//!
//! The evaluation harness: regenerates every table and figure of the
//! GreenWeb paper's evaluation (Sec. 7) from the simulated substrate.
//!
//! * [`figures`] — Fig. 9a/9b (microbenchmarks), Fig. 10a/10b/10c (full
//!   interactions), Fig. 11a/11b (configuration residency), Fig. 12
//!   (switching frequency);
//! * [`tables`] — Tables 1–3;
//! * [`ablation`] — design-choice ablations (feedback loop, UAI budget,
//!   baseline governors, big-only vs. ACMP);
//! * [`profile`] — traced runs: per-stage latency percentiles, a text
//!   flamegraph, and Perfetto-loadable Chrome trace-event export;
//! * [`diff`] — tolerance-aware JSON comparison behind `evaluate diff`,
//!   the CI regression gate over `BENCH_evaluate.json`;
//! * [`suites`] — the four bench suites in one table, each with its
//!   committed `BENCH_*.json` artifact and acceptance gate
//!   (`evaluate bench --suite NAME`, gated by `tests/bench_artifacts.rs`):
//!   * [`microbench`] — serial ≡ parallel over the 48-cell micro matrix
//!     plus per-phase simulated pipeline totals (`micro`);
//!   * [`stylebench`] — naive full-scan vs bucketed + Bloom-filtered
//!     selector matching (`style`);
//!   * [`scriptbench`] — compile-once counters and the bytecode-VM vs
//!     tree-walking-oracle differential (`script`);
//!   * [`paintbench`] — incremental layout / retained-display-list
//!     counters vs the naive full-relayout oracle (`paint`);
//! * [`render`] — fixed-width text rendering used by the `evaluate`
//!   binary.
//!
//! Run `cargo run --release -p greenweb-bench --bin evaluate -- all` to
//! print everything. Every number here is on the simulated clock or a
//! counter; how fast the simulator itself runs on the host is measured
//! by the separate `perfbench/` benchmark.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod diff;
pub mod figures;
pub mod microbench;
pub mod paintbench;
pub mod profile;
pub mod render;
pub mod scriptbench;
pub mod stylebench;
pub mod suites;
pub mod tables;

pub use figures::{
    fig11, fig12, run_app, run_apps, run_suite, run_suite_with, AppRuns, PolicyRun, ResidencyRow,
    SuiteKind, SwitchRow,
};
