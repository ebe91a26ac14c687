//! # df-bench — harnesses regenerating every table and figure of the
//! paper's evaluation (see DESIGN.md §4 for the experiment index).
//!
//! * [`datasets`] — the paper's survey datasets (Figs. 2, 3, 9, 10;
//!   Tables 4, 5), encoded from the published numbers so the harnesses can
//!   print them alongside our measured counterparts;
//! * [`report`] — plain-text table/figure rendering, shape checks, and the
//!   one writer of `results/<name>.json` ([`report::save_json`]);
//! * [`fig14`] — the typed columns and tag table the Fig. 14 binary
//!   stores its tags in, under the paper's three encodings;
//! * [`fig16`] — the end-to-end throughput/latency sweep shared by the
//!   Fig. 16 and Fig. 19 binaries.
//!
//! Binaries (`cargo run -p df-bench --release --bin <name>`):
//! `fig2_anomaly_sources`, `fig3_sdk_loc`, `fig9_instrumentation_effort`,
//! `fig10_troubleshooting`, `fig13_report`, `fig14_storage`,
//! `fig15_query_delay`, `fig16_end_to_end`, `fig19_agent_impact`,
//! `table4_questionnaire`, `ablation_time_window`, `ablation_alg1_iters`.
//! They time with plain `Instant` loops, for the paper's figures only:
//! anything about the product's own speed is the repo benchmark's
//! (`BENCHMARK.json`, `benchmark/`).

#![forbid(unsafe_code)]

pub mod datasets;
pub mod fig14;
pub mod fig16;
pub mod report;
