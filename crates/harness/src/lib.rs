//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (Section 8) from the substituted workloads.
//!
//! | Paper artifact | Function | `repro` subcommand |
//! |---|---|---|
//! | Table 1 (sessions & base time) | [`tables::table1`] | `repro table1` |
//! | Table 2 (timing variables) | [`tables::table2`] | `repro table2` |
//! | Table 3 (mean counting variables) | [`tables::table3`] | `repro table3` |
//! | Table 4 (relative overhead statistics) | [`tables::table4`] | `repro table4` |
//! | Figure 7 (max overhead) | [`figures::figure`] | `repro fig7` |
//! | Figure 8 (90th percentile) | [`figures::figure`] | `repro fig8` |
//! | Figure 9 (10–90% trimmed mean) | [`figures::figure`] | `repro fig9` |
//! | §8 breakdown percentages | [`breakdown::breakdown_table`] | `repro breakdown` |
//! | §8 CodePatch code expansion | [`expansion::expansion_table`] | `repro expansion` |
//! | §9 loop-check optimization | [`loopopt::loopopt_table`] | `repro loopopt` |
//! | static write-safety elision | [`staticopt::staticopt_table`] | `repro staticopt` |
//! | §3.3 dynamic-patching hybrid | [`dyncp::dyncp_table`] | `repro dyncp` |
//! | §9 watch-register coverage | [`nhcoverage::coverage_table`] | `repro nhcoverage` |
//!
//! The pipeline ([`analyze_all`]) is the paper's two phases: run each
//! workload once under the tracer, enumerate all candidate monitor
//! sessions, simulate the trace once per page size, discard zero-hit
//! sessions, and evaluate the analytical models per session.

pub mod breakdown;
pub mod dyncp;
pub mod expansion;
pub mod figures;
pub mod loopopt;
pub mod microbench;
pub mod nhcoverage;
pub mod pipeline;
pub mod render;
pub mod staticopt;
pub mod tables;
pub mod verify;

pub use pipeline::{
    analyze, analyze_all, analyze_all_jobs, analyze_all_opts, analyze_opts, default_jobs,
    normalize_ladder, overheads_for, reanalyze, AnalyzeOpts, Scale, WorkloadResults,
};
