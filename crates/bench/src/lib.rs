//! # entropydb-bench
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation (Sec. 6). Each experiment is a library module with a
//! matching binary:
//!
//! | target | paper artifact |
//! |---|---|
//! | `--bin fig2` | Fig. 2(b): heuristic accuracy vs budget |
//! | `--bin fig5` | Fig. 5: error difference vs Ent1&2&3 |
//! | `--bin fig6` | Fig. 6: F-measure, Coarse & Fine |
//! | `--bin fig7` | Fig. 7: Particles accuracy + runtime scaling |
//! | `--bin fig8` | Fig. 8: MaxEnt configuration comparison |
//! | `--bin tables` | Fig. 3, Fig. 4, compression and solver tables |
//! | `--bin all_experiments` | everything above in sequence |
//!
//! All binaries accept `--quick` (smoke-test scale) and `--rows N`.
//! Criterion benches (`cargo bench`) cover the runtime claims: query
//! latency, polynomial evaluation, solver convergence, and build cost.

pub mod common;
pub mod experiments;
pub mod jsonv;
pub mod report;

pub use common::{Method, Scale};
