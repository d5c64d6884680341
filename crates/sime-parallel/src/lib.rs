//! # sime-parallel
//!
//! The three classes of parallel Simulated Evolution evaluated by the paper
//! (Section 6), implemented over the serial engine of [`sime_core`] and the
//! simulated cluster of [`cluster_sim`]:
//!
//! * **Type I — low-level parallelization** ([`type1`]): the cost and
//!   goodness evaluation is distributed over the slaves while the master
//!   performs selection and allocation. The search trajectory is identical to
//!   the serial algorithm; only the runtime changes. The paper (and this
//!   reproduction) finds *no benefit*: allocation, which is not distributed,
//!   dominates the runtime, and the per-iteration broadcast/gather on fast
//!   Ethernet adds overhead that grows with the processor count.
//!
//! * **Type II — domain decomposition** ([`type2`]): the placement rows are
//!   partitioned among the processors and every processor runs the full SimE
//!   iteration (evaluation, selection, allocation) restricted to its own rows;
//!   the master merges the partial placements and re-partitions every
//!   iteration. Two row-allocation patterns are provided: the *fixed* pattern
//!   of Kling & Banerjee (alternating contiguous slices and strided rows) and
//!   the *random* pattern of the authors' earlier work. This is the strategy
//!   that produces real speed-ups, at the price of a restricted cell mobility
//!   that can cost some solution quality.
//!
//! * **Type III — parallel searches** ([`type3`]): several independent SimE
//!   searches with different random seeds cooperate through a central
//!   best-solution store, in the style of asynchronous multiple-Markov-chain
//!   parallel SA. There is no workload division, so the runtime stays at the
//!   serial level; the benefit (if any) is solution quality.
//!
//! * **Portfolio — island-model optimizer race** ([`portfolio`]): `N`
//!   islands, each running a *different* optimizer (a serial SimE chain or
//!   one of the GA/SA/TS baselines from the `metaheuristics` crate), step in
//!   bulk-synchronous epochs with deterministic ring migration of the best
//!   solutions and cooperative early stop when a target quality µ is
//!   reached. This generalises the paper's strategy comparison (Section 7)
//!   from "which SimE organisation" to "which optimizer" under identical
//!   cluster modelling. See `DESIGN.md` §7.
//!
//! Every strategy runs on an **execution backend** ([`exec`]): the
//! [`exec::Modeled`] backend executes the per-rank work inline (the virtual
//! cluster timeline is the only notion of parallel time), the
//! [`exec::Threaded`] backend executes it on a pool of real OS threads. Both
//! produce bitwise-identical outcomes — seeds, per-rank RNG streams and the
//! rank-ordered merge at every synchronisation barrier are backend-
//! independent — so `run_typeN(...)` and
//! `run_typeN_on(..., &Threaded::new(n))` differ only in host wall-clock
//! time. The contract is spelled out in [`exec`] and in `DESIGN.md` §4.
//!
//! Every strategy returns a [`report::StrategyOutcome`] containing the best
//! placement found, the *modeled* runtime on the simulated cluster, the
//! communication statistics, and the host wall-clock time of the run. The
//! table-reproduction binaries in the `bench` crate print these in the layout
//! of the paper's Tables 1–4.
//!
//! The [`batch`] module drives whole **scenario matrices** over these
//! strategies — `{circuit × strategy × backend × workers × objectives}` —
//! reusing one engine per `(circuit, objectives)` across cells, and distils
//! every run into a [`batch::TrajectoryFingerprint`] that the checked-in
//! golden registry (`tests/golden/`, replayed by the root `golden_suite`
//! test) compares bitwise across pushes, backends and worker counts.
//!
//! On top of the batch layer, the [`jobs`] module packages the same machinery
//! as **session state** for long-running services: a thread-safe
//! [`jobs::JobRunner`] with content-addressed circuit and engine caches, the
//! [`control::RunControl`] hook for progress streaming and cooperative
//! cancellation (`run_typeN_ctl`), and the [`exec::SharedPool`] backend that
//! lets many concurrent jobs share one persistent worker pool. The
//! `sime-server` crate builds its placement-as-a-service daemon on these.

#![warn(missing_docs)]

pub mod batch;
pub mod control;
pub mod exec;
pub mod jobs;
pub mod portfolio;
pub mod report;
pub mod type1;
pub mod type2;
pub mod type3;

pub use batch::{
    check_goldens, golden_subset, BatchDriver, GoldenCheck, ScenarioRecord, ScenarioSpec,
    StrategyKind, TrajectoryFingerprint,
};
pub use control::{CancelAfter, CancelToken, FreeRun, ObservedRun, RunControl};
pub use exec::{backend_from_name, ExecBackend, Modeled, SharedPool, Threaded};
pub use jobs::{pl_digest, JobError, JobOutcome, JobRunner, JobSpec};
pub use portfolio::{
    run_portfolio, run_portfolio_ctl, run_portfolio_on, IslandKind, PortfolioConfig, PortfolioMix,
};
pub use report::{modeled_serial_seconds, run_serial_baseline, SerialBaseline, StrategyOutcome};
pub use type1::{run_type1, run_type1_ctl, run_type1_on, Type1Config};
pub use type2::{run_type2, run_type2_ctl, run_type2_on, RowPattern, Type2Config};
pub use type3::{run_type3, run_type3_ctl, run_type3_on, Type3Config};

/// Convenience prelude bringing the parallel-strategy API into scope.
pub mod prelude {
    pub use crate::batch::{
        check_goldens, golden_subset, BatchDriver, GoldenCheck, ScenarioRecord, ScenarioSpec,
        StrategyKind, TrajectoryFingerprint,
    };
    pub use crate::control::{CancelAfter, CancelToken, FreeRun, ObservedRun, RunControl};
    pub use crate::exec::{backend_from_name, ExecBackend, Modeled, SharedPool, Threaded};
    pub use crate::jobs::{JobError, JobOutcome, JobRunner, JobSpec};
    pub use crate::portfolio::{
        run_portfolio, run_portfolio_ctl, run_portfolio_on, IslandKind, PortfolioConfig,
        PortfolioMix,
    };
    pub use crate::report::{run_serial_baseline, SerialBaseline, StrategyOutcome};
    pub use crate::type1::{run_type1, run_type1_ctl, run_type1_on, Type1Config};
    pub use crate::type2::{run_type2, run_type2_ctl, run_type2_on, RowPattern, Type2Config};
    pub use crate::type3::{run_type3, run_type3_ctl, run_type3_on, Type3Config};
}
