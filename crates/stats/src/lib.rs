#![warn(missing_docs)]

//! # redundancy-stats — numerics and Monte-Carlo machinery
//!
//! Support substrate for the redundancy-strategy workspace:
//!
//! * [`rng`] — deterministic, splittable random number generation
//!   (SplitMix64 seeding, xoshiro256++ stream) so every experiment in
//!   EXPERIMENTS.md is exactly replayable on any platform;
//! * [`special`] — log-factorials, binomial coefficients, and the few
//!   special-function evaluations the paper's formulas need, accurate over
//!   the full range the distributions exercise (multiplicities ≤ ~80,
//!   N ≤ 10⁹);
//! * [`samplers`] — exact samplers for the discrete distributions the
//!   simulator draws from (Bernoulli, binomial, hypergeometric, Poisson,
//!   zero-truncated Poisson, geometric, and Walker-alias categorical —
//!   the last being how task multiplicities are drawn proportionally to a
//!   distribution's weights);
//! * [`estimate`] — streaming moments, binomial proportion estimates with
//!   Wilson confidence intervals, and histograms for the empirical-detection
//!   experiments;
//! * [`parallel`] — a chunked multi-threaded Monte-Carlo trial runner with
//!   per-chunk derived seeds (deterministic regardless of thread count),
//!   worker-persistent accumulators, and a sweep-level driver for the
//!   exhibits' outer parameter grids;
//! * [`table`] — the fixed-width table renderer used to print the paper's
//!   tables byte-identically across the repro binaries and examples.

pub mod estimate;
pub mod gof;
pub mod parallel;
pub mod quantile;
pub mod rng;
pub mod samplers;
pub mod special;
pub mod table;

pub use estimate::{CountMoments, Histogram, Proportion, RunningMoments};
pub use gof::{chi_square_test, regularized_gamma_q, ChiSquare};
pub use parallel::{
    parallel_sweep, run_trials, sweep_thread_split, InvalidTrialConfig, TrialConfig, MAX_THREADS,
};
pub use quantile::P2Quantile;
pub use rng::{DeterministicRng, JumpCache, JumpPoly, SeedSequence};
pub use samplers::alias::DiscreteAlias;
pub use samplers::cache::{BinomialCache, HypergeometricCache, PreparedSampler};
pub use samplers::{
    sample_binomial, sample_geometric, sample_hypergeometric, sample_poisson,
    sample_zero_truncated_poisson, AliasTable, SamplerMode,
};
pub use special::{binomial, binomial_pmf, hypergeometric_pmf, ln_binomial, ln_factorial};
