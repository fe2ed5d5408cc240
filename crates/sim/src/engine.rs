//! The campaign engine: one full supervisor round against the adversary.
//!
//! For every task the engine draws how many copies the adversary holds
//! (binomial under [`AdversaryModel::AssignmentFraction`]; hypergeometric
//! under [`AdversaryModel::SybilAccounts`], since real platforms send the
//! copies of one task to *distinct* hosts), materializes the returned
//! result values — honest, honestly-faulty, or colluded-wrong — and runs
//! the supervisor's comparison, tallying detections per tuple size.
//!
//! # The batched kernel
//!
//! The hot loop is batched over [`grouped_specs`] runs of identical task
//! shape: per-shape constants (multiplicity, adversary sampler preparation,
//! task/assignment counters) are hoisted out of the per-task body, holdings
//! are drawn through the cached CDF tables of [`BinomialCache`] /
//! [`HypergeometricCache`], and all scratch state lives in a reusable
//! [`CampaignScratch`] so steady-state campaigns allocate nothing.  When
//! `honest_error_rate == 0` the supervisor's verdict is a closed form of
//! `(held, multiplicity, precomputed, policy)` and the engine skips result
//! materialization and comparison entirely: it only bins each group's
//! draws ([`PreparedSampler::sample_binned`]: integer threshold counts in
//! registers for short tables, drawn in 8 jumped-ahead AVX2 lanes for
//! large groups).  Monte-Carlo drivers build the groups once per
//! experiment and call `run_campaign_on_groups`.
//!
//! All of this is *observationally identical* to the seed per-task loop —
//! same RNG consumption, same outcome, bit for bit.  The frozen originals
//! are kept in [`reference`] as the differential-testing oracle and the
//! benchmark baseline; the golden snapshots under `tests/snapshots/` pin
//! the equivalence end-to-end.

use crate::adversary::{AdversaryModel, CheatStrategy};
use crate::faults::FaultModel;
use crate::outcome::CampaignOutcome;
use crate::retry::{deliver_assignment, Delivery};
use crate::supervisor::{Supervisor, VerificationPolicy};
use crate::task::{
    colluded_wrong_result, correct_result, faulty_result, grouped_specs, ResultValue, SpecGroup,
    TaskId, TaskSpec,
};
use redundancy_stats::{
    BinomialCache, DeterministicRng, HypergeometricCache, JumpCache, PreparedSampler, SamplerMode,
};

/// Everything a campaign needs besides its task list and RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// How the adversary's platform share is modeled.
    pub adversary: AdversaryModel,
    /// Which holdings she attacks.
    pub strategy: CheatStrategy,
    /// Probability an honest copy returns a wrong (non-malicious) result.
    pub honest_error_rate: f64,
    /// The supervisor's reconciliation policy.
    pub policy: VerificationPolicy,
}

impl CampaignConfig {
    /// Standard configuration: no honest faults, unanimity required.
    pub fn new(adversary: AdversaryModel, strategy: CheatStrategy) -> Self {
        CampaignConfig {
            adversary,
            strategy,
            honest_error_rate: 0.0,
            policy: VerificationPolicy::Unanimous,
        }
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.adversary.validate()?;
        if !(0.0..=1.0).contains(&self.honest_error_rate) {
            return Err(format!(
                "honest error rate {} outside [0, 1]",
                self.honest_error_rate
            ));
        }
        Ok(())
    }
}

/// Reusable per-worker scratch state for the campaign kernel.
///
/// Holds the results buffer, the cached sampler tables and the jump
/// polynomials of the lane kernel; threading one instance through repeated
/// campaigns (the Monte-Carlo driver does this via [`CampaignAccumulator`])
/// drops steady-state per-trial allocation to zero and reuses each distinct
/// `(n, p)` CDF table and each segment length's jump polynomial across all
/// campaigns a worker runs.
#[derive(Debug, Clone, Default)]
pub struct CampaignScratch {
    results: Vec<ResultValue>,
    held_counts: Vec<u64>,
    binomial: BinomialCache,
    hypergeometric: HypergeometricCache,
    jumps: JumpCache,
    tally: TallyLanes,
    mode: SamplerMode,
}

impl CampaignScratch {
    /// Fresh scratch with empty buffers and caches, drawing in the default
    /// [`SamplerMode::BitCompat`] mode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set which sampler strategy subsequent campaigns draw holdings with.
    ///
    /// Switching modes never invalidates anything: both modes' plans live
    /// side by side in the caches, and the tally lanes are mode-agnostic.
    pub fn set_sampler_mode(&mut self, mode: SamplerMode) {
        self.mode = mode;
    }

    /// Builder form of [`set_sampler_mode`](Self::set_sampler_mode).
    pub fn with_sampler_mode(mut self, mode: SamplerMode) -> Self {
        self.mode = mode;
        self
    }

    /// The mode campaigns on this scratch currently draw with.
    pub fn sampler_mode(&self) -> SamplerMode {
        self.mode
    }

    /// Distinct `(binomial, hypergeometric)` parameter sets cached so far —
    /// a handful per plan shape (Balanced: head, tail, ringers).
    pub fn cached_parameter_sets(&self) -> (usize, usize) {
        (self.binomial.len(), self.hypergeometric.len())
    }
}

/// Struct-of-arrays tally state for the closed-form errorless path.
///
/// Four parallel `u64` lanes indexed by holdings bin — raw holdings,
/// cheats attempted, cheats detected, wrong results accepted — plus the
/// per-group 0/1 verdict masks that feed them.  The per-task loop only
/// bins draws; the verdict fold is then a branch-free multiply-accumulate
/// over whole lanes (`lane[k] += count[k] * mask[k]`), which is the shape
/// the autovectorizer wants.  Lanes accumulate across a campaign's spec
/// groups and drain into the [`CampaignOutcome`] once per campaign, and
/// because every counter is a commutative sum the drained outcome is
/// identical — vector lengths included — to the reference's per-task
/// record order.
#[derive(Debug, Clone, Default)]
struct TallyLanes {
    mask_attempted: Vec<u64>,
    mask_detected: Vec<u64>,
    mask_wrong: Vec<u64>,
    holdings: Vec<u64>,
    attempted: Vec<u64>,
    detected: Vec<u64>,
    wrong: Vec<u64>,
}

impl TallyLanes {
    /// Start a fresh campaign: empty lanes (they regrow per group).
    fn reset(&mut self) {
        self.holdings.clear();
        self.attempted.clear();
        self.detected.clear();
        self.wrong.clear();
    }

    /// Grow the accumulation lanes to at least `bins` entries, preserving
    /// the counts already folded from earlier groups.
    fn grow(&mut self, bins: usize) {
        if self.holdings.len() < bins {
            self.holdings.resize(bins, 0);
            self.attempted.resize(bins, 0);
            self.detected.resize(bins, 0);
            self.wrong.resize(bins, 0);
        }
    }

    /// Recompute the 0/1 verdict masks for one spec group: closed-form
    /// `Supervisor::verify` outcomes as a function of the holdings bin.
    fn set_masks(
        &mut self,
        mult: u64,
        precomputed: bool,
        strategy: &CheatStrategy,
        majority: bool,
    ) {
        let bins = mult as usize + 1;
        self.mask_attempted.resize(bins, 0);
        self.mask_detected.resize(bins, 0);
        self.mask_wrong.resize(bins, 0);
        for k in 0..bins {
            let full = k as u64 == mult;
            // Any wrong copy in a precomputed (ringer/verified) tuple is
            // caught; otherwise only a mixed tuple disagrees and flags.
            let flagged = precomputed || !full;
            // An un-ringered full-control tuple is accepted unanimously;
            // under Majority a colluding strict majority is accepted too.
            let wrong = !precomputed && (full || (majority && 2 * k as u64 > mult));
            let cheats = u64::from(strategy.cheats_on(k as u32));
            self.mask_attempted[k] = cheats;
            self.mask_detected[k] = cheats & u64::from(flagged);
            self.mask_wrong[k] = cheats & u64::from(wrong);
        }
    }

    /// Branch-free fold of one group's binned draws through the masks.
    fn accumulate(&mut self, held_counts: &[u64]) {
        let bins = held_counts.len();
        self.grow(bins);
        for (k, &count) in held_counts.iter().enumerate() {
            self.holdings[k] += count;
            self.attempted[k] += count * self.mask_attempted[k];
            self.detected[k] += count * self.mask_detected[k];
            self.wrong[k] += count * self.mask_wrong[k];
        }
    }

    /// Drain the lanes into the outcome, recording only populated bins so
    /// vector lengths match the reference's record order exactly.
    fn drain_into(&mut self, outcome: &mut CampaignOutcome) {
        for k in 0..self.holdings.len() {
            let held = self.holdings[k];
            if held > 0 {
                outcome.holdings.record_n(k, held);
            }
            let attempted = self.attempted[k];
            if attempted > 0 {
                let detected = self.detected[k];
                outcome.record_cheat_n(k, true, detected);
                outcome.record_cheat_n(k, false, attempted - detected);
            }
            outcome.wrong_accepted += self.wrong[k];
        }
        self.reset();
    }
}

/// Monte-Carlo accumulator pairing the folded [`CampaignOutcome`] with the
/// worker's reusable [`CampaignScratch`].
///
/// `run_trials` requires `Default + Send` accumulators; carrying the
/// scratch inside the accumulator gives every worker thread its own caches
/// and buffers with no locking and no per-trial setup.  Merging folds the
/// outcomes and simply drops the other worker's scratch.
#[derive(Debug, Clone, Default)]
pub struct CampaignAccumulator {
    /// Aggregated campaign tallies.
    pub outcome: CampaignOutcome,
    /// This worker's reusable buffers and sampler caches.
    pub scratch: CampaignScratch,
}

impl CampaignAccumulator {
    /// Fold another accumulator's outcome into this one (scratch is
    /// per-worker state and is discarded).
    pub fn merge(&mut self, other: CampaignAccumulator) {
        self.outcome.merge(&other.outcome);
    }
}

/// Resolve the adversary model to a prepared holdings sampler for one spec
/// group.
///
/// This is the *single* place every campaign variant — batch kernels and
/// the live [`crate::serve`] store alike — maps the adversary model to a
/// distribution, so the model match cannot drift between them; preparation
/// happens once per spec group, and the returned handle draws with no
/// per-task dispatch or indexing.
pub(crate) fn prepare_holdings<'a>(
    config: &CampaignConfig,
    mult: u64,
    binomial: &'a mut BinomialCache,
    hypergeometric: &'a mut HypergeometricCache,
    mode: SamplerMode,
) -> PreparedSampler<'a> {
    match config.adversary {
        AdversaryModel::AssignmentFraction { p } => {
            let id = binomial.prepare_mode(mult, p, mode);
            binomial.prepared(id)
        }
        AdversaryModel::SybilAccounts { total, adversary } => {
            // Copies of one task go to distinct accounts.
            let id = hypergeometric.prepare_mode(
                total as u64,
                adversary as u64,
                mult.min(total as u64),
                mode,
            );
            hypergeometric.prepared(id)
        }
    }
}

/// Verify one task's materialized results and fold the verdict into the
/// outcome — the shared tail of every campaign variant (batch kernels and
/// the live [`crate::serve`] store).
#[inline]
pub(crate) fn judge_task(
    supervisor: &Supervisor,
    task: &TaskSpec,
    results: &[ResultValue],
    held: u32,
    cheats: bool,
    wrong: ResultValue,
    outcome: &mut CampaignOutcome,
) {
    let verdict = supervisor.verify(task, results);
    if cheats {
        outcome.record_cheat(held as usize, verdict.flagged);
        if verdict.accepted == Some(wrong) {
            outcome.wrong_accepted += 1;
        }
    } else if verdict.flagged {
        outcome.false_flags += 1;
    }
}

/// Run one campaign over `tasks`, accumulating into `outcome`.
///
/// The engine is deterministic given the RNG state, so campaigns replay
/// exactly under the Monte-Carlo driver's per-chunk seeds.  Convenience
/// wrapper over [`run_campaign_with_scratch`] with throwaway scratch; hot
/// callers should hold a [`CampaignScratch`] and call the `_with_scratch`
/// variant directly.
pub fn run_campaign(
    tasks: &[TaskSpec],
    config: &CampaignConfig,
    rng: &mut DeterministicRng,
    outcome: &mut CampaignOutcome,
) {
    let mut scratch = CampaignScratch::new();
    run_campaign_with_scratch(tasks, config, rng, outcome, &mut scratch);
}

/// [`run_campaign`] with caller-owned scratch: zero steady-state allocation
/// and sampler tables shared across campaigns.
///
/// In the default [`SamplerMode::BitCompat`] this is bit-for-bit identical
/// to [`reference::run_campaign`] — same draws, same tallies — for every
/// configuration; the differential tests and the golden snapshots enforce
/// this.  With the scratch switched to [`SamplerMode::Fast`] the holdings
/// draws go through the O(1) alias tables instead: the same laws (and the
/// exact same closed-form tallies per drawn value), but a different RNG
/// stream, pinned by fast-mode determinism checksums rather than the
/// snapshots.
pub fn run_campaign_with_scratch(
    tasks: &[TaskSpec],
    config: &CampaignConfig,
    rng: &mut DeterministicRng,
    outcome: &mut CampaignOutcome,
    scratch: &mut CampaignScratch,
) {
    run_campaign_on_groups(grouped_specs(tasks), config, rng, outcome, scratch);
}

/// [`run_campaign_with_scratch`] over a task list already collapsed into
/// [`SpecGroup`]s.
///
/// Monte-Carlo drivers run thousands of campaigns over one task list;
/// grouping it once per experiment (`grouped_specs(tasks).collect()`)
/// instead of once per campaign takes a full scan of the specs out of
/// every campaign.  Any partition of the same task sequence into groups
/// gives the same outcome and RNG stream.
pub(crate) fn run_campaign_on_groups(
    groups: impl IntoIterator<Item = SpecGroup>,
    config: &CampaignConfig,
    rng: &mut DeterministicRng,
    outcome: &mut CampaignOutcome,
    scratch: &mut CampaignScratch,
) {
    debug_assert!(config.validate().is_ok(), "invalid campaign config");
    let supervisor = Supervisor::new(config.policy);
    outcome.campaigns += 1;
    // With no honest errors a task's returned copies are fully determined
    // by (held, cheats): `held` colluded-wrong copies then `mult − held`
    // correct ones, and no RNG is consumed materializing them.  The
    // supervisor's verdict is then a closed form (derived case-by-case from
    // `Supervisor::verify`), so the whole materialize-and-compare tail can
    // be skipped.
    let errorless = config.honest_error_rate == 0.0;
    let majority = config.policy == VerificationPolicy::Majority;
    let CampaignScratch {
        results,
        held_counts,
        binomial,
        hypergeometric,
        jumps,
        tally,
        mode,
    } = scratch;
    let mode = *mode;
    if errorless {
        tally.reset();
    }
    for group in groups {
        let mult = group.multiplicity as u64;
        outcome.tasks += group.count;
        outcome.assignments += group.count * mult;
        let sampler = prepare_holdings(config, mult, binomial, hypergeometric, mode);
        if errorless {
            // Every per-task tally is a pure function of `held` and the
            // group constants, and all outcome counters are commutative
            // sums — so the hot loop only bins the draws, and the verdict
            // fold is a branch-free lane MAC over the binned counts.
            held_counts.clear();
            held_counts.resize(mult as usize + 1, 0);
            if let Some(table) = sampler.as_alias() {
                // Fast mode: the verdict fold only consumes the *binned*
                // draws, and the histogram of `count` iid draws is a
                // multinomial over the support — so sample it directly,
                // one conditional binomial per holdings bin instead of
                // one uniform per task.  Same law, group-sized cost.
                table.multinomial_into(group.count, rng, held_counts);
            } else {
                sampler.sample_binned(group.count, rng, held_counts, jumps);
            }
            tally.set_masks(mult, group.precomputed, &config.strategy, majority);
            tally.accumulate(held_counts);
            continue;
        }
        for i in 0..group.count {
            let held = sampler.sample(rng) as u32;
            outcome.holdings.record(held as usize);
            let cheats = config.strategy.cheats_on(held);
            let task = TaskSpec {
                id: TaskId(group.first_id.0 + i),
                multiplicity: group.multiplicity,
                precomputed: group.precomputed,
            };
            // Materialize the returned copies: the adversary's first, then
            // the honest hosts'.
            results.clear();
            let wrong = colluded_wrong_result(task.id);
            let right = correct_result(task.id);
            for _ in 0..held {
                results.push(if cheats { wrong } else { right });
            }
            for j in u64::from(held)..mult {
                let faulty =
                    config.honest_error_rate > 0.0 && rng.bernoulli(config.honest_error_rate);
                results.push(if faulty {
                    faulty_result(task.id, j ^ rng.next_raw())
                } else {
                    right
                });
            }
            judge_task(&supervisor, &task, results, held, cheats, wrong, outcome);
        }
    }
    if errorless {
        tally.drain_into(outcome);
    }
}

/// Fold one assignment's delivery telemetry into the outcome.
fn tally_delivery(outcome: &mut CampaignOutcome, delivery: &Delivery) {
    outcome.drops += delivery.drops;
    outcome.timeouts += delivery.timeouts;
    outcome.retries += delivery.retries;
    outcome.wait_ticks += delivery.wait_ticks;
    if delivery.returned {
        outcome.corrupted_returns += u64::from(delivery.corrupted);
    } else {
        outcome.lost_assignments += 1;
    }
}

/// Run one campaign over `tasks` under a [`FaultModel`], accumulating into
/// `outcome`.
///
/// Every copy — the adversary's included — passes through the retry loop in
/// [`crate::retry`]; only copies that actually return reach the
/// supervisor's comparison, so fault pressure shrinks the tuples being
/// compared and with them the empirical detection probability.  A task
/// whose copies are all lost is counted in `unresolved_tasks` and skipped
/// (a real supervisor re-enqueues it into a later campaign).
///
/// With an inactive model (`!faults.is_active()`) this delegates to
/// [`run_campaign`] and is bit-for-bit identical to it: the fault layer
/// consumes no randomness at all.
pub fn run_campaign_with_faults(
    tasks: &[TaskSpec],
    config: &CampaignConfig,
    faults: &FaultModel,
    rng: &mut DeterministicRng,
    outcome: &mut CampaignOutcome,
) {
    let mut scratch = CampaignScratch::new();
    run_campaign_with_faults_scratch(tasks, config, faults, rng, outcome, &mut scratch);
}

/// [`run_campaign_with_faults`] with caller-owned scratch.
///
/// Shares the holdings sampler ([`HoldingsSampler`]) and the verdict tail
/// (`judge_task`) with the fault-free kernel, so the two variants cannot
/// drift; every copy's delivery still consumes RNG, so there is no
/// closed-form fast path here.
pub fn run_campaign_with_faults_scratch(
    tasks: &[TaskSpec],
    config: &CampaignConfig,
    faults: &FaultModel,
    rng: &mut DeterministicRng,
    outcome: &mut CampaignOutcome,
    scratch: &mut CampaignScratch,
) {
    run_campaign_with_faults_on_groups(grouped_specs(tasks), config, faults, rng, outcome, scratch);
}

/// [`run_campaign_with_faults_scratch`] over pre-grouped specs; see
/// [`run_campaign_on_groups`].
pub(crate) fn run_campaign_with_faults_on_groups(
    groups: impl IntoIterator<Item = SpecGroup>,
    config: &CampaignConfig,
    faults: &FaultModel,
    rng: &mut DeterministicRng,
    outcome: &mut CampaignOutcome,
    scratch: &mut CampaignScratch,
) {
    debug_assert!(faults.validate().is_ok(), "invalid fault model");
    if !faults.is_active() {
        return run_campaign_on_groups(groups, config, rng, outcome, scratch);
    }
    debug_assert!(config.validate().is_ok(), "invalid campaign config");
    let supervisor = Supervisor::new(config.policy);
    outcome.campaigns += 1;
    let CampaignScratch {
        results,
        binomial,
        hypergeometric,
        mode,
        ..
    } = scratch;
    let mode = *mode;
    for group in groups {
        let mult = group.multiplicity as u64;
        outcome.tasks += group.count;
        outcome.assignments += group.count * mult;
        let sampler = prepare_holdings(config, mult, binomial, hypergeometric, mode);
        for i in 0..group.count {
            let held = sampler.sample(rng) as u32;
            outcome.holdings.record(held as usize);
            // The adversary commits on what she *holds*; she cannot foresee
            // which copies the platform will lose.
            let cheats = config.strategy.cheats_on(held);
            let task = TaskSpec {
                id: TaskId(group.first_id.0 + i),
                multiplicity: group.multiplicity,
                precomputed: group.precomputed,
            };

            results.clear();
            let wrong = colluded_wrong_result(task.id);
            let right = correct_result(task.id);
            for j in 0..u64::from(held) {
                let delivery = deliver_assignment(faults, rng);
                tally_delivery(outcome, &delivery);
                if delivery.returned {
                    let intended = if cheats { wrong } else { right };
                    results.push(if delivery.corrupted {
                        faulty_result(task.id, j ^ rng.next_raw())
                    } else {
                        intended
                    });
                }
            }
            for j in u64::from(held)..mult {
                let delivery = deliver_assignment(faults, rng);
                tally_delivery(outcome, &delivery);
                if delivery.returned {
                    let honest_fault =
                        config.honest_error_rate > 0.0 && rng.bernoulli(config.honest_error_rate);
                    results.push(if delivery.corrupted || honest_fault {
                        faulty_result(task.id, j ^ rng.next_raw())
                    } else {
                        right
                    });
                }
            }

            let returned = results.len() as u64;
            if returned < mult {
                outcome.degraded.record((mult - returned) as usize);
            }
            if returned == 0 {
                outcome.unresolved_tasks += 1;
                continue;
            }
            judge_task(&supervisor, &task, results, held, cheats, wrong, outcome);
        }
    }
}

/// Frozen seed implementations of the campaign loops.
///
/// These are the original per-task, uncached, allocate-per-campaign loops,
/// kept verbatim as (a) the oracle for the differential tests that prove
/// the batched kernel bit-identical, and (b) the baseline `redundancy
/// bench` measures the speedup against.  Do not optimize or "clean up"
/// this module: its entire value is that it stays put.
pub mod reference {
    use super::*;
    use redundancy_stats::samplers::{sample_binomial, sample_hypergeometric};

    /// The seed per-task campaign loop (pre-batching).
    pub fn run_campaign(
        tasks: &[TaskSpec],
        config: &CampaignConfig,
        rng: &mut DeterministicRng,
        outcome: &mut CampaignOutcome,
    ) {
        debug_assert!(config.validate().is_ok(), "invalid campaign config");
        let supervisor = Supervisor::new(config.policy);
        outcome.campaigns += 1;
        let mut results = Vec::with_capacity(32);
        for task in tasks {
            let mult = task.multiplicity as u64;
            outcome.tasks += 1;
            outcome.assignments += mult;
            let held = match config.adversary {
                AdversaryModel::AssignmentFraction { p } => sample_binomial(rng, mult, p),
                AdversaryModel::SybilAccounts { total, adversary } => sample_hypergeometric(
                    rng,
                    total as u64,
                    adversary as u64,
                    mult.min(total as u64),
                ),
            } as u32;
            outcome.holdings.record(held as usize);
            let cheats = config.strategy.cheats_on(held);

            results.clear();
            let wrong = colluded_wrong_result(task.id);
            let right = correct_result(task.id);
            for _ in 0..held {
                results.push(if cheats { wrong } else { right });
            }
            for j in held as u64..mult {
                let faulty =
                    config.honest_error_rate > 0.0 && rng.bernoulli(config.honest_error_rate);
                results.push(if faulty {
                    faulty_result(task.id, j ^ rng.next_raw())
                } else {
                    right
                });
            }

            let verdict = supervisor.verify(task, &results);
            if cheats {
                outcome.record_cheat(held as usize, verdict.flagged);
                if verdict.accepted == Some(wrong) {
                    outcome.wrong_accepted += 1;
                }
            } else if verdict.flagged {
                outcome.false_flags += 1;
            }
        }
    }

    /// The seed fault-injecting campaign loop (pre-batching).
    pub fn run_campaign_with_faults(
        tasks: &[TaskSpec],
        config: &CampaignConfig,
        faults: &FaultModel,
        rng: &mut DeterministicRng,
        outcome: &mut CampaignOutcome,
    ) {
        debug_assert!(faults.validate().is_ok(), "invalid fault model");
        if !faults.is_active() {
            return run_campaign(tasks, config, rng, outcome);
        }
        debug_assert!(config.validate().is_ok(), "invalid campaign config");
        let supervisor = Supervisor::new(config.policy);
        outcome.campaigns += 1;
        let mut results = Vec::with_capacity(32);
        for task in tasks {
            let mult = task.multiplicity as u64;
            outcome.tasks += 1;
            outcome.assignments += mult;
            let held = match config.adversary {
                AdversaryModel::AssignmentFraction { p } => sample_binomial(rng, mult, p),
                AdversaryModel::SybilAccounts { total, adversary } => sample_hypergeometric(
                    rng,
                    total as u64,
                    adversary as u64,
                    mult.min(total as u64),
                ),
            } as u32;
            outcome.holdings.record(held as usize);
            let cheats = config.strategy.cheats_on(held);

            results.clear();
            let wrong = colluded_wrong_result(task.id);
            let right = correct_result(task.id);
            for j in 0..u64::from(held) {
                let delivery = deliver_assignment(faults, rng);
                tally_delivery(outcome, &delivery);
                if delivery.returned {
                    let intended = if cheats { wrong } else { right };
                    results.push(if delivery.corrupted {
                        faulty_result(task.id, j ^ rng.next_raw())
                    } else {
                        intended
                    });
                }
            }
            for j in u64::from(held)..mult {
                let delivery = deliver_assignment(faults, rng);
                tally_delivery(outcome, &delivery);
                if delivery.returned {
                    let honest_fault =
                        config.honest_error_rate > 0.0 && rng.bernoulli(config.honest_error_rate);
                    results.push(if delivery.corrupted || honest_fault {
                        faulty_result(task.id, j ^ rng.next_raw())
                    } else {
                        right
                    });
                }
            }

            let returned = results.len() as u64;
            if returned < mult {
                outcome.degraded.record((mult - returned) as usize);
            }
            if returned == 0 {
                outcome.unresolved_tasks += 1;
                continue;
            }
            let verdict = supervisor.verify(task, &results);
            if cheats {
                outcome.record_cheat(held as usize, verdict.flagged);
                if verdict.accepted == Some(wrong) {
                    outcome.wrong_accepted += 1;
                }
            } else if verdict.flagged {
                outcome.false_flags += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::expand_plan;
    use redundancy_core::RealizedPlan;

    fn specs(n: u64, eps: f64) -> Vec<TaskSpec> {
        expand_plan(&RealizedPlan::balanced(n, eps).unwrap())
    }

    fn run(tasks: &[TaskSpec], cfg: &CampaignConfig, seed: u64) -> CampaignOutcome {
        let mut rng = DeterministicRng::new(seed);
        let mut out = CampaignOutcome::default();
        run_campaign(tasks, cfg, &mut rng, &mut out);
        out
    }

    #[test]
    fn honest_campaign_has_no_flags() {
        let tasks = specs(5_000, 0.5);
        let cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.0 },
            CheatStrategy::Never,
        );
        let out = run(&tasks, &cfg, 1);
        assert_eq!(out.total_attempted(), 0);
        assert_eq!(out.false_flags, 0);
        assert_eq!(out.wrong_accepted, 0);
        assert_eq!(out.tasks, tasks.len() as u64);
    }

    #[test]
    fn naive_always_cheater_detected_at_proposition3_rate() {
        // Under Balanced, P_{k,p} is the *same* for every k (Proposition
        // 3), so even the cheat-on-everything adversary is detected per
        // attack at exactly 1 − (1−ε)^{1−p} — here ≈ 0.4257.
        let tasks = specs(5_000, 0.5);
        let cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        );
        let out = run(&tasks, &cfg, 2);
        assert!(out.total_attempted() > 500);
        let rate = out.overall_detection_rate().unwrap();
        let expect = 1.0 - 0.5f64.powf(0.8);
        assert!(
            (rate - expect).abs() < 0.03,
            "overall detection {rate} vs {expect}"
        );
    }

    #[test]
    fn full_control_without_ringers_escapes() {
        // 2-fold plan, adversary holds both copies, cheats: never flagged,
        // wrong result accepted — the paper's motivating failure.
        let plan = RealizedPlan::k_fold(2_000, 2, 0.5).unwrap();
        let tasks = expand_plan(&plan);
        let cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.3 },
            CheatStrategy::ExactTuples { k: 2 },
        );
        let out = run(&tasks, &cfg, 3);
        assert!(out.total_attempted() > 50);
        assert_eq!(
            out.total_detected(),
            0,
            "collusion on both copies is invisible"
        );
        assert_eq!(out.wrong_accepted, out.total_attempted());
    }

    #[test]
    fn balanced_plan_detects_at_epsilon_rate() {
        // ExactTuples(1) at small p: detection rate should be near
        // P_{1,p} = 1 − (1−ε)^{1−p}.
        let eps = 0.5;
        let p = 0.1;
        let tasks = specs(20_000, eps);
        let cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p },
            CheatStrategy::ExactTuples { k: 1 },
        );
        let mut out = CampaignOutcome::default();
        let mut rng = DeterministicRng::new(4);
        for _ in 0..10 {
            run_campaign(&tasks, &cfg, &mut rng, &mut out);
        }
        let expect = 1.0 - (1.0 - eps).powf(1.0 - p);
        let rate = out.detection_rate(1).unwrap();
        assert!(
            (rate - expect).abs() < 0.02,
            "empirical {rate} vs closed-form {expect}"
        );
    }

    #[test]
    fn sybil_model_matches_fraction_model_closely() {
        let tasks = specs(20_000, 0.75);
        let frac = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.1 },
            CheatStrategy::ExactTuples { k: 2 },
        );
        let sybil = CampaignConfig::new(
            AdversaryModel::SybilAccounts {
                total: 10_000,
                adversary: 1_000,
            },
            CheatStrategy::ExactTuples { k: 2 },
        );
        let a = run(&tasks, &frac, 5);
        let b = run(&tasks, &sybil, 5);
        let ra = a.detection_rate(2).unwrap_or(1.0);
        let rb = b.detection_rate(2).unwrap_or(1.0);
        assert!((ra - rb).abs() < 0.08, "{ra} vs {rb}");
    }

    #[test]
    fn honest_errors_cause_false_flags_only() {
        let tasks = specs(10_000, 0.5);
        let mut cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.0 },
            CheatStrategy::Never,
        );
        cfg.honest_error_rate = 0.02;
        let out = run(&tasks, &cfg, 6);
        assert!(out.false_flags > 0, "2% fault rate must trip comparisons");
        assert_eq!(out.total_attempted(), 0);
    }

    #[test]
    fn ringers_catch_full_control_cheats() {
        // Attack exactly the tail multiplicity i_f: without ringers those
        // cheats would all escape; the plan's ringers must catch ≈ ε of the
        // i_f-tuples (the adversary cannot distinguish tail tasks from
        // ringers).
        // A near-total adversary (p = 0.9) frequently holds all i_f copies
        // of tail tasks; only ringers stand between her and free cheating.
        let plan = RealizedPlan::balanced(100_000, 0.75).unwrap();
        let i_f = plan.tail_multiplicity().unwrap() as u32;
        let tasks = expand_plan(&plan);
        let cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.9 },
            CheatStrategy::ExactTuples { k: i_f },
        );
        let mut out = CampaignOutcome::default();
        let mut rng = DeterministicRng::new(7);
        for _ in 0..300 {
            run_campaign(&tasks, &cfg, &mut rng, &mut out);
        }
        let attempted = out.cheats_attempted.get(i_f as usize).copied().unwrap_or(0);
        assert!(attempted > 200, "need i_f-tuple attacks, got {attempted}");
        let rate = out.detection_rate(i_f as usize).unwrap();
        assert!(
            rate > 0.1,
            "ringers must catch i_f-tuple cheats, rate {rate}"
        );
    }

    #[test]
    fn config_validation() {
        let mut cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.5 },
            CheatStrategy::Never,
        );
        assert!(cfg.validate().is_ok());
        cfg.honest_error_rate = 1.5;
        assert!(cfg.validate().is_err());
        let bad = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 1.0 },
            CheatStrategy::Never,
        );
        assert!(bad.validate().is_err());
    }

    /// Run the frozen reference and the batched kernel on clones of the
    /// same RNG for three back-to-back campaigns (exercising scratch
    /// reuse), asserting identical outcomes AND identical final RNG state
    /// (same uniforms consumed, in the same order).
    fn assert_matches_reference(
        tasks: &[TaskSpec],
        cfg: &CampaignConfig,
        faults: Option<&FaultModel>,
        seed: u64,
    ) {
        let mut ref_rng = DeterministicRng::new(seed);
        let mut new_rng = ref_rng.clone();
        let mut ref_out = CampaignOutcome::default();
        let mut new_out = CampaignOutcome::default();
        let mut scratch = CampaignScratch::new();
        for _ in 0..3 {
            match faults {
                None => {
                    reference::run_campaign(tasks, cfg, &mut ref_rng, &mut ref_out);
                    run_campaign_with_scratch(tasks, cfg, &mut new_rng, &mut new_out, &mut scratch);
                }
                Some(f) => {
                    reference::run_campaign_with_faults(tasks, cfg, f, &mut ref_rng, &mut ref_out);
                    run_campaign_with_faults_scratch(
                        tasks,
                        cfg,
                        f,
                        &mut new_rng,
                        &mut new_out,
                        &mut scratch,
                    );
                }
            }
        }
        assert_eq!(ref_out, new_out, "outcome diverged for {cfg:?}");
        assert_eq!(ref_rng, new_rng, "RNG stream diverged for {cfg:?}");
    }

    #[test]
    fn batched_kernel_is_bit_identical_to_reference() {
        let balanced = specs(1_500, 0.75);
        let pairs = expand_plan(&RealizedPlan::k_fold(800, 2, 0.5).unwrap());
        let models = [
            AdversaryModel::AssignmentFraction { p: 0.2 },
            AdversaryModel::SybilAccounts {
                total: 10_000,
                adversary: 1_500,
            },
        ];
        let strategies = [
            CheatStrategy::Never,
            CheatStrategy::Always,
            CheatStrategy::ExactTuples { k: 1 }, // Majority ties on pairs
            CheatStrategy::ExactTuples { k: 2 },
            CheatStrategy::AtLeast { min_copies: 1 },
        ];
        let policies = [VerificationPolicy::Unanimous, VerificationPolicy::Majority];
        let mut seed = 1_000;
        for tasks in [&balanced, &pairs] {
            for adversary in models {
                for strategy in strategies {
                    for policy in policies {
                        for honest_error_rate in [0.0, 0.02] {
                            seed += 1;
                            let cfg = CampaignConfig {
                                adversary,
                                strategy,
                                honest_error_rate,
                                policy,
                            };
                            assert_matches_reference(tasks, &cfg, None, seed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn faulty_kernel_is_bit_identical_to_reference() {
        let tasks = specs(1_000, 0.5);
        let active = FaultModel {
            straggler_rate: 0.2,
            straggler_mean_delay: 10.0,
            corrupt_rate: 0.01,
            ..FaultModel::with_drop_rate(0.15)
        };
        let inactive = FaultModel::none();
        let mut seed = 2_000;
        for faults in [&active, &inactive] {
            for adversary in [
                AdversaryModel::AssignmentFraction { p: 0.2 },
                AdversaryModel::SybilAccounts {
                    total: 5_000,
                    adversary: 900,
                },
            ] {
                for strategy in [CheatStrategy::Always, CheatStrategy::ExactTuples { k: 2 }] {
                    for policy in [VerificationPolicy::Unanimous, VerificationPolicy::Majority] {
                        for honest_error_rate in [0.0, 0.02] {
                            seed += 1;
                            let cfg = CampaignConfig {
                                adversary,
                                strategy,
                                honest_error_rate,
                                policy,
                            };
                            assert_matches_reference(&tasks, &cfg, Some(faults), seed);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_caches_stay_small_across_campaigns() {
        // A Balanced plan has a handful of distinct multiplicities; the
        // caches must not grow with tasks or campaigns.
        let tasks = specs(10_000, 0.75);
        let cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        );
        let mut rng = DeterministicRng::new(42);
        let mut out = CampaignOutcome::default();
        let mut scratch = CampaignScratch::new();
        for _ in 0..5 {
            run_campaign_with_scratch(&tasks, &cfg, &mut rng, &mut out, &mut scratch);
        }
        let (bin, hyp) = scratch.cached_parameter_sets();
        assert!(bin > 0, "binomial cache unused");
        // One entry per distinct multiplicity in the plan — independent of
        // task count and campaign count.
        assert!(bin <= 32, "cache grew beyond plan shapes: {bin}");
        assert_eq!(hyp, 0);
    }

    #[test]
    fn accumulator_merge_folds_outcomes() {
        let tasks = specs(500, 0.5);
        let cfg = CampaignConfig::new(
            AdversaryModel::AssignmentFraction { p: 0.2 },
            CheatStrategy::Always,
        );
        let mut a = CampaignAccumulator::default();
        let mut b = CampaignAccumulator::default();
        let mut rng = DeterministicRng::new(8);
        run_campaign_with_scratch(&tasks, &cfg, &mut rng, &mut a.outcome, &mut a.scratch);
        run_campaign_with_scratch(&tasks, &cfg, &mut rng, &mut b.outcome, &mut b.scratch);
        let total = b.outcome.tasks + a.outcome.tasks;
        a.merge(b);
        assert_eq!(a.outcome.campaigns, 2);
        assert_eq!(a.outcome.tasks, total);
    }
}
