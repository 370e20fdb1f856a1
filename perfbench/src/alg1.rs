//! The `alg1-*` workloads: full Algorithm 1 cycles on the synthetic cloud.
//!
//! One operation is one cycle at its own start time `now`: calibrate a
//! 10-snapshot TP-matrix, run RPCA and install `N_D` (the Advisor), build
//! the FNF broadcast tree and the greedy task mapping from `N_D`, execute
//! both on the α-β model of the *actual* network one hour after the
//! calibration ended, and run the maintenance check.
//!
//! A run drives one or more independent deployments (cloud, fault plan,
//! Advisor), each seeded from the run's seed, taking turns. Each Advisor
//! lives across its deployment's cycles, so health history, quarantine
//! list and adaptive degraded policy evolve as in a long-running service;
//! several deployments per run keep one cloud's luck from deciding the
//! run's figures.

use crate::digest::Digest;
use crate::harness::{Checked, Quality, Workload};
use crate::metrics::Values;
use crate::span::Recorder;
use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, SyntheticCloud};
use cloudconst_collectives::{binomial_tree, evaluate_tree, fnf_tree, Collective, CommTree};
use cloudconst_core::{
    estimate_with_opts, Advisor, AdvisorConfig, ConstantEstimate, CoreError, DegradedPolicy,
    MaintenanceDecision,
};
use cloudconst_netmodel::{
    Calibrator, FaultyTpRun, ImputePolicy, PerfMatrix, ProbeLog, TpMatrix, BETA_PROBE_BYTES, MB,
};
use cloudconst_rpca::{apg, extract_constant, ConstantMethod, RpcaError, RpcaResult};
use cloudconst_topomap::{
    evaluate_mapping, greedy_mapping, machine_graph_from_perf, random_task_graph, ring_mapping,
    Mapping, TaskGraph,
};

/// Broadcast message size (the paper's 8 MB probe size).
const MSG: u64 = BETA_PROBE_BYTES;

/// Seeded task graphs per deployment.
const TASK_GRAPHS: usize = 16;

/// Seconds between the start times of a deployment's consecutive cycles.
/// Not a multiple of the snapshot interval, so no two cycles share a
/// snapshot time.
const CYCLE_SPACING: f64 = 1000.0;

/// Cycles before the start times wrap around; keeps every cycle, plus the
/// hours it is scored over, inside the synthetic cloud's first regime
/// epoch (two days), so its ground truth is well defined.
const CYCLE_WRAP: usize = 140;

/// Delay between the end of calibration and the guided operations.
const EXEC_DELAY: f64 = 3600.0;

/// Size and fault model of an `alg1-*` workload.
#[derive(Debug, Clone, Copy)]
pub struct Alg1Spec {
    /// Cluster size.
    pub n: usize,
    /// Correlated rack blackouts with model-based imputation (the
    /// fault-aware path) instead of the fault-free path.
    pub blackouts: bool,
    /// Independent deployments per run, taking turns.
    pub deployments: usize,
    /// Cycles every run performs (and scores the answer quality over).
    pub min_ops: usize,
}

/// `alg1-paper196`: the paper's largest EC2 scale, fault-free.
pub const PAPER196: Alg1Spec = Alg1Spec {
    n: 196,
    blackouts: false,
    deployments: 2,
    min_ops: 2,
};

/// `alg1-blackout64`: rack blackouts at 35% per rack-window.
pub const BLACKOUT64: Alg1Spec = Alg1Spec {
    n: 64,
    blackouts: true,
    deployments: 8,
    min_ops: 16,
};

/// One cloud with its Advisor.
struct Deployment {
    cloud: SyntheticCloud,
    faulty: Option<FaultyCloud>,
    advisor: Advisor,
    tasks: Vec<TaskGraph>,
}

/// State of an `alg1-*` run.
pub struct Alg1 {
    spec: Alg1Spec,
    deployments: Vec<Deployment>,
}

/// What one cycle produced (plus, when traced, the decomposed pieces).
pub struct Alg1Out {
    root: usize,
    tree: CommTree,
    mapping: Mapping,
    expected: f64,
    t_fnf: f64,
    t_binomial: f64,
    m_greedy: f64,
    m_ring: f64,
    decision: MaintenanceDecision,
    traced: Option<Decomposed>,
}

/// The separately called pieces of a traced cycle.
struct Decomposed {
    apg: [Result<RpcaResult, RpcaError>; 2],
    estimate: Result<ConstantEstimate, CoreError>,
    policy: DegradedPolicy,
    previous_model_at: Option<f64>,
    log: ProbeLog,
}

/// The seed of deployment `d` of a run seeded `seed` (deployment 0 uses
/// the run seed itself).
fn deployment_seed(seed: u64, d: usize) -> u64 {
    seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The seeded task graphs of a deployment: random graphs with 5–10 MB
/// edges (the paper's §V-A workload).
pub fn task_graphs(n: usize, seed: u64) -> Vec<TaskGraph> {
    (0..TASK_GRAPHS as u64)
        .map(|t| {
            random_task_graph(
                n,
                2,
                5.0 * MB as f64,
                10.0 * MB as f64,
                seed ^ (t + 1).wrapping_mul(0x77),
            )
        })
        .collect()
}

/// How good `perf` is as guidance on the real network: FNF broadcast trees
/// from every root against binomial trees, and greedy mappings of every
/// task graph against ring mappings, timed on the α-β model of the actual
/// network 1, 2, 3 and 4 hours after `t_end`. Returns
/// `(Σ t(FNF) / Σ t(binomial), Σ t(greedy) / Σ t(ring))`; scoring every
/// root and several network states keeps one congested link from deciding
/// the figure.
pub fn guidance_ratios(
    perf: &PerfMatrix,
    cloud: &SyntheticCloud,
    t_end: f64,
    tasks: &[TaskGraph],
) -> (f64, f64) {
    let n = perf.n();
    let weights = perf.weights(MSG);
    let machines = machine_graph_from_perf(perf);
    let trees: Vec<CommTree> = (0..n).map(|r| fnf_tree(r, &weights)).collect();
    let mappings: Vec<Mapping> = tasks.iter().map(|t| greedy_mapping(t, &machines)).collect();
    let ring = ring_mapping(n);
    let (mut fnf, mut binomial, mut greedy, mut ringed) = (0.0, 0.0, 0.0, 0.0);
    for hours in 1..=4 {
        let t = t_end + 3600.0 * hours as f64;
        let actual = PerfMatrix::from_fn(n, |i, j| cloud.instantaneous(i, j, t));
        for (root, tree) in trees.iter().enumerate() {
            fnf += evaluate_tree(tree, &actual, Collective::Broadcast, MSG);
            binomial += evaluate_tree(&binomial_tree(root, n), &actual, Collective::Broadcast, MSG);
        }
        for (tasks, mapping) in tasks.iter().zip(&mappings) {
            greedy += evaluate_mapping(tasks, mapping, &actual);
            ringed += evaluate_mapping(tasks, &ring, &actual);
        }
    }
    (fnf / binomial, greedy / ringed)
}

/// Mean over off-diagonal links of `|t_est − t_truth| / t_truth` at 8 MB
/// (the formula of the fault-sweep tests).
pub fn mean_rel_error(est: &PerfMatrix, truth: &PerfMatrix) -> f64 {
    let n = truth.n();
    let mut total = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let a = est.transfer_time(i, j, MSG);
                let b = truth.transfer_time(i, j, MSG);
                total += (a - b).abs() / b;
                count += 1;
            }
        }
    }
    total / count as f64
}

/// Is `m` a bijection of `0..n`?
pub fn is_permutation(m: &Mapping, n: usize) -> bool {
    let mut seen = vec![false; n];
    m.n() == n
        && (0..n).all(|t| {
            let x = m.machine_of(t);
            x < n && !std::mem::replace(&mut seen[x], true)
        })
}

/// Bit-exact equality of two performance matrices.
pub fn same_perf(a: &PerfMatrix, b: &PerfMatrix) -> bool {
    let (aa, ab) = a.flatten();
    let (ba, bb) = b.flatten();
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    bits(&aa, &ba) && bits(&ab, &bb)
}

impl Alg1 {
    /// Deployment, start time and cycle index (within the deployment) of
    /// operation `k`.
    fn schedule(&self, k: usize) -> (usize, f64, usize) {
        let d = k % self.spec.deployments;
        let j = k / self.spec.deployments;
        (d, (j % CYCLE_WRAP) as f64 * CYCLE_SPACING, j)
    }
}

impl Deployment {
    fn new(spec: &Alg1Spec, seed: u64) -> Self {
        let cloud = SyntheticCloud::new(CloudConfig::ec2_like(spec.n, seed));
        let cfg = if spec.blackouts {
            AdvisorConfig {
                impute: ImputePolicy::ModelPrediction,
                adaptive_degraded: true,
                ..AdvisorConfig::default()
            }
        } else {
            AdvisorConfig::default()
        };
        let faulty = spec.blackouts.then(|| {
            let plan = FaultPlan::rack_blackouts(
                seed ^ 0xB1AC,
                cloud.placement(0),
                0.35,
                cfg.snapshot_interval,
            );
            FaultyCloud::new(cloud.clone(), plan)
        });
        Deployment {
            tasks: task_graphs(spec.n, seed),
            cloud,
            faulty,
            advisor: Advisor::new(cfg),
        }
    }

    /// End of the calibration window of a cycle starting at `now`.
    fn calibration_end(&self, now: f64) -> f64 {
        let cfg = self.advisor.config();
        now + (cfg.time_step - 1) as f64 * cfg.snapshot_interval
    }

    /// Steps 3–6 of the cycle on the installed model.
    fn guide_and_execute(&self, j: usize, now: f64, rec: &mut Recorder) -> Result<Alg1Out, String> {
        let perf = self.advisor.constant().map_err(|e| e.to_string())?;
        let n = perf.n();
        let root = j % n;
        let tree = rec.span("collectives.fnf", |_| fnf_tree(root, &perf.weights(MSG)));
        let tasks = &self.tasks[j % TASK_GRAPHS];
        let mapping = rec.span("topomap.greedy", |_| {
            greedy_mapping(tasks, &machine_graph_from_perf(perf))
        });
        let t_actual = self.calibration_end(now) + EXEC_DELAY;
        let (actual, expected, t_fnf, t_binomial) = rec.span("collectives.eval", |_| {
            let actual = PerfMatrix::from_fn(n, |i, j| self.cloud.instantaneous(i, j, t_actual));
            let expected = evaluate_tree(&tree, perf, Collective::Broadcast, MSG);
            let t_fnf = evaluate_tree(&tree, &actual, Collective::Broadcast, MSG);
            let t_bin = evaluate_tree(&binomial_tree(root, n), &actual, Collective::Broadcast, MSG);
            (actual, expected, t_fnf, t_bin)
        });
        let (m_greedy, m_ring) = rec.span("topomap.eval", |_| {
            (
                evaluate_mapping(tasks, &mapping, &actual),
                evaluate_mapping(tasks, &ring_mapping(n), &actual),
            )
        });
        let decision = rec.span("core.check", |_| self.advisor.check(expected, t_fnf));
        Ok(Alg1Out {
            root,
            tree,
            mapping,
            expected,
            t_fnf,
            t_binomial,
            m_greedy,
            m_ring,
            decision,
            traced: None,
        })
    }
}

impl Workload for Alg1 {
    type Spec = Alg1Spec;
    type Out = Alg1Out;

    fn min_ops(&self) -> usize {
        self.spec.min_ops
    }

    fn setup(spec: &Alg1Spec, seed: u64) -> Result<Self, String> {
        let deployments = (0..spec.deployments)
            .map(|d| Deployment::new(spec, deployment_seed(seed, d)))
            .collect();
        Ok(Alg1 {
            spec: *spec,
            deployments,
        })
    }

    fn op(&mut self, k: usize) -> Result<Alg1Out, String> {
        let (d, now, j) = self.schedule(k);
        let dep = &mut self.deployments[d];
        let installed = match &dep.faulty {
            Some(f) => dep.advisor.calibrate_faulty_par(f, now).map(|_| ()),
            None => dep.advisor.calibrate_par(&dep.cloud, now).map(|_| ()),
        };
        installed.map_err(|e| e.to_string())?;
        // Nothing reads this recorder: its spans cost two clock reads each.
        dep.guide_and_execute(j, now, &mut Recorder::default())
    }

    fn op_traced(&mut self, k: usize, rec: &mut Recorder) -> Result<Alg1Out, String> {
        let (d, now, j) = self.schedule(k);
        let dep = &mut self.deployments[d];
        let cfg = dep.advisor.config().clone();
        let calibrator = Calibrator {
            config: cfg.calibration.clone(),
        };
        let mut tp = TpMatrix::new(self.spec.n);
        let mut overhead = 0.0;
        let mut logs = Vec::with_capacity(cfg.time_step);
        for s in 0..cfg.time_step {
            let t = now + s as f64 * cfg.snapshot_interval;
            let run = rec.span("netmodel.probe", |_| match &dep.faulty {
                Some(f) => calibrator.calibrate_faulty_par(f, t, &cfg.retry),
                None => calibrator.calibrate_par(&dep.cloud, t),
            });
            overhead += run.overhead;
            rec.span("netmodel.impute", |_| {
                if dep.faulty.is_some() {
                    tp.push_masked(t, &run.perf, &run.outcomes.observed_mask(), cfg.impute);
                } else {
                    tp.push(t, &run.perf);
                }
            });
            logs.push(run.outcomes);
        }
        let policy = dep.advisor.effective_degraded();
        let apg_alpha = rec.span("rpca.apg", |_| apg(tp.alpha_matrix(), &cfg.rpca));
        let apg_beta = rec.span("rpca.apg", |_| apg(tp.inv_beta_matrix(), &cfg.rpca));
        let estimate = rec.span("core.estimate", |_| {
            estimate_with_opts(&tp, cfg.estimator, policy, &cfg.rpca)
        });
        let previous_model_at = dep.advisor.model().map(|m| m.calibrated_at);
        let run = FaultyTpRun { tp, overhead, logs };
        let log = run.aggregate_log();
        // The fault-free Advisor path installs through the same private
        // step as this adoption; the all-success logs leave its link
        // health untouched.
        rec.span("core.advisor", |_| {
            dep.advisor.adopt_faulty_run(run, now).map(|_| ())
        })
        .map_err(|e| e.to_string())?;
        let mut out = dep.guide_and_execute(j, now, rec)?;
        out.traced = Some(Decomposed {
            apg: [apg_alpha, apg_beta],
            estimate,
            policy,
            previous_model_at,
            log,
        });
        Ok(out)
    }

    fn check(&mut self, k: usize, out: &Alg1Out) -> Result<Checked, String> {
        let n = self.spec.n;
        let (d, now, _) = self.schedule(k);
        let dep = &self.deployments[d];
        let model = dep.advisor.model().ok_or("no model installed")?;
        let perf = &model.estimate.perf;
        let (alpha, inv_beta) = perf.flatten();
        if !alpha
            .iter()
            .chain(&inv_beta)
            .all(|v| v.is_finite() && *v >= 0.0)
        {
            return Err("N_D holds a negative or non-finite entry".into());
        }
        if !out.tree.is_spanning() || out.tree.root() != out.root {
            return Err("FNF tree does not span the cluster from its root".into());
        }
        if !is_permutation(&out.mapping, n) {
            return Err("greedy mapping is not a bijection".into());
        }
        for (what, t) in [
            ("expected broadcast", out.expected),
            ("FNF broadcast", out.t_fnf),
            ("binomial broadcast", out.t_binomial),
            ("greedy mapping", out.m_greedy),
            ("ring mapping", out.m_ring),
        ] {
            if !(t.is_finite() && t > 0.0) {
                return Err(format!("{what} time {t} is not a positive number"));
            }
        }
        let health = dep.advisor.health(now).map_err(|e| e.to_string())?;
        if !(0.0..1.0).contains(&health.masked_fraction)
            || !(0.0..=1.0).contains(&health.probe_success_rate)
        {
            return Err("health report out of range".into());
        }
        let model_err = mean_rel_error(perf, dep.cloud.ground_truth(dep.cloud.epoch_of(now)));
        if !(model_err.is_finite() && model_err < 0.5) {
            return Err(format!("model error {model_err} is implausible"));
        }
        if let Some(t) = &out.traced {
            check_decomposition(t, &dep.advisor, n)?;
        }

        let mut h = Digest::default();
        h.f64s(&alpha);
        h.f64s(&inv_beta);
        h.f64s(&[
            model.estimate.norm_ne,
            model.estimate.norm_ne_l1,
            model.calibrated_at,
            model.calibration_overhead,
        ]);
        h.u64s(&[
            model.estimate.solver_iters as u64,
            model.estimate.degraded as u64,
        ]);
        for m in [
            model.tp.alpha_matrix(),
            model.tp.inv_beta_matrix(),
            model.tp.mask_matrix(),
        ] {
            h.f64s(m.as_slice());
        }
        h.f64s(model.tp.times());
        h.u64s(
            &(0..n)
                .map(|v| out.tree.parent(v).map_or(u64::MAX, |p| p as u64))
                .collect::<Vec<_>>(),
        );
        h.u64s(
            &out.mapping
                .as_slice()
                .iter()
                .map(|&m| m as u64)
                .collect::<Vec<_>>(),
        );
        h.f64s(&[
            out.expected,
            out.t_fnf,
            out.t_binomial,
            out.m_greedy,
            out.m_ring,
        ]);
        h.u64s(&[
            (out.decision == MaintenanceDecision::Recalibrate) as u64,
            health.degraded as u64,
            dep.advisor.calibrations() as u64,
        ]);
        h.f64s(&[health.masked_fraction]);
        for &(i, j) in &health.quarantined {
            h.u64s(&[i as u64, j as u64]);
        }
        if dep.faulty.is_some() {
            // The fault-free path records no attempt counters; the
            // fault-aware one must reproduce them.
            h.u64s(&[
                health.attempts,
                health.retries,
                health.timeouts,
                health.losses,
            ]);
            h.f64s(&[health.probe_success_rate]);
        }
        // Answer quality is scored on the operations every run performs,
        // so it is a function of the seed alone.
        let quality = (k < self.spec.min_ops).then(|| {
            let (bcast_ratio, map_ratio) =
                guidance_ratios(perf, &dep.cloud, dep.calibration_end(now), &dep.tasks);
            Quality {
                model_err,
                bcast_ratio,
                map_ratio,
            }
        });
        Ok(Checked {
            digest: h.finish(),
            quality,
        })
    }

    fn layers(&self, k: usize, rec: &Recorder, out: &Alg1Out) -> Values {
        let op = k as u64;
        let advisor = &self.deployments[self.schedule(k).0].advisor;
        let apg_s = rec.total(op, "rpca.apg");
        let estimate_s = rec.total(op, "core.estimate");
        let t = out.traced.as_ref().expect("traced operation");
        let iters: usize = t.apg.iter().map(apg_iters).sum();
        let mut v = Values::new();
        v.insert("rpca.apg_s", apg_s);
        v.insert("rpca.apg_iters", iters as f64);
        v.insert("rpca.apg_ms_per_iter", 1e3 * apg_s / iters.max(1) as f64);
        v.insert("netmodel.probe_s", rec.total(op, "netmodel.probe"));
        v.insert("netmodel.impute_s", rec.total(op, "netmodel.impute"));
        v.insert("netmodel.probe_attempts", t.log.attempts as f64);
        v.insert("netmodel.retries", t.log.retries as f64);
        v.insert("netmodel.probe_success", t.log.success_rate());
        v.insert(
            "netmodel.masked_frac",
            advisor.model().map_or(0.0, |m| m.tp.masked_fraction()),
        );
        v.insert("core.estimate_self_s", estimate_s - apg_s);
        v.insert(
            "core.advisor_self_s",
            rec.total(op, "core.advisor") - estimate_s + rec.total(op, "core.check"),
        );
        v.insert(
            "core.recalibrations",
            f64::from(u8::from(out.decision == MaintenanceDecision::Recalibrate)),
        );
        v.insert("core.quarantined_links", advisor.quarantined().len() as f64);
        let degraded = advisor
            .campaign_history()
            .latest()
            .is_some_and(|h| h.degraded);
        v.insert("core.degraded_installs", f64::from(u8::from(degraded)));
        v.insert("collectives.fnf_s", rec.total(op, "collectives.fnf"));
        v.insert("collectives.eval_s", rec.total(op, "collectives.eval"));
        v.insert("topomap.greedy_s", rec.total(op, "topomap.greedy"));
        v.insert("topomap.eval_s", rec.total(op, "topomap.eval"));
        v
    }

    fn duplicated(&self, k: usize, rec: &Recorder) -> f64 {
        // The untraced cycle runs APG and the estimator once, inside the
        // Advisor; the traced one also calls them separately to split the
        // Advisor's time. Those separate calls are the only duplicates.
        rec.total(k as u64, "rpca.apg") + rec.total(k as u64, "core.estimate")
    }
}

fn apg_iters(r: &Result<RpcaResult, RpcaError>) -> usize {
    match r {
        Ok(r) => r.iters,
        Err(RpcaError::NoConvergence { iters, .. }) => *iters,
        Err(_) => 0,
    }
}

/// The traced cycle's separate `apg` and `estimate_with_opts` calls must
/// reproduce the `N_D` the Advisor installed, bit for bit — or, when the
/// solve did not converge under the fall-back policy, the Advisor must
/// have kept its previous model.
fn check_decomposition(t: &Decomposed, advisor: &Advisor, n: usize) -> Result<(), String> {
    let installed = advisor.model().ok_or("no model installed")?;
    match &t.estimate {
        Ok(est) => {
            let [Ok(ra), Ok(rb)] = &t.apg else {
                return Err("estimate converged where a separate APG solve did not".into());
            };
            let a =
                extract_constant(&ra.d, ConstantMethod::TopSingular).map_err(|e| e.to_string())?;
            let b =
                extract_constant(&rb.d, ConstantMethod::TopSingular).map_err(|e| e.to_string())?;
            if !same_perf(&PerfMatrix::from_flat(n, &a, &b), &est.perf) {
                return Err("apg + extract_constant differs from estimate_with_opts".into());
            }
            if est.solver_iters != ra.iters + rb.iters {
                return Err("estimator iteration count differs from the APG solves".into());
            }
            if !same_perf(&est.perf, &installed.estimate.perf)
                || est.norm_ne.to_bits() != installed.estimate.norm_ne.to_bits()
            {
                return Err("estimate_with_opts differs from the Advisor's N_D".into());
            }
            Ok(())
        }
        Err(CoreError::Rpca(RpcaError::NoConvergence { .. }))
            if t.policy == DegradedPolicy::FallBackToPrevious
                && t.previous_model_at == Some(installed.calibrated_at) =>
        {
            Ok(())
        }
        Err(e) => Err(format!(
            "separate estimate failed where the Advisor did not: {e}"
        )),
    }
}
