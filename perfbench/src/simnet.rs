//! The `simnet-dc48` workload: Algorithm 1 on the flow-level simulator.
//!
//! A Fig. 13-style datacenter (8 racks × 32 hosts, 1 Gb/s host links,
//! 10 Gb/s core) under Poisson background traffic, with a 48-VM virtual
//! cluster. One operation calibrates a TP-matrix through `ClusterView`,
//! runs RPCA, then executes Baseline (binomial / ring) and RPCA-guided
//! (FNF / greedy) broadcast, scatter and task mapping on the simulator for
//! a few rounds. The simulator lives across operations, so each operation
//! meets the traffic the previous ones left behind.

use crate::alg1::{is_permutation, mean_rel_error, same_perf};
use crate::digest::Digest;
use crate::harness::{Checked, Quality, Workload};
use crate::metrics::Values;
use crate::span::Recorder;
use cloudconst_collectives::{binomial_tree, fnf_tree, schedule, Collective, CommTree};
use cloudconst_core::{estimate_with_opts, ConstantEstimate, DegradedPolicy, EstimatorKind};
use cloudconst_netmodel::{Calibrator, LinkPerf, PerfMatrix, TpMatrix, MB};
use cloudconst_rpca::{apg, extract_constant, ApgOptions, ConstantMethod, RpcaResult};
use cloudconst_simnet::{run_dag, BackgroundSpec, ClusterView, LinkSpec, Simulator, Topology};
use cloudconst_topomap::{
    greedy_mapping, machine_graph_from_perf, random_task_graph, ring_mapping, Mapping, TaskGraph,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Message size of the guided collectives.
const MSG: u64 = 8 * MB;
const BG_BYTES: u64 = 100;
const BG_LAMBDA: f64 = 5.0;
/// Probability a background pair re-draws its endpoints per message.
const BG_CHURN: f64 = 0.15;

/// Size and traffic of a simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Racks of the tree topology.
    pub racks: usize,
    /// Hosts per rack.
    pub hosts_per_rack: usize,
    /// VMs of the virtual cluster (random hosts).
    pub vms: usize,
    /// Background sender → receiver pairs.
    pub bg_pairs: usize,
    /// Background message size, bytes.
    pub bg_bytes: u64,
    /// Mean wait between a pair's messages, seconds.
    pub bg_lambda: f64,
    /// Snapshots per TP-matrix.
    pub time_step: usize,
    /// Simulated seconds between snapshots.
    pub interval: f64,
    /// Broadcast/scatter/mapping rounds per operation.
    pub rounds: usize,
    /// Independent datacenters per run, taking turns; every run performs
    /// one operation on each (and scores the answer quality over them).
    pub datacenters: usize,
}

/// `simnet-dc48`: the Fig. 13 quick-mode datacenter and traffic.
pub const DC48: SimSpec = SimSpec {
    datacenters: 32,
    racks: 8,
    hosts_per_rack: 32,
    vms: 48,
    bg_pairs: 120,
    bg_bytes: BG_BYTES * MB,
    bg_lambda: BG_LAMBDA,
    time_step: 5,
    interval: 30.0,
    rounds: 4,
};

/// One simulated datacenter with its virtual cluster.
struct Datacenter {
    seed: u64,
    sim: Simulator,
    hosts: Vec<usize>,
    /// α-β of every cluster link on an idle network: path latency and
    /// bottleneck capacity — the constant the calibration should find.
    idle: PerfMatrix,
}

/// State of a simulator run: independent datacenters taking turns, each
/// seeded from the run's seed.
pub struct SimNet {
    spec: SimSpec,
    dcs: Vec<Datacenter>,
    /// Wall time of the background warm-up, summed over datacenters.
    warmup_s: f64,
}

/// Elapsed simulated seconds of the Baseline and guided variants.
#[derive(Debug, Clone, Copy)]
struct Pair {
    baseline: f64,
    guided: f64,
}

/// One operation's outputs.
pub struct SimOut {
    tp: TpMatrix,
    est: ConstantEstimate,
    trees: Vec<CommTree>,
    mappings: Vec<Mapping>,
    bcast: Vec<Pair>,
    scatter: Vec<Pair>,
    map: Vec<Pair>,
    sim_time: f64,
    flows: u64,
    /// Separate APG solves (alpha, inverse beta) of a traced operation.
    apg: Option<[RpcaResult; 2]>,
}

/// Run a mapping's traffic at once on the simulator; elapsed time until
/// the last transfer arrives.
fn run_mapping(view: &mut ClusterView<'_>, tasks: &TaskGraph, mapping: &Mapping) -> f64 {
    let start = view.simulator().time() + 1.0;
    view.simulator_mut().run_until(start);
    let mut ids = Vec::new();
    for (u, v, bytes) in tasks.edges() {
        let (src, dst) = (
            view.host_of(mapping.machine_of(u)),
            view.host_of(mapping.machine_of(v)),
        );
        if src != dst {
            ids.push(
                view.simulator_mut()
                    .submit(src, dst, bytes.round() as u64, start),
            );
        }
    }
    let finishes = view.simulator_mut().wait_for(&ids);
    finishes.into_iter().fold(start, f64::max) - start
}

impl Datacenter {
    fn new(spec: &SimSpec, seed: u64) -> (Self, f64) {
        let topo = Topology::tree(
            spec.racks,
            spec.hosts_per_rack,
            LinkSpec {
                capacity: 1e9 / 8.0,
                latency: 20e-6,
            },
            LinkSpec {
                capacity: 10e9 / 8.0,
                latency: 30e-6,
            },
        );
        let mut all: Vec<usize> = (0..topo.hosts()).collect();
        all.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5E1));
        let hosts = all[..spec.vms].to_vec();
        let idle = PerfMatrix::from_fn(spec.vms, |i, j| {
            let path = topo.path(hosts[i], hosts[j]);
            LinkPerf::new(topo.path_latency(&path), topo.path_capacity(&path))
        });
        let mut sim = Simulator::new(topo, seed);
        BackgroundSpec {
            pairs: spec.bg_pairs,
            message_bytes: spec.bg_bytes,
            lambda: spec.bg_lambda,
            churn: BG_CHURN,
            seed: seed ^ 0xB6,
        }
        .install(&mut sim, 0.0);
        // Let the background reach steady state before measuring.
        let t0 = Instant::now();
        sim.run_until(3.0 * spec.bg_lambda);
        let warmup_s = t0.elapsed().as_secs_f64();
        (
            Datacenter {
                seed,
                sim,
                hosts,
                idle,
            },
            warmup_s,
        )
    }
}

impl SimNet {
    /// Datacenter and cycle index (within it) of operation `k`.
    fn schedule(&self, k: usize) -> (usize, usize) {
        (k % self.spec.datacenters, k / self.spec.datacenters)
    }

    /// Calibrate, estimate and run the guided rounds; spans go to `rec`.
    /// A traced run splits calibration into its per-snapshot calls and
    /// also solves APG separately.
    fn cycle(&mut self, k: usize, rec: &mut Recorder, traced: bool) -> Result<SimOut, String> {
        let spec = self.spec;
        let n = spec.vms;
        let (d, j) = self.schedule(k);
        let dc = &mut self.dcs[d];
        let flows_before = dc.sim.flows_completed();
        let tasks: Vec<TaskGraph> = (0..spec.rounds)
            .map(|r| {
                let id = (j * spec.rounds + r) as u64 + 1;
                random_task_graph(
                    n,
                    2,
                    5.0 * MB as f64,
                    10.0 * MB as f64,
                    dc.seed ^ id.wrapping_mul(0x77),
                )
            })
            .collect();
        let mut view = ClusterView::new(&mut dc.sim, dc.hosts.clone());
        let start = view.simulator().time();
        let calibrator = Calibrator::new();
        let tp = if traced {
            let mut tp = TpMatrix::new(n);
            for s in 0..spec.time_step {
                let t = start + s as f64 * spec.interval;
                let run = rec.span("netmodel.probe", |_| calibrator.calibrate(&mut view, t));
                rec.span("netmodel.impute", |_| tp.push(t, &run.perf));
            }
            tp
        } else {
            calibrator
                .calibrate_tp(&mut view, start, spec.interval, spec.time_step)
                .0
        };
        let opts = ApgOptions::default();
        let solves = if traced {
            let a = rec.span("rpca.apg", |_| apg(tp.alpha_matrix(), &opts));
            let b = rec.span("rpca.apg", |_| apg(tp.inv_beta_matrix(), &opts));
            Some([a.map_err(|e| e.to_string())?, b.map_err(|e| e.to_string())?])
        } else {
            None
        };
        let est = rec
            .span("core.estimate", |_| {
                estimate_with_opts(&tp, EstimatorKind::Rpca, DegradedPolicy::Fail, &opts)
            })
            .map_err(|e| e.to_string())?;

        let mut out = SimOut {
            tp,
            est,
            trees: Vec::new(),
            mappings: Vec::new(),
            bcast: Vec::new(),
            scatter: Vec::new(),
            map: Vec::new(),
            sim_time: 0.0,
            flows: 0,
            apg: solves,
        };
        for r in 0..spec.rounds {
            let root = (j * spec.rounds + r) % n;
            let fnf = rec.span("collectives.fnf", |_| {
                fnf_tree(root, &out.est.perf.weights(MSG))
            });
            let bin = binomial_tree(root, n);
            let tasks = &tasks[r];
            let greedy = rec.span("topomap.greedy", |_| {
                greedy_mapping(tasks, &machine_graph_from_perf(&out.est.perf))
            });
            let ring = ring_mapping(n);
            let (bcast, scatter, map) = rec.span("simnet.op", |_| {
                let mut exec = |tree: &CommTree, op: Collective| {
                    let at = view.simulator().time() + 1.0;
                    run_dag(&mut view, &schedule(tree, op, MSG), at)
                };
                let bcast = Pair {
                    baseline: exec(&bin, Collective::Broadcast),
                    guided: exec(&fnf, Collective::Broadcast),
                };
                let scatter = Pair {
                    baseline: exec(&bin, Collective::Scatter),
                    guided: exec(&fnf, Collective::Scatter),
                };
                let map = Pair {
                    baseline: run_mapping(&mut view, tasks, &ring),
                    guided: run_mapping(&mut view, tasks, &greedy),
                };
                (bcast, scatter, map)
            });
            out.trees.push(fnf);
            out.mappings.push(greedy);
            out.bcast.push(bcast);
            out.scatter.push(scatter);
            out.map.push(map);
        }
        // A long campaign drops the finish times it has read, or the
        // simulator's bookkeeping grows with every operation.
        view.simulator_mut().forget_finished();
        out.sim_time = dc.sim.time();
        out.flows = dc.sim.flows_completed() - flows_before;
        Ok(out)
    }
}

impl Workload for SimNet {
    type Spec = SimSpec;
    type Out = SimOut;
    fn min_ops(&self) -> usize {
        self.spec.datacenters
    }

    fn setup(spec: &SimSpec, seed: u64) -> Result<Self, String> {
        if spec.vms > spec.racks * spec.hosts_per_rack {
            return Err("more VMs than hosts".into());
        }
        let mut warmup_s = 0.0;
        let dcs = (0..spec.datacenters as u64)
            .map(|d| {
                let (dc, w) = Datacenter::new(spec, seed ^ d.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                warmup_s += w;
                dc
            })
            .collect();
        Ok(SimNet {
            spec: *spec,
            dcs,
            warmup_s,
        })
    }

    fn op(&mut self, k: usize) -> Result<SimOut, String> {
        // The untraced path records nothing: a throwaway recorder's spans
        // are never read, and cost two clock reads each.
        self.cycle(k, &mut Recorder::default(), false)
    }

    fn op_traced(&mut self, k: usize, rec: &mut Recorder) -> Result<SimOut, String> {
        self.cycle(k, rec, true)
    }

    fn check(&mut self, k: usize, out: &SimOut) -> Result<Checked, String> {
        let n = self.spec.vms;
        let (alpha, inv_beta) = out.est.perf.flatten();
        if !alpha
            .iter()
            .chain(&inv_beta)
            .all(|v| v.is_finite() && *v >= 0.0)
        {
            return Err("N_D holds a negative or non-finite entry".into());
        }
        if !out.trees.iter().all(CommTree::is_spanning) {
            return Err("FNF tree does not span the cluster".into());
        }
        if !out.mappings.iter().all(|m| is_permutation(m, n)) {
            return Err("greedy mapping is not a bijection".into());
        }
        let all: Vec<Pair> = out
            .bcast
            .iter()
            .chain(&out.scatter)
            .chain(&out.map)
            .copied()
            .collect();
        if !all.iter().all(|p| {
            [p.baseline, p.guided]
                .iter()
                .all(|t| t.is_finite() && *t > 0.0)
        }) {
            return Err("a simulated operation took no or infinite time".into());
        }
        let model_err = mean_rel_error(&out.est.perf, &self.dcs[self.schedule(k).0].idle);
        if !model_err.is_finite() {
            return Err("model error is not finite".into());
        }
        let ratio = |ps: &[Pair]| {
            ps.iter().map(|p| p.guided).sum::<f64>() / ps.iter().map(|p| p.baseline).sum::<f64>()
        };
        let mut d = Digest::default();
        d.f64s(out.tp.alpha_matrix().as_slice());
        d.f64s(out.tp.inv_beta_matrix().as_slice());
        d.f64s(&alpha);
        d.f64s(&inv_beta);
        d.f64s(&[out.est.norm_ne, out.est.norm_ne_l1, out.sim_time]);
        for p in &all {
            d.f64s(&[p.baseline, p.guided]);
        }
        d.u64s(&[out.flows, out.est.solver_iters as u64]);
        if let Some([a, b]) = &out.apg {
            // The separate solves must reproduce the estimator's N_D.
            let ca =
                extract_constant(&a.d, ConstantMethod::TopSingular).map_err(|e| e.to_string())?;
            let cb =
                extract_constant(&b.d, ConstantMethod::TopSingular).map_err(|e| e.to_string())?;
            if a.iters + b.iters != out.est.solver_iters
                || !same_perf(&PerfMatrix::from_flat(n, &ca, &cb), &out.est.perf)
            {
                return Err("separate APG solves differ from the estimator's N_D".into());
            }
        }
        Ok(Checked {
            digest: d.finish(),
            quality: Some(Quality {
                model_err,
                bcast_ratio: ratio(&out.bcast),
                map_ratio: ratio(&out.map),
            }),
        })
    }

    fn layers(&self, k: usize, rec: &Recorder, out: &SimOut) -> Values {
        let op = k as u64;
        let apg_s = rec.total(op, "rpca.apg");
        let iters = out.apg.as_ref().map_or(0, |[a, b]| a.iters + b.iters);
        let calibrate_s = rec.total(op, "netmodel.probe");
        let op_s = rec.total(op, "simnet.op");
        let mut v = Values::new();
        v.insert("rpca.apg_s", apg_s);
        v.insert("rpca.apg_iters", iters as f64);
        v.insert("rpca.apg_ms_per_iter", 1e3 * apg_s / iters.max(1) as f64);
        v.insert("netmodel.probe_s", calibrate_s);
        v.insert("netmodel.impute_s", rec.total(op, "netmodel.impute"));
        v.insert("netmodel.probe_success", 1.0);
        v.insert(
            "core.estimate_self_s",
            rec.total(op, "core.estimate") - apg_s,
        );
        v.insert("collectives.fnf_s", rec.total(op, "collectives.fnf"));
        v.insert("topomap.greedy_s", rec.total(op, "topomap.greedy"));
        v.insert("simnet.warmup_s", self.warmup_s);
        v.insert("simnet.calibrate_s", calibrate_s);
        v.insert("simnet.op_s", op_s);
        v.insert("simnet.flows", out.flows as f64);
        v.insert(
            "simnet.flows_per_s",
            out.flows as f64 / (calibrate_s + op_s),
        );
        v
    }

    fn duplicated(&self, k: usize, rec: &Recorder) -> f64 {
        // Only the separate APG solves duplicate untraced work.
        rec.total(k as u64, "rpca.apg")
    }
}
