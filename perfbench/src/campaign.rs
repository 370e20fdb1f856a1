//! The `campaign-tcp128` workload: distributed calibration over sockets.
//!
//! One operation is one sharded calibration campaign over `TcpTransport`
//! against a freshly spawned `TcpWorkerServer` (workers serve a single
//! campaign each), ending in a merged TP-matrix that must be bit-identical
//! to the unsharded reference calibrated during set-up. No RPCA runs in an
//! operation, so codec, seal, barrier and socket costs show on this
//! workload and on no other. A run takes turns over a few independently
//! seeded clouds, each with its own reference.

use crate::alg1::{guidance_ratios, mean_rel_error, task_graphs};
use crate::digest::Digest;
use crate::harness::{Checked, Quality, Workload};
use crate::metrics::{self, Values};
use crate::span::Recorder;
use crate::timed::{TimedTransport, TransportTimes};
use cloudconst_cloud::{CloudConfig, FaultPlan, FaultyCloud, SyntheticCloud};
use cloudconst_coord::{
    AuthKey, Coordinator, CoordinatorConfig, LoopbackTransport, Message, ShardedRun, TcpConfig,
    TcpTransport, TcpWorkerServer,
};
use cloudconst_core::Advisor;
use cloudconst_netmodel::{Calibrator, FaultyTpRun};
use cloudconst_topomap::TaskGraph;
use std::hint::black_box;
use std::time::Instant;

const START: f64 = 0.0;
const INTERVAL: f64 = 1800.0;
const STEPS: usize = 10;

/// Worker shards, one localhost connection each.
const SHARDS: usize = 2;

/// Passes over the captured frames when timing the codec and the seal.
const REPLAY_PASSES: usize = 3;

/// Size of a campaign workload.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Cluster size.
    pub n: usize,
    /// Independently seeded clouds per run, taking turns.
    pub clouds: usize,
}

/// `campaign-tcp128`.
pub const TCP128: CampaignSpec = CampaignSpec { n: 128, clouds: 4 };

/// One cloud with its campaign key and unsharded reference.
struct Target {
    cloud: SyntheticCloud,
    faulty: FaultyCloud,
    key: AuthKey,
    reference: FaultyTpRun,
    tasks: Vec<TaskGraph>,
}

/// State of a campaign run.
pub struct Campaign {
    spec: CampaignSpec,
    coordinator: Coordinator,
    targets: Vec<Target>,
}

/// One finished campaign (plus its transport times when traced).
pub struct CampaignOut {
    sharded: ShardedRun,
    times: Option<TransportTimes>,
}

fn digest_run(r: &FaultyTpRun) -> u64 {
    let mut d = Digest::default();
    d.f64s(r.tp.times());
    d.f64s(r.tp.alpha_matrix().as_slice());
    d.f64s(r.tp.inv_beta_matrix().as_slice());
    d.f64s(r.tp.mask_matrix().as_slice());
    d.f64s(&[r.overhead]);
    for log in &r.logs {
        d.u64s(&[
            log.attempts,
            log.successes,
            log.retries,
            log.timeouts,
            log.losses,
        ]);
    }
    d.finish()
}

/// Bit-exact equality of two calibration runs.
fn same_run(a: &FaultyTpRun, b: &FaultyTpRun) -> bool {
    digest_run(a) == digest_run(b) && a.logs == b.logs
}

impl Campaign {
    fn target(&self, k: usize) -> &Target {
        &self.targets[k % self.spec.clouds]
    }

    fn spawn(&self, t: &Target) -> Result<(TcpWorkerServer, TcpTransport), String> {
        let server = TcpWorkerServer::spawn(t.faulty.clone(), SHARDS, t.key)
            .map_err(|e| format!("spawn worker server: {e}"))?;
        let transport = TcpTransport::connect(&server.shard_addrs(SHARDS), TcpConfig::new(t.key))
            .map_err(|e| e.to_string())?;
        Ok((server, transport))
    }
}

impl Workload for Campaign {
    type Spec = CampaignSpec;
    type Out = CampaignOut;

    fn min_ops(&self) -> usize {
        self.spec.clouds
    }

    fn setup(spec: &CampaignSpec, seed: u64) -> Result<Self, String> {
        let coordinator = Coordinator::new(CoordinatorConfig::new(SHARDS));
        let cfg = &coordinator.config;
        let calibrator = Calibrator {
            config: cfg.calibration.clone(),
        };
        let targets = (0..spec.clouds as u64)
            .map(|c| {
                let seed = seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let cloud = SyntheticCloud::new(CloudConfig::ec2_like(spec.n, seed));
                let faulty = FaultyCloud::new(cloud.clone(), FaultPlan::uniform(seed, 0.05));
                let reference = calibrator.calibrate_tp_faulty_par(
                    &faulty, START, INTERVAL, STEPS, &cfg.retry, cfg.impute,
                );
                Target {
                    tasks: task_graphs(spec.n, seed),
                    key: AuthKey::from_seed(seed),
                    cloud,
                    faulty,
                    reference,
                }
            })
            .collect();
        Ok(Campaign {
            spec: *spec,
            coordinator,
            targets,
        })
    }

    fn op(&mut self, k: usize) -> Result<CampaignOut, String> {
        let (mut server, mut transport) = self.spawn(self.target(k))?;
        let sharded = self
            .coordinator
            .calibrate_tp(&mut transport, START, INTERVAL, STEPS)
            .map_err(|e| e.to_string())?;
        drop(transport);
        server.shutdown();
        Ok(CampaignOut {
            sharded,
            times: None,
        })
    }

    fn op_traced(&mut self, k: usize, rec: &mut Recorder) -> Result<CampaignOut, String> {
        let (mut server, transport) = rec.span("coord.connect", |_| self.spawn(self.target(k)))?;
        let mut timed = TimedTransport::new(transport, false);
        let sharded = rec
            .span("coord.calibrate", |_| {
                self.coordinator
                    .calibrate_tp(&mut timed, START, INTERVAL, STEPS)
            })
            .map_err(|e| e.to_string())?;
        let times = timed.times().clone();
        rec.span("coord.teardown", |_| {
            drop(timed);
            server.shutdown();
        });
        Ok(CampaignOut {
            sharded,
            times: Some(times),
        })
    }

    fn check(&mut self, k: usize, out: &CampaignOut) -> Result<Checked, String> {
        let run = &out.sharded.run;
        if !same_run(run, &self.target(k).reference) {
            return Err("merged TP-matrix differs from the unsharded reference".into());
        }
        let r = &out.sharded.report;
        if r.n != self.spec.n as u64 || r.steps != STEPS as u64 {
            return Err("campaign report disagrees with the campaign".into());
        }
        let mut d = Digest::default();
        d.u64s(&[
            digest_run(run),
            r.probe_attempts,
            r.probe_successes,
            r.probe_retries,
            r.probe_timeouts,
            r.probe_losses,
        ]);
        Ok(Checked {
            digest: d.finish(),
            quality: None,
        })
    }

    /// The answer quality of the models an Advisor installs from the
    /// merged runs, the median over the clouds (scored after the timed loop:
    /// a campaign runs no RPCA itself). Every checked campaign reproduces
    /// its cloud's reference bit for bit, so the references stand in for
    /// them.
    fn quality(&self, checked: &[Checked]) -> Result<Quality, String> {
        if checked.len() < self.spec.clouds {
            return Err("a cloud's campaign failed its check".into());
        }
        let t_end = START + (STEPS - 1) as f64 * INTERVAL;
        let mut qs = Vec::with_capacity(self.targets.len());
        for t in &self.targets {
            let mut advisor = Advisor::with_defaults();
            let model = advisor
                .adopt_faulty_run(t.reference.clone(), START)
                .map_err(|e| e.to_string())?;
            let perf = &model.estimate.perf;
            let (bcast_ratio, map_ratio) = guidance_ratios(perf, &t.cloud, t_end, &t.tasks);
            qs.push(Quality {
                model_err: mean_rel_error(perf, t.cloud.ground_truth(0)),
                bcast_ratio,
                map_ratio,
            });
        }
        Ok(Quality::median(&qs))
    }

    fn layers(&self, k: usize, rec: &Recorder, out: &CampaignOut) -> Values {
        let op = k as u64;
        let t = out.times.as_ref().expect("traced operation");
        let r = &out.sharded.report;
        let campaign_s = rec.total(op, "coord.calibrate");
        let mut v = Values::new();
        v.insert("coord.connect_s", rec.total(op, "coord.connect"));
        v.insert("coord.send_s", t.send_s);
        v.insert("coord.recv_s", t.recv_s);
        v.insert("coord.self_s", campaign_s - t.send_s - t.recv_s);
        v.insert("coord.frames", r.wire.frames_sent as f64);
        v.insert(
            "coord.bytes",
            (r.wire.bytes_sent + r.wire.bytes_delivered) as f64,
        );
        v.insert("coord.redispatches", r.redispatches as f64);
        v.insert("coord.frames_per_s", r.wire.frames_sent as f64 / campaign_s);
        v.insert("netmodel.probe_attempts", r.probe_attempts as f64);
        v.insert("netmodel.retries", r.probe_retries as f64);
        v.insert("netmodel.probe_success", r.success_rate);
        v.insert("netmodel.masked_frac", out.sharded.run.tp.masked_fraction());
        v
    }

    /// One loopback campaign whose `send` time is the workers' own
    /// handling time, then a replay of its frames through the codec and
    /// the seal for their per-frame costs.
    fn run_layers(&mut self) -> Result<Values, String> {
        let t = self.target(0);
        let mut lb = TimedTransport::new(LoopbackTransport::new(t.faulty.clone(), SHARDS), true);
        let sharded = self
            .coordinator
            .calibrate_tp(&mut lb, START, INTERVAL, STEPS)
            .map_err(|e| e.to_string())?;
        if !same_run(&sharded.run, &t.reference) {
            return Err("loopback campaign differs from the unsharded reference".into());
        }
        let worker_handle_s = lb.times().send_s;
        let frames = lb.into_frames();
        let per_frame_us = |secs: f64| 1e6 * secs / frames.len().max(1) as f64;
        let mut codec = Vec::with_capacity(REPLAY_PASSES);
        let mut seal = Vec::with_capacity(REPLAY_PASSES);
        for _ in 0..REPLAY_PASSES {
            let t0 = Instant::now();
            for f in &frames {
                let m = Message::decode(f).map_err(|e| e.to_string())?;
                if black_box(m.encode()) != *f {
                    return Err("frame does not re-encode to its own bytes".into());
                }
            }
            codec.push(per_frame_us(t0.elapsed().as_secs_f64()));
            let t0 = Instant::now();
            for f in &frames {
                let sealed = t.key.seal(f);
                if black_box(t.key.open(&sealed).map_err(|e| e.to_string())?) != &f[..] {
                    return Err("sealed frame does not open to itself".into());
                }
            }
            seal.push(per_frame_us(t0.elapsed().as_secs_f64()));
        }
        let mut v = Values::new();
        v.insert("coord.worker_handle_s", worker_handle_s);
        v.insert("coord.codec_us_per_frame", metrics::median(&codec));
        v.insert("coord.seal_us_per_frame", metrics::median(&seal));
        Ok(v)
    }
}
