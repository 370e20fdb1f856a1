//! Self-tests of the benchmark at tiny sizes: every workload's traced
//! replay reproduces its untraced run bit for bit and passes the
//! decomposition checks, deterministic metrics depend on the seed and on
//! nothing else, and the command line rejects what it does not know.

use crate::alg1::{Alg1, Alg1Spec};
use crate::campaign::{Campaign, CampaignSpec};
use crate::harness::{run_traced, run_untraced, Checked, Outcome, Quality, Workload, MIN_COVERAGE};
use crate::metrics::{Values, PER_LAYER};
use crate::simnet::{SimNet, SimSpec};
use crate::span::Recorder;
use crate::{parse_args, Args};
use std::thread::sleep;
use std::time::Duration;

const TINY_ALG1: Alg1Spec = Alg1Spec {
    n: 8,
    blackouts: false,
    deployments: 2,
    min_ops: 2,
};

const TINY_BLACKOUT: Alg1Spec = Alg1Spec {
    n: 12,
    blackouts: true,
    deployments: 2,
    min_ops: 4,
};

const TINY_CAMPAIGN: CampaignSpec = CampaignSpec { n: 8, clouds: 2 };

const TINY_SIM: SimSpec = SimSpec {
    racks: 2,
    hosts_per_rack: 4,
    vms: 6,
    bg_pairs: 3,
    bg_bytes: 1 << 20,
    bg_lambda: 1.0,
    time_step: 4,
    interval: 5.0,
    rounds: 1,
    datacenters: 2,
};

fn traced<W: Workload>(spec: &W::Spec, seed: u64) -> Outcome {
    // At tiny sizes an operation takes microseconds and the coverage is
    // scheduling noise; `work_outside_the_spans_is_refused` tests the floor.
    let (outcome, rec) = run_traced::<W>(spec, seed, 0.2, 0.0).expect("set-up succeeds");
    assert!(outcome.correct, "traced run refused: {:?}", outcome.notes);
    assert_eq!(outcome.failed, 0);
    assert!(!rec.spans().is_empty());
    let v = &outcome.values;
    assert!(v["trace.coverage_frac"] > 0.0 && v["trace.overhead_frac"].is_finite());
    outcome
}

fn positive(v: &Values, names: &[&str]) {
    for n in names {
        assert!(v.get(n).is_some_and(|x| *x > 0.0), "{n} = {:?}", v.get(n));
    }
    for n in v.keys() {
        assert!(
            PER_LAYER.iter().any(|(p, _)| p == n),
            "{n} is not a per-layer metric"
        );
    }
}

#[test]
fn alg1_traced_replay_matches_and_decomposes() {
    for spec in [TINY_ALG1, TINY_BLACKOUT] {
        let o = traced::<Alg1>(&spec, 5);
        positive(
            &o.values,
            &[
                "rpca.apg_s",
                "rpca.apg_iters",
                "netmodel.probe_s",
                "netmodel.impute_s",
                "netmodel.probe_attempts",
            ],
        );
        if spec.blackouts {
            positive(&o.values, &["netmodel.masked_frac", "netmodel.retries"]);
        }
    }
}

#[test]
fn campaign_traced_replay_matches_over_tcp() {
    let o = traced::<Campaign>(&TINY_CAMPAIGN, 5);
    positive(
        &o.values,
        &[
            "coord.send_s",
            "coord.recv_s",
            "coord.frames",
            "coord.bytes",
            "coord.codec_us_per_frame",
            "coord.seal_us_per_frame",
            "coord.worker_handle_s",
        ],
    );
}

#[test]
fn simnet_traced_replay_matches() {
    let o = traced::<SimNet>(&TINY_SIM, 5);
    positive(
        &o.values,
        &[
            "simnet.calibrate_s",
            "simnet.op_s",
            "simnet.flows",
            "rpca.apg_s",
        ],
    );
}

/// An operation of 4 ms that its traced form covers in full, or (with
/// `gap`) only half inside a span and half outside any.
struct Sleeper {
    gap: bool,
}

const SLEEP: Duration = Duration::from_millis(4);

impl Workload for Sleeper {
    type Spec = bool;
    type Out = ();

    fn min_ops(&self) -> usize {
        1
    }

    fn setup(gap: &bool, _seed: u64) -> Result<Self, String> {
        Ok(Sleeper { gap: *gap })
    }

    fn op(&mut self, _k: usize) -> Result<(), String> {
        sleep(SLEEP);
        Ok(())
    }

    fn op_traced(&mut self, _k: usize, rec: &mut Recorder) -> Result<(), String> {
        if self.gap {
            rec.span("work", |_| sleep(SLEEP / 2));
            sleep(SLEEP / 2);
        } else {
            rec.span("work", |_| sleep(SLEEP));
        }
        Ok(())
    }

    fn check(&mut self, _k: usize, _out: &()) -> Result<Checked, String> {
        Ok(Checked {
            digest: 0,
            quality: Some(Quality {
                model_err: 1.0,
                bcast_ratio: 1.0,
                map_ratio: 1.0,
            }),
        })
    }

    fn layers(&self, _k: usize, _rec: &Recorder, _out: &()) -> Values {
        Values::new()
    }
}

#[test]
fn work_outside_the_spans_is_refused() {
    let (full, _) = run_traced::<Sleeper>(&false, 1, 0.2, MIN_COVERAGE).unwrap();
    assert!(full.correct, "{:?}", full.notes);
    assert!(full.values["trace.coverage_frac"] > 0.9);
    let (gappy, _) = run_traced::<Sleeper>(&true, 1, 0.2, MIN_COVERAGE).unwrap();
    assert!(!gappy.correct);
    let c = gappy.values["trace.coverage_frac"];
    assert!((0.3..0.7).contains(&c), "coverage {c}");
}

/// The answer-quality metrics are a function of the seed alone.
fn quality_bits<W: Workload>(spec: &W::Spec, seed: u64) -> Vec<u64> {
    let o = run_untraced::<W>(spec, seed, 0.05).expect("set-up succeeds");
    assert!(o.correct, "untraced run failed: {:?}", o.notes);
    ["model_err", "bcast_ratio", "map_ratio"]
        .iter()
        .map(|m| {
            let v = o.values[m];
            assert!(v.is_finite() && v > 0.0, "{m} = {v}");
            v.to_bits()
        })
        .collect()
}

#[test]
fn same_seed_reproduces_and_other_seed_differs() {
    assert_eq!(
        quality_bits::<Alg1>(&TINY_BLACKOUT, 3),
        quality_bits::<Alg1>(&TINY_BLACKOUT, 3)
    );
    assert_ne!(
        quality_bits::<Alg1>(&TINY_BLACKOUT, 3),
        quality_bits::<Alg1>(&TINY_BLACKOUT, 4)
    );
    assert_eq!(
        quality_bits::<SimNet>(&TINY_SIM, 3),
        quality_bits::<SimNet>(&TINY_SIM, 3)
    );
    assert_ne!(
        quality_bits::<SimNet>(&TINY_SIM, 3),
        quality_bits::<SimNet>(&TINY_SIM, 4)
    );
    assert_eq!(
        quality_bits::<Campaign>(&TINY_CAMPAIGN, 3),
        quality_bits::<Campaign>(&TINY_CAMPAIGN, 3)
    );
    assert_ne!(
        quality_bits::<Campaign>(&TINY_CAMPAIGN, 3),
        quality_bits::<Campaign>(&TINY_CAMPAIGN, 4)
    );
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let o = run_untraced::<Alg1>(&TINY_ALG1, 1, 0.05).unwrap();
    let line = crate::metrics::result_json(
        o.correct,
        o.attempted,
        o.failed,
        crate::metrics::END_TO_END,
        &o.values,
    )
    .unwrap();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(o.attempted >= TINY_ALG1.min_ops && o.values["ops_ok_frac"] == 1.0);
}

fn args(s: &str) -> Result<Args, String> {
    parse_args(s.split_whitespace().map(String::from))
}

#[test]
fn command_line_is_strict() {
    assert_eq!(
        args("--workload simnet-dc48 --seed 7 --seconds 10 --trace 1").unwrap(),
        Args {
            workload: "simnet-dc48".into(),
            seed: 7,
            seconds: 10.0,
            trace: true,
        }
    );
    for bad in [
        "",
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload simnet-dc48 --seed -1 --seconds 1 --trace 0",
        "--workload simnet-dc48 --seed 1 --seconds 0 --trace 0",
        "--workload simnet-dc48 --seed 1 --seconds 1 --trace 2",
        "--workload simnet-dc48 --seed 1 --seconds 1",
        "--workload simnet-dc48 --seed 1 --seconds 1 --trace 0 --extra 1",
        "--workload simnet-dc48 --seed 1 --seconds 1 --trace",
    ] {
        assert!(args(bad).is_err(), "accepted {bad:?}");
    }
}
