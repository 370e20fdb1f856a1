//! Golden `to_bits` digests of the flow simulator's outputs.
//!
//! The digests were captured from the scan-based max-min solve, which
//! cloned every active path per solve and rescanned every used link and
//! every flow's path per bottleneck step. Any rewrite of the rate solve or
//! of the engine loop must reproduce every bit: the clock, the completion
//! count and the per-link loads of a churned background run, the α and
//! 1/β of a TP-matrix calibrated through `ClusterView`, and the arrival
//! times of an FNF broadcast executed as flows.

use cloudconst_collectives::{fnf_tree, schedule, Collective};
use cloudconst_netmodel::{Calibrator, MB};
use cloudconst_simnet::{run_dag, BackgroundSpec, ClusterView, LinkSpec, Simulator, Topology};

/// FNV-1a over the bit patterns of `xs`, one 64-bit word per element.
fn digest(xs: &[f64]) -> u64 {
    xs.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 8 racks × 32 hosts, 1 Gb/s host links, 10 Gb/s core links.
fn topo() -> Topology {
    Topology::tree(
        8,
        32,
        LinkSpec {
            capacity: 1e9 / 8.0,
            latency: 20e-6,
        },
        LinkSpec {
            capacity: 10e9 / 8.0,
            latency: 30e-6,
        },
    )
}

/// A simulator under churned background traffic: 80 pairs of 100 MB
/// messages every 2 s on average, re-drawn with probability 0.3. Some
/// thirty flows are active at a time, most of them contending.
fn busy_simulator(seed: u64) -> Simulator {
    let mut sim = Simulator::new(topo(), seed);
    BackgroundSpec {
        pairs: 80,
        message_bytes: 100 * MB,
        lambda: 2.0,
        churn: 0.3,
        seed: seed ^ 0xB6,
    }
    .install(&mut sim, 0.0);
    sim
}

#[test]
fn churned_background_run_is_bit_stable() {
    let mut sim = busy_simulator(21);
    sim.run_until(40.0);
    assert_eq!(
        (
            sim.time().to_bits(),
            sim.flows_completed(),
            digest(&sim.link_loads())
        ),
        (0x4044_0000_0000_0000, 1518, 0x3370_4cde_039d_fc47),
        "golden digest of a 40 s churned background run"
    );
}

#[test]
fn calibration_over_cluster_view_is_bit_stable() {
    let mut sim = busy_simulator(23);
    sim.run_until(6.0);
    let hosts: Vec<usize> = (0..16).map(|k| (k * 37 + 5) % 256).collect();
    let mut view = ClusterView::new(&mut sim, hosts);
    let now = view.simulator().time();
    let (tp, _) = Calibrator::new().calibrate_tp(&mut view, now, 10.0, 4);
    assert_eq!(
        (
            digest(tp.alpha_matrix().as_slice()),
            digest(tp.inv_beta_matrix().as_slice()),
            view.simulator().time().to_bits(),
        ),
        (
            0xb402_21ce_8949_7325,
            0xb11f_a967_72a9_64a5,
            0x4045_a6d8_2f92_19db
        ),
        "golden digest of a 16-VM calibrate_tp on the simulator"
    );
}

#[test]
fn fnf_broadcast_finish_times_are_bit_stable() {
    let mut sim = busy_simulator(31);
    sim.run_until(6.0);
    let hosts: Vec<usize> = (0..24).map(|k| (k * 53 + 11) % 256).collect();
    let mut view = ClusterView::new(&mut sim, hosts);
    let now = view.simulator().time();
    let (tp, _) = Calibrator::new().calibrate_tp(&mut view, now, 10.0, 3);
    let guide = tp.snapshot(tp.steps() - 1);
    let tree = fnf_tree(0, &guide.weights(4 * MB));
    let dag = schedule(&tree, Collective::Broadcast, 4 * MB);
    let mut spans = Vec::new();
    for round in 0..3 {
        let start = view.simulator().time() + 0.5 * round as f64;
        spans.push(run_dag(&mut view, &dag, start));
    }
    assert_eq!(
        (digest(&spans), view.simulator().time().to_bits()),
        (0x5e21_97bf_9b84_6bb7, 0x4045_5dfa_abe5_078e),
        "golden digest of three FNF broadcasts run as flows"
    );
}
