//! The closed-loop harness shared by every workload.
//!
//! One process, one operator: operations run back to back, each starting
//! when the previous one (and its output check) has finished. The untraced
//! run yields every end-to-end metric; the traced run repeats each
//! operation through the decomposed public calls on a second state built
//! from the same seed, refuses its numbers unless every operation
//! reproduces its untraced twin bit for bit, and yields the per-layer
//! metrics.

use crate::metrics::{self, Values};
use crate::span::Recorder;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Name of the root span of every traced operation.
pub const OP_SPAN: &str = "op";

/// Operations every traced run performs, so that each order of a twin
/// pair (see [`run_traced`]) is measured.
const TRACED_MIN_OPS: usize = 2;

/// Least share of the untraced operation's time the traced run's
/// top-level spans must account for, or its numbers are refused.
pub const MIN_COVERAGE: f64 = 0.9;

/// Answer-quality figures of one workload (deterministic per seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Mean relative error of the installed constant against ground truth.
    pub model_err: f64,
    /// `t(FNF broadcast) / t(binomial broadcast)` on the real network.
    pub bcast_ratio: f64,
    /// `t(greedy mapping) / t(ring mapping)` on the real network.
    pub map_ratio: f64,
}

impl Quality {
    /// Component-wise median: one unlucky instance (a calibration window
    /// that caught a rare congestion burst) does not move it.
    pub fn median(qs: &[Quality]) -> Quality {
        let of = |f: fn(&Quality) -> f64| metrics::median(&qs.iter().map(f).collect::<Vec<_>>());
        Quality {
            model_err: of(|q| q.model_err),
            bcast_ratio: of(|q| q.bcast_ratio),
            map_ratio: of(|q| q.map_ratio),
        }
    }
}

/// What the output check of one operation found.
#[derive(Debug, Clone)]
pub struct Checked {
    /// Hash over the bits of everything the operation produced; the traced
    /// replay must reproduce it exactly.
    pub digest: u64,
    /// The operation's answer quality, where it has one.
    pub quality: Option<Quality>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Size parameters (paper scale in the benchmark, tiny in self-tests).
    type Spec;
    /// What one operation hands to its output check.
    type Out;
    /// Operations every run performs whatever `--seconds` says; the
    /// answer-quality metrics are the median over exactly these.
    fn min_ops(&self) -> usize;

    /// Build every input from `seed` (timed as `setup_s`).
    fn setup(spec: &Self::Spec, seed: u64) -> Result<Self, String>;

    /// Operation `k` through the program's own entry points (timed).
    fn op(&mut self, k: usize) -> Result<Self::Out, String>;

    /// Operation `k` as the sequence of public calls the program makes,
    /// each call inside a span of `rec`.
    fn op_traced(&mut self, k: usize, rec: &mut Recorder) -> Result<Self::Out, String>;

    /// Check operation `k`'s outputs (untimed).
    fn check(&mut self, k: usize, out: &Self::Out) -> Result<Checked, String>;

    /// The answer quality of the run.
    fn quality(&self, checked: &[Checked]) -> Result<Quality, String> {
        let qs: Vec<Quality> = checked.iter().filter_map(|c| c.quality).collect();
        if qs.is_empty() {
            return Err("no operation produced a quality figure".into());
        }
        Ok(Quality::median(&qs))
    }

    /// Per-layer figures of traced operation `k`. Keys are per-layer
    /// metric names; the run reports the median over traced operations
    /// (the `SUMMED` ones are summed instead).
    fn layers(&self, k: usize, rec: &Recorder, out: &Self::Out) -> Values;

    /// Per-layer figures measured once per traced run, after the replay.
    fn run_layers(&mut self) -> Result<Values, String> {
        Ok(Values::new())
    }

    /// Seconds of traced operation `k` spent in top-level spans that
    /// repeat work the untraced operation does only once (the separate
    /// calls that split a monolithic one); coverage leaves them out.
    fn duplicated(&self, _k: usize, _rec: &Recorder) -> f64 {
        0.0
    }
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (the sample count behind `cycle_s`).
    pub attempted: usize,
    /// Operations that errored or failed their check.
    pub failed: usize,
    /// Metric values by name.
    pub values: Values,
    /// Human-readable notes (failures, sample counts).
    pub notes: Vec<String>,
}

/// Run `spec`'s set-up [`SETUP_REPS`] times, returning the last state and
/// the median set-up time.
fn setup_median<W: Workload>(spec: &W::Spec, seed: u64) -> Result<(W, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous state first so each set-up starts from the
        // same memory picture.
        drop(state.take());
        let t0 = Instant::now();
        let w = W::setup(spec, seed)?;
        times.push(t0.elapsed().as_secs_f64());
        state = Some(w);
    }
    Ok((state.expect("SETUP_REPS >= 1"), metrics::median(&times)))
}

struct Loop {
    times: Vec<f64>,
    checked: Vec<Option<Checked>>,
    failed: usize,
    notes: Vec<String>,
}

/// Closed loop: operations back to back until `seconds` have passed and at
/// least `min_ops` ran. A failed operation's time is `+∞`.
fn closed_loop<W: Workload>(w: &mut W, seconds: f64, min_ops: usize) -> Loop {
    let start = Instant::now();
    let mut l = Loop {
        times: Vec::new(),
        checked: Vec::new(),
        failed: 0,
        notes: Vec::new(),
    };
    let mut k = 0;
    while k < min_ops || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let out = w.op(k);
        let dt = t0.elapsed().as_secs_f64();
        match out.and_then(|o| w.check(k, &o)) {
            Ok(c) => {
                l.times.push(dt);
                l.checked.push(Some(c));
            }
            Err(e) => {
                l.failed += 1;
                l.times.push(f64::INFINITY);
                l.checked.push(None);
                l.notes.push(format!("op {k} failed: {e}"));
            }
        }
        k += 1;
    }
    l
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced<W: Workload>(
    spec: &W::Spec,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let (mut w, setup_s) = setup_median::<W>(spec, seed)?;
    let min_ops = w.min_ops();
    let l = closed_loop(&mut w, seconds, min_ops);
    // Read before the quality scoring, which is the benchmark's work.
    let peak_rss_mb = metrics::peak_rss_mb()?;
    let ok: Vec<Checked> = l.checked[..min_ops].iter().flatten().cloned().collect();
    let quality = w.quality(&ok);
    let mut notes = l.notes;
    let q = quality.unwrap_or_else(|e| {
        notes.push(e);
        Quality {
            model_err: f64::NAN,
            bcast_ratio: f64::NAN,
            map_ratio: f64::NAN,
        }
    });
    let attempted = l.times.len();
    let mut values = Values::new();
    values.insert("cycle_s", metrics::median(&l.times));
    values.insert("setup_s", setup_s);
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("model_err", q.model_err);
    values.insert("bcast_ratio", q.bcast_ratio);
    values.insert("map_ratio", q.map_ratio);
    values.insert(
        "ops_ok_frac",
        (attempted - l.failed) as f64 / attempted as f64,
    );
    // The highest percentile with at least ten samples beyond it.
    let tail = if attempted >= 20 {
        let q = (attempted - 10) as f64 / attempted as f64;
        format!(
            ", p{:.0} {:.6} s",
            100.0 * q,
            metrics::quantile(&l.times, q)
        )
    } else {
        String::new()
    };
    notes.push(format!(
        "cycle_s: median of {attempted} closed-loop operations (min {:.6} s{tail}, max {:.6} s)",
        metrics::min(&l.times),
        metrics::max(&l.times)
    ));
    Ok(Outcome {
        correct: l.failed == 0 && q.model_err.is_finite(),
        attempted,
        failed: l.failed,
        values,
        notes,
    })
}

/// Where the traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-seed{seed}.jsonl"))
}

/// The traced run: two states built from the same seed advance in
/// lockstep. Operation `k` runs untraced on one, then traced on the other,
/// so every traced operation has an untraced twin measured moments before
/// under the same machine load. The numbers are refused when the median
/// coverage (see [`Workload::duplicated`]) is below `min_coverage`.
/// Returns the outcome and the recorder holding every span.
pub fn run_traced<W: Workload>(
    spec: &W::Spec,
    seed: u64,
    seconds: f64,
    min_coverage: f64,
) -> Result<(Outcome, Recorder), String> {
    let mut plain = W::setup(spec, seed)?;
    let mut traced = W::setup(spec, seed)?;
    let mut rec = Recorder::default();
    let mut per_op: Vec<Values> = Vec::new();
    let mut overhead = Vec::new();
    let mut coverage = Vec::new();
    let mut notes = Vec::new();
    let mut failed = 0;
    let mut k = 0;
    let start = Instant::now();
    while k < TRACED_MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let plain_op = |plain: &mut W| {
            let t0 = Instant::now();
            let out = plain.op(k);
            let untraced = t0.elapsed().as_secs_f64();
            (out.and_then(|o| plain.check(k, &o)), untraced)
        };
        let traced_op = |traced: &mut W, rec: &mut Recorder| {
            rec.set_op(k as u64);
            let out = rec.span(OP_SPAN, |rec| traced.op_traced(k, rec));
            out.and_then(|o| {
                let c = traced.check(k, &o)?;
                Ok((o, c))
            })
        };
        // Whichever twin runs second finds the machine warmed by the
        // first; alternating the order cancels that in the medians.
        let root = rec.spans().len();
        let ((reference, untraced), checked) = if k % 2 == 0 {
            let r = plain_op(&mut plain);
            (r, traced_op(&mut traced, &mut rec))
        } else {
            let c = traced_op(&mut traced, &mut rec);
            (plain_op(&mut plain), c)
        };
        match (reference, checked) {
            (Ok(r), Ok((o, c))) if r.digest == c.digest => {
                overhead.push(rec.total(k as u64, OP_SPAN) / untraced - 1.0);
                // Time inside the root's children, not the root itself:
                // work left outside every span shows as a gap.
                let covered = rec.spans()[root].duration() - rec.self_time(root);
                coverage.push((covered - traced.duplicated(k, &rec)) / untraced);
                per_op.push(traced.layers(k, &rec, &o));
            }
            (Ok(_), Ok(_)) => {
                failed += 1;
                notes.push(format!(
                    "traced op {k} does not reproduce the untraced result"
                ));
            }
            (Err(e), _) | (_, Err(e)) => {
                failed += 1;
                notes.push(format!("op {k} failed: {e}"));
            }
        }
        k += 1;
    }
    let mut values = metrics::summarize_layers(&per_op);
    match traced.run_layers() {
        Ok(v) => values.extend(v),
        Err(e) => {
            failed += 1;
            notes.push(format!("per-run layer leg failed: {e}"));
        }
    }
    values.insert("trace.overhead_frac", metrics::median(&overhead));
    let coverage = metrics::median(&coverage);
    values.insert("trace.coverage_frac", coverage);
    if coverage.is_nan() || coverage < min_coverage {
        failed += 1;
        notes.push(format!(
            "top-level spans cover {coverage:.3} of the untraced time, below {min_coverage}"
        ));
    }
    notes.push(format!(
        "{k} operations run untraced and traced; per-layer values are medians over them"
    ));
    let attempted = 2 * k;
    Ok((
        Outcome {
            correct: failed == 0 && !per_op.is_empty(),
            attempted,
            failed,
            values,
            notes,
        },
        rec,
    ))
}
