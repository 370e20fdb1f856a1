//! A timing wrapper around any coordinator [`Transport`].
//!
//! `TimedTransport` measures the wall time the coordinator spends inside
//! `send` (seal + socket write on TCP; the whole worker `handle` on
//! loopback) and inside `deliver_next` (waiting for a frame, reading it and
//! opening its seal), so a campaign's wall time splits into transport time
//! and coordinator self time. It can also keep a copy of every frame that
//! crossed it, for replaying the codec and seal costs afterwards.

use cloudconst_coord::{CoordError, ShardId, Transport, WireStats};
use std::time::Instant;

/// Wall time accumulated by a [`TimedTransport`].
#[derive(Debug, Clone, Default)]
pub struct TransportTimes {
    /// Seconds spent in `send`.
    pub send_s: f64,
    /// Seconds spent in `deliver_next`.
    pub recv_s: f64,
}

/// Times `send` and `deliver_next` of the wrapped transport.
pub struct TimedTransport<T> {
    inner: T,
    times: TransportTimes,
    captured: Option<Vec<Vec<u8>>>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wrap `inner`; with `capture` set, every frame sent or delivered is
    /// copied (unsealed) for a later replay.
    pub fn new(inner: T, capture: bool) -> Self {
        TimedTransport {
            inner,
            times: TransportTimes::default(),
            captured: capture.then(Vec::new),
        }
    }

    /// Accumulated times.
    pub fn times(&self) -> &TransportTimes {
        &self.times
    }

    /// The captured frames (empty without capture), in wire order.
    pub fn into_frames(self) -> Vec<Vec<u8>> {
        self.captured.unwrap_or_default()
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn shards(&self) -> usize {
        self.inner.shards()
    }

    fn send(&mut self, shard: ShardId, frame: Vec<u8>) -> Result<(), CoordError> {
        if let Some(c) = &mut self.captured {
            c.push(frame.clone());
        }
        let t0 = Instant::now();
        let out = self.inner.send(shard, frame);
        self.times.send_s += t0.elapsed().as_secs_f64();
        out
    }

    fn deliver_next(&mut self) -> Result<Option<Vec<u8>>, CoordError> {
        let t0 = Instant::now();
        let out = self.inner.deliver_next();
        self.times.recv_s += t0.elapsed().as_secs_f64();
        if let (Ok(Some(frame)), Some(c)) = (&out, &mut self.captured) {
            c.push(frame.clone());
        }
        out
    }

    fn stats(&self) -> WireStats {
        self.inner.stats()
    }

    fn shard_dead(&self, shard: ShardId) -> bool {
        self.inner.shard_dead(shard)
    }
}
