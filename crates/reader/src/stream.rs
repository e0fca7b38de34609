//! Sample-stream transmit/receive chain.
//!
//! The rest of the crate works at the channel-estimate level; this module
//! closes the loop at the *sample* level, the way the USRP actually runs
//! (§4.4): a continuous TX stream of preamble-plus-silence frames, a
//! receiver that has to *find* the preamble in its sample stream
//! ([`crate::sync`]), lock the 720-sample frame cadence, and produce one
//! channel estimate per frame. The estimate-level and stream-level paths
//! must agree — a test in `wiforce-repro` drives the full force pipeline
//! through this receiver.

use crate::ofdm::{ascending_to_bins, OfdmSounder};
use crate::sync::find_preamble;
use rand::RngCore;
use std::cell::RefCell;
use wiforce_dsp::fft::{ifft, with_plan};
use wiforce_dsp::rng::complex_gaussian;
use wiforce_dsp::signal::hadamard;
use wiforce_dsp::snapshots::SnapshotMatrix;
use wiforce_dsp::Complex;

/// Per-thread scratch for the allocation-free frame decode path: cached
/// preamble symbols (keyed by configuration) and a reusable averaging
/// buffer.
struct StreamScratch {
    key: (usize, u64),
    symbols: Vec<Complex>,
    avg: Vec<Complex>,
}

thread_local! {
    static STREAM_SCRATCH: RefCell<StreamScratch> = const {
        RefCell::new(StreamScratch { key: (0, 0), symbols: Vec::new(), avg: Vec::new() })
    };
}

/// Generates the reader's continuous TX stream: `n_frames` repetitions of
/// preamble + zero padding.
pub fn tx_stream(sounder: &OfdmSounder, n_frames: usize) -> Vec<Complex> {
    let preamble = sounder.preamble_time();
    let frame = sounder.frame_samples();
    let mut out = Vec::with_capacity(n_frames * frame);
    for _ in 0..n_frames {
        out.extend_from_slice(&preamble);
        out.resize(out.len() + (frame - preamble.len()), Complex::ZERO);
    }
    out
}

/// Simulates the received sample stream for a sequence of per-frame
/// channels: each frame's preamble rides through its own (frame-constant)
/// per-subcarrier channel, AWGN of std `noise_std` covers every sample,
/// and `lead_in` noise-only samples precede the first frame (the unknown
/// timing the receiver must acquire).
pub fn simulate_rx_stream(
    sounder: &OfdmSounder,
    channels: &[Vec<Complex>],
    noise_std: f64,
    lead_in: usize,
    rng: &mut dyn RngCore,
) -> Vec<Complex> {
    let frame = sounder.frame_samples();
    let n_sub = sounder.n_subcarriers;
    let scale = (n_sub as f64).sqrt();
    let symbols = sounder.preamble_symbols();
    let mut out = Vec::with_capacity(lead_in + channels.len() * frame);
    for _ in 0..lead_in {
        out.push(complex_gaussian(rng, noise_std * noise_std));
    }
    for ch in channels {
        assert_eq!(ch.len(), n_sub, "one channel entry per subcarrier");
        // received preamble symbol: IFFT(S·H), repeated n_repeats times
        let rx_freq = hadamard(&symbols, &ascending_to_bins(ch));
        let rx_sym: Vec<Complex> = ifft(&rx_freq).into_iter().map(|z| z * scale).collect();
        for _ in 0..sounder.n_repeats {
            for &x in &rx_sym {
                out.push(x + complex_gaussian(rng, noise_std * noise_std));
            }
        }
        for _ in 0..sounder.zero_pad {
            out.push(complex_gaussian(rng, noise_std * noise_std));
        }
    }
    out
}

/// A locked stream receiver: acquires preamble timing once, then slices
/// frames at the fixed cadence and estimates the channel per frame.
#[derive(Debug, Clone)]
pub struct StreamReceiver {
    sounder: OfdmSounder,
    /// Minimum normalized correlation metric for acquisition.
    pub min_sync_metric: f64,
}

/// Result of processing a stream.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Sample offset where the first preamble was found.
    pub sync_offset: usize,
    /// Correlation quality of the acquisition.
    pub sync_metric: f64,
    /// One channel estimate (ascending subcarrier order) per decoded
    /// frame, stored as rows of a flat snapshot matrix.
    pub estimates: SnapshotMatrix,
}

impl StreamReceiver {
    /// Creates a receiver for the given sounding waveform.
    pub fn new(sounder: OfdmSounder) -> Self {
        StreamReceiver {
            sounder,
            min_sync_metric: 1e-4,
        }
    }

    /// Estimates the channel from one received 320-sample preamble.
    pub fn estimate_from_preamble(&self, rx_preamble: &[Complex]) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; self.sounder.n_subcarriers];
        self.estimate_from_preamble_into(rx_preamble, &mut out);
        out
    }

    /// Like [`Self::estimate_from_preamble`], but writes the estimate into
    /// a caller-provided buffer (typically a fresh `SnapshotMatrix` row)
    /// using per-thread scratch and planned in-place FFTs — no allocation
    /// per frame.
    pub fn estimate_from_preamble_into(&self, rx_preamble: &[Complex], out: &mut [Complex]) {
        let n = self.sounder.n_subcarriers;
        assert_eq!(
            rx_preamble.len(),
            n * self.sounder.n_repeats,
            "need the full received preamble"
        );
        assert_eq!(out.len(), n, "output buffer must match the subcarrier grid");
        let half = n / 2;
        STREAM_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            if scratch.key != (n, self.sounder.preamble_seed) || scratch.symbols.len() != n {
                scratch.symbols = self.sounder.preamble_symbols();
                scratch.key = (n, self.sounder.preamble_seed);
            }
            scratch.avg.clear();
            scratch.avg.resize(n, Complex::ZERO);
            for rep in rx_preamble.chunks(n) {
                for (a, &x) in scratch.avg.iter_mut().zip(rep) {
                    *a += x;
                }
            }
            let inv = 1.0 / self.sounder.n_repeats as f64;
            scratch.avg.iter_mut().for_each(|z| *z = z.scale(inv));
            let scale = (n as f64).sqrt();
            with_plan(n, |plan| plan.forward_inplace(&mut scratch.avg));
            // equalize and map bin order to ascending offsets into `out`
            for (i, slot) in out.iter_mut().enumerate() {
                let bin = (i + n - half) % n;
                *slot = (scratch.avg[bin] / scale) / scratch.symbols[bin];
            }
        });
    }

    /// Acquires timing and decodes every complete frame in `stream`.
    ///
    /// Returns `None` when no preamble clears the sync threshold.
    pub fn process(&self, stream: &[Complex]) -> Option<StreamResult> {
        let _span = wiforce_telemetry::span!("stream.process");
        let preamble = self.sounder.preamble_time();
        let frame = self.sounder.frame_samples();
        // search exactly one frame period of alignments (any more would
        // cover the next frame's preamble and the global correlation max
        // could land there instead of on the first occurrence)
        let search = stream.len().min(frame + preamble.len() - 1);
        let Some(sync) = find_preamble(&stream[..search], &preamble, self.min_sync_metric) else {
            wiforce_telemetry::counter!("stream.sync_failures", 1);
            return None;
        };
        wiforce_telemetry::counter!("stream.sync_acquisitions", 1);
        wiforce_telemetry::gauge!("stream.sync_metric", sync.peak_metric);
        let mut estimates = SnapshotMatrix::new(self.sounder.n_subcarriers);
        let mut pos = sync.offset;
        while pos + preamble.len() <= stream.len() {
            let row = estimates.push_row_default();
            self.estimate_from_preamble_into(&stream[pos..pos + preamble.len()], row);
            pos += frame;
        }
        wiforce_telemetry::counter!("stream.frames_decoded", estimates.n_rows() as u64);
        Some(StreamResult {
            sync_offset: sync.offset,
            sync_metric: sync.peak_metric,
            estimates,
        })
    }
}

/// One phase group's worth of snapshots travelling through a
/// [`TagDemux`]: the shared snapshot matrix (frequency-multiplexed tags
/// are separated downstream by line extraction, so every subscribed
/// stream sees the same rows), its sequence number in the reader's group
/// timeline, and the production timestamp for latency accounting.
#[derive(Debug, Clone)]
pub struct GroupItem {
    /// Group index in the reader's timeline (0-based, gap-free).
    pub seq: u64,
    /// The group's channel-estimate snapshots (rows = snapshots).
    pub snapshots: std::sync::Arc<SnapshotMatrix>,
    /// When the group left the producer — consumers subtract this from
    /// `Instant::now()` for per-stream latency histograms.
    pub produced: std::time::Instant,
}

/// Error returned when a fan-out would overflow a stream's bounded queue
/// — the backpressure signal a batch engine throttles its producer on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Index of the stream whose queue is at capacity.
    pub stream: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream {} snapshot queue is full", self.stream)
    }
}

impl std::error::Error for QueueFull {}

/// Fan-in point for a frequency-multiplexed multi-tag reader (§7): one
/// physical snapshot stream carries every tag's modulation lines, and the
/// demux hands each registered per-tag stream its own bounded queue of
/// group items. Because the tags ride the *same* rows (separation happens
/// in Doppler, not in time), [`TagDemux::fan_out`] clones the shared
/// `Arc` into every queue; each stream's consumer picks its own lines out
/// of the rows. Which tags are present at all is a spectrum question
/// (`wiforce::spectrum::discover_tags`), not the demux's.
#[derive(Debug)]
pub struct TagDemux {
    queues: Vec<std::collections::VecDeque<GroupItem>>,
    capacity: usize,
}

impl TagDemux {
    /// Creates a demux whose per-stream queues hold at most `capacity`
    /// groups before [`TagDemux::fan_out`] reports backpressure.
    pub fn new(capacity: usize) -> Self {
        TagDemux {
            queues: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Registers a per-tag stream, returning its stream index.
    pub fn register(&mut self) -> usize {
        self.queues.push(std::collections::VecDeque::new());
        self.queues.len() - 1
    }

    /// Number of registered streams.
    pub fn n_streams(&self) -> usize {
        self.queues.len()
    }

    /// Per-stream queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth of stream `i`.
    pub fn depth(&self, i: usize) -> usize {
        self.queues[i].len()
    }

    /// `true` when every stream's queue has room for one more group —
    /// the producer's go/no-go check.
    pub fn can_accept(&self) -> bool {
        self.queues.iter().all(|q| q.len() < self.capacity)
    }

    /// Worst-case queue occupancy across streams, in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        let deepest = self.queues.iter().map(|q| q.len()).max().unwrap_or(0);
        deepest as f64 / self.capacity as f64
    }

    /// Fans one produced group out to every registered stream (the
    /// frequency-multiplexed fan-in: all tags share the rows). Fails with
    /// [`QueueFull`] — enqueuing nothing — if any stream is at capacity,
    /// so a blocked consumer backpressures the whole reader rather than
    /// silently dropping its groups.
    pub fn fan_out(&mut self, item: GroupItem) -> Result<(), QueueFull> {
        if let Some(stream) = self.queues.iter().position(|q| q.len() >= self.capacity) {
            return Err(QueueFull { stream });
        }
        for q in &mut self.queues {
            q.push_back(item.clone());
        }
        Ok(())
    }

    /// Lossy fan-out for engines running a drop-newest overflow policy:
    /// enqueues the group on every stream with room and *skips* streams
    /// at capacity, returning the indices that dropped it (empty when
    /// everyone accepted). The slow consumer loses data; the reader and
    /// its other streams keep their cadence.
    pub fn fan_out_lossy(&mut self, item: GroupItem) -> Vec<usize> {
        let mut dropped = Vec::new();
        for (i, q) in self.queues.iter_mut().enumerate() {
            if q.len() >= self.capacity {
                dropped.push(i);
            } else {
                q.push_back(item.clone());
            }
        }
        dropped
    }

    /// Pops the oldest pending group of stream `i` (FIFO).
    pub fn pop(&mut self, i: usize) -> Option<GroupItem> {
        self.queues[i].pop_front()
    }

    /// Drains every pending group of stream `i`, oldest first.
    pub fn drain(&mut self, i: usize) -> Vec<GroupItem> {
        self.queues[i].drain(..).collect()
    }

    /// `true` when no stream has pending groups.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn channels(n_frames: usize) -> Vec<Vec<Complex>> {
        (0..n_frames)
            .map(|f| {
                (0..64)
                    .map(|k| {
                        Complex::from_polar(
                            0.5 + 0.001 * f as f64,
                            0.02 * k as f64 + 0.1 * f as f64,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn tx_stream_shape() {
        let s = OfdmSounder::wiforce();
        let tx = tx_stream(&s, 3);
        assert_eq!(tx.len(), 3 * 720);
        // padding region is silent
        assert_eq!(tx[320], Complex::ZERO);
        assert_eq!(tx[719], Complex::ZERO);
        assert!(tx[0] != Complex::ZERO);
    }

    #[test]
    fn receiver_acquires_and_decodes_all_frames() {
        let s = OfdmSounder::wiforce();
        let chans = channels(5);
        let mut rng = StdRng::seed_from_u64(1);
        let rx = simulate_rx_stream(&s, &chans, 1e-4, 137, &mut rng);
        let result = StreamReceiver::new(s).process(&rx).expect("sync");
        assert_eq!(result.sync_offset, 137);
        assert_eq!(result.estimates.n_rows(), 5);
        for (est, truth) in result.estimates.rows().zip(&chans) {
            for (e, t) in est.iter().zip(truth) {
                assert!((*e - *t).abs() < 2e-3, "{e:?} vs {t:?}");
            }
        }
    }

    #[test]
    fn noiseless_stream_estimates_exactly() {
        let s = OfdmSounder::wiforce();
        let chans = channels(2);
        let mut rng = StdRng::seed_from_u64(2);
        let rx = simulate_rx_stream(&s, &chans, 0.0, 0, &mut rng);
        let result = StreamReceiver::new(s).process(&rx).expect("sync");
        assert_eq!(result.sync_offset, 0);
        for (est, truth) in result.estimates.rows().zip(&chans) {
            for (e, t) in est.iter().zip(truth) {
                assert!((*e - *t).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pure_noise_does_not_sync() {
        let s = OfdmSounder::wiforce();
        let mut rng = StdRng::seed_from_u64(3);
        let noise: Vec<Complex> = (0..2000)
            .map(|_| complex_gaussian(&mut rng, 1e-4))
            .collect();
        let mut rx = StreamReceiver::new(s);
        rx.min_sync_metric = 0.05;
        assert!(rx.process(&noise).is_none());
    }

    #[test]
    fn stream_matches_estimate_level_path() {
        // the waveform-level receiver and the OfdmSounder::estimate
        // shortcut must produce identical noiseless channel estimates
        use crate::sounder::ChannelSounder;
        let s = OfdmSounder::wiforce();
        let truth: Vec<Complex> = (0..64)
            .map(|k| Complex::from_polar(1.0, 0.05 * k as f64))
            .collect();
        let mut rng = StdRng::seed_from_u64(4);
        let rx = simulate_rx_stream(&s, std::slice::from_ref(&truth), 0.0, 0, &mut rng);
        let result = StreamReceiver::new(s).process(&rx).expect("sync");
        let stream_est = result.estimates.row(0);
        let mut cursor = wiforce_dsp::rng::CounterRng::for_snapshot(4, 0, 0);
        let mut direct_est = vec![Complex::ZERO; 64];
        s.estimate_counter_into(&truth, 0.0, &mut cursor, &mut direct_est);
        for (a, b) in stream_est.iter().zip(&direct_est) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    fn group_item(seq: u64) -> GroupItem {
        GroupItem {
            seq,
            snapshots: std::sync::Arc::new(SnapshotMatrix::new(4)),
            produced: std::time::Instant::now(),
        }
    }

    #[test]
    fn demux_fans_out_to_all_streams_in_order() {
        let mut d = TagDemux::new(4);
        let a = d.register();
        let b = d.register();
        assert_eq!(d.n_streams(), 2);
        for seq in 0..3 {
            d.fan_out(group_item(seq)).unwrap();
        }
        assert_eq!(d.depth(a), 3);
        assert_eq!(d.depth(b), 3);
        assert_eq!(d.pop(a).unwrap().seq, 0);
        let rest: Vec<u64> = d.drain(a).into_iter().map(|g| g.seq).collect();
        assert_eq!(rest, vec![1, 2]);
        assert_eq!(d.drain(b).len(), 3);
        assert!(d.is_empty());
    }

    #[test]
    fn demux_backpressures_when_any_queue_full() {
        let mut d = TagDemux::new(2);
        let a = d.register();
        let b = d.register();
        d.fan_out(group_item(0)).unwrap();
        d.fan_out(group_item(1)).unwrap();
        assert!(!d.can_accept());
        assert_eq!(d.occupancy(), 1.0);
        // a full sibling queue blocks the whole fan-out, nothing enqueued
        assert_eq!(d.fan_out(group_item(2)), Err(QueueFull { stream: a }));
        assert_eq!(d.depth(a), 2);
        assert_eq!(d.depth(b), 2);
        // draining one stream reopens the fan-in
        d.drain(a);
        assert!(!d.can_accept()); // b still full
        d.pop(b);
        assert!(d.can_accept());
        d.fan_out(group_item(2)).unwrap();
        assert_eq!(d.pop(a).unwrap().seq, 2);
    }

    #[test]
    fn lossy_fan_out_drops_only_full_streams() {
        let mut d = TagDemux::new(2);
        let a = d.register();
        let b = d.register();
        assert!(d.fan_out_lossy(group_item(0)).is_empty());
        assert!(d.fan_out_lossy(group_item(1)).is_empty());
        // b is drained, a stays full: only a drops the next group
        d.drain(b);
        assert_eq!(d.fan_out_lossy(group_item(2)), vec![a]);
        assert_eq!(d.depth(a), 2);
        assert_eq!(d.depth(b), 1);
        // a keeps its FIFO prefix; b got the newer group
        assert_eq!(d.pop(a).unwrap().seq, 0);
        assert_eq!(d.pop(b).unwrap().seq, 2);
        // everyone full: every stream reports the drop
        d.fan_out_lossy(group_item(3));
        d.fan_out_lossy(group_item(4));
        assert_eq!(d.fan_out_lossy(group_item(5)), vec![a, b]);
    }
}
