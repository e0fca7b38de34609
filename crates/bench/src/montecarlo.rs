//! Monte-Carlo press sweeps shared by the CDF experiments
//! (Figs. 13/14/16/17).
//!
//! Runs many simulated presses against the calibrated model and collects
//! force/location errors. Presses are independent, so the sweep fans out
//! over `std::thread` with per-press deterministic seeds — rerunning any
//! configuration reproduces identical numbers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wiforce::calib::SensorModel;
use wiforce::pipeline::Simulation;
use wiforce_telemetry::{Recording, TelemetrySnapshot};

/// One press result.
#[derive(Debug, Clone, Copy)]
pub struct PressResult {
    /// Ground-truth force, N.
    pub true_force_n: f64,
    /// Ground-truth location, m.
    pub true_location_m: f64,
    /// Estimated force, N (NaN if the press failed to read).
    pub est_force_n: f64,
    /// Estimated location, m (NaN if failed).
    pub est_location_m: f64,
    /// Whether the press produced a reading at all.
    pub ok: bool,
}

impl PressResult {
    /// Absolute force error, N.
    pub fn force_error_n(&self) -> f64 {
        (self.est_force_n - self.true_force_n).abs()
    }

    /// Absolute location error, m.
    pub fn location_error_m(&self) -> f64 {
        (self.est_location_m - self.true_location_m).abs()
    }
}

/// A Monte-Carlo sweep configuration.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Press locations, m.
    pub locations_m: Vec<f64>,
    /// Press forces, N.
    pub forces_n: Vec<f64>,
    /// Independent trials per (force, location).
    pub trials: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Sweep {
    /// The paper's §5.1 sweep: forces 0–8 N at 20/40/55/60 mm.
    pub fn paper_eval(trials: usize) -> Self {
        Sweep {
            locations_m: vec![0.020, 0.040, 0.055, 0.060],
            forces_n: (1..=16).map(|i| i as f64 * 0.5).collect(),
            trials,
            seed: 0x57EE9,
        }
    }

    /// Total number of presses.
    pub fn len(&self) -> usize {
        self.locations_m.len() * self.forces_n.len() * self.trials
    }

    /// `true` if the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates `(force, location, seed)` tuples.
    fn presses(&self) -> Vec<(f64, f64, u64)> {
        let mut v = Vec::with_capacity(self.len());
        let mut idx = 0u64;
        for &loc in &self.locations_m {
            for &f in &self.forces_n {
                for _ in 0..self.trials {
                    v.push((f, loc, self.seed.wrapping_add(idx.wrapping_mul(0x9E3779B9))));
                    idx += 1;
                }
            }
        }
        v
    }
}

/// Runs the sweep in parallel, returning one result per press.
pub fn run_sweep(sim: &Simulation, model: &SensorModel, sweep: &Sweep) -> Vec<PressResult> {
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16);
    run_sweep_with_threads(sim, model, sweep, n_threads)
}

/// Runs the sweep on exactly `n_threads` worker threads.
///
/// Workers claim presses one at a time off a shared atomic counter
/// (work-stealing), so a straggler press never idles the rest of the
/// pool the way static chunking did. Every press still runs from its own
/// deterministic seed and results are merged back in press order, so the
/// output is bit-identical for any thread count.
pub fn run_sweep_with_threads(
    sim: &Simulation,
    model: &SensorModel,
    sweep: &Sweep,
    n_threads: usize,
) -> Vec<PressResult> {
    let (results, telemetry) = run_sweep_with_threads_telemetry(sim, model, sweep, n_threads);
    // fold the workers' (index-order merged) telemetry into the caller's
    // recorder so sweeps inside a larger telemetry session aren't lost
    wiforce_telemetry::absorb(&telemetry);
    results
}

/// Like [`run_sweep_with_threads`], but also returns the merged telemetry
/// of the whole sweep.
///
/// When the telemetry recorder is enabled, each press runs in a
/// [`wiforce_telemetry::Scope::capture`] under the caller's open spans
/// and its recording is kept alongside the press result; after the
/// workers join, the recordings are replayed in
/// press-index order — exactly like the result merge — so counters,
/// gauges, and observation histograms are identical for any thread count
/// (span *durations* are wall-clock and excluded from that guarantee; see
/// [`TelemetrySnapshot::deterministic_eq`]). With telemetry disabled the
/// merged snapshot is empty and the per-press capture costs nothing.
pub fn run_sweep_with_threads_telemetry(
    sim: &Simulation,
    model: &SensorModel,
    sweep: &Sweep,
    n_threads: usize,
) -> (Vec<PressResult>, TelemetrySnapshot) {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let presses = sweep.presses();
    let n_threads = n_threads.max(1);
    let next = AtomicUsize::new(0);

    let run_press = |&(force, loc, seed): &(f64, f64, u64)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match sim.measure_press(model, force, loc, &mut rng) {
            Ok(reading) => PressResult {
                true_force_n: force,
                true_location_m: loc,
                est_force_n: reading.force_n,
                est_location_m: reading.location_m,
                ok: true,
            },
            Err(_) => PressResult {
                true_force_n: force,
                true_location_m: loc,
                est_force_n: f64::NAN,
                est_location_m: f64::NAN,
                ok: false,
            },
        }
    };

    let telemetry = wiforce_telemetry::scope();
    let mut results: Vec<Option<(PressResult, Option<Recording>)>> = vec![None; presses.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(press) = presses.get(idx) else { break };
                        done.push((idx, telemetry.capture(|| run_press(press))));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (idx, r) in handle.join().expect("sweep worker panicked") {
                results[idx] = Some(r);
            }
        }
    });
    let (results, recordings): (Vec<PressResult>, Vec<Option<Recording>>) = results
        .into_iter()
        .map(|r| r.expect("all presses filled"))
        .unzip();
    (results, telemetry.snapshot(recordings.iter().flatten()))
}

/// Force errors (N) of successful presses.
pub fn force_errors(results: &[PressResult]) -> Vec<f64> {
    results
        .iter()
        .filter(|r| r.ok)
        .map(PressResult::force_error_n)
        .collect()
}

/// Location errors (mm) of successful presses.
pub fn location_errors_mm(results: &[PressResult]) -> Vec<f64> {
    results
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.location_error_m() * 1e3)
        .collect()
}

/// Returns `true` when `--quick` was passed (fig binaries use fewer
/// trials for a fast smoke run).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_enumeration() {
        let s = Sweep {
            locations_m: vec![0.02, 0.04],
            forces_n: vec![1.0, 2.0],
            trials: 3,
            seed: 1,
        };
        assert_eq!(s.len(), 12);
        assert!(!s.is_empty());
        let p = s.presses();
        assert_eq!(p.len(), 12);
        // seeds distinct
        let mut seeds: Vec<u64> = p.iter().map(|x| x.2).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
    }

    #[test]
    fn run_small_sweep_deterministic() {
        let mut sim = Simulation::paper_default(2.4e9);
        sim.reference_groups = 1;
        sim.measure_groups = 1;
        let model = sim.vna_calibration().unwrap();
        let sweep = Sweep {
            locations_m: vec![0.040],
            forces_n: vec![4.0],
            trials: 2,
            seed: 9,
        };
        let a = run_sweep(&sim, &model, &sweep);
        let b = run_sweep(&sim, &model, &sweep);
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.ok && y.ok);
            assert_eq!(x.est_force_n, y.est_force_n);
        }
        let errs = force_errors(&a);
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().all(|&e| e < 1.5), "{errs:?}");
    }

    #[test]
    fn sweep_bit_identical_across_thread_counts() {
        let mut sim = Simulation::paper_default(2.4e9);
        sim.reference_groups = 1;
        sim.measure_groups = 1;
        let model = sim.vna_calibration().unwrap();
        let sweep = Sweep {
            locations_m: vec![0.020, 0.055],
            forces_n: vec![2.0, 5.0],
            trials: 2,
            seed: 42,
        };
        let single = run_sweep_with_threads(&sim, &model, &sweep, 1);
        assert_eq!(single.len(), sweep.len());
        for n_threads in [2, 3, 7] {
            let multi = run_sweep_with_threads(&sim, &model, &sweep, n_threads);
            assert_eq!(multi.len(), single.len());
            for (a, b) in single.iter().zip(&multi) {
                assert_eq!(a.ok, b.ok, "{n_threads} threads");
                assert_eq!(a.est_force_n.to_bits(), b.est_force_n.to_bits());
                assert_eq!(a.est_location_m.to_bits(), b.est_location_m.to_bits());
            }
        }
    }
}
