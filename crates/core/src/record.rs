//! Recording and replaying channel-estimate streams.
//!
//! The reader's raw input — per-snapshot, per-subcarrier channel estimates
//! — is the natural capture point for debugging and offline analysis
//! (smoltcp records pcaps; WiForce records snapshot streams). The `.wifs`
//! format is a tiny self-describing binary container:
//!
//! ```text
//! magic "WIFS" | u32 version | f64 snapshot_period_s |
//! u32 n_subcarriers | u32 n_snapshots |
//! n_snapshots × n_subcarriers × (f64 re, f64 im)   (all little-endian)
//! ```
//!
//! A recorded stream replays bit-exactly into [`crate::ForceEstimator`] or
//! [`crate::spectrum`], making field captures reproducible test vectors.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use wiforce_dsp::{Complex, SnapshotMatrix};

const MAGIC: &[u8; 4] = b"WIFS";
const VERSION: u32 = 1;
/// Magic, version, period and the two dimensions.
const HEADER_BYTES: u64 = 24;
/// One sample: two little-endian `f64`s.
const CELL_BYTES: u64 = 16;

/// A recorded channel-estimate stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// Snapshot period, s.
    pub snapshot_period_s: f64,
    /// Channel estimates, one snapshot per row (row `n`, subcarrier `k`).
    /// The flat row-major layout matches the on-disk sample order, so
    /// save/load move contiguous memory.
    pub snapshots: SnapshotMatrix,
}

impl Recording {
    /// Builds a recording from a stream.
    pub fn new(snapshot_period_s: f64, snapshots: SnapshotMatrix) -> Self {
        Recording {
            snapshot_period_s,
            snapshots,
        }
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.n_rows()
    }

    /// `true` if the recording holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Subcarriers per snapshot (0 if empty).
    pub fn n_subcarriers(&self) -> usize {
        if self.snapshots.is_empty() {
            0
        } else {
            self.snapshots.n_cols()
        }
    }

    /// Total capture duration, s.
    pub fn duration_s(&self) -> f64 {
        self.len() as f64 * self.snapshot_period_s
    }

    /// Writes to a `.wifs` file.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let k = self.n_subcarriers();
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&self.snapshot_period_s.to_le_bytes())?;
        w.write_all(&(k as u32).to_le_bytes())?;
        w.write_all(&(self.len() as u32).to_le_bytes())?;
        for z in self.snapshots.as_slice() {
            w.write_all(&z.re.to_le_bytes())?;
            w.write_all(&z.im.to_le_bytes())?;
        }
        w.flush()
    }

    /// Reads a `.wifs` file.
    pub fn load(path: &Path) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a WIFS recording",
            ));
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported WIFS version {version}"),
            ));
        }
        let period = read_f64(&mut r)?;
        if !(period.is_finite() && period > 0.0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad snapshot period",
            ));
        }
        let k = read_u32(&mut r)? as usize;
        let n = read_u32(&mut r)? as usize;
        if k.checked_mul(n).is_none_or(|cells| cells > 1 << 28) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "implausible dimensions",
            ));
        }
        // a header can declare far more samples than follow it: check the
        // bytes actually left before reserving anything
        let cells = n * k;
        let left = r.get_ref().metadata()?.len().saturating_sub(HEADER_BYTES);
        if cells as u64 * CELL_BYTES > left {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "header declares {cells} samples, file holds {}",
                    left / CELL_BYTES
                ),
            ));
        }
        let mut data = Vec::with_capacity(cells);
        for _ in 0..cells {
            let re = read_f64(&mut r)?;
            let im = read_f64(&mut r)?;
            if !(re.is_finite() && im.is_finite()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "non-finite sample",
                ));
            }
            data.push(Complex::new(re, im));
        }
        let snapshots = SnapshotMatrix::from_flat(k.max(1), data);
        Ok(Recording {
            snapshot_period_s: period,
            snapshots,
        })
    }
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("wiforce_record_test");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    fn sample() -> Recording {
        let rows: Vec<Vec<Complex>> = (0..10)
            .map(|n| {
                (0..4)
                    .map(|k| Complex::new(n as f64, k as f64 * 0.5))
                    .collect()
            })
            .collect();
        Recording::new(57.6e-6, SnapshotMatrix::from_rows(&rows))
    }

    #[test]
    fn round_trip_bit_exact() {
        let path = tmp("roundtrip.wifs");
        let rec = sample();
        rec.save(&path).unwrap();
        let back = Recording::load(&path).unwrap();
        assert_eq!(back, rec);
        assert_eq!(back.n_subcarriers(), 4);
        assert!((back.duration_s() - 10.0 * 57.6e-6).abs() < 1e-12);
    }

    #[test]
    fn rejects_wrong_magic() {
        let path = tmp("bad_magic.wifs");
        std::fs::write(&path, b"NOPE....data").unwrap();
        let err = Recording::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncated_file() {
        let path = tmp("truncated.wifs");
        let rec = sample();
        rec.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(Recording::load(&path).is_err());
    }

    #[test]
    fn rejects_header_declaring_more_samples_than_the_file_holds() {
        // 28 bytes declaring 16384×16384 samples: the plausibility cap
        // admits 2²⁸ cells, so only the length check stands between this
        // file and a 4 GiB reservation
        let path = tmp("oversized_header.wifs");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&57.6e-6f64.to_le_bytes());
        bytes.extend_from_slice(&16384u32.to_le_bytes());
        bytes.extend_from_slice(&16384u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(bytes.len(), 28);
        std::fs::write(&path, &bytes).unwrap();
        let err = Recording::load(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn rejects_non_finite_samples() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let path = tmp("non_finite.wifs");
            let mut rec = sample();
            rec.snapshots.row_mut(3)[1].im = bad;
            rec.save(&path).unwrap();
            let err = Recording::load(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad}: {err}");
        }
    }

    #[test]
    fn empty_recording_ok() {
        let path = tmp("empty.wifs");
        let rec = Recording::new(1e-3, SnapshotMatrix::default());
        rec.save(&path).unwrap();
        let back = Recording::load(&path).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.n_subcarriers(), 0);
    }

    #[test]
    fn replays_into_estimator() {
        use crate::estimator::{EstimatorConfig, ForceEstimator};
        use crate::pipeline::{PressNoise, Simulation, TagClock};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // record a live run, then replay the file and get identical output
        let sim = Simulation::paper_default(2.4e9);
        let model = sim.vna_calibration().unwrap();
        let mut rng = StdRng::seed_from_u64(0x5EC);
        let mut clock = TagClock::new(&mut rng);
        let mut noise = PressNoise::from_rng(&mut rng);
        let mut snaps = sim.run_snapshots(None, 1, &mut clock, &mut noise);
        let contact = sim.contact_for(4.0, 0.040);
        sim.run_snapshots_into(contact.as_ref(), 1, &mut clock, &mut noise, &mut snaps);

        let path = tmp("replay.wifs");
        Recording::new(sim.group.snapshot_period_s, snaps.clone())
            .save(&path)
            .unwrap();
        let rec = Recording::load(&path).unwrap();

        let run = |stream: &SnapshotMatrix| -> Option<crate::ForceReading> {
            let cfg = EstimatorConfig {
                group: sim.group,
                reference_groups: 1,
                ..EstimatorConfig::wiforce(1000.0)
            };
            let mut est = ForceEstimator::new(cfg, model.clone());
            let mut out = None;
            for s in stream.rows() {
                if let Ok(Some(r)) = est.push_snapshot(s) {
                    out = Some(r);
                }
            }
            out
        };
        let live = run(&snaps).expect("live reading");
        let replayed = run(&rec.snapshots).expect("replayed reading");
        assert_eq!(live, replayed, "replay must be bit-exact");
        assert!(replayed.touched);
    }
}
