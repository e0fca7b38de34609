use std::time::Instant;
use wiforce_dsp::fft::with_plan;
use wiforce_dsp::rng::{CounterRng, DOMAIN_SNAPSHOT};
use wiforce_dsp::Complex;
use wiforce_reader::ofdm::OfdmSounder;
use wiforce_reader::sounder::ChannelSounder;

#[test]
#[ignore]
fn microprof() {
    let s = OfdmSounder::wiforce();
    let truth: Vec<Complex> = (0..64)
        .map(|k| Complex::from_polar(1.0, 0.05 * k as f64))
        .collect();
    let mut out = vec![Complex::ZERO; 64];
    let iters = 20000;
    let t = Instant::now();
    for i in 0..iters {
        let mut cursor = CounterRng::for_snapshot(1, 0, i);
        s.estimate_counter_into(&truth, 6e-6, &mut cursor, &mut out);
    }
    println!(
        "estimate_counter_into: {:.2} us",
        t.elapsed().as_secs_f64() / iters as f64 * 1e6
    );

    // the estimate-law draw takes one complex normal per subcarrier, 64
    // snapshots a call
    let rows = 64;
    let mut normals = vec![Complex::ZERO; rows * 64];
    let t = Instant::now();
    for i in 0..iters / rows as u32 {
        wiforce_dsp::kernels::philox_complex_normals_rows(
            [1, 0],
            [0, DOMAIN_SNAPSHOT],
            i * rows as u32,
            0,
            64,
            &mut normals,
        );
    }
    println!(
        "philox_complex_normals_rows(64) per row: {:.2} us",
        t.elapsed().as_secs_f64() / iters as f64 * 1e6
    );

    let mut buf: Vec<Complex> = (0..64)
        .map(|k| Complex::from_polar(1.0, 0.1 * k as f64))
        .collect();
    let t = Instant::now();
    for _ in 0..iters {
        with_plan(64, |p| p.inverse_inplace(&mut buf));
        with_plan(64, |p| p.forward_inplace(&mut buf));
    }
    println!(
        "ifft+fft(64): {:.2} us",
        t.elapsed().as_secs_f64() / iters as f64 * 1e6
    );

    let rx: Vec<Complex> = buf.clone();
    let mut avg = vec![Complex::ZERO; 64];
    let t = Instant::now();
    for _ in 0..iters {
        avg.iter_mut().for_each(|z| *z = Complex::ZERO);
        wiforce_dsp::kernels::accumulate_noisy(&mut avg, &rx, &normals[..64], 3e-6);
    }
    println!(
        "accumulate(64): {:.2} us",
        t.elapsed().as_secs_f64() / iters as f64 * 1e6
    );
}
