//! The scalar hold's lifecycle, in a test binary of its own: no other
//! test here takes a hold, so the backend read after the last guard
//! drops must be the detected one.

use wiforce_dsp::kernels::{backend, hold_scalar, Backend};

#[test]
fn detected_backend_returns_once_the_last_hold_drops() {
    let detected = backend();
    let outer = hold_scalar();
    assert_eq!(backend(), Backend::Scalar);
    let inner = hold_scalar();
    drop(outer);
    assert_eq!(backend(), Backend::Scalar, "a live guard still holds");
    let seen = std::thread::spawn(backend).join().expect("reader thread");
    assert_eq!(seen, Backend::Scalar, "a new thread sees the hold");
    drop(inner);
    assert_eq!(backend(), detected);
    let seen = std::thread::spawn(backend).join().expect("reader thread");
    assert_eq!(seen, detected);
}
