//! `repro_all` refuses a flag without a value, or an unknown synthesis
//! arm, before it runs or writes anything.

use std::process::Command;

#[test]
fn path_flag_without_value_exits_nonzero() {
    for args in [
        &["--out"][..],
        &["--out", "--quick"],
        &["--out", "--health-json", "h.json"],
        &["--quick", "--health-json"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .args(args)
            .output()
            .expect("repro_all starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("needs a path"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before checking");
    }
}

#[test]
fn unknown_synth_mode_exits_nonzero() {
    for (args, message) in [
        (&["--synth-mode", "auto"][..], "expected td|spectral"),
        (&["--synth-mode"], "needs td or spectral"),
        (&["--synth-mode", "--quick"], "needs td or spectral"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
            .args(args)
            .output()
            .expect("repro_all starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before checking");
    }
}
