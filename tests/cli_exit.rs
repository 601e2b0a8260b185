//! The `vardelay` binary's exit status and message on a rejected
//! command line.

use std::process::Command;

#[test]
fn retired_kernel_v2_exits_nonzero_naming_the_valid_set() {
    let out = Command::new(env!("CARGO_BIN_EXE_vardelay"))
        .args(["sweep", "example", "--kernel", "v2"])
        .output()
        .expect("the binary runs");
    assert!(!out.status.success(), "{:?}", out.status);
    assert!(out.stdout.is_empty(), "no template on stdout");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown kernel 'v2' (use v1|v3)"), "{err}");
}
