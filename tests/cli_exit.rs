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

/// Runs the binary in `dir`, expecting a clean failure: exit status 1
/// (not a stack-overflow abort) and one `error:` line naming the cap.
fn fails_on_nesting(dir: &std::path::Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_vardelay"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("the binary runs");
    assert_eq!(out.status.code(), Some(1), "{args:?}: {:?}", out.status);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with("error: "), "{args:?}: {err}");
    assert!(
        err.contains("nesting deeper than 128 at byte 128"),
        "{args:?}: {err}"
    );
    assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
}

#[test]
fn deeply_nested_json_exits_1_naming_the_cap() {
    let dir = std::env::temp_dir().join(format!("vardelay-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    std::fs::write(dir.join("deep.json"), &deep).unwrap();
    // Two deep lines: the first is mid-file corruption, not a torn tail.
    std::fs::write(dir.join("deep.jsonl"), format!("{deep}\n{deep}\n")).unwrap();
    let spec = Command::new(env!("CARGO_BIN_EXE_vardelay"))
        .args(["sweep", "example"])
        .output()
        .expect("the binary runs")
        .stdout;
    std::fs::write(dir.join("spec.json"), spec).unwrap();
    fails_on_nesting(&dir, &["sweep", "validate", "deep.json"]);
    fails_on_nesting(&dir, &["report", "deep.json"]);
    fails_on_nesting(&dir, &["sweep", "spec.json", "--resume", "deep.jsonl"]);
    std::fs::remove_dir_all(&dir).unwrap();
}
