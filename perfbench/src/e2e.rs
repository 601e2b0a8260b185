//! End-to-end timing of the release `vardelay` binary: spec file in,
//! result bytes out, each iteration bracketed by the reference loop.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Value;

use crate::measure::{digest, median, normalize, time_reference};
use crate::results::{mc_trials, yield_gap_pp};
use crate::workloads::Workload;

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One finished child process.
pub struct Exit {
    pub wall_s: f64,
    pub success: bool,
    pub maxrss_kib: i64,
}

/// Runs `bin args` with its output discarded and waits for it with
/// `wait4`, which also returns the child's own peak RSS.
pub fn run_child(bin: &Path, args: &[String]) -> io::Result<Exit> {
    let t = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as
        // wait4(2) expects; `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Exit {
        wall_s: t.elapsed().as_secs_f64(),
        // WIFEXITED with exit code 0.
        success: status == 0,
        maxrss_kib: ru.maxrss_kib,
    })
}

/// Paths of one workload's scratch files inside the benchmark's work
/// directory.
pub struct Files {
    pub dir: PathBuf,
    pub spec: PathBuf,
    pub out: PathBuf,
    pub cache0: PathBuf,
    pub cache: PathBuf,
    pub journal: PathBuf,
}

impl Files {
    pub fn new(dir: PathBuf) -> Self {
        Files {
            spec: dir.join("spec.json"),
            out: dir.join("out.json"),
            cache0: dir.join("cache0"),
            cache: dir.join("cache"),
            journal: dir.join("journal.jsonl"),
            dir,
        }
    }
}

fn s(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Writes the workload's spec and, for cache workloads, pre-fills the
/// cache by running the unrefined spec once.
pub fn materialize(bin: &Path, w: &Workload, f: &Files) -> io::Result<()> {
    fs::create_dir_all(&f.dir)?;
    fs::write(&f.spec, &w.spec)?;
    if let Some(prefill) = &w.prefill {
        let spec = f.dir.join("prefill.json");
        fs::write(&spec, prefill)?;
        let args = vec![
            w.kind.subcommand().to_owned(),
            s(&spec),
            "--workers".into(),
            "1".into(),
            "--cache".into(),
            s(&f.cache0),
            "--out".into(),
            s(&f.dir.join("prefill-out.json")),
        ];
        if !run_child(bin, &args)?.success {
            return Err(io::Error::other("pre-filling the cache failed"));
        }
    }
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        fs::remove_dir_all(to)?;
    }
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Resets per-iteration state (outside any timed region): a fresh copy
/// of the pre-filled cache and no journal.
pub fn reset(w: &Workload, f: &Files) -> io::Result<()> {
    if w.prefill.is_some() {
        copy_dir(&f.cache0, &f.cache)?;
        if f.journal.exists() {
            fs::remove_file(&f.journal)?;
        }
    }
    Ok(())
}

/// Arguments of one execution of the workload's spec.
pub fn run_args(w: &Workload, f: &Files, workers: u32) -> Vec<String> {
    let mut args = vec![
        w.kind.subcommand().to_owned(),
        s(&f.spec),
        "--workers".into(),
        workers.to_string(),
        "--out".into(),
        s(&f.out),
    ];
    if w.prefill.is_some() {
        args.extend([
            "--cache".into(),
            s(&f.cache),
            "--checkpoint".into(),
            s(&f.journal),
        ]);
    }
    args
}

/// Arguments of the workload's `validate` (everything before the first
/// unit runs: parse, expand, validate, cost and cache index).
pub fn validate_args(w: &Workload, f: &Files) -> Vec<String> {
    let mut args = vec![
        w.kind.subcommand().to_owned(),
        "validate".into(),
        s(&f.spec),
    ];
    if w.prefill.is_some() {
        args.extend(["--cache".into(), s(&f.cache0)]);
    }
    args
}

/// One execution's result bytes, checked and summarized.
pub struct Outcome {
    pub digest: String,
    pub trials: u64,
    pub yield_gap_pp: Option<f64>,
}

pub fn read_outcome(f: &Files) -> io::Result<Outcome> {
    let bytes = fs::read(&f.out)?;
    let text = std::str::from_utf8(&bytes).map_err(io::Error::other)?;
    let report: Value = serde_json::from_str(text).map_err(|e| io::Error::other(e.to_string()))?;
    Ok(Outcome {
        digest: digest(&bytes),
        trials: mc_trials(&report),
        yield_gap_pp: yield_gap_pp(&report),
    })
}

/// One timed iteration.
pub struct Iteration {
    pub raw_s: f64,
    pub ref_before_s: f64,
    pub ref_after_s: f64,
    pub norm_s: f64,
    pub ok: bool,
    pub maxrss_kib: i64,
}

/// Everything one end-to-end run measured.
pub struct E2e {
    pub setup: Vec<Iteration>,
    pub iterations: Vec<Iteration>,
    pub reference: Outcome,
    pub digest_workers2: String,
    pub parallelism: f64,
}

impl E2e {
    pub fn failed(&self) -> usize {
        self.iterations.iter().filter(|i| !i.ok).count()
    }

    pub fn wall_s(&self) -> f64 {
        median(&self.iterations.iter().map(|i| i.norm_s).collect::<Vec<_>>())
    }

    pub fn setup_s(&self) -> f64 {
        median(&self.setup.iter().map(|i| i.norm_s).collect::<Vec<_>>())
    }

    pub fn peak_rss_mib(&self) -> f64 {
        self.iterations
            .iter()
            .map(|i| i.maxrss_kib)
            .max()
            .unwrap_or(0) as f64
            / 1024.0
    }
}

/// Repetitions of `validate` behind `setup_s` (their median is
/// reported).
const SETUP_REPS: usize = 25;
/// Timed iterations run even when `seconds` is already spent.
const MIN_ITERATIONS: usize = 5;

/// Times `args` once between two reference loops. `ref_before` reuses
/// the previous iteration's closing loop when nothing ran in between.
fn timed(
    bin: &Path,
    args: &[String],
    ref_before: Option<f64>,
    nominal: f64,
) -> io::Result<Iteration> {
    let ref_before_s = ref_before.unwrap_or_else(time_reference);
    let exit = run_child(bin, args)?;
    let ref_after_s = time_reference();
    Ok(Iteration {
        raw_s: exit.wall_s,
        ref_before_s,
        ref_after_s,
        norm_s: normalize(exit.wall_s, ref_before_s, ref_after_s, nominal),
        ok: exit.success,
        maxrss_kib: exit.maxrss_kib,
    })
}

/// Set-up, warm-up, the untimed `--workers 2` digest check, then timed
/// iterations until `seconds` have passed.
pub fn run(
    bin: &Path,
    w: &Workload,
    f: &Files,
    seconds: f64,
    nominal: f64,
    parallelism: f64,
) -> io::Result<E2e> {
    materialize(bin, w, f)?;

    let validate = validate_args(w, f);
    let mut setup: Vec<Iteration> = Vec::new();
    for _ in 0..SETUP_REPS {
        let prev = setup.last().map(|i| i.ref_after_s);
        let it = timed(bin, &validate, prev, nominal)?;
        if !it.ok {
            return Err(io::Error::other("validate failed"));
        }
        setup.push(it);
    }

    // Warm-up at one worker fixes the reference digest; the same spec
    // at two workers must reproduce it byte for byte.
    reset(w, f)?;
    if !run_child(bin, &run_args(w, f, 1))?.success {
        return Err(io::Error::other("warm-up run failed"));
    }
    let reference = read_outcome(f)?;
    reset(w, f)?;
    if !run_child(bin, &run_args(w, f, 2))?.success {
        return Err(io::Error::other("--workers 2 run failed"));
    }
    let digest_workers2 = digest(&fs::read(&f.out)?);

    let args = run_args(w, f, 1);
    let mut iterations: Vec<Iteration> = Vec::new();
    let started = Instant::now();
    while iterations.len() < MIN_ITERATIONS || started.elapsed().as_secs_f64() < seconds {
        let fresh_state = w.prefill.is_some();
        reset(w, f)?;
        if f.out.exists() {
            fs::remove_file(&f.out)?;
        }
        let prev = if fresh_state {
            None
        } else {
            iterations.last().map(|i| i.ref_after_s)
        };
        let mut it = timed(bin, &args, prev, nominal)?;
        it.ok = it.ok && fs::read(&f.out).is_ok_and(|b| digest(&b) == reference.digest);
        iterations.push(it);
    }
    Ok(E2e {
        setup,
        iterations,
        reference,
        digest_workers2,
        parallelism,
    })
}
