//! Command-line interface logic (thin argument parsing, no dependencies).
//!
//! Subcommands:
//!
//! * `analyze <file.bench>` — statistical timing of a `.bench` netlist.
//! * `yield --stages m:s,m:s,... --target T [--rho R]` — pipeline yield
//!   from stage moments (the paper's core model, eq. 4–9).
//! * `generate <c432|c1908|c2670|c3540|chain:N>` — emit a benchmark
//!   netlist in `.bench` format.
//! * `sweep <spec.json>` — run a scenario sweep on the unified workload
//!   engine; `sweep example` prints a ready-to-edit spec.
//! * `optimize <spec.json>` — run a yield-aware sizing campaign (the
//!   §4 / Fig. 9 flow) on the same engine; `optimize example` prints a
//!   ready-to-edit campaign, `optimize validate` lints one.
//!
//! Both workload subcommands share one driver ([`run_workload_cmd`])
//! and one set of production flags: `--workers`, `--out` (incremental
//! JSONL stream + atomic aggregate), `--shard i/n`, `--checkpoint`,
//! `--resume` — all byte-exact by the engine's determinism contract —
//! plus the out-of-band observability flags `--trace` (Chrome trace
//! JSON), `--metrics` (aggregated phase/counter JSON) and `--progress`
//! (live stderr line), none of which can change a result byte. The
//! `report` subcommand (see [`crate::report`]) prints the phase
//! breakdown of a `--trace`/`--metrics` file.
//!
//! Every subcommand rejects unrecognized flags/arguments outright —
//! like the spec files' unknown-key rejection, a typo'd option must
//! fail loudly, never silently change (or skip) part of a run.
//!
//! All functions return the output text so they are unit-testable; `main`
//! only routes arguments and prints.

use std::fmt::Write as _;
use std::io::Write as _;

use vardelay_cache::{compact_dir, verify_dir, ResultStore, UnitCache};
use vardelay_circuit::generators::{inverter_chain, iscas};
use vardelay_circuit::{parse_bench, write_bench, CellLibrary, Netlist};
use vardelay_core::{Pipeline, StageDelay};
use vardelay_engine::{
    checkpoint_line, plan_workload, run_units, Checkpoint, EngineError, KernelSpec, Shard,
    StrategySpec, Workload, WorkloadOptions, WorkloadPlan, WorkloadReport, CONTRACT_VERSION,
};
use vardelay_process::VariationConfig;
use vardelay_ssta::SstaEngine;
use vardelay_stats::CorrelationMatrix;

/// CLI error: message for the user plus a suggestion to run `help`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (run `vardelay help`)", self.0)
    }
}

impl std::error::Error for CliError {}

/// The help text. The kernel and strategy keyword lists are generated
/// from [`KernelSpec::ALL`] and [`StrategySpec::ALL`], so help can never
/// drift from the parser again.
pub fn help() -> String {
    let kernels = KernelSpec::keyword_list();
    let strategies = StrategySpec::keyword_list();
    format!(
        "\
vardelay — statistical pipeline delay & yield (DATE 2005 reproduction)

USAGE:
  vardelay analyze <file.bench> [--inter MV] [--rand MV] [--sys MV]
      Statistical timing of a .bench netlist: nominal delay, mean, sigma,
      sigma/mu, and the top critical paths.

  vardelay yield --stages MU:SD,MU:SD,... --target PS [--rho R]
      Pipeline yield from per-stage delay moments (ps), using Clark's
      max approximation (eq. 4-6) and the Gaussian yield model (eq. 9).

  vardelay generate <c432|c1908|c2670|c3540|chain:N>
      Emit a benchmark netlist in .bench format on stdout.

  vardelay sweep <spec.json> [--workers N] [--out results.json]
                 [--shard i/n] [--checkpoint f.jsonl] [--resume f.jsonl]
      Run a scenario sweep (analytic model + Monte-Carlo) on the
      unified workload engine. Results are bit-identical for any
      --workers. A summary table goes to stdout; completed scenarios
      stream to --out as JSONL and the final aggregate JSON atomically
      replaces it. Each scenario picks its simulator with the backend
      field: pipeline (the default: joint-Gaussian sampling for Moments
      stages, the netlist path for gate-level ones), netlist
      (gate-level MC on the zero-allocation hot path; supports
      CircuitSpec stages: Chain/Alu1/Alu2/Decoder/Random/Iscas), or
      analytic (closed-form SSTA/Clark, no trials). The kernel field
      picks the versioned trial-kernel contract ({kernels}): v1 is the
      default scalar kernel (the historical byte contract), v3 the
      wide structure-of-arrays kernel (lane-major 16-trial passes,
      several times v1's trials/s under its own frozen byte contract;
      the retired v2 batch kernel is gone, use v3). Every kernel is
      byte-identical to itself at any --workers, --shard split or
      resume; kernel (like backend) is excluded from scenario
      identity, so all versions derive the same per-trial seeds.

      Production flags (shared with optimize; all byte-exact thanks to
      content-hash unit keys + counter-based seeding):
        --shard i/n       run only the units whose journal key k (a
                          content hash of the unit's full sub-spec;
                          equal to the printed run id for campaigns)
                          satisfies k % n == i-1; the union of all
                          shards equals an unsharded run bit for bit
        --checkpoint f    journal each completed unit to f (JSONL) the
                          moment it finishes
        --resume f        skip units already in f, splicing their
                          stored results; new completions append to f.
                          Resuming from the concatenated checkpoints of
                          all n shards IS the shard merge.
        --cache DIR       persistent content-addressed result cache:
                          before executing a unit, look its content-hash
                          key up in DIR and splice the stored result
                          byte-exactly (like --resume, but global and
                          shared across specs and runs); record every
                          executed unit back. Composes with --shard,
                          --checkpoint and --resume; units found in the
                          resume journal are never double-spliced (the
                          journal wins). Safe for concurrent processes
                          (one append-only segment per writer, fsync'd
                          records). See `vardelay cache` for
                          maintenance.

      Observability flags (shared with optimize; strictly out-of-band —
      result bytes, journals and --out files are bit-identical with and
      without them, at any worker/shard count):
        --trace f         write a Chrome trace-event JSON of the run
                          (open at https://ui.perfetto.dev or in
                          chrome://tracing)
        --metrics f       write aggregated metrics JSON: wall time per
                          phase, trials/s, worker utilization, units
                          executed vs resumed-from-journal
        --progress        live single-line progress on stderr (units,
                          steps, trials/s, ETA), throttled; never
                          touches stdout or the --out/journal streams

  vardelay sweep validate <spec.json> [--cache DIR]
      Lint a spec without running it: expand, validate every scenario,
      and report the scenario count, trial total and block count plus
      each scenario's backend, kernel version, trial strategy and
      estimated relative cost per trial (gate evaluations weighted by
      the kernel's calibrated speed, plus the strategy's overhead per
      shaped leading die dim). A spec naming an unknown strategy is
      rejected with the valid set.
      With --cache DIR, also report how many units are already cached
      vs to execute and the adjusted cost estimate.

  vardelay sweep example [--backend netlist] [--kernel {kernels}]
                         [--strategy {strategies}]
      Print an example sweep spec (JSON) to adapt; --backend netlist
      emits a gate-level template (circuit-spec pipelines, an analytic
      model twin for model-vs-MC deltas); --kernel stamps that trial
      kernel onto every scenario; --strategy emits an inter-die-
      heavy template exercising that trial plan (scenario `trials` may
      be a bare count or an object with count/strategy/shift_sigmas).

  vardelay optimize <spec.json> [--workers N] [--out results.json]
                    [--shard i/n] [--checkpoint f.jsonl] [--resume f.jsonl]
      Run an optimization campaign: the paper's global yield-aware
      sizing flow (Fig. 9) over every (pipeline x yield target x
      target-delay policy x goal x variation) run in the spec, on the
      same unified workload engine as sweeps — including --shard,
      --checkpoint and --resume (see sweep above). Each run reports
      the individually-optimized baseline, the global flow's result,
      the analytic yield prediction and the MC-verified yield side by
      side. Results are bit-identical for any --workers. The
      yield_backend field picks what measures yield inside the sizing
      loop: analytic (Clark/SSTA, the paper flow) or netlist
      (gate-level Monte-Carlo). The kernel field ({kernels}) picks the
      trial-kernel contract for every Monte-Carlo surface of a run:
      in-loop evaluation, stage criticality and final verification.
      Under v3, verification trials additionally fan out across the
      --workers pool in fixed chunks folded in chunk order, so the
      verified bytes stay identical at every worker count.

  vardelay optimize validate <spec.json> [--cache DIR]
      Lint a campaign spec without running it: expand, validate every
      run, and report per-run footprint (stages, gates, goal, backend,
      kernel version, verification trial strategy, yield allocation,
      estimated relative cost per trial) plus total verification
      trials. A spec naming an unknown strategy is rejected with the
      valid set. With --cache DIR, also report cached-vs-to-execute
      runs and the adjusted cost estimate.

  vardelay optimize example [--high-sigma]
      Print an example campaign spec (JSON) to adapt. --high-sigma
      emits a statistical-blockade template: a 99.9% yield target
      verified by mean-shifted importance sampling to a requested
      confidence half-width (verify_trials becomes an object with
      count/strategy/ci_half_width, and the count turns into a
      ceiling rather than a fixed budget).

  vardelay cache <stats|verify|compact> DIR [--max-bytes N]
      Maintain a --cache result store. stats: segment/record/byte
      counts per contract version. verify: re-read every record and
      check its checksum (exits nonzero on corruption). compact: merge
      segments keeping the newest record per unit, drop superseded,
      stale-contract and corrupt records, and — with --max-bytes N —
      evict whole least-recently-used segments until the store fits
      the budget. Invalidation needs no command at all: bumping the
      engine contract version turns every old record into a miss.

  vardelay report <trace.json|metrics.json>
      Print the phase breakdown table of a --trace or --metrics file:
      wall time per phase (count, total, mean, share of wall), trial
      throughput, trials by kernel and by strategy (with the effective
      sample size for weighted runs), worker utilization, units
      executed vs resumed vs cached, and the result-cache hit rate.

  vardelay help
      This text.
"
    )
}

/// Parses `--key value` style options out of an argument list.
fn take_opt(args: &mut Vec<String>, key: &str) -> Result<Option<String>, CliError> {
    if let Some(i) = args.iter().position(|a| a == key) {
        if i + 1 >= args.len() {
            return Err(CliError(format!("{key} requires a value")));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Parses a bare `--flag` (no value) out of an argument list.
fn take_flag(args: &mut Vec<String>, key: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == key) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse_f64(s: &str, what: &str) -> Result<f64, CliError> {
    s.parse::<f64>()
        .map_err(|_| CliError(format!("invalid {what}: '{s}'")))
}

/// `analyze` subcommand over already-loaded text.
pub fn analyze(name: &str, bench_text: &str, mut opts: Vec<String>) -> Result<String, CliError> {
    let inter = take_opt(&mut opts, "--inter")?
        .map(|v| parse_f64(&v, "--inter"))
        .transpose()?
        .unwrap_or(20.0);
    let rand = take_opt(&mut opts, "--rand")?
        .map(|v| parse_f64(&v, "--rand"))
        .transpose()?
        .unwrap_or(35.0);
    let sys = take_opt(&mut opts, "--sys")?
        .map(|v| parse_f64(&v, "--sys"))
        .transpose()?
        .unwrap_or(0.0);
    if !opts.is_empty() {
        return Err(CliError(format!("unrecognized arguments: {opts:?}")));
    }

    let netlist: Netlist =
        parse_bench(name, bench_text).map_err(|e| CliError(format!("parse error: {e}")))?;
    let engine = SstaEngine::new(
        CellLibrary::default(),
        VariationConfig::combined(inter, rand, sys),
        None,
    );
    let stat = engine.stage_delay(&netlist, 0);
    let nominal = vardelay_ssta::nominal_delay(&netlist, engine.library(), engine.output_load());
    let paths = vardelay_ssta::top_k_paths(&engine, &netlist, 0, 5);

    let mut out = String::new();
    let _ = writeln!(out, "{netlist}");
    let _ = writeln!(
        out,
        "variation: sigmaVth inter {inter} mV, random {rand} mV, systematic {sys} mV"
    );
    let _ = writeln!(out, "nominal delay: {nominal:.2} ps");
    let _ = writeln!(
        out,
        "statistical delay: mu {:.2} ps, sigma {:.3} ps (sigma/mu {:.3}%)",
        stat.mean(),
        stat.sd(),
        100.0 * stat.variability()
    );
    let _ = writeln!(out, "top paths (nominal ps | statistical mu/sigma):");
    for (i, p) in paths.iter().enumerate() {
        let _ = writeln!(
            out,
            "  #{}: {:.2} | {:.2} / {:.3}  ({} gates)",
            i + 1,
            p.nominal_ps,
            p.statistical.mean(),
            p.statistical.sd(),
            p.gates.len()
        );
    }
    Ok(out)
}

/// `yield` subcommand.
pub fn yield_cmd(mut opts: Vec<String>) -> Result<String, CliError> {
    let stages_arg = take_opt(&mut opts, "--stages")?
        .ok_or_else(|| CliError("--stages MU:SD,... is required".to_owned()))?;
    let target = parse_f64(
        &take_opt(&mut opts, "--target")?
            .ok_or_else(|| CliError("--target PS is required".to_owned()))?,
        "--target",
    )?;
    let rho = take_opt(&mut opts, "--rho")?
        .map(|v| parse_f64(&v, "--rho"))
        .transpose()?
        .unwrap_or(0.0);
    if !opts.is_empty() {
        return Err(CliError(format!("unrecognized arguments: {opts:?}")));
    }

    let stages: Vec<StageDelay> = stages_arg
        .split(',')
        .map(|pair| {
            let (m, s) = pair
                .split_once(':')
                .ok_or_else(|| CliError(format!("stage '{pair}' is not MU:SD")))?;
            StageDelay::from_moments(parse_f64(m, "stage mean")?, parse_f64(s, "stage sd")?)
                .map_err(|e| CliError(format!("invalid stage '{pair}': {e}")))
        })
        .collect::<Result<_, _>>()?;
    let n = stages.len();
    let corr =
        CorrelationMatrix::uniform(n, rho).map_err(|e| CliError(format!("invalid --rho: {e}")))?;
    let pipe =
        Pipeline::new(stages, corr).map_err(|e| CliError(format!("invalid pipeline: {e}")))?;
    let d = pipe.delay_distribution();

    let mut out = String::new();
    let _ = writeln!(out, "{n} stages, pairwise correlation {rho}");
    let _ = writeln!(
        out,
        "pipeline delay: mu {:.3} ps, sigma {:.3} ps (Jensen bound {:.3} ps)",
        d.mean(),
        d.sd(),
        pipe.jensen_lower_bound()
    );
    let _ = writeln!(
        out,
        "yield at {target} ps: {:.3}% (eq. 9 Gaussian)",
        100.0 * pipe.yield_at(target)
    );
    if rho == 0.0 {
        let _ = writeln!(
            out,
            "                    {:.3}% (eq. 8 exact, independent stages)",
            100.0 * pipe.yield_independent_exact(target)
        );
    }
    Ok(out)
}

/// `generate` subcommand.
pub fn generate(which: &str) -> Result<String, CliError> {
    let netlist = match which {
        "c432" => iscas::c432(),
        "c1908" => iscas::c1908(),
        "c2670" => iscas::c2670(),
        "c3540" => iscas::c3540(),
        other => {
            if let Some(n) = other.strip_prefix("chain:") {
                let len: usize = n
                    .parse()
                    .map_err(|_| CliError(format!("invalid chain length '{n}'")))?;
                if len == 0 {
                    return Err(CliError("chain length must be positive".to_owned()));
                }
                inverter_chain(len, 1.0)
            } else {
                return Err(CliError(format!(
                    "unknown benchmark '{other}' (use c432|c1908|c2670|c3540|chain:N)"
                )));
            }
        }
    };
    Ok(write_bench(&netlist))
}

/// Workload execution flags shared by every workload subcommand
/// (`sweep`, `optimize`): the unified engine pipeline behind both means
/// one parser — and one feature set — serves all of them.
struct WorkloadArgs {
    workers: Option<usize>,
    out: Option<String>,
    shard: Option<Shard>,
    checkpoint: Option<String>,
    resume: Option<String>,
    cache: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    progress: bool,
}

fn take_workload_args(mut opts: Vec<String>) -> Result<WorkloadArgs, CliError> {
    let workers = take_opt(&mut opts, "--workers")?
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| CliError(format!("invalid --workers: '{v}'")))
        })
        .transpose()?;
    let out = take_opt(&mut opts, "--out")?;
    // The stream is re-read to assemble the aggregate, which then
    // replaces it: a device or FIFO cannot hold either, so refuse it
    // before any unit runs rather than after all of them.
    if let Some(path) = &out {
        if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
            return Err(CliError(format!(
                "--out '{path}' is not a regular file (the results stream is re-read and replaced)"
            )));
        }
    }
    let shard = take_opt(&mut opts, "--shard")?
        .map(|v| Shard::parse(&v).map_err(|e| CliError(format!("invalid --shard: {e}"))))
        .transpose()?;
    let checkpoint = take_opt(&mut opts, "--checkpoint")?;
    let resume = take_opt(&mut opts, "--resume")?;
    let cache = take_opt(&mut opts, "--cache")?;
    let trace = take_opt(&mut opts, "--trace")?;
    let metrics = take_opt(&mut opts, "--metrics")?;
    let progress = take_flag(&mut opts, "--progress");
    if !opts.is_empty() {
        return Err(CliError(format!("unrecognized arguments: {opts:?}")));
    }
    Ok(WorkloadArgs {
        workers,
        out,
        shard,
        checkpoint,
        resume,
        cache,
        trace,
        metrics,
        progress,
    })
}

/// Live single-line progress on stderr (`--progress`).
///
/// Strictly observational: it reads the engine's [`ProgressUpdate`]s and
/// writes only to stderr, so it can never perturb results, `--out`
/// streams or checkpoint journals (which go to files / stdout). Updates
/// are throttled to one repaint per 100 ms; the line is erased before
/// the run summary prints so the two never interleave.
struct StderrProgress {
    started: std::time::Instant,
    last_print: std::cell::Cell<Option<std::time::Instant>>,
    last_len: std::cell::Cell<usize>,
}

impl StderrProgress {
    fn new() -> Self {
        StderrProgress {
            started: std::time::Instant::now(),
            last_print: std::cell::Cell::new(None),
            last_len: std::cell::Cell::new(0),
        }
    }

    /// Erases the progress line so subsequent stderr output starts clean.
    fn clear(&self) {
        use std::io::Write as _;
        if self.last_len.get() > 0 {
            eprint!("\r{}\r", " ".repeat(self.last_len.get()));
            let _ = std::io::stderr().flush();
            self.last_len.set(0);
        }
    }
}

/// `12345678` -> `12.3M`, for the progress line's trial counts.
fn human(n: u64) -> String {
    let f = n as f64;
    if f >= 10e6 {
        format!("{:.1}M", f / 1e6)
    } else if f >= 10e3 {
        format!("{:.1}k", f / 1e3)
    } else {
        format!("{n}")
    }
}

impl vardelay_engine::Progress for StderrProgress {
    fn update(&self, p: &vardelay_engine::ProgressUpdate) {
        use std::io::Write as _;
        let now = std::time::Instant::now();
        let done = p.steps_done >= p.steps_total;
        // Throttle repaints, but always paint the final state.
        if !done {
            if let Some(last) = self.last_print.get() {
                if now.duration_since(last).as_millis() < 100 {
                    return;
                }
            }
        }
        self.last_print.set(Some(now));
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            p.trials_done as f64 / elapsed
        } else {
            0.0
        };
        let frac = if p.trials_total > 0 {
            p.trials_done as f64 / p.trials_total as f64
        } else if p.steps_total > 0 {
            p.steps_done as f64 / p.steps_total as f64
        } else {
            1.0
        };
        let eta = if frac > 0.0 && frac < 1.0 {
            format!(", eta {:.0}s", elapsed * (1.0 - frac) / frac)
        } else {
            String::new()
        };
        let line = format!(
            "  {}/{} units, {}/{} trials ({:.0}%), {} trials/s{eta}",
            p.units_done,
            p.units_total,
            human(p.trials_done),
            human(p.trials_total),
            100.0 * frac,
            human(rate.round().max(0.0) as u64),
        );
        // Pad over the previous (possibly longer) line before `\r`.
        let pad = self.last_len.get().saturating_sub(line.len());
        eprint!("\r{line}{}", " ".repeat(pad));
        let _ = std::io::stderr().flush();
        self.last_len.set(line.len());
    }
}

/// Writes `contents` to `path` atomically (temp file + rename), so an
/// aggregate result file is never observable half-written.
fn write_atomic(path: &str, contents: &str) -> Result<(), CliError> {
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, contents).map_err(|e| CliError(format!("cannot write '{tmp}': {e}")))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| CliError(format!("cannot move '{tmp}' to '{path}': {e}")))?;
    Ok(())
}

/// The one driver behind `vardelay sweep <spec>` and `vardelay optimize
/// <spec>`: parses the spec with `parse` (inside the recording, so
/// `--metrics` shows a `spec/parse` phase) and runs the [`Workload`]
/// through the unified engine pipeline.
///
/// * `--workers N` — pool size; never changes any result byte.
/// * `--shard i/n` — run only the units with `id % n == i-1`; the union
///   of all shards' outputs is bitwise identical to an unsharded run.
/// * `--checkpoint f` — journal every completed unit to `f` (JSONL) the
///   moment it finishes.
/// * `--resume f` — skip units recorded in `f`, splicing their stored
///   results byte-exactly; new completions are appended to `f` so
///   repeated kill/resume cycles keep extending one journal.
/// * `--out f` — stream completed units to `f` incrementally (JSONL),
///   then atomically replace it with the aggregate report. Nothing is
///   buffered in memory during the run; a killed run leaves a valid
///   resume journal at `f`.
fn run_workload_cmd<W>(
    kind: &str,
    spec_text: &str,
    parse: fn(&str) -> Result<W, serde_json::Error>,
    args: WorkloadArgs,
) -> Result<String, CliError>
where
    W: Workload,
    W::Report: WorkloadReport,
{
    let io_err = |path: &str, e: &dyn std::fmt::Display| CliError(format!("'{path}': {e}"));
    // Recording is on only when asked for; otherwise every span/counter
    // call in the engine is a single relaxed atomic load. Either way the
    // instrumentation is out-of-band: result bytes are identical.
    let session =
        (args.trace.is_some() || args.metrics.is_some()).then(vardelay_obs::Session::start);
    let w = &{
        let _sp = vardelay_obs::span("spec", "parse").value(spec_text.len() as f64);
        parse(spec_text).map_err(|e| CliError(format!("invalid {kind} spec: {e}")))?
    };
    let resume_ckpt: Option<Checkpoint<W::UnitResult>> = match &args.resume {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
            let ckpt = Checkpoint::parse(&text)
                .map_err(|e| CliError(format!("invalid checkpoint '{path}': {e}")))?;
            if ckpt.torn_tail() {
                eprintln!(
                    "note: '{path}' ends in a torn line (killed mid-write?); that unit re-runs"
                );
            }
            // Repair before appending (we append to the resume file
            // when no separate --checkpoint is given): a new line
            // written after a torn fragment — or after a final line
            // whose trailing newline the kill cut off — would fuse two
            // lines into mid-file corruption, which a later resume
            // rightly rejects. Normalize the journal to exactly its
            // complete, newline-terminated lines.
            if args.checkpoint.is_none() {
                if let Some(repaired) =
                    vardelay_engine::journal::normalize_jsonl(&text, ckpt.torn_tail())
                {
                    std::fs::write(path, repaired).map_err(|e| io_err(path, &e))?;
                }
            }
            Some(ckpt)
        }
        None => None,
    };

    // The persistent result cache (read-write: hits splice, executed
    // units are recorded back). Declared before `options`, which
    // borrows it for the run.
    let cache: Option<UnitCache> = args
        .cache
        .as_deref()
        .map(|dir| {
            ResultStore::open(std::path::Path::new(dir))
                .map(UnitCache::new)
                .map_err(|e| CliError(format!("cannot open cache: {e}")))
        })
        .transpose()?;

    let progress = args.progress.then(StderrProgress::new);
    let mut options: WorkloadOptions<'_, W::UnitResult> = WorkloadOptions::sequential()
        .with_workers(
            args.workers
                .unwrap_or(vardelay_engine::SweepOptions::default().workers),
        );
    if let Some(shard) = args.shard {
        options = options.with_shard(shard);
    }
    if let Some(ckpt) = &resume_ckpt {
        options = options.with_resume(ckpt);
    }
    if let Some(c) = &cache {
        options = options.with_cache(c);
    }
    if let Some(p) = &progress {
        options = options.with_progress(p);
    }

    // Sinks. The journal (`--checkpoint`, or the `--resume` file itself)
    // persists after the run; the `--out` stream is replaced by the
    // aggregate at the end. When resuming into the same journal, only
    // newly executed units are appended (their lines are already there).
    let open = |path: &str, append: bool| -> Result<std::io::BufWriter<std::fs::File>, CliError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        Ok(std::io::BufWriter::new(file))
    };
    let journal_path = args.checkpoint.as_ref().or(args.resume.as_ref());
    let journal_appends = args.checkpoint.is_none() && args.resume.is_some();
    let mut journal = journal_path
        .map(|p| open(p, journal_appends).map(|f| (p.clone(), f)))
        .transpose()?;
    let mut out_stream = args
        .out
        .as_ref()
        .map(|p| open(p, false).map(|f| (p.clone(), f)))
        .transpose()?;

    // Results are retained in memory only when there is no `--out`
    // stream to reassemble the aggregate from afterwards.
    let mut kept: Vec<Option<W::UnitResult>> = Vec::new();
    let retain = args.out.is_none();

    let started = std::time::Instant::now();
    let stats = run_units(w, &options, |slot, id, result, origin| {
        // Only journal-spliced units already have their line in the
        // append-mode journal; cache-spliced units are new to it.
        let journal_skips = origin == vardelay_engine::UnitOrigin::Journal && journal_appends;
        let line = (out_stream.is_some() || (journal.is_some() && !journal_skips))
            .then(|| checkpoint_line(id, &result));
        if let Some((path, f)) = &mut journal {
            if !journal_skips {
                let _sp = vardelay_obs::span("io", "journal").key(id);
                writeln!(
                    f,
                    "{}",
                    line.as_deref().expect("line built for the journal")
                )
                .and_then(|()| f.flush())
                .map_err(|e| EngineError::new(format!("'{path}': {e}")))?;
            }
        }
        if let Some((path, f)) = &mut out_stream {
            let _sp = vardelay_obs::span("io", "stream").key(id);
            writeln!(f, "{}", line.as_deref().expect("line built for the stream"))
                .and_then(|()| f.flush())
                .map_err(|e| EngineError::new(format!("'{path}': {e}")))?;
        }
        if retain {
            if kept.len() <= slot {
                kept.resize_with(slot + 1, || None);
            }
            kept[slot] = Some(result);
        }
        Ok(())
    })
    .map_err(|e| CliError(format!("{kind} failed: {e}")))?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(journal);
    drop(out_stream);
    if let Some(p) = &progress {
        p.clear();
    }

    let noun = w.unit_noun();
    let shard_note = args
        .shard
        .map_or(String::new(), |s| format!(", shard {}", s.label()));
    let resumed_note = if stats.resumed > 0 {
        format!(", {} resumed", stats.resumed)
    } else {
        String::new()
    };
    let cached_note = if stats.cached > 0 {
        format!(", {} cached", stats.cached)
    } else {
        String::new()
    };
    eprintln!(
        "{kind} '{}': {} {noun}s{shard_note}{resumed_note}{cached_note}, {} workers, {:.3} s",
        w.name(),
        stats.units,
        options.workers,
        started.elapsed().as_secs_f64()
    );
    let torn_tail = resume_ckpt.as_ref().is_some_and(Checkpoint::torn_tail);
    if args.resume.is_some() {
        let torn = if torn_tail {
            " (torn tail normalized)"
        } else {
            ""
        };
        eprintln!(
            "resume: {} {noun}s spliced from journal, {} executed{torn}",
            stats.resumed, stats.executed
        );
    }
    if args.cache.is_some() {
        let lookups = stats.cached + stats.executed;
        let rate = if lookups > 0 {
            100.0 * stats.cached as f64 / lookups as f64
        } else {
            0.0
        };
        eprintln!(
            "cache: {} of {lookups} {noun}s served from cache ({rate:.0}% hit rate), {} executed and recorded",
            stats.cached, stats.executed
        );
    }
    // Stop recording before the aggregate reassembly below: the
    // recording covers exactly the run.
    let recording = session.map(vardelay_obs::Session::finish);

    // Assemble the aggregate: from memory, or — when it was streamed —
    // by reading the JSONL back, so the run itself buffered nothing.
    let report: W::Report = if let Some(path) = &args.out {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
        let ckpt: Checkpoint<W::UnitResult> = Checkpoint::parse(&text)
            .map_err(|e| CliError(format!("re-reading stream '{path}': {e}")))?;
        let results = stats
            .keys
            .iter()
            .map(|&id| {
                ckpt.get(id)
                    .cloned()
                    .ok_or_else(|| CliError(format!("stream '{path}' lost unit {id:016x}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        w.assemble(results)
    } else {
        w.assemble(
            kept.into_iter()
                .map(|r| r.expect("every unit sinks exactly once"))
                .collect(),
        )
    };

    let mut text = format!(
        "{kind} '{}' — {} {noun}s (seed {})\n\n{}",
        w.name(),
        report.unit_count(),
        w.seed(),
        report.summary_table()
    );
    if let Some(path) = &args.out {
        write_atomic(path, &report.to_json())?;
        let _ = writeln!(text, "\nresults written to {path}");
    }
    if let Some(rec) = &recording {
        if let Some(path) = &args.trace {
            let trace = vardelay_obs::chrome_trace(rec, &format!("vardelay {kind} '{}'", w.name()));
            write_atomic(path, &trace)?;
            let _ = writeln!(text, "\ntrace written to {path}");
        }
        if let Some(path) = &args.metrics {
            let info = vardelay_obs::RunInfo {
                kind,
                name: w.name(),
                workers: options.workers,
                wall_ms,
                units_total: stats.units,
                units_executed: stats.executed,
                units_resumed: stats.resumed,
                units_cached: stats.cached,
                torn_tail_normalized: torn_tail,
                steps: stats.steps,
            };
            let metrics = vardelay_obs::metrics_json(&info, &vardelay_obs::aggregate(rec));
            write_atomic(path, &metrics)?;
            let _ = writeln!(text, "\nmetrics written to {path}");
        }
    }
    Ok(text)
}

/// The one driver behind `sweep validate` and `optimize validate`: full
/// validation and footprint accounting for any [`Workload`], zero
/// trials or sizing passes run. With a cache directory, additionally
/// reports how much of the workload is already cached and the adjusted
/// cost estimate for what remains.
fn validate_workload_cmd<W>(kind: &str, w: &W, cache_dir: Option<&str>) -> Result<String, CliError>
where
    W: Workload,
    W::Plan: WorkloadPlan,
{
    // One planning pass builds each unit once, for both its footprint
    // row and the `--cache` tally's (key, est. trials).
    let mut footprint: Vec<(u64, u64)> = Vec::new();
    let plan = plan_workload(w, |key, u| {
        footprint.push((key, (0..w.unit_steps(u)).map(|s| w.step_trials(u, s)).sum()));
    })
    .map_err(|e| CliError(format!("invalid {kind} spec: {e}")))?;
    let mut out = plan.render();
    if let Some(dir) = cache_dir {
        // A missing cache dir is simply cold, not an error: validate
        // must never create state.
        let path = std::path::Path::new(dir);
        let store = path
            .is_dir()
            .then(|| ResultStore::open_read_only(path))
            .transpose()
            .map_err(|e| CliError(format!("cannot open cache: {e}")))?;
        let mut cached = 0usize;
        let (mut trials_all, mut trials_todo) = (0u64, 0u64);
        for &(key, t) in &footprint {
            trials_all += t;
            if store
                .as_ref()
                .is_some_and(|s| s.contains(key, CONTRACT_VERSION))
            {
                cached += 1;
            } else {
                trials_todo += t;
            }
        }
        let _ = writeln!(
            out,
            "\ncache '{dir}': {cached} of {} {}s cached, {} to execute",
            footprint.len(),
            w.unit_noun(),
            footprint.len() - cached
        );
        if trials_all > 0 {
            let _ = writeln!(
                out,
                "adjusted cost: {trials_todo} of {trials_all} est. trials ({:.0}% of cold)",
                100.0 * trials_todo as f64 / trials_all as f64
            );
        }
    }
    Ok(format!("{out}\nspec OK\n"))
}

/// `sweep` subcommand over already-loaded spec text.
///
/// Returns the summary table; when `--out` is given the full JSON
/// results are written there (the JSON artifact is bit-identical for
/// any worker count — timing goes to stderr only). See
/// [`run_workload_cmd`] for the shared `--shard` / `--checkpoint` /
/// `--resume` flags.
pub fn sweep_cmd(spec_text: &str, opts: Vec<String>) -> Result<String, CliError> {
    let args = take_workload_args(opts)?;
    run_workload_cmd("sweep", spec_text, vardelay_engine::Sweep::from_json, args)
}

/// `sweep validate` subcommand over already-loaded spec text: full
/// validation and cost accounting, zero trials run. `--cache DIR` adds
/// the cached-vs-to-execute breakdown.
pub fn sweep_validate_cmd(spec_text: &str, mut opts: Vec<String>) -> Result<String, CliError> {
    let cache = take_opt(&mut opts, "--cache")?;
    no_more_args("sweep validate", &opts)?;
    let sweep = vardelay_engine::Sweep::from_json(spec_text)
        .map_err(|e| CliError(format!("invalid sweep spec: {e}")))?;
    validate_workload_cmd("sweep", &sweep, cache.as_deref())
}

/// `sweep example` subcommand: the spec template for a backend,
/// optionally stamped with a trial-kernel version (`--kernel v3`), or a
/// trial-plan template (`--strategy`, one of [`StrategySpec::keyword_list`]).
pub fn sweep_example_cmd(mut opts: Vec<String>) -> Result<String, CliError> {
    let backend = take_opt(&mut opts, "--backend")?;
    let kernel = take_opt(&mut opts, "--kernel")?;
    let strategy = take_opt(&mut opts, "--strategy")?;
    if !opts.is_empty() {
        return Err(CliError(format!("unrecognized arguments: {opts:?}")));
    }
    if strategy.is_some() && backend.is_some() {
        return Err(CliError(
            "--strategy emits its own template; it cannot be combined with --backend".to_owned(),
        ));
    }
    let mut sweep = match (strategy.as_deref(), backend.as_deref()) {
        (Some(s), _) => {
            let s = StrategySpec::parse(s).map_err(CliError)?;
            vardelay_engine::Sweep::example_trial_plan(s)
        }
        (None, None | Some("pipeline")) => vardelay_engine::Sweep::example(),
        (None, Some("netlist")) => vardelay_engine::Sweep::example_netlist(),
        (None, Some(other)) => {
            return Err(CliError(format!(
                "no example for backend '{other}' (use pipeline|netlist)"
            )))
        }
    };
    if let Some(k) = kernel.as_deref() {
        let k = vardelay_engine::KernelSpec::parse(k).map_err(CliError)?;
        for s in &mut sweep.scenarios {
            s.kernel = k;
        }
        if let Some(grid) = sweep.grid.as_mut() {
            grid.kernel = k;
        }
    }
    Ok(sweep.to_json() + "\n")
}

/// `optimize` subcommand over already-loaded campaign spec text.
///
/// Returns the summary table; when `--out` is given the full JSON
/// results are written there (bit-identical for any worker count —
/// timing goes to stderr only). See [`run_workload_cmd`] for the shared
/// `--shard` / `--checkpoint` / `--resume` flags.
pub fn optimize_cmd(spec_text: &str, opts: Vec<String>) -> Result<String, CliError> {
    let args = take_workload_args(opts)?;
    run_workload_cmd(
        "campaign",
        spec_text,
        vardelay_engine::OptimizationCampaign::from_json,
        args,
    )
}

/// `optimize validate` subcommand: full validation and footprint
/// accounting, zero sizing passes and zero trials run. `--cache DIR`
/// adds the cached-vs-to-execute breakdown.
pub fn optimize_validate_cmd(spec_text: &str, mut opts: Vec<String>) -> Result<String, CliError> {
    let cache = take_opt(&mut opts, "--cache")?;
    no_more_args("optimize validate", &opts)?;
    let campaign = vardelay_engine::OptimizationCampaign::from_json(spec_text)
        .map_err(|e| CliError(format!("invalid campaign spec: {e}")))?;
    validate_workload_cmd("campaign", &campaign, cache.as_deref())
}

/// `optimize example` subcommand: the campaign spec template.
/// `--high-sigma` swaps in the statistical-blockade 99.9%-yield
/// template instead.
pub fn optimize_example_cmd(mut opts: Vec<String>) -> Result<String, CliError> {
    let high_sigma = take_flag(&mut opts, "--high-sigma");
    no_more_args("optimize example", &opts)?;
    let campaign = if high_sigma {
        vardelay_engine::OptimizationCampaign::example_high_sigma()
    } else {
        vardelay_engine::OptimizationCampaign::example()
    };
    Ok(campaign.to_json() + "\n")
}

/// `cache` subcommand: maintenance for a persistent result-cache
/// directory. `stats` summarizes, `verify` checksums every record
/// (nonzero exit on corruption), `compact` merges segments, drops
/// superseded/stale-contract records, and applies an optional
/// `--max-bytes` LRU budget.
pub fn cache_cmd(args: &[String]) -> Result<String, CliError> {
    let usage =
        || CliError("usage: vardelay cache <stats|verify|compact> DIR [--max-bytes N]".to_owned());
    let action = args.first().ok_or_else(usage)?.as_str();
    let mut opts: Vec<String> = args[1..].to_vec();
    let max_bytes = take_opt(&mut opts, "--max-bytes")?;
    if opts.len() != 1 {
        return Err(usage());
    }
    let dir = std::path::PathBuf::from(&opts[0]);
    if max_bytes.is_some() && action != "compact" {
        return Err(CliError(format!(
            "--max-bytes only applies to `cache compact`, not `cache {action}`"
        )));
    }
    match action {
        "stats" => {
            let store = ResultStore::open_read_only(&dir)
                .map_err(|e| CliError(format!("cannot open cache: {e}")))?;
            let s = store.stats();
            let mut out = format!(
                "cache '{}': {} segment(s), {} record(s), {} live unit(s), {} bytes\n",
                dir.display(),
                s.segments,
                s.records,
                s.live_units,
                s.bytes
            );
            for (contract, n) in &s.contracts {
                let current = if *contract == CONTRACT_VERSION {
                    " (current)"
                } else {
                    ""
                };
                let _ = writeln!(out, "  contract v{contract}: {n} record(s){current}");
            }
            if s.torn_segments > 0 {
                let _ = writeln!(
                    out,
                    "  {} torn segment(s) — final record lost to an interrupted write; run `vardelay cache compact` to trim",
                    s.torn_segments
                );
            }
            Ok(out)
        }
        "verify" => {
            let report =
                verify_dir(&dir).map_err(|e| CliError(format!("cannot verify cache: {e}")))?;
            if !report.corrupt.is_empty() {
                let mut msg = format!(
                    "cache '{}': {} corrupt record(s) out of {}:\n",
                    dir.display(),
                    report.corrupt.len(),
                    report.corrupt.len() + report.valid_records
                );
                for line in &report.corrupt {
                    let _ = writeln!(msg, "  {line}");
                }
                msg.push_str("run `vardelay cache compact` after investigating, or delete the damaged segment(s)");
                return Err(CliError(msg));
            }
            let torn = if report.torn_segments > 0 {
                format!(", {} torn tail(s) tolerated", report.torn_segments)
            } else {
                String::new()
            };
            Ok(format!(
                "cache '{}': {} segment(s), {} record(s) verified{torn}\ncache OK\n",
                dir.display(),
                report.segments,
                report.valid_records
            ))
        }
        "compact" => {
            let budget = max_bytes
                .map(|s| {
                    s.parse::<u64>().map_err(|_| {
                        CliError(format!("--max-bytes expects a byte count, got '{s}'"))
                    })
                })
                .transpose()?;
            let report = compact_dir(&dir, CONTRACT_VERSION, budget)
                .map_err(|e| CliError(format!("cannot compact cache: {e}")))?;
            let mut out = format!(
                "cache '{}': {} -> {} segment(s), {} -> {} bytes\n",
                dir.display(),
                report.segments_before,
                report.segments_after,
                report.bytes_before,
                report.bytes_after
            );
            let _ = writeln!(
                out,
                "kept {} record(s), dropped {} superseded/stale record(s)",
                report.kept_records, report.dropped_records
            );
            if report.evicted_segments > 0 {
                let _ = writeln!(
                    out,
                    "evicted {} least-recently-used segment(s) to meet the byte budget",
                    report.evicted_segments
                );
            }
            Ok(out)
        }
        other => Err(CliError(format!(
            "unknown cache action '{other}' (expected stats, verify or compact)"
        ))),
    }
}

/// Rejects stray arguments after a subcommand that takes none.
fn no_more_args(what: &str, rest: &[String]) -> Result<(), CliError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CliError(format!("unrecognized {what} arguments: {rest:?}")))
    }
}

/// Routes a full argument vector (without argv(0)); returns output text.
pub fn run(args: Vec<String>) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(help()),
        Some("analyze") => {
            let file = args
                .get(1)
                .ok_or_else(|| CliError("analyze requires a .bench file".to_owned()))?;
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError(format!("cannot read '{file}': {e}")))?;
            analyze(file, &text, args[2..].to_vec())
        }
        Some("yield") => yield_cmd(args[1..].to_vec()),
        Some("sweep") => match args.get(1).map(String::as_str) {
            None => Err(CliError(
                "sweep requires a spec file (or `example`/`validate`)".to_owned(),
            )),
            Some("example") => sweep_example_cmd(args[2..].to_vec()),
            Some("validate") => {
                let file = args
                    .get(2)
                    .ok_or_else(|| CliError("sweep validate requires a spec file".to_owned()))?;
                let text = std::fs::read_to_string(file)
                    .map_err(|e| CliError(format!("cannot read '{file}': {e}")))?;
                sweep_validate_cmd(&text, args[3..].to_vec())
            }
            Some(file) => {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| CliError(format!("cannot read '{file}': {e}")))?;
                sweep_cmd(&text, args[2..].to_vec())
            }
        },
        Some("optimize") => match args.get(1).map(String::as_str) {
            None => Err(CliError(
                "optimize requires a spec file (or `example`/`validate`)".to_owned(),
            )),
            Some("example") => optimize_example_cmd(args[2..].to_vec()),
            Some("validate") => {
                let file = args
                    .get(2)
                    .ok_or_else(|| CliError("optimize validate requires a spec file".to_owned()))?;
                let text = std::fs::read_to_string(file)
                    .map_err(|e| CliError(format!("cannot read '{file}': {e}")))?;
                optimize_validate_cmd(&text, args[3..].to_vec())
            }
            Some(file) => {
                let text = std::fs::read_to_string(file)
                    .map_err(|e| CliError(format!("cannot read '{file}': {e}")))?;
                optimize_cmd(&text, args[2..].to_vec())
            }
        },
        Some("cache") => cache_cmd(&args[1..]),
        Some("report") => {
            let file = args.get(1).ok_or_else(|| {
                CliError("report requires a --trace or --metrics file".to_owned())
            })?;
            no_more_args("report", &args[2..])?;
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError(format!("cannot read '{file}': {e}")))?;
            crate::report::report_cmd(file, &text)
        }
        Some("generate") => {
            let which = args
                .get(1)
                .ok_or_else(|| CliError("generate requires a benchmark name".to_owned()))?;
            no_more_args("generate", &args[2..])?;
            generate(which)
        }
        Some(other) => Err(CliError(format!("unknown subcommand '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_lists_subcommands() {
        let h = help();
        for cmd in ["analyze", "yield", "generate", "sweep", "optimize"] {
            assert!(h.contains(cmd));
        }
        assert!(h.contains("[--strategy plain|antithetic|stratified|sobol|blockade]"));
    }

    #[test]
    fn optimize_example_is_a_valid_campaign() {
        let json = run(vec!["optimize".into(), "example".into()]).unwrap();
        let campaign = vardelay_engine::OptimizationCampaign::from_json(&json).unwrap();
        assert!(campaign.expand().len() >= 4);
        assert!(vardelay_engine::plan_campaign(&campaign).is_ok());
    }

    #[test]
    fn optimize_validate_reports_without_running() {
        let spec = vardelay_engine::OptimizationCampaign::example().to_json();
        let out = optimize_validate_cmd(&spec, vec![]).unwrap();
        assert!(out.contains("spec OK"), "{out}");
        assert!(out.contains("ensure-yield"), "{out}");
        assert!(out.contains("analytic"), "{out}");
        assert!(out.contains("netlist"), "{out}");
        // Invalid specs are rejected with the engine's context.
        let mut bad = vardelay_engine::OptimizationCampaign::example();
        bad.runs[0].rounds = 0;
        let err = optimize_validate_cmd(&bad.to_json(), vec![]).unwrap_err();
        assert!(err.to_string().contains("rounds"), "{err}");
        assert!(optimize_validate_cmd("not json", vec![]).is_err());
        assert!(run(vec!["optimize".into(), "validate".into()]).is_err());
        assert!(run(vec!["optimize".into()]).is_err());
    }

    #[test]
    fn optimize_cmd_runs_a_small_campaign() {
        let mut campaign = vardelay_engine::OptimizationCampaign::example();
        campaign.grid = None;
        campaign.runs.truncate(1);
        campaign.runs[0].rounds = 1;
        campaign.runs[0].verify_trials = 256;
        if let vardelay_opt::TargetDelayPolicy::FrontierQuantile { refine, .. } =
            &mut campaign.runs[0].target_delay
        {
            *refine = 1;
        }
        let out = optimize_cmd(&campaign.to_json(), vec!["--workers".into(), "2".into()]).unwrap();
        assert!(out.contains("1 runs"), "{out}");
        assert!(out.contains("chains"), "{out}");
    }

    #[test]
    fn unknown_flags_are_rejected_everywhere() {
        // A typo'd option must fail loudly, never be silently dropped.
        let sweep_spec = vardelay_engine::Sweep::example().to_json();
        assert!(sweep_cmd(&sweep_spec, vec!["--frob".into(), "1".into()]).is_err());
        assert!(run(vec![
            "sweep".into(),
            "example".into(),
            "--frob".into(),
            "x".into()
        ])
        .is_err());
        let campaign_spec = vardelay_engine::OptimizationCampaign::example().to_json();
        assert!(optimize_cmd(&campaign_spec, vec!["--frob".into(), "1".into()]).is_err());
        assert!(optimize_cmd(&campaign_spec, vec!["--workers".into(), "x".into()]).is_err());
        assert!(run(vec!["optimize".into(), "example".into(), "--frob".into()]).is_err());
        // Trailing junk after fixed-shape subcommands errors too.
        assert!(run(vec!["generate".into(), "c432".into(), "--frob".into()]).is_err());
        // Malformed workload flags fail loudly as well.
        assert!(sweep_cmd(&sweep_spec, vec!["--shard".into(), "0/2".into()]).is_err());
        assert!(sweep_cmd(&sweep_spec, vec!["--shard".into(), "nope".into()]).is_err());
        assert!(sweep_cmd(&sweep_spec, vec!["--resume".into(), "/no/such/file".into()]).is_err());
    }

    #[test]
    fn non_regular_out_is_rejected_before_any_unit_runs() {
        let spec = vardelay_engine::OptimizationCampaign::example().to_json();
        let fifo = tmp("out.fifo");
        let _ = std::fs::remove_file(&fifo);
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        assert!(made.is_ok_and(|s| s.success()), "mkfifo {fifo}");
        for out in ["/dev/null", fifo.as_str()] {
            let ckpt = tmp("never.jsonl");
            let _ = std::fs::remove_file(&ckpt);
            let opts = vec![
                "--out".into(),
                out.into(),
                "--checkpoint".into(),
                ckpt.clone(),
            ];
            let err = optimize_cmd(&spec, opts.clone()).unwrap_err().to_string();
            assert!(err.contains(&format!("'{out}'")), "{err}");
            assert!(err.contains("not a regular file"), "{err}");
            let err = sweep_cmd(&vardelay_engine::Sweep::example().to_json(), opts)
                .unwrap_err()
                .to_string();
            assert!(err.contains("not a regular file"), "{err}");
            // Rejected at argument parsing: no journal was even opened.
            assert!(!std::path::Path::new(&ckpt).exists(), "{out}");
        }
        assert!(std::fs::metadata(&fifo).is_ok_and(|m| !m.is_file()));
        std::fs::remove_file(&fifo).unwrap();
    }

    /// A scratch path under the test temp dir, unique per name.
    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("vardelay-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn shard_checkpoint_resume_flags_merge_byte_identically() {
        // The CLI recipe end to end: shard runs journal to checkpoints,
        // a resume run over the concatenated journals emits the merged
        // aggregate — byte-identical to the unsharded run.
        let mut sweep = vardelay_engine::Sweep::example();
        sweep.grid = None;
        for s in &mut sweep.scenarios {
            s.trials = 300;
        }
        let spec = sweep.to_json();

        let full = tmp("full.json");
        sweep_cmd(&spec, vec!["--out".into(), full.clone()]).unwrap();

        let mut merged_lines = String::new();
        for i in 1..=2 {
            let ckpt = tmp(&format!("shard{i}.jsonl"));
            let out = sweep_cmd(
                &spec,
                vec![
                    "--shard".into(),
                    format!("{i}/2"),
                    "--checkpoint".into(),
                    ckpt.clone(),
                ],
            )
            .unwrap();
            assert!(out.contains("scenarios"), "{out}");
            merged_lines.push_str(&std::fs::read_to_string(&ckpt).unwrap());
        }
        let all = tmp("all.jsonl");
        std::fs::write(&all, &merged_lines).unwrap();

        let merged = tmp("merged.json");
        let out = sweep_cmd(
            &spec,
            vec!["--resume".into(), all, "--out".into(), merged.clone()],
        )
        .unwrap();
        assert!(out.contains("2 scenarios"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&merged).unwrap(),
            "shard-merge must be byte-identical"
        );
    }

    #[test]
    fn resume_appends_new_completions_to_the_journal() {
        let mut sweep = vardelay_engine::Sweep::example();
        sweep.grid = None;
        for s in &mut sweep.scenarios {
            s.trials = 300;
        }
        let spec = sweep.to_json();

        let journal = tmp("journal.jsonl");
        sweep_cmd(&spec, vec!["--checkpoint".into(), journal.clone()]).unwrap();
        let lines: Vec<String> = std::fs::read_to_string(&journal)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        assert_eq!(lines.len(), 2, "one journal line per scenario");

        // "Kill": keep the first line only; resume extends the journal
        // back to completeness (no duplicate for the resumed unit).
        std::fs::write(&journal, format!("{}\n", lines[0])).unwrap();
        sweep_cmd(&spec, vec!["--resume".into(), journal.clone()]).unwrap();
        let after = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(
            after.lines().count(),
            2,
            "journal grew by the new unit only"
        );
        assert!(after.starts_with(&lines[0]), "resumed line left in place");

        // A kill mid-append leaves a torn fragment; resuming must drop
        // it (re-running that unit) rather than fuse appended lines
        // onto it — the journal stays parseable for the NEXT resume.
        std::fs::write(
            &journal,
            format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]),
        )
        .unwrap();
        sweep_cmd(&spec, vec!["--resume".into(), journal.clone()]).unwrap();
        let after = std::fs::read_to_string(&journal).unwrap();
        assert_eq!(
            after.lines().count(),
            2,
            "torn fragment dropped, unit re-ran"
        );
        sweep_cmd(&spec, vec!["--resume".into(), journal.clone()]).unwrap();

        // Subtler kill: the last line's bytes all made it but its
        // trailing newline didn't. The line parses (no torn tail), but
        // appending straight after it would fuse two lines — the
        // journal must be normalized before the append.
        std::fs::write(&journal, format!("{}\n{}", lines[0], lines[1])).unwrap();
        sweep_cmd(&spec, vec!["--resume".into(), journal.clone()]).unwrap();
        let after = std::fs::read_to_string(&journal).unwrap();
        assert!(after.ends_with('\n'), "journal normalized");
        assert_eq!(after.lines().count(), 2, "both units resumed, no fusion");
        sweep_cmd(&spec, vec!["--resume".into(), journal.clone()]).unwrap();
    }

    #[test]
    fn observability_flags_are_out_of_band() {
        // The hard invariant: --trace/--metrics/--progress may not
        // change a single result byte.
        let mut sweep = vardelay_engine::Sweep::example();
        sweep.grid = None;
        for s in &mut sweep.scenarios {
            s.trials = 300;
        }
        let spec = sweep.to_json();

        let plain = tmp("plain.json");
        sweep_cmd(&spec, vec!["--out".into(), plain.clone()]).unwrap();

        let traced = tmp("traced.json");
        let trace = tmp("trace.json");
        let metrics = tmp("metrics.json");
        let out = sweep_cmd(
            &spec,
            vec![
                "--out".into(),
                traced.clone(),
                "--trace".into(),
                trace.clone(),
                "--metrics".into(),
                metrics.clone(),
                "--progress".into(),
            ],
        )
        .unwrap();
        assert!(out.contains("trace written to"), "{out}");
        assert!(out.contains("metrics written to"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&plain).unwrap(),
            std::fs::read_to_string(&traced).unwrap(),
            "tracing must not change result bytes"
        );

        // Both artifacts are valid JSON of their respective schemas and
        // the report subcommand renders each. (Concurrent tests in this
        // process may add spans of their own while recording is on —
        // assert presence, not exact counts.)
        let tv: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert!(tv.get("traceEvents").is_some());
        let mv: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(mv.get("phases").is_some());
        assert_eq!(mv.get("kind"), Some(&serde::Value::String("sweep".into())));

        let r = run(vec!["report".into(), metrics]).unwrap();
        assert!(r.contains("mc/block"), "{r}");
        assert!(r.contains("wall time"), "{r}");
        let r = run(vec!["report".into(), trace]).unwrap();
        assert!(r.contains("mc/block"), "{r}");

        // report's own argument errors.
        assert!(run(vec!["report".into()]).is_err());
        assert!(run(vec!["report".into(), "/no/such/file".into()]).is_err());
        assert!(
            run(vec!["report".into(), plain]).is_err(),
            "not a trace/metrics file"
        );
    }

    #[test]
    fn metrics_count_resumed_vs_executed_units() {
        let mut sweep = vardelay_engine::Sweep::example();
        sweep.grid = None;
        for s in &mut sweep.scenarios {
            s.trials = 300;
        }
        let spec = sweep.to_json();

        let journal = tmp("resume-metrics.jsonl");
        sweep_cmd(&spec, vec!["--checkpoint".into(), journal.clone()]).unwrap();
        let first = std::fs::read_to_string(&journal)
            .unwrap()
            .lines()
            .next()
            .unwrap()
            .to_owned();
        std::fs::write(&journal, format!("{first}\n")).unwrap();

        let metrics = tmp("resume-metrics.json");
        sweep_cmd(
            &spec,
            vec![
                "--resume".into(),
                journal,
                "--metrics".into(),
                metrics.clone(),
            ],
        )
        .unwrap();
        let mv: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let units = mv.get("units").expect("units section");
        assert_eq!(units.get("resumed"), units.get("executed"), "1 and 1");
        assert_eq!(
            units.get("total"),
            Some(&serde::Value::Number(serde::Number::U64(2)))
        );
    }

    /// A small two-scenario sweep used by the cache tests.
    fn cache_test_sweep() -> vardelay_engine::Sweep {
        let mut sweep = vardelay_engine::Sweep::example();
        sweep.grid = None;
        for s in &mut sweep.scenarios {
            s.trials = 300;
        }
        sweep
    }

    /// A fresh cache directory under the test temp dir.
    fn cache_dir(name: &str) -> String {
        let dir = tmp(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn metrics_units(path: &str) -> (u64, u64, u64) {
        let v: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let n = |v: &serde::Value, key: &str| match v.get(key) {
            Some(&serde::Value::Number(serde::Number::U64(u))) => u,
            other => panic!("units.{key} missing or non-integer: {other:?}"),
        };
        let units = v.get("units").expect("units section");
        (
            n(units, "executed"),
            n(units, "resumed"),
            n(units, "cached"),
        )
    }

    #[test]
    fn cache_cold_then_warm_is_byte_identical_and_executes_nothing() {
        let spec = cache_test_sweep().to_json();
        let dir = cache_dir("cache-warm");

        let cold = tmp("cache-cold.json");
        let out = sweep_cmd(
            &spec,
            vec!["--out".into(), cold.clone(), "--cache".into(), dir.clone()],
        )
        .unwrap();
        assert!(out.contains("2 scenarios"), "{out}");

        // Warm run at a different worker count: zero units execute and
        // the aggregate bytes match the cold run exactly.
        let warm = tmp("cache-warm.json");
        let metrics = tmp("cache-warm-metrics.json");
        let out = sweep_cmd(
            &spec,
            vec![
                "--out".into(),
                warm.clone(),
                "--cache".into(),
                dir.clone(),
                "--workers".into(),
                "8".into(),
                "--metrics".into(),
                metrics.clone(),
            ],
        )
        .unwrap();
        assert!(out.contains("2 scenarios"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&cold).unwrap(),
            std::fs::read_to_string(&warm).unwrap(),
            "warm cache run must reproduce cold bytes"
        );
        assert_eq!(metrics_units(&metrics), (0, 0, 2), "warm run executes 0");
        let mv: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let cache = mv.get("cache").expect("cache section");
        assert_eq!(
            cache.get("hits"),
            Some(&serde::Value::Number(serde::Number::U64(2))),
            "{mv:?}"
        );

        // `validate --cache` sees the same thing without running.
        let v = sweep_validate_cmd(&spec, vec!["--cache".into(), dir.clone()]).unwrap();
        assert!(v.contains("2 of 2 scenarios cached, 0 to execute"), "{v}");
        assert!(v.contains("adjusted cost: 0 of 600"), "{v}");
        // A cold validate against a missing dir reports all-miss.
        let v = sweep_validate_cmd(&spec, vec!["--cache".into(), cache_dir("cache-none")]).unwrap();
        assert!(v.contains("0 of 2 scenarios cached, 2 to execute"), "{v}");
        assert!(v.contains("adjusted cost: 600 of 600"), "{v}");
    }

    #[test]
    fn cache_hits_cross_spec_files_but_not_kernel_twins() {
        let sweep = cache_test_sweep();
        let dir = cache_dir("cache-twins");
        sweep_cmd(&sweep.to_json(), vec!["--cache".into(), dir.clone()]).unwrap();

        // A different spec file sharing one scenario hits on it: unit
        // identity is the scenario itself, not the file it came from.
        let mut other = sweep.clone();
        other.name = "other-sweep".to_owned();
        other.scenarios.truncate(1);
        let metrics = tmp("cache-cross.json");
        sweep_cmd(
            &other.to_json(),
            vec![
                "--cache".into(),
                dir.clone(),
                "--metrics".into(),
                metrics.clone(),
            ],
        )
        .unwrap();
        assert_eq!(metrics_units(&metrics), (0, 0, 1), "cross-file hit");

        // The same scenario under the v3 kernel is a different byte
        // contract — it must MISS, not serve v1 bytes.
        let mut twin = other.clone();
        twin.scenarios[0].kernel = vardelay_engine::KernelSpec::V3;
        let metrics = tmp("cache-twin.json");
        sweep_cmd(
            &twin.to_json(),
            vec![
                "--cache".into(),
                dir.clone(),
                "--metrics".into(),
                metrics.clone(),
            ],
        )
        .unwrap();
        assert_eq!(metrics_units(&metrics), (1, 0, 0), "kernel twin misses");

        // Likewise a trial-plan twin: the same scenario under a
        // variance-reduction strategy produces different bytes by
        // contract, so it must MISS rather than serve plain-MC bytes.
        let mut plan_twin = other.clone();
        plan_twin.scenarios[0].trial_plan.strategy = vardelay_engine::StrategySpec::Stratified;
        let metrics = tmp("cache-plan-twin.json");
        sweep_cmd(
            &plan_twin.to_json(),
            vec!["--cache".into(), dir, "--metrics".into(), metrics.clone()],
        )
        .unwrap();
        assert_eq!(metrics_units(&metrics), (1, 0, 0), "strategy twin misses");
    }

    #[test]
    fn journal_entries_win_over_cache_entries() {
        // --resume + --cache together must not double-splice: a unit
        // present in BOTH the journal and the cache counts once, as
        // resumed — the journal is the per-run source of truth.
        let spec = cache_test_sweep().to_json();
        let dir = cache_dir("cache-journal");

        let journal = tmp("cache-journal.jsonl");
        let full = tmp("cache-journal-full.json");
        sweep_cmd(
            &spec,
            vec![
                "--cache".into(),
                dir.clone(),
                "--checkpoint".into(),
                journal.clone(),
                "--out".into(),
                full.clone(),
            ],
        )
        .unwrap();

        let metrics = tmp("cache-journal-metrics.json");
        let merged = tmp("cache-journal-merged.json");
        sweep_cmd(
            &spec,
            vec![
                "--cache".into(),
                dir.clone(),
                "--resume".into(),
                journal,
                "--out".into(),
                merged.clone(),
                "--metrics".into(),
                metrics.clone(),
            ],
        )
        .unwrap();
        assert_eq!(metrics_units(&metrics), (0, 2, 0), "journal wins");
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&merged).unwrap(),
        );
    }

    #[test]
    fn shard_resume_cache_composition_is_byte_identical() {
        let spec = cache_test_sweep().to_json();
        let full = tmp("cache-shard-full.json");
        sweep_cmd(&spec, vec!["--out".into(), full.clone()]).unwrap();

        // Sharded cold runs populate one shared cache dir.
        let dir = cache_dir("cache-shard");
        let mut merged_lines = String::new();
        for i in 1..=2 {
            let ckpt = tmp(&format!("cache-shard{i}.jsonl"));
            sweep_cmd(
                &spec,
                vec![
                    "--shard".into(),
                    format!("{i}/2"),
                    "--cache".into(),
                    dir.clone(),
                    "--checkpoint".into(),
                    ckpt.clone(),
                ],
            )
            .unwrap();
            merged_lines.push_str(&std::fs::read_to_string(&ckpt).unwrap());
        }
        let all = tmp("cache-shard-all.jsonl");
        std::fs::write(&all, &merged_lines).unwrap();

        // The merge run composes --resume with --cache; and a plain
        // warm run serves everything from the cache alone.
        let merged = tmp("cache-shard-merged.json");
        sweep_cmd(
            &spec,
            vec![
                "--resume".into(),
                all,
                "--cache".into(),
                dir.clone(),
                "--out".into(),
                merged.clone(),
            ],
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&merged).unwrap(),
        );
        let warm = tmp("cache-shard-warm.json");
        let metrics = tmp("cache-shard-metrics.json");
        sweep_cmd(
            &spec,
            vec![
                "--cache".into(),
                dir,
                "--out".into(),
                warm.clone(),
                "--metrics".into(),
                metrics.clone(),
            ],
        )
        .unwrap();
        assert_eq!(metrics_units(&metrics), (0, 0, 2), "shards filled cache");
        assert_eq!(
            std::fs::read_to_string(&full).unwrap(),
            std::fs::read_to_string(&warm).unwrap(),
        );
    }

    #[test]
    fn cache_subcommand_stats_verify_compact() {
        let spec = cache_test_sweep().to_json();
        let dir = cache_dir("cache-cmd");
        sweep_cmd(&spec, vec!["--cache".into(), dir.clone()]).unwrap();

        let out = run(vec!["cache".into(), "stats".into(), dir.clone()]).unwrap();
        assert!(out.contains("2 record(s), 2 live unit(s)"), "{out}");
        assert!(out.contains("(current)"), "{out}");
        let out = run(vec!["cache".into(), "verify".into(), dir.clone()]).unwrap();
        assert!(out.contains("cache OK"), "{out}");

        // Flip one payload byte: verify fails loudly with the unit key.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| {
                let n = p.file_name().unwrap().to_string_lossy().into_owned();
                n.starts_with("seg-") && n.ends_with(".jsonl")
            })
            .expect("a segment file");
        let mut bytes = std::fs::read(&seg).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0x01;
        std::fs::write(&seg, bytes).unwrap();
        let err = run(vec!["cache".into(), "verify".into(), dir.clone()]).unwrap_err();
        assert!(err.to_string().contains("corrupt record"), "{err}");

        // Compact drops the damaged record; verify is clean again and a
        // warm run transparently re-executes the lost unit.
        let out = run(vec!["cache".into(), "compact".into(), dir.clone()]).unwrap();
        assert!(out.contains("dropped"), "{out}");
        let out = run(vec!["cache".into(), "verify".into(), dir.clone()]).unwrap();
        assert!(out.contains("cache OK"), "{out}");
        let metrics = tmp("cache-cmd-metrics.json");
        sweep_cmd(
            &spec,
            vec![
                "--cache".into(),
                dir.clone(),
                "--metrics".into(),
                metrics.clone(),
            ],
        )
        .unwrap();
        assert_eq!(metrics_units(&metrics), (1, 0, 1), "lost unit re-ran");

        // Argument errors.
        assert!(run(vec!["cache".into()]).is_err());
        assert!(run(vec!["cache".into(), "stats".into()]).is_err());
        assert!(run(vec!["cache".into(), "frob".into(), dir.clone()]).is_err());
        assert!(run(vec![
            "cache".into(),
            "stats".into(),
            dir,
            "--max-bytes".into(),
            "1".into()
        ])
        .is_err());
        assert!(run(vec![
            "cache".into(),
            "stats".into(),
            cache_dir("cache-missing")
        ])
        .is_err());
    }

    #[test]
    fn sweep_example_is_a_valid_spec() {
        let json = run(vec!["sweep".into(), "example".into()]).unwrap();
        let sweep = vardelay_engine::Sweep::from_json(&json).unwrap();
        assert!(sweep.expand().len() >= 16);
    }

    #[test]
    fn sweep_example_netlist_emits_gate_level_template() {
        let json = run(vec![
            "sweep".into(),
            "example".into(),
            "--backend".into(),
            "netlist".into(),
        ])
        .unwrap();
        assert!(json.contains("\"backend\": \"netlist\""), "{json}");
        assert!(json.contains("\"backend\": \"analytic\""), "{json}");
        let sweep = vardelay_engine::Sweep::from_json(&json).unwrap();
        assert!(vardelay_engine::plan_sweep(&sweep).is_ok());
        assert!(run(vec![
            "sweep".into(),
            "example".into(),
            "--backend".into(),
            "spice".into()
        ])
        .is_err());
    }

    #[test]
    fn sweep_example_strategy_emits_trial_plan_template() {
        for strategy in ["antithetic", "stratified", "sobol", "blockade"] {
            let json = run(vec![
                "sweep".into(),
                "example".into(),
                "--strategy".into(),
                strategy.into(),
            ])
            .unwrap();
            assert!(
                json.contains(&format!("\"strategy\": \"{strategy}\"")),
                "{json}"
            );
            let sweep = vardelay_engine::Sweep::from_json(&json).unwrap();
            assert!(vardelay_engine::plan_sweep(&sweep).is_ok(), "{strategy}");
        }
        // Unknown strategies are rejected with the valid set.
        let err = run(vec![
            "sweep".into(),
            "example".into(),
            "--strategy".into(),
            "latin".into(),
        ])
        .unwrap_err();
        assert!(
            err.to_string()
                .contains("plain|antithetic|stratified|sobol|blockade"),
            "{err}"
        );
        // --strategy picks its own template; --backend conflicts.
        assert!(run(vec![
            "sweep".into(),
            "example".into(),
            "--strategy".into(),
            "sobol".into(),
            "--backend".into(),
            "netlist".into(),
        ])
        .is_err());
    }

    #[test]
    fn optimize_example_high_sigma_is_a_blockade_campaign() {
        let json = run(vec![
            "optimize".into(),
            "example".into(),
            "--high-sigma".into(),
        ])
        .unwrap();
        assert!(json.contains("\"strategy\": \"blockade\""), "{json}");
        assert!(json.contains("\"ci_half_width\": 0.001"), "{json}");
        let campaign = vardelay_engine::OptimizationCampaign::from_json(&json).unwrap();
        assert!(vardelay_engine::plan_campaign(&campaign).is_ok());
        assert_eq!(campaign.runs[0].yield_target, 0.999);
    }

    #[test]
    fn sweep_validate_reports_without_running() {
        let spec = vardelay_engine::Sweep::example_netlist().to_json();
        let out = sweep_validate_cmd(&spec, vec![]).unwrap();
        assert!(out.contains("spec OK"), "{out}");
        assert!(out.contains("netlist"), "{out}");
        assert!(out.contains("analytic"), "{out}");
        assert!(out.contains("blocks"), "{out}");
        // Invalid specs are rejected with the engine's context.
        let mut bad = vardelay_engine::Sweep::example_netlist();
        bad.scenarios[1].trials = 5; // analytic backend with trials
        let err = sweep_validate_cmd(&bad.to_json(), vec![]).unwrap_err();
        assert!(err.to_string().contains("analytic"), "{err}");
        assert!(sweep_validate_cmd("not json", vec![]).is_err());
        assert!(sweep_validate_cmd(&spec, vec!["--frob".into()]).is_err());
        assert!(run(vec!["sweep".into(), "validate".into()]).is_err());
        // Stray arguments after the spec file are still rejected.
        assert!(run(vec![
            "sweep".into(),
            "validate".into(),
            "spec.json".into(),
            "--frob".into()
        ])
        .is_err());
        assert!(run(vec![
            "optimize".into(),
            "validate".into(),
            "spec.json".into(),
            "extra".into()
        ])
        .is_err());
    }

    #[test]
    fn sweep_cmd_runs_a_small_spec() {
        let mut sweep = vardelay_engine::Sweep::example();
        sweep.grid = None;
        sweep.scenarios.truncate(1);
        sweep.scenarios[0].trials = 300;
        let out = sweep_cmd(&sweep.to_json(), vec!["--workers".into(), "2".into()]).unwrap();
        assert!(out.contains("1 scenarios"), "{out}");
        assert!(out.contains("moments 5-stage"), "{out}");
    }

    #[test]
    fn sweep_cmd_validates() {
        assert!(sweep_cmd("not json", vec![]).is_err());
        assert!(run(vec!["sweep".into()]).is_err());
        let spec = vardelay_engine::Sweep::example().to_json();
        assert!(sweep_cmd(&spec, vec!["--workers".into(), "x".into()]).is_err());
        assert!(sweep_cmd(&spec, vec!["--frob".into(), "1".into()]).is_err());
    }

    #[test]
    fn yield_cmd_happy_path() {
        let out = yield_cmd(
            [
                "--stages",
                "198:4,200:5,195:6",
                "--target",
                "210",
                "--rho",
                "0.3",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        )
        .unwrap();
        assert!(out.contains("3 stages"));
        assert!(out.contains("yield at 210 ps"));
    }

    #[test]
    fn yield_cmd_validates() {
        assert!(yield_cmd(vec![]).is_err());
        assert!(yield_cmd(
            ["--stages", "bad", "--target", "210"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        )
        .is_err());
    }

    #[test]
    fn generate_then_analyze_roundtrip() {
        let bench = generate("chain:8").unwrap();
        let out = analyze("chain", &bench, vec![]).unwrap();
        assert!(out.contains("statistical delay"));
        assert!(out.contains("top paths"));
    }

    #[test]
    fn generate_rejects_unknown() {
        assert!(generate("c9999").is_err());
        assert!(generate("chain:0").is_err());
    }

    #[test]
    fn run_routes_and_reports_errors() {
        assert!(run(vec![]).unwrap().contains("USAGE"));
        assert!(run(vec!["frob".into()]).is_err());
        assert!(run(vec!["analyze".into()]).is_err());
    }
}
