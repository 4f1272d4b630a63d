//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `suite_quick` (the paper figure suite at quick scale) and
//! three serving workloads, `serve_hot_affinity`, `serve_overload_edf`
//! and `serve_cold_uniform` (see `serve.rs`). Every input is generated
//! from `--seed` before timing starts. The run repeats the workload's
//! timed calls for about `--seconds` (at least three times). `wall_s` is
//! the fastest repetition, the one least disturbed by other load on the
//! host; `setup_s` is the median of several set-ups.
//!
//! `--trace 0` reports the end-to-end metrics: host time (`setup_s`,
//! `wall_s`, `req_per_s`, `peak_rss_mb`) and simulated hardware values
//! (`sim_*`, deterministic per seed). `--trace 1` alternates untraced and
//! traced iterations, then probes each layer once, and reports per-layer
//! metrics from the spans; the spans are written to
//! `.perfbench_out/trace-<workload>-<seed>.jsonl`.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.

mod report;
mod serve;
mod spans;
mod suite;

use std::time::Instant;

use report::{fastest, median, peak_rss_mb, Metrics, Outcome};
use serve::{Inputs, ServeSpec, Served};
use sgcn::experiments::ExperimentConfig;
use spans::{self_times, Tracer};

/// The suite's golden render at the default seed.
const GOLDEN: &str = "tests/golden/quick_suite.txt";
/// The seed the goldens were rendered at.
const DEFAULT_SEED: u64 = 2023;
/// Fewest timed iterations a run makes, however long they take.
const MIN_ITERS: usize = 3;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 5;
/// Distinct requests the per-layer probes build and simulate.
const PROBE_REQUESTS: usize = 256;
/// Stream requests whose feature rows the memory probe replays.
const PROBE_MEM_REQUESTS: usize = 2048;
/// Where the traced run writes its spans.
const TRACE_DIR: &str = ".perfbench_out";

const WORKLOADS: [&str; 4] = [
    "suite_quick",
    "serve_hot_affinity",
    "serve_overload_edf",
    "serve_cold_uniform",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        n => return Err(format!("--trace must be 0 or 1, got {n}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace,
    })
}

/// Refuses the seed reference path and pins the worker count to at most
/// the visible cores.
fn pin_environment() -> Result<usize, String> {
    if std::env::var("SGCN_NAIVE").is_ok_and(|v| v == "1") {
        return Err("SGCN_NAIVE=1 selects the seed reference path; unset it".into());
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let asked = std::env::var("SGCN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(cores);
    std::env::set_var("SGCN_THREADS", asked.clamp(1, cores).to_string());
    Ok(sgcn_par::threads())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let threads = match pin_environment() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload = {}  seed = {}  seconds = {}  trace = {}  threads = {threads}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut t = Tracer::new(args.trace);
    let (outcome, metrics) = if args.workload == "suite_quick" {
        run_suite(&args, &mut t)
    } else {
        let spec = match args.workload.as_str() {
            "serve_hot_affinity" => ServeSpec::hot_affinity(args.seed),
            "serve_overload_edf" => ServeSpec::overload_edf(args.seed),
            _ => ServeSpec::cold_uniform(args.seed),
        };
        run_serving(&args, &spec, &mut t)
    };
    if args.trace {
        let path = std::path::Path::new(TRACE_DIR)
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    outcome.print(&metrics);
}

/// Measures `f` `reps` times; returns the median seconds and the last value.
fn timed_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("at least one repetition"))
}

/// Runs `iter` at least [`MIN_ITERS`] times, then for as long as another
/// iteration (as long as the longest so far) still ends within `seconds`.
fn repeat_for(seconds: f64, mut iter: impl FnMut()) {
    let start = Instant::now();
    let mut longest = 0.0f64;
    for n in 1.. {
        let t0 = Instant::now();
        iter();
        longest = longest.max(t0.elapsed().as_secs_f64());
        if n >= MIN_ITERS && start.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
}

/// Checks one served stream: every request ends completed, shed or
/// failed, and the rendered summary repeats exactly.
fn check_served(
    out: &mut Outcome,
    name: &str,
    served: &Served,
    inp: &Inputs,
    first: &mut Option<String>,
) {
    out.check(
        format!("{name}.conservation"),
        served.conserved(inp.requests()),
    );
    let first = first.get_or_insert_with(|| served.json.clone());
    out.check(format!("{name}.summary_repeatable"), *first == served.json);
}

/// Counts one served stream's requests as operations.
fn count_served(out: &mut Outcome, served: &Served, inp: &Inputs) {
    out.attempted += inp.requests() as u64;
    out.failed += served.lost();
}

fn sim_metrics(m: &mut Metrics, served: &Served) {
    let s = &served.summary;
    m.put("sim_p50_e2e_cycles", s.p50_e2e_cycles as f64, "cycles");
    m.put("sim_p99_e2e_cycles", s.p99_e2e_cycles as f64, "cycles");
    m.put("sim_makespan_cycles", s.makespan_cycles as f64, "cycles");
    m.put("sim_dram_bytes_per_req", served.dram_bytes_per_req, "B");
}

fn run_serving(args: &Args, spec: &ServeSpec, t: &mut Tracer) -> (Outcome, Metrics) {
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let mut first = None;
    let mut untraced = Vec::new();
    if !args.trace {
        let (setup_s, inp) = timed_reps(SETUP_REPS, || serve::setup(spec, t));
        let mut last = None;
        repeat_for(args.seconds, || {
            let served = serve::serve(spec, &inp, t);
            check_served(&mut out, spec.name, &served, &inp, &mut first);
            count_served(&mut out, &served, &inp);
            untraced.push(served.wall_s);
            last = Some(served);
        });
        let served = last.expect("at least one iteration");
        println!("wall_s samples = {untraced:.4?}");
        let wall_s = fastest(&untraced);
        m.put("setup_s", setup_s, "s");
        m.put("wall_s", wall_s, "s");
        m.put("req_per_s", inp.requests() as f64 / wall_s, "1/s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        sim_metrics(&mut m, &served);
        return (out, m);
    }

    let inp = t.span("setup", None, |t| serve::setup(spec, t));
    let mut last = None;
    repeat_for(args.seconds, || {
        let served = serve::serve(spec, &inp, &mut Tracer::new(false));
        check_served(&mut out, spec.name, &served, &inp, &mut first);
        count_served(&mut out, &served, &inp);
        untraced.push(served.wall_s);
        let served = t.span("iteration", None, |t| serve::serve(spec, &inp, t));
        check_served(&mut out, spec.name, &served, &inp, &mut first);
        count_served(&mut out, &served, &inp);
        last = Some(served);
    });
    let probe = t.span("probes", None, |t| {
        serve::probe_layers(spec, &inp, PROBE_REQUESTS, PROBE_MEM_REQUESTS, t)
    });
    let served = last.expect("at least one iteration");
    layer_metrics(&mut m, t, &probe, &inp, &served, &untraced);
    (out, m)
}

fn run_suite(args: &Args, t: &mut Tracer) -> (Outcome, Metrics) {
    let cfg = ExperimentConfig {
        seed: args.seed,
        ..ExperimentConfig::quick()
    };
    let mut out = Outcome::default();
    let mut m = Metrics::default();

    // The suite's serving pass gives the simulated-hardware metrics (and,
    // traced, the prepare/loop/summary layers); it is not part of wall_s.
    let spec = ServeSpec::suite_pass(args.seed);
    let inp = t.span("setup", None, |t| serve::setup(&spec, t));
    let served = t.span("serving_pass", None, |t| serve::serve(&spec, &inp, t));
    check_served(
        &mut out,
        "suite_quick.serving_pass",
        &served,
        &inp,
        &mut None,
    );

    // Set-up per render: clear the experiment memo caches (so every render does the
    // same cold work) and load the golden.
    let setup = || {
        sgcn::experiments::reset_driver_caches();
        (args.seed == DEFAULT_SEED).then(|| std::fs::read_to_string(GOLDEN).ok())
    };
    let mut renders = Vec::new();
    let mut setups = Vec::new();
    let mut untraced = Vec::new();
    let mut golden = None;
    repeat_for(args.seconds, || {
        let t0 = Instant::now();
        golden = setup();
        setups.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        renders.push(sgcn_bench::run_suite(&cfg, &suite::DATASETS, true));
        untraced.push(t0.elapsed().as_secs_f64());
        if args.trace {
            t.span("reset", None, |_| setup());
            renders.push(t.span("iteration", None, |t| suite::traced_render(&cfg, t)));
        }
    });
    out.attempted += renders.len() as u64;
    let repeatable = renders.iter().all(|r| *r == renders[0]);
    out.check("suite_quick.render_repeatable", repeatable);
    if let Some(expected) = golden {
        out.check(
            "suite_quick.golden",
            expected.as_deref() == Some(renders[0].as_str()),
        );
    }

    if !args.trace {
        println!("wall_s samples = {untraced:.4?}");
        let wall_s = fastest(&untraced);
        m.put("setup_s", median(&setups), "s");
        m.put("wall_s", wall_s, "s");
        m.put("req_per_s", 1.0 / wall_s, "1/s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        sim_metrics(&mut m, &served);
        return (out, m);
    }
    let probe = t.span("probes", None, |t| {
        serve::probe_layers(&spec, &inp, PROBE_REQUESTS, PROBE_MEM_REQUESTS, t)
    });
    layer_metrics(&mut m, t, &probe, &inp, &served, &untraced);
    (out, m)
}

/// Median duration (s) of the spans called `name`, 0 when there are none.
fn median_s(spans: &[spans::Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    median(&d)
}

/// Per-layer metrics of a traced run.
fn layer_metrics(
    m: &mut Metrics,
    t: &Tracer,
    p: &serve::Probe,
    inp: &Inputs,
    served: &Served,
    untraced: &[f64],
) {
    let s = t.spans();
    let per =
        |name: &str, n: u64, scale: f64| spans::total_ns(s, name) as f64 / scale / n.max(1) as f64;
    let n = inp.requests() as f64;
    let probes = spans::count(s, "accel.sim") as u64;

    m.put("graph.synth_s", median_s(s, "graph.synth"), "s");
    m.put("graph.stream_s", median_s(s, "graph.stream"), "s");
    let samples = spans::count(s, "graph.sample") as u64;
    m.put("graph.sample_us", per("graph.sample", samples, 1e3), "us");
    m.put(
        "graph.sampled_vertices_mean",
        p.sampled_vertices as f64 / probes.max(1) as f64,
        "count",
    );
    m.put(
        "workload.build_us",
        per("workload.build", probes, 1e3),
        "us",
    );
    m.put(
        "formats.beicsr_encode_ns_per_row",
        per("formats.beicsr_encode", p.rows_encoded, 1.0),
        "ns",
    );
    m.put(
        "formats.beicsr_bytes_ratio",
        p.beicsr_bytes as f64 / p.dense_bytes.max(1) as f64,
        "ratio",
    );
    m.put(
        "formats.compact_ns_per_span",
        per("formats.compact", p.spans, 1.0),
        "ns",
    );
    m.put(
        "formats.spans_per_run",
        p.spans as f64 / p.runs.max(1) as f64,
        "ratio",
    );
    m.put("accel.sim_us", per("accel.sim", probes, 1e3), "us");
    m.put(
        "accel.sim_cycles_per_host_s",
        p.sim_cycles as f64 / (spans::total_ns(s, "accel.sim").max(1) as f64 / 1e9),
        "cycles/s",
    );
    m.put("accel.calls", probes as f64, "count");
    m.put(
        "mem.read_span_ns",
        per("mem.read_span", p.rows_replayed, 1.0),
        "ns",
    );
    m.put(
        "mem.peek_span_ns",
        per("mem.peek_span", p.rows_replayed, 1.0),
        "ns",
    );
    m.put(
        "mem.hit_rate",
        p.mem.hits as f64 / p.mem.lines.max(1) as f64,
        "ratio",
    );

    let (prepare, lp) = (median_s(s, "prepare"), median_s(s, "loop"));
    m.put("prepare.s", prepare, "s");
    m.put("prepare.us_per_req", prepare / n * 1e6, "us");
    m.put("prepare.distinct_ratio", inp.distinct_ratio(), "ratio");
    m.put("loop.s", lp, "s");
    m.put("loop.us_per_req", lp / n * 1e6, "us");
    m.put("loop.warm_hit_rate", served.summary.warm_hit_rate, "ratio");
    m.put("loop.utilization", served.summary.utilization, "ratio");
    m.put(
        "loop.p99_wait_cycles",
        served.summary.p99_wait_cycles as f64,
        "cycles",
    );
    m.put("summary.render_us", median_s(s, "summary") * 1e6, "us");
    for name in suite::EXPERIMENTS {
        m.put(format!("{name}_s"), median_s(s, name), "s");
    }

    // Shape of the workload: what share of a traced iteration each stage
    // takes. On suite_quick the iteration is the render, made of experiment
    // calls; prepare and loop there belong to its separate serving pass.
    let share = |stage: &dyn Fn(&str) -> bool| {
        let per_iteration: Vec<f64> = s
            .iter()
            .enumerate()
            .filter(|(_, x)| x.name == "iteration")
            .map(|(id, x)| {
                let in_stage: u64 = s
                    .iter()
                    .filter(|c| c.parent == Some(id) && stage(c.name))
                    .map(spans::Span::duration_ns)
                    .sum();
                in_stage as f64 / x.duration_ns().max(1) as f64
            })
            .collect();
        median(&per_iteration)
    };
    m.put("shape.prepare_share", share(&|n| n == "prepare"), "ratio");
    m.put("shape.loop_share", share(&|n| n == "loop"), "ratio");
    m.put(
        "shape.experiments_share",
        share(&|n| n.starts_with("experiments.")),
        "ratio",
    );

    // Accounting: the traced wall time is the root spans' durations. The
    // self times of the spans below them (layer calls) plus the roots' own
    // self time (the benchmark's time between layer calls) add up to it.
    let selfs = self_times(s);
    let (mut wall, mut accounted, mut unaccounted) = (0u64, 0u64, 0u64);
    for (span, self_ns) in s.iter().zip(&selfs) {
        if span.parent.is_none() {
            wall += span.duration_ns();
            unaccounted += self_ns;
        } else {
            accounted += self_ns;
        }
    }
    m.put("trace.wall_s", wall as f64 / 1e9, "s");
    m.put("trace.accounted_s", accounted as f64 / 1e9, "s");
    m.put("trace.unaccounted_s", unaccounted as f64 / 1e9, "s");
    let traced: Vec<f64> = s
        .iter()
        .filter(|x| x.name == "iteration")
        .map(|x| x.duration_ns() as f64 / 1e9)
        .collect();
    m.put(
        "trace.overhead_s",
        fastest(&traced) - fastest(untraced),
        "s",
    );
    m.put("trace.spans", s.len() as f64, "count");
}
