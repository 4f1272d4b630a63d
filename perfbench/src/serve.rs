//! The serving workloads: `prepare → simulate_queue → QueueSummary::to_json`
//! over a seeded open-loop request stream, plus the per-layer probes the
//! traced run replays over a sample of the same stream.

use sgcn::accel::AccelModel;
use sgcn::experiments::ExperimentConfig;
use sgcn::serving::queueing::{feature_row_bytes, prepare, simulate_queue, QueueSummary};
use sgcn::{HwConfig, QueueConfig, Request, SchedPolicy, ServingConfig, ServingContext};
use sgcn_formats::{Beicsr, BeicsrConfig, FeatureFormat, RunCompactor};
use sgcn_graph::datasets::{DatasetId, SynthScale};
use sgcn_graph::sampling::Fanouts;
use sgcn_mem::{MemorySystem, SpanCounts, Traffic};

use crate::spans::Tracer;

/// Shape of one serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Workload name (also the summary label).
    pub name: &'static str,
    /// Graph scale and model width.
    pub cfg: ExperimentConfig,
    /// Requests per iteration.
    pub requests: usize,
    /// Hot-pool size for `hotspot_stream`; `None` draws uniformly.
    pub hot_pool: Option<usize>,
    /// Fleet size.
    pub engines: usize,
    /// Dispatch policy.
    pub policy: SchedPolicy,
    /// Offered load ρ (open-loop exponential arrivals, simulated time).
    pub load: f64,
}

impl ServeSpec {
    /// Heavy reuse: 256 hot seeds on the 2,048-vertex PubMed graph,
    /// cache-affinity routing.
    pub fn hot_affinity(seed: u64) -> Self {
        ServeSpec {
            name: "serve_hot_affinity",
            cfg: ExperimentConfig {
                seed,
                ..ExperimentConfig::paper()
            },
            requests: 50_000,
            hot_pool: Some(256),
            engines: 4,
            policy: SchedPolicy::CacheAffinity,
            load: 0.8,
        }
    }

    /// Overload: uniform seeds, EDF queues with no deadline, ρ = 1.5. The
    /// stream stops short of the size where the queues outgrow the cache
    /// and host time turns erratic (see README.md).
    pub fn overload_edf(seed: u64) -> Self {
        ServeSpec {
            name: "serve_overload_edf",
            requests: 60_000,
            hot_pool: None,
            policy: SchedPolicy::SloAware,
            load: 1.5,
            ..Self::hot_affinity(seed)
        }
    }

    /// Little reuse: uniform seeds over the 19,717-vertex PubMed graph.
    pub fn cold_uniform(seed: u64) -> Self {
        let paper = ExperimentConfig::paper();
        ServeSpec {
            name: "serve_cold_uniform",
            cfg: ExperimentConfig {
                scale: SynthScale {
                    max_vertices: 1 << 16,
                    ..paper.scale
                },
                seed,
                ..paper
            },
            requests: 20_000,
            hot_pool: None,
            engines: 4,
            policy: SchedPolicy::LeastLoaded,
            load: 0.8,
        }
    }

    /// The suite's serving pass: the quick-scale PubMed graph the suite's
    /// serving and queueing grids use, at a stream long enough for a p99.
    pub fn suite_pass(seed: u64) -> Self {
        ServeSpec {
            name: "suite_quick",
            cfg: ExperimentConfig {
                seed,
                ..ExperimentConfig::quick()
            },
            requests: 20_000,
            hot_pool: None,
            engines: 4,
            policy: SchedPolicy::LeastLoaded,
            load: 0.8,
        }
    }

    fn hw(&self) -> HwConfig {
        self.cfg.hw()
    }
}

/// Everything generated before timing starts: the serving context, the
/// request stream and the queue configuration.
pub struct Inputs {
    ctx: ServingContext,
    stream: Vec<Request>,
    qcfg: QueueConfig,
}

impl Inputs {
    /// Requests in the stream.
    pub fn requests(&self) -> usize {
        self.stream.len()
    }

    /// Distinct seed vertices ÷ requests: the share of requests that
    /// cost a cold simulation in `prepare`.
    pub fn distinct_ratio(&self) -> f64 {
        let mut seeds: Vec<u32> = self.stream.iter().map(|r| r.seed_vertex).collect();
        seeds.sort_unstable();
        seeds.dedup();
        seeds.len() as f64 / self.stream.len().max(1) as f64
    }
}

/// Builds the workload's inputs from the seed alone.
pub fn setup(spec: &ServeSpec, t: &mut Tracer) -> Inputs {
    let cfg = &spec.cfg;
    let ctx = t.span("graph.synth", None, |_| {
        ServingContext::new(ServingConfig {
            dataset: DatasetId::PubMed,
            scale: cfg.scale,
            fanouts: Fanouts::new(vec![10, 5]),
            width: cfg.width,
            seed: cfg.seed,
        })
    });
    let stream = t.span("graph.stream", None, |_| match spec.hot_pool {
        Some(pool) => ctx.hotspot_stream(spec.requests, pool),
        None => ctx.request_stream(spec.requests),
    });
    let qcfg = QueueConfig::new(spec.engines, spec.policy, spec.load, cfg.seed);
    Inputs { ctx, stream, qcfg }
}

/// One served stream.
pub struct Served {
    /// Host seconds of prepare + loop + render.
    pub wall_s: f64,
    /// The loop's summary.
    pub summary: QueueSummary,
    /// Its rendered JSON.
    pub json: String,
    /// Mean `SimReport::dram_bytes()` over the prepared cold reports.
    pub dram_bytes_per_req: f64,
}

impl Served {
    /// Whether every offered request ended completed, shed or failed.
    pub fn conserved(&self, requests: usize) -> bool {
        let s = &self.summary;
        s.requests == requests && s.completed + (s.shed + s.failed) as usize == s.requests
    }

    /// Requests that ended shed or failed.
    pub fn lost(&self) -> u64 {
        self.summary.shed + self.summary.failed
    }
}

/// The timed calls: prepare the stream, run the event loop, render.
pub fn serve(spec: &ServeSpec, inp: &Inputs, t: &mut Tracer) -> Served {
    let hw = spec.hw();
    let model = AccelModel::sgcn();
    let t0 = std::time::Instant::now();
    let prepared = t.span("prepare", None, |_| {
        prepare(&inp.ctx, &inp.stream, &model, &hw)
    });
    let out = t.span("loop", None, |_| {
        simulate_queue(&prepared, &inp.qcfg, &hw, feature_row_bytes(&inp.ctx))
    });
    let json = t.span("summary", None, |_| out.summary.to_json(spec.name));
    let wall_s = t0.elapsed().as_secs_f64();
    let dram: u64 = prepared.iter().map(|p| p.report.dram_bytes()).sum();
    Served {
        wall_s,
        summary: out.summary,
        json,
        dram_bytes_per_req: dram as f64 / prepared.len().max(1) as f64,
    }
}

/// Work counts from the per-layer probes (times come from their spans).
#[derive(Debug, Default)]
pub struct Probe {
    /// Sampled vertices over all probed requests.
    pub sampled_vertices: u64,
    /// Feature rows BEICSR-encoded.
    pub rows_encoded: u64,
    /// Cacheline-rounded bytes to read every encoded row as BEICSR.
    pub beicsr_bytes: u64,
    /// The same rows read dense.
    pub dense_bytes: u64,
    /// Spans fed to the run compactor.
    pub spans: u64,
    /// Line runs it emitted.
    pub runs: u64,
    /// Simulated cycles over the probe simulations.
    pub sim_cycles: u64,
    /// Feature rows replayed through the warm memory system.
    pub rows_replayed: u64,
    /// Their line counts.
    pub mem: SpanCounts,
}

/// Cache line size of the BEICSR compaction probe (the platform's).
const LINE_BYTES: u64 = 64;

/// Calls each layer's public entry points, one span each. Over the first
/// `k` requests of the stream with distinct seeds (the ones `prepare`
/// would simulate): sampling, workload build, BEICSR encode of the
/// workload's feature slices, line-run compaction of their row reads and
/// the cold simulation. Over the first `k_mem` requests in stream order,
/// repeats included: a replay of each request's feature rows through one
/// warm engine memory system, peek then read (the cache-affinity probe,
/// then the loop's fill).
pub fn probe_layers(
    spec: &ServeSpec,
    inp: &Inputs,
    k: usize,
    k_mem: usize,
    t: &mut Tracer,
) -> Probe {
    let hw = spec.hw();
    let model = AccelModel::sgcn();
    let mut seen = std::collections::BTreeSet::new();
    let distinct: Vec<Request> = inp
        .stream
        .iter()
        .filter(|r| seen.insert(r.seed_vertex))
        .take(k)
        .copied()
        .collect();
    let mut p = Probe::default();
    for r in &distinct {
        let id = Some(r.index as u64);
        let sub = t.span("graph.sample", id, |_| inp.ctx.sample(r));
        p.sampled_vertices += sub.vertices.len() as u64;
        let wl = t.span("workload.build", id, |_| {
            inp.ctx.build_workload_from(r, sub)
        });

        let layers = wl.trace.num_layers();
        let encoded: Vec<Beicsr> = t.span("formats.beicsr_encode", id, |_| {
            (0..=layers)
                .map(|l| Beicsr::encode(wl.trace.layer_features(l), BeicsrConfig::default()))
                .collect()
        });
        let mut spans = Vec::new();
        for m in &encoded {
            p.rows_encoded += m.rows() as u64;
            p.dense_bytes +=
                m.rows() as u64 * (m.cols() as u64 * 4).div_ceil(LINE_BYTES) * LINE_BYTES;
            for row in 0..m.rows() {
                p.beicsr_bytes += m.row_read_bytes(row);
                m.for_each_row_span(row, &mut |s| spans.push(s));
            }
        }
        p.spans += spans.len() as u64;
        p.runs += t.span("formats.compact", id, |_| {
            let mut c = RunCompactor::reads(LINE_BYTES);
            let mut runs = 0u64;
            for s in &spans {
                c.push(*s, &mut |_| runs += 1);
            }
            c.finish(&mut |_| runs += 1);
            runs
        });

        let report = t.span("accel.sim", id, |_| model.simulate(&wl, &hw));
        p.sim_cycles += report.cycles;
    }

    let warm = inp.qcfg.warm_cache;
    let mut mem = MemorySystem::with_engine(warm, hw.dram, hw.cache_engine);
    let stride = feature_row_bytes(&inp.ctx).div_ceil(warm.line_bytes) * warm.line_bytes;
    for r in inp.stream.iter().take(k_mem) {
        let id = Some(r.index as u64);
        let vertices = t.span("graph.sample", id, |_| inp.ctx.sample(r)).vertices;
        let peeked: u64 = t.span("mem.peek_span", id, |_| {
            vertices
                .iter()
                .map(|&v| mem.peek_span(u64::from(v) * stride, stride).hits)
                .sum()
        });
        std::hint::black_box(peeked);
        let read = t.span("mem.read_span", id, |_| {
            let mut c = SpanCounts::default();
            for &v in &vertices {
                c.add(mem.read_span(u64::from(v) * stride, stride, Traffic::FeatureRead));
            }
            c
        });
        p.rows_replayed += vertices.len() as u64;
        p.mem.add(read);
    }
    p
}
