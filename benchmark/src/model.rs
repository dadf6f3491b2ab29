//! Workload definitions and set-up: generate the table, select statistics,
//! build and persist the summary, start the topology, and load the same
//! blob in-process as the answer oracle.

use crate::stream::Attrs;
use crate::topology::{self, Topology};
use entropydb_core::engine::QueryEngine;
use entropydb_core::error::Result as ModelResult;
use entropydb_core::ingest::{IngestConfig, LiveSummary};
use entropydb_core::plan::{QueryRequest, QueryResponse};
use entropydb_core::prelude::{
    Heuristic, MaxEntSummary, MultiDimStatistic, ShardedBuildConfig, ShardedSummary, SolverConfig,
};
use entropydb_core::selection::heuristics::select_pair_statistics;
use entropydb_core::serialize;
use entropydb_data::flights::{self, FlightsConfig, FlightsDataset};
use entropydb_server::Client;
use entropydb_storage::Partitioning;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const FLIGHTS_ROWS: usize = 100_000;
pub const FLIGHTS_SEED: u64 = 0xF11D;
/// Per-pair COMPOSITE budget of the paper's Ent1&2&3 configuration, scaled
/// to the table: 3 × 300 = 900 statistics → 150 043 terms.
pub const PAIR_BUDGET: usize = 300;
pub const SHARDS: usize = 4;
/// `--delta-threshold` of the live server: one append batch is one fold.
pub const LIVE_BATCH_ROWS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlightsMono,
    No2dWire,
    FlightsCluster,
    FlightsLive,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FlightsMono,
        Workload::No2dWire,
        Workload::FlightsCluster,
        Workload::FlightsLive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlightsMono => "flights_mono",
            Workload::No2dWire => "no2d_wire",
            Workload::FlightsCluster => "flights_cluster",
            Workload::FlightsLive => "flights_live",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_live(self) -> bool {
        self == Workload::FlightsLive
    }

    fn is_sharded(self) -> bool {
        matches!(self, Workload::FlightsCluster | Workload::FlightsLive)
    }
}

/// The fitted model a workload serves.
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // one value per run
pub enum Model {
    Mono(MaxEntSummary),
    Sharded(ShardedSummary),
}

impl Model {
    /// The per-shard models (one for a monolithic summary).
    pub fn shard_refs(&self) -> &[MaxEntSummary] {
        match self {
            Model::Mono(m) => std::slice::from_ref(m),
            Model::Sharded(s) => s.shards(),
        }
    }

    /// Copies of the per-shard models, for engines of their own.
    pub fn shards(&self) -> Vec<MaxEntSummary> {
        self.shard_refs().to_vec()
    }
}

/// What set-up measured on the way to the first `pong`.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub select_s: f64,
    pub stats_selected: usize,
    pub build_s: f64,
    /// Solver seconds summed over shards (`SolverReport::seconds`).
    pub solve_s: f64,
    pub sweeps: usize,
    pub max_residual: f64,
    pub converged: bool,
    pub save_s: f64,
    pub spawn_to_pong_s: f64,
    pub total_s: f64,
}

#[derive(Debug)]
pub struct Deployed {
    pub workload: Workload,
    pub dataset: FlightsDataset,
    pub multi: Vec<MultiDimStatistic>,
    pub model: Model,
    /// The persisted file (monolithic) or directory (sharded) served.
    pub blob: PathBuf,
    pub summary_bytes: u64,
    pub topology: Topology,
    pub times: SetupTimes,
}

impl Deployed {
    pub fn attrs(&self) -> Attrs {
        let d = &self.dataset;
        let sizes = d.table.schema().domain_sizes();
        let with_size = |a: entropydb_storage::AttrId| (a, sizes[a.index()]);
        Attrs {
            origin: with_size(d.origin),
            dest: with_size(d.dest),
            fl_time: with_size(d.fl_time),
            distance: with_size(d.distance),
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.topology.addr.as_str())
            .map_err(|e| format!("cannot connect {}: {e}", self.topology.addr))
    }
}

fn disk_bytes(path: &Path) -> std::io::Result<u64> {
    if path.is_dir() {
        let mut total = 0;
        for entry in std::fs::read_dir(path)? {
            total += entry?.metadata()?.len();
        }
        Ok(total)
    } else {
        Ok(path.metadata()?.len())
    }
}

/// One full set-up, never cached: generate, select, build/solve, persist,
/// spawn, load, handshake. `started` is when this set-up began (process start
/// for the first one).
pub fn setup(
    workload: Workload,
    bin_dir: &Path,
    dir: &Path,
    started: Instant,
) -> Result<Deployed, String> {
    let mut times = SetupTimes::default();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;

    let t = Instant::now();
    let dataset = flights::generate(&FlightsConfig {
        rows: FLIGHTS_ROWS,
        fine: false,
        seed: FLIGHTS_SEED,
    });
    times.generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut multi = Vec::new();
    if workload != Workload::No2dWire {
        let d = &dataset;
        for (x, y) in [
            (d.origin, d.distance),
            (d.dest, d.distance),
            (d.fl_time, d.distance),
        ] {
            multi.extend(
                select_pair_statistics(&d.table, x, y, PAIR_BUDGET, Heuristic::Composite)
                    .map_err(|e| format!("selection: {e}"))?,
            );
        }
    }
    times.select_s = t.elapsed().as_secs_f64();
    times.stats_selected = multi.len();

    let t = Instant::now();
    let model = if workload.is_sharded() {
        // Range partitioning is the honest deployment: hash-4 keeps every
        // term in every shard and takes 16–19 s to build.
        let distance_domain = dataset.table.schema().domain_sizes()[dataset.distance.index()];
        let partitioning = Partitioning::range(dataset.distance, SHARDS, distance_domain)
            .map_err(|e| e.to_string())?;
        Model::Sharded(
            ShardedSummary::build(
                &dataset.table,
                &partitioning,
                multi.clone(),
                &ShardedBuildConfig::default(),
            )
            .map_err(|e| format!("sharded build: {e}"))?,
        )
    } else {
        Model::Mono(
            MaxEntSummary::build(&dataset.table, multi.clone(), &SolverConfig::default())
                .map_err(|e| format!("build: {e}"))?,
        )
    };
    times.build_s = t.elapsed().as_secs_f64();
    let shards = model.shard_refs();
    times.solve_s = shards.iter().map(|s| s.solver_report().seconds).sum();
    times.sweeps = shards
        .iter()
        .map(|s| s.solver_report().sweeps)
        .max()
        .unwrap_or(0);
    times.max_residual = shards
        .iter()
        .map(|s| s.solver_report().max_residual)
        .fold(0.0, f64::max);
    times.converged = shards.iter().all(|s| s.solver_report().converged);

    let t = Instant::now();
    let blob = match &model {
        Model::Mono(summary) => {
            let path = dir.join("summary.txt");
            serialize::save_file(summary, &path).map_err(|e| e.to_string())?;
            path
        }
        Model::Sharded(sharded) => {
            let path = dir.join("sharded");
            serialize::save_sharded_dir(sharded, &path).map_err(|e| e.to_string())?;
            path
        }
    };
    times.save_s = t.elapsed().as_secs_f64();
    let summary_bytes = disk_bytes(&blob).map_err(|e| e.to_string())?;

    let t = Instant::now();
    let threshold = LIVE_BATCH_ROWS.to_string();
    let topology = match workload {
        Workload::FlightsMono | Workload::No2dWire => topology::serve(bin_dir, &blob, &[], dir)?,
        Workload::FlightsCluster => topology::cluster(bin_dir, &blob, dir)?,
        Workload::FlightsLive => topology::serve(
            bin_dir,
            &blob,
            &["--live", "--delta-threshold", &threshold],
            dir,
        )?,
    };
    let mut deployed = Deployed {
        workload,
        dataset,
        multi,
        model,
        blob,
        summary_bytes,
        topology,
        times,
    };
    deployed
        .connect()?
        .ping()
        .map_err(|e| format!("first ping: {e}"))?;
    deployed.times.spawn_to_pong_s = t.elapsed().as_secs_f64();
    deployed.times.total_s = started.elapsed().as_secs_f64();
    Ok(deployed)
}

/// The in-process reference: a `QueryEngine` over the blob the topology
/// loaded, reloaded from disk. The repo promises answers bitwise equal to
/// it on every surface.
#[allow(clippy::large_enum_variant)] // one value per run
pub enum Oracle {
    Mono(QueryEngine<MaxEntSummary>),
    Sharded(QueryEngine<ShardedSummary>),
    Live(QueryEngine<LiveSummary>),
}

macro_rules! with_engine {
    ($oracle:expr, $engine:ident => $body:expr) => {
        match $oracle {
            Oracle::Mono($engine) => $body,
            Oracle::Sharded($engine) => $body,
            Oracle::Live($engine) => $body,
        }
    };
}

impl Oracle {
    /// Loads the persisted blob; returns the oracle and the load seconds.
    pub fn load(deployed: &Deployed) -> Result<(Oracle, f64), String> {
        let t = Instant::now();
        let oracle = match deployed.workload {
            Workload::FlightsMono | Workload::No2dWire => Oracle::Mono(QueryEngine::new(
                serialize::load_file(&deployed.blob).map_err(|e| e.to_string())?,
            )),
            Workload::FlightsCluster => Oracle::Sharded(QueryEngine::new(
                serialize::load_sharded_dir(&deployed.blob).map_err(|e| e.to_string())?,
            )),
            // Folds synchronously and only on `flush`, so the benchmark
            // decides when the appended rows enter the reference.
            Workload::FlightsLive => Oracle::Live(QueryEngine::new(
                serialize::load_live_dir(
                    &deployed.blob,
                    SolverConfig::default(),
                    IngestConfig {
                        delta_rows: usize::MAX,
                        seal_rows: usize::MAX,
                        background: false,
                        ..IngestConfig::default()
                    },
                )
                .map_err(|e| e.to_string())?,
            )),
        };
        Ok((oracle, t.elapsed().as_secs_f64()))
    }

    pub fn execute(&self, request: &QueryRequest) -> ModelResult<QueryResponse> {
        with_engine!(self, e => e.execute(request))
    }

    pub fn execute_batch(&self, requests: &[QueryRequest]) -> Vec<ModelResult<QueryResponse>> {
        with_engine!(self, e => e.execute_batch(requests))
    }

    /// Folds `rows` into the live reference in one re-solve. A fold refits
    /// the whole delta from scratch, so one fold over all rows equals the
    /// server's state after its batch-by-batch folds.
    pub fn append_and_fold(&self, rows: &[Vec<u32>]) -> Result<(), String> {
        let Oracle::Live(engine) = self else {
            return Err("only the live oracle accepts rows".to_string());
        };
        engine.append_rows(rows, None).map_err(|e| e.to_string())?;
        engine.backend().flush().map_err(|e| e.to_string())?;
        Ok(())
    }

    /// One engine per shard model. The monolithic oracle is its own single
    /// shard, so kernel, probe and execute readings time one object (copies
    /// of a model differ by a few percent with where they land in memory);
    /// otherwise the engines are built into `owned`.
    pub fn shard_engines<'a>(
        &'a self,
        model: &Model,
        owned: &'a mut Vec<QueryEngine<MaxEntSummary>>,
    ) -> Vec<&'a QueryEngine<MaxEntSummary>> {
        match self {
            Oracle::Mono(engine) => vec![engine],
            _ => {
                *owned = model.shards().into_iter().map(QueryEngine::new).collect();
                owned.iter().collect()
            }
        }
    }

    /// The encoded `r1` line the topology must answer `request` with.
    pub fn answer_line(&self, request: &QueryRequest) -> String {
        match self.execute(request) {
            Ok(response) => response.encode(),
            Err(e) => QueryResponse::encode_error(&e),
        }
    }
}
