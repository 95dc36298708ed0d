//! Outside-in probes: each builds one layer's input at the workload's
//! shape and times that layer's public functions directly, so a layer
//! has a number of its own that does not depend on the layers around
//! it. Every probe is a few dozen milliseconds: a warm-up batch, then
//! the median over timed batches.

use crate::layers::Values;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{Kind, Workload, TENANT_WEIGHTS};
use bytes::Bytes;
use rcmp::core::{plan_recovery, ChainDriver, HotspotMitigation, JobGraph, SplitPolicy, Strategy};
use rcmp::dfs::{Dfs, DfsConfig, PlacementPolicy};
use rcmp::engine::mapstore::{BucketIndex, MapInputKey, MapOutputStore};
use rcmp::engine::{Cluster, StreamingShuffle};
use rcmp::exec::{BackendExecutor, SlotTask, TaskCtx, WaveSpec};
use rcmp::model::{
    JobId, NodeId, PartitionId, Record, RecordReader, RecordWriter, ReduceTaskId, SlotConfig,
    TenantId,
};
use rcmp::obs::{Clock, EventCode, FlightRecorder, PhaseKind, PhaseProfiler, SpanKind, Tracer};
use rcmp::policy::{
    assign_map_waves, assign_reduce_waves, DrrArbiter, FnMapTasks, FnReduceTasks, PolicyCtx,
    ReduceAssignment, SliceTopology, TenantShare,
};
use rcmp::sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, WorkloadCfg};
use rcmp::workloads::chain::value_of;
use rcmp::workloads::checksum::digest_file;
use rcmp::workloads::md5::md5;
use rcmp::workloads::{generate_input, AggValue, DataGenConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per probe: at least `MIN_BATCHES`, then as many as fit
/// in `BUDGET`.
const MIN_BATCHES: usize = 5;
const MAX_BATCHES: usize = 400;
const BUDGET: Duration = Duration::from_millis(40);

/// Median seconds of one `run(setup())`, after one discarded batch.
/// `setup` is outside the timed part.
fn batch_secs<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) -> f64 {
    run(setup());
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_BATCHES || (started.elapsed() < BUDGET && samples.len() < MAX_BATCHES)
    {
        let input = setup();
        let t = Instant::now();
        run(input);
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

fn secs(mut run: impl FnMut()) -> f64 {
    batch_secs(|| (), |()| run())
}

/// `units` per second of a batch that takes `secs`.
fn rate(units: f64, secs: f64) -> f64 {
    units / secs.max(1e-12)
}

/// What each probe sizes its input by.
struct Shape {
    w: Workload,
    /// Bytes of a record value on the shuffle path.
    value_size: usize,
    /// Map tasks of one job (one per input block).
    maps_per_job: usize,
    /// Records one map task reads (and, at the chains' 1:1 ratio, emits).
    records_per_block: usize,
}

impl Shape {
    fn of(w: &Workload) -> Self {
        let value_size = match w.kind {
            Kind::Agg { .. } => 16,
            _ => 100,
        };
        let block = w.block.as_u64() as usize;
        let records_per_block = block / 112;
        Self {
            w: *w,
            value_size,
            maps_per_job: (w.input_bytes() as usize).div_ceil(records_per_block * 112),
            records_per_block,
        }
    }

    /// `n` deterministic records with sorted keys.
    fn records(&self, n: usize, salt: u64) -> Vec<Record> {
        (0..n as u64)
            .map(|i| {
                Record::new(
                    i << 8 | salt & 0xff,
                    value_of(i ^ salt << 32, self.value_size),
                )
            })
            .collect()
    }
}

fn encode(records: &[Record]) -> Bytes {
    let mut w = RecordWriter::new();
    for r in records {
        w.push(r);
    }
    w.finish()
}

/// Runs every probe at `w`'s shape.
pub fn run(w: &Workload, spans: &Spans) -> Values {
    let shape = Shape::of(w);
    let mut out = Values::new();
    let mut probe = |name: &str, f: &dyn Fn(&Shape) -> Values| {
        out.extend(spans.root(0).scope(&format!("probe.{name}"), |_| f(&shape)));
    };
    probe("model", &model);
    probe("workloads", &udfs);
    probe("dfs.io", &dfs_io);
    probe("input_lifecycle", &input_lifecycle);
    probe("engine.mapstore", &mapstore);
    probe("engine.shuffle", &shuffle);
    probe("exec", &exec_wave);
    probe("policy", &policy);
    probe("core", &core_plan);
    probe("obs", &obs);
    probe("sim", &sim);
    out
}

fn model(s: &Shape) -> Values {
    let records = s.records(4096, 1);
    let encoded = encode(&records);
    let mb = encoded.len() as f64 / 1e6;
    let enc = secs(|| {
        black_box(encode(black_box(&records)));
    });
    let dec = secs(|| {
        black_box(RecordReader::decode_all(black_box(encoded.clone())).expect("well-formed"));
    });
    vec![
        ("model.encode_mb_per_s", rate(mb, enc)),
        ("model.decode_mb_per_s", rate(mb, dec)),
    ]
}

fn udfs(s: &Shape) -> Values {
    let job = s.w.chain_jobs(0, true).remove(0);
    let input = s.records(4096, 2);
    let input_mb = input.iter().map(Record::encoded_len).sum::<usize>() as f64 / 1e6;
    let mut sink = 0u64;
    let map = batch_secs(
        || input.clone(),
        |records| {
            for r in records {
                job.mapper.map(r, &mut |out| sink ^= out.key);
            }
        },
    );
    // The reducer's groups as the workload makes them: the chain's
    // scattered keys give one value per key, the aggregation ~512
    // partial aggregates per key.
    let (groups, per_group) = match s.w.kind {
        Kind::Agg { .. } => (8, 512),
        _ => (4096, 1),
    };
    let values: Vec<Bytes> = (0..per_group as u64)
        .map(|i| match s.w.kind {
            Kind::Agg { .. } => AggValue { count: 1, sum: i }.encode(),
            _ => value_of(i, s.value_size),
        })
        .collect();
    let reduce_mb = (groups * per_group * (12 + s.value_size)) as f64 / 1e6;
    let reduce = secs(|| {
        for key in 0..groups as u64 {
            job.reducer
                .reduce(key, black_box(&values), &mut |out| sink ^= out.key);
        }
    });
    let blob = value_of(3, s.value_size);
    let md5_secs = secs(|| {
        for _ in 0..4096 {
            sink ^= u64::from(md5(black_box(&blob))[0]);
        }
    });
    black_box(sink);
    vec![
        ("workloads.map_udf_mb_per_s", rate(input_mb, map)),
        ("workloads.reduce_udf_mb_per_s", rate(reduce_mb, reduce)),
        (
            "workloads.md5_mb_per_s",
            rate((4096 * s.value_size) as f64 / 1e6, md5_secs),
        ),
    ]
}

/// One megabyte of block-sized chunks per write; reads go through
/// `read_block` one block at a time, beside the writes.
fn dfs_io(s: &Shape) -> Values {
    const BATCH_BYTES: usize = 1 << 20;
    let block = s.w.block.as_u64() as usize;
    let chunk = value_of(4, block);
    let chunks: Vec<Bytes> = vec![chunk; BATCH_BYTES / block];
    let mb = BATCH_BYTES as f64 / 1e6;
    let dfs = Dfs::new(DfsConfig::new(s.w.nodes, s.w.block));
    let write = |path: &str, replication: u32| {
        dfs.create_file(path, replication, 1).expect("fresh path");
        batch_secs(
            || chunks.clone(),
            |chunks| {
                dfs.write_partition_chunks(
                    path,
                    PartitionId(0),
                    chunks,
                    NodeId(0),
                    PlacementPolicy::WriterLocal,
                )
                .expect("writer is alive");
            },
        )
    };
    let write_r1 = write("r1", 1);
    let write_r3 = write("r3", 3);
    let locations = dfs
        .partition_locations("r1", PartitionId(0))
        .expect("just written");
    let batch = &locations[..chunks.len()];
    let read = secs(|| {
        for loc in batch {
            black_box(dfs.read_block(loc, NodeId(0)).expect("replica is live"));
        }
    });
    vec![
        ("dfs.write_mb_per_s", rate(mb, write_r1)),
        ("dfs.write_repl3_mb_per_s", rate(mb, write_r3)),
        ("dfs.read_mb_per_s", rate(mb, read)),
    ]
}

/// The life of an input file at the workload's shape (capped at 2 MB
/// per partition; `fail_node`'s cost follows the block count):
/// `generate_input`, `digest_file` over it, then `Dfs::fail_node`.
fn input_lifecycle(s: &Shape) -> Values {
    let cfg = DataGenConfig::test("input", s.w.nodes, s.w.bytes_per_partition.min(2_000_000));
    let mb = (s.w.nodes as u64 * cfg.bytes_per_partition.as_u64()) as f64 / 1e6;
    let (mut datagen, mut digest, mut fail) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..MIN_BATCHES {
        let dfs = Dfs::new(DfsConfig::new(s.w.nodes, s.w.block));
        let t = Instant::now();
        generate_input(&dfs, &cfg).expect("healthy dfs");
        datagen.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(digest_file(&dfs, "input", NodeId(0)).expect("replicas are live"));
        digest.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(dfs.fail_node(NodeId(1)));
        fail.push(t.elapsed().as_secs_f64());
    }
    vec![
        ("workloads.datagen_mb_per_s", rate(mb, median(&datagen))),
        ("workloads.digest_mb_per_s", rate(mb, median(&digest))),
        ("dfs.fail_node_ms", median(&fail) * 1e3),
    ]
}

/// One map task's output: a sorted, indexed bucket per reducer in
/// `reducers`, the block's records dealt evenly over all the job's
/// reducers (with few records per block most buckets stay empty).
fn map_output(
    s: &Shape,
    map: u64,
    reducers: &[u32],
) -> HashMap<ReduceTaskId, (Bytes, BucketIndex)> {
    reducers
        .iter()
        .map(|&r| {
            let all = s.w.reducers as usize;
            let extra = (r as usize + map as usize) % all < s.records_per_block % all;
            let records = s.records(s.records_per_block / all + usize::from(extra), map);
            let data = encode(&records);
            let index = BucketIndex {
                records: records.len() as u64,
                bytes: data.len() as u64,
                min_key: records.first().map_or(0, |r| r.key),
                max_key: records.last().map_or(0, |r| r.key),
                sorted: true,
            };
            (ReduceTaskId::whole(JobId(1), PartitionId(r)), (data, index))
        })
        .collect()
}

fn map_key(map: usize) -> MapInputKey {
    MapInputKey::new(JobId(1), PartitionId(0), map as u32)
}

fn mapstore(s: &Shape) -> Values {
    const MAPS: usize = 32;
    let reducers: Vec<u32> = (0..s.w.reducers).collect();
    let outputs: Vec<_> = (0..MAPS as u64)
        .map(|m| map_output(s, m, &reducers))
        .collect();
    let mb = outputs
        .iter()
        .flat_map(|o| o.values())
        .map(|(data, _)| data.len())
        .sum::<usize>() as f64
        / 1e6;
    let store = MapOutputStore::new();
    let insert = batch_secs(
        || outputs.clone(),
        |outputs| {
            for (m, buckets) in outputs.into_iter().enumerate() {
                store.insert_indexed(map_key(m), NodeId(m as u32 % s.w.nodes), m as u64, buckets);
            }
        },
    );
    let fetch = secs(|| {
        for m in 0..MAPS {
            for &r in &reducers {
                let rtid = ReduceTaskId::whole(JobId(1), PartitionId(r));
                black_box(store.fetch_bucket_indexed(&map_key(m), rtid));
            }
        }
    });
    vec![
        (
            "engine.mapstore_insert_mb_per_s",
            rate(mb.max(1e-9), insert),
        ),
        (
            "engine.mapstore_fetch_us",
            fetch * 1e6 / (MAPS * reducers.len()) as f64,
        ),
    ]
}

/// One reducer's shuffle at the workload's shape: plan over every map
/// output of a job, then drain the merge.
fn shuffle(s: &Shape) -> Values {
    let store = MapOutputStore::new();
    for m in 0..s.maps_per_job {
        let buckets = map_output(s, m as u64, &[0]);
        store.insert_indexed(map_key(m), NodeId(m as u32 % s.w.nodes), m as u64, buckets);
    }
    let inputs: Vec<MapInputKey> = (0..s.maps_per_job).map(map_key).collect();
    let rtid = ReduceTaskId::whole(JobId(1), PartitionId(0));
    let mut records = 0u64;
    let per_reducer = secs(|| {
        let merge = StreamingShuffle::plan(&store, &inputs, rtid, NodeId(0), 64)
            .unwrap_or_else(|_| panic!("every map output is present"));
        records = 0;
        for group in merge {
            let (_, values) = group.unwrap_or_else(|_| panic!("buckets are well-formed"));
            records += values.len() as u64;
        }
    });
    vec![
        ("engine.shuffle_plan_us", per_reducer * 1e6),
        (
            "engine.merge_records_per_s",
            rate(records as f64, per_reducer),
        ),
    ]
}

/// No-op waves of one full slot sweep on the workload's backend, inside
/// one session as the tracker runs them.
fn exec_wave(s: &Shape) -> Values {
    let tasks = (s.w.nodes * s.w.slots.map) as usize;
    let exec = BackendExecutor::from_config(&s.w.cluster_config(0).executor);
    let spec = WaveSpec::new("bench-wave", 7);
    let per_wave = exec.with_session(|session| {
        secs(|| {
            let wave: Vec<SlotTask<'_, usize>> = (0..tasks)
                .map(|i| SlotTask::new(move |_: &TaskCtx| black_box(i)))
                .collect();
            black_box(session.run_wave(&spec, wave));
        })
    });
    vec![("exec.wave_tasks_per_s", rate(tasks as f64, per_wave))]
}

fn policy(s: &Shape) -> Values {
    let live: Vec<NodeId> = (0..s.w.nodes).map(NodeId).collect();
    let nodes = live.len();
    let SlotConfig { map, reduce } = s.w.slots;
    let topo = SliceTopology::new(&live, map, reduce);
    // Block `t` is primary on node t mod N, replicated on the next two.
    let maps = FnMapTasks::new(
        s.maps_per_job,
        |t: usize, n: NodeId| t % nodes == n.index(),
        |t: usize, n: NodeId| (n.index() + nodes - t % nodes) % nodes < 3,
    );
    let map_us = secs(|| {
        black_box(assign_map_waves(&topo, &maps, PolicyCtx::disabled()).expect("live nodes"));
    }) * 1e6;
    let reduces = FnReduceTasks::new(s.w.reducers as usize, |t| t);
    let reduce_us = secs(|| {
        black_box(
            assign_reduce_waves(
                &topo,
                &reduces,
                ReduceAssignment::RoundRobinByPartition,
                PolicyCtx::disabled(),
            )
            .expect("live nodes"),
        );
    }) * 1e6;

    // The serving tier's arbiter with its three tenants: enqueue one
    // chain each, grant two slots, complete, until drained.
    const ROUNDS: u64 = 256;
    let mut arbiter = DrrArbiter::new(4);
    for (t, weight) in TENANT_WEIGHTS.into_iter().enumerate() {
        arbiter.register(
            TenantId(t as u32),
            TenantShare {
                weight,
                max_in_flight: 2,
            },
        );
    }
    let mut granted = 0u64;
    let drr = secs(|| {
        granted = 0;
        for round in 0..ROUNDS {
            for t in 0..TENANT_WEIGHTS.len() as u32 {
                black_box(arbiter.enqueue(TenantId(t), round * 3 + u64::from(t), 3));
            }
            while arbiter.backlog() > 0 {
                for grant in arbiter.next_grants(2) {
                    arbiter.complete(grant.tenant);
                    granted += 1;
                }
            }
        }
    });
    vec![
        ("policy.assign_map_waves_us", map_us),
        ("policy.assign_reduce_waves_us", reduce_us),
        ("policy.drr_grants_per_s", rate(granted as f64, drr)),
    ]
}

/// `plan_recovery` for the last job on a cluster at the workload's
/// topology that ran the chain (on a small input) and then lost node 1.
fn core_plan(s: &Shape) -> Values {
    let mut small = s.w;
    small.bytes_per_partition = small.bytes_per_partition.min(16 * s.w.block.as_u64());
    let cluster = Cluster::new(small.cluster_config(0));
    generate_input(cluster.dfs(), &small.datagen(0)).expect("healthy cluster");
    let jobs = small.chain_jobs(0, true);
    ChainDriver::new(&cluster, Strategy::rcmp_split(3))
        .run(&jobs)
        .expect("fault-free chain");
    cluster.fail_node(NodeId(1));
    let target = jobs.last().expect("non-empty chain").job;
    let graph = JobGraph::new(jobs).expect("a straight chain");
    let us = secs(|| {
        black_box(
            plan_recovery(
                &cluster,
                &graph,
                target,
                SplitPolicy::Fixed(3),
                HotspotMitigation::SplitReducers,
            )
            .expect("replicated input keeps every loss recoverable"),
        );
    }) * 1e6;
    vec![("core.plan_recovery_us", us)]
}

fn obs(_: &Shape) -> Values {
    const CALLS: u64 = 10_000;
    let per_call_ns = |secs: f64| secs * 1e9 / CALLS as f64;
    let recorder = FlightRecorder::with_defaults(Clock::monotonic());
    let record = secs(|| {
        for i in 0..CALLS {
            recorder.record(EventCode::TaskDone, Some(NodeId(0)), i, 0);
        }
    });
    // A fresh tracer per batch: spans accumulate in memory.
    let span = batch_secs(
        || Tracer::with_clock(Clock::monotonic()),
        |tracer| {
            for i in 0..CALLS {
                let open = tracer.open();
                let kind = SpanKind::BlockRead {
                    source: NodeId(0),
                    bytes: i,
                };
                tracer.close(open, kind, None, None, Some(NodeId(0)));
            }
        },
    );
    let profiler = PhaseProfiler::new(Clock::monotonic());
    let timer = secs(|| {
        for _ in 0..CALLS {
            drop(black_box(profiler.span(PhaseKind::MapCompute)));
        }
    });
    vec![
        ("obs.recorder_ns_per_event", per_call_ns(record)),
        ("obs.span_ns", per_call_ns(span)),
        ("obs.phase_timer_ns", per_call_ns(timer)),
    ]
}

/// The simulator on the paper's STIC 7-job chain with a failure at job
/// 7: host time per simulated chain, and the simulated seconds, which
/// must stay bit-identical (unit `sim_s`, never mixed with wall time).
fn sim(_: &Shape) -> Values {
    let config = |strategy| {
        ChainSimConfig::new(
            HwProfile::stic(),
            WorkloadCfg::stic(SlotConfig::ONE_ONE),
            strategy,
        )
        .with_failures(vec![FailureAt::at_job(7, 1)])
    };
    let rcmp = config(Strategy::rcmp_split(8));
    let host_ms = secs(|| {
        black_box(simulate_chain(&rcmp));
    }) * 1e3;
    vec![
        ("sim.host_ms_per_chain", host_ms),
        ("sim.chain_secs_rcmp", simulate_chain(&rcmp).total_time),
        (
            "sim.chain_secs_repl3",
            simulate_chain(&config(Strategy::Replication { factor: 3 })).total_time,
        ),
    ]
}
