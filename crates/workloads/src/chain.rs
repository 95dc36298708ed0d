//! The n-job chain computation (the paper's 7-job workload).
//!
//! Every job reads the previous job's output ("out/<j-1>") and writes
//! "out/<j>"; job 1 reads the generated input. UDFs do the paper's
//! per-record work — MD5 of the value and sum of value bytes — and the
//! mapper scatters keys for load balance. All "randomness" is a
//! deterministic function of record content, because recomputed tasks
//! must regenerate byte-identical data.

use crate::md5::{md5_u64, md5_u64x2};
use bytes::Bytes;
use rcmp_dfs::PlacementPolicy;
use rcmp_engine::udf::{Combiner, Emit, Mapper, Reducer};
use rcmp_engine::JobSpec;
use rcmp_model::partition::mix64;
use rcmp_model::{JobId, Record};
use std::hint::black_box;
use std::sync::Arc;

/// Deterministic pseudo-random bytes for a seed (shared with datagen).
pub fn value_of(seed: u64, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len);
    let mut s = seed;
    while out.len() < len {
        s = mix64(s.wrapping_add(0x9e37_79b9_7f4a_7c15));
        let w = s.to_le_bytes();
        let take = (len - out.len()).min(8);
        out.extend_from_slice(&w[..take]);
    }
    Bytes::from(out)
}

/// Deterministically resizes a value to `new_len` by cycling its bytes
/// (ratio knobs for input:shuffle:output experiments; identity when the
/// length is unchanged).
pub fn resize_value(v: &Bytes, new_len: usize) -> Bytes {
    if new_len == v.len() {
        return v.clone();
    }
    if v.is_empty() {
        return Bytes::from(vec![0u8; new_len]);
    }
    let mut out = Vec::with_capacity(new_len);
    while out.len() < new_len {
        let take = (new_len - out.len()).min(v.len());
        out.extend_from_slice(&v[..take]);
    }
    Bytes::from(out)
}

/// Hands each item to `each` in order, with the [`md5_u64`] of its
/// value: consecutive items are hashed in pairs on [`md5_u64x2`]'s two
/// lanes, an odd last item on one.
fn with_digests<T>(
    mut items: impl Iterator<Item = T>,
    value: impl Fn(&T) -> &[u8],
    mut each: impl FnMut(T, u64),
) {
    while let Some(x) = items.next() {
        let Some(y) = items.next() else {
            let digest = md5_u64(value(&x));
            return each(x, digest);
        };
        let (dx, dy) = md5_u64x2(value(&x), value(&y));
        each(x, dx);
        each(y, dy);
    }
}

/// The chain's map UDF: per record, MD5 + byte-sum "work", key
/// scattering, optional value resize (map output ratio).
pub struct ChainMapper {
    /// Salt so each job scatters keys differently.
    salt: u64,
    /// Output bytes per input byte (1.0 = the paper's 1:1).
    ratio: f64,
}

impl ChainMapper {
    /// The one map body, given the MD5 of the record's value.
    fn scatter(&self, record: Record, digest: u64, emit: Emit<'_>) {
        // The paper's correctness computations: `digest` and the byte
        // sum. The key scatter is a function of content only.
        let byte_sum: u64 = record.value.iter().map(|&b| b as u64).sum();
        let new_key = mix64(record.key ^ digest ^ byte_sum ^ self.salt);
        let new_len = ((record.value.len() as f64) * self.ratio).round() as usize;
        emit(Record::new(new_key, resize_value(&record.value, new_len)));
    }
}

impl Mapper for ChainMapper {
    /// One record on one lane: through the pairing loop, a one-record
    /// block cost the per-record path 6–12 % on the benchmark's probe.
    fn map(&self, record: Record, emit: Emit<'_>) {
        let digest = md5_u64(&record.value);
        self.scatter(record, digest, emit);
    }

    fn map_block(&self, records: &mut dyn Iterator<Item = Record>, emit: Emit<'_>) {
        with_digests(records, |r| &r.value, |r, d| self.scatter(r, d, emit));
    }
}

/// The chain's reduce UDF: re-emits each value under its key after the
/// same MD5 + byte-sum work, optionally resized (output ratio).
pub struct ChainReducer {
    ratio: f64,
}

impl ChainReducer {
    /// The one reduce body, behind `reduce` and `reduce_groups`: values
    /// pair up across group boundaries (one value per scattered key).
    fn reduce_values<'v>(&self, values: impl Iterator<Item = (u64, &'v Bytes)>, emit: Emit<'_>) {
        with_digests(
            values,
            |(_, v)| v,
            |(key, v), digest| {
                // Nothing downstream reads the reducer's two correctness
                // computations (the mapper's feed its key scatter), and
                // `md5` is allocation-free and inlinable, so without
                // `black_box` the optimiser may delete the very work the
                // paper's workload is defined by.
                black_box(digest);
                black_box(v.iter().map(|&b| b as u64).sum::<u64>());
                let new_len = ((v.len() as f64) * self.ratio).round() as usize;
                emit(Record::new(key, resize_value(v, new_len)));
            },
        );
    }
}

impl Reducer for ChainReducer {
    fn reduce(&self, key: u64, values: &[Bytes], emit: Emit<'_>) {
        self.reduce_values(values.iter().map(|v| (key, v)), emit);
    }

    fn reduce_groups(&self, groups: &[(u64, Vec<Bytes>)], emit: Emit<'_>) {
        let values = groups
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, v)));
        self.reduce_values(values, emit);
    }
}

/// Builder for an n-job chain.
#[derive(Clone)]
pub struct ChainBuilder {
    pub jobs: u32,
    pub num_reducers: u32,
    pub output_replication: u32,
    pub placement: PlacementPolicy,
    pub splittable: bool,
    /// Shuffle bytes per input byte (the paper's ratio middle term).
    pub map_ratio: f64,
    /// Output bytes per shuffle byte (the paper's ratio last term).
    pub reduce_ratio: f64,
    pub input_path: String,
    /// DFS namespace prefix for the chain's outputs: job `j` writes
    /// `"<prefix>out/<j>"`. Empty by default (the classic `"out/<j>"`
    /// layout); concurrent chains — e.g. per-tenant submissions on the
    /// job service — set a distinct prefix (like `"t3/c0/"`) so their
    /// output files never collide. The prefix does not feed any UDF
    /// salt, so digests stay invariant across namespaces.
    pub output_prefix: String,
    /// Base added to each job's [`JobId`] (job `j` gets
    /// `JobId(job_base + j)`). Map-output store entries are keyed by
    /// `JobId`, so concurrent chains need disjoint id ranges; the
    /// mapper salt uses the *local* index `j`, keeping digests
    /// identical for any base.
    pub job_base: u32,
    /// Optional map-side combiner applied to every job of the chain.
    /// The chain's reducer re-emits values rather than aggregating
    /// them, so the default is `None`; aggregation workloads (see
    /// `crate::agg`) opt in.
    pub combiner: Option<Arc<dyn Combiner>>,
}

impl std::fmt::Debug for ChainBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainBuilder")
            .field("jobs", &self.jobs)
            .field("num_reducers", &self.num_reducers)
            .field("output_replication", &self.output_replication)
            .field("splittable", &self.splittable)
            .field("combiner", &self.combiner.is_some())
            .finish_non_exhaustive()
    }
}

impl ChainBuilder {
    /// The paper's default: 7 jobs, 1/1/1 ratios.
    pub fn new(jobs: u32, num_reducers: u32) -> Self {
        Self {
            jobs,
            num_reducers,
            output_replication: 1,
            placement: PlacementPolicy::WriterLocal,
            splittable: true,
            map_ratio: 1.0,
            reduce_ratio: 1.0,
            input_path: "input".to_string(),
            output_prefix: String::new(),
            job_base: 0,
            combiner: None,
        }
    }

    pub fn replication(mut self, factor: u32) -> Self {
        self.output_replication = factor;
        self
    }

    pub fn ratios(mut self, map_ratio: f64, reduce_ratio: f64) -> Self {
        self.map_ratio = map_ratio;
        self.reduce_ratio = reduce_ratio;
        self
    }

    pub fn splittable(mut self, yes: bool) -> Self {
        self.splittable = yes;
        self
    }

    /// Installs a map-side combiner on every job of the chain.
    pub fn combiner(mut self, c: Arc<dyn Combiner>) -> Self {
        self.combiner = Some(c);
        self
    }

    /// Reads the generated input from `path` instead of `"input"`.
    pub fn input(mut self, path: impl Into<String>) -> Self {
        self.input_path = path.into();
        self
    }

    /// Namespaces the chain for concurrent execution: outputs land
    /// under `"<prefix>out/<j>"` and job ids start at `base + 1`. Use a
    /// distinct `(prefix, base)` per in-flight chain so DFS paths and
    /// map-output store keys never collide across chains. Digests are
    /// unaffected: the mapper salt depends only on the local job index.
    pub fn namespace(mut self, prefix: impl Into<String>, base: u32) -> Self {
        self.output_prefix = prefix.into();
        self.job_base = base;
        self
    }

    pub fn build(&self) -> ChainSpec {
        assert!(self.jobs >= 1);
        let jobs = (1..=self.jobs)
            .map(|j| {
                let input = if j == 1 {
                    self.input_path.clone()
                } else {
                    prefixed_output_path(&self.output_prefix, j - 1)
                };
                JobSpec {
                    job: JobId(self.job_base + j),
                    input,
                    output: prefixed_output_path(&self.output_prefix, j),
                    num_reducers: self.num_reducers,
                    output_replication: self.output_replication,
                    placement: self.placement,
                    mapper: Arc::new(ChainMapper {
                        salt: 0xc4a1_0000 + j as u64,
                        ratio: self.map_ratio,
                    }),
                    reducer: Arc::new(ChainReducer {
                        ratio: self.reduce_ratio,
                    }),
                    combiner: self.combiner.clone(),
                    splittable: self.splittable,
                }
            })
            .collect();
        ChainSpec { jobs }
    }
}

/// DFS path of job `j`'s output.
pub fn output_path(j: u32) -> String {
    format!("out/{j}")
}

/// DFS path of job `j`'s output under a chain namespace prefix.
fn prefixed_output_path(prefix: &str, j: u32) -> String {
    format!("{prefix}out/{j}")
}

/// A built chain: `jobs[0]` is job 1.
#[derive(Clone, Debug)]
pub struct ChainSpec {
    pub jobs: Vec<JobSpec>,
}

impl ChainSpec {
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Spec of job `j` (1-based *local* chain position; equals
    /// [`JobId`] when the chain is unnamespaced, i.e. `job_base == 0`).
    pub fn job(&self, j: u32) -> &JobSpec {
        &self.jobs[(j - 1) as usize]
    }

    /// DFS path of the final output.
    pub fn final_output(&self) -> &str {
        &self.jobs.last().expect("non-empty chain").output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_of_deterministic_and_sized() {
        assert_eq!(value_of(1, 10), value_of(1, 10));
        assert_ne!(value_of(1, 10), value_of(2, 10));
        assert_eq!(value_of(3, 13).len(), 13);
        assert_eq!(value_of(3, 0).len(), 0);
    }

    #[test]
    fn resize_identity_and_cycling() {
        let v = Bytes::from_static(b"abcd");
        assert_eq!(resize_value(&v, 4), v);
        assert_eq!(resize_value(&v, 2), Bytes::from_static(b"ab"));
        assert_eq!(resize_value(&v, 10), Bytes::from_static(b"abcdabcdab"));
        assert_eq!(resize_value(&Bytes::new(), 3).len(), 3);
    }

    #[test]
    fn mapper_is_deterministic_and_conserves_bytes() {
        let m = ChainMapper {
            salt: 7,
            ratio: 1.0,
        };
        let rec = Record::new(42, value_of(9, 50));
        let mut out1 = Vec::new();
        m.map(rec.clone(), &mut |r| out1.push(r));
        let mut out2 = Vec::new();
        m.map(rec.clone(), &mut |r| out2.push(r));
        assert_eq!(out1, out2);
        assert_eq!(out1.len(), 1);
        assert_eq!(out1[0].value, rec.value, "1:1 ratio keeps the value");
        assert_ne!(out1[0].key, rec.key, "key is scattered");
    }

    #[test]
    fn mapper_ratio_changes_volume() {
        let m = ChainMapper {
            salt: 7,
            ratio: 2.0,
        };
        let mut out = Vec::new();
        m.map(Record::new(1, value_of(1, 40)), &mut |r| out.push(r));
        assert_eq!(out[0].value.len(), 80);
    }

    #[test]
    fn reducer_emits_every_value() {
        let r = ChainReducer { ratio: 1.0 };
        let values = vec![value_of(1, 10), value_of(2, 10)];
        let mut out = Vec::new();
        r.reduce(5, &values, &mut |rec| out.push(rec));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|rec| rec.key == 5));
    }

    /// Records of varied lengths, so paired lanes often differ in block
    /// count.
    fn records(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(i, value_of(i, (i * 37 % 200) as usize)))
            .collect()
    }

    #[test]
    fn map_block_equals_per_record_map() {
        let m = ChainMapper {
            salt: 11,
            ratio: 1.5,
        };
        for n in [0, 1, 2, 3, 5, 2341] {
            let input = records(n);
            let mut one = Vec::new();
            for r in input.clone() {
                m.map(r, &mut |out| one.push(out));
            }
            let mut block = Vec::new();
            m.map_block(&mut input.into_iter(), &mut |out| block.push(out));
            assert_eq!(block, one, "{n} records");
        }
    }

    #[test]
    fn reduce_groups_equals_per_group_reduce() {
        let r = ChainReducer { ratio: 0.5 };
        let group = |key: u64, sizes: u64| {
            let values = (0..sizes).map(|i| value_of(key * 1000 + i, (i * 53 % 150) as usize));
            (key, values.collect::<Vec<_>>())
        };
        let singles: Vec<_> = (0..7).map(|k| group(k, 1)).collect();
        let mixed: Vec<_> = (0..9).map(|k| group(k, 1 + k % 3)).collect();
        let wide = vec![group(3, 490)];
        for batch in [singles, mixed, wide] {
            let mut per_group = Vec::new();
            for (key, values) in &batch {
                r.reduce(*key, values, &mut |out| per_group.push(out));
            }
            let mut grouped = Vec::new();
            r.reduce_groups(&batch, &mut |out| grouped.push(out));
            assert_eq!(grouped, per_group, "{} groups", batch.len());
        }
    }

    #[test]
    fn chain_wiring() {
        let chain = ChainBuilder::new(7, 10).build();
        assert_eq!(chain.len(), 7);
        assert_eq!(chain.job(1).input, "input");
        assert_eq!(chain.job(1).output, "out/1");
        assert_eq!(chain.job(7).input, "out/6");
        assert_eq!(chain.final_output(), "out/7");
        for spec in &chain.jobs {
            assert_eq!(spec.num_reducers, 10);
            assert_eq!(spec.output_replication, 1);
        }
    }

    #[test]
    fn builder_knobs() {
        let chain = ChainBuilder::new(2, 4)
            .replication(3)
            .splittable(false)
            .ratios(2.0, 0.5)
            .build();
        assert_eq!(chain.job(1).output_replication, 3);
        assert!(!chain.job(2).splittable);
    }

    #[test]
    fn namespaced_chain_keeps_udfs_but_moves_paths_and_ids() {
        let plain = ChainBuilder::new(3, 4).build();
        let ns = ChainBuilder::new(3, 4)
            .input("t2/input")
            .namespace("t2/c5/", 300)
            .build();
        assert_eq!(ns.job(1).input, "t2/input");
        assert_eq!(ns.job(1).output, "t2/c5/out/1");
        assert_eq!(ns.job(3).input, "t2/c5/out/2");
        assert_eq!(ns.final_output(), "t2/c5/out/3");
        assert_eq!(ns.job(2).job, JobId(302));
        // Same local index → same mapper behaviour: digests can't
        // depend on the namespace.
        let rec = Record::new(1, value_of(1, 20));
        for j in 1..=3 {
            let mut a = Vec::new();
            plain.job(j).mapper.map(rec.clone(), &mut |r| a.push(r));
            let mut b = Vec::new();
            ns.job(j).mapper.map(rec.clone(), &mut |r| b.push(r));
            assert_eq!(a, b, "job {j} mapper diverged under namespacing");
        }
    }

    #[test]
    fn different_jobs_scatter_differently() {
        let chain = ChainBuilder::new(2, 4).build();
        let rec = Record::new(1, value_of(1, 20));
        let mut k1 = Vec::new();
        chain
            .job(1)
            .mapper
            .map(rec.clone(), &mut |r| k1.push(r.key));
        let mut k2 = Vec::new();
        chain
            .job(2)
            .mapper
            .map(rec.clone(), &mut |r| k2.push(r.key));
        assert_ne!(k1, k2, "per-job salt must differ");
    }
}
