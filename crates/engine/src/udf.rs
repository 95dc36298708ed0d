//! User-defined functions: the map and reduce hooks.
//!
//! UDFs must be **deterministic**: recomputation-based failure
//! resilience regenerates lost data by re-running the same function on
//! the same input, so a UDF that consults a stateful RNG or wall clock
//! would make recomputed output diverge from the lost original. The
//! workload crate derives any "randomness" (e.g. key scattering) from
//! record content for exactly this reason.

use bytes::Bytes;
use rcmp_model::Record;

/// Output callback handed to UDFs.
pub type Emit<'a> = &'a mut dyn FnMut(Record);

/// The map UDF: applied to each input record (§II).
pub trait Mapper: Send + Sync {
    fn map(&self, record: Record, emit: Emit<'_>);

    /// Maps one input block's records: the engine's only entry point.
    /// Must emit what [`Mapper::map`] on each record in turn would.
    fn map_block(&self, records: &mut dyn Iterator<Item = Record>, emit: Emit<'_>) {
        for record in records {
            self.map(record, emit);
        }
    }
}

/// The reduce UDF: applied once per key with all the key's values (§II).
///
/// Values arrive sorted (byte-wise), making the invocation deterministic
/// regardless of shuffle fetch order — a requirement for recomputation
/// to regenerate byte-identical partitions.
pub trait Reducer: Send + Sync {
    fn reduce(&self, key: u64, values: &[Bytes], emit: Emit<'_>);

    /// Reduces a batch of key groups: the engine's only entry point.
    /// Must emit what [`Reducer::reduce`] on each group in turn would.
    fn reduce_groups(&self, groups: &[(u64, Vec<Bytes>)], emit: Emit<'_>) {
        for (key, values) in groups {
            self.reduce(*key, values, emit);
        }
    }
}

/// The optional map-side combiner: pre-aggregates one mapper's bucket
/// records per key before they are persisted to the map-output store,
/// shrinking local and remote shuffle bytes (Lee et al.'s in-node
/// combiners).
///
/// Correctness rule: a combiner must be **associative and commutative**
/// over values, agree with the reducer's aggregation, and emit records
/// under the key it was given — the engine applies it to an arbitrary
/// per-mapper subset of a key's values, and the reducer then sees
/// combined values in place of raw ones. The engine never applies a
/// combiner to a *split* reduce task's bucket: the Fig.-5 reuse rule
/// demands that a partition regenerated by split reducers stays
/// byte-identical to the one a whole run would produce, so split-keyed
/// buckets always carry the raw record stream and leave all aggregation
/// to the reducer.
pub trait Combiner: Send + Sync {
    /// Combines one key's values (sorted byte-wise) into fewer records.
    fn combine(&self, key: u64, values: &[Bytes], emit: Emit<'_>);
}

/// Adapts a plain function/closure into a [`Combiner`].
pub struct FnCombiner<F>(pub F);

impl<F> Combiner for FnCombiner<F>
where
    F: Fn(u64, &[Bytes], Emit<'_>) + Send + Sync,
{
    fn combine(&self, key: u64, values: &[Bytes], emit: Emit<'_>) {
        (self.0)(key, values, emit)
    }
}

/// Passes every record through unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityMapper;

impl Mapper for IdentityMapper {
    fn map(&self, record: Record, emit: Emit<'_>) {
        emit(record);
    }
}

/// Re-emits every (key, value) pair unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityReducer;

impl Reducer for IdentityReducer {
    fn reduce(&self, key: u64, values: &[Bytes], emit: Emit<'_>) {
        for v in values {
            emit(Record::new(key, v.clone()));
        }
    }
}

/// Adapts a plain function/closure into a [`Mapper`].
pub struct FnMapper<F>(pub F);

impl<F> Mapper for FnMapper<F>
where
    F: Fn(Record, Emit<'_>) + Send + Sync,
{
    fn map(&self, record: Record, emit: Emit<'_>) {
        (self.0)(record, emit)
    }
}

/// Adapts a plain function/closure into a [`Reducer`].
pub struct FnReducer<F>(pub F);

impl<F> Reducer for FnReducer<F>
where
    F: Fn(u64, &[Bytes], Emit<'_>) + Send + Sync,
{
    fn reduce(&self, key: u64, values: &[Bytes], emit: Emit<'_>) {
        (self.0)(key, values, emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_map(m: &dyn Mapper, rec: Record) -> Vec<Record> {
        let mut out = Vec::new();
        m.map(rec, &mut |r| out.push(r));
        out
    }

    #[test]
    fn identity_mapper_passthrough() {
        let rec = Record::new(5, &b"v"[..]);
        assert_eq!(collect_map(&IdentityMapper, rec.clone()), vec![rec]);
    }

    #[test]
    fn identity_reducer_emits_all_values() {
        let mut out = Vec::new();
        let values = vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")];
        IdentityReducer.reduce(9, &values, &mut |r| out.push(r));
        assert_eq!(
            out,
            vec![Record::new(9, &b"a"[..]), Record::new(9, &b"b"[..])]
        );
    }

    #[test]
    fn fn_adapters() {
        let doubler = FnMapper(|r: Record, emit: Emit<'_>| {
            emit(r.clone());
            emit(r);
        });
        assert_eq!(collect_map(&doubler, Record::new(1, &b"x"[..])).len(), 2);

        let counter = FnReducer(|key, values: &[Bytes], emit: Emit<'_>| {
            emit(Record::new(
                key,
                (values.len() as u32).to_le_bytes().to_vec(),
            ));
        });
        let mut out = Vec::new();
        counter.reduce(3, &[Bytes::from_static(b"a")], &mut |r| out.push(r));
        assert_eq!(out[0].value.as_ref(), 1u32.to_le_bytes());
    }
}
