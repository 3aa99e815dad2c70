//! A serial reference executor: the dataflow of one round, spelled out on a
//! single thread with plain standard-library collections, for the parity
//! suites to pin the engine against.
//!
//! It fixes exactly what the engine promises and nothing about how:
//!
//! * logical map shards of `len.div_ceil(threads)` records — the combiner's
//!   scope;
//! * one combine step per map shard when combiners are on, over the shard's
//!   pairs grouped by key (values in emission order);
//! * routing of every shipped record to reduce shard
//!   `shard_for_hash(hash_of(key), threads)`, in map-shard order;
//! * per-reduce-shard grouping in arrival order, with the shard's keys sorted
//!   when [`EngineConfig::deterministic`] is set, and the shards' outputs
//!   concatenated in shard order.
//!
//! Deterministic configs must therefore match it output for output; relaxed
//! ones as a multiset. Every non-timing [`JobMetrics`] counter must match
//! exactly, except the spill counters, which stay zero here: the reference
//! never spills.

use crate::engine::{shard_for_hash, EngineConfig};
use crate::hash::hash_of;
use crate::metrics::JobMetrics;
use crate::pipeline::Round;
use crate::sink::{CollectSink, OutputSink};
use crate::task::{MapContext, ReduceContext};
use std::collections::HashMap;
use std::hash::Hash;

/// Groups `(key, value)` pairs by key, keeping first-occurrence key order
/// and emission order within each key.
fn group_in_order<K: Hash + Eq + Clone, V>(pairs: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    let mut index: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<(K, Vec<V>)> = Vec::new();
    for (key, value) in pairs {
        let slot = *index.entry(key.clone()).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(value);
    }
    groups
}

/// Runs `round` over `inputs` serially and returns its outputs and counters
/// (all timings zero).
pub(crate) fn reference_round<I, K, V, O>(
    inputs: &[I],
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
) -> (Vec<O>, JobMetrics)
where
    K: Hash + Eq + Ord + Clone,
    O: Send + 'static,
{
    let threads = config.num_threads.max(1);
    let combiner = round.combiner.as_deref().filter(|_| config.use_combiners);
    let mut metrics = JobMetrics {
        input_records: inputs.len(),
        ..JobMetrics::default()
    };

    // Map (and combine) per logical shard, then route every shipped record.
    let mut inboxes: Vec<Vec<(K, V)>> = (0..threads).map(|_| Vec::new()).collect();
    for shard in inputs.chunks(inputs.len().div_ceil(threads).max(1)) {
        let mut ctx = MapContext::pairs();
        for record in shard {
            round.mapper.map(record, &mut ctx);
        }
        let pairs = ctx.into_pairs();
        metrics.key_value_pairs += pairs.len();
        let shipped = match combiner {
            None => pairs,
            Some(combiner) => {
                metrics.combiner_input_records += pairs.len();
                let mut combined = Vec::new();
                for (key, values) in group_in_order(pairs) {
                    for value in combiner.combine(&key, values) {
                        combined.push((key.clone(), value));
                    }
                }
                metrics.combiner_output_records += combined.len();
                combined
            }
        };
        for (key, value) in shipped {
            metrics.shuffle_records += 1;
            metrics.shuffle_bytes += (round.record_bytes)(&key, &value) as u64;
            inboxes[shard_for_hash(hash_of(&key), threads)].push((key, value));
        }
    }

    // Group and reduce per reduce shard, folding the shards in order.
    let mut sink = CollectSink::new();
    for inbox in inboxes {
        let mut groups = group_in_order(inbox);
        if config.deterministic {
            groups.sort_by(|a, b| a.0.cmp(&b.0));
        }
        metrics.reducers_used += groups.len();
        let largest = groups.iter().map(|(_, values)| values.len()).max();
        metrics.max_reducer_input = metrics.max_reducer_input.max(largest.unwrap_or(0));
        let mut ctx = ReduceContext::with_shard(sink.new_shard());
        for (key, values) in &groups {
            round.reducer.reduce(key, values, &mut ctx);
        }
        let (shard, work, emitted) = ctx.into_parts();
        metrics.reducer_work += work;
        metrics.outputs += emitted;
        sink.fold(shard);
    }
    (sink.into_items(), metrics)
}

/// `metrics` with every timing and spill counter zeroed: what the reference
/// reports, and what the parity suites compare.
pub(crate) fn comparable(mut metrics: JobMetrics) -> JobMetrics {
    metrics.map_time = Default::default();
    metrics.partition_time = Default::default();
    metrics.shuffle_time = Default::default();
    metrics.reduce_time = Default::default();
    metrics.spill_read_secs = Default::default();
    metrics.spilled_bytes = 0;
    metrics.spill_runs = 0;
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::pool::WorkerPool;
    use std::collections::HashSet;
    use std::sync::Arc;

    type Out = (u64, u64, usize);

    /// Two emissions per record: a low-cardinality pair the deduplicating
    /// combiner collapses, and a high-cardinality one it cannot, so combined
    /// rounds still ship enough bytes to overflow a 64 KiB budget. Values
    /// are priced by a value-dependent weigher.
    fn sweep_round<'a>(combine: bool) -> Round<'a, u64, u64, u64, Out> {
        let round = Round::new(
            "sweep",
            |x: &u64, ctx: &mut MapContext<u64, u64>| {
                ctx.emit(x % 50, x % 1000);
                ctx.emit(x % 613, *x);
            },
            |k: &u64, vs: &[u64], ctx: &mut ReduceContext<Out>| {
                ctx.add_work(vs.len() as u64);
                let sum = vs
                    .iter()
                    .fold(0u64, |a, v| a.wrapping_mul(31).wrapping_add(*v));
                ctx.emit((*k, sum, vs.len()));
            },
        )
        .record_bytes(|_k: &u64, v: &u64| 8 + (v % 5) as usize);
        if combine {
            round.combiner(|_k: &u64, vs: Vec<u64>| {
                let mut seen = HashSet::new();
                vs.into_iter().filter(|v| seen.insert(*v)).collect()
            })
        } else {
            round
        }
    }

    fn run(
        round: Round<'_, u64, u64, u64, Out>,
        inputs: &[u64],
        config: &EngineConfig,
    ) -> (Vec<Out>, JobMetrics) {
        let (outputs, report) = Pipeline::new().round(round).run(inputs, config);
        (
            outputs,
            report.rounds.into_iter().next().expect("one round").metrics,
        )
    }

    fn sorted(mut outputs: Vec<Out>) -> Vec<Out> {
        outputs.sort_unstable();
        outputs
    }

    /// The parity sweep: threads {1, 2, 8} × combiner on/off × budget
    /// {unbounded, 64 KiB} × deterministic on/off. The engine must match the
    /// reference — in order when deterministic, as a multiset otherwise —
    /// with every non-timing counter equal, and every budgeted run must
    /// actually spill.
    #[test]
    fn the_engine_matches_the_reference_executor() {
        let inputs: Vec<u64> = (0..60_000u64).map(|i| i * 7919 % 100_003).collect();
        let pool = Arc::new(WorkerPool::new(2));
        for threads in [1usize, 2, 8] {
            for combine in [true, false] {
                for budget in [0usize, 64 << 10] {
                    for deterministic in [true, false] {
                        let context = format!(
                            "threads={threads} combine={combine} budget={budget} \
                             deterministic={deterministic}"
                        );
                        let mut config = EngineConfig::with_threads(threads)
                            .combiners(combine)
                            .memory_budget(budget)
                            .with_pool(Arc::clone(&pool));
                        config.deterministic = deterministic;
                        let (expected, expected_metrics) =
                            reference_round(&inputs, &sweep_round(combine), &config);
                        let (outputs, metrics) = run(sweep_round(combine), &inputs, &config);
                        if deterministic {
                            assert_eq!(outputs, expected, "{context}");
                        } else {
                            assert_eq!(sorted(outputs), sorted(expected), "{context}");
                        }
                        assert_eq!(metrics.spilled_bytes > 0, budget > 0, "{context}");
                        assert_eq!(comparable(metrics), expected_metrics, "{context}");
                    }
                }
            }
        }
    }
}
