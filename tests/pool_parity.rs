//! Pool-parity suite: a round's outputs, their order, and every `JobMetrics`
//! counter are a function of the inputs, the round and `num_threads` alone —
//! never of which worker pool runs the round or how many workers it has.
//!
//! Pinned invariants:
//!
//! 1. **Byte-identical parity sweep** at `num_threads ∈ {1, 2, 8}`, with and
//!    without combiners, deterministic and relaxed: the process-global pool,
//!    a shared 3-worker pool and a zero-worker (inline) pool produce the same
//!    outputs in the same order, and outputs and counters match the round's
//!    dataflow computed directly on scoped threads (timings excluded — they
//!    are measurements, not results).
//! 2. **The deterministic order itself**: reduce shards in
//!    [`shard_for_hash`] order, keys sorted within each shard, checked against
//!    a serial computation over the public hash.
//! 3. **A forced 64 KiB budget** spills and changes nothing else.
//! 4. **Edge cases**: a pool with more workers than input items, an
//!    empty-input round, and one pool reused across two pipelines of
//!    different key/value types (exercising the type-erased buffer
//!    recycling).
//! 5. **Planner-level parity**: a real strategy run through
//!    `EnumerationRequest` counts the same on the global and a shared pool.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use subgraph_mr::mapreduce::{
    hash_of, shard_for_hash, EngineConfig, JobMetrics, MapContext, Pipeline, PipelineReport,
    ReduceContext, Round, WorkerPool,
};
use subgraph_mr::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Word-count style round; 53 distinct keys so every reduce shard sees work
/// at 8 threads.
fn counting_round<'a>(combine: bool) -> Round<'a, u64, u64, u64, (u64, u64)> {
    let round = Round::new(
        "count",
        |x: &u64, ctx: &mut MapContext<u64, u64>| ctx.emit(x % 53, *x),
        |k: &u64, vs: &[u64], ctx: &mut ReduceContext<(u64, u64)>| {
            ctx.add_work(vs.len() as u64);
            ctx.emit((*k, vs.iter().sum()));
        },
    );
    if combine {
        round.combiner(|_k: &u64, vs: Vec<u64>| vec![vs.iter().sum()])
    } else {
        round
    }
}

/// Per-round counters with wall-clock timings zeroed for comparison.
fn counters_of(report: &PipelineReport) -> Vec<(String, JobMetrics)> {
    report
        .rounds
        .iter()
        .map(|round| {
            let mut metrics = round.metrics.clone();
            metrics.map_time = Duration::ZERO;
            metrics.partition_time = Duration::ZERO;
            metrics.shuffle_time = Duration::ZERO;
            metrics.reduce_time = Duration::ZERO;
            (round.name.clone(), metrics)
        })
        .collect()
}

/// The counting round's dataflow computed directly on scoped threads — one
/// thread per logical map shard of `len.div_ceil(threads)` records, then one
/// per reduce shard — with the counters the engine must report for it
/// (timings and spill counters zero). Reduce shards group keys in arrival
/// order, sorted when `deterministic`, and their outputs are concatenated in
/// shard order.
fn scoped_thread_counting(
    inputs: &[u64],
    threads: usize,
    combine: bool,
    deterministic: bool,
) -> (Vec<(u64, u64)>, JobMetrics) {
    type Groups = Vec<(u64, Vec<u64>)>;
    fn group_in_order(pairs: impl IntoIterator<Item = (u64, u64)>) -> Groups {
        let mut groups: Groups = Vec::new();
        for (key, value) in pairs {
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => groups.push((key, vec![value])),
            }
        }
        groups
    }

    let mut metrics = JobMetrics {
        input_records: inputs.len(),
        ..JobMetrics::default()
    };
    let chunk = inputs.len().div_ceil(threads).max(1);
    let map_shards: Vec<(usize, Vec<Vec<(u64, u64)>>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|shard| {
                scope.spawn(move || {
                    let pairs: Vec<(u64, u64)> = shard.iter().map(|x| (x % 53, *x)).collect();
                    let emitted = pairs.len();
                    let shipped = if combine {
                        group_in_order(pairs)
                            .into_iter()
                            .map(|(k, vs)| (k, vs.iter().sum()))
                            .collect()
                    } else {
                        pairs
                    };
                    let mut outboxes = vec![Vec::new(); threads];
                    for (key, value) in shipped {
                        outboxes[shard_for_hash(hash_of(&key), threads)].push((key, value));
                    }
                    (emitted, outboxes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (emitted, outboxes) in &map_shards {
        let shipped: usize = outboxes.iter().map(Vec::len).sum();
        metrics.key_value_pairs += emitted;
        if combine {
            metrics.combiner_input_records += emitted;
            metrics.combiner_output_records += shipped;
        }
        metrics.shuffle_records += shipped;
        metrics.shuffle_bytes += 16 * shipped as u64;
    }

    let reduce_shards: Vec<Groups> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|shard| {
                let map_shards = &map_shards;
                scope.spawn(move || {
                    let arrivals = map_shards
                        .iter()
                        .flat_map(|(_, outboxes)| outboxes[shard].iter().copied());
                    let mut groups = group_in_order(arrivals);
                    if deterministic {
                        groups.sort_by_key(|(k, _)| *k);
                    }
                    groups
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut outputs = Vec::new();
    for groups in &reduce_shards {
        metrics.reducers_used += groups.len();
        for (key, values) in groups {
            metrics.max_reducer_input = metrics.max_reducer_input.max(values.len());
            metrics.reducer_work += values.len() as u64;
            outputs.push((*key, values.iter().sum()));
        }
    }
    metrics.outputs = outputs.len();
    (outputs, metrics)
}

/// The engine's outputs and counters against [`scoped_thread_counting`]:
/// counters field for field, outputs in exact order when deterministic and as
/// a multiset otherwise.
fn assert_matches_scoped_threads(
    outputs: &[(u64, u64)],
    report: &PipelineReport,
    expected: &(Vec<(u64, u64)>, JobMetrics),
    deterministic: bool,
    context: &str,
) {
    let (expected_out, expected_metrics) = expected;
    assert_eq!(
        counters_of(report),
        vec![("count".to_string(), expected_metrics.clone())],
        "{context}"
    );
    if deterministic {
        assert_eq!(outputs, expected_out.as_slice(), "{context}");
    } else {
        let mut got = outputs.to_vec();
        let mut want = expected_out.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{context}");
    }
}

#[test]
fn pooled_execution_is_byte_identical_to_scoped_threads() {
    let inputs: Vec<u64> = (0..2000).map(|i| i * 37 % 613).collect();
    let shared = Arc::new(WorkerPool::new(3));
    let inline = Arc::new(WorkerPool::new(0));
    for threads in THREAD_COUNTS {
        for combine in [true, false] {
            for deterministic in [true, false] {
                let context =
                    format!("threads={threads} combine={combine} deterministic={deterministic}");
                let expected = scoped_thread_counting(&inputs, threads, combine, deterministic);
                let mut base = EngineConfig::with_threads(threads).combiners(combine);
                base.deterministic = deterministic;
                let mut first: Option<Vec<(u64, u64)>> = None;
                for pool in [&shared, &inline] {
                    let config = base.clone().with_pool(Arc::clone(pool));
                    let (outputs, report) = Pipeline::new()
                        .round(counting_round(combine))
                        .run(&inputs, &config);
                    assert_matches_scoped_threads(
                        &outputs,
                        &report,
                        &expected,
                        deterministic,
                        &context,
                    );
                    // Pool size never changes the order, relaxed runs included.
                    match &first {
                        Some(first) => assert_eq!(&outputs, first, "{context}"),
                        None => first = Some(outputs),
                    }
                }
            }
        }
    }
}

#[test]
fn global_pool_default_matches_scoped_threads_too() {
    let inputs: Vec<u64> = (0..2000).map(|i| i * 37 % 613).collect();
    let shared = Arc::new(WorkerPool::new(3));
    for threads in THREAD_COUNTS {
        for combine in [true, false] {
            for deterministic in [true, false] {
                let context =
                    format!("threads={threads} combine={combine} deterministic={deterministic}");
                let mut global = EngineConfig::with_threads(threads).combiners(combine);
                global.deterministic = deterministic;
                let (outputs, report) = Pipeline::new()
                    .round(counting_round(combine))
                    .run(&inputs, &global);
                let expected = scoped_thread_counting(&inputs, threads, combine, deterministic);
                assert_matches_scoped_threads(
                    &outputs,
                    &report,
                    &expected,
                    deterministic,
                    &context,
                );
                // The global pool and a shared one agree on the exact order.
                let (shared_out, _) = Pipeline::new()
                    .round(counting_round(combine))
                    .run(&inputs, &global.clone().with_pool(Arc::clone(&shared)));
                assert_eq!(outputs, shared_out, "{context}");
            }
        }
    }
}

#[test]
fn deterministic_output_follows_shard_then_key_order() {
    // The serial computation of what a deterministic run must return: group
    // by key, route each key with the engine's public hash, emit shard by
    // shard with each shard's keys sorted.
    let inputs: Vec<u64> = (0..2500).map(|i| i * 41 % 733).collect();
    let pool = Arc::new(WorkerPool::new(3));
    for threads in THREAD_COUNTS {
        let mut shards: Vec<BTreeMap<u64, Vec<u64>>> = vec![BTreeMap::new(); threads];
        for x in &inputs {
            let key = x % 53;
            shards[shard_for_hash(hash_of(&key), threads)]
                .entry(key)
                .or_default()
                .push(*x);
        }
        let expected: Vec<(u64, u64)> = shards
            .iter()
            .flat_map(|shard| shard.iter().map(|(k, vs)| (*k, vs.iter().sum())))
            .collect();

        let config = EngineConfig::with_threads(threads).with_pool(Arc::clone(&pool));
        let (outputs, report) = Pipeline::new()
            .round(counting_round(false))
            .run(&inputs, &config);
        let context = format!("threads={threads}");
        assert_eq!(outputs, expected, "{context}");
        let metrics = &report.rounds[0].metrics;
        assert_eq!(metrics.key_value_pairs, inputs.len(), "{context}");
        assert_eq!(metrics.shuffle_records, inputs.len(), "{context}");
        assert_eq!(metrics.shuffle_bytes, 16 * inputs.len() as u64, "{context}");
        assert_eq!(metrics.reducers_used, expected.len(), "{context}");
        assert_eq!(metrics.reducer_work, inputs.len() as u64, "{context}");
        let largest = shards.iter().flat_map(|s| s.values().map(Vec::len)).max();
        assert_eq!(Some(metrics.max_reducer_input), largest, "{context}");
        assert_eq!(metrics.outputs, expected.len(), "{context}");
    }
}

/// [`counters_of`] with the spill counters also flattened — the one permitted
/// difference between a budgeted and an unbudgeted run.
fn counters_sans_spill(report: &PipelineReport) -> Vec<(String, JobMetrics)> {
    counters_of(report)
        .into_iter()
        .map(|(name, mut metrics)| {
            metrics.spilled_bytes = 0;
            metrics.spill_runs = 0;
            metrics.spill_read_secs = Duration::ZERO;
            (name, metrics)
        })
        .collect()
}

#[test]
fn a_64k_budget_spills_and_matches_the_unbudgeted_run() {
    // Forced 64 KiB shuffle budget on a shared pool: the run must actually
    // seal, spill and merge runs from disk, and still produce the exact
    // output order and (spill counters aside) the exact counters of the
    // unbudgeted run on the global pool. 250k records are enough that even
    // at 8 threads (64 map×reduce buckets) every bucket fills several
    // chunks, so sealed chunks exist to spill.
    let inputs: Vec<u64> = (0..250_000).map(|i| i * 41 % 733).collect();
    let pool = Arc::new(WorkerPool::new(3));
    for threads in THREAD_COUNTS {
        let context = format!("threads={threads} budget=64K");
        let base = EngineConfig::with_threads(threads);
        let budgeted = base
            .clone()
            .memory_budget(64 << 10)
            .with_pool(Arc::clone(&pool));

        let (budgeted_out, budgeted_report) = Pipeline::new()
            .round(counting_round(false))
            .run(&inputs, &budgeted);
        let (base_out, base_report) = Pipeline::new()
            .round(counting_round(false))
            .run(&inputs, &base);

        assert_eq!(budgeted_out, base_out, "{context}");
        assert_eq!(
            counters_sans_spill(&budgeted_report),
            counters_sans_spill(&base_report),
            "{context}"
        );
        let spill = &budgeted_report.rounds[0].metrics;
        assert!(
            spill.spilled_bytes > 0 && spill.spill_runs > 0,
            "{context}: 250k records must overflow a 64 KiB budget \
             (spilled_bytes={}, spill_runs={})",
            spill.spilled_bytes,
            spill.spill_runs
        );
        // The unbudgeted run never touched disk.
        assert_eq!(base_report.rounds[0].metrics.spilled_bytes, 0);
    }
}

#[test]
fn more_pool_workers_than_input_items() {
    let pool = Arc::new(WorkerPool::new(8));
    let inputs: Vec<u64> = vec![5, 9, 13];
    let config = EngineConfig::with_threads(8).with_pool(Arc::clone(&pool));
    let (outputs, report) = Pipeline::new()
        .round(counting_round(false))
        .run(&inputs, &config);
    let inline = EngineConfig::with_threads(8).with_pool(Arc::new(WorkerPool::new(0)));
    let (inline_outputs, inline_report) = Pipeline::new()
        .round(counting_round(false))
        .run(&inputs, &inline);
    assert_eq!(outputs, inline_outputs);
    assert_eq!(counters_of(&report), counters_of(&inline_report));
    assert_eq!(report.rounds[0].metrics.input_records, 3);
}

#[test]
fn empty_input_pipeline_on_the_pool() {
    let pool = Arc::new(WorkerPool::new(2));
    let inputs: Vec<u64> = Vec::new();
    for threads in THREAD_COUNTS {
        let config = EngineConfig::with_threads(threads).with_pool(Arc::clone(&pool));
        let (outputs, report) = Pipeline::new()
            .round(counting_round(true))
            .run(&inputs, &config);
        assert!(outputs.is_empty());
        let metrics = &report.rounds[0].metrics;
        assert_eq!(metrics.key_value_pairs, 0);
        assert_eq!(metrics.shuffle_records, 0);
        assert_eq!(metrics.reducers_used, 0);
        assert_eq!(metrics.outputs, 0);
    }
}

#[test]
fn one_pool_serves_two_pipelines_of_different_types() {
    // Sequential reuse across rounds with *different* key/value layouts:
    // the buffer pool must recycle what it can and never corrupt a Vec.
    let pool = Arc::new(WorkerPool::new(2));
    let config = EngineConfig::with_threads(4).with_pool(Arc::clone(&pool));

    for _ in 0..3 {
        let numbers: Vec<u64> = (0..900).collect();
        let (mut counts, _) = Pipeline::new()
            .round(counting_round(true))
            .run(&numbers, &config);
        counts.sort_unstable();
        assert_eq!(counts.len(), 53);

        // Heap-backed keys (Vec<u32>) — a different element layout than the
        // u64 round above.
        let words = vec!["map", "reduce", "combine", "shuffle", "sort", "merge"];
        let (mut lengths, report) = Pipeline::new()
            .round(Round::new(
                "lengths",
                |w: &&str, ctx: &mut MapContext<Vec<u32>, u64>| ctx.emit(vec![w.len() as u32], 1),
                |k: &Vec<u32>, ones: &[u64], ctx: &mut ReduceContext<(u32, u64)>| {
                    ctx.emit((k[0], ones.iter().sum()))
                },
            ))
            .run(&words, &config);
        lengths.sort_unstable();
        assert_eq!(report.rounds[0].metrics.input_records, 6);
        assert_eq!(
            lengths.iter().map(|&(_, c)| c).sum::<u64>(),
            words.len() as u64
        );
    }
}

#[test]
fn planner_strategies_count_the_same_on_both_executors() {
    // The two executors are the process-global pool (the default) and an
    // explicitly shared pool (what `subgraph serve` hands every query).
    let graph = generators::gnm(300, 1200, 7);
    let shared = Arc::new(WorkerPool::new(2));
    for threads in [1usize, 4] {
        let global = EnumerationRequest::named("triangle", &graph)
            .unwrap()
            .reducers(64)
            .engine(EngineConfig::with_threads(threads))
            .count()
            .unwrap();
        let pooled = EnumerationRequest::named("triangle", &graph)
            .unwrap()
            .reducers(64)
            .engine(EngineConfig::with_threads(threads).with_pool(Arc::clone(&shared)))
            .count()
            .unwrap();
        assert_eq!(pooled, global, "threads={threads}");
    }
}
