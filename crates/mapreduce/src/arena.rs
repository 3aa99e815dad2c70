//! The round executor: a two-phase parallel exchange of flat byte arenas.
//!
//! A `Vec<(K, V)>` shuffle costs ~32 bytes per record for the paper's
//! triangle workloads (`(u64 hash, [u32; 3], Edge)` with padding) *twice* —
//! once in the map context's pair vector, once in the partitioned buckets.
//! The arena shuffle removes both: map workers serialize every shipped record
//! straight into one **byte arena per reduce shard** using the
//! [`ArenaCodec`] varint encoding (~10 bytes per triangle record), the
//! exchange transposes arena ownership without touching a record, and reduce
//! workers decode each arena chunk once while grouping, releasing consumed
//! chunks as they go — banked in the [`BufferPool`] for the next round, or,
//! under a memory budget, freed, so resident memory *falls* through the
//! reduce phase instead of peaking.
//!
//! A round without an active combiner encodes each emission the moment the
//! mapper makes it. A combining round collects one logical map shard's
//! emissions as pairs, groups them by key, runs the [`crate::Combiner`] on
//! each group, and encodes the surviving records into the same arenas,
//! routed by the hash computed while grouping.
//!
//! Under an [`EngineConfig::memory_budget`] the arena additionally spills:
//! when the round's resident chunk bytes cross the budget, the map worker
//! that crossed it seals its full chunks into run files (see [`crate::spill`])
//! and recycles the buffers, and the reduce phase streams each bucket's runs
//! back *before* its resident tail — run records are strictly older than
//! resident ones, so the merged order is exactly the in-memory order and the
//! merge is concatenation, not sort. Combined records spill like any other.
//!
//! Parity contract (pinned against the serial reference executor in
//! `crate::oracle`): outputs and every [`JobMetrics`] counter are a pure
//! function of the inputs, the round and the thread count — and, spill
//! counters aside, the same at every budget. The ingredients:
//!
//! * **Logical map shards** are `len.div_ceil(threads)` records, one pool
//!   task each; they define the combiner's scope and the arena fill order.
//! * **Routing** uses the emit-time FxHash + [`shard_for_hash`].
//! * **Grouping** uses a `PrehashedMap` whose capacity, hasher and insertion
//!   order (map-shard order, emission order within a shard — spilled runs
//!   then the resident tail preserve exactly that order) are fixed, so even
//!   the non-deterministic iteration order repeats.
//! * **`shuffle_bytes`** is priced by the round's record weigher exactly once
//!   per shipped record, on the reduce side, where each record is decoded.
//! * **Hash accounting**: each emitted key is hashed once on the map side
//!   (for routing, or for the combiner's grouping) and each shipped key once
//!   more at decode (for grouping), instead of carrying 8 hash bytes per
//!   record through the exchange. The debug hash counters assert exactly
//!   that shape.
//!
//! `partition_time` is zero for rounds without a combiner (partitioning
//! happens inside the emit call, so its cost is part of `map_time`) and the
//! combine-plus-encode slice of `map_time` for combining rounds.
//! `spill_read_secs` is likewise a slice of `reduce_time` (the critical-path
//! run-file reads).

use crate::engine::{shard_for_hash, EngineConfig};
use crate::hash::{hash_for_shuffle, prehashed_map_with_capacity, Prehashed, PrehashedMap};
use crate::metrics::JobMetrics;
use crate::pipeline::Round;
use crate::pool::BufferPool;
use crate::sink::{OutputSink, SinkShard};
use crate::spill::{RunReader, SpillRound};
use crate::task::{Combiner, MapContext, Mapper, ReduceContext};
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use subgraph_codec::ArenaCodec;

/// Target byte size of one arena chunk on the unbudgeted path. Large enough
/// that glibc serves it with `mmap` (so freed chunks return to the OS
/// immediately) and that the per-chunk bookkeeping vanishes against ~100k
/// records per chunk; small enough that the reduce phase's progressive frees
/// are fine-grained and the [`BufferPool`] (4 MiB recycling cap) can bank
/// every chunk. Budgeted rounds scale this down
/// ([`SpillRound::chunk_target`]) so chunks seal — and can spill — well
/// before a small budget is exhausted.
pub(crate) const ARENA_CHUNK: usize = 1 << 20;

/// A one-shot result slot a pool task fills for the coordinator.
type Slot<T> = Mutex<Option<T>>;

/// One reduce shard's byte arena on one map worker: sealed chunks of
/// back-to-back encoded `(key, value)` records, plus the run files earlier
/// sealed chunks were spilled into. A record never spans chunks.
pub(crate) struct ArenaBucket {
    chunks: Vec<Vec<u8>>,
    /// Spill run files holding this bucket's oldest chunks, in epoch (write)
    /// order. Empty on the unbudgeted path.
    runs: Vec<PathBuf>,
    /// Grouping entries the bucket feeds the reduce side: one per record on
    /// the plain path, one per distinct key on the combining path.
    entries: usize,
}

impl ArenaBucket {
    fn new() -> Self {
        ArenaBucket {
            chunks: Vec::new(),
            runs: Vec::new(),
            entries: 0,
        }
    }

    /// Appends one encoded record, opening a new chunk when the current one
    /// cannot hold it whole — or has already reached `chunk_target`, which is
    /// what *seals* a chunk (recycled pool buffers can be far larger than the
    /// target; without the target cap a budgeted round's chunks would never
    /// seal and nothing could spill). `new_entry` counts the record towards
    /// [`ArenaBucket::entries`]. Returns the capacity newly reserved for the
    /// round (0 when the record fit in the open chunk) so a budgeted caller
    /// can account resident bytes.
    fn push(
        &mut self,
        record: &[u8],
        new_entry: bool,
        buffers: &BufferPool,
        chunk_target: usize,
        bounded: bool,
    ) -> usize {
        let fits = self.chunks.last().is_some_and(|chunk| {
            chunk.capacity() - chunk.len() >= record.len()
                && chunk.len() + record.len() <= chunk_target
        });
        let mut reserved = 0;
        if !fits {
            let want = chunk_target.max(record.len());
            let mut chunk: Vec<u8> = buffers.take();
            if chunk.capacity() < want {
                chunk.reserve_exact(want);
            } else if bounded && chunk.capacity() > want.saturating_mul(2) {
                // Under a budget the chunk's full capacity counts as
                // resident; a recycled buffer many times the target would
                // burn the budget while holding `want` bytes. Right-size it.
                chunk = Vec::with_capacity(want);
            }
            reserved = chunk.capacity();
            self.chunks.push(chunk);
        }
        let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
        chunk.extend_from_slice(record);
        self.entries += usize::from(new_entry);
        reserved
    }

    /// The reduce side's grouping-capacity heuristic input: records on the
    /// plain path, distinct keys on the combining path. Spilling never
    /// decrements it: spilled records still arrive at the reducer, so the
    /// heuristic (and with it the grouping map's growth pattern) is identical
    /// at every budget.
    pub(crate) fn entries(&self) -> usize {
        self.entries
    }

    /// The spilled runs (epoch order) and resident chunks (write order).
    /// Decoding the runs first then the chunks replays the exact emission
    /// order.
    fn into_parts(self) -> (Vec<PathBuf>, Vec<Vec<u8>>) {
        (self.runs, self.chunks)
    }
}

/// The arena-mode emission state behind [`MapContext`]. The context type has
/// no `Hash`/[`ArenaCodec`] bounds (they would leak into every mapper
/// signature), so the two operations that need them — hashing a key and
/// encoding a record — are captured as monomorphized function pointers by
/// [`ArenaState::new`], which *is* bounded.
pub(crate) struct ArenaState<K, V> {
    buckets: Vec<ArenaBucket>,
    scratch: Vec<u8>,
    emitted: usize,
    buffers: Arc<BufferPool>,
    /// The round's shared spill state; `None` runs the pure in-memory path.
    spill: Option<Arc<SpillRound>>,
    /// This worker's logical map-shard index — names its run files.
    map_shard: usize,
    /// This worker's next spill epoch (bumped once per spill pass).
    epoch: usize,
    /// Chunk capacity to reserve: [`ARENA_CHUNK`], or the budget-scaled
    /// [`SpillRound::chunk_target`].
    chunk_target: usize,
    hash: fn(&K) -> u64,
    encode: fn(&K, &V, &mut Vec<u8>),
}

fn encode_record<K: ArenaCodec, V: ArenaCodec>(key: &K, value: &V, out: &mut Vec<u8>) {
    key.encode(out);
    value.encode(out);
}

impl<K, V> ArenaState<K, V>
where
    K: Hash + ArenaCodec,
    V: ArenaCodec,
{
    pub(crate) fn new(shards: usize, buffers: Arc<BufferPool>) -> Self {
        ArenaState {
            buckets: (0..shards).map(|_| ArenaBucket::new()).collect(),
            scratch: Vec::new(),
            emitted: 0,
            buffers,
            spill: None,
            map_shard: 0,
            epoch: 0,
            chunk_target: ARENA_CHUNK,
            hash: hash_for_shuffle::<K>,
            encode: encode_record::<K, V>,
        }
    }

    /// Attaches the round's spill state (no-op when `spill` is `None`) and
    /// records which map shard this worker is, for run-file naming.
    pub(crate) fn with_spill(mut self, spill: Option<Arc<SpillRound>>, map_shard: usize) -> Self {
        self.chunk_target = spill
            .as_ref()
            .map_or(ARENA_CHUNK, |round| round.chunk_target);
        self.spill = spill;
        self.map_shard = map_shard;
        self
    }
}

impl<K, V> ArenaState<K, V> {
    /// Routes and serializes one emission: hash the key (the counted,
    /// emit-side hash), then [`ArenaState::ship`] it.
    pub(crate) fn emit(&mut self, key: &K, value: &V) {
        let hash = (self.hash)(key);
        self.emitted += 1;
        self.ship(hash, key, value, true);
    }

    /// Encodes one record whose key hash is already known into the arena of
    /// the reduce shard that hash routes to. Under a budget, opening a chunk
    /// that pushes the round's resident bytes past the budget triggers a
    /// spill of this worker's sealed chunks.
    pub(crate) fn ship(&mut self, hash: u64, key: &K, value: &V, new_entry: bool) {
        let shard = shard_for_hash(hash, self.buckets.len());
        self.scratch.clear();
        (self.encode)(key, value, &mut self.scratch);
        let reserved = self.buckets[shard].push(
            &self.scratch,
            new_entry,
            &self.buffers,
            self.chunk_target,
            self.spill.is_some(),
        );
        if reserved > 0 {
            // Budget check only on chunk open: the common path (record fits)
            // costs nothing extra.
            let over = match &self.spill {
                Some(spill) => {
                    spill.resident.fetch_add(reserved, Ordering::Relaxed) + reserved > spill.budget
                }
                None => false,
            };
            if over {
                self.spill_sealed();
            }
        }
    }

    /// Spills every *sealed* chunk (all but the open tail of each bucket) to
    /// one run file per non-trivial bucket, recycles the buffers, and credits
    /// the freed capacity back to the round's resident counter. Partial tails
    /// stay resident — spilling them would produce pathological one-record
    /// runs and would not change the decode order anyway.
    fn spill_sealed(&mut self) {
        let spill = Arc::clone(
            self.spill
                .as_ref()
                .expect("spill_sealed only runs under a budget"),
        );
        let mut freed = 0usize;
        let mut wrote = false;
        for (shard, bucket) in self.buckets.iter_mut().enumerate() {
            if bucket.chunks.len() < 2 {
                continue;
            }
            let tail = bucket.chunks.pop().expect("bucket has at least two chunks");
            let sealed = std::mem::take(&mut bucket.chunks);
            bucket.chunks.push(tail);
            let path = spill.write_run(self.map_shard, shard, self.epoch, &sealed);
            bucket.runs.push(path);
            for chunk in sealed {
                freed += chunk.capacity();
                self.buffers.give(chunk);
            }
            wrote = true;
        }
        if wrote {
            self.epoch += 1;
        }
        if freed > 0 {
            spill.resident.fetch_sub(freed, Ordering::Relaxed);
        }
    }

    pub(crate) fn emitted(&self) -> usize {
        self.emitted
    }

    pub(crate) fn into_parts(self) -> (Vec<ArenaBucket>, usize) {
        (self.buckets, self.emitted)
    }
}

/// What one map task hands to the exchange.
struct MapOutcome {
    /// One arena per reduce shard, indexed by [`shard_for_hash`].
    buckets: Vec<ArenaBucket>,
    /// Pairs emitted by the shard's mapper calls (pre-combiner).
    emitted: usize,
    /// Records surviving the combiner (0 when no combiner ran).
    kept: usize,
    /// Time spent grouping, combining and encoding (zero without a
    /// combiner).
    partition_time: Duration,
}

/// Input records a combining map task maps into one pair buffer. The shard's
/// pairs must all exist before grouping starts (the grouping table is sized
/// to their count), but each buffer is freed as soon as it is grouped, so the
/// pairs and the growing groups never both hold the whole shard.
const PAIR_PIECE_RECORDS: usize = 4096;

/// The combining map task: collect the shard's emissions as pairs, group
/// them by key, combine each group, and encode every surviving record into
/// its reduce shard's arena, routed by the hash computed while grouping.
fn map_and_combine<I, K, V>(
    shard: &[I],
    mapper: &dyn Mapper<I, K, V>,
    combiner: &dyn Combiner<K, V>,
    mut state: ArenaState<K, V>,
) -> MapOutcome
where
    K: Hash + Eq,
{
    let pieces: Vec<Vec<(K, V)>> = shard
        .chunks(PAIR_PIECE_RECORDS)
        .map(|piece| {
            let mut ctx = MapContext::pairs();
            for record in piece {
                mapper.map(record, &mut ctx);
            }
            ctx.into_pairs()
        })
        .collect();
    let emitted = pieces.iter().map(Vec::len).sum();
    let partition_start = Instant::now();
    // Capacity, hasher and insertion order fix the table's iteration order,
    // and with it the order combined records are encoded in.
    let mut groups: PrehashedMap<K, Vec<V>> = prehashed_map_with_capacity(emitted);
    for (key, value) in pieces.into_iter().flatten() {
        groups.entry(Prehashed::new(key)).or_default().push(value);
    }
    let mut kept = 0;
    for (key, values) in groups {
        let values = combiner.combine(key.key(), values);
        kept += values.len();
        for (index, value) in values.iter().enumerate() {
            state.ship(key.hash(), key.key(), value, index == 0);
        }
    }
    let (buckets, _) = state.into_parts();
    MapOutcome {
        buckets,
        emitted,
        kept,
        partition_time: partition_start.elapsed(),
    }
}

/// Decodes one chunk's records into the grouping map — shared by the
/// resident-chunk and spilled-run decode loops so both price, hash and group
/// identically.
fn drain_chunk<K, V, W>(
    chunk: &[u8],
    weigher: &W,
    grouped: &mut PrehashedMap<K, Vec<V>>,
    bytes: &mut u64,
    decoded: &mut usize,
) where
    K: Hash + Eq + ArenaCodec,
    V: ArenaCodec,
    W: Fn(&K, &V) -> usize + ?Sized,
{
    let mut pos = 0;
    while pos < chunk.len() {
        let key = K::decode(chunk, &mut pos);
        let value = V::decode(chunk, &mut pos);
        *bytes += weigher(&key, &value) as u64;
        let hash = hash_for_shuffle(&key);
        *decoded += 1;
        grouped
            .entry(Prehashed::from_parts(hash, key))
            .or_default()
            .push(value);
    }
}

/// What one reduce task hands back: its filled sink shard plus counters.
struct ReduceOutcome<O> {
    shard: Box<dyn SinkShard<O>>,
    emitted: usize,
    work: u64,
    groups: usize,
    max_input: usize,
    /// Shipped bytes of the records this shard decoded.
    bytes: u64,
    /// Time this shard spent reading spilled runs back.
    read_secs: Duration,
}

/// Creates the round's spill state when a budget is configured. `None` keeps
/// the pure in-memory path (and guarantees every spill counter stays zero).
fn spill_round_for(config: &EngineConfig, threads: usize) -> Option<Arc<SpillRound>> {
    (config.memory_budget > 0).then(|| {
        Arc::new(SpillRound::create(
            config.memory_budget,
            threads,
            config.spill_dir.as_deref(),
        ))
    })
}

/// Executes one round over `inputs` on the configured worker pool, streaming
/// the reducer outputs into `sink`, and returns the measured [`JobMetrics`].
///
/// * **Map**: one pool task per logical shard. Without an active combiner
///   every emission is routed and encoded as the mapper makes it; with one,
///   the shard's emissions are grouped and combined first
///   ([`map_and_combine`]).
/// * **Exchange**: the coordinator transposes arena ownership (worker-major
///   to reducer-major) without touching a record.
/// * **Reduce**: one pool task per reduce shard decodes its arenas — spilled
///   runs first, streamed back one frame at a time, then resident chunks —
///   into a grouping map, sorts the keys when [`EngineConfig::deterministic`]
///   is set, and reduces **straight into a private shard of `sink`**; the
///   coordinator folds the shards back in shard order.
pub(crate) fn execute_round<I, K, V, O>(
    inputs: &[I],
    round: &Round<'_, I, K, V, O>,
    config: &EngineConfig,
    sink: &mut dyn OutputSink<O>,
) -> JobMetrics
where
    I: Sync,
    K: Hash + Eq + Ord + Send + ArenaCodec,
    V: Send + ArenaCodec,
    O: Send + 'static,
{
    let threads = config.num_threads.max(1);
    let pool = config.pool();
    let buffers = pool.buffers();
    let spill = spill_round_for(config, threads);
    let combiner = round.combiner.as_deref().filter(|_| config.use_combiners);
    let mut metrics = JobMetrics {
        input_records: inputs.len(),
        ..JobMetrics::default()
    };

    // ---- Map phase --------------------------------------------------------
    let map_start = Instant::now();
    let chunk_size = inputs.len().div_ceil(threads).max(1);
    let shards: Vec<&[I]> = inputs.chunks(chunk_size).collect();
    let mapper = &*round.mapper;
    let map_slots: Vec<Slot<MapOutcome>> = (0..shards.len()).map(|_| Mutex::new(None)).collect();
    pool.run_indexed(shards.len(), |shard| {
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        let state = ArenaState::new(threads, Arc::clone(buffers)).with_spill(spill.clone(), shard);
        let outcome = match combiner {
            Some(combiner) => map_and_combine(shards[shard], mapper, combiner, state),
            None => {
                let mut ctx = MapContext::with_arena(state);
                for record in shards[shard] {
                    mapper.map(record, &mut ctx);
                }
                let (buckets, emitted) = ctx.into_arena();
                MapOutcome {
                    buckets,
                    emitted,
                    kept: 0,
                    partition_time: Duration::ZERO,
                }
            }
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            crate::hash::debug_hash_count::take() as usize,
            outcome.emitted,
            "a map task hashes each emitted key exactly once (routing or combine grouping)"
        );
        *map_slots[shard].lock().expect("map slot poisoned") = Some(outcome);
    });
    let mapped: Vec<MapOutcome> = map_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("map slot poisoned")
                .expect("every map shard completed")
        })
        .collect();
    metrics.map_time = map_start.elapsed();
    metrics.partition_time = mapped
        .iter()
        .map(|outcome| outcome.partition_time)
        .max()
        .unwrap_or_default();
    metrics.key_value_pairs = mapped.iter().map(|outcome| outcome.emitted).sum();
    if combiner.is_some() {
        metrics.combiner_input_records = metrics.key_value_pairs;
        metrics.combiner_output_records = mapped.iter().map(|outcome| outcome.kept).sum();
        metrics.shuffle_records = metrics.combiner_output_records;
    } else {
        metrics.shuffle_records = metrics.key_value_pairs;
    }

    // ---- Exchange phase ---------------------------------------------------
    // Pure ownership moves: the coordinator handles `workers x threads`
    // arenas, never a record, so this stage is O(threads^2) regardless of
    // data size.
    let shuffle_start = Instant::now();
    let workers = mapped.len();
    let mut inboxes: Vec<Vec<ArenaBucket>> =
        (0..threads).map(|_| Vec::with_capacity(workers)).collect();
    for outcome in mapped {
        for (target, bucket) in outcome.buckets.into_iter().enumerate() {
            inboxes[target].push(bucket);
        }
    }
    metrics.shuffle_time = shuffle_start.elapsed();

    // ---- Reduce phase -----------------------------------------------------
    // Decode-while-grouping: each record is decoded exactly once, priced by
    // the round's weigher, hashed once for the grouping lookup, and its chunk
    // released the moment it is drained. Spilled runs
    // stream back through one recycled frame buffer per worker, so re-reading
    // a run keeps a single chunk resident at a time.
    let deterministic = config.deterministic;
    let reducer = &*round.reducer;
    let weigher = &*round.record_bytes;
    let reduce_start = Instant::now();
    let reduce_slots: Vec<Slot<ReduceOutcome<O>>> =
        (0..inboxes.len()).map(|_| Mutex::new(None)).collect();
    type ReduceWork<O> = (Vec<ArenaBucket>, Box<dyn SinkShard<O>>);
    let reduce_inputs: Vec<Slot<ReduceWork<O>>> = inboxes
        .into_iter()
        .map(|inbox| Mutex::new(Some((inbox, sink.new_shard()))))
        .collect();
    let spill_ref = &spill;
    pool.run_indexed(reduce_inputs.len(), |shard| {
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        let (inbox, sink_shard) = reduce_inputs[shard]
            .lock()
            .expect("reduce input poisoned")
            .take()
            .expect("each reduce shard is claimed once");
        // Capacity heuristic: the largest inbound bucket's grouping entries,
        // capped so a low-cardinality shard never pre-allocates a table sized
        // to its record count; past the cap the map doubles a handful of
        // times, which is cheap.
        let capacity = inbox
            .iter()
            .map(ArenaBucket::entries)
            .max()
            .unwrap_or(0)
            .min(1 << 16);
        let mut grouped: PrehashedMap<K, Vec<V>> = prehashed_map_with_capacity(capacity);
        let mut bytes = 0u64;
        let mut decoded = 0usize;
        let mut read_secs = Duration::ZERO;
        for bucket in inbox {
            let (runs, chunks) = bucket.into_parts();
            if !runs.is_empty() {
                let spill = spill_ref
                    .as_ref()
                    .expect("run files only exist under a budget");
                let mut frame: Vec<u8> = buffers.take();
                for path in runs {
                    let mut reader = RunReader::open(path, spill.dir());
                    loop {
                        let read_start = Instant::now();
                        let more = reader.next_frame(&mut frame);
                        read_secs += read_start.elapsed();
                        if !more {
                            break;
                        }
                        drain_chunk(&frame, weigher, &mut grouped, &mut bytes, &mut decoded);
                    }
                }
                buffers.give(frame);
            }
            for chunk in chunks {
                drain_chunk(&chunk, weigher, &mut grouped, &mut bytes, &mut decoded);
                // Under a budget a drained chunk is freed, not banked: the
                // pool would keep it resident while the grouping tables grow.
                if spill_ref.is_none() {
                    buffers.give(chunk);
                }
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            crate::hash::debug_hash_count::take() as usize,
            decoded,
            "a reduce task hashes each decoded key exactly once (grouping)"
        );
        let mut groups: Vec<(K, Vec<V>)> = grouped
            .into_iter()
            .map(|(key, values)| (key.into_key(), values))
            .collect();
        if deterministic {
            groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        let group_count = groups.len();
        let max_input = groups.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
        let mut ctx = ReduceContext::with_shard(sink_shard);
        for (key, values) in &groups {
            reducer.reduce(key, values, &mut ctx);
        }
        let (shard_out, work, emitted) = ctx.into_parts();
        *reduce_slots[shard].lock().expect("reduce slot poisoned") = Some(ReduceOutcome {
            shard: shard_out,
            emitted,
            work,
            groups: group_count,
            max_input,
            bytes,
            read_secs,
        });
    });
    let reduced: Vec<ReduceOutcome<O>> = reduce_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("reduce slot poisoned")
                .expect("every reduce shard completed")
        })
        .collect();
    metrics.reduce_time = reduce_start.elapsed();
    metrics.reducers_used = reduced.iter().map(|outcome| outcome.groups).sum();
    metrics.max_reducer_input = reduced
        .iter()
        .map(|outcome| outcome.max_input)
        .max()
        .unwrap_or(0);
    // Critical-path read time, like partition_time: the longest any single
    // reduce worker stalled on run files (a slice of reduce_time, not a new
    // phase).
    metrics.spill_read_secs = reduced
        .iter()
        .map(|outcome| outcome.read_secs)
        .max()
        .unwrap_or(Duration::ZERO);

    // Fold the shards back into the sink in shard order — for a collecting
    // sink this is a reserve-and-append merge; for a counting sink no record
    // was ever buffered anywhere.
    for outcome in reduced {
        metrics.shuffle_bytes += outcome.bytes;
        metrics.reducer_work += outcome.work;
        metrics.outputs += outcome.emitted;
        sink.fold(outcome.shard);
    }
    if let Some(spill) = spill {
        metrics.spilled_bytes = spill.spilled_bytes.load(Ordering::Relaxed);
        metrics.spill_runs = spill.spill_runs.load(Ordering::Relaxed);
        // Last owner: dropping removes the spill directory.
        drop(spill);
    }
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    #[test]
    fn bucket_seals_chunks_and_counts_records() {
        let pool = WorkerPool::new(0);
        let buffers = pool.buffers();
        let mut bucket = ArenaBucket::new();
        let record = vec![0xabu8; 600 * 1024]; // two won't share a 1 MiB chunk
        assert!(bucket.push(&record, true, buffers, ARENA_CHUNK, false) > 0);
        assert!(bucket.push(&record, true, buffers, ARENA_CHUNK, false) > 0);
        assert_eq!(bucket.entries(), 2);
        let (runs, chunks) = bucket.into_parts();
        assert!(runs.is_empty());
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len() == record.len()));
    }

    #[test]
    fn oversized_records_get_a_dedicated_chunk() {
        let pool = WorkerPool::new(0);
        let buffers = pool.buffers();
        let mut bucket = ArenaBucket::new();
        let huge = vec![1u8; ARENA_CHUNK + 17];
        bucket.push(&huge, true, buffers, ARENA_CHUNK, false);
        assert_eq!(
            bucket.push(&[2u8, 3], true, buffers, ARENA_CHUNK, false),
            ARENA_CHUNK
        );
        let (_, chunks) = bucket.into_parts();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), huge.len());
        assert_eq!(chunks[1], vec![2, 3]);
    }

    #[test]
    fn records_that_fit_reserve_nothing() {
        let pool = WorkerPool::new(0);
        let buffers = pool.buffers();
        let mut bucket = ArenaBucket::new();
        assert!(bucket.push(&[1u8; 16], true, buffers, 4096, true) > 0);
        assert_eq!(bucket.push(&[2u8; 16], true, buffers, 4096, true), 0);
    }

    #[test]
    fn arena_state_routes_by_key_hash() {
        let pool = WorkerPool::new(0);
        let shards = 4;
        let mut state: ArenaState<u32, u32> = ArenaState::new(shards, Arc::clone(pool.buffers()));
        for key in 0..1000u32 {
            state.emit(&key, &(key * 2));
        }
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        assert_eq!(state.emitted(), 1000);
        let (buckets, emitted) = state.into_parts();
        assert_eq!(emitted, 1000);
        let total: usize = buckets.iter().map(ArenaBucket::entries).sum();
        assert_eq!(total, 1000);
        // Decoding each bucket yields keys that route to that bucket.
        for (shard, bucket) in buckets.into_iter().enumerate() {
            let (runs, chunks) = bucket.into_parts();
            assert!(runs.is_empty(), "unbudgeted state never spills");
            for chunk in chunks {
                let mut pos = 0;
                while pos < chunk.len() {
                    let key = u32::decode(&chunk, &mut pos);
                    let value = u32::decode(&chunk, &mut pos);
                    assert_eq!(value, key * 2);
                    assert_eq!(shard_for_hash(crate::hash::hash_of(&key), shards), shard);
                }
            }
        }
    }

    #[test]
    fn budgeted_state_spills_sealed_chunks_and_replays_them_in_order() {
        let pool = WorkerPool::new(0);
        let shards = 2;
        // A budget a few 4 KiB chunks wide forces several spill epochs over
        // ~64 KiB of emissions.
        let spill = Arc::new(SpillRound::create(16 << 10, 1, None));
        let dir = spill.dir().to_path_buf();
        let mut state: ArenaState<u32, u32> = ArenaState::new(shards, Arc::clone(pool.buffers()))
            .with_spill(Some(Arc::clone(&spill)), 3);
        let total = 20_000u32;
        for key in 0..total {
            state.emit(&key, &(key ^ 0x5a5a));
        }
        #[cfg(debug_assertions)]
        let _ = crate::hash::debug_hash_count::take();
        assert!(
            spill.spill_runs.load(Ordering::Relaxed) > 0,
            "a 16 KiB budget over ~100 KiB of records must spill"
        );
        assert!(spill.spilled_bytes.load(Ordering::Relaxed) > 0);

        // Replaying runs-then-chunks per bucket yields every record exactly
        // once, in emission order per bucket.
        let (buckets, emitted) = state.into_parts();
        assert_eq!(emitted, total as usize);
        let mut seen = 0usize;
        for bucket in buckets {
            let records = bucket.entries();
            let (runs, chunks) = bucket.into_parts();
            assert!(!runs.is_empty(), "both shards spilled under this budget");
            let mut keys: Vec<u32> = Vec::new();
            let mut frame = Vec::new();
            let decode_all = |data: &[u8], keys: &mut Vec<u32>| {
                let mut pos = 0;
                while pos < data.len() {
                    let key = u32::decode(data, &mut pos);
                    let value = u32::decode(data, &mut pos);
                    assert_eq!(value, key ^ 0x5a5a);
                    keys.push(key);
                }
            };
            for path in runs {
                let mut reader = RunReader::open(path, &dir);
                while reader.next_frame(&mut frame) {
                    decode_all(&frame, &mut keys);
                }
            }
            for chunk in chunks {
                decode_all(&chunk, &mut keys);
            }
            assert_eq!(keys.len(), records);
            assert!(
                keys.windows(2).all(|pair| pair[0] < pair[1]),
                "runs-then-tail replays the per-bucket emission order"
            );
            seen += keys.len();
        }
        assert_eq!(seen, total as usize);
        drop(spill);
        assert!(!dir.exists(), "dropping the round removes its spill dir");
    }
}
