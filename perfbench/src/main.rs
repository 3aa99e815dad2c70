//! `perfbench-trace`: the traced half of the benchmark.
//!
//! It makes the library calls the `subgraph` CLI makes for `count` and
//! `enumerate` (`GraphSource::load_with_stats` → `EnumerationRequest::resolve`
//! → `plan` → `count` / `run_with_sink`), records one span around each call,
//! attaches each round's `JobMetrics` phase times to the `exec` span, and
//! prints every span and counter as one JSON document on stdout when it is
//! done. Spans stay in memory until then. Passes alternate between untraced
//! (even) and traced (odd), so the document carries its own baseline for the
//! tracing overhead. `perfbench/run.py` turns the document into the
//! per-layer metrics.
//!
//! ```text
//! perfbench-trace batch --graph G.sgr --threads 2 [--memory-budget BYTES]
//!     [--spill-dir DIR] --seconds S
//!     --query CLASS,mode=count|enumerate,pattern=P[,strategy=S][,reducers=K] ...
//! perfbench-trace store --graph G.sgr
//! ```

use std::fmt::Write as _;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use subgraph_core::plan::{EnumerationRequest, StrategyKind};
use subgraph_core::sink::{NdjsonSink, OutputSink, SerializeSink, SinkShard};
use subgraph_graph::{DataGraph, GraphSource};
use subgraph_mapreduce::{EngineConfig, JobMetrics};
use subgraph_pattern::Instance;
use subgraph_serve::GraphStore;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("batch") => BatchArgs::parse(&args[1..]).and_then(|a| run_batch(&a)),
        Some("store") => run_store(&args[1..]),
        _ => Err("usage: perfbench-trace batch|store [options]".to_string()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---- arguments --------------------------------------------------------------

#[derive(Clone, Copy)]
enum Mode {
    Count,
    Enumerate,
}

/// One entry of the pass's query list, as `run.py` passes it.
struct QuerySpec {
    class: String,
    mode: Mode,
    pattern: String,
    strategy: Option<StrategyKind>,
    reducers: Option<usize>,
}

impl QuerySpec {
    fn parse(text: &str) -> Result<Self, String> {
        let mut parts = text.split(',');
        let class = parts.next().unwrap_or_default().to_string();
        let (mut mode, mut pattern, mut strategy, mut reducers) = (None, None, None, None);
        for part in parts {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("query {text:?}: {part:?} is not key=value"))?;
            match key {
                "mode" => {
                    mode = Some(match value {
                        "count" => Mode::Count,
                        "enumerate" => Mode::Enumerate,
                        _ => return Err(format!("query {text:?}: unknown mode {value:?}")),
                    })
                }
                "pattern" => pattern = Some(value.to_string()),
                "strategy" => {
                    strategy = Some(
                        StrategyKind::all()
                            .into_iter()
                            .find(|k| k.to_string() == value)
                            .ok_or_else(|| format!("query {text:?}: unknown strategy"))?,
                    )
                }
                "reducers" => {
                    reducers = Some(
                        value
                            .parse()
                            .map_err(|_| format!("query {text:?}: bad reducers"))?,
                    )
                }
                _ => return Err(format!("query {text:?}: unknown key {key:?}")),
            }
        }
        Ok(QuerySpec {
            class,
            mode: mode.ok_or_else(|| format!("query {text:?}: missing mode"))?,
            pattern: pattern.ok_or_else(|| format!("query {text:?}: missing pattern"))?,
            strategy,
            reducers,
        })
    }
}

struct BatchArgs {
    graph: PathBuf,
    threads: usize,
    memory_budget: Option<usize>,
    spill_dir: Option<PathBuf>,
    seconds: f64,
    queries: Vec<QuerySpec>,
}

impl BatchArgs {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = BatchArgs {
            graph: PathBuf::new(),
            threads: 1,
            memory_budget: None,
            spill_dir: None,
            seconds: 0.0,
            queries: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            let bad = |_| format!("{flag}: bad value {value:?}");
            match flag.as_str() {
                "--graph" => parsed.graph = PathBuf::from(value),
                "--threads" => parsed.threads = value.parse().map_err(bad)?,
                "--memory-budget" => parsed.memory_budget = Some(value.parse().map_err(bad)?),
                "--spill-dir" => parsed.spill_dir = Some(PathBuf::from(value)),
                "--seconds" => {
                    parsed.seconds = value
                        .parse()
                        .map_err(|_| format!("--seconds: bad value {value:?}"))?
                }
                "--query" => parsed.queries.push(QuerySpec::parse(value)?),
                other => return Err(format!("unknown option {other}")),
            }
        }
        if parsed.queries.is_empty() {
            return Err("batch needs at least one --query".to_string());
        }
        Ok(parsed)
    }

    /// The engine configuration the CLI builds for the same flags.
    fn engine(&self) -> Result<EngineConfig, String> {
        let mut engine = EngineConfig::with_threads(self.threads);
        if let Some(bytes) = self.memory_budget {
            engine = engine.memory_budget(bytes);
        }
        if let Some(dir) = &self.spill_dir {
            engine = engine.spill_dir(dir.clone());
        }
        engine.validate_spill_dir()?;
        Ok(engine)
    }
}

// ---- spans --------------------------------------------------------------------

struct Span {
    request: usize,
    parent: Option<usize>,
    name: String,
    layer: &'static str,
    start: Duration,
    end: Duration,
    /// Placed by the tracer from a measured duration (a `JobMetrics` phase
    /// time) rather than read from the clock at both ends.
    synthetic: bool,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    fn record(
        &mut self,
        request: usize,
        parent: Option<usize>,
        name: &str,
        layer: &'static str,
        (start, end): (Duration, Duration),
        synthetic: bool,
    ) -> usize {
        self.spans.push(Span {
            request,
            parent,
            name: name.to_string(),
            layer,
            start,
            end,
            synthetic,
        });
        self.spans.len() - 1
    }

    fn clocked(
        &mut self,
        request: usize,
        parent: Option<usize>,
        name: &str,
        layer: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let window = (self.at(start), self.at(end));
        self.record(request, parent, name, layer, window, false)
    }

    fn to_json(&self, out: &mut String) {
        out.push('[');
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3},\"synthetic\":{}}}",
                s.request,
                s.name,
                s.layer,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.synthetic
            );
        }
        out.push(']');
    }
}

// ---- the measured sink ------------------------------------------------------

/// Counts the bytes and lines `NdjsonSink` writes and discards them; the line
/// count is checked against the reported instance count.
#[derive(Clone, Default)]
struct CountingWriter {
    bytes: Arc<AtomicU64>,
    lines: Arc<AtomicU64>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.lines.fetch_add(lines, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Wraps a sink and times the calls into it: each worker-shard fold gets its
/// own clocked window, and records delivered straight to `accept` (serial
/// strategies) are summed.
struct TimedSink<S> {
    inner: S,
    folds: Vec<(Instant, Instant)>,
    accept_time: Duration,
    accepts: u64,
}

impl<S> TimedSink<S> {
    fn new(inner: S) -> Self {
        TimedSink {
            inner,
            folds: Vec::new(),
            accept_time: Duration::ZERO,
            accepts: 0,
        }
    }
}

impl<S: OutputSink<Instance>> OutputSink<Instance> for TimedSink<S> {
    fn accept(&mut self, value: Instance) {
        let start = Instant::now();
        self.inner.accept(value);
        self.accept_time += start.elapsed();
        self.accepts += 1;
    }

    fn new_shard(&self) -> Box<dyn SinkShard<Instance>> {
        self.inner.new_shard()
    }

    fn fold(&mut self, shard: Box<dyn SinkShard<Instance>>) {
        let start = Instant::now();
        self.inner.fold(shard);
        self.folds.push((start, Instant::now()));
    }
}

// ---- batch passes -------------------------------------------------------------

/// What one query of one pass measured, besides its spans.
struct QueryRecord {
    class: String,
    strategy: StrategyKind,
    rounds: usize,
    count: usize,
    lines: Option<u64>,
    sink_bytes: u64,
    sink_s: f64,
    load_s: f64,
    resolve_s: f64,
    plan_s: f64,
    exec_s: f64,
    wall_s: f64,
    classes_scored: usize,
    classes_pruned: usize,
    predicted_communication: f64,
    predicted_work: f64,
    work: u64,
    phase_s: [f64; 4],
    /// Map-reduce exec time that no phase or sink window covers.
    unattributed_s: f64,
    metrics: Option<JobMetrics>,
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

/// Resolves the query's pattern and applies the options the CLI applies.
fn resolve<'g>(
    args: &BatchArgs,
    query: &QuerySpec,
    graph: &'g DataGraph,
) -> Result<EnumerationRequest<'g>, String> {
    let mut request =
        EnumerationRequest::resolve(&query.pattern, graph).map_err(|e| e.to_string())?;
    if let Some(k) = query.reducers {
        request = request.reducers(k);
    }
    request = request.engine(args.engine()?);
    if let Some(kind) = query.strategy {
        request = request.strategy(kind);
    }
    Ok(request)
}

/// The same calls as `run_query` with no clock reads, spans or timed sink:
/// the baseline the tracing overhead is measured against. Returns the count
/// and, for enumerations, the lines written.
fn run_query_untraced(
    args: &BatchArgs,
    source: &GraphSource,
    query: &QuerySpec,
) -> Result<(usize, Option<u64>), String> {
    let (graph, _) = source.load_with_stats().map_err(|e| e.to_string())?;
    let plan = resolve(args, query, &graph)?
        .plan()
        .map_err(|e| e.to_string())?;
    match query.mode {
        Mode::Count => Ok((plan.count().count(), None)),
        Mode::Enumerate => {
            let writer = CountingWriter::default();
            let lines = writer.lines.clone();
            let mut sink = NdjsonSink::new(BufWriter::new(writer));
            let report = plan.run_with_sink(&mut sink);
            sink.finish().map_err(|e| e.to_string())?;
            Ok((report.count(), Some(lines.load(Ordering::Relaxed))))
        }
    }
}

fn run_query(
    args: &BatchArgs,
    source: &GraphSource,
    query: &QuerySpec,
    request_id: usize,
    tracer: &mut Tracer,
) -> Result<QueryRecord, String> {
    let t_start = Instant::now();
    let root = tracer.record(
        request_id,
        None,
        &query.class,
        "cli",
        (tracer.at(t_start), Duration::ZERO),
        false,
    );

    let (graph, _) = source.load_with_stats().map_err(|e| e.to_string())?;
    let t_loaded = Instant::now();
    let request = resolve(args, query, &graph)?;
    let t_resolved = Instant::now();
    let plan = request.plan().map_err(|e| e.to_string())?;
    let t_planned = Instant::now();

    let mut sink_s = 0.0;
    let mut sink_bytes = 0;
    let mut lines = None;
    let (report, t_executed, sink_windows, accept_time) = match query.mode {
        Mode::Count => {
            let report = plan.count();
            (report, Instant::now(), Vec::new(), Duration::ZERO)
        }
        Mode::Enumerate => {
            let writer = CountingWriter::default();
            let (bytes, newlines) = (writer.bytes.clone(), writer.lines.clone());
            let mut sink = TimedSink::new(NdjsonSink::new(BufWriter::new(writer)));
            let report = plan.run_with_sink(&mut sink);
            let t_executed = Instant::now();
            let written = sink.inner.finish().map_err(|e| e.to_string())?;
            let t_finished = Instant::now();
            if written != report.count() {
                return Err(format!(
                    "{}: sink wrote {written} instances, report says {}",
                    query.class,
                    report.count()
                ));
            }
            tracer.clocked(
                request_id,
                Some(root),
                "sink.finish",
                "sink",
                t_executed,
                t_finished,
            );
            sink_s += secs(t_executed, t_finished);
            sink_bytes = bytes.load(Ordering::Relaxed);
            lines = Some(newlines.load(Ordering::Relaxed));
            let windows = std::mem::take(&mut sink.folds);
            (report, t_executed, windows, sink.accept_time)
        }
    };
    let chosen = plan.chosen().clone();
    drop(plan);
    drop(graph);
    let t_end = Instant::now();
    tracer.spans[root].end = tracer.at(t_end);

    tracer.clocked(request_id, Some(root), "load", "graph", t_start, t_loaded);
    tracer.clocked(
        request_id,
        Some(root),
        "resolve",
        "plan",
        t_loaded,
        t_resolved,
    );
    tracer.clocked(
        request_id,
        Some(root),
        "plan",
        "plan",
        t_resolved,
        t_planned,
    );
    let exec_layer = if report.rounds > 0 {
        "mapreduce"
    } else {
        "kernels"
    };
    let exec = tracer.clocked(
        request_id,
        Some(root),
        "exec",
        exec_layer,
        t_planned,
        t_executed,
    );

    // Phase times of each round, laid end to end from the exec start.
    let mut phase_s = [0.0; 4];
    let mut cursor = tracer.at(t_planned);
    for round in &report.round_metrics {
        let m = &round.metrics;
        for (i, (name, layer, took)) in [
            ("map", "mapreduce", m.map_time),
            ("exchange", "mapreduce", m.shuffle_time),
            ("reduce", "kernels", m.reduce_time),
        ]
        .into_iter()
        .enumerate()
        {
            let label = format!("{}.{name}", round.name);
            let span = tracer.record(
                request_id,
                Some(exec),
                &label,
                layer,
                (cursor, cursor + took),
                true,
            );
            if name == "reduce" && !m.spill_read_secs.is_zero() {
                let read = format!("{}.spill_read", round.name);
                let window = (cursor, cursor + m.spill_read_secs);
                tracer.record(request_id, Some(span), &read, "mapreduce", window, true);
            }
            phase_s[i] += took.as_secs_f64();
            cursor += took;
        }
        phase_s[3] += m.spill_read_secs.as_secs_f64();
    }
    let mut sink_in_exec = accept_time.as_secs_f64();
    for (start, end) in sink_windows {
        sink_in_exec += secs(start, end);
        tracer.clocked(request_id, Some(exec), "sink.fold", "sink", start, end);
    }
    sink_s += sink_in_exec;
    if !accept_time.is_zero() {
        let start = tracer.at(t_planned);
        tracer.record(
            request_id,
            Some(exec),
            "sink.accept",
            "sink",
            (start, start + accept_time),
            true,
        );
    }

    Ok(QueryRecord {
        class: query.class.clone(),
        strategy: report.strategy,
        rounds: report.rounds,
        count: report.count(),
        lines,
        sink_bytes,
        sink_s,
        load_s: secs(t_start, t_loaded),
        resolve_s: secs(t_loaded, t_resolved),
        plan_s: secs(t_resolved, t_planned),
        exec_s: secs(t_planned, t_executed),
        unattributed_s: if report.rounds > 0 {
            secs(t_planned, t_executed) - phase_s[..3].iter().sum::<f64>() - sink_in_exec
        } else {
            0.0
        },
        wall_s: secs(t_start, t_end),
        classes_scored: chosen.classes_scored,
        classes_pruned: chosen.classes_pruned,
        predicted_communication: chosen.communication,
        predicted_work: chosen.reducer_work,
        work: report.work,
        phase_s,
        metrics: report.metrics,
    })
}

/// One pass over the query list: untraced passes keep only the answers.
enum Pass {
    Untraced(Vec<(usize, Option<u64>)>),
    Traced(Vec<QueryRecord>),
}

fn run_batch(args: &BatchArgs) -> Result<String, String> {
    let source = GraphSource::file(&args.graph);
    let mut tracer = Tracer::new();
    let mut passes: Vec<(f64, Pass)> = Vec::new();
    let started = Instant::now();
    let mut request_id = 0;
    // Like run.py: stop at the pass boundary nearest to `seconds`, after at
    // least one untraced and one traced pass.
    loop {
        if passes.len() >= 2 {
            let mean = passes.iter().map(|(wall, _)| wall).sum::<f64>() / passes.len() as f64;
            if started.elapsed().as_secs_f64() + mean / 2.0 >= args.seconds {
                break;
            }
        }
        let pass_start = Instant::now();
        let pass = if passes.len() % 2 == 0 {
            let answers = args
                .queries
                .iter()
                .map(|query| run_query_untraced(args, &source, query))
                .collect::<Result<_, _>>()?;
            Pass::Untraced(answers)
        } else {
            let mut records = Vec::with_capacity(args.queries.len());
            for query in &args.queries {
                records.push(run_query(args, &source, query, request_id, &mut tracer)?);
                request_id += 1;
            }
            Pass::Traced(records)
        };
        passes.push((pass_start.elapsed().as_secs_f64(), pass));
    }

    let mut out = String::from("{\"passes\":[");
    for (i, (wall, pass)) in passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let traced = matches!(pass, Pass::Traced(_));
        let _ = write!(
            out,
            "{{\"traced\":{traced},\"wall_s\":{wall:.9},\"queries\":["
        );
        match pass {
            Pass::Untraced(answers) => {
                for (j, ((count, lines), query)) in answers.iter().zip(&args.queries).enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let lines = lines.map_or("null".to_string(), |n| n.to_string());
                    let _ = write!(
                        out,
                        "{{\"class\":\"{}\",\"count\":{count},\"lines\":{lines}}}",
                        query.class
                    );
                }
            }
            Pass::Traced(records) => {
                for (j, r) in records.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    query_json(r, &mut out);
                }
            }
        }
        out.push_str("]}");
    }
    out.push_str("],\"spans\":");
    tracer.to_json(&mut out);
    out.push('}');
    Ok(out)
}

fn query_json(r: &QueryRecord, out: &mut String) {
    let lines = r.lines.map_or("null".to_string(), |n| n.to_string());
    let _ = write!(
        out,
        "{{\"class\":\"{}\",\"strategy\":\"{}\",\"rounds\":{},\"count\":{},\"lines\":{lines},\
         \"sink_bytes\":{},\"sink_s\":{:.9},\"load_s\":{:.9},\"resolve_s\":{:.9},\"plan_s\":{:.9},\
         \"exec_s\":{:.9},\"wall_s\":{:.9},\"classes_scored\":{},\"classes_pruned\":{},\
         \"predicted_communication\":{:e},\"predicted_work\":{:e},\"work\":{},\
         \"map_s\":{:.9},\"exchange_s\":{:.9},\"reduce_s\":{:.9},\"spill_read_s\":{:.9},\
         \"unattributed_s\":{:.9},\"metrics\":",
        r.class,
        r.strategy,
        r.rounds,
        r.count,
        r.sink_bytes,
        r.sink_s,
        r.load_s,
        r.resolve_s,
        r.plan_s,
        r.exec_s,
        r.wall_s,
        r.classes_scored,
        r.classes_pruned,
        r.predicted_communication,
        r.predicted_work,
        r.work,
        r.phase_s[0],
        r.phase_s[1],
        r.phase_s[2],
        r.phase_s[3],
        r.unattributed_s,
    );
    match &r.metrics {
        None => out.push_str("null"),
        Some(m) => {
            let _ = write!(
                out,
                "{{\"input_records\":{},\"key_value_pairs\":{},\"combiner_input_records\":{},\
                 \"combiner_output_records\":{},\"shuffle_records\":{},\"shuffle_bytes\":{},\
                 \"reducers_used\":{},\"max_reducer_input\":{},\"reducer_work\":{},\"outputs\":{},\
                 \"spilled_bytes\":{},\"spill_runs\":{},\"skew\":{:.6}}}",
                m.input_records,
                m.key_value_pairs,
                m.combiner_input_records,
                m.combiner_output_records,
                m.shuffle_records,
                m.shuffle_bytes,
                m.reducers_used,
                m.max_reducer_input,
                m.reducer_work,
                m.outputs,
                m.spilled_bytes,
                m.spill_runs,
                m.skew(),
            );
        }
    }
    out.push('}');
}

// ---- serve start-up -----------------------------------------------------------

/// Times the two start-up steps of `subgraph serve` separately: opening the
/// graph and building the `GraphStore` around it, five times each.
fn run_store(args: &[String]) -> Result<String, String> {
    let graph = match args {
        [flag, path] if flag == "--graph" => PathBuf::from(path),
        _ => return Err("usage: perfbench-trace store --graph G.sgr".to_string()),
    };
    let source = GraphSource::file(graph);
    let (mut open, mut store) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let (data, _) = source.load_with_stats().map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let built = GraphStore::from_graph(std::hint::black_box(data));
        let t2 = Instant::now();
        drop(std::hint::black_box(built));
        open.push(format!("{:.9}", secs(t0, t1)));
        store.push(format!("{:.9}", secs(t1, t2)));
    }
    Ok(format!(
        "{{\"open_s\":[{}],\"store_s\":[{}]}}",
        open.join(","),
        store.join(",")
    ))
}
