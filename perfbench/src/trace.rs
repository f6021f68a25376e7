//! Spans around the calls into each layer, and the replay that makes them.
//!
//! The traced run replays recorded requests in-process through the same
//! public calls, in the same order, that `CtcSearcher` and the server's
//! update handler make, timing each call as a span. Spans stay in memory
//! and are written out when the run ends.

use ctc_core::local::expand_tree;
use ctc_core::{
    peel_with, steiner_tree, Community, CommunityEngine, CtcConfig, DeletePolicy, EngineUpdate,
    PeelOutcome, PeelScratch, PhaseTimings, SearchAlgo,
};
use ctc_graph::{BfsScratch, Parallelism, Subgraph, VertexId};
use ctc_server::http::{parse_request, Parse, Request, Response, DEFAULT_MAX_BODY};
use ctc_server::{decode_search_request, decode_update_request, encode_community};
use ctc_truss::{
    find_g0_with, DecomposeScratch, DeltaLogFile, DeltaOp, DeltaRecord, DynamicIndex, FindScratch,
    TrussIndex,
};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `core.steiner`.
    pub name: &'static str,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    /// End offset; equal to `start` while the span is open.
    pub end: Duration,
    /// The enclosing span.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub req: u32,
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Request id stamped on new spans.
    pub req: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }
}

impl Tracer {
    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close in reverse order of opening");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time, ms: its duration minus the part of it its
    /// child spans cover.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| ((s.end - s.start).saturating_sub(c)).as_secs_f64() * 1e3)
            .collect()
    }

    /// Writes the spans as tab-separated lines after a `#` header.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "id\treq\tname\tparent\tstart_us\tend_us\tself_ms")?;
        for (i, (s, self_ms)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{self_ms:.4}",
                s.req,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// Replay working memory, pooled across requests as the engine pools it.
#[derive(Default)]
pub struct ReplayScratch {
    find: FindScratch,
    decomp: DecomposeScratch,
    peel: PeelScratch,
}

/// What one replayed search touched.
pub struct SearchFacts {
    /// The encoded answer body.
    pub body: Vec<u8>,
    /// The answer, as assembled.
    pub community: Community,
    /// LCTC's local graph Gt: (vertices, edges).
    pub gt: Option<(usize, usize)>,
}

fn parse(tr: &mut Tracer, raw: &[u8]) -> Result<Request, String> {
    match tr.span("server.http.parse", || parse_request(raw, DEFAULT_MAX_BODY)) {
        Ok(Parse::Complete(req, _)) => Ok(req),
        other => Err(format!("recorded request does not parse: {other:?}")),
    }
}

/// `CtcSearcher`'s peel thread policy: serial below 4096 vertices or for
/// a single source.
fn peel_parallelism(cfg: &CtcConfig, n: usize, q_len: usize) -> Parallelism {
    if q_len > 1 && n >= 4096 {
        cfg.parallelism
    } else {
        Parallelism::serial()
    }
}

/// `CtcSearcher`'s assembly: local ids back to parent ids.
fn assemble(sub: &Subgraph, k: u32, out: PeelOutcome, g0_size: (usize, usize)) -> Community {
    let mut vertices: Vec<VertexId> = out.vertices.iter().map(|&v| sub.parent(v)).collect();
    vertices.sort_unstable();
    let edges = out
        .edges
        .iter()
        .map(|&(u, v)| {
            let (pu, pv) = (sub.parent(u), sub.parent(v));
            (pu.min(pv), pu.max(pv))
        })
        .collect();
    Community {
        k,
        vertices,
        edges,
        query_distance: out.query_distance,
        iterations: out.iterations,
        g0_size,
        timings: PhaseTimings::default(),
    }
}

/// Replays one `/search` request on `engine`'s graph and index: parse,
/// decode, the algorithm's layer calls, encode.
pub fn replay_search(
    tr: &mut Tracer,
    engine: &CommunityEngine,
    raw: &[u8],
    s: &mut ReplayScratch,
) -> Result<SearchFacts, String> {
    let root = tr.open("request");
    let req = parse(tr, raw)?;
    let parsed = tr
        .span("server.wire.decode", || {
            decode_search_request(&req.body, engine.config())
        })
        .map_err(|e| e.message)?;
    let mut q = engine
        .resolve_labels(&parsed.labels)
        .map_err(|l| format!("label {l} not in graph"))?;
    q.sort_unstable();
    q.dedup();
    let cfg = parsed.cfg;
    if cfg.fixed_k.is_some() || !cfg.parallelism.is_serial() {
        return Err("replay covers the serving defaults only: max k, serial".into());
    }
    let (g, idx) = (engine.graph(), engine.index());
    let disconnected = || "query is disconnected".to_string();
    let (community, gt) = match parsed.algo {
        SearchAlgo::Local => {
            let tree = tr
                .span("core.steiner", || {
                    steiner_tree(g, idx, &q, cfg.gamma, cfg.steiner_mode)
                })
                .ok_or_else(disconnected)?;
            let gt = tr.span("core.local.expand", || expand_tree(g, idx, &tree, cfg.eta));
            let q_gt = gt.locals(&q).ok_or_else(disconnected)?;
            let idx_t = tr.span("truss.decompose.local", || {
                TrussIndex::build_with(&gt.graph, &mut s.decomp)
            });
            let ht = tr
                .span("truss.find_g0", || {
                    find_g0_with(&gt.graph, &idx_t, &q_gt, &mut s.find)
                })
                .map_err(|e| e.to_string())?;
            let ht_sub = tr.span("graph.subgraph", || {
                let mut pairs: Vec<(VertexId, VertexId)> = ht
                    .edges
                    .iter()
                    .map(|&e| {
                        let (u, v) = gt.graph.edge_endpoints(e);
                        let (pu, pv) = (gt.parent(u), gt.parent(v));
                        (pu.min(pv), pu.max(pv))
                    })
                    .collect();
                pairs.sort_unstable();
                ctc_graph::subgraph_from_pairs(&pairs)
            });
            let q_ht = ht_sub.locals(&q).ok_or_else(disconnected)?;
            let par = peel_parallelism(&cfg, ht_sub.graph.num_vertices(), q_ht.len());
            let out = tr.span("core.peel", || {
                peel_with(
                    &ht_sub.graph,
                    &q_ht,
                    ht.k,
                    DeletePolicy::LocalGreedy,
                    cfg.max_iterations,
                    par,
                    &mut s.peel,
                )
            });
            let g0_size = (ht.vertices.len(), ht.edges.len());
            let c = tr.span("core.assemble", || assemble(&ht_sub, ht.k, out, g0_size));
            (c, Some((gt.num_vertices(), gt.num_edges())))
        }
        algo @ (SearchAlgo::Basic | SearchAlgo::BulkDelete) => {
            let g0 = tr
                .span("truss.find_g0", || find_g0_with(g, idx, &q, &mut s.find))
                .map_err(|e| e.to_string())?;
            let sub = tr.span("graph.subgraph", || ctc_graph::edge_subgraph(g, &g0.edges));
            let q_local = sub.locals(&q).ok_or_else(disconnected)?;
            let policy = if algo == SearchAlgo::Basic {
                DeletePolicy::SingleFurthest
            } else {
                DeletePolicy::BulkAtLeast
            };
            let par = peel_parallelism(&cfg, sub.graph.num_vertices(), q_local.len());
            let out = tr.span("core.peel", || {
                peel_with(
                    &sub.graph,
                    &q_local,
                    g0.k,
                    policy,
                    cfg.max_iterations,
                    par,
                    &mut s.peel,
                )
            });
            let g0_size = (g0.vertices.len(), g0.edges.len());
            let c = tr.span("core.assemble", || assemble(&sub, g0.k, out, g0_size));
            (c, None)
        }
        SearchAlgo::TrussOnly => {
            let g0 = tr
                .span("truss.find_g0", || find_g0_with(g, idx, &q, &mut s.find))
                .map_err(|e| e.to_string())?;
            let sub = tr.span("graph.subgraph", || ctc_graph::edge_subgraph(g, &g0.edges));
            let q_local = sub.locals(&q).ok_or_else(disconnected)?;
            let qd = tr.span("graph.query_distance", || {
                let mut bfs = BfsScratch::new(sub.num_vertices());
                ctc_graph::graph_query_distance(&sub.graph, &q_local, &mut bfs)
            });
            let c = tr.span("core.assemble", || Community {
                k: g0.k,
                vertices: g0.vertices.clone(),
                edges: g0.edges.iter().map(|&e| g.edge_endpoints(e)).collect(),
                query_distance: qd,
                iterations: 0,
                g0_size: (g0.vertices.len(), g0.edges.len()),
                timings: PhaseTimings::default(),
            });
            (c, None)
        }
    };
    let body = tr.span("server.wire.encode", || {
        let body = encode_community(engine, &community);
        std::hint::black_box(Response::ok(body.clone()).encode(false));
        body
    });
    tr.close(root);
    Ok(SearchFacts {
        body,
        community,
        gt,
    })
}

/// What one replayed update did.
pub struct UpdateFacts {
    /// Highest trussness class the batch touched.
    pub max_class: u32,
}

/// Replays one `/update` request: each op through a standalone
/// [`DynamicIndex`], the batch through [`CommunityEngine::apply_batch`]
/// (which moves `engine` to the new graph), then each applied op appended
/// to `wal` when the served stack journals.
pub fn replay_update(
    tr: &mut Tracer,
    engine: &mut CommunityEngine,
    dynx: &mut DynamicIndex,
    wal: Option<&mut DeltaLogFile>,
    raw: &[u8],
) -> Result<UpdateFacts, String> {
    let root = tr.open("update");
    let req = parse(tr, raw)?;
    let parsed = tr
        .span("server.wire.decode", || decode_update_request(&req.body))
        .map_err(|e| e.message)?;
    let mut batch = Vec::with_capacity(parsed.ops.len());
    for op in &parsed.ops {
        let ids = engine
            .resolve_labels(&[op.u, op.v])
            .map_err(|l| format!("label {l} not in graph"))?;
        batch.push(if op.insert {
            EngineUpdate::insert(ids[0], ids[1])
        } else {
            EngineUpdate::delete(ids[0], ids[1])
        });
    }
    for up in &batch {
        tr.span("truss.dynamic.op", || {
            if up.insert {
                dynx.insert_edge(up.u, up.v)
            } else {
                dynx.delete_edge(up.u, up.v)
            }
        })
        .map_err(|e| format!("maintenance rejected an op: {e}"))?;
    }
    let report = tr
        .span("core.engine.apply_batch", || engine.apply_batch(&batch))
        .map_err(|e| e.to_string())?;
    if report.applied != batch.len() {
        return Err(format!(
            "{} of {} ops rejected",
            batch.len() - report.applied,
            batch.len()
        ));
    }
    if let Some(wal) = wal {
        for up in &batch {
            let op = if up.insert {
                DeltaOp::Insert
            } else {
                DeltaOp::Delete
            };
            tr.span("truss.wal.append", || {
                wal.append(DeltaRecord::new(op, up.u.0, up.v.0))
            })
            .map_err(|e| format!("log append failed: {e}"))?;
        }
    }
    tr.close(root);
    Ok(UpdateFacts {
        max_class: report.max_class,
    })
}
