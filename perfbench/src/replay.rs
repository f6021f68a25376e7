//! The traced run's replay: recorded requests through the in-process
//! server and, span by span, through each layer's public calls.

use crate::http::{self, request_bytes};
use crate::inputs::{write_body, Query, Workload};
use crate::load::{ReadRec, Window, WriteRec};
use crate::stats::{median, ratio};
use crate::trace::{replay_search, replay_update, ReplayScratch, Tracer};
use crate::{median_metric, metric, ms_since, Metric, Prepared};
use ctc_core::CommunityEngine;
use ctc_server::http::{parse_request, Parse, Response, DEFAULT_MAX_BODY};
use ctc_server::{decode_search_request, encode_community, AppState};
use ctc_truss::DynamicIndex;
use std::collections::HashSet;
use std::time::Instant;

/// The traced replay of a finished run.
pub struct Replay<'a> {
    pub w: &'a Workload,
    pub p: &'a Prepared,
    pub queries: &'a [Query],
    pub window: &'a Window,
}

/// A recorded request, in the order the server answered it.
enum Recorded<'a> {
    Read(&'a ReadRec),
    Write(&'a WriteRec),
}

impl Replay<'_> {
    pub fn run(
        &self,
        failures: &mut Vec<String>,
        lines: &mut Vec<String>,
        facts: &str,
    ) -> Result<Vec<Metric>, String> {
        let mut recorded: Vec<(Instant, Recorded)> = self
            .window
            .reads
            .iter()
            .map(|r| (r.end, Recorded::Read(r)))
            .chain(
                self.window
                    .writes
                    .iter()
                    .map(|r| (r.end, Recorded::Write(r))),
            )
            .collect();
        recorded.sort_by_key(|(t, _)| *t);
        recorded.truncate(self.w.replay);

        // The in-process server and the replay engine start from the state
        // the served stack started from, each with its own log.
        let (engine, app_log) = self.p.engine(&self.p.work.join("replay-app.ctcd"))?;
        let app = AppState::new(engine, &http::serve_config());
        if let Some(lf) = app_log {
            app.attach_default_wal(lf);
        }
        let (mut engine, mut wal) = self.p.engine(&self.p.work.join("replay-layers.ctcd"))?;
        let mut dynx = DynamicIndex::new(engine.graph(), engine.index());
        let mut tr = Tracer::default();
        let mut scratch = ReplayScratch::default();

        let mut respond_us = Vec::new();
        let mut wait_us = Vec::new();
        let mut response_bytes = Vec::new();
        let mut engine_ms = Vec::new();
        let mut finish_ms = Vec::new();
        let (mut gt_edges, mut kept_gt) = (Vec::new(), (0.0, 0.0));
        let (mut g0_edges, mut rounds, mut kept_g0) = (Vec::new(), Vec::new(), (0.0, 0.0));
        let mut max_class = Vec::new();
        let mut replayed = 0;
        for (rid, (_, rec)) in recorded.iter().enumerate() {
            tr.req = rid as u32;
            let raw = match rec {
                Recorded::Read(r) => request_bytes("POST", "/search", &self.queries[r.q].body()),
                Recorded::Write(r) => {
                    request_bytes("POST", "/update", &write_body(&self.p.edges[1..], r.i))
                }
            };
            let id = tr.open("server.respond");
            let response = app
                .respond(&raw)
                .ok_or("in-process server wanted more bytes")?;
            tr.close(id);
            let respond = tr.spans()[id].end - tr.spans()[id].start;
            match rec {
                Recorded::Write(_) => {
                    let f = replay_update(&mut tr, &mut engine, &mut dynx, wal.as_mut(), &raw)?;
                    max_class.push(f64::from(f.max_class));
                }
                Recorded::Read(r) => {
                    respond_us.push(respond.as_secs_f64() * 1e6);
                    let latency = (r.end - r.start).as_secs_f64();
                    wait_us.push((latency - respond.as_secs_f64()) * 1e6);
                    response_bytes.push(r.wire_bytes as f64);
                    if r.hit {
                        continue;
                    }
                    let q = &self.queries[r.q];
                    // The same request without spans: the untraced twin of
                    // the replay. Alternate which of the pair runs first, so
                    // neither always finds the caches warm.
                    let untraced = |engine: &CommunityEngine| -> Result<_, String> {
                        let t = Instant::now();
                        let Ok(Parse::Complete(req, _)) = parse_request(&raw, DEFAULT_MAX_BODY)
                        else {
                            return Err("recorded request does not parse".into());
                        };
                        let parsed = decode_search_request(&req.body, engine.config())
                            .map_err(|e| e.message)?;
                        let ids = engine
                            .resolve_labels(&parsed.labels)
                            .map_err(|l| format!("label {l} not in graph"))?;
                        let c = engine
                            .search(&ids, parsed.algo)
                            .map_err(|e| format!("engine search of {q:?}: {e}"))?;
                        let body = encode_community(engine, &c);
                        std::hint::black_box(Response::ok(body.clone()).encode(false));
                        Ok((ms_since(t), c, body))
                    };
                    let ((ms, c, engine_body), facts) = if rid % 2 == 0 {
                        let u = untraced(&engine)?;
                        (u, replay_search(&mut tr, &engine, &raw, &mut scratch)?)
                    } else {
                        let facts = replay_search(&mut tr, &engine, &raw, &mut scratch)?;
                        (untraced(&engine)?, facts)
                    };
                    engine_ms.push(ms);
                    finish_ms.push(c.timings.finish.as_secs_f64() * 1e3);
                    let body_at = response
                        .windows(4)
                        .position(|w| w == b"\r\n\r\n")
                        .map_or(response.len(), |i| i + 4);
                    if facts.body != engine_body {
                        failures.push(format!("replay of {q:?} differs from the engine"));
                    } else if response[body_at..] != engine_body[..] {
                        failures.push(format!("in-process server answer to {q:?} differs"));
                    }
                    replayed += 1;
                    let answer = facts.community.vertices.len() as f64;
                    if let Some((gv, ge)) = facts.gt {
                        gt_edges.push(ge as f64);
                        kept_gt = (kept_gt.0 + answer, kept_gt.1 + gv as f64);
                    }
                    g0_edges.push(facts.community.g0_size.1 as f64);
                    if q.algo != "truss" {
                        rounds.push(facts.community.iterations as f64);
                        kept_g0 = (
                            kept_g0.0 + answer,
                            kept_g0.1 + facts.community.g0_size.0 as f64,
                        );
                    }
                }
            }
        }
        lines.push(format!(
            "# replayed {} recorded requests, {replayed} searches through the layers",
            recorded.len()
        ));
        let spans_path = self.p.work.join("spans.tsv");
        tr.write_tsv(&spans_path, facts)
            .map_err(|e| format!("writing {spans_path:?}: {e}"))?;

        // Self times by layer; whole-request durations for shares.
        let self_ms = tr.self_ms();
        // `under`: only spans whose parent is that span (parse and decode
        // run for both searches and updates).
        let spans_of = |name: &str, under: Option<&str>, scale: f64| -> Vec<f64> {
            tr.spans()
                .iter()
                .zip(&self_ms)
                .filter(|(s, _)| {
                    s.name == name
                        && under.is_none_or(|u| s.parent.is_some_and(|p| tr.spans()[p].name == u))
                })
                .map(|(_, &ms)| ms * scale)
                .collect()
        };
        let by = |name: &str, scale: f64| spans_of(name, None, scale);
        let total = |name: &str| -> Vec<(u32, f64)> {
            tr.spans()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.req, (s.end - s.start).as_secs_f64() * 1e3))
                .collect()
        };
        let requests = total("request");
        let steiner: f64 = total("core.steiner").iter().map(|x| x.1).sum();
        let lctc_requests: HashSet<u32> = total("core.steiner").iter().map(|x| x.0).collect();
        let lctc_total: f64 = requests
            .iter()
            .filter(|r| lctc_requests.contains(&r.0))
            .map(|r| r.1)
            .sum();
        let request_ms: Vec<f64> = requests.iter().map(|r| r.1).collect();
        let parse_us = spans_of("server.http.parse", Some("request"), 1e3);
        let decode_us = spans_of("server.wire.decode", Some("request"), 1e3);
        let overhead = if request_ms.is_empty() {
            0.0
        } else {
            median(&request_ms) - median(&engine_ms)
        };
        Ok(vec![
            median_metric("core.steiner.self_ms", &by("core.steiner", 1.0), "ms"),
            metric("core.steiner.share", ratio(steiner, lctc_total), "ratio"),
            median_metric("core.local.expand_ms", &by("core.local.expand", 1.0), "ms"),
            median_metric("core.local.gt_edges", &gt_edges, "count"),
            metric(
                "core.local.kept_over_gt",
                ratio(kept_gt.0, kept_gt.1),
                "ratio",
            ),
            median_metric(
                "truss.decompose.local_ms",
                &by("truss.decompose.local", 1.0),
                "ms",
            ),
            median_metric("truss.find_g0.ms", &by("truss.find_g0", 1.0), "ms"),
            median_metric("truss.find_g0.g0_edges", &g0_edges, "count"),
            median_metric("graph.subgraph.ms", &by("graph.subgraph", 1.0), "ms"),
            median_metric("core.peel.ms", &by("core.peel", 1.0), "ms"),
            median_metric("core.peel.rounds", &rounds, "count"),
            metric(
                "core.peel.kept_over_g0",
                ratio(kept_g0.0, kept_g0.1),
                "ratio",
            ),
            median_metric("core.finish_ms", &finish_ms, "ms"),
            median_metric("server.http.parse_us", &parse_us, "us"),
            median_metric("server.wire.decode_us", &decode_us, "us"),
            median_metric(
                "server.wire.encode_us",
                &by("server.wire.encode", 1e3),
                "us",
            ),
            median_metric("server.response_bytes", &response_bytes, "bytes"),
            median_metric("server.respond_us", &respond_us, "us"),
            median_metric("server.wait_us", &wait_us, "us"),
            median_metric(
                "core.engine.apply_batch_ms",
                &by("core.engine.apply_batch", 1.0),
                "ms",
            ),
            median_metric("truss.dynamic.op_us", &by("truss.dynamic.op", 1e3), "us"),
            median_metric("truss.wal.append_us", &by("truss.wal.append", 1e3), "us"),
            median_metric("truss.dynamic.max_class", &max_class, "count"),
            metric("trace.overhead_ms", overhead, "ms"),
        ])
    }
}
