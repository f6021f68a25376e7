//! The load generator: closed-loop readers and the open-loop writer,
//! recording every request they send.

use crate::http::{request_bytes, Client, ServerProcess};
use crate::inputs::{write_body, Query, QueryStream, Workload, Zipf};
use ctc_server::Json;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Closed-loop read connections. One: with two server workers on a
/// two-CPU host, a second keeps both CPUs busy with searches, and latency
/// then moves with how much CPU the host hands out at that moment.
const READ_CONNS: usize = 1;

/// `serve_rss_mib` is the server's peak resident memory once it has
/// answered this many reads of the window. At a fixed count, and not at
/// the end of the window, it measures the same work on a fast host and a
/// slow one: every answer to a new query set lands in the answer cache.
pub const RSS_AFTER_READS: usize = 150;

/// A 64-bit content digest of a response body.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let x = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(23);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where the window's reads come from.
pub enum Source<'g> {
    /// Fresh query sets, never repeated.
    Fresh(QueryStream<'g>, HashSet<Vec<u64>>),
    /// Zipfian draws over a fixed pool.
    Pool(Zipf),
}

/// Reads and the queries they asked, shared by the reader threads.
pub struct Reads<'g> {
    pub source: Source<'g>,
    pub queries: Vec<Query>,
}

impl Reads<'_> {
    fn next(&mut self) -> Result<usize, String> {
        match &mut self.source {
            Source::Fresh(stream, seen) => {
                self.queries.push(stream.next(seen)?);
                Ok(self.queries.len() - 1)
            }
            Source::Pool(zipf) => Ok(zipf.sample()),
        }
    }
}

/// One read: which query, how it was answered, and when.
pub struct ReadRec {
    /// Index into the run's queries.
    pub q: usize,
    /// Answered with a 200.
    pub ok: bool,
    /// Served from the answer cache.
    pub hit: bool,
    /// Digest of the answer body.
    pub digest: u64,
    /// Response bytes, head included.
    pub wire_bytes: usize,
    /// First request byte written.
    pub start: Instant,
    /// Last response byte read.
    pub end: Instant,
}

/// One write: its place in the write stream, whether it was applied, and
/// when it was due, sent and answered.
pub struct WriteRec {
    pub i: usize,
    pub ok: bool,
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
}

/// Distinct answer bodies seen, keyed by (query, digest).
pub type Bodies = HashMap<(usize, u64), Vec<u8>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a load-generator thread panicked")
}

/// Sends one read. A transport error is a failed read; the connection
/// is then replaced.
fn read_once(
    c: &mut Client,
    addr: SocketAddr,
    reads: &Mutex<Reads>,
    bodies: &Mutex<Bodies>,
) -> Result<ReadRec, String> {
    let (q, raw) = {
        let mut r = lock(reads);
        let q = r.next()?;
        (q, request_bytes("POST", "/search", &r.queries[q].body()))
    };
    let start = Instant::now();
    let reply = match c.send(&raw) {
        Ok(reply) => reply,
        Err(_) => {
            *c = Client::connect(addr).map_err(|e| format!("reconnecting: {e}"))?;
            return Ok(ReadRec {
                q,
                ok: false,
                hit: false,
                digest: 0,
                wire_bytes: 0,
                start,
                end: Instant::now(),
            });
        }
    };
    let ok = reply.status == 200;
    let d = digest(c.body());
    if ok {
        lock(bodies)
            .entry((q, d))
            .or_insert_with(|| c.body().to_vec());
    }
    Ok(ReadRec {
        q,
        ok,
        hit: reply.cache.as_deref() == Some("hit"),
        digest: d,
        wire_bytes: reply.wire_bytes,
        start: reply.start,
        end: reply.end,
    })
}

fn write_once(c: &mut Client, edges: &[(u32, u32)], i: usize, due: Instant) -> WriteRec {
    let raw = request_bytes("POST", "/update", &write_body(edges, i));
    let start = Instant::now();
    let ok = c.send(&raw).is_ok_and(|r| r.status == 200) && {
        let text = std::str::from_utf8(c.body()).unwrap_or("");
        Json::parse(text).is_ok_and(|j| {
            j.get("applied").and_then(Json::as_u64) == Some(1)
                && j.get("rejected").and_then(Json::as_u64) == Some(0)
        })
    };
    WriteRec {
        i,
        ok,
        due,
        start,
        end: Instant::now(),
    }
}

/// One restore pair on `edge`, before any measured write, so the
/// writer's maintenance state is adopted outside the measurement. `false`
/// when a write failed.
pub fn warm_up_writes(c: &mut Client, edge: &[(u32, u32)]) -> bool {
    let pair = [0, 1].map(|i| write_once(c, edge, i, Instant::now()).ok);
    pair == [true, true]
}

/// What the measured window produced, over all its slices.
#[derive(Default)]
pub struct Window {
    pub reads: Vec<ReadRec>,
    pub writes: Vec<WriteRec>,
    pub warm_errors: usize,
    /// Seconds measured: from each slice's start to its last read.
    pub seconds: f64,
}

/// What the load generator sends, and where.
pub struct Load<'a, 'g> {
    pub w: &'a Workload,
    pub addr: SocketAddr,
    pub reads: &'a Mutex<Reads<'g>>,
    /// Warm-up reads not sent yet.
    pub warmup: &'a Mutex<Vec<Query>>,
    pub bodies: &'a Mutex<Bodies>,
    /// The edges the write stream deletes and restores.
    pub edges: &'a [(u32, u32)],
    /// The server, whose memory is read after `RSS_AFTER_READS` reads.
    pub server: &'a ServerProcess,
    /// Reads answered so far, over all slices.
    pub answered: AtomicUsize,
    /// The server's peak memory after `RSS_AFTER_READS` reads, MiB.
    pub rss_mib: OnceLock<Result<f64, String>>,
}

impl Load<'_, '_> {
    /// Warm-up (whatever is left of it), then one slice of the measured
    /// window, appended to `window`: closed-loop readers and, when the
    /// workload has one, the open-loop writer, which goes on with the
    /// write stream where the previous slice left it.
    pub fn slice(&self, seconds: f64, window: &mut Window) -> Result<(), String> {
        let Load {
            w,
            addr,
            reads,
            warmup,
            bodies,
            edges,
            ..
        } = *self;
        let first_write = window.writes.len();
        let threads = READ_CONNS + usize::from(w.write_rate.is_some());
        let barrier = Barrier::new(threads);
        let t0: OnceLock<Instant> = OnceLock::new();
        let span = Duration::from_secs_f64(seconds);
        let warm_errors = Mutex::new(0usize);
        let (barrier, t0, warm_errors) = (&barrier, &t0, &warm_errors);
        let outcome = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READ_CONNS)
                .map(|_| {
                    s.spawn(|| -> Result<Vec<ReadRec>, String> {
                        let mut c = Client::connect(addr).map_err(|e| e.to_string());
                        while let Some(q) = c.is_ok().then(|| lock(warmup).pop()).flatten() {
                            let raw = request_bytes("POST", "/search", &q.body());
                            let conn = c.as_mut().expect("checked above");
                            if !conn.send(&raw).is_ok_and(|r| r.status == 200) {
                                *lock(warm_errors) += 1;
                            }
                        }
                        barrier.wait();
                        let mut c = c?;
                        let deadline = *t0.get_or_init(Instant::now) + span;
                        let mut out = Vec::new();
                        while Instant::now() < deadline {
                            out.push(read_once(&mut c, addr, reads, bodies)?);
                            if self.answered.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER_READS
                            {
                                let _ = self.rss_mib.set(self.server.peak_rss_mib());
                            }
                        }
                        Ok(out)
                    })
                })
                .collect();
            let writer = w.write_rate.map(|rate| {
                s.spawn(move || -> Result<Vec<WriteRec>, String> {
                    let c = Client::connect(addr).map_err(|e| e.to_string());
                    barrier.wait();
                    let mut c = c?;
                    let start = *t0.get_or_init(Instant::now);
                    let period = Duration::from_secs_f64(1.0 / rate);
                    let mut out = Vec::new();
                    for i in 0.. {
                        let due = start + period * i as u32;
                        // Only between restore pairs: the graph ends as it began.
                        if i % 2 == 0 && due >= start + span {
                            break;
                        }
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        out.push(write_once(&mut c, edges, first_write + i, due));
                    }
                    Ok(out)
                })
            });
            let mut all_reads = Vec::new();
            for r in readers {
                all_reads.extend(r.join().expect("reader thread panicked")?);
            }
            let writes = match writer {
                Some(h) => h.join().expect("writer thread panicked")?,
                None => Vec::new(),
            };
            Ok::<_, String>((all_reads, writes))
        })?;
        let (mut all_reads, writes) = outcome;
        all_reads.sort_by_key(|r| r.end);
        let t0 = *t0.get().expect("slice started");
        window.seconds += all_reads
            .last()
            .map_or(seconds, |r| (r.end - t0).as_secs_f64());
        window.reads.extend(all_reads);
        window.writes.extend(writes);
        window.warm_errors += *lock(warm_errors);
        Ok(())
    }
}
