//! The independent answer checker.
//!
//! It reads a `/search` response body and verifies, without calling any
//! search code, that the community is a connected k-truss of the served
//! graph at the reported k, that it contains the query, and that its
//! reported query distance matches a BFS recomputation.

use ctc_graph::{CsrGraph, VertexId};
use ctc_server::Json;
use std::collections::VecDeque;

/// A decoded `/search` answer, in label space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// Reported trussness.
    pub k: u32,
    /// Community vertices.
    pub vertices: Vec<u64>,
    /// Community edges.
    pub edges: Vec<(u64, u64)>,
    /// Reported query distance.
    pub query_distance: u32,
}

fn field_u64(root: &Json, key: &str) -> Result<u64, String> {
    root.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("answer lacks an integer {key:?}"))
}

/// Decodes an answer body, checking its declared counts.
pub fn parse_answer(body: &[u8]) -> Result<Answer, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    let root = Json::parse(text).map_err(|e| format!("answer is not JSON: {e}"))?;
    let list = |key: &str| {
        root.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("answer lacks an array {key:?}"))
    };
    let vertices = list("vertices")?
        .iter()
        .map(|v| v.as_u64().ok_or("vertex is not a label"))
        .collect::<Result<Vec<u64>, _>>()?;
    let edges = list("edges")?
        .iter()
        .map(|e| match e.as_array() {
            Some([a, b]) => match (a.as_u64(), b.as_u64()) {
                (Some(a), Some(b)) => Ok((a, b)),
                _ => Err("edge endpoint is not a label"),
            },
            _ => Err("edge is not a pair"),
        })
        .collect::<Result<Vec<_>, _>>()?;
    if field_u64(&root, "num_vertices")? != vertices.len() as u64
        || field_u64(&root, "num_edges")? != edges.len() as u64
    {
        return Err("declared counts disagree with the lists".into());
    }
    let narrow =
        |key| u32::try_from(field_u64(&root, key)?).map_err(|_| format!("{key:?} out of range"));
    Ok(Answer {
        k: narrow("k")?,
        vertices,
        edges,
        query_distance: narrow("query_distance")?,
    })
}

/// Checks `body` as the answer to query `q` on `g` (labels are dense ids:
/// the generated graphs carry no label table).
pub fn check_answer(g: &CsrGraph, q: &[u64], body: &[u8]) -> Result<(), String> {
    check(g, q, &parse_answer(body)?)
}

fn check(g: &CsrGraph, q: &[u64], a: &Answer) -> Result<(), String> {
    let n = a.vertices.len();
    if n == 0 {
        return Err("empty community".into());
    }
    if !a.vertices.windows(2).all(|w| w[0] < w[1]) {
        return Err("vertices are not strictly ascending".into());
    }
    if a.vertices[n - 1] >= g.num_vertices() as u64 {
        return Err("vertex outside the graph".into());
    }
    let local = |label: u64| a.vertices.binary_search(&label).ok();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(u, v) in &a.edges {
        let (Some(lu), Some(lv)) = (local(u), local(v)) else {
            return Err(format!("edge ({u},{v}) leaves the vertex set"));
        };
        if u == v || !g.has_edge(VertexId(u as u32), VertexId(v as u32)) {
            return Err(format!("edge ({u},{v}) is not in the graph"));
        }
        adj[lu].push(lv);
        adj[lv].push(lu);
    }
    let ql = q
        .iter()
        .map(|&l| local(l).ok_or(format!("query vertex {l} is missing")))
        .collect::<Result<Vec<_>, _>>()?;
    for (x, list) in adj.iter_mut().enumerate() {
        list.sort_unstable();
        if list.windows(2).any(|p| p[0] == p[1]) {
            return Err(format!("an edge at vertex {} is repeated", a.vertices[x]));
        }
    }
    // Connected, and the query distance max_{v} max_{q} dist(v, q).
    let mut qd = 0u32;
    for (i, &s) in ql.iter().chain(std::iter::once(&0)).enumerate() {
        let dist = bfs(&adj, s);
        if dist.contains(&u32::MAX) {
            return Err("community is not connected".into());
        }
        if i < ql.len() {
            qd = qd.max(dist.into_iter().max().unwrap_or(0));
        }
    }
    if qd != a.query_distance {
        return Err(format!(
            "query distance {} reported, {qd} recomputed",
            a.query_distance
        ));
    }
    // k-truss: every edge closes at least k - 2 triangles inside.
    if a.k < 2 {
        return Err(format!("k = {} is below 2", a.k));
    }
    let need = (a.k - 2) as usize;
    for (x, list) in adj.iter().enumerate() {
        for &y in list.iter().filter(|&&y| y > x) {
            if !shares_at_least(&adj[x], &adj[y], need) {
                return Err(format!(
                    "edge ({},{}) has support below k - 2 = {need}",
                    a.vertices[x], a.vertices[y]
                ));
            }
        }
    }
    Ok(())
}

fn bfs(adj: &[Vec<usize>], s: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; adj.len()];
    dist[s] = 0;
    let mut queue = VecDeque::from([s]);
    while let Some(x) = queue.pop_front() {
        for &y in &adj[x] {
            if dist[y] == u32::MAX {
                dist[y] = dist[x] + 1;
                queue.push_back(y);
            }
        }
    }
    dist
}

/// `true` when sorted `a` and `b` have at least `need` common entries.
fn shares_at_least(a: &[usize], b: &[usize], need: usize) -> bool {
    let (mut i, mut j, mut c) = (0, 0, 0);
    while c < need && i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c >= need
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctc_core::{CommunityEngine, SearchAlgo};
    use ctc_server::encode_community;
    use ctc_truss::fixtures::{figure1_graph, Figure1Ids};

    fn encode(a: &Answer) -> Vec<u8> {
        let pair = |&(u, v): &(u64, u64)| Json::Array(vec![Json::Uint(u), Json::Uint(v)]);
        Json::Object(vec![
            ("k".into(), Json::Uint(a.k.into())),
            ("num_vertices".into(), Json::Uint(a.vertices.len() as u64)),
            ("num_edges".into(), Json::Uint(a.edges.len() as u64)),
            ("query_distance".into(), Json::Uint(a.query_distance.into())),
            (
                "vertices".into(),
                Json::Array(a.vertices.iter().map(|&v| Json::Uint(v)).collect()),
            ),
            (
                "edges".into(),
                Json::Array(a.edges.iter().map(pair).collect()),
            ),
        ])
        .encode()
        .into_bytes()
    }

    /// Figure 1's Basic answer for {q1, q2, q3}: a 4-truss on 8 vertices.
    fn figure1_answer() -> (CsrGraph, Vec<u64>, Vec<u8>) {
        let g = figure1_graph();
        let f = Figure1Ids::default();
        let q = [f.q1, f.q2, f.q3];
        let engine = CommunityEngine::build(g.clone());
        let c = engine.search(&q, SearchAlgo::Basic).unwrap();
        let mut labels: Vec<u64> = q.iter().map(|v| u64::from(v.0)).collect();
        labels.sort_unstable();
        (g, labels, encode_community(&engine, &c))
    }

    #[test]
    fn engine_answers_pass() {
        let (g, q, body) = figure1_answer();
        assert_eq!(check_answer(&g, &q, &body), Ok(()));
        let a = parse_answer(&body).unwrap();
        assert_eq!((a.k, a.vertices.len()), (4, 8));
        assert_eq!(encode(&a), body, "the test encoder matches the wire");
    }

    #[test]
    fn a_dropped_vertex_is_rejected() {
        let (g, q, body) = figure1_answer();
        let a = parse_answer(&body).unwrap();
        for &drop in a.vertices.iter() {
            // With its edges: the query goes missing or supports fall.
            let mut m = a.clone();
            m.vertices.retain(|&v| v != drop);
            m.edges.retain(|&(u, v)| u != drop && v != drop);
            assert!(check_answer(&g, &q, &encode(&m)).is_err(), "dropped {drop}");
            // Without its edges: an edge leaves the vertex set.
            let mut m = a.clone();
            m.vertices.retain(|&v| v != drop);
            assert!(check_answer(&g, &q, &encode(&m)).is_err(), "dropped {drop}");
        }
    }

    #[test]
    fn a_wrong_k_is_rejected() {
        let (g, q, body) = figure1_answer();
        let mut a = parse_answer(&body).unwrap();
        a.k += 1;
        assert!(check_answer(&g, &q, &encode(&a))
            .unwrap_err()
            .contains("support"));
        a.k = 1;
        assert!(check_answer(&g, &q, &encode(&a)).is_err());
    }

    #[test]
    fn a_wrong_distance_is_rejected() {
        let (g, q, body) = figure1_answer();
        let a = parse_answer(&body).unwrap();
        for qd in [a.query_distance - 1, a.query_distance + 1] {
            let m = Answer {
                query_distance: qd,
                ..a.clone()
            };
            assert!(check_answer(&g, &q, &encode(&m))
                .unwrap_err()
                .contains("query distance"));
        }
    }

    #[test]
    fn foreign_edges_and_bad_counts_are_rejected() {
        let (g, q, body) = figure1_answer();
        let a = parse_answer(&body).unwrap();
        let mut m = a.clone();
        let (x, y) = (a.vertices[0], a.vertices[1]);
        if g.has_edge(VertexId(x as u32), VertexId(y as u32)) {
            m.edges.retain(|&e| e != (x, y));
        } else {
            m.edges.push((x, y));
        }
        assert!(check_answer(&g, &q, &encode(&m)).is_err());
        let text = String::from_utf8(body).unwrap();
        let lied = text.replacen("\"num_edges\":", "\"num_edges\":1", 1);
        assert!(check_answer(&g, &q, lied.as_bytes()).is_err());
    }
}
