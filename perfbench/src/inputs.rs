//! The workloads and the inputs they draw from the workload seed.
//!
//! Everything here is a pure function of the generated graph and the seed:
//! the same seed gives the same query sets, the same zipfian read order and
//! the same write schedule.

use ctc_gen::{DegreeRank, QueryGenerator};
use ctc_graph::{CsrGraph, EdgeId};
use std::collections::HashSet;

/// One served workload.
pub struct Workload {
    /// Name passed with `--workload`.
    pub name: &'static str,
    /// The `ctc_gen::network_by_name` preset it serves.
    pub preset: &'static str,
    /// Algorithms, in equal shares.
    pub algos: &'static [&'static str],
    /// Query sizes |Q|, in equal shares.
    pub sizes: &'static [usize],
    /// `Some(p)`: reads draw zipfian (s = 1) over a pool of `p` queries;
    /// `None`: every read is a query set not seen before.
    pub zipf_pool: Option<usize>,
    /// Open-loop writes per second during the read window; `None` for a
    /// read-only workload.
    pub write_rate: Option<f64>,
    /// Serve with a write-ahead log, recovered at start-up.
    pub wal: bool,
    /// Recorded requests the traced run replays layer by layer.
    pub replay: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "orkut-lctc",
        preset: "orkut",
        algos: &["lctc"],
        // Exp-2 varies |Q|; an odd number of sizes puts the median inside
        // one size class instead of on the gap between two.
        sizes: &[1, 2, 3, 4, 8],
        zipf_pool: None,
        write_rate: None,
        wal: false,
        replay: 60,
    },
    Workload {
        name: "facebook-peel",
        preset: "facebook",
        algos: &["basic", "bd"],
        sizes: &[3],
        zipf_pool: None,
        write_rate: None,
        wal: false,
        replay: 80,
    },
    Workload {
        name: "youtube-rw",
        preset: "youtube",
        algos: &["lctc", "truss"],
        sizes: &[2],
        zipf_pool: Some(128),
        write_rate: Some(20.0),
        wal: true,
        replay: 400,
    },
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Degree-rank window and inter-distance of every query set (Exp-2's
/// defaults: top 80% by degree, pairwise distance at most 2).
const RANK_TOP: f64 = 0.8;
const INTER_DISTANCE: u32 = 2;

/// Salts separating the seed's independent streams.
const WARMUP_SALT: u64 = 0x5741_524d_5550_0001;
const ZIPF_SALT: u64 = 0x5a49_5046_0000_0002;
const EDGE_SALT: u64 = 0x4544_4745_0000_0003;

/// SplitMix64: a small, fixed generator whose output never changes with
/// a dependency's version.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks: rank `r` (0-based) has weight `1 / (r + 1)^s`.
///
/// Draws go through the inverse CDF at the points of a golden-ratio
/// (Weyl) sequence from a seeded start rather than at independent uniform
/// points, so every prefix of the draws gives each rank close to its
/// share. With independent draws the few hottest ranks, which take most
/// reads, would land a few percent above or below their share at random,
/// and move the workload's cost from seed to seed.
pub struct Zipf {
    cdf: Vec<f64>,
    u: f64,
}

/// The fractional part of the golden ratio.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

impl Zipf {
    /// A sampler over `n >= 1` ranks with exponent `s`, seeded from the
    /// workload seed.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n >= 1, "zipf over an empty pool");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf {
            cdf,
            u: SplitMix64::new(seed ^ ZIPF_SALT).next_f64(),
        }
    }

    /// The next rank.
    pub fn sample(&mut self) -> usize {
        self.u = (self.u + GOLDEN).fract();
        self.cdf
            .partition_point(|&c| c <= self.u)
            .min(self.cdf.len() - 1)
    }
}

/// The order in which to visit `m` sorted slots so that every prefix
/// spreads evenly over them: bit-reversed positions, starting at the upper
/// quartile.
fn spread_order(m: usize) -> Vec<usize> {
    let bits = m.next_power_of_two().trailing_zeros();
    let full = 1usize << bits;
    (0..full)
        .map(|r| {
            let rev = if bits == 0 {
                0
            } else {
                r.reverse_bits() >> (usize::BITS - bits)
            };
            (rev + 3 * full / 4) % full
        })
        .filter(|&pos| pos < m)
        .collect()
}

/// Assigns zipf ranks to a query pool: rank `r` gets algorithm
/// `r % algos`, and within each algorithm the ranks walk the entries by
/// answer size in [`spread_order`]. Zipf puts most reads on a few ranks,
/// so a pool in draw order would let a handful of queries, and therefore
/// the seed, set the workload's cost; stratified, every seed's hot set
/// spans the same range of answer sizes. The hottest rank of each
/// algorithm takes the upper-quartile answer, so the largest answers carry
/// a share of the reads well clear of any reported percentile's edge.
///
/// `entries[i] = (algorithm index, answer bytes)`; returns the entry index
/// for each rank.
pub fn stratify(entries: &[(usize, usize)], algos: usize) -> Vec<usize> {
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); algos];
    for (i, &(a, _)) in entries.iter().enumerate() {
        groups[a].push(i);
    }
    let ordered: Vec<Vec<usize>> = groups
        .into_iter()
        .map(|mut g| {
            g.sort_by_key(|&i| (entries[i].1, i));
            spread_order(g.len())
                .into_iter()
                .map(|pos| g[pos])
                .collect()
        })
        .collect();
    let rounds = ordered.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|k| ordered.iter().filter_map(move |g| g.get(k).copied()))
        .collect()
}

/// One search request: a normalised label set and the algorithm.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    /// Query labels, sorted and deduplicated (the server's normal form).
    pub labels: Vec<u64>,
    /// Algorithm name as the wire spells it.
    pub algo: &'static str,
}

impl Query {
    /// The `/search` request body.
    pub fn body(&self) -> Vec<u8> {
        let labels: Vec<String> = self.labels.iter().map(u64::to_string).collect();
        format!(
            "{{\"query\":[{}],\"algo\":\"{}\"}}",
            labels.join(","),
            self.algo
        )
        .into_bytes()
    }
}

/// Query sets drawn in sequence, each distinct from every set already
/// drawn into the shared `seen` set (after normalisation), so no two
/// requests can share an answer-cache slot.
pub struct QueryStream<'g> {
    gen: QueryGenerator<'g>,
    sizes: &'static [usize],
    algos: &'static [&'static str],
    drawn: usize,
}

impl<'g> QueryStream<'g> {
    /// The measured stream of `w` on `g`.
    pub fn measured(g: &'g CsrGraph, w: &Workload, seed: u64) -> Self {
        Self::new(g, w, seed)
    }

    /// The warm-up stream: a seed disjoint from the measured one, so
    /// warm-up fills scratch pools without warming the answer cache.
    pub fn warmup(g: &'g CsrGraph, w: &Workload, seed: u64) -> Self {
        Self::new(g, w, seed ^ WARMUP_SALT)
    }

    fn new(g: &'g CsrGraph, w: &Workload, seed: u64) -> Self {
        QueryStream {
            gen: QueryGenerator::new(g, seed),
            sizes: w.sizes,
            algos: w.algos,
            drawn: 0,
        }
    }

    /// The next query set not in `seen`; records it there. Sizes cycle
    /// fastest, then algorithms, so both come in equal shares.
    pub fn next(&mut self, seen: &mut HashSet<Vec<u64>>) -> Result<Query, String> {
        let size = self.sizes[self.drawn % self.sizes.len()];
        let algo = self.algos[(self.drawn / self.sizes.len()) % self.algos.len()];
        for _ in 0..1000 {
            let Some(q) = self
                .gen
                .sample(size, DegreeRank::top(RANK_TOP), INTER_DISTANCE)
            else {
                continue;
            };
            let mut labels: Vec<u64> = q.iter().map(|v| u64::from(v.0)).collect();
            labels.sort_unstable();
            labels.dedup();
            if labels.len() == size && seen.insert(labels.clone()) {
                self.drawn += 1;
                return Ok(Query { labels, algo });
            }
        }
        Err(format!(
            "no fresh query set of size {size} after 1000 draws"
        ))
    }
}

/// `count` distinct edges spread over the edge-id range with a stride,
/// from a seeded start: the edges the write stream deletes and restores.
pub fn strided_edges(g: &CsrGraph, seed: u64, count: usize) -> Vec<(u32, u32)> {
    let m = g.num_edges() as u64;
    let count = count.min(m as usize);
    let mut rng = SplitMix64::new(seed ^ EDGE_SALT);
    let start = rng.next_u64() % m;
    let stride = (m / count.max(1) as u64).max(1) | 1;
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut i = 0u64;
    while out.len() < count {
        let e = (start + i * stride + i / m) % m;
        i += 1;
        if seen.insert(e) {
            let (u, v) = g.edge_endpoints(EdgeId(e as u32));
            out.push((u.0, v.0));
        }
    }
    out
}

/// The `i`-th write of a stream of restore pairs over `edges`: even writes
/// delete an edge, odd writes put it back, so every completed pair leaves
/// the graph as it was.
pub fn write_body(edges: &[(u32, u32)], i: usize) -> Vec<u8> {
    let (u, v) = edges[(i / 2) % edges.len()];
    let op = if i.is_multiple_of(2) {
        "delete"
    } else {
        "insert"
    };
    format!("{{\"updates\":[{{\"op\":\"{op}\",\"u\":{u},\"v\":{v}}}]}}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> CsrGraph {
        ctc_gen::barabasi_albert(400, 4, 11)
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut z = Zipf::new(64, 1.0, seed);
            (0..500).map(|_| z.sample()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let mut z = Zipf::new(64, 1.0, 3);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[z.sample()] += 1;
        }
        // Rank 0 has weight 1 / H(64) ~ 0.21; rank 63 has 1/64 of that.
        let share0 = counts[0] as f64 / 20_000.0;
        assert!((0.18..0.24).contains(&share0), "rank 0 share {share0}");
        assert!(counts[0] > 10 * counts[63]);
    }

    #[test]
    fn zipf_shares_hold_on_short_prefixes_for_every_seed() {
        let h: f64 = (1..=128).map(|r| 1.0 / r as f64).sum();
        for seed in 0..20 {
            let mut z = Zipf::new(128, 1.0, seed);
            let mut counts = [0usize; 128];
            for _ in 0..500 {
                counts[z.sample()] += 1;
            }
            for (r, &c) in counts.iter().enumerate().take(4) {
                let want = 500.0 / ((r + 1) as f64 * h);
                assert!(
                    (c as f64 - want).abs() <= 2.0,
                    "seed {seed}: rank {r} drawn {c} times of 500, want {want:.1}"
                );
            }
        }
    }

    #[test]
    fn stratified_ranks_alternate_algorithms_and_spread_over_sizes() {
        // Eight entries, two algorithms, sizes 0..4 within each.
        let entries: Vec<(usize, usize)> = (0..8).map(|i| (i % 2, 10 * (i / 2))).collect();
        let order = stratify(&entries, 2);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "a permutation");
        let algos: Vec<usize> = order.iter().map(|&i| entries[i].0).collect();
        assert_eq!(algos, [0, 1, 0, 1, 0, 1, 0, 1]);
        // Within an algorithm: the upper quartile first, then the lower
        // quartile, the smallest, and the median.
        let sizes: Vec<usize> = order.iter().step_by(2).map(|&i| entries[i].1).collect();
        assert_eq!(sizes, [30, 10, 0, 20]);
        assert_eq!(spread_order(5), [2, 0, 4, 3, 1]);
        assert_eq!(spread_order(1), [0]);
        assert!(stratify(&[], 2).is_empty());
    }

    #[test]
    fn query_sets_are_deterministic_per_seed_and_distinct() {
        let g = graph();
        let w = workload("orkut-lctc").unwrap();
        let draw = |seed| {
            let mut seen = HashSet::new();
            let mut s = QueryStream::measured(&g, w, seed);
            (0..40)
                .map(|_| s.next(&mut seen).unwrap())
                .collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        let sets: HashSet<_> = a.iter().map(|q| q.labels.clone()).collect();
        assert_eq!(sets.len(), a.len(), "sets repeat after normalisation");
        for (i, q) in a.iter().enumerate() {
            assert_eq!(q.labels.len(), w.sizes[i % w.sizes.len()]);
            assert!(q.labels.windows(2).all(|p| p[0] < p[1]));
        }
    }

    #[test]
    fn warmup_never_repeats_a_measured_set() {
        let g = graph();
        let w = workload("facebook-peel").unwrap();
        let mut seen = HashSet::new();
        let mut warm = QueryStream::warmup(&g, w, 9);
        let warm_sets: Vec<_> = (0..20).map(|_| warm.next(&mut seen).unwrap()).collect();
        let mut measured = QueryStream::measured(&g, w, 9);
        for _ in 0..60 {
            let q = measured.next(&mut seen).unwrap();
            assert!(warm_sets.iter().all(|wq| wq.labels != q.labels));
        }
        let algos: Vec<_> = warm_sets.iter().map(|q| q.algo).collect();
        assert_eq!(&algos[..2], &["basic", "bd"], "algorithms alternate");
    }

    #[test]
    fn strided_edges_are_distinct_edges_of_the_graph() {
        let g = graph();
        let a = strided_edges(&g, 4, 50);
        assert_eq!(a, strided_edges(&g, 4, 50));
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 50);
        for &(u, v) in &a {
            assert!(g.has_edge(ctc_graph::VertexId(u), ctc_graph::VertexId(v)));
        }
    }

    #[test]
    fn writes_come_in_restore_pairs() {
        let edges = [(1, 2), (3, 4)];
        let bodies: Vec<String> = (0..4)
            .map(|i| String::from_utf8(write_body(&edges, i)).unwrap())
            .collect();
        assert!(bodies[0].contains("delete") && bodies[0].contains("\"u\":1"));
        assert!(bodies[1].contains("insert") && bodies[1].contains("\"u\":1"));
        assert!(bodies[2].contains("delete") && bodies[2].contains("\"u\":3"));
    }
}
