//! Test oracle for the routing tables: the dense construction — every
//! (domain, gap) an `E × E` matrix built cell by cell — with its
//! interpolation, row totals, domain mixture and the sequential
//! subtract-and-compare scan, and the properties that hold
//! [`RoutingModel`] to it bit for bit.

use super::*;
use proptest::prelude::*;

/// Every (domain, gap) transition as a dense row-major `E × E` matrix.
pub(crate) struct Dense {
    pub e: usize,
    pub transitions: Vec<Vec<Vec<f64>>>,
}

impl Dense {
    /// The model `spec` describes, one cell at a time.
    pub fn new(spec: &AffinityModelSpec) -> Self {
        let e = spec.n_experts;
        let gaps = spec.n_layers.saturating_sub(1);
        let uniform = 1.0 / e as f64;

        // Shared core structure: per gap, an average of m permutations.
        let core: Vec<Vec<f64>> = (0..gaps)
            .map(|gap| {
                let mut s = vec![0.0f64; e * e];
                for i in 0..spec.n_permutations {
                    let mut rng =
                        StdRng::seed_from_u64(sub_seed(spec.seed, &[1, gap as u64, i as u64]));
                    let p = random_permutation(e, &mut rng);
                    for (row, &col) in p.iter().enumerate() {
                        s[row * e + col] += 1.0 / spec.n_permutations as f64;
                    }
                }
                s
            })
            .collect();

        let transitions = (0..spec.n_domains)
            .map(|d| {
                (0..gaps)
                    .map(|gap| {
                        // Domain-specific structure.
                        let mut dom = vec![0.0f64; e * e];
                        for i in 0..spec.n_permutations {
                            let mut rng = StdRng::seed_from_u64(sub_seed(
                                spec.seed,
                                &[2, gap as u64, d as u64, i as u64],
                            ));
                            let p = random_permutation(e, &mut rng);
                            for (row, &col) in p.iter().enumerate() {
                                dom[row * e + col] += 1.0 / spec.n_permutations as f64;
                            }
                        }
                        let mu = spec.domain_share;
                        let kappa = spec.affinity;
                        (0..e * e)
                            .map(|idx| {
                                let s = mu * core[gap][idx] + (1.0 - mu) * dom[idx];
                                kappa * s + (1.0 - kappa) * uniform
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Dense { e, transitions }
    }

    /// Every cell blended: `(1 - alpha) * self + alpha * other`.
    pub fn interpolate(&self, other: &Dense, alpha: f64) -> Dense {
        let transitions = self
            .transitions
            .iter()
            .zip(&other.transitions)
            .map(|(da, db)| {
                da.iter()
                    .zip(db)
                    .map(|(ga, gb)| {
                        ga.iter()
                            .zip(gb)
                            .map(|(&a, &b)| (1.0 - alpha) * a + alpha * b)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Dense {
            e: self.e,
            transitions,
        }
    }

    /// Every row of `domain`'s matrix for `gap` summed left to right.
    pub fn row_totals(&self, domain: usize, gap: usize) -> Vec<f64> {
        self.transitions[domain][gap]
            .chunks_exact(self.e)
            .map(|row| row.iter().fold(0.0f64, |total, &p| total + p))
            .collect()
    }

    /// The domain mixture for `gap`, `weights` normalized by their sum.
    pub fn mixture(&self, weights: &[f64], gap: usize) -> Vec<f64> {
        let total: f64 = weights.iter().sum();
        let mut out = vec![0.0f64; self.e * self.e];
        for (d, &w) in weights.iter().enumerate() {
            let w = w / total;
            for (o, &v) in out.iter_mut().zip(&self.transitions[d][gap]) {
                *o += w * v;
            }
        }
        out
    }

    /// Row `from` of `domain`'s matrix for `gap`.
    pub fn row(&self, domain: usize, gap: usize, from: usize) -> &[f64] {
        &self.transitions[domain][gap][from * self.e..(from + 1) * self.e]
    }

    /// The sequential scan at an explicit `target`: walk row `from`'s
    /// cells but `exclude`, subtracting each from `target` until it falls
    /// below one; past the end, the last cell walked.
    pub fn scan(
        &self,
        domain: usize,
        gap: usize,
        from: usize,
        mut target: f64,
        exclude: Option<usize>,
    ) -> usize {
        let mut fallback = from;
        for (i, &p) in self.row(domain, gap, from).iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            fallback = i;
            if target < p {
                return i;
            }
            target -= p;
        }
        fallback
    }

    /// One draw of the sampler from row `from`: the admissible cells
    /// summed, the uniform scaled by that, and the scan.
    pub fn draw(
        &self,
        rng: &mut StdRng,
        domain: usize,
        gap: usize,
        from: usize,
        exclude: Option<usize>,
    ) -> usize {
        let total = self
            .row(domain, gap, from)
            .iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != exclude)
            .fold(0.0f64, |total, (_, &p)| total + p);
        self.scan(domain, gap, from, rng.gen::<f64>() * total, exclude)
    }

    /// One top-`k` route of `n_layers` layers, flat, in
    /// [`RoutingModel::sample_route_into`]'s draw order: the primary walk,
    /// then the second picks layer by layer.
    pub fn route(&self, rng: &mut StdRng, n_layers: usize, domain: usize, k: usize) -> Vec<u16> {
        let mut primary = vec![rng.gen_range(0..self.e)];
        for gap in 0..n_layers - 1 {
            let next = self.draw(rng, domain, gap, primary[gap], None);
            primary.push(next);
        }
        let mut route = Vec::with_capacity(n_layers * k);
        for (layer, &p) in primary.iter().enumerate() {
            route.push(p as u16);
            if k == 2 {
                let second = if layer == 0 {
                    let s = rng.gen_range(0..self.e - 1);
                    s + usize::from(s >= p)
                } else {
                    self.draw(rng, domain, layer - 1, primary[layer - 1], Some(p))
                };
                route.push(second as u16);
            }
        }
        route
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `model` holds `dense`'s every cell, every row total and the domain
/// mixture under `weights`, to the bit.
pub(crate) fn assert_same_bits(model: &RoutingModel, dense: &Dense, weights: &[f64]) {
    let e = dense.e;
    for (d, gaps) in dense.transitions.iter().enumerate() {
        for (gap, matrix) in gaps.iter().enumerate() {
            assert_eq!(
                bits(&model.transition(d, gap)),
                bits(matrix),
                "domain {d} gap {gap}: cells"
            );
            let totals: Vec<f64> = (0..e).map(|from| model.row_total(d, gap, from)).collect();
            assert_eq!(
                bits(&totals),
                bits(&dense.row_totals(d, gap)),
                "domain {d} gap {gap}: row totals"
            );
        }
    }
    for gap in 0..model.n_layers().saturating_sub(1) {
        assert_eq!(
            bits(&model.mixture_transition(weights, gap)),
            bits(&dense.mixture(weights, gap)),
            "gap {gap}: mixture"
        );
    }
}

/// κ or `domain_share`: either endpoint, or anywhere between.
fn unit() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fresh models, and models interpolated twice, hold the dense
    /// construction's cells, row totals and mixture to the bit. The three
    /// specs share a shape and may differ in everything else.
    #[test]
    fn tables_match_the_dense_construction_to_the_bit(
        (e, l, n_domains) in (1usize..=96, 1usize..=5, 1usize..=4),
        (kappas, shares) in (proptest::collection::vec(unit(), 3), proptest::collection::vec(unit(), 3)),
        (perms, seeds) in (proptest::collection::vec(1usize..=3, 3), proptest::collection::vec(0u64..1_000_000, 3)),
        weights in proptest::collection::vec(prop_oneof![Just(0.0), 0.0f64..3.0], 4),
        (alpha, beta) in (unit(), unit()),
    ) {
        let specs: Vec<AffinityModelSpec> = (0..3)
            .map(|i| {
                let mut spec = AffinityModelSpec::new(l, e)
                    .with_affinity(kappas[i])
                    .with_seed(seeds[i]);
                spec.n_permutations = perms[i];
                spec.n_domains = n_domains;
                spec.domain_share = shares[i];
                spec
            })
            .collect();
        // Some weights zero, never all of them.
        let mut weights = weights[..n_domains].to_vec();
        weights[0] += 0.5;
        let dense: Vec<Dense> = specs.iter().map(Dense::new).collect();
        let models: Vec<RoutingModel> = specs.iter().map(AffinityModelSpec::build).collect();
        for (model, dense) in models.iter().zip(&dense) {
            assert_same_bits(model, dense, &weights);
        }
        let once = models[0].interpolate(&models[1], alpha);
        let dense_once = dense[0].interpolate(&dense[1], alpha);
        assert_same_bits(&once, &dense_once, &weights);
        assert_same_bits(
            &once.interpolate(&models[2], beta),
            &dense_once.interpolate(&dense[2], beta),
            &weights,
        );
    }
}

#[test]
fn tables_match_the_dense_construction_at_e512() {
    let spec = AffinityModelSpec::new(2, 512).with_seed(0x0e51_2e51);
    let other = spec.clone().with_affinity(0.6).with_seed(3);
    let weights = [1.0, 2.0, 0.0, 0.5];
    let (a, b) = (spec.build(), other.build());
    let (da, db) = (Dense::new(&spec), Dense::new(&other));
    assert_same_bits(&a, &da, &weights);
    assert_same_bits(&b, &db, &weights);
    let mid = a.interpolate(&b, 0.3);
    let dense_mid = da.interpolate(&db, 0.3);
    assert_same_bits(&mid, &dense_mid, &weights);
    assert_same_bits(
        &mid.interpolate(&a, 0.7),
        &dense_mid.interpolate(&da, 0.7),
        &weights,
    );
}

/// `x` moved `steps` ulps (a non-negative `x` stays non-negative, or
/// `None`).
fn ulps_away(x: f64, steps: i64) -> Option<f64> {
    x.to_bits().checked_add_signed(steps).map(f64::from_bits)
}

/// Every target the certificate could misjudge in row `from` with
/// `exclude` left out — each prefix sum of the admissible cells and its
/// neighbours up to four ulps away, 0, the total and
/// `total * (1 - EPSILON)` — lands where the scan does. And the
/// certificate is not vacuous: the midpoint of every admissible cell wider
/// than `1e-9` is settled by the search alone.
fn attack_row(
    model: &RoutingModel,
    dense: &Dense,
    (domain, gap, from): (usize, usize, usize),
    exclude: Option<usize>,
) {
    let fallbacks = || FALLBACKS.with(std::cell::Cell::get);
    let row = dense.row(domain, gap, from);
    let admissible = || row.iter().enumerate().filter(|&(i, _)| Some(i) != exclude);
    let total = admissible().fold(0.0f64, |total, (_, &p)| total + p);
    let mut edges = vec![0.0, total, total * (1.0 - f64::EPSILON)];
    let mut prefix = 0.0f64;
    for (i, &p) in admissible() {
        if p > 1e-9 {
            let settled = fallbacks();
            let mid = model.next_at(domain, gap, from, prefix + p / 2.0, exclude);
            assert_eq!((mid, fallbacks()), (i, settled), "row {from} cell {i}");
        }
        prefix += p;
        edges.push(prefix);
    }
    for edge in edges {
        for target in (-4..=4).filter_map(|steps| ulps_away(edge, steps)) {
            if (0.0..=total).contains(&target) {
                assert_eq!(
                    model.next_at(domain, gap, from, target, exclude),
                    dense.scan(domain, gap, from, target, exclude),
                    "E {} domain {domain} gap {gap} row {from} excluding {exclude:?} \
                     target {target:e} ({:#x})",
                    dense.e,
                    target.to_bits()
                );
            }
        }
    }
}

/// [`attack_row`] on the `rows` of every table of a fresh model and of its
/// blend with another, whole and with a cell left out.
fn attack(spec: &AffinityModelSpec, rows: impl Fn(usize) -> bool) {
    let other = spec
        .clone()
        .with_affinity(spec.affinity * 0.5)
        .with_seed(spec.seed ^ 0x5eed);
    let (a, b) = (spec.build(), other.build());
    let (da, db) = (Dense::new(spec), Dense::new(&other));
    for (model, dense) in [(a.interpolate(&b, 0.4), da.interpolate(&db, 0.4)), (a, da)] {
        for d in 0..spec.n_domains {
            for gap in 0..spec.n_layers - 1 {
                for from in (0..spec.n_experts).filter(|&f| rows(f)) {
                    // Top-2's second pick leaves out one cell: the first,
                    // the last, or a spike.
                    let e = spec.n_experts;
                    let spike = model.rows.get(model.row_index(d, gap, from))[0].col as usize;
                    let excludes = [None, Some(0), Some(e - 1), Some(spike)];
                    for exclude in excludes.into_iter().filter(|x| e > 1 || x.is_none()) {
                        attack_row(&model, &dense, (d, gap, from), exclude);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The certified search returns the scan's cell at every prefix
    /// boundary of every row and around it — κ = 1 rows (a zero floor)
    /// and E = 1 among them.
    #[test]
    fn search_matches_the_scan_at_every_row_boundary(
        e in 1usize..=48,
        (kappa, share) in (unit(), unit()),
        n_permutations in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let mut spec = AffinityModelSpec::new(2, e)
            .with_affinity(kappa)
            .with_seed(seed);
        spec.n_permutations = n_permutations;
        spec.n_domains = 2;
        spec.domain_share = share;
        attack(&spec, |_| true);
    }
}

#[test]
fn search_matches_the_scan_at_row_boundaries_at_the_edges() {
    for kappa in [0.0, 0.85, 1.0] {
        for e in [1, 2] {
            let spec = AffinityModelSpec::new(2, e).with_affinity(kappa);
            attack(&spec, |_| true);
        }
    }
    // The benchmark's width: the first and last rows of one domain.
    for kappa in [0.85, 1.0] {
        let spec = AffinityModelSpec {
            n_domains: 1,
            ..AffinityModelSpec::new(2, 512).with_affinity(kappa)
        };
        attack(&spec, |from| from == 0 || from == 511);
    }
}

/// The step between the uniforms `gen::<f64>()` yields: multiples of
/// 2^-53 in `[0, 1)`.
const GRID: f64 = f64::EPSILON / 2.0;

/// Every uniform an unrestricted draw from row `from` could be misjudged
/// at lands where the dense scan does: both edge uniforms of each of the
/// row's `G` guide buckets (`b / G`, and the last grid point below
/// `(b + 1) / G`), and the grid points up to four steps either side of
/// where each cell's bracket of targets starts and of where the last one
/// ends.
fn attack_uniforms(
    model: &RoutingModel,
    dense: &Dense,
    (domain, gap, from): (usize, usize, usize),
) {
    let g = buckets(dense.e);
    let row = dense.row(domain, gap, from);
    let total = row.iter().fold(0.0f64, |total, &p| total + p);
    let mut uniforms: Vec<f64> = (0..g)
        .flat_map(|b| [b as f64 / g as f64, (b + 1) as f64 / g as f64 - GRID])
        .collect();
    let mut prefix = 0.0f64;
    for &p in row.iter().chain([&0.0]) {
        let at = (prefix / total / GRID).floor() * GRID;
        uniforms.extend((-4..=4).map(|steps| at + f64::from(steps) * GRID));
        prefix += p;
    }
    for u in uniforms.into_iter().filter(|u| (0.0..1.0).contains(u)) {
        assert_eq!(
            model.draw_at(domain, gap, from, u),
            dense.scan(domain, gap, from, u * total, None),
            "E {} domain {domain} gap {gap} row {from} uniform {u:e} ({:#x})",
            dense.e,
            u.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An unrestricted draw is the dense scan's at every bucket edge and
    /// around every cell bracket, in fresh and interpolated models: E
    /// powers of two and not, κ and `domain_share` at 0, 1 and between,
    /// 1–3 permutations. The first and last rows of each table and two
    /// more.
    #[test]
    fn draws_match_the_scan_at_every_bucket_edge(
        e in prop_oneof![(0u32..=7).prop_map(|k| 1usize << k), 1usize..=255],
        (kappas, shares) in (proptest::collection::vec(unit(), 2), proptest::collection::vec(unit(), 2)),
        (perms, seeds) in (proptest::collection::vec(1usize..=3, 2), proptest::collection::vec(0u64..1_000_000, 2)),
        alpha in unit(),
        rows in proptest::collection::vec(0usize..255, 2),
    ) {
        let specs: Vec<AffinityModelSpec> = (0..2)
            .map(|i| {
                let mut spec = AffinityModelSpec::new(2, e)
                    .with_affinity(kappas[i])
                    .with_seed(seeds[i]);
                spec.n_permutations = perms[i];
                spec.n_domains = 2;
                spec.domain_share = shares[i];
                spec
            })
            .collect();
        let (a, b) = (specs[0].build(), specs[1].build());
        let (da, db) = (Dense::new(&specs[0]), Dense::new(&specs[1]));
        let froms = [0, e - 1, rows[0] % e, rows[1] % e];
        for (model, dense) in [(a.interpolate(&b, alpha), da.interpolate(&db, alpha)), (a, da)] {
            for domain in 0..2 {
                for &from in &froms {
                    attack_uniforms(&model, &dense, (domain, 0, from));
                }
            }
        }
    }
}

/// A row where a cell bracket meets a bucket edge: at `u = 1/2` the scan
/// stops a cell before the computed prefix sums place the target, so only
/// the margin keeps bucket 16 of 32 out of the guide. (A 3 000-case run of
/// the bucket-edge proptest found it.)
#[test]
fn draws_match_the_scan_where_a_bracket_meets_a_bucket_edge() {
    let spec = AffinityModelSpec {
        n_domains: 2,
        domain_share: 0.0,
        ..AffinityModelSpec::new(2, 8)
            .with_affinity(0.466_266_618_701_942_4)
            .with_seed(101_056)
    };
    attack_uniforms(&spec.build(), &Dense::new(&spec), (1, 0, 2));
}

/// The replan-e512 benchmark's routing: E = 512, L = 2, a three-phase
/// piecewise schedule over 8 windows of 2 400 tokens.
#[test]
fn the_search_settles_the_replan_e512_draws() {
    use crate::corpus::{CorpusSpec, TokenBatch};
    use crate::drift::DriftSchedule;
    for seed in [7u64, 0x5eed] {
        let spec = AffinityModelSpec::new(2, 512).with_seed(seed);
        let drift = DriftSchedule::piecewise(&spec, 3, 8);
        FALLBACKS.with(|n| n.set(0));
        for w in 0..8 {
            let model = drift.model_at(w);
            let corpus = CorpusSpec::pile_proxy(model.n_domains());
            let _ = TokenBatch::sample(model, &corpus, 2400, 1, seed ^ w as u64);
        }
        // 19 200 draws; the margin is about 1e-13 of a 3e-4-wide floor
        // cell, so the expected count is far below one.
        let fallbacks = FALLBACKS.with(std::cell::Cell::get);
        assert!(
            fallbacks <= 2,
            "seed {seed}: {fallbacks} of 19 200 draws fell back"
        );
    }
}

/// Every guide entry is the cell [`search`] certifies at both of its
/// bucket's edge targets, and a miss wherever the two do not name one
/// cell: in fresh and interpolated models, at κ = 0 with E a power of two
/// (where bucket edges fall exactly on cell brackets, inside the margin),
/// at κ = 1 (a zero floor), at E = 1 and at E = 255, the widest guided.
#[test]
fn every_guide_entry_is_the_search_at_both_edges() {
    let spec = |e, kappa, seed| AffinityModelSpec {
        n_domains: 2,
        ..AffinityModelSpec::new(3, e)
            .with_affinity(kappa)
            .with_seed(seed)
    };
    for (e, kappa) in [
        (16, 0.0),
        (16, 0.85),
        (24, 1.0),
        (1, 0.5),
        (255, 0.85),
        (7, 0.3),
    ] {
        let a = spec(e, kappa, 1).build();
        let b = spec(e, kappa * 0.5, 2).build();
        for model in [a.interpolate(&b, 0.3), a] {
            let g = buckets(e);
            let guide = model.guide();
            assert_eq!(guide.len(), model.rows.totals.len() * g);
            for (r, entries) in guide.chunks_exact(g).enumerate() {
                let (row, total) = (model.rows.get(r), model.rows.totals[r]);
                let settle = |b: usize| {
                    let spikes = row.iter().map(|s| (s.col as usize, s.p));
                    let target = (b as f64 / g as f64) * total;
                    search(model.floor, e, spikes, row.len(), e - 1, total, target)
                };
                for (b, &entry) in entries.iter().enumerate() {
                    let want = match (settle(b), settle(b + 1)) {
                        (Some(k), Some(j)) if k == j => k as u8,
                        _ => MISS,
                    };
                    assert_eq!(entry, want, "E {e} κ {kappa} row {r} bucket {b}");
                }
            }
        }
    }
}

/// `offline-fig10`'s routing: MoE-GPT-M/32e-24L under the default spec,
/// top-1 batches from the Pile proxy. At most a fifth of its draws miss
/// the guide; the misses are the buckets that straddle two cells, most
/// of the floor's `1 - κ` share of the row.
#[test]
fn the_guide_answers_most_offline_fig10_draws() {
    use crate::corpus::{CorpusSpec, TokenBatch};
    let shape = crate::presets::moe_gpt_m(32);
    for seed in [7u64, 0x5eed] {
        let spec = AffinityModelSpec::new(shape.n_layers, shape.n_experts).with_seed(seed);
        let model = spec.build();
        let corpus = CorpusSpec::pile_proxy(model.n_domains());
        let tokens = 2000;
        GUIDED.with(|n| n.set(0));
        let _ = TokenBatch::sample(&model, &corpus, tokens, 1, seed);
        let draws = tokens * (shape.n_layers - 1);
        let missed = 1.0 - GUIDED.with(std::cell::Cell::get) as f64 / draws as f64;
        assert!(
            missed <= 0.20,
            "seed {seed}: {missed:.3} of {draws} draws missed the guide"
        );
    }
}

/// A top-2 second pick, a model restricted to active experts and one with
/// 256 experts (a cell index would collide with the miss mark) read no
/// guide; a draw the guide does not answer is the dense scan's all the
/// same.
#[test]
fn second_picks_masked_models_and_e256_read_no_guide() {
    let guided = || GUIDED.with(std::cell::Cell::get);
    let routes = |model: &RoutingModel, k: usize| {
        let before = guided();
        for seed in 0..200 {
            let mut route = Vec::new();
            model.sample_route_into(&mut StdRng::seed_from_u64(seed), 0, k, &mut route);
        }
        guided() - before
    };
    let spec = AffinityModelSpec::new(6, 16);
    let model = spec.build();
    // The primary walk draws first, so top-2 routes make top-1's draws
    // and then the second picks.
    let top1 = routes(&model, 1);
    assert!(top1 > 0);
    assert_eq!(routes(&model, 2), top1, "second picks read the guide");

    let mut masked = spec.build();
    masked.set_active_experts(Some(vec![1, 4, 9]));
    assert_eq!(routes(&masked, 1), 0);
    assert!(
        masked.guide.get().is_none(),
        "a masked draw built the guide"
    );

    let spec = AffinityModelSpec::new(2, 256).with_seed(3);
    let (model, dense) = (spec.build(), Dense::new(&spec));
    assert!(model.guide().is_empty());
    let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
    let before = guided();
    for token in 0..2000 {
        let mut route = Vec::new();
        model.sample_route_into(&mut a, token % 4, 1, &mut route);
        assert_eq!(route, dense.route(&mut b, 2, token % 4, 1), "token {token}");
    }
    assert_eq!(guided(), before);
}

/// A million draws at each of E = 16, 32 and 512, top-1 and top-2, against
/// the dense sampler draw for draw. Release only (CI's bit-identity step
/// runs it with `--include-ignored`).
#[test]
#[ignore = "10^6 draws per shape against the dense scan: release only"]
fn a_million_draws_match_the_dense_sampler() {
    for e in [16, 32, 512] {
        let spec = AffinityModelSpec::new(2, e).with_seed(e as u64);
        let model = spec.build();
        let dense = Dense::new(&spec);
        for k in 1..=2 {
            let (mut a, mut b) = (
                StdRng::seed_from_u64(k as u64),
                StdRng::seed_from_u64(k as u64),
            );
            let mut route = Vec::new();
            for token in 0..1_000_000 / k {
                let domain = token % spec.n_domains;
                route.clear();
                model.sample_route_into(&mut a, domain, k, &mut route);
                assert_eq!(
                    route,
                    dense.route(&mut b, 2, domain, k),
                    "E {e} k {k} token {token}"
                );
            }
            assert_eq!(
                a.gen::<u64>(),
                b.gen::<u64>(),
                "E {e} k {k}: generators diverged"
            );
        }
    }
}
