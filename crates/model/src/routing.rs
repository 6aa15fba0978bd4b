//! The synthetic routing process: a layer-to-layer Markov chain over experts
//! with controllable inter-layer affinity.
//!
//! This is the repo's stand-in for "tracing a pre-trained GPT MoE model on
//! the Pile" (paper §IV-B). The construction mirrors the two facts the paper
//! establishes about pre-trained models:
//!
//! 1. **Load balance** (Fig. 11): models trained with the GShard auxiliary
//!    loss route tokens near-uniformly across experts *marginally*. We get
//!    this for free by building every transition matrix as a convex mixture
//!    of permutation matrices and the uniform matrix — all doubly
//!    stochastic, so a uniform layer-0 marginal stays uniform at every layer.
//! 2. **Sparse conditional structure** (Fig. 2): *conditioned* on the expert
//!    at layer `j`, only a few experts at `j+1` are likely ("for each row,
//!    only a few columns are red"). The permutation mixture puts the
//!    conditional mass on `n_permutations` successors per expert; the
//!    `affinity` knob (κ) sets how much mass stays on them versus leaking
//!    uniformly.
//!
//! Domains model corpus heterogeneity: each domain blends a shared core
//! structure (weight `domain_share`) with domain-specific structure, which
//! is what makes affinity estimated on one corpus transfer to others
//! (Table III).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic routing process.
#[derive(Debug, Clone, PartialEq)]
pub struct AffinityModelSpec {
    /// Number of MoE layers (the chain has `n_layers - 1` transitions).
    pub n_layers: usize,
    /// Experts per layer.
    pub n_experts: usize,
    /// Affinity concentration κ ∈ [0, 1]: fraction of conditional mass on
    /// the preferred successors. 0 → routing is independent across layers;
    /// 1 → routing is a deterministic function of the previous expert (up to
    /// the permutation mixture).
    pub affinity: f64,
    /// Number of permutation matrices mixed into the preferred structure,
    /// i.e. roughly how many "red columns" each heatmap row has.
    pub n_permutations: usize,
    /// Number of token domains (corpus heterogeneity).
    pub n_domains: usize,
    /// Weight of the domain-shared core structure versus domain-specific
    /// structure, ∈ [0, 1]. High values make affinity corpus-invariant.
    pub domain_share: f64,
    /// RNG seed; everything derived from it is deterministic.
    pub seed: u64,
}

impl AffinityModelSpec {
    /// A spec with the defaults used throughout the evaluation: strong
    /// affinity (κ=0.85), 2 preferred successors, 4 domains sharing 85% of
    /// structure — the regime the paper's Fig. 2 heatmaps display ("for
    /// each row ... only a few columns are red").
    pub fn new(n_layers: usize, n_experts: usize) -> Self {
        assert!(n_layers >= 1 && n_experts >= 1);
        AffinityModelSpec {
            n_layers,
            n_experts,
            affinity: 0.85,
            n_permutations: 2,
            n_domains: 4,
            domain_share: 0.85,
            seed: 0x5eed_ef10,
        }
    }

    /// Override the affinity concentration κ.
    pub fn with_affinity(mut self, affinity: f64) -> Self {
        assert!((0.0..=1.0).contains(&affinity), "κ must be in [0,1]");
        self.affinity = affinity;
        self
    }

    /// Override the number of domains.
    pub fn with_domains(mut self, n_domains: usize, domain_share: f64) -> Self {
        assert!(n_domains >= 1);
        assert!((0.0..=1.0).contains(&domain_share));
        self.n_domains = n_domains;
        self.domain_share = domain_share;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build the concrete routing model.
    pub fn build(&self) -> RoutingModel {
        RoutingModel::new(self.clone())
    }
}

/// splitmix64 — used to derive independent sub-seeds deterministically.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn sub_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut s = mix(seed);
    for &p in parts {
        s = mix(s ^ p);
    }
    s
}

/// Sample a random permutation of `0..n` (Fisher–Yates).
fn random_permutation<R: Rng>(n: usize, rng: &mut R) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

/// The concrete Markov routing process. See the module docs for the
/// construction; all matrices are row-stochastic and (in the unrestricted
/// case) doubly stochastic.
#[derive(Debug, Clone)]
pub struct RoutingModel {
    spec: AffinityModelSpec,
    /// `transitions[domain][gap]` is a flattened `E x E` row-stochastic
    /// matrix for the transition from layer `gap` to `gap + 1`.
    transitions: Vec<Vec<Vec<f64>>>,
    /// `row_totals[domain][gap][from]`: row `from` of the matrix summed
    /// left to right — the normalizer [`RoutingModel::sample_next`] would
    /// otherwise recompute for every unrestricted draw.
    row_totals: Vec<Vec<Vec<f64>>>,
    /// Optional restriction to a subset of active experts (used by the
    /// training simulator to model early-training expert collapse).
    active: Option<Vec<bool>>,
}

impl RoutingModel {
    fn new(spec: AffinityModelSpec) -> Self {
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

        Self::from_transitions(spec, transitions)
    }

    /// The model over `transitions`, unrestricted, with every row's total
    /// accumulated in the order a sampling walk would add it up.
    fn from_transitions(spec: AffinityModelSpec, transitions: Vec<Vec<Vec<f64>>>) -> Self {
        let e = spec.n_experts;
        let row_totals = transitions
            .iter()
            .map(|gaps| {
                gaps.iter()
                    .map(|matrix| {
                        matrix
                            .chunks_exact(e)
                            .map(|row| row.iter().fold(0.0f64, |total, &p| total + p))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        RoutingModel {
            spec,
            transitions,
            row_totals,
            active: None,
        }
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &AffinityModelSpec {
        &self.spec
    }

    /// Number of MoE layers.
    pub fn n_layers(&self) -> usize {
        self.spec.n_layers
    }

    /// Experts per layer.
    pub fn n_experts(&self) -> usize {
        self.spec.n_experts
    }

    /// Number of domains.
    pub fn n_domains(&self) -> usize {
        self.spec.n_domains
    }

    /// Restrict routing to a subset of experts (training-collapse model).
    /// Pass `None` to lift the restriction.
    pub fn set_active_experts(&mut self, active: Option<Vec<usize>>) {
        self.active = active.map(|list| {
            assert!(!list.is_empty(), "active set must be non-empty");
            let mut mask = vec![false; self.spec.n_experts];
            for idx in list {
                assert!(idx < self.spec.n_experts, "active expert out of range");
                mask[idx] = true;
            }
            mask
        });
    }

    /// Exact transition matrix (flattened row-major `E x E`) for `domain`
    /// between layers `gap` and `gap + 1`, ignoring any active restriction.
    pub fn transition(&self, domain: usize, gap: usize) -> &[f64] {
        &self.transitions[domain][gap]
    }

    /// Convex interpolation towards `other`: every domain/gap transition
    /// matrix becomes `(1 - alpha) * self + alpha * other`. Both models
    /// must share a shape (layers, experts, domains). The blend of two
    /// row-stochastic (indeed doubly stochastic) matrices is again doubly
    /// stochastic, so load balance survives interpolation — this is the
    /// primitive behind the smooth routing-drift presets in
    /// [`crate::drift`]. Any active-expert restriction is dropped (drift
    /// models serve fully-trained checkpoints).
    pub fn interpolate(&self, other: &RoutingModel, alpha: f64) -> RoutingModel {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        assert_eq!(self.spec.n_layers, other.spec.n_layers, "layer mismatch");
        assert_eq!(self.spec.n_experts, other.spec.n_experts, "expert mismatch");
        assert_eq!(self.spec.n_domains, other.spec.n_domains, "domain mismatch");
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
        Self::from_transitions(self.spec.clone(), transitions)
    }

    /// Domain-mixture transition matrix for `gap`, weighted by `weights`
    /// (will be normalized; length must equal `n_domains`).
    pub fn mixture_transition(&self, weights: &[f64], gap: usize) -> Vec<f64> {
        assert_eq!(weights.len(), self.spec.n_domains);
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let e = self.spec.n_experts;
        let mut out = vec![0.0f64; e * e];
        for (d, &w) in weights.iter().enumerate() {
            let t = &self.transitions[d][gap];
            let w = w / total;
            for (o, &v) in out.iter_mut().zip(t.iter()) {
                *o += w * v;
            }
        }
        out
    }

    /// Sample the layer-0 expert for a token of `domain`.
    fn sample_first<R: Rng>(&self, rng: &mut R) -> usize {
        let e = self.spec.n_experts;
        match &self.active {
            None => rng.gen_range(0..e),
            Some(mask) => {
                let actives = || (0..e).filter(|&i| mask[i]);
                let pick = rng.gen_range(0..actives().count());
                actives().nth(pick).expect("pick < count")
            }
        }
    }

    /// Sample the next expert given the current one, restricted to the
    /// active set (if any) and excluding `exclude` (for top-2's second pick).
    fn sample_next<R: Rng>(
        &self,
        rng: &mut R,
        domain: usize,
        gap: usize,
        from: usize,
        exclude: Option<usize>,
    ) -> usize {
        let e = self.spec.n_experts;
        let row = &self.transitions[domain][gap][from * e..(from + 1) * e];
        let total = if exclude.is_none() && self.active.is_none() {
            // Every entry is admissible: the sum below is the cached one.
            self.row_totals[domain][gap][from]
        } else {
            let mut total = 0.0f64;
            for (i, &p) in row.iter().enumerate() {
                if Some(i) == exclude {
                    continue;
                }
                if let Some(mask) = &self.active {
                    if !mask[i] {
                        continue;
                    }
                }
                total += p;
            }
            total
        };
        debug_assert!(total > 0.0, "renormalized row must have mass");
        let mut target = rng.gen::<f64>() * total;
        let mut fallback = from;
        for (i, &p) in row.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            if let Some(mask) = &self.active {
                if !mask[i] {
                    continue;
                }
            }
            fallback = i;
            if target < p {
                return i;
            }
            target -= p;
        }
        fallback // numerical edge: return the last admissible expert
    }

    /// Sample a full top-1 routing path (one expert per layer).
    pub fn sample_path<R: Rng>(&self, rng: &mut R, domain: usize) -> Vec<u16> {
        let mut path = Vec::with_capacity(self.spec.n_layers);
        self.sample_route_into(rng, domain, 1, &mut path);
        path
    }

    /// Sample a top-k route: `route[layer]` holds `k` distinct experts, the
    /// first being the primary (the one whose output dominates and whose
    /// chain continues the Markov walk).
    pub fn sample_route<R: Rng>(&self, rng: &mut R, domain: usize, k: usize) -> Vec<Vec<u16>> {
        let mut route = Vec::with_capacity(self.spec.n_layers * k);
        self.sample_route_into(rng, domain, k, &mut route);
        route.chunks_exact(k).map(<[u16]>::to_vec).collect()
    }

    /// Append one top-k route to `out`, flat: layer by layer, `k` distinct
    /// experts each, the primary first. The draws are the primary walk
    /// over every layer, then the second picks layer by layer.
    ///
    /// # Panics
    ///
    /// Unless `k` is 1 or 2 (the two [`crate::GateKind`]s) and at most the
    /// expert count, or if `domain` is out of range — before any draw.
    pub fn sample_route_into<R: Rng>(
        &self,
        rng: &mut R,
        domain: usize,
        k: usize,
        out: &mut Vec<u16>,
    ) {
        assert!(
            (k == 1 || k == 2) && k <= self.spec.n_experts,
            "top-k routes have k = 1 or 2 experts per layer, at most the {} there are; got k = {k}",
            self.spec.n_experts
        );
        assert!(domain < self.spec.n_domains, "domain out of range");
        let start = out.len();
        out.resize(start + self.spec.n_layers * k, 0);
        let route = &mut out[start..];
        let mut cur = self.sample_first(rng);
        route[0] = cur as u16;
        for gap in 0..self.spec.n_layers - 1 {
            cur = self.sample_next(rng, domain, gap, cur, None);
            route[(gap + 1) * k] = cur as u16;
        }
        if k == 2 {
            for layer in 0..self.spec.n_layers {
                let p = usize::from(route[2 * layer]);
                let second = if layer == 0 {
                    // No previous layer: second expert uniform among others.
                    let s = rng.gen_range(0..self.spec.n_experts - 1);
                    s + usize::from(s >= p)
                } else {
                    let from = usize::from(route[2 * (layer - 1)]);
                    self.sample_next(rng, domain, layer - 1, from, Some(p))
                };
                route[2 * layer + 1] = second as u16;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(e: usize, l: usize, kappa: f64) -> RoutingModel {
        AffinityModelSpec::new(l, e).with_affinity(kappa).build()
    }

    #[test]
    fn transitions_are_row_stochastic() {
        let m = model(16, 6, 0.9);
        for d in 0..m.n_domains() {
            for gap in 0..5 {
                let t = m.transition(d, gap);
                for row in 0..16 {
                    let s: f64 = t[row * 16..(row + 1) * 16].iter().sum();
                    assert!((s - 1.0).abs() < 1e-9, "row {row} sums to {s}");
                }
            }
        }
    }

    #[test]
    fn transitions_are_doubly_stochastic() {
        // Column sums are 1 too (permutation mixtures), which is what keeps
        // the marginal load balanced at every layer.
        let m = model(8, 4, 0.7);
        let t = m.transition(0, 0);
        for col in 0..8 {
            let s: f64 = (0..8).map(|row| t[row * 8 + col]).sum();
            assert!((s - 1.0).abs() < 1e-9, "col {col} sums to {s}");
        }
    }

    #[test]
    fn zero_affinity_is_uniform() {
        let m = model(8, 3, 0.0);
        let t = m.transition(0, 0);
        for &p in t {
            assert!((p - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn high_affinity_concentrates_rows() {
        let m = model(32, 3, 0.95);
        let t = m.transition(0, 0);
        // Each row mixes n_permutations core + n_permutations domain
        // successors, so the top 6 columns must hold ~95% of the mass —
        // the "only a few columns are red" structure of Fig. 2.
        for row in 0..32 {
            let mut probs: Vec<f64> = t[row * 32..(row + 1) * 32].to_vec();
            probs.sort_by(|a, b| b.total_cmp(a));
            let top6: f64 = probs[..6].iter().sum();
            assert!(top6 > 0.9, "row {row} top6 mass {top6}");
        }
    }

    #[test]
    fn pure_affinity_routing_is_natively_sparse() {
        // κ = 1: no uniform leak, each row holds at most the core +
        // domain permutation successors.
        let m = AffinityModelSpec::new(3, 64).with_affinity(1.0).build();
        for (i, row) in m.transition(0, 0).chunks(64).enumerate() {
            let nnz = row.iter().filter(|&&v| v != 0.0).count();
            assert!((1..=4).contains(&nnz), "row {i} has {nnz} cells");
        }
        // With leak, every cell is alive.
        let leaky = AffinityModelSpec::new(3, 64).with_affinity(0.9).build();
        assert!(leaky.transition(0, 0).iter().all(|&v| v != 0.0));
    }

    #[test]
    fn paths_have_one_expert_per_layer() {
        let m = model(8, 12, 0.8);
        let mut rng = StdRng::seed_from_u64(1);
        let p = m.sample_path(&mut rng, 0);
        assert_eq!(p.len(), 12);
        assert!(p.iter().all(|&e| (e as usize) < 8));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = model(8, 12, 0.8);
        let p1 = m.sample_path(&mut StdRng::seed_from_u64(9), 1);
        let p2 = m.sample_path(&mut StdRng::seed_from_u64(9), 1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn marginal_stays_balanced() {
        // With doubly stochastic transitions and a uniform start, every
        // layer's expert distribution is near-uniform over many samples.
        let m = model(8, 6, 0.9);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = vec![vec![0usize; 8]; 6];
        let n = 8000;
        for _ in 0..n {
            let d = rng.gen_range(0..m.n_domains());
            for (layer, &e) in m.sample_path(&mut rng, d).iter().enumerate() {
                counts[layer][e as usize] += 1;
            }
        }
        for (layer, layer_counts) in counts.iter().enumerate() {
            for &c in layer_counts {
                let share = c as f64 / n as f64;
                assert!((share - 0.125).abs() < 0.04, "layer {layer} share {share}");
            }
        }
    }

    #[test]
    fn empirical_transitions_match_exact() {
        let m = model(4, 2, 0.8);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 60_000;
        let mut joint = [0usize; 16];
        let mut first = [0usize; 4];
        for _ in 0..n {
            let p = m.sample_path(&mut rng, 0);
            joint[p[0] as usize * 4 + p[1] as usize] += 1;
            first[p[0] as usize] += 1;
        }
        let t = m.transition(0, 0);
        for i in 0..4 {
            for j in 0..4 {
                let emp = joint[i * 4 + j] as f64 / first[i] as f64;
                assert!(
                    (emp - t[i * 4 + j]).abs() < 0.02,
                    "P({j}|{i}) empirical {emp} vs exact {}",
                    t[i * 4 + j]
                );
            }
        }
    }

    #[test]
    fn top2_routes_have_distinct_experts() {
        let m = model(8, 6, 0.8);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let route = m.sample_route(&mut rng, 0, 2);
            for layer in route {
                assert_eq!(layer.len(), 2);
                assert_ne!(layer[0], layer[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "k = 1 or 2 experts per layer")]
    fn top3_routes_are_rejected_before_any_draw() {
        // Only the two gates exist; a third slot was never drawn, so a
        // k = 3 route used to come back with one expert per layer.
        let m = model(8, 6, 0.8);
        let _ = m.sample_route(&mut StdRng::seed_from_u64(3), 0, 3);
    }

    #[test]
    fn active_restriction_confines_routing() {
        let mut m = model(8, 6, 0.8);
        m.set_active_experts(Some(vec![1, 4]));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let p = m.sample_path(&mut rng, 0);
            assert!(p.iter().all(|&e| e == 1 || e == 4));
        }
        m.set_active_experts(None);
        let p = m.sample_path(&mut rng, 0);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn domains_share_core_structure() {
        // With domain_share=1.0 all domains have identical transitions.
        let m = AffinityModelSpec::new(4, 8).with_domains(3, 1.0).build();
        let t0 = m.transition(0, 0).to_vec();
        for d in 1..3 {
            assert_eq!(m.transition(d, 0), &t0[..]);
        }
        // With domain_share=0.0 they differ.
        let m2 = AffinityModelSpec::new(4, 8).with_domains(3, 0.0).build();
        assert_ne!(m2.transition(0, 0), m2.transition(1, 0));
    }

    #[test]
    fn mixture_transition_interpolates() {
        let m = model(4, 3, 0.6);
        let pure = m.mixture_transition(&[1.0, 0.0, 0.0, 0.0], 0);
        assert_eq!(&pure[..], m.transition(0, 0));
        let blend = m.mixture_transition(&[1.0, 1.0, 1.0, 1.0], 0);
        let s: f64 = blend[..4].iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn interpolation_endpoints_and_stochasticity() {
        let a = model(8, 4, 0.9);
        let b = AffinityModelSpec::new(4, 8)
            .with_affinity(0.9)
            .with_seed(0xd1f7)
            .build();
        let at0 = a.interpolate(&b, 0.0);
        let at1 = a.interpolate(&b, 1.0);
        assert_eq!(at0.transition(0, 0), a.transition(0, 0));
        assert_eq!(at1.transition(0, 0), b.transition(0, 0));
        let mid = a.interpolate(&b, 0.5);
        for gap in 0..3 {
            let t = mid.transition(0, gap);
            for row in 0..8 {
                let s: f64 = t[row * 8..(row + 1) * 8].iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "row {row} sums to {s}");
            }
            // Doubly stochastic too: columns also sum to 1.
            for col in 0..8 {
                let s: f64 = (0..8).map(|r| t[r * 8 + col]).sum();
                assert!((s - 1.0).abs() < 1e-9, "col {col} sums to {s}");
            }
        }
    }

    #[test]
    fn cached_row_totals_are_the_walks_own_sums_to_the_bit() {
        // The draw is `gen::<f64>() * total`: a total one ulp off is a
        // different sample stream once in a long while, which no sampled
        // comparison would notice.
        let a = model(24, 4, 0.85);
        let b = AffinityModelSpec::new(4, 24).with_seed(9).build();
        for m in [a.interpolate(&b, 0.3), a] {
            for (matrices, totals) in m.transitions.iter().zip(&m.row_totals) {
                for (matrix, totals) in matrices.iter().zip(totals) {
                    assert_eq!(totals.len(), 24);
                    for (row, cached) in matrix.chunks_exact(24).zip(totals) {
                        let mut total = 0.0f64;
                        for &p in row {
                            total += p;
                        }
                        assert_eq!(cached.to_bits(), total.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0,1]")]
    fn interpolation_rejects_bad_alpha() {
        let a = model(8, 4, 0.9);
        let _ = a.interpolate(&a, 1.5);
    }

    #[test]
    fn single_layer_model_has_no_transitions() {
        let m = model(8, 1, 0.5);
        let mut rng = StdRng::seed_from_u64(2);
        let p = m.sample_path(&mut rng, 0);
        assert_eq!(p.len(), 1);
    }
}
