//! Synthetic corpora: domain-mixture token streams standing in for the
//! Pile / C4 / Dolma / Yelp datasets of the paper's Table III.
//!
//! A corpus is a distribution over *domains*; a token drawn from a corpus
//! carries a domain label and routes through the [`RoutingModel`] using that
//! domain's transition structure. Different corpora remix the same domains
//! with different weights — the controlled analogue of "out-of-distribution
//! data that still flows through the same pre-trained model".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::routing::RoutingModel;

/// A named domain-mixture specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Corpus name (e.g. `"pile-proxy"`).
    pub name: String,
    /// Unnormalized weight of each domain. Length must match the routing
    /// model's domain count when sampling.
    pub domain_weights: Vec<f64>,
}

impl CorpusSpec {
    /// Build a corpus from explicit weights.
    pub fn new(name: impl Into<String>, domain_weights: Vec<f64>) -> Self {
        assert!(
            !domain_weights.is_empty(),
            "corpus needs at least one domain"
        );
        assert!(
            domain_weights.iter().all(|&w| w >= 0.0) && domain_weights.iter().sum::<f64>() > 0.0,
            "weights must be non-negative with positive sum"
        );
        CorpusSpec {
            name: name.into(),
            domain_weights,
        }
    }

    /// The profiling corpus: a broad, even mixture (the Pile is "an 800GB
    /// dataset of *diverse* text").
    pub fn pile_proxy(n_domains: usize) -> Self {
        CorpusSpec::new("pile-proxy", vec![1.0; n_domains])
    }

    /// Web-crawl proxy: skewed towards the first domains.
    pub fn c4_proxy(n_domains: usize) -> Self {
        let w = (0..n_domains)
            .map(|d| 1.0 / (1.0 + d as f64 * 0.5))
            .collect();
        CorpusSpec::new("c4-proxy", w)
    }

    /// Curated-corpus proxy: skewed towards the last domains.
    pub fn dolma_proxy(n_domains: usize) -> Self {
        let w = (0..n_domains)
            .map(|d| 1.0 / (1.0 + (n_domains - 1 - d) as f64 * 0.5))
            .collect();
        CorpusSpec::new("dolma-proxy", w)
    }

    /// Narrow-domain proxy (reviews): almost all mass on one domain — the
    /// most out-of-distribution of the four.
    pub fn yelp_proxy(n_domains: usize) -> Self {
        assert!(n_domains > 0, "corpus needs at least one domain");
        let mut w = vec![0.1; n_domains];
        w[n_domains / 2] = 3.0;
        CorpusSpec::new("yelp-proxy", w)
    }

    /// All four Table III corpora.
    pub fn table3(n_domains: usize) -> Vec<CorpusSpec> {
        vec![
            CorpusSpec::pile_proxy(n_domains),
            CorpusSpec::c4_proxy(n_domains),
            CorpusSpec::dolma_proxy(n_domains),
            CorpusSpec::yelp_proxy(n_domains),
        ]
    }

    /// Sample a domain index according to the weights.
    pub fn sample_domain<R: Rng>(&self, rng: &mut R) -> usize {
        let total: f64 = self.domain_weights.iter().sum();
        let mut target = rng.gen::<f64>() * total;
        for (d, &w) in self.domain_weights.iter().enumerate() {
            if target < w {
                return d;
            }
            target -= w;
        }
        self.domain_weights.len() - 1
    }
}

/// A batch of routed tokens: the unit of work the engine and the affinity
/// profiler both consume.
///
/// Routes are stored flat, token-major: token, then layer, then the `k`
/// expert slots of that layer with the primary first, so a token's whole
/// route is one `n_layers * k` slice and one `(token, layer)` lookup is
/// one index.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBatch {
    routes: Vec<u16>,
    domains: Vec<usize>,
    n_layers: usize,
    k: usize,
}

impl TokenBatch {
    /// An empty batch of routes with `n_layers` layers and `k` experts per
    /// layer, to [`TokenBatch::push`] tokens onto.
    pub fn empty(n_layers: usize, k: usize) -> Self {
        assert!(k >= 1, "a route visits at least one expert per layer");
        TokenBatch {
            routes: Vec::new(),
            domains: Vec::new(),
            n_layers,
            k,
        }
    }

    /// Sample `n_tokens` from `corpus`, routing each through `model` with
    /// `k` experts per layer. Deterministic in `seed`.
    pub fn sample(
        model: &RoutingModel,
        corpus: &CorpusSpec,
        n_tokens: usize,
        k: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(
            corpus.domain_weights.len(),
            model.n_domains(),
            "corpus domain count must match routing model"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = TokenBatch::empty(model.n_layers(), k);
        batch.routes.reserve_exact(n_tokens * batch.stride());
        batch.domains.reserve_exact(n_tokens);
        for _ in 0..n_tokens {
            let d = corpus.sample_domain(&mut rng);
            model.sample_route_into(&mut rng, d, k, &mut batch.routes);
            batch.domains.push(d);
        }
        batch
    }

    /// Append one token: its whole route (`n_layers * k` experts, in the
    /// batch's order) and its domain.
    pub fn push(&mut self, route: &[u16], domain: usize) {
        assert_eq!(
            route.len(),
            self.stride(),
            "a route is n_layers * k experts"
        );
        self.routes.extend_from_slice(route);
        self.domains.push(domain);
    }

    /// Drop every token, keeping the shape and the allocations.
    pub fn clear(&mut self) {
        self.routes.clear();
        self.domains.clear();
    }

    /// Experts per token: `n_layers * k`.
    fn stride(&self) -> usize {
        self.n_layers * self.k
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// Number of layers in each route.
    pub fn n_layers(&self) -> usize {
        self.n_layers
    }

    /// The `k` experts token `token` visits at `layer`, the primary first.
    pub fn route(&self, token: usize, layer: usize) -> &[u16] {
        debug_assert!(layer < self.n_layers, "layer out of range");
        let at = (token * self.n_layers + layer) * self.k;
        &self.routes[at..at + self.k]
    }

    /// Token `t`'s whole route: `n_layers * k` experts, layer by layer.
    pub fn token(&self, t: usize) -> &[u16] {
        let stride = self.stride();
        &self.routes[t * stride..(t + 1) * stride]
    }

    /// Domain label of token `t`.
    pub fn domain(&self, t: usize) -> usize {
        self.domains[t]
    }

    /// Primary (top-1) expert path of each token.
    pub fn top1_paths(&self) -> Vec<Vec<u16>> {
        (0..self.len())
            .map(|t| self.token(t).iter().step_by(self.k).copied().collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::AffinityModelSpec;

    fn model() -> RoutingModel {
        AffinityModelSpec::new(6, 8).build()
    }

    #[test]
    fn table3_has_four_named_corpora() {
        let corpora = CorpusSpec::table3(4);
        let names: Vec<_> = corpora.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["pile-proxy", "c4-proxy", "dolma-proxy", "yelp-proxy"]
        );
    }

    #[test]
    fn domain_sampling_respects_weights() {
        let c = CorpusSpec::new("t", vec![0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(c.sample_domain(&mut rng), 1);
        }
    }

    #[test]
    fn batch_shapes_are_consistent() {
        let m = model();
        let b = TokenBatch::sample(&m, &CorpusSpec::pile_proxy(4), 100, 1, 42);
        assert_eq!(b.len(), 100);
        assert_eq!(b.n_layers(), 6);
        for t in 0..100 {
            assert_eq!(b.token(t).len(), 6);
            for l in 0..6 {
                assert_eq!(b.route(t, l).len(), 1);
            }
        }
    }

    #[test]
    fn pushed_tokens_read_back_and_clear_keeps_the_shape() {
        let m = model();
        let sampled = TokenBatch::sample(&m, &CorpusSpec::pile_proxy(4), 5, 2, 9);
        let mut b = TokenBatch::empty(6, 2);
        for t in (0..5).rev() {
            b.push(sampled.token(t), sampled.domain(t));
        }
        assert_eq!(b.len(), 5);
        for t in 0..5 {
            assert_eq!(b.domain(t), sampled.domain(4 - t));
            for l in 0..6 {
                assert_eq!(b.route(t, l), sampled.route(4 - t, l));
            }
        }
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b, TokenBatch::empty(6, 2));
    }

    #[test]
    fn batch_is_deterministic_per_seed() {
        let m = model();
        let c = CorpusSpec::pile_proxy(4);
        let a = TokenBatch::sample(&m, &c, 50, 1, 7);
        let b = TokenBatch::sample(&m, &c, 50, 1, 7);
        assert_eq!(a, b);
        let c2 = TokenBatch::sample(&m, &c, 50, 1, 8);
        assert_ne!(a, c2);
    }

    #[test]
    fn top1_paths_extract_primary() {
        let m = model();
        let b = TokenBatch::sample(&m, &CorpusSpec::pile_proxy(4), 10, 2, 3);
        let paths = b.top1_paths();
        for (t, path) in paths.iter().enumerate() {
            for (l, &e) in path.iter().enumerate() {
                assert_eq!(e, b.route(t, l)[0]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "domain count must match")]
    fn mismatched_domain_count_rejected() {
        let m = model(); // 4 domains
        let _ = TokenBatch::sample(&m, &CorpusSpec::pile_proxy(3), 10, 1, 0);
    }

    #[test]
    #[should_panic(expected = "corpus needs at least one domain")]
    fn yelp_proxy_without_domains_rejected() {
        let _ = CorpusSpec::yelp_proxy(0);
    }

    #[test]
    fn yelp_proxy_is_most_concentrated() {
        let yelp = CorpusSpec::yelp_proxy(4);
        let pile = CorpusSpec::pile_proxy(4);
        let h = |w: &[f64]| {
            let s: f64 = w.iter().sum();
            -w.iter()
                .filter(|&&x| x > 0.0)
                .map(|&x| (x / s) * (x / s).ln())
                .sum::<f64>()
        };
        assert!(h(&yelp.domain_weights) < h(&pile.domain_weights));
    }
}
