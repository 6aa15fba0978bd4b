//! Property-based tests for the model substrate.

use exflow_model::routing::{AffinityModelSpec, RoutingModel};
use exflow_model::tensor::{gelu_inplace, Matrix};
use exflow_model::training::TrainingSimulator;
use exflow_model::{CorpusSpec, Expert, TokenBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transitions_always_row_stochastic(
        e in 2usize..32,
        l in 2usize..8,
        kappa in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let m = AffinityModelSpec::new(l, e)
            .with_affinity(kappa)
            .with_seed(seed)
            .build();
        for d in 0..m.n_domains() {
            for gap in 0..l - 1 {
                let t = m.transition(d, gap);
                for row in 0..e {
                    let s: f64 = t[row * e..(row + 1) * e].iter().sum();
                    prop_assert!((s - 1.0).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn transitions_always_doubly_stochastic(
        e in 2usize..24,
        kappa in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let m = AffinityModelSpec::new(3, e)
            .with_affinity(kappa)
            .with_seed(seed)
            .build();
        let t = m.transition(0, 0);
        for col in 0..e {
            let s: f64 = (0..e).map(|r| t[r * e + col]).sum();
            prop_assert!((s - 1.0).abs() < 1e-9, "col {} sum {}", col, s);
        }
    }

    #[test]
    fn paths_stay_in_range(
        e in 1usize..16,
        l in 1usize..10,
        seed in 0u64..100,
    ) {
        let m = AffinityModelSpec::new(l, e).build();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Vec::new();
        m.sample_route_into(&mut rng, seed as usize % m.n_domains(), 1, &mut p);
        prop_assert_eq!(p.len(), l);
        prop_assert!(p.iter().all(|&x| (x as usize) < e));
    }

    #[test]
    fn training_active_count_monotone_and_bounded(
        e in 1usize..64,
        it_a in 0u64..3000,
        it_b in 0u64..3000,
    ) {
        let sim = TrainingSimulator::new(AffinityModelSpec::new(4, e));
        let (lo, hi) = if it_a <= it_b { (it_a, it_b) } else { (it_b, it_a) };
        let ca = sim.active_count_at(lo);
        let cb = sim.active_count_at(hi);
        prop_assert!(ca <= cb);
        prop_assert!((1..=e).contains(&ca));
        prop_assert!((1..=e).contains(&cb));
    }

    #[test]
    fn training_kappa_monotone(it_a in 0u64..20_000, it_b in 0u64..20_000) {
        let sim = TrainingSimulator::new(AffinityModelSpec::new(4, 8));
        let (lo, hi) = if it_a <= it_b { (it_a, it_b) } else { (it_b, it_a) };
        prop_assert!(sim.kappa_at(lo) <= sim.kappa_at(hi) + 1e-12);
    }

    #[test]
    fn matmul_distributes_over_addition(seed in 0u64..50) {
        // (A + B) * C == A*C + B*C within fp tolerance.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::random(6, 5, &mut rng);
        let b = Matrix::random(6, 5, &mut rng);
        let c = Matrix::random(5, 4, &mut rng);
        let mut ab = Matrix::from_vec(6, 5, vec![0.0; 30]);
        for r in 0..6 {
            for k in 0..5 {
                ab.set(r, k, a.get(r, k) + b.get(r, k));
            }
        }
        let lhs = ab.matmul(&c);
        let ac = a.matmul(&c);
        let bc = b.matmul(&c);
        for r in 0..6 {
            for k in 0..4 {
                prop_assert!((lhs.get(r, k) - (ac.get(r, k) + bc.get(r, k))).abs() < 1e-4);
            }
        }
    }
}

proptest! {
    // Enough cases that `hidden` lands below, on and across multiples of
    // the kernel's 16-column tile, and `dim` below it.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `forward_rows` runs the widest build the host supports, on one row
    /// and (through `forward`) on the whole batch; the reference is
    /// `matmul` + `gelu_inplace` compiled into this test, portable. The
    /// model crate's `every_build_matches_the_matmul_reference_to_the_bit`
    /// holds each build the host runs to the same reference.
    #[test]
    fn expert_kernel_matches_the_matmul_reference_to_the_bit(
        dim in 1usize..40,
        hidden in 1usize..90,
        n_rows in 1usize..6,
        seed in 0u64..1_000_000,
        log2_scale in -40.0f64..2.0,
        with_specials in 0u8..3,
    ) {
        // `Expert::random` draws W1 then W2, so replaying its seed gives
        // the reference the same weights.
        let expert = Expert::random(dim, hidden, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let w1 = Matrix::random(dim, hidden, &mut rng);
        let w2 = Matrix::random(hidden, dim, &mut rng);
        // Exact zeros of both signs: `matmul` skips them, the kernel does
        // not. The per-case scale puts whole hidden slices below 2^-12
        // (GELU's short form) in about half the cases and, at the top,
        // reaches tanh's clamp; a third of the cases also carry NaN, ±inf,
        // ±1e4 (far into the clamp) and ±1e-40 (subnormal products).
        let scale = 2f64.powf(log2_scale) as f32;
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e4, -1e4, 1e-40, -1e-40];
        let data = (0..n_rows * dim)
            .map(|_| match rng.gen_range(0..20) {
                0..=2 => 0.0,
                3 => -0.0,
                4 if with_specials == 0 => specials[rng.gen_range(0..specials.len())],
                _ => scale * rng.gen_range(-2.0..2.0f32),
            })
            .collect();
        let x = Matrix::from_vec(n_rows, dim, data);
        let mut h = x.matmul(&w1).as_slice().to_vec();
        gelu_inplace(&mut h);
        let reference = Matrix::from_vec(n_rows, hidden, h).matmul(&w2);

        let batched = expert.forward(&x);
        // Same bits, except that a NaN matches any NaN: Rust does not fix
        // a NaN's sign or payload.
        let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        // The scratch starts as NaN and then carries the previous row's
        // hidden activations: neither may reach a result.
        let mut scratch = vec![f32::NAN; 4 * hidden];
        for r in 0..n_rows {
            let mut row = x.row(r).to_vec();
            expert.forward_rows(&mut row, &mut scratch);
            for (c, &v) in row.iter().enumerate() {
                let want = reference.get(r, c);
                prop_assert!(same(v, want), "row {} col {}: {:e}, reference {:e}", r, c, v, want);
                // Batch-position independence: what lets the engine visit
                // tokens in any order, on any rank.
                prop_assert!(same(batched.get(r, c), v), "batched row {}", r);
            }
        }
    }
}

/// `RoutingModel`'s sampler in its two-pass form — sum the admissible
/// entries of the row, then walk them subtracting — rebuilt from the
/// public transition matrices: the oracle for the cached row totals.
struct TwoPass<'m> {
    model: &'m RoutingModel,
    mask: Option<Vec<bool>>,
}

impl TwoPass<'_> {
    fn admissible(&self, i: usize, exclude: Option<usize>) -> bool {
        Some(i) != exclude && self.mask.as_ref().is_none_or(|m| m[i])
    }

    fn next(
        &self,
        rng: &mut StdRng,
        domain: usize,
        gap: usize,
        from: usize,
        exclude: Option<usize>,
    ) -> usize {
        let e = self.model.n_experts();
        let row = &self.model.transition(domain, gap)[from * e..(from + 1) * e];
        let mut total = 0.0f64;
        for (i, &p) in row.iter().enumerate() {
            if self.admissible(i, exclude) {
                total += p;
            }
        }
        let mut target = rng.gen::<f64>() * total;
        let mut fallback = from;
        for (i, &p) in row.iter().enumerate() {
            if !self.admissible(i, exclude) {
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

    fn path(&self, rng: &mut StdRng, domain: usize) -> Vec<u16> {
        let e = self.model.n_experts();
        let mut cur = match &self.mask {
            None => rng.gen_range(0..e),
            Some(mask) => {
                let actives: Vec<usize> = (0..e).filter(|&i| mask[i]).collect();
                actives[rng.gen_range(0..actives.len())]
            }
        };
        let mut path = vec![cur as u16];
        for gap in 0..self.model.n_layers().saturating_sub(1) {
            cur = self.next(rng, domain, gap, cur, None);
            path.push(cur as u16);
        }
        path
    }

    fn route(&self, rng: &mut StdRng, domain: usize, k: usize) -> Vec<Vec<u16>> {
        let e = self.model.n_experts();
        let primary = self.path(rng, domain);
        (0..primary.len())
            .map(|layer| {
                let p = primary[layer] as usize;
                let mut experts = vec![p as u16];
                if k == 2 && e > 1 {
                    let second = if layer == 0 {
                        let s = rng.gen_range(0..e - 1);
                        s + usize::from(s >= p)
                    } else {
                        let from = primary[layer - 1] as usize;
                        self.next(rng, domain, layer - 1, from, Some(p))
                    };
                    experts.push(second as u16);
                }
                experts
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every draw of `sample_route_into`, top-1 and top-2, is the two-pass
    /// sampler's, and leaves the generator where it leaves it — for fresh
    /// and interpolated models, with and without an active-expert mask.
    #[test]
    fn sampling_matches_the_two_pass_form_draw_for_draw(
        (e, l) in (1usize..24, 1usize..6),
        (kappa, alpha) in (0.0f64..1.0, 0.0f64..1.0),
        (n_domains, share) in (1usize..4, 0.0f64..1.0),
        mask in proptest::collection::vec(0u8..3, 24),
        interpolated in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let spec = AffinityModelSpec {
            n_domains,
            domain_share: share,
            ..AffinityModelSpec::new(l, e).with_affinity(kappa).with_seed(seed)
        };
        let mut model = spec.build();
        if interpolated == 1 {
            model = model.interpolate(&spec.with_seed(seed ^ 0x5eed).build(), alpha);
        }
        // A third of the cases run unmasked; otherwise two thirds of the
        // experts are active (and at least one).
        let actives: Vec<usize> = (0..e).filter(|&i| mask[i] > 0).collect();
        let mask = (mask[23] > 0 && !actives.is_empty()).then(|| {
            model.set_active_experts(Some(actives.clone()));
            (0..e).map(|i| actives.contains(&i)).collect()
        });
        let oracle = TwoPass { model: &model, mask };
        let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        for round in 0..6 {
            let domain = (seed as usize + round) % n_domains;
            prop_assert_eq!(route(&model, &mut a, domain, 1).concat(), oracle.path(&mut b, domain));
            for k in 1..=2usize.min(e) {
                prop_assert_eq!(
                    route(&model, &mut a, domain, k),
                    oracle.route(&mut b, domain, k),
                    "k = {}", k
                );
            }
            prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "generators diverged");
        }
    }
}

/// One top-`k` route, layer by layer: `k` experts each, the primary first.
fn route(model: &RoutingModel, rng: &mut StdRng, domain: usize, k: usize) -> Vec<Vec<u16>> {
    let mut flat = Vec::new();
    model.sample_route_into(rng, domain, k, &mut flat);
    flat.chunks_exact(k).map(<[u16]>::to_vec).collect()
}

/// `TokenBatch::sample` as a nested constructor: per token, a domain and
/// then that token's route, pushed onto a `Vec` each.
fn nested_batch(
    model: &RoutingModel,
    corpus: &CorpusSpec,
    n_tokens: usize,
    k: usize,
    seed: u64,
) -> (Vec<Vec<Vec<u16>>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut routes = Vec::with_capacity(n_tokens);
    let mut domains = Vec::with_capacity(n_tokens);
    for _ in 0..n_tokens {
        let d = corpus.sample_domain(&mut rng);
        routes.push(route(model, &mut rng, d, k));
        domains.push(d);
    }
    (routes, domains)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A sampled batch is the nested constructor's, token for token: every
    /// `(token, layer)` route, every domain and the top-1 paths — for
    /// fresh and interpolated models, with and without an active-expert
    /// mask, top-1 and top-2.
    #[test]
    fn batches_match_the_nested_constructor_token_for_token(
        (e, l) in (2usize..24, 1usize..6),
        (kappa, alpha) in (0.0f64..1.0, 0.0f64..1.0),
        (n_domains, share) in (1usize..4, 0.0f64..1.0),
        mask in proptest::collection::vec(0u8..3, 24),
        interpolated in 0u8..2,
        n_tokens in 0usize..60,
        seed in 0u64..1_000_000,
    ) {
        let spec = AffinityModelSpec {
            n_domains,
            domain_share: share,
            ..AffinityModelSpec::new(l, e).with_affinity(kappa).with_seed(seed)
        };
        let mut model = spec.build();
        if interpolated == 1 {
            model = model.interpolate(&spec.with_seed(seed ^ 0x5eed).build(), alpha);
        }
        // A third of the cases run unmasked; otherwise two thirds of the
        // experts are active, and at least two, so a top-2 second pick
        // always has somewhere to go.
        let actives: Vec<usize> = (0..e).filter(|&i| mask[i] > 0).collect();
        if mask[23] > 0 && actives.len() >= 2 {
            model.set_active_experts(Some(actives));
        }
        let corpus = CorpusSpec::c4_proxy(n_domains);
        for k in 1..=2 {
            let batch = TokenBatch::sample(&model, &corpus, n_tokens, k, seed);
            let (routes, domains) = nested_batch(&model, &corpus, n_tokens, k, seed);
            prop_assert_eq!(batch.len(), n_tokens);
            for (t, route) in routes.iter().enumerate() {
                prop_assert_eq!(batch.domain(t), domains[t], "k {} token {}", k, t);
                for (layer, slots) in route.iter().enumerate() {
                    prop_assert_eq!(
                        batch.route(t, layer), slots.as_slice(),
                        "k {} token {} layer {}", k, t, layer
                    );
                }
            }
            let top1: Vec<u16> = routes
                .iter()
                .flat_map(|route| route.iter().map(|slots| slots[0]))
                .collect();
            prop_assert_eq!(batch.primaries().collect::<Vec<_>>(), top1, "k {}", k);
        }
    }
}
