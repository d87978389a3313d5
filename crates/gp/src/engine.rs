//! The genetic-programming repair loop.

use redundancy_core::rng::SplitMix64;

use crate::ast::Expr;
use crate::suite::TestSuite;

/// GP hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpParams {
    /// Population size.
    pub population: usize,
    /// Maximum generations before giving up.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Probability of crossover (vs. reproduction) per offspring.
    pub crossover_rate: f64,
    /// Probability of mutating each offspring.
    pub mutation_rate: f64,
    /// Number of elites copied unchanged each generation.
    pub elitism: usize,
    /// Maximum tree depth for generated subtrees.
    pub max_depth: usize,
    /// Maximum tree size; larger offspring are rejected (bloat control).
    pub max_size: usize,
}

impl Default for GpParams {
    fn default() -> Self {
        Self {
            population: 100,
            generations: 60,
            tournament: 4,
            crossover_rate: 0.7,
            mutation_rate: 0.4,
            elitism: 2,
            max_depth: 5,
            max_size: 80,
        }
    }
}

/// The result of a repair attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct GpResult {
    /// The best program found.
    pub best: Expr,
    /// Cases passed by `best`.
    pub best_fitness: usize,
    /// Total cases in the suite.
    pub total_cases: usize,
    /// Generations actually executed.
    pub generations_used: usize,
    /// Total fitness evaluations performed.
    pub evaluations: u64,
}

impl GpResult {
    /// Whether the best program passes the whole suite.
    #[must_use]
    pub fn is_fixed(&self) -> bool {
        self.best_fitness == self.total_cases
    }
}

/// The GP engine.
#[derive(Debug, Clone)]
pub struct Gp {
    params: GpParams,
    arity: usize,
}

impl Gp {
    /// Creates an engine for programs over `arity` input variables.
    #[must_use]
    pub fn new(arity: usize, params: GpParams) -> Self {
        Self { params, arity }
    }

    /// Attempts to repair `faulty` so that it passes `suite`.
    ///
    /// The initial population is seeded with the faulty program and
    /// mutants of it (repairs are usually near the original — Weimer et
    /// al.'s key observation), topped up with random trees for diversity.
    pub fn repair(&self, faulty: &Expr, suite: &TestSuite, rng: &mut SplitMix64) -> GpResult {
        let p = &self.params;
        let mut evaluations: u64 = 0;
        let mut population: Vec<Expr> = Vec::with_capacity(p.population);
        population.push(faulty.clone());
        while population.len() < p.population {
            let seed_mutant = population.len().is_multiple_of(2);
            let individual = if seed_mutant {
                self.mutate(faulty, rng)
            } else {
                Expr::random(rng, self.arity, p.max_depth)
            };
            population.push(individual);
        }

        let mut fitness: Vec<usize> = population
            .iter()
            .map(|e| {
                evaluations += 1;
                suite.passed(e)
            })
            .collect();

        let mut best_idx = argmax(&fitness);
        for generation in 0..p.generations {
            if fitness[best_idx] == suite.len() {
                return GpResult {
                    best: population[best_idx].clone(),
                    best_fitness: fitness[best_idx],
                    total_cases: suite.len(),
                    generations_used: generation,
                    evaluations,
                };
            }
            let mut next: Vec<Expr> = Vec::with_capacity(p.population);
            // Elitism: carry the best individuals over unchanged.
            let mut order: Vec<usize> = (0..population.len()).collect();
            order.sort_by(|&a, &b| fitness[b].cmp(&fitness[a]));
            for &i in order.iter().take(p.elitism.min(population.len())) {
                next.push(population[i].clone());
            }
            while next.len() < p.population {
                let parent_a = self.select(&population, &fitness, rng);
                let offspring = if rng.chance(p.crossover_rate) {
                    let parent_b = self.select(&population, &fitness, rng);
                    self.crossover(parent_a, parent_b, rng)
                } else {
                    parent_a.clone()
                };
                let offspring = if rng.chance(p.mutation_rate) {
                    self.mutate(&offspring, rng)
                } else {
                    offspring
                };
                if offspring.size() <= p.max_size {
                    next.push(offspring);
                } else {
                    next.push(parent_a.clone());
                }
            }
            population = next;
            fitness = population
                .iter()
                .map(|e| {
                    evaluations += 1;
                    suite.passed(e)
                })
                .collect();
            best_idx = argmax(&fitness);
        }
        GpResult {
            best: population[best_idx].clone(),
            best_fitness: fitness[best_idx],
            total_cases: suite.len(),
            generations_used: self.params.generations,
            evaluations,
        }
    }

    fn select<'a>(
        &self,
        population: &'a [Expr],
        fitness: &[usize],
        rng: &mut SplitMix64,
    ) -> &'a Expr {
        let mut best = rng.index(population.len());
        for _ in 1..self.params.tournament.max(1) {
            let challenger = rng.index(population.len());
            if fitness[challenger] > fitness[best] {
                best = challenger;
            }
        }
        &population[best]
    }

    /// Subtree crossover: replace a random node of `a` with a random
    /// subtree of `b`.
    fn crossover(&self, a: &Expr, b: &Expr, rng: &mut SplitMix64) -> Expr {
        let at = rng.index(a.size());
        let from = rng.index(b.size());
        let donor = b.node(from).unwrap_or(b).clone();
        a.with_node(at, &donor)
    }

    /// Mutation: point mutation (constants, variables) or subtree
    /// replacement.
    fn mutate(&self, e: &Expr, rng: &mut SplitMix64) -> Expr {
        let at = rng.index(e.size());
        match e.node(at) {
            Some(Expr::Const(c)) if rng.chance(0.5) => {
                e.with_node(at, &Expr::Const(c + rng.range_i64(-3, 4)))
            }
            Some(Expr::Var(_)) if self.arity > 1 && rng.chance(0.5) => {
                e.with_node(at, &Expr::Var(rng.index(self.arity)))
            }
            _ => {
                let depth = 1 + rng.index(self.params.max_depth.max(1));
                let subtree = Expr::random(rng, self.arity, depth);
                e.with_node(at, &subtree)
            }
        }
    }
}

fn argmax(values: &[usize]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::build::*;

    #[test]
    fn already_correct_program_repairs_in_zero_generations() {
        let correct = mul(v(0), c(2));
        let mut rng = SplitMix64::new(1);
        let suite = TestSuite::from_reference(|xs| xs[0] * 2, 1, 30, -50, 50, &mut rng);
        let gp = Gp::new(1, GpParams::default());
        let result = gp.repair(&correct, &suite, &mut rng);
        assert!(result.is_fixed());
        assert_eq!(result.generations_used, 0);
    }

    #[test]
    fn repairs_wrong_constant() {
        // Faulty: x + 3, correct: x + 1. A nearby point mutation fixes it.
        let faulty = add(v(0), c(3));
        let mut rng = SplitMix64::new(2);
        let suite = TestSuite::from_reference(|xs| xs[0] + 1, 1, 40, -50, 50, &mut rng);
        let gp = Gp::new(1, GpParams::default());
        let result = gp.repair(&faulty, &suite, &mut rng);
        assert!(
            result.is_fixed(),
            "best fitness {}/{}",
            result.best_fitness,
            result.total_cases
        );
        assert!(suite.all_pass(&result.best));
    }

    #[test]
    fn repairs_swapped_branches_min_into_max() {
        // Faulty computes min; the suite demands max.
        let faulty = iff(lt(v(0), v(1)), v(0), v(1));
        let mut rng = SplitMix64::new(3);
        let suite = TestSuite::from_reference(|xs| xs[0].max(xs[1]), 2, 40, -50, 50, &mut rng);
        let gp = Gp::new(2, GpParams::default());
        let result = gp.repair(&faulty, &suite, &mut rng);
        assert!(
            result.is_fixed(),
            "best fitness {}/{}",
            result.best_fitness,
            result.total_cases
        );
    }

    #[test]
    fn reports_partial_fitness_when_unfixable_in_budget() {
        // A hard target with a tiny budget: should not panic, and should
        // report honest partial fitness.
        let faulty = c(0);
        let mut rng = SplitMix64::new(4);
        let suite = TestSuite::from_reference(
            |xs| xs[0] * xs[0] * xs[0] + xs[1] * 7 - 13,
            2,
            60,
            -50,
            50,
            &mut rng,
        );
        let gp = Gp::new(
            2,
            GpParams {
                population: 10,
                generations: 2,
                ..GpParams::default()
            },
        );
        let result = gp.repair(&faulty, &suite, &mut rng);
        assert!(result.best_fitness <= result.total_cases);
        assert_eq!(result.total_cases, 60);
        assert!(result.evaluations > 0);
    }

    #[test]
    fn bloat_control_respects_max_size() {
        let faulty = add(v(0), c(3));
        let mut rng = SplitMix64::new(5);
        let suite = TestSuite::from_reference(|xs| xs[0] + 1, 1, 20, -50, 50, &mut rng);
        let gp = Gp::new(
            1,
            GpParams {
                max_size: 12,
                generations: 10,
                ..GpParams::default()
            },
        );
        let result = gp.repair(&faulty, &suite, &mut rng);
        assert!(result.best.size() <= 12, "size {}", result.best.size());
    }
}
