//! Parent reuse: a child equal to one of its parents takes that parent's
//! evaluation instead of a fresh `evaluate` call.
//!
//! A small integer genome with the paper's 0.7/0.03 rates makes most
//! children copies of a parent. Each engine must call `evaluate` fewer
//! times than it scores individuals, and its result must match the pin
//! (length + FNV-1a of every solution and objective bit) recorded before
//! engines reused evaluations: a diff here means reuse changed a result.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

use clr_moea::{Evaluation, GaParams, HvGa, Nsga2, Problem, Spea2};
use rand::{Rng, RngCore};

/// Six genes in `0..5`; minimise (Σ genes, Σ (4 − gene)²), with a
/// violation when the first two genes are both zero.
#[derive(Default)]
struct Counting {
    calls: AtomicUsize,
}

impl Counting {
    fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Problem for Counting {
    type Solution = Vec<u8>;

    fn random_solution(&self, rng: &mut dyn RngCore) -> Vec<u8> {
        (0..6).map(|_| rng.gen_range(0..5u8)).collect()
    }

    fn evaluate(&self, genes: &Vec<u8>) -> Evaluation {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let sum: f64 = genes.iter().map(|&g| f64::from(g)).sum();
        let spread: f64 = genes.iter().map(|&g| (4.0 - f64::from(g)).powi(2)).sum();
        let violation = if genes[0] == 0 && genes[1] == 0 {
            0.5
        } else {
            0.0
        };
        Evaluation::with_violation(vec![sum / 3.0, spread / 7.0], violation)
    }

    fn crossover(&self, a: &Vec<u8>, b: &Vec<u8>, rng: &mut dyn RngCore) -> Vec<u8> {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
            .collect()
    }

    fn mutate(&self, genes: &mut Vec<u8>, rng: &mut dyn RngCore) {
        let t = rng.gen_range(0..genes.len());
        genes[t] = rng.gen_range(0..5u8);
    }
}

fn params(threads: usize) -> GaParams {
    GaParams {
        population: 20,
        generations: 15,
        threads,
        ..GaParams::default()
    }
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Length + FNV-1a of `genes | objective bits | violation bits` lines.
fn pin<'a>(rows: impl Iterator<Item = (&'a Vec<u8>, &'a [f64], f64)>) -> (usize, u64) {
    let mut text = String::new();
    for (genes, objectives, violation) in rows {
        let _ = write!(text, "{genes:?} |");
        for o in objectives {
            let _ = write!(text, " {:016x}", o.to_bits());
        }
        let _ = writeln!(text, " | {:016x}", violation.to_bits());
    }
    (text.len(), fnv1a64(text.as_bytes()))
}

#[test]
fn hvga_reuses_parent_evaluations() {
    for threads in [1, 4] {
        let p = params(threads);
        let ga = HvGa::new(Counting::default(), p, vec![3.0, 8.0]);
        let archive = ga.run(11);
        let scored = p.population * (p.generations + 1);
        let calls = ga.problem().calls();
        assert!(
            calls < scored,
            "{calls} evaluations for {scored} individuals"
        );
        let got = pin(archive.iter().map(|(s, o)| (s, o.as_slice(), 0.0)));
        assert_eq!(got, (222, 13112833459659013050), "threads {threads}");
    }
}

#[test]
fn nsga2_reuses_parent_evaluations() {
    for threads in [1, 4] {
        let p = params(threads);
        let ga = Nsga2::new(Counting::default(), p);
        let pop = ga.run_population(11);
        let scored = p.population * (p.generations + 1);
        let calls = ga.problem().calls();
        assert!(
            calls < scored,
            "{calls} evaluations for {scored} individuals"
        );
        let got = pin(pop
            .iter()
            .map(|i| (&i.solution, i.objectives.as_slice(), i.violation)));
        assert_eq!(got, (1480, 13612100438804442462), "threads {threads}");
    }
}

#[test]
fn spea2_reuses_parent_evaluations() {
    for threads in [1, 4] {
        let p = params(threads);
        let ga = Spea2::new(Counting::default(), p);
        let front = ga.run(11);
        // The initial population plus one brood per generation, including
        // the brood bred after the last archive update.
        let scored = p.population * (p.generations + 2);
        let calls = ga.problem().calls();
        assert!(
            calls < scored,
            "{calls} evaluations for {scored} individuals"
        );
        let got = pin(front
            .iter()
            .map(|i| (&i.solution, i.objectives.as_slice(), i.violation)));
        assert_eq!(got, (1480, 15359446570969637002), "threads {threads}");
    }
}
