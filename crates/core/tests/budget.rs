//! Exactness pins for runs cut short by a tight `max_queries` budget.
//!
//! Under a budget the engine answers `false` for every distinct miss past
//! the limit, so *which* checks get budget decides the grammar. The budget
//! is charged per distinct miss in check order, so the learned grammar and
//! both query counts are a pure function of that order. These pins were
//! recorded before the planners and the runner shared one planned wave;
//! a wave that charges budget in a different order moves them. They must
//! also be identical at every worker count.

use glade_core::testing::xml_like;
use glade_core::{FnOracle, GladeBuilder, Oracle};
use glade_eval::sample_seeds;
use glade_grammar::grammar_to_text;
use glade_targets::languages::toy_xml;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a of the grammar text: a compact pin of its exact bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `(case, memo, budget, grammar fnv1a, unique_queries, total_queries)`.
const PINS: &[(&str, bool, usize, u64, usize, usize)] = &[
    ("running-example", true, 50, 5525016919983814460, 51, 970),
    ("running-example", true, 200, 6035510497515637451, 201, 960),
    ("running-example", true, 500, 14941896361695192351, 501, 984),
    ("running-example", false, 50, 5525016919983814460, 51, 970),
    ("running-example", false, 200, 6035510497515637451, 201, 1442),
    ("running-example", false, 500, 6035510497515637451, 501, 1442),
    ("toy-xml", true, 50, 4139325790451750256, 53, 934),
    ("toy-xml", true, 200, 16180932035798163566, 203, 934),
    ("toy-xml", true, 500, 16180932035798163566, 503, 934),
    ("toy-xml", false, 50, 4139325790451750256, 53, 1704),
    ("toy-xml", false, 200, 16180932035798163566, 203, 1706),
    ("toy-xml", false, 500, 16180932035798163566, 503, 1706),
];

fn run(case: &str, memo: bool, budget: usize, workers: usize) -> (u64, usize, usize) {
    let (seeds, oracle): (Vec<Vec<u8>>, Box<dyn Oracle>) = match case {
        "running-example" => (vec![b"<a>hi</a>".to_vec()], Box::new(FnOracle::new(xml_like))),
        "toy-xml" => {
            let language = toy_xml();
            let seeds = sample_seeds(&language, 4, &mut StdRng::seed_from_u64(17));
            (seeds, Box::new(language.oracle()))
        }
        _ => unreachable!("unknown case {case}"),
    };
    let result = GladeBuilder::new()
        .worker_threads(workers)
        .memoize_byte_classes(memo)
        .max_queries(budget)
        .synthesize(&seeds, oracle.as_ref())
        .expect("seeds are members");
    assert!(result.stats.budget_exhausted, "{case} budget {budget} was not tight");
    let text = grammar_to_text(&result.grammar);
    (fnv1a(text.as_bytes()), result.stats.unique_queries, result.stats.total_queries)
}

#[test]
fn tight_budgets_pin_grammar_bytes_and_query_counts() {
    let mut measured = Vec::new();
    for case in ["running-example", "toy-xml"] {
        for memo in [true, false] {
            for budget in [50, 200, 500] {
                let sequential = run(case, memo, budget, 1);
                assert_eq!(
                    run(case, memo, budget, 4),
                    sequential,
                    "{case} memo={memo} budget={budget}: 4 workers differ from 1"
                );
                measured.push((case, memo, budget, sequential.0, sequential.1, sequential.2));
            }
        }
    }
    assert_eq!(measured, PINS, "a budgeted run changed (grammar bytes or query counts)");
}
