//! Cross-checks [`Earley`] against a straightforward reference chart.
//!
//! The reference is the textbook Earley recognizer with the Aycock–Horspool
//! nullable fix: one `HashSet` of items per input position, and every
//! completion scans its whole origin set for parents. It shares no code with
//! the compiled recognizer (dotted-rule table, packed items, rolling dedup,
//! per-position waiting lists), and carries its own copy of the parse-tree
//! walk, so equal verdicts and equal trees check the chart core itself.

use glade_grammar::cfg::{cls, lit, nt, GrammarBuilder};
use glade_grammar::{CharClass, Earley, Grammar, NtId, ParseTree, Sampler, Sym};
use glade_targets::languages::{section82_languages, toy_xml};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Earley item: `nt → rhs[..dot] · rhs[dot..]`, started at `origin`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Item {
    nt: usize,
    prod: usize,
    dot: usize,
    origin: usize,
}

struct Reference<'g> {
    grammar: &'g Grammar,
    nts: Vec<NtId>,
    nullable: Vec<bool>,
}

impl<'g> Reference<'g> {
    fn new(grammar: &'g Grammar) -> Self {
        Reference {
            grammar,
            nts: grammar.nonterminals().collect(),
            nullable: grammar.nullable_set(),
        }
    }

    fn rhs(&self, item: &Item) -> &'g [Sym] {
        &self.grammar.productions(self.nts[item.nt])[item.prod]
    }

    fn chart(&self, input: &[u8]) -> Vec<Vec<Item>> {
        let n = input.len();
        let mut sets: Vec<Vec<Item>> = vec![Vec::new(); n + 1];
        let mut seen: Vec<HashSet<Item>> = vec![HashSet::new(); n + 1];
        let mut add = |sets: &mut Vec<Vec<Item>>, k: usize, it: Item| {
            if seen[k].insert(it) {
                sets[k].push(it);
            }
        };
        let start = self.grammar.start().index();
        for prod in 0..self.grammar.productions(self.nts[start]).len() {
            add(&mut sets, 0, Item { nt: start, prod, dot: 0, origin: 0 });
        }
        for k in 0..=n {
            let mut idx = 0;
            while idx < sets[k].len() {
                let item = sets[k][idx];
                idx += 1;
                let rhs = self.rhs(&item);
                match rhs.get(item.dot) {
                    Some(Sym::Nt(b)) => {
                        for prod in 0..self.grammar.productions(*b).len() {
                            add(&mut sets, k, Item { nt: b.index(), prod, dot: 0, origin: k });
                        }
                        if self.nullable[b.index()] {
                            add(&mut sets, k, Item { dot: item.dot + 1, ..item });
                        }
                    }
                    Some(Sym::Class(c)) => {
                        if k < n && c.contains(input[k]) {
                            add(&mut sets, k + 1, Item { dot: item.dot + 1, ..item });
                        }
                    }
                    None => {
                        // Index-based: when origin == k the set grows as we go.
                        let mut j = 0;
                        while j < sets[item.origin].len() {
                            let parent = sets[item.origin][j];
                            j += 1;
                            if self.rhs(&parent).get(parent.dot)
                                == Some(&Sym::Nt(self.nts[item.nt]))
                            {
                                add(&mut sets, k, Item { dot: parent.dot + 1, ..parent });
                            }
                        }
                    }
                }
            }
        }
        sets
    }

    fn accepts(&self, input: &[u8]) -> bool {
        self.completed(input).is_some()
    }

    /// `(nt, start) →` ascending ends of completed items, for members only.
    fn completed(&self, input: &[u8]) -> Option<HashMap<(usize, usize), Vec<usize>>> {
        let sets = self.chart(input);
        let start = self.grammar.start().index();
        let accepted = sets[input.len()]
            .iter()
            .any(|it| it.nt == start && it.origin == 0 && it.dot == self.rhs(it).len());
        if !accepted {
            return None;
        }
        let mut completed: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for (k, set) in sets.iter().enumerate() {
            for it in set.iter().filter(|it| it.dot == self.rhs(it).len()) {
                completed.entry((it.nt, it.origin)).or_default().push(k);
            }
        }
        for ends in completed.values_mut() {
            ends.sort_unstable();
            ends.dedup();
        }
        Some(completed)
    }

    fn parse(&self, input: &[u8]) -> Option<ParseTree> {
        let mut walk = TreeWalk {
            re: self,
            input,
            completed: self.completed(input)?,
            fail: HashSet::new(),
            in_progress: HashSet::new(),
        };
        walk.build(self.grammar.start().index(), 0, input.len())
    }
}

/// The memoized top-down walk of the completed chart.
struct TreeWalk<'a, 'g> {
    re: &'a Reference<'g>,
    input: &'a [u8],
    completed: HashMap<(usize, usize), Vec<usize>>,
    fail: HashSet<(usize, usize, usize)>,
    in_progress: HashSet<(usize, usize, usize)>,
}

impl TreeWalk<'_, '_> {
    fn spans(&self, nt: usize, start: usize) -> &[usize] {
        self.completed.get(&(nt, start)).map(Vec::as_slice).unwrap_or(&[])
    }

    fn build(&mut self, nt: usize, start: usize, end: usize) -> Option<ParseTree> {
        let key = (nt, start, end);
        if self.fail.contains(&key) || !self.spans(nt, start).contains(&end) {
            return None;
        }
        if !self.in_progress.insert(key) {
            return None;
        }
        let id = self.re.nts[nt];
        let mut result = None;
        for (prod, rhs) in self.re.grammar.productions(id).iter().enumerate() {
            if let Some(children) = self.match_seq(rhs, start, end) {
                result = Some(ParseTree::Node { nt: id, prod, children, start, end });
                break;
            }
        }
        self.in_progress.remove(&key);
        if result.is_none() {
            self.fail.insert(key);
        }
        result
    }

    fn match_seq(&mut self, rhs: &[Sym], pos: usize, end: usize) -> Option<Vec<ParseTree>> {
        let Some((first, rest)) = rhs.split_first() else {
            return (pos == end).then(Vec::new);
        };
        match first {
            Sym::Class(c) => {
                if pos < end && c.contains(self.input[pos]) {
                    let mut tail = self.match_seq(rest, pos + 1, end)?;
                    tail.insert(0, ParseTree::Leaf { byte: self.input[pos], pos });
                    Some(tail)
                } else {
                    None
                }
            }
            Sym::Nt(n) => {
                let mids: Vec<usize> =
                    self.spans(n.index(), pos).iter().copied().filter(|&m| m <= end).collect();
                for mid in mids {
                    if let Some(tail) = self.match_seq(rest, mid, end) {
                        if let Some(sub) = self.build(n.index(), pos, mid) {
                            let mut children = vec![sub];
                            children.extend(tail);
                            return Some(children);
                        }
                    }
                }
                None
            }
        }
    }
}

/// Asserts equal verdicts on every input, and equal trees on members.
fn agree(g: &Grammar, inputs: &[Vec<u8>]) -> Result<(), TestCaseError> {
    let (fast, reference) = (Earley::new(g), Reference::new(g));
    for input in inputs {
        let verdict = reference.accepts(input);
        prop_assert_eq!(fast.accepts(input), verdict, "accepts({:?})", input);
        if verdict {
            prop_assert_eq!(fast.parse(input), reference.parse(input), "parse({:?})", input);
        } else {
            prop_assert!(fast.parse(input).is_none(), "parse({:?})", input);
        }
    }
    Ok(())
}

/// Every string over `alphabet` up to length `max_len`.
fn all_strings(alphabet: &[u8], max_len: usize) -> Vec<Vec<u8>> {
    let mut out = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..max_len {
        frontier = frontier
            .iter()
            .flat_map(|s: &Vec<u8>| {
                alphabet.iter().map(move |&b| {
                    let mut t = s.clone();
                    t.push(b);
                    t
                })
            })
            .collect();
        out.extend(frontier.iter().cloned());
    }
    out
}

/// Grammar shapes the chart must get right: ε-productions, unary cycles,
/// left and right recursion, and heavy ambiguity.
fn tricky_grammars() -> Vec<Grammar> {
    let mut out = Vec::new();
    // S → S S | a | ε
    let mut b = GrammarBuilder::new();
    let s = b.nt("S");
    b.prod(s, [nt(s), nt(s)].concat());
    b.prod(s, lit(b"a"));
    b.prod(s, vec![]);
    out.push(b.build(s).unwrap());
    // A → B | a ; B → A | b A
    let mut b = GrammarBuilder::new();
    let (a, bb) = (b.nt("A"), b.nt("B"));
    b.prod(a, nt(bb));
    b.prod(a, lit(b"a"));
    b.prod(bb, nt(a));
    b.prod(bb, [lit(b"b"), nt(a)].concat());
    out.push(b.build(a).unwrap());
    // L → L a | ε ; R → a R | b ; S → L R | R L
    let mut b = GrammarBuilder::new();
    let (s, l, r) = (b.nt("S"), b.nt("L"), b.nt("R"));
    b.prod(l, [nt(l), lit(b"a")].concat());
    b.prod(l, vec![]);
    b.prod(r, [lit(b"a"), nt(r)].concat());
    b.prod(r, lit(b"b"));
    b.prod(s, [nt(l), nt(r)].concat());
    b.prod(s, [nt(r), nt(l)].concat());
    out.push(b.build(s).unwrap());
    // Nullable chains: S → A B A ; A → B | ε ; B → A | [ab] B
    let mut b = GrammarBuilder::new();
    let (s, a, bb) = (b.nt("S"), b.nt("A"), b.nt("B"));
    b.prod(s, [nt(a), nt(bb), nt(a)].concat());
    b.prod(a, nt(bb));
    b.prod(a, vec![]);
    b.prod(bb, nt(a));
    b.prod(bb, [cls(CharClass::from_bytes(b"ab")), nt(bb)].concat());
    out.push(b.build(s).unwrap());
    out
}

#[test]
fn tricky_grammars_agree_on_all_short_strings() {
    let inputs = all_strings(b"ab", 7);
    for g in tricky_grammars() {
        agree(&g, &inputs).unwrap();
    }
}

/// One right-hand-side symbol of a generated grammar.
#[derive(Clone, Debug)]
enum SymSpec {
    Nt(usize),
    Class(Vec<u8>),
}

fn sym_spec(nts: usize) -> impl Strategy<Value = SymSpec> {
    let byte = prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')];
    prop_oneof![
        2 => (0..nts).prop_map(SymSpec::Nt),
        3 => proptest::collection::vec(byte, 1..3).prop_map(SymSpec::Class),
    ]
}

/// Up to four nonterminals with one to three productions of up to three
/// symbols each: small enough that ε-productions, unary cycles, left and
/// right recursion and ambiguity all come up often.
fn arb_grammar() -> impl Strategy<Value = Grammar> {
    (1usize..5)
        .prop_flat_map(|nts| {
            let prod = proptest::collection::vec(sym_spec(nts), 0..4);
            proptest::collection::vec(proptest::collection::vec(prod, 1..4), nts..=nts)
        })
        .prop_map(|spec| {
            let mut b = GrammarBuilder::new();
            let ids: Vec<NtId> = (0..spec.len()).map(|i| b.nt(&format!("N{i}"))).collect();
            for (lhs, prods) in ids.iter().zip(&spec) {
                for rhs in prods {
                    let syms = rhs.iter().map(|s| match s {
                        SymSpec::Nt(i) => Sym::Nt(ids[*i]),
                        SymSpec::Class(bytes) => Sym::Class(CharClass::from_bytes(bytes)),
                    });
                    b.prod(*lhs, syms.collect());
                }
            }
            b.build(ids[0]).unwrap()
        })
}

/// Copies of `s` with random bytes inserted, deleted or replaced.
fn mutants(s: &[u8], alphabet: &[u8], count: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
    (0..count)
        .map(|_| {
            let mut t = s.to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..=t.len());
                let byte = alphabet[rng.gen_range(0..alphabet.len())];
                match rng.gen_range(0..3u8) {
                    0 => t.insert(at, byte),
                    1 if at < t.len() => {
                        t.remove(at);
                    }
                    _ if at < t.len() => t[at] = byte,
                    _ => t.push(byte),
                }
            }
            t
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random small grammars: random strings, samples and their mutants.
    #[test]
    fn random_grammars_agree_with_reference(
        g in arb_grammar(),
        strings in proptest::collection::vec(proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..7), 8..16),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inputs = strings;
        let sampler = Sampler::with_max_depth(&g, 8);
        for _ in 0..4 {
            if let Some(s) = sampler.sample(&mut rng) {
                inputs.extend(mutants(&s, b"abc", 2, &mut rng));
                inputs.push(s);
            }
        }
        agree(&g, &inputs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The five target languages: samples and their byte-level mutants.
    #[test]
    fn target_languages_agree_with_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alphabet = b"<>/=\"'!-[]()*.\\^$?&:;#ahpstwx019 ";
        for lang in section82_languages().into_iter().chain([toy_xml()]) {
            let g = lang.grammar();
            let sampler = Sampler::new(g);
            let mut inputs = Vec::new();
            for _ in 0..3 {
                let s = sampler.sample(&mut rng).expect("productive language");
                inputs.extend(mutants(&s, alphabet, 3, &mut rng));
                inputs.push(s);
            }
            agree(g, &inputs)?;
        }
    }
}
