//! Never-panic mutation test for the deck parser. Three seed decks are
//! mutated by deleting, inserting, duplicating and swapping characters
//! and SPICE tokens; every mutant must parse to a deck or to a
//! [`ParseDeckError`] naming a line of the mutant — a malformed deck is
//! a typed error, never a crash. The generator is seeded, so a failure
//! reproduces exactly and prints the mutant that caused it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sstvs::netlist::parse_deck;

/// The inverter deck of the parser's own unit tests.
const INVERTER_DECK: &str = "\
inverter characterization
* power supply and input
Vdd vdd 0 DC 1.2
Vin in 0 PULSE(0 1.2 1n 50p 50p 2n 8n)
* the gate
Mp out in vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
Cl out 0 1fF
.tran 1p 10n
.end
";

/// The netlist `crates/cli/tests/check_cli.rs` drives `vls-spice` with
/// under a fault plan.
const FAULT_DECK: &str = "\
ci fault smoke deck
Vdd vdd 0 1.2
Vin in 0 PULSE(0 1.2 0.5n 50p 50p 2n 6n)
Mp out in vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn out in 0 0 ptm90_nmos W=0.2u L=0.1u
Cl out 0 1fF
.op
.tran 10p 4n
.end
";

/// Every card kind the parser reads beyond plain elements.
const CARDS_DECK: &str = "\
buffer with every card kind
.model nlow nmos vto=0.3 kp=4e-4
.subckt inv a y vdd
Mp y a vdd vdd ptm90_pmos W=0.4u L=0.1u
Mn y a 0 0 nlow W=0.2u L=0.1u
.ends
Vdd vdd 0 1.2
Vin in 0 PWL(0 0 1n 1.2)
X1 in mid vdd inv
X2 mid out vdd inv
Cl out 0 1f
.ic v(mid)=1.2 v(out)=0
.meas tran tpd trig v(in) val=0.6 rise=1 targ v(out) val=0.6 rise=1
.meas tran iavg avg v(out) from=1n to=2n
.dc Vin 0 1.2 0.1
.temp 90
.tran 1p 3n
.end
";

/// Characters insertions draw from: the deck syntax, digits, scale
/// suffixes, and a non-ASCII pair.
const ALPHABET: &[char] = &[
    '(', ')', '=', ',', '+', '*', ';', '$', '.', ' ', '\n', '0', '1', '9', '-', 'e', 'm', 'u', 'v',
    'x', 'n', 'p', 'µ', '°',
];

/// Mutants per seed deck.
const MUTANTS: usize = 1000;

/// SplitMix64: a seeded, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One character-level edit.
fn mutate_chars(text: &str, rng: &mut Rng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    match rng.below(4) {
        0 if n > 0 => {
            chars.remove(rng.below(n));
        }
        1 => chars.insert(rng.below(n + 1), ALPHABET[rng.below(ALPHABET.len())]),
        2 if n > 0 => {
            let i = rng.below(n);
            chars.insert(i, chars[i]);
        }
        _ if n > 1 => {
            let (i, j) = (rng.below(n), rng.below(n));
            chars.swap(i, j);
        }
        _ => {}
    }
    chars.into_iter().collect()
}

/// One token-level edit. Tokens split the way the parser splits them
/// (whitespace, with `(`, `)`, `,` and `=` standing alone); line breaks
/// stay put. Inserted tokens come from the deck itself.
fn mutate_tokens(text: &str, rng: &mut Rng) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|line| {
            line.replace('(', " ( ")
                .replace(')', " ) ")
                .replace(',', " , ")
                .replace('=', " = ")
                .split_whitespace()
                .map(str::to_string)
                .collect()
        })
        .collect();
    let slots: Vec<(usize, usize)> = lines
        .iter()
        .enumerate()
        .flat_map(|(l, toks)| (0..toks.len()).map(move |t| (l, t)))
        .collect();
    if slots.is_empty() {
        return text.to_string();
    }
    let (l, t) = slots[rng.below(slots.len())];
    match rng.below(4) {
        0 => {
            lines[l].remove(t);
        }
        1 => {
            let (sl, st) = slots[rng.below(slots.len())];
            let token = lines[sl][st].clone();
            lines[l].insert(t, token);
        }
        2 => {
            let token = lines[l][t].clone();
            lines[l].insert(t, token);
        }
        _ => {
            let (sl, st) = slots[rng.below(slots.len())];
            let other = lines[sl][st].clone();
            lines[sl][st] = std::mem::replace(&mut lines[l][t], other);
        }
    }
    lines.iter().map(|toks| toks.join(" ") + "\n").collect()
}

#[test]
fn mutated_decks_never_panic_the_parser() {
    let mut rng = Rng(0x5eed_dec5);
    let mut failures: Vec<String> = Vec::new();
    let mut parsed = 0usize;
    for seed in [INVERTER_DECK, FAULT_DECK, CARDS_DECK] {
        parse_deck(seed).expect("seed decks parse");
        for _ in 0..MUTANTS {
            let mut mutant = seed.to_string();
            for _ in 0..=rng.below(3) {
                mutant = if rng.below(2) == 0 {
                    mutate_chars(&mutant, &mut rng)
                } else {
                    mutate_tokens(&mutant, &mut rng)
                };
            }
            let lines = mutant.lines().count();
            match catch_unwind(AssertUnwindSafe(|| parse_deck(&mutant))) {
                Ok(Ok(_)) => parsed += 1,
                Ok(Err(e)) if (1..=lines).contains(&e.line) => {}
                Ok(Err(e)) => failures.push(format!(
                    "error outside the deck's {lines} lines ({e}) for:\n{mutant}"
                )),
                Err(_) => failures.push(format!("panic for:\n{mutant}")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} mutants broke the parser; the first:\n{}",
        failures.len(),
        3 * MUTANTS,
        failures[0]
    );
    // The mutants must not all be trivially rejected.
    assert!(parsed > 3 * MUTANTS / 20, "only {parsed} mutants parsed");
}
