//! Seeded SQL statement streams. A stream is a pure function of its seed:
//! the same seed gives the same statements in the same order, and the
//! engine receives nothing but the generated table and these statements.

/// splitmix64: a small, seedable generator, so the benchmark's inputs do
/// not depend on the engine's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose sequence depends only on `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One conjunct of a WHERE clause: `attr op value`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pred {
    pub attr: &'static str,
    pub op: &'static str,
    pub value: i64,
}

/// One logical statement `SELECT gb…, AVG(avg) FROM from [WHERE …] GROUP BY gb…`.
/// Different spellings of it normalize to one prepared-statement key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Statement {
    pub group_by: &'static [&'static str],
    pub avg: &'static str,
    pub from: &'static str,
    pub preds: Vec<Pred>,
}

impl Statement {
    /// The one fixed spelling: upper-case keywords, single spaces.
    pub fn canonical(&self) -> String {
        self.render(&mut |kw| kw.to_string(), &mut |_| " ".to_string())
    }

    /// A random spelling: keyword case and whitespace vary, names and
    /// literals do not (attribute names are case-sensitive).
    pub fn respelled(&self, rng: &mut Rng) -> String {
        // The RNG is shared by both closures, so draw through a cell.
        let rng = std::cell::RefCell::new(rng);
        self.render(
            &mut |kw| match rng.borrow_mut().below(3) {
                0 => kw.to_string(),
                1 => kw.to_lowercase(),
                _ => {
                    let lower = kw.to_lowercase();
                    let mut chars = lower.chars();
                    chars
                        .next()
                        .map(|c| c.to_uppercase().collect::<String>() + chars.as_str())
                        .unwrap_or_default()
                }
            },
            &mut |required| {
                const GAPS: [&str; 5] = [" ", "  ", "\n", "\t", " \n  "];
                let mut r = rng.borrow_mut();
                if !required && r.below(2) == 0 {
                    String::new()
                } else {
                    GAPS[r.below(GAPS.len())].to_string()
                }
            },
        )
    }

    /// Assemble the statement; `kw` spells a keyword, `gap(required)`
    /// spells the whitespace between tokens (optional next to punctuation).
    fn render(
        &self,
        kw: &mut dyn FnMut(&str) -> String,
        gap: &mut dyn FnMut(bool) -> String,
    ) -> String {
        let mut out = kw("SELECT");
        out += &gap(true);
        for g in self.group_by {
            out += g;
            out += ",";
            out += &gap(true);
        }
        out += &kw("AVG");
        out += "(";
        out += self.avg;
        out += ")";
        out += &gap(true);
        out += &kw("FROM");
        out += &gap(true);
        out += self.from;
        for (i, p) in self.preds.iter().enumerate() {
            out += &gap(true);
            out += &kw(if i == 0 { "WHERE" } else { "AND" });
            out += &gap(true);
            out += p.attr;
            out += &gap(false);
            out += p.op;
            out += &gap(false);
            out += &p.value.to_string();
        }
        out += &gap(true);
        out += &kw("GROUP");
        out += &gap(true);
        out += &kw("BY");
        out += &gap(true);
        for (i, g) in self.group_by.iter().enumerate() {
            if i > 0 {
                out += ",";
                out += &gap(false);
            }
            out += g;
        }
        out
    }
}

/// The three group-by shapes over the SO table: cheap (Continent, 5
/// groups) and dearer (Country, 20; Country × Gender, ~60) views.
const SO_SHAPES: [&[&str]; 3] = [&["Country"], &["Continent"], &["Country", "Gender"]];

/// (Age window `[lo, hi)`, `Age < hi`, `YearsCoding <= cap`).
type SoRange = (Option<(i64, i64)>, Option<i64>, Option<i64>);

/// WHERE ranges on `Age`/`YearsCoding`: Age windows, YearsCoding caps,
/// and "young and junior" pairs (`YearsCoding` grows with `Age`, so the
/// two are never combined in a way that can select no rows). Each keeps
/// roughly a third to two thirds of the rows.
const SO_RANGES: [SoRange; 16] = [
    (Some((20, 35)), None, None),
    (Some((25, 40)), None, None),
    (Some((30, 45)), None, None),
    (Some((35, 55)), None, None),
    (Some((22, 45)), None, None),
    (Some((28, 50)), None, None),
    (None, None, Some(6)),
    (None, None, Some(9)),
    (None, None, Some(12)),
    (None, None, Some(15)),
    (None, None, Some(18)),
    (None, Some(35), Some(6)),
    (None, Some(40), Some(10)),
    (None, Some(45), Some(14)),
    (None, Some(50), Some(18)),
    (None, Some(55), Some(12)),
];

/// `so-adhoc`: every group-by shape under every range of [`SO_RANGES`]
/// (48 distinct statements), each range bound moved by a seeded step of
/// −1, 0 or +1, in seeded order. Every seed thus has the same mix of
/// views while its statements and their order differ.
pub fn so_adhoc(seed: u64) -> Vec<Statement> {
    let mut rng = Rng::new(seed);
    let p = |attr, op, value| Pred { attr, op, value };
    let mut out = Vec::new();
    for group_by in SO_SHAPES {
        for (window, age_below, years_cap) in SO_RANGES {
            let mut jitter = |v: i64| v + rng.range(-1, 1);
            let mut preds = Vec::new();
            if let Some((lo, hi)) = window {
                preds.push(p("Age", ">=", jitter(lo)));
                preds.push(p("Age", "<", jitter(hi)));
            }
            if let Some(hi) = age_below {
                preds.push(p("Age", "<", jitter(hi)));
            }
            if let Some(cap) = years_cap {
                preds.push(p("YearsCoding", "<=", jitter(cap)));
            }
            out.push(Statement {
                group_by,
                avg: "Salary",
                from: "so",
                preds,
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

/// `synth-wide`: the 24 statements that filter two treatment attributes
/// to four of their five values each, in seeded order. Filtering on `T`
/// keeps every `G` group, so every view keeps all of the table's groups,
/// and every statement keeps about the same share (16/25) of the rows.
pub fn synth_wide(seed: u64) -> Vec<Statement> {
    const T: [&str; 4] = ["T1", "T2", "T3", "T4"];
    const KEEP4: [(&str, i64); 2] = [(">=", 2), ("<=", 4)];
    let pred = |a: usize, k: usize| Pred {
        attr: T[a],
        op: KEEP4[k].0,
        value: KEEP4[k].1,
    };
    let mut out = Vec::new();
    for a in 0..T.len() {
        for b in a + 1..T.len() {
            for k in 0..KEEP4.len() {
                for l in 0..KEEP4.len() {
                    out.push(Statement {
                        group_by: &["G"],
                        avg: "O",
                        from: "synthetic",
                        preds: vec![pred(a, k), pred(b, l)],
                    });
                }
            }
        }
    }
    Rng::new(seed).shuffle(&mut out);
    out
}

/// One `serve-mixed` request: the logical statement, the spelling sent,
/// and whether it is one of the repeated statements.
#[derive(Debug, Clone)]
pub struct Request {
    pub stmt: Statement,
    pub sql: String,
    pub repeat: bool,
}

/// The few statements `serve-mixed` repeats; every repeat is spelled
/// afresh, so only the prepared-statement cache's normalization makes it
/// a hit.
fn serve_repeats() -> Vec<Statement> {
    let age_lt_40 = vec![Pred {
        attr: "Age",
        op: "<",
        value: 40,
    }];
    [
        (SO_SHAPES[0], Vec::new()),
        (SO_SHAPES[1], Vec::new()),
        (SO_SHAPES[0], age_lt_40),
        (SO_SHAPES[2], Vec::new()),
    ]
    .into_iter()
    .map(|(group_by, preds)| Statement {
        group_by,
        avg: "Salary",
        from: "so",
        preds,
    })
    .collect()
}

/// Every unique `serve-mixed` statement, in seeded order: WHERE ranges
/// over the three SO shapes, none equal to a repeated statement.
fn serve_uniques(seed: u64) -> Vec<Statement> {
    let p = |attr, op, value| Pred { attr, op, value };
    let mut wheres = Vec::new();
    for lo in 18..50 {
        for width in 6..30 {
            wheres.push(vec![p("Age", ">=", lo), p("Age", "<", lo + width)]);
        }
    }
    for hi in 30..55 {
        for years in 4..30 {
            wheres.push(vec![p("Age", "<", hi), p("YearsCoding", "<=", years)]);
        }
    }
    let mut all: Vec<Statement> = SO_SHAPES
        .iter()
        .flat_map(|&group_by| {
            wheres.iter().map(move |preds| Statement {
                group_by,
                avg: "Salary",
                from: "so",
                preds: preds.clone(),
            })
        })
        .collect();
    Rng::new(seed ^ 0x756e_6971).shuffle(&mut all);
    all
}

/// The request stream of one `serve-mixed` client. Two thirds of its
/// requests repeat one of four statements; the rest take the next unique
/// statement of this client's share (client `c` of `n` takes every
/// `n`-th), so uniques never repeat within or across clients until the
/// ~4400-statement pool runs out.
pub struct ClientStream {
    rng: Rng,
    repeats: Vec<Statement>,
    uniques: Vec<Statement>,
    next_unique: usize,
}

impl ClientStream {
    /// Client `client` of `clients`, seeded by `seed`.
    pub fn new(seed: u64, client: usize, clients: usize) -> Self {
        let uniques = serve_uniques(seed)
            .into_iter()
            .skip(client)
            .step_by(clients)
            .collect();
        ClientStream {
            rng: Rng::new(seed.wrapping_add(client as u64 + 1)),
            repeats: serve_repeats(),
            uniques,
            next_unique: 0,
        }
    }
}

impl Iterator for ClientStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let repeat = self.rng.below(3) < 2;
        let stmt = if repeat {
            self.repeats[self.rng.below(self.repeats.len())].clone()
        } else {
            let stmt = self.uniques[self.next_unique % self.uniques.len()].clone();
            self.next_unique += 1;
            stmt
        };
        let sql = stmt.respelled(&mut self.rng);
        Some(Request { stmt, sql, repeat })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        assert_eq!(so_adhoc(3), so_adhoc(3));
        assert_ne!(so_adhoc(3), so_adhoc(4));
        assert_eq!(synth_wide(3), synth_wide(3));
        assert_ne!(synth_wide(3), synth_wide(4));
        let a: Vec<String> = ClientStream::new(3, 0, 2).take(50).map(|r| r.sql).collect();
        let b: Vec<String> = ClientStream::new(3, 0, 2).take(50).map(|r| r.sql).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn adhoc_statements_are_distinct() {
        let s = so_adhoc(9);
        let set: HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 48);
        assert_eq!(synth_wide(9).iter().collect::<HashSet<_>>().len(), 24);
    }

    #[test]
    fn uniques_do_not_collide_across_clients_or_with_repeats() {
        let mut seen = HashSet::new();
        let repeats = serve_repeats();
        for c in 0..2 {
            for r in ClientStream::new(5, c, 2).take(600).filter(|r| !r.repeat) {
                assert!(!repeats.contains(&r.stmt));
                assert!(seen.insert(r.stmt), "unique statement sent twice");
            }
        }
    }
}
