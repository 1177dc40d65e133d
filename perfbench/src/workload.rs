//! Seeded workload generation and the closed-form references each
//! response is checked against.
//!
//! Every input is a random relabeling of a query structure: variable and
//! relation names are drawn from the seed, so the server's cache can only
//! recognise a repeat through canonicalization. Template workloads are
//! issued in balanced rounds (each template once per round, in an order
//! drawn from the seed), so the template mix of a run does not depend on
//! the seed and the latency quantiles sit inside one template's block
//! rather than on the edge between two.
//!
//! Atom and head order also vary from round to round, but are drawn from
//! a fixed stream rather than from the seed: variable order changes the
//! entropy LPs' pivot paths (and so their cost) by several percent, and
//! a seed must change names, not the amount of work.

use cq_core::{Atom, ConjunctiveQuery};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The benchmark's workloads; see `BENCHMARK.json` for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeWarm,
    EntropyLp,
    WitnessEval,
    ClusterCold,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-warm" => Some(Workload::ServeWarm),
            "entropy-lp" => Some(Workload::EntropyLp),
            "witness-eval" => Some(Workload::WitnessEval),
            "cluster-cold" => Some(Workload::ClusterCold),
            _ => None,
        }
    }

    /// Client deadline for one request (one batch on `cluster-cold`).
    /// Far above every request's normal cost; a request that passes it
    /// counts as failed.
    pub fn deadline_secs(self) -> u64 {
        match self {
            Workload::ServeWarm => 5,
            Workload::EntropyLp => 20,
            Workload::WitnessEval => 5,
            Workload::ClusterCold => 20,
        }
    }

    /// Whether the daemons' CPU work fills the request wall clock, so that
    /// it scales with the host's speed. Not on cluster-cold: at this
    /// commit its batches spend about 95% of their time waiting on TCP.
    pub fn wall_is_cpu_bound(self) -> bool {
        self != Workload::ClusterCold
    }

    /// Rounds replayed by each pass of the traced run.
    pub fn traced_rounds(self) -> usize {
        match self {
            Workload::ServeWarm => 4,
            Workload::EntropyLp => 1,
            Workload::WitnessEval => 2,
            Workload::ClusterCold => 8,
        }
    }
}

/// The independent reference for one input. Only fields that depend on
/// neither cache state nor request order are referenced.
#[derive(Clone, Debug)]
pub enum Expect {
    /// A query with simple dependencies, whose Theorem 4.4 exponent and
    /// widths have closed forms.
    Exact {
        exponent: (u64, u64),
        treewidth: usize,
        hypertree: usize,
        acyclic: bool,
    },
    /// The cycle-fd family: both entropy values are `floor(k/2)`; the
    /// Prop 6.9 LP is skipped above 9 variables.
    Entropy {
        color: u64,
        bound: Option<u64>,
        treewidth: usize,
        hypertree: usize,
        acyclic: bool,
    },
    /// A random FD-free query: the exponent must equal the value of the
    /// dual LP, `cq_core::fractional_edge_cover_head`, on the structure
    /// the generator built (not on the text the server parsed).
    Cover(ConjunctiveQuery),
}

/// One `analyze` input.
#[derive(Clone, Debug)]
pub struct Request {
    pub name: String,
    pub text: String,
    pub witness: Option<usize>,
    pub expect: Expect,
}

/// A dependency of a template, by atom index and 1-based positions.
#[derive(Clone, Debug)]
enum Dep {
    Key {
        atom: usize,
    },
    Fd {
        atom: usize,
        lhs: Vec<usize>,
        rhs: usize,
    },
}

#[derive(Clone, Debug)]
struct Template {
    name: String,
    vars: usize,
    atoms: Vec<Vec<usize>>,
    deps: Vec<Dep>,
    witness: Option<usize>,
    expect: Expect,
}

fn exact(exponent: (u64, u64), treewidth: usize, hypertree: usize, acyclic: bool) -> Expect {
    let g = gcd(exponent.0, exponent.1);
    Expect::Exact {
        exponent: (exponent.0 / g, exponent.1 / g),
        treewidth,
        hypertree,
        acyclic,
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn template(name: String, vars: usize, atoms: Vec<Vec<usize>>, expect: Expect) -> Template {
    Template {
        name,
        vars,
        atoms,
        deps: Vec::new(),
        witness: None,
        expect,
    }
}

fn cycle_edges(k: usize) -> Vec<Vec<usize>> {
    (0..k).map(|i| vec![i, (i + 1) % k]).collect()
}

fn cycle(k: usize) -> Template {
    template(
        format!("cycle{k}"),
        k,
        cycle_edges(k),
        exact((k as u64, 2), 2, 2, false),
    )
}

fn clique(k: usize) -> Template {
    let atoms = (0..k)
        .flat_map(|i| (i + 1..k).map(move |j| vec![i, j]))
        .collect();
    let hypertree = k.div_ceil(2);
    template(
        format!("clique{k}"),
        k,
        atoms,
        exact((k as u64, 2), k - 1, hypertree, false),
    )
}

fn star(n: usize) -> Template {
    let atoms = (1..=n).map(|leaf| vec![0, leaf]).collect();
    template(
        format!("star{n}"),
        n + 1,
        atoms,
        exact((n as u64, 1), 1, 1, true),
    )
}

/// An n-star whose every edge relation is keyed on the centre, so the
/// centre determines the whole output: exponent 1.
fn keyed_star(n: usize) -> Template {
    let mut t = star(n);
    t.name = format!("keyed-star{n}");
    t.deps = (0..n).map(|atom| Dep::Key { atom }).collect();
    t.expect = exact((1, 1), 1, 1, true);
    t
}

/// A path with `k` edges (`k + 1` variables).
fn path(k: usize) -> Template {
    let atoms = (0..k).map(|i| vec![i, i + 1]).collect();
    let exponent = (k as u64 + 2) / 2;
    template(
        format!("path{k}"),
        k + 1,
        atoms,
        exact((exponent, 1), 1, 1, true),
    )
}

/// The 2 x k grid graph; variable `r * k + c` sits in row r, column c.
fn grid(k: usize) -> Template {
    let mut atoms = Vec::new();
    for r in 0..2 {
        for c in 0..k - 1 {
            atoms.push(vec![r * k + c, r * k + c + 1]);
        }
    }
    for c in 0..k {
        atoms.push(vec![c, k + c]);
    }
    template(
        format!("grid2x{k}"),
        2 * k,
        atoms,
        exact((k as u64, 1), 2, 2, false),
    )
}

/// A k-cycle plus `T(X0,X1,X2)` with the compound FD `T[1,2] -> T[3]`.
fn cycle_fd(k: usize) -> Template {
    let mut atoms = cycle_edges(k);
    atoms.push(vec![0, 1, 2]);
    let half = k as u64 / 2;
    Template {
        name: format!("cycle-fd{k}"),
        vars: k,
        atoms,
        deps: vec![Dep::Fd {
            atom: k,
            lhs: vec![1, 2],
            rhs: 3,
        }],
        witness: None,
        expect: Expect::Entropy {
            color: half,
            bound: (k <= 9).then_some(half),
            treewidth: 2,
            hypertree: 2,
            acyclic: false,
        },
    }
}

/// 35 templates: an odd count with 0.9 * 35 + 0.5 whole, so both the
/// median and p90 fall in the middle of one template's latency block.
fn serve_warm_templates() -> Vec<Template> {
    let mut ts: Vec<Template> = (3..=12).map(cycle).collect();
    ts.extend((3..=7).map(clique));
    ts.extend((2..=5).map(star));
    ts.extend((2..=5).map(keyed_star));
    ts.extend((2..=8).map(path));
    ts.extend((2..=6).map(grid));
    ts
}

/// Per-k weights of one entropy-lp round. k = 8 holds the median and
/// k = 9, 10 (about 0.5 s each) hold p90; one round costs about 1.7 s.
const ENTROPY_WEIGHTS: [(usize, usize); 6] = [(5, 1), (6, 2), (7, 2), (8, 5), (9, 1), (10, 1)];

/// The witness cost table: `M` per self-join-free template, fixed so
/// that every request costs about 1-50 ms (3-13 ms on a 2-vCPU x86-64
/// virtual machine). The Prop 4.5 database grows as `M^colors` (a
/// 5-cycle at M = 32 needs 6 GB), so `M` is never derived from anything
/// the seed controls.
fn witness_templates() -> Vec<Template> {
    let table: [(Template, usize); 15] = [
        (cycle(3), 24),
        (cycle(4), 128),
        (cycle(5), 7),
        (cycle(6), 24),
        (cycle(7), 4),
        (clique(4), 12),
        (clique(5), 7),
        (star(2), 128),
        (star(3), 24),
        (star(4), 12),
        (path(2), 128),
        (path(3), 128),
        (path(4), 24),
        (grid(2), 128),
        (grid(3), 24),
    ];
    table
        .into_iter()
        .map(|(mut t, m)| {
            t.witness = Some(m);
            t
        })
        .collect()
}

/// Random-query sizes for cluster-cold: large enough that almost every
/// draw is its own isomorphism class, so the coloring LP misses.
const CLUSTER_MAX_VARS: usize = 10;
const CLUSTER_MAX_ATOMS: usize = 8;
/// Queries per `ClusterClient::run` batch.
const CLUSTER_BATCH: usize = 32;

/// The seed of the atom and head order of template `template`'s input
/// in round `round`.
fn shape_seed(round: u64, template: usize) -> u64 {
    (round << 16 | template as u64) ^ 0x00c0_1075
}

/// Size of the name pools relabelings draw from.
const NAME_POOL: usize = 1000;

/// A seeded generator of rounds. Template workloads yield one round per
/// template cycle; `cluster-cold` yields one batch per round.
pub struct Stream {
    workload: Workload,
    /// Names and round order.
    rng: StdRng,
    /// Rounds issued so far; with the template index, it picks the atom
    /// and head order of a template input, the same for every seed.
    rounds: u64,
    templates: Vec<Template>,
    next_query: u64,
    seed: u64,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let templates = match workload {
            Workload::ServeWarm => serve_warm_templates(),
            Workload::EntropyLp => ENTROPY_WEIGHTS
                .iter()
                .flat_map(|&(k, w)| std::iter::repeat_n(cycle_fd(k), w))
                .collect(),
            Workload::WitnessEval => witness_templates(),
            Workload::ClusterCold => Vec::new(),
        };
        Stream {
            workload,
            rng: StdRng::seed_from_u64(seed),
            rounds: 0,
            templates,
            next_query: 0,
            seed,
        }
    }

    pub fn next_round(&mut self) -> Vec<Request> {
        if self.workload == Workload::ClusterCold {
            return (0..CLUSTER_BATCH).map(|_| self.random_request()).collect();
        }
        let mut order: Vec<usize> = (0..self.templates.len()).collect();
        order.shuffle(&mut self.rng);
        let round = self.rounds;
        self.rounds += 1;
        order
            .into_iter()
            .map(|t| {
                let template = self.templates[t].clone();
                self.render(&template, shape_seed(round, t))
            })
            .collect()
    }

    /// The set-up pass: every template once (warming the cache on
    /// serve-warm and the allocator on witness-eval), one small query on
    /// entropy-lp, and a batch of small templates on cluster-cold. Drawn
    /// from its own seed so it never repeats a timed input's text.
    pub fn warmup(workload: Workload, seed: u64) -> Vec<Request> {
        let mut stream = Stream::new(workload, seed ^ 0x5eed_0f5e);
        match workload {
            Workload::ServeWarm | Workload::WitnessEval => stream.next_round(),
            Workload::EntropyLp => vec![stream.render(&cycle_fd(5), shape_seed(0, 0))],
            Workload::ClusterCold => [path(2), star(3), cycle(4), grid(2)]
                .iter()
                .enumerate()
                .map(|(i, t)| stream.render(t, shape_seed(0, i)))
                .collect(),
        }
    }

    fn names(&mut self, prefix: &str, n: usize) -> Vec<String> {
        let mut pool: Vec<usize> = (0..NAME_POOL).collect();
        pool.shuffle(&mut self.rng);
        pool[..n].iter().map(|i| format!("{prefix}{i}")).collect()
    }

    /// Renders a template under a fresh random relabeling. Each atom gets
    /// its own relation, so templates are self-join free.
    fn render(&mut self, t: &Template, shape_seed: u64) -> Request {
        let mut shape = StdRng::seed_from_u64(shape_seed);
        let vars = self.names("V", t.vars);
        let rels = self.names("R", t.atoms.len());
        let mut atom_order: Vec<usize> = (0..t.atoms.len()).collect();
        atom_order.shuffle(&mut shape);
        let mut head: Vec<usize> = (0..t.vars).collect();
        head.shuffle(&mut shape);
        let body: Vec<String> = atom_order
            .iter()
            .map(|&a| {
                let args: Vec<&str> = t.atoms[a].iter().map(|&v| vars[v].as_str()).collect();
                format!("{}({})", rels[a], args.join(","))
            })
            .collect();
        let head: Vec<&str> = head.iter().map(|&v| vars[v].as_str()).collect();
        let mut text = format!("Q({}) :- {}", head.join(","), body.join(", "));
        for dep in &t.deps {
            match dep {
                Dep::Key { atom } => text.push_str(&format!("\nkey {}[1]", rels[*atom])),
                Dep::Fd { atom, lhs, rhs } => {
                    let lhs: Vec<String> = lhs.iter().map(usize::to_string).collect();
                    let r = &rels[*atom];
                    text.push_str(&format!("\n{r}[{}] -> {r}[{rhs}]", lhs.join(",")));
                }
            }
        }
        Request {
            name: t.name.clone(),
            text,
            witness: t.witness,
            expect: t.expect.clone(),
        }
    }

    /// The next `cq_bench::random_query` draw, relabeled. The structure
    /// the generator drew is kept as the reference's input.
    fn random_request(&mut self) -> Request {
        let draw_seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(self.next_query);
        self.next_query += 1;
        let q = cq_bench::random_query(draw_seed, CLUSTER_MAX_VARS, CLUSTER_MAX_ATOMS);
        let vars = self.names("V", q.num_vars());
        let rels = self.names("R", q.num_atoms());
        let rel_of: Vec<&str> = q.body().iter().map(|a| a.relation.as_str()).collect();
        // Atoms sharing a relation (self-joins) keep sharing its new name.
        let rename = |rel: &str| {
            let first = rel_of.iter().position(|r| *r == rel).expect("own relation");
            rels[first].clone()
        };
        let mut atoms: Vec<&Atom> = q.body().iter().collect();
        atoms.shuffle(&mut self.rng);
        let body: Vec<String> = atoms
            .iter()
            .map(|a| {
                let args: Vec<&str> = a.vars.iter().map(|&v| vars[v].as_str()).collect();
                format!("{}({})", rename(&a.relation), args.join(","))
            })
            .collect();
        let mut head: Vec<&str> = q.head().iter().map(|&v| vars[v].as_str()).collect();
        head.shuffle(&mut self.rng);
        Request {
            name: format!("random{}", self.next_query - 1),
            text: format!("Q({}) :- {}", head.join(","), body.join(", ")),
            witness: None,
            expect: Expect::Cover(q),
        }
    }
}
