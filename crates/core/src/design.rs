//! Design-space exploration (§III-D, §IV-A).
//!
//! The design flow: (i) extract search strings and value ranges from the
//! query; (ii) pick candidate primitives and parameters (block lengths
//! B ∈ {1, 2, N}); (iii) form combinations — per attribute, a value filter,
//! a string filter, or their structural / plain pairing, with AND-clause
//! attributes freely omittable (OR-clauses may never be pruned); (iv)
//! evaluate every configuration's FPR and LUT cost and extract the Pareto
//! front.
//!
//! FPR evaluation is shared-work: each per-attribute option is scanned over
//! the dataset once (bit-packed accept vectors), configurations then reduce
//! to bitwise ANDs, which is what makes the 10⁵-point spaces of Fig. 3
//! tractable in software.

use crate::backend::FilterBackend;
use crate::cost::{additive_cost, option_cost, structure_cost};
use crate::eval::Measurement;
use crate::expr::{Expr, NumberTechnique, StringTechnique};
use crate::query::{attr_expr, AttrOption};
use crate::CompiledFilter;
use rfjson_riotbench::{Dataset, Query};
use rfjson_techmap::ResourceReport;
use std::fmt;

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// String techniques to consider (paper default: B ∈ {1, 2, N}).
    pub techniques: Vec<StringTechnique>,
    /// The technique of every value filter: the paper's
    /// [`Token`](NumberTechnique::Token), or
    /// [`Anchored`](NumberTechnique::Anchored) (the default, as
    /// [`query_to_exprs`](crate::query::query_to_exprs) builds).
    pub number: NumberTechnique,
    /// Include string-only attribute options.
    pub include_string_only: bool,
    /// Include non-structural `s & v` pairs.
    pub include_plain_pairs: bool,
    /// Cap on records used for FPR evaluation (0 = all).
    pub max_records: usize,
    /// Worker threads for the evaluation phases.
    pub threads: usize,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            techniques: vec![
                StringTechnique::Substring(1),
                StringTechnique::Substring(2),
                StringTechnique::Window,
            ],
            number: NumberTechnique::Anchored,
            include_string_only: true,
            include_plain_pairs: true,
            max_records: 0,
            threads: std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
        }
    }
}

/// One evaluated configuration: which option (if any) each query attribute
/// uses, with its measured FPR and estimated LUT cost.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Per-attribute choice, aligned with `query.predicates`; `None` means
    /// the attribute was omitted (allowed for AND-clauses).
    pub options: Vec<Option<AttrOption>>,
    /// The technique of its value filters.
    pub number: NumberTechnique,
    /// Record-level false-positive rate against query ground truth.
    pub fpr: f64,
    /// LUT cost (additive model over option costs + shared structure).
    pub luts: usize,
    /// Number of attributes filtered (Fig. 3's colour axis).
    pub num_attributes: usize,
}

impl DesignPoint {
    /// The configuration as a filter expression.
    ///
    /// # Panics
    ///
    /// Panics if the stored options mismatch the query (wrong query given).
    pub fn expr(&self, query: &Query) -> Expr {
        let parts: Vec<Expr> = self
            .options
            .iter()
            .zip(&query.predicates)
            .filter_map(|(opt, pred)| {
                opt.map(|o| attr_expr(query, pred, o).expect("options came from this query"))
            })
            .collect();
        Expr::and(parts).with_number_technique(self.number)
    }

    /// Paper-notation description of the configuration.
    pub fn notation(&self, query: &Query) -> String {
        self.expr(query).to_string()
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fpr={:.3} luts={} attrs={}",
            self.fpr, self.luts, self.num_attributes
        )
    }
}

/// Bit-packed per-record accept vector.
#[derive(Debug, Clone)]
struct AcceptBits {
    words: Vec<u64>,
}

impl AcceptBits {
    fn from_bools(bits: &[bool]) -> Self {
        let mut words = vec![0u64; bits.len().div_ceil(64)];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        AcceptBits { words }
    }

    fn and_assign(&mut self, other: &AcceptBits) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn ones(n: usize) -> Self {
        let mut words = vec![!0u64; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        AcceptBits { words }
    }

    /// Records matched by ground truth but rejected by this vector.
    fn false_negatives(&self, truth: &AcceptBits) -> usize {
        self.words
            .iter()
            .zip(&truth.words)
            .map(|(a, t)| (t & !a).count_ones() as usize)
            .sum()
    }
}

/// Per-(attribute, option) evaluation artifacts.
struct OptionEval {
    attr: usize,
    option: AttrOption,
    accepts: AcceptBits,
    cost: ResourceReport,
}

/// Explores the design space of `query` over `dataset`.
///
/// Returns every evaluated configuration (the Fig. 3 point cloud). Use
/// [`pareto`] to extract the fronts of Tables V–VII.
///
/// # Panics
///
/// Panics if any configuration produces a false negative — that would be a
/// raw-filter correctness bug, not a data property.
pub fn explore(query: &Query, dataset: &Dataset, opts: &ExploreOptions) -> Vec<DesignPoint> {
    let records: Vec<&[u8]> = {
        let all = dataset.records();
        let n = if opts.max_records == 0 {
            all.len()
        } else {
            all.len().min(opts.max_records)
        };
        all[..n].iter().map(Vec::as_slice).collect()
    };
    let truth_bools: Vec<bool> = {
        let parsed = dataset.parsed();
        parsed[..records.len()]
            .iter()
            .map(|r| query.matches(r))
            .collect()
    };
    let truth = AcceptBits::from_bools(&truth_bools);
    let negatives = records.len() - truth.count();

    // Option menu per attribute.
    let mut menu: Vec<AttrOption> = vec![AttrOption::Value];
    for &t in &opts.techniques {
        if opts.include_string_only {
            menu.push(AttrOption::Str(t));
        }
        menu.push(AttrOption::StructPair(t));
        if opts.include_plain_pairs {
            menu.push(AttrOption::PlainPair(t));
        }
    }

    // Evaluate every (attribute, option) pair once, in parallel.
    let tasks: Vec<(usize, AttrOption)> = (0..query.predicates.len())
        .flat_map(|a| menu.iter().map(move |&o| (a, o)))
        .collect();
    let evals: Vec<OptionEval> = parallel_map(&tasks, opts.threads, |&(attr, option)| {
        let expr = attr_expr(query, &query.predicates[attr], option)
            .expect("query predicates are well-formed")
            .with_number_technique(opts.number);
        let mut filter = CompiledFilter::compile(&expr);
        let bools: Vec<bool> = records.iter().map(|r| filter.accepts_record(r)).collect();
        OptionEval {
            attr,
            option,
            accepts: AcceptBits::from_bools(&bools),
            cost: option_cost(&expr),
        }
    });

    let shared_structure = structure_cost().luts;
    let _ = shared_structure; // additive_cost re-derives it; kept for clarity

    // Enumerate configurations: per attribute, None or an index into menu.
    let num_attrs = query.predicates.len();
    let radix = menu.len() + 1;
    let total: usize = radix.pow(num_attrs as u32);
    let eval_of =
        |attr: usize, opt_idx: usize| -> &OptionEval { &evals[attr * menu.len() + opt_idx] };
    // Verify the eval table layout.
    debug_assert!(evals
        .iter()
        .enumerate()
        .all(|(i, e)| e.attr == i / menu.len() && e.option == menu[i % menu.len()]));

    let configs: Vec<usize> = (1..total).collect();
    let points: Vec<DesignPoint> = parallel_map(&configs, opts.threads, |&code| {
        let mut options: Vec<Option<AttrOption>> = Vec::with_capacity(num_attrs);
        let mut accepts = AcceptBits::ones(records.len());
        let mut costs: Vec<ResourceReport> = Vec::new();
        let mut any_structural = false;
        let mut c = code;
        for attr in 0..num_attrs {
            let digit = c % radix;
            c /= radix;
            if digit == 0 {
                options.push(None);
                continue;
            }
            let ev = eval_of(attr, digit - 1);
            options.push(Some(ev.option));
            accepts.and_assign(&ev.accepts);
            costs.push(ev.cost);
            any_structural |= ev.option.is_structural();
        }
        let fn_count = accepts.false_negatives(&truth);
        assert_eq!(
            fn_count, 0,
            "raw filter produced false negatives — correctness bug"
        );
        let accepted = accepts.count();
        let matching = truth.count();
        let false_positives = accepted - matching; // FN == 0
        let fpr = if negatives == 0 {
            0.0
        } else {
            false_positives as f64 / negatives as f64
        };
        DesignPoint {
            num_attributes: options.iter().filter(|o| o.is_some()).count(),
            luts: additive_cost(&costs, any_structural),
            options,
            number: opts.number,
            fpr,
        }
    });
    points
}

/// Extracts the Pareto-optimal points (minimal FPR for their LUT budget),
/// sorted by ascending LUT cost.
pub fn pareto(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut sorted: Vec<&DesignPoint> = points.iter().collect();
    sorted.sort_by(|a, b| {
        a.luts
            .cmp(&b.luts)
            .then(a.fpr.partial_cmp(&b.fpr).expect("fpr is finite"))
    });
    let mut front: Vec<DesignPoint> = Vec::new();
    let mut best_fpr = f64::INFINITY;
    for p in sorted {
        if p.fpr < best_fpr {
            best_fpr = p.fpr;
            front.push(p.clone());
        }
    }
    front
}

/// Summarises a design point into a [`Measurement`]-style record count
/// (convenience for reports).
pub fn point_measurement(point: &DesignPoint, query: &Query, dataset: &Dataset) -> Measurement {
    crate::eval::measure(&point.expr(query), dataset, query)
}

/// Simple scoped-thread parallel map preserving input order.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest: &mut [Option<R>] = &mut results;
        let mut offset = 0;
        let mut handles = Vec::new();
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            let items_slice = &items[offset..offset + take];
            handles.push(scope.spawn(move || {
                for (slot, item) in head.iter_mut().zip(items_slice) {
                    *slot = Some(f(item));
                }
            }));
            rest = tail;
            offset += take;
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all slots filled by workers"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfjson_riotbench::smartcity;

    fn small_opts() -> ExploreOptions {
        ExploreOptions {
            techniques: vec![StringTechnique::Substring(1)],
            number: NumberTechnique::Token,
            include_string_only: false,
            include_plain_pairs: false,
            max_records: 200,
            threads: 2,
        }
    }

    #[test]
    fn explore_small_space() {
        // 5 attributes × {None, v, {s1&v}} = 3^5 − 1 = 242 configs.
        let ds = smartcity::generate(21, 200);
        let q = Query::qs1();
        let points = explore(&q, &ds, &small_opts());
        assert_eq!(points.len(), 242);
        // All FPRs in [0,1], LUTs positive, attribute counts in 1..=5.
        for p in &points {
            assert!((0.0..=1.0).contains(&p.fpr), "{p}");
            assert!(p.luts > 0);
            assert!((1..=5).contains(&p.num_attributes));
        }
    }

    #[test]
    fn pareto_front_is_nondominated_and_sorted() {
        let ds = smartcity::generate(22, 200);
        let q = Query::qs1();
        let points = explore(&q, &ds, &small_opts());
        let front = pareto(&points);
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(w[0].luts <= w[1].luts);
            assert!(w[0].fpr > w[1].fpr, "strictly improving FPR");
        }
        // No point in the cloud dominates a front point.
        for fp in &front {
            assert!(!points.iter().any(|p| p.luts <= fp.luts && p.fpr < fp.fpr));
        }
    }

    #[test]
    fn structural_filtering_improves_fpr_for_more_luts() {
        // The QS1 story: the full structural config has (near-)zero FPR;
        // the cheapest config has high FPR.
        let ds = smartcity::generate(23, 300);
        let q = Query::qs1();
        let points = explore(&q, &ds, &small_opts());
        let front = pareto(&points);
        let cheapest = front.first().unwrap();
        let best = front.last().unwrap();
        assert!(best.fpr <= cheapest.fpr);
        assert!(best.luts > cheapest.luts);
        assert!(best.fpr < 0.05, "full filter FPR {}", best.fpr);
    }

    #[test]
    fn anchoring_only_removes_false_positives() {
        // Per configuration, in the same enumeration order: the anchored
        // value filters accept a subset of what the paper's accept, for
        // a few more LUTs.
        let ds = smartcity::generate(25, 200);
        let q = Query::qs1();
        let token = explore(&q, &ds, &small_opts());
        let anchored_opts = ExploreOptions {
            number: NumberTechnique::Anchored,
            ..small_opts()
        };
        let anchored = explore(&q, &ds, &anchored_opts);
        assert_eq!(token.len(), anchored.len());
        for (t, a) in token.iter().zip(&anchored) {
            assert_eq!(t.options, a.options);
            assert!(a.fpr <= t.fpr, "{t} vs {a}");
            assert!(a.luts >= t.luts, "{t} vs {a}");
        }
        let text = anchored[0].notation(&q);
        assert!(text.contains("va("), "{text}");
    }

    #[test]
    fn notation_renders() {
        let ds = smartcity::generate(24, 100);
        let q = Query::qs1();
        let points = explore(&q, &ds, &small_opts());
        let front = pareto(&points);
        let text = front.last().unwrap().notation(&q);
        assert!(text.contains("v("), "{text}");
    }

    #[test]
    fn parallel_map_order_preserved() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 7, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let single = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(single[99], 100);
    }
}
