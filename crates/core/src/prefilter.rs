//! Record-level literal prefilter for the block-scan fast path.
//!
//! Before the engine scans a whole record byte-by-byte, a much cheaper
//! **necessary-condition** check can prove many records `NoMatch` outright:
//! if the filter's root can only latch when some string unit fires, and
//! that unit provably cannot fire anywhere in the record, the record's
//! decision is `false` without running the flat program at all.
//!
//! Soundness is the whole game here — a raw filter must never produce a
//! false negative beyond what the compiled expression itself produces, so
//! every test in this module is a *necessary* condition for acceptance:
//!
//! * **Required units.** A string unit is *required* iff every path from
//!   the root to a latch of the root passes through it: `And` and `Ctx`
//!   nodes require **all** children (a context can only latch when every
//!   child has fired), so their children are collected; `Or` nodes require
//!   none of theirs (any child suffices), so descent stops. If a required
//!   unit never fires during a record, the root latch provably stays low.
//! * **Exact units** (DFA and window matchers) fire only when the stream
//!   ends with the needle, so the needle occurring in the record is a
//!   necessary condition — checked with the SWAR [`swar::contains`] scan.
//! * **Substring units** (technique iii) are approximate: they fire on a
//!   run of matching blocks, which a *different* literal can also produce
//!   (`s1("tolls_amount")` fires inside `"total_amount"`). Containment of
//!   the needle is therefore **not** necessary. What *is* necessary is
//!   that the unit's own state machine, run structure-free over the
//!   record, fires somewhere — the engine's unit sees exactly the same
//!   bytes from the same reset state, so "free run never fires" implies
//!   "engine unit never fires". The free run is decided without stepping
//!   the unit over the record — see the next section.
//! * **Separator bytes.** The engine additionally sees the record
//!   separator `\n` after the content. A needle containing `\n` could
//!   first fire on that byte, so such units are excluded from the
//!   prefilter entirely. (`\n`-free needles cannot fire on the separator:
//!   for exact units the suffix can't match, and for substring units the
//!   separator is a non-member byte that resets the run counter.)
//!
//! # Deciding the free run from every N-th byte
//!
//! A unit `sB(needle)` with `N = needle.len()` fires after `N − B + 1`
//! consecutive windows that each equal a B-byte block of the needle. Those
//! windows span exactly N stream bytes and every one of the N lies inside
//! some block, so the unit can fire only on the last of **N consecutive
//! needle bytes** (bytes that occur somewhere in the needle). Any N
//! consecutive positions contain exactly one position ≡ N−1 (mod N), so a
//! record in which `record[N−1]`, `record[2N−1]`, … are all non-needle
//! bytes holds no such run, and the unit cannot fire: the check has read
//! one byte in N.
//!
//! Where a probe does hit a needle byte, the check widens it to the
//! maximal run of needle bytes around it, never reading behind a byte
//! already known to be a non-needle byte, and resumes probing N bytes past
//! the run's end; every byte is read at most once by a widening and once
//! by a probe, so a record costs O(len) at worst and ~len/N at best. Runs
//! shorter than N are skipped. For a longer one:
//!
//! * **B = 1** — a block is a single needle byte, so a run of N needle
//!   bytes *is* the firing condition. Nothing is left to verify.
//! * **B ≥ 2** — the unit's own state machine is stepped over just that
//!   run, from the reset state, as a lane of a [`BlockAutomaton`] pooled
//!   over the prefilter's units. That equals the free run over the whole
//!   record: the byte on either side of the run is no needle byte, which
//!   zeroes the run counter and completes no block (a block holds needle
//!   bytes only, and needles are NUL-free, so the zero-initialised window
//!   of the reset state behaves like one more non-needle byte).
//!
//! The verdict is bit for bit the one [`SubstringMatcher`] stepped over
//! the whole record returns (`tests/prefilter_equiv.rs`). The one
//! exception is conservative: a pool of B ≥ 2 units whose automaton would
//! exceed [`MAX_TABLE_WORDS`](crate::blockhit::MAX_TABLE_WORDS) is not
//! verified, and such a unit passes on any run of N needle bytes.

use crate::blockhit::{BlockAutomaton, LANES};
use crate::expr::{Expr, StringSpec, StringTechnique};
use crate::primitive::SubstringMatcher;
use rfjson_jsonstream::swar;

/// One required substring unit, reduced to what the probe loop reads.
#[derive(Debug, Clone)]
struct RunCheck {
    /// `member[b]`: byte `b` occurs in the needle.
    member: [bool; 256],
    /// Needle length N: the probe stride and the shortest run that can
    /// fire the unit.
    len: usize,
    /// The unit's lane in the pooled automaton: B ≥ 2 only.
    lane: Option<Lane>,
}

/// Where a B ≥ 2 unit reads its block hits, and how many in a row fire it.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Hit-mask word of the lane.
    bank: usize,
    /// Bit of the lane's hit byte in that word.
    shift: u32,
    /// Run target `N − B + 1`.
    target: u32,
}

impl RunCheck {
    /// Whether the unit, run structure-free from its reset state, fires
    /// somewhere in `record`. Adds the bytes it looked at to `probed`.
    #[inline]
    fn may_fire(
        &self,
        automaton: Option<&BlockAutomaton>,
        record: &[u8],
        probed: &mut u64,
    ) -> bool {
        let member = |b: &&u8| self.member[**b as usize];
        let n = self.len;
        // Nothing before `floor` can belong to a run that is still open:
        // the byte just below it is a known non-needle byte.
        let mut floor = 0;
        let mut p = n - 1;
        while p < record.len() {
            if !self.member[record[p] as usize] {
                *probed += 1;
                floor = p + 1;
                p += n;
                continue;
            }
            let left = record[floor..p].iter().rev().take_while(member).count();
            let right = record[p + 1..].iter().take_while(member).count();
            let (start, end) = (p - left, p + 1 + right);
            // The run's bytes plus the non-needle byte that stopped each
            // widening (none at `floor` or at the record's end).
            *probed +=
                (end - start) as u64 + u64::from(start > floor) + u64::from(end < record.len());
            if end - start >= n && self.fires_in_run(automaton, &record[start..end]) {
                return true;
            }
            floor = end + 1;
            p = end + n;
        }
        false
    }

    /// Whether the unit fires inside `run`, a maximal run of at least N
    /// needle bytes. B = 1 units (and unverified ones) do by definition.
    #[inline]
    fn fires_in_run(&self, automaton: Option<&BlockAutomaton>, run: &[u8]) -> bool {
        let (Some(a), Some(lane)) = (automaton, self.lane) else {
            return true;
        };
        let (mut row, mut count) = (0u16, 0u32);
        run.iter().any(|&b| {
            let hit = a.step(&mut row, b)[lane.bank] >> lane.shift & 1 != 0;
            count = if hit { count + 1 } else { 0 };
            count >= lane.target
        })
    }
}

/// Compiled necessary-condition checks for one expression. Built at
/// engine-compile time; [`Prefilter::rejects`] runs per record and holds
/// no per-record state.
///
/// # Example
///
/// ```
/// use rfjson_core::prefilter::Prefilter;
/// use rfjson_core::Expr;
///
/// // s1("tolls_amount") also fires inside "total_amount" (same letters),
/// // so only a record without any such run is provably NoMatch.
/// let expr = Expr::substring(b"tolls_amount", 1)?;
/// let prefilter = Prefilter::build(&expr).expect("one required unit");
/// assert!(prefilter.rejects(br#"{"fare":11.5}"#));
/// assert!(!prefilter.rejects(br#"{"total_amount":17.3}"#));
/// # Ok::<(), rfjson_core::expr::ExprError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Prefilter {
    /// Needles of exact (DFA / window) required units: containment in the
    /// record is necessary for the unit to fire.
    exacts: Vec<Vec<u8>>,
    /// Required substring units, longest needle (sparsest probes) first.
    subs: Vec<RunCheck>,
    /// The B ≥ 2 units of `subs` as lanes of one automaton. Boxed: its
    /// inline class map would otherwise sit in every `Engine`.
    automaton: Option<Box<BlockAutomaton>>,
}

impl Prefilter {
    /// Extracts the required-unit checks from an expression. Returns
    /// `None` when no usable check exists (e.g. the root is an `Or`, the
    /// filter is purely numeric, or every needle contains `\n`).
    ///
    /// A required unit that yields no check — a needle containing `\n`, a
    /// substring spec [`SubstringMatcher::new`] refuses — is left out,
    /// which can only make the prefilter reject less. Units with the same
    /// check (same needle, and for substring units the same B) count once.
    pub fn build(expr: &Expr) -> Option<Prefilter> {
        let mut exacts: Vec<Vec<u8>> = Vec::new();
        let mut units: Vec<SubstringMatcher> = Vec::new();
        for spec in required_specs(expr) {
            match spec.technique {
                StringTechnique::Dfa | StringTechnique::Window => {
                    if !exacts.contains(&spec.needle) {
                        exacts.push(spec.needle.clone());
                    }
                }
                StringTechnique::Substring(b) => {
                    let seen =
                        |u: &SubstringMatcher| u.needle() == spec.needle && u.block_length() == b;
                    if !units.iter().any(seen) {
                        if let Ok(unit) = SubstringMatcher::new(&spec.needle, b) {
                            units.push(unit);
                        }
                    }
                }
            }
        }
        if exacts.is_empty() && units.is_empty() {
            return None;
        }
        units.sort_by_key(|u| std::cmp::Reverse(u.needle().len()));
        // The B ≥ 2 units become the automaton's lanes, in this order.
        let mut wide: Vec<&SubstringMatcher> = Vec::new();
        let mut subs = Vec::with_capacity(units.len());
        for u in &units {
            let mut member = [false; 256];
            for &x in u.needle() {
                member[x as usize] = true;
            }
            let lane = (u.block_length() > 1).then(|| {
                let i = wide.len();
                wide.push(u);
                Lane {
                    bank: i / LANES,
                    shift: (8 * (i % LANES)) as u32,
                    target: u.target(),
                }
            });
            subs.push(RunCheck {
                member,
                len: u.needle().len(),
                lane,
            });
        }
        let automaton = if wide.is_empty() {
            None
        } else {
            BlockAutomaton::build(wide).map(Box::new)
        };
        Some(Prefilter {
            exacts,
            subs,
            automaton,
        })
    }

    /// Number of distinct required-unit checks a record goes through at
    /// most.
    #[must_use]
    pub fn required_units(&self) -> usize {
        self.exacts.len() + self.subs.len()
    }

    /// `true` iff the record provably cannot be accepted: some required
    /// unit cannot fire anywhere in it. Cheap checks (SWAR containment)
    /// run first so unselective streams bail out early.
    #[inline]
    #[must_use]
    pub fn rejects(&self, record: &[u8]) -> bool {
        self.rejects_counting(record).0
    }

    /// [`rejects`](Prefilter::rejects) plus the number of record bytes the
    /// checks looked at to decide, each byte counted once per unit: the
    /// probes and run widenings of the substring units (verifying a
    /// B ≥ 2 unit re-steps bytes its widening already counted), and the
    /// whole record for every containment scan of an exact unit. At most
    /// `required_units() × record.len()`.
    ///
    /// Kept out of line: the engine's gated stream path calls it once
    /// per record, and inlined there it measurably slows the word kernel
    /// it sits in front of.
    #[inline(never)]
    #[must_use]
    pub fn rejects_counting(&self, record: &[u8]) -> (bool, u64) {
        let mut probed = 0u64;
        for needle in &self.exacts {
            probed += record.len() as u64;
            if !swar::contains(record, needle) {
                return (true, probed);
            }
        }
        let automaton = self.automaton.as_deref();
        for unit in &self.subs {
            if !unit.may_fire(automaton, record, &mut probed) {
                return (true, probed);
            }
        }
        (false, probed)
    }
}

/// The required string units a check can be built from: those whose
/// needle has no `\n`, which could first fire on the record separator.
fn required_specs(expr: &Expr) -> Vec<&StringSpec> {
    let mut specs = Vec::new();
    collect_required(expr, &mut specs);
    specs.retain(|spec| !spec.needle.contains(&b'\n'));
    specs
}

/// The needles of the units [`Prefilter::build`] checks for a validated
/// expression; empty exactly when it builds no prefilter.
pub(crate) fn required_needles(expr: &Expr) -> Vec<&[u8]> {
    let specs = required_specs(expr).into_iter();
    specs.map(|spec| &spec.needle[..]).collect()
}

/// Collects the string units every accepting record must fire: descend
/// through `And`/`Ctx` (all children required), stop at `Or` (none
/// individually required) and at numeric leaves.
fn collect_required<'e>(expr: &'e Expr, out: &mut Vec<&'e StringSpec>) {
    match expr {
        Expr::Str(spec) => out.push(spec),
        Expr::Num(..) | Expr::Or(_) => {}
        Expr::And(cs) | Expr::Ctx(cs, _) => {
            for c in cs {
                collect_required(c, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::StructScope;

    #[test]
    fn or_roots_and_numeric_filters_have_no_prefilter() {
        assert!(Prefilter::build(&Expr::int_range(1, 5)).is_none());
        let either = Expr::or([
            Expr::substring(b"alpha", 1).unwrap(),
            Expr::substring(b"beta", 1).unwrap(),
        ]);
        assert!(Prefilter::build(&either).is_none());
    }

    #[test]
    fn required_units_cross_and_and_ctx() {
        let expr = Expr::and([
            Expr::dfa_string(b"temperature").unwrap(),
            Expr::context_scoped(
                StructScope::Object,
                [
                    Expr::substring(b"humidity", 2).unwrap(),
                    Expr::int_range(0, 100),
                ],
            ),
        ]);
        let pf = Prefilter::build(&expr).expect("two required string units");
        assert!(!pf.rejects(br#"{"temperature":1,"humidity":40}"#));
        assert!(pf.rejects(br#"{"temperature":1,"pressure":40}"#));
        assert!(pf.rejects(br#"{"humidity":40}"#));
    }

    #[test]
    fn approximate_substring_fires_block_rejection_only_when_sound() {
        // s1("tolls_amount") also fires inside "total_amount" (same letter
        // set); the prefilter must keep such records.
        let expr = Expr::substring(b"tolls_amount", 1).unwrap();
        let pf = Prefilter::build(&expr).expect("one required unit");
        assert!(!pf.rejects(br#"{"total_amounts":0}"#));
        assert!(pf.rejects(br#"{"fare":11.5}"#));
    }

    #[test]
    fn newline_needles_are_excluded() {
        let spec = Expr::Str(crate::expr::StringSpec {
            needle: b"a\nb".to_vec(),
            technique: StringTechnique::Dfa,
        });
        assert!(Prefilter::build(&spec).is_none());
    }

    #[test]
    fn same_literal_under_two_contexts_is_checked_once() {
        let member = |lo, hi| {
            Expr::context([
                Expr::substring(b"humidity", 1).unwrap(),
                Expr::int_range(lo, hi),
            ])
        };
        let expr = Expr::and([
            member(0, 40),
            member(20, 100),
            Expr::dfa_string(b"light").unwrap(),
            Expr::window(b"light").unwrap(),
            Expr::substring(b"humidity", 2).unwrap(),
        ]);
        let pf = Prefilter::build(&expr).expect("required units");
        // s1("humidity"), s2("humidity") and one containment of "light".
        assert_eq!(pf.required_units(), 3);
        let record = br#"{"humidity":30,"light":7}"#;
        assert!(!pf.rejects(record));
        assert!(pf.rejects(br#"{"humidity":30}"#));
    }

    #[test]
    fn units_without_a_check_are_left_out_conservatively() {
        let unusable = |needle: &[u8], technique| {
            Expr::Str(StringSpec {
                needle: needle.to_vec(),
                technique,
            })
        };
        let expr = Expr::and([
            Expr::substring(b"dust", 1).unwrap(),
            unusable(b"ab", StringTechnique::Substring(5)), // B > N
            unusable(b"c\0d", StringTechnique::Substring(1)), // NUL in needle
            unusable(b"e\nf", StringTechnique::Substring(1)),
            unusable(b"g\nh", StringTechnique::Window),
        ]);
        let pf = Prefilter::build(&expr).expect("s1(\"dust\") remains");
        assert_eq!(pf.required_units(), 1);
        // None of the dropped needles occurs, yet the record is kept.
        assert!(!pf.rejects(br#"{"dust":305.01}"#));
        assert!(pf.rejects(br#"{"light":713}"#));
    }

    #[test]
    fn probes_read_a_fraction_of_a_record_without_needle_bytes() {
        let pf = Prefilter::build(&Expr::substring(b"wind_speed", 1).unwrap()).unwrap();
        let record = [b'0'; 1000];
        assert_eq!(pf.rejects_counting(&record), (true, 100));
        // A run one byte short of N, straddling a probe: read once, plus
        // the byte on either side, plus the probes around it.
        let mut record = [b'0'; 100];
        record[15..24].copy_from_slice(b"wind_spee");
        assert_eq!(pf.rejects_counting(&record), (true, 1 + 11 + 7));
        record[24] = b'd';
        assert_eq!(pf.rejects_counting(&record), (false, 1 + 12));
    }

    #[test]
    fn oversized_block_pool_passes_on_the_run_alone() {
        let needle: Vec<u8> = (0..600u32).map(|i| b'a' + (i * i % 23) as u8).collect();
        let pf = Prefilter::build(&Expr::substring(&needle, 300).unwrap()).unwrap();
        assert!(pf.automaton.is_none());
        assert!(!pf.rejects(&needle));
        assert!(!pf.rejects(&[b'a'; 600]), "unverified: conservative accept");
        assert!(pf.rejects(&[b'a'; 599]));
        assert!(pf.rejects(&needle[1..]));
    }
}
