//! Elaboration of composed raw filters into `rfjson-rtl` netlists.
//!
//! This is the "synthesis" step of the paper: every [`Expr`] becomes the
//! streaming circuit that would run on the FPGA — shared string-mask and
//! nesting-level logic (§III-C), per-primitive fire logic (§III-A/B),
//! per-node match latches and context flag registers, all clocked one byte
//! per cycle. The co-simulation tests hold these netlists bit-for-bit
//! equal to the software evaluator; `rfjson-techmap` turns them into the
//! LUT numbers of the evaluation tables.

use crate::expr::{Expr, NumberTechnique, StringSpec, StringTechnique, StructScope};
use crate::primitive::{is_anchor_byte, SubstringMatcher};
use rfjson_redfa::elaborate::elaborate_dfa;
use rfjson_redfa::range::is_number_byte;
use rfjson_redfa::{Dfa, NumberBounds, Regex};
use rfjson_rtl::components::{
    and_reduce, bits_for, byte_in_set, byte_shift_buffer, dec_word_saturate, eq_const, eq_word,
    ge_const, inc_word, le_word, mux_word, or_reduce, ByteSet,
};
use rfjson_rtl::netlist::{Netlist, NodeId};

/// Width of the nesting-depth counter. 31 levels is far beyond any record
/// in the evaluated workloads; deeper records would saturate (documented
/// deviation from the unbounded software counter).
pub const DEPTH_BITS: usize = 5;

/// The shared per-byte stream signals every filter node consumes
/// (the hardware form of [`rfjson_jsonstream::ByteInfo`]).
#[derive(Debug, Clone)]
pub struct StreamSignals {
    /// Input byte word (8 bits).
    pub byte: Vec<NodeId>,
    /// Depth the current byte belongs to (DEPTH_BITS wide).
    pub depth: Vec<NodeId>,
    /// Unmasked `}` / `]`.
    pub is_close: NodeId,
    /// Unmasked `,`.
    pub is_comma: NodeId,
    /// Record separator (`\n`) — the global synchronous reset.
    pub record_reset: NodeId,
}

/// Builds the shared structure block (string mask + depth counter +
/// record-boundary detection) on top of a byte input word.
pub fn build_stream_logic(n: &mut Netlist, byte: &[NodeId]) -> StreamSignals {
    debug_assert_eq!(byte.len(), 8);
    let is_quote = eq_const(n, byte, u64::from(b'"'));
    let is_backslash = eq_const(n, byte, u64::from(b'\\'));
    let record_reset = eq_const(n, byte, u64::from(b'\n'));

    // String mask: two state bits (§III-C).
    let in_string = n.dff_placeholder(false);
    let escaped = n.dff_placeholder(false);
    let not_escaped = n.not(escaped);
    let live_quote = n.and_gate(not_escaped, is_quote); // unescaped quote
    let live_backslash = n.and_gate(not_escaped, is_backslash);
    // escaped' = in_string & !escaped & '\'
    let esc_set = n.and_gate(in_string, live_backslash);
    let esc_next = gated_reset(n, esc_set, record_reset);
    n.connect_dff(escaped, esc_next);
    // in_string' = in_string ? !(unescaped quote) : (byte == '"')
    let leave = n.and_gate(in_string, live_quote);
    let not_leave = n.not(leave);
    let stay = n.and_gate(in_string, not_leave);
    let not_in = n.not(in_string);
    let enter = n.and_gate(not_in, is_quote);
    let in_next_raw = n.or_gate(stay, enter);
    let in_next = gated_reset(n, in_next_raw, record_reset);
    n.connect_dff(in_string, in_next);
    let masked = n.or_gate(in_string, is_quote);
    let unmasked = n.not(masked);

    // Bracket / comma classification.
    let open_set = ByteSet::from_bytes(b"{[");
    let close_set = ByteSet::from_bytes(b"}]");
    let open_raw = byte_in_set(n, byte, &open_set);
    let close_raw = byte_in_set(n, byte, &close_set);
    let comma_raw = eq_const(n, byte, u64::from(b','));
    let is_open = n.and_gate(open_raw, unmasked);
    let is_close = n.and_gate(close_raw, unmasked);
    let is_comma = n.and_gate(comma_raw, unmasked);

    // Depth counter; the reported depth includes the effect of an opening
    // bracket and still includes a closing bracket's level.
    let depth_reg: Vec<NodeId> = (0..DEPTH_BITS).map(|_| n.dff_placeholder(false)).collect();
    let inc = inc_word(n, &depth_reg);
    let dec = dec_word_saturate(n, &depth_reg);
    let byte_depth = mux_word(n, is_open, &inc, &depth_reg);
    let after_close = mux_word(n, is_close, &dec, &byte_depth);
    for (i, &ff) in depth_reg.iter().enumerate() {
        let held = after_close[i];
        let next = gated_reset(n, held, record_reset);
        n.connect_dff(ff, next);
    }

    StreamSignals {
        byte: byte.to_vec(),
        depth: byte_depth,
        is_close,
        is_comma,
        record_reset,
    }
}

/// Produces stream signals as primary inputs instead of logic — used by
/// the additive cost model so per-attribute options can be costed without
/// re-counting the shared structure block.
pub fn stream_signals_as_inputs(n: &mut Netlist) -> StreamSignals {
    let byte = n.input_word("byte", 8);
    let depth = n.input_word("depth", DEPTH_BITS);
    StreamSignals {
        byte,
        depth,
        is_close: n.input("is_close"),
        is_comma: n.input("is_comma"),
        record_reset: n.input("record_reset"),
    }
}

/// `reset ? 0 : v`
fn gated_reset(n: &mut Netlist, v: NodeId, reset: NodeId) -> NodeId {
    let nr = n.not(reset);
    n.and_gate(v, nr)
}

/// A deferred match-latch: the flip-flop exists, the latched (`ff | set`)
/// signal exists, but the clear condition is accumulated while unwinding
/// the expression tree (each enclosing context ORs in its instance-end).
#[derive(Debug, Clone)]
struct LatchReq {
    ff: NodeId,
    latched: NodeId,
    clear: NodeId,
}

/// Elaboration result of one expression node.
struct NodeOut {
    /// Satisfaction including this cycle's events (`ff | set` shape).
    latched: NodeId,
    /// Satisfaction from registers only (previous cycles) — the
    /// `pending_before` view a context needs.
    before: NodeId,
    /// Latches awaiting their clear wiring.
    pending: Vec<LatchReq>,
}

/// Elaborates `expr` against `sig`, returning the record-accept signal
/// (latched, cleared at record boundaries).
pub fn elaborate_filter_with(n: &mut Netlist, expr: &Expr, sig: &StreamSignals) -> NodeId {
    let out = build_node(n, expr, sig);
    for req in out.pending {
        let clear = n.or_gate(req.clear, sig.record_reset);
        let next = gated_reset(n, req.latched, clear);
        n.connect_dff(req.ff, next);
    }
    out.latched
}

/// Standalone elaboration: a netlist with input `byte[0..8]` and output
/// `match` (the record-accept signal; sample it at each `\n` cycle).
///
/// # Example
///
/// ```
/// use rfjson_core::{elaborate::elaborate_filter, Expr};
/// use rfjson_techmap::map_netlist;
///
/// let expr = Expr::substring(b"dust", 1)?;
/// let netlist = elaborate_filter(&expr, "s1_dust");
/// let report = map_netlist(&netlist, 6);
/// assert!(report.luts > 0 && report.luts < 60);
/// # Ok::<(), rfjson_core::expr::ExprError>(())
/// ```
pub fn elaborate_filter(expr: &Expr, name: &str) -> Netlist {
    let mut n = Netlist::new(name);
    let byte = n.input_word("byte", 8);
    let sig = build_stream_logic(&mut n, &byte);
    let accept = elaborate_filter_with(&mut n, expr, &sig);
    n.output("match", accept);
    assert_netlist_sane(&n, expr);
    n
}

/// Static self-verification of a freshly elaborated netlist: no dangling
/// flip-flop data inputs, no combinational cycles. The full diagnostic
/// pass (multi-driver ports, dead nets, fanout statistics) lives in
/// `rfjson-verify`; this debug-only gate catches elaboration bugs at the
/// point of creation.
fn assert_netlist_sane(n: &Netlist, expr: &Expr) {
    let _ = (n, expr);
    #[cfg(debug_assertions)]
    {
        debug_assert!(
            n.check_connected().is_ok(),
            "elaboration of `{expr}` left an unconnected flip-flop"
        );
        debug_assert!(
            n.comb_topo_order().is_ok(),
            "elaboration of `{expr}` created a combinational cycle"
        );
    }
}

/// Elaborates only the option-specific logic, taking structure signals as
/// inputs (for the additive cost model).
pub fn elaborate_option(expr: &Expr, name: &str) -> Netlist {
    let mut n = Netlist::new(name);
    let sig = stream_signals_as_inputs(&mut n);
    let accept = elaborate_filter_with(&mut n, expr, &sig);
    n.output("match", accept);
    assert_netlist_sane(&n, expr);
    n
}

fn build_node(n: &mut Netlist, expr: &Expr, sig: &StreamSignals) -> NodeOut {
    match expr {
        Expr::Str(spec) => {
            let fire = build_string_fire(n, spec, sig);
            latch_prim(n, fire)
        }
        Expr::Num(bounds, technique) => {
            let fire = build_number_fire(n, bounds, *technique, sig);
            latch_prim(n, fire)
        }
        Expr::And(children) => {
            let outs: Vec<NodeOut> = children.iter().map(|c| build_node(n, c, sig)).collect();
            combine(n, outs, and_reduce)
        }
        Expr::Or(children) => {
            let outs: Vec<NodeOut> = children.iter().map(|c| build_node(n, c, sig)).collect();
            combine(n, outs, or_reduce)
        }
        Expr::Ctx(children, scope) => build_ctx(n, children, *scope, sig),
    }
}

fn latch_prim(n: &mut Netlist, fire: NodeId) -> NodeOut {
    let ff = n.dff_placeholder(false);
    let latched = n.or_gate(ff, fire);
    NodeOut {
        latched,
        before: ff,
        pending: vec![LatchReq {
            ff,
            latched,
            clear: n.constant(false),
        }],
    }
}

fn combine(
    n: &mut Netlist,
    outs: Vec<NodeOut>,
    reduce: fn(&mut Netlist, &[NodeId]) -> NodeId,
) -> NodeOut {
    let latched_sigs: Vec<NodeId> = outs.iter().map(|o| o.latched).collect();
    let before_sigs: Vec<NodeId> = outs.iter().map(|o| o.before).collect();
    let latched = reduce(n, &latched_sigs);
    let before = reduce(n, &before_sigs);
    let pending = outs.into_iter().flat_map(|o| o.pending).collect();
    NodeOut {
        latched,
        before,
        pending,
    }
}

fn build_ctx(
    n: &mut Netlist,
    children: &[Expr],
    scope: StructScope,
    sig: &StreamSignals,
) -> NodeOut {
    let outs: Vec<NodeOut> = children.iter().map(|c| build_node(n, c, sig)).collect();
    let latched_sigs: Vec<NodeId> = outs.iter().map(|o| o.latched).collect();
    let before_sigs: Vec<NodeId> = outs.iter().map(|o| o.before).collect();
    let any_latched = or_reduce(n, &latched_sigs);
    let all_latched = and_reduce(n, &latched_sigs);
    let pending_before = or_reduce(n, &before_sigs);

    // Instance level register: loaded at the first fire of a fresh
    // instance.
    let fl_reg: Vec<NodeId> = (0..DEPTH_BITS).map(|_| n.dff_placeholder(false)).collect();
    let not_pending = n.not(pending_before);
    let load = n.and_gate(not_pending, any_latched);
    let fl_eff = mux_word(n, load, &sig.depth, &fl_reg);
    for (i, &ff) in fl_reg.iter().enumerate() {
        let next = gated_reset(n, fl_eff[i], sig.record_reset);
        n.connect_dff(ff, next);
    }

    // Instance end: closing bracket at (or below) the instance level, or —
    // member scope — an unmasked comma exactly on the instance level.
    let depth_le = le_word(n, &sig.depth, &fl_eff);
    let close_end = n.and_gate(sig.is_close, depth_le);
    let end_raw = match scope {
        StructScope::Object => close_end,
        StructScope::Member => {
            let depth_eq = eq_word(n, &sig.depth, &fl_eff);
            let comma_end = n.and_gate(sig.is_comma, depth_eq);
            n.or_gate(close_end, comma_end)
        }
    };
    let end = n.and_gate(any_latched, end_raw);

    // Own fired latch (persists across instances, cleared by the parent
    // domain / record reset).
    let ff = n.dff_placeholder(false);
    let latched = n.or_gate(ff, all_latched);

    // Children latches additionally clear at this instance end.
    let mut pending: Vec<LatchReq> = Vec::new();
    for o in outs {
        for mut req in o.pending {
            req.clear = n.or_gate(req.clear, end);
            pending.push(req);
        }
    }
    pending.push(LatchReq {
        ff,
        latched,
        clear: n.constant(false),
    });

    NodeOut {
        latched,
        before: ff,
        pending,
    }
}

fn build_string_fire(n: &mut Netlist, spec: &StringSpec, sig: &StreamSignals) -> NodeId {
    match spec.technique {
        StringTechnique::Dfa => {
            let re = Regex::concat([
                Regex::Class(ByteSet::full()).star(),
                Regex::literal(&spec.needle),
            ]);
            let dfa = Dfa::from_regex(&re).minimized();
            let advance = n.constant(true);
            let ports = elaborate_dfa(n, &dfa, &sig.byte, advance, sig.record_reset);
            ports.accept_next
        }
        StringTechnique::Window => build_window_fire(n, &spec.needle, sig),
        StringTechnique::Substring(b) => build_substring_fire(n, spec, b, sig),
    }
}

/// The Fig. 1 architecture: B−1 byte registers + current byte, compared
/// against every distinct block, OR-reduced into a saturating counter.
fn build_substring_fire(
    n: &mut Netlist,
    spec: &StringSpec,
    b: usize,
    sig: &StreamSignals,
) -> NodeId {
    let matcher = SubstringMatcher::new(&spec.needle, b).expect("expression was validated before");
    let window_match = if b == 1 {
        // B = 1: the whole comparator bank is one byte-set membership —
        // the "entire logic combined in one LUT" effect of §III-A.
        let set = ByteSet::from_bytes(
            &matcher
                .blocks()
                .iter()
                .map(|blk| blk[0])
                .collect::<Vec<u8>>(),
        );
        byte_in_set(n, &sig.byte, &set)
    } else {
        let window = window_bytes(n, &sig.byte, b);
        let hits: Vec<NodeId> = matcher
            .blocks()
            .iter()
            .map(|blk| {
                // window[0] is the oldest byte: blk[0] matches window[0].
                let byte_eqs: Vec<NodeId> = blk
                    .iter()
                    .zip(&window)
                    .map(|(&c, w)| eq_const(n, w, u64::from(c)))
                    .collect();
                and_reduce(n, &byte_eqs)
            })
            .collect();
        or_reduce(n, &hits)
    };

    let target = matcher.target();
    if target == 1 {
        return window_match;
    }
    // Counter of consecutive matches (value before this byte).
    let width = bits_for(u64::from(target));
    let count: Vec<NodeId> = (0..width).map(|_| n.dff_placeholder(false)).collect();
    let incd = inc_word(n, &count);
    let at_max = and_reduce(n, &count);
    let inc_sat = mux_word(n, at_max, &count, &incd);
    let zeros = vec![n.constant(false); width];
    let advanced = mux_word(n, window_match, &inc_sat, &zeros);
    let miss_or_reset = {
        let no_match = n.not(window_match);
        n.or_gate(no_match, sig.record_reset)
    };
    for (i, &ff) in count.iter().enumerate() {
        let next = gated_reset(n, advanced[i], miss_or_reset);
        n.connect_dff(ff, next);
    }
    // fire = match this cycle && previous run length ≥ target − 1
    let long_run = ge_const(n, &count, u64::from(target) - 1);
    n.and_gate(window_match, long_run)
}

fn build_window_fire(n: &mut Netlist, needle: &[u8], sig: &StreamSignals) -> NodeId {
    let window = window_bytes(n, &sig.byte, needle.len());
    let eqs: Vec<NodeId> = needle
        .iter()
        .zip(&window)
        .map(|(&c, w)| eq_const(n, w, u64::from(c)))
        .collect();
    and_reduce(n, &eqs)
}

/// The last `len` bytes, oldest first (index 0 = len−1 cycles ago,
/// index len−1 = the current byte).
fn window_bytes(n: &mut Netlist, byte: &[NodeId], len: usize) -> Vec<Vec<NodeId>> {
    let mut window: Vec<Vec<NodeId>> = byte_shift_buffer(n, byte, len.saturating_sub(1));
    window.reverse(); // stage len-2 is oldest
    window.push(byte.to_vec());
    window
}

/// The number primitive of `technique` (see
/// [`primitive::NumberMatcher`](crate::primitive::NumberMatcher)): the
/// range automaton advanced on number bytes and reset at every other
/// byte, an in-token register, and — anchored — a register holding "the
/// byte before was an anchor byte" (set at reset), one holding "the open
/// token is anchored", and an anchor-set test of the end byte.
fn build_number_fire(
    n: &mut Netlist,
    bounds: &NumberBounds,
    technique: NumberTechnique,
    sig: &StreamSignals,
) -> NodeId {
    let dfa = bounds.to_dfa();
    let set_of = |pred: fn(u8) -> bool| {
        ByteSet::from_bytes(
            &(0u16..256)
                .map(|b| b as u8)
                .filter(|&b| pred(b))
                .collect::<Vec<u8>>(),
        )
    };
    let is_num = byte_in_set(n, &sig.byte, &set_of(is_number_byte));
    let boundary = n.not(is_num);
    let dfa_reset = n.or_gate(boundary, sig.record_reset);
    let ports = elaborate_dfa(n, &dfa, &sig.byte, is_num, dfa_reset);
    // in-token register
    let in_token = n.dff_placeholder(false);
    let in_next = gated_reset(n, is_num, sig.record_reset);
    n.connect_dff(in_token, in_next);
    // fire at the boundary byte if the token was accepted
    let was = n.and_gate(in_token, boundary);
    let fire = n.and_gate(was, ports.accept);
    if technique == NumberTechnique::Token {
        return fire;
    }
    // The separator is an anchor byte, so the reset value of "after an
    // anchor" is what it leaves behind anyway.
    let anchor = byte_in_set(n, &sig.byte, &set_of(is_anchor_byte));
    let after_anchor = n.dff_placeholder(true);
    n.connect_dff(after_anchor, anchor);
    // anchored' = number byte & (in token ? anchored : after anchor)
    let anchored = n.dff_placeholder(false);
    // (Not a number byte, the separator clears it.)
    let carried = n.mux(in_token, anchored, after_anchor);
    let anchored_next = n.and_gate(is_num, carried);
    n.connect_dff(anchored, anchored_next);
    let judged = n.and_gate(anchored, anchor);
    n.and_gate(fire, judged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FilterBackend;
    use crate::evaluator::CompiledFilter;
    use rfjson_rtl::{BitVec, Simulator};

    /// Drives a standalone filter netlist over a record (plus newline) and
    /// returns the accept signal observed at the newline cycle.
    fn hw_accepts(netlist: &Netlist, record: &[u8]) -> bool {
        let mut sim = Simulator::new(netlist).unwrap();
        let mut accept = false;
        for &b in record.iter().chain(b"\n") {
            sim.set_input_word("byte", &BitVec::from_u64(u64::from(b), 8))
                .unwrap();
            sim.settle();
            accept = sim.output("match").unwrap();
            sim.clock();
        }
        accept
    }

    fn assert_cosim(expr: &Expr, records: &[&[u8]]) {
        let netlist = elaborate_filter(expr, "dut");
        let mut sw = CompiledFilter::compile(expr);
        for &record in records {
            assert_eq!(
                hw_accepts(&netlist, record),
                sw.accepts_record(record),
                "expr `{expr}` record {:?}",
                String::from_utf8_lossy(record)
            );
        }
    }

    const LISTING1: &[u8] = br#"{"e":[{"v":"35.2","u":"far","n":"temperature"},{"v":"12","u":"per","n":"humidity"}],"bt":1422748800000}"#;

    #[test]
    fn cosim_substring() {
        let expr = Expr::substring(b"temperature", 1).unwrap();
        assert_cosim(
            &expr,
            &[
                LISTING1,
                br#"{"n":"humidity"}"#,
                br#"{"n":"temperatur"}"#,
                br#"{"x":"aretemperature"}"#,
            ],
        );
    }

    #[test]
    fn cosim_substring_b2_and_window() {
        for expr in [
            Expr::substring(b"tolls_amount", 2).unwrap(),
            Expr::window(b"tolls_amount").unwrap(),
        ] {
            assert_cosim(
                &expr,
                &[
                    br#"{"tolls_amount":5.33}"#,
                    br#"{"total_amount":5.33}"#,
                    br#"{"fare":1}"#,
                ],
            );
        }
    }

    #[test]
    fn cosim_dfa_string() {
        let expr = Expr::dfa_string(b"dust").unwrap();
        assert_cosim(
            &expr,
            &[
                br#"{"n":"dust"}"#,
                br#"{"n":"dusk"}"#,
                br#"{"n":"sawdust","v":1}"#,
            ],
        );
    }

    #[test]
    fn cosim_number_range() {
        let expr = Expr::int_range(12, 49);
        assert_cosim(
            &expr,
            &[
                br#"{"v":"20"}"#,
                br#"{"v":"350"}"#,
                br#"{"v":13}"#,
                br#"{"bt":1422748800000}"#,
                br#"{"v":"2.1e3"}"#,
            ],
        );
    }

    #[test]
    fn cosim_structural_context() {
        let expr = Expr::context([
            Expr::substring(b"temperature", 1).unwrap(),
            Expr::float_range("0.7", "35.1").unwrap(),
        ]);
        assert_cosim(
            &expr,
            &[
                LISTING1,
                br#"{"e":[{"v":"21.0","u":"far","n":"temperature"}],"bt":0}"#,
                br#"{"e":[{"v":"99","u":"far","n":"temperature"},{"v":"3","u":"x","n":"other"}],"bt":0}"#,
            ],
        );
    }

    #[test]
    fn cosim_member_scope() {
        let expr = Expr::context_scoped(
            StructScope::Member,
            [
                Expr::substring(b"tolls_amount", 2).unwrap(),
                Expr::float_range("2.50", "18.00").unwrap(),
            ],
        );
        assert_cosim(
            &expr,
            &[
                br#"{"fare_amount":11.50,"tolls_amount":0.00}"#,
                br#"{"fare_amount":11.50,"tolls_amount":5.33}"#,
                br#"{"tolls_amount":19.00,"tip_amount":3.00}"#,
            ],
        );
    }

    #[test]
    fn cosim_full_pareto_config() {
        // A Table V shape: two structural pairs AND a bare value filter.
        let expr = Expr::and([
            Expr::context([
                Expr::substring(b"humidity", 1).unwrap(),
                Expr::float_range("20.3", "69.1").unwrap(),
            ]),
            Expr::context([
                Expr::substring(b"temperature", 1).unwrap(),
                Expr::float_range("0.7", "35.1").unwrap(),
            ]),
            Expr::int_range(12, 49),
        ]);
        assert_cosim(
            &expr,
            &[
                LISTING1,
                br#"{"e":[{"v":"21.0","u":"far","n":"temperature"},{"v":"45.1","u":"per","n":"humidity"},{"v":"20","u":"per","n":"airquality_raw"}],"bt":1}"#,
            ],
        );
    }

    #[test]
    fn stream_logic_resets_at_newline() {
        // Two records back to back through one netlist instance.
        let expr = Expr::substring(b"ab", 1).unwrap();
        let netlist = elaborate_filter(&expr, "dut");
        let mut sim = Simulator::new(&netlist).unwrap();
        let mut accepts = Vec::new();
        for &b in b"{\"k\":\"a\"}\n{\"k\":\"b\"}\n" {
            sim.set_input_word("byte", &BitVec::from_u64(u64::from(b), 8))
                .unwrap();
            sim.settle();
            if b == b'\n' {
                accepts.push(sim.output("match").unwrap());
            }
            sim.clock();
        }
        // 'a' then 'b' span two records: with per-record reset neither
        // fires (needs 2 consecutive letters in ONE record).
        assert_eq!(accepts, vec![false, false]);
    }

    #[test]
    fn option_netlist_has_structure_inputs() {
        let expr = Expr::context([Expr::substring(b"x", 1).unwrap(), Expr::int_range(0, 5)]);
        let n = elaborate_option(&expr, "opt");
        assert!(n.find_input("depth[0]").is_some());
        assert!(n.find_input("is_close").is_some());
        // and the full version computes them internally:
        let full = elaborate_filter(&expr, "full");
        assert!(full.find_input("depth[0]").is_none());
    }
}
