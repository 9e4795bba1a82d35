package mil

import (
	"context"
	"strings"

	"cobra/internal/monet"
)

// Fused MIL chains. The paper's MIL idiom for "aggregate the rows of a
// stored stream in a range" is a chain of bulk operators, each
// materializing its result for the next:
//
//	bat("N").select(lo, hi).count
//	bat("N").select(lo, hi).mirror.join(bat("M")).avg
//
// Both are one fused select→aggregate over the store — the pipeline
// the fusedaggr() builtin runs — so the interpreter runs them as one:
// no selected BAT, no mirror, no join result. Results are the
// operator-at-a-time road's, byte for byte (Pipeline.Aggregate's
// promise; float sums and averages take its positions-plus-gather
// fallback).

// aggChain is one matched fused chain, op one of count, sum and avg.
type aggChain struct {
	agg    *MethodCall // the .count/.sum/.avg node
	sel    *MethodCall // the .select(lo, hi) node
	mirror *MethodCall // the .mirror node; nil without the join
	join   *MethodCall // the .join(bat("M")) node; nil without the join
	n, m   string      // the literal BAT names; m is "" without the join
}

// matchChain recognizes a fused chain rooted at ex. Only literal names
// match.
func matchChain(ex *MethodCall) (aggChain, bool) {
	ch := aggChain{agg: ex}
	switch strings.ToLower(ex.Name) {
	case "count", "sum", "avg":
	default:
		return ch, false
	}
	recv, ok := ex.Recv.(*MethodCall)
	if !ok || len(ex.Args) != 0 {
		return ch, false
	}
	if strings.EqualFold(recv.Name, "join") {
		ch.join = recv
		if len(recv.Args) != 1 {
			return ch, false
		}
		if ch.m, ok = batLit(recv.Args[0]); !ok {
			return ch, false
		}
		if ch.mirror, ok = recv.Recv.(*MethodCall); !ok || !strings.EqualFold(ch.mirror.Name, "mirror") || len(ch.mirror.Args) != 0 {
			return ch, false
		}
		if recv, ok = ch.mirror.Recv.(*MethodCall); !ok {
			return ch, false
		}
	}
	if !strings.EqualFold(recv.Name, "select") || len(recv.Args) != 2 {
		return ch, false
	}
	ch.sel = recv
	ch.n, ok = batLit(recv.Recv)
	return ch, ok
}

// batLit returns N when x is the call bat("N").
func batLit(x Expr) (string, bool) {
	c, ok := x.(*Call)
	if !ok || !strings.EqualFold(c.Name, "bat") || len(c.Args) != 1 {
		return "", false
	}
	lit, ok := c.Args[0].(*Lit)
	if !ok || lit.Val.Typ != monet.StrT {
		return "", false
	}
	return lit.Val.Str(), true
}

// evalChain evaluates a matched chain. bat("N") and the two bounds are
// evaluated once, in the plain road's order. The chain then runs fused
// when bat("N") returned the very BAT the store holds under N — which
// a PROC named bat never does — and, for the join, N and M are
// void-headed and aligned, so that the join pairs every selected
// position with M's row there. Otherwise — or when the pipeline fails
// — it runs operator-at-a-time over the same evaluated operands, so
// answers and errors are the plain road's.
func (in *Interp) evalChain(e *env, ch aggChain) (Value, error) {
	recv, err := in.eval(e, ch.sel.Recv)
	if err != nil {
		return Value{}, err
	}
	bounds := make([]Value, len(ch.sel.Args))
	for i, a := range ch.sel.Args {
		if bounds[i], err = in.eval(e, a); err != nil {
			return Value{}, err
		}
	}
	if agg, ok := in.fusable(ch, recv, bounds); ok {
		if v, err := in.fusedAggregate(e.context(), ch.n, bounds[0].Atom, bounds[1].Atom, agg, strings.ToLower(ch.agg.Name)); err == nil {
			return v, nil
		}
	}
	cur, err := in.applyMethod(e, ch.sel, recv, bounds)
	if err != nil {
		return Value{}, err
	}
	if ch.join != nil {
		if cur, err = in.applyMethod(e, ch.mirror, cur, nil); err != nil {
			return Value{}, err
		}
		other, err := in.eval(e, ch.join.Args[0])
		if err != nil {
			return Value{}, err
		}
		if cur, err = in.applyMethod(e, ch.join, cur, []Value{other}); err != nil {
			return Value{}, err
		}
	}
	return in.applyMethod(e, ch.agg, cur, nil)
}

// fusable reports whether a chain whose bat("N") evaluated to recv may
// run fused, and the name of the column it aggregates.
func (in *Interp) fusable(ch aggChain, recv Value, bounds []Value) (agg string, ok bool) {
	if in.store == nil || bounds[0].IsBAT() || bounds[1].IsBAT() {
		return "", false
	}
	nb, err := in.store.Get(ch.n)
	if err != nil || nb != recv.BAT {
		return "", false
	}
	if ch.join == nil {
		return ch.n, true
	}
	mb, err := in.store.Get(ch.m)
	if err != nil || nb.HeadType() != monet.Void || mb.HeadType() != monet.Void || mb.Len() != nb.Len() {
		return "", false
	}
	return ch.m, true
}

// fusedAggregate aggregates op over the stored column agg at the rows
// of pred whose tail lies in [lo, hi], through the fused pipeline: the
// one call behind fusedaggr() and the fused chains.
func (in *Interp) fusedAggregate(ctx context.Context, pred string, lo, hi monet.Value, agg, op string) (Value, error) {
	v, _, err := in.store.Pipeline(pred, lo, hi).Aggregate(ctx, agg, op)
	if err != nil {
		return Value{}, err
	}
	return AtomValue(v), nil
}
