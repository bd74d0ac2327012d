package main

import (
	"fmt"
	"math/big"
	"strings"

	"setupsched"
	"setupsched/internal/core"
)

// guarantee returns the certified approximation factor of an algorithm:
// 2 for the 2-approximation, 3/2 for the exact 3/2-approximation and
// (3/2)(1+eps) for the eps-search, where eps is the rational the search
// actually certifies (core.EpsRat of the default epsilon).
func guarantee(a setupsched.Algorithm) *big.Rat {
	switch a {
	case setupsched.TwoApprox:
		return big.NewRat(2, 1)
	case setupsched.EpsilonSearch:
		e := core.EpsRat(setupsched.DefaultEpsilon)
		g := new(big.Rat).Add(big.NewRat(1, 1), big.NewRat(e.Num(), e.Den()))
		return g.Mul(g, big.NewRat(3, 2))
	}
	return big.NewRat(3, 2)
}

// checked is what checkAnswer found out about one answer.
type checked struct {
	ratio    float64 // makespan / lower bound
	fallback bool    // the answer came from a search's fallback path
}

// checkAnswer verifies one solve answer in exact rationals: the makespan
// is at most guarantee * lower bound, and, when ref is non-empty, equal
// to the reference makespan.  Results of the searches' documented
// conservative fallback carry a conservative lower bound, so the
// guarantee does not apply to them; they are checked against the
// reference instead, and a fallback answer without a reference fails.
func checkAnswer(makespan, lower, ref string, g *big.Rat, algorithm string) (checked, error) {
	mk, ok1 := new(big.Rat).SetString(makespan)
	lb, ok2 := new(big.Rat).SetString(lower)
	if !ok1 || !ok2 || lb.Sign() <= 0 {
		return checked{}, fmt.Errorf("unparsable answer: makespan %q, lower bound %q", makespan, lower)
	}
	if ref != "" && makespan != ref {
		return checked{}, fmt.Errorf("makespan %s differs from the reference %s", makespan, ref)
	}
	ratio := new(big.Rat).Quo(mk, lb)
	c := checked{fallback: strings.HasSuffix(algorithm, "/fallback")}
	switch {
	case c.fallback && ref == "":
		return c, fmt.Errorf("%s answer without a reference answer to check it against", algorithm)
	case !c.fallback && ratio.Cmp(g) > 0:
		return c, fmt.Errorf("ratio %s/%s exceeds the certified guarantee %s", makespan, lower, g.RatString())
	}
	c.ratio, _ = ratio.Float64()
	return c, nil
}
