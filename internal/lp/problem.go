// Package lp implements linear programming from scratch for the TISE
// relaxation of Fineman & Sheridan (SPAA 2015) and the time-indexed
// machine-minimization relaxation.
//
// Two engines solve the same Problem type:
//
//   - Solve: a two-phase tableau simplex over float64, with Dantzig
//     pricing and a Bland's-rule fallback that guarantees termination
//     under degeneracy. Its tableau is condensed: it stores only the
//     nonbasic variables' columns, (m+1)×(n−m+1) cells for m rows and
//     n variables counting slacks and artificials, since a basic
//     column is the unit vector of its row. It answers bit for bit as
//     the full tableau would (see tableau). Its memory comes from a
//     free list of arenas that all solves share (see freeList): a
//     solve reuses the cells and index words of an earlier one instead
//     of allocating and zeroing new ones, and the list is dropped once
//     no solve has been in flight for a short grace period;
//   - SolveRational: an exact simplex over math/big.Rat used to
//     cross-check the float engine on small problems (experiment T6).
//
// All variables are nonnegative; constraints may be <=, >= or =; the
// objective is always minimization (negate coefficients to maximize).
package lp

import (
	"fmt"
	"strings"
)

// Rel is the relation of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // a·x <= b
	GE            // a·x >= b
	EQ            // a·x == b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// CheckFunc is the engines' cancellation/budget hook. The pivot loops
// call it periodically with the work performed since the last call
// (one simplex pivot = one unit); a non-nil return aborts the solve,
// which then reports Status Aborted alongside that error. A nil
// CheckFunc means "never check" and costs nothing — the engines test
// the func for nil once, outside their hot loops.
//
// The hook deliberately has no context.Context in its signature: the
// lp package stays dependency-free, and the robust layer adapts its
// Control into this shape (see robust.Control.CheckFunc).
type CheckFunc func(work int) error

// Term is one coefficient of a constraint row.
type Term struct {
	Var   int
	Coeff float64
}

type row struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a minimization LP over nonnegative variables. Build it
// with AddVar/AddConstraint and pass it to Solve or SolveRational; an
// upper bound x_v <= u is one more LE row.
type Problem struct {
	obj   []float64
	names []string
	rows  []row
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// AddVar adds a nonnegative variable with the given objective
// coefficient and returns its index. The name is read only by String;
// it may be empty.
func (p *Problem) AddVar(name string, objCoeff float64) int {
	p.obj = append(p.obj, objCoeff)
	p.names = append(p.names, name)
	return len(p.obj) - 1
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraints.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddConstraint adds the constraint sum(terms) rel rhs. Terms with a
// variable index out of range cause a panic; duplicate variables in one
// row are summed.
func (p *Problem) AddConstraint(rel Rel, rhs float64, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.obj) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", t.Var))
		}
	}
	own := make([]Term, len(terms))
	copy(own, terms)
	p.rows = append(p.rows, row{terms: own, rel: rel, rhs: rhs})
}

// Obj returns the objective coefficient of variable v.
func (p *Problem) Obj(v int) float64 { return p.obj[v] }

// Copy returns a deep copy of the problem; constraints added to the
// copy do not affect the original (used by the branch-and-bound layer
// to encode variable bounds as extra rows).
func (p *Problem) Copy() *Problem {
	out := &Problem{
		obj:   append([]float64(nil), p.obj...),
		names: append([]string(nil), p.names...),
		rows:  make([]row, len(p.rows)),
	}
	for i, r := range p.rows {
		out.rows[i] = row{terms: append([]Term(nil), r.terms...), rel: r.rel, rhs: r.rhs}
	}
	return out
}

// String renders the problem in a compact algebraic form for
// debugging; a variable added without a name prints as x<index>.
func (p *Problem) String() string {
	var b strings.Builder
	b.WriteString("min")
	for v, c := range p.obj {
		if c != 0 {
			fmt.Fprintf(&b, " %+g*%s", c, p.name(v))
		}
	}
	b.WriteString("\n")
	for _, r := range p.rows {
		b.WriteString("  ")
		for i, t := range r.terms {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%+g*%s", t.Coeff, p.name(t.Var))
		}
		fmt.Fprintf(&b, " %s %g\n", r.rel, r.rhs)
	}
	return b.String()
}

// name is variable v's name for String, x<v> if it has none.
func (p *Problem) name(v int) string {
	if p.names[v] == "" {
		return fmt.Sprintf("x%d", v)
	}
	return p.names[v]
}

// Status reports the outcome of an LP solve.
type Status int

// Solve outcomes.
const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no nonnegative solution.
	Infeasible
	// Unbounded: the objective decreases without bound.
	Unbounded
	// IterLimit: the iteration cap was hit (should not happen with the
	// Bland fallback; indicates a numerical pathology).
	IterLimit
	// Aborted: a CheckFunc stopped the solve (cancellation, deadline,
	// or work-budget exhaustion). The engine returns the check's error
	// alongside this status.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status     Status
	Objective  float64
	X          []float64 // variable values; valid only when Status == Optimal
	Iterations int       // simplex pivots performed across both phases
}
