package exec

import (
	"fmt"

	"sim/internal/catalog"
	"sim/internal/integrity"
	"sim/internal/plan"
	"sim/internal/value"
)

// Constraint is a bound VERIFY assertion ready for enforcement: the
// analyzed trigger set (from internal/integrity) plus the bound assertion
// tree.
type Constraint = integrity.Constraint

// assertion is a VERIFY constraint with its compiled condition.
type assertion struct {
	*Constraint
	prog *Program
}

// SetConstraints installs the bound integrity assertions enforced on
// updates, compiling each assertion once.
func (e *Executor) SetConstraints(cs []*Constraint) error {
	out := make([]assertion, len(cs))
	for i, c := range cs {
		cc, err := e.compileAssertion(c)
		if err != nil {
			return err
		}
		out[i] = cc
	}
	e.constraints = out
	return nil
}

func (e *Executor) compileAssertion(c *Constraint) (assertion, error) {
	prog, err := e.Compile(&plan.Plan{Tree: c.Tree})
	if err != nil {
		return assertion{}, fmt.Errorf("verify %s: %w", c.Verify.Name, err)
	}
	return assertion{c, prog}, nil
}

// ViolationError reports a failed VERIFY assertion; the database layer
// rolls the statement back.
type ViolationError struct {
	Name    string
	Entity  value.Surrogate
	Message string
}

func (v *ViolationError) Error() string {
	msg := v.Message
	if msg == "" {
		msg = "integrity assertion " + v.Name + " violated"
	}
	return fmt.Sprintf("verify %s failed for entity #%d: %s", v.Name, v.Entity, msg)
}

// checkConstraints runs the statement's recorded events through each
// constraint's trigger set and re-verifies exactly the affected entities —
// the paper's "trigger detection / query enhancement mechanism" (§3.3).
func (e *Executor) checkConstraints(ev *events) error {
	for _, c := range e.constraints {
		affected, checkAll, err := e.affectedEntities(c.Constraint, ev)
		if err != nil {
			return err
		}
		if checkAll {
			all, err := e.m.Surrogates(c.Verify.Class)
			if err != nil {
				return err
			}
			affected = all
		}
		seen := make(map[value.Surrogate]bool, len(affected))
		for _, s := range affected {
			if seen[s] {
				continue
			}
			seen[s] = true
			if err := e.checkEntity(c, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// affectedEntities maps the events to the entities of the constraint's
// class that must be re-verified.
func (e *Executor) affectedEntities(c *Constraint, ev *events) ([]value.Surrogate, bool, error) {
	var out []value.Surrogate
	walkUp := func(start value.Surrogate, path []*catalog.Attribute) error {
		cur := []value.Surrogate{start}
		for _, edge := range path {
			var next []value.Surrogate
			for _, s := range cur {
				ps, err := e.m.GetEVA(s, edge.Inverse)
				if err != nil {
					return err
				}
				next = append(next, ps...)
			}
			cur = next
		}
		out = append(out, cur...)
		return nil
	}
	for _, d := range ev.dva {
		trs, all := c.DVATriggers(d.attr)
		if all {
			return nil, true, nil
		}
		for _, path := range trs {
			if err := walkUp(d.s, path); err != nil {
				return nil, false, err
			}
		}
	}
	for _, x := range ev.eva {
		trs, all := c.EVATriggers(x.attr)
		if all {
			return nil, true, nil
		}
		for _, tr := range trs {
			// Orient the event to the direction the constraint references:
			// the trigger path starts at the Ref-owner-side endpoint.
			start := x.s
			if tr.Ref != x.attr {
				start = x.t
			}
			if err := walkUp(start, tr.Path); err != nil {
				return nil, false, err
			}
		}
	}
	for _, r := range ev.role {
		for _, path := range c.RoleTriggers(r.class) {
			if err := walkUp(r.s, path); err != nil {
				return nil, false, err
			}
		}
	}
	return out, false, nil
}

// checkEntity verifies one entity against one constraint. Entities that no
// longer hold the constraint class's role pass vacuously. An assertion
// evaluating to UNKNOWN passes (only a definite False is a violation).
func (e *Executor) checkEntity(c assertion, s value.Surrogate) error {
	ok, err := e.m.HasRole(s, c.Verify.Class)
	if err != nil || !ok {
		return err
	}
	sc := e.getScratch(c.prog.nNodes)
	sc.bind(c.prog.tree.Roots[0], inst{surr: s})
	holds, err := assertionHolds(c.prog, sc)
	e.putScratch(sc)
	if err != nil {
		return err
	}
	if !holds {
		return &ViolationError{Name: c.Verify.Name, Entity: s, Message: c.Verify.ElseMsg}
	}
	return nil
}

// assertionHolds evaluates a constraint program's condition for the
// pinned root. Unlike WHERE filtering, a result of Unknown passes.
func assertionHolds(prog *Program, sc *scratch) (bool, error) {
	if len(prog.exist) == 0 {
		tri, err := prog.where(sc)
		if err != nil {
			return false, err
		}
		return tri != value.False, nil
	}
	// Existentially quantified condition: definite falsity means no
	// binding makes it true AND at least one binding makes it false.
	anyTrue := false
	anyUnknown := false
	anyBinding := false
	var walk func(j int) error
	walk = func(j int) error {
		if j == len(prog.exist) {
			anyBinding = true
			tri, err := prog.where(sc)
			if err != nil {
				return err
			}
			switch tri {
			case value.True:
				anyTrue = true
			case value.Unknown:
				anyUnknown = true
			}
			return nil
		}
		n := prog.exist[j]
		dom, err := prog.doms[n.ID](sc, sc.getDomBuf())
		defer sc.putDomBuf(dom)
		if err != nil {
			return err
		}
		for k := range dom {
			sc.bind(n, dom[k])
			if err := walk(j + 1); err != nil {
				return err
			}
			if anyTrue {
				break
			}
		}
		sc.unbind(n)
		return nil
	}
	if err := walk(0); err != nil {
		return false, err
	}
	if anyTrue || anyUnknown || !anyBinding {
		return true, nil
	}
	return false, nil
}

// CheckAll verifies every entity of a constraint's class; the database
// layer offers this as an administrative operation.
func (e *Executor) CheckAll(c *Constraint) error {
	cc, err := e.compileAssertion(c)
	if err != nil {
		return err
	}
	ss, err := e.m.Surrogates(c.Verify.Class)
	if err != nil {
		return err
	}
	for _, s := range ss {
		if err := e.checkEntity(cc, s); err != nil {
			return err
		}
	}
	return nil
}
