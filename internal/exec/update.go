package exec

import (
	"context"
	"fmt"
	"strings"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// events collects the mutations of one update statement for integrity
// trigger detection (§3.3).
type events struct {
	dva  []dvaEvent
	eva  []evaEvent
	role []roleEvent
}

type dvaEvent struct {
	attr *catalog.Attribute
	s    value.Surrogate
}

type evaEvent struct {
	attr *catalog.Attribute // as referenced (either direction)
	s, t value.Surrogate
}

type roleEvent struct {
	class *catalog.Class
	s     value.Surrogate
}

// Insert executes §4.8's INSERT: create a new entity, or — with FROM —
// extend the roles of existing entities. It returns the affected entity
// count. Cancellation is checked between entities of the FROM selection.
func (e *Executor) Insert(ctx context.Context, stmt *ast.InsertStmt) (int, error) {
	cl, err := e.cat.MustClass(stmt.Class)
	if err != nil {
		return 0, err
	}
	ev := &events{}
	progs := make([]*Program, len(stmt.Assigns))
	var affected []value.Surrogate

	if stmt.FromClass == "" {
		s, err := e.m.NewEntity(cl)
		if err != nil {
			return 0, err
		}
		ev.role = append(ev.role, roleEvent{cl, s})
		if err := e.applyAssigns(s, cl, stmt.Assigns, progs, ev); err != nil {
			return 0, err
		}
		newRoles := append([]*catalog.Class{cl}, catalog.Ancestors(cl)...)
		if err := e.checkRequired(s, newRoles); err != nil {
			return 0, err
		}
		affected = []value.Surrogate{s}
	} else {
		from, err := e.cat.MustClass(stmt.FromClass)
		if err != nil {
			return 0, err
		}
		if !catalog.IsAncestor(from, cl) {
			return 0, fmt.Errorf("INSERT %s FROM %s: %s is not an ancestor of %s", cl.Name, from.Name, from.Name, cl.Name)
		}
		matches, err := e.SelectEntitiesCtx(ctx, from, stmt.FromWhere)
		if err != nil {
			return 0, err
		}
		if len(matches) == 0 {
			return 0, fmt.Errorf("INSERT %s FROM %s selected no entities", cl.Name, from.Name)
		}
		if err := e.claimTargets(cl, matches); err != nil {
			return 0, err
		}
		for _, s := range matches {
			if err := ctxErr(ctx); err != nil {
				return 0, err
			}
			added, err := e.m.ExtendRole(s, cl)
			if err != nil {
				return 0, err
			}
			for _, c := range added {
				ev.role = append(ev.role, roleEvent{c, s})
			}
			if err := e.applyAssigns(s, cl, stmt.Assigns, progs, ev); err != nil {
				return 0, err
			}
			if err := e.checkRequired(s, added); err != nil {
				return 0, err
			}
			affected = append(affected, s)
		}
	}
	if err := e.checkConstraints(ev); err != nil {
		return 0, err
	}
	e.countUpdate(len(affected))
	return len(affected), nil
}

// Modify executes §4.8's MODIFY against every entity of the class
// satisfying WHERE. Cancellation is checked between selected entities.
func (e *Executor) Modify(ctx context.Context, stmt *ast.ModifyStmt) (int, error) {
	cl, err := e.cat.MustClass(stmt.Class)
	if err != nil {
		return 0, err
	}
	matches, err := e.SelectEntitiesCtx(ctx, cl, stmt.Where)
	if err != nil {
		return 0, err
	}
	if err := e.claimTargets(cl, matches); err != nil {
		return 0, err
	}
	ev := &events{}
	progs := make([]*Program, len(stmt.Assigns))
	for _, s := range matches {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		if err := e.applyAssigns(s, cl, stmt.Assigns, progs, ev); err != nil {
			return 0, err
		}
	}
	if err := e.checkConstraints(ev); err != nil {
		return 0, err
	}
	e.countUpdate(len(matches))
	return len(matches), nil
}

// Delete executes §4.8's DELETE: the entities lose their role in the class
// and every subclass role, keeping superclass roles. Cancellation is
// checked between selected entities.
func (e *Executor) Delete(ctx context.Context, stmt *ast.DeleteStmt) (int, error) {
	cl, err := e.cat.MustClass(stmt.Class)
	if err != nil {
		return 0, err
	}
	matches, err := e.SelectEntitiesCtx(ctx, cl, stmt.Where)
	if err != nil {
		return 0, err
	}
	if err := e.claimTargets(cl, matches); err != nil {
		return 0, err
	}
	ev := &events{}
	for _, s := range matches {
		if err := ctxErr(ctx); err != nil {
			return 0, err
		}
		// Snapshot the relationship instances about to be destroyed, for
		// trigger detection on surviving partners.
		doomed := []*catalog.Class{cl}
		for _, d := range catalog.Descendants(cl) {
			if ok, err := e.m.HasRole(s, d); err != nil {
				return 0, err
			} else if ok {
				doomed = append(doomed, d)
			}
		}
		for _, d := range doomed {
			ev.role = append(ev.role, roleEvent{d, s})
			for _, a := range d.Attrs {
				if a.Kind != catalog.EVA {
					continue
				}
				targets, err := e.m.GetEVA(s, a)
				if err != nil {
					return 0, err
				}
				for _, t := range targets {
					ev.eva = append(ev.eva, evaEvent{a, s, t})
				}
			}
		}
		if err := e.m.DeleteRoles(s, cl); err != nil {
			return 0, err
		}
	}
	if err := e.checkConstraints(ev); err != nil {
		return 0, err
	}
	e.countUpdate(len(matches))
	return len(matches), nil
}

// claimTargets hands an update statement's materialized targets to the
// claim hook (WithClaim) before any mutation. A nil hook (autocommit,
// direct executor use) claims nothing.
func (e *Executor) claimTargets(cl *catalog.Class, ss []value.Surrogate) error {
	if e.claim == nil || len(ss) == 0 {
		return nil
	}
	return e.claim(cl, ss)
}

// UpdateTargets resolves the entities an update statement would write —
// its target selection, materialized without mutating anything. Insert
// without FROM creates a fresh entity and so has no pre-existing targets
// (a nil slice). Transactions use this on a read snapshot to claim
// per-entity write latches before blocking on the store write latch; the
// result is advisory, since the statement re-selects when it executes.
func (e *Executor) UpdateTargets(ctx context.Context, stmt ast.Stmt) (*catalog.Class, []value.Surrogate, error) {
	switch s := stmt.(type) {
	case *ast.InsertStmt:
		cl, err := e.cat.MustClass(s.Class)
		if err != nil {
			return nil, nil, err
		}
		if s.FromClass == "" {
			return cl, nil, nil
		}
		from, err := e.cat.MustClass(s.FromClass)
		if err != nil {
			return nil, nil, err
		}
		ss, err := e.SelectEntitiesCtx(ctx, from, s.FromWhere)
		return from, ss, err
	case *ast.ModifyStmt:
		cl, err := e.cat.MustClass(s.Class)
		if err != nil {
			return nil, nil, err
		}
		ss, err := e.SelectEntitiesCtx(ctx, cl, s.Where)
		return cl, ss, err
	case *ast.DeleteStmt:
		cl, err := e.cat.MustClass(s.Class)
		if err != nil {
			return nil, nil, err
		}
		ss, err := e.SelectEntitiesCtx(ctx, cl, s.Where)
		return cl, ss, err
	}
	return nil, nil, fmt.Errorf("exec: not an update statement: %T", stmt)
}

// SelectEntitiesCtx returns the entities of cl satisfying where (all of
// them when where is nil), in surrogate order, checking cancellation
// between rows of the enumerated class domain. The result is materialized
// before any mutation, as the DML's snapshot semantics require.
func (e *Executor) SelectEntitiesCtx(ctx context.Context, cl *catalog.Class, where ast.Expr) ([]value.Surrogate, error) {
	prog, err := e.compileSelection(cl, where)
	if err != nil {
		return nil, err
	}
	return e.selectEntities(ctx, prog)
}

// compileSelection binds, optimizes and compiles the selection of cl's
// entities satisfying where.
func (e *Executor) compileSelection(cl *catalog.Class, where ast.Expr) (*Program, error) {
	t, err := query.BindSelection(e.cat, cl, where)
	if err != nil {
		return nil, err
	}
	p, err := plan.Optimize(t, e.m)
	if err != nil {
		return nil, err
	}
	return e.Compile(p)
}

// selectEntities enumerates a compiled selection's root domain and keeps
// the entities for which its WHERE program holds.
func (e *Executor) selectEntities(ctx context.Context, prog *Program) ([]value.Surrogate, error) {
	sc := e.getScratch(prog.nNodes)
	defer e.putScratch(sc)
	root := prog.tree.Roots[0]
	dom, err := prog.doms[root.ID](sc, sc.getDomBuf())
	defer sc.putDomBuf(dom)
	if err != nil {
		return nil, err
	}
	var out []value.Surrogate
	for k := range dom {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		sc.bind(root, dom[k])
		ok, err := e.programHolds(prog, sc)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, dom[k].surr)
		}
	}
	return out, nil
}

// applyAssigns applies an assignment list to one entity. progs holds the
// statement's compiled assignment programs, one slot per assignment,
// shared across the statement's entities. A slot compiles on first use,
// so a binding error surfaces where the first entity's evaluation raises
// it.
func (e *Executor) applyAssigns(s value.Surrogate, cl *catalog.Class, assigns []ast.Assign, progs []*Program, ev *events) error {
	for i, a := range assigns {
		if err := e.applyAssign(s, cl, a, &progs[i], ev); err != nil {
			return fmt.Errorf("%s := ...: %w", a.Attr, err)
		}
	}
	return nil
}

func (e *Executor) applyAssign(s value.Surrogate, cl *catalog.Class, a ast.Assign, slot **Program, ev *events) error {
	attr := catalog.ResolveAttr(cl, a.Attr)
	if attr == nil {
		return fmt.Errorf("class %s has no attribute %q", cl.Name, a.Attr)
	}
	switch attr.Kind {
	case catalog.Subrole:
		return fmt.Errorf("subrole %s is system-maintained and cannot be assigned", attr)
	case catalog.Derived:
		return fmt.Errorf("derived attribute %s is computed and cannot be assigned", attr)
	case catalog.EVA:
		return e.assignEVA(s, attr, a, slot, ev)
	}
	// DVA.
	if a.Entity != nil {
		return fmt.Errorf("%s is data-valued; entity selection does not apply", attr)
	}
	v, err := e.evalScalarFor(s, cl, a.Value, slot)
	if err != nil {
		return err
	}
	cv, err := attr.Type.Coerce(v)
	if err != nil {
		return err
	}
	if attr.Options.MV {
		switch a.Mode {
		case ast.AssignInclude:
			err = e.m.IncludeMV(s, attr, cv)
		case ast.AssignExclude:
			err = e.m.ExcludeMV(s, attr, cv)
		default:
			if cv.IsNull() {
				err = e.m.SetMV(s, attr, nil)
			} else {
				err = e.m.SetMV(s, attr, []value.Value{cv})
			}
		}
		if err != nil {
			return err
		}
		ev.dva = append(ev.dva, dvaEvent{attr, s})
		return nil
	}
	if a.Mode != ast.AssignSet {
		return fmt.Errorf("INCLUDE/EXCLUDE apply to multi-valued attributes; %s is single-valued", attr)
	}
	if attr.Options.Required && cv.IsNull() {
		return fmt.Errorf("required attribute %s cannot be set to NULL", attr)
	}
	if err := e.m.SetSingle(s, attr, cv); err != nil {
		return err
	}
	ev.dva = append(ev.dva, dvaEvent{attr, s})
	return nil
}

// assignEVA applies §4.8's EVA assignment:
//
//	<eva> := [INCLUDE | EXCLUDE] <object name> WITH ( <boolean expn> )
//
// For single-valued assignment and inclusion, the object name is the range
// class; for exclusion it is the EVA itself, selecting among current
// partners. Assigning NULL clears a single-valued EVA.
func (e *Executor) assignEVA(s value.Surrogate, attr *catalog.Attribute, a ast.Assign, slot **Program, ev *events) error {
	record := func(t value.Surrogate) { ev.eva = append(ev.eva, evaEvent{attr, s, t}) }

	if a.Entity == nil {
		// Scalar RHS: only NULL is meaningful (clear the EVA).
		lit, ok := a.Value.(*ast.Lit)
		if !ok || !lit.Val.IsNull() {
			return fmt.Errorf("%s is entity-valued; assign <class> WITH (...) or NULL", attr)
		}
		if attr.Options.MV {
			cur, err := e.m.GetEVA(s, attr)
			if err != nil {
				return err
			}
			for _, t := range cur {
				if err := e.m.ExcludeEVA(s, attr, t); err != nil {
					return err
				}
				record(t)
			}
			return nil
		}
		cur, err := e.m.GetEVA(s, attr)
		if err != nil {
			return err
		}
		if err := e.m.SetEVA(s, attr, nil); err != nil {
			return err
		}
		for _, t := range cur {
			record(t)
		}
		return nil
	}

	if a.Mode == ast.AssignExclude {
		// Object name is the EVA: select among the current partners.
		if !nameMatchesAttr(a.Entity.Name, attr) {
			return fmt.Errorf("EXCLUDE selects from the EVA itself: expected %q, found %q", attr.Name, a.Entity.Name)
		}
		cur, err := e.m.GetEVA(s, attr)
		if err != nil {
			return err
		}
		keep, err := e.filterEntities(attr.Range, cur, a.Entity.Where, slot)
		if err != nil {
			return err
		}
		for _, t := range keep {
			if err := e.m.ExcludeEVA(s, attr, t); err != nil {
				return err
			}
			record(t)
		}
		return nil
	}

	// Set / include: the object name is the range class (or a subclass).
	selCl := e.cat.Class(a.Entity.Name)
	if selCl == nil {
		return fmt.Errorf("unknown class %q in entity selection", a.Entity.Name)
	}
	if !catalog.IsAncestor(attr.Range, selCl) {
		return fmt.Errorf("class %s is not in the range of %s (%s)", selCl.Name, attr, attr.Range.Name)
	}
	if *slot == nil {
		var err error
		if *slot, err = e.compileSelection(selCl, a.Entity.Where); err != nil {
			return err
		}
	}
	targets, err := e.selectEntities(context.Background(), *slot)
	if err != nil {
		return err
	}
	switch {
	case a.Mode == ast.AssignInclude:
		for _, t := range targets {
			if err := e.m.IncludeEVA(s, attr, t); err != nil {
				return err
			}
			record(t)
		}
	case attr.Options.MV:
		// Plain assignment to an MV EVA replaces the instance set.
		cur, err := e.m.GetEVA(s, attr)
		if err != nil {
			return err
		}
		for _, t := range cur {
			if err := e.m.ExcludeEVA(s, attr, t); err != nil {
				return err
			}
			record(t)
		}
		for _, t := range targets {
			if err := e.m.IncludeEVA(s, attr, t); err != nil {
				return err
			}
			record(t)
		}
	default:
		if len(targets) != 1 {
			return fmt.Errorf("assignment to single-valued %s selected %d entities, need exactly 1", attr, len(targets))
		}
		old, err := e.m.GetEVA(s, attr)
		if err != nil {
			return err
		}
		if err := e.m.SetEVA(s, attr, &targets[0]); err != nil {
			return err
		}
		for _, t := range old {
			record(t)
		}
		record(targets[0])
	}
	return nil
}

func nameMatchesAttr(name string, attr *catalog.Attribute) bool {
	return strings.EqualFold(name, attr.Name)
}

// filterEntities keeps the candidates satisfying where, evaluated with the
// candidate as the perspective instance.
func (e *Executor) filterEntities(cl *catalog.Class, candidates []value.Surrogate, where ast.Expr, slot **Program) ([]value.Surrogate, error) {
	if where == nil {
		return candidates, nil
	}
	if *slot == nil {
		t, err := query.BindSelection(e.cat, cl, where)
		if err != nil {
			return nil, err
		}
		if *slot, err = e.Compile(&plan.Plan{Tree: t}); err != nil {
			return nil, err
		}
	}
	prog := *slot
	sc := e.getScratch(prog.nNodes)
	defer e.putScratch(sc)
	root := prog.tree.Roots[0]
	var out []value.Surrogate
	for _, s := range candidates {
		sc.bind(root, inst{surr: s})
		ok, err := e.programHolds(prog, sc)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// evalScalarFor evaluates an assignment right-hand side in the context of
// one entity (so "salary := 1.1 * salary" reads the entity's own salary).
func (e *Executor) evalScalarFor(s value.Surrogate, cl *catalog.Class, expr ast.Expr, slot **Program) (value.Value, error) {
	if lit, ok := expr.(*ast.Lit); ok {
		return lit.Val, nil
	}
	if *slot == nil {
		var err error
		if *slot, err = e.compileScalar(cl, expr); err != nil {
			return value.Null, err
		}
	}
	prog := *slot
	sc := e.getScratch(prog.nNodes)
	defer e.putScratch(sc)
	sc.bind(prog.tree.Roots[0], inst{surr: s})
	// Bind the remaining single-valued main nodes: the first instance, or
	// the NULL dummy when the path is empty.
	for _, n := range prog.main {
		if n.IsRoot() {
			continue
		}
		dom, err := prog.doms[n.ID](sc, sc.getDomBuf())
		if err == nil {
			it := inst{null: true}
			if len(dom) > 0 {
				it = dom[0]
			}
			sc.bind(n, it)
		}
		sc.putDomBuf(dom)
		if err != nil {
			return value.Null, err
		}
	}
	return prog.target[0](sc)
}

// compileScalar binds and compiles an assignment right-hand side over cl.
// Paths through single-valued EVAs are fine, but a multi-valued main node
// would make the right-hand side multi-valued.
func (e *Executor) compileScalar(cl *catalog.Class, expr ast.Expr) (*Program, error) {
	t, err := query.BindScalar(e.cat, cl, expr)
	if err != nil {
		return nil, err
	}
	for _, n := range t.Nodes {
		if !n.IsRoot() && !n.Sub && !n.IsValue && n.Edge != nil && n.Edge.Options.MV {
			return nil, fmt.Errorf("assignment expression traverses multi-valued %s", n.Edge)
		}
		if n.IsValue && !n.Sub {
			return nil, fmt.Errorf("assignment expression reads multi-valued %s; aggregate it instead", n.Edge)
		}
	}
	return e.Compile(&plan.Plan{Tree: t})
}

// checkRequired verifies the REQUIRED option for the immediate attributes
// of newly acquired roles (§3.2.1).
func (e *Executor) checkRequired(s value.Surrogate, roles []*catalog.Class) error {
	for _, cl := range roles {
		for _, a := range cl.Attrs {
			if !a.Options.Required || a.Implicit {
				continue
			}
			switch {
			case a.Kind == catalog.EVA:
				ts, err := e.m.GetEVA(s, a)
				if err != nil {
					return err
				}
				if len(ts) == 0 {
					return fmt.Errorf("required attribute %s has no value", a)
				}
			case a.Options.MV:
				vs, err := e.m.GetMV(s, a)
				if err != nil {
					return err
				}
				if len(vs) == 0 {
					return fmt.Errorf("required attribute %s has no value", a)
				}
			default:
				v, err := e.m.GetSingle(s, a)
				if err != nil {
					return err
				}
				if v.IsNull() {
					return fmt.Errorf("required attribute %s has no value", a)
				}
			}
		}
	}
	return nil
}
