package exec

import (
	"context"
	"sync"
	"time"

	"sim/internal/ast"
	"sim/internal/catalog"
	"sim/internal/luc"
	"sim/internal/obs"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/value"
)

// scratch is the reusable per-execution state of a compiled program: the
// binding environment, a free list of domain buffers, the subquery value
// stack, and the surrogate/record buffers batched reads go through. A
// scratch is checked out of the executor's pool per execution (per worker
// on the parallel path) and holds no output: result rows live in a
// value.Arena owned by the Result, so recycling a scratch can never
// corrupt rows a caller still holds.
type scratch struct {
	env
	// m is the mapper this execution reads data through. Compiled closures
	// capture the executor that compiled them, but programs are cached and
	// later run by snapshot-view executors with a different mapper; every
	// data access inside a closure therefore goes through sc.m, which
	// getScratch binds to the running executor's mapper. Compile-time
	// mapping decisions (hierarchy strategy, FK slots, MV layout) are
	// schema-derived and identical across views, so they may stay on the
	// compiling executor.
	m       *luc.Mapper
	sub     []value.Value     // subquery value stack (mark/truncate discipline)
	domFree [][]inst          // free domain buffers, stack-ordered
	surrs   []value.Surrogate // batched-read key buffer
	recs    []luc.Rec         // batched-read output buffer
}

// getScratch checks a scratch out of the pool, sized for n nodes, with
// every binding cleared and no record references retained.
func (e *Executor) getScratch(n int) *scratch {
	sc, _ := e.scratchPool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	if cap(sc.insts) < n {
		sc.insts = make([]inst, n)
		sc.set = make([]bool, n)
	} else {
		sc.insts = sc.insts[:n]
		sc.set = sc.set[:n]
		for i := range sc.insts {
			sc.insts[i] = inst{}
		}
		for i := range sc.set {
			sc.set[i] = false
		}
	}
	sc.sub = sc.sub[:0]
	sc.m = e.m
	return sc
}

func (e *Executor) putScratch(sc *scratch) {
	sc.m = nil
	e.scratchPool.Put(sc)
}

// getDomBuf hands out a reused []inst for one domain enumeration. Buffers
// follow stack discipline down the loop nest, so a handful cover any
// query depth after warm-up.
func (sc *scratch) getDomBuf() []inst {
	if n := len(sc.domFree); n > 0 {
		b := sc.domFree[n-1]
		sc.domFree = sc.domFree[:n-1]
		return b[:0]
	}
	return make([]inst, 0, 64)
}

// putDomBuf returns a domain buffer, zeroing it so pooled buffers don't
// pin decoded records between queries.
func (sc *scratch) putDomBuf(b []inst) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = inst{}
	}
	sc.domFree = append(sc.domFree, b[:0])
}

// fillRecs prefetches the decoded records of a run of entity instances in
// fixed-size batches — one record-cache pass per batch instead of one
// probe per attribute reference. Split-strategy hierarchies are skipped;
// their bindings fall back to the Mapper's per-entity reads.
func (e *Executor) fillRecs(sc *scratch, cl *catalog.Class, insts []inst) error {
	if len(insts) == 0 || !sc.m.Batchable(cl) {
		return nil
	}
	bs := luc.RecBatch()
	for lo := 0; lo < len(insts); lo += bs {
		hi := min(lo+bs, len(insts))
		chunk := insts[lo:hi]
		sc.surrs = sc.surrs[:0]
		for i := range chunk {
			sc.surrs = append(sc.surrs, chunk[i].surr)
		}
		if cap(sc.recs) < len(chunk) {
			sc.recs = make([]luc.Rec, len(chunk))
		}
		recs := sc.recs[:len(chunk)]
		for i := range recs {
			recs[i] = luc.Rec{}
		}
		if err := sc.m.ReadBatch(cl, sc.surrs, recs); err != nil {
			return err
		}
		for i := range chunk {
			chunk[i].rec = recs[i]
		}
	}
	return nil
}

// RetrieveProgram executes a compiled program: the DAPLEX loop nest of
// §4.5 over reused domain buffers, rows carved from a result-owned arena,
// every expression evaluated through pre-lowered closures. A nil prog
// compiles p first. When the executor has workers configured, the
// outermost root domain is large enough, and the output mode permits it,
// the domain is partitioned across a worker pool; results merge back in
// domain order, so parallel output is byte-identical to serial execution.
// Cancellation is checked between bindings of the outermost range. tr,
// when non-nil, collects the EXPLAIN ANALYZE profile: bindings tried,
// entities bound, inclusive wall per node, per-worker spans on the
// parallel path.
func (e *Executor) RetrieveProgram(ctx context.Context, p *plan.Plan, prog *Program, tr *obs.QueryTrace) (*Result, error) {
	if prog == nil {
		var err error
		if prog, err = e.Compile(p); err != nil {
			return nil, err
		}
	}
	t := prog.tree
	if t.Mode == ast.OutputStructure && len(t.OrderBy) > 0 {
		return nil, errOrderByStructure()
	}
	res := newResult(t)
	main := prog.main
	var stats Stats

	if len(main) == 0 {
		res.finish(t)
		res.Stats = stats
		e.countRetrieve(stats, false)
		return res, nil
	}

	var tm *nestTrace
	var execStart time.Time
	if tr != nil {
		tm = newNestTrace(len(main))
		execStart = time.Now()
	}

	sc := e.getScratch(prog.nNodes)
	dom0, err := prog.doms[main[0].ID](sc, sc.getDomBuf())
	if err != nil {
		e.putScratch(sc)
		return nil, err
	}
	if len(dom0) == 0 && main[0].Type == query.Type3 {
		dom0 = append(dom0, inst{null: true})
	}

	parallel := e.parallelOK(t, dom0)
	if parallel {
		// Workers iterate chunks of a stable copy; the enumerating scratch
		// goes back to the pool before they start.
		shared := append([]inst(nil), dom0...)
		sc.putDomBuf(dom0)
		e.putScratch(sc)
		parts, err := e.runParallelProgram(ctx, prog, shared, tm != nil)
		if err != nil {
			return nil, err
		}
		for _, part := range parts {
			stats.Instances += part.stats.Instances
			stats.Rows += part.stats.Rows
			for ri := range part.rows {
				res.addTabular(part.rows[ri], part.order[ri])
			}
			if tm != nil {
				for i := range tm.nanos {
					if part.tm.nanos[i] > tm.nanos[i] {
						tm.nanos[i] = part.tm.nanos[i]
					}
					tm.insts[i] += part.tm.insts[i]
					tm.ents[i] += part.tm.ents[i]
				}
				tr.WorkerSpans = append(tr.WorkerSpans, obs.WorkerTrace{
					Chunk:     int(part.tm.insts[0]),
					Instances: int64(part.stats.Instances),
					Rows:      part.stats.Rows,
					Wall:      part.wall,
				})
			}
		}
	} else {
		arena := &value.Arena{}
		emit := e.programEmitter(prog, sc, arena, res, &stats)
		done := ctx.Done()
		for k := range dom0 {
			if done != nil {
				select {
				case <-done:
					sc.putDomBuf(dom0)
					e.putScratch(sc)
					return nil, ctx.Err()
				default:
				}
			}
			stats.Instances++
			if tm != nil {
				tm.observe(0, dom0[k])
			}
			sc.bind(main[0], dom0[k])
			if err := e.loopNest(prog, sc, 1, &stats, emit, tm); err != nil {
				sc.putDomBuf(dom0)
				e.putScratch(sc)
				return nil, err
			}
		}
		sc.putDomBuf(dom0)
		e.putScratch(sc)
	}
	if tm != nil {
		tm.nanos[0] = time.Since(execStart).Nanoseconds()
	}
	res.finish(t)
	res.Stats = stats
	e.countRetrieve(stats, parallel)
	if tr != nil {
		e.fillTrace(tr, p, t, main, tm, stats, parallel)
	}
	return res, nil
}

// programEmitter materializes one accepted combination: targets and ORDER
// BY keys evaluate through the compiled closures into arena-backed rows.
func (e *Executor) programEmitter(prog *Program, sc *scratch, arena *value.Arena, res *Result, stats *Stats) func() error {
	t := prog.tree
	return func() error {
		row := arena.Alloc(len(prog.target))
		for i, fn := range prog.target {
			v, err := fn(sc)
			if err != nil {
				return err
			}
			row[i] = v
		}
		var order []value.Value
		if len(prog.orderBy) > 0 {
			order = arena.Alloc(len(prog.orderBy))
			for i, fn := range prog.orderBy {
				v, err := fn(sc)
				if err != nil {
					return err
				}
				order[i] = v
			}
		}
		stats.Rows++
		return res.add(e, t, &sc.env, prog.main, row, order)
	}
}

// loopNest runs the loop nest from main-variable depth i down,
// calling emit for every combination that passes the selection. A non-nil
// tm collects the per-node profile (inclusive walls).
func (e *Executor) loopNest(prog *Program, sc *scratch, i int, stats *Stats, emit func() error, tm *nestTrace) error {
	if i == len(prog.main) {
		ok, err := e.programHolds(prog, sc)
		if err != nil {
			return err
		}
		if ok {
			return emit()
		}
		return nil
	}
	n := prog.main[i]
	var start time.Time
	if tm != nil {
		start = time.Now()
	}
	dom, err := prog.doms[n.ID](sc, sc.getDomBuf())
	if err != nil {
		sc.putDomBuf(dom)
		return err
	}
	if len(dom) == 0 && n.Type == query.Type3 {
		dom = append(dom, inst{null: true})
	}
	for k := range dom {
		stats.Instances++
		if tm != nil {
			tm.observe(i, dom[k])
		}
		sc.bind(n, dom[k])
		if err := e.loopNest(prog, sc, i+1, stats, emit, tm); err != nil {
			sc.putDomBuf(dom)
			return err
		}
	}
	sc.unbind(n)
	sc.putDomBuf(dom)
	if tm != nil {
		tm.nanos[i] += time.Since(start).Nanoseconds()
	}
	return nil
}

// programHolds evaluates the WHERE program under the existential
// semantics of §4.5: "for some X(m+1) … for some X(n) if <selection
// expression> is true".
func (e *Executor) programHolds(prog *Program, sc *scratch) (bool, error) {
	if prog.where == nil {
		return true, nil
	}
	return e.programSome(prog, sc, 0)
}

func (e *Executor) programSome(prog *Program, sc *scratch, j int) (bool, error) {
	if j == len(prog.exist) {
		t, err := prog.where(sc)
		if err != nil {
			return false, err
		}
		return t.IsTrue(), nil
	}
	n := prog.exist[j]
	dom, err := prog.doms[n.ID](sc, sc.getDomBuf())
	if err != nil {
		sc.putDomBuf(dom)
		return false, err
	}
	for k := range dom {
		sc.bind(n, dom[k])
		ok, err := e.programSome(prog, sc, j+1)
		if err != nil {
			sc.unbind(n)
			sc.putDomBuf(dom)
			return false, err
		}
		if ok {
			sc.unbind(n)
			sc.putDomBuf(dom)
			return true, nil
		}
	}
	sc.unbind(n)
	sc.putDomBuf(dom)
	return false, nil
}

// runParallelProgram splits the outermost domain into one contiguous chunk
// per worker, each running the nest against a pooled scratch and its own
// arena. Chunks are returned in domain order.
func (e *Executor) runParallelProgram(ctx context.Context, prog *Program, dom0 []inst, traced bool) ([]*partial, error) {
	nw := e.workers
	if nw > len(dom0) {
		nw = len(dom0)
	}
	chunks := make([][]inst, 0, nw)
	per := (len(dom0) + nw - 1) / nw
	for lo := 0; lo < len(dom0); lo += per {
		hi := min(lo+per, len(dom0))
		chunks = append(chunks, dom0[lo:hi])
	}
	parts := make([]*partial, len(chunks))
	errs := make([]error, len(chunks))
	var wg sync.WaitGroup
	for ci := range chunks {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			parts[ci], errs[ci] = e.runChunkProgram(ctx, prog, chunks[ci], traced)
		}(ci)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// runChunkProgram executes the compiled nest for one slice of the
// outermost domain.
func (e *Executor) runChunkProgram(ctx context.Context, prog *Program, chunk []inst, traced bool) (*partial, error) {
	sc := e.getScratch(prog.nNodes)
	defer e.putScratch(sc)
	part := &partial{}
	arena := &value.Arena{}
	var chunkStart time.Time
	if traced {
		part.tm = newNestTrace(len(prog.main))
		chunkStart = time.Now()
	}
	emit := func() error {
		row := arena.Alloc(len(prog.target))
		for i, fn := range prog.target {
			v, err := fn(sc)
			if err != nil {
				return err
			}
			row[i] = v
		}
		var order []value.Value
		if len(prog.orderBy) > 0 {
			order = arena.Alloc(len(prog.orderBy))
			for i, fn := range prog.orderBy {
				v, err := fn(sc)
				if err != nil {
					return err
				}
				order[i] = v
			}
		}
		part.stats.Rows++
		part.rows = append(part.rows, row)
		part.order = append(part.order, order)
		return nil
	}
	done := ctx.Done()
	for k := range chunk {
		if done != nil {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		part.stats.Instances++
		if part.tm != nil {
			part.tm.observe(0, chunk[k])
		}
		sc.bind(prog.main[0], chunk[k])
		if err := e.loopNest(prog, sc, 1, &part.stats, emit, part.tm); err != nil {
			return nil, err
		}
	}
	if traced {
		part.wall = time.Since(chunkStart)
		part.tm.nanos[0] = part.wall.Nanoseconds()
	}
	return part, nil
}
