package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sim/internal/ast"
	"sim/internal/btree"
	"sim/internal/catalog"
	"sim/internal/dmsii"
	"sim/internal/exec"
	"sim/internal/luc"
	"sim/internal/obs"
	"sim/internal/pager"
	"sim/internal/parser"
	"sim/internal/plan"
	"sim/internal/query"
	"sim/internal/university"
	"sim/internal/value"
	"sim/internal/wire"
)

// The traced run replays a sample of operations layer by layer. After the
// client call of a sampled operation returns, the same inputs go through
// each layer's exported entry points, in process, one call per span:
// server round trip, in-process query, wire encode and decode, parse,
// bind, snapshot pin, optimize, compile, execute, and the storage calls
// the plan makes (index seek and scan, unique lookup, record read, EVA
// traversal, page view). Every span is a child of the operation's root
// span, which runs from the client call's start to the replay's end; the
// root's own time is the "unattributed" row. Spans stay in memory and are
// written out when the run ends.

const (
	traceEvery    = 8    // replay one operation in this many
	maxTracedOps  = 4000 // replayed operations whose spans are kept
	allocOpsKind  = 64   // operations per kind re-run for allocation counts
	nextCalls     = 8    // Cursor.Next calls timed per seek
	viewPages     = 4    // pages viewed per replay
	advisorProbes = 32   // advisor traversals timed per report replay
)

// timedCalls are the replayed calls, in report order. Each yields
// <name>_us (btree.next: _ns), <name>_allocs and <name>_self.
var timedCalls = []string{
	"client.op",
	"server.ping",
	"sim.query",
	"wire.encode",
	"wire.decode",
	"parser.parse",
	"query.bind",
	"plan.optimize",
	"exec.compile",
	"exec.retrieve",
	"luc.lookup_unique",
	"luc.get_eva",
	"luc.read_batch",
	"dmsii.pin",
	"dmsii.structure",
	"dmsii.get",
	"btree.seek",
	"btree.next",
	"pager.view",
}

type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int32  `json:"n"` // calls the span covers, for per-call figures
}

type step struct {
	name string // "" for untimed glue between calls
	fn   func() (int, error)
}

// tracer records spans for sampled operations. mu serializes sampled
// operations, so the replay stack, its counters and the allocation counts
// belong to one operation at a time.
type tracer struct {
	mu     sync.Mutex
	count  atomic.Int64
	epoch  time.Time
	spans  []span
	opID   int32
	rs     *replayStack
	rng    *rand.Rand
	kept   [numOpKinds][]op // inputs re-run by the allocation pass
	allocs map[string]uint64
	calls  map[string]int64

	instances, rows int64
	seekPages       uint64
	seeks           uint64
}

func newTracer(rs *replayStack, seed uint64) *tracer {
	return &tracer{
		epoch:  time.Now(),
		rs:     rs,
		rng:    rand.New(rand.NewPCG(seed, 0x7ace)),
		allocs: map[string]uint64{},
		calls:  map[string]int64{},
	}
}

func (t *tracer) sample() bool { return t.count.Add(1)%traceEvery == 0 }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// replay records the sampled operation's client call [start, end] and
// then replays its layer calls. Past maxTracedOps operations the replay
// still runs, so the tracing overhead stays the same through the phase,
// but its spans are not kept. The caller holds t.mu.
func (t *tracer) replay(ctx context.Context, b *bench, cs *connState, o *op, start, end time.Time) error {
	keep := t.opID < maxTracedOps
	t.opID++
	root := int32(len(t.spans))
	if keep {
		t.spans = append(t.spans,
			span{Name: "op", Op: t.opID, Parent: -1, Start: t.ns(start)},
			span{Name: "client.op", Op: t.opID, Parent: root, Start: t.ns(start), End: t.ns(end), N: 1})
	}
	var err error
	for _, s := range t.steps(ctx, b, cs, o) {
		s0 := time.Now()
		n, serr := s.fn()
		s1 := time.Now()
		if serr != nil {
			err = fmt.Errorf("%s: %w", s.name, serr)
			break
		}
		if keep && s.name != "" {
			t.spans = append(t.spans, span{Name: s.name, Op: t.opID, Parent: root, Start: t.ns(s0), End: t.ns(s1), N: int32(n)})
		}
	}
	if keep {
		t.spans[root].End = t.ns(time.Now())
	}
	if len(t.kept[o.kind]) < allocOpsKind {
		t.kept[o.kind] = append(t.kept[o.kind], *o)
	}
	return err
}

// allocPass re-runs the kept operations' layer calls with the loops
// stopped, counting heap allocations per call.
func (t *tracer) allocPass(ctx context.Context, b *bench, cs *connState) error {
	var m0, m1 runtime.MemStats
	measure := func(name string, fn func() (int, error)) error {
		runtime.ReadMemStats(&m0)
		n, err := fn()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if name != "" {
			t.allocs[name] += m1.Mallocs - m0.Mallocs
			t.calls[name] += int64(n)
		}
		return nil
	}
	for kind := range t.kept {
		for i := range t.kept[kind] {
			o := &t.kept[kind][i]
			if text := o.text(b.u); text != "" {
				if err := measure("client.op", func() (int, error) {
					_, err := cs.conn.QueryCtx(ctx, text)
					return 1, err
				}); err != nil {
					return err
				}
			}
			for _, s := range t.steps(ctx, b, cs, o) {
				if err := measure(s.name, s.fn); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// steps builds the replay of one operation. Writes replay only their read
// part (the read-modify-write's birthdate query) and the server round
// trip: replaying a write would change the data.
func (t *tracer) steps(ctx context.Context, b *bench, cs *connState, o *op) []step {
	ping := step{"server.ping", func() (int, error) { return 1, cs.conn.Ping(ctx) }}
	switch o.kind {
	case opLookup, opEVA:
		return t.readSteps(ctx, b, ping, o.text(b.u), o.kind, b.u.students[o.student].ssn)
	case opReport:
		return t.readSteps(ctx, b, ping, reportText, opReport, -1)
	case opRMW:
		ssn := b.u.students[o.student].ssn
		return t.readSteps(ctx, b, ping, birthQuery(ssn), opLookup, ssn)
	}
	return []step{ping}
}

func (t *tracer) readSteps(ctx context.Context, b *bench, ping step, text string, kind opKind, ssn int) []step {
	rs := t.rs
	var (
		stmt  ast.Stmt
		tree  *query.Tree
		snap  *dmsii.Snap
		mv    *luc.Mapper
		ev    *exec.Executor
		p     *plan.Plan
		prog  *exec.Program
		live  *exec.Result
		enc   []byte
		ix    *dmsii.Structure
		hier  *dmsii.Structure
		surr  value.Surrogate
		surrs []value.Surrogate
		pages pager.Stats
	)
	steps := []step{
		ping,
		{"sim.query", func() (n int, err error) {
			live, err = b.db.QueryCtx(ctx, text)
			return 1, err
		}},
		{"wire.encode", func() (int, error) {
			enc = wire.EncodeResult(live)
			return 1, nil
		}},
		{"wire.decode", func() (int, error) {
			_, err := wire.DecodeResult(enc)
			return 1, err
		}},
		{"parser.parse", func() (n int, err error) {
			stmt, err = parser.ParseStmt(text)
			return 1, err
		}},
		{"query.bind", func() (n int, err error) {
			ret, ok := stmt.(*ast.RetrieveStmt)
			if !ok {
				return 0, errors.New("not a Retrieve statement")
			}
			tree, err = query.Bind(rs.cat, ret)
			return 1, err
		}},
		{"dmsii.pin", func() (int, error) {
			snap = rs.store.PinSnapshot()
			return 1, nil
		}},
		{"", func() (int, error) {
			mv = rs.mapper.View(snap)
			ev = rs.exe.View(mv)
			return 0, nil
		}},
		{"plan.optimize", func() (n int, err error) {
			p, err = plan.Optimize(tree, mv)
			return 1, err
		}},
		{"exec.compile", func() (int, error) {
			// A construct the compiler declines runs on the reference
			// walker, as in the database layer.
			prog, _ = rs.exe.Compile(p)
			return 1, nil
		}},
		{"exec.retrieve", func() (int, error) {
			res, err := ev.RetrieveProgram(ctx, p, prog, nil)
			if err == nil {
				t.instances += int64(res.Stats.Instances)
				t.rows += int64(res.Stats.Rows)
			}
			return 1, err
		}},
	}
	if ssn >= 0 {
		key := value.AppendKey(nil, value.NewInt(int64(ssn)))
		steps = append(steps,
			step{"dmsii.structure", func() (n int, err error) {
				ix, err = snap.Structure(rs.ixName)
				return 1, err
			}},
			step{"", func() (int, error) {
				pages = rs.store.Stats()
				return 0, nil
			}},
			step{"btree.seek", func() (int, error) {
				return 1, ix.SeekInto(&rs.cur, key)
			}},
			step{"", func() (int, error) {
				after := rs.store.Stats()
				t.seekPages += after.Hits + after.Misses - pages.Hits - pages.Misses
				t.seeks++
				return 0, nil
			}},
			step{"btree.next", func() (int, error) {
				n := 0
				for ; n < nextCalls && rs.cur.Valid(); n++ {
					rs.cur.Next()
				}
				return n, rs.cur.Err()
			}},
			step{"luc.lookup_unique", func() (int, error) {
				s, ok, err := mv.LookupUnique(rs.ssn, value.NewInt(int64(ssn)))
				if err == nil && !ok {
					err = fmt.Errorf("soc-sec-no %d not found", ssn)
				}
				surr = s
				return 1, err
			}},
			step{"dmsii.structure", func() (n int, err error) {
				hier, err = snap.Structure(rs.hierName)
				return 1, err
			}},
			step{"dmsii.get", func() (int, error) {
				rs.key = value.AppendSurrogateKey(rs.key[:0], surr)
				_, found, err := hier.Get(rs.key)
				if err == nil && !found {
					err = fmt.Errorf("no record for surrogate %d", surr)
				}
				return 1, err
			}},
			step{"luc.read_batch", func() (int, error) {
				rs.surrs = append(rs.surrs[:0], surr)
				return rs.readBatch(mv, rs.person, rs.surrs)
			}},
		)
	}
	switch kind {
	case opEVA:
		steps = append(steps,
			step{"luc.get_eva", func() (n int, err error) {
				surrs, err = mv.GetEVAInto(rs.surrs[:0], surr, rs.courses)
				return 1, err
			}},
			step{"luc.read_batch", func() (int, error) {
				return rs.readBatch(mv, rs.course, surrs)
			}},
		)
	case opReport:
		steps = append(steps,
			step{"", func() (n int, err error) {
				surrs, err = mv.Surrogates(rs.student)
				return 0, err
			}},
			step{"luc.read_batch", func() (int, error) {
				return rs.readBatch(mv, rs.student, surrs)
			}},
			step{"luc.get_eva", func() (int, error) {
				n := min(advisorProbes, len(surrs))
				for _, s := range surrs[:n] {
					var err error
					if rs.evaBuf, err = mv.GetEVAInto(rs.evaBuf[:0], s, rs.advisor); err != nil {
						return 0, err
					}
				}
				return n, nil
			}},
		)
	}
	stamp := rs.pool.Published()
	var ids [viewPages]pager.PageID
	for i := range ids {
		ids[i] = pager.PageID(t.rng.IntN(int(rs.pool.NumPages())))
	}
	return append(steps,
		step{"pager.view", func() (int, error) {
			for _, id := range ids {
				if _, err := rs.pool.ViewPage(id, stamp); err != nil {
					return 0, err
				}
			}
			return viewPages, nil
		}},
		// Release closes the pin span pair: dmsii.pin per op is
		// PinSnapshot plus Release.
		step{"dmsii.pin", func() (int, error) {
			snap.Release()
			return 0, nil
		}},
	)
}

// replayStack is the benchmark's own engine stack over a checkpointed copy
// of the workload's database: dmsii store, catalog, LUC mapper and
// executor built from the exported packages the database layer uses, plus
// a separate buffer pool of the same capacity for page views.
type replayStack struct {
	store  *dmsii.Store
	cat    *catalog.Catalog
	mapper *luc.Mapper
	exe    *exec.Executor
	file   *pager.ChecksumFile
	pool   *pager.Pool

	person, student, course *catalog.Class
	ssn, courses, advisor   *catalog.Attribute
	ixName, hierName        string

	cur    btree.Cursor
	key    []byte
	surrs  []value.Surrogate
	evaBuf []value.Surrogate
	recs   []luc.Rec
}

// newReplayStack copies the (checkpointed, idle) database at path and
// opens the copy.
func newReplayStack(path string, poolPages int) (*replayStack, error) {
	cp := filepath.Join(filepath.Dir(path), "replay.sim")
	if err := copyFile(path, cp); err != nil {
		return nil, err
	}
	if poolPages == 0 {
		poolPages = 1024
	}
	store, err := openStore(cp, poolPages)
	if err != nil {
		return nil, err
	}
	rs := &replayStack{store: store, cat: catalog.New(), recs: make([]luc.Rec, luc.RecBatch())}
	fail := func(err error) (*replayStack, error) {
		rs.close()
		return nil, err
	}
	sch, err := parser.ParseSchema(university.DDL)
	if err != nil {
		return fail(err)
	}
	if err := rs.cat.Extend(sch); err != nil {
		return fail(err)
	}
	if rs.mapper, err = luc.New(store, rs.cat, luc.Config{}); err != nil {
		return fail(err)
	}
	rs.exe = exec.New(rs.mapper)
	rs.exe.SetMetrics(obs.NewRegistry())
	rs.exe.SetWorkers(runtime.GOMAXPROCS(0))
	if rs.file, err = pager.OpenOSFile(cp); err != nil {
		return fail(err)
	}
	if rs.pool, err = pager.NewPool(rs.file, poolPages); err != nil {
		return fail(err)
	}
	rs.person, rs.student, rs.course = rs.cat.Class("person"), rs.cat.Class("student"), rs.cat.Class("course")
	rs.ssn = rs.person.Attr("soc-sec-no")
	rs.courses = rs.student.Attr("courses-enrolled")
	rs.advisor = rs.student.Attr("advisor")
	// Structure names as the LUC mapper assigns them: the unique index of
	// soc-sec-no and the single-record person hierarchy.
	rs.ixName = fmt.Sprintf("ix:%d", rs.ssn.ID)
	rs.hierName = fmt.Sprintf("h:%d", rs.person.ID)
	return rs, nil
}

// readBatch reads the records of surrs in RecBatch chunks; the count is
// records read.
func (rs *replayStack) readBatch(m *luc.Mapper, cl *catalog.Class, surrs []value.Surrogate) (int, error) {
	for i := 0; i < len(surrs); i += len(rs.recs) {
		chunk := surrs[i:min(i+len(rs.recs), len(surrs))]
		clear(rs.recs[:len(chunk)])
		if err := m.ReadBatch(cl, chunk, rs.recs); err != nil {
			return 0, err
		}
	}
	return len(surrs), nil
}

func (rs *replayStack) close() {
	if rs.file != nil {
		rs.file.Close()
	}
	rs.store.Close()
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// layerFigures adds the per-call medians, allocation counts and
// self-time shares aggregated from the spans, and the unattributed share.
func (t *tracer) layerFigures(res *result) {
	perOp := map[string][]float64{}
	self := map[string]int64{}
	var rootTotal, unattributed int64
	type acc struct {
		dur int64
		n   int64
	}
	for i := 0; i < len(t.spans); {
		root := t.spans[i]
		j := i + 1
		for j < len(t.spans) && t.spans[j].Op == root.Op {
			j++
		}
		children := t.spans[i+1 : j]
		ops := map[string]acc{}
		for _, c := range children {
			d := c.End - c.Start
			self[c.Name] += d
			a := ops[c.Name]
			a.dur += d
			a.n += int64(c.N)
			ops[c.Name] = a
		}
		for name, a := range ops {
			if a.n > 0 {
				perOp[name] = append(perOp[name], float64(a.dur)/float64(a.n))
			}
		}
		d := root.End - root.Start
		rootTotal += d
		unattributed += d - covered(children)
		i = j
	}
	for _, name := range timedCalls {
		if name == "btree.next" {
			res.add(name+"_ns", median(perOp[name]), "ns", len(perOp[name]))
		} else {
			res.add(name+"_us", median(perOp[name])/1e3, "us", len(perOp[name]))
		}
		res.add(name+"_allocs", ratio(float64(t.allocs[name]), float64(t.calls[name])), "count", int(t.calls[name]))
		res.add(name+"_self", ratio(float64(self[name]), float64(rootTotal)), "ratio", 0)
	}
	res.add("trace.unattributed_self", ratio(float64(unattributed), float64(rootTotal)), "ratio", 0)
	res.add("trace.spans", float64(len(t.spans)), "count", 0)
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for k, v := range iv {
		if k == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
