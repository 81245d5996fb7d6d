package main

import (
	"fmt"
	"math/rand/v2"
)

// opKind is one request type a connection's closed loop can issue.
type opKind uint8

const (
	opLookup opKind = iota // T13 point lookup of a person's name by soc-sec-no
	opEVA                  // a student's name and the titles of their enrolled courses
	opReport               // T13 report: every student's name and their advisor's name
	opRMW                  // Begin, read birthdate, modify student-nbr, Commit
	opInsert               // autocommit insert of a new student
	numOpKinds
)

// latency classes; the two write kinds share "commit".
const (
	classLookup = iota
	classEVA
	classReport
	classCommit
	numClasses
)

var classNames = [numClasses]string{"lookup", "eva", "report", "commit"}

func (k opKind) class() int {
	switch k {
	case opLookup:
		return classLookup
	case opEVA:
		return classEVA
	case opReport:
		return classReport
	}
	return classCommit
}

const reportText = "From student Retrieve name, name of advisor."

// workload fixes the data size, cache sizes and request mix of one run.
type workload struct {
	name      string
	why       string
	scale     int
	poolPages int             // sim.Config.PoolPages; 0 is the engine default (1024)
	mix       [numOpKinds]int // percent per kind
	hotKeys   int             // > 0: read keys come from this many seeded students
}

// Two client connections (the host's core count), each a closed loop.
const conns = 2

var workloads = []*workload{
	{
		name:    "hot-read",
		why:     "everything fits the page pool, record cache and plan cache, so time goes to the per-request CPU path",
		scale:   1,
		mix:     [numOpKinds]int{opLookup: 90, opEVA: 8, opReport: 2},
		hotKeys: 32,
	},
	{
		name:      "cold-read",
		why:       "a 4x-pool file, more persons than the record cache and mostly new statement texts load parse, plan, pager misses and record decode",
		scale:     10,
		poolPages: 128,
		mix:       [numOpKinds]int{opLookup: 80, opEVA: 20},
	},
	{
		name:  "write-mix",
		why:   "the only workload on the commit path, with reads beside the writes and several WAL checkpoints per run",
		scale: 1,
		mix:   [numOpKinds]int{opLookup: 40, opEVA: 10, opRMW: 30, opInsert: 20},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) writes() bool { return w.mix[opRMW]+w.mix[opInsert] > 0 }

// op is one generated request with the inputs its answer check needs.
type op struct {
	kind    opKind
	student int    // universe index (lookup, eva, rmw)
	nbr     int    // new student-nbr (rmw, insert)
	ins     insert // insert only
}

// insert is a generated new student.
type insert struct {
	ssn   int
	name  string
	birth string
	dept  int
}

// generator yields one connection's operation sequence. It depends only on
// the seed, the workload and the connection number, never on timing, so a
// seed names the exact requests each connection sends in order.
type generator struct {
	rng     *rand.Rand
	w       *workload
	u       *universe
	conn    int
	hot     []int // hot key set (shared across connections)
	owned   []int // students this connection may write
	inserts int
}

func newGenerators(seed uint64, w *workload, u *universe) []*generator {
	keyRng := rand.New(rand.NewPCG(seed, 0x407))
	var hot []int
	if w.hotKeys > 0 {
		hot = keyRng.Perm(len(u.students))[:w.hotKeys]
	}
	gens := make([]*generator, conns)
	for c := range gens {
		g := &generator{
			rng:  rand.New(rand.NewPCG(seed, uint64(c)+1)),
			w:    w,
			u:    u,
			conn: c,
			hot:  hot,
		}
		// Each connection owns a disjoint share of the students, so writes
		// never conflict by construction.
		for s := c; s < len(u.students); s += conns {
			g.owned = append(g.owned, s)
		}
		gens[c] = g
	}
	return gens
}

func (g *generator) readKey() int {
	if g.hot != nil {
		return g.hot[g.rng.IntN(len(g.hot))]
	}
	return g.rng.IntN(len(g.u.students))
}

func (g *generator) next() op {
	p := g.rng.IntN(100)
	kind := opKind(0)
	for ; kind < numOpKinds-1; kind++ {
		if p < g.w.mix[kind] {
			break
		}
		p -= g.w.mix[kind]
	}
	o := op{kind: kind}
	switch kind {
	case opLookup, opEVA:
		o.student = g.readKey()
	case opRMW:
		o.student = g.owned[g.rng.IntN(len(g.owned))]
		o.nbr = idNumber(g.rng)
	case opInsert:
		o.nbr = idNumber(g.rng)
		o.ins = insert{
			ssn:   insertSSNBase + g.conn*insertSSNStride + g.inserts,
			name:  "New " + word(g.rng, 12),
			birth: date(g.rng),
			dept:  g.rng.IntN(departments),
		}
		g.inserts++
	}
	return o
}

// text returns the statement a read op sends.
func (o *op) text(u *universe) string {
	switch o.kind {
	case opLookup:
		return u.students[o.student].lookupText
	case opEVA:
		return u.students[o.student].evaText
	case opReport:
		return reportText
	}
	return ""
}

// textID identifies a read op's statement text for the input guards.
func (o *op) textID() int32 {
	switch o.kind {
	case opLookup:
		return int32(2 * o.student)
	case opEVA:
		return int32(2*o.student + 1)
	case opReport:
		return -1
	}
	return -2
}

func birthQuery(ssn int) string {
	return fmt.Sprintf("From student Retrieve birthdate Where soc-sec-no = %d.", ssn)
}

func modifyNbr(ssn, nbr int) string {
	return fmt.Sprintf("Modify student (student-nbr := %d) Where soc-sec-no = %d.", nbr, ssn)
}

func (in *insert) stmt(nbr int) string {
	return fmt.Sprintf(`Insert student (name := %q, soc-sec-no := %d, student-nbr := %d, birthdate := %q, major-department := department with (dept-nbr = %d)).`,
		in.name, in.ssn, nbr, in.birth, 100+in.dept)
}
