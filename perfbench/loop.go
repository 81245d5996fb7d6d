package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"sim"
	"sim/client"
	"sim/internal/server"
	"sim/internal/value"
)

// errMismatch marks a wrong answer. Like any failed operation it makes the
// whole run incorrect.
var errMismatch = errors.New("wrong answer")

// bench is one workload run: a file database on the checkout's disk,
// served by an in-process server on loopback to two client connections.
type bench struct {
	w      *workload
	u      *universe
	path   string
	cfg    sim.Config
	db     *sim.Database
	srv    *server.Server
	served chan error
	conns  []*connState

	userBytes int64           // user value bytes stored by setup
	births    []value.Value   // parsed birthdates per student
	report    [][]value.Value // expected report rows

	walMu       sync.Mutex
	walLast     float64
	checkpoints int
	ckptLat     []int64

	peakHeap atomic.Uint64
	peakLive atomic.Int64
}

// connState is one client connection's closed loop.
type connState struct {
	id   int
	conn *client.Conn
	gen  *generator

	lat       [numClasses][]int64 // ns per completed op, by latency class
	windows   []int               // completed ops per one-second window
	attempted int
	failed    int
	errs      []string // first few failures, for the report

	texts    []int32     // read statement IDs in issue order (input guards)
	lastNbr  map[int]int // last acknowledged student-nbr per owned student
	inserted []insertAck // acknowledged inserts
	writeB   int64       // user bytes of acknowledged writes

	commits []commitSample // TraceCommit breakdowns (traced phase only)
}

type insertAck struct {
	in  insert
	nbr int
}

type commitSample struct{ latch, enqueue, fsync, total int64 }

// setupDB populates a fresh database at path and checkpoints it, returning
// the population time.
func (b *bench) setupDB(ctx context.Context, path string) (time.Duration, error) {
	start := time.Now()
	db, err := openUniversity(path, b.cfg)
	if err != nil {
		return 0, err
	}
	user, err := b.u.populate(ctx, db)
	if err == nil {
		err = db.Checkpoint()
	}
	d := time.Since(start)
	if err != nil {
		db.Close()
		return 0, err
	}
	b.db, b.userBytes = db, user
	return d, nil
}

// start serves b.db on a loopback listener and dials the connections.
func (b *bench) start(seed uint64) error {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = server.New(b.db, server.Config{Registry: b.db.Metrics()})
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(lis) }()
	gens := newGenerators(seed, b.w, b.u)
	for i := 0; i < conns; i++ {
		c, err := client.Dial(lis.Addr().String())
		if err != nil {
			return err
		}
		b.conns = append(b.conns, &connState{id: i, conn: c, gen: gens[i], lastNbr: map[int]int{}})
	}
	return nil
}

// stop closes the connections and the server and waits for it to exit.
func (b *bench) stop() {
	for _, cs := range b.conns {
		cs.conn.Close()
	}
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		b.srv.Shutdown(ctx)
		cancel()
		<-b.served
		b.srv = nil
	}
}

// expectations computes the answers the generator knows: parsed
// birthdates, and the report checked against both the population and an
// in-process Database.Query.
func (b *bench) expectations() error {
	for _, st := range b.u.students {
		d, err := value.ParseDate(st.birth)
		if err != nil {
			return err
		}
		b.births = append(b.births, d)
	}
	if b.w.mix[opReport] == 0 {
		return nil
	}
	res, err := b.db.Query(reportText)
	if err != nil {
		return err
	}
	want := map[string]int{}
	for _, st := range b.u.students {
		adv := ""
		if st.advisor >= 0 {
			adv = b.u.instructors[st.advisor].name
		}
		want[st.name+"\x00"+adv]++
	}
	for _, row := range res.Rows() {
		if len(row) != 2 {
			return fmt.Errorf("report row has %d columns", len(row))
		}
		adv := ""
		if row[1].Kind() != value.KindNull {
			adv = row[1].Str()
		}
		k := row[0].Str() + "\x00" + adv
		if want[k] == 0 {
			return fmt.Errorf("in-process report has unexpected row %v", row)
		}
		want[k]--
		b.report = append(b.report, slices.Clone(row))
	}
	if len(b.report) != len(b.u.students) {
		return fmt.Errorf("in-process report has %d rows, want %d", len(b.report), len(b.u.students))
	}
	return nil
}

// phaseStats is what one closed-loop phase measured.
type phaseStats struct {
	elapsed     time.Duration
	completed   int
	before      counters
	after       counters
	checkpoints int       // WAL auto-checkpoints observed
	ckptLat     []float64 // latencies (ns) of the writes that saw them
	peakHeap    uint64    // peak heap bytes in use
	liveHeap    uint64    // heap bytes in use after a full GC at the end
	peakLive    int64     // peak retained page versions
	rates       []float64 // completed ops in each whole one-second window
}

// opsPerSecond is the median one-second throughput: a disk stall or
// a neighbour's burst moves one window, not the figure. Runs shorter
// than two windows fall back to the mean.
func (ps phaseStats) opsPerSecond() float64 {
	if len(ps.rates) >= 2 {
		return median(ps.rates)
	}
	return float64(ps.completed) / ps.elapsed.Seconds()
}

// runPhase runs every connection's closed loop for d. With tr non-nil a
// sample of operations is replayed layer by layer.
func (b *bench) runPhase(ctx context.Context, d time.Duration, tr *tracer) phaseStats {
	for _, cs := range b.conns {
		for c := range cs.lat {
			cs.lat[c] = cs.lat[c][:0]
		}
		cs.attempted, cs.failed, cs.texts = 0, 0, cs.texts[:0]
		cs.writeB, cs.commits = 0, cs.commits[:0]
		cs.windows = make([]int, int(d/time.Second))
	}
	b.peakHeap.Store(0)
	b.peakLive.Store(0)
	b.walMu.Lock()
	b.walLast, b.checkpoints, b.ckptLat = b.db.Metrics().Get("sim_wal_size_bytes"), 0, nil
	b.walMu.Unlock()
	ps := phaseStats{before: b.readCounters()}
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		b.sample(stopSampler)
	}()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, cs := range b.conns {
		wg.Add(1)
		go func(cs *connState) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := cs.gen.next()
				if b.issue(ctx, cs, &o, tr) {
					if w := int(time.Since(start) / time.Second); w < len(cs.windows) {
						cs.windows[w]++
					}
				}
			}
		}(cs)
	}
	wg.Wait()
	ps.elapsed = time.Since(start)
	close(stopSampler)
	sampler.Wait()
	ps.after = b.readCounters()
	// Two collections also empty the sync.Pool victim caches. The
	// benchmark's own sample buffers grow with the operation count, so
	// they are taken out.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.liveHeap = ms.HeapInuse - b.ownHeap()
	for _, cs := range b.conns {
		ps.completed += cs.attempted - cs.failed
	}
	for w := range b.conns[0].windows {
		n := 0
		for _, cs := range b.conns {
			n += cs.windows[w]
		}
		ps.rates = append(ps.rates, float64(n))
	}
	b.walMu.Lock()
	ps.checkpoints = b.checkpoints
	for _, l := range b.ckptLat {
		ps.ckptLat = append(ps.ckptLat, float64(l))
	}
	b.walMu.Unlock()
	ps.peakHeap, ps.peakLive = b.peakHeap.Load(), b.peakLive.Load()
	return ps
}

// issue runs one operation and records its latency or failure; it
// reports whether the operation completed.
func (b *bench) issue(ctx context.Context, cs *connState, o *op, tr *tracer) bool {
	if id := o.textID(); id >= -1 {
		cs.texts = append(cs.texts, id)
	}
	sampled := tr != nil && tr.sample()
	if sampled {
		tr.mu.Lock()
		defer tr.mu.Unlock()
	}
	start := time.Now()
	err := b.do(ctx, cs, o, tr != nil)
	end := time.Now()
	cs.attempted++
	if err != nil {
		cs.failed++
		if len(cs.errs) < 5 {
			cs.errs = append(cs.errs, fmt.Sprintf("conn %d %s: %v", cs.id, classNames[o.kind.class()], err))
		}
		return false
	}
	lat := int64(end.Sub(start))
	c := o.kind.class()
	cs.lat[c] = append(cs.lat[c], lat)
	if o.kind == opRMW || o.kind == opInsert {
		b.noteWAL(lat)
	}
	if sampled {
		if err := tr.replay(ctx, b, cs, o, start, end); err != nil && len(cs.errs) < 5 {
			cs.errs = append(cs.errs, fmt.Sprintf("conn %d replay: %v", cs.id, err))
			cs.failed++
		}
	}
	return true
}

// noteWAL counts auto-checkpoints: a write after which the WAL is shorter
// than the last write saw paid for (or raced with) a checkpoint.
func (b *bench) noteWAL(lat int64) {
	b.walMu.Lock()
	cur := b.db.Metrics().Get("sim_wal_size_bytes")
	if cur < b.walLast {
		b.checkpoints++
		b.ckptLat = append(b.ckptLat, lat)
	}
	b.walLast = cur
	b.walMu.Unlock()
}

// do sends one operation and checks its answer.
func (b *bench) do(ctx context.Context, cs *connState, o *op, traced bool) error {
	switch o.kind {
	case opLookup, opEVA, opReport:
		res, err := cs.conn.QueryCtx(ctx, o.text(b.u))
		if err != nil {
			return err
		}
		return b.check(o, res.Rows())
	case opRMW:
		st := &b.u.students[o.student]
		tx, err := cs.conn.Begin(ctx)
		if err != nil {
			return err
		}
		res, err := tx.Query(ctx, birthQuery(st.ssn))
		if err == nil {
			rows := res.Rows()
			if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != b.births[o.student] {
				err = fmt.Errorf("%w: birthdate of %d: got %v, want %s", errMismatch, st.ssn, rows, st.birth)
			}
		}
		if err == nil {
			var n int
			if n, err = tx.Exec(ctx, modifyNbr(st.ssn, o.nbr)); err == nil && n != 1 {
				err = fmt.Errorf("%w: modify of %d touched %d entities", errMismatch, st.ssn, n)
			}
		}
		if err != nil {
			tx.Rollback(ctx)
			return err
		}
		if traced {
			ci, err := tx.TraceCommit(ctx)
			if err != nil {
				return err
			}
			cs.commits = append(cs.commits, commitSample{int64(ci.LatchWaitNS), int64(ci.EnqueueWaitNS), int64(ci.FsyncNS), int64(ci.TotalNS)})
		} else if err := tx.Commit(ctx); err != nil {
			return err
		}
		cs.lastNbr[o.student] = o.nbr
		cs.writeB += scalarBytes
		return nil
	case opInsert:
		n, err := cs.conn.ExecCtx(ctx, o.ins.stmt(o.nbr))
		if err != nil {
			return err
		}
		if n != 1 {
			return fmt.Errorf("%w: insert of %d touched %d entities", errMismatch, o.ins.ssn, n)
		}
		cs.inserted = append(cs.inserted, insertAck{o.ins, o.nbr})
		cs.writeB += studentBytes(o.ins.name)
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// check compares a read's rows with the generator's answer.
func (b *bench) check(o *op, rows [][]value.Value) error {
	switch o.kind {
	case opLookup:
		st := &b.u.students[o.student]
		if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].Str() != st.name {
			return fmt.Errorf("%w: name of %d: got %v, want %q", errMismatch, st.ssn, rows, st.name)
		}
	case opEVA:
		st := &b.u.students[o.student]
		if len(rows) != enrollPer {
			return fmt.Errorf("%w: courses of %d: got %d rows, want %d", errMismatch, st.ssn, len(rows), enrollPer)
		}
		for _, row := range rows {
			if len(row) != 2 || row[0].Str() != st.name || !st.enrolled(b.u, row[1].Str()) {
				return fmt.Errorf("%w: courses of %d: unexpected row %v", errMismatch, st.ssn, row)
			}
		}
		if rows[0][1] == rows[1][1] || rows[0][1] == rows[2][1] || rows[1][1] == rows[2][1] {
			return fmt.Errorf("%w: courses of %d: duplicate titles %v", errMismatch, st.ssn, rows)
		}
	case opReport:
		if len(rows) != len(b.report) {
			return fmt.Errorf("%w: report: got %d rows, want %d", errMismatch, len(rows), len(b.report))
		}
		for i, row := range rows {
			if !slices.Equal(row, b.report[i]) {
				return fmt.Errorf("%w: report row %d: got %v, want %v", errMismatch, i, row, b.report[i])
			}
		}
	}
	return nil
}

func (st *student) enrolled(u *universe, title string) bool {
	for _, c := range st.courses {
		if u.titles[c] == title {
			return true
		}
	}
	return false
}

// sample tracks the peak heap in use and the peak count of retained page
// versions until stop closes.
func (b *bench) sample(stop <-chan struct{}) {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if h := s[0].Value.Uint64() + s[1].Value.Uint64(); h > b.peakHeap.Load() {
			b.peakHeap.Store(h)
		}
		if v := int64(b.db.Metrics().Get("sim_mvcc_live_versions")); v > b.peakLive.Load() {
			b.peakLive.Store(v)
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// counters is a snapshot of the engine and runtime counters a phase
// reports deltas of (ResetStats does not reset the WAL totals).
type counters struct {
	st         sim.Stats
	bytesIn    float64
	bytesOut   float64
	conflicts  float64
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	cpu        time.Duration // process user plus system CPU time
	ticks      uint64        // host CPU ticks, all states
	steal      uint64        // host CPU ticks stolen by the hypervisor
}

func (b *bench) readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	r := b.db.Metrics()
	ticks, steal := cpuTicks()
	return counters{
		ticks:      ticks,
		steal:      steal,
		st:         b.db.Stats(),
		bytesIn:    r.Get("sim_server_bytes_in_total"),
		bytesOut:   r.Get("sim_server_bytes_out_total"),
		conflicts:  r.Get("sim_conflict_entities"),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// ownHeap returns the bytes of the benchmark's per-operation buffers.
func (b *bench) ownHeap() uint64 {
	var n uintptr
	for _, cs := range b.conns {
		for _, l := range cs.lat {
			n += uintptr(cap(l)) * unsafe.Sizeof(l[0])
		}
		n += uintptr(cap(cs.texts))*unsafe.Sizeof(int32(0)) + uintptr(cap(cs.inserted))*unsafe.Sizeof(insertAck{})
	}
	return uint64(n)
}

// cpuTicks reads the host's CPU accounting: all ticks and the ticks
// stolen from this machine's virtual CPUs by the hypervisor (0 on bare
// metal).
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// fileBytes returns the database plus WAL bytes on disk.
func (b *bench) fileBytes() (int64, error) {
	var n int64
	for _, p := range []string{b.path, b.path + ".wal"} {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// verifyDurable closes the database, reopens it from its files and checks
// that every acknowledged write is there and the files scrub clean.
func (b *bench) verifyDurable() error {
	if err := b.db.Close(); err != nil {
		return err
	}
	b.db = nil
	db, err := openDB(b.path, b.cfg)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer db.Close()
	res, err := db.Query("From student Retrieve soc-sec-no, student-nbr, name.")
	if err != nil {
		return err
	}
	type row struct {
		nbr  int64
		name string
	}
	got := map[int64]row{}
	for _, r := range res.Rows() {
		got[r[0].Int()] = row{r[1].Int(), r[2].Str()}
	}
	want := len(b.u.students)
	for s, st := range b.u.students {
		nbr := st.nbr
		if n, ok := b.conns[s%conns].lastNbr[s]; ok {
			nbr = n
		}
		if g, ok := got[int64(st.ssn)]; !ok || g.nbr != int64(nbr) || g.name != st.name {
			return fmt.Errorf("after reopen, student %d is %+v, want student-nbr %d name %q", st.ssn, g, nbr, st.name)
		}
	}
	for _, cs := range b.conns {
		for _, a := range cs.inserted {
			if g, ok := got[int64(a.in.ssn)]; !ok || g.nbr != int64(a.nbr) || g.name != a.in.name {
				return fmt.Errorf("after reopen, inserted student %d is %+v, want student-nbr %d name %q", a.in.ssn, g, a.nbr, a.in.name)
			}
		}
		want += len(cs.inserted)
	}
	if len(got) != want {
		return fmt.Errorf("after reopen, %d students, want %d", len(got), want)
	}
	rep, err := db.Scrub()
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("scrub after reopen: %s", rep)
	}
	return nil
}

func (b *bench) removeFiles() {
	os.RemoveAll(filepath.Dir(b.path))
}
