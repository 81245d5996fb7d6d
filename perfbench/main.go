// Command perfbench is SIM's benchmark. It runs one workload as two
// closed-loop client connections through the client package to an
// in-process server on loopback, checks every answer, and prints one JSON
// result line. With -trace 0 the line carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a traced replay run.
//
// Run it from the repository root:
//
//	python3 perfbench/run.py --workload hot-read --seed 1 --seconds 20 --trace 0
//
// which builds this package and runs it with the same flags. See
// README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	setupReps       = 3           // populations per run; setup_s is their median
	warmup          = time.Second // untimed, verified warm-up before measuring
	minSamples      = 1000        // per operation class, for the percentiles
	lucCacheRecords = 1024        // the LUC record cache's capacity (luc.rcacheCap)
	planCacheSize   = 256         // sim.Config.PlanCacheSize default
	guardHotTexts   = 70          // hot-read: at most this many distinct statements
	guardColdNew    = 0.90        // cold-read: share of statements an LRU plan cache would miss
	guardColdFile   = 4           // cold-read: file at least this many times the pool
	guardCkptPer10s = 3           // write-mix: WAL checkpoints per 10 s measured
	pageBytes       = 4096        // pager.PageSize
	mib             = 1 << 20
)

// errGuard marks a workload whose inputs drifted from what it claims.
var errGuard = errors.New("input guard")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload *workload
	seed     uint64
	seconds  float64
	trace    bool
	out      string // build/run directory inside the checkout
	src      string // source tree to stamp
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: hot-read, cold-read or write-mix")
	seed := fl.Uint64("seed", 1, "workload seed: data, keys and operation sequence")
	seconds := fl.Float64("seconds", 20, "measured seconds per phase")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced replay run with per-layer metrics")
	out := fl.String("out", ".bench_build", "directory for database files, spans and result records")
	src := fl.String("src", ".", "source tree whose digest stamps the result")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, src: *src}
	if opt.workload = workloadByName(*name); opt.workload == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload hot-read|cold-read|write-mix, -trace 0|1, -seconds > 0\n")
		return 2
	}
	res, err := runWorkload(context.Background(), opt, stderr)
	if err != nil && res == nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(res.line())
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Env       map[string]any    `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"` // the result line's metrics
	Report    map[string]metric `json:"report"`  // every figure, for the record
	Rates     []float64         `json:"rates"`   // completed ops per one-second window of the measured phase
	order     []string
}

// line is the result's last-line form.
func (r *result) line() any {
	m := map[string]map[string]any{}
	for k, v := range r.Metrics {
		m[k] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": m}
}

func (r *result) add(name string, v float64, unit string, samples int) {
	if _, dup := r.Report[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Report[name] = metric{v, unit, samples}
}

// endToEnd names the metrics of a -trace 0 result line, all of which every
// workload produces.
var endToEnd = []string{
	"setup_s", "ops_per_s",
	"lookup_p50_us", "eva_p50_us",
	"cpu_us_per_op", "heap_mib", "space_amp",
}

// layerCounters are the per-layer figures taken from counters, in
// report order, after the e2e.* figures that only some workloads have.
var layerCounters = []string{
	"e2e.lookup_p99_us", "e2e.eva_p99_us",
	"e2e.report_p50_ms", "e2e.report_p99_ms", "e2e.commit_p50_us", "e2e.commit_p99_us",
	"e2e.write_amp", "e2e.fail_ratio",
	"wire.bytes_per_op", "sim.plan_hit_ratio", "sim.commit_us", "exec.instances_per_row",
	"luc.cache_hit_ratio", "dmsii.latch_wait_us", "dmsii.entity_conflicts",
	"dmsii.live_versions_max", "dmsii.checkpoints", "dmsii.checkpoint_ms",
	"btree.pages_per_seek", "pager.hit_ratio", "pager.reads_per_op", "pager.misses_per_op",
	"pager.page_writes_per_commit", "wal.fsyncs_per_commit", "wal.bytes_per_commit",
	"wal.group_mean", "wal.enqueue_wait_us", "wal.fsync_us",
	"go.allocs_per_op", "go.bytes_per_op", "go.gc_pause_ms", "go.heap_peak_mib", "host.steal_ratio",
	"trace.overhead_ratio", "trace.unattributed_self", "trace.spans",
}

// perLayer names the metrics of a -trace 1 result line: every workload
// reports all of them, 0 where a layer does no work (no commits on the
// read workloads, no reports off hot-read).
func perLayer() []string {
	names := append([]string(nil), layerCounters...)
	for _, call := range timedCalls {
		unit := "_us"
		if call == "btree.next" {
			unit = "_ns"
		}
		names = append(names, call+unit, call+"_allocs", call+"_self")
	}
	return names
}

func runWorkload(ctx context.Context, opt options, log io.Writer) (*result, error) {
	w := opt.workload
	dir, err := filepath.Abs(filepath.Join(opt.out, "run", fmt.Sprintf("%s-%d-%d", w.name, opt.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, u: newUniverse(opt.seed, w.scale)}
	b.cfg.PoolPages = w.poolPages

	// Set-up: populate several fresh databases, keep the last.
	reps := setupReps
	if opt.trace {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if b.db != nil {
			b.db.Close()
		}
		b.path = filepath.Join(dir, fmt.Sprintf("db%d", i), "univ.sim")
		if err := os.MkdirAll(filepath.Dir(b.path), 0o755); err != nil {
			return nil, err
		}
		d, err := b.setupDB(ctx, b.path)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	defer func() {
		if b.db != nil {
			b.db.Close()
		}
	}()
	dataBytes, err := b.fileBytes()
	if err != nil {
		return nil, err
	}
	poolPages := w.poolPages
	if poolPages == 0 {
		poolPages = 1024
	}
	if w.name == "cold-read" && dataBytes < guardColdFile*int64(poolPages)*pageBytes {
		return nil, fmt.Errorf("%w: cold-read file is %d bytes, under %dx the %d-page pool", errGuard, dataBytes, guardColdFile, poolPages)
	}
	if err := b.expectations(); err != nil {
		return nil, fmt.Errorf("expected answers: %w", err)
	}
	var tr *tracer
	if opt.trace {
		rs, err := newReplayStack(b.path, w.poolPages)
		if err != nil {
			return nil, fmt.Errorf("replay stack: %w", err)
		}
		defer rs.close()
		tr = newTracer(rs, opt.seed)
	}
	if err := b.start(opt.seed); err != nil {
		b.stop()
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			b.stop()
		}
	}()

	res := &result{
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Env:     envStamp(opt, dir, poolPages, dataBytes),
		Metrics: map[string]metric{}, Report: map[string]metric{},
	}
	measured := time.Duration(opt.seconds * float64(time.Second))
	total := func() {
		for _, cs := range b.conns {
			res.Attempted += cs.attempted
			res.Failed += cs.failed
		}
	}
	b.runPhase(ctx, warmup, nil)
	total()
	main := b.runPhase(ctx, measured, nil)
	total()
	b.endToEnd(res, main, setups)
	guardErr := b.guards(main, opt.seconds)
	if opt.trace {
		traced := b.runPhase(ctx, measured, tr)
		total()
		b.layers(res, main, traced, tr)
		if err := tr.allocPass(ctx, b, b.conns[0]); err != nil {
			res.Errors = append(res.Errors, "allocation pass: "+err.Error())
		}
		tr.layerFigures(res)
		if err := tr.writeSpans(filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, opt.seed))); err != nil {
			return nil, err
		}
	}
	for _, cs := range b.conns {
		res.Errors = append(res.Errors, cs.errs...)
	}

	// Durability, then space: after writes, reopen from the files and
	// check every acknowledged write. Space is measured once the database
	// is closed, so the WAL is checkpointed away and the figure does not
	// depend on where in the checkpoint cycle the run stopped.
	b.stop()
	stopped = true
	if w.writes() {
		if err := b.verifyDurable(); err != nil {
			res.Errors = append(res.Errors, "durability: "+err.Error())
		}
	} else if err := b.db.Close(); err != nil {
		return nil, err
	}
	b.db = nil
	onDisk, err := b.fileBytes()
	if err != nil {
		return nil, err
	}
	user := b.userBytes
	for _, cs := range b.conns {
		for _, a := range cs.inserted {
			user += studentBytes(a.in.name)
		}
	}
	res.add("space_amp", float64(onDisk)/float64(user), "ratio", 0)
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	names := endToEnd
	if opt.trace {
		names = perLayer()
	}
	for _, name := range names {
		m, ok := res.Report[name]
		if !ok {
			res.Errors = append(res.Errors, "metric not measured: "+name)
		}
		res.Metrics[name] = m
	}
	res.print(log)
	if err := res.save(opt.out); err != nil {
		return res, err
	}
	if guardErr != nil {
		return nil, guardErr
	}
	if !res.Correct {
		return res, fmt.Errorf("verification failed: %d of %d operations failed; %s", res.Failed, res.Attempted, strings.Join(res.Errors, "; "))
	}
	return res, nil
}

// endToEnd records the metrics a user of the system sees.
func (b *bench) endToEnd(res *result, ps phaseStats, setups []float64) {
	res.add("setup_s", median(setups), "s", len(setups))
	res.add("ops_per_s", ps.opsPerSecond(), "1/s", ps.completed)
	res.Rates = ps.rates
	lat := b.latencies()
	for _, c := range []struct {
		class int
		name  string
		unit  string
		scale float64
	}{
		{classLookup, "lookup", "us", 1e3},
		{classEVA, "eva", "us", 1e3},
		{classReport, "report", "ms", 1e6},
		{classCommit, "commit", "us", 1e3},
	} {
		xs := lat[c.class]
		if len(xs) == 0 {
			continue
		}
		res.add(c.name+"_p50_"+c.unit, percentile(xs, 0.50)/c.scale, c.unit, len(xs))
		res.add(c.name+"_p99_"+c.unit, percentile(xs, 0.99)/c.scale, c.unit, len(xs))

	}
	res.add("heap_mib", float64(ps.liveHeap)/mib, "MiB", 0)
	d := ps.delta()
	res.Env["host_steal"] = ratio(float64(d.steal), float64(d.ticks))
	res.add("cpu_us_per_op", float64(d.cpu.Microseconds())/float64(ps.completed), "us", ps.completed)
	var attempted, failed int
	var writeB int64
	for _, cs := range b.conns {
		attempted += cs.attempted
		failed += cs.failed
		writeB += cs.writeB
	}
	res.add("fail_ratio", ratio(float64(failed), float64(attempted)), "ratio", attempted)
	if writeB > 0 {
		res.add("write_amp", float64(d.st.WAL.Bytes+d.st.Pool.PageWrites*pageBytes)/float64(writeB), "ratio", 0)
	}
}

// latencies merges the connections' samples by class, sorted.
func (b *bench) latencies() [numClasses][]float64 {
	var out [numClasses][]float64
	for c := range out {
		for _, cs := range b.conns {
			for _, ns := range cs.lat[c] {
				out[c] = append(out[c], float64(ns))
			}
		}
		sort.Float64s(out[c])
	}
	return out
}

// guards refuses a run whose inputs drifted from the workload's claims.
// They look only at what the benchmark sent, never at cache counters, so
// a better cache is never rejected.
func (b *bench) guards(ps phaseStats, seconds float64) error {
	switch b.w.name {
	case "hot-read":
		distinct := map[int32]bool{}
		for _, cs := range b.conns {
			for _, id := range cs.texts {
				distinct[id] = true
			}
		}
		if len(distinct) > guardHotTexts {
			return fmt.Errorf("%w: hot-read sent %d distinct statements, over %d", errGuard, len(distinct), guardHotTexts)
		}
	case "cold-read":
		if share := lruMissShare(b.conns, planCacheSize); share <= guardColdNew {
			return fmt.Errorf("%w: cold-read sent %.1f%% statements new to a %d-entry cache, want > %.0f%%", errGuard, 100*share, planCacheSize, 100*guardColdNew)
		}
	case "write-mix":
		want := max(1, int(guardCkptPer10s*seconds/10+0.5))
		if ps.checkpoints < want {
			return fmt.Errorf("%w: write-mix crossed the WAL checkpoint threshold %d times, want >= %d", errGuard, ps.checkpoints, want)
		}
	}
	return nil
}

// lruMissShare is the share of read statements, interleaved round-robin
// across connections, that an LRU cache of the given capacity keyed by
// statement text would not hold.
func lruMissShare(conns []*connState, capacity int) float64 {
	last := map[int32]int{} // text -> position of its last use
	var seq []int32
	for i := 0; ; i++ {
		more := false
		for _, cs := range conns {
			if i < len(cs.texts) {
				seq = append(seq, cs.texts[i])
				more = true
			}
		}
		if !more {
			break
		}
	}
	// A text hits when fewer than capacity distinct texts were used since
	// its last use; count them with a Fenwick tree over positions.
	tree := make([]int, len(seq)+1)
	add := func(i, v int) {
		for i++; i < len(tree); i += i & -i {
			tree[i] += v
		}
	}
	sum := func(i int) int { // positions [0, i]
		s := 0
		for i++; i > 0; i -= i & -i {
			s += tree[i]
		}
		return s
	}
	misses := 0
	for pos, id := range seq {
		prev, seen := last[id]
		if !seen || sum(pos-1)-sum(prev) >= capacity {
			misses++
		}
		if seen {
			add(prev, -1)
		}
		add(pos, 1)
		last[id] = pos
	}
	return ratio(float64(misses), float64(len(seq)))
}

// layers records the per-layer figures: counter deltas from the untraced
// phase, and the traced phase's commit breakdowns and overhead.
func (b *bench) layers(res *result, untraced, traced phaseStats, tr *tracer) {
	d := untraced.delta()
	ops := float64(untraced.completed)
	for _, e := range []struct{ name, unit string }{
		{"lookup_p99_us", "us"}, {"eva_p99_us", "us"}, {"report_p50_ms", "ms"}, {"report_p99_ms", "ms"},
		{"commit_p50_us", "us"}, {"commit_p99_us", "us"}, {"write_amp", "ratio"}, {"fail_ratio", "ratio"},
	} {
		m, ok := res.Report[e.name]
		if !ok {
			m = metric{Unit: e.unit}
		}
		res.add("e2e."+e.name, m.Value, m.Unit, m.Samples)
	}
	res.add("wire.bytes_per_op", (d.bytesIn+d.bytesOut)/ops, "B", 0)
	res.add("sim.plan_hit_ratio", ratio(float64(d.st.Plans.Hits), float64(d.st.Plans.Hits+d.st.Plans.Misses)), "ratio", 0)
	var cm [4][]float64
	for _, cs := range b.conns {
		for _, c := range cs.commits {
			for i, v := range []int64{c.latch, c.enqueue, c.fsync, c.total} {
				cm[i] = append(cm[i], float64(v))
			}
		}
	}
	res.add("sim.commit_us", median(cm[3])/1e3, "us", len(cm[3]))
	res.add("exec.instances_per_row", ratio(float64(tr.instances), float64(tr.rows)), "ratio", 0)
	res.add("luc.cache_hit_ratio", ratio(float64(d.st.Cache.Hits), float64(d.st.Cache.Hits+d.st.Cache.Misses)), "ratio", 0)
	res.add("dmsii.latch_wait_us", median(cm[0])/1e3, "us", len(cm[0]))
	res.add("dmsii.entity_conflicts", d.conflicts, "count", 0)
	res.add("dmsii.live_versions_max", float64(untraced.peakLive), "count", 0)
	res.add("dmsii.checkpoints", float64(untraced.checkpoints), "count", 0)
	res.add("dmsii.checkpoint_ms", median(untraced.ckptLat)/1e6, "ms", len(untraced.ckptLat))
	res.add("btree.pages_per_seek", ratio(float64(tr.seekPages), float64(tr.seeks)), "count", 0)
	reads := float64(d.st.Pool.Hits + d.st.Pool.Misses)
	res.add("pager.hit_ratio", ratio(float64(d.st.Pool.Hits), reads), "ratio", 0)
	res.add("pager.reads_per_op", reads/ops, "count", 0)
	res.add("pager.misses_per_op", float64(d.st.Pool.Misses)/ops, "count", 0)
	commits := float64(d.st.WAL.Commits)
	res.add("pager.page_writes_per_commit", ratio(float64(d.st.Pool.PageWrites), commits), "count", 0)
	res.add("wal.fsyncs_per_commit", ratio(float64(d.st.WAL.Syncs), commits), "count", 0)
	res.add("wal.bytes_per_commit", ratio(float64(d.st.WAL.Bytes), commits), "B", 0)
	res.add("wal.group_mean", ratio(commits, float64(d.st.WAL.Syncs)), "count", 0)
	res.add("wal.enqueue_wait_us", median(cm[1])/1e3, "us", len(cm[1]))
	res.add("wal.fsync_us", median(cm[2])/1e3, "us", len(cm[2]))
	res.add("go.allocs_per_op", float64(d.mallocs)/ops, "count", 0)
	res.add("go.bytes_per_op", float64(d.allocBytes)/ops, "B", 0)
	res.add("go.gc_pause_ms", float64(d.gcPauseNs)/1e6, "ms", 0)
	res.add("go.heap_peak_mib", float64(untraced.peakHeap)/mib, "MiB", 0)
	res.add("host.steal_ratio", ratio(float64(d.steal), float64(d.ticks)), "ratio", 0)
	res.add("trace.overhead_ratio", 1-ratio(traced.opsPerSecond(), untraced.opsPerSecond()), "ratio", traced.completed)
}

func (ps phaseStats) delta() counters {
	a, b := ps.after, ps.before
	a.st.Pool.Hits -= b.st.Pool.Hits
	a.st.Pool.Misses -= b.st.Pool.Misses
	a.st.Pool.PageWrites -= b.st.Pool.PageWrites
	a.st.Plans.Hits -= b.st.Plans.Hits
	a.st.Plans.Misses -= b.st.Plans.Misses
	a.st.Cache.Hits -= b.st.Cache.Hits
	a.st.Cache.Misses -= b.st.Cache.Misses
	a.st.WAL.Commits -= b.st.WAL.Commits
	a.st.WAL.Bytes -= b.st.WAL.Bytes
	a.st.WAL.Syncs -= b.st.WAL.Syncs
	a.bytesIn -= b.bytesIn
	a.bytesOut -= b.bytesOut
	a.conflicts -= b.conflicts
	a.mallocs -= b.mallocs
	a.allocBytes -= b.allocBytes
	a.gcPauseNs -= b.gcPauseNs
	a.cpu -= b.cpu
	a.ticks -= b.ticks
	a.steal -= b.steal
	return a
}

// envStamp records where and on what the run happened.
func envStamp(opt options, dir string, poolPages int, dataBytes int64) map[string]any {
	return map[string]any{
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"nproc":             runtime.NumCPU(),
		"go":                runtime.Version(),
		"commit":            sourceDigest(opt.src),
		"db_fs":             fsType(dir),
		"pool_pages":        poolPages,
		"data_bytes":        dataBytes,
		"luc_cache_records": lucCacheRecords,
		"connections":       conns,
		"loop":              "closed",
		"flush":             "default: one WAL sync per commit group; the sync ends at the page cache (storage.go)",
	}
}

// sourceDigest names the code measured: the git commit when the tree is a
// checkout with history, else a SHA-256 over its Go sources and go.mod
// files.
func sourceDigest(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(strings.TrimPrefix(string(head), "ref: "))
		if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(sha))
		}
		return ref
	}
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			if data, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// print writes a human-readable report: every figure with its unit and
// sample count, then the environment.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, name := range r.order {
		m := r.Report[name]
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
			if m.Samples < minSamples && strings.Contains(name, "_p99_") {
				n += "  [under 1000 samples]"
			}
		}
		fmt.Fprintf(w, "  %-32s %14.4f %-6s%s\n", name, m.Value, m.Unit, n)
	}
	keys := make([]string, 0, len(r.Env))
	for k := range r.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  env %s=%v\n", k, r.Env[k])
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// save writes the full record under out/results.
func (r *result) save(out string) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, map[bool]int{false: 0, true: 1}[r.Trace])
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
