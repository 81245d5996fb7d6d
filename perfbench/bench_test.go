package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the result lines must
// match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// TestShortRuns runs every workload briefly, untraced and traced: each
// run must pass its answer checks and durability check, fail nothing, and
// print exactly the metrics BENCHMARK.json names, with their units.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				// write-mix needs a few seconds to cross the WAL
				// checkpoint threshold its input guard asks for.
				seconds := "1.5"
				if w.Name == "write-mix" {
					seconds = "3"
				}
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.Name, "-seed", "7", "-seconds", seconds,
					"-trace", trace, "-out", t.TempDir(), "-src", ".."}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				} else if fr := res.Metrics["e2e.fail_ratio"]; fr.Value != 0 {
					t.Errorf("fail_ratio = %v", fr.Value)
				}
			})
		}
	}
}

// TestSeedFixesOperations checks that a seed names the data and each
// connection's operation sequence, and that another seed changes both.
func TestSeedFixesOperations(t *testing.T) {
	seq := func(seed uint64, w *workload) ([][]op, *universe) {
		u := newUniverse(seed, w.scale)
		var out [][]op
		for _, g := range newGenerators(seed, w, u) {
			var ops []op
			for i := 0; i < 2000; i++ {
				ops = append(ops, g.next())
			}
			out = append(out, ops)
		}
		return out, u
	}
	for _, w := range workloads {
		a, ua := seq(1, w)
		b, ub := seq(1, w)
		c, uc := seq(2, w)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ua, ub) {
			t.Errorf("%s: the same seed gave different operations or data", w.name)
		}
		if reflect.DeepEqual(a, c) || reflect.DeepEqual(ua, uc) {
			t.Errorf("%s: seeds 1 and 2 gave the same operations or data", w.name)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("%s: both connections send the same sequence", w.name)
		}
	}
}

func TestMixesAreWhole(t *testing.T) {
	for _, w := range workloads {
		sum := 0
		for _, p := range w.mix {
			sum += p
		}
		if sum != 100 {
			t.Errorf("%s mix sums to %d%%", w.name, sum)
		}
	}
}

func TestLRUMissShare(t *testing.T) {
	cycle := func(distinct, n int) *connState {
		cs := &connState{}
		for i := 0; i < n; i++ {
			cs.texts = append(cs.texts, int32(i%distinct))
		}
		return cs
	}
	// Cycling through exactly the capacity misses only the first pass;
	// one more text than the capacity misses every time, as in an LRU.
	if got := lruMissShare([]*connState{cycle(4, 40)}, 4); got != 0.1 {
		t.Errorf("4 texts, capacity 4: miss share %v, want 0.1", got)
	}
	if got := lruMissShare([]*connState{cycle(5, 40)}, 4); got != 1 {
		t.Errorf("5 texts, capacity 4: miss share %v, want 1", got)
	}
}
