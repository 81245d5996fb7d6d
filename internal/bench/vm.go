package bench

import (
	"fmt"

	"sim"
)

// T13 — compiled evaluator (this repo's only executor): bound query trees
// lowered to chains of typed closures, range-variable bindings fed
// through batch-decoded records and reused domain buffers, output rows
// carved from a result-owned arena. Measured on the T9 hot queries after
// verifying that serial and parallel output are byte-identical.
func T13(w Workload, reps int) (*Table, error) {
	t := &Table{
		ID:     "T13",
		Title:  "Compiled evaluator: closure programs + batched bindings",
		Header: []string{"query", "time/query", "allocs/op", "B/op"},
		Notes: "output is checked byte-identical between serial and parallel execution\n" +
			"before measuring. allocs/op counts one whole Query call on a warm plan\n" +
			"cache: the program reuses pooled scratch, batch-decoded records and an\n" +
			"arena, so its remaining allocations are the result rows. Rows for the\n" +
			"former reference tree walker are historical (see EXPERIMENTS.md).",
	}
	queries := []struct{ name, q string }{
		{"scan+eva", `From student Retrieve name, name of advisor.`},
		{"point lookup", `From person Retrieve name Where soc-sec-no = 100000001.`},
	}

	// The serial database is measured; the parallel one only backs the
	// equality check.
	serial, err := BuildUniversity(sim.Config{Workers: 1}, w)
	if err != nil {
		return nil, fmt.Errorf("compiled: %w", err)
	}
	defer serial.Close()
	parallel, err := BuildUniversity(sim.Config{}, w)
	if err != nil {
		return nil, fmt.Errorf("compiled-parallel: %w", err)
	}
	defer parallel.Close()

	for _, q := range queries {
		ref, err := serial.Query(q.q)
		if err != nil {
			return nil, fmt.Errorf("compiled %s: %w", q.name, err)
		}
		got, err := parallel.Query(q.q)
		if err != nil {
			return nil, fmt.Errorf("compiled-parallel %s: %w", q.name, err)
		}
		if got.Format() != ref.Format() {
			return nil, fmt.Errorf("T13: parallel output diverged from serial output on %s", q.name)
		}
	}

	for _, q := range queries {
		stmt := q.q
		// The "compiled" suffix keys the row to its committed baseline
		// for -check-allocs.
		row, err := measureMem(q.name+" compiled",
			func() error { _, err := serial.Query(stmt); return err })
		if err != nil {
			return nil, err
		}
		t.Mem = append(t.Mem, row)
		t.Rows = append(t.Rows, []string{q.name, fmtNs(row.NsPerOp),
			fmt.Sprint(row.AllocsPerOp), fmt.Sprint(row.BytesPerOp)})
	}
	return t, nil
}

// fmtNs renders a ns/op figure as a duration string.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
