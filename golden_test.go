package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden files under testdata pin the evaluator's observable output:
// formatted rows, structured output and error texts for the tri-logic
// queries, and the affected counts, errors and final state of an update
// script covering target selection, assignment right-hand sides, EVA
// WITH filters and VERIFY. They were captured from the recursive
// reference evaluator that preceded the compiled programs, and are never
// regenerated: the programs must reproduce them byte for byte.

// goldenModes are the configurations checked against the goldens.
var goldenModes = []struct {
	name string
	cfg  Config
}{
	{"serial", Config{Workers: 1}},
	{"parallel", Config{}},
}

// checkGolden compares got with testdata/name.
func checkGolden(t *testing.T, name, mode, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: %s diverges at line %d:\ngot:  %q\nwant: %q", mode, path, i+1, g, w)
		}
	}
}

// renderQuery appends one query's formatted result, or its error text.
func renderQuery(b *strings.Builder, q string, res *Result, err error) {
	fmt.Fprintf(b, "=== %s\n", q)
	if err != nil {
		fmt.Fprintf(b, "--- error\n%s\n", err)
		return
	}
	fmt.Fprintf(b, "--- format\n%s--- structured\n%s", res.Format(), res.FormatStructured())
}

// TestTriLogicGolden runs every tri-logic query serially and on the
// default worker count and requires the golden rows, structured output
// and error texts.
func TestTriLogicGolden(t *testing.T) {
	for _, m := range goldenModes {
		db := universityDB(t, m.cfg)
		var b strings.Builder
		for _, q := range triLogicQueries {
			res, err := db.Query(q)
			renderQuery(&b, q, res, err)
		}
		checkGolden(t, "trilogic.golden", m.name, b.String())
	}
}

// updateScript drives every update-side use of the evaluator: WHERE
// selections with existential nodes and quantifiers (Modify, Delete,
// Insert FROM and the transaction prelatch), INCLUDE/EXCLUDE entity
// selections, right-hand sides reading the entity itself and
// single-valued EVA paths, the two right-hand-side binding errors, and
// VERIFY violations next to Unknown assertions that pass. Lines starting
// with "ddl:" extend the schema; "begin" and "commit" bracket a
// transaction.
var updateScript = []string{
	// Selections through existential nodes and quantifiers.
	`Modify instructor (bonus := 500) Where title of courses-taught = "Databases" and no(advisees).`,
	`Modify student (student-nbr := student-nbr + 100) Where credits of courses-enrolled = 5 and some(advisor).`,
	`Modify course (credits := credits + 1) Where credits = all(credits of prerequisites) and some(prerequisites).`,
	`Delete student Where name of major-department = "Math" and count(courses-enrolled) = 0.`,
	`Delete course Where no(students-enrolled) and title of prerequisites = "Mechanics".`,
	`Modify student (student-nbr := 1999) Where name = "Nobody".`,

	// Insert FROM: role extension of a selection, and an empty selection.
	`Insert instructor From person Where name = "NoAdv Kid" and no(profession) (employee-nbr := 1760, salary := 30000).`,
	`Insert instructor From person Where soc-sec-no = 1 (employee-nbr := 1761).`,

	// INCLUDE / EXCLUDE with WITH filters.
	`Modify student (courses-enrolled := include course with (credits = 5 and some(teachers))) Where name = "Tom Thumb".`,
	`Modify student (courses-enrolled := exclude courses-enrolled with (title = "Calculus I" or credits > 10)) Where name = "Mary Major".`,
	`Modify student (courses-enrolled := exclude courses-enrolled with (title = "Calculus I")) Where name = "Mary Major".`,
	`Modify instructor (advisees := include student with (name of major-department = "Math")) Where name = "Bob Stone".`,

	// Right-hand sides: the entity's own attributes, single-valued EVA
	// paths, and an aggregate over a multi-valued path.
	`Modify instructor (salary := salary + 1000) Where name = "Ann Smith".`,
	`Modify student (student-nbr := dept-nbr of assigned-department of advisor + 1400) Where name = "Tom Thumb".`,
	`Modify teaching-assistant (salary := salary of advisor / 2) Where name = "Tina Aide".`,
	`Modify student (student-nbr := 1700 + count(courses-enrolled)) Where name = "Mary Major".`,
	`Modify student (name := name of advisor) Where name = "Nobody".`,

	// Right-hand-side binding errors: a multi-valued traversal and an
	// unaggregated multi-valued read.
	`Modify course (credits := credits of prerequisites) Where course-no = 102.`,
	`Modify person (name := profession) Where name = "John Doe".`,

	// VERIFY: v1 and v2 violations, and Unknown assertions that pass.
	`Insert student (name := "Light Load", soc-sec-no := 456887770, student-nbr := 1504,
	   courses-enrolled := course with (title = "Databases")).`,
	`Modify instructor (salary := 99500) Where name = "Joe Bloke".`,
	`Modify instructor (salary := 250000) Where name = "Ann Smith".`,
	`Insert student (name := "No Load", soc-sec-no := 456887771, student-nbr := 1505).`,

	// An existentially quantified assertion: Unknown passes, a department
	// with no instructors passes vacuously, a definite False fails.
	`ddl: Verify paid on Department
	   assert salary of instructors-employed > 0
	   else "department has no paid instructor";`,
	`Modify instructor (salary := NULL) Where name = "Bob Stone".`,
	`Insert department (dept-nbr := 400, name := "Art").`,
	`Modify instructor (salary := 0) Where name = "Bob Stone".`,

	// A transaction: the prelatch selection runs on the read view.
	`begin`,
	`Modify instructor (bonus := 2000) Where name = "Bob Stone".`,
	`Modify instructor (salary := bonus * 10) Where bonus > 1500.`,
	`Delete student Where student-nbr = 1999.`,
	`commit`,
}

// updateDump is the final-state Retrieve dump of the update script.
var updateDump = []string{
	`From person Retrieve name, soc-sec-no, birthdate, profession Order By soc-sec-no.`,
	`From student Retrieve name, student-nbr, name of advisor, name of major-department Order By name.`,
	`From student Retrieve name, title of courses-enrolled Order By name, title of courses-enrolled.`,
	`From instructor Retrieve name, employee-nbr, salary, bonus, name of assigned-department Order By name.`,
	`From instructor Retrieve name, name of advisees Order By name, name of advisees.`,
	`From course Retrieve course-no, title, credits, count(prerequisites) Order By course-no.`,
	`From department Retrieve dept-nbr, name, count(instructors-employed) Order By dept-nbr.`,
}

// runUpdateScript executes the script on db and renders every step's
// outcome followed by the final-state dump.
func runUpdateScript(t *testing.T, db *Database) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	var tx *Tx
	for _, stmt := range updateScript {
		fmt.Fprintf(&b, "=== %s\n", stmt)
		var n int
		var err error
		switch {
		case stmt == "begin":
			tx, err = db.Begin(ctx)
		case stmt == "commit":
			err = tx.Commit()
			tx = nil
		case strings.HasPrefix(stmt, "ddl:"):
			err = db.DefineSchema(strings.TrimPrefix(stmt, "ddl:"))
		case tx != nil:
			n, err = tx.Exec(ctx, stmt)
		default:
			n, err = db.Exec(stmt)
		}
		if err != nil {
			fmt.Fprintf(&b, "--- error\n%s\n", err)
		} else {
			fmt.Fprintf(&b, "--- affected %d\n", n)
		}
	}
	for _, q := range updateDump {
		res, err := db.Query(q)
		renderQuery(&b, q, res, err)
	}
	return b.String()
}

// TestUpdateScriptGolden runs the update script serially and on the
// default worker count and requires the golden counts, errors and final
// state.
func TestUpdateScriptGolden(t *testing.T) {
	for _, m := range goldenModes {
		checkGolden(t, "update_script.golden", m.name, runUpdateScript(t, universityDB(t, m.cfg)))
	}
}
