package sim

import (
	"testing"
)

// triLogicQueries are the three-valued-logic edge cases pinned by
// testdata/trilogic.golden: NULL flowing through comparisons, connectives
// and quantifiers, aggregates over empty and all-NULL multisets, and the
// short-circuit behavior of and/or under Kleene logic (§4.3: "a
// three-valued logic (True, False, Unknown) is used"). Serial and
// parallel execution must reproduce the golden exactly — rows, row order
// and errors (see TestTriLogicGolden).
var triLogicQueries = []string{
	// NULL in arithmetic and comparisons: bonus is NULL for Ann Smith
	// and Bob Stone, so salary + bonus is NULL and every comparison
	// against it is Unknown (row filtered out, not an error).
	`From instructor Retrieve name, salary + bonus Order By name.`,
	`From instructor Retrieve name Where salary + bonus > 0 Order By name.`,
	`From instructor Retrieve name Where bonus = 1000 Order By name.`,
	`From instructor Retrieve name Where bonus <> 1000 Order By name.`,

	// Kleene connectives: Unknown or True = True, Unknown and False =
	// False, not Unknown = Unknown. Rows qualify only on True.
	`From instructor Retrieve name Where bonus > 500 or salary > 55000 Order By name.`,
	`From instructor Retrieve name Where bonus > 500 and salary > 40000 Order By name.`,
	`From instructor Retrieve name Where not (bonus > 500) Order By name.`,
	`From instructor Retrieve name Where not (bonus > 500) or salary < 50000 Order By name.`,

	// Short-circuiting must not change results: the right operand's
	// truth value is irrelevant once the left decides.
	`From instructor Retrieve name Where salary > 0 or bonus > 999999 Order By name.`,
	`From instructor Retrieve name Where salary < 0 and bonus > 0 Order By name.`,

	// NULL through quantifiers: NoAdv Kid has no advisor (EVA NULL), and
	// quantified comparisons against empty/NULL target sets.
	`From student Retrieve name Where name of advisor = "Joe Bloke" Order By name.`,
	`From instructor Retrieve name Where some(advisees) Order By name.`,
	`From instructor Retrieve name Where no(advisees) Order By name.`,
	`From student Retrieve name Where major-department = some(assigned-department of advisor) Order By name.`,
	`From student Retrieve name Where major-department = all(assigned-department of advisor) Order By name.`,
	`From student Retrieve name Where major-department = no(assigned-department of advisor) Order By name.`,

	// Aggregates over empty multisets (count = 0, avg/sum/min/max NULL)
	// and all-NULL multisets (NULLs are not aggregated; Math's only
	// instructor has a NULL bonus).
	`From student Retrieve name, count(courses-enrolled) Order By name.`,
	`From department Retrieve name, avg(bonus of instructor) Order By name.`,
	`From department Retrieve name, sum(bonus of instructor) Order By name.`,
	`From department Retrieve name, max(bonus of instructor) Order By name.`,
	`From instructor Retrieve name, count(advisees) Order By name.`,
	`From student Retrieve name, sum(bonus of advisor) Order By name.`,
	`From department Retrieve avg(salary of instructor) Where dept-nbr = 100.`,

	// DISTINCT and structured output ride the same row pipeline.
	`From course Retrieve Table Distinct credits.`,
	`Retrieve Structure Name, Title of Courses-Enrolled of Student Where Student-Nbr = 1501.`,

	// Errors must agree too (ORDER BY inside structured output).
	`From instructor Retrieve name, salary * "x".`,
}

// TestTriLogicPinned pins absolute answers for the trickiest cases,
// independent of the golden files.
func TestTriLogicPinned(t *testing.T) {
	db := universityDB(t, Config{})
	// Unknown or True = True: all three instructors have salary > 40000,
	// so the NULL bonuses cannot exclude anyone.
	r := mustQuery(t, db, `From instructor Retrieve name Where bonus > 500 or salary > 44000 Order By name.`)
	expectRows(t, r, [][]string{{"Ann Smith"}, {"Bob Stone"}, {"Joe Bloke"}})
	// Unknown and True = Unknown: only Joe Bloke's bonus is non-NULL.
	r = mustQuery(t, db, `From instructor Retrieve name Where bonus > 500 and salary > 44000 Order By name.`)
	expectRows(t, r, [][]string{{"Joe Bloke"}})
	// not Unknown = Unknown: negation cannot resurrect a NULL row.
	r = mustQuery(t, db, `From instructor Retrieve name Where not (bonus > 500) Order By name.`)
	expectRows(t, r, [][]string{})
	// Aggregates skip NULLs: Tom's advisor (Ann) has a NULL bonus so his
	// multiset is all-NULL, and NoAdv Kid's advisor set is empty — both
	// sum to NULL (rendered ?) rather than zero. Tina Aide is a student
	// by subtyping; her advisor Ann also has a NULL bonus.
	r = mustQuery(t, db, `From student Retrieve name, sum(bonus of advisor) Order By name.`)
	expectRows(t, r, [][]string{
		{"John Doe", "1000"}, {"Mary Major", "1000"}, {"NoAdv Kid", "?"},
		{"Tina Aide", "?"}, {"Tom Thumb", "?"},
	})
}
