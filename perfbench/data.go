package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"

	"sim"
	"sim/internal/university"
)

// The population is the university schema of the paper's Figure 2 at a
// given scale: scale 1 is 5 departments, 80 courses, 40 instructors and
// 400 students, each student enrolled in 3 distinct courses and the first
// 8 per instructor advised by that instructor. Names, birthdates,
// student numbers and enrollments come from the seed, so every answer a
// query returns is known to the generator before the query runs.

const (
	studentsPerScale    = 400
	instructorsPerScale = 40
	coursesPerScale     = 80
	departments         = 5
	enrollPer           = 3
	advisePer           = 8 // the schema caps advisees at 10

	studentSSNBase    = 200000000
	instructorSSNBase = 100000000
	insertSSNBase     = 300000000
	insertSSNStride   = 10000000 // per-connection soc-sec-no range for inserts

	// populateBatch is the number of students loaded per setup transaction.
	populateBatch = 100
)

type student struct {
	ssn     int
	name    string
	nbr     int
	birth   string
	advisor int // instructor index, -1 when unadvised
	dept    int
	courses [enrollPer]int

	lookupText string
	evaText    string
}

type instructor struct {
	name  string
	birth string
}

// universe is the seeded population and the statement texts that read it.
type universe struct {
	scale       int
	deptNames   []string
	titles      []string
	instructors []instructor
	students    []student
}

func newUniverse(seed uint64, scale int) *universe {
	rng := rand.New(rand.NewPCG(seed, 0xda7a))
	u := &universe{scale: scale}
	for d := 0; d < departments; d++ {
		u.deptNames = append(u.deptNames, "Dept "+word(rng, 8))
	}
	for c := 0; c < coursesPerScale*scale; c++ {
		u.titles = append(u.titles, fmt.Sprintf("Course %04d %s", c, word(rng, 10)))
	}
	for i := 0; i < instructorsPerScale*scale; i++ {
		u.instructors = append(u.instructors, instructor{name: "Instructor " + word(rng, 12), birth: date(rng)})
	}
	for s := 0; s < studentsPerScale*scale; s++ {
		st := student{
			ssn:     studentSSNBase + s,
			name:    "Student " + word(rng, 12),
			nbr:     idNumber(rng),
			birth:   date(rng),
			advisor: -1,
			dept:    rng.IntN(departments),
		}
		if s < advisePer*len(u.instructors) {
			st.advisor = s / advisePer
		}
		perm := rng.Perm(len(u.titles))
		copy(st.courses[:], perm[:enrollPer])
		st.lookupText = fmt.Sprintf("From person Retrieve name Where soc-sec-no = %d.", st.ssn)
		st.evaText = fmt.Sprintf("From student Retrieve name, title of courses-enrolled Where soc-sec-no = %d.", st.ssn)
		u.students = append(u.students, st)
	}
	return u
}

// word returns n seeded lowercase letters.
func word(rng *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + rng.IntN(26)))
	}
	return b.String()
}

// date returns a seeded birthdate between 1950 and 1999.
func date(rng *rand.Rand) string {
	return fmt.Sprintf("%d-%02d-%02d", 1950+rng.IntN(50), 1+rng.IntN(12), 1+rng.IntN(28))
}

// idNumber returns a seeded value of the schema's id-number type
// (1001..39999, 60001..99999).
func idNumber(rng *rand.Rand) int {
	if rng.IntN(2) == 0 {
		return 1001 + rng.IntN(38999)
	}
	return 60001 + rng.IntN(39999)
}

// Stored user bytes, for space amplification: string values count their
// length, every other scalar and each relationship instance 8 bytes.
const scalarBytes = 8

func studentBytes(name string) int64 { return int64(len(name)) + 4*scalarBytes }

// populate loads the universe into a database that has the university
// schema, batching the statements into transactions. It returns the user
// bytes stored.
func (u *universe) populate(ctx context.Context, db *sim.Database) (int64, error) {
	var user int64
	var stmts []string
	for d, name := range u.deptNames {
		stmts = append(stmts, fmt.Sprintf(`Insert department (dept-nbr := %d, name := %q).`, 100+d, name))
		user += int64(len(name)) + scalarBytes
	}
	for c, title := range u.titles {
		stmts = append(stmts, fmt.Sprintf(`Insert course (course-no := %d, title := %q, credits := 15).`, c+1, title))
		user += int64(len(title)) + 2*scalarBytes
	}
	for i, in := range u.instructors {
		stmts = append(stmts, fmt.Sprintf(`Insert instructor (name := %q, soc-sec-no := %d, employee-nbr := %d,
		  salary := %d, birthdate := %q, assigned-department := department with (dept-nbr = %d)).`,
			in.name, instructorSSNBase+i, 1001+i, 30000+i, in.birth, 100+i%departments))
		user += int64(len(in.name)) + 5*scalarBytes
	}
	if err := runBatch(ctx, db, stmts); err != nil {
		return 0, err
	}
	stmts = stmts[:0]
	for s := range u.students {
		st := &u.students[s]
		adv := ""
		if st.advisor >= 0 {
			adv = fmt.Sprintf("advisor := instructor with (employee-nbr = %d), ", 1001+st.advisor)
			user += scalarBytes
		}
		stmts = append(stmts, fmt.Sprintf(`Insert student (name := %q, soc-sec-no := %d, student-nbr := %d,
		  birthdate := %q, %smajor-department := department with (dept-nbr = %d)).`,
			st.name, st.ssn, st.nbr, st.birth, adv, 100+st.dept))
		user += studentBytes(st.name)
		for _, c := range st.courses {
			stmts = append(stmts, fmt.Sprintf(`Modify student (courses-enrolled := include course with (course-no = %d))
			  Where soc-sec-no = %d.`, c+1, st.ssn))
			user += scalarBytes
		}
		if (s+1)%populateBatch == 0 || s == len(u.students)-1 {
			if err := runBatch(ctx, db, stmts); err != nil {
				return 0, err
			}
			stmts = stmts[:0]
		}
	}
	return user, nil
}

// runBatch executes stmts as one transaction.
func runBatch(ctx context.Context, db *sim.Database, stmts []string) error {
	tx, err := db.Begin(ctx)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if _, err := tx.Exec(ctx, s); err != nil {
			tx.Rollback()
			return fmt.Errorf("setup statement %q: %w", s, err)
		}
	}
	return tx.Commit()
}

// openUniversity opens (creating) a file database with the university
// schema defined.
func openUniversity(path string, cfg sim.Config) (*sim.Database, error) {
	db, err := openDB(path, cfg)
	if err != nil {
		return nil, err
	}
	if err := db.DefineSchema(university.DDL); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}
