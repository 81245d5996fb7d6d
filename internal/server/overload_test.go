package server_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"sim/internal/obs"
	"sim/internal/server"
	"sim/internal/wire"
)

// With MaxInflight=1 and eight clients firing queries at the same
// instant, the server must fast-fail the overflow with CodeOverloaded
// instead of queueing it, leave those sessions usable, and count the
// refusals. The flood query cross-products students × instructors so
// each request spans several preemption quanta — overlap then happens
// even on a single-core scheduler — but it is still probabilistic per
// round, so the test fires rounds until it observes a fast-fail
// (bounded; one round virtually always suffices).
func TestMaxInflightFastFail(t *testing.T) {
	db := testDB(t)
	// Bulk up the cross product (testDB seeds 20 students, 1 instructor).
	for i := 0; i < 120; i++ {
		if _, err := db.Exec(fmt.Sprintf(`Insert instructor (name := "Prof %03d",
		  soc-sec-no := %d, employee-nbr := %d, salary := 50000).`,
			i, 300000000+i, 2001+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		if _, err := db.Exec(fmt.Sprintf(`Insert student (name := "Crowd %03d",
		  soc-sec-no := %d, student-nbr := %d).`,
			i, 400000000+i, 5001+i)); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	srv, addr := startServer(t, db, server.Config{MaxInflight: 1, Registry: reg})

	const clients = 8
	conns := make([]*rawSession, clients)
	for i := range conns {
		conns[i] = newRawSession(t, addr)
	}

	overloads := 0
	for round := 0; round < 20 && overloads == 0; round++ {
		start := make(chan struct{})
		results := make(chan wire.Type, clients)
		var wg sync.WaitGroup
		for _, rs := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				rt, _ := rs.roundTrip(t, wire.TQuery, wire.EncodeRequest(1, []byte(`From student, instructor
				  Retrieve name of student, name of instructor
				  Where name of student NEQ name of instructor.`)))
				results <- rt
			}()
		}
		close(start)
		wg.Wait()
		close(results)
		for rt := range results {
			if rt == wire.TError {
				overloads++
			}
		}
	}
	if overloads == 0 {
		t.Fatal("no request was ever fast-failed under MaxInflight=1")
	}
	if got := srv.Stats().Errors; got == 0 {
		t.Error("fast-fails not counted in server errors")
	}
	if got := reg.Get("sim_server_fastfail_total"); got < 1 {
		t.Errorf("sim_server_fastfail_total = %v, want >= 1", got)
	}

	// A fast-failed session stays open: the same connections still serve.
	for _, rs := range conns {
		if rt, _ := rs.roundTrip(t, wire.TPing, nil); rt != wire.TPong {
			t.Fatalf("session dead after overload: %v", rt)
		}
	}
}

// TestPingBypassesMaxInflight: a health probe does no engine work, so it
// is answered even while the only in-flight slot is held. Otherwise a
// saturated node would fail the re-probe that lets a multi-node client
// re-admit it.
func TestPingBypassesMaxInflight(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{MaxInflight: 1})
	ctx := context.Background()

	// An open transaction holds the store write latch, so an autocommit
	// update sent over the wire blocks inside the server, holding the slot.
	tx, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tx.Rollback() }) // runs before the server shuts down
	const upd = `Modify instructor (salary := 1) Where employee-nbr = 1001.`
	if _, err := tx.Exec(ctx, upd); err != nil {
		t.Fatal(err)
	}
	blocked := dialRaw(t, addr)
	done := make(chan error, 1)
	go func() {
		if err := wire.WriteFrame(blocked, wire.TExec, wire.EncodeRequest(1, []byte(upd))); err != nil {
			done <- err
			return
		}
		rt, _, err := wire.ReadFrame(blocked, 0)
		if err == nil && rt == wire.TError {
			err = fmt.Errorf("update failed after the transaction rolled back")
		}
		done <- err
	}()

	probe := newRawSession(t, addr)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rt, resp := probe.roundTrip(t, wire.TQuery, wire.EncodeRequest(2, []byte(`From department Retrieve name.`)))
		if rt == wire.TError {
			if e, err := wire.DecodeError(resp); err != nil || e.Code != wire.CodeOverloaded {
				t.Fatalf("query failed with %v (%v), want overloaded", e, err)
			}
			break // the blocked update holds the slot
		}
		if time.Now().After(deadline) {
			t.Fatal("the blocked update never took the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}
	if rt, _ := probe.roundTrip(t, wire.TPing, nil); rt != wire.TPong {
		t.Fatalf("ping with the slot held: got %v, want Pong", rt)
	}

	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// rawSession is a handshaken wire connection with sequential round trips.
type rawSession struct {
	nc interface {
		Read([]byte) (int, error)
		Write([]byte) (int, error)
	}
	mu sync.Mutex
}

func newRawSession(t *testing.T, addr string) *rawSession {
	t.Helper()
	return &rawSession{nc: dialRaw(t, addr)}
}

func (rs *rawSession) roundTrip(t *testing.T, rt wire.Type, payload []byte) (wire.Type, []byte) {
	t.Helper()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if err := wire.WriteFrame(rs.nc, rt, payload); err != nil {
		t.Fatalf("send: %v", err)
	}
	typ, resp, err := wire.ReadFrame(rs.nc, 0)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	return typ, resp
}

// Decoded overload errors carry the new code, and the code renders.
func TestOverloadedCodeDecodes(t *testing.T) {
	e, err := wire.DecodeError(wire.EncodeError(wire.CodeOverloaded, "full"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeOverloaded || e.Code.String() != "overloaded" {
		t.Errorf("decoded %v (%s)", e.Code, e.Code)
	}
}
