package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"sim"
	"sim/client"
	"sim/internal/server"
	"sim/internal/university"
	"sim/internal/wire"
)

// testDB builds an in-memory university database with a handful of rows.
func testDB(t *testing.T) *sim.Database {
	t.Helper()
	db, err := sim.Open("", sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineSchema(university.DDL); err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		`Insert department (dept-nbr := 100, name := "Math").`,
		`Insert instructor (name := "Turing, Alan", soc-sec-no := 100000001,
		   employee-nbr := 1001, salary := 90000,
		   assigned-department := department with (dept-nbr = 100)).`,
	}
	for i := 0; i < 20; i++ {
		adv := ""
		if i < 10 { // the schema caps advisees at 10
			adv = `advisor := instructor with (employee-nbr = 1001),`
		}
		stmts = append(stmts, fmt.Sprintf(`Insert student (name := "Student %02d",
		  soc-sec-no := %d, student-nbr := %d, %s
		  major-department := department with (dept-nbr = 100)).`,
			i, 200000000+i, 1001+i, adv))
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

// startServer serves db on a loopback listener and returns its address.
func startServer(t *testing.T, db *sim.Database, cfg server.Config) (*server.Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, lis.Addr().String()
}

// dialRaw opens a TCP connection and completes the wire handshake, giving
// tests byte-level control over what they send next.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(nc, wire.THello, wire.EncodeHello()); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := wire.ReadFrame(nc, 0); err != nil || typ != wire.THello {
		t.Fatalf("handshake response: type %v err %v", typ, err)
	}
	return nc
}

func TestRoundTrips(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Remote results must be byte-identical to in-process ones, in both
	// the tabular and STRUCTURE renderings.
	queries := []string{
		`From student Retrieve name, name of advisor Where student-nbr > 1005.`,
		`From department Retrieve Structure name, name of instructors-employed.`,
		`From student Retrieve name Where name = "nobody".`,
	}
	for _, q := range queries {
		local, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		remote, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if remote.Format() != local.Format() {
			t.Errorf("%s:\nremote %q\nlocal  %q", q, remote.Format(), local.Format())
		}
		if remote.FormatStructured() != local.FormatStructured() {
			t.Errorf("%s: structured rendering diverged", q)
		}
		if remote.Stats != local.Stats {
			t.Errorf("%s: stats %+v vs %+v", q, remote.Stats, local.Stats)
		}
	}

	n, err := c.Exec(`Insert student (name := "Remote, Kid", soc-sec-no := 300000001).`)
	if err != nil || n != 1 {
		t.Fatalf("Exec: n=%d err=%v", n, err)
	}
	r, err := db.Query(`From student Retrieve name Where soc-sec-no = 300000001.`)
	if err != nil || r.NumRows() != 1 {
		t.Fatalf("insert not visible locally: rows=%v err=%v", r, err)
	}

	ex, err := c.Explain(`From student Retrieve name Where student-nbr = 1001.`)
	if err != nil || ex == "" {
		t.Fatalf("Explain: %q err=%v", ex, err)
	}
	lex, err := db.Explain(`From student Retrieve name Where student-nbr = 1001.`)
	if err != nil || ex != lex {
		t.Fatalf("remote explain diverged from local:\n%q\n%q (err=%v)", ex, lex, err)
	}

	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	if err := c.Checkpoint(context.Background()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatalf("ServerStats: %v", err)
	}
	if st.Requests == 0 || st.Connections == 0 || st.Active == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

func TestErrorCodes(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cases := []struct {
		dml  string
		code wire.Code
	}{
		{`From student Retrieve`, wire.CodeParse},
		{`From nosuchclass Retrieve name.`, wire.CodeSemantic},
	}
	for _, tc := range cases {
		_, err := c.Query(tc.dml)
		var we *wire.Error
		if !errors.As(err, &we) {
			t.Fatalf("%s: err %T %v, want *wire.Error", tc.dml, err, err)
		}
		if we.Code != tc.code {
			t.Errorf("%s: code %v, want %v (%v)", tc.dml, we.Code, tc.code, we)
		}
	}
	// The session must survive errors: a good query still works.
	if _, err := c.Query(`From student Retrieve name.`); err != nil {
		t.Fatalf("query after errors: %v", err)
	}
}

// TestMalformedFrames throws protocol garbage at a live server; the
// server must never crash and must keep serving fresh connections.
func TestMalformedFrames(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{MaxFrame: 1 << 16})

	send := func(name string, raw []byte) {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		nc.Write(raw)
	}
	// No handshake at all.
	send("http", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	// Valid hello framing, wrong magic.
	hello := append([]byte{0, 0, 0, 7, byte(wire.THello)}, []byte("NOTSIM")...)
	send("magic", hello)
	// Hostile length prefix.
	send("length", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x10, 'x'})
	// Handshake then a truncated query frame, connection dropped mid-frame.
	nc := dialRaw(t, addr)
	nc.Write([]byte{0, 0, 1, 0, byte(wire.TQuery), 'F', 'r', 'o'})
	nc.Close()
	// Handshake then an oversize frame.
	nc2 := dialRaw(t, addr)
	wire.WriteFrame(nc2, wire.TQuery, make([]byte, 1<<17))
	// Handshake then a response-typed frame as a request.
	nc3 := dialRaw(t, addr)
	wire.WriteFrame(nc3, wire.TResult, []byte{0})
	if typ, payload, err := wire.ReadFrame(nc3, 0); err == nil {
		if typ != wire.TError {
			t.Fatalf("response-typed request got %v, want TError", typ)
		}
		if e, err := wire.DecodeError(payload); err != nil || e.Code != wire.CodeProtocol {
			t.Fatalf("response-typed request error = %v (%v)", e, err)
		}
	}

	// After all that abuse, a fresh client still gets served.
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(`From student Retrieve name.`); err != nil {
		t.Fatalf("server unhealthy after malformed frames: %v", err)
	}
}

// TestDisconnectMidQuery closes the client socket immediately after
// sending a query; the server must absorb the failed response write.
func TestDisconnectMidQuery(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{})
	for i := 0; i < 5; i++ {
		nc := dialRaw(t, addr)
		wire.WriteFrame(nc, wire.TQuery, []byte(`From student Retrieve name, name of advisor.`))
		nc.Close()
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(`From student Retrieve name.`); err != nil {
		t.Fatalf("server unhealthy after disconnects: %v", err)
	}
}

func TestMaxConns(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{MaxConns: 2})
	c1, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Both slots taken: the third dial must be refused with CodeBusy.
	_, err = client.Dial(addr)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBusy {
		t.Fatalf("over-limit dial: err %v, want CodeBusy", err)
	}
	// Releasing a slot re-admits clients.
	c1.Close()
	waitFor(t, func() bool { _, err := client.Dial(addr); return err == nil })
}

func TestRequestTimeout(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{RequestTimeout: time.Nanosecond})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Query(`From student Retrieve name, name of advisor.`)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeTimeout {
		t.Fatalf("expired request: err %v, want CodeTimeout", err)
	}
}

// TestShutdownDrains verifies a request in flight when Shutdown begins
// still receives its response.
func TestShutdownDrains(t *testing.T) {
	db := testDB(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type reply struct {
		r   *sim.Result
		err error
	}
	got := make(chan reply, 1)
	go func() {
		r, err := c.Query(`From student Retrieve name, name of advisor.`)
		got <- reply{r, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the query reach the server
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-done; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	rep := <-got
	// The race is legitimate: the query either completed before Shutdown
	// observed it (response delivered) or never started (connection
	// closed). What must not happen is a half-written response.
	if rep.err == nil {
		if rep.r.NumRows() == 0 {
			t.Fatal("drained query returned an empty result")
		}
	} else if !isConnErr(rep.err) {
		t.Fatalf("drained query failed oddly: %v", rep.err)
	}
	// The listener is gone.
	if _, err := client.Dial(lis.Addr().String()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

func TestStatsCount(t *testing.T) {
	db := testDB(t)
	srv, addr := startServer(t, db, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, err := c.Query(`From student Retrieve name.`); err != nil {
			t.Fatal(err)
		}
	}
	c.Query(`From student Retrieve`) // parse error → errors counter
	st := srv.Stats()
	if st.Connections != 1 || st.Requests != 4 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 1 conn, 4 requests, 1 error", st)
	}
	if st.BytesIn == 0 || st.BytesOut == 0 {
		t.Fatalf("byte counters not moving: %+v", st)
	}
}

func isConnErr(err error) bool {
	return err != nil && (errors.Is(err, net.ErrClosed) ||
		strings.Contains(err.Error(), "EOF") ||
		strings.Contains(err.Error(), "reset") ||
		strings.Contains(err.Error(), "broken pipe"))
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestPipelinedFramesOneWrite sends two requests in a single write: the
// session's buffered reader must hand both frames to dispatch, in order,
// and each gets its reply.
func TestPipelinedFramesOneWrite(t *testing.T) {
	db := testDB(t)
	_, addr := startServer(t, db, server.Config{})
	nc := dialRaw(t, addr)
	const q = `From student Retrieve name Where student-nbr = 1003.`
	var both bytes.Buffer
	wire.WriteFrame(&both, wire.TQuery, wire.EncodeRequest(1, []byte(q)))
	wire.WriteFrame(&both, wire.TPing, nil)
	if _, err := nc.Write(both.Bytes()); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, 0)
	if err != nil || typ != wire.TResult {
		t.Fatalf("first reply: %v %v", typ, err)
	}
	res, err := wire.DecodeResult(payload)
	if err != nil || res.NumRows() != 1 || res.Rows()[0][0].String() != "Student 02" {
		t.Fatalf("first reply decoded to %v, %v", res, err)
	}
	if typ, _, err := wire.ReadFrame(nc, 0); err != nil || typ != wire.TPong {
		t.Fatalf("second reply: %v %v", typ, err)
	}
}
