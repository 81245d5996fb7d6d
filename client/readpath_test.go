package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"sim/client"
	"sim/internal/obs"
	"sim/internal/server"
	"sim/internal/wire"
)

// TestCancelInterruptsBlockedRead: a context cancelled while the Conn
// waits for a response that never comes must end the read promptly and
// drop the connection; the next request runs on a fresh one.
func TestCancelInterruptsBlockedRead(t *testing.T) {
	release := make(chan struct{})
	fs := newFakeServer(t, func(n uint64, typ wire.Type) (wire.Type, []byte, bool) {
		if n == 1 {
			<-release // never answer the first request
			return 0, nil, false
		}
		return wire.TPong, nil, true
	})
	t.Cleanup(func() { close(release) })
	reg := obs.NewRegistry()
	c, err := client.DialConfig(fs.addr(), client.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	if _, err := c.QueryCtx(ctx, `From student Retrieve name.`); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked query: err %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancel took %v to interrupt the read", d)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after cancel: %v", err)
	}
	if got := reg.Get("sim_client_redials_total"); got != 1 {
		t.Fatalf("sim_client_redials_total = %v, want 1 (the interrupted conn must be dropped)", got)
	}
}

// TestDecodedResultSurvivesBufferReuse: a Conn reads every response into
// one reused buffer, so a decoded Result must own its bytes — the next
// request's response lands in the same buffer.
func TestDecodedResultSurvivesBufferReuse(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, err := c.Query(`From student Retrieve name, soc-sec-no.`)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Format()
	// Smaller responses, so each reuses the first one's buffer.
	for _, q := range []string{`From student Retrieve soc-sec-no.`, `From student Retrieve name Where soc-sec-no = 1.`} {
		if _, err := c.Query(q); err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := first.Format(); got != want {
		t.Fatalf("decoded result changed after the read buffer was reused:\n%s\nwant\n%s", got, want)
	}
}
