// Package client is the Go client for a SIM server (cmd/simserve): the
// programmatic face of the paper's Figure 1 interface-product boundary.
// It speaks the internal/wire protocol over TCP and returns the same
// *sim.Result values the in-process API produces, so code written against
// *sim.Database ports to the network with a type swap.
//
//	c, err := client.Dial("localhost:1988")
//	r, err := c.Query(`From student Retrieve name Where student-nbr = 1729.`)
//	n, err := c.Exec(`Insert student (name := "John Doe", soc-sec-no := 456887766).`)
//
// A Conn serializes its requests; use one Conn per concurrent worker for
// parallel load. Connections closed by an idle server are re-dialed
// transparently on the next request.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"sim"
	"sim/internal/obs"
	"sim/internal/wire"
)

// Config tunes a connection.
type Config struct {
	// DialTimeout bounds connection establishment (default 10s). A
	// context passed to DialCtx/DialConfigCtx can end it sooner.
	DialTimeout time.Duration
	// MaxFrame bounds accepted response frames (default wire.DefaultMaxFrame).
	MaxFrame int
	// NoReconnect disables the transparent re-dial after the server
	// closes an idle connection, and with it all request retries.
	NoReconnect bool
	// MaxRetries bounds the transparent retries of one request after a
	// retryable failure — a broken connection, a dial timeout, or a
	// CodeOverloaded/CodeBusy fast-fail (idempotent requests only).
	// Default 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the base delay between retries; each retry doubles
	// it and adds jitter. Default 20ms.
	RetryBackoff time.Duration
	// Sleep, when set, replaces the real backoff sleep — tests and
	// benchmarks inject it for deterministic, clock-free retry runs. It
	// must return ctx.Err() if the context ends first.
	Sleep func(ctx context.Context, d time.Duration) error
	// Registry, when set, receives the connection's robustness counters:
	// sim_client_retries_total and sim_client_redials_total.
	Registry *obs.Registry
}

// NetError is a transport-layer client failure: dialing, handshaking,
// or a broken connection mid-request. Retryable distinguishes failures
// worth another attempt (connection refused, timeouts, a server that
// vanished mid-frame) from fatal ones (protocol mismatch: the peer is
// not a compatible SIM server). Server-side statement errors are NOT
// NetErrors; they arrive as *wire.Error.
type NetError struct {
	Op        string // "dial", "handshake", "send", "receive"
	Addr      string
	Retryable bool
	Err       error
}

func (e *NetError) Error() string {
	kind := "fatal"
	if e.Retryable {
		kind = "retryable"
	}
	return fmt.Sprintf("client: %s %s (%s): %v", e.Op, e.Addr, kind, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *NetError) Unwrap() error { return e.Err }

// Conn is a client session with a SIM server. Methods are safe for
// concurrent use but execute one request at a time.
type Conn struct {
	addr string
	cfg  Config

	reqMu  chan struct{} // capacity-1 semaphore serializing requests
	nc     net.Conn
	br     *bufio.Reader // reads nc: one read syscall per response frame
	rbuf   []byte        // reused response buffer (see readBufMax)
	reused bool          // current nc has completed at least one request
	gen    uint64        // bumped when nc is replaced; transactions pin to it

	// cancelling tracks a context.AfterFunc that is interrupting the
	// current attempt, so the attempt returns only after it is done and a
	// late deadline cannot land on the next request.
	cancelling sync.WaitGroup

	retries *obs.Counter // nil without a registry
	redials *obs.Counter
}

// Dial connects to a SIM server at addr ("host:port") and performs the
// protocol handshake.
func Dial(addr string) (*Conn, error) { return DialConfig(addr, Config{}) }

// DialCtx is Dial honoring a context: cancellation or deadline expiry
// aborts both the TCP dial and the handshake.
func DialCtx(ctx context.Context, addr string) (*Conn, error) {
	return DialConfigCtx(ctx, addr, Config{})
}

// DialConfig is Dial with explicit configuration.
func DialConfig(addr string, cfg Config) (*Conn, error) {
	return DialConfigCtx(context.Background(), addr, cfg)
}

// DialConfigCtx is DialCtx with explicit configuration.
func DialConfigCtx(ctx context.Context, addr string, cfg Config) (*Conn, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 20 * time.Millisecond
	}
	c := &Conn{addr: addr, cfg: cfg, reqMu: make(chan struct{}, 1)}
	if r := cfg.Registry; r != nil {
		c.retries = r.Counter("sim_client_retries_total", "Requests transparently retried after a retryable failure.")
		c.redials = r.Counter("sim_client_redials_total", "Connections re-established after a broken or refused one.")
	}
	nc, err := c.connect(ctx)
	if err != nil {
		return nil, err
	}
	c.attach(nc)
	c.gen = 1
	return c, nil
}

// readBufMax caps the response buffer a Conn keeps between requests: a
// rare huge result is read into a buffer of its own and dropped.
const readBufMax = 1 << 20

// attach makes nc the connection requests run on, reading it through the
// Conn's buffered reader.
func (c *Conn) attach(nc net.Conn) {
	c.nc = nc
	if c.br == nil {
		c.br = bufio.NewReader(nc)
	} else {
		c.br.Reset(nc)
	}
}

// connect dials and completes the Hello exchange under ctx.
func (c *Conn) connect(ctx context.Context) (net.Conn, error) {
	dialErr := func(op string, retryable bool, err error) error {
		return &NetError{Op: op, Addr: c.addr, Retryable: retryable, Err: err}
	}
	dctx, cancel := context.WithTimeout(ctx, c.cfg.DialTimeout)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(dctx, "tcp", c.addr)
	if err != nil {
		// Refused, unreachable, timed out: all worth another attempt —
		// unless the caller's context ended, which is final for them.
		return nil, dialErr("dial", ctx.Err() == nil, err)
	}
	deadline := time.Now().Add(c.cfg.DialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	nc.SetDeadline(deadline)
	if err := wire.WriteFrame(nc, wire.THello, wire.EncodeHello()); err != nil {
		nc.Close()
		return nil, dialErr("handshake", true, err)
	}
	t, payload, err := wire.ReadFrame(nc, c.cfg.MaxFrame)
	if err != nil {
		nc.Close()
		// A frame-level violation means the peer speaks some other
		// protocol — fatal. I/O failures (timeouts, resets) may pass.
		protocolGarbage := errors.Is(err, wire.ErrFrameTooLarge) || strings.HasPrefix(err.Error(), "wire:")
		return nil, dialErr("handshake", !protocolGarbage, err)
	}
	switch t {
	case wire.THello:
		if _, err := wire.DecodeHello(payload); err != nil {
			nc.Close()
			// The peer is not a SIM server: retrying cannot help.
			return nil, dialErr("handshake", false, err)
		}
	case wire.TError:
		nc.Close()
		if e, derr := wire.DecodeError(payload); derr == nil {
			// Protocol/version refusals are fatal; a server at its
			// connection limit is worth retrying.
			return nil, dialErr("handshake", e.Code == wire.CodeBusy || e.Code == wire.CodeShutdown, e)
		}
		return nil, dialErr("handshake", false, errors.New("handshake refused"))
	default:
		nc.Close()
		return nil, dialErr("handshake", false, fmt.Errorf("unexpected %v frame", t))
	}
	nc.SetDeadline(time.Time{})
	return nc, nil
}

// backoff sleeps before retry attempt (0-based), with exponential
// growth and jitter, honoring ctx.
func (c *Conn) backoff(ctx context.Context, attempt int) error {
	d := c.cfg.RetryBackoff << attempt
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1)) // jitter in [d/2, d]
	if c.cfg.Sleep != nil {
		return c.cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close closes the connection. The Conn is unusable afterwards.
func (c *Conn) Close() error {
	c.reqMu <- struct{}{}
	defer c.unlock()
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc = nil
	c.addr = "" // poison: do not reconnect after an explicit Close
	return err
}

// errClosed reports use of an explicitly closed Conn.
var errClosed = errors.New("client: connection closed")

// lock takes the request semaphore, or gives up when ctx ends first.
func (c *Conn) lock(ctx context.Context) error {
	select {
	case c.reqMu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Conn) unlock() { <-c.reqMu }

// roundTrip sends one request and reads its one response, transparently
// retrying retryable failures with exponential backoff: broken or
// refused connections, and CodeOverloaded/CodeBusy fast-fails from the
// server. Exec requests are retried only when the request never left
// this process (the send itself failed) — a broken connection after a
// successful send means the update may have applied, and retrying would
// double-apply it. Idempotent requests retry in every retryable case.
// The caller holds the request lock; the response aliases c.rbuf.
func (c *Conn) roundTrip(ctx context.Context, t wire.Type, payload []byte, idempotent bool) (wire.Type, []byte, error) {
	if c.nc == nil && c.addr == "" {
		return 0, nil, errClosed
	}
	budget := c.cfg.MaxRetries
	if budget < 0 || c.cfg.NoReconnect {
		budget = 0
	}
	used := 0
	// retry spends one retry from the budget, backing off first.
	retry := func() bool {
		if used >= budget || ctx.Err() != nil {
			return false
		}
		if err := c.backoff(ctx, used); err != nil {
			return false
		}
		used++
		if c.retries != nil {
			c.retries.Inc()
		}
		return true
	}
	for {
		if c.nc == nil {
			nc, err := c.connect(ctx)
			if err != nil {
				var ne *NetError
				if errors.As(err, &ne) && ne.Retryable && retry() {
					continue
				}
				return 0, nil, err
			}
			c.attach(nc)
			c.reused = false
			c.gen++
			if c.redials != nil {
				c.redials.Inc()
			}
		}
		rt, resp, sendFailed, err := c.attempt(ctx, t, payload)
		if err == nil {
			c.reused = true
			// A fast-fail from a saturated server: the connection is
			// healthy, the request was simply refused. Back off and
			// retry idempotent requests.
			if rt == wire.TError && idempotent {
				if e, derr := wire.DecodeError(resp); derr == nil &&
					(e.Code == wire.CodeOverloaded || e.Code == wire.CodeBusy) && retry() {
					continue
				}
			}
			return rt, resp, nil
		}
		// The connection is in an unknown state mid-frame: drop it.
		c.nc.Close()
		c.nc, c.reused = nil, false
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		if (sendFailed || idempotent) && retry() {
			continue
		}
		return 0, nil, err
	}
}

// attempt performs one send/receive on the current connection. sendFailed
// distinguishes "the request never made it out" from a response failure.
// The response is read into c.rbuf and stays valid until the next attempt.
// A context that ends mid-attempt interrupts it by moving the socket
// deadline to now; no goroutine waits on it.
func (c *Conn) attempt(ctx context.Context, t wire.Type, payload []byte) (rt wire.Type, resp []byte, sendFailed bool, err error) {
	nc := c.nc
	if d, ok := ctx.Deadline(); ok {
		nc.SetDeadline(d)
	} else {
		nc.SetDeadline(time.Time{})
	}
	if ctx.Done() != nil {
		c.cancelling.Add(1)
		stop := context.AfterFunc(ctx, func() {
			defer c.cancelling.Done()
			nc.SetDeadline(time.Now())
		})
		defer func() {
			if stop() {
				c.cancelling.Done() // never ran, never will
			} else {
				c.cancelling.Wait()
			}
		}()
	}
	if err := wire.WriteFrame(nc, t, payload); err != nil {
		return 0, nil, true, &NetError{Op: "send", Addr: c.addr, Retryable: true, Err: err}
	}
	rt, resp, err = wire.ReadFrameBuf(c.br, c.cfg.MaxFrame, c.rbuf[:cap(c.rbuf)])
	if err != nil {
		return 0, nil, false, &NetError{Op: "receive", Addr: c.addr, Retryable: true, Err: err}
	}
	if cap(resp) > cap(c.rbuf) && cap(resp) <= readBufMax {
		c.rbuf = resp[:0]
	}
	return rt, resp, false, nil
}

// req wraps a statement body with a freshly minted request ID — the
// trace ID that names this request in the server's slow-query ring, the
// flight recorder (primary and followers) and EXPLAIN ANALYZE output.
// Transparent retries reuse the payload, so a retried request keeps the
// ID of the logical request it re-sends.
func req(body []byte) []byte {
	return wire.EncodeRequest(obs.NewRequestID(), body)
}

// call runs a request expecting response type want and hands the
// response payload to decode (nil: ignore it) before releasing the
// request lock: the payload aliases the Conn's read buffer, which the
// next request reuses, so decode must copy whatever it keeps (every wire
// decoder does). A TError response decodes into *wire.Error.
func (c *Conn) call(ctx context.Context, t wire.Type, payload []byte, want wire.Type, idempotent bool, decode func([]byte) error) error {
	if err := c.lock(ctx); err != nil {
		return err
	}
	defer c.unlock()
	rt, resp, err := c.roundTrip(ctx, t, payload, idempotent)
	if err != nil {
		return err
	}
	return accept(t, want, rt, resp, decode)
}

// into returns a decode callback for call that stores dec's result in v.
// Every dec returns its zero value with an error, so v reads as before
// when the call fails.
func into[T any](v *T, dec func([]byte) (T, error)) func([]byte) error {
	return func(b []byte) (err error) {
		*v, err = dec(b)
		return err
	}
}

// decodeText copies a text payload (Explain, Introspect).
func decodeText(b []byte) (string, error) { return string(b), nil }

// accept checks a response of type rt to a request of type t and decodes
// it: want goes to decode, TError becomes a *wire.Error.
func accept(t, want, rt wire.Type, resp []byte, decode func([]byte) error) error {
	switch rt {
	case want:
		if decode == nil {
			return nil
		}
		return decode(resp)
	case wire.TError:
		e, derr := wire.DecodeError(resp)
		if derr != nil {
			return derr
		}
		return e
	default:
		return fmt.Errorf("client: unexpected %v response to %v", rt, t)
	}
}

// Query executes one Retrieve statement on the server.
func (c *Conn) Query(dml string) (*sim.Result, error) {
	return c.QueryCtx(context.Background(), dml)
}

// QueryCtx is Query under a context; the deadline also bounds server-side
// execution when the server is configured with request timeouts.
func (c *Conn) QueryCtx(ctx context.Context, dml string) (*sim.Result, error) {
	var res *sim.Result
	err := c.call(ctx, wire.TQuery, req([]byte(dml)), wire.TResult, true, into(&res, wire.DecodeResult))
	return res, err
}

// QueryTrace executes one Retrieve statement on the server and returns
// the result together with the server-side span breakdown (parse, plan,
// execute, cache deltas, and the rendered EXPLAIN ANALYZE text).
func (c *Conn) QueryTrace(dml string) (*sim.Result, wire.TraceInfo, error) {
	return c.QueryTraceCtx(context.Background(), dml)
}

// QueryTraceCtx is QueryTrace under a context.
func (c *Conn) QueryTraceCtx(ctx context.Context, dml string) (*sim.Result, wire.TraceInfo, error) {
	var res *sim.Result
	var ti wire.TraceInfo
	err := c.call(ctx, wire.TQueryTrace, req([]byte(dml)), wire.TResultTrace, true, func(b []byte) (err error) {
		res, ti, err = wire.DecodeResultTrace(b)
		return err
	})
	if err != nil {
		return nil, wire.TraceInfo{}, err
	}
	return res, ti, nil
}

// ExplainAnalyze executes the statement on the server and returns the
// annotated query tree with measured rows and timings.
func (c *Conn) ExplainAnalyze(dml string) (string, error) {
	return c.ExplainAnalyzeCtx(context.Background(), dml)
}

// ExplainAnalyzeCtx is ExplainAnalyze under a context.
func (c *Conn) ExplainAnalyzeCtx(ctx context.Context, dml string) (string, error) {
	_, ti, err := c.QueryTraceCtx(ctx, dml)
	if err != nil {
		return "", err
	}
	return ti.Rendered, nil
}

// Exec executes one update statement on the server and returns the
// affected-entity count.
func (c *Conn) Exec(dml string) (int, error) {
	return c.ExecCtx(context.Background(), dml)
}

// ExecCtx is Exec under a context. A broken connection mid-response is
// NOT retried (the update may have applied); only requests that never
// left this process are.
func (c *Conn) ExecCtx(ctx context.Context, dml string) (int, error) {
	var n int
	err := c.call(ctx, wire.TExec, req([]byte(dml)), wire.TExecOK, false, into(&n, wire.DecodeCount))
	return n, err
}

// Explain returns the server optimizer's strategy for a Retrieve.
func (c *Conn) Explain(dml string) (string, error) {
	return c.ExplainCtx(context.Background(), dml)
}

// ExplainCtx is Explain under a context.
func (c *Conn) ExplainCtx(ctx context.Context, dml string) (string, error) {
	var text string
	err := c.call(ctx, wire.TExplain, []byte(dml), wire.TExplainOK, true, into(&text, decodeText))
	return text, err
}

// Ping checks liveness end to end.
func (c *Conn) Ping(ctx context.Context) error {
	return c.call(ctx, wire.TPing, nil, wire.TPong, true, nil)
}

// Checkpoint asks the server to checkpoint the database.
func (c *Conn) Checkpoint(ctx context.Context) error {
	return c.call(ctx, wire.TCheckpoint, nil, wire.TOK, true, nil)
}

// ReplStatus returns the server's replication role and progress: the
// publisher's epoch, newest position, and per-follower lag on a primary;
// the follower's own applied position on a replica; role "none" on a
// server without replication.
func (c *Conn) ReplStatus(ctx context.Context) (wire.ReplStatus, error) {
	var st wire.ReplStatus
	err := c.call(ctx, wire.TReplStatus, nil, wire.TReplStatusOK, true, into(&st, wire.DecodeReplStatus))
	return st, err
}

// Addr returns the address this connection dials.
func (c *Conn) Addr() string { return c.addr }

// Promote asks a replica server to promote itself to primary: drain and
// seal its replication stream, persist a strictly higher epoch, and start
// accepting writes. It returns the epoch the new primary owns. Promoting
// a server that is already primary returns its current epoch (the request
// is idempotent); a server with no replication role refuses.
//
// Not retried: a promotion that half-happened should be observed, not
// transparently repeated.
func (c *Conn) Promote(ctx context.Context) (uint64, error) {
	var epoch uint64
	err := c.call(ctx, wire.TPromote, nil, wire.TPromoteOK, false, into(&epoch, wire.DecodePromoteOK))
	return epoch, err
}

// Retarget delivers a fencing/re-point notice: "epoch exists; its primary
// serves at addr". A primary holding a lower epoch demotes itself to
// read-only (further writes answer CodeFenced); a replica re-points its
// replication stream at addr. Operators normally don't call this — the
// promoted primary's fencer does — but it is the manual override when
// automation is down.
func (c *Conn) Retarget(ctx context.Context, epoch uint64, addr string) error {
	payload := wire.EncodeRetarget(wire.Retarget{Epoch: epoch, Addr: addr})
	return c.call(ctx, wire.TRetarget, payload, wire.TOK, false, nil)
}

// ServerStats returns the server's lifetime counters.
func (c *Conn) ServerStats(ctx context.Context) (wire.ServerStats, error) {
	var st wire.ServerStats
	err := c.call(ctx, wire.TStats, nil, wire.TStatsOK, true, into(&st, wire.DecodeServerStats))
	return st, err
}

// Introspect returns a rendered server-side introspection report:
// wire.IntrospectFlight dumps the flight recorder (the ring of recent
// structured events — commits, flushes, conflicts, replication traffic),
// wire.IntrospectHot the latch contention profile.
func (c *Conn) Introspect(ctx context.Context, kind byte) (string, error) {
	var text string
	err := c.call(ctx, wire.TIntrospect, []byte{kind}, wire.TIntrospectOK, true, into(&text, decodeText))
	return text, err
}
