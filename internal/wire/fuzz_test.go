package wire

import (
	"bytes"
	"testing"

	"sim/internal/exec"
	"sim/internal/value"
)

// FuzzDecodeFrame feeds arbitrary bytes through the full inbound path a
// peer exposes to the network: frame framing, then the payload decoder
// for the frame's type. Nothing here may panic or allocate
// unboundedly — a malformed or truncated frame must come back as an
// error. Run continuously with:
//
//	go test ./internal/wire -run='^$' -fuzz FuzzDecodeFrame
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: one well-formed frame of every payload-carrying type,
	// plus classic corruption shapes. testdata/fuzz holds more.
	f.Add(frame(THello, EncodeHello()))
	f.Add(frame(TQuery, EncodeRequest(0xBEEF, []byte(`From student Retrieve name.`))))
	f.Add(frame(TCommitTraced, EncodeCommitInfo(CommitInfo{ID: 0xBEEF, Pages: 2, GroupN: 1,
		Pos: 4, FsyncNS: 1e6, TotalNS: 2e6, Rendered: "commit\n"})))
	f.Add(frame(TError, EncodeError(CodeExec, "integrity violation v2")))
	f.Add(frame(TExecOK, EncodeCount(1729)))
	f.Add(frame(TStatsOK, EncodeServerStats(ServerStats{Connections: 3, Requests: 99})))
	res := exec.RemoteResult(
		[]string{"name", "advisor"},
		[][]value.Value{{value.NewString("x"), value.Null}, {value.NewInt(7), value.NewNumber(2.5)}},
		&exec.Group{Label: "result", Children: []*exec.Group{{Label: "s", Values: []value.Value{value.NewString("x")}, Indexes: []int{0}}}},
		exec.Stats{Instances: 4, Rows: 2})
	f.Add(frame(TResult, EncodeResult(res)))
	f.Add(frame(TReplHello, EncodeReplHello(ReplHello{Epoch: 7, Run: 0xC0FFEE, Pos: 42})))
	f.Add(frame(TReplAck, EncodeReplAck(42)))
	f.Add(frame(TReplSnapshot, EncodeReplSnapshot(ReplSnapshot{Epoch: 7, Run: 0xC0FFEE, Pos: 3, Gen: 1, Total: 12, Offset: 4, Chunk: []byte("chunkdata")})))
	f.Add(frame(TReplFrames, EncodeReplFrames(ReplFrames{Epoch: 7, Run: 0xC0FFEE, Pos: 9, Latest: 11, Gen: 1,
		Pages: []ReplPage{{ID: 3, Data: []byte("page image bytes")}}})))
	f.Add(frame(TPromoteOK, EncodePromoteOK(8)))
	f.Add(frame(TRetarget, EncodeRetarget(Retarget{Epoch: 8, Addr: "10.0.0.3:1988"})))
	f.Add(frame(TReplStatusOK, EncodeReplStatus(ReplStatus{Role: "primary", Epoch: 7, Latest: 11,
		Replicas: []ReplicaInfo{{Addr: "10.0.0.2:1988", State: "streaming", Pos: 9, Latest: 11, AgeMs: 40}}})))
	// Hostile repl shapes: truncated payloads and absurd declared lengths.
	f.Add(frame(TReplFrames, EncodeReplFrames(ReplFrames{Epoch: 7, Pos: 9, Pages: []ReplPage{{ID: 1, Data: []byte("abc")}}})[:9]))
	f.Add(frame(TReplSnapshot, []byte{0x07, 0x03, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0x00, 0x03, 'a', 'b'}))
	f.Add(frame(TReplStatusOK, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}))
	f.Add([]byte{})                             // nothing
	f.Add([]byte{0, 0, 0, 0, 0})                // zero-length frame
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x20}) // absurd length
	f.Add(frame(TResult, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}))
	// Hostile result headers: a huge declared row count, and row and
	// column counts whose product overflows 64 bits.
	f.Add(frame(TResult, []byte{0x02, 0x01, 'a', 0x01, 'b', 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0x02, 0x00, 0x00}))
	f.Add(frame(TResult, []byte{0x03, 0x01, 'a', 0x01, 'b', 0x01, 'c',
		0xAB, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0x55, 0x03, 0x00, 0x00, 0x00}))
	f.Add(frame(Type(0xEE), []byte("unknown type")))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		// Cap far below DefaultMaxFrame so hostile length prefixes cannot
		// make the harness itself allocate gigabytes.
		typ, payload, err := ReadFrame(r, 1<<20)
		if err != nil {
			return
		}
		switch typ {
		case THello:
			DecodeHello(payload)
		case TQuery, TExec, TQueryTrace, TBegin, TCommit, TRollback, TTraceCommit:
			DecodeRequest(payload)
		case TCommitTraced:
			if ci, err := DecodeCommitInfo(payload); err == nil {
				if _, err := DecodeCommitInfo(EncodeCommitInfo(ci)); err != nil {
					t.Fatalf("re-encode of decoded commit info failed: %v", err)
				}
			}
		case TResultTrace:
			if res, ti, err := DecodeResultTrace(payload); err == nil {
				if _, _, err := DecodeResultTrace(EncodeResultTrace(res, ti)); err != nil {
					t.Fatalf("re-encode of decoded result trace failed: %v", err)
				}
			}
		case TResult:
			if res, err := DecodeResult(payload); err == nil {
				// A decoded result must survive re-encoding: the frames a
				// server emits from it must round-trip.
				if _, err := DecodeResult(EncodeResult(res)); err != nil {
					t.Fatalf("re-encode of decoded result failed: %v", err)
				}
			}
		case TError:
			if e, err := DecodeError(payload); err == nil {
				_ = e.Error()
			}
		case TExecOK:
			DecodeCount(payload)
		case TStatsOK:
			DecodeServerStats(payload)
		case TReplHello:
			DecodeReplHello(payload)
		case TReplAck:
			DecodeReplAck(payload)
		case TPromoteOK:
			DecodePromoteOK(payload)
		case TRetarget:
			if rt, err := DecodeRetarget(payload); err == nil {
				if _, err := DecodeRetarget(EncodeRetarget(rt)); err != nil {
					t.Fatalf("re-encode of decoded retarget failed: %v", err)
				}
			}
		case TReplSnapshot:
			if s, err := DecodeReplSnapshot(payload); err == nil {
				if _, err := DecodeReplSnapshot(EncodeReplSnapshot(s)); err != nil {
					t.Fatalf("re-encode of decoded snapshot failed: %v", err)
				}
			}
		case TReplFrames:
			if fr, err := DecodeReplFrames(payload); err == nil {
				if _, err := DecodeReplFrames(EncodeReplFrames(fr)); err != nil {
					t.Fatalf("re-encode of decoded frames failed: %v", err)
				}
			}
		case TReplStatusOK:
			if st, err := DecodeReplStatus(payload); err == nil {
				_ = st.String()
				if _, err := DecodeReplStatus(EncodeReplStatus(st)); err != nil {
					t.Fatalf("re-encode of decoded status failed: %v", err)
				}
			}
		}
	})
}

// frame wraps a payload in the length/type header, as WriteFrame would.
func frame(t Type, payload []byte) []byte {
	var buf bytes.Buffer
	WriteFrame(&buf, t, payload)
	return buf.Bytes()
}
