// Command gencorpus regenerates the committed fuzz seed corpus under
// internal/wire/testdata/fuzz/FuzzDecodeFrame: one well-formed frame per
// payload-carrying type plus truncation/corruption shapes, in the Go
// fuzz corpus file format.
//
//	go run ./internal/wire/gencorpus internal/wire/testdata/fuzz/FuzzDecodeFrame
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"sim/internal/exec"
	"sim/internal/value"
	"sim/internal/wire"
)

func frame(t wire.Type, payload []byte) []byte {
	var buf bytes.Buffer
	wire.WriteFrame(&buf, t, payload)
	return buf.Bytes()
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: gencorpus <corpus-dir>")
		os.Exit(2)
	}
	dir := os.Args[1]
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	res := exec.RemoteResult(
		[]string{"name", "degree", "when"},
		[][]value.Value{
			{value.NewString("Doe, John"), value.NewSymbolic("PHD", 3), value.NewDate(6725)},
			{value.NewString(""), value.Null, value.NewNumber(-0.5)},
		},
		&exec.Group{Label: "result", Children: []*exec.Group{
			{Label: "student", Values: []value.Value{value.NewString("Doe, John")}, Indexes: []int{0},
				Children: []*exec.Group{{Label: "course", Level: 1, Values: []value.Value{value.NewInt(42)}, Indexes: []int{1}}}},
		}},
		exec.Stats{Instances: 12, Rows: 2})
	seeds := map[string][]byte{
		"hello": frame(wire.THello, wire.EncodeHello()),
		"query": frame(wire.TQuery, wire.EncodeRequest(0xDEADBEEF, []byte(`From student Retrieve name, name of advisor Where student-nbr = 1729.`))),
		"commit-traced": frame(wire.TCommitTraced, wire.EncodeCommitInfo(wire.CommitInfo{
			ID: 0xDEADBEEF, Pages: 3, GroupN: 2, Pos: 17, LatchWaitNS: 1200, EnqueueWaitNS: 88000,
			FsyncNS: 640000, TotalNS: 910000, Rendered: "commit request 00000000deadbeef\n"})),
		"introspect":     frame(wire.TIntrospect, []byte{wire.IntrospectFlight}),
		"result":         frame(wire.TResult, wire.EncodeResult(res)),
		"error":          frame(wire.TError, wire.EncodeError(wire.CodeTimeout, "request deadline exceeded")),
		"count":          frame(wire.TExecOK, wire.EncodeCount(38000)),
		"stats":          frame(wire.TStatsOK, wire.EncodeServerStats(wire.ServerStats{Connections: 8, Active: 2, Requests: 640, BytesIn: 1 << 20, BytesOut: 9, Errors: 1})),
		"truncated":      frame(wire.TResult, wire.EncodeResult(res))[:20],
		"hostile-length": {0xFF, 0xFF, 0xFF, 0xFE, byte(wire.TResult), 1, 2, 3},
		// Result headers declaring a huge row count, and row and column
		// counts whose product overflows 64 bits.
		"result-hostile-rows": frame(wire.TResult, []byte{0x02, 0x01, 'a', 0x01, 'b',
			0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, 0x02, 0x00, 0x00}),
		"result-rows-overflow": frame(wire.TResult, []byte{0x03, 0x01, 'a', 0x01, 'b', 0x01, 'c',
			0xAB, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0x55, 0x03, 0x00, 0x00, 0x00}),
		"repl-hello": frame(wire.TReplHello, wire.EncodeReplHello(wire.ReplHello{Epoch: 1<<63 | 9, Run: 1 << 62, Pos: 1 << 33})),
		"repl-ack":   frame(wire.TReplAck, wire.EncodeReplAck(1<<40)),
		"repl-snapshot": frame(wire.TReplSnapshot, wire.EncodeReplSnapshot(wire.ReplSnapshot{
			Epoch: 9, Run: 0xF00D, Pos: 17, Gen: 2, Total: 1 << 16, Offset: 4096, Chunk: bytes.Repeat([]byte{0xA5}, 512)})),
		"repl-frames": frame(wire.TReplFrames, wire.EncodeReplFrames(wire.ReplFrames{
			Epoch: 9, Run: 0xF00D, Pos: 18, Latest: 20, Gen: 2, TS: 1 << 60, IDs: []uint64{0xDEADBEEF, 7},
			Pages: []wire.ReplPage{{ID: 0, Data: bytes.Repeat([]byte{0x5A}, 128)}, {ID: 31, Data: []byte("tail page")}}})),
		"repl-heartbeat": frame(wire.TReplFrames, wire.EncodeReplFrames(wire.ReplFrames{Epoch: 9, Run: 0xF00D, Latest: 20})),
		"promote-ok":     frame(wire.TPromoteOK, wire.EncodePromoteOK(10)),
		"retarget":       frame(wire.TRetarget, wire.EncodeRetarget(wire.Retarget{Epoch: 10, Addr: "198.51.100.7:1988"})),
		"repl-status": frame(wire.TReplStatusOK, wire.EncodeReplStatus(wire.ReplStatus{
			Role: "primary", Epoch: 9, Latest: 20,
			Replicas: []wire.ReplicaInfo{{Addr: "198.51.100.7:1988", State: "snapshot", Pos: 0, Latest: 20, AgeMs: 3}}})),
		// Hostile variants: a frames payload cut mid-page, and a snapshot
		// whose declared total dwarfs the bytes actually present.
		"repl-frames-truncated": frame(wire.TReplFrames, wire.EncodeReplFrames(wire.ReplFrames{
			Epoch: 9, Pos: 19, Pages: []wire.ReplPage{{ID: 1, Data: bytes.Repeat([]byte{0xEE}, 64)}}})[:12]),
		"repl-snapshot-hostile-total": frame(wire.TReplSnapshot, []byte{
			0x09, 0x11, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x03, 0x00, 0x04, 'd', 'a', 't', 'a'}),
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			panic(err)
		}
	}
}
