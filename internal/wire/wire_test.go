package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"sim/internal/exec"
	"sim/internal/value"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, TQuery, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		typ, got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if typ != TQuery || !bytes.Equal(got, p) && len(p) > 0 {
			t.Fatalf("frame round trip: got %v %q, want %q", typ, got, p)
		}
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TQuery, bytes.Repeat([]byte("a"), 100)); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadFrame(&buf, 50)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame error = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsZeroLength(t *testing.T) {
	_, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0, 0}), 0)
	if err == nil || !strings.Contains(err.Error(), "zero-length") {
		t.Fatalf("zero-length frame error = %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	v, err := DecodeHello(EncodeHello())
	if err != nil || v != Version {
		t.Fatalf("hello round trip: v=%d err=%v", v, err)
	}
	if _, err := DecodeHello([]byte("HTTP/1.1 400")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeHello([]byte("SIM")); err == nil {
		t.Fatal("short hello accepted")
	}
}

func TestErrorRoundTrip(t *testing.T) {
	e, err := DecodeError(EncodeError(CodeParse, "at 1:1: boom"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeParse || e.Msg != "at 1:1: boom" {
		t.Fatalf("error round trip: %+v", e)
	}
	if !strings.Contains(e.Error(), "parse") {
		t.Fatalf("Error() = %q", e.Error())
	}
	if _, err := DecodeError(nil); err == nil {
		t.Fatal("empty error frame accepted")
	}
}

func TestCountRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 1729, 1 << 30} {
		got, err := DecodeCount(EncodeCount(n))
		if err != nil || got != n {
			t.Fatalf("count %d: got %d err %v", n, got, err)
		}
	}
	if _, err := DecodeCount(append(EncodeCount(3), 'x')); err == nil {
		t.Fatal("trailing bytes accepted in count frame")
	}
}

func TestServerStatsRoundTrip(t *testing.T) {
	in := ServerStats{Connections: 12, Active: 3, Requests: 9001, BytesIn: 1 << 40, BytesOut: 7, Errors: 2}
	out, err := DecodeServerStats(EncodeServerStats(in))
	if err != nil || out != in {
		t.Fatalf("stats round trip: %+v err %v", out, err)
	}
	if _, err := DecodeServerStats([]byte{1, 2}); err == nil {
		t.Fatal("truncated stats accepted")
	}
}

// sampleResult builds a result exercising every value kind plus the
// structured group tree.
func sampleResult(t *testing.T) *exec.Result {
	t.Helper()
	date, err := value.ParseDate("1988-06-01")
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]value.Value{
		{value.NewInt(-42), value.NewString("Doe, John"), value.Null},
		{value.NewNumber(3.25), value.NewBool(true), date},
		{value.NewSymbolic("PHD", 3), value.NewSurrogate(1729), value.NewString("")},
	}
	g := &exec.Group{Label: "result", Children: []*exec.Group{
		{Label: "student", Level: 0, Values: []value.Value{value.NewString("a")}, Indexes: []int{0},
			Children: []*exec.Group{{Label: "course", Level: 2, Values: []value.Value{value.NewInt(7)}, Indexes: []int{1}}}},
	}}
	return exec.RemoteResult([]string{"a", "b", "c"}, rows, g, exec.Stats{Instances: 99, Rows: 3})
}

func TestResultRoundTrip(t *testing.T) {
	in := sampleResult(t)
	out, err := DecodeResult(EncodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Format() != in.Format() {
		t.Fatalf("tabular format diverged:\n%s\nvs\n%s", out.Format(), in.Format())
	}
	if out.FormatStructured() != in.FormatStructured() {
		t.Fatalf("structured format diverged:\n%s\nvs\n%s", out.FormatStructured(), in.FormatStructured())
	}
	if out.Stats != in.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", out.Stats, in.Stats)
	}
	if out.NumRows() != 3 {
		t.Fatalf("NumRows = %d", out.NumRows())
	}
}

func TestResultNoStructure(t *testing.T) {
	in := exec.RemoteResult([]string{"n"}, nil, nil, exec.Stats{})
	out, err := DecodeResult(EncodeResult(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Structured != nil || out.NumRows() != 0 {
		t.Fatalf("empty result decoded to %+v", out)
	}
}

// TestDecodeResultRejectsCorruption truncates and flips bytes of a valid
// encoding at every offset; the decoder must fail or succeed cleanly but
// never panic (the fuzz harness explores far beyond this).
func TestDecodeResultRejectsCorruption(t *testing.T) {
	b := EncodeResult(sampleResult(t))
	for i := 0; i < len(b); i++ {
		DecodeResult(b[:i])
		mut := bytes.Clone(b)
		mut[i] ^= 0xFF
		DecodeResult(mut)
	}
}

func TestDecodeResultHostileLengths(t *testing.T) {
	// A column count of 2^40 with no column bytes must not allocate.
	var b []byte
	b = append(b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // huge uvarint
	if _, err := DecodeResult(b); err == nil {
		t.Fatal("hostile column count accepted")
	}
}

// hostileRowHeader encodes a result header naming ncols columns and
// declaring nrows rows, followed by the given row bytes.
func hostileRowHeader(ncols int, nrows uint64, rows []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(ncols))
	for i := 0; i < ncols; i++ {
		b = append(b, 1, 'c')
	}
	b = binary.AppendUvarint(b, nrows)
	return append(b, rows...)
}

// TestDecodeResultHostileRowCounts: declared row counts that are huge, or
// whose product with the column count overflows, must fail cleanly, and
// the shared row backing must stay bounded by the payload length.
func TestDecodeResultHostileRowCounts(t *testing.T) {
	oneRow := value.AppendRow(nil, []value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(3)})
	cases := map[string][]byte{
		"huge rows":             hostileRowHeader(3, 1<<62, oneRow),
		"max rows":              hostileRowHeader(3, math.MaxUint64, oneRow),
		"product overflows":     hostileRowHeader(3, math.MaxUint64/3+1, oneRow),
		"rows beyond payload":   hostileRowHeader(3, 1<<20, bytes.Repeat(oneRow, 4)),
		"row wider than header": hostileRowHeader(1, 2, bytes.Repeat(oneRow, 2)),
	}
	for name, b := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeResult(b)
		runtime.ReadMemStats(&after)
		if name == "row wider than header" {
			// Well-formed apart from the row width: decodes (trailing
			// stats missing) to an error, never a panic.
			if err == nil {
				t.Fatalf("%s: accepted a payload without stats", name)
			}
		} else if err == nil {
			t.Fatalf("%s: hostile row count accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes", name, len(b), grew)
		}
	}
}

// TestDecodedRowsIndependent: rows decoded into one backing array are
// full slices, so appending to one row never overwrites its neighbor.
func TestDecodedRowsIndependent(t *testing.T) {
	out, err := DecodeResult(EncodeResult(sampleResult(t)))
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Rows()
	want := rows[1][0]
	_ = append(rows[0], value.NewString("appended"))
	if !rows[1][0].Equal(want) {
		t.Fatalf("appending to row 0 overwrote row 1: %v", rows[1][0])
	}
}

// TestFrameSendsOnce: a pooled Frame carries its header in front of the
// payload and reaches the writer in a single Write call.
func TestFrameSendsOnce(t *testing.T) {
	var w countingWriter
	f := NewFrame()
	f.B = AppendResult(f.B, sampleResult(t))
	want := EncodeResult(sampleResult(t))
	if !bytes.Equal(f.B[5:], want) {
		t.Fatal("AppendResult into a frame differs from EncodeResult")
	}
	if err := f.Send(&w, TResult); err != nil {
		t.Fatal(err)
	}
	f.Free()
	if w.writes != 1 {
		t.Fatalf("frame took %d writes, want 1", w.writes)
	}
	typ, got, err := ReadFrame(&w.buf, 0)
	if err != nil || typ != TResult || !bytes.Equal(got, want) {
		t.Fatalf("sent frame read back as %v, %d bytes, err %v", typ, len(got), err)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}
