package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"sim/internal/exec"
	"sim/internal/value"
)

// Result-set payload layout (all integers varint/uvarint, values in the
// self-delimiting encoding of internal/value):
//
//	uvarint ncols, ncols × (uvarint len + name bytes)
//	uvarint nrows, nrows × value row (value.AppendRow)
//	varint instances, varint rows        (exec.Stats)
//	byte hasStructured; when 1, one group tree (encodeGroup)
//
// A group is label, level, its attached values with their target indexes,
// and its children, recursively. The decoder caps nesting at
// maxGroupDepth so hostile input cannot overflow the stack.

// maxGroupDepth bounds structured-output nesting when decoding. Real
// trees are as deep as the query's main-variable list (single digits).
const maxGroupDepth = 512

// EncodeResult builds a TResult payload from an executed query result.
// The payload is allocated once, at its exact size, and is the caller's.
func EncodeResult(r *exec.Result) []byte {
	return AppendResult(nil, r)
}

// AppendResult appends a TResult payload to b. The names and rows are
// sized before encoding, so b grows at most once for them (a STRUCTURE
// tree may grow it again). The server appends into a pooled Frame, so a
// steady stream of results encodes without allocating.
func AppendResult(b []byte, r *exec.Result) []byte {
	rows := r.Rows()
	n := binary.MaxVarintLen64 * 4
	for _, name := range r.Names {
		n += binary.MaxVarintLen64 + len(name)
	}
	for _, row := range rows {
		n += value.RowLen(row)
	}
	b = slices.Grow(b, n)
	b = binary.AppendUvarint(b, uint64(len(r.Names)))
	for _, n := range r.Names {
		b = binary.AppendUvarint(b, uint64(len(n)))
		b = append(b, n...)
	}
	b = binary.AppendUvarint(b, uint64(len(rows)))
	for _, row := range rows {
		b = value.AppendRow(b, row)
	}
	b = binary.AppendVarint(b, int64(r.Stats.Instances))
	b = binary.AppendVarint(b, int64(r.Stats.Rows))
	if r.Structured == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return encodeGroup(b, r.Structured)
}

func encodeGroup(b []byte, g *exec.Group) []byte {
	b = binary.AppendUvarint(b, uint64(len(g.Label)))
	b = append(b, g.Label...)
	b = binary.AppendVarint(b, int64(g.Level))
	b = binary.AppendUvarint(b, uint64(len(g.Values)))
	for i, v := range g.Values {
		b = value.Append(b, v)
		b = binary.AppendUvarint(b, uint64(g.Indexes[i]))
	}
	b = binary.AppendUvarint(b, uint64(len(g.Children)))
	for _, c := range g.Children {
		b = encodeGroup(b, c)
	}
	return b
}

// DecodeResult reconstructs a query result from a TResult payload. The
// returned Result behaves exactly like an in-process one: Rows, Format,
// FormatStructured and Stats all match the server-side original.
func DecodeResult(b []byte) (*exec.Result, error) {
	ncols, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("wire: result: bad column count")
	}
	b = b[n:]
	names := make([]string, 0, capHint(ncols, b))
	for i := uint64(0); i < ncols; i++ {
		ln, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < ln {
			return nil, fmt.Errorf("wire: result: bad column name")
		}
		names = append(names, string(b[n:n+int(ln)]))
		b = b[n+int(ln):]
	}
	nrows, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("wire: result: bad row count")
	}
	b = b[n:]
	// Every row slices one backing array, sized for nrows full rows of
	// ncols values but never past the payload length (each value is at
	// least one byte). Each factor is bounded before they are multiplied.
	rows := make([][]value.Value, 0, capHint(nrows, b))
	cells := len(b)
	if bound := uint64(len(b)); nrows <= bound && ncols <= bound && (ncols == 0 || nrows <= bound/ncols) {
		cells = int(nrows * ncols)
	}
	backing := make([]value.Value, 0, cells)
	for i := uint64(0); i < nrows; i++ {
		start := len(backing)
		var err error
		backing, b, err = value.DecodeRow(backing, b)
		if err != nil {
			return nil, fmt.Errorf("wire: result row %d: %w", i, err)
		}
		// A full slice expression: appending to one row reallocates it
		// instead of overwriting its neighbor. A hostile row wider than
		// ncols regrows backing; earlier rows keep the old array.
		rows = append(rows, backing[start:len(backing):len(backing)])
	}
	var stats exec.Stats
	inst, n := binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("wire: result: bad stats")
	}
	b = b[n:]
	srows, n := binary.Varint(b)
	if n <= 0 {
		return nil, fmt.Errorf("wire: result: bad stats")
	}
	b = b[n:]
	stats.Instances, stats.Rows = int(inst), int(srows)
	if len(b) == 0 {
		return nil, fmt.Errorf("wire: result: missing structure flag")
	}
	flag := b[0]
	b = b[1:]
	var structured *exec.Group
	switch flag {
	case 0:
	case 1:
		var err error
		structured, b, err = decodeGroup(b, 0)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wire: result: bad structure flag %d", flag)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: result: %d trailing bytes", len(b))
	}
	return exec.RemoteResult(names, rows, structured, stats), nil
}

func decodeGroup(b []byte, depth int) (*exec.Group, []byte, error) {
	if depth > maxGroupDepth {
		return nil, nil, fmt.Errorf("wire: result: structure nested deeper than %d", maxGroupDepth)
	}
	ln, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < ln {
		return nil, nil, fmt.Errorf("wire: result: bad group label")
	}
	g := &exec.Group{Label: string(b[n : n+int(ln)])}
	b = b[n+int(ln):]
	level, n := binary.Varint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("wire: result: bad group level")
	}
	g.Level = int(level)
	b = b[n:]
	nvals, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("wire: result: bad group value count")
	}
	b = b[n:]
	g.Values = make([]value.Value, 0, capHint(nvals, b))
	g.Indexes = make([]int, 0, capHint(nvals, b))
	for i := uint64(0); i < nvals; i++ {
		v, rest, err := value.Decode(b)
		if err != nil {
			return nil, nil, fmt.Errorf("wire: result group value: %w", err)
		}
		b = rest
		idx, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("wire: result: bad group value index")
		}
		b = b[n:]
		g.Values = append(g.Values, v)
		g.Indexes = append(g.Indexes, int(idx))
	}
	nkids, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, fmt.Errorf("wire: result: bad group child count")
	}
	b = b[n:]
	g.Children = make([]*exec.Group, 0, capHint(nkids, b))
	for i := uint64(0); i < nkids; i++ {
		c, rest, err := decodeGroup(b, depth+1)
		if err != nil {
			return nil, nil, err
		}
		g.Children = append(g.Children, c)
		b = rest
	}
	return g, b, nil
}

// capHint bounds a preallocation by the bytes actually remaining, so a
// hostile length prefix cannot force a huge allocation: every decoded
// element consumes at least one byte.
func capHint(n uint64, b []byte) int {
	if n > uint64(len(b)) {
		return len(b)
	}
	return int(n)
}
