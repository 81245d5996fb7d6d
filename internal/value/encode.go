package value

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Binary encoding of values for the storage substrate. A value is encoded
// as a one-byte kind tag followed by a kind-specific payload:
//
//	null                      (no payload)
//	int/date/bool/surrogate   zig-zag varint
//	number                    8-byte big-endian IEEE-754 bits
//	string                    uvarint length + bytes
//	symbolic                  uvarint ordinal + uvarint length + label bytes
//
// The encoding is self-delimiting so records can hold sequences of values.

// Append appends the binary encoding of v to dst and returns the result.
func Append(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindDate, KindBool, KindSurrogate:
		dst = binary.AppendVarint(dst, v.i)
	case KindNumber:
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], mathFloat64bits(v.f))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case KindSymbolic:
		dst = binary.AppendVarint(dst, v.i)
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

// Decode decodes one value from b, returning the value and the remaining
// bytes.
func Decode(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, fmt.Errorf("value: decode: empty input")
	}
	k := Kind(b[0])
	b = b[1:]
	switch k {
	case KindNull:
		return Null, b, nil
	case KindInt, KindDate, KindBool, KindSurrogate:
		i, n := binary.Varint(b)
		if n <= 0 {
			return Null, nil, fmt.Errorf("value: decode: bad varint")
		}
		return Value{kind: k, i: i}, b[n:], nil
	case KindNumber:
		if len(b) < 8 {
			return Null, nil, fmt.Errorf("value: decode: short number")
		}
		f := mathFloat64frombits(binary.BigEndian.Uint64(b[:8]))
		return Value{kind: KindNumber, f: f}, b[8:], nil
	case KindString:
		ln, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < ln {
			return Null, nil, fmt.Errorf("value: decode: bad string")
		}
		s := string(b[n : n+int(ln)])
		return Value{kind: KindString, s: s}, b[n+int(ln):], nil
	case KindSymbolic:
		ord, n := binary.Varint(b)
		if n <= 0 {
			return Null, nil, fmt.Errorf("value: decode: bad symbolic ordinal")
		}
		b = b[n:]
		ln, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < ln {
			return Null, nil, fmt.Errorf("value: decode: bad symbolic label")
		}
		s := string(b[n : n+int(ln)])
		return Value{kind: KindSymbolic, i: ord, s: s}, b[n+int(ln):], nil
	}
	return Null, nil, fmt.Errorf("value: decode: unknown kind tag %d", k)
}

// encodedLen returns the length of v's binary encoding: len(Append(nil, v)).
func encodedLen(v Value) int {
	switch v.kind {
	case KindInt, KindDate, KindBool, KindSurrogate:
		return 1 + varintLen(v.i)
	case KindNumber:
		return 9
	case KindString:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	case KindSymbolic:
		return 1 + varintLen(v.i) + uvarintLen(uint64(len(v.s))) + len(v.s)
	}
	return 1
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// AppendRow encodes a slice of values prefixed with its length.
func AppendRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = Append(dst, v)
	}
	return dst
}

// RowLen returns the length of row's encoding: len(AppendRow(nil, row)).
func RowLen(row []Value) int {
	n := uvarintLen(uint64(len(row)))
	for _, v := range row {
		n += encodedLen(v)
	}
	return n
}

// DecodeRow decodes a length-prefixed slice of values, appending them to
// dst: callers decoding many rows pass one shared backing array and slice
// each row out of it.
func DecodeRow(dst []Value, b []byte) ([]Value, []byte, error) {
	n, ln := binary.Uvarint(b)
	if ln <= 0 {
		return nil, nil, fmt.Errorf("value: decode row: bad length")
	}
	b = b[ln:]
	// Cap the preallocation by what the input could possibly hold (every
	// encoded value is at least one byte): a corrupt or hostile length
	// prefix must not make the decoder allocate gigabytes up front.
	capHint := n
	if capHint > uint64(len(b)) {
		capHint = uint64(len(b))
	}
	dst = slices.Grow(dst, int(capHint))
	for i := uint64(0); i < n; i++ {
		var v Value
		var err error
		v, b, err = Decode(b)
		if err != nil {
			return nil, nil, fmt.Errorf("value: decode row field %d: %w", i, err)
		}
		dst = append(dst, v)
	}
	return dst, b, nil
}
