package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Datatype describes the element type of a reduction buffer.
type Datatype int

// Supported datatypes.
const (
	Float64 Datatype = iota
	Int64
	Byte
	Int32
	Uint32
	Float32
)

// Size returns the element size in bytes.
func (d Datatype) Size() int {
	switch d {
	case Float64, Int64:
		return 8
	case Int32, Uint32, Float32:
		return 4
	case Byte:
		return 1
	default:
		panic(fmt.Sprintf("mpi: unknown datatype %d", int(d)))
	}
}

// String implements fmt.Stringer.
func (d Datatype) String() string {
	switch d {
	case Float64:
		return "float64"
	case Int64:
		return "int64"
	case Byte:
		return "byte"
	case Int32:
		return "int32"
	case Uint32:
		return "uint32"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("Datatype(%d)", int(d))
	}
}

// Op is a reduction operator.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ErrUnsupportedReduce is the root of the reduction-validation error family:
// an unknown datatype, an unknown operator, or a (datatype, op) pair a
// particular engine cannot realize all wrap it. Match with
// errors.Is(err, ErrUnsupportedReduce).
var ErrUnsupportedReduce = errors.New("mpi: unsupported reduction")

// ValidateReduce reports whether the (datatype, op) pair names a reduction
// the element kernels implement. The error wraps ErrUnsupportedReduce, so
// callers can distinguish "bad request" from transport or crypto failures.
func ValidateReduce(dt Datatype, op Op) error {
	switch dt {
	case Float64, Int64, Byte, Int32, Uint32, Float32:
	default:
		return fmt.Errorf("%w: unknown datatype %s", ErrUnsupportedReduce, dt)
	}
	switch op {
	case OpSum, OpMax, OpMin, OpProd:
	default:
		return fmt.Errorf("%w: unknown op %s", ErrUnsupportedReduce, op)
	}
	return nil
}

// ReduceBuffers accumulates src into dst element-wise (dst = dst (op) src),
// mutating and returning dst. Callers that must not clobber their input clone
// it first, exactly as the collectives here do. Exported for the encrypted
// hierarchical layer, whose leader-phase reduction combines decrypted
// partials outside this package.
//
// Unlike the internal kernels (which trust the collectives' arguments), the
// exported entry point validates the (datatype, op) pair and the buffer
// geometry, returning an ErrUnsupportedReduce-wrapped error instead of
// panicking: engine layers route user-chosen pairs here, and an unsupported
// pair must surface as a typed failure, never as a silent fallback.
func ReduceBuffers(dst, src Buffer, dt Datatype, op Op) (Buffer, error) {
	if err := ValidateReduce(dt, op); err != nil {
		return dst, err
	}
	if dst.Len() != src.Len() {
		return dst, fmt.Errorf("%w: length mismatch %d vs %d", ErrUnsupportedReduce, dst.Len(), src.Len())
	}
	if dst.Len()%dt.Size() != 0 {
		return dst, fmt.Errorf("%w: buffer length %d not a multiple of %s element size %d",
			ErrUnsupportedReduce, dst.Len(), dt, dt.Size())
	}
	return reduceInto(dst, src, dt, op), nil
}

// reduceInto accumulates src into dst element-wise: dst = dst (op) src.
// Synthetic buffers pass through untouched (the simulator only tracks sizes).
// Integer sums and products wrap modulo the element width — Go defines
// signed overflow as two's-complement wrapping — which is what lets additive
// and multiplicative ciphertexts ride these kernels exactly.
//
// The kernels switch on (datatype, op) once per call, then run a tight loop
// over fixed-width windows re-sliced with a capped capacity, so the loop body
// carries no per-element op dispatch. Buffers may start at any byte offset
// (sealed payloads, Slice), so every access goes through encoding/binary.
func reduceInto(dst, src Buffer, dt Datatype, op Op) Buffer {
	if dst.Len() != src.Len() {
		panic(fmt.Sprintf("mpi: reduce length mismatch %d vs %d", dst.Len(), src.Len()))
	}
	if dst.IsSynthetic() || src.IsSynthetic() {
		return Synthetic(dst.Len())
	}
	es := dt.Size()
	if dst.Len()%es != 0 {
		panic(fmt.Sprintf("mpi: buffer length %d not a multiple of element size %d", dst.Len(), es))
	}
	d, s := dst.Data[:dst.Len()], src.Data[:dst.Len()]
	switch dt {
	case Float64:
		reduceFloat64(d, s, op)
	case Float32:
		reduceFloat32(d, s, op)
	case Int64:
		reduceInt64(d, s, op)
	case Int32, Uint32:
		reduce32(d, s, op, dt == Int32)
	case Byte:
		reduceByte(d, s, op)
	}
	return dst
}

func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func getF32(b []byte) float32    { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func putF32(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) }

func badOp(op Op) string { return fmt.Sprint("mpi: unknown op ", int(op)) }

// reduceFloat64 is the float64 kernel. Max and min go through math.Max and
// math.Min, whose NaN and signed-zero rules define the result.
func reduceFloat64(d, s []byte, op Op) {
	s = s[:len(d)]
	switch op {
	case OpSum:
		for i := 0; i+8 <= len(d); i += 8 {
			dw, sw := d[i:i+8:i+8], s[i:i+8:i+8]
			putF64(dw, getF64(dw)+getF64(sw))
		}
	case OpProd:
		for i := 0; i+8 <= len(d); i += 8 {
			dw, sw := d[i:i+8:i+8], s[i:i+8:i+8]
			putF64(dw, getF64(dw)*getF64(sw))
		}
	case OpMax:
		for i := 0; i+8 <= len(d); i += 8 {
			dw, sw := d[i:i+8:i+8], s[i:i+8:i+8]
			putF64(dw, math.Max(getF64(dw), getF64(sw)))
		}
	case OpMin:
		for i := 0; i+8 <= len(d); i += 8 {
			dw, sw := d[i:i+8:i+8], s[i:i+8:i+8]
			putF64(dw, math.Min(getF64(dw), getF64(sw)))
		}
	default:
		panic(badOp(op))
	}
}

// reduceFloat32 is the float32 kernel; max32 and min32 give its NaN rules.
func reduceFloat32(d, s []byte, op Op) {
	s = s[:len(d)]
	switch op {
	case OpSum:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			putF32(dw, getF32(dw)+getF32(sw))
		}
	case OpProd:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			putF32(dw, getF32(dw)*getF32(sw))
		}
	case OpMax:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			putF32(dw, max32(getF32(dw), getF32(sw)))
		}
	case OpMin:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			putF32(dw, min32(getF32(dw), getF32(sw)))
		}
	default:
		panic(badOp(op))
	}
}

// max32 and min32 return a when it is NaN or wins the comparison and b
// otherwise, so a NaN on either side propagates, matching math.Max.
func max32(a, b float32) float32 {
	if a > b || a != a {
		return a
	}
	return b
}

func min32(a, b float32) float32 {
	if a < b || a != a {
		return a
	}
	return b
}

// reduceInt64 is the int64 kernel. Sums and products wrap, so they run on
// the raw uint64 words.
func reduceInt64(d, s []byte, op Op) {
	s = s[:len(d)]
	le := binary.LittleEndian
	switch op {
	case OpSum:
		for i := 0; i+8 <= len(d); i += 8 {
			dw, sw := d[i:i+8:i+8], s[i:i+8:i+8]
			le.PutUint64(dw, le.Uint64(dw)+le.Uint64(sw))
		}
	case OpProd:
		for i := 0; i+8 <= len(d); i += 8 {
			dw, sw := d[i:i+8:i+8], s[i:i+8:i+8]
			le.PutUint64(dw, le.Uint64(dw)*le.Uint64(sw))
		}
	case OpMax:
		for i := 0; i+8 <= len(d); i += 8 {
			dw, sw := d[i:i+8:i+8], s[i:i+8:i+8]
			le.PutUint64(dw, uint64(max(int64(le.Uint64(dw)), int64(le.Uint64(sw)))))
		}
	case OpMin:
		for i := 0; i+8 <= len(d); i += 8 {
			dw, sw := d[i:i+8:i+8], s[i:i+8:i+8]
			le.PutUint64(dw, uint64(min(int64(le.Uint64(dw)), int64(le.Uint64(sw)))))
		}
	default:
		panic(badOp(op))
	}
}

// reduce32 is the int32 and uint32 kernel. Sums and products wrap, so both
// types share them; max and min compare signed for int32, unsigned for
// uint32.
func reduce32(d, s []byte, op Op, signed bool) {
	s = s[:len(d)]
	le := binary.LittleEndian
	switch {
	case op == OpSum:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			le.PutUint32(dw, le.Uint32(dw)+le.Uint32(sw))
		}
	case op == OpProd:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			le.PutUint32(dw, le.Uint32(dw)*le.Uint32(sw))
		}
	case op == OpMax && signed:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			le.PutUint32(dw, uint32(max(int32(le.Uint32(dw)), int32(le.Uint32(sw)))))
		}
	case op == OpMin && signed:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			le.PutUint32(dw, uint32(min(int32(le.Uint32(dw)), int32(le.Uint32(sw)))))
		}
	case op == OpMax:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			le.PutUint32(dw, max(le.Uint32(dw), le.Uint32(sw)))
		}
	case op == OpMin:
		for i := 0; i+4 <= len(d); i += 4 {
			dw, sw := d[i:i+4:i+4], s[i:i+4:i+4]
			le.PutUint32(dw, min(le.Uint32(dw), le.Uint32(sw)))
		}
	default:
		panic(badOp(op))
	}
}

// reduceByte is the byte kernel: unsigned, sums and products wrap mod 256.
func reduceByte(d, s []byte, op Op) {
	s = s[:len(d)]
	switch op {
	case OpSum:
		for i := range d {
			d[i] += s[i]
		}
	case OpProd:
		for i := range d {
			d[i] *= s[i]
		}
	case OpMax:
		for i := range d {
			d[i] = max(d[i], s[i])
		}
	case OpMin:
		for i := range d {
			d[i] = min(d[i], s[i])
		}
	default:
		panic(badOp(op))
	}
}

// Float64Buffer packs a float64 slice into a Buffer (little endian).
func Float64Buffer(v []float64) Buffer {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return Bytes(b)
}

// Float64s unpacks a Buffer into float64s.
func Float64s(b Buffer) []float64 {
	if b.IsSynthetic() {
		return make([]float64, b.Len()/8)
	}
	out := make([]float64, len(b.Data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b.Data[8*i:]))
	}
	return out
}

// Float32Buffer packs a float32 slice into a Buffer (little endian).
func Float32Buffer(v []float32) Buffer {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	return Bytes(b)
}

// Float32s unpacks a Buffer into float32s.
func Float32s(b Buffer) []float32 {
	if b.IsSynthetic() {
		return make([]float32, b.Len()/4)
	}
	out := make([]float32, len(b.Data)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b.Data[4*i:]))
	}
	return out
}

// Int32Buffer packs an int32 slice into a Buffer (little endian).
func Int32Buffer(v []int32) Buffer {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return Bytes(b)
}

// Int32s unpacks a Buffer into int32s.
func Int32s(b Buffer) []int32 {
	if b.IsSynthetic() {
		return make([]int32, b.Len()/4)
	}
	out := make([]int32, len(b.Data)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b.Data[4*i:]))
	}
	return out
}

// Uint32Buffer packs a uint32 slice into a Buffer (little endian).
func Uint32Buffer(v []uint32) Buffer {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], x)
	}
	return Bytes(b)
}

// Uint32s unpacks a Buffer into uint32s.
func Uint32s(b Buffer) []uint32 {
	if b.IsSynthetic() {
		return make([]uint32, b.Len()/4)
	}
	out := make([]uint32, len(b.Data)/4)
	for i := range out {
		out[i] = uint32(binary.LittleEndian.Uint32(b.Data[4*i:]))
	}
	return out
}
