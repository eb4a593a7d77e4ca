package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// reduceIntoRef is the reference element kernel reduceInto must match byte
// for byte: a per-element loop that dispatches on the op for every element.
func reduceIntoRef(dst, src Buffer, dt Datatype, op Op) Buffer {
	switch dt {
	case Float64:
		for off := 0; off < dst.Len(); off += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst.Data[off:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src.Data[off:]))
			binary.LittleEndian.PutUint64(dst.Data[off:], math.Float64bits(applyF(a, b, op)))
		}
	case Float32:
		for off := 0; off < dst.Len(); off += 4 {
			a := math.Float32frombits(binary.LittleEndian.Uint32(dst.Data[off:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(src.Data[off:]))
			binary.LittleEndian.PutUint32(dst.Data[off:], math.Float32bits(applyF32(a, b, op)))
		}
	case Int64:
		for off := 0; off < dst.Len(); off += 8 {
			a := int64(binary.LittleEndian.Uint64(dst.Data[off:]))
			b := int64(binary.LittleEndian.Uint64(src.Data[off:]))
			binary.LittleEndian.PutUint64(dst.Data[off:], uint64(applyI(a, b, op)))
		}
	case Int32:
		for off := 0; off < dst.Len(); off += 4 {
			a := int32(binary.LittleEndian.Uint32(dst.Data[off:]))
			b := int32(binary.LittleEndian.Uint32(src.Data[off:]))
			binary.LittleEndian.PutUint32(dst.Data[off:], uint32(applyI32(a, b, op)))
		}
	case Uint32:
		for off := 0; off < dst.Len(); off += 4 {
			a := binary.LittleEndian.Uint32(dst.Data[off:])
			b := binary.LittleEndian.Uint32(src.Data[off:])
			binary.LittleEndian.PutUint32(dst.Data[off:], applyU32(a, b, op))
		}
	case Byte:
		for off := 0; off < dst.Len(); off++ {
			dst.Data[off] = byte(applyI(int64(dst.Data[off]), int64(src.Data[off]), op))
		}
	}
	return dst
}

func applyF(a, b float64, op Op) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return math.Max(a, b)
	case OpMin:
		return math.Min(a, b)
	case OpProd:
		return a * b
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
	}
}

func applyF32(a, b float32, op Op) float32 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b || a != a { // NaN propagates, matching math.Max
			return a
		}
		return b
	case OpMin:
		if a < b || a != a {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
	}
}

func applyI(a, b int64, op Op) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
	}
}

func applyI32(a, b int32, op Op) int32 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
	}
}

func applyU32(a, b uint32, op Op) uint32 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	case OpProd:
		return a * b
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
	}
}

// reduceSpecials returns edge-case element bit patterns for dt: NaNs with
// distinct payloads, signed zeros, infinities, extremes that wrap.
func reduceSpecials(dt Datatype) []uint64 {
	switch dt {
	case Float64:
		return []uint64{
			math.Float64bits(math.NaN()), 0x7ff0000000000001, 0xfff8000000000123,
			0, 1 << 63, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
			math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
			math.Float64bits(math.SmallestNonzeroFloat64), math.Float64bits(1), math.Float64bits(-1),
		}
	case Float32:
		return []uint64{
			uint64(math.Float32bits(float32(math.NaN()))), 0x7f800001, 0xffc00123,
			0, 1 << 31, uint64(math.Float32bits(float32(math.Inf(1)))), uint64(math.Float32bits(float32(math.Inf(-1)))),
			uint64(math.Float32bits(math.MaxFloat32)), uint64(math.Float32bits(-math.MaxFloat32)),
			uint64(math.Float32bits(math.SmallestNonzeroFloat32)), uint64(math.Float32bits(1)), uint64(math.Float32bits(-1)),
		}
	case Int64:
		return []uint64{0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, 1 << 32, 3}
	case Int32, Uint32:
		return []uint64{0, 1, 0xffffffff, 1 << 31, 1<<31 - 1, 1 << 16, 3}
	default:
		return []uint64{0, 1, 0xff, 0x80, 0x7f, 16, 3}
	}
}

// reduceInput builds n elements of dt at byte offset off of a fresh backing
// array: specials at random positions, random bits elsewhere.
func reduceInput(rng *rand.Rand, dt Datatype, n, off int) Buffer {
	es := dt.Size()
	back := make([]byte, off+n*es)
	b := back[off:]
	rng.Read(b)
	specials := reduceSpecials(dt)
	for k := 0; k < n; k++ {
		if rng.Intn(2) == 0 {
			continue
		}
		v := specials[rng.Intn(len(specials))]
		switch es {
		case 8:
			binary.LittleEndian.PutUint64(b[8*k:], v)
		case 4:
			binary.LittleEndian.PutUint32(b[4*k:], uint32(v))
		default:
			b[k] = byte(v)
		}
	}
	return Bytes(b)
}

// TestReduceIntoMatchesReference pins reduceInto byte for byte against the
// per-element reference for every datatype and op, over edge-case values,
// empty buffers, and buffers starting at unaligned offsets.
func TestReduceIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dts := []Datatype{Float64, Int64, Byte, Int32, Uint32, Float32}
	ops := []Op{OpSum, OpMax, OpMin, OpProd}
	for _, dt := range dts {
		for _, op := range ops {
			for _, n := range []int{0, 1, 7, 64, 1001} {
				for _, off := range []int{0, 4, 12} {
					name := fmt.Sprintf("%s/%s/n%d/off%d", dt, op, n, off)
					dst := reduceInput(rng, dt, n, off)
					src := reduceInput(rng, dt, n, 12-off)
					srcCopy := append([]byte(nil), src.Data...)
					want := reduceIntoRef(dst.Clone(), src, dt, op)
					got := reduceInto(dst, src, dt, op)
					if !bytes.Equal(got.Data, want.Data) || got.Len() != want.Len() {
						t.Errorf("%s: reduceInto differs from the reference", name)
					}
					if !bytes.Equal(src.Data, srcCopy) {
						t.Errorf("%s: src modified", name)
					}
				}
			}
		}
	}
}

var reduceSink Buffer

// BenchmarkReduceInto measures each datatype's sum kernel over 1 MiB, in
// ns per element.
func BenchmarkReduceInto(b *testing.B) {
	const nbytes = 1 << 20
	for _, dt := range []Datatype{Float64, Int64, Byte, Int32, Uint32, Float32} {
		b.Run(dt.String(), func(b *testing.B) {
			dst, src := Bytes(make([]byte, nbytes)), Bytes(make([]byte, nbytes))
			elems := nbytes / dt.Size()
			b.SetBytes(nbytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reduceSink = reduceInto(dst, src, dt, OpSum)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
		})
	}
}
