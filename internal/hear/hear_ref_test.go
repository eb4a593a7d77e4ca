package hear

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"encmpi/internal/cryptopool"
	"encmpi/internal/mpi"
)

// refUnit maps a mixed 64-bit word to [0, 1) with 53 random bits.
func refUnit(h uint64) float64 {
	return float64(h>>11) * (1.0 / (1 << 53))
}

// refEncryptChunk is the reference encrypt kernel: in place on t.dst, the
// keystream index recomputed from scratch for every element.
func refEncryptChunk(s *State, t *task) {
	ksj := s.ks[t.lo]
	data := t.dst
	base := uint64(t.elemOff)
	switch {
	case t.op == mpi.OpSum && (t.dt == mpi.Int32 || t.dt == mpi.Uint32):
		for k := 0; k*4 < len(data); k++ {
			i := base + uint64(k)
			f := mix64(t.kn1 + i*golden)
			g := mix64(t.kn2 + i*golden)
			x := binary.LittleEndian.Uint32(data[4*k:])
			binary.LittleEndian.PutUint32(data[4*k:], x+uint32(f+ksj*g))
		}
	case t.op == mpi.OpSum && t.dt == mpi.Float64:
		for k := 0; k*8 < len(data); k++ {
			i := base + uint64(k)
			a := refUnit(mix64(t.kn1+i*golden)) * f64Scale
			b := refUnit(mix64(t.kn2+i*golden)) * f64Scale
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
			binary.LittleEndian.PutUint64(data[8*k:], math.Float64bits(x+a+float64(ksj)*b))
		}
	case t.op == mpi.OpSum && t.dt == mpi.Float32:
		for k := 0; k*4 < len(data); k++ {
			i := base + uint64(k)
			a := refUnit(mix64(t.kn1+i*golden)) * f32Scale
			b := refUnit(mix64(t.kn2+i*golden)) * f32Scale
			x := math.Float32frombits(binary.LittleEndian.Uint32(data[4*k:]))
			binary.LittleEndian.PutUint32(data[4*k:],
				math.Float32bits(float32(float64(x)+a+float64(ksj)*b)))
		}
	case t.op == mpi.OpProd && (t.dt == mpi.Int32 || t.dt == mpi.Uint32):
		for k := 0; k*4 < len(data); k++ {
			i := base + uint64(k)
			f := mix64(t.kn1 + i*golden)
			g := mix64(t.kn2 + i*golden)
			m := uint32(f+ksj*g) | 1 // odd ⇒ invertible mod 2^32
			x := binary.LittleEndian.Uint32(data[4*k:])
			binary.LittleEndian.PutUint32(data[4*k:], x*m)
		}
	default:
		panic(fmt.Sprintf("hear: encrypt kernel missing for %s %s", t.dt, t.op))
	}
}

// refDecryptChunk is the reference decrypt kernel, in place on t.dst.
func refDecryptChunk(s *State, t *task) {
	data := t.dst
	base := uint64(t.elemOff)
	n := uint64(t.hi - t.lo)
	sum := s.pre[t.hi] - s.pre[t.lo]
	switch {
	case t.op == mpi.OpSum && (t.dt == mpi.Int32 || t.dt == mpi.Uint32):
		for k := 0; k*4 < len(data); k++ {
			i := base + uint64(k)
			f := mix64(t.kn1 + i*golden)
			g := mix64(t.kn2 + i*golden)
			x := binary.LittleEndian.Uint32(data[4*k:])
			binary.LittleEndian.PutUint32(data[4*k:], x-uint32(n*f+sum*g))
		}
	case t.op == mpi.OpSum && t.dt == mpi.Float64:
		for k := 0; k*8 < len(data); k++ {
			i := base + uint64(k)
			a := refUnit(mix64(t.kn1+i*golden)) * f64Scale
			b := refUnit(mix64(t.kn2+i*golden)) * f64Scale
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
			binary.LittleEndian.PutUint64(data[8*k:],
				math.Float64bits(x-(float64(n)*a+float64(sum)*b)))
		}
	case t.op == mpi.OpSum && t.dt == mpi.Float32:
		for k := 0; k*4 < len(data); k++ {
			i := base + uint64(k)
			a := refUnit(mix64(t.kn1+i*golden)) * f32Scale
			b := refUnit(mix64(t.kn2+i*golden)) * f32Scale
			x := math.Float32frombits(binary.LittleEndian.Uint32(data[4*k:]))
			binary.LittleEndian.PutUint32(data[4*k:],
				math.Float32bits(float32(float64(x)-(float64(n)*a+float64(sum)*b))))
		}
	case t.op == mpi.OpProd && (t.dt == mpi.Int32 || t.dt == mpi.Uint32):
		// No closed form for a product of affine masks: walk the rank range
		// per element. O(ranks·elements) — a correctness feature, not a
		// performance path (see the package comment).
		for k := 0; k*4 < len(data); k++ {
			i := base + uint64(k)
			f := mix64(t.kn1 + i*golden)
			g := mix64(t.kn2 + i*golden)
			prod := uint32(1)
			for j := t.lo; j < t.hi; j++ {
				prod *= uint32(f+s.ks[j]*g) | 1
			}
			x := binary.LittleEndian.Uint32(data[4*k:])
			binary.LittleEndian.PutUint32(data[4*k:], x*inv32(prod))
		}
	default:
		panic(fmt.Sprintf("hear: decrypt kernel missing for %s %s", t.dt, t.op))
	}
}

var hearPairs = []struct {
	dt mpi.Datatype
	op mpi.Op
}{
	{mpi.Int32, mpi.OpSum}, {mpi.Uint32, mpi.OpSum}, {mpi.Float32, mpi.OpSum},
	{mpi.Float64, mpi.OpSum}, {mpi.Int32, mpi.OpProd}, {mpi.Uint32, mpi.OpProd},
}

// refRun applies a reference kernel to a copy of src at elemOff and returns
// the result.
func refRun(s *State, src []byte, elemOff int, dt mpi.Datatype, op mpi.Op, lo, hi int, decrypt bool) []byte {
	t := &task{dst: append([]byte(nil), src...), elemOff: elemOff, dt: dt, op: op,
		kn1: s.kn1, kn2: s.kn2, lo: lo, hi: hi}
	if decrypt {
		refDecryptChunk(s, t)
	} else {
		refEncryptChunk(s, t)
	}
	return t.dst
}

// TestKernelsMatchReference pins every encrypt and decrypt kernel byte for
// byte against the reference kernels: whole buffers through the fan-out
// (lengths straddling DefaultChunk, with and without a worker pool), in
// place and from a separate source.
func TestKernelsMatchReference(t *testing.T) {
	pool := cryptopool.New(3, 0)
	defer pool.Close()
	rng := rand.New(rand.NewSource(11))
	for _, withPool := range []bool{false, true} {
		var p *cryptopool.Pool
		if withPool {
			p = pool
		}
		states := buildStates(t, 5, Params{}, p)
		st := states[2]
		st.Step()
		for _, pr := range hearPairs {
			ce := DefaultChunk / pr.dt.Size()
			for _, n := range []int{1, 5, ce - 1, ce, ce + 1, 2*ce + 3} {
				name := fmt.Sprintf("pool=%v/%s/%s/n%d", withPool, pr.dt, pr.op, n)
				src := make([]byte, n*pr.dt.Size())
				rng.Read(src)
				keep := append([]byte(nil), src...)

				want := refRun(st, src, 0, pr.dt, pr.op, st.Rank(), -1, false)
				got := make([]byte, len(src))
				if e := st.EncryptFrom(got, src, pr.dt, pr.op); e != n {
					t.Errorf("%s: EncryptFrom counted %d elements, want %d", name, e, n)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: EncryptFrom differs from the reference", name)
				}
				if !bytes.Equal(src, keep) {
					t.Errorf("%s: EncryptFrom modified its source", name)
				}
				inPlace := append([]byte(nil), src...)
				st.Encrypt(inPlace, pr.dt, pr.op)
				if !bytes.Equal(inPlace, want) {
					t.Errorf("%s: Encrypt differs from the reference", name)
				}

				for _, r := range [][2]int{{0, 5}, {1, 4}} {
					want := refRun(st, src, 0, pr.dt, pr.op, r[0], r[1], true)
					inPlace := append([]byte(nil), src...)
					st.Decrypt(inPlace, pr.dt, pr.op, r[0], r[1])
					if !bytes.Equal(inPlace, want) {
						t.Errorf("%s: Decrypt [%d,%d) differs from the reference", name, r[0], r[1])
					}
					got := make([]byte, len(src))
					st.fanout(got, src, pr.dt, pr.op, r[0], r[1], true)
					if !bytes.Equal(got, want) || !bytes.Equal(src, keep) {
						t.Errorf("%s: decrypt from source [%d,%d) differs from the reference", name, r[0], r[1])
					}
				}
			}
		}
	}
}

// TestKernelsMatchReferenceAtOffset runs single chunks at non-zero element
// offsets straight through the kernels, in place and from a source.
func TestKernelsMatchReferenceAtOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	st := buildStates(t, 4, Params{}, nil)[3]
	for _, pr := range hearPairs {
		for _, off := range []int{1, 7, DefaultChunk/pr.dt.Size() - 1, 1 << 40} {
			for _, decrypt := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/off%d/decrypt=%v", pr.dt, pr.op, off, decrypt)
				src := make([]byte, 37*pr.dt.Size())
				rng.Read(src)
				keep := append([]byte(nil), src...)
				lo, hi := st.Rank(), -1
				if decrypt {
					lo, hi = 1, 4
				}
				want := refRun(st, src, off, pr.dt, pr.op, lo, hi, decrypt)
				fromSrc := &task{s: st, dst: make([]byte, len(src)), src: src, elemOff: off,
					dt: pr.dt, op: pr.op, kn1: st.kn1, kn2: st.kn2, lo: lo, hi: hi, decrypt: decrypt}
				fromSrc.exec()
				inPlace := append([]byte(nil), src...)
				inTask := *fromSrc
				inTask.dst, inTask.src = inPlace, inPlace
				inTask.exec()
				if !bytes.Equal(fromSrc.dst, want) || !bytes.Equal(src, keep) {
					t.Errorf("%s: from-source kernel differs from the reference", name)
				}
				if !bytes.Equal(inPlace, want) {
					t.Errorf("%s: in-place kernel differs from the reference", name)
				}
			}
		}
	}
}
