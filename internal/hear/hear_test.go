package hear

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"encmpi/internal/cryptopool"
	"encmpi/internal/mpi"
)

// buildStates builds one State per rank sharing a deterministic key ceremony.
func buildStates(t *testing.T, p int, params Params, pool *cryptopool.Pool) []*State {
	t.Helper()
	ks := make([]uint64, p)
	space := params.seedSpace()
	for j := range ks {
		ks[j] = (uint64(j)*7 + 3) % space
	}
	kn := uint64(0x1234_5678_9abc_def0)
	states := make([]*State, p)
	for r := range states {
		st, err := NewState(r, ks, kn, params, pool)
		if err != nil {
			t.Fatalf("NewState(%d): %v", r, err)
		}
		states[r] = st
	}
	return states
}

// sumCiphertexts reduces the per-rank masked buffers with the plaintext mpi
// kernels — exactly what a reduction tree does to hear ciphertexts.
func sumCiphertexts(t *testing.T, cts [][]byte, dt mpi.Datatype, op mpi.Op) []byte {
	t.Helper()
	acc := mpi.Bytes(append([]byte(nil), cts[0]...))
	for _, ct := range cts[1:] {
		var err error
		acc, err = mpi.ReduceBuffers(acc, mpi.Bytes(ct), dt, op)
		if err != nil {
			t.Fatalf("ReduceBuffers: %v", err)
		}
	}
	return acc.Data
}

func TestRoundTripAllPairs(t *testing.T) {
	pairs := []struct {
		dt mpi.Datatype
		op mpi.Op
	}{
		{mpi.Int32, mpi.OpSum},
		{mpi.Uint32, mpi.OpSum},
		{mpi.Float32, mpi.OpSum},
		{mpi.Float64, mpi.OpSum},
		{mpi.Int32, mpi.OpProd},
		{mpi.Uint32, mpi.OpProd},
	}
	for _, p := range []int{2, 3, 8, 33} {
		for _, pair := range pairs {
			t.Run(fmt.Sprintf("p%d/%s_%s", p, pair.dt, pair.op), func(t *testing.T) {
				testRoundTrip(t, p, pair.dt, pair.op)
			})
		}
	}
}

func testRoundTrip(t *testing.T, p int, dt mpi.Datatype, op mpi.Op) {
	states := buildStates(t, p, Params{}, nil)
	const elems = 257 // odd, multi-chunk-free size
	es := dt.Size()

	plains := make([][]byte, p)
	cts := make([][]byte, p)
	for r := 0; r < p; r++ {
		buf := make([]byte, elems*es)
		fillPlain(buf, dt, op, r)
		plains[r] = append([]byte(nil), buf...)
		states[r].Encrypt(buf, dt, op)
		cts[r] = buf
	}

	want := sumCiphertexts(t, clones(plains), dt, op)
	got := sumCiphertexts(t, cts, dt, op)
	states[0].Decrypt(got, dt, op, 0, p)

	compare(t, want, got, dt, p)
}

// TestScanPrefixRanges verifies the prefix-range decrypt: rank r removes the
// aggregate noise of ranks [0, r+1) from the prefix-reduced ciphertext.
func TestScanPrefixRanges(t *testing.T) {
	const p = 8
	states := buildStates(t, p, Params{}, nil)
	const elems = 64
	dt, op := mpi.Int32, mpi.OpSum
	es := dt.Size()

	plains := make([][]byte, p)
	cts := make([][]byte, p)
	for r := 0; r < p; r++ {
		buf := make([]byte, elems*es)
		fillPlain(buf, dt, op, r)
		plains[r] = append([]byte(nil), buf...)
		states[r].Encrypt(buf, dt, op)
		cts[r] = buf
	}
	for r := 0; r < p; r++ {
		want := sumCiphertexts(t, clones(plains[:r+1]), dt, op)
		got := sumCiphertexts(t, clones(cts[:r+1]), dt, op)
		states[r].Decrypt(got, dt, op, 0, r+1)
		compare(t, want, got, dt, p)
	}
}

// TestNonUniformContributionsViaRanges reduces a sub-range of ranks, the
// shape the hierarchical intra-node leg produces.
func TestSubRangeDecrypt(t *testing.T) {
	const p = 9
	states := buildStates(t, p, Params{}, nil)
	dt, op := mpi.Uint32, mpi.OpSum
	const elems = 33
	lo, hi := 3, 7

	var plains, cts [][]byte
	for r := lo; r < hi; r++ {
		buf := make([]byte, elems*dt.Size())
		fillPlain(buf, dt, op, r)
		plains = append(plains, append([]byte(nil), buf...))
		states[r].Encrypt(buf, dt, op)
		cts = append(cts, buf)
	}
	want := sumCiphertexts(t, clones(plains), dt, op)
	got := sumCiphertexts(t, cts, dt, op)
	states[lo].Decrypt(got, dt, op, lo, hi)
	compare(t, want, got, dt, p)
}

// TestStepChangesKeystreamInLockstep pins the nonce-key schedule: the mask
// changes every operation, identically on every rank.
func TestStepChangesKeystreamInLockstep(t *testing.T) {
	states := buildStates(t, 2, Params{}, nil)
	a, b := states[0], states[1]
	if a.NonceKey() != b.NonceKey() {
		t.Fatalf("ranks disagree on initial nonce key")
	}
	buf1 := make([]byte, 16)
	buf2 := make([]byte, 16)
	a.Encrypt(buf1, mpi.Int32, mpi.OpSum)
	a.Step()
	b.Step()
	if a.NonceKey() != b.NonceKey() {
		t.Fatalf("ranks disagree on stepped nonce key")
	}
	a.Encrypt(buf2, mpi.Int32, mpi.OpSum)
	if string(buf1) == string(buf2) {
		t.Fatalf("keystream did not change across a Step")
	}
	// And rank b can still decrypt rank a's post-step ciphertext.
	b.Decrypt(buf2, mpi.Int32, mpi.OpSum, 0, 1)
	for _, x := range buf2 {
		if x != 0 {
			t.Fatalf("cross-rank decrypt after Step: got nonzero plaintext %v", buf2)
		}
	}
}

// TestPooledFanoutMatchesInline runs the same encryption with and without
// the worker pool and requires identical bytes (chunking must be invisible).
func TestPooledFanoutMatchesInline(t *testing.T) {
	pool := cryptopool.New(4, 0)
	defer pool.Close()
	params := Params{Chunk: 256}
	inline := buildStates(t, 3, params, nil)
	pooled := buildStates(t, 3, params, pool)

	const elems = 10_000 // many chunks at Chunk=256
	a := make([]byte, elems*4)
	b := make([]byte, elems*4)
	fillPlain(a, mpi.Int32, mpi.OpSum, 1)
	copy(b, a)
	inline[1].Encrypt(a, mpi.Int32, mpi.OpSum)
	pooled[1].Encrypt(b, mpi.Int32, mpi.OpSum)
	if string(a) != string(b) {
		t.Fatalf("pooled fan-out produced different ciphertext than inline")
	}
	pooled[1].Decrypt(b, mpi.Int32, mpi.OpSum, 1, 2)
	fillPlain(a, mpi.Int32, mpi.OpSum, 1)
	// b went through encrypt+decrypt for the single rank range [1,2).
	want := make([]byte, elems*4)
	fillPlain(want, mpi.Int32, mpi.OpSum, 1)
	if string(b) != string(want) {
		t.Fatalf("pooled round trip did not restore plaintext")
	}
}

// TestEncryptAllocs pins the steady-state fan-out at zero allocations per
// operation (pre-bound tasks + TryGo; the acceptance criterion's kernel
// half).
func TestEncryptAllocs(t *testing.T) {
	pool := cryptopool.New(2, 0)
	defer pool.Close()
	states := buildStates(t, 2, Params{Chunk: 4 << 10}, pool)
	buf := make([]byte, 64<<10)
	st := states[0]
	st.Encrypt(buf, mpi.Int32, mpi.OpSum) // warm-up: grows the task table
	st.Step()
	allocs := testing.AllocsPerRun(100, func() {
		st.Encrypt(buf, mpi.Int32, mpi.OpSum)
		st.Decrypt(buf, mpi.Int32, mpi.OpSum, 0, 2)
		st.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Encrypt/Decrypt allocates %.1f/op, want 0", allocs)
	}
}

// TestHostileBytesNoPanic is the fault-sweep half that needs no runtime:
// arbitrary bytes decrypt to garbage without panicking — the scheme has no
// authentication and must degrade to garbage-in-garbage-out.
func TestHostileBytesNoPanic(t *testing.T) {
	states := buildStates(t, 4, Params{}, nil)
	hostile := make([]byte, 128)
	for i := range hostile {
		hostile[i] = byte(i*37 + 11)
	}
	for _, pair := range []struct {
		dt mpi.Datatype
		op mpi.Op
	}{{mpi.Int32, mpi.OpSum}, {mpi.Float64, mpi.OpSum}, {mpi.Uint32, mpi.OpProd}} {
		buf := append([]byte(nil), hostile...)
		states[0].Decrypt(buf, pair.dt, pair.op, 0, 4) // must not panic
	}
}

func TestSupported(t *testing.T) {
	if err := Supported(mpi.Int32, mpi.OpSum); err != nil {
		t.Fatalf("int32 sum should be supported: %v", err)
	}
	for _, pair := range []struct {
		dt mpi.Datatype
		op mpi.Op
	}{
		{mpi.Int32, mpi.OpMax},
		{mpi.Float64, mpi.OpProd},
		{mpi.Byte, mpi.OpSum},
		{mpi.Int64, mpi.OpSum},
	} {
		err := Supported(pair.dt, pair.op)
		if err == nil {
			t.Fatalf("%s %s should be unsupported", pair.dt, pair.op)
		}
		if !errorsIs(err, mpi.ErrUnsupportedReduce) {
			t.Fatalf("%s %s error does not wrap ErrUnsupportedReduce: %v", pair.dt, pair.op, err)
		}
	}
}

func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// --- helpers ---

func clones(in [][]byte) [][]byte {
	out := make([][]byte, len(in))
	for i, b := range in {
		out[i] = append([]byte(nil), b...)
	}
	return out
}

func fillPlain(buf []byte, dt mpi.Datatype, op mpi.Op, rank int) {
	es := dt.Size()
	for k := 0; k*es < len(buf); k++ {
		switch dt {
		case mpi.Int32, mpi.Uint32:
			v := uint32(rank*1000 + k)
			if op == mpi.OpProd {
				v = uint32(1 + (rank+k)%5) // keep products small-ish
			}
			binary.LittleEndian.PutUint32(buf[4*k:], v)
		case mpi.Float32:
			binary.LittleEndian.PutUint32(buf[4*k:],
				math.Float32bits(float32(rank)+float32(k)*0.25))
		case mpi.Float64:
			binary.LittleEndian.PutUint64(buf[8*k:],
				math.Float64bits(float64(rank)+float64(k)*0.25))
		}
	}
}

func compare(t *testing.T, want, got []byte, dt mpi.Datatype, p int) {
	t.Helper()
	switch dt {
	case mpi.Int32, mpi.Uint32:
		if string(want) != string(got) {
			t.Fatalf("integer round trip not bit-exact")
		}
	case mpi.Float32:
		tol := 0.02 * float64(p) // tree rounding at the masked magnitude
		for k := 0; k*4 < len(want); k++ {
			w := float64(math.Float32frombits(binary.LittleEndian.Uint32(want[4*k:])))
			g := float64(math.Float32frombits(binary.LittleEndian.Uint32(got[4*k:])))
			if math.Abs(w-g) > tol {
				t.Fatalf("float32 elem %d: want %v got %v (tol %v)", k, w, g, tol)
			}
		}
	case mpi.Float64:
		tol := 1e-6 * float64(p)
		for k := 0; k*8 < len(want); k++ {
			w := math.Float64frombits(binary.LittleEndian.Uint64(want[8*k:]))
			g := math.Float64frombits(binary.LittleEndian.Uint64(got[8*k:]))
			if math.Abs(w-g) > tol {
				t.Fatalf("float64 elem %d: want %v got %v (tol %v)", k, w, g, tol)
			}
		}
	}
}

// BenchmarkKernels measures the single-thread per-element kernel costs that
// calibrate ModelCost's constants. enc_from_float64 is the masked copy the
// encrypted collectives take (src → dst in one pass).
func BenchmarkKernels(b *testing.B) {
	states, _ := benchStates(b)
	st := states[0]
	const elems = 64 << 10
	buf := make([]byte, elems*4)
	buf8 := make([]byte, elems*8)
	src8 := make([]byte, elems*8)
	for _, k := range []struct {
		name string
		size int
		run  func()
	}{
		{"enc_int32", 4, func() { st.Encrypt(buf, mpi.Int32, mpi.OpSum) }},
		{"dec_int32_p256", 4, func() { st.Decrypt(buf, mpi.Int32, mpi.OpSum, 0, st.Size()) }},
		{"enc_float32", 4, func() { st.Encrypt(buf, mpi.Float32, mpi.OpSum) }},
		{"enc_float64", 8, func() { st.Encrypt(buf8, mpi.Float64, mpi.OpSum) }},
		{"enc_from_float64", 8, func() { st.EncryptFrom(buf8, src8, mpi.Float64, mpi.OpSum) }},
		{"dec_float64_p256", 8, func() { st.Decrypt(buf8, mpi.Float64, mpi.OpSum, 0, st.Size()) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(elems * k.size))
			for i := 0; i < b.N; i++ {
				k.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
		})
	}
}

func benchStates(b *testing.B) ([]*State, Params) {
	b.Helper()
	const p = 256
	params := Params{}
	ks := make([]uint64, p)
	for j := range ks {
		ks[j] = uint64(j) % params.seedSpace()
	}
	states := make([]*State, p)
	for r := range states {
		st, err := NewState(r, ks, 42, params, nil)
		if err != nil {
			b.Fatal(err)
		}
		states[r] = st
	}
	return states, params
}
