// Package hear implements a libhear-style additive-noise encryption scheme
// for MPI reductions (ROADMAP item 4, DESIGN.md §16): each rank masks its
// contribution with pseudorandom noise whose aggregate the consumer can
// remove in closed form, so reduction trees combine *ciphertexts* with the
// ordinary plaintext kernels — one encrypt at the leaf, one decrypt at the
// consumer, zero per-hop crypto.
//
// # Scheme
//
// Key state per communicator mirrors libhear: every rank j holds a small
// seed key ks[j] ∈ [0, SeedSpace) (allgathered at setup, so all ranks know
// the full vector), plus one shared nonce key kn (drawn by rank 0, broadcast
// at setup, stepped through a PRNG after every operation). Per operation two
// keystreams are derived from kn: F(i) and G(i), splitmix64-mixed functions
// of the element index i. Rank j's noise for element i is affine in its seed
// key:
//
//	noise_j(i) = F(i) + ks[j]·G(i)        (wrapping, element width)
//
// Summing over any contiguous rank range [lo, hi) gives the closed form
//
//	Σ_j noise_j(i) = n·F(i) + S·G(i),  n = hi−lo,  S = Σ ks[lo..hi)
//
// so removing the aggregate noise costs O(elements), independent of the
// rank count — the property that lets Allreduce beat AEAD reduce-then-seal
// at scale. Prefix sums of ks are precomputed, so Scan's per-rank prefix
// ranges are O(1) to aggregate too. For integers the identity is exact
// (wrapping addition is a ring homomorphism); for floats it holds to
// rounding error, which bounded noise magnitudes keep small.
//
// Integer products use the multiplicative variant: the mask is forced odd
// (invertible mod 2^32) and decryption multiplies by the Newton inverse of
// the mask product. There is no closed form for a product of affine masks,
// so product decryption is O(ranks·elements) — supported for correctness,
// not a performance path.
//
// # Security (read this)
//
// This is NOT authenticated encryption, and it is confidentiality-weaker
// than the AEAD engines in precise ways:
//
//   - No integrity: hostile bytes decode to garbage with no error. There is
//     no tag, no authentication failure signal, nothing to detect tampering.
//   - Small seed space: an attacker who learns rank j's plaintext for one
//     element recovers noise_j(i) = F+ks[j]·G and can check all SeedSpace
//     candidate keys against a second known element; two known plaintexts
//     in one operation reduce every other rank's mask to a SeedSpace-way
//     guess. Per-operation nonce-key stepping limits the damage to that
//     operation.
//   - Bounded float noise: float masks are magnitude-limited (to preserve
//     precision through the reduction tree), so large float plaintexts are
//     only partially hidden.
//
// Use it where libhear does: hiding honest-but-curious network observers
// from gradient-sized reduction traffic, with integrity delegated to the
// deployment (or accepted as out of scope).
package hear

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"encmpi/internal/cryptopool"
	"encmpi/internal/mpi"
)

// golden is the splitmix64 increment.
const golden = 0x9e3779b97f4a7c15

// Stream-separation salts: F and G must be independent functions of kn.
const (
	saltF = 0xd6e8feb86659fd93
	saltG = 0xa5a5b4e9c7f21e6d
)

// mix64 is the splitmix64 finalizer: a cheap, statistically strong bijection
// on uint64 (the PRNG behind both keystreams and the nonce-key step).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Seed-space bounds. libhear draws per-rank keys from [0, 42]; SeedSpace 43
// reproduces that. The upper bound keeps S = Σks (and the float aggregates
// built from it) comfortably exact.
const (
	DefaultSeedSpace = 43
	MinSeedSpace     = 2
	MaxSeedSpace     = 4096
)

// DefaultChunk is the per-task chunk size for worker-pool fan-out.
const DefaultChunk = 64 << 10

// Float mask magnitudes. Noise values are a + ks·b with a, b uniform in
// [0, scale); the scale trades secrecy (bigger hides more) against precision
// (the masked sums round at the aggregate's magnitude ≈ ranks·SeedSpace·scale
// as they move through the reduction tree). Float32 runs the mask arithmetic
// in float64 and converts once, so only the final rounding is at 24 bits.
const (
	f32Scale = 32.0
	f64Scale = float64(1 << 20)
)

// Params configures a hear State.
type Params struct {
	// SeedSpace is the exclusive upper bound of per-rank seed keys
	// (default DefaultSeedSpace, clamped to [MinSeedSpace, MaxSeedSpace]).
	SeedSpace uint64
	// Workers caps worker-pool parallelism for the keystream kernels
	// (0 means the pool's own width).
	Workers int
	// Chunk is the fan-out granularity in bytes (0 means DefaultChunk).
	Chunk int
}

func (p Params) seedSpace() uint64 {
	k := p.SeedSpace
	if k == 0 {
		k = DefaultSeedSpace
	}
	if k < MinSeedSpace {
		k = MinSeedSpace
	}
	if k > MaxSeedSpace {
		k = MaxSeedSpace
	}
	return k
}

// DrawSeedKey draws a uniformly random seed key from [0, SeedSpace) using
// crypto/rand (rejection-sampled, so exactly uniform).
func (p Params) DrawSeedKey() (uint64, error) {
	k := p.seedSpace()
	// Rejection bound: largest multiple of k below 2^64.
	bound := (^uint64(0) / k) * k
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("hear: drawing seed key: %w", err)
		}
		v := binary.LittleEndian.Uint64(b[:])
		if v < bound {
			return v % k, nil
		}
	}
}

// DrawNonceKey draws the shared nonce key (any uint64) using crypto/rand.
func DrawNonceKey() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("hear: drawing nonce key: %w", err)
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// Supported reports whether the (datatype, op) pair has additive-noise
// kernels: int32/uint32/float32/float64 sum, and int32/uint32 prod (where
// odd masks stay invertible). Anything else — max/min have no masking
// algebra at all — returns an error wrapping mpi.ErrUnsupportedReduce.
func Supported(dt mpi.Datatype, op mpi.Op) error {
	switch op {
	case mpi.OpSum:
		switch dt {
		case mpi.Int32, mpi.Uint32, mpi.Float32, mpi.Float64:
			return nil
		}
	case mpi.OpProd:
		switch dt {
		case mpi.Int32, mpi.Uint32:
			return nil
		}
	}
	return fmt.Errorf("hear: no additive-noise kernel for %s %s: %w", dt, op, mpi.ErrUnsupportedReduce)
}

// State is one rank's per-communicator key state. Methods are not safe for
// concurrent use with each other (operations on one communicator are
// serialized by MPI semantics); the internal worker fan-out is synchronized
// by the State itself.
type State struct {
	rank int
	ks   []uint64 // per-rank seed keys (identical vector on every rank)
	pre  []uint64 // pre[j] = Σ ks[0..j); len(ks)+1

	kn       uint64 // nonce key, stepped after every operation
	kn1, kn2 uint64 // per-operation stream keys derived from kn

	chunk   int
	workers int
	pool    *cryptopool.Pool

	// Pre-bound fan-out tasks: each task's run closure is created once (at
	// first use of its depth) and reused forever, so steady-state operations
	// submit to the pool without allocating (cryptopool.TryGo takes the
	// closure as-is). tasks holds pointers so growth never invalidates the
	// captured addresses.
	wg    sync.WaitGroup
	tasks []*task
}

// NewState builds the state for this rank from the ceremony outputs: the
// allgathered seed-key vector (indexed by rank) and the broadcast nonce key.
// pool may be nil (all kernels run inline).
func NewState(rank int, ks []uint64, kn uint64, p Params, pool *cryptopool.Pool) (*State, error) {
	if rank < 0 || rank >= len(ks) {
		return nil, fmt.Errorf("hear: rank %d outside seed-key vector of %d", rank, len(ks))
	}
	space := p.seedSpace()
	for j, k := range ks {
		if k >= space {
			return nil, fmt.Errorf("hear: seed key %d of rank %d outside seed space %d", k, j, space)
		}
	}
	chunk := p.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	workers := p.Workers
	if workers <= 0 && pool != nil {
		workers = pool.Workers()
	}
	if workers <= 0 {
		workers = 1
	}
	s := &State{
		rank:    rank,
		ks:      append([]uint64(nil), ks...),
		pre:     make([]uint64, len(ks)+1),
		kn:      kn,
		chunk:   chunk,
		workers: workers,
		pool:    pool,
	}
	for j, k := range s.ks {
		s.pre[j+1] = s.pre[j] + k
	}
	s.derive()
	return s, nil
}

// Size returns the rank count the state was built for.
func (s *State) Size() int { return len(s.ks) }

// Rank returns this rank.
func (s *State) Rank() int { return s.rank }

// NonceKey exposes the current nonce key (tests pin the stepping schedule).
func (s *State) NonceKey() uint64 { return s.kn }

// derive refreshes the per-operation stream keys from the nonce key.
func (s *State) derive() {
	s.kn1 = mix64(s.kn ^ saltF)
	s.kn2 = mix64(s.kn ^ saltG)
}

// Step advances the nonce key — every rank calls it after each collective
// operation, so the shared keystream moves in lockstep without any extra
// communication (the PRNG is the broadcast).
func (s *State) Step() {
	s.kn = mix64(s.kn + golden)
	s.derive()
}

// task is one pre-bound fan-out unit. Per-operation fields are written by
// the submitting goroutine before wg.Add and read by the worker; the
// WaitGroup orders both directions.
type task struct {
	s   *State
	run func()

	dst, src []byte // equal for an in-place mask
	elemOff  int
	dt       mpi.Datatype
	op       mpi.Op
	kn1, kn2 uint64
	lo, hi   int // decrypt: aggregate rank range; encrypt: lo is the rank
	decrypt  bool
}

func (t *task) exec() {
	if t.decrypt {
		t.s.decryptChunk(t)
	} else {
		t.s.encryptChunk(t)
	}
}

// taskAt returns the i-th pre-bound task, growing the table on first use of
// a new fan-out depth (the only allocation this path ever makes).
func (s *State) taskAt(i int) *task {
	for len(s.tasks) <= i {
		t := &task{s: s}
		t.run = func() { t.exec(); s.wg.Done() }
		s.tasks = append(s.tasks, t)
	}
	return s.tasks[i]
}

// fanout chunks dst (and the same elements of src, which may alias it)
// across the worker pool and blocks until every chunk's kernel has run.
// Chunks the pool cannot take run on the caller.
func (s *State) fanout(dst, src []byte, dt mpi.Datatype, op mpi.Op, lo, hi int, decrypt bool) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("hear: source of %d bytes for a %d-byte destination", len(src), len(dst)))
	}
	es := dt.Size()
	chunkElems := s.chunk / es
	if chunkElems < 1 {
		chunkElems = 1
	}
	total := len(dst) / es
	if total <= chunkElems {
		// Single chunk: run inline, skip the pool round trip entirely.
		t := s.taskAt(0)
		t.dst, t.src, t.elemOff, t.dt, t.op = dst, src, 0, dt, op
		t.kn1, t.kn2, t.lo, t.hi, t.decrypt = s.kn1, s.kn2, lo, hi, decrypt
		t.exec()
		return
	}
	idx := 0
	for off := 0; off < total; off += chunkElems {
		end := off + chunkElems
		if end > total {
			end = total
		}
		t := s.taskAt(idx)
		idx++
		t.dst, t.src, t.elemOff, t.dt, t.op = dst[off*es:end*es], src[off*es:end*es], off, dt, op
		t.kn1, t.kn2, t.lo, t.hi, t.decrypt = s.kn1, s.kn2, lo, hi, decrypt
		s.wg.Add(1)
		if !s.pool.TryGo(t.run) {
			t.run()
		}
	}
	s.wg.Wait()
}

// Encrypt masks data in place with this rank's noise stream for the current
// operation. data length must be a multiple of the element size and the
// (dt, op) pair must be Supported. Returns the number of keystream elements
// derived (for accounting).
func (s *State) Encrypt(data []byte, dt mpi.Datatype, op mpi.Op) int {
	return s.EncryptFrom(data, data, dt, op)
}

// EncryptFrom writes src masked with this rank's noise stream into dst,
// leaving src untouched: the copy and the mask are one pass. dst and src
// must have equal lengths and either be the same slice or not overlap. The
// result and the return value are Encrypt's.
func (s *State) EncryptFrom(dst, src []byte, dt mpi.Datatype, op mpi.Op) int {
	s.fanout(dst, src, dt, op, s.rank, -1, false)
	return len(dst) / dt.Size()
}

// Decrypt removes the aggregate noise of the contiguous rank range [lo, hi)
// from data in place: [0, size) after Reduce/Allreduce, [0, r+1) for rank
// r's Scan prefix. Returns the number of keystream elements derived — for
// sums that is the element count (closed-form aggregate); for products it is
// elements·(hi−lo) (per-rank mask walk).
func (s *State) Decrypt(data []byte, dt mpi.Datatype, op mpi.Op, lo, hi int) int {
	if lo < 0 || hi > len(s.ks) || lo >= hi {
		panic(fmt.Sprintf("hear: decrypt range [%d,%d) outside [0,%d)", lo, hi, len(s.ks)))
	}
	s.fanout(data, data, dt, op, lo, hi, true)
	elems := len(data) / dt.Size()
	if op == mpi.OpProd {
		return elems * (hi - lo)
	}
	return elems
}

// Float mask factors: a noise value is float64(h>>11) · 2^-53 · scale, a
// uniform draw from [0, scale) with 53 random bits. Both factors are powers of
// two and h>>11 < 2^53, so folding them into one constant and converting
// through int64 give exactly the same float64.
const (
	f64Unit = f64Scale / (1 << 53)
	f32Unit = f32Scale / (1 << 53)
)

// The kernels below step the keystream counters zf = kn1 + i·golden and
// zg = kn2 + i·golden by golden per element, so element i of a chunk at
// elemOff draws mix64(kn1 + (elemOff+i)·golden) no matter how the buffer
// was chunked. Each loop reads element windows of src and writes the same
// windows of dst, re-sliced with a capped capacity.

// encryptChunk writes one chunk of src, masked with this rank's noise, to dst.
func (s *State) encryptChunk(t *task) {
	dst, src := t.dst, t.src[:len(t.dst)]
	ksj := s.ks[t.lo]
	kf := float64(ksj)
	zf := t.kn1 + uint64(t.elemOff)*golden
	zg := t.kn2 + uint64(t.elemOff)*golden
	le := binary.LittleEndian
	switch {
	case t.op == mpi.OpSum && (t.dt == mpi.Int32 || t.dt == mpi.Uint32):
		for i := 0; i+4 <= len(dst); i += 4 {
			f, g := mix64(zf), mix64(zg)
			zf, zg = zf+golden, zg+golden
			le.PutUint32(dst[i:i+4:i+4], le.Uint32(src[i:i+4:i+4])+uint32(f+ksj*g))
		}
	case t.op == mpi.OpSum && t.dt == mpi.Float64:
		for i := 0; i+8 <= len(dst); i += 8 {
			a := float64(int64(mix64(zf)>>11)) * f64Unit
			b := float64(int64(mix64(zg)>>11)) * f64Unit
			zf, zg = zf+golden, zg+golden
			x := math.Float64frombits(le.Uint64(src[i : i+8 : i+8]))
			le.PutUint64(dst[i:i+8:i+8], math.Float64bits(x+a+kf*b))
		}
	case t.op == mpi.OpSum && t.dt == mpi.Float32:
		for i := 0; i+4 <= len(dst); i += 4 {
			a := float64(int64(mix64(zf)>>11)) * f32Unit
			b := float64(int64(mix64(zg)>>11)) * f32Unit
			zf, zg = zf+golden, zg+golden
			x := math.Float32frombits(le.Uint32(src[i : i+4 : i+4]))
			le.PutUint32(dst[i:i+4:i+4], math.Float32bits(float32(float64(x)+a+kf*b)))
		}
	case t.op == mpi.OpProd && (t.dt == mpi.Int32 || t.dt == mpi.Uint32):
		for i := 0; i+4 <= len(dst); i += 4 {
			f, g := mix64(zf), mix64(zg)
			zf, zg = zf+golden, zg+golden
			m := uint32(f+ksj*g) | 1 // odd ⇒ invertible mod 2^32
			le.PutUint32(dst[i:i+4:i+4], le.Uint32(src[i:i+4:i+4])*m)
		}
	default:
		panic(fmt.Sprintf("hear: encrypt kernel missing for %s %s", t.dt, t.op))
	}
}

// inv32 returns the multiplicative inverse of odd m modulo 2^32 by Newton
// iteration (each step doubles the correct low bits: 3 → 6 → 12 → 24 → 48).
func inv32(m uint32) uint32 {
	inv := m // correct mod 8 for odd m
	inv *= 2 - m*inv
	inv *= 2 - m*inv
	inv *= 2 - m*inv
	inv *= 2 - m*inv
	return inv
}

// decryptChunk writes one chunk of src, with the aggregate noise of ranks
// [lo, hi) removed, to dst.
func (s *State) decryptChunk(t *task) {
	dst, src := t.dst, t.src[:len(t.dst)]
	n := uint64(t.hi - t.lo)
	sum := s.pre[t.hi] - s.pre[t.lo]
	nf, sf := float64(n), float64(sum)
	zf := t.kn1 + uint64(t.elemOff)*golden
	zg := t.kn2 + uint64(t.elemOff)*golden
	le := binary.LittleEndian
	switch {
	case t.op == mpi.OpSum && (t.dt == mpi.Int32 || t.dt == mpi.Uint32):
		for i := 0; i+4 <= len(dst); i += 4 {
			f, g := mix64(zf), mix64(zg)
			zf, zg = zf+golden, zg+golden
			le.PutUint32(dst[i:i+4:i+4], le.Uint32(src[i:i+4:i+4])-uint32(n*f+sum*g))
		}
	case t.op == mpi.OpSum && t.dt == mpi.Float64:
		for i := 0; i+8 <= len(dst); i += 8 {
			a := float64(int64(mix64(zf)>>11)) * f64Unit
			b := float64(int64(mix64(zg)>>11)) * f64Unit
			zf, zg = zf+golden, zg+golden
			x := math.Float64frombits(le.Uint64(src[i : i+8 : i+8]))
			le.PutUint64(dst[i:i+8:i+8], math.Float64bits(x-(nf*a+sf*b)))
		}
	case t.op == mpi.OpSum && t.dt == mpi.Float32:
		for i := 0; i+4 <= len(dst); i += 4 {
			a := float64(int64(mix64(zf)>>11)) * f32Unit
			b := float64(int64(mix64(zg)>>11)) * f32Unit
			zf, zg = zf+golden, zg+golden
			x := math.Float32frombits(le.Uint32(src[i : i+4 : i+4]))
			le.PutUint32(dst[i:i+4:i+4], math.Float32bits(float32(float64(x)-(nf*a+sf*b))))
		}
	case t.op == mpi.OpProd && (t.dt == mpi.Int32 || t.dt == mpi.Uint32):
		// No closed form for a product of affine masks: walk the rank range
		// per element. O(ranks·elements) — a correctness feature, not a
		// performance path (see the package comment).
		ks := s.ks[t.lo:t.hi]
		for i := 0; i+4 <= len(dst); i += 4 {
			f, g := mix64(zf), mix64(zg)
			zf, zg = zf+golden, zg+golden
			prod := uint32(1)
			for _, k := range ks {
				prod *= uint32(f+k*g) | 1
			}
			le.PutUint32(dst[i:i+4:i+4], le.Uint32(src[i:i+4:i+4])*inv32(prod))
		}
	default:
		panic(fmt.Sprintf("hear: decrypt kernel missing for %s %s", t.dt, t.op))
	}
}

// Calibrated single-thread kernel costs (ns per element) for the simulator's
// virtual-time charging; see BenchmarkKernels in hear_test.go for the
// measurement. Products pay perRank per covered rank on decrypt. These keep
// the calibration of the original per-element kernels on purpose: the
// faster kernels must leave simulated virtual times bit-identical, and
// recalibrating them is a separate change that moves those numbers
// (DESIGN.md §16).
const (
	encNsPerElemInt      = 3.3
	encNsPerElemFloat    = 6.4
	decNsPerElemInt      = 3.3
	decNsPerElemFloat    = 6.4
	decProdNsPerRankElem = 2.0
)

// ModelCost returns the virtual time one mask application over nbytes of dt
// costs under the cost model: the single-thread kernel time divided by the
// effective worker parallelism (chunk-granular, so small buffers do not
// pretend to parallelize). span is the decrypt rank range width (ignored for
// encrypt and for sums, whose aggregate is closed-form).
func (s *State) ModelCost(nbytes int, dt mpi.Datatype, op mpi.Op, decrypt bool, span int) time.Duration {
	elems := nbytes / dt.Size()
	var perElem float64
	switch {
	case op == mpi.OpProd && decrypt:
		if span < 1 {
			span = 1
		}
		perElem = decProdNsPerRankElem * float64(span)
	case dt == mpi.Float32 || dt == mpi.Float64:
		if decrypt {
			perElem = decNsPerElemFloat
		} else {
			perElem = encNsPerElemFloat
		}
	default:
		if decrypt {
			perElem = decNsPerElemInt
		} else {
			perElem = encNsPerElemInt
		}
	}
	par := s.workers
	chunkElems := s.chunk / dt.Size()
	if chunkElems > 0 {
		if chunks := (elems + chunkElems - 1) / chunkElems; chunks < par {
			par = chunks
		}
	}
	if par < 1 {
		par = 1
	}
	return time.Duration(perElem * float64(elems) / float64(par))
}
