// Package encmpi is the paper's primary contribution rebuilt in Go: an MPI
// layer whose point-to-point and collective communication is protected by
// AES-GCM, sending every ℓ-byte plaintext as a (ℓ+28)-byte wire message
// nonce(12) ‖ ciphertext(ℓ) ‖ tag(16), exactly as Fig. 1 and Algorithm 1
// describe. Encryption happens before the underlying MPI operation and
// decryption after it — and for non-blocking receives, *inside Wait*, which
// preserves the non-blocking property (§IV).
//
// Two crypto engines drive the layer: RealEngine encrypts actual bytes with
// any registered AEAD codec (the measured Go tiers), and ModelEngine charges
// calibrated virtual time for the four C libraries of the paper inside the
// cluster simulator.
package encmpi

import (
	"fmt"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/bufpool"
	"encmpi/internal/costmodel"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
	"encmpi/internal/session"
)

// Engine performs (or models) authenticated encryption of message buffers.
type Engine interface {
	// Name identifies the engine for reports.
	Name() string
	// Overhead is the per-message wire expansion in bytes (28 for AES-GCM).
	Overhead() int
	// Seal encrypts plain into its wire form, charging any modeled CPU cost
	// to proc (which may be nil in non-process contexts).
	Seal(proc sched.Proc, plain mpi.Buffer) mpi.Buffer
	// Open decrypts a wire buffer, returning the plaintext or an
	// authentication error.
	Open(proc sched.Proc, wire mpi.Buffer) (mpi.Buffer, error)
}

// ContextEngine is implemented by engines that authenticate each record's
// communication context — (session, epoch, src, dst, op, tag, seq, chunk) —
// as AEAD additional data (the session engine, DESIGN.md §13). When the
// wrapped engine implements it, the communicator derives a RecordCtx at every
// seal and open site and a replayed, cross-session-spliced, reflected, or
// transplanted ciphertext fails authentication itself, instead of relying on
// downstream heuristics. A nil ctx is the context-free (OpRaw) form.
type ContextEngine interface {
	Engine
	// SealCtx seals plain with ctx authenticated into the record's AAD.
	SealCtx(proc sched.Proc, plain mpi.Buffer, ctx *session.RecordCtx) mpi.Buffer
	// OpenCtx opens a record against the context the receiver derived for it.
	OpenCtx(proc sched.Proc, wire mpi.Buffer, ctx *session.RecordCtx) (mpi.Buffer, error)
	// OpenIntoCtx is OpenCtx decrypting straight into dst.
	OpenIntoCtx(proc sched.Proc, dst []byte, wire mpi.Buffer, ctx *session.RecordCtx) (int, error)
}

// The session engine is the canonical ContextEngine.
var _ ContextEngine = (*session.Engine)(nil)

// NullEngine is the unencrypted baseline: buffers pass through untouched.
// Running the benchmark harness with NullEngine gives the "Unencrypted" rows
// of every table.
type NullEngine struct{}

// Name implements Engine.
func (NullEngine) Name() string { return "unencrypted" }

// Overhead implements Engine.
func (NullEngine) Overhead() int { return 0 }

// Seal implements Engine.
func (NullEngine) Seal(_ sched.Proc, plain mpi.Buffer) mpi.Buffer { return plain }

// Open implements Engine.
func (NullEngine) Open(_ sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) { return wire, nil }

// RealEngine encrypts real bytes with an aead.Codec, drawing nonces from a
// NonceSource (Algorithm 1 uses fresh random nonces; counter sources are the
// ablation).
type RealEngine struct {
	codec aead.Codec
	nonce aead.NonceSource
}

// NewRealEngine builds a real engine.
func NewRealEngine(codec aead.Codec, nonce aead.NonceSource) *RealEngine {
	return &RealEngine{codec: codec, nonce: nonce}
}

// Name implements Engine.
func (e *RealEngine) Name() string { return e.codec.Name() }

// Overhead implements Engine.
func (e *RealEngine) Overhead() int { return aead.Overhead }

// Seal implements Engine. Synthetic buffers are materialized as zeros: real
// cryptography needs real bytes, and the cost is then honestly paid. The wire
// buffer (and the zeroed scratch for synthetic inputs) is drawn from the
// buffer pool; the returned buffer carries one lease reference owned by the
// caller, released once the transport no longer needs the bytes.
func (e *RealEngine) Seal(_ sched.Proc, plain mpi.Buffer) mpi.Buffer {
	data := plain.Data
	var scratch *bufpool.Lease
	if plain.IsSynthetic() && plain.Len() > 0 {
		scratch = bufpool.Get(plain.Len())
		data = scratch.Bytes()[:plain.Len()]
		clear(data) // pooled storage is dirty; the model is all-zeros
	}
	lease := bufpool.Get(aead.WireLen(len(data)))
	// EncryptMessage writes into the leased storage when its capacity covers
	// the wire length (true for tag-exact codecs; a padding codec may outgrow
	// it and reallocate, in which case the lease recycles unused — safe).
	wire, err := aead.EncryptMessage(e.codec, e.nonce, lease.Bytes()[:0], data)
	scratch.Release()
	if err != nil {
		lease.Release()
		panic(fmt.Sprintf("encmpi: nonce generation failed: %v", err))
	}
	return mpi.BytesWithLease(wire, lease)
}

// SealInto seals plain directly into dst — the transport-slot fast path of
// the shm ring (DESIGN.md §14). dst must be sized for the wire form
// (aead.WireLen of the plaintext); the wire length is returned. ok=false
// means the seal could not land in place — synthetic plaintext, a too-small
// dst, or a padding codec that outgrew dst and reallocated — and the caller
// must fall back to Seal (dst's contents are then undefined and nothing was
// accounted). A nonce may have been consumed on the realloc path; nonce
// sources tolerate gaps.
func (e *RealEngine) SealInto(_ sched.Proc, dst []byte, plain mpi.Buffer) (int, bool) {
	if plain.IsSynthetic() || aead.WireLen(plain.Len()) > len(dst) {
		return 0, false
	}
	wire, err := aead.EncryptMessage(e.codec, e.nonce, dst[:0], plain.Data)
	if err != nil {
		panic(fmt.Sprintf("encmpi: nonce generation failed: %v", err))
	}
	if len(wire) > len(dst) || (len(wire) > 0 && &wire[0] != &dst[0]) {
		return 0, false
	}
	return len(wire), true
}

// Open implements Engine. The plaintext buffer is drawn from the buffer pool;
// the returned buffer carries one lease reference owned by the caller.
func (e *RealEngine) Open(_ sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) {
	if wire.IsSynthetic() {
		return mpi.Buffer{}, fmt.Errorf("encmpi: cannot decrypt a synthetic buffer with a real engine")
	}
	n, err := aead.PlainLen(wire.Len())
	if err != nil {
		return mpi.Buffer{}, err
	}
	lease := bufpool.Get(n)
	// DecryptMessage opens into the leased storage when its capacity covers
	// the plaintext (true for tag-exact codecs; others may reallocate, in
	// which case the lease recycles unused — safe).
	plain, err := aead.DecryptMessage(e.codec, lease.Bytes()[:0], wire.Data)
	if err != nil {
		lease.Release()
		return mpi.Buffer{}, err
	}
	return mpi.BytesWithLease(plain, lease), nil
}

// OpenInto decrypts a wire buffer directly into dst, sparing Open's pooled
// intermediate buffer. It is the chunked receive path's fast path: each
// chunk's plaintext lands straight in the message assembly instead of being
// decrypted into scratch and copied over. dst must be sized for the
// plaintext (PlainLen of the wire); the plaintext length is returned.
func (e *RealEngine) OpenInto(_ sched.Proc, dst []byte, wire mpi.Buffer) (int, error) {
	if wire.IsSynthetic() {
		return 0, fmt.Errorf("encmpi: cannot decrypt a synthetic buffer with a real engine")
	}
	n, err := aead.PlainLen(wire.Len())
	if err != nil {
		return 0, err
	}
	if n > len(dst) {
		return 0, fmt.Errorf("encmpi: OpenInto destination holds %d bytes, plaintext is %d", len(dst), n)
	}
	plain, err := aead.DecryptMessage(e.codec, dst[:0], wire.Data)
	if err != nil {
		return 0, err
	}
	if len(plain) > 0 && &plain[0] != &dst[0] {
		// The codec outgrew the destination prediction and reallocated (a
		// padding codec can): land the bytes where the caller asked.
		copy(dst, plain)
	}
	return len(plain), nil
}

// ModelEngine charges calibrated virtual time for encryption and decryption
// using a cost-model profile of one of the paper's libraries. Buffers stay
// synthetic; only sizes and time move.
type ModelEngine struct {
	profile costmodel.Profile

	// SenderOverhead and ReceiverOverhead are the library-independent
	// per-message costs of the encrypted MPI layer itself (nonce generation,
	// ciphertext buffer management), derived from the gap between the
	// paper's Fig. 2 curves and its encrypted ping-pong deltas.
	SenderOverhead   time.Duration
	ReceiverOverhead time.Duration

	// Threads models the §V-C discussion of parallelizing encryption: the
	// data-dependent part of the crypto time divides by Threads. 1 (or 0)
	// reproduces the paper's single-thread implementation.
	Threads int
}

// Default per-message overheads (see DESIGN.md calibration notes).
const (
	DefaultSenderOverhead   = 800 * time.Nanosecond
	DefaultReceiverOverhead = 500 * time.Nanosecond
)

// NewModelEngine builds a model engine for a library profile.
func NewModelEngine(p costmodel.Profile) *ModelEngine {
	return &ModelEngine{
		profile:          p,
		SenderOverhead:   DefaultSenderOverhead,
		ReceiverOverhead: DefaultReceiverOverhead,
		Threads:          1,
	}
}

// Name implements Engine.
func (e *ModelEngine) Name() string {
	return fmt.Sprintf("%s-%d(%s)", e.profile.Library, e.profile.KeyBits, e.profile.Variant)
}

// Overhead implements Engine.
func (e *ModelEngine) Overhead() int { return aead.Overhead }

// threads returns the effective parallelism.
func (e *ModelEngine) threads() time.Duration {
	if e.Threads <= 1 {
		return 1
	}
	return time.Duration(e.Threads)
}

// Seal implements Engine: advance the proc by the modeled encryption time.
// Real payload bytes are preserved (padded by the 28-byte wire overhead) so
// protocols that mix small real headers with synthetic bulk data work under
// the model engine too.
func (e *ModelEngine) Seal(proc sched.Proc, plain mpi.Buffer) mpi.Buffer {
	cost := e.SenderOverhead + e.profile.Curve.EncTime(plain.Len())/e.threads()
	if proc != nil {
		proc.Advance(cost)
	}
	if plain.IsSynthetic() {
		return mpi.Synthetic(plain.Len() + aead.Overhead)
	}
	wire := make([]byte, plain.Len()+aead.Overhead)
	copy(wire, plain.Data)
	return mpi.Bytes(wire)
}

// Open implements Engine.
func (e *ModelEngine) Open(proc sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) {
	n, err := aead.PlainLen(wire.Len())
	if err != nil {
		return mpi.Buffer{}, err
	}
	cost := e.ReceiverOverhead + e.profile.Curve.DecTime(n)/e.threads()
	if proc != nil {
		proc.Advance(cost)
	}
	// Prefix keeps the wire buffer's lease identity: a caller that would
	// recycle the wire after Open can see the plaintext still aliases it.
	return wire.Prefix(n), nil
}
