package encmpi_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"encmpi/internal/aead"
	"encmpi/internal/aead/codecs"
	"encmpi/internal/cluster"
	"encmpi/internal/costmodel"
	"encmpi/internal/encmpi"
	"encmpi/internal/job"
	"encmpi/internal/mpi"
	"encmpi/internal/sched"
	"encmpi/internal/simnet"
)

// patterned builds an n-byte payload with position-dependent contents so any
// mis-assembly (swapped, duplicated, shifted chunks) changes the bytes.
func patterned(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i>>9)
	}
	return out
}

// TestPipelinedRoundTripReal moves real data through the chunked pipeline
// with real crypto and checks byte-exact reassembly around the chunking
// boundary: payloads of at most one 4 KiB chunk stay single-frame, 8192
// bytes is exactly two chunks, and 10000 bytes ends in a ragged chunk.
func TestPipelinedRoundTripReal(t *testing.T) {
	for _, n := range []int{0, 1, 1000, 4096, 8192, 10000} {
		payload := patterned(n)
		err := job.RunShm(2, func(c *mpi.Comm) {
			e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()), encmpi.WithPipeline(1, 4096))
			switch c.Rank() {
			case 0:
				if err := e.Send(1, 5, mpi.Bytes(payload)); err != nil {
					t.Errorf("n=%d: send: %v", n, err)
				}
			case 1:
				got, _, err := e.Recv(0, 5)
				if err != nil {
					t.Errorf("n=%d: %v", n, err)
					return
				}
				if !bytes.Equal(got.Data, payload) {
					t.Errorf("n=%d: payload mismatch", n)
				}
				got.Release()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelinedSynthetic checks length-only payloads survive the chunked
// pipeline on the simulator at the default threshold and chunk size.
func TestPipelinedSynthetic(t *testing.T) {
	spec := cluster.PaperTestbed(2, 2)
	_, err := job.RunSim(spec, simnet.Eth10G(), func(c *mpi.Comm) {
		e := encmpi.Wrap(c, encmpi.NullEngine{})
		const n = 1 << 20
		switch c.Rank() {
		case 0:
			if err := e.Send(1, 0, mpi.Synthetic(n)); err != nil {
				t.Error(err)
			}
		case 1:
			got, _, err := e.Recv(0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if got.Len() != n {
				t.Errorf("got %d bytes", got.Len())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedOverlapBeatsMonolithic is the point of the chunked pipeline:
// with a slow crypto library on a fast simulated network, the chunked
// transfer must be faster than sealing the whole message up front, because
// encryption overlaps the wire.
func TestPipelinedOverlapBeatsMonolithic(t *testing.T) {
	p, err := costmodel.Lookup("cryptopp", costmodel.MVAPICH, 256)
	if err != nil {
		t.Fatal(err)
	}
	const size = 4 << 20
	run := func(pipeline encmpi.WrapOption) time.Duration {
		spec := cluster.PaperTestbed(2, 2)
		var elapsed time.Duration
		_, err := job.RunSim(spec, simnet.IB40G(), func(c *mpi.Comm) {
			e := encmpi.Wrap(c, encmpi.NewModelEngine(p), pipeline)
			switch c.Rank() {
			case 0:
				start := c.Proc().Now()
				if err := e.Send(1, 0, mpi.Synthetic(size)); err != nil {
					panic(err)
				}
				if _, _, err := e.Recv(1, 9); err != nil {
					panic(err)
				}
				elapsed = c.Proc().Now() - start
			case 1:
				if _, _, err := e.Recv(0, 0); err != nil {
					panic(err)
				}
				e.Send(0, 9, mpi.Synthetic(1))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	mono := run(encmpi.WithPipeline(-1, 0))
	pipe := run(encmpi.WithPipeline(0, 256<<10))
	if pipe >= mono {
		t.Errorf("pipelined (%v) not faster than monolithic (%v)", pipe, mono)
	}
	// The theoretical ceiling is max(crypto, wire) + one chunk of each; at
	// CryptoPP speeds crypto dominates, so expect at least ~25% improvement.
	if float64(pipe) > 0.85*float64(mono) {
		t.Logf("pipelined %v vs monolithic %v (improvement %.1f%%)", pipe, mono,
			100*(1-float64(pipe)/float64(mono)))
		t.Error("pipeline overlap gained less than 15%")
	}
}

// TestTransparentChunkedRoundTrip drives the DESIGN.md §12 path end to end:
// a payload above the pipeline threshold travels as sealed rendezvous chunks
// through plain Send/Recv — no explicit pipelined calls — and must arrive
// byte-exact with correct status, across several geometries including a
// non-multiple final chunk.
func TestTransparentChunkedRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name             string
		threshold, chunk int
		n                int
	}{
		{"default-geometry", 0, 0, 1 << 20},
		{"small-chunks", 16 << 10, 4 << 10, 64 << 10},
		{"ragged-final-chunk", 16 << 10, 4 << 10, 50_001},
		{"exactly-threshold", 32 << 10, 8 << 10, 32 << 10},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			payload := patterned(tc.n)
			err := job.RunShm(2, func(c *mpi.Comm) {
				e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()),
					encmpi.WithPipeline(tc.threshold, tc.chunk))
				switch c.Rank() {
				case 0:
					if err := e.Send(1, 6, mpi.Bytes(payload)); err != nil {
						t.Error(err)
					}
				case 1:
					got, st, err := e.Recv(0, 6)
					if err != nil {
						t.Error(err)
						return
					}
					if st.Source != 0 || st.Tag != 6 || st.Len != tc.n {
						t.Errorf("status %+v", st)
					}
					if !bytes.Equal(got.Data, payload) {
						t.Error("transparent chunked payload corrupted")
					}
					got.Release()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTransparentChunkedIsend exercises the non-blocking form: Isend above
// the threshold plus Irecv, completion through encmpi.Wait on both sides.
func TestTransparentChunkedIsend(t *testing.T) {
	const n = 96 << 10
	payload := patterned(n)
	err := job.RunShm(2, func(c *mpi.Comm) {
		e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()),
			encmpi.WithPipeline(32<<10, 16<<10))
		switch c.Rank() {
		case 0:
			req := e.Isend(1, 7, mpi.Bytes(payload))
			if _, _, err := e.Wait(req); err != nil {
				t.Errorf("chunked Isend: %v", err)
			}
		case 1:
			req := e.Irecv(0, 7)
			got, st, err := e.Wait(req)
			if err != nil {
				t.Error(err)
				return
			}
			if st.Len != n || !bytes.Equal(got.Data, payload) {
				t.Error("chunked Irecv corrupted")
			}
			got.Release()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransparentChunkedAuthFailure: with mismatched keys, the receiver's
// first per-chunk Open fails authentication inside Wait. The receive must
// fail with ErrAuth, the sender must still complete (its chunks all drain),
// and nothing may hang or panic.
func TestTransparentChunkedAuthFailure(t *testing.T) {
	keyFor := func(rank int) []byte {
		key := bytes.Repeat([]byte{0x42}, 32)
		key[0] = byte(rank) // ranks disagree → every open fails on rank 1
		return key
	}
	err := job.RunShm(2, func(c *mpi.Comm) {
		codec, err := codecs.New("aesstd", keyFor(c.Rank()))
		if err != nil {
			t.Error(err)
			return
		}
		e := encmpi.Wrap(c, encmpi.NewRealEngine(codec, aead.NewCounterNonce(uint32(c.Rank()))),
			encmpi.WithPipeline(16<<10, 4<<10))
		switch c.Rank() {
		case 0:
			if err := e.Send(1, 8, mpi.Bytes(patterned(64<<10))); err != nil {
				t.Errorf("sender must complete even when the receiver rejects: %v", err)
			}
		case 1:
			_, _, err := e.Recv(0, 8)
			if !errors.Is(err, aead.ErrAuth) {
				t.Errorf("tampered chunk error = %v, want ErrAuth", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransparentChunkedDisabled: WithPipeline(-1, 0) must pin the classic
// single-frame path even for huge payloads (the paper-reproduction mode).
// Indistinguishable from the chunked path by payload alone, so assert via
// the engine's call pattern: one seal, one open, regardless of size.
func TestTransparentChunkedDisabled(t *testing.T) {
	const n = 1 << 20
	payload := patterned(n)
	seals := make([]int, 2)
	err := job.RunShm(2, func(c *mpi.Comm) {
		eng := &countingEngine{inner: realEngine(t, "aesstd", c.Rank())}
		e := encmpi.Wrap(c, eng, encmpi.WithPipeline(-1, 0))
		switch c.Rank() {
		case 0:
			if err := e.Send(1, 9, mpi.Bytes(payload)); err != nil {
				t.Error(err)
			}
			seals[0] = eng.seals
		case 1:
			got, _, err := e.Recv(0, 9)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got.Data, payload) {
				t.Error("payload corrupted")
			}
			got.Release()
			seals[1] = eng.opens
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if seals[0] != 1 || seals[1] != 1 {
		t.Errorf("disabled pipeline sealed %d times / opened %d times, want 1/1", seals[0], seals[1])
	}
}

// countingEngine wraps an engine and counts seal/open calls (single-rank
// use: each rank owns its own instance, so no synchronization needed).
type countingEngine struct {
	inner encmpi.Engine
	seals int
	opens int
}

func (g *countingEngine) Name() string  { return g.inner.Name() }
func (g *countingEngine) Overhead() int { return g.inner.Overhead() }
func (g *countingEngine) Seal(p sched.Proc, plain mpi.Buffer) mpi.Buffer {
	g.seals++
	return g.inner.Seal(p, plain)
}
func (g *countingEngine) Open(p sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) {
	g.opens++
	return g.inner.Open(p, wire)
}
