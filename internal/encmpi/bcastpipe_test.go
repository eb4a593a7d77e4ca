package encmpi_test

import (
	"bytes"
	"errors"
	"fmt"
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
	"encmpi/internal/transport/shm"
)

// bcastPayload builds a deterministic test payload.
func bcastPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + 7)
	}
	return p
}

// TestBcastPipelinedRoundTripReal streams real bytes with real crypto down
// the binomial tree at power-of-two and non-power-of-two world sizes,
// including the empty message and exact-chunk-multiple edges.
func TestBcastPipelinedRoundTripReal(t *testing.T) {
	const chunk = 4096
	for _, p := range []int{2, 3, 5, 8} {
		for _, n := range []int{0, 1, 1000, 4096, 8192, 10000} {
			p, n := p, n
			t.Run(fmt.Sprintf("p%d/n%d", p, n), func(t *testing.T) {
				payload := bcastPayload(n)
				err := job.RunShm(p, func(c *mpi.Comm) {
					e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()))
					var buf mpi.Buffer
					if c.Rank() == 0 {
						buf = mpi.Bytes(payload)
					}
					got, err := e.BcastPipelined(0, 5, buf, chunk)
					if err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
						return
					}
					if !bytes.Equal(got.Data, payload) {
						t.Errorf("rank %d: payload mismatch (%d bytes)", c.Rank(), got.Len())
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestBcastPipelinedNonZeroRoot checks the root-relative tree renumbering.
func TestBcastPipelinedNonZeroRoot(t *testing.T) {
	const root = 2
	payload := bcastPayload(9000)
	err := job.RunShm(5, func(c *mpi.Comm) {
		e := encmpi.Wrap(c, realEngine(t, "aesstd", c.Rank()))
		var buf mpi.Buffer
		if c.Rank() == root {
			buf = mpi.Bytes(payload)
		}
		got, err := e.BcastPipelined(root, 3, buf, 2048)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !bytes.Equal(got.Data, payload) {
			t.Errorf("rank %d: payload mismatch", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastPipelinedParallelEngine layers the segmented broadcast on the
// chunked parallel engine: the broadcast's wire chunking and the engine's
// internal chunking are independent and must compose.
func TestBcastPipelinedParallelEngine(t *testing.T) {
	payload := bcastPayload(20000)
	err := job.RunShm(5, func(c *mpi.Comm) {
		codec, err := codecs.New("aesstd", testKey)
		if err != nil {
			t.Fatal(err)
		}
		eng := encmpi.NewParallelEngine(codec, aead.NewCounterNonce(uint32(c.Rank())), 4)
		eng.Chunk = 1024
		e := encmpi.Wrap(c, eng)
		var buf mpi.Buffer
		if c.Rank() == 0 {
			buf = mpi.Bytes(payload)
		}
		got, err := e.BcastPipelined(0, 7, buf, 4096)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !bytes.Equal(got.Data, payload) {
			t.Errorf("rank %d: payload mismatch", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastPipelinedSynthetic checks length-only payloads survive the
// segmented tree on the simulator.
func TestBcastPipelinedSynthetic(t *testing.T) {
	spec := cluster.PaperTestbed(8, 2)
	const n = 1 << 20
	_, err := job.RunSim(spec, simnet.Eth10G(), func(c *mpi.Comm) {
		e := encmpi.Wrap(c, encmpi.NullEngine{})
		var buf mpi.Buffer
		if c.Rank() == 0 {
			buf = mpi.Synthetic(n)
		}
		got, err := e.BcastPipelined(0, 0, buf, 0) // default chunk
		if err != nil {
			panic(err)
		}
		if got.Len() != n {
			t.Errorf("rank %d: got %d bytes, want %d", c.Rank(), got.Len(), n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failLargeOpen is an engine whose Open rejects anything bigger than a
// length header: it simulates a relay rank whose chunk authentications fail
// while the header still parses.
type failLargeOpen struct {
	encmpi.Engine
}

func (f failLargeOpen) Open(p sched.Proc, wire mpi.Buffer) (mpi.Buffer, error) {
	if wire.Len() > 64 {
		return mpi.Buffer{}, fmt.Errorf("injected chunk auth failure")
	}
	return f.Engine.Open(p, wire)
}

// TestBcastPipelinedAuthFailureStillRelays pins the hostile-bytes contract:
// an interior rank whose chunk decryptions fail must still forward the raw
// ciphertext, so its descendants complete with intact data while the broken
// rank reports the error. World size 4 puts rank 2 between the root and
// rank 3.
func TestBcastPipelinedAuthFailureStillRelays(t *testing.T) {
	payload := bcastPayload(4096)
	const chunk = 1024
	err := job.RunShm(4, func(c *mpi.Comm) {
		var eng encmpi.Engine = realEngine(t, "aesstd", c.Rank())
		if c.Rank() == 2 {
			eng = failLargeOpen{eng}
		}
		e := encmpi.Wrap(c, eng)
		var buf mpi.Buffer
		if c.Rank() == 0 {
			buf = mpi.Bytes(payload)
		}
		got, err := e.BcastPipelined(0, 5, buf, chunk)
		if c.Rank() == 2 {
			if err == nil {
				t.Error("rank 2: injected auth failure did not surface")
			}
			return
		}
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if !bytes.Equal(got.Data, payload) {
			t.Errorf("rank %d: payload mismatch", c.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBcastPipelinedBeatsBcast is the point of the pipelined tree: with
// slow crypto on a fast simulated network, streaming sealed chunks down the
// binomial tree must beat the monolithic encrypted Bcast at 1 MiB, because
// each chunk's crypto overlaps its neighbours' descent.
func TestBcastPipelinedBeatsBcast(t *testing.T) {
	p, err := costmodel.Lookup("cryptopp", costmodel.MVAPICH, 256)
	if err != nil {
		t.Fatal(err)
	}
	const size = 1 << 20
	const ranks, nodes = 8, 2
	run := func(pipelined bool) time.Duration {
		spec := cluster.PaperTestbed(ranks, nodes)
		var elapsed time.Duration
		_, err := job.RunSim(spec, simnet.IB40G(), func(c *mpi.Comm) {
			e := encmpi.Wrap(c, encmpi.NewModelEngine(p))
			var buf mpi.Buffer
			if c.Rank() == 0 {
				buf = mpi.Synthetic(size)
			}
			c.Barrier()
			start := c.Proc().Now()
			var err error
			if pipelined {
				_, err = e.BcastPipelined(0, 1, buf, 128<<10)
			} else {
				_, err = e.Bcast(0, buf)
			}
			if err != nil {
				panic(err)
			}
			// The collective's cost is when the last rank finishes.
			c.Barrier()
			if c.Rank() == 0 {
				elapsed = c.Proc().Now() - start
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	mono := run(false)
	pipe := run(true)
	t.Logf("bcast %v, bcastpipe %v (improvement %.1f%%)", mono, pipe,
		100*(1-float64(pipe)/float64(mono)))
	if pipe >= mono {
		t.Errorf("pipelined bcast (%v) not faster than monolithic (%v)", pipe, mono)
	}
}

// TestPipelinedChunkMismatchNegotiated: ranks pass different chunk
// arguments, and the broadcast must still be byte-exact because every relay
// cuts the stream where the root's announced chunk size says, not where its
// own argument would.
func TestPipelinedChunkMismatchNegotiated(t *testing.T) {
	payload := patterned(10_000)
	for _, tc := range []struct{ rootChunk, relayChunk int }{
		{3000, 1000},
		{1000, 3000},
		{4096, 0}, // the relay passes "default", the root does not
	} {
		runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
			switch e.Rank() {
			case 0:
				if _, err := e.BcastPipelined(0, 2, mpi.Bytes(payload), tc.rootChunk); err != nil {
					t.Errorf("root chunk %d: %v", tc.rootChunk, err)
				}
			case 1:
				got, err := e.BcastPipelined(0, 2, mpi.Buffer{}, tc.relayChunk)
				if err != nil {
					t.Errorf("relay chunk %d vs root %d: %v", tc.relayChunk, tc.rootChunk, err)
					return
				}
				if !bytes.Equal(got.Data, payload) {
					t.Errorf("chunk %d vs %d: payload corrupted", tc.rootChunk, tc.relayChunk)
				}
			}
		})
	}
}

// pipeHeader hand-assembles the 16-byte little-endian announcement header
// (total ‖ chunk) the way a hostile root would.
func pipeHeader(total, chunk uint64) []byte {
	out := make([]byte, 16)
	for i := 0; i < 8; i++ {
		out[i] = byte(total >> (8 * i))
		out[8+i] = byte(chunk >> (8 * i))
	}
	return out
}

// pipeChunkTag is the tag chunk k of a pipelined broadcast at tag rides:
// tag + pipelineTagStride·(k+1).
func pipeChunkTag(tag, k int) int { return tag + (1<<20)*(k+1) }

// TestPipelinedHostileHeaderRejected: a header announcing a zero chunk size,
// a chunk size demanding an absurd number of chunk receives, or an absurd
// total must fail the relay as malformed wire before any chunk receive is
// posted. The hostile root seals the header like any record, so it
// authenticates; only the decoded values are wrong.
func TestPipelinedHostileHeaderRejected(t *testing.T) {
	for _, tc := range []struct {
		name         string
		total, chunk uint64
	}{
		{"zero-chunk", 1 << 20, 0},
		{"absurd-chunk-count", 1 << 40, 1},
		{"absurd-total", 1 << 50, 1 << 20},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
				switch e.Rank() {
				case 0:
					if err := e.Send(1, 3, mpi.Bytes(pipeHeader(tc.total, tc.chunk))); err != nil {
						t.Error(err)
					}
				case 1:
					_, err := e.BcastPipelined(0, 3, mpi.Buffer{}, 0)
					if !errors.Is(err, encmpi.ErrMalformedWire) {
						t.Errorf("hostile header error = %v, want ErrMalformedWire", err)
					}
				}
			})
		})
	}
}

// TestPipelinedOvershootMalformed: a root pushing more chunk bytes than its
// header announced must fail the relay with a malformed-wire error — not
// assemble out of bounds, not truncate silently.
func TestPipelinedOvershootMalformed(t *testing.T) {
	runEncrypted(t, 2, "aesstd", func(e *encmpi.Comm) {
		switch e.Rank() {
		case 0:
			// Announce 4000 bytes in 2000-byte chunks, then send two
			// 3000-byte chunks: chunk 1 overruns the announcement.
			if err := e.Send(1, 4, mpi.Bytes(pipeHeader(4000, 2000))); err != nil {
				t.Error(err)
			}
			for k := 0; k < 2; k++ {
				if err := e.Send(1, pipeChunkTag(4, k), mpi.Bytes(patterned(3000))); err != nil {
					t.Errorf("chunk %d: %v", k, err)
				}
			}
		case 1:
			_, err := e.BcastPipelined(0, 4, mpi.Buffer{}, 0)
			if !errors.Is(err, encmpi.ErrMalformedWire) {
				t.Errorf("overshoot error = %v, want ErrMalformedWire", err)
			}
		}
	})
}

// ctsFailingTransport forwards to an inner transport but fails every CTS
// frame — the unit-level stand-in for a socket that dies after the sender's
// RTS arrived.
type ctsFailingTransport struct{ inner mpi.Transport }

func (f ctsFailingTransport) Send(from sched.Proc, m *mpi.Msg) error {
	if m.Kind == mpi.KindCTS {
		return fmt.Errorf("synthetic CTS wire failure")
	}
	return f.inner.Send(from, m)
}

// TestBcastPipelinedRelayTransportError: a chunk receive the transport
// failed must surface from the relay as mpi.ErrTransport, not as the
// malformed or unauthenticated record its empty buffer would look like.
// Rank 0 injects the header and one rendezvous-size chunk raw (the null
// engine seals nothing), so the relay's chunk receive matches the RTS and
// its CTS reply dies on the wire.
func TestBcastPipelinedRelayTransportError(t *testing.T) {
	inner := shm.New()
	w := mpi.NewWorld(2, ctsFailingTransport{inner}, 1<<10)
	inner.Bind(w)
	var g sched.Group
	c0, c1 := w.AttachRank(0, g.Proc()), w.AttachRank(1, g.Proc())

	const tag, n = 6, 4 << 10 // past the 1 KiB eager threshold: rendezvous
	c0.Isend(1, tag, mpi.Bytes(pipeHeader(n, n)))
	c0.Isend(1, pipeChunkTag(tag, 0), mpi.Bytes(patterned(n)))

	_, err := encmpi.Wrap(c1, encmpi.NullEngine{}).BcastPipelined(0, tag, mpi.Buffer{}, 0)
	if !errors.Is(err, mpi.ErrTransport) {
		t.Fatalf("relay error = %v, want ErrTransport", err)
	}
}
