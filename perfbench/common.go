package main

import (
	"math"
	"math/rand"
	"time"

	"encmpi"
)

// seedKey derives a 32-byte session key from the run seed.
func seedKey(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	key := make([]byte, 32)
	rng.Read(key)
	return key
}

// control is the closed loop's per-round agreement, run on the plaintext
// communicator between timed ops: rank 0 says whether another round
// follows, and every rank contributes failure flags. Both travel in one
// max-allreduce, so all ranks leave with the same decision and the union of
// the flags.
func control(c *encmpi.Comm, more bool, flags []float64) (bool, []float64) {
	v := make([]float64, 1+len(flags))
	if c.Rank() == 0 && more {
		v[0] = 1
	}
	copy(v[1:], flags)
	out := c.Allreduce(encmpi.Float64Buffer(v), encmpi.Float64, encmpi.OpMax)
	got := encmpi.Float64s(out)
	out.Release()
	return got[0] == 1, got[1:]
}

// opTimer records one rank-0 op: its latency sample, the phase's busy time,
// and (first time only) the launch's set-up time.
type opTimer struct {
	ph       *phase
	launched time.Time
	setup    bool // set-up time recorded for this launch
}

// start marks the beginning of a timed op.
func (t *opTimer) start() time.Time {
	now := time.Now()
	if !t.setup {
		t.setup = true
		t.ph.setups = append(t.ph.setups, now.Sub(t.launched).Seconds())
	}
	return now
}

// stop records n ops that began together at t0; their latency sample is
// the elapsed time per op.
func (t *opTimer) stop(t0 time.Time, n int) {
	d := time.Since(t0)
	ph := t.ph
	ph.lats.add(d.Nanoseconds() / int64(n))
	ph.busy += d
	ph.ops += int64(n)
	ph.winBusy += d
	ph.winOps += int64(n)
	if ph.rateWindow > 0 && ph.winBusy >= ph.rateWindow {
		ph.closeRate()
	}
}

// latHist is a latency histogram with logarithmic buckets 1% wide, so a
// run's memory does not grow with the number of ops it times.
type latHist struct {
	counts [latBuckets]uint64
	n      uint64
}

const (
	latBase = 1.01
	// latBuckets reaches latBase^2400 ns ≈ 23 s.
	latBuckets = 2400
)

var logLatBase = math.Log(latBase)

func (h *latHist) add(ns int64) {
	i := 0
	if ns > 1 {
		i = min(int(math.Log(float64(ns))/logLatBase), latBuckets-1)
	}
	h.counts[i]++
	h.n++
}

// quantile interpolates linearly within the bucket holding the q-quantile.
func (h *latHist) quantile(q float64) float64 {
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo := math.Pow(latBase, float64(i))
			return lo + lo*(latBase-1)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}
