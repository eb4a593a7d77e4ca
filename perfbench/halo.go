package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"encmpi"
)

// halo_shm: a distributed conjugate-gradient solve of the 1D Poisson
// system A·x = b (A = tridiag(−1, 2, −1)), row-partitioned over two ranks
// on the in-process transport. Each CG iteration is one op: an 8-byte
// encrypted halo exchange each way (Irecv/Send/Wait on a session engine)
// plus two 8-byte Allreduce dot products.
const (
	haloRanks = 2
	haloTag   = 7
	// cgTol is the relative residual a solve must reach; cgErrTol bounds
	// the max error against the exact solution, relative to its max norm.
	cgTol    = 1e-10
	cgErrTol = 1e-6
)

// poisson is one seeded problem: the exact solution, b = A·exact, and
// ‖b‖², which every rank knows without communicating.
type poisson struct {
	n        int
	exact, b []float64
	maxExact float64
	bb       float64
}

// newPoisson builds a problem whose exact solution has a full spectrum (a
// smooth part plus seeded noise), so CG needs about n iterations.
func newPoisson(n int, seed int64) *poisson {
	rng := rand.New(rand.NewSource(seed))
	a1, a2, a3 := 0.5+rng.Float64(), rng.Float64(), 0.25+0.5*rng.Float64()
	phi, w := 2*math.Pi*rng.Float64(), 1+3*rng.Float64()
	p := &poisson{n: n, exact: make([]float64, n), b: make([]float64, n)}
	for i := range p.exact {
		t := float64(i+1) / float64(n+1)
		p.exact[i] = a1*math.Sin(math.Pi*t) + a2*math.Sin(3*math.Pi*t+phi) +
			a3*math.Cos(w*float64(i)) + 0.1*(2*rng.Float64()-1)
		p.maxExact = math.Max(p.maxExact, math.Abs(p.exact[i]))
	}
	for i := range p.b {
		v := 2 * p.exact[i]
		if i > 0 {
			v -= p.exact[i-1]
		}
		if i < n-1 {
			v -= p.exact[i+1]
		}
		p.b[i] = v
		p.bb += v * v
	}
	return p
}

// cgRank is one rank's share of the solve, with every vector allocated once.
type cgRank struct {
	e                 *encmpi.EncryptedComm
	rank, peer, local int
	lo                int
	prob              *poisson
	x, r, d, ad       []float64
	sendBuf, redBuf   [8]byte
}

func newCGRank(e *encmpi.EncryptedComm, prob *poisson) *cgRank {
	local := prob.n / haloRanks
	return &cgRank{
		e: e, rank: e.Rank(), peer: 1 - e.Rank(), local: local, lo: e.Rank() * local, prob: prob,
		x: make([]float64, local), r: make([]float64, local),
		d: make([]float64, local), ad: make([]float64, local),
	}
}

// sum is a one-element Allreduce.
func (s *cgRank) sum(v float64) (float64, error) {
	binary.LittleEndian.PutUint64(s.redBuf[:], math.Float64bits(v))
	out, err := s.e.Allreduce(encmpi.Bytes(s.redBuf[:]), encmpi.Float64, encmpi.OpSum)
	if err != nil {
		return 0, err
	}
	if out.Len() != 8 {
		return 0, fmt.Errorf("allreduce returned %d bytes, want 8", out.Len())
	}
	got := math.Float64frombits(binary.LittleEndian.Uint64(out.Data))
	out.Release()
	return got, nil
}

// ghost exchanges the boundary value of v with the peer.
func (s *cgRank) ghost(v []float64, tr *tracer, parent int32, op int64) (float64, error) {
	sp := tr.begin("mpi.send", parent, op)
	req := s.e.Irecv(s.peer, haloTag)
	edge := v[0]
	if s.rank == 0 {
		edge = v[s.local-1]
	}
	binary.LittleEndian.PutUint64(s.sendBuf[:], math.Float64bits(edge))
	serr := s.e.Send(s.peer, haloTag, encmpi.Bytes(s.sendBuf[:]))
	tr.end(sp)
	sp = tr.begin("mpi.wait", parent, op)
	buf, _, werr := s.e.Wait(req)
	tr.end(sp)
	if werr != nil {
		return 0, werr
	}
	defer buf.Release()
	if serr != nil {
		return 0, serr
	}
	if buf.Len() != 8 {
		return 0, fmt.Errorf("halo of %d bytes, want 8", buf.Len())
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf.Data)), nil
}

// solveOutcome is what one solve reports to the closed loop.
type solveOutcome struct {
	iters  int
	relres float64
	err    error
}

// solve runs CG from x = 0. On rank 0 of a timed solve, t records every
// iteration as an op and tr its spans. A failed call does not end the
// solve: both ranks keep iterating in lockstep (the allreduces keep their
// residuals identical), and the output check fails it afterwards.
func (s *cgRank) solve(t *opTimer, tr *tracer) solveOutcome {
	b := s.prob.b[s.lo : s.lo+s.local]
	var out solveOutcome
	note := func(err error) {
		if err != nil && out.err == nil {
			out.err = err
		}
	}
	for i := range s.x {
		s.x[i], s.r[i], s.d[i] = 0, b[i], b[i]
	}
	bb := s.prob.bb
	rr := bb
	maxIter := 2 * s.prob.n
	for out.iters < maxIter && rr > cgTol*cgTol*bb {
		var t0 time.Time
		op := int64(-1)
		if t != nil {
			t0 = t.start()
			op = t.ph.ops
		}
		it := tr.begin("cg.iter", -1, op)

		g, err := s.ghost(s.d, tr, it, op)
		note(err)
		sp := tr.begin("cg.compute", it, op)
		left, right := 0.0, 0.0
		if s.rank == 0 {
			right = g
		} else {
			left = g
		}
		var dAd float64
		for i := range s.d {
			l, r := left, right
			if i > 0 {
				l = s.d[i-1]
			}
			if i < s.local-1 {
				r = s.d[i+1]
			}
			s.ad[i] = 2*s.d[i] - l - r
			dAd += s.d[i] * s.ad[i]
		}
		tr.end(sp)
		sp = tr.begin("mpi.allreduce", it, op)
		dAd, err = s.sum(dAd)
		tr.end(sp)
		note(err)

		sp = tr.begin("cg.compute", it, op)
		alpha := rr / dAd
		var rrLocal float64
		for i := range s.x {
			s.x[i] += alpha * s.d[i]
			s.r[i] -= alpha * s.ad[i]
			rrLocal += s.r[i] * s.r[i]
		}
		tr.end(sp)
		sp = tr.begin("mpi.allreduce", it, op)
		rrNew, err := s.sum(rrLocal)
		tr.end(sp)
		note(err)

		sp = tr.begin("cg.compute", it, op)
		beta := rrNew / rr
		rr = rrNew
		for i := range s.d {
			s.d[i] = s.r[i] + beta*s.d[i]
		}
		tr.end(sp)
		tr.end(it)
		out.iters++
		if t != nil {
			t.stop(t0, 1)
		}
	}
	out.relres = math.Sqrt(rr / bb)
	return out
}

// maxErr is this rank's max deviation from the exact solution.
func (s *cgRank) maxErr() float64 {
	var worst float64
	for i, v := range s.x {
		worst = math.Max(worst, math.Abs(v-s.prob.exact[s.lo+i]))
	}
	return worst
}

// checkSolve agrees on one solve's outcome across ranks and books it on
// rank 0: every iteration is an attempted op, and all of them fail when
// any rank saw an error, the residual missed the tolerance, the solution
// missed the exact one, or the iteration count changed between solves of
// the same problem.
func (s *cgRank) checkSolve(c *encmpi.Comm, ph *phase, o solveOutcome, more bool, wantIters *int) bool {
	failed := 0.0
	if o.err != nil {
		failed = 1
	}
	more, flags := control(c, more, []float64{failed, s.maxErr(), o.relres})
	if s.rank != 0 {
		return more
	}
	ph.attempted += int64(o.iters)
	switch {
	case flags[0] != 0:
		ph.fail(int64(o.iters), "halo_shm: solve failed: %v", o.err)
	case !(flags[2] <= cgTol):
		ph.fail(int64(o.iters), "halo_shm: relative residual %.3g after %d iterations", flags[2], o.iters)
	case !(flags[1] <= cgErrTol*s.prob.maxExact):
		ph.fail(int64(o.iters), "halo_shm: max error %.3g against the exact solution", flags[1])
	case *wantIters != 0 && o.iters != *wantIters:
		ph.fail(int64(o.iters), "halo_shm: %d iterations, earlier solves took %d", o.iters, *wantIters)
	case *wantIters == 0:
		// The first solve that passes sets the count later ones must match.
		*wantIters = o.iters
	}
	return more
}

func runHalo(cfg config, ph *phase) error {
	n := 4096
	if cfg.tiny {
		n = 256
	}
	prob := newPoisson(n, cfg.seed)
	key := seedKey(cfg.seed)
	wantIters := 0
	if ph.tr != nil {
		// Iterations are short and many: keep the spans of every 16th.
		ph.tr.sample = 16
	}
	for j := 0; j < cfg.jobs; j++ {
		launched := time.Now()
		err := encmpi.RunShm(haloRanks, func(c *encmpi.Comm) {
			rank := c.Rank()
			var tr *tracer
			if rank == 0 {
				tr = ph.tr
				tr.record("job.launch", launched, time.Now())
			}
			t0 := time.Now()
			sess, err := encmpi.NewSession(key)
			if err != nil {
				panic(err) // the key is always 32 bytes
			}
			e, err := sess.Attach(c)
			if err != nil {
				panic(err) // a fresh session attaches once
			}
			if rank == 0 {
				tr.record("session.attach", t0, time.Now())
			}
			s := newCGRank(e, prob)

			// Warm-up: one checked, untimed solve.
			more := s.checkSolve(c, ph, s.solve(nil, nil), true, &wantIters)
			var timer *opTimer
			deriv := sess.Derivations()
			deadline := time.Now().Add(ph.window())
			if rank == 0 {
				timer = &opTimer{ph: ph, launched: launched}
				ph.beginTimed()
			}
			for more {
				o := s.solve(timer, tr)
				more = s.checkSolve(c, ph, o, time.Now().Before(deadline), &wantIters)
			}
			if rank == 0 {
				ph.endTimed()
				ph.rankNs = float64(ph.busy.Nanoseconds()) * haloRanks
				ph.addLayer("session.derivations", float64(sess.Derivations()-deriv))
				ph.layer["cg.iterations"] = metric{Value: float64(wantIters)}
			}
		}, ph.launchOpts()...)
		if err != nil {
			return fmt.Errorf("halo_shm job: %w", err)
		}
	}
	ph.payload = ph.ops * (2*8 + 2*haloRanks*8)
	ph.checkRegistry()
	return nil
}
