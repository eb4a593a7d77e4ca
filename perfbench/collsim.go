package main

import (
	"fmt"
	"time"

	"encmpi"
)

// coll_sim: the paper's OSU collective experiment on the discrete-event
// simulator — 64 ranks on 8 nodes, 10 GbE, the BoringSSL (gcc 4.8.5)
// AES-256 cost model. Each launch runs a fixed sequence of collectives once
// untimed (warm-up, including the hear key ceremony) and then collPasses
// times timed, with a barrier after each collective. Each collective is one
// op; its wall latency is its pass's wall time (barriers included) divided
// by the collectives in the pass, as rank 0 cannot see when the other
// simulated ranks finish a collective. Virtual times are exact, so
// every timed pass must reproduce the first one's virtual times, and every
// launch the first launch's virtual times, event count, and fabric traffic,
// bit for bit.

// collPasses is the number of timed passes over the sequence per launch.
const collPasses = 8

// collStep is one collective of the fixed sequence.
type collStep struct {
	op   string
	size int
}

// collSeq is the sequence: Bcast and Alltoall at the paper's 1 B and 16 KiB
// sizes, then the hierarchical AEAD allreduce and the additive-noise plan
// allreduce at 64 KiB.
var collSeq = [...]collStep{
	{"bcast", 1}, {"bcast", 16384},
	{"alltoall", 1}, {"alltoall", 16384},
	{"hier_allreduce", 65536}, {"hear_allreduce", 65536},
}

// collName is a step's per-layer metric name.
func (s collStep) collName() string { return fmt.Sprintf("coll.%s_%d_virt_us", s.op, s.size) }

// simFingerprint is what must repeat exactly across launches.
type simFingerprint struct {
	virt    [len(collSeq)]time.Duration
	total   time.Duration
	events  uint64
	packets int
	bytes   int64
}

func runCollSim(cfg config, ph *phase) error {
	ranks, nodes := 64, 8
	if cfg.tiny {
		ranks, nodes = 16, 4
	}
	spec := encmpi.PaperTestbed(ranks, nodes)
	ph.rateWindow = 0 // one rate window per timed pass
	var first *simFingerprint
	var events uint64
	var simWall time.Duration
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for j := 0; j == 0 || time.Now().Before(deadline); j++ {
		fp, wall, err := collSimJob(ph, spec, ranks)
		if err != nil {
			return err
		}
		events += fp.events
		simWall += wall
		ph.attempted += collPasses * int64(len(collSeq))
		if first == nil {
			first = &fp
		} else if fp != *first {
			ph.fail(collPasses*int64(len(collSeq)), "coll_sim: launch %d is not deterministic: %+v, first launch %+v", j, fp, *first)
		}
	}
	for i, s := range collSeq {
		ph.layer[s.collName()] = metric{Value: float64(first.virt[i].Nanoseconds()) / 1e3}
	}
	ph.layer["sim.time_us"] = metric{Value: float64(first.total.Nanoseconds()) / 1e3}
	ph.layer["sim.events"] = metric{Value: float64(first.events)}
	ph.layer["sim.events_per_s"] = metric{Value: ratio(float64(events), simWall.Seconds())}
	ph.layer["simnet.packets"] = metric{Value: float64(first.packets)}
	ph.layer["simnet.bytes"] = metric{Value: float64(first.bytes)}
	ph.checkRegistry()
	return nil
}

// collSimJob runs one launch and returns its fingerprint and wall time.
func collSimJob(ph *phase, spec encmpi.ClusterSpec, ranks int) (simFingerprint, time.Duration, error) {
	var fp simFingerprint
	start := make([][collPasses][len(collSeq)]time.Duration, ranks)
	end := make([][collPasses][len(collSeq)]time.Duration, ranks)
	fails := make([]int, len(collSeq))
	opts := ph.launchOpts()
	var col *encmpi.TraceCollector
	if ph.traced {
		col = &encmpi.TraceCollector{}
		opts = append(opts, encmpi.WithTrace(col))
	}
	launched := time.Now()
	res, err := encmpi.RunSim(spec, encmpi.Eth10G(), func(c *encmpi.Comm) {
		rank := c.Rank()
		var tr *tracer
		if rank == 0 {
			tr = ph.tr
			tr.record("job.launch", launched, time.Now())
		}
		model, err := encmpi.LibraryModel("boringssl", "gcc485", 256)
		if err != nil {
			panic(err) // a calibrated library
		}
		hearEng, err := encmpi.NewEngine(encmpi.EngineSpec{Kind: "hear", Library: "boringssl", Variant: "gcc485", KeyBits: 256})
		if err != nil {
			panic(err) // a fixed, valid spec
		}
		wrap := append(ph.wrapOpts(), encmpi.WithPipelineThreshold(-1))
		m := encmpi.EncryptWith(c, model, wrap...)
		h := encmpi.EncryptWith(c, hearEng, ph.wrapOpts()...)

		t0 := time.Now()
		plan := h.AllreduceInit(encmpi.Float64, encmpi.OpSum)
		ceremony := time.Since(t0)
		run := func(s collStep) error {
			switch s.op {
			case "bcast":
				var buf encmpi.Buffer
				if rank == 0 {
					buf = encmpi.Synthetic(s.size)
				}
				out, err := m.Bcast(0, buf)
				if err == nil && out.Len() != s.size {
					err = fmt.Errorf("bcast delivered %d bytes, want %d", out.Len(), s.size)
				}
				return err
			case "alltoall":
				blocks := make([]encmpi.Buffer, c.Size())
				for i := range blocks {
					blocks[i] = encmpi.Synthetic(s.size)
				}
				out, err := m.Alltoall(blocks)
				if err == nil && len(out) != c.Size() {
					err = fmt.Errorf("alltoall delivered %d blocks, want %d", len(out), c.Size())
				}
				for i := 0; err == nil && i < len(out); i++ {
					if out[i].Len() != s.size {
						err = fmt.Errorf("alltoall block %d of %d bytes, want %d", i, out[i].Len(), s.size)
					}
				}
				return err
			case "hier_allreduce":
				out, err := m.HierAllreduce(encmpi.Synthetic(s.size), encmpi.Float64, encmpi.OpSum)
				if err == nil && out.Len() != s.size {
					err = fmt.Errorf("hier allreduce delivered %d bytes, want %d", out.Len(), s.size)
				}
				return err
			default:
				out, err := plan.Start(encmpi.Synthetic(s.size)).Wait()
				if err == nil && out.Len() != s.size {
					err = fmt.Errorf("hear allreduce delivered %d bytes, want %d", out.Len(), s.size)
				}
				return err
			}
		}
		// Warm-up pass, shaped like a timed one; the ceremony span is the
		// plan's init plus its first cycle.
		for i, s := range collSeq {
			t1 := time.Now()
			if err := run(s); err != nil {
				fails[i] = 1
			}
			if s.op == "hear_allreduce" && rank == 0 {
				tr.record("hear.ceremony", t0, t0.Add(ceremony+time.Since(t1)))
			}
			c.Barrier()
		}
		var timer *opTimer
		if rank == 0 {
			timer = &opTimer{ph: ph, launched: launched}
			ph.beginTimed()
		}
		for pass := 0; pass < collPasses; pass++ {
			// A full exchange and a barrier, so every rank enters each pass
			// with the same clock.
			for _, b := range c.Allgatherv(encmpi.Bytes([]byte{0})) {
				b.Release()
			}
			c.Barrier()
			var w0 time.Time
			op := int64(-1)
			if rank == 0 {
				w0 = timer.start()
				op = ph.ops
			}
			sp := tr.begin("coll.pass", -1, op)
			for i, s := range collSeq {
				cs := tr.begin("coll."+s.op, sp, op)
				start[rank][pass][i] = c.Proc().Now()
				if err := run(s); err != nil {
					fails[i] = 1
				}
				end[rank][pass][i] = c.Proc().Now()
				tr.end(cs)
				bs := tr.begin("mpi.barrier", sp, op)
				c.Barrier()
				tr.end(bs)
			}
			tr.end(sp)
			if rank == 0 {
				timer.stop(w0, len(collSeq))
				ph.closeRate()
			}
		}
		if rank == 0 {
			ph.endTimed()
		}
	}, opts...)
	wall := time.Since(launched)
	if err != nil {
		return fp, wall, fmt.Errorf("coll_sim job: %w", err)
	}
	for i, f := range fails {
		if f != 0 {
			ph.fail(1, "coll_sim: %s at %d bytes failed", collSeq[i].op, collSeq[i].size)
		}
	}
	for pass := 0; pass < collPasses; pass++ {
		var virt [len(collSeq)]time.Duration
		for i := range collSeq {
			lo, hi := start[0][pass][i], end[0][pass][i]
			for r := 1; r < ranks; r++ {
				lo, hi = min(lo, start[r][pass][i]), max(hi, end[r][pass][i])
			}
			virt[i] = hi - lo
			ph.rankNs += float64((hi - lo).Nanoseconds()) * float64(ranks)
			ph.payload += collPayload(collSeq[i], ranks)
		}
		total := maxEnd(end, pass, len(collSeq)-1) - minStart(start, pass, 0)
		if pass == 0 {
			fp.virt, fp.total = virt, total
		} else if virt != fp.virt || total != fp.total {
			ph.fail(int64(len(collSeq)), "coll_sim: timed pass %d took %v (%v), pass 0 took %v (%v)", pass, virt, total, fp.virt, fp.total)
		}
	}
	fp.events, fp.packets, fp.bytes = res.Events, res.Packets, res.Bytes
	if col != nil {
		q := float64(col.MaxQueueing().Nanoseconds()) / 1e3
		if q > ph.layer["simnet.max_queueing_us"].Value {
			ph.layer["simnet.max_queueing_us"] = metric{Value: q}
		}
	}
	return fp, wall, nil
}

func maxEnd(v [][collPasses][len(collSeq)]time.Duration, pass, i int) time.Duration {
	m := v[0][pass][i]
	for _, r := range v {
		m = max(m, r[pass][i])
	}
	return m
}

func minStart(v [][collPasses][len(collSeq)]time.Duration, pass, i int) time.Duration {
	m := v[0][pass][i]
	for _, r := range v {
		m = min(m, r[pass][i])
	}
	return m
}

// collPayload is the plaintext bytes one collective delivers to its ranks.
func collPayload(s collStep, ranks int) int64 {
	n := int64(s.size)
	p := int64(ranks)
	switch s.op {
	case "bcast":
		return n * (p - 1)
	case "alltoall":
		return n * p * (p - 1)
	default:
		return n * p
	}
}
