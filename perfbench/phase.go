package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"encmpi"
)

// maxFailureNotes bounds the failure messages a phase keeps.
const maxFailureNotes = 20

// phase is one measured pass of a workload: cfg.jobs launches, each with a
// closed-loop timed window driven by rank 0. Everything here is written by
// rank 0's goroutine (or by the driver between launches), so it needs no
// locking.
type phase struct {
	cfg    config
	traced bool
	tr     *tracer           // nil when untraced
	reg    *encmpi.Registry  // nil when untraced
	layer  map[string]metric // workload-specific per-layer values

	setups  []float64 // per launch, seconds
	mems    []float64 // per launch, MiB
	lats    latHist   // rank-0 op latencies, ns
	ops     int64
	busy    time.Duration // Σ rank-0 timed segments
	payload int64         // plaintext payload bytes delivered by timed ops

	// The op rate is the median of the rates of consecutive rate windows:
	// stretches of rateWindow timed wall time within one launch (0: the
	// workload closes each window itself). A median over windows keeps a
	// transient stall of the host from moving the run's rate.
	rateWindow time.Duration
	winBusy    time.Duration
	winOps     int64
	rates      []float64

	// rankNs is the denominator of the time-share metrics: ranks × busy on
	// the real transports, Σ simulated rank time on the simulator (whose
	// crypto and wait clocks are virtual).
	rankNs float64

	attempted, failed int64
	failures          []string

	// Registry and runtime deltas over the timed windows (traced only).
	cnt     counters
	mallocs uint64
	gcs     uint32
	snap    counters
	ms0     runtime.MemStats
}

func newPhase(cfg config, traced bool) *phase {
	ph := &phase{cfg: cfg, traced: traced, layer: map[string]metric{}, rateWindow: 100 * time.Millisecond}
	if traced {
		ph.tr = newTracer()
		ph.reg = encmpi.NewRegistry(2)
	}
	return ph
}

// window is the timed window of one launch.
func (ph *phase) window() time.Duration {
	return time.Duration(ph.cfg.seconds / float64(ph.cfg.jobs) * float64(time.Second))
}

// launchOpts returns the launcher options of this phase.
func (ph *phase) launchOpts() []encmpi.Option {
	opts := append([]encmpi.Option(nil), ph.cfg.launch...)
	if ph.reg != nil {
		opts = append(opts, encmpi.WithMetrics(ph.reg))
	}
	return opts
}

// wrapOpts returns the options for communicators wrapped in a job body.
func (ph *phase) wrapOpts() []encmpi.Option {
	if ph.reg != nil {
		return []encmpi.Option{encmpi.WithMetrics(ph.reg)}
	}
	return nil
}

// fail records n failed ops with a note.
func (ph *phase) fail(n int64, format string, args ...any) {
	ph.failed += n
	if len(ph.failures) < maxFailureNotes {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// closeRate ends the current rate window.
func (ph *phase) closeRate() {
	if ph.winOps > 0 {
		ph.rates = append(ph.rates, float64(ph.winOps)/ph.winBusy.Seconds())
	}
	ph.winBusy, ph.winOps = 0, 0
}

// opRate is the median window rate, or the whole phase's rate when no
// window closed.
func (ph *phase) opRate() float64 {
	if len(ph.rates) == 0 {
		return ratio(float64(ph.ops), ph.busy.Seconds())
	}
	return median(ph.rates)
}

// beginTimed and endTimed bracket one launch's timed window on rank 0,
// accumulating registry and allocator deltas (traced only). A rate window
// never spans two launches.
func (ph *phase) beginTimed() {
	ph.winBusy, ph.winOps = 0, 0
	if !ph.traced {
		return
	}
	ph.snap = countersOf(ph.reg.Snapshot())
	runtime.ReadMemStats(&ph.ms0)
}

func (ph *phase) endTimed() {
	var ms runtime.MemStats
	if ph.traced {
		runtime.ReadMemStats(&ms)
		ph.mallocs += ms.Mallocs - ph.ms0.Mallocs
		ph.gcs += ms.NumGC - ph.ms0.NumGC
		ph.cnt.add(countersOf(ph.reg.Snapshot()).sub(ph.snap))
	}
	// The launch's live memory: heap and stacks in use after a full
	// collection, taken while its job still runs. Unlike Sys, which moves
	// in arena-sized steps with GC timing, it repeats from run to run.
	runtime.GC()
	runtime.ReadMemStats(&ms)
	ph.mems = append(ph.mems, float64(ms.HeapInuse+ms.StackInuse)/(1<<20))
}

// checkRegistry applies the traced-run invariants to the whole registry:
// the AES-GCM wire identity, no authentication failures, no strays.
func (ph *phase) checkRegistry() {
	if !ph.traced {
		return
	}
	s := ph.reg.Snapshot()
	var bad []string
	if err := s.CheckByteAccounting(encmpi.Overhead); err != nil {
		bad = append(bad, err.Error())
	}
	c := countersOf(s)
	if c.authFailures > 0 {
		bad = append(bad, fmt.Sprintf("%d authentication failures", c.authFailures))
	}
	if c.strays > 0 {
		bad = append(bad, fmt.Sprintf("%d stray messages", c.strays))
	}
	ph.attempted++
	if len(bad) > 0 {
		ph.fail(1, "registry check: %s", strings.Join(bad, "; "))
	}
}

// addLayer adds v to a workload-specific per-layer value.
func (ph *phase) addLayer(name string, v float64) {
	ph.layer[name] = metric{Value: ph.layer[name].Value + v}
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func (ph *phase) endToEnd() map[string]metric {
	rate := ph.opRate()
	return map[string]metric{
		"setup_s":      {median(ph.setups), "s"},
		"op_rate":      {rate, "1/s"},
		"op_p50_us":    {ph.lats.quantile(0.50) / 1e3, "us"},
		"goodput_MBps": {rate * ratio(float64(ph.payload), float64(ph.ops)) / 1e6, "MB/s"},
		"mem_MiB":      {median(ph.mems), "MiB"},
	}
}

// perLayer derives the per-layer metrics of a traced phase; plain is the
// untraced phase run just before it, for the tracing overhead. Every name
// in perLayerMetrics is reported; a layer the workload does not exercise
// reads 0.
func (ph *phase) perLayer(plain *phase) map[string]metric {
	out := make(map[string]metric, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		out[m.Name] = metric{0, m.Unit}
	}
	set := func(name string, v float64) {
		m, ok := out[name]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m.Value = v
		out[name] = m
	}
	ops := float64(ph.ops)
	c := ph.cnt
	self := ph.tr.selfTimes()

	set("job.launch_ms", median(self["job.launch"])/1e6)
	set("session.attach_us", median(self["session.attach"])/1e3)
	set("session.auth_failures", float64(c.authFailures))
	set("encmpi.seal_ns_mean", ratio(float64(c.sealNs), float64(c.seals)))
	set("encmpi.open_ns_mean", ratio(float64(c.openNs), float64(c.opens)))
	set("encmpi.crypto_share", ratio(float64(c.sealNs+c.openNs), ph.rankNs))
	set("encmpi.seals_per_op", ratio(float64(c.seals), ops))
	set("encmpi.in_place_ratio", ratio(float64(c.sealsInPlace), float64(c.seals)))
	set("encmpi.seals_internode", ratio(float64(c.sealsInterNode), ops))
	set("pipeline.chunks_per_op", ratio(float64(c.chunks), ops))
	set("pipeline.seal_overlap_share", ratio(float64(c.sealOverlap), float64(c.sealNs)))
	set("pipeline.open_overlap_share", ratio(float64(c.openOverlap), float64(c.openNs)))
	set("pipeline.max_in_flight", float64(c.maxInFlight))
	set("mpi.wait_share", ratio(float64(c.waitNs), ph.rankNs))
	set("mpi.wait_p50_us", histQuantile(c.waitHist, 0.5)/1e3)
	set("mpi.msgs_per_op", ratio(float64(c.msgs), ops))
	set("mpi.bytes_per_op", ratio(float64(c.bytes), ops))
	set("mpi.strays", float64(c.strays))
	set("mpi.send_us", median(self["mpi.send"])/1e3)
	set("mpi.wait_us", median(self["mpi.wait"])/1e3)
	set("mpi.allreduce_us", median(self["mpi.allreduce"])/1e3)
	set("ring.acquired_per_op", ratio(float64(c.ringAcquired), ops))
	set("ring.fallback_ratio", ratio(float64(c.ringFallbacks), float64(c.ringAcquired+c.ringFallbacks)))
	set("transport.slot_direct_eager", ratio(float64(c.slotDirect), ops))
	set("wire.flushes_per_op", ratio(float64(c.flushes), ops))
	set("wire.frames_per_flush", ratio(float64(c.frames), float64(c.flushes)))
	set("wire.inline_flush_ratio", ratio(float64(c.inlineFlushes), float64(c.flushes)))
	set("wire.write_errors", float64(c.writeErrors))
	set("hear.ns_per_elem", ratio(float64(c.hearNs), float64(c.hearElems)))
	set("hear.share", ratio(float64(c.hearNs), ph.rankNs))
	set("hear.elems_per_op", ratio(float64(c.hearElems), ops))
	set("hear.ceremony_ms", median(self["hear.ceremony"])/1e6)
	set("runtime.allocs_per_op", ratio(float64(ph.mallocs), ops))
	set("runtime.gc_cycles", float64(ph.gcs))
	set("bench.span_coverage", ph.tr.coverage())
	set("bench.fail_ratio", ratio(float64(plain.failed+ph.failed), float64(plain.attempted+ph.attempted)))
	set("bench.op_p99_us", plain.lats.quantile(0.99)/1e3)
	set("bench.trace_overhead", 1-ratio(ph.opRate(), plain.opRate()))
	for name, m := range ph.layer {
		set(name, m.Value)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks of sorted v.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median returns the median of v (0 for none).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// histQuantile reads a quantile off a power-of-two histogram (bucket b
// holds 2^(b-1) ≤ v < 2^b), interpolating within the bucket.
func histQuantile(buckets map[int]uint64, q float64) float64 {
	var total uint64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	idx := make([]int, 0, len(buckets))
	for b := range buckets {
		idx = append(idx, b)
	}
	sort.Ints(idx)
	target := q * float64(total)
	var seen float64
	for _, b := range idx {
		n := float64(buckets[b])
		if seen+n >= target {
			if b == 0 {
				return 0
			}
			lo := math.Ldexp(1, b-1)
			return lo + lo*(target-seen)/n
		}
		seen += n
	}
	return math.Ldexp(1, idx[len(idx)-1])
}
