package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"encmpi"
	"encmpi/internal/cryptopool"
)

// allreduce_hear: two ranks on the in-process transport run one persistent
// AllreduceInit(Float64, OpSum) plan of the additive-noise (hear) engine over
// AES-GCM on 1 MiB vectors. Each allreduce is one op; every result is
// checked against the plaintext sum the benchmark computes itself.
const (
	hearRanks = 2
	// hearSets is the number of seeded input sets the ops cycle through;
	// hearBatch is how many ops run between two closed-loop rounds.
	hearSets  = 4
	hearBatch = 4
	// hearRelTol bounds |got − want| relative to max(1, |want|): the noise
	// masks round at the aggregate mask's magnitude.
	hearRelTol = 1e-6
	// hearTasks is the hear kernels' fan-out for a 1 MiB vector (64 KiB
	// chunks), the task count the worker-pool microbenchmark uses.
	hearTasks = 16
)

// hearInputs holds every rank's seeded vectors and their exact sums.
type hearInputs struct {
	vecs [hearSets][hearRanks][]float64
	want [hearSets][]float64
}

func newHearInputs(seed int64, elems int) *hearInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x4ea2))
	in := &hearInputs{}
	for s := range in.vecs {
		in.want[s] = make([]float64, elems)
		for r := range in.vecs[s] {
			v := make([]float64, elems)
			for i := range v {
				v[i] = 2*rng.Float64() - 1
				in.want[s][i] += v[i]
			}
			in.vecs[s][r] = v
		}
	}
	return in
}

// check compares one allreduce result with the plaintext sum.
func (in *hearInputs) check(set int, res encmpi.Buffer) error {
	want := in.want[set]
	if res.Len() != 8*len(want) {
		return fmt.Errorf("result of %d bytes, want %d", res.Len(), 8*len(want))
	}
	for i, w := range want {
		got := math.Float64frombits(binary.LittleEndian.Uint64(res.Data[8*i:]))
		if !(math.Abs(got-w) <= hearRelTol*math.Max(1, math.Abs(w))) {
			return fmt.Errorf("element %d = %v, want %v", i, got, w)
		}
	}
	return nil
}

func runHear(cfg config, ph *phase) error {
	elems := 131072
	if cfg.tiny {
		elems = 32768
	}
	in := newHearInputs(cfg.seed, elems)
	key := seedKey(cfg.seed)
	for j := 0; j < cfg.jobs; j++ {
		launched := time.Now()
		err := encmpi.RunShm(hearRanks, func(c *encmpi.Comm) {
			rank := c.Rank()
			var tr *tracer
			if rank == 0 {
				tr = ph.tr
				tr.record("job.launch", launched, time.Now())
			}
			eng, err := encmpi.NewEngine(encmpi.EngineSpec{Kind: "hear", Codec: "aesstd", Key: key, NoncePrefix: uint32(rank)})
			if err != nil {
				panic(err) // a fixed, valid spec
			}
			e := encmpi.EncryptWith(c, eng, ph.wrapOpts()...)
			bufs := make([]encmpi.Buffer, hearSets)
			for s := range bufs {
				bufs[s] = encmpi.Float64Buffer(in.vecs[s][rank])
			}

			// Set-up: the plan's init runs the key ceremony; its first cycle
			// is the checked warm-up.
			t0 := time.Now()
			plan := e.AllreduceInit(encmpi.Float64, encmpi.OpSum)
			res, err := plan.Start(bufs[0]).Wait()
			if rank == 0 {
				tr.record("hear.ceremony", t0, time.Now())
			}
			warmFail := 0.0
			if err == nil {
				err = in.check(0, res)
				res.Release()
			}
			if err != nil {
				warmFail = 1
			}
			more, flags := control(c, true, []float64{warmFail})
			if rank == 0 {
				ph.attempted++
				if flags[0] != 0 {
					ph.fail(1, "allreduce_hear: warm-up allreduce: %v", err)
				}
			}

			var timer *opTimer
			if rank == 0 {
				timer = &opTimer{ph: ph, launched: launched}
				ph.beginTimed()
			}
			deadline := time.Now().Add(ph.window())
			results := make([]encmpi.Buffer, hearBatch)
			errs := make([]error, hearBatch)
			fails := make([]float64, hearBatch)
			for k := 0; more; {
				for b := range results {
					set := (k + b) % hearSets
					var t0 time.Time
					op := int64(-1)
					if rank == 0 {
						t0 = timer.start()
						op = ph.ops
					}
					sp := tr.begin("allreduce.op", -1, op)
					ar := tr.begin("mpi.allreduce", sp, op)
					results[b], errs[b] = plan.Start(bufs[set]).Wait()
					tr.end(ar)
					tr.end(sp)
					if rank == 0 {
						timer.stop(t0, 1)
					}
				}
				for b := range results {
					fails[b] = 0
					if errs[b] == nil {
						errs[b] = in.check((k+b)%hearSets, results[b])
						results[b].Release()
					}
					if errs[b] != nil {
						fails[b] = 1
					}
				}
				more, flags = control(c, time.Now().Before(deadline), fails)
				if rank == 0 {
					ph.attempted += hearBatch
					for b, f := range flags {
						if f != 0 {
							ph.fail(1, "allreduce_hear: op %d: %v", ph.ops-hearBatch+int64(b), errs[b])
						}
					}
				}
				k += hearBatch
			}
			if rank == 0 {
				ph.endTimed()
				ph.rankNs = float64(ph.busy.Nanoseconds()) * hearRanks
			}
		}, ph.launchOpts()...)
		if err != nil {
			return fmt.Errorf("allreduce_hear job: %w", err)
		}
	}
	ph.payload = ph.ops * int64(8*elems*hearRanks)
	if ph.traced {
		pool := cryptopool.Default()
		ph.layer["cryptopool.dispatch_ns"] = metric{Value: dispatchNs(pool, hearTasks)}
		ph.layer["cryptopool.workers"] = metric{Value: float64(pool.Workers())}
	}
	ph.checkRegistry()
	return nil
}

// dispatchNs microbenchmarks the worker pool the hear kernels fan out to:
// the median time for one Batch of `tasks` empty tasks to be dispatched and
// waited for.
func dispatchNs(pool *cryptopool.Pool, tasks int) float64 {
	const rounds = 2000
	var sink [hearTasks]int
	samples := make([]float64, rounds)
	for r := range samples {
		t0 := time.Now()
		var b cryptopool.Batch
		for i := 0; i < tasks; i++ {
			i := i
			b.Go(pool, func() { sink[i%hearTasks]++ })
		}
		b.Wait()
		samples[r] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(samples)
	return quantile(samples, 0.5)
}
